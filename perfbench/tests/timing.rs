//! The timing decorator must forward, not reshape: batches stay batches,
//! and the tier hierarchy and byte accounting are the inner backend's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckptstore::{
    MemoryBackend, StorageBackend, StoreResult, TierSpec, TieredBackend,
};
use perfbench::timing::TimingBackend;

/// An inner backend that records which entry point each write used.
#[derive(Default)]
struct Recording {
    mem: MemoryBackend,
    puts: AtomicU64,
    batches: AtomicU64,
}

impl StorageBackend for Recording {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.mem.put(key, value)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.mem.put_many(items)
    }
    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        self.mem.get(key)
    }
    fn contains(&self, key: &str) -> StoreResult<bool> {
        self.mem.contains(key)
    }
    fn delete(&self, key: &str) -> StoreResult<()> {
        self.mem.delete(key)
    }
    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        self.mem.list(prefix)
    }
    fn bytes_written(&self) -> u64 {
        self.mem.bytes_written()
    }
}

#[test]
fn put_many_reaches_the_inner_backend_as_one_batch() {
    let inner = Arc::new(Recording::default());
    let timing = TimingBackend::new(inner.clone());
    let batch: Vec<(String, Vec<u8>)> = (0..3)
        .map(|i| (format!("k{i}"), vec![i as u8; 10]))
        .collect();
    timing.put_many(&batch).unwrap();
    assert_eq!(inner.batches.load(Ordering::Relaxed), 1);
    assert_eq!(inner.puts.load(Ordering::Relaxed), 0);
    let c = timing.counts();
    assert_eq!((c.put_calls, c.put_items, c.put_bytes), (1, 3, 30));
}

#[test]
fn single_calls_are_counted_and_forwarded() {
    let inner = Arc::new(MemoryBackend::new());
    let timing = TimingBackend::new(inner.clone());
    timing.put("a/1", b"hello").unwrap();
    timing.put("a/2", b"hi").unwrap();
    assert_eq!(timing.get("a/1").unwrap(), b"hello");
    assert!(timing.get("missing").is_err());
    assert!(timing.contains("a/2").unwrap());
    assert_eq!(timing.list("a/").unwrap(), ["a/1", "a/2"]);
    timing.delete("a/2").unwrap();
    assert!(!inner.contains("a/2").unwrap());

    let c = timing.counts();
    assert_eq!((c.put_calls, c.put_items, c.put_bytes), (2, 2, 7));
    assert_eq!((c.get_calls, c.get_bytes), (2, 5));
    assert_eq!((c.contains_calls, c.list_calls, c.delete_calls), (1, 1, 1));
    assert_eq!(timing.bytes_written(), inner.bytes_written());
}

#[test]
fn the_tier_hierarchy_is_found_through_the_decorator() {
    let plain = TimingBackend::new(Arc::new(MemoryBackend::new()));
    assert!(plain.as_tiered().is_none());

    let tiered = Arc::new(TieredBackend::new(
        vec![TierSpec::direct(Arc::new(MemoryBackend::new()))],
        2,
    ));
    let timing = TimingBackend::new(tiered.clone());
    let found = timing.as_tiered().expect("forwarded to the inner backend");
    assert!(std::ptr::eq(found, tiered.as_ref()));
}
