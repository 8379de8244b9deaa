//! A counting, timing `StorageBackend` decorator for the traced run.
//!
//! It forwards every call to the backend it wraps, so the store above it
//! behaves exactly as it would without it: `put_many` is forwarded as one
//! batch (the trait's default would split it into single puts and the
//! counts would show batching the program does not do), and `as_tiered`
//! and `bytes_written` answer for the inner backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ckptstore::{StorageBackend, StoreResult, TieredBackend};

/// Totals of the calls that went through a [`TimingBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `put` and `put_many` calls.
    pub put_calls: u64,
    /// Blobs stored by those calls (one per `put`, the batch length per
    /// `put_many`).
    pub put_items: u64,
    /// Bytes handed to those calls.
    pub put_bytes: u64,
    /// Time spent inside them, in nanoseconds.
    pub put_ns: u64,
    /// `get` calls.
    pub get_calls: u64,
    /// Bytes they returned.
    pub get_bytes: u64,
    /// Time spent inside them, in nanoseconds.
    pub get_ns: u64,
    /// `contains` calls (the store's existence probes, e.g. dedup misses).
    pub contains_calls: u64,
    /// `delete` calls.
    pub delete_calls: u64,
    /// `list` calls.
    pub list_calls: u64,
}

#[derive(Default)]
struct Cells {
    put_calls: AtomicU64,
    put_items: AtomicU64,
    put_bytes: AtomicU64,
    put_ns: AtomicU64,
    get_calls: AtomicU64,
    get_bytes: AtomicU64,
    get_ns: AtomicU64,
    contains_calls: AtomicU64,
    delete_calls: AtomicU64,
    list_calls: AtomicU64,
}

/// Counts and times the calls made to the backend it wraps.
pub struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    cells: Cells,
}

// The counters publish no other data, so Relaxed suffices throughout.
fn add(cell: &AtomicU64, v: u64) {
    cell.fetch_add(v, Ordering::Relaxed);
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl TimingBackend {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        TimingBackend {
            inner,
            cells: Cells::default(),
        }
    }

    /// The totals so far.
    pub fn counts(&self) -> IoCounts {
        let c = &self.cells;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoCounts {
            put_calls: get(&c.put_calls),
            put_items: get(&c.put_items),
            put_bytes: get(&c.put_bytes),
            put_ns: get(&c.put_ns),
            get_calls: get(&c.get_calls),
            get_bytes: get(&c.get_bytes),
            get_ns: get(&c.get_ns),
            contains_calls: get(&c.contains_calls),
            delete_calls: get(&c.delete_calls),
            list_calls: get(&c.list_calls),
        }
    }
}

impl StorageBackend for TimingBackend {
    fn put(&self, key: &str, value: &[u8]) -> StoreResult<()> {
        let t = Instant::now();
        let res = self.inner.put(key, value);
        add(&self.cells.put_ns, elapsed_ns(t));
        add(&self.cells.put_calls, 1);
        add(&self.cells.put_items, 1);
        add(&self.cells.put_bytes, value.len() as u64);
        res
    }

    fn put_many(&self, items: &[(String, Vec<u8>)]) -> StoreResult<()> {
        let t = Instant::now();
        let res = self.inner.put_many(items);
        add(&self.cells.put_ns, elapsed_ns(t));
        add(&self.cells.put_calls, 1);
        add(&self.cells.put_items, items.len() as u64);
        add(
            &self.cells.put_bytes,
            items.iter().map(|(_, v)| v.len() as u64).sum(),
        );
        res
    }

    fn get(&self, key: &str) -> StoreResult<Vec<u8>> {
        let t = Instant::now();
        let res = self.inner.get(key);
        add(&self.cells.get_ns, elapsed_ns(t));
        add(&self.cells.get_calls, 1);
        if let Ok(v) = &res {
            add(&self.cells.get_bytes, v.len() as u64);
        }
        res
    }

    fn contains(&self, key: &str) -> StoreResult<bool> {
        add(&self.cells.contains_calls, 1);
        self.inner.contains(key)
    }

    fn delete(&self, key: &str) -> StoreResult<()> {
        add(&self.cells.delete_calls, 1);
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        add(&self.cells.list_calls, 1);
        self.inner.list(prefix)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn as_tiered(&self) -> Option<&TieredBackend> {
        self.inner.as_tiered()
    }
}
