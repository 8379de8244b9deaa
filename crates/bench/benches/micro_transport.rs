//! Transport micro-benchmark: the cost of the netsim wire and its
//! reliable-delivery sublayer, measured from the application's seat.
//!
//! Three cells, same two-rank ping-pong workload:
//!
//! * **perfect** — the default wire. Frames take the direct path; the
//!   sublayer is never constructed. This is the baseline every other
//!   cell is judged against, and the number that must not regress when
//!   netsim is merely *available* (the zero-cost-when-disabled claim).
//! * **sublayer** — a wire whose only fault is a one-in-a-million
//!   duplication, so the reliable-delivery machinery (sequencing, acks,
//!   dedup, reassembly) is fully engaged while the wire itself behaves.
//!   The gap to *perfect* is the sublayer's bookkeeping cost.
//! * **lossy** — the stock `NetCond::lossy` preset with drops,
//!   duplicates, reorder, and delay. The gap to *sublayer* is the price
//!   of actual repair traffic.
//!
//! Besides the printed lines, the bench rewrites `BENCH_transport.json`
//! at the workspace root so the numbers are tracked in-repo.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use c3_bench::report::{self, Report};
use simmpi::{JobControl, MpiResult, NetCond, NetStats, Repair, World};

/// Every rank's output over `cond`, or the first rank error.
fn run_net<T: Send>(
    cond: NetCond,
    f: impl Fn(&mut simmpi::Mpi) -> MpiResult<T> + Send + Sync,
) -> MpiResult<Vec<T>> {
    let (results, _) = World::run_supervised(
        2,
        JobControl::new(2),
        cond,
        Repair::Rollback,
        f,
    );
    results.into_iter().collect()
}

const ROUNDS: u64 = 1500;
const PAYLOAD: usize = 256;

/// Round-trip count, shrunk under `C3_BENCH_SMOKE=1`.
fn rounds() -> u64 {
    if report::smoke() {
        50
    } else {
        ROUNDS
    }
}

struct Cell {
    name: &'static str,
    elapsed_ms: f64,
    rtt_us: f64,
    stats: NetStats,
}

/// `rounds()` ping-pong round trips between two ranks; returns the
/// wall-clock time and the merged per-rank transport statistics.
fn run_cell(name: &'static str, cond: NetCond) -> Cell {
    let payload = vec![0xA5u8; PAYLOAD];
    let n = rounds();
    let t0 = Instant::now();
    let stats = run_net(cond, move |mpi| {
        let comm = mpi.world();
        let peer = 1 - mpi.rank();
        for round in 0..n {
            if mpi.rank() == 0 {
                mpi.send(&comm, peer, round as i32 % 7, &payload)?;
                mpi.recv(&comm, peer, round as i32 % 7)?;
            } else {
                mpi.recv(&comm, peer, round as i32 % 7)?;
                mpi.send(&comm, peer, round as i32 % 7, &payload)?;
            }
        }
        Ok(mpi.net_stats())
    })
    .expect("ping-pong failed");
    let elapsed = t0.elapsed();
    let mut merged = NetStats::default();
    for s in stats {
        merged.retransmits += s.retransmits;
        merged.dup_delivered += s.dup_delivered;
        merged.acks_sent += s.acks_sent;
        merged.wire.absorb(&s.wire);
    }
    Cell {
        name,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        rtt_us: elapsed.as_secs_f64() * 1e6 / n as f64,
        stats: merged,
    }
}

fn cells() -> Vec<Cell> {
    vec![
        run_cell("perfect", NetCond::perfect()),
        run_cell("sublayer", NetCond::perfect().with_dup_ppm(1)),
        run_cell("lossy", NetCond::lossy(1)),
    ]
}

fn write_json(cells: &[Cell]) {
    let mut report = Report::new("micro_transport")
        .param("ranks", 2usize)
        .param("round_trips", rounds())
        .param("payload_bytes", PAYLOAD);
    for c in cells {
        let w = &c.stats.wire;
        report.push_cell(
            report::Cell::new()
                .field("wire", c.name)
                .field("elapsed_ms", c.elapsed_ms)
                .field("rtt_us", c.rtt_us)
                .field("retransmits", c.stats.retransmits)
                .field("dup_delivered", c.stats.dup_delivered)
                .field("acks_sent", c.stats.acks_sent)
                .field("wire_dropped", w.dropped + w.partition_dropped)
                .field("wire_duplicated", w.duplicated)
                .field("wire_reordered", w.reordered)
                .field("wire_delayed", w.delayed),
        );
    }
    report.write("BENCH_transport.json");
}

fn bench_transport(c: &mut Criterion) {
    let results = cells();
    for cell in &results {
        println!(
            "transport/{}: {:.3} ms for {} round trips \
             ({:.2} us/rtt), {} retransmit(s), {} wire fault(s)",
            cell.name,
            cell.elapsed_ms,
            rounds(),
            cell.rtt_us,
            cell.stats.retransmits,
            cell.stats.wire.dropped
                + cell.stats.wire.duplicated
                + cell.stats.wire.reordered
                + cell.stats.wire.delayed,
        );
    }
    write_json(&results);

    // Criterion display: one short ping-pong burst per iteration.
    let burst: u32 = if report::smoke() { 5 } else { 100 };
    let mut g = c.benchmark_group("transport_pingpong");
    g.sample_size(5);
    g.throughput(Throughput::Elements(burst as u64));
    for (name, cond) in [
        ("perfect", NetCond::perfect()),
        ("lossy", NetCond::lossy(1)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                run_net(cond.clone(), move |mpi| {
                    let comm = mpi.world();
                    let peer = 1 - mpi.rank();
                    for _ in 0..burst {
                        if mpi.rank() == 0 {
                            mpi.send(&comm, peer, 1, b"ping")?;
                            mpi.recv(&comm, peer, 1)?;
                        } else {
                            mpi.recv(&comm, peer, 1)?;
                            mpi.send(&comm, peer, 1, b"pong")?;
                        }
                    }
                    Ok(())
                })
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_transport
}
criterion_main!(benches);
