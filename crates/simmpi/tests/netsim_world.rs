//! End-to-end jobs over the lossy wire: real rank threads, real timers,
//! the full point-to-point + collective surface — with the netsim wire
//! dropping, duplicating, reordering, and delaying frames underneath.

use simmpi::{
    JobControl, MpiError, MpiResult, NetCond, Repair, RetransmitPolicy, World,
};

/// Run a job over `cond` under the rollback supervisor and return every
/// rank's result.
fn run_collect_net<T: Send>(
    n: usize,
    cond: NetCond,
    f: impl Fn(&mut simmpi::Mpi) -> MpiResult<T> + Send + Sync,
) -> Vec<MpiResult<T>> {
    World::run_supervised(n, JobControl::new(n), cond, Repair::Rollback, f).0
}

/// Every rank's output over `cond`, or the first rank error.
fn run_net<T: Send>(
    n: usize,
    cond: NetCond,
    f: impl Fn(&mut simmpi::Mpi) -> MpiResult<T> + Send + Sync,
) -> MpiResult<Vec<T>> {
    run_collect_net(n, cond, f).into_iter().collect()
}

/// Ring halo exchange + tag-reordered p2p + collectives, the same mix the
/// upper layers lean on. Returns a per-rank digest.
fn mixed_app(mpi: &mut simmpi::Mpi) -> MpiResult<u64> {
    let comm = mpi.world();
    let me = mpi.rank();
    let n = mpi.size();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;

    let mut digest = 0u64;
    for round in 0..6u64 {
        // Halo exchange around the ring.
        let got = mpi.sendrecv(
            &comm,
            right,
            10,
            &(me as u64 * 1000 + round).to_le_bytes(),
            left,
            10,
        )?;
        digest = digest.wrapping_mul(31).wrapping_add(u64::from_le_bytes(
            got.payload[..8].try_into().unwrap(),
        ));

        // Two tags posted in reverse order: application-level reordering
        // on top of wire-level reordering.
        mpi.send(&comm, right, 21, &[round as u8, 1])?;
        mpi.send(&comm, right, 22, &[round as u8, 2])?;
        let b = mpi.recv(&comm, left, 22)?;
        let a = mpi.recv(&comm, left, 21)?;
        digest = digest.wrapping_mul(31).wrapping_add(
            u64::from(a.payload[1]) * 2 + u64::from(b.payload[1]),
        );

        // Collectives ride the same wire on the collective plane.
        let sum = mpi.allreduce_t::<u64>(
            &comm,
            simmpi::ReduceOp::Sum,
            &[me as u64 + round],
        )?;
        digest = digest.wrapping_mul(31).wrapping_add(sum[0]);
    }
    Ok(digest)
}

#[test]
fn mixed_app_survives_lossy_wire_across_seeds() {
    let reference = World::run(4, mixed_app).unwrap();
    for seed in 0..6u64 {
        let out = run_net(4, NetCond::lossy(seed), mixed_app)
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e}"));
        assert_eq!(out, reference, "seed {seed} diverged from perfect wire");
    }
}

#[test]
fn lossy_runs_with_equal_seed_agree_and_wire_faults_fire() {
    let cond = NetCond::lossy(42).with_drop_ppm(100_000);
    let run = || {
        run_net(4, cond.clone(), |mpi| {
            let d = mixed_app(mpi)?;
            Ok((d, mpi.net_stats()))
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    // Outputs are deterministic; wire-fault counters may differ between
    // runs only through timing-driven repair traffic, so compare digests.
    let da: Vec<u64> = a.iter().map(|(d, _)| *d).collect();
    let db: Vec<u64> = b.iter().map(|(d, _)| *d).collect();
    assert_eq!(da, db);
    let total_faults: u64 = a
        .iter()
        .map(|(_, s)| {
            s.wire.dropped
                + s.wire.duplicated
                + s.wire.reordered
                + s.wire.delayed
        })
        .sum();
    assert!(total_faults > 0, "lossy wire produced no faults");
    let total_repair: u64 = a.iter().map(|(_, s)| s.retransmits).sum();
    assert!(total_repair > 0, "10% drop requires retransmissions");
}

#[test]
fn transient_partition_is_masked_by_the_sublayer() {
    // Sever ranks 0 ↔ 1 for their first 8 frames each way; the sublayer's
    // retransmissions advance the link clock until it heals.
    let cond = NetCond::perfect().with_partition(0, 1, 0, 8);
    let out = run_net(2, cond, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            mpi.send(&comm, 1, 5, b"over the gap")?;
            Ok(mpi.recv(&comm, 1, 6)?.payload.len() as u64)
        } else {
            let m = mpi.recv(&comm, 0, 5)?;
            mpi.send(&comm, 0, 6, &m.payload)?;
            Ok(m.payload.len() as u64)
        }
    })
    .unwrap();
    assert_eq!(out, vec![12, 12]);
}

#[test]
fn permanent_partition_exhausts_budget_as_net_unreachable() {
    let cond = NetCond::perfect()
        .with_partition(0, 1, 0, u64::MAX)
        .with_retransmit(RetransmitPolicy {
            base_delay_us: 100,
            max_delay_us: 500,
            budget: 5,
        });
    let results = run_collect_net(2, cond, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            mpi.send(&comm, 1, 7, b"into the void")?;
            // Drive the sublayer until the budget verdict surfaces, then
            // abort so the peer's blocked receive unwinds too (what the
            // failure detector does for rank deaths).
            for _ in 0..10_000 {
                if let Err(e) =
                    mpi.iprobe(&comm, simmpi::ANY_SOURCE, simmpi::ANY_TAG)
                {
                    mpi.control().abort();
                    return Err(e);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            panic!("retry budget never exhausted");
        } else {
            mpi.recv(&comm, 0, 7).map(|_| 0u64)
        }
    });
    assert_eq!(
        results[0],
        Err(MpiError::NetUnreachable {
            dst: 1,
            attempts: 5
        })
    );
    assert_eq!(results[1], Err(MpiError::Aborted));
}

#[test]
fn dead_rank_under_lossy_wire_still_vanishes_silently() {
    // A fail-stopped rank neither receives nor acks; the sublayer must
    // write its traffic off instead of erroring, so the failure detector
    // (not a spurious NetUnreachable) decides the job's fate.
    let cond = NetCond::lossy(3);
    let results = run_collect_net(2, cond, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            // The peer dies without ever receiving; sends must succeed
            // and the post-run flush must write them off, not hang or
            // surface NetUnreachable.
            for i in 0..5u8 {
                mpi.send(&comm, 1, 9, &[i])?;
            }
            Ok(0u64)
        } else {
            Err(MpiError::FailStop)
        }
    });
    assert_eq!(results[0], Ok(0));
    assert_eq!(results[1], Err(MpiError::FailStop));
}
