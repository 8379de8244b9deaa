//! Targeted protocol scenarios from the paper: non-determinism logging
//! (Section 3.2), early-message suppression, collective calls straddling
//! the recovery line (Figure 5), barrier epoch alignment (Section 4.5),
//! request pseudo-handles across checkpoints (Section 5.2), and
//! persistent-object journal replay.

use c3_core::{
    run_job, C3App, C3Config, C3Result, CheckpointTrigger, Process, ReduceOp,
    TraceEvent, TraceSink,
};
use ckptstore::impl_saveload_struct;

struct S1 {
    i: u64,
    acc: u64,
}
impl_saveload_struct!(S1 { i: u64, acc: u64 });

/// Section 3.2's nondeterminism scenario, made into an executable test:
/// rank 0 draws a random number each iteration and ships it to rank 1,
/// whose state incorporates it. A failure after rank 1's checkpoint forces
/// a recovery in which rank 0 *re-draws* — if the draws were not logged
/// and replayed, rank 0's stream (seeded per attempt) would diverge from
/// what rank 1's checkpoint absorbed, and the final cross-check would
/// fail.
struct NondetApp {
    iters: u64,
}

impl C3App for NondetApp {
    type State = S1;
    type Output = (u64, u64);

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<(u64, u64)> {
        let world = p.world();
        while s.i < self.iters {
            if p.rank() == 0 {
                let draw = p.nondet_u64()?;
                s.acc = s.acc.wrapping_add(draw);
                p.send(world, 1, 3, &draw.to_le_bytes())?;
            } else if p.rank() == 1 {
                let m = p.recv(world, 0, 3)?;
                let draw =
                    u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                s.acc = s.acc.wrapping_add(draw);
            }
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok((p.rank() as u64, s.acc))
    }
}

#[test]
fn nondeterminism_is_logged_and_replayed_consistently() {
    // Fail rank 1 well after several checkpoints. During recovery rank 0
    // re-executes sends whose values came from nondet draws; the log must
    // reproduce them so both accumulators agree at the end.
    let sink = TraceSink::new();
    let cfg = C3Config::every_ops(10)
        .with_failure(1, 45)
        .with_trace(sink.clone());
    let report = run_job(2, &cfg, None, &NondetApp { iters: 25 }).unwrap();
    assert_eq!(report.restarts, 1);
    let acc0 = report.outputs.iter().find(|o| o.0 == 0).unwrap().1;
    let acc1 = report.outputs.iter().find(|o| o.0 == 1).unwrap().1;
    assert_eq!(
        acc0, acc1,
        "rank 1's state must match the draws rank 0 actually made \
         (nondet log replay)"
    );
    // Counted over every attempt: whether the recovery attempt opens a
    // logging window of its own depends on the recovery line, which the
    // failure's timing picks.
    let logged: u64 = sink
        .take()
        .iter()
        .map(|r| match r.event {
            TraceEvent::LogFinalized { nondet, .. } => nondet,
            _ => 0,
        })
        .sum();
    assert!(logged > 0, "draws made while logging must be recorded");
}

/// Early-message suppression: rank 1 lags rank 0's checkpoint (rank 0
/// checkpoints early in the interval because it initiates), so messages
/// from the post-checkpoint rank 0 regularly arrive at pre-checkpoint
/// rank 1 as *early* messages. A failure then forces recovery; rank 0
/// re-executes those sends and the protocol must drop exactly the recorded
/// ones — a duplicate delivery would double-count in rank 1's accumulator.
struct EarlyApp {
    iters: u64,
}

/// Rank 1 keeps a not-yet-sent ack in its state, so its checkpoint site
/// can sit *between* the receive and the ack — putting the ack on the far
/// side of the cut.
struct EarlyState {
    i: u64,
    acc: u64,
    /// `ack value + 1` when an ack is owed; 0 otherwise.
    pending_ack: u64,
}
impl_saveload_struct!(EarlyState {
    i: u64,
    acc: u64,
    pending_ack: u64
});

impl C3App for EarlyApp {
    type State = EarlyState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<EarlyState> {
        Ok(EarlyState {
            i: 0,
            acc: 0,
            pending_ack: 0,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut EarlyState) -> C3Result<u64> {
        // Lockstep ping-pong where rank 1's checkpoint site sits between
        // its receive and its ack. When a checkpoint cuts there, the ack
        // crosses the cut forward (rank 1 post-checkpoint -> rank 0
        // pre-checkpoint: an EARLY message at rank 0, re-send suppressed
        // on recovery), and rank 0's next ping crosses backward (rank 0
        // pre-checkpoint -> rank 1 post-checkpoint: a LATE message at
        // rank 1, logged and replayed).
        let world = p.world();
        while s.i < self.iters {
            if p.rank() == 0 {
                p.send(world, 1, 1, &s.i.to_le_bytes())?;
                let ack = p.recv(world, 1, 2)?;
                s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                    ack.payload[..8].try_into().unwrap(),
                ));
                s.i += 1;
                p.potential_checkpoint(s)?;
            } else {
                if s.pending_ack == 0 {
                    let m = p.recv(world, 0, 1)?;
                    let v =
                        u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                    s.acc = s.acc.wrapping_add(v);
                    s.i += 1;
                    s.pending_ack = v + 1;
                    p.potential_checkpoint(s)?;
                }
                let v = s.pending_ack - 1;
                p.send(world, 0, 2, &v.to_le_bytes())?;
                s.pending_ack = 0;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn early_messages_are_recorded_and_suppressed_on_recovery() {
    let iters = 30;
    let expect: u64 = (0..iters).sum();
    let cfg = C3Config::every_ops(6).with_failure(0, 40);
    let report = run_job(2, &cfg, None, &EarlyApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(
        report.outputs[0], expect,
        "duplicate or missing ack deliveries would change rank 0's sum"
    );
    assert_eq!(
        report.outputs[1], expect,
        "duplicate or missing deliveries would change rank 1's sum"
    );
    let early: u64 = report.stats.iter().map(|s| s.early_recorded).sum();
    let suppressed: u64 =
        report.stats.iter().map(|s| s.suppressed_sends).sum();
    assert!(early > 0, "the lagging receiver must have recorded earlies");
    // The stats cover the final attempt; with checkpoints every 6 ops the
    // recovered attempt keeps producing the same skew, so both recording
    // and suppression are visible there.
    assert!(
        suppressed > 0,
        "recovery must have suppressed recorded early re-sends"
    );
}

/// Figure 5: collectives crossing the checkpoint line. Ranks alternate
/// point-to-point work with an allreduce; checkpoints are frequent enough
/// that collectives regularly execute with some participants pre- and some
/// post-checkpoint, and logging/replaying their results must keep every
/// rank's view identical.
struct CollApp {
    iters: u64,
}

impl C3App for CollApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 1 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        while s.i < self.iters {
            let sum = p.allreduce_t::<u64>(world, ReduceOp::Sum, &[s.acc])?;
            let gathered = p.allgather_t::<u64>(world, &[s.i, s.acc])?;
            let mix = gathered
                .iter()
                .flatten()
                .fold(sum[0], |h, &v| h.wrapping_mul(31).wrapping_add(v));
            s.acc = mix;
            s.i += 1;
            // Ranks checkpoint at staggered sites so collectives straddle
            // the line.
            if (s.i + p.rank() as u64).is_multiple_of(2) {
                p.potential_checkpoint(s)?;
            }
        }
        Ok(s.acc)
    }
}

#[test]
fn collective_results_are_logged_and_replayed_across_the_line() {
    let n = 4;
    let iters = 24;
    let reference =
        run_job(n, &C3Config::every_ops(1_000_000), None, &CollApp { iters })
            .unwrap();
    // All ranks agree in the failure-free run.
    assert!(reference.outputs.windows(2).all(|w| w[0] == w[1]));

    let cfg = C3Config::every_ops(14).with_failure(2, 40);
    let report = run_job(n, &cfg, None, &CollApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
    let logged: u64 = report.stats.iter().map(|s| s.collectives_logged).sum();
    let replayed: u64 =
        report.stats.iter().map(|s| s.collectives_replayed).sum();
    assert!(logged > 0, "collectives while logging must be recorded");
    assert!(replayed > 0, "recovery must have replayed some results");
}

/// Barrier epoch alignment: rank 1 never calls `potential_checkpoint`; its
/// only checkpoint opportunities are the pre-barrier alignment sites the
/// "precompiler" inserts. If alignment did not force its local checkpoint,
/// no global checkpoint could ever commit.
struct BarrierApp {
    iters: u64,
}

impl C3App for BarrierApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        while s.i < self.iters {
            s.acc = s.acc.wrapping_add(s.i * (p.rank() as u64 + 1));
            // State is made iteration-consistent *before* any checkpoint
            // site (the explicit one and the barrier's alignment site), so
            // a resumed execution never re-applies a completed iteration.
            s.i += 1;
            if p.rank() == 0 {
                // Only rank 0 has explicit checkpoint sites.
                p.potential_checkpoint(s)?;
            }
            p.barrier(world, s)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn barrier_forces_lagging_ranks_to_checkpoint() {
    let cfg = C3Config::every_ops(12);
    let report = run_job(3, &cfg, None, &BarrierApp { iters: 20 }).unwrap();
    assert!(
        report.last_committed.is_some(),
        "alignment checkpoints must let the global checkpoint commit"
    );
    for st in &report.stats {
        assert!(st.checkpoints > 0, "every rank checkpointed: {st:?}");
    }
}

#[test]
fn barrier_app_recovers_from_failure() {
    let reference = run_job(
        3,
        &C3Config::every_ops(9999),
        None,
        &BarrierApp { iters: 18 },
    )
    .unwrap();
    let cfg = C3Config::every_ops(10).with_failure(1, 10);
    let report = run_job(3, &cfg, None, &BarrierApp { iters: 18 }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
}

/// Request pseudo-handles across checkpoints: an irecv/isend pair is
/// posted, a checkpoint intervenes, then the waits complete. The raw
/// pseudo-handles live in the *checkpointed application state*, so after a
/// restart the app skips re-posting and completes the restored handles —
/// exactly the Section 5.2 reinitialization: an `Isend` handle completes
/// immediately, an `Irecv` handle is satisfied from the late log or
/// re-posted.
struct PendingReqApp {
    iters: u64,
}

/// `posted`/`send_h` hold `raw handle + 1` (0 = nothing outstanding).
struct PRState {
    i: u64,
    acc: u64,
    posted: u64,
    send_h: u64,
}
impl_saveload_struct!(PRState {
    i: u64,
    acc: u64,
    posted: u64,
    send_h: u64
});

impl C3App for PendingReqApp {
    type State = PRState;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<PRState> {
        Ok(PRState {
            i: 0,
            acc: 0,
            posted: 0,
            send_h: 0,
        })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut PRState) -> C3Result<u64> {
        let world = p.world();
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        while s.i < self.iters {
            if s.posted == 0 {
                let rreq = p.irecv(world, left, 9)?;
                let sreq = p.isend(world, right, 9, &s.i.to_le_bytes())?;
                s.posted = rreq.raw() + 1;
                s.send_h = sreq.raw() + 1;
            }
            // Checkpoint site between posting and completion: the
            // requests regularly straddle the checkpoint, and after a
            // restart the `s.posted != 0` branch skips the re-post.
            p.potential_checkpoint(s)?;
            let got = p
                .wait_raw(s.posted - 1)?
                .expect("recv handle yields a message");
            assert!(
                p.wait_raw(s.send_h - 1)?.is_none(),
                "send wait returns None"
            );
            s.posted = 0;
            s.send_h = 0;
            s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                got.payload[..8].try_into().unwrap(),
            ));
            s.i += 1;
        }
        Ok(s.acc)
    }
}

#[test]
fn requests_straddling_checkpoints_complete_after_recovery() {
    let n = 3;
    let iters = 24;
    let expect: u64 = (0..iters).sum();
    let reference = run_job(
        n,
        &C3Config::every_ops(9999),
        None,
        &PendingReqApp { iters },
    )
    .unwrap();
    assert!(reference.outputs.iter().all(|&o| o == expect));

    for at_op in [30, 45, 60] {
        let cfg = C3Config::every_ops(11).with_failure(2, at_op);
        let report = run_job(n, &cfg, None, &PendingReqApp { iters }).unwrap();
        assert_eq!(report.restarts, 1, "at_op={at_op}");
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
    }
}

/// Persistent opaque objects: communicators created by dup/split are
/// journaled and replayed on recovery; the application's pseudo-handles
/// keep working after restart without any application-side help.
struct CommApp {
    iters: u64,
}

impl C3App for CommApp {
    type State = S1;
    type Output = u64;

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
        let world = p.world();
        // Created on every attempt *before* state resumes: on recovery the
        // journal replay already rebuilt them; these calls then journal
        // fresh duplicates — so create them once via state flag instead.
        let half = p
            .comm_split(world, (p.rank() % 2) as i32, p.rank() as i32)?
            .expect("color is non-negative");
        let dup = p.comm_dup(world)?;
        while s.i < self.iters {
            let within =
                p.allreduce_t::<u64>(half, ReduceOp::Sum, &[s.i + 1])?;
            let global = p.allreduce_t::<u64>(dup, ReduceOp::Max, &within)?;
            s.acc = s.acc.wrapping_mul(7).wrapping_add(global[0]);
            s.i += 1;
            p.potential_checkpoint(s)?;
        }
        Ok(s.acc)
    }
}

#[test]
fn split_and_dup_communicators_survive_recovery() {
    let n = 4;
    let iters = 20;
    let reference =
        run_job(n, &C3Config::every_ops(9999), None, &CommApp { iters })
            .unwrap();
    let cfg = C3Config::every_ops(16).with_failure(3, 40);
    let report = run_job(n, &cfg, None, &CommApp { iters }).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outputs, reference.outputs);
}

/// A checkpoint interrupted by the failure itself: the failure lands while
/// the global checkpoint is being created (between local checkpoints and
/// commit), so recovery must fall back to the previous committed
/// checkpoint and the partial one must be invisible.
#[test]
fn failure_during_checkpoint_creation_falls_back_cleanly() {
    struct SlowCkptApp;
    impl C3App for SlowCkptApp {
        type State = S1;
        type Output = u64;
        fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
            Ok(S1 { i: 0, acc: 0 })
        }
        fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<u64> {
            let world = p.world();
            let n = p.size();
            let right = (p.rank() + 1) % n;
            let left = (p.rank() + n - 1) % n;
            while s.i < 30 {
                let got = p.sendrecv(
                    world,
                    right,
                    2,
                    &s.acc.to_le_bytes(),
                    left,
                    2,
                )?;
                s.acc = s.acc.wrapping_add(u64::from_le_bytes(
                    got.payload[..8].try_into().unwrap(),
                )) ^ s.i;
                s.i += 1;
                p.potential_checkpoint(s)?;
            }
            Ok(s.acc)
        }
    }
    let reference = run_job(
        3,
        &C3Config {
            trigger: CheckpointTrigger::EveryOps(9999),
            ..C3Config::default()
        },
        None,
        &SlowCkptApp,
    )
    .unwrap();
    // Checkpoints every 13 ops; a failure at op 40 has a good chance of
    // landing mid-protocol. Whatever the interleaving, the result must
    // match and the job must finish.
    for at_op in [38, 40, 42, 44] {
        let cfg = C3Config::every_ops(13).with_failure(1, at_op);
        let report = run_job(3, &cfg, None, &SlowCkptApp).unwrap();
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
        assert_eq!(report.restarts, 1);
    }
}

/// Point-to-point traffic on two communicators with identical rank/tag
/// spaces, straddling checkpoints and a failure: the late-message log must
/// never cross-match messages between the communicators (each logged late
/// message records its communicator pseudo-handle).
struct TwoCommApp {
    iters: u64,
}

impl C3App for TwoCommApp {
    type State = S1;
    type Output = (u64, u64);

    fn init(&self, _p: &mut Process<'_>) -> C3Result<S1> {
        Ok(S1 { i: 0, acc: 0 })
    }

    fn run(&self, p: &mut Process<'_>, s: &mut S1) -> C3Result<(u64, u64)> {
        let world = p.world();
        let dup = p.comm_dup(world)?;
        let n = p.size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        let mut acc2 = s.acc >> 32;
        while s.i < self.iters {
            // Same destination and SAME TAG on both communicators, with
            // distinguishable payloads.
            let a = p.sendrecv(
                world,
                right,
                5,
                &(s.i * 2).to_le_bytes(),
                left,
                5,
            )?;
            let b = p.sendrecv(
                dup,
                right,
                5,
                &(s.i * 2 + 1).to_le_bytes(),
                left,
                5,
            )?;
            let va = u64::from_le_bytes(a.payload[..8].try_into().unwrap());
            let vb = u64::from_le_bytes(b.payload[..8].try_into().unwrap());
            // World traffic is always even, dup traffic always odd — a
            // cross-communicator replay would violate this instantly.
            assert_eq!(va % 2, 0, "world comm delivered dup-comm payload");
            assert_eq!(vb % 2, 1, "dup comm delivered world-comm payload");
            s.acc = s.acc.wrapping_mul(33).wrapping_add(va);
            acc2 = acc2.wrapping_mul(29).wrapping_add(vb);
            s.i += 1;
            s.acc = (s.acc & 0xFFFF_FFFF) | (acc2 << 32);
            p.potential_checkpoint(s)?;
        }
        Ok((s.acc & 0xFFFF_FFFF, s.acc >> 32))
    }
}

#[test]
fn late_replay_never_crosses_communicators() {
    let n = 3;
    let iters = 24;
    let reference =
        run_job(n, &C3Config::every_ops(9999), None, &TwoCommApp { iters })
            .unwrap();
    for at_op in [40, 70, 100] {
        let cfg = C3Config::every_ops(13).with_failure(1, at_op);
        let report = run_job(n, &cfg, None, &TwoCommApp { iters }).unwrap();
        assert_eq!(report.restarts, 1, "at_op={at_op}");
        assert_eq!(report.outputs, reference.outputs, "at_op={at_op}");
    }
}
