//! Job lifecycle: spawn ranks, run them under a supervisor, and
//! coordinate abort/fail-stop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam::channel::Sender;

use crate::comm::Comm;
use crate::error::MpiError;
use crate::error::MpiResult;
use crate::netsim::{Frame, NetCond};
use crate::rank::Mpi;
use crate::splice::{
    FlightRecorder, SpliceDecision, SpliceQuery, SpliceStats,
};
use crate::transport::Fabric;

/// Simulated failure-detection delay: how long after a rank's death the
/// supervisor acts on it (the paper's model only asks that survivors
/// eventually learn of a failure).
const DETECTION_LATENCY: Duration = Duration::from_millis(2);

/// Shared job control block.
///
/// * `abort()` — the supervisor (or a rank hitting a genuine error)
///   declares the current execution attempt dead; every blocking MPI call
///   in every rank returns [`crate::MpiError::Aborted`] so rank functions
///   unwind promptly.
/// * `fail_rank(r)` — inject a stopping failure at rank `r`: its next MPI
///   call returns [`crate::MpiError::FailStop`] and it must go silent, mimicking a
///   hung process under the paper's stopping-failure model.
///
/// Both store their flag first and then push a [`Frame::Wake`] into the
/// affected mailboxes; a rank checks the flags before it blocks, so a
/// blocked rank always wakes to see them.
///
/// A fresh `JobControl` is created per execution attempt; it is cheap to
/// clone (shared interior).
#[derive(Clone)]
pub struct JobControl {
    inner: Arc<ControlInner>,
}

struct ControlInner {
    aborted: AtomicBool,
    failed: Vec<AtomicBool>,
    done: Vec<AtomicBool>,
    /// When set (splicing jobs), the reliable-delivery sublayer *holds*
    /// traffic to a failed rank instead of writing it off: the
    /// supervisor may splice in a new incarnation that will drain it.
    hold_failed_traffic: AtomicBool,
    /// Every rank's mailbox, for wakes; set once the fabric is built.
    mailboxes: OnceLock<Vec<Sender<Frame>>>,
}

impl JobControl {
    /// Control block for a job of `n` ranks.
    pub fn new(n: usize) -> Self {
        JobControl {
            inner: Arc::new(ControlInner {
                aborted: AtomicBool::new(false),
                failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
                done: (0..n).map(|_| AtomicBool::new(false)).collect(),
                hold_failed_traffic: AtomicBool::new(false),
                mailboxes: OnceLock::new(),
            }),
        }
    }

    /// Register the fabric's mailboxes as wake targets (first fabric
    /// built over this block wins).
    pub(crate) fn attach_mailboxes(&self, senders: Vec<Sender<Frame>>) {
        let _ = self.inner.mailboxes.set(senders);
    }

    /// Wake `rank`, or every rank if `None`.
    fn wake(&self, rank: Option<usize>) {
        let Some(boxes) = self.inner.mailboxes.get() else {
            return;
        };
        for (r, tx) in boxes.iter().enumerate() {
            if rank.is_none_or(|x| x == r) {
                tx.send(Frame::Wake).ok();
            }
        }
    }

    /// Declare the attempt dead; unblocks every rank with `Aborted`.
    pub fn abort(&self) {
        self.inner.aborted.store(true, Ordering::Release);
        self.wake(None);
    }

    /// Whether the attempt has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.inner.aborted.load(Ordering::Acquire)
    }

    /// Inject a stopping failure at `rank`.
    pub fn fail_rank(&self, rank: usize) {
        if let Some(flag) = self.inner.failed.get(rank) {
            flag.store(true, Ordering::Release);
            self.wake(Some(rank));
        }
    }

    /// Whether `rank` has fail-stopped.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.inner
            .failed
            .get(rank)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Clear `rank`'s fail-stop flag: its next incarnation is live. Only
    /// the supervisor calls this, after the dead incarnation's thread has
    /// been joined; peers holding traffic for it are woken to resume.
    pub(crate) fn clear_failed(&self, rank: usize) {
        if let Some(flag) = self.inner.failed.get(rank) {
            flag.store(false, Ordering::Release);
            self.wake(None);
        }
    }

    /// Whether traffic to failed ranks is held for a possible respawn.
    pub fn holds_failed_traffic(&self) -> bool {
        self.inner.hold_failed_traffic.load(Ordering::Acquire)
    }

    /// Record that `rank`'s rank function has returned (it will issue no
    /// further MPI calls). The reliable-delivery sublayer uses this to
    /// write off unacknowledged frames to a departed rank instead of
    /// retransmitting into its abandoned mailbox forever — the in-process
    /// analogue of a connection's final ack being lost at close.
    pub(crate) fn mark_done(&self, rank: usize) {
        if let Some(flag) = self.inner.done.get(rank) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether `rank`'s rank function has returned.
    pub fn is_done(&self, rank: usize) -> bool {
        self.inner
            .done
            .get(rank)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Number of ranks this control block covers.
    pub fn size(&self) -> usize {
        self.inner.failed.len()
    }
}

/// How the supervisor repairs a rank's stopping failure.
#[derive(Clone, Copy)]
pub enum Repair {
    /// The paper's model: abort the attempt so every rank rolls back.
    /// No consumed-message tape is recorded and traffic to a dead rank
    /// is written off.
    Rollback,
    /// Online recovery: ask the policy, which either splices in a fresh
    /// incarnation that replays the dead rank's tape (see
    /// [`crate::splice`]) or escalates to [`Repair::Rollback`]. Peers
    /// hold reliable-delivery traffic to a failed rank meanwhile.
    Splice(fn(SpliceQuery) -> SpliceDecision),
}

/// Entry point for running an `n`-rank job.
pub struct World;

impl World {
    /// Run `f` once per rank on its own thread under a supervisor, over
    /// the wire described by `cond`, and collect each rank's final
    /// result (injected `FailStop` and rollback `Aborted` included).
    ///
    /// The supervisor (this thread) sleeps until a rank thread exits.
    /// When one exits with its fail-stop flag set, the supervisor waits
    /// out the detection latency and repairs it per `repair`: a splice
    /// respawns the rank in place by deterministic replay of its
    /// consumed-message tape, squelching re-executed sends below its
    /// death-time counts and resuming its wire endpoint; an escalation
    /// aborts the attempt so the caller can roll every rank back.
    /// Returns the results plus what the supervisor did.
    pub fn run_supervised<T, F>(
        n: usize,
        control: JobControl,
        cond: NetCond,
        repair: Repair,
        f: F,
    ) -> (Vec<MpiResult<T>>, SpliceStats)
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        assert!(n > 0, "a job has at least one rank");
        assert_eq!(control.size(), n, "control block sized for wrong job");
        let recorder = match repair {
            Repair::Rollback => None,
            Repair::Splice(_) => {
                control
                    .inner
                    .hold_failed_traffic
                    .store(true, Ordering::Release);
                Some(Arc::new(FlightRecorder::new(n)))
            }
        };
        let (fabric, receivers) = Fabric::new(n, control.clone(), cond);
        let (exit_tx, exits) = crossbeam::channel::unbounded::<usize>();
        let mut results: Vec<Option<MpiResult<T>>> =
            (0..n).map(|_| None).collect();
        let mut stats = SpliceStats::default();
        let mut incarnations = vec![0u32; n];

        std::thread::scope(|scope| {
            let f = &f;
            let control = &control;
            let recorder = &recorder;
            let spawn_rank = |mut mpi: Mpi| {
                let exit = ExitSignal(exit_tx.clone(), mpi.rank());
                scope.spawn(move || {
                    let _exit = exit;
                    let rank = mpi.rank();
                    let out = f(&mut mpi);
                    match (&out, recorder) {
                        // Leave the successor's material behind; the rank
                        // is *not* marked done — its mailbox stays live
                        // for the incarnation to come.
                        (Err(MpiError::FailStop), Some(rec)) => {
                            rec.record_death(rank, mpi.export_stash());
                        }
                        // The rank stops issuing MPI calls now; let the
                        // sublayer write off what nobody will ever ack.
                        _ => control.mark_done(rank),
                    }
                    // Linger until every frame this rank sent has been
                    // acknowledged, so late retransmission requests are
                    // not orphaned by its exit.
                    out.and_then(|v| mpi.net_flush().map(|_| v))
                })
            };

            let mut handles: Vec<Option<_>> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let mut mpi = Mpi::new(rank, n, fabric.clone(), inbox);
                    if let Some(rec) = recorder {
                        mpi.attach_recorder(rec.clone());
                    }
                    Some(spawn_rank(mpi))
                })
                .collect();
            let mut live = n;
            while live > 0 {
                let rank = exits.recv().expect("supervisor holds a sender");
                live -= 1;
                let handle = handles[rank].take().expect("exited rank ran");
                match handle.join() {
                    Ok(out) => results[rank] = Some(out),
                    Err(panic) => {
                        control.abort();
                        std::panic::resume_unwind(panic);
                    }
                }
                if !control.is_failed(rank) || control.is_aborted() {
                    continue;
                }
                std::thread::sleep(DETECTION_LATENCY);
                if control.is_aborted() {
                    continue;
                }
                let decision = match repair {
                    Repair::Rollback => SpliceDecision::Escalate,
                    Repair::Splice(policy) => policy(SpliceQuery {
                        rank,
                        rank_respawns: incarnations[rank],
                        total_respawns: stats.respawns,
                    }),
                };
                let material = match decision {
                    SpliceDecision::Respawn => recorder
                        .as_ref()
                        .and_then(|rec| rec.begin_respawn(rank)),
                    SpliceDecision::Escalate => None,
                };
                let Some((mut stash, tape)) = material else {
                    stats.escalated = true;
                    control.abort();
                    continue;
                };
                incarnations[rank] += 1;
                stats.respawns += 1;
                let inbox = stash
                    .inbox
                    .take()
                    .expect("death stash carries the mailbox");
                let mut mpi = Mpi::new(rank, n, fabric.clone(), inbox);
                mpi.configure_respawn(incarnations[rank], stash, tape);
                // Go live only once the successor exists: peers held
                // traffic for it meanwhile.
                control.clear_failed(rank);
                handles[rank] = Some(spawn_rank(mpi));
                live += 1;
            }
        });

        let results: Vec<MpiResult<T>> = results
            .into_iter()
            .map(|r| r.expect("every rank stored a result"))
            .collect();
        for (rank, res) in results.iter().enumerate() {
            if incarnations[rank] > 0 && res.is_ok() {
                stats.completed += 1;
            }
        }
        (results, stats)
    }

    /// Run `f` once per rank on the perfect wire; returns every rank's
    /// output, or the first rank error encountered (in rank order).
    pub fn run<T, F>(n: usize, f: F) -> MpiResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Mpi) -> MpiResult<T> + Send + Sync,
    {
        let (results, _) = Self::run_supervised(
            n,
            JobControl::new(n),
            NetCond::perfect(),
            Repair::Rollback,
            f,
        );
        results.into_iter().collect()
    }
}

/// Tells the supervisor a rank thread has exited — on drop, so a
/// panicking rank still reports and the supervisor can propagate it.
struct ExitSignal(Sender<usize>, usize);

impl Drop for ExitSignal {
    fn drop(&mut self) {
        self.0.send(self.1).ok();
    }
}

/// Give the world communicator for a freshly spawned rank. Used by `Mpi`.
pub(crate) fn world_comm(rank: usize, size: usize) -> Comm {
    Comm::world(rank, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_flags() {
        let c = JobControl::new(3);
        assert!(!c.is_aborted());
        c.fail_rank(1);
        assert!(c.is_failed(1));
        assert!(!c.is_failed(0));
        c.abort();
        assert!(c.is_aborted());
        // Out-of-range ranks are inert.
        c.fail_rank(99);
        assert!(!c.is_failed(99));
    }

    /// A deterministic ring exchange that kills `victim` mid-run (once,
    /// guarded by `killed`): every rank sends to its right neighbour and
    /// receives from its left each round, accumulating what it hears.
    fn ring_with_kill(
        rounds: u64,
        victim: usize,
        kill_round: u64,
        killed: &AtomicBool,
    ) -> impl Fn(&mut Mpi) -> MpiResult<u64> + Send + Sync + '_ {
        move |mpi| {
            let comm = mpi.world();
            let me = mpi.rank();
            let right = (me + 1) % mpi.size();
            let left = (me + mpi.size() - 1) % mpi.size();
            let mut acc = 0u64;
            for round in 0..rounds {
                mpi.send_t::<u64>(
                    &comm,
                    right,
                    7,
                    &[me as u64 * 1000 + round],
                )?;
                let got = mpi.recv_t::<u64>(&comm, left, 7)?;
                acc = acc.wrapping_mul(31).wrapping_add(got[0]);
                if round == kill_round
                    && me == victim
                    && !killed.swap(true, Ordering::SeqCst)
                {
                    mpi.control().fail_rank(victim);
                }
            }
            Ok(acc)
        }
    }

    #[test]
    fn supervised_run_without_failures_matches_plain() {
        let n = 4;
        let dead = AtomicBool::new(true); // already "killed": no injection
        let expected: Vec<u64> =
            World::run(n, ring_with_kill(8, 0, 0, &dead)).unwrap();
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            NetCond::perfect(),
            Repair::Splice(|_| SpliceDecision::Respawn),
            ring_with_kill(8, 0, 0, &dead),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
        assert_eq!(stats, SpliceStats::default());
    }

    #[test]
    fn supervised_splice_replays_dead_rank() {
        let n = 4;
        // Failure-free reference run.
        let dead = AtomicBool::new(true);
        let expected: Vec<u64> =
            World::run(n, ring_with_kill(20, 2, 10, &dead)).unwrap();

        // Same job, but rank 2 fail-stops at round 10 and is spliced back.
        let killed = AtomicBool::new(false);
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            NetCond::perfect(),
            Repair::Splice(|q| {
                assert_eq!(q.rank, 2);
                SpliceDecision::Respawn
            }),
            ring_with_kill(20, 2, 10, &killed),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected, "splice must not perturb any rank");
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.completed, 1);
        assert!(!stats.escalated);
    }

    #[test]
    fn supervised_splice_survives_lossy_wire() {
        let n = 3;
        let dead = AtomicBool::new(true);
        let expected: Vec<u64> =
            World::run(n, ring_with_kill(12, 1, 5, &dead)).unwrap();

        let killed = AtomicBool::new(false);
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            NetCond::lossy(0xC3),
            Repair::Splice(|_| SpliceDecision::Respawn),
            ring_with_kill(12, 1, 5, &killed),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Spin (test-only) until another rank thread sets `flag`.
    fn await_flag(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    /// Regression for a replay that let the successor see messages
    /// earlier than its predecessor had. Rank 1 probes three times and
    /// records what it saw; rank 0 times its sends so the answers are
    /// fixed: (none, B, none). Two replay faults used to flip them.
    /// * Probes #1 and #2 share an operation count and B arrives between
    ///   them. A release point counted in operations made B visible to
    ///   probe #1.
    /// * Probe #3 follows rank 1's last consumption. D lands in rank 1's
    ///   mailbox after probe #3 but before the death. Going live once
    ///   the tape ran out handed D to probe #3.
    ///
    /// In the chaos matrix the same faults let a spliced rank take a
    /// checkpoint one send early, and its `mySendCount` disagreed with
    /// what the survivors had received.
    fn probe_timeline<'a>(
        killed: &'a AtomicBool,
        probed1: &'a AtomicBool,
        b_sent: &'a AtomicBool,
        d_sent: &'a AtomicBool,
    ) -> impl Fn(&mut Mpi) -> MpiResult<[bool; 3]> + Send + Sync + 'a {
        move |mpi| {
            let comm = mpi.world();
            if mpi.rank() == 0 {
                mpi.send(&comm, 1, 1, b"A")?;
                await_flag(probed1);
                mpi.send(&comm, 1, 2, b"B")?;
                b_sent.store(true, Ordering::SeqCst);
                mpi.recv(&comm, 1, 3)?;
                mpi.send(&comm, 1, 4, b"D")?;
                d_sent.store(true, Ordering::SeqCst);
                return Ok([false; 3]);
            }
            mpi.recv(&comm, 0, 1)?;
            let first = mpi.iprobe(&comm, 0, 2)?.is_some();
            probed1.store(true, Ordering::SeqCst);
            await_flag(b_sent);
            let second = mpi.iprobe(&comm, 0, 2)?.is_some();
            mpi.recv(&comm, 0, 2)?;
            let third = mpi.iprobe(&comm, 0, 4)?.is_some();
            mpi.send(&comm, 0, 3, b"C")?;
            await_flag(d_sent);
            if !killed.swap(true, Ordering::SeqCst) {
                mpi.control().fail_rank(1);
            }
            mpi.recv(&comm, 0, 4)?;
            Ok([first, second, third])
        }
    }

    #[test]
    fn splice_replay_never_shows_a_message_early() {
        let flags =
            || std::array::from_fn::<_, 4, _>(|_| AtomicBool::new(false));
        let [_, probed1, b_sent, d_sent] = flags();
        let done = AtomicBool::new(true);
        let expected =
            World::run(2, probe_timeline(&done, &probed1, &b_sent, &d_sent))
                .unwrap();
        assert_eq!(expected[1], [false, true, false]);

        let [killed, probed1, b_sent, d_sent] = flags();
        let (results, stats) = World::run_supervised(
            2,
            JobControl::new(2),
            NetCond::perfect(),
            Repair::Splice(|_| SpliceDecision::Respawn),
            probe_timeline(&killed, &probed1, &b_sent, &d_sent),
        );
        assert_eq!(stats.respawns, 1);
        let got: Vec<[bool; 3]> =
            results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected, "the successor saw a message early");
    }

    #[test]
    fn supervised_escalation_aborts_attempt() {
        let n = 4;
        let killed = AtomicBool::new(false);
        let control = JobControl::new(n);
        let (results, stats) = World::run_supervised(
            n,
            control,
            NetCond::perfect(),
            Repair::Splice(|_| SpliceDecision::Escalate),
            ring_with_kill(20, 2, 10, &killed),
        );
        assert!(stats.escalated);
        assert_eq!(stats.respawns, 0);
        assert_eq!(results[2].as_ref().unwrap_err(), &MpiError::FailStop);
        // Survivors unblock with `Aborted` (they cannot finish the ring
        // without rank 2).
        assert!(results
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != 2)
            .any(|(_, res)| res.as_ref().unwrap_err() == &MpiError::Aborted));
    }

    #[test]
    fn run_propagates_rank_results() {
        let out = World::run(3, |mpi| Ok(mpi.rank() * 10)).unwrap();
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn run_surfaces_first_error_in_rank_order() {
        let err = World::run(3, |mpi| {
            if mpi.rank() >= 1 {
                Err(MpiError::FailStop)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, MpiError::FailStop);
    }
}
