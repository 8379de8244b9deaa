//! Every blocking wait sleeps until an event: a frame, a wake from the
//! job control block, or the lossy wire's next deadline. Each test here
//! blocks a rank where only one of those events can end the wait, under
//! a watchdog, so a lost wake fails the test instead of hanging it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use simmpi::{
    JobControl, MpiError, MpiResult, NetCond, Repair, RetransmitPolicy,
    SpliceDecision, World,
};

/// Run `job` on its own thread; fail if it has not finished within
/// `secs` (the waiter it exercises missed its wake).
fn within<T: Send + 'static>(
    secs: u64,
    job: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(job()).ok());
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("a blocked rank never woke (lost wake)")
}

fn run(
    n: usize,
    cond: NetCond,
    control: JobControl,
    f: impl Fn(&mut simmpi::Mpi) -> MpiResult<u64> + Send + Sync,
) -> Vec<MpiResult<u64>> {
    World::run_supervised(n, control, cond, Repair::Rollback, f).0
}

/// Give the peer a moment to block before the event fires. The test
/// passes either way; it only exercises the wake when the peer is
/// already asleep.
fn let_peer_block() {
    std::thread::sleep(Duration::from_millis(20));
}

#[test]
fn abort_wakes_a_receive_with_no_traffic() {
    let results = within(10, || {
        let control = JobControl::new(2);
        let ctl = control.clone();
        run(2, NetCond::perfect(), control, move |mpi| {
            if mpi.rank() == 0 {
                mpi.recv(&mpi.world(), 1, 99).map(|_| 0)
            } else {
                let_peer_block();
                ctl.abort();
                Ok(1)
            }
        })
    });
    assert_eq!(results[0], Err(MpiError::Aborted));
    assert_eq!(results[1], Ok(1));
}

#[test]
fn fail_rank_wakes_the_failed_receiver() {
    let results = within(10, || {
        let control = JobControl::new(2);
        let ctl = control.clone();
        run(2, NetCond::perfect(), control, move |mpi| {
            if mpi.rank() == 0 {
                mpi.recv(&mpi.world(), 1, 99).map(|_| 0)
            } else {
                let_peer_block();
                ctl.fail_rank(0);
                Ok(1)
            }
        })
    });
    assert_eq!(results[0], Err(MpiError::FailStop));
    assert_eq!(results[1], Ok(1));
}

#[test]
fn abort_wakes_a_lingering_flush_on_a_lossy_wire() {
    // Every frame 0 → 1 is severed and the first retransmission is a
    // minute away, so rank 0's post-run flush can only end by a wake.
    let cond = NetCond::perfect()
        .with_partition(0, 1, 0, u64::MAX)
        .with_retransmit(RetransmitPolicy {
            base_delay_us: 60_000_000,
            max_delay_us: 60_000_000,
            budget: 2,
        });
    let results = within(10, move || {
        let control = JobControl::new(2);
        let ctl = control.clone();
        run(2, cond, control, move |mpi| {
            if mpi.rank() == 0 {
                mpi.send(&mpi.world(), 1, 7, b"severed")?;
                Ok(0)
            } else {
                let_peer_block();
                ctl.abort();
                // Stay alive: a departed peer would also release the
                // flush, and this test is about the abort.
                mpi.recv(&mpi.world(), 0, 8).map(|_| 1)
            }
        })
    });
    assert_eq!(results[0], Ok(0));
    assert_eq!(results[1], Err(MpiError::Aborted));
}

#[test]
fn retransmit_deadline_wakes_the_only_waiter() {
    // The first frame on each link is severed. Rank 1 waits for data
    // that was lost; rank 0 waits for a reply that cannot come yet. No
    // frame is in flight, so only rank 0's retransmit deadline, firing
    // while it is blocked in `recv`, can move the job forward.
    let cond = NetCond::perfect().with_partition(0, 1, 0, 1);
    let results = within(10, move || {
        run(2, cond, JobControl::new(2), |mpi| {
            let comm = mpi.world();
            if mpi.rank() == 0 {
                mpi.send(&comm, 1, 5, b"ping")?;
                mpi.recv(&comm, 1, 6)?;
                Ok(mpi.net_stats().retransmits)
            } else {
                let m = mpi.recv(&comm, 0, 5)?;
                mpi.send(&comm, 0, 6, &m.payload)?;
                Ok(0)
            }
        })
    });
    assert!(
        *results[0].as_ref().unwrap() >= 1,
        "the lost ping was never retransmitted"
    );
    assert_eq!(results[1], Ok(0));
}

#[test]
fn splice_successor_goes_live_in_the_wait_its_predecessor_died_in() {
    // Rank 0 kills rank 1 while rank 1 waits for a message that has not
    // been sent. The successor's tape runs out at that same wait, where
    // only live traffic can end it.
    let (results, stats) = within(10, || {
        let killed = AtomicBool::new(false);
        World::run_supervised(
            2,
            JobControl::new(2),
            NetCond::perfect(),
            Repair::Splice(|_| SpliceDecision::Respawn),
            |mpi| {
                let comm = mpi.world();
                if mpi.rank() == 1 {
                    mpi.send_t::<u64>(&comm, 0, 1, &[7])?;
                    return Ok(mpi.recv_t::<u64>(&comm, 0, 2)?[0]);
                }
                let got = mpi.recv_t::<u64>(&comm, 1, 1)?[0];
                if !killed.swap(true, Ordering::SeqCst) {
                    let_peer_block();
                    mpi.control().fail_rank(1);
                    // Send only to the successor: the flag clears once
                    // the dead incarnation is joined and replaced.
                    while mpi.control().is_failed(1) {
                        std::thread::yield_now();
                    }
                }
                mpi.send_t::<u64>(&comm, 1, 2, &[got * 6])?;
                Ok(got)
            },
        )
    });
    assert_eq!(stats.respawns, 1);
    let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, vec![7, 42]);
}
