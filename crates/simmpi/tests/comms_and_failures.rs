//! Communicator creation and the abort / fail-stop machinery.

use std::time::Duration;

use simmpi::{
    JobControl, MpiError, MpiResult, NetCond, ReduceOp, Repair, World,
};

/// Run a job under the rollback supervisor on the perfect wire and
/// return every rank's result.
fn run_collect<T: Send>(
    n: usize,
    control: JobControl,
    f: impl Fn(&mut simmpi::Mpi) -> MpiResult<T> + Send + Sync,
) -> Vec<MpiResult<T>> {
    World::run_supervised(n, control, NetCond::perfect(), Repair::Rollback, f)
        .0
}

#[test]
fn comm_dup_isolates_traffic() {
    World::run(2, |mpi| {
        let world = mpi.world();
        let dup = mpi.comm_dup(&world)?;
        assert_eq!(dup.size(), 2);
        assert_ne!(dup.context(), world.context());
        if mpi.rank() == 0 {
            // Same (dst, tag) on both communicators; contexts keep them apart.
            mpi.send(&world, 1, 5, b"world")?;
            mpi.send(&dup, 1, 5, b"dup")?;
        } else {
            // Receive in the opposite order of sending.
            let d = mpi.recv(&dup, 0, 5)?;
            let w = mpi.recv(&world, 0, 5)?;
            assert_eq!(&d.payload[..], b"dup");
            assert_eq!(&w.payload[..], b"world");
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn repeated_dups_get_distinct_contexts() {
    World::run(3, |mpi| {
        let world = mpi.world();
        let a = mpi.comm_dup(&world)?;
        let b = mpi.comm_dup(&world)?;
        let c = mpi.comm_dup(&a)?;
        let mut ctxs =
            [world.context(), a.context(), b.context(), c.context()];
        ctxs.sort();
        ctxs.windows(2).for_each(|w| assert_ne!(w[0], w[1]));
        // Collectives work on dups.
        let s = mpi.allreduce_t::<u64>(&c, ReduceOp::Sum, &[1])?;
        assert_eq!(s, vec![3]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn comm_split_partitions_by_color() {
    World::run(6, |mpi| {
        let world = mpi.world();
        let me = mpi.rank();
        let color = (me % 2) as i32;
        let sub = mpi.comm_split(&world, color, me as i32)?.unwrap();
        assert_eq!(sub.size(), 3);
        // Even ranks {0,2,4}; odd {1,3,5}; ordered by key = old rank.
        let expected: Vec<usize> =
            (0..6).filter(|r| r % 2 == me % 2).collect();
        assert_eq!(sub.members(), &expected[..]);
        assert_eq!(sub.rank(), me / 2);
        // Collectives within the half only.
        let s = mpi.allreduce_t::<u64>(&sub, ReduceOp::Sum, &[me as u64])?;
        let expect: u64 = expected.iter().map(|&r| r as u64).sum();
        assert_eq!(s, vec![expect]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn comm_split_key_controls_ordering() {
    World::run(4, |mpi| {
        let world = mpi.world();
        let me = mpi.rank();
        // Everyone in one color; keys reverse the order.
        let sub = mpi.comm_split(&world, 0, -(me as i32))?.unwrap();
        assert_eq!(sub.members(), &[3, 2, 1, 0]);
        assert_eq!(sub.rank(), 3 - me);
        Ok(())
    })
    .unwrap();
}

#[test]
fn comm_split_negative_color_opts_out() {
    World::run(4, |mpi| {
        let world = mpi.world();
        let me = mpi.rank();
        let color = if me == 0 { -1 } else { 0 };
        let sub = mpi.comm_split(&world, color, 0)?;
        if me == 0 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(sub.members(), &[1, 2, 3]);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn abort_unblocks_a_stuck_receive() {
    let control = JobControl::new(2);
    let ctl = control.clone();
    let results = run_collect(2, control, |mpi| -> Result<(), _> {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            // Blocks forever: nobody ever sends tag 99.
            let r = mpi.recv(&comm, 1, 99);
            assert_eq!(r.unwrap_err(), MpiError::Aborted);
            Err(MpiError::Aborted)
        } else {
            // Simulate the failure detector firing after a moment.
            std::thread::sleep(Duration::from_millis(20));
            ctl.abort();
            Err(MpiError::Aborted)
        }
    });
    assert_eq!(results[0].as_ref().unwrap_err(), &MpiError::Aborted);
    assert_eq!(results[1].as_ref().unwrap_err(), &MpiError::Aborted);
}

#[test]
fn fail_stop_silences_only_the_failed_rank() {
    let control = JobControl::new(2);
    let ctl = control.clone();
    let results = run_collect(2, control, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 0 {
            ctl.fail_rank(0);
            // The very next MPI call observes the stop.
            match mpi.send(&comm, 1, 1, b"never") {
                Err(MpiError::FailStop) => Err(MpiError::FailStop),
                other => panic!("expected FailStop, got {other:?}"),
            }
        } else {
            // Rank 1 does local work and finishes fine.
            Ok(41 + 1)
        }
    });
    assert_eq!(results[0].as_ref().unwrap_err(), &MpiError::FailStop);
    assert_eq!(*results[1].as_ref().unwrap(), 42);
}

#[test]
fn abort_unblocks_a_stuck_collective() {
    let control = JobControl::new(3);
    let ctl = control.clone();
    let results = run_collect(3, control, |mpi| -> Result<(), _> {
        let comm = mpi.world();
        match mpi.rank() {
            0 => {
                // Never joins the barrier; fail-stops instead.
                ctl.fail_rank(0);
                std::thread::sleep(Duration::from_millis(20));
                ctl.abort(); // the detector notices and aborts the attempt
                Err(MpiError::FailStop)
            }
            _ => {
                let r = mpi.barrier(&comm);
                assert_eq!(r.unwrap_err(), MpiError::Aborted);
                Err(MpiError::Aborted)
            }
        }
    });
    assert!(results[1].is_err());
    assert!(results[2].is_err());
}

#[test]
fn messages_to_failed_rank_are_dropped_not_fatal() {
    let control = JobControl::new(2);
    let ctl = control.clone();
    // Rank 1 dies but keeps its thread until rank 0 has sent, so the
    // supervisor's abort cannot race the send.
    let sent = std::sync::Barrier::new(2);
    let results = run_collect(2, control, |mpi| {
        let comm = mpi.world();
        if mpi.rank() == 1 {
            ctl.fail_rank(1);
            sent.wait();
            sent.wait();
            Err(MpiError::FailStop)
        } else {
            // Send into the void once rank 1 is dead; the reliable
            // transport buffers/drops without error.
            sent.wait();
            let out = mpi.send(&comm, 1, 1, b"void");
            sent.wait();
            out
        }
    });
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
}

#[test]
fn op_count_advances() {
    World::run(2, |mpi| {
        let comm = mpi.world();
        let start = mpi.op_count();
        if mpi.rank() == 0 {
            mpi.send(&comm, 1, 1, b"x")?;
            mpi.send(&comm, 1, 1, b"y")?;
        } else {
            mpi.recv(&comm, 0, 1)?;
            mpi.recv(&comm, 0, 1)?;
        }
        assert!(mpi.op_count() >= start + 2);
        Ok(())
    })
    .unwrap();
}
