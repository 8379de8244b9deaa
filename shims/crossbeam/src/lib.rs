//! Offline stand-in for the `crossbeam` crate.
//!
//! This workspace builds in containers with no crates.io access, so the
//! external dependencies are replaced by small local shims exposing the
//! exact API surface the workspace uses (see `shims/README.md`). Here
//! that surface is `crossbeam::channel::{unbounded, Sender, Receiver}`
//! plus the receive-side error types; `std::sync::mpsc` provides
//! identical semantics for the single-consumer way `simmpi` uses them
//! (one inbox `Receiver` owned by each rank thread, many cloned
//! `Sender`s). `Receiver` wraps the std one to add crossbeam's
//! `recv_deadline`, which std offers only behind an unstable feature.

pub mod channel {
    //! `crossbeam::channel`-compatible unbounded MPSC channels.

    use std::time::Instant;

    pub use std::sync::mpsc::{
        RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// The receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block until a message arrives.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// Take a message if one is waiting.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Block until a message arrives or `deadline` passes.
        pub fn recv_deadline(
            &self,
            deadline: Instant,
        ) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(
                deadline.saturating_duration_since(Instant::now()),
            )
        }

        /// Blocking iterator over messages until every sender is gone.
        pub fn iter(&self) -> std::sync::mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    /// Create an unbounded channel, crossbeam-style.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_and_timeout() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            assert_eq!(rx.try_recv().unwrap(), 7);
            assert!(matches!(
                rx.recv_deadline(Instant::now()),
                Err(RecvTimeoutError::Timeout)
            ));
            tx.send(8).unwrap();
            assert_eq!(rx.recv_deadline(Instant::now()).unwrap(), 8);
            drop(tx);
            assert!(matches!(
                rx.recv_deadline(Instant::now() + Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            ));
        }

        #[test]
        fn senders_clone_across_threads() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.send(i).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            drop(tx);
            let mut got: Vec<i32> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
    }
}
