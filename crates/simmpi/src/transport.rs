//! Transport fabric: one unbounded FIFO channel per destination rank,
//! optionally fronted by the deterministic lossy wire of [`crate::netsim`].
//!
//! The paper assumes "a reliable transport layer for delivering application
//! messages" (Section 1.1, citing LA-MPI). With the default perfect wire,
//! crossbeam channels provide exactly that within a process: no loss, no
//! duplication, per-sender FIFO — and frames take the direct path with no
//! netsim state allocated at all. With a lossy [`NetCond`], every frame is
//! pushed through per-directed-link wire state that may drop, duplicate,
//! hold back, or sever it; the reliable-delivery sublayer in
//! [`crate::netsim`] then rebuilds the FIFO guarantee above it.
//! Everything weaker that the protocol must cope with — out-of-order
//! *matching* at the application level — is introduced above this layer, in
//! [`crate::matching`].

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::envelope::Message;
use crate::error::{MpiError, MpiResult};
use crate::netsim::{Frame, LinkWire, NetCond, WireStats};
use crate::world::JobControl;

/// The lossy-wire state shared by every rank's fabric handle: one
/// [`LinkWire`] per directed link, indexed `src * n + dst`.
struct WireNet {
    cond: NetCond,
    links: Vec<Mutex<LinkWire>>,
    n: usize,
}

/// The sending half of the fabric, shared by all ranks.
///
/// Cloning is cheap; each rank holds one.
#[derive(Clone)]
pub struct Fabric {
    senders: Vec<Sender<Frame>>,
    control: JobControl,
    net: Option<Arc<WireNet>>,
}

impl Fabric {
    /// Build a fabric for `n` ranks over the wire described by `cond`;
    /// returns the fabric plus each rank's receiving endpoint. A perfect
    /// `cond` allocates no wire state: frames take the direct path.
    pub fn new(
        n: usize,
        control: JobControl,
        cond: NetCond,
    ) -> (Fabric, Vec<Receiver<Frame>>) {
        let net = (!cond.is_perfect()).then(|| {
            Arc::new(WireNet {
                links: (0..n * n)
                    .map(|_| Mutex::new(LinkWire::new()))
                    .collect(),
                cond,
                n,
            })
        });
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded()).unzip();
        control.attach_mailboxes(senders.clone());
        let fabric = Fabric {
            senders,
            control,
            net,
        };
        (fabric, receivers)
    }

    /// Number of ranks the fabric connects.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// The job-wide control block (abort flag).
    pub fn control(&self) -> &JobControl {
        &self.control
    }

    /// The wire conditions, if a lossy wire is active.
    pub fn net_cond(&self) -> Option<&NetCond> {
        self.net.as_ref().map(|w| &w.cond)
    }

    /// Validate a send's destination and the job's liveness, in that
    /// order: a nonsense destination is a program bug and is reported as
    /// such even while the job is aborting.
    pub fn validate_send(&self, dst: usize) -> MpiResult<()> {
        let size = self.size();
        if dst >= size {
            return Err(MpiError::InvalidRank { rank: dst, size });
        }
        if self.control.is_aborted() {
            return Err(MpiError::Aborted);
        }
        Ok(())
    }

    /// Deliver `msg` into the destination's mailbox over the perfect wire.
    /// Infallible unless the destination is invalid or the job is aborting
    /// (in which case the message is dropped — every rank is about to be
    /// rolled back anyway).
    pub fn send(&self, msg: Message) -> MpiResult<()> {
        self.validate_send(msg.dst)?;
        let dst = msg.dst;
        self.senders[dst]
            .send(Frame::Direct(msg))
            // The receiver endpoint only drops when its rank thread has
            // exited; under the stopping-failure model messages to a dead
            // rank silently vanish.
            .or(Ok(()))
    }

    /// Offer one frame to the lossy wire on the directed link
    /// `src → dst`; surviving copies land in `dst`'s mailbox now or when
    /// a later wire event releases them (a parked frame wakes `dst` so
    /// it re-arms its deadline). No-op on a perfect-wire fabric.
    pub fn wire_transmit(
        &self,
        src: usize,
        dst: usize,
        frame: Frame,
        now: Instant,
    ) {
        let Some(net) = &self.net else { return };
        let tx = &self.senders[dst];
        let parked = net.links[src * net.n + dst].lock().transmit(
            &net.cond,
            src,
            dst,
            frame,
            now,
            &mut |f| {
                tx.send(f).ok();
            },
        );
        if parked {
            tx.send(Frame::Wake).ok();
        }
    }

    /// When the next frame parked on a link into `dst` falls due.
    pub fn wire_next_due_to(
        &self,
        dst: usize,
        now: Instant,
    ) -> Option<Instant> {
        let net = self.net.as_ref()?;
        (0..net.n)
            .filter_map(|src| {
                net.links[src * net.n + dst].lock().next_due(now)
            })
            .min()
    }

    /// Release every due held frame on links into `dst` (the receiver-side
    /// poll that makes delayed/reordered frames eventually arrive even on
    /// an otherwise idle link). No-op on a perfect-wire fabric.
    pub fn wire_pump_to(&self, dst: usize, now: Instant) {
        let Some(net) = &self.net else { return };
        let tx = &self.senders[dst];
        for src in 0..net.n {
            net.links[src * net.n + dst].lock().pump(now, &mut |f| {
                tx.send(f).ok();
            });
        }
    }

    /// Aggregate wire-fault counters over `src`'s outgoing links.
    pub fn wire_stats_for(&self, src: usize) -> WireStats {
        let mut total = WireStats::default();
        if let Some(net) = &self.net {
            for dst in 0..net.n {
                total.absorb(&net.links[src * net.n + dst].lock().stats());
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(src: usize, dst: usize, seq: u64) -> Message {
        Message {
            src,
            dst,
            context: 0,
            tag: 1,
            header: crate::envelope::HeaderBytes::empty(),
            payload: Bytes::from_static(b"x"),
            seq,
        }
    }

    fn unwrap_direct(f: Frame) -> Message {
        match f {
            Frame::Direct(m) => m,
            other => panic!("expected a direct frame, got {other:?}"),
        }
    }

    #[test]
    fn per_sender_fifo_order_is_preserved() {
        let control = JobControl::new(2);
        let (fabric, mut rx) = Fabric::new(2, control, NetCond::perfect());
        for seq in 0..100 {
            fabric.send(msg(0, 1, seq)).unwrap();
        }
        let inbox = rx.remove(1);
        for seq in 0..100 {
            assert_eq!(unwrap_direct(inbox.recv().unwrap()).seq, seq);
        }
    }

    #[test]
    fn invalid_destination_is_an_error() {
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new(2, control, NetCond::perfect());
        assert_eq!(
            fabric.send(msg(0, 5, 0)).unwrap_err(),
            MpiError::InvalidRank { rank: 5, size: 2 }
        );
    }

    #[test]
    fn send_to_dead_rank_is_silently_dropped() {
        let control = JobControl::new(2);
        let (fabric, rx) = Fabric::new(2, control, NetCond::perfect());
        drop(rx); // both ranks gone
        fabric.send(msg(0, 1, 0)).unwrap();
    }

    #[test]
    fn abort_poisons_sends() {
        let control = JobControl::new(2);
        let (fabric, _rx) =
            Fabric::new(2, control.clone(), NetCond::perfect());
        control.abort();
        assert_eq!(fabric.send(msg(0, 1, 0)).unwrap_err(), MpiError::Aborted);
    }

    #[test]
    fn send_into_aborting_job_reports_invalid_dst_first() {
        // Regression: the two error paths used to be checked in the
        // opposite order, so an out-of-range destination was masked by
        // `Aborted` during rollback and a program bug went unreported.
        let control = JobControl::new(2);
        let (fabric, _rx) =
            Fabric::new(2, control.clone(), NetCond::perfect());
        control.abort();
        assert_eq!(
            fabric.send(msg(0, 5, 0)).unwrap_err(),
            MpiError::InvalidRank { rank: 5, size: 2 }
        );
        // An in-range destination still reports the abort.
        assert_eq!(fabric.send(msg(0, 1, 0)).unwrap_err(), MpiError::Aborted);
    }

    #[test]
    fn perfect_netcond_allocates_no_wire_state() {
        let control = JobControl::new(2);
        let (fabric, _rx) = Fabric::new(2, control, NetCond::perfect());
        assert!(fabric.net_cond().is_none());
        assert_eq!(fabric.wire_stats_for(0), WireStats::default());
    }
}
