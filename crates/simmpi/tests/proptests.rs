//! Property tests: the matching engine preserves MPI semantics for
//! arbitrary interleavings of posts and deliveries, the reliable-delivery
//! sublayer masks arbitrary lossy-wire conditions, and reductions agree
//! with a sequential model.

use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;

use simmpi::matching::{MatchEngine, PostOutcome};
use simmpi::netsim::NetEndpoint;
use simmpi::transport::Fabric;
use simmpi::{DType, JobControl, Message, MpiType, NetCond, ReduceOp};

fn msg(src: usize, tag: i32, uid: u64) -> Message {
    Message {
        src,
        dst: 0,
        context: 1,
        tag,
        header: simmpi::HeaderBytes::empty(),
        payload: Bytes::copy_from_slice(&uid.to_le_bytes()),
        seq: uid,
    }
}

fn uid_of(m: &Message) -> u64 {
    u64::from_le_bytes(m.payload[..8].try_into().unwrap())
}

proptest! {
    /// Every message is delivered exactly once, and per-(src, tag) channel
    /// order is preserved (non-overtaking), no matter how posts and
    /// arrivals interleave.
    #[test]
    fn matching_is_exactly_once_and_non_overtaking(
        // Each event: true = deliver next message, false = post a recv;
        // recvs use (src, tag) patterns drawn from a small space, with
        // src=3 meaning ANY and tag=3 meaning ANY.
        events in proptest::collection::vec(
            (any::<bool>(), 0usize..4, 0i32..4, 0usize..3, 0i32..3),
            1..80,
        ),
    ) {
        let mut eng = MatchEngine::new();
        let mut uid = 0u64;
        let mut sent: Vec<(usize, i32, u64)> = Vec::new();
        let mut received: Vec<(usize, i32, u64)> = Vec::new();
        let mut pending = Vec::new();

        for (is_deliver, psrc, ptag, msrc, mtag) in events {
            if is_deliver {
                uid += 1;
                sent.push((msrc, mtag, uid));
                if let Some((_id, m)) = eng.deliver(msg(msrc, mtag, uid)) {
                    received.push((m.src, m.tag, uid_of(&m)));
                }
            } else {
                let src = (psrc < 3).then_some(psrc);
                let tag = (ptag < 3).then_some(ptag);
                match eng.post(src, 1, tag) {
                    PostOutcome::Matched(m) => {
                        received.push((m.src, m.tag, uid_of(&m)));
                    }
                    PostOutcome::Pending(id) => pending.push(id),
                }
            }
        }

        // Exactly-once: no duplicates among received uids.
        let mut uids: Vec<u64> = received.iter().map(|r| r.2).collect();
        uids.sort_unstable();
        uids.dedup();
        prop_assert_eq!(uids.len(), received.len(), "duplicate delivery");

        // Every received uid was sent with matching (src, tag).
        for &(src, tag, uid) in &received {
            prop_assert!(sent.contains(&(src, tag, uid)));
        }

        // Non-overtaking per (src, tag) channel: received uids from one
        // channel appear in send order.
        for s in 0..3usize {
            for t in 0..3i32 {
                let got: Vec<u64> = received
                    .iter()
                    .filter(|r| r.0 == s && r.1 == t)
                    .map(|r| r.2)
                    .collect();
                let mut sorted = got.clone();
                sorted.sort_unstable();
                prop_assert_eq!(got, sorted, "channel ({}, {}) overtaken", s, t);
            }
        }

        // Conservation: everything sent is either received, still
        // unexpected, or will match a pending recv later.
        prop_assert_eq!(
            received.len() + eng.unexpected_len()
                + (sent.len() - received.len() - eng.unexpected_len()),
            sent.len()
        );
    }

    /// The lossy-wire companion of `matching_is_exactly_once_and_non_
    /// overtaking`: under seeded sweeps of drop (≤ 10%), duplication,
    /// bounded reorder, and delay/jitter, delivery *through the
    /// reliable-delivery sublayer* is exactly-once and per-(src, dst)
    /// FIFO — which implies pairwise non-overtaking for every
    /// (src, dst, comm, tag) channel the matcher sees above it.
    ///
    /// Two sender endpoints feed one receiver over the wire on a virtual
    /// clock, so retransmission timers run deterministically and the
    /// whole schedule is a pure function of the drawn inputs.
    #[test]
    fn lossy_wire_delivery_is_exactly_once_and_non_overtaking(
        seed in any::<u64>(),
        drop_ppm in 1u32..=100_000,
        dup_ppm in 0u32..=50_000,
        reorder_ppm in 0u32..=200_000,
        delay_ppm in 0u32..=200_000,
        sends in proptest::collection::vec((0usize..2, 0i32..3), 1..60),
    ) {
        let cond = NetCond {
            seed,
            drop_ppm,
            dup_ppm,
            reorder_ppm,
            reorder_span: 3,
            delay_ppm,
            delay_us: 100,
            jitter_us: 150,
            ..NetCond::perfect()
        };
        let control = JobControl::new(3);
        let (fabric, rx) = Fabric::new(3, control, cond.clone());
        let mut senders = [
            NetEndpoint::new(0, 3, cond.retransmit.clone()),
            NetEndpoint::new(1, 3, cond.retransmit.clone()),
        ];
        let mut receiver = NetEndpoint::new(2, 3, cond.retransmit.clone());

        let start = Instant::now();
        let mut uid = 0u64;
        let mut sent_per_src: [Vec<(i32, u64)>; 2] = [Vec::new(), Vec::new()];
        for &(src, tag) in &sends {
            uid += 1;
            sent_per_src[src].push((tag, uid));
            let m = Message {
                src,
                dst: 2,
                context: 1,
                tag,
                header: simmpi::HeaderBytes::empty(),
                payload: Bytes::copy_from_slice(&uid.to_le_bytes()),
                seq: uid,
            };
            senders[src].send(&fabric, m, start).unwrap();
        }

        // Shuttle on the virtual clock until both senders drain.
        let mut delivered: Vec<Message> = Vec::new();
        let mut t = 0u64;
        while !(senders[0].all_acked() && senders[1].all_acked()) {
            t += 100;
            prop_assert!(t < 120_000_000, "sublayer did not converge");
            let now = start + Duration::from_micros(t);
            for ep in senders.iter_mut() {
                ep.poll(&fabric, now).unwrap();
            }
            receiver.poll(&fabric, now).unwrap();
            while let Ok(f) = rx[2].try_recv() {
                delivered.extend(receiver.on_frame(&fabric, f, now));
            }
            for (r, ep) in rx.iter().zip(senders.iter_mut()).take(2) {
                while let Ok(f) = r.try_recv() {
                    ep.on_frame(&fabric, f, now);
                }
            }
        }

        // Exactly-once and per-(src, dst) FIFO: each sender's messages
        // arrive exactly in send order — hence every (src, dst, comm,
        // tag) sub-channel is non-overtaking.
        for (src, sent) in sent_per_src.iter().enumerate() {
            let got: Vec<(i32, u64)> = delivered
                .iter()
                .filter(|m| m.src == src)
                .map(|m| {
                    (m.tag, u64::from_le_bytes(m.payload[..8].try_into().unwrap()))
                })
                .collect();
            prop_assert_eq!(
                &got,
                sent,
                "src {} channel corrupted under {:?}",
                src,
                cond
            );
        }
    }

    /// Element-wise reductions match a sequential fold for any operand
    /// list (integer ops, exact).
    #[test]
    fn reduce_ops_match_sequential_fold(
        contributions in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 4..5),
            1..8,
        ),
        op_idx in 0usize..4,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
        let mut acc = i64::slice_to_bytes(&contributions[0]);
        for c in &contributions[1..] {
            op.combine(DType::I64, &mut acc, &i64::slice_to_bytes(c)).unwrap();
        }
        let got = i64::bytes_to_vec(&acc).unwrap();

        let mut expect = contributions[0].clone();
        for c in &contributions[1..] {
            for (e, &v) in expect.iter_mut().zip(c.iter()) {
                *e = match op {
                    ReduceOp::Sum => e.wrapping_add(v),
                    ReduceOp::Prod => e.wrapping_mul(v),
                    ReduceOp::Min => (*e).min(v),
                    ReduceOp::Max => (*e).max(v),
                    _ => unreachable!(),
                };
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Typed slice encode/decode is the identity for every dtype.
    #[test]
    fn typed_slices_round_trip(
        f64s in proptest::collection::vec(any::<f64>(), 0..64),
        i32s in proptest::collection::vec(any::<i32>(), 0..64),
        u64s in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let enc = f64::slice_to_bytes(&f64s);
        let back = f64::bytes_to_vec(&enc).unwrap();
        prop_assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f64s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(i32::bytes_to_vec(&i32::slice_to_bytes(&i32s)).unwrap(), i32s);
        prop_assert_eq!(u64::bytes_to_vec(&u64::slice_to_bytes(&u64s)).unwrap(), u64s);
    }
}
