//! Property tests on the protocol's pure data structures: piggyback
//! packing, classification equivalence, counters, and log replay.

use proptest::prelude::*;

use c3_core::counters::ChannelCounters;
use c3_core::epoch::{classify_by_color, classify_by_epoch, Color, MsgClass};
use c3_core::logrec::{LateMessage, RecoveryLog};
use c3_core::piggyback::{
    decode_header, PackedPiggyback, Piggyback, PiggybackMode,
    PACKED_MAX_MESSAGE_ID,
};
use c3_core::recovery::Replay;
use ckptstore::codec::{Decoder, Encoder};
use ckptstore::SaveLoad;

proptest! {
    /// The packed word round-trips color, logging, and id for every legal
    /// message id.
    #[test]
    fn packed_word_round_trip(
        epoch in 0u32..1000,
        logging in any::<bool>(),
        id in 0u32..=PACKED_MAX_MESSAGE_ID,
    ) {
        let pb = Piggyback { epoch, logging, message_id: id };
        let un = PackedPiggyback::unpack(pb.pack());
        prop_assert_eq!(un.color, Color::of(epoch));
        prop_assert_eq!(un.logging, logging);
        prop_assert_eq!(un.message_id, id);
    }

    /// Both wire modes decode back to what was encoded, consuming
    /// exactly the inline header segment.
    #[test]
    fn header_round_trip_both_modes(
        epoch in 0u32..100,
        logging in any::<bool>(),
        id in 0u32..PACKED_MAX_MESSAGE_ID,
    ) {
        let pb = Piggyback { epoch, logging, message_id: id };
        for mode in [PiggybackMode::Packed, PiggybackMode::Explicit] {
            let buf = pb.encode_inline(mode).unwrap();
            let (h, off) = decode_header(mode, &buf).unwrap();
            prop_assert_eq!(h.message_id(), id);
            prop_assert_eq!(h.logging(), logging);
            prop_assert_eq!(h.color(), Color::of(epoch));
            prop_assert_eq!(off, buf.len());
        }
    }

    /// The optimized one-bit classification agrees with the full-epoch
    /// classification on every protocol-reachable configuration.
    #[test]
    fn color_classification_equivalence(recv_epoch in 0u32..500, delta in 0i32..3) {
        // delta: 0 => sender behind, 1 => same, 2 => sender ahead.
        let sender_epoch = match delta {
            0 => {
                if recv_epoch == 0 { return Ok(()); }
                recv_epoch - 1
            }
            1 => recv_epoch,
            _ => recv_epoch + 1,
        };
        let expected = classify_by_epoch(sender_epoch, recv_epoch);
        // Protocol invariant: a receiver expecting late messages is
        // logging; a receiver of an early message is not.
        let logging_states: &[bool] = match expected {
            MsgClass::Late => &[true],
            MsgClass::Early => &[false],
            MsgClass::IntraEpoch => &[true, false],
        };
        for &logging in logging_states {
            prop_assert_eq!(
                classify_by_color(
                    Color::of(sender_epoch),
                    Color::of(recv_epoch),
                    logging,
                ),
                expected
            );
        }
    }

    /// `receivedAll?` fires iff every announced total matches the late
    /// count, for arbitrary traffic patterns.
    #[test]
    fn received_all_is_sound(
        n in 1usize..6,
        lates in proptest::collection::vec(0u64..5, 1..6),
    ) {
        let n = n.min(lates.len());
        let lates = &lates[..n];
        let mut c = ChannelCounters::new(n);
        for (q, &k) in lates.iter().enumerate() {
            for _ in 0..k {
                c.on_late_recv(q);
            }
        }
        // Announce one short for the last sender: must not fire.
        for (q, &k) in lates.iter().enumerate() {
            if q == n - 1 && k > 0 {
                c.set_total_sent(q, k - 1);
            } else {
                c.set_total_sent(q, k);
            }
        }
        if lates[n - 1] > 0 {
            prop_assert!(!c.received_all());
            // Correct the announcement: now it fires.
            c.set_total_sent(n - 1, lates[n - 1]);
        }
        prop_assert!(c.received_all());
        // And resets: does not fire twice.
        prop_assert!(!c.received_all());
    }

    /// Counters survive a save/load round trip exactly.
    #[test]
    fn counters_round_trip(
        n in 1usize..6,
        sends in proptest::collection::vec(0u64..9, 1..6),
    ) {
        let n = n.min(sends.len());
        let mut c = ChannelCounters::new(n);
        for (q, &k) in sends.iter().take(n).enumerate() {
            for _ in 0..k {
                c.on_send(q);
                c.on_intra_epoch_recv((q + 1) % n);
            }
        }
        let mut enc = Encoder::new();
        c.save(&mut enc);
        let bytes = enc.into_bytes();
        let back = ChannelCounters::load(&mut Decoder::new(&bytes)).unwrap();
        prop_assert_eq!(back, c);
    }

    /// Replay delivers every logged late message exactly once under any
    /// sequence of matching patterns, and preserves per-channel order.
    #[test]
    fn replay_is_exactly_once_in_channel_order(
        messages in proptest::collection::vec((0usize..3, 0i32..3), 1..32),
        patterns in proptest::collection::vec(
            (0usize..4, 0i32..4), 0..48
        ),
    ) {
        let mut log = RecoveryLog::new();
        for (i, &(src, tag)) in messages.iter().enumerate() {
            log.push_late(LateMessage {
                comm: 0,
                src,
                message_id: i as u32,
                tag,
                payload: vec![i as u8].into(),
            });
        }
        let mut rep = Replay::new(log);
        let mut taken: Vec<(usize, i32, u8)> = Vec::new();
        for (psrc, ptag) in patterns {
            let src = (psrc < 3).then_some(psrc);
            let tag = (ptag < 3).then_some(ptag);
            if let Some(m) = rep.take_late(0, src, tag) {
                taken.push((m.src, m.tag, m.payload[0]));
            }
        }
        // Exactly once.
        let mut ids: Vec<u8> = taken.iter().map(|t| t.2).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), taken.len());
        // Channel order: within (src, tag), payload ids ascend.
        for s in 0..3usize {
            for t in 0..3i32 {
                let ch: Vec<u8> = taken
                    .iter()
                    .filter(|x| x.0 == s && x.1 == t)
                    .map(|x| x.2)
                    .collect();
                let mut sorted = ch.clone();
                sorted.sort_unstable();
                prop_assert_eq!(ch, sorted);
            }
        }
    }

    /// RecoveryLog serialization is the identity.
    #[test]
    fn recovery_log_round_trip(
        lates in proptest::collection::vec(
            (0usize..8, any::<u32>(), any::<i32>(),
             proptest::collection::vec(any::<u8>(), 0..32)),
            0..16,
        ),
        nondets in proptest::collection::vec(any::<u64>(), 0..16),
        colls in proptest::collection::vec(
            (0u8..9, proptest::collection::vec(any::<u8>(), 0..32)),
            0..8,
        ),
    ) {
        let mut log = RecoveryLog::new();
        for (src, id, tag, payload) in lates {
            log.push_late(LateMessage {
                comm: 0,
                src,
                message_id: id,
                tag,
                payload: payload.into(),
            });
        }
        for v in nondets {
            log.push_nondet(v);
        }
        for (kind, result) in colls {
            log.push_collective(kind, result.into());
        }
        let mut enc = Encoder::new();
        log.save(&mut enc);
        let bytes = enc.into_bytes();
        let back = RecoveryLog::load(&mut Decoder::new(&bytes)).unwrap();
        prop_assert_eq!(back, log);
    }
}
