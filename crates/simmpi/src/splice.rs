//! Online rank substitution: the flight recorder and supervision types
//! behind [`crate::World::run_supervised`].
//!
//! Full-job rollback (the paper's recovery model) throws away every
//! survivor's progress to repair one dead rank. The splice path keeps
//! survivors running: while a job executes under supervision, a
//! [`FlightRecorder`] tapes every message each rank *consumed* (in
//! consumption order, tagged with the rank's observation count — its
//! receive posts, probes and tests — at which it first saw the message),
//! and when a rank fail-stops the supervisor respawns it
//! as a fresh incarnation that deterministically re-executes the rank
//! function with the tape substituting for its peers:
//!
//! * messages are taped at the moment the dead incarnation *consumed*
//!   them (handed them to the caller), in consumption order, and
//!   released to the successor's matching engine strictly one at a
//!   time in that order — the head entry becomes visible only once
//!   the previously released entry has been consumed *and* the
//!   successor reaches the observation at which the original first
//!   saw it. Both gates matter: taping at consumption rather than at
//!   feed keeps *polled* consumption order-faithful (a message the
//!   original fed but never polled must not be consumed mid-replay at
//!   a point the original never reached), and the observation gate
//!   keeps a message out of every probe that missed it in the
//!   original, even one sharing an operation count with the probe
//!   that found it. Messages fed but never consumed travel in the
//!   death stash instead and go live only after catch-up, which ends
//!   once re-execution passes the original's last observation;
//! * re-executed sends are counted and squelched until the dead
//!   incarnation's per-(destination, context, tag) transmitted-frame
//!   budgets are spent — survivors already hold those messages, and the
//!   protocol layer's duplicate-suppression machinery never even sees a
//!   duplicate. Budgets are class-wise because replay may interleave
//!   control and application traffic differently than the original run;
//! * on a lossy wire the dead rank's reliable-delivery endpoint is
//!   resurrected into the new incarnation, so wire sequence numbers,
//!   retransmission buffers, and cumulative-ack state continue seamlessly
//!   (peers hold — rather than write off — traffic to a failed rank while
//!   a supervisor is in charge; see [`crate::JobControl`]).
//!
//! Determinism is what makes this sound: a rank's execution is a function
//! of its rank id, the attempt-scoped seed material derived from them by
//! the layers above, and the sequence of messages fed to its matching
//! engine. Replaying the consumed-message sequence at faithful
//! observations reproduces the dead incarnation's execution exactly up to the death
//! point, after which the incarnation goes live on the real fabric.

use std::collections::VecDeque;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::envelope::Message;
use crate::netsim::{Frame, NetEndpoint};

/// A taped consumed message: the consuming rank's observation count when
/// it first saw the message, plus the message.
pub(crate) type TapeEntry = (u64, Message);

/// What a dying incarnation leaves behind for its successor.
pub(crate) struct DeathStash {
    /// Per-destination transmitted-frame counts at death, keyed by
    /// `(context, tag)`: the successor squelches re-executed sends of
    /// each class until its budget is spent.
    pub class_sent: Vec<std::collections::HashMap<(u32, i32), u64>>,
    /// The reliable-delivery endpoint (lossy wire only), carried over so
    /// wire sequencing continues into the new incarnation.
    pub net: Option<NetEndpoint>,
    /// The rank's mailbox, moved out of the dying incarnation so frames
    /// queued during the death window survive for the successor (the
    /// fabric's channels are single-consumer).
    pub inbox: Option<Receiver<Frame>>,
    /// Messages the dying incarnation fed to its matching engine but
    /// never handed to a caller (matched-but-unclaimed first, in match
    /// order, then the unexpected queue in arrival order). They are not
    /// on the consumption tape — the original never observed them — so
    /// the successor receives them only once catch-up ends.
    pub undelivered: Vec<Message>,
    /// The dying incarnation's observation count. The successor stays
    /// in catch-up until it has re-executed past it, even once the tape
    /// is exhausted: the original may have sent after its last
    /// consumption, and traffic released before those re-executed sends
    /// would let the successor act (e.g. take a checkpoint) at a point
    /// the original never did, behind sends the survivors already hold.
    pub polls: u64,
    /// Whether the incarnation died blocked in a wait. Its successor then
    /// goes live when it blocks in that same wait: the message it waits
    /// for never reached the original, so only live traffic can end it.
    pub blocked: bool,
}

struct Tape {
    consumed: VecDeque<TapeEntry>,
    death: Option<DeathStash>,
}

/// Per-rank consumed-message tapes plus death stashes, shared between the
/// supervisor and every rank handle of a supervised job.
pub(crate) struct FlightRecorder {
    ranks: Vec<Mutex<Tape>>,
}

impl FlightRecorder {
    pub(crate) fn new(n: usize) -> Self {
        FlightRecorder {
            ranks: (0..n)
                .map(|_| {
                    Mutex::new(Tape {
                        consumed: VecDeque::new(),
                        death: None,
                    })
                })
                .collect(),
        }
    }

    /// Tape one message consumed by `rank`, first seen at observation
    /// `at`.
    pub(crate) fn record(&self, rank: usize, at: u64, msg: &Message) {
        self.ranks[rank]
            .lock()
            .consumed
            .push_back((at, msg.clone()));
    }

    /// Record what a dying incarnation leaves behind (called by the rank
    /// thread as it unwinds from a fail-stop, before the supervisor joins
    /// it).
    pub(crate) fn record_death(&self, rank: usize, stash: DeathStash) {
        self.ranks[rank].lock().death = Some(stash);
    }

    /// Claim the material for respawning `rank`: its death stash and the
    /// consumed-message tape. Returns `None` if no death was recorded
    /// (the supervisor must only call this after joining a fail-stopped
    /// rank's thread). The tape is moved out — a second splice of the same
    /// rank is not supported (supervision policies escalate instead).
    pub(crate) fn begin_respawn(
        &self,
        rank: usize,
    ) -> Option<(DeathStash, VecDeque<TapeEntry>)> {
        let mut tape = self.ranks[rank].lock();
        let stash = tape.death.take()?;
        Some((stash, std::mem::take(&mut tape.consumed)))
    }
}

/// What the supervisor tells a splice policy about a freshly detected
/// rank death.
#[derive(Debug, Clone, Copy)]
pub struct SpliceQuery {
    /// The world rank that fail-stopped.
    pub rank: usize,
    /// How many times this rank has already been respawned this attempt.
    pub rank_respawns: u32,
    /// Total respawns performed this attempt (all ranks).
    pub total_respawns: usize,
}

/// A splice policy's verdict on a rank death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceDecision {
    /// Splice in a new incarnation; survivors keep running.
    Respawn,
    /// Give up on online recovery: abort the attempt so the job driver
    /// falls back to a full rollback-restart.
    Escalate,
}

/// What a supervised run did about failures, alongside the per-rank
/// results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Respawns performed (incarnations spawned beyond the first).
    pub respawns: usize,
    /// Respawned ranks whose final incarnation ran to successful
    /// completion — the count of *completed* splices.
    pub completed: usize,
    /// True if a splice policy escalated and the attempt was aborted.
    pub escalated: bool,
}
