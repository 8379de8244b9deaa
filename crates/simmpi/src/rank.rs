//! Per-rank MPI handle: point-to-point operations and request completion.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::comm::Comm;
use crate::datatype::MpiType;
use crate::envelope::{HeaderBytes, Message, RecvMsg};
use crate::error::{MpiError, MpiResult};
use crate::matching::{MatchEngine, PostOutcome, RecvId};
use crate::netsim::{Frame, NetEndpoint, NetStats};
use crate::request::{ReqState, Request};
use crate::splice::{DeathStash, FlightRecorder, TapeEntry};
use crate::transport::Fabric;
use crate::world::JobControl;

/// Wildcard source for receives (the `MPI_ANY_SOURCE` analogue).
pub const ANY_SOURCE: usize = usize::MAX;

/// Wildcard tag for receives (the `MPI_ANY_TAG` analogue).
pub const ANY_TAG: i32 = i32::MIN;

/// Which message plane of a communicator an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// Application point-to-point traffic.
    P2p,
    /// Internal collective traffic (invisible to application receives).
    Coll,
}

/// A rank's handle to the message-passing runtime. One per rank thread;
/// every operation takes `&mut self` because the matching engine is
/// single-threaded by design.
pub struct Mpi {
    rank: usize,
    size: usize,
    world: Comm,
    fabric: Fabric,
    inbox: Receiver<Frame>,
    /// Reliable-delivery sublayer endpoint; present iff the fabric runs
    /// over a lossy wire. With the default perfect wire this is `None`
    /// and frames take the original direct path.
    net: Option<NetEndpoint>,
    engine: MatchEngine,
    /// Receives completed by a drain while their owner was waiting on a
    /// different request.
    completed: HashMap<RecvId, Message>,
    /// Per-destination send sequence numbers (diagnostics / ordering).
    send_seq: Vec<u64>,
    /// Total operations issued through this handle (used by failure
    /// injection layers to trigger deterministic fail-stops).
    ops: u64,
    /// Local hint for the next free communicator context id; new contexts
    /// are agreed collectively as `max(hints) + 0` across participants.
    pub(crate) next_ctx_hint: u32,
    /// Flight recorder of a supervised job: every consumed message is
    /// taped so a dead rank can be respawned by deterministic replay.
    /// `None` (the default) keeps the hot path untouched.
    recorder: Option<Arc<FlightRecorder>>,
    /// Observations so far (receive posts, probes, tests, `waitany`
    /// calls): the replay clock. Two probes may share an operation count
    /// yet differ in what they saw; they never share an observation.
    polls: u64,
    /// Observation at which each engine-resident message was first
    /// matched or probed, keyed by `(sender world rank, sender-assigned
    /// seq)` — its replay release point. Kept only while a recorder is
    /// attached.
    seen: HashMap<(usize, u64), u64>,
    /// Set when a liveness check fails while blocked in a wait: the one
    /// death whose successor must go live inside that same observation.
    died_blocked: bool,
    /// Catch-up replay state of a respawned incarnation; `None` once the
    /// tape is exhausted (or on every ordinary incarnation).
    replay: Option<ReplayState>,
    /// Per-destination frame counts actually transmitted by this
    /// incarnation, keyed by `(context, tag)`. Cheap bookkeeping that
    /// becomes the successor's suppression budget if this incarnation
    /// dies: within one `(context, tag)` class the send order is
    /// deterministic under re-execution even when classes interleave
    /// differently (control pumps may consume peers' messages at
    /// slightly different points), so class-wise counting is the
    /// finest sound unit of duplicate suppression.
    class_sent: Vec<HashMap<(u32, i32), u64>>,
    /// Remaining re-executed sends to squelch, per destination and
    /// `(context, tag)` class: the dead incarnation's `class_sent`.
    /// The survivors already hold (or will receive, via the resurrected
    /// endpoint) those frames. Empty on an ordinary incarnation.
    suppress_budget: Vec<HashMap<(u32, i32), u64>>,
    /// Re-executed sends squelched so far.
    suppressed_sends: u64,
    /// Messages the replay tape held at respawn.
    replayed_frames: u64,
    /// Which incarnation of this rank this handle is (0 = original).
    incarnation: u32,
    /// Set when the replay tape exhausts; consumed once by the layer
    /// above to note the catch-up completion.
    caught_up_pending: bool,
    /// Pre-registered metric handles; `None` until a registry is
    /// attached, which keeps the un-observed hot path at one branch.
    #[cfg(feature = "obs")]
    obs: Option<crate::obs::MpiObs>,
}

/// Catch-up state of a respawned incarnation: the dead incarnation's
/// consumed-message tape plus live frames held back until the tape is
/// exhausted (they arrived after the death, so the original never saw
/// them; releasing them early would perturb replay determinism).
struct ReplayState {
    tape: VecDeque<TapeEntry>,
    held: VecDeque<Message>,
    /// The dead incarnation's fed-but-unconsumed messages: physically
    /// arrived before the death, never observed by the original, so
    /// they go live together (ahead of the held frames, preserving
    /// per-sender arrival order) once the tape is exhausted.
    undelivered: Vec<Message>,
    /// True while a released tape entry has not yet been consumed.
    /// Entries are released strictly one at a time, in tape order:
    /// consumption order is the only total order the original run
    /// defines, and a wait may consume between two observations.
    outstanding: bool,
    /// The dead incarnation's last observation: catch-up ends only once
    /// the tape is exhausted *and* re-execution has passed it (or, if
    /// the predecessor died blocked in a wait, blocks at it).
    until_poll: u64,
    until_blocked: bool,
}

impl Mpi {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        fabric: Fabric,
        inbox: Receiver<Frame>,
    ) -> Self {
        let net = fabric
            .net_cond()
            .map(|c| NetEndpoint::new(rank, size, c.retransmit.clone()));
        Mpi {
            rank,
            size,
            world: crate::world::world_comm(rank, size),
            fabric,
            inbox,
            net,
            engine: MatchEngine::new(),
            completed: HashMap::new(),
            send_seq: vec![0; size],
            ops: 0,
            next_ctx_hint: crate::comm::WORLD_CONTEXT + 1,
            recorder: None,
            polls: 0,
            seen: HashMap::new(),
            died_blocked: false,
            replay: None,
            class_sent: vec![HashMap::new(); size],
            suppress_budget: vec![HashMap::new(); size],
            suppressed_sends: 0,
            replayed_frames: 0,
            incarnation: 0,
            caught_up_pending: false,
            #[cfg(feature = "obs")]
            obs: None,
        }
    }

    /// Tape every consumed message into `rec` (supervised jobs only).
    pub(crate) fn attach_recorder(&mut self, rec: Arc<FlightRecorder>) {
        self.recorder = Some(rec);
    }

    /// Extract what this dying incarnation leaves for its successor: the
    /// per-class transmitted-frame counts, the reliable-delivery
    /// endpoint, and the mailbox itself (the fabric's channels are
    /// single-consumer, so the successor must inherit the receiver or
    /// lose every frame queued during the death window).
    pub(crate) fn export_stash(&mut self) -> DeathStash {
        // Swap in a disconnected dummy; this handle issues no further
        // receives (the rank function already unwound with `FailStop`).
        let (_tx, dummy) = crossbeam::channel::unbounded();
        // Fed-but-unconsumed traffic: matched-but-unclaimed receives
        // first (RecvId order = per-class match order), then the
        // unexpected queue in arrival order. Within a (src, context,
        // tag) class every matched message arrived before every still
        // unexpected one, so this concatenation preserves the only
        // ordering the matching engine guarantees.
        let mut matched: Vec<(RecvId, Message)> =
            self.completed.drain().collect();
        matched.sort_unstable_by_key(|(id, _)| *id);
        let mut undelivered: Vec<Message> =
            matched.into_iter().map(|(_, m)| m).collect();
        undelivered.extend(self.engine.drain_unexpected());
        self.seen.clear();
        DeathStash {
            class_sent: self.class_sent.clone(),
            net: self.net.take(),
            inbox: Some(std::mem::replace(&mut self.inbox, dummy)),
            undelivered,
            polls: self.polls,
            blocked: self.died_blocked,
        }
    }

    /// Turn a freshly built handle into respawned incarnation
    /// `incarnation` of its rank: squelch re-executed sends up to the
    /// dead incarnation's per-class transmitted counts, resurrect the
    /// wire endpoint, and arm the consumed-message tape for op-faithful
    /// replay.
    pub(crate) fn configure_respawn(
        &mut self,
        incarnation: u32,
        stash: DeathStash,
        tape: VecDeque<TapeEntry>,
    ) {
        self.incarnation = incarnation;
        self.suppress_budget = stash.class_sent;
        if let Some(ep) = stash.net {
            self.net = Some(ep);
        }
        self.replayed_frames = tape.len() as u64;
        self.replay = Some(ReplayState {
            tape,
            held: VecDeque::new(),
            undelivered: stash.undelivered,
            outstanding: false,
            until_poll: stash.polls,
            until_blocked: stash.blocked,
        });
    }

    /// Attach an observability registry: registers this rank's metric
    /// handle bundle (and the reliable-delivery sublayer's, when the
    /// wire is lossy). Metrics record into the registry from this call
    /// on; without it every hook is a single `Option` check.
    #[cfg(feature = "obs")]
    pub fn attach_obs(&mut self, reg: &c3obs::Registry) {
        self.obs = Some(crate::obs::MpiObs::register(reg, self.rank));
        if let Some(ep) = self.net.as_mut() {
            ep.attach_obs(crate::obs::NetObs::register(reg, self.rank));
        }
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// A handle to the world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// The job control block (abort / fail-stop flags).
    pub fn control(&self) -> &JobControl {
        self.fabric.control()
    }

    /// Number of operations issued so far through this handle.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Check the stopping-failure and abort flags; every operation calls
    /// this first so a failed rank goes silent at its next MPI call.
    fn liveness(&self) -> MpiResult<()> {
        let control = self.fabric.control();
        if control.is_failed(self.rank) {
            return Err(MpiError::FailStop);
        }
        if control.is_aborted() {
            return Err(MpiError::Aborted);
        }
        Ok(())
    }

    /// Note that the caller has just observed the message `key` (a
    /// probe returned it or a receive matched it), when a recorder is
    /// attached: its first observation is its replay release point.
    fn note_seen(&mut self, key: (usize, u64)) {
        if self.recorder.is_some() {
            self.seen.entry(key).or_insert(self.polls);
        }
    }

    /// Hand one message to the matching engine.
    fn feed(&mut self, msg: Message) {
        #[cfg(feature = "obs")]
        if let Some(o) = self.obs.as_mut() {
            o.note_delivered();
        }
        if let Some((id, msg)) = self.engine.deliver(msg) {
            self.note_seen((msg.src, msg.seq));
            self.completed.insert(id, msg);
        }
    }

    /// Tape one message at the moment it is handed to the caller, with
    /// the observation that first saw it as its release point. Taping at
    /// consumption rather than at feed keeps polled consumption
    /// order-faithful under replay: a message the original fed but never
    /// polled must not be consumed mid-replay at a point the original
    /// never reached. Releasing at the first observation that saw it
    /// (not merely at the operation count) keeps two probes of one
    /// operation apart: a message the first missed stays invisible to
    /// it under replay too.
    fn record_consumed(&mut self, msg: &Message) {
        let seen = self.seen.remove(&(msg.src, msg.seq));
        if let Some(rec) = &self.recorder {
            rec.record(self.rank, seen.unwrap_or(self.polls), msg);
        }
        // During catch-up every consumable message came off the tape
        // (live frames are held, the undelivered stash waits for the
        // end), so this consumption clears the way for the next entry.
        if let Some(rp) = self.replay.as_mut() {
            rp.outstanding = false;
        }
    }

    /// Route one frame from the mailbox: direct frames go straight to the
    /// matching engine; sublayer frames pass through the reliable-delivery
    /// endpoint, which may emit zero or more messages in wire order.
    /// During a respawned incarnation's catch-up, live frames are held
    /// back instead (they post-date everything on the replay tape).
    fn dispatch(&mut self, frame: Frame) {
        if let Frame::Wake = frame {
            return;
        }
        if self.replay.is_some() {
            self.hold_frame(frame);
            return;
        }
        match frame {
            Frame::Direct(msg) => self.feed(msg),
            other => {
                let msgs = match self.net.as_mut() {
                    Some(ep) => {
                        ep.on_frame(&self.fabric, other, Instant::now())
                    }
                    // Sublayer frames cannot arrive on a perfect-wire
                    // fabric; drop defensively.
                    None => Vec::new(),
                };
                for m in msgs {
                    self.feed(m);
                }
            }
        }
    }

    /// Park one live frame behind the replay tape. Sublayer frames still
    /// pass through the resurrected endpoint so duplicates are dropped
    /// and acks flow (peers stop retransmitting into the catch-up).
    fn hold_frame(&mut self, frame: Frame) {
        debug_assert!(self.replay.is_some(), "hold_frame outside catch-up");
        let Some(mut rp) = self.replay.take() else {
            return;
        };
        match frame {
            Frame::Direct(msg) => rp.held.push_back(msg),
            other => {
                if let Some(ep) = self.net.as_mut() {
                    rp.held.extend(ep.on_frame(
                        &self.fabric,
                        other,
                        Instant::now(),
                    ));
                }
            }
        }
        self.replay = Some(rp);
    }

    /// Move every frame waiting in the mailbox into the matching engine,
    /// after driving the reliable-delivery sublayer's timers (held-frame
    /// release and retransmission; no-op on the perfect wire). A
    /// respawned incarnation in catch-up instead releases the tape entry
    /// due at the current observation and holds live frames back.
    fn drain(&mut self) -> MpiResult<()> {
        if let Some(ep) = self.net.as_mut() {
            ep.poll(&self.fabric, Instant::now())?;
        }
        if self.replay.is_some() {
            self.replay_step();
            return Ok(());
        }
        while let Ok(frame) = self.inbox.try_recv() {
            self.dispatch(frame);
        }
        Ok(())
    }

    /// One catch-up round: absorb live frames into the hold queue (still
    /// acking through the resurrected endpoint so peers stop
    /// retransmitting), release the next tape entry once its observation
    /// has been reached, and go live once the tape is exhausted and
    /// re-execution has passed the predecessor's last observation.
    fn replay_step(&mut self) {
        while let Ok(frame) = self.inbox.try_recv() {
            self.hold_frame(frame);
        }
        let Some(mut rp) = self.replay.take() else {
            return;
        };
        if !rp.outstanding {
            match rp.tape.pop_front() {
                Some((at, msg)) if at <= self.polls => {
                    rp.outstanding = true;
                    self.feed(msg);
                }
                Some(entry) => rp.tape.push_front(entry),
                None => {}
            }
        }
        if rp.tape.is_empty() && self.polls > rp.until_poll {
            self.go_live(rp);
        } else {
            self.replay = Some(rp);
        }
    }

    /// End catch-up: release the predecessor's fed-but-unconsumed
    /// messages (they physically arrived before the death), then the
    /// held live traffic (it post-dates them, so per-sender FIFO is
    /// preserved), and rejoin the ordinary delivery path.
    fn go_live(&mut self, rp: ReplayState) {
        for msg in rp.undelivered.into_iter().chain(rp.held) {
            self.feed(msg);
        }
        self.caught_up_pending = true;
    }

    /// Block until a frame or a wake lands in the mailbox, or the
    /// reliable-delivery sublayer's next timer falls due (never, on the
    /// perfect wire), then dispatch what arrived. Every blocking call
    /// waits here. Liveness is checked first: `abort`/`fail_rank` store
    /// their flag before pushing the wake, so no wake is lost.
    fn block(&mut self) -> MpiResult<()> {
        if let Err(e) = self.liveness() {
            self.died_blocked = true;
            return Err(e);
        }
        if let Some(rp) = self.replay.take() {
            // A predecessor that died blocked here never got what this
            // wait needs: only live traffic can end it.
            if rp.tape.is_empty()
                && rp.until_blocked
                && self.polls >= rp.until_poll
            {
                self.go_live(rp);
                return Ok(());
            }
            self.replay = Some(rp);
        }
        let due = self.net.as_ref().and_then(|ep| ep.next_due(&self.fabric));
        let frame = match due {
            None => self
                .inbox
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => self.inbox.recv_deadline(at),
        };
        match frame {
            Ok(frame) => self.dispatch(frame),
            Err(RecvTimeoutError::Timeout) => {}
            // The fabric and the control block hold a sender for every
            // rank, so this cannot happen while `self` is alive; treat
            // defensively as an abort.
            Err(RecvTimeoutError::Disconnected) => {
                return Err(MpiError::Aborted)
            }
        }
        Ok(())
    }

    /// Linger until every frame this rank sent has been acknowledged (or
    /// written off to dead/departed peers). Called by the job runner after
    /// the rank function returns; immediate on the perfect wire.
    pub(crate) fn net_flush(&mut self) -> MpiResult<()> {
        if self.net.is_none() {
            return Ok(());
        }
        loop {
            self.drain()?;
            if self.net.as_ref().is_none_or(NetEndpoint::all_acked) {
                return Ok(());
            }
            match self.block() {
                // Every rank is rolling back, or this one is dead:
                // undelivered frames die with it.
                Err(MpiError::Aborted | MpiError::FailStop) => return Ok(()),
                other => other?,
            }
        }
    }

    /// Counters of the reliable-delivery sublayer and this rank's outgoing
    /// wire links. All zero on the perfect wire.
    pub fn net_stats(&self) -> NetStats {
        match &self.net {
            None => NetStats::default(),
            Some(ep) => {
                let mut s = ep.stats();
                s.wire = self.fabric.wire_stats_for(self.rank);
                s
            }
        }
    }

    fn resolve_dst(comm: &Comm, dst: usize) -> MpiResult<usize> {
        comm.world_rank(dst)
    }

    fn resolve_src(comm: &Comm, src: usize) -> MpiResult<Option<usize>> {
        if src == ANY_SOURCE {
            Ok(None)
        } else {
            comm.world_rank(src).map(Some)
        }
    }

    fn resolve_tag(tag: i32) -> Option<i32> {
        if tag == ANY_TAG {
            None
        } else {
            Some(tag)
        }
    }

    fn plane_context(comm: &Comm, plane: Plane) -> u32 {
        match plane {
            Plane::P2p => comm.context(),
            Plane::Coll => comm.coll_context(),
        }
    }

    fn recv_msg(comm: &Comm, msg: Message) -> RecvMsg {
        // Translate the sender's world rank into the communicator's frame;
        // a message can only arrive here through this communicator's
        // context, so the sender is always a member.
        let src = comm
            .comm_rank_of_world(msg.src)
            .expect("sender must be a communicator member");
        RecvMsg {
            src,
            tag: msg.tag,
            header: msg.header,
            payload: msg.payload,
        }
    }

    // ------------------------------------------------------------------
    // Internal (plane-aware) operations; collectives use the Coll plane.
    // ------------------------------------------------------------------

    pub(crate) fn send_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_segments_on(
            comm,
            plane,
            dst,
            tag,
            HeaderBytes::empty(),
            payload,
        )
    }

    pub(crate) fn send_segments_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        dst: usize,
        tag: i32,
        header: HeaderBytes,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.liveness()?;
        self.ops += 1;
        let dst_world = Self::resolve_dst(comm, dst)?;
        let context = Self::plane_context(comm, plane);
        let seq = self.send_seq[dst_world];
        self.send_seq[dst_world] += 1;
        if let Some(budget) =
            self.suppress_budget[dst_world].get_mut(&(context, tag))
        {
            if *budget > 0 {
                // Re-executed send of a respawned incarnation: the dead
                // incarnation already transmitted this class's next
                // frame, so the destination holds (or will receive, via
                // the resurrected endpoint's retransmission buffer) the
                // original. Spend the class budget and squelch the
                // duplicate. Budgets are per (destination, context, tag)
                // rather than a flat per-destination frame count: replay
                // may interleave control and application traffic
                // differently than the original run did, and a flat
                // count would then spend suppression slots on the wrong
                // frames and let duplicates through.
                *budget -= 1;
                self.suppressed_sends += 1;
                return Ok(());
            }
        }
        *self.class_sent[dst_world]
            .entry((context, tag))
            .or_insert(0) += 1;
        #[cfg(feature = "obs")]
        let timer = self
            .obs
            .as_mut()
            .and_then(|o| o.note_send((header.len() + payload.len()) as u64));
        let msg = Message {
            src: self.rank,
            dst: dst_world,
            context,
            tag,
            header,
            payload,
            seq,
        };
        let res = match self.net.as_mut() {
            None => self.fabric.send(msg),
            Some(ep) => ep.send(&self.fabric, msg, Instant::now()),
        };
        #[cfg(feature = "obs")]
        if let (Some(o), Some(t)) = (&self.obs, timer) {
            o.send_ns.record(t.elapsed_ns());
        }
        res
    }

    pub(crate) fn irecv_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        src: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.liveness()?;
        self.ops += 1;
        self.polls += 1;
        let src_world = Self::resolve_src(comm, src)?;
        let tag = Self::resolve_tag(tag);
        self.drain()?;
        let context = Self::plane_context(comm, plane);
        match self.engine.post(src_world, context, tag) {
            PostOutcome::Matched(msg) => {
                self.note_seen((msg.src, msg.seq));
                self.record_consumed(&msg);
                Ok(Request::recv_ready(self.rank, Self::recv_msg(comm, msg)))
            }
            PostOutcome::Pending(id) => {
                Ok(Request::recv_pending(self.rank, id))
            }
        }
    }

    pub(crate) fn recv_on(
        &mut self,
        comm: &Comm,
        plane: Plane,
        src: usize,
        tag: i32,
    ) -> MpiResult<RecvMsg> {
        let mut req = self.irecv_on(comm, plane, src, tag)?;
        self.wait_recv_in(comm, &mut req)
    }

    fn wait_recv_in(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<RecvMsg> {
        match self.wait_in(comm, req)? {
            Some(msg) => Ok(msg),
            None => Err(MpiError::BadRequest(
                "wait_recv called on a send request".into(),
            )),
        }
    }

    fn wait_in(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<Option<RecvMsg>> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(format!(
                "request owned by rank {} waited on by rank {}",
                req.owner, self.rank
            )));
        }
        // Sampled matching + blocking-wait latency; armed once so the
        // retry loop below does not re-roll the sampling decision.
        #[cfg(feature = "obs")]
        let timer = self
            .obs
            .as_mut()
            .and_then(crate::obs::MpiObs::sampled_timer);
        loop {
            match std::mem::replace(&mut req.state, ReqState::Consumed) {
                ReqState::SendDone => return Ok(None),
                ReqState::RecvReady(msg) => return Ok(Some(msg)),
                ReqState::Consumed => {
                    return Err(MpiError::BadRequest(
                        "request waited on twice".into(),
                    ))
                }
                ReqState::RecvPending(id) => {
                    if let Some(msg) = self.completed.remove(&id) {
                        self.record_consumed(&msg);
                        #[cfg(feature = "obs")]
                        if let (Some(o), Some(t)) = (&self.obs, timer) {
                            o.recv_wait_ns.record(t.elapsed_ns());
                        }
                        return Ok(Some(Self::recv_msg(comm, msg)));
                    }
                    // Not complete: restore state and block for traffic.
                    req.state = ReqState::RecvPending(id);
                    // A full drain (not just a net poll): a respawned
                    // incarnation's completion may come off the replay
                    // tape, which only the drain path releases.
                    self.drain()?;
                    if !self.completed.contains_key(&id) {
                        self.block()?;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Public point-to-point API (application plane).
    // ------------------------------------------------------------------

    /// Blocking send of a byte payload to `dst` (a communicator rank).
    ///
    /// Sends buffer in the transport and complete immediately, like a
    /// buffered-mode MPI send on a machine with ample memory.
    pub fn send(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> MpiResult<()> {
        self.send_on(
            comm,
            Plane::P2p,
            dst,
            tag,
            Bytes::copy_from_slice(payload),
        )
    }

    /// Blocking send of an owned payload (zero-copy).
    pub fn send_bytes(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_on(comm, Plane::P2p, dst, tag, payload)
    }

    /// Blocking vectored send: a small inline header segment plus an
    /// owned payload, shipped as one two-segment frame. Neither segment
    /// is copied into a combined buffer; the receiver sees them as
    /// [`RecvMsg::header`] and [`RecvMsg::payload`]. This is the
    /// protocol layer's O(header)-cost send primitive.
    pub fn send_parts(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        header: HeaderBytes,
        payload: Bytes,
    ) -> MpiResult<()> {
        self.send_segments_on(comm, Plane::P2p, dst, tag, header, payload)
    }

    /// Blocking typed send.
    pub fn send_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        data: &[T],
    ) -> MpiResult<()> {
        self.send_bytes(comm, dst, tag, T::slice_to_bytes(data).into())
    }

    /// Non-blocking send; complete with [`Mpi::wait`].
    pub fn isend(
        &mut self,
        comm: &Comm,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> MpiResult<Request> {
        self.send_on(
            comm,
            Plane::P2p,
            dst,
            tag,
            Bytes::copy_from_slice(payload),
        )?;
        Ok(Request::send_done(self.rank))
    }

    /// Non-blocking receive; complete with [`Mpi::wait`] or
    /// [`Mpi::wait_recv`]. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`].
    pub fn irecv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Request> {
        self.irecv_on(comm, Plane::P2p, src, tag)
    }

    /// Blocking receive.
    pub fn recv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<RecvMsg> {
        self.recv_on(comm, Plane::P2p, src, tag)
    }

    /// Blocking typed receive.
    pub fn recv_t<T: MpiType>(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Vec<T>> {
        self.recv(comm, src, tag)?.to_vec()
    }

    /// Complete a request. Returns `Some` message for receives, `None` for
    /// sends. The request must belong to `comm`'s rank frame (i.e. have
    /// been created through operations on `comm`).
    pub fn wait(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<Option<RecvMsg>> {
        self.wait_in(comm, req)
    }

    /// Complete a receive request, erroring on send requests.
    pub fn wait_recv(
        &mut self,
        comm: &Comm,
        req: &mut Request,
    ) -> MpiResult<RecvMsg> {
        self.wait_recv_in(comm, req)
    }

    /// Non-blocking completion check. After `test` returns `true`, `wait`
    /// will not block.
    pub fn test(&mut self, req: &mut Request) -> MpiResult<bool> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(
                "request tested by a different rank".into(),
            ));
        }
        self.liveness()?;
        self.polls += 1;
        self.drain()?;
        match &req.state {
            ReqState::SendDone | ReqState::RecvReady(_) => Ok(true),
            ReqState::Consumed => Err(MpiError::BadRequest(
                "request tested after completion".into(),
            )),
            ReqState::RecvPending(id) => Ok(self.completed.contains_key(id)),
        }
    }

    /// Complete all requests, in order. Returns one entry per request.
    pub fn waitall(
        &mut self,
        comm: &Comm,
        reqs: &mut [Request],
    ) -> MpiResult<Vec<Option<RecvMsg>>> {
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs.iter_mut() {
            out.push(self.wait_in(comm, req)?);
        }
        Ok(out)
    }

    /// Complete any one not-yet-consumed request; returns its index and
    /// result. Errors if every request is already consumed.
    pub fn waitany(
        &mut self,
        comm: &Comm,
        reqs: &mut [Request],
    ) -> MpiResult<(usize, Option<RecvMsg>)> {
        self.liveness()?;
        self.polls += 1;
        loop {
            self.drain()?;
            let mut any_live = false;
            for (i, req) in reqs.iter_mut().enumerate() {
                match &req.state {
                    ReqState::Consumed => continue,
                    ReqState::SendDone | ReqState::RecvReady(_) => {
                        let r = self.wait_in(comm, req)?;
                        return Ok((i, r));
                    }
                    ReqState::RecvPending(id) => {
                        any_live = true;
                        if self.completed.contains_key(id) {
                            let r = self.wait_in(comm, req)?;
                            return Ok((i, r));
                        }
                    }
                }
            }
            if !any_live {
                return Err(MpiError::BadRequest(
                    "waitany with no live requests".into(),
                ));
            }
            self.block()?;
        }
    }

    /// Abandon a pending receive request (the `MPI_Cancel` analogue).
    pub fn cancel(&mut self, req: &mut Request) -> MpiResult<()> {
        if req.owner != self.rank {
            return Err(MpiError::BadRequest(
                "request cancelled by a different rank".into(),
            ));
        }
        if let ReqState::RecvPending(id) =
            std::mem::replace(&mut req.state, ReqState::Consumed)
        {
            if !self.engine.cancel(id) {
                // Discarded without reaching the caller: not taped (the
                // re-execution cancels identically), but drop the
                // feed-op bookkeeping.
                if let Some(m) = self.completed.remove(&id) {
                    self.seen.remove(&(m.src, m.seq));
                }
            }
        }
        Ok(())
    }

    /// Combined send + receive (the `MPI_Sendrecv` analogue); deadlock-free
    /// for neighbor exchanges because the receive is posted first.
    pub fn sendrecv(
        &mut self,
        comm: &Comm,
        dst: usize,
        send_tag: i32,
        payload: &[u8],
        src: usize,
        recv_tag: i32,
    ) -> MpiResult<RecvMsg> {
        let mut req = self.irecv(comm, src, recv_tag)?;
        self.send(comm, dst, send_tag, payload)?;
        self.wait_recv(comm, &mut req)
    }

    /// Non-destructive check for a matching unexpected message; returns
    /// `(comm_src, tag, total_len)` where `total_len` counts the header
    /// segment plus the payload.
    pub fn iprobe(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: i32,
    ) -> MpiResult<Option<(usize, i32, usize)>> {
        self.liveness()?;
        self.polls += 1;
        #[cfg(feature = "obs")]
        if let Some(o) = self.obs.as_mut() {
            o.note_probe();
        }
        self.drain()?;
        let src_world = Self::resolve_src(comm, src)?;
        let tag = Self::resolve_tag(tag);
        let Some(m) = self.engine.probe(src_world, comm.context(), tag) else {
            return Ok(None);
        };
        let s = comm
            .comm_rank_of_world(m.src)
            .expect("sender must be a member");
        let (key, found) =
            ((m.src, m.seq), (s, m.tag, m.header.len() + m.payload.len()));
        self.note_seen(key);
        Ok(Some(found))
    }

    // ------------------------------------------------------------------
    // Splice introspection (online rank substitution).
    // ------------------------------------------------------------------

    /// Which incarnation of its rank this handle is: 0 for an ordinary
    /// rank, `k` for the `k`-th respawn spliced in by a supervised run.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Messages the replay tape held when this incarnation was respawned
    /// (0 on ordinary incarnations).
    pub fn replayed_frames(&self) -> u64 {
        self.replayed_frames
    }

    /// Re-executed sends squelched below the death-time sequence
    /// high-water so far.
    pub fn suppressed_sends(&self) -> u64 {
        self.suppressed_sends
    }

    /// One-shot catch-up completion signal: returns true exactly once,
    /// when the replay tape has been exhausted and the incarnation has
    /// gone live on the real fabric. The protocol layer uses this to
    /// trace the splice completion.
    pub fn take_caught_up(&mut self) -> bool {
        std::mem::take(&mut self.caught_up_pending)
    }
}
