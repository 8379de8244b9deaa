//! The per-rank protocol layer (Figure 4 plus Sections 4.5 and 5.2).
//!
//! [`Process`] wraps a rank's [`simmpi::Mpi`] handle and intercepts every
//! communication call, exactly like the C³ protocol layer sits between the
//! application and the MPI library (Figure 2):
//!
//! * **sends** get the piggybacked control word prepended and are counted;
//!   during recovery, re-sends of recorded early messages are suppressed;
//! * **receives** strip and interpret the control word, classify the
//!   message (late / intra-epoch / early), feed the logs and counters, and
//!   during recovery are satisfied from the late-message log first;
//! * **collectives** are preceded by a control collective that exchanges
//!   `(epoch, amLogging)` words (the conjunction rule of Section 4.5);
//!   results are logged while logging and replayed during recovery;
//!   `barrier` additionally aligns epochs by forcing lagging ranks to
//!   checkpoint first;
//! * **control messages** (`pleaseCheckpoint`, `mySendCount`,
//!   `readyToStopLogging`, `stopLogging`, `stoppedLogging`,
//!   `RecoveryComplete`) are drained opportunistically at every intercepted
//!   call — the layer gets control whenever the application touches MPI;
//! * **`potential_checkpoint`** implements Figure 4's local-checkpoint
//!   step: snapshot to stable storage, epoch increment, `mySendCount`
//!   announcements, counter rotation, log opening.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use bytes::Bytes;
use ckptpipe::CheckpointPipeline;
use ckptstore::codec::{Decoder, Encoder};
use ckptstore::{CheckpointStore, RankBlobKind, SaveLoad};
use simmpi::{Comm, HeaderBytes, Mpi, MpiError, RecvMsg, ANY_SOURCE, ANY_TAG};
use statesave::snapshot::{restore_from_bytes, snapshot_to_bytes, SaveState};

use crate::config::{C3Config, CheckpointTrigger};
use crate::control::{ControlMsg, SuppressList, CONTROL_TAG, SUPPRESS_TAG};
use crate::counters::ChannelCounters;
use crate::epoch::{classify_by_color, classify_by_epoch, Color, MsgClass};
use crate::error::{C3Error, C3Result};
use crate::initiator::{Action, Initiator};
use crate::logrec::{LateMessage, RecoveryLog};
use crate::pending::{
    CommHandle, PendingKind, PendingTable, PersistentCall, PersistentJournal,
    ReqHandle,
};
use crate::piggyback::{decode_header, DecodedHeader, Piggyback};
use crate::recovery::{RankCheckpoint, Replay};
use crate::rng::NondetSource;
use crate::trace::{control_code, phase_code, RankTracer, TraceEvent};

/// Pseudo-handle for a non-blocking operation issued through the protocol
/// layer (the Section 5.2 indirection over `MPI_Request`).
#[derive(Debug)]
pub struct C3Request(ReqHandle);

impl C3Request {
    /// The raw pseudo-handle value. Stable across checkpoints: an
    /// application may store it in its checkpointed state and complete the
    /// request after a restart with [`Process::wait_raw`] — the paper's
    /// "pseudo-handle reinitialization" usage (Section 5.2), needed when a
    /// non-blocking request deliberately straddles a
    /// `potential_checkpoint` site.
    pub fn raw(&self) -> ReqHandle {
        self.0
    }
}

/// Per-rank statistics, reported by the job driver.
///
/// Marked `#[non_exhaustive]`: construct with [`ProcStats::default`] and
/// update fields individually, so adding a counter is never a breaking
/// change for downstream crates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProcStats {
    /// Local checkpoints taken.
    pub checkpoints: u64,
    /// Late messages logged.
    pub late_logged: u64,
    /// Early message ids recorded.
    pub early_recorded: u64,
    /// Re-sends suppressed during recovery.
    pub suppressed_sends: u64,
    /// Non-deterministic draws logged.
    pub nondet_logged: u64,
    /// Collective results logged.
    pub collectives_logged: u64,
    /// Late messages replayed from the log.
    pub late_replayed: u64,
    /// Collective results replayed from the log.
    pub collectives_replayed: u64,
    /// Application state bytes written across all checkpoints.
    pub app_state_bytes: u64,
    /// Data frames retransmitted by the reliable-delivery sublayer (zero
    /// on the perfect wire).
    pub net_retransmits: u64,
    /// Duplicate data frames received and discarded by the sublayer.
    pub net_dup_delivered: u64,
    /// Frames the lossy wire dropped on this rank's outgoing links.
    pub net_wire_dropped: u64,
    /// Frames the lossy wire duplicated on this rank's outgoing links.
    pub net_wire_duplicated: u64,
    /// Frames the lossy wire held back (reorder + delay) on this rank's
    /// outgoing links.
    pub net_wire_held: u64,
    /// Application payload bytes the *protocol layer* copied on the
    /// message path. The ingress copy from a borrowed `&[u8]` into a
    /// refcounted buffer is not counted — raw simmpi pays it identically.
    /// Pinned at zero by the zero-copy send/receive path; the
    /// `zero_copy` regression test asserts it. Any change that
    /// reintroduces a payload copy must account for it here.
    pub payload_bytes_copied: u64,
    /// Heap allocations the protocol layer performed per message on the
    /// send path (header buffers, concatenation buffers). Pinned at zero
    /// by the inline header segment; see [`ProcStats::payload_bytes_copied`].
    pub allocs_on_send_path: u64,
}

/// A communicator pair: the application-visible communicator plus its
/// shadow control communicator (for the pre-collective control exchange).
struct CommPair {
    app: Comm,
    ctrl: Comm,
}

/// The protocol layer for one rank.
pub struct Process<'a> {
    mpi: &'a mut Mpi,
    cfg: C3Config,
    /// Checkpoint I/O pipeline; rank blobs are staged here and made
    /// durable by [`CheckpointPipeline::drain`] before the initiator
    /// commits. The store below is the same one the pipeline writes to.
    pipeline: Option<CheckpointPipeline>,
    store: Option<CheckpointStore>,
    comms: Vec<CommPair>,

    // --- Figure 4 per-process state ---
    epoch: u32,
    am_logging: bool,
    next_message_id: u32,
    /// Pending `pleaseCheckpoint(ckpt)` not yet honored.
    checkpoint_requested: Option<u64>,
    counters: ChannelCounters,
    early_ids: Vec<Vec<u32>>,
    log: RecoveryLog,
    ready_sent: bool,

    // --- Section 5.2 state ---
    pending: PendingTable,
    live_reqs: HashMap<ReqHandle, simmpi::Request>,
    journal: PersistentJournal,
    /// Comm-handle produced by each journal entry (`None` = split opt-out),
    /// parallel to `journal.calls()`.
    journal_handles: Vec<Option<usize>>,
    /// Next journal entry a re-executed creation call must match; equals
    /// `journal.len()` outside of post-recovery re-execution.
    journal_cursor: usize,

    // --- recovery ---
    replay: Option<Replay>,
    /// Per destination: message ids (current epoch) whose re-send must be
    /// dropped.
    suppress: Vec<HashSet<u32>>,
    recovery_reported: bool,
    recovered_app_state: Option<Vec<u8>>,

    // --- coordination ---
    initiator: Option<Initiator>,
    tracer: Option<RankTracer>,
    #[cfg(feature = "obs")]
    obs: Option<crate::obs::ProcObs>,
    nondet: NondetSource,
    attempt: u64,
    ops: u64,
    last_trigger_op: u64,
    last_trigger_time: Instant,
    stats: ProcStats,
}

impl<'a> Process<'a> {
    /// Build the protocol layer for this rank.
    ///
    /// `recover_from` names the committed global checkpoint to restart
    /// from, or `None` for a fresh start; the job driver reads it once per
    /// attempt so all ranks agree. `attempt` seeds the (genuinely
    /// non-deterministic) [`Process::nondet_u64`] stream.
    ///
    /// Construction is collective when piggybacking is on: the shadow
    /// control communicator is created, the persistent-object journal is
    /// replayed, and the recovery suppression exchange runs.
    pub fn new(
        mpi: &'a mut Mpi,
        cfg: C3Config,
        pipeline: Option<CheckpointPipeline>,
        attempt: u64,
        recover_from: Option<u64>,
    ) -> C3Result<Self> {
        let n = mpi.size();
        let rank = mpi.rank();
        if cfg.level.checkpoints() && pipeline.is_none() {
            return Err(C3Error::Protocol(
                "checkpointing instrumentation requires an I/O pipeline"
                    .into(),
            ));
        }
        let store = pipeline.as_ref().map(|p| p.store().clone());
        let world = mpi.world();
        let ctrl = if cfg.level.piggybacks() {
            mpi.comm_dup(&world)?
        } else {
            world.clone()
        };
        let now = Instant::now();
        let initiator = (rank == 0 && cfg.level.checkpoints()).then(|| {
            Initiator::new(
                n,
                recover_from.map_or(1, |c| c + 1),
                recover_from.is_some(),
            )
        });
        // A respawned incarnation (localized recovery) gets its own
        // trace stream: the superseded incarnation's events stay in the
        // sink and the analyzer selects the highest incarnation per
        // (rank, attempt) as the effective history.
        let incarnation = mpi.incarnation();
        let tracer = cfg
            .trace
            .as_ref()
            .map(|s| s.for_incarnation(rank as u32, attempt, incarnation));
        #[cfg(feature = "obs")]
        let obs = cfg.obs.as_ref().map(|reg| {
            mpi.attach_obs(reg);
            let o = crate::obs::ProcObs::register(reg, rank as u32);
            if rank == 0 {
                o.attempts.inc();
            }
            o
        });
        let mut p = Process {
            mpi,
            cfg,
            pipeline,
            store,
            comms: vec![CommPair { app: world, ctrl }],
            epoch: 0,
            am_logging: false,
            next_message_id: 0,
            checkpoint_requested: None,
            counters: ChannelCounters::new(n),
            early_ids: vec![Vec::new(); n],
            log: RecoveryLog::new(),
            ready_sent: false,
            pending: PendingTable::new(),
            live_reqs: HashMap::new(),
            journal: PersistentJournal::new(),
            journal_handles: Vec::new(),
            journal_cursor: 0,
            replay: None,
            suppress: vec![HashSet::new(); n],
            recovery_reported: true,
            recovered_app_state: None,
            initiator,
            tracer,
            #[cfg(feature = "obs")]
            obs,
            nondet: NondetSource::new(rank, attempt),
            attempt,
            ops: 0,
            last_trigger_op: 0,
            last_trigger_time: now,
            stats: ProcStats::default(),
        };
        if incarnation > 0 {
            let replayed = p.mpi.replayed_frames();
            p.trace_event(TraceEvent::RankRespawned {
                incarnation,
                replayed,
            });
        }
        if let Some(ckpt) = recover_from {
            p.recover(ckpt)?;
        }
        Ok(p)
    }

    /// This rank's world rank.
    pub fn rank(&self) -> usize {
        self.mpi.rank()
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.mpi.size()
    }

    /// The world communicator's pseudo-handle.
    pub fn world(&self) -> CommHandle {
        CommHandle(0)
    }

    /// Size of a communicator by pseudo-handle.
    pub fn comm_size(&self, comm: CommHandle) -> C3Result<usize> {
        Ok(self.pair(comm)?.app.size())
    }

    /// This rank's rank within a communicator.
    pub fn comm_rank(&self, comm: CommHandle) -> C3Result<usize> {
        Ok(self.pair(comm)?.app.rank())
    }

    /// Current epoch (= local checkpoints taken).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the process is currently logging.
    pub fn is_logging(&self) -> bool {
        self.am_logging
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Final statistics: the protocol counters plus the network
    /// sublayer's counters for this rank. Call after the run completes
    /// (the job driver does); on the perfect wire the net fields are
    /// zero and this equals [`Process::stats`].
    pub fn final_stats(&self) -> ProcStats {
        let mut s = self.stats;
        let ns = self.mpi.net_stats();
        s.net_retransmits = ns.retransmits;
        s.net_dup_delivered = ns.dup_delivered;
        s.net_wire_dropped = ns.wire.dropped + ns.wire.partition_dropped;
        s.net_wire_duplicated = ns.wire.duplicated;
        s.net_wire_held = ns.wire.reordered + ns.wire.delayed;
        s
    }

    /// Protocol operations issued so far.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// The recovered application state envelope, decoded. `None` on a
    /// fresh start. Call once, before running the application body.
    pub fn take_recovered_state<S: SaveState>(
        &mut self,
    ) -> C3Result<Option<S>> {
        match self.recovered_app_state.take() {
            None => Ok(None),
            Some(bytes) if bytes.is_empty() => Err(C3Error::Protocol(
                "checkpoint has no application state (taken at \
                 ProtocolOnly instrumentation?)"
                    .into(),
            )),
            Some(bytes) => Ok(Some(restore_from_bytes::<S>(&bytes)?)),
        }
    }

    fn pair(&self, comm: CommHandle) -> C3Result<&CommPair> {
        self.comms.get(comm.0).ok_or_else(|| {
            C3Error::Protocol(format!(
                "unknown communicator handle {}",
                comm.0
            ))
        })
    }

    // ------------------------------------------------------------------
    // Crate-internal accessors for the collective wrappers (collective.rs)
    // ------------------------------------------------------------------

    pub(crate) fn pump_public(&mut self) -> C3Result<()> {
        self.pump()
    }

    pub(crate) fn piggybacks(&self) -> bool {
        self.cfg.level.piggybacks()
    }

    pub(crate) fn mpi_mut(&mut self) -> &mut Mpi {
        self.mpi
    }

    pub(crate) fn app_of(&self, comm: CommHandle) -> C3Result<Comm> {
        Ok(self.pair(comm)?.app.clone())
    }

    pub(crate) fn ctrl_of(&self, comm: CommHandle) -> C3Result<Comm> {
        Ok(self.pair(comm)?.ctrl.clone())
    }

    pub(crate) fn replay_collective(
        &mut self,
        kind: u8,
    ) -> C3Result<Option<Bytes>> {
        let Some(rep) = self.replay.as_mut() else {
            return Ok(None);
        };
        let r = rep.next_collective(kind)?;
        if r.is_some() {
            self.stats.collectives_replayed += 1;
        }
        Ok(r)
    }

    pub(crate) fn log_collective(&mut self, kind: u8, result: Bytes) {
        self.log.push_collective(kind, result);
        self.stats.collectives_logged += 1;
    }

    pub(crate) fn finalize_log_public(&mut self) -> C3Result<()> {
        self.finalize_log()
    }

    pub(crate) fn force_local_checkpoint<S: SaveState>(
        &mut self,
        state: &S,
    ) -> C3Result<()> {
        self.take_local_checkpoint(state)
    }

    /// Record a protocol event in the installed trace sink, if any. With
    /// the `trace` feature disabled this compiles to nothing.
    pub(crate) fn trace_event(&mut self, event: TraceEvent) {
        #[cfg(feature = "trace")]
        if let Some(t) = self.tracer.as_mut() {
            t.record(event);
        }
        #[cfg(not(feature = "trace"))]
        let _ = event;
    }

    /// True if a trace sink is installed (gates costly event assembly).
    pub(crate) fn tracing(&self) -> bool {
        cfg!(feature = "trace") && self.tracer.is_some()
    }

    // ==================================================================
    // Pump: failure injection, control drain, checkpoint triggering
    // ==================================================================

    fn pump(&mut self) -> C3Result<()> {
        self.ops += 1;
        let rank = self.mpi.rank();
        for inj in self.cfg.failures.iter() {
            if inj.try_fire(rank, self.ops, self.attempt) {
                // Stopping failure: mark ourselves dead; the failure
                // detector (job driver) will notice and abort the attempt.
                self.trace_event(TraceEvent::FailStop { op: self.ops });
                #[cfg(feature = "obs")]
                if let Some(o) = &self.obs {
                    o.failstops.inc();
                }
                self.mpi.control().fail_rank(rank);
                return Err(C3Error::Mpi(MpiError::FailStop));
            }
        }
        // A respawned incarnation just exhausted its consumed-message
        // tape: note the catch-up completion (once per respawn).
        if self.mpi.take_caught_up() {
            let replayed = self.mpi.replayed_frames();
            let suppressed = self.mpi.suppressed_sends();
            self.trace_event(TraceEvent::SpliceReplayed {
                replayed,
                suppressed,
            });
        }
        if !self.cfg.level.piggybacks() {
            return Ok(());
        }
        self.drain_control()?;
        self.maybe_report_recovery_complete()?;
        self.maybe_initiate()?;
        Ok(())
    }

    fn ctrl_world(&self) -> Comm {
        self.comms[0].ctrl.clone()
    }

    fn drain_control(&mut self) -> C3Result<()> {
        let ctrl = self.ctrl_world();
        loop {
            let Some((src, _, _)) =
                self.mpi.iprobe(&ctrl, ANY_SOURCE, CONTROL_TAG)?
            else {
                return Ok(());
            };
            let msg = self.mpi.recv(&ctrl, src, CONTROL_TAG)?;
            let cm = ControlMsg::decode(&msg.payload)?;
            self.handle_control(msg.src, cm)?;
        }
    }

    fn handle_control(&mut self, src: usize, cm: ControlMsg) -> C3Result<()> {
        let (kind, arg) = control_code(&cm);
        self.trace_event(TraceEvent::ControlRecv {
            src: src as u32,
            kind,
            arg,
        });
        match cm {
            ControlMsg::PleaseCheckpoint { ckpt } => {
                // Ignore if we already took this checkpoint (possible when
                // a barrier forced it before the request arrived).
                if u64::from(self.epoch) < ckpt {
                    self.checkpoint_requested = Some(ckpt);
                }
            }
            ControlMsg::MySendCount { count } => {
                self.counters.set_total_sent(src, count);
                if self.am_logging {
                    self.check_received_all()?;
                }
            }
            ControlMsg::StopLogging => {
                if self.am_logging {
                    self.finalize_log()?;
                }
            }
            ControlMsg::ReadyToStopLogging => {
                if let Some(ini) = self.initiator.as_mut() {
                    let action = ini.on_ready_to_stop_logging(src);
                    self.perform(action)?;
                }
            }
            ControlMsg::StoppedLogging => {
                if let Some(ini) = self.initiator.as_mut() {
                    let action = ini.on_stopped_logging(src);
                    self.perform(action)?;
                }
            }
            ControlMsg::RecoveryComplete => {
                if let Some(ini) = self.initiator.as_mut() {
                    ini.on_recovery_complete(src);
                }
            }
        }
        Ok(())
    }

    fn send_control(&mut self, dst: usize, cm: &ControlMsg) -> C3Result<()> {
        let (kind, arg) = control_code(cm);
        self.trace_event(TraceEvent::ControlSent {
            dst: dst as u32,
            kind,
            arg,
        });
        let ctrl = self.ctrl_world();
        self.mpi
            .send_bytes(&ctrl, dst, CONTROL_TAG, cm.encode().into())
            .map_err(Into::into)
    }

    fn perform(&mut self, action: Option<Action>) -> C3Result<()> {
        let Some(action) = action else { return Ok(()) };
        match action {
            Action::BroadcastPleaseCheckpoint { ckpt } => {
                self.trace_event(TraceEvent::InitiatorPhase {
                    phase: phase_code::COLLECTING_READY,
                    ckpt,
                });
                #[cfg(feature = "obs")]
                let timer =
                    self.obs.as_ref().map(|_| c3obs::Stopwatch::start());
                let cm = ControlMsg::PleaseCheckpoint { ckpt };
                for dst in 0..self.mpi.size() {
                    self.send_control(dst, &cm)?;
                }
                #[cfg(feature = "obs")]
                if let Some(o) = self.obs.as_mut() {
                    o.initiated.inc();
                    if let Some(t) = timer {
                        o.span("initiator_broadcast_request", ckpt, t);
                    }
                    o.phase_begin("initiator_collect_ready", ckpt);
                }
            }
            Action::BroadcastStopLogging => {
                let ckpt =
                    self.initiator.as_ref().map_or(0, |i| i.current_ckpt());
                self.trace_event(TraceEvent::InitiatorPhase {
                    phase: phase_code::COLLECTING_STOPPED,
                    ckpt,
                });
                #[cfg(feature = "obs")]
                if let Some(o) = self.obs.as_mut() {
                    o.phase_begin("initiator_collect_stopped", ckpt);
                }
                for dst in 0..self.mpi.size() {
                    self.send_control(dst, &ControlMsg::StopLogging)?;
                }
            }
            Action::Commit { ckpt } => {
                #[cfg(feature = "obs")]
                if let Some(o) = self.obs.as_mut() {
                    o.phase_begin("initiator_commit", ckpt);
                }
                // Phase 4: every rank's stoppedLogging has been observed,
                // so all of checkpoint `ckpt`'s blobs are staged. Drain
                // the I/O pipeline — blocking until the background
                // writers have made them durable (and surfacing any write
                // error) — before the commit marker is written.
                let blobs = self
                    .pipeline
                    .as_ref()
                    .expect("initiator has pipeline")
                    .drain(ckpt)?;
                self.trace_event(TraceEvent::InitiatorPhase {
                    phase: phase_code::IDLE,
                    ckpt,
                });
                self.trace_event(TraceEvent::PipelineDrained { ckpt, blobs });
                self.trace_event(TraceEvent::Commit { ckpt });
                self.store
                    .as_ref()
                    .expect("initiator has store")
                    .commit(ckpt)?;
                // GC goes through the pipeline, not the store: its orphan
                // sweep must not race blob writes that background writers
                // may still have in flight for other checkpoints. Retain
                // `keep_last` committed lines — tiered configurations keep
                // older whole lines as the fallback when the newest line
                // is lost beyond the deepest tier's repair capability.
                if ckpt >= self.cfg.io.keep_last {
                    let kept = ckpt + 1 - self.cfg.io.keep_last;
                    self.pipeline
                        .as_ref()
                        .expect("initiator has pipeline")
                        .gc_keeping(kept)?;
                    self.trace_event(TraceEvent::GcRan { kept });
                }
                // Hand the committed checkpoint to the async tier-drain
                // mover (a no-op on single-tier stores). Commit covers
                // tier-local durability only; promotion to partner and
                // erasure tiers proceeds off the critical path and is
                // surfaced as TierDrained events at finalize.
                if let Some(pipe) = self.pipeline.as_ref() {
                    pipe.schedule_tier_drain(ckpt);
                }
                #[cfg(feature = "obs")]
                if let Some(o) = self.obs.as_mut() {
                    o.phase_end();
                    o.commits.inc();
                }
            }
        }
        Ok(())
    }

    fn maybe_initiate(&mut self) -> C3Result<()> {
        if self.initiator.is_none() || !self.cfg.level.checkpoints() {
            return Ok(());
        }
        let fire = match self.cfg.trigger {
            CheckpointTrigger::Manual => false,
            CheckpointTrigger::EveryOps(k) => {
                self.ops.saturating_sub(self.last_trigger_op) >= k
            }
            CheckpointTrigger::EveryMillis(ms) => {
                self.last_trigger_time.elapsed().as_millis() as u64 >= ms
            }
        };
        if !fire {
            return Ok(());
        }
        let ini = self.initiator.as_mut().expect("checked above");
        if let Some(action) = ini.initiate() {
            self.last_trigger_op = self.ops;
            self.last_trigger_time = Instant::now();
            self.perform(Some(action))?;
        }
        Ok(())
    }

    /// Application-requested checkpoint (the `Manual` trigger path). Only
    /// meaningful on rank 0, where the initiator lives; other ranks' calls
    /// are ignored.
    pub fn request_checkpoint(&mut self) -> C3Result<()> {
        self.pump()?;
        if let Some(ini) = self.initiator.as_mut() {
            let action = ini.initiate();
            self.perform(action)?;
        }
        Ok(())
    }

    // ==================================================================
    // Point-to-point (Figure 4's communicationEventHandler)
    // ==================================================================

    /// Blocking send. Copies `payload` into a refcounted buffer once at
    /// ingress (exactly what raw simmpi's borrowed-slice send does); use
    /// [`Process::send_bytes`] to skip even that copy.
    pub fn send(
        &mut self,
        comm: CommHandle,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> C3Result<()> {
        self.send_bytes(comm, dst, tag, Bytes::copy_from_slice(payload))
    }

    /// Blocking send of an owned refcounted payload — the zero-copy hot
    /// path. The protocol's control word travels in the frame's inline
    /// header segment; the payload is never copied or reallocated, so the
    /// per-message protocol cost is O(header), not O(payload).
    pub fn send_bytes(
        &mut self,
        comm: CommHandle,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> C3Result<()> {
        self.pump()?;
        self.send_inner(comm, dst, tag, payload)
    }

    fn send_inner(
        &mut self,
        comm: CommHandle,
        dst: usize,
        tag: i32,
        payload: Bytes,
    ) -> C3Result<()> {
        let app = self.pair(comm)?.app.clone();
        if !self.cfg.level.piggybacks() {
            self.mpi.send_bytes(&app, dst, tag, payload)?;
            return Ok(());
        }
        let pb = Piggyback {
            epoch: self.epoch,
            logging: self.am_logging,
            message_id: self.next_message_id,
        };
        let id = self.next_message_id;
        self.next_message_id += 1;
        // Counted whether transmitted or suppressed: a suppressed message's
        // receipt is already part of the receiver's checkpointed state.
        let dst_world = app.world_rank(dst)?;
        self.counters.on_send(dst_world);
        let suppressed = self.suppress[dst_world].remove(&id);
        self.trace_event(TraceEvent::Send {
            comm: comm.0 as u64,
            dst: dst_world as u32,
            tag,
            epoch: self.epoch,
            logging: pb.logging,
            message_id: id,
            suppressed,
            payload_len: payload.len() as u64,
        });
        if suppressed {
            self.stats.suppressed_sends += 1;
            return Ok(());
        }
        let hdr = pb
            .encode_inline(self.cfg.piggyback_mode)
            .map_err(C3Error::Codec)?;
        self.mpi.send_parts(&app, dst, tag, hdr, payload)?;
        Ok(())
    }

    /// Blocking typed send.
    pub fn send_t<T: simmpi::MpiType>(
        &mut self,
        comm: CommHandle,
        dst: usize,
        tag: i32,
        data: &[T],
    ) -> C3Result<()> {
        self.send(comm, dst, tag, &T::slice_to_bytes(data))
    }

    /// Blocking receive. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`].
    pub fn recv(
        &mut self,
        comm: CommHandle,
        src: usize,
        tag: i32,
    ) -> C3Result<RecvMsg> {
        self.pump()?;
        self.recv_inner(comm, src, tag)
    }

    fn recv_inner(
        &mut self,
        comm: CommHandle,
        src: usize,
        tag: i32,
    ) -> C3Result<RecvMsg> {
        let app = self.pair(comm)?.app.clone();
        if !self.cfg.level.piggybacks() {
            return self.mpi.recv(&app, src, tag).map_err(Into::into);
        }
        if let Some(m) = self.try_replay_late(comm, src, tag) {
            return Ok(m);
        }
        let msg = self.mpi.recv(&app, src, tag)?;
        self.deliver(comm, msg)
    }

    /// Blocking typed receive.
    pub fn recv_t<T: simmpi::MpiType>(
        &mut self,
        comm: CommHandle,
        src: usize,
        tag: i32,
    ) -> C3Result<Vec<T>> {
        let msg = self.recv(comm, src, tag)?;
        T::bytes_to_vec(&msg.payload).map_err(Into::into)
    }

    /// Combined send + receive (deadlock-free halo exchange).
    pub fn sendrecv(
        &mut self,
        comm: CommHandle,
        dst: usize,
        send_tag: i32,
        payload: &[u8],
        src: usize,
        recv_tag: i32,
    ) -> C3Result<RecvMsg> {
        let req = self.irecv(comm, src, recv_tag)?;
        self.send(comm, dst, send_tag, payload)?;
        Ok(self
            .wait(req)?
            .expect("irecv request always yields a message"))
    }

    fn try_replay_late(
        &mut self,
        comm: CommHandle,
        src: usize,
        tag: i32,
    ) -> Option<RecvMsg> {
        let rep = self.replay.as_mut()?;
        let src_pat = (src != ANY_SOURCE).then_some(src);
        let tag_pat = (tag != ANY_TAG).then_some(tag);
        let m = rep.take_late(comm.0, src_pat, tag_pat)?;
        self.stats.late_replayed += 1;
        self.trace_event(TraceEvent::ReplayLate {
            comm: comm.0 as u64,
            src: m.src as u32,
            tag: m.tag,
            message_id: m.message_id,
        });
        Some(RecvMsg {
            src: m.src,
            tag: m.tag,
            header: HeaderBytes::empty(),
            payload: m.payload,
        })
    }

    /// Decode the piggyback control word, classify the message, update
    /// counters and logs (the receive half of Figure 4).
    ///
    /// The control word arrives in the frame's inline header segment and
    /// the payload passes through untouched; a frame without one did not
    /// come from this layer and is a protocol error.
    fn deliver(
        &mut self,
        comm: CommHandle,
        msg: RecvMsg,
    ) -> C3Result<RecvMsg> {
        if msg.header.is_empty() {
            return Err(C3Error::Protocol(
                "message arrived without a piggyback header segment".into(),
            ));
        }
        let (header, offset) =
            decode_header(self.cfg.piggyback_mode, &msg.header)?;
        if offset != msg.header.len() {
            return Err(C3Error::Protocol(format!(
                "piggyback header segment is {} bytes but the {:?} \
                 control word is {offset}",
                msg.header.len(),
                self.cfg.piggyback_mode
            )));
        }
        let payload = msg.payload.clone();
        let class = match header {
            DecodedHeader::Explicit(pb) => {
                classify_by_epoch(pb.epoch, self.epoch)
            }
            DecodedHeader::Packed(pb) => classify_by_color(
                pb.color,
                Color::of(self.epoch),
                self.am_logging,
            ),
        };
        // Counters are indexed by world rank; translate the comm-frame src.
        let src_world = self.pair(comm)?.app.world_rank(msg.src)?;
        self.trace_event(TraceEvent::RecvClassified {
            comm: comm.0 as u64,
            src: src_world as u32,
            tag: msg.tag,
            message_id: header.message_id(),
            class,
            sender_logging: header.logging(),
            receiver_epoch: self.epoch,
            receiver_logging: self.am_logging,
        });
        match class {
            MsgClass::IntraEpoch => {
                // A message from a process that has stopped logging means
                // every process has checkpointed: stop logging too
                // (Section 4.1, phase 4, condition ii).
                if self.am_logging && !header.logging() {
                    self.finalize_log()?;
                }
                self.counters.on_intra_epoch_recv(src_world);
            }
            MsgClass::Late => {
                if !self.am_logging {
                    return Err(C3Error::Protocol(format!(
                        "late message from rank {src_world} while not \
                         logging"
                    )));
                }
                // Logging a late message shares the payload by refcount;
                // nothing is copied until the log is serialized to stable
                // storage at finalizeLog.
                self.log.push_late(LateMessage {
                    comm: comm.0,
                    src: msg.src,
                    message_id: header.message_id(),
                    tag: msg.tag,
                    payload: payload.clone(),
                });
                self.trace_event(TraceEvent::LateLogged {
                    src: src_world as u32,
                    message_id: header.message_id(),
                });
                self.stats.late_logged += 1;
                self.counters.on_late_recv(src_world);
                self.check_received_all()?;
            }
            MsgClass::Early => {
                if self.am_logging {
                    return Err(C3Error::Protocol(format!(
                        "early message from rank {src_world} while logging"
                    )));
                }
                self.early_ids[src_world].push(header.message_id());
                self.trace_event(TraceEvent::EarlyRecorded {
                    src: src_world as u32,
                    message_id: header.message_id(),
                });
                self.stats.early_recorded += 1;
            }
        }
        Ok(RecvMsg {
            src: msg.src,
            tag: msg.tag,
            header: HeaderBytes::empty(),
            payload,
        })
    }

    fn check_received_all(&mut self) -> C3Result<()> {
        if self.ready_sent {
            return Ok(());
        }
        if self.counters.received_all() {
            self.ready_sent = true;
            self.send_control(0, &ControlMsg::ReadyToStopLogging)?;
        }
        Ok(())
    }

    // ==================================================================
    // Non-blocking operations via pseudo-handles (Section 5.2)
    // ==================================================================

    /// Non-blocking send. `wait` on the returned pseudo-handle returns
    /// `None`.
    pub fn isend(
        &mut self,
        comm: CommHandle,
        dst: usize,
        tag: i32,
        payload: &[u8],
    ) -> C3Result<C3Request> {
        // Sends buffer and complete at the transport; the pseudo-handle
        // exists so a checkpoint between isend and wait restores correctly
        // (wait must return immediately after recovery — Section 5.2).
        self.send(comm, dst, tag, payload)?;
        Ok(C3Request(self.pending.insert(PendingKind::Send)))
    }

    /// Non-blocking receive; complete with [`Process::wait`].
    pub fn irecv(
        &mut self,
        comm: CommHandle,
        src: usize,
        tag: i32,
    ) -> C3Result<C3Request> {
        self.pump()?;
        let h = self.pending.insert(PendingKind::Recv {
            comm: comm.0,
            src,
            tag,
        });
        // In replay mode the matching logged message (if any) is reserved
        // at post time, preserving the posting-order semantics the live
        // path has. Otherwise post a live receive now.
        if self.cfg.level.piggybacks() && self.replay.is_some() {
            // Deferred: `wait` consults the log first, then the network.
            return Ok(C3Request(h));
        }
        let app = self.pair(comm)?.app.clone();
        let req = self.mpi.irecv(&app, src, tag)?;
        self.live_reqs.insert(h, req);
        Ok(C3Request(h))
    }

    /// Complete a pseudo-handle. `Some(msg)` for receives, `None` for
    /// sends.
    pub fn wait(&mut self, req: C3Request) -> C3Result<Option<RecvMsg>> {
        self.wait_raw(req.0)
    }

    /// Complete a request by raw pseudo-handle — used after a restart for
    /// requests that straddled the checkpoint (the application recovers
    /// the handle value from its own checkpointed state). A restored
    /// `Isend` handle completes immediately; a restored `Irecv` handle is
    /// satisfied from the late-message log or re-posted (Section 5.2).
    pub fn wait_raw(&mut self, h: ReqHandle) -> C3Result<Option<RecvMsg>> {
        self.pump()?;
        let kind = self.pending.remove(h).ok_or_else(|| {
            C3Error::Protocol("wait on unknown or completed request".into())
        })?;
        match kind {
            PendingKind::Send => Ok(None),
            PendingKind::Recv { comm, src, tag } => {
                let comm = CommHandle(comm);
                if let Some(mut live) = self.live_reqs.remove(&h) {
                    let app = self.pair(comm)?.app.clone();
                    let msg = self.mpi.wait_recv(&app, &mut live)?;
                    if self.cfg.level.piggybacks() {
                        self.deliver(comm, msg).map(Some)
                    } else {
                        Ok(Some(msg))
                    }
                } else {
                    // No live request: either posted during replay, or a
                    // pseudo-handle restored from a checkpoint (the Irecv
                    // reinitialization of Section 5.2): satisfy from the
                    // log, else re-post against the live library.
                    self.recv_inner(comm, src, tag).map(Some)
                }
            }
        }
    }

    // ==================================================================
    // Communicator management (persistent opaque objects, Section 5.2)
    // ==================================================================

    fn create_comm_pair(
        &mut self,
        call: &PersistentCall,
    ) -> C3Result<Option<CommPair>> {
        match *call {
            PersistentCall::CommDup { parent } => {
                let parent_pair = self.pair(CommHandle(parent))?;
                let (app_parent, ctrl_parent) =
                    (parent_pair.app.clone(), parent_pair.ctrl.clone());
                let app = self.mpi.comm_dup(&app_parent)?;
                let ctrl = self.mpi.comm_dup(&ctrl_parent)?;
                Ok(Some(CommPair { app, ctrl }))
            }
            PersistentCall::CommSplit { parent, color, key } => {
                let parent_pair = self.pair(CommHandle(parent))?;
                let (app_parent, ctrl_parent) =
                    (parent_pair.app.clone(), parent_pair.ctrl.clone());
                let app = self.mpi.comm_split(&app_parent, color, key)?;
                let ctrl = self.mpi.comm_split(&ctrl_parent, color, key)?;
                match (app, ctrl) {
                    (Some(app), Some(ctrl)) => {
                        Ok(Some(CommPair { app, ctrl }))
                    }
                    (None, None) => Ok(None),
                    _ => Err(C3Error::Protocol(
                        "split returned inconsistent memberships".into(),
                    )),
                }
            }
        }
    }

    fn record_and_create(
        &mut self,
        call: PersistentCall,
    ) -> C3Result<Option<CommHandle>> {
        // Section 5.2 replay: after a restart, creation calls the
        // application re-executes (e.g. a communicator dup in the program
        // prologue, before the first checkpoint site) are *matched against
        // the journal* — the object was already recreated during the
        // journal replay at recovery, and the pseudo-handle it got must be
        // returned again. Only once the journal cursor is exhausted do
        // fresh calls journal and create anew.
        if self.journal_cursor < self.journal.len() {
            let recorded = &self.journal.calls()[self.journal_cursor];
            if *recorded != call {
                return Err(C3Error::Protocol(format!(
                    "persistent-object replay mismatch: journal has \
                     {recorded:?}, re-execution issued {call:?}"
                )));
            }
            let handle = self.journal_handles[self.journal_cursor];
            self.journal_cursor += 1;
            return Ok(handle.map(CommHandle));
        }
        self.journal.record(call.clone());
        match self.create_comm_pair(&call)? {
            Some(pair) => {
                self.comms.push(pair);
                let handle = self.comms.len() - 1;
                self.journal_handles.push(Some(handle));
                self.journal_cursor = self.journal.len();
                Ok(Some(CommHandle(handle)))
            }
            None => {
                self.journal_handles.push(None);
                self.journal_cursor = self.journal.len();
                Ok(None)
            }
        }
    }

    /// Duplicate a communicator (collective over its members). The call is
    /// journaled and replayed on recovery, so the pseudo-handle remains
    /// valid across restarts.
    ///
    /// Creation calls should live in the program prologue (re-executed on
    /// every restart), the standard MPI idiom; a creation call that the
    /// resumed execution skips leaves the journal cursor parked, and a
    /// subsequent *different* creation call fails loudly rather than
    /// desynchronizing pseudo-handles.
    pub fn comm_dup(&mut self, comm: CommHandle) -> C3Result<CommHandle> {
        self.pump()?;
        Ok(self
            .record_and_create(PersistentCall::CommDup { parent: comm.0 })?
            .expect("dup always yields a communicator"))
    }

    /// Split a communicator by color/key (collective over its members);
    /// negative color opts out and returns `None`. Journaled like
    /// [`Process::comm_dup`].
    pub fn comm_split(
        &mut self,
        comm: CommHandle,
        color: i32,
        key: i32,
    ) -> C3Result<Option<CommHandle>> {
        self.pump()?;
        self.record_and_create(PersistentCall::CommSplit {
            parent: comm.0,
            color,
            key,
        })
    }

    // ==================================================================
    // Non-determinism (Section 3.2)
    // ==================================================================

    /// Draw a non-deterministic 64-bit value. While logging, the draw is
    /// recorded; during recovery, logged draws are replayed in order, so a
    /// checkpoint that causally depends on a draw sees the same value
    /// after restart.
    pub fn nondet_u64(&mut self) -> C3Result<u64> {
        self.pump()?;
        if let Some(rep) = self.replay.as_mut() {
            if let Some(v) = rep.next_nondet() {
                return Ok(v);
            }
        }
        let v = self.nondet.next_u64();
        if self.am_logging {
            self.log.push_nondet(v);
            self.stats.nondet_logged += 1;
        }
        Ok(v)
    }

    /// Draw a non-deterministic uniform float in `[0, 1)` (built on
    /// [`Process::nondet_u64`], so logging/replay apply).
    pub fn nondet_f64(&mut self) -> C3Result<f64> {
        Ok((self.nondet_u64()? >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
    }

    // ==================================================================
    // Checkpointing (Figure 4's potentialCheckpoint) and logging
    // ==================================================================

    /// A `potentialCheckpoint` site. If a checkpoint has been requested,
    /// the local checkpoint is taken here; otherwise this is (nearly)
    /// free. The application passes its state, which is serialized into
    /// the checkpoint when instrumentation level is `Full`.
    pub fn potential_checkpoint<S: SaveState>(
        &mut self,
        state: &S,
    ) -> C3Result<()> {
        self.pump()?;
        if !self.cfg.level.checkpoints() {
            return Ok(());
        }
        if self.checkpoint_requested.is_none() {
            return Ok(());
        }
        self.take_local_checkpoint(state)
    }

    /// Hand one rank blob to the checkpoint I/O pipeline. In async mode
    /// this returns as soon as the blob is queued; durability is
    /// established by the initiator's phase-4 drain before commit.
    ///
    /// Staging is once-per-key: a respawned incarnation re-executing the
    /// attempt under localized recovery reproduces stagings its dead
    /// predecessor already handed to the shared pipeline, and those
    /// duplicates are dropped (no write, no trace event) so the drain
    /// barrier's blob accounting stays exact.
    fn stage_blob(
        &mut self,
        ckpt: u64,
        kind: RankBlobKind,
        bytes: Vec<u8>,
    ) -> C3Result<()> {
        let rank = self.mpi.rank();
        let staged = self
            .pipeline
            .as_ref()
            .expect("checkpoints need a pipeline")
            .stage_once(ckpt, rank, kind, bytes)?;
        if staged {
            self.trace_event(TraceEvent::BlobStaged {
                ckpt,
                kind: blob_kind_tag(kind),
            });
        }
        Ok(())
    }

    fn take_local_checkpoint<S: SaveState>(
        &mut self,
        state: &S,
    ) -> C3Result<()> {
        debug_assert!(
            self.replay.as_ref().is_none_or(|r| r.is_drained())
                && self.suppress.iter().all(|s| s.is_empty()),
            "checkpoint initiated before recovery drained — the initiator \
             gate should prevent this"
        );
        let ckpt = u64::from(self.epoch) + 1;
        let rank = self.mpi.rank();
        #[cfg(feature = "obs")]
        let timer = self.obs.as_ref().map(|_| c3obs::Stopwatch::start());

        // 1. Stage the local snapshot with the I/O pipeline: application
        //    state (level Full), early-message ids, pending-request
        //    pseudo-handles. The writes become durable before the
        //    initiator's commit (phase 4 drains the pipeline).
        let app_state = if self.cfg.level.saves_app_state() {
            snapshot_to_bytes(state)
        } else {
            Vec::new()
        };
        self.stats.app_state_bytes += app_state.len() as u64;
        let rc = RankCheckpoint {
            ckpt,
            early_ids: self.early_ids.clone(),
            pending: self.pending.clone(),
            app_state,
        };
        let mut enc = Encoder::new();
        rc.save(&mut enc);
        self.stage_blob(ckpt, RankBlobKind::State, enc.into_bytes())?;

        // Persistent-object journal (MPI library state, Section 5.2).
        let mut enc = Encoder::new();
        self.journal.save(&mut enc);
        self.stage_blob(ckpt, RankBlobKind::MpiObjects, enc.into_bytes())?;

        // 2. Enter the new epoch (Figure 4's bookkeeping).
        self.epoch += 1;
        self.stats.checkpoints += 1;
        if std::env::var_os("C3_DEBUG").is_some() {
            eprintln!(
                "[ckpt] rank {} took local checkpoint {} at op {}",
                rank, ckpt, self.ops
            );
        }
        let n = self.mpi.size();
        let send_counts: Vec<u64> =
            (0..n).map(|dst| self.counters.send_count(dst)).collect();
        let early_counts: Vec<u64> =
            self.early_ids.iter().map(|v| v.len() as u64).collect();
        if self.tracing() {
            self.trace_event(TraceEvent::CheckpointTaken {
                ckpt,
                send_counts: send_counts.clone(),
                early_counts: early_counts.clone(),
            });
        }
        for (dst, &count) in send_counts.iter().enumerate() {
            self.send_control(dst, &ControlMsg::MySendCount { count })?;
        }
        self.counters.rotate_at_checkpoint(&early_counts);
        self.early_ids = vec![Vec::new(); n];
        self.checkpoint_requested = None;
        self.am_logging = true;
        self.ready_sent = false;
        self.next_message_id = 0;
        self.log = RecoveryLog::new();
        // Suppression sets refer to the previous epoch's id space; a
        // drained recovery leaves them empty, asserted above.
        self.check_received_all()?;
        #[cfg(feature = "obs")]
        if let (Some(o), Some(t)) = (self.obs.as_ref(), timer) {
            o.span("local_checkpoint", ckpt, t);
        }
        Ok(())
    }

    /// Terminate logging: write the log to stable storage and notify the
    /// initiator (Figure 4's finalizeLog).
    fn finalize_log(&mut self) -> C3Result<()> {
        debug_assert!(self.am_logging);
        let ckpt = u64::from(self.epoch);
        #[cfg(feature = "obs")]
        let timer = self.obs.as_ref().map(|_| c3obs::Stopwatch::start());
        let mut enc = Encoder::new();
        self.log.save(&mut enc);
        self.stage_blob(ckpt, RankBlobKind::Log, enc.into_bytes())?;
        self.trace_event(TraceEvent::LogFinalized {
            ckpt,
            late: self.log.late.len() as u64,
            nondet: self.log.nondet.len() as u64,
            collectives: self.log.collectives.len() as u64,
        });
        self.am_logging = false;
        self.send_control(0, &ControlMsg::StoppedLogging)?;
        #[cfg(feature = "obs")]
        if let (Some(o), Some(t)) = (self.obs.as_ref(), timer) {
            o.span("late_log_drain", ckpt, t);
        }
        Ok(())
    }

    // ==================================================================
    // Recovery (Section 3.2's suppression + log replay)
    // ==================================================================

    fn recover(&mut self, ckpt: u64) -> C3Result<()> {
        let store = self
            .store
            .as_ref()
            .ok_or_else(|| {
                C3Error::Protocol("recovery requires a store".into())
            })?
            .clone();
        let rank = self.mpi.rank();
        let n = self.mpi.size();
        #[cfg(feature = "obs")]
        let timer = self.obs.as_ref().map(|_| c3obs::Stopwatch::start());

        // Load and decode this rank's blobs.
        let state_bytes =
            store.get_rank_blob(ckpt, rank, RankBlobKind::State)?;
        let rc = RankCheckpoint::load(&mut Decoder::new(&state_bytes))?;
        if rc.ckpt != ckpt {
            return Err(C3Error::Protocol(format!(
                "state blob names checkpoint {}, expected {ckpt}",
                rc.ckpt
            )));
        }
        let journal_bytes =
            store.get_rank_blob(ckpt, rank, RankBlobKind::MpiObjects)?;
        let journal =
            PersistentJournal::load(&mut Decoder::new(&journal_bytes))?;
        let log_bytes = store.get_rank_blob(ckpt, rank, RankBlobKind::Log)?;
        let log = RecoveryLog::load(&mut Decoder::new(&log_bytes))?;
        self.trace_event(TraceEvent::RecoveryStart {
            ckpt,
            late_in_log: log.late.len() as u64,
            early_counts: rc
                .early_ids
                .iter()
                .map(|v| v.len() as u64)
                .collect(),
        });
        // On a multi-tier store, record which tier actually served this
        // rank's state: 0 while the local staging copy is intact, deeper
        // when the read fell through to a partner replica or an
        // erasure-coded reconstruction. The analyzer's I14 checks the
        // claimed tier against what the mover drained.
        if let Ok(Some(tier)) =
            store.blob_tier(ckpt, rank, RankBlobKind::State)
        {
            self.trace_event(TraceEvent::TierRecovered { ckpt, tier });
        }

        // Replay the persistent-object journal, rebuilding communicators
        // behind their original pseudo-handles (collective: every rank
        // replays the same creation sequence). The cursor is reset so that
        // creation calls the application re-executes are matched against
        // these entries instead of creating duplicates.
        self.journal_handles.clear();
        for call in journal.calls().to_vec() {
            let pair = self.create_comm_pair(&call)?;
            match pair {
                Some(pair) => {
                    self.comms.push(pair);
                    self.journal_handles.push(Some(self.comms.len() - 1));
                }
                None => self.journal_handles.push(None),
            }
        }
        self.journal = journal;
        self.journal_cursor = 0;

        // Restore Figure 4 state for epoch `ckpt`.
        self.epoch = u32::try_from(ckpt).expect("epoch fits u32");
        self.am_logging = false; // the log is already on stable storage
        self.next_message_id = 0;
        self.checkpoint_requested = None;
        self.counters = ChannelCounters::new(n);
        let early_counts: Vec<u64> =
            rc.early_ids.iter().map(|v| v.len() as u64).collect();
        // Early messages count as already received in the new epoch.
        self.counters.rotate_at_checkpoint(&early_counts);
        self.pending = rc.pending;
        self.recovered_app_state = Some(rc.app_state);

        // Suppression exchange: tell each sender which of its re-sends to
        // drop; collect the same from every receiver of ours.
        let ctrl = self.ctrl_world();
        for (q, ids) in rc.early_ids.iter().enumerate() {
            let list = SuppressList { ids: ids.clone() };
            self.trace_event(TraceEvent::SuppressSent {
                dst: q as u32,
                count: list.ids.len() as u64,
            });
            self.mpi.send_bytes(
                &ctrl,
                q,
                SUPPRESS_TAG,
                list.encode().into(),
            )?;
        }
        for _ in 0..n {
            let msg = self.mpi.recv(&ctrl, ANY_SOURCE, SUPPRESS_TAG)?;
            let list = SuppressList::decode(&msg.payload)?;
            self.trace_event(TraceEvent::SuppressRecv {
                src: msg.src as u32,
                count: list.ids.len() as u64,
            });
            self.suppress[msg.src] = list.ids.into_iter().collect();
        }

        self.replay = Some(Replay::new(log));
        self.recovery_reported = false;
        #[cfg(feature = "obs")]
        if let (Some(o), Some(t)) = (self.obs.as_ref(), timer) {
            o.span("recovery_replay", ckpt, t);
        }
        Ok(())
    }

    fn maybe_report_recovery_complete(&mut self) -> C3Result<()> {
        if self.recovery_reported {
            return Ok(());
        }
        let drained = self.replay.as_ref().is_none_or(|r| r.is_drained());
        let suppressed_done = self.suppress.iter().all(|s| s.is_empty());
        if drained && suppressed_done {
            self.recovery_reported = true;
            self.replay = None;
            self.trace_event(TraceEvent::RecoveryComplete);
            self.send_control(0, &ControlMsg::RecoveryComplete)?;
        }
        Ok(())
    }

    /// End-of-run housekeeping: drain control traffic so an in-flight
    /// global checkpoint can finish its phases (ready → stopLogging →
    /// stoppedLogging → commit) before the job ends. Collective.
    ///
    /// Each round is a barrier plus a control drain; the barrier's
    /// per-channel FIFO guarantee means a drain observes everything peers
    /// sent before entering the barrier, so each round advances the
    /// protocol by at least one phase. Rank 0 broadcasts whether a
    /// checkpoint is still in progress; the loop ends when none is. The
    /// round count is bounded because a checkpoint can be unfinishable —
    /// e.g. a rank received `pleaseCheckpoint` after its last
    /// `potential_checkpoint` site — in which case it is simply abandoned
    /// (it never commits, so recovery ignores it).
    pub fn finalize(&mut self) -> C3Result<()> {
        if !self.cfg.level.piggybacks() {
            self.trace_net_summary();
            return Ok(());
        }
        let ctrl = self.ctrl_world();
        let debug = std::env::var_os("C3_DEBUG").is_some();
        for round in 0..32 {
            self.mpi.barrier(&ctrl)?;
            self.drain_control()?;
            if debug {
                eprintln!(
                    "[finalize r{round}] rank {} epoch {} logging {} \
                     ready_sent {} ckpt_req {:?} deficits {:?} init {:?}",
                    self.mpi.rank(),
                    self.epoch,
                    self.am_logging,
                    self.ready_sent,
                    self.checkpoint_requested,
                    (0..self.mpi.size())
                        .map(|q| self.counters.late_deficit(q))
                        .collect::<Vec<_>>(),
                    self.initiator.as_ref().map(|i| i.is_idle()),
                );
            }
            let busy = match &self.initiator {
                Some(ini) => u8::from(!ini.is_idle()),
                None => 0,
            };
            let word = self.mpi.bcast(&ctrl, 0, vec![busy].into())?;
            if word.first() == Some(&0) {
                break;
            }
        }
        // The initiator flushes the async tier-drain mover before the job
        // ends and records what it promoted; every rank has reached the
        // barrier above, so the drained checkpoints are committed ones.
        if self.initiator.is_some() {
            if let Some(pipe) = self.pipeline.as_ref() {
                let drained = pipe.flush_tier_drains();
                for (ckpt, tier) in drained {
                    self.trace_event(TraceEvent::TierDrained { ckpt, tier });
                }
            }
        }
        self.trace_net_summary();
        Ok(())
    }

    /// Record the network sublayer's end-of-run counters in the trace.
    /// Presence is determined by the configuration (lossy wire on), so a
    /// fixed `(seed, NetCond, FailureSchedule)` yields a fixed trace
    /// shape; on the perfect wire nothing is emitted.
    fn trace_net_summary(&mut self) {
        if self.cfg.net.is_perfect() || !self.tracing() {
            return;
        }
        let ns = self.mpi.net_stats();
        self.trace_event(TraceEvent::NetSummary {
            retransmits: ns.retransmits,
            dup_delivered: ns.dup_delivered,
            wire_dropped: ns.wire.dropped + ns.wire.partition_dropped,
            wire_duplicated: ns.wire.duplicated,
            wire_held: ns.wire.reordered + ns.wire.delayed,
        });
    }
}

/// Wire tag for [`TraceEvent::BlobStaged`]'s `kind` byte: 0 = state,
/// 1 = log, 2 = MPI objects.
fn blob_kind_tag(kind: RankBlobKind) -> u8 {
    match kind {
        RankBlobKind::State => 0,
        RankBlobKind::Log => 1,
        RankBlobKind::MpiObjects => 2,
    }
}
