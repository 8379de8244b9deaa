//! The workloads: which application, how often it checkpoints, and which
//! failure it suffers.

use std::fmt::Debug;

use c3_apps::dense_cg::CgState;
use c3_apps::neurosys::NeuroState;
use c3_apps::{DenseCg, Neurosys};
use c3_core::{C3App, C3Config, InstrumentationLevel, RecoveryMode};

/// Ranks per job. The run pins every job to one CPU
/// ([`crate::pin_to_one_cpu`]), so the ranks share it with the pipeline's
/// writer threads; the recorded set-up says so.
pub const RANKS: usize = 2;

/// The rank every recovery workload kills. Rank 0 hosts the initiator,
/// whose death always escalates to a full restart, so killing it would
/// leave the splice path unmeasured.
pub const KILL_RANK: usize = 1;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["cg-recover", "neuro-splice"];

/// SplitMix64: the benchmark's only source of seeded randomness.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// What the benchmark needs from an application beyond `C3App`.
pub trait BenchApp: C3App<Output: PartialEq + Debug> {
    /// The problem parameters, for the recorded run set-up.
    fn params(&self) -> String;

    /// Change `state` the way one solver step does: every vector the
    /// step writes changes, read-only data stays. Drives the replay that
    /// measures the checkpoint pipeline's dedup on a realistic sequence.
    fn dirty(state: &mut Self::State, rng: &mut SplitMix);
}

fn jiggle(xs: &mut [f64], rng: &mut SplitMix) {
    for x in xs {
        *x += 1e-3 * rng.signed_unit();
    }
}

impl BenchApp for DenseCg {
    fn params(&self) -> String {
        format!("DenseCg::new({}, {})", self.n, self.iters)
    }

    fn dirty(s: &mut CgState, rng: &mut SplitMix) {
        s.iter += 1;
        jiggle(&mut s.x, rng);
        jiggle(&mut s.r, rng);
        jiggle(&mut s.p, rng);
        s.rho *= 0.5;
    }
}

impl BenchApp for Neurosys {
    fn params(&self) -> String {
        format!("Neurosys::new({}, {})", self.m, self.iters)
    }

    fn dirty(s: &mut NeuroState, rng: &mut SplitMix) {
        s.iter += 1;
        jiggle(&mut s.v, rng);
        jiggle(&mut s.w, rng);
    }
}

/// One workload: an application, its checkpoint interval, how failures
/// are repaired, and the seeded kill if it has one.
pub struct Spec<A> {
    /// The workload's name.
    pub name: &'static str,
    /// The application and its problem size.
    pub app: A,
    /// Rank 0 starts a global checkpoint every this many protocol ops.
    pub every_ops: u64,
    /// How `run_job` repairs the kill.
    pub recovery: RecoveryMode,
    /// The protocol op at which [`KILL_RANK`] fail-stops.
    pub kill_at: u64,
}

/// The kill op a seed picks, in a window a quarter interval wide that
/// opens two and a half checkpoint intervals into the run. By then the
/// second checkpoint has committed on both applications, so recovery has
/// a line to read back from storage; the narrow window keeps the redone
/// work, and so the job time, from varying much with the seed.
pub fn kill_op(every_ops: u64, seed: u64) -> u64 {
    let lo = every_ops * 5 / 2;
    lo + SplitMix::new(seed).next_u64() % (every_ops / 4).max(1)
}

impl<A: BenchApp> Spec<A> {
    /// A fresh configuration for one job. Every job needs its own: an
    /// injection's fired flag is shared by every clone of a config, so a
    /// reused config runs failure-free after its first job.
    pub fn config(
        &self,
        level: InstrumentationLevel,
        recovery: RecoveryMode,
        with_kill: bool,
    ) -> C3Config {
        let cfg = C3Config {
            level,
            ..C3Config::every_ops(self.every_ops)
        }
        .with_recovery(recovery);
        if with_kill {
            cfg.with_failure(KILL_RANK, self.kill_at)
        } else {
            cfg
        }
    }

    /// The timed job's configuration.
    pub fn workload_config(&self) -> C3Config {
        self.config(InstrumentationLevel::Full, self.recovery, true)
    }

    /// Full checkpointing, no failure, full-restart recovery: the
    /// configuration of the reference run and of the ladder's top rung.
    pub fn failure_free_config(&self) -> C3Config {
        self.config(
            InstrumentationLevel::Full,
            RecoveryMode::FullRestart,
            false,
        )
    }

    /// What a correct timed job reports: the one repair of its kill.
    pub fn workload_expect(&self) -> Expect {
        match self.recovery {
            RecoveryMode::FullRestart => Expect {
                restarts: 1,
                splices: 0,
                same_commits: false,
            },
            RecoveryMode::Localized => Expect {
                restarts: 0,
                splices: 1,
                same_commits: false,
            },
        }
    }
}

/// What the failure-free reference run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference<O> {
    /// Per-rank outputs.
    pub outputs: Vec<O>,
    /// Highest committed checkpoint.
    pub commits: Option<u64>,
}

/// The checks a job's report must pass.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Full rollback-restarts the job must report.
    pub restarts: usize,
    /// Localized splices the job must report.
    pub splices: usize,
    /// Whether the job must commit as many checkpoints as the reference.
    pub same_commits: bool,
}

impl Expect {
    /// A failure-free job: no repair, and the reference's checkpoint count.
    pub fn failure_free() -> Self {
        Expect {
            restarts: 0,
            splices: 0,
            same_commits: true,
        }
    }

    /// Check a job's report against the reference.
    pub fn check<O: PartialEq + Debug>(
        &self,
        report: &c3_core::JobReport<O>,
        reference: &Reference<O>,
    ) -> Result<(), String> {
        if report.restarts != self.restarts || report.splices != self.splices {
            return Err(format!(
                "expected {} restart(s) and {} splice(s), got {} and {}",
                self.restarts, self.splices, report.restarts, report.splices
            ));
        }
        if report.outputs != reference.outputs {
            return Err(format!(
                "outputs {:?} differ from the reference {:?}",
                report.outputs, reference.outputs
            ));
        }
        if self.same_commits && report.last_committed != reference.commits {
            return Err(format!(
                "committed {:?} checkpoints, the reference {:?}",
                report.last_committed, reference.commits
            ));
        }
        Ok(())
    }
}
