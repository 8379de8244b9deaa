//! Running one workload: set-up, the timed loop, and the traced run that
//! attributes the time to layers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c3_core::recovery::RankCheckpoint;
use c3_core::{
    run_job, C3Config, CheckpointPipeline, InstrumentationLevel, JobReport,
    ProcStats, RecoveryMode, TraceSink,
};
use ckptstore::{
    CheckpointStore, Decoder, Encoder, MemoryBackend, RankBlobKind, SaveLoad,
    StorageBackend,
};
use statesave::snapshot::{restore_from_bytes, snapshot_to_bytes};

use crate::report::{Metric, Outcome};
use crate::stats::{derived_diff, mean, median, quartiles};
use crate::timing::TimingBackend;
use crate::workload::{BenchApp, Expect, Reference, Spec, SplitMix, RANKS};

/// Worker processes per untraced run. On the 2-core reference host, job
/// times and peak RSS differ more between processes than between the
/// jobs of one process, so the run spreads its jobs over fresh processes
/// and reports medians across all of them. Each worker sets up once, so
/// `setup_s` is a median over `WORKERS` set-ups.
const WORKERS: u32 = 6;
/// Fewest timed jobs per worker, however short its share of `--seconds`.
const MIN_JOBS: u64 = 2;
/// Fewest rounds of the traced run: quartiles need a few samples.
const MIN_ROUNDS: usize = 3;
/// Repetitions of each single-call measurement in the traced run.
const REPS: usize = 5;
/// Checkpoints in the pipeline replay.
const REPLAY_CKPTS: u64 = 10;

/// Jobs run so far and the ones that failed a check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Run one job and check its report. A job that errors or fails a
    /// check counts as failed and yields `None`.
    fn job<A: BenchApp>(
        &mut self,
        nprocs: usize,
        cfg: &C3Config,
        backend: Option<Arc<dyn StorageBackend>>,
        app: &A,
        check: Option<(&Expect, &Reference<A::Output>)>,
    ) -> Option<JobReport<A::Output>> {
        self.attempted += 1;
        let verdict = run_job(nprocs, cfg, backend, app)
            .map_err(|e| format!("job failed: {e}"))
            .and_then(|rep| match check {
                Some((expect, reference)) => {
                    expect.check(&rep, reference).map(|()| rep)
                }
                None => Ok(rep),
            });
        match verdict {
            Ok(rep) => Some(rep),
            Err(e) => {
                eprintln!("perfbench: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One set-up: the failure-free reference, computed from scratch.
fn setup<A: BenchApp>(spec: &Spec<A>) -> Result<Reference<A::Output>, String> {
    let rep = run_job(RANKS, &spec.failure_free_config(), None, &spec.app)
        .map_err(|e| format!("reference job failed: {e}"))?;
    if rep.restarts != 0 || rep.splices != 0 {
        return Err("the failure-free reference job repaired a failure".into());
    }
    if rep.last_committed.is_none() {
        return Err("the reference job committed no checkpoint".into());
    }
    Ok(Reference {
        outputs: rep.outputs,
        commits: rep.last_committed,
    })
}

/// What one worker process measured, as it reports it on one line.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerResult {
    /// Its set-up time.
    pub setup_s: f64,
    /// Its peak resident set size.
    pub peak_rss_mb: f64,
    /// Jobs it ran.
    pub attempted: u64,
    /// Jobs that errored or failed a check.
    pub failed: u64,
    /// `JobReport::elapsed` of each job that passed its checks.
    pub job_s: Vec<f64>,
    /// Stored bytes per committed checkpoint of each such job.
    pub bytes_per_ckpt: Vec<f64>,
    /// The reference it checked against, printed; workers must agree.
    pub reference: String,
}

const WORKER_TAG: &str = "perfbench-worker";

fn join(xs: &[f64]) -> String {
    xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

impl WorkerResult {
    /// The line a worker prints.
    pub fn to_line(&self) -> String {
        format!(
            "{WORKER_TAG} setup_s={} peak_rss_mb={} attempted={} failed={} \
             job_s={} bytes_per_ckpt={} reference={}",
            self.setup_s,
            self.peak_rss_mb,
            self.attempted,
            self.failed,
            join(&self.job_s),
            join(&self.bytes_per_ckpt),
            self.reference
        )
    }

    /// Parse a line printed by [`WorkerResult::to_line`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let bad = || format!("malformed worker line: {line:?}");
        let rest = line.strip_prefix(WORKER_TAG).ok_or_else(bad)?;
        let (fields, reference) =
            rest.split_once(" reference=").ok_or_else(bad)?;
        let get = |key: &str| -> Result<&str, String> {
            fields
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(bad)
        };
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        let list = |v: &str| -> Result<Vec<f64>, String> {
            v.split(',').filter(|x| !x.is_empty()).map(num).collect()
        };
        let count = |v: &str| v.parse::<u64>().map_err(|_| bad());
        Ok(WorkerResult {
            setup_s: num(get("setup_s")?)?,
            peak_rss_mb: num(get("peak_rss_mb")?)?,
            attempted: count(get("attempted")?)?,
            failed: count(get("failed")?)?,
            job_s: list(get("job_s")?)?,
            bytes_per_ckpt: list(get("bytes_per_ckpt")?)?,
            reference: reference.to_owned(),
        })
    }
}

/// One worker of an untraced run: set up once, then start the workload's
/// own job, each with a fresh configuration and nothing attached, until
/// `budget`, counted from the start of the set-up, has passed.
pub fn run_worker<A: BenchApp>(
    spec: &Spec<A>,
    budget: Duration,
) -> Result<WorkerResult, String> {
    let t = Instant::now();
    let reference = setup(spec)?;
    let setup_s = t.elapsed().as_secs_f64();
    let expect = spec.workload_expect();
    let mut tally = Tally::default();
    let mut job_s = Vec::new();
    let mut bytes_per_ckpt = Vec::new();
    while tally.attempted < MIN_JOBS || t.elapsed() < budget {
        let cfg = spec.workload_config();
        let check = Some((&expect, &reference));
        if let Some(rep) = tally.job(RANKS, &cfg, None, &spec.app, check) {
            job_s.push(rep.elapsed.as_secs_f64());
            let commits = rep.last_committed.unwrap_or(0).max(1);
            bytes_per_ckpt
                .push(rep.storage_bytes_written as f64 / commits as f64);
        }
    }
    Ok(WorkerResult {
        setup_s,
        peak_rss_mb: crate::peak_rss_mb().unwrap_or(0.0),
        attempted: tally.attempted,
        failed: tally.failed,
        job_s,
        bytes_per_ckpt,
        reference: format!("{reference:?}"),
    })
}

/// The untraced run: `WORKERS` worker processes one after another, each
/// given an equal share of `budget`. `worker_cmd` builds the command that
/// starts one worker for a share.
pub fn run_untraced(
    budget: Duration,
    worker_cmd: impl Fn(Duration) -> std::process::Command,
) -> Result<Outcome, String> {
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let out = worker_cmd(budget / WORKERS)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a worker: {e}"))?;
        if !out.status.success() {
            return Err(format!("a worker failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        workers.push(WorkerResult::parse(line)?);
    }
    let pool = |f: fn(&WorkerResult) -> &[f64]| -> Vec<f64> {
        workers.iter().flat_map(|w| f(w).iter().copied()).collect()
    };
    let job_s = pool(|w| &w.job_s);
    let bytes_per_ckpt = pool(|w| &w.bytes_per_ckpt);
    let setup_s: Vec<f64> = workers.iter().map(|w| w.setup_s).collect();
    let rss: Vec<f64> = workers.iter().map(|w| w.peak_rss_mb).collect();
    let attempted: u64 = workers.iter().map(|w| w.attempted).sum();
    let failed: u64 = workers.iter().map(|w| w.failed).sum();
    let agree = workers.windows(2).all(|p| p[0].reference == p[1].reference);
    if !agree {
        eprintln!("perfbench: workers computed different references:");
        for w in &workers {
            eprintln!("  {}", w.reference);
        }
    }
    let ok = (attempted - failed) as f64 / attempted.max(1) as f64;
    let metrics = vec![
        Metric::measured("job_s", median(&job_s), "s"),
        // A mean, not a median: on cg-recover the bytes of one job move
        // in steps of about one rank's whole state (how many whole
        // states a job rewrites depends on thread timing), and a median
        // jumps between steps from run to run.
        Metric::measured("stored_bytes_per_ckpt", mean(&bytes_per_ckpt), "B"),
        Metric::measured("ok_frac", Some(ok), "frac"),
        Metric::measured("peak_rss_mb", median(&rss), "MB"),
        Metric::measured("setup_s", median(&setup_s), "s"),
    ];
    let per_worker: Vec<String> = workers
        .iter()
        .map(|w| format!("{:.4}", median(&w.job_s).unwrap_or(f64::NAN)))
        .collect();
    Ok(Outcome {
        correct: failed == 0 && agree,
        attempted,
        failed,
        summary: format!(
            "{}\nworker medians {} s; set-ups {} s; peak RSS {} MB",
            sample_summary("job_s", &job_s),
            per_worker.join(" "),
            join(&setup_s),
            join(&rss)
        ),
        metrics,
    })
}

/// `name: n samples, q1 / median / q3 / max` of job times.
fn sample_summary(name: &str, xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    let max = xs.iter().copied().fold(f64::NAN, f64::max);
    format!(
        "{name}: {} samples, q1 {q1:.4} median {:.4} q3 {q3:.4} max {max:.4} s",
        xs.len(),
        median(xs).unwrap_or(f64::NAN),
    )
}

/// The job variants the traced run alternates between, one of each per
/// round, so slow drift on the host hits every variant alike.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    /// The failure-free job at `None` on one rank: the serial baseline.
    OneRank,
    /// The failure-free job at one instrumentation level (the paper's
    /// four-version ladder), full-restart recovery.
    Rung(InstrumentationLevel),
    /// The workload's own job, its kill included.
    Workload,
    /// The failure-free job under localized recovery: pays the splice
    /// machinery's recording with nothing to repair.
    LocalizedFailureFree,
    /// The workload's own job with a `TraceSink` attached.
    Traced,
}

struct Sampled {
    variant: Variant,
    secs: Vec<f64>,
}

/// Sums of the per-rank protocol counters of a job's final attempt.
fn sum_stats(stats: &[ProcStats], f: impl Fn(&ProcStats) -> u64) -> f64 {
    stats.iter().map(f).sum::<u64>() as f64
}

/// The traced run: the ladder, the recovery twins and a traced job in
/// rounds for `budget`, then one job on a timing storage decorator whose
/// committed state feeds the statesave, ckptpipe and ckptstore timings.
pub fn run_traced<A: BenchApp>(
    spec: &Spec<A>,
    budget: Duration,
    seed: u64,
) -> Result<Outcome, String> {
    use InstrumentationLevel as L;
    let reference = setup(spec)?;
    let mut tally = Tally::default();
    let expect = spec.workload_expect();
    let ff = Expect::failure_free();
    let no_commit_check = Expect {
        same_commits: false,
        ..ff
    };

    let mut variants = vec![
        Variant::OneRank,
        Variant::Rung(L::None),
        Variant::Rung(L::Piggyback),
        Variant::Rung(L::ProtocolOnly),
        Variant::Rung(L::Full),
        Variant::Workload,
    ];
    if spec.recovery == RecoveryMode::Localized {
        variants.push(Variant::LocalizedFailureFree);
    }
    variants.push(Variant::Traced);
    let mut samples: Vec<Sampled> = variants
        .iter()
        .map(|&variant| Sampled {
            variant,
            secs: Vec::new(),
        })
        .collect();
    let mut analyze_ms = Vec::new();
    let mut race_ms = Vec::new();
    let mut records = 0usize;

    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for s in &mut samples {
            let fresh =
                |level| spec.config(level, RecoveryMode::FullRestart, false);
            let rep = match s.variant {
                Variant::OneRank => {
                    tally.job(1, &fresh(L::None), None, &spec.app, None)
                }
                Variant::Rung(level) => {
                    let e = if level.checkpoints() {
                        &ff
                    } else {
                        &no_commit_check
                    };
                    let check = Some((e, &reference));
                    tally.job(RANKS, &fresh(level), None, &spec.app, check)
                }
                Variant::Workload => {
                    let check = Some((&expect, &reference));
                    let cfg = spec.workload_config();
                    tally.job(RANKS, &cfg, None, &spec.app, check)
                }
                Variant::LocalizedFailureFree => {
                    let cfg =
                        spec.config(L::Full, RecoveryMode::Localized, false);
                    let check = Some((&ff, &reference));
                    tally.job(RANKS, &cfg, None, &spec.app, check)
                }
                Variant::Traced => {
                    let sink = TraceSink::new();
                    let cfg = spec.workload_config().with_trace(sink.clone());
                    let check = Some((&expect, &reference));
                    let rep = tally.job(RANKS, &cfg, None, &spec.app, check);
                    let t = Instant::now();
                    let analyzed = c3verify::analyze_sink(&sink);
                    analyze_ms.push(ms(t.elapsed()));
                    let t = Instant::now();
                    let raced = c3verify::race_check_sink(&sink);
                    race_ms.push(ms(t.elapsed()));
                    records = sink.len();
                    if !analyzed.is_clean() || !raced.is_clean() {
                        eprintln!(
                            "perfbench: trace is not c3verify-clean\n{}{}",
                            analyzed.render(),
                            raced.render()
                        );
                        tally.failed += 1;
                    }
                    rep
                }
            };
            if let Some(rep) = rep {
                s.secs.push(rep.elapsed.as_secs_f64());
            }
        }
        rounds += 1;
    }
    let times = |v: Variant| -> &[f64] {
        samples
            .iter()
            .find(|s| s.variant == v)
            .map_or(&[], |s| s.secs.as_slice())
    };
    let workload = times(Variant::Workload);

    // One job of the workload's own configuration on the timing
    // decorator. Its store then holds the final committed line, which the
    // layer timings below read back.
    let inner: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let timing = Arc::new(TimingBackend::new(inner.clone()));
    let rep = tally
        .job(
            RANKS,
            &spec.workload_config(),
            Some(timing.clone()),
            &spec.app,
            Some((&expect, &reference)),
        )
        .ok_or("the decorated job failed")?;
    let io = timing.counts();
    let layers = layer_timings(spec, inner, seed)?;

    let st = &rep.stats;
    let pb_self = derived_diff(
        times(Variant::Rung(L::Piggyback)),
        times(Variant::Rung(L::None)),
    );
    let proto_self = derived_diff(
        times(Variant::Rung(L::ProtocolOnly)),
        times(Variant::Rung(L::Piggyback)),
    );
    let app_state_self = derived_diff(
        times(Variant::Rung(L::Full)),
        times(Variant::Rung(L::ProtocolOnly)),
    );
    let trace_diff = derived_diff(times(Variant::Traced), workload);
    let med = |v: Variant| median(times(v));
    let full_s = med(Variant::Rung(L::Full)).unwrap_or(0.0);
    let proto_s = med(Variant::Rung(L::ProtocolOnly)).unwrap_or(0.0);
    let workload_s = median(workload).unwrap_or(0.0);
    let commits = rep.last_committed.unwrap_or(0) as f64;
    // The app-state checkpoint cost the layer timings explain, per the
    // run's committed checkpoints: one rank's snapshot encode and blob
    // staging, plus the initiator's drain wait.
    let explained =
        commits * (layers.encode_ms + layers.stage_ms + layers.drain_ms) / 1e3;
    let unattributed = if full_s > 0.0 {
        (full_s - proto_s - explained) / full_s
    } else {
        0.0
    };

    const LADDER: &str = "job_s on neuro-splice; no change on cg-recover";
    const CKPT: &str = "job_s and stored_bytes_per_ckpt on cg-recover; \
                        no change on neuro-splice";
    const RECOVER: &str = "job_s on cg-recover";
    const SPLICE: &str = "job_s on neuro-splice";
    let recovering = spec.recovery == RecoveryMode::FullRestart;
    let splicing = spec.recovery == RecoveryMode::Localized;
    let mut metrics = vec![
        Metric::layer(
            "apps.one_rank_s",
            med(Variant::OneRank),
            "s",
            "n/a (serial baseline)",
        ),
        Metric::layer(
            "simmpi.none_s",
            med(Variant::Rung(L::None)),
            "s",
            "job_s on neuro-splice",
        ),
        Metric::layer(
            "core.piggyback_s",
            med(Variant::Rung(L::Piggyback)),
            "s",
            LADDER,
        ),
        Metric::layer(
            "core.protocol_s",
            med(Variant::Rung(L::ProtocolOnly)),
            "s",
            LADDER,
        ),
        Metric::layer("bench.full_s", Some(full_s), "s", RECOVER),
        Metric::derived("core.piggyback_self_s", pb_self, "s", LADDER),
        Metric::derived("core.protocol_self_s", proto_self, "s", LADDER),
        Metric::derived(
            "bench.app_state_self_s",
            app_state_self,
            "s",
            RECOVER,
        ),
        Metric::layer("core.commits", Some(commits), "count", LADDER),
        Metric::layer(
            "core.late_logged",
            Some(sum_stats(st, |s| s.late_logged)),
            "count",
            LADDER,
        ),
        Metric::layer(
            "core.early_recorded",
            Some(sum_stats(st, |s| s.early_recorded)),
            "count",
            LADDER,
        ),
        Metric::layer(
            "core.collectives_logged",
            Some(sum_stats(st, |s| s.collectives_logged)),
            "count",
            LADDER,
        ),
        Metric::layer(
            "core.restarts",
            Some(rep.restarts as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "core.recovered_from",
            Some(rep.recovered_from.first().copied().unwrap_or(0) as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "core.replayed",
            Some(sum_stats(st, |s| {
                s.late_replayed + s.collectives_replayed + s.suppressed_sends
            })),
            "count",
            RECOVER,
        ),
        Metric::derived_if(
            recovering,
            "core.recovery_extra_s",
            || derived_diff(workload, times(Variant::Rung(L::Full))),
            "s",
            RECOVER,
        ),
        Metric::layer(
            "core.splices",
            Some(rep.splices as f64),
            "count",
            SPLICE,
        ),
        Metric::derived_if(
            splicing,
            "simmpi.tape_tax_s",
            || {
                derived_diff(
                    times(Variant::LocalizedFailureFree),
                    times(Variant::Rung(L::Full)),
                )
            },
            "s",
            SPLICE,
        ),
        Metric::derived_if(
            splicing,
            "simmpi.splice_extra_s",
            || derived_diff(workload, times(Variant::LocalizedFailureFree)),
            "s",
            SPLICE,
        ),
        Metric::layer(
            "statesave.encode_ms",
            Some(layers.encode_ms),
            "ms",
            RECOVER,
        ),
        Metric::layer(
            "statesave.decode_ms",
            Some(layers.decode_ms),
            "ms",
            RECOVER,
        ),
        Metric::layer(
            "statesave.snapshot_bytes",
            Some(layers.snapshot_bytes),
            "B",
            RECOVER,
        ),
        Metric::layer("ckptpipe.stage_ms", Some(layers.stage_ms), "ms", CKPT),
        Metric::layer("ckptpipe.drain_ms", Some(layers.drain_ms), "ms", CKPT),
        Metric::layer(
            "ckptpipe.dedup_hit_ratio",
            Some(layers.dedup_hit_ratio),
            "frac",
            CKPT,
        ),
        Metric::layer(
            "ckptpipe.stored_per_staged",
            Some(layers.stored_per_staged),
            "frac",
            CKPT,
        ),
        Metric::layer(
            "ckptpipe.chunks_written",
            Some(layers.chunks_written),
            "count",
            CKPT,
        ),
        Metric::layer(
            "ckptstore.put_calls",
            Some(io.put_calls as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.put_items",
            Some(io.put_items as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.put_bytes",
            Some(io.put_bytes as f64),
            "B",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.put_ms",
            Some(io.put_ns as f64 / 1e6),
            "ms",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.contains_calls",
            Some(io.contains_calls as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.get_calls",
            Some(io.get_calls as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.get_bytes",
            Some(io.get_bytes as f64),
            "B",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.get_ms",
            Some(io.get_ns as f64 / 1e6),
            "ms",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.delete_calls",
            Some(io.delete_calls as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.list_calls",
            Some(io.list_calls as f64),
            "count",
            RECOVER,
        ),
        Metric::layer(
            "ckptstore.restore_ms",
            Some(layers.restore_ms),
            "ms",
            RECOVER,
        ),
        Metric::layer(
            "c3verify.traced_job_s",
            med(Variant::Traced),
            "s",
            "none yet",
        ),
        Metric::layer(
            "c3verify.records",
            Some(records as f64),
            "count",
            "none yet",
        ),
        Metric::layer(
            "c3verify.analyze_ms",
            median(&analyze_ms),
            "ms",
            "none yet",
        ),
        Metric::layer("c3verify.race_ms", median(&race_ms), "ms", "none yet"),
        Metric::ratio(
            "bench.trace_overhead",
            trace_diff,
            med(Variant::Traced).unwrap_or(0.0) / workload_s,
            "x",
            "none",
        ),
        Metric::layer(
            "bench.unattributed_frac",
            Some(unattributed),
            "frac",
            "none",
        ),
    ];
    let unresolved = metrics.iter().filter(|m| m.is_unresolved()).count();
    metrics.push(Metric::layer(
        "bench.unresolved",
        Some(unresolved as f64),
        "count",
        "none",
    ));
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        summary: samples
            .iter()
            .map(|s| sample_summary(&format!("{:?}", s.variant), &s.secs))
            .collect::<Vec<_>>()
            .join("\n"),
        metrics,
    })
}

/// Per-layer timings taken outside the job, on its committed state.
struct Layers {
    encode_ms: f64,
    decode_ms: f64,
    snapshot_bytes: f64,
    restore_ms: f64,
    stage_ms: f64,
    drain_ms: f64,
    dedup_hit_ratio: f64,
    stored_per_staged: f64,
    chunks_written: f64,
}

const KINDS: [RankBlobKind; 3] = [
    RankBlobKind::State,
    RankBlobKind::Log,
    RankBlobKind::MpiObjects,
];

/// Read the final committed line back from `backend` and time:
/// `get_rank_blob` of every blob of every rank (`restore_ms`), the
/// application-state envelope's decode and encode, and a seeded replay
/// of that state through a fresh pipeline with the job's configuration.
fn layer_timings<A: BenchApp>(
    spec: &Spec<A>,
    backend: Arc<dyn StorageBackend>,
    seed: u64,
) -> Result<Layers, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let store = CheckpointStore::new(backend, RANKS);
    let line = store
        .latest_committed()
        .map_err(|e| err(&e))?
        .ok_or("the decorated job committed nothing")?;

    let mut restore_ms = Vec::with_capacity(REPS);
    let mut blobs = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        blobs.clear();
        for rank in 0..RANKS {
            for kind in KINDS {
                let b = store.get_rank_blob(line, rank, kind);
                blobs.push(b.map_err(|e| err(&e))?);
            }
        }
        restore_ms.push(ms(t.elapsed()));
    }

    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut states = Vec::with_capacity(RANKS);
    let mut rank_ckpts = Vec::with_capacity(RANKS);
    for per_rank in blobs.chunks(KINDS.len()) {
        let rc = RankCheckpoint::load(&mut Decoder::new(&per_rank[0]))
            .map_err(|e| err(&e))?;
        let mut state = None;
        for _ in 0..REPS {
            let t = Instant::now();
            let s = restore_from_bytes::<A::State>(&rc.app_state)
                .map_err(|e| err(&e))?;
            decode_ms.push(ms(t.elapsed()));
            state = Some(s);
        }
        let state = state.ok_or("no decode ran")?;
        for _ in 0..REPS {
            let t = Instant::now();
            let bytes = snapshot_to_bytes(&state);
            encode_ms.push(ms(t.elapsed()));
            if bytes != rc.app_state {
                return Err(
                    "state does not re-encode to its stored bytes".into()
                );
            }
        }
        states.push(state);
        rank_ckpts.push(rc);
    }
    let snapshot_bytes = rank_ckpts[0].app_state.len() as f64;

    // Replay: the committed state, changed by seeded solver-like steps,
    // checkpointed REPLAY_CKPTS times through a fresh pipeline. The log
    // and MPI-object blobs are the job's own, staged unchanged.
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let store = CheckpointStore::new(backend.clone(), RANKS);
    let pipe =
        CheckpointPipeline::new(store.clone(), spec.workload_config().io);
    let mut rng = SplitMix::new(seed);
    let mut stage_ms = Vec::new();
    let mut drain_ms = Vec::new();
    let replay = (|| -> ckptstore::StoreResult<()> {
        for ckpt in 1..=REPLAY_CKPTS {
            for rank in 0..RANKS {
                A::dirty(&mut states[rank], &mut rng);
                let rc = RankCheckpoint {
                    ckpt,
                    app_state: snapshot_to_bytes(&states[rank]),
                    ..rank_ckpts[rank].clone()
                };
                let mut enc = Encoder::new();
                rc.save(&mut enc);
                let state_blob = enc.into_bytes();
                let log = blobs[rank * KINDS.len() + 1].clone();
                let mpi = blobs[rank * KINDS.len() + 2].clone();
                let t = Instant::now();
                pipe.stage(ckpt, rank, RankBlobKind::State, state_blob)?;
                pipe.stage(ckpt, rank, RankBlobKind::Log, log)?;
                pipe.stage(ckpt, rank, RankBlobKind::MpiObjects, mpi)?;
                stage_ms.push(ms(t.elapsed()));
            }
            let t = Instant::now();
            pipe.drain(ckpt)?;
            drain_ms.push(ms(t.elapsed()));
            store.commit(ckpt)?;
            pipe.gc_keeping(ckpt)?;
        }
        Ok(())
    })();
    let ps = pipe.stats();
    pipe.shutdown();
    replay.map_err(|e| err(&e))?;
    let chunks = ps.chunks_written + ps.chunks_deduped;
    Ok(Layers {
        encode_ms: median(&encode_ms).unwrap_or(0.0),
        decode_ms: median(&decode_ms).unwrap_or(0.0),
        snapshot_bytes,
        restore_ms: median(&restore_ms).unwrap_or(0.0),
        stage_ms: median(&stage_ms).unwrap_or(0.0),
        drain_ms: median(&drain_ms).unwrap_or(0.0),
        dedup_hit_ratio: if chunks > 0 {
            ps.chunks_deduped as f64 / chunks as f64
        } else {
            0.0
        },
        stored_per_staged: if ps.bytes_staged > 0 {
            backend.bytes_written() as f64 / ps.bytes_staged as f64
        } else {
            0.0
        },
        chunks_written: ps.chunks_written as f64,
    })
}
