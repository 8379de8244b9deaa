//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run set-up, a metric table, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::process::{Command, ExitCode};
use std::time::Duration;

use c3_apps::{DenseCg, Neurosys};
use c3_core::RecoveryMode;
use perfbench::bench::{run_traced, run_untraced, run_worker};
use perfbench::report::Outcome;
use perfbench::workload::{kill_op, BenchApp, Spec, KILL_RANK, NAMES, RANKS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the worker processes an untraced run starts: the worker's
    /// share of `--seconds`, in milliseconds.
    worker_ms: Option<u64>,
    /// CPUs this process could use before it pinned itself.
    host_cores: usize,
    /// The one CPU every job runs on, if pinning worked.
    pinned_cpu: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker_ms = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--worker-ms" => worker_ms = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {NAMES:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be > 0")?,
        trace: trace.ok_or("--trace is required")?,
        worker_ms,
        host_cores: 0,
        pinned_cpu: None,
    })
}

fn run<A: BenchApp>(
    spec: Spec<A>,
    args: &Args,
) -> Result<Option<Outcome>, String> {
    if let Some(ms) = args.worker_ms {
        let result = run_worker(&spec, Duration::from_millis(ms))?;
        println!("{}", result.to_line());
        return Ok(None);
    }
    let cores_used = if args.pinned_cpu.is_some() {
        1
    } else {
        args.host_cores
    };
    let writers = match spec.workload_config().io.mode {
        c3_core::WriteMode::Async { writers, .. } => writers,
        c3_core::WriteMode::Sync => 0,
    };
    // The run set-up, recorded with every result.
    println!(
        "{{\"setup\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"host_cores\": {}, \"pinned_cpu\": {}, \
         \"ranks_per_job\": {RANKS}, \"pipeline_writers\": {writers}, \
         \"oversubscribed\": {}, \
         \"app\": \"{}\", \"every_ops\": {}, \"recovery\": \"{:?}\", \
         \"kill_rank\": {}, \"kill_at_op\": {}}}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.host_cores,
        args.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        RANKS + writers > cores_used,
        spec.app.params(),
        spec.every_ops,
        spec.recovery,
        KILL_RANK,
        spec.kill_at,
    );
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return run_traced(&spec, budget, args.seed).map(Some);
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot find this executable: {e}"))?;
    run_untraced(budget, |share| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--worker-ms", &share.as_millis().to_string()]);
        cmd
    })
    .map(Some)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts: every job of the run, in this process and
    // in the workers it starts, runs on one CPU.
    args.host_cores =
        std::thread::available_parallelism().map_or(0, |n| n.get());
    args.pinned_cpu = perfbench::pin_to_one_cpu();
    let (cg_k, neuro_k) = (200, 4000);
    let outcome = match args.workload.as_str() {
        "cg-recover" => run(
            Spec {
                name: "cg-recover",
                app: DenseCg::new(768, 600),
                every_ops: cg_k,
                recovery: RecoveryMode::FullRestart,
                kill_at: kill_op(cg_k, args.seed),
            },
            &args,
        ),
        _ => run(
            Spec {
                name: "neuro-splice",
                app: Neurosys::new(32, 3000),
                every_ops: neuro_k,
                recovery: RecoveryMode::Localized,
                kill_at: kill_op(neuro_k, args.seed),
            },
            &args,
        ),
    };
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(o)) => {
            print!("{}", o.table());
            println!("{}", o.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
