//! The line a worker process prints must parse back to what it measured.

use perfbench::bench::WorkerResult;

#[test]
fn worker_line_round_trips() {
    let w = WorkerResult {
        setup_s: 0.5,
        peak_rss_mb: 54.25,
        attempted: 3,
        failed: 1,
        job_s: vec![0.5512345678901234, 0.25],
        bytes_per_ckpt: vec![191926.2],
        reference:
            "Reference { outputs: [(1, 2), (3, 4)], commits: Some(30) }".into(),
    };
    assert_eq!(WorkerResult::parse(&w.to_line()), Ok(w));
}

#[test]
fn a_worker_with_no_passing_job_round_trips() {
    let w = WorkerResult {
        setup_s: 1.0,
        peak_rss_mb: 10.0,
        attempted: 2,
        failed: 2,
        job_s: vec![],
        bytes_per_ckpt: vec![],
        reference: "r".into(),
    };
    assert_eq!(WorkerResult::parse(&w.to_line()), Ok(w));
}

#[test]
fn foreign_lines_are_rejected() {
    assert!(WorkerResult::parse("job_s 0.5 s").is_err());
    assert!(WorkerResult::parse("perfbench-worker setup_s=x").is_err());
}
