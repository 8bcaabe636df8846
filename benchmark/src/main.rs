//! The repository benchmark. One invocation runs one workload in its own
//! process:
//!
//! ```text
//! dwi-benchmark --workload <tiny-session|credit-graph|http-tiny> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is the traced run that gives the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). The exit code is
//! non-zero when an output mismatches or the output check missed a kind
//! of job. See `README.md` beside this crate.

mod drive;
mod gen;
mod probes;
mod spans;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{Check, Stop, Streams, Target, ThreadLog, WINDOWS};
use gen::Workload;
use stats::{median, Quantiles};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| e.to_string())? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Untimed warm-up jobs per thread: enough to fill the result cache and
/// fault in the allocator, and to make set-up an interval of real work.
fn warmup_jobs(workload: Workload) -> usize {
    match workload {
        Workload::TinySession => 2000,
        Workload::CreditGraph => 16,
        Workload::HttpTiny => 400,
    }
}

/// Everything a user pays before the first timed job: the runtime or
/// gateway, the generated specs, and the warm-up. Returns the target, the
/// inputs and each thread's next stream position.
fn setup(
    workload: Workload,
    seed: u64,
    recorder: Option<&dwi_trace::Recorder>,
) -> (Target, Streams, Vec<usize>) {
    let target = Target::build(workload, recorder);
    let streams = Streams::generate(workload, seed);
    let start = vec![0; drive::THREADS as usize];
    let warm = drive::run_phase(
        &target,
        &streams,
        &start,
        Stop::Jobs(warmup_jobs(workload)),
        None,
    );
    let next = warm.iter().map(|l| l.next).collect();
    (target, streams, next)
}

/// One timed closed-loop phase.
pub struct Phase {
    pub logs: Vec<ThreadLog>,
    pub start: Instant,
    pub end: Instant,
}

/// A timed phase of `seconds`; `trace_every` keeps the record of every
/// job whose id is a multiple of it (the traced run's span trees).
fn timed_phase(
    target: &Target,
    streams: &Streams,
    from: &[usize],
    seconds: f64,
    trace_every: Option<u64>,
) -> Phase {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let logs = drive::run_phase(
        target,
        streams,
        from,
        Stop::Window { start, end },
        trace_every,
    );
    Phase { logs, start, end }
}

/// End-to-end figures of a phase.
pub struct EndToEnd {
    pub jobs_per_s: f64,
    pub samples_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Jobs completed inside the window (the latency sample).
    pub completed: usize,
    /// Per-sub-window (jobs/s, p99 ms).
    pub windows: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// The records a traced phase kept.
    pub fn records(&self) -> impl Iterator<Item = &drive::JobRecord> {
        self.logs
            .iter()
            .flat_map(|l| l.records.iter().flat_map(|(_, r)| r))
    }

    /// Per-sub-window throughput and latency, medians over the windows.
    /// A window's rates count the deliveries after its first one over the
    /// time from its first to its last delivery.
    pub fn end_to_end(&self) -> EndToEnd {
        let mut lat = Vec::with_capacity(WINDOWS);
        let (mut jobs_rate, mut samples_rate) = (Vec::new(), Vec::new());
        for w in 0..WINDOWS {
            let l: Vec<f64> = self
                .logs
                .iter()
                .flat_map(|l| l.latencies_ms[w].iter().map(|&v| f64::from(v)))
                .collect();
            let first = self
                .logs
                .iter()
                .filter_map(|l| l.first[w])
                .min_by_key(|f| f.0);
            let last = self.logs.iter().filter_map(|l| l.last[w]).max();
            let samples: u64 = self.logs.iter().map(|l| l.samples[w]).sum();
            if let (Some((t0, s0)), Some(t1)) = (first, last) {
                let span = (t1 - t0).as_secs_f64();
                if span > 0.0 {
                    jobs_rate.push((l.len() - 1) as f64 / span);
                    samples_rate.push((samples - s0) as f64 / span);
                }
            }
            lat.push(l);
        }
        let quantiles: Vec<Quantiles> = lat.iter().map(|l| Quantiles::of(l.clone())).collect();
        let p50s: Vec<f64> = quantiles
            .iter()
            .filter(|q| q.n > 0)
            .map(|q| q.p50)
            .collect();
        let p99s: Vec<f64> = quantiles
            .iter()
            .filter(|q| q.n > 0)
            .map(|q| q.p99)
            .collect();
        EndToEnd {
            jobs_per_s: median(&jobs_rate),
            samples_per_s: median(&samples_rate),
            p50_ms: median(&p50s),
            p99_ms: median(&p99s),
            completed: lat.iter().map(Vec::len).sum(),
            windows: jobs_rate
                .iter()
                .copied()
                .zip(p99s.iter().copied())
                .collect(),
            attempted: self.logs.iter().map(|l| l.attempted).sum(),
            failed: self.logs.iter().map(|l| l.failed).sum(),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A metric for the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Print the output check's line and say whether it passed.
pub fn report_check(workload: Workload, check: &Check) -> bool {
    let covered = check.covered(workload);
    println!(
        "output check: {} jobs re-run through graph::execute on functional-decoupled, \
         {} mismatches (cache hits {}, shared seeds {}, unique seeds {}, configs {:?}){}",
        check.checked,
        check.mismatches,
        check.cache_hits,
        check.shared,
        check.unique,
        check.configs,
        if covered {
            ""
        } else {
            " — sample missed a kind of job"
        }
    );
    check.mismatches == 0 && covered
}

fn run_end_to_end(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let w = args.workload;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((target, _, _)) = kept.take() {
            Target::shutdown(target);
        }
        let t0 = Instant::now();
        kept = Some(setup(w, args.seed, None));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (target, streams, next) = kept.expect("at least one set-up");
    let phase = timed_phase(&target, &streams, &next, args.seconds as f64, None);
    target.shutdown();
    let e2e = phase.end_to_end();
    let check = drive::check_outputs(&streams, &[&phase.logs]);
    let failed = e2e.failed + check.mismatches;
    let attempted = e2e.attempted;
    println!(
        "{}: {} s closed loop, {} threads, {} workers, seed {}",
        w.name(),
        args.seconds,
        drive::THREADS,
        drive::WORKERS,
        args.seed
    );
    let metrics = vec![
        Metric::new("jobs_per_s", e2e.jobs_per_s, "1/s"),
        Metric::new("samples_per_s", e2e.samples_per_s, "1/s"),
        Metric::new("p50_ms", e2e.p50_ms, "ms"),
        Metric::new("p99_ms", e2e.p99_ms, "ms"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    for m in &metrics {
        println!("  {:<14} {:>14.6} {}", m.name, m.value, m.unit);
    }
    // Always 0 on a sound build, so it rides in the result line's
    // `attempted`/`failed` fields rather than among the metrics.
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("  {:<14} {:>14.6} ratio", "failed_share", failed_share);
    println!(
        "  latency sample: {} jobs completed in the window ({WINDOWS} sub-windows, medians); \
         {attempted} attempted, {failed} failed; set-ups {setups:.4?}",
        e2e.completed
    );
    println!("  sub-windows (jobs/s, p99 ms): {:.3?}", e2e.windows);
    let ok = report_check(w, &check);
    (ok, attempted, failed, metrics)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dwi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics) = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(&args)
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
