//! The traced run: per-layer numbers for one workload.
//!
//! The run measures the workload twice, each for half of `--seconds`:
//! once untraced and once traced, so `trace.overhead_share` compares the
//! two. In the traced half the runtime's flight recorder is raised and
//! drained while the loop runs, the runtime's metrics recorder is on, and
//! every job becomes a span tree: the benchmark's own spans around its
//! calls into the runtime or gateway, with the job's `JobTimeline` phases
//! beneath. The direct layer probes follow. Spans are kept in memory and
//! written to `.bench_out/` at the end.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dwi_runtime::{JobTimeline, Runtime, PHASES};
use dwi_trace::Recorder;

use crate::drive::{self, Target, WORKERS};
use crate::gen::Workload;
use crate::probes;
use crate::spans::{layer_report, Span, SpanLog};
use crate::stats::{mean, Quantiles};
use crate::{report_check, setup, timed_phase, Metric, Phase};

/// Span trees are built for jobs whose id is a multiple of this: about
/// 20,000 jobs per traced half at the reference machine's rates, which
/// keeps the traced run's memory bounded.
fn trace_every(workload: Workload) -> u64 {
    match workload {
        Workload::TinySession => 16,
        Workload::CreditGraph => 1,
        Workload::HttpTiny => 4,
    }
}

/// Directory (relative to the working directory) the span logs go to.
const OUT_DIR: &str = ".bench_out";
/// Most spans written per log file (the report uses all of them).
const WRITE_LIMIT: usize = 200_000;

/// Drain the flight recorder every `interval` while `f` runs; returns
/// `f`'s result and the timeline of every job seen whose id is a multiple
/// of `every`, by job id.
fn collect_timelines<T>(
    rt: &Runtime,
    interval: Duration,
    every: u64,
    f: impl FnOnce() -> T,
) -> (T, HashMap<u64, JobTimeline>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut seen = HashMap::new();
            loop {
                let last = stop.load(Ordering::SeqCst);
                for tl in rt.flight_dump() {
                    if tl.job_id.is_multiple_of(every) {
                        seen.entry(tl.job_id).or_insert(tl);
                    }
                }
                if last {
                    return seen;
                }
                let t0 = Instant::now();
                while t0.elapsed() < interval && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        (out, collector.join().expect("flight collector panicked"))
    })
}

/// Sum of every series of a Prometheus family in `text`.
fn family(text: &str, name: &str) -> f64 {
    dwi_trace::metrics::parse_prometheus(text)
        .unwrap_or_default()
        .iter()
        .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .map(|(_, v)| v)
        .sum()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Build the span tree of every job of the traced phase.
fn job_spans(
    workload: Workload,
    phase: &Phase,
    timelines: &HashMap<u64, JobTimeline>,
    epoch: Instant,
    log: &mut SpanLog,
) -> usize {
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let (call_layer, submit_name, harvest_name) = match workload {
        Workload::TinySession => ("runtime", "session.try_submit", "session.wait_any"),
        Workload::CreditGraph => ("runtime", "runtime.submit_blocking", "handle.wait"),
        Workload::HttpTiny => ("server", "http.post", "http.wait"),
    };
    let mut missing = 0;
    for r in phase.records() {
        let span = |name, layer, a: Instant, b: Instant, parent| Span {
            name,
            layer,
            start: ns(a),
            end: ns(b.max(a)),
            parent,
            job: r.job,
            wait: false,
            failed: false,
        };
        let root = log.push(Span {
            failed: r.failed,
            ..span("job", "client", r.first_try, r.harvest.1, None)
        });
        log.push(Span {
            failed: r.retries > 0,
            ..span(submit_name, call_layer, r.submit.0, r.submit.1, Some(root))
        });
        log.push(span(
            harvest_name,
            call_layer,
            r.harvest.0,
            r.harvest.1,
            Some(root),
        ));
        let Some(tl) = timelines.get(&r.job) else {
            missing += 1;
            continue;
        };
        let Some(done) = tl.completed else {
            missing += 1;
            continue;
        };
        let job = log.push(span(
            "runtime.job",
            "runtime",
            tl.submitted,
            done,
            Some(root),
        ));
        for (name, start, dur) in tl.segments() {
            let layer = match name {
                "execute" => "backend",
                n if n.starts_with("stage") => "graph",
                _ => "runtime",
            };
            log.push(Span {
                wait: matches!(name, "queue" | "coalesce" | "dispatch"),
                ..span(name, layer, start, start + dur, Some(job))
            });
        }
    }
    missing
}

/// Per-layer metrics of the runtime: latencies and shares from the
/// sampled jobs' timelines, busy time and padding from the metrics
/// recorder's change over the phase (`before` → `after`).
fn runtime_metrics(
    phase: &Phase,
    timelines: &HashMap<u64, JobTimeline>,
    (before, after): (&str, &str),
    direct_execute_us: f64,
) -> Vec<Metric> {
    let delta = |name: &str| family(after, name) - family(before, name);
    let tls: Vec<&JobTimeline> = phase
        .records()
        .filter_map(|r| timelines.get(&r.job))
        .filter(|tl| tl.completed.is_some())
        .collect();
    let mut phase_us: BTreeMap<&str, Vec<f64>> = PHASES.iter().map(|&p| (p, Vec::new())).collect();
    let (mut e2e, mut tax) = (Vec::new(), Vec::new());
    for tl in &tls {
        let mut execute = Duration::ZERO;
        for (name, dur) in tl.phases() {
            if name == "execute" || name.starts_with("stage") {
                execute += dur;
            } else {
                phase_us.get_mut(name).expect("known phase").push(us(dur));
            }
        }
        if !tl.cache_hit {
            phase_us
                .get_mut("execute")
                .expect("execute phase")
                .push(us(execute));
        }
        let total = tl.e2e().expect("terminal");
        e2e.push(us(total));
        tax.push(us(total.saturating_sub(execute)));
    }
    let misses: Vec<&&JobTimeline> = tls.iter().filter(|t| !t.cache_hit).collect();
    let busy = delta("dwi_runtime_shard_latency_seconds_sum");
    let wall = (phase.end - phase.start).as_secs_f64();
    let records: Vec<_> = phase.records().collect();
    let retries: f64 = records.iter().map(|r| r.retries as f64).sum();
    let pad_count = delta("dwi_runtime_batch_pad_ratio_count");

    let mut out = Vec::new();
    let e2e_q = Quantiles::of(e2e);
    out.push(Metric::new("runtime.e2e_us.p50", e2e_q.p50, "us"));
    out.push(Metric::new("runtime.e2e_us.p99", e2e_q.p99, "us"));
    let execute_p50 = Quantiles::of(phase_us["execute"].clone()).p50;
    for &p in PHASES {
        let q = Quantiles::of(phase_us[p].clone());
        out.push(Metric::new(format!("runtime.{p}_us.p50"), q.p50, "us"));
        out.push(Metric::new(format!("runtime.{p}_us.p99"), q.p99, "us"));
    }
    out.push(Metric::new(
        "runtime.tax_us.p50",
        Quantiles::of(tax).p50,
        "us",
    ));
    out.push(Metric::new(
        "runtime.cache_hit_share",
        (tls.len() - misses.len()) as f64 / tls.len().max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.batch_occupancy",
        mean(misses.iter().map(|t| t.batch_occupancy.max(1) as f64)),
        "jobs",
    ));
    out.push(Metric::new(
        "runtime.pad_ratio",
        if pad_count > 0.0 {
            delta("dwi_runtime_batch_pad_ratio_sum") / pad_count
        } else {
            0.0
        },
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.would_block_share",
        retries / (records.len() as f64 + retries).max(1.0),
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.shards_per_job",
        mean(misses.iter().map(|t| t.shards as f64)),
        "shards",
    ));
    out.push(Metric::new(
        "runtime.worker_busy_share",
        busy / (WORKERS as f64 * wall),
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.execute_inflation",
        execute_p50 / direct_execute_us,
        "ratio",
    ));
    out
}

/// Per-layer metrics of the gateway (zeros on in-process workloads).
fn server_metrics(
    workload: Workload,
    phase: &Phase,
    timelines: &HashMap<u64, JobTimeline>,
) -> Vec<Metric> {
    let records: Vec<_> = phase.records().filter(|r| !r.failed).collect();
    let http = workload == Workload::HttpTiny;
    let post = Quantiles::of(
        records
            .iter()
            .map(|r| us(r.submit.1 - r.submit.0))
            .collect(),
    );
    let wait = Quantiles::of(
        records
            .iter()
            .map(|r| us(r.harvest.1 - r.harvest.0))
            .collect(),
    );
    let tax = Quantiles::of(
        records
            .iter()
            .filter_map(|r| {
                let inner = timelines.get(&r.job)?.e2e()?;
                Some(us(r.latency().saturating_sub(inner)))
            })
            .collect(),
    );
    let calls: f64 = records.iter().map(|r| r.calls as f64).sum();
    let retries: f64 = records.iter().map(|r| r.retries as f64).sum();
    let posts = records.len() as f64 + retries;
    let on = |v: f64| if http { v } else { 0.0 };
    vec![
        Metric::new("server.post_us.p50", on(post.p50), "us"),
        Metric::new("server.post_us.p99", on(post.p99), "us"),
        Metric::new("server.wait_us.p50", on(wait.p50), "us"),
        Metric::new("server.wait_us.p99", on(wait.p99), "us"),
        Metric::new("server.tax_us.p50", on(tax.p50), "us"),
        Metric::new(
            "server.connections_per_job",
            on(calls / records.len().max(1) as f64),
            "count",
        ),
        Metric::new(
            "server.http_429_share",
            on(retries / posts.max(1.0)),
            "ratio",
        ),
    ]
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> (bool, u64, u64, Vec<Metric>) {
    let half = seconds as f64 / 2.0;
    let epoch = Instant::now();

    let (target, streams, next) = setup(workload, seed, None);
    let plain = timed_phase(&target, &streams, &next, half, None);
    target.shutdown();
    let plain_e2e = plain.end_to_end();

    let recorder = Recorder::new();
    let (target, streams, next) = setup(workload, seed, Some(&recorder));
    let snapshot = |t: &Target| match t {
        Target::Runtime(_) => recorder.prometheus(),
        Target::Gateway(gw) => gw.gateway().recorder().prometheus(),
    };
    // The gateway's runtime keeps its default flight capacity: drain it
    // often enough that no timeline is overwritten between dumps.
    let interval = match target {
        Target::Runtime(_) => Duration::from_millis(500),
        Target::Gateway(_) => Duration::from_millis(20),
    };
    let every = trace_every(workload);
    let before = snapshot(&target);
    let (phase, timelines) = collect_timelines(target.runtime(), interval, every, || {
        timed_phase(&target, &streams, &next, half, Some(every))
    });
    let after = snapshot(&target);
    target.shutdown();
    let traced_e2e = phase.end_to_end();
    let check = drive::check_outputs(&streams, &[&plain.logs, &phase.logs]);

    let mut log = SpanLog::default();
    let missing = job_spans(workload, &phase, &timelines, epoch, &mut log);
    let (rows, residual) = layer_report(&log, "job");
    let mut probe_log = SpanLog::default();
    let p = probes::run(&streams, seed, &mut probe_log, epoch);
    let (probe_rows, _) = layer_report(&probe_log, "job");
    // Probe spans are roots, so appending them keeps every parent index.
    log.spans.extend(probe_log.spans);

    let mut metrics = vec![Metric::new("rng.mt_ns_per_word", p.mt_ns_per_word, "ns")];
    for (k, v) in p.gamma_ns_per_sample.iter().enumerate() {
        metrics.push(Metric::new(
            format!("rng.gamma_ns_per_sample.config{}", k + 1),
            *v,
            "ns",
        ));
    }
    metrics.extend([
        Metric::new("kernel.step_ns", p.step_ns, "ns"),
        Metric::new("kernel.attempts_per_sample", p.attempts_per_sample, "ratio"),
        Metric::new("backend.execute_us", p.execute_us, "us"),
        Metric::new("backend.cycles_per_sample", p.cycles_per_sample, "cycles"),
        Metric::new("graph.execute_us", p.graph_execute_us, "us"),
        Metric::new(
            "graph.source_share",
            p.execute_us / p.graph_execute_us,
            "ratio",
        ),
    ]);
    metrics.extend(runtime_metrics(
        &phase,
        &timelines,
        (&before, &after),
        p.graph_execute_us,
    ));
    metrics.extend(server_metrics(workload, &phase, &timelines));
    metrics.push(Metric::new("layers.residual_share", residual, "ratio"));
    metrics.push(Metric::new(
        "trace.overhead_share",
        1.0 - traced_e2e.jobs_per_s / plain_e2e.jobs_per_s,
        "ratio",
    ));

    println!(
        "{} traced run, seed {seed}: {half} s untraced ({:.1} jobs/s) + {half} s traced \
         ({:.1} jobs/s, {} jobs; span trees for job ids divisible by {every}: {} timelines, \
         {missing} sampled jobs without one)",
        workload.name(),
        plain_e2e.jobs_per_s,
        traced_e2e.jobs_per_s,
        traced_e2e.attempted,
        timelines.len(),
    );
    println!(
        "  {:<8} {:<6} {:>9} {:>12} {:>12} {:>7}",
        "layer", "source", "count", "busy_ms", "wait_ms", "failed"
    );
    for (source, table) in [("loop", &rows), ("probe", &probe_rows)] {
        for (layer, row) in table {
            println!(
                "  {:<8} {:<6} {:>9} {:>12.3} {:>12.3} {:>7}",
                layer,
                source,
                row.count,
                row.busy as f64 / 1e6,
                row.wait as f64 / 1e6,
                row.failed
            );
        }
    }
    for m in &metrics {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if workload != Workload::HttpTiny {
        println!("  (server.* read 0: this workload does not use the gateway)");
    }

    let path =
        std::path::Path::new(OUT_DIR).join(format!("{}-seed{seed}-spans.tsv", workload.name()));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            log.write_tsv(&mut w, WRITE_LIMIT)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => println!(
            "  spans: {} recorded, first {} written to {}",
            log.spans.len(),
            log.spans.len().min(WRITE_LIMIT),
            path.display()
        ),
        Err(e) => println!("  spans: {} recorded, not written ({e})", log.spans.len()),
    }

    let ok = report_check(workload, &check);
    let attempted = plain_e2e.attempted + traced_e2e.attempted;
    let failed = plain_e2e.failed + traced_e2e.failed + check.mismatches;
    (ok, attempted, failed, metrics)
}
