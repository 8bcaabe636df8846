//! The closed-loop load generators: build the system under test, feed it the
//! generated jobs from two threads, record every job, and re-run a
//! sample of the jobs directly to check the outputs.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dwi_core::backend::{ExecutionPlan, FunctionalDecoupled, RunReport};
use dwi_core::graph::{self, GraphPlan, GraphReport, KernelGraph};
use dwi_core::{credit_pipeline, PaperConfig, TruncatedNormalKernel};
use dwi_rng::KernelConfig;
use dwi_runtime::{JobOutput, JobSpec, Priority, Runtime, RuntimeConfig, TunedKnobs};
use dwi_server::client;
use dwi_server::gateway::{self, GatewayConfig, RunningGateway};
use dwi_trace::Recorder;

use crate::gen::{self, JobDesc, Workload};

/// Generator threads (one per core of the 2-core reference machine).
pub const THREADS: u32 = 2;
/// Runtime worker threads.
pub const WORKERS: usize = 2;
/// Jobs each tiny-session thread keeps in flight.
pub const SESSION_WINDOW: usize = 16;
/// `WindowAggregate` width of the credit pipeline.
pub const CREDIT_WINDOW: u32 = 8;
/// Flight-recorder capacity of the traced run: holds every timeline
/// between two dumps at the reference machine's rates.
pub const TRACED_FLIGHT_CAPACITY: usize = 1 << 16;
/// Where the http-tiny gateway listens (an OS-assigned port when taken).
/// Every run reuses one port, below the ephemeral range, so the TIME_WAIT
/// sockets a connection-per-request client leaves behind recycle on the
/// same 4-tuples run after run, instead of piling up across ports until
/// the kernel's TIME_WAIT table overflows and throughput collapses.
const HTTP_LISTEN: &str = "127.0.0.1:29517";
/// Long-poll timeout of the http-tiny wait call.
const WAIT_TIMEOUT_MS: u64 = 30_000;

/// The system under test: an in-process runtime, or a loopback gateway.
pub enum Target {
    Runtime(Runtime),
    Gateway(RunningGateway),
}

impl Target {
    /// Build the target for `workload`. `recorder` (traced runs only)
    /// raises the flight-recorder capacity and collects runtime metrics.
    pub fn build(workload: Workload, recorder: Option<&Recorder>) -> Self {
        match workload {
            Workload::TinySession | Workload::CreditGraph => {
                let mut cfg = RuntimeConfig::tuned(&TunedKnobs::reference(WORKERS));
                if let Some(rec) = recorder {
                    cfg = cfg
                        .flight_capacity(TRACED_FLIGHT_CAPACITY)
                        .trace(rec.sink());
                }
                Target::Runtime(Runtime::new(cfg))
            }
            // The gateway builds its own runtime (fixed flight capacity,
            // its own recorder); it exposes neither knob.
            Workload::HttpTiny => Target::Gateway(
                gateway::start(GatewayConfig::new(WORKERS), HTTP_LISTEN, None)
                    .or_else(|_| gateway::start(GatewayConfig::new(WORKERS), "127.0.0.1:0", None))
                    .expect("bind a loopback gateway"),
            ),
        }
    }

    /// The runtime that executes the jobs.
    pub fn runtime(&self) -> &Runtime {
        match self {
            Target::Runtime(rt) => rt,
            Target::Gateway(gw) => gw.gateway().runtime(),
        }
    }

    /// Stop serving and join every thread the target started.
    pub fn shutdown(self) {
        match self {
            Target::Runtime(rt) => drop(rt),
            Target::Gateway(gw) => gw.stop(),
        }
    }
}

/// The generated inputs of one run: a descriptor stream per thread and,
/// for http-tiny, the rendered JSON specs.
pub struct Streams {
    pub workload: Workload,
    pub descs: Vec<Vec<JobDesc>>,
    pub http: Vec<Vec<String>>,
}

impl Streams {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let descs: Vec<Vec<JobDesc>> = (0..THREADS)
            .map(|t| gen::stream(workload, seed, t, workload.stream_len()))
            .collect();
        let http = match workload {
            Workload::HttpTiny => descs
                .iter()
                .map(|s| s.iter().map(http_spec).collect())
                .collect(),
            _ => Vec::new(),
        };
        Self {
            workload,
            descs,
            http,
        }
    }

    pub fn desc(&self, thread: usize, index: usize) -> &JobDesc {
        let s = &self.descs[thread];
        &s[index % s.len()]
    }
}

fn priority(lane: u8) -> Priority {
    [Priority::High, Priority::Normal, Priority::Low][lane as usize]
}

/// The graph and plan a descriptor stands for: what the runtime runs and
/// what the output check re-runs directly.
pub fn job_graph(workload: Workload, d: &JobDesc) -> (KernelGraph, GraphPlan) {
    match workload {
        Workload::TinySession | Workload::HttpTiny => (
            KernelGraph::single(Arc::new(TruncatedNormalKernel::new(1.5, d.quota, d.seed))),
            GraphPlan::new(ExecutionPlan::new(d.workitems)),
        ),
        Workload::CreditGraph => (
            credit_pipeline(credit_kernel_config(d), CREDIT_WINDOW, d.seed),
            GraphPlan::new(ExecutionPlan::new(d.workitems)),
        ),
    }
}

/// The gamma source configuration of a credit-graph job.
pub fn credit_kernel_config(d: &JobDesc) -> KernelConfig {
    let cfg = PaperConfig::all()[d.config as usize];
    KernelConfig {
        normal: cfg.normal_fpga,
        mt: cfg.mt,
        sector_variance: gen::CREDIT_VARIANCE[d.config as usize],
        limit_sec: gen::CREDIT_SECTORS,
        limit_main: (d.quota / gen::CREDIT_SECTORS as u64) as u32,
        limit_max_factor: 8,
        seed: d.seed as u64,
        break_id: 0,
    }
}

fn runtime_spec(workload: Workload, client: u32, d: &JobDesc) -> JobSpec {
    let (graph, plan) = job_graph(workload, d);
    let spec = if graph.is_single() {
        JobSpec::kernel(client, graph.source().clone(), plan.base, d.seed as u64)
    } else {
        JobSpec::graph(client, Arc::new(graph), plan, d.seed as u64)
    };
    spec.priority(priority(d.lane))
}

/// The canonical JSON spec of a tiny job.
pub fn http_spec(d: &JobDesc) -> String {
    let lane = ["high", "normal", "low"][d.lane as usize];
    format!(
        r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":{},"seed":{}}},"plan":{{"workitems":{}}},"priority":"{lane}"}}"#,
        d.quota, d.seed, d.workitems
    )
}

/// A delivered result kept for the output check.
pub enum Output {
    Kernel(Arc<RunReport>),
    Graph(Arc<GraphReport>),
    /// The gateway's `sample_hash` of the source samples.
    Hash(u64),
}

/// One job as the generator saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Index into the thread's stream.
    pub index: usize,
    /// Runtime job id (0 when submission itself failed).
    pub job: u64,
    /// Start of the first submission attempt.
    pub first_try: Instant,
    /// The admitting submission call.
    pub submit: (Instant, Instant),
    /// The call that delivered the result.
    pub harvest: (Instant, Instant),
    /// Would-block / 429 answers ridden out before admission.
    pub retries: u32,
    /// HTTP connections the job took (0 in process).
    pub calls: u32,
    pub failed: bool,
    /// Served from the result cache (session completions only).
    pub cache_hit: bool,
}

impl JobRecord {
    /// Submit-to-delivered latency.
    pub fn latency(&self) -> Duration {
        self.harvest.1 - self.first_try
    }
}

/// Sub-windows of a timed phase; throughput and latency are reported as
/// the median over them.
pub const WINDOWS: usize = 10;

/// When a phase's threads stop submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many jobs per thread (the untimed warm-up).
    Jobs(usize),
    /// A timed window from `start` to `end`, in [`WINDOWS`] sub-windows.
    Window { start: Instant, end: Instant },
}

impl Stop {
    fn reached(self, submitted: usize) -> bool {
        match self {
            Stop::Jobs(n) => submitted >= n,
            Stop::Window { end, .. } => Instant::now() >= end,
        }
    }

    /// The sub-window a job delivered at `done` counts in, if any.
    fn window(self, done: Instant) -> Option<usize> {
        let Stop::Window { start, end } = self else {
            return None;
        };
        if done < start || done >= end {
            return None;
        }
        let share = (done - start).as_secs_f64() / (end - start).as_secs_f64();
        Some(((share * WINDOWS as f64) as usize).min(WINDOWS - 1))
    }
}

/// What one generator thread recorded. Memory stays a few bytes per job
/// outside traced phases, so `peak_rss_mb` does not track throughput.
pub struct ThreadLog {
    stop: Stop,
    /// Latency (ms) of every successful job delivered inside each
    /// sub-window.
    pub latencies_ms: Vec<Vec<f32>>,
    /// Per sub-window: the first delivery (time, samples), the last
    /// delivery time, and the samples of every delivery. Rates are taken
    /// between the first and last delivery, so they are not quantized by
    /// whole jobs per window.
    pub first: Vec<Option<(Instant, u64)>>,
    pub last: Vec<Option<Instant>>,
    pub samples: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Traced phases only: `(k, records)` keeps the record of every job
    /// whose id is a multiple of `k`.
    pub records: Option<(u64, Vec<JobRecord>)>,
    /// Results kept for the output check, with their jobs.
    pub outputs: Vec<(JobRecord, Output)>,
    /// Stream index of the thread's next job.
    pub next: usize,
}

impl ThreadLog {
    fn new(stop: Stop, trace_every: Option<u64>) -> Self {
        Self {
            stop,
            latencies_ms: vec![Vec::new(); WINDOWS],
            first: vec![None; WINDOWS],
            last: vec![None; WINDOWS],
            samples: vec![0; WINDOWS],
            attempted: 0,
            failed: 0,
            records: trace_every.map(|k| (k, Vec::new())),
            outputs: Vec::new(),
            next: 0,
        }
    }

    /// The deterministic output-check sample: the first 48 jobs of a
    /// phase (every quota × seed-kind × lane, and every credit config),
    /// then every 61st up to job 4,880. The cap keeps the retained
    /// reports, and so `peak_rss_mb`, from growing with throughput.
    fn keep(n: u64) -> bool {
        n < 48 || (n.is_multiple_of(61) && n < 61 * 80)
    }

    fn push(&mut self, record: JobRecord, samples: u64, output: Option<Output>) {
        if let (false, Some(w)) = (record.failed, self.stop.window(record.harvest.1)) {
            let done = record.harvest.1;
            self.latencies_ms[w].push((record.latency().as_secs_f64() * 1e3) as f32);
            self.samples[w] += samples;
            self.first[w].get_or_insert((done, samples));
            self.last[w] = Some(done);
        }
        if let Some(out) = output.filter(|_| Self::keep(self.attempted)) {
            self.outputs.push((record.clone(), out));
        }
        self.attempted += 1;
        self.failed += u64::from(record.failed);
        if let Some((k, records)) = &mut self.records {
            if record.job.is_multiple_of(*k) {
                records.push(record);
            }
        }
    }
}

/// Run one closed-loop phase on every thread, each starting at its
/// stream position in `start`. In-flight jobs drain after the stop.
pub fn run_phase(
    target: &Target,
    streams: &Streams,
    start: &[usize],
    stop: Stop,
    trace_every: Option<u64>,
) -> Vec<ThreadLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as usize)
            .map(|t| {
                let from = start[t];
                let log = ThreadLog::new(stop, trace_every);
                scope.spawn(move || match (streams.workload, target) {
                    (Workload::TinySession, Target::Runtime(rt)) => {
                        session_thread(rt, streams, t, from, log)
                    }
                    (Workload::CreditGraph, Target::Runtime(rt)) => {
                        blocking_thread(rt, streams, t, from, log)
                    }
                    (Workload::HttpTiny, Target::Gateway(gw)) => {
                        http_thread(gw.addr, streams, t, from, log)
                    }
                    _ => unreachable!("target built for another workload"),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// tiny-session: a window of jobs in flight through one `Session`.
fn session_thread(
    rt: &Runtime,
    streams: &Streams,
    t: usize,
    from: usize,
    mut log: ThreadLog,
) -> ThreadLog {
    let stop = log.stop;
    let mut session = rt.session(t as u32);
    let mut pending: HashMap<u64, (usize, Instant, (Instant, Instant), u32)> = HashMap::new();
    let (mut i, mut first_try, mut retries) = (from, None, 0u32);
    loop {
        while session.in_flight() < SESSION_WINDOW && !stop.reached(i - from) {
            let d = streams.desc(t, i);
            let spec = runtime_spec(Workload::TinySession, t as u32, d);
            let call = Instant::now();
            let first = *first_try.get_or_insert(call);
            match session.try_submit(spec) {
                Ok(ticket) => {
                    pending.insert(ticket.id(), (i, first, (call, Instant::now()), retries));
                    (i, first_try, retries) = (i + 1, None, 0);
                }
                Err(rejected) => {
                    retries += 1;
                    if session.in_flight() == 0 {
                        std::thread::sleep(rejected.retry_after);
                    }
                    break;
                }
            }
        }
        if session.in_flight() == 0 {
            if stop.reached(i - from) {
                break;
            }
            continue;
        }
        let w0 = Instant::now();
        let done = session.wait_any(Duration::from_secs(60));
        let w1 = Instant::now();
        assert!(!done.is_empty(), "no completion within 60 s");
        for c in done {
            let (index, first_try, submit, retries) = pending
                .remove(&c.ticket.id())
                .expect("completion for a submitted ticket");
            let record = JobRecord {
                index,
                job: c.ticket.id(),
                first_try,
                submit,
                harvest: (w0, w1),
                retries,
                calls: 0,
                failed: c.result.is_err(),
                cache_hit: c.timeline.cache_hit,
            };
            let samples = streams.desc(t, index).samples();
            log.push(
                record,
                samples,
                c.result.ok().map(|o| Output::Kernel(o.into_report())),
            );
        }
    }
    log.next = i;
    log
}

/// credit-graph: `submit_blocking`, then `JobHandle::wait`.
fn blocking_thread(
    rt: &Runtime,
    streams: &Streams,
    t: usize,
    from: usize,
    mut log: ThreadLog,
) -> ThreadLog {
    let stop = log.stop;
    let mut i = from;
    while !stop.reached(i - from) {
        let spec = runtime_spec(Workload::CreditGraph, t as u32, streams.desc(t, i));
        let s0 = Instant::now();
        let handle = rt.submit_blocking(spec);
        let s1 = Instant::now();
        let (job, retries) = (handle.id(), u32::from(!handle.total_backoff().is_zero()));
        let result = handle.wait();
        let w1 = Instant::now();
        let record = JobRecord {
            index: i,
            job,
            first_try: s0,
            submit: (s0, s1),
            harvest: (s1, w1),
            retries,
            calls: 0,
            failed: result.is_err(),
            cache_hit: false,
        };
        let samples = streams.desc(t, i).samples();
        log.push(
            record,
            samples,
            result.ok().map(|o| Output::Graph(graph_output(o))),
        );
        i += 1;
    }
    log.next = i;
    log
}

fn graph_output(out: JobOutput) -> Arc<GraphReport> {
    match out {
        JobOutput::Graph(g) => g,
        other => panic!(
            "multi-stage job delivered {:?}",
            std::mem::discriminant(&other)
        ),
    }
}

/// http-tiny: POST the spec (riding out 429 with `Retry-After`), then
/// long-poll the job's wait route.
fn http_thread(
    addr: SocketAddr,
    streams: &Streams,
    t: usize,
    from: usize,
    mut log: ThreadLog,
) -> ThreadLog {
    let stop = log.stop;
    let mut i = from;
    while !stop.reached(i - from) {
        let body = &streams.http[t][i % streams.http[t].len()];
        let now = Instant::now();
        let mut record = JobRecord {
            index: i,
            job: 0,
            first_try: now,
            submit: (now, now),
            harvest: (now, now),
            retries: 0,
            calls: 0,
            failed: true,
            cache_hit: false,
        };
        i += 1;
        let posted = loop {
            record.calls += 1;
            let call = Instant::now();
            match client::post_json(addr, "/v1/jobs", None, body) {
                Ok(r) if r.status == 202 => break json_u64(r.text(), "id").map(|id| (id, call)),
                Ok(r) if r.status == 429 => {
                    record.retries += 1;
                    let secs = r
                        .header("Retry-After")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(1);
                    std::thread::sleep(Duration::from_secs(secs.clamp(1, 2)));
                }
                _ => break None,
            }
        };
        let Some((id, call)) = posted else {
            let end = Instant::now();
            (record.submit, record.harvest) = ((end, end), (end, end));
            log.push(record, 0, None);
            continue;
        };
        record.job = id;
        record.submit = (call, Instant::now());
        let path = format!("/v1/jobs/{id}/wait?timeout_ms={WAIT_TIMEOUT_MS}");
        let hash = loop {
            record.calls += 1;
            let w0 = Instant::now();
            let r = client::get(addr, &path, None);
            record.harvest = (w0, Instant::now());
            match r {
                Ok(r) if r.status == 204 => continue,
                Ok(r) if r.status == 200 => break done_hash(r.text()),
                _ => break None,
            }
        };
        record.failed = hash.is_none();
        let samples = streams.desc(t, record.index).samples();
        log.push(record, samples, hash.map(Output::Hash));
    }
    log.next = i;
    log
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    dwi_trace::json::parse(body)
        .ok()?
        .get(key)?
        .as_f64()
        .map(|v| v as u64)
}

/// The `sample_hash` of a `state: done` body.
fn done_hash(body: &str) -> Option<u64> {
    let v = dwi_trace::json::parse(body).ok()?;
    if v.get("state")?.as_str()? != "done" {
        return None;
    }
    let hash = v.get("result")?.get("sample_hash")?.as_str()?;
    u64::from_str_radix(hash.strip_prefix("fnv64:")?, 16).ok()
}

/// FNV-1a over the sample bit patterns, as the gateway renders it.
pub fn sample_hash(samples: &[Vec<f32>]) -> u64 {
    samples
        .iter()
        .flatten()
        .fold(dwi_core::digest::FNV_OFFSET, |h, v| {
            dwi_core::digest::fnv1a_fold(h, &v.to_bits().to_le_bytes())
        })
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Outcome of the output check.
#[derive(Default, Debug)]
pub struct Check {
    pub checked: u64,
    pub mismatches: u64,
    pub cache_hits: u64,
    pub shared: u64,
    pub unique: u64,
    pub configs: [u64; 4],
}

impl Check {
    /// The sample reached every kind of job the workload mixes.
    pub fn covered(&self, workload: Workload) -> bool {
        match workload {
            Workload::TinySession => self.cache_hits > 0 && self.checked > self.cache_hits,
            Workload::HttpTiny => self.shared > 0 && self.unique > 0,
            Workload::CreditGraph => self.configs.iter().all(|&c| c > 0),
        }
    }
}

/// Re-run every kept output's job of every phase (one log per thread)
/// directly through `graph::execute` on the functional-decoupled engine
/// and compare sample bits.
pub fn check_outputs(streams: &Streams, phases: &[&[ThreadLog]]) -> Check {
    let mut check = Check::default();
    for (t, log) in phases.iter().flat_map(|logs| logs.iter().enumerate()) {
        for (record, out) in &log.outputs {
            let d = streams.desc(t, record.index);
            let (g, plan) = job_graph(streams.workload, d);
            let expect = graph::execute(&FunctionalDecoupled, &g, &plan);
            let ok = match out {
                Output::Kernel(r) => same_bits(&r.samples, &expect.stages[0].samples),
                Output::Graph(r) => {
                    r.stages.len() == expect.stages.len()
                        && r.stages
                            .iter()
                            .zip(&expect.stages)
                            .all(|(a, b)| same_bits(&a.samples, &b.samples))
                }
                Output::Hash(h) => *h == sample_hash(&expect.stages[0].samples),
            };
            check.checked += 1;
            check.mismatches += u64::from(!ok);
            check.cache_hits += u64::from(record.cache_hit);
            if d.shared {
                check.shared += 1;
            } else {
                check.unique += 1;
            }
            check.configs[d.config as usize] += 1;
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_hash_folds_bits_in_order() {
        let a = sample_hash(&[vec![1.0, 2.0]]);
        assert_eq!(a, sample_hash(&[vec![1.0], vec![2.0]]));
        assert_ne!(a, sample_hash(&[vec![2.0, 1.0]]));
        assert_eq!(sample_hash(&[]), dwi_core::digest::FNV_OFFSET);
    }

    #[test]
    fn done_body_parses_to_its_hash() {
        let body = r#"{"id":3,"state":"done","result":{"sample_hash":"fnv64:00000000000000ff"}}"#;
        assert_eq!(done_hash(body), Some(255));
        assert_eq!(
            done_hash(r#"{"id":3,"state":"failed","error":"expired"}"#),
            None
        );
    }

    #[test]
    fn bit_comparison_sees_sign_of_zero() {
        assert!(same_bits(&[vec![0.0]], &[vec![0.0]]));
        assert!(!same_bits(&[vec![0.0]], &[vec![-0.0]]));
        assert!(!same_bits(&[vec![0.0]], &[vec![0.0, 1.0]]));
    }
}
