//! Direct layer probes for the traced run: each layer's public entry
//! point called on its own, outside the runtime, on the workload's own
//! job mix. Every call is recorded as a root span of its layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dwi_core::backend::{Backend, FunctionalDecoupled};
use dwi_core::graph;
use dwi_rng::{AdaptedMt, GammaKernel, MT19937};

use crate::drive::{self, Streams};
use crate::gen::{self, JobDesc, Workload};
use crate::spans::{Span, SpanLog};
use crate::stats::median;

/// Timed rounds per probe; a probe reports the median round.
const ROUNDS: usize = 5;
/// Shortest round: rounds repeat the job mix until at least this long.
const MIN_ROUND: Duration = Duration::from_millis(40);
/// MT words per `rng.mt` round.
const MT_WORDS: u32 = 1 << 20;
/// Accepted gamma samples per `rng.gamma` round.
const GAMMA_SAMPLES: u32 = 1 << 16;

/// The layer figures the probes measure.
pub struct Probes {
    pub mt_ns_per_word: f64,
    /// Per `PaperConfig::all()` index.
    pub gamma_ns_per_sample: [f64; 4],
    pub step_ns: f64,
    /// Kernel steps (pipeline attempts) per emitted sample; exact.
    pub attempts_per_sample: f64,
    pub execute_us: f64,
    /// Eq. 1 basis: modeled cycles per source sample; exact.
    pub cycles_per_sample: f64,
    pub graph_execute_us: f64,
}

/// Records root spans of one layer against a shared epoch.
struct Recorder<'a> {
    log: &'a mut SpanLog,
    epoch: Instant,
}

impl Recorder<'_> {
    fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.log.push(Span {
            name,
            layer,
            start: ns(t0),
            end: ns(t1),
            parent: None,
            job: 0,
            wait: false,
            failed: false,
        });
        out
    }
}

/// Median over [`ROUNDS`] of `round()`'s (elapsed, units) → elapsed per
/// unit in `scale` (1e9 for ns, 1e6 for µs).
fn per_unit(scale: f64, mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let values: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (took, units) = round();
            took.as_secs_f64() * scale / units.max(1) as f64
        })
        .collect();
    median(&values)
}

/// Repeat `pass` until a round lasts [`MIN_ROUND`]; returns (elapsed, Σ units).
fn round(mut pass: impl FnMut() -> u64) -> (Duration, u64) {
    let t0 = Instant::now();
    let mut units = 0;
    while t0.elapsed() < MIN_ROUND {
        units += pass();
    }
    (t0.elapsed(), units)
}

/// The workload's job mix: one full cycle of its stream's shapes.
fn mix(streams: &Streams) -> &[JobDesc] {
    let cycle = match streams.workload {
        Workload::TinySession | Workload::HttpTiny => 12,
        Workload::CreditGraph => 8,
    };
    &streams.descs[0][..cycle]
}

pub fn run(streams: &Streams, seed: u64, log: &mut SpanLog, epoch: Instant) -> Probes {
    let mut rec = Recorder { log, epoch };
    let w = streams.workload;
    let jobs: Vec<_> = mix(streams)
        .iter()
        .map(|d| drive::job_graph(w, d))
        .collect();

    let mut mt = AdaptedMt::new(MT19937, seed as u32);
    let mt_ns_per_word = per_unit(1e9, || {
        round(|| {
            rec.span("rng.mt", "rng", || {
                for _ in 0..MT_WORDS {
                    black_box(mt.next(true));
                }
            });
            MT_WORDS as u64
        })
    });

    let gamma_ns_per_sample = std::array::from_fn(|config| {
        let d = JobDesc {
            quota: gen::CREDIT_QUOTA,
            workitems: gen::CREDIT_WORKITEMS,
            seed: seed as u32,
            shared: false,
            lane: 1,
            config: config as u8,
        };
        let kcfg = drive::credit_kernel_config(&d);
        per_unit(1e9, || {
            round(|| {
                let mut kernel = GammaKernel::new(&kcfg, 0);
                rec.span("rng.gamma", "rng", || {
                    let mut accepted = 0;
                    while accepted < GAMMA_SAMPLES {
                        accepted += u32::from(black_box(kernel.step()).0.is_some());
                    }
                });
                GAMMA_SAMPLES as u64
            })
        })
    });

    // Kernel layer: instantiate + step every work-item to completion.
    let (mut steps, mut emitted) = (0u64, 0u64);
    let step_ns = per_unit(1e9, || {
        round(|| {
            let mut n = 0;
            for (g, plan) in &jobs {
                let kernel = g.source();
                rec.span("kernel.step_loop", "kernel", || {
                    for wid in plan.base.wid_base..plan.base.wid_base + plan.base.workitems {
                        let mut inst = kernel.instantiate(wid);
                        loop {
                            let step = black_box(inst.step());
                            n += 1;
                            emitted += u64::from(step.emit.is_some());
                            if step.done {
                                break;
                            }
                        }
                    }
                });
            }
            steps += n;
            n
        })
    });

    let (mut cycles, mut samples) = (0u64, 0u64);
    let execute_us = per_unit(1e6, || {
        round(|| {
            for (g, plan) in &jobs {
                let report = rec.span("backend.execute", "backend", || {
                    FunctionalDecoupled.execute(g.source().as_ref(), &plan.base)
                });
                cycles += report.cycles;
                samples += report.samples.iter().map(|s| s.len() as u64).sum::<u64>();
            }
            jobs.len() as u64
        })
    });

    let graph_execute_us = per_unit(1e6, || {
        round(|| {
            for (g, plan) in &jobs {
                black_box(rec.span("graph.execute", "graph", || {
                    graph::execute(&FunctionalDecoupled, g, plan)
                }));
            }
            jobs.len() as u64
        })
    });

    Probes {
        mt_ns_per_word,
        gamma_ns_per_sample,
        step_ns,
        attempts_per_sample: steps as f64 / emitted.max(1) as f64,
        execute_us,
        cycles_per_sample: cycles as f64 / samples.max(1) as f64,
        graph_execute_us,
    }
}
