//! The workload generator: a job stream per generator thread, a pure
//! function of the workload seed. The program under test only ever sees
//! the jobs built from these descriptors, never the seed.

/// Samples each credit-graph work-item's gamma source emits.
pub const CREDIT_QUOTA: u64 = 1024;
/// Work-items per credit-graph job.
pub const CREDIT_WORKITEMS: u32 = 4;
/// Sectors of the credit-graph gamma source (`limit_sec`); each sector
/// emits `CREDIT_QUOTA / CREDIT_SECTORS` samples.
pub const CREDIT_SECTORS: u32 = 4;
/// Sector variance per `PaperConfig::all()` index. Gamma shape is 1/v:
/// configs 1 and 3 draw α ≈ 0.72 (α ≤ 1, the correction step runs),
/// configs 2 and 4 draw α = 2 (no correction), so the four configs cover
/// polar vs ICDF transform × α ≤ 1 vs α > 1.
pub const CREDIT_VARIANCE: [f32; 4] = [1.39, 0.5, 1.39, 0.5];
/// Quotas the tiny jobs cycle through.
pub const TINY_QUOTAS: [u64; 3] = [256, 512, 1024];

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TinySession,
    CreditGraph,
    HttpTiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TinySession,
        Workload::CreditGraph,
        Workload::HttpTiny,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TinySession => "tiny-session",
            Workload::CreditGraph => "credit-graph",
            Workload::HttpTiny => "http-tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Descriptors generated per thread. A run that outlives its stream
    /// wraps around; the sizes leave headroom over what the reference
    /// machine (2 cores) completes in 60 s, so wrapping is the exception.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::TinySession => 1 << 17,
            Workload::CreditGraph => 1 << 15,
            Workload::HttpTiny => 1 << 16,
        }
    }
}

/// One job as the generator describes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobDesc {
    /// Samples per work-item of the source kernel.
    pub quota: u64,
    pub workitems: u32,
    /// Source-kernel seed.
    pub seed: u32,
    /// The seed is shared by every thread of the run (a cache hit once
    /// the first copy completed).
    pub shared: bool,
    /// Priority lane: 0 high, 1 normal, 2 low.
    pub lane: u8,
    /// `PaperConfig::all()` index (credit-graph only; 0 otherwise).
    pub config: u8,
}

impl JobDesc {
    /// Source samples the job delivers.
    pub fn samples(&self) -> u64 {
        self.quota * self.workitems as u64
    }
}

/// SplitMix64: a tiny, well-mixed generator for the stream draws.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The job stream of generator thread `thread` (< 8) for `seed`.
///
/// Unique seeds are `base ^ (thread << 28 | index)` — a bijection, so no
/// two unique jobs of one run share a seed. tiny jobs: quota cycles
/// 256/512/1024, every fourth job takes the run-wide seed of its quota,
/// lanes rotate high/normal/low. credit jobs: config cycles 1..4, every
/// seed unique, normal lane.
pub fn stream(workload: Workload, seed: u64, thread: u32, len: usize) -> Vec<JobDesc> {
    assert!(thread < 8, "thread id must fit the seed layout");
    assert!(len <= 1 << 28, "stream index must fit the seed layout");
    let mut run = SplitMix(seed);
    let base = run.next() as u32;
    let shared: [u32; 3] = [run.next() as u32, run.next() as u32, run.next() as u32];
    (0..len as u32)
        .map(|i| {
            let unique = base ^ (thread << 28 | i);
            match workload {
                Workload::TinySession | Workload::HttpTiny => {
                    let q = (i % 3) as usize;
                    let is_shared = i % 4 == 3;
                    JobDesc {
                        quota: TINY_QUOTAS[q],
                        workitems: 1,
                        seed: if is_shared { shared[q] } else { unique },
                        shared: is_shared,
                        lane: (i % 3) as u8,
                        config: 0,
                    }
                }
                Workload::CreditGraph => JobDesc {
                    quota: CREDIT_QUOTA,
                    workitems: CREDIT_WORKITEMS,
                    seed: unique,
                    shared: false,
                    lane: 1,
                    config: (i % 4) as u8,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(d: &JobDesc) -> (u64, u32, bool, u8, u8, u64) {
        (
            d.quota,
            d.workitems,
            d.shared,
            d.lane,
            d.config,
            d.samples(),
        )
    }

    #[test]
    fn same_seed_same_stream() {
        for w in Workload::ALL {
            for thread in 0..2 {
                assert_eq!(stream(w, 42, thread, 500), stream(w, 42, thread, 500));
            }
        }
    }

    #[test]
    fn other_seed_other_seeds_same_shape() {
        for w in Workload::ALL {
            let a = stream(w, 1, 0, 600);
            let b = stream(w, 2, 0, 600);
            assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
            let shapes = |s: &[JobDesc]| s.iter().map(shape).collect::<Vec<_>>();
            assert_eq!(shapes(&a), shapes(&b));
            let samples = |s: &[JobDesc]| s.iter().map(JobDesc::samples).sum::<u64>();
            assert_eq!(samples(&a), samples(&b));
        }
    }

    #[test]
    fn unique_seeds_never_repeat_and_shared_seeds_match_across_threads() {
        let mut seen = std::collections::HashSet::new();
        for thread in 0..2 {
            for d in stream(Workload::CreditGraph, 9, thread, 4096) {
                assert!(seen.insert(d.seed), "credit seeds are unique");
            }
        }
        let t0 = stream(Workload::TinySession, 9, 0, 24);
        let t1 = stream(Workload::TinySession, 9, 1, 24);
        for (a, b) in t0.iter().zip(&t1) {
            assert_eq!(a.shared, b.shared);
            assert_eq!(a.seed == b.seed, a.shared);
        }
    }

    #[test]
    fn mix_covers_every_shape() {
        let tiny = stream(Workload::TinySession, 3, 0, 12);
        for q in TINY_QUOTAS {
            assert!(tiny.iter().any(|d| d.quota == q && d.shared));
            assert!(tiny.iter().any(|d| d.quota == q && !d.shared));
        }
        for lane in 0..3 {
            assert!(tiny.iter().any(|d| d.lane == lane));
        }
        let credit = stream(Workload::CreditGraph, 3, 0, 4);
        let configs: Vec<u8> = credit.iter().map(|d| d.config).collect();
        assert_eq!(configs, vec![0, 1, 2, 3]);
    }
}
