//! Spans the benchmark records around its calls into each layer, kept in
//! memory during the traced run and written out when it ends.
//!
//! Self time: every instant of a span tree belongs to exactly one span —
//! the deepest span covering it, the later-starting one among equally
//! deep overlapping siblings. For a properly nested tree that is the span
//! minus the time its child spans cover; the rule only adds a tie-break
//! for siblings that overlap (a client call and the runtime work it
//! started). A root's self time is the part of its interval no layer
//! covers: the residual.

use std::collections::BTreeMap;
use std::io::Write;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Job id the span belongs to (0 for direct layer probes).
    pub job: u64,
    /// The span is time spent waiting for another party (queue residency,
    /// a blocking harvest), not work.
    pub wait: bool,
    /// The call failed or was answered with a retry (429, would-block).
    pub failed: bool,
}

/// The in-memory span log.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(&mut self, span: Span) -> usize {
        debug_assert!(span.end >= span.start);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span (same indexing as `spans`).
    pub fn self_times(&self) -> Vec<u64> {
        let n = self.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = vec![0u64; n];
        for root in roots {
            // The tree, with depths, clipped to the root's interval.
            let (r0, r1) = (self.spans[root].start, self.spans[root].end);
            let mut tree = Vec::new();
            let mut stack = vec![(root, 0u32)];
            while let Some((i, depth)) = stack.pop() {
                let s = &self.spans[i];
                let (a, b) = (s.start.clamp(r0, r1), s.end.clamp(r0, r1));
                tree.push((i, depth, a, b));
                stack.extend(children[i].iter().map(|&c| (c, depth + 1)));
            }
            let mut cuts: Vec<u64> = tree.iter().flat_map(|&(_, _, a, b)| [a, b]).collect();
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let owner = tree
                    .iter()
                    .filter(|&&(_, _, a, b)| a <= w[0] && w[1] <= b)
                    .max_by_key(|&&(i, depth, a, _)| (depth, a, i))
                    .expect("the root covers every cut");
                out[owner.0] += w[1] - w[0];
            }
        }
        out
    }

    /// Write the log as tab-separated lines (name, layer, start, end,
    /// parent, job, wait, failed), at most `limit` spans.
    pub fn write_tsv(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        writeln!(
            out,
            "name\tlayer\tstart_ns\tend_ns\tparent\tjob\twait\tfailed"
        )?;
        for s in self.spans.iter().take(limit) {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.layer, s.start, s.end, parent, s.job, s.wait as u8, s.failed as u8
            )?;
        }
        Ok(())
    }
}

/// Per-layer totals of a span log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    pub count: u64,
    /// Self time of the layer's work spans, ns.
    pub busy: u64,
    /// Self time of the layer's wait spans, ns.
    pub wait: u64,
    pub failed: u64,
}

/// Layer rows keyed by layer name, plus the residual share of the job
/// roots: Σ root self time / Σ root duration over spans named `root`.
pub fn layer_report(log: &SpanLog, root: &str) -> (BTreeMap<&'static str, LayerRow>, f64) {
    let selfs = log.self_times();
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let (mut residual, mut e2e) = (0u64, 0u64);
    for (s, &own) in log.spans.iter().zip(&selfs) {
        let row = rows.entry(s.layer).or_default();
        row.count += 1;
        row.failed += s.failed as u64;
        if s.wait {
            row.wait += own;
        } else {
            row.busy += own;
        }
        if s.parent.is_none() && s.name == root {
            residual += own;
            e2e += s.end - s.start;
        }
    }
    let share = if e2e == 0 {
        0.0
    } else {
        residual as f64 / e2e as f64
    };
    (rows, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            job: 1,
            wait: false,
            failed: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_nested_tree() {
        // job [0,100): submit [0,10), runtime [5,90) with execute [20,60),
        // harvest [90,98). Gaps [98,100) stay with the root.
        let mut log = SpanLog::default();
        let job = log.push(span("job", "client", 0, 100, None));
        let submit = log.push(span("submit", "session", 0, 10, Some(job)));
        let rt = log.push(span("runtime", "runtime", 5, 90, Some(job)));
        let exec = log.push(span("execute", "backend", 20, 60, Some(rt)));
        let harvest = log.push(Span {
            wait: true,
            ..span("harvest", "session", 90, 98, Some(job))
        });
        let selfs = log.self_times();
        assert_eq!(selfs[exec], 40);
        // runtime: 85 long, minus its child's 40.
        assert_eq!(selfs[rt], 45);
        // submit overlaps the later-starting runtime sibling on [5,10).
        assert_eq!(selfs[submit], 5);
        assert_eq!(selfs[harvest], 8);
        assert_eq!(selfs[job], 2);
        assert_eq!(selfs.iter().sum::<u64>(), 100, "self times tile the root");

        let (rows, residual) = layer_report(&log, "job");
        assert_eq!(
            rows["session"],
            LayerRow {
                count: 2,
                busy: 5,
                wait: 8,
                failed: 0
            }
        );
        assert_eq!(rows["backend"].busy, 40);
        assert!((residual - 0.02).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_root_and_roots_are_independent() {
        let mut log = SpanLog::default();
        let a = log.push(span("job", "client", 10, 20, None));
        let child = log.push(span("late", "runtime", 15, 40, Some(a)));
        let probe = log.push(span("probe", "rng", 0, 7, None));
        let selfs = log.self_times();
        assert_eq!((selfs[a], selfs[child], selfs[probe]), (5, 5, 7));
        let (rows, residual) = layer_report(&log, "job");
        assert_eq!(rows["rng"].count, 1);
        assert!((residual - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tsv_has_a_header_and_respects_the_limit() {
        let mut log = SpanLog::default();
        let root = log.push(span("job", "client", 0, 3, None));
        log.push(span("x", "runtime", 1, 2, Some(root)));
        let mut buf = Vec::new();
        log.write_tsv(&mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("job\tclient\t0\t3\t\t1\t0\t0"));
    }
}
