//! In-memory spans recorded from the benchmark's side of each layer's
//! public calls, and the self times derived from them.
//!
//! A span has a name, start and end (ns since the tracer was made), an
//! optional parent span, a request id shared by the spans of one client
//! call, a phase tag, and a work count (lanes of a batch call, strings of
//! an encode loop). Nothing is instrumented inside the crates: a child is
//! either a call made inside the parent's interval from the benchmark's own
//! code, or a **replay** of the part of the parent's work that the layer
//! below did (the same sub-batches sent again right after the parent
//! returned). Replayed children lie outside the parent's interval, so a
//! span's self time subtracts child *durations*: the slowest child when
//! the parent ran its children in parallel (a scatter), their sum when it
//! ran them one after another.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
    pub phase: &'static str,
    pub work: u64,
    /// Children ran concurrently; the slowest one blocked this span.
    pub parallel: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; spans stay in memory until [`Tracer::write_tsv`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_req: u64,
    phase: &'static str,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_req: 0,
            phase: "setup",
        }
    }
}

impl Tracer {
    /// Tags every span recorded from now on.
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a call that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
        work: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
            phase: self.phase,
            work,
            parallel: false,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end, parent, req, work))
    }

    /// Marks `id`'s children as having run concurrently.
    pub fn set_parallel(&mut self, id: SpanId) {
        self.spans[id].parallel = true;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tphase\twork")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.req, s.phase, s.work
            )?;
        }
        out.flush()
    }

    /// Self times and children, derived once from the recorded spans.
    pub fn analyze(&self) -> Analysis<'_> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let self_ns = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let durs = children[i].iter().map(|&c| self.spans[c].dur_ns() as f64);
                let covered = if s.parallel {
                    durs.fold(0.0, f64::max)
                } else {
                    durs.sum()
                };
                s.dur_ns() as f64 - covered
            })
            .collect();
        Analysis {
            spans: &self.spans,
            children,
            self_ns,
        }
    }
}

/// Derived view over a tracer's spans.
pub struct Analysis<'a> {
    spans: &'a [Span],
    children: Vec<Vec<SpanId>>,
    self_ns: Vec<f64>,
}

/// Which layer a span's self time belongs to.
pub fn layer_of(name: &str) -> &str {
    if let Some(rest) = name.strip_prefix("kernel.") {
        // kernel.<kind>.<op> → kernel.<kind>
        let kind_len = rest.find('.').unwrap_or(rest.len());
        return &name[..7 + kind_len];
    }
    if name.starts_with("snapshot.") && name.ends_with("_batch") {
        return "merged";
    }
    // A real client call's self time is what it took beyond the warm
    // re-run beneath it: the cost of running with caches the replays of
    // the previous call left behind.
    if name == "router.batch" || name == "read.call" {
        return "cold";
    }
    match name.split('.').next() {
        Some("router") => "router",
        Some("shard") => "shard",
        Some("snapshot") => "snapshot",
        Some("range") => "range",
        Some("store") | Some("write") => "store",
        _ => "client",
    }
}

impl Analysis<'_> {
    fn named<'b>(&'b self, name: &'b str) -> impl Iterator<Item = SpanId> + 'b {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    fn named_in<'b>(&'b self, name: &'b str, phase: &'b str) -> impl Iterator<Item = SpanId> + 'b {
        self.named(name)
            .filter(move |&i| self.spans[i].phase == phase)
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Median duration in ns (0 when no such span).
    pub fn median_dur(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .named(name)
            .map(|i| self.spans[i].dur_ns() as f64)
            .collect();
        stats::median(&d)
    }

    /// Total duration in ns.
    pub fn total_dur(&self, name: &str) -> f64 {
        self.named(name)
            .map(|i| self.spans[i].dur_ns() as f64)
            .fold(0.0, |a, b| a + b)
    }

    pub fn total_dur_in(&self, name: &str, phase: &str) -> f64 {
        self.named_in(name, phase)
            .map(|i| self.spans[i].dur_ns() as f64)
            .fold(0.0, |a, b| a + b)
    }

    pub fn mean_dur_in(&self, name: &str, phase: &str) -> f64 {
        let d: Vec<f64> = self
            .named_in(name, phase)
            .map(|i| self.spans[i].dur_ns() as f64)
            .collect();
        stats::mean(&d)
    }

    pub fn count_in(&self, name: &str, phase: &str) -> usize {
        self.named_in(name, phase).count()
    }

    /// Median self time in ns over spans whose name satisfies `pred`.
    pub fn median_self_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let d: Vec<f64> = (0..self.spans.len())
            .filter(|&i| pred(self.spans[i].name))
            .map(|i| self.self_ns[i])
            .collect();
        stats::median(&d)
    }

    pub fn median_self(&self, name: &str) -> f64 {
        self.median_self_where(|n| n == name)
    }

    /// Mean number of children per span called `name`.
    pub fn mean_children(&self, name: &str) -> f64 {
        let c: Vec<f64> = self
            .named(name)
            .map(|i| self.children[i].len() as f64)
            .collect();
        stats::mean(&c)
    }

    /// Total duration divided by total work (ns per op), 0 when unused.
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (mut dur, mut work) = (0.0, 0u64);
        for i in self.named(name) {
            dur += self.spans[i].dur_ns() as f64;
            work += self.spans[i].work;
        }
        if work == 0 {
            0.0
        } else {
            dur / work as f64
        }
    }

    /// Splits every span called `root` along its blocking path: its own
    /// self time, then for each child either the slowest one (parallel) or
    /// all of them (sequential), recursively. Returns the number of roots
    /// and, per layer, the mean self time per root in ns. By construction
    /// the layers sum to the mean root duration.
    pub fn critical_path(&self, root: &str, phase: &str) -> (usize, BTreeMap<String, f64>) {
        let mut acc: BTreeMap<String, f64> = BTreeMap::new();
        let roots: Vec<SpanId> = self.named_in(root, phase).collect();
        let mut stack: Vec<SpanId> = roots.clone();
        while let Some(i) = stack.pop() {
            *acc.entry(layer_of(self.spans[i].name).to_string())
                .or_insert(0.0) += self.self_ns[i];
            let kids = &self.children[i];
            if self.spans[i].parallel {
                if let Some(&slowest) = kids.iter().max_by_key(|&&c| self.spans[c].dur_ns()) {
                    stack.push(slowest);
                }
            } else {
                stack.extend(kids.iter().copied());
            }
        }
        let n = roots.len().max(1) as f64;
        for v in acc.values_mut() {
            *v /= n;
        }
        (roots.len(), acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t0: Instant, us: u64) -> Instant {
        t0 + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_slowest_parallel_child_or_all_sequential_ones() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let root = t.record("router.warm", at(t0, 0), at(t0, 100), None, 1, 64);
        t.set_parallel(root);
        let a = t.record("shard.execute", at(t0, 200), at(t0, 260), Some(root), 1, 40);
        t.record("shard.execute", at(t0, 300), at(t0, 330), Some(root), 1, 24);
        t.record(
            "snapshot.rank_batch",
            at(t0, 400),
            at(t0, 420),
            Some(a),
            1,
            40,
        );
        t.record("snapshot.take", at(t0, 430), at(t0, 435), Some(a), 1, 1);
        let an = t.analyze();
        assert_eq!(an.median_self("router.warm"), 40_000.0);
        // execute A: 60 - (20 + 5) = 35 µs; execute B has no children.
        assert_eq!(an.median_self_where(|n| n == "shard.execute"), 32_500.0);
        assert_eq!(an.mean_children("router.warm"), 2.0);
        let (roots, layers) = an.critical_path("router.warm", "setup");
        assert_eq!(roots, 1);
        assert_eq!(layers["router"], 40_000.0);
        assert_eq!(layers["shard"], 35_000.0);
        assert_eq!(layers["merged"], 20_000.0);
        assert_eq!(layers["snapshot"], 5_000.0);
        let sum: f64 = layers.values().sum();
        assert_eq!(sum, 100_000.0, "layers add up to the root");
    }

    #[test]
    fn layer_names() {
        assert_eq!(layer_of("kernel.pd.rank"), "kernel.pd");
        assert_eq!(layer_of("kernel.hot.access"), "kernel.hot");
        assert_eq!(layer_of("snapshot.access_batch"), "merged");
        assert_eq!(layer_of("snapshot.take"), "snapshot");
        assert_eq!(layer_of("range.range_majority"), "range");
        assert_eq!(layer_of("read.call"), "cold");
        assert_eq!(layer_of("router.warm"), "router");
        assert_eq!(layer_of("write.call"), "store");
        assert_eq!(layer_of("maintain"), "client");
    }

    #[test]
    fn work_weighted_ns_per_op() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        t.record("kernel.wt.rank", at(t0, 0), at(t0, 10), None, 1, 10);
        t.record("kernel.wt.rank", at(t0, 20), at(t0, 50), None, 1, 20);
        let an = t.analyze();
        assert_eq!(an.ns_per_work("kernel.wt.rank"), 40_000.0 / 30.0);
        assert_eq!(an.ns_per_work("kernel.pd.rank"), 0.0);
    }
}
