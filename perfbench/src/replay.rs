//! Traced replays of the layers below a call: a store the benchmark owns
//! that receives the same append stream as a served store (so append,
//! publish, seal and compaction can be timed one by one), and per-segment
//! re-executions of a snapshot batch call, grouped by segment kind.

use std::collections::HashSet;

use wavelet_trie::SeqIndex;
use wt_server::{Deadline, Shard, ShardOp, StoreShard};
use wt_store::{SegmentKind, StoreConfig, StoreSnapshot, TieredStore};
use wt_trie::BitStr;

use crate::trace::{SpanId, Tracer};

/// A [`TieredStore`] that never rolls by itself: the benchmark applies the
/// store's own roll policy (seal the hot tail at `seal_at`, then compact
/// while more than `max_sealed` segments are sealed) from outside, so each
/// step gets its own span. Its segments end up exactly as those of a
/// default-configured store that saw the same appends.
#[derive(Clone)]
pub struct ReplayStore {
    pub store: TieredStore,
    seal_at: usize,
    max_sealed: usize,
    /// The last step was a publish, so the next append copies the hot tail.
    fresh_publish: bool,
    pub appended: u64,
    /// Strings written again by compaction (merged segments' lengths).
    pub refrozen: u64,
}

impl ReplayStore {
    pub fn new() -> Self {
        let policy = StoreConfig::default();
        ReplayStore {
            store: TieredStore::with_config(StoreConfig {
                seal_at: usize::MAX,
                max_sealed: policy.max_sealed,
            }),
            seal_at: policy.seal_at,
            max_sealed: policy.max_sealed,
            fresh_publish: false,
            appended: 0,
            refrozen: 0,
        }
    }

    /// Appends `s` (then rolls per policy, then publishes if asked).
    pub fn append(&mut self, t: &mut Tracer, s: BitStr<'_>, publish: bool) {
        let req = t.request();
        let name = if self.fresh_publish {
            "store.cow_append"
        } else {
            "store.append"
        };
        let store = &mut self.store;
        let (res, _) = t.span(name, None, req, 1, || store.append(s));
        res.expect("the served store admitted this string");
        self.fresh_publish = false;
        self.appended += 1;
        let tail = self.store.segment_lens().last().copied().unwrap_or(0);
        if tail >= self.seal_at {
            self.seal(t, req);
            if self.store.sealed_segments() > self.max_sealed {
                self.compact(t, req);
            }
        }
        if publish {
            let store = &mut self.store;
            t.span("store.publish", None, req, 1, || {
                store.publish();
            });
            self.fresh_publish = true;
        }
    }

    /// The explicit `seal(); compact()` that ends a workload's set-up.
    pub fn seal_and_compact(&mut self, t: &mut Tracer) {
        let req = t.request();
        self.seal(t, req);
        self.compact(t, req);
    }

    fn seal(&mut self, t: &mut Tracer, req: u64) {
        let tail = self.store.segment_lens().last().copied().unwrap_or(0) as u64;
        let store = &mut self.store;
        t.span("store.seal", None, req, tail, || store.seal());
    }

    fn compact(&mut self, t: &mut Tracer, req: u64) {
        let before = self.store.segment_lens();
        let store = &mut self.store;
        t.span("store.compact", None, req, 1, || store.compact());
        self.refrozen += rewritten(&before, &self.store.segment_lens());
    }

    pub fn kinds(&self) -> Vec<SegmentKind> {
        self.store.segment_kinds()
    }

    /// Runs `maintain` (seal, compact, publish) under a span.
    pub fn maintain(&mut self, t: &mut Tracer) {
        let req = t.request();
        let store = &mut self.store;
        let (report, _) = t.span("maintain", None, req, 1, || store.maintain());
        if !report.is_clean() {
            println!("trace: maintenance reported failures: {report}");
        }
    }
}

/// Strings in segments of `after` that were not segments of `before` at
/// the same place: the output of the merges in between.
pub fn rewritten(before: &[usize], after: &[usize]) -> u64 {
    let spans = |lens: &[usize]| {
        let mut start = 0usize;
        lens.iter()
            .map(|&l| {
                let s = (start, l);
                start += l;
                s
            })
            .collect::<Vec<_>>()
    };
    let old: HashSet<(usize, usize)> = spans(before).into_iter().collect();
    spans(after)
        .into_iter()
        .filter(|&(_, l)| l > 0)
        .filter(|s| !old.contains(s))
        .map(|(_, l)| l as u64)
        .sum()
}

/// Kernel span names by segment kind (wt, pd, hot) and operation.
const KERNEL: [[&str; 4]; 3] = [
    [
        "kernel.wt.access",
        "kernel.wt.rank",
        "kernel.wt.select",
        "kernel.wt.count_prefix",
    ],
    [
        "kernel.pd.access",
        "kernel.pd.rank",
        "kernel.pd.select",
        "kernel.pd.count_prefix",
    ],
    [
        "kernel.hot.access",
        "kernel.hot.rank",
        "kernel.hot.select",
        "kernel.hot.count_prefix",
    ],
];

pub const KINDS: [&str; 3] = ["wt", "pd", "hot"];
pub const OPS: [&str; 4] = ["access", "rank", "select", "count_prefix"];

const ACCESS: usize = 0;
const RANK: usize = 1;
const SELECT: usize = 2;
const COUNT_PREFIX: usize = 3;

fn kernel(kind: SegmentKind, op: usize) -> &'static str {
    let k = match kind {
        SegmentKind::Wavelet => 0,
        SegmentKind::PathDecomp => 1,
        SegmentKind::Hot => 2,
    };
    KERNEL[k][op]
}

/// Per-segment view of a snapshot for kernel replays. `kinds` comes from a
/// store with the same segments; if the lengths disagree the segments are
/// not classified and kernel replays are skipped (and counted).
pub struct Segments<'a> {
    snap: &'a StoreSnapshot,
    kinds: Option<Vec<SegmentKind>>,
}

impl<'a> Segments<'a> {
    pub fn new(snap: &'a StoreSnapshot, kinds: Vec<SegmentKind>, lens: &[usize]) -> Self {
        let same = lens.len() == snap.num_segments()
            && (0..lens.len()).all(|i| snap.segment(i).seq_len() == lens[i]);
        Segments {
            snap,
            kinds: same.then_some(kinds),
        }
    }

    /// Whether the segment kinds are known (so kernels can be replayed).
    pub fn classified(&self) -> bool {
        self.kinds.is_some()
    }

    /// Mirrors the merged engine's `rank_batch`: every segment the lanes'
    /// positions reach gets one sub-batch.
    pub fn rank(&self, t: &mut Tracer, parent: SpanId, req: u64, queries: &[(BitStr<'_>, usize)]) {
        let Some(kinds) = &self.kinds else { return };
        let mut start = 0usize;
        for (i, &kind) in kinds.iter().enumerate() {
            let seg = self.snap.segment(i);
            let l = seg.seq_len();
            let sub: Vec<(BitStr<'_>, usize)> = queries
                .iter()
                .filter(|&&(_, pos)| pos > start)
                .map(|&(s, pos)| (s, (pos - start).min(l)))
                .collect();
            if sub.is_empty() {
                break;
            }
            let work = sub.len() as u64;
            t.span(kernel(kind, RANK), Some(parent), req, work, || {
                std::hint::black_box(seg.rank_batch(&sub))
            });
            start += l;
        }
    }

    /// Mirrors `count_prefix_batch`: every segment gets every prefix.
    pub fn count_prefix(&self, t: &mut Tracer, parent: SpanId, req: u64, prefixes: &[BitStr<'_>]) {
        let Some(kinds) = &self.kinds else { return };
        for (i, &kind) in kinds.iter().enumerate() {
            let seg = self.snap.segment(i);
            let work = prefixes.len() as u64;
            t.span(kernel(kind, COUNT_PREFIX), Some(parent), req, work, || {
                std::hint::black_box(seg.count_prefix_batch(prefixes))
            });
        }
    }

    /// Mirrors `access_batch`: positions routed to their segments.
    pub fn access(&self, t: &mut Tracer, parent: SpanId, req: u64, positions: &[usize]) {
        let Some(kinds) = &self.kinds else { return };
        let mut start = 0usize;
        for (i, &kind) in kinds.iter().enumerate() {
            let seg = self.snap.segment(i);
            let end = start + seg.seq_len();
            let local: Vec<usize> = positions
                .iter()
                .filter(|&&p| p >= start && p < end)
                .map(|&p| p - start)
                .collect();
            if !local.is_empty() {
                let work = local.len() as u64;
                t.span(kernel(kind, ACCESS), Some(parent), req, work, || {
                    std::hint::black_box(seg.access_batch(&local))
                });
            }
            start = end;
        }
    }

    /// Mirrors `select_batch`: a rank sub-batch per segment to find where
    /// each lane's occurrence lies, then a select sub-batch for the lanes
    /// resolved in that segment.
    pub fn select(
        &self,
        t: &mut Tracer,
        parent: SpanId,
        req: u64,
        queries: &[(BitStr<'_>, usize)],
    ) {
        let Some(kinds) = &self.kinds else { return };
        let mut remaining: Vec<(BitStr<'_>, usize)> = queries.to_vec();
        for (i, &kind) in kinds.iter().enumerate() {
            if remaining.is_empty() {
                break;
            }
            let seg = self.snap.segment(i);
            let sub: Vec<(BitStr<'_>, usize)> =
                remaining.iter().map(|&(s, _)| (s, seg.seq_len())).collect();
            let work = sub.len() as u64;
            let (counts, _) = t.span(kernel(kind, RANK), Some(parent), req, work, || {
                seg.rank_batch(&sub)
            });
            let mut here: Vec<(BitStr<'_>, usize)> = Vec::new();
            let mut keep: Vec<(BitStr<'_>, usize)> = Vec::new();
            for (&(s, idx), c) in remaining.iter().zip(counts) {
                if idx < c {
                    here.push((s, idx));
                } else {
                    keep.push((s, idx - c));
                }
            }
            if !here.is_empty() {
                let work = here.len() as u64;
                t.span(kernel(kind, SELECT), Some(parent), req, work, || {
                    std::hint::black_box(seg.select_batch(&here))
                });
            }
            remaining = keep;
        }
    }
}

/// Replays one router sub-batch on `shard`: `StoreShard::execute` itself,
/// then from outside the snapshot it serves from and the snapshot batch
/// calls `execute` makes (grouped by kind as `execute` groups them), then
/// each of those per segment. Returns how many calls could not be split
/// into kernels because the segment kinds were unknown.
pub fn replay_execute(
    t: &mut Tracer,
    parent: SpanId,
    req: u64,
    shard: &StoreShard,
    replay: &ReplayStore,
    ops: &[ShardOp],
) -> u64 {
    let (res, ex) = t.span("shard.execute", Some(parent), req, ops.len() as u64, || {
        shard.execute(ops, Deadline::none())
    });
    std::hint::black_box(res.ok());
    let (snap, _) = t.span("snapshot.take", Some(ex), req, 1, || shard.snapshot());
    let segs = Segments::new(&snap, replay.kinds(), &replay.store.segment_lens());
    let len = snap.len();
    let mut counts: Vec<(BitStr<'_>, usize)> = Vec::new();
    let mut prefixes: Vec<BitStr<'_>> = Vec::new();
    let mut positions: Vec<usize> = Vec::new();
    for op in ops {
        match op {
            ShardOp::Count(s) => counts.push((s.as_bitstr(), len)),
            ShardOp::CountPrefix(p) => prefixes.push(p.as_bitstr()),
            ShardOp::Access(pos) if (*pos as usize) < len => positions.push(*pos as usize),
            ShardOp::Access(_) => {}
        }
    }
    if !counts.is_empty() {
        let work = counts.len() as u64;
        let (_, sb) = t.span("snapshot.rank_batch", Some(ex), req, work, || {
            std::hint::black_box(snap.rank_batch(&counts))
        });
        segs.rank(t, sb, req, &counts);
    }
    if !prefixes.is_empty() {
        let work = prefixes.len() as u64;
        let (_, sb) = t.span("snapshot.count_prefix_batch", Some(ex), req, work, || {
            std::hint::black_box(snap.count_prefix_batch(&prefixes))
        });
        segs.count_prefix(t, sb, req, &prefixes);
    }
    if !positions.is_empty() {
        let work = positions.len() as u64;
        let (_, sb) = t.span("snapshot.access_batch", Some(ex), req, work, || {
            std::hint::black_box(snap.access_batch(&positions))
        });
        segs.access(t, sb, req, &positions);
    }
    u64::from(!segs.classified())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewritten_counts_only_new_segments() {
        // [4, 4, 2, 0] → the first two merged into one segment of 8.
        assert_eq!(rewritten(&[4, 4, 2, 0], &[8, 2, 0]), 8);
        assert_eq!(rewritten(&[4, 4, 0], &[4, 4, 0]), 0);
    }

    #[test]
    fn replay_store_matches_auto_rolling_store() {
        use wt_trie::BitString;
        let mut t = Tracer::default();
        let mut replay = ReplayStore::new();
        let mut auto = TieredStore::new();
        let seal_at = StoreConfig::default().seal_at;
        let n = seal_at * 2 + 17;
        for i in 0..n as u64 {
            let s = BitString::from_bits((0..24).rev().map(|k| (i >> k) & 1 == 1));
            replay.append(&mut t, s.as_bitstr(), i % 7 == 0);
            auto.append(s.as_bitstr())
                .expect("fixed width is prefix-free");
        }
        assert_eq!(replay.store.segment_lens(), auto.segment_lens());
        assert_eq!(replay.kinds(), auto.segment_kinds());
        let an = t.analyze();
        assert_eq!(an.count("store.seal"), 2);
        assert!(an.count("store.cow_append") > 0 && an.count("store.publish") > 0);
    }
}
