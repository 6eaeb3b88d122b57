//! Per-layer metrics derived from a traced run, and the printed
//! reconciliation of layer self times against the end-to-end times they
//! split.

use std::collections::BTreeMap;

use wt_store::SegmentKind;

use crate::replay::{KINDS, OPS};
use crate::report::Metric;
use crate::stats;
use crate::trace::{Analysis, Tracer};
use crate::LoadStats;

/// Every per-layer metric, in output order, with its unit. A layer that
/// is not on a workload's path reports 0 there.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("router.batch_us", "us"),
        ("router.self_us", "us"),
        ("router.fanout", "count"),
        ("router.append_self_us", "us"),
        ("shard.execute_us", "us"),
        ("shard.self_us", "us"),
        ("shard.append_us", "us"),
        ("store.append_us", "us"),
        ("store.publish_us", "us"),
        ("store.cow_append_us", "us"),
        ("store.seals", "count"),
        ("store.compactions", "count"),
        ("store.seal_ms", "ms"),
        ("store.compact_ms", "ms"),
        ("store.rewrite_ratio", "ratio"),
        ("store.segments.wt", "count"),
        ("store.segments.pd", "count"),
        ("store.segments.hot", "count"),
        ("snapshot.take_ns", "ns"),
        ("merged.self_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in KINDS {
        for op in OPS {
            v.push((format!("kernel.{k}.{op}_ns_per_op"), "ns"));
        }
    }
    for op in RANGE_OPS {
        v.push((format!("range.{op}_us"), "us"));
    }
    for (n, u) in [
        ("maintain.ms", "ms"),
        ("durable.save_ms", "ms"),
        ("durable.bytes", "bytes"),
        ("durable.recover_ms", "ms"),
        ("durable.load_ms", "ms"),
        ("binarize.encode_ns", "ns"),
        ("trace.read_overhead_pct", "%"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// The §5 calls traced as `range.<op>`.
pub const RANGE_OPS: [&str; 5] = [
    "distinct_in_range",
    "range_majority",
    "range_frequent",
    "distinct_prefixes_in_range",
    "range_count_prefix",
];

/// A finished traced run.
pub struct Layers<'a> {
    pub t: &'a Tracer,
    /// Strings the replay stores appended, and re-froze in compactions.
    pub appended: u64,
    pub refrozen: u64,
    /// Segment kinds served at the end of the load, over all stores.
    pub kinds: Vec<SegmentKind>,
    /// Bytes the untraced run saved.
    pub bytes: u64,
    /// Snapshot calls whose segments could not be classified.
    pub unclassified: u64,
}

impl Layers<'_> {
    /// The per-layer metrics (see [`per_layer_names`]).
    pub fn metrics(&self, overhead_pct: f64) -> Vec<Metric> {
        let an = self.t.analyze();
        let kinds = |kind: SegmentKind| self.kinds.iter().filter(|&&k| k == kind).count() as f64;
        let value = |name: &str| -> f64 {
            if let Some(rest) = name.strip_prefix("kernel.") {
                let span = rest.trim_end_matches("_ns_per_op");
                return an.ns_per_work(&format!("kernel.{span}"));
            }
            if let Some(op) = name.strip_prefix("range.") {
                return an.median_dur(&format!("range.{}", op.trim_end_matches("_us"))) / 1e3;
            }
            match name {
                "router.batch_us" => an.median_dur("router.batch") / 1e3,
                "router.self_us" => an.median_self("router.warm") / 1e3,
                "router.fanout" => an.mean_children("router.warm"),
                "router.append_self_us" => an.median_self("router.append") / 1e3,
                "shard.execute_us" => an.median_dur("shard.execute") / 1e3,
                "shard.self_us" => an.median_self("shard.execute") / 1e3,
                "shard.append_us" => an.median_dur("shard.append") / 1e3,
                "store.append_us" => an.median_dur("store.append") / 1e3,
                "store.publish_us" => an.median_dur("store.publish") / 1e3,
                "store.cow_append_us" => an.median_dur("store.cow_append") / 1e3,
                "store.seals" => an.count("store.seal") as f64,
                "store.compactions" => an.count("store.compact") as f64,
                "store.seal_ms" => an.total_dur("store.seal") / 1e6,
                "store.compact_ms" => an.total_dur("store.compact") / 1e6,
                "store.rewrite_ratio" => self.refrozen as f64 / self.appended.max(1) as f64,
                "store.segments.wt" => kinds(SegmentKind::Wavelet),
                "store.segments.pd" => kinds(SegmentKind::PathDecomp),
                "store.segments.hot" => kinds(SegmentKind::Hot),
                "snapshot.take_ns" => an.median_dur("snapshot.take"),
                "merged.self_us" => {
                    an.median_self_where(|n| n.starts_with("snapshot.") && n.ends_with("_batch"))
                        / 1e3
                }
                "maintain.ms" => an.total_dur("maintain") / 1e6,
                "durable.save_ms" => an.total_dur("durable.save") / 1e6,
                "durable.bytes" => self.bytes as f64,
                "durable.recover_ms" => an.median_dur("durable.recover") / 1e6,
                "durable.load_ms" => an.median_dur("durable.load") / 1e6,
                "binarize.encode_ns" => an.ns_per_work("binarize.encode"),
                "trace.read_overhead_pct" => overhead_pct,
                other => unreachable!("metric {other} has no derivation"),
            }
        };
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: value(&name),
                name,
                unit,
            })
            .collect()
    }

    /// Prints one path's blocking-path split beside its end-to-end mean.
    fn print_path(&self, an: &Analysis<'_>, root: &str, label: &str, untraced_mean_us: f64) {
        let (n, layers): (usize, BTreeMap<String, f64>) = an.critical_path(root, "load");
        if n == 0 {
            return;
        }
        let traced_mean_us = an.mean_dur_in(root, "load") / 1e3;
        println!("{label}: {n} traced `{root}` calls, self time per call along the blocking path");
        let mut sum = 0.0;
        for (layer, ns) in &layers {
            let us = ns / 1e3;
            sum += us;
            println!(
                "  {layer:<12} {us:>10.2} us  {:>5.1}%",
                100.0 * us / traced_mean_us.max(1e-9)
            );
        }
        println!("  {:<12} {sum:>10.2} us  (= traced `{root}` mean)", "sum");
        println!(
            "  untraced end-to-end mean {untraced_mean_us:.2} us; gap to the layer sum {:.2} us ({:+.1}%)",
            untraced_mean_us - sum,
            100.0 * (untraced_mean_us - sum) / untraced_mean_us.max(1e-9)
        );
    }

    /// Store replay of the load's appends, per append, beside `beside_us`.
    fn print_store_write(&self, an: &Analysis<'_>, beside: &str, beside_us: f64) {
        let n = an.count_in("store.append", "load") + an.count_in("store.cow_append", "load");
        if n == 0 {
            return;
        }
        let per = |name: &str| an.total_dur_in(name, "load") / 1e3 / n as f64;
        let parts = [
            ("store.append", per("store.append")),
            ("store.cow_append", per("store.cow_append")),
            ("store.publish", per("store.publish")),
            ("store.seal", per("store.seal")),
            ("store.compact", per("store.compact")),
        ];
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        println!("store replay of the load's {n} appends, mean per append:");
        for (name, us) in parts {
            println!("  {name:<16} {us:>10.2} us");
        }
        println!(
            "  {:<16} {sum:>10.2} us beside {beside} {beside_us:.2} us (gap {:.2} us)",
            "sum",
            beside_us - sum
        );
    }

    /// Set-up time beside the traced set-up layers.
    fn print_setup(&self, an: &Analysis<'_>, setup_s: &[f64]) {
        let s = stats::median(setup_s);
        let parts = [
            (
                "binarize.encode",
                an.total_dur_in("binarize.encode", "setup") / 1e9,
            ),
            (
                "store.append",
                (an.total_dur_in("store.append", "setup")
                    + an.total_dur_in("store.cow_append", "setup"))
                    / 1e9,
            ),
            ("store.seal", an.total_dur_in("store.seal", "setup") / 1e9),
            (
                "store.compact",
                an.total_dur_in("store.compact", "setup") / 1e9,
            ),
        ];
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        println!("set-up: untraced median {s:.3} s wall, split by a traced replay:");
        for (name, secs) in parts {
            println!("  {name:<16} {secs:>8.3} s  {:>5.1}%", 100.0 * secs / s);
        }
        println!(
            "  {:<16} {sum:>8.3} s; the rest ({:.3} s) is generation, placement and serving",
            "sum",
            s - sum
        );
    }

    /// Restart time beside the traced recovery.
    fn print_restart(&self, an: &Analysis<'_>, restart_s: f64) {
        let rec = an.median_dur("durable.recover") / 1e9;
        println!(
            "restart: untraced median {restart_s:.4} s wall; durable.recover median {rec:.4} s; the rest ({:.4} s) is serving and the first batch",
            restart_s - rec
        );
    }

    /// Prints the whole reconciliation and the tracing overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn reconcile(
        &self,
        workload: &str,
        read_root: &str,
        write_root: &str,
        untraced: &LoadStats,
        traced: &LoadStats,
        setup_s: &[f64],
        restart_s: f64,
    ) {
        let an = self.t.analyze();
        println!("== {workload}: layer split (traced run) ==");
        self.print_path(&an, read_root, "read path", untraced.mean_read_us());
        self.print_path(&an, write_root, "write path", untraced.mean_append_us());
        if write_root == "router.append" {
            self.print_store_write(
                &an,
                "shard.append",
                an.mean_dur_in("shard.append", "load") / 1e3,
            );
        } else {
            self.print_store_write(
                &an,
                "the write call per string",
                untraced.append_us_per_string(),
            );
        }
        self.print_setup(&an, setup_s);
        self.print_restart(&an, restart_s);
        if self.unclassified > 0 {
            println!(
                "trace: {} snapshot calls had segments the replay store could not match; their kernels were not replayed",
                self.unclassified
            );
        }
        println!(
            "tracing overhead: read call mean {:.2} us traced vs {:.2} us untraced ({:+.1}%); append mean {:.2} us vs {:.2} us ({:+.1}%)",
            traced.mean_read_us(),
            untraced.mean_read_us(),
            overhead(traced.mean_read_us(), untraced.mean_read_us()),
            traced.mean_append_us(),
            untraced.mean_append_us(),
            overhead(traced.mean_append_us(), untraced.mean_append_us()),
        );
        println!("spans: {}", self.t.spans().len());
    }
}

/// `(traced − untraced) / untraced` in percent.
pub fn overhead(traced: f64, untraced: f64) -> f64 {
    if untraced == 0.0 {
        0.0
    } else {
        100.0 * (traced - untraced) / untraced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in per_layer_names() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", name.0)),
                "{}",
                name.0
            );
        }
    }
}
