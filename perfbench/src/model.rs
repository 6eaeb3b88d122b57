//! Independent models the answers are checked against. They hold the raw
//! inputs (byte strings, `u64`s) and answer by plain scans and hash maps;
//! nothing here touches a trie or the binarizer.

use std::collections::HashMap;
use std::rc::Rc;

/// The sharded URL log as plain per-shard vectors of raw strings.
#[derive(Clone)]
pub struct UrlModel {
    shards: Vec<Vec<Rc<str>>>,
    counts: HashMap<Rc<str>, usize>,
    /// Prefix counts, each computed by one `starts_with` scan over every
    /// stored string on first use and kept current on every push.
    prefixes: HashMap<Rc<str>, usize>,
}

impl UrlModel {
    pub fn new(shards: usize) -> Self {
        UrlModel {
            shards: vec![Vec::new(); shards],
            counts: HashMap::new(),
            prefixes: HashMap::new(),
        }
    }

    /// Appends `s` to `shard`; returns its local position.
    pub fn push(&mut self, shard: usize, s: &Rc<str>) -> u64 {
        let pos = self.shards[shard].len() as u64;
        self.shards[shard].push(Rc::clone(s));
        *self.counts.entry(Rc::clone(s)).or_insert(0) += 1;
        for (p, c) in self.prefixes.iter_mut() {
            if s.as_bytes().starts_with(p.as_bytes()) {
                *c += 1;
            }
        }
        pos
    }

    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    pub fn count(&self, s: &str) -> usize {
        self.counts.get(s).copied().unwrap_or(0)
    }

    pub fn access(&self, shard: u32, pos: u64) -> Option<&str> {
        self.shards
            .get(shard as usize)
            .and_then(|v| v.get(pos as usize))
            .map(|s| &**s)
    }

    /// Strings (over all shards) that start with `p`, byte for byte.
    pub fn count_prefix(&mut self, p: &Rc<str>) -> usize {
        if let Some(&c) = self.prefixes.get(p) {
            return c;
        }
        let c = self
            .shards
            .iter()
            .flatten()
            .filter(|s| s.as_bytes().starts_with(p.as_bytes()))
            .count();
        self.prefixes.insert(Rc::clone(p), c);
        c
    }
}

/// The integer column as a plain vector, plus a position list per value
/// built by one pass over it (so rank/select checks stay O(log n) while the
/// §5 calls are checked by scanning their windows).
#[derive(Clone)]
pub struct IntModel {
    values: Vec<u64>,
    positions: HashMap<u64, Vec<usize>>,
}

impl IntModel {
    pub fn new(values: &[u64]) -> Self {
        let mut m = IntModel {
            values: Vec::with_capacity(values.len()),
            positions: HashMap::new(),
        };
        for &v in values {
            m.push(v);
        }
        m
    }

    pub fn push(&mut self, v: u64) {
        self.positions.entry(v).or_default().push(self.values.len());
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn get(&self, pos: usize) -> u64 {
        self.values[pos]
    }

    /// Occurrences of `v` in `[0, pos)`.
    pub fn rank(&self, v: u64, pos: usize) -> usize {
        self.positions
            .get(&v)
            .map_or(0, |ps| ps.partition_point(|&p| p < pos))
    }

    /// Position of the `idx`-th occurrence of `v`.
    pub fn select(&self, v: u64, idx: usize) -> Option<usize> {
        self.positions.get(&v).and_then(|ps| ps.get(idx).copied())
    }

    /// `(value, count)` for every distinct value in `[l, r)`, ascending.
    pub fn window_counts(&self, l: usize, r: usize) -> Vec<(u64, usize)> {
        let mut w = self.values[l..r].to_vec();
        w.sort_unstable();
        let mut out: Vec<(u64, usize)> = Vec::new();
        for v in w {
            match out.last_mut() {
                Some((last, c)) if *last == v => *c += 1,
                _ => out.push((v, 1)),
            }
        }
        out
    }

    /// `(top `bits` bits, count)` for every distinct top-bits prefix in
    /// `[l, r)`, ascending.
    pub fn window_prefix_counts(&self, l: usize, r: usize, bits: u32) -> Vec<(u64, usize)> {
        let mut counts: std::collections::BTreeMap<u64, usize> = Default::default();
        for &v in &self.values[l..r] {
            *counts.entry(top_bits(v, bits)).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// The top `bits` bits of a 64-bit value (0 for `bits == 0`).
pub fn top_bits(v: u64, bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        v >> (64 - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_model_tracks_counts_positions_and_prefixes() {
        let mut m = UrlModel::new(2);
        let a: Rc<str> = Rc::from("http://a/x");
        let b: Rc<str> = Rc::from("http://b/y");
        assert_eq!(m.push(0, &a), 0);
        assert_eq!(m.push(1, &b), 0);
        let pa: Rc<str> = Rc::from("http://a");
        assert_eq!(m.count_prefix(&pa), 1);
        assert_eq!(m.push(0, &a), 1);
        assert_eq!(m.count_prefix(&pa), 2, "cached prefix follows pushes");
        assert_eq!(m.count("http://a/x"), 2);
        assert_eq!(m.access(1, 0), Some("http://b/y"));
        assert_eq!(m.access(1, 1), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn int_model_scans() {
        let m = IntModel::new(&[5, 3, 5, u64::MAX, 3, 5]);
        assert_eq!(m.rank(5, 3), 2);
        assert_eq!(m.select(5, 2), Some(5));
        assert_eq!(m.select(5, 3), None);
        assert_eq!(m.window_counts(1, 5), vec![(3, 2), (5, 1), (u64::MAX, 1)]);
        assert_eq!(m.window_prefix_counts(0, 6, 1), vec![(0, 5), (1, 1)]);
        assert_eq!(top_bits(u64::MAX, 4), 15);
    }
}
