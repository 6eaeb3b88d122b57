//! The two router workloads over URL logs: `serve_url` (read-mostly
//! sharded serving) and `ingest_url` (write-heavy, reads about fresh
//! strings). Both run one client thread in a closed loop against a
//! 2-shard [`ShardRouter`], check every answer against [`UrlModel`] after
//! each timed phase, then save, restart and check again.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wt_bits::{FsStorage, SpaceUsage};
use wt_server::{
    shard_for, Answer, DocId, PartialResult, Query, RouterConfig, Shard, ShardMiss, ShardOp,
    ShardRouter, StoreShard,
};
use wt_store::TieredStore;
use wt_trie::BitString;
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::{rng, RngExt, Zipf};

use crate::clock::{measure, Cost, Meter};
use crate::model::UrlModel;
use crate::replay::{replay_execute, ReplayStore};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{dir_bytes, walls, LoadStats, Run, MIN_PHASES};

/// Shards behind the router (the reference machine has 2 cores).
pub const SHARDS: usize = 2;
/// Queries per router batch.
const BATCH: usize = 64;
/// Loose enough that a clean run never misses it.
const DEADLINE: Duration = Duration::from_secs(10);
/// Shape of one router workload. A run is a sequence of phases; every
/// phase starts from the set-up state (cheap clones of the stores), runs
/// the same number of rounds, and is checked afterwards, so every phase
/// takes the stores through the same states whatever the host's speed.
pub struct UrlSpec {
    pub name: &'static str,
    /// `url_log` strings generated for the set-up.
    pub base: usize,
    /// Set-up stops each shard at this many strings and leaves its hot
    /// tail unsealed (`None`: every base string, then `seal` + `compact`).
    pub per_shard: Option<usize>,
    /// Fresh strings each phase appends, in order, half to each shard (0:
    /// appends repeat Zipf-chosen base strings).
    pub stream: usize,
    /// Hosts in the fresh stream.
    pub stream_hosts: usize,
    /// Rounds per phase, and per round the appends and then the batches.
    pub rounds: usize,
    pub appends: usize,
    pub batches: usize,
}

/// The traffic of `server_report` (experiment E17): 70% `Count`, 20%
/// `Access`, 10% `CountPrefix` per batch, one append in ten client calls.
pub const SERVE_URL: UrlSpec = UrlSpec {
    name: "serve_url",
    base: 100_000,
    per_shard: None,
    stream: 0,
    stream_hosts: 0,
    rounds: 36,
    appends: 1,
    batches: 9,
};

/// Each shard holds two sealed segments and a hot tail 128 strings short
/// of `seal_at`, so every phase (1024 fresh strings, 512 to each shard)
/// seals each hot tail once, at the same point whatever the seed.
pub const INGEST_URL: UrlSpec = UrlSpec {
    name: "ingest_url",
    base: 120_000,
    per_shard: Some(3 * 8192 - 128),
    stream: 1024,
    stream_hosts: 5_000,
    rounds: 512,
    appends: 2,
    batches: 1,
};

/// Raw strings with their encodings and owning shards.
struct Corpus {
    raw: Vec<Rc<str>>,
    enc: Vec<BitString>,
    shard: Vec<u32>,
}

fn corpus(n: usize, cfg: UrlLogConfig, seed: u64, t: Option<&mut Tracer>) -> Corpus {
    let raw: Vec<Rc<str>> = url_log(n, cfg, seed).into_iter().map(Rc::from).collect();
    let encode = || -> Vec<BitString> {
        raw.iter()
            .map(|s| NinthBitCoder.encode(s.as_bytes()))
            .collect()
    };
    let enc = match t {
        Some(t) => {
            let req = t.request();
            t.span("binarize.encode", None, req, n as u64, encode).0
        }
        None => encode(),
    };
    let shard = enc
        .iter()
        .map(|e| shard_for(e.as_bitstr(), SHARDS))
        .collect();
    Corpus { raw, enc, shard }
}

/// Everything set-up produces: the stores (sealed and compacted, not yet
/// served) and the inputs of the load.
struct Setup {
    base: Corpus,
    stores: Vec<TieredStore>,
    /// Every base string's document id, in corpus order.
    docs: Vec<DocId>,
    /// Distinct base strings, most frequent first (Zipf rank order).
    by_freq: Vec<usize>,
    /// Host and first-path-segment prefixes (raw, encoded).
    prefixes: Vec<(Rc<str>, BitString)>,
    stream: Corpus,
}

/// Keeps, in order, the first `limit` strings of each shard and drops the
/// rest.
fn fill_shards(c: &mut Corpus, limit: usize) {
    let mut taken = [0usize; SHARDS];
    let keep: Vec<bool> = c
        .shard
        .iter()
        .map(|&sh| {
            taken[sh as usize] += 1;
            taken[sh as usize] <= limit
        })
        .collect();
    assert!(
        taken.iter().all(|&t| t >= limit),
        "{} strings fill no shard to {limit}",
        c.raw.len()
    );
    retain_flagged(&mut c.raw, &keep);
    retain_flagged(&mut c.enc, &keep);
    retain_flagged(&mut c.shard, &keep);
}

/// Keeps the elements of `v` whose flag is set.
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut k = keep.iter();
    v.retain(|_| *k.next().expect("one flag per element"));
}

/// `http://host.example` of a URL.
fn host_prefix(s: &str) -> &str {
    let end = s[7..].find('/').map_or(s.len(), |i| i + 7);
    &s[..end]
}

/// `http://host.example/seg` of a URL (the whole URL if it has no
/// second path segment).
fn path_prefix(s: &str) -> &str {
    let host = host_prefix(s).len();
    let end = s[host + 1..].find('/').map_or(s.len(), |i| i + host + 1);
    &s[..end.min(s.len())]
}

fn setup(spec: &UrlSpec, seed: u64) -> Setup {
    let mut base = corpus(spec.base, UrlLogConfig::default(), seed, None);
    if let Some(limit) = spec.per_shard {
        fill_shards(&mut base, limit);
    }
    let mut stores: Vec<TieredStore> = (0..SHARDS).map(|_| TieredStore::new()).collect();
    let mut docs = Vec::with_capacity(base.enc.len());
    for (e, &sh) in base.enc.iter().zip(&base.shard) {
        let store = &mut stores[sh as usize];
        docs.push(DocId {
            shard: sh,
            pos: store.len() as u64,
        });
        store
            .append(e.as_bitstr())
            .expect("NinthBitCoder output is prefix-free");
    }
    if spec.per_shard.is_none() {
        for store in &mut stores {
            store.seal();
            store.compact();
        }
    }

    // Query inputs: distinct strings by frequency, and a prefix pool.
    let mut first: std::collections::HashMap<&str, (usize, usize)> = Default::default();
    for (i, s) in base.raw.iter().enumerate() {
        first.entry(s).or_insert((i, 0)).1 += 1;
    }
    let mut by_freq: Vec<(usize, usize)> = first.into_values().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let by_freq = by_freq.into_iter().map(|(i, _)| i).collect();
    let mut r = rng(seed ^ 0x9e37_79b9);
    let mut seen = std::collections::HashSet::new();
    let mut prefixes = Vec::new();
    for k in 0..512 {
        let s = &base.raw[r.random_range(0..base.raw.len())];
        let p = if k % 2 == 0 {
            host_prefix(s)
        } else {
            path_prefix(s)
        };
        if seen.insert(p.to_string()) {
            prefixes.push((Rc::from(p), NinthBitCoder.encode_prefix(p.as_bytes())));
        }
    }
    let stream_cfg = UrlLogConfig {
        hosts: spec.stream_hosts.max(1),
        ..UrlLogConfig::default()
    };
    // Four times the strings needed, so that both shards get their half.
    let mut stream = corpus(4 * spec.stream, stream_cfg, seed ^ 0x5eed_57e4, None);
    fill_shards(&mut stream, spec.stream / SHARDS);
    Setup {
        base,
        stores,
        docs,
        by_freq,
        prefixes,
        stream,
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        deadline: DEADLINE,
        ..RouterConfig::default()
    }
}

fn serve(stores: Vec<TieredStore>) -> (ShardRouter, Vec<Arc<StoreShard>>) {
    let shards: Vec<Arc<StoreShard>> = stores
        .into_iter()
        .map(|s| Arc::new(StoreShard::new(s)))
        .collect();
    let members: Vec<Arc<dyn Shard>> = shards
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn Shard>)
        .collect();
    (ShardRouter::new(members, router_config()), shards)
}

/// One query with the raw key its answer is checked against.
#[derive(Clone)]
enum Raw {
    Count(Rc<str>),
    Prefix(Rc<str>),
    Access(DocId),
}

enum Event {
    Append {
        raw: Rc<str>,
        shard: u32,
        result: Result<DocId, ShardMiss>,
    },
    Batch {
        raw: Vec<Raw>,
        result: PartialResult,
    },
}

/// What one traced phase needs beside the router: the served shards (for
/// execute replays), shadow shards in the same state (for append
/// replays), and replay stores.
struct Traced<'a> {
    t: &'a mut Tracer,
    shards: Vec<Arc<StoreShard>>,
    shadows: Vec<StoreShard>,
    replay: Vec<ReplayStore>,
    unclassified: u64,
}

/// Replay bookkeeping summed over a traced run's phases.
#[derive(Default)]
struct ReplayTotals {
    appended: u64,
    refrozen: u64,
    unclassified: u64,
    /// The last phase's replay stores (their segments are the served ones).
    last: Vec<ReplayStore>,
}

/// The serving state one phase runs against, fresh from the set-up.
struct Served {
    router: ShardRouter,
    shards: Vec<Arc<StoreShard>>,
    model: UrlModel,
}

impl Traced<'_> {
    /// `router.query` under a span; then the same batch again (warm) with
    /// its sub-batches replayed per shard beneath it. Returns the answer
    /// and the cost of the first call.
    fn query(&mut self, router: &ShardRouter, queries: &[Query]) -> (PartialResult, Cost) {
        let req = self.t.request();
        let n = queries.len() as u64;
        let (res, cost) = measure(|| router.query(queries));
        let root = self
            .t
            .record("router.batch", cost.start, cost.end, None, req, n);
        let (_, warm) = self.t.span("router.warm", Some(root), req, n, || {
            std::hint::black_box(router.query(queries))
        });
        self.t.set_parallel(warm);
        let mut plan: Vec<Vec<ShardOp>> = vec![Vec::new(); SHARDS];
        for q in queries {
            match q {
                Query::Count(s) => {
                    plan[shard_for(s.as_bitstr(), SHARDS) as usize].push(ShardOp::Count(s.clone()))
                }
                Query::CountPrefix(p) => {
                    for ops in plan.iter_mut() {
                        ops.push(ShardOp::CountPrefix(p.clone()));
                    }
                }
                Query::Access(d) => plan[d.shard as usize].push(ShardOp::Access(d.pos)),
            }
        }
        for (i, ops) in plan.iter().enumerate() {
            if !ops.is_empty() {
                self.unclassified +=
                    replay_execute(self.t, warm, req, &self.shards[i], &self.replay[i], ops);
            }
        }
        (res, cost)
    }

    /// `router.append` under a span, then the same string through a shadow
    /// `StoreShard` (same state as the served one) and the replay store.
    /// Returns the answer and the cost of the router call.
    fn append(
        &mut self,
        router: &ShardRouter,
        e: &BitString,
        shard: u32,
    ) -> (Result<DocId, ShardMiss>, Cost) {
        let req = self.t.request();
        let (res, cost) = measure(|| router.append(e.as_bitstr()));
        let root = self
            .t
            .record("router.append", cost.start, cost.end, None, req, 1);
        if res.is_ok() {
            let shadow = &self.shadows[shard as usize];
            let (r, _) = self.t.span("shard.append", Some(root), req, 1, || {
                shadow.append(e.as_bitstr())
            });
            r.expect("shadow shard holds the same strings as the served one");
            self.replay[shard as usize].append(self.t, e.as_bitstr(), true);
        }
        (res, cost)
    }
}

/// Load state that persists across phases.
struct Load<'a> {
    spec: &'a UrlSpec,
    s: &'a Setup,
    zipf: Zipf,
    /// Zipf over the prefix pool, in the order it was drawn.
    prefix_zipf: Zipf,
    rng: rand::rngs::StdRng,
    /// Next fresh stream string (ingest); every phase starts at 0.
    next: usize,
    /// Recently appended (raw, encoded, doc) for ingest queries.
    recent: std::collections::VecDeque<(Rc<str>, DocId)>,
}

impl Load<'_> {
    fn serve_batch(&mut self) -> (Vec<Raw>, Vec<Query>) {
        let s = self.s;
        let mut raw = Vec::with_capacity(BATCH);
        let mut qs = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let pick: f64 = self.rng.random();
            if pick < 0.7 {
                let i = s.by_freq[self.zipf.sample(&mut self.rng)];
                raw.push(Raw::Count(Rc::clone(&s.base.raw[i])));
                qs.push(Query::Count(s.base.enc[i].clone()));
            } else if pick < 0.9 {
                let d = s.docs[self.rng.random_range(0..s.docs.len())];
                raw.push(Raw::Access(d));
                qs.push(Query::Access(d));
            } else {
                let (p, e) = &s.prefixes[self.prefix_zipf.sample(&mut self.rng)];
                raw.push(Raw::Prefix(Rc::clone(p)));
                qs.push(Query::CountPrefix(e.clone()));
            }
        }
        (raw, qs)
    }

    fn ingest_batch(&mut self) -> (Vec<Raw>, Vec<Query>) {
        let mut raw = Vec::with_capacity(BATCH);
        let mut qs = Vec::with_capacity(BATCH);
        for q in 0..BATCH {
            let (s, d) = &self.recent[self.rng.random_range(0..self.recent.len())];
            match q % 3 {
                0 => {
                    raw.push(Raw::Access(*d));
                    qs.push(Query::Access(*d));
                }
                1 => {
                    raw.push(Raw::Count(Rc::clone(s)));
                    qs.push(Query::Count(NinthBitCoder.encode(s.as_bytes())));
                }
                _ => {
                    let p = if q % 2 == 0 {
                        host_prefix(s)
                    } else {
                        path_prefix(s)
                    };
                    raw.push(Raw::Prefix(Rc::from(p)));
                    qs.push(Query::CountPrefix(
                        NinthBitCoder.encode_prefix(p.as_bytes()),
                    ));
                }
            }
        }
        (raw, qs)
    }

    /// The next string to append: a Zipf-chosen corpus string (serve) or
    /// the next fresh stream string (ingest).
    fn next_append(&mut self) -> (Rc<str>, BitString, u32) {
        let s = self.s;
        if self.spec.stream == 0 {
            let i = s.by_freq[self.zipf.sample(&mut self.rng)];
            (
                Rc::clone(&s.base.raw[i]),
                s.base.enc[i].clone(),
                s.base.shard[i],
            )
        } else {
            let i = self.next;
            self.next += 1;
            (
                Rc::clone(&s.stream.raw[i]),
                s.stream.enc[i].clone(),
                s.stream.shard[i],
            )
        }
    }
}

/// Checks one phase's events in order against the model.
fn check(events: Vec<Event>, model: &mut UrlModel, out: &mut Outcome) {
    for ev in events {
        match ev {
            Event::Append { raw, shard, result } => match result {
                Ok(doc) => {
                    let expect = DocId {
                        shard,
                        pos: model.shard_len(shard as usize) as u64,
                    };
                    if doc != expect {
                        out.wrong(format!("append of {raw}: got {doc:?}, expected {expect:?}"));
                    }
                    model.push(shard as usize, &raw);
                }
                Err(miss) => {
                    out.tally("append", 0, 1);
                    println!("append of {raw} failed: {miss:?}");
                }
            },
            Event::Batch { raw, result } => {
                if !result.is_complete() {
                    out.tally("read", 0, raw.len() as u64);
                    continue;
                }
                for (q, a) in raw.iter().zip(&result.answers) {
                    check_answer(q, a.as_ref(), model, out);
                }
            }
        }
    }
}

fn check_answer(q: &Raw, a: Option<&Answer>, model: &mut UrlModel, out: &mut Outcome) {
    match (q, a) {
        (Raw::Count(s), Some(Answer::Count(c))) => {
            let want = model.count(s);
            if *c != want {
                out.wrong(format!("Count({s}) = {c}, model says {want}"));
            }
        }
        (Raw::Prefix(p), Some(Answer::CountPrefix(c))) => {
            let want = model.count_prefix(p);
            if *c != want {
                out.wrong(format!("CountPrefix({p}) = {c}, model says {want}"));
            }
        }
        (Raw::Access(d), Some(Answer::Access(Some(bits)))) => {
            let got = NinthBitCoder.decode(bits.as_bitstr());
            match model.access(d.shard, d.pos) {
                Some(want) if want.as_bytes() == got.as_slice() => {}
                want => out.wrong(format!(
                    "Access({d:?}) = {:?}, model says {want:?}",
                    String::from_utf8_lossy(&got)
                )),
            }
        }
        (q, a) => out.wrong(format!(
            "answer of the wrong kind: {a:?} for {}",
            match q {
                Raw::Count(s) => format!("Count({s})"),
                Raw::Prefix(p) => format!("CountPrefix({p})"),
                Raw::Access(d) => format!("Access({d:?})"),
            }
        )),
    }
}

/// What a load leaves: its latencies, the last phase's serving state, the
/// saved end state of the first phase, and the restart times.
struct Loaded {
    st: LoadStats,
    last: Served,
    saved: Saved,
    restarts: Vec<Cost>,
}

/// Closed-loop load: phases of `spec.rounds` rounds, each from a fresh
/// copy of the set-up state, until `seconds` of timed phases are done;
/// each phase is checked after it ran. The first phase's end state is
/// saved under `dir`, and after every phase `RESTARTS_PER_PHASE` restarts
/// recover it, so the restarts spread over the run like the phases do.
#[allow(clippy::too_many_arguments)]
fn run_load(
    spec: &UrlSpec,
    s: &Setup,
    base_model: &UrlModel,
    seed: u64,
    seconds: f64,
    dir: &Path,
    mut tracing: Option<(&mut Tracer, &[ReplayStore])>,
    totals: &mut ReplayTotals,
    out: &mut Outcome,
) -> Loaded {
    let mut load = Load {
        spec,
        s,
        zipf: Zipf::new(s.by_freq.len(), 1.0),
        prefix_zipf: Zipf::new(s.prefixes.len(), 1.0),
        rng: rng(seed ^ 0x10ad),
        next: 0,
        recent: Default::default(),
    };
    let mut st = LoadStats::default();
    let sum = |v: &[ReplayStore], f: fn(&ReplayStore) -> u64| v.iter().map(f).sum::<u64>();
    let base_sums = tracing
        .as_ref()
        .map(|(_, base)| (sum(base, |r| r.appended), sum(base, |r| r.refrozen)));
    let started = Instant::now();
    let mut measured = 0.0;
    let mut last = None;
    let mut saved: Option<Saved> = None;
    let mut restarts = Vec::new();
    while measured < seconds || st.phases() < MIN_PHASES {
        if started.elapsed().as_secs_f64() > seconds * 3.0 + 60.0 {
            break; // never outlive the run budget, even on a crawling host
        }
        let (router, shards) = serve(s.stores.clone());
        let mut traced = tracing.as_mut().map(|(t, base)| Traced {
            t,
            shards: shards.clone(),
            shadows: s
                .stores
                .iter()
                .map(|st| StoreShard::new(st.clone()))
                .collect(),
            replay: base.to_vec(),
            unclassified: 0,
        });
        load.next = 0;
        load.recent.clear();
        let phase = Instant::now();
        let mut events = Vec::new();
        for _ in 0..spec.rounds {
            for _ in 0..spec.appends {
                let (raw, e, shard) = load.next_append();
                let (result, d) = match traced.as_mut() {
                    Some(tr) => tr.append(&router, &e, shard),
                    None => measure(|| router.append(e.as_bitstr())),
                };
                st.append(d, 1);
                if let Ok(d) = result {
                    load.recent.push_back((Rc::clone(&raw), d));
                    if load.recent.len() > BATCH {
                        load.recent.pop_front();
                    }
                }
                events.push(Event::Append { raw, shard, result });
            }
            for _ in 0..spec.batches {
                let (raw, qs) = if spec.stream == 0 {
                    load.serve_batch()
                } else {
                    load.ingest_batch()
                };
                let (result, d) = match traced.as_mut() {
                    Some(tr) => tr.query(&router, &qs),
                    None => measure(|| router.query(&qs)),
                };
                st.read(d, qs.len());
                events.push(Event::Batch { raw, result });
            }
        }
        let wall = phase.elapsed().as_secs_f64();
        measured += wall;
        st.end_phase(wall);
        if let (Some(tr), Some((appended, refrozen))) = (traced, base_sums) {
            totals.appended += sum(&tr.replay, |r| r.appended) - appended;
            totals.refrozen += sum(&tr.replay, |r| r.refrozen) - refrozen;
            totals.unclassified += tr.unclassified;
            totals.last = tr.replay;
        }
        let mut model = base_model.clone();
        check(events, &mut model, out);
        let sv = Served {
            router,
            shards,
            model,
        };
        let saved = match saved.as_mut() {
            Some(saved) => {
                last = Some(sv);
                saved
            }
            None => {
                let t = tracing.as_mut().map(|(t, _)| &mut **t);
                saved.insert(save(sv, dir, s, seed, t))
            }
        };
        for _ in 0..crate::RESTARTS_PER_PHASE {
            restarts.push(restart(saved, tracing.as_mut().map(|(t, _)| &mut **t), out));
        }
    }
    let mut saved = saved.expect("at least one phase");
    while restarts.len() < crate::RESTARTS {
        restarts.push(restart(
            &mut saved,
            tracing.as_mut().map(|(t, _)| &mut **t),
            out,
        ));
    }
    if let Some((t, _)) = tracing {
        load_saved(&saved, t);
    }
    out.tally("read", st.read_ops(), 0);
    out.tally("append", st.appends(), 0);
    Loaded {
        st,
        last: last.expect("at least two phases"),
        saved,
        restarts,
    }
}

/// A batch over the whole model for the post-restart check.
fn restart_batch(model: &UrlModel, s: &Setup, seed: u64) -> (Vec<Raw>, Vec<Query>) {
    let mut r = rng(seed ^ 0x7e57);
    let mut raw = Vec::with_capacity(BATCH);
    let mut qs = Vec::with_capacity(BATCH);
    for q in 0..BATCH {
        let shard = r.random_range(0..SHARDS as u32);
        let pos = r.random_range(0..model.shard_len(shard as usize) as u64);
        let d = DocId { shard, pos };
        let str_at: Rc<str> = Rc::from(model.access(shard, pos).expect("position drawn in range"));
        match q % 3 {
            0 => {
                raw.push(Raw::Access(d));
                qs.push(Query::Access(d));
            }
            1 => {
                qs.push(Query::Count(NinthBitCoder.encode(str_at.as_bytes())));
                raw.push(Raw::Count(str_at));
            }
            _ => {
                let (p, e) = &s.prefixes[r.random_range(0..s.prefixes.len())];
                raw.push(Raw::Prefix(Rc::clone(p)));
                qs.push(Query::CountPrefix(e.clone()));
            }
        }
    }
    (raw, qs)
}

/// The first phase's end state, saved; every restart recovers it.
struct Saved {
    dirs: Vec<PathBuf>,
    model: UrlModel,
    raw: Vec<Raw>,
    qs: Vec<Query>,
    bytes: u64,
    bits_per_string: f64,
}

/// Saves every shard of `sv` under `dir`.
fn save(sv: Served, dir: &Path, s: &Setup, seed: u64, t: Option<&mut Tracer>) -> Saved {
    let dirs: Vec<PathBuf> = (0..SHARDS).map(|i| dir.join(format!("shard{i}"))).collect();
    let save = || {
        for (shard, d) in sv.shards.iter().zip(&dirs) {
            shard
                .save_dir_with(&FsStorage, d)
                .expect("saving into the work directory");
        }
    };
    match t {
        Some(t) => {
            let req = t.request();
            t.span("durable.save", None, req, SHARDS as u64, save);
        }
        None => save(),
    }
    let (raw, qs) = restart_batch(&sv.model, s, seed);
    Saved {
        bytes: dirs.iter().map(|d| dir_bytes(d)).sum(),
        bits_per_string: space_bits(&sv.shards) as f64 / sv.model.len() as f64,
        dirs,
        model: sv.model,
        raw,
        qs,
    }
}

/// One restart: recover every shard from its directory, build a router,
/// answer one batch. Returns what that cost; checks it all.
fn restart(saved: &mut Saved, t: Option<&mut Tracer>, out: &mut Outcome) -> Cost {
    let meter = Meter::start();
    let recover = || {
        saved
            .dirs
            .iter()
            .map(|d| StoreShard::recover(&FsStorage, d))
            .collect::<Vec<_>>()
    };
    let recovered = match t {
        Some(t) => {
            let req = t.request();
            t.span("durable.recover", None, req, SHARDS as u64, recover)
                .0
        }
        None => recover(),
    };
    let mut members: Vec<Arc<dyn Shard>> = Vec::new();
    let mut reports = Vec::new();
    for r in recovered {
        let (shard, report) = r.expect("recovering a directory this run saved");
        members.push(Arc::new(shard));
        reports.push(report);
    }
    let router = ShardRouter::new(members, router_config());
    let result = router.query(&saved.qs);
    let cost = meter.stop();
    out.tally("restart_read", saved.qs.len() as u64, 0);
    for (i, rep) in reports.iter().enumerate() {
        if !rep.is_clean() || !rep.quarantined.is_empty() {
            out.wrong(format!("restart of shard {i} was not clean: {rep}"));
        }
        if router.shard_len(i as u32) != Some(saved.model.shard_len(i)) {
            out.wrong(format!(
                "shard {i} recovered {:?} strings, model holds {}",
                router.shard_len(i as u32),
                saved.model.shard_len(i)
            ));
        }
    }
    let batch = Event::Batch {
        raw: saved.raw.clone(),
        result,
    };
    check(vec![batch], &mut saved.model, out);
    cost
}

/// Strict loads of the saved directories, for `durable.load_ms`.
fn load_saved(saved: &Saved, t: &mut Tracer) {
    for _ in 0..crate::RESTARTS {
        let req = t.request();
        t.span("durable.load", None, req, SHARDS as u64, || {
            for d in &saved.dirs {
                TieredStore::load_dir(d).expect("loading a directory this run saved");
            }
        });
    }
}

/// The model of the set-up state, with the prefix pool's counts cached.
fn model_of(s: &Setup) -> UrlModel {
    let mut m = UrlModel::new(SHARDS);
    for (raw, &sh) in s.base.raw.iter().zip(&s.base.shard) {
        m.push(sh as usize, raw);
    }
    for (p, _) in &s.prefixes {
        m.count_prefix(p);
    }
    m
}

fn space_bits(shards: &[Arc<StoreShard>]) -> usize {
    shards.iter().map(|s| s.snapshot().size_bits()).sum()
}

fn print_router(router: &ShardRouter) {
    let health = router.health_report();
    println!(
        "router: shed {} batches; breaker trips per shard {:?}; states {:?}",
        router.shed_count(),
        health.iter().map(|h| h.trips).collect::<Vec<_>>(),
        health.iter().map(|h| h.state).collect::<Vec<_>>()
    );
}

/// Runs one router workload: timed set-up (repeated), untraced load,
/// save + restarts; with tracing, a second load on the same set-up state
/// with spans and replays.
pub fn run(spec: &UrlSpec, r: &Run) -> Outcome {
    let mut out = Outcome::new(spec.name);
    let repeats = if r.trace { 1 } else { crate::SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        // Ready to serve once the router is up.
        let ((s, served), cost) = measure(|| {
            let s = setup(spec, r.seed);
            let served = serve(s.stores.clone());
            (s, served)
        });
        setups.push(cost);
        drop(served);
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    for (i, st) in s.stores.iter().enumerate() {
        println!(
            "{}: shard {i}: {} strings, segments {:?} kinds {:?}",
            spec.name,
            st.len(),
            st.segment_lens(),
            st.segment_kinds()
        );
    }
    let base_model = model_of(&s);

    let mut totals = ReplayTotals::default();
    let load = run_load(
        spec,
        &s,
        &base_model,
        r.seed,
        r.seconds,
        &r.dir.join("a"),
        None,
        &mut totals,
        &mut out,
    );
    print_router(&load.last.router);
    for (i, shard) in load.last.shards.iter().enumerate() {
        let snap = shard.snapshot();
        let lens: Vec<usize> = (0..snap.num_segments())
            .map(|g| snap.segment(g).seq_len())
            .collect();
        println!("{}: after a phase, shard {i} segments {lens:?}", spec.name);
    }
    let (st, restarts) = (load.st, load.restarts);
    let strings = load.saved.model.len() as f64;
    let e2e = st.end_to_end(
        &setups,
        &restarts,
        load.saved.bits_per_string,
        load.saved.bytes as f64 * 8.0 / strings,
    );
    st.print(spec.name, &setups, &restarts);
    let bytes = load.saved.bytes;
    drop(load.last);

    if !r.trace {
        out.metrics = e2e;
        return out;
    }
    for m in &e2e {
        println!("untraced {} {} {}", m.name, m.value, m.unit);
    }

    // Traced run on the same set-up state.
    let mut t = Tracer::default();
    corpus(spec.base, UrlLogConfig::default(), r.seed, Some(&mut t));
    let mut replay: Vec<ReplayStore> = (0..SHARDS).map(|_| ReplayStore::new()).collect();
    for (e, &sh) in s.base.enc.iter().zip(&s.base.shard) {
        replay[sh as usize].append(&mut t, e.as_bitstr(), false);
    }
    if spec.per_shard.is_none() {
        for rs in &mut replay {
            rs.seal_and_compact(&mut t);
        }
    }
    t.set_phase("load");
    let traced = run_load(
        spec,
        &s,
        &base_model,
        r.seed,
        r.seconds,
        &r.dir.join("b"),
        Some((&mut t, &replay)),
        &mut totals,
        &mut out,
    );
    print_router(&traced.last.router);
    let tst = traced.st;
    let kinds = totals.last.iter().flat_map(|rs| rs.kinds()).collect();
    for rs in &mut totals.last {
        rs.maintain(&mut t);
    }
    let layers = crate::layers::Layers {
        t: &t,
        appended: replay.iter().map(|rs| rs.appended).sum::<u64>() + totals.appended,
        refrozen: replay.iter().map(|rs| rs.refrozen).sum::<u64>() + totals.refrozen,
        kinds,
        bytes,
        unclassified: totals.unclassified,
    };
    let overhead = crate::layers::overhead(tst.mean_read_us(), st.mean_read_us());
    out.metrics = layers.metrics(overhead);
    layers.reconcile(
        spec.name,
        "router.batch",
        "router.append",
        &st,
        &tst,
        &walls(&setups),
        crate::stats::median(&walls(&restarts)),
    );
    crate::write_spans(&t, r, spec.name);
    out
}
