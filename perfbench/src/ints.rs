//! `analytics_ints`: §5 column analytics on a deep, near-distinct integer
//! column in one [`TieredStore`], read through published snapshots, with
//! small groups of appends each followed by a publish. No router.

use std::time::Instant;

use wavelet_trie::binarize::FixedWidthMsb;
use wavelet_trie::SeqIndex;
use wt_bits::SpaceUsage;
use wt_store::{StoreReader, TieredStore};
use wt_trie::{BitStr, BitString};
use wt_workloads::{clustered_u64, rng, RngExt};

use crate::clock::{measure, Cost, Meter};
use crate::model::{top_bits, IntModel};
use crate::replay::{ReplayStore, Segments};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{dir_bytes, walls, LoadStats, Run, MIN_PHASES};

const NAME: &str = "analytics_ints";
/// Values loaded before serving.
const BASE: usize = 80_000;
/// Rounds per phase (512 read calls). Every phase starts from the set-up state, so every phase appends the
/// same `PHASE_ROUNDS * GROUP` values, in order.
const PHASE_ROUNDS: usize = 16;
const CLUSTERS: usize = 16;
const SPREAD: u64 = 1 << 24;
const WIDTH: u32 = 64;
const BATCH: usize = 64;
/// Appends per group; each group ends with a publish.
const GROUP: usize = 4;
/// Sub-rounds of reads per round; each round ends with one append group.
const SUB_ROUNDS: usize = 4;
/// Longest §5 window.
const MAX_WINDOW: usize = 2048;
/// Window of the `distinct_in_range` call that checks each restart.
const RESTART_WINDOW: usize = 1024;

struct Setup {
    values: Vec<u64>,
    enc: Vec<BitString>,
    store: TieredStore,
}

fn setup(seed: u64) -> Setup {
    let values = clustered_u64(BASE + PHASE_ROUNDS * GROUP, CLUSTERS, SPREAD, seed);
    let coder = FixedWidthMsb::new(WIDTH);
    let enc: Vec<BitString> = values.iter().map(|&v| coder.encode_u64(v)).collect();
    let mut store = TieredStore::new();
    for e in &enc[..BASE] {
        store
            .append(e.as_bitstr())
            .expect("fixed-width codes are prefix-free");
    }
    store.seal();
    store.compact();
    store.publish();
    Setup { values, enc, store }
}

/// One read call, with what its answer is checked against.
enum Call {
    Distinct {
        l: usize,
        r: usize,
    },
    Majority {
        l: usize,
        r: usize,
    },
    Frequent {
        l: usize,
        r: usize,
        min: usize,
    },
    Prefixes {
        l: usize,
        r: usize,
        depth: u32,
    },
    CountPrefix {
        top: u64,
        bits: u32,
        l: usize,
        r: usize,
    },
    Rank(Vec<(u64, usize)>),
    Select(Vec<(u64, usize)>),
    Access(Vec<usize>),
}

enum Reply {
    Pairs(Vec<(BitString, usize)>),
    Majority(Option<(BitString, usize)>),
    Count(usize),
    Counts(Vec<usize>),
    Positions(Vec<Option<usize>>),
    Strings(Vec<BitString>),
}

enum Event {
    Read(Call, Reply),
    Append(usize),
}

fn window(r: &mut rand::rngs::StdRng, len: usize) -> (usize, usize) {
    let w = r.random_range(16..=MAX_WINDOW).min(len);
    let l = r.random_range(0..=len - w);
    (l, l + w)
}

/// The calls of one sub-round, in order, drawn for a column of `len`.
fn sub_round(r: &mut rand::rngs::StdRng, values: &[u64], len: usize) -> Vec<Call> {
    let mut calls = Vec::with_capacity(8);
    let (l, rr) = window(r, len);
    calls.push(Call::Distinct { l, r: rr });
    let (l, rr) = window(r, len);
    calls.push(Call::Majority { l, r: rr });
    let (l, rr) = window(r, len);
    calls.push(Call::Frequent { l, r: rr, min: 2 });
    let (l, rr) = window(r, len);
    let depth = [12, 20, 28, 36, 44][r.random_range(0..5)];
    calls.push(Call::Prefixes { l, r: rr, depth });
    let (l, rr) = window(r, len);
    let bits = [20, 36, 44][r.random_range(0..3)];
    let top = top_bits(values[r.random_range(l..rr)], bits);
    calls.push(Call::CountPrefix {
        top,
        bits,
        l,
        r: rr,
    });
    let pick = |r: &mut rand::rngs::StdRng| values[r.random_range(0..len)];
    calls.push(Call::Rank(
        (0..BATCH)
            .map(|_| (pick(r), r.random_range(0..=len)))
            .collect(),
    ));
    calls.push(Call::Select(
        (0..BATCH)
            .map(|_| (pick(r), r.random_range(0..2)))
            .collect(),
    ));
    calls.push(Call::Access(
        (0..BATCH).map(|_| r.random_range(0..len)).collect(),
    ));
    calls
}

fn ops_of(c: &Call) -> usize {
    match c {
        Call::Rank(q) | Call::Select(q) => q.len(),
        Call::Access(p) => p.len(),
        _ => 1,
    }
}

fn prefix_of(top: u64, bits: u32) -> BitString {
    BitString::from_bits((0..bits).rev().map(|k| (top >> k) & 1 == 1))
}

fn encode(v: u64) -> BitString {
    FixedWidthMsb::new(WIDTH).encode_u64(v)
}

/// What one traced phase needs.
struct Traced<'a> {
    t: &'a mut Tracer,
    replay: ReplayStore,
}

fn range_span(c: &Call) -> &'static str {
    match c {
        Call::Distinct { .. } => "range.distinct_in_range",
        Call::Majority { .. } => "range.range_majority",
        Call::Frequent { .. } => "range.range_frequent",
        Call::Prefixes { .. } => "range.distinct_prefixes_in_range",
        _ => "range.range_count_prefix",
    }
}

/// Executes one call against a fresh snapshot; returns the reply and the
/// call's cost. With tracing the call is a `read.call` span, and a warm
/// re-run beneath it (snapshot take, the call, and for batches its
/// per-segment replay) splits it into layers.
fn execute(
    reader: &StoreReader,
    store: &TieredStore,
    c: &Call,
    tr: Option<&mut Traced<'_>>,
) -> (Reply, Cost) {
    let (reply, cost) = measure(|| call(&reader.snapshot(), c));
    let Some(tr) = tr else {
        return (reply, cost);
    };
    let req = tr.t.request();
    let work = ops_of(c) as u64;
    let root =
        tr.t.record("read.call", cost.start, cost.end, None, req, work);
    let (snap, _) =
        tr.t.span("snapshot.take", Some(root), req, 1, || reader.snapshot());
    let name = match c {
        Call::Rank(_) => "snapshot.rank_batch",
        Call::Select(_) => "snapshot.select_batch",
        Call::Access(_) => "snapshot.access_batch",
        other => range_span(other),
    };
    let (_, inner) = tr.t.span(name, Some(root), req, work, || {
        std::hint::black_box(call(&snap, c))
    });
    let segs = Segments::new(&snap, store.segment_kinds(), &store.segment_lens());
    match c {
        Call::Rank(q) => {
            let enc: Vec<BitString> = q.iter().map(|&(v, _)| encode(v)).collect();
            let qs: Vec<(BitStr<'_>, usize)> = enc
                .iter()
                .zip(q)
                .map(|(e, &(_, p))| (e.as_bitstr(), p))
                .collect();
            segs.rank(tr.t, inner, req, &qs);
        }
        Call::Select(q) => {
            let enc: Vec<BitString> = q.iter().map(|&(v, _)| encode(v)).collect();
            let qs: Vec<(BitStr<'_>, usize)> = enc
                .iter()
                .zip(q)
                .map(|(e, &(_, i))| (e.as_bitstr(), i))
                .collect();
            segs.select(tr.t, inner, req, &qs);
        }
        Call::Access(p) => segs.access(tr.t, inner, req, p),
        _ => {}
    }
    (reply, cost)
}

fn call(snap: &wt_store::StoreSnapshot, c: &Call) -> Reply {
    match c {
        Call::Distinct { l, r } => Reply::Pairs(snap.distinct_in_range(*l, *r)),
        Call::Majority { l, r } => Reply::Majority(snap.range_majority(*l, *r)),
        Call::Frequent { l, r, min } => Reply::Pairs(snap.range_frequent(*l, *r, *min)),
        Call::Prefixes { l, r, depth } => {
            Reply::Pairs(snap.distinct_prefixes_in_range(*l, *r, *depth as usize))
        }
        Call::CountPrefix { top, bits, l, r } => {
            let p = prefix_of(*top, *bits);
            Reply::Count(snap.range_count_prefix(p.as_bitstr(), *l, *r))
        }
        Call::Rank(q) => {
            let enc: Vec<BitString> = q.iter().map(|&(v, _)| encode(v)).collect();
            let qs: Vec<(BitStr<'_>, usize)> = enc
                .iter()
                .zip(q)
                .map(|(e, &(_, p))| (e.as_bitstr(), p))
                .collect();
            Reply::Counts(snap.rank_batch(&qs))
        }
        Call::Select(q) => {
            let enc: Vec<BitString> = q.iter().map(|&(v, _)| encode(v)).collect();
            let qs: Vec<(BitStr<'_>, usize)> = enc
                .iter()
                .zip(q)
                .map(|(e, &(_, i))| (e.as_bitstr(), i))
                .collect();
            Reply::Positions(snap.select_batch(&qs))
        }
        Call::Access(p) => Reply::Strings(snap.access_batch(p)),
    }
}

fn bits_value(b: BitStr<'_>) -> u64 {
    (0..b.len()).fold(0u64, |x, i| (x << 1) | b.get(i) as u64)
}

fn decode_pairs(pairs: &[(BitString, usize)]) -> Vec<(u64, usize)> {
    pairs
        .iter()
        .map(|(b, c)| (bits_value(b.as_bitstr()), *c))
        .collect()
}

/// Checks one answer against naive scans of the model.
fn check_reply(c: &Call, reply: &Reply, m: &IntModel, out: &mut Outcome) {
    let coder = FixedWidthMsb::new(WIDTH);
    match (c, reply) {
        (Call::Distinct { l, r }, Reply::Pairs(p)) => {
            let got = decode_pairs(p);
            if got.iter().map(|x| x.1).sum::<usize>() != r - l {
                out.wrong(format!(
                    "distinct_in_range({l}, {r}) counts do not sum to {}",
                    r - l
                ));
            }
            if got != m.window_counts(*l, *r) {
                out.wrong(format!(
                    "distinct_in_range({l}, {r}) differs from the window scan"
                ));
            }
        }
        (Call::Majority { l, r }, Reply::Majority(got)) => {
            let want = m
                .window_counts(*l, *r)
                .into_iter()
                .find(|&(_, c)| 2 * c > r - l);
            let got = got.as_ref().map(|(b, c)| (bits_value(b.as_bitstr()), *c));
            if got != want {
                out.wrong(format!(
                    "range_majority({l}, {r}) = {got:?}, scan says {want:?}"
                ));
            }
        }
        (Call::Frequent { l, r, min }, Reply::Pairs(p)) => {
            let want: Vec<(u64, usize)> = m
                .window_counts(*l, *r)
                .into_iter()
                .filter(|&(_, c)| c >= *min)
                .collect();
            if decode_pairs(p) != want {
                out.wrong(format!(
                    "range_frequent({l}, {r}, {min}) differs from the scan"
                ));
            }
        }
        (Call::Prefixes { l, r, depth }, Reply::Pairs(p)) => {
            let got = decode_pairs(p);
            if got.iter().map(|x| x.1).sum::<usize>() != r - l {
                out.wrong(format!(
                    "distinct_prefixes_in_range({l}, {r}) counts do not sum to {}",
                    r - l
                ));
            }
            if got != m.window_prefix_counts(*l, *r, *depth) {
                out.wrong(format!(
                    "distinct_prefixes_in_range({l}, {r}, {depth}) differs from the scan"
                ));
            }
        }
        (Call::CountPrefix { top, bits, l, r }, Reply::Count(got)) => {
            let want = (*l..*r)
                .filter(|&i| top_bits(m.get(i), *bits) == *top)
                .count();
            if *got != want {
                out.wrong(format!(
                    "range_count_prefix({l}, {r}) = {got}, scan says {want}"
                ));
            }
        }
        (Call::Rank(q), Reply::Counts(got)) => {
            for (&(v, pos), g) in q.iter().zip(got) {
                let want = m.rank(v, pos);
                if *g != want {
                    out.wrong(format!("rank({v}, {pos}) = {g}, model says {want}"));
                }
            }
        }
        (Call::Select(q), Reply::Positions(got)) => {
            for (&(v, idx), g) in q.iter().zip(got) {
                let want = m.select(v, idx);
                if *g != want {
                    out.wrong(format!("select({v}, {idx}) = {g:?}, model says {want:?}"));
                }
            }
        }
        (Call::Access(p), Reply::Strings(got)) => {
            for (&pos, g) in p.iter().zip(got) {
                let v = coder.decode_u64(g.as_bitstr());
                if v != m.get(pos) {
                    out.wrong(format!("access({pos}) = {v}, model says {}", m.get(pos)));
                }
            }
        }
        _ => out.wrong("reply of the wrong kind".into()),
    }
}

fn check(events: Vec<Event>, s: &Setup, m: &mut IntModel, out: &mut Outcome) {
    for ev in events {
        match ev {
            Event::Append(k) => {
                for _ in 0..k {
                    m.push(s.values[m.len()]);
                }
            }
            Event::Read(c, reply) => check_reply(&c, &reply, m, out),
        }
    }
}

/// What a load leaves: its latencies, the last phase's store, the saved
/// end state of the first phase, the restart times, and (traced) the last
/// phase's replay store with the strings all phases' replays appended and
/// re-froze.
struct Loaded {
    st: LoadStats,
    last: TieredStore,
    saved: Saved,
    restarts: Vec<Cost>,
    replayed: Option<(ReplayStore, u64, u64)>,
}

/// Closed-loop load: phases of `PHASE_ROUNDS` rounds, each on a fresh copy
/// of the set-up store, until `seconds` of timed phases are done; each
/// phase is checked after it ran. The first phase's end state is saved
/// under `dir`, and after every phase `RESTARTS_PER_PHASE` restarts recover
/// it.
fn run_load(
    s: &Setup,
    base_model: &IntModel,
    seed: u64,
    seconds: f64,
    dir: &std::path::Path,
    mut tracing: Option<(&mut Tracer, &ReplayStore)>,
    out: &mut Outcome,
) -> Loaded {
    let mut r = rng(seed ^ 0xa7a1);
    let mut st = LoadStats::default();
    let started = Instant::now();
    let mut measured = 0.0;
    let mut last = None;
    let mut saved: Option<Saved> = None;
    let mut restarts = Vec::new();
    let mut replayed = None;
    let (mut appended, mut refrozen) = (0, 0);
    let base_counts = tracing.as_ref().map(|(_, b)| (b.appended, b.refrozen));
    while measured < seconds || st.phases() < MIN_PHASES {
        if started.elapsed().as_secs_f64() > seconds * 3.0 + 60.0 {
            break;
        }
        let mut store = s.store.clone();
        let reader = store.reader();
        let mut traced = tracing.as_mut().map(|(t, base)| Traced {
            t,
            replay: (*base).clone(),
        });
        // Values of the column as served so far, for drawing queries.
        let mut values: Vec<u64> = s.values[..BASE].to_vec();
        let phase = Instant::now();
        let mut events = Vec::new();
        for _ in 0..PHASE_ROUNDS {
            for _ in 0..SUB_ROUNDS {
                for c in sub_round(&mut r, &values, values.len()) {
                    let (reply, d) = execute(&reader, &store, &c, traced.as_mut());
                    st.read(d, ops_of(&c));
                    events.push(Event::Read(c, reply));
                }
            }
            // One append call: the group's appends and the publish that
            // makes them visible, timed together.
            let first = values.len();
            let ((), cost) = measure(|| {
                for e in &s.enc[first..first + GROUP] {
                    store
                        .append(e.as_bitstr())
                        .expect("fixed-width codes are prefix-free");
                }
                store.publish();
            });
            st.append(cost, GROUP);
            if let Some(tr) = traced.as_mut() {
                let req = tr.t.request();
                tr.t.record("write.call", cost.start, cost.end, None, req, GROUP as u64);
                for (k, e) in s.enc[first..first + GROUP].iter().enumerate() {
                    tr.replay.append(tr.t, e.as_bitstr(), k + 1 == GROUP);
                }
            }
            values.extend_from_slice(&s.values[first..first + GROUP]);
            events.push(Event::Append(GROUP));
        }
        let wall = phase.elapsed().as_secs_f64();
        measured += wall;
        st.end_phase(wall);
        if let (Some(tr), Some((a, f))) = (traced, base_counts) {
            appended += tr.replay.appended - a;
            refrozen += tr.replay.refrozen - f;
            replayed = Some(tr.replay);
        }
        let mut model = base_model.clone();
        check(events, s, &mut model, out);
        let saved = match saved.as_mut() {
            Some(saved) => {
                last = Some(store);
                saved
            }
            None => {
                let t = tracing.as_mut().map(|(t, _)| &mut **t);
                saved.insert(save(&store, model, dir, seed, t))
            }
        };
        for _ in 0..crate::RESTARTS_PER_PHASE {
            restarts.push(restart(saved, tracing.as_mut().map(|(t, _)| &mut **t), out));
        }
    }
    let saved = saved.expect("at least one phase");
    while restarts.len() < crate::RESTARTS {
        restarts.push(restart(
            &saved,
            tracing.as_mut().map(|(t, _)| &mut **t),
            out,
        ));
    }
    if let Some((t, _)) = tracing {
        for _ in 0..crate::RESTARTS {
            let req = t.request();
            t.span("durable.load", None, req, 1, || {
                TieredStore::load_dir(&saved.dir).expect("loading a directory this run saved")
            });
        }
    }
    out.tally("read", st.read_ops(), 0);
    out.tally("append", st.appends(), 0);
    Loaded {
        st,
        last: last.expect("at least two phases"),
        saved,
        restarts,
        replayed: replayed.map(|rs| (rs, appended, refrozen)),
    }
}

/// The first phase's end state, saved; every restart recovers it.
struct Saved {
    dir: std::path::PathBuf,
    model: IntModel,
    calls: [Call; 2],
    bytes: u64,
    bits_per_string: f64,
}

/// Saves `store` into `dir`.
fn save(
    store: &TieredStore,
    model: IntModel,
    dir: &std::path::Path,
    seed: u64,
    t: Option<&mut Tracer>,
) -> Saved {
    let save = || store.save_dir(dir).expect("saving into the work directory");
    match t {
        Some(t) => {
            let req = t.request();
            t.span("durable.save", None, req, 1, save);
        }
        None => save(),
    }
    let mut r = rng(seed ^ 0x7e57);
    let len = model.len();
    let positions: Vec<usize> = (0..BATCH).map(|_| r.random_range(0..len)).collect();
    // A fixed window length keeps the restart's work the same for every seed.
    let l = r.random_range(0..=len - RESTART_WINDOW);
    Saved {
        dir: dir.to_path_buf(),
        bytes: dir_bytes(dir),
        bits_per_string: store.reader().snapshot().size_bits() as f64 / len as f64,
        calls: [
            Call::Access(positions),
            Call::Distinct {
                l,
                r: l + RESTART_WINDOW,
            },
        ],
        model,
    }
}

/// One restart: recover the store, answer one checked batch. Returns what
/// that cost.
fn restart(saved: &Saved, t: Option<&mut Tracer>, out: &mut Outcome) -> Cost {
    let meter = Meter::start();
    let recovered = match t {
        Some(t) => {
            let req = t.request();
            t.span("durable.recover", None, req, 1, || {
                TieredStore::recover_dir(&saved.dir)
            })
            .0
        }
        None => TieredStore::recover_dir(&saved.dir),
    };
    let (restored, report) = recovered.expect("recovering a directory this run saved");
    let snap = restored.reader().snapshot();
    let replies: Vec<Reply> = saved.calls.iter().map(|c| call(&snap, c)).collect();
    let cost = meter.stop();
    out.tally("restart_read", (BATCH + 1) as u64, 0);
    if !report.is_clean() || !report.quarantined.is_empty() {
        out.wrong(format!("restart was not clean: {report}"));
    }
    if snap.len() != saved.model.len() {
        out.wrong(format!(
            "recovered {} values, model holds {}",
            snap.len(),
            saved.model.len()
        ));
    }
    for (c, reply) in saved.calls.iter().zip(&replies) {
        check_reply(c, reply, &saved.model, out);
    }
    cost
}

pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::new(NAME);
    let repeats = if r.trace { 1 } else { crate::SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let (s, cost) = measure(|| setup(r.seed));
        setups.push(cost);
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    println!(
        "{NAME}: {} values, segments {:?} kinds {:?}",
        s.store.len(),
        s.store.segment_lens(),
        s.store.segment_kinds()
    );
    let base_model = IntModel::new(&s.values[..BASE]);

    let load = run_load(
        &s,
        &base_model,
        r.seed,
        r.seconds,
        &r.dir.join("a"),
        None,
        &mut out,
    );
    println!(
        "{NAME}: after a phase, segments {:?} kinds {:?}",
        load.last.segment_lens(),
        load.last.segment_kinds()
    );
    let (st, restarts) = (load.st, load.restarts);
    let strings = load.saved.model.len() as f64;
    let bytes = load.saved.bytes;
    let e2e = st.end_to_end(
        &setups,
        &restarts,
        load.saved.bits_per_string,
        bytes as f64 * 8.0 / strings,
    );
    st.print(NAME, &setups, &restarts);
    if !r.trace {
        out.metrics = e2e;
        return out;
    }
    for m in &e2e {
        println!("untraced {} {} {}", m.name, m.value, m.unit);
    }

    // Traced run on the same set-up state.
    let mut t = Tracer::default();
    {
        let req = t.request();
        let coder = FixedWidthMsb::new(WIDTH);
        t.span("binarize.encode", None, req, BASE as u64, || {
            s.values[..BASE]
                .iter()
                .map(|&v| coder.encode_u64(v))
                .collect::<Vec<_>>()
        });
    }
    let mut replay = ReplayStore::new();
    for e in &s.enc[..BASE] {
        replay.append(&mut t, e.as_bitstr(), false);
    }
    replay.seal_and_compact(&mut t);
    t.set_phase("load");
    let traced = run_load(
        &s,
        &base_model,
        r.seed,
        r.seconds,
        &r.dir.join("b"),
        Some((&mut t, &replay)),
        &mut out,
    );
    let tst = traced.st;
    let (mut last, appended, refrozen) =
        traced.replayed.expect("a traced load replays its appends");
    let kinds = last.kinds();
    last.maintain(&mut t);
    let layers = crate::layers::Layers {
        t: &t,
        appended: replay.appended + appended,
        refrozen: replay.refrozen + refrozen,
        kinds,
        bytes,
        unclassified: 0,
    };
    let overhead = crate::layers::overhead(tst.mean_read_us(), st.mean_read_us());
    out.metrics = layers.metrics(overhead);
    layers.reconcile(
        NAME,
        "read.call",
        "write.call",
        &st,
        &tst,
        &walls(&setups),
        crate::stats::median(&walls(&restarts)),
    );
    crate::write_spans(&t, r, NAME);
    out
}
