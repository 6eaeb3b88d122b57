//! End-to-end benchmark of the sharded wavelet-trie store.
//!
//! ```text
//! perfbench --workload <serve_url|ingest_url|analytics_ints|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--repeat <n>]
//! ```
//!
//! One client thread drives one workload in a closed loop for `--seconds`
//! of timed phases, checks every answer against an independent model after
//! each phase, saves, restarts and checks again. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). `--repeat n` runs the workload(s) `n` times in child
//! processes (seeds `seed..seed+n`) and prints each metric's median,
//! quartiles and spread. See `README.md` for the workloads.

mod clock;
mod ints;
mod layers;
mod model;
mod replay;
mod report;
mod stats;
mod trace;
mod urls;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use clock::Cost;
use report::{Metric, Outcome};

/// Set-ups per run; `setup_s` is the median of their CPU time.
pub const SETUP_REPEATS: usize = 3;
/// Fewest timed phases per run, whatever `--seconds` says (so that a run
/// holds enough read calls for its tail percentiles).
pub const MIN_PHASES: usize = 8;
/// Fewest restarts per run; `restart_cpu_s` is their median.
pub const RESTARTS: usize = 200;
/// Restarts after every phase, so that they spread over the run like the
/// phases do; the rest of `RESTARTS` follow the last phase.
pub const RESTARTS_PER_PHASE: usize = 8;

const WORKLOADS: [&str; 3] = ["serve_url", "ingest_url", "analytics_ints"];

/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_ops_per_cpu_s", "1/s"),
    ("query_cpu_p50_us", "us"),
    ("query_cpu_p90_us", "us"),
    ("append_cpu_p50_us", "us"),
    ("ingest_strings_per_cpu_s", "1/s"),
    ("restart_cpu_s", "s"),
    ("bits_per_string", "bits"),
    ("disk_bits_per_string", "bits"),
];

/// One run's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (removed at the end).
    pub dir: PathBuf,
}

/// Wall and CPU time and the work of a run's timed phases.
///
/// The gated load metrics are CPU time over every call of every phase,
/// at the reference clock rate (see [`clock`]); the wall-clock figures
/// and the CPU time as measured are printed beside them.
#[derive(Default)]
pub struct LoadStats {
    reads: Vec<Cost>,
    read_ops: u64,
    appends: Vec<Cost>,
    appended: u64,
    phases: usize,
    measured_s: f64,
    /// [`clock::probe`] after every phase.
    probes: Vec<f64>,
}

fn wall_us(c: &Cost) -> f64 {
    c.wall().as_secs_f64() * 1e6
}

fn cpu_us(c: &Cost) -> f64 {
    c.cpu.as_secs_f64() * 1e6
}

fn wall_s(c: &Cost) -> f64 {
    c.wall().as_secs_f64()
}

fn cpu_s(c: &Cost) -> f64 {
    c.cpu.as_secs_f64()
}

/// `f` of every cost.
pub fn each(costs: &[Cost], f: fn(&Cost) -> f64) -> Vec<f64> {
    costs.iter().map(f).collect()
}

/// Wall seconds of every cost.
pub fn walls(costs: &[Cost]) -> Vec<f64> {
    each(costs, wall_s)
}

impl LoadStats {
    /// One read call that answered `ops` operations.
    pub fn read(&mut self, c: Cost, ops: usize) {
        self.reads.push(c);
        self.read_ops += ops as u64;
    }

    /// One append call that stored `strings` strings.
    pub fn append(&mut self, c: Cost, strings: usize) {
        self.appends.push(c);
        self.appended += strings as u64;
    }

    /// Closes a timed phase, which took `wall_s` seconds, and probes the
    /// clock rate.
    pub fn end_phase(&mut self, wall_s: f64) {
        self.probes.push(clock::probe());
        self.phases += 1;
        self.measured_s += wall_s;
    }

    pub fn phases(&self) -> usize {
        self.phases
    }

    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }

    pub fn appends(&self) -> u64 {
        self.appended
    }

    /// Mean wall time of a read call (the traced run's spans are wall
    /// time, so the layer split compares against these).
    pub fn mean_read_us(&self) -> f64 {
        stats::mean(&each(&self.reads, wall_us))
    }

    pub fn mean_append_us(&self) -> f64 {
        stats::mean(&each(&self.appends, wall_us))
    }

    /// Wall time in append calls per string appended.
    pub fn append_us_per_string(&self) -> f64 {
        1e6 * walls(&self.appends).iter().sum::<f64>() / self.appended.max(1) as f64
    }

    /// Reference over measured clock rate: the median of the phases'
    /// probes against [`clock::REF_NS_PER_STEP`].
    pub fn clock_scale(&self) -> f64 {
        let p = stats::median(&self.probes);
        if p > 0.0 {
            clock::REF_NS_PER_STEP / p
        } else {
            1.0
        }
    }

    /// The nine end-to-end metrics; every time in them is CPU time at
    /// the reference clock rate.
    pub fn end_to_end(
        &self,
        setup: &[Cost],
        restarts: &[Cost],
        bits_per_string: f64,
        disk_bits_per_string: f64,
    ) -> Vec<Metric> {
        self.metrics(
            self.clock_scale(),
            setup,
            restarts,
            bits_per_string,
            disk_bits_per_string,
        )
    }

    /// The end-to-end metrics with every CPU time multiplied by `scale`.
    fn metrics(
        &self,
        scale: f64,
        setup: &[Cost],
        restarts: &[Cost],
        bits_per_string: f64,
        disk_bits_per_string: f64,
    ) -> Vec<Metric> {
        let reads = stats::sorted(&each(&self.reads, cpu_us));
        // The gated tail is p90, not p99: a call whose vCPU the host
        // preempts refills its caches afterwards, which CPU time counts.
        // While the host stole 5–15%, five seeds of an unpinned build
        // spread 0.31–0.39 in CPU-time p99 and 0.06–0.10 in p50.
        let p90 = stats::tail_percentile(&reads, 0.9).unwrap_or_else(|| {
            println!("warning: fewer than 100 read calls; query_cpu_p90_us is the maximum");
            reads.last().copied().unwrap_or(0.0)
        });
        let total = |v: &[Cost]| each(v, cpu_s).iter().sum::<f64>();
        let values = [
            scale * stats::median(&each(setup, cpu_s)),
            self.read_ops as f64 / (scale * total(&self.reads)),
            scale * stats::median(&reads),
            scale * p90,
            scale * stats::median(&each(&self.appends, cpu_us)),
            self.appended as f64 / (scale * total(&self.appends)),
            scale * stats::median(&each(restarts, cpu_s)),
            bits_per_string,
            disk_bits_per_string,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    }

    /// Sample counts, tails and the wall-clock figures beside the CPU
    /// ones, for the human-readable report.
    pub fn print(&self, workload: &str, setup: &[Cost], restarts: &[Cost]) {
        let q = |v: &[f64]| stats::quartiles(v).unwrap_or([stats::median(v); 3]);
        let [lo, mid, hi] = q(&self.probes);
        println!(
            "{workload}: clock probe {mid:.4} ns/step (quartiles {lo:.4}, {hi:.4}; {} probes), {:.2} GHz; CPU times are scaled by {:.4} to the reference {:.2} GHz",
            self.probes.len(),
            3.0 / mid,
            self.clock_scale(),
            3.0 / clock::REF_NS_PER_STEP,
        );
        for m in self.metrics(1.0, setup, restarts, 0.0, 0.0).iter().take(7) {
            println!("unscaled {} {} {}", m.name, m.value, m.unit);
        }
        println!(
            "{workload}: {} phases, {:.2} s timed, {} read calls ({} ops), {} append calls ({} strings)",
            self.phases,
            self.measured_s,
            self.reads.len(),
            self.read_ops,
            self.appends.len(),
            self.appended,
        );
        let line = |what: &str, v: Vec<f64>| {
            let v = stats::sorted(&v);
            let tail = stats::best_tail(&v)
                .map(|(p, x)| format!(", p{} {x:.1} us", p * 100.0))
                .unwrap_or_default();
            println!(
                "{workload}: {what}: {} calls, p50 {:.1} us{tail}",
                v.len(),
                stats::median(&v)
            );
        };
        line("read CPU", each(&self.reads, cpu_us));
        line("read wall", each(&self.reads, wall_us));
        line("append CPU", each(&self.appends, cpu_us));
        line("append wall", each(&self.appends, wall_us));
        let per_s =
            |n: u64, v: &[Cost], f: fn(&Cost) -> f64| n as f64 / each(v, f).iter().sum::<f64>();
        println!(
            "{workload}: read ops per CPU second {:.0}, per wall second {:.0}; strings appended per CPU second {:.0}, per wall second {:.0}",
            per_s(self.read_ops, &self.reads, cpu_s),
            per_s(self.read_ops, &self.reads, wall_s),
            per_s(self.appended, &self.appends, cpu_s),
            per_s(self.appended, &self.appends, wall_s),
        );
        println!(
            "{workload}: set-ups CPU {:.3?} s, wall {:.3?} s",
            each(setup, cpu_s),
            walls(setup)
        );
        println!(
            "{workload}: {} restarts, quartiles CPU {:.4?} s, wall {:.4?} s",
            restarts.len(),
            q(&each(restarts, cpu_s)),
            q(&walls(restarts)),
        );
    }
}

/// The calling thread held on one CPU; dropping it restores the CPUs the
/// thread was allowed before.
pub struct Pinned {
    before: [u64; CPU_WORDS],
}

/// Words of a CPU mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
const CPU_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Holds the calling thread, and the threads it starts from then on, on
/// the last CPU it may run on, where the OS lets it. The reference
/// machine's two vCPUs differ in speed by about 15%, and a single-threaded
/// load stays on whichever the scheduler first gave it, so unpinned runs
/// fell into two groups by placement. On one CPU the router's shard
/// workers also run one after the other on the client's CPU, so that no
/// call waits on, or is charged for, work on another vCPU.
pub fn pin_to_last_cpu() -> Option<Pinned> {
    #[cfg(target_os = "linux")]
    {
        let mut before = [0u64; CPU_WORDS];
        let size = std::mem::size_of_val(&before);
        // SAFETY: `before` is a writable buffer of `size` bytes, and pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, size, before.as_mut_ptr()) } != 0 {
            return None;
        }
        let (w, word) = before.iter().enumerate().rev().find(|(_, &m)| m != 0)?;
        let mut one = [0u64; CPU_WORDS];
        one[w] = 1 << (63 - word.leading_zeros());
        // SAFETY: `one` is a readable buffer of `size` bytes naming one CPU
        // the thread may already use; pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(Pinned { before })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `before` is the readable mask `sched_getaffinity` filled;
        // pid 0 names the calling thread. A failure leaves the thread on
        // one CPU, which only slows what follows.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.before), self.before.as_ptr());
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`, where
/// available: time the hypervisor gave to others shows up as noise here.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Writes the traced run's spans next to the run directories.
pub fn write_spans(t: &trace::Tracer, r: &Run, workload: &str) {
    let path = r
        .dir
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("spans-{workload}-seed{}.tsv", r.seed));
    match t.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run_workload(name: &str, r: &Run) -> Outcome {
    match name {
        "serve_url" => urls::run(&urls::SERVE_URL, r),
        "ingest_url" => urls::run(&urls::INGEST_URL, r),
        "analytics_ints" => ints::run(r),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs the workloads `n` times each in child processes and prints, per
/// metric, the median, the quartiles, the inter-quartile spread and the
/// largest relative spread over the runs.
fn repeat(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for w in names {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut failed_shares: Vec<f64> = Vec::new();
        for i in 0..n as u64 {
            let seed = args.seed + i;
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .expect("running the benchmark as a child process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                println!("{w} seed {seed}: exited with {}", out.status);
                ok = false;
                continue;
            }
            for line in stdout.lines() {
                if line.contains("host CPU steal") {
                    println!("seed {seed}: {line}");
                }
                let mut f = line.split_whitespace();
                let prefix = match f.next() {
                    Some("metric") => "",
                    Some("unscaled") => "unscaled ",
                    _ => continue,
                };
                let (Some(name), Some(v), Some(unit)) = (f.next(), f.next(), f.next()) else {
                    continue;
                };
                let name = format!("{prefix}{name}");
                let v: f64 = v.parse().unwrap_or(f64::NAN);
                match series.iter_mut().find(|s| s.0 == name) {
                    Some(s) => s.2.push(v),
                    None => series.push((name, unit.into(), vec![v])),
                }
            }
            let last = stdout.lines().last().unwrap_or("");
            let field = |key: &str| -> f64 {
                last.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(f64::NAN)
            };
            failed_shares.push(field("failed") / field("attempted"));
            println!("{w} seed {seed}: done");
        }
        println!(
            "== {w}: {n} runs, seeds {}..{}",
            args.seed,
            args.seed + n as u64 - 1
        );
        println!(
            "{:<34} {:>14} {:>14} {:>14} {:>8} {:>8}",
            "metric", "q1", "median", "q3", "iqr/med", "max/med"
        );
        for (name, unit, v) in &series {
            let m = stats::median(v);
            let q = stats::quartiles(v).unwrap_or([m; 3]);
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = |x: f64| if m == 0.0 { 0.0 } else { x / m.abs() };
            println!(
                "{:<34} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>8.4}",
                format!("{name} ({unit})"),
                q[0],
                m,
                q[2],
                stats::iqr_share(v),
                spread(hi - lo)
            );
        }
        for (name, _, v) in &series {
            println!("runs {name}: {v:?}");
        }
        println!("failed share per run: {failed_shares:?}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat(&args, n);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let root = PathBuf::from(".perfbench-work");
    let mut outcomes = Vec::new();
    for w in names {
        let dir = root.join(format!("{w}-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        let r = Run {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            dir: dir.clone(),
        };
        let before = cpu_ticks();
        // The measured run holds the whole workload on one CPU (see
        // `pin_to_last_cpu`); the traced run keeps both, so that its split
        // shows the router's two-way scatter.
        let pinned = if args.trace { None } else { pin_to_last_cpu() };
        let out = run_workload(w, &r);
        drop(pinned);
        if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_ticks()) {
            let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            println!("{w}: host CPU steal during the run {share:.1}%");
        }
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&dir);
        out.print_lines();
        outcomes.push(out);
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let line = if let [single] = outcomes.as_slice() {
        single.json()
    } else {
        let metrics: Vec<Metric> = outcomes
            .iter()
            .flat_map(|o| {
                o.metrics.iter().map(move |m| Metric {
                    name: format!("{}.{}", o.workload, m.name),
                    ..m.clone()
                })
            })
            .collect();
        let attempted = outcomes.iter().map(Outcome::attempted).sum();
        let failed = outcomes.iter().map(Outcome::failed).sum();
        report::json_line(correct, attempted, failed, &metrics)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong answers; see the WRONG lines above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn cost(wall_us: u64, cpu_us: u64) -> Cost {
        let start = Instant::now();
        Cost {
            start,
            end: start + Duration::from_micros(wall_us),
            cpu: Duration::from_micros(cpu_us),
        }
    }

    #[test]
    fn load_metrics_are_cpu_time_over_every_call() {
        let mut st = LoadStats::default();
        for i in 0..2000u64 {
            // Wall time runs far ahead of CPU time on some calls, as when
            // the host steals the CPU; the metrics do not see it.
            let wall = if i % 10 == 0 { 9_000 } else { 1_100 };
            st.read(cost(wall, 1_000 + i % 100), 64);
            st.append(cost(wall, 50), 2);
        }
        st.end_phase(3.0);
        let setup = [
            cost(2_000_000, 1_000_000),
            cost(9_000_000, 1_200_000),
            cost(1, 900_000),
        ];
        let restarts = [cost(5_000, 4_000), cost(50_000, 3_000), cost(6_000, 5_000)];
        let m = st.metrics(1.0, &setup, &restarts, 10.0, 5.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).expect("metric").value;
        assert_eq!(get("setup_s"), 1.0);
        assert_eq!(get("query_cpu_p50_us"), 1049.5);
        assert_eq!(get("query_cpu_p90_us"), 1089.0);
        assert_eq!(get("append_cpu_p50_us"), 50.0);
        assert!((get("restart_cpu_s") - 0.004).abs() < 1e-12);
        let cpu_s: f64 = (0..2000u64).map(|i| (1_000 + i % 100) as f64 * 1e-6).sum();
        assert!((get("query_ops_per_cpu_s") / (64.0 * 2000.0 / cpu_s) - 1.0).abs() < 1e-9);
        assert!((get("ingest_strings_per_cpu_s") - 2.0 / 50e-6).abs() < 1e-6);
        // A clock twice as fast as the reference halves every CPU time.
        let fast = st.metrics(2.0, &setup, &restarts, 10.0, 5.0);
        for (f, m) in fast.iter().zip(&m) {
            let ratio = f.value / m.value;
            let want = match f.unit {
                "1/s" => 0.5,
                "bits" => 1.0,
                _ => 2.0,
            };
            assert!((ratio - want).abs() < 1e-12, "{} {ratio}", f.name);
        }
        let scale = st.clock_scale();
        assert!(scale > 0.1 && scale < 10.0, "{scale}");
        let scaled = st.end_to_end(&setup, &restarts, 10.0, 5.0);
        assert_eq!(scaled[0].value, scale * m[0].value);
        assert_eq!(st.read_ops(), 2000 * 64);
        assert_eq!(st.appends(), 4000);
        assert_eq!(st.phases(), 1);
    }
}
