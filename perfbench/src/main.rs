//! Layer-ledger benchmark of SafeGen-rs.
//!
//! ```text
//! perfbench --workload explore|serve|batch --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced runs;
//! `--trace 1` runs the same operations once more inside per-layer spans
//! and reports the layer ledger and the exact counts. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `README.md` beside this file lists every metric and workload.

mod check;
mod clock;
mod counts;
mod layers;
mod ledger;
mod suite;
mod workloads;

use check::Out;
use counts::Counts;
use ledger::{Trace, SETUP};
use std::path::PathBuf;
use std::time::Instant;
use suite::{Config, Op, Suite};
use workloads::{Batch, Bench, Explore, Raw, Serve};

#[global_allocator]
static ALLOC: ledger::CountingAlloc = ledger::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload explore|serve|batch --seed N --seconds S --trace 0|1";

/// Operations per statistics window at least: latency percentiles are
/// taken per window, and each window must leave ten samples beyond its
/// 90th percentile. A window is whole rounds over the (program,
/// configuration) pairs, so every window has the same mix.
const MIN_WINDOW_OPS: usize = 100;

/// Whole cycles every untraced run measures at least.
const MIN_CYCLES: usize = 3;

/// Share of `--seconds` the set-up phase of an untraced run takes, and
/// the set-up repetitions it makes at least and at most (`setup_s` is
/// the median of their CPU times).
const SETUP_SHARE: f64 = 0.1;
const MIN_SETUPS: usize = 15;
const MAX_SETUPS: usize = 500;

/// A run stops taking new operations after this long, whatever else it
/// still wants, to stay inside the three minutes a run may take.
const HARD_STOP_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How a workload draws its operations.
struct Shape {
    configs: &'static [Config],
    /// Passes over every (program, configuration) pair in one cycle.
    rounds: usize,
    /// Input sets per operation.
    items: usize,
}

/// Items per `batch` call: the paper's repetition count, which the
/// repository's own throughput path (`harness::measure`, `SAFEGEN_REPS`
/// default) evaluates per call for every configuration.
const BATCH_ITEMS: usize = 30;

fn shape(workload: &str) -> Option<Shape> {
    Some(match workload {
        "explore" | "serve" => Shape {
            configs: &suite::FIG8,
            rounds: 12,
            items: 1,
        },
        "batch" => Shape {
            configs: &suite::BATCH,
            rounds: 7,
            items: BATCH_ITEMS,
        },
        _ => return None,
    })
}

/// Metric values in output order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => print(&out),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print(out: &Outcome) {
    for (name, value, unit) in &out.metrics.0 {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let shape = shape(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let run_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let suite = Suite::paper();
    let ops = suite::operations(&suite, shape.configs, shape.rounds, shape.items, args.seed);
    let pairs = suite.programs.len() * shape.configs.len();
    let window = pairs * MIN_WINDOW_OPS.div_ceil(pairs);
    assert!(
        ops.len().is_multiple_of(window),
        "a cycle is not whole statistics windows"
    );
    let mut bench: Box<dyn Bench> = match args.workload.as_str() {
        "explore" => Box::new(Explore::new(&suite)),
        "serve" => Box::new(Serve::new(&suite, run_dir.clone())),
        _ => Box::new(Batch::new(&suite)),
    };
    let started = Instant::now();
    let result = if args.trace {
        let path = run_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        traced(&mut *bench, &suite, &ops, args.seconds, started, &path)
    } else {
        timed(&mut *bench, &suite, &ops, window, args.seconds, started)
    };
    let down = bench.teardown();
    let out = result?;
    down?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Checks every operation's results and keeps the first cycle's (as
/// accuracy and fingerprint), which define the accuracy metrics and
/// which every later cycle must reproduce bit for bit.
struct Checker {
    first: Vec<Option<Vec<(f64, u64)>>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(n: usize) -> Checker {
        Checker {
            first: vec![None; n],
            attempted: 0,
            failed: 0,
        }
    }

    fn check(
        &mut self,
        bench: &dyn Bench,
        suite: &Suite,
        op: &Op,
        raw: Result<Raw, String>,
    ) -> Option<Vec<Out>> {
        self.attempted += 1;
        let checked = raw
            .and_then(|raw| bench.outputs(op, raw))
            .and_then(|outs| self.verdict(op, outs));
        match checked {
            Ok(outs) => Some(outs),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!(
                        "FAIL op {} {} {} k={}: {e}",
                        op.id, suite.programs[op.prog].name, op.config.name, op.config.k
                    );
                }
                None
            }
        }
    }

    fn verdict(&mut self, op: &Op, outs: Vec<Out>) -> Result<Vec<Out>, String> {
        if outs.len() != op.inputs.len() {
            return Err(format!(
                "{} results for {} inputs",
                outs.len(),
                op.inputs.len()
            ));
        }
        for (i, (out, input)) in outs.iter().zip(&op.inputs).enumerate() {
            check::against_native(out, &input.native, op.config.is_sound())
                .map_err(|e| format!("item {i}: {e}"))?;
        }
        let seen: Vec<(f64, u64)> = outs.iter().map(|o| (o.acc_bits, o.fingerprint())).collect();
        match &self.first[op.id] {
            Some(first) if first.iter().map(|f| f.1).ne(seen.iter().map(|s| s.1)) => {
                return Err("result differs from the same operation's first result".into());
            }
            Some(_) => {}
            None => self.first[op.id] = Some(seen),
        }
        Ok(outs)
    }

    /// Mean certified bits over non-vacuous sound results, and the share
    /// of sound results that are vacuous, over the first cycle.
    fn accuracy(&self, ops: &[Op]) -> (f64, f64) {
        let (mut bits, mut good, mut vacuous) = (0.0, 0usize, 0usize);
        for op in ops.iter().filter(|op| op.config.is_sound()) {
            for &(acc_bits, _) in self.first[op.id].iter().flatten() {
                if check::vacuous(acc_bits) {
                    vacuous += 1;
                } else {
                    bits += acc_bits;
                    good += 1;
                }
            }
        }
        (
            ratio(bits, good as f64),
            ratio(vacuous as f64, (good + vacuous) as f64),
        )
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Percentile (`q` in 0..=1) of a sample, interpolating linearly between
/// order statistics (the median of an even sample is the mean of the two
/// middle values).
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Latency quantile (`q` in 0..=1): the Harrell–Davis estimator, a
/// Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics, with
/// the weights taken at each rank's midpoint. A window mixes operation
/// kinds in fixed proportions, so the plain median falls on the boundary
/// between two kinds and reads one extreme sample; this estimator
/// averages the samples around the quantile instead.
fn latency_quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let log_w: Vec<f64> = (0..v.len())
        .map(|i| {
            let x = (i as f64 + 0.5) / n;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut weight) = (0.0, 0.0);
    for (x, lw) in v.iter().zip(&log_w) {
        let w = (lw - top).exp();
        sum += w * x;
        weight += w;
    }
    ratio(sum, weight)
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Per program: `median(num) / median(den)` over the programs' samples,
/// then the geometric mean across programs.
fn geomean_of_medians(n_programs: usize, num: &[(usize, f64)], den: &[(usize, f64)]) -> f64 {
    let of = |xs: &[(usize, f64)], p: usize| -> Vec<f64> {
        xs.iter()
            .filter(|(q, _)| *q == p)
            .map(|(_, x)| *x)
            .collect()
    };
    let ratios: Vec<f64> = (0..n_programs)
        .map(|p| ratio(median(&of(num, p)), median(&of(den, p))))
        .collect();
    geomean(&ratios)
}

// ---------------------------------------------------------------------
// Set-up and cycles
// ---------------------------------------------------------------------

/// Registry counts a set-up must reproduce exactly.
const SETUP_COUNTS: [&str; 4] = [
    "compile.compiles",
    "compile.prioritize",
    "cache.hits",
    "cache.misses",
];

/// Untraced set-up repetitions: CPU and wall times, and the counts,
/// which must be identical across repetitions.
#[derive(Default)]
struct Setups {
    cpu: Vec<f64>,
    wall: Vec<f64>,
    counts: Option<Counts>,
}

impl Setups {
    /// Replaces the workload's set-up with a fresh one.
    fn rep(&mut self, bench: &mut dyn Bench) -> Result<(), String> {
        bench.teardown()?;
        let before = counts::registry();
        let (c, t) = (clock::cpu(), clock::wall());
        bench.setup()?;
        self.wall.push(clock::wall() - t);
        self.cpu.push(clock::cpu() - c);
        let mut d = counts::delta(&before, &counts::registry());
        d.retain(|k, _| SETUP_COUNTS.contains(k));
        match &self.counts {
            None => self.counts = Some(d),
            Some(first) if *first != d => {
                return Err(format!(
                    "set-up counts differ between repetitions: {first:?} vs {d:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// One untraced pass over the operation list.
struct Cycle {
    counts: Counts,
    /// Summed `RunStats` of every result.
    stats: [u64; 5],
    results: usize,
}

fn cycle(bench: &dyn Bench, suite: &Suite, ops: &[Op], checker: &mut Checker) -> Cycle {
    let before = counts::registry();
    let mut stats = [0u64; 5];
    let mut results = 0;
    for op in ops {
        let raw = bench.exec(op);
        for out in checker.check(bench, suite, op, raw).iter().flatten() {
            results += 1;
            for (s, v) in stats.iter_mut().zip(out.stats) {
                *s += v;
            }
        }
    }
    Cycle {
        counts: counts::delta(&before, &counts::registry()),
        stats,
        results,
    }
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

/// One timed operation: its latency (wall), its CPU time, and the native
/// kernels' CPU time on the same inputs, measured right after it
/// (seconds).
struct Timing {
    wall: f64,
    cpu: f64,
    native: f64,
}

fn timed(
    bench: &mut dyn Bench,
    suite: &Suite,
    ops: &[Op],
    window: usize,
    seconds: f64,
    started: Instant,
) -> Result<Outcome, String> {
    // The set-up phase: fresh set-ups back to back, before any operation.
    // The last one serves every cycle, so the whole run evaluates on one
    // program, as a user's session does.
    let run_start = Instant::now();
    let mut setups = Setups::default();
    while setups.cpu.len() < MIN_SETUPS
        || (setups.cpu.len() < MAX_SETUPS
            && run_start.elapsed().as_secs_f64() < SETUP_SHARE * seconds)
    {
        setups.rep(bench)?;
    }
    bench.prepare(ops)?;
    let mut checker = Checker::new(ops.len());
    // One untimed warm-up cycle: its results define the accuracy metrics
    // and every later result must reproduce them bit for bit.
    for op in ops {
        let raw = bench.exec(op);
        checker.check(&*bench, suite, op, raw);
    }
    // Closed loop, one client, whole cycles. After each operation the
    // native kernels run on the same inputs: the gated per-operation
    // metrics are ratios of these adjacent CPU times, which a host that
    // speeds up or slows down between runs moves together.
    let mut timings: Vec<Timing> = Vec::new();
    let mut cycles = 0;
    // Peak memory is read after a fixed amount of work (the set-up phase,
    // the warm-up and `MIN_CYCLES` cycles), not after however many cycles
    // the host fits into the run: it grows with the operations served.
    let mut peak_rss = None;
    while cycles < MIN_CYCLES || run_start.elapsed().as_secs_f64() < seconds {
        if started.elapsed().as_secs_f64() >= HARD_STOP_S && cycles > 0 {
            eprintln!("perfbench: hard stop after {cycles} whole cycles");
            break;
        }
        bench.next_cycle()?;
        for op in ops {
            let (c, t) = (clock::cpu(), clock::wall());
            let raw = bench.exec(op);
            let wall = clock::wall() - t;
            let cpu = clock::cpu() - c;
            checker.check(&*bench, suite, op, raw);
            let native = suite::native_time(suite, op, clock::cpu) * op.inputs.len() as f64;
            timings.push(Timing { wall, cpu, native });
        }
        cycles += 1;
        if cycles == MIN_CYCLES {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    // Every statistic is taken per window, then the median across windows.
    let across = |f: &dyn Fn(&[Timing]) -> f64| -> f64 {
        median(&timings.chunks_exact(window).map(f).collect::<Vec<_>>())
    };
    let x_native = |c: &[Timing]| c.iter().map(|t| t.cpu / t.native).collect::<Vec<_>>();
    let ms = |c: &[Timing], q: f64| {
        latency_quantile(&c.iter().map(|t| t.wall).collect::<Vec<_>>(), q) * 1e3
    };
    let busy = |c: &[Timing]| c.iter().map(|t| t.wall).sum::<f64>();
    let items: usize = ops[..window].iter().map(|op| op.inputs.len()).sum();
    let slowdown: Vec<f64> = (0..suite.programs.len())
        .map(|p| {
            let xs: Vec<f64> = ops
                .iter()
                .cycle()
                .zip(&timings)
                .filter(|(op, _)| op.prog == p && op.config.is_dspv8())
                .map(|(_, t)| t.cpu / t.native)
                .collect();
            median(&xs)
        })
        .collect();
    let (acc_bits, vacuous) = checker.accuracy(ops);
    // Wall times are printed, not gated: they move with the host. Nor is
    // the median ratio: a `batch` window is half cheap operations (unsound,
    // igen-f64) and half affine ones ten times dearer, so its median falls
    // in the gap between the two and reads a weighted pair of extremes.
    println!(
        "latency samples: {} ({cycles} cycles of {} operations, windows of {window}); wall latency p50 {:.4} ms, p90 {:.4} ms; {:.2} evaluations/s; CPU ÷ native p50 {:.2} x",
        timings.len(),
        ops.len(),
        across(&|c| ms(c, 0.5)),
        across(&|c| ms(c, 0.9)),
        across(&|c| ratio(items as f64, busy(c))),
        across(&|c| latency_quantile(&x_native(c), 0.5)),
    );
    println!(
        "set-up samples: {}; CPU min {:.6} s, median {:.6} s; wall median {:.6} s",
        setups.cpu.len(),
        percentile(&setups.cpu, 0.0),
        median(&setups.cpu),
        median(&setups.wall),
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups.cpu), "s");
    m.put("op_cpu_geomean_x", across(&|c| geomean(&x_native(c))), "x");
    m.put(
        "op_cpu_p90_x",
        across(&|c| latency_quantile(&x_native(c), 0.9)),
        "x",
    );
    m.put("slowdown_geomean", geomean(&slowdown), "x");
    m.put("acc_bits_mean", acc_bits, "bits");
    m.put("vacuous_share", vacuous, "share");
    m.put(
        "ok_share",
        1.0 - ratio(checker.failed as f64, checker.attempted as f64),
        "share",
    );
    m.put("peak_rss_mb", peak_rss.map_or_else(peak_rss_mb, Ok)?, "MB");
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: m,
    })
}

// ---------------------------------------------------------------------
// Traced run: the layer ledger and the exact counts
// ---------------------------------------------------------------------

/// Layers whose self time the ledger reports, with their metric names.
const LAYERS: [(&str, &str); 12] = [
    ("cfront.parse", "cfront.parse_ms"),
    ("cfront.sema", "cfront.sema_ms"),
    ("ir.tac", "ir.tac_ms"),
    ("ir.bytecode", "ir.bytecode_ms"),
    ("analysis.annotate", "analysis.annotate_ms"),
    ("core.variant", "core.variant_ms"),
    ("artifact.encode", "artifact.encode_ms"),
    ("artifact.load", "artifact.load_ms"),
    ("serve.ready", "serve.ready_ms"),
    ("vm.exec", "vm.exec_ms"),
    ("api.handle_eval", "api.handle_eval_ms"),
    ("serve.request", "serve.transport_ms"),
];

fn traced(
    bench: &mut dyn Bench,
    suite: &Suite,
    ops: &[Op],
    seconds: f64,
    started: Instant,
    path: &std::path::Path,
) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    setups.rep(bench)?;
    setups.rep(bench)?;
    bench.teardown()?;
    let mut t = Trace::new();
    ledger::count_allocs(true);
    let built = bench.setup_traced(&mut t);
    ledger::count_allocs(false);
    built?;
    bench.verify(ops)?;
    bench.prepare(ops)?;
    let mut checker = Checker::new(ops.len());
    let loop_start = Instant::now();
    let first = cycle(&*bench, suite, ops, &mut checker);

    // The traced pass: each operation through the layer calls, right
    // after the same operation through the API, so that the tracing
    // overhead is a ratio of adjacent measurements.
    let mut untraced_s = 0.0;
    let mut traced_fp_ops = vec![0u64; ops.len()];
    // Native nanoseconds per item, measured right after each unsound op.
    let mut native_ns = vec![0.0; ops.len()];
    for op in ops {
        let t0 = Instant::now();
        let raw = bench.exec(op);
        untraced_s += t0.elapsed().as_secs_f64();
        checker.check(&*bench, suite, op, raw);
        t.set_op(op.id);
        ledger::count_allocs(true);
        let raw = bench.exec_traced(op, &mut t);
        ledger::count_allocs(false);
        let outs = checker.check(&*bench, suite, op, raw);
        traced_fp_ops[op.id] = outs.iter().flatten().map(|o| o.stats[1]).sum();
        if !op.config.is_sound() {
            native_ns[op.id] = suite::native_time(suite, op, clock::wall) * 1e9;
        }
    }
    t.set_op(SETUP);

    // Lane speed-up (batch only): each operation at the default lane
    // width, then at width 1.
    let mut lanes_s: Vec<(f64, f64)> = Vec::new();
    if ops.iter().any(|op| op.inputs.len() > 1) {
        for op in ops {
            let timed_exec = |bench: &dyn Bench, checker: &mut Checker| {
                let t0 = Instant::now();
                let raw = bench.exec(op);
                let s = t0.elapsed().as_secs_f64();
                checker.check(bench, suite, op, raw);
                s
            };
            let wide = timed_exec(&*bench, &mut checker);
            bench.set_lanes(1);
            let scalar = timed_exec(&*bench, &mut checker);
            bench.set_lanes(0);
            lanes_s.push((wide, scalar));
        }
    }

    // Every further untraced cycle must reproduce the first one's counts.
    let mut deterministic = true;
    let mut cycles = 1;
    while cycles < 2
        || (loop_start.elapsed().as_secs_f64() < seconds
            && started.elapsed().as_secs_f64() < HARD_STOP_S)
    {
        let c = cycle(&*bench, suite, ops, &mut checker);
        cycles += 1;
        if c.counts != first.counts || c.stats != first.stats {
            deterministic = false;
            eprintln!(
                "FAIL counts differ between two cycles of the same operations:\n  {:?} {:?}\n  {:?} {:?}",
                first.counts, first.stats, c.counts, c.stats
            );
        }
    }
    t.write_jsonl(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut m = Metrics::default();
    let own = t.self_ns();
    let by_name = t.self_by_name();
    let layer_ns = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let wall = t.wall_ns();
    for (span, metric) in LAYERS {
        m.put(metric, layer_ns(span) / 1e6, "ms");
    }
    let claimed: f64 = LAYERS.iter().map(|(span, _)| layer_ns(span)).sum();
    m.put("residual_share", 1.0 - ratio(claimed, wall), "share");
    let traced_ops: f64 = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op != SETUP)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    m.put(
        "trace.overhead_share",
        ratio(traced_ops, untraced_s) - 1.0,
        "share",
    );
    m.put("trace.wall_ms", wall / 1e6, "ms");

    // Per-operation sums over the traced pass.
    let per_op = |value: &dyn Fn(&ledger::Span, i64) -> Option<f64>| -> Vec<f64> {
        let mut per = vec![0.0; ops.len()];
        for (s, &ns) in t.spans.iter().zip(&own) {
            if s.op != SETUP {
                per[s.op] += value(s, ns).unwrap_or(0.0);
            }
        }
        per
    };
    let exec_ns = per_op(&|s, ns| (s.name == "vm.exec").then_some(ns as f64));
    let exec_allocs = per_op(&|s, _| (s.name == "vm.exec").then_some(s.allocs as f64));
    let annotate_ns = per_op(&|s, ns| (s.name == "analysis.annotate").then_some(ns as f64));
    let root_ns = per_op(&|s, _| s.parent.is_none().then_some(s.dur_ns() as f64));
    let fgm_dspv8: Vec<&Op> = ops
        .iter()
        .filter(|op| suite.programs[op.prog].name == "fgm" && op.config.is_dspv8())
        .collect();
    m.put(
        "analysis.fgm_dspv8_share",
        ratio(
            fgm_dspv8.iter().map(|op| annotate_ns[op.id]).sum(),
            fgm_dspv8.iter().map(|op| root_ns[op.id]).sum(),
        ),
        "share",
    );
    m.put(
        "vm.ns_per_instr",
        ratio(exec_ns.iter().sum(), first.stats[0] as f64),
        "ns",
    );
    let per_item = |pred: &dyn Fn(&Op) -> bool| -> Vec<(usize, f64)> {
        ops.iter()
            .filter(|op| pred(op))
            .map(|op| (op.prog, exec_ns[op.id] / op.inputs.len() as f64))
            .collect()
    };
    let unsound_exec = per_item(&|op| !op.config.is_sound());
    let dspv8_exec = per_item(&|op| op.config.is_dspv8());
    let unsound_native: Vec<(usize, f64)> = ops
        .iter()
        .filter(|op| !op.config.is_sound())
        .map(|op| (op.prog, native_ns[op.id]))
        .collect();
    let n_prog = suite.programs.len();
    m.put(
        "vm.dispatch_ratio",
        geomean_of_medians(n_prog, &unsound_exec, &unsound_native),
        "x",
    );
    m.put(
        "vm.domain_ratio",
        geomean_of_medians(n_prog, &dspv8_exec, &unsound_exec),
        "x",
    );
    let tags: Vec<String> = suite::BATCH.iter().map(Config::tag).collect();
    for tag in &tags {
        let (mut allocs, mut fp_ops) = (0.0, 0.0);
        for op in ops.iter().filter(|op| op.config.tag() == *tag) {
            allocs += exec_allocs[op.id];
            fp_ops += traced_fp_ops[op.id] as f64;
        }
        m.put(
            format!("affine.allocs_per_fp_op.{tag}"),
            ratio(allocs, fp_ops),
            "count",
        );
    }

    // Counts of one untraced cycle.
    let evals = first.results as f64;
    let c = |k: &str| first.counts.get(k).copied().unwrap_or(0) as f64;
    m.put(
        "analysis.variant_builds_per_eval",
        ratio(c("compile.prioritize"), evals),
        "count",
    );
    m.put(
        "vm.instrs_per_eval",
        ratio(first.stats[0] as f64, evals),
        "count",
    );
    m.put(
        "vm.fp_ops_per_eval",
        ratio(first.stats[1] as f64, evals),
        "count",
    );
    m.put(
        "affine.fusions_per_eval",
        ratio(first.stats[3] as f64, evals),
        "count",
    );
    m.put(
        "affine.condensations_per_eval",
        ratio(first.stats[4] as f64, evals),
        "count",
    );
    let lane_kinds =
        c("lanes.kernel_dispatches") + c("lanes.scalar_dispatches") + c("lanes.ragged_fallbacks");
    m.put(
        "lanes.kernel_share",
        ratio(c("lanes.kernel_dispatches"), lane_kinds),
        "share",
    );
    m.put("lanes.superinstr_hits", c("lanes.superinstr_hits"), "count");
    let speedup = |tag: Option<&str>| -> f64 {
        let (mut wide, mut scalar) = (0.0, 0.0);
        for (op, (w, s)) in ops.iter().zip(&lanes_s) {
            if tag.is_none_or(|tag| op.config.tag() == tag) {
                wide += w;
                scalar += s;
            }
        }
        ratio(scalar, wide)
    };
    m.put("lanes.speedup", speedup(None), "x");
    for tag in &tags {
        m.put(format!("lanes.speedup.{tag}"), speedup(Some(tag)), "x");
    }
    m.put("ir.instrs", bench.instrs() as f64, "count");
    m.put("artifact.bytes", bench.artifact_bytes() as f64, "bytes");
    for (k, v) in first
        .counts
        .iter()
        .filter(|(k, _)| **k != "lanes.superinstr_hits")
    {
        m.put(format!("count.{k}"), *v as f64, "count");
    }
    for (k, v) in setups.counts.iter().flatten() {
        m.put(format!("count.setup.{k}"), *v as f64, "count");
    }
    let names = ["instrs", "fp_ops", "undecided", "fusions", "condensations"];
    for (name, v) in names.iter().zip(first.stats) {
        m.put(format!("count.run.{name}"), v as f64, "count");
    }
    let correct = checker.failed == 0 && deterministic;
    Ok(Outcome {
        correct,
        attempted: checker.attempted,
        failed: checker.failed + u64::from(!deterministic),
        metrics: m,
    })
}
