//! The benchmark's inputs: the paper suite as one C unit, the run
//! configurations each workload cycles through, and the seeded operation
//! list with its native references.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safegen_api::{ArgValue, RunConfig};
use safegen_bench::Workload;
use std::hint::black_box;

/// The paper suite (`henon`, `sor`, `luf`, `fgm` at the paper's sizes).
pub struct Suite {
    /// The four programs, in suite order.
    pub programs: Vec<Workload>,
    /// All four sources concatenated into one translation unit: one
    /// compile, one artifact, one daemon.
    pub source: String,
}

impl Suite {
    pub fn paper() -> Suite {
        let programs = Workload::paper_suite();
        let source = programs.iter().map(|w| w.source.as_str()).collect();
        Suite { programs, source }
    }
}

/// A run configuration by its CLI name and budget, so the same value
/// builds a [`RunConfig`] in-process and a daemon request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    pub name: &'static str,
    pub k: usize,
}

impl Config {
    pub fn run_config(&self) -> RunConfig {
        RunConfig::from_cli(self.name, self.k).expect("benchmark configurations are valid")
    }

    pub fn is_sound(&self) -> bool {
        self.name != "unsound"
    }

    /// The configuration of the paper's headline slowdown claim.
    pub fn is_dspv8(&self) -> bool {
        self.name == "dspv" && self.k == 8
    }

    /// Short tag used in metric names (`dspv8`, `igen`, ...).
    pub fn tag(&self) -> String {
        match self.name {
            "unsound" => "unsound".into(),
            "ia" => "igen".into(),
            n => format!("{n}{}", self.k),
        }
    }
}

const fn cfg(name: &'static str, k: usize) -> Config {
    Config { name, k }
}

/// The Fig. 8 configurations at k = 8 and k = 16, plus `igen-f64` and
/// unsound (`dda` is `dda-dspn`).
pub const FIG8: [Config; 16] = [
    cfg("unsound", 8),
    cfg("ia", 8),
    cfg("srnn", 8),
    cfg("ssnn", 8),
    cfg("smpn", 8),
    cfg("dsnn", 8),
    cfg("dsnv", 8),
    cfg("dspv", 8),
    cfg("dda", 8),
    cfg("srnn", 16),
    cfg("ssnn", 16),
    cfg("smpn", 16),
    cfg("dsnn", 16),
    cfg("dsnv", 16),
    cfg("dspv", 16),
    cfg("dda", 16),
];

/// The throughput configurations of the `batch` workload.
pub const BATCH: [Config; 4] = [
    cfg("unsound", 8),
    cfg("ia", 8),
    cfg("dsnn", 8),
    cfg("dspv", 8),
];

/// One input set with its native (plain `f64`, hand-written Rust)
/// reference result.
pub struct Input {
    pub args: Vec<ArgValue>,
    pub native: Vec<f64>,
}

/// One operation of the closed loop: a program under a configuration on
/// one input set (`explore`, `serve`) or a batch of them (`batch`).
pub struct Op {
    pub id: usize,
    pub prog: usize,
    pub config: Config,
    pub run: RunConfig,
    pub inputs: Vec<Input>,
    /// Seed handed to `eval_batch_seeded` (`batch` only).
    pub batch_seed: u64,
}

/// Builds the fixed operation list of one cycle: `rounds` passes over
/// every (program, configuration) pair, each operation on fresh inputs
/// drawn from `seed`. The order is round-robin over the pairs, so every
/// prefix of a cycle has the same mix.
pub fn operations(
    suite: &Suite,
    configs: &[Config],
    rounds: usize,
    items: usize,
    seed: u64,
) -> Vec<Op> {
    let pairs: Vec<(usize, Config)> = (0..suite.programs.len())
        .flat_map(|p| configs.iter().map(move |&c| (p, c)))
        .collect();
    let mut ops = Vec::with_capacity(rounds * pairs.len());
    for id in 0..rounds * pairs.len() {
        let (prog, config) = pairs[id % pairs.len()];
        let w = &suite.programs[prog];
        let op_seed = mix(seed, id as u64);
        let inputs = (0..items)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(op_seed, i as u64));
                let args = w.args(&mut rng);
                let native = w.native(&args);
                Input { args, native }
            })
            .collect();
        ops.push(Op {
            id,
            prog,
            config,
            run: config.run_config(),
            inputs,
            batch_seed: op_seed,
        });
    }
    ops
}

/// A splitmix64 step of `a ^ b`: decorrelates per-operation and per-item
/// seeds drawn from one run seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds per native run over `op`'s inputs on the clock `now`. The
/// whole input set is repeated until at least 100 µs have passed, so that
/// sub-microsecond kernels are timed well above the clock's resolution.
pub fn native_time(suite: &Suite, op: &Op, now: fn() -> f64) -> f64 {
    let w = &suite.programs[op.prog];
    let mut reps = 1u32;
    loop {
        let t = now();
        for _ in 0..reps {
            for input in &op.inputs {
                black_box(w.native(black_box(&input.args)));
            }
        }
        let s = now() - t;
        if s >= 100e-6 || reps >= 1 << 16 {
            return s / f64::from(reps) / op.inputs.len() as f64;
        }
        reps *= 2;
    }
}
