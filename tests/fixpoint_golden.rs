//! Golden tests for the iterate-and-widen fixpoint engine on loops whose
//! trip counts are unknown (or far beyond any unrolling budget).
//!
//! Three behaviors are pinned:
//!
//! * **Contractive loops get finite, useful invariants** — the
//!   exponential-decay filter and a Jacobi-style sweep stabilize to
//!   enclosures that contain every concrete trip count's result without
//!   widening to infinity.
//! * **Divergent loops terminate with a sound ±∞** — the engine must
//!   never trade termination for a lie; the enclosure goes infinite, the
//!   analysis still finishes, and every finite-trip result is inside.
//! * **The `.sga` capability flag gates fixpoint artifacts** — a reader
//!   that does not know `loop.fixpoint` sees a nonzero header flag and
//!   rejects with a specific diagnostic instead of misrunning the loops.

use safegen_suite::safegen::{
    build_artifact, compile_to_artifact, ArgValue, ArtifactError, BuildOptions, Compiled, Compiler,
    LoopMode, RunConfig,
};

fn compile(src: &str) -> Compiled {
    Compiler::new().compile(src).unwrap()
}

/// Fixpoint-mode config: tiny attempt budget so even short loops go
/// through iterate/widen/narrow instead of concrete unrolling.
fn fix(config: RunConfig) -> RunConfig {
    config
        .with_loop_mode(LoopMode::Fixpoint)
        .with_unroll_budget(4)
}

const DECAY: &str = "double f(double x, int n) {
    double acc = x;
    int t = 0;
    while (t < n) { acc = 0.9 * acc + 1.0; t = t + 1; }
    return acc; }";

#[test]
fn decay_filter_gets_finite_invariant_beyond_any_budget() {
    let compiled = compile(DECAY);
    for config in [RunConfig::interval_f64(), RunConfig::affine_f64(8)] {
        let cfg = fix(config);
        // 2^40 iterations: unrolling at ~1ns per trip would take ~20
        // minutes; the fixpoint solve is instant.
        let args = [ArgValue::Float(1.0), ArgValue::Int(1 << 40)];
        let r = compiled.run("f", &args, &cfg).unwrap();
        let (lo, hi) = r.ret.unwrap();
        // From x=1 the iterates climb toward the fixed point 10; a sound
        // invariant contains [1, 10) and a *useful* one stays finite and
        // within the first power-of-two widening thresholds.
        assert!(
            lo <= 1.0 && hi >= 10.0 - 1e-6,
            "{}: [{lo}, {hi}]",
            cfg.label()
        );
        assert!(
            hi <= 64.0,
            "{}: invariant uselessly wide: [{lo}, {hi}]",
            cfg.label()
        );
        assert!(
            r.stats.fixpoint_loops >= 1,
            "{}: {:?}",
            cfg.label(),
            r.stats
        );
        assert!(r.stats.fixpoint_iters >= 2);
    }
}

#[test]
fn fixpoint_enclosure_contains_every_concrete_trip_count() {
    let compiled = compile(DECAY);
    let cfg = fix(RunConfig::affine_f64(8));
    let r = compiled
        .run("f", &[ArgValue::Float(1.0), ArgValue::Int(1 << 40)], &cfg)
        .unwrap();
    let (lo, hi) = r.ret.unwrap();
    // Concrete unrolled runs at small n are the ground truth the
    // invariant must dominate (the loop-invariant property the fuzzer's
    // exact oracle also checks, here against the bit-level VM).
    for n in 0..=32i64 {
        let exact = compiled
            .run(
                "f",
                &[ArgValue::Float(1.0), ArgValue::Int(n)],
                &RunConfig::unsound(),
            )
            .unwrap();
        let (x, _) = exact.ret.unwrap();
        assert!(
            lo <= x && x <= hi,
            "n={n}: concrete {x} outside invariant [{lo}, {hi}]"
        );
    }
}

#[test]
fn jacobi_style_sweep_stabilizes() {
    // One unknown-length relaxation sweep: two coupled cells averaging
    // each other with a constant source term. Spectral radius 1/2, so the
    // state stays inside [0, 2] forever and the invariant must too
    // (modulo widening thresholds).
    let src = "double f(double a, double b, int n) {
        double u = a;
        double v = b;
        int t = 0;
        while (t < n) {
            u = 0.5 * (v + 1.0);
            v = 0.5 * (u + 1.0);
            t = t + 1;
        }
        return u + v; }";
    let compiled = compile(src);
    for config in [RunConfig::interval_f64(), RunConfig::affine_f64(8)] {
        let cfg = fix(config);
        let args = [
            ArgValue::Float(0.0),
            ArgValue::Float(0.0),
            ArgValue::Int(1 << 40),
        ];
        let r = compiled.run("f", &args, &cfg).unwrap();
        let (lo, hi) = r.ret.unwrap();
        // True limit: u = v = 1, sum = 2; iterates stay within [0, 2].
        assert!(
            lo <= 0.0 && hi >= 2.0 - 1e-9,
            "{}: [{lo}, {hi}]",
            cfg.label()
        );
        assert!(
            hi <= 8.0 && lo >= -8.0,
            "{}: sweep invariant uselessly wide: [{lo}, {hi}]",
            cfg.label()
        );
        assert!(r.stats.fixpoint_loops >= 1);
    }
}

#[test]
fn divergent_loop_widens_to_sound_infinity_and_terminates() {
    // x doubles every round: there is no finite invariant. The test
    // *finishing* is the termination proof; the enclosure must be
    // infinite above (sound for every trip count) and the stats must
    // show widening actually fired.
    let src = "double f(double x, int n) {
        double acc = x;
        int t = 0;
        while (t < n) { acc = acc * 2.0 + 1.0; t = t + 1; }
        return acc; }";
    let compiled = compile(src);
    for config in [RunConfig::interval_f64(), RunConfig::affine_f64(8)] {
        let cfg = fix(config);
        let args = [ArgValue::Float(1.0), ArgValue::Int(1 << 40)];
        let r = compiled.run("f", &args, &cfg).unwrap();
        let (lo, hi) = r.ret.unwrap();
        assert_eq!(hi, f64::INFINITY, "{}: [{lo}, {hi}]", cfg.label());
        assert!(lo <= 1.0, "{}: [{lo}, {hi}]", cfg.label());
        assert!(r.stats.widenings >= 1, "{}: {:?}", cfg.label(), r.stats);
        // Concrete small-n results are all inside the infinite bound.
        for n in 0..=8i64 {
            let exact = compiled
                .run(
                    "f",
                    &[ArgValue::Float(1.0), ArgValue::Int(n)],
                    &RunConfig::unsound(),
                )
                .unwrap();
            let (x, _) = exact.ret.unwrap();
            assert!(lo <= x && x <= hi, "n={n}: {x} outside [{lo}, {hi}]");
        }
    }
}

#[test]
fn unroll_mode_still_bit_matches_on_bounded_trip_counts() {
    // The default mode must be unchanged by the fixpoint machinery: the
    // same program at a concrete small n produces bit-identical ranges
    // with and without the engine threaded through the driver.
    let compiled = compile(DECAY);
    let args = [ArgValue::Float(1.0), ArgValue::Int(6)];
    let base = compiled.run("f", &args, &RunConfig::affine_f64(8)).unwrap();
    let explicit = compiled
        .run(
            "f",
            &args,
            &RunConfig::affine_f64(8).with_loop_mode(LoopMode::Unroll),
        )
        .unwrap();
    let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
    assert_eq!(bits(base.ret), bits(explicit.ret));
    assert_eq!(base.stats.fixpoint_loops, 0);
}

#[test]
fn errors_after_a_loop_are_the_same_in_every_loop_mode() {
    // The loops finish (concretely or solved); the failing access comes
    // after them, so every mode must report the plain VM's error.
    let compiled = compile(
        "double f(double a[4], int k) {
            double s = 0.0;
            for (int i = 0; i < 4; i++) { s = s + a[i]; }
            for (int j = 0; j < 4; j++) { s = s * 0.5 + a[j]; }
            return s + a[k];
        }",
    );
    for k in [-1, 4] {
        let args = [ArgValue::Array(vec![1.0, 2.0, 3.0, 4.0]), ArgValue::Int(k)];
        for config in [RunConfig::interval_f64(), RunConfig::affine_f64(8)] {
            let run = |mode| compiled.run("f", &args, &config.clone().with_loop_mode(mode));
            let unroll = run(LoopMode::Unroll).unwrap_err();
            assert_eq!(run(LoopMode::Fixpoint).unwrap_err(), unroll, "k={k}");
            assert_eq!(run(LoopMode::Auto).unwrap_err(), unroll, "k={k}");
            assert_eq!(
                compiled.run("f", &args, &fix(config)).unwrap_err(),
                unroll,
                "k={k}"
            );
        }
    }
}

#[test]
fn fixpoint_artifact_carries_capability_flag_and_rejects_when_forged() {
    let mut opts = BuildOptions::new("decay.c");
    opts.fixpoint = true;
    opts.use_cache = false;
    let artifact = compile_to_artifact(DECAY, &opts).unwrap();
    assert_eq!(
        artifact.meta.capabilities,
        vec!["loop.fixpoint".to_string()]
    );
    let bytes = artifact.to_bytes();
    assert_eq!(
        u16::from_le_bytes([bytes[6], bytes[7]]),
        0x0001,
        "capability must surface in the header flags old readers check"
    );
    // A reader that predates the capability treats any nonzero flag as
    // reserved — simulated here by clearing the known bit and watching
    // the mismatch diagnostic fire (the inverse forgery).
    let mut forged = bytes.clone();
    forged[6] = 0;
    let err = safegen_suite::safegen::Artifact::from_bytes(&forged).unwrap_err();
    assert!(matches!(err, ArtifactError::CapabilityMismatch(_)), "{err}");
    assert!(err.to_string().contains("capability mismatch"), "{err}");

    // Plain builds stay byte-compatible: no capability, flags zero.
    let compiled = compile(DECAY);
    let plain = build_artifact(&compiled, "decay.c", Some(DECAY));
    let plain_bytes = plain.to_bytes();
    assert_eq!(u16::from_le_bytes([plain_bytes[6], plain_bytes[7]]), 0);
}
