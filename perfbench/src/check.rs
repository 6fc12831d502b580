//! Result checks: every sound enclosure must contain the native
//! reference, unsound results must equal it bit for bit, and results of
//! one request must be bit-identical wherever they are computed.

use safegen_api::telemetry::json::Json;
use safegen_api::RunReport;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The comparable part of one evaluation result.
#[derive(Clone, Debug)]
pub struct Out {
    /// Enclosures of the program's output (its last array parameter).
    pub ranges: Vec<(f64, f64)>,
    pub acc_bits: f64,
    /// `RunStats`: instrs, fp_ops, undecided branches, fusions,
    /// condensations.
    pub stats: [u64; 5],
}

impl Out {
    pub fn from_report(r: &RunReport) -> Out {
        let ranges = match (&r.ret, r.arrays.last()) {
            (Some(v), _) => vec![*v],
            (None, Some((_, vs))) => vs.clone(),
            (None, None) => Vec::new(),
        };
        let s = &r.stats;
        Out {
            ranges,
            acc_bits: r.acc_bits,
            stats: [
                s.instrs,
                s.fp_ops,
                s.undecided_branches,
                s.fusions,
                s.condensations,
            ],
        }
    }

    /// A digest of the result's bits (every NaN folded into one): equal
    /// fingerprints mean bit-identical ranges, accuracy and run
    /// statistics, and a run keeps one word per result, not the result.
    pub fn fingerprint(&self) -> u64 {
        let bits = |x: f64| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        let mut h = DefaultHasher::new();
        for &(lo, hi) in &self.ranges {
            (bits(lo), bits(hi)).hash(&mut h);
        }
        bits(self.acc_bits).hash(&mut h);
        self.stats.hash(&mut h);
        h.finish()
    }
}

/// A result certifying no bits: negative or non-finite accuracy.
pub fn vacuous(acc_bits: f64) -> bool {
    !(acc_bits.is_finite() && acc_bits >= 0.0)
}

/// Bit equality, with every NaN equal to every other NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Checks one result against the native reference: a sound result must
/// enclose every native value (a NaN endpoint is the affine library's
/// poisoned "entire" form and encloses everything); an unsound result
/// must reproduce it bit for bit.
pub fn against_native(out: &Out, native: &[f64], sound: bool) -> Result<(), String> {
    if out.ranges.len() != native.len() {
        return Err(format!(
            "{} output values, native has {}",
            out.ranges.len(),
            native.len()
        ));
    }
    for (i, (&(lo, hi), &x)) in out.ranges.iter().zip(native).enumerate() {
        let ok = if sound {
            lo.is_nan() || hi.is_nan() || (lo <= x && x <= hi)
        } else {
            same(lo, x) && same(hi, x)
        };
        if !ok {
            let what = if sound {
                "containment miss"
            } else {
                "unsound result differs from native"
            };
            return Err(format!("{what} at output {i}: [{lo:e}, {hi:e}] vs {x:e}"));
        }
    }
    Ok(())
}

/// A daemon response with its per-request timing field removed, as text:
/// equal texts mean bit-identical results (finite numbers are written in
/// shortest round-trip form).
pub fn response_text(v: &Json) -> String {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "micros")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}
