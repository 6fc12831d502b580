//! Numeric domains the virtual machine can execute a program under.
//!
//! A [`Domain`] packages one way of evaluating floating-point operations:
//! the unsound original semantics, sound interval arithmetic (the IGen
//! baselines), the affine configurations of SafeGen, or the Yalaa/Ceres
//! library baselines. The bytecode VM ([`mod@crate::exec`]) is generic over
//! the domain, so every accuracy/performance comparison in the evaluation
//! runs the *same* compiled program.

use safegen_affine::baselines::{BaselineCtx, CeresAffine, YalaaAff0, YalaaAff1};
use safegen_affine::{AaContext, Affine, CenterValue, Protect};
use safegen_fpcore::metrics;
use safegen_interval::{Dd, IntervalDd, IntervalF64};

/// Tag describing a domain choice (for reports and plot labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// The original, unsound `f64` semantics.
    Unsound,
    /// Interval arithmetic with `f64` endpoints (IGen-f64).
    IntervalF64,
    /// Interval arithmetic with double-double endpoints (IGen-dd).
    IntervalDd,
    /// Affine arithmetic, `f64` center (`f64a-…`).
    AffineF64,
    /// Affine arithmetic, double-double center (`dda-…`).
    AffineDd,
    /// Affine arithmetic, `f32` center (`f32a-…`).
    AffineF32,
    /// Yalaa `aff0` (full AA) baseline.
    YalaaAff0,
    /// Yalaa `aff1` (input symbols only) baseline.
    YalaaAff1,
    /// Ceres `AffineFloat` baseline.
    Ceres,
}

/// Binary floating-point operation selector for the column kernels
/// ([`Domain::bin_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// `fmin`.
    Min,
    /// `fmax`.
    Max,
}

/// Unary floating-point operation selector for the column kernels
/// ([`Domain::un_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpUnOp {
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
}

/// One numeric evaluation domain.
///
/// `protect` carries the symbol ids a `#pragma safegen prioritize(v)`
/// shields for this operation; domains without symbol fusion ignore it.
pub trait Domain: Sized + Clone {
    /// Shared evaluation state (symbol allocators etc.).
    type Ctx;

    /// An input value `x ± 1 ulp(x)` (the evaluation input model).
    fn from_input(x: f64, cx: &Self::Ctx) -> Self;
    /// A source constant (exact if integral, else `± 1 ulp`).
    fn constant(x: f64, cx: &Self::Ctx) -> Self;
    /// A sound enclosure of the raw hull `[lo, hi]` (±∞ endpoints and NaN
    /// allowed) — the materialization hook the fixpoint engine uses to
    /// rebuild loop-carried values from widened interval hulls. Domains
    /// that cannot represent an externally-imposed range return `None`
    /// (the unsound domain), which disables fixpoint solving for that
    /// configuration and falls back to concrete execution.
    fn from_range(lo: f64, hi: f64, cx: &Self::Ctx) -> Option<Self> {
        let _ = (lo, hi, cx);
        None
    }

    /// Addition.
    fn add(&self, rhs: &Self, cx: &Self::Ctx, protect: &[u64]) -> Self;
    /// Subtraction.
    fn sub(&self, rhs: &Self, cx: &Self::Ctx, protect: &[u64]) -> Self;
    /// Multiplication.
    fn mul(&self, rhs: &Self, cx: &Self::Ctx, protect: &[u64]) -> Self;
    /// Division.
    fn div(&self, rhs: &Self, cx: &Self::Ctx, protect: &[u64]) -> Self;
    /// Square root.
    fn sqrt(&self, cx: &Self::Ctx, protect: &[u64]) -> Self;
    /// Negation.
    fn neg(&self, cx: &Self::Ctx) -> Self;
    /// Absolute value.
    fn abs(&self, cx: &Self::Ctx) -> Self;
    /// `fmin`.
    fn min(&self, rhs: &Self, cx: &Self::Ctx) -> Self;
    /// `fmax`.
    fn max(&self, rhs: &Self, cx: &Self::Ctx) -> Self;

    /// Sound enclosing range (degenerate for the unsound domain).
    fn range(&self) -> (f64, f64);
    /// Central/representative value, for undecided branches.
    fn center(&self) -> f64;
    /// Certified bits on the `f64` grid (paper eq. 12).
    fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        metrics::acc_bits(lo, hi, metrics::F64_MANTISSA_BITS)
    }
    /// `a < b`: `Some` when soundly decided, `None` when the enclosures
    /// overlap.
    fn try_lt(&self, rhs: &Self) -> Option<bool> {
        let (alo, ahi) = self.range();
        let (blo, bhi) = rhs.range();
        if ahi < blo {
            Some(true)
        } else if alo >= bhi {
            Some(false)
        } else {
            None
        }
    }
    /// The error-symbol ids of this value (for pragma protection);
    /// empty for symbol-free domains.
    fn symbol_ids(&self) -> Vec<u64> {
        Vec::new()
    }

    /// The ids a `#pragma safegen prioritize` should actually protect —
    /// like [`Domain::symbol_ids`] but capped so the protection cannot pin
    /// the entire budget (which would force fusion onto the other
    /// operand's symbols and lose accuracy).
    fn protect_ids(&self, _cx: &Self::Ctx) -> Vec<u64> {
        self.symbol_ids()
    }

    /// Lowers the symbol budget for the next operation (variable-capacity
    /// extension); a no-op for domains without bounded symbol sets.
    fn set_capacity(_cx: &Self::Ctx, _k: usize) {}

    /// Restores the configured symbol budget.
    fn reset_capacity(_cx: &Self::Ctx) {}

    /// Error symbols the context has allocated so far; `0` for domains
    /// without a symbol allocator. Allocation is monotone, so the VM's
    /// tracer maps symbol-id *ranges* back to the instruction that
    /// allocated them (the basis of the error-provenance profiler).
    fn symbols_allocated(_cx: &Self::Ctx) -> u64 {
        0
    }

    /// `(fusion events, condensations)` the context has recorded so far
    /// (see `safegen_affine::AaCounters`); `(0, 0)` for fusion-free
    /// domains.
    fn fusion_counters(_cx: &Self::Ctx) -> (u64, u64) {
        (0, 0)
    }

    /// The `(symbol id, coefficient)` noise terms of this value — the raw
    /// material of error attribution. Empty for non-affine domains.
    fn noise_terms(&self) -> Vec<(u64, f64)> {
        Vec::new()
    }

    /// Accumulated noise not tied to any symbol (dedicated-noise modes).
    fn uncorrelated_noise(&self) -> f64 {
        0.0
    }

    /// Accelerated column kernel for the lane-major VM: writes
    /// `op(a[l], b[l])` to `out[l]` for every lane and returns `true`,
    /// or returns `false` when the domain has no kernel for `op` (the
    /// VM then applies the scalar operation lane by lane). `out` is the
    /// destination register column itself (`out.len() == a.len() ==
    /// b.len()`; the VM resolves aliasing before the call), so a kernel
    /// must either fill `out` completely or return `false` without
    /// writing anything. A kernel MUST return results bit-identical to
    /// the scalar operation — the cheap domains achieve the speedup
    /// through hardware-FMA/SIMD code paths whose results IEEE 754 pins
    /// down exactly (`safegen_interval::cols`).
    ///
    /// Whether a kernel exists for `op` must not depend on the lane
    /// count: before snapshotting an aliased column the VM asks with
    /// empty columns, and a `false` there skips the copy.
    ///
    /// Only called on protect-free operations (a pending
    /// `#pragma safegen prioritize` forces the per-lane path), so
    /// kernels never see a protect set.
    fn bin_kernel(
        _op: FpBinOp,
        _a: &[Self],
        _b: &[Self],
        _out: &mut [Self],
        _cxs: &[Self::Ctx],
    ) -> bool {
        false
    }

    /// Unary counterpart of [`Domain::bin_kernel`].
    fn un_kernel(_op: FpUnOp, _a: &[Self], _out: &mut [Self], _cxs: &[Self::Ctx]) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Unsound f64 (the original program)
// ---------------------------------------------------------------------------

/// The original unsound `f64` semantics — the baseline every slowdown in
/// the paper is measured against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnsoundF64(pub f64);

impl Domain for UnsoundF64 {
    type Ctx = ();

    #[inline]
    fn from_input(x: f64, _: &()) -> Self {
        UnsoundF64(x)
    }
    #[inline]
    fn constant(x: f64, _: &()) -> Self {
        UnsoundF64(x)
    }
    #[inline]
    fn add(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        UnsoundF64(self.0 + rhs.0)
    }
    #[inline]
    fn sub(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        UnsoundF64(self.0 - rhs.0)
    }
    #[inline]
    fn mul(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        UnsoundF64(self.0 * rhs.0)
    }
    #[inline]
    fn div(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        UnsoundF64(self.0 / rhs.0)
    }
    #[inline]
    fn sqrt(&self, _: &(), _: &[u64]) -> Self {
        UnsoundF64(self.0.sqrt())
    }
    #[inline]
    fn neg(&self, _: &()) -> Self {
        UnsoundF64(-self.0)
    }
    #[inline]
    fn abs(&self, _: &()) -> Self {
        UnsoundF64(self.0.abs())
    }
    #[inline]
    fn min(&self, rhs: &Self, _: &()) -> Self {
        UnsoundF64(self.0.min(rhs.0))
    }
    #[inline]
    fn max(&self, rhs: &Self, _: &()) -> Self {
        UnsoundF64(self.0.max(rhs.0))
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        (self.0, self.0)
    }
    #[inline]
    fn center(&self) -> f64 {
        self.0
    }
    #[inline]
    fn try_lt(&self, rhs: &Self) -> Option<bool> {
        Some(self.0 < rhs.0)
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        // Lock-step slice loops (not `extend`) so the bodies vectorize.
        let o = out;
        match op {
            FpBinOp::Add => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 + y.0);
                }
            }
            FpBinOp::Sub => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 - y.0);
                }
            }
            FpBinOp::Mul => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 * y.0);
                }
            }
            FpBinOp::Div => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 / y.0);
                }
            }
            FpBinOp::Min => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0.min(y.0));
                }
            }
            FpBinOp::Max => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0.max(y.0));
                }
            }
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        let o = out;
        match op {
            FpUnOp::Sqrt => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(x.0.sqrt());
                }
            }
            FpUnOp::Abs => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(x.0.abs());
                }
            }
            FpUnOp::Neg => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(-x.0);
                }
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Interval domains (IGen baselines)
// ---------------------------------------------------------------------------

impl Domain for IntervalF64 {
    type Ctx = ();

    fn from_input(x: f64, _: &()) -> Self {
        let u = metrics::ulp(x);
        IntervalF64::new(
            safegen_fpcore::round::sub_rd(x, u),
            safegen_fpcore::round::add_ru(x, u),
        )
    }
    fn constant(x: f64, _: &()) -> Self {
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            IntervalF64::point(x)
        } else {
            IntervalF64::constant(x)
        }
    }
    fn from_range(lo: f64, hi: f64, _: &()) -> Option<Self> {
        Some(if lo.is_nan() || hi.is_nan() || lo > hi {
            IntervalF64::ENTIRE
        } else {
            IntervalF64::new(lo, hi)
        })
    }
    #[inline]
    fn add(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self + *rhs
    }
    #[inline]
    fn sub(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self - *rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self * *rhs
    }
    #[inline]
    fn div(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self / *rhs
    }
    #[inline]
    fn sqrt(&self, _: &(), _: &[u64]) -> Self {
        IntervalF64::sqrt(*self)
    }
    #[inline]
    fn neg(&self, _: &()) -> Self {
        -*self
    }
    #[inline]
    fn abs(&self, _: &()) -> Self {
        IntervalF64::abs(*self)
    }
    #[inline]
    fn min(&self, rhs: &Self, _: &()) -> Self {
        IntervalF64::min(*self, *rhs)
    }
    #[inline]
    fn max(&self, rhs: &Self, _: &()) -> Self {
        IntervalF64::max(*self, *rhs)
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        (self.lo(), self.hi())
    }
    #[inline]
    fn center(&self) -> f64 {
        self.mid()
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpBinOp::Add => cols::add_cols_f64(a, b, out),
            FpBinOp::Sub => cols::sub_cols_f64(a, b, out),
            FpBinOp::Mul => cols::mul_cols_f64(a, b, out),
            FpBinOp::Div => cols::div_cols_f64(a, b, out),
            FpBinOp::Min => cols::min_cols_f64(a, b, out),
            FpBinOp::Max => cols::max_cols_f64(a, b, out),
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpUnOp::Sqrt => cols::sqrt_cols_f64(a, out),
            FpUnOp::Abs => cols::abs_cols_f64(a, out),
            FpUnOp::Neg => cols::neg_cols_f64(a, out),
        }
        true
    }
}

impl Domain for IntervalDd {
    type Ctx = ();

    fn from_input(x: f64, _: &()) -> Self {
        let u = metrics::ulp(x);
        IntervalDd::new(
            Dd::from(x).add_rd(Dd::from(-u)),
            Dd::from(x).add_ru(Dd::from(u)),
        )
    }
    fn constant(x: f64, _: &()) -> Self {
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            IntervalDd::point(Dd::from(x))
        } else {
            IntervalDd::constant(x)
        }
    }
    fn from_range(lo: f64, hi: f64, _: &()) -> Option<Self> {
        Some(if lo.is_nan() || hi.is_nan() || lo > hi {
            IntervalDd::entire()
        } else {
            IntervalDd::new(Dd::from(lo), Dd::from(hi))
        })
    }
    #[inline]
    fn add(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self + *rhs
    }
    #[inline]
    fn sub(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self - *rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self * *rhs
    }
    #[inline]
    fn div(&self, rhs: &Self, _: &(), _: &[u64]) -> Self {
        *self / *rhs
    }
    #[inline]
    fn sqrt(&self, _: &(), _: &[u64]) -> Self {
        IntervalDd::sqrt(*self)
    }
    #[inline]
    fn neg(&self, _: &()) -> Self {
        -*self
    }
    #[inline]
    fn abs(&self, _: &()) -> Self {
        IntervalDd::abs(*self)
    }
    fn min(&self, rhs: &Self, _: &()) -> Self {
        let lo = if self.lo() < rhs.lo() {
            self.lo()
        } else {
            rhs.lo()
        };
        let hi = if self.hi() < rhs.hi() {
            self.hi()
        } else {
            rhs.hi()
        };
        IntervalDd::new(lo, hi)
    }
    fn max(&self, rhs: &Self, _: &()) -> Self {
        let lo = if self.lo() > rhs.lo() {
            self.lo()
        } else {
            rhs.lo()
        };
        let hi = if self.hi() > rhs.hi() {
            self.hi()
        } else {
            rhs.hi()
        };
        IntervalDd::new(lo, hi)
    }
    fn range(&self) -> (f64, f64) {
        // Outward-rounded f64 projection.
        let lo = if Dd::from(self.lo().hi()) <= self.lo() {
            self.lo().hi()
        } else {
            self.lo().hi().next_down()
        };
        let hi = if Dd::from(self.hi().hi()) >= self.hi() {
            self.hi().hi()
        } else {
            self.hi().hi().next_up()
        };
        (lo, hi)
    }
    #[inline]
    fn center(&self) -> f64 {
        0.5 * (self.lo().hi() + self.hi().hi())
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpBinOp::Add => cols::add_cols_dd(a, b, out),
            FpBinOp::Sub => cols::sub_cols_dd(a, b, out),
            FpBinOp::Mul => cols::mul_cols_dd(a, b, out),
            FpBinOp::Div => cols::div_cols_dd(a, b, out),
            // min/max of IntervalDd is hand-rolled above, not a column op.
            FpBinOp::Min | FpBinOp::Max => return false,
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpUnOp::Sqrt => cols::sqrt_cols_dd(a, out),
            FpUnOp::Abs => cols::abs_cols_dd(a, out),
            FpUnOp::Neg => cols::neg_cols_dd(a, out),
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Affine domains (SafeGen configurations)
// ---------------------------------------------------------------------------

impl<C: CenterValue> Domain for Affine<C> {
    type Ctx = AaContext;

    fn from_input(x: f64, cx: &AaContext) -> Self {
        Affine::from_input(x, cx)
    }
    fn constant(x: f64, cx: &AaContext) -> Self {
        Affine::constant(x, cx)
    }
    fn from_range(lo: f64, hi: f64, cx: &AaContext) -> Option<Self> {
        Some(Affine::from_range_outward(lo, hi, cx))
    }
    #[inline]
    fn add(&self, rhs: &Self, cx: &AaContext, protect: &[u64]) -> Self {
        Affine::add(self, rhs, cx, prot(protect))
    }
    #[inline]
    fn sub(&self, rhs: &Self, cx: &AaContext, protect: &[u64]) -> Self {
        Affine::sub(self, rhs, cx, prot(protect))
    }
    #[inline]
    fn mul(&self, rhs: &Self, cx: &AaContext, protect: &[u64]) -> Self {
        Affine::mul(self, rhs, cx, prot(protect))
    }
    #[inline]
    fn div(&self, rhs: &Self, cx: &AaContext, protect: &[u64]) -> Self {
        Affine::div(self, rhs, cx, prot(protect))
    }
    #[inline]
    fn sqrt(&self, cx: &AaContext, protect: &[u64]) -> Self {
        Affine::sqrt(self, cx, prot(protect))
    }
    #[inline]
    fn neg(&self, _: &AaContext) -> Self {
        Affine::neg(self)
    }
    #[inline]
    fn abs(&self, cx: &AaContext) -> Self {
        Affine::abs(self, cx)
    }
    fn min(&self, rhs: &Self, cx: &AaContext) -> Self {
        match self.try_cmp(rhs) {
            Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal) => self.clone(),
            Some(std::cmp::Ordering::Greater) => rhs.clone(),
            None => {
                // NaN range endpoints mean "unknown" — treat as ±∞ so the
                // hull can't come out unsoundly finite (f64::min ignores NaN).
                let (alo, ahi) = sanitize_range(Domain::range(self));
                let (blo, bhi) = sanitize_range(Domain::range(rhs));
                Affine::from_range_outward(alo.min(blo), ahi.min(bhi), cx)
            }
        }
    }
    fn max(&self, rhs: &Self, cx: &AaContext) -> Self {
        match self.try_cmp(rhs) {
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal) => self.clone(),
            Some(std::cmp::Ordering::Less) => rhs.clone(),
            None => {
                let (alo, ahi) = sanitize_range(Domain::range(self));
                let (blo, bhi) = sanitize_range(Domain::range(rhs));
                Affine::from_range_outward(alo.max(blo), ahi.max(bhi), cx)
            }
        }
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        Affine::range(self)
    }
    #[inline]
    fn center(&self) -> f64 {
        self.center_f64()
    }
    #[inline]
    fn symbol_ids(&self) -> Vec<u64> {
        Affine::symbol_ids(self)
    }
    #[inline]
    fn protect_ids(&self, cx: &AaContext) -> Vec<u64> {
        // Protect at most half the budget: the strongest correlations of
        // the prioritized variable survive while fusion keeps enough
        // freedom to drop genuinely small terms.
        Affine::protect_ids(self, (cx.config().k / 2).max(1))
    }
    #[inline]
    fn set_capacity(cx: &AaContext, k: usize) {
        cx.set_op_capacity(k);
    }
    #[inline]
    fn reset_capacity(cx: &AaContext) {
        cx.reset_op_capacity();
    }
    #[inline]
    fn symbols_allocated(cx: &AaContext) -> u64 {
        cx.symbols_allocated()
    }
    #[inline]
    fn fusion_counters(cx: &AaContext) -> (u64, u64) {
        let c = cx.counters();
        (c.fusion_events, c.condensations)
    }
    fn noise_terms(&self) -> Vec<(u64, f64)> {
        self.terms().iter().map(|t| (t.id, t.coeff)).collect()
    }
    #[inline]
    fn uncorrelated_noise(&self) -> f64 {
        self.acc_noise()
    }
}

/// Replaces NaN range endpoints with ±∞: a NaN bound means the value is
/// unknown, and hull computations built on `f64::min`/`max` would silently
/// drop it (those primitives return the non-NaN operand).
#[inline]
fn sanitize_range((lo, hi): (f64, f64)) -> (f64, f64) {
    if lo.is_nan() || hi.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

#[inline]
fn prot(ids: &[u64]) -> Protect<'_> {
    if ids.is_empty() {
        Protect::None
    } else {
        Protect::Ids(ids)
    }
}

// ---------------------------------------------------------------------------
// Library baselines (Fig. 9)
// ---------------------------------------------------------------------------

impl Domain for YalaaAff0 {
    type Ctx = BaselineCtx;

    fn from_input(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff0::from_input(x, cx)
    }
    fn constant(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff0::constant(x, cx)
    }
    fn from_range(lo: f64, hi: f64, cx: &BaselineCtx) -> Option<Self> {
        Some(interval_to_aff0(lo, hi, cx))
    }
    fn add(&self, rhs: &Self, cx: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff0::add(self, rhs, cx)
    }
    fn sub(&self, rhs: &Self, cx: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff0::sub(self, rhs, cx)
    }
    fn mul(&self, rhs: &Self, cx: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff0::mul(self, rhs, cx)
    }
    fn div(&self, rhs: &Self, cx: &BaselineCtx, _: &[u64]) -> Self {
        // Interval-based reciprocal (Yalaa supports division through its
        // ChebyshevFP approximation; an interval fallback is sound and
        // the benchmarks barely divide).
        let (lo, hi) = YalaaAff0::range(rhs);
        if lo <= 0.0 && hi >= 0.0 {
            return interval_to_aff0(f64::NEG_INFINITY, f64::INFINITY, cx);
        }
        let q = IntervalF64::new(self.range().0, self.range().1) / IntervalF64::new(lo, hi);
        interval_to_aff0(q.lo(), q.hi(), cx)
    }
    fn sqrt(&self, cx: &BaselineCtx, _: &[u64]) -> Self {
        let (lo, hi) = YalaaAff0::range(self);
        if lo < 0.0 {
            return interval_to_aff0(f64::NEG_INFINITY, f64::INFINITY, cx);
        }
        let r = IntervalF64::new(lo, hi).sqrt();
        interval_to_aff0(r.lo(), r.hi(), cx)
    }
    fn neg(&self, _: &BaselineCtx) -> Self {
        YalaaAff0::neg(self)
    }
    fn abs(&self, cx: &BaselineCtx) -> Self {
        let (lo, hi) = YalaaAff0::range(self);
        if lo >= 0.0 {
            self.clone()
        } else if hi <= 0.0 {
            YalaaAff0::neg(self)
        } else {
            interval_to_aff0(0.0, hi.max(-lo), cx)
        }
    }
    fn min(&self, rhs: &Self, cx: &BaselineCtx) -> Self {
        let (alo, ahi) = YalaaAff0::range(self);
        let (blo, bhi) = YalaaAff0::range(rhs);
        if ahi <= blo {
            self.clone()
        } else if bhi <= alo {
            rhs.clone()
        } else {
            interval_to_aff0(alo.min(blo), ahi.min(bhi), cx)
        }
    }
    fn max(&self, rhs: &Self, cx: &BaselineCtx) -> Self {
        let (alo, ahi) = YalaaAff0::range(self);
        let (blo, bhi) = YalaaAff0::range(rhs);
        if alo >= bhi {
            self.clone()
        } else if blo >= ahi {
            rhs.clone()
        } else {
            interval_to_aff0(alo.max(blo), ahi.max(bhi), cx)
        }
    }
    fn range(&self) -> (f64, f64) {
        YalaaAff0::range(self)
    }
    fn center(&self) -> f64 {
        let (lo, hi) = YalaaAff0::range(self);
        0.5 * (lo + hi)
    }
}

/// Sound (mid, radius) decomposition of `[lo, hi]`: the radius is
/// outward-rounded so `mid ± radius ⊇ [lo, hi]`.
fn mid_rad(lo: f64, hi: f64) -> (f64, f64) {
    let mid = 0.5 * (lo + hi);
    if !mid.is_finite() {
        return (0.0, f64::INFINITY);
    }
    let rad = safegen_fpcore::round::sub_ru(hi, mid)
        .max(safegen_fpcore::round::sub_ru(mid, lo))
        .max(0.0);
    (mid, rad)
}

/// `[lo, hi]` as a Yalaa value: center ± half-width under one fresh
/// symbol. Outward rounding keeps the enclosure sound.
fn interval_to_aff0(lo: f64, hi: f64, cx: &BaselineCtx) -> YalaaAff0 {
    let (m, r) = mid_rad(lo, hi);
    YalaaAff0::with_symbol(m, r, cx)
}

impl Domain for YalaaAff1 {
    type Ctx = BaselineCtx;

    fn from_input(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff1::from_input(x, cx)
    }
    fn constant(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff1::constant(x, cx)
    }
    fn from_range(lo: f64, hi: f64, cx: &BaselineCtx) -> Option<Self> {
        let (m, r) = mid_rad(lo, hi);
        Some(YalaaAff1::with_noise(m, r, cx))
    }
    fn add(&self, rhs: &Self, _: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff1::add(self, rhs)
    }
    fn sub(&self, rhs: &Self, _: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff1::sub(self, rhs)
    }
    fn mul(&self, rhs: &Self, _: &BaselineCtx, _: &[u64]) -> Self {
        YalaaAff1::mul(self, rhs)
    }
    fn div(&self, rhs: &Self, cx: &BaselineCtx, _: &[u64]) -> Self {
        let (lo, hi) = YalaaAff1::range(rhs);
        if lo <= 0.0 && hi >= 0.0 {
            return YalaaAff1::with_noise(f64::NAN, f64::INFINITY, cx);
        }
        let q = IntervalF64::new(self.range().0, self.range().1) / IntervalF64::new(lo, hi);
        let (m, r) = mid_rad(q.lo(), q.hi());
        YalaaAff1::with_noise(m, r, cx)
    }
    fn sqrt(&self, cx: &BaselineCtx, _: &[u64]) -> Self {
        let (lo, hi) = YalaaAff1::range(self);
        if lo < 0.0 {
            return YalaaAff1::with_noise(f64::NAN, f64::INFINITY, cx);
        }
        let rr = IntervalF64::new(lo, hi).sqrt();
        let (m, r) = mid_rad(rr.lo(), rr.hi());
        YalaaAff1::with_noise(m, r, cx)
    }
    fn neg(&self, _: &BaselineCtx) -> Self {
        YalaaAff1::neg(self)
    }
    fn abs(&self, cx: &BaselineCtx) -> Self {
        let (lo, hi) = YalaaAff1::range(self);
        if lo >= 0.0 {
            self.clone()
        } else if hi <= 0.0 {
            YalaaAff1::neg(self)
        } else {
            {
                let (m, r) = mid_rad(0.0, hi.max(-lo));
                YalaaAff1::with_noise(m, r, cx)
            }
        }
    }
    fn min(&self, rhs: &Self, cx: &BaselineCtx) -> Self {
        let (alo, ahi) = YalaaAff1::range(self);
        let (blo, bhi) = YalaaAff1::range(rhs);
        if ahi <= blo {
            self.clone()
        } else if bhi <= alo {
            rhs.clone()
        } else {
            let (lo, hi) = (alo.min(blo), ahi.min(bhi));
            let (m, r) = mid_rad(lo, hi);
            YalaaAff1::with_noise(m, r, cx)
        }
    }
    fn max(&self, rhs: &Self, cx: &BaselineCtx) -> Self {
        let (alo, ahi) = YalaaAff1::range(self);
        let (blo, bhi) = YalaaAff1::range(rhs);
        if alo >= bhi {
            self.clone()
        } else if blo >= ahi {
            rhs.clone()
        } else {
            let (lo, hi) = (alo.max(blo), ahi.max(bhi));
            let (m, r) = mid_rad(lo, hi);
            YalaaAff1::with_noise(m, r, cx)
        }
    }
    fn range(&self) -> (f64, f64) {
        YalaaAff1::range(self)
    }
    fn center(&self) -> f64 {
        let (lo, hi) = YalaaAff1::range(self);
        0.5 * (lo + hi)
    }
}

/// Ceres needs the symbol budget alongside the allocator.
#[derive(Clone, Debug)]
pub struct CeresCtx {
    /// Symbol allocator.
    pub ctx: BaselineCtx,
    /// Symbol budget `k`.
    pub k: usize,
}

impl Domain for CeresAffine {
    type Ctx = CeresCtx;

    fn from_input(x: f64, cx: &CeresCtx) -> Self {
        CeresAffine::from_input(x, cx.k, &cx.ctx)
    }
    fn constant(x: f64, cx: &CeresCtx) -> Self {
        CeresAffine::constant(x, cx.k, &cx.ctx)
    }
    fn from_range(lo: f64, hi: f64, cx: &CeresCtx) -> Option<Self> {
        let (m, r) = mid_rad(lo, hi);
        Some(CeresAffine::with_symbol(m, r, cx.k, &cx.ctx))
    }
    fn add(&self, rhs: &Self, cx: &CeresCtx, _: &[u64]) -> Self {
        CeresAffine::add(self, rhs, &cx.ctx)
    }
    fn sub(&self, rhs: &Self, cx: &CeresCtx, _: &[u64]) -> Self {
        CeresAffine::sub(self, rhs, &cx.ctx)
    }
    fn mul(&self, rhs: &Self, cx: &CeresCtx, _: &[u64]) -> Self {
        CeresAffine::mul(self, rhs, &cx.ctx)
    }
    fn div(&self, rhs: &Self, cx: &CeresCtx, _: &[u64]) -> Self {
        let (lo, hi) = CeresAffine::range(rhs);
        if lo <= 0.0 && hi >= 0.0 {
            return CeresAffine::with_symbol(f64::NAN, f64::INFINITY, cx.k, &cx.ctx);
        }
        let q = IntervalF64::new(self.range().0, self.range().1) / IntervalF64::new(lo, hi);
        let (m, r) = mid_rad(q.lo(), q.hi());
        CeresAffine::with_symbol(m, r, cx.k, &cx.ctx)
    }
    fn sqrt(&self, cx: &CeresCtx, _: &[u64]) -> Self {
        let (lo, hi) = CeresAffine::range(self);
        if lo < 0.0 {
            return CeresAffine::with_symbol(f64::NAN, f64::INFINITY, cx.k, &cx.ctx);
        }
        let rr = IntervalF64::new(lo, hi).sqrt();
        let (m, r) = mid_rad(rr.lo(), rr.hi());
        CeresAffine::with_symbol(m, r, cx.k, &cx.ctx)
    }
    fn neg(&self, _: &CeresCtx) -> Self {
        CeresAffine::neg(self)
    }
    fn abs(&self, cx: &CeresCtx) -> Self {
        let (lo, hi) = CeresAffine::range(self);
        if lo >= 0.0 {
            self.clone()
        } else if hi <= 0.0 {
            CeresAffine::neg(self)
        } else {
            {
                let (m, r) = mid_rad(0.0, hi.max(-lo));
                CeresAffine::with_symbol(m, r, cx.k, &cx.ctx)
            }
        }
    }
    fn min(&self, rhs: &Self, cx: &CeresCtx) -> Self {
        let (alo, ahi) = CeresAffine::range(self);
        let (blo, bhi) = CeresAffine::range(rhs);
        if ahi <= blo {
            self.clone()
        } else if bhi <= alo {
            rhs.clone()
        } else {
            let (lo, hi) = (alo.min(blo), ahi.min(bhi));
            let (m, r) = mid_rad(lo, hi);
            CeresAffine::with_symbol(m, r, cx.k, &cx.ctx)
        }
    }
    fn max(&self, rhs: &Self, cx: &CeresCtx) -> Self {
        let (alo, ahi) = CeresAffine::range(self);
        let (blo, bhi) = CeresAffine::range(rhs);
        if alo >= bhi {
            self.clone()
        } else if blo >= ahi {
            rhs.clone()
        } else {
            let (lo, hi) = (alo.max(blo), ahi.max(bhi));
            let (m, r) = mid_rad(lo, hi);
            CeresAffine::with_symbol(m, r, cx.k, &cx.ctx)
        }
    }
    fn range(&self) -> (f64, f64) {
        CeresAffine::range(self)
    }
    fn center(&self) -> f64 {
        let (lo, hi) = CeresAffine::range(self);
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_affine::AaConfig;

    #[test]
    fn unsound_matches_native() {
        let cx = ();
        let a = UnsoundF64::from_input(0.1, &cx);
        let b = UnsoundF64::from_input(0.2, &cx);
        let s = Domain::add(&a, &b, &cx, &[]);
        assert_eq!(s.0, 0.1 + 0.2);
        assert_eq!(s.acc_bits(), 53.0); // degenerate (and unsound!) claim
        assert_eq!(s.try_lt(&a), Some(false));
    }

    #[test]
    fn interval_domain_sound() {
        let cx = ();
        let a = <IntervalF64 as Domain>::from_input(0.1, &cx);
        let b = <IntervalF64 as Domain>::from_input(0.2, &cx);
        let s = Domain::add(&a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 0.1 + 0.2 && 0.1 + 0.2 <= hi);
    }

    #[test]
    fn affine_domain_protection_plumbed() {
        let cx = AaContext::new(AaConfig::new(4));
        let a = <Affine<f64> as Domain>::from_input(1.0, &cx);
        let ids = Domain::symbol_ids(&a);
        assert_eq!(ids.len(), 1);
        let b = <Affine<f64> as Domain>::from_input(2.0, &cx);
        let s = Domain::mul(&a, &b, &cx, &ids);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 2.0 && 2.0 <= hi);
    }

    #[test]
    fn dd_interval_domain_range_outward() {
        let cx = ();
        let a = <IntervalDd as Domain>::from_input(0.1, &cx);
        let b = <IntervalDd as Domain>::from_input(0.3, &cx);
        let q = Domain::div(&a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&q);
        assert!(lo <= 1.0 / 3.0 && 1.0 / 3.0 <= hi);
        assert!(lo < hi);
    }

    #[test]
    fn baseline_domains_sound_on_basics() {
        let cx = BaselineCtx::new();
        let a = <YalaaAff0 as Domain>::from_input(0.5, &cx);
        let b = <YalaaAff0 as Domain>::from_input(0.25, &cx);
        let p = Domain::mul(&a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&p);
        assert!(lo <= 0.125 && 0.125 <= hi);

        let ccx = CeresCtx {
            ctx: BaselineCtx::new(),
            k: 8,
        };
        let a = <CeresAffine as Domain>::from_input(0.5, &ccx);
        let s = Domain::sub(&a, &a, &ccx, &[]);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 0.0 && 0.0 <= hi);
        assert!(hi - lo < 1e-15);
    }

    #[test]
    fn yalaa1_division_falls_back_to_interval() {
        let cx = BaselineCtx::new();
        let a = <YalaaAff1 as Domain>::from_input(1.0, &cx);
        let b = <YalaaAff1 as Domain>::from_input(4.0, &cx);
        let q = Domain::div(&a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&q);
        assert!(lo <= 0.25 && 0.25 <= hi);
    }

    #[test]
    fn min_max_decided_and_hull() {
        let cx = AaContext::new(AaConfig::new(8));
        let a = Affine::<f64>::from_interval(0.0, 1.0, &cx);
        let b = Affine::<f64>::from_interval(2.0, 3.0, &cx);
        let m = Domain::min(&a, &b, &cx);
        assert_eq!(Domain::range(&m), Domain::range(&a));
        let mx = Domain::max(&a, &b, &cx);
        assert_eq!(Domain::range(&mx), Domain::range(&b));
    }
}
