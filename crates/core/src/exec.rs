//! The domain-generic virtual machine.
//!
//! Executes a compiled [`Program`] under any numeric [`Domain`]. The same
//! bytecode therefore yields the unsound original result, sound interval
//! enclosures, or sound affine enclosures under every SafeGen
//! configuration — the apples-to-apples setup of the paper's evaluation.
//!
//! ## One scalar semantics
//!
//! Every scalar execution of an [`Instr`] goes through one dispatch loop
//! (`Machine::run`), with one parameter binder (`Machine::start`) and
//! one result materialiser (`Machine::finish`) around it. The loop runs
//! until a return, an undecided branch, or a caller-supplied pause
//! point (a `pause(from, to)` hook consulted after every instruction:
//! never for the plain VM, loop headers and back edges for the fixpoint
//! engine). It is generic over two things:
//!
//! * **what an integer register holds** (the crate-private `IntVal`
//!   trait): `i64` for concrete runs — [`exec`] and the error-provenance
//!   profiler's traced mode — and the fixpoint engine's abstract integer
//!   for its top level, concrete loop attempts and abstract loop-body
//!   passes (`crate::fixpoint`). Every abstract-only policy (pending
//!   float comparisons, widened integers, the stricter rules inside a
//!   pass) lives on the abstract side of that parameter, so the two
//!   engines cannot disagree on what an opcode means;
//! * **the tracer** ([`ExecTracer`]): [`NoTrace`] compiles the hooks out.
//!
//! The `i64`/[`NoTrace`] instance is the scalar hot path; the `dispatch`
//! bench's `scalar_items_per_s` tracks its rate.
//!
//! The lane engine (`crate::lanes`) keeps its own column loop over the
//! fixed-width encoding, but binds each lane with the same binder and
//! shares the sound float-comparison decision and the error
//! constructors defined here: each VM error message is built in exactly
//! one place.

use crate::domain::Domain;
use crate::program::{CmpOp, Instr, ParamBinding, Program};
use std::fmt;

/// An argument passed to [`exec`].
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Scalar floating-point input (becomes `x ± 1 ulp`).
    Float(f64),
    /// Integer input (sizes, iteration counts).
    Int(i64),
    /// Floating-point array input.
    Array(Vec<f64>),
}

impl From<f64> for ArgValue {
    fn from(x: f64) -> ArgValue {
        ArgValue::Float(x)
    }
}

impl From<i64> for ArgValue {
    fn from(x: i64) -> ArgValue {
        ArgValue::Int(x)
    }
}

impl From<Vec<f64>> for ArgValue {
    fn from(x: Vec<f64>) -> ArgValue {
        ArgValue::Array(x)
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Floating-point (domain) operations executed.
    pub fp_ops: u64,
    /// Instructions executed in total.
    pub instrs: u64,
    /// Floating-point comparisons whose sound enclosures overlapped and
    /// were decided by central values (see DESIGN.md §4.5).
    pub undecided_branches: u64,
    /// Budget-overflow fusion events during this run (sorted placement;
    /// 0 for non-affine domains). Deterministic per input and config.
    pub fusions: u64,
    /// Slot-conflict condensations during this run (direct-mapped
    /// placement; 0 for non-affine domains). Deterministic per input
    /// and config.
    pub condensations: u64,
    /// Loops solved abstractly by the fixpoint engine this run (0 under
    /// unroll mode and for loop-free programs).
    pub fixpoint_loops: u64,
    /// Abstract loop-body passes executed across all fixpoint solves.
    pub fixpoint_iters: u64,
    /// Widening applications (one per loop-carried variable whose hull
    /// was extrapolated in a widening round).
    pub widenings: u64,
    /// Accepted narrowing refinements (one per verified candidate that
    /// tightened the invariant).
    pub narrowings: u64,
}

/// Where a traced symbol allocation happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceSite {
    /// Binding of the `i`-th program parameter (input uncertainty).
    Param(usize),
    /// The instruction at this `pc` (its round-off noise, and any fused
    /// or condensed symbols it absorbed).
    Instr(usize),
}

/// Observes symbol allocations during a run. The VM is generic over the
/// tracer and [`NoTrace`] has `ACTIVE = false`, so the tracing hooks
/// compile out entirely on the default [`exec`] path — tracing is
/// zero-cost unless the traced mode (`exec_traced`) is used.
pub trait ExecTracer {
    /// Whether the hooks are live; `false` lets the optimizer delete them.
    const ACTIVE: bool;
    /// Symbols `first..last` were allocated at `site`.
    fn record(&mut self, site: TraceSite, first: u64, last: u64);
}

/// The inert tracer behind [`exec`].
pub struct NoTrace;

impl ExecTracer for NoTrace {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn record(&mut self, _: TraceSite, _: u64, _: u64) {}
}

/// Records every symbol-id range with its allocation site, in allocation
/// order (so ranges are sorted and disjoint — symbol ids are monotone).
#[derive(Clone, Debug, Default)]
pub(crate) struct SymbolTrace {
    /// `(site, first id, one past last id)` per allocating step.
    pub allocs: Vec<(TraceSite, u64, u64)>,
}

impl SymbolTrace {
    /// The site that allocated symbol `id`, if any.
    pub fn site_of(&self, id: u64) -> Option<TraceSite> {
        let i = self.allocs.partition_point(|&(_, first, _)| first <= id);
        let (site, first, last) = *self.allocs.get(i.checked_sub(1)?)?;
        (first <= id && id < last).then_some(site)
    }
}

impl ExecTracer for SymbolTrace {
    const ACTIVE: bool = true;
    fn record(&mut self, site: TraceSite, first: u64, last: u64) {
        self.allocs.push((site, first, last));
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult<D> {
    /// Returned value, if the function returns one.
    pub ret: Option<D>,
    /// Final contents of every array parameter (out-parameters), in
    /// program parameter order: `(name, values)`.
    pub arrays: Vec<(String, Vec<D>)>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Errors during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExecError {}

fn err(message: impl Into<String>) -> ExecError {
    ExecError {
        message: message.into(),
    }
}

/// Upper bound on executed instructions (runaway-loop guard).
pub(crate) const FUEL: u64 = 2_000_000_000;

// Every VM error message is built in this module, once — the argument
// errors in `Machine::start`, the rest below; the scalar loop, the
// fixpoint engine and the lane engine all report through them.

/// The element `i` selects in the array `name` of `len` elements, or the
/// VM's bounds error.
#[inline(always)]
pub(crate) fn array_index(i: i64, len: usize, name: &str) -> Result<usize, ExecError> {
    match usize::try_from(i) {
        Ok(iu) if iu < len => Ok(iu),
        _ => Err(index_error(i, len, name)),
    }
}

#[cold]
fn index_error(i: i64, len: usize, name: &str) -> ExecError {
    if i < 0 {
        err("negative array index")
    } else {
        err(format!("index {i} out of bounds for `{name}` (len {len})"))
    }
}

#[cold]
pub(crate) fn div_by_zero() -> ExecError {
    err("integer division by zero")
}

#[cold]
pub(crate) fn fuel_exhausted() -> ExecError {
    err("instruction budget exhausted (infinite loop?)")
}

/// The sound float-comparison decision: `Some` when the enclosures
/// decide `x op y`, `None` when they overlap.
#[inline(always)]
pub(crate) fn cmp_f_sound<D: Domain>(op: CmpOp, x: &D, y: &D) -> Option<bool> {
    match op {
        CmpOp::Lt => x.try_lt(y),
        CmpOp::Gt => y.try_lt(x),
        CmpOp::Le => y.try_lt(x).map(|b| !b),
        CmpOp::Ge => x.try_lt(y).map(|b| !b),
        CmpOp::Eq | CmpOp::Ne => {
            let (xlo, xhi) = x.range();
            let (ylo, yhi) = y.range();
            if xhi < ylo || yhi < xlo {
                Some(op == CmpOp::Ne)
            } else if xlo == xhi && ylo == yhi && xlo == ylo {
                Some(op == CmpOp::Eq)
            } else {
                None
            }
        }
    }
}

/// The concrete VM's float comparison: the sound decision, or — when the
/// enclosures overlap — the center values' decision, counted in
/// `undecided` (DESIGN.md §4.5).
#[inline(always)]
pub(crate) fn cmp_f_decide<D: Domain>(op: CmpOp, x: &D, y: &D, undecided: &mut u64) -> bool {
    cmp_f_sound(op, x, y).unwrap_or_else(|| {
        *undecided += 1;
        op.eval(x.center(), y.center())
    })
}

/// What an integer register holds. Concrete runs hold `i64`; the
/// fixpoint engine holds its abstract integer (`fixpoint::AbsInt`),
/// whose implementation carries every abstract-only policy. The one
/// dispatch loop ([`Machine::run`]) is generic over this, so the
/// plain VM and the fixpoint engine share their instruction semantics.
pub(crate) trait IntVal: Copy {
    /// How a run fails.
    type Err;
    /// A known integer.
    fn known(v: i64) -> Self;
    /// The value a branch tests, or `None` when it is undecided (the
    /// caller then decides how to split).
    fn decided(self) -> Option<i64>;
    /// `regs[r]` where a concrete integer is required (index, divisor,
    /// int-to-float cast, an undecided branch taken by its center).
    fn read(regs: &mut [Self], r: u32, stats: &mut RunStats) -> Result<i64, Self::Err>;
    /// `f(regs[a], regs[b])`: integer arithmetic and comparison.
    fn lift2(
        regs: &mut [Self],
        a: u32,
        b: u32,
        stats: &mut RunStats,
        f: impl FnOnce(i64, i64) -> i64,
    ) -> Result<Self, Self::Err>;
    /// The result of comparing float registers `a` and `b`, holding `x`
    /// and `y`.
    fn cmp_f<D: Domain>(op: CmpOp, a: u32, b: u32, x: &D, y: &D, stats: &mut RunStats) -> Self;
    /// Float-to-int truncation of `x`.
    fn cast_f<D: Domain>(x: &D, in_pass: bool) -> Result<Self, Self::Err>;
    /// A runtime error raised by an instruction (`in_pass`: inside an abstract
    /// loop-body pass, where the error may be spurious).
    fn fault(e: ExecError, in_pass: bool) -> Self::Err;
}

impl IntVal for i64 {
    type Err = ExecError;
    #[inline(always)]
    fn known(v: i64) -> i64 {
        v
    }
    #[inline(always)]
    fn decided(self) -> Option<i64> {
        Some(self)
    }
    #[inline(always)]
    fn read(regs: &mut [i64], r: u32, _: &mut RunStats) -> Result<i64, ExecError> {
        Ok(regs[r as usize])
    }
    #[inline(always)]
    fn lift2(
        regs: &mut [i64],
        a: u32,
        b: u32,
        _: &mut RunStats,
        f: impl FnOnce(i64, i64) -> i64,
    ) -> Result<i64, ExecError> {
        Ok(f(regs[a as usize], regs[b as usize]))
    }
    #[inline(always)]
    fn cmp_f<D: Domain>(op: CmpOp, _: u32, _: u32, x: &D, y: &D, stats: &mut RunStats) -> i64 {
        i64::from(cmp_f_decide(op, x, y, &mut stats.undecided_branches))
    }
    #[inline(always)]
    fn cast_f<D: Domain>(x: &D, _: bool) -> Result<i64, ExecError> {
        Ok(x.center() as i64)
    }
    #[inline(always)]
    fn fault(e: ExecError, _: bool) -> ExecError {
        e
    }
}

/// Consumes the pending protect set (empty when none is pending).
#[inline(always)]
fn take_protect(pending: &mut bool, protect: &mut Vec<u64>) -> Vec<u64> {
    if std::mem::take(pending) {
        std::mem::take(protect)
    } else {
        Vec::new()
    }
}

/// Why [`Machine::run`] handed control back.
pub(crate) enum Stop {
    /// Return the given float register (`None`: a void return, also at
    /// the end of the code).
    Ret(Option<u32>),
    /// A `JumpIfZero` whose condition is undecided (`pc` still points at
    /// it) — only abstract integers produce this; the caller's policy
    /// decides the split.
    Branch { reg: u32, target: usize },
    /// The caller's `pause` hook asked for control at the new `pc`.
    Pause,
}

/// The scalar machine state: float registers, integer registers, arrays,
/// and the pending-pragma bookkeeping.
#[derive(Clone)]
pub(crate) struct Machine<D, I> {
    pub fregs: Vec<D>,
    pub iregs: Vec<I>,
    pub arrays: Vec<Vec<D>>,
    /// The protect set of a pending `Protect`, consumed by the next
    /// protectable FP op.
    pub protect: Vec<u64>,
    pub pending_protect: bool,
    /// A `SetCapacity` covers exactly its (single-FP-op) statement.
    pub pending_capacity: bool,
}

impl<D: Domain, I: IntVal> Machine<D, I> {
    /// The parameter binder: builds the zeroed state and binds the
    /// parameters in declaration order, checking each argument. Also returns the
    /// context's fusion counters at entry, for [`Machine::finish`].
    #[inline(always)]
    pub(crate) fn start<T: ExecTracer>(
        prog: &Program,
        args: &[ArgValue],
        cx: &D::Ctx,
        tracer: &mut T,
    ) -> Result<(Self, (u64, u64)), ExecError> {
        if args.len() != prog.params.len() {
            return Err(err(format!(
                "{} arguments provided, {} expected",
                args.len(),
                prog.params.len()
            )));
        }
        let zero = D::constant(0.0, cx);
        let mut m = Machine {
            fregs: vec![zero; prog.n_fregs.max(1)],
            iregs: vec![I::known(0); prog.n_iregs.max(1)],
            arrays: prog
                .arrays
                .iter()
                .map(|a| vec![D::constant(0.0, cx); a.len])
                .collect(),
            protect: Vec::new(),
            pending_protect: false,
            pending_capacity: false,
        };
        // Counter snapshots: run stats report per-run deltas even when
        // the caller reuses one context across runs.
        let entry = D::fusion_counters(cx);
        for (index, ((name, binding), arg)) in prog.params.iter().zip(args).enumerate() {
            let syms_before = if T::ACTIVE {
                D::symbols_allocated(cx)
            } else {
                0
            };
            match (binding, arg) {
                (ParamBinding::Float(r), ArgValue::Float(x)) => {
                    m.fregs[*r as usize] = D::from_input(*x, cx);
                }
                (ParamBinding::Int(r), ArgValue::Int(v)) => m.iregs[*r as usize] = I::known(*v),
                (ParamBinding::Array(a), ArgValue::Array(xs)) => {
                    let decl = &prog.arrays[*a as usize];
                    if decl.len != 0 && decl.len != xs.len() {
                        return Err(err(format!(
                            "array `{name}` expects {} elements, got {}",
                            decl.len,
                            xs.len()
                        )));
                    }
                    m.arrays[*a as usize] = xs.iter().map(|&x| D::from_input(x, cx)).collect();
                }
                (b, a) => {
                    return Err(err(format!("argument `{name}`: expected {b:?}, got {a:?}")));
                }
            }
            if T::ACTIVE {
                let syms_after = D::symbols_allocated(cx);
                if syms_after > syms_before {
                    tracer.record(TraceSite::Param(index), syms_before, syms_after);
                }
            }
        }
        Ok((m, entry))
    }

    /// The result materialiser: the returned register `ret`, every array
    /// parameter in parameter order, and `stats` completed with the
    /// fusion/condensation deltas since `entry`.
    #[inline(always)]
    pub(crate) fn finish(
        mut self,
        prog: &Program,
        cx: &D::Ctx,
        ret: Option<u32>,
        mut stats: RunStats,
        entry: (u64, u64),
    ) -> RunResult<D> {
        let (fusions, condensations) = D::fusion_counters(cx);
        stats.fusions = fusions - entry.0;
        stats.condensations = condensations - entry.1;
        let arrays = prog
            .params
            .iter()
            .filter_map(|(name, b)| match b {
                ParamBinding::Array(a) => {
                    Some((name.clone(), std::mem::take(&mut self.arrays[*a as usize])))
                }
                _ => None,
            })
            .collect();
        RunResult {
            ret: ret.map(|r| self.fregs.swap_remove(r as usize)),
            arrays,
            stats,
        }
    }

    /// Executes instructions from `*pc` on — the one scalar semantics of
    /// every opcode — until a [`Stop`]: a return, an undecided branch,
    /// or `pause(from, to)` returning `true` after the instruction at
    /// `from` moved `*pc` to `to`. The instruction at `*pc` always runs
    /// first, so a paused run resumes where it stopped. Every executed
    /// instruction is counted in `stats` (fuel included) and its symbol
    /// allocations reported to `tracer`; `in_pass` marks an abstract
    /// loop-body pass (see [`IntVal::fault`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<T: ExecTracer>(
        &mut self,
        prog: &Program,
        cx: &D::Ctx,
        pc: &mut usize,
        stats: &mut RunStats,
        in_pass: bool,
        tracer: &mut T,
        mut pause: impl FnMut(usize, usize) -> bool,
    ) -> Result<Stop, I::Err> {
        let Machine {
            fregs,
            iregs,
            arrays,
            protect,
            pending_protect,
            pending_capacity,
        } = self;
        // Slices, so the loop keeps their pointers and lengths in machine
        // registers instead of reloading them after every store.
        let (f, i) = (&mut fregs[..], &mut iregs[..]);
        loop {
            let at = *pc;
            let Some(instr) = prog.code.get(at) else {
                return Ok(Stop::Ret(None));
            };
            stats.instrs += 1;
            if stats.instrs > FUEL {
                return Err(I::fault(fuel_exhausted(), in_pass));
            }
            let fp_ops_before = stats.fp_ops;
            let syms_before = if T::ACTIVE {
                D::symbols_allocated(cx)
            } else {
                0
            };
            let mut next = at + 1;
            match instr {
                Instr::Add(d, a, b) => {
                    let p = take_protect(pending_protect, protect);
                    f[*d as usize] = f[*a as usize].add(&f[*b as usize], cx, &p);
                    stats.fp_ops += 1;
                }
                Instr::Sub(d, a, b) => {
                    let p = take_protect(pending_protect, protect);
                    f[*d as usize] = f[*a as usize].sub(&f[*b as usize], cx, &p);
                    stats.fp_ops += 1;
                }
                Instr::Mul(d, a, b) => {
                    let p = take_protect(pending_protect, protect);
                    f[*d as usize] = f[*a as usize].mul(&f[*b as usize], cx, &p);
                    stats.fp_ops += 1;
                }
                Instr::Div(d, a, b) => {
                    let p = take_protect(pending_protect, protect);
                    f[*d as usize] = f[*a as usize].div(&f[*b as usize], cx, &p);
                    stats.fp_ops += 1;
                }
                Instr::Sqrt(d, a) => {
                    let p = take_protect(pending_protect, protect);
                    f[*d as usize] = f[*a as usize].sqrt(cx, &p);
                    stats.fp_ops += 1;
                }
                Instr::Abs(d, a) => {
                    f[*d as usize] = f[*a as usize].abs(cx);
                    stats.fp_ops += 1;
                }
                Instr::Neg(d, a) => {
                    f[*d as usize] = f[*a as usize].neg(cx);
                    stats.fp_ops += 1;
                }
                Instr::Min(d, a, b) => {
                    f[*d as usize] = f[*a as usize].min(&f[*b as usize], cx);
                    stats.fp_ops += 1;
                }
                Instr::Max(d, a, b) => {
                    f[*d as usize] = f[*a as usize].max(&f[*b as usize], cx);
                    stats.fp_ops += 1;
                }
                Instr::ConstF(d, c) => f[*d as usize] = D::constant(*c, cx),
                Instr::MovF(d, s) => f[*d as usize] = f[*s as usize].clone(),
                Instr::CastIF(d, s) => {
                    let v = I::read(i, *s, stats)?;
                    f[*d as usize] = D::constant(v as f64, cx);
                }
                Instr::LoadArr(d, arr, idx) => {
                    let k = I::read(i, *idx, stats)?;
                    let a = &arrays[*arr as usize];
                    let k = array_index(k, a.len(), &prog.arrays[*arr as usize].name)
                        .map_err(|e| I::fault(e, in_pass))?;
                    f[*d as usize] = a[k].clone();
                }
                Instr::StoreArr(arr, idx, s) => {
                    let k = I::read(i, *idx, stats)?;
                    let a = &mut arrays[*arr as usize];
                    let k = array_index(k, a.len(), &prog.arrays[*arr as usize].name)
                        .map_err(|e| I::fault(e, in_pass))?;
                    a[k] = f[*s as usize].clone();
                }
                Instr::ConstI(d, c) => i[*d as usize] = I::known(*c),
                Instr::AddI(d, a, b) => i[*d as usize] = I::lift2(i, *a, *b, stats, |x, y| x + y)?,
                Instr::SubI(d, a, b) => i[*d as usize] = I::lift2(i, *a, *b, stats, |x, y| x - y)?,
                Instr::MulI(d, a, b) => i[*d as usize] = I::lift2(i, *a, *b, stats, |x, y| x * y)?,
                Instr::DivI(d, a, b) => {
                    if I::read(i, *b, stats)? == 0 {
                        return Err(I::fault(div_by_zero(), in_pass));
                    }
                    i[*d as usize] = I::lift2(i, *a, *b, stats, |x, y| x / y)?;
                }
                Instr::MovI(d, s) => i[*d as usize] = i[*s as usize],
                Instr::CastFI(d, s) => i[*d as usize] = I::cast_f(&f[*s as usize], in_pass)?,
                Instr::CmpI(op, d, a, b) => {
                    i[*d as usize] = I::lift2(i, *a, *b, stats, |x, y| i64::from(op.eval(x, y)))?;
                }
                Instr::CmpF(op, d, a, b) => {
                    i[*d as usize] = I::cmp_f(*op, *a, *b, &f[*a as usize], &f[*b as usize], stats);
                }
                Instr::Jump(t) => next = *t,
                Instr::JumpIfZero(c, t) => match i[*c as usize].decided() {
                    Some(0) => next = *t,
                    Some(_) => {}
                    None => {
                        return Ok(Stop::Branch {
                            reg: *c,
                            target: *t,
                        })
                    }
                },
                Instr::Protect(r) => {
                    *protect = f[*r as usize].protect_ids(cx);
                    *pending_protect = true;
                }
                Instr::SetCapacity(k) => {
                    D::set_capacity(cx, *k as usize);
                    *pending_capacity = true;
                }
                Instr::Ret(r) => return Ok(Stop::Ret(*r)),
            }
            // A capacity pragma covers exactly its (single-FP-op) statement.
            if *pending_capacity && stats.fp_ops > fp_ops_before {
                D::reset_capacity(cx);
                *pending_capacity = false;
            }
            if T::ACTIVE {
                let syms_after = D::symbols_allocated(cx);
                if syms_after > syms_before {
                    tracer.record(TraceSite::Instr(at), syms_before, syms_after);
                }
            }
            *pc = next;
            if pause(at, next) {
                return Ok(Stop::Pause);
            }
        }
    }
}

/// Executes `prog` under domain `D`.
///
/// `args` must match the program's parameters in order and kind. Array
/// arguments determine the size of unsized (pointer) parameters.
///
/// # Errors
///
/// Returns [`ExecError`] on argument mismatch, out-of-bounds array access,
/// or fuel exhaustion.
pub fn exec<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
) -> Result<RunResult<D>, ExecError> {
    exec_inner(prog, args, cx, &mut NoTrace)
}

/// Executes `prog` like [`exec`] while recording, per parameter binding
/// and per executed instruction, the range of error-symbol ids it
/// allocated — the raw data of the error-provenance profiler
/// (`safegen::profile`).
///
/// # Errors
///
/// Same conditions as [`exec`].
pub(crate) fn exec_traced<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
) -> Result<(RunResult<D>, SymbolTrace), ExecError> {
    let mut trace = SymbolTrace::default();
    let result = exec_inner(prog, args, cx, &mut trace)?;
    Ok((result, trace))
}

/// The plain VM: bind, run from `pc` 0 to a return, materialise. Both
/// [`exec`] and [`exec_traced`] are instances of it.
pub(crate) fn exec_inner<D: Domain, T: ExecTracer>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
    tracer: &mut T,
) -> Result<RunResult<D>, ExecError> {
    let (m, entry) = Machine::<D, i64>::start(prog, args, cx, tracer)?;
    m.exec(prog, cx, entry, tracer)
}

impl<D: Domain> Machine<D, i64> {
    /// The plain VM on a bound machine: runs from `pc` 0 to a return and
    /// materialises the result (`entry`: the counters [`Machine::start`]
    /// returned with it).
    pub(crate) fn exec<T: ExecTracer>(
        mut self,
        prog: &Program,
        cx: &D::Ctx,
        entry: (u64, u64),
        tracer: &mut T,
    ) -> Result<RunResult<D>, ExecError> {
        let mut stats = RunStats::default();
        let ret = match self.run(prog, cx, &mut 0, &mut stats, false, tracer, |_, _| false)? {
            Stop::Ret(r) => r,
            Stop::Branch { .. } | Stop::Pause => {
                unreachable!("concrete integers decide every branch; nothing pauses")
            }
        };
        Ok(self.finish(prog, cx, ret, stats, entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, UnsoundF64};
    use crate::program::compile_program;
    use safegen_affine::{AaConfig, AaContext, AffineF64};
    use safegen_cfront::{analyze, parse};
    use safegen_interval::IntervalF64;

    fn compile(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = safegen_ir::to_tac(&unit, &sema);
        let sema2 = analyze(&tac).unwrap();
        compile_program(&tac.functions[0], &sema2).unwrap()
    }

    #[test]
    fn unsound_matches_native_rust() {
        let p = compile("double f(double a, double b) { return a * b + 0.1; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.7.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 0.3 * 0.7 + 0.1);
        assert_eq!(r.stats.fp_ops, 2);
    }

    #[test]
    fn loop_executes_n_times() {
        let p = compile(
            "double f(double x, int n) {
                 for (int i = 0; i < n; i++) { x = x * 0.5; }
                 return x;
             }",
        );
        let r: RunResult<UnsoundF64> = exec(&p, &[1024.0.into(), 10i64.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 1.0);
        assert_eq!(r.stats.fp_ops, 10);
    }

    #[test]
    fn array_out_parameter_returned() {
        let p = compile(
            "void scale(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0; } }",
        );
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0, 2.0, 3.0, 4.0].into()], &()).unwrap();
        let (name, vals) = &r.arrays[0];
        assert_eq!(name, "a");
        let got: Vec<f64> = vals.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn two_d_array_indexing() {
        let p = compile("void t(double g[2][2]) { g[0][1] = g[1][0] + 10.0; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0, 2.0, 3.0, 4.0].into()], &()).unwrap();
        let got: Vec<f64> = r.arrays[0].1.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![1.0, 13.0, 3.0, 4.0]); // g[0][1] = g[1][0]+10 = 3+10
    }

    #[test]
    fn branches_follow_comparison() {
        let p = compile("double f(double x) { if (x < 0.0) { return -x; } return x; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[(-3.0).into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 3.0);
        let r: RunResult<UnsoundF64> = exec(&p, &[2.0.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 2.0);
    }

    #[test]
    fn interval_run_encloses_unsound_run() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 20; i++) { s = s * y + x; }
            return s;
        }";
        let p = compile(src);
        let unsound: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let sound: RunResult<IntervalF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let iv = sound.ret.unwrap();
        assert!(iv.contains(unsound.ret.unwrap().0));
    }

    #[test]
    fn affine_run_encloses_unsound_run() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 20; i++) { s = s * y - x * y; }
            return s;
        }";
        let p = compile(src);
        let unsound: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let ctx = AaContext::new(AaConfig::new(8));
        let sound: RunResult<AffineF64> = exec(&p, &[0.3.into(), 0.9.into()], &ctx).unwrap();
        let a = sound.ret.unwrap();
        assert!(a.contains_f64(unsound.ret.unwrap().0));
        assert!(sound.stats.fp_ops == unsound.stats.fp_ops);
    }

    #[test]
    fn protect_instruction_consumed_by_next_op() {
        let src = "void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2));
        let r: RunResult<AffineF64> = exec(&p, &[1.0.into(), 2.0.into()], &ctx).unwrap();
        assert!(r.ret.is_none());
        assert_eq!(r.stats.fp_ops, 1);
    }

    #[test]
    fn undecided_branch_counted() {
        let src = "double f(double x) { if (x < 0.5) { return x; } return x + 1.0; }";
        let p = compile(src);
        // Range [0.5-u, 0.5+u] straddles the threshold once widened enough:
        // force it by comparing against a value inside the input range.
        let ctx = AaContext::new(AaConfig::new(4));
        let r: RunResult<AffineF64> = exec(&p, &[0.5.into()], &ctx).unwrap();
        assert_eq!(r.stats.undecided_branches, 1);
    }

    #[test]
    fn fusion_counter_fires_on_sorted_budget_overflow() {
        // A k = 2 budget under sorted placement overflows on every
        // multiply-add once the form carries two symbols, forcing
        // oldest-symbol fusion (the `sonn` configuration).
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let (cfg, _) = AaConfig::parse_mnemonic(2, "sonn").unwrap();
        let ctx = AaContext::new(cfg);
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert!(r.stats.fusions > 0, "expected sorted-placement fusions");
        assert_eq!(r.stats.condensations, 0, "no slots under sorted placement");
    }

    #[test]
    fn condensation_counter_fires_under_direct_mapping() {
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2)); // direct-mapped, k = 2
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert!(r.stats.condensations > 0, "expected slot conflicts");
        assert_eq!(r.stats.fusions, 0, "no budget fusion under direct mapping");
    }

    #[test]
    fn counters_zero_without_symbol_pressure() {
        let p = compile("double f(double x) { return x * x; }");
        let ctx = AaContext::new(AaConfig::full()); // unbounded, never fuses
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert_eq!((r.stats.fusions, r.stats.condensations), (0, 0));
        let r: RunResult<UnsoundF64> = exec(&p, &[0.7.into()], &()).unwrap();
        assert_eq!((r.stats.fusions, r.stats.condensations), (0, 0));
    }

    #[test]
    fn stats_are_deltas_when_context_is_reused() {
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2));
        let a: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        let b: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert_eq!(a.stats.condensations, b.stats.condensations);
    }

    #[test]
    fn traced_run_attributes_symbols_to_sites() {
        let p = compile("double f(double x) { return x * x - x; }");
        let ctx = AaContext::new(AaConfig::full());
        let (r, trace) = exec_traced::<AffineF64>(&p, &[0.7.into()], &ctx).unwrap();
        // The first allocation is the input symbol of parameter 0.
        assert_eq!(trace.allocs.first().map(|a| a.0), Some(TraceSite::Param(0)));
        assert_eq!(trace.site_of(0), Some(TraceSite::Param(0)));
        // Every surviving symbol of the result maps back to a site, and
        // the ranges are disjoint and sorted.
        for (id, _) in Domain::noise_terms(r.ret.as_ref().unwrap()) {
            assert!(trace.site_of(id).is_some(), "symbol {id} unattributed");
        }
        for w in trace.allocs.windows(2) {
            assert!(w[0].2 <= w[1].1, "ranges overlap: {w:?}");
        }
        assert_eq!(trace.site_of(u64::MAX), None);
        // Tracing does not change results.
        let plain: RunResult<AffineF64> =
            exec(&p, &[0.7.into()], &AaContext::new(AaConfig::full())).unwrap();
        assert_eq!(plain.ret.unwrap().range(), r.ret.unwrap().range());
    }

    #[test]
    fn argument_mismatch_errors() {
        let p = compile("double f(double x) { return x; }");
        let e = exec::<UnsoundF64>(&p, &[], &()).unwrap_err();
        assert!(e.message.contains("expected"));
        let e = exec::<UnsoundF64>(&p, &[1i64.into()], &()).unwrap_err();
        assert!(e.message.contains('x'));
    }

    #[test]
    fn out_of_bounds_errors() {
        let p = compile("void f(double a[2], int i) { a[i] = 1.0; }");
        let e = exec::<UnsoundF64>(&p, &[vec![0.0, 0.0].into(), 5i64.into()], &()).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn unsized_pointer_param_takes_any_length() {
        let p = compile("void f(double *a, int n) { for (int i = 0; i < n; i++) a[i] = 0.5; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0; 7].into(), 7i64.into()], &()).unwrap();
        assert!(r.arrays[0].1.iter().all(|v| v.0 == 0.5));
    }

    #[test]
    fn while_loop_terminates() {
        let p = compile("double f(double x) { while (x < 100.0) { x = x * 2.0; } return x; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[1.0.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 128.0);
    }
}
