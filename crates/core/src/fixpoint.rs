//! Sound loop invariants for unbounded loops: the iterate-and-widen
//! fixpoint engine (DESIGN.md §12).
//!
//! The paper's evaluation model fully unrolls every loop, which requires a
//! statically bounded trip count. This module lifts that restriction: when
//! a loop's trip count is unknown (data-dependent `while` guard) or
//! exceeds the unroll budget, `exec_fixpoint` computes a sound
//! **loop-invariant enclosure** by abstract interpretation —
//!
//! 1. **Attempt** (phase A): run the loop concretely for up to
//!    `attempt_budget` traversals of its back edge. Small bounded loops
//!    exit here with the exact unrolled result (the "full unroll
//!    fallback"); an exhausted budget or a data-dependent guard aborts to
//!    phase B with the entry state restored.
//! 2. **Iterate** (phase B): keep an interval hull per loop-carried
//!    variable, re-execute the loop body from the materialized hulls, and
//!    join the resulting state back in until the invariant is inductive
//!    (`F(inv) ⊑ inv`). After `widen_delay` rounds, growing endpoints are
//!    snapped outward to a power-of-two ladder (threshold widening), and
//!    after `threshold_rounds` more they jump to ±∞ — so the iteration
//!    terminates even for divergent loops.
//! 3. **Narrow**: candidate refinements `entry ⊔ F(inv)` are accepted
//!    only after re-verification (`entry ⊔ F(cand) ⊑ cand`), recovering
//!    precision lost to widening without assuming monotonicity of the
//!    transfer functions.
//! 4. **Collect**: one final pass over the inductive invariant gathers
//!    the exit states (the invariant refined by the negated guard). A
//!    loop that provably never exits yields a *vacuous* exit carrying the
//!    invariant — termination-with-soundness where unrolling would spin
//!    forever.
//!
//! The invariant is a plain `(f64, f64)` hull per written component, not
//! a domain value: loop-carried variables are rebuilt each pass through
//! [`Domain::from_range`], which deliberately drops symbol correlation
//! (keeping affine terms across a join is unsound for loop-carried
//! state — `x = 1.0 - x` flips every coefficient each trip). Soundness of
//! the final invariant needs no monotonicity argument: the body transfer
//! function is evaluated directly on the materialized invariant, so
//! containment of the result *is* inductiveness.
//!
//! Instructions execute through the plain VM's dispatch loop
//! (`crate::exec`), instantiated with this module's abstract integer
//! `AbsInt` instead of `i64` and paused at loop headers, back edges and
//! loop exits: the top level, the concrete attempt and every abstract
//! pass run the same opcode semantics as `exec`, and what is abstract —
//! a pending float comparison, a widened counter (`Top`), the stricter
//! rules inside a pass for casts, bounds and division — is the `AbsInt`
//! side of that loop's integer parameter. This module owns only the
//! driving around it (attempt, passes, joins, widening).
//!
//! Any shape the abstract interpreter cannot handle soundly (a widened
//! integer used as an array index or divisor, an early `return` inside a
//! loop body, several distinct exit targets) bails out to one plain
//! concrete execution of the whole program — never an unsound answer.

use crate::domain::Domain;
use crate::exec::{
    cmp_f_sound, exec_inner, ArgValue, ExecError, IntVal, Machine, NoTrace, RunResult, RunStats,
    Stop,
};
use crate::program::{CmpOp, Instr, Program};
use safegen_ir::loops::{loop_regions, LoopRegion, LoopTable};

/// How the VM treats loops whose trip count is not statically exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoopMode {
    /// Full unrolling only (the paper's model): every loop executes
    /// concretely; a runaway loop exhausts the instruction budget.
    #[default]
    Unroll,
    /// Fixpoint-first: a small attempt budget (default 16 back-edge
    /// traversals), then the iterate-and-widen solver.
    Fixpoint,
    /// Unroll-first: a large attempt budget (default 1024) keeps small
    /// loops exact, with the fixpoint solver as the fallback.
    Auto,
}

impl LoopMode {
    /// Parses `unroll` / `fixpoint` / `auto` (the `SAFEGEN_LOOP_MODE`
    /// values).
    pub fn parse(s: &str) -> Option<LoopMode> {
        match s {
            "unroll" => Some(LoopMode::Unroll),
            "fixpoint" => Some(LoopMode::Fixpoint),
            "auto" => Some(LoopMode::Auto),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`LoopMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            LoopMode::Unroll => "unroll",
            LoopMode::Fixpoint => "fixpoint",
            LoopMode::Auto => "auto",
        }
    }
}

/// Tuning knobs of the fixpoint solver. [`FixpointConfig::for_mode`]
/// derives the standard settings; every field is public for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FixpointConfig {
    /// Back-edge traversals granted to the concrete attempt (phase A)
    /// before aborting to the abstract solver.
    pub attempt_budget: u64,
    /// Join rounds before widening starts.
    pub widen_delay: u32,
    /// Threshold-widening rounds (power-of-two ladder) before endpoints
    /// jump to ±∞.
    pub threshold_rounds: u32,
    /// Verified narrowing passes after stabilization.
    pub narrow_passes: u32,
    /// Hard cap on iterate rounds (defense in depth; the widening
    /// schedule alone guarantees termination).
    pub max_iters: u32,
    /// Instruction cap per abstract body pass (guards against a nested
    /// concrete loop that never terminates inside one pass).
    pub pass_fuel: u64,
}

impl Default for FixpointConfig {
    fn default() -> FixpointConfig {
        FixpointConfig {
            attempt_budget: 16,
            widen_delay: 3,
            threshold_rounds: 24,
            narrow_passes: 8,
            max_iters: 64,
            pass_fuel: 10_000_000,
        }
    }
}

impl FixpointConfig {
    /// The standard configuration for `mode`, with the attempt budget
    /// optionally overridden (`SAFEGEN_UNROLL_BUDGET` /
    /// `RunConfig::unroll_budget`).
    pub fn for_mode(mode: LoopMode, unroll_budget: Option<u64>) -> FixpointConfig {
        let mut cfg = FixpointConfig::default();
        if matches!(mode, LoopMode::Auto) {
            cfg.attempt_budget = 1024;
        }
        if let Some(b) = unroll_budget {
            cfg.attempt_budget = b;
        }
        cfg
    }
}

/// Abstract integer: the flat lattice `Known ⊑ Top`, plus a lazily
/// undecided float comparison result.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AbsInt {
    /// A genuine concrete value (every execution reaching this point under
    /// the current invariant carries exactly this value).
    Known(i64),
    /// The 0/1 result of a float comparison whose enclosures overlapped.
    /// Undecided status is *lazy*: consumed by a loop-exit guard it
    /// becomes a sound both-paths split (no undecided count); consumed
    /// anywhere else it collapses to the center decision and increments
    /// `undecided_branches`, exactly like the plain VM.
    CmpPend {
        /// The center-value decision (the plain VM's tie-break).
        center: bool,
        /// Comparison operator, for guard refinement.
        op: CmpOp,
        /// Left float register.
        a: u32,
        /// Right float register.
        b: u32,
    },
    /// Unknown integer (a widened loop counter).
    Top,
}

/// The abstract side of the shared loop: `Top` propagates through
/// arithmetic and aborts to concrete execution where a concrete value is
/// required; an undecided comparison stays pending until consumed; and
/// inside a loop-body pass a cast of a non-point hull or a runtime error
/// (which the hull may have invented) also aborts to concrete execution.
impl IntVal for AbsInt {
    type Err = FpAbort;

    fn known(v: i64) -> AbsInt {
        AbsInt::Known(v)
    }

    fn decided(self) -> Option<i64> {
        match self {
            AbsInt::Known(v) => Some(v),
            _ => None,
        }
    }

    /// `CmpPend` takes the center decision (counted undecided, then
    /// pinned so repeated reads agree); `Top` aborts to concrete
    /// execution.
    fn read(regs: &mut [AbsInt], r: u32, stats: &mut RunStats) -> Result<i64, FpAbort> {
        match regs[r as usize] {
            AbsInt::Known(v) => Ok(v),
            AbsInt::CmpPend { center, .. } => {
                stats.undecided_branches += 1;
                let v = i64::from(center);
                regs[r as usize] = AbsInt::Known(v);
                Ok(v)
            }
            AbsInt::Top => Err(FpAbort::NeedConcrete("widened integer consumed")),
        }
    }

    fn lift2(
        regs: &mut [AbsInt],
        a: u32,
        b: u32,
        stats: &mut RunStats,
        f: impl FnOnce(i64, i64) -> i64,
    ) -> Result<AbsInt, FpAbort> {
        if matches!(regs[a as usize], AbsInt::Top) || matches!(regs[b as usize], AbsInt::Top) {
            return Ok(AbsInt::Top);
        }
        let x = AbsInt::read(regs, a, stats)?;
        let y = AbsInt::read(regs, b, stats)?;
        Ok(AbsInt::Known(f(x, y)))
    }

    fn cmp_f<D: Domain>(op: CmpOp, a: u32, b: u32, x: &D, y: &D, _: &mut RunStats) -> AbsInt {
        match cmp_f_sound(op, x, y) {
            Some(v) => AbsInt::Known(i64::from(v)),
            None => AbsInt::CmpPend {
                center: op.eval(x.center(), y.center()),
                op,
                a,
                b,
            },
        }
    }

    fn cast_f<D: Domain>(x: &D, in_pass: bool) -> Result<AbsInt, FpAbort> {
        let (lo, hi) = x.range();
        if in_pass && !(lo == hi && lo.is_finite()) {
            // The plain VM truncates the center value; doing that to a
            // widened hull would silently fabricate an integer. Only
            // exact points are allowed in a pass.
            return Err(FpAbort::NeedConcrete("cast of widened float"));
        }
        Ok(AbsInt::Known(x.center() as i64))
    }

    fn fault(e: ExecError, in_pass: bool) -> FpAbort {
        if in_pass {
            FpAbort::NeedConcrete("possibly spurious runtime error")
        } else {
            FpAbort::Fail(e)
        }
    }
}

/// Abstract machine state: the plain VM's machine with abstract integers.
type MState<D> = Machine<D, AbsInt>;

/// Why the abstract engine gave up. `NeedConcrete` triggers one plain
/// concrete execution of the whole program; `Fail` is a genuine runtime
/// error that concrete execution would also report.
enum FpAbort {
    NeedConcrete(&'static str),
    Fail(ExecError),
}

/// Outcome of a whole solved loop, from the caller's perspective.
enum LoopOut {
    /// Continue at this pc (the machine state holds the exit state).
    Exit(usize),
    /// The loop body returned this register from the function (concrete
    /// attempt only).
    Ret(Option<u32>),
}

/// Outcome of one abstract body pass (phase B).
enum PassOut<D> {
    /// Reached the back edge; state at the bottom of the body.
    Back(MState<D>),
    /// The body path was decidedly or provably not taken again (no new
    /// back-edge state — the invariant is inductive as-is).
    Exited,
    /// A *decided* exit: every state in the invariant leaves the loop
    /// here. The state is the precise continuation.
    ExitedAt { pc: usize, state: MState<D> },
}

/// The interval hull invariant over the loop's written components.
#[derive(Clone, Debug, PartialEq)]
struct Inv {
    /// Hull per written float register (indexed by position in
    /// `Written::fregs`).
    f: Vec<(f64, f64)>,
    /// Flat-lattice value per written int register (`None` = Top).
    i: Vec<Option<i64>>,
    /// Hulls per element of each written array.
    a: Vec<Vec<(f64, f64)>>,
}

/// The registers and arrays written anywhere in a loop region.
struct Written {
    fregs: Vec<u32>,
    iregs: Vec<u32>,
    arrays: Vec<u32>,
}

fn written_sets(code: &[Instr], region: LoopRegion) -> Written {
    let nf = |v: &mut Vec<u32>, r: u32| {
        if !v.contains(&r) {
            v.push(r);
        }
    };
    let mut w = Written {
        fregs: Vec::new(),
        iregs: Vec::new(),
        arrays: Vec::new(),
    };
    for instr in &code[region.header..=region.back_jump] {
        match instr {
            Instr::Add(d, _, _)
            | Instr::Sub(d, _, _)
            | Instr::Mul(d, _, _)
            | Instr::Div(d, _, _)
            | Instr::Min(d, _, _)
            | Instr::Max(d, _, _)
            | Instr::Sqrt(d, _)
            | Instr::Abs(d, _)
            | Instr::Neg(d, _)
            | Instr::MovF(d, _)
            | Instr::ConstF(d, _)
            | Instr::CastIF(d, _)
            | Instr::LoadArr(d, _, _) => nf(&mut w.fregs, *d),
            Instr::StoreArr(arr, _, _) => nf(&mut w.arrays, *arr),
            Instr::ConstI(d, _)
            | Instr::AddI(d, _, _)
            | Instr::SubI(d, _, _)
            | Instr::MulI(d, _, _)
            | Instr::DivI(d, _, _)
            | Instr::MovI(d, _)
            | Instr::CastFI(d, _)
            | Instr::CmpI(_, d, _, _)
            | Instr::CmpF(_, d, _, _) => nf(&mut w.iregs, *d),
            Instr::Jump(_) | Instr::JumpIfZero(_, _) | Instr::Protect(_) => {}
            Instr::SetCapacity(_) | Instr::Ret(_) => {}
        }
    }
    w
}

/// NaN-endpoint hulls widen to the entire line (a poisoned value encloses
/// everything it could be).
fn clean_hull(lo: f64, hi: f64) -> (f64, f64) {
    if lo.is_nan() || hi.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

/// Smallest power of two ≥ `x` for positive `x` (0 for `x ≤ 0`, ∞ past
/// the representable range). Exact bit-level computation.
fn snap_up_pow2(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if !x.is_finite() {
        return f64::INFINITY;
    }
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let frac = bits & 0xf_ffff_ffff_ffff;
    if exp == 0 {
        return f64::MIN_POSITIVE; // subnormal → 2^-1022
    }
    if frac == 0 {
        return x;
    }
    if exp >= 0x7fe {
        return f64::INFINITY;
    }
    f64::from_bits((exp + 1) << 52)
}

/// Largest power of two ≤ `x` for positive `x` (0 for subnormals and
/// `x ≤ 0`).
fn snap_down_pow2(x: f64) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return if x == f64::INFINITY {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp == 0 {
        return 0.0;
    }
    f64::from_bits(exp << 52)
}

/// Snap a growing upper endpoint outward to the ladder.
fn ladder_hi(x: f64) -> f64 {
    if x >= 0.0 {
        snap_up_pow2(x)
    } else {
        -snap_down_pow2(-x)
    }
}

/// Snap a growing lower endpoint outward (downward) to the ladder.
fn ladder_lo(x: f64) -> f64 {
    -ladder_hi(-x)
}

/// Negate a comparison operator (the exit-path condition of a guard).
fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

/// Executes `prog` under domain `D` with fixpoint loop handling.
///
/// Equivalent to [`crate::exec()`] for loop-free programs and under
/// [`LoopMode::Unroll`] (it delegates). Otherwise loops run through the
/// attempt/iterate/narrow/collect pipeline described in the module docs,
/// and any unsupported shape falls back to one plain concrete execution —
/// the result is always sound, never silently approximate.
///
/// # Errors
///
/// Same conditions as [`crate::exec()`]: argument mismatch, out-of-bounds
/// access, division by zero, fuel exhaustion (a divergent loop under
/// `Unroll`, or after a concrete fallback).
pub(crate) fn exec_fixpoint<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
    mode: LoopMode,
    cfg: &FixpointConfig,
) -> Result<RunResult<D>, ExecError> {
    if matches!(mode, LoopMode::Unroll) {
        return exec_inner(prog, args, cx, &mut NoTrace);
    }
    let table = match loop_regions(&prog.code) {
        Ok(t) => t,
        Err(_) => return exec_inner(prog, args, cx, &mut NoTrace),
    };
    if !table.has_loops() || D::from_range(0.0, 1.0, cx).is_none() {
        return exec_inner(prog, args, cx, &mut NoTrace);
    }
    let mut engine = Engine {
        prog,
        cx,
        table: &table,
        cfg,
        stats: RunStats::default(),
    };
    match engine.run_program(args) {
        Ok(result) => {
            let tm = safegen_telemetry::metrics::metrics();
            tm.loops.iterations.add(result.stats.fixpoint_iters);
            tm.loops.widenings.add(result.stats.widenings);
            tm.loops.narrowings.add(result.stats.narrowings);
            Ok(result)
        }
        Err(FpAbort::Fail(e)) => Err(e),
        Err(FpAbort::NeedConcrete(_reason)) => {
            safegen_telemetry::metrics::metrics().loops.bailouts.inc();
            exec_inner(prog, args, cx, &mut NoTrace)
        }
    }
}

struct Engine<'p, D: Domain> {
    prog: &'p Program,
    cx: &'p D::Ctx,
    table: &'p LoopTable,
    cfg: &'p FixpointConfig,
    stats: RunStats,
}

impl<D: Domain> Engine<'_, D> {
    fn hull_value(&self, lo: f64, hi: f64) -> Result<D, FpAbort> {
        D::from_range(lo, hi, self.cx)
            .ok_or(FpAbort::NeedConcrete("domain cannot materialize ranges"))
    }

    /// Whole-program driver: binds parameters like the plain VM, then
    /// runs top to bottom, pausing at every loop header to hand the loop
    /// to [`Engine::solve`].
    fn run_program(&mut self, args: &[ArgValue]) -> Result<RunResult<D>, FpAbort> {
        let (prog, cx) = (self.prog, self.cx);
        let (mut m, entry) = MState::start(prog, args, cx, &mut NoTrace).map_err(FpAbort::Fail)?;
        let mut pc = 0usize;
        let ret = loop {
            if pc >= prog.code.len() {
                break None;
            }
            if let Some(region) = self.table.region_with_header(pc) {
                match self.solve(&mut m, region)? {
                    LoopOut::Exit(p) => {
                        pc = p;
                        continue;
                    }
                    LoopOut::Ret(r) => break r,
                }
            }
            let table = self.table;
            let at_header = |_, to| table.region_with_header(to).is_some();
            match m.run(
                prog,
                cx,
                &mut pc,
                &mut self.stats,
                false,
                &mut NoTrace,
                at_header,
            )? {
                Stop::Pause => {}
                Stop::Ret(r) => break r,
                Stop::Branch { reg, target } => {
                    // An undecided branch outside any loop: the plain VM's
                    // center decision, counted undecided.
                    pc = if AbsInt::read(&mut m.iregs, reg, &mut self.stats)? == 0 {
                        target
                    } else {
                        pc + 1
                    };
                }
            }
        };
        Ok(m.finish(prog, cx, ret, self.stats, entry))
    }

    /// Phase A: run the loop concretely for up to `attempt_budget`
    /// back-edge traversals. Any abstract obstacle (a data-dependent
    /// guard, a widened integer) aborts with `None` — the caller restores
    /// the entry state and falls through to the abstract solver.
    fn attempt(
        &mut self,
        m: &mut MState<D>,
        region: LoopRegion,
    ) -> Result<Option<LoopOut>, FpAbort> {
        let mut pc = region.header;
        let mut traversals: u64 = 0;
        loop {
            if !region.contains(pc) {
                return Ok(Some(LoopOut::Exit(pc)));
            }
            let back_or_out = |_, to| to == region.header || !region.contains(to);
            match m.run(
                self.prog,
                self.cx,
                &mut pc,
                &mut self.stats,
                false,
                &mut NoTrace,
                back_or_out,
            ) {
                Ok(Stop::Pause) => {
                    if pc == region.header {
                        traversals += 1;
                        if traversals > self.cfg.attempt_budget {
                            return Ok(None);
                        }
                    }
                }
                Ok(Stop::Ret(r)) => return Ok(Some(LoopOut::Ret(r))),
                Ok(Stop::Branch { .. }) | Err(FpAbort::NeedConcrete(_)) => return Ok(None),
                Err(FpAbort::Fail(e)) => return Err(FpAbort::Fail(e)),
            }
        }
    }

    /// Solves one loop: attempt, iterate-and-widen, narrow, collect (the
    /// pipeline of the module docs). On success the machine state holds
    /// the loop's exit state and the returned pc continues after it.
    fn solve(&mut self, m: &mut MState<D>, region: LoopRegion) -> Result<LoopOut, FpAbort> {
        let stats_at_entry = self.stats;
        let snapshot = m.clone();
        if let Some(out) = self.attempt(m, region)? {
            safegen_telemetry::metrics::metrics().loops.unrolled.inc();
            return Ok(out);
        }
        self.stats = stats_at_entry;
        *m = snapshot.clone();

        let written = written_sets(&self.prog.code, region);
        let entry = self.hulls_of(&snapshot, &written);
        let mut inv = entry.clone();

        // Phase B: iterate until the invariant is inductive, widening on
        // the configured schedule so divergent loops terminate.
        let mut round: u32 = 0;
        loop {
            round += 1;
            self.stats.fixpoint_iters += 1;
            if round > self.cfg.max_iters {
                return Err(FpAbort::NeedConcrete("loop did not stabilize"));
            }
            let start = self.materialize(&snapshot, &inv, &written)?;
            match self.pass(start, region, None)? {
                PassOut::Back(s) => {
                    let next = self.hulls_of(&s, &written);
                    if next.contained_in(&inv) {
                        break;
                    }
                    self.stats.widenings += inv.join_widen(&next, round, self.cfg);
                }
                PassOut::Exited | PassOut::ExitedAt { .. } => break,
            }
        }

        // Narrowing: each candidate `entry ⊔ F(inv)` is re-verified
        // (`entry ⊔ F(cand) ⊑ cand`) before acceptance, so precision
        // recovery never assumes monotonic transfer functions.
        for _ in 0..self.cfg.narrow_passes {
            let start = self.materialize(&snapshot, &inv, &written)?;
            let body = match self.pass(start, region, None)? {
                PassOut::Back(s) => Some(self.hulls_of(&s, &written)),
                PassOut::Exited | PassOut::ExitedAt { .. } => None,
            };
            let mut cand = entry.clone();
            if let Some(b) = &body {
                cand.join_plain(b);
            }
            if !(cand.contained_in(&inv) && cand != inv) {
                break;
            }
            let vstart = self.materialize(&snapshot, &cand, &written)?;
            let vbody = match self.pass(vstart, region, None)? {
                PassOut::Back(s) => Some(self.hulls_of(&s, &written)),
                PassOut::Exited | PassOut::ExitedAt { .. } => None,
            };
            let mut check = entry.clone();
            if let Some(b) = &vbody {
                check.join_plain(b);
            }
            if check.contained_in(&cand) {
                inv = cand;
                self.stats.narrowings += 1;
            } else {
                break;
            }
        }

        // Collect: one pass over the final invariant accumulating the
        // exit states (invariant refined by the negated guard).
        let start = self.materialize(&snapshot, &inv, &written)?;
        let mut acc: Option<(usize, MState<D>)> = None;
        match self.pass(start, region, Some(&mut acc))? {
            PassOut::ExitedAt { pc, state } => self.join_exit_into(&mut acc, pc, state)?,
            PassOut::Back(_) | PassOut::Exited => {}
        }
        self.stats.fixpoint_loops += 1;
        safegen_telemetry::metrics::metrics().loops.solves.inc();
        match acc {
            Some((pc, state)) => {
                *m = state;
                Ok(LoopOut::Exit(pc))
            }
            None => {
                // No feasible exit under the invariant: the loop provably
                // never terminates on any execution it encloses. Continue
                // soundly (vacuous truth) at the loop's static exit with
                // the invariant as the machine state.
                let target = self
                    .static_exit_target(region)
                    .ok_or(FpAbort::NeedConcrete("loop with no exit edge"))?;
                *m = self.materialize(&snapshot, &inv, &written)?;
                Ok(LoopOut::Exit(target))
            }
        }
    }

    /// One abstract pass over the loop body, from the header to the back
    /// edge. Loop-exit guards split soundly: in `collect` mode the exit
    /// path (refined by the negated guard) is accumulated, and the body
    /// path (refined by the guard) continues; either side found
    /// infeasible is dropped. Inner loops are solved recursively.
    fn pass(
        &mut self,
        mut m: MState<D>,
        region: LoopRegion,
        mut collect: Option<&mut Option<(usize, MState<D>)>>,
    ) -> Result<PassOut<D>, FpAbort> {
        let mut pc = region.header;
        let mut fuel = self.cfg.pass_fuel;
        loop {
            if !region.contains(pc) {
                return Ok(PassOut::ExitedAt { pc, state: m });
            }
            if pc != region.header {
                if let Some(inner) = self.table.region_with_header(pc) {
                    match self.solve(&mut m, inner)? {
                        LoopOut::Exit(p) => {
                            pc = p;
                            continue;
                        }
                        LoopOut::Ret(_) => {
                            return Err(FpAbort::NeedConcrete("return inside abstract loop"));
                        }
                    }
                }
            }
            if fuel == 0 {
                return Err(FpAbort::NeedConcrete("abstract pass fuel exhausted"));
            }
            // Control comes back at the back edge, on leaving the body, at
            // an inner loop header, after any backward jump, and when the
            // pass fuel (one unit per executed instruction) runs out.
            let table = self.table;
            let mut backward = false;
            let pause = |from, to| {
                fuel -= 1;
                backward = to < from;
                fuel == 0
                    || to == region.header
                    || !region.contains(to)
                    || backward
                    || table.region_with_header(to).is_some()
            };
            match m.run(
                self.prog,
                self.cx,
                &mut pc,
                &mut self.stats,
                true,
                &mut NoTrace,
                pause,
            )? {
                Stop::Pause => {
                    if pc == region.header {
                        return Ok(PassOut::Back(m));
                    }
                    if backward && table.region_with_header(pc).is_none() {
                        // A decided backward jump that is neither our back
                        // edge nor an inner loop header (defensive; the
                        // structured front end never emits this).
                        return Err(FpAbort::NeedConcrete("unstructured backward jump"));
                    }
                }
                Stop::Ret(_) => {
                    return Err(FpAbort::NeedConcrete("return inside abstract loop"));
                }
                Stop::Branch { reg, target } => {
                    fuel -= 1; // the branch ran without reaching `pause`
                    let jump_exits = !region.contains(target);
                    let fall_exits = pc == region.back_jump;
                    if !jump_exits && !fall_exits {
                        // Undecided branch fully inside the body: the
                        // plain VM's center decision, counted undecided.
                        if AbsInt::read(&mut m.iregs, reg, &mut self.stats)? == 0 {
                            pc = target;
                        } else {
                            pc += 1;
                        }
                        continue;
                    }
                    if jump_exits && fall_exits {
                        return Err(FpAbort::NeedConcrete("branch exits both ways"));
                    }
                    // A loop-exit guard: split both paths soundly. The
                    // exit is taken on zero iff the jump is the exit edge.
                    let guard = m.iregs[reg as usize];
                    let (exit_pc, exit_on_zero) = if jump_exits {
                        (target, true)
                    } else {
                        (pc + 1, false)
                    };
                    if let Some(acc) = collect.as_deref_mut() {
                        let mut ex = m.clone();
                        let feasible = match guard {
                            AbsInt::CmpPend { op, a, b, .. } => {
                                self.refine_guard(&mut ex, op, a, b, !exit_on_zero)?
                            }
                            _ => true,
                        };
                        if feasible {
                            ex.iregs[reg as usize] = if exit_on_zero {
                                AbsInt::Known(0)
                            } else {
                                guard_nonzero(guard)
                            };
                            self.join_exit_into(acc, exit_pc, ex)?;
                        }
                    }
                    let body_on_zero = !exit_on_zero;
                    let feasible = match guard {
                        AbsInt::CmpPend { op, a, b, .. } => {
                            self.refine_guard(&mut m, op, a, b, !body_on_zero)?
                        }
                        _ => true,
                    };
                    if !feasible {
                        return Ok(PassOut::Exited);
                    }
                    m.iregs[reg as usize] = if body_on_zero {
                        AbsInt::Known(0)
                    } else {
                        guard_nonzero(guard)
                    };
                    if body_on_zero {
                        if target == region.header {
                            return Ok(PassOut::Back(m));
                        }
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Meets the ranges of the guard's float operands with the bounds the
    /// comparison (at the given truth value) implies, rebuilding refined
    /// registers through [`Domain::from_range`]. Returns `false` when the
    /// refined path is infeasible (empty meet).
    fn refine_guard(
        &mut self,
        m: &mut MState<D>,
        op: CmpOp,
        a: u32,
        b: u32,
        truth: bool,
    ) -> Result<bool, FpAbort> {
        let eff = if truth { op } else { negate(op) };
        let (alo, ahi) = m.fregs[a as usize].range();
        let (blo, bhi) = m.fregs[b as usize].range();
        if alo.is_nan() || ahi.is_nan() || blo.is_nan() || bhi.is_nan() {
            // A poisoned operand: no refinement, but the path stays
            // feasible (NaN compares are unordered).
            return Ok(true);
        }
        let (mut na, mut nb) = ((alo, ahi), (blo, bhi));
        match eff {
            CmpOp::Lt => {
                na.1 = ahi.min(bhi.next_down());
                nb.0 = blo.max(alo.next_up());
            }
            CmpOp::Le => {
                na.1 = ahi.min(bhi);
                nb.0 = blo.max(alo);
            }
            CmpOp::Gt => {
                na.0 = alo.max(blo.next_up());
                nb.1 = bhi.min(ahi.next_down());
            }
            CmpOp::Ge => {
                na.0 = alo.max(blo);
                nb.1 = bhi.min(ahi);
            }
            CmpOp::Eq => {
                let lo = alo.max(blo);
                let hi = ahi.min(bhi);
                na = (lo, hi);
                nb = (lo, hi);
            }
            CmpOp::Ne => {}
        }
        if na.0 > na.1 || nb.0 > nb.1 {
            return Ok(false);
        }
        if na != (alo, ahi) {
            m.fregs[a as usize] = self.hull_value(na.0, na.1)?;
        }
        if nb != (blo, bhi) {
            m.fregs[b as usize] = self.hull_value(nb.0, nb.1)?;
        }
        Ok(true)
    }

    /// Accumulates one exit state. All exits of a loop must share a
    /// single static continuation pc (true for structured `while`/`for`);
    /// anything else bails to concrete execution.
    fn join_exit_into(
        &mut self,
        acc: &mut Option<(usize, MState<D>)>,
        pc: usize,
        state: MState<D>,
    ) -> Result<(), FpAbort> {
        match acc {
            None => {
                *acc = Some((pc, state));
                Ok(())
            }
            Some((p, s)) => {
                if *p != pc {
                    return Err(FpAbort::NeedConcrete("multiple loop exit targets"));
                }
                *s = self.join_states(s, &state)?;
                Ok(())
            }
        }
    }

    /// Pointwise join of two machine states. Every float slot is rebuilt
    /// from the union hull via [`Domain::from_range`] — keeping one
    /// path's correlated affine form at a join would misrepresent the
    /// other path's executions.
    fn join_states(&self, a: &MState<D>, b: &MState<D>) -> Result<MState<D>, FpAbort> {
        let mut out = a.clone();
        for (i, slot) in out.fregs.iter_mut().enumerate() {
            let (alo, ahi) = hull_of(&a.fregs[i]);
            let (blo, bhi) = hull_of(&b.fregs[i]);
            *slot = self.hull_value(alo.min(blo), ahi.max(bhi))?;
        }
        for (i, slot) in out.iregs.iter_mut().enumerate() {
            *slot = match (a.iregs[i], b.iregs[i]) {
                (AbsInt::Known(x), AbsInt::Known(y)) if x == y => AbsInt::Known(x),
                _ => AbsInt::Top,
            };
        }
        for (ai, arr) in out.arrays.iter_mut().enumerate() {
            for (i, slot) in arr.iter_mut().enumerate() {
                let (alo, ahi) = hull_of(&a.arrays[ai][i]);
                let (blo, bhi) = hull_of(&b.arrays[ai][i]);
                *slot = self.hull_value(alo.min(blo), ahi.max(bhi))?;
            }
        }
        out.protect = Vec::new();
        out.pending_protect = false;
        out.pending_capacity = false;
        Ok(out)
    }

    /// Reads the invariant's hulls out of a machine state (the written
    /// components only).
    fn hulls_of(&self, m: &MState<D>, w: &Written) -> Inv {
        Inv {
            f: w.fregs
                .iter()
                .map(|&r| hull_of(&m.fregs[r as usize]))
                .collect(),
            i: w.iregs
                .iter()
                .map(|&r| match m.iregs[r as usize] {
                    AbsInt::Known(v) => Some(v),
                    _ => None,
                })
                .collect(),
            a: w.arrays
                .iter()
                .map(|&ai| m.arrays[ai as usize].iter().map(hull_of).collect())
                .collect(),
        }
    }

    /// Builds the abstract state at the loop header: the entry snapshot
    /// with every written component replaced by its invariant hull
    /// (unwritten registers keep their correlated entry forms).
    fn materialize(
        &self,
        snapshot: &MState<D>,
        inv: &Inv,
        w: &Written,
    ) -> Result<MState<D>, FpAbort> {
        let mut m = snapshot.clone();
        m.protect = Vec::new();
        m.pending_protect = false;
        m.pending_capacity = false;
        for (k, &r) in w.fregs.iter().enumerate() {
            let (lo, hi) = inv.f[k];
            m.fregs[r as usize] = self.hull_value(lo, hi)?;
        }
        for (k, &r) in w.iregs.iter().enumerate() {
            m.iregs[r as usize] = match inv.i[k] {
                Some(v) => AbsInt::Known(v),
                None => AbsInt::Top,
            };
        }
        for (k, &ai) in w.arrays.iter().enumerate() {
            for (j, slot) in m.arrays[ai as usize].iter_mut().enumerate() {
                let (lo, hi) = inv.a[k][j];
                *slot = self.hull_value(lo, hi)?;
            }
        }
        Ok(m)
    }

    /// The unique pc execution continues at after the loop, from the
    /// static jump structure alone (for the vacuous exit of a loop that
    /// provably never terminates). `None` when the loop has no exit edge
    /// or several distinct ones.
    fn static_exit_target(&self, region: LoopRegion) -> Option<usize> {
        let mut outs: Vec<usize> = Vec::new();
        for pc in region.header..=region.back_jump {
            if let Instr::Jump(t) | Instr::JumpIfZero(_, t) = &self.prog.code[pc] {
                let t = *t;
                if !region.contains(t) && !outs.contains(&t) {
                    outs.push(t);
                }
            }
        }
        if matches!(self.prog.code[region.back_jump], Instr::JumpIfZero(_, _)) {
            let t = region.back_jump + 1;
            if !outs.contains(&t) {
                outs.push(t);
            }
        }
        match outs[..] {
            [t] => Some(t),
            _ => None,
        }
    }
}

/// The interval hull of a domain value, NaN-cleaned.
fn hull_of<D: Domain>(d: &D) -> (f64, f64) {
    let (lo, hi) = d.range();
    clean_hull(lo, hi)
}

/// A consumed loop-exit guard on the nonzero path: a pending comparison
/// is pinned to 1; `Top` stays `Top` (we learn nothing new).
fn guard_nonzero(g: AbsInt) -> AbsInt {
    match g {
        AbsInt::CmpPend { .. } => AbsInt::Known(1),
        other => other,
    }
}

/// Widens one hull toward `next` on the round schedule: plain join while
/// `round ≤ widen_delay`, power-of-two threshold ladder for the next
/// `threshold_rounds`, then ±∞. Returns 1 when a widening (not a plain
/// join) was applied.
fn widen_hull(cur: &mut (f64, f64), next: (f64, f64), round: u32, cfg: &FixpointConfig) -> u64 {
    let grew_lo = next.0 < cur.0;
    let grew_hi = next.1 > cur.1;
    if !grew_lo && !grew_hi {
        return 0;
    }
    if round <= cfg.widen_delay {
        cur.0 = cur.0.min(next.0);
        cur.1 = cur.1.max(next.1);
        return 0;
    }
    if round <= cfg.widen_delay + cfg.threshold_rounds {
        if grew_lo {
            cur.0 = ladder_lo(next.0);
        }
        if grew_hi {
            cur.1 = ladder_hi(next.1);
        }
        return 1;
    }
    if grew_lo {
        cur.0 = f64::NEG_INFINITY;
    }
    if grew_hi {
        cur.1 = f64::INFINITY;
    }
    1
}

impl Inv {
    /// `self ⊑ other`, pointwise.
    fn contained_in(&self, other: &Inv) -> bool {
        let hull_ok = |a: &(f64, f64), b: &(f64, f64)| b.0 <= a.0 && a.1 <= b.1;
        self.f.iter().zip(&other.f).all(|(a, b)| hull_ok(a, b))
            && self.i.iter().zip(&other.i).all(|(a, b)| match (a, b) {
                (_, None) => true,
                (Some(x), Some(y)) => x == y,
                (None, Some(_)) => false,
            })
            && self
                .a
                .iter()
                .zip(&other.a)
                .all(|(xs, ys)| xs.iter().zip(ys).all(|(a, b)| hull_ok(a, b)))
    }

    /// Pointwise join (no widening) — the narrowing candidate builder.
    fn join_plain(&mut self, other: &Inv) {
        for (a, b) in self.f.iter_mut().zip(&other.f) {
            a.0 = a.0.min(b.0);
            a.1 = a.1.max(b.1);
        }
        for (a, b) in self.i.iter_mut().zip(&other.i) {
            if *a != *b {
                *a = None;
            }
        }
        for (xs, ys) in self.a.iter_mut().zip(&other.a) {
            for (a, b) in xs.iter_mut().zip(ys) {
                a.0 = a.0.min(b.0);
                a.1 = a.1.max(b.1);
            }
        }
    }

    /// Join-with-widening on the round schedule. Returns the number of
    /// hulls that were widened (beyond a plain join).
    fn join_widen(&mut self, next: &Inv, round: u32, cfg: &FixpointConfig) -> u64 {
        let mut count = 0u64;
        for (a, b) in self.f.iter_mut().zip(&next.f) {
            count += widen_hull(a, *b, round, cfg);
        }
        for (a, b) in self.i.iter_mut().zip(&next.i) {
            if *a != *b {
                *a = None;
            }
        }
        for (xs, ys) in self.a.iter_mut().zip(&next.a) {
            for (a, b) in xs.iter_mut().zip(ys) {
                count += widen_hull(a, *b, round, cfg);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::UnsoundF64;
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

    fn fix_cfg(budget: u64) -> FixpointConfig {
        FixpointConfig {
            attempt_budget: budget,
            ..FixpointConfig::default()
        }
    }

    #[test]
    fn ladder_snaps_outward() {
        assert_eq!(snap_up_pow2(0.9), 1.0);
        assert_eq!(snap_up_pow2(1.0), 1.0);
        assert_eq!(snap_up_pow2(1.5), 2.0);
        assert_eq!(snap_down_pow2(0.9), 0.5);
        assert_eq!(snap_up_pow2(f64::MIN_POSITIVE / 2.0), f64::MIN_POSITIVE);
        assert_eq!(snap_up_pow2(f64::MAX), f64::INFINITY);
        // hi endpoints move up, lo endpoints move down, on both signs
        assert!(ladder_hi(3.7) >= 3.7);
        assert!(ladder_hi(-0.3) >= -0.3);
        assert!(ladder_lo(-3.7) <= -3.7);
        assert!(ladder_lo(0.3) <= 0.3);
        assert_eq!(ladder_lo(0.3), 0.25);
        assert_eq!(ladder_hi(-0.3), -0.25);
    }

    #[test]
    fn small_bounded_loop_stays_exact() {
        // Trip count 5 fits the attempt budget: bit-identical to the
        // plain unrolling VM.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = x * 0.5; i = i + 1; }
                return x;
            }",
        );
        let cfg = fix_cfg(16);
        let args = [8.0.into(), 5i64.into()];
        let fx: RunResult<UnsoundF64> =
            exec_fixpoint(&p, &args, &(), LoopMode::Fixpoint, &cfg).unwrap();
        let plain: RunResult<UnsoundF64> = crate::exec(&p, &args, &()).unwrap();
        assert_eq!(fx.ret.unwrap().0, plain.ret.unwrap().0);
        assert_eq!(fx.stats.fixpoint_loops, 0);
    }

    #[test]
    fn over_budget_counted_loop_gets_sound_enclosure() {
        // 2^40 iterations of x = 0.9*x + 1 from 1: every concrete value
        // stays in [1, 10); the solver must find a finite-ish enclosure
        // containing all partial sums without running 2^40 steps.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = 0.9 * x + 1.0; i = i + 1; }
                return x;
            }",
        );
        let cfg = fix_cfg(8);
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into(), n.into()], &(), LoopMode::Fixpoint, &cfg).unwrap();
        let iv = r.ret.unwrap();
        assert!(
            r.stats.fixpoint_loops >= 1,
            "loop must be solved abstractly"
        );
        // Sound: contains the limit 10 and every iterate (all in [1, 10)).
        assert!(iv.lo() <= 1.0 && iv.hi() >= 10.0 - 1e-6, "got {iv:?}");
        // Useful: threshold widening keeps it finite and not absurd.
        assert!(iv.hi() <= 64.0, "enclosure uselessly wide: {iv:?}");
        assert!(iv.lo() >= 0.0, "lower bound should not dive: {iv:?}");
    }

    #[test]
    fn float_guard_contraction_converges() {
        // Data-dependent float guard: x halves until it drops below 1.
        // Unrolling cannot decide the guard soundly (enclosures overlap
        // at the boundary); the fixpoint result must contain the exact
        // exit value 0.5..1 band.
        let p = compile(
            "double f(double x) {
                while (x > 1.0) { x = x * 0.5; }
                return x;
            }",
        );
        let cfg = fix_cfg(0); // force the abstract solver
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[8.0.into()], &(), LoopMode::Fixpoint, &cfg).unwrap();
        let iv = r.ret.unwrap();
        assert!(r.stats.fixpoint_loops >= 1);
        // Exact execution exits with 0.5; the exit refinement bounds the
        // result by the negated guard (x <= 1).
        assert!(iv.lo() <= 0.5 && iv.hi() >= 0.5, "got {iv:?}");
        assert!(iv.hi() <= 1.0 + 1e-12, "exit guard not applied: {iv:?}");
    }

    #[test]
    fn divergent_loop_terminates_with_sound_infinity() {
        // x doubles forever: unrolling spins until fuel death; the
        // fixpoint engine must terminate and report a sound enclosure
        // reaching +inf.
        let p = compile(
            "double f(double x) {
                while (x > 0.0) { x = x * 2.0; }
                return x;
            }",
        );
        let cfg = fix_cfg(4);
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into()], &(), LoopMode::Fixpoint, &cfg).unwrap();
        let iv = r.ret.unwrap();
        assert!(r.stats.fixpoint_loops >= 1);
        assert!(r.stats.widenings >= 1, "divergence must widen");
        assert_eq!(iv.hi(), f64::INFINITY, "got {iv:?}");
    }

    #[test]
    fn affine_domain_solves_loops_too() {
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = 0.9 * x + 1.0; i = i + 1; }
                return x;
            }",
        );
        let ctx = AaContext::new(AaConfig::default());
        let cfg = fix_cfg(8);
        let n: i64 = 1 << 40;
        let r: RunResult<AffineF64> =
            exec_fixpoint(&p, &[1.0.into(), n.into()], &ctx, LoopMode::Fixpoint, &cfg).unwrap();
        let (lo, hi) = r.ret.unwrap().range();
        assert!(r.stats.fixpoint_loops >= 1);
        assert!(lo <= 1.0 && hi >= 10.0 - 1e-6, "got [{lo}, {hi}]");
        assert!(hi.is_finite(), "affine enclosure should stay finite");
    }

    #[test]
    fn unroll_mode_is_bit_identical_to_plain_exec() {
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = x + 0.1; i = i + 1; }
                return x;
            }",
        );
        let args = [0.0.into(), 100i64.into()];
        let cfg = FixpointConfig::default();
        let fx: RunResult<IntervalF64> =
            exec_fixpoint(&p, &args, &(), LoopMode::Unroll, &cfg).unwrap();
        let plain: RunResult<IntervalF64> = crate::exec(&p, &args, &()).unwrap();
        assert_eq!(fx.ret.unwrap(), plain.ret.unwrap());
        assert_eq!(fx.stats, plain.stats);
    }

    #[test]
    fn loop_free_program_is_unaffected_by_mode() {
        let p = compile("double f(double a, double b) { return a * b + 0.1; }");
        let cfg = FixpointConfig::default();
        let fx: RunResult<IntervalF64> = exec_fixpoint(
            &p,
            &[0.5.into(), 0.25.into()],
            &(),
            LoopMode::Fixpoint,
            &cfg,
        )
        .unwrap();
        let plain: RunResult<IntervalF64> =
            crate::exec(&p, &[0.5.into(), 0.25.into()], &()).unwrap();
        assert_eq!(fx.ret.unwrap(), plain.ret.unwrap());
    }

    #[test]
    fn nested_loops_solve() {
        // Outer loop over-budget, inner loop small and concrete per pass.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) {
                    int j = 0;
                    while (j < 3) { x = 0.5 * x; j = j + 1; }
                    x = x + 1.0;
                    i = i + 1;
                }
                return x;
            }",
        );
        let cfg = fix_cfg(4);
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into(), n.into()], &(), LoopMode::Fixpoint, &cfg).unwrap();
        let iv = r.ret.unwrap();
        // Iterates stay within [0, 2]: x -> x/8 + 1 has fixpoint 8/7.
        assert!(
            iv.lo() <= 1.0 / 8.0 + 1.0 && iv.hi() >= 8.0 / 7.0 - 1e-6,
            "got {iv:?}"
        );
        assert!(iv.hi() <= 16.0, "uselessly wide: {iv:?}");
    }

    #[test]
    fn array_accumulation_loop_is_enclosed() {
        let p = compile(
            "double f(double a[4], int n) {
                double s = 0.0;
                int i = 0;
                while (i < n) { s = s + a[0] * 0.25; i = i + 1; }
                return s;
            }",
        );
        let cfg = fix_cfg(4);
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> = exec_fixpoint(
            &p,
            &[vec![1.0, 2.0, 3.0, 4.0].into(), n.into()],
            &(),
            LoopMode::Fixpoint,
            &cfg,
        )
        .unwrap();
        let iv = r.ret.unwrap();
        // Diverges (adds 0.25 forever): must be sound, reaching +inf.
        assert!(iv.lo() <= 0.0 && iv.hi() == f64::INFINITY, "got {iv:?}");
    }
}
