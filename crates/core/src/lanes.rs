//! The lane-major (structure-of-arrays) interpreter.
//!
//! [`exec_lanes`] evaluates one program on **N input points at once**:
//! register files become columns (`fregs[reg * W + lane]`), and every
//! instruction dispatch applies its operation across all live lanes
//! before the next dispatch. This amortizes the interpreter's per-
//! instruction overhead (decode, branch, bookkeeping) over the whole
//! lane group — the win is largest for the cheap domains (unsound
//! `f64`, the IGen intervals), where dispatch dominates the actual
//! arithmetic; the affine domains still profit because each lane's O(k)
//! kernel (including `safegen-affine::vector`'s 4-wide blocked SIMD
//! path) runs back to back on hot caches.
//!
//! ## Bit-identical to the scalar interpreter
//!
//! Lanes are fully independent: each has its own registers, arrays,
//! domain context, protect set and statistics, and the per-lane
//! sequence of domain operations is exactly the scalar interpreter's
//! sequence for that input. Divergent branches split the lane group
//! (the subgroup that jumps is parked and resumed later); since no
//! state is shared between lanes, the scheduling of groups cannot
//! influence any lane's result. The differential test
//! `tests/lanes_differential.rs` and the fuzzer's serial-vs-batch check
//! pin this: every run configuration, every lane width, bit-identical
//! enclosures and statistics.
//!
//! ## Fuel, errors, divergence
//!
//! * A lane that fails (argument mismatch, out-of-bounds access,
//!   division by zero, fuel) gets the scalar path's exact error; the
//!   other lanes continue unaffected. The column loop is this engine's
//!   own, but each lane is bound by the scalar binder, and the loop
//!   shares the scalar error constructors and float-comparison decision
//!   (`crate::exec`), so the two cannot drift apart on what a failure or
//!   an undecided compare is.
//! * Instruction/fp-op counters are kept per *group*: every lane in a
//!   group has executed the identical instruction path, so the counts
//!   are equal by construction and are materialized per lane when the
//!   lane retires.
//! * Programs whose unsized (pointer) array parameters receive
//!   different lengths on different lanes fall back to per-lane scalar
//!   execution — the columns would be ragged — which is bit-identical
//!   by definition.

use crate::domain::{Domain, FpBinOp, FpUnOp};
use crate::exec::{
    array_index, cmp_f_decide, div_by_zero, fuel_exhausted, ArgValue, ExecError, Machine, NoTrace,
    RunResult, RunStats, FUEL,
};
use crate::program::{FixedProgram, OpCode, ParamBinding, Program};
use safegen_telemetry::metrics::metrics;

/// Per-dispatch metric tallies. The interpreter accumulates these in
/// plain locals while it runs and [`LaneTally::flush`]es them to the
/// global registry **once per `exec_lanes` call**, so the dispatch loop
/// itself carries no atomics (DESIGN.md §11 hot-path discipline).
#[derive(Default)]
struct LaneTally {
    splits: u64,
    parks: u64,
    remerges: u64,
    superinstr_hits: u64,
    kernel_dispatches: u64,
    scalar_dispatches: u64,
}

impl LaneTally {
    fn flush(&self, lanes: usize) {
        let m = metrics();
        m.lanes.dispatches.inc();
        m.lanes.lanes_dispatched.add(lanes as u64);
        m.lanes.group_splits.add(self.splits);
        m.lanes.parks.add(self.parks);
        m.lanes.remerges.add(self.remerges);
        m.lanes.superinstr_hits.add(self.superinstr_hits);
        m.lanes.kernel_dispatches.add(self.kernel_dispatches);
        m.lanes.scalar_dispatches.add(self.scalar_dispatches);
    }
}

/// Maximum lane count per [`exec_lanes`] call (lane masks are `u64`).
pub const MAX_LANES: usize = 64;

/// Iterates the set bit positions of a lane mask, lowest first.
#[derive(Clone, Copy)]
struct MaskIter(u64);

impl Iterator for MaskIter {
    type Item = usize;
    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// One contiguous execution front: a set of lanes at the same `pc` with
/// the same pending pragma state. Lanes in a group need *not* share
/// their full execution history — divergent subgroups re-merge when
/// they meet at the same `pc` again (see the scheduler below) — so the
/// `instrs`/`fp_ops` counters are *deltas since the group was formed*;
/// each lane's totals live in the per-lane accumulators and are flushed
/// on merge and retire.
struct Group {
    pc: usize,
    mask: u64,
    /// Instructions executed by this group since it was formed.
    instrs: u64,
    /// FP operations executed by this group since it was formed.
    fp_ops: u64,
    /// `max(acc_instrs[l])` over the member lanes at formation time —
    /// `acc_max + instrs` bounds every member's instruction count, so
    /// the per-instruction fuel check stays one comparison.
    acc_max: u64,
    pending_protect: bool,
    pending_capacity: bool,
}

/// A retired lane: returned value plus its final counter totals.
struct LaneDone<D> {
    ret: Option<D>,
    instrs: u64,
    fp_ops: u64,
}

/// Runs `f` once per lane in `mask`; a full mask takes the plain
/// `0..w` loop (no bit scanning, LLVM-unrollable).
#[inline(always)]
fn for_lanes(mask: u64, full: u64, w: usize, mut f: impl FnMut(usize)) {
    if mask == full {
        for l in 0..w {
            f(l);
        }
    } else {
        for l in MaskIter(mask) {
            f(l);
        }
    }
}

/// Applies a binary operation column-wise: `regs[d][l] = f(regs[a][l],
/// regs[b][l], l)` for every lane in `mask`. When the mask is full the
/// columns are split into disjoint slices so the lane loop is a plain
/// contiguous zip (bounds checks elided, auto-vectorizable for `Copy`
/// domains); aliased destinations take the in-place variants.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bin_cols<D: Clone>(
    regs: &mut [D],
    w: usize,
    d: usize,
    a: usize,
    b: usize,
    mask: u64,
    full: u64,
    mut f: impl FnMut(&D, &D, usize) -> D,
) {
    let (ds, as_, bs) = (d * w, a * w, b * w);
    if mask == full {
        if d != a && d != b && a != b {
            let [dc, ac, bc] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w, bs..bs + w])
                .expect("distinct register columns are disjoint");
            for (l, (x, (ya, yb))) in dc.iter_mut().zip(ac.iter().zip(bc.iter())).enumerate() {
                *x = f(ya, yb, l);
            }
        } else if d != a && d != b {
            // a == b: square-style op.
            let [dc, ac] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w])
                .expect("distinct register columns are disjoint");
            for (l, (x, y)) in dc.iter_mut().zip(ac.iter()).enumerate() {
                *x = f(y, y, l);
            }
        } else if d == a && d != b {
            let [dc, bc] = regs
                .get_disjoint_mut([ds..ds + w, bs..bs + w])
                .expect("distinct register columns are disjoint");
            for (l, (x, y)) in dc.iter_mut().zip(bc.iter()).enumerate() {
                let v = f(x, y, l);
                *x = v;
            }
        } else if d == b && d != a {
            let [dc, ac] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w])
                .expect("distinct register columns are disjoint");
            for (l, (x, y)) in dc.iter_mut().zip(ac.iter()).enumerate() {
                let v = f(y, x, l);
                *x = v;
            }
        } else {
            // d == a == b
            for (l, x) in regs[ds..ds + w].iter_mut().enumerate() {
                let v = f(x, x, l);
                *x = v;
            }
        }
    } else {
        for l in MaskIter(mask) {
            let v = f(&regs[as_ + l], &regs[bs + l], l);
            regs[ds + l] = v;
        }
    }
}

/// Unary column-wise counterpart of [`bin_cols`].
#[inline(always)]
fn un_cols<D: Clone>(
    regs: &mut [D],
    w: usize,
    d: usize,
    a: usize,
    mask: u64,
    full: u64,
    mut f: impl FnMut(&D, usize) -> D,
) {
    let (ds, as_) = (d * w, a * w);
    if mask == full {
        if d != a {
            let [dc, ac] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w])
                .expect("distinct register columns are disjoint");
            for (l, (x, y)) in dc.iter_mut().zip(ac.iter()).enumerate() {
                *x = f(y, l);
            }
        } else {
            for (l, x) in regs[ds..ds + w].iter_mut().enumerate() {
                let v = f(x, l);
                *x = v;
            }
        }
    } else {
        for l in MaskIter(mask) {
            let v = f(&regs[as_ + l], l);
            regs[ds + l] = v;
        }
    }
}

/// Offers a full-width binary operation to [`Domain::bin_kernel`],
/// writing straight into the destination column. Distinct columns are
/// split with `get_disjoint_mut`; when the destination aliases a source
/// the domain is first asked with empty columns whether it has a kernel
/// for `op` at all, and only then is the aliased column snapshotted into
/// `scratch` so the kernel still sees non-overlapping slices. Returns
/// `false` (nothing written) when the domain has no kernel for `op`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bin_kernel_cols<D: Domain>(
    regs: &mut [D],
    w: usize,
    op: FpBinOp,
    d: usize,
    a: usize,
    b: usize,
    scratch: &mut Vec<D>,
    cxs: &[D::Ctx],
) -> bool {
    let (ds, as_, bs) = (d * w, a * w, b * w);
    if d != a && d != b {
        if a != b {
            let [dc, ac, bc] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w, bs..bs + w])
                .expect("distinct register columns are disjoint");
            D::bin_kernel(op, ac, bc, dc, cxs)
        } else {
            let [dc, ac] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w])
                .expect("distinct register columns are disjoint");
            D::bin_kernel(op, ac, ac, dc, cxs)
        }
    } else if !D::bin_kernel(op, &[], &[], &mut [], &[]) {
        false
    } else {
        // The destination aliases a source: snapshot the destination
        // column so the kernel reads frozen inputs while overwriting it.
        scratch.clear();
        scratch.extend_from_slice(&regs[ds..ds + w]);
        if d == a && d == b {
            D::bin_kernel(op, scratch, scratch, &mut regs[ds..ds + w], cxs)
        } else if d == a {
            let [dc, bc] = regs
                .get_disjoint_mut([ds..ds + w, bs..bs + w])
                .expect("distinct register columns are disjoint");
            D::bin_kernel(op, scratch, bc, dc, cxs)
        } else {
            let [dc, ac] = regs
                .get_disjoint_mut([ds..ds + w, as_..as_ + w])
                .expect("distinct register columns are disjoint");
            D::bin_kernel(op, ac, scratch, dc, cxs)
        }
    }
}

/// Unary counterpart of [`bin_kernel_cols`] for [`Domain::un_kernel`].
#[inline(always)]
fn un_kernel_cols<D: Domain>(
    regs: &mut [D],
    w: usize,
    op: FpUnOp,
    d: usize,
    a: usize,
    scratch: &mut Vec<D>,
    cxs: &[D::Ctx],
) -> bool {
    let (ds, as_) = (d * w, a * w);
    if d != a {
        let [dc, ac] = regs
            .get_disjoint_mut([ds..ds + w, as_..as_ + w])
            .expect("distinct register columns are disjoint");
        D::un_kernel(op, ac, dc, cxs)
    } else if !D::un_kernel(op, &[], &mut [], &[]) {
        false
    } else {
        scratch.clear();
        scratch.extend_from_slice(&regs[ds..ds + w]);
        D::un_kernel(op, scratch, &mut regs[ds..ds + w], cxs)
    }
}

/// Interleaves per-lane register files into one lane-major column file,
/// `out[r * w + l] = files[l][r]` for `r < n`; a lane without a file gets
/// `fill(l)`.
fn interleave<T>(files: Vec<Option<Vec<T>>>, n: usize, mut fill: impl FnMut(usize) -> T) -> Vec<T> {
    let w = files.len();
    let mut its: Vec<_> = files.into_iter().map(|f| f.map(Vec::into_iter)).collect();
    let mut out = Vec::with_capacity(n * w);
    for _ in 0..n {
        for (l, it) in its.iter_mut().enumerate() {
            out.push(
                it.as_mut()
                    .and_then(Iterator::next)
                    .unwrap_or_else(|| fill(l)),
            );
        }
    }
    out
}

/// Executes `prog` on up to [`MAX_LANES`] input sets at once under
/// domain `D`, one result per lane, each bit-identical to what
/// [`crate::exec::exec`] returns for that lane's inputs and context.
///
/// `fixed` must be [`crate::program::encode`]\(`prog`\) — the fixed-width
/// re-encoding the lane dispatch runs on; `cxs` supplies one fresh
/// domain context per lane (contexts are mutated through interior
/// cells, so reusing one context across lanes would entangle their
/// symbol allocations).
///
/// # Panics
///
/// Panics when `inputs` and `cxs` disagree in length, are empty, or
/// exceed [`MAX_LANES`].
pub fn exec_lanes<D: Domain>(
    prog: &Program,
    fixed: &FixedProgram,
    inputs: &[Vec<ArgValue>],
    cxs: &[D::Ctx],
) -> Vec<Result<RunResult<D>, ExecError>> {
    let w = inputs.len();
    assert!(w > 0 && w <= MAX_LANES, "lane width {w} out of range");
    assert_eq!(w, cxs.len(), "one domain context per lane");
    let full: u64 = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };

    // --- Per-lane binding: the scalar binder, on each lane's own
    // context, so every lane sees the scalar path's context calls. ---
    let mut errs: Vec<Option<ExecError>> = vec![None; w];
    let mut bound = Vec::with_capacity(w);
    for (l, (args, cx)) in inputs.iter().zip(cxs).enumerate() {
        let b = Machine::<D, i64>::start(prog, args, cx, &mut NoTrace);
        bound.push(b.map_err(|e| errs[l] = Some(e)).ok());
    }
    // Unsized (pointer) arrays take their length from the bound argument;
    // all surviving lanes must agree or the columns would be ragged.
    let lens = |m: &Machine<D, i64>| -> Vec<usize> { m.arrays.iter().map(Vec::len).collect() };
    let mut live_lens = bound.iter().flatten().map(|(m, _)| lens(m));
    let arr_len = live_lens
        .next()
        .unwrap_or_else(|| vec![0; prog.arrays.len()]);
    if live_lens.any(|l| l != arr_len) {
        let m = metrics();
        m.lanes.dispatches.inc();
        m.lanes.lanes_dispatched.add(w as u64);
        m.lanes.ragged_fallbacks.inc();
        // Per-lane scalar execution: bit-identical by definition.
        return bound
            .into_iter()
            .zip(errs)
            .zip(cxs)
            .map(|((b, e), cx)| match b {
                Some((m, entry)) => m.exec(prog, cx, entry, &mut NoTrace),
                None => Err(e.expect("a lane that did not bind has an error")),
            })
            .collect();
    }

    let init_mask: u64 = errs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_none())
        .fold(0u64, |m, (l, _)| m | (1u64 << l));

    // --- SoA state: the lanes' bound machines interleaved into columns
    // (a lane that failed to bind gets zeros it never reads). ---
    let mut counters0 = Vec::with_capacity(w);
    let (mut fr, mut ir) = (Vec::with_capacity(w), Vec::with_capacity(w));
    let mut ar: Vec<Vec<Option<Vec<D>>>> = vec![Vec::with_capacity(w); prog.arrays.len()];
    for b in bound {
        let (m, entry) = b.map_or((None, (0, 0)), |(m, e)| (Some(m), e));
        counters0.push(entry);
        let (fregs, iregs, arrays) = m.map_or((None, None, None), |m| {
            (Some(m.fregs), Some(m.iregs), Some(m.arrays))
        });
        fr.push(fregs);
        ir.push(iregs);
        let mut arrays = arrays.map(Vec::into_iter);
        for col in &mut ar {
            col.push(arrays.as_mut().and_then(Iterator::next));
        }
    }
    let zero = |l: usize| D::constant(0.0, &cxs[l]);
    let mut fregs = interleave(fr, prog.n_fregs.max(1), zero);
    let mut iregs = interleave(ir, prog.n_iregs.max(1), |_| 0);
    let mut arrays: Vec<Vec<D>> = ar
        .into_iter()
        .zip(&arr_len)
        .map(|(files, &len)| interleave(files, len, zero))
        .collect();

    // --- The lane dispatch loop. ---
    //
    // Scheduling: always run the group with the lowest `pc`, and park
    // the current group whenever its `pc` reaches the lowest parked
    // `pc` (`watch`). Parked groups thereby act as reconvergence
    // points: when the lagging group catches up to a parked group at
    // the same `pc` with the same pending pragma state, the two merge
    // back into one front. Without this, each divergent branch over
    // independent inputs would permanently shatter the group into
    // singletons (LU factorization's data-dependent pivoting is the
    // worst case) and the dispatch amortization would be lost. Lanes
    // share no state, so neither the scheduling order nor merging can
    // influence any lane's result; per-lane instruction counts are
    // kept exact by flushing group counters into `acc_instrs` /
    // `acc_fp` whenever memberships change.
    let mut undecided: Vec<u64> = vec![0; w];
    let mut protect: Vec<Vec<u64>> = vec![Vec::new(); w];
    let mut acc_instrs: Vec<u64> = vec![0; w];
    let mut acc_fp: Vec<u64> = vec![0; w];
    let mut scratch: Vec<D> = Vec::with_capacity(w);
    let mut done: Vec<Option<LaneDone<D>>> = Vec::new();
    done.resize_with(w, || None);
    let n_ops = fixed.ops.len();
    let mut tally = LaneTally::default();
    let mut groups = Vec::new();
    if init_mask != 0 {
        groups.push(Group {
            pc: 0,
            mask: init_mask,
            instrs: 0,
            fp_ops: 0,
            acc_max: 0,
            pending_protect: false,
            pending_capacity: false,
        });
    }

    'groups: while !groups.is_empty() {
        // Pop the group with the lowest pc ...
        let mut idx = 0;
        for (i, h) in groups.iter().enumerate() {
            if h.pc < groups[idx].pc {
                idx = i;
            }
        }
        let mut g = groups.swap_remove(idx);
        // ... and absorb every parked group waiting at the same pc
        // with the same pending state (reconvergence).
        let mut i = 0;
        while i < groups.len() {
            if groups[i].pc == g.pc
                && groups[i].pending_protect == g.pending_protect
                && groups[i].pending_capacity == g.pending_capacity
            {
                let h = groups.swap_remove(i);
                tally.remerges += 1;
                for l in MaskIter(g.mask) {
                    acc_instrs[l] += g.instrs;
                    acc_fp[l] += g.fp_ops;
                }
                for l in MaskIter(h.mask) {
                    acc_instrs[l] += h.instrs;
                    acc_fp[l] += h.fp_ops;
                }
                g.acc_max = (g.acc_max + g.instrs).max(h.acc_max + h.instrs);
                g.mask |= h.mask;
                g.instrs = 0;
                g.fp_ops = 0;
            } else {
                i += 1;
            }
        }
        // The lowest parked pc: reaching it parks the current group so
        // the scheduler can re-merge (or switch to a lagging group).
        let mut watch = groups.iter().map(|h| h.pc).min().unwrap_or(usize::MAX);
        loop {
            if g.mask == 0 {
                continue 'groups;
            }
            if g.pc >= n_ops {
                // Fell off the end: a void return.
                for l in MaskIter(g.mask) {
                    done[l] = Some(LaneDone {
                        ret: None,
                        instrs: acc_instrs[l] + g.instrs,
                        fp_ops: acc_fp[l] + g.fp_ops,
                    });
                }
                continue 'groups;
            }
            // One instruction tick (a superinstruction ticks twice) and
            // the fuel check: when the group bound trips, check each
            // lane's exact count (post-merge lanes can have different
            // totals).
            macro_rules! fuel_check {
                () => {
                    g.instrs += 1;
                    if g.acc_max + g.instrs > FUEL {
                        let mut bad = 0u64;
                        for l in MaskIter(g.mask) {
                            if acc_instrs[l] + g.instrs > FUEL {
                                errs[l] = Some(fuel_exhausted());
                                bad |= 1 << l;
                            }
                        }
                        g.mask &= !bad;
                        if g.mask == 0 {
                            continue 'groups;
                        }
                        g.acc_max = MaskIter(g.mask).map(|l| acc_instrs[l]).max().unwrap_or(0);
                    }
                };
            }
            fuel_check!();
            let ins = fixed.ops[g.pc];
            let fp_before = g.fp_ops;

            // Consumes the pending protect set on the first FP op.
            // Protect-free full-width groups first offer the whole
            // column to the domain's SIMD kernel ([`Domain::bin_kernel`]).
            macro_rules! fp_bin {
                ($method:ident, $op:expr, $d:expr, $a:expr, $b:expr) => {{
                    if g.pending_protect {
                        g.pending_protect = false;
                        tally.scalar_dispatches += 1;
                        bin_cols(&mut fregs, w, $d, $a, $b, g.mask, full, |x, y, l| {
                            let p = std::mem::take(&mut protect[l]);
                            x.$method(y, &cxs[l], &p)
                        });
                    } else if g.mask == full
                        && bin_kernel_cols(&mut fregs, w, $op, $d, $a, $b, &mut scratch, cxs)
                    {
                        tally.kernel_dispatches += 1;
                    } else {
                        tally.scalar_dispatches += 1;
                        bin_cols(&mut fregs, w, $d, $a, $b, g.mask, full, |x, y, l| {
                            x.$method(y, &cxs[l], &[])
                        });
                    }
                    g.fp_ops += 1;
                }};
            }
            // Unary counterpart for the kernel-eligible ops.
            macro_rules! fp_un_kernel {
                ($op:expr, $d:expr, $a:expr, $fallback:expr) => {{
                    if g.mask == full
                        && un_kernel_cols(&mut fregs, w, $op, $d, $a, &mut scratch, cxs)
                    {
                        tally.kernel_dispatches += 1;
                    } else {
                        tally.scalar_dispatches += 1;
                        un_cols(&mut fregs, w, $d, $a, g.mask, full, $fallback);
                    }
                    g.fp_ops += 1;
                }};
            }
            // A capacity pragma covers exactly one FP operation.
            macro_rules! cap_check {
                ($before:expr) => {
                    if g.pending_capacity && g.fp_ops > $before {
                        for l in MaskIter(g.mask) {
                            D::reset_capacity(&cxs[l]);
                        }
                        g.pending_capacity = false;
                    }
                };
            }
            // The branch half of JumpIfZero and the fused compares:
            // split the group when lanes disagree.
            macro_rules! branch_if_zero {
                ($cond_base:expr, $target:expr) => {{
                    let base = $cond_base;
                    let mut taken = 0u64;
                    for l in MaskIter(g.mask) {
                        if iregs[base + l] == 0 {
                            taken |= 1 << l;
                        }
                    }
                    if taken == g.mask {
                        g.pc = $target;
                        if g.pc >= watch {
                            tally.parks += 1;
                            groups.push(g);
                            continue 'groups;
                        }
                        continue;
                    }
                    if taken != 0 {
                        tally.splits += 1;
                        groups.push(Group {
                            pc: $target,
                            mask: taken,
                            instrs: g.instrs,
                            fp_ops: g.fp_ops,
                            // Conservative for the subset (only ever
                            // trips the precise fuel path early).
                            acc_max: g.acc_max,
                            pending_protect: g.pending_protect,
                            pending_capacity: g.pending_capacity,
                        });
                        watch = watch.min($target);
                        g.mask &= !taken;
                    }
                }};
            }
            macro_rules! cmp_f_cols {
                ($op:expr, $d:expr, $a:expr, $b:expr) => {{
                    let (db, ab, bb) = ($d * w, $a * w, $b * w);
                    for_lanes(g.mask, full, w, |l| {
                        let (x, y) = (&fregs[ab + l], &fregs[bb + l]);
                        iregs[db + l] = i64::from(cmp_f_decide($op, x, y, &mut undecided[l]));
                    });
                }};
            }

            // Min/max: kernel-eligible, never protected.
            macro_rules! fp_minmax {
                ($method:ident, $op:expr, $d:expr, $a:expr, $b:expr) => {{
                    if g.mask == full
                        && bin_kernel_cols(&mut fregs, w, $op, $d, $a, $b, &mut scratch, cxs)
                    {
                        tally.kernel_dispatches += 1;
                    } else {
                        tally.scalar_dispatches += 1;
                        bin_cols(&mut fregs, w, $d, $a, $b, g.mask, full, |x, y, l| {
                            x.$method(y, &cxs[l])
                        });
                    }
                    g.fp_ops += 1;
                }};
            }

            let (d, a, b) = (ins.dst as usize, ins.a as usize, ins.b as usize);
            match ins.op {
                OpCode::Add => fp_bin!(add, FpBinOp::Add, d, a, b),
                OpCode::Sub => fp_bin!(sub, FpBinOp::Sub, d, a, b),
                OpCode::Mul => fp_bin!(mul, FpBinOp::Mul, d, a, b),
                OpCode::Div => fp_bin!(div, FpBinOp::Div, d, a, b),
                OpCode::Sqrt => {
                    if g.pending_protect {
                        g.pending_protect = false;
                        un_cols(&mut fregs, w, d, a, g.mask, full, |x, l| {
                            let p = std::mem::take(&mut protect[l]);
                            x.sqrt(&cxs[l], &p)
                        });
                        g.fp_ops += 1;
                    } else {
                        fp_un_kernel!(FpUnOp::Sqrt, d, a, |x, l| x.sqrt(&cxs[l], &[]));
                    }
                }
                OpCode::Abs => fp_un_kernel!(FpUnOp::Abs, d, a, |x, l| x.abs(&cxs[l])),
                OpCode::Neg => fp_un_kernel!(FpUnOp::Neg, d, a, |x, l| x.neg(&cxs[l])),
                OpCode::Min => fp_minmax!(min, FpBinOp::Min, d, a, b),
                OpCode::Max => fp_minmax!(max, FpBinOp::Max, d, a, b),
                OpCode::ConstF => {
                    let c = fixed.fpool[ins.imm as usize];
                    let base = d * w;
                    for_lanes(g.mask, full, w, |l| {
                        fregs[base + l] = D::constant(c, &cxs[l]);
                    });
                }
                OpCode::MovF => {
                    un_cols(&mut fregs, w, d, a, g.mask, full, |x, _| x.clone());
                }
                OpCode::CastIF => {
                    let (db, ab) = (d * w, a * w);
                    for_lanes(g.mask, full, w, |l| {
                        fregs[db + l] = D::constant(iregs[ab + l] as f64, &cxs[l]);
                    });
                }
                OpCode::LoadArr => {
                    let (db, ib) = (d * w, b * w);
                    let col = &arrays[a];
                    let len = arr_len[a];
                    let name = &prog.arrays[a].name;
                    let mut bad = 0u64;
                    for l in MaskIter(g.mask) {
                        match array_index(iregs[ib + l], len, name) {
                            Ok(i) => fregs[db + l] = col[i * w + l].clone(),
                            Err(e) => {
                                errs[l] = Some(e);
                                bad |= 1 << l;
                            }
                        }
                    }
                    g.mask &= !bad;
                }
                OpCode::StoreArr => {
                    let (ib, sb) = (a * w, b * w);
                    let len = arr_len[d];
                    let name = &prog.arrays[d].name;
                    let col = &mut arrays[d];
                    let mut bad = 0u64;
                    for l in MaskIter(g.mask) {
                        match array_index(iregs[ib + l], len, name) {
                            Ok(i) => col[i * w + l] = fregs[sb + l].clone(),
                            Err(e) => {
                                errs[l] = Some(e);
                                bad |= 1 << l;
                            }
                        }
                    }
                    g.mask &= !bad;
                }
                OpCode::ConstI => {
                    let c = fixed.ipool[ins.imm as usize];
                    let base = d * w;
                    for_lanes(g.mask, full, w, |l| {
                        iregs[base + l] = c;
                    });
                }
                OpCode::AddI => bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| x + y),
                OpCode::SubI => bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| x - y),
                OpCode::MulI => bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| x * y),
                OpCode::DivI => {
                    let (db, ab, bb) = (d * w, a * w, b * w);
                    let mut bad = 0u64;
                    for l in MaskIter(g.mask) {
                        let bv = iregs[bb + l];
                        if bv == 0 {
                            errs[l] = Some(div_by_zero());
                            bad |= 1 << l;
                        } else {
                            iregs[db + l] = iregs[ab + l] / bv;
                        }
                    }
                    g.mask &= !bad;
                }
                OpCode::MovI => {
                    un_cols(&mut iregs, w, d, a, g.mask, full, |x, _| *x);
                }
                OpCode::CastFI => {
                    let (db, ab) = (d * w, a * w);
                    for_lanes(g.mask, full, w, |l| {
                        iregs[db + l] = fregs[ab + l].center() as i64;
                    });
                }
                OpCode::CmpI => {
                    let op = ins.cmp_op();
                    bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| {
                        i64::from(op.eval(*x, *y))
                    });
                }
                OpCode::CmpF => cmp_f_cols!(ins.cmp_op(), d, a, b),
                OpCode::Jump => {
                    g.pc = ins.imm as usize;
                    if g.pc >= watch {
                        tally.parks += 1;
                        groups.push(g);
                        continue 'groups;
                    }
                    continue;
                }
                OpCode::JumpIfZero => {
                    branch_if_zero!(a * w, ins.imm as usize);
                }
                OpCode::Protect => {
                    let base = a * w;
                    for l in MaskIter(g.mask) {
                        protect[l] = fregs[base + l].protect_ids(&cxs[l]);
                    }
                    g.pending_protect = true;
                }
                OpCode::SetCapacity => {
                    for l in MaskIter(g.mask) {
                        D::set_capacity(&cxs[l], ins.imm as usize);
                    }
                    g.pending_capacity = true;
                }
                OpCode::Ret => {
                    let base = a * w;
                    for l in MaskIter(g.mask) {
                        done[l] = Some(LaneDone {
                            ret: Some(fregs[base + l].clone()),
                            instrs: acc_instrs[l] + g.instrs,
                            fp_ops: acc_fp[l] + g.fp_ops,
                        });
                    }
                    continue 'groups;
                }
                OpCode::RetVoid => {
                    for l in MaskIter(g.mask) {
                        done[l] = Some(LaneDone {
                            ret: None,
                            instrs: acc_instrs[l] + g.instrs,
                            fp_ops: acc_fp[l] + g.fp_ops,
                        });
                    }
                    continue 'groups;
                }
                // Superinstructions: the two source instructions execute
                // back to back with the scalar path's exact per-
                // instruction bookkeeping (second `instrs` tick, fuel
                // and capacity checks between the halves).
                OpCode::MulThenAdd | OpCode::MulThenSub => {
                    tally.superinstr_hits += 1;
                    fp_bin!(mul, FpBinOp::Mul, d, a, b);
                    cap_check!(fp_before);
                    fuel_check!();
                    let before2 = g.fp_ops;
                    let (d2, c) = (ins.d2() as usize, ins.c() as usize);
                    let (x, y) = if ins.aux == 0 { (d, c) } else { (c, d) };
                    if ins.op == OpCode::MulThenAdd {
                        fp_bin!(add, FpBinOp::Add, d2, x, y);
                    } else {
                        fp_bin!(sub, FpBinOp::Sub, d2, x, y);
                    }
                    cap_check!(before2);
                }
                OpCode::MulIThenAddI => {
                    tally.superinstr_hits += 1;
                    bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| x * y);
                    fuel_check!();
                    let (d2, c) = (ins.d2() as usize, ins.c() as usize);
                    let (x, y) = if ins.aux == 0 { (d, c) } else { (c, d) };
                    bin_cols(&mut iregs, w, d2, x, y, g.mask, full, |x, y, _| x + y);
                }
                OpCode::CmpIJump => {
                    tally.superinstr_hits += 1;
                    let op = ins.cmp_op();
                    bin_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y, _| {
                        i64::from(op.eval(*x, *y))
                    });
                    fuel_check!();
                    branch_if_zero!(d * w, ins.imm as usize);
                }
                OpCode::CmpFJump => {
                    tally.superinstr_hits += 1;
                    cmp_f_cols!(ins.cmp_op(), d, a, b);
                    fuel_check!();
                    branch_if_zero!(d * w, ins.imm as usize);
                }
            }
            cap_check!(fp_before);
            g.pc += 1;
            if g.pc >= watch {
                tally.parks += 1;
                groups.push(g);
                continue 'groups;
            }
        }
    }
    tally.flush(w);

    // --- Materialize per-lane results. ---
    (0..w)
        .map(|l| {
            if let Some(e) = errs[l].take() {
                return Err(e);
            }
            let fin = done[l]
                .take()
                .expect("every surviving lane retires through a group");
            let (f1, c1) = D::fusion_counters(&cxs[l]);
            let stats = RunStats {
                fp_ops: fin.fp_ops,
                instrs: fin.instrs,
                undecided_branches: undecided[l],
                fusions: f1 - counters0[l].0,
                condensations: c1 - counters0[l].1,
                ..RunStats::default()
            };
            let arrays_out: Vec<(String, Vec<D>)> = prog
                .params
                .iter()
                .filter_map(|(name, binding)| match binding {
                    ParamBinding::Array(a) => {
                        let j = *a as usize;
                        let vals: Vec<D> = (0..arr_len[j])
                            .map(|e| arrays[j][e * w + l].clone())
                            .collect();
                        Some((name.clone(), vals))
                    }
                    _ => None,
                })
                .collect();
            Ok(RunResult {
                ret: fin.ret,
                arrays: arrays_out,
                stats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::UnsoundF64;
    use crate::exec::exec;
    use crate::program::{compile_program, encode};
    use safegen_affine::{AaConfig, AaContext, AffineF64};
    use safegen_cfront::{analyze, parse};

    fn compile(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = safegen_ir::to_tac_with_sema(&unit, &sema);
        compile_program(&tac.functions[0], &sema).unwrap()
    }

    /// Runs `w` input sets through both interpreters under `UnsoundF64`
    /// and asserts the results match bit for bit.
    fn assert_lanes_match_scalar(src: &str, inputs: &[Vec<ArgValue>]) {
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let cxs = vec![(); inputs.len()];
        let lanes = exec_lanes::<UnsoundF64>(&p, &fixed, inputs, &cxs);
        for (l, got) in lanes.iter().enumerate() {
            let want = exec::<UnsoundF64>(&p, &inputs[l], &());
            match (got, &want) {
                (Ok(g), Ok(s)) => {
                    assert_eq!(
                        g.ret.as_ref().map(|v| v.0.to_bits()),
                        s.ret.as_ref().map(|v| v.0.to_bits()),
                        "lane {l} return"
                    );
                    assert_eq!(g.stats, s.stats, "lane {l} stats");
                    assert_eq!(g.arrays.len(), s.arrays.len());
                    for ((gn, gv), (sn, sv)) in g.arrays.iter().zip(&s.arrays) {
                        assert_eq!(gn, sn);
                        let gb: Vec<u64> = gv.iter().map(|v| v.0.to_bits()).collect();
                        let sb: Vec<u64> = sv.iter().map(|v| v.0.to_bits()).collect();
                        assert_eq!(gb, sb, "lane {l} array {gn}");
                    }
                }
                (Err(g), Err(s)) => assert_eq!(g.message, s.message, "lane {l} error"),
                _ => panic!("lane {l}: ok/err mismatch: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn straight_line_lanes_match_scalar() {
        assert_lanes_match_scalar(
            "double f(double a, double b) { return a * b + 0.1; }",
            &(0..8)
                .map(|i| vec![(0.1 * i as f64).into(), (1.0 - 0.05 * i as f64).into()])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn lane_metrics_count_dispatches_and_divergence() {
        use safegen_telemetry::metrics::metrics;
        let m = &metrics().lanes;
        let (dispatches0, lanes0) = (m.dispatches.get(), m.lanes_dispatched.get());
        let (splits0, kernels0, scalars0) = (
            m.group_splits.get(),
            m.kernel_dispatches.get(),
            m.scalar_dispatches.get(),
        );

        // A divergent branch forces at least one group split; the
        // arithmetic runs through either the column kernels or the
        // scalar fallback, both of which are counted.
        let p = compile("double f(double x) { if (x < 0.0) { return -x; } return x + 1.0; }");
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> = (0..8).map(|i| vec![((i as f64) - 3.5).into()]).collect();
        let cxs = vec![(); inputs.len()];
        let results = exec_lanes::<UnsoundF64>(&p, &fixed, &inputs, &cxs);
        assert!(results.iter().all(|r| r.is_ok()));

        // Counters are process-global, so deltas are asserted as `>=`.
        assert!(m.dispatches.get() > dispatches0);
        assert!(m.lanes_dispatched.get() >= lanes0 + 8);
        assert!(m.group_splits.get() > splits0, "branch must split");
        assert!(
            m.kernel_dispatches.get() + m.scalar_dispatches.get() > kernels0 + scalars0,
            "fp ops must be counted as kernel or scalar dispatches"
        );
    }

    #[test]
    fn divergent_branches_split_and_finish() {
        // Half the lanes take the negation branch, half do not.
        assert_lanes_match_scalar(
            "double f(double x) { if (x < 0.0) { return -x; } return x + 1.0; }",
            &(0..8)
                .map(|i| vec![((i as f64) - 3.5).into()])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn data_dependent_loop_trip_counts_diverge() {
        assert_lanes_match_scalar(
            "double f(double x) { while (x < 100.0) { x = x * 2.0; } return x; }",
            &[
                vec![1.0.into()],
                vec![90.0.into()],
                vec![250.0.into()],
                vec![0.3.into()],
            ],
        );
    }

    #[test]
    fn arrays_and_counted_loops_match() {
        assert_lanes_match_scalar(
            "void scale(double a[4], int n) {
                 for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
             }",
            &(0..5)
                .map(|l| {
                    vec![
                        vec![1.0 + l as f64, 2.0, 3.0, 4.0].into(),
                        ((l % 4) as i64 + 1).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn per_lane_errors_leave_other_lanes_intact() {
        // Lane 1 indexes out of bounds; lanes 0 and 2 succeed.
        assert_lanes_match_scalar(
            "void f(double a[2], int i) { a[i] = 1.0; }",
            &[
                vec![vec![0.0, 0.0].into(), 1i64.into()],
                vec![vec![0.0, 0.0].into(), 5i64.into()],
                vec![vec![0.0, 0.0].into(), 0i64.into()],
            ],
        );
    }

    #[test]
    fn binding_errors_match_scalar_messages() {
        assert_lanes_match_scalar(
            "double f(double x) { return x; }",
            &[vec![1.0.into()], vec![], vec![1i64.into()]],
        );
    }

    #[test]
    fn ragged_unsized_arrays_fall_back_to_scalar() {
        assert_lanes_match_scalar(
            "void f(double *a, int n) { for (int i = 0; i < n; i++) a[i] = 0.5; }",
            &[
                vec![vec![1.0; 7].into(), 7i64.into()],
                vec![vec![1.0; 3].into(), 3i64.into()],
            ],
        );
    }

    #[test]
    fn division_by_zero_is_per_lane() {
        assert_lanes_match_scalar(
            "double f(int n) { return 1.0 / (n / n); }",
            &[vec![2i64.into()], vec![0i64.into()], vec![5i64.into()]],
        );
    }

    #[test]
    fn affine_lanes_match_scalar_bitwise() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 12; i++) { s = s * y + x; }
            return s;
        }";
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> = (0..4)
            .map(|i| vec![(0.1 + 0.2 * i as f64).into(), (0.9 - 0.1 * i as f64).into()])
            .collect();
        let cxs: Vec<AaContext> = (0..4).map(|_| AaContext::new(AaConfig::new(4))).collect();
        let lanes = exec_lanes::<AffineF64>(&p, &fixed, &inputs, &cxs);
        for (l, got) in lanes.into_iter().enumerate() {
            let cx = AaContext::new(AaConfig::new(4));
            let want = exec::<AffineF64>(&p, &inputs[l], &cx).unwrap();
            let got = got.unwrap();
            let (glo, ghi) = got.ret.as_ref().unwrap().range();
            let (slo, shi) = want.ret.as_ref().unwrap().range();
            assert_eq!(glo.to_bits(), slo.to_bits(), "lane {l} lo");
            assert_eq!(ghi.to_bits(), shi.to_bits(), "lane {l} hi");
            assert_eq!(got.stats, want.stats, "lane {l} stats");
        }
    }

    #[test]
    fn protect_pragma_consumed_identically() {
        let src = "void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }";
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> =
            vec![vec![1.0.into(), 2.0.into()], vec![0.5.into(), 3.0.into()]];
        let cxs: Vec<AaContext> = (0..2).map(|_| AaContext::new(AaConfig::new(2))).collect();
        let lanes = exec_lanes::<AffineF64>(&p, &fixed, &inputs, &cxs);
        for (l, got) in lanes.into_iter().enumerate() {
            let cx = AaContext::new(AaConfig::new(2));
            let want = exec::<AffineF64>(&p, &inputs[l], &cx).unwrap();
            let got = got.unwrap();
            assert_eq!(got.stats, want.stats, "lane {l}");
            assert!(got.ret.is_none());
        }
    }

    #[test]
    fn single_lane_works() {
        assert_lanes_match_scalar(
            "double f(double x) { return x * x - x; }",
            &[vec![0.7.into()]],
        );
    }

    #[test]
    fn full_width_64_lanes() {
        assert_lanes_match_scalar(
            "double f(double x) { return 1.0 - 1.05 * x * x; }",
            &(0..64)
                .map(|i| vec![(0.01 * i as f64).into()])
                .collect::<Vec<_>>(),
        );
    }
}
