//! Hot-loop f64 kernels for the model-evaluation engine.
//!
//! The grid search evaluates the conditional-sum-of-squares (CSS) objective
//! hundreds of thousands of times per sweep; profiling showed that almost
//! all of that time is the innovation recursion itself. This module
//! restructures the recursion into a shape the autovectoriser can take:
//!
//! * **Fused blocked AR pass** — instead of walking `t` and accumulating
//!   all lags into one scalar (a serial FP dependency chain, ~4 cycles per
//!   term), the AR part processes 16 time steps at once (`ar_phase`):
//!   the block's partial innovations stay in four independent 4-lane
//!   register chains while the lag loop runs, so the latency chains
//!   overlap, AVX2 processes four lanes per instruction, and the output
//!   buffer is written once instead of once per lag (the per-lag sweep
//!   alternative, [`axpy_neg`], is store-port-bound at grid AR orders).
//!   The per-element subtraction order (lag 1 first) is exactly the order
//!   of the scalar loop, so results are **bit-identical** to the
//!   reference.
//! * **MA recursion with hoisted guard** — the MA part is inherently serial
//!   (`a_t` depends on `a_{t-1}`), but the per-iteration conditioning guard
//!   is hoisted into the loop bound (`ma_block`), leaving a tight
//!   branch-free inner loop.
//! * **Chunked reduction** — [`sum_sq`] accumulates in four independent
//!   lanes (combined pairwise, serial tail), breaking the add-latency chain
//!   of a naive serial sum. This *is* a different (fixed, canonical)
//!   summation order from a plain serial sum; it is the one order used
//!   everywhere, so all evaluation modes agree bitwise.
//! * **Batched scoring** — [`css_batch`] scores several candidates (each
//!   with its own differenced series) in one block-streamed pass:
//!   innovations live only in small per-lane windows, the serial MA
//!   recurrences interleave across candidates, and the whole round's
//!   working set stays L1-resident. Per-candidate arithmetic is
//!   element-for-element identical to the solo kernel, so batch membership
//!   never changes a score.
//!
//! Everything is plain safe indexing over pre-sized slices — bounds are
//! established once at the top of each kernel (`start = p.min(n)`, block
//! ranges clamped to `n`), after which every index is in range by
//! construction; the slice-level operations (`copy_from_slice`, subslice
//! `zip`s) let LLVM elide the checks. A scalar [`mod@reference`] implementation
//! is kept for parity testing. The layout (lane-count-4 chunks, per-lag
//! passes) is chosen so `std::simd` can replace the inner loops without
//! changing any call site once it stabilises.
// lint: allow-file(indexing) — kernel hot loops; every index is bounded by
// construction: `start = p.min(n)` caps lag offsets, block ranges are
// clamped to `n`, and the MA loop bound `theta.len().min(t - start)` keeps
// `t - 1 - j >= start - 1 >= 0` within the initialised prefix.

/// Fused multiply-subtract pass: `dst[i] -= scale * src[i]`.
///
/// The zipped-slice form compiles to bounds-check-free code; with
/// `target-cpu=native` LLVM vectorises it to 4-lane AVX2 `vmulpd`/`vsubpd`
/// (no FMA contraction — Rust does not fuse `a - b * c`, keeping results
/// bit-identical to the scalar reference).
#[inline]
pub fn axpy_neg(dst: &mut [f64], scale: f64, src: &[f64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] -= scale * sc[0];
        dc[1] -= scale * sc[1];
        dc[2] -= scale * sc[2];
        dc[3] -= scale * sc[3];
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv -= scale * sv;
    }
}

/// Sum of squares with four independent accumulator lanes.
///
/// Canonical order: lanes over `chunks_exact(4)`, combined as
/// `(l0 + l1) + (l2 + l3)`, then the serial tail. This is the one
/// summation order used by every CSS path (scalar, vectorised, batched),
/// so scores agree bitwise across evaluation modes.
#[inline]
pub fn sum_sq(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        lanes[0] += c[0] * c[0];
        lanes[1] += c[1] * c[1];
        lanes[2] += c[2] * c[2];
        lanes[3] += c[3] * c[3];
    }
    let mut tail = 0.0;
    for &v in chunks.remainder() {
        tail += v * v;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Fused AR fill: `dst[i] = w[t0+i] − Σₖ φₖ·w[t0+i−1−k]`, subtractions in
/// ascending lag order, for any window `[t0, t0 + dst.len())` of the
/// series. Callers guarantee `t0 >= phi.len()` and
/// `t0 + dst.len() <= w.len()`, so no lag index underflows.
///
/// One blocked pass over `t` replaces the per-lag [`axpy_neg`] sweeps: each
/// 16-element block holds its partial innovations in registers while the
/// lag loop runs, so the destination is written once instead of once per
/// lag (the per-lag sweep is store-port-bound — `p` read-modify-write
/// passes over the whole buffer). The block accumulators are four
/// independent 4-lane chains, enough to hide the multiply-subtract
/// latency. Per element the arithmetic is
/// `((w[t] − φ₁w[t−1]) − φ₂w[t−2]) − …` — exactly the per-lag sweep's
/// order — so innovations are bit-identical to both the sweep form and the
/// scalar reference, and independent of how the series is windowed.
#[inline]
fn ar_fill(phi: &[f64], w: &[f64], t0: usize, dst: &mut [f64]) {
    const BLOCK: usize = 16;
    let len = dst.len().min(w.len().saturating_sub(t0));
    let mut i = 0usize;
    while i + BLOCK <= len {
        let t = t0 + i;
        let mut acc = [0.0f64; BLOCK];
        acc.copy_from_slice(&w[t..t + BLOCK]);
        for (k, &ph) in phi.iter().enumerate() {
            let lag = k + 1;
            let src = &w[t - lag..t - lag + BLOCK];
            for (av, &sv) in acc.iter_mut().zip(src) {
                *av -= ph * sv;
            }
        }
        dst[i..i + BLOCK].copy_from_slice(&acc);
        i += BLOCK;
    }
    while i < len {
        let t = t0 + i;
        let mut v = w[t];
        for (k, &ph) in phi.iter().enumerate() {
            v -= ph * w[t - 1 - k];
        }
        dst[i] = v;
        i += 1;
    }
}

/// Fused AR phase over a full innovation buffer: `a[t] = w[t] − Σᵢ
/// φᵢ·w[t−1−i]` for `t` in `start..n` — the whole-buffer view of
/// `ar_fill`.
#[inline]
fn ar_phase(phi: &[f64], w: &[f64], a: &mut [f64], start: usize) {
    let n = w.len().min(a.len());
    if start >= n {
        return;
    }
    // `start = p.min(n)` at every caller, so `t0 >= phi.len()` holds.
    ar_fill(phi, w, start, &mut a[start..n]);
}

/// Serial MA recursion over `a[lo..hi]` with the conditioning guard hoisted
/// into the loop bound.
///
/// `start` is the conditioning point: entries `a[..start]` are zero
/// pre-sample slots, and innovation `t` may only reference innovations from
/// `start` onwards, i.e. `j < min(q, t - start)`. The recursion reads
/// values this same pass has just written, so it cannot vectorise — but
/// the hoisted bound removes the per-term branch of the reference loop,
/// and the grid's only MA orders (q = 1, 2) get dedicated loops with the
/// ramp-up steps peeled, leaving nothing but the irreducible
/// multiply-subtract dependency chain. Each specialisation performs the
/// subtractions in the same ascending-`j` order as the general loop, so
/// innovations are bit-identical.
#[inline]
fn ma_block(theta: &[f64], a: &mut [f64], start: usize, lo: usize, hi: usize) {
    match theta.len() {
        0 => {}
        1 => {
            let th0 = theta[0];
            let t0 = lo.max(start + 1);
            if t0 >= hi {
                return;
            }
            // Carry the recurrence in a register so each step pays only the
            // multiply-subtract latency, not a store-to-load round trip.
            let mut prev = a[t0 - 1];
            for t in t0..hi {
                let v = a[t] - th0 * prev;
                a[t] = v;
                prev = v;
            }
        }
        2 => {
            let th0 = theta[0];
            let th1 = theta[1];
            let mut t = lo.max(start + 1);
            if t >= hi {
                return;
            }
            if t == start + 1 {
                // Ramp-up step: only one prior innovation exists.
                a[t] -= th0 * a[t - 1];
                t += 1;
            }
            if t >= hi {
                return;
            }
            let mut x1 = a[t - 1];
            let mut x2 = a[t - 2];
            while t < hi {
                let v = a[t] - th0 * x1 - th1 * x2;
                a[t] = v;
                x2 = x1;
                x1 = v;
                t += 1;
            }
        }
        _ => {
            for t in lo..hi {
                let m = theta.len().min(t - start);
                let mut v = a[t];
                for (j, &th) in theta[..m].iter().enumerate() {
                    v -= th * a[t - 1 - j];
                }
                a[t] = v;
            }
        }
    }
}

/// CSS innovations of `w` under the expanded ARMA `(phi, theta)` (lag 1
/// first), written into `a` (cleared and resized to `w.len()`; entries
/// before the conditioning point stay zero). Returns the index of the
/// first genuine innovation.
///
/// Bit-identical to [`reference::arma_innovations`]: the AR part runs as
/// the fused blocked `ar_phase` (lag order preserved per element), the
/// MA part as the serial `ma_block` recursion.
pub fn arma_innovations(phi: &[f64], theta: &[f64], w: &[f64], a: &mut Vec<f64>) -> usize {
    let n = w.len();
    let start = phi.len().min(n);
    a.clear();
    a.resize(n, 0.0);
    if start >= n {
        return start;
    }
    ar_phase(phi, w, a, start);
    if !theta.is_empty() {
        ma_block(theta, a, start, start, n);
    }
    start
}

/// CSS objective: mean squared innovation over the scored region, or
/// `f64::INFINITY` when nothing can be scored.
pub fn css(phi: &[f64], theta: &[f64], w: &[f64], a: &mut Vec<f64>) -> f64 {
    let start = arma_innovations(phi, theta, w, a);
    let scored = w.len() - start;
    if scored == 0 {
        return f64::INFINITY;
    }
    sum_sq(&a[start..]) / scored as f64
}

/// History slots kept per streaming lane in [`css_batch`] — the widest MA
/// order the streamed path supports. Wider candidates (long seasonal θ*
/// expansions) fall back to the solo kernel inside the same call, with
/// identical results.
const MA_HIST: usize = 16;

/// Payload elements per streamed block in [`css_batch`]: a multiple of 16
/// (the `ar_fill` register block) and of 4 (the [`sum_sq`] reduction
/// chunk), sized so a full batch of windows plus the series stays
/// L1-resident.
const BATCH_BLOCK: usize = 96;

/// One streamed candidate's in-flight state inside [`css_batch`]: its slot
/// in the call's candidate list, its conditioning point, its streaming
/// window (owned, recycled through the scratch pool), the register-carried
/// MA trailing state, and the canonical four-lane reduction accumulators
/// (same lanes, same fold order as [`sum_sq`]).
///
/// Lanes are built grouped by MA class (`q = 0`, `1`, `2`, wide) so the
/// interleaved MA loop runs over contiguous subslices with direct field
/// access — no per-step indirection through a shared window table, which
/// profiling showed ate the interleave's gain.
#[derive(Debug, Default, Clone)]
struct LaneState {
    cand: usize,
    start: usize,
    scored: usize,
    q: usize,
    th0: f64,
    th1: f64,
    x1: f64,
    x2: f64,
    sums: [f64; 4],
    tail: f64,
    window: Vec<f64>,
}

/// Reusable workspace for [`css_batch`]: the lane list plus a pool of
/// recycled window buffers, kept allocated across calls so the evaluation
/// hot loop never touches the allocator.
#[derive(Debug, Default)]
pub struct CssBatchScratch {
    lanes: Vec<LaneState>,
    pool: Vec<Vec<f64>>,
    /// Full-length innovation buffer for wide-θ* solo fallbacks.
    solo: Vec<f64>,
}

/// Serial uniform MA steps over block-relative `[i0, i1)` of a streaming
/// window: `win[H+i] -= Σⱼ θⱼ·win[H+i−1−j]`, reads reaching into the
/// `MA_HIST`-slot history prefix for `i < q`. Valid once the lane's
/// absolute position has cleared its ramp (all `q` predecessors exist);
/// per-element arithmetic identical to the interleaved loops and
/// `ma_block`.
#[inline]
fn ma_serial(theta: &[f64], win: &mut [f64], i0: usize, i1: usize) {
    for i in i0..i1 {
        let mut v = win[MA_HIST + i];
        for (j, &th) in theta.iter().enumerate() {
            v -= th * win[MA_HIST + i - 1 - j];
        }
        win[MA_HIST + i] = v;
    }
}

/// Score a batch of expanded ARMA candidates `(φ*, θ*, w)` in one
/// streaming pass, writing one CSS value per candidate into `out`.
/// Candidates need **not** share a differenced series: each lane carries
/// its own `w`, so one call can span every differencing signature in a
/// scheduling group.
///
/// Instead of materialising each candidate's full innovation buffer (which
/// streams `batch × n` doubles through cache every call), the kernel is
/// **block-streamed**: innovations live only in a small per-lane window —
/// `BATCH_BLOCK` payload slots plus `MA_HIST` history slots — and each
/// block round runs four fused stages:
///
/// 1. **AR fill**, candidate-outer: the block's innovations via the fused
///    blocked `ar_fill` pass over the lane's own `w`.
/// 2. **MA recursion**, time-outer / candidate-inner: each lane's
///    recursion is an independent serial multiply-subtract dependency
///    chain (~8 cycles per step on its own). After the first block's short
///    per-lane ramp (the reference loop's `min(q, t−start)` guard region),
///    the uniform region is one interleaved loop — one step of every
///    lane's recurrence per time index — so the out-of-order core overlaps
///    the chains, turning a latency-bound loop into a throughput-bound
///    one. This is where batching beats scoring candidates one at a time.
/// 3. **Reduction**: the block's squares fold into the lane's four
///    accumulator lanes — the same `chunks_exact(4)` grid and fold order
///    as [`sum_sq`] over the full scored region, because every block
///    payload is a multiple of 4 except the final partial one.
/// 4. **History carry**: the last `MA_HIST` innovations slide to the
///    window head for the next block's MA reads.
///
/// Per element, every lane executes exactly the statements of the solo
/// [`css`] kernel in the same order — scores are **independent of batch
/// membership and order**, which keeps champion selection deterministic at
/// any thread count. The whole round's working set (windows + series)
/// stays L1-resident, so batching no longer evicts the optimiser and
/// transform state between evaluations.
///
/// `scratch` is reusable across calls; `out` is cleared and refilled.
pub fn css_batch(
    cands: &[(&[f64], &[f64], &[f64])],
    scratch: &mut CssBatchScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(cands.len(), f64::INFINITY);
    for lane in scratch.lanes.drain(..) {
        scratch.pool.push(lane.window);
    }
    // Build lanes grouped by MA class (q = 0, 1, 2, wide) so each
    // interleave group below is one contiguous subslice. Wide-θ*
    // candidates beyond the history window fall back to the solo kernel
    // (identical results by definition); unscoreable ones stay +inf, as in
    // the solo kernel.
    let mut b0 = 0usize;
    let mut b1 = 0usize;
    let mut b2 = 0usize;
    for class in 0..4usize {
        for (idx, &(phi, theta, w)) in cands.iter().enumerate() {
            let q = theta.len();
            if q.min(3) != class {
                continue;
            }
            let n = w.len();
            let start = phi.len().min(n);
            let scored = n - start;
            if scored == 0 {
                continue;
            }
            if q > MA_HIST {
                out[idx] = css(phi, theta, w, &mut scratch.solo);
                continue;
            }
            let mut window = scratch.pool.pop().unwrap_or_default();
            if window.len() < MA_HIST + BATCH_BLOCK {
                window.resize(MA_HIST + BATCH_BLOCK, 0.0);
            }
            scratch.lanes.push(LaneState {
                cand: idx,
                start,
                scored,
                q,
                th0: theta.first().copied().unwrap_or(0.0),
                th1: theta.get(1).copied().unwrap_or(0.0),
                x1: 0.0,
                x2: 0.0,
                sums: [0.0; 4],
                tail: 0.0,
                window,
            });
        }
        match class {
            0 => b0 = scratch.lanes.len(),
            1 => b1 = scratch.lanes.len(),
            2 => b2 = scratch.lanes.len(),
            _ => {}
        }
    }
    // A lone lane has no recurrences to interleave with; the solo kernel
    // (bit-identical per candidate by construction) skips the window
    // streaming overhead. Common in the tail of a lockstep sweep, when one
    // long warm-start chain outlives the rest.
    if scratch.lanes.len() == 1 {
        if let Some(lane) = scratch.lanes.pop() {
            let (phi, theta, w) = cands[lane.cand];
            out[lane.cand] = css(phi, theta, w, &mut scratch.solo);
            scratch.pool.push(lane.window);
        }
        return;
    }
    let max_blocks = scratch
        .lanes
        .iter()
        .map(|l| l.scored.div_ceil(BATCH_BLOCK))
        .max()
        .unwrap_or(0);
    for r in 0..max_blocks {
        let off = r * BATCH_BLOCK;
        // Stage 1: AR fill, one fused vectorised pass per live lane.
        for lane in scratch.lanes.iter_mut() {
            if off >= lane.scored {
                continue;
            }
            let len = (lane.scored - off).min(BATCH_BLOCK);
            let (phi, _, w) = cands[lane.cand];
            // `start + off >= phi.len()`, the `ar_fill` precondition.
            ar_fill(
                phi,
                w,
                lane.start + off,
                &mut lane.window[MA_HIST..MA_HIST + len],
            );
        }
        // Stage 2: MA. First-block ramps run per lane (innovation `i` has
        // only `i` predecessors -- the reference loop's guard region), then
        // the uniform region interleaves across lanes. `i_lo` is where
        // every live MA lane has cleared its ramp; `common` the shortest
        // live block.
        let mut i_lo = 0usize;
        let mut common = usize::MAX;
        for lane in scratch.lanes[b0..].iter_mut() {
            if off >= lane.scored {
                continue;
            }
            let len = (lane.scored - off).min(BATCH_BLOCK);
            let u0 = if r == 0 {
                let theta = cands[lane.cand].1;
                let u0 = lane.q.min(len);
                for i in 0..u0 {
                    let mut v = lane.window[MA_HIST + i];
                    for (j, &th) in theta[..i].iter().enumerate() {
                        v -= th * lane.window[MA_HIST + i - 1 - j];
                    }
                    lane.window[MA_HIST + i] = v;
                }
                u0
            } else {
                0
            };
            i_lo = i_lo.max(u0);
            common = common.min(len);
        }
        if common != usize::MAX && common > i_lo {
            // Pre-roll (first block only): lanes whose ramp ended before
            // the group's interleave start catch up serially; then refresh
            // the register-carried trailing state (at `i_lo = 0`, every
            // block after the first, it comes from the history prefix).
            if r == 0 {
                for lane in scratch.lanes[b0..].iter_mut() {
                    if off < lane.scored && lane.q < i_lo {
                        let theta = cands[lane.cand].1;
                        ma_serial(theta, &mut lane.window, lane.q, i_lo);
                    }
                }
            }
            for lane in scratch.lanes[b0..b2].iter_mut() {
                if off >= lane.scored {
                    continue;
                }
                lane.x1 = lane.window[MA_HIST + i_lo - 1];
                if lane.q == 2 {
                    lane.x2 = lane.window[MA_HIST + i_lo - 2];
                }
            }
            // The interleaved uniform region: one step of every lane's
            // recurrence per time index, each group a contiguous slice
            // with direct field access. A lane already drained this round
            // (shorter scored region) may be stepped on stale data --
            // harmless: its accumulators are final and its window is
            // rewritten before any future read, so only live lanes'
            // results exist.
            let (head, wides) = scratch.lanes.split_at_mut(b2);
            let (head, twos) = head.split_at_mut(b1);
            let ones = &mut head[b0..];
            for i in i_lo..common {
                for lane in ones.iter_mut() {
                    let v = lane.window[MA_HIST + i] - lane.th0 * lane.x1;
                    lane.window[MA_HIST + i] = v;
                    lane.x1 = v;
                }
                for lane in twos.iter_mut() {
                    let v = lane.window[MA_HIST + i] - lane.th0 * lane.x1 - lane.th1 * lane.x2;
                    lane.window[MA_HIST + i] = v;
                    lane.x2 = lane.x1;
                    lane.x1 = v;
                }
                for lane in wides.iter_mut() {
                    let theta = cands[lane.cand].1;
                    let mut v = lane.window[MA_HIST + i];
                    for (j, &th) in theta.iter().enumerate() {
                        v -= th * lane.window[MA_HIST + i - 1 - j];
                    }
                    lane.window[MA_HIST + i] = v;
                }
            }
            // Post-roll: lanes whose block outlasts the shortest finish
            // serially (only final blocks differ in length).
            for lane in scratch.lanes[b0..].iter_mut() {
                if off >= lane.scored {
                    continue;
                }
                let len = (lane.scored - off).min(BATCH_BLOCK);
                if len > common {
                    let theta = cands[lane.cand].1;
                    ma_serial(theta, &mut lane.window, common, len);
                }
            }
        } else if common != usize::MAX {
            // Degenerate round (a lane ends inside another's ramp): every
            // live lane runs serially -- same per-element arithmetic.
            for lane in scratch.lanes[b0..].iter_mut() {
                if off >= lane.scored {
                    continue;
                }
                let len = (lane.scored - off).min(BATCH_BLOCK);
                let u0 = if r == 0 { lane.q.min(len) } else { 0 };
                let theta = cands[lane.cand].1;
                ma_serial(theta, &mut lane.window, u0, len);
            }
        }
        // Stages 3 + 4: fold the block into the canonical reduction lanes
        // and slide the MA history to the window head.
        for lane in scratch.lanes.iter_mut() {
            if off >= lane.scored {
                continue;
            }
            let len = (lane.scored - off).min(BATCH_BLOCK);
            let mut chunks = lane.window[MA_HIST..MA_HIST + len].chunks_exact(4);
            for c in &mut chunks {
                lane.sums[0] += c[0] * c[0];
                lane.sums[1] += c[1] * c[1];
                lane.sums[2] += c[2] * c[2];
                lane.sums[3] += c[3] * c[3];
            }
            for &v in chunks.remainder() {
                lane.tail += v * v;
            }
            if off + len < lane.scored && lane.q > 0 {
                lane.window.copy_within(len..len + MA_HIST, 0);
            }
        }
    }
    for lane in scratch.lanes.iter() {
        out[lane.cand] =
            ((lane.sums[0] + lane.sums[1]) + (lane.sums[2] + lane.sums[3]) + lane.tail)
                / lane.scored as f64;
    }
}

/// Scalar reference implementations: the naive per-`t` loops the kernels
/// replaced, kept for bit-for-bit parity tests.
pub mod reference {
    /// The original per-`t` innovation recursion: one scalar accumulator,
    /// all lags folded in per time step, per-term MA guard.
    pub fn arma_innovations(phi: &[f64], theta: &[f64], w: &[f64], a: &mut Vec<f64>) -> usize {
        let p = phi.len();
        let n = w.len();
        let start = p.min(n);
        a.clear();
        a.resize(n, 0.0);
        for t in start..n {
            let mut v = w[t];
            for (i, &ph) in phi.iter().enumerate() {
                v -= ph * w[t - 1 - i];
            }
            for (j, &th) in theta.iter().enumerate() {
                if t >= start + 1 + j {
                    v -= th * a[t - 1 - j];
                }
            }
            a[t] = v;
        }
        start
    }

    /// Reference CSS using the recursion above and the *canonical* chunked
    /// [`super::sum_sq`] reduction (the reduction order is part of the
    /// engine's numeric contract, so the reference shares it).
    pub fn css(phi: &[f64], theta: &[f64], w: &[f64], a: &mut Vec<f64>) -> f64 {
        let start = arma_innovations(phi, theta, w, a);
        let scored = w.len() - start;
        if scored == 0 {
            return f64::INFINITY;
        }
        super::sum_sq(&a[start..]) / scored as f64
    }

    /// Plain serial sum of squares (the pre-kernel reduction), kept to
    /// document and measure the reduction-order change.
    pub fn sum_sq_serial(xs: &[f64]) -> f64 {
        xs.iter().map(|v| v * v).sum()
    }

    /// Scalar reference Holt-Winters recursion: one loop with a
    /// per-observation `match` on the seasonal class — the shape the model
    /// layer ran before the chunk kernels. Kept as the oracle of the
    /// bit-for-bit parity tests against [`super::ets_batch`], and as the
    /// bench baseline for the per-candidate speedup claim.
    #[allow(clippy::too_many_arguments)]
    pub fn ets_recursion(
        y: &[f64],
        class: super::holt_winters::SeasonalClass,
        alpha: f64,
        beta: f64,
        gamma: f64,
        phi: f64,
        has_trend: bool,
        mut level: f64,
        mut trend: f64,
        seasonal: &mut [f64],
    ) -> super::holt_winters::HwState {
        use super::holt_winters::{HwState, SeasonalClass};
        let m = seasonal.len();
        let diverged = |level: f64, trend: f64| HwState {
            level,
            trend,
            sse: None,
        };
        if class != SeasonalClass::None && m == 0 {
            return diverged(level, trend);
        }
        let mut sse = 0.0;
        for (t, &obs) in y.iter().enumerate() {
            let damped = phi * trend;
            match class {
                SeasonalClass::None => {
                    let fitted = level + damped;
                    let err = obs - fitted;
                    if !err.is_finite() {
                        return diverged(level, trend);
                    }
                    sse += err * err;
                    let prev_level = level;
                    level = alpha * obs + (1.0 - alpha) * (prev_level + damped);
                    if has_trend {
                        trend = beta * (level - prev_level) + (1.0 - beta) * damped;
                    }
                }
                SeasonalClass::Additive => {
                    let s_idx = t % m;
                    let s = seasonal[s_idx];
                    let fitted = level + damped + s;
                    let err = obs - fitted;
                    if !err.is_finite() {
                        return diverged(level, trend);
                    }
                    sse += err * err;
                    let prev_level = level;
                    level = alpha * (obs - s) + (1.0 - alpha) * (prev_level + damped);
                    seasonal[s_idx] = gamma * (obs - level) + (1.0 - gamma) * s;
                    if has_trend {
                        trend = beta * (level - prev_level) + (1.0 - beta) * damped;
                    }
                }
                SeasonalClass::Multiplicative => {
                    let s_idx = t % m;
                    let s = seasonal[s_idx];
                    let fitted = (level + damped) * s;
                    let err = obs - fitted;
                    if !err.is_finite() {
                        return diverged(level, trend);
                    }
                    sse += err * err;
                    let prev_level = level;
                    if s.abs() < 1e-12 {
                        return diverged(level, trend);
                    }
                    level = alpha * (obs / s) + (1.0 - alpha) * (prev_level + damped);
                    if level.abs() < 1e-12 {
                        return diverged(level, trend);
                    }
                    seasonal[s_idx] = gamma * (obs / level) + (1.0 - gamma) * s;
                    if has_trend {
                        trend = beta * (level - prev_level) + (1.0 - beta) * damped;
                    }
                }
            }
        }
        HwState {
            level,
            trend,
            sse: Some(sse),
        }
    }

    /// Scalar reference TBATS filter: the per-harmonic rotation angles are
    /// re-derived with `cos`/`sin` per harmonic **per observation** and the
    /// ARMA histories reallocated per call — the per-objective-call shape
    /// of the model layer's original `filter`/`advance` pair, which the
    /// rotation-table kernels exist to replace. Seasonal blocks are taken
    /// flattened (the values are identical to the nested form, and the
    /// angle expressions match [`super::trig_seasonal::rotation_table`]
    /// term for term, so results stay bit-identical to the kernels). Kept
    /// as the oracle of the parity tests against
    /// [`super::tbats_filter::run_batch`] and as the bench baseline.
    #[allow(clippy::too_many_arguments)]
    pub fn tbats_filter(
        z: &[f64],
        seasons: &[(f64, usize)],
        alpha: f64,
        beta: f64,
        phi: f64,
        use_trend: bool,
        gammas: &[(f64, f64)],
        ar: &[f64],
        ma: &[f64],
        level: f64,
        trend: f64,
        seasonal: &[f64],
    ) -> Option<f64> {
        let state = TbatsState {
            level,
            trend,
            seasonal: seasonal.to_vec(),
            d_hist: vec![0.0; ar.len()],
            e_hist: vec![0.0; ma.len()],
            sse: 0.0,
            alive: true,
        };
        let state = tbats_filter_state(
            z, seasons, alpha, beta, phi, use_trend, gammas, ar, ma, state,
        );
        state.alive.then_some(state.sse)
    }

    /// A TBATS filter's full state: what [`tbats_filter_state`] starts
    /// from and returns, mirroring the mutable fields of
    /// [`super::tbats_filter::TbatsLane`].
    #[derive(Debug, Clone)]
    pub struct TbatsState {
        /// Level.
        pub level: f64,
        /// Trend (never touched when the trend is off).
        pub trend: f64,
        /// Flattened interleaved seasonal blocks.
        pub seasonal: Vec<f64>,
        /// Recent `d` values, newest first.
        pub d_hist: Vec<f64>,
        /// Recent `e` values, newest first.
        pub e_hist: Vec<f64>,
        /// Accumulated squared one-step error.
        pub sse: f64,
        /// Cleared on numerical blow-up; the state is then the one the
        /// fatal observation found.
        pub alive: bool,
    }

    /// [`tbats_filter`] from an arbitrary start state, returning the final
    /// state — the whole of it, so parity tests can compare levels,
    /// seasonal states and ARMA histories as well as the SSE. A filter
    /// that diverges stops before the fatal observation touches anything
    /// but `alive`; a state that arrives dead is returned as it is.
    #[allow(clippy::too_many_arguments)]
    pub fn tbats_filter_state(
        z: &[f64],
        seasons: &[(f64, usize)],
        alpha: f64,
        beta: f64,
        phi: f64,
        use_trend: bool,
        gammas: &[(f64, f64)],
        ar: &[f64],
        ma: &[f64],
        mut state: TbatsState,
    ) -> TbatsState {
        let TbatsState {
            level,
            trend,
            seasonal,
            d_hist,
            e_hist,
            sse,
            alive,
        } = &mut state;
        for &obs in z {
            if !*alive {
                break;
            }
            let mut yhat = *level;
            if use_trend {
                yhat += phi * *trend;
            }
            let mut off = 0usize;
            for &(_, harmonics) in seasons {
                for j in 0..harmonics {
                    yhat += seasonal[off + 2 * j];
                }
                off += 2 * harmonics;
            }
            let mut d_hat = 0.0;
            for (i, &c) in ar.iter().enumerate() {
                if i < d_hist.len() {
                    d_hat += c * d_hist[i];
                }
            }
            for (j, &c) in ma.iter().enumerate() {
                if j < e_hist.len() {
                    d_hat += c * e_hist[j];
                }
            }
            let e = obs - (yhat + d_hat);
            if !e.is_finite() || e.abs() > 1e12 {
                *alive = false;
                break;
            }
            *sse += e * e;
            let d = d_hat + e;
            let damped = phi * *trend;
            let prev_level = *level;
            *level = prev_level + if use_trend { damped } else { 0.0 } + alpha * d;
            if use_trend {
                *trend = damped + beta * d;
            }
            let mut off = 0usize;
            for (&(period, harmonics), &(g1, g2)) in seasons.iter().zip(gammas) {
                for j in 0..harmonics {
                    let lambda = 2.0 * std::f64::consts::PI * (j + 1) as f64 / period;
                    let s = seasonal[off + 2 * j];
                    let s_star = seasonal[off + 2 * j + 1];
                    seasonal[off + 2 * j] = s * lambda.cos() + s_star * lambda.sin() + g1 * d;
                    seasonal[off + 2 * j + 1] = -s * lambda.sin() + s_star * lambda.cos() + g2 * d;
                }
                off += 2 * harmonics;
            }
            if !ar.is_empty() {
                d_hist.rotate_right(1);
                d_hist[0] = d;
            }
            if !ma.is_empty() {
                e_hist.rotate_right(1);
                e_hist[0] = e;
            }
        }
        state
    }
}

/// Holt-Winters recursions on lane-inner chunks: the state, lane and chunk
/// types that [`ets_batch`] runs every ETS objective evaluation through.
/// The per-step statements are transcribed statement-for-statement from
/// the model layer's recursion (kept as [`reference::ets_recursion`]),
/// with the per-step seasonal `match` hoisted into the chunk's type, so
/// fits are bit-identical; [`ets_batch`]'s docs give the packing rule and
/// why the result is exact.
pub mod holt_winters {
    /// Final state of a recursion pass.
    #[derive(Debug, Clone)]
    pub struct HwState {
        /// Final level.
        pub level: f64,
        /// Final trend (0 when trend is off).
        pub trend: f64,
        /// Sum of squared one-step errors, or `None` if the recursion
        /// diverged (non-finite error or degenerate multiplicative state).
        pub sse: Option<f64>,
    }

    /// Seasonality class of a lane — the key [`super::ets_batch`] groups
    /// lanes by, and the chunk's step variant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum SeasonalClass {
        /// No seasonality (SES / Holt / damped Holt).
        None,
        /// Additive Holt-Winters seasonality.
        Additive,
        /// Multiplicative Holt-Winters seasonality.
        Multiplicative,
    }

    /// One candidate's in-flight recursion state inside
    /// [`super::ets_batch`]: its series, unpacked smoothing parameters, and
    /// the level/trend/seasonal state carried step to step. `seasonal` is a
    /// caller-pooled window (empty for [`SeasonalClass::None`]); `sse` and
    /// `alive` start at `0.0` / `true` and are read back through
    /// [`result`](EtsLane::result) after the batch pass.
    #[derive(Debug)]
    pub struct EtsLane<'a> {
        /// Observations the recursion runs over.
        pub y: &'a [f64],
        /// Seasonal variant — selects the per-step statement block.
        pub class: SeasonalClass,
        /// Level smoothing parameter α.
        pub alpha: f64,
        /// Trend smoothing parameter β (ignored when trend is off).
        pub beta: f64,
        /// Seasonal smoothing parameter γ (ignored when seasonality is off).
        pub gamma: f64,
        /// Trend damping coefficient φ (1 when undamped).
        pub phi: f64,
        /// Whether the trend update runs.
        pub has_trend: bool,
        /// Current level state.
        pub level: f64,
        /// Current trend state.
        pub trend: f64,
        /// Per-phase seasonal states, updated in place.
        pub seasonal: &'a mut [f64],
        /// Accumulated one-step squared error.
        pub sse: f64,
        /// Cleared when the recursion diverges; a dead lane is skipped for
        /// the rest of the pass and reports `sse: None`.
        pub alive: bool,
    }

    impl EtsLane<'_> {
        /// The lane's final state: its level, trend, and SSE unless it
        /// diverged.
        pub fn result(&self) -> HwState {
            HwState {
                level: self.level,
                trend: self.trend,
                sse: self.alive.then_some(self.sse),
            }
        }
    }

    /// Lanes in the widest chunk: eight `f64`s, one AVX-512 register (two
    /// AVX2 registers) per statement.
    pub(super) const MAX_LANES: usize = 8;
    /// Lanes in the narrow chunk, for groups of at most this many.
    const NARROW_LANES: usize = 4;
    /// Largest seasonal period whose rows a chunk keeps in its stack block
    /// (daily 7 and hourly 24 fit); a longer one steps its own window.
    pub(super) const MAX_PERIOD: usize = 32;
    /// The period a pass's non-seasonal lanes group at when it holds no
    /// additive lane of a stack-block period. Any period is exact for them
    /// (their rows stay `+0.0`); above 1, the row a step writes is not the
    /// one the next step reads, so the rows stay off the level's chain.
    pub(super) const NON_SEASONAL_PERIOD: usize = 8;

    /// Run an additive chunk and a multiplicative chunk together in one
    /// time loop, each given as its member lanes and period; either may be
    /// empty. Members are live, non-empty lanes of one packing group, at
    /// most [`MAX_LANES`] of them, whose period fits the stack block. The
    /// lane count picks a chunk's width: one lane runs one wide, up to
    /// four run four wide, more run eight wide.
    pub(super) fn run_chunks(
        lanes: &mut [EtsLane<'_>],
        additive: (&[usize], usize),
        multiplicative: (&[usize], usize),
    ) {
        match additive.0.len() {
            0 => with_additive::<0>(lanes, additive, multiplicative),
            1 => with_additive::<1>(lanes, additive, multiplicative),
            2..=NARROW_LANES => with_additive::<NARROW_LANES>(lanes, additive, multiplicative),
            _ => with_additive::<MAX_LANES>(lanes, additive, multiplicative),
        }
    }

    /// [`run_chunks`] at additive width `W`: pack the additive chunk over a
    /// stack block, then the multiplicative one.
    fn with_additive<const W: usize>(
        lanes: &mut [EtsLane<'_>],
        (members, m): (&[usize], usize),
        multiplicative: (&[usize], usize),
    ) {
        let mut block = Chunk::<W, false>::block();
        let additive = Chunk::<W, false>::load(lanes, members, &mut block[..m]);
        match multiplicative.0.len() {
            0 => with_multiplicative::<W, 0>(additive, lanes, multiplicative),
            1 => with_multiplicative::<W, 1>(additive, lanes, multiplicative),
            2..=NARROW_LANES => {
                with_multiplicative::<W, NARROW_LANES>(additive, lanes, multiplicative)
            }
            _ => with_multiplicative::<W, MAX_LANES>(additive, lanes, multiplicative),
        }
    }

    /// [`run_chunks`] once the additive chunk is packed: pack the
    /// multiplicative one over its own stack block and run both.
    fn with_multiplicative<'a, const WA: usize, const WB: usize>(
        mut additive: Chunk<'a, '_, WA, false>,
        lanes: &mut [EtsLane<'a>],
        (members, m): (&[usize], usize),
    ) {
        let mut block = Chunk::<WB, true>::block();
        let mut multiplicative = Chunk::<WB, true>::load(lanes, members, &mut block[..m]);
        run_pair(&mut additive, &mut multiplicative, lanes);
    }

    /// Run `lanes[i]`, and `lanes[j]` when given — live seasonal lanes
    /// whose period exceeds [`MAX_PERIOD`] — as width-1 chunks in one time
    /// loop, each stepping its own seasonal window in place.
    pub(super) fn run_own_windows(lanes: &mut [EtsLane<'_>], i: usize, j: Option<usize>) {
        let mult = |lane: &EtsLane<'_>| lane.class == SeasonalClass::Multiplicative;
        // An additive lane leads a mixed pair, as in every other pair.
        let (i, j) = match j {
            Some(j) if mult(&lanes[i]) && !mult(&lanes[j]) => (j, Some(i)),
            _ => (i, j),
        };
        let kinds = (mult(&lanes[i]), j.map(|j| (j, mult(&lanes[j]))));
        // Detach the windows, so the chunks can step them while `lanes`
        // takes the rest of each lane's state when it retires.
        let first = std::mem::take(&mut lanes[i].seasonal);
        let second: &mut [f64] = match j {
            Some(j) => std::mem::take(&mut lanes[j].seasonal),
            None => &mut [],
        };
        let (mut spare_a, mut spare_b) = ([[0.0; 1]], [[0.0; 1]]);
        let (a, b) = (first.as_chunks_mut::<1>().0, second.as_chunks_mut::<1>().0);
        let (spare_a, spare_b) = (&mut spare_a[..], &mut spare_b[..]);
        match kinds {
            (false, None) => run_pair(
                &mut Chunk::<1, false>::own(lanes, i, a, spare_a),
                &mut Chunk::<0, true>::load(lanes, &[], &mut [[]]),
                lanes,
            ),
            (true, None) => run_pair(
                &mut Chunk::<0, false>::load(lanes, &[], &mut [[]]),
                &mut Chunk::<1, true>::own(lanes, i, a, spare_a),
                lanes,
            ),
            (false, Some((j, false))) => run_pair(
                &mut Chunk::<1, false>::own(lanes, i, a, spare_a),
                &mut Chunk::<1, false>::own(lanes, j, b, spare_b),
                lanes,
            ),
            (false, Some((j, true))) => run_pair(
                &mut Chunk::<1, false>::own(lanes, i, a, spare_a),
                &mut Chunk::<1, true>::own(lanes, j, b, spare_b),
                lanes,
            ),
            // A multiplicative lead has a multiplicative partner (see the
            // reordering above).
            (true, Some((j, _))) => run_pair(
                &mut Chunk::<1, true>::own(lanes, i, a, spare_a),
                &mut Chunk::<1, true>::own(lanes, j, b, spare_b),
                lanes,
            ),
        }
        lanes[i].seasonal = first;
        if let Some(j) = j {
            lanes[j].seasonal = second;
        }
    }

    /// Run two chunks to the end of every slot's series in one time loop,
    /// so their independent chains overlap, retiring each lane into its
    /// [`EtsLane`] as it finishes or dies.
    fn run_pair<'a, const WA: usize, const MA: bool, const WB: usize, const MB: bool>(
        a: &mut Chunk<'a, '_, WA, MA>,
        b: &mut Chunk<'a, '_, WB, MB>,
        lanes: &mut [EtsLane<'_>],
    ) {
        let mut t = 0usize;
        // Idle slots of both chunks follow one live lane's series, so no
        // slot runs out of observations before `end`.
        while let Some(follow) = a.live_series().or(b.live_series()) {
            a.follow(follow);
            b.follow(follow);
            let end = a.end().min(b.end());
            while t < end && a.n_live + b.n_live > 0 {
                let (stop, a_ok, b_ok) = step_until_guard(a, b, t, end);
                t = stop;
                if t < end {
                    if !a_ok {
                        a.careful_step(t, lanes);
                    }
                    if !b_ok {
                        b.careful_step(t, lanes);
                    }
                    (a.k, b.k) = (next_phase(a.k, a.m), next_phase(b.k, b.m));
                    t += 1;
                }
            }
            a.retire_finished(t, lanes);
            b.retire_finished(t, lanes);
        }
    }

    /// Steps `t..end` while every slot of both chunks passes every guard,
    /// with the per-lane state in registers; returns the first step whose
    /// guard failed, or `end`, and whether each chunk passed (and so
    /// committed) that step.
    fn step_until_guard<const WA: usize, const MA: bool, const WB: usize, const MB: bool>(
        a: &mut Chunk<'_, '_, WA, MA>,
        b: &mut Chunk<'_, '_, WB, MB>,
        mut t: usize,
        end: usize,
    ) -> (usize, bool, bool) {
        // Locals the compiler can keep in registers: nothing the loop
        // stores (state, phases, seasonal rows) aliases what it only reads.
        let (mut sa, mut sb) = (a.state, b.state);
        let (mut ka, mut kb) = (a.k, b.k);
        let (ma, mb) = (a.m, b.m);
        let ya: [&[f64]; WA] = std::array::from_fn(|l| &a.y[l][..end]);
        let yb: [&[f64]; WB] = std::array::from_fn(|l| &b.y[l][..end]);
        let (pa, pb) = (a.params, b.params);
        let (rows_a, rows_b) = (&mut *a.seasonal, &mut *b.seasonal);
        let (mut a_ok, mut b_ok) = (true, true);
        while t < end {
            a_ok = step::<WA, MA>(&pa, &mut rows_a[ka], &mut sa, &ya, t);
            b_ok = step::<WB, MB>(&pb, &mut rows_b[kb], &mut sb, &yb, t);
            if !(a_ok && b_ok) {
                break;
            }
            (ka, kb) = (next_phase(ka, ma), next_phase(kb, mb));
            t += 1;
        }
        (a.state, b.state) = (sa, sb);
        (a.k, b.k) = (ka, kb);
        (t, a_ok, b_ok)
    }

    /// The seasonal phase after `k`: a counter wrapping at `m`, the
    /// sequence `t % m` without the division.
    #[inline(always)]
    fn next_phase(k: usize, m: usize) -> usize {
        if k + 1 == m {
            0
        } else {
            k + 1
        }
    }

    /// Step `t` for every slot of a chunk, each statement of the
    /// recursion's step a loop over the slots; `row` is the chunk's
    /// seasonal row for this step's phase. The step is computed before it
    /// is committed: if any slot fails a guard, nothing changes and this
    /// returns `false`.
    #[inline(always)]
    fn step<const W: usize, const MULT: bool>(
        p: &Params<W>,
        row: &mut [f64; W],
        st: &mut State<W>,
        y: &[&[f64]; W],
        t: usize,
    ) -> bool {
        let mut obs = [0.0f64; W];
        for l in 0..W {
            obs[l] = y[l][t];
        }
        let s = *row;
        let mut damped = [0.0f64; W];
        let mut base = [0.0f64; W];
        let mut err = [0.0f64; W];
        let mut level = [0.0f64; W];
        for l in 0..W {
            damped[l] = p.phi[l] * st.trend[l];
            base[l] = st.level[l] + damped[l];
        }
        if MULT {
            for l in 0..W {
                err[l] = obs[l] - base[l] * s[l];
                level[l] = p.alpha[l] * (obs[l] / s[l]) + p.one_minus_alpha[l] * base[l];
            }
        } else {
            for l in 0..W {
                err[l] = obs[l] - (base[l] + s[l]);
                level[l] = p.alpha[l] * (obs[l] - s[l]) + p.one_minus_alpha[l] * base[l];
            }
        }
        let mut ok = true;
        for l in 0..W {
            ok &= err[l].is_finite();
            // The recursion's guards, negated: a NaN factor or level
            // passes them there too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if MULT {
                ok &= !(s[l].abs() < 1e-12) & !(level[l].abs() < 1e-12);
            }
        }
        if !ok {
            return false;
        }
        for l in 0..W {
            st.sse[l] += err[l] * err[l];
            let fresh = if MULT {
                obs[l] / level[l]
            } else {
                obs[l] - level[l]
            };
            row[l] = p.gamma[l] * fresh + p.one_minus_gamma[l] * s[l];
            let trend = p.beta[l] * (level[l] - st.level[l]) + p.one_minus_beta[l] * damped[l];
            st.trend[l] = if p.has_trend[l] { trend } else { st.trend[l] };
        }
        st.level = level;
        true
    }

    /// A chunk's per-lane recursion state, copied into registers for the
    /// stepping loop.
    #[derive(Clone, Copy)]
    struct State<const W: usize> {
        level: [f64; W],
        trend: [f64; W],
        sse: [f64; W],
    }

    /// A chunk's per-lane parameters, read-only while it steps.
    #[derive(Clone, Copy)]
    struct Params<const W: usize> {
        alpha: [f64; W],
        beta: [f64; W],
        gamma: [f64; W],
        phi: [f64; W],
        /// `1 − α`, `1 − β` and `1 − γ`: the values the recursion computes
        /// every observation.
        one_minus_alpha: [f64; W],
        one_minus_beta: [f64; W],
        one_minus_gamma: [f64; W],
        /// Whether the slot's trend update runs; the others keep theirs.
        has_trend: [bool; W],
    }

    /// Up to `W` lanes of one packing group in structure-of-arrays form;
    /// index `l` of every row is one lane slot. `MULT` selects the
    /// multiplicative step. Seasonal phase `i` of every lane sits in row
    /// `seasonal[i]`; a non-seasonal lane's rows are `+0.0` with γ = 0.
    /// Empty and retired slots hold the step's fixed point (see
    /// [`super::ets_batch`]) and read a live lane's observations.
    struct Chunk<'a, 's, const W: usize, const MULT: bool> {
        /// The pass index of each slot's lane.
        lane: [usize; W],
        /// Slots still running, and how many.
        live: [bool; W],
        n_live: usize,
        /// Each slot's observations.
        y: [&'a [f64]; W],
        /// The group's seasonal period, and the current step's phase.
        m: usize,
        k: usize,
        params: Params<W>,
        /// The `m` seasonal rows: part of a stack block the chunk copies
        /// its lanes' windows into, or a lone lane's own window, detached
        /// from the lane for the pass.
        seasonal: &'s mut [[f64; W]],
        /// For a chunk over its lane's own window, the parked row it steps
        /// once that lane retires, so the window keeps the lane's final
        /// states; empty otherwise.
        spare: &'s mut [[f64; W]],
        state: State<W>,
    }

    impl<'a, 's, const W: usize, const MULT: bool> Chunk<'a, 's, W, MULT> {
        /// The fixed point of an empty or retired slot: every parameter
        /// zero, and level and seasonal state zero (additive) or one
        /// (multiplicative), so each step returns the slot to itself and
        /// passes every guard on any finite observation.
        const IDLE: f64 = if MULT { 1.0 } else { 0.0 };

        /// A stack block of idle seasonal rows, one per phase up to
        /// [`MAX_PERIOD`].
        fn block() -> [[f64; W]; MAX_PERIOD] {
            [[Self::IDLE; W]; MAX_PERIOD]
        }

        /// Pack `members` (live, non-empty lanes of one group) into a chunk
        /// over `seasonal`, one idle row per phase of the group's period:
        /// each seasonal lane's window is copied into its slot.
        fn load(
            lanes: &[EtsLane<'a>],
            members: &[usize],
            seasonal: &'s mut [[f64; W]],
        ) -> Chunk<'a, 's, W, MULT> {
            let mut c = Chunk {
                lane: [0; W],
                live: [false; W],
                n_live: 0,
                y: [&[]; W],
                m: seasonal.len(),
                k: 0,
                params: Params {
                    alpha: [0.0; W],
                    beta: [0.0; W],
                    gamma: [0.0; W],
                    phi: [0.0; W],
                    one_minus_alpha: [1.0; W],
                    one_minus_beta: [1.0; W],
                    one_minus_gamma: [1.0; W],
                    has_trend: [false; W],
                },
                seasonal,
                spare: &mut [],
                state: State {
                    level: [Self::IDLE; W],
                    trend: [0.0; W],
                    sse: [0.0; W],
                },
            };
            for (l, &i) in members.iter().enumerate() {
                let lane = &lanes[i];
                c.lane[l] = i;
                c.live[l] = true;
                c.n_live += 1;
                c.y[l] = lane.y;
                let p = &mut c.params;
                p.alpha[l] = lane.alpha;
                p.beta[l] = lane.beta;
                p.phi[l] = lane.phi;
                p.one_minus_alpha[l] = 1.0 - lane.alpha;
                p.one_minus_beta[l] = 1.0 - lane.beta;
                p.has_trend[l] = lane.has_trend;
                c.state.level[l] = lane.level;
                c.state.trend[l] = lane.trend;
                c.state.sse[l] = lane.sse;
                // A non-seasonal lane rides with γ = 0 over the idle
                // `+0.0` rows of an additive chunk, whatever window it was
                // handed.
                if lane.class != SeasonalClass::None {
                    c.params.gamma[l] = lane.gamma;
                    c.params.one_minus_gamma[l] = 1.0 - lane.gamma;
                    for (row, &s) in c.seasonal.iter_mut().zip(lane.seasonal.iter()) {
                        row[l] = s;
                    }
                }
            }
            c
        }

        /// A live slot's series, if any slot is live.
        fn live_series(&self) -> Option<&'a [f64]> {
            (0..W).find(|&l| self.live[l]).map(|l| self.y[l])
        }

        /// Point every idle slot at `y`.
        fn follow(&mut self, y: &'a [f64]) {
            for l in 0..W {
                if !self.live[l] {
                    self.y[l] = y;
                }
            }
        }

        /// The shortest live series' length (`usize::MAX` with no live
        /// slot).
        fn end(&self) -> usize {
            (0..W)
                .filter(|&l| self.live[l])
                .map(|l| self.y[l].len())
                .min()
                .unwrap_or(usize::MAX)
        }

        /// Step `t` one live slot at a time with the recursion's early
        /// returns, retiring each slot whose guard fails in the state that
        /// return leaves. Idle slots stay at their fixed point.
        #[cold]
        fn careful_step(&mut self, t: usize, lanes: &mut [EtsLane<'_>]) {
            let k = self.k;
            for l in 0..W {
                if !self.live[l] {
                    continue;
                }
                let (p, st) = (&self.params, &mut self.state);
                let obs = self.y[l][t];
                let s = self.seasonal[k][l];
                let damped = p.phi[l] * st.trend[l];
                let prev_level = st.level[l];
                let fitted = if MULT {
                    (prev_level + damped) * s
                } else {
                    prev_level + damped + s
                };
                let err = obs - fitted;
                if !err.is_finite() {
                    self.retire(l, false, lanes);
                    continue;
                }
                st.sse[l] += err * err;
                if MULT && s.abs() < 1e-12 {
                    self.retire(l, false, lanes);
                    continue;
                }
                let fresh = if MULT { obs / s } else { obs - s };
                let level = p.alpha[l] * fresh + p.one_minus_alpha[l] * (prev_level + damped);
                st.level[l] = level;
                if MULT && level.abs() < 1e-12 {
                    self.retire(l, false, lanes);
                    continue;
                }
                let fresh = if MULT { obs / level } else { obs - level };
                self.seasonal[k][l] = p.gamma[l] * fresh + p.one_minus_gamma[l] * s;
                if p.has_trend[l] {
                    st.trend[l] = p.beta[l] * (level - prev_level) + p.one_minus_beta[l] * damped;
                }
            }
        }

        /// Retire, alive, every live slot whose series ends at `t`.
        fn retire_finished(&mut self, t: usize, lanes: &mut [EtsLane<'_>]) {
            for l in 0..W {
                if self.live[l] && self.y[l].len() <= t {
                    self.retire(l, true, lanes);
                }
            }
        }

        /// Write slot `l`'s state back into its lane (`alive` as given) and
        /// turn the slot idle.
        #[cold]
        fn retire(&mut self, l: usize, alive: bool, lanes: &mut [EtsLane<'_>]) {
            let lane = &mut lanes[self.lane[l]];
            lane.level = self.state.level[l];
            lane.trend = self.state.trend[l];
            lane.sse = self.state.sse[l];
            lane.alive = alive;
            // A detached own window is empty here: its rows already hold
            // the lane's states.
            if lane.class != SeasonalClass::None {
                for (s, row) in lane.seasonal.iter_mut().zip(self.seasonal.iter()) {
                    *s = row[l];
                }
            }
            self.live[l] = false;
            self.n_live -= 1;
            let p = &mut self.params;
            for row in [&mut p.alpha, &mut p.beta, &mut p.gamma, &mut p.phi] {
                row[l] = 0.0;
            }
            for row in [
                &mut p.one_minus_alpha,
                &mut p.one_minus_beta,
                &mut p.one_minus_gamma,
            ] {
                row[l] = 1.0;
            }
            p.has_trend[l] = false;
            self.state.level[l] = Self::IDLE;
            self.state.trend[l] = 0.0;
            self.state.sse[l] = 0.0;
            // A slot that stepped its lane's own window leaves it with the
            // lane's final states and idles on the spare row instead.
            if !self.spare.is_empty() {
                self.seasonal = std::mem::take(&mut self.spare);
                (self.m, self.k) = (self.seasonal.len(), 0);
            }
            for row in self.seasonal.iter_mut() {
                row[l] = Self::IDLE;
            }
        }
    }

    impl<'a, 's, const MULT: bool> Chunk<'a, 's, 1, MULT> {
        /// A width-1 chunk over lane `i`'s own window, detached from the
        /// lane as `seasonal`, with `spare` to park on once the lane
        /// retires.
        fn own(
            lanes: &[EtsLane<'a>],
            i: usize,
            seasonal: &'s mut [[f64; 1]],
            spare: &'s mut [[f64; 1]],
        ) -> Chunk<'a, 's, 1, MULT> {
            Chunk {
                spare,
                ..Chunk::load(lanes, &[i], seasonal)
            }
        }
    }
}

/// Score a pass's Holt-Winters lanes together, each bit-identical to
/// [`reference::ets_recursion`] and independent of pass membership and
/// order. This is the one ETS recursion kernel: a grid round's lanes, a
/// single fit's objective evaluations and its final pass, and a frozen
/// re-score all run through it, a lone lane as a pass of one. Returns the
/// number of chunks run.
///
/// # The lane-inner pass
///
/// One lane's step is a serial chain — trend → damped trend → level →
/// trend — of seven floating-point latencies. Run one lane at a time, or
/// interleaved step by step across lanes with a per-lane class dispatch
/// and `t % m`, few chains overlap. So the pass packs its lanes into
/// structure-of-arrays chunks and runs every statement of the step as a
/// loop over a chunk's lanes, so up to eight chains advance side by side
/// in vector registers, and it steps two chunks in one loop, so their
/// chains overlap as well.
///
/// # Packing
///
/// Lanes are grouped by whether they are multiplicative and by seasonal
/// period; a non-seasonal lane joins the first additive group, or a group
/// of its own at period 8 when there is none (any period is exact for it,
/// and period 1 would put its seasonal row on the level's chain).
/// Multiplicative lanes never share a chunk with additive ones, so no lane
/// pays for a division it does not use. Each group splits evenly into
/// chunks of at most eight lanes, and the lane count picks a chunk's width:
/// one lane runs one wide; up to four run four wide; more run eight wide.
/// Groups come additive first, and the last additive chunk steps beside the
/// first multiplicative one; any other chunk runs alone. So a lone lane is
/// a width-1 chunk, a pass of an additive and a multiplicative lane steps
/// both in one loop, and an estate round's additive chunk steps beside its
/// multiplicative one. A chunk copies its lanes' seasonal windows into a
/// stack block of 32 rows; a seasonal lane whose period exceeds that runs as
/// a width-1 chunk over its own window, in place, two such lanes stepping
/// in one loop. Lanes that arrive dead or with an empty series are skipped;
/// a seasonal lane with an empty window dies at once, as in the reference.
///
/// # Why the result is exact
///
/// - A non-seasonal lane rides as an additive lane over `+0.0` seasonal
///   states with γ = 0. Its fitted value `(level + damped) + 0.0` differs
///   from the reference's `level + damped` only by turning `−0.0` into
///   `+0.0`, so its error can differ only in the sign of a zero, and
///   `err·err` is `+0.0` either way. Its level update reads `obs − 0.0`,
///   which is `obs` for every finite `obs`. Its seasonal states stay `+0.0`
///   (`0·x + 1·(+0.0)`) and are never written back, so the window it was
///   handed is ignored, as the reference ignores it.
/// - A no-trend lane keeps its trend through a per-lane select.
/// - `1 − α`, `1 − β` and `1 − γ` are computed once per chunk: the same
///   IEEE values the reference computes every observation.
/// - The seasonal phase is a counter wrapping at `m`, the sequence of
///   `t % m`.
/// - An empty or retired slot holds a fixed point of the step — all zeros
///   in an additive chunk, level = seasonal state = 1 with α = β = γ = Φ =
///   0 in a multiplicative one — that passes every guard on any finite
///   observation. It reads a live lane's observations (of either chunk in
///   the pair), so the stepping loop needs no per-lane length check, and
///   it is never written back. A retired lane that stepped its own window
///   leaves it: its slot parks on a spare row.
///
/// # Guards and series ends
///
/// A pair of chunks steps in a tight loop that computes each chunk's step
/// before committing it. If any slot of a chunk fails a guard, that
/// chunk's step is redone one live lane at a time with the recursion's
/// early returns, and each failing lane retires in the state the reference
/// leaves: after a non-finite error nothing is updated; after a
/// multiplicative `|s| < 1e-12` the SSE is updated and the level is not;
/// after `|level| < 1e-12` the SSE and level are updated and the seasonal
/// states and trend are not. A lane that reaches the end of a shorter
/// series retires alive. A pass allocates nothing.
pub fn ets_batch(lanes: &mut [holt_winters::EtsLane<'_>]) -> usize {
    use holt_winters::{EtsLane, SeasonalClass, MAX_LANES, MAX_PERIOD, NON_SEASONAL_PERIOD};
    for lane in lanes.iter_mut() {
        if lane.class != SeasonalClass::None && lane.seasonal.is_empty() {
            lane.alive = false;
        }
    }
    let running = |lane: &EtsLane<'_>| lane.alive && !lane.y.is_empty();
    let fits = |lane: &EtsLane<'_>| lane.seasonal.len() <= MAX_PERIOD;
    let home = lanes
        .iter()
        .find(|l| l.class == SeasonalClass::Additive && running(l) && fits(l))
        .map_or(NON_SEASONAL_PERIOD, |l| l.seasonal.len());
    // A running lane's packing group, (multiplicative, period); none for a
    // seasonal lane whose period does not fit the stack block.
    let group = |lane: &EtsLane<'_>| match lane.class {
        _ if !running(lane) => None,
        SeasonalClass::None => Some((false, home)),
        _ if !fits(lane) => None,
        class => Some((class == SeasonalClass::Multiplicative, lane.seasonal.len())),
    };
    // Lanes past the stack block, two at a time over their own windows.
    let mut chunks = 0;
    let mut waiting = None;
    for i in 0..lanes.len() {
        if running(&lanes[i]) && group(&lanes[i]).is_none() {
            match waiting.take() {
                Some(first) => holt_winters::run_own_windows(lanes, first, Some(i)),
                None => waiting = Some(i),
            }
            chunks += 1;
        }
    }
    if let Some(first) = waiting {
        holt_winters::run_own_windows(lanes, first, None);
    }
    // Groups in key order, additive before multiplicative: running one
    // changes only its own lanes' keys. The last additive chunk waits in
    // `held` to step beside the first multiplicative one.
    let mut held: Option<([usize; MAX_LANES], usize, usize)> = None;
    let mut done: Option<(bool, usize)> = None;
    while let Some(key) = lanes
        .iter()
        .filter_map(group)
        .filter(|&key| done.is_none_or(|d| key > d))
        .min()
    {
        done = Some(key);
        let (mult, m) = key;
        let size = lanes.iter().filter(|l| group(l) == Some(key)).count();
        let n_chunks = size.div_ceil(MAX_LANES);
        let mut members = [0usize; MAX_LANES];
        let (mut n, mut c) = (0, 0);
        for i in 0..lanes.len() {
            if group(&lanes[i]) != Some(key) {
                continue;
            }
            members[n] = i;
            n += 1;
            if n == size / n_chunks + usize::from(c < size % n_chunks) {
                let previous = held.take();
                if let Some((first, n_first, m_first)) = previous.filter(|_| mult) {
                    holt_winters::run_chunks(
                        lanes,
                        (&first[..n_first], m_first),
                        (&members[..n], m),
                    );
                } else {
                    if let Some((first, n_first, m_first)) = previous {
                        run_alone(lanes, &first[..n_first], (false, m_first));
                    }
                    match mult {
                        false => held = Some((members, n, m)),
                        true => run_alone(lanes, &members[..n], key),
                    }
                }
                (n, c, chunks) = (0, c + 1, chunks + 1);
            }
        }
    }
    if let Some((first, n, m)) = held {
        run_alone(lanes, &first[..n], (false, m));
    }
    chunks
}

/// Run one packed chunk of `group` with no partner.
fn run_alone(lanes: &mut [holt_winters::EtsLane<'_>], members: &[usize], (mult, m): (bool, usize)) {
    match mult {
        false => holt_winters::run_chunks(lanes, (members, m), (&[], 1)),
        true => holt_winters::run_chunks(lanes, (&[], 1), (members, m)),
    }
}

/// Trigonometric-seasonal rotation kernel for the TBATS filter.
///
/// A TBATS seasonal block of `h` harmonics is a length-`2h` interleaved
/// state `[s₁, s₁*, s₂, s₂*, …]` advanced each step by a fixed rotation
/// plus an innovation nudge. The rotation angles depend only on the
/// period, so the caller precomputes `(cos λⱼ, sin λⱼ)` once per filter
/// pass (`rotation_table`) instead of evaluating `cos`/`sin` per
/// harmonic *per observation* — the dominant cost of the original filter.
pub mod trig_seasonal {
    /// Precompute `(cos λⱼ, sin λⱼ)` for harmonics `j = 1..=h` of the given
    /// period, `λⱼ = 2πj / period`.
    pub fn rotation_table(period: f64, harmonics: usize) -> Vec<(f64, f64)> {
        (1..=harmonics)
            .map(|j| {
                let lambda = 2.0 * std::f64::consts::PI * j as f64 / period;
                (lambda.cos(), lambda.sin())
            })
            .collect()
    }

    /// Sum of the even-indexed (in-phase) states — the block's contribution
    /// to the one-step prediction.
    #[inline]
    pub fn in_phase_sum(block: &[f64]) -> f64 {
        block.chunks_exact(2).map(|pair| pair[0]).sum()
    }

    /// Advance one interleaved seasonal block by its rotation table plus
    /// the innovation nudge `(g1·d, g2·d)` per harmonic. `block.len()`
    /// must be `2 * table.len()`.
    #[inline]
    pub fn advance_block(block: &mut [f64], table: &[(f64, f64)], g1: f64, g2: f64, d: f64) {
        for (pair, &(cos_l, sin_l)) in block.chunks_exact_mut(2).zip(table) {
            let s = pair[0];
            let s_star = pair[1];
            pair[0] = s * cos_l + s_star * sin_l + g1 * d;
            pair[1] = -s * sin_l + s_star * cos_l + g2 * d;
        }
    }
}

/// Fused TBATS filter kernels: the innovations-state-space recurrence with
/// the Fourier-basis evaluation hoisted out of the per-point loop.
///
/// The model layer's original filter re-derived the per-harmonic rotation
/// tables and reallocated the ARMA histories on every objective call; here
/// a lane is built once per evaluation from caller-pooled state (the
/// rotation tables come from a per-task cache shared across candidates
/// with the same `{seasonal_periods, harmonics}` signature), and the
/// per-observation loop is a pure state recurrence.
/// [`run_batch`](tbats_filter::run_batch) is the one TBATS filter kernel: a
/// grid round's lanes, a single fit's objective evaluations and its final
/// pass, and a frozen re-score all run through it, a lone lane as a pass of
/// one.
///
/// # The lane-inner pass
///
/// One lane's step is a serial latency chain — `d` → level → in-phase
/// seasonal sum → `e` → `d` — that no out-of-order core can overlap with
/// itself, and interleaving whole lane steps time-outer does not overlap
/// it with other lanes either: a seasonal step is longer than the
/// reorder window. `run_batch` therefore turns the loop inside out. It
/// packs up to `W` lanes into a structure-of-arrays chunk and runs every
/// statement of the step as a loop over the chunk's lanes, so the lanes'
/// chains advance side by side in one vector register per statement.
///
/// The lanes of a round rarely share a shape (trend, ARMA orders,
/// harmonics per block differ across the configuration lattice), so a
/// chunk is padded to the elementwise maximum of its lanes' shapes: trend
/// on if any lane has it, AR and MA order, and per seasonal block the
/// largest harmonic count. A lane's real harmonics keep their block order;
/// padded harmonics follow them inside the block.
///
/// # Why padding is exact
///
/// Every padded term is a product of exact zeros: a zero coefficient,
/// rotation table or γ times a zero state. A no-trend lane's trend state,
/// Φ and β are `+0.0`, and so are a padded harmonic's states, table and
/// γ pair and a missing AR or MA term's coefficient and history. Those
/// states stay `+0.0` through every step (`0·0 + 0·0 + 0·d = +0.0` for
/// finite `d`, and `d` is finite while the lane lives). Adding a `+0.0`
/// term can change a partial sum only by turning `−0.0` into `+0.0`, and
/// only inside `ŷ`: `ŷ` reaches the state solely through `ŷ + d̂`, where
/// `d̂` is a sum that starts at `+0.0` and so is never `−0.0` — the sign of
/// a zero `ŷ` cannot change that sum. The level update of a no-trend lane
/// is already `prev + 0.0 + α·d` in the reference step, and the padded
/// damped trend is exactly that `+0.0`. So each lane executes its own
/// arithmetic, statement for statement: SSEs, levels, trends, seasonal
/// states and ARMA histories are bit-identical to
/// [`reference::tbats_filter_state`], whatever the chunk holds — a lone
/// lane among three idle slots included.
///
/// # Stepping
///
/// Between series ends a chunk steps in a tight loop with its per-lane
/// scalars in registers. The next step's `ŷ` — level, damped trend, then
/// the in-phase states in slot order, the reference step's order — is summed as
/// the states come out of their rotations, so it never makes a round trip
/// through memory; being an in-order sum, it also keeps the compiler from
/// vectorising across harmonic slots instead of across lanes. A step whose
/// guard fails for any lane is redone as one careful step that retires
/// the failed lanes first.
///
/// # Dead and finished lanes
///
/// A lane whose error fails the guard is retired with its state as the
/// fatal observation found it (`alive` cleared), exactly as the reference
/// step's early return leaves it; a lane whose series ends is retired
/// alive. A retired slot is zeroed — state, coefficients and observations
/// — so it computes exact zeros for the rest of the chunk and can never
/// trip the guard again. Lanes of unequal length share a chunk this way.
/// Lanes that arrive dead are skipped.
///
/// # The envelope
///
/// A chunk carries at most [`MAX_BLOCKS`](tbats_filter::MAX_BLOCKS)
/// seasonal blocks of at most
/// [`MAX_HARMONICS`](tbats_filter::MAX_HARMONICS) harmonics each, and AR and
/// MA orders of at most [`MAX_ARMA_ORDER`](tbats_filter::MAX_ARMA_ORDER);
/// no grid builds a wider shape, and the model layer rejects one when a fit
/// opens ([`in_envelope`](tbats_filter::in_envelope)). A lane outside the
/// envelope, or whose state windows are not sized to its shape, comes back
/// dead with its state untouched (under `strict-invariants` it fails an
/// invariant instead). The chunk lives on the stack: a pass allocates
/// nothing.
pub mod tbats_filter {
    /// Lanes per chunk: one AVX2 register of `f64`s per statement.
    const W: usize = 4;
    /// Seasonal blocks a lane may carry (the grids use at most two
    /// periods).
    pub const MAX_BLOCKS: usize = 2;
    /// Harmonics per block a lane may carry (the grids use at most three).
    pub const MAX_HARMONICS: usize = 8;
    /// AR and MA order a lane's error model may have (the grids use at most
    /// ARMA(1,1)).
    pub const MAX_ARMA_ORDER: usize = 1;
    /// Harmonic slots of the widest padded chunk.
    const MAX_SLOTS: usize = MAX_BLOCKS * MAX_HARMONICS;

    /// One candidate's in-flight filter state inside [`run_batch`].
    /// Seasonal blocks are flattened into one caller-pooled
    /// window, segmented by `2 × tables[i].len()`; the in-phase sums and
    /// rotations visit the segments in block order, so flattening changes
    /// no arithmetic. `d_hist` / `e_hist` are newest-first windows sized
    /// `ar.len()` / `ma.len()`; `sse` and `alive` start at `0.0` / `true`.
    #[derive(Debug)]
    pub struct TbatsLane<'a> {
        /// Box-Cox-scale observations the filter runs over.
        pub z: &'a [f64],
        /// Level smoothing α.
        pub alpha: f64,
        /// Trend smoothing β (ignored when trend is off).
        pub beta: f64,
        /// Trend damping Φ (1 when undamped, 0 without trend).
        pub phi: f64,
        /// Whether the trend state participates.
        pub use_trend: bool,
        /// Seasonal smoothing pairs (γ₁, γ₂), one per block.
        pub gammas: &'a [(f64, f64)],
        /// ARMA error AR coefficients.
        pub ar: &'a [f64],
        /// ARMA error MA coefficients.
        pub ma: &'a [f64],
        /// Per-block rotation tables from
        /// [`super::trig_seasonal::rotation_table`].
        pub tables: &'a [Vec<(f64, f64)>],
        /// Current level state.
        pub level: f64,
        /// Current trend state.
        pub trend: f64,
        /// Flattened interleaved seasonal blocks `[s₁, s*₁, …]`.
        pub seasonal: &'a mut [f64],
        /// Recent `d` values, newest first.
        pub d_hist: &'a mut [f64],
        /// Recent `e` values, newest first.
        pub e_hist: &'a mut [f64],
        /// Accumulated squared one-step error.
        pub sse: f64,
        /// Cleared on numerical blow-up; a dead lane is skipped for the
        /// rest of the pass and reports `None`.
        pub alive: bool,
    }

    impl TbatsLane<'_> {
        /// The filter SSE, or `None` if the lane diverged.
        pub fn result(&self) -> Option<f64> {
            self.alive.then_some(self.sse)
        }
    }

    /// Whether a lane of this shape — its blocks' harmonic counts and its
    /// AR and MA orders — fits the kernel's envelope (see the module docs).
    pub fn in_envelope(
        harmonics: impl ExactSizeIterator<Item = usize>,
        ar: usize,
        ma: usize,
    ) -> bool {
        let blocks = harmonics.len();
        blocks <= MAX_BLOCKS
            && { harmonics }.all(|h| h <= MAX_HARMONICS)
            && ar <= MAX_ARMA_ORDER
            && ma <= MAX_ARMA_ORDER
    }

    /// Score a pass's lanes together: chunks of up to `W` lanes, in pass
    /// order, run lane-inner over their padded superset shape (see the
    /// module docs); the last chunk may hold a single lane. Lanes may
    /// differ in shape and series length; every lane's results and final
    /// state are bit-identical to [`super::reference::tbats_filter_state`]
    /// and independent of pass membership and order. A lane outside the
    /// envelope comes back dead, its state untouched.
    pub fn run_batch(lanes: &mut [TbatsLane<'_>]) {
        let mut members = [0usize; W];
        let mut n = 0;
        for i in 0..lanes.len() {
            let lane = &mut lanes[i];
            if !lane.alive {
                continue;
            }
            if !chunkable(lane) {
                crate::invariant!(
                    false,
                    "TBATS lane outside the kernel's envelope: {} blocks, harmonics {:?}, \
                     ARMA({}, {}), windows {}/{}/{}",
                    lane.tables.len(),
                    lane.tables.iter().map(Vec::len).collect::<Vec<_>>(),
                    lane.ar.len(),
                    lane.ma.len(),
                    lane.seasonal.len(),
                    lane.d_hist.len(),
                    lane.e_hist.len()
                );
                lane.alive = false;
                continue;
            }
            if lane.z.is_empty() {
                continue;
            }
            members[n] = i;
            n += 1;
            if n == W {
                run_chunk(lanes, &members);
                n = 0;
            }
        }
        if n > 0 {
            run_chunk(lanes, &members[..n]);
        }
    }

    /// Run `members` as one lane-inner chunk.
    fn run_chunk(lanes: &mut [TbatsLane<'_>], members: &[usize]) {
        let (mut chunk, st) = Chunk::load(lanes, members);
        chunk.run(st, lanes);
    }

    /// Whether a lane fits the envelope, each block with its γ pair, and
    /// its state windows are sized to its shape.
    fn chunkable(lane: &TbatsLane<'_>) -> bool {
        let harmonics = lane.tables.iter().map(Vec::len);
        in_envelope(harmonics, lane.ar.len(), lane.ma.len())
            && lane.gammas.len() >= lane.tables.len()
            && lane.seasonal.len() == 2 * lane.tables.iter().map(Vec::len).sum::<usize>()
            && lane.d_hist.len() == lane.ar.len()
            && lane.e_hist.len() == lane.ma.len()
    }

    /// The harmonic slots of a chunk, one row per quantity and slot, each
    /// row across the chunk's lanes: the in-phase and quadrature states,
    /// the rotation table entries and the γ pairs.
    #[repr(align(64))]
    struct Slots {
        s: [[f64; W]; MAX_SLOTS],
        s_star: [[f64; W]; MAX_SLOTS],
        cos: [[f64; W]; MAX_SLOTS],
        sin: [[f64; W]; MAX_SLOTS],
        g1: [[f64; W]; MAX_SLOTS],
        g2: [[f64; W]; MAX_SLOTS],
    }

    /// A chunk's per-lane scalar state, copied into registers for the
    /// stepping loop. `yhat` is the next step's prediction before its ARMA
    /// term — level, damped trend, then the in-phase states in slot order
    /// — accumulated while the states advance.
    #[derive(Clone, Copy, Default)]
    #[repr(align(64))]
    struct Scalars {
        yhat: [f64; W],
        level: [f64; W],
        trend: [f64; W],
        d_hist: [f64; W],
        e_hist: [f64; W],
        sse: [f64; W],
    }

    /// Up to `W` lanes' filters in structure-of-arrays form, padded to the
    /// chunk's superset shape; index `l` of every row is one lane's slot.
    /// Seasonal block `b` owns harmonic slots `base[b]..base[b] + its
    /// widest harmonic count`, in block order. Empty and retired lane
    /// slots hold exact zeros and read `0.0` observations.
    struct Chunk<'a> {
        /// The pass index of each lane slot's lane.
        lane: [usize; W],
        /// Lane slots still filtering, and how many.
        live: [bool; W],
        n_live: usize,
        /// Each lane slot's observations (empty once retired).
        z: [&'a [f64]; W],
        /// The superset shape.
        trend_on: bool,
        ar_on: bool,
        ma_on: bool,
        base: [usize; MAX_BLOCKS],
        n_slots: usize,
        /// Which lane slots carry a real AR / MA term (the others keep
        /// their history at `+0.0`).
        has_ar: [bool; W],
        has_ma: [bool; W],
        alpha: [f64; W],
        beta: [f64; W],
        phi: [f64; W],
        ar: [f64; W],
        ma: [f64; W],
        slots: Slots,
    }

    impl<'a> Chunk<'a> {
        /// Pack `members` (chunkable, alive, non-empty lanes) into a chunk
        /// and its scalar state.
        fn load(lanes: &[TbatsLane<'a>], members: &[usize]) -> (Chunk<'a>, Scalars) {
            let mut c = Chunk {
                lane: [0; W],
                live: [false; W],
                n_live: 0,
                z: [&[]; W],
                trend_on: false,
                ar_on: false,
                ma_on: false,
                base: [0; MAX_BLOCKS],
                n_slots: 0,
                has_ar: [false; W],
                has_ma: [false; W],
                alpha: [0.0; W],
                beta: [0.0; W],
                phi: [0.0; W],
                ar: [0.0; W],
                ma: [0.0; W],
                slots: Slots {
                    s: [[0.0; W]; MAX_SLOTS],
                    s_star: [[0.0; W]; MAX_SLOTS],
                    cos: [[0.0; W]; MAX_SLOTS],
                    sin: [[0.0; W]; MAX_SLOTS],
                    g1: [[0.0; W]; MAX_SLOTS],
                    g2: [[0.0; W]; MAX_SLOTS],
                },
            };
            let mut st = Scalars::default();
            let mut widest = [0usize; MAX_BLOCKS];
            for &i in members {
                let lane = &lanes[i];
                c.trend_on |= lane.use_trend;
                c.ar_on |= !lane.ar.is_empty();
                c.ma_on |= !lane.ma.is_empty();
                for (w, table) in widest.iter_mut().zip(lane.tables) {
                    *w = (*w).max(table.len());
                }
            }
            for b in 1..MAX_BLOCKS {
                c.base[b] = c.base[b - 1] + widest[b - 1];
            }
            c.n_slots = c.base[MAX_BLOCKS - 1] + widest[MAX_BLOCKS - 1];
            for (l, &i) in members.iter().enumerate() {
                let lane = &lanes[i];
                c.lane[l] = i;
                c.live[l] = true;
                c.n_live += 1;
                c.z[l] = lane.z;
                c.alpha[l] = lane.alpha;
                st.level[l] = lane.level;
                st.sse[l] = lane.sse;
                // A no-trend lane keeps Φ, β and its trend state at +0.0.
                if lane.use_trend {
                    c.beta[l] = lane.beta;
                    c.phi[l] = lane.phi;
                    st.trend[l] = lane.trend;
                }
                if let (Some(&a), Some(&h)) = (lane.ar.first(), lane.d_hist.first()) {
                    c.has_ar[l] = true;
                    c.ar[l] = a;
                    st.d_hist[l] = h;
                }
                if let (Some(&m), Some(&h)) = (lane.ma.first(), lane.e_hist.first()) {
                    c.has_ma[l] = true;
                    c.ma[l] = m;
                    st.e_hist[l] = h;
                }
                let mut off = 0usize;
                for (b, (table, &(g1, g2))) in lane.tables.iter().zip(lane.gammas).enumerate() {
                    for (j, &(cos, sin)) in table.iter().enumerate() {
                        let (k, slots) = (c.base[b] + j, &mut c.slots);
                        slots.cos[k][l] = cos;
                        slots.sin[k][l] = sin;
                        slots.g1[k][l] = g1;
                        slots.g2[k][l] = g2;
                        slots.s[k][l] = lane.seasonal[off + 2 * j];
                        slots.s_star[k][l] = lane.seasonal[off + 2 * j + 1];
                    }
                    off += 2 * table.len();
                }
            }
            st.yhat = c.prediction(&st);
            (c, st)
        }

        /// `ŷ` from the current state, in the reference step's order:
        /// level, damped trend, then every in-phase state.
        fn prediction(&self, st: &Scalars) -> [f64; W] {
            let mut yhat = st.level;
            if self.trend_on {
                for l in 0..W {
                    yhat[l] += self.phi[l] * st.trend[l];
                }
            }
            for s in &self.slots.s[..self.n_slots] {
                for l in 0..W {
                    yhat[l] += s[l];
                }
            }
            yhat
        }

        /// Filter every lane slot to the end of its series, retiring each
        /// lane into its [`TbatsLane`] as it finishes or dies.
        fn run(&mut self, mut st: Scalars, lanes: &mut [TbatsLane<'_>]) {
            let mut t = 0usize;
            while self.n_live > 0 {
                // Step to the next series end without per-step length
                // checks; a failed guard drops to one careful step.
                let end = (0..W)
                    .filter(|&l| self.live[l])
                    .map(|l| self.z[l].len())
                    .min()
                    .unwrap_or(t);
                while t < end && self.n_live > 0 {
                    t = self.run_until_guard(&mut st, t, end);
                    if t < end {
                        let (mut e, mut d_hat) = self.predict(&st, t);
                        for l in 0..W {
                            if self.live[l] && !passes_guard(e[l]) {
                                self.retire(l, false, &mut st, lanes);
                                e[l] = 0.0;
                                d_hat[l] = 0.0;
                            }
                        }
                        self.advance(&mut st, &e, &d_hat);
                        t += 1;
                    }
                }
                for l in 0..W {
                    if self.live[l] && self.z[l].len() <= t {
                        self.retire(l, true, &mut st, lanes);
                    }
                }
            }
        }

        /// Steps `t..end` while every error passes the guard, with the
        /// scalar state in registers; returns the first step whose guard
        /// failed (left undone), or `end`.
        fn run_until_guard(&mut self, st: &mut Scalars, mut t: usize, end: usize) -> usize {
            let mut local = *st;
            while t < end {
                let (e, d_hat) = self.predict(&local, t);
                if !e.iter().fold(true, |ok, &v| ok & passes_guard(v)) {
                    break;
                }
                self.advance(&mut local, &e, &d_hat);
                t += 1;
            }
            *st = local;
            t
        }

        /// The reference step's predict statements, each a loop over the lane
        /// slots: the one-step errors `e` and ARMA terms `d̂` at `t`.
        #[inline(always)]
        fn predict(&self, st: &Scalars, t: usize) -> ([f64; W], [f64; W]) {
            let mut obs = [0.0f64; W];
            for (o, z) in obs.iter_mut().zip(&self.z) {
                *o = z.get(t).copied().unwrap_or(0.0);
            }
            let mut d_hat = [0.0f64; W];
            if self.ar_on {
                for l in 0..W {
                    d_hat[l] += self.ar[l] * st.d_hist[l];
                }
            }
            if self.ma_on {
                for l in 0..W {
                    d_hat[l] += self.ma[l] * st.e_hist[l];
                }
            }
            let mut e = [0.0f64; W];
            for l in 0..W {
                e[l] = obs[l] - (st.yhat[l] + d_hat[l]);
            }
            (e, d_hat)
        }

        /// The reference step's advance statements, each a loop over the lane
        /// slots, for errors that passed the guard; the next `ŷ` is summed
        /// as the in-phase states come out of their rotations. (That sum is
        /// also what keeps the compiler from vectorising across harmonic
        /// slots instead of across lanes: an in-order sum cannot be split.)
        #[inline(always)]
        fn advance(&mut self, st: &mut Scalars, e: &[f64; W], d_hat: &[f64; W]) {
            for l in 0..W {
                st.sse[l] += e[l] * e[l];
            }
            let mut d = [0.0f64; W];
            for l in 0..W {
                d[l] = d_hat[l] + e[l];
            }
            if self.trend_on {
                for l in 0..W {
                    let damped = self.phi[l] * st.trend[l];
                    st.level[l] = st.level[l] + damped + self.alpha[l] * d[l];
                    st.trend[l] = damped + self.beta[l] * d[l];
                }
            } else {
                for l in 0..W {
                    st.level[l] = st.level[l] + 0.0 + self.alpha[l] * d[l];
                }
            }
            let mut yhat = st.level;
            if self.trend_on {
                for l in 0..W {
                    yhat[l] += self.phi[l] * st.trend[l];
                }
            }
            let Slots {
                s,
                s_star,
                cos,
                sin,
                g1,
                g2,
            } = &mut self.slots;
            for k in 0..self.n_slots {
                for l in 0..W {
                    let (sv, sv_star) = (s[k][l], s_star[k][l]);
                    s[k][l] = sv * cos[k][l] + sv_star * sin[k][l] + g1[k][l] * d[l];
                    s_star[k][l] = -sv * sin[k][l] + sv_star * cos[k][l] + g2[k][l] * d[l];
                    yhat[l] += s[k][l];
                }
            }
            st.yhat = yhat;
            if self.ar_on {
                for l in 0..W {
                    st.d_hist[l] = if self.has_ar[l] { d[l] } else { 0.0 };
                }
            }
            if self.ma_on {
                for l in 0..W {
                    st.e_hist[l] = if self.has_ma[l] { e[l] } else { 0.0 };
                }
            }
        }

        /// Write lane slot `l`'s state back into its lane (`alive` as
        /// given), then zero the slot so it computes exact zeros from here
        /// on.
        #[cold]
        fn retire(&mut self, l: usize, alive: bool, st: &mut Scalars, lanes: &mut [TbatsLane<'_>]) {
            let lane = &mut lanes[self.lane[l]];
            lane.level = st.level[l];
            if lane.use_trend {
                lane.trend = st.trend[l];
            }
            let mut off = 0usize;
            for (b, table) in lane.tables.iter().enumerate() {
                for j in 0..table.len() {
                    let k = self.base[b] + j;
                    lane.seasonal[off + 2 * j] = self.slots.s[k][l];
                    lane.seasonal[off + 2 * j + 1] = self.slots.s_star[k][l];
                }
                off += 2 * table.len();
            }
            if let Some(h) = lane.d_hist.first_mut() {
                *h = st.d_hist[l];
            }
            if let Some(h) = lane.e_hist.first_mut() {
                *h = st.e_hist[l];
            }
            lane.sse = st.sse[l];
            lane.alive = alive;
            self.live[l] = false;
            self.n_live -= 1;
            self.z[l] = &[];
            self.has_ar[l] = false;
            self.has_ma[l] = false;
            for row in [
                &mut self.alpha,
                &mut self.beta,
                &mut self.phi,
                &mut self.ar,
                &mut self.ma,
                &mut st.yhat,
                &mut st.level,
                &mut st.trend,
                &mut st.d_hist,
                &mut st.e_hist,
                &mut st.sse,
            ] {
                row[l] = 0.0;
            }
            let slots = &mut self.slots;
            for rows in [
                &mut slots.s,
                &mut slots.s_star,
                &mut slots.cos,
                &mut slots.sin,
                &mut slots.g1,
                &mut slots.g2,
            ] {
                for row in &mut rows[..self.n_slots] {
                    row[l] = 0.0;
                }
            }
        }
    }

    /// The reference step's error guard, `!e.is_finite() || |e| > 1e12`
    /// negated, as one comparison (false for NaN).
    #[inline(always)]
    fn passes_guard(e: f64) -> bool {
        e.abs() <= 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn coeffs(k: usize, seed: u64, scale: f64) -> Vec<f64> {
        series(k, seed).into_iter().map(|v| v * scale).collect()
    }

    #[test]
    fn axpy_neg_matches_scalar() {
        let src = series(101, 1);
        let mut dst = series(101, 2);
        let mut expect = dst.clone();
        axpy_neg(&mut dst, 0.37, &src);
        for (e, s) in expect.iter_mut().zip(&src) {
            *e -= 0.37 * s;
        }
        assert_eq!(dst, expect);
    }

    #[test]
    fn sum_sq_handles_all_tail_lengths() {
        for n in 0..9 {
            let xs = series(n, 3);
            let got = sum_sq(&xs);
            let want: f64 = xs.iter().map(|v| v * v).sum();
            assert!((got - want).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn innovations_bit_identical_to_reference() {
        let w = series(480, 7);
        for p in 0..=30 {
            for q in 0..=3 {
                let phi = coeffs(p, 11 + p as u64, 0.8 / (p.max(1) as f64));
                let theta = coeffs(q, 13 + q as u64, 0.5);
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                let s1 = arma_innovations(&phi, &theta, &w, &mut fast);
                let s2 = reference::arma_innovations(&phi, &theta, &w, &mut slow);
                assert_eq!(s1, s2);
                assert!(
                    fast.iter()
                        .zip(&slow)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "bit mismatch at p={p} q={q}"
                );
            }
        }
    }

    #[test]
    fn innovations_short_series_and_empty_model() {
        let w = series(3, 17);
        let mut a = Vec::new();
        // p > n: everything is conditioning, nothing scored.
        let start = arma_innovations(&coeffs(5, 19, 0.1), &[], &w, &mut a);
        assert_eq!(start, 3);
        assert!(a.iter().all(|&v| v == 0.0));
        assert_eq!(css(&coeffs(5, 19, 0.1), &[], &w, &mut a), f64::INFINITY);
        // Empty model: innovations are the series itself.
        let start = arma_innovations(&[], &[], &w, &mut a);
        assert_eq!(start, 0);
        assert_eq!(a, w);
    }

    #[test]
    fn css_batch_matches_solo_bitwise() {
        let w = series(480, 23);
        let specs: Vec<(Vec<f64>, Vec<f64>)> = (0..12)
            .map(|c| {
                (
                    coeffs(c % 7, 29 + c as u64, 0.1),
                    coeffs(c % 3, 31 + c as u64, 0.3),
                )
            })
            .collect();
        let refs: Vec<(&[f64], &[f64], &[f64])> = specs
            .iter()
            .map(|(p, q)| (p.as_slice(), q.as_slice(), w.as_slice()))
            .collect();
        let mut scratch = CssBatchScratch::default();
        let mut out = Vec::new();
        css_batch(&refs, &mut scratch, &mut out);
        let mut solo_buf = Vec::new();
        for (c, &(phi, theta, w)) in refs.iter().enumerate() {
            let solo = css(phi, theta, w, &mut solo_buf);
            assert_eq!(out[c].to_bits(), solo.to_bits(), "candidate {c}");
        }
    }

    #[test]
    fn css_batch_mixed_series_lengths() {
        // Lanes with different series (the merged multi-signature group):
        // per-candidate w, uneven lengths, wide θ* fallback in the same
        // call, plus a scored-region-shorter-than-one-block lane.
        let w_long = series(609, 37);
        let w_short = series(479, 29);
        let w_tiny = series(21, 31);
        let phi_a = coeffs(4, 41, 0.15);
        let theta_a = coeffs(2, 43, 0.4);
        let phi_b = coeffs(13, 47, 0.12);
        let theta_b = coeffs(1, 53, 0.5);
        let phi_c = coeffs(2, 59, 0.2);
        let theta_wide = coeffs(26, 61, 0.05); // > MA_HIST: solo fallback
        let phi_d = coeffs(5, 67, 0.1);
        let theta_d = coeffs(3, 71, 0.2); // wide lane (3..=MA_HIST)
        let cands: Vec<(&[f64], &[f64], &[f64])> = vec![
            (&phi_a, &theta_a, &w_long),
            (&phi_b, &theta_b, &w_short),
            (&phi_c, &theta_wide, &w_long),
            (&phi_d, &theta_d, &w_tiny),
            (&[], &[], &w_short),
        ];
        let mut scratch = CssBatchScratch::default();
        let mut out = Vec::new();
        css_batch(&cands, &mut scratch, &mut out);
        let mut solo_buf = Vec::new();
        for (c, &(phi, theta, w)) in cands.iter().enumerate() {
            let solo = css(phi, theta, w, &mut solo_buf);
            assert_eq!(out[c].to_bits(), solo.to_bits(), "candidate {c}");
        }
        // Scratch reuse across calls must not leak state.
        css_batch(&cands, &mut scratch, &mut out);
        for (c, &(phi, theta, w)) in cands.iter().enumerate() {
            let solo = css(phi, theta, w, &mut solo_buf);
            assert_eq!(
                out[c].to_bits(),
                solo.to_bits(),
                "candidate {c} (reused scratch)"
            );
        }
    }

    #[test]
    fn rotation_table_and_advance_match_direct_form() {
        let table = trig_seasonal::rotation_table(24.0, 3);
        let mut block = vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4];
        let expect: Vec<f64> = {
            let mut out = Vec::new();
            for (j, pair) in block.chunks_exact(2).enumerate() {
                let lambda = 2.0 * std::f64::consts::PI * (j as f64 + 1.0) / 24.0;
                out.push(pair[0] * lambda.cos() + pair[1] * lambda.sin() + 0.01 * 2.0);
                out.push(-pair[0] * lambda.sin() + pair[1] * lambda.cos() + 0.02 * 2.0);
            }
            out
        };
        trig_seasonal::advance_block(&mut block, &table, 0.01, 0.02, 2.0);
        assert!(block
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(
            (trig_seasonal::in_phase_sum(&block) - (block[0] + block[2] + block[4])).abs() == 0.0
        );
    }

    /// One ETS parity case: class, series, `[α, β, γ, Φ]`, trend flag and
    /// initial seasonal state.
    type EtsCase = (
        holt_winters::SeasonalClass,
        Vec<f64>,
        [f64; 4],
        bool,
        Vec<f64>,
    );

    /// The random ETS menu used by the batch parity tests: mixed classes,
    /// parameters and lengths, positive data so the multiplicative lanes
    /// are well-posed.
    fn ets_menu() -> Vec<EtsCase> {
        use holt_winters::SeasonalClass;
        let mut menu = Vec::new();
        for (i, &(class, m, n)) in [
            (SeasonalClass::None, 0usize, 480usize),
            (SeasonalClass::None, 0, 311),
            (SeasonalClass::Additive, 24, 480),
            (SeasonalClass::Additive, 7, 211),
            (SeasonalClass::Multiplicative, 24, 480),
            (SeasonalClass::Multiplicative, 12, 357),
            (SeasonalClass::None, 0, 480),
            (SeasonalClass::Additive, 24, 479),
            (SeasonalClass::Multiplicative, 24, 479),
            // Past the stack block: two lanes stepping their own windows.
            (SeasonalClass::Additive, 52, 480),
            (SeasonalClass::Multiplicative, 40, 357),
        ]
        .iter()
        .enumerate()
        {
            let seed = 101 + i as u64;
            let y: Vec<f64> = series(n, seed).iter().map(|v| 50.0 + 5.0 * v).collect();
            let u = series(4, seed + 40);
            let params = [
                0.05 + 0.4 * (u[0] + 1.0) / 2.0,  // alpha
                0.02 + 0.3 * (u[1] + 1.0) / 2.0,  // beta
                0.01 + 0.2 * (u[2] + 1.0) / 2.0,  // gamma
                0.85 + 0.13 * (u[3] + 1.0) / 2.0, // phi
            ];
            let has_trend = i % 3 != 0;
            let seasonal: Vec<f64> = match class {
                SeasonalClass::None => vec![],
                SeasonalClass::Additive => series(m, seed + 80),
                SeasonalClass::Multiplicative => {
                    series(m, seed + 80).iter().map(|v| 1.0 + 0.1 * v).collect()
                }
            };
            menu.push((class, y, params, has_trend, seasonal));
        }
        menu
    }

    /// A lane over `case` and the seasonal window `seasonal`.
    fn ets_lane<'a>(case: &'a EtsCase, seasonal: &'a mut [f64]) -> holt_winters::EtsLane<'a> {
        let (class, y, [alpha, beta, gamma, phi], has_trend, _) = case;
        holt_winters::EtsLane {
            y,
            class: *class,
            alpha: *alpha,
            beta: *beta,
            gamma: *gamma,
            phi: *phi,
            has_trend: *has_trend,
            level: y[0],
            trend: 0.125,
            seasonal,
            sse: 0.0,
            alive: true,
        }
    }

    /// A final lane state as bits: SSE (or none), level, trend, window.
    fn ets_bits(state: &holt_winters::HwState, seasonal: &[f64]) -> (Option<u64>, Vec<u64>) {
        let scalars = [state.level, state.trend];
        let bits = scalars.iter().chain(seasonal).map(|v| v.to_bits());
        (state.sse.map(f64::to_bits), bits.collect())
    }

    #[test]
    fn ets_batch_matches_reference_bitwise() {
        let menu = ets_menu();
        let expected: Vec<_> = menu
            .iter()
            .map(
                |(class, y, [alpha, beta, gamma, phi], has_trend, seasonal)| {
                    let mut s = seasonal.clone();
                    let state = reference::ets_recursion(
                        y, *class, *alpha, *beta, *gamma, *phi, *has_trend, y[0], 0.125, &mut s,
                    );
                    ets_bits(&state, &s)
                },
            )
            .collect();
        // Each lane through its own one-lane pass: a single fit's path.
        for (i, case) in menu.iter().enumerate() {
            let mut s = case.4.clone();
            let mut lane = ets_lane(case, &mut s);
            assert_eq!(ets_batch(std::slice::from_mut(&mut lane)), 1);
            let state = lane.result();
            assert_eq!(ets_bits(&state, &s), expected[i], "one-lane pass, lane {i}");
        }
        // All of them in one pass (deliberately NOT grouped by class).
        let mut buffers: Vec<Vec<f64>> = menu.iter().map(|case| case.4.clone()).collect();
        let mut lanes: Vec<holt_winters::EtsLane> = menu
            .iter()
            .zip(buffers.iter_mut())
            .map(|(case, buf)| ets_lane(case, buf))
            .collect();
        ets_batch(&mut lanes);
        let states: Vec<holt_winters::HwState> = lanes.iter().map(|l| l.result()).collect();
        drop(lanes);
        for (i, (state, s)) in states.iter().zip(&buffers).enumerate() {
            assert_eq!(ets_bits(state, s), expected[i], "batched lane {i}");
        }
    }

    #[test]
    fn ets_batch_quarantines_divergent_lanes() {
        use holt_winters::SeasonalClass;
        // A multiplicative lane whose seasonal factor collapses diverges;
        // its batch-mates must be unaffected bitwise.
        let healthy: Vec<f64> = series(300, 301).iter().map(|v| 40.0 + 4.0 * v).collect();
        let mut none: Vec<f64> = vec![];
        let expected = reference::ets_recursion(
            &healthy,
            SeasonalClass::None,
            0.3,
            0.1,
            0.0,
            1.0,
            true,
            healthy[0],
            0.0,
            &mut none,
        );
        let mut bad_seasonal = vec![1.0, 0.0, 1.0, 1.0]; // hits the |s| < 1e-12 guard
        let mut empty: Vec<f64> = vec![];
        let mut lanes = vec![
            holt_winters::EtsLane {
                y: &healthy,
                class: SeasonalClass::Multiplicative,
                alpha: 0.3,
                beta: 0.1,
                gamma: 0.1,
                phi: 1.0,
                has_trend: false,
                level: healthy[0],
                trend: 0.0,
                seasonal: &mut bad_seasonal,
                sse: 0.0,
                alive: true,
            },
            holt_winters::EtsLane {
                y: &healthy,
                class: SeasonalClass::None,
                alpha: 0.3,
                beta: 0.1,
                gamma: 0.0,
                phi: 1.0,
                has_trend: true,
                level: healthy[0],
                trend: 0.0,
                seasonal: &mut empty,
                sse: 0.0,
                alive: true,
            },
        ];
        ets_batch(&mut lanes);
        assert!(
            lanes[0].result().sse.is_none(),
            "degenerate lane must diverge"
        );
        assert_eq!(
            ets_bits(&lanes[1].result(), &[]),
            ets_bits(&expected, &[]),
            "healthy lane unaffected by a diverged batch-mate"
        );
    }

    /// One TBATS parity case: series, `(period, harmonics)` blocks,
    /// `[α, β, Φ]`, trend flag, γ pairs, AR and MA coefficients, and the
    /// initial flattened seasonal state.
    struct TbatsCase {
        z: Vec<f64>,
        seasons: Vec<(f64, usize)>,
        params: [f64; 3],
        use_trend: bool,
        gammas: Vec<(f64, f64)>,
        ar: Vec<f64>,
        ma: Vec<f64>,
        seasonal: Vec<f64>,
    }

    /// Random TBATS menu: mixed trend/damping, ARMA orders and seasonal
    /// signatures, for the one-lane/batch/reference parity tests.
    fn tbats_menu() -> Vec<TbatsCase> {
        // (blocks, trend, damped, p, q, length)
        let shapes = vec![
            (vec![], false, false, 0, 0, 480),
            (vec![], true, false, 1, 0, 480),
            (vec![(24.0, 3)], true, true, 1, 1, 480),
            (vec![(24.0, 2)], true, false, 0, 0, 357),
            (vec![(23.5, 1)], false, false, 1, 1, 311),
            (vec![(24.0, 3), (168.0, 2)], true, true, 1, 0, 480),
            (vec![(12.0, 2)], true, false, 1, 1, 479),
            (vec![(24.0, 1)], false, false, 0, 1, 480),
        ];
        shapes
            .into_iter()
            .enumerate()
            .map(|(i, (seasons, use_trend, use_damping, p, q, n))| {
                let seed = 401 + i as u64;
                let z: Vec<f64> = series(n, seed).iter().map(|v| 60.0 + 6.0 * v).collect();
                let u = series(3, seed + 40);
                let alpha = 0.05 + 0.3 * (u[0] + 1.0) / 2.0;
                let beta = if use_trend {
                    0.01 + 0.2 * (u[1] + 1.0) / 2.0
                } else {
                    0.0
                };
                let phi = if use_damping {
                    0.85 + 0.13 * (u[2] + 1.0) / 2.0
                } else if use_trend {
                    1.0
                } else {
                    0.0
                };
                let gammas: Vec<(f64, f64)> = (0..seasons.len())
                    .map(|s| {
                        let g = series(2, seed + 50 + s as u64);
                        (0.05 + 0.05 * g[0].abs(), 0.05 + 0.05 * g[1].abs())
                    })
                    .collect();
                let seasonal: Vec<f64> = seasons
                    .iter()
                    .enumerate()
                    .flat_map(|(s, &(_, h))| series(2 * h, seed + 80 + s as u64))
                    .collect();
                TbatsCase {
                    z,
                    seasons,
                    params: [alpha, beta, phi],
                    use_trend,
                    gammas,
                    ar: coeffs(p, seed + 60, 0.5),
                    ma: coeffs(q, seed + 70, 0.4),
                    seasonal,
                }
            })
            .collect()
    }

    /// A lane over `case` and the state windows in `state`.
    fn tbats_lane<'a>(
        case: &'a TbatsCase,
        tables: &'a [Vec<(f64, f64)>],
        state: &'a mut reference::TbatsState,
    ) -> tbats_filter::TbatsLane<'a> {
        let [alpha, beta, phi] = case.params;
        tbats_filter::TbatsLane {
            z: &case.z,
            alpha,
            beta,
            phi,
            use_trend: case.use_trend,
            gammas: &case.gammas,
            ar: &case.ar,
            ma: &case.ma,
            tables,
            level: state.level,
            trend: state.trend,
            seasonal: &mut state.seasonal,
            d_hist: &mut state.d_hist,
            e_hist: &mut state.e_hist,
            sse: state.sse,
            alive: state.alive,
        }
    }

    /// Every field of a final state as bits.
    fn state_bits(state: &reference::TbatsState) -> Vec<u64> {
        [state.level, state.trend, state.sse]
            .iter()
            .chain(&state.seasonal)
            .chain(&state.d_hist)
            .chain(&state.e_hist)
            .map(|v| v.to_bits())
            .chain([u64::from(state.alive)])
            .collect()
    }

    #[test]
    fn tbats_kernels_match_reference_bitwise() {
        let menu = tbats_menu();
        let tables: Vec<Vec<Vec<(f64, f64)>>> = menu
            .iter()
            .map(|case| {
                case.seasons
                    .iter()
                    .map(|&(p, h)| trig_seasonal::rotation_table(p, h))
                    .collect()
            })
            .collect();
        let start = |case: &TbatsCase| reference::TbatsState {
            level: case.z[0],
            trend: 0.25,
            seasonal: case.seasonal.clone(),
            d_hist: vec![0.0; case.ar.len()],
            e_hist: vec![0.0; case.ma.len()],
            sse: 0.0,
            alive: true,
        };
        // Reference: per-call tables + plain scalar loop.
        let expected: Vec<reference::TbatsState> = menu
            .iter()
            .map(|case| {
                let [alpha, beta, phi] = case.params;
                reference::tbats_filter_state(
                    &case.z,
                    &case.seasons,
                    alpha,
                    beta,
                    phi,
                    case.use_trend,
                    &case.gammas,
                    &case.ar,
                    &case.ma,
                    start(case),
                )
            })
            .collect();
        // Each lane through its own one-lane pass (a lone lane in a
        // 4-wide chunk), then all of them in one pass (two full chunks
        // over these eight mixed shapes).
        let mut alone: Vec<reference::TbatsState> = menu.iter().map(start).collect();
        for (i, (case, state)) in menu.iter().zip(alone.iter_mut()).enumerate() {
            let mut lane = tbats_lane(case, &tables[i], state);
            tbats_filter::run_batch(std::slice::from_mut(&mut lane));
            let (level, trend, sse, alive) = (lane.level, lane.trend, lane.sse, lane.alive);
            (state.level, state.trend, state.sse, state.alive) = (level, trend, sse, alive);
        }
        let mut batched: Vec<reference::TbatsState> = menu.iter().map(start).collect();
        let mut lanes: Vec<tbats_filter::TbatsLane> = menu
            .iter()
            .zip(&tables)
            .zip(batched.iter_mut())
            .map(|((case, t), state)| tbats_lane(case, t, state))
            .collect();
        tbats_filter::run_batch(&mut lanes);
        let finals: Vec<(f64, f64, f64, bool)> = lanes
            .iter()
            .map(|l| (l.level, l.trend, l.sse, l.alive))
            .collect();
        drop(lanes);
        for (state, (level, trend, sse, alive)) in batched.iter_mut().zip(finals) {
            (state.level, state.trend, state.sse, state.alive) = (level, trend, sse, alive);
        }
        for i in 0..menu.len() {
            assert!(expected[i].alive, "lane {i} should survive");
            assert_eq!(
                state_bits(&alone[i]),
                state_bits(&expected[i]),
                "one-lane pass, lane {i} vs reference"
            );
            assert_eq!(
                state_bits(&batched[i]),
                state_bits(&expected[i]),
                "batched lane {i} vs reference"
            );
        }
    }
}
