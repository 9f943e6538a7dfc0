//! Derivative-free minimisation: Nelder-Mead simplex with adaptive
//! parameters and optional restarts.
//!
//! Every model family in the paper is fitted by minimising a smooth but
//! derivative-unfriendly objective — the conditional sum of squares of an
//! ARMA process, the SSE of a Holt-Winters recursion, the innovation SSE of
//! a TBATS state space. Nelder-Mead over a handful of parameters (rarely
//! more than ~10) is exactly what `scipy.optimize.minimize(method="Nelder-
//! Mead")`, used implicitly by the Python stacks the paper relies on, does.
// lint: allow-file(indexing) — Nelder-Mead simplex kernel; vertex and coordinate indices are bounded by the n+1 simplex built on entry

/// Options controlling a [`nelder_mead`] run.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex f-value spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex diameter falls below this.
    pub x_tol: f64,
    /// Initial simplex edge length relative to each coordinate (absolute
    /// fallback for coordinates at zero).
    pub initial_step: f64,
    /// Number of restarts from the best point with a fresh simplex.
    /// Restarting is a cheap, classical defence against premature collapse.
    pub restarts: usize,
    /// Caller-supplied start override: an alternative starting point,
    /// typically the converged solution of a neighbouring problem (grid
    /// warm-start chains). Both `x0` and the override are evaluated and the
    /// better one anchors the initial simplex, so a bad override can never
    /// make the start worse than the cold start.
    pub warm_start: Option<Vec<f64>>,
    /// Initial simplex edge length used *instead of* [`initial_step`]
    /// (same field semantics) when the warm start wins the race. A warm
    /// start that beats the cold start is already near a converged
    /// neighbouring optimum, so the search is a local refinement: a tight
    /// first simplex lets the tolerance checks fire orders of magnitude
    /// sooner than a full-width exploratory one. Only the first simplex is
    /// affected; restarts rebuild at the exploratory width. `None` keeps
    /// the exploratory step everywhere.
    ///
    /// [`initial_step`]: NelderMeadOptions::initial_step
    pub warm_refine_step: Option<f64>,
    /// Evaluation budget used *instead of* [`max_evals`] when the warm
    /// start wins the race. Refining a converged neighbouring optimum
    /// needs a fraction of a global search's budget; the race guarantees
    /// the capped run still starts no worse than the cold start would
    /// have. `None` keeps the full budget.
    ///
    /// [`max_evals`]: NelderMeadOptions::max_evals
    pub warm_budget: Option<usize>,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 2000,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
            restarts: 1,
            warm_start: None,
            warm_refine_step: None,
            warm_budget: None,
        }
    }
}

/// Outcome of a [`nelder_mead`] minimisation.
#[derive(Debug, Clone)]
pub struct NelderMeadResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Total objective evaluations used.
    pub evals: usize,
    /// Whether a tolerance (rather than the evaluation budget) stopped us.
    pub converged: bool,
}

/// Minimise `f` starting from `x0` using the Nelder-Mead simplex method.
///
/// Returns the best point seen. Objective values of `NaN` are treated as
/// `+inf`, so objectives may signal infeasible regions that way (the ARMA
/// CSS objective does this for non-invertible parameter vectors).
///
/// This is a thin synchronous wrapper over [`NelderMeadDriver`] — the same
/// state machine, driven to completion against a closure. Callers that need
/// to interleave several searches (the batched grid-evaluation engine) use
/// the driver directly.
pub fn nelder_mead<F>(f: F, x0: &[f64], opts: &NelderMeadOptions) -> NelderMeadResult
where
    F: Fn(&[f64]) -> f64,
{
    let mut driver = NelderMeadDriver::new(x0, opts.clone());
    while let Some(x) = driver.pending_point() {
        let fx = f(x);
        driver.tell(fx);
    }
    driver.into_result()
}

/// Where the driver's state machine is between objective evaluations. The
/// variants mirror the phases of the classic loop: probing the start and
/// warm points, building a restart's simplex, then the
/// reflect → expand / contract → shrink cascade of one iteration.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Evaluating the cold start `x0`.
    ColdStart,
    /// Racing the caller's warm-start override against the cold start.
    WarmProbe,
    /// Building vertex `i` (0-based offset coordinate) of a fresh simplex.
    Build { i: usize },
    /// Evaluating the reflected point (`trial`).
    Reflect,
    /// Evaluating the expanded point (`trial2`); carries the reflected
    /// point's objective value.
    Expand { f_r: f64 },
    /// Evaluating the contracted point (`trial2`); carries the reflected
    /// point's objective value.
    Contract { f_r: f64 },
    /// Evaluating shrunk vertex `idx` (already moved in place).
    Shrink { idx: usize },
    /// No more evaluations needed.
    Finished,
}

/// Poll-style (ask/tell) Nelder-Mead: [`pending_point`] exposes the next
/// point whose objective value the search needs, [`tell`] feeds the value
/// back and advances the state machine. [`nelder_mead`] is the loop
/// `while let Some(x) = pending_point() { tell(f(x)) }` — a driver stepped
/// that way performs **exactly** the evaluation sequence of the classic
/// recursive implementation, in the same order, with the same tolerance
/// and budget checks between the same evaluations.
///
/// The point of the split is batching: an evaluation engine can hold one
/// driver per concurrent model fit, collect every driver's pending point,
/// score them all in one fused kernel pass, and feed the results back —
/// without threads, and without perturbing any individual search's
/// trajectory.
///
/// [`pending_point`]: NelderMeadDriver::pending_point
/// [`tell`]: NelderMeadDriver::tell
#[derive(Debug, Clone)]
pub struct NelderMeadDriver {
    opts: NelderMeadOptions,
    n: usize,
    nf: f64,
    // Adaptive coefficients (Gao & Han 2012) behave better in >2 dimensions.
    alpha: f64,
    beta: f64,
    gamma: f64,
    delta: f64,
    evals: usize,
    /// Effective budget; resolved after the warm-start race (a winning warm
    /// start may substitute `warm_budget`).
    max_evals: usize,
    best_x: Vec<f64>,
    best_f: f64,
    warm_won: bool,
    converged: bool,
    restart: usize,
    step_scale: f64,
    simplex: Vec<Vec<f64>>,
    fvals: Vec<f64>,
    // Reused iteration scratch — the steady state allocates nothing.
    order: Vec<usize>,
    centroid: Vec<f64>,
    trial: Vec<f64>,
    trial2: Vec<f64>,
    best_buf: Vec<f64>,
    probe: Vec<f64>,
    i_best: usize,
    i_worst: usize,
    i_second: usize,
    phase: Phase,
}

/// `out = from + t · (to − from)`, the simplex move primitive.
fn lerp_into(from: &[f64], to: &[f64], t: f64, out: &mut [f64]) {
    for ((o, &a), &b) in out.iter_mut().zip(from).zip(to) {
        *o = a + t * (b - a);
    }
}

#[inline]
fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

impl NelderMeadDriver {
    /// Start a minimisation of an objective over `x0.len()` parameters.
    /// The first [`pending_point`](NelderMeadDriver::pending_point) is `x0`
    /// itself.
    pub fn new(x0: &[f64], opts: NelderMeadOptions) -> NelderMeadDriver {
        let n = x0.len();
        let nf = n as f64;
        NelderMeadDriver {
            n,
            nf,
            alpha: 1.0,
            beta: 1.0 + 2.0 / nf,
            gamma: 0.75 - 1.0 / (2.0 * nf),
            delta: 1.0 - 1.0 / nf,
            evals: 0,
            max_evals: opts.max_evals,
            best_x: x0.to_vec(),
            best_f: f64::INFINITY,
            warm_won: false,
            converged: false,
            restart: 0,
            step_scale: opts.initial_step,
            simplex: Vec::with_capacity(n + 1),
            fvals: Vec::with_capacity(n + 1),
            order: Vec::with_capacity(n + 1),
            centroid: vec![0.0; n],
            trial: vec![0.0; n],
            trial2: vec![0.0; n],
            best_buf: Vec::with_capacity(n),
            probe: x0.to_vec(),
            i_best: 0,
            i_worst: 0,
            i_second: 0,
            opts,
            phase: Phase::ColdStart,
        }
    }

    /// The point whose objective value the search needs next, or `None`
    /// when the search is complete. Stable between calls: the same point is
    /// returned until [`tell`](NelderMeadDriver::tell) advances the state.
    pub fn pending_point(&self) -> Option<&[f64]> {
        match self.phase {
            Phase::ColdStart | Phase::WarmProbe | Phase::Build { .. } => Some(&self.probe),
            Phase::Reflect => Some(&self.trial),
            Phase::Expand { .. } | Phase::Contract { .. } => Some(&self.trial2),
            Phase::Shrink { idx } => self.simplex.get(idx).map(|v| v.as_slice()),
            Phase::Finished => None,
        }
    }

    /// Whether the search has finished (no pending point remains).
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    /// Objective evaluations consumed so far.
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Feed back the objective value of the current pending point and
    /// advance to the next one. `NaN` is treated as `+inf` (infeasible).
    /// Calling after completion is a no-op.
    pub fn tell(&mut self, fx: f64) {
        let fx = sanitize(fx);
        match self.phase {
            Phase::ColdStart => {
                self.best_f = fx;
                self.evals += 1;
                if self.n == 0 {
                    self.converged = true;
                    self.phase = Phase::Finished;
                    return;
                }
                // Race the cold start against the caller's warm start (if
                // any); the winner anchors the first simplex. A stale or
                // mismatched override is therefore harmless — at worst it
                // costs one evaluation.
                match self
                    .opts
                    .warm_start
                    .as_deref()
                    .filter(|w| w.len() == self.n)
                {
                    Some(warm) => {
                        self.probe.clear();
                        self.probe.extend_from_slice(warm);
                        self.phase = Phase::WarmProbe;
                    }
                    None => self.begin_restart(0),
                }
            }
            Phase::WarmProbe => {
                self.evals += 1;
                if fx < self.best_f {
                    self.best_f = fx;
                    self.best_x.clear();
                    self.best_x.extend_from_slice(&self.probe);
                    self.warm_won = true;
                }
                if self.warm_won {
                    self.max_evals = self.opts.warm_budget.unwrap_or(self.opts.max_evals);
                }
                self.begin_restart(0);
            }
            Phase::Build { i } => {
                self.evals += 1;
                self.fvals.push(fx);
                self.simplex.push(self.probe.clone());
                if i + 1 < self.n {
                    self.stage_vertex(i + 1);
                    self.phase = Phase::Build { i: i + 1 };
                } else {
                    self.enter_iteration();
                }
            }
            Phase::Reflect => {
                self.evals += 1;
                let f_r = fx;
                if f_r < self.fvals[self.i_best] {
                    // Expand.
                    lerp_into(
                        &self.centroid,
                        &self.simplex[self.i_worst],
                        -self.alpha * self.beta,
                        &mut self.trial2,
                    );
                    self.phase = Phase::Expand { f_r };
                } else if f_r < self.fvals[self.i_second] {
                    self.simplex[self.i_worst].copy_from_slice(&self.trial);
                    self.fvals[self.i_worst] = f_r;
                    self.enter_iteration();
                } else {
                    // Contract (outside if the reflected point improved on
                    // the worst, inside otherwise).
                    let t = if f_r < self.fvals[self.i_worst] {
                        -self.alpha * self.gamma
                    } else {
                        self.gamma
                    };
                    lerp_into(
                        &self.centroid,
                        &self.simplex[self.i_worst],
                        t,
                        &mut self.trial2,
                    );
                    self.phase = Phase::Contract { f_r };
                }
            }
            Phase::Expand { f_r } => {
                self.evals += 1;
                if fx < f_r {
                    self.simplex[self.i_worst].copy_from_slice(&self.trial2);
                    self.fvals[self.i_worst] = fx;
                } else {
                    self.simplex[self.i_worst].copy_from_slice(&self.trial);
                    self.fvals[self.i_worst] = f_r;
                }
                self.enter_iteration();
            }
            Phase::Contract { f_r } => {
                self.evals += 1;
                if fx < self.fvals[self.i_worst].min(f_r) {
                    self.simplex[self.i_worst].copy_from_slice(&self.trial2);
                    self.fvals[self.i_worst] = fx;
                    self.enter_iteration();
                } else {
                    // Shrink towards the best vertex (in place — the lerp
                    // arithmetic is unchanged). The n shrunk vertices are
                    // evaluated one by one, budget unchecked, exactly like
                    // the classic inner loop.
                    self.best_buf.clear();
                    self.best_buf.extend_from_slice(&self.simplex[self.i_best]);
                    let first = if self.i_best == 0 { 1 } else { 0 };
                    self.shrink_vertex(first);
                    self.phase = Phase::Shrink { idx: first };
                }
            }
            Phase::Shrink { idx } => {
                self.evals += 1;
                self.fvals[idx] = fx;
                let mut next = idx + 1;
                if next == self.i_best {
                    next += 1;
                }
                if next <= self.n {
                    self.shrink_vertex(next);
                    self.phase = Phase::Shrink { idx: next };
                } else {
                    self.enter_iteration();
                }
            }
            Phase::Finished => {}
        }
    }

    /// The final result. Callable at any time; meaningful once
    /// [`is_done`](NelderMeadDriver::is_done) is true.
    pub fn into_result(self) -> NelderMeadResult {
        NelderMeadResult {
            x: self.best_x,
            fx: self.best_f,
            evals: self.evals,
            converged: self.converged,
        }
    }

    /// Begin restart `r`: stage a fresh simplex around the current best
    /// point. When a winning warm start is present, the first simplex is a
    /// tight local refinement around it (see
    /// [`NelderMeadOptions::warm_refine_step`]).
    fn begin_restart(&mut self, r: usize) {
        self.restart = r;
        let base_step = match self.opts.warm_refine_step {
            Some(refine) if r == 0 && self.warm_won => refine,
            _ => self.opts.initial_step,
        };
        self.step_scale = base_step / (1.0 + r as f64);
        self.simplex.clear();
        self.fvals.clear();
        self.simplex.push(self.best_x.clone());
        self.fvals.push(self.best_f);
        self.stage_vertex(0);
        self.phase = Phase::Build { i: 0 };
    }

    /// Stage simplex vertex `i`: the best point with coordinate `i`
    /// perturbed by the restart's step.
    fn stage_vertex(&mut self, i: usize) {
        self.probe.clear();
        self.probe.extend_from_slice(&self.best_x);
        let h = if self.probe[i].abs() > 1e-8 {
            self.probe[i].abs() * self.step_scale
        } else {
            self.step_scale * 0.1
        };
        self.probe[i] += h;
    }

    /// Move vertex `idx` towards the best vertex in place (δ-lerp); its new
    /// objective value arrives through the next `tell`.
    fn shrink_vertex(&mut self, idx: usize) {
        for (v, &b) in self.simplex[idx].iter_mut().zip(&self.best_buf) {
            *v = b + self.delta * (*v - b);
        }
    }

    /// Top of the classic `while evals < max_evals` loop: order the
    /// simplex, run the convergence checks, and stage the
    /// reflection — or harvest and move to the next restart / finish.
    fn enter_iteration(&mut self) {
        if self.evals >= self.max_evals {
            self.harvest();
            self.phase = Phase::Finished;
            return;
        }
        let n = self.n;
        // Order the simplex by objective value.
        self.order.clear();
        self.order.extend(0..=n);
        let fvals = &self.fvals;
        self.order
            .sort_by(|&a, &b| crate::total_cmp_f64(fvals[a], fvals[b]));
        self.i_best = self.order[0];
        self.i_worst = self.order[n];
        self.i_second = self.order[n - 1];

        // Convergence checks. The x-spread test only needs the boolean
        // `max |simplex − best| < x_tol`, so it short-circuits on the first
        // coordinate pair at or past the tolerance instead of computing the
        // exact O(n²) max — same decision (a NaN difference fails the `>=`
        // and is skipped, exactly as `f64::max` ignores NaN), but the
        // common still-moving case exits after one comparison. It is also
        // skipped entirely when the f-spread test already decides.
        let f_spread = self.fvals[self.i_worst] - self.fvals[self.i_best];
        let converged = (f_spread.is_finite() && f_spread < self.opts.f_tol) || {
            let best = &self.simplex[self.i_best];
            !self.simplex.iter().any(|v| {
                v.iter()
                    .zip(best)
                    .any(|(a, b)| (a - b).abs() >= self.opts.x_tol)
            })
        };
        if converged {
            self.converged = true;
            self.harvest();
            self.after_round();
            return;
        }

        // Centroid of all but the worst vertex.
        for c in self.centroid.iter_mut() {
            *c = 0.0;
        }
        for (idx, v) in self.simplex.iter().enumerate() {
            if idx == self.i_worst {
                continue;
            }
            for (c, &vi) in self.centroid.iter_mut().zip(v) {
                *c += vi;
            }
        }
        for c in self.centroid.iter_mut() {
            *c /= self.nf;
        }

        // Reflect.
        lerp_into(
            &self.centroid,
            &self.simplex[self.i_worst],
            -self.alpha,
            &mut self.trial,
        );
        self.phase = Phase::Reflect;
    }

    /// Fold the current simplex's best into the running best.
    fn harvest(&mut self) {
        for (v, &fv) in self.simplex.iter().zip(&self.fvals) {
            if fv < self.best_f {
                self.best_f = fv;
                self.best_x.clear();
                self.best_x.extend_from_slice(v);
            }
        }
    }

    /// A restart's while-loop ended (tolerance hit): budget permitting,
    /// start the next restart, else finish.
    fn after_round(&mut self) {
        if self.evals >= self.max_evals || self.restart >= self.opts.restarts {
            self.phase = Phase::Finished;
        } else {
            let next = self.restart + 1;
            self.begin_restart(next);
        }
    }
}

/// Map an unconstrained real to the open interval `(-1, 1)`.
///
/// Used to keep AR/MA partial autocorrelations inside the stationarity
/// triangle during optimisation: the optimiser works in ℝⁿ and the model
/// maps through this squashing function.
#[inline]
pub fn squash(x: f64) -> f64 {
    x.tanh()
}

/// Inverse of [`squash`]; clamps its argument slightly inside `(-1, 1)` so
/// boundary values from heuristics do not produce infinities.
#[inline]
pub fn unsquash(y: f64) -> f64 {
    let y = y.clamp(-0.999_999, 0.999_999);
    y.atanh()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!((r.x[0] - 3.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!(r.fx < 1e-7);
    }

    #[test]
    fn minimises_rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = NelderMeadOptions {
            max_evals: 10_000,
            restarts: 3,
            ..Default::default()
        };
        let r = nelder_mead(f, &[-1.2, 1.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn result_never_worse_than_start() {
        let f = |x: &[f64]| x.iter().map(|v| v.abs()).sum::<f64>();
        let start = [5.0, -2.0, 0.7];
        let f0 = f(&start);
        let r = nelder_mead(f, &start, &NelderMeadOptions::default());
        assert!(r.fx <= f0);
    }

    #[test]
    fn handles_nan_objective_as_infeasible() {
        // NaN outside the unit disc; minimum at origin region boundary.
        let f = |x: &[f64]| {
            let r2 = x[0] * x[0] + x[1] * x[1];
            if r2 > 1.0 {
                f64::NAN
            } else {
                (x[0] - 0.5).powi(2) + x[1] * x[1]
            }
        };
        let r = nelder_mead(f, &[0.0, 0.0], &NelderMeadOptions::default());
        assert!(r.fx.is_finite());
        assert!((r.x[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn zero_dimensional_input_is_trivial() {
        let r = nelder_mead(|_| 42.0, &[], &NelderMeadOptions::default());
        assert_eq!(r.fx, 42.0);
        assert!(r.converged);
    }

    #[test]
    fn respects_eval_budget() {
        let opts = NelderMeadOptions {
            max_evals: 57,
            f_tol: 0.0,
            x_tol: 0.0,
            restarts: 0,
            ..Default::default()
        };
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = nelder_mead(f, &[10.0, 10.0, 10.0], &opts);
        // Budget may be slightly exceeded inside one iteration (shrink step),
        // but never by more than the simplex size.
        assert!(r.evals <= 57 + 4);
    }

    #[test]
    fn warm_start_beats_bad_cold_start() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let opts = NelderMeadOptions {
            max_evals: 40,
            restarts: 0,
            warm_start: Some(vec![2.9, -1.1]),
            ..Default::default()
        };
        // With a tiny budget, starting near the optimum is the only way to
        // land this close.
        let r = nelder_mead(f, &[100.0, 100.0], &opts);
        assert!(r.fx < 0.05, "fx = {}", r.fx);
    }

    #[test]
    fn warm_start_never_hurts() {
        let f = |x: &[f64]| x[0] * x[0];
        let base = NelderMeadOptions {
            max_evals: 200,
            restarts: 0,
            ..Default::default()
        };
        let cold = nelder_mead(f, &[0.5], &base);
        let warm_opts = NelderMeadOptions {
            warm_start: Some(vec![1e9]),
            ..base
        };
        let warm = nelder_mead(f, &[0.5], &warm_opts);
        // A terrible override is ignored after one probe evaluation.
        assert!(warm.fx <= cold.fx + 1e-12);
    }

    #[test]
    fn mismatched_warm_start_length_is_ignored() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2);
        let opts = NelderMeadOptions {
            warm_start: Some(vec![1.0, 2.0, 3.0]),
            ..Default::default()
        };
        let r = nelder_mead(f, &[0.0], &opts);
        assert!((r.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn squash_unsquash_roundtrip() {
        for &v in &[-3.0, -0.5, 0.0, 0.1, 2.0] {
            let y = squash(v);
            assert!(y > -1.0 && y < 1.0);
            assert!((unsquash(y) - v).abs() < 1e-9);
        }
    }
}
