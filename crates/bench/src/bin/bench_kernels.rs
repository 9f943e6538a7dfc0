//! Micro-benchmark of the evaluation kernels: the scalar reference CSS
//! recursion versus the vectorised kernel versus the batched
//! multi-candidate kernel, plus the unconstrained-parameter transform and
//! the full objective path (transform + polynomial expansion + CSS) so the
//! per-evaluation cost can be attributed layer by layer. A second section
//! times the exponential-smoothing families' one chunk kernel per family
//! (`ets_batch`, `tbats_filter::run_batch`) against the scalar reference
//! per ETS/TBATS menu shape, two ways: each lane through a one-lane pass of
//! its own — the path of a single fit and a frozen re-score — and all of a
//! row's lanes in one pass, as a grid round runs them. Every lane's final
//! state, one-lane and batched, is asserted bitwise equal to the
//! reference's in-binary. Beside the same-shape rows, the ETS rows include
//! a period-52 row (lanes past the chunk's 32-row stack block, which step
//! their own windows), an estate round, a serve relearn and mixed 2- and
//! 4-lane passes, each lane on its own series, and the TBATS rows
//! forecast-auto-like passes of 2–4 lanes that share no shape; every row
//! records its batched-vs-one-lane ratio.
//!
//! Writes `results/BENCH_kernels.json`.
//!
//! ```sh
//! cargo run -p dwcp-bench --release --bin bench_kernels
//! DWCP_QUICK=1 cargo run -p dwcp-bench --release --bin bench_kernels   # fewer iters
//! ```

use dwcp_bench::results_dir;
use dwcp_math::kernels;
use dwcp_math::kernels::holt_winters::{EtsLane, SeasonalClass};
use dwcp_math::kernels::tbats_filter::TbatsLane;
use dwcp_math::kernels::{tbats_filter, trig_seasonal};
use dwcp_models::arima::css::ExpandedArma;
use dwcp_models::arima::transform::{unconstrained_to_ar_into, unconstrained_to_ma_into};
use serde::Serialize;
use std::time::Instant;

const SERIES_LEN: usize = 480;
const BATCH: usize = 12;
/// Length of the mixed-shape TBATS rows' series: a forecast-auto training
/// window.
const MIXED_SERIES_LEN: usize = 984;
/// Length of the estate-round ETS row's series: a benchmark estate's daily
/// training window.
const ESTATE_SERIES_LEN: usize = 83;

#[derive(Debug, Clone, Serialize)]
struct KernelRow {
    /// Candidate order (p, q) of the expanded ARMA.
    p: usize,
    q: usize,
    /// Scalar reference recursion, ns per evaluation.
    reference_ns: f64,
    /// Vectorised kernel, ns per evaluation.
    kernel_ns: f64,
    /// Batched kernel (batch of 12 sharing one series), ns per candidate.
    batch_ns: f64,
    /// Unconstrained→(AR, MA) transform alone, ns.
    transform_ns: f64,
    /// Full objective path (transform + expansion + CSS), ns.
    objective_ns: f64,
    /// reference / kernel speedup.
    kernel_speedup: f64,
}

/// One exponential-smoothing-family pass timed three ways: the scalar
/// reference recursion/filter, each lane through a one-lane kernel pass,
/// and the row's lanes in one kernel pass.
#[derive(Debug, Clone, Serialize)]
struct FamilyRow {
    /// Model family ("ETS" or "TBATS").
    family: &'static str,
    /// Candidate shape within the family (e.g. "hw-add-24"); `mixed-k`
    /// rows are one pass of `k` lanes with distinct shapes.
    shape: &'static str,
    /// Lanes in the batched pass.
    lanes: usize,
    /// Observations per lane.
    series_len: usize,
    /// Scalar reference, ns per evaluation.
    reference_ns: f64,
    /// The kernel on one lane per pass, ns per evaluation.
    kernel_ns: f64,
    /// The kernel on all the row's lanes in one pass, ns per candidate.
    batch_ns: f64,
    /// reference / one-lane speedup.
    kernel_speedup: f64,
    /// reference / batched per-candidate speedup.
    batch_speedup: f64,
    /// one-lane / batched per-candidate speedup: above 1 when batching
    /// pays.
    batch_vs_solo: f64,
}

/// The batched ETS/TBATS section of the snapshot: same batch width and
/// iteration budget discipline as the CSS rows, with in-binary bitwise
/// parity (reference == one-lane pass == batched lane) asserted before
/// timing.
#[derive(Debug, Clone, Serialize)]
struct BatchedFamilies {
    batch: usize,
    iters: usize,
    rows: Vec<FamilyRow>,
    /// Geometric mean of `batch_speedup` over the ETS rows.
    ets_geomean_batch_speedup: f64,
    /// Geometric mean of `batch_speedup` over the TBATS rows.
    tbats_geomean_batch_speedup: f64,
}

/// Geometric mean of `batch_speedup` for one family's rows.
fn geomean_batch_speedup(rows: &[FamilyRow], family: &str) -> f64 {
    let logs: Vec<f64> = rows
        .iter()
        .filter(|r| r.family == family)
        .map(|r| r.batch_speedup.ln())
        .collect();
    if logs.is_empty() {
        return 1.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[derive(Debug, Clone, Serialize)]
struct KernelSnapshot {
    series_len: usize,
    batch: usize,
    iters: usize,
    rows: Vec<KernelRow>,
    batched_families: BatchedFamilies,
}

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            0.03 * tf
                + 12.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                + ((t * 2654435761 % 89) as f64) / 25.0
        })
        .collect()
}

/// An hourly series with daily and weekly cycles, like the simulated
/// workloads forecast-auto fits.
fn dual_season_series(n: usize) -> Vec<f64> {
    series(n)
        .iter()
        .enumerate()
        .map(|(t, v)| v + 5.0 * (2.0 * std::f64::consts::PI * t as f64 / 168.0).sin())
        .collect()
}

/// Unconstrained parameter vector for an order-k block, mildly varied so
/// the transform does real work.
fn u_block(k: usize, offset: f64) -> Vec<f64> {
    (0..k)
        .map(|i| 0.3 * ((i as f64) * 0.7 + offset).sin())
        .collect()
}

/// Best-of-3 timing of `iters` runs of `f`, returning ns per run.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// A final state's bits: the SSE (`None` when diverged) and every state
/// value, so `-0.0` and NaN payloads count.
fn state_bits(sse: Option<f64>, states: &[&[f64]]) -> (Option<u64>, Vec<u64>) {
    let bits = states.iter().flat_map(|v| v.iter().map(|x| x.to_bits()));
    (sse.map(f64::to_bits), bits.collect())
}

/// One ETS lane of a bench row: its shape, smoothing parameters, series
/// and initial seasonal state.
struct EtsCase {
    class: SeasonalClass,
    alpha: f64,
    beta: f64,
    gamma: f64,
    phi: f64,
    has_trend: bool,
    y: Vec<f64>,
    seasonal: Vec<f64>,
}

const ETS_TREND0: f64 = 0.05;

impl EtsCase {
    /// A lane of `class` at period `m` over `y`; `trend` is `None` (no
    /// trend), `Some(1.0)` (Holt) or `Some(φ)` (damped).
    fn new(class: SeasonalClass, m: usize, trend: Option<f64>, alpha: f64, y: Vec<f64>) -> EtsCase {
        let seasonal = match class {
            SeasonalClass::None => Vec::new(),
            SeasonalClass::Additive => (0..m).map(|i| (i as f64 * 0.26).sin()).collect(),
            SeasonalClass::Multiplicative => (0..m)
                .map(|i| 1.0 + 0.05 * (i as f64 * 0.26).sin())
                .collect(),
        };
        EtsCase {
            class,
            alpha,
            beta: if trend.is_some() { 0.1 } else { 0.0 },
            gamma: if class == SeasonalClass::None {
                0.0
            } else {
                0.05
            },
            phi: trend.unwrap_or(1.0),
            has_trend: trend.is_some(),
            y,
            seasonal,
        }
    }

    /// The scalar reference over `seasonal` (reset first).
    fn reference(&self, seasonal: &mut [f64]) -> kernels::holt_winters::HwState {
        seasonal.copy_from_slice(&self.seasonal);
        kernels::reference::ets_recursion(
            &self.y,
            self.class,
            self.alpha,
            self.beta,
            self.gamma,
            self.phi,
            self.has_trend,
            self.y[0],
            ETS_TREND0,
            seasonal,
        )
    }

    /// A fresh batch lane over `seasonal` (reset first).
    fn lane<'a>(&'a self, seasonal: &'a mut [f64]) -> EtsLane<'a> {
        seasonal.copy_from_slice(&self.seasonal);
        EtsLane {
            y: &self.y,
            class: self.class,
            alpha: self.alpha,
            beta: self.beta,
            gamma: self.gamma,
            phi: self.phi,
            has_trend: self.has_trend,
            level: self.y[0],
            trend: ETS_TREND0,
            seasonal,
            sse: 0.0,
            alive: true,
        }
    }
}

/// A positive series of `n` points with a cycle of `period`, distinct
/// per `lane` (level, phase and noise differ), so a row's lanes do not
/// share one series the way a real pass's lanes do not.
fn lane_series(n: usize, period: usize, lane: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            60.0 + 3.0 * lane as f64
                + 0.03 * tf
                + 8.0 * (2.0 * std::f64::consts::PI * (tf + lane as f64) / period as f64).sin()
                + (((t + 13 * lane) * 2654435761 % 89) as f64) / 25.0
        })
        .collect()
}

/// Time one ETS pass — `cases` scored by the scalar reference, each
/// through a one-lane `ets_batch` pass, and all in one `ets_batch` pass —
/// in ns per lane, asserting first that every lane's SSE and final state,
/// one-lane and batched, are bitwise the reference's.
fn bench_ets_row(name: &'static str, iters: usize, cases: &[EtsCase]) -> FamilyRow {
    let mut alone_bufs: Vec<Vec<f64>> = cases.iter().map(|c| c.seasonal.clone()).collect();
    let mut batch_bufs: Vec<Vec<f64>> = alone_bufs.clone();
    let mut ref_buf: Vec<f64> = Vec::new();
    let run_batch = |bufs: &mut [Vec<f64>]| -> Vec<kernels::holt_winters::HwState> {
        let mut lanes: Vec<EtsLane<'_>> = cases
            .iter()
            .zip(bufs.iter_mut())
            .map(|(case, b)| case.lane(b))
            .collect();
        kernels::ets_batch(&mut lanes);
        lanes.iter().map(|l| l.result()).collect()
    };
    let run_alone = |case: &EtsCase, buf: &mut [f64]| {
        let mut lane = case.lane(buf);
        kernels::ets_batch(std::slice::from_mut(&mut lane));
        lane.result()
    };

    // Parity before timing.
    let batched = run_batch(&mut batch_bufs);
    for (i, case) in cases.iter().enumerate() {
        ref_buf.clone_from(&case.seasonal);
        let reference = case.reference(&mut ref_buf);
        let alone = run_alone(case, &mut alone_bufs[i]);
        let bits = |s: &kernels::holt_winters::HwState, window: &[f64]| {
            state_bits(s.sse, &[&[s.level, s.trend], window])
        };
        let expected = bits(&reference, &ref_buf);
        assert!(
            bits(&alone, &alone_bufs[i]) == expected,
            "bitwise state parity violated: ETS {name} lane {i} reference vs one-lane pass"
        );
        assert!(
            bits(&batched[i], &batch_bufs[i]) == expected,
            "bitwise state parity violated: ETS {name} lane {i} reference vs batched"
        );
    }

    let lanes = cases.len();
    let passes = (iters / lanes).max(1);
    let mut sink = 0.0f64;
    let reference_ns = time_ns(passes, || {
        for case in cases {
            ref_buf.clone_from(&case.seasonal);
            sink += case.reference(&mut ref_buf).sse.unwrap_or(0.0);
        }
    }) / lanes as f64;
    let kernel_ns = time_ns(passes, || {
        for (case, buf) in cases.iter().zip(alone_bufs.iter_mut()) {
            sink += run_alone(case, buf).sse.unwrap_or(0.0);
        }
    }) / lanes as f64;
    let batch_ns = time_ns(passes, || {
        sink += run_batch(&mut batch_bufs)[0].sse.unwrap_or(0.0);
    }) / lanes as f64;
    std::hint::black_box(sink);

    println!(
        "  ETS   {name:<16} {lanes:>2} lanes  reference {reference_ns:>7.0} ns  one-lane {kernel_ns:>7.0} ns  \
         batch {batch_ns:>7.0} ns/cand  ({:.2}x one-lane, {:.2}x batched, batched/one-lane {:.2}x)",
        reference_ns / kernel_ns,
        reference_ns / batch_ns,
        kernel_ns / batch_ns
    );
    FamilyRow {
        family: "ETS",
        shape: name,
        lanes,
        series_len: cases.first().map_or(0, |c| c.y.len()),
        reference_ns,
        kernel_ns,
        batch_ns,
        kernel_speedup: reference_ns / kernel_ns,
        batch_speedup: reference_ns / batch_ns,
        batch_vs_solo: kernel_ns / batch_ns,
    }
}

/// Time the ETS rows: each menu shape as a pass of [`BATCH`] same-shape
/// lanes over the shared [`SERIES_LEN`]-point series (Holt-Winters
/// additive at periods 24 and 52, the latter past the stack block), then
/// passes shaped
/// like the real ones, each lane on its own series: an estate round (the
/// HES menu's three chains from four daily series, 83 points, period 7),
/// a serve relearn's SES, additive and multiplicative lanes on an hourly
/// [`MIXED_SERIES_LEN`]-point series at period 24, and mixed 2- and
/// 4-lane passes on such series.
fn bench_ets(iters: usize, y: &[f64]) -> Vec<FamilyRow> {
    use SeasonalClass::{Additive, Multiplicative, None as NonSeasonal};
    let alpha = |c: usize| 0.3 * (1.0 - 0.01 * c as f64);
    let mut rows = Vec::new();
    let same_shape: [(&'static str, SeasonalClass, usize, Option<f64>); 6] = [
        ("ses", NonSeasonal, 24, None),
        ("holt", NonSeasonal, 24, Some(1.0)),
        ("holt-damped", NonSeasonal, 24, Some(0.98)),
        ("hw-add-24", Additive, 24, Some(1.0)),
        ("hw-add-52", Additive, 52, Some(1.0)),
        ("hw-mult-24", Multiplicative, 24, Some(1.0)),
    ];
    for (name, class, m, trend) in same_shape {
        let cases: Vec<EtsCase> = (0..BATCH)
            .map(|c| EtsCase::new(class, m, trend, alpha(c), y.to_vec()))
            .collect();
        rows.push(bench_ets_row(name, iters, &cases));
    }
    // An estate round: the non-seasonal chain (SES, Holt and damped Holt
    // in turn), then the additive and multiplicative Holt-Winters chains,
    // of four daily series.
    let daily = |lane: usize| lane_series(ESTATE_SERIES_LEN, 7, lane);
    let none_trends = [None, Some(1.0), Some(0.9), Some(1.0)];
    let mut estate: Vec<EtsCase> = none_trends
        .iter()
        .enumerate()
        .map(|(c, &trend)| EtsCase::new(NonSeasonal, 7, trend, alpha(c), daily(c)))
        .collect();
    for class in [Additive, Multiplicative] {
        for c in 0..4 {
            estate.push(EtsCase::new(class, 7, Some(1.0), alpha(c), daily(c)));
        }
    }
    rows.push(bench_ets_row("estate-round", iters, &estate));
    let hourly = |lane: usize| lane_series(MIXED_SERIES_LEN, 24, lane);
    let pass = |shapes: &[(SeasonalClass, Option<f64>)]| -> Vec<EtsCase> {
        shapes
            .iter()
            .enumerate()
            .map(|(c, &(class, trend))| EtsCase::new(class, 24, trend, alpha(c), hourly(c)))
            .collect()
    };
    let relearn = [
        (NonSeasonal, None),
        (Additive, Some(1.0)),
        (Multiplicative, Some(1.0)),
    ];
    rows.push(bench_ets_row("serve-relearn", iters, &pass(&relearn)));
    let mixed = [
        (NonSeasonal, None),
        (Additive, Some(1.0)),
        (NonSeasonal, Some(0.9)),
        (Multiplicative, Some(1.0)),
    ];
    rows.push(bench_ets_row("mixed-2", iters, &pass(&mixed[..2])));
    rows.push(bench_ets_row("mixed-4", iters, &pass(&mixed)));
    rows
}

/// One TBATS lane shape of a bench row.
#[derive(Clone, Copy)]
struct TbatsShape {
    seasons: &'static [(f64, usize)],
    use_trend: bool,
    phi: f64,
    ar: &'static [f64],
    ma: &'static [f64],
}

/// One lane's inputs: its shape's tables, γ pairs and start state.
struct TbatsCase {
    shape: TbatsShape,
    alpha: f64,
    tables: Vec<Vec<(f64, f64)>>,
    gammas: Vec<(f64, f64)>,
    seasonal: Vec<f64>,
}

impl TbatsCase {
    fn new(shape: TbatsShape, alpha: f64) -> TbatsCase {
        let tables: Vec<Vec<(f64, f64)>> = shape
            .seasons
            .iter()
            .map(|&(period, harmonics)| trig_seasonal::rotation_table(period, harmonics))
            .collect();
        let gammas = shape.seasons.iter().map(|_| (0.01, 0.005)).collect();
        let seasonal_len: usize = tables.iter().map(|t| 2 * t.len()).sum();
        let seasonal = (0..seasonal_len)
            .map(|i| 0.1 * (i as f64 * 0.37).sin())
            .collect();
        TbatsCase {
            shape,
            alpha,
            tables,
            gammas,
            seasonal,
        }
    }
}

/// Per-lane state windows, reset before every filter run.
struct TbatsBuffers {
    seasonal: Vec<f64>,
    d_hist: Vec<f64>,
    e_hist: Vec<f64>,
}

const TBATS_BETA: f64 = 0.05;
const TBATS_TREND0: f64 = 0.02;

/// A fresh lane for `case` over `z`, its windows reset from `bufs`.
fn tbats_lane<'a>(case: &'a TbatsCase, z: &'a [f64], bufs: &'a mut TbatsBuffers) -> TbatsLane<'a> {
    bufs.seasonal.copy_from_slice(&case.seasonal);
    bufs.d_hist.fill(0.0);
    bufs.e_hist.fill(0.0);
    TbatsLane {
        z,
        alpha: case.alpha,
        beta: TBATS_BETA,
        phi: case.shape.phi,
        use_trend: case.shape.use_trend,
        gammas: &case.gammas,
        ar: case.shape.ar,
        ma: case.shape.ma,
        tables: &case.tables,
        level: z[0],
        trend: TBATS_TREND0,
        seasonal: &mut bufs.seasonal,
        d_hist: &mut bufs.d_hist,
        e_hist: &mut bufs.e_hist,
        sse: 0.0,
        alive: true,
    }
}

/// The reference's final state for `case` over `z`, from the start state
/// every kernel lane gets.
fn tbats_reference_state(case: &TbatsCase, z: &[f64]) -> kernels::reference::TbatsState {
    let start = kernels::reference::TbatsState {
        level: z[0],
        trend: TBATS_TREND0,
        seasonal: case.seasonal.clone(),
        d_hist: vec![0.0; case.shape.ar.len()],
        e_hist: vec![0.0; case.shape.ma.len()],
        sse: 0.0,
        alive: true,
    };
    kernels::reference::tbats_filter_state(
        z,
        case.shape.seasons,
        case.alpha,
        TBATS_BETA,
        case.shape.phi,
        case.shape.use_trend,
        &case.gammas,
        case.shape.ar,
        case.shape.ma,
        start,
    )
}

/// The reference filter's SSE, as the timed baseline runs it.
fn tbats_reference(case: &TbatsCase, z: &[f64]) -> Option<f64> {
    kernels::reference::tbats_filter(
        z,
        case.shape.seasons,
        case.alpha,
        TBATS_BETA,
        case.shape.phi,
        case.shape.use_trend,
        &case.gammas,
        case.shape.ar,
        case.shape.ma,
        z[0],
        TBATS_TREND0,
        &case.seasonal,
    )
}

/// Time one TBATS pass — `cases` scored by the scalar reference, each
/// through a one-lane `run_batch` pass, and all in one `run_batch` pass —
/// in ns per lane, asserting first that every lane's SSE and final state,
/// one-lane and batched, are bitwise the reference's.
fn bench_tbats_row(name: &'static str, iters: usize, z: &[f64], cases: &[TbatsCase]) -> FamilyRow {
    let buffers = |case: &TbatsCase| TbatsBuffers {
        seasonal: case.seasonal.clone(),
        d_hist: vec![0.0; case.shape.ar.len()],
        e_hist: vec![0.0; case.shape.ma.len()],
    };
    let mut alone_bufs: Vec<TbatsBuffers> = cases.iter().map(buffers).collect();
    let mut batch_bufs: Vec<TbatsBuffers> = cases.iter().map(buffers).collect();
    // Each run reports (SSE, level, trend) per lane.
    let outcome = |lane: &TbatsLane<'_>| (lane.result(), lane.level, lane.trend);
    let run_alone = |case: &TbatsCase, bufs: &mut TbatsBuffers| {
        let mut lane = tbats_lane(case, z, bufs);
        tbats_filter::run_batch(std::slice::from_mut(&mut lane));
        outcome(&lane)
    };
    let run_batch = |bufs: &mut [TbatsBuffers]| -> Vec<(Option<f64>, f64, f64)> {
        let mut lanes: Vec<TbatsLane<'_>> = cases
            .iter()
            .zip(bufs.iter_mut())
            .map(|(case, b)| tbats_lane(case, z, b))
            .collect();
        tbats_filter::run_batch(&mut lanes);
        lanes.iter().map(outcome).collect()
    };

    // Parity before timing.
    let batched = run_batch(&mut batch_bufs);
    for (i, case) in cases.iter().enumerate() {
        let reference = tbats_reference_state(case, z);
        let expected = state_bits(
            reference.alive.then_some(reference.sse),
            &[
                &[reference.level, reference.trend],
                &reference.seasonal,
                &reference.d_hist,
                &reference.e_hist,
            ],
        );
        let bits = |(sse, level, trend): (Option<f64>, f64, f64), b: &TbatsBuffers| {
            state_bits(sse, &[&[level, trend], &b.seasonal, &b.d_hist, &b.e_hist])
        };
        let alone = run_alone(case, &mut alone_bufs[i]);
        assert!(
            bits(alone, &alone_bufs[i]) == expected,
            "bitwise state parity violated: TBATS {name} lane {i} reference vs one-lane pass"
        );
        assert!(
            bits(batched[i], &batch_bufs[i]) == expected,
            "bitwise state parity violated: TBATS {name} lane {i} reference vs batched"
        );
    }

    let lanes = cases.len();
    let passes = (iters / lanes).max(1);
    let mut sink = 0.0f64;
    let reference_ns = time_ns(passes, || {
        for case in cases {
            sink += tbats_reference(case, z).unwrap_or(0.0);
        }
    }) / lanes as f64;
    let kernel_ns = time_ns(passes, || {
        for (case, bufs) in cases.iter().zip(alone_bufs.iter_mut()) {
            sink += run_alone(case, bufs).0.unwrap_or(0.0);
        }
    }) / lanes as f64;
    let batch_ns = time_ns(passes, || {
        sink += run_batch(&mut batch_bufs)[0].0.unwrap_or(0.0);
    }) / lanes as f64;
    std::hint::black_box(sink);

    println!(
        "  TBATS {name:<16} {lanes:>2} lanes  reference {reference_ns:>7.0} ns  one-lane {kernel_ns:>7.0} ns  \
         batch {batch_ns:>7.0} ns/cand  ({:.2}x one-lane, {:.2}x batched, batched/one-lane {:.2}x)",
        reference_ns / kernel_ns,
        reference_ns / batch_ns,
        kernel_ns / batch_ns
    );
    FamilyRow {
        family: "TBATS",
        shape: name,
        lanes,
        series_len: z.len(),
        reference_ns,
        kernel_ns,
        batch_ns,
        kernel_speedup: reference_ns / kernel_ns,
        batch_speedup: reference_ns / batch_ns,
        batch_vs_solo: kernel_ns / batch_ns,
    }
}

/// Time the TBATS rows: each menu shape as a pass of [`BATCH`] same-shape
/// lanes over the [`SERIES_LEN`]-point series, then forecast-auto-like
/// mixed passes of 2, 3 and 4 lanes with distinct {trend, ARMA,
/// harmonics} shapes over a [`MIXED_SERIES_LEN`]-point dual-season
/// series. The reference rebuilds rotation tables and reallocates ARMA
/// histories per call (the per-objective-call shape of the original
/// model filter); the kernel paths reuse caller-pooled state.
fn bench_tbats(iters: usize, z: &[f64], z_mixed: &[f64]) -> Vec<FamilyRow> {
    const fn shape(
        seasons: &'static [(f64, usize)],
        use_trend: bool,
        phi: f64,
        ar: &'static [f64],
        ma: &'static [f64],
    ) -> TbatsShape {
        TbatsShape {
            seasons,
            use_trend,
            phi,
            ar,
            ma,
        }
    }
    let same_shape: [(&'static str, TbatsShape); 5] = [
        ("level", shape(&[], false, 0.0, &[], &[])),
        ("trend-arma11", shape(&[], true, 0.95, &[0.4], &[0.3])),
        ("seasonal-24x3", shape(&[(24.0, 3)], false, 0.0, &[], &[])),
        (
            "damped-arma-24x3",
            shape(&[(24.0, 3)], true, 0.95, &[0.4], &[0.3]),
        ),
        (
            "dual-24x3-168x5",
            shape(&[(24.0, 3), (168.0, 5)], true, 0.95, &[0.4], &[0.3]),
        ),
    ];
    // Distinct shapes in lattice order of a forecast-auto round: the
    // first `k` of them make the `mixed-k` pass.
    let mixed: [TbatsShape; 4] = [
        shape(&[(24.0, 1), (168.0, 1)], false, 0.0, &[], &[]),
        shape(&[(24.0, 3), (168.0, 3)], true, 0.95, &[0.4], &[0.3]),
        shape(&[(24.0, 2), (168.0, 2)], true, 1.0, &[0.4], &[]),
        shape(&[(24.0, 3), (168.0, 3)], false, 0.0, &[0.4], &[0.3]),
    ];
    let alpha = |c: usize| 0.1 * (1.0 - 0.01 * c as f64);
    let mut rows = Vec::new();
    for (name, s) in same_shape {
        let cases: Vec<TbatsCase> = (0..BATCH).map(|c| TbatsCase::new(s, alpha(c))).collect();
        rows.push(bench_tbats_row(name, iters, z, &cases));
    }
    for (k, name) in [(2, "mixed-2"), (3, "mixed-3"), (4, "mixed-4")] {
        let cases: Vec<TbatsCase> = mixed[..k]
            .iter()
            .enumerate()
            .map(|(c, &s)| TbatsCase::new(s, alpha(c)))
            .collect();
        rows.push(bench_tbats_row(name, iters, z_mixed, &cases));
    }
    rows
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iters = if std::env::var("DWCP_QUICK").is_ok() {
        2_000
    } else {
        20_000
    };
    let w = series(SERIES_LEN);
    let specs = [
        (1usize, 0usize),
        (13, 0), // pure AR at the champion's order: isolates the AR fill
        (0, 2),  // pure MA: isolates the serial recurrence
        (5, 1),
        (13, 2),
        (30, 2),
    ];
    let mut rows = Vec::new();

    for &(p, q) in &specs {
        let u_ar = u_block(p, 0.1);
        let u_ma = u_block(q, 0.9);
        let (mut phi, mut theta) = (Vec::new(), Vec::new());
        let (mut pacs, mut prev) = (Vec::new(), Vec::new());
        unconstrained_to_ar_into(&u_ar, &mut phi, &mut pacs, &mut prev);
        unconstrained_to_ma_into(&u_ma, &mut theta, &mut pacs, &mut prev);

        let mut a = Vec::new();
        let mut sink = 0.0f64;
        let reference_ns = time_ns(iters, || {
            sink += kernels::reference::css(&phi, &theta, &w, &mut a);
        });
        let kernel_ns = time_ns(iters, || {
            sink += kernels::css(&phi, &theta, &w, &mut a);
        });

        // Batch of 12 candidates with slightly different coefficients but
        // the same differencing signature (one shared series).
        let batch_coeffs: Vec<(Vec<f64>, Vec<f64>)> = (0..BATCH)
            .map(|c| {
                let mut ph = phi.clone();
                let mut th = theta.clone();
                for v in ph.iter_mut() {
                    *v *= 1.0 - 0.01 * c as f64;
                }
                for v in th.iter_mut() {
                    *v *= 1.0 - 0.01 * c as f64;
                }
                (ph, th)
            })
            .collect();
        let batch_refs: Vec<(&[f64], &[f64], &[f64])> = batch_coeffs
            .iter()
            .map(|(ph, th)| (ph.as_slice(), th.as_slice(), w.as_slice()))
            .collect();
        let mut scratch = kernels::CssBatchScratch::default();
        let mut out = Vec::new();
        let batch_iters = (iters / BATCH).max(1);
        let batch_ns = time_ns(batch_iters, || {
            kernels::css_batch(&batch_refs, &mut scratch, &mut out);
            sink += out[0];
        }) / BATCH as f64;

        let transform_ns = time_ns(iters, || {
            unconstrained_to_ar_into(&u_ar, &mut phi, &mut pacs, &mut prev);
            unconstrained_to_ma_into(&u_ma, &mut theta, &mut pacs, &mut prev);
            sink += phi.first().copied().unwrap_or(0.0);
        });

        let mut expanded = ExpandedArma::default();
        let objective_ns = time_ns(iters, || {
            unconstrained_to_ar_into(&u_ar, &mut phi, &mut pacs, &mut prev);
            unconstrained_to_ma_into(&u_ma, &mut theta, &mut pacs, &mut prev);
            expanded.expand_into(&phi, &theta, &[], &[], 0);
            sink += expanded.css_into(&w, &mut a);
        });

        println!(
            "  ({p:>2},{q})  reference {reference_ns:>7.0} ns  kernel {kernel_ns:>7.0} ns  \
             batch {batch_ns:>7.0} ns/cand  transform {transform_ns:>6.0} ns  \
             objective {objective_ns:>7.0} ns  ({:.2}x)",
            reference_ns / kernel_ns
        );
        rows.push(KernelRow {
            p,
            q,
            reference_ns,
            kernel_ns,
            batch_ns,
            transform_ns,
            objective_ns,
            kernel_speedup: reference_ns / kernel_ns,
        });
        std::hint::black_box(sink);
    }

    // Batched exponential-smoothing families. Multiplicative Holt-Winters
    // needs a strictly positive series; the shift changes nothing for the
    // additive recursions' cost profile.
    let y: Vec<f64> = w.iter().map(|v| v + 50.0).collect();
    let mut family_rows = bench_ets(iters, &y);
    let w_mixed = dual_season_series(MIXED_SERIES_LEN);
    family_rows.extend(bench_tbats(iters, &w, &w_mixed));
    let ets_geo = geomean_batch_speedup(&family_rows, "ETS");
    let tbats_geo = geomean_batch_speedup(&family_rows, "TBATS");
    println!("  geomean batched speedup: ETS {ets_geo:.2}x  TBATS {tbats_geo:.2}x");

    let snapshot = KernelSnapshot {
        series_len: SERIES_LEN,
        batch: BATCH,
        iters,
        rows,
        batched_families: BatchedFamilies {
            batch: BATCH,
            iters,
            rows: family_rows,
            ets_geomean_batch_speedup: ets_geo,
            tbats_geomean_batch_speedup: tbats_geo,
        },
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&snapshot).expect("serializable"),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}
