//! Micro-benchmark of the evaluation kernels: the scalar reference CSS
//! recursion versus the vectorised kernel versus the batched
//! multi-candidate kernel, plus the unconstrained-parameter transform and
//! the full objective path (transform + polynomial expansion + CSS) so the
//! per-evaluation cost can be attributed layer by layer. A second section
//! times the exponential-smoothing families the same three ways — scalar
//! reference, solo kernel, batched kernel — per ETS/TBATS menu shape, with
//! bitwise SSE parity across all three paths asserted in-binary (and, for
//! TBATS, bitwise final state between the solo and batched kernels). The
//! TBATS rows include forecast-auto-like passes of 2–4 lanes that share
//! no shape, and record the batched-vs-solo ratio of every row.
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

/// One exponential-smoothing-family shape timed three ways: the scalar
/// reference recursion/filter, the solo monomorphic kernel, and the
/// time-outer batched kernel at width [`BATCH`].
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
    /// Solo kernel, ns per evaluation.
    kernel_ns: f64,
    /// Batched kernel, ns per candidate.
    batch_ns: f64,
    /// reference / solo-kernel speedup.
    kernel_speedup: f64,
    /// reference / batched per-candidate speedup.
    batch_speedup: f64,
    /// solo-kernel / batched per-candidate speedup: above 1 when batching
    /// pays.
    batch_vs_solo: f64,
}

/// The batched ETS/TBATS section of the snapshot: same batch width and
/// iteration budget discipline as the CSS rows, with in-binary bitwise
/// parity (reference == solo == batched lane) asserted before timing.
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

/// Bit-compare two optional SSEs; `None` (diverged) must match too.
fn assert_sse_bits(a: Option<f64>, b: Option<f64>, context: &str) {
    assert_eq!(
        a.map(f64::to_bits),
        b.map(f64::to_bits),
        "bitwise SSE parity violated: {context} ({a:?} vs {b:?})"
    );
}

/// Time the ETS menu shapes through reference / solo kernel / batched
/// kernel, asserting bitwise SSE parity across all three paths first.
fn bench_ets(iters: usize, y: &[f64]) -> Vec<FamilyRow> {
    struct Shape {
        name: &'static str,
        class: SeasonalClass,
        alpha: f64,
        beta: f64,
        gamma: f64,
        phi: f64,
        has_trend: bool,
        m: usize,
    }
    let shapes = [
        Shape {
            name: "ses",
            class: SeasonalClass::None,
            alpha: 0.3,
            beta: 0.0,
            gamma: 0.0,
            phi: 1.0,
            has_trend: false,
            m: 0,
        },
        Shape {
            name: "holt",
            class: SeasonalClass::None,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.0,
            phi: 1.0,
            has_trend: true,
            m: 0,
        },
        Shape {
            name: "holt-damped",
            class: SeasonalClass::None,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.0,
            phi: 0.98,
            has_trend: true,
            m: 0,
        },
        Shape {
            name: "hw-add-24",
            class: SeasonalClass::Additive,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.05,
            phi: 1.0,
            has_trend: true,
            m: 24,
        },
        Shape {
            name: "hw-mult-24",
            class: SeasonalClass::Multiplicative,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.05,
            phi: 1.0,
            has_trend: true,
            m: 24,
        },
    ];
    let level0 = y[0];
    let trend0 = 0.05;
    let mut rows = Vec::new();
    for shape in &shapes {
        let base_seasonal: Vec<f64> = match shape.class {
            SeasonalClass::None => Vec::new(),
            SeasonalClass::Additive => (0..shape.m).map(|i| (i as f64 * 0.26).sin()).collect(),
            SeasonalClass::Multiplicative => (0..shape.m)
                .map(|i| 1.0 + 0.05 * (i as f64 * 0.26).sin())
                .collect(),
        };
        // One per-lane α ladder with lane 0 at the baseline so the batched
        // lane 0 is directly comparable to the reference and solo runs.
        let alphas: Vec<f64> = (0..BATCH)
            .map(|c| shape.alpha * (1.0 - 0.01 * c as f64))
            .collect();
        let mut seas = base_seasonal.clone();
        let solo = |seas: &mut [f64], alpha: f64| match shape.class {
            SeasonalClass::None => kernels::holt_winters::run_none(
                y,
                alpha,
                shape.beta,
                shape.phi,
                level0,
                trend0,
                shape.has_trend,
            ),
            SeasonalClass::Additive => kernels::holt_winters::run_additive(
                y,
                alpha,
                shape.beta,
                shape.gamma,
                shape.phi,
                level0,
                trend0,
                shape.has_trend,
                seas,
            ),
            SeasonalClass::Multiplicative => kernels::holt_winters::run_multiplicative(
                y,
                alpha,
                shape.beta,
                shape.gamma,
                shape.phi,
                level0,
                trend0,
                shape.has_trend,
                seas,
            ),
        };
        let mut seasonal_pool: Vec<Vec<f64>> = (0..BATCH).map(|_| base_seasonal.clone()).collect();
        let run_batch = |pool: &mut [Vec<f64>]| {
            let mut lanes: Vec<EtsLane<'_>> = pool
                .iter_mut()
                .zip(&alphas)
                .map(|(seas, &alpha)| {
                    seas.copy_from_slice(&base_seasonal);
                    EtsLane {
                        y,
                        class: shape.class,
                        alpha,
                        beta: shape.beta,
                        gamma: shape.gamma,
                        phi: shape.phi,
                        has_trend: shape.has_trend,
                        level: level0,
                        trend: trend0,
                        seasonal: seas,
                        sse: 0.0,
                        alive: true,
                    }
                })
                .collect();
            kernels::ets_batch(&mut lanes);
            lanes[0].result()
        };

        // Parity before timing: reference, solo kernel and the batched
        // lane at the same parameters must agree bit for bit.
        seas.copy_from_slice(&base_seasonal);
        let reference = kernels::reference::ets_recursion(
            y,
            shape.class,
            shape.alpha,
            shape.beta,
            shape.gamma,
            shape.phi,
            shape.has_trend,
            level0,
            trend0,
            &mut seas,
        );
        seas.copy_from_slice(&base_seasonal);
        let solo_state = solo(&mut seas, shape.alpha);
        assert_sse_bits(
            reference.sse,
            solo_state.sse,
            &format!("ETS {} reference vs solo", shape.name),
        );
        let batched_state = run_batch(&mut seasonal_pool);
        assert_sse_bits(
            reference.sse,
            batched_state.sse,
            &format!("ETS {} reference vs batched", shape.name),
        );

        let mut sink = 0.0f64;
        let reference_ns = time_ns(iters, || {
            seas.copy_from_slice(&base_seasonal);
            let st = kernels::reference::ets_recursion(
                y,
                shape.class,
                shape.alpha,
                shape.beta,
                shape.gamma,
                shape.phi,
                shape.has_trend,
                level0,
                trend0,
                &mut seas,
            );
            sink += st.sse.unwrap_or(0.0);
        });
        let kernel_ns = time_ns(iters, || {
            seas.copy_from_slice(&base_seasonal);
            sink += solo(&mut seas, shape.alpha).sse.unwrap_or(0.0);
        });
        let batch_iters = (iters / BATCH).max(1);
        let batch_ns = time_ns(batch_iters, || {
            sink += run_batch(&mut seasonal_pool).sse.unwrap_or(0.0);
        }) / BATCH as f64;
        std::hint::black_box(sink);

        println!(
            "  ETS   {:<14} reference {reference_ns:>7.0} ns  kernel {kernel_ns:>7.0} ns  \
             batch {batch_ns:>7.0} ns/cand  ({:.2}x solo, {:.2}x batched)",
            shape.name,
            reference_ns / kernel_ns,
            reference_ns / batch_ns
        );
        rows.push(FamilyRow {
            family: "ETS",
            shape: shape.name,
            lanes: BATCH,
            series_len: y.len(),
            reference_ns,
            kernel_ns,
            batch_ns,
            kernel_speedup: reference_ns / kernel_ns,
            batch_speedup: reference_ns / batch_ns,
            batch_vs_solo: kernel_ns / batch_ns,
        });
    }
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

/// Time one TBATS pass — `cases` scored by the scalar reference, one solo
/// kernel run each, and one `run_batch` pass — in ns per lane, asserting
/// first that every batched lane's SSE and final state are bitwise those
/// of its solo run, and its SSE that of the reference.
fn bench_tbats_row(name: &'static str, iters: usize, z: &[f64], cases: &[TbatsCase]) -> FamilyRow {
    let buffers = |case: &TbatsCase| TbatsBuffers {
        seasonal: case.seasonal.clone(),
        d_hist: vec![0.0; case.shape.ar.len()],
        e_hist: vec![0.0; case.shape.ma.len()],
    };
    let mut solo_bufs: Vec<TbatsBuffers> = cases.iter().map(buffers).collect();
    let mut batch_bufs: Vec<TbatsBuffers> = cases.iter().map(buffers).collect();
    // Each run reports (SSE, level, trend) per lane.
    let outcome = |lane: &TbatsLane<'_>| (lane.result(), lane.level, lane.trend);
    let run_solo = |bufs: &mut [TbatsBuffers]| -> Vec<(Option<f64>, f64, f64)> {
        cases
            .iter()
            .zip(bufs.iter_mut())
            .map(|(case, b)| {
                let mut lane = tbats_lane(case, z, b);
                tbats_filter::run(&mut lane);
                outcome(&lane)
            })
            .collect()
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
    let solo = run_solo(&mut solo_bufs);
    let batched = run_batch(&mut batch_bufs);
    for (i, case) in cases.iter().enumerate() {
        let reference = tbats_reference(case, z);
        let ((solo_sse, solo_level, solo_trend), (sse, level, trend)) = (solo[i], batched[i]);
        assert_sse_bits(
            reference,
            solo_sse,
            &format!("TBATS {name} lane {i} reference vs solo"),
        );
        assert_sse_bits(
            reference,
            sse,
            &format!("TBATS {name} lane {i} reference vs batched"),
        );
        let (a, b) = (&solo_bufs[i], &batch_bufs[i]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert!(
            bits(&[solo_level, solo_trend]) == bits(&[level, trend])
                && bits(&a.seasonal) == bits(&b.seasonal)
                && bits(&a.d_hist) == bits(&b.d_hist)
                && bits(&a.e_hist) == bits(&b.e_hist),
            "bitwise state parity violated: TBATS {name} lane {i} solo vs batched"
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
        sink += run_solo(&mut solo_bufs)[0].0.unwrap_or(0.0);
    }) / lanes as f64;
    let batch_ns = time_ns(passes, || {
        sink += run_batch(&mut batch_bufs)[0].0.unwrap_or(0.0);
    }) / lanes as f64;
    std::hint::black_box(sink);

    println!(
        "  TBATS {name:<16} {lanes:>2} lanes  reference {reference_ns:>7.0} ns  kernel {kernel_ns:>7.0} ns  \
         batch {batch_ns:>7.0} ns/cand  ({:.2}x solo, {:.2}x batched, batched/solo {:.2}x)",
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
