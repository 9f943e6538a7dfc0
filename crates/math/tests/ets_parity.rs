//! Property test: the Holt-Winters chunk kernel is bitwise the scalar
//! reference, lane by lane, on random mixed rounds and on every lane alone.
//!
//! `ets_batch` packs a round's lanes into lane-inner chunks by class and
//! period, runs non-seasonal lanes as additive ones over `+0.0` seasonal
//! states, parks idle slots at a fixed point and redoes a step one lane at
//! a time when any guard fails; a lane alone runs a width-1 chunk. Each
//! generated round draws 1–12 lanes of all three classes in random order:
//! trend off, on and damped; periods 7 and 24, a second period in some
//! rounds, and a period of 40, past the stack block, which steps its own
//! window as a width-1 chunk beside another such lane; a seasonal lane
//! with an empty window and a non-seasonal lane handed a non-empty one;
//! series of unequal length, empty included. Lanes die through each guard
//! — a non-finite error, a multiplicative seasonal factor below 1e-12, a
//! level below 1e-12 — or arrive dead, and observations, levels, trends
//! and seasonal states include signed zeros. Every lane's `result()`,
//! `alive` flag, level, trend and seasonal window must match
//! `reference::ets_recursion` bit for bit, both in the round's pass and in
//! a pass of its own (the path of a single fit and a frozen re-score).

use dwcp_math::kernels::ets_batch;
use dwcp_math::kernels::holt_winters::{self, EtsLane, SeasonalClass};
use dwcp_math::kernels::reference;
use proptest::prelude::*;

/// SplitMix64: the round generator's RNG, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.uniform(0.0, 1.0) < p
    }

    fn signed_zero(&mut self) -> f64 {
        [0.0, -0.0][self.below(2)]
    }
}

/// One lane's inputs and start state.
#[derive(Debug, Clone)]
struct Case {
    class: SeasonalClass,
    y: Vec<f64>,
    alpha: f64,
    beta: f64,
    gamma: f64,
    phi: f64,
    has_trend: bool,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    alive: bool,
}

/// A lane's final state: what `result()` reports, plus the flag and the
/// window.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    sse: Option<u64>,
    alive: bool,
    level: u64,
    trend: u64,
    seasonal: Vec<u64>,
}

impl Outcome {
    fn new(state: &holt_winters::HwState, alive: bool, seasonal: &[f64]) -> Outcome {
        Outcome {
            sse: state.sse.map(f64::to_bits),
            alive,
            level: state.level.to_bits(),
            trend: state.trend.to_bits(),
            seasonal: seasonal.iter().map(|v| v.to_bits()).collect(),
        }
    }
}

/// One random lane. `periods` are the round's seasonal periods.
fn case(rng: &mut Rng, periods: &[usize]) -> Case {
    let class = [
        SeasonalClass::None,
        SeasonalClass::Additive,
        SeasonalClass::Multiplicative,
    ][rng.below(3)];
    let (has_trend, phi) = match rng.below(3) {
        0 => (false, [1.0, 0.9, -0.5][rng.below(3)]),
        1 => (true, 1.0),
        _ => (true, rng.uniform(0.8, 0.98)),
    };
    // A zero lane sits on zero: signed-zero observations, level, trend and
    // seasonal states. A multiplicative zero lane dies on the level guard.
    let zero_lane = rng.chance(0.12);
    let n = if rng.chance(0.08) { 0 } else { rng.below(100) };
    let mult = class == SeasonalClass::Multiplicative;
    let mut y: Vec<f64> = (0..n)
        .map(|t| {
            if zero_lane || rng.chance(0.04) {
                rng.signed_zero()
            } else {
                50.0 + 8.0 * (t as f64 / 3.0).sin() + rng.uniform(-3.0, 3.0)
            }
        })
        .collect();
    if n > 0 && !zero_lane && rng.chance(0.12) {
        let at = rng.below(n);
        y[at] = [f64::NAN, f64::INFINITY, -f64::INFINITY][rng.below(3)];
    }
    let m = match rng.below(12) {
        0 => 40,
        _ => periods[rng.below(periods.len())],
    };
    let state = |rng: &mut Rng, scale: f64| {
        if zero_lane || rng.chance(0.1) {
            rng.signed_zero()
        } else {
            rng.uniform(-scale, scale)
        }
    };
    let mut seasonal: Vec<f64> = match class {
        // Some non-seasonal lanes are handed a window they must ignore.
        SeasonalClass::None if rng.chance(0.3) => (0..m).map(|_| state(rng, 2.0)).collect(),
        SeasonalClass::None => Vec::new(),
        SeasonalClass::Additive => (0..m).map(|_| state(rng, 2.0)).collect(),
        SeasonalClass::Multiplicative => (0..m)
            .map(|_| {
                if zero_lane {
                    1.0
                } else {
                    1.0 + rng.uniform(-0.1, 0.1)
                }
            })
            .collect(),
    };
    if mult && !seasonal.is_empty() && rng.chance(0.1) {
        // A collapsed seasonal factor trips the `|s| < 1e-12` guard.
        let at = rng.below(seasonal.len());
        seasonal[at] = [0.0, -0.0, 1e-13][rng.below(3)];
    }
    if class != SeasonalClass::None && rng.chance(0.05) {
        seasonal.clear();
    }
    // A no-trend lane never updates its trend, but still reads it: a NaN
    // or infinite one kills it at once.
    let trend = if has_trend || rng.below(8) != 0 {
        state(rng, 1.0)
    } else {
        [f64::NAN, f64::INFINITY][rng.below(2)]
    };
    let level = if zero_lane || rng.chance(0.1) {
        rng.signed_zero()
    } else {
        rng.uniform(40.0, 60.0)
    };
    Case {
        class,
        y,
        alpha: if zero_lane && rng.chance(0.5) {
            1.0
        } else {
            rng.uniform(0.0001, 0.9999)
        },
        beta: rng.uniform(0.0001, 0.5),
        gamma: rng.uniform(0.0001, 0.5),
        phi,
        has_trend,
        level,
        trend: if mult && !has_trend && zero_lane {
            rng.signed_zero()
        } else {
            trend
        },
        seasonal,
        alive: !rng.chance(0.06),
    }
}

/// The scalar reference's outcome for `c`; a lane that arrives dead is
/// left as it is.
fn reference(c: &Case) -> Outcome {
    let mut seasonal = c.seasonal.clone();
    if !c.alive {
        let state = holt_winters::HwState {
            level: c.level,
            trend: c.trend,
            sse: None,
        };
        return Outcome::new(&state, false, &seasonal);
    }
    let state = reference::ets_recursion(
        &c.y,
        c.class,
        c.alpha,
        c.beta,
        c.gamma,
        c.phi,
        c.has_trend,
        c.level,
        c.trend,
        &mut seasonal,
    );
    Outcome::new(&state, state.sse.is_some(), &seasonal)
}

/// A lane over `c` whose window is `seasonal`.
fn lane<'a>(c: &'a Case, seasonal: &'a mut [f64]) -> EtsLane<'a> {
    EtsLane {
        y: &c.y,
        class: c.class,
        alpha: c.alpha,
        beta: c.beta,
        gamma: c.gamma,
        phi: c.phi,
        has_trend: c.has_trend,
        level: c.level,
        trend: c.trend,
        seasonal,
        sse: 0.0,
        alive: c.alive,
    }
}

/// `c` through a pass of its own.
fn alone(c: &Case) -> Outcome {
    let mut seasonal = c.seasonal.clone();
    let mut l = lane(c, &mut seasonal);
    ets_batch(std::slice::from_mut(&mut l));
    let (state, alive) = (l.result(), l.alive);
    Outcome::new(&state, alive, &seasonal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn batched_and_lone_lanes_match_reference_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let periods: &[usize] = match rng.below(4) {
            0 => &[7],
            1 => &[24],
            _ => &[7, 24],
        };
        let cases: Vec<Case> = (0..1 + rng.below(12)).map(|_| case(&mut rng, periods)).collect();

        let mut windows: Vec<Vec<f64>> = cases.iter().map(|c| c.seasonal.clone()).collect();
        let mut lanes: Vec<EtsLane<'_>> = cases
            .iter()
            .zip(windows.iter_mut())
            .map(|(c, seasonal)| lane(c, seasonal))
            .collect();
        let chunks = ets_batch(&mut lanes);
        let running = cases.iter().filter(|c| c.alive && !c.y.is_empty()).count();
        prop_assert!(chunks <= running, "{} chunks for {} running lanes", chunks, running);
        let finals: Vec<(holt_winters::HwState, bool)> =
            lanes.iter().map(|l| (l.result(), l.alive)).collect();
        drop(lanes);

        for (i, c) in cases.iter().enumerate() {
            let (state, alive) = &finals[i];
            let batched = Outcome::new(state, *alive, &windows[i]);
            let expected = reference(c);
            prop_assert_eq!(
                &batched,
                &expected,
                "lane {} of {} vs reference: {:?}",
                i,
                cases.len(),
                c
            );
            prop_assert_eq!(&alone(c), &expected, "lane {} alone vs reference: {:?}", i, c);
        }
    }
}
