//! Property test: the TBATS chunk kernel is bitwise the scalar reference,
//! lane by lane, on random mixed-shape rounds and on every lane alone.
//!
//! `tbats_filter::run_batch` packs a round's lanes into lane-inner chunks
//! padded to their superset shape, which is exact only if every padded
//! term is an exact zero that never changes a lane's own arithmetic; a
//! lane alone runs the same 4-wide chunk beside three idle slots. Each
//! generated round draws 1–12 lanes that differ in every shape dimension
//! the padding covers — trend off, on and damped; ARMA (0,0), (1,0),
//! (0,1) and (1,1); 0, 1 or 2 seasonal blocks of 1–5 harmonics — over
//! series of unequal length. Lanes die mid-pass (a NaN observation or an
//! error past 1e12), arrive dead, or start from signed zeros: a −0.0
//! level, zero observations and states, −0.0 and negative α, and a
//! negative (or NaN, or infinite) trend on a no-trend lane. Every lane's
//! SSE, `alive` flag, level, trend, seasonal states and both ARMA
//! histories must match `reference::tbats_filter_state` bit for bit, both
//! in the round's pass and in a pass of its own (the path of a single fit
//! and a frozen re-score). About one lane in twelve falls outside the
//! kernel's envelope — ARMA order 2, three blocks or nine harmonics — and
//! must come back dead with its state untouched; under
//! `strict-invariants` such a lane fails an invariant instead, so those
//! rounds draw none and `out_of_envelope_lanes_come_back_dead` checks the
//! failure.

use dwcp_math::kernels::reference::{self, TbatsState};
use dwcp_math::kernels::tbats_filter::{self, TbatsLane};
use dwcp_math::kernels::trig_seasonal;
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

    /// A state value: usually a plain draw, sometimes a signed zero.
    fn state(&mut self, scale: f64) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            _ => self.uniform(-scale, scale),
        }
    }
}

/// One lane's inputs: shape, parameters, series and start state.
#[derive(Debug)]
struct Case {
    /// Whether the shape is outside the kernel's envelope.
    outside: bool,
    z: Vec<f64>,
    seasons: Vec<(f64, usize)>,
    tables: Vec<Vec<(f64, f64)>>,
    gammas: Vec<(f64, f64)>,
    alpha: f64,
    beta: f64,
    phi: f64,
    use_trend: bool,
    ar: Vec<f64>,
    ma: Vec<f64>,
    start: TbatsState,
}

/// One random lane; `no_trend` forces the trend off (whole rounds without
/// a trend reach the chunk path that never pads one).
fn case(rng: &mut Rng, no_trend: bool) -> Case {
    // Shape. About one lane in twelve falls outside the envelope (ARMA
    // order 2, three blocks, or nine harmonics) and must come back dead.
    let outside = rng.chance(1.0 / 12.0) && !cfg!(feature = "strict-invariants");
    let (use_trend, phi) = match if no_trend { 0 } else { rng.below(3) } {
        0 => (false, [0.0, 0.9, -0.5][rng.below(3)]),
        1 => (true, 1.0),
        _ => (true, rng.uniform(0.8, 0.99)),
    };
    let (mut p, mut q) = [(0, 0), (1, 0), (0, 1), (1, 1)][rng.below(4)];
    let mut blocks = rng.below(3);
    let mut max_harmonics = 5;
    if outside {
        match rng.below(3) {
            0 => (p, q) = (2, 1),
            1 => blocks = 3,
            _ => max_harmonics = 9,
        }
    }
    let periods = [24.0, 168.0, 12.0, 7.5, 23.5];
    let seasons: Vec<(f64, usize)> = (0..blocks)
        .map(|_| {
            (
                periods[rng.below(periods.len())],
                1 + rng.below(max_harmonics),
            )
        })
        .collect();
    let tables = seasons
        .iter()
        .map(|&(period, h)| trig_seasonal::rotation_table(period, h))
        .collect();
    let gammas = seasons
        .iter()
        .map(|_| (rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)))
        .collect();
    let ar = (0..p).map(|_| rng.uniform(-0.9, 0.9)).collect::<Vec<f64>>();
    let ma = (0..q).map(|_| rng.uniform(-0.9, 0.9)).collect::<Vec<f64>>();

    // Series: unequal lengths (empty included), sometimes a NaN or a spike
    // past the 1e12 guard. A zero lane has signed-zero observations and
    // starts from signed zeros everywhere, so its sums sit on zero.
    let n = rng.below(300);
    let zero_lane = rng.chance(0.15);
    let mut z: Vec<f64> = (0..n)
        .map(|t| {
            if zero_lane || rng.chance(0.05) {
                [0.0, -0.0][rng.below(2)]
            } else {
                50.0 + 10.0 * (t as f64 / 4.0).sin() + rng.uniform(-3.0, 3.0)
            }
        })
        .collect();
    if n > 0 && !zero_lane && rng.chance(0.15) {
        let at = rng.below(n);
        z[at] = if rng.chance(0.5) { f64::NAN } else { 5e12 };
    }

    // Start state. A no-trend lane never reads its trend, so it may hold
    // anything: a negative value, NaN or infinity among the draws.
    let seasonal_len: usize = seasons.iter().map(|&(_, h)| 2 * h).sum();
    let value = |rng: &mut Rng, scale: f64| {
        if zero_lane {
            [0.0, -0.0][rng.below(2)]
        } else {
            rng.state(scale)
        }
    };
    let trend = if use_trend {
        value(rng, 1.0)
    } else {
        match rng.below(6) {
            0..=2 => -rng.uniform(0.1, 5.0),
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => value(rng, 1.0),
        }
    };
    let start = TbatsState {
        level: if zero_lane || rng.chance(0.2) {
            [0.0, -0.0, -0.0][rng.below(3)]
        } else {
            rng.uniform(40.0, 60.0)
        },
        trend,
        seasonal: (0..seasonal_len).map(|_| value(rng, 2.0)).collect(),
        d_hist: (0..p).map(|_| value(rng, 1.0)).collect(),
        e_hist: (0..q).map(|_| value(rng, 1.0)).collect(),
        sse: 0.0,
        alive: !rng.chance(0.08),
    };
    // Smoothing parameters, with signed-zero and negative α among them
    // (often on zero lanes, where `α·d` is then −0.0): the padding must be
    // exact for any values, not only fitted ones.
    let alpha = match rng.below(if zero_lane { 3 } else { 20 }) {
        0 => -0.0,
        1 => -rng.uniform(0.0, 0.3),
        _ => rng.uniform(0.0, 0.5),
    };
    Case {
        outside: outside && (p > 1 || blocks > 2 || seasons.iter().any(|&(_, h)| h > 8)),
        z,
        seasons,
        tables,
        gammas,
        alpha,
        beta: rng.uniform(0.0, 0.2),
        phi,
        use_trend,
        ar,
        ma,
        start,
    }
}

/// A lane over `case` whose state windows are `state`'s.
fn lane<'a>(case: &'a Case, state: &'a mut TbatsState) -> TbatsLane<'a> {
    TbatsLane {
        z: &case.z,
        alpha: case.alpha,
        beta: case.beta,
        phi: case.phi,
        use_trend: case.use_trend,
        gammas: &case.gammas,
        ar: &case.ar,
        ma: &case.ma,
        tables: &case.tables,
        level: state.level,
        trend: state.trend,
        seasonal: &mut state.seasonal,
        d_hist: &mut state.d_hist,
        e_hist: &mut state.e_hist,
        sse: state.sse,
        alive: state.alive,
    }
}

/// Copy a finished lane's scalars back into the state its windows live in.
fn settle(state: &mut TbatsState, level: f64, trend: f64, sse: f64, alive: bool) {
    state.level = level;
    state.trend = trend;
    state.sse = sse;
    state.alive = alive;
}

/// Every field of a final state as bits, so `-0.0` and NaN payloads count.
fn bits(state: &TbatsState) -> Vec<u64> {
    let mut out = vec![
        state.level.to_bits(),
        state.trend.to_bits(),
        state.sse.to_bits(),
        u64::from(state.alive),
    ];
    for v in [&state.seasonal, &state.d_hist, &state.e_hist] {
        out.push(v.len() as u64);
        out.extend(v.iter().map(|x| x.to_bits()));
    }
    out
}

/// What the kernel must leave for `c`: the reference's final state, or for
/// a lane outside the envelope its start state, dead.
fn expected(c: &Case) -> TbatsState {
    if c.outside {
        return TbatsState {
            alive: false,
            ..c.start.clone()
        };
    }
    reference::tbats_filter_state(
        &c.z,
        &c.seasons,
        c.alpha,
        c.beta,
        c.phi,
        c.use_trend,
        &c.gammas,
        &c.ar,
        &c.ma,
        c.start.clone(),
    )
}

/// Run `cases` through one `run_batch` pass from their start states.
fn run_pass(cases: &[&Case]) -> Vec<TbatsState> {
    let mut states: Vec<TbatsState> = cases.iter().map(|c| c.start.clone()).collect();
    let mut lanes: Vec<TbatsLane<'_>> = cases
        .iter()
        .zip(states.iter_mut())
        .map(|(c, state)| lane(c, state))
        .collect();
    tbats_filter::run_batch(&mut lanes);
    let finals: Vec<(f64, f64, f64, bool)> = lanes
        .iter()
        .map(|l| (l.level, l.trend, l.sse, l.alive))
        .collect();
    drop(lanes);
    for (state, (level, trend, sse, alive)) in states.iter_mut().zip(finals) {
        settle(state, level, trend, sse, alive);
    }
    states
}

/// An out-of-envelope or mis-sized lane comes back dead with its state
/// untouched, and its pass-mates are unaffected; under
/// `strict-invariants` the kernel flags it instead.
#[test]
#[cfg_attr(feature = "strict-invariants", should_panic(expected = "envelope"))]
fn out_of_envelope_lanes_come_back_dead() {
    let mut rng = Rng(7);
    let healthy = loop {
        let c = case(&mut rng, false);
        if !c.outside && c.start.alive && !c.z.is_empty() {
            break c;
        }
    };
    let mut wide = Vec::new();
    for (p, q, blocks) in [(2, 0, 1), (0, 2, 0), (1, 1, 3)] {
        let mut c = case(&mut rng, false);
        c.ar = vec![0.3; p];
        c.ma = vec![0.2; q];
        c.seasons = vec![(24.0, 2); blocks];
        c.tables = c
            .seasons
            .iter()
            .map(|&(m, h)| trig_seasonal::rotation_table(m, h))
            .collect();
        c.gammas = vec![(0.01, 0.02); blocks];
        c.start.seasonal = vec![0.5; 4 * blocks];
        c.start.d_hist = vec![0.1; p];
        c.start.e_hist = vec![0.1; q];
        c.start.alive = true;
        c.outside = true;
        wide.push(c);
    }
    // Nine harmonics in one block.
    let mut nine = case(&mut rng, false);
    nine.seasons = vec![(24.0, 9)];
    nine.tables = vec![trig_seasonal::rotation_table(24.0, 9)];
    nine.gammas = vec![(0.01, 0.02)];
    nine.start.seasonal = vec![0.25; 18];
    nine.start.alive = true;
    nine.outside = true;
    wide.push(nine);
    // In the envelope, but with a history window the wrong size.
    let mut missized = case(&mut rng, false);
    missized.ar = vec![0.4];
    missized.start.d_hist = vec![0.0; 3];
    missized.start.alive = true;
    missized.outside = true;
    wide.push(missized);
    let mut cases: Vec<&Case> = vec![&healthy];
    cases.extend(&wide);
    let states = run_pass(&cases);
    for (c, state) in cases.iter().zip(&states) {
        assert_eq!(bits(state), bits(&expected(c)), "{c:?}");
    }
    for c in &wide {
        assert!(!run_pass(&[c])[0].alive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn batched_and_lone_lanes_match_reference_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let no_trend = rng.chance(0.25);
        let cases: Vec<Case> = (0..1 + rng.below(12)).map(|_| case(&mut rng, no_trend)).collect();
        let all: Vec<&Case> = cases.iter().collect();
        let batched = run_pass(&all);
        for (i, c) in cases.iter().enumerate() {
            let expected = bits(&expected(c));
            prop_assert_eq!(
                bits(&batched[i]),
                expected.clone(),
                "lane {} of {} vs reference: {:?}",
                i,
                cases.len(),
                c
            );
            prop_assert_eq!(
                bits(&run_pass(&[c])[0]),
                expected,
                "lane {} alone vs reference: {:?}",
                i,
                c
            );
        }
    }
}
