//! Golden analyst-path digest: `Pipeline::run` with `MethodChoice::Auto`
//! — the union SARIMAX + HES + TBATS grid behind `dwcp forecast --method
//! auto` — on four simulated hourly series must reproduce a fixed
//! champion digest and objective-evaluation count at one and two threads.
//!
//! The constants were recorded from the evaluator as it stood before the
//! TBATS kernel scored a round's lanes in one lane-inner pass. Every
//! batched kernel is bitwise per lane, so a kernel that only changes how
//! lanes share a pass must leave these numbers exactly as they are. The
//! digest is FNV-1a over each series' champion string, its held-out RMSE
//! bits and the bits of its warm seed (the converged unconstrained
//! parameters the repository stores for relearning).

use dwcp_core::{MethodChoice, Pipeline, PipelineConfig};
use dwcp_workload::{olap_scenario, oltp_scenario, Metric};

const SEED: u64 = 1;
const INSTANCE: &str = "cdbm012";

const DIGEST: u64 = 0xc343_6d7c_e717_ad97;
const EVALS: usize = 206_640;

/// FNV-1a with a 0xff separator after every field.
struct Digest(u64);

impl Digest {
    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
}

/// The auto pipeline over OLAP/OLTP × cpu/iops at `threads`: the digest of
/// its champions and its summed objective evaluations.
fn run_all(threads: usize) -> (u64, usize) {
    let mut config = PipelineConfig::hourly(MethodChoice::Auto);
    config.eval.threads = threads;
    let pipeline = Pipeline::new(config);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut evals = 0;
    for (name, scenario) in [("olap", olap_scenario()), ("oltp", oltp_scenario())] {
        for metric in [Metric::CpuPercent, Metric::LogicalIops] {
            let series = scenario.hourly(SEED, INSTANCE, metric).unwrap();
            let outcome = pipeline.run(&series, &[]).unwrap();
            println!(
                "threads={threads} {name}/{metric:?}: {} rmse={} evals={}",
                outcome.champion, outcome.accuracy.rmse, outcome.stats.objective_evals
            );
            digest.add(outcome.champion.as_bytes());
            digest.add(&outcome.accuracy.rmse.to_bits().to_le_bytes());
            for v in &outcome.warm_seed {
                digest.add(&v.to_bits().to_le_bytes());
            }
            evals += outcome.stats.objective_evals;
        }
    }
    (digest.0, evals)
}

#[test]
fn auto_champions_and_evals_match_the_golden_digest() {
    for threads in [1, 2] {
        let (digest, evals) = run_all(threads);
        println!("threads={threads} digest={digest:#018x} evals={evals}");
        assert_eq!((digest, evals), (DIGEST, EVALS), "threads={threads}");
    }
}
