//! Golden estate digest: a small daily-HES estate, scanned cold and then
//! relearned the next night through the estate wave scheduler, must
//! reproduce fixed champion digests and objective-evaluation counts at
//! every thread count and wave size.
//!
//! The cold constants were recorded from the evaluator as it stood before
//! lockstep groups drew chains from more than one task. The relearn
//! constants pin §5.1's reuse policy: a fresh champion is re-scored
//! frozen and kept, and only a degraded one searches. Scheduling is a
//! wall-time concern only — every chain keeps its own warm-start thread
//! and the batched kernels are bitwise per lane — so any change to how a
//! wave is split across workers must leave these numbers exactly as they
//! are. The digest is the benchmark's recipe: FNV-1a over each job's key,
//! champion string and RMSE bits, in the order the waves retire them.

use dwcp_core::{
    EstateScheduler, EvaluationOptions, FleetOptions, JobResult, JobSource, MethodChoice,
    PipelineConfig, SeriesJob, ShardedRepository, WaveOptions,
};
use dwcp_series::Granularity;
use dwcp_workload::EstateSpec;
use std::path::{Path, PathBuf};

const JOBS: usize = 256;
const OBSERVATIONS: usize = 97;
const SEED: u64 = 7;
const SHARDS: usize = 16;
const NOW: u64 = 1_600_000_000;
const DAY: u64 = 86_400;

const COLD_DIGEST: u64 = 0xfc0b_8493_3dae_0ee3;
const COLD_EVALS: usize = 329_974;
const RELEARN_DIGEST: u64 = 0x083b_0910_12e8_168e;
const RELEARN_EVALS: usize = 2_643;

/// The estate path's per-job configuration: the HES branch of Figure 4 on
/// the daily protocol.
fn job_config() -> PipelineConfig {
    PipelineConfig {
        method: MethodChoice::Hes,
        grid: Default::default(),
        granularity: Granularity::Daily,
        max_candidates: 8,
        fourier_stage: false,
        auto_detect_shocks: false,
        eval: EvaluationOptions::default(),
    }
}

struct EstateSource {
    spec: EstateSpec,
}

impl JobSource for EstateSource {
    fn keys(&self) -> Vec<String> {
        self.spec.keys()
    }

    fn load(&self, key: &str) -> dwcp_core::Result<SeriesJob> {
        Ok(SeriesJob::new(key, self.spec.series(key), job_config()))
    }
}

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

/// One night over the repository at `dir`: the digest of its champions and
/// its objective evaluations.
fn night(dir: &Path, threads: usize, wave: usize, relearn: bool) -> (u64, usize) {
    let (now, observations) = if relearn {
        (NOW + DAY, OBSERVATIONS + 1)
    } else {
        (NOW, OBSERVATIONS)
    };
    let repository = ShardedRepository::open_or_create(dir, SHARDS).unwrap();
    let mut scheduler = EstateScheduler::new(
        FleetOptions {
            threads,
            now,
            ..Default::default()
        },
        WaveOptions {
            wave_size: wave,
            checkpoint: None,
            max_waves: 0,
        },
        repository,
    );
    let source = EstateSource {
        spec: EstateSpec::new(JOBS, observations, SEED),
    };
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let report = scheduler
        .run_with_progress(&source, &mut |_, jobs: &[JobResult]| {
            for job in jobs {
                digest.add(job.key.as_bytes());
                match &job.outcome {
                    Ok(outcome) => {
                        digest.add(outcome.champion.as_bytes());
                        digest.add(&outcome.accuracy.rmse.to_bits().to_le_bytes());
                    }
                    Err(_) => digest.add(b"failed"),
                }
            }
        })
        .unwrap();
    assert_eq!(report.completed, JOBS, "threads={threads} wave={wave}");
    assert_eq!(report.failed, 0, "threads={threads} wave={wave}");
    (digest.0, report.stats.objective_evals)
}

fn estate_dir(threads: usize, wave: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dwcp_golden_estate_{threads}_{wave}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn estate_champions_and_evals_match_the_golden_digest() {
    for threads in [1, 2, 4, 8] {
        for wave in [17, 64, 256] {
            let dir = estate_dir(threads, wave);
            let cold = night(&dir, threads, wave, false);
            let relearn = night(&dir, threads, wave, true);
            std::fs::remove_dir_all(&dir).ok();
            println!(
                "threads={threads} wave={wave} cold={:#018x}/{} relearn={:#018x}/{}",
                cold.0, cold.1, relearn.0, relearn.1
            );
            let what = format!("threads={threads} wave={wave}");
            assert_eq!(cold, (COLD_DIGEST, COLD_EVALS), "cold scan, {what}");
            assert_eq!(
                relearn,
                (RELEARN_DIGEST, RELEARN_EVALS),
                "relearn night, {what}"
            );
        }
    }
}
