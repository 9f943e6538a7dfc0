//! The model repository and its retention policies.
//!
//! §5.1: "That model is then stored in a central repository and used for a
//! period of one week or until the model's RMSE drops to a point where it
//! is rendered useless." §9: "we suggest … that the event needs to happen
//! more than 3 times for it to be a behaviour … if a system crashes we
//! discard it, however if the system continually crashes the learning
//! engine will see it as a behaviour."
//!
//! [`ShardedRepository`] is the one champion store: append-only shard logs
//! on disk for the estate path, or [`ShardedRepository::in_memory`] for
//! the resident engine and a fleet run with no repository directory.
//! [`RetentionPolicy::relearn_reason`] is the one place the week and
//! degradation rules are written.

use crate::grid::ModelConfig;
use crate::pipeline::ForecastOutcome;
use crate::{PlannerError, Result};
use dwcp_series::Granularity;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One week in seconds — the paper's staleness horizon.
pub const ONE_WEEK_SECONDS: u64 = 7 * 86_400;

/// A stored champion model descriptor.
///
/// The repository stores the champion's configuration plus its converged
/// parameters: a fresh champion is re-scored (and, in the resident
/// engine, forecast) at those parameters verbatim, and a degraded one
/// searches its neighbourhood warm-started from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Workload key, e.g. `cdbm011/CPU`.
    pub workload: String,
    /// Champion descriptor, e.g. `SARIMAX FFT Exogenous (4,1,2)(1,1,1,24)`.
    pub champion: String,
    /// Protocol row the model was fitted under.
    pub granularity: Granularity,
    /// Test RMSE at fit time — the baseline the degradation rule compares
    /// against.
    pub baseline_rmse: f64,
    /// Epoch-seconds the model was fitted.
    pub fitted_at: u64,
    /// Machine-readable champion configuration — any model family
    /// (`None` only in legacy records that predate family-agnostic
    /// persistence).
    pub champion_config: Option<ModelConfig>,
    /// The champion's converged unconstrained optimiser parameters at fit
    /// time — what a frozen re-score evaluates and a seeded search starts
    /// from. Empty when unknown.
    pub warm_params: Vec<f64>,
    /// The champion's regression coefficients at fit time (empty for
    /// plain champions), so a regression champion is re-scored verbatim.
    pub warm_beta: Vec<f64>,
}

impl ModelRecord {
    /// Build the record a pipeline outcome should persist.
    pub fn from_outcome(
        workload: &str,
        outcome: &ForecastOutcome,
        granularity: Granularity,
        now: u64,
    ) -> ModelRecord {
        ModelRecord {
            workload: workload.to_string(),
            champion: outcome.champion.clone(),
            granularity,
            baseline_rmse: outcome.accuracy.rmse,
            fitted_at: now,
            champion_config: Some(outcome.champion_spec.clone()),
            warm_params: outcome.warm_seed.clone(),
            warm_beta: outcome.warm_beta.clone(),
        }
    }

    /// The champion reuse inputs: the stored configuration to re-score
    /// and to centre a neighbourhood grid on, the converged parameters to
    /// score it at or warm-start from, and the regression coefficients
    /// (both empty when only the configuration is known). `None` only for legacy records
    /// with no stored configuration.
    pub fn champion_seed(&self) -> Option<(&ModelConfig, &[f64], &[f64])> {
        self.champion_config.as_ref().map(|config| {
            (
                config,
                self.warm_params.as_slice(),
                self.warm_beta.as_slice(),
            )
        })
    }
}

/// Why a stored model needs relearning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelearnReason {
    /// No usable model stored for this workload: none yet, or one the
    /// job cannot re-score (another granularity, a family its method does
    /// not search, exogenous columns it lacks, or parameters that do not
    /// fit the stored configuration).
    Missing,
    /// Older than the retention window (one week by default).
    Stale,
    /// Live RMSE degraded beyond the tolerated factor.
    Degraded,
}

/// Retention policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum model age before a relearn (paper: one week).
    pub max_age_seconds: u64,
    /// Relearn when live RMSE exceeds `baseline × factor`.
    pub rmse_degradation_factor: f64,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            max_age_seconds: ONE_WEEK_SECONDS,
            rmse_degradation_factor: 2.0,
        }
    }
}

impl RetentionPolicy {
    /// Apply the Figure 4 retention rules to a stored champion: relearn
    /// when none is stored, when it is older than `max_age_seconds`, or
    /// when the live RMSE has degraded past `baseline × factor`.
    /// `live_rmse = None` means no fresh accuracy reading is available
    /// (the age rule still applies).
    pub fn relearn_reason(
        &self,
        record: Option<&ModelRecord>,
        now: u64,
        live_rmse: Option<f64>,
    ) -> Option<RelearnReason> {
        let Some(record) = record else {
            return Some(RelearnReason::Missing);
        };
        if now.saturating_sub(record.fitted_at) > self.max_age_seconds {
            return Some(RelearnReason::Stale);
        }
        match live_rmse {
            Some(rmse) if rmse > record.baseline_rmse * self.rmse_degradation_factor => {
                Some(RelearnReason::Degraded)
            }
            _ => None,
        }
    }
}

/// Anything the fleet scheduler can read champions from and write
/// champions to: a [`ShardedRepository`] (on disk or in memory), or a
/// per-wave working set extracted from one.
///
/// `fetch` hands back an owned record (a sharded store may have to load
/// and later evict the shard the record lives in, so borrowed returns
/// are impossible); `put` replaces the stored champion for the record's
/// workload key.
pub trait ChampionStore {
    /// The retention policy relearn decisions are made under.
    fn retention(&self) -> RetentionPolicy;
    /// The stored champion for a workload, if any.
    fn fetch(&mut self, workload: &str) -> Option<ModelRecord>;
    /// Store (or replace) the champion for the record's workload.
    fn put(&mut self, record: ModelRecord);
}

/// Stable FNV-1a 64-bit hash of a workload key. The shard assignment must
/// never change across builds or platforms — records written by one
/// version of the binary must be found by every later one — so the hash
/// is pinned here rather than delegated to `std`'s unspecified hasher.
pub fn shard_of(workload: &str, n_shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1_0000_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in workload.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % n_shards.max(1) as u64) as usize
}

/// When an append-only shard log is rewritten in place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompactionPolicy {
    /// Logs below this many entries are never compacted (rewriting a tiny
    /// file buys nothing).
    pub min_log_entries: usize,
    /// Compact once the log holds more than `live × ratio` entries — i.e.
    /// once at least half the log (at the default 2.0) is dead weight
    /// (superseded records and tombstones).
    pub max_dead_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_log_entries: 1024,
            max_dead_ratio: 2.0,
        }
    }
}

/// One line of a shard log: a champion record, or a tombstone for a
/// removed workload. Append-only — replaying the log in order with
/// latest-wins semantics reconstructs the shard's live records.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum LogEntry {
    /// Store (or supersede) the champion for the record's workload.
    Put(ModelRecord),
    /// Remove the workload's champion.
    Del(String),
}

/// I/O counters for a sharded repository — what the lazy loading actually
/// did, so benches and examples can show their working set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardIoStats {
    /// Shard log files read and replayed.
    pub shard_loads: usize,
    /// Log entries appended across all flushes.
    pub entries_appended: usize,
    /// Compaction rewrites performed.
    pub compactions: usize,
    /// Unparseable log lines skipped by the lenient per-shard load.
    pub lenient_skips: usize,
    /// Resident shards dropped by eviction.
    pub evictions: usize,
}

/// One resident shard: the replayed live records plus not-yet-flushed
/// mutations.
#[derive(Debug)]
struct ShardState {
    /// Live records after latest-wins replay of the on-disk log and every
    /// pending mutation.
    records: BTreeMap<String, ModelRecord>,
    /// Entries currently in the on-disk log (drives the compaction
    /// trigger).
    log_entries: usize,
    /// Mutations not yet appended to the log.
    pending: Vec<LogEntry>,
}

impl ShardState {
    fn empty() -> ShardState {
        ShardState {
            records: BTreeMap::new(),
            log_entries: 0,
            pending: Vec::new(),
        }
    }
}

/// The manifest persisted at the root of a sharded repository. The shard
/// count is fixed at creation (re-hashing an estate in place is a
/// migration, not a config change), the policies travel with the data.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EstateManifest {
    version: u32,
    n_shards: usize,
    policy: RetentionPolicy,
    compaction: CompactionPolicy,
}

/// The champion repository: champions hashed across `N` append-only shard
/// logs, loaded lazily one shard at a time.
///
/// Looking up or persisting one champion touches exactly one shard file;
/// a full-estate scan loads shards one at a time and evicts them clean —
/// peak memory is one shard, never the estate. Loading is lenient **per
/// shard**: a corrupt or truncated shard log degrades only its own
/// workloads to the full-relearn path (the parseable prefix of the log is
/// kept, the torn tail is skipped with a warning) while every other shard
/// is untouched.
///
/// Each shard is an append-only JSON-lines log of put/delete entries with
/// tombstones; once a log exceeds [`CompactionPolicy`]'s dead-entry
/// ratio it is rewritten to just its live records via a temp-file +
/// atomic-rename pass, so a crash mid-compaction can never leave a
/// half-written shard — the old log stays in place until the rename.
///
/// [`ShardedRepository::in_memory`] is the same store without the files:
/// one resident shard, never evicted, that queues no log entries.
#[derive(Debug)]
pub struct ShardedRepository {
    /// Directory holding the manifest and shard logs; `None` for the
    /// in-memory form.
    root: Option<PathBuf>,
    n_shards: usize,
    /// Policy applied by [`ShardedRepository::needs_relearn`].
    pub policy: RetentionPolicy,
    /// When shard logs are compacted.
    pub compaction: CompactionPolicy,
    shards: Vec<Option<ShardState>>,
    warnings: Vec<String>,
    io: ShardIoStats,
}

impl ShardedRepository {
    /// Manifest version written by this build.
    const VERSION: u32 = 1;

    fn with_root(
        root: Option<PathBuf>,
        n_shards: usize,
        policy: RetentionPolicy,
        compaction: CompactionPolicy,
    ) -> ShardedRepository {
        // The in-memory form's one shard is resident from the start and
        // never evicted; an on-disk shard loads on first touch.
        let resident = root.is_none();
        ShardedRepository {
            root,
            n_shards,
            policy,
            compaction,
            shards: (0..n_shards)
                .map(|_| resident.then(ShardState::empty))
                .collect(),
            warnings: Vec::new(),
            io: ShardIoStats::default(),
        }
    }

    /// A repository that lives only in memory: one resident shard that
    /// never reads or writes a file, is never evicted and queues no log
    /// entries, so storing a workload again replaces its one record.
    /// `flush` and `evict_clean` do nothing and `io_stats` stays zero.
    pub fn in_memory() -> ShardedRepository {
        ShardedRepository::with_root(
            None,
            1,
            RetentionPolicy::default(),
            CompactionPolicy::default(),
        )
    }

    /// Create a new sharded repository at `root` (the directory is
    /// created; an existing manifest there is an error — use
    /// [`ShardedRepository::open`] or [`ShardedRepository::open_or_create`]).
    pub fn create(root: &Path, n_shards: usize) -> Result<ShardedRepository> {
        let n_shards = n_shards.max(1);
        let manifest_path = root.join("MANIFEST.json");
        if manifest_path.exists() {
            return Err(PlannerError::Persistence(format!(
                "sharded repository already exists at {}",
                root.display()
            )));
        }
        std::fs::create_dir_all(root.join("shards")).map_err(persistence)?;
        let manifest = EstateManifest {
            version: Self::VERSION,
            n_shards,
            policy: RetentionPolicy::default(),
            compaction: CompactionPolicy::default(),
        };
        let json = serde_json::to_string_pretty(&manifest).map_err(persistence)?;
        write_atomic(&manifest_path, json.as_bytes())?;
        Ok(ShardedRepository::with_root(
            Some(root.to_path_buf()),
            n_shards,
            manifest.policy,
            manifest.compaction,
        ))
    }

    /// Open an existing sharded repository. The manifest is the one file
    /// read strictly: without the shard count nothing can be located, so
    /// a corrupt manifest is an error rather than a degradation.
    pub fn open(root: &Path) -> Result<ShardedRepository> {
        let manifest_path = root.join("MANIFEST.json");
        let json = std::fs::read_to_string(&manifest_path).map_err(persistence)?;
        let manifest: EstateManifest = serde_json::from_str(&json).map_err(persistence)?;
        if manifest.version != Self::VERSION || manifest.n_shards == 0 {
            return Err(PlannerError::Persistence(format!(
                "unsupported repository manifest at {} (version {}, {} shards)",
                manifest_path.display(),
                manifest.version,
                manifest.n_shards
            )));
        }
        Ok(ShardedRepository::with_root(
            Some(root.to_path_buf()),
            manifest.n_shards,
            manifest.policy,
            manifest.compaction,
        ))
    }

    /// Open the repository at `root`, creating it with `n_shards` shards
    /// if no manifest exists yet (first boot). An existing repository
    /// keeps its own shard count — `n_shards` is only a creation default.
    pub fn open_or_create(root: &Path, n_shards: usize) -> Result<ShardedRepository> {
        if root.join("MANIFEST.json").exists() {
            ShardedRepository::open(root)
        } else {
            ShardedRepository::create(root, n_shards)
        }
    }

    /// The fixed shard count.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Cumulative I/O counters.
    pub fn io_stats(&self) -> ShardIoStats {
        self.io
    }

    /// Drain the warnings accumulated by lenient shard loads.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// Number of currently resident (loaded) shards.
    pub fn resident_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// Load shard `idx` if it is not already resident, replaying its log
    /// leniently: unreadable files and unparseable lines degrade to
    /// warnings and skipped entries, never to an error, so a damaged
    /// shard costs only its own workloads a full relearn.
    fn load_shard(&mut self, idx: usize) -> Result<&mut ShardState> {
        let slot = self.shards.get_mut(idx).ok_or(PlannerError::Internal {
            context: "shard index out of range",
        })?;
        if slot.is_none() {
            let mut state = ShardState::empty();
            if let Some(root) = &self.root {
                let path = shard_log_path(root, idx);
                // A stale `.tmp` from a crashed compaction is dead weight:
                // the rename never happened, so the original log is
                // authoritative.
                let tmp = path.with_extension("log.tmp");
                if tmp.exists() {
                    std::fs::remove_file(&tmp).ok();
                }
                match std::fs::read(&path) {
                    Ok(content) => {
                        self.io.shard_loads += 1;
                        let mut skipped = 0usize;
                        // Lines are checked for UTF-8 one at a time, so a
                        // tail torn inside a multi-byte character costs
                        // only its own line, like any other torn line.
                        for line in content.split(|&b| b == b'\n') {
                            let line = std::str::from_utf8(line);
                            if line.is_ok_and(|line| line.trim().is_empty()) {
                                continue;
                            }
                            state.log_entries += 1;
                            match line.map(serde_json::from_str::<LogEntry>) {
                                Ok(Ok(LogEntry::Put(record))) => {
                                    state.records.insert(record.workload.clone(), record);
                                }
                                Ok(Ok(LogEntry::Del(workload))) => {
                                    state.records.remove(&workload);
                                }
                                Ok(Err(_)) | Err(_) => skipped += 1,
                            }
                        }
                        if skipped > 0 {
                            self.io.lenient_skips += skipped;
                            self.warnings.push(format!(
                                "shard {idx}: skipped {skipped} unparseable log line(s); \
                                 the affected workloads relearn from scratch"
                            ));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => {
                        self.warnings.push(format!(
                            "shard {idx}: unreadable ({e}); its workloads relearn from scratch"
                        ));
                    }
                }
            }
            *slot = Some(state);
        }
        slot.as_mut().ok_or(PlannerError::Internal {
            context: "shard vanished after load",
        })
    }

    /// Fetch the stored champion for a workload, loading only its shard.
    pub fn get(&mut self, workload: &str) -> Result<Option<&ModelRecord>> {
        let idx = shard_of(workload, self.n_shards);
        Ok(self.load_shard(idx)?.records.get(workload))
    }

    /// Store (or replace) the champion for a workload. On disk the
    /// mutation is buffered in the shard until [`ShardedRepository::flush`].
    pub fn store(&mut self, record: ModelRecord) -> Result<()> {
        let idx = shard_of(&record.workload, self.n_shards);
        let logged = self.root.is_some();
        let shard = self.load_shard(idx)?;
        if logged {
            shard.pending.push(LogEntry::Put(record.clone()));
        }
        shard.records.insert(record.workload.clone(), record);
        Ok(())
    }

    /// Remove a workload's champion (on disk, a tombstone is appended on
    /// flush). Returns whether a record existed.
    pub fn remove(&mut self, workload: &str) -> Result<bool> {
        let idx = shard_of(workload, self.n_shards);
        let logged = self.root.is_some();
        let shard = self.load_shard(idx)?;
        let existed = shard.records.remove(workload).is_some();
        if logged {
            shard.pending.push(LogEntry::Del(workload.to_string()));
        }
        Ok(existed)
    }

    /// Apply [`RetentionPolicy::relearn_reason`] to a workload's stored
    /// champion, loading only its shard.
    pub fn needs_relearn(
        &mut self,
        workload: &str,
        now: u64,
        current_rmse: Option<f64>,
    ) -> Result<Option<RelearnReason>> {
        let policy = self.policy;
        Ok(policy.relearn_reason(self.get(workload)?, now, current_rmse))
    }

    /// Append every pending mutation to its shard log (one write per
    /// dirty shard, starting on a new line if the log ends in a torn
    /// line), then compact any log that crossed the dead-entry
    /// threshold. Nothing is rewritten unless compaction triggers.
    pub fn flush(&mut self) -> Result<()> {
        let Some(root) = &self.root else {
            return Ok(());
        };
        for (idx, slot) in self.shards.iter_mut().enumerate() {
            let Some(shard) = slot else {
                continue;
            };
            if shard.pending.is_empty() {
                continue;
            }
            let path = shard_log_path(root, idx);
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&path)
                .map_err(persistence)?;
            let mut batch = String::new();
            if ends_torn(&mut file).map_err(persistence)? {
                batch.push('\n');
            }
            for entry in &shard.pending {
                batch.push_str(&serde_json::to_string(entry).map_err(persistence)?);
                batch.push('\n');
            }
            file.write_all(batch.as_bytes()).map_err(persistence)?;
            let appended = shard.pending.len();
            shard.log_entries += appended;
            shard.pending.clear();
            self.io.entries_appended += appended;

            let live = shard.records.len();
            let dead_heavy =
                shard.log_entries as f64 > (live as f64) * self.compaction.max_dead_ratio;
            if shard.log_entries >= self.compaction.min_log_entries && dead_heavy {
                let mut rewritten = String::new();
                for record in shard.records.values() {
                    rewritten.push_str(
                        &serde_json::to_string(&LogEntry::Put(record.clone()))
                            .map_err(persistence)?,
                    );
                    rewritten.push('\n');
                }
                write_atomic(&path, rewritten.as_bytes())?;
                shard.log_entries = live;
                self.io.compactions += 1;
            }
        }
        Ok(())
    }

    /// Drop every resident shard with no pending mutations. Call after
    /// [`ShardedRepository::flush`] to keep a long scan's memory bounded
    /// by one wave's shards instead of the whole estate. The in-memory
    /// form keeps its one shard.
    pub fn evict_clean(&mut self) {
        if self.root.is_none() {
            return;
        }
        for slot in self.shards.iter_mut() {
            if slot.as_ref().is_some_and(|s| s.pending.is_empty()) {
                *slot = None;
                self.io.evictions += 1;
            }
        }
    }

    /// Clone the stored records for `workloads`, loading each involved
    /// shard at most once and evicting every clean shard afterwards —
    /// the per-wave champion prefetch. Memory is O(result + one shard).
    pub fn fetch_many(&mut self, workloads: &[String]) -> Result<BTreeMap<String, ModelRecord>> {
        let mut by_shard: BTreeMap<usize, Vec<&String>> = BTreeMap::new();
        for key in workloads {
            by_shard
                .entry(shard_of(key, self.n_shards))
                .or_default()
                .push(key);
        }
        let mut out = BTreeMap::new();
        for (idx, keys) in by_shard {
            let shard = self.load_shard(idx)?;
            for key in keys {
                if let Some(record) = shard.records.get(key.as_str()) {
                    out.insert(key.clone(), record.clone());
                }
            }
            self.evict_clean();
        }
        Ok(out)
    }

    /// `fitted_at` for each workload (`None` when no record exists),
    /// aligned with the input order. Loads each involved shard at most
    /// once and evicts clean shards as it goes — the staleness scan for
    /// wave prioritisation, O(keys × 8 bytes) instead of O(records).
    pub fn fitted_at_many(&mut self, workloads: &[String]) -> Result<Vec<Option<u64>>> {
        let mut out = vec![None; workloads.len()];
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, key) in workloads.iter().enumerate() {
            by_shard
                .entry(shard_of(key, self.n_shards))
                .or_default()
                .push(i);
        }
        for (idx, positions) in by_shard {
            let shard = self.load_shard(idx)?;
            for pos in positions {
                let (Some(key), Some(slot)) = (workloads.get(pos), out.get_mut(pos)) else {
                    continue;
                };
                *slot = shard.records.get(key.as_str()).map(|r| r.fitted_at);
            }
            self.evict_clean();
        }
        Ok(out)
    }

    /// Total live records across every shard, loading (and evicting)
    /// shards one at a time.
    pub fn count_records(&mut self) -> Result<usize> {
        let mut total = 0usize;
        for idx in 0..self.n_shards {
            total += self.load_shard(idx)?.records.len();
            self.evict_clean();
        }
        Ok(total)
    }
}

impl ChampionStore for ShardedRepository {
    fn retention(&self) -> RetentionPolicy {
        self.policy
    }

    /// Lenient by design: an I/O failure degrades the workload to the
    /// full-relearn path (`None`) instead of aborting the batch — the
    /// shard's warning records what happened.
    fn fetch(&mut self, workload: &str) -> Option<ModelRecord> {
        match self.get(workload) {
            Ok(record) => record.cloned(),
            Err(_) => None,
        }
    }

    fn put(&mut self, record: ModelRecord) {
        if self.store(record).is_err() {
            // Unreachable in practice (store only errors on an
            // out-of-range shard index); the record is simply not
            // persisted and the workload relearns next run.
        }
    }
}

fn persistence(e: impl std::fmt::Display) -> PlannerError {
    PlannerError::Persistence(e.to_string())
}

fn shard_log_path(root: &Path, idx: usize) -> PathBuf {
    root.join("shards").join(format!("shard-{idx:04}.log"))
}

/// Write via a temp file + atomic rename: readers never observe a
/// half-written file, and a crash leaves either the old file or the new
/// one — never a hybrid.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    std::fs::write(&tmp, bytes).map_err(persistence)?;
    std::fs::rename(&tmp, path).map_err(persistence)
}

/// Whether an open shard log ends without a trailing newline: a torn
/// tail from a crash or a failed write mid-append. The next append must
/// then start with one, so its first entry is not swallowed by the torn
/// line. Read from the file itself, never cached, so it holds after any
/// earlier write, failed or not; an empty log is not torn.
fn ends_torn(file: &mut std::fs::File) -> std::io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    Ok(last != [b'\n'])
}

/// The >3-occurrence shock policy (§9): an anomalous event is discarded
/// until it has been seen more than `threshold` times, after which it is a
/// *behaviour* the models must account for (e.g. a new exogenous column).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShockTracker {
    counts: BTreeMap<String, u32>,
    /// Occurrences needed before an event becomes a behaviour
    /// (paper default: "more than 3 times", "which can be changed
    /// manually").
    pub threshold: u32,
}

impl Default for ShockTracker {
    fn default() -> Self {
        ShockTracker {
            counts: BTreeMap::new(),
            threshold: 3,
        }
    }
}

impl ShockTracker {
    /// Tracker with the paper's default threshold of 3.
    pub fn new() -> ShockTracker {
        ShockTracker::default()
    }

    /// Record one occurrence of an event; returns the updated count.
    pub fn record(&mut self, event: &str) -> u32 {
        let c = self.counts.entry(event.to_string()).or_insert(0);
        *c += 1;
        *c
    }

    /// Whether the event has crossed the behaviour threshold (strictly more
    /// than `threshold` occurrences).
    pub fn is_behaviour(&self, event: &str) -> bool {
        self.counts.get(event).copied().unwrap_or(0) > self.threshold
    }

    /// Forget an event (manual override for systems *in fault*, §9).
    pub fn discard(&mut self, event: &str) {
        self.counts.remove(event);
    }

    /// Occurrence count for an event.
    pub fn count(&self, event: &str) -> u32 {
        self.counts.get(event).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, rmse: f64, fitted_at: u64) -> ModelRecord {
        ModelRecord {
            workload: workload.to_string(),
            champion: "SARIMAX (1,1,1)(0,1,1,24)".to_string(),
            granularity: Granularity::Hourly,
            baseline_rmse: rmse,
            fitted_at,
            champion_config: None,
            warm_params: Vec::new(),
            warm_beta: Vec::new(),
        }
    }

    #[test]
    fn champion_seed_requires_a_stored_config() {
        let mut r = record("cdbm011/CPU", 10.0, 0);
        assert!(r.champion_seed().is_none(), "legacy records have no seed");
        let config =
            dwcp_models::SarimaxConfig::plain(dwcp_models::ArimaSpec::sarima(1, 1, 1, 0, 1, 1, 24));
        r.champion_config = Some(config.clone().into());
        r.warm_params = vec![0.2, -0.1, 0.05];
        let (stored, params, beta) = r.champion_seed().unwrap();
        assert_eq!(stored.as_sarimax(), Some(&config));
        assert_eq!(params, [0.2, -0.1, 0.05]);
        assert!(beta.is_empty());
    }

    /// Store `stored` in an on-disk repository, flush, reopen and read it
    /// back: the record must survive the shard log bit for bit.
    fn roundtrip_through_shard_log(name: &str, stored: &ModelRecord) -> ModelRecord {
        let dir = estate_dir(name);
        let mut repo = ShardedRepository::create(&dir, 4).unwrap();
        repo.store(stored.clone()).unwrap();
        repo.flush().unwrap();
        let back = ShardedRepository::open(&dir)
            .unwrap()
            .get(&stored.workload)
            .unwrap()
            .cloned()
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(&back, stored);
        let bits = |r: &ModelRecord| -> Vec<u64> {
            std::iter::once(r.baseline_rmse)
                .chain(r.warm_params.iter().copied())
                .chain(r.warm_beta.iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&back), bits(stored));
        back
    }

    #[test]
    fn record_with_seed_roundtrips_through_the_shard_log() {
        let mut r = record("cdbm011/CPU", 8.42, 1_700_000_000);
        r.champion_config = Some(
            dwcp_models::SarimaxConfig::plain(dwcp_models::ArimaSpec::sarima(4, 1, 2, 1, 1, 1, 24))
                .into(),
        );
        r.warm_params = vec![0.25, -0.5, 1.5];
        r.warm_beta = vec![-0.1];
        roundtrip_through_shard_log("seed", &r);
    }

    /// A short seasonal trace for the smoothing-family round-trip tests.
    fn seasonal_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let tf = t as f64;
                60.0 + 10.0 * (2.0 * std::f64::consts::PI * tf / 12.0).sin()
                    + ((t * 7919 % 101) as f64) / 50.0
            })
            .collect()
    }

    /// Store a champion, round-trip it through the shard log, then re-score
    /// the loaded seed frozen: the stored RMSE must reproduce bit-for-bit.
    fn roundtrip_and_rescore_frozen(workload: &str, candidates: Vec<crate::grid::CandidateModel>) {
        use crate::evaluate::{evaluate_candidates, evaluate_fleet, EvalTask};
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let cold =
            evaluate_candidates(train, test, &[], &[], &candidates, &Default::default()).unwrap();
        let champion = cold.champion().unwrap().clone();
        let stored = ModelRecord {
            workload: workload.to_string(),
            champion: champion.candidate.config.describe(),
            granularity: Granularity::Hourly,
            baseline_rmse: champion.accuracy.rmse,
            fitted_at: 7,
            champion_config: Some(champion.candidate.config.clone()),
            warm_params: champion.warm_params.clone(),
            warm_beta: champion.warm_beta.clone(),
        };
        let loaded = roundtrip_through_shard_log(&workload.replace('/', "_"), &stored);
        let (config, params, beta) = loaded.champion_seed().unwrap();
        assert_eq!(config, &champion.candidate.config);
        // Frozen re-score from the loaded seed reproduces the stored RMSE.
        let task = EvalTask {
            train,
            test,
            exog_train: &[],
            exog_test: &[],
            candidates: &candidates,
            opts: Default::default(),
            seed: Some((config.clone(), params.to_vec(), beta.to_vec())),
        };
        let seeded = evaluate_fleet(std::slice::from_ref(&task), 1)
            .pop()
            .unwrap()
            .unwrap();
        let re_scored = seeded
            .scores
            .iter()
            .find(|s| s.candidate.config == champion.candidate.config)
            .unwrap();
        assert_eq!(
            re_scored.accuracy.rmse.to_bits(),
            loaded.baseline_rmse.to_bits()
        );
        assert_eq!(re_scored.warm_params, loaded.warm_params);
    }

    #[test]
    fn hes_champion_roundtrips_and_rescores_frozen() {
        let grid = crate::grid::ModelGrid::ets(12, true, 0.95);
        roundtrip_and_rescore_frozen("cdbm014/CPU/hourly", grid.candidates);
    }

    #[test]
    fn tbats_champion_roundtrips_and_rescores_frozen() {
        use crate::grid::{CandidateModel, ModelConfig};
        let config = dwcp_models::TbatsConfig::seasonal(12.0, 2);
        let candidates = vec![CandidateModel::new(ModelConfig::Tbats(config))];
        roundtrip_and_rescore_frozen("cdbm014/IOPS/hourly", candidates);
    }

    #[test]
    fn retention_policy_applies_figure4_rules() {
        let policy = RetentionPolicy::default();
        let stored = record("cdbm011/CPU", 10.0, 1_000_000);
        let hour_later = 1_000_000 + 3600;
        assert_eq!(
            policy.relearn_reason(None, 0, None),
            Some(RelearnReason::Missing)
        );
        // Fresh and accurate: kept.
        assert_eq!(
            policy.relearn_reason(Some(&stored), 1_000_000 + 86_400, Some(12.0)),
            None
        );
        // Exactly a week old: kept; a second older: stale.
        let week = 1_000_000 + ONE_WEEK_SECONDS;
        assert_eq!(policy.relearn_reason(Some(&stored), week, Some(10.0)), None);
        assert_eq!(
            policy.relearn_reason(Some(&stored), week + 1, Some(10.0)),
            Some(RelearnReason::Stale)
        );
        // Past baseline × factor: degraded; exactly at the factor: kept.
        assert_eq!(
            policy.relearn_reason(Some(&stored), hour_later, Some(25.0)),
            Some(RelearnReason::Degraded)
        );
        assert_eq!(
            policy.relearn_reason(Some(&stored), hour_later, Some(20.0)),
            None
        );
        // No live reading: only the age rule applies.
        assert_eq!(policy.relearn_reason(Some(&stored), hour_later, None), None);
    }

    #[test]
    fn in_memory_repository_keeps_one_record_per_key_and_touches_no_file() {
        let mut repo = ShardedRepository::in_memory();
        for night in 0..50u64 {
            repo.store(record("w/CPU", 1.0 + night as f64, night))
                .unwrap();
        }
        repo.store(record("v/CPU", 2.0, 7)).unwrap();
        let queued = |repo: &ShardedRepository| -> (usize, usize) {
            let shard = repo.shards.first().and_then(Option::as_ref).unwrap();
            (shard.records.len(), shard.pending.len())
        };
        assert_eq!(queued(&repo), (2, 0), "one record per key, nothing queued");

        repo.flush().unwrap();
        repo.evict_clean();
        assert_eq!(repo.resident_shards(), 1, "the one shard is never evicted");
        let keys: Vec<String> = ["w/CPU", "v/CPU", "absent/CPU"]
            .iter()
            .map(|k| k.to_string())
            .collect();
        let fetched = repo.fetch_many(&keys).unwrap();
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched.get("w/CPU").unwrap().fitted_at, 49);
        assert_eq!(
            repo.fitted_at_many(&keys).unwrap(),
            vec![Some(49), Some(7), None]
        );
        assert_eq!(repo.count_records().unwrap(), 2);
        assert_eq!(repo.resident_shards(), 1);

        assert!(repo.remove("v/CPU").unwrap());
        assert_eq!(queued(&repo), (1, 0), "a removal queues no tombstone");
        assert_eq!(repo.count_records().unwrap(), 1);
        assert_eq!(repo.io_stats(), ShardIoStats::default());
        assert!(repo.take_warnings().is_empty());
    }

    #[test]
    fn shock_becomes_behaviour_after_threshold() {
        let mut tracker = ShockTracker::new();
        for i in 1..=3 {
            assert_eq!(tracker.record("failover"), i);
            assert!(!tracker.is_behaviour("failover"), "at count {i}");
        }
        tracker.record("failover"); // 4th occurrence — "more than 3 times"
        assert!(tracker.is_behaviour("failover"));
    }

    #[test]
    fn shock_discard_resets_the_count() {
        let mut tracker = ShockTracker::new();
        for _ in 0..5 {
            tracker.record("crash");
        }
        assert!(tracker.is_behaviour("crash"));
        tracker.discard("crash");
        assert!(!tracker.is_behaviour("crash"));
        assert_eq!(tracker.count("crash"), 0);
    }

    #[test]
    fn shock_threshold_is_adjustable() {
        let mut tracker = ShockTracker {
            threshold: 1,
            ..ShockTracker::new()
        };
        tracker.record("batch");
        assert!(!tracker.is_behaviour("batch"));
        tracker.record("batch");
        assert!(tracker.is_behaviour("batch"));
    }

    #[test]
    fn distinct_events_tracked_independently() {
        let mut tracker = ShockTracker::new();
        for _ in 0..10 {
            tracker.record("a");
        }
        tracker.record("b");
        assert!(tracker.is_behaviour("a"));
        assert!(!tracker.is_behaviour("b"));
    }

    /// Fresh scratch directory for a sharded-repository test.
    fn estate_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dwcp_estate_{}_{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn shard_hash_is_pinned() {
        // The on-disk shard assignment must never move between builds:
        // these are FNV-1a 64 values computed once and frozen here.
        assert_eq!(shard_of("cdbm011/CPU/hourly", 16), 10);
        assert_eq!(shard_of("cdbm011/Memory/hourly", 16), 9);
        assert_eq!(shard_of("est000000/CPU/daily", 64), 36);
        assert_eq!(shard_of("", 16), shard_of("", 16));
        assert_eq!(shard_of("anything", 1), 0);
        assert_eq!(shard_of("anything", 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn sharded_roundtrip_touches_one_shard_per_lookup() {
        let dir = estate_dir("roundtrip");
        let mut repo = ShardedRepository::create(&dir, 8).unwrap();
        for i in 0..40 {
            repo.store(record(&format!("w{i:03}/CPU"), 5.0 + i as f64, 100))
                .unwrap();
        }
        repo.flush().unwrap();

        let mut back = ShardedRepository::open(&dir).unwrap();
        assert_eq!(back.n_shards(), 8);
        let got = back.get("w007/CPU").unwrap().cloned().unwrap();
        assert_eq!(got.baseline_rmse, 12.0);
        assert_eq!(
            back.io_stats().shard_loads,
            1,
            "one lookup must load exactly one shard, not the estate"
        );
        assert_eq!(back.count_records().unwrap(), 40);
        back.evict_clean();
        assert_eq!(back.resident_shards(), 0);
        assert!(back.take_warnings().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_degrades_only_its_own_workloads() {
        let dir = estate_dir("corrupt");
        let mut repo = ShardedRepository::create(&dir, 4).unwrap();
        for i in 0..20 {
            repo.store(record(&format!("w{i:03}/CPU"), 1.0, 100))
                .unwrap();
        }
        repo.flush().unwrap();

        // Garbage one shard log wholesale.
        let victim = dir.join("shards").join("shard-0002.log");
        assert!(victim.exists());
        std::fs::write(&victim, b"this is not json\nneither is this\n").unwrap();

        let mut back = ShardedRepository::open(&dir).unwrap();
        let survivors = back.count_records().unwrap();
        let lost = (0..20)
            .filter(|i| shard_of(&format!("w{i:03}/CPU"), 4) == 2)
            .count();
        assert!(lost > 0, "test needs at least one key in the victim shard");
        assert_eq!(
            survivors,
            20 - lost,
            "only the corrupt shard's records vanish"
        );
        let warnings = back.take_warnings();
        assert_eq!(warnings.len(), 1, "one warning for the one bad shard");
        assert!(
            warnings.iter().any(|w| w.contains("shard 2")),
            "{warnings:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_keeps_parseable_prefix_and_later_appends_survive() {
        // A small flushed log, cut at every byte offset, as a crash
        // mid-append leaves it: on a line boundary, inside a line, right
        // before a newline and inside a multi-byte character of a key.
        // After one more store and flush, the reopened shard holds the
        // parseable prefix plus the new record, with at most the torn
        // line skipped: the append never merges into the torn line.
        let dir = estate_dir("torn");
        let mut repo = ShardedRepository::create(&dir, 1).unwrap();
        let stored = [
            record("a/CPU", 1.0, 100),
            record("cdbm\u{e9}\u{20ac}\u{1f600}/CPU", 2.5, 101),
            record("b/CPU", 3.0, 102),
        ];
        for r in &stored {
            repo.store(r.clone()).unwrap();
        }
        repo.flush().unwrap();
        let log = dir.join("shards").join("shard-0000.log");
        let bytes = std::fs::read(&log).unwrap();
        // Each stored line's body, as the byte range before its newline.
        let mut lines = Vec::new();
        let mut start = 0;
        for (end, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push(start..end);
                start = end + 1;
            }
        }
        assert_eq!(lines.len(), stored.len());
        let fresh = record("new/CPU", 4.0, 200);
        for cut in 0..=bytes.len() {
            std::fs::write(&log, &bytes[..cut]).unwrap();
            let mut again = ShardedRepository::open(&dir).unwrap();
            again.store(fresh.clone()).unwrap();
            again.flush().unwrap();

            let mut back = ShardedRepository::open(&dir).unwrap();
            for (r, line) in stored.iter().zip(&lines) {
                let kept = line.end <= cut;
                assert_eq!(
                    back.get(&r.workload).unwrap().cloned(),
                    kept.then(|| r.clone()),
                    "cut {cut}: {}",
                    r.workload
                );
            }
            assert_eq!(back.get("new/CPU").unwrap(), Some(&fresh), "cut {cut}");
            let torn = lines.iter().any(|l| l.start < cut && cut < l.end);
            assert_eq!(
                back.io_stats().lenient_skips,
                usize::from(torn),
                "cut {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flush_retried_after_a_failure_still_starts_on_a_new_line() {
        let dir = estate_dir("flush_retry");
        let mut repo = ShardedRepository::create(&dir, 1).unwrap();
        repo.store(record("a/CPU", 1.0, 100)).unwrap();
        repo.flush().unwrap();
        let log = dir.join("shards").join("shard-0000.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 10]).unwrap();

        let mut again = ShardedRepository::open(&dir).unwrap();
        again.store(record("b/CPU", 2.0, 200)).unwrap();
        // The first flush cannot open the log, and keeps its entry queued.
        let aside = log.with_extension("aside");
        std::fs::rename(&log, &aside).unwrap();
        std::fs::create_dir(&log).unwrap();
        assert!(again.flush().is_err());
        std::fs::remove_dir(&log).unwrap();
        std::fs::rename(&aside, &log).unwrap();
        again.flush().unwrap();

        let mut back = ShardedRepository::open(&dir).unwrap();
        assert!(back.get("a/CPU").unwrap().is_none(), "torn record lost");
        assert_eq!(back.get("b/CPU").unwrap().unwrap().fitted_at, 200);
        assert_eq!(back.io_stats().lenient_skips, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_latest_wins_and_tombstones() {
        let dir = estate_dir("compact");
        let mut repo = ShardedRepository::create(&dir, 1).unwrap();
        repo.compaction = CompactionPolicy {
            min_log_entries: 8,
            max_dead_ratio: 2.0,
        };
        // Rewrite the same two keys repeatedly, delete a third.
        repo.store(record("gone/CPU", 9.0, 50)).unwrap();
        for round in 0..6u64 {
            repo.store(record("a/CPU", 1.0 + round as f64, 100 + round))
                .unwrap();
            repo.store(record("b/CPU", 2.0 + round as f64, 200 + round))
                .unwrap();
            repo.flush().unwrap();
        }
        repo.remove("gone/CPU").unwrap();
        repo.flush().unwrap();
        assert!(
            repo.io_stats().compactions > 0,
            "dead-heavy log must compact"
        );

        // The compacted log holds exactly the live records.
        let log = dir.join("shards").join("shard-0000.log");
        let content = std::fs::read_to_string(&log).unwrap();
        assert_eq!(
            content.lines().count(),
            2,
            "two live records after compaction"
        );

        let mut back = ShardedRepository::open(&dir).unwrap();
        assert_eq!(back.get("a/CPU").unwrap().unwrap().fitted_at, 105);
        assert_eq!(back.get("b/CPU").unwrap().unwrap().fitted_at, 205);
        assert!(
            back.get("gone/CPU").unwrap().is_none(),
            "tombstone honoured"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_compaction_tmp_is_ignored_and_cleaned() {
        let dir = estate_dir("staletmp");
        let mut repo = ShardedRepository::create(&dir, 1).unwrap();
        repo.store(record("a/CPU", 1.0, 100)).unwrap();
        repo.flush().unwrap();

        // A crash between writing the temp file and the rename leaves a
        // `.tmp` next to the authoritative log.
        let tmp = dir.join("shards").join("shard-0000.log.tmp");
        std::fs::write(&tmp, b"half-written garbage").unwrap();

        let mut back = ShardedRepository::open(&dir).unwrap();
        assert!(back.get("a/CPU").unwrap().is_some(), "original log wins");
        assert!(
            back.take_warnings().is_empty(),
            "stale tmp is not a warning"
        );
        assert!(!tmp.exists(), "stale tmp removed on load");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fetch_many_and_fitted_at_many_stay_lazy() {
        let dir = estate_dir("fetchmany");
        let mut repo = ShardedRepository::create(&dir, 8).unwrap();
        for i in 0..30 {
            repo.store(record(&format!("w{i:03}/CPU"), 1.0, 100 + i as u64))
                .unwrap();
        }
        repo.flush().unwrap();

        let mut back = ShardedRepository::open(&dir).unwrap();
        let keys: Vec<String> = vec![
            "w001/CPU".to_string(),
            "w002/CPU".to_string(),
            "missing/CPU".to_string(),
        ];
        let fetched = back.fetch_many(&keys).unwrap();
        assert_eq!(fetched.len(), 2);
        assert!(fetched.contains_key("w001/CPU"));
        let ages = back.fitted_at_many(&keys).unwrap();
        assert_eq!(ages, vec![Some(101), Some(102), None]);
        assert_eq!(back.resident_shards(), 0, "scans evict as they go");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn champion_store_trait_matches_direct_access() {
        let dir = estate_dir("trait");
        let mut sharded = ShardedRepository::create(&dir, 4).unwrap();
        let mut in_memory = ShardedRepository::in_memory();
        let r = record("w/CPU", 3.0, 100);
        ChampionStore::put(&mut sharded, r.clone());
        ChampionStore::put(&mut in_memory, r.clone());
        assert_eq!(ChampionStore::fetch(&mut sharded, "w/CPU"), Some(r.clone()));
        assert_eq!(ChampionStore::fetch(&mut in_memory, "w/CPU"), Some(r));
        assert_eq!(ChampionStore::fetch(&mut sharded, "absent"), None);
        assert_eq!(
            sharded.retention().max_age_seconds,
            in_memory.retention().max_age_seconds
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_needs_relearn_applies_figure4_rules() {
        let dir = estate_dir("relearn");
        let mut repo = ShardedRepository::create(&dir, 2).unwrap();
        repo.store(record("fresh/CPU", 10.0, 1_000_000)).unwrap();
        repo.flush().unwrap();
        let now = 1_000_000 + 3600;
        assert_eq!(
            repo.needs_relearn("absent/CPU", now, None).unwrap(),
            Some(RelearnReason::Missing)
        );
        assert_eq!(
            repo.needs_relearn("fresh/CPU", now, Some(10.0)).unwrap(),
            None
        );
        assert_eq!(
            repo.needs_relearn("fresh/CPU", now, Some(25.0)).unwrap(),
            Some(RelearnReason::Degraded)
        );
        assert_eq!(
            repo.needs_relearn("fresh/CPU", now, Some(20.0)).unwrap(),
            None,
            "exactly at the degradation factor: kept"
        );
        assert_eq!(
            repo.needs_relearn("fresh/CPU", 1_000_000 + ONE_WEEK_SECONDS + 1, None)
                .unwrap(),
            Some(RelearnReason::Stale)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber_and_open_or_create_reopens() {
        let dir = estate_dir("manifest");
        let mut repo = ShardedRepository::create(&dir, 8).unwrap();
        repo.store(record("w/CPU", 1.0, 100)).unwrap();
        repo.flush().unwrap();
        assert!(ShardedRepository::create(&dir, 8).is_err());
        // Reopen keeps the persisted shard count, ignoring the default.
        let back = ShardedRepository::open_or_create(&dir, 99).unwrap();
        assert_eq!(back.n_shards(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }
}
