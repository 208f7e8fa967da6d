//! The crash-tolerant fuzzing fleet (the "service" layer over [`crate::fuzz`]).
//!
//! A coordinator process spawns and supervises N fuzzing **worker
//! processes** — real OS processes, so a worker segfault, OOM-kill or
//! `kill -9` can never take the fleet down — and the only communication
//! channel is the shared-directory `.pkvmtrace` [`protocol`]: atomic
//! file replacement for control state, write-once files for corpus
//! seeds, existence flags for stop/freeze. There is no shared memory
//! and there are no locks.
//!
//! The design is crash-first, in both directions:
//!
//! - **Workers die freely.** The [`supervisor`] watches heartbeat
//!   *progress* (not liveness) on the coordinator's clock, kills wedged
//!   workers, respawns exits after exponential backoff with seeded
//!   jitter, and quarantines deterministic crashers — a worker that
//!   keeps dying without ever completing a round — redistributing their
//!   seed-space shards to healthy peers.
//! - **The coordinator dies freely.** All fleet state of record lives
//!   on disk: worker heartbeats carry cumulative counters, the merged
//!   corpus is content-addressed, and the periodic [`FleetStats`]
//!   snapshot is atomically replaced — so a restarted coordinator over
//!   the same root resumes the history instead of zeroing it.
//! - **Files corrupt freely.** Every reader treats a torn or malformed
//!   file as a skip-and-count condition: a corrupt peer seed is
//!   reported, never fatal.
//!
//! Corpus flow is pull-based: each worker round first *imports* merged
//! seeds it has not seen (validated before copy), then fuzzes its
//! current shard; the coordinator *merges* worker-local seeds into
//! `merged/` deduplicated by content hash. At shutdown the coordinator
//! audits the merged corpus — replay digest, lost-seed count, coverage
//! frontier — and can distill it to a frontier-preserving subset.
//!
//! The module also carries its own fault-injection harness
//! ([`FleetChaos`] plus the forced one-shot injections): the fleet is
//! fuzzing a hypervisor oracle, and the fleet itself is tested the same
//! way — by killing its workers, tearing its files and freezing its
//! clocks on purpose.

pub mod protocol;
pub mod stats;
pub mod supervisor;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pkvm_hyp::faults::FaultSet;

use crate::fuzz::{self, footprint, Corpus, FuzzCfg, Fuzzer};
use crate::rng::Rng;
use crate::tracefile::{atomic_write, set_fsync_before_rename, validate_bytes};

pub use protocol::{
    content_hash, crash_family, inject_torn_seed, Assignment, Detection, FleetDirs, Heartbeat,
    WorkerCfg,
};
pub use stats::{CrashBucket, FleetDetection, FleetStats};
pub use supervisor::{Action, SupervisionCfg, Supervisor, WorkerStatus};

/// Probabilistic fault injection against the fleet itself, evaluated
/// once per coordinator poll round from a seeded stream (so a chaos
/// soak is reproducible per seed).
#[derive(Clone, Copy, Debug)]
pub struct FleetChaos {
    /// Seed for the chaos stream.
    pub seed: u64,
    /// Probability of killing a random live worker process (models a
    /// crash the supervisor must recover from).
    pub p_kill: f64,
    /// Probability of planting a torn seed file in a random worker's
    /// corpus (models a non-atomic write caught mid-flight).
    pub p_torn: f64,
    /// Probability of freezing a random worker (models a wedged or
    /// clock-frozen process; cleared when the supervisor kills it).
    pub p_freeze: f64,
}

impl Default for FleetChaos {
    fn default() -> Self {
        FleetChaos {
            seed: 0x000c_4a05,
            p_kill: 0.05,
            p_torn: 0.05,
            p_freeze: 0.03,
        }
    }
}

/// Fleet configuration. Construct with [`FleetCfg::builder`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FleetCfg {
    /// The shared fleet root directory.
    pub root: PathBuf,
    /// Worker processes to run.
    pub workers: usize,
    /// Seed-space shards spread over the workers (≥ `workers`).
    pub shards: usize,
    /// Coordinator poll rounds before the fleet drains and exits.
    pub rounds: u64,
    /// Poll interval in milliseconds.
    pub poll_ms: u64,
    /// The knobs shipped to every worker via `fleet.cfg`.
    pub worker: WorkerCfg,
    /// Supervision policy.
    pub supervision: SupervisionCfg,
    /// Probabilistic fleet fault injection (`None` = off).
    pub chaos: Option<FleetChaos>,
    /// Deterministically kill one live worker at this poll round (the
    /// CI gate's forced crash).
    pub forced_kill_round: Option<u64>,
    /// Deterministically plant one torn corpus file at this poll round
    /// (the CI gate's forced torn write).
    pub forced_torn_round: Option<u64>,
    /// Worker executable (`None` = this executable).
    pub worker_exe: Option<PathBuf>,
    /// Arguments before `<root> <id>` in the worker command line.
    pub worker_args: Vec<String>,
    /// Distill the merged corpus to a frontier-preserving subset at
    /// shutdown.
    pub distill: bool,
    /// Re-measure the merged corpus's coverage frontier in the final
    /// audit (one replay per merged seed; disable for long soaks).
    pub audit_frontier: bool,
    /// How long workers get to drain after the stop flag appears.
    pub shutdown_grace_ms: u64,
}

impl Default for FleetCfg {
    fn default() -> Self {
        FleetCfg {
            root: PathBuf::from("fleet-root"),
            workers: 2,
            shards: 4,
            rounds: 10,
            poll_ms: 100,
            worker: WorkerCfg::default(),
            supervision: SupervisionCfg::default(),
            chaos: None,
            forced_kill_round: None,
            forced_torn_round: None,
            worker_exe: None,
            worker_args: vec!["worker".into()],
            distill: false,
            audit_frontier: true,
            shutdown_grace_ms: 10_000,
        }
    }
}

impl FleetCfg {
    /// Starts a builder from the defaults.
    pub fn builder() -> FleetCfgBuilder {
        FleetCfgBuilder(FleetCfg::default())
    }
}

/// Builder for [`FleetCfg`].
#[derive(Clone, Debug, Default)]
pub struct FleetCfgBuilder(FleetCfg);

impl FleetCfgBuilder {
    /// Sets the fleet root directory.
    pub fn root(mut self, root: impl Into<PathBuf>) -> Self {
        self.0.root = root.into();
        self
    }

    /// Sets the worker-process count.
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n.max(1);
        self
    }

    /// Sets the shard count (raised to the worker count if lower).
    pub fn shards(mut self, n: usize) -> Self {
        self.0.shards = n;
        self
    }

    /// Sets the coordinator poll-round budget.
    pub fn rounds(mut self, n: u64) -> Self {
        self.0.rounds = n;
        self
    }

    /// Sets the poll interval.
    pub fn poll_ms(mut self, ms: u64) -> Self {
        self.0.poll_ms = ms.max(1);
        self
    }

    /// Sets the worker knobs.
    pub fn worker(mut self, w: WorkerCfg) -> Self {
        self.0.worker = w;
        self
    }

    /// Sets the supervision policy.
    pub fn supervision(mut self, s: SupervisionCfg) -> Self {
        self.0.supervision = s;
        self
    }

    /// Enables probabilistic fleet chaos.
    pub fn chaos(mut self, c: FleetChaos) -> Self {
        self.0.chaos = Some(c);
        self
    }

    /// Forces one worker kill at poll round `r`.
    pub fn forced_kill_round(mut self, r: u64) -> Self {
        self.0.forced_kill_round = Some(r);
        self
    }

    /// Forces one torn corpus file at poll round `r`.
    pub fn forced_torn_round(mut self, r: u64) -> Self {
        self.0.forced_torn_round = Some(r);
        self
    }

    /// Sets the worker executable and its leading arguments.
    pub fn worker_command(mut self, exe: impl Into<PathBuf>, args: &[&str]) -> Self {
        self.0.worker_exe = Some(exe.into());
        self.0.worker_args = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Distills the merged corpus at shutdown.
    pub fn distill(mut self, on: bool) -> Self {
        self.0.distill = on;
        self
    }

    /// Enables or disables the frontier re-measurement in the audit.
    pub fn audit_frontier(mut self, on: bool) -> Self {
        self.0.audit_frontier = on;
        self
    }

    /// Sets the drain deadline at shutdown.
    pub fn shutdown_grace_ms(mut self, ms: u64) -> Self {
        self.0.shutdown_grace_ms = ms;
        self
    }

    /// Finishes the builder.
    pub fn build(mut self) -> FleetCfg {
        self.0.shards = self.0.shards.max(self.0.workers);
        self.0
    }
}

/// The coordinator's final report: the last stats snapshot plus the
/// shutdown audit of the merged corpus.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The final [`FleetStats`] snapshot.
    pub stats: FleetStats,
    /// Merged seeds the audit replayed.
    pub replay_seeds: usize,
    /// FNV digest over the per-seed replay verdicts — identical in any
    /// process replaying the same merged corpus.
    pub replay_digest: u64,
    /// Decodable worker-local seeds whose content never reached the
    /// merged corpus (must be zero: admitted coverage is never lost).
    pub lost_seeds: u64,
    /// Distinct coverage points the merged corpus reaches, when the
    /// audit re-measured them.
    pub frontier_points: Option<usize>,
    /// Merged seeds left after distillation, when enabled.
    pub distilled_to: Option<usize>,
    /// `true` when every worker drained by itself within the grace
    /// period (none had to be killed at shutdown).
    pub clean_shutdown: bool,
}

impl FleetReport {
    /// The machine-checkable verdict line the CI gate compares across
    /// processes ([`verdict_line`]).
    pub fn verdict_line(&self) -> String {
        verdict_line(self.replay_seeds, self.replay_digest)
    }

    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = self.stats.render();
        let _ = writeln!(
            out,
            "  audit: {} merged seeds, {} lost, clean shutdown: {}",
            self.replay_seeds, self.lost_seeds, self.clean_shutdown,
        );
        if let Some(p) = self.frontier_points {
            let _ = writeln!(out, "  frontier: {p} coverage points");
        }
        if let Some(d) = self.distilled_to {
            let _ = writeln!(out, "  distilled to {d} seeds");
        }
        let _ = writeln!(out, "{}", self.verdict_line());
        out
    }
}

/// The `fleet-verdict:` line of a merged corpus of `seeds` seeds whose
/// replay verdicts fold to `digest` ([`fuzz::replay_digest`]): the one
/// formatter for the line that the gate prints and that a second process
/// verifying the same corpus must reproduce (same shape as the fuzz
/// gate's `corpus-verdict:`).
pub fn verdict_line(seeds: usize, digest: u64) -> String {
    format!("fleet-verdict: {seeds} seeds {digest:016x}")
}

/// Derives a worker round's fuzzing seed from (fleet seed, shard,
/// lifetime round counter) — distinct streams per shard and per round,
/// reproducible across worker restarts.
fn mix_seed(base: u64, shard: u64, round: u64) -> u64 {
    Rng::seed_from_u64(
        base ^ shard.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ round.wrapping_mul(0xff51_afd7_ed55_8ccd),
    )
    .gen_u64()
}

// ================================================================ worker

/// One fuzzing worker's process state: attachable from just
/// `(root, id)` — everything else comes from `fleet.cfg`, the shard
/// assignment and the worker's own last heartbeat, so a respawned
/// worker continues where its predecessor died.
pub struct Worker {
    dirs: FleetDirs,
    id: usize,
    cfg: WorkerCfg,
    hb: Heartbeat,
    import_skipped: HashSet<String>,
}

impl Worker {
    /// Attaches to a fleet root, restoring cumulative counters from the
    /// worker's previous incarnation. `None` when the fleet config is
    /// missing or malformed.
    pub fn attach(root: impl Into<PathBuf>, id: usize) -> Option<Worker> {
        let dirs = FleetDirs::new(root);
        let cfg = WorkerCfg::read(&dirs.config_file())?;
        if cfg.fsync {
            set_fsync_before_rename(true);
        }
        let hb = Heartbeat::read(&dirs.heartbeat_file(id)).unwrap_or_default();
        let _ = std::fs::create_dir_all(dirs.corpus_dir(id));
        let _ = std::fs::create_dir_all(dirs.crashes_dir(id));
        Some(Worker {
            dirs,
            id,
            cfg,
            hb,
            import_skipped: HashSet::new(),
        })
    }

    /// Cumulative counters so far.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.hb
    }

    /// Pulls merged seeds this worker has not imported yet. Each
    /// candidate is decode-validated *before* the copy; a corrupt peer
    /// seed is skipped and counted, never fatal. Imports land as
    /// `seed-m<id>.pkvmtrace` — the `m` infix keeps them out of the
    /// local id counter and out of the coordinator's merge scan.
    pub fn pull_sync(&mut self) {
        let merged = self.dirs.merged_dir();
        let corpus = self.dirs.corpus_dir(self.id);
        let Ok(entries) = std::fs::read_dir(&merged) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("seed-")
                .and_then(|s| s.strip_suffix(".pkvmtrace"))
            else {
                continue;
            };
            let local = corpus.join(format!("seed-m{stem}.pkvmtrace"));
            if local.exists() {
                continue;
            }
            let ok = std::fs::read(entry.path())
                .ok()
                .filter(|bytes| validate_bytes(bytes).is_ok())
                .and_then(|bytes| atomic_write(&local, &bytes).ok())
                .is_some();
            if !ok && self.import_skipped.insert(name.to_string()) {
                self.hb.import_skips += 1;
            }
        }
    }

    /// Runs one fuzzing round on the worker's current shard: pull-sync,
    /// reload the local corpus, fuzz for the round budget, fold the
    /// report into the cumulative heartbeat and atomically publish it.
    pub fn round(&mut self) {
        self.pull_sync();
        let assign = Assignment::read(&self.dirs.assign_file(self.id)).unwrap_or(Assignment {
            shards: vec![self.id as u64],
        });
        if assign.shards.is_empty() {
            // Nothing assigned (mid-redistribution); an idle round still
            // counts as progress — the worker is healthy, just unused.
            self.hb.rounds += 1;
            let _ = self.hb.write(&self.dirs.heartbeat_file(self.id));
            return;
        }
        let shard = assign.shards[(self.hb.rounds as usize) % assign.shards.len()];
        let fc = FuzzCfg::builder()
            .seed(mix_seed(self.cfg.seed, shard, self.hb.rounds))
            .step_budget(self.cfg.round_steps)
            .bootstrap_inputs(self.cfg.bootstrap_inputs.max(1) as usize)
            .bootstrap_len(self.cfg.bootstrap_len)
            .max_input_len(self.cfg.max_input_len.max(1) as usize)
            .invalid_fraction(self.cfg.invalid_fraction)
            .corpus_dir(self.dirs.corpus_dir(self.id))
            .crashes_dir(self.dirs.crashes_dir(self.id))
            .faults(&FaultSet::from_bits(self.cfg.fault_bits))
            .build();
        let r = Fuzzer::new(fc).run();
        self.hb.rounds += 1;
        self.hb.execs += r.execs;
        self.hb.steps += r.steps;
        self.hb.corpus_seeds = r.corpus_size as u64;
        self.hb.points = r.points_covered as u64;
        self.hb.persist_errors += r.persist_errors;
        self.hb.escaped_panics += r.escaped_panics;
        self.hb.crash_families = count_files(&self.dirs.crashes_dir(self.id), "crash-");
        self.record_detections();
        let _ = self.hb.write(&self.dirs.heartbeat_file(self.id));
    }

    /// Scans this worker's crashes directory for families whose first
    /// reproducer appeared this round and stamps them with the worker's
    /// cumulative execs/steps. Known families are left alone — a
    /// first-detection witness never moves once written, so it survives
    /// worker respawns along with the rest of the heartbeat.
    fn record_detections(&mut self) {
        let Ok(entries) = std::fs::read_dir(self.dirs.crashes_dir(self.id)) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let Some(family) = name.to_str().and_then(crash_family) else {
                continue;
            };
            if self.hb.detections.iter().any(|d| d.family == family) {
                continue;
            }
            self.hb.detections.push(Detection {
                family: family.to_string(),
                execs: self.hb.execs,
                steps: self.hb.steps,
            });
        }
    }

    /// `true` while the fleet's stop flag is absent.
    pub fn should_run(&self) -> bool {
        !self.dirs.stop_file().exists()
    }

    /// `true` while this worker's freeze flag (fleet chaos) exists.
    pub fn frozen(&self) -> bool {
        self.dirs.freeze_file(self.id).exists()
    }
}

/// A worker process's entry point: attach, then run rounds until the
/// stop flag appears. While frozen (fleet chaos) the worker sleeps
/// without heartbeat progress — indistinguishable from a genuine wedge,
/// which is the point. Returns the process exit code.
pub fn worker_main(root: impl Into<PathBuf>, id: usize) -> i32 {
    let Some(mut w) = Worker::attach(root, id) else {
        return 2;
    };
    while w.should_run() {
        if w.frozen() {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        w.round();
    }
    0
}

// ================================================================= merge

/// The coordinator's merge state: the content hashes already merged
/// (rebuilt from the merged directory, so a restarted coordinator never
/// re-merges) and the next merged file id.
pub struct MergeState {
    known: HashSet<u64>,
    next_id: u64,
    /// Corrupt or duplicate candidates skipped so far (this
    /// coordinator's lifetime).
    pub merge_skips: u64,
    /// Seeds merged so far (this coordinator's lifetime).
    pub merged: u64,
}

impl MergeState {
    /// Rebuilds merge state from what the merged directory already
    /// holds.
    pub fn new(merged_dir: &Path) -> MergeState {
        let mut known = HashSet::new();
        let mut next_id = 0;
        if let Ok(entries) = std::fs::read_dir(merged_dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                if let Ok(bytes) = std::fs::read(entry.path()) {
                    known.insert(content_hash(&bytes));
                }
                if let Some(id) = entry
                    .file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix("seed-"))
                    .and_then(|n| n.strip_suffix(".pkvmtrace"))
                    .and_then(|n| n.parse::<u64>().ok())
                {
                    next_id = next_id.max(id + 1);
                }
            }
        }
        MergeState {
            known,
            next_id,
            merge_skips: 0,
            merged: 0,
        }
    }

    /// `true` when this exact content is already merged.
    pub fn knows(&self, bytes: &[u8]) -> bool {
        self.known.contains(&content_hash(bytes))
    }

    /// Sweeps the given workers' corpus directories once, merging every
    /// new decodable seed into `merged/` (bytes copied verbatim, so
    /// content identity is preserved) and skip-counting corrupt or
    /// already-known ones. Imported `seed-m*` files are ignored — they
    /// *came* from the merged corpus. Returns how many seeds this sweep
    /// merged.
    pub fn merge_once(&mut self, dirs: &FleetDirs, workers: &[usize]) -> u64 {
        let mut added = 0;
        for &w in workers {
            let Ok(entries) = std::fs::read_dir(dirs.corpus_dir(w)) else {
                continue;
            };
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.starts_with("seed-")
                    || name.starts_with("seed-m")
                    || !name.ends_with(".pkvmtrace")
                {
                    continue;
                }
                let Ok(bytes) = std::fs::read(entry.path()) else {
                    continue;
                };
                let hash = content_hash(&bytes);
                if !self.known.insert(hash) {
                    continue;
                }
                if validate_bytes(&bytes).is_err() {
                    // Torn or corrupt — remembered by hash, reported
                    // once, never merged and never fatal.
                    self.merge_skips += 1;
                    continue;
                }
                let dest = dirs
                    .merged_dir()
                    .join(format!("seed-{:06}.pkvmtrace", self.next_id));
                match atomic_write(&dest, &bytes) {
                    Ok(()) => {
                        self.next_id += 1;
                        added += 1;
                        self.merged += 1;
                    }
                    Err(_) => {
                        // Can't persist into merged/ right now (full
                        // disk?). Forget the hash so a later sweep
                        // retries instead of silently dropping the seed.
                        self.known.remove(&hash);
                        self.merge_skips += 1;
                    }
                }
            }
        }
        added
    }
}

// =========================================================== coordinator

fn count_files(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".pkvmtrace"))
                })
                .count() as u64
        })
        .unwrap_or(0)
}

/// Scans every worker's crashes directory and buckets reproducers by
/// the signature kind embedded in the filename
/// (`crash-NNN-<kind>.pkvmtrace`), preserving `first_execs` from the
/// previous snapshot for known buckets.
fn crash_buckets(
    cfg: &FleetCfg,
    dirs: &FleetDirs,
    prev: &FleetStats,
    execs: u64,
) -> Vec<CrashBucket> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for w in 0..cfg.workers {
        if let Ok(entries) = std::fs::read_dir(dirs.crashes_dir(w)) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name();
                let Some(kind) = name.to_str().and_then(crash_family).map(str::to_string) else {
                    continue;
                };
                *counts.entry(kind).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|(name, count)| {
            let first_execs = prev
                .crash_buckets
                .iter()
                .find(|b| b.name == name)
                .map_or(execs, |b| b.first_execs);
            CrashBucket {
                name,
                count,
                first_execs,
            }
        })
        .collect()
}

/// Spawns one worker process. A spawn failure yields `None` — the
/// supervisor treats it like an instant exit, so a broken worker binary
/// degrades into backoffs and eventually quarantine, not a coordinator
/// death.
fn spawn_worker(cfg: &FleetCfg, w: usize) -> Option<Child> {
    let exe = cfg
        .worker_exe
        .clone()
        .or_else(|| std::env::current_exe().ok())?;
    Command::new(exe)
        .args(&cfg.worker_args)
        .arg(&cfg.root)
        .arg(w.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .ok()
}

/// Moves a quarantined worker's shards onto the remaining active
/// workers, round-robin, and rewrites every affected assignment
/// atomically.
pub fn redistribute_shards(dirs: &FleetDirs, from: usize, active: &[usize]) {
    let orphaned = Assignment::read(&dirs.assign_file(from))
        .unwrap_or_default()
        .shards;
    let _ = Assignment::default().write(&dirs.assign_file(from));
    if active.is_empty() || orphaned.is_empty() {
        return;
    }
    let mut assigns: Vec<Assignment> = active
        .iter()
        .map(|&w| {
            Assignment::read(&dirs.assign_file(w)).unwrap_or(Assignment {
                shards: vec![w as u64],
            })
        })
        .collect();
    for (i, shard) in orphaned.into_iter().enumerate() {
        let a = &mut assigns[i % active.len()];
        if !a.shards.contains(&shard) {
            a.shards.push(shard);
        }
    }
    for (&w, a) in active.iter().zip(&assigns) {
        let _ = a.write(&dirs.assign_file(w));
    }
}

/// Aggregates the fleet snapshot from the latest heartbeats (cumulative
/// per worker across restarts, so plain sums are restart-safe).
fn aggregate(cfg: &FleetCfg, dirs: &FleetDirs, stats: &mut FleetStats) {
    let mut execs = 0;
    let mut steps = 0;
    let mut import_skips = 0;
    let mut persist_errors = 0;
    let mut escaped = 0;
    for w in 0..cfg.workers {
        if let Some(hb) = Heartbeat::read(&dirs.heartbeat_file(w)) {
            execs += hb.execs;
            steps += hb.steps;
            import_skips += hb.import_skips;
            persist_errors += hb.persist_errors;
            escaped += hb.escaped_panics;
            stats.observe_detections(&hb.detections, stats.elapsed_ms);
        }
    }
    stats.execs = execs;
    stats.steps = steps;
    stats.import_skips = import_skips;
    stats.persist_errors = persist_errors;
    stats.escaped_panics = escaped;
    stats.merged_seeds = count_files(&dirs.merged_dir(), "seed-");
    let buckets = crash_buckets(cfg, dirs, stats, execs);
    stats.crash_buckets = buckets;
}

/// Runs the fleet: spawn, supervise, merge, snapshot, drain, audit.
/// Returns the final report. The coordinator itself is restartable:
/// rerunning over the same root resumes the on-disk history.
pub fn run(cfg: &FleetCfg) -> FleetReport {
    let dirs = FleetDirs::new(&cfg.root);
    let _ = dirs.create_all(cfg.workers);
    let _ = std::fs::remove_file(dirs.stop_file());
    let _ = cfg.worker.write(&dirs.config_file());
    if cfg.worker.fsync {
        set_fsync_before_rename(true);
    }
    // Seed the shard assignments, keeping any survivor from a previous
    // coordinator incarnation.
    for w in 0..cfg.workers {
        if Assignment::read(&dirs.assign_file(w)).is_none() {
            let shards = (0..cfg.shards as u64)
                .filter(|s| *s as usize % cfg.workers == w)
                .collect();
            let _ = Assignment { shards }.write(&dirs.assign_file(w));
        }
    }

    let mut stats = FleetStats::load(&dirs.stats_file()).unwrap_or_default();
    let merge_skips_base = stats.merge_skips;
    let mut merge = MergeState::new(&dirs.merged_dir());
    let mut sup = Supervisor::new(
        cfg.workers,
        SupervisionCfg {
            jitter_seed: cfg.supervision.jitter_seed ^ cfg.worker.seed,
            ..cfg.supervision.clone()
        },
        0,
    );
    let mut chaos_rng = Rng::seed_from_u64(cfg.chaos.map_or(0, |c| c.seed));
    let start = Instant::now();
    let mut children: Vec<Option<Child>> = (0..cfg.workers).map(|w| spawn_worker(cfg, w)).collect();
    let mut last_now = 0u64;

    for round in 0..cfg.rounds {
        std::thread::sleep(Duration::from_millis(cfg.poll_ms));
        let now = start.elapsed().as_millis() as u64;

        // Observe heartbeats.
        for w in sup.active() {
            if let Some(hb) = Heartbeat::read(&dirs.heartbeat_file(w)) {
                sup.heartbeat(w, hb.rounds, now);
            }
        }

        // Fault injection — forced one-shots first (the CI gate), then
        // the seeded probabilistic stream.
        let live: Vec<usize> = (0..cfg.workers)
            .filter(|&w| children[w].is_some())
            .collect();
        if cfg.forced_kill_round == Some(round) {
            if let Some(&w) = live.first() {
                if let Some(ch) = children[w].as_mut() {
                    let _ = ch.kill();
                }
            }
        }
        if cfg.forced_torn_round == Some(round) {
            let w = live.first().copied().unwrap_or(0);
            let _ = inject_torn_seed(&dirs.corpus_dir(w), "seed-t-forced.pkvmtrace");
        }
        if let Some(chaos) = &cfg.chaos {
            if !live.is_empty() && chaos_rng.gen_bool(chaos.p_kill) {
                let w = live[chaos_rng.gen_range(0..live.len() as u64) as usize];
                if let Some(ch) = children[w].as_mut() {
                    let _ = ch.kill();
                }
            }
            if chaos_rng.gen_bool(chaos.p_torn) {
                let w = chaos_rng.gen_range(0..cfg.workers as u64) as usize;
                let _ =
                    inject_torn_seed(&dirs.corpus_dir(w), &format!("seed-t{round:06}.pkvmtrace"));
            }
            if !live.is_empty() && chaos_rng.gen_bool(chaos.p_freeze) {
                let w = live[chaos_rng.gen_range(0..live.len() as u64) as usize];
                let _ = std::fs::write(dirs.freeze_file(w), b"");
            }
        }

        // Reap exits; a dead worker either backs off or — after burning
        // its restart budget with no progress — is quarantined and its
        // shards move to the survivors.
        for (w, child) in children.iter_mut().enumerate() {
            let exited = child
                .as_mut()
                .is_some_and(|ch| matches!(ch.try_wait(), Ok(Some(_))));
            if exited {
                *child = None;
                if let Some(Action::Quarantine(w)) = sup.process_exited(w, now) {
                    stats.quarantined += 1;
                    redistribute_shards(&dirs, w, &sup.active());
                }
            }
        }

        // Supervision: kill the wedged, respawn the due.
        for action in sup.tick(now) {
            match action {
                Action::Kill(w) => {
                    stats.kills += 1;
                    // A frozen worker is wedged on purpose; un-freeze it
                    // so the respawned process gets a fair start.
                    let _ = std::fs::remove_file(dirs.freeze_file(w));
                    if let Some(ch) = children[w].as_mut() {
                        let _ = ch.kill();
                    }
                }
                Action::Respawn(w) => {
                    stats.respawns += 1;
                    children[w] = spawn_worker(cfg, w);
                    if children[w].is_none() {
                        if let Some(Action::Quarantine(w)) = sup.process_exited(w, now) {
                            stats.quarantined += 1;
                            redistribute_shards(&dirs, w, &sup.active());
                        }
                    }
                }
                Action::Quarantine(_) => {}
            }
        }

        // Merge, aggregate, snapshot.
        merge.merge_once(&dirs, &sup.active());
        stats.rounds += 1;
        stats.elapsed_ms += now - last_now;
        stats.merge_skips = merge_skips_base + merge.merge_skips;
        last_now = now;
        aggregate(cfg, &dirs, &mut stats);
        let _ = stats.save(&dirs.stats_file());
    }

    // Drain: raise the stop flag, give workers the grace period, kill
    // stragglers (an unclean drain is reported, not hidden).
    let _ = atomic_write(&dirs.stop_file(), b"stop\n");
    let deadline = Instant::now() + Duration::from_millis(cfg.shutdown_grace_ms);
    let mut clean_shutdown = true;
    loop {
        let mut alive = false;
        for slot in children.iter_mut() {
            if let Some(ch) = slot.as_mut() {
                if matches!(ch.try_wait(), Ok(Some(_))) {
                    *slot = None;
                } else {
                    alive = true;
                }
            }
        }
        if !alive {
            break;
        }
        if Instant::now() >= deadline {
            clean_shutdown = false;
            for slot in children.iter_mut().filter_map(|s| s.as_mut()) {
                let _ = slot.kill();
                let _ = slot.wait();
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Final merge over *every* worker — quarantined ones included: a
    // deterministic crasher's coverage is still coverage.
    let all: Vec<usize> = (0..cfg.workers).collect();
    merge.merge_once(&dirs, &all);
    stats.merge_skips = merge_skips_base + merge.merge_skips;
    aggregate(cfg, &dirs, &mut stats);

    // Audit: every decodable worker seed must exist in merged/, by
    // content.
    let mut lost_seeds = 0;
    for w in 0..cfg.workers {
        let scan = fuzz::scan_dir(&dirs.corpus_dir(w));
        for (path, _) in &scan.loaded {
            match std::fs::read(path) {
                Ok(bytes) if !merge.knows(&bytes) => lost_seeds += 1,
                _ => {}
            }
        }
    }

    // Optional distillation: re-measure each merged seed's footprint,
    // keep a frontier-preserving subset, delete the rest.
    let fc = FuzzCfg::builder()
        .faults(&FaultSet::from_bits(cfg.worker.fault_bits))
        .build();
    let mut distilled_to = None;
    let mut frontier_points = None;
    if cfg.distill || cfg.audit_frontier {
        let mut corpus = Corpus::new(None);
        let mut admitted: Vec<(u64, PathBuf)> = Vec::new();
        let mut measured = true;
        for (path, trace) in fuzz::corpus::load_dir(&dirs.merged_dir()) {
            match footprint(&fc, &trace) {
                Some((points, sig)) => {
                    if let Some(id) = corpus.consider(trace, points, sig, None) {
                        admitted.push((id, path));
                    } else if cfg.distill {
                        // Added no coverage beyond the seeds already
                        // kept: redundant by construction.
                        let _ = std::fs::remove_file(&path);
                    }
                }
                None => measured = false, // escaped containment: keep the file, skip the math
            }
        }
        if cfg.audit_frontier {
            frontier_points = Some(corpus.points_covered());
        }
        if cfg.distill && measured {
            let kept: HashSet<u64> = corpus.distill().into_iter().collect();
            for (id, path) in &admitted {
                if !kept.contains(id) {
                    let _ = std::fs::remove_file(path);
                }
            }
            distilled_to = Some(kept.len().min(admitted.len()));
        }
        stats.merged_seeds = count_files(&dirs.merged_dir(), "seed-");
    }

    let (replay_seeds, replay_digest) = fuzz::replay_digest(&dirs.merged_dir());
    stats.elapsed_ms += (start.elapsed().as_millis() as u64).saturating_sub(last_now);
    let _ = stats.save(&dirs.stats_file());

    FleetReport {
        stats,
        replay_seeds,
        replay_digest,
        lost_seeds,
        frontier_points,
        distilled_to,
        clean_shutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_separates_shards_and_rounds() {
        assert_eq!(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
        assert_ne!(mix_seed(1, 2, 3), mix_seed(1, 3, 3));
        assert_ne!(mix_seed(1, 2, 3), mix_seed(1, 2, 4));
        assert_ne!(mix_seed(1, 2, 3), mix_seed(2, 2, 3));
    }

    #[test]
    fn builder_raises_shards_to_worker_count() {
        let cfg = FleetCfg::builder().workers(4).shards(2).build();
        assert_eq!(cfg.shards, 4);
    }
}
