//! Test infrastructure for exercising the executable specification (§5).
//!
//! - [`proxy`] — the hyp-proxy analog: a user-space-like handle for
//!   allocating host memory and invoking (well-behaved or arbitrary)
//!   hypercalls;
//! - [`scenarios`] — the 41 handwritten tests (19 error-free, 22 error
//!   paths, a handful highly concurrent);
//! - [`model`] / [`random`] — the model-guided random tester, with crash
//!   prediction, reproducible per seed;
//! - [`campaign`] — parallel multi-worker random-testing campaigns with
//!   recorded schedules and deterministic replay;
//! - [`minimize`] — the budgeted greedy trace minimizer shared by
//!   campaign post-mortems and fuzzer crash triage;
//! - [`fuzz`] — the coverage-guided fuzzer: corpus of persisted seeds,
//!   structure-aware mutation, rarity-weighted scheduling and violation
//!   triage, fed back by per-input coverage deltas and a ghost-state
//!   novelty signature;
//! - [`fleet`] — the crash-tolerant fuzzing fleet: a coordinator
//!   supervising N fuzzing worker *processes* over a shared-directory
//!   `.pkvmtrace` protocol (heartbeats, exponential-backoff respawn,
//!   quarantine, pull-based corpus merge) where every component
//!   tolerates the failure of every other;
//! - [`tracefile`] — the `.pkvmtrace` on-disk codec, streamed: a
//!   recorded campaign (config, chaos, seeds and the full event
//!   timeline) persists through an incremental [`TraceWriter`] and
//!   decodes one event at a time through a [`TraceReader`], so replay,
//!   analytics and compaction all run in O(1) memory;
//! - [`differential`] — N-version differential replay: one recorded
//!   schedule re-executed against the clean hypervisor and every
//!   injectable fault variant, folded into a detection matrix of
//!   first-divergence event seqs;
//! - [`chaos`] — the chaos fault-injection engine: seeded corruption of
//!   the oracle's inputs (and the machine under it) with a
//!   detection-matrix sweep proving the oracle fails safe;
//! - [`cli`] — the hex-or-decimal number parsing every example shares;
//! - [`coverage`] — implementation and specification coverage reports
//!   over the custom coverage registry;
//! - [`bugs`] — the bug catalog: triggers and detection verdicts for the
//!   five real pKVM bugs and the synthetic-bug suite.

pub mod android;
pub mod bugs;
pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod coverage;
pub mod differential;
pub mod fleet;
pub mod fuzz;
pub mod minimize;
pub mod model;
pub mod proxy;
pub mod random;
pub mod rng;
pub mod scenarios;
pub mod tracefile;

pub use bugs::{detect, sweep, BugReport, Detection};
pub use campaign::{
    replay, replay_events, replay_stream, CampaignCfg, CampaignReport, CampaignTrace,
    ReplayMachine, ReplayOutcome, WorkerReport,
};
pub use chaos::{
    classify, detection_matrix, mutation_sweep, render_mutation, ChaosCfg, ChaosDriver,
    ChaosFamily, ChaosHooks, ChaosInjected, ChaosMatrix, MatrixCfg, MatrixRow, MutationCell,
    RunVerdict,
};
pub use coverage::CoverageSummary;
pub use differential::{differential_matrix, DiffMatrix, DiffRow};
pub use fleet::{FleetCfg, FleetChaos, FleetReport, FleetStats, Supervisor};
pub use fuzz::{CorpusError, FuzzCfg, FuzzReport, Fuzzer};
pub use minimize::{minimize, minimize_with_stats, MinimizeOutcome};
pub use model::{PageUse, TestModel};
pub use proxy::{Proxy, ProxyOpts};
pub use random::{RandomCfg, RandomTester, RunStats};
pub use rng::Rng;
pub use scenarios::{all as all_scenarios, run_all, Kind, Scenario, SuiteResult};
pub use tracefile::{
    atomic_write, compact_trace, load_trace, save_trace, set_fsync_before_rename, validate_bytes,
    CompactError, CompactStats, TraceFileError, TraceHeader, TraceReader, TraceWriter,
};
