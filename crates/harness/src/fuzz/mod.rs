//! Coverage-guided fuzzing over typed driver-op sequences.
//!
//! The random tester is feedback-free: it never learns which inputs
//! reach new territory. This subsystem closes the loop. Each input — a
//! sequence of concrete driver events, the same shape campaign replay
//! executes — runs on a fresh machine under the oracle, and two feedback
//! signals are measured per input, race-free, as deltas against a
//! [`pkvm_hyp::cov::snapshot`]:
//!
//! - the named implementation/spec coverage points the execution hit
//!   (`pkvm_hyp::cov` + `pkvm_ghost::spec`), and
//! - a ghost-state novelty signature: the hash of the post-trap
//!   component shapes in the recorded event stream
//!   ([`pkvm_ghost::event::canonical_signature`] — the mode-independent
//!   ordering, so a corpus fuzzed inline and pipelined stays comparable).
//!
//! Inputs that add either kind of coverage enter the [`corpus`], each
//! persisted as an ordinary `.pkvmtrace` file so the corpus survives the
//! process and replays bit-identically. A rarity-weighted power
//! [`schedule`] picks which seed to [`mutate`] next (structure-aware:
//! truncate/splice at trap boundaries, insert model-plausible ops,
//! perturb parameters), and violating executions are deduplicated and
//! auto-minimized into a `crashes/` directory by [`triage`].
//!
//! `workers > 1` fuzzes in parallel, campaign-style: each worker owns a
//! derived RNG stream and executes on its own machine, sharing the
//! corpus, scheduler and triage table behind one mutex. A configurable
//! fraction of executions runs under the chaos engine's fault injection.

pub mod corpus;
pub mod mutate;
pub mod schedule;
pub mod triage;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pkvm_aarch64::sync::Mutex;
use pkvm_ghost::event::{canonical_signature, EventRecord};
use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::{CheckMode, Violation};
use pkvm_hyp::cov;
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::machine::{Machine, MachineConfig};

use crate::campaign::{execute_driver, worker_seed, CampaignTrace};
use crate::chaos::ChaosCfg;
use crate::coverage::CoverageSummary;
use crate::proxy::Proxy;
use crate::random::{RandomCfg, RandomTester};
use crate::rng::Rng;

pub use corpus::{replay_digest, scan_dir, Corpus, CorpusError, CorpusSeed, DirScan};
pub use mutate::MutationKind;
pub use schedule::Scheduler;
pub use triage::{CrashEntry, CrashSig, Triage};

/// Fuzzer configuration. Construct with [`FuzzCfg::builder`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FuzzCfg {
    /// Base seed; workers and mutations derive their streams from it.
    pub seed: u64,
    /// Total driver steps to execute across all inputs (bootstrap
    /// included), so fuzzer-vs-random comparisons run at equal budgets.
    pub step_budget: u64,
    /// Parallel fuzz workers. One worker is fully deterministic per
    /// seed; more share the corpus behind the mutex.
    pub workers: usize,
    /// Random inputs generated to found an empty corpus.
    pub bootstrap_inputs: usize,
    /// Base tester-step length of bootstrap inputs; input `i` runs
    /// `bootstrap_len * (i + 1)` steps, so the bootstrap set spans
    /// shallow-and-cheap to deep-and-stateful.
    pub bootstrap_len: u64,
    /// Cap on driver events per input (mutations cut back to a group
    /// boundary under this).
    pub max_input_len: usize,
    /// Arbitrary-call fraction used when generating fresh ops.
    pub invalid_fraction: f64,
    /// Directory the corpus persists into (`None` = in-memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Directory minimized crash reproducers are written to.
    pub crashes_dir: Option<PathBuf>,
    /// Chaos configuration for the chaotic fraction of executions.
    pub chaos: Option<ChaosCfg>,
    /// Fraction of executions run under `chaos` (ignored without one).
    pub chaos_fraction: f64,
    /// Machine shape every execution boots.
    pub config: MachineConfig,
    /// Oracle switches.
    pub oracle_opts: OracleOpts,
    /// Faults injected into every execution, as raw [`FaultSet`] bits.
    pub fault_bits: u32,
    /// Fresh-machine replays spent minimizing each new crash family.
    pub minimize_budget: usize,
    /// Stop all workers once the first crash family is found (for
    /// time-to-detection measurements).
    pub stop_on_violation: bool,
}

impl Default for FuzzCfg {
    fn default() -> Self {
        Self {
            seed: 0xf022,
            step_budget: 2000,
            workers: 1,
            bootstrap_inputs: 4,
            bootstrap_len: 120,
            max_input_len: 640,
            invalid_fraction: 0.15,
            corpus_dir: None,
            crashes_dir: None,
            chaos: None,
            chaos_fraction: 0.0,
            config: MachineConfig::default(),
            oracle_opts: OracleOpts::default(),
            fault_bits: 0,
            minimize_budget: 64,
            stop_on_violation: false,
        }
    }
}

impl FuzzCfg {
    /// Starts a builder from the defaults.
    pub fn builder() -> FuzzCfgBuilder {
        FuzzCfgBuilder(FuzzCfg::default())
    }
}

/// Builder for [`FuzzCfg`].
#[derive(Clone, Debug, Default)]
pub struct FuzzCfgBuilder(FuzzCfg);

impl FuzzCfgBuilder {
    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Sets the total driver-step budget.
    pub fn step_budget(mut self, n: u64) -> Self {
        self.0.step_budget = n;
        self
    }

    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n.max(1);
        self
    }

    /// Sets how many random inputs found an empty corpus.
    pub fn bootstrap_inputs(mut self, n: usize) -> Self {
        self.0.bootstrap_inputs = n.max(1);
        self
    }

    /// Sets the tester steps per bootstrap input.
    pub fn bootstrap_len(mut self, n: u64) -> Self {
        self.0.bootstrap_len = n;
        self
    }

    /// Caps driver events per input.
    pub fn max_input_len(mut self, n: usize) -> Self {
        self.0.max_input_len = n.max(1);
        self
    }

    /// Sets the arbitrary-call fraction for generated ops.
    pub fn invalid_fraction(mut self, f: f64) -> Self {
        self.0.invalid_fraction = f;
        self
    }

    /// Persists the corpus in `dir`.
    pub fn corpus_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.0.corpus_dir = Some(dir.into());
        self
    }

    /// Writes minimized crash reproducers into `dir`.
    pub fn crashes_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.0.crashes_dir = Some(dir.into());
        self
    }

    /// Runs `fraction` of executions under `chaos`.
    pub fn chaos(mut self, chaos: ChaosCfg, fraction: f64) -> Self {
        self.0.chaos = Some(chaos);
        self.0.chaos_fraction = fraction;
        self
    }

    /// Sets the machine shape.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Sets the oracle switches.
    pub fn oracle_opts(mut self, opts: OracleOpts) -> Self {
        self.0.oracle_opts = opts;
        self
    }

    /// Sets the oracle's [`CheckMode`] for every execution (sugar over
    /// [`oracle_opts`](Self::oracle_opts)). Feedback signals are read
    /// after a checker sync, so coverage and novelty are mode-independent.
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.0.oracle_opts.check_mode = mode;
        self
    }

    /// Injects `faults` into every execution.
    pub fn faults(mut self, faults: &FaultSet) -> Self {
        self.0.fault_bits = faults.bits();
        self
    }

    /// Caps minimization replays per crash family.
    pub fn minimize_budget(mut self, n: usize) -> Self {
        self.0.minimize_budget = n;
        self
    }

    /// Stops on the first crash family.
    pub fn stop_on_violation(mut self, on: bool) -> Self {
        self.0.stop_on_violation = on;
        self
    }

    /// Finishes the builder, sanitising the fractions the same way
    /// [`crate::random::RandomCfgBuilder::build`] does (NaN falls back to
    /// the default, the rest clamps into [0, 1]).
    pub fn build(mut self) -> FuzzCfg {
        let sane = |f: f64, default: f64| {
            if f.is_nan() {
                default
            } else {
                f.clamp(0.0, 1.0)
            }
        };
        let d = FuzzCfg::default();
        self.0.invalid_fraction = sane(self.0.invalid_fraction, d.invalid_fraction);
        self.0.chaos_fraction = sane(self.0.chaos_fraction, d.chaos_fraction);
        self.0
    }
}

/// The aggregated outcome of a fuzzing session.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Inputs executed (bootstrap included).
    pub execs: u64,
    /// Driver steps executed across all inputs.
    pub steps: u64,
    /// Corpus size at the end of the session.
    pub corpus_size: usize,
    /// Distinct coverage points the corpus reaches.
    pub points_covered: usize,
    /// Deduplicated crash families, in discovery order.
    pub crashes: Vec<CrashEntry>,
    /// Panics that escaped an execution (the oracle's containment
    /// failing); always expected to be zero.
    pub escaped_panics: u64,
    /// Seed/crash persistence failures (disk full, unwritable dir).
    pub persist_errors: u64,
    /// Coverage accumulated over the whole session, as a delta against
    /// the session-start snapshot.
    pub coverage: CoverageSummary,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// `true` when no crash families and no escaped panics were seen.
    pub fn is_clean(&self) -> bool {
        self.crashes.is_empty() && self.escaped_panics == 0
    }

    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} execs, {} driver steps in {:.2?}; corpus {} seeds / {} points",
            self.execs, self.steps, self.elapsed, self.corpus_size, self.points_covered,
        );
        let _ = writeln!(
            out,
            "  crash families: {} ({} escaped panics, {} persist errors)",
            self.crashes.len(),
            self.escaped_panics,
            self.persist_errors,
        );
        for c in &self.crashes {
            let _ = writeln!(
                out,
                "    {} — seen {}x, minimized {} -> {} events, found at step {}",
                c.sig, c.count, c.original_events, c.minimized_events, c.steps_to_find,
            );
        }
        out.push_str(&self.coverage.render());
        out
    }
}

/// What one execution measured.
struct ExecOutcome {
    summary: CoverageSummary,
    points: Vec<&'static str>,
    sig: u64,
    violations: Vec<Violation>,
    hyp_panic: Option<String>,
    steps: u64,
    escaped_panic: bool,
}

/// Mutable state all workers share behind the fuzzer's mutex.
struct Shared {
    corpus: Corpus,
    sched: Scheduler,
    triage: Triage,
    execs: u64,
    steps: u64,
    escaped_panics: u64,
}

/// The coverage-guided fuzzer.
pub struct Fuzzer {
    cfg: FuzzCfg,
    shared: Mutex<Shared>,
}

impl Fuzzer {
    /// Builds a fuzzer, creating the corpus and crashes directories when
    /// configured. Never fails: an uncreatable directory degrades the
    /// corresponding store to in-memory only, counted in the report's
    /// `persist_errors` — a full disk shrinks persistence, not the
    /// session.
    pub fn new(cfg: FuzzCfg) -> Fuzzer {
        let corpus = Corpus::new(cfg.corpus_dir.clone());
        let triage = Triage::new(cfg.crashes_dir.clone(), cfg.minimize_budget);
        Fuzzer {
            cfg,
            shared: Mutex::new(Shared {
                corpus,
                sched: Scheduler::new(),
                triage,
                execs: 0,
                steps: 0,
                escaped_panics: 0,
            }),
        }
    }

    /// Runs the session: reloads any persisted corpus, bootstraps if the
    /// corpus is empty, then fuzzes until the step budget is spent.
    pub fn run(&mut self) -> FuzzReport {
        let start = Instant::now();
        let base = cov::snapshot();
        self.seed_corpus();
        if self.cfg.workers <= 1 {
            self.worker_loop(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..self.cfg.workers {
                    let this = &*self;
                    s.spawn(move || this.worker_loop(w));
                }
            });
        }
        let sh = self.shared.lock();
        FuzzReport {
            execs: sh.execs,
            steps: sh.steps,
            corpus_size: sh.corpus.seeds.len(),
            points_covered: sh.corpus.points_covered(),
            crashes: sh.triage.entries.clone(),
            escaped_panics: sh.escaped_panics,
            persist_errors: sh.corpus.persist_errors + sh.triage.persist_errors,
            coverage: CoverageSummary::since(&base),
            elapsed: start.elapsed(),
        }
    }

    /// Reloads persisted seeds (re-executing each to refresh its
    /// footprint), then generates bootstrap inputs while the corpus is
    /// empty. Single-threaded and deterministic per seed.
    fn seed_corpus(&self) {
        let mut rng = Rng::seed_from_u64(self.cfg.seed ^ 0xb007_57a9);
        if let Some(dir) = self.cfg.corpus_dir.clone() {
            for (path, trace) in corpus::load_dir(&dir) {
                let input: Vec<EventRecord> = trace
                    .events
                    .iter()
                    .filter(|r| r.event.is_driver())
                    .cloned()
                    .collect();
                let out = execute(&self.cfg, &input, trace.chaos);
                self.absorb(&self.make_trace(input, trace.chaos), out, Some(path));
            }
        }
        for i in 0..self.cfg.bootstrap_inputs {
            if self.shared.lock().steps >= self.cfg.step_budget {
                break;
            }
            // Escalating lengths: early seeds are cheap to mutate, later
            // ones reach the deep stateful territory (guest runs, reclaim
            // chains) that only long model-guided sequences visit.
            let len = self.cfg.bootstrap_len * (i as u64 + 1);
            let input = generate_input(&self.cfg, rng.gen_u64(), len);
            let out = execute(&self.cfg, &input, None);
            self.absorb(&self.make_trace(input, None), out, None);
        }
    }

    /// One worker's fuzz loop: pick a seed by energy, mutate, execute,
    /// feed the result back.
    fn worker_loop(&self, w: usize) {
        let mut rng = Rng::seed_from_u64(worker_seed(self.cfg.seed, w));
        loop {
            // Pick parent(s) under the lock; mutate and execute outside
            // it so workers overlap on the expensive part.
            let kind;
            let parent;
            let mut second: Option<Vec<EventRecord>> = None;
            {
                let sh = self.shared.lock();
                if sh.steps >= self.cfg.step_budget {
                    break;
                }
                if self.cfg.stop_on_violation && !sh.triage.entries.is_empty() {
                    break;
                }
                kind = *{
                    use MutationKind::*;
                    [
                        Truncate,
                        Splice,
                        Splice,
                        InsertOps,
                        InsertOps,
                        MutateParams,
                        MutateParams,
                    ]
                }
                .get(rng.gen_range(0..7u64) as usize)
                .expect("in range");
                let Some(p) = sh.sched.choose(&sh.corpus.seeds, &mut rng) else {
                    break; // every bootstrap failed to execute: nothing to mutate
                };
                parent = p.trace.events.clone();
                if kind == MutationKind::Splice {
                    second = sh
                        .sched
                        .choose(&sh.corpus.seeds, &mut rng)
                        .map(|s| s.trace.events.clone());
                }
            }
            let mutated = match kind {
                MutationKind::Truncate => mutate::truncate(&parent, &mut rng),
                MutationKind::Splice => match &second {
                    Some(b) => mutate::splice(&parent, b, &mut rng),
                    None => mutate::mutate_params(&parent, &mut rng),
                },
                MutationKind::InsertOps => mutate::insert_ops(&self.cfg, &parent, &mut rng),
                MutationKind::MutateParams => mutate::mutate_params(&parent, &mut rng),
            };
            let input = mutate::cap_len(mutated, self.cfg.max_input_len);
            let chaos = self
                .cfg
                .chaos
                .filter(|_| rng.gen_bool(self.cfg.chaos_fraction))
                .map(|c| c.reseeded(rng.gen_u64()));
            let out = execute(&self.cfg, &input, chaos);
            self.absorb(&self.make_trace(input, chaos), out, None);
        }
    }

    /// Folds one execution into the shared state: frequency tables,
    /// corpus admission, triage.
    fn absorb(&self, trace: &CampaignTrace, out: ExecOutcome, existing: Option<PathBuf>) {
        let mut sh = self.shared.lock();
        sh.execs += 1;
        // Even a zero-step input costs budget, or an empty corpus seed
        // could stall the loop forever.
        sh.steps += out.steps.max(1);
        if out.escaped_panic {
            sh.escaped_panics += 1;
            return;
        }
        sh.sched.observe(&out.points, out.sig);
        sh.corpus
            .consider(trace.clone(), out.points, out.sig, existing);
        if !out.violations.is_empty() || out.hyp_panic.is_some() {
            let steps_now = sh.steps;
            sh.triage.record(
                trace,
                &out.violations,
                out.hyp_panic.as_deref(),
                &out.summary.spec,
                steps_now,
            );
        }
    }

    /// Wraps an input in the session's execution configuration.
    fn make_trace(&self, events: Vec<EventRecord>, chaos: Option<ChaosCfg>) -> CampaignTrace {
        CampaignTrace {
            config: self.cfg.config.clone(),
            oracle_opts: self.cfg.oracle_opts,
            fault_bits: self.cfg.fault_bits,
            chaos,
            seeds: Vec::new(),
            events,
        }
    }
}

/// Executes the driver events on `m` in order (campaign replay's
/// [`execute_driver`]), none after a hypervisor panic. Returns the steps
/// executed.
pub(crate) fn apply_driver(m: &Machine, events: &[EventRecord]) -> u64 {
    events
        .iter()
        .filter(|ev| execute_driver(m, &ev.event))
        .count() as u64
}

/// Runs `steps` fresh model-guided tester steps on `proxy` and returns
/// the driver events they recorded (the insert mutator's generator).
pub(crate) fn extend_with_random_steps(
    proxy: Proxy,
    rcfg: RandomCfg,
    steps: u64,
) -> Vec<EventRecord> {
    let mut t = RandomTester::new(proxy, rcfg);
    t.run(steps);
    t.proxy
        .events()
        .take_events()
        .into_iter()
        .filter(|r| r.event.is_driver())
        .collect()
}

/// Generates one bootstrap input: a fresh oracle-free machine driven by
/// a model-guided tester for `steps` steps, its recorded driver events
/// renumbered into an input sequence.
fn generate_input(cfg: &FuzzCfg, seed: u64, steps: u64) -> Vec<EventRecord> {
    let proxy = Proxy::builder()
        .config(cfg.config.clone())
        .with_oracle(false)
        .record(true)
        .boot();
    let rcfg = RandomCfg::builder()
        .seed(seed)
        .invalid_fraction(cfg.invalid_fraction)
        .build();
    mutate::cap_len(
        mutate::renumber(extend_with_random_steps(proxy, rcfg, steps)),
        cfg.max_input_len,
    )
}

/// Executes a recorded input under `cfg` on a fresh machine and returns
/// the coverage footprint — (points hit, novelty signature) — its
/// execution measured, or `None` when the execution escaped containment.
/// The fleet coordinator re-measures merged seeds through this before
/// distilling a corpus down to a frontier-preserving subset.
pub fn footprint(cfg: &FuzzCfg, trace: &CampaignTrace) -> Option<(Vec<&'static str>, u64)> {
    let input: Vec<EventRecord> = trace
        .events
        .iter()
        .filter(|r| r.event.is_driver())
        .cloned()
        .collect();
    let out = execute(cfg, &input, trace.chaos);
    if out.escaped_panic {
        None
    } else {
        Some((out.points, out.sig))
    }
}

/// Executes one input on a fresh machine under the oracle and measures
/// both feedback signals. The whole execution runs under `catch_unwind`:
/// the oracle contains its own panics by design, so an escaped panic is
/// itself a reportable failure, never a fuzzer crash.
fn execute(cfg: &FuzzCfg, input: &[EventRecord], chaos: Option<ChaosCfg>) -> ExecOutcome {
    let before = cov::snapshot();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let proxy = Proxy::builder()
            .config(cfg.config.clone())
            .oracle_opts(cfg.oracle_opts)
            .faults(FaultSet::from_bits(cfg.fault_bits))
            .chaos(chaos)
            .record(true)
            .boot();
        let steps = apply_driver(&proxy.machine, input);
        // Sync with the checker (no-op inline) before taking the
        // timeline: the derived Check/Violation records must all have
        // landed for the signature and verdict to be complete.
        if let Some(o) = &proxy.oracle {
            o.barrier();
        }
        let events = proxy.events().take_events();
        (
            canonical_signature(&events),
            proxy.violations(),
            proxy.machine.panicked(),
            steps,
        )
    }));
    let summary = CoverageSummary::since(&before);
    let points: Vec<&'static str> = summary
        .hyp
        .points
        .iter()
        .chain(summary.spec.points.iter())
        .filter(|(_, n)| *n > 0)
        .map(|&(p, _)| p)
        .collect();
    match result {
        Ok((sig, violations, hyp_panic, steps)) => ExecOutcome {
            summary,
            points,
            sig,
            violations,
            hyp_panic,
            steps,
            escaped_panic: false,
        },
        Err(_) => ExecOutcome {
            summary,
            points,
            sig: 0,
            violations: Vec::new(),
            hyp_panic: None,
            steps: 0,
            escaped_panic: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::replay;
    use pkvm_hyp::faults::Fault;

    #[test]
    fn clean_session_builds_a_corpus_and_stays_clean() {
        let mut f = Fuzzer::new(
            FuzzCfg::builder()
                .seed(0xabc)
                .step_budget(600)
                .bootstrap_inputs(3)
                .bootstrap_len(40)
                .build(),
        );
        let r = f.run();
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.steps >= 600, "budget not spent: {}", r.render());
        assert!(
            r.corpus_size >= 3,
            "bootstrap never admitted: {}",
            r.render()
        );
        assert!(r.points_covered > 10, "{}", r.render());
        assert_eq!(r.escaped_panics, 0);
    }

    #[test]
    fn sessions_are_reproducible_per_seed() {
        let run = |seed| {
            let mut f = Fuzzer::new(
                FuzzCfg::builder()
                    .seed(seed)
                    .step_budget(400)
                    .bootstrap_inputs(2)
                    .bootstrap_len(30)
                    .build(),
            );
            let r = f.run();
            (r.execs, r.steps, r.corpus_size, r.points_covered)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fuzzer_finds_and_triages_an_injected_bug() {
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let mut f = Fuzzer::new(
            FuzzCfg::builder()
                .seed(0xb06)
                .step_budget(1500)
                .faults(&faults)
                .stop_on_violation(true)
                .build(),
        );
        let r = f.run();
        assert!(
            !r.crashes.is_empty(),
            "injected bug never found:\n{}",
            r.render()
        );
        let c = &r.crashes[0];
        assert!(c.steps_to_find <= r.steps);
        assert!(c.minimized_events <= c.original_events);
        // The minimized reproducer replays to a violation on its own.
        assert!(replay(&c.trace).violated(), "{}", r.render());
        assert_eq!(r.escaped_panics, 0);
    }

    #[test]
    fn parallel_workers_share_the_corpus_without_escapes() {
        let mut f = Fuzzer::new(
            FuzzCfg::builder()
                .seed(0x9a9)
                .step_budget(800)
                .workers(3)
                .build(),
        );
        let r = f.run();
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.corpus_size >= 1);
    }

    #[test]
    fn chaotic_fraction_runs_without_escaped_panics() {
        let chaos = ChaosCfg::builder()
            .seed(0xc4a)
            .torn_read_once(0.02)
            .drop_lock_event(0.02)
            .build();
        let mut f = Fuzzer::new(
            FuzzCfg::builder()
                .seed(0xc4a05)
                .step_budget(500)
                .chaos(chaos, 0.5)
                .build(),
        );
        let r = f.run();
        // Chaos may surface (deliberate) violations; the invariant is
        // containment, not cleanliness.
        assert_eq!(r.escaped_panics, 0, "{}", r.render());
    }
}
