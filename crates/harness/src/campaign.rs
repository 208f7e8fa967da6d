//! Parallel, replayable random-testing campaigns.
//!
//! The paper's random testing runs at ~200,000 hypercalls per hour with a
//! longest campaign of 24 hours (§5); its concurrency checks — per-lock
//! recording and the §4.4 non-interference invariant — only earn their
//! keep when handlers genuinely race. This module scales the single
//! threaded [`RandomTester`] into a campaign: one booted machine driven
//! from N worker threads, each with its own seeded tester and model,
//! pinned to a distinct simulated CPU through cloned [`Proxy`] handles
//! with partitioned page allocators.
//!
//! Every worker emits the concrete driver actions it performs (the
//! hypercalls with their resolved arguments, parameter-page writes, host
//! accesses and guest-op injections) into the machine's unified
//! [`pkvm_ghost::event::EventStream`], interleaved with the oracle's
//! own trap/lock/check events and any chaos injections. The
//! stream's global sequence numbers are an approximate linearisation of
//! the campaign — each action is emitted immediately before it executes —
//! so a violating campaign can be [`replay`]ed single-threaded from the
//! recorded seeds and schedule alone, [`minimize`](crate::minimize())d to
//! a short reproducer by greedy chunk removal, or persisted to a
//! `.pkvmtrace` file (see [`crate::tracefile`]) and replayed in a fresh
//! process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pkvm_aarch64::addr::PhysAddr;
use pkvm_ghost::containment::payload_to_string;
use pkvm_ghost::event::{Event, EventRecord};
use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::{CheckMode, StatsSnapshot, Violation};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::machine::{Machine, MachineConfig};

use crate::chaos::{ChaosCfg, ChaosDriver, ChaosInjected};
use crate::proxy::Proxy;
use crate::random::{RandomCfg, RandomTester, RunStats};
use crate::tracefile::{TraceFileError, TraceHeader};

/// Campaign configuration.
///
/// Construct with [`CampaignCfg::builder`] (or [`Default`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CampaignCfg {
    /// Worker threads (each pinned to one simulated CPU).
    pub workers: usize,
    /// Step budget per worker.
    pub steps_per_worker: u64,
    /// Wall-clock budget for the whole campaign, if any.
    pub time_budget: Option<Duration>,
    /// Base seed; each worker derives its own stream from it.
    pub base_seed: u64,
    /// Fraction of fuzzed (arbitrary-argument) steps per worker.
    pub invalid_fraction: f64,
    /// Per-worker call mix ([`crate::random::OP_NAMES`] order). The
    /// default mix drives general API traffic;
    /// [`android_weights`](crate::android::android_weights) shapes it
    /// like an Android device under VM churn.
    pub op_weights: [f64; crate::random::OP_NAMES.len()],
    /// Stop all workers as soon as a violation or panic is observed.
    pub stop_on_violation: bool,
    /// Install the ghost oracle.
    pub with_oracle: bool,
    /// Record the op trace for replay (small, but not free).
    pub record_trace: bool,
    /// Machine shape (`nr_cpus` is raised to at least `workers`).
    pub config: MachineConfig,
    /// Oracle switches.
    pub oracle_opts: OracleOpts,
    /// Injected faults, as raw [`FaultSet`] bits.
    pub fault_bits: u32,
    /// Chaos injection against the oracle (see [`crate::chaos`]).
    pub chaos: Option<ChaosCfg>,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        Self {
            workers: 4,
            steps_per_worker: 1000,
            time_budget: None,
            base_seed: 0xcafe_f00d,
            invalid_fraction: 0.15,
            op_weights: crate::random::DEFAULT_OP_WEIGHTS,
            stop_on_violation: true,
            with_oracle: true,
            record_trace: true,
            config: MachineConfig::default(),
            oracle_opts: OracleOpts::default(),
            fault_bits: 0,
            chaos: None,
        }
    }
}

impl CampaignCfg {
    /// Starts a builder from the defaults.
    pub fn builder() -> CampaignCfgBuilder {
        CampaignCfgBuilder(CampaignCfg::default())
    }
}

/// Builder for [`CampaignCfg`].
#[derive(Clone, Debug, Default)]
pub struct CampaignCfgBuilder(CampaignCfg);

impl CampaignCfgBuilder {
    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n.max(1);
        self
    }

    /// Sets the per-worker step budget.
    pub fn steps_per_worker(mut self, n: u64) -> Self {
        self.0.steps_per_worker = n;
        self
    }

    /// Sets a wall-clock budget for the campaign.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.0.time_budget = Some(d);
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.0.base_seed = seed;
        self
    }

    /// Sets the fuzzed-step fraction.
    pub fn invalid_fraction(mut self, f: f64) -> Self {
        self.0.invalid_fraction = f;
        self
    }

    /// Replaces the per-worker call mix ([`crate::random::OP_NAMES`]
    /// order).
    pub fn op_weights(mut self, weights: [f64; crate::random::OP_NAMES.len()]) -> Self {
        self.0.op_weights = weights;
        self
    }

    /// Shapes the campaign like an Android device: share/unshare
    /// ping-pong, constant VM churn, firmware loads (sugar over
    /// [`op_weights`](Self::op_weights) with
    /// [`android_weights`](crate::android::android_weights)).
    pub fn android(self) -> Self {
        self.op_weights(crate::android::android_weights())
    }

    /// Keep running after the first violation (default stops).
    pub fn stop_on_violation(mut self, on: bool) -> Self {
        self.0.stop_on_violation = on;
        self
    }

    /// Install (or omit) the ghost oracle (default installed).
    pub fn with_oracle(mut self, on: bool) -> Self {
        self.0.with_oracle = on;
        self
    }

    /// Record (or skip) the replay trace (default recorded).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.0.record_trace = on;
        self
    }

    /// Sets the machine shape.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Sets the oracle's switches.
    pub fn oracle_opts(mut self, opts: OracleOpts) -> Self {
        self.0.oracle_opts = opts;
        self
    }

    /// Sets the oracle's [`CheckMode`] (sugar over
    /// [`oracle_opts`](Self::oracle_opts)). Pipelined campaigns check
    /// behind the execution frontier; the run synchronises with the
    /// checker before aggregating the report, so the verdict covers
    /// every step the workers drove.
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.0.oracle_opts.check_mode = mode;
        self
    }

    /// Injects `faults` before boot.
    pub fn faults(mut self, faults: &FaultSet) -> Self {
        self.0.fault_bits = faults.bits();
        self
    }

    /// Turns on chaos injection for the campaign.
    pub fn chaos(mut self, chaos: ChaosCfg) -> Self {
        self.0.chaos = Some(chaos);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CampaignCfg {
        self.0
    }

    /// Builds and runs the campaign.
    pub fn run(self) -> CampaignReport {
        run(&self.build())
    }
}

/// Everything needed to re-run a campaign deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignTrace {
    /// The machine shape the campaign booted (after the `nr_cpus` raise).
    pub config: MachineConfig,
    /// The oracle switches.
    pub oracle_opts: OracleOpts,
    /// The injected faults.
    pub fault_bits: u32,
    /// The chaos config, if the campaign ran chaotic. Replay re-installs
    /// the hook-plane chaos from the same seed; driver-plane bit flips
    /// need nothing — they were recorded as ordinary `WriteMem` ops.
    pub chaos: Option<ChaosCfg>,
    /// Per-worker derived seeds.
    pub seeds: Vec<u64>,
    /// The recorded timeline in global sequence order: the concrete
    /// driver ops replay executes, plus every oracle and chaos event for
    /// inspection ([`Event::is_driver`] tells them apart).
    pub events: Vec<EventRecord>,
}

/// One worker's slice of the campaign.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker index (also its pinned CPU).
    pub worker: usize,
    /// The seed its tester ran with.
    pub seed: u64,
    /// Steps it completed.
    pub steps: u64,
    /// Its run counters.
    pub stats: RunStats,
    /// The panic message, if the worker thread panicked.
    pub panicked: Option<String>,
}

/// The aggregated outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-worker reports.
    pub workers: Vec<WorkerReport>,
    /// All workers' counters merged.
    pub stats: RunStats,
    /// Violations the oracle recorded (empty without an oracle).
    pub violations: Vec<Violation>,
    /// The hypervisor's panic, if it hit a `BUG()`.
    pub hyp_panic: Option<String>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
    /// The oracle's counters after the campaign, read for its resilience:
    /// contained panics, quarantine activity, budget degradation, dropped
    /// violations (all zero without an oracle).
    pub resilience: StatsSnapshot,
    /// What the chaos engine injected (`None` without chaos).
    pub chaos_injected: Option<ChaosInjected>,
    /// The replay trace, when recording was enabled.
    pub trace: Option<CampaignTrace>,
}

impl CampaignReport {
    /// `true` when no violations, no hypervisor panic and no worker
    /// thread panic were observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
            && self.hyp_panic.is_none()
            && self.workers.iter().all(|w| w.panicked.is_none())
    }

    /// Aggregate hypercalls issued.
    pub fn total_calls(&self) -> u64 {
        self.stats.calls
    }

    /// Aggregate hypercalls per second over the campaign.
    pub fn calls_per_sec(&self) -> f64 {
        self.stats.calls as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} workers, {} calls in {:.2?} ({:.0} calls/s)",
            self.workers.len(),
            self.stats.calls,
            self.elapsed,
            self.calls_per_sec(),
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  worker {} (seed {:#x}): {} steps, {} calls{}",
                w.worker,
                w.seed,
                w.steps,
                w.stats.calls,
                w.panicked
                    .as_deref()
                    .map(|p| format!(", PANICKED: {p}"))
                    .unwrap_or_default(),
            );
        }
        let _ = writeln!(
            out,
            "  violations: {}{}",
            self.violations.len(),
            self.hyp_panic
                .as_deref()
                .map(|p| format!("; hypervisor panic: {p}"))
                .unwrap_or_default(),
        );
        if let Some(c) = &self.chaos_injected {
            let _ = writeln!(
                out,
                "  chaos injected: {} (flips {}, torn reads {}, dropped {}, duped {}, delayed {}, alloc {}, stale tlb {})",
                c.total(),
                c.bit_flips,
                c.torn_reads,
                c.dropped_events,
                c.duped_events,
                c.delayed_events,
                c.alloc_faults,
                c.stale_tlbs,
            );
        }
        let r = &self.resilience;
        if r.degraded() {
            let _ = writeln!(
                out,
                "  oracle degraded safely: {} contained panics, {} quarantine skips, {} recoveries, {} budget-degraded events, {} degraded traps, {} violations dropped",
                r.contained_panics,
                r.quarantined_skips,
                r.quarantine_recoveries,
                r.budget_degraded_events,
                r.degraded_traps,
                r.violations_dropped,
            );
        }
        out
    }
}

/// Derives worker `w`'s seed from the campaign base seed (one
/// splitmix64-style finalisation over the stream index, so neighbouring
/// workers get well-separated streams).
pub fn worker_seed(base: u64, w: usize) -> u64 {
    let mut z = base ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How often a worker polls the stop conditions, in steps. Polling reads
/// one relaxed atomic from the oracle, so the interval is short.
const POLL_INTERVAL: u64 = 32;

/// Runs a campaign: boots one machine, partitions the proxy, drives it
/// from `cfg.workers` pinned threads and aggregates the outcome. Worker
/// thread panics are caught and reported, not propagated.
pub fn run(cfg: &CampaignCfg) -> CampaignReport {
    let start = Instant::now();
    let mut config = cfg.config.clone();
    config.nr_cpus = config.nr_cpus.max(cfg.workers);
    let proxy = Proxy::builder()
        .config(config.clone())
        .with_oracle(cfg.with_oracle)
        .oracle_opts(cfg.oracle_opts)
        .faults(FaultSet::from_bits(cfg.fault_bits))
        .chaos(cfg.chaos)
        .record(cfg.record_trace)
        .boot();
    let oracle = proxy.oracle.clone();
    let machine = proxy.machine.clone();
    let parts = proxy.partition(cfg.workers);
    let seeds: Vec<u64> = (0..cfg.workers)
        .map(|w| worker_seed(cfg.base_seed, w))
        .collect();
    let deadline = cfg.time_budget.map(|d| start + d);
    let stop = AtomicBool::new(false);

    let workers: Vec<WorkerReport> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let seed = seeds[part.worker()];
                let stop = &stop;
                let oracle = oracle.clone();
                s.spawn(move || {
                    let w = part.worker();
                    let pin = w % part.machine.nr_cpus();
                    let rcfg = RandomCfg::builder()
                        .seed(seed)
                        .invalid_fraction(cfg.invalid_fraction)
                        .op_weights(cfg.op_weights)
                        .pin_cpu(pin)
                        .build();
                    let mut t = RandomTester::new(part, rcfg);
                    // Driver-plane chaos (bit flips) interleaves with the
                    // tester's own steps; hook/alloc chaos needs no
                    // driving — it fires inside the proxy and hooks.
                    let mut chaos_driver = cfg
                        .chaos
                        .filter(|c| c.p_bit_flip > 0.0)
                        .map(|c| ChaosDriver::new(&c, w));
                    let mut steps = 0;
                    // A panic ends the worker's run, not its report: the
                    // steps and counters stay on this side of the catch.
                    let panicked = catch_unwind(AssertUnwindSafe(|| {
                        while steps < cfg.steps_per_worker && !stop.load(Ordering::Relaxed) {
                            t.step();
                            if let Some(d) = chaos_driver.as_mut() {
                                d.step(&t.proxy);
                            }
                            steps += 1;
                            if steps % POLL_INTERVAL == 0 {
                                if deadline.is_some_and(|d| Instant::now() >= d) {
                                    stop.store(true, Ordering::Relaxed);
                                    break;
                                }
                                // In pipelined mode the count lags the
                                // execution frontier, so stop-on-violation
                                // fires a few steps late — the violation
                                // itself (and its sequence id) is
                                // unaffected.
                                let dirty =
                                    oracle.as_ref().is_some_and(|o| o.violation_count() > 0)
                                        || t.proxy.machine.panicked().is_some();
                                if cfg.stop_on_violation && dirty {
                                    stop.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }))
                    .err()
                    .map(payload_to_string);
                    WorkerReport {
                        worker: w,
                        seed,
                        steps,
                        stats: t.stats,
                        panicked,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                // Only a panic before the first step gets here.
                h.join().unwrap_or_else(|payload| WorkerReport {
                    worker: i,
                    seed: seeds[i],
                    steps: 0,
                    stats: RunStats::default(),
                    panicked: Some(payload_to_string(payload)),
                })
            })
            .collect()
    });

    let mut stats = RunStats::default();
    for w in &workers {
        stats.merge(&w.stats);
    }
    // The campaign's one mandatory sync point with the checker: wait for
    // the frontier to drain (a no-op inline), then read everything —
    // violations, resilience counters, the recorded timeline — through
    // the settled [`pkvm_ghost::Verdict`] handle.
    let verdict = oracle.as_ref().map(|o| o.verdict());
    if let Some(v) = &verdict {
        v.wait();
    }
    let violations = verdict.as_ref().map(|v| v.violations()).unwrap_or_default();
    let trace = cfg.record_trace.then(|| CampaignTrace {
        config,
        oracle_opts: cfg.oracle_opts,
        fault_bits: cfg.fault_bits,
        chaos: cfg.chaos,
        seeds,
        events: proxy.events().take_events(),
    });
    CampaignReport {
        workers,
        stats,
        violations,
        hyp_panic: machine.panicked(),
        elapsed: start.elapsed(),
        resilience: verdict.as_ref().map(|v| v.stats()).unwrap_or_default(),
        chaos_injected: proxy.chaos_injected(),
        trace,
    }
}

/// The outcome of replaying a (possibly truncated) schedule.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Violations the replay oracle recorded.
    pub violations: Vec<Violation>,
    /// The hypervisor's panic, if the replay hit one.
    pub hyp_panic: Option<String>,
    /// Events executed.
    pub steps: usize,
}

impl ReplayOutcome {
    /// `true` when the replay reproduced a violation or panic.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty() || self.hyp_panic.is_some()
    }
}

/// Replays a recorded campaign single-threaded: boots a fresh machine
/// from the trace's configuration and faults (the oracle always
/// installed — replay exists to reproduce violations), then executes the
/// recorded *driver* events in their recorded global order; oracle and
/// chaos events in the trace are context, not instructions — the replay
/// oracle regenerates its own. No RNG, model or allocator runs: every
/// argument is already concrete in the trace. Replay is deterministic,
/// so two replays of the same trace — in this process or another —
/// produce identical verdicts and violation sequence ids.
pub fn replay(trace: &CampaignTrace) -> ReplayOutcome {
    replay_events(trace, &trace.events)
}

/// Replays an explicit event slice under `trace`'s configuration (same
/// semantics as [`replay`], which passes the trace's own events). The
/// minimizer probes candidate subsequences through this.
pub fn replay_events(trace: &CampaignTrace, events: &[EventRecord]) -> ReplayOutcome {
    let mut rm = ReplayMachine::boot(&TraceHeader::of(trace));
    for ev in events {
        rm.step(&ev.event);
    }
    rm.outcome()
}

/// A booted replay target: feeds recorded events to a fresh machine one
/// at a time, so the schedule can come from anywhere — a materialized
/// slice ([`replay_events`]), a streaming
/// [`TraceReader`](crate::tracefile::TraceReader) ([`replay_stream`]),
/// or the differential matrix replaying one schedule against many fault
/// variants ([`crate::differential`]).
pub struct ReplayMachine {
    proxy: Proxy,
    steps: usize,
}

impl ReplayMachine {
    /// Boots a fresh machine from the trace header: its config, oracle
    /// switches (the oracle always installed — replay exists to
    /// reproduce violations), recorded faults and chaos.
    pub fn boot(header: &TraceHeader) -> ReplayMachine {
        ReplayMachine::boot_with_faults(header, header.fault_bits)
    }

    /// As [`boot`](Self::boot), but with `fault_bits` overriding the
    /// header's recorded faults — differential replay runs one clean
    /// schedule against many deliberately-wrong hypervisors.
    pub fn boot_with_faults(header: &TraceHeader, fault_bits: u32) -> ReplayMachine {
        let proxy = Proxy::builder()
            .config(header.config.clone())
            .oracle_opts(header.oracle_opts)
            .faults(FaultSet::from_bits(fault_bits))
            .chaos(header.chaos)
            .boot();
        ReplayMachine { proxy, steps: 0 }
    }

    /// Executes one recorded event. Only *driver* events run — oracle
    /// and chaos events in a trace are context, not instructions; the
    /// replay oracle regenerates its own. After a hypervisor panic
    /// nothing further executes (the machine is dead; feeding it more of
    /// the schedule would only mask the panic site). Returns `true` when
    /// the event actually executed. No RNG, model or allocator runs:
    /// every argument is already concrete in the event.
    pub fn step(&mut self, ev: &Event) -> bool {
        let ran = execute_driver(&self.proxy.machine, ev);
        self.steps += usize::from(ran);
        ran
    }

    /// Driver events executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Settles the replay oracle and collects the outcome. Replay is
    /// deterministic, so two replays of the same schedule — in this
    /// process or another — produce identical outcomes.
    pub fn outcome(self) -> ReplayOutcome {
        ReplayOutcome {
            violations: self.proxy.violations(),
            hyp_panic: self.proxy.machine.panicked(),
            steps: self.steps,
        }
    }
}

/// Executes one recorded *driver* event on `m` — the one interpretation
/// of a schedule that campaign replay and the fuzzer share. Oracle and
/// chaos events are context, not instructions, and never execute;
/// neither does anything after a hypervisor panic (the machine is dead).
/// Returns `true` when the event executed.
pub(crate) fn execute_driver(m: &Machine, ev: &Event) -> bool {
    if m.panicked().is_some() {
        return false;
    }
    match ev {
        Event::Hvc { cpu, func, args } => {
            let _ = m.hvc(*cpu, *func, args);
        }
        Event::WriteMem { pa, value } => {
            // Host privilege: through the host's stage 2, like the
            // recording side (Proxy::write_mem).
            let _ = m.host_write(0, *pa, *value);
        }
        Event::CorruptMem { pa, value } => {
            let _ = m.mem.write_u64(PhysAddr::new(*pa), *value);
        }
        Event::HostAccess { cpu, addr, access } => {
            let _ = m.host_access(*cpu, *addr, *access);
        }
        Event::PushGuestOp { handle, idx, op } => {
            let _ = m.push_guest_op(*handle, *idx, *op);
        }
        _ => return false,
    }
    true
}

/// Replays a *streamed* schedule under `header`'s configuration in O(1)
/// memory: the events arrive as fallible decode results (a
/// [`TraceReader`](crate::tracefile::TraceReader), typically) and are
/// executed as they decode. Execution stops at a hypervisor panic, like
/// every replay — but the stream is still drained to its end, so a
/// truncated or bit-rotted tail fails the whole replay even when the
/// panic comes first: a streamed replay accepts exactly the trace files
/// [`TraceReader::into_trace`](crate::tracefile::TraceReader::into_trace)
/// accepts.
///
/// # Errors
///
/// The stream's first decode error, if it has one.
pub fn replay_stream<I>(header: &TraceHeader, events: I) -> Result<ReplayOutcome, TraceFileError>
where
    I: IntoIterator<Item = Result<EventRecord, TraceFileError>>,
{
    let mut rm = ReplayMachine::boot(header);
    for rec in events {
        rm.step(&rec?.event);
    }
    Ok(rm.outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_hyp::faults::Fault;

    #[test]
    fn worker_seeds_are_distinct_streams() {
        let seeds: Vec<u64> = (0..8).map(|w| worker_seed(0xcafe, w)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_ne!(worker_seed(0xcafe, 0), worker_seed(0xcafd, 0));
    }

    #[test]
    fn concurrent_clean_campaign_stays_clean() {
        // The concurrent stress test of the satellite list: 4 workers on
        // a clean hypervisor with fixed seeds must see zero violations —
        // this is the first genuinely concurrent exercise of the §4.4
        // non-interference machinery.
        let cfg = CampaignCfg::builder()
            .workers(4)
            .steps_per_worker(400)
            .base_seed(0x5eed)
            .record_trace(false)
            .build();
        let report = run(&cfg);
        assert!(
            report.is_clean(),
            "clean concurrent campaign found violations:\n{}\n{:?}",
            report.render(),
            report.violations
        );
        assert!(report.stats.calls > 400, "{}", report.render());
        for w in &report.workers {
            assert!(w.steps > 0, "worker {} never stepped", w.worker);
        }
    }

    #[test]
    fn android_campaign_stays_clean_and_replays() {
        // The mixed-android mode: share/unshare ping-pong, VM churn and
        // firmware loads from several workers at once, with the Android
        // spec checks (firmware protection, transfer protocol) on by
        // default. Clean hypervisor => zero violations, and the recorded
        // schedule replays to the same verdict.
        let report = CampaignCfg::builder()
            .workers(3)
            .steps_per_worker(400)
            .base_seed(0xa4d201d)
            .android()
            .run();
        assert!(
            report.is_clean(),
            "android campaign found violations on a clean hypervisor:\n{}\n{:?}",
            report.render(),
            report.violations
        );
        let fw = report.stats.per_op.get("firmware").copied().unwrap_or(0);
        assert!(
            fw > 0,
            "android campaign never loaded firmware: {:?}",
            report.stats.per_op
        );
        let trace = report.trace.expect("trace recorded");
        let replayed = replay(&trace);
        assert!(!replayed.violated(), "{:?}", replayed.violations);
    }

    #[test]
    fn violating_campaign_replays_from_seed_and_schedule_alone() {
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let report = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(400)
            .base_seed(0xb0b)
            .faults(&faults)
            .run();
        assert!(!report.is_clean(), "injected bug went unnoticed");
        let trace = report.trace.as_ref().expect("trace recorded");
        assert!(!trace.events.is_empty());
        // The replay builds everything — machine, faults, oracle — from
        // the trace; nothing of the campaign run is reused.
        let replayed = replay(trace);
        assert!(
            replayed.violated(),
            "replay of {} events did not reproduce the violation",
            trace.events.len()
        );
        // And again: replay is deterministic.
        let again = replay(trace);
        assert_eq!(replayed.violations.len(), again.violations.len());
    }

    #[test]
    fn minimized_trace_still_violates_and_is_no_longer() {
        use crate::minimize;
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let report = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(300)
            .base_seed(0x51)
            .faults(&faults)
            .run();
        let trace = report.trace.expect("trace recorded");
        let min = minimize(&trace, 40);
        assert!(min.events.len() <= trace.events.len());
        assert!(
            replay(&min).violated(),
            "minimized reproducer lost the violation"
        );
    }

    #[test]
    fn time_budget_stops_the_campaign() {
        let report = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(u64::MAX)
            .time_budget(Duration::from_millis(200))
            .record_trace(false)
            .run();
        // Not a timing assertion — just that it terminated and the
        // workers did some work before the deadline fired.
        assert!(report.stats.calls > 0);
    }

    #[test]
    fn clean_campaign_without_oracle_runs_bare() {
        let report = CampaignCfg::builder()
            .workers(2)
            .steps_per_worker(100)
            .with_oracle(false)
            .record_trace(false)
            .run();
        assert!(report.is_clean());
        assert!(report.violations.is_empty());
    }
}
