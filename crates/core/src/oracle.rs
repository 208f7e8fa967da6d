//! The runtime oracle: recording ghost states and checking the spec.
//!
//! [`Oracle`] implements the hypervisor's instrumentation points
//! ([`GhostHooks`]) and realises the timeline of the paper's Fig. 6: at
//! trap entry it starts recording a pre-state (1); each component lock
//! acquisition records that component's abstraction into the pre-state
//! (2)-(3); each release records into the post-state (4)-(5); at trap exit
//! (6) it collects the final thread-local state and call data, computes
//! the expected post-state with the specification function (7), and
//! compares (8) — the ternary check.
//!
//! It also maintains a single *shared copy* of the entire ghost state,
//! against which every acquisition checks that nothing changed while the
//! lock was free (§4.4 non-interference). The checks that follow one
//! event family across the run — footprint separation (§4.4),
//! break-before-make, the transfer protocol and firmware protection —
//! are the back-half trackers (`crate::trackers`), fed the recorded
//! [`Event`]s.
//!
//! Since the [`Checker`] redesign the hooks are split into a *front
//! half* that runs on the hypervisor thread (event emission, lock-held
//! abstraction, per-trap budget gating) and a *back half*
//! (`Oracle::apply_msg`) that maintains the shared copy, runs the checks,
//! and contains and quarantines what panics, in message order.
//! [`CheckMode`] selects whether the back half runs inline in the hook or
//! on a pipelined checker thread.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::esr::Esr;
use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::sysreg::GprFile;
use pkvm_hyp::hooks::{Component, ComponentView, GhostHooks, HookCtx, TransferEdge, VcpuView};
use pkvm_hyp::hypercalls;
use pkvm_hyp::machine::MachineConfig;
use pkvm_hyp::mm::compute_layout;
use pkvm_hyp::owner::PageState;
use pkvm_hyp::vm::Handle;

use crate::abscache::{AbsCache, CacheStats};
use crate::abstraction::{
    abstract_host, abstract_hyp, abstract_vm, abstract_vm_with_pgt, interpret_pgtable, Anomaly,
};
use crate::calldata::GhostCallData;
use crate::check::{check_trap, normalize, part_eq, project, Violation};
use crate::checker::{
    checker_loop, CacheLine, CheckMode, CheckMsg, Checker, Pipeline, StatsSnapshot, Verdict,
};
use crate::containment::{contain, Disposition, Quarantine, QuarantineKey};
use crate::diff::diff_states;
use crate::event::{Event, EventStream};
use crate::maplet::{Maplet, MapletTarget};
use crate::mapping::Mapping;
use crate::spec::{abs_hyp_attrs, compute_post, SpecVerdict};
use crate::state::{
    AbstractPgtable, GhostCpu, GhostGlobals, GhostHost, GhostLoadedVcpu, GhostPkvm, GhostState,
    Part,
};
use crate::trackers::{trackers, transfer_point, Tracker};

/// Oracle configuration switches.
///
/// Construct with [`OracleOpts::builder`] (or [`Default`]): the builder
/// keeps call sites valid as switches are added.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct OracleOpts {
    /// Check that lock-protected state is unchanged between critical
    /// sections (§4.4 invariant 1).
    pub check_noninterference: bool,
    /// Check the page-table footprint separation (§4.4 invariant 2).
    pub check_separation: bool,
    /// Serve component abstractions from the incremental cache
    /// ([`AbsCache`]), re-interpreting only the descriptors that changed
    /// in write-log-dirtied table pages (default on). Off, every lock
    /// event walks the whole table.
    pub incremental_abstraction: bool,
    /// Run the full and incremental abstractions side by side and report
    /// any divergence as an oracle self-check violation. Implies the
    /// cache is maintained; the *full* result feeds the checks.
    pub shadow_validation: bool,
    /// Upper bound on retained violation reports; excess reports are
    /// dropped and counted in `StatsSnapshot::violations_dropped` so a
    /// pathological run cannot exhaust memory through its own findings.
    pub violation_cap: usize,
    /// Per-trap budget of lock events processed at full fidelity. Beyond
    /// it the oracle degrades: remaining events evict their component
    /// from the shared copy instead of abstracting it, and the trap's
    /// check is skipped (`degraded_traps`). Default is effectively
    /// unlimited.
    pub trap_check_budget: u64,
    /// Consecutive contained panics of one component (or spec step)
    /// before it is quarantined.
    pub quarantine_threshold: u32,
    /// How many traps a quarantined component sits out before it is
    /// recovered by re-seeding from a full abstraction pass.
    pub quarantine_traps: u64,
    /// Where the check core runs relative to the hypervisor: inline in
    /// each hook, or pipelined onto a checker thread behind the
    /// execution frontier. See [`CheckMode`].
    pub check_mode: CheckMode,
    /// Check the break-before-make discipline: every unmap or
    /// permission-tighten of a live mapping must be followed by the
    /// matching-scope broadcast TLBI plus DSB before its trap exits,
    /// else [`Violation::BreakBeforeMake`] anchored on the offending
    /// table write.
    pub check_break_before_make: bool,
    /// Check that the host never regains stage-2 access to a page donated
    /// to a protected VM as firmware — for the VM's whole lifetime,
    /// including across teardown and handle reuse
    /// ([`Violation::FirmwareProtection`]).
    pub check_firmware_protection: bool,
    /// Check the page-transfer protocol: every ownership transition must
    /// depart from the state the protocol prescribes for its edge
    /// ([`Violation::TransferProtocol`]), and a reclaimed page must reach
    /// the host wiped ([`Violation::ReclaimWipe`]).
    pub check_transfer_protocol: bool,
}

impl Default for OracleOpts {
    fn default() -> Self {
        Self {
            check_noninterference: true,
            check_separation: true,
            incremental_abstraction: true,
            shadow_validation: false,
            violation_cap: 4096,
            trap_check_budget: u64::MAX,
            quarantine_threshold: 3,
            quarantine_traps: 16,
            check_mode: CheckMode::Inline,
            check_break_before_make: true,
            check_firmware_protection: true,
            check_transfer_protocol: true,
        }
    }
}

impl OracleOpts {
    /// Starts a builder from the defaults.
    pub fn builder() -> OracleOptsBuilder {
        OracleOptsBuilder(OracleOpts::default())
    }

    fn uses_cache(&self) -> bool {
        self.incremental_abstraction || self.shadow_validation
    }
}

/// Builder for [`OracleOpts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleOptsBuilder(OracleOpts);

impl OracleOptsBuilder {
    /// Toggle the §4.4 non-interference check (default on).
    pub fn check_noninterference(mut self, on: bool) -> Self {
        self.0.check_noninterference = on;
        self
    }

    /// Toggle the §4.4 footprint-separation check (default on).
    pub fn check_separation(mut self, on: bool) -> Self {
        self.0.check_separation = on;
        self
    }

    /// Toggle the incremental abstraction cache (default on; off selects
    /// the full walk at every lock event).
    pub fn incremental_abstraction(mut self, on: bool) -> Self {
        self.0.incremental_abstraction = on;
        self
    }

    /// Toggle shadow validation of the incremental cache (default off).
    pub fn shadow_validation(mut self, on: bool) -> Self {
        self.0.shadow_validation = on;
        self
    }

    /// Bound the retained violation log (default 4096; minimum 1).
    pub fn violation_cap(mut self, cap: usize) -> Self {
        self.0.violation_cap = cap.max(1);
        self
    }

    /// Bound the lock events processed at full fidelity per trap
    /// (default unlimited).
    pub fn trap_check_budget(mut self, budget: u64) -> Self {
        self.0.trap_check_budget = budget;
        self
    }

    /// Consecutive contained panics before quarantine (default 3).
    pub fn quarantine_threshold(mut self, n: u32) -> Self {
        self.0.quarantine_threshold = n;
        self
    }

    /// Quarantine duration in traps (default 16).
    pub fn quarantine_traps(mut self, n: u64) -> Self {
        self.0.quarantine_traps = n;
        self
    }

    /// Where the check core runs (default [`CheckMode::Inline`]).
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.0.check_mode = mode;
        self
    }

    /// Toggle the break-before-make discipline check (default on).
    pub fn check_break_before_make(mut self, on: bool) -> Self {
        self.0.check_break_before_make = on;
        self
    }

    /// Toggle the firmware-protection check (default on).
    pub fn check_firmware_protection(mut self, on: bool) -> Self {
        self.0.check_firmware_protection = on;
        self
    }

    /// Toggle the transfer-protocol check (default on).
    pub fn check_transfer_protocol(mut self, on: bool) -> Self {
        self.0.check_transfer_protocol = on;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> OracleOpts {
        self.0
    }
}

/// One line of the oracle's trap trace: what was checked and how it went.
#[derive(Clone, Debug)]
pub struct TrapRecord {
    /// Hardware thread the trap ran on.
    pub cpu: usize,
    /// Handler name (hypercall name, `host_abort`, `smc`, ...): borrowed
    /// from the handler table when the oracle records it, owned when a
    /// trace file is decoded.
    pub name: Cow<'static, str>,
    /// `Ok`: checked and clean. `Err`: number of violations, or the
    /// looseness reason when the check was skipped.
    pub outcome: TrapOutcome,
}

/// How one trap's check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapOutcome {
    /// Spec computed and matched.
    Clean,
    /// Spec computed; this many violations were recorded.
    Violated(usize),
    /// The loose specification skipped the check.
    Unchecked(String),
}

/// The oracle's counters: a private store of atomics, read as one
/// [`StatsSnapshot`] (see that type for what each counts). The two that
/// the front half bumps at every lock event and read-once sit on a cache
/// line apart from the ones the back half bumps at every trap, so in
/// pipelined mode the two threads do not trade a line per event.
#[derive(Debug, Default)]
struct Counters {
    front: CacheLine<FrontCounters>,
    traps_checked: AtomicU64,
    traps_unchecked: AtomicU64,
    interleaved_skips: AtomicU64,
    contained_panics: AtomicU64,
    quarantined_skips: AtomicU64,
    quarantine_recoveries: AtomicU64,
    violations_dropped: AtomicU64,
    degraded_traps: AtomicU64,
    budget_degraded_events: AtomicU64,
}

/// The counters the front half bumps at every event.
#[derive(Debug, Default)]
struct FrontCounters {
    abstractions: AtomicU64,
    read_onces: AtomicU64,
}

/// The single shared copy of the ghost state (§4.4 invariant 1), plus a
/// monotonic update stamp per component so concurrent traps can tell
/// whether a component moved underneath them while they ran.
struct SharedGhost {
    state: GhostState,
    versions: HashMap<Part, u64>,
    tick: u64,
    /// Incarnation id ([`pkvm_hyp::vm::Vm::uniq`]) of the VM whose state
    /// `state.vms[handle]` currently holds. Handles are slot-derived and
    /// reused after teardown, and `do_teardown_vm` releases the dying VM's
    /// lock *after* dropping the table lock, so without this a dead VM's
    /// final abstraction could overwrite (and later be compared against) a
    /// fresh VM that concurrently reused the handle.
    vm_uniq: HashMap<Handle, u64>,
}

impl SharedGhost {
    /// Records `value` into the shared copy and stamps the component.
    ///
    /// VM components are gated by incarnation: a recording from an older
    /// incarnation of a (reused) handle never lands on top of a newer
    /// one, and a release from a VM no longer in the recorded table (the
    /// tail of teardown) is dropped rather than resurrecting the dead
    /// VM's state. Recording the VM table prunes the state of every VM
    /// that left it.
    fn set(&mut self, value: &ComponentValue) {
        match value.part {
            Part::VmTable => {
                let vms = value.state.vm_table.as_deref().unwrap_or_default();
                let dead: Vec<Handle> = self
                    .state
                    .vms
                    .keys()
                    .copied()
                    .filter(|h| !vms.iter().any(|&(live, _)| live == *h))
                    .collect();
                for h in dead {
                    self.state.vms.remove(&h);
                    self.stamp(Part::Vm(h));
                }
                self.vm_uniq
                    .retain(|h, _| vms.iter().any(|&(live, _)| live == *h));
                for &(h, uniq) in &value.live {
                    if let Some(old) = self.vm_uniq.insert(h, uniq) {
                        if old != uniq && self.state.vms.remove(&h).is_some() {
                            // The stored state belonged to a previous
                            // incarnation of this handle; not comparable.
                            self.stamp(Part::Vm(h));
                        }
                    }
                }
            }
            Part::Vm(h) => {
                match self.vm_uniq.get(&h) {
                    Some(&stored) if stored > value.uniq => return,
                    None => {
                        let live = self
                            .state
                            .vm_table
                            .as_ref()
                            .is_none_or(|t| t.iter().any(|&(lh, _)| lh == h));
                        if !live {
                            // The tail of a teardown: the table no longer
                            // lists this VM, so its dying abstraction must
                            // not re-enter the shared copy.
                            return;
                        }
                    }
                    _ => {}
                }
                self.vm_uniq.insert(h, value.uniq);
            }
            _ => {}
        }
        self.stamp(value.part);
        self.state.copy_part(&value.state, value.part);
    }

    /// Bumps the stamp of `part` (every write to the shared copy does).
    fn stamp(&mut self, part: Part) {
        self.tick += 1;
        self.versions.insert(part, self.tick);
    }
}

/// The mutator-side mirror of one CPU's trap progress: everything the
/// *front half* of the hooks needs without waiting on the checker. The
/// check-side twin is [`CpuRecord`], which only the back half touches —
/// in pipelined mode the two live on different threads.
struct FrontRecord {
    in_trap: bool,
    /// Event-stream sequence id of the running trap's `TrapEnter`.
    trap_seq: Option<u64>,
    /// `(esr, x0-at-entry)` of the running trap, enough to name the trap
    /// at exit without the back half's call data. `None` mirrors "no
    /// recorded call data" (trap_enter was never delivered).
    call_mirror: Option<(Esr, u64)>,
    /// Lock events processed so far within this trap (the per-trap check
    /// budget's spend counter).
    events_this_trap: u64,
    /// The budget ran out mid-trap: remaining events degrade to evictions
    /// and the trap's check is skipped.
    degraded: bool,
}

/// The check-side recording of one CPU's trap (the paper's thread-local
/// pre/post states). Only the back half ([`Oracle::apply_msg`]) touches
/// it; whether a trap is running is the front half's call
/// ([`FrontRecord::in_trap`]), passed down in each message's `trap`.
struct CpuRecord {
    pre: GhostState,
    post: GhostState,
    /// The spec's computed post-state: scratch, reset before every check
    /// and emptied after it.
    computed: GhostState,
    call: Option<GhostCallData>,
    /// The shared copy's `tick` at trap entry. Stamps only grow, so a
    /// component has moved since entry exactly when its stamp exceeds
    /// this. Deferred seeding only lands on a component that has not
    /// moved (otherwise a concurrent trap's legitimate update would be
    /// overwritten with a stale expectation, and the next acquisition
    /// would report a spurious non-interference violation).
    tick_at_entry: u64,
    /// Shared-copy stamp left by this trap's most recent release of each
    /// component, so a re-acquisition can tell whether a *foreign* trap
    /// updated the component between two of this trap's own critical
    /// sections.
    last_release: HashMap<Part, u64>,
    /// Components a foreign trap updated between two of this trap's
    /// critical sections. The per-trap check pretends the handler ran
    /// atomically; for these components it did not, so their comparison
    /// is skipped (the ternary check's "unchecked" answer) instead of
    /// reporting a spurious mismatch.
    interleaved: HashSet<Part>,
    /// Event-stream sequence id of this trap's `TrapEnter`, so every
    /// event and violation produced inside the trap links back to it.
    trap_seq: Option<u64>,
}

/// The runtime test oracle; install as the machine's [`GhostHooks`].
pub struct Oracle {
    /// The initialisation-time constants, derived independently from the
    /// machine configuration (the spec's own view of the correct layout).
    pub globals: GhostGlobals,
    opts: OracleOpts,
    shared: Mutex<SharedGhost>,
    cpus: Vec<Mutex<CpuRecord>>,
    fronts: Vec<Mutex<FrontRecord>>,
    abscache: Mutex<AbsCache>,
    events: Arc<EventStream>,
    quarantine: Quarantine,
    /// `Some` in [`CheckMode::Pipelined`]: the sending half of the
    /// checker's bounded channel.
    pipeline: Option<Pipeline>,
    /// The back-half trackers `opts` switched on (back-half state, like
    /// the shared copy).
    trackers: Mutex<Vec<Box<dyn Tracker>>>,
    stats: Counters,
}

impl Oracle {
    /// Builds an oracle for machines booted from `config`.
    ///
    /// The globals are *derived from the configuration*, not copied from
    /// the booted machine: the oracle computes what a correct layout looks
    /// like, so layout bugs (real bug 5) surface at the boot check.
    pub fn new(config: &MachineConfig, opts: OracleOpts) -> Arc<Oracle> {
        let events = Arc::new(EventStream::new(false, opts.violation_cap));
        Oracle::with_stream(config, opts, events)
    }

    /// Like [`Oracle::new`], but recording into a caller-provided
    /// [`EventStream`] — the harness shares one stream between the proxy
    /// (driver events), the chaos engine (injections), and the oracle, so
    /// a whole campaign lands on one timeline.
    pub fn with_stream(
        config: &MachineConfig,
        opts: OracleOpts,
        events: Arc<EventStream>,
    ) -> Arc<Oracle> {
        let (last_base, last_size) = *config.dram.last().expect("config has DRAM");
        let ram_end = last_base + last_size;
        let pool_base_pfn = (ram_end - config.hyp_pool_pages * PAGE_SIZE) >> 12;
        let layout = compute_layout(PhysAddr::new(ram_end), false).expect("layout fits");
        let globals = GhostGlobals {
            nr_cpus: config.nr_cpus,
            physvirt_offset: layout.physvirt_offset,
            uart_va: layout.uart_va.bits(),
            hyp_range: (pool_base_pfn, config.hyp_pool_pages),
            ram: config.dram.clone(),
            mmio: config.mmio.clone(),
        };
        let shared = GhostState::blank(&globals);
        let (pipeline, checker_ends) = match opts.check_mode {
            CheckMode::Inline => (None, None),
            CheckMode::Pipelined { channel_cap } => {
                // Messages travel in batches (one per trap, or `flush`
                // messages, whichever comes first); the channel is sized
                // in batches so `channel_cap` keeps bounding the number
                // of in-flight *messages* at batch granularity. Drained
                // batches come back on a queue with room for every batch
                // that can be out at once (queued, being applied, being
                // filled), so none is dropped in steady state.
                let flush = channel_cap.clamp(1, 64);
                let batches = channel_cap.max(1).div_ceil(flush);
                let (tx, rx) = mpsc::sync_channel(batches);
                let (spare_tx, spare_rx) = mpsc::sync_channel(batches + 2);
                (
                    Some(Pipeline::new(tx, spare_rx, flush)),
                    Some((rx, spare_tx)),
                )
            }
        };
        let oracle = Arc::new(Oracle {
            cpus: (0..config.nr_cpus)
                .map(|_| {
                    Mutex::new(CpuRecord {
                        pre: GhostState::blank(&globals),
                        post: GhostState::blank(&globals),
                        computed: GhostState::blank(&globals),
                        call: None,
                        tick_at_entry: 0,
                        last_release: HashMap::new(),
                        interleaved: HashSet::new(),
                        trap_seq: None,
                    })
                })
                .collect(),
            fronts: (0..config.nr_cpus)
                .map(|_| {
                    Mutex::new(FrontRecord {
                        in_trap: false,
                        trap_seq: None,
                        call_mirror: None,
                        events_this_trap: 0,
                        degraded: false,
                    })
                })
                .collect(),
            globals,
            opts,
            shared: Mutex::new(SharedGhost {
                state: shared,
                versions: HashMap::new(),
                tick: 0,
                vm_uniq: HashMap::new(),
            }),
            abscache: Mutex::new(AbsCache::new()),
            events,
            quarantine: Quarantine::new(opts.quarantine_threshold, opts.quarantine_traps),
            pipeline,
            trackers: Mutex::new(trackers(&opts)),
            stats: Counters::default(),
        });
        if let Some((rx, spare)) = checker_ends {
            // The thread holds only a weak reference: dropping the last
            // external handle drops the sender, disconnects the channel,
            // and the thread exits.
            let weak = Arc::downgrade(&oracle);
            std::thread::Builder::new()
                .name("ghost-checker".into())
                .spawn(move || checker_loop(weak, rx, spare))
                .expect("spawn checker thread");
        }
        oracle
    }

    /// A [`Checker`] handle over this oracle (explicit synchronisation,
    /// the check frontier).
    pub fn checker(self: &Arc<Self>) -> Checker {
        Checker::new(self.clone())
    }

    /// A [`Verdict`] handle over this oracle: `wait()` then read the
    /// violations and stats, instead of scraping the atomics directly.
    pub fn verdict(self: &Arc<Self>) -> Verdict {
        Verdict::new(self.clone())
    }

    /// Blocks until every hook event emitted so far has been checked.
    /// A no-op in [`CheckMode::Inline`].
    pub fn barrier(&self) {
        if let Some(p) = &self.pipeline {
            p.barrier();
        }
    }

    /// (sent, applied) checker-message counts; `(0, 0)` inline.
    pub(crate) fn frontier(&self) -> (u64, u64) {
        self.pipeline.as_ref().map_or((0, 0), |p| p.frontier())
    }

    /// A coherent plain-value snapshot of the counters. In pipelined mode
    /// call [`Oracle::barrier`] (or go through [`Verdict`]) first, or the
    /// snapshot can straddle the check frontier.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            traps_checked: s.traps_checked.load(Ordering::Relaxed),
            traps_unchecked: s.traps_unchecked.load(Ordering::Relaxed),
            abstractions: s.front.abstractions.load(Ordering::Relaxed),
            read_onces: s.front.read_onces.load(Ordering::Relaxed),
            interleaved_skips: s.interleaved_skips.load(Ordering::Relaxed),
            contained_panics: s.contained_panics.load(Ordering::Relaxed),
            quarantined_skips: s.quarantined_skips.load(Ordering::Relaxed),
            quarantine_recoveries: s.quarantine_recoveries.load(Ordering::Relaxed),
            violations_dropped: s.violations_dropped.load(Ordering::Relaxed),
            degraded_traps: s.degraded_traps.load(Ordering::Relaxed),
            budget_degraded_events: s.budget_degraded_events.load(Ordering::Relaxed),
        }
    }

    /// Hands one back-half message to the check core: applied on the
    /// spot inline, queued to the checker thread pipelined. Either way it
    /// is applied by [`Oracle::apply_counted`], in message order.
    fn dispatch(&self, msg: CheckMsg) {
        match &self.pipeline {
            None => self.apply_counted(msg),
            Some(p) => p.send(msg),
        }
    }

    /// The back half's one entry, in both modes: applies `msg` under a
    /// containment net keyed by the hook that sent it. A panicking step
    /// becomes a failure of that key ([`Oracle::fail`]), never a dead
    /// checker thread or an unwind into the hypervisor, and a clean apply
    /// is a success of it. Pipelined, it also advances the applied counter.
    pub(crate) fn apply_counted(&self, msg: CheckMsg) {
        use QuarantineKey::{Hook, Part};
        // The key, and whether applying the message runs that key's step:
        // a budget eviction skips its component's, and a front-half panic
        // is its failure.
        let (key, step) = match &msg {
            CheckMsg::Barrier(gate) => {
                if let Some(p) = &self.pipeline {
                    p.note_applied();
                }
                let (lock, cvar) = &**gate;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
                cvar.notify_all();
                return;
            }
            CheckMsg::TrapEnter { .. } => (Hook("trap_enter"), true),
            CheckMsg::TrapExit { .. } => (Hook("trap_exit"), true),
            CheckMsg::LockAcquired { value, .. } | CheckMsg::LockReleasing { value, .. } => {
                (Part(value.part), true)
            }
            CheckMsg::Evict { part, .. } => (Part(*part), false),
            CheckMsg::ReadOnce { .. } => (Hook("read_once"), true),
            CheckMsg::Observe { event, .. } => (Hook(observer(event)), true),
            CheckMsg::Report { .. } => (Hook("checker"), true),
            CheckMsg::Panic { key, .. } => (*key, false),
        };
        let res = contain(|| self.apply_msg(msg));
        if let Some(p) = &self.pipeline {
            p.note_applied();
        }
        match res {
            Ok(()) if step => self.quarantine.record_success(key),
            Ok(()) => {}
            Err(payload) => self.fail(0, None, key, payload),
        }
    }

    /// One contained panic of `key`'s step: counted, struck against
    /// `key`'s quarantine record, and reported at `cpu`/`trap` as a
    /// [`Violation::OracleInternal`].
    fn fail(&self, cpu: usize, trap: Option<u64>, key: QuarantineKey, payload: String) {
        self.stats.contained_panics.fetch_add(1, Ordering::Relaxed);
        self.quarantine.record_failure(key);
        self.report_at(
            cpu,
            trap,
            Violation::OracleInternal {
                seq: None,
                component: key.to_string(),
                payload,
            },
        );
    }

    /// Resolution counters of the incremental abstraction cache (all zero
    /// when both `incremental_abstraction` and `shadow_validation` are
    /// off).
    pub fn cache_stats(&self) -> CacheStats {
        self.abscache.lock().stats
    }

    /// The event stream this oracle records into.
    pub fn events(&self) -> &Arc<EventStream> {
        &self.events
    }

    /// All violations recorded so far (served from the event stream's
    /// bounded log).
    pub fn violations(&self) -> Vec<Violation> {
        self.events.violations()
    }

    /// Number of violations recorded so far, without cloning the reports.
    /// A single relaxed atomic load: cheap enough for worker threads of a
    /// random-testing campaign to poll every few steps.
    pub fn violation_count(&self) -> u64 {
        self.events.violation_count()
    }

    /// Returns `true` if no violations have been recorded.
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Drops all recorded violations (between test cases). Synchronises
    /// with the checker first, so a pending report from the cleared era
    /// cannot land after the clear.
    pub fn clear_violations(&self) {
        self.barrier();
        self.events.clear_violations();
    }

    /// The most recent checked traps (bounded; newest last; served from
    /// the event stream's check ring).
    pub fn trace(&self) -> Vec<TrapRecord> {
        self.events.trap_records()
    }

    fn push_trace(&self, trap: Option<u64>, rec: TrapRecord) {
        self.events.emit(
            rec.cpu as u32,
            trap,
            Event::Check {
                cpu: rec.cpu,
                name: rec.name,
                outcome: rec.outcome,
            },
        );
    }

    fn report(&self, v: Violation) {
        self.report_all_at(0, None, vec![v]);
    }

    fn report_at(&self, cpu: usize, trap: Option<u64>, v: Violation) {
        self.report_all_at(cpu, trap, vec![v]);
    }

    fn report_all_at(&self, cpu: usize, trap: Option<u64>, new: Vec<Violation>) {
        for v in new {
            if !self.events.violation(cpu as u32, trap, v) {
                self.stats
                    .violations_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Runs the front half `f` of a hook at `cpu`/`trap` with panics
    /// contained: a panic travels to the back half as one
    /// [`CheckMsg::Panic`] of `key`, never an unwind into the hypervisor.
    /// It lands in message order, like the messages `f` dispatches, so
    /// the back half's quarantine records and the derived sequence
    /// numbering are identical in both check modes.
    fn guarded(&self, cpu: usize, trap: Option<u64>, key: QuarantineKey, f: impl FnOnce()) {
        if let Err(payload) = contain(f) {
            self.dispatch(CheckMsg::Panic {
                cpu,
                trap,
                key,
                payload,
            });
        }
    }

    /// Sequence id of the trap currently executing on `cpu`, if any
    /// (front-half knowledge: the mutator is the one inside the trap).
    fn current_trap(&self, cpu: usize) -> Option<u64> {
        let front = self.fronts[cpu].lock();
        if front.in_trap {
            front.trap_seq
        } else {
            None
        }
    }

    /// The front half of every observation hook, contained under the
    /// hook's key: records `event` into the stream and hands the back half
    /// the same event under the seq it was recorded at (the anchor its
    /// trackers' violations carry).
    fn observe(&self, cpu: usize, event: Event) {
        let trap = self.current_trap(cpu);
        let key = QuarantineKey::Hook(observer(&event));
        self.guarded(cpu, trap, key, || {
            let seq = self.events.emit(cpu as u32, trap, event.clone());
            self.dispatch(CheckMsg::Observe {
                cpu,
                trap,
                seq,
                event,
            });
        });
    }

    /// The front half of both lock hooks: records the event, gates it on
    /// the per-trap budget, then abstracts the component while its lock
    /// is held. Quarantine is the back half's call ([`Oracle::admit`]).
    fn lock_event(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView, acquired: bool) {
        let cpu = ctx.cpu;
        let trap = self.current_trap(cpu);
        let event = if acquired {
            Event::LockAcquired { cpu, comp }
        } else {
            Event::LockReleasing { cpu, comp }
        };
        self.events.emit(cpu as u32, trap, event);
        let part = Part::from(comp);
        if self.budget_exhausted(cpu) {
            self.stats
                .budget_degraded_events
                .fetch_add(1, Ordering::Relaxed);
            self.dispatch(CheckMsg::Evict { cpu, trap, part });
            return;
        }
        self.guarded(cpu, trap, QuarantineKey::Part(part), || {
            // The cache's lock spans the dispatch as well as the serve, so
            // lock events that use the cache reach the back half in the
            // order the cache served them, and inline their back halves
            // run one at a time. A value does not need that order: it
            // travels whole. The span is kept because it fixes how the
            // lock events of concurrent CPUs interleave with each other.
            let mut cache = self.opts.uses_cache().then(|| self.abscache.lock());
            let (value, reports) = self.abstract_component(ctx, view, comp, cache.as_deref_mut());
            self.dispatch(if acquired {
                CheckMsg::LockAcquired {
                    cpu,
                    trap,
                    value,
                    reports,
                }
            } else {
                CheckMsg::LockReleasing {
                    cpu,
                    trap,
                    value,
                    reports,
                }
            });
        });
    }

    /// Degrades one lock event: instead of recording the component, its
    /// entry is evicted from the shared copy (and stamped), so nothing
    /// stale is ever compared later. Used when the component is
    /// quarantined or the per-trap budget ran out — the cheap-but-safe
    /// fallback.
    fn evict_shared(&self, part: Part) {
        let mut shared = self.shared.lock();
        // Copying from the empty state removes the part.
        shared.state.copy_part(&GhostState::default(), part);
        shared.stamp(part);
    }

    /// Accounts one lock event against the per-trap check budget. `true`
    /// means the budget is spent: the caller must degrade this event.
    fn budget_exhausted(&self, cpu: usize) -> bool {
        let mut front = self.fronts[cpu].lock();
        if !front.in_trap {
            return false;
        }
        front.events_this_trap += 1;
        if front.events_this_trap > self.opts.trap_check_budget {
            front.degraded = true;
            true
        } else {
            false
        }
    }

    /// Number of components (or spec steps) currently quarantined: back
    /// half state, so in pipelined mode call [`Oracle::barrier`] (or go
    /// through [`Verdict`]) first.
    pub fn quarantined(&self) -> usize {
        self.quarantine.active()
    }

    /// Approximate resident size of the ghost state, in bytes (for the
    /// paper's memory-impact measurement).
    pub fn approx_ghost_bytes(&self) -> usize {
        fn state_bytes(s: &GhostState) -> usize {
            let mapping = |m: &Mapping| m.len() * core::mem::size_of::<Maplet>();
            let mut n = core::mem::size_of::<GhostState>();
            if let Some(h) = &s.host {
                n += mapping(&h.annot) + mapping(&h.shared) + h.table_pages.len() * 8;
            }
            if let Some(p) = &s.pkvm {
                n += mapping(&p.pgt.mapping) + p.pgt.table_pages.len() * 8;
            }
            for vm in s.vms.values() {
                n += mapping(&vm.pgt.mapping) + vm.pgt.table_pages.len() * 8;
                n += vm.vcpus.len() * core::mem::size_of::<crate::state::GhostVcpu>();
            }
            n += s.locals.len() * core::mem::size_of::<GhostCpu>();
            n
        }
        let mut total = state_bytes(&self.shared.lock().state);
        for c in &self.cpus {
            let rec = c.lock();
            total += state_bytes(&rec.pre) + state_bytes(&rec.post);
        }
        total
    }

    /// The component abstraction function: dispatches on the view the
    /// lock helper provided. Runs on the mutator thread — the one oracle
    /// step that *must* happen under the component's lock — serving the
    /// tables from `cache` when there is one. Anomalies and shadow
    /// divergences are returned (in occurrence order) rather than
    /// reported, so the back half can report them in checker order.
    fn abstract_component(
        &self,
        ctx: &HookCtx<'_>,
        view: &ComponentView,
        comp: Component,
        cache: Option<&mut AbsCache>,
    ) -> (ComponentValue, Vec<Violation>) {
        self.stats
            .front
            .abstractions
            .fetch_add(1, Ordering::Relaxed);
        let mut anomalies = Vec::new();
        let mut reports = Vec::new();
        let mut state = GhostState::default();
        let (mut uniq, mut live) = (0, Vec::new());
        let part = match view {
            ComponentView::Host { root } => {
                state.host = Some(match cache {
                    Some(cache) => self.serve(
                        Component::Host,
                        &mut anomalies,
                        &mut reports,
                        |a| cache.host(ctx.mem, *root, &self.globals, a),
                        |a| abstract_host(ctx.mem, *root, &self.globals, a),
                    ),
                    None => abstract_host(ctx.mem, *root, &self.globals, &mut anomalies),
                });
                Part::Host
            }
            ComponentView::Hyp { root } => {
                state.pkvm = Some(match cache {
                    Some(cache) => {
                        let key = Component::Hyp;
                        let pgt = self.serve(
                            key,
                            &mut anomalies,
                            &mut reports,
                            |a| cache.interp(ctx.mem, Stage::Stage1, *root, key, a),
                            |a| interpret_pgtable(ctx.mem, Stage::Stage1, *root, a),
                        );
                        GhostPkvm { pgt }
                    }
                    None => abstract_hyp(ctx.mem, *root, &mut anomalies),
                });
                Part::Pkvm
            }
            ComponentView::VmTable { vms, uniqs } => {
                let mut v = vms.clone();
                v.sort_unstable();
                let mut u = uniqs.clone();
                u.sort_unstable();
                if let Some(cache) = cache {
                    // VM teardown is observed here: drop the interpretation
                    // of any handle no longer in the table, so a reused
                    // handle never resurrects a stale entry.
                    cache.retain_vms(|h| v.iter().any(|&(live, _)| live == h));
                }
                state.vm_table = Some(v);
                live = u;
                Part::VmTable
            }
            ComponentView::Vm(view) => {
                let vm = match cache {
                    Some(cache) => {
                        let (key, root) = (Component::Vm(view.handle), view.s2_root);
                        let pgt = self.serve(
                            key,
                            &mut anomalies,
                            &mut reports,
                            |a| cache.interp(ctx.mem, Stage::Stage2, root, key, a),
                            |a| interpret_pgtable(ctx.mem, Stage::Stage2, root, a),
                        );
                        abstract_vm_with_pgt(view, pgt)
                    }
                    None => abstract_vm(ctx.mem, view, &mut anomalies),
                };
                state.vms.insert(view.handle, vm);
                uniq = view.uniq;
                Part::Vm(view.handle)
            }
        };
        if !anomalies.is_empty() {
            let context = format!("{comp:?}");
            reports.extend(
                anomalies
                    .into_iter()
                    .map(|a| Violation::AbstractionAnomaly {
                        seq: None,
                        context: context.clone(),
                        anomaly: a,
                    }),
            );
        }
        let value = ComponentValue {
            part,
            state,
            uniq,
            live,
        };
        (value, reports)
    }

    /// Serves one abstraction of `key` through the cache (`incremental`).
    /// Under shadow validation the full walk (`full`) also runs, and the
    /// served value and anomalies must equal the full walk's: any
    /// difference is collected into `reports` as one
    /// [`Violation::ShadowDivergence`], and the full walk's value and
    /// anomalies are the ones used. So a cache bug can never mask (or
    /// fabricate) a hypervisor bug.
    fn serve<T: Cached>(
        &self,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
        reports: &mut Vec<Violation>,
        incremental: impl FnOnce(&mut Vec<Anomaly>) -> T,
        full: impl FnOnce(&mut Vec<Anomaly>) -> T,
    ) -> T {
        if !self.opts.shadow_validation {
            return incremental(anomalies);
        }
        let mut inc_anomalies = Vec::new();
        let served = incremental(&mut inc_anomalies);
        let before = anomalies.len();
        let full = full(anomalies);
        let full_anomalies = &anomalies[before..];
        if served != full || inc_anomalies != full_anomalies {
            let mut diff = T::divergence(&full, &served);
            if inc_anomalies != full_anomalies {
                diff.push_str(&format!(
                    "  anomalies: full {full_anomalies:?} vs incremental {inc_anomalies:?}\n"
                ));
            }
            reports.push(Violation::ShadowDivergence {
                seq: None,
                component: format!("{key:?}"),
                diff,
            });
        }
        full
    }

    /// The §4.4 non-interference check at an acquisition: the part must
    /// equal its shared copy, last recorded when its lock was released.
    fn noninterference_check(&self, cpu: usize, trap: Option<u64>, value: &ComponentValue) {
        if !self.opts.check_noninterference {
            return;
        }
        let part = value.part;
        let guard = self.shared.lock();
        if let Part::Vm(h) = part {
            if guard
                .vm_uniq
                .get(&h)
                .is_some_and(|&stored| stored != value.uniq)
            {
                // The stored state belongs to a different incarnation of
                // this (reused) handle; nothing comparable.
                return;
            }
        }
        if !guard.state.has(part) || part_eq(&guard.state, &value.state, part) {
            return;
        }
        let prev = project(&guard.state, part);
        drop(guard);
        let now = project(&value.state, part);
        self.report_at(
            cpu,
            trap,
            Violation::NonInterference {
                seq: None,
                component: part.to_string(),
                uniq: matches!(part, Part::Vm(_)).then_some(value.uniq),
                diff: diff_states(&prev, &now),
            },
        );
    }

    /// Names a trap from its syndrome and `x0` at entry — exactly the
    /// two values [`FrontRecord::call_mirror`] carries, so the front half
    /// can name the trap without the back half's call data.
    fn trap_name_of(esr: Esr, x0: u64) -> &'static str {
        match esr.ec() {
            Some(pkvm_aarch64::esr::ExceptionClass::Hvc64) => hypercalls::name(x0),
            Some(pkvm_aarch64::esr::ExceptionClass::Smc64) => "smc",
            Some(_) => "host_abort",
            None => "unknown",
        }
    }

    /// The ghost of the vCPU loaded on a CPU, boxed for its trip to the
    /// back half (most traps have none).
    fn loaded_vcpu(loaded: &Option<(Handle, usize, VcpuView)>) -> Option<Box<GhostLoadedVcpu>> {
        loaded.as_ref().map(|(h, i, v)| {
            Box::new(GhostLoadedVcpu {
                handle: *h,
                idx: *i,
                regs: v.regs,
                memcache: v.memcache_pages.iter().map(|p| p.pfn()).collect(),
            })
        })
    }

    /// The specification of the boot-time initial state: carveout
    /// annotated hyp-owned in the host table; carveout linear-mapped and
    /// the UART device-mapped in pKVM's table; no VMs.
    pub fn spec_boot_state(&self) -> GhostState {
        let g = &self.globals;
        let (pool_pfn, pool_pages) = g.hyp_range;
        let pool_base = pool_pfn << 12;
        let mut s = GhostState::blank(g);
        let mut host = GhostHost::default();
        host.annot.insert_new(Maplet {
            ia: pool_base,
            nr_pages: pool_pages,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        s.host = Some(host);
        let mut pkvm = GhostPkvm::default();
        pkvm.pgt.mapping.insert_new(Maplet {
            ia: g.hyp_va(pool_base),
            nr_pages: pool_pages,
            target: MapletTarget::Mapped {
                oa: pool_base,
                attrs: abs_hyp_attrs(true, PageState::Owned),
            },
        });
        if let Some(&(uart_base, _)) = g.mmio.first() {
            pkvm.pgt.mapping.insert_new(Maplet {
                ia: g.uart_va,
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: uart_base,
                    attrs: abs_hyp_attrs(false, PageState::Owned),
                },
            });
        }
        s.pkvm = Some(pkvm);
        s.vm_table = Some(Vec::new());
        s
    }

    /// Checks the recorded post-boot state against [`Oracle::spec_boot_state`].
    /// Call once after `Machine::boot`. Returns `true` when it matched.
    pub fn check_boot(&self) -> bool {
        // Boot's lock events flow through the pipeline like any others;
        // the shared copy is only complete behind the check frontier.
        self.barrier();
        let expected = normalize(&self.spec_boot_state());
        let recorded = normalize(&self.shared.lock().state.clone());
        let mut ok = true;
        for part in [Part::Host, Part::Pkvm] {
            if expected.has(part) && !recorded.has(part) {
                self.report(Violation::SpecMismatch {
                    seq: None,
                    trap: "boot".into(),
                    component: part.to_string(),
                    uniq: None,
                    diff: "component never recorded during boot".into(),
                });
                ok = false;
            }
        }
        let mut exp_cmp = expected.clone();
        exp_cmp.vm_table = None; // the VM table lock is not taken at boot
        let mut rec_cmp = recorded.clone();
        rec_cmp.vm_table = None;
        if exp_cmp.host.is_some() && rec_cmp.host.is_some() && exp_cmp != rec_cmp {
            self.report(Violation::SpecMismatch {
                seq: None,
                trap: "boot".into(),
                component: "initial state".into(),
                uniq: None,
                diff: diff_states(&exp_cmp, &rec_cmp),
            });
            ok = false;
        }
        ok
    }

    /// Seeds the parts of `computed` that `deferred` names — defined by
    /// the spec but never recorded — into the shared copy after a checked
    /// trap, so the *next* acquisition validates them. Seeding runs
    /// without the component's lock, so a computed value only lands if the
    /// component has not moved since this trap entered — otherwise a
    /// concurrent trap's legitimate update would be overwritten with a
    /// stale expectation and the next acquisition would report a spurious
    /// non-interference violation. A component has moved exactly when its
    /// stamp exceeds `tick_at_entry`, the shared copy's `tick` at entry.
    /// Locals have no shared copy.
    fn seed_deferred(&self, deferred: &[Part], computed: &GhostState, tick_at_entry: u64) {
        let mut shared = self.shared.lock();
        for &part in deferred {
            if matches!(part, Part::Locals(_))
                || shared
                    .versions
                    .get(&part)
                    .is_some_and(|&v| v > tick_at_entry)
            {
                continue;
            }
            shared.state.copy_part(computed, part);
            shared.stamp(part);
        }
    }
}

/// Renders what differed between the full walk and the cache, maplet by
/// maplet over each named pair of mappings, then the table footprints,
/// for the shadow-divergence report.
fn divergence(
    maps: &[(&str, &Mapping, &Mapping)],
    full_pages: &BTreeSet<u64>,
    inc_pages: &BTreeSet<u64>,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (what, full, inc) in maps {
        for m in full.iter().filter(|m| !inc.iter().any(|n| n == *m)) {
            let _ = writeln!(out, "  full only: {what}{m:?}");
        }
        for m in inc.iter().filter(|m| !full.iter().any(|n| n == *m)) {
            let _ = writeln!(out, "  incremental only: {what}{m:?}");
        }
    }
    if full_pages != inc_pages {
        let _ = writeln!(
            out,
            "  table pages: full {full_pages:?} vs incremental {inc_pages:?}"
        );
    }
    out
}

/// What the cache serves for a component: the host's partition, or the
/// interpretation of pKVM's or a VM's table.
trait Cached: PartialEq {
    /// What differs between the full walk's value and the served one, for
    /// the shadow-divergence report ([`divergence`]).
    fn divergence(full: &Self, served: &Self) -> String;
}

impl Cached for GhostHost {
    fn divergence(full: &GhostHost, served: &GhostHost) -> String {
        divergence(
            &[
                ("annot ", &full.annot, &served.annot),
                ("shared ", &full.shared, &served.shared),
            ],
            &full.table_pages,
            &served.table_pages,
        )
    }
}

impl Cached for AbstractPgtable {
    fn divergence(full: &AbstractPgtable, served: &AbstractPgtable) -> String {
        divergence(
            &[("", &full.mapping, &served.mapping)],
            &full.table_pages,
            &served.table_pages,
        )
    }
}

/// The hook that records `event`, which keys its containment: an
/// observation hook's name.
fn observer(event: &Event) -> &'static str {
    match event {
        Event::TablePageAlloc { .. } => "table_page_alloc",
        Event::TablePageFree { .. } => "table_page_free",
        Event::PteDowngrade { .. } => "pte_downgrade",
        Event::Tlbi { .. } => "tlbi",
        Event::Dsb { .. } => "dsb",
        Event::Transfer { .. } => "transfer",
        Event::FirmwareDonate { .. } => "firmware_donated",
        Event::HostRegain { .. } => "host_regain",
        _ => "checker",
    }
}

/// One component's abstraction, as recorded at a lock event. Computed by
/// the front half under the component's lock, consumed by the back half.
pub(crate) struct ComponentValue {
    /// Which component it is.
    part: Part,
    /// A state holding only that component. A value the cache served
    /// shares its mappings and table footprint with the cache's copy.
    state: GhostState,
    /// The VM's incarnation id ([`pkvm_hyp::vm::Vm::uniq`]), for a VM.
    uniq: u64,
    /// (handle, incarnation id) of every live VM, for the VM table, so the
    /// shared copy can detect handle reuse across a teardown.
    live: Vec<(Handle, u64)>,
}

impl Oracle {
    /// The spec+check phase of `trap_exit` (runs contained). Reads the
    /// trap's recordings and reports through the bounded log; of `rec` it
    /// writes only the scratch `computed`, which it resets before use, so
    /// a contained panic leaves no half-written record.
    fn spec_and_check(
        &self,
        cpu: usize,
        rec: &mut CpuRecord,
        call: &GhostCallData,
        name: &'static str,
    ) {
        let CpuRecord {
            pre,
            post,
            computed,
            interleaved,
            trap_seq,
            tick_at_entry,
            ..
        } = rec;
        // (7) Compute the expected post-state from the pre-state and the
        // call data, then (8) compare.
        computed.clear_parts();
        match compute_post(pre, call, computed) {
            SpecVerdict::Checked => {
                self.stats.traps_checked.fetch_add(1, Ordering::Relaxed);
                let outcome = check_trap(name, pre, post, computed);
                let mut violations = Vec::new();
                for (part, mut v) in outcome.violations {
                    if interleaved.contains(&part) {
                        // Foreign traps updated this component between two
                        // of our critical sections; its recorded post is
                        // not "pre plus this handler's effect", so comparing
                        // it is meaningless. Drop the finding (counted, so a
                        // campaign can see how often the check degraded).
                        self.stats.interleaved_skips.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if let Part::Vm(h) = part {
                        // Name the VM incarnation the report is about.
                        if let Some(&u) = self.shared.lock().vm_uniq.get(&h) {
                            v.set_vm_uniq(u);
                        }
                    }
                    violations.push(v);
                }
                self.push_trace(
                    *trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.into(),
                        outcome: if violations.is_empty() {
                            TrapOutcome::Clean
                        } else {
                            TrapOutcome::Violated(violations.len())
                        },
                    },
                );
                if !violations.is_empty() {
                    self.report_all_at(cpu, *trap_seq, violations);
                }
                // Seed spec-defined but never-recorded components into the
                // shared copy: the next acquisition validates them.
                if !outcome.deferred.is_empty() {
                    self.seed_deferred(&outcome.deferred, computed, *tick_at_entry);
                }
            }
            SpecVerdict::Unchecked(why) => {
                self.stats.traps_unchecked.fetch_add(1, Ordering::Relaxed);
                self.push_trace(
                    *trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.into(),
                        outcome: TrapOutcome::Unchecked(why.into()),
                    },
                );
                // Loose case: the shared copy was already updated at the
                // lock releases.
            }
            SpecVerdict::Impossible(reason) => {
                self.push_trace(
                    *trap_seq,
                    TrapRecord {
                        cpu,
                        name: name.into(),
                        outcome: TrapOutcome::Violated(1),
                    },
                );
                self.report_at(
                    cpu,
                    *trap_seq,
                    Violation::SpecMismatch {
                        seq: None,
                        trap: name.to_string(),
                        component: "spec-detected impossibility".into(),
                        uniq: None,
                        diff: reason,
                    },
                );
            }
        }
        // Kept until the next check, its copies would hold on to storage
        // the rest of the oracle has moved past (0.5 MB more peak memory
        // replaying a 10k-step trace).
        computed.clear_parts();
    }

    /// The back half: applies one [`CheckMsg`] to the ghost copy and runs
    /// the checks it triggers, under [`Oracle::apply_counted`]'s net: on
    /// the hook's thread in [`CheckMode::Inline`], on the checker thread
    /// pipelined.
    pub(crate) fn apply_msg(&self, msg: CheckMsg) {
        match msg {
            CheckMsg::TrapEnter {
                cpu,
                seq,
                esr,
                fault_ipa,
                regs,
                loaded,
            } => self.apply_trap_enter(cpu, seq, esr, fault_ipa, regs, loaded),
            CheckMsg::TrapExit {
                cpu,
                trap,
                name,
                regs,
                loaded,
                degraded,
            } => self.apply_trap_exit(cpu, trap, name, regs, loaded, degraded),
            CheckMsg::LockAcquired {
                cpu,
                trap,
                value,
                reports,
            } => self.apply_lock(cpu, trap, value, reports, true),
            CheckMsg::LockReleasing {
                cpu,
                trap,
                value,
                reports,
            } => self.apply_lock(cpu, trap, value, reports, false),
            CheckMsg::Evict { cpu, trap, part } => {
                // Past the budget, a lock event still takes its component's
                // quarantine decision, which evicts a benched one itself.
                if self.admit(cpu, trap, part) != Disposition::Skip {
                    self.evict_shared(part);
                }
            }
            CheckMsg::ReadOnce { cpu, tag, value } => {
                if let Some(call) = self.cpus[cpu].lock().call.as_mut() {
                    call.read_onces.push((tag, value));
                }
            }
            CheckMsg::Observe {
                cpu,
                trap,
                seq,
                event,
            } => {
                if let Event::Transfer { edge, .. } = event {
                    crate::spec::SPEC_COV.hit(transfer_point(edge));
                }
                self.track(cpu, trap, |t| t.observe(seq, &event));
            }
            CheckMsg::Report {
                cpu,
                trap,
                violations,
            } => self.report_all_at(cpu, trap, violations),
            CheckMsg::Panic {
                cpu,
                trap,
                key,
                payload,
            } => {
                // A benched component's panic is one more skipped event.
                if let QuarantineKey::Part(part) = key {
                    if self.admit(cpu, trap, part) == Disposition::Skip {
                        return;
                    }
                }
                self.fail(0, None, key, payload);
            }
            // Barriers are handled in `apply_counted` (outside the
            // containment net, so the poster can never hang); inline mode
            // never dispatches one.
            CheckMsg::Barrier(_) => {}
        }
    }

    /// The quarantine decision for one lock event of `part`, taken in
    /// message order. A benched component is evicted from the shared copy
    /// (and stamped), so nothing stale is compared later, and the running
    /// trap's check ignores it; the skip, or the recovery that ends the
    /// bench, is counted.
    fn admit(&self, cpu: usize, trap: Option<u64>, part: Part) -> Disposition {
        let disposition = self.quarantine.disposition(QuarantineKey::Part(part));
        match disposition {
            Disposition::Skip => {
                self.stats.quarantined_skips.fetch_add(1, Ordering::Relaxed);
                self.evict_shared(part);
                if trap.is_some() {
                    self.cpus[cpu].lock().interleaved.insert(part);
                }
            }
            Disposition::Recover => {
                self.stats
                    .quarantine_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Process => {}
        }
        disposition
    }

    /// Back half of both lock hooks: records the component's value into
    /// the shared copy and the running trap's pre- (`acquired`) or
    /// post-state, after its quarantine decision. A benched component's
    /// value is discarded with its reports. Recovery re-seeds the
    /// shared copy from this full abstraction: the component's state while
    /// benched is unknown, so an acquisition skips the non-interference
    /// comparison exactly once; a release *is* such a pass.
    fn apply_lock(
        &self,
        cpu: usize,
        trap: Option<u64>,
        value: ComponentValue,
        reports: Vec<Violation>,
        acquired: bool,
    ) {
        let part = value.part;
        let disposition = self.admit(cpu, trap, part);
        if disposition == Disposition::Skip {
            return;
        }
        if !reports.is_empty() {
            self.report_all_at(cpu, trap, reports);
        }
        self.track_host(cpu, trap, &value);
        if !acquired {
            let version = {
                let mut shared = self.shared.lock();
                shared.set(&value);
                shared.versions.get(&part).copied()
            };
            let mut rec = self.cpus[cpu].lock();
            if trap.is_some() {
                // Last release within the trap defines the post-state.
                rec.post.copy_part(&value.state, part);
                if let Some(v) = version {
                    rec.last_release.insert(part, v);
                }
            }
            return;
        }
        if disposition == Disposition::Process {
            self.noninterference_check(cpu, trap, &value);
        }
        // Safe to read outside the rec lock: the mutator holds the
        // component's lock across this message, so no foreign trap can
        // stamp this component right now.
        let version = self.shared.lock().versions.get(&part).copied();
        let mut rec = self.cpus[cpu].lock();
        if trap.is_some() {
            // A re-acquisition after one of our own releases: if the stamp
            // moved in between, a foreign trap updated the component and
            // the atomic per-trap check no longer applies to it.
            if let Some(&last) = rec.last_release.get(&part) {
                if version != Some(last) {
                    rec.interleaved.insert(part);
                }
            }
            // First acquisition within the trap defines the pre-state.
            if !rec.pre.has(part) {
                rec.pre.copy_part(&value.state, part);
            }
        } else {
            drop(rec);
            self.shared.lock().set(&value);
        }
    }

    /// Runs `f` over every tracker, in list order, and reports what they
    /// found as one batch.
    fn track(
        &self,
        cpu: usize,
        trap: Option<u64>,
        mut f: impl FnMut(&mut dyn Tracker) -> Vec<Violation>,
    ) {
        let violations: Vec<Violation> = self
            .trackers
            .lock()
            .iter_mut()
            .flat_map(|t| f(t.as_mut()))
            .collect();
        if !violations.is_empty() {
            self.report_all_at(cpu, trap, violations);
        }
    }

    /// Shows every freshly abstracted host component to the trackers
    /// (the firmware-protection backstop).
    fn track_host(&self, cpu: usize, trap: Option<u64>, value: &ComponentValue) {
        if let Some(h) = &value.state.host {
            self.track(cpu, trap, |t| t.host(h));
        }
    }

    /// Back half of `trap_enter`: tick the quarantine's trap clock, then
    /// reset the per-CPU recording in place. The shared copy's tick is
    /// read here, at apply time — in pipelined mode that is the correct
    /// point, because every shared-copy mutation also happens at apply
    /// time, in message order.
    fn apply_trap_enter(
        &self,
        cpu: usize,
        seq: u64,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: GprFile,
        loaded: Option<Box<GhostLoadedVcpu>>,
    ) {
        self.quarantine.tick();
        let tick = self.shared.lock().tick;
        let mut rec = self.cpus[cpu].lock();
        rec.pre.clear_parts();
        rec.post.clear_parts();
        rec.call = Some(GhostCallData::new(cpu, esr, fault_ipa, regs));
        rec.tick_at_entry = tick;
        rec.last_release.clear();
        rec.interleaved.clear();
        rec.trap_seq = Some(seq);
        let loaded = loaded.map(|l| *l);
        rec.pre.locals.insert(cpu, GhostCpu { regs, loaded });
    }

    /// Back half of `trap_exit`: finish the recording, then run the
    /// ternary check, whose spec step has a containment net and a
    /// quarantine record of its own.
    fn apply_trap_exit(
        &self,
        cpu: usize,
        trap: Option<u64>,
        name: &'static str,
        regs: GprFile,
        loaded: Option<Box<GhostLoadedVcpu>>,
        degraded: bool,
    ) {
        // The trackers settle first, before any of the skip paths below
        // (break-before-make drains its per-CPU ledger here).
        self.track(cpu, trap, |t| t.trap_exit(cpu, name));
        let mut rec = self.cpus[cpu].lock();
        let loaded = loaded.map(|l| *l);
        rec.post.locals.insert(cpu, GhostCpu { regs, loaded });
        let Some(mut call) = rec.call.take() else {
            // No call data: trap_enter never ran (or its delivery was
            // dropped). A confused recording, not a hypervisor bug.
            drop(rec);
            self.report_at(
                cpu,
                trap,
                Violation::OracleSelfCheck {
                    seq: None,
                    context: "trap_exit".into(),
                    detail: "no recorded call data (trap_enter not delivered?)".into(),
                },
            );
            return;
        };
        call.regs_post = regs;
        // The check — unless this trap degraded under budget pressure, or
        // this handler's spec step is quarantined.
        if degraded {
            self.stats.degraded_traps.fetch_add(1, Ordering::Relaxed);
            self.stats.traps_unchecked.fetch_add(1, Ordering::Relaxed);
            self.push_trace(
                trap,
                TrapRecord {
                    cpu,
                    name: name.into(),
                    outcome: TrapOutcome::Unchecked("per-trap check budget exhausted".into()),
                },
            );
            return;
        }
        let spec_key = QuarantineKey::Spec(name);
        match self.quarantine.disposition(spec_key) {
            Disposition::Skip => {
                self.stats.quarantined_skips.fetch_add(1, Ordering::Relaxed);
                self.stats.traps_unchecked.fetch_add(1, Ordering::Relaxed);
                self.push_trace(
                    trap,
                    TrapRecord {
                        cpu,
                        name: name.into(),
                        outcome: TrapOutcome::Unchecked("spec step quarantined".into()),
                    },
                );
                return;
            }
            Disposition::Recover => {
                self.stats
                    .quarantine_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
            Disposition::Process => {}
        }
        match contain(|| self.spec_and_check(cpu, &mut rec, &call, name)) {
            Ok(()) => self.quarantine.record_success(spec_key),
            Err(payload) => {
                self.push_trace(
                    trap,
                    TrapRecord {
                        cpu,
                        name: name.into(),
                        outcome: TrapOutcome::Unchecked("spec step panicked (contained)".into()),
                    },
                );
                self.fail(cpu, trap, spec_key, payload);
            }
        }
    }
}

impl GhostHooks for Oracle {
    fn trap_enter(
        &self,
        ctx: &HookCtx<'_>,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        self.guarded(ctx.cpu, None, QuarantineKey::Hook("trap_enter"), || {
            let seq = self
                .events
                .emit(ctx.cpu as u32, None, Event::TrapEnter { cpu: ctx.cpu });
            {
                let mut front = self.fronts[ctx.cpu].lock();
                front.in_trap = true;
                front.trap_seq = Some(seq);
                front.call_mirror = Some((esr, regs.get(0)));
                front.events_this_trap = 0;
                front.degraded = false;
            }
            self.dispatch(CheckMsg::TrapEnter {
                cpu: ctx.cpu,
                seq,
                esr,
                fault_ipa,
                regs: *regs,
                loaded: Self::loaded_vcpu(&loaded),
            });
        });
    }

    fn trap_exit(
        &self,
        ctx: &HookCtx<'_>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        let cpu = ctx.cpu;
        let (trap, mirror, degraded) = {
            let mut front = self.fronts[cpu].lock();
            if !front.in_trap {
                return;
            }
            front.in_trap = false;
            (front.trap_seq, front.call_mirror.take(), front.degraded)
        };
        self.guarded(cpu, trap, QuarantineKey::Hook("trap_exit"), || {
            let loaded = Self::loaded_vcpu(&loaded);
            let Some((esr, x0)) = mirror else {
                // No call data: trap_enter never ran (or its delivery was
                // dropped). A confused recording, not a hypervisor bug.
                self.dispatch(CheckMsg::Report {
                    cpu,
                    trap,
                    violations: vec![Violation::OracleSelfCheck {
                        seq: None,
                        context: "trap_exit".into(),
                        detail: "no recorded call data (trap_enter not delivered?)".into(),
                    }],
                });
                return;
            };
            let name = Self::trap_name_of(esr, x0);
            let event = Event::TrapExit {
                cpu,
                name: name.into(),
            };
            self.events.emit(cpu as u32, trap, event);
            self.dispatch(CheckMsg::TrapExit {
                cpu,
                trap,
                name,
                regs: *regs,
                loaded,
                degraded,
            });
        });
    }

    fn lock_acquired(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.lock_event(ctx, comp, view, true);
    }

    fn lock_releasing(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.lock_event(ctx, comp, view, false);
    }

    fn read_once(&self, ctx: &HookCtx<'_>, tag: &'static str, value: u64) {
        self.stats.front.read_onces.fetch_add(1, Ordering::Relaxed);
        let cpu = ctx.cpu;
        let trap = self.current_trap(cpu);
        self.guarded(cpu, trap, QuarantineKey::Hook("read_once"), || {
            let event = Event::ReadOnce {
                cpu,
                tag: tag.into(),
                value,
            };
            self.events.emit(cpu as u32, trap, event);
            self.dispatch(CheckMsg::ReadOnce { cpu, tag, value });
        });
    }

    fn table_page_alloc(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        let pfn = page.pfn();
        self.observe(ctx.cpu, Event::TablePageAlloc { comp, pfn });
    }

    fn table_page_free(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        let pfn = page.pfn();
        self.observe(ctx.cpu, Event::TablePageFree { comp, pfn });
    }

    fn pte_downgrade(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr: u64) {
        let cpu = ctx.cpu;
        self.observe(cpu, Event::PteDowngrade { cpu, vmid, ia, nr });
    }

    fn tlbi(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr: u64, broadcast: bool) {
        let cpu = ctx.cpu;
        let event = Event::Tlbi {
            vmid,
            ia,
            nr,
            broadcast,
            cpu,
        };
        self.observe(cpu, event);
    }

    fn dsb(&self, ctx: &HookCtx<'_>) {
        self.observe(ctx.cpu, Event::Dsb { cpu: ctx.cpu });
    }

    fn transfer(&self, ctx: &HookCtx<'_>, edge: TransferEdge, pfn: u64, nr: u64, dirty: bool) {
        let cpu = ctx.cpu;
        let event = Event::Transfer {
            cpu,
            edge,
            pfn,
            nr,
            dirty,
        };
        self.observe(cpu, event);
    }

    fn firmware_donated(&self, ctx: &HookCtx<'_>, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        let cpu = ctx.cpu;
        let event = Event::FirmwareDonate {
            cpu,
            handle,
            uniq,
            pfn,
            nr,
        };
        self.observe(cpu, event);
    }

    fn host_regain(&self, ctx: &HookCtx<'_>, pfn: u64, nr: u64) {
        let cpu = ctx.cpu;
        self.observe(cpu, Event::HostRegain { cpu, pfn, nr });
    }

    fn hyp_panic(&self, ctx: &HookCtx<'_>, reason: &str) {
        let trap = self.current_trap(ctx.cpu);
        self.dispatch(CheckMsg::Report {
            cpu: ctx.cpu,
            trap,
            violations: vec![Violation::HypPanic {
                seq: None,
                reason: reason.into(),
            }],
        });
    }

    fn wants_write_log(&self) -> bool {
        self.opts.uses_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TRACE_CAP;

    fn oracle() -> Arc<Oracle> {
        Oracle::new(&MachineConfig::default(), OracleOpts::default())
    }

    #[test]
    fn boot_spec_state_has_the_three_boot_components() {
        let o = oracle();
        let s = o.spec_boot_state();
        let host = s.host.as_ref().expect("host annotated");
        assert_eq!(host.annot.nr_pages(), o.globals.hyp_range.1);
        assert!(host.shared.is_empty());
        let pkvm = s.pkvm.as_ref().expect("linear map + uart");
        assert_eq!(pkvm.pgt.mapping.nr_pages(), o.globals.hyp_range.1 + 1);
        assert_eq!(s.vm_table.as_deref(), Some(&[][..]));
    }

    #[test]
    fn separation_check_flags_cross_component_table_pages() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let page = PhysAddr::new(0x4400_0000);
        o.table_page_alloc(&ctx, Component::Host, page);
        assert!(o.is_clean());
        // The same page backing a *different* component's table: flagged.
        o.table_page_alloc(&ctx, Component::Hyp, page);
        assert!(matches!(
            o.violations()[0],
            Violation::SeparationOverlap { .. }
        ));
        // Freeing and re-allocating elsewhere is fine.
        o.clear_violations();
        o.table_page_free(&ctx, Component::Host, page);
        o.table_page_alloc(&ctx, Component::Hyp, page);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    fn ghost_vm(handle: Handle, donated: &[u64]) -> crate::state::GhostVm {
        crate::state::GhostVm {
            handle,
            slot: 0,
            protected: true,
            pgt: Default::default(),
            donated: donated.to_vec(),
            firmware: Vec::new(),
            vcpus: Vec::new(),
        }
    }

    /// The recorded VM table listing `live` (handle, incarnation) pairs,
    /// in slot order.
    fn table(live: &[(Handle, u64)]) -> ComponentValue {
        let slots = live.iter().enumerate().map(|(slot, &(h, _))| (h, slot));
        ComponentValue {
            part: Part::VmTable,
            state: GhostState {
                vm_table: Some(slots.collect()),
                ..GhostState::default()
            },
            uniq: 0,
            live: live.to_vec(),
        }
    }

    /// The recorded state of VM incarnation `uniq`.
    fn vm_value(uniq: u64, vm: crate::state::GhostVm) -> ComponentValue {
        let part = Part::Vm(vm.handle);
        let mut state = GhostState::default();
        state.vms.insert(vm.handle, vm);
        ComponentValue {
            part,
            state,
            uniq,
            live: Vec::new(),
        }
    }

    #[test]
    fn stalled_checker_bounds_memory_and_drains_on_release() {
        // Backpressure: a pipelined oracle whose checker cannot make
        // progress must block the mutator at the channel cap instead of
        // queueing messages without bound.
        let cap = 8usize;
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder()
                .check_mode(CheckMode::Pipelined { channel_cap: cap })
                .build(),
        );
        // Stall the checker: the first message it applies (`trap_enter`)
        // locks the shared copy, which the test holds.
        let stall = o.shared.lock();
        let driver = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
                let ctx = HookCtx { mem: &mem, cpu: 0 };
                o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
                for i in 0..1000u64 {
                    o.read_once(&ctx, "flood", i);
                }
            })
        };
        // The driver floods 1001 messages; backpressure must stop it at
        // batch granularity — wait for the frontier to settle, then check
        // it stopped within a few caps (channel + the batch in apply).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut last = u64::MAX;
        loop {
            let (sent, _) = o.frontier();
            if sent == last || std::time::Instant::now() > deadline {
                break;
            }
            last = sent;
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let (sent, applied) = o.frontier();
        assert_eq!(applied, 0, "checker ran while the shared copy was held");
        assert!(
            sent <= 3 * cap as u64,
            "stalled checker let {sent} messages through (cap {cap})"
        );
        assert!(
            !driver.is_finished(),
            "driver finished its 1001 sends against a stalled checker"
        );
        // Release the checker: everything drains and the driver finishes.
        drop(stall);
        driver.join().expect("driver");
        o.barrier();
        let (sent, applied) = o.frontier();
        assert_eq!(sent, applied, "barrier returned with messages in flight");
        assert_eq!(sent, 1002, "1 trap_enter + 1000 read_onces + 1 barrier");
    }

    #[test]
    fn shared_copy_drops_the_dying_release_of_a_torn_down_vm() {
        // `do_teardown_vm` releases the dying VM's lock *after* dropping
        // the table lock, so the release arrives when the table no longer
        // lists the VM. It must not resurrect the dead state: a concurrent
        // `init_vm` reusing the handle would otherwise be compared against
        // it.
        let o = oracle();
        let h: Handle = 0x1000;
        let mut shared = o.shared.lock();
        shared.set(&table(&[(h, 1)]));
        shared.set(&vm_value(1, ghost_vm(h, &[0x44007])));
        assert!(shared.state.vms.contains_key(&h));
        // Teardown: table recorded without the VM prunes its entry...
        shared.set(&table(&[]));
        assert!(!shared.state.vms.contains_key(&h));
        // ...and the dying VM's trailing lock release is dropped.
        shared.set(&vm_value(1, ghost_vm(h, &[0x44007])));
        assert!(!shared.state.vms.contains_key(&h), "dead VM resurrected");
        // A new incarnation reusing the handle records normally.
        shared.set(&table(&[(h, 2)]));
        shared.set(&vm_value(2, ghost_vm(h, &[0x44e07])));
        assert_eq!(shared.state.vms[&h].donated, vec![0x44e07]);
        // An even later stale release from the old incarnation still loses.
        shared.set(&vm_value(1, ghost_vm(h, &[0x44007])));
        assert_eq!(shared.state.vms[&h].donated, vec![0x44e07]);
    }

    #[test]
    fn noninterference_skips_a_reused_handles_old_incarnation() {
        let o = oracle();
        let h: Handle = 0x1000;
        {
            let mut shared = o.shared.lock();
            shared.set(&table(&[(h, 2)]));
            shared.set(&vm_value(2, ghost_vm(h, &[0x44e07])));
        }
        // A different incarnation's view differing from the stored state
        // is not interference — the two states describe different VMs.
        o.noninterference_check(0, None, &vm_value(1, ghost_vm(h, &[0x44007])));
        assert!(o.is_clean(), "{:?}", o.violations());
        // The same incarnation differing is the real §4.4 violation.
        o.noninterference_check(0, None, &vm_value(2, ghost_vm(h, &[0x44007])));
        assert!(matches!(
            &o.violations()[0],
            Violation::NonInterference { .. }
        ));
    }

    #[test]
    fn table_recording_invalidates_a_stale_incarnations_state() {
        // Belt and braces: if an old incarnation's state is somehow still
        // stored when the table is recorded with a new incarnation under
        // the same handle, the stale state is dropped (and the component
        // stamped) rather than compared against the new VM.
        let o = oracle();
        let h: Handle = 0x1000;
        let mut shared = o.shared.lock();
        shared.set(&table(&[(h, 1)]));
        shared.set(&vm_value(1, ghost_vm(h, &[0x44007])));
        let stamp_before = shared.versions[&Part::Vm(h)];
        shared.set(&table(&[(h, 5)]));
        assert!(!shared.state.vms.contains_key(&h));
        assert!(shared.versions[&Part::Vm(h)] > stamp_before);
        assert_eq!(shared.vm_uniq[&h], 5);
    }

    /// An oracle with default switches, checking in `mode`.
    fn oracle_in(mode: CheckMode) -> Arc<Oracle> {
        let opts = OracleOpts::builder().check_mode(mode).build();
        Oracle::new(&MachineConfig::default(), opts)
    }

    /// Both check modes, inline first.
    const MODES: [CheckMode; 2] = [
        CheckMode::Inline,
        CheckMode::Pipelined { channel_cap: 1024 },
    ];

    #[test]
    fn hyp_panic_is_a_violation() {
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        for mode in MODES {
            let o = oracle_in(mode);
            o.hyp_panic(&ctx, "BUG()");
            let vs = o.verdict().wait().violations();
            assert!(
                matches!(&vs[..], [Violation::HypPanic { reason, .. }] if reason == "BUG()"),
                "{mode:?}: {vs:?}"
            );
        }
    }

    #[test]
    fn trace_is_bounded() {
        let o = oracle();
        for i in 0..(TRACE_CAP + 10) {
            o.push_trace(
                None,
                TrapRecord {
                    cpu: 0,
                    name: format!("t{i}").into(),
                    outcome: TrapOutcome::Clean,
                },
            );
        }
        let t = o.trace();
        assert_eq!(t.len(), TRACE_CAP);
        assert_eq!(t.last().unwrap().name, format!("t{}", TRACE_CAP + 9));
    }

    #[test]
    fn ghost_bytes_accounting_is_nonzero_once_populated() {
        let o = oracle();
        let base = o.approx_ghost_bytes();
        let mut shared = o.shared.lock();
        let mut host = GhostHost::default();
        host.annot.insert_new(Maplet {
            ia: 0x4400_0000,
            nr_pages: 16,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        shared.state.host = Some(host);
        drop(shared);
        assert!(o.approx_ghost_bytes() > base);
    }

    #[test]
    fn contained_panics_report_and_then_quarantine() {
        // The VM table needs no memory to abstract.
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let table = ComponentView::VmTable {
            vms: Vec::new(),
            uniqs: Vec::new(),
        };
        let smc = |o: &Oracle| {
            o.trap_enter(&ctx, Esr::smc64(), None, &GprFile::default(), None);
            o.trap_exit(&ctx, &GprFile::default(), None);
        };
        for mode in MODES {
            let opts = OracleOpts::builder()
                .quarantine_threshold(3)
                .quarantine_traps(2)
                .check_mode(mode)
                .build();
            let o = Oracle::new(&MachineConfig::default(), opts);
            let key = QuarantineKey::Part(Part::VmTable);
            for _ in 0..3 {
                o.guarded(0, None, key, || panic!("chaos made me do it"));
            }
            // Benched: the next lock event of the table is skipped...
            o.lock_acquired(&ctx, Component::VmTable, &table);
            let v = o.verdict();
            let vs = v.wait().violations();
            assert_eq!(vs.len(), 3, "{mode:?}: {vs:?}");
            assert!(vs.iter().all(|v| matches!(
                v,
                Violation::OracleInternal { component, payload, .. }
                    if component == "vm_table" && payload.contains("chaos")
            )));
            assert_eq!(o.quarantined(), 1, "{mode:?}");
            // ...and after its bench time (two traps) the table recovers
            // exactly once, then is processed as usual.
            smc(&o);
            smc(&o);
            o.lock_releasing(&ctx, Component::VmTable, &table);
            o.lock_acquired(&ctx, Component::VmTable, &table);
            let stats = v.wait().stats();
            assert_eq!(o.violations().len(), 3, "{mode:?}: {:?}", o.violations());
            assert_eq!(
                (
                    stats.contained_panics,
                    stats.quarantined_skips,
                    stats.quarantine_recoveries
                ),
                (3, 1, 1),
                "{mode:?}"
            );
            assert_eq!(o.quarantined(), 0, "{mode:?}");
        }
    }

    #[test]
    fn a_panicking_spec_step_is_quarantined_alike_in_both_modes() {
        // With no lock event recorded, a share's spec step finds no host
        // in its pre-state and panics at every trap: the spec key's
        // failures, skips and recoveries run on the trap clock, which the
        // back half ticks in message order, so a checker that lags a whole
        // run behind makes the same records as the inline one.
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let mut regs = GprFile::default();
        regs.set(0, hypercalls::HVC_HOST_SHARE_HYP);
        let runs: Vec<_> = MODES
            .iter()
            .map(|&mode| {
                let o = oracle_in(mode);
                for _ in 0..80 {
                    o.trap_enter(&ctx, Esr::hvc64(0), None, &regs, None);
                    o.trap_exit(&ctx, &regs, None);
                }
                let v = o.verdict();
                let vs = v.wait().violations();
                let seen: Vec<_> = vs.iter().map(|v| (v.kind(), v.event_seq())).collect();
                (seen, v.stats())
            })
            .collect();
        let (inline, stats) = &runs[0];
        assert_eq!(inline.len(), 15, "{inline:?}");
        assert!(inline.iter().all(|(kind, _)| *kind == "oracle-internal"));
        assert_eq!(
            (
                stats.contained_panics,
                stats.quarantined_skips,
                stats.quarantine_recoveries
            ),
            (15, 65, 4)
        );
        assert_eq!(runs[0], runs[1], "inline and pipelined records diverge");
    }

    #[test]
    fn violation_log_is_bounded_and_drops_are_counted() {
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder().violation_cap(4).build(),
        );
        for i in 0..10 {
            o.report(Violation::HypPanic {
                seq: None,
                reason: format!("p{i}"),
            });
        }
        assert_eq!(o.violations().len(), 4);
        assert_eq!(o.violation_count(), 4);
        assert_eq!(o.stats_snapshot().violations_dropped, 6);
    }

    #[test]
    fn reports_are_annotated_with_the_vm_incarnation() {
        // One zeroed page: the guest's (empty) stage 2 root.
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![pkvm_aarch64::memory::MemRegion::ram(
            0x4000_0000,
            PAGE_SIZE,
        )]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let h: Handle = 0x1000;
        let view = |donated: &[u64]| {
            ComponentView::Vm(pkvm_hyp::hooks::VmView {
                handle: h,
                uniq: 7,
                slot: 0,
                s2_root: PhysAddr::new(0x4000_0000),
                protected: false,
                donated: donated
                    .iter()
                    .map(|&pfn| PhysAddr::new(pfn << 12))
                    .collect(),
                firmware: Vec::new(),
                vcpus: Vec::new(),
            })
        };
        // An SMC leaves every component alone, so the VM changing inside
        // it is an unexpected change of `vm[4096]`.
        let o = oracle();
        o.trap_enter(&ctx, Esr::smc64(), None, &GprFile::default(), None);
        o.lock_acquired(&ctx, Component::Vm(h), &view(&[]));
        o.lock_releasing(&ctx, Component::Vm(h), &view(&[0x44007]));
        o.trap_exit(&ctx, &GprFile::default(), None);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].vm_uniq(), Some(7));
        let line = vs[0].to_string();
        assert!(
            line.starts_with("violation kind=unexpected-change trap=smc comp=vm[4096] uniq=7"),
            "{line}"
        );
    }

    #[test]
    fn a_foreign_update_between_two_critical_sections_is_skipped_not_reported() {
        // The VM table needs no memory to abstract.
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let (cpu0, cpu1) = (HookCtx { mem: &mem, cpu: 0 }, HookCtx { mem: &mem, cpu: 1 });
        let empty = ComponentView::VmTable {
            vms: Vec::new(),
            uniqs: Vec::new(),
        };
        let one = ComponentView::VmTable {
            vms: vec![(0x1000, 0)],
            uniqs: vec![(0x1000, 1)],
        };
        let run = |foreign: bool| {
            let o = oracle();
            // CPU 0's SMC takes and releases the table...
            o.trap_enter(&cpu0, Esr::smc64(), None, &GprFile::default(), None);
            o.lock_acquired(&cpu0, Component::VmTable, &empty);
            o.lock_releasing(&cpu0, Component::VmTable, &empty);
            if foreign {
                // ...CPU 1 changes it with no trap open...
                o.lock_acquired(&cpu1, Component::VmTable, &empty);
                o.lock_releasing(&cpu1, Component::VmTable, &one);
                // ...and CPU 0 re-acquires the changed table.
                o.lock_acquired(&cpu0, Component::VmTable, &one);
            } else {
                // ...or CPU 0 changes it itself in a second section.
                o.lock_acquired(&cpu0, Component::VmTable, &empty);
            }
            o.lock_releasing(&cpu0, Component::VmTable, &one);
            o.trap_exit(&cpu0, &GprFile::default(), None);
            (o.violations(), o.stats_snapshot().interleaved_skips)
        };
        // Either way the trap's recorded post differs from its pre. With
        // the foreign update in between, the per-trap check does not apply
        // to the table: the finding is dropped and counted.
        let (vs, skips) = run(true);
        assert!(vs.is_empty(), "{vs:?}");
        assert_eq!(skips, 1);
        // Without it, the same change is the trap's own and is reported.
        let (vs, skips) = run(false);
        let got: Vec<(&str, Option<&str>)> = vs.iter().map(|v| (v.kind(), v.component())).collect();
        assert_eq!(got, [("unexpected-change", Some("vm_table"))]);
        assert_eq!(skips, 0);
    }

    #[test]
    fn trap_exit_without_call_data_is_a_self_check_not_a_panic() {
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        for mode in MODES {
            let o = oracle_in(mode);
            // Force the inconsistent recording a dropped trap_enter leaves.
            o.fronts[0].lock().in_trap = true;
            o.trap_exit(&ctx, &GprFile::default(), None);
            let v = o.verdict();
            let vs = v.wait().violations();
            assert!(
                matches!(
                    &vs[..],
                    [Violation::OracleSelfCheck { context, .. }] if context == "trap_exit"
                ),
                "{mode:?}: {vs:?}"
            );
            assert_eq!(v.stats().contained_panics, 0, "{mode:?}");
        }
    }

    #[test]
    fn deferred_seeding_respects_concurrent_component_updates() {
        let o = oracle();
        // A concurrent trap recorded the host component after this trap
        // entered at tick 0 (the shared copy is stamped past it).
        let concurrent = GhostHost::default();
        {
            let mut shared = o.shared.lock();
            shared.state.host = Some(concurrent.clone());
            shared.stamp(Part::Host);
        }
        let mut computed = GhostState::blank(&o.globals);
        let mut stale = GhostHost::default();
        stale.annot.insert_new(Maplet {
            ia: 0x4400_0000,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        });
        computed.host = Some(stale);
        o.seed_deferred(&[Part::Host], &computed, 0);
        // The stale expectation must not overwrite the fresher recording.
        let shared = o.shared.lock();
        assert_eq!(shared.state.host.as_ref(), Some(&concurrent));
        drop(shared);
        assert!(o.is_clean());

        // Entered after that update, the seed lands.
        let tick = o.shared.lock().tick;
        o.seed_deferred(&[Part::Host], &computed, tick);
        let shared = o.shared.lock();
        assert_eq!(shared.state.host.as_ref(), computed.host.as_ref());
    }

    #[test]
    fn a_panic_between_serving_and_handing_over_makes_the_next_event_carry_the_value() {
        use pkvm_aarch64::desc::Pte;
        use pkvm_aarch64::memory::{MemRegion, PhysMem};
        use pkvm_hyp::owner::{annotation_pte, OwnerId};
        // A host stage 2 of one empty root page, its writes logged.
        let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, PAGE_SIZE)]);
        mem.write_log().set_enabled(true);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let root = PhysAddr::new(0x4000_0000);
        let view = ComponentView::Host { root };
        for mode in [CheckMode::Inline, CheckMode::pipelined()] {
            mem.write_pte(root, 0, Pte(0)).unwrap();
            let opts = OracleOpts::builder().check_mode(mode).build();
            let o = Oracle::new(&MachineConfig::default(), opts);
            o.lock_acquired(&ctx, Component::Host, &view);
            // The critical section changes the table; its release step
            // serves the replayed value, then panics before handing it over.
            mem.write_pte(root, 0, annotation_pte(OwnerId::HYP))
                .unwrap();
            o.guarded(0, None, QuarantineKey::Part(Part::Host), || {
                o.abscache
                    .lock()
                    .host(&mem, root, &o.globals, &mut Vec::new());
                panic!("between serving and handing over");
            });
            // The release and the next acquisition carry the value the
            // back half never received, and find nothing wrong with it.
            o.lock_releasing(&ctx, Component::Host, &view);
            o.lock_acquired(&ctx, Component::Host, &view);
            let vs = o.verdict().wait().violations();
            let kinds: Vec<&str> = vs.iter().map(Violation::kind).collect();
            assert_eq!(kinds, ["oracle-internal"], "{mode:?}: {vs:?}");
        }
    }

    #[test]
    fn shadow_validation_reports_what_the_cache_got_wrong_and_uses_the_full_walk() {
        let o = Oracle::new(
            &MachineConfig::default(),
            OracleOpts::builder().shadow_validation(true).build(),
        );
        let annotated = |ia| Maplet {
            ia,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: pkvm_hyp::owner::OwnerId::HYP,
            },
        };
        // Equal values that share no storage, so the test can tell which
        // of the two `serve` returned.
        let pgt = |maplets: &[Maplet]| {
            let mut pgt = AbstractPgtable::default();
            for &m in maplets {
                pgt.mapping.insert_new(m);
            }
            pgt
        };
        let (kept, lost) = (annotated(0x4000_0000), annotated(0x4000_2000));
        let anomaly = || Anomaly::IllegalPageState { ia: 0x4000_0000 };
        // What `serve` returns, the anomalies it passes on and the shadow
        // divergences it reports, given the cache's and the full walk's
        // results (each a value and its anomalies).
        let serve = |key, inc: (AbstractPgtable, Vec<Anomaly>), full: (AbstractPgtable, _)| {
            let (mut anomalies, mut reports) = (Vec::new(), Vec::new());
            let value = o.serve(
                key,
                &mut anomalies,
                &mut reports,
                |a| {
                    a.extend(inc.1);
                    inc.0
                },
                |a| {
                    a.extend(full.1);
                    full.0
                },
            );
            let diffs: Vec<(String, String)> = reports
                .into_iter()
                .map(|v| match v {
                    Violation::ShadowDivergence {
                        component, diff, ..
                    } => (component, diff),
                    v => panic!("not a shadow divergence: {v:?}"),
                })
                .collect();
            (value, anomalies, diffs)
        };

        // The cache lost a maplet.
        let full = pgt(&[kept, lost]);
        let (value, _, diffs) = serve(
            Component::Hyp,
            (pgt(&[kept]), vec![]),
            (full.clone(), vec![]),
        );
        assert!(value.mapping.shares_storage(&full.mapping));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].0, "Hyp");
        assert_eq!(diffs[0].1, format!("  full only: {lost:?}\n"));

        // The cache missed an anomaly.
        let full = pgt(&[kept]);
        let inc = (pgt(&[kept]), vec![]);
        let (value, anomalies, diffs) =
            serve(Component::Vm(0x1000), inc, (full.clone(), vec![anomaly()]));
        assert!(value.mapping.shares_storage(&full.mapping));
        assert_eq!(anomalies, [anomaly()]);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].0, "Vm(4096)");
        assert_eq!(
            diffs[0].1,
            format!("  anomalies: full [{:?}] vs incremental []\n", anomaly())
        );

        // The two agree.
        let full = pgt(&[kept, lost]);
        let inc = (pgt(&[kept, lost]), vec![anomaly()]);
        let (value, anomalies, diffs) = serve(Component::Hyp, inc, (full.clone(), vec![anomaly()]));
        assert!(value.mapping.shares_storage(&full.mapping));
        assert_eq!(anomalies, [anomaly()]);
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    fn bbm_violations(o: &Oracle) -> Vec<Violation> {
        o.violations()
            .into_iter()
            .filter(|v| v.kind() == "break-before-make")
            .collect()
    }

    #[test]
    fn unflushed_downgrade_is_reported_at_trap_exit_with_the_write_seq() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.trap_exit(&ctx, &GprFile::default(), None);
        let vs = bbm_violations(&o);
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation::BreakBeforeMake {
                seq,
                trap,
                vmid,
                ia,
                nr,
            } => {
                assert!(seq.is_some(), "anchored on the downgrade event");
                assert!(!trap.is_empty());
                assert_eq!((*vmid, *ia, *nr), (1, 0x8000, 2));
            }
            v => panic!("wrong variant: {v:?}"),
        }
        // The ledger was drained: the next trap starts clean.
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert_eq!(bbm_violations(&o).len(), 1);
    }

    #[test]
    fn the_full_flush_sequence_satisfies_the_check() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.tlbi(&ctx, 1, 0x8000, 2, true);
        o.dsb(&ctx);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert!(bbm_violations(&o).is_empty());
        // A non-broadcast TLBI does not retire the break: other CPUs may
        // still hold the stale translation.
        o.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        o.pte_downgrade(&ctx, 1, 0x8000, 2);
        o.tlbi(&ctx, 1, 0x8000, 2, false);
        o.dsb(&ctx);
        o.trap_exit(&ctx, &GprFile::default(), None);
        assert_eq!(bbm_violations(&o).len(), 1);
    }

    #[test]
    fn transfer_protocol_accepts_the_clean_round_trips() {
        use TransferEdge::*;
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        // Host <-> hyp share, host <-> hyp donation, guest map + share
        // ping-pong + reclaim, firmware: each page's full legal life.
        o.transfer(&ctx, ShareHyp, 0x100, 1, false);
        o.transfer(&ctx, UnshareHyp, 0x100, 1, false);
        o.transfer(&ctx, DonateHyp, 0x100, 2, false);
        o.transfer(&ctx, DonateHost, 0x100, 2, false);
        o.transfer(&ctx, MapGuestOwned, 0x200, 1, false);
        o.transfer(&ctx, GuestShareHost, 0x200, 1, false);
        o.host_regain(&ctx, 0x200, 1);
        o.transfer(&ctx, GuestUnshareHost, 0x200, 1, false);
        o.transfer(&ctx, Reclaim, 0x200, 1, false);
        o.host_regain(&ctx, 0x200, 1);
        o.transfer(&ctx, MapGuestShared, 0x300, 1, false);
        o.transfer(&ctx, Reclaim, 0x300, 1, false);
        o.transfer(&ctx, Firmware, 0x400, 2, false);
        o.firmware_donated(&ctx, 0x1000, 1, 0x400, 2);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn transfer_protocol_flags_an_illegal_edge_with_its_departure_state() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::ShareHyp, 0x100, 1, false);
        // Sharing an already-shared page breaks the protocol.
        o.transfer(&ctx, TransferEdge::ShareHyp, 0x100, 1, false);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation::TransferProtocol {
                seq,
                edge,
                pfn,
                detail,
            } => {
                assert!(seq.is_some(), "anchored on the transfer event");
                assert_eq!(*edge, TransferEdge::ShareHyp);
                assert_eq!(*pfn, 0x100);
                assert!(detail.contains("shared_hyp"), "{detail}");
            }
            v => panic!("wrong variant: {v:?}"),
        }
    }

    #[test]
    fn dirty_reclaim_is_a_wipe_violation() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::MapGuestOwned, 0x200, 1, false);
        o.transfer(&ctx, TransferEdge::Reclaim, 0x200, 1, true);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            matches!(
                &vs[0],
                Violation::ReclaimWipe {
                    seq: Some(_),
                    pfn: 0x200
                }
            ),
            "{vs:?}"
        );
    }

    #[test]
    fn firmware_regain_is_flagged_even_across_teardown() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.transfer(&ctx, TransferEdge::Firmware, 0x400, 2, false);
        o.firmware_donated(&ctx, 0x1000, 7, 0x400, 2);
        assert!(o.is_clean());
        // Long after the donating VM is gone (the tracker never forgets),
        // a regain overlapping one firmware page is a breach.
        o.host_regain(&ctx, 0x3ff, 2);
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        match &vs[0] {
            Violation::FirmwareProtection {
                seq,
                handle,
                uniq,
                pfn,
            } => {
                assert!(seq.is_some(), "anchored on the regain event");
                assert_eq!((*handle, *uniq, *pfn), (0x1000, 7, 0x400));
            }
            v => panic!("wrong variant: {v:?}"),
        }
        // The same page is not re-reported.
        o.host_regain(&ctx, 0x400, 1);
        assert_eq!(o.violations().len(), 1);
        // The region's other page still is.
        o.host_regain(&ctx, 0x401, 1);
        assert_eq!(o.violations().len(), 2);
    }

    #[test]
    fn firmware_backstop_catches_an_unannounced_host_mapping() {
        let o = oracle();
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        o.firmware_donated(&ctx, 0x1000, 3, 0x40600, 1);
        // A host abstraction whose annotations no longer exclude the
        // firmware page (as after a buggy reclaim): the host can reach it
        // again even though no regain hook announced anything.
        o.apply_msg(CheckMsg::LockAcquired {
            cpu: 0,
            trap: None,
            value: ComponentValue {
                part: Part::Host,
                state: GhostState {
                    host: Some(GhostHost::default()),
                    ..GhostState::default()
                },
                uniq: 0,
                live: Vec::new(),
            },
            reports: Vec::new(),
        });
        let vs = o.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(
            matches!(
                &vs[0],
                Violation::FirmwareProtection {
                    handle: 0x1000,
                    uniq: 3,
                    pfn: 0x40600,
                    ..
                }
            ),
            "{vs:?}"
        );
    }

    /// One tracker knob, the minimal hook sequence that trips it, and the
    /// violation kinds that sequence must report.
    type TrackerCase = (
        fn(OracleOptsBuilder, bool) -> OracleOptsBuilder,
        fn(&Oracle, &HookCtx<'_>),
        &'static [&'static str],
    );

    #[test]
    fn every_tracker_knob_reports_exactly_its_kinds_in_both_modes() {
        let cases: [TrackerCase; 4] = [
            (
                OracleOptsBuilder::check_separation,
                |o, ctx| {
                    let page = PhysAddr::new(0x4400_0000);
                    o.table_page_alloc(ctx, Component::Host, page);
                    o.table_page_alloc(ctx, Component::Hyp, page);
                },
                &["separation-overlap"],
            ),
            (
                OracleOptsBuilder::check_break_before_make,
                |o, ctx| {
                    // An SMC leaves the modelled state alone, so the trap's
                    // own spec check stays quiet.
                    o.trap_enter(ctx, Esr::smc64(), None, &GprFile::default(), None);
                    o.pte_downgrade(ctx, 1, 0x8000, 2);
                    o.trap_exit(ctx, &GprFile::default(), None);
                },
                &["break-before-make"],
            ),
            (
                OracleOptsBuilder::check_transfer_protocol,
                |o, ctx| {
                    o.transfer(ctx, TransferEdge::UnshareHyp, 0x100, 1, false);
                    o.transfer(ctx, TransferEdge::Reclaim, 0x200, 1, true);
                },
                &["transfer-protocol", "transfer-protocol", "reclaim-wipe"],
            ),
            (
                OracleOptsBuilder::check_firmware_protection,
                |o, ctx| {
                    o.firmware_donated(ctx, 0x1000, 1, 0x400, 1);
                    o.host_regain(ctx, 0x400, 1);
                },
                &["firmware-protection"],
            ),
        ];
        let mem = pkvm_aarch64::memory::PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        for (knob, trip, kinds) in cases {
            let mut reports = Vec::new();
            for mode in [CheckMode::Inline, CheckMode::pipelined()] {
                for on in [true, false] {
                    let opts = knob(OracleOpts::builder().check_mode(mode), on).build();
                    let o = Oracle::new(&MachineConfig::default(), opts);
                    trip(&o, &ctx);
                    let vs = o.verdict().wait().violations();
                    let got: Vec<&str> = vs.iter().map(Violation::kind).collect();
                    let want: &[&str] = if on { kinds } else { &[] };
                    assert_eq!(got, want, "{mode:?}, knob on: {on}");
                    reports.push(vs.iter().map(Violation::to_string).collect::<Vec<_>>());
                }
            }
            // Same reports, same anchors, in both modes.
            assert_eq!(reports[0], reports[2], "{kinds:?}");
        }
    }
}
