//! Chaos fault-injection engine: does the oracle *fail safe*?
//!
//! The campaigns in [`crate::campaign`] test the hypervisor; this module
//! tests the *oracle*. A production test-oracle deployment (the paper
//! runs on CI hardware for months, §5–6) must survive the world
//! misbehaving around it — corrupted table memory, torn `READ_ONCE`
//! values, instrumentation callbacks that arrive late, twice or not at
//! all, and allocators that hand out garbage. The engine injects exactly
//! those faults, parameterised by family and probability, from a seeded
//! [`ChaosCfg`] so every chaotic run replays deterministically through
//! the existing campaign schedule/replay machinery.
//!
//! Two injection planes:
//!
//! - **Hook plane** ([`ChaosHooks`]): a [`GhostHooks`] decorator wrapped
//!   around the real oracle, perturbing the instrumentation stream —
//!   dropped/duplicated/delayed lock events, torn or stale `READ_ONCE`
//!   calldata. The hypervisor itself is untouched; only what the oracle
//!   *sees* is corrupted.
//! - **Driver plane** ([`ChaosDriver`] + allocator chaos in
//!   [`Proxy`]): bit flips in live page-table memory (the hypervisor's
//!   own pool pages) and misbehaving host allocations (duplicate pages
//!   handed out while still owned). These perturb the machine itself;
//!   flips go through [`Proxy::corrupt_mem`] so they land in the recorded
//!   trace and replay exactly.
//!
//! The [`detection_matrix`] sweep turns this into a mutation-score-style
//! report: per family, how many runs the oracle *detected* (violations),
//! how many it *degraded safely* through (containment/quarantine/budget
//! counters moved, no violation, no crash), and — the hard invariant —
//! that the oracle itself never panics or aborts. Implementation crashes
//! under memory corruption are reported honestly in their own column:
//! with every oracle entry point contained, a worker-thread panic is
//! attributable to the hypervisor or harness, not the oracle.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::tlb::{RemoteDelivery, TlbInvalidationPolicy, TlbiScope};
use pkvm_aarch64::{Esr, GprFile};
use pkvm_ghost::event::{ChaosKind, Event, EventStream};
use pkvm_hyp::faults::{Fault, FaultSet};
use pkvm_hyp::hooks::{Component, ComponentView, GhostHooks, HookCtx, TransferEdge, VcpuView};
use pkvm_hyp::vm::Handle;

use crate::campaign::{worker_seed, CampaignCfg, CampaignReport};
use crate::proxy::Proxy;
use crate::rng::Rng;

/// The chaos fault families (the mutation operators of the sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosFamily {
    /// Single-bit flips in live hypervisor pool memory (page-table
    /// backing store), injected through the recorded-trace write path.
    BitFlip,
    /// Torn or stale `READ_ONCE` values reported to the oracle's
    /// calldata recording.
    TornReadOnce,
    /// Dropped and duplicated lock acquire/release hook events.
    LockEvents,
    /// Host allocator misbehaviour beyond plain exhaustion: duplicate
    /// pages handed out while an earlier allocation still owns them.
    AllocChaos,
    /// Lock hook events delivered late, after intervening hooks.
    DelayedHooks,
    /// Broadcast TLB invalidations whose delivery to a remote CPU is
    /// delayed or dropped, so that CPU keeps serving the retained
    /// translation — cross-CPU staleness.
    StaleTlb,
}

impl ChaosFamily {
    /// Every family, in sweep order.
    pub const ALL: [ChaosFamily; 6] = [
        ChaosFamily::BitFlip,
        ChaosFamily::TornReadOnce,
        ChaosFamily::LockEvents,
        ChaosFamily::AllocChaos,
        ChaosFamily::DelayedHooks,
        ChaosFamily::StaleTlb,
    ];

    /// Stable kebab-case name (report rows, CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            ChaosFamily::BitFlip => "bit-flip",
            ChaosFamily::TornReadOnce => "torn-read-once",
            ChaosFamily::LockEvents => "lock-events",
            ChaosFamily::AllocChaos => "alloc-chaos",
            ChaosFamily::DelayedHooks => "delayed-hooks",
            ChaosFamily::StaleTlb => "stale-tlb",
        }
    }

    /// Parses a [`ChaosFamily::name`] back.
    pub fn from_name(name: &str) -> Option<ChaosFamily> {
        ChaosFamily::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// Seeded chaos configuration: per-family injection probabilities.
///
/// `Copy` on purpose — the config travels into the campaign trace
/// (see [`crate::campaign::CampaignTrace::chaos`]) so a violating
/// chaotic campaign replays with the same chaos stream re-seeded.
/// Construct with [`ChaosCfg::builder`] or [`ChaosCfg::only`]; the
/// default is inert (all probabilities zero).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosCfg {
    /// Seed for every chaos RNG stream (hook plane, driver plane and
    /// per-worker allocator chaos each derive their own sub-stream).
    pub seed: u64,
    /// Per driver step: probability of one bit flip in pool memory.
    pub p_bit_flip: f64,
    /// Per `READ_ONCE`: probability the reported value is torn (one bit
    /// flipped) or stale (a previously observed value for the same tag).
    pub p_torn_read_once: f64,
    /// Per lock event: probability the event is silently dropped.
    pub p_drop_lock_event: f64,
    /// Per lock event: probability the event is delivered twice.
    pub p_dup_lock_event: f64,
    /// Per lock event: probability delivery is delayed past one or two
    /// subsequent hook deliveries (reordering it in the oracle's view).
    pub p_delay_hook: f64,
    /// Per successful host allocation: probability a duplicate of a
    /// recently granted page is returned instead of a fresh one.
    pub p_alloc_chaos: f64,
    /// Per remote CPU per broadcast TLB invalidation: probability the
    /// delivery is delayed (applies at a later settle) or dropped, so
    /// the remote CPU keeps serving the retained entry.
    pub p_stale_tlb: f64,
}

impl Default for ChaosCfg {
    fn default() -> Self {
        ChaosCfg {
            seed: 0xc4a0_5eed,
            p_bit_flip: 0.0,
            p_torn_read_once: 0.0,
            p_drop_lock_event: 0.0,
            p_dup_lock_event: 0.0,
            p_delay_hook: 0.0,
            p_alloc_chaos: 0.0,
            p_stale_tlb: 0.0,
        }
    }
}

impl ChaosCfg {
    /// Starts a builder from the inert defaults.
    pub fn builder() -> ChaosCfgBuilder {
        ChaosCfgBuilder(ChaosCfg::default())
    }

    /// A config exercising exactly one family at its default sweep
    /// intensity, everything else off.
    pub fn only(family: ChaosFamily) -> ChaosCfg {
        let mut cfg = ChaosCfg::default();
        match family {
            ChaosFamily::BitFlip => cfg.p_bit_flip = 0.05,
            ChaosFamily::TornReadOnce => cfg.p_torn_read_once = 0.2,
            ChaosFamily::LockEvents => {
                cfg.p_drop_lock_event = 0.02;
                cfg.p_dup_lock_event = 0.02;
            }
            ChaosFamily::AllocChaos => cfg.p_alloc_chaos = 0.15,
            ChaosFamily::DelayedHooks => cfg.p_delay_hook = 0.05,
            ChaosFamily::StaleTlb => cfg.p_stale_tlb = 0.25,
        }
        cfg
    }

    /// `true` when every injection probability is zero — the config
    /// perturbs nothing and a campaign under it must behave exactly like
    /// one with no chaos at all.
    pub fn is_inert(&self) -> bool {
        self.p_bit_flip == 0.0
            && self.p_torn_read_once == 0.0
            && self.p_drop_lock_event == 0.0
            && self.p_dup_lock_event == 0.0
            && self.p_delay_hook == 0.0
            && self.p_alloc_chaos == 0.0
            && self.p_stale_tlb == 0.0
    }

    /// Returns the config with a different seed (same intensities).
    pub fn reseeded(mut self, seed: u64) -> ChaosCfg {
        self.seed = seed;
        self
    }
}

/// Builder for [`ChaosCfg`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosCfgBuilder(ChaosCfg);

impl ChaosCfgBuilder {
    /// Sets the chaos seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Sets the per-step bit-flip probability.
    pub fn bit_flip(mut self, p: f64) -> Self {
        self.0.p_bit_flip = p;
        self
    }

    /// Sets the torn/stale `READ_ONCE` probability.
    pub fn torn_read_once(mut self, p: f64) -> Self {
        self.0.p_torn_read_once = p;
        self
    }

    /// Sets the dropped-lock-event probability.
    pub fn drop_lock_event(mut self, p: f64) -> Self {
        self.0.p_drop_lock_event = p;
        self
    }

    /// Sets the duplicated-lock-event probability.
    pub fn dup_lock_event(mut self, p: f64) -> Self {
        self.0.p_dup_lock_event = p;
        self
    }

    /// Sets the delayed-hook probability.
    pub fn delay_hook(mut self, p: f64) -> Self {
        self.0.p_delay_hook = p;
        self
    }

    /// Sets the allocator-chaos probability.
    pub fn alloc_chaos(mut self, p: f64) -> Self {
        self.0.p_alloc_chaos = p;
        self
    }

    /// Sets the stale-TLB (suppressed remote invalidation) probability.
    pub fn stale_tlb(mut self, p: f64) -> Self {
        self.0.p_stale_tlb = p;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ChaosCfg {
        self.0
    }
}

/// Shared injection counters, one per chaos plane/family. The sweep
/// report uses them to confirm chaos actually fired (a family whose
/// counter stayed zero tested nothing).
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Bits flipped in pool memory (driver plane).
    pub bit_flips: AtomicU64,
    /// `READ_ONCE` values torn or staled.
    pub torn_reads: AtomicU64,
    /// Lock events dropped.
    pub dropped_events: AtomicU64,
    /// Lock events duplicated.
    pub duped_events: AtomicU64,
    /// Lock events delayed.
    pub delayed_events: AtomicU64,
    /// Chaotic (duplicate) host allocations.
    pub alloc_faults: AtomicU64,
    /// Remote TLB-invalidation deliveries delayed or dropped.
    pub stale_tlbs: AtomicU64,
}

impl ChaosCounters {
    /// Plain-value snapshot.
    pub fn snapshot(&self) -> ChaosInjected {
        ChaosInjected {
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            torn_reads: self.torn_reads.load(Ordering::Relaxed),
            dropped_events: self.dropped_events.load(Ordering::Relaxed),
            duped_events: self.duped_events.load(Ordering::Relaxed),
            delayed_events: self.delayed_events.load(Ordering::Relaxed),
            alloc_faults: self.alloc_faults.load(Ordering::Relaxed),
            stale_tlbs: self.stale_tlbs.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`ChaosCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosInjected {
    /// See [`ChaosCounters::bit_flips`].
    pub bit_flips: u64,
    /// See [`ChaosCounters::torn_reads`].
    pub torn_reads: u64,
    /// See [`ChaosCounters::dropped_events`].
    pub dropped_events: u64,
    /// See [`ChaosCounters::duped_events`].
    pub duped_events: u64,
    /// See [`ChaosCounters::delayed_events`].
    pub delayed_events: u64,
    /// See [`ChaosCounters::alloc_faults`].
    pub alloc_faults: u64,
    /// See [`ChaosCounters::stale_tlbs`].
    pub stale_tlbs: u64,
}

impl ChaosInjected {
    /// Total injections across all families.
    pub fn total(&self) -> u64 {
        self.bit_flips
            + self.torn_reads
            + self.dropped_events
            + self.duped_events
            + self.delayed_events
            + self.alloc_faults
            + self.stale_tlbs
    }
}

/// A lock event held back for late delivery.
struct DelayedEvent {
    cpu: usize,
    comp: Component,
    view: ComponentView,
    release: bool,
    /// Flush opportunities to skip before delivery; >0 lets other hook
    /// events overtake this one, genuinely reordering the stream.
    hold: u8,
}

/// Mutable hook-plane state, all under one lock so decisions consume a
/// single seeded stream in hook-delivery order.
struct HookChaos {
    rng: Rng,
    /// Last observed `READ_ONCE` value per tag, for stale replays.
    last_read: HashMap<&'static str, u64>,
    delayed: VecDeque<DelayedEvent>,
}

/// A [`GhostHooks`] decorator corrupting the instrumentation stream on
/// its way to the real oracle. Trap boundaries, vCPU transfers and page
/// accounting pass through unmodified — they define the check windows;
/// the chaos targets what the paper identifies as the fragile inputs:
/// lock-event ordering and host-controlled `READ_ONCE` data.
pub struct ChaosHooks {
    inner: Arc<dyn GhostHooks>,
    cfg: ChaosCfg,
    state: Mutex<HookChaos>,
    counters: Arc<ChaosCounters>,
    /// The unified event stream injections are announced on, when wired
    /// through a [`Proxy`] (see [`ChaosHooks::wrap_recorded`]).
    events: Option<Arc<EventStream>>,
}

impl ChaosHooks {
    /// Wraps `inner` with the hook-plane chaos of `cfg`.
    pub fn wrap(inner: Arc<dyn GhostHooks>, cfg: &ChaosCfg) -> Arc<ChaosHooks> {
        Self::build(inner, cfg, None)
    }

    /// Like [`ChaosHooks::wrap`], but every injection is also emitted as
    /// an [`Event::Chaos`] on the unified stream.
    pub fn wrap_recorded(
        inner: Arc<dyn GhostHooks>,
        cfg: &ChaosCfg,
        events: Arc<EventStream>,
    ) -> Arc<ChaosHooks> {
        Self::build(inner, cfg, Some(events))
    }

    fn build(
        inner: Arc<dyn GhostHooks>,
        cfg: &ChaosCfg,
        events: Option<Arc<EventStream>>,
    ) -> Arc<ChaosHooks> {
        Arc::new(ChaosHooks {
            inner,
            cfg: *cfg,
            state: Mutex::new(HookChaos {
                rng: Rng::seed_from_u64(cfg.seed ^ 0x6861_6f73_686f_6f6b),
                last_read: HashMap::new(),
                delayed: VecDeque::new(),
            }),
            counters: Arc::new(ChaosCounters::default()),
            events,
        })
    }

    /// Announces one injection on the unified stream, when wired.
    fn note(&self, cpu: usize, kind: ChaosKind) {
        if let Some(ev) = &self.events {
            ev.emit(cpu as u32, None, Event::Chaos { cpu, kind });
        }
    }

    /// The shared injection counters (also incremented by the driver
    /// plane when wired through a [`Proxy`]).
    pub fn counters(&self) -> Arc<ChaosCounters> {
        self.counters.clone()
    }

    /// Snapshot of everything injected so far.
    pub fn injected(&self) -> ChaosInjected {
        self.counters.snapshot()
    }

    /// Delivers delayed events whose hold expired. Called at the head of
    /// every hook so a held event is overtaken by at least one later
    /// event before it lands.
    fn flush(&self, ctx: &HookCtx<'_>) {
        let due: Vec<DelayedEvent> = {
            let mut st = self.state.lock();
            if st.delayed.is_empty() {
                return;
            }
            let mut due = Vec::new();
            let mut keep = VecDeque::new();
            while let Some(mut ev) = st.delayed.pop_front() {
                if ev.hold == 0 {
                    due.push(ev);
                } else {
                    ev.hold -= 1;
                    keep.push_back(ev);
                }
            }
            st.delayed = keep;
            due
        };
        for ev in due {
            let late = HookCtx {
                mem: ctx.mem,
                cpu: ev.cpu,
            };
            if ev.release {
                self.inner.lock_releasing(&late, ev.comp, &ev.view);
            } else {
                self.inner.lock_acquired(&late, ev.comp, &ev.view);
            }
        }
    }

    /// One drop/dup/delay decision for a lock event; delivers (or not)
    /// to the inner hooks.
    fn lock_event(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView, release: bool) {
        self.flush(ctx);
        let (drop_it, dup_it, delay) = {
            let mut st = self.state.lock();
            let drop_it =
                self.cfg.p_drop_lock_event > 0.0 && st.rng.gen_bool(self.cfg.p_drop_lock_event);
            let dup_it =
                self.cfg.p_dup_lock_event > 0.0 && st.rng.gen_bool(self.cfg.p_dup_lock_event);
            let delay = self.cfg.p_delay_hook > 0.0 && st.rng.gen_bool(self.cfg.p_delay_hook);
            if !drop_it && delay {
                let hold = st.rng.gen_range(1..=2u32) as u8;
                st.delayed.push_back(DelayedEvent {
                    cpu: ctx.cpu,
                    comp,
                    view: view.clone(),
                    release,
                    hold,
                });
            }
            (drop_it, dup_it, delay)
        };
        if drop_it {
            self.counters.dropped_events.fetch_add(1, Ordering::Relaxed);
            self.note(ctx.cpu, ChaosKind::DroppedLock);
            return;
        }
        if delay {
            self.counters.delayed_events.fetch_add(1, Ordering::Relaxed);
            self.note(ctx.cpu, ChaosKind::DelayedHook);
            return;
        }
        if release {
            self.inner.lock_releasing(ctx, comp, view);
        } else {
            self.inner.lock_acquired(ctx, comp, view);
        }
        if dup_it {
            self.counters.duped_events.fetch_add(1, Ordering::Relaxed);
            self.note(ctx.cpu, ChaosKind::DupedLock);
            if release {
                self.inner.lock_releasing(ctx, comp, view);
            } else {
                self.inner.lock_acquired(ctx, comp, view);
            }
        }
    }
}

impl GhostHooks for ChaosHooks {
    fn trap_enter(
        &self,
        ctx: &HookCtx<'_>,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        self.flush(ctx);
        self.inner.trap_enter(ctx, esr, fault_ipa, regs, loaded);
    }

    fn trap_exit(
        &self,
        ctx: &HookCtx<'_>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        self.flush(ctx);
        self.inner.trap_exit(ctx, regs, loaded);
    }

    fn lock_acquired(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.lock_event(ctx, comp, view, false);
    }

    fn lock_releasing(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        self.lock_event(ctx, comp, view, true);
    }

    fn vcpu_loaded(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        self.flush(ctx);
        self.inner.vcpu_loaded(ctx, vm, vcpu_idx, view);
    }

    fn vcpu_put(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        self.flush(ctx);
        self.inner.vcpu_put(ctx, vm, vcpu_idx, view);
    }

    fn read_once(&self, ctx: &HookCtx<'_>, tag: &'static str, value: u64) {
        self.flush(ctx);
        let (reported, corrupt) = {
            let mut st = self.state.lock();
            let corrupt =
                self.cfg.p_torn_read_once > 0.0 && st.rng.gen_bool(self.cfg.p_torn_read_once);
            let reported = if corrupt {
                // Half stale (replay the previous value for this tag,
                // when one exists), half torn (one bit flipped).
                let stale = st.last_read.get(tag).copied();
                if st.rng.gen_bool(0.5) {
                    stale.unwrap_or(value ^ (1 << st.rng.gen_range(0..64u64)))
                } else {
                    value ^ (1 << st.rng.gen_range(0..64u64))
                }
            } else {
                value
            };
            st.last_read.insert(tag, value);
            if corrupt {
                self.counters.torn_reads.fetch_add(1, Ordering::Relaxed);
            }
            (reported, corrupt)
        };
        if corrupt {
            self.note(ctx.cpu, ChaosKind::TornReadOnce);
        }
        self.inner.read_once(ctx, tag, reported);
    }

    fn table_page_alloc(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        self.flush(ctx);
        self.inner.table_page_alloc(ctx, comp, page);
    }

    fn table_page_free(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        self.flush(ctx);
        self.inner.table_page_free(ctx, comp, page);
    }

    // The break-before-make instrumentation (downgrade, TLBI, DSB)
    // passes through untouched, like trap boundaries: corrupting it
    // would blame the hypervisor for the harness's own noise. The
    // stale-TLB family injects below the hooks, inside the TLB itself
    // (see [`StaleTlbPolicy`]), so the spec check sees the true
    // invalidation sequence while the hardware model misbehaves.
    fn pte_downgrade(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64) {
        self.flush(ctx);
        self.inner.pte_downgrade(ctx, vmid, ia, nr_pages);
    }

    fn tlbi(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64, broadcast: bool) {
        self.flush(ctx);
        self.inner.tlbi(ctx, vmid, ia, nr_pages, broadcast);
    }

    fn dsb(&self, ctx: &HookCtx<'_>) {
        self.flush(ctx);
        self.inner.dsb(ctx);
    }

    // The transfer-protocol and firmware-protection instrumentation also
    // passes through untouched, for the same reason as the TLB hooks: it
    // reports what the hypervisor *committed*, and corrupting it would
    // manufacture protocol violations the hypervisor never performed.
    fn transfer(&self, ctx: &HookCtx<'_>, edge: TransferEdge, pfn: u64, nr: u64, dirty: bool) {
        self.flush(ctx);
        self.inner.transfer(ctx, edge, pfn, nr, dirty);
    }

    fn firmware_donated(&self, ctx: &HookCtx<'_>, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        self.flush(ctx);
        self.inner.firmware_donated(ctx, handle, uniq, pfn, nr);
    }

    fn host_regain(&self, ctx: &HookCtx<'_>, pfn: u64, nr: u64) {
        self.flush(ctx);
        self.inner.host_regain(ctx, pfn, nr);
    }

    fn hyp_panic(&self, ctx: &HookCtx<'_>, reason: &str) {
        self.flush(ctx);
        self.inner.hyp_panic(ctx, reason);
    }

    fn wants_write_log(&self) -> bool {
        self.inner.wants_write_log()
    }
}

/// The TLB-plane chaos ([`ChaosFamily::StaleTlb`]): installed as the
/// machine's [`TlbInvalidationPolicy`]. With probability `p_stale_tlb`
/// a broadcast invalidation's delivery to one remote CPU is delayed
/// (half the time — it lands at a later [`TlbSet::settle`], which the
/// campaign's [`ChaosDriver`] ticks) or dropped outright, so that CPU
/// keeps serving the retained translation.
///
/// Soundness: the TLB core never fabricates — a suppressed delivery
/// retains an entry a real walk filled and marks it stale, and every
/// stale serve is counted ([`TlbSet::stale_served`]) against a recorded
/// suppression ([`TlbSet::suppressed_remote`]). The oracle's
/// break-before-make check reads the hook stream, which this plane does
/// not touch, so chaos staleness alone can never produce a
/// `break-before-make` violation.
///
/// [`TlbSet::settle`]: pkvm_aarch64::tlb::TlbSet::settle
/// [`TlbSet::stale_served`]: pkvm_aarch64::tlb::TlbSet::stale_served
/// [`TlbSet::suppressed_remote`]: pkvm_aarch64::tlb::TlbSet::suppressed_remote
pub struct StaleTlbPolicy {
    rng: Mutex<Rng>,
    p: f64,
    counters: Arc<ChaosCounters>,
    /// The unified event stream injections are announced on, when wired.
    events: Option<Arc<EventStream>>,
}

impl StaleTlbPolicy {
    /// A policy drawing from `cfg`'s seed; install with
    /// [`TlbSet::set_policy`](pkvm_aarch64::tlb::TlbSet::set_policy).
    pub fn new(
        cfg: &ChaosCfg,
        counters: Arc<ChaosCounters>,
        events: Option<Arc<EventStream>>,
    ) -> StaleTlbPolicy {
        StaleTlbPolicy {
            rng: Mutex::new(Rng::seed_from_u64(cfg.seed ^ 0x57a1_e71b)),
            p: cfg.p_stale_tlb,
            counters,
            events,
        }
    }
}

impl TlbInvalidationPolicy for StaleTlbPolicy {
    fn remote(&self, _issuer: usize, target: usize, _scope: &TlbiScope) -> RemoteDelivery {
        let (suppress, delay) = {
            let mut rng = self.rng.lock();
            let suppress = self.p > 0.0 && rng.gen_bool(self.p);
            let delay = suppress && rng.gen_bool(0.5);
            (suppress, delay)
        };
        if !suppress {
            return RemoteDelivery::Deliver;
        }
        self.counters.stale_tlbs.fetch_add(1, Ordering::Relaxed);
        if let Some(ev) = &self.events {
            ev.emit(
                target as u32,
                None,
                Event::Chaos {
                    cpu: target,
                    kind: ChaosKind::StaleTlb,
                },
            );
        }
        if delay {
            RemoteDelivery::Delay
        } else {
            RemoteDelivery::Drop
        }
    }
}

/// Driver-plane chaos: seeded per worker, stepped by the campaign loop
/// between tester steps. Bit flips target the hypervisor's pool pages
/// (the memory backing every stage 1/stage 2 translation table) and go
/// through [`Proxy::corrupt_mem`] — the raw, translation-bypassing
/// corruption primitive — so each flip is a recorded `CorruptMem` trace
/// op and replays bit-exactly.
pub struct ChaosDriver {
    rng: Rng,
    p_bit_flip: f64,
    /// Non-zero when the stale-TLB family is active: each step also
    /// settles one random CPU's delayed invalidations, so
    /// [`RemoteDelivery::Delay`] means *late*, not *never*.
    stale_tlb: bool,
    flips: u64,
}

impl ChaosDriver {
    /// A driver for `worker`, deriving its stream from the chaos seed.
    pub fn new(cfg: &ChaosCfg, worker: usize) -> ChaosDriver {
        ChaosDriver {
            rng: Rng::seed_from_u64(worker_seed(cfg.seed ^ 0xb17f_11b5, worker)),
            p_bit_flip: cfg.p_bit_flip,
            stale_tlb: cfg.p_stale_tlb > 0.0,
            flips: 0,
        }
    }

    /// One chaos opportunity: with the configured probability, flip one
    /// bit of one word of a *live* translation table. The driver starts
    /// at a root the hypervisor is actively using (the host's stage 2 or
    /// pKVM's stage 1) and random-descends through table descriptors, so
    /// flips land in page-table memory that matters rather than in free
    /// pool pages. Returns `true` if a flip was injected.
    pub fn step(&mut self, proxy: &Proxy) -> bool {
        if self.stale_tlb {
            // Tick the delayed-invalidation clock: one random CPU's
            // pending deliveries land, bounding the staleness window to
            // a few tester steps instead of forever.
            let m = &proxy.machine;
            if self.rng.gen_bool(0.5) {
                let cpu = self.rng.gen_range(0..m.tlb.nr_cpus() as u64) as usize;
                m.tlb.settle(cpu);
            }
        }
        if self.p_bit_flip <= 0.0 || !self.rng.gen_bool(self.p_bit_flip) {
            return false;
        }
        let m = &proxy.machine;
        let (pool_pfn, pool_pages) = m.state.hyp_range;
        if pool_pages == 0 {
            return false;
        }
        let pool = pool_pfn..pool_pfn + pool_pages;
        let root = if self.rng.gen_bool(0.5) {
            m.state.host_pgt.lock().root
        } else {
            m.state.hyp_pgt.lock().root
        };
        let mut page = root;
        for _ in 0..4 {
            let word = self.rng.gen_range(0..PAGE_SIZE / 8);
            let pa = page.wrapping_add(word * 8);
            let Ok(val) = m.mem.read_u64(pa) else {
                return false;
            };
            // Arm descriptor: bits [1:0] == 0b11 marks a next-level
            // table (at non-leaf levels); follow it sometimes so deeper
            // tables get corrupted too, else flip right here.
            let next = (val >> 12) & 0xf_ffff_ffff;
            if val & 0b11 == 0b11 && pool.contains(&next) && self.rng.gen_bool(0.7) {
                page = PhysAddr::from_pfn(next);
                continue;
            }
            let bit = self.rng.gen_range(0..64u64);
            proxy.corrupt_mem(pa, val ^ (1 << bit));
            proxy.events().emit(
                proxy.worker() as u32,
                None,
                Event::Chaos {
                    cpu: proxy.worker(),
                    kind: ChaosKind::BitFlip,
                },
            );
            self.flips += 1;
            if let Some(c) = proxy.chaos_counters() {
                c.bit_flips.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        false
    }

    /// Bits flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }
}

/// How one chaotic campaign run ended, in detection-matrix terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunVerdict {
    /// The oracle reported at least one violation (or the hypervisor's
    /// own `BUG()` fired): the injected fault was *detected*.
    Detected,
    /// A worker thread panicked with no violation reported: the
    /// *implementation or harness* crashed under corruption. Not an
    /// oracle failure — every oracle entry point runs contained — but
    /// reported honestly in its own column.
    ImplPanic,
    /// No violation, but the oracle's resilience counters moved:
    /// containment, quarantine or budget machinery absorbed the fault
    /// and said so. *Degraded but safe.*
    DegradedSafe,
    /// The run finished clean with no degradation recorded: the fault
    /// was absorbed silently (or never reached anything that matters).
    Silent,
}

/// Classifies one campaign run for the detection matrix.
pub fn classify(report: &CampaignReport) -> RunVerdict {
    if !report.violations.is_empty() || report.hyp_panic.is_some() {
        RunVerdict::Detected
    } else if report.workers.iter().any(|w| w.panicked.is_some()) {
        RunVerdict::ImplPanic
    } else if report.resilience.degraded() {
        RunVerdict::DegradedSafe
    } else {
        RunVerdict::Silent
    }
}

/// One family's row of the detection matrix.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The chaos family swept.
    pub family: ChaosFamily,
    /// Campaign runs performed.
    pub runs: u32,
    /// Total injections across the runs (from [`ChaosCounters`]).
    pub injected: u64,
    /// Runs ending [`RunVerdict::Detected`].
    pub detected: u32,
    /// Runs ending [`RunVerdict::DegradedSafe`].
    pub degraded_safe: u32,
    /// Runs ending [`RunVerdict::ImplPanic`].
    pub impl_panics: u32,
    /// Runs ending [`RunVerdict::Silent`].
    pub silent: u32,
    /// Oracle panics *contained* across the runs (each one reported as
    /// an `oracle-internal` violation, never propagated).
    pub contained: u64,
}

/// The chaos sweep report.
#[derive(Clone, Debug)]
pub struct ChaosMatrix {
    /// One row per swept family.
    pub rows: Vec<MatrixRow>,
    /// Total oracle panics contained across the whole sweep. Contained
    /// panics are *fine* (they are the containment layer working); what
    /// must be zero is oracle panics *escaping* — see
    /// [`ChaosMatrix::fail_safe`].
    pub contained_total: u64,
}

impl ChaosMatrix {
    /// The hard invariant of the sweep: every run either detected its
    /// fault, degraded safely, finished silent, or crashed in the
    /// *implementation* — the oracle never took the process down. With
    /// every oracle entry point contained, all runs classify into those
    /// four bins; `fail_safe` double-checks the books balance.
    pub fn fail_safe(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.detected + r.degraded_safe + r.impl_panics + r.silent == r.runs)
    }

    /// Renders the matrix as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>9} {:>9} {:>10} {:>11} {:>7} {:>10}",
            "family",
            "runs",
            "injected",
            "detected",
            "degraded",
            "impl-panic",
            "silent",
            "contained"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>9} {:>9} {:>10} {:>11} {:>7} {:>10}",
                r.family.name(),
                r.runs,
                r.injected,
                r.detected,
                r.degraded_safe,
                r.impl_panics,
                r.silent,
                r.contained,
            );
        }
        let _ = writeln!(
            out,
            "oracle panics contained (reported, never propagated): {}",
            self.contained_total
        );
        let _ = writeln!(
            out,
            "fail-safe invariant (no oracle panic escaped): {}",
            if self.fail_safe() { "HELD" } else { "BROKEN" }
        );
        out
    }
}

/// Detection-matrix sweep shape.
#[derive(Clone, Copy, Debug)]
pub struct MatrixCfg {
    /// Campaign runs per family.
    pub runs_per_family: u32,
    /// Base seed; each run derives its own campaign and chaos seeds.
    pub base_seed: u64,
    /// Steps per worker per run.
    pub steps: u64,
    /// Workers per run.
    pub workers: usize,
}

impl Default for MatrixCfg {
    fn default() -> Self {
        MatrixCfg {
            runs_per_family: 3,
            base_seed: 0xc405,
            steps: 250,
            workers: 2,
        }
    }
}

/// Runs the chaos detection matrix: for every family, several campaigns
/// on the *clean* hypervisor with only that family active, classified
/// per [`classify`]. A clean hypervisor means every detection is the
/// oracle noticing *injected* corruption — the mutation-score analogy.
pub fn detection_matrix(cfg: &MatrixCfg) -> ChaosMatrix {
    let mut rows = Vec::new();
    let mut contained_total = 0;
    for (fi, family) in ChaosFamily::ALL.into_iter().enumerate() {
        let mut row = MatrixRow {
            family,
            runs: cfg.runs_per_family,
            injected: 0,
            detected: 0,
            degraded_safe: 0,
            impl_panics: 0,
            silent: 0,
            contained: 0,
        };
        for run in 0..cfg.runs_per_family {
            let mix = worker_seed(cfg.base_seed, fi * 1000 + run as usize);
            let chaos = ChaosCfg::only(family).reseeded(mix ^ 0xc4a0);
            let report = CampaignCfg::builder()
                .workers(cfg.workers)
                .steps_per_worker(cfg.steps)
                .base_seed(mix)
                .stop_on_violation(false)
                .record_trace(false)
                .chaos(chaos)
                .run();
            row.injected += report.chaos_injected.map(|c| c.total()).unwrap_or(0);
            row.contained += report.resilience.contained_panics;
            contained_total += report.resilience.contained_panics;
            match classify(&report) {
                RunVerdict::Detected => row.detected += 1,
                RunVerdict::ImplPanic => row.impl_panics += 1,
                RunVerdict::DegradedSafe => row.degraded_safe += 1,
                RunVerdict::Silent => row.silent += 1,
            }
        }
        rows.push(row);
    }
    ChaosMatrix {
        rows,
        contained_total,
    }
}

/// One cell of the mutation mini-sweep: does the oracle still catch a
/// *known hypervisor bug* while a chaos family is actively corrupting
/// its inputs?
#[derive(Clone, Debug)]
pub struct MutationCell {
    /// The injected hypervisor fault.
    pub fault: Fault,
    /// The concurrently active chaos family.
    pub family: ChaosFamily,
    /// Whether the campaign still detected the fault.
    pub detected: bool,
    /// Oracle panics contained during the run.
    pub contained: u64,
    /// Whether any worker thread panicked (implementation crash).
    pub impl_panic: bool,
}

/// Runs the fault × chaos-family mutation sweep: each cell injects one
/// known bug *and* one chaos family, asking whether detection survives
/// the noise. Returns the cells in row-major (fault-major) order.
pub fn mutation_sweep(
    faults: &[Fault],
    families: &[ChaosFamily],
    base_seed: u64,
    steps: u64,
) -> Vec<MutationCell> {
    let mut cells = Vec::new();
    for (bi, &fault) in faults.iter().enumerate() {
        for (fi, &family) in families.iter().enumerate() {
            let mix = worker_seed(base_seed, bi * 100 + fi);
            let set = FaultSet::none();
            set.inject(fault);
            let report = CampaignCfg::builder()
                .workers(2)
                .steps_per_worker(steps)
                .base_seed(mix)
                .faults(&set)
                .record_trace(false)
                .chaos(ChaosCfg::only(family).reseeded(mix ^ 0xc4a0))
                .run();
            cells.push(MutationCell {
                fault,
                family,
                detected: !report.violations.is_empty() || report.hyp_panic.is_some(),
                contained: report.resilience.contained_panics,
                impl_panic: report.workers.iter().any(|w| w.panicked.is_some()),
            });
        }
    }
    cells
}

/// Renders mutation-sweep cells as an aligned table plus a score line.
pub fn render_mutation(cells: &[MutationCell]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:<16} {:>9} {:>10} {:>11}",
        "fault", "chaos", "detected", "contained", "impl-panic"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<28} {:<16} {:>9} {:>10} {:>11}",
            format!("{:?}", c.fault),
            c.family.name(),
            if c.detected { "yes" } else { "NO" },
            c.contained,
            if c.impl_panic { "yes" } else { "-" },
        );
    }
    let caught = cells.iter().filter(|c| c.detected).count();
    let _ = writeln!(
        out,
        "mutation score under chaos: {caught}/{} cells detected",
        cells.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_aarch64::PhysMem;

    #[test]
    fn family_names_round_trip() {
        for f in ChaosFamily::ALL {
            assert_eq!(ChaosFamily::from_name(f.name()), Some(f));
        }
        assert_eq!(ChaosFamily::from_name("nonsense"), None);
    }

    #[test]
    fn only_configs_are_single_family_and_default_is_inert() {
        assert!(ChaosCfg::default().is_inert());
        for f in ChaosFamily::ALL {
            assert!(
                !ChaosCfg::only(f).is_inert(),
                "{} config is inert",
                f.name()
            );
        }
    }

    /// Records every delivery so the decorator's perturbations are
    /// observable.
    #[derive(Default)]
    struct Recorder {
        lock_events: AtomicU64,
        reads: Mutex<Vec<u64>>,
    }

    impl GhostHooks for Recorder {
        fn lock_acquired(&self, _: &HookCtx<'_>, _: Component, _: &ComponentView) {
            self.lock_events.fetch_add(1, Ordering::Relaxed);
        }
        fn lock_releasing(&self, _: &HookCtx<'_>, _: Component, _: &ComponentView) {
            self.lock_events.fetch_add(1, Ordering::Relaxed);
        }
        fn read_once(&self, _: &HookCtx<'_>, _: &'static str, value: u64) {
            self.reads.lock().push(value);
        }
    }

    #[test]
    fn inert_chaos_is_a_transparent_decorator() {
        let rec = Arc::new(Recorder::default());
        let chaos = ChaosHooks::wrap(rec.clone(), &ChaosCfg::default());
        let mem = PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let view = ComponentView::Host {
            root: PhysAddr::new(0x1000),
        };
        for i in 0..100u64 {
            chaos.lock_acquired(&ctx, Component::Host, &view);
            chaos.read_once(&ctx, "tag", i);
            chaos.lock_releasing(&ctx, Component::Host, &view);
        }
        assert_eq!(rec.lock_events.load(Ordering::Relaxed), 200);
        assert_eq!(*rec.reads.lock(), (0..100).collect::<Vec<u64>>());
        assert_eq!(chaos.injected(), ChaosInjected::default());
    }

    #[test]
    fn lock_event_chaos_perturbs_the_delivered_stream() {
        let rec = Arc::new(Recorder::default());
        let cfg = ChaosCfg::builder()
            .seed(7)
            .drop_lock_event(0.2)
            .dup_lock_event(0.2)
            .build();
        let chaos = ChaosHooks::wrap(rec.clone(), &cfg);
        let mem = PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let view = ComponentView::Host {
            root: PhysAddr::new(0x1000),
        };
        for _ in 0..200u64 {
            chaos.lock_acquired(&ctx, Component::Host, &view);
        }
        let injected = chaos.injected();
        assert!(injected.dropped_events > 0, "no drops in 200 events");
        assert!(injected.duped_events > 0, "no dups in 200 events");
        let delivered = rec.lock_events.load(Ordering::Relaxed);
        assert_eq!(
            delivered,
            200 - injected.dropped_events + injected.duped_events
        );
    }

    #[test]
    fn delayed_events_are_delivered_late_not_lost() {
        let rec = Arc::new(Recorder::default());
        let cfg = ChaosCfg::builder().seed(11).delay_hook(0.5).build();
        let chaos = ChaosHooks::wrap(rec.clone(), &cfg);
        let mem = PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        let view = ComponentView::Host {
            root: PhysAddr::new(0x1000),
        };
        for _ in 0..100u64 {
            chaos.lock_acquired(&ctx, Component::Host, &view);
        }
        // Enough quiet hooks to flush every held event (max hold is 2).
        for _ in 0..4 {
            chaos.trap_enter(&ctx, Esr::hvc64(0), None, &GprFile::default(), None);
        }
        let injected = chaos.injected();
        assert!(injected.delayed_events > 0, "no delays in 100 events");
        // Every event eventually arrives: delayed, not dropped.
        assert_eq!(rec.lock_events.load(Ordering::Relaxed), 100);
    }

    fn run_reads(seed: u64, n: u64) -> (Vec<u64>, ChaosInjected) {
        let rec = Arc::new(Recorder::default());
        let cfg = ChaosCfg::builder().seed(seed).torn_read_once(0.3).build();
        let chaos = ChaosHooks::wrap(rec.clone(), &cfg);
        let mem = PhysMem::new(vec![]);
        let ctx = HookCtx { mem: &mem, cpu: 0 };
        for i in 0..n {
            chaos.read_once(&ctx, "tag", i);
        }
        let reads = rec.reads.lock().clone();
        (reads, chaos.injected())
    }

    #[test]
    fn torn_reads_corrupt_values_and_replay_per_seed() {
        let (reads, injected) = run_reads(3, 200);
        assert_eq!(reads.len(), 200);
        assert!(injected.torn_reads > 0, "no torn reads in 200");
        let clean = (0..200).collect::<Vec<u64>>();
        assert_ne!(reads, clean, "torn reads never changed a value");
        // Same seed, same corruption stream — the determinism that makes
        // chaotic campaigns replayable.
        let (again, injected2) = run_reads(3, 200);
        assert_eq!(reads, again);
        assert_eq!(injected, injected2);
        // Different seed, different stream.
        let (other, _) = run_reads(4, 200);
        assert_ne!(reads, other);
    }

    #[test]
    fn driver_bit_flips_are_recorded_and_stay_in_ram() {
        let p = Proxy::builder().record(true).boot();
        let mut cur = p.events().cursor();
        p.events().poll(&mut cur); // skip boot-time events
        let cfg = ChaosCfg::builder().seed(9).bit_flip(1.0).build();
        let mut driver = ChaosDriver::new(&cfg, 0);
        for _ in 0..32 {
            driver.step(&p);
        }
        // With p = 1 the only misses are descents that never settled on
        // a word; most steps must flip.
        assert!(
            driver.flips() >= 16,
            "only {} flips in 32 steps",
            driver.flips()
        );
        let recs = p.events().poll(&mut cur);
        let writes: Vec<u64> = recs
            .iter()
            .filter_map(|r| match r.event {
                Event::CorruptMem { pa, .. } => Some(pa),
                _ => None,
            })
            .collect();
        assert_eq!(writes.len() as u64, driver.flips());
        // Every flip is also tagged on the stream, so trace consumers can
        // tell an injected write from a driver's parameter-page setup.
        let tagged = recs
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    Event::Chaos {
                        kind: ChaosKind::BitFlip,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(tagged as u64, driver.flips());
        let (pool_pfn, pool_pages) = p.machine.state.hyp_range;
        for pa in writes {
            let pfn = pa >> 12;
            assert!(
                (pool_pfn..pool_pfn + pool_pages).contains(&pfn),
                "flip at {pa:#x} landed outside the pool"
            );
        }
    }

    #[test]
    fn stale_tlb_chaos_serves_only_entries_the_discipline_left_live() {
        use pkvm_aarch64::walk::Access;

        // Always suppress remote deliveries: CPU 1 warms a host entry,
        // CPU 0 donates the page, and the broadcast invalidation never
        // reaches CPU 1.
        let cfg = ChaosCfg::builder().seed(0x57a1).stale_tlb(1.0).build();
        let p = Proxy::builder().chaos(Some(cfg)).boot();
        let h = p.init_vm(0, 1, true).unwrap();
        p.init_vcpu(0, h, 0).unwrap();
        p.vcpu_load(0, h, 0).unwrap();
        let pfn = p.alloc_page();
        p.host_access(1, pfn * PAGE_SIZE, Access::Read).unwrap();
        p.topup_raw(0, pfn << 12, 1).unwrap();

        let tlb = &p.machine.tlb;
        assert!(tlb.suppressed_remote() > 0, "no delivery was suppressed");
        // The policy's injection counter and the TLB's suppression
        // counter account for the same decisions, one for one.
        assert_eq!(
            p.chaos_injected().unwrap().stale_tlbs,
            tlb.suppressed_remote()
        );
        // The suppressed delivery — and only that — leaves CPU 1 serving
        // the retained entry, counted as a stale serve.
        assert_eq!(tlb.stale_served(), 0);
        assert!(
            p.host_access(1, pfn * PAGE_SIZE, Access::Read).is_ok(),
            "suppressed invalidation must leave CPU 1's entry live"
        );
        assert!(tlb.stale_served() > 0);
        // The issuing CPU delivered locally and faults correctly.
        assert!(p.host_access(0, pfn * PAGE_SIZE, Access::Read).is_err());
        // The chaos sits below the hook stream: the hypervisor's own
        // invalidation sequence was complete, so the spec check must not
        // blame it for the staleness the harness injected.
        assert!(
            p.violations()
                .iter()
                .all(|v| v.kind() != "break-before-make"),
            "stale-tlb chaos fabricated a break-before-make verdict: {:?}",
            p.violations()
        );
    }

    #[test]
    fn without_stale_chaos_no_delivery_is_suppressed() {
        use pkvm_aarch64::walk::Access;

        // The converse soundness direction: zero suppressions implies
        // zero stale serves, with or (here) without a policy installed.
        let p = Proxy::boot_default();
        let h = p.init_vm(0, 1, true).unwrap();
        p.init_vcpu(0, h, 0).unwrap();
        p.vcpu_load(0, h, 0).unwrap();
        let pfn = p.alloc_page();
        p.host_access(1, pfn * PAGE_SIZE, Access::Read).unwrap();
        p.topup_raw(0, pfn << 12, 1).unwrap();
        assert_eq!(p.machine.tlb.suppressed_remote(), 0);
        assert!(p.host_access(1, pfn * PAGE_SIZE, Access::Read).is_err());
        assert_eq!(p.machine.tlb.stale_served(), 0);
    }

    #[test]
    fn classify_orders_detection_over_degradation() {
        let report = CampaignCfg::builder()
            .workers(1)
            .steps_per_worker(50)
            .record_trace(false)
            .run();
        assert_eq!(classify(&report), RunVerdict::Silent);
    }
}
