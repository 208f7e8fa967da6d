//! The "hyp-proxy": driving the hypercall API from test code.
//!
//! The paper's security model treats the kernel as untrusted after
//! initialisation, so tests must exercise *arbitrary* hypercalls — but
//! one wants to write them in user space. Their hyp-proxy kernel patch
//! exposes pKVM API calls and kernel memory management to user space;
//! [`Proxy`] plays the same role here: it bundles a booted machine with
//! an optional oracle, a simple host page allocator (the "allocate kernel
//! memory" half), and both well-behaved and raw invocation helpers (the
//! OCaml-library half of §5).

use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::walk::Access;
use pkvm_ghost::event::{ChaosKind, Event, EventStream};
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_ghost::{CheckMode, Verdict, Violation};
use pkvm_hyp::error::Errno;
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hypercalls::*;
use pkvm_hyp::machine::{HostAccessFault, Machine, MachineConfig};
use pkvm_hyp::vm::{GuestOp, Handle};

use crate::chaos::{ChaosCfg, ChaosCounters, ChaosHooks, ChaosInjected, StaleTlbPolicy};
use crate::rng::Rng;

/// Proxy construction options.
///
/// Construct with [`Proxy::builder`] (or [`Default`]): the builder keeps
/// call sites valid as options are added.
#[non_exhaustive]
pub struct ProxyOpts {
    /// Machine shape.
    pub config: MachineConfig,
    /// Install the ghost oracle (the `CONFIG_NVHE_GHOST_SPEC=y` build).
    pub with_oracle: bool,
    /// Switches for the installed oracle (ignored without one).
    pub oracle_opts: OracleOpts,
    /// Faults to inject before boot.
    pub faults: FaultSet,
    /// Chaos injection (hook-plane corruption and allocator chaos),
    /// when testing the oracle's own resilience.
    pub chaos: Option<ChaosCfg>,
    /// Retain the full event timeline for replay/persistence (sequence
    /// numbers are assigned either way, so violation ids are stable).
    pub record: bool,
}

impl Default for ProxyOpts {
    fn default() -> Self {
        Self {
            config: MachineConfig::default(),
            with_oracle: true,
            oracle_opts: OracleOpts::default(),
            faults: FaultSet::none(),
            chaos: None,
            record: false,
        }
    }
}

/// Fluent construction of a [`Proxy`]; see [`Proxy::builder`].
#[derive(Default)]
pub struct ProxyBuilder(ProxyOpts);

impl ProxyBuilder {
    /// Sets the machine shape.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Install (or omit) the ghost oracle (default installed).
    pub fn with_oracle(mut self, on: bool) -> Self {
        self.0.with_oracle = on;
        self
    }

    /// Sets the oracle's switches (implies the oracle stays installed).
    pub fn oracle_opts(mut self, opts: OracleOpts) -> Self {
        self.0.oracle_opts = opts;
        self
    }

    /// Sets the oracle's [`CheckMode`] (sugar over
    /// [`oracle_opts`](Self::oracle_opts)): `Inline` checks synchronously
    /// inside each hook, `Pipelined` hands checking to an off-thread
    /// checker behind the execution frontier.
    pub fn check_mode(mut self, mode: CheckMode) -> Self {
        self.0.oracle_opts.check_mode = mode;
        self
    }

    /// Adds faults to inject before boot.
    pub fn faults(mut self, faults: FaultSet) -> Self {
        self.0.faults = faults;
        self
    }

    /// Installs chaos injection (decorating whatever hooks are booted —
    /// the oracle's, or `NoHooks` when the oracle is off).
    pub fn chaos(mut self, chaos: Option<ChaosCfg>) -> Self {
        self.0.chaos = chaos;
        self
    }

    /// Retain the full event timeline (default off: only the bounded
    /// violation/check indexes are kept).
    pub fn record(mut self, on: bool) -> Self {
        self.0.record = on;
        self
    }

    /// Boots the machine and wraps it.
    pub fn boot(self) -> Proxy {
        Proxy::boot(self.0)
    }
}

/// The host page-allocator range a proxy hands pages out of.
#[derive(Debug)]
struct AllocRange {
    next: u64,
    end: u64,
}

/// Allocator misbehaviour state (the [`crate::chaos`] `AllocChaos`
/// family): with probability `p`, an allocation returns a duplicate of a
/// recently granted page instead of a fresh one — pages the caller still
/// owns, so the hypervisor's ownership checks (not the harness) must
/// cope. Per-handle, seeded, so each worker's misbehaviour stream is
/// deterministic.
struct AllocChaos {
    p: f64,
    rng: Rng,
    recent: Vec<u64>,
    counters: Arc<ChaosCounters>,
}

impl AllocChaos {
    /// Perturbs (or passes through) one granted allocation; the flag
    /// reports whether a duplicate was injected.
    fn perturb(&mut self, pfn: u64) -> (u64, bool) {
        if !self.recent.is_empty() && self.rng.gen_bool(self.p) {
            let i = self.rng.gen_range(0..self.recent.len());
            self.counters
                .alloc_faults
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return (self.recent[i], true);
        }
        self.recent.push(pfn);
        if self.recent.len() > 32 {
            self.recent.remove(0);
        }
        (pfn, false)
    }
}

/// A user-space-like handle on the hypervisor under test.
///
/// Cloning is cheap (two `Arc` bumps) and clones share the machine, the
/// oracle *and* the allocator — use [`Proxy::partition`] to split the
/// allocator into disjoint per-worker ranges instead when several
/// threads drive the same machine, so each worker's page stream stays
/// deterministic regardless of the interleaving.
#[derive(Clone)]
pub struct Proxy {
    /// The simulated machine.
    pub machine: Arc<Machine>,
    /// The oracle, when installed.
    pub oracle: Option<Arc<Oracle>>,
    alloc: Arc<Mutex<AllocRange>>,
    worker: usize,
    /// The unified event stream every producer (driver ops, oracle
    /// hooks, chaos injections) records into.
    events: Arc<EventStream>,
    /// The chaos decorator, when chaos was configured at boot.
    chaos: Option<Arc<ChaosHooks>>,
    /// The chaos config, kept so [`Proxy::partition`] can reseed
    /// per-worker allocator chaos.
    chaos_cfg: Option<ChaosCfg>,
    alloc_chaos: Option<Arc<Mutex<AllocChaos>>>,
}

impl Proxy {
    /// Starts a builder; configure the options fluently, then
    /// [`boot`](ProxyBuilder::boot).
    pub fn builder() -> ProxyBuilder {
        ProxyBuilder::default()
    }

    /// Boots a machine per `opts` and wraps it.
    pub fn boot(opts: ProxyOpts) -> Proxy {
        let events = Arc::new(EventStream::new(
            opts.record,
            opts.oracle_opts.violation_cap,
        ));
        let oracle = opts
            .with_oracle
            .then(|| Oracle::with_stream(&opts.config, opts.oracle_opts, events.clone()));
        let faults = Arc::new(opts.faults);
        let inner: Arc<dyn pkvm_hyp::hooks::GhostHooks> = match &oracle {
            Some(o) => o.clone(),
            None => Arc::new(pkvm_hyp::hooks::NoHooks),
        };
        // Chaos decorates whatever hooks boot — the corruption sits
        // between the hypervisor's instrumentation and the oracle.
        let chaos = opts
            .chaos
            .map(|cfg| ChaosHooks::wrap_recorded(inner.clone(), &cfg, events.clone()));
        let hooks: Arc<dyn pkvm_hyp::hooks::GhostHooks> = match &chaos {
            Some(c) => c.clone(),
            None => inner,
        };
        let machine = Machine::boot(opts.config.clone(), hooks, faults);
        // TLB-plane chaos: the stale-translation policy sits inside the
        // machine's TLB, below the hook stream, suppressing broadcast
        // invalidation deliveries to remote CPUs.
        if let (Some(cfg), Some(c)) = (&opts.chaos, &chaos) {
            if cfg.p_stale_tlb > 0.0 {
                machine.tlb.set_policy(Some(Arc::new(StaleTlbPolicy::new(
                    cfg,
                    c.counters(),
                    Some(events.clone()),
                ))));
            }
        }
        // The allocator hands out pages from the middle of the last DRAM
        // region, clear of the carveout at its top.
        let (base, size) = *opts.config.dram.last().expect("config has DRAM");
        let carveout = opts.config.hyp_pool_pages * PAGE_SIZE;
        let start = (base + size / 2) >> 12;
        let end = (base + size - carveout) >> 12;
        assert!(start < end, "DRAM too small for the test allocator");
        let alloc_chaos = opts.chaos.and_then(|cfg| {
            let counters = chaos.as_ref()?.counters();
            (cfg.p_alloc_chaos > 0.0).then(|| {
                Arc::new(Mutex::new(AllocChaos {
                    p: cfg.p_alloc_chaos,
                    rng: Rng::seed_from_u64(cfg.seed ^ 0xa110_cca0),
                    recent: Vec::new(),
                    counters,
                }))
            })
        });
        Proxy {
            machine,
            oracle,
            alloc: Arc::new(Mutex::new(AllocRange { next: start, end })),
            worker: 0,
            events,
            chaos,
            chaos_cfg: opts.chaos,
            alloc_chaos,
        }
    }

    /// Boots with default options (oracle on, no faults).
    pub fn boot_default() -> Proxy {
        Self::boot(ProxyOpts::default())
    }

    /// Splits this proxy's *remaining* allocator range into `n` disjoint
    /// sub-ranges and returns one clone per range, numbered `0..n` (the
    /// worker id, reported in recorded traces). The parent's own range is
    /// consumed: after partitioning, allocations must go through the
    /// returned handles.
    ///
    /// # Panics
    ///
    /// Panics if the remaining range is too small to give every worker a
    /// useful slice.
    pub fn partition(&self, n: usize) -> Vec<Proxy> {
        assert!(n > 0, "cannot partition into zero workers");
        let mut alloc = self.alloc.lock();
        let (start, end) = (alloc.next, alloc.end);
        alloc.next = end;
        drop(alloc);
        let span = (end - start) / n as u64;
        assert!(span > 0, "allocator range too small to partition {n} ways");
        (0..n as u64)
            .map(|i| {
                let lo = start + i * span;
                let hi = if i + 1 == n as u64 { end } else { lo + span };
                // Each worker gets its own seeded allocator-chaos stream
                // so per-worker page streams stay deterministic under
                // any thread interleaving (same property as the range
                // split itself).
                let alloc_chaos = self.chaos_cfg.as_ref().and_then(|cfg| {
                    let counters = self.chaos.as_ref()?.counters();
                    (cfg.p_alloc_chaos > 0.0).then(|| {
                        Arc::new(Mutex::new(AllocChaos {
                            p: cfg.p_alloc_chaos,
                            rng: Rng::seed_from_u64(crate::campaign::worker_seed(
                                cfg.seed ^ 0xa110_cca0,
                                i as usize,
                            )),
                            recent: Vec::new(),
                            counters,
                        }))
                    })
                });
                Proxy {
                    machine: self.machine.clone(),
                    oracle: self.oracle.clone(),
                    alloc: Arc::new(Mutex::new(AllocRange { next: lo, end: hi })),
                    worker: i as usize,
                    events: self.events.clone(),
                    chaos: self.chaos.clone(),
                    chaos_cfg: self.chaos_cfg,
                    alloc_chaos,
                }
            })
            .collect()
    }

    /// This handle's worker id (0 unless produced by [`Proxy::partition`]).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The unified event stream: every hypercall, parameter-page write,
    /// host access and guest-op injection made through this handle is
    /// emitted (immediately before it executes) for deterministic
    /// replay, interleaved with the oracle's and chaos engine's events.
    pub fn events(&self) -> &Arc<EventStream> {
        &self.events
    }

    fn emit(&self, event: Event) {
        self.events.emit(self.worker as u32, None, event);
    }

    /// Allocates `n` contiguous host pages, returning the first pfn, or
    /// `None` when this handle's range is exhausted. Long campaigns hit
    /// exhaustion as a matter of course; it must degrade into `-ENOMEM`
    /// behaviour, not a panic.
    pub fn try_alloc_pages(&self, n: u64) -> Option<u64> {
        let pfn = {
            let mut alloc = self.alloc.lock();
            if alloc.next + n > alloc.end {
                return None;
            }
            let pfn = alloc.next;
            alloc.next += n;
            pfn
        };
        // Allocator chaos: occasionally hand back a page the caller was
        // already granted. The fresh range is still consumed, so
        // exhaustion (and termination) behave exactly as without chaos.
        if let Some(chaos) = &self.alloc_chaos {
            let (pfn, duped) = chaos.lock().perturb(pfn);
            if duped {
                self.emit(Event::Chaos {
                    cpu: self.worker,
                    kind: ChaosKind::AllocChaos,
                });
            }
            return Some(pfn);
        }
        Some(pfn)
    }

    /// Allocates `n` contiguous host pages, returning the first pfn.
    ///
    /// # Panics
    ///
    /// Panics when the allocator range is exhausted (use
    /// [`Proxy::try_alloc_pages`] where exhaustion is expected).
    pub fn alloc_pages(&self, n: u64) -> u64 {
        self.try_alloc_pages(n)
            .expect("host test allocator exhausted")
    }

    /// Allocates one host page.
    pub fn alloc_page(&self) -> u64 {
        self.alloc_pages(1)
    }

    /// Raw hypercall with arbitrary function id and arguments.
    pub fn hvc(&self, cpu: usize, func: u64, args: &[u64]) -> u64 {
        self.emit(Event::Hvc {
            cpu,
            func,
            args: args.to_vec(),
        });
        self.machine.hvc(cpu, func, args)
    }

    /// Writes host memory (parameter-page setup), recorded for replay.
    ///
    /// The write carries *host* privilege: it goes through the host's
    /// stage 2 (on CPU 0), so writing a page the host no longer owns
    /// faults into the hypervisor like hardware instead of silently
    /// corrupting hypervisor state. Mutated or re-spliced traces
    /// routinely move a once-legitimate write into a context where the
    /// page has been donated away; this keeps such inputs physical.
    pub fn write_mem(&self, pa: PhysAddr, value: u64) {
        self.emit(Event::WriteMem {
            pa: pa.bits(),
            value,
        });
        let _ = self.machine.host_write(0, pa.bits(), value);
    }

    /// Writes physical memory raw, bypassing all translation — the chaos
    /// engine's corruption primitive, recorded for bit-exact replay. Not
    /// a host action: nothing the host driver models may use this.
    pub fn corrupt_mem(&self, pa: PhysAddr, value: u64) {
        self.emit(Event::CorruptMem {
            pa: pa.bits(),
            value,
        });
        self.machine.mem.write_u64(pa, value).expect("RAM");
    }

    /// A host load/store through the host's stage 2, recorded for replay.
    ///
    /// # Errors
    ///
    /// Returns [`HostAccessFault`] if the access faults.
    pub fn host_access(
        &self,
        cpu: usize,
        addr: u64,
        access: Access,
    ) -> Result<u64, HostAccessFault> {
        self.emit(Event::HostAccess { cpu, addr, access });
        self.machine.host_access(cpu, addr, access)
    }

    /// `host_share_hyp` as a result.
    pub fn share(&self, cpu: usize, pfn: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_HOST_SHARE_HYP, &[pfn]))
    }

    /// `host_unshare_hyp` as a result.
    pub fn unshare(&self, cpu: usize, pfn: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_HOST_UNSHARE_HYP, &[pfn]))
    }

    /// `host_reclaim_page` as a result.
    pub fn reclaim(&self, cpu: usize, pfn: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_HOST_RECLAIM_PAGE, &[pfn]))
    }

    /// Well-behaved `init_vm`: writes a parameter page, donates fresh
    /// pages, returns the handle. `-ENOMEM` when the test allocator is
    /// exhausted.
    pub fn init_vm(&self, cpu: usize, nr_vcpus: u64, protected: bool) -> Result<Handle, Errno> {
        let params_pfn = self.try_alloc_pages(1).ok_or(Errno::ENOMEM)?;
        let pa = PhysAddr::from_pfn(params_pfn);
        self.write_mem(pa, nr_vcpus);
        self.write_mem(pa.wrapping_add(8), protected as u64);
        let donate = self.try_alloc_pages(2).ok_or(Errno::ENOMEM)?;
        let ret = self.hvc(cpu, HVC_INIT_VM, &[params_pfn, donate, 2]);
        match Errno::from_ret(ret) {
            Some(e) => Err(e),
            None => Ok(ret as Handle),
        }
    }

    /// Well-behaved `init_vcpu` with a fresh donation. `-ENOMEM` when the
    /// test allocator is exhausted.
    pub fn init_vcpu(&self, cpu: usize, handle: Handle, idx: u64) -> Result<(), Errno> {
        let donate = self.try_alloc_pages(1).ok_or(Errno::ENOMEM)?;
        as_result(self.hvc(cpu, HVC_INIT_VCPU, &[handle as u64, idx, donate]))
    }

    /// `teardown_vm` as a result.
    pub fn teardown(&self, cpu: usize, handle: Handle) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_TEARDOWN_VM, &[handle as u64]))
    }

    /// `vcpu_load` as a result.
    pub fn vcpu_load(&self, cpu: usize, handle: Handle, idx: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_VCPU_LOAD, &[handle as u64, idx]))
    }

    /// `vcpu_put` as a result.
    pub fn vcpu_put(&self, cpu: usize) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_VCPU_PUT, &[]))
    }

    /// `vcpu_run`, returning the exit code.
    pub fn vcpu_run(&self, cpu: usize) -> Result<u64, Errno> {
        let ret = self.hvc(cpu, HVC_VCPU_RUN, &[]);
        match Errno::from_ret(ret) {
            Some(e) => Err(e),
            None => Ok(ret),
        }
    }

    /// Well-behaved memcache top-up with freshly allocated pages.
    /// `-ENOMEM` when the test allocator is exhausted.
    pub fn topup(&self, cpu: usize, nr: u64) -> Result<(), Errno> {
        let pfn = self.try_alloc_pages(nr).ok_or(Errno::ENOMEM)?;
        as_result(self.hvc(cpu, HVC_TOPUP_MEMCACHE, &[pfn << 12, nr]))
    }

    /// Raw memcache top-up with an arbitrary address.
    pub fn topup_raw(&self, cpu: usize, addr: u64, nr: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_TOPUP_MEMCACHE, &[addr, nr]))
    }

    /// `host_map_guest` with a freshly allocated host page; returns the
    /// pfn. `-ENOMEM` when the test allocator is exhausted.
    pub fn map_guest(&self, cpu: usize, gfn: u64) -> Result<u64, Errno> {
        let pfn = self.try_alloc_pages(1).ok_or(Errno::ENOMEM)?;
        as_result(self.hvc(cpu, HVC_HOST_MAP_GUEST, &[pfn, gfn])).map(|()| pfn)
    }

    /// `host_map_guest` with a caller-chosen pfn.
    pub fn map_guest_pfn(&self, cpu: usize, pfn: u64, gfn: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_HOST_MAP_GUEST, &[pfn, gfn]))
    }

    /// `vm_load_firmware`: donates `nr` host pages at `pfn` as the VM's
    /// pvmfw-style firmware region, mapped at `gfn` before any vCPU runs.
    pub fn load_firmware(
        &self,
        cpu: usize,
        handle: Handle,
        pfn: u64,
        gfn: u64,
        nr: u64,
    ) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_VM_LOAD_FIRMWARE, &[handle as u64, pfn, gfn, nr]))
    }

    /// `vcpu_get_reg(n)`: reads a saved register of the loaded vCPU.
    pub fn vcpu_get_reg(&self, cpu: usize, n: u64) -> Result<u64, Errno> {
        let ret = self.hvc(cpu, HVC_VCPU_GET_REG, &[n]);
        match Errno::from_ret(ret) {
            Some(e) => Err(e),
            None => Ok(self.machine.cpus[cpu].lock().regs.get(2)),
        }
    }

    /// `vcpu_set_reg(n, value)`: writes a saved register of the loaded vCPU.
    pub fn vcpu_set_reg(&self, cpu: usize, n: u64, value: u64) -> Result<(), Errno> {
        as_result(self.hvc(cpu, HVC_VCPU_SET_REG, &[n, value]))
    }

    /// Enqueues a guest action, recorded for replay.
    pub fn push_guest_op(&self, handle: Handle, idx: usize, op: GuestOp) -> Result<(), Errno> {
        self.emit(Event::PushGuestOp { handle, idx, op });
        self.machine.push_guest_op(handle, idx, op)
    }

    /// Everything chaos injected so far (`None` without chaos).
    pub fn chaos_injected(&self) -> Option<ChaosInjected> {
        self.chaos.as_ref().map(|c| c.injected())
    }

    /// The shared chaos counters, when chaos is installed (the driver
    /// plane reports its bit flips through them).
    pub fn chaos_counters(&self) -> Option<Arc<ChaosCounters>> {
        self.chaos.as_ref().map(|c| c.counters())
    }

    /// A [`Verdict`] handle over the installed oracle (`None` without
    /// one): `wait()` for the checker to drain, then read the violations
    /// and stats through the handle.
    pub fn verdict(&self) -> Option<Verdict> {
        self.oracle.as_ref().map(|o| o.verdict())
    }

    /// Violations the oracle has recorded (empty without an oracle).
    ///
    /// Synchronises with the checker first (a no-op inline), so the
    /// answer covers everything driven through this handle so far even
    /// in [`CheckMode::Pipelined`].
    pub fn violations(&self) -> Vec<Violation> {
        self.oracle
            .as_ref()
            .map(|o| {
                o.barrier();
                o.violations()
            })
            .unwrap_or_default()
    }

    /// Returns `true` when no violations are recorded and the hypervisor
    /// has not panicked. Synchronises like [`Proxy::violations`].
    pub fn all_clear(&self) -> bool {
        self.violations().is_empty() && self.machine.panicked().is_none()
    }
}

fn as_result(ret: u64) -> Result<(), Errno> {
    match Errno::from_ret(ret) {
        Some(e) => Err(e),
        None if ret == 0 => Ok(()),
        None => Ok(()), // positive results (handles, exit codes) handled by callers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_boot_and_basic_flow() {
        let p = Proxy::boot_default();
        assert!(p.oracle.as_ref().unwrap().check_boot());
        let pfn = p.alloc_page();
        p.share(0, pfn).unwrap();
        p.unshare(0, pfn).unwrap();
        assert!(p.all_clear(), "{:?}", p.violations());
    }

    #[test]
    fn proxy_vm_helpers() {
        let p = Proxy::boot_default();
        let h = p.init_vm(0, 1, true).unwrap();
        p.init_vcpu(0, h, 0).unwrap();
        p.vcpu_load(0, h, 0).unwrap();
        p.topup(0, 8).unwrap();
        let pfn = p.map_guest(0, 0x10).unwrap();
        p.vcpu_put(0).unwrap();
        p.teardown(0, h).unwrap();
        p.reclaim(0, pfn).unwrap();
        assert!(p.all_clear(), "{:?}", p.violations());
    }

    #[test]
    fn allocator_hands_out_distinct_pages() {
        let p = Proxy::boot_default();
        let a = p.alloc_pages(3);
        let b = p.alloc_page();
        assert_eq!(b, a + 3);
    }

    #[test]
    fn partitioned_allocators_are_disjoint_and_consume_the_parent() {
        let p = Proxy::boot_default();
        let parts = p.partition(4);
        assert_eq!(parts.len(), 4);
        // Parent range is consumed.
        assert_eq!(p.try_alloc_pages(1), None);
        // Each worker's allocations stay inside its own slice, disjoint
        // from every other worker's, independent of allocation order.
        let mut seen = std::collections::HashSet::new();
        for part in &parts {
            for _ in 0..8 {
                let pfn = part.try_alloc_pages(1).expect("slice not exhausted");
                assert!(seen.insert(pfn), "pfn {pfn:#x} handed out twice");
            }
        }
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.worker(), i);
        }
    }

    #[test]
    fn allocator_exhaustion_degrades_into_enomem() {
        let p = Proxy::boot_default();
        // Drain the allocator, then every helper that needs fresh pages
        // must report -ENOMEM instead of panicking.
        while p.try_alloc_pages(64).is_some() {}
        while p.try_alloc_pages(1).is_some() {}
        assert_eq!(p.init_vm(0, 1, true), Err(Errno::ENOMEM));
        assert_eq!(p.init_vcpu(0, 0x1000, 0), Err(Errno::ENOMEM));
        assert_eq!(p.topup(0, 4), Err(Errno::ENOMEM));
        assert_eq!(p.map_guest(0, 0x10), Err(Errno::ENOMEM));
    }

    #[test]
    fn recorded_handles_capture_the_op_stream() {
        let p = Proxy::builder().record(true).boot();
        let mut cur = p.events().cursor();
        let mut recs = Vec::new();
        p.events().poll_into(&mut cur, &mut recs); // skip boot-time events
        let pfn = p.alloc_page();
        p.share(0, pfn).unwrap();
        // Drain into the same buffer — the long-lived-cursor pattern that
        // avoids a fresh Vec per poll.
        p.events().poll_into(&mut cur, &mut recs);
        let drivers: Vec<_> = recs.iter().filter(|r| r.event.is_driver()).collect();
        assert_eq!(drivers.len(), 1);
        assert_eq!(drivers[0].lane, 0);
        assert!(matches!(
            &drivers[0].event,
            Event::Hvc { cpu: 0, func, args } if *func == HVC_HOST_SHARE_HYP && args == &[pfn]
        ));
        // Polling again appends only what arrived since — no recopying.
        assert_eq!(p.events().poll_into(&mut cur, &mut recs), 0);
    }

    #[test]
    fn proxy_without_oracle_runs_bare() {
        let p = Proxy::builder().with_oracle(false).boot();
        assert!(p.oracle.is_none());
        let pfn = p.alloc_page();
        p.share(0, pfn).unwrap();
        assert!(p.violations().is_empty());
    }
}
