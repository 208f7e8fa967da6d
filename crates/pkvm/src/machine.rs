//! The simulated machine: memory, hardware threads, and the hypervisor.
//!
//! A [`Machine`] owns the physical memory, the per-CPU register state, and
//! the hypervisor's shared state, and exposes the *architectural* surface
//! the host kernel sees: raising hypercalls ([`Machine::hvc`]) and making
//! memory accesses that are translated through the host's stage 2
//! ([`Machine::host_access`]). Tests never reach into hypervisor
//! internals; like the paper's hyp-proxy, they drive it through this
//! boundary only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::esr::Esr;
use pkvm_aarch64::memory::{MemRegion, PhysMem};
use pkvm_aarch64::sync::{Mutex, MutexGuard};
use pkvm_aarch64::sysreg::{GprFile, SysRegs, Vttbr};
use pkvm_aarch64::tlb::{TlbSet, VMID_HOST};
use pkvm_aarch64::walk::{translate, walk, Access};

use crate::cov;
use crate::error::{Errno, HypResult};
use crate::faults::{Fault, FaultSet};
use crate::hooks::{Component, GhostHooks, NoHooks};
use crate::mem_protect::hyp_attrs;
use crate::mm::compute_layout;
use crate::owner::{annotation_pte, OwnerId, PageState};
use crate::pgtable::{kvm_pgtable_walk, KvmPgtable, MapWalker, PoolOps, SetOwnerWalker, WalkState};
use crate::pool::HypPool;
use crate::state::{HypCtx, HypState};
use crate::vm::{Handle, Vcpu, VmTable};

/// Machine construction parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of hardware threads.
    pub nr_cpus: usize,
    /// DRAM regions as `(base, size)`.
    pub dram: Vec<(u64, u64)>,
    /// MMIO regions as `(base, size)`; the first hosts the UART.
    pub mmio: Vec<(u64, u64)>,
    /// Size of the hypervisor carveout in pages (taken from the top of the
    /// last DRAM region).
    pub hyp_pool_pages: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nr_cpus: 4,
            dram: vec![(0x4000_0000, 0x800_0000)], // 128 MiB at 1 GiB
            mmio: vec![(0x0900_0000, 0x1000)],     // the QEMU-virt UART
            hyp_pool_pages: 2048,                  // 8 MiB carveout
        }
    }
}

impl MachineConfig {
    /// A configuration with very large (sparse) DRAM, as needed to trigger
    /// real bug 5.
    pub fn huge_dram() -> Self {
        Self {
            dram: vec![(0x4000_0000, 0x100_0000_0000)], // 1 TiB
            ..Self::default()
        }
    }
}

/// Per-hardware-thread state: the saved host context, the translation
/// system registers pKVM manages, and the loaded vCPU.
#[derive(Debug, Default)]
pub struct CpuState {
    /// Saved host general-purpose registers (EL1 context at trap entry).
    pub regs: GprFile,
    /// Translation system registers: pKVM's stage 1 root in `TTBR0_EL2`
    /// and the current stage 2 root + VMID in `VTTBR_EL2` (context
    /// switching between host and guest is exactly an update of this).
    pub sysregs: SysRegs,
    /// The vCPU loaded on this CPU, with its VM handle and index.
    pub loaded_vcpu: Option<(Handle, usize, Box<Vcpu>)>,
}

/// Error reported to a host access that could not be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostAccessFault;

/// The simulated machine.
pub struct Machine {
    /// Simulated physical memory.
    pub mem: PhysMem,
    /// The hypervisor's lock-structured shared state.
    pub state: HypState,
    /// Per-CPU state; a CPU is driven by at most one thread at a time.
    pub cpus: Vec<Mutex<CpuState>>,
    /// The installed ghost instrumentation.
    pub hooks: Arc<dyn GhostHooks>,
    /// Injected faults.
    pub faults: Arc<FaultSet>,
    /// The stage 1 root the "host kernel" claims for itself; used by the
    /// bug-4 fault path when the hardware did not capture the faulting IPA.
    pub host_s1_root: AtomicU64,
    /// The simulated per-CPU TLBs: the machine fills the accessing CPU's
    /// TLB on translations; the hypervisor must invalidate all of them
    /// (broadcast) when it removes mappings.
    pub tlb: TlbSet,
    panicked: Mutex<Option<String>>,
    config: MachineConfig,
}

impl Machine {
    /// Boots a machine with no oracle and no injected faults.
    pub fn boot_default() -> Arc<Machine> {
        Self::boot(
            MachineConfig::default(),
            Arc::new(NoHooks),
            Arc::new(FaultSet::none()),
        )
    }

    /// Boots a machine: builds memory, initialises the hypervisor (carveout
    /// donation, host stage 2 annotations, the hypervisor's own stage 1
    /// with linear map and UART), with `hooks` observing from the start.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (no DRAM, carveout larger than
    /// DRAM).
    pub fn boot(
        config: MachineConfig,
        hooks: Arc<dyn GhostHooks>,
        faults: Arc<FaultSet>,
    ) -> Arc<Machine> {
        assert!(!config.dram.is_empty(), "need DRAM");
        let mut regions: Vec<MemRegion> = config
            .dram
            .iter()
            .map(|&(b, s)| MemRegion::ram(b, s))
            .collect();
        regions.extend(config.mmio.iter().map(|&(b, s)| MemRegion::mmio(b, s)));
        let mem = PhysMem::new(regions);
        // The ghost decides whether page-write logging is worth the
        // overhead (the incremental abstraction cache depends on it).
        mem.write_log().set_enabled(hooks.wants_write_log());

        // Carve the hypervisor pool out of the top of the last DRAM region.
        let (last_base, last_size) = *config.dram.last().expect("checked");
        let pool_bytes = config.hyp_pool_pages * PAGE_SIZE;
        assert!(pool_bytes < last_size, "carveout larger than DRAM");
        let pool_base = PhysAddr::new(last_base + last_size - pool_bytes);
        let mut pool = HypPool::new(pool_base, config.hyp_pool_pages);

        let ram_end = PhysAddr::new(last_base + last_size);
        let layout = compute_layout(ram_end, faults.is(Fault::Bug5LinearMapOverlap))
            .expect("layout must fit");

        let host_root = pool.alloc_page().expect("pool sized for boot");
        let hyp_root = pool.alloc_page().expect("pool sized for boot");
        mem.zero_page(host_root).unwrap();
        mem.zero_page(hyp_root).unwrap();

        let state = HypState {
            pool: Mutex::new(pool),
            hyp_pgt: Mutex::new(KvmPgtable {
                root: hyp_root,
                stage: Stage::Stage1,
            }),
            host_pgt: Mutex::new(KvmPgtable {
                root: host_root,
                stage: Stage::Stage2,
            }),
            vm_table: Mutex::new(VmTable::new()),
            reclaim: Mutex::new(HashMap::new()),
            layout,
            hyp_range: (pool_base.pfn(), config.hyp_pool_pages),
        };

        let machine = Arc::new(Machine {
            mem,
            state,
            cpus: (0..config.nr_cpus)
                .map(|_| Mutex::new(CpuState::default()))
                .collect(),
            hooks,
            faults,
            host_s1_root: AtomicU64::new(0),
            tlb: TlbSet::new(config.nr_cpus),
            panicked: Mutex::new(None),
            config,
        });
        machine.pkvm_init();
        // Install the translation roots in each hardware thread's system
        // registers: pKVM's own stage 1, and the host's stage 2 (VMID 0).
        let hyp_root = machine.state.hyp_pgt.lock().root;
        let host_root = machine.state.host_pgt.lock().root;
        for cpu in &machine.cpus {
            let mut g = cpu.lock();
            g.sysregs.ttbr0_el2 = hyp_root.bits();
            g.sysregs.vttbr_el2 = Vttbr::new(VMID_HOST, host_root);
            g.sysregs.hcr_el2 = pkvm_aarch64::sysreg::HCR_VM;
        }
        machine
    }

    /// The boot-time initialisation: annotate the carveout as hyp-owned in
    /// the host's stage 2, and build the hypervisor's own stage 1 (linear
    /// map of the carveout, UART mapping in the private range).
    fn pkvm_init(&self) {
        let ctx = self.ctx(0);
        let (pool_pfn, pool_pages) = self.state.hyp_range;
        let pool_base = PhysAddr::from_pfn(pool_pfn);

        // Host stage 2: the carveout belongs to the hypervisor.
        {
            let host = self.state.host_lock(&ctx);
            let mut pool = self.state.pool.lock();
            let mut mm = PoolOps(&mut pool);
            let mut ws = WalkState::new(&self.mem, &mut mm);
            let mut v = SetOwnerWalker {
                stage: Stage::Stage2,
                annotation: annotation_pte(OwnerId::HYP),
            };
            kvm_pgtable_walk(
                &host,
                &mut ws,
                pool_base.bits(),
                pool_pages * PAGE_SIZE,
                &mut v,
            )
            .expect("boot annotation cannot fail");
            for e in &ws.events {
                if let crate::pgtable::TableEvent::Alloc(p) = e {
                    ctx.hooks
                        .table_page_alloc(&ctx.hook_ctx(), Component::Host, *p);
                }
            }
            drop(pool);
            self.state.host_unlock(&ctx, host);
        }

        // Hypervisor stage 1: linear map of the carveout, then the UART.
        // With bug 5 injected and huge DRAM, the UART's private VA lies
        // *inside* the linear span, so the two mappings alias.
        {
            let hyp = self.state.hyp_lock(&ctx);
            let mut pool = self.state.pool.lock();
            let mut mm = PoolOps(&mut pool);
            let mut ws = WalkState::new(&self.mem, &mut mm);
            let linear_va = self.state.layout.hyp_va(pool_base);
            let mut v = MapWalker {
                stage: Stage::Stage1,
                phys_base: pool_base,
                ia_base: linear_va.bits(),
                attrs: hyp_attrs(true, PageState::Owned),
                force_pages: false,
                corrupt_block_oa: false,
            };
            kvm_pgtable_walk(
                &hyp,
                &mut ws,
                linear_va.bits(),
                pool_pages * PAGE_SIZE,
                &mut v,
            )
            .expect("boot mapping cannot fail");
            if let Some(&(uart_base, _)) = self.config.mmio.first() {
                let mut v = MapWalker {
                    stage: Stage::Stage1,
                    phys_base: PhysAddr::new(uart_base),
                    ia_base: self.state.layout.uart_va.bits(),
                    attrs: hyp_attrs(false, PageState::Owned),
                    force_pages: true,
                    corrupt_block_oa: false,
                };
                kvm_pgtable_walk(
                    &hyp,
                    &mut ws,
                    self.state.layout.uart_va.bits(),
                    PAGE_SIZE,
                    &mut v,
                )
                .expect("boot mapping cannot fail");
            }
            for e in &ws.events {
                if let crate::pgtable::TableEvent::Alloc(p) = e {
                    ctx.hooks
                        .table_page_alloc(&ctx.hook_ctx(), Component::Hyp, *p);
                }
            }
            drop(pool);
            self.state.hyp_unlock(&ctx, hyp);
        }
    }

    /// Builds the handler execution context for `cpu`.
    pub fn ctx(&self, cpu: usize) -> HypCtx<'_> {
        HypCtx {
            mem: &self.mem,
            tlb: &self.tlb,
            cpu,
            hooks: &*self.hooks,
            faults: &self.faults,
        }
    }

    /// Number of hardware threads.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The machine configuration it was booted with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Returns the panic message if the hypervisor has panicked.
    pub fn panicked(&self) -> Option<String> {
        self.panicked.lock().clone()
    }

    /// Records a hypervisor panic (pKVM's `BUG()`), notifying the oracle.
    pub(crate) fn hyp_panic(&self, ctx: &HypCtx<'_>, reason: &str) {
        ctx.hooks.hyp_panic(&ctx.hook_ctx(), reason);
        let mut p = self.panicked.lock();
        if p.is_none() {
            *p = Some(reason.to_string());
        }
    }

    /// Issues a host hypercall from `cpu`: function id in `x0`, arguments
    /// in `x1..`, returning the result the host reads back from `x1`.
    ///
    /// # Panics
    ///
    /// Panics if more than 6 arguments are passed.
    pub fn hvc(&self, cpu: usize, func: u64, args: &[u64]) -> u64 {
        assert!(args.len() <= 6);
        let mut guard = self.cpus[cpu].lock();
        guard.regs = GprFile::default();
        guard.regs.set(0, func);
        for (i, &a) in args.iter().enumerate() {
            guard.regs.set(i + 1, a);
        }
        self.handle_trap(cpu, &mut guard, Esr::hvc64(0), None);
        guard.regs.get(1)
    }

    /// Translates a host access at `ipa` through the host's stage 2,
    /// taking (and letting the hypervisor handle) a stage 2 fault and
    /// retrying once, exactly like hardware would.
    fn host_translate(
        &self,
        cpu: usize,
        ipa: u64,
        access: Access,
    ) -> Result<PhysAddr, HostAccessFault> {
        // The hardware consults this CPU's TLB first; a (possibly stale!)
        // hit bypasses the walk entirely. Keeping this cache coherent is
        // the hypervisor's job.
        if let Some(hit) = self.tlb.lookup(cpu, VMID_HOST, ipa, access) {
            return Ok(hit.oa.wrapping_add(ipa & (PAGE_SIZE - 1)));
        }
        for attempt in 0..2 {
            let host_root = self.state.host_pgt.lock().root;
            match translate(&self.mem, Stage::Stage2, host_root, ipa, access) {
                Ok(tr) => {
                    self.tlb.fill(cpu, VMID_HOST, ipa, tr);
                    return Ok(tr.oa);
                }
                Err(fault) if attempt == 0 => {
                    let mut guard = self.cpus[cpu].lock();
                    self.handle_trap(cpu, &mut guard, Esr::abort(access, fault), Some(ipa));
                }
                Err(_) => break,
            }
        }
        Err(HostAccessFault)
    }

    /// Issues an SMC from the host; pKVM traps and forwards it to
    /// firmware (a no-op in the simulation, but a distinct trap class the
    /// oracle must handle).
    pub fn smc(&self, cpu: usize, func: u64) {
        let mut guard = self.cpus[cpu].lock();
        guard.regs = GprFile::default();
        guard.regs.set(0, func);
        self.handle_trap(cpu, &mut guard, Esr::smc64(), None);
    }

    /// Performs a host memory access (a 64-bit read, or a write of zero)
    /// at intermediate-physical address `ipa`.
    ///
    /// # Errors
    ///
    /// Returns [`HostAccessFault`] if the access still faults after the
    /// hypervisor handled it (the host would receive an injected abort).
    pub fn host_access(
        &self,
        cpu: usize,
        ipa: u64,
        access: Access,
    ) -> Result<u64, HostAccessFault> {
        match access {
            Access::Write => self.host_write(cpu, ipa, 0).map(|()| 0),
            _ => self.host_read(cpu, ipa),
        }
    }

    /// Host 64-bit read at `ipa` (aligned down to 8 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`HostAccessFault`] if the access faults.
    pub fn host_read(&self, cpu: usize, ipa: u64) -> Result<u64, HostAccessFault> {
        let oa = self.host_translate(cpu, ipa, Access::Read)?;
        self.mem
            .read_u64(PhysAddr::new(oa.bits() & !7))
            .map_err(|_| HostAccessFault)
    }

    /// Host 64-bit write of `value` at `ipa` (aligned down to 8 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`HostAccessFault`] if the access faults.
    pub fn host_write(&self, cpu: usize, ipa: u64, value: u64) -> Result<(), HostAccessFault> {
        let oa = self.host_translate(cpu, ipa, Access::Write)?;
        self.mem
            .write_u64(PhysAddr::new(oa.bits() & !7), value)
            .map_err(|_| HostAccessFault)
    }

    /// Performs a host access through the host's *stage 1 then stage 2*,
    /// with `mangle_s1` run between the hardware fault and the
    /// hypervisor's handling of it — the racing "concurrent host" of real
    /// bug 4. The hardware is assumed not to have captured the faulting
    /// IPA (HPFAR invalid), so the handler must re-walk the host's stage 1
    /// in host-controlled memory.
    ///
    /// # Errors
    ///
    /// Returns [`HostAccessFault`] if the access cannot be satisfied.
    pub fn host_access_via_s1(
        &self,
        cpu: usize,
        va: u64,
        access: Access,
        mangle_s1: impl FnOnce(),
    ) -> Result<u64, HostAccessFault> {
        let s1_root = PhysAddr::new(self.host_s1_root.load(Ordering::SeqCst));
        // Hardware: stage 1 walk to get the IPA.
        let Ok(s1) = walk(&self.mem, Stage::Stage1, s1_root, va) else {
            return Err(HostAccessFault);
        };
        let ipa = s1.oa.bits();
        let host_root = self.state.host_pgt.lock().root;
        match translate(&self.mem, Stage::Stage2, host_root, ipa, access) {
            Ok(_) => self.host_access(cpu, ipa, access),
            Err(fault) => {
                // The stage 2 fault is taken with HPFAR invalid; the racing
                // host rewrites its stage 1 before the handler runs.
                mangle_s1();
                let mut guard = self.cpus[cpu].lock();
                guard.regs.set(0, va); // FAR_EL2 stand-in for the handler
                self.handle_trap(cpu, &mut guard, Esr::abort(access, fault), None);
                drop(guard);
                let host_root = self.state.host_pgt.lock().root;
                match translate(&self.mem, Stage::Stage2, host_root, ipa, access) {
                    Ok(_) => self.host_access(cpu, ipa, access),
                    Err(_) => Err(HostAccessFault),
                }
            }
        }
    }

    /// The host registers (a pointer to) its stage 1 table, as the real
    /// kernel does by writing `TTBR1_EL1`.
    pub fn register_host_s1(&self, root: PhysAddr) {
        self.host_s1_root.store(root.bits(), Ordering::SeqCst);
    }

    /// Enqueues a scripted guest action on a vCPU (test scaffolding for
    /// the guest's half of the protocol). Works whether or not the vCPU is
    /// currently loaded.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` if the VM or vCPU does not exist.
    pub fn push_guest_op(
        &self,
        handle: Handle,
        vcpu_idx: usize,
        op: crate::vm::GuestOp,
    ) -> HypResult {
        // Check the loaded vCPUs first.
        for cpu in &self.cpus {
            let mut g = cpu.lock();
            if let Some((h, idx, vcpu)) = g.loaded_vcpu.as_mut() {
                if *h == handle && *idx == vcpu_idx {
                    vcpu.pending.push_back(op);
                    return Ok(());
                }
            }
        }
        let vm = self.state.vm_table.lock().get(handle)?;
        let mut inner = vm.inner.lock();
        match inner.vcpus.get_mut(vcpu_idx) {
            Some(crate::vm::VcpuSlot::Present(v)) => {
                v.pending.push_back(op);
                Ok(())
            }
            _ => Err(Errno::ENOENT),
        }
    }

    /// The top-level exception handler (`handle_trap`): bracketed by the
    /// ghost trap hooks, dispatching on the exception class.
    pub(crate) fn handle_trap(
        &self,
        cpu: usize,
        guard: &mut MutexGuard<'_, CpuState>,
        esr: Esr,
        fault_ipa: Option<u64>,
    ) {
        let ctx = self.ctx(cpu);
        let loaded_view = |g: &CpuState| {
            g.loaded_vcpu
                .as_ref()
                .map(|(h, i, v)| (*h, *i, crate::state::loaded_vcpu_view(&self.mem, v, cpu)))
        };
        ctx.hooks.trap_enter(
            &ctx.hook_ctx(),
            esr,
            fault_ipa,
            &guard.regs,
            loaded_view(guard),
        );
        match esr.ec() {
            Some(pkvm_aarch64::esr::ExceptionClass::Hvc64) => {
                cov::hit!("handle_trap/hvc");
                self.handle_host_hcall(&ctx, guard);
            }
            Some(pkvm_aarch64::esr::ExceptionClass::DataAbortLowerEl)
            | Some(pkvm_aarch64::esr::ExceptionClass::InstAbortLowerEl) => {
                cov::hit!("handle_trap/host_dabt");
                self.handle_host_dabt(&ctx, guard, fault_ipa);
            }
            Some(pkvm_aarch64::esr::ExceptionClass::Smc64) => {
                cov::hit!("handle_trap/smc");
                // SMCs are forwarded to EL3 in real pKVM; nothing to do here.
            }
            None => {
                self.hyp_panic(&ctx, "unknown exception class");
            }
        }
        ctx.hooks
            .trap_exit(&ctx.hook_ctx(), &guard.regs, loaded_view(guard));
    }

    /// Host stage 2 abort handling: recover the faulting IPA (re-walking
    /// the host's stage 1 when the hardware did not capture it — the
    /// bug-4 path), then map on demand.
    fn handle_host_dabt(
        &self,
        ctx: &HypCtx<'_>,
        guard: &mut MutexGuard<'_, CpuState>,
        fault_ipa: Option<u64>,
    ) {
        let ipa = match fault_ipa {
            Some(ipa) => ipa,
            None => {
                // HPFAR invalid: walk the host's stage 1 for FAR (in x0).
                // The table lives in *host-writable* memory and may have
                // changed under us — the clean code tolerates that.
                let far = guard.regs.get(0);
                let s1_root = PhysAddr::new(self.host_s1_root.load(Ordering::SeqCst));
                match walk(&self.mem, Stage::Stage1, s1_root, far) {
                    Ok(tr) => tr.oa.bits(),
                    Err(_) => {
                        cov::hit!("host_abort/s1_walk_raced");
                        if ctx.faults.is(Fault::Bug4HostFaultRace) {
                            // Bug 4: the original code treated this as an
                            // internal invariant failure.
                            self.hyp_panic(ctx, "host stage 1 walk failed in abort handler");
                        }
                        // Clean behaviour: inject the fault back to the host.
                        return;
                    }
                }
            }
        };
        let _ = crate::mem_protect::handle_host_mem_abort(ctx, &self.state, ipa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_produces_annotated_carveout() {
        let m = Machine::boot_default();
        assert!(m.panicked().is_none());
        let host_root = m.state.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        let (pool_pfn, pool_pages) = m.state.hyp_range;
        for pfn in [
            pool_pfn,
            pool_pfn + pool_pages / 2,
            pool_pfn + pool_pages - 1,
        ] {
            assert_eq!(
                crate::mem_protect::page_state_of(&m.mem, &host, pfn * PAGE_SIZE),
                crate::mem_protect::ConcreteState::UnmappedOwner(OwnerId::HYP),
                "carveout page {pfn:#x} must be hyp-owned"
            );
        }
    }

    #[test]
    fn huge_dram_boots_without_a_directory_sized_to_its_bytes() {
        // A terabyte of DRAM costs a directory slot per GiB, and boot
        // backs only the blocks it writes, as many as for the 128 MiB
        // default: a flat directory of its pages would take 2 GiB.
        let boot = |config| Machine::boot(config, Arc::new(NoHooks), Arc::new(FaultSet::none()));
        let (huge, small) = (boot(MachineConfig::huge_dram()), Machine::boot_default());
        assert!(huge.panicked().is_none());
        let bytes = huge.mem.store_bytes();
        assert!(bytes < 64 << 10, "the store holds {bytes} bytes after boot");
        assert_eq!(huge.mem.backed_blocks(), small.mem.backed_blocks());
    }

    #[test]
    fn boot_linear_map_translates_carveout() {
        let m = Machine::boot_default();
        let hyp_root = m.state.hyp_pgt.lock().root;
        let (pool_pfn, _) = m.state.hyp_range;
        let pa = PhysAddr::from_pfn(pool_pfn + 7);
        let va = m.state.layout.hyp_va(pa);
        let tr = walk(&m.mem, Stage::Stage1, hyp_root, va.bits()).unwrap();
        assert_eq!(tr.oa, pa);
    }

    #[test]
    fn boot_uart_is_device_mapped() {
        let m = Machine::boot_default();
        let hyp_root = m.state.hyp_pgt.lock().root;
        let tr = walk(
            &m.mem,
            Stage::Stage1,
            hyp_root,
            m.state.layout.uart_va.bits(),
        )
        .unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x0900_0000));
        assert_eq!(tr.attrs.memtype, pkvm_aarch64::attrs::MemType::Device);
    }

    #[test]
    fn host_access_maps_on_demand_and_retries() {
        let m = Machine::boot_default();
        m.host_access(0, 0x4100_0008, Access::Read).unwrap();
        // The second access must not fault (mapping persisted).
        let host_root = m.state.host_pgt.lock().root;
        assert!(translate(&m.mem, Stage::Stage2, host_root, 0x4100_0008, Access::Read).is_ok());
    }

    #[test]
    fn host_cannot_touch_the_carveout() {
        let m = Machine::boot_default();
        let (pool_pfn, _) = m.state.hyp_range;
        assert_eq!(
            m.host_access(0, pool_pfn * PAGE_SIZE, Access::Write),
            Err(HostAccessFault)
        );
        assert!(m.panicked().is_none());
    }

    #[test]
    fn hvc_unknown_function_is_eopnotsupp() {
        let m = Machine::boot_default();
        let ret = m.hvc(0, 0xc600_ffff, &[]);
        assert_eq!(Errno::from_ret(ret), Some(Errno::EOPNOTSUPP));
    }
}
