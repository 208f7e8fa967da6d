//! Host hypercall handlers: the dispatch half of `handle_trap`.
//!
//! Each handler reads its arguments from the saved host context, performs
//! the operation against the shared state (taking only the locks it
//! needs), and writes the SMCCC-style result back: `x0 = 0`, `x1 = ret`,
//! argument registers scrubbed — the register changes visible in the
//! paper's Fig. 5 diff.

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::sync::MutexGuard;
use pkvm_aarch64::walk::{translate, Access};

use crate::cov;
use crate::error::{ret_of_result, Errno, HypResult};
use crate::faults::Fault;
use crate::hooks::Component;
use crate::hypercalls::{self as hc, exit};
use crate::machine::{CpuState, Machine};
use crate::mem_protect;
use crate::pgtable::{destroy, PoolOps};
use crate::state::{loaded_vcpu_view, HypCtx};
use crate::vm::{GuestOp, Handle, Vcpu, VcpuSlot};

/// Pages the host must donate for `init_vm` (the VM metadata page and the
/// stage 2 root).
pub const VM_DONATION_PAGES: u64 = 2;
/// Pages the host must donate per `init_vcpu`.
pub const VCPU_DONATION_PAGES: u64 = 1;
/// Maximum vCPUs per VM.
pub const MAX_VCPUS: u64 = 8;
/// Maximum pages in one `vm_load_firmware` donation (pvmfw is small).
pub const MAX_FIRMWARE_PAGES: u64 = 32;

impl Machine {
    pub(crate) fn handle_host_hcall(&self, ctx: &HypCtx<'_>, guard: &mut MutexGuard<'_, CpuState>) {
        let func = guard.regs.get(0);
        let a1 = guard.regs.get(1);
        let a2 = guard.regs.get(2);
        let a3 = guard.regs.get(3);
        // Exit details (faulting IPA, write flag) that vcpu_run reports to
        // the host in x2/x3, surviving the argument scrub below.
        let mut exit_info: Option<(u64, u64)> = None;
        let ret = match func {
            hc::HVC_HOST_SHARE_HYP => {
                ret_of_result(mem_protect::host_share_hyp(ctx, &self.state, a1).map(|()| 0))
            }
            hc::HVC_HOST_UNSHARE_HYP => {
                ret_of_result(mem_protect::host_unshare_hyp(ctx, &self.state, a1).map(|()| 0))
            }
            hc::HVC_HOST_RECLAIM_PAGE => {
                ret_of_result(mem_protect::host_reclaim_page(ctx, &self.state, a1).map(|()| 0))
            }
            hc::HVC_INIT_VM => ret_of_result(self.do_init_vm(ctx, a1, a2, a3)),
            hc::HVC_INIT_VCPU => ret_of_result(
                self.do_init_vcpu(ctx, a1 as Handle, a2 as usize, a3)
                    .map(|()| 0),
            ),
            hc::HVC_TEARDOWN_VM => {
                ret_of_result(self.do_teardown_vm(ctx, a1 as Handle).map(|()| 0))
            }
            hc::HVC_VCPU_LOAD => ret_of_result(
                self.do_vcpu_load(ctx, guard, a1 as Handle, a2 as usize)
                    .map(|()| 0),
            ),
            hc::HVC_VCPU_PUT => ret_of_result(self.do_vcpu_put(ctx, guard).map(|()| 0)),
            hc::HVC_VCPU_RUN => {
                let r = self.do_vcpu_run(ctx, guard, &mut exit_info);
                ret_of_result(r)
            }
            hc::HVC_TOPUP_MEMCACHE => {
                ret_of_result(self.do_topup_memcache(ctx, guard, a1, a2).map(|()| 0))
            }
            hc::HVC_HOST_MAP_GUEST => {
                ret_of_result(self.do_host_map_guest(ctx, guard, a1, a2).map(|()| 0))
            }
            hc::HVC_VCPU_GET_REG => {
                let r = self.do_vcpu_get_reg(guard, a1);
                if let Ok(v) = r {
                    exit_info = Some((v, 0));
                }
                ret_of_result(r.map(|_| 0))
            }
            hc::HVC_VCPU_SET_REG => ret_of_result(self.do_vcpu_set_reg(guard, a1, a2).map(|()| 0)),
            hc::HVC_VM_LOAD_FIRMWARE => {
                let a4 = guard.regs.get(4);
                ret_of_result(
                    self.do_vm_load_firmware(ctx, a1 as Handle, a2, a3, a4)
                        .map(|()| 0),
                )
            }
            _ => {
                cov::hit!("handle_trap/unknown_hvc");
                Errno::EOPNOTSUPP.to_ret()
            }
        };
        // SMCCC epilogue: success marker, result, scrubbed arguments
        // (or vcpu_run's exit details).
        let (x2, x3) = exit_info.unwrap_or((0, 0));
        guard.regs.set(0, 0);
        guard.regs.set(1, ret);
        guard.regs.set(2, x2);
        guard.regs.set(3, x3);
    }

    /// `init_vm(params_pfn, donate_pfn, donate_nr) -> handle`.
    ///
    /// The parameter page stays host-owned; reading it is the canonical
    /// `READ_ONCE` nondeterminism of §4.3, so both reads are reported to
    /// the oracle as call data.
    fn do_init_vm(
        &self,
        ctx: &HypCtx<'_>,
        params_pfn: u64,
        donate_pfn: u64,
        donate_nr: u64,
    ) -> HypResult<u64> {
        let params = PhysAddr::from_pfn(params_pfn);
        if !ctx.mem.is_ram(params) {
            cov::hit!("init_vm/bad_params");
            return Err(Errno::EINVAL);
        }
        let nr_vcpus = ctx.mem.read_u64(params).expect("checked RAM");
        ctx.hooks
            .read_once(&ctx.hook_ctx(), "init_vm/nr_vcpus", nr_vcpus);
        let protected = ctx
            .mem
            .read_u64(params.wrapping_add(8))
            .expect("checked RAM");
        ctx.hooks
            .read_once(&ctx.hook_ctx(), "init_vm/protected", protected);
        if nr_vcpus == 0 || nr_vcpus > MAX_VCPUS || donate_nr != VM_DONATION_PAGES {
            cov::hit!("init_vm/bad_params");
            return Err(Errno::EINVAL);
        }

        // Phase 1: take ownership of the donated pages.
        mem_protect::host_donate_hyp(ctx, &self.state, donate_pfn, donate_nr).inspect_err(
            |_| {
                cov::hit!("init_vm/donate_failed");
            },
        )?;
        let meta_page = PhysAddr::from_pfn(donate_pfn);
        let s2_root = PhysAddr::from_pfn(donate_pfn + 1);
        ctx.mem.zero_page(meta_page).expect("donated RAM");
        ctx.mem.zero_page(s2_root).expect("donated RAM");

        // Phase 2: allocate the handle in the VM table.
        let mut table = self.state.vm_table_lock(ctx);
        let result = table.insert(
            protected != 0,
            nr_vcpus as usize,
            s2_root,
            vec![meta_page, s2_root],
        );
        let handle = result.as_ref().map(|vm| vm.handle as u64).map_err(|e| *e);
        self.state.vm_table_unlock(ctx, table);
        match &handle {
            Ok(_) => cov::hit!("init_vm/ok"),
            Err(_) => {
                cov::hit!("init_vm/table_full");
                // Roll the donation back so the host does not leak pages.
                let _ = mem_protect::hyp_donate_host(ctx, &self.state, donate_pfn, donate_nr);
            }
        }
        handle
    }

    /// `init_vcpu(handle, vcpu_idx, donate_pfn)`.
    fn do_init_vcpu(
        &self,
        ctx: &HypCtx<'_>,
        handle: Handle,
        idx: usize,
        donate_pfn: u64,
    ) -> HypResult {
        let result = (|| {
            let table = self.state.vm_table_lock(ctx);
            let vm = table.get(handle);
            self.state.vm_table_unlock(ctx, table);
            let vm = vm?;
            if idx >= vm.nr_vcpus {
                return Err(Errno::EINVAL);
            }
            mem_protect::host_donate_hyp(ctx, &self.state, donate_pfn, VCPU_DONATION_PAGES)?;
            let vcpu_page = PhysAddr::from_pfn(donate_pfn);
            ctx.mem.zero_page(vcpu_page).expect("donated RAM");
            let mut inner = self.state.vm_lock(ctx, &vm);
            let r = match inner.vcpus[idx] {
                VcpuSlot::Uninit => {
                    inner.vcpus[idx] = VcpuSlot::Present(Box::new(Vcpu::initialised()));
                    inner.donated.push(vcpu_page);
                    Ok(())
                }
                _ => Err(Errno::EEXIST),
            };
            self.state.vm_unlock(ctx, &vm, inner);
            if r.is_err() {
                let _ =
                    mem_protect::hyp_donate_host(ctx, &self.state, donate_pfn, VCPU_DONATION_PAGES);
            }
            r
        })();
        match &result {
            Ok(()) => cov::hit!("init_vcpu/ok"),
            Err(_) => cov::hit!("init_vcpu/err"),
        }
        result
    }

    /// `vm_load_firmware(handle, pfn, gfn, nr)`: donate a pvmfw-style
    /// firmware region into a protected VM, mapped into the guest before
    /// any vCPU exists. The host permanently loses access to the range.
    fn do_vm_load_firmware(
        &self,
        ctx: &HypCtx<'_>,
        handle: Handle,
        pfn: u64,
        gfn: u64,
        nr: u64,
    ) -> HypResult {
        if nr == 0 || nr > MAX_FIRMWARE_PAGES || gfn >= 1 << 36 {
            return Err(Errno::EINVAL);
        }
        let table = self.state.vm_table_lock(ctx);
        let vm = table.get(handle);
        self.state.vm_table_unlock(ctx, table);
        let vm = vm?;
        // Firmware donation is a protected-boot concept: unprotected
        // VMs share memory with the host instead.
        if !vm.protected {
            return Err(Errno::EPERM);
        }
        let mut inner = self.state.vm_lock(ctx, &vm);
        // "Before any vCPU runs": refuse once a vCPU is initialised.
        let booted = inner.vcpus.iter().any(|s| !matches!(s, VcpuSlot::Uninit));
        let r = if booted {
            Err(Errno::EBUSY)
        } else {
            let pgt = inner.pgt;
            mem_protect::vm_load_firmware(ctx, &self.state, &vm, &pgt, pfn, gfn, nr)
        };
        if r.is_ok() {
            for i in 0..nr {
                inner.firmware.push(PhysAddr::from_pfn(pfn + i));
            }
        }
        self.state.vm_unlock(ctx, &vm, inner);
        r
    }

    /// `teardown_vm(handle)`: unmap the guest, queue its pages for
    /// reclaim, and return metadata/table pages to the host.
    fn do_teardown_vm(&self, ctx: &HypCtx<'_>, handle: Handle) -> HypResult {
        let result = (|| {
            let mut table = self.state.vm_table_lock(ctx);
            let vm = match table.get(handle) {
                Ok(vm) => vm,
                Err(e) => {
                    self.state.vm_table_unlock(ctx, table);
                    return Err(e);
                }
            };
            // Refuse while any vCPU is loaded.
            {
                let inner = self.state.vm_lock(ctx, &vm);
                let busy = inner
                    .vcpus
                    .iter()
                    .any(|s| matches!(s, VcpuSlot::LoadedOn(_)));
                self.state.vm_unlock(ctx, &vm, inner);
                if busy {
                    cov::hit!("teardown_vm/busy");
                    self.state.vm_table_unlock(ctx, table);
                    return Err(Errno::EBUSY);
                }
            }
            table.remove(handle).expect("present above");
            self.state.vm_table_unlock(ctx, table);
            // The guest's VMID is being retired, so the VMID-wide scope is
            // the precise one here (`tlbi vmalls12e1is`, not over-broad):
            // every cached translation under it is about to dangle. The
            // downgrade hook uses the VMID-wide encoding (ia 0, all pages);
            // the invalidation and its tlbi/dsb hooks are skipped together
            // under the missing-TLBI injection.
            ctx.hooks
                .pte_downgrade(&ctx.hook_ctx(), vm.vmid(), 0, u64::MAX);
            if ctx.faults.is(Fault::SynMissingTlbi) {
                cov::hit!("tlbi/suppressed");
            } else {
                cov::hit!("tlbi/vmid");
                ctx.tlb.invalidate_vmid(ctx.cpu, vm.vmid(), true);
                ctx.hooks
                    .tlbi(&ctx.hook_ctx(), vm.vmid(), 0, u64::MAX, true);
                ctx.hooks.dsb(&ctx.hook_ctx());
            }

            let mut inner = self.state.vm_lock(ctx, &vm);
            // Queue every guest-mapped page for host reclaim, over the
            // whole 48-bit IPA space `host_map_guest` admits. With the
            // synthetic teardown bug, the pages are instead handed straight
            // back to the host — unwiped, skipping the reclaim protocol.
            let mapped = crate::pgtable::collect_mapped(ctx.mem, &inner.pgt, 0, 1 << 48);
            if ctx.faults.is(Fault::SynTeardownSkipsUnmap) {
                let host = self.state.host_lock(ctx);
                for (_, pa, nr, _) in &mapped {
                    let mut pool = self.state.pool.lock();
                    let mut mm = PoolOps(&mut pool);
                    let mut ws = crate::pgtable::WalkState::new(ctx.mem, &mut mm);
                    let mut v = crate::pgtable::SetOwnerWalker {
                        stage: pkvm_aarch64::attrs::Stage::Stage2,
                        annotation: pkvm_aarch64::desc::Pte::invalid(),
                    };
                    let _ = crate::pgtable::kvm_pgtable_walk(
                        &host,
                        &mut ws,
                        pa.bits(),
                        nr * PAGE_SIZE,
                        &mut v,
                    );
                }
                self.state.host_unlock(ctx, host);
            } else {
                // Firmware pages never become reclaimable — the host must
                // not regain access, ever. The synthetic fault queues them
                // like ordinary guest pages, so a later host_reclaim_page
                // hands the host a firmware page back.
                let reclaim_firmware = ctx.faults.is(Fault::SynFirmwareReclaim);
                let mut reclaim = self.state.reclaim.lock();
                for (_, pa, nr, _) in &mapped {
                    for i in 0..*nr {
                        let pfn = pa.pfn() + i;
                        if !reclaim_firmware && inner.firmware.contains(&PhysAddr::from_pfn(pfn)) {
                            continue;
                        }
                        reclaim.insert(pfn, vm.owner_id());
                    }
                }
            }
            // Tear down the stage 2 tree; its nodes came from vCPU
            // memcaches (host pages donated to hyp), so hand them back.
            let mut freed_tables: Vec<PhysAddr> = Vec::new();
            {
                struct Collector<'v>(&'v mut Vec<PhysAddr>);
                impl crate::pgtable::MmOps for Collector<'_> {
                    fn zalloc_page(
                        &mut self,
                        _mem: &pkvm_aarch64::memory::PhysMem,
                    ) -> HypResult<PhysAddr> {
                        Err(Errno::ENOMEM)
                    }
                    fn free_page(&mut self, _mem: &pkvm_aarch64::memory::PhysMem, page: PhysAddr) {
                        self.0.push(page);
                    }
                }
                destroy(ctx.mem, &inner.pgt, &mut Collector(&mut freed_tables));
                // Clear the root so returned pages hold no stale descriptors.
                ctx.mem
                    .zero_page(inner.pgt.root)
                    .expect("root is donated RAM");
                // The tree's pages stop being this guest's translation
                // tables here; without the free events the checker's
                // footprints would keep them owned by the dead VM and flag
                // their next use (pool-backed firmware tables are recycled
                // into host/hyp table walks almost immediately).
                for pa in &freed_tables {
                    ctx.hooks
                        .table_page_free(&ctx.hook_ctx(), Component::Vm(handle), *pa);
                }
            }
            // Collect remaining memcache pages and metadata pages.
            let mut returned: Vec<PhysAddr> = freed_tables;
            for slot in &mut inner.vcpus {
                if let VcpuSlot::Present(v) = slot {
                    returned.extend(v.memcache.drain(ctx.mem));
                }
            }
            returned.extend(inner.donated.iter().copied());
            let firmware = std::mem::take(&mut inner.firmware);
            self.state.vm_unlock(ctx, &vm, inner);
            // Return everything in one critical section: teardown must be
            // a single atomic transition of the host/hyp components.
            // Guest table pages come in two provenances now: memcache
            // pages (host-donated, returned to the host) and pool pages
            // (firmware mappings are built pool-backed, pre-vCPU; those
            // were never the host's and go back to the pool).
            let host = self.state.host_lock(ctx);
            let hyp = self.state.hyp_lock(ctx);
            for pa in returned {
                // Wipe before returning: table pages held descriptors.
                ctx.mem.zero_page(pa).expect("donated RAM");
                let from_pool = self.state.pool.lock().owns(pa);
                if from_pool {
                    self.state.pool.lock().put_page(pa);
                } else {
                    let _ = mem_protect::do_hyp_donate_host_locked(
                        ctx,
                        &self.state,
                        &host,
                        &hyp,
                        pa,
                        1,
                    );
                }
            }
            // Firmware pages are never the host's again: wipe and retire
            // them to the hypervisor. Under the synthetic fault they were
            // queued for reclaim above instead and stay guest-annotated
            // until the host "reclaims" them — the protocol breach the
            // firmware-protection check must catch.
            if !ctx.faults.is(Fault::SynFirmwareReclaim) {
                for pa in &firmware {
                    ctx.mem.zero_page(*pa).expect("firmware is donated RAM");
                    let _ = mem_protect::retire_firmware_locked(ctx, &self.state, &host, *pa);
                }
            }
            self.state.hyp_unlock(ctx, hyp);
            self.state.host_unlock(ctx, host);
            Ok(())
        })();
        match &result {
            Ok(()) => cov::hit!("teardown_vm/ok"),
            Err(Errno::EBUSY) => {}
            Err(_) => cov::hit!("teardown_vm/err"),
        }
        result
    }

    /// `vcpu_load(handle, idx)`: transfer the vCPU from the VM lock to
    /// this hardware thread.
    fn do_vcpu_load(
        &self,
        ctx: &HypCtx<'_>,
        guard: &mut MutexGuard<'_, CpuState>,
        handle: Handle,
        idx: usize,
    ) -> HypResult {
        let result = (|| {
            if guard.loaded_vcpu.is_some() {
                return Err(Errno::EBUSY);
            }
            let table = self.state.vm_table_lock(ctx);
            let vm = table.get(handle);
            self.state.vm_table_unlock(ctx, table);
            let vm = vm?;
            if idx >= vm.nr_vcpus {
                return Err(Errno::EINVAL);
            }
            let mut inner = self.state.vm_lock(ctx, &vm);
            let taken = match std::mem::replace(&mut inner.vcpus[idx], VcpuSlot::LoadedOn(ctx.cpu))
            {
                VcpuSlot::Present(v) => Ok(v),
                VcpuSlot::Uninit if ctx.faults.is(Fault::Bug3VcpuLoadRace) => {
                    // Bug 3: the initialisation check is missing, so the
                    // load observes "uninitialised hypervisor memory".
                    Ok(Box::new(Vcpu::uninitialised_garbage()))
                }
                old => {
                    let e = if matches!(old, VcpuSlot::LoadedOn(_)) {
                        Errno::EBUSY
                    } else {
                        Errno::ENOENT
                    };
                    inner.vcpus[idx] = old;
                    Err(e)
                }
            };
            match taken {
                Ok(vcpu) => {
                    ctx.hooks.vcpu_loaded(
                        &ctx.hook_ctx(),
                        handle,
                        idx,
                        &loaded_vcpu_view(ctx.mem, &vcpu, ctx.cpu),
                    );
                    // Context switch: install the guest's stage 2 root and
                    // VMID in VTTBR_EL2.
                    guard.sysregs.vttbr_el2 =
                        pkvm_aarch64::sysreg::Vttbr::new(vm.vmid(), inner.pgt.root);
                    self.state.vm_unlock(ctx, &vm, inner);
                    guard.loaded_vcpu = Some((handle, idx, vcpu));
                    Ok(())
                }
                Err(e) => {
                    self.state.vm_unlock(ctx, &vm, inner);
                    Err(e)
                }
            }
        })();
        match &result {
            Ok(()) => cov::hit!("vcpu_load/ok"),
            Err(_) => cov::hit!("vcpu_load/err"),
        }
        result
    }

    /// `vcpu_put()`: return the loaded vCPU to its VM.
    fn do_vcpu_put(&self, ctx: &HypCtx<'_>, guard: &mut MutexGuard<'_, CpuState>) -> HypResult {
        let Some((handle, idx, vcpu)) = guard.loaded_vcpu.take() else {
            cov::hit!("vcpu_put/none");
            return Err(Errno::ENOENT);
        };
        ctx.hooks.vcpu_put(
            &ctx.hook_ctx(),
            handle,
            idx,
            &loaded_vcpu_view(ctx.mem, &vcpu, ctx.cpu),
        );
        // Context switch back to the host's stage 2.
        guard.sysregs.vttbr_el2 = pkvm_aarch64::sysreg::Vttbr::new(
            pkvm_aarch64::tlb::VMID_HOST,
            self.state.host_pgt.lock().root,
        );
        let table = self.state.vm_table_lock(ctx);
        let vm = table.get(handle);
        self.state.vm_table_unlock(ctx, table);
        let Ok(vm) = vm else {
            // The VM disappeared while the vCPU was loaded; drop the state.
            cov::hit!("vcpu_put/ok");
            return Ok(());
        };
        let mut inner = self.state.vm_lock(ctx, &vm);
        if ctx.faults.is(Fault::SynVcpuPutLeak) {
            // Bug: the slot keeps saying "loaded"; the state is lost.
        } else {
            inner.vcpus[idx] = VcpuSlot::Present(vcpu);
        }
        self.state.vm_unlock(ctx, &vm, inner);
        cov::hit!("vcpu_put/ok");
        Ok(())
    }

    /// `vcpu_run()`: execute one scripted guest step and return the exit
    /// code (§2: guests interact with the world through exactly these
    /// exits).
    fn do_vcpu_run(
        &self,
        ctx: &HypCtx<'_>,
        guard: &mut MutexGuard<'_, CpuState>,
        exit_info: &mut Option<(u64, u64)>,
    ) -> HypResult<u64> {
        if guard.loaded_vcpu.is_none() {
            cov::hit!("vcpu_run/no_vcpu");
            return Err(Errno::ENOENT);
        }
        let (handle, _idx, op) = {
            let (h, i, vcpu) = guard.loaded_vcpu.as_mut().expect("checked");
            (*h, *i, vcpu.pending.pop_front())
        };
        cov::hit!("vcpu_run/exit");
        // The guest's behaviour is nondeterministic input to the spec
        // (§4.3): report which step it took, and its address if any.
        let (op_code, op_ipa) = match op {
            None | Some(GuestOp::Wfi) => (0, 0),
            Some(GuestOp::Read(gipa)) => (1, gipa),
            Some(GuestOp::Write(gipa, _)) => (2, gipa),
            Some(GuestOp::HvcShareHost(gipa)) => (3, gipa),
            Some(GuestOp::HvcUnshareHost(gipa)) => (4, gipa),
        };
        ctx.hooks.read_once(&ctx.hook_ctx(), "vcpu_run/op", op_code);
        ctx.hooks.read_once(&ctx.hook_ctx(), "vcpu_run/ipa", op_ipa);
        let Some(op) = op else {
            return Ok(exit::WFI);
        };
        match op {
            GuestOp::Wfi => Ok(exit::WFI),
            GuestOp::Read(gipa) | GuestOp::Write(gipa, _) => {
                let access = if matches!(op, GuestOp::Write(..)) {
                    Access::Write
                } else {
                    Access::Read
                };
                let table = self.state.vm_table_lock(ctx);
                let vm = table.get(handle);
                self.state.vm_table_unlock(ctx, table);
                let vm = vm?;
                // Guest "hardware" consults this CPU's TLB under the guest
                // VMID; the permission filter lives inside `lookup` so a
                // rejected entry counts as the miss it behaves as.
                let cached = self.tlb.lookup(ctx.cpu, vm.vmid(), gipa, access);
                let tr = match cached {
                    Some(hit) => Ok(pkvm_aarch64::walk::Translation {
                        oa: hit.oa.wrapping_add(gipa & (PAGE_SIZE - 1)),
                        ..hit
                    }),
                    None => {
                        let inner = self.state.vm_lock(ctx, &vm);
                        let tr = translate(ctx.mem, inner.pgt.stage, inner.pgt.root, gipa, access);
                        self.state.vm_unlock(ctx, &vm, inner);
                        if let Ok(t) = &tr {
                            self.tlb.fill(ctx.cpu, vm.vmid(), gipa, *t);
                        }
                        tr
                    }
                };
                match tr {
                    Ok(tr) => {
                        // Perform the access as guest "hardware" would.
                        let word = PhysAddr::new(tr.oa.bits() & !7);
                        if let GuestOp::Write(_, v) = op {
                            ctx.mem.write_u64(word, v).expect("mapped RAM");
                        } else {
                            let v = ctx.mem.read_u64(word).expect("mapped RAM");
                            // The value is a read of guest-visible memory:
                            // nondeterministic input for the spec.
                            ctx.hooks
                                .read_once(&ctx.hook_ctx(), "vcpu_run/read_value", v);
                            let (_, _, vcpu) = guard.loaded_vcpu.as_mut().expect("checked");
                            vcpu.regs.set(0, v);
                        }
                        Ok(exit::CONTINUE)
                    }
                    Err(_) => {
                        cov::hit!("vcpu_run/guest_abort");
                        // Stage 2 abort: exit to the host with the details.
                        *exit_info = Some((gipa, matches!(access, Access::Write) as u64));
                        Ok(exit::MEM_ABORT)
                    }
                }
            }
            GuestOp::HvcShareHost(gipa) | GuestOp::HvcUnshareHost(gipa) => {
                let share = matches!(op, GuestOp::HvcShareHost(_));
                if share {
                    cov::hit!("vcpu_run/guest_hvc_share");
                } else {
                    cov::hit!("vcpu_run/guest_hvc_unshare");
                }
                let table = self.state.vm_table_lock(ctx);
                let vm = table.get(handle);
                self.state.vm_table_unlock(ctx, table);
                let vm = vm?;
                let inner = self.state.vm_lock(ctx, &vm);
                let pgt = inner.pgt;
                let firmware = inner.firmware.clone();
                let (_, _, vcpu) = guard.loaded_vcpu.as_mut().expect("checked");
                let r = if share {
                    mem_protect::guest_share_host(
                        ctx,
                        &self.state,
                        &vm,
                        &pgt,
                        &firmware,
                        &mut vcpu.memcache,
                        gipa,
                    )
                } else {
                    mem_protect::guest_unshare_host(
                        ctx,
                        &self.state,
                        &vm,
                        &pgt,
                        &mut vcpu.memcache,
                        gipa,
                    )
                };
                self.state.vm_unlock(ctx, &vm, inner);
                let (_, _, vcpu) = guard.loaded_vcpu.as_mut().expect("checked");
                vcpu.regs.set(0, ret_of_result(r.map(|()| 0)));
                Ok(exit::GUEST_HVC)
            }
        }
    }

    /// `vcpu_get_reg(n)`: read a saved register of the loaded vCPU (the
    /// host needs guest registers to emulate MMIO).
    fn do_vcpu_get_reg(&self, guard: &mut MutexGuard<'_, CpuState>, n: u64) -> HypResult<u64> {
        let Some((_, _, vcpu)) = guard.loaded_vcpu.as_ref() else {
            return Err(Errno::ENOENT);
        };
        if n >= 31 {
            return Err(Errno::EINVAL);
        }
        cov::hit!("vcpu_reg/get");
        Ok(vcpu.regs.get(n as usize))
    }

    /// `vcpu_set_reg(n, value)`: write a saved register of the loaded
    /// vCPU (completing an emulated MMIO read).
    fn do_vcpu_set_reg(
        &self,
        guard: &mut MutexGuard<'_, CpuState>,
        n: u64,
        value: u64,
    ) -> HypResult {
        let Some((_, _, vcpu)) = guard.loaded_vcpu.as_mut() else {
            return Err(Errno::ENOENT);
        };
        if n >= 31 {
            return Err(Errno::EINVAL);
        }
        cov::hit!("vcpu_reg/set");
        vcpu.regs.set(n as usize, value);
        Ok(())
    }

    /// `topup_memcache(addr, nr)`: donate host pages into the loaded
    /// vCPU's memcache (bugs 1 and 2 live down this path).
    fn do_topup_memcache(
        &self,
        ctx: &HypCtx<'_>,
        guard: &mut MutexGuard<'_, CpuState>,
        addr: u64,
        nr: u64,
    ) -> HypResult {
        let Some((_, _, vcpu)) = guard.loaded_vcpu.as_mut() else {
            return Err(Errno::ENOENT);
        };
        mem_protect::topup_memcache(ctx, &self.state, &mut vcpu.memcache, addr, nr)
    }

    /// `host_map_guest(pfn, gfn)`: give the faulted guest page to the
    /// loaded vCPU's VM — shared for unprotected VMs, donated for
    /// protected ones.
    fn do_host_map_guest(
        &self,
        ctx: &HypCtx<'_>,
        guard: &mut MutexGuard<'_, CpuState>,
        pfn: u64,
        gfn: u64,
    ) -> HypResult {
        let result = (|| {
            let Some((handle, _, _)) = guard.loaded_vcpu.as_ref() else {
                cov::hit!("host_map_guest/no_vcpu");
                return Err(Errno::ENOENT);
            };
            // Reject gfns beyond the modelled 48-bit IPA space before they
            // alias table indices.
            if gfn >= 1 << 36 {
                return Err(Errno::EINVAL);
            }
            let handle = *handle;
            let table = self.state.vm_table_lock(ctx);
            let vm = table.get(handle);
            self.state.vm_table_unlock(ctx, table);
            let vm = vm?;
            let inner = self.state.vm_lock(ctx, &vm);
            let pgt = inner.pgt;
            let (_, _, vcpu) = guard.loaded_vcpu.as_mut().expect("checked");
            let r = if vm.protected {
                mem_protect::host_donate_guest(
                    ctx,
                    &self.state,
                    &vm,
                    &pgt,
                    &mut vcpu.memcache,
                    pfn,
                    gfn,
                )
            } else {
                mem_protect::host_share_guest(
                    ctx,
                    &self.state,
                    &vm,
                    &pgt,
                    &mut vcpu.memcache,
                    pfn,
                    gfn,
                )
            };
            self.state.vm_unlock(ctx, &vm, inner);
            r
        })();
        match &result {
            Ok(()) => cov::hit!("host_map_guest/ok"),
            Err(_) => cov::hit!("host_map_guest/err"),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercalls::*;
    use crate::machine::MachineConfig;
    use crate::owner::PageState;
    use pkvm_aarch64::attrs::Stage;
    use pkvm_aarch64::walk::walk as hw_walk;
    use std::sync::Arc;

    fn boot() -> Arc<Machine> {
        Machine::boot_default()
    }

    /// Writes VM params (nr_vcpus, protected) into a host page.
    fn write_params(m: &Machine, pfn: u64, nr_vcpus: u64, protected: u64) {
        let pa = PhysAddr::from_pfn(pfn);
        m.mem.write_u64(pa, nr_vcpus).unwrap();
        m.mem.write_u64(pa.wrapping_add(8), protected).unwrap();
    }

    const PARAMS_PFN: u64 = 0x40200;
    const DONATE_PFN: u64 = 0x40300;
    const VCPU_PFN: u64 = 0x40310;
    const GUEST_PFN: u64 = 0x40400;
    const MC_PFN: u64 = 0x40500;

    fn make_vm(m: &Machine, protected: u64) -> Handle {
        write_params(m, PARAMS_PFN, 1, protected);
        let handle = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
        assert!(
            Errno::from_ret(handle).is_none(),
            "init_vm failed: {handle:#x}"
        );
        let r = m.hvc(0, HVC_INIT_VCPU, &[handle, 0, VCPU_PFN]);
        assert_eq!(r, 0, "init_vcpu failed");
        handle as Handle
    }

    #[test]
    fn vm_lifecycle_happy_path() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        // Top up the memcache and map a guest page.
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
            ),
            0
        );
        assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
        // Guest reads the page successfully.
        m.push_guest_op(handle, 0, GuestOp::Read(0x10 * PAGE_SIZE))
            .unwrap();
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[handle as u64]), 0);
        // The guest page is now reclaimable.
        assert_eq!(m.hvc(0, HVC_HOST_RECLAIM_PAGE, &[GUEST_PFN]), 0);
        assert!(m.panicked().is_none());
    }

    #[test]
    fn teardown_queues_guest_pages_from_the_whole_ipa_space_for_reclaim() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 16]
            ),
            0
        );
        // Below and above 2^40, up to the last gfn `host_map_guest` admits.
        let gfns = [0x10, 0xfff_ffff, 0x1000_0000, 0xf_ffff_ffff];
        for (i, gfn) in (0u64..).zip(gfns) {
            assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN + i, gfn]), 0);
        }
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[handle as u64]), 0);
        for (i, gfn) in (0u64..).zip(gfns) {
            let pfn = GUEST_PFN + i;
            assert_eq!(
                m.hvc(0, HVC_HOST_RECLAIM_PAGE, &[pfn]),
                0,
                "page mapped at gfn {gfn:#x} reclaims"
            );
            assert!(
                m.host_access(1, PhysAddr::from_pfn(pfn).bits(), Access::Read)
                    .is_ok(),
                "the host reads the page it mapped at gfn {gfn:#x}"
            );
        }
        assert!(m.panicked().is_none());
    }

    #[test]
    fn guest_fault_exit_then_map_then_retry() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
            ),
            0
        );
        m.push_guest_op(handle, 0, GuestOp::Write(0x20 * PAGE_SIZE, 0x77))
            .unwrap();
        // First run: stage 2 abort exit with the faulting IPA in x2.
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::MEM_ABORT);
        let gipa = m.cpus[0].lock().regs.get(2);
        assert_eq!(gipa, 0x20 * PAGE_SIZE);
        // Host resolves the fault and re-runs the guest.
        assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x20]), 0);
        m.push_guest_op(handle, 0, GuestOp::Write(0x20 * PAGE_SIZE, 0x77))
            .unwrap();
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
        assert_eq!(m.mem.read_u64(PhysAddr::from_pfn(GUEST_PFN)).unwrap(), 0x77);
    }

    #[test]
    fn protected_vm_donation_hides_page_from_host() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
            ),
            0
        );
        assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
        // The host may no longer touch the donated page.
        assert!(m
            .host_access(1, PhysAddr::from_pfn(GUEST_PFN).bits(), Access::Read)
            .is_err());
    }

    #[test]
    fn unprotected_vm_share_keeps_host_access() {
        let m = boot();
        let handle = make_vm(&m, 0);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
            ),
            0
        );
        assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
        // Shared, not donated: the host can still read it.
        assert!(m
            .host_access(1, PhysAddr::from_pfn(GUEST_PFN).bits(), Access::Read)
            .is_ok());
    }

    #[test]
    fn guest_share_back_and_unshare() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            m.hvc(
                0,
                HVC_TOPUP_MEMCACHE,
                &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
            ),
            0
        );
        assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
        // Guest shares the page back with the host (virtio-style).
        m.push_guest_op(handle, 0, GuestOp::HvcShareHost(0x10 * PAGE_SIZE))
            .unwrap();
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::GUEST_HVC);
        assert!(m
            .host_access(1, PhysAddr::from_pfn(GUEST_PFN).bits(), Access::Read)
            .is_ok());
        let host_root = m.state.host_pgt.lock().root;
        let tr = hw_walk(
            &m.mem,
            Stage::Stage2,
            host_root,
            PhysAddr::from_pfn(GUEST_PFN).bits(),
        )
        .unwrap();
        assert_eq!(tr.attrs.sw, PageState::SharedBorrowed.to_sw());
        // And revokes it.
        m.push_guest_op(handle, 0, GuestOp::HvcUnshareHost(0x10 * PAGE_SIZE))
            .unwrap();
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::GUEST_HVC);
        assert!(m
            .host_access(1, PhysAddr::from_pfn(GUEST_PFN).bits(), Access::Read)
            .is_err());
    }

    #[test]
    fn vcpu_load_context_switches_vttbr() {
        let m = boot();
        let handle = make_vm(&m, 1);
        let host_root = m.state.host_pgt.lock().root;
        assert_eq!(m.cpus[0].lock().sysregs.vttbr_el2.vmid(), 0);
        assert_eq!(m.cpus[0].lock().sysregs.vttbr_el2.baddr(), host_root);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        {
            let g = m.cpus[0].lock();
            assert_eq!(g.sysregs.vttbr_el2.vmid(), 1, "guest VMID installed");
            assert_ne!(
                g.sysregs.vttbr_el2.baddr(),
                host_root,
                "guest stage 2 root installed"
            );
        }
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        let g = m.cpus[0].lock();
        assert_eq!(g.sysregs.vttbr_el2.vmid(), 0, "host VMID restored");
        assert_eq!(g.sysregs.vttbr_el2.baddr(), host_root);
    }

    #[test]
    fn vcpu_reg_access_roundtrip() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(m.hvc(0, HVC_VCPU_SET_REG, &[7, 0xdead]), 0);
        assert_eq!(m.hvc(0, HVC_VCPU_GET_REG, &[7]), 0);
        assert_eq!(m.cpus[0].lock().regs.get(2), 0xdead, "value returned in x2");
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_GET_REG, &[31])),
            Some(Errno::EINVAL)
        );
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_GET_REG, &[0])),
            Some(Errno::ENOENT)
        );
    }

    #[test]
    fn vcpu_load_errors() {
        let m = boot();
        let handle = make_vm(&m, 1);
        // Unknown handle / bad index / double load / load of uninit slot.
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_LOAD, &[0x9999, 0])),
            Some(Errno::ENOENT)
        );
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 5])),
            Some(Errno::EINVAL)
        );
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            Errno::from_ret(m.hvc(1, HVC_VCPU_LOAD, &[handle as u64, 0])),
            Some(Errno::EBUSY)
        );
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0])),
            Some(Errno::EBUSY)
        );
    }

    #[test]
    fn teardown_with_loaded_vcpu_is_busy() {
        let m = boot();
        let handle = make_vm(&m, 1);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle as u64, 0]), 0);
        assert_eq!(
            Errno::from_ret(m.hvc(1, HVC_TEARDOWN_VM, &[handle as u64])),
            Some(Errno::EBUSY)
        );
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[handle as u64]), 0);
    }

    #[test]
    fn init_vm_rejects_bad_params() {
        let m = boot();
        write_params(&m, PARAMS_PFN, 0, 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2])),
            Some(Errno::EINVAL)
        );
        write_params(&m, PARAMS_PFN, 1, 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 3])),
            Some(Errno::EINVAL)
        );
        // Donating pages the host no longer owns fails.
        write_params(&m, PARAMS_PFN, 1, 0);
        let h = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
        assert!(Errno::from_ret(h).is_none());
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2])),
            Some(Errno::EPERM)
        );
    }

    const FW_PFN: u64 = 0x40600;

    #[test]
    fn firmware_boot_lifecycle() {
        let m = boot();
        write_params(&m, PARAMS_PFN, 1, 1);
        let handle = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
        assert!(Errno::from_ret(handle).is_none());
        // Donate a 2-page firmware region before any vCPU exists.
        assert_eq!(
            m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[handle, FW_PFN, 0x80, 2]),
            0
        );
        // The host may no longer touch the firmware pages.
        assert!(m
            .host_access(1, PhysAddr::from_pfn(FW_PFN).bits(), Access::Read)
            .is_err());
        // Once a vCPU is initialised, further loads are refused.
        assert_eq!(m.hvc(0, HVC_INIT_VCPU, &[handle, 0, VCPU_PFN]), 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[handle, FW_PFN + 8, 0xa0, 1])),
            Some(Errno::EBUSY)
        );
        // The guest boots from its firmware.
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
        m.push_guest_op(handle as Handle, 0, GuestOp::Read(0x80 * PAGE_SIZE))
            .unwrap();
        assert_eq!(m.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
        assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
        // Teardown retires the region: never reclaimable, never host's.
        assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[handle]), 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_HOST_RECLAIM_PAGE, &[FW_PFN])),
            Some(Errno::EPERM)
        );
        assert!(m
            .host_access(1, PhysAddr::from_pfn(FW_PFN).bits(), Access::Read)
            .is_err());
        assert!(m.panicked().is_none());
    }

    #[test]
    fn firmware_load_rejects_bad_targets() {
        let m = boot();
        // Unknown handle.
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[0x9999, FW_PFN, 0x80, 1])),
            Some(Errno::ENOENT)
        );
        // Unprotected VM.
        let unprot = make_vm(&m, 0);
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[unprot as u64, FW_PFN, 0x80, 1])),
            Some(Errno::EPERM)
        );
        // Zero or oversized page counts.
        write_params(&m, PARAMS_PFN, 1, 1);
        let h = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, 0x40320, 2]);
        assert!(Errno::from_ret(h).is_none());
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[h, FW_PFN, 0x80, 0])),
            Some(Errno::EINVAL)
        );
        assert_eq!(
            Errno::from_ret(m.hvc(
                0,
                HVC_VM_LOAD_FIRMWARE,
                &[h, FW_PFN, 0x80, MAX_FIRMWARE_PAGES + 1]
            )),
            Some(Errno::EINVAL)
        );
    }

    #[test]
    fn syn_firmware_reclaim_hands_firmware_back() {
        let m = boot();
        m.faults.inject(Fault::SynFirmwareReclaim);
        write_params(&m, PARAMS_PFN, 1, 1);
        let handle = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
        assert!(Errno::from_ret(handle).is_none());
        assert_eq!(
            m.hvc(0, HVC_VM_LOAD_FIRMWARE, &[handle, FW_PFN, 0x80, 1]),
            0
        );
        assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[handle]), 0);
        // The bug queued the firmware page for reclaim; the host gets it.
        assert_eq!(m.hvc(0, HVC_HOST_RECLAIM_PAGE, &[FW_PFN]), 0);
        assert!(m
            .host_access(1, PhysAddr::from_pfn(FW_PFN).bits(), Access::Read)
            .is_ok());
    }

    #[test]
    fn bug3_load_of_uninit_vcpu_returns_garbage() {
        let m = boot();
        write_params(&m, PARAMS_PFN, 2, 1);
        let handle = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
        m.hvc(0, HVC_INIT_VCPU, &[handle, 0, VCPU_PFN]);
        // Slot 1 is never initialised. A clean load fails...
        assert_eq!(
            Errno::from_ret(m.hvc(0, HVC_VCPU_LOAD, &[handle, 1])),
            Some(Errno::ENOENT)
        );
        // ...but with bug 3 injected it "succeeds" with garbage state.
        m.faults.inject(Fault::Bug3VcpuLoadRace);
        assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[handle, 1]), 0);
        let g = m.cpus[0].lock();
        let (_, _, vcpu) = g.loaded_vcpu.as_ref().unwrap();
        assert_eq!(vcpu.regs.get(0), crate::vm::UNINIT_PATTERN);
    }

    #[test]
    fn bug4_racing_host_s1_panics_when_injected() {
        let m = boot();
        // Host builds a stage 1 table in its own memory: va 0 -> some RAM.
        let s1_root = PhysAddr::new(0x4060_0000);
        // Build the table by direct writes (host memory is host's to edit).
        let l1 = PhysAddr::new(0x4060_1000);
        let l2 = PhysAddr::new(0x4060_2000);
        let l3 = PhysAddr::new(0x4060_3000);
        use pkvm_aarch64::desc::Pte;
        m.mem.write_pte(s1_root, 0, Pte::table(l1)).unwrap();
        m.mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
        m.mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        m.mem
            .write_pte(
                l3,
                0,
                Pte::leaf(
                    Stage::Stage1,
                    3,
                    PhysAddr::new(0x4070_0000),
                    pkvm_aarch64::attrs::Attrs::normal(pkvm_aarch64::attrs::Perms::RWX),
                ),
            )
            .unwrap();
        m.register_host_s1(s1_root);
        // Clean hypervisor: the racing host merely gets a fault injected.
        let r = m.host_access_via_s1(0, 0, Access::Read, || {
            m.mem.write_pte(l3, 0, Pte::invalid()).unwrap();
        });
        assert!(r.is_err());
        assert!(m.panicked().is_none(), "clean pKVM must tolerate the race");
        // Restore the entry; with bug 4 injected the same race panics EL2.
        m.mem
            .write_pte(
                l3,
                0,
                Pte::leaf(
                    Stage::Stage1,
                    3,
                    PhysAddr::new(0x4070_0000),
                    pkvm_aarch64::attrs::Attrs::normal(pkvm_aarch64::attrs::Perms::RWX),
                ),
            )
            .unwrap();
        m.faults.inject(Fault::Bug4HostFaultRace);
        let _ = m.host_access_via_s1(0, 0, Access::Read, || {
            m.mem.write_pte(l3, 0, Pte::invalid()).unwrap();
        });
        assert!(m.panicked().is_some(), "bug 4 must panic the hypervisor");
    }

    #[test]
    fn bug5_huge_dram_aliases_uart_into_linear_map() {
        let faults = Arc::new(crate::faults::FaultSet::none());
        faults.inject(Fault::Bug5LinearMapOverlap);
        let m = Machine::boot(
            MachineConfig::huge_dram(),
            Arc::new(crate::hooks::NoHooks),
            faults,
        );
        // The UART VA now lies inside the linear span; the UART mapping
        // (installed last) clobbered a linear-map entry, so a hypervisor
        // access to that "RAM" VA reaches the device.
        let hyp_root = m.state.hyp_pgt.lock().root;
        let uart_va = m.state.layout.uart_va;
        assert!(m.state.layout.in_linear_map(uart_va));
        let tr = hw_walk(&m.mem, Stage::Stage1, hyp_root, uart_va.bits()).unwrap();
        assert!(
            m.mem.is_mmio(tr.oa),
            "linear-map VA reaches the device: unchecked IO access"
        );
        // The clean layout keeps them disjoint even with huge DRAM.
        let clean = Machine::boot(
            MachineConfig::huge_dram(),
            Arc::new(crate::hooks::NoHooks),
            Arc::new(crate::faults::FaultSet::none()),
        );
        assert!(!clean.state.layout.in_linear_map(clean.state.layout.uart_va));
    }
}
