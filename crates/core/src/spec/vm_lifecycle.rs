//! Specifications of VM lifecycle hypercalls: `init_vm`, `init_vcpu`,
//! `teardown_vm`.
//!
//! These are the "more interesting" hypercalls of §4.3: `init_vm` reads
//! its configuration from a host-owned page via `READ_ONCE` (the values
//! arrive as call data), and the handle it returns is deterministic from
//! the pre-state (the lowest free VM-table slot). `teardown_vm` computes
//! the full set of pages that return to the host — metadata, memcache,
//! and stage 2 table pages — from the abstract pre-state alone.

use std::collections::BTreeSet;

use pkvm_aarch64::addr::{PAGE_SHIFT, PAGE_SIZE};
use pkvm_hyp::error::Errno;
use pkvm_hyp::owner::{OwnerId, PageState};
use pkvm_hyp::vm::{handle_of_slot, Handle, MAX_VMS};

use crate::calldata::GhostCallData;
use crate::maplet::{Maplet, MapletTarget};
use crate::state::{AbstractPgtable, GhostState, GhostVcpu, GhostVm};

use super::{
    abs_hyp_attrs, epilogue_host_call, impl_reported_enomem, is_owned_exclusively_by_host,
    SpecVerdict,
};

/// Maximum vCPUs per VM (mirrors the handler's ABI constant).
const MAX_VCPUS: u64 = 8;
/// Pages donated at `init_vm` (metadata + stage 2 root).
const VM_DONATION_PAGES: u64 = 2;

/// Adds the host-to-hyp donation of `nr` pages at `phys` to the computed
/// post-state (annotation + linear mapping), assuming exclusivity was
/// checked.
fn donate_to_hyp(
    g: &mut GhostState,
    globals_hyp_va: u64,
    phys: u64,
    nr: u64,
) -> Result<(), String> {
    g.host
        .as_mut()
        .expect("host component initialised")
        .annot
        .try_insert_new(Maplet {
            ia: phys,
            nr_pages: nr,
            target: MapletTarget::Annotated {
                owner: OwnerId::HYP,
            },
        })
        .map_err(|ia| format!("annotation collision at {ia:#x}"))?;
    g.pkvm
        .as_mut()
        .expect("pkvm component initialised")
        .pgt
        .mapping
        .try_insert_new(Maplet {
            ia: globals_hyp_va,
            nr_pages: nr,
            target: MapletTarget::Mapped {
                oa: phys,
                attrs: abs_hyp_attrs(true, PageState::Owned),
            },
        })
        .map_err(|ia| format!("hyp VA collision at {ia:#x}"))
}

/// Executable specification of `__pkvm_init_vm`.
pub fn init_vm(g_pre: &GhostState, call: &GhostCallData, g_post: &mut GhostState) -> SpecVerdict {
    if impl_reported_enomem(call) {
        // Covers both allocator exhaustion and a full VM table (whose
        // rollback donation dance we deliberately leave loose).
        crate::spec::spec_hit!("spec/init_vm/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let params_pfn = g_pre.read_gpr(cpu, 1);
    let donate_pfn = g_pre.read_gpr(cpu, 2);
    let donate_nr = g_pre.read_gpr(cpu, 3);
    let phys = donate_pfn << PAGE_SHIFT;

    // The configuration was read from host-owned memory: nondeterministic,
    // resolved by the recorded call data (§4.3).
    let (Some(nr_vcpus), Some(protected)) = (
        call.read_once("init_vm/nr_vcpus"),
        call.read_once("init_vm/protected"),
    ) else {
        // The handler bailed before reading (bad params page).
        if !g_pre.globals.is_ram(params_pfn << PAGE_SHIFT) {
            crate::spec::spec_hit!("spec/init_vm/einval");
            epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
            return SpecVerdict::Checked;
        }
        crate::spec::spec_hit!("spec/init_vm/unchecked2");
        return SpecVerdict::Unchecked("missing call data");
    };

    if nr_vcpus == 0 || nr_vcpus > MAX_VCPUS || donate_nr != VM_DONATION_PAGES {
        crate::spec::spec_hit!("spec/init_vm/einval2");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    for i in 0..donate_nr {
        if !is_owned_exclusively_by_host(host_pre, g_pre, phys + i * PAGE_SIZE) {
            crate::spec::spec_hit!("spec/init_vm/eperm");
            epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
            return SpecVerdict::Checked;
        }
    }

    // The handle is deterministic: the lowest free slot.
    let table_pre = g_pre.vm_table.as_ref().expect("vm_table locked by handler");
    let used: BTreeSet<usize> = table_pre.iter().map(|&(_, s)| s).collect();
    let Some(slot) = (0..MAX_VMS).find(|s| !used.contains(s)) else {
        crate::spec::spec_hit!("spec/init_vm/unchecked3");
        return SpecVerdict::Unchecked("table full: rollback path is loose");
    };
    let handle = handle_of_slot(slot);

    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);
    if let Err(e) = donate_to_hyp(g_post, g_pre.globals.hyp_va(phys), phys, donate_nr) {
        return SpecVerdict::Impossible(e);
    }
    let mut table = table_pre.clone();
    table.push((handle, slot));
    table.sort_unstable();
    g_post.vm_table = Some(table);
    // The freshly created VM's metadata: recorded for the *deferred* check
    // at its first lock acquisition (the handler never locks it here).
    g_post.vms.insert(
        handle,
        GhostVm {
            handle,
            slot,
            protected: protected != 0,
            pgt: AbstractPgtable::default(),
            donated: vec![donate_pfn, donate_pfn + 1],
            firmware: Vec::new(),
            vcpus: (0..nr_vcpus).map(|_| GhostVcpu::Uninit).collect(),
        },
    );
    crate::spec::spec_hit!("spec/init_vm/ok");
    epilogue_host_call(g_pre, call, g_post, handle as u64, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_init_vcpu`.
pub fn init_vcpu(g_pre: &GhostState, call: &GhostCallData, g_post: &mut GhostState) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/init_vcpu/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let handle = g_pre.read_gpr(cpu, 1) as Handle;
    let idx = g_pre.read_gpr(cpu, 2) as usize;
    let donate_pfn = g_pre.read_gpr(cpu, 3);
    let phys = donate_pfn << PAGE_SHIFT;

    let table_pre = g_pre.vm_table.as_ref().expect("vm_table locked by handler");
    if !table_pre.iter().any(|&(h, _)| h == handle) {
        crate::spec::spec_hit!("spec/init_vcpu/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    // A bad index is rejected from immutable VM metadata before any lock
    // the ghost records; accept the error parametrically.
    if call.ret() == Errno::EINVAL.to_ret() {
        crate::spec::spec_hit!("spec/init_vcpu/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    if !is_owned_exclusively_by_host(host_pre, g_pre, phys) {
        crate::spec::spec_hit!("spec/init_vcpu/eperm");
        epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let Some(vm_pre) = g_pre.vms.get(&handle) else {
        crate::spec::spec_hit!("spec/init_vcpu/unchecked2");
        return SpecVerdict::Unchecked("vm not recorded");
    };
    if !matches!(vm_pre.vcpus.get(idx), Some(GhostVcpu::Uninit)) {
        // The rollback donation dance nets out to no change.
        crate::spec::spec_hit!("spec/init_vcpu/eexist");
        epilogue_host_call(g_pre, call, g_post, Errno::EEXIST.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }

    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);
    g_post.copy_vm_table_from(g_pre);
    g_post.copy_vm_from(g_pre, handle);
    if let Err(e) = donate_to_hyp(g_post, g_pre.globals.hyp_va(phys), phys, 1) {
        return SpecVerdict::Impossible(e);
    }
    let vm = g_post.vms.get_mut(&handle).expect("initialised");
    vm.vcpus[idx] = GhostVcpu::Present {
        regs: Default::default(),
        memcache: Vec::new(),
    };
    vm.donated.push(donate_pfn);
    crate::spec::spec_hit!("spec/init_vcpu/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_teardown_vm`: the guest's mapped
/// pages stay annotated (awaiting reclaim); everything the host donated
/// for the VM's *infrastructure* — metadata pages, unused memcache pages,
/// and stage 2 table nodes — returns to it.
pub fn teardown_vm(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/teardown_vm/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let handle = g_pre.read_gpr(cpu, 1) as Handle;
    let table_pre = g_pre.vm_table.as_ref().expect("vm_table locked by handler");
    if !table_pre.iter().any(|&(h, _)| h == handle) {
        crate::spec::spec_hit!("spec/teardown_vm/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let Some(vm_pre) = g_pre.vms.get(&handle) else {
        crate::spec::spec_hit!("spec/teardown_vm/unchecked2");
        return SpecVerdict::Unchecked("vm not recorded");
    };
    if vm_pre
        .vcpus
        .iter()
        .any(|v| matches!(v, GhostVcpu::Loaded { .. }))
    {
        crate::spec::spec_hit!("spec/teardown_vm/ebusy");
        epilogue_host_call(g_pre, call, g_post, Errno::EBUSY.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }

    // Pages returning to the host: donated metadata, per-vCPU memcache
    // pages, and the stage 2 table nodes (the root is among the donated).
    // Table nodes inside the hypervisor carveout came from the pool, not
    // the host (firmware mappings are built before any memcache exists):
    // they go back to the pool and never touch the host's table. Firmware
    // pages themselves are *retired*, not returned — handled below.
    let (hyp_base, hyp_nr) = g_pre.globals.hyp_range;
    let in_hyp_range = |pfn: u64| pfn >= hyp_base && pfn < hyp_base + hyp_nr;
    let mut returned: BTreeSet<u64> = vm_pre.donated.iter().copied().collect();
    for v in &vm_pre.vcpus {
        if let GhostVcpu::Present { memcache, .. } = v {
            returned.extend(memcache.iter().copied());
        }
    }
    returned.extend(
        vm_pre
            .pgt
            .table_pages
            .iter()
            .copied()
            .filter(|&pfn| !in_hyp_range(pfn)),
    );

    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);
    let host = g_post.host.as_mut().expect("initialised");
    let pkvm = g_post.pkvm.as_mut().expect("initialised");
    for &pfn in &returned {
        let pa = pfn << PAGE_SHIFT;
        host.annot.remove(pa, 1);
        pkvm.pgt.mapping.remove(g_pre.globals.hyp_va(pa), 1);
    }
    // Firmware pages never return to the host: they are wiped and retired
    // to the hypervisor, so their guest annotation flips to pKVM's.
    for &pfn in &vm_pre.firmware {
        let pa = pfn << PAGE_SHIFT;
        host.annot.remove(pa, 1);
        host.annot.insert_new(Maplet {
            ia: pa,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: OwnerId::HYP,
            },
        });
    }
    let mut table: Vec<(Handle, usize)> = table_pre
        .iter()
        .copied()
        .filter(|&(h, _)| h != handle)
        .collect();
    table.sort_unstable();
    g_post.vm_table = Some(table);
    // The VM component's final recorded state: emptied stage 2, drained
    // memcaches and firmware, registers preserved.
    let mut vm = vm_pre.clone();
    vm.pgt = AbstractPgtable::default();
    vm.firmware.clear();
    for v in &mut vm.vcpus {
        if let GhostVcpu::Present { memcache, .. } = v {
            memcache.clear();
        }
    }
    g_post.vms.insert(handle, vm);
    crate::spec::spec_hit!("spec/teardown_vm/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}
