//! Specification of `vm_load_firmware`: the pvmfw-style protected boot.
//!
//! Android's protected boot donates a firmware image to a protected VM
//! *before any vCPU runs*: the host hands over a contiguous page range,
//! the hypervisor hides it from the host's stage 2 and maps it into the
//! guest as owned memory. The host must never regain access for the VM's
//! lifetime — the per-event half of that property is specified here; the
//! lifetime half (spanning teardown and handle reuse) is the oracle's
//! firmware-protection tracker.

use pkvm_aarch64::addr::{PAGE_SHIFT, PAGE_SIZE};
use pkvm_hyp::error::Errno;
use pkvm_hyp::handlers::MAX_FIRMWARE_PAGES;
use pkvm_hyp::owner::{OwnerId, PageState};
use pkvm_hyp::vm::Handle;

use crate::calldata::GhostCallData;
use crate::maplet::{Maplet, MapletTarget};
use crate::state::{GhostState, GhostVcpu};

use super::{
    abs_guest_attrs, epilogue_host_call, impl_reported_enomem, is_owned_exclusively_by_host,
    SpecVerdict,
};

/// Executable specification of `__pkvm_vm_load_firmware`.
///
/// Error precedence mirrors the handler exactly: `EINVAL` (bad bounds,
/// before any lock) → `ENOENT` (stale handle) → `EPERM` (unprotected VM,
/// before the VM lock) → `EBUSY` (a vCPU exists) → `EPERM` (a page is not
/// transferable) → success.
pub fn vm_load_firmware(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/vm_load_firmware/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let handle = g_pre.read_gpr(cpu, 1) as Handle;
    let pfn = g_pre.read_gpr(cpu, 2);
    let gfn = g_pre.read_gpr(cpu, 3);
    let nr = g_pre.read_gpr(cpu, 4);
    let phys = pfn << PAGE_SHIFT;

    if nr == 0 || nr > MAX_FIRMWARE_PAGES || gfn >= 1 << 36 {
        crate::spec::spec_hit!("spec/vm_load_firmware/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let table_pre = g_pre.vm_table.as_ref().expect("vm_table locked by handler");
    if !table_pre.iter().any(|&(h, _)| h == handle) {
        crate::spec::spec_hit!("spec/vm_load_firmware/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let Some(vm_pre) = g_pre.vms.get(&handle) else {
        // The handler bails before the VM lock only for an unprotected VM
        // (`protected` is immutable metadata): accept that one error
        // parametrically, since the ghost cannot see the flag here.
        if call.ret() == Errno::EPERM.to_ret() {
            crate::spec::spec_hit!("spec/vm_load_firmware/eperm");
            epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
            return SpecVerdict::Checked;
        }
        crate::spec::spec_hit!("spec/vm_load_firmware/unchecked2");
        return SpecVerdict::Unchecked("vm not recorded");
    };
    if !vm_pre.protected {
        crate::spec::spec_hit!("spec/vm_load_firmware/eperm");
        epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    // "Before any vCPU runs": the whole point of protected boot is that
    // the firmware is in place before the guest can observe anything.
    if !vm_pre.vcpus.iter().all(|v| matches!(v, GhostVcpu::Uninit)) {
        crate::spec::spec_hit!("spec/vm_load_firmware/ebusy");
        epilogue_host_call(g_pre, call, g_post, Errno::EBUSY.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    for i in 0..nr {
        let pa = phys + i * PAGE_SIZE;
        let gipa = (gfn + i) << PAGE_SHIFT;
        if !is_owned_exclusively_by_host(host_pre, g_pre, pa)
            || vm_pre.pgt.mapping.lookup(gipa).is_some()
        {
            crate::spec::spec_hit!("spec/vm_load_firmware/eperm2");
            epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
            return SpecVerdict::Checked;
        }
    }

    g_post.copy_host_from(g_pre);
    g_post.copy_vm_table_from(g_pre);
    g_post.copy_vm_from(g_pre, handle);
    g_post
        .host
        .as_mut()
        .expect("initialised")
        .annot
        .insert_new(Maplet {
            ia: phys,
            nr_pages: nr,
            target: MapletTarget::Annotated {
                owner: OwnerId::guest(vm_pre.slot),
            },
        });
    let vm = g_post.vms.get_mut(&handle).expect("initialised");
    vm.pgt.mapping.insert_new(Maplet {
        ia: gfn << PAGE_SHIFT,
        nr_pages: nr,
        target: MapletTarget::Mapped {
            oa: phys,
            attrs: abs_guest_attrs(PageState::Owned),
        },
    });
    vm.firmware.extend((0..nr).map(|i| pfn + i));
    crate::spec::spec_hit!("spec/vm_load_firmware/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}
