//! Specifications of `vcpu_load`, `vcpu_put`, and `vcpu_run`.
//!
//! Loading transfers ownership of a vCPU's metadata from its VM lock to
//! the hardware thread (§3.1's "additional subtlety"): the spec moves the
//! ghost vCPU from the VM component into the thread-local component, and
//! putting moves it back. `vcpu_run` is parameterised on what the guest
//! did — the scripted step and any guest-read values arrive as call data.

use pkvm_aarch64::addr::{page_align_down, PAGE_SHIFT};
use pkvm_hyp::error::Errno;
use pkvm_hyp::hypercalls::exit;
use pkvm_hyp::owner::{OwnerId, PageState};
use pkvm_hyp::vm::Handle;

use crate::calldata::GhostCallData;
use crate::maplet::{Maplet, MapletTarget};
use crate::state::{GhostLoadedVcpu, GhostState, GhostVcpu};

use super::{abs_host_attrs, epilogue_host_call, impl_reported_enomem, SpecVerdict};

/// Executable specification of `__pkvm_vcpu_load`.
pub fn vcpu_load(g_pre: &GhostState, call: &GhostCallData, g_post: &mut GhostState) -> SpecVerdict {
    let cpu = call.cpu;
    let handle = g_pre.read_gpr(cpu, 1) as Handle;
    let idx = g_pre.read_gpr(cpu, 2) as usize;
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");

    if local_pre.loaded.is_some() {
        crate::spec::spec_hit!("spec/vcpu_load/ebusy");
        epilogue_host_call(g_pre, call, g_post, Errno::EBUSY.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let table_pre = g_pre.vm_table.as_ref().expect("vm_table locked by handler");
    if !table_pre.iter().any(|&(h, _)| h == handle) {
        crate::spec::spec_hit!("spec/vcpu_load/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    // A bad index is rejected from immutable metadata before the VM lock.
    if call.ret() == Errno::EINVAL.to_ret() {
        crate::spec::spec_hit!("spec/vcpu_load/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let Some(vm_pre) = g_pre.vms.get(&handle) else {
        crate::spec::spec_hit!("spec/vcpu_load/unchecked");
        return SpecVerdict::Unchecked("vm not recorded");
    };
    match vm_pre.vcpus.get(idx) {
        Some(GhostVcpu::Present { regs, memcache }) => {
            g_post.copy_vm_table_from(g_pre);
            g_post.copy_vm_from(g_pre, handle);
            let vm = g_post.vms.get_mut(&handle).expect("initialised");
            vm.vcpus[idx] = GhostVcpu::Loaded { on: cpu };
            crate::spec::spec_hit!("spec/vcpu_load/ok");
            epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
            let l = g_post.locals.get_mut(&cpu).expect("epilogue wrote it");
            l.loaded = Some(GhostLoadedVcpu {
                handle,
                idx,
                regs: *regs,
                memcache: memcache.clone(),
            });
            SpecVerdict::Checked
        }
        Some(GhostVcpu::Loaded { .. }) => {
            crate::spec::spec_hit!("spec/vcpu_load/ebusy2");
            epilogue_host_call(g_pre, call, g_post, Errno::EBUSY.to_ret(), 0, 0);
            SpecVerdict::Checked
        }
        // Loading an uninitialised vCPU must fail: the check real bug 3
        // was missing.
        Some(GhostVcpu::Uninit) | None => {
            crate::spec::spec_hit!("spec/vcpu_load/enoent2");
            epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
            SpecVerdict::Checked
        }
    }
}

/// Executable specification of `__pkvm_vcpu_put`.
pub fn vcpu_put(g_pre: &GhostState, call: &GhostCallData, g_post: &mut GhostState) -> SpecVerdict {
    let cpu = call.cpu;
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");
    let Some(loaded) = &local_pre.loaded else {
        crate::spec::spec_hit!("spec/vcpu_put/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    };
    crate::spec::spec_hit!("spec/vcpu_put/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    g_post
        .locals
        .get_mut(&cpu)
        .expect("epilogue wrote it")
        .loaded = None;
    g_post.copy_vm_table_from(g_pre);
    // If the VM still exists, the vCPU's state returns to it; if it was
    // torn down while loaded the state is simply dropped.
    if let Some(vm_pre) = g_pre.vms.get(&loaded.handle) {
        g_post.copy_vm_from(g_pre, loaded.handle);
        let vm = g_post.vms.get_mut(&loaded.handle).expect("initialised");
        if vm_pre.vcpus.get(loaded.idx).is_some() {
            vm.vcpus[loaded.idx] = GhostVcpu::Present {
                regs: loaded.regs,
                memcache: loaded.memcache.clone(),
            };
        }
    }
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_vcpu_get_reg`: a pure read of the
/// thread-local loaded-vCPU ghost state, returned in `x2`.
pub fn vcpu_get_reg(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    let cpu = call.cpu;
    let n = g_pre.read_gpr(cpu, 1);
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");
    let Some(loaded) = &local_pre.loaded else {
        crate::spec::spec_hit!("spec/vcpu_get_reg/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    };
    if n >= 31 {
        crate::spec::spec_hit!("spec/vcpu_get_reg/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    crate::spec::spec_hit!("spec/vcpu_get_reg/ok");
    let value = loaded.regs.get(n as usize);
    epilogue_host_call(g_pre, call, g_post, 0, value, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_vcpu_set_reg`: updates the
/// thread-local loaded-vCPU ghost state.
pub fn vcpu_set_reg(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    let cpu = call.cpu;
    let n = g_pre.read_gpr(cpu, 1);
    let value = g_pre.read_gpr(cpu, 2);
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");
    if local_pre.loaded.is_none() {
        crate::spec::spec_hit!("spec/vcpu_set_reg/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    if n >= 31 {
        crate::spec::spec_hit!("spec/vcpu_set_reg/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    crate::spec::spec_hit!("spec/vcpu_set_reg/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    let l = g_post.locals.get_mut(&cpu).expect("epilogue wrote it");
    l.loaded
        .as_mut()
        .expect("checked above")
        .regs
        .set(n as usize, value);
    SpecVerdict::Checked
}

/// Executable specification of `__kvm_vcpu_run`: one scripted guest step.
///
/// The guest's behaviour is environment input (§4.3): the step kind and
/// its address arrive as recorded call data, and the spec computes the
/// protection-state consequences — in particular the guest-initiated
/// share/unshare transitions.
pub fn vcpu_run(g_pre: &GhostState, call: &GhostCallData, g_post: &mut GhostState) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/vcpu_run/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");
    let Some(loaded) = &local_pre.loaded else {
        crate::spec::spec_hit!("spec/vcpu_run/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    };
    let handle = loaded.handle;
    let (Some(op), Some(gipa)) = (
        call.read_once("vcpu_run/op"),
        call.read_once("vcpu_run/ipa"),
    ) else {
        crate::spec::spec_hit!("spec/vcpu_run/unchecked2");
        return SpecVerdict::Unchecked("missing guest-step call data");
    };

    match op {
        // WFI or an empty script: a pure exit.
        0 => {
            crate::spec::spec_hit!("spec/vcpu_run/exit_wfi");
            epilogue_host_call(g_pre, call, g_post, exit::WFI, 0, 0);
            SpecVerdict::Checked
        }
        // Guest read/write: either the access succeeded (CONTINUE; a read
        // deposits the loaded value in the guest's x0) or it aborted
        // (MEM_ABORT with the IPA and write flag reported to the host).
        1 | 2 => {
            let Some(vm_pre) = g_pre.vms.get(&handle) else {
                crate::spec::spec_hit!("spec/vcpu_run/unchecked3");
                return SpecVerdict::Unchecked("vm not recorded");
            };
            let translated = vm_pre.pgt.mapping.lookup(gipa);
            let readable = matches!(
                translated,
                Some(MapletTarget::Mapped { attrs, .. }) if attrs.perms.r
            );
            let writable = matches!(
                translated,
                Some(MapletTarget::Mapped { attrs, .. }) if attrs.perms.w
            );
            let ok = if op == 1 { readable } else { writable };
            if ok {
                crate::spec::spec_hit!("spec/vcpu_run/exit_continue");
                epilogue_host_call(g_pre, call, g_post, exit::CONTINUE, 0, 0);
                if op == 1 {
                    let Some(value) = call.read_once("vcpu_run/read_value") else {
                        crate::spec::spec_hit!("spec/vcpu_run/unchecked4");
                        return SpecVerdict::Unchecked("missing guest-read call data");
                    };
                    let l = g_post.locals.get_mut(&cpu).expect("epilogue wrote it");
                    let lv = l.loaded.as_mut().expect("loaded checked above");
                    lv.regs.set(0, value);
                }
            } else {
                crate::spec::spec_hit!("spec/vcpu_run/exit_mem_abort");
                epilogue_host_call(g_pre, call, g_post, exit::MEM_ABORT, gipa, (op == 2) as u64);
            }
            SpecVerdict::Checked
        }
        // Guest hypercalls: share/unshare a guest page with the host.
        3 | 4 => {
            let Some(vm_pre) = g_pre.vms.get(&handle) else {
                crate::spec::spec_hit!("spec/vcpu_run/unchecked5");
                return SpecVerdict::Unchecked("vm not recorded");
            };
            let host_pre = g_pre.host.as_ref().expect("host locked by handler");
            let share = op == 3;
            let gipa_page = page_align_down(gipa);

            // Resolve the physical page behind the guest mapping and check
            // the pre-conditions of the transition.
            let (phys, guest_ok) = match vm_pre.pgt.mapping.lookup(gipa_page) {
                Some(MapletTarget::Mapped { oa, attrs }) => {
                    let want = if share {
                        PageState::Owned
                    } else {
                        PageState::SharedOwned
                    };
                    (oa, attrs.state == Some(want))
                }
                _ => (0, false),
            };
            // Firmware pages are mapped guest-owned but must never reach
            // the host again, not even by the guest's own hand.
            let firmware_denied = share && vm_pre.firmware.contains(&(phys >> PAGE_SHIFT));
            let host_ok = guest_ok
                && !firmware_denied
                && if share {
                    matches!(
                        host_pre.annot.lookup(phys),
                        Some(MapletTarget::Annotated { owner }) if owner == OwnerId::guest(vm_pre.slot)
                    )
                } else {
                    matches!(
                        host_pre.shared.lookup(phys),
                        Some(MapletTarget::Mapped { attrs, .. })
                            if attrs.state == Some(PageState::SharedBorrowed)
                    )
                };

            crate::spec::spec_hit!("spec/vcpu_run/exit_guest_hvc");
            epilogue_host_call(g_pre, call, g_post, exit::GUEST_HVC, 0, 0);
            let guest_ret: u64 = if guest_ok && host_ok {
                0
            } else {
                Errno::EPERM.to_ret()
            };
            {
                let l = g_post.locals.get_mut(&cpu).expect("epilogue wrote it");
                let lv = l.loaded.as_mut().expect("loaded checked above");
                lv.regs.set(0, guest_ret);
            }
            if guest_ret != 0 {
                return SpecVerdict::Checked;
            }

            g_post.copy_host_from(g_pre);
            g_post.copy_vm_from(g_pre, handle);
            let host = g_post.host.as_mut().expect("initialised");
            let vm = g_post.vms.get_mut(&handle).expect("initialised");
            let new_guest_state = if share {
                PageState::SharedOwned
            } else {
                PageState::Owned
            };
            // Guest side: flip the page state in place.
            let Some(MapletTarget::Mapped { oa, mut attrs }) = vm.pgt.mapping.lookup(gipa_page)
            else {
                unreachable!("checked above");
            };
            attrs.state = Some(new_guest_state);
            vm.pgt.mapping.insert(Maplet {
                ia: gipa_page,
                nr_pages: 1,
                target: MapletTarget::Mapped { oa, attrs },
            });
            // Host side: annotation <-> borrowed mapping.
            if share {
                host.annot.remove(phys, 1);
                host.shared.insert_new(Maplet {
                    ia: phys,
                    nr_pages: 1,
                    target: MapletTarget::Mapped {
                        oa: phys,
                        attrs: abs_host_attrs(true, PageState::SharedBorrowed),
                    },
                });
            } else {
                host.shared.remove(phys, 1);
                host.annot.insert_new(Maplet {
                    ia: phys,
                    nr_pages: 1,
                    target: MapletTarget::Annotated {
                        owner: OwnerId::guest(vm_pre.slot),
                    },
                });
            }
            SpecVerdict::Checked
        }
        _ => SpecVerdict::Unchecked("unmodelled guest step"),
    }
}
