//! Specifications of the memory-transition hypercalls.
//!
//! `host_share_hyp` below is a line-for-line Rust rendering of the
//! paper's Fig. 5, down to the six numbered steps. The other transitions
//! (unshare, reclaim, memcache top-up, map-guest) follow the same shape:
//! address-space conversions, permission checks on the pre-state,
//! initialisation of the partial post-state, attribute construction,
//! mapping updates, and the register epilogue.

use pkvm_aarch64::addr::{is_page_aligned, page_align_down, PAGE_SHIFT, PAGE_SIZE};
use pkvm_hyp::error::Errno;
use pkvm_hyp::memcache::MEMCACHE_MAX_TOPUP;
use pkvm_hyp::owner::{OwnerId, PageState};
use pkvm_hyp::vm::Handle;

use crate::calldata::GhostCallData;
use crate::maplet::{Maplet, MapletTarget};
use crate::state::GhostState;

use super::{
    abs_guest_attrs, abs_host_attrs, abs_hyp_attrs, epilogue_host_call, impl_reported_enomem,
    is_owned_exclusively_by_host, SpecVerdict,
};

/// Executable specification of `__pkvm_host_share_hyp` (Fig. 5).
pub fn host_share_hyp(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/host_share_hyp/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;

    // (1) Address space conversions.
    let pfn = g_pre.read_gpr(cpu, 1);
    let phys = pfn << PAGE_SHIFT;
    let host_addr = phys; // The host's stage 2 is identity-related.
    let hyp_addr = g_pre.globals.hyp_va(phys);
    let mut ret: u64 = 0;

    // (2) Permissions checks.
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    if !is_owned_exclusively_by_host(host_pre, g_pre, phys) {
        ret = Errno::EPERM.to_ret();
        crate::spec::spec_hit!("spec/host_share_hyp/ok");
        epilogue_host_call(g_pre, call, g_post, ret, 0, 0);
        return SpecVerdict::Checked;
    }

    // (3) Initialisation of the (partial) post-state.
    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);

    // (4) Construction of abstract mapping attributes.
    let is_memory = g_pre.globals.is_ram(phys);
    let host_attrs = abs_host_attrs(is_memory, PageState::SharedOwned);
    let hyp_attrs = abs_hyp_attrs(is_memory, PageState::SharedBorrowed);

    // (5) Update abstract mappings with new targets.
    g_post
        .host
        .as_mut()
        .expect("initialised above")
        .shared
        .insert_new(Maplet {
            ia: host_addr,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa: phys,
                attrs: host_attrs,
            },
        });
    let hyp_map = &mut g_post.pkvm.as_mut().expect("initialised above").pgt.mapping;
    if let Err(collision) = hyp_map.try_insert_new(Maplet {
        ia: hyp_addr,
        nr_pages: 1,
        target: MapletTarget::Mapped {
            oa: phys,
            attrs: hyp_attrs,
        },
    }) {
        // A correct layout never has the linear-map VA of a host page
        // already mapped: this is how the aliasing of real bug 5 surfaces.
        crate::spec::spec_hit!("spec/host_share_hyp/impossible");
        return SpecVerdict::Impossible(format!(
            "hyp VA {collision:#x} already mapped while sharing phys {phys:#x}"
        ));
    }

    // (6) Epilogue: update the host register state.
    crate::spec::spec_hit!("spec/host_share_hyp/ok2");
    epilogue_host_call(g_pre, call, g_post, ret, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_host_unshare_hyp`.
pub fn host_unshare_hyp(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/host_unshare_hyp/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let pfn = g_pre.read_gpr(cpu, 1);
    let phys = pfn << PAGE_SHIFT;
    let hyp_addr = g_pre.globals.hyp_va(phys);

    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    let pkvm_pre = g_pre.pkvm.as_ref().expect("hyp locked by handler");
    let host_ok = matches!(
        host_pre.shared.lookup(phys),
        Some(MapletTarget::Mapped { attrs, .. }) if attrs.state == Some(PageState::SharedOwned)
    );
    let hyp_ok = matches!(
        pkvm_pre.pgt.mapping.lookup(hyp_addr),
        Some(MapletTarget::Mapped { attrs, .. }) if attrs.state == Some(PageState::SharedBorrowed)
    );
    if !host_ok || !hyp_ok {
        crate::spec::spec_hit!("spec/host_unshare_hyp/eperm");
        epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }

    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);
    // The page leaves both tracked maps: the host side returns to the
    // untracked exclusively-owned region, the hyp side is unmapped.
    g_post
        .host
        .as_mut()
        .expect("initialised")
        .shared
        .remove(phys, 1);
    g_post
        .pkvm
        .as_mut()
        .expect("initialised")
        .pgt
        .mapping
        .remove(hyp_addr, 1);
    crate::spec::spec_hit!("spec/host_unshare_hyp/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_host_reclaim_page`.
///
/// Whether a page is *pending* reclaim depends on hypervisor-internal
/// bookkeeping the ghost deliberately abstracts away, so the spec is
/// parametric on the return value: a successful reclaim must remove the
/// page's guest annotation (or borrowed share), a refused one must change
/// nothing.
pub fn host_reclaim_page(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/host_reclaim_page/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let pfn = g_pre.read_gpr(cpu, 1);
    let phys = pfn << PAGE_SHIFT;
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");

    if call.ret() == Errno::EPERM.to_ret() {
        crate::spec::spec_hit!("spec/host_reclaim_page/eperm");
        epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    if call.ret() != 0 {
        crate::spec::spec_hit!("spec/host_reclaim_page/unchecked2");
        return SpecVerdict::Unchecked("unexpected reclaim return value");
    }
    // Success: the page must have been guest-annotated (protected VM
    // memory) or borrowed/shared (unprotected VM memory), and it reverts
    // to plain host ownership.
    let was_guest = matches!(
        host_pre.annot.lookup(phys),
        Some(MapletTarget::Annotated { owner }) if owner.guest_slot().is_some()
    );
    let was_shared = host_pre.shared.lookup(phys).is_some();
    if !was_guest && !was_shared {
        crate::spec::spec_hit!("spec/host_reclaim_page/impossible");
        return SpecVerdict::Impossible(format!(
            "reclaim of {phys:#x} succeeded but the page was not guest-owned or shared"
        ));
    }
    g_post.copy_host_from(g_pre);
    let host = g_post.host.as_mut().expect("initialised");
    host.annot.remove(phys, 1);
    host.shared.remove(phys, 1);
    crate::spec::spec_hit!("spec/host_reclaim_page/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of the memcache top-up (the path of real
/// bugs 1 and 2): `nr` pages at `addr` transfer from host to hypervisor
/// ownership and appear in the hypervisor's linear map.
pub fn topup_memcache(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/topup_memcache/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let addr = g_pre.read_gpr(cpu, 1);
    let nr = g_pre.read_gpr(cpu, 2);
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");

    let expected_err = if local_pre.loaded.is_none() {
        Some(Errno::ENOENT)
    } else if !is_page_aligned(addr) {
        Some(Errno::EINVAL)
    } else if nr > MEMCACHE_MAX_TOPUP {
        Some(Errno::E2BIG)
    } else {
        None
    };
    if let Some(e) = expected_err {
        crate::spec::spec_hit!("spec/topup_memcache/ok");
        epilogue_host_call(g_pre, call, g_post, e.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }

    let host_pre = g_pre.host.as_ref().expect("host locked by handler");
    // Every donated page must be exclusively host-owned.
    for i in 0..nr {
        let pa = page_align_down(addr) + i * PAGE_SIZE;
        if !is_owned_exclusively_by_host(host_pre, g_pre, pa) {
            crate::spec::spec_hit!("spec/topup_memcache/eperm");
            epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
            return SpecVerdict::Checked;
        }
    }

    g_post.copy_host_from(g_pre);
    g_post.copy_pkvm_from(g_pre);
    g_post.copy_local_from(g_pre, cpu);
    if nr > 0 {
        let base = page_align_down(addr);
        g_post
            .host
            .as_mut()
            .expect("initialised")
            .annot
            .insert_new(Maplet {
                ia: base,
                nr_pages: nr,
                target: MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                },
            });
        let hyp_map = &mut g_post.pkvm.as_mut().expect("initialised").pgt.mapping;
        if let Err(c) = hyp_map.try_insert_new(Maplet {
            ia: g_pre.globals.hyp_va(base),
            nr_pages: nr,
            target: MapletTarget::Mapped {
                oa: base,
                attrs: abs_hyp_attrs(true, PageState::Owned),
            },
        }) {
            crate::spec::spec_hit!("spec/topup_memcache/impossible");
            return SpecVerdict::Impossible(format!("hyp VA {c:#x} already mapped in top-up"));
        }
        // The loaded vCPU's memcache grows (contents are abstracted away
        // from the comparison; the count documents intent).
        let loaded = g_post
            .locals
            .get_mut(&cpu)
            .and_then(|l| l.loaded.as_mut())
            .expect("loaded checked above");
        for i in 0..nr {
            loaded.memcache.insert(0, (base >> PAGE_SHIFT) + i);
        }
    }
    crate::spec::spec_hit!("spec/topup_memcache/ok2");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}

/// Executable specification of `__pkvm_host_map_guest`: the host gives the
/// page at `pfn` to the loaded vCPU's VM at `gfn` — donated for protected
/// VMs, shared for unprotected ones.
pub fn host_map_guest(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    if impl_reported_enomem(call) {
        crate::spec::spec_hit!("spec/host_map_guest/unchecked");
        return SpecVerdict::Unchecked("ENOMEM is allowed anywhere");
    }
    let cpu = call.cpu;
    let pfn = g_pre.read_gpr(cpu, 1);
    let gfn = g_pre.read_gpr(cpu, 2);
    let phys = pfn << PAGE_SHIFT;
    let gipa = gfn << PAGE_SHIFT;
    let local_pre = g_pre.locals.get(&cpu).expect("local recorded");

    let Some(loaded) = &local_pre.loaded else {
        crate::spec::spec_hit!("spec/host_map_guest/enoent");
        epilogue_host_call(g_pre, call, g_post, Errno::ENOENT.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    };
    if gfn >= 1 << 36 {
        crate::spec::spec_hit!("spec/host_map_guest/einval");
        epilogue_host_call(g_pre, call, g_post, Errno::EINVAL.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }
    let handle: Handle = loaded.handle;
    // The handler looked the VM up and locked it; if the VM had vanished
    // the call data would show ENOENT, which we accept parametrically.
    let Some(vm_pre) = g_pre.vms.get(&handle) else {
        if Errno::from_ret(call.ret()).is_some() {
            crate::spec::spec_hit!("spec/host_map_guest/param");
            epilogue_host_call(g_pre, call, g_post, call.ret(), 0, 0);
            return SpecVerdict::Checked;
        }
        crate::spec::spec_hit!("spec/host_map_guest/unchecked2");
        return SpecVerdict::Unchecked("vm not recorded");
    };
    let host_pre = g_pre.host.as_ref().expect("host locked by handler");

    if !is_owned_exclusively_by_host(host_pre, g_pre, phys)
        || vm_pre.pgt.mapping.lookup(gipa).is_some()
    {
        crate::spec::spec_hit!("spec/host_map_guest/eperm");
        epilogue_host_call(g_pre, call, g_post, Errno::EPERM.to_ret(), 0, 0);
        return SpecVerdict::Checked;
    }

    g_post.copy_host_from(g_pre);
    g_post.copy_vm_from(g_pre, handle);
    let host = g_post.host.as_mut().expect("initialised");
    let vm = g_post.vms.get_mut(&handle).expect("initialised");
    if vm_pre.protected {
        host.annot.insert_new(Maplet {
            ia: phys,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: OwnerId::guest(vm_pre.slot),
            },
        });
        vm.pgt.mapping.insert_new(Maplet {
            ia: gipa,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa: phys,
                attrs: abs_guest_attrs(PageState::Owned),
            },
        });
    } else {
        host.shared.insert_new(Maplet {
            ia: phys,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa: phys,
                attrs: abs_host_attrs(true, PageState::SharedOwned),
            },
        });
        vm.pgt.mapping.insert_new(Maplet {
            ia: gipa,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa: phys,
                attrs: abs_guest_attrs(PageState::SharedBorrowed),
            },
        });
    }
    crate::spec::spec_hit!("spec/host_map_guest/ok");
    epilogue_host_call(g_pre, call, g_post, 0, 0, 0);
    SpecVerdict::Checked
}
