//! Memory protection: the ownership state machine.
//!
//! This is the analog of pKVM's `mem_protect.c`: the share/unshare/donate
//! transitions between the host, the hypervisor and guests, the lazy
//! mapping-on-demand of host memory, and page reclaim after VM teardown.
//! Every transition follows the same two-phase shape as the C code
//! (§4.1): *check* the page states of all parties under the relevant
//! component locks, then *update* the page tables of each party.

use pkvm_aarch64::addr::{is_page_aligned, level_size, page_align_down, PhysAddr, PAGE_SIZE};
use pkvm_aarch64::attrs::{Attrs, Perms};
use pkvm_aarch64::desc::{EntryKind, Pte};
use pkvm_aarch64::memory::{PhysMem, RegionKind};
use pkvm_aarch64::tlb::{VMID_HOST, VMID_HYP};

use crate::cov;
use crate::error::{Errno, HypResult};
use crate::faults::Fault;
use crate::hooks::{Component, TransferEdge};
use crate::memcache::{wipe_donated, Memcache, MEMCACHE_MAX_TOPUP};
use crate::owner::{annotation_owner, annotation_pte, OwnerId, PageState};
use crate::pgtable::{
    get_leaf, kvm_pgtable_walk, KvmPgtable, MapWalker, McOps, PoolOps, SetOwnerWalker, TableEvent,
    WalkState,
};
use crate::state::{HypCtx, HypState};
use crate::vm::Vm;

/// Attributes of a host stage 2 mapping: full access, with the page state
/// in the software bits; device memory is never executable.
pub fn host_attrs(is_memory: bool, state: PageState) -> Attrs {
    if is_memory {
        Attrs::normal(Perms::RWX).with_sw(state.to_sw())
    } else {
        Attrs::device(Perms::RW).with_sw(state.to_sw())
    }
}

/// Attributes of a pKVM stage 1 mapping: read-write, never executable
/// (pKVM's data mappings; see the Fig. 5 diff: `SB RW- M`).
pub fn hyp_attrs(is_memory: bool, state: PageState) -> Attrs {
    if is_memory {
        Attrs::normal(Perms::RW).with_sw(state.to_sw())
    } else {
        Attrs::device(Perms::RW).with_sw(state.to_sw())
    }
}

/// Attributes of a guest stage 2 mapping.
pub fn guest_attrs(state: PageState) -> Attrs {
    Attrs::normal(Perms::RWX).with_sw(state.to_sw())
}

/// The concrete protection state of one page as seen by a stage 2 table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcreteState {
    /// Invalid descriptor with no annotation: default-owned (for the host
    /// table this means "host-owned, not yet mapped on demand").
    UnmappedDefault,
    /// Invalid descriptor annotating another owner.
    UnmappedOwner(OwnerId),
    /// Valid mapping with a legal page state.
    Mapped(PageState, Attrs),
    /// Valid mapping whose software bits decode to no legal state.
    MappedBad,
}

/// Reads the concrete state of the page at input address `ia` in `pgt`.
pub fn page_state_of(mem: &PhysMem, pgt: &KvmPgtable, ia: u64) -> ConcreteState {
    let (pte, level) = get_leaf(mem, pgt, ia);
    match pte.kind(level) {
        EntryKind::Invalid => {
            let owner = annotation_owner(pte);
            if owner == OwnerId::HOST {
                ConcreteState::UnmappedDefault
            } else {
                ConcreteState::UnmappedOwner(owner)
            }
        }
        EntryKind::Block | EntryKind::Page => {
            let attrs = pte.leaf_attrs(pgt.stage);
            match PageState::from_sw(attrs.sw) {
                Some(s) => ConcreteState::Mapped(s, attrs),
                None => ConcreteState::MappedBad,
            }
        }
        _ => ConcreteState::MappedBad,
    }
}

/// Returns `true` if, in the host table, the page at `ipa` is exclusively
/// owned by the host (the `__check_page_state_visitor` condition for
/// initiating a share or donation).
pub fn host_owns_exclusively(mem: &PhysMem, host: &KvmPgtable, ipa: u64) -> bool {
    matches!(
        page_state_of(mem, host, ipa),
        ConcreteState::UnmappedDefault | ConcreteState::Mapped(PageState::Owned, _)
    )
}

/// The break half of break-before-make: a live mapping was just removed
/// or tightened, so the matching broadcast TLB invalidation (plus DSB)
/// must follow. The table write itself always happened, so the downgrade
/// hook always fires; the invalidation and its tlbi/dsb hooks are
/// suppressed together under the missing-TLBI bug — which the oracle's
/// break-before-make check then catches as a dangling downgrade, and the
/// harness catches behaviourally through the stale entries left live.
pub(crate) fn tlbi_range(ctx: &HypCtx<'_>, vmid: u16, ia: u64, nr: u64) {
    ctx.hooks.pte_downgrade(&ctx.hook_ctx(), vmid, ia, nr);
    if ctx.faults.is(Fault::SynMissingTlbi) {
        cov::hit!("tlbi/suppressed");
    } else {
        cov::hit!("tlbi/range");
        ctx.tlb.invalidate_range(ctx.cpu, vmid, ia, nr, true);
        ctx.hooks.tlbi(&ctx.hook_ctx(), vmid, ia, nr, true);
        ctx.hooks.dsb(&ctx.hook_ctx());
    }
}

fn fire_table_events(ctx: &HypCtx<'_>, comp: Component, events: &[TableEvent]) {
    for e in events {
        match *e {
            TableEvent::Alloc(p) => ctx.hooks.table_page_alloc(&ctx.hook_ctx(), comp, p),
            TableEvent::Free(p) => ctx.hooks.table_page_free(&ctx.hook_ctx(), comp, p),
        }
    }
}

/// Maps `nr` pages at `ia -> pa` in a stage 2/1 table with pool-backed
/// table allocation, reporting table events against `comp`.
// The parameter list mirrors the C `kvm_pgtable_stage2_map` call shape.
#[expect(clippy::too_many_arguments)]
fn map_pages_pool(
    ctx: &HypCtx<'_>,
    st: &HypState,
    comp: Component,
    pgt: &KvmPgtable,
    ia: u64,
    pa: PhysAddr,
    nr: u64,
    attrs: Attrs,
    force_pages: bool,
) -> HypResult {
    let mut pool = st.pool.lock();
    let mut mm = PoolOps(&mut pool);
    let mut ws = WalkState::new(ctx.mem, &mut mm);
    let mut w = MapWalker {
        stage: pgt.stage,
        phys_base: pa,
        ia_base: ia,
        attrs,
        force_pages,
        corrupt_block_oa: ctx.faults.is(Fault::SynBlockAlignment),
    };
    let r = kvm_pgtable_walk(pgt, &mut ws, ia, nr * PAGE_SIZE, &mut w);
    fire_table_events(ctx, comp, &ws.events);
    r
}

/// Writes the invalid annotation `annotation` over `nr` pages at `ia`.
fn set_owner_pool(
    ctx: &HypCtx<'_>,
    st: &HypState,
    comp: Component,
    pgt: &KvmPgtable,
    ia: u64,
    nr: u64,
    annotation: Pte,
) -> HypResult {
    let mut pool = st.pool.lock();
    let mut mm = PoolOps(&mut pool);
    let mut ws = WalkState::new(ctx.mem, &mut mm);
    let mut w = SetOwnerWalker {
        stage: pgt.stage,
        annotation,
    };
    let r = kvm_pgtable_walk(pgt, &mut ws, ia, nr * PAGE_SIZE, &mut w);
    fire_table_events(ctx, comp, &ws.events);
    r
}

/// `__pkvm_host_share_hyp`: make the host page at `pfn` accessible to the
/// hypervisor, marking it shared on both sides (§4.1-4.2).
///
/// # Errors
///
/// `EPERM` if the page is not memory or not exclusively host-owned;
/// `ENOMEM` if table allocation fails.
pub fn host_share_hyp(ctx: &HypCtx<'_>, st: &HypState, pfn: u64) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let hyp_va = st.layout.hyp_va(phys);

    let host = st.host_lock(ctx);
    let hyp = st.hyp_lock(ctx);

    let result = (|| {
        // check_share: the page must be RAM and exclusively host-owned.
        if !ctx.faults.is(Fault::SynShareSkipsCheck)
            && (!ctx.mem.is_ram(phys) || !host_owns_exclusively(ctx.mem, &host, phys.bits()))
        {
            cov::hit!("do_share/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_share/ok");
        // host_initiate_share: mark the host side shared-owned.
        let host_state = if ctx.faults.is(Fault::SynShareWrongState) {
            PageState::Owned
        } else {
            PageState::SharedOwned
        };
        let is_mem = ctx.mem.is_ram(phys);
        map_pages_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            phys,
            1,
            host_attrs(is_mem, host_state),
            true,
        )?;
        // Break-before-make: the replaced host entry may be cached.
        tlbi_range(ctx, VMID_HOST, phys.bits(), 1);
        // hyp_complete_share: map borrowed into pKVM's stage 1.
        let hyp_perm_attrs = if ctx.faults.is(Fault::SynShareHypExec) {
            Attrs::normal(Perms::RWX).with_sw(PageState::SharedBorrowed.to_sw())
        } else {
            hyp_attrs(is_mem, PageState::SharedBorrowed)
        };
        map_pages_pool(
            ctx,
            st,
            Component::Hyp,
            &hyp,
            hyp_va.bits(),
            phys,
            1,
            hyp_perm_attrs,
            true,
        )?;
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::ShareHyp, pfn, 1, false);
        Ok(())
    })();

    st.hyp_unlock(ctx, hyp);
    st.host_unlock(ctx, host);
    match &result {
        Ok(()) => cov::hit!("host_share_hyp/ok"),
        Err(_) => cov::hit!("host_share_hyp/check_failed"),
    }
    result
}

/// `__pkvm_host_unshare_hyp`: revoke a previous share.
///
/// # Errors
///
/// `EPERM` if the page is not currently shared-owned by the host and
/// borrowed by the hypervisor.
pub fn host_unshare_hyp(ctx: &HypCtx<'_>, st: &HypState, pfn: u64) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let hyp_va = st.layout.hyp_va(phys);

    let host = st.host_lock(ctx);
    let hyp = st.hyp_lock(ctx);

    let result = (|| {
        let host_ok = matches!(
            page_state_of(ctx.mem, &host, phys.bits()),
            ConcreteState::Mapped(PageState::SharedOwned, _)
        );
        let hyp_ok = matches!(
            page_state_of(ctx.mem, &hyp, hyp_va.bits()),
            ConcreteState::Mapped(PageState::SharedBorrowed, _)
        );
        if !host_ok || !hyp_ok {
            cov::hit!("do_unshare/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_unshare/ok");
        let is_mem = ctx.mem.is_ram(phys);
        map_pages_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            phys,
            1,
            host_attrs(is_mem, PageState::Owned),
            true,
        )?;
        tlbi_range(ctx, VMID_HOST, phys.bits(), 1);
        if !ctx.faults.is(Fault::SynUnshareKeepsHypMapping) {
            set_owner_pool(
                ctx,
                st,
                Component::Hyp,
                &hyp,
                hyp_va.bits(),
                1,
                Pte::invalid(),
            )?;
            tlbi_range(ctx, VMID_HYP, hyp_va.bits(), 1);
        }
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::UnshareHyp, pfn, 1, false);
        Ok(())
    })();

    st.hyp_unlock(ctx, hyp);
    st.host_unlock(ctx, host);
    match &result {
        Ok(()) => cov::hit!("host_unshare_hyp/ok"),
        Err(_) => cov::hit!("host_unshare_hyp/check_failed"),
    }
    result
}

/// `__pkvm_host_donate_hyp` (internal): transfer `nr` host pages at `pfn`
/// to the hypervisor. Caller must hold no component locks.
///
/// # Errors
///
/// `EPERM` if any page is not exclusively host-owned RAM.
pub fn host_donate_hyp(ctx: &HypCtx<'_>, st: &HypState, pfn: u64, nr: u64) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let host = st.host_lock(ctx);
    let hyp = st.hyp_lock(ctx);
    let result = do_host_donate_hyp_locked(ctx, st, &host, &hyp, phys, nr);
    st.hyp_unlock(ctx, hyp);
    st.host_unlock(ctx, host);
    result
}

/// The locked body of [`host_donate_hyp`], for callers composing larger
/// critical sections (memcache top-up, `init_vm`).
pub fn do_host_donate_hyp_locked(
    ctx: &HypCtx<'_>,
    st: &HypState,
    host: &KvmPgtable,
    hyp: &KvmPgtable,
    phys: PhysAddr,
    nr: u64,
) -> HypResult {
    for i in 0..nr {
        let pa = phys.wrapping_add(i * PAGE_SIZE);
        if !ctx.mem.is_ram(pa) || !host_owns_exclusively(ctx.mem, host, pa.bits()) {
            cov::hit!("do_donate/check_failed");
            return Err(Errno::EPERM);
        }
    }
    cov::hit!("do_donate/ok");
    set_owner_pool(
        ctx,
        st,
        Component::Host,
        host,
        phys.bits(),
        nr,
        annotation_pte(OwnerId::HYP),
    )?;
    tlbi_range(ctx, VMID_HOST, phys.bits(), nr);
    map_pages_pool(
        ctx,
        st,
        Component::Hyp,
        hyp,
        st.layout.hyp_va(phys).bits(),
        phys,
        nr,
        hyp_attrs(true, PageState::Owned),
        true,
    )?;
    ctx.hooks.transfer(
        &ctx.hook_ctx(),
        TransferEdge::DonateHyp,
        phys.pfn(),
        nr,
        false,
    );
    Ok(())
}

/// `__pkvm_hyp_donate_host` (internal): return hypervisor pages to the host.
///
/// # Errors
///
/// `EPERM` if any page is not currently hyp-owned.
pub fn hyp_donate_host(ctx: &HypCtx<'_>, st: &HypState, pfn: u64, nr: u64) -> HypResult {
    let host = st.host_lock(ctx);
    let hyp = st.hyp_lock(ctx);
    let result = do_hyp_donate_host_locked(ctx, st, &host, &hyp, PhysAddr::from_pfn(pfn), nr);
    st.hyp_unlock(ctx, hyp);
    st.host_unlock(ctx, host);
    result
}

/// The locked body of [`hyp_donate_host`], for callers returning many
/// pages inside a *single* critical section (teardown must look like one
/// atomic transition to the oracle, not per-page lock cycles).
pub fn do_hyp_donate_host_locked(
    ctx: &HypCtx<'_>,
    st: &HypState,
    host: &KvmPgtable,
    hyp: &KvmPgtable,
    phys: PhysAddr,
    nr: u64,
) -> HypResult {
    for i in 0..nr {
        let pa = phys.wrapping_add(i * PAGE_SIZE);
        let host_ok = matches!(
            page_state_of(ctx.mem, host, pa.bits()),
            ConcreteState::UnmappedOwner(OwnerId::HYP)
        );
        let hyp_ok = matches!(
            page_state_of(ctx.mem, hyp, st.layout.hyp_va(pa).bits()),
            ConcreteState::Mapped(PageState::Owned, _)
        );
        if !host_ok || !hyp_ok {
            cov::hit!("do_donate/check_failed");
            return Err(Errno::EPERM);
        }
    }
    cov::hit!("do_donate/ok");
    set_owner_pool(
        ctx,
        st,
        Component::Hyp,
        hyp,
        st.layout.hyp_va(phys).bits(),
        nr,
        Pte::invalid(),
    )?;
    tlbi_range(ctx, VMID_HYP, st.layout.hyp_va(phys).bits(), nr);
    set_owner_pool(
        ctx,
        st,
        Component::Host,
        host,
        phys.bits(),
        nr,
        Pte::invalid(),
    )?;
    ctx.hooks.transfer(
        &ctx.hook_ctx(),
        TransferEdge::DonateHost,
        phys.pfn(),
        nr,
        false,
    );
    ctx.hooks.host_regain(&ctx.hook_ctx(), phys.pfn(), nr);
    Ok(())
}

/// `__pkvm_host_map_guest` for unprotected VMs: share the host page `pfn`
/// into the (locked) guest at `gfn`.
///
/// # Errors
///
/// `EPERM` on state-check failure, `ENOMEM` when the vCPU memcache cannot
/// supply guest table pages.
pub fn host_share_guest(
    ctx: &HypCtx<'_>,
    st: &HypState,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    mc: &mut Memcache,
    pfn: u64,
    gfn: u64,
) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let gipa = gfn * PAGE_SIZE;
    let host = st.host_lock(ctx);
    let result = (|| {
        if !ctx.mem.is_ram(phys) || !host_owns_exclusively(ctx.mem, &host, phys.bits()) {
            cov::hit!("do_share/check_failed");
            return Err(Errno::EPERM);
        }
        if page_state_of(ctx.mem, guest_pgt, gipa) != ConcreteState::UnmappedDefault {
            cov::hit!("do_share/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_share/ok");
        map_pages_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            phys,
            1,
            host_attrs(true, PageState::SharedOwned),
            true,
        )?;
        tlbi_range(ctx, VMID_HOST, phys.bits(), 1);
        map_guest_page(
            ctx,
            vm,
            guest_pgt,
            mc,
            gipa,
            phys,
            guest_attrs(PageState::SharedBorrowed),
        )?;
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::MapGuestShared, pfn, 1, false);
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

/// `__pkvm_host_map_guest` for protected VMs: donate the host page `pfn`
/// to the (locked) guest at `gfn`.
///
/// # Errors
///
/// As for [`host_share_guest`].
pub fn host_donate_guest(
    ctx: &HypCtx<'_>,
    st: &HypState,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    mc: &mut Memcache,
    pfn: u64,
    gfn: u64,
) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let gipa = gfn * PAGE_SIZE;
    let host = st.host_lock(ctx);
    let result = (|| {
        if !ctx.mem.is_ram(phys) || !host_owns_exclusively(ctx.mem, &host, phys.bits()) {
            cov::hit!("do_donate/check_failed");
            return Err(Errno::EPERM);
        }
        if page_state_of(ctx.mem, guest_pgt, gipa) != ConcreteState::UnmappedDefault {
            cov::hit!("do_donate/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_donate/ok");
        let owner = if ctx.faults.is(Fault::SynDonateWrongOwner) {
            OwnerId::HYP
        } else {
            vm.owner_id()
        };
        set_owner_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            1,
            annotation_pte(owner),
        )?;
        tlbi_range(ctx, VMID_HOST, phys.bits(), 1);
        map_guest_page(
            ctx,
            vm,
            guest_pgt,
            mc,
            gipa,
            phys,
            guest_attrs(PageState::Owned),
        )?;
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::MapGuestOwned, pfn, 1, false);
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

fn map_guest_page(
    ctx: &HypCtx<'_>,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    mc: &mut Memcache,
    gipa: u64,
    phys: PhysAddr,
    attrs: Attrs,
) -> HypResult {
    let mut mm = McOps(mc);
    let mut ws = WalkState::new(ctx.mem, &mut mm);
    let mut w = MapWalker {
        stage: guest_pgt.stage,
        phys_base: phys,
        ia_base: gipa,
        attrs,
        force_pages: true,
        corrupt_block_oa: false,
    };
    let r = kvm_pgtable_walk(guest_pgt, &mut ws, gipa, PAGE_SIZE, &mut w);
    fire_table_events(ctx, Component::Vm(vm.handle), &ws.events);
    r
}

/// Guest hypercall: share the guest's own page at `gipa` back with the
/// host (virtio buffers). Caller holds the VM lock and supplies the VM's
/// donated firmware pages, which must never become host-accessible.
///
/// # Errors
///
/// `EPERM` if the page is not exclusively guest-owned, is part of the
/// firmware region, or the host-side state is inconsistent.
pub fn guest_share_host(
    ctx: &HypCtx<'_>,
    st: &HypState,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    firmware: &[PhysAddr],
    mc: &mut Memcache,
    gipa: u64,
) -> HypResult {
    if gipa >= 1 << 48 {
        return Err(Errno::EPERM);
    }
    let host = st.host_lock(ctx);
    let result = (|| {
        let ConcreteState::Mapped(PageState::Owned, gattrs) =
            page_state_of(ctx.mem, guest_pgt, gipa)
        else {
            cov::hit!("do_share/check_failed");
            return Err(Errno::EPERM);
        };
        // Find the physical page behind the guest mapping.
        let (pte, level) = get_leaf(ctx.mem, guest_pgt, gipa);
        let phys = pte
            .leaf_oa(level)
            .wrapping_add(gipa & (level_size(level) - 1));
        // Firmware is donated for the VM's lifetime: the guest cannot
        // hand the host a window back into it.
        if firmware.contains(&phys.page_base()) {
            return Err(Errno::EPERM);
        }
        let host_ok = matches!(
            page_state_of(ctx.mem, &host, phys.bits()),
            ConcreteState::UnmappedOwner(o) if o == vm.owner_id()
        );
        if !host_ok {
            cov::hit!("do_share/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_share/ok");
        // Guest side: Owned -> SharedOwned (remap in place).
        let mut new_attrs = gattrs;
        new_attrs.sw = PageState::SharedOwned.to_sw();
        map_guest_page(
            ctx,
            vm,
            guest_pgt,
            mc,
            page_align_down(gipa),
            phys.page_base(),
            new_attrs,
        )?;
        tlbi_range(ctx, vm.vmid(), page_align_down(gipa), 1);
        // Host side: annotation -> borrowed mapping.
        map_pages_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.page_base().bits(),
            phys.page_base(),
            1,
            host_attrs(true, PageState::SharedBorrowed),
            true,
        )?;
        ctx.hooks.transfer(
            &ctx.hook_ctx(),
            TransferEdge::GuestShareHost,
            phys.page_base().pfn(),
            1,
            false,
        );
        ctx.hooks
            .host_regain(&ctx.hook_ctx(), phys.page_base().pfn(), 1);
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

/// Guest hypercall: revoke a [`guest_share_host`]. Caller holds the VM lock.
///
/// # Errors
///
/// `EPERM` if the share does not exist.
pub fn guest_unshare_host(
    ctx: &HypCtx<'_>,
    st: &HypState,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    mc: &mut Memcache,
    gipa: u64,
) -> HypResult {
    if gipa >= 1 << 48 {
        return Err(Errno::EPERM);
    }
    let host = st.host_lock(ctx);
    let result = (|| {
        let ConcreteState::Mapped(PageState::SharedOwned, gattrs) =
            page_state_of(ctx.mem, guest_pgt, gipa)
        else {
            cov::hit!("do_unshare/check_failed");
            return Err(Errno::EPERM);
        };
        let (pte, level) = get_leaf(ctx.mem, guest_pgt, gipa);
        let phys = pte
            .leaf_oa(level)
            .wrapping_add(gipa & (level_size(level) - 1));
        let host_ok = matches!(
            page_state_of(ctx.mem, &host, phys.bits()),
            ConcreteState::Mapped(PageState::SharedBorrowed, _)
        );
        if !host_ok {
            cov::hit!("do_unshare/check_failed");
            return Err(Errno::EPERM);
        }
        cov::hit!("do_unshare/ok");
        let mut new_attrs = gattrs;
        new_attrs.sw = PageState::Owned.to_sw();
        map_guest_page(
            ctx,
            vm,
            guest_pgt,
            mc,
            page_align_down(gipa),
            phys.page_base(),
            new_attrs,
        )?;
        tlbi_range(ctx, vm.vmid(), page_align_down(gipa), 1);
        tlbi_range(ctx, VMID_HOST, phys.page_base().bits(), 1);
        set_owner_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.page_base().bits(),
            1,
            annotation_pte(vm.owner_id()),
        )?;
        ctx.hooks.transfer(
            &ctx.hook_ctx(),
            TransferEdge::GuestUnshareHost,
            phys.page_base().pfn(),
            1,
            false,
        );
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

/// `__pkvm_host_reclaim_page`: after a VM teardown, return one formerly
/// guest-owned page to the host, wiping its contents.
///
/// # Errors
///
/// `EPERM` if the page is not pending reclaim.
pub fn host_reclaim_page(ctx: &HypCtx<'_>, st: &HypState, pfn: u64) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let host = st.host_lock(ctx);
    let result = (|| {
        let Some(former) = st.reclaim.lock().remove(&pfn) else {
            cov::hit!("host_reclaim_page/not_guest_page");
            return Err(Errno::EPERM);
        };
        let _ = former;
        if !ctx.faults.is(Fault::SynReclaimSkipsWipe) {
            ctx.mem.zero_page(phys).expect("reclaimable pages are RAM");
        }
        // The wipe check's input: whatever content the host will actually
        // see. Scanned here, under the host lock, so the reported flag is
        // identical in both check modes.
        let dirty = ctx.mem.page_is_zero(phys).is_ok_and(|zero| !zero);
        cov::hit!("host_reclaim_page/ok");
        tlbi_range(ctx, VMID_HOST, phys.bits(), 1);
        set_owner_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            1,
            Pte::invalid(),
        )?;
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::Reclaim, pfn, 1, dirty);
        ctx.hooks.host_regain(&ctx.hook_ctx(), pfn, 1);
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

/// Teardown retirement of one firmware page: re-annotate the (locked)
/// host entry from the dead guest's owner id to the hypervisor, so the
/// page stays inaccessible to the host across handle reuse — forever.
pub fn retire_firmware_locked(
    ctx: &HypCtx<'_>,
    st: &HypState,
    host: &KvmPgtable,
    pa: PhysAddr,
) -> HypResult {
    set_owner_pool(
        ctx,
        st,
        Component::Host,
        host,
        pa.bits(),
        1,
        annotation_pte(OwnerId::HYP),
    )
}

/// `__pkvm_vm_load_firmware`: donate `nr` host pages at `pfn` to the
/// (locked) protected VM as its pvmfw-style firmware region, mapped at
/// `gfn` before any vCPU exists. Guest table pages come from the
/// hypervisor pool — there is no vCPU memcache yet at firmware-load time.
///
/// The host must never regain access to these pages for the VM's
/// lifetime; at teardown they are wiped and retired to the hypervisor
/// rather than returned.
///
/// # Errors
///
/// `EPERM` if any page is not exclusively host-owned RAM or the guest
/// range is already mapped; `ENOMEM` if the pool cannot supply table
/// pages.
pub fn vm_load_firmware(
    ctx: &HypCtx<'_>,
    st: &HypState,
    vm: &Vm,
    guest_pgt: &KvmPgtable,
    pfn: u64,
    gfn: u64,
    nr: u64,
) -> HypResult {
    let phys = PhysAddr::from_pfn(pfn);
    let host = st.host_lock(ctx);
    let result = (|| {
        // Check phase: the whole range must be transferable before any
        // state changes (the transition must look atomic to the oracle).
        for i in 0..nr {
            let pa = phys.wrapping_add(i * PAGE_SIZE);
            if !ctx.mem.is_ram(pa) || !host_owns_exclusively(ctx.mem, &host, pa.bits()) {
                return Err(Errno::EPERM);
            }
            if page_state_of(ctx.mem, guest_pgt, (gfn + i) * PAGE_SIZE)
                != ConcreteState::UnmappedDefault
            {
                return Err(Errno::EPERM);
            }
        }
        set_owner_pool(
            ctx,
            st,
            Component::Host,
            &host,
            phys.bits(),
            nr,
            annotation_pte(vm.owner_id()),
        )?;
        tlbi_range(ctx, VMID_HOST, phys.bits(), nr);
        map_pages_pool(
            ctx,
            st,
            Component::Vm(vm.handle),
            guest_pgt,
            gfn * PAGE_SIZE,
            phys,
            nr,
            guest_attrs(PageState::Owned),
            true,
        )?;
        ctx.hooks
            .transfer(&ctx.hook_ctx(), TransferEdge::Firmware, pfn, nr, false);
        ctx.hooks
            .firmware_donated(&ctx.hook_ctx(), vm.handle, vm.uniq, pfn, nr);
        Ok(())
    })();
    st.host_unlock(ctx, host);
    result
}

/// Top-up of a vCPU memcache with `nr` pages donated by the host starting
/// at raw physical address `addr`. This is the path of real bugs 1 and 2.
///
/// # Errors
///
/// `EINVAL` for unaligned addresses (check missing under bug 1), `E2BIG`
/// for oversized requests (check broken under bug 2), `EPERM` if the host
/// does not own the donated range.
pub fn topup_memcache(
    ctx: &HypCtx<'_>,
    st: &HypState,
    mc: &mut Memcache,
    addr: u64,
    nr: u64,
) -> HypResult {
    // Bug 1: the alignment check on the donated address is missing.
    if !ctx.faults.is(Fault::Bug1MemcacheAlignment) && !is_page_aligned(addr) {
        cov::hit!("topup_memcache/unaligned");
        return Err(Errno::EINVAL);
    }
    // Bug 2: the size check truncates through a narrow signed type, so a
    // huge count silently becomes a small (or zero) one.
    let nr = if ctx.faults.is(Fault::Bug2MemcacheSize) {
        (nr as i16).max(0) as u64
    } else if nr > MEMCACHE_MAX_TOPUP {
        cov::hit!("topup_memcache/too_big");
        return Err(Errno::E2BIG);
    } else {
        nr
    };

    let host = st.host_lock(ctx);
    let hyp = st.hyp_lock(ctx);
    let result = (|| {
        // Check phase: every donated page must be the host's to give,
        // *before* any state changes (the transition must look atomic).
        for i in 0..nr {
            let page = page_align_down(addr) + i * PAGE_SIZE;
            if !ctx.mem.is_ram(PhysAddr::new(page)) || !host_owns_exclusively(ctx.mem, &host, page)
            {
                return Err(Errno::EPERM);
            }
        }
        for i in 0..nr {
            let page = page_align_down(addr) + i * PAGE_SIZE;
            do_host_donate_hyp_locked(ctx, st, &host, &hyp, PhysAddr::new(page), 1)?;
            // Zero the donated page. With bug 1 injected the *unaligned*
            // address is used, spilling zeroes into the following page.
            let wipe_at = if ctx.faults.is(Fault::Bug1MemcacheAlignment) {
                addr + i * PAGE_SIZE
            } else {
                page
            };
            wipe_donated(ctx.mem, PhysAddr::new(wipe_at));
            mc.push(ctx.mem, PhysAddr::new(page));
        }
        Ok(())
    })();
    st.hyp_unlock(ctx, hyp);
    st.host_unlock(ctx, host);
    match &result {
        Ok(()) => cov::hit!("topup_memcache/ok"),
        Err(_) => cov::hit!("topup_memcache/err"),
    }
    result
}

/// Outcome of a host stage 2 abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostAbortOutcome {
    /// The handler installed mappings; the host should retry the access.
    MappedOnDemand {
        /// First IPA mapped.
        ipa: u64,
        /// Number of pages mapped.
        nr_pages: u64,
    },
    /// Another CPU resolved the fault first; retry.
    Spurious,
    /// The access is not the host's to make: a fault is injected back
    /// into EL1.
    InjectToHost,
}

/// Handles a host stage 2 abort at `ipa`: pKVM's lazy mapping-on-demand
/// (§2). Host memory is identity-mapped at the largest granule the
/// containing invalid entry and memory-region bounds allow, which is why
/// the specification of this handler is deliberately loose (§3.1).
pub fn handle_host_mem_abort(ctx: &HypCtx<'_>, st: &HypState, ipa: u64) -> HostAbortOutcome {
    if ipa >= 1 << 48 {
        return HostAbortOutcome::InjectToHost;
    }
    let host = st.host_lock(ctx);
    let outcome = (|| {
        let (pte, level) = get_leaf(ctx.mem, &host, ipa);
        match pte.kind(level) {
            EntryKind::Block | EntryKind::Page => return HostAbortOutcome::Spurious,
            EntryKind::Invalid => {
                let owner = annotation_owner(pte);
                if owner != OwnerId::HOST {
                    cov::hit!("host_abort/denied");
                    return HostAbortOutcome::InjectToHost;
                }
            }
            _ => return HostAbortOutcome::InjectToHost,
        }
        let pa = PhysAddr::new(ipa);
        let Some(region) = ctx.mem.region_of(pa) else {
            cov::hit!("host_abort/denied");
            return HostAbortOutcome::InjectToHost;
        };
        if region.kind == RegionKind::Mmio {
            // Device memory: map the single faulting page.
            cov::hit!("host_abort/mmio");
            let page = page_align_down(ipa);
            let r = map_pages_pool(
                ctx,
                st,
                Component::Host,
                &host,
                page,
                PhysAddr::new(page),
                1,
                host_attrs(false, PageState::Owned),
                true,
            );
            return match r {
                Ok(()) => HostAbortOutcome::MappedOnDemand {
                    ipa: page,
                    nr_pages: 1,
                },
                Err(_) => HostAbortOutcome::InjectToHost,
            };
        }
        // host_stage2_adjust_range: the whole invalid entry's region,
        // clipped to the containing RAM region.
        let entry_size = level_size(level);
        let entry_base = ipa & !(entry_size - 1);
        let start = entry_base.max(region.base.bits());
        let mut end = (entry_base + entry_size).min(region.end().bits());
        if ctx.faults.is(Fault::SynHostMapOffByOne) {
            end += PAGE_SIZE;
        }
        let nr = (end - start) / PAGE_SIZE;
        let r = map_pages_pool(
            ctx,
            st,
            Component::Host,
            &host,
            start,
            PhysAddr::new(start),
            nr,
            host_attrs(true, PageState::Owned),
            false,
        );
        match r {
            Ok(()) => {
                cov::hit!("host_abort/mapped_on_demand");
                HostAbortOutcome::MappedOnDemand {
                    ipa: start,
                    nr_pages: nr,
                }
            }
            Err(_) => HostAbortOutcome::InjectToHost,
        }
    })();
    st.host_unlock(ctx, host);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSet;
    use crate::hooks::NoHooks;
    use crate::mm::compute_layout;
    use crate::pool::HypPool;
    use crate::vm::VmTable;
    use pkvm_aarch64::attrs::MemType;
    use pkvm_aarch64::attrs::Stage;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_aarch64::sync::Mutex;
    use pkvm_aarch64::walk::{walk as hw_walk, Access};
    use std::collections::HashMap;

    pub(crate) struct Fx {
        pub mem: PhysMem,
        pub st: HypState,
        pub faults: FaultSet,
        pub tlb: pkvm_aarch64::tlb::TlbSet,
    }

    impl Fx {
        pub fn new() -> Fx {
            let mem = PhysMem::new(vec![
                MemRegion::ram(0x4000_0000, 0x800_0000),
                MemRegion::mmio(0x900_0000, 0x10_0000),
            ]);
            let mut pool = HypPool::new(PhysAddr::new(0x4400_0000), 4096);
            let host_root = pool.alloc_page().unwrap();
            let hyp_root = pool.alloc_page().unwrap();
            mem.zero_page(host_root).unwrap();
            mem.zero_page(hyp_root).unwrap();
            let st = HypState {
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
                layout: compute_layout(PhysAddr::new(0x4800_0000), false).unwrap(),
                hyp_range: (0x44000, 4096),
            };
            Fx {
                mem,
                st,
                faults: FaultSet::none(),
                tlb: pkvm_aarch64::tlb::TlbSet::new(1),
            }
        }

        pub fn ctx(&self) -> HypCtx<'_> {
            HypCtx {
                mem: &self.mem,
                tlb: &self.tlb,
                cpu: 0,
                hooks: &NoHooks,
                faults: &self.faults,
            }
        }
    }

    const PFN: u64 = 0x40100; // phys 0x4010_0000

    #[test]
    fn share_hyp_maps_both_sides() {
        let f = Fx::new();
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        let host_root = f.st.host_pgt.lock().root;
        let hyp_root = f.st.hyp_pgt.lock().root;
        let phys = PhysAddr::from_pfn(PFN);
        let h = hw_walk(&f.mem, Stage::Stage2, host_root, phys.bits()).unwrap();
        assert_eq!(h.oa, phys);
        assert_eq!(h.attrs.sw, PageState::SharedOwned.to_sw());
        assert_eq!(h.attrs.perms, Perms::RWX);
        let hv = f.st.layout.hyp_va(phys);
        let y = hw_walk(&f.mem, Stage::Stage1, hyp_root, hv.bits()).unwrap();
        assert_eq!(y.oa, phys);
        assert_eq!(y.attrs.sw, PageState::SharedBorrowed.to_sw());
        assert_eq!(y.attrs.perms, Perms::RW);
    }

    #[test]
    fn double_share_is_eperm() {
        let f = Fx::new();
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        assert_eq!(host_share_hyp(&f.ctx(), &f.st, PFN), Err(Errno::EPERM));
    }

    #[test]
    fn share_of_mmio_is_eperm() {
        let f = Fx::new();
        assert_eq!(host_share_hyp(&f.ctx(), &f.st, 0x9000), Err(Errno::EPERM));
    }

    #[test]
    fn unshare_restores_exclusive_ownership() {
        let f = Fx::new();
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        host_unshare_hyp(&f.ctx(), &f.st, PFN).unwrap();
        let phys = PhysAddr::from_pfn(PFN);
        let host_root = f.st.host_pgt.lock().root;
        let h = hw_walk(&f.mem, Stage::Stage2, host_root, phys.bits()).unwrap();
        assert_eq!(h.attrs.sw, PageState::Owned.to_sw());
        let hyp_root = f.st.hyp_pgt.lock().root;
        let hv = f.st.layout.hyp_va(phys);
        assert!(hw_walk(&f.mem, Stage::Stage1, hyp_root, hv.bits()).is_err());
        // And it can be shared again.
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
    }

    #[test]
    fn unshare_of_unshared_is_eperm() {
        let f = Fx::new();
        assert_eq!(host_unshare_hyp(&f.ctx(), &f.st, PFN), Err(Errno::EPERM));
    }

    #[test]
    fn donate_hyp_annotates_host_table() {
        let f = Fx::new();
        host_donate_hyp(&f.ctx(), &f.st, PFN, 2).unwrap();
        let host_root = f.st.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        for i in 0..2 {
            let ipa = PhysAddr::from_pfn(PFN + i).bits();
            assert_eq!(
                page_state_of(&f.mem, &host, ipa),
                ConcreteState::UnmappedOwner(OwnerId::HYP)
            );
        }
        // Donated pages cannot be shared any more.
        assert_eq!(host_share_hyp(&f.ctx(), &f.st, PFN), Err(Errno::EPERM));
        // And cannot be donated twice.
        assert_eq!(host_donate_hyp(&f.ctx(), &f.st, PFN, 1), Err(Errno::EPERM));
    }

    #[test]
    fn hyp_donate_host_roundtrip() {
        let f = Fx::new();
        host_donate_hyp(&f.ctx(), &f.st, PFN, 1).unwrap();
        hyp_donate_host(&f.ctx(), &f.st, PFN, 1).unwrap();
        let host_root = f.st.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        assert_eq!(
            page_state_of(&f.mem, &host, PhysAddr::from_pfn(PFN).bits()),
            ConcreteState::UnmappedDefault
        );
        // Sharable again.
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
    }

    #[test]
    fn topup_donates_and_caches() {
        let f = Fx::new();
        let mut mc = Memcache::new();
        topup_memcache(&f.ctx(), &f.st, &mut mc, 0x4010_0000, 4).unwrap();
        assert_eq!(mc.len(), 4);
        let host_root = f.st.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        assert_eq!(
            page_state_of(&f.mem, &host, 0x4010_2000),
            ConcreteState::UnmappedOwner(OwnerId::HYP)
        );
    }

    #[test]
    fn topup_rejects_unaligned_and_huge() {
        let f = Fx::new();
        let mut mc = Memcache::new();
        assert_eq!(
            topup_memcache(&f.ctx(), &f.st, &mut mc, 0x4010_0800, 1),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            topup_memcache(
                &f.ctx(),
                &f.st,
                &mut mc,
                0x4010_0000,
                MEMCACHE_MAX_TOPUP + 1
            ),
            Err(Errno::E2BIG)
        );
        assert!(mc.is_empty());
    }

    #[test]
    fn bug1_unaligned_topup_zeroes_neighbouring_page() {
        let f = Fx::new();
        f.faults.inject(Fault::Bug1MemcacheAlignment);
        // Sentinel in the page following the donation.
        let victim = PhysAddr::new(0x4010_1000);
        f.mem.write_u64(victim, 0x5ca1ab1e).unwrap();
        // First donate the victim page to the hypervisor so it is clearly
        // not the host's to zero... then the host "donates" an unaligned
        // address overlapping into it.
        let mut mc = Memcache::new();
        topup_memcache(&f.ctx(), &f.st, &mut mc, 0x4010_0800, 1).unwrap();
        assert_eq!(
            f.mem.read_u64(victim).unwrap(),
            0,
            "host zeroed memory beyond its page"
        );
    }

    #[test]
    fn bug2_huge_topup_truncates_silently() {
        let f = Fx::new();
        f.faults.inject(Fault::Bug2MemcacheSize);
        let mut mc = Memcache::new();
        // 0x10000 truncates to 0 through i16: "success", nothing donated.
        topup_memcache(&f.ctx(), &f.st, &mut mc, 0x4010_0000, 0x1_0000).unwrap();
        assert_eq!(mc.len(), 0);
    }

    #[test]
    fn host_abort_maps_on_demand_with_blocks() {
        let f = Fx::new();
        let out = handle_host_mem_abort(&f.ctx(), &f.st, 0x4212_3000);
        let HostAbortOutcome::MappedOnDemand { ipa, nr_pages } = out else {
            panic!("expected mapping, got {out:?}");
        };
        assert!(ipa <= 0x4212_3000);
        assert!(nr_pages >= 1);
        let host_root = f.st.host_pgt.lock().root;
        let tr = pkvm_aarch64::walk::translate(
            &f.mem,
            Stage::Stage2,
            host_root,
            0x4212_3000,
            Access::Write,
        )
        .unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x4212_3000), "identity mapping");
        // A second fault on the same address is spurious.
        assert_eq!(
            handle_host_mem_abort(&f.ctx(), &f.st, 0x4212_3000),
            HostAbortOutcome::Spurious
        );
    }

    #[test]
    fn host_abort_on_hyp_page_is_denied() {
        let f = Fx::new();
        host_donate_hyp(&f.ctx(), &f.st, PFN, 1).unwrap();
        assert_eq!(
            handle_host_mem_abort(&f.ctx(), &f.st, PhysAddr::from_pfn(PFN).bits()),
            HostAbortOutcome::InjectToHost
        );
    }

    #[test]
    fn host_abort_on_mmio_maps_single_device_page() {
        let f = Fx::new();
        let out = handle_host_mem_abort(&f.ctx(), &f.st, 0x900_2004);
        assert_eq!(
            out,
            HostAbortOutcome::MappedOnDemand {
                ipa: 0x900_2000,
                nr_pages: 1
            }
        );
        let host_root = f.st.host_pgt.lock().root;
        let tr = hw_walk(&f.mem, Stage::Stage2, host_root, 0x900_2000).unwrap();
        assert_eq!(tr.attrs.memtype, MemType::Device);
        assert_eq!(tr.attrs.perms, Perms::RW);
    }

    #[test]
    fn host_abort_outside_memory_is_denied() {
        let f = Fx::new();
        assert_eq!(
            handle_host_mem_abort(&f.ctx(), &f.st, 0x2_0000_0000),
            HostAbortOutcome::InjectToHost
        );
    }

    #[test]
    fn host_abort_after_share_is_spurious() {
        let f = Fx::new();
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        assert_eq!(
            handle_host_mem_abort(&f.ctx(), &f.st, PhysAddr::from_pfn(PFN).bits()),
            HostAbortOutcome::Spurious
        );
    }

    #[test]
    fn syn_share_wrong_state_mismarks_host_side() {
        let f = Fx::new();
        f.faults.inject(Fault::SynShareWrongState);
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        let host_root = f.st.host_pgt.lock().root;
        let h = hw_walk(
            &f.mem,
            Stage::Stage2,
            host_root,
            PhysAddr::from_pfn(PFN).bits(),
        )
        .unwrap();
        assert_eq!(
            h.attrs.sw,
            PageState::Owned.to_sw(),
            "bug: owned instead of shared-owned"
        );
    }

    #[test]
    fn syn_skip_check_allows_double_share() {
        let f = Fx::new();
        host_share_hyp(&f.ctx(), &f.st, PFN).unwrap();
        f.faults.inject(Fault::SynShareSkipsCheck);
        assert!(
            host_share_hyp(&f.ctx(), &f.st, PFN).is_ok(),
            "bug: double share accepted"
        );
    }

    #[test]
    fn reclaim_requires_pending_entry() {
        let f = Fx::new();
        assert_eq!(host_reclaim_page(&f.ctx(), &f.st, PFN), Err(Errno::EPERM));
        // Simulate a teardown having queued the page.
        f.st.reclaim.lock().insert(PFN, OwnerId::guest(0));
        // Make the host annotation look guest-owned first.
        {
            let ctx = f.ctx();
            let host = f.st.host_lock(&ctx);
            set_owner_pool(
                &ctx,
                &f.st,
                Component::Host,
                &host,
                PhysAddr::from_pfn(PFN).bits(),
                1,
                annotation_pte(OwnerId::guest(0)),
            )
            .unwrap();
            f.st.host_unlock(&ctx, host);
        }
        f.mem.write_u64(PhysAddr::from_pfn(PFN), 0xdead).unwrap();
        host_reclaim_page(&f.ctx(), &f.st, PFN).unwrap();
        assert_eq!(
            f.mem.read_u64(PhysAddr::from_pfn(PFN)).unwrap(),
            0,
            "page wiped"
        );
        let host_root = f.st.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        assert_eq!(
            page_state_of(&f.mem, &host, PhysAddr::from_pfn(PFN).bits()),
            ConcreteState::UnmappedDefault
        );
    }

    /// A protected VM with a pool-backed stage 2 root, for firmware tests.
    fn fx_vm(f: &Fx) -> (std::sync::Arc<Vm>, KvmPgtable) {
        let root = f.st.pool.lock().alloc_page().unwrap();
        f.mem.zero_page(root).unwrap();
        let vm = f.st.vm_table.lock().insert(true, 1, root, vec![]).unwrap();
        let pgt = KvmPgtable {
            root,
            stage: Stage::Stage2,
        };
        (vm, pgt)
    }

    #[test]
    fn firmware_donation_hides_pages_and_maps_guest() {
        let f = Fx::new();
        let (vm, pgt) = fx_vm(&f);
        vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, PFN, 0x80, 2).unwrap();
        let host_root = f.st.host_pgt.lock().root;
        let host = KvmPgtable {
            root: host_root,
            stage: Stage::Stage2,
        };
        for i in 0..2 {
            assert_eq!(
                page_state_of(&f.mem, &host, PhysAddr::from_pfn(PFN + i).bits()),
                ConcreteState::UnmappedOwner(vm.owner_id()),
                "host side annotated away"
            );
            assert!(matches!(
                page_state_of(&f.mem, &pgt, (0x80 + i) * PAGE_SIZE),
                ConcreteState::Mapped(PageState::Owned, _)
            ));
        }
        // The range is gone from the host: no double donation, no share.
        assert_eq!(
            vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, PFN, 0x90, 1),
            Err(Errno::EPERM)
        );
        assert_eq!(host_share_hyp(&f.ctx(), &f.st, PFN), Err(Errno::EPERM));
    }

    #[test]
    fn firmware_rejects_mapped_guest_range_and_mmio() {
        let f = Fx::new();
        let (vm, pgt) = fx_vm(&f);
        vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, PFN, 0x80, 1).unwrap();
        // The guest IPA is taken now.
        assert_eq!(
            vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, PFN + 8, 0x80, 1),
            Err(Errno::EPERM)
        );
        // MMIO is not donatable firmware.
        assert_eq!(
            vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, 0x9000, 0xa0, 1),
            Err(Errno::EPERM)
        );
    }

    #[test]
    fn firmware_pages_cannot_be_shared_back_by_the_guest() {
        let f = Fx::new();
        let (vm, pgt) = fx_vm(&f);
        vm_load_firmware(&f.ctx(), &f.st, &vm, &pgt, PFN, 0x80, 1).unwrap();
        let firmware = vec![PhysAddr::from_pfn(PFN)];
        let mut mc = Memcache::new();
        assert_eq!(
            guest_share_host(
                &f.ctx(),
                &f.st,
                &vm,
                &pgt,
                &firmware,
                &mut mc,
                0x80 * PAGE_SIZE
            ),
            Err(Errno::EPERM),
            "firmware must never become host-accessible"
        );
    }
}
