//! Simulated per-CPU translation lookaside buffers.
//!
//! Hardware caches translations per VMID/ASID *per hardware thread*;
//! system software must invalidate (`tlbi ... is` broadcast, or the
//! local-only variants) after removing or downgrading mappings, or stale
//! translations keep working — the class of bugs the paper's companion
//! work ("Abstract architecture to catch concrete bugs: checking Android
//! hypervisor TLB synchronisation") targets. The simulation caches
//! page-granular translations keyed by `(vmid, input page)` in one
//! [`TlbSet`] holding a private TLB per simulated CPU: fills are
//! CPU-local, broadcast invalidations reach every CPU, and the
//! non-broadcast variants reach only the issuer — leaving remote CPUs
//! demonstrably stale.
//!
//! The division of labour with the ghost oracle: the oracle checks both
//! the extensional meaning of the in-memory tables *and* (since the
//! break-before-make check) that every downgrading table write is
//! followed by its matching-scope invalidation; *serving* a stale
//! translation remains the harness's behavioural concern, driven by the
//! [`TlbInvalidationPolicy`] seam below. An installed policy may delay or
//! drop the delivery of a broadcast invalidation to a remote CPU; the
//! affected entries are retained and marked, so a consumer can assert
//! that every stale translation served corresponds to a concrete
//! suppressed delivery — the TLB never fabricates staleness.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, RwLock};

use crate::addr::{PAGE_MASK, PAGE_SIZE};
use crate::memory::PfnHash;
use crate::walk::{Access, Translation};

/// The VMID used for the host's stage 2 translations.
pub const VMID_HOST: u16 = 0;
/// The pseudo-VMID used for the hypervisor's own stage 1 translations.
pub const VMID_HYP: u16 = 0xffff;

/// The scope of one TLB invalidation operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbiScope {
    /// A page range under one VMID (`tlbi ipas2e1` over `nr_pages`).
    Range {
        /// The VMID whose translations are dropped.
        vmid: u16,
        /// First input address of the range (any offset within the page).
        ia: u64,
        /// Number of pages covered.
        nr_pages: u64,
    },
    /// Everything under one VMID (`tlbi vmalls12e1`).
    Vmid {
        /// The VMID whose translations are dropped.
        vmid: u16,
    },
    /// Everything (`tlbi alle1`).
    All,
}

impl TlbiScope {
    /// Whether this scope covers the cached entry keyed `(vmid, page)`.
    fn covers(&self, vmid: u16, page: u64) -> bool {
        match *self {
            TlbiScope::Range {
                vmid: v,
                ia,
                nr_pages,
            } => {
                let base = (ia & !PAGE_MASK) as u128;
                let end = base + nr_pages as u128 * PAGE_SIZE as u128;
                v == vmid && (page as u128) >= base && (page as u128) < end
            }
            TlbiScope::Vmid { vmid: v } => v == vmid,
            TlbiScope::All => true,
        }
    }
}

/// What happens to a broadcast invalidation on its way to a remote CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteDelivery {
    /// The invalidation applies to the remote TLB immediately (correct
    /// hardware behaviour).
    Deliver,
    /// The invalidation is queued on the remote CPU and applies only at
    /// its next [`TlbSet::settle`]; until then the covered entries are
    /// retained and marked stale.
    Delay,
    /// The invalidation never reaches the remote CPU; the covered entries
    /// are retained and marked stale until a later delivered invalidation
    /// covers them.
    Drop,
}

/// Decides, per remote CPU, what happens to a broadcast invalidation —
/// the seam a chaos harness installs to expose cross-CPU staleness
/// without the architecture crate depending on the harness.
pub trait TlbInvalidationPolicy: Send + Sync {
    /// Delivery decision for the invalidation `scope` issued on `issuer`
    /// travelling to `target` (never called with `issuer == target`; the
    /// issuing CPU always invalidates its own TLB).
    fn remote(&self, issuer: usize, target: usize, scope: &TlbiScope) -> RemoteDelivery;
}

/// One CPU's private TLB.
#[derive(Debug, Default)]
struct CpuTlb {
    entries: RwLock<HashMap<(u16, u64), Translation, PfnHash>>,
    /// Keys covered by a suppressed (delayed or dropped) invalidation:
    /// still served, but known-stale. Cleared by a delivered covering
    /// invalidation or a fresh fill of the same key.
    stale: Mutex<HashSet<(u16, u64), PfnHash>>,
    /// Delayed invalidations awaiting [`TlbSet::settle`].
    pending: Mutex<Vec<TlbiScope>>,
}

impl CpuTlb {
    fn apply(&self, scope: &TlbiScope) {
        match *scope {
            TlbiScope::Range { vmid, ia, nr_pages } => {
                let base = ia & !PAGE_MASK;
                let mut e = self.entries.write();
                // Walk the smaller side: a handful of pages removes
                // directly (with wrapping arithmetic so a large range
                // near the address-space top cannot overflow-panic); a
                // huge range filters the map instead.
                if nr_pages <= 512 && nr_pages <= e.len() as u64 {
                    for i in 0..nr_pages {
                        e.remove(&(vmid, base.wrapping_add(i.wrapping_mul(PAGE_SIZE))));
                    }
                } else {
                    e.retain(|&(v, page), _| !scope.covers(v, page) || v != vmid);
                    let _ = base;
                }
            }
            TlbiScope::Vmid { vmid } => {
                self.entries.write().retain(|&(v, _), _| v != vmid);
            }
            TlbiScope::All => self.entries.write().clear(),
        }
        self.stale
            .lock()
            .retain(|&(v, page)| !scope.covers(v, page));
    }

    fn mark_stale(&self, scope: &TlbiScope) {
        let e = self.entries.read();
        let mut stale = self.stale.lock();
        for &(v, page) in e.keys() {
            if scope.covers(v, page) {
                stale.insert((v, page));
            }
        }
    }
}

/// Per-CPU TLBs behind one handle, with a policy seam for remote
/// invalidation delivery.
#[derive(Default)]
pub struct TlbSet {
    cpus: Vec<CpuTlb>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// TLBI operations *issued* — one per invalidate call, regardless of
    /// the pages or CPUs it covers.
    invalidations: AtomicU64,
    /// Lookups served from an entry a suppressed invalidation left live.
    stale_served: AtomicU64,
    /// Remote deliveries suppressed (delayed or dropped) by the policy.
    suppressed_remote: AtomicU64,
    policy: RwLock<Option<Arc<dyn TlbInvalidationPolicy>>>,
}

impl std::fmt::Debug for TlbSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlbSet")
            .field("cpus", &self.cpus.len())
            .field("entries", &self.len())
            .finish()
    }
}

impl TlbSet {
    /// Empty TLBs for `nr_cpus` hardware threads.
    pub fn new(nr_cpus: usize) -> TlbSet {
        TlbSet {
            cpus: (0..nr_cpus.max(1)).map(|_| CpuTlb::default()).collect(),
            ..TlbSet::default()
        }
    }

    /// Number of per-CPU TLBs.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    fn tlb(&self, cpu: usize) -> &CpuTlb {
        // Out-of-range CPUs (a harness driving a lane the machine does
        // not have) fold onto CPU 0 rather than panicking mid-trap.
        self.cpus.get(cpu).unwrap_or(&self.cpus[0])
    }

    /// Installs (or with `None` removes) the remote-delivery policy.
    pub fn set_policy(&self, policy: Option<Arc<dyn TlbInvalidationPolicy>>) {
        *self.policy.write() = policy;
    }

    /// Looks up the translation of the page containing `ia` under `vmid`
    /// in `cpu`'s TLB, honouring the access permission: an entry whose
    /// permissions reject `access` behaves — and is counted — as a miss
    /// (the hardware re-walks), so the hit/miss statistics match
    /// observable behaviour.
    pub fn lookup(&self, cpu: usize, vmid: u16, ia: u64, access: Access) -> Option<Translation> {
        let tlb = self.tlb(cpu);
        let page = ia & !PAGE_MASK;
        let hit = tlb
            .entries
            .read()
            .get(&(vmid, page))
            .copied()
            .filter(|tr| match access {
                Access::Read => tr.attrs.perms.r,
                Access::Write => tr.attrs.perms.w,
                Access::Exec => tr.attrs.perms.x,
            });
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if tlb.stale.lock().contains(&(vmid, page)) {
                self.stale_served.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Caches the translation of the page containing `ia` in `cpu`'s TLB.
    ///
    /// The cached [`Translation`] is normalised to the page base so later
    /// lookups can re-add their own offsets. A fresh fill un-marks a
    /// previously stale key: the walk that produced it saw the live
    /// tables.
    pub fn fill(&self, cpu: usize, vmid: u16, ia: u64, mut tr: Translation) {
        let offset = ia & PAGE_MASK;
        tr.oa = crate::addr::PhysAddr::new(tr.oa.bits().wrapping_sub(offset));
        let tlb = self.tlb(cpu);
        let page = ia & !PAGE_MASK;
        tlb.entries.write().insert((vmid, page), tr);
        tlb.stale.lock().remove(&(vmid, page));
    }

    /// `tlbi ipas2e1(is)`-style: drops the cached translation of one page.
    pub fn invalidate_page(&self, cpu: usize, vmid: u16, ia: u64, broadcast: bool) {
        self.invalidate(
            cpu,
            TlbiScope::Range {
                vmid,
                ia,
                nr_pages: 1,
            },
            broadcast,
        );
    }

    /// Drops the cached translations of a page range.
    pub fn invalidate_range(&self, cpu: usize, vmid: u16, ia: u64, nr_pages: u64, broadcast: bool) {
        self.invalidate(cpu, TlbiScope::Range { vmid, ia, nr_pages }, broadcast);
    }

    /// `tlbi vmalls12e1(is)`-style: drops everything cached under `vmid`.
    pub fn invalidate_vmid(&self, cpu: usize, vmid: u16, broadcast: bool) {
        self.invalidate(cpu, TlbiScope::Vmid { vmid }, broadcast);
    }

    /// `tlbi alle1(is)`-style: drops everything.
    pub fn invalidate_all(&self, cpu: usize, broadcast: bool) {
        self.invalidate(cpu, TlbiScope::All, broadcast);
    }

    /// One TLBI operation: always applied to the issuing CPU; with
    /// `broadcast` also offered to every other CPU, subject to the
    /// installed [`TlbInvalidationPolicy`].
    pub fn invalidate(&self, cpu: usize, scope: TlbiScope, broadcast: bool) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let issuer = if cpu < self.cpus.len() { cpu } else { 0 };
        self.cpus[issuer].apply(&scope);
        if !broadcast {
            return;
        }
        let policy = self.policy.read().clone();
        for (target, tlb) in self.cpus.iter().enumerate() {
            if target == issuer {
                continue;
            }
            let delivery = policy.as_ref().map_or(RemoteDelivery::Deliver, |p| {
                p.remote(issuer, target, &scope)
            });
            match delivery {
                RemoteDelivery::Deliver => tlb.apply(&scope),
                RemoteDelivery::Delay => {
                    self.suppressed_remote.fetch_add(1, Ordering::Relaxed);
                    tlb.mark_stale(&scope);
                    tlb.pending.lock().push(scope);
                }
                RemoteDelivery::Drop => {
                    self.suppressed_remote.fetch_add(1, Ordering::Relaxed);
                    tlb.mark_stale(&scope);
                }
            }
        }
    }

    /// Applies `cpu`'s delayed invalidations (the late end of a
    /// [`RemoteDelivery::Delay`]). Dropped deliveries never settle.
    pub fn settle(&self, cpu: usize) {
        let tlb = self.tlb(cpu);
        let pending: Vec<TlbiScope> = tlb.pending.lock().drain(..).collect();
        for scope in &pending {
            tlb.apply(scope);
        }
    }

    /// Total cached entries across all CPUs (tests and reports).
    pub fn len(&self) -> usize {
        self.cpus.iter().map(|t| t.entries.read().len()).sum()
    }

    /// Cached entries in `cpu`'s TLB.
    pub fn cpu_len(&self, cpu: usize) -> usize {
        self.tlb(cpu).entries.read().len()
    }

    /// Returns `true` if nothing is cached on any CPU.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys currently marked stale on `cpu` (retained only because a
    /// delivery was suppressed) — the soundness witness: the harness can
    /// assert every stale serve maps to one of these.
    pub fn stale_keys(&self, cpu: usize) -> Vec<(u16, u64)> {
        let mut keys: Vec<(u16, u64)> = self.tlb(cpu).stale.lock().iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Lookup hits so far (permission-filtered: only translations the
    /// access was actually served from).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far (including present entries whose permissions
    /// rejected the access).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// TLBI operations issued so far — one per invalidate call, the same
    /// unit for page, range and VMID scopes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Lookups served from an entry a suppressed invalidation retained.
    pub fn stale_served(&self) -> u64 {
        self.stale_served.load(Ordering::Relaxed)
    }

    /// Remote deliveries the policy delayed or dropped.
    pub fn suppressed_remote(&self) -> u64 {
        self.suppressed_remote.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::attrs::{Attrs, Perms};

    fn tr(oa: u64) -> Translation {
        Translation {
            oa: PhysAddr::new(oa),
            level: 3,
            attrs: Attrs::normal(Perms::RWX),
        }
    }

    fn tr_ro(oa: u64) -> Translation {
        Translation {
            oa: PhysAddr::new(oa),
            level: 3,
            attrs: Attrs::normal(Perms::R),
        }
    }

    #[test]
    fn fill_and_lookup_normalise_to_page() {
        let t = TlbSet::new(2);
        t.fill(0, 0, 0x4000_1234, tr(0x5000_1234));
        let hit = t.lookup(0, 0, 0x4000_1fff, Access::Read).unwrap();
        assert_eq!(hit.oa, PhysAddr::new(0x5000_1000), "page-base normalised");
        assert_eq!(t.hits(), 1);
        assert!(t.lookup(0, 0, 0x4000_2000, Access::Read).is_none());
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn fills_are_cpu_local() {
        let t = TlbSet::new(2);
        t.fill(0, 0, 0x1000, tr(0xa000));
        assert!(t.lookup(0, 0, 0x1000, Access::Read).is_some());
        assert!(
            t.lookup(1, 0, 0x1000, Access::Read).is_none(),
            "CPU 1 sees CPU 0's fill"
        );
        assert_eq!(t.cpu_len(0), 1);
        assert_eq!(t.cpu_len(1), 0);
    }

    #[test]
    fn permission_rejected_entries_behave_and_count_as_misses() {
        let t = TlbSet::new(1);
        t.fill(0, 0, 0x1000, tr_ro(0xa000));
        assert!(t.lookup(0, 0, 0x1000, Access::Read).is_some());
        assert!(t.lookup(0, 0, 0x1000, Access::Write).is_none());
        assert!(t.lookup(0, 0, 0x1000, Access::Exec).is_none());
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2, "rejected entries must count as misses");
    }

    #[test]
    fn vmids_are_isolated() {
        let t = TlbSet::new(1);
        t.fill(0, 0, 0x1000, tr(0xa000));
        t.fill(0, 1, 0x1000, tr(0xb000));
        assert_eq!(
            t.lookup(0, 0, 0x1000, Access::Read).unwrap().oa,
            PhysAddr::new(0xa000)
        );
        assert_eq!(
            t.lookup(0, 1, 0x1000, Access::Read).unwrap().oa,
            PhysAddr::new(0xb000)
        );
        t.invalidate_vmid(0, 1, true);
        assert!(t.lookup(0, 1, 0x1000, Access::Read).is_none());
        assert!(t.lookup(0, 0, 0x1000, Access::Read).is_some());
    }

    #[test]
    fn page_invalidation_is_precise() {
        let t = TlbSet::new(1);
        t.fill(0, 0, 0x1000, tr(0xa000));
        t.fill(0, 0, 0x2000, tr(0xb000));
        t.invalidate_page(0, 0, 0x1abc, true);
        assert!(t.lookup(0, 0, 0x1000, Access::Read).is_none());
        assert!(t.lookup(0, 0, 0x2000, Access::Read).is_some());
    }

    #[test]
    fn range_and_full_invalidation() {
        let t = TlbSet::new(1);
        for i in 0..8u64 {
            t.fill(0, 3, i * 0x1000, tr(0x9_0000 + i * 0x1000));
        }
        t.invalidate_range(0, 3, 0x2000, 3, true);
        assert!(t.lookup(0, 3, 0x2000, Access::Read).is_none());
        assert!(t.lookup(0, 3, 0x4000, Access::Read).is_none());
        assert!(t.lookup(0, 3, 0x5000, Access::Read).is_some());
        t.invalidate_all(0, true);
        assert!(t.is_empty());
    }

    #[test]
    fn every_invalidation_scope_counts_one_tlbi_operation() {
        let t = TlbSet::new(2);
        t.invalidate_page(0, 0, 0x1000, true);
        t.invalidate_range(0, 0, 0x1000, 512, true);
        t.invalidate_vmid(0, 0, true);
        t.invalidate_all(0, false);
        assert_eq!(t.invalidations(), 4, "one count per TLBI issued");
    }

    #[test]
    fn huge_ranges_near_the_address_space_top_do_not_overflow() {
        let t = TlbSet::new(1);
        let top_page = !PAGE_MASK; // the last page of the address space
        t.fill(0, 0, top_page, tr(0xa000));
        t.fill(0, 0, 0x1000, tr(0xb000));
        // A range whose `ia + nr * PAGE_SIZE` overflows u64 must neither
        // panic nor wrap onto unrelated low pages.
        t.invalidate_range(0, 0, u64::MAX - 8 * PAGE_SIZE, u64::MAX / PAGE_SIZE, true);
        assert!(t.lookup(0, 0, top_page, Access::Read).is_none());
        assert!(
            t.lookup(0, 0, 0x1000, Access::Read).is_some(),
            "range wrapped around onto low pages"
        );
    }

    #[test]
    fn broadcast_reaches_remote_cpus_non_broadcast_does_not() {
        let t = TlbSet::new(2);
        t.fill(0, 0, 0x1000, tr(0xa000));
        t.fill(1, 0, 0x1000, tr(0xa000));
        t.invalidate_page(0, 0, 0x1000, false);
        assert!(t.lookup(0, 0, 0x1000, Access::Read).is_none());
        assert!(
            t.lookup(1, 0, 0x1000, Access::Read).is_some(),
            "non-broadcast TLBI reached a remote CPU"
        );
        t.invalidate_page(0, 0, 0x1000, true);
        assert!(t.lookup(1, 0, 0x1000, Access::Read).is_none());
    }

    struct Always(RemoteDelivery);

    impl TlbInvalidationPolicy for Always {
        fn remote(&self, _: usize, _: usize, _: &TlbiScope) -> RemoteDelivery {
            self.0
        }
    }

    #[test]
    fn dropped_remote_deliveries_retain_and_mark_exactly_the_covered_entries() {
        let t = TlbSet::new(2);
        t.fill(1, 0, 0x1000, tr(0xa000));
        t.fill(1, 0, 0x2000, tr(0xb000));
        t.fill(1, 7, 0x1000, tr(0xc000));
        t.set_policy(Some(Arc::new(Always(RemoteDelivery::Drop))));
        t.invalidate_page(0, 0, 0x1000, true);
        // The issuer is clean; the remote CPU retains the covered entry,
        // marked stale — and only that one.
        assert_eq!(t.suppressed_remote(), 1);
        assert_eq!(t.stale_keys(1), vec![(0, 0x1000)]);
        assert!(t.lookup(1, 0, 0x1000, Access::Read).is_some());
        assert_eq!(t.stale_served(), 1, "stale serve must be counted");
        // Uncovered entries are not stale; serving them counts nothing.
        assert!(t.lookup(1, 0, 0x2000, Access::Read).is_some());
        assert!(t.lookup(1, 7, 0x1000, Access::Read).is_some());
        assert_eq!(t.stale_served(), 1);
        // A delivered covering invalidation finally kills it.
        t.set_policy(None);
        t.invalidate_vmid(0, 0, true);
        assert!(t.lookup(1, 0, 0x1000, Access::Read).is_none());
        assert!(t.stale_keys(1).is_empty());
    }

    #[test]
    fn delayed_deliveries_apply_at_settle() {
        let t = TlbSet::new(2);
        t.fill(1, 0, 0x1000, tr(0xa000));
        t.set_policy(Some(Arc::new(Always(RemoteDelivery::Delay))));
        t.invalidate_page(0, 0, 0x1000, true);
        assert!(
            t.lookup(1, 0, 0x1000, Access::Read).is_some(),
            "delayed delivery applied immediately"
        );
        assert_eq!(t.stale_served(), 1);
        t.settle(1);
        assert!(t.lookup(1, 0, 0x1000, Access::Read).is_none());
        assert!(t.stale_keys(1).is_empty());
    }

    #[test]
    fn a_fresh_fill_clears_the_stale_mark() {
        let t = TlbSet::new(2);
        t.fill(1, 0, 0x1000, tr(0xa000));
        t.set_policy(Some(Arc::new(Always(RemoteDelivery::Drop))));
        t.invalidate_page(0, 0, 0x1000, true);
        assert_eq!(t.stale_keys(1), vec![(0, 0x1000)]);
        // CPU 1 re-walks and re-fills: the new entry reflects the live
        // tables, so it is no longer stale.
        t.fill(1, 0, 0x1000, tr(0xd000));
        assert!(t.stale_keys(1).is_empty());
        t.lookup(1, 0, 0x1000, Access::Read);
        assert_eq!(t.stale_served(), 0);
    }
}
