//! Incremental abstraction: caching page-table interpretations between
//! lock events and re-interpreting only dirtied subtrees.
//!
//! Full interpretation ([`interpret_pgtable`]) walks the entire tree at
//! every lock acquisition *and* release — the dominant per-event cost of
//! the oracle (§4, Fig. 6 steps (2)–(5)) — even when the critical section
//! wrote a handful of PTEs. This module keeps, per component, the last
//! interpretation keyed by `(root, write-log generation)` plus the
//! [`TableMeta`] locating every table node, and on the next event:
//!
//! 1. asks the [`WriteLog`](pkvm_aarch64::memory::WriteLog) which pages
//!    were written since the cached snapshot;
//! 2. intersects them with the cached table footprint — writes to
//!    non-table pages cannot change the interpretation;
//! 3. re-interprets only the subtrees rooted at dirtied table nodes
//!    (keeping the shallowest when nested) and splices each delta over
//!    its span in the cached map ([`Mapping::splice`]);
//! 4. falls back to a full walk when the root moved, the log was trimmed,
//!    the dirty ratio is high, or a replayed subtree reports an anomaly
//!    or reaches a table page located elsewhere in the tree.
//!
//! For the host it also memoizes the partition and legality check
//! ([`abstract_host_from_interp`]) against the cached interpretation: a
//! clean hit hands back the previous [`GhostHost`] itself, whose mappings
//! share storage with every copy the checks already hold.
//!
//! ## Why the dirty intersection is sound
//!
//! The cached snapshot generation is taken *before* the walk it
//! describes, so writes racing with that walk are re-reported next time
//! (the log over-approximates). A table node leaves or joins the tree
//! only by a PTE write in its (cached) parent node, so a stale footprint
//! entry whose page was re-used is always shadowed by a dirtied ancestor
//! and dropped by the shallowest-subtree filter. That argument needs each
//! table page to sit at one place in the tree: a page reachable from two
//! descriptors (a double-allocated table page, a corrupted descriptor)
//! has two spans, and a write to it would replay only one. Such aliased
//! states, like anomalous ones, are never cached: every event over them
//! takes the full walk and re-reports the anomalies, exactly like the
//! non-incremental oracle.
//!
//! [`interpret_pgtable`]: crate::abstraction::interpret_pgtable
//! [`Mapping::splice`]: crate::mapping::Mapping::splice

use std::collections::HashMap;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE, START_LEVEL};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::memory::PhysMem;
use pkvm_hyp::hooks::Component;

use crate::abstraction::{
    abstract_host_from_interp, interpret_subtree, table_span_pages, Anomaly, TableMeta,
};
use crate::state::{AbstractPgtable, GhostGlobals, GhostHost};

/// If more than one table in `4^-1` of the footprint is dirty, replaying
/// subtrees stops paying; take the full walk.
const DIRTY_RATIO_DEN: usize = 4;

/// Counters describing how the cache resolved requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served unchanged (no dirty table pages).
    pub clean_hits: u64,
    /// Served by replaying dirty subtrees into the cached map.
    pub incremental: u64,
    /// Subtrees replayed across all incremental serves.
    pub subtrees_replayed: u64,
    /// Full walks: no cache entry yet.
    pub full_cold: u64,
    /// Full walks: the root changed.
    pub full_root_changed: u64,
    /// Full walks: the write log could not answer (disabled or trimmed).
    pub full_log_unavailable: u64,
    /// Full walks: dirty ratio above threshold.
    pub full_dirty_ratio: u64,
    /// Full walks: a replayed subtree reported an anomaly or reached a
    /// table page located outside its span.
    pub full_anomaly: u64,
}

impl CacheStats {
    /// Total requests resolved.
    pub fn requests(&self) -> u64 {
        self.clean_hits
            + self.incremental
            + self.full_cold
            + self.full_root_changed
            + self.full_log_unavailable
            + self.full_dirty_ratio
            + self.full_anomaly
    }

    /// Total full walks taken.
    pub fn full_walks(&self) -> u64 {
        self.full_cold
            + self.full_root_changed
            + self.full_log_unavailable
            + self.full_dirty_ratio
            + self.full_anomaly
    }
}

struct CacheEntry {
    root: PhysAddr,
    stage: Stage,
    /// Write-log snapshot taken before the walk that produced `interp`.
    gen: u64,
    interp: AbstractPgtable,
    meta: TableMeta,
    /// The host partition of `interp` (host entry only), kept once its
    /// legality check found nothing; every change to `interp` drops it.
    host: Option<GhostHost>,
}

/// The per-oracle incremental abstraction cache.
#[derive(Default)]
pub struct AbsCache {
    entries: HashMap<Component, CacheEntry>,
    /// Resolution counters (exposed for benches, tests and reports).
    pub stats: CacheStats,
}

impl AbsCache {
    /// An empty cache.
    pub fn new() -> AbsCache {
        AbsCache::default()
    }

    /// Drops every cached interpretation (e.g. when a VM is torn down its
    /// entry must not survive handle reuse).
    pub fn invalidate(&mut self, key: Component) {
        self.entries.remove(&key);
    }

    /// Drops cached VM interpretations whose handle fails `live` — called
    /// when the VM table is observed, so torn-down VMs do not keep their
    /// (now dangling) interpretations resident.
    pub fn retain_vms(&mut self, live: impl Fn(u32) -> bool) {
        self.entries.retain(|k, _| match k {
            Component::Vm(h) => live(*h),
            _ => true,
        });
    }

    /// Interprets the table rooted at `root`, reusing the cached
    /// interpretation for `key` where the write log proves it still
    /// valid. Appends anomalies exactly as [`interpret_pgtable`] would.
    ///
    /// [`interpret_pgtable`]: crate::abstraction::interpret_pgtable
    pub fn interp(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
    ) -> AbstractPgtable {
        match self.resolve(mem, stage, root, key, anomalies) {
            Served::Entry(e) => e.interp.clone(),
            Served::Uncached(interp) => interp,
        }
    }

    /// The host's abstraction ([`abstract_host`]) over the cached
    /// interpretation of the host stage 2 rooted at `root`. Appends
    /// anomalies exactly as [`abstract_host`] would. While the
    /// interpretation is served unchanged, the partition that last checked
    /// clean is returned as is, sharing its mappings' storage; a partition
    /// that reported anomalies is never kept, so its check reruns (and
    /// re-reports) on every event. `globals` must be the same on every
    /// call.
    ///
    /// [`abstract_host`]: crate::abstraction::abstract_host
    pub fn host(
        &mut self,
        mem: &PhysMem,
        root: PhysAddr,
        globals: &GhostGlobals,
        anomalies: &mut Vec<Anomaly>,
    ) -> GhostHost {
        let e = match self.resolve(mem, Stage::Stage2, root, Component::Host, anomalies) {
            Served::Entry(e) => e,
            Served::Uncached(interp) => {
                return abstract_host_from_interp(&interp, globals, anomalies)
            }
        };
        if let Some(host) = &e.host {
            return host.clone();
        }
        let before = anomalies.len();
        let host = abstract_host_from_interp(&e.interp, globals, anomalies);
        if anomalies.len() == before {
            e.host = Some(host.clone());
        }
        host
    }

    /// Brings the entry for `key` up to date with the table rooted at
    /// `root`, or reports the state uncacheable.
    fn resolve(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        anomalies: &mut Vec<Anomaly>,
    ) -> Served<'_> {
        // Snapshot before reading any table state: writes racing with
        // this interpretation will be at or after `snap` and therefore
        // re-reported by the next dirty_since query.
        let snap = mem.write_log().snapshot_generation();
        // The entry leaves the map while it is brought up to date, so a
        // (contained) panic part-way through a replay cannot leave a
        // half-spliced entry behind: the next request walks cold.
        let reason = match self.entries.remove(&key) {
            None => FullReason::Cold,
            Some(mut e) => match e.plan(mem, stage, root) {
                Plan::Clean => {
                    self.stats.clean_hits += 1;
                    return self.keep(key, e, snap);
                }
                Plan::Replay(subtrees) => {
                    if e.replay(mem, &subtrees) {
                        self.stats.incremental += 1;
                        self.stats.subtrees_replayed += subtrees.len() as u64;
                        return self.keep(key, e, snap);
                    }
                    // A replayed subtree was anomalous or aliased; take
                    // the full walk so anomalies are reported once,
                    // coherently.
                    FullReason::Anomaly
                }
                Plan::Full(reason) => reason,
            },
        };
        *match reason {
            FullReason::Cold => &mut self.stats.full_cold,
            FullReason::RootChanged => &mut self.stats.full_root_changed,
            FullReason::LogUnavailable => &mut self.stats.full_log_unavailable,
            FullReason::DirtyRatio => &mut self.stats.full_dirty_ratio,
            FullReason::Anomaly => &mut self.stats.full_anomaly,
        } += 1;
        let before = anomalies.len();
        let (interp, meta) = interpret_subtree(mem, stage, root, START_LEVEL, 0, anomalies);
        match meta {
            Some(meta) if anomalies.len() == before => {
                let e = CacheEntry {
                    root,
                    stage,
                    gen: snap,
                    interp,
                    meta,
                    host: None,
                };
                self.keep(key, e, snap)
            }
            // Never cache anomalous or aliased states: every event over
            // them must re-walk and re-report, like the non-incremental
            // oracle.
            _ => Served::Uncached(interp),
        }
    }

    /// Files `e`, current as of write-log snapshot `snap`, under `key`.
    fn keep(&mut self, key: Component, mut e: CacheEntry, snap: u64) -> Served<'_> {
        e.gen = snap;
        Served::Entry(self.entries.entry(key).insert_entry(e).into_mut())
    }
}

impl CacheEntry {
    fn plan(&self, mem: &PhysMem, stage: Stage, root: PhysAddr) -> Plan {
        if self.root != root || self.stage != stage {
            return Plan::Full(FullReason::RootChanged);
        }
        let Some(dirty) = mem.write_log().dirty_since(self.gen) else {
            return Plan::Full(FullReason::LogUnavailable);
        };
        // Only writes to pages that were table nodes can change the
        // interpretation; everything else is data.
        let mut dirty_tables: Vec<(u64, u8, u64)> = dirty
            .iter()
            .filter_map(|pfn| self.meta.get(pfn).map(|&(level, ia)| (*pfn, level, ia)))
            .collect();
        if dirty_tables.is_empty() {
            return Plan::Clean;
        }
        if dirty_tables.len() * DIRTY_RATIO_DEN > self.meta.len() {
            return Plan::Full(FullReason::DirtyRatio);
        }
        // Keep only the shallowest dirty nodes: a dirty node inside
        // another dirty node's span is covered by replaying the ancestor
        // (and a *stale* node — freed and reused — is always covered by
        // the ancestor whose PTE write unlinked it).
        dirty_tables.sort_by_key(|&(_, level, ia)| (level, ia));
        let mut kept: Vec<(u64, u8, u64)> = Vec::with_capacity(dirty_tables.len());
        for &(pfn, level, ia) in &dirty_tables {
            if !kept
                .iter()
                .any(|&(_, klevel, kia)| within(klevel, kia, level, ia))
            {
                kept.push((pfn, level, ia));
            }
        }
        Plan::Replay(kept)
    }

    /// Replays `subtrees` (disjoint spans) into this entry. `false` leaves
    /// the entry unusable: a subtree was anomalous, or reached a table
    /// page already located elsewhere in the tree.
    fn replay(&mut self, mem: &PhysMem, subtrees: &[(u64, u8, u64)]) -> bool {
        // Forget every node inside a replayed span first: what remains
        // still sits where it was (neither it nor any ancestor is dirty),
        // so a replayed node found among it is reachable twice.
        self.meta.retain(|_, &mut (level, ia)| {
            !subtrees
                .iter()
                .any(|&(_, slevel, sia)| within(slevel, sia, level, ia))
        });
        for &(pfn, level, ia_base) in subtrees {
            let mut sub_anomalies = Vec::new();
            let (sub, sub_meta) = interpret_subtree(
                mem,
                self.stage,
                PhysAddr::new(pfn * PAGE_SIZE),
                level,
                ia_base,
                &mut sub_anomalies,
            );
            let Some(sub_meta) = sub_meta else {
                return false;
            };
            if !sub_anomalies.is_empty() {
                return false;
            }
            for (node, loc) in sub_meta {
                if self.meta.insert(node, loc).is_some() {
                    return false;
                }
            }
            // Splice the subtree's extension over its span.
            self.interp.mapping.splice(
                ia_base,
                table_span_pages(level),
                sub.mapping.iter().copied(),
            );
        }
        self.interp.table_pages = self.meta.keys().copied().collect();
        self.host = None;
        true
    }
}

/// `true` if the node at `(level, ia)` lies in the span of the node at
/// `(at_level, at_ia)`, the node itself included.
fn within(at_level: u8, at_ia: u64, level: u8, ia: u64) -> bool {
    level >= at_level && ia >= at_ia && ia - at_ia < table_span_pages(at_level) * PAGE_SIZE
}

/// Where a resolved request's interpretation lives.
enum Served<'a> {
    /// In the (up to date) cache entry.
    Entry(&'a mut CacheEntry),
    /// Nowhere: the state is anomalous or aliased, and is not cached.
    Uncached(AbstractPgtable),
}

enum Plan {
    Clean,
    Replay(Vec<(u64, u8, u64)>),
    Full(FullReason),
}

enum FullReason {
    Cold,
    RootChanged,
    LogUnavailable,
    DirtyRatio,
    Anomaly,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{abstract_host, interpret_pgtable};
    use pkvm_aarch64::attrs::{Attrs, Perms};
    use pkvm_aarch64::desc::Pte;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_hyp::owner::{annotation_pte, OwnerId, PageState};

    fn mem() -> PhysMem {
        let m = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x800_0000)]);
        m.write_log().set_enabled(true);
        m
    }

    fn leaf(oa: u64) -> Pte {
        Pte::leaf(
            Stage::Stage2,
            3,
            PhysAddr::new(oa),
            Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw()),
        )
    }

    /// root -> l1 -> l2 -> l3 with two pages mapped.
    fn build(m: &PhysMem) -> PhysAddr {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        m.write_pte(root, 0, Pte::table(l1)).unwrap();
        m.write_pte(l1, 0, Pte::table(l2)).unwrap();
        m.write_pte(l2, 0, Pte::table(l3)).unwrap();
        m.write_pte(l3, 0, leaf(0x4200_0000)).unwrap();
        m.write_pte(l3, 1, leaf(0x4200_1000)).unwrap();
        root
    }

    fn check_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) {
        let mut a1 = Vec::new();
        let inc = cache.interp(m, Stage::Stage2, root, Component::Host, &mut a1);
        let mut a2 = Vec::new();
        let full = interpret_pgtable(m, Stage::Stage2, root, &mut a2);
        assert_eq!(inc, full);
        assert_eq!(a1, a2);
    }

    #[test]
    fn clean_reuse_after_data_writes() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 1);
        // Data writes (not table pages) must not force any re-walk.
        m.write_u64(PhysAddr::new(0x4200_0000), 77).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.clean_hits, 1);
        assert_eq!(cache.stats.incremental, 0);
    }

    #[test]
    fn pte_write_replays_one_subtree() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Change a leaf: only the l3 subtree should replay.
        m.write_pte(PhysAddr::new(0x4400_3000), 2, leaf(0x4200_2000))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert_eq!(cache.stats.subtrees_replayed, 1);
        // Unmap one: replay again.
        m.write_pte(PhysAddr::new(0x4400_3000), 0, Pte(0)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 2);
    }

    #[test]
    fn nested_dirty_tables_replay_the_ancestor_once() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Dirty both l2 (link a second l3) and the new l3's contents.
        let l3b = PhysAddr::new(0x4400_4000);
        m.write_pte(l3b, 0, leaf(0x4200_4000)).unwrap();
        m.write_pte(PhysAddr::new(0x4400_2000), 1, Pte::table(l3b))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        // l3b was not in the cached footprint, so only l2 replays.
        assert_eq!(cache.stats.subtrees_replayed, 1);
    }

    #[test]
    fn unlink_and_reuse_of_a_table_page_is_covered_by_the_parent() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        // Unlink l3 from l2 and scribble garbage over the freed page (as
        // a reused data page would).
        m.write_pte(l2, 0, Pte(0)).unwrap();
        m.write_u64(l3, 0xdead_beef).unwrap();
        check_agrees(&mut cache, &m, root);
        // The stale l3 must not have been replayed as a subtree.
        let mut a = Vec::new();
        let now = cache.interp(&m, Stage::Stage2, root, Component::Host, &mut a);
        assert!(!now.table_pages.contains(&l3.pfn()));
    }

    #[test]
    fn root_change_falls_back_to_full_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        let root2 = PhysAddr::new(0x4500_0000);
        m.write_pte(root2, 0, annotation_pte(OwnerId::HYP)).unwrap();
        let mut a = Vec::new();
        cache.interp(&m, Stage::Stage2, root2, Component::Host, &mut a);
        assert_eq!(cache.stats.full_root_changed, 1);
        check_agrees(&mut cache, &m, root2);
    }

    #[test]
    fn log_unavailable_falls_back_to_full_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        m.write_log().set_enabled(false);
        m.write_log().set_enabled(true);
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_log_unavailable, 1);
    }

    #[test]
    fn anomalous_states_are_never_cached() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Introduce a reserved descriptor (0b01 at level 3) through a
        // tracked table page.
        m.write_pte(PhysAddr::new(0x4400_3000), 3, Pte(0b01))
            .unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_anomaly, 1);
        // Still anomalous: must full-walk (and re-report) again, not hit.
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 2);
        assert_eq!(cache.stats.clean_hits, 0);
    }

    /// root -> l1 -> {l2a, l2b}, each l2 linking its own l3 at index 0.
    fn build_two_l2s(m: &PhysMem) -> (PhysAddr, [PhysAddr; 4]) {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let [l2a, l2b, l3a, l3b] =
            [0x4400_2000, 0x4400_3000, 0x4400_4000, 0x4400_5000].map(PhysAddr::new);
        m.write_pte(root, 0, Pte::table(l1)).unwrap();
        m.write_pte(l1, 0, Pte::table(l2a)).unwrap();
        m.write_pte(l1, 1, Pte::table(l2b)).unwrap();
        m.write_pte(l2a, 0, Pte::table(l3a)).unwrap();
        m.write_pte(l2b, 0, Pte::table(l3b)).unwrap();
        m.write_pte(l3a, 0, leaf(0x4200_0000)).unwrap();
        m.write_pte(l3b, 0, leaf(0x4300_0000)).unwrap();
        (root, [l2a, l2b, l3a, l3b])
    }

    #[test]
    fn a_table_page_reachable_twice_is_never_cached() {
        let m = mem();
        let (root, [_, l2b, l3a, _]) = build_two_l2s(&m);
        // Both l2 nodes point at the same l3: one page, two spans.
        m.write_pte(l2b, 0, Pte::table(l3a)).unwrap();
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // A write to the aliased node changes both spans.
        m.write_pte(l3a, 1, leaf(0x4200_1000)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 2, "{:?}", cache.stats);
        assert_eq!(cache.stats.clean_hits + cache.stats.incremental, 0);
    }

    #[test]
    fn a_replay_that_reaches_a_page_located_elsewhere_walks_in_full() {
        let m = mem();
        let (root, [_, l2b, l3a, _]) = build_two_l2s(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // Relink l2b to l3a: the l2b replay reaches a node the cache
        // located under l2a.
        m.write_pte(l2b, 0, Pte::table(l3a)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_anomaly, 1, "{:?}", cache.stats);
        m.write_pte(l3a, 1, leaf(0x4200_1000)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.clean_hits + cache.stats.incremental, 0);
        // Unlinking the alias makes the state cacheable again.
        m.write_pte(l2b, 0, Pte(0)).unwrap();
        check_agrees(&mut cache, &m, root);
        m.write_pte(l3a, 2, leaf(0x4200_2000)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1, "{:?}", cache.stats);
    }

    fn globals() -> GhostGlobals {
        GhostGlobals {
            ram: vec![(0x4000_0000, 0x800_0000)],
            ..GhostGlobals::default()
        }
    }

    fn host_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) -> (GhostHost, usize) {
        let mut a1 = Vec::new();
        let served = cache.host(m, root, &globals(), &mut a1);
        let mut a2 = Vec::new();
        let full = abstract_host(m, root, &globals(), &mut a2);
        assert_eq!(served, full);
        assert_eq!(a1, a2);
        (served, a1.len())
    }

    /// A legal host table: root -> l1 -> l2 -> l3 over ia 0x4000_0000,
    /// with two identity-mapped owned pages, a shared page and a guest
    /// annotation.
    fn build_host(m: &PhysMem) -> PhysAddr {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        m.write_pte(root, 0, Pte::table(l1)).unwrap();
        m.write_pte(l1, 1, Pte::table(l2)).unwrap();
        m.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        let shared = Attrs::normal(Perms::RWX).with_sw(PageState::SharedOwned.to_sw());
        for (idx, attrs) in [(0, owned), (1, owned), (4, shared)] {
            let oa = PhysAddr::new(0x4000_0000 + idx as u64 * PAGE_SIZE);
            m.write_pte(l3, idx, Pte::leaf(Stage::Stage2, 3, oa, attrs))
                .unwrap();
        }
        m.write_pte(l3, 5, annotation_pte(OwnerId::guest(0)))
            .unwrap();
        root
    }

    fn shares(a: &GhostHost, b: &GhostHost) -> bool {
        a.annot.shares_storage(&b.annot) && a.shared.shares_storage(&b.shared)
    }

    #[test]
    fn a_clean_hit_serves_the_host_partition_with_shared_storage() {
        let m = mem();
        let root = build_host(&m);
        let mut cache = AbsCache::new();
        let (first, _) = host_agrees(&mut cache, &m, root);
        assert!(!first.annot.is_empty() && !first.shared.is_empty());
        m.write_u64(PhysAddr::new(0x4200_0000), 77).unwrap();
        let (second, _) = host_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.clean_hits, 1);
        assert!(shares(&first, &second));
    }

    #[test]
    fn a_replay_or_a_root_change_drops_the_host_memo() {
        let m = mem();
        let root = build_host(&m);
        let mut cache = AbsCache::new();
        let (first, _) = host_agrees(&mut cache, &m, root);
        m.write_pte(PhysAddr::new(0x4400_3000), 6, annotation_pte(OwnerId::HYP))
            .unwrap();
        let (second, _) = host_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert!(!shares(&first, &second));
        let (third, _) = host_agrees(&mut cache, &m, root);
        assert!(shares(&second, &third));
        // The same tables under a new root: a full walk, a new partition.
        let root2 = PhysAddr::new(0x4500_0000);
        m.write_pte(root2, 0, Pte::table(PhysAddr::new(0x4400_1000)))
            .unwrap();
        let (fourth, _) = host_agrees(&mut cache, &m, root2);
        assert_eq!(cache.stats.full_root_changed, 1);
        assert_eq!(
            (&fourth.annot, &fourth.shared),
            (&third.annot, &third.shared)
        );
        assert!(!shares(&third, &fourth));
    }

    #[test]
    fn an_anomalous_host_partition_is_rechecked_on_every_event() {
        let m = mem();
        let root = build_host(&m);
        // A host-owned page mapped at a different address: the
        // interpretation is clean and cached, its partition is not.
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        m.write_pte(
            PhysAddr::new(0x4400_3000),
            8,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4300_0000), owned),
        )
        .unwrap();
        let mut cache = AbsCache::new();
        for _ in 0..3 {
            let (_, reported) = host_agrees(&mut cache, &m, root);
            assert_eq!(reported, 1);
        }
        assert_eq!(cache.stats.clean_hits, 2);
    }

    #[test]
    fn invalidate_forces_cold_walk() {
        let m = mem();
        let root = build(&m);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        cache.invalidate(Component::Host);
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.full_cold, 2);
    }
}
