//! Incremental abstraction: caching page-table interpretations between
//! lock events and re-interpreting only the descriptors that changed.
//!
//! Full interpretation ([`interpret_pgtable`]) walks the entire tree at
//! every lock acquisition *and* release — the dominant per-event cost of
//! the oracle (§4, Fig. 6 steps (2)–(5)) — even when the critical section
//! wrote a handful of descriptors. This module keeps, per component, the
//! last interpretation keyed by `(root, write-log generation)` together
//! with every table node it read: where the node sits in the tree, and its
//! 512 descriptors as read (the page copy [`PhysMem::read_table`] makes
//! for the walk anyway, kept: 4 KiB per cached table node). On the next
//! event it
//!
//! 1. asks the [`WriteLog`](pkvm_aarch64::memory::WriteLog) which pages
//!    were written since the cached snapshot;
//! 2. intersects them with the cached table nodes — writes to non-table
//!    pages cannot change the interpretation;
//! 3. diffs each dirty node against its kept descriptors, shallowest
//!    first, and re-interprets only the runs of changed entries, splicing
//!    each run's maplets over the run's own span of the cached map
//!    ([`Mapping::splice`]); a changed table entry forgets the subtree
//!    below its old value and walks the one below its new value;
//! 4. falls back to a full walk when the root moved, the log was trimmed,
//!    the dirty ratio is high, or a re-interpreted run reports an anomaly
//!    or reaches a table page filed elsewhere in the tree.
//!
//! For the host it also memoizes the partition and legality check
//! ([`abstract_host_from_interp`]) against the cached interpretation. A
//! clean hit hands back the previous [`GhostHost`] itself, whose mappings
//! share storage with every copy the checks already hold. A replay
//! partitions and checks only the ranges it rewrote and splices the
//! results into the memo; if that delta finds anything, the memo is
//! dropped and the whole check reruns, so anomalies are still reported
//! in address order and an anomalous partition is never memoized.
//!
//! ## Why entry-level replay is sound
//!
//! The cached snapshot generation is taken *before* any descriptor is
//! read, so a write racing with a read is re-reported next time (the log
//! over-approximates): a node the log does not name still holds the
//! descriptors kept for it, and the cached map is the interpretation of
//! exactly the kept descriptors. Each input address is translated along
//! one path of entries from the root, so an entry's span of the map
//! depends on that entry's subtree alone, and splicing the
//! re-interpretation of the changed entries over their spans updates the
//! map exactly. A node joins or leaves the tree only by a write to an
//! entry of its parent. Diffing shallowest first, every changed table
//! entry forgets its old subtree — dirty nodes in it included, which are
//! then skipped, whatever was scribbled over their pages — before any
//! new subtree is walked; so a dirty node still filed when its turn
//! comes is linked at its cached place by unchanged entries, and must be
//! diffed on its own, even under a dirty ancestor. That argument needs
//! each table page to sit at one place in the tree: a page reachable
//! from two descriptors (a double-allocated table page, a corrupted
//! descriptor) has two spans, and a write to it would replay only one.
//! Such aliased states, like anomalous ones, are never cached: every
//! event over them takes the full walk and re-reports the anomalies,
//! exactly like the non-incremental oracle.
//!
//! [`interpret_pgtable`]: crate::abstraction::interpret_pgtable
//! [`Mapping::splice`]: crate::mapping::Mapping::splice

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use pkvm_aarch64::addr::{level_pages, PhysAddr, PAGE_SIZE, PTES_PER_TABLE};
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::desc::{EntryKind, Pte};
use pkvm_aarch64::memory::PhysMem;
use pkvm_hyp::hooks::Component;

use crate::abstraction::{
    abstract_host_from_interp, interpret_tree, partition_host, Anomaly, Nodes, Walk,
};
use crate::maplet::Maplet;
use crate::state::{AbstractPgtable, GhostGlobals, GhostHost};

/// If more than one table in `4^-1` of the footprint is dirty, replaying
/// entries stops paying; take the full walk.
const DIRTY_RATIO_DEN: usize = 4;

/// Counters describing how the cache resolved requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served unchanged (no dirty table pages).
    pub clean_hits: u64,
    /// Served by replaying the changed entries of dirty table nodes into
    /// the cached map.
    pub incremental: u64,
    /// Dirty table nodes brought up to date (diffed against their kept
    /// descriptors) across all incremental serves.
    pub subtrees_replayed: u64,
    /// Full walks: no cache entry yet.
    pub full_cold: u64,
    /// Full walks: the root changed.
    pub full_root_changed: u64,
    /// Full walks: the write log could not answer (disabled or trimmed).
    pub full_log_unavailable: u64,
    /// Full walks: dirty ratio above threshold.
    pub full_dirty_ratio: u64,
    /// Full walks: a re-interpreted run reported an anomaly or reached a
    /// table page filed elsewhere in the tree.
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
    /// Every table node of `interp`, with the descriptors it was
    /// interpreted from.
    nodes: Nodes,
    /// The host partition of `interp` (host entry only), kept while its
    /// legality check finds nothing; a replay splices its delta in.
    host: Option<GhostHost>,
}

/// The per-oracle incremental abstraction cache.
#[derive(Default)]
pub struct AbsCache {
    entries: HashMap<Component, CacheEntry>,
    buffers: Buffers,
    /// Resolution counters (exposed for benches, tests and reports).
    pub stats: CacheStats,
}

/// The buffers a request works in, kept from one request to the next so
/// that resolving allocates only what a replay must: the storage a
/// copy-on-write splice creates and the nodes it newly links.
struct Buffers {
    /// Dirty table nodes as `(level, ia, pfn)`, shallowest first.
    dirty: Vec<(u8, u64, u64)>,
    runs: Vec<Run>,
    /// The new descriptors of every run, back to back.
    changed: Vec<Pte>,
    /// A dirty node's descriptors before the re-read: the node takes the
    /// buffer the re-read filled, and this one takes the node's old one.
    ptes: Box<[Pte; PTES_PER_TABLE as usize]>,
    /// A run's re-interpretation.
    maplets: Vec<Maplet>,
    /// The host partition of a run's re-interpretation.
    partition: Partition,
    /// The rewritten window of a splice.
    window: Vec<Maplet>,
}

/// The outputs of [`partition_host`].
#[derive(Default)]
struct Partition {
    annot: Vec<Maplet>,
    shared: Vec<Maplet>,
    found: Vec<Anomaly>,
}

impl Default for Buffers {
    fn default() -> Buffers {
        Buffers {
            dirty: Vec::new(),
            runs: Vec::new(),
            changed: Vec::new(),
            ptes: Box::new([Pte(0); PTES_PER_TABLE as usize]),
            maplets: Vec::new(),
            partition: Partition::default(),
            window: Vec::new(),
        }
    }
}

impl AbsCache {
    /// An empty cache.
    pub fn new() -> AbsCache {
        AbsCache::default()
    }

    /// Drops cached VM interpretations whose handle fails `live` — called
    /// when the VM table is observed, so torn-down VMs do not keep their
    /// (now dangling) interpretations resident. A reused handle starts
    /// over with a full walk.
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
        match self.resolve(mem, stage, root, key, None, anomalies) {
            Ok(e) => e.interp.clone(),
            Err(interp) => interp,
        }
    }

    /// The host's abstraction ([`abstract_host`]) over the cached
    /// interpretation of the host stage 2 rooted at `root`. Appends
    /// anomalies exactly as [`abstract_host`] would. While the
    /// interpretation is served unchanged, the partition that last checked
    /// clean is returned as is, sharing its mappings' storage; a replay
    /// updates it over the ranges it rewrote. A partition that reported
    /// anomalies is never kept, so its check reruns (and re-reports) on
    /// every event. `globals` must be the same on every call.
    ///
    /// [`abstract_host`]: crate::abstraction::abstract_host
    pub fn host(
        &mut self,
        mem: &PhysMem,
        root: PhysAddr,
        globals: &GhostGlobals,
        anomalies: &mut Vec<Anomaly>,
    ) -> GhostHost {
        let key = Component::Host;
        let e = match self.resolve(mem, Stage::Stage2, root, key, Some(globals), anomalies) {
            Ok(e) => e,
            Err(interp) => return abstract_host_from_interp(&interp, globals, anomalies),
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
    /// `root` and returns it; `Err` holds the interpretation of a state
    /// that is not cached. A host memo follows a replay only given the
    /// `globals` it is checked against.
    fn resolve(
        &mut self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        key: Component,
        globals: Option<&GhostGlobals>,
        anomalies: &mut Vec<Anomaly>,
    ) -> Result<&mut CacheEntry, AbstractPgtable> {
        // Snapshot before reading any table state: writes racing with
        // this interpretation will be at or after `snap` and therefore
        // re-reported by the next dirty-page query.
        let snap = mem.write_log().snapshot_generation();
        // The entry leaves the map while it is brought up to date, so a
        // (contained) panic part-way through a replay cannot leave a
        // half-spliced entry behind: the next request walks cold.
        let reason = match self.entries.remove(&key) {
            None => FullReason::Cold,
            Some(mut e) => match e.plan(mem, stage, root, &mut self.buffers.dirty) {
                Plan::Clean => {
                    self.stats.clean_hits += 1;
                    e.gen = snap;
                    return Ok(self.entries.entry(key).or_insert(e));
                }
                Plan::Replay => {
                    if let Some(diffed) = e.replay(mem, globals, &mut self.buffers) {
                        self.stats.incremental += 1;
                        self.stats.subtrees_replayed += diffed;
                        e.gen = snap;
                        return Ok(self.entries.entry(key).or_insert(e));
                    }
                    // A re-interpreted run was anomalous or aliased; take
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
        let (interp, nodes) = interpret_tree(mem, stage, root, anomalies);
        match nodes {
            Some(nodes) if anomalies.len() == before => {
                let e = CacheEntry {
                    root,
                    stage,
                    gen: snap,
                    interp,
                    nodes,
                    host: None,
                };
                Ok(self.entries.entry(key).or_insert(e))
            }
            // Never cache anomalous or aliased states: every event over
            // them must re-walk and re-report, like the non-incremental
            // oracle.
            _ => Err(interp),
        }
    }
}

impl CacheEntry {
    /// Decides how to bring this entry up to date; for a replay, leaves
    /// the dirty table nodes in `dirty`, shallowest first.
    fn plan(
        &self,
        mem: &PhysMem,
        stage: Stage,
        root: PhysAddr,
        dirty: &mut Vec<(u8, u64, u64)>,
    ) -> Plan {
        if self.root != root || self.stage != stage {
            return Plan::Full(FullReason::RootChanged);
        }
        // Only writes to pages that were table nodes can change the
        // interpretation; everything else is data.
        dirty.clear();
        let answered = mem.write_log().for_each_dirty_since(self.gen, |pfn| {
            if let Some(n) = self.nodes.get(&pfn) {
                dirty.push((n.level, n.ia, pfn));
            }
        });
        if !answered {
            return Plan::Full(FullReason::LogUnavailable);
        }
        if dirty.is_empty() {
            return Plan::Clean;
        }
        // Shallowest first: a node's parent is diffed before the node. A
        // page written in several generations is named once per
        // generation.
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.len() * DIRTY_RATIO_DEN > self.nodes.len() {
            return Plan::Full(FullReason::DirtyRatio);
        }
        Plan::Replay
    }

    /// Brings this entry up to date with the dirty table nodes in
    /// `s.dirty` (`(level, ia, pfn)`, shallowest first), returning how
    /// many were still in the tree and got diffed. `None` leaves the
    /// entry unusable: a re-interpreted run was anomalous, or reached a
    /// table page already filed elsewhere in the tree.
    fn replay(
        &mut self,
        mem: &PhysMem,
        globals: Option<&GhostGlobals>,
        s: &mut Buffers,
    ) -> Option<u64> {
        // Diff every dirty node before walking anything, so that a table
        // page unlinked here and linked there is forgotten at its old
        // place before the walk reaches it at its new one.
        s.runs.clear();
        s.changed.clear();
        // A table entry changed, so the footprint may have.
        let mut relinked = false;
        let mut diffed = 0;
        for &(level, ia, pfn) in &s.dirty {
            // Gone if a changed entry above it was forgotten already.
            let Some(node) = self.nodes.get_mut(&pfn) else {
                continue;
            };
            diffed += 1;
            let table = PhysAddr::from_pfn(pfn);
            mem.read_table_into(table, &mut s.ptes).ok()?;
            std::mem::swap(&mut node.ptes, &mut s.ptes);
            let old = &s.ptes;
            let first_run = s.runs.len();
            for span in changed_runs(&old[..], &node.ptes[..]) {
                let new = &node.ptes[span.clone()];
                s.runs.push(Run {
                    table,
                    level,
                    node_ia: ia,
                    first: span.start,
                    ptes: s.changed.len()..s.changed.len() + new.len(),
                });
                s.changed.extend_from_slice(new);
                relinked |= new.iter().any(|pte| is_table(*pte, level));
            }
            for run in &s.runs[first_run..] {
                for &pte in &old[run.first..run.first + run.ptes.len()] {
                    if is_table(pte, level) {
                        forget(&mut self.nodes, pte.table_addr().pfn());
                        relinked = true;
                    }
                }
            }
        }
        let mut anomalies = Vec::new();
        let mut walk = Walk::new(mem, self.stage, &mut self.nodes, &mut anomalies);
        walk.maplets = std::mem::take(&mut s.maplets);
        for run in &s.runs {
            let ptes = &s.changed[run.ptes.clone()];
            walk.entries(run.table, run.level, run.node_ia, run.first, ptes);
            if walk.aliased || !walk.anomalies.is_empty() {
                return None;
            }
            let entry_pages = level_pages(run.level);
            let ia = run.node_ia | (run.first as u64 * entry_pages * PAGE_SIZE);
            let nr_pages = run.ptes.len() as u64 * entry_pages;
            let host = &mut self.host;
            splice_host(
                host,
                globals,
                ia,
                nr_pages,
                &walk.maplets,
                &mut s.partition,
                &mut s.window,
            );
            self.interp
                .mapping
                .splice_using(ia, nr_pages, walk.maplets.drain(..), &mut s.window);
        }
        s.maplets = std::mem::take(&mut walk.maplets);
        if relinked {
            self.interp.table_pages = Arc::new(self.nodes.keys().copied().collect());
            if let Some(host) = &mut self.host {
                host.table_pages = self.interp.table_pages.clone();
            }
        }
        Some(diffed)
    }
}

/// A run of changed entries of one table node, due for re-interpretation.
struct Run {
    table: PhysAddr,
    level: u8,
    /// Input address of the node's first entry.
    node_ia: u64,
    /// Index of the run's first entry in the node.
    first: usize,
    /// Where the run's new descriptors sit in the replay's buffer.
    ptes: Range<usize>,
}

/// Descriptors a diff compares at once: an aligned block this long that
/// is equal throughout is skipped with one OR-reduction.
const DIFF_BLOCK: usize = 8;

/// The maximal runs of indices at which `old` and `new` (equally long)
/// differ. Most of a dirty node is unchanged, so the search for a run's
/// start skips equal blocks of [`DIFF_BLOCK`] descriptors whole.
fn changed_runs<'p>(old: &'p [Pte], new: &'p [Pte]) -> impl Iterator<Item = Range<usize>> + 'p {
    let n = old.len();
    let block_equal = move |i: usize| {
        let (a, b) = (&old[i..i + DIFF_BLOCK], &new[i..i + DIFF_BLOCK]);
        a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x.0 ^ y.0)) == 0
    };
    let mut at = 0;
    std::iter::from_fn(move || {
        let mut start = at;
        loop {
            if start == n {
                at = n;
                return None;
            }
            if start % DIFF_BLOCK == 0 && start + DIFF_BLOCK <= n && block_equal(start) {
                start += DIFF_BLOCK;
            } else if old[start] == new[start] {
                start += 1;
            } else {
                break;
            }
        }
        at = (start..n).find(|&i| old[i] == new[i]).unwrap_or(n);
        Some(start..at)
    })
}

fn is_table(pte: Pte, level: u8) -> bool {
    matches!(pte.kind(level), EntryKind::Table)
}

/// Drops the node `pfn` and every node below it from `nodes`.
fn forget(nodes: &mut Nodes, pfn: u64) {
    if let Some(node) = nodes.remove(&pfn) {
        for &pte in node.ptes.iter() {
            if is_table(pte, node.level) {
                forget(nodes, pte.table_addr().pfn());
            }
        }
    }
}

/// Splices the host partition of `maplets`, the new interpretation of
/// `[ia, ia + nr_pages)`, into the memo, partitioning into `p` and
/// splicing through `window`. The memo is dropped instead if the delta's
/// legality check finds anything (the whole check then reruns, reporting
/// in address order) or there are no `globals` to check it against.
fn splice_host(
    memo: &mut Option<GhostHost>,
    globals: Option<&GhostGlobals>,
    ia: u64,
    nr_pages: u64,
    maplets: &[Maplet],
    p: &mut Partition,
    window: &mut Vec<Maplet>,
) {
    let Some(host) = memo else {
        return;
    };
    if let Some(globals) = globals {
        p.annot.clear();
        p.shared.clear();
        p.found.clear();
        partition_host(maplets, globals, &mut p.annot, &mut p.shared, &mut p.found);
        if p.found.is_empty() {
            host.annot
                .splice_using(ia, nr_pages, p.annot.drain(..), window);
            host.shared
                .splice_using(ia, nr_pages, p.shared.drain(..), window);
            return;
        }
    }
    *memo = None;
}

enum Plan {
    Clean,
    /// Replay the dirty nodes the plan left in the cache's buffers.
    Replay,
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

    fn interp(
        cache: &mut AbsCache,
        m: &PhysMem,
        root: PhysAddr,
        a: &mut Vec<Anomaly>,
    ) -> AbstractPgtable {
        cache.interp(m, Stage::Stage2, root, Component::Host, a)
    }

    fn check_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) {
        let mut a1 = Vec::new();
        let inc = interp(cache, m, root, &mut a1);
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
        let now = interp(&mut cache, &m, root, &mut Vec::new());
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

    fn host(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr, a: &mut Vec<Anomaly>) -> GhostHost {
        cache.host(m, root, &globals(), a)
    }

    fn host_agrees(cache: &mut AbsCache, m: &PhysMem, root: PhysAddr) -> (GhostHost, usize) {
        let mut a1 = Vec::new();
        let served = host(cache, m, root, &mut a1);
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
    fn a_replay_updates_the_host_memo_and_a_root_change_rebuilds_it() {
        let m = mem();
        let root = build_host(&m);
        let mut cache = AbsCache::new();
        let (first, _) = host_agrees(&mut cache, &m, root);
        // A new annotation: the replay splices it into the memo, which
        // the next clean hit serves as is.
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

    /// Links six empty level-3 nodes under `l2` (entries 16..22), so a
    /// test can dirty two nodes without crossing the dirty ratio.
    fn widen(m: &PhysMem, l2: PhysAddr) {
        for i in 0..6 {
            let l3 = PhysAddr::new(0x4401_0000 + i as u64 * PAGE_SIZE);
            m.write_pte(l2, 16 + i, Pte::table(l3)).unwrap();
        }
    }

    #[test]
    fn a_dirty_node_under_an_unchanged_entry_of_a_dirty_ancestor_is_diffed() {
        let m = mem();
        let root = build(&m);
        let (l2, l3) = (PhysAddr::new(0x4400_2000), PhysAddr::new(0x4400_3000));
        widen(&m, l2);
        let mut cache = AbsCache::new();
        check_agrees(&mut cache, &m, root);
        // One critical section rewrites l2's link to l3 with its own
        // value, changes another l2 entry, and maps a page in l3.
        m.write_pte(l2, 0, Pte::table(l3)).unwrap();
        m.write_pte(l2, 7, annotation_pte(OwnerId::HYP)).unwrap();
        m.write_pte(l3, 5, leaf(0x4200_5000)).unwrap();
        check_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1, "{:?}", cache.stats);
        assert_eq!(cache.stats.subtrees_replayed, 2);
    }

    #[test]
    fn an_identical_value_rewrite_serves_a_host_sharing_storage_with_the_previous_one() {
        let m = mem();
        let root = build_host(&m);
        let mut cache = AbsCache::new();
        let (first, _) = host_agrees(&mut cache, &m, root);
        let l3 = PhysAddr::new(0x4400_3000);
        m.write_pte(l3, 4, m.read_pte(l3, 4).unwrap()).unwrap();
        let (second, _) = host_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 1);
        assert!(shares(&first, &second));
        // So does a replay that changes only mapped-on-demand pages.
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        let pa = PhysAddr::new(0x4000_2000);
        m.write_pte(l3, 2, Pte::leaf(Stage::Stage2, 3, pa, owned))
            .unwrap();
        let (third, _) = host_agrees(&mut cache, &m, root);
        assert_eq!(cache.stats.incremental, 2);
        assert!(shares(&first, &third));
    }

    #[test]
    fn a_delta_that_finds_an_anomaly_reruns_the_whole_check_in_address_order() {
        let m = mem();
        let root = build_host(&m);
        let (l2, l3) = (PhysAddr::new(0x4400_2000), PhysAddr::new(0x4400_3000));
        widen(&m, l2);
        let mut cache = AbsCache::new();
        host_agrees(&mut cache, &m, root);
        // Two host-owned mappings that are not identity mappings: a block
        // in l2, which is diffed first, and a page in l3 at a lower address.
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        let block = Pte::leaf(Stage::Stage2, 2, PhysAddr::new(0x4060_0000), owned);
        m.write_pte(l2, 5, block).unwrap();
        let page = Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4300_0000), owned);
        m.write_pte(l3, 8, page).unwrap();
        let mut reported = Vec::new();
        let served = host(&mut cache, &m, root, &mut reported);
        let mut full = Vec::new();
        assert_eq!(served, abstract_host(&m, root, &globals(), &mut full));
        assert_eq!(cache.stats.incremental, 1, "{:?}", cache.stats);
        assert_eq!(reported, full);
        assert_eq!(
            reported,
            vec![
                Anomaly::HostNotIdentity {
                    ia: 0x4000_8000,
                    oa: 0x4300_0000
                },
                Anomaly::HostNotIdentity {
                    ia: 0x40a0_0000,
                    oa: 0x4060_0000
                },
            ]
        );
        // The partition was not memoized: the next event re-reports.
        let (_, again) = host_agrees(&mut cache, &m, root);
        assert_eq!(again, 2);
        assert_eq!(cache.stats.clean_hits, 1);
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
    fn a_reused_vm_handle_walks_cold_and_an_anomalous_state_walks_every_time() {
        let m = mem();
        let root = build(&m);
        let vm = Component::Vm(0x1000);
        let mut cache = AbsCache::new();
        let serve =
            |c: &mut AbsCache, a: &mut Vec<Anomaly>| c.interp(&m, Stage::Stage2, root, vm, a);
        let first = serve(&mut cache, &mut Vec::new());
        // The VM leaves the table and a new one reuses the handle.
        cache.retain_vms(|_| false);
        assert_eq!(serve(&mut cache, &mut Vec::new()), first);
        assert_eq!(cache.stats.full_cold, 2);
        // An anomalous state is never cached: every request walks it and
        // reports its anomaly again.
        m.write_pte(PhysAddr::new(0x4400_3000), 3, Pte(0b01))
            .unwrap();
        for _ in 0..2 {
            let mut a = Vec::new();
            serve(&mut cache, &mut a);
            assert_eq!(a.len(), 1, "{a:?}");
        }
        assert_eq!((cache.stats.full_anomaly, cache.stats.full_cold), (1, 3));
        // Repaired, it is cached afresh.
        m.write_pte(PhysAddr::new(0x4400_3000), 3, Pte(0)).unwrap();
        serve(&mut cache, &mut Vec::new());
        serve(&mut cache, &mut Vec::new());
        assert_eq!((cache.stats.full_cold, cache.stats.clean_hits), (4, 1));
    }

    #[test]
    fn changed_runs_finds_runs_at_block_edges() {
        let runs = |changed: &[usize]| {
            let old = [Pte(0); 512];
            let mut new = old;
            for &i in changed {
                new[i] = Pte(1 << (i % 64));
            }
            changed_runs(&old, &new).collect::<Vec<_>>()
        };
        assert_eq!(runs(&[]), vec![]);
        assert_eq!(runs(&[0]), vec![0..1]);
        assert_eq!(runs(&[7]), vec![7..8]);
        assert_eq!(runs(&[8]), vec![8..9]);
        assert_eq!(runs(&[7, 8]), vec![7..9], "a run across a block edge");
        assert_eq!(runs(&[6, 9]), vec![6..7, 9..10]);
        assert_eq!(runs(&(8..24).collect::<Vec<_>>()), vec![8..24]);
        assert_eq!(runs(&(15..33).collect::<Vec<_>>()), vec![15..33]);
        assert_eq!(runs(&[504, 511]), vec![504..505, 511..512]);
        assert_eq!(runs(&(0..512).collect::<Vec<_>>()), vec![0..512]);
        // Slices that end inside a block, against a one-at-a-time diff.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for seed in 0..500 {
            let len = [512, 13, 8, 7, 0][seed % 5];
            let old: Vec<Pte> = (0..len).map(|i| Pte(i as u64)).collect();
            let mut new = old.clone();
            for pte in new.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(7) {
                    pte.0 ^= 1 << (x >> 58);
                }
            }
            let mut want = Vec::new();
            let mut i = 0;
            while i < len {
                if old[i] != new[i] {
                    let start = i;
                    while i < len && old[i] != new[i] {
                        i += 1;
                    }
                    want.push(start..i);
                }
                i += 1;
            }
            let got: Vec<_> = changed_runs(&old, &new).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
