//! The generic translation-table walker (`kvm_pgtable` analog).
//!
//! As the paper describes (§4.1), pKVM manipulates page tables through a
//! single generic, higher-order walker shared with KVM: the walk traverses
//! the table tree for an input-address range following the architectural
//! translation-table-walk algorithm, invoking visitor callbacks at table
//! entries and/or leaves. Concrete operations — mapping, ownership
//! annotation, state checks — are visitors; memory for new table nodes
//! comes through pluggable [`MmOps`] (hypervisor pool or vCPU memcache).
//!
//! The walker reports every table-node allocation and free through
//! [`TableEvent`]s so the caller can feed the ghost separation-footprint
//! check without the walker knowing anything about the oracle.

use pkvm_aarch64::addr::{
    ia_index, level_pages, level_size, PhysAddr, LEAF_LEVEL, PAGE_SIZE, PTES_PER_TABLE, START_LEVEL,
};
use pkvm_aarch64::attrs::{Attrs, Stage};
use pkvm_aarch64::desc::{EntryKind, Pte};
use pkvm_aarch64::memory::PhysMem;

use crate::error::{Errno, HypResult};
use crate::memcache::Memcache;
use crate::pool::HypPool;

/// Visit leaf (and invalid) entries.
pub const WALK_LEAF: u8 = 1 << 0;
/// Visit table entries before descending.
pub const WALK_TABLE_PRE: u8 = 1 << 1;
/// Visit table entries after the subtree.
pub const WALK_TABLE_POST: u8 = 1 << 2;

/// One translation table: a root plus its stage.
#[derive(Clone, Copy, Debug)]
pub struct KvmPgtable {
    /// Physical address of the root table node.
    pub root: PhysAddr,
    /// Stage 1 (pKVM's own) or stage 2 (host/guest).
    pub stage: Stage,
}

/// A table-node allocation or free performed during a walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableEvent {
    /// A page became a translation-table node.
    Alloc(PhysAddr),
    /// A translation-table node page was released.
    Free(PhysAddr),
}

/// Source of pages for new table nodes.
///
/// A source writes no memory but the page it hands out or takes back (a
/// pool zeroes it, a memcache reads and writes its link word there): the
/// walker re-reads a node it holds only when that node is such a page.
pub trait MmOps {
    /// Allocates one zeroed page.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when the source is exhausted.
    fn zalloc_page(&mut self, mem: &PhysMem) -> HypResult<PhysAddr>;

    /// Returns a page to the source.
    fn free_page(&mut self, mem: &PhysMem, page: PhysAddr);
}

/// Allocation from the hypervisor's buddy pool (host/hyp tables).
pub struct PoolOps<'a>(pub &'a mut HypPool);

impl MmOps for PoolOps<'_> {
    fn zalloc_page(&mut self, mem: &PhysMem) -> HypResult<PhysAddr> {
        let pa = self.0.alloc_page()?;
        mem.zero_page(pa).expect("pool pages are backed RAM");
        Ok(pa)
    }

    fn free_page(&mut self, _mem: &PhysMem, page: PhysAddr) {
        self.0.put_page(page);
    }
}

/// Allocation from a vCPU memcache (guest tables).
pub struct McOps<'a>(pub &'a mut Memcache);

impl MmOps for McOps<'_> {
    fn zalloc_page(&mut self, mem: &PhysMem) -> HypResult<PhysAddr> {
        let pa = self.0.pop(mem)?;
        mem.zero_page(pa).expect("memcache pages are backed RAM");
        Ok(pa)
    }

    fn free_page(&mut self, mem: &PhysMem, page: PhysAddr) {
        self.0.push(mem, page);
    }
}

/// An allocation source that always fails; for walks that must not need
/// memory (checks, unmaps of page-granular ranges).
pub struct NoAlloc;

impl MmOps for NoAlloc {
    fn zalloc_page(&mut self, _mem: &PhysMem) -> HypResult<PhysAddr> {
        Err(Errno::ENOMEM)
    }

    fn free_page(&mut self, _mem: &PhysMem, _page: PhysAddr) {
        panic!("NoAlloc cannot take pages back");
    }
}

/// Levels a walk passes through, root to leaf.
const LEVELS: usize = LEAF_LEVEL as usize + 1;

/// The walker reads a node whole when the walk covers at least this many
/// of its descriptors: one page copy costs about as much as four
/// descriptor reads.
const WHOLE_NODE_MIN: usize = 4;

/// Mutable walk state threaded through visitors: memory, the allocation
/// source, the table-node event log, and copies of the nodes on the
/// walk's current path that the walker read whole.
pub struct WalkState<'a> {
    /// Simulated physical memory holding the tables.
    pub mem: &'a PhysMem,
    mm: &'a mut dyn MmOps,
    /// Table-node allocations/frees performed so far in this walk.
    pub events: Vec<TableEvent>,
    /// Writes, allocations and frees made through this state: the walker
    /// re-reads a descriptor after a visit only if this moved.
    changes: u64,
    /// Per level, the node of the current path that was read whole.
    held: [Option<PhysAddr>; LEVELS],
    /// Per level, the held node's descriptors, kept equal to memory while
    /// it is held; allocated at the level's first whole read and reused.
    copies: [Option<Box<[Pte; 512]>>; LEVELS],
}

impl<'a> WalkState<'a> {
    /// Creates walk state over `mem` allocating from `mm`.
    pub fn new(mem: &'a PhysMem, mm: &'a mut dyn MmOps) -> Self {
        Self {
            mem,
            mm,
            events: Vec::new(),
            changes: 0,
            held: [None; LEVELS],
            copies: Default::default(),
        }
    }

    /// Allocates a zeroed table node, logging the event.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when the allocation source is exhausted.
    pub fn zalloc_table(&mut self) -> HypResult<PhysAddr> {
        let pa = self
            .mm
            .zalloc_page(self.mem)
            .inspect_err(|_| crate::cov::hit!("pgtable/oom"))?;
        self.reread_held(pa);
        self.events.push(TableEvent::Alloc(pa));
        Ok(pa)
    }

    /// Releases a table node, logging the event.
    pub fn free_table(&mut self, page: PhysAddr) {
        self.mm.free_page(self.mem, page);
        self.reread_held(page);
        self.events.push(TableEvent::Free(page));
    }

    /// Reads descriptor `idx` of `table`.
    pub fn read(&self, table: PhysAddr, idx: usize) -> Pte {
        self.mem
            .read_pte(table, idx)
            .expect("table nodes are backed RAM")
    }

    /// Writes descriptor `idx` of `table`, and into every held copy of
    /// the page it lands in.
    pub fn write(&mut self, table: PhysAddr, idx: usize, pte: Pte) {
        self.mem
            .write_pte(table, idx, pte)
            .expect("table nodes are backed RAM");
        self.changes += 1;
        let pa = table.wrapping_add(8 * idx as u64);
        let (page, slot) = (pa.page_base(), (pa.page_offset() / 8) as usize);
        for (held, copy) in self.held.iter().zip(&mut self.copies) {
            if let (Some(node), Some(copy)) = (held, copy) {
                if *node == page {
                    copy[slot] = pte;
                }
            }
        }
    }

    /// Counts a change the allocation source made to `page`, and re-reads
    /// every held copy of it.
    fn reread_held(&mut self, page: PhysAddr) {
        self.changes += 1;
        for (held, copy) in self.held.iter().zip(&mut self.copies) {
            if let (Some(node), Some(copy)) = (held, copy) {
                if *node == page {
                    self.mem
                        .read_table_into(page, copy)
                        .expect("held nodes are RAM");
                }
            }
        }
    }

    /// Returns `true` if `table` may be read whole: a page-aligned RAM
    /// node. Other nodes are read descriptor by descriptor, so an MMIO
    /// node counts one access per descriptor and a node outside memory
    /// fails with the `BusError` of the first descriptor read.
    fn whole_readable(&self, table: PhysAddr) -> bool {
        table.is_page_aligned() && self.mem.is_ram(table)
    }

    /// Holds `table` for the walk's frame at `level` over `[start, end)`:
    /// reads it whole when the range covers at least [`WHOLE_NODE_MIN`]
    /// of its descriptors and it is [whole-readable](Self::whole_readable).
    fn hold(&mut self, level: u8, table: PhysAddr, start: u64, end: u64) {
        let l = usize::from(level);
        self.held[l] = None;
        let covered = ia_index(end - 1, level) - ia_index(start, level) + 1;
        if covered >= WHOLE_NODE_MIN && self.whole_readable(table) {
            let copy = self.copies[l].get_or_insert_with(|| Box::new([Pte::ZERO; 512]));
            self.mem
                .read_table_into(table, copy)
                .expect("RAM nodes are readable");
            self.held[l] = Some(table);
        }
    }

    /// Descriptor `idx` of `table`, the node of the frame at `level`:
    /// from its copy if the frame holds it, else from memory.
    fn slot(&self, level: u8, table: PhysAddr, idx: usize) -> Pte {
        let l = usize::from(level);
        match (self.held[l], &self.copies[l]) {
            (Some(node), Some(copy)) if node == table => copy[idx],
            _ => self.read(table, idx),
        }
    }

    /// Descriptor `idx` of `table` again, where `last` is what the frame
    /// at `level` read when `*seen` changes had been made: read anew only
    /// if a write, allocation or free happened since.
    fn reread(&self, level: u8, table: PhysAddr, idx: usize, last: Pte, seen: &mut u64) -> Pte {
        if self.changes == *seen {
            return last;
        }
        *seen = self.changes;
        self.slot(level, table, idx)
    }

    /// Returns `true` if descriptors `from..` of node `table` all equal
    /// `pte`: one whole read where the node allows it, else descriptor by
    /// descriptor up to the first that differs.
    fn rest_equal(&self, table: PhysAddr, from: usize, pte: Pte) -> bool {
        if self.whole_readable(table) {
            let mut node = [Pte::ZERO; 512];
            self.mem
                .read_table_into(table, &mut node)
                .expect("RAM nodes are readable");
            node[from..].iter().all(|&p| p == pte)
        } else {
            (from..PTES_PER_TABLE as usize).all(|i| self.read(table, i) == pte)
        }
    }
}

/// Why the visitor is being invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitKind {
    /// A table entry, before descending into it.
    TablePre,
    /// A leaf or invalid entry.
    Leaf,
    /// A table entry, after its subtree was walked.
    TablePost,
}

/// The walker's view of one descriptor slot.
#[derive(Clone, Copy, Debug)]
pub struct WalkCtx {
    /// Start of the walked range clipped to this entry's region.
    pub ia: u64,
    /// End of the walked range clipped to this entry's region.
    pub end: u64,
    /// Level of the entry.
    pub level: u8,
    /// Table node holding the entry.
    pub table: PhysAddr,
    /// Index of the entry within the node.
    pub idx: usize,
    /// The descriptor value when the walker reached it.
    pub old: Pte,
}

impl WalkCtx {
    /// Base input address of the region this entry translates.
    pub fn entry_base(&self) -> u64 {
        self.ia & !(level_size(self.level) - 1)
    }

    /// Returns `true` if the walked range covers this entry's region
    /// entirely (a block mapping may be installed).
    pub fn covers_entry(&self) -> bool {
        self.ia == self.entry_base() && self.end == self.entry_base() + level_size(self.level)
    }
}

/// A walk visitor: the higher-order callback of the generic walker.
pub trait Visitor {
    /// Which visit kinds this visitor wants ([`WALK_LEAF`] etc.).
    fn flags(&self) -> u8;

    /// Called at each requested entry; may rewrite the descriptor through
    /// `st` (the walker re-reads it and descends into freshly-installed
    /// tables).
    ///
    /// A visitor writes table memory only through `st`
    /// ([`WalkState::write`], [`WalkState::zalloc_table`],
    /// [`WalkState::free_table`]): the walker keeps the nodes it read
    /// whole equal to memory by seeing every such change, and re-reads an
    /// entry only after a visit that made one.
    ///
    /// # Errors
    ///
    /// Any error aborts the walk and is propagated to the caller.
    fn visit(&mut self, st: &mut WalkState<'_>, kind: VisitKind, ctx: &WalkCtx) -> HypResult;
}

/// Walks `pgt` over `[addr, addr + size)` invoking `visitor`.
///
/// # Errors
///
/// Returns `EINVAL` for misaligned or empty ranges, or the first error
/// returned by the visitor.
pub fn kvm_pgtable_walk(
    pgt: &KvmPgtable,
    st: &mut WalkState<'_>,
    addr: u64,
    size: u64,
    visitor: &mut dyn Visitor,
) -> HypResult {
    if size == 0 || !addr.is_multiple_of(PAGE_SIZE) || !size.is_multiple_of(PAGE_SIZE) {
        return Err(Errno::EINVAL);
    }
    let end = addr.checked_add(size).ok_or(Errno::EINVAL)?;
    if end > 1 << 48 {
        return Err(Errno::ERANGE);
    }
    #[cfg(test)]
    if tests::REFERENCE_WALK.get() {
        return tests::reference_walk_table(st, pgt.root, START_LEVEL, addr, end, visitor);
    }
    walk_table(st, pgt.root, START_LEVEL, addr, end, visitor)
}

fn walk_table(
    st: &mut WalkState<'_>,
    table: PhysAddr,
    level: u8,
    start: u64,
    end: u64,
    visitor: &mut dyn Visitor,
) -> HypResult {
    st.hold(level, table, start, end);
    let r = walk_entries(st, table, level, start, end, visitor);
    st.held[usize::from(level)] = None;
    r
}

fn walk_entries(
    st: &mut WalkState<'_>,
    table: PhysAddr,
    level: u8,
    start: u64,
    end: u64,
    visitor: &mut dyn Visitor,
) -> HypResult {
    let flags = visitor.flags();
    let mut cur = start;
    while cur < end {
        let entry_base = cur & !(level_size(level) - 1);
        let clip_end = end.min(entry_base + level_size(level));
        let idx = ia_index(cur, level);
        let old = st.slot(level, table, idx);
        let ctx = WalkCtx {
            ia: cur,
            end: clip_end,
            level,
            table,
            idx,
            old,
        };
        let was_table = old.kind(level) == EntryKind::Table;
        let (kind, wanted) = if was_table {
            (VisitKind::TablePre, WALK_TABLE_PRE)
        } else {
            (VisitKind::Leaf, WALK_LEAF)
        };
        let mut seen = st.changes;
        let mut now = old;
        if flags & wanted != 0 {
            visitor.visit(st, kind, &ctx)?;
            now = st.reread(level, table, idx, now, &mut seen);
        }
        // A table entry is descended into as it now reads, and so is a
        // leaf or invalid entry the visitor replaced with a table (block
        // split, or lazy table install).
        let descend = now.kind(level) == EntryKind::Table;
        if descend {
            walk_table(st, now.table_addr(), level + 1, cur, clip_end, visitor)?;
        }
        if flags & WALK_TABLE_POST != 0 && (was_table || descend) {
            let now = st.reread(level, table, idx, now, &mut seen);
            if now.kind(level) == EntryKind::Table {
                visitor.visit(st, VisitKind::TablePost, &WalkCtx { old: now, ..ctx })?;
            }
        }
        cur = clip_end;
    }
    Ok(())
}

/// Finds the deepest descriptor reached for `addr` (the `kvm_pgtable_get_leaf`
/// analog). Returns the descriptor and its level; the descriptor may be
/// invalid (carrying an owner annotation).
pub fn get_leaf(mem: &PhysMem, pgt: &KvmPgtable, addr: u64) -> (Pte, u8) {
    let mut table = pgt.root;
    for level in START_LEVEL..=LEAF_LEVEL {
        let pte = mem
            .read_pte(table, ia_index(addr, level))
            .expect("tables are backed");
        if pte.kind(level) == EntryKind::Table {
            table = pte.table_addr();
        } else {
            return (pte, level);
        }
    }
    unreachable!("level 3 entries are never tables")
}

/// The mapping visitor (`stage2_map_walker` / `hyp_map_walker` analog):
/// installs `[ia_base, ..) -> phys_base + offset` with `attrs`, using block
/// mappings where alignment permits and splitting existing blocks that
/// partially overlap.
pub struct MapWalker {
    /// Stage of the target table (selects the attribute encoding).
    pub stage: Stage,
    /// Physical base the walked range maps to.
    pub phys_base: PhysAddr,
    /// Input-address base of the walked range.
    pub ia_base: u64,
    /// Attributes (including software page-state bits) for the new leaves.
    pub attrs: Attrs,
    /// Never install blocks; force page-granular mappings.
    pub force_pages: bool,
    /// Fault injection: corrupt block output addresses by one block
    /// ([`crate::faults::Fault::SynBlockAlignment`]).
    pub corrupt_block_oa: bool,
}

/// Replaces the (leaf or invalid) entry at `ctx` with a freshly-allocated
/// next-level table that preserves its meaning: block mappings are
/// replicated at the finer granule, and owner annotations are copied into
/// every child slot. The walker then descends into the new table.
fn split_entry(stage: Stage, st: &mut WalkState<'_>, ctx: &WalkCtx) -> HypResult {
    let table = st.zalloc_table()?;
    match ctx.old.kind(ctx.level) {
        EntryKind::Invalid => {
            // Preserve any owner annotation across the split.
            if ctx.old.bits() != 0 {
                for i in 0..PTES_PER_TABLE as usize {
                    st.write(table, i, ctx.old);
                }
            }
        }
        EntryKind::Block => {
            crate::cov::hit!("pgtable/split_block");
            let child_level = ctx.level + 1;
            let child_size = level_size(child_level);
            let oa = ctx.old.leaf_oa(ctx.level);
            let attrs = ctx.old.leaf_attrs(stage);
            for i in 0..PTES_PER_TABLE as usize {
                let coa = oa.wrapping_add(i as u64 * child_size);
                st.write(table, i, Pte::leaf(stage, child_level, coa, attrs));
            }
        }
        k => unreachable!("split of {k:?}"),
    }
    st.write(ctx.table, ctx.idx, Pte::table(table));
    Ok(())
}

impl Visitor for MapWalker {
    fn flags(&self) -> u8 {
        WALK_LEAF
    }

    fn visit(&mut self, st: &mut WalkState<'_>, _kind: VisitKind, ctx: &WalkCtx) -> HypResult {
        let target = self.phys_base.wrapping_add(ctx.ia - self.ia_base);
        if ctx.level == LEAF_LEVEL {
            crate::cov::hit!("pgtable/map_page");
            st.write(
                ctx.table,
                ctx.idx,
                Pte::leaf(self.stage, LEAF_LEVEL, target, self.attrs),
            );
            return Ok(());
        }
        let target_aligned = target.bits().is_multiple_of(level_size(ctx.level));
        if ctx.level >= 1 && !self.force_pages && ctx.covers_entry() && target_aligned {
            crate::cov::hit!("pgtable/map_block");
            let oa = if self.corrupt_block_oa {
                // Buggy path: the block OA computation is off by one whole
                // block, silently mapping the wrong physical range.
                target.wrapping_add(level_size(ctx.level))
            } else {
                target
            };
            st.write(
                ctx.table,
                ctx.idx,
                Pte::leaf(self.stage, ctx.level, oa, self.attrs),
            );
            return Ok(());
        }
        // Partial coverage or misalignment: ensure a table and let the
        // walker descend into it.
        split_entry(self.stage, st, ctx)
    }
}

/// The unmap/annotate visitor (`stage2_set_owner` / `hyp_unmap` analog):
/// replaces the walked range with the invalid descriptor `annotation`
/// (zero for a plain unmap), splitting partially-covered blocks and
/// freeing table nodes that become uniformly invalid.
pub struct SetOwnerWalker {
    /// Stage of the target table (needed when splitting blocks).
    pub stage: Stage,
    /// The invalid descriptor to write over the range.
    pub annotation: Pte,
}

impl Visitor for SetOwnerWalker {
    fn flags(&self) -> u8 {
        WALK_LEAF | WALK_TABLE_POST
    }

    fn visit(&mut self, st: &mut WalkState<'_>, kind: VisitKind, ctx: &WalkCtx) -> HypResult {
        match kind {
            VisitKind::Leaf => {
                if ctx.old == self.annotation {
                    // Already carries exactly this annotation: nothing to do.
                    return Ok(());
                }
                if !ctx.covers_entry() && ctx.level < LEAF_LEVEL {
                    // Partially-covered block or coarse invalid entry:
                    // split, preserving the uncovered part (block contents
                    // or prior annotation); the walker descends and
                    // annotates only the covered children.
                    split_entry(self.stage, st, ctx)
                } else {
                    st.write(ctx.table, ctx.idx, self.annotation);
                    Ok(())
                }
            }
            VisitKind::TablePost => {
                // Free child tables that became uniformly invalid; the
                // child is read whole only once its first two agree.
                let child = ctx.old.table_addr();
                let first = st.read(child, 0);
                let uniform = !first.is_valid()
                    && st.read(child, 1) == first
                    && st.rest_equal(child, 2, first);
                if !uniform {
                    return Ok(());
                }
                crate::cov::hit!("pgtable/free_table");
                st.write(ctx.table, ctx.idx, first);
                st.free_table(child);
                Ok(())
            }
            VisitKind::TablePre => unreachable!("not requested"),
        }
    }
}

/// A visitor adapter running a closure at each leaf/invalid entry.
pub struct LeafVisitor<F>(pub F);

impl<F: FnMut(&mut WalkState<'_>, &WalkCtx) -> HypResult> Visitor for LeafVisitor<F> {
    fn flags(&self) -> u8 {
        WALK_LEAF
    }

    fn visit(&mut self, st: &mut WalkState<'_>, _kind: VisitKind, ctx: &WalkCtx) -> HypResult {
        (self.0)(st, ctx)
    }
}

/// Collects every *mapped* page-range in `[addr, addr+size)` of `pgt` as
/// `(ia, pa, nr_pages, attrs)` tuples.
pub fn collect_mapped(
    mem: &PhysMem,
    pgt: &KvmPgtable,
    addr: u64,
    size: u64,
) -> Vec<(u64, PhysAddr, u64, Attrs)> {
    let mut out = Vec::new();
    let stage = pgt.stage;
    let mut mm = NoAlloc;
    let mut st = WalkState::new(mem, &mut mm);
    let mut v = LeafVisitor(|_st: &mut WalkState<'_>, ctx: &WalkCtx| {
        match ctx.old.kind(ctx.level) {
            EntryKind::Block | EntryKind::Page => {
                let off = ctx.ia - ctx.entry_base();
                let pa = ctx.old.leaf_oa(ctx.level).wrapping_add(off);
                let pages = (ctx.end - ctx.ia) / PAGE_SIZE;
                out.push((ctx.ia, pa, pages, ctx.old.leaf_attrs(stage)));
            }
            _ => {}
        }
        Ok(())
    });
    kvm_pgtable_walk(pgt, &mut st, addr, size, &mut v).expect("collect walk cannot fail");
    out
}

/// Destroys the whole tree below `pgt.root`, freeing every table node into
/// `mm` (the root itself is the caller's to free). Leaf contents are left
/// in place; callers unmap/reclaim leaves first.
pub fn destroy(mem: &PhysMem, pgt: &KvmPgtable, mm: &mut dyn MmOps) -> Vec<TableEvent> {
    let mut st = WalkState::new(mem, mm);
    kvm_pgtable_walk(pgt, &mut st, 0, 1 << 48, &mut Destroyer).expect("destroy cannot fail");
    st.events
}

/// The visitor of [`destroy`]: unlinks and frees every table node after
/// its subtree.
struct Destroyer;

impl Visitor for Destroyer {
    fn flags(&self) -> u8 {
        WALK_TABLE_POST
    }

    fn visit(&mut self, st: &mut WalkState<'_>, _k: VisitKind, ctx: &WalkCtx) -> HypResult {
        let child = ctx.old.table_addr();
        st.write(ctx.table, ctx.idx, Pte::invalid());
        st.free_table(child);
        Ok(())
    }
}

/// Returns the number of 4 KiB pages one entry at `level` maps (re-export
/// for visitors).
pub fn entry_pages(level: u8) -> u64 {
    level_pages(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_aarch64::attrs::Perms;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_aarch64::walk::{walk as hw_walk, Fault};
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    thread_local! {
        /// Set while [`kvm_pgtable_walk`] on this thread walks with
        /// [`reference_walk_table`].
        pub(super) static REFERENCE_WALK: Cell<bool> = const { Cell::new(false) };
    }

    /// The per-descriptor walker: every descriptor read from memory, and
    /// re-read after every visit. The property test below holds
    /// `walk_table` to it.
    pub(super) fn reference_walk_table(
        st: &mut WalkState<'_>,
        table: PhysAddr,
        level: u8,
        start: u64,
        end: u64,
        visitor: &mut dyn Visitor,
    ) -> HypResult {
        let flags = visitor.flags();
        let mut cur = start;
        while cur < end {
            let entry_base = cur & !(level_size(level) - 1);
            let clip_end = end.min(entry_base + level_size(level));
            let idx = ia_index(cur, level);
            let old = st.read(table, idx);
            let ctx = WalkCtx {
                ia: cur,
                end: clip_end,
                level,
                table,
                idx,
                old,
            };
            match old.kind(level) {
                EntryKind::Table => {
                    if flags & WALK_TABLE_PRE != 0 {
                        visitor.visit(st, VisitKind::TablePre, &ctx)?;
                    }
                    let now = st.read(table, idx);
                    if now.kind(level) == EntryKind::Table {
                        reference_walk_table(
                            st,
                            now.table_addr(),
                            level + 1,
                            cur,
                            clip_end,
                            visitor,
                        )?;
                    }
                    if flags & WALK_TABLE_POST != 0 {
                        let now = st.read(table, idx);
                        let ctx = WalkCtx { old: now, ..ctx };
                        if now.kind(level) == EntryKind::Table {
                            visitor.visit(st, VisitKind::TablePost, &ctx)?;
                        }
                    }
                }
                _ => {
                    if flags & WALK_LEAF != 0 {
                        visitor.visit(st, VisitKind::Leaf, &ctx)?;
                    }
                    // The visitor may have replaced a leaf/invalid entry with a
                    // table (block split, or lazy table install): descend.
                    let now = st.read(table, idx);
                    if now != old && now.kind(level) == EntryKind::Table {
                        reference_walk_table(
                            st,
                            now.table_addr(),
                            level + 1,
                            cur,
                            clip_end,
                            visitor,
                        )?;
                        if flags & WALK_TABLE_POST != 0 {
                            let now = st.read(table, idx);
                            let ctx = WalkCtx { old: now, ..ctx };
                            if now.kind(level) == EntryKind::Table {
                                visitor.visit(st, VisitKind::TablePost, &ctx)?;
                            }
                        }
                    }
                }
            }
            cur = clip_end;
        }
        Ok(())
    }

    struct Fixture {
        mem: PhysMem,
        pool: HypPool,
        pgt: KvmPgtable,
    }

    fn fixture() -> Fixture {
        let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x800_0000)]);
        let mut pool = HypPool::new(PhysAddr::new(0x4400_0000), 2048);
        let root = pool.alloc_page().unwrap();
        mem.zero_page(root).unwrap();
        Fixture {
            mem,
            pool,
            pgt: KvmPgtable {
                root,
                stage: Stage::Stage2,
            },
        }
    }

    fn map(
        f: &mut Fixture,
        ia: u64,
        size: u64,
        pa: u64,
        attrs: Attrs,
        force_pages: bool,
    ) -> HypResult {
        let mut mm = PoolOps(&mut f.pool);
        let mut st = WalkState::new(&f.mem, &mut mm);
        let mut w = MapWalker {
            stage: Stage::Stage2,
            phys_base: PhysAddr::new(pa),
            ia_base: ia,
            attrs,
            force_pages,
            corrupt_block_oa: false,
        };
        kvm_pgtable_walk(&f.pgt, &mut st, ia, size, &mut w)
    }

    #[test]
    fn map_single_page_and_translate() {
        let mut f = fixture();
        map(
            &mut f,
            0x4000_0000,
            0x1000,
            0x4010_0000,
            Attrs::normal(Perms::RWX),
            false,
        )
        .unwrap();
        let tr = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4000_0abc).unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x4010_0abc));
        assert_eq!(tr.level, 3);
    }

    #[test]
    fn aligned_2m_range_becomes_block() {
        let mut f = fixture();
        map(
            &mut f,
            0x4020_0000,
            0x20_0000,
            0x4040_0000,
            Attrs::normal(Perms::RW),
            false,
        )
        .unwrap();
        let tr = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4020_0000).unwrap();
        assert_eq!(tr.level, 2, "expected a level-2 block mapping");
        // Only 3 table nodes (levels 0,1,2... root preexists, so 2 allocs).
        let (pte, level) = get_leaf(&f.mem, &f.pgt, 0x4030_0000);
        assert_eq!(level, 2);
        assert_eq!(pte.kind(2), EntryKind::Block);
    }

    #[test]
    fn misaligned_phys_prevents_block() {
        let mut f = fixture();
        // 2 MiB of IA, but physical base only page-aligned: must use pages.
        map(
            &mut f,
            0x4020_0000,
            0x20_0000,
            0x4040_1000,
            Attrs::normal(Perms::RW),
            false,
        )
        .unwrap();
        let tr = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4020_0000).unwrap();
        assert_eq!(tr.level, 3);
        assert_eq!(tr.oa, PhysAddr::new(0x4040_1000));
        let tr2 = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4020_0000 + 0x1f_f000).unwrap();
        assert_eq!(tr2.oa, PhysAddr::new(0x4040_1000 + 0x1f_f000));
    }

    #[test]
    fn splitting_a_block_preserves_the_rest() {
        let mut f = fixture();
        // Identity-map a 2 MiB block, then remap one interior page elsewhere.
        map(
            &mut f,
            0x4020_0000,
            0x20_0000,
            0x4020_0000,
            Attrs::normal(Perms::RWX),
            false,
        )
        .unwrap();
        map(
            &mut f,
            0x4021_0000,
            0x1000,
            0x4060_0000,
            Attrs::normal(Perms::R),
            false,
        )
        .unwrap();
        let changed = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4021_0000).unwrap();
        assert_eq!(changed.oa, PhysAddr::new(0x4060_0000));
        assert_eq!(changed.attrs.perms, Perms::R);
        // Neighbouring pages still identity-mapped with original perms.
        let kept = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4021_1000).unwrap();
        assert_eq!(kept.oa, PhysAddr::new(0x4021_1000));
        assert_eq!(kept.attrs.perms, Perms::RWX);
        let kept2 = hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4020_0000).unwrap();
        assert_eq!(kept2.oa, PhysAddr::new(0x4020_0000));
    }

    #[test]
    fn set_owner_annotates_and_frees_tables() {
        let mut f = fixture();
        map(
            &mut f,
            0x4020_0000,
            0x4000,
            0x4020_0000,
            Attrs::normal(Perms::RWX),
            true,
        )
        .unwrap();
        let free_before = f.pool.free_pages();
        {
            let mut mm = PoolOps(&mut f.pool);
            let mut st = WalkState::new(&f.mem, &mut mm);
            let annot = Pte::invalid_with_owner(1);
            let mut v = SetOwnerWalker {
                stage: Stage::Stage2,
                annotation: annot,
            };
            kvm_pgtable_walk(&f.pgt, &mut st, 0x4020_0000, 0x4000, &mut v).unwrap();
        }
        assert_eq!(
            hw_walk(&f.mem, Stage::Stage2, f.pgt.root, 0x4020_0000),
            Err(Fault::Translation { level: 3 })
        );
        let (pte, _level) = get_leaf(&f.mem, &f.pgt, 0x4020_0000);
        assert_eq!(pte.invalid_owner(), 1);
        // The rest of the covering tables were NOT uniformly invalid (other
        // entries are zero, annotation nonzero) so nothing was freed.
        assert!(f.pool.free_pages() <= free_before + 3);
    }

    #[test]
    fn unmap_whole_region_frees_child_tables() {
        let mut f = fixture();
        map(
            &mut f,
            0x4020_0000,
            0x20_0000,
            0x4020_0000,
            Attrs::normal(Perms::RWX),
            true,
        )
        .unwrap();
        let before = f.pool.free_pages();
        let events = {
            let mut mm = PoolOps(&mut f.pool);
            let mut st = WalkState::new(&f.mem, &mut mm);
            let mut v = SetOwnerWalker {
                stage: Stage::Stage2,
                annotation: Pte::invalid(),
            };
            kvm_pgtable_walk(&f.pgt, &mut st, 0x4020_0000, 0x20_0000, &mut v).unwrap();
            st.events
        };
        // The level-3 table covering the 2 MiB became uniformly zero and
        // must have been freed.
        assert!(f.pool.free_pages() > before, "expected table free");
        assert!(events.iter().any(|e| matches!(e, TableEvent::Free(_))));
    }

    #[test]
    fn annotation_survives_partial_mapping_over_it() {
        let mut f = fixture();
        // Annotate a whole 2 MiB region as owner 2 at coarse level.
        {
            let mut mm = PoolOps(&mut f.pool);
            let mut st = WalkState::new(&f.mem, &mut mm);
            let mut v = SetOwnerWalker {
                stage: Stage::Stage2,
                annotation: Pte::invalid_with_owner(2),
            };
            kvm_pgtable_walk(&f.pgt, &mut st, 0x4020_0000, 0x20_0000, &mut v).unwrap();
        }
        // Now map one page inside it; the remaining pages must keep the
        // owner-2 annotation (split replication).
        map(
            &mut f,
            0x4021_0000,
            0x1000,
            0x4021_0000,
            Attrs::normal(Perms::RWX),
            false,
        )
        .unwrap();
        let (pte, level) = get_leaf(&f.mem, &f.pgt, 0x4022_0000);
        assert_eq!(level, 3);
        assert_eq!(pte.invalid_owner(), 2);
        let (mapped, _) = get_leaf(&f.mem, &f.pgt, 0x4021_0000);
        assert!(mapped.is_valid());
    }

    #[test]
    fn walk_rejects_bad_ranges() {
        let f = fixture();
        let mut mm = NoAlloc;
        let mut st = WalkState::new(&f.mem, &mut mm);
        let mut v = LeafVisitor(|_: &mut WalkState<'_>, _: &WalkCtx| Ok(()));
        assert_eq!(
            kvm_pgtable_walk(&f.pgt, &mut st, 0x123, 0x1000, &mut v),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            kvm_pgtable_walk(&f.pgt, &mut st, 0x1000, 0, &mut v),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            kvm_pgtable_walk(&f.pgt, &mut st, (1 << 48) - 0x1000, 0x2000, &mut v),
            Err(Errno::ERANGE)
        );
    }

    #[test]
    fn oom_mid_walk_propagates() {
        let mut f = fixture();
        // Exhaust the pool.
        while f.pool.alloc_page().is_ok() {}
        let err = map(
            &mut f,
            0x4020_0000,
            0x1000,
            0x4020_0000,
            Attrs::normal(Perms::RW),
            false,
        );
        assert_eq!(err, Err(Errno::ENOMEM));
    }

    #[test]
    fn collect_mapped_reports_ranges() {
        let mut f = fixture();
        map(
            &mut f,
            0x4020_0000,
            0x3000,
            0x4040_0000,
            Attrs::normal(Perms::RW),
            true,
        )
        .unwrap();
        let got = collect_mapped(&f.mem, &f.pgt, 0x4000_0000, 0x100_0000);
        let total: u64 = got.iter().map(|(_, _, n, _)| n).sum();
        assert_eq!(total, 3);
        assert_eq!(got[0].0, 0x4020_0000);
        assert_eq!(got[0].1, PhysAddr::new(0x4040_0000));
    }

    #[test]
    fn destroy_frees_all_tables() {
        let mut f = fixture();
        map(
            &mut f,
            0x4020_0000,
            0x1000,
            0x4020_0000,
            Attrs::normal(Perms::RW),
            false,
        )
        .unwrap();
        map(
            &mut f,
            0x7000_0000,
            0x1000,
            0x4021_0000,
            Attrs::normal(Perms::RW),
            false,
        )
        .unwrap();
        let free_before = f.pool.free_pages();
        let events = destroy(&f.mem, &f.pgt, &mut PoolOps(&mut f.pool));
        // Both mappings share the level-0 and level-1 entries (same 512 GiB
        // and 1 GiB regions) but have distinct level-3 tables: 1 + 1 + 2.
        let frees = events
            .iter()
            .filter(|e| matches!(e, TableEvent::Free(_)))
            .count();
        assert_eq!(frees, 4, "shared L1/L2 chain plus two L3 tables");
        assert_eq!(f.pool.free_pages(), free_before + frees as u64);
    }

    #[test]
    fn memcache_ops_source_tables_from_cache() {
        let f = fixture();
        let mut mc = Memcache::new();
        for pfn in 0..8u64 {
            mc.push(&f.mem, PhysAddr::new(0x4600_0000 + pfn * 0x1000));
        }
        let root = PhysAddr::new(0x4610_0000);
        f.mem.zero_page(root).unwrap();
        let pgt = KvmPgtable {
            root,
            stage: Stage::Stage2,
        };
        let mut mm = McOps(&mut mc);
        let mut st = WalkState::new(&f.mem, &mut mm);
        let mut w = MapWalker {
            stage: Stage::Stage2,
            phys_base: PhysAddr::new(0x4060_0000),
            ia_base: 0x1000_0000,
            attrs: Attrs::normal(Perms::RWX),
            force_pages: false,
            corrupt_block_oa: false,
        };
        kvm_pgtable_walk(&pgt, &mut st, 0x1000_0000, 0x1000, &mut w).unwrap();
        assert_eq!(mc.len(), 5, "three table levels consumed");
        let tr = hw_walk(&f.mem, Stage::Stage2, root, 0x1000_0000).unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x4060_0000));
    }

    #[test]
    fn nodes_outside_ram_are_read_descriptor_by_descriptor() {
        let mem = PhysMem::new(vec![
            MemRegion::ram(RAM, 0x10_0000),
            MemRegion::mmio(MMIO, 0x1000),
        ]);
        // Root, level 1 and level 2 nodes in RAM, the level-3 node in MMIO.
        let chain = [RAM, RAM + 0x1000, RAM + 0x2000, MMIO].map(PhysAddr::new);
        for w in chain.windows(2) {
            mem.write_pte(w[0], 0, Pte::table(w[1])).unwrap();
        }
        let pgt = KvmPgtable {
            root: chain[0],
            stage: Stage::Stage2,
        };
        let mut visits = 0;
        let mut v = LeafVisitor(|_: &mut WalkState<'_>, _: &WalkCtx| {
            visits += 1;
            Ok(())
        });
        let mut mm = NoAlloc;
        let mut st = WalkState::new(&mem, &mut mm);
        kvm_pgtable_walk(&pgt, &mut st, 0, 8 * PAGE_SIZE, &mut v).unwrap();
        assert_eq!(visits, 8);
        assert_eq!(mem.mmio_reads(), 8, "one read per descriptor, none whole");
        // Outside every region, the first descriptor read names itself.
        mem.write_pte(chain[2], 0, Pte::table(PhysAddr::new(UNBACKED)))
            .unwrap();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            collect_mapped(&mem, &pgt, 0x3000, 8 * PAGE_SIZE)
        }))
        .unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.contains("PhysAddr(0x100000018)"), "{msg}");
    }

    /// [`SetOwnerWalker`] with its `TablePost` check descriptor by
    /// descriptor: the reference for the check's whole-node read.
    struct ReferenceSetOwner(SetOwnerWalker);

    impl Visitor for ReferenceSetOwner {
        fn flags(&self) -> u8 {
            self.0.flags()
        }

        fn visit(&mut self, st: &mut WalkState<'_>, kind: VisitKind, ctx: &WalkCtx) -> HypResult {
            if kind != VisitKind::TablePost {
                return self.0.visit(st, kind, ctx);
            }
            let child = ctx.old.table_addr();
            let first = st.read(child, 0);
            if first.is_valid() {
                return Ok(());
            }
            for i in 1..PTES_PER_TABLE as usize {
                if st.read(child, i) != first {
                    return Ok(());
                }
            }
            crate::cov::hit!("pgtable/free_table");
            st.write(ctx.table, ctx.idx, first);
            st.free_table(child);
            Ok(())
        }
    }

    /// A seeded stream (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One visit as a visitor sees it: (kind, level, table, idx, old).
    type Visit = (VisitKind, u8, PhysAddr, usize, Pte);

    /// Logs every visit, then hands it to the wrapped visitor.
    struct Recorder<'v> {
        inner: &'v mut dyn Visitor,
        log: &'v mut Vec<Visit>,
    }

    impl Visitor for Recorder<'_> {
        fn flags(&self) -> u8 {
            self.inner.flags()
        }

        fn visit(&mut self, st: &mut WalkState<'_>, kind: VisitKind, ctx: &WalkCtx) -> HypResult {
            self.log
                .push((kind, ctx.level, ctx.table, ctx.idx, ctx.old));
            self.inner.visit(st, kind, ctx)
        }
    }

    /// Asks for every visit kind and, on a few visits, rewrites its own
    /// slot: with an annotation, a fresh table, a table pointing back at
    /// its own node or zero. At a `TablePost` it may unlink and free the
    /// child, it may free its own node, and now and then it fails the
    /// walk.
    struct Rewriter {
        rng: Rng,
        budget: u32,
    }

    impl Visitor for Rewriter {
        fn flags(&self) -> u8 {
            WALK_LEAF | WALK_TABLE_PRE | WALK_TABLE_POST
        }

        fn visit(&mut self, st: &mut WalkState<'_>, kind: VisitKind, ctx: &WalkCtx) -> HypResult {
            if self.budget == 0 || self.rng.below(4) != 0 {
                return Ok(());
            }
            self.budget -= 1;
            let pte = match self.rng.below(7) {
                0 => return Err(Errno::EPERM),
                1 => Pte::invalid_with_owner(3),
                2 => Pte::table(st.zalloc_table()?),
                3 => Pte::table(ctx.table),
                4 if kind == VisitKind::TablePost => {
                    st.write(ctx.table, ctx.idx, Pte::invalid());
                    st.free_table(ctx.old.table_addr());
                    return Ok(());
                }
                // Hands its own node back without unlinking it, as a
                // corrupt tree can make the walk do.
                5 => {
                    st.free_table(ctx.table);
                    return Ok(());
                }
                _ => Pte::invalid(),
            };
            st.write(ctx.table, ctx.idx, pte);
            Ok(())
        }
    }

    const RAM: u64 = 0x4000_0000;
    const POOL: u64 = 0x4020_0000;
    const MC_PAGES: u64 = 0x4030_0000;
    const MMIO: u64 = 0x900_0000;
    /// An address no region backs.
    const UNBACKED: u64 = 0x1_0000_0000;

    struct World {
        mem: PhysMem,
        pool: HypPool,
        mc: Memcache,
        pgt: KvmPgtable,
    }

    /// A page-aligned range in one of four subtrees (three apart at level
    /// 0, one at the top of the IA space), sometimes 2 MiB aligned.
    fn range(rng: &mut Rng) -> (u64, u64) {
        let base = [0, 0x4000_0000, 0x80_0000_0000, (1 << 48) - 0x40_0000][rng.below(4) as usize];
        let ia = if rng.below(3) == 0 {
            base + rng.below(2) * 0x20_0000
        } else {
            base + rng.below(1024) * PAGE_SIZE
        };
        let pages = match rng.below(3) {
            0 => 1 + rng.below(3),
            1 => 1 + rng.below(700),
            _ => 512,
        };
        (ia, pages.min(((1 << 48) - ia) / PAGE_SIZE) * PAGE_SIZE)
    }

    fn map_walker(rng: &mut Rng, ia: u64) -> MapWalker {
        let pa = if rng.below(2) == 0 {
            RAM + rng.below(4) * 0x20_0000
        } else {
            RAM + rng.below(512) * PAGE_SIZE
        };
        MapWalker {
            stage: Stage::Stage2,
            phys_base: PhysAddr::new(pa),
            ia_base: ia,
            attrs: Attrs::normal(Perms::RW),
            force_pages: rng.below(2) == 0,
            corrupt_block_oa: false,
        }
    }

    fn set_owner_walker(rng: &mut Rng) -> SetOwnerWalker {
        SetOwnerWalker {
            stage: Stage::Stage2,
            annotation: match rng.below(2) {
                0 => Pte::invalid(),
                _ => Pte::invalid_with_owner(1 + rng.below(3) as u8),
            },
        }
    }

    /// A tree built by a few maps and annotations, a memcache of up to
    /// five pages, and up to three descriptors corrupted the ways chaos
    /// bit flips corrupt them.
    fn world(rng: &mut Rng) -> World {
        let mem = PhysMem::new(vec![
            MemRegion::ram(RAM, 0x40_0000),
            MemRegion::mmio(MMIO, 0x1_0000),
        ]);
        let mut pool = HypPool::new(PhysAddr::new(POOL), 256);
        let root = pool.alloc_page().unwrap();
        mem.zero_page(root).unwrap();
        let pgt = KvmPgtable {
            root,
            stage: Stage::Stage2,
        };
        let mut nodes = vec![root];
        for _ in 0..1 + rng.below(4) {
            let (ia, size) = range(rng);
            let mut mm = PoolOps(&mut pool);
            let mut st = WalkState::new(&mem, &mut mm);
            let _ = if rng.below(3) == 0 {
                kvm_pgtable_walk(&pgt, &mut st, ia, size, &mut set_owner_walker(rng))
            } else {
                kvm_pgtable_walk(&pgt, &mut st, ia, size, &mut map_walker(rng, ia))
            };
            for e in st.events {
                match e {
                    TableEvent::Alloc(p) => nodes.push(p),
                    TableEvent::Free(p) => nodes.retain(|&n| n != p),
                }
            }
        }
        // Donated pages hold whatever the host left in them.
        let mut mc = Memcache::new();
        let cached = rng.below(6);
        for i in 0..cached {
            let page = PhysAddr::new(MC_PAGES + i * PAGE_SIZE);
            for _ in 0..rng.below(8) {
                let junk = [
                    Pte::invalid_with_owner(2),
                    Pte::table(root),
                    Pte(rng.next()),
                ];
                let idx = rng.below(512) as usize;
                mem.write_pte(page, idx, junk[rng.below(3) as usize])
                    .unwrap();
            }
            mc.push(&mem, page);
        }
        for _ in 0..rng.below(4) {
            // A node on the path to an address the operations walk, or
            // any node.
            let (ia, _) = range(rng);
            let (mut node, mut level) = (root, START_LEVEL);
            for _ in 0..rng.below(4) {
                let pte = mem.read_pte(node, ia_index(ia, level)).unwrap();
                if level == LEAF_LEVEL
                    || pte.kind(level) != EntryKind::Table
                    || !mem.is_ram(pte.table_addr())
                {
                    break;
                }
                (node, level) = (pte.table_addr(), level + 1);
            }
            if rng.below(3) == 0 {
                node = nodes[rng.below(nodes.len() as u64) as usize];
            }
            let idx = match rng.below(3) {
                0 => rng.below(512) as usize,
                _ => ia_index(ia, level),
            };
            if rng.below(8) == 0 {
                // Uniform but for one slot, which the free check of
                // `SetOwnerWalker` must find.
                let odd = [0, 1, 2, 3, 511, rng.below(512)][rng.below(6) as usize] as usize;
                for i in 0..512 {
                    let pte = Pte::invalid_with_owner(if i == odd { 1 } else { 2 });
                    mem.write_pte(node, i, pte).unwrap();
                }
                continue;
            }
            let pte = match rng.below(8) {
                0 => Pte::table(nodes[rng.below(nodes.len() as u64) as usize]),
                1 => Pte::table(node),
                2 => Pte::table(root),
                3 => Pte::table(PhysAddr::new(UNBACKED)),
                4 => Pte::table(PhysAddr::new(MMIO + rng.below(16) * PAGE_SIZE)),
                // The memcache's next page, or the pool's.
                5 if cached > 0 => Pte::table(PhysAddr::new(MC_PAGES + (cached - 1) * PAGE_SIZE)),
                5 => {
                    let next = pool.alloc_page().unwrap();
                    pool.put_page(next);
                    Pte::table(next)
                }
                _ => Pte(mem.read_pte(node, idx).unwrap().bits() ^ (1 << rng.below(64))),
            };
            mem.write_pte(node, idx, pte).unwrap();
        }
        World { mem, pool, mc, pgt }
    }

    /// Runs one seeded operation on `w`, logging visits, through the
    /// reference walker and free check when `reference` is set; returns
    /// the result and the table events, or the panic payload.
    fn run(w: &mut World, rng: &mut Rng, reference: bool, log: &mut Vec<Visit>) -> String {
        let op = rng.below(5);
        let (ia, size) = if op != 0 && rng.below(4) == 0 {
            (0, 1 << 48)
        } else {
            range(rng)
        };
        let mut pool = PoolOps(&mut w.pool);
        let mut mc = McOps(&mut w.mc);
        let mut none = NoAlloc;
        let mm: &mut dyn MmOps = match rng.below(3) {
            0 => &mut pool,
            1 => &mut mc,
            _ => &mut none,
        };
        let mut map = map_walker(rng, ia);
        let mut set_owner = set_owner_walker(rng);
        let mut ref_set_owner = ReferenceSetOwner(SetOwnerWalker { ..set_owner });
        let mut rewriter = Rewriter {
            rng: Rng(rng.next()),
            budget: 8,
        };
        let inner: &mut dyn Visitor = match op {
            0 => &mut map,
            1 if reference => &mut ref_set_owner,
            1 => &mut set_owner,
            // Op 3 runs `collect_mapped`, which brings its own visitor.
            2 | 3 => &mut Destroyer,
            _ => &mut rewriter,
        };
        let _reference = reference.then(|| {
            REFERENCE_WALK.set(true);
            Reset
        });
        catch_unwind(AssertUnwindSafe(|| {
            if op == 3 {
                return format!("{:?}", collect_mapped(&w.mem, &w.pgt, ia, size));
            }
            let mut st = WalkState::new(&w.mem, mm);
            let mut rec = Recorder { inner, log };
            let r = match op {
                2 => kvm_pgtable_walk(&w.pgt, &mut st, 0, 1 << 48, &mut rec),
                _ => kvm_pgtable_walk(&w.pgt, &mut st, ia, size, &mut rec),
            };
            format!("{r:?} {:?}", st.events)
        }))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
            format!("panic: {msg:?}")
        })
    }

    /// Switches [`REFERENCE_WALK`] off when dropped.
    struct Reset;

    impl Drop for Reset {
        fn drop(&mut self) {
            REFERENCE_WALK.set(false);
        }
    }

    #[test]
    fn reading_nodes_whole_changes_nothing_a_walk_does() {
        for seed in 0..300 {
            let mut sides = [false, true].map(|reference| {
                let mut rng = Rng(seed);
                let mut w = world(&mut rng);
                w.mem.write_log().set_enabled(true);
                let gen = w.mem.write_log().snapshot_generation();
                let mut log = Vec::new();
                let outcome: Vec<String> = (0..3)
                    .map(|_| run(&mut w, &mut rng, reference, &mut log))
                    .collect();
                (w, gen, log, outcome)
            });
            let [(new, new_gen, new_log, new_out), (old, old_gen, old_log, old_out)] = &mut sides;
            assert_eq!(new_out, old_out, "seed {seed}: result");
            let at = new_log
                .iter()
                .zip(old_log.iter())
                .take_while(|(a, b)| a == b)
                .count();
            assert!(
                new_log == old_log,
                "seed {seed}: visit {at} of {}/{}: {:?} against {:?}",
                new_log.len(),
                old_log.len(),
                new_log.get(at),
                old_log.get(at)
            );
            assert_eq!(new.mc, old.mc, "seed {seed}: memcache");
            assert_eq!(
                new.pool.free_pages(),
                old.pool.free_pages(),
                "seed {seed}: pool"
            );
            let mut touched = BTreeSet::new();
            assert!(new.mem.write_log().for_each_dirty_since(*new_gen, |pfn| {
                touched.insert(pfn);
            }));
            assert!(old.mem.write_log().for_each_dirty_since(*old_gen, |pfn| {
                touched.insert(pfn);
            }));
            for pfn in touched {
                let page = PhysAddr::from_pfn(pfn);
                let (mut a, mut b) = ([0; PAGE_SIZE as usize], [0; PAGE_SIZE as usize]);
                new.mem.read_bytes(page, &mut a).unwrap();
                old.mem.read_bytes(page, &mut b).unwrap();
                assert!(a == b, "seed {seed}: bytes of page {page}");
            }
        }
    }
}
