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

/// Mutable walk state threaded through visitors: memory, the allocation
/// source, and the table-node event log.
pub struct WalkState<'a> {
    /// Simulated physical memory holding the tables.
    pub mem: &'a PhysMem,
    mm: &'a mut dyn MmOps,
    /// Table-node allocations/frees performed so far in this walk.
    pub events: Vec<TableEvent>,
}

impl<'a> WalkState<'a> {
    /// Creates walk state over `mem` allocating from `mm`.
    pub fn new(mem: &'a PhysMem, mm: &'a mut dyn MmOps) -> Self {
        Self {
            mem,
            mm,
            events: Vec::new(),
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
            .inspect_err(|_| crate::cov::hit("pgtable/oom"))?;
        self.events.push(TableEvent::Alloc(pa));
        Ok(pa)
    }

    /// Releases a table node, logging the event.
    pub fn free_table(&mut self, page: PhysAddr) {
        self.mm.free_page(self.mem, page);
        self.events.push(TableEvent::Free(page));
    }

    /// Reads descriptor `idx` of `table`.
    pub fn read(&self, table: PhysAddr, idx: usize) -> Pte {
        self.mem
            .read_pte(table, idx)
            .expect("table nodes are backed RAM")
    }

    /// Writes descriptor `idx` of `table`.
    pub fn write(&self, table: PhysAddr, idx: usize, pte: Pte) {
        self.mem
            .write_pte(table, idx, pte)
            .expect("table nodes are backed RAM")
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
                    walk_table(st, now.table_addr(), level + 1, cur, clip_end, visitor)?;
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
                    walk_table(st, now.table_addr(), level + 1, cur, clip_end, visitor)?;
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
            crate::cov::hit("pgtable/split_block");
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
            crate::cov::hit("pgtable/map_page");
            st.write(
                ctx.table,
                ctx.idx,
                Pte::leaf(self.stage, LEAF_LEVEL, target, self.attrs),
            );
            return Ok(());
        }
        let target_aligned = target.bits().is_multiple_of(level_size(ctx.level));
        if ctx.level >= 1 && !self.force_pages && ctx.covers_entry() && target_aligned {
            crate::cov::hit("pgtable/map_block");
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
                // Free child tables that became uniformly invalid.
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
                crate::cov::hit("pgtable/free_table");
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
    let mut st = WalkState::new(mem, mm);
    kvm_pgtable_walk(pgt, &mut st, 0, 1 << 48, &mut Destroyer).expect("destroy cannot fail");
    st.events
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
}
