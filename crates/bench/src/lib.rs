//! Shared fixtures for the evaluation benchmarks and the report binary.
//!
//! Each bench target regenerates one table/figure of the paper's
//! evaluation; the mapping from experiment id (E1..E9, F2, F6, A1) to
//! target is in `DESIGN.md`, and `EXPERIMENTS.md` records paper-vs-measured.

pub mod minibench;

use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::attrs::{Attrs, Perms, Stage};
use pkvm_aarch64::memory::{MemRegion, PhysMem};
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::machine::{Machine, MachineConfig};
use pkvm_hyp::owner::PageState;
use pkvm_hyp::pgtable::{kvm_pgtable_walk, KvmPgtable, MapWalker, PoolOps, WalkState};
use pkvm_hyp::pool::HypPool;

/// Boots a machine with or without the oracle installed.
pub fn boot(with_oracle: bool) -> (Arc<Machine>, Option<Arc<Oracle>>) {
    let config = MachineConfig::default();
    if with_oracle {
        let oracle = Oracle::new(&config, OracleOpts::default());
        let m = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
        (m, Some(oracle))
    } else {
        (
            Machine::boot(
                config,
                Arc::new(pkvm_hyp::hooks::NoHooks),
                Arc::new(FaultSet::none()),
            ),
            None,
        )
    }
}

/// A standalone stage 2 table with `nr_pages` individually-mapped pages
/// (worst case for interpretation) rooted in fresh memory.
pub fn build_page_table(nr_pages: u64) -> (PhysMem, PhysAddr) {
    let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x1000_0000)]);
    let mut pool = HypPool::new(PhysAddr::new(0x4800_0000 - 0x80_0000), 2048);
    let root = pool.alloc_page().unwrap();
    mem.zero_page(root).unwrap();
    let pgt = KvmPgtable {
        root,
        stage: Stage::Stage2,
    };
    let attrs = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
    let mut mm = PoolOps(&mut pool);
    let mut ws = WalkState::new(&mem, &mut mm);
    let mut w = MapWalker {
        stage: Stage::Stage2,
        phys_base: PhysAddr::new(0x4000_0000),
        ia_base: 0x4000_0000,
        attrs,
        force_pages: true,
        corrupt_block_oa: false,
    };
    kvm_pgtable_walk(&pgt, &mut ws, 0x4000_0000, nr_pages * PAGE_SIZE, &mut w).unwrap();
    (mem, root)
}

/// A standalone stage 2 table covering `nr_pages` with maximal block
/// mappings (best case for interpretation).
pub fn build_block_table(nr_pages: u64) -> (PhysMem, PhysAddr) {
    let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x4000_0000)]);
    let mut pool = HypPool::new(PhysAddr::new(0x8000_0000 - 0x80_0000), 2048);
    let root = pool.alloc_page().unwrap();
    mem.zero_page(root).unwrap();
    let pgt = KvmPgtable {
        root,
        stage: Stage::Stage2,
    };
    let attrs = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
    let mut mm = PoolOps(&mut pool);
    let mut ws = WalkState::new(&mem, &mut mm);
    let mut w = MapWalker {
        stage: Stage::Stage2,
        phys_base: PhysAddr::new(0x4000_0000),
        ia_base: 0x4000_0000,
        attrs,
        force_pages: false,
        corrupt_block_oa: false,
    };
    kvm_pgtable_walk(&pgt, &mut ws, 0x4000_0000, nr_pages * PAGE_SIZE, &mut w).unwrap();
    (mem, root)
}
