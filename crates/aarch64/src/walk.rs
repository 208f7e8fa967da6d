//! The hardware translation-table walk.
//!
//! This is the simulated equivalent of the Arm-A hardware walker: given a
//! translation root and an input address, it follows table descriptors down
//! to a leaf and produces the output address and decoded attributes, or a
//! fault. Host and guest memory accesses in the simulation go through this
//! function, so the hypervisor's page tables are exercised exactly as the
//! implicit hardware walks of the paper exercise pKVM's.

use crate::addr::{ia_index, level_size, PhysAddr, LEAF_LEVEL, PA_LIMIT, START_LEVEL};
use crate::attrs::{Attrs, Stage};
use crate::desc::EntryKind;
use crate::memory::PhysMem;

/// The kind of access being translated, for permission checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The translated output address (leaf OA plus the in-region offset).
    pub oa: PhysAddr,
    /// The level at which the leaf was found (1, 2 or 3).
    pub level: u8,
    /// Decoded leaf attributes.
    pub attrs: Attrs,
}

/// A translation fault, mirroring the Arm FSC fault taxonomy we need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No mapping: an invalid descriptor was found at `level`.
    Translation {
        /// Level of the invalid descriptor.
        level: u8,
    },
    /// The mapping exists but does not permit the access.
    Permission {
        /// Level of the leaf descriptor.
        level: u8,
    },
    /// The input address is outside the modelled 48-bit space.
    AddressSize,
    /// A reserved descriptor encoding was found at `level`.
    Malformed {
        /// Level of the malformed descriptor.
        level: u8,
    },
    /// A descriptor fetch itself hit unbacked physical memory.
    External {
        /// Level whose descriptor fetch failed.
        level: u8,
    },
}

/// Walks the table rooted at `root` for input address `ia`, without a
/// permission check.
///
/// # Errors
///
/// Returns a [`Fault`] if the walk does not reach a valid leaf.
pub fn walk(mem: &PhysMem, stage: Stage, root: PhysAddr, ia: u64) -> Result<Translation, Fault> {
    if ia >= PA_LIMIT {
        return Err(Fault::AddressSize);
    }
    let mut table = root;
    for level in START_LEVEL..=LEAF_LEVEL {
        let pte = mem
            .read_pte(table, ia_index(ia, level))
            .map_err(|_| Fault::External { level })?;
        match pte.kind(level) {
            EntryKind::Invalid => return Err(Fault::Translation { level }),
            EntryKind::Reserved => return Err(Fault::Malformed { level }),
            EntryKind::Table => table = pte.table_addr(),
            EntryKind::Block | EntryKind::Page => {
                let offset = ia & (level_size(level) - 1);
                return Ok(Translation {
                    oa: pte.leaf_oa(level).wrapping_add(offset),
                    level,
                    attrs: pte.leaf_attrs(stage),
                });
            }
        }
    }
    unreachable!("level 3 descriptors are always leaves or faults");
}

/// Translates `ia` for the given `access`, including the permission check.
///
/// # Errors
///
/// Returns [`Fault::Permission`] if a valid leaf is found but its
/// permissions deny the access, or any fault from [`walk`].
pub fn translate(
    mem: &PhysMem,
    stage: Stage,
    root: PhysAddr,
    ia: u64,
    access: Access,
) -> Result<Translation, Fault> {
    let tr = walk(mem, stage, root, ia)?;
    let ok = match access {
        Access::Read => tr.attrs.perms.r,
        Access::Write => tr.attrs.perms.w,
        Access::Exec => tr.attrs.perms.x,
    };
    if ok {
        Ok(tr)
    } else {
        Err(Fault::Permission { level: tr.level })
    }
}

/// The full two-stage translation: a guest virtual address through the
/// guest's stage 1 (each stage 1 table-walk access itself being subject to
/// stage 2!), then the resulting IPA through stage 2.
///
/// pKVM's oracle never needs this — guests manage their own stage 1 and
/// the hypervisor only constrains stage 2 — but the simulation provides it
/// for architectural completeness and for tests that model a guest kernel
/// with paging enabled.
///
/// # Errors
///
/// Returns [`Fault::External`] for a table-walk access that stage 2
/// rejects, or the faulting stage's own fault.
pub fn translate_two_stage(
    mem: &PhysMem,
    s1_root: PhysAddr,
    s2_root: PhysAddr,
    va: u64,
    access: Access,
) -> Result<Translation, Fault> {
    use crate::addr::{ia_index, LEAF_LEVEL, START_LEVEL};
    use crate::desc::EntryKind;
    if va >= PA_LIMIT {
        return Err(Fault::AddressSize);
    }
    // Stage 1 walk, with every descriptor fetch translated by stage 2.
    let mut table_ipa = s1_root;
    let mut s1_leaf = None;
    for level in START_LEVEL..=LEAF_LEVEL {
        let entry_ipa = table_ipa.wrapping_add(8 * ia_index(va, level) as u64);
        let entry_pa = translate(mem, Stage::Stage2, s2_root, entry_ipa.bits(), Access::Read)
            .map_err(|_| Fault::External { level })?;
        let pte = crate::desc::Pte(
            mem.read_u64(entry_pa.oa)
                .map_err(|_| Fault::External { level })?,
        );
        match pte.kind(level) {
            EntryKind::Invalid => return Err(Fault::Translation { level }),
            EntryKind::Reserved => return Err(Fault::Malformed { level }),
            EntryKind::Table => table_ipa = pte.table_addr(),
            EntryKind::Block | EntryKind::Page => {
                let offset = va & (level_size(level) - 1);
                s1_leaf = Some(Translation {
                    oa: pte.leaf_oa(level).wrapping_add(offset),
                    level,
                    attrs: pte.leaf_attrs(Stage::Stage1),
                });
                break;
            }
        }
    }
    let Some(s1) = s1_leaf else {
        return Err(Fault::Translation { level: LEAF_LEVEL });
    };
    let ok = match access {
        Access::Read => s1.attrs.perms.r,
        Access::Write => s1.attrs.perms.w,
        Access::Exec => s1.attrs.perms.x,
    };
    if !ok {
        return Err(Fault::Permission { level: s1.level });
    }
    // Stage 2 on the resulting IPA.
    translate(mem, Stage::Stage2, s2_root, s1.oa.bits(), access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Perms;
    use crate::desc::Pte;
    use crate::memory::MemRegion;

    /// Builds a fresh memory with a RAM region and hand-rolls a small
    /// 4-level table inside it.
    fn setup() -> (PhysMem, PhysAddr) {
        let mem = PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x100_0000)]);
        let root = PhysAddr::new(0x4000_0000);
        (mem, root)
    }

    /// Installs a 4 KiB page mapping `ia -> oa` by writing raw descriptors,
    /// allocating intermediate tables at fixed addresses.
    fn map_page(mem: &PhysMem, root: PhysAddr, ia: u64, oa: u64, perms: Perms) {
        let mut table = root;
        let mut next_free = 0x4010_0000u64;
        for level in 0..3u8 {
            let idx = ia_index(ia, level);
            let pte = mem.read_pte(table, idx).unwrap();
            table = if pte.is_valid() {
                pte.table_addr()
            } else {
                let t = PhysAddr::new(next_free);
                mem.write_pte(table, idx, Pte::table(t)).unwrap();
                t
            };
            next_free += 0x1000;
        }
        let attrs = Attrs::normal(perms);
        mem.write_pte(
            table,
            ia_index(ia, 3),
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(oa), attrs),
        )
        .unwrap();
    }

    #[test]
    fn unmapped_faults_at_level_0() {
        let (mem, root) = setup();
        assert_eq!(
            walk(&mem, Stage::Stage2, root, 0x8000_0000),
            Err(Fault::Translation { level: 0 })
        );
    }

    #[test]
    fn mapped_page_translates_with_offset() {
        let (mem, root) = setup();
        map_page(&mem, root, 0x8000_0000, 0x4050_0000, Perms::RWX);
        let tr = translate(&mem, Stage::Stage2, root, 0x8000_0123, Access::Read).unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x4050_0123));
        assert_eq!(tr.level, 3);
        assert_eq!(tr.attrs.perms, Perms::RWX);
    }

    #[test]
    fn permission_fault_on_write_to_readonly() {
        let (mem, root) = setup();
        map_page(&mem, root, 0x8000_0000, 0x4050_0000, Perms::R);
        assert!(translate(&mem, Stage::Stage2, root, 0x8000_0000, Access::Read).is_ok());
        assert_eq!(
            translate(&mem, Stage::Stage2, root, 0x8000_0000, Access::Write),
            Err(Fault::Permission { level: 3 })
        );
        assert_eq!(
            translate(&mem, Stage::Stage2, root, 0x8000_0000, Access::Exec),
            Err(Fault::Permission { level: 3 })
        );
    }

    #[test]
    fn block_mapping_translates_interior_addresses() {
        let (mem, root) = setup();
        // Level-2 block at ia 0x4000_0000 (2 MiB aligned) -> oa 0x4020_0000.
        let l0 = root;
        let l1 = PhysAddr::new(0x4011_0000);
        mem.write_pte(l0, ia_index(0x4000_0000, 0), Pte::table(l1))
            .unwrap();
        let l2 = PhysAddr::new(0x4012_0000);
        mem.write_pte(l1, ia_index(0x4000_0000, 1), Pte::table(l2))
            .unwrap();
        let attrs = Attrs::normal(Perms::RW);
        mem.write_pte(
            l2,
            ia_index(0x4000_0000, 2),
            Pte::leaf(Stage::Stage2, 2, PhysAddr::new(0x4020_0000), attrs),
        )
        .unwrap();
        let tr = walk(&mem, Stage::Stage2, root, 0x4000_0000 + 0x12_3456).unwrap();
        assert_eq!(tr.level, 2);
        assert_eq!(tr.oa, PhysAddr::new(0x4020_0000 + 0x12_3456));
    }

    #[test]
    fn address_size_fault_beyond_48_bits() {
        let (mem, root) = setup();
        assert_eq!(
            walk(&mem, Stage::Stage2, root, 1 << 48),
            Err(Fault::AddressSize)
        );
    }

    #[test]
    fn malformed_descriptor_faults() {
        let (mem, root) = setup();
        // A "valid block" at level 0 is a reserved encoding.
        mem.write_pte(root, ia_index(0, 0), Pte(1)).unwrap();
        assert_eq!(
            walk(&mem, Stage::Stage2, root, 0),
            Err(Fault::Malformed { level: 0 })
        );
    }

    #[test]
    fn two_stage_translation_composes() {
        let (mem, s2_root) = setup();
        // Stage 2: identity-map the guest's "RAM" (covering its stage 1
        // tables and data) page by page.
        for pfn in 0x40600..0x40700u64 {
            map_page(&mem, s2_root, pfn << 12, pfn << 12, Perms::RWX);
        }
        // Guest stage 1 (in guest memory): va 0 -> ipa 0x4060_5000.
        let s1_root = PhysAddr::new(0x4060_0000);
        let l1 = PhysAddr::new(0x4060_1000);
        let l2 = PhysAddr::new(0x4060_2000);
        let l3 = PhysAddr::new(0x4060_3000);
        mem.write_pte(s1_root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        mem.write_pte(
            l3,
            0,
            Pte::leaf(
                Stage::Stage1,
                3,
                PhysAddr::new(0x4060_5000),
                Attrs::normal(Perms::RW),
            ),
        )
        .unwrap();
        let tr = translate_two_stage(&mem, s1_root, s2_root, 0x123, Access::Read).unwrap();
        assert_eq!(tr.oa, PhysAddr::new(0x4060_5123));
        // Stage 1 denies execution.
        assert_eq!(
            translate_two_stage(&mem, s1_root, s2_root, 0x123, Access::Exec),
            Err(Fault::Permission { level: 3 })
        );
    }

    #[test]
    fn two_stage_fails_when_stage2_hides_the_stage1_table() {
        let (mem, s2_root) = setup();
        // Stage 2 maps the guest data but NOT the stage 1 tables.
        let s1_root = PhysAddr::new(0x4060_0000);
        mem.write_pte(s1_root, 0, Pte::table(PhysAddr::new(0x4060_1000)))
            .unwrap();
        assert_eq!(
            translate_two_stage(&mem, s1_root, s2_root, 0, Access::Read),
            Err(Fault::External { level: 0 }),
            "the stage 1 root fetch itself is stage 2 translated"
        );
    }

    #[test]
    fn external_abort_when_table_points_outside_memory() {
        let (mem, root) = setup();
        mem.write_pte(
            root,
            ia_index(0, 0),
            Pte::table(PhysAddr::new(0x9_0000_0000)),
        )
        .unwrap();
        assert_eq!(
            walk(&mem, Stage::Stage2, root, 0),
            Err(Fault::External { level: 1 })
        );
    }
}
