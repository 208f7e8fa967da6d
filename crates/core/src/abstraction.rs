//! Abstraction functions: interpreting concrete state into ghost state.
//!
//! The central one is [`interpret_pgtable`] (Fig. 2 of the paper): a
//! complete traversal of an in-memory Arm-format translation table,
//! incrementally constructing a finite range map with the coalescing
//! `extend` operation. Unlike the hardware walk and the implementation's
//! walker — which visit a specific input range — this interprets the
//! whole tree, because the ghost state is the table's full extension.
//!
//! On top of it sit the per-component abstraction functions that the
//! recording machinery invokes at lock boundaries: [`abstract_hyp`],
//! [`abstract_host`] (with its legality check of the loosely-specified
//! mapped-on-demand region), and [`abstract_vm`].

use std::collections::BTreeMap;
use std::sync::Arc;

use pkvm_aarch64::addr::{level_pages, PhysAddr, PAGE_SIZE, PTES_PER_TABLE, START_LEVEL};
use pkvm_aarch64::attrs::{MemType, Perms, Stage};
use pkvm_aarch64::desc::{EntryKind, Pte};
use pkvm_aarch64::memory::PhysMem;
use pkvm_hyp::hooks::VmView;
use pkvm_hyp::owner::{annotation_owner, OwnerId, PageState};

use crate::maplet::{AbsAttrs, Maplet, MapletTarget};
use crate::mapping::{push_coalesce, Mapping};
use crate::state::{AbstractPgtable, GhostGlobals, GhostHost, GhostPkvm, GhostVcpu, GhostVm};

/// Something in the concrete state that no well-formed hypervisor state
/// should contain; reported by the abstraction functions and turned into
/// oracle violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// A reserved descriptor encoding at (table, index, level).
    ReservedDescriptor {
        /// Table node holding the descriptor.
        table: u64,
        /// Index within the node.
        index: usize,
        /// Level of the node.
        level: u8,
    },
    /// A mapped descriptor whose software bits decode to no legal page
    /// state.
    IllegalPageState {
        /// Input address of the range.
        ia: u64,
    },
    /// A host-owned mapping that is not an identity mapping.
    HostNotIdentity {
        /// Input address.
        ia: u64,
        /// Output address found.
        oa: u64,
    },
    /// A host-owned mapping outside every memory region.
    HostOutsideMemory {
        /// Input address.
        ia: u64,
    },
    /// A host mapping of device space that is not device-typed RW.
    HostBadDeviceAttrs {
        /// Input address.
        ia: u64,
    },
    /// A translation-table fetch left simulated memory (corrupt table).
    TableOutsideMemory {
        /// The table address that could not be read.
        table: u64,
    },
}

/// One table node an interpretation read: where it sits in the tree, and
/// the descriptors it was interpreted from, which the incremental cache
/// (`abscache`) diffs a dirtied node against.
pub(crate) struct Node {
    /// The node's level.
    pub(crate) level: u8,
    /// Input address of the node's first entry.
    pub(crate) ia: u64,
    /// The node's 512 descriptors, as read.
    pub(crate) ptes: Box<[Pte; PTES_PER_TABLE as usize]>,
}

/// The table nodes one interpretation read, by page frame number.
pub(crate) type Nodes = BTreeMap<u64, Node>;

/// Interprets the concrete page table rooted at `root` into an abstract
/// page table: the `_interpret_pgtable` of Fig. 2, specialised (as in the
/// paper) to the 4-level, 4 KiB-granule configuration Android uses.
pub fn interpret_pgtable(
    mem: &PhysMem,
    stage: Stage,
    root: PhysAddr,
    anomalies: &mut Vec<Anomaly>,
) -> AbstractPgtable {
    interpret_tree(mem, stage, root, anomalies).0
}

/// The whole-tree walk behind [`interpret_pgtable`] and the incremental
/// cache's cold path: the interpretation, with every table node it read
/// (`None` if some table page is reached twice).
pub(crate) fn interpret_tree(
    mem: &PhysMem,
    stage: Stage,
    root: PhysAddr,
    anomalies: &mut Vec<Anomaly>,
) -> (AbstractPgtable, Option<Nodes>) {
    let mut nodes = Nodes::new();
    let mut walk = Walk::new(mem, stage, &mut nodes, anomalies);
    walk.table(root, START_LEVEL, 0);
    let aliased = walk.aliased;
    let pgt = AbstractPgtable {
        mapping: Mapping::from_canonical(walk.maplets),
        table_pages: Arc::new(nodes.keys().copied().collect()),
    };
    (pgt, (!aliased).then_some(nodes))
}

/// One traversal in progress: the whole tree from its root, or (in the
/// incremental cache) a run of changed entries of one node. The maplets
/// accumulate in a plain vector that becomes the mapping, or a splice's
/// replacement, once, at the end; every table node read is filed in
/// `nodes`.
pub(crate) struct Walk<'a> {
    mem: &'a PhysMem,
    stage: Stage,
    pub(crate) maplets: Vec<Maplet>,
    nodes: &'a mut Nodes,
    /// Some table page was reached from two descriptors, or was already
    /// filed in `nodes` when the walk began.
    pub(crate) aliased: bool,
    pub(crate) anomalies: &'a mut Vec<Anomaly>,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(
        mem: &'a PhysMem,
        stage: Stage,
        nodes: &'a mut Nodes,
        anomalies: &'a mut Vec<Anomaly>,
    ) -> Walk<'a> {
        Walk {
            mem,
            stage,
            maplets: Vec::new(),
            nodes,
            aliased: false,
            anomalies,
        }
    }

    /// Interprets the table node `table`, which sits at `level` and maps
    /// input addresses from `ia`, and files it.
    pub(crate) fn table(&mut self, table: PhysAddr, level: u8, ia: u64) {
        // Read the whole table page at once: the walk touches every
        // descriptor anyway, and a single bulk access avoids paying the
        // region check and page lookup 512 times per table.
        let ptes = match self.mem.read_table(table) {
            Ok(ptes) => {
                self.entries(table, level, ia, 0, &ptes[..]);
                ptes
            }
            Err(_) => {
                self.anomalies.push(Anomaly::TableOutsideMemory {
                    table: table.bits(),
                });
                // Still part of the footprint, as the descriptor names it.
                Box::new([Pte(0); PTES_PER_TABLE as usize])
            }
        };
        if self
            .nodes
            .insert(table.pfn(), Node { level, ia, ptes })
            .is_some()
        {
            self.aliased = true;
        }
    }

    /// Interprets `ptes`, the entries from index `first` on of the node
    /// `table` at `level` whose span starts at `ia`.
    pub(crate) fn entries(
        &mut self,
        table: PhysAddr,
        level: u8,
        ia: u64,
        first: usize,
        ptes: &[Pte],
    ) {
        let nr_pages = level_pages(level);
        for (idx, &pte) in (first..).zip(ptes) {
            // Compute the input address mapped by this entry.
            let va_partial_new = ia | (idx as u64 * nr_pages * PAGE_SIZE);
            match pte.kind(level) {
                EntryKind::Invalid => {
                    // Invalid entries may carry a software owner annotation;
                    // all-zero entries denote nothing and are skipped.
                    if pte.bits() != 0 {
                        let owner = annotation_owner(pte);
                        push_coalesce(
                            &mut self.maplets,
                            Maplet {
                                ia: va_partial_new,
                                nr_pages,
                                target: MapletTarget::Annotated { owner },
                            },
                        );
                    }
                }
                EntryKind::Table => {
                    self.table(pte.table_addr(), level + 1, va_partial_new);
                }
                EntryKind::Block | EntryKind::Page => {
                    // Compute output address and attributes, then extend the
                    // mapping with a maplet, coalescing if possible.
                    let oa = pte.leaf_oa(level);
                    let attrs = pte.leaf_attrs(self.stage);
                    let state = PageState::from_sw(attrs.sw);
                    if state.is_none() {
                        self.anomalies
                            .push(Anomaly::IllegalPageState { ia: va_partial_new });
                    }
                    push_coalesce(
                        &mut self.maplets,
                        Maplet {
                            ia: va_partial_new,
                            nr_pages,
                            target: MapletTarget::Mapped {
                                oa: oa.bits(),
                                attrs: AbsAttrs {
                                    perms: attrs.perms,
                                    memtype: attrs.memtype,
                                    state,
                                },
                            },
                        },
                    );
                }
                EntryKind::Reserved => {
                    self.anomalies.push(Anomaly::ReservedDescriptor {
                        table: table.bits(),
                        index: idx,
                        level,
                    });
                }
            }
        }
    }
}

/// Abstraction of pKVM's own stage 1: the full extensional mapping.
pub fn abstract_hyp(mem: &PhysMem, root: PhysAddr, anomalies: &mut Vec<Anomaly>) -> GhostPkvm {
    GhostPkvm {
        pgt: interpret_pgtable(mem, Stage::Stage1, root, anomalies),
    }
}

/// Abstraction of the host's stage 2.
///
/// Splits the interpretation into the two deterministic sub-maps the ghost
/// tracks (annotations; shared/borrowed pages) and *checks* — rather than
/// records — the loosely-specified mapped-on-demand remainder: every plain
/// host-owned mapping must be an identity mapping of real memory with the
/// attributes the on-demand path installs.
pub fn abstract_host(
    mem: &PhysMem,
    root: PhysAddr,
    globals: &GhostGlobals,
    anomalies: &mut Vec<Anomaly>,
) -> GhostHost {
    let interp = interpret_pgtable(mem, Stage::Stage2, root, anomalies);
    abstract_host_from_interp(&interp, globals, anomalies)
}

/// The partitioning-and-checking half of [`abstract_host`], over an
/// already-computed interpretation (possibly served by the incremental
/// cache). The result is a function of `interp` and `globals` alone, which
/// is what lets the cache memoize it for as long as its interpretation
/// stays unchanged and the check found nothing.
pub fn abstract_host_from_interp(
    interp: &AbstractPgtable,
    globals: &GhostGlobals,
    anomalies: &mut Vec<Anomaly>,
) -> GhostHost {
    let mut annot = Vec::new();
    let mut shared = Vec::new();
    partition_host(
        interp.mapping.iter(),
        globals,
        &mut annot,
        &mut shared,
        anomalies,
    );
    GhostHost {
        annot: Mapping::from_canonical(annot),
        shared: Mapping::from_canonical(shared),
        table_pages: interp.table_pages.clone(),
    }
}

/// The partition and legality check of [`abstract_host_from_interp`] over
/// `maplets`, in address order: pushes annotations to `annot`, shared and
/// borrowed pages to `shared`, and reports the loose region's illegal
/// pages. Every verdict is per page, so the incremental cache can rerun it
/// over just the ranges a replay rewrote.
pub(crate) fn partition_host<'m>(
    maplets: impl IntoIterator<Item = &'m Maplet>,
    globals: &GhostGlobals,
    annot: &mut Vec<Maplet>,
    shared: &mut Vec<Maplet>,
    anomalies: &mut Vec<Anomaly>,
) {
    for m in maplets {
        match m.target {
            MapletTarget::Annotated { owner } => {
                if owner != OwnerId::HOST {
                    push_coalesce(annot, *m);
                }
                // A zero-owner annotation never reaches here (zero PTEs are
                // skipped during interpretation), but annotated-host would
                // be equivalent to unmapped and is ignored.
            }
            MapletTarget::Mapped { oa, attrs } => match attrs.state {
                Some(PageState::SharedOwned) | Some(PageState::SharedBorrowed) => {
                    push_coalesce(shared, *m);
                }
                _ => {
                    // The loose region: check legality page-range-wise.
                    if oa != m.ia {
                        anomalies.push(Anomaly::HostNotIdentity { ia: m.ia, oa });
                    }
                    if in_one_ram_region(globals, oa, m.nr_pages * PAGE_SIZE) {
                        continue;
                    }
                    for i in 0..m.nr_pages {
                        let pa = oa + i * PAGE_SIZE;
                        if globals.is_ram(pa) {
                            continue;
                        }
                        if globals.is_mmio(pa) {
                            if attrs.memtype != MemType::Device || attrs.perms != Perms::RW {
                                anomalies.push(Anomaly::HostBadDeviceAttrs {
                                    ia: m.ia + i * PAGE_SIZE,
                                });
                            }
                        } else {
                            anomalies.push(Anomaly::HostOutsideMemory {
                                ia: m.ia + i * PAGE_SIZE,
                            });
                        }
                    }
                }
            },
        }
    }
}

/// `true` if the `len` bytes from `pa` lie inside one RAM region: every
/// page of such a range passes the per-page legality check, so it can be
/// skipped.
fn in_one_ram_region(globals: &GhostGlobals, pa: u64, len: u64) -> bool {
    globals
        .ram
        .iter()
        .any(|&(base, size)| pa >= base && pa - base < size && len <= size - (pa - base))
}

/// Abstraction of one VM's lock-protected metadata, from the concrete
/// view exposed at its lock.
pub fn abstract_vm(mem: &PhysMem, view: &VmView, anomalies: &mut Vec<Anomaly>) -> GhostVm {
    let pgt = interpret_pgtable(mem, Stage::Stage2, view.s2_root, anomalies);
    abstract_vm_with_pgt(view, pgt)
}

/// The metadata half of [`abstract_vm`], over an already-interpreted
/// stage 2 (possibly served by the incremental cache).
pub fn abstract_vm_with_pgt(view: &VmView, pgt: AbstractPgtable) -> GhostVm {
    GhostVm {
        handle: view.handle,
        slot: view.slot,
        protected: view.protected,
        pgt,
        donated: view.donated.iter().map(|p| p.pfn()).collect(),
        firmware: view.firmware.iter().map(|p| p.pfn()).collect(),
        vcpus: view
            .vcpus
            .iter()
            .map(|v| {
                if let Some(on) = v.loaded_on {
                    GhostVcpu::Loaded { on }
                } else if v.initialized {
                    GhostVcpu::Present {
                        regs: v.regs,
                        memcache: v.memcache_pages.iter().map(|p| p.pfn()).collect(),
                    }
                } else {
                    GhostVcpu::Uninit
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_aarch64::attrs::Attrs;
    use pkvm_aarch64::memory::MemRegion;
    use pkvm_hyp::owner::annotation_pte;

    fn mem() -> PhysMem {
        PhysMem::new(vec![
            MemRegion::ram(0x4000_0000, 0x800_0000),
            MemRegion::mmio(0x900_0000, 0x1000),
        ])
    }

    fn globals() -> GhostGlobals {
        GhostGlobals {
            nr_cpus: 1,
            physvirt_offset: 0x8000_0000_0000,
            uart_va: 0,
            hyp_range: (0x44000, 1024),
            ram: vec![(0x4000_0000, 0x800_0000)],
            mmio: vec![(0x900_0000, 0x1000)],
        }
    }

    /// Builds a tiny concrete table by hand: a level-3 page, a level-2
    /// block, and a coarse annotation.
    fn build_table(mem: &PhysMem) -> PhysAddr {
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        mem.write_pte(root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 1, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        // Two adjacent pages with contiguous outputs: must coalesce.
        let attrs = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_0000), attrs),
        )
        .unwrap();
        mem.write_pte(
            l3,
            1,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_1000), attrs),
        )
        .unwrap();
        // A 2 MiB block further along.
        mem.write_pte(
            l2,
            5,
            Pte::leaf(Stage::Stage2, 2, PhysAddr::new(0x4420_0000), attrs),
        )
        .unwrap();
        // An annotated (hyp-owned) 2 MiB region.
        mem.write_pte(l2, 7, annotation_pte(OwnerId::HYP)).unwrap();
        root
    }

    #[test]
    fn interpret_coalesces_and_counts_footprint() {
        let mem = mem();
        let root = build_table(&mem);
        let mut anomalies = Vec::new();
        let abs = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(anomalies.is_empty(), "{anomalies:?}");
        // Footprint: root, l1, l2, l3.
        assert_eq!(abs.table_pages.len(), 4);
        // Maplets: coalesced 2-page run, the block, the annotation.
        assert_eq!(abs.mapping.len(), 3);
        assert_eq!(abs.mapping.nr_pages(), 2 + 512 + 512);
        // IA of the block: index 1 at level 1 (1 GiB) + index 5 at level 2.
        let block_ia = (1u64 << 30) + 5 * (2 << 20);
        assert_eq!(
            abs.mapping.lookup(block_ia),
            Some(MapletTarget::Mapped {
                oa: 0x4420_0000,
                attrs: AbsAttrs {
                    perms: Perms::RWX,
                    memtype: MemType::Normal,
                    state: Some(PageState::Owned)
                }
            })
        );
        let annot_ia = (1u64 << 30) + 7 * (2 << 20);
        assert_eq!(
            abs.mapping.lookup(annot_ia),
            Some(MapletTarget::Annotated {
                owner: OwnerId::HYP
            })
        );
    }

    #[test]
    fn interpret_flags_reserved_descriptors() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        mem.write_pte(root, 3, Pte(0b01)).unwrap(); // block at level 0: reserved
        let mut anomalies = Vec::new();
        interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(matches!(
            anomalies[0],
            Anomaly::ReservedDescriptor {
                index: 3,
                level: 0,
                ..
            }
        ));
    }

    #[test]
    fn abstract_host_partitions_and_checks() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        mem.write_pte(root, 1, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let base = 1u64 << 39; // ia of root index 1
                               // Identity owned mapping (legal, untracked).
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        // Careful: identity means oa == ia, but `base` is outside RAM; use
        // a RAM address through root index 0 instead. Simpler: shared page.
        let shared = Attrs::normal(Perms::RWX).with_sw(PageState::SharedOwned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_0000), shared),
        )
        .unwrap();
        // Non-identity owned mapping: must be flagged.
        mem.write_pte(
            l3,
            1,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4200_5000), owned),
        )
        .unwrap();
        // Annotation for a guest.
        mem.write_pte(l3, 2, annotation_pte(OwnerId::guest(0)))
            .unwrap();
        let mut anomalies = Vec::new();
        let host = abstract_host(&mem, root, &globals(), &mut anomalies);
        assert_eq!(host.shared.nr_pages(), 1);
        assert_eq!(host.annot.nr_pages(), 1);
        assert_eq!(
            host.shared
                .lookup(base)
                .map(|t| matches!(t, MapletTarget::Mapped { .. })),
            Some(true)
        );
        assert!(
            anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::HostNotIdentity { ia, .. } if *ia == base + 0x1000)),
            "{anomalies:?}"
        );

        // Identity-mapped owned runs through root index 0: one straddling
        // the end of RAM (0x4800_0000) across two l3 nodes, and one over
        // the MMIO page (0x900_0000) with normal-memory attributes.
        let [l1b, l2b, l2c, l3b, l3c, l3d] = [
            0x4400_4000,
            0x4400_5000,
            0x4400_6000,
            0x4400_7000,
            0x4400_8000,
            0x4400_9000,
        ]
        .map(PhysAddr::new);
        mem.write_pte(root, 0, Pte::table(l1b)).unwrap();
        mem.write_pte(l1b, 0, Pte::table(l2c)).unwrap();
        mem.write_pte(l1b, 1, Pte::table(l2b)).unwrap();
        mem.write_pte(l2b, 63, Pte::table(l3b)).unwrap();
        mem.write_pte(l2b, 64, Pte::table(l3c)).unwrap();
        mem.write_pte(l2c, 72, Pte::table(l3d)).unwrap();
        let identity = |table: PhysAddr, idx: usize, pa: u64| {
            mem.write_pte(
                table,
                idx,
                Pte::leaf(Stage::Stage2, 3, PhysAddr::new(pa), owned),
            )
            .unwrap();
        };
        identity(l3b, 511, 0x47ff_f000);
        identity(l3c, 0, 0x4800_0000);
        identity(l3c, 1, 0x4800_1000);
        identity(l3d, 0, 0x900_0000);
        identity(l3d, 1, 0x900_1000);
        let mut anomalies = Vec::new();
        let interp = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(anomalies.is_empty(), "{anomalies:?}");
        abstract_host_from_interp(&interp, &globals(), &mut anomalies);
        assert_eq!(anomalies, per_page_legality(&interp, &globals()));
        assert_eq!(
            anomalies,
            vec![
                Anomaly::HostBadDeviceAttrs { ia: 0x900_0000 },
                Anomaly::HostOutsideMemory { ia: 0x900_1000 },
                Anomaly::HostOutsideMemory { ia: 0x4800_0000 },
                Anomaly::HostOutsideMemory { ia: 0x4800_1000 },
                Anomaly::HostNotIdentity {
                    ia: base + 0x1000,
                    oa: 0x4200_5000
                },
            ]
        );
    }

    /// The legality check of the loose host region as a plain per-page
    /// loop over every maplet: the reference the range-wise check must
    /// reproduce, anomaly for anomaly and in order.
    fn per_page_legality(interp: &AbstractPgtable, globals: &GhostGlobals) -> Vec<Anomaly> {
        let mut out = Vec::new();
        for m in interp.mapping.iter() {
            let MapletTarget::Mapped { oa, attrs } = m.target else {
                continue;
            };
            if matches!(
                attrs.state,
                Some(PageState::SharedOwned) | Some(PageState::SharedBorrowed)
            ) {
                continue;
            }
            if oa != m.ia {
                out.push(Anomaly::HostNotIdentity { ia: m.ia, oa });
            }
            for i in 0..m.nr_pages {
                let (pa, ia) = (oa + i * PAGE_SIZE, m.ia + i * PAGE_SIZE);
                if globals.is_ram(pa) {
                    continue;
                }
                if !globals.is_mmio(pa) {
                    out.push(Anomaly::HostOutsideMemory { ia });
                } else if attrs.memtype != MemType::Device || attrs.perms != Perms::RW {
                    out.push(Anomaly::HostBadDeviceAttrs { ia });
                }
            }
        }
        out
    }

    #[test]
    fn abstract_host_accepts_legal_identity_mappings() {
        let mem = mem();
        let root = PhysAddr::new(0x4400_0000);
        let l1 = PhysAddr::new(0x4400_1000);
        let l2 = PhysAddr::new(0x4400_2000);
        let l3 = PhysAddr::new(0x4400_3000);
        // ia 0x4000_0000: root idx 0, l1 idx 1, l2 idx 0, l3 idx 0.
        mem.write_pte(root, 0, Pte::table(l1)).unwrap();
        mem.write_pte(l1, 1, Pte::table(l2)).unwrap();
        mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
        let owned = Attrs::normal(Perms::RWX).with_sw(PageState::Owned.to_sw());
        mem.write_pte(
            l3,
            0,
            Pte::leaf(Stage::Stage2, 3, PhysAddr::new(0x4000_0000), owned),
        )
        .unwrap();
        let mut anomalies = Vec::new();
        let host = abstract_host(&mem, root, &globals(), &mut anomalies);
        assert!(anomalies.is_empty(), "{anomalies:?}");
        // Legal owned mappings are deliberately not tracked.
        assert!(host.shared.is_empty() && host.annot.is_empty());
    }
}
