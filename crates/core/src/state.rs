//! The reified ghost state (§3.1).
//!
//! A [`GhostState`] is the mathematical abstraction of the hypervisor's
//! concrete state: abstract page tables as finite range maps, VM and vCPU
//! metadata, per-CPU register context, and the constants established at
//! initialisation. Every lock-protected component is optional — a ghost
//! state is *partial*, holding exactly the components whose locks were
//! held when it was recorded, mirroring the implementation ownership
//! structure.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use pkvm_aarch64::sysreg::GprFile;
use pkvm_hyp::hooks::Component;
use pkvm_hyp::vm::Handle;

use crate::mapping::Mapping;

/// Constants established during pKVM initialisation: "the number of
/// physical CPUs, the offset of the linear mapping, and constants
/// specifying the conversion between host and pKVM virtual addresses".
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GhostGlobals {
    /// Number of hardware threads.
    pub nr_cpus: usize,
    /// `hyp_va = pa + physvirt_offset`.
    pub physvirt_offset: u64,
    /// Where the hypervisor mapped its UART.
    pub uart_va: u64,
    /// The hypervisor carveout as (base pfn, page count).
    pub hyp_range: (u64, u64),
    /// RAM regions as (base, size).
    pub ram: Vec<(u64, u64)>,
    /// MMIO regions as (base, size).
    pub mmio: Vec<(u64, u64)>,
}

impl GhostGlobals {
    /// The linear-map hypervisor VA of physical address `pa`.
    pub fn hyp_va(&self, pa: u64) -> u64 {
        pa.wrapping_add(self.physvirt_offset)
    }

    /// Returns `true` if `pa` lies in a RAM region ("allowed memory" in
    /// Fig. 5's `ghost_addr_is_allowed_memory`).
    pub fn is_ram(&self, pa: u64) -> bool {
        self.ram.iter().any(|&(b, s)| pa >= b && pa - b < s)
    }

    /// Returns `true` if `pa` lies in an MMIO region.
    pub fn is_mmio(&self, pa: u64) -> bool {
        self.mmio.iter().any(|&(b, s)| pa >= b && pa - b < s)
    }
}

/// The page frame numbers of a table's nodes. Copy-on-write like a
/// [`Mapping`]'s maplets: copies of a ghost state share one set (a clone is
/// a refcount bump), and [`Arc::make_mut`] copies it only while shared.
pub type TablePages = Arc<BTreeSet<u64>>;

/// The empty footprint. All empty footprints share one storage, so blank
/// and erased components do not allocate.
pub(crate) fn no_table_pages() -> TablePages {
    static EMPTY: OnceLock<TablePages> = OnceLock::new();
    EMPTY.get_or_init(TablePages::default).clone()
}

/// An interpreted page table: its extensional mapping plus the physical
/// footprint of the table nodes themselves (used by the separation check,
/// §4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractPgtable {
    /// The finite range map the table denotes.
    pub mapping: Mapping,
    /// Page frame numbers of every table node reachable from the root
    /// (including the root).
    pub table_pages: TablePages,
}

impl Default for AbstractPgtable {
    fn default() -> AbstractPgtable {
        AbstractPgtable {
            mapping: Mapping::default(),
            table_pages: no_table_pages(),
        }
    }
}

/// Abstraction of pKVM's own stage 1 component.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GhostPkvm {
    /// pKVM's stage 1 as an abstract page table.
    pub pgt: AbstractPgtable,
}

/// Abstraction of the host stage 2 component.
///
/// Deliberately *not* the full host mapping (§3.1): mapping-on-demand makes
/// plain host-owned mappings nondeterministic, so the ghost records only
/// the two deterministic sub-maps — the owner annotations and the
/// shared/borrowed pages — and checks legality of the rest separately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostHost {
    /// Pages owned by pKVM or a guest (invalid-descriptor annotations).
    pub annot: Mapping,
    /// Pages owned-and-shared by the host, or borrowed by it.
    pub shared: Mapping,
    /// The table-node footprint of the host stage 2.
    pub table_pages: TablePages,
}

impl Default for GhostHost {
    fn default() -> GhostHost {
        GhostHost {
            annot: Mapping::default(),
            shared: Mapping::default(),
            table_pages: no_table_pages(),
        }
    }
}

/// Abstraction of one vCPU's metadata.
// `Present` is much larger than the other variants; vCPU counts are tiny.
#[expect(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhostVcpu {
    /// Not yet initialised.
    Uninit,
    /// Initialised, resident under the VM lock.
    Present {
        /// Saved guest registers.
        regs: GprFile,
        /// Pfns of the pages in the vCPU's memcache.
        memcache: Vec<u64>,
    },
    /// Loaded on a physical CPU (its state is thread-local there).
    Loaded {
        /// The owning hardware thread.
        on: usize,
    },
}

/// Abstraction of one VM's lock-protected metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostVm {
    /// The host-visible handle.
    pub handle: Handle,
    /// VM-table slot (fixes the guest owner id).
    pub slot: usize,
    /// Protected VMs receive donated (not shared) memory.
    pub protected: bool,
    /// The guest's stage 2 as an abstract page table.
    pub pgt: AbstractPgtable,
    /// Pfns of the metadata pages the host donated.
    pub donated: Vec<u64>,
    /// Pfns of the pvmfw-style firmware region (`vm_load_firmware`);
    /// never returned to the host.
    pub firmware: Vec<u64>,
    /// Per-index vCPU abstractions.
    pub vcpus: Vec<GhostVcpu>,
}

/// Thread-local ghost state of a loaded vCPU (ownership transferred from
/// the VM lock to the hardware thread).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GhostLoadedVcpu {
    /// The VM it belongs to.
    pub handle: Handle,
    /// Its index within the VM.
    pub idx: usize,
    /// Saved guest registers at the transfer point.
    pub regs: GprFile,
    /// Memcache pfns at the transfer point.
    pub memcache: Vec<u64>,
}

/// The per-hardware-thread component: the saved EL1 context and the
/// loaded vCPU.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GhostCpu {
    /// The saved host registers.
    pub regs: GprFile,
    /// The vCPU loaded on this thread, if any.
    pub loaded: Option<GhostLoadedVcpu>,
}

/// One component of a (partial) ghost state: the unit a lock hook
/// records, the shared copy stamps, and the ternary check compares.
///
/// Its [`Display`](fmt::Display) form — `host`, `pkvm`, `vm_table`,
/// `vm[<handle>]` and `locals[<cpu>]`, in decimal — is the component name
/// every spec-mismatch, unexpected-change and non-interference report
/// carries. `.pkvmtrace` violation records store it and fuzz-triage crash
/// signatures are keyed on it, so it never changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Part {
    /// The host's stage 2 ([`GhostState::host`]).
    Host,
    /// pKVM's stage 1 ([`GhostState::pkvm`]).
    Pkvm,
    /// The VM table ([`GhostState::vm_table`]).
    VmTable,
    /// One VM, by handle ([`GhostState::vms`]).
    Vm(Handle),
    /// One hardware thread's local state ([`GhostState::locals`]).
    Locals(usize),
}

/// The ghost part a hypervisor lock protects.
impl From<Component> for Part {
    fn from(comp: Component) -> Part {
        match comp {
            Component::Host => Part::Host,
            Component::Hyp => Part::Pkvm,
            Component::VmTable => Part::VmTable,
            Component::Vm(h) => Part::Vm(h),
        }
    }
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Part::Host => f.write_str("host"),
            Part::Pkvm => f.write_str("pkvm"),
            Part::VmTable => f.write_str("vm_table"),
            Part::Vm(h) => write!(f, "vm[{h}]"),
            Part::Locals(cpu) => write!(f, "locals[{cpu}]"),
        }
    }
}

/// The (partial) ghost state: the `struct ghost_state` of §3.1.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GhostState {
    /// pKVM's stage 1, if its lock was held.
    pub pkvm: Option<GhostPkvm>,
    /// The host's stage 2, if its lock was held.
    pub host: Option<GhostHost>,
    /// The VM table (live handle/slot pairs, sorted), if its lock was held.
    pub vm_table: Option<Vec<(Handle, usize)>>,
    /// Per-VM components, for each VM whose lock was held.
    pub vms: BTreeMap<Handle, GhostVm>,
    /// Per-CPU local components, for each recorded hardware thread.
    pub locals: BTreeMap<usize, GhostCpu>,
    /// Initialisation-time constants.
    pub globals: GhostGlobals,
}

impl GhostState {
    /// A blank state carrying only the globals.
    pub fn blank(globals: &GhostGlobals) -> GhostState {
        GhostState {
            globals: globals.clone(),
            ..GhostState::default()
        }
    }

    /// Drops every part, keeping the globals: blank again, without
    /// copying the globals. The oracle resets its per-trap records so.
    pub(crate) fn clear_parts(&mut self) {
        let GhostState {
            pkvm,
            host,
            vm_table,
            vms,
            locals,
            globals: _,
        } = self;
        *pkvm = None;
        *host = None;
        *vm_table = None;
        vms.clear();
        locals.clear();
    }

    /// The parts this state holds, in a fixed order: host, pkvm, the VM
    /// table, then VMs by handle and locals by CPU.
    pub fn parts(&self) -> impl Iterator<Item = Part> + '_ {
        [
            (self.host.is_some(), Part::Host),
            (self.pkvm.is_some(), Part::Pkvm),
            (self.vm_table.is_some(), Part::VmTable),
        ]
        .into_iter()
        .filter_map(|(held, part)| held.then_some(part))
        .chain(self.vms.keys().map(|&h| Part::Vm(h)))
        .chain(self.locals.keys().map(|&cpu| Part::Locals(cpu)))
    }

    /// Whether this state holds `part`.
    pub fn has(&self, part: Part) -> bool {
        match part {
            Part::Host => self.host.is_some(),
            Part::Pkvm => self.pkvm.is_some(),
            Part::VmTable => self.vm_table.is_some(),
            Part::Vm(h) => self.vms.contains_key(&h),
            Part::Locals(cpu) => self.locals.contains_key(&cpu),
        }
    }

    /// Makes `part` of this state what it is in `src`: a copy where `src`
    /// holds it, absent where `src` does not.
    pub fn copy_part(&mut self, src: &GhostState, part: Part) {
        fn copy_entry<K: Ord + Copy, V: Clone>(
            dst: &mut BTreeMap<K, V>,
            src: &BTreeMap<K, V>,
            k: K,
        ) {
            match src.get(&k) {
                Some(v) => dst.insert(k, v.clone()),
                None => dst.remove(&k),
            };
        }
        match part {
            Part::Host => self.host = src.host.clone(),
            Part::Pkvm => self.pkvm = src.pkvm.clone(),
            Part::VmTable => self.vm_table = src.vm_table.clone(),
            Part::Vm(h) => copy_entry(&mut self.vms, &src.vms, h),
            Part::Locals(cpu) => copy_entry(&mut self.locals, &src.locals, cpu),
        }
    }

    /// A state holding only `part` of this one (nothing, if this one
    /// lacks it) and default globals.
    pub fn only(&self, part: Part) -> GhostState {
        let mut s = GhostState::default();
        s.copy_part(self, part);
        s
    }

    /// Copies the host component from `src` (the `copy_abstraction_host`
    /// of Fig. 5 step (3)).
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold the component — the spec may only
    /// copy parts the handler actually locked.
    pub fn copy_host_from(&mut self, src: &GhostState) {
        self.host = Some(
            src.host
                .clone()
                .expect("host component absent in pre-state"),
        );
    }

    /// Copies the pKVM component from `src` (`copy_abstraction_pkvm`).
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold the component.
    pub fn copy_pkvm_from(&mut self, src: &GhostState) {
        self.pkvm = Some(
            src.pkvm
                .clone()
                .expect("pkvm component absent in pre-state"),
        );
    }

    /// Copies one VM component from `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold that VM.
    pub fn copy_vm_from(&mut self, src: &GhostState, handle: Handle) {
        let vm = src
            .vms
            .get(&handle)
            .expect("vm component absent in pre-state")
            .clone();
        self.vms.insert(handle, vm);
    }

    /// Copies the VM-table component from `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold it.
    pub fn copy_vm_table_from(&mut self, src: &GhostState) {
        self.vm_table = Some(
            src.vm_table
                .clone()
                .expect("vm_table component absent in pre-state"),
        );
    }

    /// Copies the local component of `cpu` from `src`.
    pub fn copy_local_from(&mut self, src: &GhostState, cpu: usize) {
        if let Some(l) = src.locals.get(&cpu) {
            self.locals.insert(cpu, l.clone());
        }
    }

    /// Reads a general-purpose register of `cpu`'s recorded context
    /// (`ghost_read_gpr`).
    ///
    /// # Panics
    ///
    /// Panics if the local component of `cpu` is absent.
    pub fn read_gpr(&self, cpu: usize, n: usize) -> u64 {
        self.locals
            .get(&cpu)
            .expect("local component absent")
            .regs
            .get(n)
    }

    /// Writes a general-purpose register of `cpu`'s context in this state
    /// (`ghost_write_gpr`), creating the local component if needed.
    pub fn write_gpr(&mut self, cpu: usize, n: usize, v: u64) {
        self.locals.entry(cpu).or_default().regs.set(n, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globals() -> GhostGlobals {
        GhostGlobals {
            nr_cpus: 2,
            physvirt_offset: 0x8000_0000_0000,
            uart_va: 0x8800_0000_0000,
            hyp_range: (0x44000, 1024),
            ram: vec![(0x4000_0000, 0x800_0000)],
            mmio: vec![(0x900_0000, 0x1000)],
        }
    }

    #[test]
    fn globals_address_predicates() {
        let g = globals();
        assert!(g.is_ram(0x4000_0000));
        assert!(g.is_ram(0x47ff_ffff));
        assert!(!g.is_ram(0x4800_0000));
        assert!(g.is_mmio(0x900_0800));
        assert!(!g.is_mmio(0x901_0000));
        assert_eq!(g.hyp_va(0x4000_0000), 0x8000_4000_0000);
    }

    #[test]
    fn blank_state_is_fully_partial() {
        let s = GhostState::blank(&globals());
        assert!(s.pkvm.is_none() && s.host.is_none() && s.vm_table.is_none());
        assert!(s.vms.is_empty() && s.locals.is_empty());
        assert_eq!(s.globals, globals());
    }

    #[test]
    fn copy_helpers_move_components() {
        let mut src = GhostState::blank(&globals());
        src.host = Some(GhostHost::default());
        src.write_gpr(1, 0, 42);
        let mut dst = GhostState::blank(&globals());
        dst.copy_host_from(&src);
        dst.copy_local_from(&src, 1);
        assert!(dst.host.is_some());
        assert_eq!(dst.read_gpr(1, 0), 42);
    }

    #[test]
    #[should_panic(expected = "pkvm component absent")]
    fn copy_of_absent_component_panics() {
        let src = GhostState::blank(&globals());
        let mut dst = GhostState::blank(&globals());
        dst.copy_pkvm_from(&src);
    }

    #[test]
    fn component_names_are_pinned() {
        // `.pkvmtrace` violation records store these strings and fuzz
        // triage keys crash signatures on them.
        let names: Vec<String> = [
            Part::Host,
            Part::Pkvm,
            Part::VmTable,
            Part::Vm(0x1000),
            Part::Locals(1),
        ]
        .iter()
        .map(Part::to_string)
        .collect();
        assert_eq!(names, ["host", "pkvm", "vm_table", "vm[4096]", "locals[1]"]);
        let locked: Vec<String> = [
            Component::Host,
            Component::Hyp,
            Component::VmTable,
            Component::Vm(0x1000),
        ]
        .into_iter()
        .map(|c| Part::from(c).to_string())
        .collect();
        assert_eq!(locked, ["host", "pkvm", "vm_table", "vm[4096]"]);
    }

    #[test]
    fn parts_come_in_a_fixed_order_and_copy_one_at_a_time() {
        let mut s = GhostState::blank(&globals());
        s.write_gpr(1, 0, 9);
        s.vms.insert(
            0x2000,
            GhostVm {
                handle: 0x2000,
                slot: 1,
                protected: false,
                pgt: AbstractPgtable::default(),
                donated: Vec::new(),
                firmware: Vec::new(),
                vcpus: Vec::new(),
            },
        );
        s.vm_table = Some(vec![(0x2000, 1)]);
        s.host = Some(GhostHost::default());
        let parts: Vec<Part> = s.parts().collect();
        assert_eq!(
            parts,
            [Part::Host, Part::VmTable, Part::Vm(0x2000), Part::Locals(1)]
        );
        assert!(parts.iter().all(|&p| s.has(p)) && !s.has(Part::Pkvm));
        let vm = s.only(Part::Vm(0x2000));
        assert_eq!(vm.parts().collect::<Vec<_>>(), [Part::Vm(0x2000)]);
        assert_eq!(vm.globals, GhostGlobals::default());
        // Copying from a state that lacks the part removes it.
        let mut t = s.clone();
        t.copy_part(&GhostState::default(), Part::Locals(1));
        t.copy_part(&GhostState::default(), Part::Host);
        assert_eq!(
            t.parts().collect::<Vec<_>>(),
            [Part::VmTable, Part::Vm(0x2000)]
        );
        t.copy_part(&s, Part::Locals(1));
        assert_eq!(t.read_gpr(1, 0), 9);
    }

    #[test]
    fn write_gpr_creates_local() {
        let mut s = GhostState::blank(&globals());
        s.write_gpr(0, 1, 7);
        assert_eq!(s.read_gpr(0, 1), 7);
    }
}
