//! Guest virtual machines and vCPUs.
//!
//! pKVM keeps per-VM metadata (configuration, the guest's stage 2 table,
//! saved vCPU state) in hypervisor memory *donated by the host* at
//! `init_vm`/`init_vcpu` time. A single lock protects the table of VMs;
//! each VM has its own lock for its stage 2 and vCPU metadata; and a vCPU,
//! once *loaded* onto a physical CPU, is owned by that hardware thread
//! rather than the VM lock (§3.1). We model that last transfer literally:
//! loading moves the [`Vcpu`] value out of the VM into per-CPU state.

use std::collections::VecDeque;
use std::sync::Arc;

use pkvm_aarch64::addr::PhysAddr;
use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::sysreg::GprFile;

use crate::error::{Errno, HypResult};
use crate::memcache::Memcache;
use crate::owner::OwnerId;
use crate::pgtable::KvmPgtable;

/// A VM handle as returned to the host by `init_vm`.
pub type Handle = u32;

/// Handles start here so they are visibly not indices.
pub const HANDLE_OFFSET: Handle = 0x1000;

/// Maximum concurrently-live VMs.
pub const MAX_VMS: usize = 16;

/// The handle of the VM in table slot `slot`.
pub const fn handle_of_slot(slot: usize) -> Handle {
    HANDLE_OFFSET + slot as Handle
}

/// The table slot of `handle`, if plausible.
pub fn slot_of_handle(handle: Handle) -> Option<usize> {
    let slot = handle.checked_sub(HANDLE_OFFSET)? as usize;
    (slot < MAX_VMS).then_some(slot)
}

/// One scripted guest action, consumed by `vcpu_run`.
///
/// The simulation does not execute guest instructions; tests and the
/// random tester enqueue the memory accesses and hypercalls a guest would
/// perform, and `vcpu_run` produces exactly the exception flows (stage 2
/// aborts, guest HVCs) the real hypervisor would see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestOp {
    /// Guest reads its IPA `addr`.
    Read(u64),
    /// Guest writes `value` to its IPA `addr`.
    Write(u64, u64),
    /// Guest hypercall: share the page at IPA `addr` back with the host.
    HvcShareHost(u64),
    /// Guest hypercall: unshare the page at IPA `addr` from the host.
    HvcUnshareHost(u64),
    /// Guest executes WFI (yields to the host).
    Wfi,
}

/// Saved state of one virtual CPU.
#[derive(Clone, Debug, Default)]
pub struct Vcpu {
    /// The guest's saved general-purpose registers.
    pub regs: GprFile,
    /// Pages donated by the host for this vCPU's stage 2 tables.
    pub memcache: Memcache,
    /// Scripted guest behaviour, consumed one op per `vcpu_run`.
    pub pending: VecDeque<GuestOp>,
}

/// The pattern our simulated "uninitialised hypervisor memory" holds; a
/// vCPU fabricated by the bug-3 path has registers full of this.
pub const UNINIT_PATTERN: u64 = 0xaaaa_aaaa_aaaa_aaaa;

impl Vcpu {
    /// A vCPU as `init_vcpu` creates it: zeroed registers.
    pub fn initialised() -> Self {
        Self::default()
    }

    /// A vCPU as the bug-3 race observes it: garbage register contents.
    pub fn uninitialised_garbage() -> Self {
        Self {
            regs: GprFile {
                x: [UNINIT_PATTERN; 31],
            },
            ..Self::default()
        }
    }
}

/// The state of one vCPU slot in a VM.
#[derive(Debug)]
pub enum VcpuSlot {
    /// `init_vcpu` has not run for this index.
    Uninit,
    /// Initialised and resident under the VM lock.
    Present(Box<Vcpu>),
    /// Loaded onto (owned by) a physical CPU.
    LoadedOn(usize),
}

/// VM state protected by the per-VM lock.
#[derive(Debug)]
pub struct VmInner {
    /// The guest's stage 2 table.
    pub pgt: KvmPgtable,
    /// Per-index vCPU slots (length `nr_vcpus`).
    pub vcpus: Vec<VcpuSlot>,
    /// Host pages donated for VM metadata (returned at teardown).
    pub donated: Vec<PhysAddr>,
    /// Host pages donated as the pvmfw-style firmware region
    /// (`vm_load_firmware`). Never returned to the host: at teardown they
    /// are wiped and retired to the hypervisor.
    pub firmware: Vec<PhysAddr>,
}

/// One guest VM.
#[derive(Debug)]
pub struct Vm {
    /// The handle the host uses to name this VM.
    pub handle: Handle,
    /// Table slot (determines the guest [`OwnerId`] and VMID).
    pub slot: usize,
    /// Boot-monotonic incarnation id. Handles are slot-derived and reused
    /// after teardown, so two VMs can carry the same handle over a run's
    /// lifetime; the incarnation id is never reused and lets observers
    /// (the ghost oracle) tell a reused handle from the same VM.
    pub uniq: u64,
    /// Protected VMs receive *donated* memory; unprotected ones share.
    pub protected: bool,
    /// Number of vCPU slots.
    pub nr_vcpus: usize,
    /// Lock-protected stage 2 and vCPU state.
    pub inner: Mutex<VmInner>,
}

impl Vm {
    /// The guest's owner id in host-table annotations.
    pub fn owner_id(&self) -> OwnerId {
        OwnerId::guest(self.slot)
    }

    /// The guest's VMID (slot + 1; VMID 0 is the host).
    pub fn vmid(&self) -> u16 {
        self.slot as u16 + 1
    }
}

/// The table of live VMs, protected by its own lock.
#[derive(Debug, Default)]
pub struct VmTable {
    slots: Vec<Option<Arc<Vm>>>,
    /// Source of [`Vm::uniq`] incarnation ids (starts at 1; 0 never names
    /// a VM).
    next_uniq: u64,
}

impl VmTable {
    /// An empty table with `MAX_VMS` slots.
    pub fn new() -> Self {
        Self {
            slots: (0..MAX_VMS).map(|_| None).collect(),
            next_uniq: 0,
        }
    }

    /// Inserts a new VM, returning it.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when every slot is taken (mirroring pKVM's handle
    /// allocation failure).
    pub fn insert(
        &mut self,
        protected: bool,
        nr_vcpus: usize,
        s2_root: PhysAddr,
        donated: Vec<PhysAddr>,
    ) -> HypResult<Arc<Vm>> {
        let slot = self
            .slots
            .iter()
            .position(Option::is_none)
            .ok_or(Errno::ENOMEM)?;
        self.next_uniq += 1;
        let vm = Arc::new(Vm {
            handle: handle_of_slot(slot),
            slot,
            uniq: self.next_uniq,
            protected,
            nr_vcpus,
            inner: Mutex::new(VmInner {
                pgt: KvmPgtable {
                    root: s2_root,
                    stage: Stage::Stage2,
                },
                vcpus: (0..nr_vcpus).map(|_| VcpuSlot::Uninit).collect(),
                donated,
                firmware: Vec::new(),
            }),
        });
        self.slots[slot] = Some(Arc::clone(&vm));
        Ok(vm)
    }

    /// Looks up a VM by handle.
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown or stale handles.
    pub fn get(&self, handle: Handle) -> HypResult<Arc<Vm>> {
        slot_of_handle(handle)
            .and_then(|s| self.slots[s].clone())
            .ok_or(Errno::ENOENT)
    }

    /// Removes a VM by handle (teardown).
    ///
    /// # Errors
    ///
    /// Returns `ENOENT` for unknown handles.
    pub fn remove(&mut self, handle: Handle) -> HypResult<Arc<Vm>> {
        let slot = slot_of_handle(handle).ok_or(Errno::ENOENT)?;
        self.slots[slot].take().ok_or(Errno::ENOENT)
    }

    /// Handles and slots of all live VMs (for abstraction recording).
    pub fn live(&self) -> Vec<(Handle, usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|vm| (vm.handle, i)))
            .collect()
    }

    /// Handles and incarnation ids of all live VMs (for the oracle's
    /// handle-reuse disambiguation).
    pub fn live_uniqs(&self) -> Vec<(Handle, u64)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|vm| (vm.handle, vm.uniq)))
            .collect()
    }

    /// Number of live VMs.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns `true` if no VMs exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PhysAddr {
        PhysAddr::new(0x4500_0000)
    }

    #[test]
    fn handles_are_offset_slots() {
        assert_eq!(handle_of_slot(0), 0x1000);
        assert_eq!(slot_of_handle(0x1003), Some(3));
        assert_eq!(slot_of_handle(0x999), None);
        assert_eq!(slot_of_handle(0x1000 + MAX_VMS as u32), None);
    }

    #[test]
    fn insert_get_remove() {
        let mut t = VmTable::new();
        let vm = t.insert(true, 2, root(), vec![]).unwrap();
        assert_eq!(vm.handle, 0x1000);
        assert_eq!(vm.vmid(), 1);
        assert_eq!(vm.owner_id(), OwnerId::guest(0));
        assert_eq!(t.get(vm.handle).unwrap().handle, vm.handle);
        assert_eq!(t.len(), 1);
        t.remove(vm.handle).unwrap();
        assert!(t.is_empty());
        assert!(matches!(t.get(vm.handle), Err(Errno::ENOENT)));
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut t = VmTable::new();
        let a = t.insert(true, 1, root(), vec![]).unwrap();
        let b = t.insert(true, 1, root(), vec![]).unwrap();
        assert_ne!(a.handle, b.handle);
        t.remove(a.handle).unwrap();
        let c = t.insert(false, 1, root(), vec![]).unwrap();
        assert_eq!(c.handle, a.handle, "first free slot is reused");
    }

    #[test]
    fn incarnation_ids_survive_handle_reuse() {
        let mut t = VmTable::new();
        let a = t.insert(true, 1, root(), vec![]).unwrap();
        let a_uniq = a.uniq;
        t.remove(a.handle).unwrap();
        let b = t.insert(true, 1, root(), vec![]).unwrap();
        assert_eq!(b.handle, a.handle, "handle is reused");
        assert_ne!(b.uniq, a_uniq, "incarnation id is not");
        assert_eq!(t.live_uniqs(), vec![(b.handle, b.uniq)]);
    }

    #[test]
    fn table_fills_up() {
        let mut t = VmTable::new();
        for _ in 0..MAX_VMS {
            t.insert(true, 1, root(), vec![]).unwrap();
        }
        assert_eq!(t.insert(true, 1, root(), vec![]).err(), Some(Errno::ENOMEM));
    }

    #[test]
    fn vcpu_slots_start_uninit() {
        let mut t = VmTable::new();
        let vm = t.insert(true, 3, root(), vec![]).unwrap();
        let inner = vm.inner.lock();
        assert_eq!(inner.vcpus.len(), 3);
        assert!(inner.vcpus.iter().all(|s| matches!(s, VcpuSlot::Uninit)));
    }

    #[test]
    fn garbage_vcpu_has_the_uninit_pattern() {
        let v = Vcpu::uninitialised_garbage();
        assert_eq!(v.regs.get(0), UNINIT_PATTERN);
        assert_eq!(v.regs.get(30), UNINIT_PATTERN);
        let w = Vcpu::initialised();
        assert_eq!(w.regs.get(0), 0);
    }
}
