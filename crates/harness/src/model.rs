//! The very abstract model guiding random test generation (§5).
//!
//! Truly random hypercalls either crash the system under test or bounce
//! off the first permission check without ever progressing through the
//! state machine. The paper resolves the tension by keeping, inside the
//! generator, an abstraction *of the specification's already-abstract
//! ghost state*: "a pool of allocated host memory, the subset of that
//! which has been donated to pKVM, the VMs with their handles and their
//! corresponding shared memory, the vCPUs also with their handles and
//! corresponding shared memory, and the vCPU memcache pages". This module
//! is that model: enough state to propose mostly-valid calls, predict
//! which would crash the host, and steer towards deep states.

use std::collections::HashMap;
use std::ops::Deref;

use pkvm_hyp::vm::Handle;

use crate::rng::{Rng, SliceChoose};

/// What the model believes about one page it allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageUse {
    /// Owned by the host, free for any use.
    Free,
    /// Shared with the hypervisor (`host_share_hyp`).
    SharedHyp,
    /// Donated for VM/vCPU metadata or memcache (unavailable until the
    /// owning VM is torn down).
    Donated {
        /// The VM it was donated for.
        vm: Handle,
    },
    /// Mapped into a guest.
    GuestMapped {
        /// The VM it is mapped into.
        vm: Handle,
        /// The guest frame it backs.
        gfn: u64,
    },
    /// Awaiting `host_reclaim_page` after a teardown.
    Reclaimable,
    /// Donated as protected-VM firmware (`vm_load_firmware`). Terminal:
    /// the host never regains the page, even across teardown.
    Firmware,
}

/// One modelled vCPU.
#[derive(Clone, Debug)]
pub struct ModelVcpu {
    /// Has `init_vcpu` succeeded?
    pub initialized: bool,
    /// The CPU it is loaded on, if any.
    pub loaded_on: Option<usize>,
    /// Estimated memcache fill.
    pub memcache: u64,
}

/// One modelled VM.
#[derive(Clone, Debug)]
pub struct ModelVm {
    /// The handle `init_vm` returned.
    pub handle: Handle,
    /// Protected VMs take donations; unprotected ones shares.
    pub protected: bool,
    /// Modelled vCPUs.
    pub vcpus: Vec<ModelVcpu>,
    /// Guest frames currently mapped, with the backing host pfn.
    pub mapped: Vec<(u64, u64)>, // (gfn, pfn)
    /// Guest frames currently shared back with the host.
    pub guest_shared: Vec<u64>,
    /// Next fresh gfn to map.
    pub next_gfn: u64,
}

/// The pages the model allocated, in allocation order, each with its
/// believed use. A page's position is its *slot*. Allocator chaos can
/// hand out a pfn the model already holds, so one pfn may fill several
/// slots. The list is read-only outside [`TestModel`], whose index must
/// see every change.
#[derive(Clone, Debug, Default)]
pub struct Pages(Vec<(u64, PageUse)>);

impl Deref for Pages {
    type Target = [(u64, PageUse)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// The uses without a VM attached, the ones the model indexes, in index
/// order.
const INDEXED: [PageUse; 4] = [
    PageUse::Free,
    PageUse::SharedHyp,
    PageUse::Reclaimable,
    PageUse::Firmware,
];

impl PageUse {
    /// Where [`TestModel`] indexes pages in this use: a position in
    /// [`INDEXED`], or `None` for the uses that name a VM.
    fn class(self) -> Option<usize> {
        INDEXED.iter().position(|&u| u == self)
    }

    /// The VM this use names, if any.
    fn vm(self) -> Option<Handle> {
        match self {
            PageUse::Donated { vm } | PageUse::GuestMapped { vm, .. } => Some(vm),
            _ => None,
        }
    }
}

/// The generator's model of the system state.
///
/// Every query a step makes is answered from an index rather than by a
/// walk over [`pages`](Self::pages): for each use without a VM, the
/// ascending slots in that use; for each VM, the slots whose use names
/// it; and for each pfn, its first slot and how many slots hold it.
/// [`pick`](Self::pick) draws exactly what `choose` draws over the
/// collected pages of a use, so the index changes no run's traffic.
#[derive(Clone, Debug, Default)]
pub struct TestModel {
    /// Pages the test has allocated, with their believed use.
    pub pages: Pages,
    /// Live VMs.
    pub vms: Vec<ModelVm>,
    /// Which vCPU each CPU has loaded: `(vm handle, vcpu idx)`.
    pub loaded: Vec<Option<(Handle, usize)>>,
    /// The slots in each [`INDEXED`] use, ascending.
    by_use: [Vec<u32>; INDEXED.len()],
    /// The slots whose use names each VM (`Donated`, `GuestMapped`),
    /// ascending.
    by_vm: HashMap<Handle, Vec<u32>>,
    /// Each pfn's first slot and the number of slots holding it.
    by_pfn: HashMap<u64, (u32, u32)>,
}

impl TestModel {
    /// A fresh model for a machine with `nr_cpus` hardware threads.
    pub fn new(nr_cpus: usize) -> TestModel {
        TestModel {
            loaded: vec![None; nr_cpus],
            ..TestModel::default()
        }
    }

    /// Records a freshly allocated host page.
    pub fn add_page(&mut self, pfn: u64) {
        let slot = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
        self.pages.0.push((pfn, PageUse::Free));
        // The new slot is the largest, so the list of free slots
        // (`INDEXED[0]`) stays ascending.
        self.by_use[0].push(slot);
        self.by_pfn.entry(pfn).or_insert((slot, 0)).1 += 1;
    }

    /// The pages in `use_`, in allocation order.
    ///
    /// # Panics
    ///
    /// Panics if `use_` names a VM (`Donated`, `GuestMapped`): the model
    /// indexes only the uses without one.
    pub fn pages_in(&self, use_: PageUse) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.slots(use_)
            .iter()
            .map(|&slot| self.pages[slot as usize].0)
    }

    /// A uniformly random page in `use_`. It draws what `choose` draws
    /// over [`pages_in`](Self::pages_in) collected: `gen_range(0..n)`
    /// when `n > 0` pages are in `use_`, nothing when none are.
    ///
    /// # Panics
    ///
    /// Panics if `use_` names a VM, as [`pages_in`](Self::pages_in) does.
    pub fn pick(&self, use_: PageUse, rng: &mut Rng) -> Option<u64> {
        let &slot = self.slots(use_).choose(rng)?;
        Some(self.pages[slot as usize].0)
    }

    fn slots(&self, use_: PageUse) -> &[u32] {
        let class = use_
            .class()
            .unwrap_or_else(|| panic!("the model indexes no VM's pages: {use_:?}"));
        &self.by_use[class]
    }

    /// Marks `pfn` as being in `use_`. Where several slots hold `pfn`,
    /// the first one changes.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown to the model (a generator bug).
    pub fn set_page(&mut self, pfn: u64, use_: PageUse) {
        let &(slot, _) = self.by_pfn.get(&pfn).expect("page known to model");
        self.set_slot(slot, use_);
    }

    /// Puts `slot` in `use_`, moving it between the index lists.
    fn set_slot(&mut self, slot: u32, use_: PageUse) {
        let old = std::mem::replace(&mut self.pages.0[slot as usize].1, use_);
        let (from, to) = (old.class(), use_.class());
        if from != to {
            if let Some(c) = from {
                unindex(&mut self.by_use[c], slot);
            }
            if let Some(c) = to {
                index(&mut self.by_use[c], slot);
            }
        }
        let (from, to) = (old.vm(), use_.vm());
        if from != to {
            if let Some(vm) = from {
                let slots = self.by_vm.get_mut(&vm).expect("VM indexed");
                unindex(slots, slot);
                if slots.is_empty() {
                    self.by_vm.remove(&vm);
                }
            }
            if let Some(vm) = to {
                index(self.by_vm.entry(vm).or_default(), slot);
            }
        }
    }

    /// The VM with `handle`.
    pub fn vm(&self, handle: Handle) -> Option<&ModelVm> {
        self.vms.iter().find(|v| v.handle == handle)
    }

    /// The VM with `handle`, mutably.
    pub fn vm_mut(&mut self, handle: Handle) -> Option<&mut ModelVm> {
        self.vms.iter_mut().find(|v| v.handle == handle)
    }

    /// Records a successful `init_vm`. Any stale entry under the same
    /// handle (left by a fuzzed teardown the model did not track) is
    /// dropped first — the real system has reused the slot.
    pub fn add_vm(&mut self, handle: Handle, nr_vcpus: usize, protected: bool) {
        self.vms.retain(|v| v.handle != handle);
        for l in self.loaded.iter_mut() {
            if matches!(l, Some((h, _)) if *h == handle) {
                *l = None;
            }
        }
        self.vms.push(ModelVm {
            handle,
            protected,
            vcpus: (0..nr_vcpus)
                .map(|_| ModelVcpu {
                    initialized: false,
                    loaded_on: None,
                    memcache: 0,
                })
                .collect(),
            mapped: Vec::new(),
            guest_shared: Vec::new(),
            next_gfn: 0x10,
        });
    }

    /// Records a successful teardown: donated pages of this VM become
    /// free again, guest pages become reclaimable, in every slot. Only
    /// the VM's own slots are visited.
    pub fn teardown_vm(&mut self, handle: Handle) {
        self.vms.retain(|v| v.handle != handle);
        for slot in self.by_vm.remove(&handle).unwrap_or_default() {
            let use_ = match self.pages[slot as usize].1 {
                PageUse::Donated { .. } => PageUse::Free,
                _ => PageUse::Reclaimable,
            };
            // The VM's list is gone already; only the use lists change.
            let old = std::mem::replace(&mut self.pages.0[slot as usize].1, use_);
            debug_assert_eq!(old.vm(), Some(handle));
            let c = use_.class().expect("an indexed use");
            index(&mut self.by_use[c], slot);
        }
    }

    /// Would the proposed host access at `pfn` crash the *test*, in the
    /// sense of the paper's "(a) random API calls can crash the host by
    /// changing memory ownership"? Touching pages the host no longer owns
    /// is the simulation analog. Every slot holding `pfn` counts.
    pub fn host_access_would_fault(&self, pfn: u64) -> bool {
        let Some(&(first, count)) = self.by_pfn.get(&pfn) else {
            return false;
        };
        self.pages[first as usize..]
            .iter()
            .filter(|&&(p, _)| p == pfn)
            .take(count as usize)
            .any(|&(_, u)| {
                matches!(
                    u,
                    PageUse::Donated { .. }
                        | PageUse::GuestMapped { .. }
                        | PageUse::Reclaimable
                        | PageUse::Firmware
                )
            })
    }

    /// CPUs with no loaded vCPU.
    pub fn idle_cpus(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.loaded.len()).filter(|&c| self.loaded[c].is_none())
    }

    /// CPUs with a loaded vCPU.
    pub fn busy_cpus(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.loaded.len()).filter(|&c| self.loaded[c].is_some())
    }

    /// Live VM handles.
    pub fn handles(&self) -> Vec<Handle> {
        self.vms.iter().map(|v| v.handle).collect()
    }
}

/// Inserts `slot` into the ascending `slots`.
fn index(slots: &mut Vec<u32>, slot: u32) {
    let i = slots.binary_search(&slot).expect_err("slot indexed once");
    slots.insert(i, slot);
}

/// Removes `slot` from the ascending `slots`.
fn unindex(slots: &mut Vec<u32>, slot: u32) {
    let i = slots.binary_search(&slot).expect("slot indexed");
    slots.remove(i);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pages in `use_`, collected.
    fn list(m: &TestModel, use_: PageUse) -> Vec<u64> {
        m.pages_in(use_).collect()
    }

    #[test]
    fn page_lifecycle_through_the_model() {
        let mut m = TestModel::new(2);
        m.add_page(0x100);
        m.add_page(0x101);
        assert_eq!(list(&m, PageUse::Free), vec![0x100, 0x101]);
        m.set_page(0x100, PageUse::SharedHyp);
        assert_eq!(list(&m, PageUse::Free), vec![0x101]);
        assert_eq!(list(&m, PageUse::SharedHyp), vec![0x100]);
        m.set_page(0x100, PageUse::Free);
        assert_eq!(list(&m, PageUse::Free).len(), 2);
    }

    #[test]
    fn teardown_releases_donations_and_queues_reclaims() {
        let mut m = TestModel::new(1);
        m.add_vm(0x1000, 1, true);
        m.add_page(0x200);
        m.add_page(0x201);
        m.set_page(0x200, PageUse::Donated { vm: 0x1000 });
        m.set_page(0x201, PageUse::GuestMapped { vm: 0x1000, gfn: 5 });
        m.teardown_vm(0x1000);
        assert!(m.vms.is_empty());
        assert_eq!(list(&m, PageUse::Free), vec![0x200]);
        assert_eq!(list(&m, PageUse::Reclaimable), vec![0x201]);
    }

    #[test]
    fn firmware_pages_survive_teardown_and_stay_unreachable() {
        let mut m = TestModel::new(1);
        m.add_vm(0x1000, 1, true);
        m.add_page(0x400);
        m.set_page(0x400, PageUse::Firmware);
        assert!(m.host_access_would_fault(0x400));
        m.teardown_vm(0x1000);
        assert_eq!(list(&m, PageUse::Firmware), vec![0x400]);
        assert!(m.host_access_would_fault(0x400));
    }

    #[test]
    fn crash_prediction_flags_unowned_pages() {
        let mut m = TestModel::new(1);
        m.add_page(0x300);
        assert!(!m.host_access_would_fault(0x300));
        m.set_page(0x300, PageUse::Donated { vm: 0x1000 });
        assert!(m.host_access_would_fault(0x300));
        m.set_page(0x300, PageUse::Reclaimable);
        assert!(m.host_access_would_fault(0x300));
    }

    #[test]
    fn duplicate_pfns_keep_their_meaning() {
        let mut m = TestModel::new(1);
        m.add_page(0x500);
        m.add_page(0x501);
        m.add_page(0x500);
        // `set_page` changes the first slot holding the pfn, ...
        m.set_page(0x500, PageUse::SharedHyp);
        assert_eq!(list(&m, PageUse::Free), vec![0x501, 0x500]);
        assert_eq!(list(&m, PageUse::SharedHyp), vec![0x500]);
        assert!(!m.host_access_would_fault(0x500));
        // ... the crash predictor looks at every slot, ...
        m.set_page(0x500, PageUse::GuestMapped { vm: 0x1000, gfn: 1 });
        assert!(m.host_access_would_fault(0x500));
        // ... and a teardown releases every slot of the VM.
        m.set_page(0x501, PageUse::Donated { vm: 0x1000 });
        m.teardown_vm(0x1000);
        assert_eq!(list(&m, PageUse::Free), vec![0x501, 0x500]);
        assert_eq!(list(&m, PageUse::Reclaimable), vec![0x500]);
    }

    /// The model before it had an index, its page queries kept verbatim
    /// (VM bookkeeping left out): the reference the index is held to.
    #[derive(Default)]
    struct ScanningModel {
        pages: Vec<(u64, PageUse)>,
    }

    impl ScanningModel {
        fn add_page(&mut self, pfn: u64) {
            self.pages.push((pfn, PageUse::Free));
        }

        fn pages_in(&self, use_: PageUse) -> Vec<u64> {
            self.pages
                .iter()
                .filter(|(_, u)| *u == use_)
                .map(|&(p, _)| p)
                .collect()
        }

        fn set_page(&mut self, pfn: u64, use_: PageUse) {
            let slot = self
                .pages
                .iter_mut()
                .find(|(p, _)| *p == pfn)
                .expect("page known to model");
            slot.1 = use_;
        }

        fn teardown_vm(&mut self, handle: Handle) {
            for (_, u) in self.pages.iter_mut() {
                match *u {
                    PageUse::Donated { vm } if vm == handle => *u = PageUse::Free,
                    PageUse::GuestMapped { vm, .. } if vm == handle => *u = PageUse::Reclaimable,
                    _ => {}
                }
            }
        }

        fn host_access_would_fault(&self, pfn: u64) -> bool {
            self.pages.iter().any(|&(p, u)| {
                p == pfn
                    && matches!(
                        u,
                        PageUse::Donated { .. }
                            | PageUse::GuestMapped { .. }
                            | PageUse::Reclaimable
                            | PageUse::Firmware
                    )
            })
        }
    }

    /// The pfns the property test allocates from: few enough that they
    /// repeat, as allocator chaos makes them.
    const PFNS: std::ops::Range<u64> = 0x100..0x118;
    /// The VM handles it uses.
    const HANDLES: [Handle; 3] = [0x1000, 0x1001, 0x1002];

    /// Holds `m` to `r`: the page list, every indexed use's pages in
    /// order (so its count and every k-th page), `pick`'s draws against
    /// `choose` over the collected pages, the crash predictor at every
    /// pfn, and each VM's slots.
    fn assert_agree(m: &TestModel, r: &ScanningModel, draw: u64, at: &str) {
        assert_eq!(&m.pages[..], &r.pages[..], "{at}: pages");
        for use_ in INDEXED {
            let want = r.pages_in(use_);
            assert_eq!(m.pages_in(use_).len(), want.len(), "{at}: {use_:?} count");
            assert_eq!(list(m, use_), want, "{at}: {use_:?} pages");
            let (mut a, mut b) = (Rng::seed_from_u64(draw), Rng::seed_from_u64(draw));
            assert_eq!(
                m.pick(use_, &mut a),
                want.choose(&mut b).copied(),
                "{at}: {use_:?} pick"
            );
            assert_eq!(a.gen_u64(), b.gen_u64(), "{at}: {use_:?} draws");
        }
        for pfn in PFNS.start - 1..=PFNS.end {
            assert_eq!(
                m.host_access_would_fault(pfn),
                r.host_access_would_fault(pfn),
                "{at}: host access at {pfn:#x}"
            );
        }
        for vm in HANDLES {
            let want: Vec<u32> = (0..r.pages.len() as u32)
                .filter(|&slot| r.pages[slot as usize].1.vm() == Some(vm))
                .collect();
            let got = m.by_vm.get(&vm).cloned().unwrap_or_default();
            assert_eq!(got, want, "{at}: slots of VM {vm:#x}");
        }
        assert!(
            m.by_vm.values().all(|slots| !slots.is_empty()),
            "{at}: empty VM list"
        );
    }

    #[test]
    fn the_index_answers_as_the_scanning_model_does() {
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m = TestModel::new(2);
            let mut r = ScanningModel::default();
            for op in 0..300 {
                let at = format!("seed {seed} op {op}");
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let pfn = rng.gen_range(PFNS);
                        m.add_page(pfn);
                        r.add_page(pfn);
                    }
                    3..=7 => {
                        let Some(&(pfn, _)) = r.pages.choose(&mut rng) else {
                            continue;
                        };
                        let vm = *HANDLES.choose(&mut rng).expect("nonempty");
                        let use_ = match rng.gen_range(0..6u32) {
                            0 => PageUse::Free,
                            1 => PageUse::SharedHyp,
                            2 => PageUse::Donated { vm },
                            3 => PageUse::GuestMapped {
                                vm,
                                gfn: rng.gen_range(0..4u64),
                            },
                            4 => PageUse::Reclaimable,
                            _ => PageUse::Firmware,
                        };
                        m.set_page(pfn, use_);
                        r.set_page(pfn, use_);
                    }
                    8 => {
                        let vm = *HANDLES.choose(&mut rng).expect("nonempty");
                        m.add_vm(vm, 1, rng.gen_bool(0.5));
                    }
                    _ => {
                        let vm = *HANDLES.choose(&mut rng).expect("nonempty");
                        m.teardown_vm(vm);
                        r.teardown_vm(vm);
                        assert!(m.vm(vm).is_none(), "{at}: torn-down VM kept");
                    }
                }
                assert_agree(&m, &r, seed ^ op, &at);
            }
        }
    }
}
