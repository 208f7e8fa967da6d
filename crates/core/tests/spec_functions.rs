//! Unit tests of the specification functions themselves, on synthetic
//! ghost states — no hypervisor involved. These pin down the *functional*
//! reading of each spec: given this pre-state and call data, exactly that
//! post-state.

use pkvm_aarch64::addr::PAGE_SIZE;
use pkvm_aarch64::attrs::{MemType, Perms};
use pkvm_aarch64::esr::Esr;
use pkvm_aarch64::sysreg::GprFile;
use pkvm_ghost::calldata::GhostCallData;
use pkvm_ghost::maplet::{AbsAttrs, Maplet, MapletTarget};
use pkvm_ghost::state::GhostLoadedVcpu;
use pkvm_ghost::{
    compute_post, GhostGlobals, GhostHost, GhostPkvm, GhostState, GhostVcpu, GhostVm, SpecVerdict,
};
use pkvm_hyp::error::Errno;
use pkvm_hyp::hypercalls::*;
use pkvm_hyp::owner::{OwnerId, PageState};

fn globals() -> GhostGlobals {
    GhostGlobals {
        nr_cpus: 2,
        physvirt_offset: 0x8000_0000_0000,
        uart_va: 0x8800_0000_0000,
        hyp_range: (0x47800, 2048),
        ram: vec![(0x4000_0000, 0x800_0000)],
        mmio: vec![(0x900_0000, 0x1000)],
    }
}

/// A pre-state with host + pkvm components and the given hypercall in the
/// CPU 0 context.
fn pre_state(func: u64, args: &[u64]) -> (GhostState, GhostCallData) {
    let g = globals();
    let mut pre = GhostState::blank(&g);
    pre.host = Some(GhostHost::default());
    pre.pkvm = Some(GhostPkvm::default());
    pre.vm_table = Some(Vec::new());
    let mut regs = GprFile::default();
    regs.set(0, func);
    for (i, &a) in args.iter().enumerate() {
        regs.set(i + 1, a);
    }
    pre.locals.entry(0).or_default().regs = regs;
    let call = GhostCallData::new(0, Esr::hvc64(0), None, regs);
    (pre, call)
}

fn run(pre: &GhostState, call: &GhostCallData) -> (SpecVerdict, GhostState) {
    let mut post = GhostState::blank(&pre.globals);
    let v = compute_post(pre, call, &mut post);
    (v, post)
}

#[test]
fn share_spec_computes_both_new_maplets() {
    let (pre, call) = pre_state(HVC_HOST_SHARE_HYP, &[0x40100]);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    // Fig. 5 step (5): host.shared gains the identity page, pkvm the
    // linear-map page — with exactly the attributes of the paper's diff.
    let host = post.host.as_ref().unwrap();
    assert_eq!(
        host.shared.lookup(0x4010_0000),
        Some(MapletTarget::Mapped {
            oa: 0x4010_0000,
            attrs: AbsAttrs {
                perms: Perms::RWX,
                memtype: MemType::Normal,
                state: Some(PageState::SharedOwned)
            }
        })
    );
    let pkvm = post.pkvm.as_ref().unwrap();
    assert_eq!(
        pkvm.pgt.mapping.lookup(0x8000_4010_0000),
        Some(MapletTarget::Mapped {
            oa: 0x4010_0000,
            attrs: AbsAttrs {
                perms: Perms::RW,
                memtype: MemType::Normal,
                state: Some(PageState::SharedBorrowed)
            }
        })
    );
    // Step (6): x0 scrubbed, x1 = 0.
    assert_eq!(post.read_gpr(0, 0), 0);
    assert_eq!(post.read_gpr(0, 1), 0);
}

#[test]
fn share_spec_rejects_non_memory_and_non_owned() {
    // MMIO pfn.
    let (pre, call) = pre_state(HVC_HOST_SHARE_HYP, &[0x9000]);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::EPERM));
    assert!(post.host.is_none(), "error path writes no state components");

    // A page already annotated to the hypervisor.
    let (mut pre, call) = pre_state(HVC_HOST_SHARE_HYP, &[0x40100]);
    pre.host.as_mut().unwrap().annot.insert(Maplet {
        ia: 0x4010_0000,
        nr_pages: 1,
        target: MapletTarget::Annotated {
            owner: OwnerId::HYP,
        },
    });
    let (_, post) = run(&pre, &call);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::EPERM));
}

#[test]
fn share_spec_is_loose_on_enomem() {
    let (pre, mut call) = pre_state(HVC_HOST_SHARE_HYP, &[0x40100]);
    call.regs_post.set(1, Errno::ENOMEM.to_ret());
    let (v, _) = run(&pre, &call);
    assert!(
        matches!(v, SpecVerdict::Unchecked(_)),
        "ENOMEM is allowed anywhere"
    );
}

#[test]
fn share_spec_detects_linear_map_collision() {
    // Bug-5 shape: the linear VA of the shared page is already mapped.
    let (mut pre, call) = pre_state(HVC_HOST_SHARE_HYP, &[0x40100]);
    pre.pkvm.as_mut().unwrap().pgt.mapping.insert(Maplet {
        ia: globals().hyp_va(0x4010_0000),
        nr_pages: 1,
        target: MapletTarget::Mapped {
            oa: 0x900_0000,
            attrs: AbsAttrs {
                perms: Perms::RW,
                memtype: MemType::Device,
                state: Some(PageState::Owned),
            },
        },
    });
    let (v, _) = run(&pre, &call);
    assert!(matches!(v, SpecVerdict::Impossible(_)), "{v:?}");
}

#[test]
fn unshare_spec_requires_the_matching_pair() {
    // Shared on the host side only: EPERM.
    let (mut pre, call) = pre_state(HVC_HOST_UNSHARE_HYP, &[0x40100]);
    pre.host.as_mut().unwrap().shared.insert(Maplet {
        ia: 0x4010_0000,
        nr_pages: 1,
        target: MapletTarget::Mapped {
            oa: 0x4010_0000,
            attrs: AbsAttrs {
                perms: Perms::RWX,
                memtype: MemType::Normal,
                state: Some(PageState::SharedOwned),
            },
        },
    });
    let (_, post) = run(&pre, &call);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::EPERM));

    // Both sides present: success, both maplets removed.
    let (mut pre, call) = pre_state(HVC_HOST_UNSHARE_HYP, &[0x40100]);
    pre.host.as_mut().unwrap().shared.insert(Maplet {
        ia: 0x4010_0000,
        nr_pages: 1,
        target: MapletTarget::Mapped {
            oa: 0x4010_0000,
            attrs: AbsAttrs {
                perms: Perms::RWX,
                memtype: MemType::Normal,
                state: Some(PageState::SharedOwned),
            },
        },
    });
    pre.pkvm.as_mut().unwrap().pgt.mapping.insert(Maplet {
        ia: globals().hyp_va(0x4010_0000),
        nr_pages: 1,
        target: MapletTarget::Mapped {
            oa: 0x4010_0000,
            attrs: AbsAttrs {
                perms: Perms::RW,
                memtype: MemType::Normal,
                state: Some(PageState::SharedBorrowed),
            },
        },
    });
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), 0);
    assert!(post.host.as_ref().unwrap().shared.is_empty());
    assert!(post.pkvm.as_ref().unwrap().pgt.mapping.is_empty());
}

#[test]
fn reclaim_spec_is_parametric_on_the_return_value() {
    // Same pre-state, two recorded outcomes: both accepted, with the
    // success obliging the annotation removal.
    let build = || {
        let (mut pre, call) = pre_state(HVC_HOST_RECLAIM_PAGE, &[0x40100]);
        pre.host.as_mut().unwrap().annot.insert(Maplet {
            ia: 0x4010_0000,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: OwnerId::guest(0),
            },
        });
        (pre, call)
    };
    let (pre, mut call) = build();
    call.regs_post.set(1, 0);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert!(post.host.as_ref().unwrap().annot.is_empty());

    let (pre, mut call) = build();
    call.regs_post.set(1, Errno::EPERM.to_ret());
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert!(post.host.is_none(), "refusal changes nothing");

    // A claimed success on a page that was never guest-owned is impossible.
    let (pre, mut call) = pre_state(HVC_HOST_RECLAIM_PAGE, &[0x40200]);
    call.regs_post.set(1, 0);
    let (v, _) = run(&pre, &call);
    assert!(matches!(v, SpecVerdict::Impossible(_)));
}

fn with_loaded_vcpu(pre: &mut GhostState, handle: u32) {
    let l = pre.locals.get_mut(&0).unwrap();
    l.loaded = Some(GhostLoadedVcpu {
        handle,
        idx: 0,
        regs: GprFile::default(),
        memcache: vec![],
    });
}

#[test]
fn topup_spec_validates_then_donates() {
    // No loaded vCPU.
    let (pre, call) = pre_state(HVC_TOPUP_MEMCACHE, &[0x4030_0000, 2]);
    let (_, post) = run(&pre, &call);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::ENOENT));

    // Unaligned.
    let (mut pre, call) = pre_state(HVC_TOPUP_MEMCACHE, &[0x4030_0800, 1]);
    with_loaded_vcpu(&mut pre, 0x1000);
    let (_, post) = run(&pre, &call);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::EINVAL));

    // Oversized.
    let (mut pre, call) = pre_state(HVC_TOPUP_MEMCACHE, &[0x4030_0000, 1 << 20]);
    with_loaded_vcpu(&mut pre, 0x1000);
    let (_, post) = run(&pre, &call);
    assert_eq!(Errno::from_ret(post.read_gpr(0, 1)), Some(Errno::E2BIG));

    // Valid: both components gain the donated range.
    let (mut pre, call) = pre_state(HVC_TOPUP_MEMCACHE, &[0x4030_0000, 2]);
    with_loaded_vcpu(&mut pre, 0x1000);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), 0);
    assert_eq!(
        post.host.as_ref().unwrap().annot.lookup(0x4030_0000),
        Some(MapletTarget::Annotated {
            owner: OwnerId::HYP
        })
    );
    assert_eq!(post.host.as_ref().unwrap().annot.nr_pages(), 2);
    assert!(post
        .pkvm
        .as_ref()
        .unwrap()
        .pgt
        .mapping
        .covers(globals().hyp_va(0x4030_0000), 2));
}

fn vm_in_pre(pre: &mut GhostState, handle: u32, protected: bool) {
    pre.vm_table = Some(vec![(handle, 0)]);
    pre.vms.insert(
        handle,
        GhostVm {
            handle,
            slot: 0,
            protected,
            pgt: Default::default(),
            donated: vec![0x40300, 0x40301],
            firmware: vec![],
            vcpus: vec![GhostVcpu::Present {
                regs: GprFile::default(),
                memcache: vec![0x40500],
            }],
        },
    );
}

#[test]
fn map_guest_spec_donates_or_shares_by_vm_kind() {
    for protected in [true, false] {
        let (mut pre, call) = pre_state(HVC_HOST_MAP_GUEST, &[0x40600, 0x10]);
        with_loaded_vcpu(&mut pre, 0x1000);
        vm_in_pre(&mut pre, 0x1000, protected);
        let (v, post) = run(&pre, &call);
        assert_eq!(v, SpecVerdict::Checked);
        assert_eq!(post.read_gpr(0, 1), 0);
        let host = post.host.as_ref().unwrap();
        let vm = post.vms.get(&0x1000).unwrap();
        if protected {
            assert_eq!(
                host.annot.lookup(0x4060_0000),
                Some(MapletTarget::Annotated {
                    owner: OwnerId::guest(0)
                })
            );
            assert!(matches!(
                vm.pgt.mapping.lookup(0x10 * PAGE_SIZE),
                Some(MapletTarget::Mapped { attrs, .. }) if attrs.state == Some(PageState::Owned)
            ));
        } else {
            assert!(matches!(
                host.shared.lookup(0x4060_0000),
                Some(MapletTarget::Mapped { attrs, .. }) if attrs.state == Some(PageState::SharedOwned)
            ));
            assert!(matches!(
                vm.pgt.mapping.lookup(0x10 * PAGE_SIZE),
                Some(MapletTarget::Mapped { attrs, .. }) if attrs.state == Some(PageState::SharedBorrowed)
            ));
        }
    }
}

#[test]
fn init_vm_spec_computes_the_handle_deterministically() {
    let (mut pre, mut call) = pre_state(HVC_INIT_VM, &[0x40200, 0x40300, 2]);
    // Slot 0 is taken; the spec must predict slot 1, handle 0x1001.
    pre.vm_table = Some(vec![(0x1000, 0)]);
    call.read_onces.push(("init_vm/nr_vcpus", 2));
    call.read_onces.push(("init_vm/protected", 1));
    call.regs_post.set(1, 0x1001);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), 0x1001);
    assert_eq!(
        post.vm_table.as_ref().unwrap(),
        &vec![(0x1000, 0), (0x1001, 1)]
    );
    let vm = post.vms.get(&0x1001).expect("deferred seed for the new VM");
    assert_eq!(vm.vcpus.len(), 2);
    assert!(vm.protected);
    assert_eq!(vm.donated, vec![0x40300, 0x40301]);
}

#[test]
fn teardown_spec_returns_exactly_the_infrastructure_pages() {
    let (mut pre, call) = pre_state(HVC_TEARDOWN_VM, &[0x1000]);
    vm_in_pre(&mut pre, 0x1000, true);
    // The VM also has a stage 2 table footprint and a guest-mapped page.
    {
        let vm = pre.vms.get_mut(&0x1000).unwrap();
        std::sync::Arc::make_mut(&mut vm.pgt.table_pages).extend([0x40301u64, 0x40700]);
        vm.pgt.mapping.insert(Maplet {
            ia: 0x10 * PAGE_SIZE,
            nr_pages: 1,
            target: MapletTarget::Mapped {
                oa: 0x4080_0000,
                attrs: AbsAttrs {
                    perms: Perms::RWX,
                    memtype: MemType::Normal,
                    state: Some(PageState::Owned),
                },
            },
        });
    }
    // Host annotations for everything the host gave away.
    {
        let host = pre.host.as_mut().unwrap();
        for pfn in [0x40300u64, 0x40301, 0x40500, 0x40700] {
            host.annot.insert(Maplet {
                ia: pfn * PAGE_SIZE,
                nr_pages: 1,
                target: MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                },
            });
        }
        host.annot.insert(Maplet {
            ia: 0x4080_0000,
            nr_pages: 1,
            target: MapletTarget::Annotated {
                owner: OwnerId::guest(0),
            },
        });
        let pkvm = pre.pkvm.as_mut().unwrap();
        for pfn in [0x40300u64, 0x40301, 0x40500, 0x40700] {
            pkvm.pgt.mapping.insert(Maplet {
                ia: globals().hyp_va(pfn * PAGE_SIZE),
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: pfn * PAGE_SIZE,
                    attrs: AbsAttrs {
                        perms: Perms::RW,
                        memtype: MemType::Normal,
                        state: Some(PageState::Owned),
                    },
                },
            });
        }
    }
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    let host = post.host.as_ref().unwrap();
    // Infrastructure pages (donated, memcache, table) return to the host...
    for pfn in [0x40300u64, 0x40301, 0x40500, 0x40700] {
        assert!(
            host.annot.lookup(pfn * PAGE_SIZE).is_none(),
            "pfn {pfn:#x} must return"
        );
    }
    // ...but the guest's memory page stays annotated until reclaim.
    assert_eq!(
        host.annot.lookup(0x4080_0000),
        Some(MapletTarget::Annotated {
            owner: OwnerId::guest(0)
        })
    );
    assert_eq!(post.vm_table.as_ref().unwrap(), &Vec::new());
    assert!(post.pkvm.as_ref().unwrap().pgt.mapping.is_empty());
}

#[test]
fn vcpu_load_and_put_move_the_ghost_vcpu() {
    let (mut pre, call) = pre_state(HVC_VCPU_LOAD, &[0x1000, 0]);
    vm_in_pre(&mut pre, 0x1000, true);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), 0);
    assert!(matches!(
        post.vms.get(&0x1000).unwrap().vcpus[0],
        GhostVcpu::Loaded { on: 0 }
    ));
    let loaded = post.locals.get(&0).unwrap().loaded.as_ref().unwrap();
    assert_eq!(loaded.handle, 0x1000);

    // And back.
    let (mut pre2, call2) = pre_state(HVC_VCPU_PUT, &[]);
    vm_in_pre(&mut pre2, 0x1000, true);
    pre2.vms.get_mut(&0x1000).unwrap().vcpus[0] = GhostVcpu::Loaded { on: 0 };
    let mut regs = GprFile::default();
    regs.set(5, 0x77);
    pre2.locals.get_mut(&0).unwrap().loaded = Some(GhostLoadedVcpu {
        handle: 0x1000,
        idx: 0,
        regs,
        memcache: vec![],
    });
    let (v, post) = run(&pre2, &call2);
    assert_eq!(v, SpecVerdict::Checked);
    assert!(post.locals.get(&0).unwrap().loaded.is_none());
    match &post.vms.get(&0x1000).unwrap().vcpus[0] {
        GhostVcpu::Present { regs, .. } => assert_eq!(regs.get(5), 0x77, "state preserved"),
        other => panic!("expected Present, got {other:?}"),
    }
}

#[test]
fn vcpu_run_spec_follows_the_recorded_guest_step() {
    // WFI.
    let (mut pre, mut call) = pre_state(HVC_VCPU_RUN, &[]);
    with_loaded_vcpu(&mut pre, 0x1000);
    call.read_onces.push(("vcpu_run/op", 0));
    call.read_onces.push(("vcpu_run/ipa", 0));
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), exit::WFI);

    // A read of an unmapped gipa: MEM_ABORT with details in x2/x3.
    let (mut pre, mut call) = pre_state(HVC_VCPU_RUN, &[]);
    with_loaded_vcpu(&mut pre, 0x1000);
    vm_in_pre(&mut pre, 0x1000, true);
    pre.vms.get_mut(&0x1000).unwrap().vcpus[0] = GhostVcpu::Loaded { on: 0 };
    call.read_onces.push(("vcpu_run/op", 2));
    call.read_onces.push(("vcpu_run/ipa", 0x20 * PAGE_SIZE));
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 1), exit::MEM_ABORT);
    assert_eq!(post.read_gpr(0, 2), 0x20 * PAGE_SIZE);
    assert_eq!(post.read_gpr(0, 3), 1, "write flag");
}

#[test]
fn reg_access_specs_touch_only_the_thread_local_state() {
    let (mut pre, call) = pre_state(HVC_VCPU_SET_REG, &[4, 0xbeef]);
    with_loaded_vcpu(&mut pre, 0x1000);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert!(post.host.is_none() && post.pkvm.is_none() && post.vms.is_empty());
    assert_eq!(
        post.locals
            .get(&0)
            .unwrap()
            .loaded
            .as_ref()
            .unwrap()
            .regs
            .get(4),
        0xbeef
    );

    let (mut pre, call) = pre_state(HVC_VCPU_GET_REG, &[4]);
    with_loaded_vcpu(&mut pre, 0x1000);
    pre.locals
        .get_mut(&0)
        .unwrap()
        .loaded
        .as_mut()
        .unwrap()
        .regs
        .set(4, 0xf00d);
    let (v, post) = run(&pre, &call);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(post.read_gpr(0, 2), 0xf00d, "value returned in x2");
}

#[test]
fn host_abort_spec_preserves_tracked_state_exactly() {
    let g = globals();
    let mut pre = GhostState::blank(&g);
    let mut host = GhostHost::default();
    host.annot.insert(Maplet {
        ia: 0x4780_0000,
        nr_pages: 4,
        target: MapletTarget::Annotated {
            owner: OwnerId::HYP,
        },
    });
    pre.host = Some(host.clone());
    pre.locals.entry(0).or_default();
    let call = GhostCallData::new(
        0,
        Esr::abort(
            pkvm_aarch64::walk::Access::Read,
            pkvm_aarch64::walk::Fault::Translation { level: 2 },
        ),
        Some(0x4100_0000),
        GprFile::default(),
    );
    let mut post = GhostState::blank(&g);
    let v = compute_post(&pre, &call, &mut post);
    assert_eq!(v, SpecVerdict::Checked);
    assert_eq!(
        post.host.as_ref().unwrap(),
        &host,
        "annot/shared evolve deterministically: unchanged"
    );
}
