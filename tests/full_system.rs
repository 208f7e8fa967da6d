//! Whole-system integration tests spanning every crate: substrate,
//! hypervisor, oracle, and harness together.

use pkvm_repro::aarch64::addr::PAGE_SIZE;
use pkvm_repro::aarch64::walk::Access;
use pkvm_repro::harness::bugs::{self, Detection};
use pkvm_repro::harness::proxy::Proxy;
use pkvm_repro::harness::random::{RandomCfg, RandomTester};
use pkvm_repro::harness::scenarios;
use pkvm_repro::hyp::faults::{Fault, FaultSet};
use pkvm_repro::hyp::vm::GuestOp;

/// The headline result, end to end: the clean hypervisor survives the
/// handwritten suite, concurrency, and random testing with zero oracle
/// violations — and every re-introducible bug is caught.
#[test]
fn clean_hypervisor_passes_everything() {
    let r = scenarios::run_all(true);
    assert_eq!(r.total, 41);
    assert!(r.oracle_failures.is_empty(), "{:?}", r.oracle_failures);
}

#[test]
fn random_campaign_multiple_seeds() {
    for seed in [1, 2, 3] {
        let proxy = Proxy::builder().boot();
        let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());
        t.run(1500);
        assert!(
            t.proxy.all_clear(),
            "seed {seed} found violations on a clean hypervisor: {:?}",
            t.proxy.violations()
        );
    }
}

#[test]
fn bug_sweep_detects_everything() {
    for r in bugs::sweep() {
        assert_ne!(r.detection, Detection::Missed, "missed {:?}", r.fault);
    }
}

/// The isolation property itself, observed from the outside: once memory
/// is donated to a protected guest, no host access path reaches it until
/// it is reclaimed — and reclaim wipes it.
#[test]
fn end_to_end_isolation_story() {
    let p = Proxy::builder().boot();
    let h = p.init_vm(0, 1, true).unwrap();
    p.init_vcpu(0, h, 0).unwrap();
    p.vcpu_load(0, h, 0).unwrap();
    p.topup(0, 8).unwrap();
    let pfn = p.map_guest(0, 0x40).unwrap();
    let pa = pfn * PAGE_SIZE;

    // Guest stores a secret.
    p.push_guest_op(h, 0, GuestOp::Write(0x40 * PAGE_SIZE, 0x5ec2e7))
        .unwrap();
    p.vcpu_run(0).unwrap();

    // The host cannot read it from any CPU.
    for cpu in 0..p.machine.nr_cpus() {
        assert!(p.machine.host_access(cpu, pa, Access::Read).is_err());
        assert!(p.machine.host_access(cpu, pa, Access::Write).is_err());
    }

    // Not even after teardown, until the reclaim wipes it.
    p.vcpu_put(0).unwrap();
    p.teardown(0, h).unwrap();
    assert!(p.machine.host_access(0, pa, Access::Read).is_err());
    p.reclaim(0, pfn).unwrap();
    assert_eq!(
        p.machine.host_access(0, pa, Access::Read).unwrap(),
        0,
        "wiped"
    );
    assert!(p.all_clear(), "{:?}", p.violations());
}

/// Cross-CPU VM migration: load/run/put on different CPUs, with the
/// oracle tracking the vCPU ownership transfers.
#[test]
fn vcpu_migrates_across_cpus() {
    let p = Proxy::builder().boot();
    let h = p.init_vm(0, 1, true).unwrap();
    p.init_vcpu(0, h, 0).unwrap();
    for cpu in 0..p.machine.nr_cpus() {
        p.vcpu_load(cpu, h, 0).unwrap();
        p.topup(cpu, 2).unwrap();
        assert_eq!(
            p.vcpu_run(cpu).unwrap(),
            pkvm_repro::hyp::hypercalls::exit::WFI
        );
        p.vcpu_put(cpu).unwrap();
    }
    assert!(p.all_clear(), "{:?}", p.violations());
}

/// Guest registers survive migration: a value loaded by a guest read on
/// one CPU is still in the vCPU context after moving to another CPU.
#[test]
fn guest_state_survives_migration() {
    let p = Proxy::builder().boot();
    let h = p.init_vm(0, 1, true).unwrap();
    p.init_vcpu(0, h, 0).unwrap();
    p.vcpu_load(0, h, 0).unwrap();
    p.topup(0, 8).unwrap();
    let pfn = p.map_guest(0, 0x10).unwrap();
    p.machine
        .mem
        .write_u64(pkvm_repro::aarch64::PhysAddr::from_pfn(pfn), 0)
        .unwrap();
    p.push_guest_op(h, 0, GuestOp::Write(0x10 * PAGE_SIZE, 0xabcd))
        .unwrap();
    p.vcpu_run(0).unwrap();
    p.push_guest_op(h, 0, GuestOp::Read(0x10 * PAGE_SIZE))
        .unwrap();
    p.vcpu_run(0).unwrap();
    p.vcpu_put(0).unwrap();
    // Migrate to CPU 2 and verify the guest's x0 still holds the value.
    p.vcpu_load(2, h, 0).unwrap();
    {
        let g = p.machine.cpus[2].lock();
        let (_, _, vcpu) = g.loaded_vcpu.as_ref().unwrap();
        assert_eq!(vcpu.regs.get(0), 0xabcd);
    }
    p.vcpu_put(2).unwrap();
    assert!(p.all_clear(), "{:?}", p.violations());
}

/// Injecting a bug *mid-run* is caught at the first affected trap, not
/// blamed on earlier clean history.
#[test]
fn mid_run_injection_is_localised() {
    let p = Proxy::builder().boot();
    let pfn = p.alloc_page();
    p.share(0, pfn).unwrap();
    p.unshare(0, pfn).unwrap();
    assert!(p.all_clear());
    p.machine.faults.inject(Fault::SynShareWrongState);
    p.share(0, pfn).unwrap();
    let vs = p.violations();
    assert!(!vs.is_empty());
    assert!(
        vs.iter().all(|v| v.to_string().contains("host_share_hyp")),
        "{vs:?}"
    );
    // Once the state is corrupted, later calls may legitimately disagree
    // (the wrongly-Owned page cannot be unshared); what matters is that no
    // *false* blame landed before the injection.
    p.machine.faults.clear(Fault::SynShareWrongState);
    p.oracle.as_ref().unwrap().clear_violations();
    assert!(
        p.unshare(0, pfn).is_err(),
        "the corrupted page state persists"
    );
}

/// Machines with several disjoint DRAM regions boot and operate cleanly;
/// the carveout comes from the last region and the layout spans all.
#[test]
fn multi_region_dram_configurations() {
    use pkvm_repro::hyp::machine::{Machine, MachineConfig};
    use pkvm_repro::prelude::*;
    use std::sync::Arc;
    let config = MachineConfig {
        dram: vec![(0x4000_0000, 0x400_0000), (0x9000_0000, 0x400_0000)],
        ..MachineConfig::default()
    };
    let oracle = Oracle::new(&config, OracleOpts::default());
    let m = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
    assert!(oracle.check_boot(), "{:?}", oracle.violations());
    // Host faults and shares in both regions.
    m.host_access(0, 0x4100_0000, Access::Read).unwrap();
    m.host_access(0, 0x9100_0000, Access::Write).unwrap();
    assert_eq!(
        m.hvc(
            0,
            pkvm_repro::hyp::hypercalls::HVC_HOST_SHARE_HYP,
            &[0x40200]
        ),
        0
    );
    assert_eq!(
        m.hvc(
            0,
            pkvm_repro::hyp::hypercalls::HVC_HOST_SHARE_HYP,
            &[0x90200]
        ),
        0
    );
    // The gap between the regions is nobody's memory.
    assert!(m.host_access(0, 0x6000_0000, Access::Read).is_err());
    assert!(oracle.is_clean(), "{:?}", oracle.violations());
}

/// Several bugs injected simultaneously: each is still attributed to its
/// own trap.
#[test]
fn combined_injections_are_all_detected() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareWrongState);
    faults.inject(Fault::SynVcpuPutLeak);
    let p = Proxy::builder().faults(faults).boot();
    let pfn = p.alloc_page();
    p.share(0, pfn).unwrap();
    let h = p.init_vm(0, 1, true).unwrap();
    p.init_vcpu(0, h, 0).unwrap();
    p.vcpu_load(0, h, 0).unwrap();
    p.vcpu_put(0).unwrap();
    let vs: Vec<String> = p.violations().iter().map(|v| v.to_string()).collect();
    assert!(vs.iter().any(|v| v.contains("host_share_hyp")), "{vs:?}");
    assert!(vs.iter().any(|v| v.contains("vcpu_put")), "{vs:?}");
}

/// A stress mix across all CPUs, longer than the unit variants.
#[test]
fn sustained_concurrent_stress() {
    let faults = FaultSet::none();
    let p = Proxy::builder().faults(faults).boot();
    std::thread::scope(|s| {
        // One VM worker.
        s.spawn(|| {
            for round in 0..6 {
                let h = p.init_vm(0, 1, round % 2 == 0).unwrap();
                p.init_vcpu(0, h, 0).unwrap();
                p.vcpu_load(0, h, 0).unwrap();
                p.topup(0, 8).unwrap();
                let pfn = p.map_guest(0, 0x10).unwrap();
                p.push_guest_op(h, 0, GuestOp::Write(0x10 * PAGE_SIZE, round))
                    .unwrap();
                p.vcpu_run(0).unwrap();
                p.vcpu_put(0).unwrap();
                p.teardown(0, h).unwrap();
                let _ = p.reclaim(0, pfn);
            }
        });
        // Share workers.
        for cpu in 1..p.machine.nr_cpus() {
            let p = &p;
            s.spawn(move || {
                let base = p.alloc_pages(32);
                for round in 0..4 {
                    for i in 0..32 {
                        p.share(cpu, base + i).unwrap();
                    }
                    for i in 0..32 {
                        p.unshare(cpu, base + i).unwrap();
                    }
                    let _ = round;
                }
            });
        }
        // A host-fault worker hammering mapping-on-demand.
        {
            let p = &p;
            s.spawn(move || {
                for i in 0..64u64 {
                    let _ = p
                        .machine
                        .host_access(0, 0x4200_0000 + i * 0x1000, Access::Read);
                }
            });
        }
    });
    assert!(p.all_clear(), "{:?}", p.violations());
    assert!(p.machine.panicked().is_none());
}
