//! End-to-end oracle tests: the executable specification checking the
//! live hypervisor, as in the paper's §5.
//!
//! Two families: *clean* runs (every hypercall flow, success and error
//! paths, must produce zero violations — the spec and the implementation
//! agree), and *bug* runs (each re-introduced real or synthetic bug must
//! be flagged).

use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::walk::Access;
use pkvm_ghost::prelude::*;

use pkvm_hyp::error::Errno;
use pkvm_hyp::faults::{Fault, FaultSet};
use pkvm_hyp::hypercalls::*;
use pkvm_hyp::machine::{Machine, MachineConfig};
use pkvm_hyp::vm::GuestOp;

const PARAMS_PFN: u64 = 0x40200;
const DONATE_PFN: u64 = 0x40300;
const VCPU_PFN: u64 = 0x40310;
const GUEST_PFN: u64 = 0x40400;
const MC_PFN: u64 = 0x40500;
const SHARE_PFN: u64 = 0x40100;

struct Rig {
    machine: Arc<Machine>,
    oracle: Arc<Oracle>,
}

fn boot_with_oracle(faults: FaultSet) -> Rig {
    let config = MachineConfig::default();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let machine = Machine::boot(config, oracle.clone(), Arc::new(faults));
    Rig { machine, oracle }
}

fn assert_clean(r: &Rig) {
    let vs = r.oracle.violations();
    assert!(vs.is_empty(), "unexpected violations:\n{}", render(&vs));
}

fn render(vs: &[Violation]) -> String {
    vs.iter().map(|v| format!("{v}\n")).collect()
}

fn write_params(m: &Machine, nr_vcpus: u64, protected: u64) {
    let pa = PhysAddr::from_pfn(PARAMS_PFN);
    m.mem.write_u64(pa, nr_vcpus).unwrap();
    m.mem.write_u64(pa.wrapping_add(8), protected).unwrap();
}

fn make_vm(r: &Rig, protected: u64) -> u64 {
    write_params(&r.machine, 1, protected);
    let handle = r.machine.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
    assert!(
        Errno::from_ret(handle).is_none(),
        "init_vm failed: {handle:#x}"
    );
    assert_eq!(r.machine.hvc(0, HVC_INIT_VCPU, &[handle, 0, VCPU_PFN]), 0);
    handle
}

// ---------------------------------------------------------------- clean --

#[test]
fn boot_matches_the_boot_spec() {
    let r = boot_with_oracle(FaultSet::none());
    assert!(r.oracle.check_boot(), "{}", render(&r.oracle.violations()));
    assert_clean(&r);
}

#[test]
fn share_unshare_cycle_is_clean() {
    let r = boot_with_oracle(FaultSet::none());
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    assert_eq!(r.machine.hvc(0, HVC_HOST_UNSHARE_HYP, &[SHARE_PFN]), 0);
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    assert_clean(&r);
    assert_eq!(r.oracle.verdict().wait().stats().traps_checked, 3);
}

#[test]
fn error_paths_are_specified_too() {
    let r = boot_with_oracle(FaultSet::none());
    // Double share -> EPERM; unshare of unshared -> EPERM; share of MMIO
    // and of the carveout -> EPERM; unknown hypercall -> EOPNOTSUPP.
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    assert_eq!(
        Errno::from_ret(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN])),
        Some(Errno::EPERM)
    );
    assert_eq!(
        Errno::from_ret(r.machine.hvc(0, HVC_HOST_UNSHARE_HYP, &[0x40101])),
        Some(Errno::EPERM)
    );
    assert_eq!(
        Errno::from_ret(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[0x9000])),
        Some(Errno::EPERM)
    );
    let (pool_pfn, _) = r.machine.state.hyp_range;
    assert_eq!(
        Errno::from_ret(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[pool_pfn])),
        Some(Errno::EPERM)
    );
    assert_eq!(
        Errno::from_ret(r.machine.hvc(0, 0xc600_4242, &[1, 2, 3])),
        Some(Errno::EOPNOTSUPP)
    );
    assert_clean(&r);
}

#[test]
fn full_vm_lifecycle_is_clean() {
    let r = boot_with_oracle(FaultSet::none());
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
        ),
        0
    );
    assert_eq!(r.machine.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::Write(0x10 * PAGE_SIZE, 7))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::Read(0x10 * PAGE_SIZE))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::WFI);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_PUT, &[]), 0);
    assert_eq!(r.machine.hvc(0, HVC_TEARDOWN_VM, &[handle]), 0);
    assert_eq!(r.machine.hvc(0, HVC_HOST_RECLAIM_PAGE, &[GUEST_PFN]), 0);
    assert_clean(&r);
}

#[test]
fn guest_fault_and_guest_shares_are_clean() {
    let r = boot_with_oracle(FaultSet::none());
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
        ),
        0
    );
    // Guest faults, host maps, guest retries, then shares back and revokes.
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::Read(0x20 * PAGE_SIZE))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::MEM_ABORT);
    assert_eq!(r.machine.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x20]), 0);
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::Read(0x20 * PAGE_SIZE))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::CONTINUE);
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::HvcShareHost(0x20 * PAGE_SIZE))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::GUEST_HVC);
    r.machine
        .push_guest_op(handle as u32, 0, GuestOp::HvcUnshareHost(0x20 * PAGE_SIZE))
        .unwrap();
    assert_eq!(r.machine.hvc(0, HVC_VCPU_RUN, &[]), exit::GUEST_HVC);
    assert_clean(&r);
}

#[test]
fn unprotected_vm_share_flow_is_clean() {
    let r = boot_with_oracle(FaultSet::none());
    let handle = make_vm(&r, 0);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 4]
        ),
        0
    );
    assert_eq!(r.machine.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
    assert!(r
        .machine
        .host_access(1, PhysAddr::from_pfn(GUEST_PFN).bits(), Access::Read)
        .is_ok());
    assert_clean(&r);
}

#[test]
fn host_mapping_on_demand_is_clean() {
    let r = boot_with_oracle(FaultSet::none());
    // Plain RAM, MMIO, a denied carveout access, and unbacked space.
    assert!(r.machine.host_access(0, 0x4123_4568, Access::Write).is_ok());
    assert!(r.machine.host_access(1, 0x0900_0008, Access::Read).is_ok());
    let (pool_pfn, _) = r.machine.state.hyp_range;
    assert!(r
        .machine
        .host_access(2, pool_pfn * PAGE_SIZE, Access::Read)
        .is_err());
    assert!(r
        .machine
        .host_access(3, 0x2_0000_0000, Access::Read)
        .is_err());
    assert_clean(&r);
}

#[test]
fn concurrent_shares_across_cpus_are_clean() {
    let r = boot_with_oracle(FaultSet::none());
    let m = &r.machine;
    std::thread::scope(|s| {
        for cpu in 0..m.nr_cpus() {
            let m = Arc::clone(m);
            s.spawn(move || {
                for i in 0..32u64 {
                    let pfn = 0x41000 + cpu as u64 * 0x100 + i;
                    assert_eq!(m.hvc(cpu, HVC_HOST_SHARE_HYP, &[pfn]), 0);
                    assert_eq!(m.hvc(cpu, HVC_HOST_UNSHARE_HYP, &[pfn]), 0);
                }
            });
        }
    });
    assert_clean(&r);
}

#[test]
fn concurrent_mixed_workload_is_clean() {
    let r = boot_with_oracle(FaultSet::none());
    let m = &r.machine;
    std::thread::scope(|s| {
        // CPU 0: VM lifecycle; others: shares and host faults.
        {
            let m = Arc::clone(m);
            s.spawn(move || {
                write_params(&m, 1, 1);
                let h = m.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
                assert!(Errno::from_ret(h).is_none());
                assert_eq!(m.hvc(0, HVC_INIT_VCPU, &[h, 0, VCPU_PFN]), 0);
                assert_eq!(m.hvc(0, HVC_VCPU_LOAD, &[h, 0]), 0);
                assert_eq!(
                    m.hvc(
                        0,
                        HVC_TOPUP_MEMCACHE,
                        &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
                    ),
                    0
                );
                assert_eq!(m.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
                assert_eq!(m.hvc(0, HVC_VCPU_PUT, &[]), 0);
                assert_eq!(m.hvc(0, HVC_TEARDOWN_VM, &[h]), 0);
            });
        }
        for cpu in 1..m.nr_cpus() {
            let m = Arc::clone(m);
            s.spawn(move || {
                for i in 0..16u64 {
                    let pfn = 0x42000 + cpu as u64 * 0x100 + i;
                    assert_eq!(m.hvc(cpu, HVC_HOST_SHARE_HYP, &[pfn]), 0);
                    let _ = m.host_access(
                        cpu,
                        (0x43000 + cpu as u64 * 0x100 + i) * PAGE_SIZE,
                        Access::Read,
                    );
                    assert_eq!(m.hvc(cpu, HVC_HOST_UNSHARE_HYP, &[pfn]), 0);
                }
            });
        }
    });
    assert_clean(&r);
}

// ----------------------------------------------------------------- bugs --

fn expect_violation(r: &Rig, what: &str) {
    let vs = r.oracle.violations();
    assert!(!vs.is_empty(), "oracle missed the injected bug ({what})");
}

#[test]
fn catches_syn_share_wrong_state() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareWrongState);
    let r = boot_with_oracle(faults);
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    expect_violation(&r, "share marks host side Owned instead of SharedOwned");
}

#[test]
fn catches_syn_share_hyp_exec() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareHypExec);
    let r = boot_with_oracle(faults);
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    expect_violation(&r, "share maps page executable in pKVM stage 1");
}

#[test]
fn catches_syn_unshare_keeps_hyp_mapping() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynUnshareKeepsHypMapping);
    let r = boot_with_oracle(faults);
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    assert_eq!(r.machine.hvc(0, HVC_HOST_UNSHARE_HYP, &[SHARE_PFN]), 0);
    expect_violation(&r, "unshare leaves the borrowed mapping in place");
}

#[test]
fn catches_syn_share_skips_check() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareSkipsCheck);
    let r = boot_with_oracle(faults);
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    r.oracle.clear_violations(); // first share is coincidentally legal
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    expect_violation(&r, "double share accepted");
}

#[test]
fn catches_syn_donate_wrong_owner() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynDonateWrongOwner);
    let r = boot_with_oracle(faults);
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
        ),
        0
    );
    assert_eq!(r.machine.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
    expect_violation(&r, "donation annotates the wrong owner id");
}

#[test]
fn catches_syn_vcpu_put_leak() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynVcpuPutLeak);
    let r = boot_with_oracle(faults);
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_PUT, &[]), 0);
    expect_violation(&r, "vcpu_put leaves the slot marked loaded");
}

#[test]
fn catches_syn_teardown_skips_reclaim() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynTeardownSkipsUnmap);
    let r = boot_with_oracle(faults);
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 8]
        ),
        0
    );
    assert_eq!(r.machine.hvc(0, HVC_HOST_MAP_GUEST, &[GUEST_PFN, 0x10]), 0);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_PUT, &[]), 0);
    assert_eq!(r.machine.hvc(0, HVC_TEARDOWN_VM, &[handle]), 0);
    expect_violation(
        &r,
        "teardown returns guest pages without the reclaim protocol",
    );
}

#[test]
fn catches_syn_host_map_off_by_one() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynHostMapOffByOne);
    let r = boot_with_oracle(faults);
    // Fault on the page just below the carveout: the off-by-one extension
    // maps the first hyp-owned page into the host.
    let (pool_pfn, _) = r.machine.state.hyp_range;
    let _ = r
        .machine
        .host_access(0, (pool_pfn - 1) * PAGE_SIZE, Access::Read);
    expect_violation(&r, "host fault handler maps one page too many");
}

#[test]
fn catches_bug1_memcache_alignment() {
    let faults = FaultSet::none();
    faults.inject(Fault::Bug1MemcacheAlignment);
    let r = boot_with_oracle(faults);
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    // Unaligned donation "succeeds" under the bug.
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits() + 0x800, 1]
        ),
        0
    );
    expect_violation(&r, "unaligned memcache top-up accepted");
}

#[test]
fn catches_bug2_memcache_size() {
    let faults = FaultSet::none();
    faults.inject(Fault::Bug2MemcacheSize);
    let r = boot_with_oracle(faults);
    let handle = make_vm(&r, 1);
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 0]), 0);
    // 0x10000 truncates to 0 through the narrow type: "success".
    assert_eq!(
        r.machine.hvc(
            0,
            HVC_TOPUP_MEMCACHE,
            &[PhysAddr::from_pfn(MC_PFN).bits(), 0x1_0000]
        ),
        0
    );
    expect_violation(&r, "oversized memcache top-up accepted");
}

#[test]
fn catches_bug3_vcpu_load_race() {
    let faults = FaultSet::none();
    faults.inject(Fault::Bug3VcpuLoadRace);
    let r = boot_with_oracle(faults);
    write_params(&r.machine, 2, 1);
    let handle = r.machine.hvc(0, HVC_INIT_VM, &[PARAMS_PFN, DONATE_PFN, 2]);
    assert_eq!(r.machine.hvc(0, HVC_INIT_VCPU, &[handle, 0, VCPU_PFN]), 0);
    // Loading the never-initialised vCPU 1 "succeeds" under the bug.
    assert_eq!(r.machine.hvc(0, HVC_VCPU_LOAD, &[handle, 1]), 0);
    expect_violation(&r, "load of an uninitialised vCPU accepted");
}

#[test]
fn catches_bug4_host_fault_race_panic() {
    let faults = FaultSet::none();
    faults.inject(Fault::Bug4HostFaultRace);
    let r = boot_with_oracle(faults);
    // Host stage 1 in host memory; the racing host zaps it mid-fault.
    use pkvm_aarch64::attrs::{Attrs, Perms, Stage};
    use pkvm_aarch64::desc::Pte;
    let s1_root = PhysAddr::new(0x4060_0000);
    let l1 = PhysAddr::new(0x4060_1000);
    let l2 = PhysAddr::new(0x4060_2000);
    let l3 = PhysAddr::new(0x4060_3000);
    r.machine.mem.write_pte(s1_root, 0, Pte::table(l1)).unwrap();
    r.machine.mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
    r.machine.mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
    r.machine
        .mem
        .write_pte(
            l3,
            0,
            Pte::leaf(
                Stage::Stage1,
                3,
                PhysAddr::new(0x4070_0000),
                Attrs::normal(Perms::RWX),
            ),
        )
        .unwrap();
    r.machine.register_host_s1(s1_root);
    let _ = r.machine.host_access_via_s1(0, 0, Access::Read, || {
        r.machine.mem.write_pte(l3, 0, Pte::invalid()).unwrap();
    });
    assert!(r.machine.panicked().is_some());
    let vs = r.oracle.violations();
    assert!(
        vs.iter().any(|v| matches!(v, Violation::HypPanic { .. })),
        "oracle missed the hypervisor panic: {}",
        render(&vs)
    );
}

#[test]
fn catches_bug5_linear_map_overlap() {
    let faults = Arc::new(FaultSet::none());
    faults.inject(Fault::Bug5LinearMapOverlap);
    let config = MachineConfig::huge_dram();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let machine = Machine::boot(config, oracle.clone(), faults);
    // The boot check compares against the *correct* layout and flags the
    // misplaced UART mapping.
    assert!(!oracle.check_boot(), "boot check missed the layout overlap");
    // And sharing the aliased page trips the spec's collision detection.
    oracle.clear_violations();
    let aliased_pfn =
        (machine.state.layout.uart_va.bits() - machine.state.layout.physvirt_offset) / PAGE_SIZE;
    let _ = machine.hvc(0, HVC_HOST_SHARE_HYP, &[aliased_pfn]);
    assert!(
        !oracle.is_clean(),
        "oracle missed the linear-map/IO aliasing on share"
    );
}

#[test]
fn clean_huge_dram_passes_boot_check() {
    let config = MachineConfig::huge_dram();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let _machine = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
    assert!(oracle.check_boot(), "{}", render(&oracle.violations()));
}

#[test]
fn trap_trace_records_outcomes() {
    let r = boot_with_oracle(FaultSet::none());
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    assert_eq!(r.machine.hvc(0, HVC_HOST_UNSHARE_HYP, &[SHARE_PFN]), 0);
    let _ = r.machine.hvc(0, 0xc600_9999, &[]);
    let trace = r.oracle.trace();
    let names: Vec<&str> = trace.iter().map(|t| t.name.as_ref()).collect();
    assert_eq!(names, vec!["host_share_hyp", "host_unshare_hyp", "unknown"]);
    assert!(trace.iter().all(|t| t.outcome == TrapOutcome::Clean));
    // A violated trap shows up as such.
    r.machine.faults.inject(Fault::SynShareWrongState);
    let _ = r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]);
    let last = r.oracle.trace().pop().unwrap();
    assert!(matches!(last.outcome, TrapOutcome::Violated(_)), "{last:?}");
}

#[test]
fn noninterference_check_catches_silent_table_edits() {
    let r = boot_with_oracle(FaultSet::none());
    assert_eq!(r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN]), 0);
    // Corrupt the host's stage 2 behind the hypervisor's back (no lock
    // held): flip the shared page's software state bits.
    let host_root = r.machine.state.host_pgt.lock().root;
    let pgt = pkvm_hyp::pgtable::KvmPgtable {
        root: host_root,
        stage: pkvm_aarch64::attrs::Stage::Stage2,
    };
    let (pte, level) = pkvm_hyp::pgtable::get_leaf(&r.machine.mem, &pgt, SHARE_PFN * PAGE_SIZE);
    assert_eq!(level, 3);
    // Find the table holding the leaf by re-walking manually: easiest is
    // to rewrite through a fresh walk of the table tree.
    let mut table = host_root;
    for lvl in 0..3u8 {
        let idx = pkvm_aarch64::addr::ia_index(SHARE_PFN * PAGE_SIZE, lvl);
        let e = r.machine.mem.read_pte(table, idx).unwrap();
        table = e.table_addr();
    }
    let idx = pkvm_aarch64::addr::ia_index(SHARE_PFN * PAGE_SIZE, 3);
    r.machine.mem.write_pte(table, idx, pte.with_sw(0)).unwrap();
    // The next acquisition of the host lock must flag the interference.
    let _ = r.machine.hvc(0, HVC_HOST_SHARE_HYP, &[SHARE_PFN + 1]);
    let vs = r.oracle.violations();
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::NonInterference { .. })),
        "non-interference check missed the edit: {}",
        render(&vs)
    );
}
