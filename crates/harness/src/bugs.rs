//! The bug catalog: reproducible detection of every re-introducible bug.
//!
//! For each injectable fault (the five real pKVM bugs of §6 and the
//! synthetic bugs of §5), this module knows a *trigger* — the API sequence
//! that exercises the buggy path — and a *detector* verdict: whether the
//! oracle (or, for the two data-zeroing/content bugs, a harness-level
//! content check) flagged it. The sweep regenerates the paper's
//! bugs-found evidence as a detection matrix.

use std::sync::Arc;

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::walk::Access;
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_hyp::faults::{Fault, FaultSet};
use pkvm_hyp::machine::{Machine, MachineConfig};

use crate::proxy::Proxy;

/// How a bug was (or was not) detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Detection {
    /// The oracle recorded at least one violation.
    Oracle,
    /// A harness-level content/behaviour check caught it (the oracle
    /// tracks protection state, not page contents).
    ContentCheck,
    /// Nothing flagged the bug.
    Missed,
}

/// One row of the detection matrix.
#[derive(Clone, Debug)]
pub struct BugReport {
    /// The injected fault.
    pub fault: Fault,
    /// Whether it corresponds to a real pKVM bug of §6.
    pub real_bug: Option<u8>,
    /// How it was detected.
    pub detection: Detection,
    /// First violation message, if any.
    pub first_violation: Option<String>,
}

/// The real-bug number for a fault, if it reproduces one.
pub fn real_bug_number(fault: Fault) -> Option<u8> {
    match fault {
        Fault::Bug1MemcacheAlignment => Some(1),
        Fault::Bug2MemcacheSize => Some(2),
        Fault::Bug3VcpuLoadRace => Some(3),
        Fault::Bug4HostFaultRace => Some(4),
        Fault::Bug5LinearMapOverlap => Some(5),
        _ => None,
    }
}

/// Runs the trigger for `fault` on a machine with it injected, returning
/// how it was detected.
pub fn detect(fault: Fault) -> BugReport {
    let detection = match fault {
        Fault::Bug5LinearMapOverlap => detect_bug5(),
        _ => detect_common(fault),
    };
    BugReport {
        fault,
        real_bug: real_bug_number(fault),
        detection: detection.0,
        first_violation: detection.1,
    }
}

fn verdict(p: &Proxy, content_flag: bool) -> (Detection, Option<String>) {
    let vs = p.violations();
    if !vs.is_empty() {
        (Detection::Oracle, Some(vs[0].to_string()))
    } else if content_flag {
        (Detection::ContentCheck, None)
    } else {
        (Detection::Missed, None)
    }
}

fn detect_common(fault: Fault) -> (Detection, Option<String>) {
    let faults = FaultSet::none();
    faults.inject(fault);
    let p = Proxy::builder().faults(faults).boot();
    let mut content_flag = false;
    match fault {
        Fault::Bug1MemcacheAlignment => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            // Sentinel in the page following the unaligned donation.
            let base = p.alloc_pages(2);
            let victim = PhysAddr::from_pfn(base + 1);
            p.machine.mem.write_u64(victim, 0x5ca1ab1e).unwrap();
            let _ = p.topup_raw(0, (base << 12) + 0x800, 1);
            content_flag = p.machine.mem.read_u64(victim).unwrap() == 0;
        }
        Fault::Bug2MemcacheSize => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            let base = p.alloc_page();
            let _ = p.topup_raw(0, base << 12, 0x1_0000);
        }
        Fault::Bug3VcpuLoadRace => {
            let h = p.init_vm(0, 2, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            let _ = p.vcpu_load(0, h, 1); // slot 1 never initialised
        }
        Fault::Bug4HostFaultRace => {
            use pkvm_aarch64::attrs::{Attrs, Perms, Stage};
            use pkvm_aarch64::desc::Pte;
            let s1_root = PhysAddr::from_pfn(p.alloc_pages(4));
            let l1 = s1_root.wrapping_add(PAGE_SIZE);
            let l2 = s1_root.wrapping_add(2 * PAGE_SIZE);
            let l3 = s1_root.wrapping_add(3 * PAGE_SIZE);
            let m = &p.machine;
            m.mem.write_pte(s1_root, 0, Pte::table(l1)).unwrap();
            m.mem.write_pte(l1, 0, Pte::table(l2)).unwrap();
            m.mem.write_pte(l2, 0, Pte::table(l3)).unwrap();
            m.mem
                .write_pte(
                    l3,
                    0,
                    Pte::leaf(
                        Stage::Stage1,
                        3,
                        PhysAddr::from_pfn(p.alloc_page()),
                        Attrs::normal(Perms::RWX),
                    ),
                )
                .unwrap();
            m.register_host_s1(s1_root);
            let _ = m.host_access_via_s1(0, 0, Access::Read, || {
                m.mem.write_pte(l3, 0, Pte::invalid()).unwrap();
            });
            content_flag = m.panicked().is_some();
        }
        Fault::SynShareWrongState | Fault::SynShareHypExec => {
            let pfn = p.alloc_page();
            let _ = p.share(0, pfn);
        }
        Fault::SynUnshareKeepsHypMapping => {
            let pfn = p.alloc_page();
            let _ = p.share(0, pfn);
            let _ = p.unshare(0, pfn);
        }
        Fault::SynShareSkipsCheck => {
            let pfn = p.alloc_page();
            let _ = p.share(0, pfn);
            p.oracle.as_ref().unwrap().clear_violations();
            let _ = p.share(0, pfn); // the illegal double share
        }
        Fault::SynReclaimSkipsWipe => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            p.topup(0, 8).expect("topup");
            let pfn = p.map_guest(0, 0x10).expect("map");
            // Guest writes a secret into its page.
            p.push_guest_op(
                h,
                0,
                pkvm_hyp::vm::GuestOp::Write(0x10 * PAGE_SIZE, 0x5ec7e7),
            )
            .unwrap();
            let _ = p.vcpu_run(0);
            p.vcpu_put(0).expect("put");
            p.teardown(0, h).expect("teardown");
            let _ = p.reclaim(0, pfn);
            // The host can now read the guest's secret: the content check.
            content_flag = p.machine.mem.read_u64(PhysAddr::from_pfn(pfn)).unwrap() == 0x5ec7e7;
        }
        Fault::SynHostMapOffByOne => {
            let (pool_pfn, _) = p.machine.state.hyp_range;
            let _ = p
                .machine
                .host_access(0, (pool_pfn - 1) * PAGE_SIZE, Access::Read);
        }
        Fault::SynDonateWrongOwner => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            p.topup(0, 8).expect("topup");
            let _ = p.map_guest(0, 0x10);
        }
        Fault::SynVcpuPutLeak => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            let _ = p.vcpu_put(0);
        }
        Fault::SynTeardownSkipsUnmap => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            p.topup(0, 8).expect("topup");
            let _ = p.map_guest(0, 0x10);
            p.vcpu_put(0).expect("put");
            let _ = p.teardown(0, h);
        }
        Fault::SynBlockAlignment => {
            // The host-fault path installs block mappings; the corrupted
            // block OA breaks the identity property the abstraction checks.
            let _ = p.machine.host_access(0, 0x4500_0000, Access::Read);
        }
        Fault::SynMissingTlbi => {
            // The dangerous shape: the host touches a page (filling the
            // TLB), then *donates* it away. Without the invalidation the
            // stale translation lets the host keep reading memory it no
            // longer owns — an isolation breach invisible to the page
            // tables (and hence to the oracle; the harness checks the
            // behaviour, as the paper's companion TLB work motivates).
            let h = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, h, 0).expect("init_vcpu");
            p.vcpu_load(0, h, 0).expect("load");
            let pfn = p.alloc_page();
            p.machine
                .host_access(0, pfn * PAGE_SIZE, Access::Read)
                .expect("warm the TLB");
            p.topup_raw(0, pfn << 12, 1)
                .expect("donate the touched page");
            content_flag = p
                .machine
                .host_access(0, pfn * PAGE_SIZE, Access::Read)
                .is_ok();
        }
        Fault::SynFirmwareReclaim => {
            let h = p.init_vm(0, 1, true).expect("init_vm");
            let pfn = p.alloc_page();
            p.load_firmware(0, h, pfn, 0x80, 1).expect("load_firmware");
            p.teardown(0, h).expect("teardown");
            // The bug queued the firmware page for reclaim; the host gets
            // back a page it must never see again.
            let _ = p.reclaim(0, pfn);
        }
        Fault::Bug5LinearMapOverlap => unreachable!("handled separately"),
    }
    verdict(&p, content_flag)
}

fn detect_bug5() -> (Detection, Option<String>) {
    let faults = Arc::new(FaultSet::none());
    faults.inject(Fault::Bug5LinearMapOverlap);
    let config = MachineConfig::huge_dram();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let machine = Machine::boot(config, oracle.clone(), faults);
    let boot_ok = oracle.check_boot();
    let _ = machine;
    let vs = oracle.violations();
    if !boot_ok || !vs.is_empty() {
        (Detection::Oracle, vs.first().map(|v| v.to_string()))
    } else {
        (Detection::Missed, None)
    }
}

/// Runs the whole catalog, returning one report per fault.
pub fn sweep() -> Vec<BugReport> {
    Fault::ALL.iter().map(|&f| detect(f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_real_bug_is_detected() {
        for fault in [
            Fault::Bug1MemcacheAlignment,
            Fault::Bug2MemcacheSize,
            Fault::Bug3VcpuLoadRace,
            Fault::Bug4HostFaultRace,
            Fault::Bug5LinearMapOverlap,
        ] {
            let r = detect(fault);
            assert_ne!(
                r.detection,
                Detection::Missed,
                "missed real bug {:?}",
                fault
            );
        }
    }

    #[test]
    fn full_sweep_misses_nothing() {
        for r in sweep() {
            assert_ne!(
                r.detection,
                Detection::Missed,
                "missed {:?} (real bug {:?})",
                r.fault,
                r.real_bug
            );
        }
    }
}
