//! Quickstart: boot the hypervisor under the ghost oracle, run one
//! `host_share_hyp`, and print the abstract-state diff the paper shows in
//! §4.2.2.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use pkvm_ghost::prelude::*;
use pkvm_ghost::{abstract_host, abstract_hyp, diff_states};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hypercalls::HVC_HOST_SHARE_HYP;
use pkvm_hyp::machine::{Machine, MachineConfig};

fn snapshot(machine: &Machine, oracle: &Oracle) -> GhostState {
    // Compute the host and pKVM abstractions directly (tests normally let
    // the oracle's lock hooks do this; here we snapshot for printing).
    let mut anomalies = Vec::new();
    let mut s = GhostState::blank(&oracle.globals);
    s.host = Some(abstract_host(
        &machine.mem,
        machine.state.host_pgt.lock().root,
        &oracle.globals,
        &mut anomalies,
    ));
    s.pkvm = Some(abstract_hyp(
        &machine.mem,
        machine.state.hyp_pgt.lock().root,
        &mut anomalies,
    ));
    assert!(
        anomalies.is_empty(),
        "clean boot must be anomaly-free: {anomalies:?}"
    );
    s
}

fn main() {
    // Boot the machine with the ghost spec installed (the paper's
    // CONFIG_NVHE_GHOST_SPEC=y build).
    let config = MachineConfig::default();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let machine = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
    assert!(oracle.check_boot(), "boot state must match the boot spec");
    println!("booted; boot-state check passed");

    // The host shares one page with the hypervisor.
    let pfn = 0x40100u64; // physical 0x4010_0000, host-owned RAM
    let pre = snapshot(&machine, &oracle);
    let ret = machine.hvc(0, HVC_HOST_SHARE_HYP, &[pfn]);
    let post = snapshot(&machine, &oracle);
    println!("host_share_hyp(pfn={pfn:#x}) -> {ret}");

    // The §4.2.2 artefact: the recorded abstract-state diff.
    println!("\nrecorded post ghost state diff from recorded pre:");
    print!("{}", diff_states(&pre, &post));

    // And the oracle's verdict on the trap it checked. `wait()` is the
    // sync point with the checker (a no-op in the default inline mode).
    let verdict = oracle.verdict();
    verdict.wait();
    let violations = verdict.violations();
    println!("\noracle verdict: {} violation(s)", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    assert!(verdict.all_clear());
    for t in verdict.trace() {
        println!("trace: cpu{} {} -> {:?}", t.cpu, t.name, t.outcome);
    }
    let stats = verdict.stats();
    println!(
        "stats: {} trap(s) checked, {} abstraction(s) computed, ~{} KiB ghost state",
        stats.traps_checked,
        stats.abstractions,
        oracle.approx_ghost_bytes() / 1024,
    );
}
