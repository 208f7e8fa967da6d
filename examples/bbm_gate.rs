//! E13: the break-before-make gate — the missing-TLBI bug must be
//! *spec*-detected, identically in both check modes, with no false
//! positives from clean runs or harness-injected TLB staleness.
//!
//! Three phases, all at a fixed seed:
//!
//! 1. **Detection**: the E3 random-tester workload with
//!    `Fault::SynMissingTlbi` injected, under `CheckMode::Inline` and
//!    `CheckMode::Pipelined`. Both modes must report at least one
//!    `break-before-make` violation anchored at a downgrade's event seq,
//!    and the full violation lists (kind, seq) must be identical.
//! 2. **Clean guard**: the same workload without the fault must report
//!    zero `break-before-make` violations in both modes.
//! 3. **Chaos guard**: the clean workload under stale-TLB chaos (remote
//!    invalidations delayed/dropped below the hook stream) must still
//!    report zero `break-before-make` violations — the spec check sees
//!    the hypervisor's true invalidation sequence, so harness-injected
//!    staleness is never blamed on the hypervisor.
//!
//! Run with `cargo run --release --example bbm_gate -- [steps] [seed]`.

use std::process::ExitCode;

use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::CheckMode;
use pkvm_harness::chaos::ChaosCfg;
use pkvm_harness::cli::num_arg;
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};
use pkvm_hyp::faults::{Fault, FaultSet};

/// One fixed-seed tester run; returns every violation as (kind, seq).
fn run(
    mode: CheckMode,
    steps: u64,
    seed: u64,
    fault: Option<Fault>,
    chaos: Option<ChaosCfg>,
) -> Vec<(&'static str, Option<u64>)> {
    let faults = FaultSet::none();
    if let Some(f) = fault {
        faults.inject(f);
    }
    let proxy = Proxy::builder()
        .faults(faults)
        .chaos(chaos)
        .oracle_opts(OracleOpts::builder().check_mode(mode).build())
        .boot();
    let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());
    t.run(steps);
    let verdict = t.proxy.verdict().expect("oracle installed");
    verdict.wait();
    verdict
        .violations()
        .iter()
        .map(|v| (v.kind(), v.event_seq()))
        .collect()
}

fn bbm_count(violations: &[(&'static str, Option<u64>)]) -> usize {
    violations
        .iter()
        .filter(|(kind, _)| *kind == "break-before-make")
        .count()
}

const USAGE: &str = "usage: bbm_gate [steps] [seed]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let steps = num_arg(args.next().as_deref(), 400, USAGE);
    let seed = num_arg(args.next().as_deref(), 0xe13, USAGE);

    // Phase 1: the missing-TLBI bug is spec-detected in both modes.
    let inline = run(
        CheckMode::Inline,
        steps,
        seed,
        Some(Fault::SynMissingTlbi),
        None,
    );
    let piped = run(
        CheckMode::pipelined(),
        steps,
        seed,
        Some(Fault::SynMissingTlbi),
        None,
    );
    println!(
        "detection ({steps} steps, seed {seed:#x}): inline {} bbm / {} total, pipelined {} bbm / {} total",
        bbm_count(&inline),
        inline.len(),
        bbm_count(&piped),
        piped.len(),
    );
    if inline != piped {
        eprintln!(
            "violation mismatch under SynMissingTlbi:\n  inline:    {inline:?}\n  pipelined: {piped:?}"
        );
        return ExitCode::FAILURE;
    }
    if bbm_count(&inline) == 0 {
        eprintln!("missing-TLBI bug produced no break-before-make violation: {inline:?}");
        return ExitCode::FAILURE;
    }
    if !inline
        .iter()
        .filter(|(kind, _)| *kind == "break-before-make")
        .all(|(_, seq)| seq.is_some())
    {
        eprintln!("a break-before-make violation lost its anchoring event seq: {inline:?}");
        return ExitCode::FAILURE;
    }
    println!("  both modes agree, every verdict anchored at its downgrade seq");

    // Phases 2 and 3: no false positives — clean, and under stale-TLB
    // chaos injected below the hook stream.
    for (label, chaos) in [
        ("clean", None),
        (
            "stale-tlb chaos",
            Some(ChaosCfg::builder().seed(seed).stale_tlb(0.5).build()),
        ),
    ] {
        for mode in [CheckMode::Inline, CheckMode::pipelined()] {
            let violations = run(mode, steps, seed ^ 1, None, chaos);
            let bbm = bbm_count(&violations);
            if bbm != 0 {
                eprintln!(
                    "{label} run under {mode:?} fabricated {bbm} break-before-make violation(s): {violations:?}"
                );
                return ExitCode::FAILURE;
            }
        }
        println!("{label}: zero break-before-make violations in both modes");
    }

    println!("bbm gate: all green");
    ExitCode::SUCCESS
}
