//! E12: the pipelined-checker gate — mode equivalence plus checked
//! throughput on the E3 random-tester workload.
//!
//! Two phases, both at a fixed seed:
//!
//! 1. **Equivalence** (recorded, short): the same tester run under
//!    `CheckMode::Inline` and `CheckMode::Pipelined` must produce the
//!    same verdict — identical violation kinds and event sequence ids,
//!    identical checked-trap counts, and identical canonical event-stream
//!    signatures ([`pkvm_ghost::event::canonical_signature`]).
//! 2. **Throughput** (unrecorded, longer): steps/second of the tester
//!    unchecked, inline-checked and pipeline-checked (both checked modes
//!    with the incremental abstraction cache, the configuration the
//!    pipeline is designed around). The pipelined clock stops only after
//!    `Verdict::wait()` — checked throughput counts checking, not just
//!    emission. The gate fails unless pipelined checked throughput is at
//!    least a third of unchecked.
//!
//! Run with `cargo run --release --example pipeline_gate -- [steps] [seed]`.

use std::process::ExitCode;
use std::time::Instant;

use pkvm_ghost::event::canonical_signature;
use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::CheckMode;
use pkvm_harness::cli::num_arg;
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};

struct Outcome {
    steps_per_sec: f64,
    violations: Vec<(&'static str, Option<u64>)>,
    traps_checked: u64,
    signature: Option<u64>,
}

/// One fixed-seed tester run; `mode == None` runs without the oracle.
/// The timed region spans driving *and* checking: the pipelined run's
/// clock stops after the frontier drains.
fn run(mode: Option<CheckMode>, steps: u64, seed: u64, record: bool) -> Outcome {
    let builder = Proxy::builder().record(record);
    let builder = match mode {
        None => builder.with_oracle(false),
        Some(m) => builder.oracle_opts(
            OracleOpts::builder()
                .incremental_abstraction(true)
                .check_mode(m)
                .build(),
        ),
    };
    let proxy = builder.boot();
    let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());
    let start = Instant::now();
    t.run(steps);
    let verdict = t.proxy.verdict();
    if let Some(v) = &verdict {
        v.wait();
    }
    let elapsed = start.elapsed();
    let violations = verdict
        .as_ref()
        .map(|v| {
            v.violations()
                .iter()
                .map(|v| (v.kind(), v.event_seq()))
                .collect()
        })
        .unwrap_or_default();
    Outcome {
        steps_per_sec: steps as f64 / elapsed.as_secs_f64().max(1e-9),
        violations,
        traps_checked: verdict.map(|v| v.stats().traps_checked).unwrap_or(0),
        signature: record.then(|| canonical_signature(&t.proxy.events().take_events())),
    }
}

const USAGE: &str = "usage: pipeline_gate [steps] [seed]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let steps = num_arg(args.next().as_deref(), 1000, USAGE);
    let seed = num_arg(args.next().as_deref(), 0xe12, USAGE);

    // Phase 1: equivalence at a fixed seed, recorded timelines.
    let eq_steps = steps.min(400);
    let inline = run(Some(CheckMode::Inline), eq_steps, seed, true);
    let piped = run(Some(CheckMode::pipelined()), eq_steps, seed, true);
    println!(
        "equivalence ({eq_steps} steps, seed {seed:#x}): inline {} violation(s) / {} trap(s), pipelined {} violation(s) / {} trap(s)",
        inline.violations.len(),
        inline.traps_checked,
        piped.violations.len(),
        piped.traps_checked,
    );
    if inline.violations != piped.violations {
        eprintln!(
            "violation mismatch:\n  inline:    {:?}\n  pipelined: {:?}",
            inline.violations, piped.violations
        );
        return ExitCode::FAILURE;
    }
    if inline.traps_checked != piped.traps_checked {
        eprintln!(
            "traps_checked mismatch: inline {} vs pipelined {}",
            inline.traps_checked, piped.traps_checked
        );
        return ExitCode::FAILURE;
    }
    if inline.signature != piped.signature {
        eprintln!(
            "canonical signature mismatch: inline {:?} vs pipelined {:?}",
            inline.signature, piped.signature
        );
        return ExitCode::FAILURE;
    }
    println!("  verdicts, violation seqs and canonical signatures identical");

    // Phase 2: throughput, unrecorded. Derive the seed so phase 1's
    // machines cannot prime anything. Each mode gets one untimed warmup
    // and then takes the best of five timed runs: a 1000-step run lasts
    // tens of milliseconds, so on a shared core a single scheduler
    // hiccup would otherwise dominate the ratio.
    let best = |mode: Option<CheckMode>| {
        run(mode, steps, seed ^ 1, false);
        (0..5)
            .map(|_| run(mode, steps, seed ^ 1, false))
            .max_by(|a, b| a.steps_per_sec.total_cmp(&b.steps_per_sec))
            .unwrap()
    };
    let unchecked = best(None);
    let inline_t = best(Some(CheckMode::Inline));
    let piped_t = best(Some(CheckMode::pipelined()));
    println!("throughput ({steps} steps, seed {:#x}):", seed ^ 1);
    println!(
        "  unchecked:         {:>10.0} steps/s",
        unchecked.steps_per_sec
    );
    println!(
        "  inline checked:    {:>10.0} steps/s ({:.1}x slower)",
        inline_t.steps_per_sec,
        unchecked.steps_per_sec / inline_t.steps_per_sec
    );
    println!(
        "  pipelined checked: {:>10.0} steps/s ({:.1}x slower)",
        piped_t.steps_per_sec,
        unchecked.steps_per_sec / piped_t.steps_per_sec
    );
    if piped_t.steps_per_sec * 3.0 < unchecked.steps_per_sec {
        eprintln!(
            "pipelined checked throughput below a third of unchecked: {:.0} vs {:.0} steps/s",
            piped_t.steps_per_sec, unchecked.steps_per_sec
        );
        return ExitCode::FAILURE;
    }
    println!("pipeline gate: all green");
    ExitCode::SUCCESS
}
