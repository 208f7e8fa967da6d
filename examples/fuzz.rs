//! Coverage-guided fuzzing sessions, the CI gate, and the E11 experiment.
//!
//! Subcommands:
//!
//! - `run <seed> <budget> [workers] [corpus_dir [crashes_dir]]` — one
//!   fuzzing session; prints the report, exits non-zero on escaped
//!   panics or (unfaulted) crash families.
//! - `gate <corpus_dir> <seed> <budget>` — the CI gate: asserts the
//!   fuzzer's session coverage is at least a pure-random baseline's at
//!   an equal driver-step budget, that no panic escaped the oracle's
//!   containment, and prints a `corpus-verdict:` digest line that a
//!   second process (`verify`) must reproduce bit-identically.
//! - `verify <corpus_dir>` — fresh-process corpus check: reloads every
//!   persisted seed, replays it, prints the same `corpus-verdict:` line.
//! - `sweep <seed> <budget>` — experiment E11: per seeded bug family,
//!   fuzzer vs pure random detection and steps-to-detection at an equal
//!   step budget.

use std::path::PathBuf;
use std::process::ExitCode;

use pkvm_harness::cli::{num_arg, parse_u64};
use pkvm_harness::coverage::CoverageSummary;
use pkvm_harness::fuzz::{corpus, FuzzCfg, Fuzzer};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};
use pkvm_hyp::cov;
use pkvm_hyp::faults::{Fault, FaultSet};

const USAGE: &str = "usage: fuzz run <seed> <budget> [workers] [corpus_dir [crashes_dir]]\n\
\x20      fuzz gate <corpus_dir> <seed> <budget>\n\
\x20      fuzz verify <corpus_dir>\n\
\x20      fuzz sweep <seed> <budget>";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("gate") => cmd_gate(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (Some(seed), Some(budget)) = (
        args.first().and_then(|s| parse_u64(s)),
        args.get(1).and_then(|s| parse_u64(s)),
    ) else {
        return usage();
    };
    let workers = num_arg(args.get(2).map(String::as_str), 1, USAGE) as usize;
    let mut cfg = FuzzCfg::builder()
        .seed(seed)
        .step_budget(budget)
        .workers(workers);
    if let Some(dir) = args.get(3) {
        cfg = cfg.corpus_dir(dir);
    }
    if let Some(dir) = args.get(4) {
        cfg = cfg.crashes_dir(dir);
    }
    let mut fuzzer = Fuzzer::new(cfg.build());
    let report = fuzzer.run();
    print!("{}", report.render());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Distinct coverage points (implementation + specification) a summary
/// reached.
fn points_hit(summary: &CoverageSummary) -> usize {
    summary.hyp.hit_count() + summary.spec.hit_count()
}

/// Pure-random baseline: one long oracle-checked random run, budgeted in
/// *driver events* (the same unit the fuzzer's budget counts), so the
/// comparison is apples to apples.
fn random_baseline(seed: u64, budget: u64) -> (CoverageSummary, u64, usize) {
    let before = cov::snapshot();
    let proxy = Proxy::builder().record(true).boot();
    let cfg = RandomCfg::builder()
        .seed(seed)
        .invalid_fraction(0.15)
        .build();
    let mut tester = RandomTester::new(proxy, cfg);
    let mut driver_steps = 0u64;
    while driver_steps < budget {
        tester.run(25);
        driver_steps += tester
            .proxy
            .events()
            .take_events()
            .iter()
            .filter(|r| r.event.is_driver())
            .count() as u64;
        if tester.proxy.machine.panicked().is_some() {
            break;
        }
    }
    let violations = tester.proxy.violations().len();
    (CoverageSummary::since(&before), driver_steps, violations)
}

fn cmd_gate(args: &[String]) -> ExitCode {
    let (Some(dir), Some(seed), Some(budget)) = (
        args.first().map(PathBuf::from),
        args.get(1).and_then(|s| parse_u64(s)),
        args.get(2).and_then(|s| parse_u64(s)),
    ) else {
        return usage();
    };

    let (base_cov, base_steps, base_violations) = random_baseline(seed, budget);
    let base_points = points_hit(&base_cov);
    println!(
        "baseline: {base_points} points in {base_steps} driver steps, {base_violations} violations"
    );

    let mut fuzzer = Fuzzer::new(
        FuzzCfg::builder()
            .seed(seed)
            .step_budget(budget)
            .corpus_dir(&dir)
            .build(),
    );
    let report = fuzzer.run();
    let fuzz_points = points_hit(&report.coverage);
    println!(
        "fuzzer:   {fuzz_points} points in {} driver steps, {} corpus seeds",
        report.steps, report.corpus_size
    );
    if std::env::var_os("FUZZ_GATE_DEBUG").is_some() {
        let hit = |r: &pkvm_hyp::cov::Report| {
            r.points
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|&(p, _)| p)
                .collect::<Vec<_>>()
        };
        let base: Vec<_> = [hit(&base_cov.hyp), hit(&base_cov.spec)].concat();
        let fuzz: Vec<_> = [hit(&report.coverage.hyp), hit(&report.coverage.spec)].concat();
        let only_base: Vec<_> = base.iter().filter(|p| !fuzz.contains(p)).collect();
        let only_fuzz: Vec<_> = fuzz.iter().filter(|p| !base.contains(p)).collect();
        println!("only baseline: {only_base:?}");
        println!("only fuzzer:   {only_fuzz:?}");
    }

    let mut failed = false;
    if fuzz_points < base_points {
        eprintln!(
            "fuzz gate: coverage regressed below the pure-random baseline \
             ({fuzz_points} < {base_points} points at {budget} steps)"
        );
        failed = true;
    }
    if report.escaped_panics > 0 {
        eprintln!(
            "fuzz gate: {} panics escaped the oracle's containment",
            report.escaped_panics
        );
        failed = true;
    }
    if !report.crashes.is_empty() {
        eprintln!(
            "fuzz gate: {} crash families on an unfaulted hypervisor:",
            report.crashes.len()
        );
        for c in &report.crashes {
            eprintln!("  {}", c.sig);
        }
        failed = true;
    }
    println!("{}", corpus_verdict(&dir));
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().map(PathBuf::from) else {
        return usage();
    };
    println!("{}", corpus_verdict(&dir));
    ExitCode::SUCCESS
}

/// Replays every persisted corpus seed (in filename order) and folds the
/// verdicts into one digest line. Any process replaying the same corpus
/// must print the identical line — the cross-process round-trip check.
/// The digest itself is [`corpus::replay_digest`], shared with the fleet
/// coordinator's shutdown audit.
fn corpus_verdict(dir: &std::path::Path) -> String {
    let (seeds, digest) = corpus::replay_digest(dir);
    format!("corpus-verdict: {seeds} seeds {digest:016x}")
}

/// The bug families experiment E11 measures, with the real pKVM bugs
/// first. Init-time families (bug 5) are excluded: they trigger at boot,
/// before any driver op, so neither method's input matters.
const SWEEP_FAULTS: &[Fault] = &[
    Fault::Bug1MemcacheAlignment,
    Fault::Bug2MemcacheSize,
    Fault::Bug3VcpuLoadRace,
    Fault::Bug4HostFaultRace,
    Fault::SynShareWrongState,
    Fault::SynShareHypExec,
    Fault::SynUnshareKeepsHypMapping,
    Fault::SynShareSkipsCheck,
    Fault::SynReclaimSkipsWipe,
    Fault::SynHostMapOffByOne,
    Fault::SynDonateWrongOwner,
    Fault::SynVcpuPutLeak,
    Fault::SynTeardownSkipsUnmap,
    Fault::SynBlockAlignment,
    Fault::SynMissingTlbi,
];

/// Pure-random detection: one oracle-checked run under `fault`, stopping
/// at the first violation. Returns driver steps to detection, if any.
fn random_detect(fault: Fault, seed: u64, budget: u64) -> Option<u64> {
    let faults = FaultSet::none();
    faults.inject(fault);
    let proxy = Proxy::builder().record(true).faults(faults).boot();
    let cfg = RandomCfg::builder()
        .seed(seed)
        .invalid_fraction(0.15)
        .build();
    let mut tester = RandomTester::new(proxy, cfg);
    let mut driver_steps = 0u64;
    while driver_steps < budget {
        tester.run(25);
        driver_steps += tester
            .proxy
            .events()
            .take_events()
            .iter()
            .filter(|r| r.event.is_driver())
            .count() as u64;
        if !tester.proxy.violations().is_empty() || tester.proxy.machine.panicked().is_some() {
            return Some(driver_steps);
        }
    }
    None
}

/// Fuzzer detection: same budget, stop at the first triaged family.
fn fuzz_detect(fault: Fault, seed: u64, budget: u64) -> Option<u64> {
    let faults = FaultSet::none();
    faults.inject(fault);
    let mut fuzzer = Fuzzer::new(
        FuzzCfg::builder()
            .seed(seed)
            .step_budget(budget)
            .faults(&faults)
            .stop_on_violation(true)
            .build(),
    );
    let report = fuzzer.run();
    report.crashes.first().map(|c| c.steps_to_find)
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let (Some(seed), Some(budget)) = (
        args.first().and_then(|s| parse_u64(s)),
        args.get(1).and_then(|s| parse_u64(s)),
    ) else {
        return usage();
    };
    println!("E11: fuzzer vs pure random, budget {budget} driver steps, seed {seed:#x}");
    println!("{:<28} {:>14} {:>14}", "fault", "random", "fuzzer");
    let (mut random_found, mut fuzz_found) = (0, 0);
    for &fault in SWEEP_FAULTS {
        let r = random_detect(fault, seed, budget);
        let f = fuzz_detect(fault, seed, budget);
        random_found += usize::from(r.is_some());
        fuzz_found += usize::from(f.is_some());
        let show = |d: Option<u64>| d.map_or("missed".into(), |s| format!("{s} steps"));
        println!("{:<28} {:>14} {:>14}", fault.name(), show(r), show(f));
    }
    println!(
        "detected: random {random_found}/{}, fuzzer {fuzz_found}/{}",
        SWEEP_FAULTS.len(),
        SWEEP_FAULTS.len()
    );
    if fuzz_found >= random_found {
        ExitCode::SUCCESS
    } else {
        eprintln!("fuzzer detected fewer bug families than pure random");
        ExitCode::FAILURE
    }
}
