//! E16: the Android workload gate — pvmfw-style protected boot,
//! share/unshare ping-pong and dense VM churn, each pinned to its new
//! spec check.
//!
//! Modes:
//! - `gate <file.pkvmtrace> [seed] [steps]` — four phases, all at a
//!   fixed seed with the firmware-protection and transfer-protocol
//!   checks on (their default):
//!   1. The handwritten Android scenario family runs violation-free.
//!   2. A single-worker Android-weighted random campaign runs under
//!      `CheckMode::Inline` and `CheckMode::Pipelined`; both must be
//!      violation-free with bit-identical event-stream signatures and
//!      step counts. The inline recording is saved to `<file>`.
//!   3. Every new spec check detects its matching fault at least once:
//!      `firmware-protection` under `SynFirmwareReclaim`,
//!      `transfer-protocol` under `SynShareWrongState`, `reclaim-wipe`
//!      under `SynReclaimSkipsWipe`, and the oversized-top-up
//!      `spec-mismatch` under `Bug2MemcacheSize`.
//!   4. The saved trace replays in-process and the canonical
//!      `android-verdict:` line is printed.
//! - `replay <file.pkvmtrace>` — load the saved trace in a *fresh*
//!   process, replay it and print the same canonical line; ci.sh
//!   compares the two for cross-process determinism.
//!
//! Run with `cargo run --release --example android -- <mode> <args>`.

use std::process::ExitCode;

use pkvm_aarch64::addr::PAGE_SIZE;
use pkvm_ghost::event::canonical_signature;
use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::CheckMode;
use pkvm_harness::android;
use pkvm_harness::campaign::{replay, CampaignCfg, CampaignTrace};
use pkvm_harness::cli::num_arg;
use pkvm_harness::proxy::Proxy;
use pkvm_harness::tracefile::{load_trace, save_trace};
use pkvm_hyp::faults::{Fault, FaultSet};
use pkvm_hyp::vm::GuestOp;

const USAGE: &str = "usage: android <gate|replay> <file.pkvmtrace> [seed] [steps]";

/// The canonical verdict line: derived from a replay of the trace plus
/// the event-stream signature, so any process that loads the same file
/// prints the same bytes.
fn verdict_line(trace: &CampaignTrace) -> String {
    let outcome = replay(trace);
    let mut kinds: Vec<&str> = outcome.violations.iter().map(|v| v.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    format!(
        "android-verdict: events={} steps={} violations={} kinds=[{}] panic={} sig={:#018x}",
        trace.events.len(),
        outcome.steps,
        outcome.violations.len(),
        kinds.join(","),
        outcome.hyp_panic.is_some(),
        canonical_signature(&trace.events),
    )
}

/// One single-worker Android-weighted campaign; single-worker so the
/// recorded schedule (and thus the signature) is deterministic and the
/// two modes are comparable bit for bit.
fn run_campaign(seed: u64, steps: u64, mode: CheckMode) -> pkvm_harness::campaign::CampaignReport {
    CampaignCfg::builder()
        .workers(1)
        .steps_per_worker(steps)
        .base_seed(seed)
        .invalid_fraction(0.0)
        .stop_on_violation(false)
        .record_trace(true)
        .android()
        .oracle_opts(OracleOpts::builder().check_mode(mode).build())
        .run()
}

/// One detection probe: a fault to inject, the violation kind it must
/// produce, and the deterministic driver that witnesses it.
type DetectionCheck = (Fault, &'static str, fn(&Proxy));

/// Drives `drive` against a hypervisor with `fault` injected and
/// requires at least one violation of `kind`.
fn detects(fault: Fault, kind: &str, drive: impl Fn(&Proxy)) -> Result<usize, String> {
    let faults = FaultSet::none();
    faults.inject(fault);
    let p = Proxy::builder().faults(faults).boot();
    drive(&p);
    let hits = p.violations().iter().filter(|v| v.kind() == kind).count();
    if hits == 0 {
        Err(format!(
            "{fault:?} produced no {kind} violation: {:?}",
            p.violations()
        ))
    } else {
        Ok(hits)
    }
}

fn gate(path: &str, seed: u64, steps: u64) -> ExitCode {
    // Phase 1: the handwritten Android family is a true positive control.
    for s in android::all() {
        let p = Proxy::builder().boot();
        (s.run)(&p);
        if !p.all_clear() {
            eprintln!(
                "android scenario {} not clean: {:?}",
                s.name,
                p.violations()
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "scenarios: {} android scenarios clean",
        android::all().len()
    );

    // Phase 2: the mixed campaign, both check modes, bit-identical.
    let inline = run_campaign(seed, steps, CheckMode::Inline);
    let piped = run_campaign(seed, steps, CheckMode::pipelined());
    for (label, r) in [("inline", &inline), ("pipelined", &piped)] {
        if !r.is_clean() {
            eprintln!("{label} android campaign not clean:\n{}", r.render());
            return ExitCode::FAILURE;
        }
    }
    let sig_inline = canonical_signature(&inline.trace.as_ref().expect("trace").events);
    let sig_piped = canonical_signature(&piped.trace.as_ref().expect("trace").events);
    if sig_inline != sig_piped || inline.workers[0].steps != piped.workers[0].steps {
        eprintln!(
            "modes diverge: inline sig={sig_inline:#x} steps={}, pipelined sig={sig_piped:#x} steps={}",
            inline.workers[0].steps, piped.workers[0].steps
        );
        return ExitCode::FAILURE;
    }
    let fw_calls = inline.stats.per_op.get("firmware").copied().unwrap_or(0);
    println!(
        "campaign ({steps} steps, seed {seed:#x}): clean in both modes, sig {sig_inline:#018x}, {fw_calls} firmware loads"
    );

    // Phase 3: each new spec check fires under its matching fault.
    let checks: [DetectionCheck; 4] = [
        (Fault::SynFirmwareReclaim, "firmware-protection", |p| {
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            let fw = p.alloc_page();
            p.load_firmware(0, handle, fw, 0xa0, 1).expect("firmware");
            p.teardown(0, handle).expect("teardown");
            let _ = p.reclaim(0, fw);
        }),
        (Fault::SynShareWrongState, "transfer-protocol", |p| {
            let pfn = p.alloc_page();
            let _ = p.share(0, pfn);
            let _ = p.share(0, pfn);
            let _ = p.unshare(0, pfn);
        }),
        (Fault::SynReclaimSkipsWipe, "reclaim-wipe", |p| {
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            p.vcpu_load(0, handle, 0).expect("vcpu_load");
            p.topup(0, 4).expect("topup");
            let pfn = p.map_guest(0, 0x10).expect("map_guest");
            p.push_guest_op(handle, 0, GuestOp::Write(0x10 * PAGE_SIZE, 0xd1ce))
                .expect("push");
            p.vcpu_run(0).expect("vcpu_run");
            p.vcpu_put(0).expect("vcpu_put");
            p.teardown(0, handle).expect("teardown");
            let _ = p.reclaim(0, pfn);
        }),
        (Fault::Bug2MemcacheSize, "spec-mismatch", |p| {
            let handle = p.init_vm(0, 1, false).expect("init_vm");
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            p.vcpu_load(0, handle, 0).expect("vcpu_load");
            // Oversized top-up: the clean hypervisor answers E2BIG, the
            // buggy one truncates the count to zero and reports success.
            let _ = p.topup_raw(0, 0x47f0_0000, 0x1_0000);
        }),
    ];
    for (fault, kind, drive) in checks {
        match detects(fault, kind, drive) {
            Ok(hits) => println!("detection: {fault:?} -> {hits} {kind} violation(s)"),
            Err(e) => {
                eprintln!("detection failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Phase 4: persist the inline recording and print the canonical line.
    let trace = inline.trace.expect("trace recorded");
    if let Err(e) = save_trace(path, &trace) {
        eprintln!("cannot save {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", verdict_line(&trace));
    println!("gate ok: scenarios clean, modes agree, all four spec checks detect");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(path) = args.next() else {
        eprintln!("usage: android {mode} <file.pkvmtrace> [args]");
        return ExitCode::from(2);
    };
    match mode.as_str() {
        "gate" => {
            let seed = num_arg(args.next().as_deref(), 0xe16, USAGE);
            let steps = num_arg(args.next().as_deref(), 1200, USAGE);
            gate(&path, seed, steps)
        }
        "replay" => {
            let trace = match load_trace(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", verdict_line(&trace));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown mode {other:?}; use gate | replay");
            ExitCode::from(2)
        }
    }
}
