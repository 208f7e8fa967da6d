//! The chaos fault-injection sweeps: does the oracle *fail safe*?
//!
//! Three modes:
//!
//! - `matrix [runs-per-family] [seed]` — the detection matrix: for every
//!   chaos family, several campaigns on the clean hypervisor with only
//!   that family corrupting the oracle's inputs, classified as detected /
//!   degraded-but-safe / implementation-panic / silent. Exits nonzero if
//!   the fail-safe invariant breaks (an oracle panic escaping
//!   containment).
//! - `campaign [seed] [steps]` — one all-families chaotic campaign,
//!   followed by a double replay of the recorded trace to demonstrate
//!   that chaotic runs replay deterministically from seed + schedule.
//! - `mutation [seed] [steps]` — the mutation mini-sweep: known
//!   hypervisor bugs injected *while* a chaos family corrupts the
//!   oracle's inputs; reports whether detection survives the noise.
//! - `record <file> [seed] [steps]` — run one all-families chaotic
//!   campaign, persist its trace to `<file>` (`.pkvmtrace` format),
//!   replay it in-process and print the canonical verdict line.
//! - `replay <file> [pipelined]` — load `<file>` in a *fresh* process,
//!   replay it, and print the same canonical verdict line. A recorded
//!   campaign is bit-identically replayable iff the two lines match.
//!   With `pipelined`, the replay oracle checks under
//!   `CheckMode::pipelined()` instead of the recorded mode, and must
//!   still print the same line.
//!
//! Run with `cargo run --release --example chaos -- <mode> [args]`.

use pkvm_ghost::CheckMode;
use pkvm_harness::campaign::{replay, replay_stream, CampaignCfg, ReplayOutcome};
use pkvm_harness::chaos::{detection_matrix, mutation_sweep, ChaosCfg, ChaosFamily, MatrixCfg};
use pkvm_harness::cli::num_arg;
use pkvm_harness::tracefile::{save_trace, TraceReader};
use pkvm_hyp::faults::Fault;

const USAGE: &str = "usage: chaos matrix [runs] [seed]\n\
\x20      chaos campaign [seed] [steps]\n\
\x20      chaos mutation [seed] [steps]\n\
\x20      chaos record <file.pkvmtrace> [seed] [steps]\n\
\x20      chaos replay <file.pkvmtrace> [pipelined]";

/// The canonical verdict line: everything that must survive a trip
/// through the trace file — violation count, kinds, the event sequence
/// ids each violation diverged at, the hypervisor panic, and the number
/// of driver events executed. `record` and `replay` both print it; the
/// ci gate asserts the two lines are byte-identical.
fn verdict_line(outcome: &ReplayOutcome) -> String {
    let kinds: Vec<&'static str> = outcome.violations.iter().map(|v| v.kind()).collect();
    let seqs: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| match v.event_seq() {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        })
        .collect();
    format!(
        "verdict: violations={} kinds=[{}] seqs=[{}] panic={:?} steps={}",
        outcome.violations.len(),
        kinds.join(","),
        seqs.join(","),
        outcome.hyp_panic.as_deref().unwrap_or("none"),
        outcome.steps,
    )
}

/// The all-families hook/alloc chaos config the `campaign` and `record`
/// modes share (bit flips excluded: they corrupt the machine, and these
/// modes demonstrate *oracle* survival plus deterministic replay).
fn all_families_chaos(seed: u64) -> ChaosCfg {
    ChaosCfg::builder()
        .seed(seed ^ 0xc4a0)
        .torn_read_once(0.1)
        .drop_lock_event(0.01)
        .dup_lock_event(0.01)
        .delay_hook(0.02)
        .alloc_chaos(0.1)
        .build()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| "matrix".into());
    match mode.as_str() {
        "matrix" => {
            let runs = num_arg(args.next().as_deref(), 3, USAGE) as u32;
            let seed = num_arg(args.next().as_deref(), 0xc405, USAGE);
            let matrix = detection_matrix(&MatrixCfg {
                runs_per_family: runs,
                base_seed: seed,
                ..MatrixCfg::default()
            });
            print!("{}", matrix.render());
            if !matrix.fail_safe() {
                eprintln!("FAIL-SAFE INVARIANT BROKEN");
                std::process::exit(1);
            }
        }
        "campaign" => {
            let seed = num_arg(args.next().as_deref(), 0xc2, USAGE);
            let steps = num_arg(args.next().as_deref(), 400, USAGE);
            let chaos = all_families_chaos(seed);
            let report = CampaignCfg::builder()
                .workers(2)
                .steps_per_worker(steps)
                .base_seed(seed)
                .stop_on_violation(false)
                .chaos(chaos)
                .run();
            print!("{}", report.render());
            let injected = report.chaos_injected.unwrap_or_default();
            if injected.total() == 0 {
                eprintln!("chaos never fired; the campaign tested nothing");
                std::process::exit(1);
            }
            for w in &report.workers {
                if let Some(p) = &w.panicked {
                    eprintln!("worker {} panicked under hook chaos: {p}", w.worker);
                    std::process::exit(1);
                }
            }
            let trace = report.trace.expect("trace recorded");
            let once = replay(&trace);
            let twice = replay(&trace);
            println!(
                "replay x2: {} / {} violation(s) over {} events",
                once.violations.len(),
                twice.violations.len(),
                trace.events.len()
            );
            if once.violations.len() != twice.violations.len() || once.hyp_panic != twice.hyp_panic
            {
                eprintln!("chaotic replay was not deterministic");
                std::process::exit(1);
            }
            println!("chaotic campaign survived and replays deterministically");
        }
        "mutation" => {
            let seed = num_arg(args.next().as_deref(), 0xc3, USAGE);
            let steps = num_arg(args.next().as_deref(), 400, USAGE);
            let faults = [
                Fault::SynShareWrongState,
                Fault::SynShareHypExec,
                Fault::SynShareSkipsCheck,
            ];
            let families = [
                ChaosFamily::TornReadOnce,
                ChaosFamily::LockEvents,
                ChaosFamily::AllocChaos,
            ];
            let cells = mutation_sweep(&faults, &families, seed, steps);
            print!("{}", pkvm_harness::chaos::render_mutation(&cells));
            let caught = cells.iter().filter(|c| c.detected).count();
            if cells.iter().any(|c| c.impl_panic) {
                eprintln!("a worker panicked during the mutation sweep");
                std::process::exit(1);
            }
            // The noise families above corrupt recording, not the
            // machine; a healthy oracle still catches every bug.
            if caught < cells.len() {
                eprintln!("detection did not survive chaos: {caught}/{}", cells.len());
                std::process::exit(1);
            }
        }
        "record" => {
            let Some(path) = args.next() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let seed = num_arg(args.next().as_deref(), 0xc2, USAGE);
            let steps = num_arg(args.next().as_deref(), 400, USAGE);
            let report = CampaignCfg::builder()
                .workers(2)
                .steps_per_worker(steps)
                .base_seed(seed)
                .stop_on_violation(false)
                .chaos(all_families_chaos(seed))
                .run();
            let trace = report.trace.expect("trace recorded");
            if let Err(e) = save_trace(&path, &trace) {
                eprintln!("cannot save {path}: {e}");
                std::process::exit(1);
            }
            println!("recorded {} events to {path}", trace.events.len());
            println!("{}", verdict_line(&replay(&trace)));
        }
        "replay" => {
            let Some(path) = args.next() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            // Stream the trace straight from disk into the replay: the
            // header boots the machine, then events execute one at a
            // time — the timeline is never materialized.
            let reader = match TraceReader::open(&path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    std::process::exit(1);
                }
            };
            let mut header = reader.header().clone();
            match args.next().as_deref() {
                None => {}
                Some("pipelined") => header.oracle_opts.check_mode = CheckMode::pipelined(),
                Some(_) => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            }
            let mut events = 0u64;
            let outcome = replay_stream(
                &header,
                reader.inspect(|r| {
                    if r.is_ok() {
                        events += 1;
                    }
                }),
            );
            match outcome {
                Ok(out) => {
                    println!("streamed {events} events from {path}");
                    println!("{}", verdict_line(&out));
                }
                Err(e) => {
                    eprintln!("cannot replay {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown mode {other:?}; use matrix | campaign | mutation | record | replay");
            std::process::exit(2);
        }
    }
}
