//! Differential replay over the fault catalog: one recorded schedule,
//! every deliberately-wrong hypervisor.
//!
//! Modes:
//! - `record <file> [seed] [steps]` — run one *clean* campaign (no
//!   faults, no chaos, stop-on-violation off so the schedule runs to its
//!   full length) and persist its trace to `<file>`. The recording runs
//!   a single worker on purpose: a one-lane schedule is bit-identical
//!   across recordings (no thread interleaving), so the matrix digest
//!   below is stable run to run, not just replay to replay.
//! - `matrix <file>` — replay the recorded schedule against the clean
//!   hypervisor and every `Fault::ALL` variant, print the detection
//!   matrix and its canonical `diff-matrix:` digest line. Replay is
//!   deterministic, so the line is bit-identical across processes — the
//!   ci gate computes it twice in separate processes and compares.
//! - `gate <file> [min]` — compute the matrix and enforce the pinned
//!   expectations: the clean row must be violation-free and at least
//!   `min` (default 14) fault rows must diverge. Three catalog entries
//!   are legitimately out of a single-threaded schedule's reach —
//!   Bug3/Bug4 need race windows and Bug5 an init-time machine shape —
//!   which is why the gate pins everything but those structural misses.
//!   (Bug2 and SynReclaimSkipsWipe used to be misses too, until the
//!   driver grew oversized top-ups and read-after-reclaim probes.)
//!
//! Run with `cargo run --release --example differential -- <mode> <args>`.

use pkvm_harness::campaign::CampaignCfg;
use pkvm_harness::cli::num_arg;
use pkvm_harness::differential::differential_matrix;
use pkvm_harness::tracefile::save_trace;

const USAGE: &str = "usage: differential record <file.pkvmtrace> [seed] [steps]\n\
\x20      differential matrix <file.pkvmtrace>\n\
\x20      differential gate <file.pkvmtrace> [min-detected]";

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(mode), Some(path)) = (args.next(), args.next()) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    match mode.as_str() {
        "record" => {
            // Defaults tuned so the gate's >= 14/17 detection floor holds
            // exactly and reproducibly: the single-worker recording is
            // deterministic, and 14/17 is the stable ceiling across
            // seeds (the three misses are structural, not schedule luck).
            let seed = num_arg(args.next().as_deref(), 0x42, USAGE);
            let steps = num_arg(args.next().as_deref(), 2500, USAGE);
            let report = CampaignCfg::builder()
                .workers(1)
                .steps_per_worker(steps)
                .base_seed(seed)
                .stop_on_violation(false)
                .run();
            if !report.is_clean() {
                eprintln!(
                    "differential: clean recording campaign was not clean:\n{}",
                    report.render()
                );
                std::process::exit(1);
            }
            let calls = report.total_calls();
            let trace = report.trace.expect("trace recorded");
            if let Err(e) = save_trace(&path, &trace) {
                eprintln!("differential: cannot save {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "recorded {} events ({calls} calls) to {path}",
                trace.events.len()
            );
        }
        "matrix" | "gate" => {
            let matrix = match differential_matrix(&path) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("differential: cannot replay {path}: {e}");
                    std::process::exit(1);
                }
            };
            print!("{}", matrix.render());
            println!("{}", matrix.matrix_line());
            if mode == "gate" {
                let min = num_arg(args.next().as_deref(), 14, USAGE) as usize;
                let clean = matrix.clean_row();
                if clean.violations > 0 || clean.hyp_panic {
                    eprintln!(
                        "differential: clean row is not violation-free ({} violation(s), panic={})",
                        clean.violations, clean.hyp_panic
                    );
                    std::process::exit(1);
                }
                let detected = matrix.detected();
                if detected < min {
                    eprintln!(
                        "differential: only {detected}/{} faults diverged (gate requires >= {min})",
                        matrix.fault_rows().len()
                    );
                    std::process::exit(1);
                }
                println!(
                    "gate ok: clean row violation-free, {detected}/{} faults detected (>= {min})",
                    matrix.fault_rows().len()
                );
            }
        }
        other => {
            eprintln!("unknown mode {other:?}; use record | matrix | gate");
            std::process::exit(2);
        }
    }
}
