//! A parallel random-testing campaign (§5, scaled out): N worker threads
//! drive one machine under the oracle, each pinned to its own simulated
//! CPU, with the interleaved schedule recorded. A violating campaign is
//! replayed single-threaded from the recorded seeds and schedule alone,
//! then minimized to a short reproducer.
//!
//! Run with `cargo run --release --example campaign -- [workers] [steps-per-worker] [seed]`.

use pkvm_harness::campaign::{replay, CampaignCfg};
use pkvm_harness::cli::num_arg;
use pkvm_harness::minimize;

const USAGE: &str = "usage: campaign [workers] [steps-per-worker] [seed]";

fn main() {
    let mut args = std::env::args().skip(1);
    let workers = num_arg(args.next().as_deref(), 4, USAGE) as usize;
    let steps = num_arg(args.next().as_deref(), 2_000, USAGE);
    let seed = num_arg(args.next().as_deref(), 0xc0ffee, USAGE);

    let report = CampaignCfg::builder()
        .workers(workers)
        .steps_per_worker(steps)
        .base_seed(seed)
        .run();
    print!("{}", report.render());

    if report.is_clean() {
        println!("clean campaign: no violations, no panics");
        return;
    }

    // Something went wrong: reproduce it deterministically from the trace.
    let Some(trace) = &report.trace else {
        eprintln!("violating campaign, but trace recording was disabled");
        std::process::exit(1);
    };
    println!(
        "\nreplaying the {} recorded events single-threaded ...",
        trace.events.len()
    );
    let outcome = replay(trace);
    println!(
        "  replay: {} violation(s){} after {} events",
        outcome.violations.len(),
        outcome
            .hyp_panic
            .as_deref()
            .map(|p| format!(", hypervisor panic: {p}"))
            .unwrap_or_default(),
        outcome.steps,
    );
    if outcome.violated() {
        let minimized = minimize(trace, 200);
        println!(
            "  minimized reproducer: {} of {} events still violate",
            minimized.events.len(),
            trace.events.len()
        );
        for ev in minimized.events.iter().take(10) {
            println!("    #{} lane {}: {:?}", ev.seq, ev.lane, ev.event);
        }
    } else {
        println!("  (the violation did not reproduce under the recorded linearisation)");
    }
    std::process::exit(1);
}
