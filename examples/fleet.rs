//! The fuzzing fleet: coordinator, worker entrypoint, CI gate, and the
//! E14 experiment modes.
//!
//! Subcommands:
//!
//! - `run <root> <workers> <rounds> [seed]` — a plain fleet: spawn the
//!   workers, supervise, merge, audit; prints the report and the
//!   `fleet-verdict:` line.
//! - `soak <root> <workers> <rounds> [seed]` — a longer run that skips
//!   the per-seed frontier re-measurement and distills the merged
//!   corpus at shutdown.
//! - `chaos <root> <workers> <rounds> [seed]` — the fleet's own
//!   fault-injection harness: random worker kills, torn corpus files
//!   and frozen workers from a seeded stream, on top of supervision.
//! - `gate <root> <seed>` — the CI gate: a 2-worker fleet with one
//!   *forced* worker kill and one *forced* torn corpus file; fails
//!   unless zero admitted seeds were lost, the coordinator shut down
//!   cleanly, the kill was recovered (a respawn happened), the torn
//!   file was skip-counted, and no panic escaped containment. Prints a
//!   `fleet-verdict:` line a second process (`verify`) must reproduce
//!   bit-identically.
//! - `verify <root>` — fresh-process audit: replays the merged corpus
//!   and prints the same `fleet-verdict:` line.
//! - `worker <root> <id>` — the worker-process entrypoint the
//!   coordinator spawns (this same binary, re-invoked).

use std::process::ExitCode;

use pkvm_harness::cli::{num_arg, parse_u64};
use pkvm_harness::fleet::{self, FleetCfg, FleetChaos, FleetReport, SupervisionCfg, WorkerCfg};
use pkvm_harness::fuzz;

const USAGE: &str = "usage: fleet run   <root> <workers> <rounds> [seed]\n\
\x20      fleet soak  <root> <workers> <rounds> [seed]\n\
\x20      fleet chaos <root> <workers> <rounds> [seed]\n\
\x20      fleet gate  <root> <seed>\n\
\x20      fleet verify <root>\n\
\x20      fleet worker <root> <id>";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_fleet(&args[1..], Mode::Run),
        Some("soak") => cmd_fleet(&args[1..], Mode::Soak),
        Some("chaos") => cmd_fleet(&args[1..], Mode::Chaos),
        Some("gate") => cmd_gate(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        _ => usage(),
    }
}

fn cmd_worker(args: &[String]) -> ExitCode {
    let (Some(root), Some(id)) = (args.first(), args.get(1).and_then(|s| parse_u64(s))) else {
        return usage();
    };
    ExitCode::from(fleet::worker_main(root, id as usize) as u8)
}

enum Mode {
    Run,
    Soak,
    Chaos,
}

fn cmd_fleet(args: &[String], mode: Mode) -> ExitCode {
    let (Some(root), Some(workers), Some(rounds)) = (
        args.first(),
        args.get(1).and_then(|s| parse_u64(s)),
        args.get(2).and_then(|s| parse_u64(s)),
    ) else {
        return usage();
    };
    let seed = num_arg(args.get(3).map(String::as_str), 0xf1ee7, USAGE);
    let mut cfg = FleetCfg::builder()
        .root(root)
        .workers(workers as usize)
        .shards(workers as usize * 2)
        .rounds(rounds)
        .poll_ms(250)
        .worker(WorkerCfg {
            seed,
            ..WorkerCfg::default()
        });
    match mode {
        Mode::Run => {}
        Mode::Soak => {
            // Long-haul shape: skip the O(seeds) frontier replay, bound
            // the corpus by distilling it at shutdown.
            cfg = cfg.audit_frontier(false).distill(true);
        }
        Mode::Chaos => {
            cfg = cfg.chaos(FleetChaos {
                seed: seed ^ 0x000c_4a05,
                ..FleetChaos::default()
            });
        }
    }
    let report = fleet::run(&cfg.build());
    print!("{}", report.render());
    let failed = report.stats.escaped_panics > 0 || report.lost_seeds > 0;
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_gate(args: &[String]) -> ExitCode {
    let (Some(root), Some(seed)) = (args.first(), args.get(1).and_then(|s| parse_u64(s))) else {
        return usage();
    };
    let cfg = FleetCfg::builder()
        .root(root)
        .workers(2)
        .shards(4)
        .rounds(14)
        .poll_ms(250)
        .worker(WorkerCfg {
            seed,
            round_steps: 400,
            ..WorkerCfg::default()
        })
        .supervision(SupervisionCfg {
            // Generous on a loaded CI box: a healthy worker round takes
            // well under a second; 60s of zero progress is a real wedge.
            wedge_deadline_ms: 60_000,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            restart_budget: 3,
            jitter_seed: seed,
        })
        // The two forced injections the gate is about: a worker process
        // killed mid-round, and a torn (half-written) corpus file.
        .forced_kill_round(2)
        .forced_torn_round(3)
        .build();
    let report = fleet::run(&cfg);
    print!("{}", report.render());
    gate_checks(&report)
}

fn gate_checks(report: &FleetReport) -> ExitCode {
    let mut failed = false;
    if report.lost_seeds > 0 {
        eprintln!(
            "fleet gate: {} admitted seeds never reached the merged corpus",
            report.lost_seeds
        );
        failed = true;
    }
    if !report.clean_shutdown {
        eprintln!("fleet gate: workers had to be killed at shutdown");
        failed = true;
    }
    if report.stats.respawns == 0 {
        eprintln!("fleet gate: the forced kill was never recovered (no respawn)");
        failed = true;
    }
    if report.stats.merge_skips == 0 {
        eprintln!("fleet gate: the forced torn corpus file was never skip-counted");
        failed = true;
    }
    if report.stats.escaped_panics > 0 {
        eprintln!(
            "fleet gate: {} panics escaped the oracle's containment",
            report.stats.escaped_panics
        );
        failed = true;
    }
    if report.stats.quarantined > 0 {
        eprintln!(
            "fleet gate: {} workers quarantined on a healthy fleet",
            report.stats.quarantined
        );
        failed = true;
    }
    if report.replay_seeds == 0 {
        eprintln!("fleet gate: the merged corpus is empty");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(root) = args.first() else {
        return usage();
    };
    let merged = fleet::FleetDirs::new(root).merged_dir();
    let (seeds, digest) = fuzz::replay_digest(&merged);
    println!("{}", fleet::verdict_line(seeds, digest));
    ExitCode::SUCCESS
}
