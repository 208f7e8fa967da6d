//! Inspect a recorded `.pkvmtrace` file without replaying it — in
//! bounded memory, however long the trace.
//!
//! A trace file is a correctness witness: the machine shape, the oracle
//! switches, the chaos config and seeds, and the full unified timeline
//! of one campaign. Every mode streams the timeline through a
//! [`TraceReader`], one record at a time — no `Vec<Event>` is ever
//! materialized, so a multi-gigabyte soak trace inspects in the same
//! peak memory as a toy one.
//!
//! Usage:
//!   cargo run --release --example trace_inspect -- <file> [summary]
//!   cargo run --release --example trace_inspect -- <file> dump [lane]
//!   cargo run --release --example trace_inspect -- <file> stats
//!   cargo run --release --example trace_inspect -- <file> materialize
//!   cargo run --release --example trace_inspect -- <file> compact <dst> [family ...]
//!
//! `summary` (the default) prints the campaign header plus the streaming
//! stats tables: event counts per family, chaos injections per kind,
//! per-trap latency histogram summaries, and per-lane occupancy. `dump`
//! prints every record in global sequence order, optionally filtered to
//! one lane (worker). `stats` adds the trace-scale analytics: per-handler
//! latency percentiles (p50/p90/p99 off the log2 histogram) and the
//! spec-coverage-over-time curve. `materialize` computes the same stats
//! through `load_trace` — the whole-timeline baseline the E15 peak-memory
//! comparison measures the iterator against. `compact` rewrites the trace
//! to `<dst>` dropping the named observation-only event families
//! (default: `read-once`), refusing replay-critical ones.
//!
//! With `PKVM_PRINT_PEAK_RSS=1` in the environment, every mode appends a
//! `peak-rss: <kB> kB` line read from `/proc/self/status` (Linux only) —
//! how E15 measures streaming vs materialized peak memory.

use pkvm_ghost::event::{Event, EventRecord, TraceStats};
use pkvm_harness::cli::num_arg;
use pkvm_harness::tracefile::{compact_trace, load_trace, TraceReader};

const USAGE: &str = "usage: trace_inspect <file.pkvmtrace> [summary | dump [lane] | stats | materialize | compact <dst> [family ...]]";

/// Streams the whole file through `f`, exiting nonzero on the first
/// decode error, and returns (events, violations).
fn stream(path: &str, mut f: impl FnMut(&EventRecord)) -> (u64, u64) {
    let reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_inspect: cannot open {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut events = 0u64;
    let mut violations = 0u64;
    for rec in reader {
        let rec = match rec {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace_inspect: {path}: {e}");
                std::process::exit(1);
            }
        };
        events += 1;
        if matches!(rec.event, Event::Violation(_)) {
            violations += 1;
        }
        f(&rec);
    }
    (events, violations)
}

fn print_header(path: &str) {
    let header = match TraceReader::open(path).map(|r| r.header().clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("trace_inspect: cannot open {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("{path}:");
    println!(
        "  machine: {} cpus, {} dram region(s), {} mmio region(s), {} hyp pool pages",
        header.config.nr_cpus,
        header.config.dram.len(),
        header.config.mmio.len(),
        header.config.hyp_pool_pages,
    );
    println!("  fault bits: {:#x}", header.fault_bits);
    match &header.chaos {
        Some(c) => println!("  chaos: seed {:#x}", c.seed),
        None => println!("  chaos: none"),
    }
    println!("  worker seeds: {:x?}", header.seeds);
}

/// Peak resident set size so far, from `/proc/self/status` (`VmHWM`).
/// `None` off Linux or on any parse surprise.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn maybe_print_peak_rss() {
    if std::env::var_os("PKVM_PRINT_PEAK_RSS").is_none() {
        return;
    }
    match peak_rss_kb() {
        Some(kb) => println!("peak-rss: {kb} kB"),
        None => println!("peak-rss: unavailable"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mode = args.next().unwrap_or_else(|| "summary".to_string());

    match mode.as_str() {
        "summary" => {
            print_header(&path);
            let mut stats = TraceStats::new();
            let (events, violations) = stream(&path, |rec| stats.observe(rec));
            println!("  events: {events} ({violations} violation(s))");
            print!("{}", stats.render());
        }
        "dump" => {
            let lane_filter = args.next().map(|s| num_arg(Some(&s), 0, USAGE) as u32);
            print_header(&path);
            let (events, violations) = stream(&path, |rec| {
                if lane_filter.is_some_and(|l| l != rec.lane) {
                    return;
                }
                let trap = rec.trap.map(|t| format!(" trap#{t}")).unwrap_or_default();
                println!(
                    "  #{:<6} lane {:<2}{} +{}ns {:?}",
                    rec.seq, rec.lane, trap, rec.t_ns, rec.event
                );
            });
            println!("  events: {events} ({violations} violation(s))");
        }
        "stats" => {
            print_header(&path);
            let mut stats = TraceStats::new();
            let (events, violations) = stream(&path, |rec| stats.observe(rec));
            println!("  events: {events} ({violations} violation(s))");
            print!("{}", stats.render());
            print!("{}", stats.render_percentiles());
            print!("{}", stats.render_coverage());
        }
        "materialize" => {
            // The whole-timeline baseline: identical output to `stats`,
            // but through load_trace's Vec<EventRecord>. Exists so the
            // peak-RSS comparison in EXPERIMENTS.md E15 has something
            // honest to measure the streaming path against.
            print_header(&path);
            let trace = match load_trace(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("trace_inspect: cannot load {path}: {e}");
                    std::process::exit(1);
                }
            };
            let mut stats = TraceStats::new();
            let mut violations = 0u64;
            for rec in &trace.events {
                if matches!(rec.event, Event::Violation(_)) {
                    violations += 1;
                }
                stats.observe(rec);
            }
            println!(
                "  events: {} ({violations} violation(s))",
                trace.events.len()
            );
            print!("{}", stats.render());
            print!("{}", stats.render_percentiles());
            print!("{}", stats.render_coverage());
        }
        "compact" => {
            let Some(dst) = args.next() else {
                eprintln!("usage: trace_inspect <file.pkvmtrace> compact <dst> [family ...]");
                std::process::exit(2);
            };
            let families: Vec<String> = args.collect();
            let drop: Vec<&str> = if families.is_empty() {
                vec!["read-once"]
            } else {
                families.iter().map(String::as_str).collect()
            };
            match compact_trace(&path, &dst, &drop) {
                Ok(stats) => {
                    println!(
                        "compacted {path} -> {dst}: kept {} record(s), dropped {} ({})",
                        stats.kept,
                        stats.dropped,
                        drop.join(","),
                    );
                }
                Err(e) => {
                    eprintln!("trace_inspect: compact failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!(
                "trace_inspect: unknown mode {other:?} (want summary, dump, stats, materialize or compact)"
            );
            std::process::exit(2);
        }
    }
    maybe_print_peak_rss();
}
