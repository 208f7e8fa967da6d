//! The model-guided random tester (§5): run a configurable number of
//! steps under the oracle and report throughput and state-machine depth.
//!
//! Run with `cargo run --release --example random_tester -- [steps] [seed]`.

use std::time::Instant;

use pkvm_harness::cli::num_arg;
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};

const USAGE: &str = "usage: random_tester [steps] [seed]";

fn main() {
    let mut args = std::env::args().skip(1);
    let steps = num_arg(args.next().as_deref(), 20_000, USAGE);
    let seed = num_arg(args.next().as_deref(), 0xc0ffee, USAGE);

    let proxy = Proxy::builder().boot();
    let mut tester = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());

    let start = Instant::now();
    tester.run(steps);
    let elapsed = start.elapsed();

    let stats = &tester.stats;
    println!("ran {} steps in {:.2?} (seed {seed:#x})", steps, elapsed);
    println!(
        "  {} hypercalls ({} ok, {} err), {} host accesses, {} crash-predicted rejections",
        stats.calls, stats.ok, stats.errs, stats.host_accesses, stats.rejected
    );
    let per_hour = stats.calls as f64 / elapsed.as_secs_f64() * 3600.0;
    println!(
        "  throughput: {per_hour:.0} hypercalls/hour (paper: ~200,000 on a Mac Mini M2 under QEMU)"
    );
    let mut ops: Vec<_> = stats.per_op.iter().collect();
    ops.sort();
    for (op, n) in ops {
        println!("    {op:<12} {n}");
    }

    let verdict = tester.proxy.verdict().expect("oracle installed");
    let violations = verdict.wait().violations();
    println!("\noracle verdict: {} violation(s)", violations.len());
    for v in violations.iter().take(5) {
        println!("  {v}");
    }
    assert!(
        verdict.all_clear(),
        "random testing found spec/impl disagreement"
    );
    println!(
        "model: {} pages tracked, {} live VMs",
        tester.model.pages.len(),
        tester.model.vms.len()
    );
}
