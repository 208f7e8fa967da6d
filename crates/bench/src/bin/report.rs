//! The evaluation report: regenerates the paper's non-timing tables.
//!
//! Prints, in order: E5 (handwritten-test composition), E6 (coverage),
//! E4 (ghost memory impact), E7/E8 (the bug-detection matrix), E9
//! (specification size), and quick wall-clock versions of E1/E2/E3 (the
//! statistically-rigorous versions live in the Criterion benches).
//!
//! Run with `cargo run --release -p pkvm-bench --bin report`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pkvm_aarch64::walk::Access;
use pkvm_bench::boot;
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_harness::bugs::{self, Detection};
use pkvm_harness::coverage::{self, CoverageSummary};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};
use pkvm_harness::scenarios;
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::machine::{Machine, MachineConfig};

fn heading(s: &str) {
    println!("\n=== {s} ===");
}

fn main() {
    // ------------------------------------------------ E5: the test suite
    heading("E5: handwritten test suite (paper: 41 tests, 19 error-free, 22 error, a handful concurrent)");
    coverage::reset();
    let suite = scenarios::run_all(true);
    println!(
        "measured: {} tests, {} error-free, {} error, {} concurrent; oracle failures: {}",
        suite.total,
        suite.ok_kind,
        suite.err_kind,
        suite.concurrent,
        suite.oracle_failures.len()
    );

    // ----------------------------------------------------- E6: coverage
    heading("E6: coverage (paper: 100% of reachable impl lines for host_share_hyp; spec 92% = 459/497 lines)");
    println!("after the handwritten suite:");
    print!("{}", CoverageSummary::collect().render());
    let proxy = Proxy::builder().boot();
    let mut tester = RandomTester::new(proxy, RandomCfg::default());
    tester.run(5000);
    assert!(tester.proxy.all_clear());
    println!("after 5000 additional random steps:");
    print!("{}", CoverageSummary::collect().render());

    // ------------------------------------------------ E4: memory impact
    heading("E4: ghost memory impact (paper: ~18 MB, dominated by page-table representations)");
    let config = MachineConfig::default();
    let oracle = Oracle::new(&config, OracleOpts::default());
    let machine = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
    // Populate with a *fragmented* workload (alternating pages, so the
    // maplets cannot coalesce — the paper's memory is likewise dominated
    // by page-table representations).
    for i in 0..512u64 {
        let _ = machine.host_access(0, 0x4000_0000 + i * 0x2_0000, Access::Read);
    }
    for i in 0..512u64 {
        assert_eq!(
            machine.hvc(
                0,
                pkvm_hyp::hypercalls::HVC_HOST_SHARE_HYP,
                &[0x40300 + 2 * i]
            ),
            0
        );
    }
    assert!(oracle.is_clean());
    println!(
        "measured: ~{:.1} KiB of reified ghost state after boot + 512 host faults + 512 fragmented shares",
        oracle.approx_ghost_bytes() as f64 / 1024.0
    );
    println!(
        "          (grows with mapping fragmentation and activity, as in the paper; their 18 MB\n\
         \x20          covers a full Android boot on tables three orders of magnitude larger)"
    );

    // -------------------------------------- E7/E8: bug detection matrix
    heading("E7/E8: bug detection (paper: 5 real pKVM bugs; synthetic bugs all found)");
    println!("{:<28} {:>8}  detection", "injected fault", "real bug");
    let mut missed = 0;
    for r in bugs::sweep() {
        let real = r
            .real_bug
            .map(|n| format!("#{n}"))
            .unwrap_or_else(|| "-".into());
        let det = match r.detection {
            Detection::Oracle => "oracle",
            Detection::ContentCheck => "content check",
            Detection::Missed => {
                missed += 1;
                "MISSED"
            }
        };
        println!("{:<28} {:>8}  {}", r.fault.name(), real, det);
    }
    println!("missed: {missed}");

    // --------------------------------------------- E9: specification size
    heading("E9: specification size (paper: impl ~11k LoC; spec ~14k = 2600 hypercall/trap + 1300 recording + 4500 ADTs + boilerplate)");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let count = |paths: &[&str]| -> usize {
        paths
            .iter()
            .map(|p| {
                let path = root.join(p);
                if path.is_dir() {
                    walk_loc(&path)
                } else {
                    file_loc(&path)
                }
            })
            .sum()
    };
    let rows = [
        (
            "hypervisor implementation (pkvm-hyp)",
            count(&["crates/pkvm/src"]),
        ),
        (
            "architecture substrate (pkvm-aarch64)",
            count(&["crates/aarch64/src"]),
        ),
        (
            "spec: hypercall/trap functions",
            count(&["crates/core/src/spec"]),
        ),
        (
            "spec: abstraction + recording",
            count(&[
                "crates/core/src/abstraction.rs",
                "crates/core/src/oracle.rs",
                "crates/core/src/calldata.rs",
            ]),
        ),
        (
            "spec: abstract datatypes",
            count(&[
                "crates/core/src/maplet.rs",
                "crates/core/src/mapping.rs",
                "crates/core/src/state.rs",
            ]),
        ),
        (
            "spec: checking/diffing boilerplate",
            count(&[
                "crates/core/src/check.rs",
                "crates/core/src/diff.rs",
                "crates/core/src/lib.rs",
            ]),
        ),
        (
            "test infrastructure (pkvm-harness)",
            count(&["crates/harness/src"]),
        ),
    ];
    for (name, loc) in rows {
        println!("{name:<42} {loc:>6} LoC (non-test)");
    }

    // ------------------------------------ E1/E2/E3: quick wall-clock cut
    heading("E1: boot overhead (paper: 3.2x; 1.49s -> 4.76s under QEMU)");
    let t = Instant::now();
    for _ in 0..20 {
        let _ = boot(false);
    }
    let bare = t.elapsed();
    let t = Instant::now();
    for _ in 0..20 {
        let _ = boot(true);
    }
    let checked = t.elapsed();
    println!(
        "measured: {:?} -> {:?} per boot = {:.2}x",
        bare / 20,
        checked / 20,
        checked.as_secs_f64() / bare.as_secs_f64()
    );

    heading("E2: handwritten-suite overhead (paper: 11.5x; 1.07s -> 12.3s)");
    let t = Instant::now();
    let _ = scenarios::run_all(false);
    let bare = t.elapsed();
    let t = Instant::now();
    let _ = scenarios::run_all(true);
    let checked = t.elapsed();
    println!(
        "measured: {:.3}s -> {:.3}s = {:.2}x",
        bare.as_secs_f64(),
        checked.as_secs_f64(),
        checked.as_secs_f64() / bare.as_secs_f64()
    );

    heading(
        "E3: random-tester throughput (paper: ~200,000 hypercalls/hour in QEMU on a Mac Mini M2)",
    );
    let proxy = Proxy::builder().boot();
    let mut tester = RandomTester::new(proxy, RandomCfg::builder().seed(99).build());
    let t = Instant::now();
    tester.run(20_000);
    let dt = t.elapsed();
    assert!(tester.proxy.all_clear());
    println!(
        "measured: {} hypercalls in {:.2}s = {:.0} hypercalls/hour (simulation, no QEMU)",
        tester.stats.calls,
        dt.as_secs_f64(),
        tester.stats.calls as f64 / dt.as_secs_f64() * 3600.0
    );
}

/// Non-test lines of one file: everything above the `#[cfg(test)]` marker.
fn file_loc(path: &Path) -> usize {
    let Ok(src) = std::fs::read_to_string(path) else {
        return 0;
    };
    src.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .count()
}

fn walk_loc(dir: &Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                total += walk_loc(&p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                total += file_loc(&p);
            }
        }
    }
    total
}
