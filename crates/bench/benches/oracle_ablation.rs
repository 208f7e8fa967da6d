//! Ablation: what each piece of the oracle costs.
//!
//! The paper's design stacks three runtime checks — the per-trap ternary
//! spec check, the non-interference check at every lock acquisition, and
//! the separation-footprint check (§4.4). This bench measures a
//! share/unshare pair under: no oracle at all, the full oracle, and the
//! oracle with each §4.4 invariant disabled, quantifying the design
//! choices `DESIGN.md` calls out.

use pkvm_bench::minibench::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hooks::NoHooks;
use pkvm_hyp::hypercalls::{HVC_HOST_SHARE_HYP, HVC_HOST_UNSHARE_HYP};
use pkvm_hyp::machine::{Machine, MachineConfig};

fn pair(m: &Machine) {
    assert_eq!(m.hvc(0, HVC_HOST_SHARE_HYP, &[0x40100]), 0);
    assert_eq!(m.hvc(0, HVC_HOST_UNSHARE_HYP, &[0x40100]), 0);
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_share_unshare_pair");

    let bare = Machine::boot(
        MachineConfig::default(),
        Arc::new(NoHooks),
        Arc::new(FaultSet::none()),
    );
    g.bench_function("no_oracle", |b| b.iter(|| pair(&bare)));

    for (name, opts) in [
        ("full_oracle", OracleOpts::default()),
        (
            "no_noninterference",
            OracleOpts::builder().check_noninterference(false).build(),
        ),
        (
            "no_separation",
            OracleOpts::builder().check_separation(false).build(),
        ),
        (
            "spec_check_only",
            OracleOpts::builder()
                .check_noninterference(false)
                .check_separation(false)
                .build(),
        ),
        (
            "full_walk",
            OracleOpts::builder().incremental_abstraction(false).build(),
        ),
        (
            "shadow_validation",
            OracleOpts::builder().shadow_validation(true).build(),
        ),
    ] {
        let config = MachineConfig::default();
        let oracle = Oracle::new(&config, opts);
        let m = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
        g.bench_function(name, |b| b.iter(|| pair(&m)));
        assert!(oracle.is_clean());
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
