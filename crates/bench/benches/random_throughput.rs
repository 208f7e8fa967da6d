//! E3: random-tester throughput.
//!
//! The paper ran its random tester at about 200,000 hypercalls per hour
//! in QEMU on a Mac Mini M2 (§5). This bench measures steps/second of
//! the model-guided tester with and without the oracle installed; the
//! report binary converts the with-oracle figure to hypercalls/hour for
//! the EXPERIMENTS.md comparison.

//! The multi-worker rows measure the parallel campaign at a fixed *total*
//! step budget split across workers, so elements/second compare directly:
//! the 4-worker aggregate over the 1-worker figure is the scaling factor.

use pkvm_bench::minibench::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use pkvm_ghost::oracle::OracleOpts;
use pkvm_harness::campaign::{run as run_campaign, CampaignCfg};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester};

const STEPS: u64 = 1000;

/// Total steps of every campaign row, split evenly across its workers.
const CAMPAIGN_STEPS: u64 = 4000;

fn campaign(workers: usize, with_oracle: bool, record: bool, seed: u64) -> u64 {
    let report = run_campaign(
        &CampaignCfg::builder()
            .workers(workers)
            .steps_per_worker(CAMPAIGN_STEPS / workers as u64)
            .base_seed(seed)
            .with_oracle(with_oracle)
            .record_trace(record)
            .build(),
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    report.total_calls()
}

fn run(with_oracle: bool, seed: u64) -> u64 {
    run_opts(with_oracle, OracleOpts::default(), seed)
}

fn run_opts(with_oracle: bool, opts: OracleOpts, seed: u64) -> u64 {
    let proxy = Proxy::builder()
        .with_oracle(with_oracle)
        .oracle_opts(opts)
        .boot();
    let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());
    t.run(STEPS);
    assert!(t.proxy.violations().is_empty());
    t.stats.calls
}

fn bench_random(c: &mut Criterion) {
    let mut g = c.benchmark_group("E3_random_tester");
    g.sample_size(10);
    g.throughput(Throughput::Elements(STEPS));
    let mut seed = 0u64;
    g.bench_function("with_oracle", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run(true, seed))
        })
    });
    g.bench_function("without_oracle", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run(false, seed))
        })
    });
    g.bench_function("full_walk", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_opts(
                true,
                OracleOpts::builder().incremental_abstraction(false).build(),
                seed,
            ))
        })
    });
    g.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("E3_campaign");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CAMPAIGN_STEPS));
    let mut seed = 0x9e37_79b9u64;
    for workers in [1usize, 4] {
        g.bench_function(format!("{workers}_workers_with_oracle"), |b| {
            b.iter(|| {
                seed += 1;
                black_box(campaign(workers, true, false, seed))
            })
        });
        g.bench_function(format!("{workers}_workers_without_oracle"), |b| {
            b.iter(|| {
                seed += 1;
                black_box(campaign(workers, false, false, seed))
            })
        });
    }
    // Event-stream recording overhead: the same 4-worker oracle campaign
    // with the full timeline retained. Compare against
    // `4_workers_with_oracle` — recording must stay within ~10%.
    g.bench_function("4_workers_with_oracle_recorded", |b| {
        b.iter(|| {
            seed += 1;
            black_box(campaign(4, true, true, seed))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_random, bench_campaign);
criterion_main!(benches);
