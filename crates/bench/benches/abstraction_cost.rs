//! F2: the cost of the abstraction function (`interpret_pgtable`).
//!
//! The ghost interpretation is a complete table traversal, unlike the
//! range-limited hardware and software walks (§3.2); this is the dominant
//! per-lock-event cost and, per the paper, what dominates the spec's
//! memory and time overhead. We sweep table population (page-grain
//! mappings) and contrast with block-mapped tables of the same span,
//! where coalescing makes the abstraction cheap.

use pkvm_bench::minibench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pkvm_aarch64::addr::PhysAddr;
use pkvm_aarch64::attrs::Stage;
use pkvm_bench::{build_block_table, build_page_table};
use pkvm_ghost::{interpret_pgtable, interpret_pgtable_with_meta, AbsCache};
use pkvm_hyp::hooks::Component;

fn bench_interpret_pages(c: &mut Criterion) {
    let mut g = c.benchmark_group("F2_interpret_page_grain");
    for nr_pages in [64u64, 512, 4096, 16384] {
        let (mem, root) = build_page_table(nr_pages);
        g.throughput(Throughput::Elements(nr_pages));
        g.bench_with_input(BenchmarkId::from_parameter(nr_pages), &nr_pages, |b, _| {
            b.iter(|| {
                let mut anomalies = Vec::new();
                let abs = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
                assert_eq!(abs.mapping.nr_pages(), nr_pages);
                black_box(abs)
            })
        });
    }
    g.finish();
}

fn bench_interpret_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("F2_interpret_block_grain");
    for nr_pages in [512u64, 4096, 65536] {
        let (mem, root) = build_block_table(nr_pages);
        g.throughput(Throughput::Elements(nr_pages));
        g.bench_with_input(BenchmarkId::from_parameter(nr_pages), &nr_pages, |b, _| {
            b.iter(|| {
                let mut anomalies = Vec::new();
                let abs = interpret_pgtable(&mem, Stage::Stage2, root, &mut anomalies);
                assert_eq!(abs.mapping.nr_pages(), nr_pages);
                black_box(abs)
            })
        });
    }
    g.finish();
}

/// The incremental-abstraction headline: after a small-delta critical
/// section (one PTE written in a populated table), re-abstraction via the
/// cache replays one subtree instead of re-walking everything. Contrast
/// `full/N` with `incremental/N` at equal population.
fn bench_small_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("F2_small_delta_reabstraction");
    for nr_pages in [4096u64, 16384] {
        let (mem, root) = build_page_table(nr_pages);
        mem.write_log().set_enabled(true);

        // Locate one leaf-level table node and its first descriptor; the
        // per-iteration "critical section" rewrites that descriptor (same
        // value — the write alone dirties the page).
        let mut anomalies = Vec::new();
        let (_, meta) = interpret_pgtable_with_meta(&mem, Stage::Stage2, root, &mut anomalies);
        assert!(anomalies.is_empty());
        let meta = meta.expect("no table page is reachable twice");
        let (&leaf_pfn, _) = meta
            .iter()
            .find(|(_, &(level, _))| level == 3)
            .expect("page-grain table has leaf tables");
        let leaf = PhysAddr::from_pfn(leaf_pfn);
        let pte = mem.read_pte(leaf, 0).unwrap();

        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("full", nr_pages), &nr_pages, |b, _| {
            b.iter(|| {
                mem.write_pte(leaf, 0, pte).unwrap();
                let mut a = Vec::new();
                black_box(interpret_pgtable(&mem, Stage::Stage2, root, &mut a))
            })
        });

        let mut cache = AbsCache::new();
        let mut a = Vec::new();
        cache.interp(&mem, Stage::Stage2, root, Component::Host, &mut a); // warm
        g.bench_with_input(
            BenchmarkId::new("incremental", nr_pages),
            &nr_pages,
            |b, _| {
                b.iter(|| {
                    mem.write_pte(leaf, 0, pte).unwrap();
                    let mut a = Vec::new();
                    black_box(cache.interp(&mem, Stage::Stage2, root, Component::Host, &mut a))
                })
            },
        );
        assert!(
            cache.stats.incremental > 0 && cache.stats.full_walks() <= 1,
            "cache did not serve incrementally: {:?}",
            cache.stats
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_interpret_pages,
    bench_interpret_blocks,
    bench_small_delta
);
criterion_main!(benches);
