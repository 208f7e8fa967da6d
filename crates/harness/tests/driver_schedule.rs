//! The random tester's traffic, pinned.
//!
//! The benchmark pins the driver-event schedule of its `random_e3` and
//! `android_mix` episodes (`perf/src/workload.rs`), but only a benchmark
//! run checks those pins. These tests record the same unchecked episodes
//! and fold their driver events the way `Fnv::event` in
//! `perf/src/digest.rs` does (perf is a workspace of its own, so the fold
//! is copied here), so a draw that the tester adds, drops or reorders
//! fails here too. A third run under allocator chaos pins the traffic
//! of a model that holds the same pfn in more than one slot.

use pkvm_aarch64::walk::Access;
use pkvm_ghost::event::Event;
use pkvm_harness::android::android_weights;
use pkvm_harness::campaign::worker_seed;
use pkvm_harness::chaos::ChaosCfg;
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester, DEFAULT_OP_WEIGHTS, OP_NAMES};
use pkvm_hyp::vm::GuestOp;

/// 64-bit FNV-1a over driver events, as perf folds a schedule.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one driver event (tag plus every argument); observation
    /// events are skipped.
    fn event(&mut self, ev: &Event) {
        match ev {
            Event::Hvc { cpu, func, args } => {
                self.u64(1);
                self.u64(*cpu as u64);
                self.u64(*func);
                self.u64(args.len() as u64);
                args.iter().for_each(|&a| self.u64(a));
            }
            Event::WriteMem { pa, value } => {
                self.u64(2);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::CorruptMem { pa, value } => {
                self.u64(3);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::HostAccess { cpu, addr, access } => {
                self.u64(4);
                self.u64(*cpu as u64);
                self.u64(*addr);
                self.u64(match access {
                    Access::Read => 0,
                    Access::Write => 1,
                    Access::Exec => 2,
                });
            }
            Event::PushGuestOp { handle, idx, op } => {
                self.u64(5);
                self.u64(u64::from(*handle));
                self.u64(*idx as u64);
                let (tag, a, b) = match *op {
                    GuestOp::Read(a) => (0, a, 0),
                    GuestOp::Write(a, v) => (1, a, v),
                    GuestOp::HvcShareHost(a) => (2, a, 0),
                    GuestOp::HvcUnshareHost(a) => (3, a, 0),
                    GuestOp::Wfi => (4, 0, 0),
                };
                self.u64(tag);
                self.u64(a);
                self.u64(b);
            }
            _ => {}
        }
    }
}

/// Runs `steps` unchecked tester steps at `seed` over `weights` on a
/// recording proxy, and returns the tester and its schedule digest.
fn episode(
    proxy: Proxy,
    seed: u64,
    weights: [f64; OP_NAMES.len()],
    steps: u64,
) -> (RandomTester, u64) {
    let cfg = RandomCfg::builder().seed(seed).op_weights(weights).build();
    let mut t = RandomTester::new(proxy, cfg);
    t.run(steps);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in t.proxy.events().take_events() {
        h.event(&r.event);
    }
    (t, h.0)
}

fn unchecked() -> pkvm_harness::proxy::ProxyBuilder {
    Proxy::builder().with_oracle(false).record(true)
}

#[test]
fn default_mix_episode_sends_the_benchmarks_pinned_schedule() {
    let (t, d) = episode(
        unchecked().boot(),
        worker_seed(0xe3, 0),
        DEFAULT_OP_WEIGHTS,
        10_000,
    );
    assert!(t.proxy.machine.panicked().is_none());
    // perf's `RANDOM_E3_PINS`.
    assert_eq!(d, 0x5d4f_36ca_01e5_936d, "digest {d:#018x}");
}

#[test]
fn android_mix_episode_sends_the_benchmarks_pinned_schedule() {
    let (t, d) = episode(
        unchecked().boot(),
        worker_seed(0xa4d, 0),
        android_weights(),
        10_000,
    );
    assert!(t.proxy.machine.panicked().is_none());
    // perf's `ANDROID_MIX_PINS`.
    assert_eq!(d, 0x5b72_ea61_6ea6_af76, "digest {d:#018x}");
}

#[test]
fn allocator_chaos_episode_with_duplicate_pfns_sends_its_pinned_schedule() {
    let seed = 0xa11c;
    let chaos = ChaosCfg::builder().seed(seed).alloc_chaos(0.15).build();
    let (t, d) = episode(
        unchecked().chaos(Some(chaos)).boot(),
        worker_seed(seed, 0),
        DEFAULT_OP_WEIGHTS,
        2_000,
    );
    let mut pfns: Vec<u64> = t.model.pages.iter().map(|&(p, _)| p).collect();
    let slots = pfns.len();
    pfns.sort_unstable();
    pfns.dedup();
    assert!(
        pfns.len() < slots,
        "no pfn is held in two slots: {slots} slots"
    );
    assert_eq!(d, 0xc468_4ea6_b302_d6ae, "digest {d:#018x}");
}
