//! Corrupted-table campaigns, pinned across commits.
//!
//! A chaotic campaign with two workers does not reproduce (the workers
//! race), so comparing one with an older commit compares noise. With one
//! worker a campaign is a function of its seed: these run single-worker
//! campaigns under bit flips in live page-table memory alone and fold
//! every outcome into one FNV-1a digest, so a change to how the
//! hypervisor handles corrupted tables shows as a moved digest. The
//! walker that read every descriptor from memory gave the same
//! per-campaign outcomes, except that a worker that panicked was then
//! reported with 0 steps instead of the steps it completed. Finer
//! differences of the walker are the business of the property test in
//! `pgtable.rs`, which compares it with that walker visit by visit.

use pkvm_harness::campaign::{CampaignCfg, CampaignReport};
use pkvm_harness::chaos::ChaosCfg;

/// First campaign seed; campaign `i` runs at `FIRST_SEED + i`.
const FIRST_SEED: u64 = 0xf1f0;
/// Campaigns folded into the digest. Two of them (the fourth and the
/// twentieth) end in a walker panic on a descriptor that points outside
/// memory.
const CAMPAIGNS: u64 = 48;
/// Tester steps per campaign.
const STEPS: u64 = 400;
/// Flip probability per tester step.
const P_FLIP: f64 = 0.3;

/// The digest line of one campaign: its violations' (kind, event seq)
/// list, the worker's steps and panic payload, and the hypervisor panic.
fn outcome(report: &CampaignReport) -> String {
    let violations: Vec<(&str, Option<u64>)> = report
        .violations
        .iter()
        .map(|v| (v.kind(), v.event_seq()))
        .collect();
    let w = &report.workers[0];
    format!(
        "{violations:?} {} {:?} {:?}\n",
        w.steps, w.panicked, report.hyp_panic
    )
}

/// The single-worker bit-flip campaign at `seed`.
fn campaign(seed: u64) -> CampaignReport {
    CampaignCfg::builder()
        .workers(1)
        .steps_per_worker(STEPS)
        .base_seed(seed)
        .stop_on_violation(false)
        .record_trace(false)
        .chaos(ChaosCfg::builder().seed(seed).bit_flip(P_FLIP).build())
        .run()
}

#[test]
fn single_worker_bit_flip_campaigns_match_the_pinned_digest() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for seed in FIRST_SEED..FIRST_SEED + CAMPAIGNS {
        let report = campaign(seed);
        for b in outcome(&report).bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, 0x745d_f8ec_3a6d_74d4, "digest {digest:#018x}");
}

#[test]
fn a_worker_that_panics_reports_the_steps_it_completed() {
    // This campaign ends in a walker panic on a corrupted descriptor.
    let report = campaign(FIRST_SEED + 3);
    let w = &report.workers[0];
    assert!(
        w.panicked
            .as_deref()
            .is_some_and(|p| p.contains("BusError")),
        "{:?}",
        w.panicked
    );
    assert!(0 < w.steps && w.steps < STEPS, "steps {}", w.steps);
    assert!(w.stats.calls > 0, "{:?}", w.stats);
    assert_eq!(report.stats.calls, w.stats.calls);
}
