//! End-to-end tests of the parallel random-testing campaign: concurrent
//! clean runs, deterministic replay of an injected bug from the recorded
//! seeds and schedule alone, and trace minimization.

use pkvm_repro::harness::campaign::{replay, CampaignCfg};
use pkvm_repro::harness::minimize;
use pkvm_repro::hyp::faults::{Fault, FaultSet};

#[test]
fn concurrent_campaign_on_a_clean_hypervisor_is_clean() {
    // Several base seeds, all workers concurrent, oracle fully on: the
    // §4.4 machinery must not report anything on a correct hypervisor.
    for seed in [11, 12] {
        let report = CampaignCfg::builder()
            .workers(4)
            .steps_per_worker(300)
            .base_seed(seed)
            .record_trace(false)
            .run();
        assert!(
            report.is_clean(),
            "seed {seed}: {}\n{:?}",
            report.render(),
            report.violations
        );
    }
}

#[test]
fn injected_bug_found_by_a_campaign_replays_and_minimizes() {
    let faults = FaultSet::none();
    faults.inject(Fault::SynShareWrongState);
    let report = CampaignCfg::builder()
        .workers(2)
        .steps_per_worker(2_000)
        .base_seed(0xdead)
        .faults(&faults)
        .run();
    assert!(
        !report.violations.is_empty(),
        "the injected bug was never triggered:\n{}",
        report.render()
    );
    let trace = report.trace.as_ref().expect("trace recorded");

    // Deterministic reproduction: a fresh machine, the recorded schedule,
    // nothing else. Twice, to catch nondeterminism in the replay itself.
    let first = replay(trace);
    assert!(first.violated(), "recorded schedule did not reproduce");
    let second = replay(trace);
    assert_eq!(
        first.violations.len(),
        second.violations.len(),
        "replay is not deterministic"
    );

    // The minimized trace is no longer and still violates.
    let minimized = minimize(trace, 60);
    assert!(minimized.events.len() <= trace.events.len());
    assert!(replay(&minimized).violated());
}
