//! The mode-equivalence property suite: `CheckMode::Inline` and
//! `CheckMode::Pipelined` are *the same oracle* — only the thread the
//! back half runs on differs. Over a 32-seed sweep of clean, fault-heavy,
//! chaotic and fuzz-session workloads, both modes must settle into
//! identical verdicts: the same violations (kind and event seq), the same
//! oracle counters, the same canonical event-stream signature, the same
//! step counts and the same coverage summaries.
//!
//! The whole sweep is one `#[test]` on purpose: the coverage registry is
//! process-global, and a lone test per binary keeps the per-run coverage
//! deltas clean.
//!
//! Every run checks at the oracle's default switches, quarantine
//! included: containment and quarantine are back-half policy, applied in
//! message order, so a checker that lags the execution frontier makes the
//! same quarantine records as the inline one. A lock-event-heavy chaotic
//! profile, which quarantines, holds the sweep to that.

use pkvm_ghost::event::canonical_signature;
use pkvm_ghost::oracle::OracleOpts;
use pkvm_ghost::{CheckMode, StatsSnapshot};
use pkvm_harness::campaign::CampaignCfg;
use pkvm_harness::chaos::ChaosCfg;
use pkvm_harness::coverage::{snapshot, CoverageSummary};
use pkvm_harness::fuzz::{FuzzCfg, Fuzzer};
use pkvm_harness::proxy::Proxy;
use pkvm_hyp::faults::{Fault, FaultSet};

/// Everything a checked run settles into once the checker drains.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    violations: Vec<(&'static str, Option<u64>)>,
    /// The oracle's counters (campaigns only).
    stats: StatsSnapshot,
    hyp_panic: Option<String>,
    signature: u64,
    steps: u64,
    hyp_cov: Vec<(&'static str, u64)>,
    spec_cov: Vec<(&'static str, u64)>,
}

/// Oracle switches shared by every run: the defaults, in `mode`.
fn opts(mode: CheckMode) -> OracleOpts {
    OracleOpts::builder().check_mode(mode).build()
}

/// Hook-plane chaos at `seed` (bit flips, torn reads, duplicated lock
/// events) that drops each lock event with probability `drop`.
fn chaos(seed: u64, drop: f64) -> ChaosCfg {
    ChaosCfg::builder()
        .seed(seed)
        .bit_flip(0.02)
        .torn_read_once(0.05)
        .drop_lock_event(drop)
        .dup_lock_event(0.02)
        .build()
}

/// One single-worker campaign at `seed`, fingerprinted. The profile
/// varies what the workload stresses: clean (0) drives valid ops only,
/// faulty (1) drives a heavy invalid fraction, chaotic (2) additionally
/// injects hook-plane chaos so real violations flow through the
/// pipeline, and lock-chaotic (4) drops almost a third of the lock
/// events, so the spec steps of the traps that lose them panic often
/// enough to be quarantined.
fn campaign_fingerprint(seed: u64, profile: u64, mode: CheckMode) -> Fingerprint {
    let before = snapshot();
    let mut b = CampaignCfg::builder()
        .workers(1)
        .steps_per_worker(120)
        .base_seed(seed)
        .stop_on_violation(false)
        .record_trace(true)
        .oracle_opts(opts(mode));
    b = match profile {
        0 => b.invalid_fraction(0.0),
        1 => b.invalid_fraction(0.6),
        2 => b.chaos(chaos(seed, 0.02)),
        _ => b.chaos(chaos(seed, 0.3)),
    };
    let report = b.run();
    let cov = CoverageSummary::since(&before);
    let trace = report.trace.as_ref().expect("trace recorded");
    Fingerprint {
        violations: report
            .violations
            .iter()
            .map(|v| (v.kind(), v.event_seq()))
            .collect(),
        stats: report.resilience,
        hyp_panic: report.hyp_panic.clone(),
        signature: canonical_signature(&trace.events),
        steps: report.workers[0].steps,
        hyp_cov: cov.hyp.points,
        spec_cov: cov.spec.points,
    }
}

/// One small in-memory fuzz session at `seed`, fingerprinted. Exercises
/// the corpus/scheduler/triage loop on top of the checker: bootstrap
/// inputs, coverage-guided admission and crash triage must all be blind
/// to the check mode.
fn fuzz_fingerprint(seed: u64, mode: CheckMode) -> Fingerprint {
    let before = snapshot();
    let cfg = FuzzCfg::builder()
        .seed(seed)
        .step_budget(200)
        .workers(1)
        .bootstrap_inputs(3)
        .bootstrap_len(20)
        .stop_on_violation(false)
        .oracle_opts(opts(mode))
        .build();
    let report = Fuzzer::new(cfg).run();
    let cov = CoverageSummary::since(&before);
    Fingerprint {
        violations: report
            .crashes
            .iter()
            .map(|c| (c.sig.kind, Some(c.count)))
            .collect(),
        stats: StatsSnapshot::default(),
        hyp_panic: None,
        signature: (report.execs << 32)
            ^ (report.corpus_size as u64)
            ^ ((report.points_covered as u64) << 16)
            ^ report.escaped_panics,
        steps: report.steps,
        hyp_cov: cov.hyp.points,
        spec_cov: cov.spec.points,
    }
}

#[test]
fn inline_and_pipelined_agree_across_32_seeds() {
    let mut runs_with_violations = 0;
    for seed in 0..32u64 {
        let profile = seed % 4;
        let (inline, piped) = if profile == 3 {
            (
                fuzz_fingerprint(seed, CheckMode::Inline),
                fuzz_fingerprint(seed, CheckMode::pipelined()),
            )
        } else {
            (
                campaign_fingerprint(seed, profile, CheckMode::Inline),
                campaign_fingerprint(seed, profile, CheckMode::pipelined()),
            )
        };
        assert_eq!(
            inline, piped,
            "seed {seed} (profile {profile}): inline and pipelined verdicts diverge"
        );
        if !inline.violations.is_empty() {
            runs_with_violations += 1;
        }
    }
    // The agreement must not be vacuous: the chaotic profile exists to
    // push real violations through both pipelines.
    assert!(
        runs_with_violations > 0,
        "no seed produced a violation — the sweep never exercised the violation path"
    );

    // Quarantine at its defaults: the lock-chaotic profile's skips and
    // recoveries must agree by mode, and some run must quarantine, or the
    // agreement says nothing about quarantine.
    let mut quarantined = 0;
    for seed in 0..8u64 {
        let inline = campaign_fingerprint(seed, 4, CheckMode::Inline);
        let piped = campaign_fingerprint(seed, 4, CheckMode::pipelined());
        assert_eq!(
            inline, piped,
            "seed {seed} (lock-chaotic): inline and pipelined verdicts diverge"
        );
        quarantined += inline.stats.quarantined_skips;
    }
    assert!(quarantined > 0, "no lock-chaotic run quarantined anything");

    // The break-before-make spec check is pure back-half state, so the
    // missing-TLBI bug must surface as the *same* violations — kind and
    // anchoring event seq — whichever thread runs the back half. (Kept
    // inside the lone test: see the module doc on the coverage registry.)
    let inline = bbm_fingerprint(CheckMode::Inline);
    let piped = bbm_fingerprint(CheckMode::pipelined());
    assert_eq!(inline, piped, "break-before-make verdicts diverge by mode");
    assert!(
        inline
            .iter()
            .any(|(kind, seq)| *kind == "break-before-make" && seq.is_some()),
        "missing-TLBI bug not spec-detected: {inline:?}"
    );

    // The Android mix — firmware donation, share/unshare ping-pong,
    // VM churn — flows through the same front half, so a clean
    // Android-weighted campaign must fingerprint identically by mode.
    let inline = android_fingerprint(CheckMode::Inline);
    let piped = android_fingerprint(CheckMode::pipelined());
    assert_eq!(inline, piped, "android campaign verdicts diverge by mode");
    assert!(
        inline.violations.is_empty(),
        "clean android campaign produced violations: {:?}",
        inline.violations
    );

    // And the firmware-protection check, like break-before-make, lives
    // entirely in the back half: the firmware-reclaiming teardown bug
    // must anchor the same violations whichever thread applies it.
    let inline = firmware_fingerprint(CheckMode::Inline);
    let piped = firmware_fingerprint(CheckMode::pipelined());
    assert_eq!(
        inline, piped,
        "firmware-protection verdicts diverge by mode"
    );
    assert!(
        inline
            .iter()
            .any(|(kind, seq)| *kind == "firmware-protection" && seq.is_some()),
        "firmware reclaim not spec-detected: {inline:?}"
    );
}

/// One single-worker campaign under the Android op mix (pvmfw firmware
/// donation, heavy share/unshare, VM churn), fingerprinted.
fn android_fingerprint(mode: CheckMode) -> Fingerprint {
    let before = snapshot();
    let report = CampaignCfg::builder()
        .workers(1)
        .steps_per_worker(250)
        .base_seed(0xa11d)
        .invalid_fraction(0.0)
        .stop_on_violation(false)
        .record_trace(true)
        .android()
        .oracle_opts(opts(mode))
        .run();
    let cov = CoverageSummary::since(&before);
    let trace = report.trace.as_ref().expect("trace recorded");
    Fingerprint {
        violations: report
            .violations
            .iter()
            .map(|v| (v.kind(), v.event_seq()))
            .collect(),
        stats: report.resilience,
        hyp_panic: report.hyp_panic.clone(),
        signature: canonical_signature(&trace.events),
        steps: report.workers[0].steps,
        hyp_cov: cov.hyp.points,
        spec_cov: cov.spec.points,
    }
}

/// Violations from a firmware-reclaiming teardown: the host taking back
/// a donated pvmfw page, spec-detected as `firmware-protection` anchored
/// at the regain's event seq.
fn firmware_fingerprint(mode: CheckMode) -> Vec<(&'static str, Option<u64>)> {
    let faults = FaultSet::none();
    faults.inject(Fault::SynFirmwareReclaim);
    let p = Proxy::builder()
        .faults(faults)
        .oracle_opts(opts(mode))
        .boot();
    let handle = p.init_vm(0, 1, true).expect("init_vm");
    let fw = p.alloc_page();
    p.load_firmware(0, handle, fw, 0xa0, 1).expect("firmware");
    p.teardown(0, handle).expect("teardown");
    let _ = p.reclaim(0, fw);
    p.violations()
        .iter()
        .map(|v| (v.kind(), v.event_seq()))
        .collect()
}

/// Violations from a missing-TLBI run: a share/unshare pair whose
/// downgrades exit the trap unflushed, spec-detected as
/// `break-before-make` anchored at the downgrade's event seq.
fn bbm_fingerprint(mode: CheckMode) -> Vec<(&'static str, Option<u64>)> {
    let faults = FaultSet::none();
    faults.inject(Fault::SynMissingTlbi);
    let p = Proxy::builder()
        .faults(faults)
        .oracle_opts(opts(mode))
        .boot();
    let pfn = p.alloc_page();
    p.share(0, pfn).unwrap();
    p.unshare(0, pfn).unwrap();
    p.violations()
        .iter()
        .map(|v| (v.kind(), v.event_seq()))
        .collect()
}
