//! Coverage reporting for implementation and specification.
//!
//! The kernel's GCOV tooling is unusable at EL2, so the paper built its
//! own coverage plumbing (§5). Here both the hypervisor (`pkvm-hyp`) and
//! the specification (`pkvm-ghost`) count hits of their declared coverage
//! points in static tables ([`pkvm_hyp::cov::HYP_COV`],
//! [`pkvm_ghost::spec::SPEC_COV`]); this module assembles the reports the
//! paper gives — coverage of the implementation and of the specification
//! functions — after running a test campaign.

use pkvm_ghost::spec::SPEC_COV;
use pkvm_hyp::cov::{self, Report, HYP_COV};

/// A point-in-time copy of both tables' counters: the start of a
/// [`CoverageSummary::since`] window.
#[derive(Clone, Debug)]
pub struct Snapshot {
    hyp: cov::Snapshot,
    spec: cov::Snapshot,
}

/// Captures both tables' counters without modifying them.
pub fn snapshot() -> Snapshot {
    Snapshot {
        hyp: HYP_COV.snapshot(),
        spec: SPEC_COV.snapshot(),
    }
}

/// Coverage points declared by the specification functions, kept in sync
/// with `pkvm-ghost`'s `spec` module (the equivalent of the paper's "459
/// of 497 lines" spec-coverage accounting).
pub fn spec_points() -> &'static [&'static str] {
    SPEC_COV.names()
}

/// Coverage points declared by the hypervisor implementation.
pub fn hyp_points() -> &'static [&'static str] {
    HYP_COV.names()
}

/// Specification points that are *unreachable on a clean hypervisor* —
/// manually identified, exactly as the paper does for its coverage
/// accounting ("absolute coverage numbers do not account for unreachable
/// code paths"). They are: the loose `Unchecked` acceptances of `-ENOMEM`
/// in paths whose allocations cannot fail under the test configurations;
/// the `Impossible` detections (only a buggy hypervisor produces them);
/// the missing-call-data fallbacks (the instrumented implementation always
/// records them); and the VM-vanished-while-loaded cases (teardown's
/// `EBUSY` rule excludes them).
pub const SPEC_UNREACHABLE_ON_CLEAN: &[&str] = &[
    "spec/host_map_guest/param",
    "spec/host_map_guest/unchecked2",
    "spec/host_reclaim_page/impossible",
    "spec/host_reclaim_page/unchecked",
    "spec/host_reclaim_page/unchecked2",
    "spec/host_share_hyp/impossible",
    "spec/host_unshare_hyp/unchecked",
    "spec/init_vcpu/unchecked2",
    "spec/init_vm/unchecked2",
    "spec/teardown_vm/unchecked",
    "spec/teardown_vm/unchecked2",
    "spec/topup_memcache/impossible",
    "spec/vcpu_load/unchecked",
    "spec/vcpu_run/unchecked2",
    "spec/vcpu_run/unchecked3",
    "spec/vcpu_run/unchecked4",
    "spec/vcpu_run/unchecked5",
    // `vm_load_firmware`'s ENOMEM acceptance (`unchecked`) is *not* here:
    // the Android pool-exhaustion scenario genuinely reaches it on a
    // clean hypervisor. Only the VM-vanished fallback stays unreachable.
    "spec/vm_load_firmware/unchecked2",
];

/// A two-sided coverage summary.
#[derive(Clone, Debug)]
pub struct CoverageSummary {
    /// Implementation coverage.
    pub hyp: Report,
    /// Specification coverage.
    pub spec: Report,
}

impl CoverageSummary {
    /// Snapshot of the current counters.
    pub fn collect() -> CoverageSummary {
        CoverageSummary {
            hyp: HYP_COV.report(),
            spec: SPEC_COV.report(),
        }
    }

    /// The coverage accumulated *since* `before` (see [`snapshot`]) —
    /// the delta primitive parallel campaign and fuzz workers use
    /// instead of the racy global [`reset`].
    pub fn since(before: &Snapshot) -> CoverageSummary {
        CoverageSummary {
            hyp: HYP_COV.report().diff(&before.hyp),
            spec: SPEC_COV.report().diff(&before.spec),
        }
    }

    /// The spec points that remain after discounting the manually
    /// identified unreachable list. Both
    /// [`spec_percent_reachable`](CoverageSummary::spec_percent_reachable)
    /// and [`render`](CoverageSummary::render) derive from this one
    /// filtered set, so the reported denominator cannot drift from the
    /// percentage when the unreachable list and the registry diverge
    /// (e.g. a stale entry naming a point that no longer exists).
    pub fn spec_reachable_points(&self) -> Vec<(&'static str, u64)> {
        self.spec
            .points
            .iter()
            .filter(|(p, _)| !SPEC_UNREACHABLE_ON_CLEAN.contains(p))
            .map(|&(p, n)| (p, n))
            .collect()
    }

    /// Spec coverage computed over the *reachable* points only (the
    /// paper's methodology of discounting manually-identified unreachable
    /// code before reporting the remainder).
    pub fn spec_percent_reachable(&self) -> f64 {
        let reachable = self.spec_reachable_points();
        if reachable.is_empty() {
            return 100.0;
        }
        100.0 * reachable.iter().filter(|(_, n)| *n > 0).count() as f64 / reachable.len() as f64
    }

    /// Renders the paper-style table rows.
    pub fn render(&self) -> String {
        format!(
            "implementation: {:>5.1}% ({} of {} points)\n\
             specification:  {:>5.1}% ({} of {} points); \
             {:.1}% of the {} reachable points\n",
            self.hyp.percent(),
            self.hyp.hit_count(),
            self.hyp.total(),
            self.spec.percent(),
            self.spec.hit_count(),
            self.spec.total(),
            self.spec_percent_reachable(),
            self.spec_reachable_points().len(),
        )
    }
}

/// Resets all counters (call before a campaign).
pub fn reset() {
    HYP_COV.reset();
    SPEC_COV.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn point_lists_are_disjoint_and_nonempty() {
        assert!(!hyp_points().is_empty());
        assert!(!spec_points().is_empty());
        for p in spec_points() {
            assert!(p.starts_with("spec/"), "spec point {p} must be namespaced");
            assert!(!hyp_points().contains(p));
        }
    }

    #[test]
    fn every_declared_point_has_its_own_index() {
        for points in [hyp_points(), spec_points()] {
            for (i, p) in points.iter().enumerate() {
                assert_eq!(pkvm_hyp::cov::index_of(points, p), i, "{p}");
            }
        }
    }

    #[test]
    fn unreachable_list_matches_the_registry() {
        // Every entry of the manual unreachable list must name a live
        // registry point; a stale entry would silently skew the reachable
        // accounting it is subtracted from.
        for p in SPEC_UNREACHABLE_ON_CLEAN {
            assert!(
                spec_points().contains(p),
                "unreachable list entry {p} is not a registered spec point"
            );
        }
    }

    #[test]
    fn render_reachable_count_derives_from_the_filtered_set() {
        let c = CoverageSummary::collect();
        let reachable = c.spec_reachable_points().len();
        assert!(c.render().contains(&format!("{reachable} reachable")));
        // The filtered set is what the percentage divides by, so the two
        // figures in the rendered row agree by construction.
        assert_eq!(
            reachable,
            c.spec
                .points
                .iter()
                .filter(|(p, _)| !SPEC_UNREACHABLE_ON_CLEAN.contains(p))
                .count()
        );
    }

    #[test]
    fn handwritten_suite_reaches_high_coverage() {
        // Note: the registry is process-global; other tests in this binary
        // also contribute hits, which only helps the threshold.
        scenarios::run_all(true);
        // The Android family is part of the handwritten surface now: it
        // is what reaches the firmware and transfer spec points.
        for s in crate::android::all() {
            let p = crate::proxy::Proxy::builder().boot();
            (s.run)(&p);
            assert!(p.all_clear(), "android scenario {} not clean", s.name);
        }
        let c = CoverageSummary::collect();
        assert!(
            c.hyp.percent() >= 85.0,
            "implementation coverage too low:\n{}\nmissed: {:?}",
            c.render(),
            c.hyp.missed()
        );
        // The spec's point list deliberately includes its loose/`Unchecked`
        // paths, most of which are unreachable on a clean hypervisor (the
        // paper likewise reports unreachable spec lines among its misses).
        assert!(
            c.spec.percent() >= 60.0,
            "spec coverage too low:\n{}\nmissed: {:?}",
            c.render(),
            c.spec.missed()
        );
    }
}
