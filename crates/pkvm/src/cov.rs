//! Custom coverage infrastructure.
//!
//! The paper could not use the kernel's GCOV at EL2 and built bespoke
//! coverage plumbing (§5 "Coverage"). We reproduce the *capability* with
//! process-global counters of named coverage points: the implementation
//! and the specification both declare their interesting branch points in
//! a static list ([`HYP_COV_POINTS`], `pkvm_ghost::spec::SPEC_COV_POINTS`)
//! with one [`Points`] table of counters each; the harness computes
//! hit/total percentages per crate, like the paper's line/branch/function
//! coverage reports.
//!
//! A point name is `"area/site"`, e.g. `"host_share_hyp/check_failed"`.
//! A call site names its point by literal through [`hit!`], which
//! resolves the name to its index in the list at compile time: a hit is
//! one relaxed atomic add, and an undeclared name fails to build.

use std::sync::atomic::{AtomicU64, Ordering};

/// A declared list of coverage points with one process-wide counter per
/// point, indexed as the list is.
#[derive(Debug)]
pub struct Points {
    names: &'static [&'static str],
    hits: &'static [AtomicU64],
}

impl Points {
    /// Pairs each of `names` with its counter in `hits`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (at compile time, in a `static`).
    pub const fn new(names: &'static [&'static str], hits: &'static [AtomicU64]) -> Points {
        assert!(names.len() == hits.len(), "one counter per point");
        Points { names, hits }
    }

    /// The declared point names, in index order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Records one hit of the point at `index`, which [`index_of`]
    /// resolves from its name.
    #[inline]
    pub fn hit(&self, index: usize) {
        self.hits[index].fetch_add(1, Ordering::Relaxed);
    }

    /// The hit count of `point` (0 for a name not in the list).
    pub fn hits(&self, point: &str) -> u64 {
        self.names
            .iter()
            .position(|&p| p == point)
            .map_or(0, |i| self.hits[i].load(Ordering::Relaxed))
    }

    /// Every point with its hit count.
    pub fn report(&self) -> Report {
        Report {
            points: self.names.iter().copied().zip(self.counts()).collect(),
        }
    }

    /// Captures the counters without modifying them.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            names: self.names,
            counts: self.counts().collect(),
        }
    }

    /// Zeroes every counter (between test campaigns).
    ///
    /// The counters are process-global, so a reset issued while other
    /// threads (parallel campaign or fuzz workers) are mid-run destroys
    /// *their* counts too. Code that needs a per-run delta should take a
    /// [`snapshot`](Points::snapshot) before the run and subtract it
    /// afterwards with [`Report::diff`] instead.
    pub fn reset(&self) {
        self.hits.iter().for_each(|h| h.store(0, Ordering::Relaxed));
    }

    fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed))
    }
}

/// The index of `point` in `names`, for const contexts: [`hit!`]
/// evaluates it at compile time.
///
/// # Panics
///
/// Panics if `point` is not in `names`; in a const context, that fails
/// the build.
pub const fn index_of(names: &[&str], point: &str) -> usize {
    let mut i = 0;
    while i < names.len() {
        if str_eq(names[i], point) {
            return i;
        }
        i += 1;
    }
    panic!("undeclared coverage point")
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Records one hit of a hypervisor coverage point, named by a literal
/// declared in [`HYP_COV_POINTS`]; the name resolves to its counter at
/// compile time.
///
/// ```
/// pkvm_hyp::cov::hit!("pool/alloc");
/// assert!(pkvm_hyp::cov::HYP_COV.hits("pool/alloc") > 0);
/// ```
///
/// An undeclared name fails to build:
///
/// ```compile_fail
/// pkvm_hyp::cov::hit!("pool/no_such_point");
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! __cov_hit {
    ($point:literal) => {
        $crate::cov::HYP_COV
            .hit(const { $crate::cov::index_of($crate::cov::HYP_COV_POINTS, $point) })
    };
}

#[doc(inline)]
pub use crate::__cov_hit as hit;

/// The hypervisor's coverage counters, one per [`HYP_COV_POINTS`] entry.
pub static HYP_COV: Points = Points::new(HYP_COV_POINTS, &HYP_HITS);

static HYP_HITS: [AtomicU64; HYP_COV_POINTS.len()] =
    [const { AtomicU64::new(0) }; HYP_COV_POINTS.len()];

/// A point-in-time copy of one table's counters, for race-free deltas.
///
/// Taking a snapshot never disturbs the counters: concurrent workers keep
/// accumulating, and each worker's `snapshot → run → diff` window contains
/// at least its own hits (plus any that raced in — an over-approximation,
/// never a loss).
#[derive(Clone, Debug)]
pub struct Snapshot {
    names: &'static [&'static str],
    counts: Vec<u64>,
}

/// A coverage report over a declared list of points.
#[derive(Clone, Debug)]
pub struct Report {
    /// Points with their hit counts (0 for unhit).
    pub points: Vec<(&'static str, u64)>,
}

impl Report {
    /// Number of points hit at least once.
    pub fn hit_count(&self) -> usize {
        self.points.iter().filter(|(_, n)| *n > 0).count()
    }

    /// Total number of declared points.
    pub fn total(&self) -> usize {
        self.points.len()
    }

    /// Coverage percentage.
    pub fn percent(&self) -> f64 {
        if self.points.is_empty() {
            100.0
        } else {
            100.0 * self.hit_count() as f64 / self.total() as f64
        }
    }

    /// The declared points never hit.
    pub fn missed(&self) -> Vec<&'static str> {
        self.points
            .iter()
            .filter(|(_, n)| *n == 0)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Builds a report of hits accumulated *since* `before`, a snapshot
    /// of the table the report is over (counts are per-point saturating
    /// differences). This is the per-run delta primitive: unlike a
    /// global [`Points::reset`], it cannot destroy counters a
    /// concurrently running worker is accumulating.
    ///
    /// # Panics
    ///
    /// Panics if `before` is a snapshot of another table.
    pub fn diff(&self, before: &Snapshot) -> Report {
        assert!(
            self.points
                .iter()
                .map(|p| p.0)
                .eq(before.names.iter().copied()),
            "a snapshot of another table"
        );
        Report {
            points: self
                .points
                .iter()
                .zip(&before.counts)
                .map(|(&(p, n), &was)| (p, n.saturating_sub(was)))
                .collect(),
        }
    }
}

/// All coverage points declared by the hypervisor implementation.
///
/// Kept adjacent to the code that hits them; [`hit!`] rejects any name
/// missing here at compile time.
pub const HYP_COV_POINTS: &[&str] = &[
    "handle_trap/hvc",
    "handle_trap/host_dabt",
    "handle_trap/unknown_hvc",
    "handle_trap/smc",
    "host_share_hyp/ok",
    "host_share_hyp/check_failed",
    "host_unshare_hyp/ok",
    "host_unshare_hyp/check_failed",
    "host_reclaim_page/ok",
    "host_reclaim_page/not_guest_page",
    "host_map_guest/ok",
    "host_map_guest/err",
    "host_map_guest/no_vcpu",
    "init_vm/ok",
    "init_vm/bad_params",
    "init_vm/donate_failed",
    "init_vm/table_full",
    "init_vcpu/ok",
    "init_vcpu/err",
    "teardown_vm/ok",
    "teardown_vm/err",
    "teardown_vm/busy",
    "vcpu_load/ok",
    "vcpu_load/err",
    "vcpu_put/ok",
    "vcpu_put/none",
    "vcpu_run/exit",
    "vcpu_run/no_vcpu",
    "vcpu_run/guest_hvc_share",
    "vcpu_run/guest_hvc_unshare",
    "vcpu_run/guest_abort",
    "topup_memcache/ok",
    "topup_memcache/unaligned",
    "topup_memcache/too_big",
    "topup_memcache/err",
    "host_abort/mapped_on_demand",
    "host_abort/denied",
    "host_abort/mmio",
    "host_abort/s1_walk_raced",
    "do_share/ok",
    "do_share/check_failed",
    "do_unshare/ok",
    "do_unshare/check_failed",
    "do_donate/ok",
    "do_donate/check_failed",
    "pgtable/map_block",
    "pgtable/map_page",
    "pgtable/split_block",
    "pgtable/free_table",
    "pgtable/oom",
    "pool/alloc",
    "pool/oom",
    "memcache/pop",
    "memcache/empty",
    "vcpu_reg/get",
    "vcpu_reg/set",
    "tlbi/range",
    "tlbi/vmid",
    "tlbi/suppressed",
];

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["a", "b", "c", "d"];
    static HITS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
    /// A table of the tests' own, so that no other test's hits land in
    /// it.
    static TEST: Points = Points::new(NAMES, &HITS);

    // The tests below share `TEST`; serialise them.
    static TEST_LOCK: pkvm_aarch64::sync::Mutex<()> = pkvm_aarch64::sync::Mutex::new(());

    fn hit(point: &'static str) {
        TEST.hit(index_of(NAMES, point));
    }

    #[test]
    fn hits_accumulate_and_reset() {
        let _g = TEST_LOCK.lock();
        TEST.reset();
        hit("a");
        hit("a");
        hit("b");
        assert_eq!(TEST.hits("a"), 2);
        assert_eq!(TEST.hits("b"), 1);
        assert_eq!(TEST.hits("never"), 0);
        TEST.reset();
        assert_eq!(TEST.hits("a"), 0);
    }

    #[test]
    fn report_percentages() {
        let _g = TEST_LOCK.lock();
        TEST.reset();
        hit("a");
        let r = TEST.report();
        assert_eq!(r.hit_count(), 1);
        assert_eq!(r.total(), 4);
        assert!((r.percent() - 25.0).abs() < 1e-9);
        assert_eq!(r.missed(), vec!["b", "c", "d"]);
        TEST.reset();
    }

    #[test]
    fn snapshot_diff_is_a_race_free_delta() {
        let _g = TEST_LOCK.lock();
        TEST.reset();
        hit("a");
        hit("a");
        hit("b");
        let before = TEST.snapshot();
        hit("a");
        hit("c");
        let delta = TEST.report().diff(&before);
        assert_eq!(delta.points, vec![("a", 1), ("b", 0), ("c", 1), ("d", 0)]);
        assert_eq!(delta.hit_count(), 2);
        assert_eq!(delta.missed(), vec!["b", "d"]);
        // The snapshot took nothing away from the live counters.
        assert_eq!(TEST.hits("a"), 3);
        TEST.reset();
    }

    #[test]
    fn declared_points_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in HYP_COV_POINTS {
            assert!(seen.insert(p), "duplicate coverage point {p}");
        }
    }

    #[test]
    fn every_declared_point_has_its_own_index() {
        for (i, p) in HYP_COV_POINTS.iter().enumerate() {
            assert_eq!(index_of(HYP_COV_POINTS, p), i, "{p}");
        }
        // `hit!` counts the point it names and no other.
        let before = HYP_COV.snapshot();
        hit!("vcpu_reg/set");
        let delta = HYP_COV.report().diff(&before);
        assert!(delta
            .points
            .iter()
            .any(|&(p, n)| p == "vcpu_reg/set" && n >= 1));
    }
}
