//! Violation triage: deduplication and automatic minimization.
//!
//! Every violating execution is folded into a table keyed by a crash
//! signature — the violation kind, the component it names, and the
//! diverging spec coverage point (the deepest `spec/<trap>/…` point the
//! execution's coverage delta reached for the violating trap). The first
//! execution of each signature is greedily minimized with the shared
//! [`crate::minimize()`] helper and written to the crashes directory as a
//! minimal reproducer trace; repeats only bump a counter.

use std::collections::HashMap;
use std::path::PathBuf;

use pkvm_ghost::Violation;
use pkvm_hyp::cov::Report;

use crate::campaign::CampaignTrace;
use crate::fuzz::corpus::CorpusError;
use crate::minimize::minimize_with_stats;
use crate::tracefile::save_trace;

/// The deduplication key of a violating execution.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CrashSig {
    /// Stable violation kind tag (`"spec-mismatch"`, `"hyp-panic"`, …).
    pub kind: &'static str,
    /// The component the violation names, if any.
    pub component: Option<String>,
    /// The diverging spec coverage point, if the violating trap reached
    /// one in this execution's coverage delta.
    pub spec_point: Option<&'static str>,
}

impl std::fmt::Display for CrashSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(c) = &self.component {
            write!(f, " @ {c}")?;
        }
        if let Some(p) = self.spec_point {
            write!(f, " [{p}]")?;
        }
        Ok(())
    }
}

/// One deduplicated crash family.
#[derive(Clone, Debug)]
pub struct CrashEntry {
    /// The family's signature.
    pub sig: CrashSig,
    /// Violating executions folded into this family.
    pub count: u64,
    /// The minimized reproducer.
    pub trace: CampaignTrace,
    /// Driver events in the first violating input, before minimization.
    pub original_events: usize,
    /// Driver events left after minimization.
    pub minimized_events: usize,
    /// Total fuzzer driver steps spent when the family was first found
    /// (the time-to-detection figure the experiments report).
    pub steps_to_find: u64,
    /// Where the reproducer persists, when a crashes directory is set.
    pub file: Option<PathBuf>,
}

/// The triage table.
#[derive(Debug)]
pub struct Triage {
    /// Crash families, in discovery order.
    pub entries: Vec<CrashEntry>,
    /// Reproducer persistence failures absorbed so far (the family stays
    /// triaged in memory; only its on-disk reproducer is missing).
    pub persist_errors: u64,
    index: HashMap<CrashSig, usize>,
    dir: Option<PathBuf>,
    minimize_budget: usize,
    last_error: Option<CorpusError>,
}

impl Triage {
    /// An empty table; creates the crashes directory when one is given.
    /// `minimize_budget` caps fresh-machine replays spent minimizing each
    /// new crash family. Never fails: an uncreatable directory degrades
    /// the table to in-memory only, recorded as a persistence error.
    pub fn new(dir: Option<PathBuf>, minimize_budget: usize) -> Triage {
        let mut persist_errors = 0;
        let mut last_error = None;
        let dir = dir.and_then(|d| match std::fs::create_dir_all(&d) {
            Ok(()) => Some(d),
            Err(e) => {
                persist_errors += 1;
                last_error = Some(CorpusError::Io { path: d, err: e });
                None
            }
        });
        Triage {
            entries: Vec::new(),
            persist_errors,
            index: HashMap::new(),
            dir,
            minimize_budget,
            last_error,
        }
    }

    /// The most recent persistence failure, if any.
    pub fn last_error(&self) -> Option<&CorpusError> {
        self.last_error.as_ref()
    }

    /// Computes the signature of one violation given the execution's
    /// *spec* coverage delta: of the `spec/<trap>/…` points the delta
    /// reached for the violating trap, the last (deepest) one becomes the
    /// diverging point.
    pub fn signature(v: &Violation, spec_delta: &Report) -> CrashSig {
        let spec_point = v.trap().and_then(|t| {
            let prefix = format!("spec/{t}/");
            spec_delta
                .points
                .iter()
                .filter(|(p, n)| *n > 0 && p.starts_with(&prefix))
                .map(|&(p, _)| p)
                .next_back()
        });
        CrashSig {
            kind: v.kind(),
            component: v.component().map(str::to_string),
            spec_point,
        }
    }

    /// Folds one violating execution into the table. Returns how many
    /// *new* crash families it opened (minimizing and persisting each);
    /// known signatures only bump their counters. A reproducer that
    /// fails to persist stays triaged in memory, counted in
    /// [`Triage::persist_errors`].
    pub fn record(
        &mut self,
        trace: &CampaignTrace,
        violations: &[Violation],
        hyp_panic: Option<&str>,
        spec_delta: &Report,
        steps_to_find: u64,
    ) -> usize {
        let mut sigs: Vec<CrashSig> = violations
            .iter()
            .map(|v| Self::signature(v, spec_delta))
            .collect();
        if sigs.is_empty() && hyp_panic.is_some() {
            // The hypervisor died before the oracle could phrase a
            // violation; still a crash family.
            sigs.push(CrashSig {
                kind: "hyp-panic",
                component: None,
                spec_point: None,
            });
        }
        let mut uniq: Vec<CrashSig> = Vec::new();
        for s in sigs {
            if !uniq.contains(&s) {
                uniq.push(s);
            }
        }
        let sigs = uniq;
        let mut opened = 0;
        // Minimize at most once per execution, shared by every new
        // signature it opened (they reproduce from the same input).
        let mut minimized: Option<CampaignTrace> = None;
        for sig in sigs {
            if let Some(&i) = self.index.get(&sig) {
                self.entries[i].count += 1;
                continue;
            }
            let min = minimized
                .get_or_insert_with(|| minimize_with_stats(trace, self.minimize_budget).trace)
                .clone();
            let i = self.entries.len();
            let file = self.dir.as_ref().and_then(|d| {
                let path = d.join(format!("crash-{i:03}-{}.pkvmtrace", sig.kind));
                match save_trace(&path, &min) {
                    Ok(()) => Some(path),
                    Err(err) => {
                        self.persist_errors += 1;
                        self.last_error = Some(CorpusError::Trace { path, err });
                        None
                    }
                }
            });
            self.index.insert(sig.clone(), i);
            self.entries.push(CrashEntry {
                sig,
                count: 1,
                original_events: trace.events.iter().filter(|r| r.event.is_driver()).count(),
                minimized_events: min.events.len(),
                trace: min,
                steps_to_find,
                file,
            });
            opened += 1;
        }
        opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{replay, CampaignCfg};
    use pkvm_hyp::faults::{Fault, FaultSet};

    fn violating_trace() -> (CampaignTrace, Vec<Violation>) {
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let report = CampaignCfg::builder()
            .workers(1)
            .steps_per_worker(300)
            .base_seed(0x7a1)
            .faults(&faults)
            .run();
        assert!(!report.is_clean());
        (report.trace.unwrap(), report.violations)
    }

    #[test]
    fn duplicate_signatures_fold_into_one_family() {
        let (trace, violations) = violating_trace();
        let delta = Report { points: vec![] };
        let mut t = Triage::new(None, 40);
        let opened = t.record(&trace, &violations, None, &delta, 100);
        assert!(opened >= 1);
        let families = t.entries.len();
        // The same execution again: zero new families, counters bump.
        let opened2 = t.record(&trace, &violations, None, &delta, 200);
        assert_eq!(opened2, 0);
        assert_eq!(t.entries.len(), families);
        assert!(t.entries[0].count >= 2);
        assert_eq!(t.entries[0].steps_to_find, 100, "first sighting wins");
        // The minimized reproducer still reproduces.
        assert!(t.entries[0].minimized_events <= t.entries[0].original_events);
        assert!(replay(&t.entries[0].trace).violated());
    }

    #[test]
    fn signature_names_the_diverging_spec_point() {
        let (_, violations) = violating_trace();
        let v = &violations[0];
        let trap = v.trap().expect("share violation names its trap");
        let point: &'static str = "spec/host_share_hyp/check";
        let delta = Report {
            points: vec![(point, 3)],
        };
        let sig = Triage::signature(v, &delta);
        assert_eq!(sig.kind, v.kind());
        if trap == "host_share_hyp" {
            assert_eq!(sig.spec_point, Some(point));
        }
        // A delta that never reached the trap's spec leaves the point
        // empty rather than inventing one.
        let empty = Report { points: vec![] };
        assert_eq!(Triage::signature(v, &empty).spec_point, None);
        let rendered = sig.to_string();
        assert!(rendered.contains(sig.kind), "{rendered}");
    }
}
