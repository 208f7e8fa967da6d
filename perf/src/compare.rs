//! `pkvm-perf compare`: the small-sandbox rule for a parent/change pair
//! of run directories. At least ten runs per side and workload, paired
//! by seed (the rounds alternate which side runs first). A win needs the
//! change ahead in at least nine tenths of the pairs and a median gap
//! wider than the parent's interquartile range; otherwise each metric
//! must not worsen by more than its bound, and a metric whose
//! run-to-run spread exceeds its bound is unresolved, not unchanged.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::stats::{quartiles, spread};

/// One untraced run, as `--out` wrote it.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub traffic: String,
    pub metrics: BTreeMap<String, f64>,
}

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Win,
    NoRegression,
    Regression,
    Unresolved,
    TooFewPairs,
}

pub fn judge(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    higher: bool,
    bound: f64,
) -> Verdict {
    if pairs.len() < 10 {
        return Verdict::TooFewPairs;
    }
    let sign = if higher { 1.0 } else { -1.0 };
    let (q1, pm, q3) = quartiles(parent);
    let cm = quartiles(change).1;
    let gap = sign * (cm - pm);
    let wins = pairs.iter().filter(|(p, c)| sign * (c - p) > 0.0).count();
    if wins * 10 >= pairs.len() * 9 && gap > q3 - q1 {
        return Verdict::Win;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| sign * (c - p) > 0.0));
    if spread(parent).max(spread(change)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if -gap > bound * pm.abs() {
        return Verdict::Regression;
    }
    Verdict::NoRegression
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        if v.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("{}: no {k}", p.display()));
        let metrics = field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            correct: field("correct")? == &Json::Bool(true),
            traffic: field("traffic_digest")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            metrics,
        });
    }
    Ok(runs)
}

/// Seeds of `runs` that `others` has no run for.
fn unpaired(runs: &[&Run], others: &[&Run]) -> Vec<u64> {
    runs.iter()
        .map(|r| r.seed)
        .filter(|s| !others.iter().any(|o| o.seed == *s))
        .collect()
}

/// Compares two run directories; returns the report and whether the
/// change passes: every workload and seed run on both sides, every run
/// correct, no workload change, and every metric judged on at least ten
/// pairs without a regression.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<(String, bool), String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut out = String::new();
    let mut ok = true;
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(&change)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        let (only_p, only_c) = (unpaired(&p, &c), unpaired(&c, &p));
        if !only_p.is_empty() || !only_c.is_empty() {
            let _ = writeln!(
                out,
                "{w}: runs on one side only (parent seeds {only_p:?}, change seeds {only_c:?})"
            );
            ok = false;
        }
        let bad = p.iter().chain(&c).filter(|r| !r.correct).count();
        if bad > 0 {
            let _ = writeln!(out, "{w}: {bad} incorrect run(s); nothing compared");
            ok = false;
            continue;
        }
        let mut traffic: Vec<&str> = p.iter().chain(&c).map(|r| r.traffic.as_str()).collect();
        traffic.sort_unstable();
        traffic.dedup();
        if traffic.len() > 1 {
            let _ = writeln!(
                out,
                "{w}: workload change (traffic digests {traffic:?}); nothing compared"
            );
            ok = false;
            continue;
        }
        let _ = writeln!(
            out,
            "{w} ({} parent runs, {} change runs)",
            p.len(),
            c.len()
        );
        for m in END_TO_END {
            let vals = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (pv, cv) = (vals(&p), vals(&c));
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|pr| {
                    let cr = c.iter().find(|cr| cr.seed == pr.seed)?;
                    Some((*pr.metrics.get(m.name)?, *cr.metrics.get(m.name)?))
                })
                .collect();
            let verdict = judge(&pv, &cv, &pairs, m.higher_is_better, m.bound);
            ok &= !matches!(verdict, Verdict::Regression | Verdict::TooFewPairs);
            let (pq1, pm, pq3) = quartiles(&pv);
            let (cq1, cm, cq3) = quartiles(&cv);
            let sign = if m.higher_is_better { 1.0 } else { -1.0 };
            let wins = pairs.iter().filter(|(a, b)| sign * (b - a) > 0.0).count();
            let _ = writeln!(
                out,
                "  {:<22} parent {pm:.6} [{pq1:.6} .. {pq3:.6}]  change {cm:.6} [{cq1:.6} .. {cq3:.6}] {}  wins {wins}/{}  bound {:.0}%  {:?}",
                m.name,
                m.unit,
                pairs.len(),
                m.bound * 100.0,
                verdict
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_clear_faster_change_wins() {
        let p = runs(100.0, 0.5);
        let c = runs(110.0, 0.5);
        assert_eq!(judge(&p, &c, &paired(&p, &c), true, 0.1), Verdict::Win);
        // Lower-is-better metrics win by going down.
        assert_eq!(judge(&c, &p, &paired(&c, &p), false, 0.1), Verdict::Win);
    }

    #[test]
    fn a_win_needs_nine_pairs_in_ten_and_a_gap_beyond_the_iqr() {
        let p = runs(100.0, 1.0);
        // Ahead in every pair, but by less than the parent's IQR.
        let c: Vec<f64> = p.iter().map(|x| x + 0.5).collect();
        assert_eq!(
            judge(&p, &c, &paired(&p, &c), true, 0.1),
            Verdict::NoRegression
        );
        // A big median gap, but only 8 of 10 pairs ahead.
        let mut c2: Vec<f64> = p.iter().map(|x| x + 20.0).collect();
        c2[0] = 50.0;
        c2[1] = 50.0;
        assert_ne!(judge(&p, &c2, &paired(&p, &c2), true, 0.5), Verdict::Win);
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression() {
        let p = runs(100.0, 0.1);
        let c = runs(80.0, 0.1);
        assert_eq!(
            judge(&p, &c, &paired(&p, &c), true, 0.1),
            Verdict::Regression
        );
        let small = runs(95.0, 0.1);
        assert_eq!(
            judge(&p, &small, &paired(&p, &small), true, 0.1),
            Verdict::NoRegression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p = runs(50.0, 10.0);
        let c = runs(48.0, 10.0);
        assert_eq!(
            judge(&p, &c, &paired(&p, &c), true, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far = runs(200.0, 10.0);
        assert_eq!(judge(&p, &far, &paired(&p, &far), true, 0.1), Verdict::Win);
        assert_eq!(
            judge(&p[..9], &c[..9], &paired(&p[..9], &c[..9]), true, 0.1),
            Verdict::TooFewPairs
        );
    }

    /// Writes one `--out` document with every end-to-end metric at 1.0.
    fn write_run(dir: &Path, workload: &str, seed: u64) {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": 1.0, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let doc = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": false, \"traffic_digest\": \"0x1\", \"correct\": true, \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        );
        std::fs::create_dir_all(dir).expect("run dir");
        std::fs::write(dir.join(format!("{workload}-{seed}.json")), doc).expect("run file");
    }

    #[test]
    fn missing_runs_fail_the_comparison() {
        let root = crate::workload::scratch_root().join(format!("compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (p, c) = (root.join("parent"), root.join("change"));
        for seed in 1..=10 {
            write_run(&p, "a", seed);
            write_run(&c, "a", seed);
        }
        let passes = |what| {
            let (report, ok) = compare(&p, &c).expect("compares");
            assert!(!report.is_empty(), "{what}");
            ok
        };
        assert!(passes("ten pairs"));
        // A workload only the change ran.
        write_run(&c, "b", 1);
        assert!(!passes("one-sided workload"));
        std::fs::remove_file(c.join("b-1.json")).expect("remove");
        // A crashed change run leaves nine pairs.
        std::fs::remove_file(c.join("a-10.json")).expect("remove");
        assert!(!passes("nine pairs"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
