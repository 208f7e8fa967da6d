//! The benchmark's metric table — the program's copy of what
//! `BENCHMARK.json` declares (a test keeps the two equal).

/// An end-to-end metric: what a user of checked testing sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s.unchecked",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s.inline",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s.pipelined",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "encode_events_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "decode_events_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// The nine hook families `SpanHooks` times, in report order.
pub const HOOKS: [&str; 9] = [
    "trap_enter",
    "trap_exit",
    "lock_acquired",
    "lock_releasing",
    "vcpu",
    "read_once",
    "table_page",
    "tlb_events",
    "transfer",
];

/// Hooks whose tail latency is reported.
pub const TAIL_HOOKS: [usize; 3] = [1, 2, 3];

/// A per-layer metric: `(name, unit, higher_is_better)`.
pub type PerLayer = (String, &'static str, bool);

/// Every per-layer metric of the traced run, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, higher: bool| v.push((name.to_string(), unit, higher));
    add("driver.self_us_per_step", "us", false);
    add("driver.self_growth", "ratio", false);
    add("driver.model_pages_end", "count", false);
    add("driver.ok_frac", "frac", true);
    add("driver.rejected_frac", "frac", false);
    add("hyp.self_us_p50", "us", false);
    add("hyp.self_us_p99", "us", false);
    add("hyp.host_access_us_mean", "us", false);
    add("hyp.cov_hits_per_step", "count", false);
    add("hyp.host_maplets_end", "count", false);
    add("hyp.host_table_pages_end", "count", false);
    add("tlb.entries_end", "count", false);
    add("tlb.hit_frac", "frac", true);
    add("tlb.invalidations_per_step", "count", false);
    for k in HOOKS {
        add(&format!("hook.{k}.per_step"), "count", false);
    }
    for mode in ["inline", "pipelined"] {
        for k in HOOKS {
            add(&format!("hook.{k}.us_mean.{mode}"), "us", false);
        }
    }
    for mode in ["inline", "pipelined"] {
        for i in TAIL_HOOKS {
            add(&format!("hook.{}.us_p99.{mode}", HOOKS[i]), "us", false);
        }
    }
    add("hook.share_of_wall.inline", "frac", false);
    add("hook.share_of_wall.pipelined", "frac", false);
    add("abscache.clean_hit_frac", "frac", true);
    add("abscache.subtrees_per_step", "count", false);
    add("abscache.full_frac", "frac", false);
    add("abs.host_walk_us_end", "us", false);
    add("spec.cov_hits_per_step", "count", false);
    add("oracle.checked_frac", "frac", true);
    add("oracle.abstractions_per_step", "count", false);
    add("oracle.interleaved_skips", "count", false);
    add("oracle.contained_panics", "count", false);
    add("checker.backhalf_us_per_step", "us", false);
    add("checker.msgs_per_step", "count", false);
    add("checker.in_flight_mean", "count", false);
    add("checker.in_flight_max", "count", false);
    add("checker.drain_ms", "ms", false);
    add("event.per_step", "count", false);
    add("codec.encode_ns_per_event", "ns", false);
    add("codec.decode_ns_per_event", "ns", false);
    add("codec.bytes_per_event", "B", false);
    add("replay.decode_share", "frac", false);
    add("boot.oracle_us", "us", false);
    add("boot.bare_us", "us", false);
    add("fuzz.boot_share", "frac", false);
    add("fuzz.steps_per_exec", "count", true);
    add("fuzz.admit_frac", "frac", true);
    add("fuzz.crash_families", "count", false);
    add("tracing.overhead_frac", "frac", false);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn per_layer_names_are_unique_and_75() {
        let names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names.len(), 75);
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perf/");
        let b = json::parse(&text).expect("valid JSON");
        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let e2e = b
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better(m.higher_is_better))
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let pl = b
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        let want = per_layer();
        assert_eq!(pl.len(), want.len());
        for (j, (name, unit, higher)) in pl.iter().zip(&want) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better(*higher))
            );
        }
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
