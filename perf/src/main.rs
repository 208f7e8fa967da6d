//! `pkvm-perf`: a fixed-traffic benchmark of checked-testing throughput
//! with an outside-in per-layer trace. See `README.md` beside this
//! package for the workloads, metrics and how to compare two commits.
//!
//! ```text
//! pkvm-perf run <workload> [--seed N] [--seconds S] [--out F.json]
//! pkvm-perf trace <workload> [--seed N] [--seconds S] [--out F.json]
//! pkvm-perf --workload W --seed N --seconds S --trace 0|1 [--out F.json]
//! pkvm-perf compare <parent-runs/> <change-runs/>
//! ```
//!
//! `run` prints every end-to-end metric as `name value unit`, `trace`
//! every per-layer metric; both end with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` and exit non-zero when
//! any output check failed.

mod compare;
mod digest;
mod json;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{per_layer, END_TO_END};
use workload::Workload;

struct Args {
    trace: bool,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut trace = None;
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "run" if trace.is_none() => trace = Some(false),
            "trace" if trace.is_none() => trace = Some(true),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--out" => out = Some(PathBuf::from(value()?)),
            w if workload.is_none() && !w.starts_with('-') => workload = Some(w.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        trace: trace.unwrap_or(false),
        workload,
        seed,
        seconds,
        out,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pkvm-perf run|trace <workload> [--seed N] [--seconds S] [--out F.json]\n       \
         pkvm-perf --workload W --seed N --seconds S --trace 0|1 [--out F.json]\n       \
         pkvm-perf compare <parent-runs/> <change-runs/>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = argv.as_slice() else {
            return usage();
        };
        return match compare::compare(parent.as_ref(), change.as_ref()) {
            Ok((report, ok)) => {
                print!("{report}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("pkvm-perf compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pkvm-perf: {e}");
            return usage();
        }
    };
    let w = args.workload;
    let spec = w.spec();
    let result = if args.trace {
        let csv = match &args.out {
            Some(out) => out.with_extension("spans.csv"),
            None => workload::scratch_root().join(format!("spans-{}.csv", w.name())),
        };
        trace::run(w, &spec, args.seed, &csv).map(|(m, checks)| {
            eprintln!("raw spans: {}", csv.display());
            let metrics: Vec<(String, f64, &str)> = per_layer()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = m.get(&name).copied().unwrap_or(f64::NAN);
                    (name, v, unit)
                })
                .collect();
            (metrics, checks, None)
        })
    } else {
        workload::run(w, &spec, args.seed, args.seconds).map(|o| {
            eprintln!(
                "{} passes; measured seconds x {:.4} = nominal seconds",
                o.passes,
                o.timings.clock.scale()
            );
            let metrics = o
                .metrics()
                .into_iter()
                .zip(END_TO_END)
                .map(|((name, v), def)| {
                    debug_assert_eq!(name, def.name);
                    (name.to_string(), v, def.unit)
                })
                .collect();
            (metrics, o.checks, Some((o.traffic, o.passes)))
        })
    };
    // A run that could not finish (a failed set-up, a workload change
    // found while recording) still leaves an incorrect `--out` document
    // for `compare`, but prints no result line.
    let (metrics, mut checks, traffic) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pkvm-perf: {}: {e}", w.name());
            let mut checks = workload::Checks::default();
            checks.op(vec![e]);
            if let Some(out) = &args.out {
                let _ = write_out(out, &args, &checks, None, "{}");
            }
            return ExitCode::FAILURE;
        }
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            checks.op(vec![format!("metric {name} was not measured")]);
        }
    }
    for p in &checks.problems {
        eprintln!("check failed: {p}");
    }
    let body = metrics
        .iter()
        .map(|(name, v, unit)| {
            println!("{name} {} {unit}", json::num(*v));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*v),
                json::quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let body = format!("{{{body}}}");
    if let Some(out) = &args.out {
        if let Err(e) = write_out(out, &args, &checks, traffic, &body) {
            eprintln!("pkvm-perf: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&checks, &body));
    if checks.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(checks: &workload::Checks, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checks.problems.is_empty(),
        checks.attempted.max(1),
        checks.failed
    )
}

/// Writes the `--out` document `compare` reads: the result line's
/// fields plus the run's identity, traffic digest and pass count, and
/// the failed checks.
fn write_out(
    out: &std::path::Path,
    args: &Args,
    checks: &workload::Checks,
    traffic: Option<(u64, usize)>,
    metrics: &str,
) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (digest, passes) = traffic.unwrap_or((0, 0));
    let problems: Vec<String> = checks.problems.iter().map(|p| json::quote(p)).collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"passes\": {passes}, \"traffic_digest\": \"{digest:#018x}\", \"problems\": [{}], {}\n",
        json::quote(args.workload.name()),
        args.seed,
        args.trace,
        problems.join(", "),
        &result_line(checks, metrics)[1..]
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, doc)
}
