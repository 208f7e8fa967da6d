//! The four workloads: fixed, digest-pinned traffic, timed in whole
//! passes, with every output checked.
//!
//! Each workload's measured traffic is a fixed pool (episode seeds, the
//! replayed schedule, the fuzz seed), not something drawn from
//! `--seed`: per-episode throughput of the Android mix varies by ±15%
//! between episode seeds (12.7k–21.9k inline steps/s over 20 seeds on
//! 2 CPUs), far more than a regression bound can absorb, and the order
//! of the pool moves peak memory. `--seed` drives the unmeasured traffic
//! of the CPU warm-up and of set-up. Every pool entry carries a pinned
//! digest of its traffic, checked on every run, so a change that alters
//! what a workload sends fails as a workload change instead of reading
//! as a speed-up.
//!
//! Two kinds of machine noise are taken out of the times (see
//! [`Fastest`] and [`Clock`]). On the shared VM the benchmark was built
//! on, the program runs 40–60% slower in phases of one to a few seconds
//! (co-tenant load on the caches: a pure ALU loop does not slow down),
//! so each short timed unit counts at its fastest pass. The fast state
//! itself drifts by up to 15% over minutes; a fixed probe, timed between
//! the units, measures it, and every time is rescaled to the probe's
//! nominal speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::BuildHasherDefault;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkvm_aarch64::addr::PhysAddr;
use pkvm_ghost::event::{Event, EventRecord, TraceStats};
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_ghost::CheckMode;
use pkvm_harness::android::android_weights;
use pkvm_harness::campaign::{worker_seed, CampaignTrace, ReplayMachine};
use pkvm_harness::fuzz::{self, FuzzCfg, FuzzReport, Fuzzer};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::random::{RandomCfg, RandomTester, RunStats, DEFAULT_OP_WEIGHTS, OP_NAMES};
use pkvm_harness::tracefile::{encode_trace, TraceHeader, TraceReader, TraceWriter};
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hooks::{GhostHooks, NoHooks};
use pkvm_hyp::machine::{Machine, MachineConfig};

use crate::digest::{self, Fnv};
use crate::stats::median;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RandomE3,
    AndroidMix,
    TraceReplay,
    FuzzBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RandomE3,
        Workload::AndroidMix,
        Workload::TraceReplay,
        Workload::FuzzBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RandomE3 => "random_e3",
            Workload::AndroidMix => "android_mix",
            Workload::TraceReplay => "trace_replay",
            Workload::FuzzBurst => "fuzz_burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The call mix and oracle switches the workload checks under.
    pub fn mix(self) -> Mix {
        match self {
            // The E3/E12 configuration: host-share-heavy traffic whose
            // abstraction work the incremental cache absorbs.
            Workload::RandomE3 => Mix {
                weights: DEFAULT_OP_WEIGHTS,
                opts: OracleOpts::builder().incremental_abstraction(true).build(),
            },
            // Default switches (full-walk abstraction), as the Android
            // example, the gates and `Proxy::builder()` run.
            Workload::AndroidMix => Mix {
                weights: android_weights(),
                opts: OracleOpts::default(),
            },
            Workload::TraceReplay | Workload::FuzzBurst => Mix {
                weights: DEFAULT_OP_WEIGHTS,
                opts: OracleOpts::default(),
            },
        }
    }

    /// The full-size traffic the benchmark measures.
    pub fn spec(self) -> Spec {
        match self {
            Workload::RandomE3 => Spec {
                pool: pool(0xe3, 10_000, &RANDOM_E3_PINS),
                passes: 50,
                warmup_steps: 2_000,
                setup_reps: 21,
                codec_reps: 5,
                known_failures: &[],
            },
            Workload::AndroidMix => Spec {
                pool: pool(0xa4d, 10_000, &ANDROID_MIX_PINS),
                passes: 50,
                warmup_steps: 2_000,
                setup_reps: 21,
                codec_reps: 5,
                known_failures: &[],
            },
            Workload::TraceReplay => Spec {
                pool: vec![Entry {
                    seed: 0x7e57,
                    steps: 10_000,
                    pin: TRACE_REPLAY_PIN,
                }],
                passes: 50,
                warmup_steps: 0,
                setup_reps: 5,
                codec_reps: 7,
                known_failures: &[],
            },
            Workload::FuzzBurst => Spec {
                pool: vec![Entry {
                    seed: 0x119,
                    steps: 4_000,
                    pin: FUZZ_BURST_PIN,
                }],
                passes: 50,
                warmup_steps: 2_000,
                setup_reps: 21,
                codec_reps: 2,
                known_failures: FUZZ_KNOWN_FAILURES,
            },
        }
    }
}

/// Episode pins (driver-schedule digests) of the full-size pools.
const RANDOM_E3_PINS: [u64; 1] = [0x5d4f_36ca_01e5_936d];
const ANDROID_MIX_PINS: [u64; 1] = [0x5b72_ea61_6ea6_af76];
const TRACE_REPLAY_PIN: u64 = 0x6ebe_a5c0_2aa5_351c;
/// Fuzz pin: digest of the session outcome (execs, steps, corpus size,
/// coverage points, crash families with their counts).
const FUZZ_BURST_PIN: u64 = 0xfa65_0f2d_6099_9c04;

/// Crash families the fuzzer finds on the *clean* hypervisor, both at
/// seed 0x119 within 4,000 steps (and at seed 0xc5, the ci fuzz gate's,
/// within 100,000). Both minimize to two events, e.g.
/// `host_share_hyp(0x44000)` then `host_unshare_hyp(0x400000000044000)`.
/// They are expected outputs of the workload, pinned here; a family not
/// listed fails the run.
pub const FUZZ_KNOWN_FAILURES: &[&str] = &[
    "spec-mismatch @ locals[2] [spec/host_unshare_hyp/ok]",
    "transfer-protocol",
];

/// A workload's call mix and oracle switches (the check mode is chosen
/// per run).
#[derive(Clone, Copy)]
pub struct Mix {
    pub weights: [f64; OP_NAMES.len()],
    pub opts: OracleOpts,
}

/// One unit of pinned traffic: an episode seed and length (for
/// `fuzz_burst`, the fuzz seed and step budget) and its pinned digest.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    pub seed: u64,
    pub steps: u64,
    pub pin: u64,
}

/// The sizes a workload runs at. The benchmark always uses
/// [`Workload::spec`]; tests pass tiny specs through the same code.
#[derive(Clone, Debug)]
pub struct Spec {
    pub pool: Vec<Entry>,
    /// Most timed passes over the pool (runs end earlier, when their
    /// `--seconds` are up); each timed unit counts at its fastest.
    pub passes: usize,
    /// Tester steps (fuzz step budget) of each warm-up run in set-up.
    pub warmup_steps: u64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Encode and decode repetitions per timeline and pass.
    pub codec_reps: usize,
    /// Crash-family signatures that are expected outputs.
    pub known_failures: &'static [&'static str],
}

fn pool(base: u64, steps: u64, pins: &[u64]) -> Vec<Entry> {
    pins.iter()
        .enumerate()
        .map(|(i, &pin)| Entry {
            seed: worker_seed(base, i),
            steps,
            pin,
        })
        .collect()
}

/// Where the oracle runs, if anywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Unchecked,
    Inline,
    Pipelined,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Unchecked, Mode::Inline, Mode::Pipelined];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Unchecked => "unchecked",
            Mode::Inline => "inline",
            Mode::Pipelined => "pipelined",
        }
    }

    /// The oracle switches for this mode (`None`: no oracle).
    pub fn opts(self, base: OracleOpts) -> Option<OracleOpts> {
        let mut opts = base;
        opts.check_mode = match self {
            Mode::Unchecked => return None,
            Mode::Inline => CheckMode::Inline,
            Mode::Pipelined => CheckMode::pipelined(),
        };
        Some(opts)
    }
}

/// Accumulates the benchmark's output checks. One checked operation is
/// one episode in one mode, one replay, one codec round trip or one fuzz
/// session; it fails when any of its outputs is wrong.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Counts one operation that must satisfy `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![what()] });
    }
}

/// Per-run scratch space inside the build directory (the benchmark
/// writes nowhere else), removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let dir = scratch_root().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty sub-directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.0.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory benchmark outputs live under: `CARGO_TARGET_DIR` when
/// set (the build directory of the checkout), else this package's own
/// `target/`.
pub fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("pkvm-perf")
}

/// The header every benchmark trace file carries.
pub fn header(opts: OracleOpts, seed: u64) -> TraceHeader {
    TraceHeader {
        config: MachineConfig::default(),
        oracle_opts: opts,
        fault_bits: 0,
        chaos: None,
        seeds: vec![seed],
    }
}

/// Boots a bare machine, or one under an oracle built with `opts`.
pub fn boot_machine(opts: Option<OracleOpts>) -> (Arc<Machine>, Option<Arc<Oracle>>) {
    let config = MachineConfig::default();
    let oracle = opts.map(|o| Oracle::new(&config, o));
    let hooks: Arc<dyn GhostHooks> = match &oracle {
        Some(o) => o.clone(),
        None => Arc::new(NoHooks),
    };
    (
        Machine::boot(config, hooks, Arc::new(FaultSet::none())),
        oracle,
    )
}

/// Executes one recorded driver event the way campaign replay does;
/// observation events and a panicked machine execute nothing. Returns
/// whether the event ran.
pub fn exec(m: &Machine, ev: &Event) -> bool {
    if m.panicked().is_some() {
        return false;
    }
    match ev {
        Event::Hvc { cpu, func, args } => {
            let _ = m.hvc(*cpu, *func, args);
        }
        Event::WriteMem { pa, value } => {
            let _ = m.host_write(0, *pa, *value);
        }
        Event::CorruptMem { pa, value } => {
            let _ = m.mem.write_u64(PhysAddr::new(*pa), *value);
        }
        Event::HostAccess { cpu, addr, access } => {
            let _ = m.host_access(*cpu, *addr, *access);
        }
        Event::PushGuestOp { handle, idx, op } => {
            let _ = m.push_guest_op(*handle, *idx, *op);
        }
        _ => return false,
    }
    true
}

/// `(kind, count)` of a violation list, sorted: what must agree between
/// check modes.
pub fn violation_kinds(vs: &[pkvm_ghost::Violation]) -> Vec<(&'static str, usize)> {
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    for v in vs {
        match kinds.iter_mut().find(|(k, _)| *k == v.kind()) {
            Some((_, n)) => *n += 1,
            None => kinds.push((v.kind(), 1)),
        }
    }
    kinds.sort_unstable();
    kinds
}

/// One model-guided tester run on a fresh machine.
pub struct Drive {
    /// Wall of each tenth of the steps (the verdict wait is in the last).
    pub tenths: Vec<Duration>,
    /// Retained timeline length after each tenth (recorded runs).
    pub tenth_marks: Vec<usize>,
    pub stats: RunStats,
    pub model_pages: usize,
    pub violations: Vec<(&'static str, usize)>,
    pub panic: Option<String>,
    /// The retained timeline (recorded runs only).
    pub events: Vec<EventRecord>,
}

/// Drives `steps` tester steps of `mix` at `seed` in `mode`.
pub fn drive(mix: &Mix, seed: u64, steps: u64, mode: Mode, record: bool) -> Drive {
    let builder = Proxy::builder().record(record);
    let builder = match mode.opts(mix.opts) {
        None => builder.with_oracle(false),
        Some(opts) => builder.oracle_opts(opts),
    };
    let cfg = RandomCfg::builder()
        .seed(seed)
        .op_weights(mix.weights)
        .build();
    let mut t = RandomTester::new(builder.boot(), cfg);
    let mut tenths = Vec::with_capacity(10);
    let mut tenth_marks = Vec::with_capacity(10);
    let mut done = 0;
    for k in 1..=10u64 {
        let upto = steps * k / 10;
        let start = Instant::now();
        t.run(upto - done);
        done = upto;
        if k == 10 {
            if let Some(v) = t.proxy.verdict() {
                v.wait();
            }
        }
        tenths.push(start.elapsed());
        if record {
            tenth_marks.push(t.proxy.events().len());
        }
    }
    let violations = violation_kinds(&t.proxy.violations());
    Drive {
        tenths,
        tenth_marks,
        model_pages: t.model.pages.len(),
        panic: t.proxy.machine.panicked(),
        events: if record {
            t.proxy.events().take_events()
        } else {
            Vec::new()
        },
        stats: t.stats,
        violations,
    }
}

/// Field-wise `RunStats` equality (the type has no `PartialEq`).
pub fn same_stats(a: &RunStats, b: &RunStats) -> bool {
    (a.calls, a.ok, a.errs, a.rejected, a.host_accesses)
        == (b.calls, b.ok, b.errs, b.rejected, b.host_accesses)
        && a.per_op == b.per_op
}

/// Encode and decode timings of one timeline: the fastest of the
/// repetitions, so an interrupt in one of them does not move the rate.
#[derive(Default)]
pub struct Codec {
    pub encode: Duration,
    pub decode: Duration,
    pub events: u64,
    pub bytes: u64,
}

/// Encodes `trace` (`encode_trace`, the record encoder `TraceWriter`
/// streams through) and decodes it back (`TraceReader` into
/// `TraceStats`), `reps` times each, and checks the round trip. Both run
/// in memory, so disk write-back cannot leak into later measurements.
/// Returns the timings and the encoded bytes.
pub fn codec(trace: &CampaignTrace, reps: usize, checks: &mut Checks) -> (Codec, Vec<u8>) {
    let reps = reps.max(1);
    let mut bytes = Vec::new();
    let mut enc = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        bytes = std::hint::black_box(encode_trace(trace));
        enc.push(start.elapsed());
    }
    let mut problems = Vec::new();
    let mut dec = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut stats = TraceStats::new();
        let decoded = TraceReader::from_bytes(&bytes).and_then(|rd| {
            for rec in rd {
                stats.observe(&rec?);
            }
            Ok(())
        });
        dec.push(start.elapsed());
        if let Err(e) = decoded {
            problems.push(format!("decode: {e}"));
            break;
        }
        if stats.events_seen != trace.events.len() as u64 {
            problems.push(format!(
                "decoded {} of {} events",
                stats.events_seen,
                trace.events.len()
            ));
        }
    }
    let want = digest::schedule(trace.events.iter().map(|r| &r.event));
    let got = TraceReader::from_bytes(&bytes)
        .map(|rd| digest::schedule(&rd.flatten().map(|r| r.event).collect::<Vec<_>>()));
    if got.as_ref().ok() != Some(&want) {
        problems.push(format!(
            "decoded schedule digest {got:?} != encoded {want:#x}"
        ));
    }
    checks.op(problems);
    let c = Codec {
        encode: enc.into_iter().min().unwrap_or_default(),
        decode: dec.into_iter().min().unwrap_or_default(),
        events: trace.events.len() as u64,
        bytes: bytes.len() as u64,
    };
    (c, bytes)
}

/// The fastest time of each timed unit over a run. A unit is one fixed
/// piece of work, timed again in every pass: a tenth of a pool episode
/// or of the schedule's replay in one mode, a fuzz session, one corpus
/// input, one timeline's encode. Its fastest time is its time outside
/// the machine's slow phases. On the shared 2-vCPU VM, the median of a
/// run's passes moved by 25–40% between runs; the sum of fastest times
/// moves by less the more passes a run has and the shorter its units
/// are (on `trace_replay`, 0.10 over 4 passes, 0.03 over 16).
#[derive(Default)]
pub struct Fastest(BTreeMap<usize, (u64, Duration)>);

impl Fastest {
    /// Notes that `unit` did `work` (steps, events) in `wall`.
    pub fn add(&mut self, unit: usize, work: u64, wall: Duration) {
        let best = self.0.entry(unit).or_insert((work, wall));
        best.1 = best.1.min(wall);
    }

    /// Work per second over all units, each at its fastest.
    pub fn rate(&self) -> f64 {
        let work: u64 = self.0.values().map(|u| u.0).sum();
        let secs: f64 = self.0.values().map(|u| u.1.as_secs_f64()).sum();
        work as f64 / secs.max(1e-9)
    }
}

/// Distinct keys of the [`Clock`] probe's map.
const PROBE_KEYS: u64 = 1 << 16;
/// Inserts and removes per probe timing.
const PROBE_OPS: u64 = 200_000;
/// The probe's fastest time on the machine the baseline was measured on
/// (2 vCPUs of an Intel Xeon at 2.1 GHz): the nominal speed every time
/// is rescaled to.
const PROBE_NOMINAL: Duration = Duration::from_micros(5_000);

type ProbeMap = std::collections::HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Machine-speed calibration. The probe churns a hash map of 64k keys
/// (about 1 MB, sized up front so the probe never allocates and the
/// program's heap cannot change its speed) with a fixed key sequence
/// and a fixed hasher. It slows with the machine as the program does: in
/// a 4-minute log on the shared VM, the log of the probe's time against
/// the log of an inline episode's had slope 0.97 (r = 0.87), through slow
/// phases 1.4–2.4 times slower, while a pure ALU loop did not slow at
/// all. Its fastest time over the run, taken between the timed units,
/// sets `scale`, which turns seconds measured here into seconds at
/// [`PROBE_NOMINAL`]; between runs it ranged over ±10%.
pub struct Clock {
    map: ProbeMap,
    fastest: Duration,
}

impl Default for Clock {
    fn default() -> Clock {
        let mut map = ProbeMap::default();
        map.reserve(PROBE_KEYS as usize);
        Clock {
            map,
            fastest: Duration::MAX,
        }
    }
}

impl Clock {
    /// Times the probe twice (the first run also pulls the map back into
    /// the caches) and returns the faster time.
    pub fn probe(&mut self) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..2 {
            let start = Instant::now();
            let mut x = 7u64;
            for _ in 0..PROBE_OPS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let key = (x >> 40) % PROBE_KEYS;
                if x & 2 == 0 {
                    self.map.insert(key, x);
                } else {
                    self.map.remove(&key);
                }
            }
            std::hint::black_box(&self.map);
            best = best.min(start.elapsed());
        }
        self.fastest = self.fastest.min(best);
        best
    }

    /// Nominal seconds per second measured here.
    pub fn scale(&self) -> f64 {
        PROBE_NOMINAL.as_secs_f64() / self.fastest.as_secs_f64()
    }
}

/// Everything a run's timed passes measured.
#[derive(Default)]
pub struct Timings {
    /// Steps per unit, indexed by [`Mode`].
    pub modes: [Fastest; 3],
    /// Events per encoded and decoded timeline.
    pub encode: Fastest,
    pub decode: Fastest,
    pub clock: Clock,
}

impl Timings {
    fn add(&mut self, mode: Mode, unit: usize, steps: u64, wall: Duration) {
        self.modes[mode as usize].add(unit, steps, wall);
    }

    /// Notes one run of `unit` timed in tenths, `(steps, wall)` each:
    /// every tenth is a unit of its own, short enough to fall inside
    /// the machine's brief fast moments as often as the probe does.
    fn add_tenths(
        &mut self,
        mode: Mode,
        unit: usize,
        tenths: impl Iterator<Item = (u64, Duration)>,
    ) {
        for (k, (steps, wall)) in tenths.enumerate() {
            self.add(mode, unit * 10 + k, steps, wall);
        }
    }

    fn add_codec(&mut self, unit: usize, c: &Codec) {
        self.encode.add(unit, c.events, c.encode);
        self.decode.add(unit, c.events, c.decode);
    }
}

/// The outcome of a whole run.
pub struct Outcome {
    /// Median set-up time in nominal seconds.
    pub setup_s: f64,
    pub timings: Timings,
    pub passes: usize,
    pub checks: Checks,
    /// Digest of every pinned traffic unit the run measured, in pool
    /// order (independent of `--seed`).
    pub traffic: u64,
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// The end-to-end metrics, every time in nominal seconds.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let t = &self.timings;
        let scale = t.clock.scale();
        let rate = |f: &Fastest| f.rate() / scale;
        vec![
            ("setup_s", self.setup_s),
            (
                "steps_per_s.unchecked",
                rate(&t.modes[Mode::Unchecked as usize]),
            ),
            ("steps_per_s.inline", rate(&t.modes[Mode::Inline as usize])),
            (
                "steps_per_s.pipelined",
                rate(&t.modes[Mode::Pipelined as usize]),
            ),
            ("encode_events_per_s", rate(&t.encode)),
            ("decode_events_per_s", rate(&t.decode)),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak memory (`VmHWM`) to its current resident
/// size. Where `/proc/self/clear_refs` is not writable the peak stays
/// the lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs a workload: warm-up, then up to `spec.passes` whole timed passes
/// over the pool, the first `spec.setup_reps` of them each after one
/// set-up. `seconds` caps the run, warm-up and set-up included: no pass
/// starts that is expected to end later (at least one pass runs).
pub fn run(w: Workload, spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let scratch = Scratch::new(w.name()).map_err(|e| format!("scratch dir: {e}"))?;
    let mix = w.mix();
    let mut checks = Checks::default();
    let mut timings = Timings::default();
    warm_up(&mix, seed);
    let mut setups = Vec::new();
    let mut schedule = None;
    let mut passes = 0;
    let mut peak = None;
    let traffic = loop {
        let t = Instant::now();
        // Set-up runs again before each of the first passes, so that its
        // median spans the machine's phases like the passes do. Each time
        // is rescaled by the probes around it, which ran in the same
        // phase: a median, unlike a fastest time, keeps the slow phases.
        if passes < spec.setup_reps.max(1) {
            let before = timings.clock.probe();
            let start = Instant::now();
            schedule = setup(w, &mix, spec, worker_seed(seed, passes), &scratch)?;
            let wall = start.elapsed().as_secs_f64();
            let probes = (before + timings.clock.probe()).as_secs_f64();
            setups.push(wall * 2.0 * PROBE_NOMINAL.as_secs_f64() / probes);
            if passes == 0 {
                reset_peak_rss();
            }
        }
        let digest = match w {
            Workload::RandomE3 | Workload::AndroidMix => {
                episode_pass(&mix, spec, &mut timings, &mut peak, &mut checks)
            }
            Workload::TraceReplay => {
                let s = schedule
                    .as_ref()
                    .expect("trace_replay set-up records a schedule");
                replay_pass(spec, s, &mut timings, &mut peak, &mut checks)
            }
            Workload::FuzzBurst => {
                fuzz_pass(spec, &scratch, passes, &mut timings, &mut peak, &mut checks)
            }
        };
        passes += 1;
        let last = t.elapsed().as_secs_f64();
        if passes >= spec.passes || start.elapsed().as_secs_f64() + last > seconds {
            break digest;
        }
    };
    Ok(Outcome {
        setup_s: median(&setups),
        timings,
        passes,
        checks,
        traffic,
        peak_rss_mb: peak.unwrap_or_else(peak_rss_mb),
    })
}

/// Unchecked runs are short (0.04 s for 10,000 steps); each is repeated
/// within a pass for more chances at its fastest time.
const UNCHECKED_REPS: usize = 3;

/// Notes the process's peak memory before its first pipelined run: the
/// peak of the first pass's unchecked and inline runs, since
/// [`reset_peak_rss`] at the start of the timed phase drops what warm-up
/// and set-up reached. From then on the peak depends on timing: how far
/// the checker thread lags, and the allocator arena each checker thread
/// leaves behind, which keeps the peak rising with the number of passes
/// (one `random_e3` run went from 16.5 to 19.0 MB over eight passes,
/// another started at 21.6 MB). Unchecked and inline runs are
/// single-threaded and repeat to within 1%.
fn note_peak(peak: &mut Option<f64>) {
    peak.get_or_insert_with(peak_rss_mb);
}

/// How long the CPUs are kept busy before set-up. The VM's vCPUs run
/// about a third slower for the first second of load after idling: on
/// 2 vCPUs, repeating one 5,000-step `random_e3` episode ran at 42k
/// inline steps/s for 1.1 s, then at 65k; after a 1.5 s spin loop it ran
/// at 65k from the start.
const WARMUP: Duration = Duration::from_secs(2);

/// Drives unmeasured unchecked and inline traffic until [`WARMUP`] has
/// passed, while a second thread spins on the CPU the pipelined checker
/// will use.
pub fn warm_up(mix: &Mix, seed: u64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut x = 1u64;
            while !done.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
        });
        let start = Instant::now();
        let mut i = 0;
        while start.elapsed() < WARMUP {
            for mode in [Mode::Unchecked, Mode::Inline] {
                drive(mix, worker_seed(seed, 1000 + i), 2_000, mode, false);
            }
            i += 1;
        }
        done.store(true, Ordering::Relaxed);
    });
}

/// `trace_replay`'s recorded schedule, on disk and in memory.
pub struct Schedule {
    pub path: PathBuf,
    pub trace: CampaignTrace,
    pub drivers: usize,
    pub stats: RunStats,
    pub model_pages: usize,
}

/// One set-up: boots and warm-up runs unchecked and inline (unmeasured
/// traffic from `seed`), or for `trace_replay` the recording of the
/// schedule, which it returns. Pipelined runs stay out of set-up so the
/// memory peak before the first one is timing-independent (see
/// [`note_peak`]).
pub fn setup(
    w: Workload,
    mix: &Mix,
    spec: &Spec,
    seed: u64,
    scratch: &Scratch,
) -> Result<Option<Schedule>, String> {
    match w {
        Workload::RandomE3 | Workload::AndroidMix => {
            for mode in [Mode::Unchecked, Mode::Inline] {
                drive(mix, seed, spec.warmup_steps, mode, false);
            }
            Ok(None)
        }
        Workload::TraceReplay => record_schedule(mix, &spec.pool[0], scratch).map(Some),
        Workload::FuzzBurst => {
            let dir = scratch.fresh_dir("warmup");
            Fuzzer::new(fuzz_cfg(seed, spec.warmup_steps, Mode::Inline, &dir)).run();
            Ok(None)
        }
    }
}

/// Records `entry`'s schedule under the inline oracle and writes it to
/// disk; the recording must be clean and match its pin.
pub fn record_schedule(mix: &Mix, entry: &Entry, scratch: &Scratch) -> Result<Schedule, String> {
    let d = drive(mix, entry.seed, entry.steps, Mode::Inline, true);
    if !d.violations.is_empty() || d.panic.is_some() {
        return Err(format!(
            "schedule recording is not clean: {:?} {:?}",
            d.violations, d.panic
        ));
    }
    let got = digest::schedule(d.events.iter().map(|r| &r.event));
    if got != entry.pin {
        return Err(format!(
            "workload change: schedule seed {:#x} digest {got:#x}, pinned {:#x}",
            entry.seed, entry.pin
        ));
    }
    let trace = header(mix.opts, entry.seed).into_trace(d.events);
    let path = scratch.path().join("schedule.pkvmtrace");
    TraceWriter::create(&path, &TraceHeader::of(&trace))
        .and_then(|mut wr| {
            for r in &trace.events {
                wr.append(r)?;
            }
            wr.finish()
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Schedule {
        drivers: trace.events.iter().filter(|r| r.event.is_driver()).count(),
        path,
        trace,
        stats: d.stats,
        model_pages: d.model_pages,
    })
}

/// `random_e3` / `android_mix`: every pool episode on fresh machines,
/// unchecked, inline, then pipelined; then each recorded for its digest
/// and codec round trip.
fn episode_pass(
    mix: &Mix,
    spec: &Spec,
    t: &mut Timings,
    peak: &mut Option<f64>,
    checks: &mut Checks,
) -> u64 {
    let mut runs = |m: Mode| -> Vec<Drive> {
        if m == Mode::Pipelined {
            note_peak(peak);
        }
        let reps = if m == Mode::Unchecked {
            UNCHECKED_REPS
        } else {
            1
        };
        spec.pool
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut first = None;
                // The tenths `drive` times.
                let steps: Vec<u64> = (1..=10)
                    .map(|k| e.steps * k / 10 - e.steps * (k - 1) / 10)
                    .collect();
                for _ in 0..reps {
                    t.clock.probe();
                    let d = drive(mix, e.seed, e.steps, m, false);
                    t.add_tenths(m, i, steps.iter().copied().zip(d.tenths.iter().copied()));
                    first.get_or_insert(d);
                }
                first.expect("at least one repetition")
            })
            .collect()
    };
    let by_mode: Vec<Vec<Drive>> = Mode::ALL.iter().map(|&m| runs(m)).collect();
    let mut h = Fnv::default();
    for (i, e) in spec.pool.iter().enumerate() {
        let rec = drive(mix, e.seed, e.steps, Mode::Unchecked, true);
        let got = digest::schedule(rec.events.iter().map(|r| &r.event));
        h.u64(got);
        for (m, runs) in Mode::ALL.iter().zip(&by_mode) {
            let d = &runs[i];
            let mut problems = Vec::new();
            if !same_stats(&d.stats, &rec.stats) {
                problems.push(format!(
                    "episode {i} {}: RunStats differ from the recorded run",
                    m.name()
                ));
            }
            if !d.violations.is_empty() || d.panic.is_some() {
                problems.push(format!(
                    "episode {i} {}: not clean: {:?} {:?}",
                    m.name(),
                    d.violations,
                    d.panic
                ));
            }
            if *m == Mode::Pipelined && d.violations != by_mode[1][i].violations {
                problems.push(format!("episode {i}: inline and pipelined verdicts differ"));
            }
            if *m == Mode::Unchecked && got != e.pin {
                problems.push(format!(
                    "workload change: episode {i} (seed {:#x}) digest {got:#x}, pinned {:#x}",
                    e.seed, e.pin
                ));
            }
            checks.op(problems);
        }
        let trace = header(mix.opts, e.seed).into_trace(rec.events);
        t.add_codec(i, &codec(&trace, spec.codec_reps, checks).0);
    }
    h.finish()
}

/// Streams `path` into a fresh machine (decode and execute interleaved):
/// checked modes through campaign replay's own `ReplayMachine` under
/// the file's header in `mode`, unchecked on a bare machine, which
/// `ReplayMachine` cannot boot. Each tenth of the schedule's `drivers`
/// driver events is timed on its own.
pub fn replay_file(path: &Path, mode: Mode, drivers: usize) -> Result<Replayed, String> {
    let rd = TraceReader::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut header = rd.header().clone();
    let (bare, mut rm) = match mode.opts(header.oracle_opts) {
        None => (Some(boot_machine(None).0), None),
        Some(opts) => {
            header.oracle_opts = opts;
            (None, Some(ReplayMachine::boot(&header)))
        }
    };
    let mut tenths = Vec::with_capacity(10);
    let (mut done, mut tenth_start) = (0, 0);
    let mut start = Instant::now();
    for rec in rd {
        let ev = rec
            .map_err(|e| format!("decode {}: {e}", path.display()))?
            .event;
        let ran = match (&bare, &mut rm) {
            (Some(m), _) => exec(m, &ev),
            (None, Some(rm)) => rm.step(&ev),
            (None, None) => unreachable!("one machine is booted"),
        };
        done += usize::from(ran);
        if ran && tenths.len() < 9 && done * 10 >= drivers * (tenths.len() + 1) {
            tenths.push(((done - tenth_start) as u64, start.elapsed()));
            (tenth_start, start) = (done, Instant::now());
        }
    }
    // `outcome` waits for the checker, so a pipelined replay's last tenth
    // runs to its verdict.
    let (violations, panic) = match (bare, rm) {
        (_, Some(rm)) => {
            let out = rm.outcome();
            (violation_kinds(&out.violations), out.hyp_panic)
        }
        (Some(m), None) => (Vec::new(), m.panicked()),
        (None, None) => unreachable!("one machine is booted"),
    };
    tenths.push(((done - tenth_start) as u64, start.elapsed()));
    Ok(Replayed {
        tenths,
        steps: done as u64,
        violations,
        panic,
    })
}

pub struct Replayed {
    /// Driver events run and wall of each tenth.
    pub tenths: Vec<(u64, Duration)>,
    pub steps: u64,
    pub violations: Vec<(&'static str, usize)>,
    pub panic: Option<String>,
}

/// `trace_replay`: the recorded schedule streamed from disk in every
/// mode, then the codec loops over its full timeline.
fn replay_pass(
    spec: &Spec,
    s: &Schedule,
    t: &mut Timings,
    peak: &mut Option<f64>,
    checks: &mut Checks,
) -> u64 {
    let mut inline = None;
    for mode in Mode::ALL {
        if mode == Mode::Pipelined {
            note_peak(peak);
        }
        let reps = if mode == Mode::Unchecked {
            UNCHECKED_REPS
        } else {
            1
        };
        let replays: Result<Vec<Replayed>, String> = (0..reps)
            .map(|_| {
                t.clock.probe();
                let r = replay_file(&s.path, mode, s.drivers)?;
                t.add_tenths(mode, 0, r.tenths.iter().copied());
                Ok(r)
            })
            .collect();
        match replays {
            Ok(mut rs) => {
                let r = rs.swap_remove(0);
                let mut problems = Vec::new();
                if r.steps != s.drivers as u64 {
                    problems.push(format!(
                        "{} replay ran {} of {} driver events",
                        mode.name(),
                        r.steps,
                        s.drivers
                    ));
                }
                if !r.violations.is_empty() || r.panic.is_some() {
                    problems.push(format!(
                        "{} replay verdict differs from the clean recording: {:?} {:?}",
                        mode.name(),
                        r.violations,
                        r.panic
                    ));
                }
                if mode == Mode::Inline {
                    inline = Some(r.violations.clone());
                } else if mode == Mode::Pipelined && inline.as_ref() != Some(&r.violations) {
                    problems.push("inline and pipelined replay verdicts differ".into());
                }
                checks.op(problems);
            }
            Err(e) => checks.op(vec![e]),
        }
    }
    t.add_codec(0, &codec(&s.trace, spec.codec_reps, checks).0);
    spec.pool[0].pin
}

/// The `FuzzCfg` of a benchmark session: one worker, corpus persisted.
pub fn fuzz_cfg(seed: u64, budget: u64, mode: Mode, dir: &Path) -> FuzzCfg {
    let mut b = FuzzCfg::builder()
        .seed(seed)
        .step_budget(budget)
        .workers(1)
        .corpus_dir(dir);
    if let Some(opts) = mode.opts(OracleOpts::default()) {
        b = b.check_mode(opts.check_mode);
    }
    b.build()
}

/// Crash-family signatures of a session, with their counts.
pub fn families(r: &FuzzReport) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = r
        .crashes
        .iter()
        .map(|c| (c.sig.to_string(), c.count))
        .collect();
    v.sort();
    v
}

/// The pinned outcome digest of a fuzz session.
pub fn fuzz_digest(r: &FuzzReport) -> u64 {
    let mut h = Fnv::default();
    for x in [
        r.execs,
        r.steps,
        r.corpus_size as u64,
        r.points_covered as u64,
        r.escaped_panics,
    ] {
        h.u64(x);
    }
    for (sig, n) in families(r) {
        h.bytes(sig.as_bytes());
        h.u64(n);
    }
    h.finish()
}

/// Checks one fuzz session against the pin and the known failures.
pub fn check_session(r: &FuzzReport, entry: &Entry, spec: &Spec, what: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if r.escaped_panics > 0 {
        problems.push(format!("{what}: {} escaped panics", r.escaped_panics));
    }
    for (sig, _) in families(r) {
        if !spec.known_failures.contains(&sig.as_str()) {
            problems.push(format!(
                "{what}: new crash family on the clean hypervisor: {sig}"
            ));
        }
    }
    let got = fuzz_digest(r);
    if got != entry.pin {
        problems.push(format!(
            "workload change: {what} digest {got:#x}, pinned {:#x} (execs {}, steps {}, corpus {}, points {}, families {:?})",
            entry.pin,
            r.execs,
            r.steps,
            r.corpus_size,
            r.points_covered,
            families(r)
        ));
    }
    problems
}

/// `fuzz_burst`: every pool session inline, its corpus reloaded,
/// re-executed without the oracle (the fuzzer has no unchecked mode) and
/// put through the codec; then every session pipelined, which must reach
/// the same outcome.
fn fuzz_pass(
    spec: &Spec,
    scratch: &Scratch,
    pass_no: usize,
    t: &mut Timings,
    peak: &mut Option<f64>,
    checks: &mut Checks,
) -> u64 {
    let mut inline = Vec::new();
    // Each corpus input, on a fresh bare machine, is a unit of its own,
    // numbered across the pool.
    let mut input_no = 0;
    for (i, entry) in spec.pool.iter().enumerate() {
        let dir = scratch.fresh_dir(&format!("corpus-{pass_no}-{i}"));
        t.clock.probe();
        let start = Instant::now();
        let r = Fuzzer::new(fuzz_cfg(entry.seed, entry.steps, Mode::Inline, &dir)).run();
        t.add(Mode::Inline, i, r.steps, start.elapsed());
        checks.op(check_session(&r, entry, spec, "inline session"));

        let scan = fuzz::scan_dir(&dir);
        checks.expect(
            scan.skipped.is_empty() && scan.loaded.len() == r.corpus_size,
            || {
                format!(
                    "corpus reload: {} of {} seeds, {} skipped",
                    scan.loaded.len(),
                    r.corpus_size,
                    scan.skipped.len()
                )
            },
        );
        t.clock.probe();
        let mut panics = 0;
        for (k, (_, input)) in scan.loaded.iter().enumerate() {
            let start = Instant::now();
            let (m, _) = boot_machine(None);
            let steps = input.events.iter().filter(|r| exec(&m, &r.event)).count();
            t.add(Mode::Unchecked, input_no + k, steps as u64, start.elapsed());
            panics += u64::from(m.panicked().is_some());
        }
        checks.expect(panics == 0, || {
            format!("corpus re-execution: {panics} hypervisor panics")
        });
        for (k, (_, input)) in scan.loaded.iter().enumerate() {
            t.add_codec(input_no + k, &codec(input, spec.codec_reps, checks).0);
        }
        input_no += scan.loaded.len();
        let _ = std::fs::remove_dir_all(&dir);
        inline.push(r);
    }

    note_peak(peak);
    let mut h = Fnv::default();
    for (i, (entry, r)) in spec.pool.iter().zip(&inline).enumerate() {
        let dir = scratch.fresh_dir(&format!("corpus-p-{pass_no}-{i}"));
        t.clock.probe();
        let start = Instant::now();
        let piped = Fuzzer::new(fuzz_cfg(entry.seed, entry.steps, Mode::Pipelined, &dir)).run();
        t.add(Mode::Pipelined, i, piped.steps, start.elapsed());
        let mut problems = check_session(&piped, entry, spec, "pipelined session");
        if fuzz_digest(&piped) != fuzz_digest(r) {
            problems.push("inline and pipelined sessions differ".into());
        }
        checks.op(problems);
        let _ = std::fs::remove_dir_all(&dir);
        h.u64(fuzz_digest(r));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny spec of `w`: same code paths and checks, small sizes, its
    /// own pins.
    fn tiny(w: Workload, pins: &[u64]) -> Spec {
        let full = w.spec();
        let steps = if w == Workload::FuzzBurst { 600 } else { 300 };
        Spec {
            pool: full
                .pool
                .iter()
                .zip(pins)
                .map(|(e, &pin)| Entry { pin, steps, ..*e })
                .collect(),
            passes: 1,
            warmup_steps: 100,
            setup_reps: 2,
            codec_reps: 2,
            known_failures: full.known_failures,
        }
    }

    /// The coverage registry behind the fuzz digest is process-global, so
    /// workload runs in tests take turns.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny_pass(w: Workload, pins: &[u64]) {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let spec = tiny(w, pins);
        let out = run(w, &spec, 7, 0.0).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            out.checks.problems.is_empty(),
            "{}: {:#?}",
            w.name(),
            out.checks.problems
        );
        assert_eq!(out.passes, 1);
        assert!(out.checks.attempted > 0);
        for (name, v) in out.metrics() {
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
    }

    #[test]
    fn tiny_random_e3_passes_its_checks() {
        tiny_pass(Workload::RandomE3, &[0x5c68_5fe3_1bc6_80ba]);
    }

    #[test]
    fn tiny_android_mix_passes_its_checks() {
        tiny_pass(Workload::AndroidMix, &[0x558f_a11a_1bed_4d9b]);
    }

    #[test]
    fn tiny_trace_replay_passes_its_checks() {
        tiny_pass(Workload::TraceReplay, &[0x8722_4f0a_c2b5_23d9]);
    }

    #[test]
    fn tiny_fuzz_burst_passes_its_checks() {
        tiny_pass(Workload::FuzzBurst, &[0x97d6_e9ad_03c0_5fca]);
    }

    #[test]
    fn known_failures_reproduce_from_their_minimized_inputs() {
        use pkvm_hyp::hypercalls::{
            HVC_HOST_SHARE_HYP, HVC_HOST_UNSHARE_HYP, HVC_INIT_VCPU, HVC_INIT_VM,
        };
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let hvc = |cpu, func, args: &[u64]| Event::Hvc {
            cpu,
            func,
            args: args.to_vec(),
        };
        // The fuzzer's minimized reproducers on the clean hypervisor:
        // seeds 0x119 and 0xc5 find the first two, seed 0xb4 the third.
        let cases: [(&str, Vec<Event>); 3] = [
            (
                "spec-mismatch",
                vec![
                    hvc(3, HVC_HOST_SHARE_HYP, &[0x4400e]),
                    hvc(2, HVC_HOST_UNSHARE_HYP, &[0x8_0000_0004_400e]),
                ],
            ),
            (
                "transfer-protocol",
                vec![
                    hvc(3, HVC_HOST_SHARE_HYP, &[0x100_0000_0004_401d]),
                    hvc(0, HVC_HOST_UNSHARE_HYP, &[0x4401d]),
                ],
            ),
            (
                "non-interference",
                vec![
                    Event::WriteMem {
                        pa: 0x4400_0000,
                        value: 1,
                    },
                    hvc(2, HVC_INIT_VM, &[0x44000, 0x200_0000_0004_4001, 2]),
                    hvc(0, HVC_INIT_VCPU, &[0x1000, 0, 0x44003]),
                ],
            ),
        ];
        for (kind, events) in cases {
            let (m, oracle) = boot_machine(Some(OracleOpts::default()));
            events.iter().for_each(|e| {
                exec(&m, e);
            });
            let kinds = violation_kinds(&oracle.expect("oracle").violations());
            assert!(
                kinds.iter().any(|k| k.0 == kind),
                "{kind} no longer reproduces: {kinds:?}"
            );
        }
        for family in FUZZ_KNOWN_FAILURES {
            let kind = family.split_whitespace().next().unwrap_or_default();
            assert!(["spec-mismatch", "transfer-protocol"].contains(&kind));
        }
    }

    #[test]
    fn a_changed_pin_is_a_workload_change() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut bad = tiny(Workload::RandomE3, &[0x5c68_5fe3_1bc6_80ba]);
        bad.pool[0].pin ^= 1;
        let out = run(Workload::RandomE3, &bad, 7, 0.0).expect("runs");
        assert_eq!(out.checks.failed, 1, "{:#?}", out.checks.problems);
        assert!(out.checks.problems[0].starts_with("workload change"));
    }
}
