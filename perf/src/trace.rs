//! The traced run: per-layer metrics measured from outside the program.
//!
//! The workload's traffic is captured as driver-event schedules (one per
//! fresh machine), then replayed three ways: on a bare machine with one
//! span per driver call (the hypervisor alone), and under the oracle
//! wrapped in [`SpanHooks`], which opens a child span per hook call
//! under the current driver-call span, inline and pipelined. A layer's
//! self time is its span minus its children. Spans stay in memory; the
//! run writes the aggregates and one raw span CSV at the end.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pkvm_aarch64::attrs::Stage;
use pkvm_aarch64::{Esr, GprFile, PhysAddr};
use pkvm_ghost::abstraction::interpret_pgtable;
use pkvm_ghost::event::{Event, EventRecord, EventStream};
use pkvm_ghost::oracle::{Oracle, OracleOpts};
use pkvm_ghost::CacheStats;
use pkvm_harness::campaign::CampaignTrace;
use pkvm_harness::coverage::{snapshot, CoverageSummary};
use pkvm_harness::fuzz::{self, FuzzReport, Fuzzer};
use pkvm_harness::proxy::Proxy;
use pkvm_harness::tracefile::TraceReader;
use pkvm_hyp::error::Errno;
use pkvm_hyp::faults::FaultSet;
use pkvm_hyp::hooks::{
    Component, ComponentView, GhostHooks, HookCtx, NoHooks, TransferEdge, VcpuView,
};
use pkvm_hyp::machine::{Machine, MachineConfig};
use pkvm_hyp::vm::Handle;

use crate::metrics::{HOOKS, TAIL_HOOKS};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::workload::{
    self, check_session, codec, drive, exec, fuzz_cfg, header, record_schedule, same_stats, Checks,
    Mode, Scratch, Spec, Workload,
};

/// Inline replay time of the prefix of the traffic that
/// `tracing.overhead_frac` replays plain and spanned in alternation.
/// Short, so that a round's two replays mostly fall in the same one of
/// the machine's speed phases, which last a second or more.
const OVERHEAD_SAMPLE: Duration = Duration::from_millis(25);
/// Alternating plain/spanned rounds behind `tracing.overhead_frac`. The
/// true overhead is about 2% and single rounds scatter by ±5% on this
/// machine, so the median needs many: on `random_e3`, 15 rounds of
/// 150 ms read 0.02–0.07 over runs, 81 rounds of 25 ms 0.033–0.041.
const OVERHEAD_ROUNDS: usize = 81;
/// Timed boots behind `boot.*_us`.
const BOOTS: usize = 200;

const NO_PARENT: u32 = u32::MAX;
/// Span kinds below this are hooks ([`HOOKS`] indices); from it up,
/// driver calls.
const CALL: u8 = 100;
const CALL_KINDS: [&str; 5] = [
    "hvc",
    "write_mem",
    "corrupt_mem",
    "host_access",
    "push_guest_op",
];

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct Recorder {
    spans: Vec<Span>,
    current: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder { spans: Vec::new(), current: NO_PARENT })
    };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record(kind: u8, start_ns: u64, dur_ns: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.current;
        r.spans.push(Span {
            kind,
            parent,
            start_ns,
            dur_ns,
        });
    });
}

fn take_spans() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Runs one driver call inside a span that hook spans nest under.
fn call_span<T>(kind: u8, f: impl FnOnce() -> T) -> T {
    let start = now_ns();
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        r.spans.push(Span {
            kind,
            parent: NO_PARENT,
            start_ns: start,
            dur_ns: 0,
        });
        r.current = idx;
        idx
    });
    let out = f();
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx as usize].dur_ns = end - start;
        r.current = NO_PARENT;
    });
    out
}

/// A timing decorator over the oracle's hooks (the same shape as the
/// chaos engine's `ChaosHooks`): every hook call becomes a child span of
/// the running driver call. It forwards `wants_write_log`, so the
/// incremental abstraction cache keeps its write log.
pub struct SpanHooks(pub Arc<Oracle>);

macro_rules! timed {
    ($kind:expr, $call:expr) => {{
        let start = now_ns();
        $call;
        record($kind, start, now_ns() - start);
    }};
}

impl GhostHooks for SpanHooks {
    fn trap_enter(
        &self,
        ctx: &HookCtx<'_>,
        esr: Esr,
        fault_ipa: Option<u64>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        timed!(0, self.0.trap_enter(ctx, esr, fault_ipa, regs, loaded))
    }

    fn trap_exit(
        &self,
        ctx: &HookCtx<'_>,
        regs: &GprFile,
        loaded: Option<(Handle, usize, VcpuView)>,
    ) {
        timed!(1, self.0.trap_exit(ctx, regs, loaded))
    }

    fn lock_acquired(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        timed!(2, self.0.lock_acquired(ctx, comp, view))
    }

    fn lock_releasing(&self, ctx: &HookCtx<'_>, comp: Component, view: &ComponentView) {
        timed!(3, self.0.lock_releasing(ctx, comp, view))
    }

    fn vcpu_loaded(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        timed!(4, self.0.vcpu_loaded(ctx, vm, vcpu_idx, view))
    }

    fn vcpu_put(&self, ctx: &HookCtx<'_>, vm: Handle, vcpu_idx: usize, view: &VcpuView) {
        timed!(4, self.0.vcpu_put(ctx, vm, vcpu_idx, view))
    }

    fn read_once(&self, ctx: &HookCtx<'_>, tag: &'static str, value: u64) {
        timed!(5, self.0.read_once(ctx, tag, value))
    }

    fn table_page_alloc(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        timed!(6, self.0.table_page_alloc(ctx, comp, page))
    }

    fn table_page_free(&self, ctx: &HookCtx<'_>, comp: Component, page: PhysAddr) {
        timed!(6, self.0.table_page_free(ctx, comp, page))
    }

    fn pte_downgrade(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64) {
        timed!(7, self.0.pte_downgrade(ctx, vmid, ia, nr_pages))
    }

    fn tlbi(&self, ctx: &HookCtx<'_>, vmid: u16, ia: u64, nr_pages: u64, broadcast: bool) {
        timed!(7, self.0.tlbi(ctx, vmid, ia, nr_pages, broadcast))
    }

    fn dsb(&self, ctx: &HookCtx<'_>) {
        timed!(7, self.0.dsb(ctx))
    }

    fn transfer(&self, ctx: &HookCtx<'_>, edge: TransferEdge, pfn: u64, nr: u64, dirty: bool) {
        timed!(8, self.0.transfer(ctx, edge, pfn, nr, dirty))
    }

    fn firmware_donated(&self, ctx: &HookCtx<'_>, handle: Handle, uniq: u64, pfn: u64, nr: u64) {
        timed!(8, self.0.firmware_donated(ctx, handle, uniq, pfn, nr))
    }

    fn host_regain(&self, ctx: &HookCtx<'_>, pfn: u64, nr: u64) {
        timed!(8, self.0.host_regain(ctx, pfn, nr))
    }

    // Fires only on a dead hypervisor, which fails the run anyway.
    fn hyp_panic(&self, ctx: &HookCtx<'_>, reason: &str) {
        self.0.hyp_panic(ctx, reason)
    }

    fn wants_write_log(&self) -> bool {
        self.0.wants_write_log()
    }
}

/// A tenth of an untraced unchecked run: its wall and the driver calls
/// (global indices across segments) it issued.
struct Tenth {
    wall: Duration,
    calls: std::ops::Range<usize>,
}

/// A workload's traffic, captured for replay.
struct Traffic {
    /// Driver events per fresh machine.
    segs: Vec<Vec<Event>>,
    /// Tenths of the untraced unchecked run, per growth group.
    groups: Vec<Vec<Tenth>>,
    /// Recorded timelines for the codec measurements.
    timelines: Vec<CampaignTrace>,
    model_pages: f64,
    rejected_frac: f64,
    fuzz: Option<(FuzzReport, Duration)>,
}

impl Traffic {
    fn unchecked_wall(&self) -> Duration {
        self.groups.iter().flatten().map(|t| t.wall).sum()
    }
}

fn drivers_of(events: &[EventRecord]) -> Vec<Event> {
    events
        .iter()
        .filter(|r| r.event.is_driver())
        .map(|r| r.event.clone())
        .collect()
}

/// Even tenths of `0..n`, with their walls.
fn even_tenths(n: usize, walls: Vec<Duration>) -> Vec<Tenth> {
    walls
        .into_iter()
        .enumerate()
        .map(|(k, wall)| Tenth {
            wall,
            calls: n * k / 10..n * (k + 1) / 10,
        })
        .collect()
}

fn capture(
    w: Workload,
    spec: &Spec,
    scratch: &Scratch,
    checks: &mut Checks,
) -> Result<Traffic, String> {
    let mix = w.mix();
    let mut t = Traffic {
        segs: Vec::new(),
        groups: Vec::new(),
        timelines: Vec::new(),
        model_pages: 0.0,
        rejected_frac: 0.0,
        fuzz: None,
    };
    match w {
        Workload::RandomE3 | Workload::AndroidMix => {
            let episodes = &spec.pool;
            let mut rejected = 0;
            let mut steps = 0;
            for e in episodes {
                let u = drive(&mix, e.seed, e.steps, Mode::Unchecked, false);
                let rec = drive(&mix, e.seed, e.steps, Mode::Unchecked, true);
                let drivers = drivers_of(&rec.events);
                let mut problems = Vec::new();
                if !same_stats(&u.stats, &rec.stats) {
                    problems.push(format!(
                        "episode seed {:#x}: unrecorded and recorded RunStats differ",
                        e.seed
                    ));
                }
                let got = crate::digest::schedule(&drivers);
                if got != e.pin {
                    problems.push(format!(
                        "workload change: episode seed {:#x} digest {got:#x}, pinned {:#x}",
                        e.seed, e.pin
                    ));
                }
                checks.op(problems);
                // An unchecked recording holds driver events only, so its
                // marks are call indices.
                let base: usize = t.segs.iter().map(Vec::len).sum();
                let mut prev = base;
                let tenths = u
                    .tenths
                    .iter()
                    .zip(&rec.tenth_marks)
                    .map(|(&wall, &mark)| {
                        let tenth = Tenth {
                            wall,
                            calls: prev..base + mark,
                        };
                        prev = base + mark;
                        tenth
                    })
                    .collect();
                t.groups.push(tenths);
                t.model_pages += rec.model_pages as f64 / episodes.len() as f64;
                rejected += rec.stats.rejected;
                steps += e.steps;
                t.segs.push(drivers);
                t.timelines
                    .push(header(mix.opts, e.seed).into_trace(rec.events));
            }
            t.rejected_frac = rejected as f64 / steps.max(1) as f64;
        }
        Workload::TraceReplay => {
            let s = record_schedule(&mix, &spec.pool[0], scratch)?;
            let drivers = drivers_of(&s.trace.events);
            let n = drivers.len();
            let (m, _) = workload::boot_machine(None);
            let mut walls = Vec::with_capacity(10);
            let mut done = 0;
            let mut rd = TraceReader::open(&s.path).map_err(|e| e.to_string())?;
            for k in 1..=10 {
                let start = Instant::now();
                while done < n * k / 10 {
                    match rd.next() {
                        Some(Ok(rec)) => done += usize::from(exec(&m, &rec.event)),
                        Some(Err(e)) => return Err(e.to_string()),
                        None => break,
                    }
                }
                walls.push(start.elapsed());
            }
            t.groups.push(even_tenths(n, walls));
            t.model_pages = s.model_pages as f64;
            t.rejected_frac = s.stats.rejected as f64 / spec.pool[0].steps.max(1) as f64;
            t.segs.push(drivers);
            t.timelines.push(s.trace);
        }
        Workload::FuzzBurst => {
            let e = spec.pool[0];
            let dir = scratch.fresh_dir("corpus");
            let start = Instant::now();
            let report = Fuzzer::new(fuzz_cfg(e.seed, e.steps, Mode::Inline, &dir)).run();
            let wall = start.elapsed();
            checks.op(check_session(&report, &e, spec, "session"));
            let corpus = fuzz::scan_dir(&dir).loaded;
            t.segs = corpus
                .iter()
                .map(|(_, tr)| drivers_of(&tr.events))
                .collect();
            let n = t.segs.len();
            let walls = (1..=10)
                .map(|k| {
                    let start = Instant::now();
                    for seg in &t.segs[n * (k - 1) / 10..n * k / 10] {
                        let (m, _) = workload::boot_machine(None);
                        seg.iter().for_each(|ev| {
                            exec(&m, ev);
                        });
                    }
                    start.elapsed()
                })
                .collect();
            // Growth over the input list: tenths of the segments, as
            // calls.
            let mut ends = vec![0];
            for s in &t.segs {
                ends.push(ends.last().unwrap_or(&0) + s.len());
            }
            t.groups.push(
                even_tenths(n, walls)
                    .into_iter()
                    .map(|x| Tenth {
                        wall: x.wall,
                        calls: ends[x.calls.start]..ends[x.calls.end],
                    })
                    .collect(),
            );
            t.timelines = corpus.into_iter().map(|(_, tr)| tr).collect();
            t.fuzz = Some((report, wall));
        }
    }
    Ok(t)
}

/// How a replay's machine is instrumented.
#[derive(Clone, Copy, PartialEq)]
enum Inst {
    /// No oracle; one span per driver call.
    Bare,
    /// The oracle, untimed.
    Plain(Mode),
    /// The oracle under [`SpanHooks`].
    Spanned(Mode),
}

#[derive(Default)]
struct Replay {
    /// Exec loops plus verdict waits (boots excluded).
    wall: Duration,
    calls: u64,
    /// Oracle events retained (with `count_events`).
    events: u64,
    spans: Vec<Span>,
    checked: u64,
    unchecked: u64,
    abstractions: u64,
    interleaved_skips: u64,
    contained_panics: u64,
    cache: CacheStats,
    problems: Vec<String>,
    drain: Duration,
    in_flight_sum: u64,
    in_flight_max: u64,
    msgs_sent: u64,
    hvcs: u64,
    hvc_ok: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    tlb_invalidations: u64,
    tlb_entries: u64,
    maplets: u64,
    table_pages: u64,
    host_walk: Duration,
    hyp_cov: u64,
    spec_cov: u64,
}

/// Replays `segs` (each on a fresh machine) instrumented as `inst`.
/// Violations of a kind in `allowed` (the known failures' kinds) are
/// expected outputs; any other violation or panic is a problem. With
/// `count_events` the oracle's stream retains its events so they can be
/// counted (a push per event, well under 1% of a checked step).
fn replay(
    segs: &[Vec<Event>],
    inst: Inst,
    opts: OracleOpts,
    allowed: &[&str],
    count_events: bool,
) -> Replay {
    let mut r = Replay::default();
    let config = MachineConfig::default();
    let before = snapshot();
    for seg in segs {
        let mode = match inst {
            Inst::Bare => Mode::Unchecked,
            Inst::Plain(m) | Inst::Spanned(m) => m,
        };
        let oracle = mode.opts(opts).map(|o| {
            Oracle::with_stream(
                &config,
                o,
                Arc::new(EventStream::new(count_events, o.violation_cap)),
            )
        });
        let hooks: Arc<dyn GhostHooks> = match (inst, &oracle) {
            (Inst::Spanned(_), Some(o)) => Arc::new(SpanHooks(o.clone())),
            (_, Some(o)) => o.clone(),
            (_, None) => Arc::new(NoHooks),
        };
        let m = Machine::boot(config.clone(), hooks, Arc::new(FaultSet::none()));
        take_spans(); // boot's hook calls belong to no driver call
        let checker = oracle
            .as_ref()
            .filter(|_| mode == Mode::Pipelined)
            .map(|o| o.checker());
        let spans_on = inst != Inst::Plain(mode);
        let start = Instant::now();
        for ev in seg {
            let kind = match ev {
                Event::Hvc { .. } => CALL,
                Event::WriteMem { .. } => CALL + 1,
                Event::CorruptMem { .. } => CALL + 2,
                Event::HostAccess { .. } => CALL + 3,
                _ => CALL + 4,
            };
            let ret = if spans_on {
                call_span(kind, || hvc_or_exec(&m, ev))
            } else {
                hvc_or_exec(&m, ev)
            };
            if let Some(ret) = ret {
                r.hvcs += 1;
                r.hvc_ok += u64::from(Errno::from_ret(ret).is_none());
            }
            if let Some(c) = &checker {
                let f = c.in_flight();
                r.in_flight_sum += f;
                r.in_flight_max = r.in_flight_max.max(f);
            }
        }
        r.calls += seg.len() as u64;
        if let Some(o) = &oracle {
            let v = o.verdict();
            let t = Instant::now();
            v.wait();
            r.drain += t.elapsed();
            r.wall += start.elapsed();
            let s = v.stats();
            r.checked += s.traps_checked;
            r.unchecked += s.traps_unchecked;
            r.abstractions += s.abstractions;
            r.interleaved_skips += s.interleaved_skips;
            r.contained_panics += s.contained_panics;
            let c = o.cache_stats();
            r.cache.clean_hits += c.clean_hits;
            r.cache.incremental += c.incremental;
            r.cache.subtrees_replayed += c.subtrees_replayed;
            r.cache.full_cold += c.full_cold;
            r.cache.full_root_changed += c.full_root_changed;
            r.cache.full_log_unavailable += c.full_log_unavailable;
            r.cache.full_dirty_ratio += c.full_dirty_ratio;
            r.cache.full_anomaly += c.full_anomaly;
            if let Some(c) = &checker {
                r.msgs_sent += c.frontier().0;
            }
            r.events += o.events().len() as u64;
            for (kind, _) in workload::violation_kinds(&v.violations()) {
                if !allowed.contains(&kind) {
                    r.problems
                        .push(format!("{} replay: {kind} violation", mode.name()));
                }
            }
        } else {
            r.wall += start.elapsed();
        }
        if let Some(p) = m.panicked() {
            r.problems
                .push(format!("{} replay: hypervisor panic: {p}", mode.name()));
        }
        if inst == Inst::Bare {
            r.tlb_hits += m.tlb.hits();
            r.tlb_misses += m.tlb.misses();
            r.tlb_invalidations += m.tlb.invalidations();
            r.tlb_entries += m.tlb.len() as u64;
            let root = m.state.host_pgt.lock().root;
            let t = Instant::now();
            let host = interpret_pgtable(&m.mem, Stage::Stage2, root, &mut Vec::new());
            r.host_walk += t.elapsed();
            r.maplets += host.mapping.len() as u64;
            r.table_pages += host.table_pages.len() as u64;
        }
        let offset = r.spans.len() as u32;
        r.spans.extend(take_spans().into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }
    let cov = CoverageSummary::since(&before);
    r.hyp_cov = cov.hyp.points.iter().map(|p| p.1).sum();
    r.spec_cov = cov.spec.points.iter().map(|p| p.1).sum();
    r
}

/// Spanned over plain inline replay wall, minus 1, on a prefix of the
/// traffic that replays inline in about [`OVERHEAD_SAMPLE`] (`calls` of
/// them took `inline_wall` spanned): the median over rounds that
/// alternate which replay goes first, so drift in the machine's speed
/// cancels within a round.
fn tracing_overhead(
    segs: &[Vec<Event>],
    calls: u64,
    inline_wall: Duration,
    opts: OracleOpts,
    allowed: &[&str],
) -> f64 {
    let per_call = inline_wall.as_secs_f64() / calls.max(1) as f64;
    let mut left = (OVERHEAD_SAMPLE.as_secs_f64() / per_call.max(1e-9)) as usize;
    let mut sample = Vec::new();
    for seg in segs {
        if left == 0 {
            break;
        }
        let take = seg.len().min(left);
        sample.push(seg[..take].to_vec());
        left -= take;
    }
    let wall = |inst| {
        replay(&sample, inst, opts, allowed, false)
            .wall
            .as_secs_f64()
    };
    let ratios: Vec<f64> = (0..OVERHEAD_ROUNDS)
        .map(|round| {
            let (plain, spanned) = if round % 2 == 0 {
                let p = wall(Inst::Plain(Mode::Inline));
                (p, wall(Inst::Spanned(Mode::Inline)))
            } else {
                let s = wall(Inst::Spanned(Mode::Inline));
                (wall(Inst::Plain(Mode::Inline)), s)
            };
            ratio(spanned, plain)
        })
        .collect();
    median(&ratios) - 1.0
}

/// [`exec`], additionally returning a hypercall's result.
fn hvc_or_exec(m: &Machine, ev: &Event) -> Option<u64> {
    match ev {
        Event::Hvc { cpu, func, args } if m.panicked().is_none() => Some(m.hvc(*cpu, *func, args)),
        _ => {
            exec(m, ev);
            None
        }
    }
}

/// Per-hook-family aggregates of a spanned replay.
struct HookAgg {
    count: [u64; 9],
    sum_ns: [u64; 9],
    tails: [Vec<f64>; 3],
    total_ns: u64,
    /// Per-call self time (span minus hook children), µs.
    call_self_us: Vec<f64>,
    /// Per-call (kind, span) for the bare replay.
    call_us: Vec<(u8, f64)>,
}

fn aggregate(spans: &[Span]) -> HookAgg {
    let mut a = HookAgg {
        count: [0; 9],
        sum_ns: [0; 9],
        tails: Default::default(),
        total_ns: 0,
        call_self_us: Vec::new(),
        call_us: Vec::new(),
    };
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.kind < CALL {
            let k = s.kind as usize;
            a.count[k] += 1;
            a.sum_ns[k] += s.dur_ns;
            a.total_ns += s.dur_ns;
            if let Some(i) = TAIL_HOOKS.iter().position(|&t| t == k) {
                a.tails[i].push(s.dur_ns as f64 / 1e3);
            }
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.dur_ns;
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.kind >= CALL {
            a.call_self_us
                .push(s.dur_ns.saturating_sub(children[i]) as f64 / 1e3);
            a.call_us.push((s.kind, s.dur_ns as f64 / 1e3));
        }
    }
    a
}

/// `p` of `xs` when at least ten samples lie beyond it, else the
/// highest percentile that has them.
fn tail(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let p = tail_percentile(v.len()).map_or(100.0, |hi| p.min(hi));
    percentile(&v, p)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn boot_us(opts: Option<OracleOpts>) -> f64 {
    let start = Instant::now();
    for _ in 0..BOOTS {
        let b = Proxy::builder();
        let p = match opts {
            Some(o) => b.oracle_opts(o).boot(),
            None => b.with_oracle(false).boot(),
        };
        std::hint::black_box(p);
    }
    start.elapsed().as_secs_f64() * 1e6 / BOOTS as f64
}

fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id,kind,parent,start_ns,dur_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let kind = if s.kind >= CALL {
            CALL_KINDS[(s.kind - CALL) as usize]
        } else {
            HOOKS[s.kind as usize]
        };
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(f, "{i},{kind},{parent},{},{}", s.start_ns, s.dur_ns)?;
    }
    f.flush()
}

/// Runs the traced measurement of `w` and returns every per-layer
/// metric by name, plus the checks it made. The raw spans of the inline
/// replay go to `csv`.
pub fn run(
    w: Workload,
    spec: &Spec,
    seed: u64,
    csv: &Path,
) -> Result<(BTreeMap<String, f64>, Checks), String> {
    let scratch =
        Scratch::new(&format!("{}-trace", w.name())).map_err(|e| format!("scratch dir: {e}"))?;
    let mix = w.mix();
    let mut checks = Checks::default();
    workload::warm_up(&mix, seed);
    if w != Workload::TraceReplay {
        workload::setup(w, &mix, spec, seed, &scratch)?;
    }
    let traffic = capture(w, spec, &scratch, &mut checks)?;
    let opts = mix.opts;
    let calls: u64 = traffic.segs.iter().map(|s| s.len() as u64).sum();
    let per = |x: f64| x / calls.max(1) as f64;

    // The kinds of the known failures: corpus inputs that reproduce one
    // replay to it.
    let allowed: Vec<&str> = spec
        .known_failures
        .iter()
        .filter_map(|f| f.split_whitespace().next())
        .collect();
    let segs_of = |inst| replay(&traffic.segs, inst, opts, &allowed, false);
    let bare = segs_of(Inst::Bare);
    let inline = replay(
        &traffic.segs,
        Inst::Spanned(Mode::Inline),
        opts,
        &allowed,
        true,
    );
    let piped = segs_of(Inst::Spanned(Mode::Pipelined));
    let overhead = tracing_overhead(&traffic.segs, calls, inline.wall, opts, &allowed);
    for r in [&bare, &inline, &piped] {
        checks.op(r.problems.clone());
    }
    checks.expect(
        !opts.incremental_abstraction || inline.cache.full_log_unavailable == 0,
        || "SpanHooks lost the write log: the cache fell back to full walks".into(),
    );

    let b = aggregate(&bare.spans);
    let hi = aggregate(&inline.spans);
    let hp = aggregate(&piped.spans);
    let sum_spans_ns: f64 = b.call_us.iter().map(|c| c.1 * 1e3).sum();
    let driver_self = traffic.unchecked_wall().as_secs_f64() * 1e9 - sum_spans_ns;
    let growth: Vec<f64> = traffic
        .groups
        .iter()
        .filter(|g| g.len() == 10)
        .map(|g| {
            let self_of = |t: &Tenth| {
                let hyp: f64 = b.call_us[t.calls.clone()].iter().map(|c| c.1).sum();
                (t.wall.as_secs_f64() * 1e6 - hyp).max(0.0)
            };
            ratio(self_of(&g[9]), self_of(&g[0]))
        })
        .collect();
    let host_access: Vec<f64> = b
        .call_us
        .iter()
        .filter(|c| c.0 == CALL + 3)
        .map(|c| c.1)
        .collect();
    let segs = traffic.segs.len() as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), if v.is_finite() { v } else { 0.0 });
    };
    // Two separate executions: noise can push the difference below zero.
    put("driver.self_us_per_step", per(driver_self.max(0.0) / 1e3));
    put("driver.self_growth", median(&growth));
    put("driver.model_pages_end", traffic.model_pages);
    put(
        "driver.ok_frac",
        ratio(bare.hvc_ok as f64, bare.hvcs as f64),
    );
    put("driver.rejected_frac", traffic.rejected_frac);
    put(
        "hyp.self_us_p50",
        percentile(&sorted(&b.call_self_us), 50.0),
    );
    put("hyp.self_us_p99", tail(&b.call_self_us, 99.0));
    put(
        "hyp.host_access_us_mean",
        ratio(host_access.iter().sum(), host_access.len() as f64),
    );
    put("hyp.cov_hits_per_step", per(bare.hyp_cov as f64));
    put("hyp.host_maplets_end", bare.maplets as f64 / segs);
    put("hyp.host_table_pages_end", bare.table_pages as f64 / segs);
    put("tlb.entries_end", bare.tlb_entries as f64 / segs);
    put(
        "tlb.hit_frac",
        ratio(
            bare.tlb_hits as f64,
            (bare.tlb_hits + bare.tlb_misses) as f64,
        ),
    );
    put(
        "tlb.invalidations_per_step",
        per(bare.tlb_invalidations as f64),
    );
    for (k, name) in HOOKS.iter().enumerate() {
        put(&format!("hook.{name}.per_step"), per(hi.count[k] as f64));
    }
    for (mode, a) in [("inline", &hi), ("pipelined", &hp)] {
        for (k, name) in HOOKS.iter().enumerate() {
            put(
                &format!("hook.{name}.us_mean.{mode}"),
                ratio(a.sum_ns[k] as f64 / 1e3, a.count[k] as f64),
            );
        }
    }
    for (mode, a) in [("inline", &hi), ("pipelined", &hp)] {
        for (i, &k) in TAIL_HOOKS.iter().enumerate() {
            put(
                &format!("hook.{}.us_p99.{mode}", HOOKS[k]),
                tail(&a.tails[i], 99.0),
            );
        }
    }
    put(
        "hook.share_of_wall.inline",
        ratio(hi.total_ns as f64, inline.wall.as_nanos() as f64),
    );
    put(
        "hook.share_of_wall.pipelined",
        ratio(hp.total_ns as f64, piped.wall.as_nanos() as f64),
    );
    let c = &inline.cache;
    let full = c.full_cold
        + c.full_root_changed
        + c.full_log_unavailable
        + c.full_dirty_ratio
        + c.full_anomaly;
    put(
        "abscache.clean_hit_frac",
        ratio(c.clean_hits as f64, c.requests() as f64),
    );
    put(
        "abscache.subtrees_per_step",
        per(c.subtrees_replayed as f64),
    );
    put(
        "abscache.full_frac",
        ratio(full as f64, c.requests() as f64),
    );
    put(
        "abs.host_walk_us_end",
        bare.host_walk.as_secs_f64() * 1e6 / segs,
    );
    put("spec.cov_hits_per_step", per(inline.spec_cov as f64));
    put(
        "oracle.checked_frac",
        ratio(
            inline.checked as f64,
            (inline.checked + inline.unchecked) as f64,
        ),
    );
    put(
        "oracle.abstractions_per_step",
        per(inline.abstractions as f64),
    );
    put("oracle.interleaved_skips", inline.interleaved_skips as f64);
    put("oracle.contained_panics", inline.contained_panics as f64);
    put(
        "checker.backhalf_us_per_step",
        per((hi.total_ns as f64 - hp.total_ns as f64) / 1e3),
    );
    put("checker.msgs_per_step", per(piped.msgs_sent as f64));
    put("checker.in_flight_mean", per(piped.in_flight_sum as f64));
    put("checker.in_flight_max", piped.in_flight_max as f64);
    put("checker.drain_ms", piped.drain.as_secs_f64() * 1e3 / segs);
    put("event.per_step", per((inline.events + calls) as f64));

    let (enc, dec, bytes, share) = codec_layer(&traffic, spec.codec_reps.min(5), &mut checks);
    put("codec.encode_ns_per_event", enc);
    put("codec.decode_ns_per_event", dec);
    put("codec.bytes_per_event", bytes);
    put("replay.decode_share", share);

    let boot_oracle = boot_us(Mode::Inline.opts(opts));
    put("boot.oracle_us", boot_oracle);
    put("boot.bare_us", boot_us(None));
    match &traffic.fuzz {
        Some((r, wall)) => {
            put(
                "fuzz.boot_share",
                ratio(r.execs as f64 * boot_oracle, wall.as_secs_f64() * 1e6),
            );
            put("fuzz.steps_per_exec", ratio(r.steps as f64, r.execs as f64));
            put(
                "fuzz.admit_frac",
                ratio(r.corpus_size as f64, r.execs as f64),
            );
            put("fuzz.crash_families", r.crashes.len() as f64);
        }
        None => {
            let boots = segs * boot_oracle;
            put(
                "fuzz.boot_share",
                ratio(boots, boots + inline.wall.as_secs_f64() * 1e6),
            );
            put("fuzz.steps_per_exec", calls as f64 / segs);
            put("fuzz.admit_frac", 0.0);
            put("fuzz.crash_families", 0.0);
        }
    }
    put("tracing.overhead_frac", overhead);

    if let Err(e) = write_csv(&inline.spans, csv) {
        checks.op(vec![format!("writing {}: {e}", csv.display())]);
    }
    Ok((m, checks))
}

/// Encode and decode cost per event of the captured timelines, bytes
/// per event, and the decode share of a streamed bare replay.
fn codec_layer(t: &Traffic, reps: usize, checks: &mut Checks) -> (f64, f64, f64, f64) {
    let (mut enc, mut dec, mut events, mut bytes) = (0.0, 0.0, 0u64, 0u64);
    let (mut decode_ns, mut replay_ns) = (0.0, 0.0);
    for trace in &t.timelines {
        let (c, encoded) = codec(trace, reps, checks);
        enc += c.encode.as_secs_f64();
        dec += c.decode.as_secs_f64();
        events += c.events;
        bytes += c.bytes;
        let (m, _) = workload::boot_machine(None);
        let start = Instant::now();
        if let Ok(mut rd) = TraceReader::from_bytes(&encoded) {
            loop {
                let t0 = Instant::now();
                let next = rd.next();
                decode_ns += t0.elapsed().as_nanos() as f64;
                match next {
                    Some(Ok(rec)) => {
                        exec(&m, &rec.event);
                    }
                    _ => break,
                }
            }
        }
        replay_ns += start.elapsed().as_nanos() as f64;
    }
    (
        ratio(enc * 1e9, events as f64),
        ratio(dec * 1e9, events as f64),
        ratio(bytes as f64, events as f64),
        ratio(decode_ns, replay_ns),
    )
}
