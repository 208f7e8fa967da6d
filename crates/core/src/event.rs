//! The unified event-stream layer: one typed, globally ordered timeline.
//!
//! Everything the harness and oracle used to record into private vectors —
//! the campaign's driver-op schedule, the oracle's trap trace and violation
//! log, chaos injections, lock events, `READ_ONCE` values — now flows
//! through [`EventStream::emit`] into one [`EventStream`]. Each event gets
//! a global sequence number (assigned under one mutex, so sequence order
//! *is* timeline order), a *lane* (the worker or CPU that produced it), an
//! optional link to the sequence number of the trap it happened inside, and
//! a nanosecond timestamp relative to stream creation.
//!
//! The stream doubles as the replay schedule (its driver-plane events are
//! exactly what [`replay`](../../pkvm_harness/campaign/fn.replay.html)
//! executes), as the bounded violation log and trap trace the oracle serves
//! its accessors from, and — via [`TraceStats`] — as the profiling
//! substrate producing per-trap latency and per-lane occupancy histograms.
//!
//! Sequence numbers come from two disjoint spaces: primary (mutator-emitted
//! events, from 0 up) and derived (`Check`/`Violation` records produced by
//! the checker, from [`DERIVED_SEQ_BASE`] up) — see the constant's docs for
//! why this keeps the numbering identical across check modes.
//!
//! Retention policy: with `record_all` on, every emitted event is kept (the
//! full replayable timeline). With it off, both sequence counters still
//! advance identically — so replays produce the same violation sequence
//! ids either way — but only the bounded side indexes are retained: the
//! violation log (capped, drops signalled to the caller) and the last
//! [`TRACE_CAP`] check outcomes. That preserves the memory behaviour of
//! long sweeps that run with trace recording off.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pkvm_aarch64::sync::Mutex;
use pkvm_aarch64::walk::Access;
use pkvm_hyp::hooks::{Component, TransferEdge};
use pkvm_hyp::vm::{GuestOp, Handle};

use crate::check::Violation;
use crate::oracle::{TrapOutcome, TrapRecord};

/// How many check-outcome records the bounded trap trace retains.
pub const TRACE_CAP: usize = 256;

/// Base of the derived sequence-number space. *Primary* events — everything
/// emitted by the mutator threads (driver ops, trap/lock/read-once/
/// table-page observations, chaos) — draw from the counter starting at 0.
/// *Derived* records — `Check` outcomes and `Violation` reports, produced
/// by the checker — draw from a separate counter based here. Keeping the
/// two spaces apart means the primary numbering is identical whether the
/// checker runs inline (derived records interleave with the events that
/// produced them) or pipelined behind the frontier (derived records land
/// late): checks and violations never shift the numbering of the events
/// they are about, so violation anchors compare equal across check modes.
/// Both counters advance in checker processing order, which both modes
/// produce identically.
pub const DERIVED_SEQ_BASE: u64 = 1 << 48;

/// Which chaos family injected a perturbation (the core-side mirror of the
/// harness's chaos families, so chaos injections appear in the same
/// timeline as the events they perturb).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// A live page-table bit flip (driver-injected; the matching
    /// `CorruptMem` event is the replayable half).
    BitFlip,
    /// A `READ_ONCE` value delivered torn or stale.
    TornReadOnce,
    /// A lock event dropped before delivery.
    DroppedLock,
    /// A lock event delivered twice.
    DupedLock,
    /// A hook delayed and delivered out of order.
    DelayedHook,
    /// The page allocator handed out an already-used page.
    AllocChaos,
    /// A remote TLB-invalidation delivery was delayed or dropped,
    /// retaining a stale per-CPU translation.
    StaleTlb,
}

impl ChaosKind {
    /// Stable lowercase tag for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosKind::BitFlip => "bit-flip",
            ChaosKind::TornReadOnce => "torn-read-once",
            ChaosKind::DroppedLock => "dropped-lock",
            ChaosKind::DupedLock => "duped-lock",
            ChaosKind::DelayedHook => "delayed-hook",
            ChaosKind::AllocChaos => "alloc-chaos",
            ChaosKind::StaleTlb => "stale-tlb",
        }
    }
}

/// One timeline entry. Driver-plane variants (`Hvc`, `WriteMem`,
/// `CorruptMem`, `HostAccess`, `PushGuestOp`) are the replayable
/// schedule; the rest are observations recorded by the oracle and the
/// chaos engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A hypercall issued by a driver/worker.
    Hvc {
        /// Simulated CPU the call ran on.
        cpu: usize,
        /// Hypercall function id.
        func: u64,
        /// Call arguments.
        args: Vec<u64>,
    },
    /// A host write to memory (parameter-page setup). Carries host
    /// privilege only: execution goes through the host's stage 2, so a
    /// write to a page the host no longer owns faults instead of
    /// corrupting hypervisor state.
    WriteMem {
        /// Physical address written.
        pa: u64,
        /// Value written.
        value: u64,
    },
    /// A raw physical-memory write that bypasses all translation — the
    /// chaos engine's fault-injection primitive (bit flips in live
    /// hypervisor tables). Deliberately *not* subject to stage 2: it
    /// models silent corruption, not a host action.
    CorruptMem {
        /// Physical address written.
        pa: u64,
        /// Value written.
        value: u64,
    },
    /// A host-side stage-2 access.
    HostAccess {
        /// Simulated CPU the access ran on.
        cpu: usize,
        /// Accessed address.
        addr: u64,
        /// Access kind.
        access: Access,
    },
    /// A guest operation queued onto a vCPU.
    PushGuestOp {
        /// VM handle.
        handle: Handle,
        /// vCPU index.
        idx: usize,
        /// The queued operation.
        op: GuestOp,
    },
    /// The oracle observed a trap entering its handler.
    TrapEnter {
        /// CPU the trap ran on.
        cpu: usize,
    },
    /// The handler returned; `name` is the resolved trap name.
    TrapExit {
        /// CPU the trap ran on.
        cpu: usize,
        /// Handler name (hypercall name, `host_abort`, `smc`, ...),
        /// borrowed from the handler table when recorded live.
        name: Cow<'static, str>,
    },
    /// A component lock was acquired (abstraction recorded into the
    /// pre-state).
    LockAcquired {
        /// CPU the acquisition ran on.
        cpu: usize,
        /// The component.
        comp: Component,
    },
    /// A component lock is about to be released (abstraction recorded
    /// into the post-state).
    LockReleasing {
        /// CPU the release ran on.
        cpu: usize,
        /// The component.
        comp: Component,
    },
    /// A `READ_ONCE` value recorded for the specification function.
    ReadOnce {
        /// CPU the read ran on.
        cpu: usize,
        /// The annotation tag, borrowed from the read site when recorded
        /// live.
        tag: Cow<'static, str>,
        /// The value read.
        value: u64,
    },
    /// A page entered a component's page-table footprint.
    TablePageAlloc {
        /// The allocating component.
        comp: Component,
        /// The page frame.
        pfn: u64,
    },
    /// A page left a component's page-table footprint.
    TablePageFree {
        /// The freeing component.
        comp: Component,
        /// The page frame.
        pfn: u64,
    },
    /// The hypervisor removed or tightened a live mapping — the "break"
    /// of break-before-make. The matching-scope broadcast [`Event::Tlbi`]
    /// and an [`Event::Dsb`] must follow before the trap exits.
    PteDowngrade {
        /// CPU that performed the table write.
        cpu: usize,
        /// VMID of the affected translation regime.
        vmid: u16,
        /// First input address of the downgraded range.
        ia: u64,
        /// Pages downgraded (`u64::MAX` with `ia == 0` encodes VMID-wide).
        nr: u64,
    },
    /// The hypervisor issued a TLB invalidation.
    Tlbi {
        /// VMID whose translations are dropped.
        vmid: u16,
        /// First input address covered (0 for VMID-wide scopes).
        ia: u64,
        /// Pages covered (`u64::MAX` with `ia == 0` encodes VMID-wide).
        nr: u64,
        /// Whether the `*is` broadcast form was used (reaching all CPUs)
        /// rather than the local-only one.
        broadcast: bool,
        /// CPU that issued the invalidation.
        cpu: usize,
    },
    /// The hypervisor issued the data synchronisation barrier completing
    /// its preceding TLB invalidations.
    Dsb {
        /// CPU that issued the barrier.
        cpu: usize,
    },
    /// A chaos family injected a perturbation here.
    Chaos {
        /// CPU (or worker lane) the injection hit.
        cpu: usize,
        /// Which family fired.
        kind: ChaosKind,
    },
    /// A page range crossed an ownership-transfer edge (share, unshare,
    /// donate, guest map, reclaim, ...) at its commit point.
    Transfer {
        /// CPU the transition committed on.
        cpu: usize,
        /// Which protocol edge was crossed.
        edge: TransferEdge,
        /// First page frame of the range.
        pfn: u64,
        /// Pages in the range.
        nr: u64,
        /// For [`TransferEdge::Reclaim`]: whether the page still held
        /// guest data after the (attempted) wipe. Always `false` for
        /// other edges.
        dirty: bool,
    },
    /// A firmware region was donated to a protected VM
    /// (`vm_load_firmware` succeeded).
    FirmwareDonate {
        /// CPU the donation committed on.
        cpu: usize,
        /// VM handle.
        handle: Handle,
        /// Incarnation id of the VM (survives handle reuse).
        uniq: u64,
        /// First page frame donated.
        pfn: u64,
        /// Pages donated.
        nr: u64,
    },
    /// The host's stage 2 regained access to a page range (donation back,
    /// successful reclaim, guest share). Firmware pages must never appear
    /// here.
    HostRegain {
        /// CPU the transition committed on.
        cpu: usize,
        /// First page frame regained.
        pfn: u64,
        /// Pages regained.
        nr: u64,
    },
    /// One trap's check concluded.
    Check {
        /// CPU the checked trap ran on.
        cpu: usize,
        /// Handler name, borrowed from the handler table when recorded
        /// live.
        name: Cow<'static, str>,
        /// How the check went.
        outcome: TrapOutcome,
    },
    /// A violation was reported (also retained in the bounded log).
    Violation(Violation),
}

impl Event {
    /// Every [`family`](Self::family) tag, for validating family names
    /// given on a command line or in a compaction request.
    pub const FAMILIES: [&'static str; 21] = [
        "hvc",
        "write-mem",
        "corrupt-mem",
        "host-access",
        "push-guest-op",
        "trap-enter",
        "trap-exit",
        "lock-acquired",
        "lock-releasing",
        "read-once",
        "table-page-alloc",
        "table-page-free",
        "pte-downgrade",
        "tlbi",
        "dsb",
        "chaos",
        "transfer",
        "firmware-donate",
        "host-regain",
        "check",
        "violation",
    ];

    /// Stable family tag for summaries.
    pub fn family(&self) -> &'static str {
        match self {
            Event::Hvc { .. } => "hvc",
            Event::WriteMem { .. } => "write-mem",
            Event::CorruptMem { .. } => "corrupt-mem",
            Event::HostAccess { .. } => "host-access",
            Event::PushGuestOp { .. } => "push-guest-op",
            Event::TrapEnter { .. } => "trap-enter",
            Event::TrapExit { .. } => "trap-exit",
            Event::LockAcquired { .. } => "lock-acquired",
            Event::LockReleasing { .. } => "lock-releasing",
            Event::ReadOnce { .. } => "read-once",
            Event::TablePageAlloc { .. } => "table-page-alloc",
            Event::TablePageFree { .. } => "table-page-free",
            Event::PteDowngrade { .. } => "pte-downgrade",
            Event::Tlbi { .. } => "tlbi",
            Event::Dsb { .. } => "dsb",
            Event::Chaos { .. } => "chaos",
            Event::Transfer { .. } => "transfer",
            Event::FirmwareDonate { .. } => "firmware-donate",
            Event::HostRegain { .. } => "host-regain",
            Event::Check { .. } => "check",
            Event::Violation(_) => "violation",
        }
    }

    /// `true` for driver-plane events — the replayable schedule.
    pub fn is_driver(&self) -> bool {
        matches!(
            self,
            Event::Hvc { .. }
                | Event::WriteMem { .. }
                | Event::CorruptMem { .. }
                | Event::HostAccess { .. }
                | Event::PushGuestOp { .. }
        )
    }
}

/// One stamped timeline entry.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (timeline position).
    pub seq: u64,
    /// Producing lane: the campaign worker for driver events, the CPU for
    /// oracle observations.
    pub lane: u32,
    /// Sequence number of the `TrapEnter` this event happened inside, if
    /// the producer was executing a trap.
    pub trap: Option<u64>,
    /// Nanoseconds since the stream was created.
    pub t_ns: u64,
    /// The event itself.
    pub event: Event,
}

#[derive(Default)]
struct StreamInner {
    next_seq: u64,
    derived_next: u64,
    events: Vec<EventRecord>,
    violations: Vec<Violation>,
    checks: VecDeque<TrapRecord>,
}

/// The shared timeline; see the module docs for the retention policy.
pub struct EventStream {
    started: Instant,
    record_all: bool,
    violation_cap: usize,
    nr_violations: AtomicU64,
    inner: Mutex<StreamInner>,
}

/// An incremental read position into an [`EventStream`] (the drain/cursor
/// replacement for the old clone-everything snapshot).
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCursor(usize);

impl EventStream {
    /// A fresh stream. `record_all` keeps the full timeline (required for
    /// replay); off, only the bounded violation log and trap trace are
    /// retained. `violation_cap` bounds the retained violation log.
    pub fn new(record_all: bool, violation_cap: usize) -> EventStream {
        EventStream {
            started: Instant::now(),
            record_all,
            violation_cap: violation_cap.max(1),
            nr_violations: AtomicU64::new(0),
            inner: Mutex::new(StreamInner::default()),
        }
    }

    /// Whether the full timeline is being retained.
    pub fn record_all(&self) -> bool {
        self.record_all
    }

    /// Appends one event, returning its global sequence number. `trap` is
    /// the sequence number of the enclosing trap's `TrapEnter`, if known.
    pub fn emit(&self, lane: u32, trap: Option<u64>, event: Event) -> u64 {
        self.append(lane, trap, event).0
    }

    fn append(&self, lane: u32, trap: Option<u64>, mut event: Event) -> (u64, bool) {
        let mut g = self.inner.lock();
        let seq = if matches!(event, Event::Check { .. } | Event::Violation(_)) {
            let s = DERIVED_SEQ_BASE + g.derived_next;
            g.derived_next += 1;
            s
        } else {
            let s = g.next_seq;
            g.next_seq += 1;
            s
        };
        let mut retain = self.record_all;
        let mut accepted = true;
        match &mut event {
            Event::Violation(v) => {
                v.set_event_seq(seq);
                if g.violations.len() < self.violation_cap {
                    g.violations.push(v.clone());
                    self.nr_violations
                        .store(g.violations.len() as u64, Ordering::Relaxed);
                } else {
                    // Over cap: the sequence number is still assigned (so
                    // replays stay aligned) but nothing is retained.
                    retain = false;
                    accepted = false;
                }
            }
            Event::Check { cpu, name, outcome } => {
                if g.checks.len() == TRACE_CAP {
                    g.checks.pop_front();
                }
                // A record the timeline does not keep gives the ring its
                // fields instead of copies.
                let rec = if retain {
                    TrapRecord {
                        cpu: *cpu,
                        name: name.clone(),
                        outcome: outcome.clone(),
                    }
                } else {
                    TrapRecord {
                        cpu: *cpu,
                        name: std::mem::take(name),
                        outcome: std::mem::replace(outcome, TrapOutcome::Clean),
                    }
                };
                g.checks.push_back(rec);
            }
            _ => {}
        }
        if retain {
            // Only a kept record reads the clock (tens of nanoseconds,
            // several times a step).
            g.events.push(EventRecord {
                seq,
                lane,
                trap,
                t_ns: self.started.elapsed().as_nanos() as u64,
                event,
            });
        }
        (seq, accepted)
    }

    /// Reports a violation into the timeline and the bounded log. Returns
    /// `false` when the log was full and the report was dropped (the
    /// caller counts drops — see `StatsSnapshot::violations_dropped`).
    pub fn violation(&self, lane: u32, trap: Option<u64>, v: Violation) -> bool {
        self.append(lane, trap, Event::Violation(v)).1
    }

    /// Number of events retained in the timeline.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A cursor positioned at the start of the timeline.
    pub fn cursor(&self) -> EventCursor {
        EventCursor(0)
    }

    /// Returns the events appended since the cursor's last poll and
    /// advances it — an incremental drain, so periodic inspection of a
    /// long campaign never re-copies the whole timeline.
    ///
    /// Allocates a fresh vector per call; hot loops (the pipelined checker
    /// drain, long-lived cursors) should use [`Self::poll_into`] and reuse
    /// one buffer.
    pub fn poll(&self, cursor: &mut EventCursor) -> Vec<EventRecord> {
        let mut out = Vec::new();
        self.poll_into(cursor, &mut out);
        out
    }

    /// Batch variant of [`Self::poll`]: clears `out` and fills it with the
    /// events appended since the cursor's last poll, advancing the cursor.
    /// Reusing one buffer across calls amortises the allocation to the
    /// high-water mark of a single batch. Returns the number of records
    /// drained.
    pub fn poll_into(&self, cursor: &mut EventCursor, out: &mut Vec<EventRecord>) -> usize {
        out.clear();
        let g = self.inner.lock();
        out.extend_from_slice(&g.events[cursor.0.min(g.events.len())..]);
        cursor.0 = g.events.len();
        out.len()
    }

    /// Takes the whole retained timeline out of the stream (no clone);
    /// used once at campaign end to move the schedule into the trace.
    pub fn take_events(&self) -> Vec<EventRecord> {
        std::mem::take(&mut self.inner.lock().events)
    }

    /// All retained violations (annotated with their event sequence ids).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Number of retained violations; a single relaxed atomic load, cheap
    /// enough for campaign workers to poll every few steps.
    pub fn violation_count(&self) -> u64 {
        self.nr_violations.load(Ordering::Relaxed)
    }

    /// Drops the retained violations (between test cases). The recorded
    /// timeline, if any, is left untouched.
    pub fn clear_violations(&self) {
        self.inner.lock().violations.clear();
        self.nr_violations.store(0, Ordering::Relaxed);
    }

    /// The most recent check outcomes (bounded at [`TRACE_CAP`]; newest
    /// last).
    pub fn trap_records(&self) -> Vec<TrapRecord> {
        self.inner.lock().checks.iter().cloned().collect()
    }
}

/// Incremental FNV-1a-style folder for [`novelty_signature`]: feeds the
/// *shape* of a timeline — trap names, check outcomes, lock/table-page
/// component kinds, violation kinds — into one 64-bit hash, deliberately
/// excluding concrete values (page numbers, register contents, VM handles,
/// timestamps). Two runs that walk the same control/ghost-state shape
/// share a signature even when their concrete pages differ; a run that
/// reaches a new post-trap shape gets a new one. The fuzzer uses this as
/// its second feedback channel, alongside named coverage points.
#[derive(Clone, Copy, Debug)]
pub struct ShapeHasher(u64);

impl Default for ShapeHasher {
    fn default() -> Self {
        // FNV-1a 64-bit offset basis.
        ShapeHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl ShapeHasher {
    /// A fresh hasher at the offset basis.
    pub fn new() -> ShapeHasher {
        ShapeHasher::default()
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn tag(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0);
    }

    fn component(&mut self, comp: &Component) {
        // Kind only: per-VM handles would make every VM incarnation a
        // "new" shape and drown the signal in noise.
        self.byte(match comp {
            Component::Hyp => 1,
            Component::Host => 2,
            Component::VmTable => 3,
            Component::Vm(_) => 4,
        });
    }

    /// Folds one record's shape contribution (a no-op for events that
    /// carry only concrete data, like raw memory writes).
    pub fn observe(&mut self, rec: &EventRecord) {
        match &rec.event {
            Event::TrapExit { name, .. } => {
                self.byte(1);
                self.tag(name);
            }
            Event::Check { name, outcome, .. } => {
                self.byte(2);
                self.tag(name);
                match outcome {
                    TrapOutcome::Clean => self.byte(0),
                    TrapOutcome::Violated(_) => self.byte(1),
                    TrapOutcome::Unchecked(why) => {
                        self.byte(2);
                        self.tag(why);
                    }
                }
            }
            Event::LockAcquired { comp, .. } => {
                self.byte(3);
                self.component(comp);
            }
            Event::LockReleasing { comp, .. } => {
                self.byte(4);
                self.component(comp);
            }
            Event::TablePageAlloc { comp, .. } => {
                self.byte(5);
                self.component(comp);
            }
            Event::TablePageFree { comp, .. } => {
                self.byte(6);
                self.component(comp);
            }
            Event::Violation(v) => {
                self.byte(7);
                self.tag(v.kind());
                if let Some(c) = v.component() {
                    self.tag(c);
                }
            }
            Event::Chaos { kind, .. } => {
                self.byte(8);
                self.tag(kind.name());
            }
            // TLB-maintenance shape: scope kind and broadcastness, not the
            // concrete addresses (every page number would be "novel").
            Event::Tlbi { broadcast, nr, .. } => {
                self.byte(9);
                self.byte(*broadcast as u8);
                self.byte((*nr == u64::MAX) as u8);
            }
            Event::Dsb { .. } => {
                self.byte(10);
            }
            Event::PteDowngrade { nr, .. } => {
                self.byte(11);
                self.byte((*nr == u64::MAX) as u8);
            }
            // Transfer shape: which protocol edge was crossed and (for
            // reclaims) whether the wipe left the page dirty — not the
            // concrete page numbers.
            Event::Transfer { edge, dirty, .. } => {
                self.byte(12);
                self.byte(*edge as u8);
                self.byte(*dirty as u8);
            }
            Event::FirmwareDonate { .. } => {
                self.byte(13);
            }
            Event::HostRegain { .. } => {
                self.byte(14);
            }
            // Driver ops and raw read/trap-enter events are the *input*,
            // not the observed behaviour; folding them in would make every
            // mutation "novel" by construction.
            Event::Hvc { .. }
            | Event::WriteMem { .. }
            | Event::CorruptMem { .. }
            | Event::HostAccess { .. }
            | Event::PushGuestOp { .. }
            | Event::TrapEnter { .. }
            | Event::ReadOnce { .. } => {}
        }
    }

    /// The signature folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The ghost-state novelty signature of a recorded timeline: the hash of
/// its post-trap component shapes (see [`ShapeHasher`]).
///
/// Folds records in raw stream order, so it is sensitive to *where* the
/// derived `Check`/`Violation` records land in the timeline. With the
/// pipelined checker those land behind the execution frontier — at later
/// (and run-dependent) positions than inline mode puts them — so cross-mode
/// comparisons must use [`canonical_signature`] instead.
pub fn novelty_signature(records: &[EventRecord]) -> u64 {
    let mut h = ShapeHasher::new();
    for r in records {
        h.observe(r);
    }
    h.finish()
}

/// Mode-independent shape signature: [`novelty_signature`] over a
/// canonicalised record order.
///
/// Hook events (trap/lock/table-page/chaos) are emitted on the mutator
/// thread in both check modes and keep their stream positions. The derived
/// records — `Check` outcomes and `Violation` reports — are appended by
/// the checker, which in pipelined mode runs behind the frontier, so their
/// raw *positions* in the retained timeline differ between modes (and
/// between pipelined runs). Their sequence numbers do not: derived records
/// draw from the separate [`DERIVED_SEQ_BASE`] space in checker-processing
/// order, which both modes produce identically. Sorting by sequence number
/// alone is therefore canonical — hook events in emission order first,
/// derived records in check order after them.
pub fn canonical_signature(records: &[EventRecord]) -> u64 {
    let mut sorted: Vec<&EventRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.seq);
    let mut h = ShapeHasher::new();
    for r in sorted {
        h.observe(r);
    }
    h.finish()
}

/// Latency histogram for one trap name: log2(ns) buckets plus exact
/// min/max/sum so summaries can report mean and range.
#[derive(Clone, Debug)]
pub struct TrapLatency {
    /// Completed enter→exit pairs observed.
    pub count: u64,
    /// `buckets[i]` counts latencies with `floor(log2(ns)) == i`.
    pub buckets: [u64; 64],
    /// Sum of latencies (ns).
    pub sum_ns: u64,
    /// Fastest observed (ns).
    pub min_ns: u64,
    /// Slowest observed (ns).
    pub max_ns: u64,
}

impl Default for TrapLatency {
    fn default() -> Self {
        TrapLatency {
            count: 0,
            buckets: [0; 64],
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl TrapLatency {
    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.buckets[63 - ns.max(1).leading_zeros() as usize] += 1;
        self.sum_ns += ns;
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean latency in ns (0 when nothing was observed).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile latency in ns (`p` in `0..=100`), read off
    /// the log2 histogram: the upper bound of the bucket holding the
    /// rank, clamped into the exact observed `[min_ns, max_ns]` range —
    /// so the tail percentiles are bucket-resolution approximations but
    /// `percentile_ns(100) == max_ns` exactly. 0 when nothing was
    /// observed.
    pub fn percentile_ns(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(count * p / 100), at least rank 1.
        let rank = (self.count as u128 * p as u128).div_ceil(100).max(1) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Per-lane occupancy: how busy one worker/CPU lane was.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneOccupancy {
    /// Events produced on this lane.
    pub events: u64,
    /// Traps completed on this lane.
    pub traps: u64,
    /// Total time spent inside traps (ns).
    pub in_trap_ns: u64,
}

/// The streaming stats consumer: feed it records (live via
/// [`EventStream::poll`] or from a loaded trace file) and it maintains
/// per-family counts, per-trap latency histograms, and per-lane occupancy.
#[derive(Default)]
pub struct TraceStats {
    /// Event counts per family tag.
    pub families: BTreeMap<&'static str, u64>,
    /// Transfer crossings per protocol edge (share, unshare, donate,
    /// guest map, reclaim, ...), keyed by [`TransferEdge::name`].
    pub transfers: BTreeMap<&'static str, u64>,
    /// Reclaim crossings whose page still held guest data (each one is
    /// a wipe the hypervisor skipped — a reclaim-wipe verdict upstream).
    pub dirty_reclaims: u64,
    /// Total pages donated as protected-VM firmware.
    pub firmware_pages: u64,
    /// Latency histograms per trap name.
    pub traps: BTreeMap<String, TrapLatency>,
    /// Occupancy per lane.
    pub lanes: BTreeMap<u32, LaneOccupancy>,
    /// Chaos injections per kind.
    pub chaos: BTreeMap<&'static str, u64>,
    /// For each checked handler name, the 1-based event index at which
    /// its first `Check` record appeared — spec coverage as a function
    /// of trace position.
    pub spec_first_seen: BTreeMap<String, u64>,
    /// The coverage-over-time curve: `(events seen, distinct checked
    /// handlers so far)`, sampled on a doubling grid (256, 512, 1024,
    /// …) so the curve stays O(log n) for arbitrarily long traces.
    pub coverage_curve: Vec<(u64, usize)>,
    /// Records folded in so far.
    pub events_seen: u64,
    open_traps: HashMap<u32, u64>,
    next_sample: u64,
}

impl TraceStats {
    /// An empty accumulator.
    pub fn new() -> TraceStats {
        TraceStats::default()
    }

    /// Folds one record into the histograms. Records must arrive in
    /// sequence order (they do, from both `poll` and a trace file).
    pub fn observe(&mut self, rec: &EventRecord) {
        self.events_seen += 1;
        *self.families.entry(rec.event.family()).or_default() += 1;
        self.lanes.entry(rec.lane).or_default().events += 1;
        match &rec.event {
            Event::TrapEnter { .. } => {
                self.open_traps.insert(rec.lane, rec.t_ns);
            }
            Event::TrapExit { name, .. } => {
                if let Some(entered) = self.open_traps.remove(&rec.lane) {
                    let ns = rec.t_ns.saturating_sub(entered);
                    self.traps.entry(name.to_string()).or_default().observe(ns);
                    let lane = self.lanes.entry(rec.lane).or_default();
                    lane.traps += 1;
                    lane.in_trap_ns += ns;
                }
            }
            Event::Chaos { kind, .. } => {
                *self.chaos.entry(kind.name()).or_default() += 1;
            }
            Event::Check { name, .. } => {
                let at = self.events_seen;
                self.spec_first_seen.entry(name.to_string()).or_insert(at);
            }
            Event::Transfer { edge, dirty, .. } => {
                *self.transfers.entry(edge.name()).or_default() += 1;
                if *dirty {
                    self.dirty_reclaims += 1;
                }
            }
            Event::FirmwareDonate { nr, .. } => {
                self.firmware_pages += nr;
            }
            _ => {}
        }
        // Lazy grid init: `Default` zeroes the field, the first record
        // arms it.
        if self.next_sample == 0 {
            self.next_sample = 256;
        }
        if self.events_seen >= self.next_sample {
            self.coverage_curve
                .push((self.events_seen, self.spec_first_seen.len()));
            self.next_sample = self.next_sample.saturating_mul(2);
        }
    }

    /// Folds a whole slice of records.
    pub fn observe_all(&mut self, recs: &[EventRecord]) {
        for r in recs {
            self.observe(r);
        }
    }

    /// Renders the summary tables.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "event families:");
        for (family, n) in &self.families {
            let _ = writeln!(out, "  {family:<18} {n:>10}");
        }
        if !self.transfers.is_empty() {
            let _ = writeln!(out, "transfer edges:");
            for (edge, n) in &self.transfers {
                let _ = writeln!(out, "  {edge:<18} {n:>10}");
            }
            let _ = writeln!(
                out,
                "  {:<18} {:>10}",
                "dirty reclaims", self.dirty_reclaims
            );
            let _ = writeln!(
                out,
                "  {:<18} {:>10}",
                "firmware pages", self.firmware_pages
            );
        }
        if !self.chaos.is_empty() {
            let _ = writeln!(out, "chaos injections:");
            for (kind, n) in &self.chaos {
                let _ = writeln!(out, "  {kind:<18} {n:>10}");
            }
        }
        if !self.traps.is_empty() {
            let _ = writeln!(
                out,
                "per-trap latency:    {:>8} {:>10} {:>10} {:>10}",
                "count", "mean ns", "min ns", "max ns"
            );
            for (name, h) in &self.traps {
                let _ = writeln!(
                    out,
                    "  {name:<18} {:>8} {:>10} {:>10} {:>10}",
                    h.count,
                    h.mean_ns(),
                    h.min_ns,
                    h.max_ns
                );
            }
        }
        if !self.lanes.is_empty() {
            let _ = writeln!(
                out,
                "lane occupancy:      {:>8} {:>10} {:>14}",
                "events", "traps", "in-trap ns"
            );
            for (lane, o) in &self.lanes {
                let _ = writeln!(
                    out,
                    "  lane {lane:<13} {:>8} {:>10} {:>14}",
                    o.events, o.traps, o.in_trap_ns
                );
            }
        }
        out
    }

    /// Renders the per-handler latency percentile table (p50/p90/p99
    /// from the log2 histogram, exact min/max).
    pub fn render_percentiles(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.traps.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "latency percentiles: {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "count", "p50 ns", "p90 ns", "p99 ns", "min ns", "max ns"
        );
        for (name, h) in &self.traps {
            let _ = writeln!(
                out,
                "  {name:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                h.count,
                h.percentile_ns(50),
                h.percentile_ns(90),
                h.percentile_ns(99),
                h.min_ns,
                h.max_ns
            );
        }
        out
    }

    /// Renders the spec-coverage-over-time curve: how many distinct
    /// handlers had been checked after 256, 512, 1024, … events, plus
    /// the end point.
    pub fn render_coverage(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "spec coverage over time:");
        for (at, n) in &self.coverage_curve {
            let _ = writeln!(out, "  after {at:>10} events: {n:>3} checked handler(s)");
        }
        let _ = writeln!(
            out,
            "  end   {:>10} events: {:>3} checked handler(s)",
            self.events_seen,
            self.spec_first_seen.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> EventStream {
        EventStream::new(true, 8)
    }

    #[test]
    fn sequence_numbers_are_global_and_match_timeline_order() {
        let s = stream();
        for cpu in 0..5usize {
            s.emit(cpu as u32, None, Event::TrapEnter { cpu });
        }
        let events = s.take_events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.lane, i as u32);
        }
    }

    #[test]
    fn cursor_polls_incrementally_without_recopying() {
        let s = stream();
        let mut cur = s.cursor();
        s.emit(0, None, Event::TrapEnter { cpu: 0 });
        s.emit(0, None, Event::WriteMem { pa: 8, value: 9 });
        assert_eq!(s.poll(&mut cur).len(), 2);
        assert!(s.poll(&mut cur).is_empty());
        s.emit(1, None, Event::TrapEnter { cpu: 1 });
        let fresh = s.poll(&mut cur);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 2);
    }

    #[test]
    fn violations_are_tagged_with_their_event_seq_and_capped() {
        let s = EventStream::new(false, 2);
        s.emit(0, None, Event::TrapEnter { cpu: 0 });
        for i in 0..4 {
            let retained = s.violation(
                0,
                Some(0),
                Violation::HypPanic {
                    seq: None,
                    reason: format!("p{i}"),
                },
            );
            assert_eq!(retained, i < 2, "cap is 2");
        }
        let vs = s.violations();
        assert_eq!(vs.len(), 2);
        // Violations with no diverged-at anchor are tagged from the
        // derived sequence space; the primary numbering is untouched.
        assert_eq!(vs[0].event_seq(), Some(DERIVED_SEQ_BASE));
        assert_eq!(vs[1].event_seq(), Some(DERIVED_SEQ_BASE + 1));
        assert_eq!(s.violation_count(), 2);
        // Retention off: nothing but the indexes is kept, yet sequence
        // numbers advanced for every emit — and derived records never
        // consumed a primary sequence number.
        assert!(s.is_empty());
        assert_eq!(s.emit(0, None, Event::TrapEnter { cpu: 0 }), 1);
    }

    #[test]
    fn check_events_feed_the_bounded_trap_trace() {
        let s = EventStream::new(false, 8);
        for i in 0..(TRACE_CAP + 10) {
            s.emit(
                0,
                None,
                Event::Check {
                    cpu: 0,
                    name: format!("t{i}").into(),
                    outcome: TrapOutcome::Clean,
                },
            );
        }
        let t = s.trap_records();
        assert_eq!(t.len(), TRACE_CAP);
        assert_eq!(t.last().unwrap().name, format!("t{}", TRACE_CAP + 9));
    }

    #[test]
    fn novelty_signature_hashes_shape_not_values() {
        let rec = |event| EventRecord {
            seq: 0,
            lane: 0,
            trap: None,
            t_ns: 0,
            event,
        };
        let shape = |name: &'static str, pfn: u64, value: u64| {
            novelty_signature(&[
                rec(Event::Hvc {
                    cpu: 0,
                    func: value,
                    args: vec![pfn],
                }),
                rec(Event::WriteMem { pa: pfn, value }),
                rec(Event::LockAcquired {
                    cpu: 0,
                    comp: Component::Vm(value as Handle),
                }),
                rec(Event::TablePageAlloc {
                    comp: Component::Host,
                    pfn,
                }),
                rec(Event::TrapExit {
                    cpu: 0,
                    name: name.into(),
                }),
                rec(Event::Check {
                    cpu: 0,
                    name: name.into(),
                    outcome: TrapOutcome::Clean,
                }),
            ])
        };
        // Concrete values (pfns, register contents, VM handles, driver
        // inputs) do not participate: only the post-trap shape does.
        assert_eq!(
            shape("host_share_hyp", 10, 1),
            shape("host_share_hyp", 99, 7)
        );
        // A different trap name is a different shape.
        assert_ne!(
            shape("host_share_hyp", 10, 1),
            shape("host_unshare_hyp", 10, 1)
        );
        // A different check outcome is a different shape.
        let clean = novelty_signature(&[rec(Event::Check {
            cpu: 0,
            name: "t".into(),
            outcome: TrapOutcome::Clean,
        })]);
        let violated = novelty_signature(&[rec(Event::Check {
            cpu: 0,
            name: "t".into(),
            outcome: TrapOutcome::Violated(1),
        })]);
        let unchecked = novelty_signature(&[rec(Event::Check {
            cpu: 0,
            name: "t".into(),
            outcome: TrapOutcome::Unchecked("why".into()),
        })]);
        assert_ne!(clean, violated);
        assert_ne!(clean, unchecked);
        assert_ne!(violated, unchecked);
        // A new lock-component kind is a different shape.
        let host_lock = novelty_signature(&[rec(Event::LockAcquired {
            cpu: 0,
            comp: Component::Host,
        })]);
        let vm_lock = novelty_signature(&[rec(Event::LockAcquired {
            cpu: 0,
            comp: Component::Vm(3),
        })]);
        assert_ne!(host_lock, vm_lock);
        // ... but two different VM handles are the same kind.
        assert_eq!(
            vm_lock,
            novelty_signature(&[rec(Event::LockAcquired {
                cpu: 0,
                comp: Component::Vm(9),
            })])
        );
        // Order matters (a shape is a sequence, not a set).
        let ab = novelty_signature(&[
            rec(Event::TrapEnter { cpu: 0 }),
            rec(Event::TrapExit {
                cpu: 0,
                name: "a".into(),
            }),
            rec(Event::TrapExit {
                cpu: 0,
                name: "b".into(),
            }),
        ]);
        let ba = novelty_signature(&[
            rec(Event::TrapExit {
                cpu: 0,
                name: "b".into(),
            }),
            rec(Event::TrapExit {
                cpu: 0,
                name: "a".into(),
            }),
        ]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn poll_into_reuses_the_callers_buffer() {
        let s = stream();
        let mut cur = s.cursor();
        let mut buf = Vec::new();
        s.emit(0, None, Event::TrapEnter { cpu: 0 });
        s.emit(0, None, Event::WriteMem { pa: 8, value: 9 });
        assert_eq!(s.poll_into(&mut cur, &mut buf), 2);
        assert_eq!(buf.len(), 2);
        let cap = buf.capacity();
        // An empty drain clears the buffer but keeps its storage.
        assert_eq!(s.poll_into(&mut cur, &mut buf), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap);
        s.emit(1, None, Event::TrapEnter { cpu: 1 });
        assert_eq!(s.poll_into(&mut cur, &mut buf), 1);
        assert_eq!(buf[0].seq, 2);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn canonical_signature_ignores_where_derived_records_land() {
        let rec = |seq: u64, trap: Option<u64>, event| EventRecord {
            seq,
            lane: 0,
            trap,
            t_ns: 0,
            event,
        };
        let violation = |at: u64| Violation::HypPanic {
            seq: Some(at),
            reason: "p".into(),
        };
        let check = |name: &'static str| Event::Check {
            cpu: 0,
            name: name.into(),
            outcome: TrapOutcome::Violated(1),
        };
        const D: u64 = DERIVED_SEQ_BASE;
        // Inline: the checker's Check/Violation records sit inside the
        // trap that produced them.
        let inline = [
            rec(0, None, Event::TrapEnter { cpu: 0 }),
            rec(
                1,
                Some(0),
                Event::LockAcquired {
                    cpu: 0,
                    comp: Component::Host,
                },
            ),
            rec(
                2,
                Some(0),
                Event::TrapExit {
                    cpu: 0,
                    name: "a".into(),
                },
            ),
            rec(D, Some(0), Event::Violation(violation(1))),
            rec(D + 1, Some(0), check("a")),
            rec(3, None, Event::TrapEnter { cpu: 1 }),
            rec(
                4,
                Some(3),
                Event::TrapExit {
                    cpu: 1,
                    name: "b".into(),
                },
            ),
            rec(D + 2, Some(3), check("b")),
        ];
        // Pipelined: the checker runs behind the frontier, so the same
        // derived records land later in the retained timeline, past other
        // traps' events — with the same derived seqs, trap links, and
        // diverged-at anchors.
        let pipelined = [
            rec(0, None, Event::TrapEnter { cpu: 0 }),
            rec(
                1,
                Some(0),
                Event::LockAcquired {
                    cpu: 0,
                    comp: Component::Host,
                },
            ),
            rec(
                2,
                Some(0),
                Event::TrapExit {
                    cpu: 0,
                    name: "a".into(),
                },
            ),
            rec(3, None, Event::TrapEnter { cpu: 1 }),
            rec(
                4,
                Some(3),
                Event::TrapExit {
                    cpu: 1,
                    name: "b".into(),
                },
            ),
            rec(D, Some(0), Event::Violation(violation(1))),
            rec(D + 1, Some(0), check("a")),
            rec(D + 2, Some(3), check("b")),
        ];
        assert_eq!(
            canonical_signature(&inline),
            canonical_signature(&pipelined)
        );
        // The raw signature is order-sensitive and would disagree.
        assert_ne!(novelty_signature(&inline), novelty_signature(&pipelined));
        // Canonicalisation still distinguishes genuinely different shapes.
        let mut other = pipelined.clone();
        other[4] = rec(
            4,
            Some(3),
            Event::TrapExit {
                cpu: 1,
                name: "c".into(),
            },
        );
        assert_ne!(canonical_signature(&inline), canonical_signature(&other));
    }

    #[test]
    fn stats_consumer_pairs_traps_and_counts_families() {
        let s = stream();
        s.emit(0, None, Event::TrapEnter { cpu: 0 });
        s.emit(
            0,
            Some(0),
            Event::TrapExit {
                cpu: 0,
                name: "host_share_hyp".into(),
            },
        );
        s.emit(1, None, Event::TrapEnter { cpu: 1 });
        s.emit(
            0,
            None,
            Event::Chaos {
                cpu: 0,
                kind: ChaosKind::TornReadOnce,
            },
        );
        let mut stats = TraceStats::new();
        stats.observe_all(&s.take_events());
        assert_eq!(stats.families["trap-enter"], 2);
        assert_eq!(stats.traps["host_share_hyp"].count, 1);
        assert_eq!(stats.chaos["torn-read-once"], 1);
        let rendered = stats.render();
        assert!(rendered.contains("host_share_hyp"), "{rendered}");
        assert!(rendered.contains("lane 0"), "{rendered}");
    }
}
