//! The `Checker` API: where, and when, the oracle's checks run.
//!
//! The oracle's work splits into two halves. The *front half* runs on the
//! mutator thread, inside the [`GhostHooks`](pkvm_hyp::hooks::GhostHooks)
//! callbacks: it emits the hook's event into the stream, computes the
//! component abstraction **while the component's lock is held** (the one
//! thing that cannot be deferred — the paper's recording discipline), and
//! packages both into a `CheckMsg`. Hooks that only observe (table
//! pages, TLB maintenance, ownership transfers) send the recorded event
//! itself, as `CheckMsg::Observe`, and a contained front-half panic
//! travels as `CheckMsg::Panic`. The *back half* applies the message: it
//! maintains the shared ghost copy and the per-trap pre/post records,
//! runs the non-interference check, feeds observations to the trackers
//! (`crate::trackers`), at trap exit computes the spec and compares
//! (`Oracle::apply_msg`), and owns containment and quarantine: each
//! message applies under one net, and every quarantine decision is taken
//! in message order, so both modes make the same records.
//!
//! [`CheckMode`] selects where the back half runs:
//!
//! - [`CheckMode::Inline`]: the hook applies the message synchronously
//!   before returning — bit-identical to the classic fully synchronous
//!   oracle (same verdicts, same violation sequence ids).
//! - [`CheckMode::Pipelined`]: messages flow through a bounded channel to
//!   a checker thread that applies them behind the execution frontier.
//!   The mutator keeps running; it blocks only when the channel is full
//!   (backpressure — memory stays bounded by `channel_cap`), at an
//!   explicit [`Checker::barrier`], or at [`Verdict::wait`].
//!
//! The checker thread holds only a [`Weak`] reference to the oracle and
//! the channel's receiving end, so dropping the last external handle tears
//! the pipeline down: the oracle (and with it the sender) is dropped, the
//! channel disconnects, and the thread exits. Messages still in flight at
//! that point are discarded — call [`Verdict::wait`] before dropping the
//! oracle if the run's verdict matters.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};

use pkvm_aarch64::esr::Esr;
use pkvm_aarch64::sysreg::GprFile;

use crate::check::Violation;
use crate::containment::QuarantineKey;
use crate::event::Event;
use crate::oracle::{ComponentValue, Oracle, TrapRecord};
use crate::state::{GhostLoadedVcpu, Part};

/// Where the oracle's back half (ghost-copy maintenance and spec checks)
/// runs, relative to the hypervisor code that triggered it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// Check synchronously inside each hook (the classic oracle). The
    /// hypervisor thread pays the full check cost per event, but every
    /// accessor is up to date the moment a hook returns. Required when
    /// the caller inspects oracle state *between* individual operations
    /// (e.g. the quickstart's per-trap diff).
    #[default]
    Inline,
    /// Check on a dedicated thread behind the execution frontier. Hooks
    /// only abstract-and-forward; the mutator synchronises with the
    /// checker at [`Verdict::wait`]/[`Checker::barrier`] or when the
    /// bounded channel exerts backpressure.
    ///
    /// The check core is order-dependent (one shared ghost copy, version
    /// stamps, deferred seeding), so one ordered checker thread consumes
    /// the channel.
    Pipelined {
        /// Bound on in-flight messages. A stalled checker blocks the
        /// mutator once this many messages are queued, so memory is
        /// bounded by the cap instead of growing with the run. Messages
        /// travel in per-trap batches, so the bound holds at batch
        /// granularity (the cap may be exceeded by at most one batch).
        channel_cap: usize,
    },
}

impl CheckMode {
    /// The pipelined mode with default sizing (a 1024-message channel).
    pub fn pipelined() -> CheckMode {
        CheckMode::Pipelined { channel_cap: 1024 }
    }

    /// `true` for [`CheckMode::Pipelined`].
    pub fn is_pipelined(&self) -> bool {
        matches!(self, CheckMode::Pipelined { .. })
    }
}

/// A completion gate carried by [`CheckMsg::Barrier`]: the poster blocks
/// on the condvar; the checker flips the flag and notifies once every
/// earlier message has been applied.
pub(crate) type BarrierGate = Arc<(StdMutex<bool>, Condvar)>;

/// One unit of back-half work: everything the check core needs that had
/// to be captured on the mutator thread (lock-held abstractions, register
/// files, read-once values), keyed by the primary event's stream seq.
///
/// Every message crosses from the mutator's core to the checker's in
/// pipelined mode, so messages stay small (at most 304 bytes, pinned by a
/// test): a trap message carries one register file and the back half
/// rebuilds the call data and the per-CPU state from it; the loaded vCPU,
/// rare and large, travels boxed; and a component abstraction
/// ([`ComponentValue`]) shares its mappings and table footprint with the
/// cache's copy.
pub(crate) enum CheckMsg {
    /// `trap_enter` ran: reset the per-CPU record.
    TrapEnter {
        cpu: usize,
        /// Stream seq of the `TrapEnter` event (the trap's identity).
        seq: u64,
        esr: Esr,
        fault_ipa: Option<u64>,
        /// The saved context at entry.
        regs: GprFile,
        loaded: Option<Box<GhostLoadedVcpu>>,
    },
    /// `trap_exit` ran: finish the recording and run the ternary check.
    TrapExit {
        cpu: usize,
        trap: Option<u64>,
        name: &'static str,
        /// The saved context at exit.
        regs: GprFile,
        loaded: Option<Box<GhostLoadedVcpu>>,
        /// The per-trap budget ran out mid-trap: skip the check.
        degraded: bool,
    },
    /// A lock acquisition, with the abstraction computed under the lock.
    LockAcquired {
        cpu: usize,
        trap: Option<u64>,
        value: ComponentValue,
        /// Abstraction anomalies / shadow divergences collected while
        /// abstracting (reported by the back half, in order).
        reports: Vec<Violation>,
    },
    /// A lock release, with the abstraction computed under the lock.
    LockReleasing {
        cpu: usize,
        trap: Option<u64>,
        value: ComponentValue,
        reports: Vec<Violation>,
    },
    /// A lock event past the per-trap budget: evict the component from
    /// the shared copy instead of recording anything.
    Evict {
        cpu: usize,
        trap: Option<u64>,
        part: Part,
    },
    /// A `READ_ONCE` value for the running trap's call data.
    ReadOnce {
        cpu: usize,
        tag: &'static str,
        value: u64,
    },
    /// An observation hook's event, as recorded at stream seq `seq`, for
    /// the back-half trackers (separation, break-before-make, transfer
    /// protocol, firmware protection).
    Observe {
        cpu: usize,
        trap: Option<u64>,
        seq: u64,
        event: Event,
    },
    /// Violations produced on the mutator side (hypervisor panics, a
    /// trap exit without call data). Routed through the pipeline so every
    /// report lands in checker order — the derived sequence numbering
    /// stays identical across check modes.
    Report {
        cpu: usize,
        trap: Option<u64>,
        violations: Vec<Violation>,
    },
    /// A hook's front half panicked (contained): a failure of `key`, which
    /// the back half counts, strikes and reports in message order. A lock
    /// hook's panic is a lock event of its component at `cpu`/`trap`, so
    /// it takes that component's quarantine decision first.
    Panic {
        cpu: usize,
        trap: Option<u64>,
        key: QuarantineKey,
        payload: String,
    },
    /// Sync point: signal the gate once all earlier messages are applied.
    Barrier(BarrierGate),
}

/// Keeps its value on cache lines of its own (128 bytes: adjacent-line
/// prefetch pairs 64-byte lines), so a field that one thread writes at
/// every event never shares a line with fields another thread writes.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CacheLine<T>(pub(crate) T);

impl<T> Deref for CacheLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The sending half of the pipelined checker, owned by the oracle.
///
/// Messages are *batched*: they accumulate in a buffer and go to the
/// channel `flush_max` at a time (or earlier, at a barrier). A trap
/// emits a handful of messages, and paying the channel's send/wakeup
/// synchronisation once per dozens of messages instead of once per
/// message is what keeps the pipelined mode's per-event overhead low.
/// Batching never reorders: batches preserve send order and the checker
/// applies them in arrival order, so the derived sequence numbering is
/// untouched.
///
/// Batches are recycled: the checker hands each drained batch back, and a
/// flush swaps a returned one in for the full buffer. In steady state a
/// batch allocates nothing, never grows, and is freed on neither thread.
pub(crate) struct Pipeline {
    tx: SyncSender<Vec<CheckMsg>>,
    batches: StdMutex<Batches>,
    /// Flush the buffer once it holds this many messages, even mid-trap,
    /// so `channel_cap`'s memory bound holds at batch granularity.
    flush_max: usize,
    /// Messages handed to the channel (blocks counting as sent once the
    /// send returns).
    sent: AtomicU64,
    /// Messages fully applied by the checker thread, which bumps it at
    /// every message: kept apart from the mutator's buffer and `sent`.
    applied: CacheLine<AtomicU64>,
}

/// The mutator's side of the batch cycle.
struct Batches {
    /// Messages awaiting the next flush (not yet counted as sent).
    buf: Vec<CheckMsg>,
    /// Drained batches the checker handed back, empty but with capacity.
    spare: Receiver<Vec<CheckMsg>>,
}

impl Pipeline {
    /// The sending half over `tx`, flushing every `flush_max` messages
    /// and reusing the batches that arrive on `spare`.
    pub(crate) fn new(
        tx: SyncSender<Vec<CheckMsg>>,
        spare: Receiver<Vec<CheckMsg>>,
        flush_max: usize,
    ) -> Pipeline {
        let flush_max = flush_max.max(1);
        Pipeline {
            tx,
            batches: StdMutex::new(Batches {
                buf: Vec::with_capacity(flush_max),
                spare,
            }),
            flush_max,
            sent: AtomicU64::new(0),
            applied: CacheLine(AtomicU64::new(0)),
        }
    }

    /// Takes the buffered messages, leaving a returned batch (or, while
    /// none has come back yet, a fresh one of `flush_max` capacity) in
    /// their place.
    fn take(&self, b: &mut Batches) -> Vec<CheckMsg> {
        let next = b
            .spare
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.flush_max));
        std::mem::replace(&mut b.buf, next)
    }

    /// Queues one message. A full buffer flushes the batch to the
    /// channel; the flush blocks while the channel is at capacity (the
    /// backpressure bound). Messages buffered below the threshold ride
    /// with the next flush or barrier — the checker lags the execution
    /// frontier by design, and [`Verdict::wait`]/[`Checker::barrier`]
    /// are the sync points. A flush after the checker thread died
    /// (shutdown race) is dropped silently.
    pub(crate) fn send(&self, msg: CheckMsg) {
        let batch = {
            let mut b = self.batches.lock().unwrap_or_else(|e| e.into_inner());
            b.buf.push(msg);
            if b.buf.len() < self.flush_max {
                return;
            }
            self.take(&mut b)
        };
        let n = batch.len() as u64;
        if self.tx.send(batch).is_ok() {
            self.sent.fetch_add(n, Ordering::Release);
        }
    }

    pub(crate) fn note_applied(&self) {
        self.applied.fetch_add(1, Ordering::Release);
    }

    /// (sent, applied) message counts: the execution frontier vs the
    /// check frontier.
    pub(crate) fn frontier(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Acquire),
            self.applied.load(Ordering::Acquire),
        )
    }

    /// Posts a barrier and blocks until the checker signals it. The
    /// barrier rides in the same batch as any buffered messages, so
    /// everything emitted before it is applied before the gate opens.
    pub(crate) fn barrier(&self) {
        let gate: BarrierGate = Arc::new((StdMutex::new(false), Condvar::new()));
        let mut batch = {
            let mut b = self.batches.lock().unwrap_or_else(|e| e.into_inner());
            self.take(&mut b)
        };
        batch.push(CheckMsg::Barrier(gate.clone()));
        let n = batch.len() as u64;
        if self.tx.send(batch).is_err() {
            // Checker already gone (oracle being torn down): every earlier
            // message has either been applied or discarded; nothing to
            // wait for.
            return;
        }
        self.sent.fetch_add(n, Ordering::Release);
        let (lock, cvar) = &*gate;
        let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = cvar.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The checker thread's main loop: drain the channel, applying messages
/// in arrival order, and hand every drained batch back on `spare` for the
/// mutator to refill (a full return queue drops it instead). Holds only a
/// `Weak` oracle so the pipeline cannot keep the oracle alive; once the
/// last strong reference drops, the sender disconnects and the loop
/// exits.
pub(crate) fn checker_loop(
    oracle: Weak<Oracle>,
    rx: Receiver<Vec<CheckMsg>>,
    spare: SyncSender<Vec<CheckMsg>>,
) {
    while let Ok(mut batch) = rx.recv() {
        let Some(o) = oracle.upgrade() else { break };
        loop {
            for msg in batch.drain(..) {
                o.apply_counted(msg);
            }
            let _ = spare.try_send(batch);
            // Drain whatever queued while we worked before re-upgrading.
            match rx.try_recv() {
                Ok(next) => batch = next,
                Err(_) => break,
            }
        }
    }
}

/// A handle over a running oracle's checking machinery: explicit
/// synchronisation and the distance between the two frontiers. Obtain
/// via `Oracle::checker`.
#[derive(Clone)]
pub struct Checker {
    oracle: Arc<Oracle>,
}

impl Checker {
    pub(crate) fn new(oracle: Arc<Oracle>) -> Checker {
        Checker { oracle }
    }

    /// Blocks until every event emitted so far has been checked. A no-op
    /// in [`CheckMode::Inline`] (there is never a lag).
    pub fn barrier(&self) {
        self.oracle.barrier();
    }

    /// (emitted, checked) message counts — the distance between the
    /// execution frontier and the check frontier. `(0, 0)` in inline
    /// mode, where the two frontiers coincide by construction.
    pub fn frontier(&self) -> (u64, u64) {
        self.oracle.frontier()
    }

    /// Messages currently queued between the two frontiers.
    pub fn in_flight(&self) -> u64 {
        let (sent, applied) = self.frontier();
        sent.saturating_sub(applied)
    }
}

/// A plain-value snapshot of the oracle's counters, taken at one instant
/// — the one way to read them. A snapshot through [`Verdict::stats`]
/// (after [`Verdict::wait`]) is coherent in both check modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// Traps whose spec was computed and checked.
    pub traps_checked: u64,
    /// Traps skipped under the loose specification.
    pub traps_unchecked: u64,
    /// Component abstractions computed (lock events).
    pub abstractions: u64,
    /// Individual `READ_ONCE` values recorded.
    pub read_onces: u64,
    /// Per-component checks skipped as interleaved.
    pub interleaved_skips: u64,
    /// Oracle-internal panics contained.
    pub contained_panics: u64,
    /// Hook events skipped under quarantine.
    pub quarantined_skips: u64,
    /// Quarantined components recovered.
    pub quarantine_recoveries: u64,
    /// Violation reports dropped at the bounded log.
    pub violations_dropped: u64,
    /// Traps skipped because the per-trap budget ran out.
    pub degraded_traps: u64,
    /// Lock events degraded to evictions under budget pressure.
    pub budget_degraded_events: u64,
}

impl StatsSnapshot {
    /// `true` when any degradation or containment machinery fired: the
    /// oracle absorbed trouble without crashing. Chaos sweeps use it to
    /// tell *degraded but safe* from *saw nothing*.
    pub fn degraded(&self) -> bool {
        self.contained_panics
            + self.quarantined_skips
            + self.quarantine_recoveries
            + self.violations_dropped
            + self.degraded_traps
            + self.budget_degraded_events
            > 0
    }
}

/// The result handle of a checked run. Wraps the oracle; [`Verdict::wait`]
/// synchronises with the checker (pipelined mode's only mandatory sync
/// point), after which the accessors serve the settled verdict.
#[derive(Clone)]
pub struct Verdict {
    oracle: Arc<Oracle>,
}

impl Verdict {
    pub(crate) fn new(oracle: Arc<Oracle>) -> Verdict {
        Verdict { oracle }
    }

    /// Blocks until every event emitted so far has been checked, then
    /// returns `self` for chaining. Call once at the end of a run (or
    /// test case) before reading the verdict.
    pub fn wait(&self) -> &Verdict {
        self.oracle.barrier();
        self
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.oracle.violations()
    }

    /// Number of violations recorded so far (one relaxed atomic load).
    pub fn violation_count(&self) -> u64 {
        self.oracle.violation_count()
    }

    /// `true` when no violations have been recorded.
    pub fn all_clear(&self) -> bool {
        self.violation_count() == 0
    }

    /// A snapshot of the oracle's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.oracle.stats_snapshot()
    }

    /// The most recent checked traps (bounded; newest last).
    pub fn trace(&self) -> Vec<TrapRecord> {
        self.oracle.trace()
    }

    /// The underlying oracle, for accessors the handle does not mirror.
    pub fn oracle(&self) -> &Arc<Oracle> {
        &self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_defaults_to_inline() {
        assert_eq!(CheckMode::default(), CheckMode::Inline);
        assert!(!CheckMode::Inline.is_pipelined());
        assert!(CheckMode::pipelined().is_pipelined());
    }

    #[test]
    fn a_check_message_stays_small() {
        // Pipelined, every message is written on the mutator's core and
        // read on the checker's, so its size is what handing one event
        // over costs in cache-line traffic. Trap messages that carried the
        // register file two or three times made every message 1,104 bytes.
        let size = std::mem::size_of::<CheckMsg>();
        assert!(size <= 304, "a CheckMsg takes {size} bytes");
    }

    #[test]
    fn stats_snapshot_degraded_ignores_interleaving() {
        assert!(!StatsSnapshot::default().degraded());
        let interleaved = StatsSnapshot {
            interleaved_skips: 5,
            ..Default::default()
        };
        assert!(!interleaved.degraded());
        let contained = StatsSnapshot {
            contained_panics: 1,
            ..Default::default()
        };
        assert!(contained.degraded());
    }
}
