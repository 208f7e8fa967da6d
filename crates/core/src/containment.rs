//! Panic containment and component quarantine for the oracle.
//!
//! A runtime oracle embedded in a production hypervisor can never be
//! allowed to take down the system it monitors. This module gives the
//! oracle a blast shield: every abstraction/spec/check step runs under
//! [`contain`], which converts a panic into an error string the caller
//! turns into `Violation::OracleInternal`; a [`Quarantine`] tracks
//! components whose processing fails repeatedly and benches them for a
//! fixed number of traps, after which the caller re-seeds them from a
//! full abstraction pass and resumes checking.
//!
//! Ghost states appear here only as the [`Part`]s that key the records —
//! it is deliberately a small, self-contained mechanism so the policy
//! (what to skip, how to recover) stays readable in `oracle.rs`.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

use pkvm_aarch64::sync::Mutex;

use crate::state::Part;

thread_local! {
    // Depth of nested `contain` calls on this thread. While positive, the
    // process-global panic hook stays silent: a contained panic is a
    // *report*, not an event worth a stderr backtrace per occurrence.
    static CONTAIN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr noise for panics that are about to be contained, and delegates
/// to the previous hook for everything else.
pub fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAIN_DEPTH.with(|d| d.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Renders a panic payload (from `catch_unwind`) into a `String`.
pub fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panics contained: `Err(payload)` instead of unwinding.
///
/// The closure is wrapped in `AssertUnwindSafe` deliberately: the oracle's
/// shared structures live behind panic-tolerant locks
/// (`pkvm_aarch64::sync` ignores poisoning), and a component whose
/// processing panicked mid-update is exactly what the quarantine/re-seed
/// machinery exists to repair.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    CONTAIN_DEPTH.with(|d| d.set(d.get() + 1));
    let out = catch_unwind(AssertUnwindSafe(f));
    CONTAIN_DEPTH.with(|d| d.set(d.get() - 1));
    out.map_err(payload_to_string)
}

/// What one quarantine record is kept for. Its [`Display`](fmt::Display)
/// form is the `component` an [`OracleInternal`] report names: the part's
/// name (`host`, `vm[4096]`), `spec:<trap>` (`spec:host_share_hyp`), or the
/// hook's name (`trap_enter`, `checker`).
///
/// [`OracleInternal`]: crate::check::Violation::OracleInternal
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuarantineKey {
    /// One component's abstraction and checks, shared by the lock hooks'
    /// front half and the checker's back half.
    Part(Part),
    /// The spec step of the trap of this name.
    Spec(&'static str),
    /// Any other oracle step, by the hook that runs it (`trap_enter`,
    /// `trap_exit`, `read_once`, `tlbi`, ...), or `checker` for a report
    /// a hook hands on.
    Hook(&'static str),
}

impl fmt::Display for QuarantineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineKey::Part(part) => part.fmt(f),
            QuarantineKey::Spec(trap) => write!(f, "spec:{trap}"),
            QuarantineKey::Hook(hook) => f.write_str(hook),
        }
    }
}

/// Per-key failure accounting with time-boxed quarantine.
///
/// Time is measured in traps: the oracle's back half ticks the clock once
/// per trap entry it applies, and it alone reads and writes the records,
/// in message order. Until the first failure, every key is healthy and
/// the lookups it makes for every event return without the lock.
#[derive(Debug)]
pub struct Quarantine {
    /// Consecutive failures before a key is quarantined.
    threshold: u32,
    /// How many trap ticks a quarantined key sits out.
    duration: u64,
    /// The trap clock.
    tick: AtomicU64,
    /// Some failure was ever recorded (`inner` is empty until then). Set
    /// with `Release` under the lock and read with `Acquire`; a lookup
    /// that sees it set takes the lock, which orders the record itself.
    failed: AtomicBool,
    inner: Mutex<HashMap<QuarantineKey, Health>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Health {
    consecutive_failures: u32,
    quarantined_until: Option<u64>,
}

/// What the oracle should do with a key right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Healthy (or still accumulating failures): process normally.
    Process,
    /// Benched: skip all processing for this key.
    Skip,
    /// Quarantine just expired: re-seed from a full pass, then process.
    Recover,
}

impl Quarantine {
    /// A quarantine that benches a key after `threshold` consecutive
    /// failures for `duration` trap ticks.
    pub fn new(threshold: u32, duration: u64) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            duration: duration.max(1),
            tick: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Advances the trap clock (call once per trap entry).
    pub fn tick(&self) {
        self.tick.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up the key's disposition, transitioning `Skip -> Recover`
    /// exactly once when its quarantine expires.
    pub fn disposition(&self, key: QuarantineKey) -> Disposition {
        if !self.failed.load(Ordering::Acquire) {
            return Disposition::Process;
        }
        let now = self.tick.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let Some(h) = inner.get_mut(&key) else {
            return Disposition::Process;
        };
        match h.quarantined_until {
            Some(until) if now < until => Disposition::Skip,
            Some(_) => {
                // Served its time: one caller gets the Recover signal and
                // the slate is wiped clean.
                *h = Health::default();
                Disposition::Recover
            }
            None => Disposition::Process,
        }
    }

    /// Records a contained failure for `key`. Returns `true` when this
    /// failure pushed the key over the threshold into quarantine.
    pub fn record_failure(&self, key: QuarantineKey) -> bool {
        let now = self.tick.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        self.failed.store(true, Ordering::Release);
        let h = inner.entry(key).or_default();
        if h.quarantined_until.is_some() {
            return false;
        }
        h.consecutive_failures += 1;
        if h.consecutive_failures >= self.threshold {
            h.quarantined_until = Some(now + self.duration);
            true
        } else {
            false
        }
    }

    /// Records a successful pass for `key`, resetting its failure streak.
    pub fn record_success(&self, key: QuarantineKey) {
        if !self.failed.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(h) = inner.get_mut(&key) {
            if h.quarantined_until.is_none() {
                h.consecutive_failures = 0;
            }
        }
    }

    /// Number of keys currently benched.
    pub fn active(&self) -> usize {
        let now = self.tick.load(Ordering::Relaxed);
        self.inner
            .lock()
            .values()
            .filter(|h| h.quarantined_until.is_some_and(|u| now < u))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: QuarantineKey = QuarantineKey::Part(Part::Host);
    const VM1: QuarantineKey = QuarantineKey::Part(Part::Vm(1));
    const PKVM: QuarantineKey = QuarantineKey::Part(Part::Pkvm);

    #[test]
    fn contain_passes_values_and_catches_panics() {
        assert_eq!(contain(|| 7), Ok(7));
        let err = contain(|| -> u32 { panic!("boom {}", 3) }).unwrap_err();
        assert_eq!(err, "boom 3");
        let err = contain(|| -> u32 { panic!("static") }).unwrap_err();
        assert_eq!(err, "static");
    }

    #[test]
    fn quarantine_benches_after_threshold_and_recovers() {
        let q = Quarantine::new(2, 3);
        assert_eq!(q.disposition(HOST), Disposition::Process);
        assert!(!q.record_failure(HOST));
        assert_eq!(q.disposition(HOST), Disposition::Process);
        assert!(q.record_failure(HOST), "second failure quarantines");
        assert_eq!(q.disposition(HOST), Disposition::Skip);
        assert_eq!(q.active(), 1);
        q.tick();
        q.tick();
        assert_eq!(q.disposition(HOST), Disposition::Skip);
        q.tick();
        assert_eq!(q.disposition(HOST), Disposition::Recover);
        // Recover is delivered once; afterwards the key is healthy again.
        assert_eq!(q.disposition(HOST), Disposition::Process);
        assert_eq!(q.active(), 0);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let q = Quarantine::new(2, 4);
        assert!(!q.record_failure(VM1));
        q.record_success(VM1);
        assert!(!q.record_failure(VM1), "streak was reset");
        assert!(q.record_failure(VM1));
    }

    #[test]
    fn failures_while_quarantined_do_not_extend_the_bench() {
        let q = Quarantine::new(1, 2);
        assert!(q.record_failure(PKVM));
        assert!(!q.record_failure(PKVM));
        q.tick();
        q.tick();
        assert_eq!(q.disposition(PKVM), Disposition::Recover);
    }

    #[test]
    fn keys_render_as_the_names_reports_carry() {
        let names: Vec<String> = [
            QuarantineKey::Part(Part::Vm(4096)),
            QuarantineKey::Spec("host_share_hyp"),
            QuarantineKey::Hook("trap_enter"),
            QuarantineKey::Hook("checker"),
            HOST,
        ]
        .iter()
        .map(QuarantineKey::to_string)
        .collect();
        assert_eq!(
            names,
            [
                "vm[4096]",
                "spec:host_share_hyp",
                "trap_enter",
                "checker",
                "host"
            ]
        );
    }

    #[test]
    fn lookups_skip_the_lock_until_a_failure_is_recorded() {
        use std::sync::mpsc;
        use std::sync::Arc;
        use std::time::Duration;
        let q = Arc::new(Quarantine::new(1, 1));
        // Another thread's lookups complete while the lock is held here.
        let held = q.inner.lock();
        let (tx, rx) = mpsc::channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.record_success(HOST);
                tx.send(q.disposition(HOST)).unwrap();
            })
        };
        let got = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        worker.join().unwrap();
        assert_eq!(got, Ok(Disposition::Process));
        // After a failure they take the lock and see the record.
        q.record_failure(HOST);
        assert_eq!(q.disposition(HOST), Disposition::Skip);
    }
}
