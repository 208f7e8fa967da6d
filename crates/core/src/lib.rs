//! Reified ghost state and executable test-oracle specification of the
//! pKVM-style hypervisor in `pkvm-hyp` — the paper's primary contribution.
//!
//! The approach (§1): specify the desired behaviour in a form usable as a
//! *test oracle*, and check correspondence between specification and
//! implementation at runtime. Concretely:
//!
//! - [`maplet`] / [`mapping`] — finite range maps of maximally coalesced
//!   maplets: the mathematical meaning of a page table;
//! - [`state`] — the partial ghost state, structured after the
//!   implementation's lock/ownership discipline;
//! - [`abstraction`] — computable abstraction functions interpreting
//!   concrete Arm-format tables (and VM metadata) into ghost state, with
//!   legality checking of the loosely-specified host mapping-on-demand
//!   region;
//! - [`calldata`] — recorded nondeterminism: implementation return codes
//!   and `READ_ONCE` values from host/guest-writable memory;
//! - [`spec`] — one pure specification function per exception handler,
//!   computing the expected post ghost state (Fig. 5);
//! - [`check`] — the ternary pre/recorded-post/computed-post comparison;
//! - [`diff`] — human-readable ghost-state diffs;
//! - [`oracle`] — the runtime recorder implementing the hypervisor's
//!   instrumentation hooks, with the non-interference invariant check
//!   (§4.4);
//! - `trackers` — the back-half checks over recorded events: footprint
//!   separation (§4.4), break-before-make, transfer protocol, firmware
//!   protection.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pkvm_ghost::prelude::*;
//! use pkvm_hyp::machine::{Machine, MachineConfig};
//! use pkvm_hyp::faults::FaultSet;
//! use pkvm_hyp::hypercalls::HVC_HOST_SHARE_HYP;
//!
//! let config = MachineConfig::default();
//! let oracle = Oracle::new(&config, OracleOpts::default());
//! let machine = Machine::boot(config, oracle.clone(), Arc::new(FaultSet::none()));
//! assert!(oracle.check_boot());
//! let ret = machine.hvc(0, HVC_HOST_SHARE_HYP, &[0x40100]);
//! assert_eq!(ret, 0);
//! assert!(oracle.is_clean(), "{:#?}", oracle.violations());
//! ```

#![forbid(unsafe_code)]

pub mod abscache;
pub mod abstraction;
pub mod calldata;
pub mod check;
pub mod checker;
pub mod containment;
pub mod diff;
pub mod event;
pub mod maplet;
pub mod mapping;
pub mod oracle;
pub mod prelude;
pub mod print;
pub mod spec;
pub mod state;
mod trackers;

pub use abscache::{AbsCache, CacheStats};
pub use abstraction::{
    abstract_host, abstract_host_from_interp, abstract_hyp, abstract_vm, abstract_vm_with_pgt,
    interpret_pgtable, Anomaly,
};
pub use calldata::GhostCallData;
pub use check::{check_trap, normalize, CheckOutcome, Violation};
pub use checker::{CheckMode, Checker, StatsSnapshot, Verdict};
pub use containment::{contain, Disposition, Quarantine, QuarantineKey};
pub use diff::diff_states;
pub use event::{
    canonical_signature, novelty_signature, ChaosKind, Event, EventCursor, EventRecord,
    EventStream, ShapeHasher, TraceStats, DERIVED_SEQ_BASE, TRACE_CAP,
};
pub use maplet::{AbsAttrs, Maplet, MapletTarget};
pub use mapping::Mapping;
pub use oracle::{Oracle, OracleOpts, TrapOutcome, TrapRecord};
pub use print::render_state;
pub use spec::{compute_post, SpecVerdict};
pub use state::{
    AbstractPgtable, GhostCpu, GhostGlobals, GhostHost, GhostLoadedVcpu, GhostPkvm, GhostState,
    GhostVcpu, GhostVm, Part,
};
