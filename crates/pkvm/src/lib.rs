//! A pKVM-style protected hypervisor: the system under test.
//!
//! This crate re-implements, in implementation style, the slice of pKVM
//! that the paper's executable specification covers: a pure isolation
//! kernel that manages stage 2 translations for the host and for guest
//! VMs, and a single-stage translation for itself, enforcing a partition
//! of physical memory into single-owner (possibly shared) regions.
//!
//! Module map (names follow the pKVM sources where they exist):
//!
//! - [`error`] — kernel-style error codes;
//! - [`owner`] — logical page ownership and sharing state, encoded in
//!   descriptor software bits and invalid-descriptor annotations;
//! - [`pool`] — the `hyp_pool` buddy allocator over the EL2 carveout;
//! - [`memcache`] — per-vCPU page caches donated by the host;
//! - [`pgtable`] — the generic higher-order page-table walker
//!   (`kvm_pgtable`) with map/annotate/destroy visitors;
//! - [`mm`] — the hypervisor's own VA layout (linear map + private range);
//! - [`mem_protect`] — share/unshare/donate transitions, lazy host
//!   mapping-on-demand, reclaim (`mem_protect.c`);
//! - [`vm`] — VM/vCPU metadata and the VM table;
//! - [`state`] — the lock-per-component shared state and instrumented
//!   lock helpers;
//! - [`machine`], [`handlers`] — the simulated machine, `handle_trap`,
//!   and the hypercall handlers;
//! - [`hypercalls`] — the hypercall ABI;
//! - [`hooks`] — the ghost instrumentation points (implemented by
//!   `pkvm-ghost`; no-ops by default);
//! - [`faults`] — re-introducible real and synthetic bugs;
//! - [`cov`] — the custom coverage counters.

#![forbid(unsafe_code)]

pub mod cov;
pub mod error;
pub mod faults;
pub mod handlers;
pub mod hooks;
pub mod hypercalls;
pub mod machine;
pub mod mem_protect;
pub mod memcache;
pub mod mm;
pub mod owner;
pub mod pgtable;
pub mod pool;
pub mod state;
pub mod vm;

pub use error::{Errno, HypResult};
pub use faults::{Fault, FaultSet};
pub use hooks::{Component, ComponentView, GhostHooks, HookCtx, NoHooks, VcpuView, VmView};
pub use machine::{CpuState, HostAccessFault, Machine, MachineConfig};
pub use owner::{OwnerId, PageState};
pub use state::{HypCtx, HypState};
pub use vm::{GuestOp, Handle, Vcpu, Vm, VmTable};
