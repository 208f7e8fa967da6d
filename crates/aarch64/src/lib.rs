//! Simulated Arm-A VMSAv8-64 substrate for the pKVM test-oracle reproduction.
//!
//! The paper's oracle specifies a hypervisor whose observable behaviour is
//! *the extensional meaning of in-memory Arm translation tables* — what the
//! implicit hardware walks of the host, guests, and pKVM itself would see.
//! This crate provides that architectural layer in simulation:
//!
//! - [`addr`] — address-space newtypes ([`PhysAddr`], [`Ipa`], [`VirtAddr`])
//!   and 4 KiB-granule level arithmetic;
//! - [`attrs`] — decoded leaf attributes (permissions, memory type,
//!   software bits) for stage 1 and stage 2;
//! - [`desc`] — the raw 64-bit descriptor encoding ([`Pte`], [`EntryKind`]);
//! - [`memory`] — sparse simulated physical memory ([`PhysMem`]) holding
//!   translation tables in the real bit format;
//! - [`mod@walk`] — the hardware translation-table walk ([`walk()`],
//!   [`translate()`]);
//! - [`esr`] — exception syndromes ([`Esr`]) for hypercalls and aborts;
//! - [`sysreg`] — the translation-relevant system registers
//!   ([`SysRegs`], [`Vttbr`]) and the general-purpose register file.
//!
//! Everything downstream (the `pkvm-hyp` hypervisor and the `pkvm-ghost`
//! oracle) reads and writes page tables only through these types, so the
//! implementation and the specification meet at the same architectural
//! interface as in the paper.

#![forbid(unsafe_code)]

pub mod addr;
pub mod attrs;
pub mod desc;
pub mod esr;
pub mod memory;
pub mod sync;
pub mod sysreg;
pub mod tlb;
pub mod walk;

pub use addr::{Ipa, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use attrs::{Attrs, MemType, Perms, Stage};
pub use desc::{EntryKind, Pte};
pub use esr::{Esr, ExceptionClass};
pub use memory::{BusError, MemRegion, PhysMem, RegionKind};
pub use sysreg::{GprFile, SysRegs, Vttbr};
pub use tlb::{RemoteDelivery, TlbInvalidationPolicy, TlbSet, TlbiScope, VMID_HOST, VMID_HYP};
pub use walk::{translate, translate_two_stage, walk, Access, Fault, Translation};
