//! Reified specification functions (§4).
//!
//! One computable function per exception handler, from the recorded
//! *pre* ghost state (plus the call data resolving nondeterminism, §4.3)
//! to the expected *post* ghost state. The functions are pure in the
//! paper's sense: they read only their ghost arguments, never the
//! implementation state, and they only *write* the components the handler
//! is allowed to change — everything else stays absent, so the ternary
//! check (§4.2.2) verifies it was left untouched.
//!
//! The module split follows the handler families:
//! [`memory`] (share/unshare/reclaim/top-up/map-guest),
//! [`vm_lifecycle`] (init_vm/init_vcpu/teardown),
//! [`vcpu`] (load/put/run), and [`host_abort`] (the loosely-specified
//! mapping-on-demand).

pub mod firmware;
pub mod host_abort;
pub mod memory;
pub mod vcpu;
pub mod vm_lifecycle;

use std::sync::atomic::AtomicU64;

use pkvm_aarch64::attrs::{MemType, Perms};
use pkvm_aarch64::esr::ExceptionClass;
use pkvm_hyp::cov::Points;
use pkvm_hyp::error::Errno;
use pkvm_hyp::hypercalls as hc;
use pkvm_hyp::owner::PageState;

use crate::calldata::GhostCallData;
use crate::maplet::AbsAttrs;
use crate::state::{GhostHost, GhostState};

/// The index of a specification coverage point in [`SPEC_COV_POINTS`],
/// named by a literal and resolved at compile time: an undeclared name
/// fails to build.
macro_rules! spec_point {
    ($point:literal) => {
        const { pkvm_hyp::cov::index_of($crate::spec::SPEC_COV_POINTS, $point) }
    };
}

/// Records a specification coverage point (the spec-side half of the
/// paper's custom coverage infrastructure, reported by `pkvm-harness`),
/// named by a literal declared in [`SPEC_COV_POINTS`].
macro_rules! spec_hit {
    ($point:literal) => {
        $crate::spec::SPEC_COV.hit($crate::spec::spec_point!($point))
    };
}

pub(crate) use {spec_hit, spec_point};

/// Every coverage point the specification functions can hit; one per
/// distinct return path (success, each error, each loose/`Unchecked`
/// case). The spec-coverage percentages of the evaluation are computed
/// over this list.
pub const SPEC_COV_POINTS: &[&str] = &[
    "spec/host_abort",
    "spec/host_map_guest/einval",
    "spec/host_map_guest/enoent",
    "spec/host_map_guest/eperm",
    "spec/host_map_guest/ok",
    "spec/host_map_guest/param",
    "spec/host_map_guest/unchecked",
    "spec/host_map_guest/unchecked2",
    "spec/host_reclaim_page/eperm",
    "spec/host_reclaim_page/impossible",
    "spec/host_reclaim_page/ok",
    "spec/host_reclaim_page/unchecked",
    "spec/host_reclaim_page/unchecked2",
    "spec/host_share_hyp/impossible",
    "spec/host_share_hyp/ok",
    "spec/host_share_hyp/ok2",
    "spec/host_share_hyp/unchecked",
    "spec/host_unshare_hyp/eperm",
    "spec/host_unshare_hyp/ok",
    "spec/host_unshare_hyp/unchecked",
    "spec/init_vcpu/eexist",
    "spec/init_vcpu/einval",
    "spec/init_vcpu/enoent",
    "spec/init_vcpu/eperm",
    "spec/init_vcpu/ok",
    "spec/init_vcpu/unchecked",
    "spec/init_vcpu/unchecked2",
    "spec/init_vm/einval",
    "spec/init_vm/einval2",
    "spec/init_vm/eperm",
    "spec/init_vm/ok",
    "spec/init_vm/unchecked",
    "spec/init_vm/unchecked2",
    "spec/init_vm/unchecked3",
    "spec/smc",
    "spec/transfer/donate_host",
    "spec/transfer/donate_hyp",
    "spec/transfer/firmware",
    "spec/transfer/guest_share_host",
    "spec/transfer/guest_unshare_host",
    "spec/transfer/map_guest_owned",
    "spec/transfer/map_guest_shared",
    "spec/transfer/reclaim",
    "spec/transfer/share_hyp",
    "spec/transfer/unshare_hyp",
    "spec/teardown_vm/ebusy",
    "spec/teardown_vm/enoent",
    "spec/teardown_vm/ok",
    "spec/teardown_vm/unchecked",
    "spec/teardown_vm/unchecked2",
    "spec/topup_memcache/eperm",
    "spec/topup_memcache/impossible",
    "spec/topup_memcache/ok",
    "spec/topup_memcache/ok2",
    "spec/topup_memcache/unchecked",
    "spec/unknown_hvc",
    "spec/vcpu_load/ebusy",
    "spec/vcpu_load/ebusy2",
    "spec/vcpu_load/einval",
    "spec/vcpu_load/enoent",
    "spec/vcpu_load/enoent2",
    "spec/vcpu_load/ok",
    "spec/vcpu_load/unchecked",
    "spec/vcpu_get_reg/enoent",
    "spec/vcpu_get_reg/einval",
    "spec/vcpu_get_reg/ok",
    "spec/vcpu_set_reg/enoent",
    "spec/vcpu_set_reg/einval",
    "spec/vcpu_set_reg/ok",
    "spec/vcpu_put/enoent",
    "spec/vcpu_put/ok",
    "spec/vcpu_run/enoent",
    "spec/vcpu_run/exit_continue",
    "spec/vcpu_run/exit_guest_hvc",
    "spec/vcpu_run/exit_mem_abort",
    "spec/vcpu_run/exit_wfi",
    "spec/vcpu_run/unchecked",
    "spec/vcpu_run/unchecked2",
    "spec/vcpu_run/unchecked3",
    "spec/vcpu_run/unchecked4",
    "spec/vcpu_run/unchecked5",
    "spec/vm_load_firmware/ebusy",
    "spec/vm_load_firmware/einval",
    "spec/vm_load_firmware/enoent",
    "spec/vm_load_firmware/eperm",
    "spec/vm_load_firmware/eperm2",
    "spec/vm_load_firmware/ok",
    "spec/vm_load_firmware/unchecked",
    "spec/vm_load_firmware/unchecked2",
];

/// The specification's coverage counters, one per [`SPEC_COV_POINTS`]
/// entry.
pub static SPEC_COV: Points = Points::new(SPEC_COV_POINTS, &SPEC_HITS);

static SPEC_HITS: [AtomicU64; SPEC_COV_POINTS.len()] =
    [const { AtomicU64::new(0) }; SPEC_COV_POINTS.len()];

/// The result of running a specification function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecVerdict {
    /// A valid expected post-state was written; check it.
    Checked,
    /// The specification is deliberately loose here (e.g. the
    /// implementation reported `-ENOMEM`, which the spec permits almost
    /// anywhere): skip the check. This is the `false` return of Fig. 5,
    /// enabling gradual specification.
    Unchecked(&'static str),
    /// The specification itself found the recorded pre-state/call
    /// combination impossible for a correct hypervisor (e.g. a linear-map
    /// address collision): report a violation outright.
    Impossible(String),
}

/// `-ENOMEM` as the register return value.
pub(crate) const ENOMEM_RET: u64 = Errno::ENOMEM.to_ret();

/// Returns `true` when the implementation reported an out-of-memory
/// failure, which the loose specification accepts without further checking.
pub(crate) fn impl_reported_enomem(call: &GhostCallData) -> bool {
    call.ret() == ENOMEM_RET
}

/// Abstract attributes the host's stage 2 carries for a page of `state`.
pub(crate) fn abs_host_attrs(is_memory: bool, state: PageState) -> AbsAttrs {
    if is_memory {
        AbsAttrs {
            perms: Perms::RWX,
            memtype: MemType::Normal,
            state: Some(state),
        }
    } else {
        AbsAttrs {
            perms: Perms::RW,
            memtype: MemType::Device,
            state: Some(state),
        }
    }
}

/// Abstract attributes of a pKVM stage 1 mapping (`RW- M` in the diff
/// notation of §4.2.2).
pub(crate) fn abs_hyp_attrs(is_memory: bool, state: PageState) -> AbsAttrs {
    AbsAttrs {
        perms: Perms::RW,
        memtype: if is_memory {
            MemType::Normal
        } else {
            MemType::Device
        },
        state: Some(state),
    }
}

/// Abstract attributes of a guest stage 2 mapping.
pub(crate) fn abs_guest_attrs(state: PageState) -> AbsAttrs {
    AbsAttrs {
        perms: Perms::RWX,
        memtype: MemType::Normal,
        state: Some(state),
    }
}

/// The host-exclusive-ownership precondition of Fig. 5 step (2): the page
/// is real memory, not annotated away, and not in the shared map.
pub(crate) fn is_owned_exclusively_by_host(host: &GhostHost, st: &GhostState, phys: u64) -> bool {
    st.globals.is_ram(phys)
        && host.annot.lookup(phys).is_none()
        && host.shared.lookup(phys).is_none()
}

/// Writes the SMCCC return epilogue into the computed post-state: the
/// local component is copied from the pre-state, then `x0 = 0`, `x1 =
/// ret`, and the remaining argument registers are scrubbed (or carry
/// vcpu_run's exit details) — exactly the register delta visible in the
/// paper's example diff.
pub(crate) fn epilogue_host_call(
    pre: &GhostState,
    call: &GhostCallData,
    post: &mut GhostState,
    ret: u64,
    x2: u64,
    x3: u64,
) {
    post.copy_local_from(pre, call.cpu);
    let l = post.locals.entry(call.cpu).or_default();
    l.regs.set(0, 0);
    l.regs.set(1, ret);
    l.regs.set(2, x2);
    l.regs.set(3, x3);
}

/// Specification of an unknown hypercall: `-EOPNOTSUPP`, no state change.
fn unknown_hvc(pre: &GhostState, call: &GhostCallData, post: &mut GhostState) -> SpecVerdict {
    spec_hit!("spec/unknown_hvc");
    epilogue_host_call(pre, call, post, Errno::EOPNOTSUPP.to_ret(), 0, 0);
    SpecVerdict::Checked
}

/// The top-level specification function: dispatches on the trap's
/// exception class and hypercall id, mirroring the implementation's
/// `handle_trap` (§4.2.1).
pub fn compute_post(pre: &GhostState, call: &GhostCallData, post: &mut GhostState) -> SpecVerdict {
    match call.esr.ec() {
        Some(ExceptionClass::Hvc64) => {
            let func = call.regs_pre.get(0);
            match func {
                hc::HVC_HOST_SHARE_HYP => memory::host_share_hyp(pre, call, post),
                hc::HVC_HOST_UNSHARE_HYP => memory::host_unshare_hyp(pre, call, post),
                hc::HVC_HOST_RECLAIM_PAGE => memory::host_reclaim_page(pre, call, post),
                hc::HVC_TOPUP_MEMCACHE => memory::topup_memcache(pre, call, post),
                hc::HVC_HOST_MAP_GUEST => memory::host_map_guest(pre, call, post),
                hc::HVC_INIT_VM => vm_lifecycle::init_vm(pre, call, post),
                hc::HVC_INIT_VCPU => vm_lifecycle::init_vcpu(pre, call, post),
                hc::HVC_TEARDOWN_VM => vm_lifecycle::teardown_vm(pre, call, post),
                hc::HVC_VCPU_LOAD => vcpu::vcpu_load(pre, call, post),
                hc::HVC_VCPU_PUT => vcpu::vcpu_put(pre, call, post),
                hc::HVC_VCPU_RUN => vcpu::vcpu_run(pre, call, post),
                hc::HVC_VCPU_GET_REG => vcpu::vcpu_get_reg(pre, call, post),
                hc::HVC_VCPU_SET_REG => vcpu::vcpu_set_reg(pre, call, post),
                hc::HVC_VM_LOAD_FIRMWARE => firmware::vm_load_firmware(pre, call, post),
                _ => unknown_hvc(pre, call, post),
            }
        }
        Some(ExceptionClass::DataAbortLowerEl) | Some(ExceptionClass::InstAbortLowerEl) => {
            host_abort::host_abort(pre, call, post)
        }
        Some(ExceptionClass::Smc64) => {
            spec_hit!("spec/smc");
            // Forwarded to firmware: the hypervisor state is untouched and
            // the host context returns unchanged.
            post.copy_local_from(pre, call.cpu);
            SpecVerdict::Checked
        }
        None => SpecVerdict::Unchecked("unmodelled exception class"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GhostGlobals;
    use pkvm_aarch64::esr::Esr;
    use pkvm_aarch64::sysreg::GprFile;

    #[test]
    fn unknown_hypercall_spec() {
        let globals = GhostGlobals::default();
        let mut pre = GhostState::blank(&globals);
        let mut regs = GprFile::default();
        regs.set(0, 0xc600_ffff);
        pre.locals.entry(0).or_default().regs = regs;
        let call = GhostCallData::new(0, Esr::hvc64(0), None, regs);
        let mut post = GhostState::blank(&globals);
        assert_eq!(compute_post(&pre, &call, &mut post), SpecVerdict::Checked);
        assert_eq!(post.read_gpr(0, 1), Errno::EOPNOTSUPP.to_ret());
        assert_eq!(post.read_gpr(0, 0), 0);
        assert!(post.host.is_none() && post.pkvm.is_none());
    }

    #[test]
    fn smc_spec_changes_nothing() {
        let globals = GhostGlobals::default();
        let mut pre = GhostState::blank(&globals);
        let mut regs = GprFile::default();
        regs.set(0, 0x8400_0001);
        pre.locals.entry(0).or_default().regs = regs;
        let call = GhostCallData::new(0, Esr::smc64(), None, regs);
        let mut post = GhostState::blank(&globals);
        assert_eq!(compute_post(&pre, &call, &mut post), SpecVerdict::Checked);
        assert_eq!(post.locals.get(&0), pre.locals.get(&0));
    }
}
