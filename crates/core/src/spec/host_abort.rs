//! Specification of the host stage 2 abort handler: the deliberately
//! *loose* one (§3.1).
//!
//! pKVM's mapping-on-demand may map more than the faulting page (block
//! mappings), may split blocks, and may fail transiently — so "specifying
//! exactly the implementation behaviour would be over-fitting". The ghost
//! host component was designed for exactly this: it records only the
//! deterministic sub-maps (owner annotations; shared/borrowed pages), and
//! the abstraction function *checks* that whatever else is mapped is a
//! legal identity mapping of real memory. The spec of the abort handler
//! is then simply: **the tracked host state does not change**, and the
//! host's registers are untouched.

use crate::calldata::GhostCallData;
use crate::state::GhostState;

use super::SpecVerdict;

/// Executable specification of the host stage 2 abort handler.
pub fn host_abort(
    g_pre: &GhostState,
    call: &GhostCallData,
    g_post: &mut GhostState,
) -> SpecVerdict {
    crate::spec::spec_hit!("spec/host_abort");
    // The handler may or may not have taken the host lock (a raced stage 1
    // re-walk bails out before it); where it did, the tracked abstraction
    // must be exactly preserved.
    if g_pre.host.is_some() {
        g_post.copy_host_from(g_pre);
    }
    // The handler never touches the saved host context: any mapping it
    // installed is observed only through the (checked-legal) retry.
    g_post.copy_local_from(g_pre, call.cpu);
    SpecVerdict::Checked
}
