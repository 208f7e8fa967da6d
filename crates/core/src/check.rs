//! The runtime check: comparing recorded and computed ghost states.
//!
//! After each handler, the oracle holds three (partial) states — the
//! recorded pre, the recorded post, and the spec-computed post — and
//! performs the *ternary* check of §4.2.2: wherever the computed post is
//! defined it must equal the recorded post, and everywhere else the
//! recorded post must equal the pre.

use pkvm_hyp::hooks::TransferEdge;

use crate::abstraction::Anomaly;
use crate::diff::diff_states;
use crate::state::{
    no_table_pages, AbstractPgtable, GhostCpu, GhostHost, GhostLoadedVcpu, GhostState, GhostVcpu,
    GhostVm, Part,
};

/// One detected disagreement between implementation and specification (or
/// a broken runtime invariant).
///
/// Every variant carries `seq`: the violation's position in the unified
/// event stream (see [`crate::event`]), filled in when the report enters
/// the stream, so reports can say "diverged at event #N" and a replay can
/// be compared against the original timeline position by position.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// The recorded post-state differs from the spec-computed post-state.
    SpecMismatch {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Which trap was being checked.
        trap: String,
        /// Which component disagreed.
        component: String,
        /// The incarnation id of the VM involved, if the component is a VM.
        uniq: Option<u64>,
        /// Rendered diff (computed vs recorded).
        diff: String,
    },
    /// A component the spec did not change differs between pre and post.
    UnexpectedChange {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Which trap was being checked.
        trap: String,
        /// Which component changed.
        component: String,
        /// The incarnation id of the VM involved, if the component is a VM.
        uniq: Option<u64>,
        /// Rendered diff (pre vs recorded post).
        diff: String,
    },
    /// A lock-protected component changed while no one held its lock
    /// (§4.4 invariant 1).
    NonInterference {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Which component.
        component: String,
        /// The incarnation id of the VM involved, if the component is a VM.
        uniq: Option<u64>,
        /// Rendered diff (last recorded vs now observed).
        diff: String,
    },
    /// A page was allocated into one component's page-table footprint
    /// while belonging to another's (§4.4 invariant 2).
    SeparationOverlap {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// The component allocating.
        component: String,
        /// The offending page frame.
        pfn: u64,
        /// The component already owning the page.
        owner: String,
    },
    /// The abstraction function found a malformed concrete state.
    AbstractionAnomaly {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Where it was found.
        context: String,
        /// What was found.
        anomaly: Anomaly,
    },
    /// The hypervisor panicked.
    HypPanic {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// The panic reason.
        reason: String,
    },
    /// Oracle self-check: the oracle's own bookkeeping hit a state it
    /// cannot interpret (e.g. a trap exit with no recorded call data). The
    /// run continues — one confused record must not poison a whole
    /// campaign — but the confusion itself is surfaced as a finding.
    OracleSelfCheck {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Where the oracle got confused.
        context: String,
        /// What it could not interpret.
        detail: String,
    },
    /// Oracle self-check: under shadow validation the incremental
    /// abstraction diverged from the full walk.
    ShadowDivergence {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// Which component's interpretation diverged.
        component: String,
        /// Rendered diff (full vs incremental).
        diff: String,
    },
    /// A break-before-make breach: a live mapping was removed or
    /// tightened and the trap exited without the matching-scope broadcast
    /// TLB invalidation (plus DSB). `seq` anchors on the offending
    /// table-write event (the `PteDowngrade`), not on this report.
    BreakBeforeMake {
        /// Event-stream sequence id of the offending downgrade.
        seq: Option<u64>,
        /// The trap that exited with the downgrade still unflushed.
        trap: String,
        /// VMID of the downgraded translation regime.
        vmid: u16,
        /// First input address of the downgraded range.
        ia: u64,
        /// Pages downgraded (`u64::MAX` with `ia == 0` is VMID-wide).
        nr: u64,
    },
    /// The host's stage 2 regained access to a page that was donated to a
    /// protected VM as firmware. The property spans the VM's whole
    /// lifetime — including teardown and handle reuse — so `uniq` names
    /// the incarnation the page belonged to, and `seq` anchors on the
    /// event where the host regained access.
    FirmwareProtection {
        /// Event-stream sequence id of the violating regain event.
        seq: Option<u64>,
        /// Handle of the VM the firmware was donated to.
        handle: u32,
        /// Incarnation id of that VM (survives handle reuse).
        uniq: u64,
        /// The firmware page frame the host regained.
        pfn: u64,
    },
    /// A page crossed an ownership-transfer edge its protocol state does
    /// not allow — e.g. becoming accessible to both sides mid-transfer,
    /// or an unshare that does not restore the pre-share owner. `seq`
    /// anchors on the offending transfer event.
    TransferProtocol {
        /// Event-stream sequence id of the offending transfer event.
        seq: Option<u64>,
        /// The edge that was crossed.
        edge: TransferEdge,
        /// The page frame concerned.
        pfn: u64,
        /// What the protocol state machine expected instead.
        detail: String,
    },
    /// A reclaimed guest page re-entered the host's stage 2 still holding
    /// guest data (the wipe was skipped or incomplete). `seq` anchors on
    /// the reclaim transfer event.
    ReclaimWipe {
        /// Event-stream sequence id of the dirty reclaim event.
        seq: Option<u64>,
        /// The page frame returned unwiped.
        pfn: u64,
    },
    /// An oracle-internal step (abstraction, spec, or check) panicked and
    /// the panic was contained. The system under test is *not* implicated:
    /// this is the oracle reporting on itself so a campaign can keep
    /// running instead of aborting.
    OracleInternal {
        /// Event-stream sequence id of this report.
        seq: Option<u64>,
        /// The component (or oracle step) whose processing panicked.
        component: String,
        /// The stringified panic payload.
        payload: String,
    },
}

impl Violation {
    /// Stable kind tag, usable as a grep key in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::SpecMismatch { .. } => "spec-mismatch",
            Violation::UnexpectedChange { .. } => "unexpected-change",
            Violation::NonInterference { .. } => "non-interference",
            Violation::SeparationOverlap { .. } => "separation-overlap",
            Violation::AbstractionAnomaly { .. } => "abstraction-anomaly",
            Violation::HypPanic { .. } => "hyp-panic",
            Violation::OracleSelfCheck { .. } => "oracle-self-check",
            Violation::ShadowDivergence { .. } => "shadow-divergence",
            Violation::BreakBeforeMake { .. } => "break-before-make",
            Violation::FirmwareProtection { .. } => "firmware-protection",
            Violation::TransferProtocol { .. } => "transfer-protocol",
            Violation::ReclaimWipe { .. } => "reclaim-wipe",
            Violation::OracleInternal { .. } => "oracle-internal",
        }
    }

    /// The trap being checked when the violation was found, if any.
    pub fn trap(&self) -> Option<&str> {
        match self {
            Violation::SpecMismatch { trap, .. }
            | Violation::UnexpectedChange { trap, .. }
            | Violation::BreakBeforeMake { trap, .. } => Some(trap),
            _ => None,
        }
    }

    /// The component (or context acting as one) the violation concerns.
    pub fn component(&self) -> Option<&str> {
        match self {
            Violation::SpecMismatch { component, .. }
            | Violation::UnexpectedChange { component, .. }
            | Violation::NonInterference { component, .. }
            | Violation::SeparationOverlap { component, .. }
            | Violation::ShadowDivergence { component, .. }
            | Violation::OracleInternal { component, .. } => Some(component),
            Violation::AbstractionAnomaly { context, .. }
            | Violation::OracleSelfCheck { context, .. } => Some(context),
            Violation::HypPanic { .. }
            | Violation::BreakBeforeMake { .. }
            | Violation::FirmwareProtection { .. }
            | Violation::TransferProtocol { .. }
            | Violation::ReclaimWipe { .. } => None,
        }
    }

    /// The incarnation id (`Vm::uniq`) of the VM involved, when known.
    pub fn vm_uniq(&self) -> Option<u64> {
        match self {
            Violation::SpecMismatch { uniq, .. }
            | Violation::UnexpectedChange { uniq, .. }
            | Violation::NonInterference { uniq, .. } => *uniq,
            Violation::FirmwareProtection { uniq, .. } => Some(*uniq),
            _ => None,
        }
    }

    /// Annotates the VM incarnation id on variants that carry one, leaving
    /// an already-set id alone.
    pub fn set_vm_uniq(&mut self, id: u64) {
        match self {
            Violation::SpecMismatch { uniq, .. }
            | Violation::UnexpectedChange { uniq, .. }
            | Violation::NonInterference { uniq, .. }
                if uniq.is_none() =>
            {
                *uniq = Some(id);
            }
            _ => {}
        }
    }

    /// The violation's event-stream sequence id, once reported.
    pub fn event_seq(&self) -> Option<u64> {
        match self {
            Violation::SpecMismatch { seq, .. }
            | Violation::UnexpectedChange { seq, .. }
            | Violation::NonInterference { seq, .. }
            | Violation::SeparationOverlap { seq, .. }
            | Violation::AbstractionAnomaly { seq, .. }
            | Violation::HypPanic { seq, .. }
            | Violation::OracleSelfCheck { seq, .. }
            | Violation::ShadowDivergence { seq, .. }
            | Violation::BreakBeforeMake { seq, .. }
            | Violation::FirmwareProtection { seq, .. }
            | Violation::TransferProtocol { seq, .. }
            | Violation::ReclaimWipe { seq, .. }
            | Violation::OracleInternal { seq, .. } => *seq,
        }
    }

    /// Stamps the event-stream sequence id, leaving an already-set id
    /// alone (a replayed report keeps the seq of its own timeline).
    pub fn set_event_seq(&mut self, s: u64) {
        match self {
            Violation::SpecMismatch { seq, .. }
            | Violation::UnexpectedChange { seq, .. }
            | Violation::NonInterference { seq, .. }
            | Violation::SeparationOverlap { seq, .. }
            | Violation::AbstractionAnomaly { seq, .. }
            | Violation::HypPanic { seq, .. }
            | Violation::OracleSelfCheck { seq, .. }
            | Violation::ShadowDivergence { seq, .. }
            | Violation::BreakBeforeMake { seq, .. }
            | Violation::FirmwareProtection { seq, .. }
            | Violation::TransferProtocol { seq, .. }
            | Violation::ReclaimWipe { seq, .. }
            | Violation::OracleInternal { seq, .. } => {
                if seq.is_none() {
                    *seq = Some(s);
                }
            }
        }
    }

    fn detail(&self) -> String {
        match self {
            Violation::SpecMismatch { diff, .. } => format!("spec mismatch:\n{diff}"),
            Violation::UnexpectedChange { diff, .. } => format!("unexpected change:\n{diff}"),
            Violation::NonInterference { diff, .. } => {
                format!("changed while unlocked:\n{diff}")
            }
            Violation::SeparationOverlap { pfn, owner, .. } => {
                format!("allocated table page {pfn:#x} owned by {owner}")
            }
            Violation::AbstractionAnomaly { anomaly, .. } => {
                format!("malformed concrete state: {anomaly:?}")
            }
            Violation::HypPanic { reason, .. } => format!("hypervisor panic: {reason}"),
            Violation::OracleSelfCheck { detail, .. } => {
                format!("oracle self-check failed: {detail}")
            }
            Violation::ShadowDivergence { diff, .. } => {
                format!("incremental abstraction diverged from full walk:\n{diff}")
            }
            Violation::BreakBeforeMake { vmid, ia, nr, .. } => {
                if *ia == 0 && *nr == u64::MAX {
                    format!("downgrade of vmid {vmid} (vmid-wide) exited without TLBI+DSB")
                } else {
                    format!(
                        "downgrade of vmid {vmid} ia {ia:#x} ({nr} pages) exited without \
                         covering broadcast TLBI+DSB"
                    )
                }
            }
            Violation::FirmwareProtection {
                handle, uniq, pfn, ..
            } => {
                format!(
                    "host regained firmware page {pfn:#x} donated to vm {handle:#x} \
                     (incarnation {uniq})"
                )
            }
            Violation::TransferProtocol {
                edge, pfn, detail, ..
            } => {
                format!(
                    "page {pfn:#x} illegally crossed edge {}: {detail}",
                    edge.name()
                )
            }
            Violation::ReclaimWipe { pfn, .. } => {
                format!("page {pfn:#x} reclaimed to the host still holding guest data")
            }
            Violation::OracleInternal { payload, .. } => {
                format!("contained oracle panic: {payload}")
            }
        }
    }
}

/// Every violation renders through the same header so reports are
/// greppable without per-variant knowledge: `violation kind=<kind>
/// trap=<trap|-> comp=<component|-> uniq=<Vm::uniq|-> event=<seq|-> ::
/// <detail>`. The `event=` field is the report's position in the unified
/// event stream — "diverged at event #N" — so a replay can be lined up
/// against the original timeline.
impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let uniq = self
            .vm_uniq()
            .map_or_else(|| "-".to_string(), |u| u.to_string());
        let event = self
            .event_seq()
            .map_or_else(|| "-".to_string(), |s| s.to_string());
        write!(
            f,
            "violation kind={} trap={} comp={} uniq={} event={} :: {}",
            self.kind(),
            self.trap().unwrap_or("-"),
            self.component().unwrap_or("-"),
            uniq,
            event,
            self.detail(),
        )
    }
}

/// The outcome of checking one trap.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Violations found, each with the part it concerns (empty means the
    /// trap passed).
    pub violations: Vec<(Part, Violation)>,
    /// Parts the spec defined but the handler never recorded (no lock
    /// cycle): their computed values seed the oracle's shared copy so the
    /// *next* acquisition validates them.
    pub deferred: Vec<Part>,
}

/// Normalises a ghost state for comparison: memory-management details —
/// table-node footprints and memcache contents — are erased, because the
/// specification deliberately abstracts from "allocation of internal
/// structures and reference counting" (§3.1). The raw values stay in the
/// recorded states (the separation check and the teardown spec *read*
/// them); they just do not participate in equality.
pub fn normalize(state: &GhostState) -> GhostState {
    let mut s = state.clone();
    erase_allocation(&mut s);
    s
}

/// One part of `state`, normalised (see [`normalize`]), as a state
/// holding only that part — empty if `state` lacks it. A failed
/// [`part_eq`] renders its report as the diff of two of these.
pub(crate) fn project(state: &GhostState, part: Part) -> GhostState {
    let mut s = state.only(part);
    erase_allocation(&mut s);
    s
}

/// Whether `a` and `b` hold `part` equally once allocation details are
/// erased: exactly `project(a, part) == project(b, part)`, compared in
/// place. Present on one side only is a difference; absent on both is
/// not. Every component is destructured exhaustively, so a new field is a
/// compile error here until it is compared (or, like the footprints and
/// memcaches, deliberately ignored — the fields [`erase_allocation`]
/// erases).
pub(crate) fn part_eq(a: &GhostState, b: &GhostState, part: Part) -> bool {
    match part {
        Part::Host => opt_eq(a.host.as_ref(), b.host.as_ref(), host_eq),
        Part::Pkvm => opt_eq(a.pkvm.as_ref(), b.pkvm.as_ref(), |x, y| {
            pgt_eq(&x.pgt, &y.pgt)
        }),
        Part::VmTable => a.vm_table == b.vm_table,
        Part::Vm(h) => opt_eq(a.vms.get(&h), b.vms.get(&h), vm_eq),
        Part::Locals(cpu) => opt_eq(a.locals.get(&cpu), b.locals.get(&cpu), cpu_eq),
    }
}

fn opt_eq<T>(a: Option<&T>, b: Option<&T>, eq: impl FnOnce(&T, &T) -> bool) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn pgt_eq(a: &AbstractPgtable, b: &AbstractPgtable) -> bool {
    let AbstractPgtable {
        mapping,
        table_pages: _,
    } = a;
    *mapping == b.mapping
}

fn host_eq(a: &GhostHost, b: &GhostHost) -> bool {
    let GhostHost {
        annot,
        shared,
        table_pages: _,
    } = a;
    *annot == b.annot && *shared == b.shared
}

fn vm_eq(a: &GhostVm, b: &GhostVm) -> bool {
    let GhostVm {
        handle,
        slot,
        protected,
        pgt,
        donated,
        firmware,
        vcpus,
    } = a;
    *handle == b.handle
        && *slot == b.slot
        && *protected == b.protected
        && pgt_eq(pgt, &b.pgt)
        && *donated == b.donated
        && *firmware == b.firmware
        && vcpus.len() == b.vcpus.len()
        && vcpus.iter().zip(&b.vcpus).all(|(x, y)| vcpu_eq(x, y))
}

fn vcpu_eq(a: &GhostVcpu, b: &GhostVcpu) -> bool {
    match a {
        GhostVcpu::Uninit => matches!(b, GhostVcpu::Uninit),
        GhostVcpu::Present { regs, memcache: _ } => {
            matches!(b, GhostVcpu::Present { regs: r, .. } if r == regs)
        }
        GhostVcpu::Loaded { on } => matches!(b, GhostVcpu::Loaded { on: o } if o == on),
    }
}

fn cpu_eq(a: &GhostCpu, b: &GhostCpu) -> bool {
    let GhostCpu { regs, loaded } = a;
    *regs == b.regs && opt_eq(loaded.as_ref(), b.loaded.as_ref(), loaded_eq)
}

fn loaded_eq(a: &GhostLoadedVcpu, b: &GhostLoadedVcpu) -> bool {
    let GhostLoadedVcpu {
        handle,
        idx,
        regs,
        memcache: _,
    } = a;
    *handle == b.handle && *idx == b.idx && *regs == b.regs
}

/// Erases what [`part_eq`] ignores: the table footprints and the
/// memcaches.
fn erase_allocation(s: &mut GhostState) {
    if let Some(h) = s.host.as_mut() {
        h.table_pages = no_table_pages();
    }
    if let Some(p) = s.pkvm.as_mut() {
        p.pgt.table_pages = no_table_pages();
    }
    for vm in s.vms.values_mut() {
        vm.pgt.table_pages = no_table_pages();
        for v in vm.vcpus.iter_mut() {
            if let GhostVcpu::Present { memcache, .. } = v {
                memcache.clear();
            }
        }
    }
    for l in s.locals.values_mut() {
        if let Some(lv) = l.loaded.as_mut() {
            lv.memcache.clear();
        }
    }
}

/// The ternary check for one trap: `pre` and `recorded` come from the
/// recording machinery, `computed` from the specification function.
/// Parts are visited in first-seen order over pre, recorded, computed
/// (each in [`GhostState::parts`] order), which fixes the order of the
/// reports.
pub fn check_trap(
    trap: &str,
    pre: &GhostState,
    recorded: &GhostState,
    computed: &GhostState,
) -> CheckOutcome {
    // Each part once, where it is first seen.
    let first_seen_in_recorded = recorded.parts().filter(|&p| !pre.has(p));
    let first_seen_in_computed = computed
        .parts()
        .filter(|&p| !pre.has(p) && !recorded.has(p));
    let parts = pre
        .parts()
        .chain(first_seen_in_recorded)
        .chain(first_seen_in_computed);
    let mut out = CheckOutcome::default();
    for part in parts {
        // What the recorded post must equal: the computed post where the
        // spec defined the part, else the pre.
        let (expected, spec_defined) = match (computed.has(part), recorded.has(part)) {
            (true, true) => (computed, true),
            (true, false) => {
                // The spec defined a component the handler never recorded
                // (e.g. the initial state of a freshly created VM): defer
                // it to the next acquisition's non-interference check.
                out.deferred.push(part);
                continue;
            }
            // The spec left it alone: it must not have changed. (A
            // post-only recording with no pre cannot happen through the
            // paired lock helpers; nothing to check if it does.)
            (false, true) if pre.has(part) => (pre, false),
            // Present only in pre: locked, but the spec says nothing and
            // the release recorded nothing — unreachable through the
            // paired helpers.
            _ => continue,
        };
        if part_eq(expected, recorded, part) {
            continue;
        }
        let diff = diff_states(&project(expected, part), &project(recorded, part));
        let (trap, component) = (trap.to_string(), part.to_string());
        out.violations.push((
            part,
            if spec_defined {
                Violation::SpecMismatch {
                    seq: None,
                    trap,
                    component,
                    uniq: None,
                    diff,
                }
            } else {
                Violation::UnexpectedChange {
                    seq: None,
                    trap,
                    component,
                    uniq: None,
                    diff,
                }
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maplet::{AbsAttrs, Maplet, MapletTarget};
    use crate::mapping::Mapping;
    use crate::state::{GhostGlobals, GhostPkvm, TablePages};
    use pkvm_aarch64::attrs::{MemType, Perms};
    use pkvm_aarch64::sysreg::GprFile;
    use pkvm_hyp::owner::{OwnerId, PageState};
    use std::sync::Arc;

    fn host_state(shared_pages: &[u64]) -> GhostState {
        let mut s = GhostState::blank(&GhostGlobals::default());
        let mut h = GhostHost::default();
        for &ia in shared_pages {
            h.shared.insert(Maplet {
                ia,
                nr_pages: 1,
                target: MapletTarget::Mapped {
                    oa: ia,
                    attrs: AbsAttrs {
                        perms: Perms::RWX,
                        memtype: MemType::Normal,
                        state: Some(PageState::SharedOwned),
                    },
                },
            });
        }
        s.host = Some(h);
        s
    }

    #[test]
    fn matching_states_pass() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = host_state(&[0x4000_0000]);
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn spec_mismatch_detected() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = host_state(&[0x4000_1000]);
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert!(matches!(
            &o.violations[0],
            (Part::Host, Violation::SpecMismatch { component, .. }) if component == "host"
        ));
    }

    #[test]
    fn unexpected_change_detected() {
        let pre = host_state(&[]);
        let recorded = host_state(&[0x4000_0000]);
        let computed = GhostState::blank(&GhostGlobals::default()); // spec: no change
        let o = check_trap("vcpu_put", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert!(matches!(
            &o.violations[0],
            (Part::Host, Violation::UnexpectedChange { .. })
        ));
    }

    #[test]
    fn untouched_components_pass() {
        let pre = host_state(&[0x4000_0000]);
        let recorded = pre.clone();
        let computed = GhostState::blank(&GhostGlobals::default());
        let o = check_trap("vcpu_put", &pre, &recorded, &computed);
        assert!(o.violations.is_empty());
    }

    #[test]
    fn spec_only_components_are_deferred() {
        let pre = GhostState::blank(&GhostGlobals::default());
        let recorded = GhostState::blank(&GhostGlobals::default());
        let computed = host_state(&[0x4000_0000]);
        let o = check_trap("init", &pre, &recorded, &computed);
        assert!(o.violations.is_empty());
        assert_eq!(o.deferred, vec![Part::Host]);
    }

    #[test]
    fn display_is_uniform_and_greppable() {
        let v = Violation::SpecMismatch {
            seq: None,
            trap: "host_share_hyp".into(),
            component: "host".into(),
            uniq: None,
            diff: "d".into(),
        };
        assert!(
            v.to_string().starts_with(
                "violation kind=spec-mismatch trap=host_share_hyp comp=host uniq=- event=- ::"
            ),
            "{v}"
        );
        let mut v = Violation::NonInterference {
            seq: None,
            component: "vm[3]".into(),
            uniq: None,
            diff: "d".into(),
        };
        v.set_vm_uniq(42);
        v.set_event_seq(1234);
        assert!(
            v.to_string().starts_with(
                "violation kind=non-interference trap=- comp=vm[3] uniq=42 event=1234 ::"
            ),
            "{v}"
        );
        // A seq set by the original timeline survives a re-report.
        v.set_event_seq(9999);
        assert_eq!(v.event_seq(), Some(1234));
        let v = Violation::OracleInternal {
            seq: None,
            component: "spec:vcpu_run".into(),
            payload: "boom".into(),
        };
        let s = v.to_string();
        assert!(
            s.starts_with(
                "violation kind=oracle-internal trap=- comp=spec:vcpu_run uniq=- event=- ::"
            ) && s.contains("boom"),
            "{s}"
        );
    }

    #[test]
    fn locals_mismatch_detected() {
        let mut pre = GhostState::blank(&GhostGlobals::default());
        pre.write_gpr(0, 1, 7);
        let mut recorded = GhostState::blank(&GhostGlobals::default());
        recorded.write_gpr(0, 1, 0); // impl returned 0
        let mut computed = GhostState::blank(&GhostGlobals::default());
        computed.write_gpr(0, 1, (-1i64) as u64); // spec expected EPERM
        let o = check_trap("host_share_hyp", &pre, &recorded, &computed);
        assert_eq!(o.violations.len(), 1);
        assert!(matches!(
            &o.violations[0],
            (Part::Locals(0), Violation::SpecMismatch { component, .. }) if component == "locals[0]"
        ));
    }

    fn vm(handle: u32, donated: &[u64]) -> GhostVm {
        GhostVm {
            handle,
            slot: 0,
            protected: false,
            pgt: Default::default(),
            donated: donated.to_vec(),
            firmware: Vec::new(),
            vcpus: Vec::new(),
        }
    }

    /// A seeded stream (splitmix64) for the property below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }
    }

    fn maplet(rng: &mut Rng) -> Maplet {
        let ia = rng.below(16) << 12;
        Maplet {
            ia,
            nr_pages: 1 + rng.below(3),
            target: if rng.coin() {
                MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                }
            } else {
                MapletTarget::Mapped {
                    oa: ia,
                    attrs: AbsAttrs {
                        perms: Perms::RW,
                        memtype: MemType::Normal,
                        state: Some(PageState::Owned),
                    },
                }
            },
        }
    }

    fn mapping(rng: &mut Rng) -> Mapping {
        let mut m = Mapping::new();
        for _ in 0..rng.below(4) {
            m.insert(maplet(rng));
        }
        m
    }

    fn footprint(rng: &mut Rng) -> TablePages {
        Arc::new((0..rng.below(3)).map(|_| 0x40000 + rng.below(6)).collect())
    }

    fn pgt(rng: &mut Rng) -> AbstractPgtable {
        AbstractPgtable {
            mapping: mapping(rng),
            table_pages: footprint(rng),
        }
    }

    fn regs(rng: &mut Rng) -> GprFile {
        let mut r = GprFile::default();
        r.set(rng.below(3) as usize, rng.below(3));
        r
    }

    fn pfns(rng: &mut Rng) -> Vec<u64> {
        (0..rng.below(3)).map(|_| 0x44000 + rng.below(4)).collect()
    }

    fn vcpu(rng: &mut Rng) -> GhostVcpu {
        match rng.below(3) {
            0 => GhostVcpu::Uninit,
            1 => GhostVcpu::Present {
                regs: regs(rng),
                memcache: pfns(rng),
            },
            _ => GhostVcpu::Loaded {
                on: rng.below(2) as usize,
            },
        }
    }

    fn ghost_vm(rng: &mut Rng, handle: u32) -> GhostVm {
        GhostVm {
            handle,
            slot: rng.below(2) as usize,
            protected: rng.coin(),
            pgt: pgt(rng),
            donated: pfns(rng),
            firmware: pfns(rng),
            vcpus: (0..rng.below(3)).map(|_| vcpu(rng)).collect(),
        }
    }

    fn ghost_cpu(rng: &mut Rng) -> GhostCpu {
        GhostCpu {
            regs: regs(rng),
            loaded: rng.coin().then(|| GhostLoadedVcpu {
                handle: 1 + rng.below(2) as u32,
                idx: rng.below(2) as usize,
                regs: regs(rng),
                memcache: pfns(rng),
            }),
        }
    }

    fn ghost_host(rng: &mut Rng) -> GhostHost {
        GhostHost {
            annot: mapping(rng),
            shared: mapping(rng),
            table_pages: footprint(rng),
        }
    }

    fn random_state(rng: &mut Rng) -> GhostState {
        let mut s = GhostState::default();
        if rng.coin() {
            s.host = Some(ghost_host(rng));
        }
        if rng.coin() {
            s.pkvm = Some(GhostPkvm { pgt: pgt(rng) });
        }
        if rng.coin() {
            s.vm_table = Some(
                (0..rng.below(3))
                    .map(|i| (1 + i as u32, i as usize))
                    .collect(),
            );
        }
        for h in 1..=3 {
            if rng.coin() {
                s.vms.insert(h, ghost_vm(rng, h));
            }
        }
        for cpu in 0..2 {
            if rng.coin() {
                s.locals.insert(cpu, ghost_cpu(rng));
            }
        }
        s
    }

    /// Every page table of `s`, the host's footprint included.
    fn pgts(s: &mut GhostState) -> Vec<(&mut Mapping, &mut TablePages)> {
        let mut out = Vec::new();
        if let Some(h) = s.host.as_mut() {
            out.push((&mut h.annot, &mut h.table_pages));
        }
        if let Some(p) = s.pkvm.as_mut() {
            out.push((&mut p.pgt.mapping, &mut p.pgt.table_pages));
        }
        for vm in s.vms.values_mut() {
            out.push((&mut vm.pgt.mapping, &mut vm.pgt.table_pages));
        }
        out
    }

    /// Every memcache of `s`.
    fn memcaches(s: &mut GhostState) -> Vec<&mut Vec<u64>> {
        let mut out = Vec::new();
        for vm in s.vms.values_mut() {
            for v in vm.vcpus.iter_mut() {
                if let GhostVcpu::Present { memcache, .. } = v {
                    out.push(memcache);
                }
            }
        }
        for l in s.locals.values_mut() {
            if let Some(lv) = l.loaded.as_mut() {
                out.push(&mut lv.memcache);
            }
        }
        out
    }

    /// One random change to `s`: a part redrawn or dropped, a mapping
    /// grown or rebuilt equal in fresh storage, only a footprint or only a
    /// memcache redrawn, a vCPU redrawn, added or removed, or one field of
    /// a VM or a CPU's context changed.
    fn perturb(rng: &mut Rng, s: &mut GhostState) {
        let pick = |rng: &mut Rng, n: usize| rng.below(n.max(1) as u64) as usize;
        match rng.below(9) {
            0 => match rng.below(5) {
                0 => s.host = rng.coin().then(|| ghost_host(rng)),
                1 => s.pkvm = rng.coin().then(|| GhostPkvm { pgt: pgt(rng) }),
                2 => s.vm_table = rng.coin().then(|| vec![(1, 0)]),
                3 => {
                    let h = 1 + rng.below(3) as u32;
                    match rng.coin() {
                        true => s.vms.insert(h, ghost_vm(rng, h)),
                        false => s.vms.remove(&h),
                    };
                }
                _ => {
                    let cpu = rng.below(2) as usize;
                    match rng.coin() {
                        true => s.locals.insert(cpu, ghost_cpu(rng)),
                        false => s.locals.remove(&cpu),
                    };
                }
            },
            1 => {
                let m = maplet(rng);
                let mut all = pgts(s);
                let n = pick(rng, all.len());
                if let Some((mapping, _)) = all.get_mut(n) {
                    mapping.insert(m);
                }
            }
            2 => {
                let mut all = pgts(s);
                let n = pick(rng, all.len());
                if let Some((mapping, _)) = all.get_mut(n) {
                    let mut fresh = Mapping::new();
                    for m in mapping.iter() {
                        fresh.insert(*m);
                    }
                    **mapping = fresh;
                }
            }
            3 => {
                let pages = footprint(rng);
                let mut all = pgts(s);
                let n = pick(rng, all.len());
                if let Some((_, table_pages)) = all.get_mut(n) {
                    **table_pages = pages;
                }
            }
            4 => {
                let pfns = pfns(rng);
                let mut all = memcaches(s);
                let n = pick(rng, all.len());
                if let Some(memcache) = all.get_mut(n) {
                    **memcache = pfns;
                }
            }
            5 => {
                let n = pick(rng, s.vms.len());
                if let Some(vm) = s.vms.values_mut().nth(n) {
                    let i = pick(rng, vm.vcpus.len());
                    match rng.below(3) {
                        0 if i < vm.vcpus.len() => vm.vcpus[i] = vcpu(rng),
                        1 => vm.vcpus.push(vcpu(rng)),
                        _ => {
                            vm.vcpus.pop();
                        }
                    }
                }
            }
            6 => {
                let n = pick(rng, s.vms.len());
                if let Some(vm) = s.vms.values_mut().nth(n) {
                    match rng.below(5) {
                        0 => vm.donated = pfns(rng),
                        1 => vm.firmware = pfns(rng),
                        2 => vm.slot = rng.below(2) as usize,
                        3 => vm.protected = rng.coin(),
                        _ => vm.handle = rng.below(4) as u32,
                    }
                }
            }
            7 => {
                let n = pick(rng, s.locals.len());
                if let Some(l) = s.locals.values_mut().nth(n) {
                    match (rng.below(3), l.loaded.as_mut()) {
                        (0, _) => l.regs = regs(rng),
                        (1, Some(lv)) => match rng.below(3) {
                            0 => lv.regs = regs(rng),
                            1 => lv.idx = rng.below(2) as usize,
                            _ => lv.handle = 1 + rng.below(2) as u32,
                        },
                        _ => l.loaded = ghost_cpu(rng).loaded,
                    }
                }
            }
            _ => {
                if let Some(h) = s.host.as_mut() {
                    h.shared = mapping(rng);
                }
            }
        }
    }

    #[test]
    fn part_eq_is_projection_equality_on_random_states() {
        // How often each outcome was seen: equal, different, and equal
        // although the raw parts differ (in a footprint or memcache).
        let (mut same, mut differ, mut erased) = (0, 0, 0);
        for seed in 0..3000 {
            let mut rng = Rng(seed);
            let a = random_state(&mut rng);
            let mut b = a.clone();
            for _ in 0..1 + rng.below(3) {
                perturb(&mut rng, &mut b);
            }
            for (x, y) in [(&a, &b), (&b, &a)] {
                let parts: Vec<Part> = x.parts().chain(y.parts()).collect();
                for part in parts {
                    let projected = project(x, part) == project(y, part);
                    assert_eq!(
                        part_eq(x, y, part),
                        projected,
                        "seed {seed}, {part}:\n{x:#?}\n{y:#?}"
                    );
                    match (projected, x.only(part) == y.only(part)) {
                        (true, true) => same += 1,
                        (true, false) => erased += 1,
                        (false, _) => differ += 1,
                    }
                }
            }
        }
        assert!(
            same > 10_000 && differ > 4_000 && erased > 1_000,
            "same {same}, differ {differ}, erased {erased}"
        );
    }

    #[test]
    fn reports_come_in_first_seen_order_over_pre_recorded_computed() {
        // Every part mismatches at once. The report order fixes the
        // derived seqs the verdict digests pin.
        let g = GhostGlobals::default();
        let mut pre = GhostState::blank(&g);
        pre.write_gpr(3, 0, 1);
        pre.vms.insert(0x3000, vm(0x3000, &[]));
        pre.vm_table = Some(vec![(0x3000, 0)]);
        let mut recorded = host_state(&[0x4000_0000]);
        recorded.pkvm = Some(GhostPkvm::default());
        recorded.vm_table = Some(vec![(0x1000, 1), (0x3000, 0)]);
        recorded.vms.insert(0x1000, vm(0x1000, &[0x44007]));
        recorded.vms.insert(0x3000, vm(0x3000, &[0x44008]));
        recorded.write_gpr(0, 0, 2);
        recorded.write_gpr(3, 0, 2);
        let mut computed = host_state(&[0x4000_1000]);
        let mut pkvm = GhostPkvm::default();
        pkvm.pgt.mapping = computed.host.clone().unwrap().shared;
        computed.pkvm = Some(pkvm);
        computed.vms.insert(0x1000, vm(0x1000, &[]));
        computed.write_gpr(0, 0, 3);
        let o = check_trap("t", &pre, &recorded, &computed);
        let got: Vec<(Part, &str)> = o.violations.iter().map(|(p, v)| (*p, v.kind())).collect();
        assert_eq!(
            got,
            [
                // pre's parts first...
                (Part::VmTable, "unexpected-change"),
                (Part::Vm(0x3000), "unexpected-change"),
                (Part::Locals(3), "unexpected-change"),
                // ...then those recorded adds, in `parts()` order.
                (Part::Host, "spec-mismatch"),
                (Part::Pkvm, "spec-mismatch"),
                (Part::Vm(0x1000), "spec-mismatch"),
                (Part::Locals(0), "spec-mismatch"),
            ]
        );
        for (part, v) in &o.violations {
            assert_eq!(v.component(), Some(part.to_string().as_str()));
        }
        assert!(o.deferred.is_empty());
    }
}
