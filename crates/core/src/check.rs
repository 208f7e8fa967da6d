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
use crate::state::{GhostState, GhostVcpu, Part};

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
/// holding only that part — empty if `state` lacks it. The ternary and
/// non-interference checks compare these, so the diff renderer is reused
/// untouched.
pub(crate) fn project(state: &GhostState, part: Part) -> GhostState {
    let mut s = state.only(part);
    erase_allocation(&mut s);
    s
}

fn erase_allocation(s: &mut GhostState) {
    if let Some(h) = s.host.as_mut() {
        h.table_pages.clear();
    }
    if let Some(p) = s.pkvm.as_mut() {
        p.pgt.table_pages.clear();
    }
    for vm in s.vms.values_mut() {
        vm.pgt.table_pages.clear();
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
    let mut parts: Vec<Part> = Vec::new();
    for part in [pre, recorded, computed]
        .into_iter()
        .flat_map(GhostState::parts)
    {
        if !parts.contains(&part) {
            parts.push(part);
        }
    }
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
        let e = project(expected, part);
        let r = project(recorded, part);
        if e == r {
            continue;
        }
        let (trap, component, diff) = (trap.to_string(), part.to_string(), diff_states(&e, &r));
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
    use crate::state::{GhostGlobals, GhostHost, GhostPkvm, GhostVm};
    use pkvm_aarch64::attrs::{MemType, Perms};
    use pkvm_hyp::owner::PageState;

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
