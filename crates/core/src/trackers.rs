//! Back-half trackers: the checks that follow one family of recorded
//! [`Event`]s across a run rather than compare one trap's pre- and
//! post-state — footprint separation (§4.4 invariant 2), the
//! break-before-make discipline, the page-transfer protocol and firmware
//! protection.
//!
//! Each tracker owns a ledger that only the back half touches, so both
//! [`CheckMode`](crate::checker::CheckMode)s apply the same events in the
//! same order and reach bit-identical verdicts. The oracle builds the
//! list once from its [`OracleOpts`] ([`trackers`]).

use std::collections::{BTreeSet, HashMap};

use pkvm_aarch64::addr::PAGE_SIZE;
use pkvm_hyp::hooks::{Component, TransferEdge};
use pkvm_hyp::vm::Handle;

use crate::check::Violation;
use crate::event::Event;
use crate::mapping::Mapping;
use crate::oracle::OracleOpts;
use crate::state::GhostHost;

/// One back-half check over the recorded event stream. Every method
/// returns the violations it proves, in report order.
pub(crate) trait Tracker: Send {
    /// Folds in one observation event recorded at stream seq `seq`.
    fn observe(&mut self, seq: u64, event: &Event) -> Vec<Violation>;

    /// Scans a freshly abstracted host component.
    fn host(&mut self, _host: &GhostHost) -> Vec<Violation> {
        Vec::new()
    }

    /// The trap on `cpu`, named `name`, is exiting.
    fn trap_exit(&mut self, _cpu: usize, _name: &str) -> Vec<Violation> {
        Vec::new()
    }
}

/// The trackers `opts` switches on, in report order. The only place the
/// four tracker knobs are read.
pub(crate) fn trackers(opts: &OracleOpts) -> Vec<Box<dyn Tracker>> {
    let mut out: Vec<Box<dyn Tracker>> = Vec::new();
    if opts.check_separation {
        out.push(Box::<Separation>::default());
    }
    if opts.check_break_before_make {
        out.push(Box::<BreakBeforeMake>::default());
    }
    if opts.check_transfer_protocol {
        out.push(Box::<TransferProtocol>::default());
    }
    if opts.check_firmware_protection {
        out.push(Box::<FirmwareProtection>::default());
    }
    out
}

/// The spec coverage point of one transfer-protocol edge. Hit for every
/// transfer the back half applies, whether or not its check is on.
pub(crate) fn transfer_point(edge: TransferEdge) -> &'static str {
    match edge {
        TransferEdge::ShareHyp => "spec/transfer/share_hyp",
        TransferEdge::UnshareHyp => "spec/transfer/unshare_hyp",
        TransferEdge::DonateHyp => "spec/transfer/donate_hyp",
        TransferEdge::DonateHost => "spec/transfer/donate_host",
        TransferEdge::MapGuestOwned => "spec/transfer/map_guest_owned",
        TransferEdge::MapGuestShared => "spec/transfer/map_guest_shared",
        TransferEdge::GuestShareHost => "spec/transfer/guest_share_host",
        TransferEdge::GuestUnshareHost => "spec/transfer/guest_unshare_host",
        TransferEdge::Firmware => "spec/transfer/firmware",
        TransferEdge::Reclaim => "spec/transfer/reclaim",
    }
}

/// The per-component page-table footprints (§4.4 invariant 2): a table
/// page allocated by one component must not back another's tables.
#[derive(Default)]
pub(crate) struct Separation {
    footprints: HashMap<Component, BTreeSet<u64>>,
}

impl Tracker for Separation {
    fn observe(&mut self, _seq: u64, event: &Event) -> Vec<Violation> {
        match *event {
            Event::TablePageAlloc { comp, pfn } => {
                for (other, pages) in &self.footprints {
                    if *other != comp && pages.contains(&pfn) {
                        return vec![Violation::SeparationOverlap {
                            seq: None,
                            component: format!("{comp:?}"),
                            pfn,
                            owner: format!("{other:?}"),
                        }];
                    }
                }
                self.footprints.entry(comp).or_default().insert(pfn);
            }
            Event::TablePageFree { comp, pfn } => {
                if let Some(pages) = self.footprints.get_mut(&comp) {
                    pages.remove(&pfn);
                }
            }
            _ => {}
        }
        Vec::new()
    }
}

/// One table write that removed or tightened a live mapping, awaiting
/// its break-before-make flush sequence.
struct PendingBreak {
    /// Stream seq of the `PteDowngrade` event (the offending write).
    seq: u64,
    vmid: u16,
    ia: u64,
    nr: u64,
    /// A covering broadcast TLBI has been seen; the next DSB retires it.
    tlbi_done: bool,
}

/// The downgrade's span in byte addresses, overflow-safe (`nr` may be
/// `u64::MAX` for a VMID-wide downgrade).
fn bbm_span(ia: u64, nr: u64) -> (u128, u128) {
    let start = ia as u128;
    (start, start + nr as u128 * PAGE_SIZE as u128)
}

/// The break-before-make ledger, keyed by the CPU that performed the
/// table write: break, TLBI, and DSB are steps of a single trap, and a
/// trap runs on one CPU. Leftovers at trap exit are the violations.
#[derive(Default)]
pub(crate) struct BreakBeforeMake {
    pending: HashMap<usize, Vec<PendingBreak>>,
}

impl BreakBeforeMake {
    fn note_break(&mut self, cpu: usize, seq: u64, vmid: u16, ia: u64, nr: u64) {
        self.pending.entry(cpu).or_default().push(PendingBreak {
            seq,
            vmid,
            ia,
            nr,
            tlbi_done: false,
        });
    }

    /// A broadcast TLBI on `cpu`: marks every pending break of the same
    /// VMID whose span it covers. Non-broadcast TLBIs never come here —
    /// they cannot retire a break other CPUs may still hold stale.
    fn note_tlbi(&mut self, cpu: usize, vmid: u16, ia: u64, nr: u64) {
        let Some(list) = self.pending.get_mut(&cpu) else {
            return;
        };
        let (t_start, t_end) = bbm_span(ia, nr);
        for b in list.iter_mut() {
            let (b_start, b_end) = bbm_span(b.ia, b.nr);
            if b.vmid == vmid && b_start >= t_start && b_end <= t_end {
                b.tlbi_done = true;
            }
        }
    }

    /// A DSB on `cpu` completes the outstanding TLBIs: retires every
    /// break they covered.
    fn note_dsb(&mut self, cpu: usize) {
        if let Some(list) = self.pending.get_mut(&cpu) {
            list.retain(|b| !b.tlbi_done);
        }
    }
}

impl Tracker for BreakBeforeMake {
    fn observe(&mut self, seq: u64, event: &Event) -> Vec<Violation> {
        match *event {
            Event::PteDowngrade { cpu, vmid, ia, nr } => self.note_break(cpu, seq, vmid, ia, nr),
            Event::Tlbi {
                cpu,
                vmid,
                ia,
                nr,
                broadcast: true,
            } => self.note_tlbi(cpu, vmid, ia, nr),
            Event::Dsb { cpu } => self.note_dsb(cpu),
            _ => {}
        }
        Vec::new()
    }

    /// Whatever is still pending on `cpu` breached the discipline. Runs
    /// before the trap's check can be skipped: a degraded or quarantined
    /// spec check never excuses an unflushed downgrade, and the ledger
    /// must not leak into the next trap on this CPU.
    fn trap_exit(&mut self, cpu: usize, name: &str) -> Vec<Violation> {
        self.pending
            .remove(&cpu)
            .unwrap_or_default()
            .into_iter()
            .map(|b| Violation::BreakBeforeMake {
                seq: Some(b.seq),
                trap: name.to_string(),
                vmid: b.vmid,
                ia: b.ia,
                nr: b.nr,
            })
            .collect()
    }
}

/// A page's position in the ownership-transfer protocol. Pages start
/// (and mostly live) in `HostOwned`; `FirmwareOwned` is terminal —
/// firmware is retained by the hypervisor across teardown, so no legal
/// edge ever leaves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum XferState {
    HostOwned,
    SharedHyp,
    HypOwned,
    GuestOwned,
    GuestShared,
    GuestSharedHost,
    FirmwareOwned,
}

impl XferState {
    fn name(self) -> &'static str {
        match self {
            XferState::HostOwned => "host_owned",
            XferState::SharedHyp => "shared_hyp",
            XferState::HypOwned => "hyp_owned",
            XferState::GuestOwned => "guest_owned",
            XferState::GuestShared => "guest_shared",
            XferState::GuestSharedHost => "guest_shared_host",
            XferState::FirmwareOwned => "firmware_owned",
        }
    }
}

/// The transfer-protocol ledger: one [`XferState`] per page that has ever
/// left host ownership. Transfer hooks fire under the host lock, so both
/// check modes apply the edges in the same per-page order.
#[derive(Default)]
pub(crate) struct TransferProtocol {
    states: HashMap<u64, XferState>,
}

impl TransferProtocol {
    /// Runs one page across one protocol edge. `Err` carries the illegal
    /// departure state's name for the violation detail.
    fn cross(&mut self, edge: TransferEdge, pfn: u64) -> Result<(), &'static str> {
        use XferState::*;
        let cur = self.states.get(&pfn).copied().unwrap_or(HostOwned);
        let next = match (edge, cur) {
            (TransferEdge::ShareHyp, HostOwned) => SharedHyp,
            (TransferEdge::UnshareHyp, SharedHyp) => HostOwned,
            (TransferEdge::DonateHyp, HostOwned) => HypOwned,
            (TransferEdge::DonateHost, HypOwned) => HostOwned,
            (TransferEdge::MapGuestOwned, HostOwned) => GuestOwned,
            (TransferEdge::MapGuestShared, HostOwned) => GuestShared,
            (TransferEdge::GuestShareHost, GuestOwned) => GuestSharedHost,
            (TransferEdge::GuestUnshareHost, GuestSharedHost) => GuestOwned,
            (TransferEdge::Firmware, HostOwned) => FirmwareOwned,
            (TransferEdge::Reclaim, GuestOwned | GuestShared | GuestSharedHost) => HostOwned,
            (_, cur) => return Err(cur.name()),
        };
        self.states.insert(pfn, next);
        Ok(())
    }
}

impl Tracker for TransferProtocol {
    fn observe(&mut self, seq: u64, event: &Event) -> Vec<Violation> {
        let Event::Transfer {
            edge,
            pfn,
            nr,
            dirty,
            ..
        } = *event
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for p in pfn..pfn.saturating_add(nr) {
            if let Err(from) = self.cross(edge, p) {
                out.push(Violation::TransferProtocol {
                    seq: Some(seq),
                    edge,
                    pfn: p,
                    detail: format!("departed from state {from}"),
                });
            }
            if edge == TransferEdge::Reclaim && dirty {
                out.push(Violation::ReclaimWipe {
                    seq: Some(seq),
                    pfn: p,
                });
            }
        }
        out
    }
}

/// One donated firmware page the host must never see again.
struct FirmwarePage {
    handle: Handle,
    uniq: u64,
    /// A violation was already reported for this page; dedupes the
    /// backstop scan, which otherwise re-finds the same breach at every
    /// host lock event.
    reported: bool,
}

/// The firmware-protection ledger. Insert-only: a donation binds the page
/// to its VM incarnation for the rest of the run, surviving teardown and
/// handle reuse (the hypervisor retains firmware forever).
#[derive(Default)]
pub(crate) struct FirmwareProtection {
    pages: HashMap<u64, FirmwarePage>,
    /// The host annotations of the last backstop scan, after which every
    /// unreported page was annotated away from the host. Holding this
    /// copy keeps its storage shared, so a host whose annotations still
    /// share it has the very same annotations; forgotten at a donation,
    /// which adds an unscanned page.
    scanned: Option<Mapping>,
}

impl Tracker for FirmwareProtection {
    fn observe(&mut self, seq: u64, event: &Event) -> Vec<Violation> {
        let mut out = Vec::new();
        match *event {
            Event::FirmwareDonate {
                handle,
                uniq,
                pfn,
                nr,
                ..
            } => {
                self.scanned = None;
                for p in pfn..pfn.saturating_add(nr) {
                    self.pages.insert(
                        p,
                        FirmwarePage {
                            handle,
                            uniq,
                            reported: false,
                        },
                    );
                }
            }
            // The host regained `[pfn, pfn+nr)`: every tracked firmware
            // page in the range is a breach, anchored at the regain.
            Event::HostRegain { pfn, nr, .. } => {
                for p in pfn..pfn.saturating_add(nr) {
                    if let Some(fw) = self.pages.get_mut(&p) {
                        if !fw.reported {
                            fw.reported = true;
                            out.push(Violation::FirmwareProtection {
                                seq: Some(seq),
                                handle: fw.handle,
                                uniq: fw.uniq,
                                pfn: p,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Backstop: any tracked page the host's stage 2 can reach again (no
    /// longer annotated away from it) is a breach, even if no regain hook
    /// announced it. The donation annotates the page away from the host
    /// before the same critical section's release, so a clean run never
    /// trips this. Skipped while nothing changed since the last scan:
    /// neither the annotations nor the tracked pages (a regain only marks
    /// pages reported, which the scan skips anyway).
    fn host(&mut self, host: &GhostHost) -> Vec<Violation> {
        if self
            .scanned
            .as_ref()
            .is_some_and(|annot| annot.shares_storage(&host.annot))
        {
            return Vec::new();
        }
        self.scanned = Some(host.annot.clone());
        let mut out = Vec::new();
        for (p, fw) in self.pages.iter_mut() {
            if !fw.reported && host.annot.lookup(p << 12).is_none() {
                fw.reported = true;
                out.push(Violation::FirmwareProtection {
                    seq: None,
                    handle: fw.handle,
                    uniq: fw.uniq,
                    pfn: *p,
                });
            }
        }
        out.sort_by_key(|v| match v {
            Violation::FirmwareProtection { pfn, .. } => *pfn,
            _ => 0,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maplet::{Maplet, MapletTarget};
    use pkvm_hyp::owner::OwnerId;

    fn donate(t: &mut FirmwareProtection, pfn: u64, nr: u64) {
        let donation = Event::FirmwareDonate {
            cpu: 0,
            handle: 0x1000,
            uniq: 1,
            pfn,
            nr,
        };
        assert!(t.observe(0, &donation).is_empty());
    }

    /// A host whose annotations cover exactly `pfns`.
    fn host_annotating(pfns: &[u64]) -> GhostHost {
        let mut host = GhostHost::default();
        for &pfn in pfns {
            host.annot.insert(Maplet {
                ia: pfn << 12,
                nr_pages: 1,
                target: MapletTarget::Annotated {
                    owner: OwnerId::HYP,
                },
            });
        }
        host
    }

    fn breached(vs: &[Violation]) -> Vec<u64> {
        vs.iter()
            .map(|v| match v {
                Violation::FirmwareProtection { pfn, .. } => *pfn,
                v => panic!("{v:?}"),
            })
            .collect()
    }

    #[test]
    fn firmware_backstop_skips_unchanged_annotations_and_reports_a_change_in_pfn_order() {
        let mut t = FirmwareProtection::default();
        donate(&mut t, 0x40600, 4);
        let clean = host_annotating(&[0x40600, 0x40601, 0x40602, 0x40603]);
        assert!(t.host(&clean).is_empty());
        // Hosts whose annotations share the scanned storage are not
        // scanned: a page slipped into the ledger without a donation goes
        // unseen...
        t.pages.insert(
            0x40700,
            FirmwarePage {
                handle: 0x1000,
                uniq: 1,
                reported: false,
            },
        );
        assert!(t.host(&clean.clone()).is_empty());
        assert!(t.host(&clean).is_empty());
        // ...until the annotations change. Then every page the host can
        // reach is reported, in pfn order, once.
        let changed = host_annotating(&[0x40600, 0x40602]);
        assert_eq!(breached(&t.host(&changed)), [0x40601, 0x40603, 0x40700]);
        assert!(t.host(&host_annotating(&[0x40600, 0x40602])).is_empty());
    }

    #[test]
    fn a_firmware_donation_forces_the_next_backstop_scan() {
        let mut t = FirmwareProtection::default();
        donate(&mut t, 0x40600, 1);
        let host = host_annotating(&[0x40600]);
        assert!(t.host(&host).is_empty());
        assert!(t.host(&host).is_empty());
        // The same annotations do not cover the new donation: the next
        // host event scans again and reports it.
        donate(&mut t, 0x40800, 2);
        assert_eq!(breached(&t.host(&host)), [0x40800, 0x40801]);
        assert!(t.host(&host).is_empty());
    }

    #[test]
    fn bbm_tracker_retires_only_covered_broadcast_flushes() {
        let mut t = BreakBeforeMake::default();
        t.note_break(0, 10, 1, 0x8000, 2);
        t.note_break(0, 11, 2, 0x8000, 2);
        // Wrong VMID: retires nothing.
        t.note_tlbi(0, 3, 0x8000, 2);
        // Partial coverage (one of two pages): retires nothing.
        t.note_tlbi(0, 1, 0x8000, 1);
        t.note_dsb(0);
        assert_eq!(t.pending[&0].len(), 2);
        // Exact coverage, but a TLBI without its DSB retires nothing yet.
        t.note_tlbi(0, 1, 0x8000, 2);
        assert_eq!(t.pending[&0].len(), 2);
        t.note_dsb(0);
        assert_eq!(t.pending[&0].len(), 1);
        assert_eq!(t.pending[&0][0].seq, 11);
        // A VMID-wide TLBI (ia 0, nr MAX) covers anything of that VMID.
        t.note_tlbi(0, 2, 0, u64::MAX);
        t.note_dsb(0);
        assert!(t.pending[&0].is_empty());
        // Breaks are per-CPU: CPU 1's ledger is untouched throughout.
        t.note_break(1, 12, 1, 0, 1);
        t.note_tlbi(0, 1, 0, u64::MAX);
        t.note_dsb(0);
        assert_eq!(t.trap_exit(1, "t").len(), 1);
    }
}
