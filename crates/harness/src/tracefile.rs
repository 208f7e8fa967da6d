//! The `.pkvmtrace` on-disk codec: persistent, replayable campaigns,
//! streamed.
//!
//! A recorded campaign ([`CampaignTrace`]) — machine shape, oracle
//! switches, injected faults, the chaos config with its seeds, and the
//! full unified event timeline — encodes to a compact self-describing
//! binary file and decodes back bit-identically in a *fresh process*.
//! That turns a violating run into an exchangeable correctness witness:
//! anyone holding the file can replay the exact schedule, inspect the
//! timeline (`examples/trace_inspect.rs`), or minimize it, without the
//! process (or machine) that produced it.
//!
//! Since format v4 the trace is a *stream*, not a blob. [`TraceWriter`]
//! appends records as they happen — it never needs the event count up
//! front — and finalizes atomically (temp file + rename, the
//! [`atomic_write`] discipline), so a crash mid-write never leaves a
//! torn file. [`TraceReader`] is the dual: a fallible iterator that
//! decodes one [`EventRecord`] at a time in O(1) memory with the
//! [`TraceHeader`] (machine config, oracle switches, chaos, seeds)
//! available up front; [`TraceReader::into_trace`] drains it into a
//! materialized [`CampaignTrace`] where a caller needs the whole timeline.
//!
//! Format: the 8-byte magic `PKVMTRCE`, a varint format version
//! ([`FORMAT_VERSION`]), the header sections in a fixed order, then the
//! event stream — each record prefixed by a marker byte `1`, the stream
//! closed by a terminator byte `0` which must be the last byte of the
//! file. All integers are LEB128 varints; floats are their IEEE bits in
//! 8 little-endian bytes; strings are varint length + UTF-8 bytes; event
//! timestamps are delta-encoded against the previous record (they are
//! nondecreasing in sequence order, so deltas stay small). No external
//! dependencies, no unsafe code, and decoding never panics on malformed
//! input — every failure is a [`TraceFileError`].

use std::io::{BufRead as _, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use pkvm_aarch64::walk::Access;
use pkvm_ghost::abstraction::Anomaly;
use pkvm_ghost::event::{ChaosKind, Event, EventRecord};
use pkvm_ghost::oracle::{OracleOpts, TrapOutcome};
use pkvm_ghost::Violation;
use pkvm_hyp::hooks::{Component, TransferEdge};
use pkvm_hyp::machine::MachineConfig;
use pkvm_hyp::vm::GuestOp;

use crate::campaign::CampaignTrace;
use crate::chaos::ChaosCfg;

/// The file magic: the first 8 bytes of every `.pkvmtrace` file.
pub const MAGIC: &[u8; 8] = b"PKVMTRCE";

/// Current format version. Bump on any incompatible layout change;
/// decoding refuses versions it does not know.
///
/// v2 added the `CorruptMem` event (tag 14) when host `WriteMem` became
/// stage-2-checked and chaos corruption got its own raw primitive.
///
/// v3 added the TLB instrumentation (events `Tlbi`/`Dsb`/`PteDowngrade`,
/// tags 15–17), the `BreakBeforeMake` violation (tag 9), the `StaleTlb`
/// chaos kind (byte 6) with its `p_stale_tlb` intensity, and the
/// `check_break_before_make` oracle switch.
///
/// v4 replaced the up-front event count with a sentinel-terminated
/// stream (marker byte `1` before each record, terminator byte `0`
/// after the last), so [`TraceWriter`] can append incrementally without
/// knowing the count and [`TraceReader`] can decode in O(1) memory.
///
/// v5 added the Android workload surface: events
/// `Transfer`/`FirmwareDonate`/`HostRegain` (tags 18–20), violations
/// `FirmwareProtection`/`TransferProtocol`/`ReclaimWipe` (tags 10–12),
/// and the `check_firmware_protection`/`check_transfer_protocol` oracle
/// switches.
pub const FORMAT_VERSION: u64 = 5;

/// Why a trace file failed to load. Loading *never* panics: a truncated
/// or bit-rotted file is an expected input, not a bug.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u64),
    /// The file ended in the middle of a field.
    Truncated,
    /// A field decoded to an impossible value (unknown enum tag, invalid
    /// UTF-8, an integer out of range).
    Malformed(&'static str),
    /// The underlying file operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::BadMagic => write!(f, "not a .pkvmtrace file (bad magic)"),
            TraceFileError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (want {FORMAT_VERSION})"
                )
            }
            TraceFileError::Truncated => write!(f, "trace file truncated"),
            TraceFileError::Malformed(what) => write!(f, "malformed trace file: {what}"),
            TraceFileError::Io(e) => write!(f, "trace file i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// The replayable context of a trace: everything before the event
/// stream. A [`TraceReader`] decodes it up front, so replay can boot the
/// machine before a single event has been read.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// The machine shape the campaign booted.
    pub config: MachineConfig,
    /// The oracle switches.
    pub oracle_opts: OracleOpts,
    /// The injected faults, as raw `FaultSet` bits.
    pub fault_bits: u32,
    /// The chaos config, if the campaign ran chaotic.
    pub chaos: Option<ChaosCfg>,
    /// Per-worker derived seeds.
    pub seeds: Vec<u64>,
}

impl TraceHeader {
    /// The header of an in-memory trace.
    pub fn of(trace: &CampaignTrace) -> TraceHeader {
        TraceHeader {
            config: trace.config.clone(),
            oracle_opts: trace.oracle_opts,
            fault_bits: trace.fault_bits,
            chaos: trace.chaos,
            seeds: trace.seeds.clone(),
        }
    }

    /// Rejoins the header with a materialized event timeline.
    pub fn into_trace(self, events: Vec<EventRecord>) -> CampaignTrace {
        CampaignTrace {
            config: self.config,
            oracle_opts: self.oracle_opts,
            fault_bits: self.fault_bits,
            chaos: self.chaos,
            seeds: self.seeds,
            events,
        }
    }
}

// ---------------------------------------------------------------- encode

struct Wr(Vec<u8>);

impl Wr {
    fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.0.push(byte);
                return;
            }
            self.0.push(byte | 0x80);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn byte(&mut self, b: u8) {
        self.0.push(b);
    }

    fn boolean(&mut self, b: bool) {
        self.0.push(b as u8);
    }

    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.byte(0),
            Some(v) => {
                self.byte(1);
                self.u64(v);
            }
        }
    }

    fn component(&mut self, comp: Component) {
        match comp {
            Component::Hyp => self.byte(0),
            Component::Host => self.byte(1),
            Component::VmTable => self.byte(2),
            Component::Vm(h) => {
                self.byte(3);
                self.u64(h as u64);
            }
        }
    }

    fn anomaly(&mut self, a: &Anomaly) {
        match a {
            Anomaly::ReservedDescriptor {
                table,
                index,
                level,
            } => {
                self.byte(0);
                self.u64(*table);
                self.usize(*index);
                self.u64(*level as u64);
            }
            Anomaly::IllegalPageState { ia } => {
                self.byte(1);
                self.u64(*ia);
            }
            Anomaly::HostNotIdentity { ia, oa } => {
                self.byte(2);
                self.u64(*ia);
                self.u64(*oa);
            }
            Anomaly::HostOutsideMemory { ia } => {
                self.byte(3);
                self.u64(*ia);
            }
            Anomaly::HostBadDeviceAttrs { ia } => {
                self.byte(4);
                self.u64(*ia);
            }
            Anomaly::TableOutsideMemory { table } => {
                self.byte(5);
                self.u64(*table);
            }
        }
    }

    fn violation(&mut self, v: &Violation) {
        match v {
            Violation::SpecMismatch {
                seq,
                trap,
                component,
                uniq,
                diff,
            } => {
                self.byte(0);
                self.opt_u64(*seq);
                self.str(trap);
                self.str(component);
                self.opt_u64(*uniq);
                self.str(diff);
            }
            Violation::UnexpectedChange {
                seq,
                trap,
                component,
                uniq,
                diff,
            } => {
                self.byte(1);
                self.opt_u64(*seq);
                self.str(trap);
                self.str(component);
                self.opt_u64(*uniq);
                self.str(diff);
            }
            Violation::NonInterference {
                seq,
                component,
                uniq,
                diff,
            } => {
                self.byte(2);
                self.opt_u64(*seq);
                self.str(component);
                self.opt_u64(*uniq);
                self.str(diff);
            }
            Violation::SeparationOverlap {
                seq,
                component,
                pfn,
                owner,
            } => {
                self.byte(3);
                self.opt_u64(*seq);
                self.str(component);
                self.u64(*pfn);
                self.str(owner);
            }
            Violation::AbstractionAnomaly {
                seq,
                context,
                anomaly,
            } => {
                self.byte(4);
                self.opt_u64(*seq);
                self.str(context);
                self.anomaly(anomaly);
            }
            Violation::HypPanic { seq, reason } => {
                self.byte(5);
                self.opt_u64(*seq);
                self.str(reason);
            }
            Violation::OracleSelfCheck {
                seq,
                context,
                detail,
            } => {
                self.byte(6);
                self.opt_u64(*seq);
                self.str(context);
                self.str(detail);
            }
            Violation::ShadowDivergence {
                seq,
                component,
                diff,
            } => {
                self.byte(7);
                self.opt_u64(*seq);
                self.str(component);
                self.str(diff);
            }
            Violation::OracleInternal {
                seq,
                component,
                payload,
            } => {
                self.byte(8);
                self.opt_u64(*seq);
                self.str(component);
                self.str(payload);
            }
            Violation::BreakBeforeMake {
                seq,
                trap,
                vmid,
                ia,
                nr,
            } => {
                self.byte(9);
                self.opt_u64(*seq);
                self.str(trap);
                self.u64(*vmid as u64);
                self.u64(*ia);
                self.u64(*nr);
            }
            Violation::FirmwareProtection {
                seq,
                handle,
                uniq,
                pfn,
            } => {
                self.byte(10);
                self.opt_u64(*seq);
                self.u64(*handle as u64);
                self.u64(*uniq);
                self.u64(*pfn);
            }
            Violation::TransferProtocol {
                seq,
                edge,
                pfn,
                detail,
            } => {
                self.byte(11);
                self.opt_u64(*seq);
                self.byte(*edge as u8);
                self.u64(*pfn);
                self.str(detail);
            }
            Violation::ReclaimWipe { seq, pfn } => {
                self.byte(12);
                self.opt_u64(*seq);
                self.u64(*pfn);
            }
        }
    }

    fn event(&mut self, ev: &Event) {
        match ev {
            Event::Hvc { cpu, func, args } => {
                self.byte(0);
                self.usize(*cpu);
                self.u64(*func);
                self.usize(args.len());
                for a in args {
                    self.u64(*a);
                }
            }
            Event::WriteMem { pa, value } => {
                self.byte(1);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::HostAccess { cpu, addr, access } => {
                self.byte(2);
                self.usize(*cpu);
                self.u64(*addr);
                self.byte(match access {
                    Access::Read => 0,
                    Access::Write => 1,
                    Access::Exec => 2,
                });
            }
            Event::PushGuestOp { handle, idx, op } => {
                self.byte(3);
                self.u64(*handle as u64);
                self.usize(*idx);
                match op {
                    GuestOp::Read(a) => {
                        self.byte(0);
                        self.u64(*a);
                    }
                    GuestOp::Write(a, v) => {
                        self.byte(1);
                        self.u64(*a);
                        self.u64(*v);
                    }
                    GuestOp::HvcShareHost(a) => {
                        self.byte(2);
                        self.u64(*a);
                    }
                    GuestOp::HvcUnshareHost(a) => {
                        self.byte(3);
                        self.u64(*a);
                    }
                    GuestOp::Wfi => self.byte(4),
                }
            }
            Event::TrapEnter { cpu } => {
                self.byte(4);
                self.usize(*cpu);
            }
            Event::TrapExit { cpu, name } => {
                self.byte(5);
                self.usize(*cpu);
                self.str(name);
            }
            Event::LockAcquired { cpu, comp } => {
                self.byte(6);
                self.usize(*cpu);
                self.component(*comp);
            }
            Event::LockReleasing { cpu, comp } => {
                self.byte(7);
                self.usize(*cpu);
                self.component(*comp);
            }
            Event::ReadOnce { cpu, tag, value } => {
                self.byte(8);
                self.usize(*cpu);
                self.str(tag);
                self.u64(*value);
            }
            Event::TablePageAlloc { comp, pfn } => {
                self.byte(9);
                self.component(*comp);
                self.u64(*pfn);
            }
            Event::TablePageFree { comp, pfn } => {
                self.byte(10);
                self.component(*comp);
                self.u64(*pfn);
            }
            Event::Chaos { cpu, kind } => {
                self.byte(11);
                self.usize(*cpu);
                self.byte(match kind {
                    ChaosKind::BitFlip => 0,
                    ChaosKind::TornReadOnce => 1,
                    ChaosKind::DroppedLock => 2,
                    ChaosKind::DupedLock => 3,
                    ChaosKind::DelayedHook => 4,
                    ChaosKind::AllocChaos => 5,
                    ChaosKind::StaleTlb => 6,
                });
            }
            Event::Check { cpu, name, outcome } => {
                self.byte(12);
                self.usize(*cpu);
                self.str(name);
                match outcome {
                    TrapOutcome::Clean => self.byte(0),
                    TrapOutcome::Violated(n) => {
                        self.byte(1);
                        self.usize(*n);
                    }
                    TrapOutcome::Unchecked(why) => {
                        self.byte(2);
                        self.str(why);
                    }
                }
            }
            Event::Violation(v) => {
                self.byte(13);
                self.violation(v);
            }
            Event::CorruptMem { pa, value } => {
                self.byte(14);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::Tlbi {
                vmid,
                ia,
                nr,
                broadcast,
                cpu,
            } => {
                self.byte(15);
                self.u64(*vmid as u64);
                self.u64(*ia);
                self.u64(*nr);
                self.boolean(*broadcast);
                self.usize(*cpu);
            }
            Event::Dsb { cpu } => {
                self.byte(16);
                self.usize(*cpu);
            }
            Event::PteDowngrade { cpu, vmid, ia, nr } => {
                self.byte(17);
                self.usize(*cpu);
                self.u64(*vmid as u64);
                self.u64(*ia);
                self.u64(*nr);
            }
            Event::Transfer {
                cpu,
                edge,
                pfn,
                nr,
                dirty,
            } => {
                self.byte(18);
                self.usize(*cpu);
                self.byte(*edge as u8);
                self.u64(*pfn);
                self.u64(*nr);
                self.boolean(*dirty);
            }
            Event::FirmwareDonate {
                cpu,
                handle,
                uniq,
                pfn,
                nr,
            } => {
                self.byte(19);
                self.usize(*cpu);
                self.u64(*handle as u64);
                self.u64(*uniq);
                self.u64(*pfn);
                self.u64(*nr);
            }
            Event::HostRegain { cpu, pfn, nr } => {
                self.byte(20);
                self.usize(*cpu);
                self.u64(*pfn);
                self.u64(*nr);
            }
        }
    }
}

/// The record stream's markers: `RECORD` before each event record,
/// `TERMINATOR` (which must be the file's last byte) after the final one.
const RECORD: u8 = 1;
const TERMINATOR: u8 = 0;

fn write_header(w: &mut Wr, header: &TraceHeader) {
    // Machine shape.
    w.usize(header.config.nr_cpus);
    w.usize(header.config.dram.len());
    for (base, size) in &header.config.dram {
        w.u64(*base);
        w.u64(*size);
    }
    w.usize(header.config.mmio.len());
    for (base, size) in &header.config.mmio {
        w.u64(*base);
        w.u64(*size);
    }
    w.u64(header.config.hyp_pool_pages);
    // Oracle switches.
    w.boolean(header.oracle_opts.check_noninterference);
    w.boolean(header.oracle_opts.check_separation);
    w.boolean(header.oracle_opts.incremental_abstraction);
    w.boolean(header.oracle_opts.shadow_validation);
    w.usize(header.oracle_opts.violation_cap);
    w.u64(header.oracle_opts.trap_check_budget);
    w.u64(header.oracle_opts.quarantine_threshold as u64);
    w.u64(header.oracle_opts.quarantine_traps);
    w.boolean(header.oracle_opts.check_break_before_make);
    w.boolean(header.oracle_opts.check_firmware_protection);
    w.boolean(header.oracle_opts.check_transfer_protocol);
    // Faults and chaos.
    w.u64(header.fault_bits as u64);
    match &header.chaos {
        None => w.byte(0),
        Some(c) => {
            w.byte(1);
            w.u64(c.seed);
            w.f64(c.p_bit_flip);
            w.f64(c.p_torn_read_once);
            w.f64(c.p_drop_lock_event);
            w.f64(c.p_dup_lock_event);
            w.f64(c.p_delay_hook);
            w.f64(c.p_alloc_chaos);
            w.f64(c.p_stale_tlb);
        }
    }
    // Seeds.
    w.usize(header.seeds.len());
    for s in &header.seeds {
        w.u64(*s);
    }
}

fn write_record(w: &mut Wr, rec: &EventRecord, prev_t: u64) {
    w.byte(RECORD);
    w.u64(rec.seq);
    w.u64(rec.lane as u64);
    w.opt_u64(rec.trap);
    w.u64(rec.t_ns.wrapping_sub(prev_t));
    w.event(&rec.event);
}

/// Encodes a trace into the `.pkvmtrace` byte format.
pub fn encode_trace(trace: &CampaignTrace) -> Vec<u8> {
    let mut w = Wr(Vec::new());
    w.0.extend_from_slice(MAGIC);
    w.u64(FORMAT_VERSION);
    write_header(&mut w, &TraceHeader::of(trace));
    let mut prev_t = 0u64;
    for rec in &trace.events {
        write_record(&mut w, rec, prev_t);
        prev_t = rec.t_ns;
    }
    w.byte(TERMINATOR);
    w.0
}

// ---------------------------------------------------------------- decode

/// Where decoded bytes come from: a borrowed in-memory buffer, or a
/// buffered file. Both yield the same byte sequence, so one decoder
/// serves [`TraceReader::from_bytes`] and [`TraceReader::open`] alike.
enum Src<'a> {
    Slice { buf: &'a [u8], pos: usize },
    File(std::io::BufReader<std::fs::File>),
}

struct Rd<'a>(Src<'a>);

type Res<T> = Result<T, TraceFileError>;

impl<'a> Rd<'a> {
    fn from_slice(buf: &'a [u8]) -> Rd<'a> {
        Rd(Src::Slice { buf, pos: 0 })
    }

    fn from_file(f: std::fs::File) -> Rd<'static> {
        Rd(Src::File(std::io::BufReader::new(f)))
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Res<()> {
        match &mut self.0 {
            Src::Slice { buf, pos } => {
                let end = pos.checked_add(out.len()).filter(|&e| e <= buf.len());
                let end = end.ok_or(TraceFileError::Truncated)?;
                out.copy_from_slice(&buf[*pos..end]);
                *pos = end;
                Ok(())
            }
            Src::File(f) => f.read_exact(out).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    TraceFileError::Truncated
                } else {
                    TraceFileError::Io(e)
                }
            }),
        }
    }

    /// `true` when no byte remains. Only meaningful at a record
    /// boundary — the terminator check uses it to insist the terminator
    /// is the file's last byte.
    fn at_eof(&mut self) -> Res<bool> {
        match &mut self.0 {
            Src::Slice { buf, pos } => Ok(*pos == buf.len()),
            Src::File(f) => Ok(f.fill_buf()?.is_empty()),
        }
    }

    fn byte(&mut self) -> Res<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn u64(&mut self) -> Res<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(TraceFileError::Malformed("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn usize(&mut self) -> Res<usize> {
        usize::try_from(self.u64()?).map_err(|_| TraceFileError::Malformed("usize out of range"))
    }

    fn u32(&mut self) -> Res<u32> {
        u32::try_from(self.u64()?).map_err(|_| TraceFileError::Malformed("u32 out of range"))
    }

    fn boolean(&mut self) -> Res<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceFileError::Malformed("bool out of range")),
        }
    }

    fn f64(&mut self) -> Res<f64> {
        let mut bytes = [0u8; 8];
        self.read_exact(&mut bytes)?;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn str(&mut self) -> Res<String> {
        let len = self.usize()?;
        // Read in bounded chunks so a corrupted length field hits
        // `Truncated` before it can commit a huge allocation.
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(chunk.len());
            self.read_exact(&mut chunk[..n])?;
            bytes.extend_from_slice(&chunk[..n]);
            remaining -= n;
        }
        String::from_utf8(bytes).map_err(|_| TraceFileError::Malformed("string is not UTF-8"))
    }

    fn opt_u64(&mut self) -> Res<Option<u64>> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(TraceFileError::Malformed("option tag out of range")),
        }
    }

    fn component(&mut self) -> Res<Component> {
        Ok(match self.byte()? {
            0 => Component::Hyp,
            1 => Component::Host,
            2 => Component::VmTable,
            3 => Component::Vm(self.u32()?),
            _ => return Err(TraceFileError::Malformed("unknown component tag")),
        })
    }

    fn anomaly(&mut self) -> Res<Anomaly> {
        Ok(match self.byte()? {
            0 => Anomaly::ReservedDescriptor {
                table: self.u64()?,
                index: self.usize()?,
                level: u8::try_from(self.u64()?)
                    .map_err(|_| TraceFileError::Malformed("level out of range"))?,
            },
            1 => Anomaly::IllegalPageState { ia: self.u64()? },
            2 => Anomaly::HostNotIdentity {
                ia: self.u64()?,
                oa: self.u64()?,
            },
            3 => Anomaly::HostOutsideMemory { ia: self.u64()? },
            4 => Anomaly::HostBadDeviceAttrs { ia: self.u64()? },
            5 => Anomaly::TableOutsideMemory { table: self.u64()? },
            _ => return Err(TraceFileError::Malformed("unknown anomaly tag")),
        })
    }

    fn violation(&mut self) -> Res<Violation> {
        Ok(match self.byte()? {
            0 => Violation::SpecMismatch {
                seq: self.opt_u64()?,
                trap: self.str()?,
                component: self.str()?,
                uniq: self.opt_u64()?,
                diff: self.str()?,
            },
            1 => Violation::UnexpectedChange {
                seq: self.opt_u64()?,
                trap: self.str()?,
                component: self.str()?,
                uniq: self.opt_u64()?,
                diff: self.str()?,
            },
            2 => Violation::NonInterference {
                seq: self.opt_u64()?,
                component: self.str()?,
                uniq: self.opt_u64()?,
                diff: self.str()?,
            },
            3 => Violation::SeparationOverlap {
                seq: self.opt_u64()?,
                component: self.str()?,
                pfn: self.u64()?,
                owner: self.str()?,
            },
            4 => Violation::AbstractionAnomaly {
                seq: self.opt_u64()?,
                context: self.str()?,
                anomaly: self.anomaly()?,
            },
            5 => Violation::HypPanic {
                seq: self.opt_u64()?,
                reason: self.str()?,
            },
            6 => Violation::OracleSelfCheck {
                seq: self.opt_u64()?,
                context: self.str()?,
                detail: self.str()?,
            },
            7 => Violation::ShadowDivergence {
                seq: self.opt_u64()?,
                component: self.str()?,
                diff: self.str()?,
            },
            8 => Violation::OracleInternal {
                seq: self.opt_u64()?,
                component: self.str()?,
                payload: self.str()?,
            },
            9 => Violation::BreakBeforeMake {
                seq: self.opt_u64()?,
                trap: self.str()?,
                vmid: u16::try_from(self.u64()?)
                    .map_err(|_| TraceFileError::Malformed("vmid out of range"))?,
                ia: self.u64()?,
                nr: self.u64()?,
            },
            10 => Violation::FirmwareProtection {
                seq: self.opt_u64()?,
                handle: self.u32()?,
                uniq: self.u64()?,
                pfn: self.u64()?,
            },
            11 => Violation::TransferProtocol {
                seq: self.opt_u64()?,
                edge: self.transfer_edge()?,
                pfn: self.u64()?,
                detail: self.str()?,
            },
            12 => Violation::ReclaimWipe {
                seq: self.opt_u64()?,
                pfn: self.u64()?,
            },
            _ => return Err(TraceFileError::Malformed("unknown violation tag")),
        })
    }

    fn transfer_edge(&mut self) -> Res<TransferEdge> {
        TransferEdge::from_u8(self.byte()?)
            .ok_or(TraceFileError::Malformed("unknown transfer edge"))
    }

    fn event(&mut self) -> Res<Event> {
        Ok(match self.byte()? {
            0 => {
                let cpu = self.usize()?;
                let func = self.u64()?;
                let n = self.usize()?;
                let mut args = Vec::new();
                for _ in 0..n {
                    args.push(self.u64()?);
                }
                Event::Hvc { cpu, func, args }
            }
            1 => Event::WriteMem {
                pa: self.u64()?,
                value: self.u64()?,
            },
            2 => Event::HostAccess {
                cpu: self.usize()?,
                addr: self.u64()?,
                access: match self.byte()? {
                    0 => Access::Read,
                    1 => Access::Write,
                    2 => Access::Exec,
                    _ => return Err(TraceFileError::Malformed("unknown access tag")),
                },
            },
            3 => Event::PushGuestOp {
                handle: self.u32()?,
                idx: self.usize()?,
                op: match self.byte()? {
                    0 => GuestOp::Read(self.u64()?),
                    1 => GuestOp::Write(self.u64()?, self.u64()?),
                    2 => GuestOp::HvcShareHost(self.u64()?),
                    3 => GuestOp::HvcUnshareHost(self.u64()?),
                    4 => GuestOp::Wfi,
                    _ => return Err(TraceFileError::Malformed("unknown guest-op tag")),
                },
            },
            4 => Event::TrapEnter { cpu: self.usize()? },
            5 => Event::TrapExit {
                cpu: self.usize()?,
                name: self.str()?.into(),
            },
            6 => Event::LockAcquired {
                cpu: self.usize()?,
                comp: self.component()?,
            },
            7 => Event::LockReleasing {
                cpu: self.usize()?,
                comp: self.component()?,
            },
            8 => Event::ReadOnce {
                cpu: self.usize()?,
                tag: self.str()?.into(),
                value: self.u64()?,
            },
            9 => Event::TablePageAlloc {
                comp: self.component()?,
                pfn: self.u64()?,
            },
            10 => Event::TablePageFree {
                comp: self.component()?,
                pfn: self.u64()?,
            },
            11 => Event::Chaos {
                cpu: self.usize()?,
                kind: match self.byte()? {
                    0 => ChaosKind::BitFlip,
                    1 => ChaosKind::TornReadOnce,
                    2 => ChaosKind::DroppedLock,
                    3 => ChaosKind::DupedLock,
                    4 => ChaosKind::DelayedHook,
                    5 => ChaosKind::AllocChaos,
                    6 => ChaosKind::StaleTlb,
                    _ => return Err(TraceFileError::Malformed("unknown chaos-kind tag")),
                },
            },
            12 => Event::Check {
                cpu: self.usize()?,
                name: self.str()?.into(),
                outcome: match self.byte()? {
                    0 => TrapOutcome::Clean,
                    1 => TrapOutcome::Violated(self.usize()?),
                    2 => TrapOutcome::Unchecked(self.str()?),
                    _ => return Err(TraceFileError::Malformed("unknown outcome tag")),
                },
            },
            13 => Event::Violation(self.violation()?),
            14 => Event::CorruptMem {
                pa: self.u64()?,
                value: self.u64()?,
            },
            15 => Event::Tlbi {
                vmid: u16::try_from(self.u64()?)
                    .map_err(|_| TraceFileError::Malformed("vmid out of range"))?,
                ia: self.u64()?,
                nr: self.u64()?,
                broadcast: self.boolean()?,
                cpu: self.usize()?,
            },
            16 => Event::Dsb { cpu: self.usize()? },
            17 => Event::PteDowngrade {
                cpu: self.usize()?,
                vmid: u16::try_from(self.u64()?)
                    .map_err(|_| TraceFileError::Malformed("vmid out of range"))?,
                ia: self.u64()?,
                nr: self.u64()?,
            },
            18 => Event::Transfer {
                cpu: self.usize()?,
                edge: self.transfer_edge()?,
                pfn: self.u64()?,
                nr: self.u64()?,
                dirty: self.boolean()?,
            },
            19 => Event::FirmwareDonate {
                cpu: self.usize()?,
                handle: self.u32()?,
                uniq: self.u64()?,
                pfn: self.u64()?,
                nr: self.u64()?,
            },
            20 => Event::HostRegain {
                cpu: self.usize()?,
                pfn: self.u64()?,
                nr: self.u64()?,
            },
            _ => return Err(TraceFileError::Malformed("unknown event tag")),
        })
    }

    fn header(&mut self) -> Res<TraceHeader> {
        let mut magic = [0u8; MAGIC.len()];
        match self.read_exact(&mut magic) {
            Ok(()) if &magic == MAGIC => {}
            Ok(()) | Err(TraceFileError::Truncated) => return Err(TraceFileError::BadMagic),
            Err(e) => return Err(e),
        }
        let version = self.u64()?;
        if version != FORMAT_VERSION {
            return Err(TraceFileError::BadVersion(version));
        }
        let nr_cpus = self.usize()?;
        let mut dram = Vec::new();
        for _ in 0..self.usize()? {
            dram.push((self.u64()?, self.u64()?));
        }
        let mut mmio = Vec::new();
        for _ in 0..self.usize()? {
            mmio.push((self.u64()?, self.u64()?));
        }
        let hyp_pool_pages = self.u64()?;
        let config = MachineConfig {
            nr_cpus,
            dram,
            mmio,
            hyp_pool_pages,
        };
        let oracle_opts = OracleOpts::builder()
            .check_noninterference(self.boolean()?)
            .check_separation(self.boolean()?)
            .incremental_abstraction(self.boolean()?)
            .shadow_validation(self.boolean()?)
            .violation_cap(self.usize()?)
            .trap_check_budget(self.u64()?)
            .quarantine_threshold(self.u32()?)
            .quarantine_traps(self.u64()?)
            .check_break_before_make(self.boolean()?)
            .check_firmware_protection(self.boolean()?)
            .check_transfer_protocol(self.boolean()?)
            .build();
        let fault_bits = self.u32()?;
        let chaos = match self.byte()? {
            0 => None,
            1 => Some(
                ChaosCfg::builder()
                    .seed(self.u64()?)
                    .bit_flip(self.f64()?)
                    .torn_read_once(self.f64()?)
                    .drop_lock_event(self.f64()?)
                    .dup_lock_event(self.f64()?)
                    .delay_hook(self.f64()?)
                    .alloc_chaos(self.f64()?)
                    .stale_tlb(self.f64()?)
                    .build(),
            ),
            _ => return Err(TraceFileError::Malformed("chaos tag out of range")),
        };
        let mut seeds = Vec::new();
        for _ in 0..self.usize()? {
            seeds.push(self.u64()?);
        }
        Ok(TraceHeader {
            config,
            oracle_opts,
            fault_bits,
            chaos,
            seeds,
        })
    }
}

/// A streaming `.pkvmtrace` decoder: the [`TraceHeader`] up front, then
/// a fallible iterator of [`EventRecord`]s, one decoded at a time in
/// O(1) memory (no `Vec<Event>` materialization). The iterator is
/// *fused on error*: the first `Err` is the last item — a corrupted file
/// never yields garbage events past the corruption point.
pub struct TraceReader<'a> {
    rd: Rd<'a>,
    header: TraceHeader,
    prev_t: u64,
    events_read: u64,
    done: bool,
}

impl TraceReader<'static> {
    /// Opens a trace file and decodes its header; events stream lazily
    /// through the iterator.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] for I/O failures and for a
    /// malformed, truncated or version-mismatched header; never panics.
    pub fn open<P: AsRef<Path>>(path: P) -> Res<TraceReader<'static>> {
        TraceReader::from_rd(Rd::from_file(std::fs::File::open(path)?))
    }
}

impl<'a> TraceReader<'a> {
    /// Starts a streaming decode over an in-memory buffer.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::open`], minus the I/O.
    pub fn from_bytes(bytes: &'a [u8]) -> Res<TraceReader<'a>> {
        TraceReader::from_rd(Rd::from_slice(bytes))
    }

    fn from_rd(mut rd: Rd<'a>) -> Res<TraceReader<'a>> {
        let header = rd.header()?;
        Ok(TraceReader {
            rd,
            header,
            prev_t: 0,
            events_read: 0,
            done: false,
        })
    }

    /// The trace's replayable context, decoded before any event.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records successfully yielded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Drains the stream into a materialized [`CampaignTrace`], for
    /// callers that need the whole timeline at once.
    ///
    /// # Errors
    ///
    /// The first decode error, if the stream has one.
    pub fn into_trace(mut self) -> Res<CampaignTrace> {
        let mut events = Vec::new();
        for rec in &mut self {
            events.push(rec?);
        }
        Ok(self.header.into_trace(events))
    }

    fn next_record(&mut self) -> Res<Option<EventRecord>> {
        match self.rd.byte()? {
            TERMINATOR => {
                if !self.rd.at_eof()? {
                    return Err(TraceFileError::Malformed("trailing bytes after trace"));
                }
                Ok(None)
            }
            RECORD => {
                let seq = self.rd.u64()?;
                let lane = self.rd.u32()?;
                let trap = self.rd.opt_u64()?;
                let t_ns = self.prev_t.wrapping_add(self.rd.u64()?);
                self.prev_t = t_ns;
                let event = self.rd.event()?;
                Ok(Some(EventRecord {
                    seq,
                    lane,
                    trap,
                    t_ns,
                    event,
                }))
            }
            _ => Err(TraceFileError::Malformed("unknown record marker")),
        }
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Res<EventRecord>;

    fn next(&mut self) -> Option<Res<EventRecord>> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => {
                self.events_read += 1;
                Some(Ok(rec))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// An incremental `.pkvmtrace` encoder: create with the header, append
/// records as the campaign produces them, [`finish`](Self::finish) to
/// seal the stream. The bytes accumulate in a same-directory temp file
/// (pid-suffixed, so concurrent writers never collide — the
/// [`atomic_write`] discipline) which only the final rename makes
/// visible: a crash mid-write, or dropping an unfinished writer, leaves
/// no torn trace behind, only (on a hard kill) a temp file the fleet
/// already knows to ignore.
pub struct TraceWriter {
    path: PathBuf,
    tmp: PathBuf,
    file: Option<std::io::BufWriter<std::fs::File>>,
    prev_t: u64,
    events: u64,
}

impl TraceWriter {
    /// Creates the temp file and writes the header.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    pub fn create<P: AsRef<Path>>(path: P, header: &TraceHeader) -> Res<TraceWriter> {
        let path = path.as_ref().to_path_buf();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(format!(".{}.wtmp", std::process::id()));
        let tmp = PathBuf::from(tmp_name);
        let mut w = Wr(Vec::new());
        w.0.extend_from_slice(MAGIC);
        w.u64(FORMAT_VERSION);
        write_header(&mut w, header);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        if let Err(e) = file.write_all(&w.0) {
            drop(file);
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(TraceWriter {
            path,
            tmp,
            file: Some(file),
            prev_t: 0,
            events: 0,
        })
    }

    /// Appends one record to the stream. Records must arrive in timeline
    /// order (timestamps are delta-encoded against the previous append).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error; the writer stays
    /// usable (dropping it still cleans up the temp file).
    pub fn append(&mut self, rec: &EventRecord) -> Res<()> {
        let mut w = Wr(Vec::new());
        write_record(&mut w, rec, self.prev_t);
        let file = self.file.as_mut().expect("writer already finished");
        file.write_all(&w.0)?;
        self.prev_t = rec.t_ns;
        self.events += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Seals the stream (terminator byte), flushes — fsyncs when the
    /// [`fsync_before_rename`] knob is on — and renames the temp file
    /// into place. Only now does the trace become visible at its path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error; the temp file is
    /// removed on failure.
    pub fn finish(mut self) -> Res<()> {
        let mut file = self.file.take().expect("writer already finished");
        let res = (|| -> Res<()> {
            file.write_all(&[TERMINATOR])?;
            file.flush()?;
            if fsync_before_rename() {
                file.get_ref().sync_all()?;
            }
            drop(file);
            std::fs::rename(&self.tmp, &self.path)?;
            Ok(())
        })();
        if res.is_err() {
            let _ = std::fs::remove_file(&self.tmp);
        }
        res
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        // An abandoned (never-finished) writer removes its temp file; the
        // destination path is untouched either way.
        if let Some(file) = self.file.take() {
            drop(file);
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Streams an in-memory `.pkvmtrace` buffer end to end without
/// materializing the timeline, returning the event count. The fleet's
/// pull/merge paths use this to vet candidate files — same acceptance
/// set as [`TraceReader::into_trace`], O(1) memory.
///
/// # Errors
///
/// The first decode error, if the buffer has one.
pub fn validate_bytes(bytes: &[u8]) -> Res<u64> {
    let mut r = TraceReader::from_bytes(bytes)?;
    for rec in &mut r {
        rec?;
    }
    Ok(r.events_read())
}

// ---------------------------------------------------------------- compact

/// Why a compaction request was refused or failed.
#[derive(Debug)]
pub enum CompactError {
    /// The family is part of the replayable schedule (or the violation
    /// anchors); dropping it would change replay verdicts.
    ReplayCritical(&'static str),
    /// The family name matches no known event family.
    UnknownFamily(String),
    /// Reading the source or writing the destination failed.
    Trace(TraceFileError),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::ReplayCritical(fam) => {
                write!(f, "cannot drop replay-critical event family `{fam}`")
            }
            CompactError::UnknownFamily(fam) => write!(f, "unknown event family `{fam}`"),
            CompactError::Trace(e) => write!(f, "compaction failed: {e}"),
        }
    }
}

impl std::error::Error for CompactError {}

impl From<TraceFileError> for CompactError {
    fn from(e: TraceFileError) -> Self {
        CompactError::Trace(e)
    }
}

/// What a compaction pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactStats {
    /// Records copied to the destination.
    pub kept: u64,
    /// Records dropped.
    pub dropped: u64,
}

/// Families [`compact_trace`] refuses to drop: the driver plane (the
/// replayable schedule itself) plus the `violation` anchors that make a
/// trace a correctness witness.
pub const REPLAY_CRITICAL_FAMILIES: &[&str] = &[
    "hvc",
    "write-mem",
    "corrupt-mem",
    "host-access",
    "push-guest-op",
    "violation",
];

/// Rewrites `src` to `dst`, dropping every record whose
/// [`Event::family`] is in `drop_families` — a single reader→writer
/// streaming pass in O(1) memory, so a long soak's multi-gigabyte trace
/// compacts without loading. Kept records keep their sequence numbers
/// and timestamps untouched, so violation anchors (`event_seq`) still
/// resolve and replay of the surviving driver schedule is unchanged.
/// Requests to drop a replay-critical family (the driver plane, or
/// `violation`) or an unknown family name are refused up front with a
/// typed error, before anything is written.
///
/// # Errors
///
/// [`CompactError::ReplayCritical`] / [`CompactError::UnknownFamily`]
/// for refused requests; [`CompactError::Trace`] when the source is
/// malformed or I/O fails (no destination file appears in that case).
pub fn compact_trace<P: AsRef<Path>, Q: AsRef<Path>>(
    src: P,
    dst: Q,
    drop_families: &[&str],
) -> Result<CompactStats, CompactError> {
    for fam in drop_families {
        if let Some(critical) = REPLAY_CRITICAL_FAMILIES.iter().find(|c| *c == fam) {
            return Err(CompactError::ReplayCritical(critical));
        }
        if !Event::FAMILIES.contains(fam) {
            return Err(CompactError::UnknownFamily((*fam).to_string()));
        }
    }
    let reader = TraceReader::open(src)?;
    let header = reader.header().clone();
    let mut writer = TraceWriter::create(dst, &header)?;
    let mut stats = CompactStats::default();
    for rec in reader {
        let rec = rec?;
        if drop_families.contains(&rec.event.family()) {
            stats.dropped += 1;
        } else {
            writer.append(&rec)?;
            stats.kept += 1;
        }
    }
    writer.finish()?;
    Ok(stats)
}

// ------------------------------------------------------------ file plumbing

/// Process-wide switch: when set, [`atomic_write`] (and through it
/// [`save_trace`] and [`TraceWriter::finish`]) fsyncs the temp file
/// before renaming it into place, so a completed rename implies the
/// bytes are durable, not merely in the page cache. Off by default — the
/// fleet's correctness only needs rename atomicity (no torn files), not
/// durability; long soaks on real hosts that must survive power loss
/// turn it on. Also enabled by the `PKVMTRACE_FSYNC` environment
/// variable (any value but `0`).
static FSYNC_BEFORE_RENAME: AtomicBool = AtomicBool::new(false);

/// Turns the fsync-before-rename knob on or off for this process.
pub fn set_fsync_before_rename(on: bool) {
    FSYNC_BEFORE_RENAME.store(on, Ordering::Relaxed);
}

/// Whether [`atomic_write`] fsyncs before renaming (the process-wide
/// knob, or the `PKVMTRACE_FSYNC` environment variable).
pub fn fsync_before_rename() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    FSYNC_BEFORE_RENAME.load(Ordering::Relaxed)
        || *ENV.get_or_init(|| std::env::var_os("PKVMTRACE_FSYNC").is_some_and(|v| v != *"0"))
}

/// Writes `bytes` to `path` atomically: the bytes land in a same-
/// directory temp file (named with this process's pid, so concurrent
/// writers in a shared directory never collide) which is then renamed
/// over `path`. A reader — or a `kill -9` of the writer — can therefore
/// never observe a torn file: either the old content (or no file) or
/// the complete new content, nothing in between. The temp file is
/// removed on failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    let res = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync_before_rename() {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

/// Writes `trace` to `path` in the `.pkvmtrace` format through a
/// [`TraceWriter`] (temp file + rename, so a crash mid-save never
/// leaves a torn trace). Byte-identical to [`encode_trace`] — the two
/// paths share the encoding helpers.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn save_trace<P: AsRef<Path>>(path: P, trace: &CampaignTrace) -> Res<()> {
    let mut w = TraceWriter::create(path, &TraceHeader::of(trace))?;
    for rec in &trace.events {
        w.append(rec)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn android_surface_events_round_trip() {
        // The v5 additions in one trace: every transfer edge, a firmware
        // donation, a host regain, the three Android-surface violations,
        // and both new header knobs at their non-default (off) value.
        let mut events: Vec<EventRecord> = Vec::new();
        let push = |events: &mut Vec<EventRecord>, event: Event| {
            let seq = events.len() as u64;
            events.push(EventRecord {
                seq,
                lane: 0,
                trap: None,
                t_ns: seq * 10,
                event,
            });
        };
        for (i, &edge) in TransferEdge::ALL.iter().enumerate() {
            push(
                &mut events,
                Event::Transfer {
                    cpu: i % 4,
                    edge,
                    pfn: 0x100 + i as u64,
                    nr: 2,
                    dirty: edge == TransferEdge::Reclaim,
                },
            );
        }
        push(
            &mut events,
            Event::FirmwareDonate {
                cpu: 1,
                handle: 0x1001,
                uniq: 7,
                pfn: 0x200,
                nr: 4,
            },
        );
        push(
            &mut events,
            Event::HostRegain {
                cpu: 2,
                pfn: 0x300,
                nr: 1,
            },
        );
        push(
            &mut events,
            Event::Violation(Violation::FirmwareProtection {
                seq: Some(3),
                handle: 0x1001,
                uniq: 7,
                pfn: 0x200,
            }),
        );
        push(
            &mut events,
            Event::Violation(Violation::TransferProtocol {
                seq: Some(4),
                edge: TransferEdge::ShareHyp,
                pfn: 0x100,
                detail: "departed from state host_owned".to_string(),
            }),
        );
        push(
            &mut events,
            Event::Violation(Violation::ReclaimWipe {
                seq: Some(5),
                pfn: 0x101,
            }),
        );
        let trace = CampaignTrace {
            config: MachineConfig::default(),
            oracle_opts: OracleOpts::builder()
                .check_firmware_protection(false)
                .check_transfer_protocol(false)
                .build(),
            fault_bits: 0,
            chaos: None,
            seeds: vec![0xe16],
            events,
        };
        let bytes = encode_trace(&trace);
        let decoded = TraceReader::from_bytes(&bytes)
            .and_then(TraceReader::into_trace)
            .expect("round trip");
        assert!(!decoded.oracle_opts.check_firmware_protection);
        assert!(!decoded.oracle_opts.check_transfer_protocol);
        assert_eq!(decoded.events.len(), trace.events.len());
        assert_eq!(
            format!("{:?}", decoded.events),
            format!("{:?}", trace.events),
            "decoded timeline differs from the encoded one"
        );
    }

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        let mut w = Wr(Vec::new());
        let probes = [0, 1, 127, 128, 0x3fff, 0x4000, u64::MAX];
        for v in probes {
            w.u64(v);
        }
        let mut r = Rd::from_slice(&w.0);
        for v in probes {
            assert_eq!(r.u64().unwrap(), v);
        }
        assert!(r.at_eof().unwrap());
    }

    #[test]
    fn an_overlong_varint_is_malformed_not_a_panic() {
        let buf = [0xff; 11];
        let mut r = Rd::from_slice(&buf);
        assert!(matches!(r.u64(), Err(TraceFileError::Malformed(_))));
    }

    #[test]
    fn atomic_write_leaves_no_temp_and_fails_cleanly() {
        let dir = std::env::temp_dir().join(format!("pkvm-aw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.pkvmtrace");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        // Overwrite is atomic too, and no temp file survives either way.
        atomic_write(&path, b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"world");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A failing write (missing parent) leaves nothing behind.
        let bad = dir.join("no-such-dir").join("y.pkvmtrace");
        assert!(atomic_write(&bad, b"z").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_foreign_buffers_fail_cleanly() {
        assert!(matches!(
            TraceReader::from_bytes(&[]),
            Err(TraceFileError::BadMagic)
        ));
        assert!(matches!(
            TraceReader::from_bytes(b"ELF\x7f----------"),
            Err(TraceFileError::BadMagic)
        ));
        // Right magic, hostile version.
        let mut bytes = MAGIC.to_vec();
        bytes.push(99);
        assert!(matches!(
            TraceReader::from_bytes(&bytes),
            Err(TraceFileError::BadVersion(99))
        ));
    }

    #[test]
    fn a_corrupt_string_length_cannot_commit_a_huge_allocation() {
        // A length field claiming ~2^60 bytes must fail with Truncated
        // (the chunked read hits end-of-buffer) without first reserving
        // anything near that much memory.
        let mut w = Wr(Vec::new());
        w.u64(1u64 << 60);
        w.0.extend_from_slice(b"short");
        let mut r = Rd::from_slice(&w.0);
        assert!(matches!(r.str(), Err(TraceFileError::Truncated)));
    }
}
