//! Simulated physical memory.
//!
//! Physical memory is a sparse, page-granular byte store: pages are
//! allocated zero-filled on first write, so very large physical address
//! spaces (needed to reproduce pKVM bug 5, where huge DRAM made the linear
//! map overlap the IO space) cost nothing until touched.
//!
//! The address space is described by a list of [`MemRegion`]s: RAM regions
//! back translation tables, hypervisor memory and host/guest pages; MMIO
//! regions model devices. Accesses to MMIO are permitted but *logged*, so
//! tests (and the linear-map-overlap reproduction) can observe the
//! hypervisor touching device memory it never intended to.
//!
//! Bulk accesses ([`PhysMem::read_bytes`], [`PhysMem::write_bytes`],
//! [`PhysMem::page_is_zero`], [`PhysMem::read_table`]) work a page at a
//! time: one region check, one page lookup and one slice copy or scan per
//! page, never per byte or word.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::{Mutex, RwLock};

use crate::addr::{PhysAddr, PAGE_MASK, PAGE_SIZE};
use crate::desc::Pte;

/// The hasher of the simulation's page-keyed maps: the page store, the
/// write log's dedup set and the TLBs, whose keys are page frame numbers
/// or page addresses (with a VMID). SipHash's flood resistance buys
/// nothing for keys the simulation makes itself, and it costs more than
/// the lookup it serves. Each word is added and multiplied by an odd
/// constant, which mixes every key bit into the high bits; `finish`
/// rotates them down, because the hash table indexes by the low bits,
/// which the product leaves as regular as the keys are (all zero for
/// 2 MiB-strided frames or page addresses).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PfnHasher(u64);

/// The 64-bit golden ratio, an odd constant with well-spread bits.
const PFN_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PfnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(PFN_HASH_MUL);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`PfnHasher`]s for `HashMap`/`HashSet`.
pub(crate) type PfnHash = BuildHasherDefault<PfnHasher>;

/// Splits the `len` bytes from `pa` at page boundaries, yielding each
/// piece's first address and its range in a `len`-byte buffer.
fn page_spans(pa: PhysAddr, len: usize) -> impl Iterator<Item = (PhysAddr, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = pa.wrapping_add(done as u64);
            let n = (PAGE_SIZE - a.page_offset()).min((len - done) as u64) as usize;
            done += n;
            (a, done - n..done)
        })
    })
}

/// Dirty-page tracking: a generational log of every page the simulated
/// system writes.
///
/// Consumers (the ghost oracle's incremental abstraction cache) take a
/// [`WriteLog::snapshot_generation`] *before* reading derived state, and
/// later ask [`WriteLog::for_each_dirty_since`] that snapshot to learn which pages
/// may have invalidated it. Writes racing with the read land at or after
/// the snapshot generation and so are re-reported next time — the log
/// over-approximates, never under-reports.
///
/// Tracking is off by default (one relaxed atomic load per write); the
/// instrumented machine switches it on when its hooks want dirty
/// information. The log is bounded: on overflow the oldest half is
/// discarded and snapshots from before the trim point report `None`
/// ("unknown — assume everything dirty").
#[derive(Debug, Default)]
pub struct WriteLog {
    enabled: AtomicBool,
    inner: Mutex<WriteLogInner>,
}

#[derive(Debug, Default)]
struct WriteLogInner {
    /// Current generation; bumped by every snapshot.
    generation: u64,
    /// `(generation, pfn)` in non-decreasing generation order.
    entries: VecDeque<(u64, u64)>,
    /// Pages already logged in the current generation (dedup).
    seen: HashSet<u64, PfnHash>,
    /// Snapshots older than this have lost entries to trimming.
    trimmed_before: u64,
}

/// Cap on retained log entries; oldest half is dropped on overflow.
const WRITE_LOG_CAP: usize = 1 << 16;

impl WriteLog {
    /// Returns `true` if writes are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Turning it off clears the log, so
    /// pre-existing snapshots conservatively report `None`.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if !on {
            let mut l = self.inner.lock();
            l.trimmed_before = l.generation + 1;
            l.entries.clear();
            l.seen.clear();
        }
    }

    /// The current generation (diagnostics; snapshots come from
    /// [`Self::snapshot_generation`]).
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Retained log entries (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Returns `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a new generation and returns it: every write logged from now
    /// on — including writes racing with state the caller is about to
    /// read — is reported by `for_each_dirty_since(returned, ..)`.
    pub fn snapshot_generation(&self) -> u64 {
        let mut l = self.inner.lock();
        l.generation += 1;
        l.seen.clear();
        l.generation
    }

    /// Calls `f` with every page written at or after snapshot `gen`,
    /// under the log's lock and without collecting them: a page written
    /// in several generations comes once per generation, newest first.
    /// Returns `false`, having called nothing, when the log cannot answer
    /// (tracking off, or `gen` trimmed away) and the caller must assume
    /// everything is dirty.
    pub fn for_each_dirty_since(&self, gen: u64, mut f: impl FnMut(u64)) -> bool {
        if !self.enabled() {
            return false;
        }
        let l = self.inner.lock();
        if gen < l.trimmed_before {
            return false;
        }
        // Entries are in generation order: the answer is a suffix.
        for &(_, pfn) in l.entries.iter().rev().take_while(|&&(g, _)| g >= gen) {
            f(pfn);
        }
        true
    }

    fn record(&self, pfn: u64) {
        if !self.enabled() {
            return;
        }
        let mut l = self.inner.lock();
        if !l.seen.insert(pfn) {
            return;
        }
        let g = l.generation;
        l.entries.push_back((g, pfn));
        if l.entries.len() > WRITE_LOG_CAP {
            l.entries.drain(..WRITE_LOG_CAP / 2);
            // The oldest retained generation may now be incomplete.
            l.trimmed_before = l.entries.front().map_or(g + 1, |&(g, _)| g + 1);
        }
    }
}

/// The kind of a physical-memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// DRAM: ordinary byte-addressable memory.
    Ram,
    /// Device (MMIO) space: accesses are logged.
    Mmio,
}

/// A contiguous region of the physical address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRegion {
    /// First byte of the region.
    pub base: PhysAddr,
    /// Region length in bytes.
    pub size: u64,
    /// RAM or MMIO.
    pub kind: RegionKind,
}

impl MemRegion {
    /// A RAM region `[base, base+size)`.
    pub const fn ram(base: u64, size: u64) -> Self {
        Self {
            base: PhysAddr::new(base),
            size,
            kind: RegionKind::Ram,
        }
    }

    /// An MMIO region `[base, base+size)`.
    pub const fn mmio(base: u64, size: u64) -> Self {
        Self {
            base: PhysAddr::new(base),
            size,
            kind: RegionKind::Mmio,
        }
    }

    /// Returns `true` if `pa` lies within this region.
    #[inline]
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa.bits() >= self.base.bits() && pa.bits() - self.base.bits() < self.size
    }

    /// One past the last byte of the region.
    #[inline]
    pub fn end(&self) -> PhysAddr {
        PhysAddr::new(self.base.bits() + self.size)
    }
}

/// Error returned for accesses outside every region ("bus error").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusError {
    /// The offending physical address.
    pub addr: PhysAddr,
}

impl core::fmt::Display for BusError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bus error at {}", self.addr)
    }
}

impl std::error::Error for BusError {}

/// Sparse simulated physical memory.
pub struct PhysMem {
    regions: Vec<MemRegion>,
    pages: RwLock<HashMap<u64, Box<[u8; PAGE_SIZE as usize]>, PfnHash>>,
    mmio_reads: AtomicU64,
    mmio_writes: AtomicU64,
    write_log: WriteLog,
}

impl PhysMem {
    /// Creates memory with the given region layout.
    ///
    /// # Panics
    ///
    /// Panics if any regions overlap or are not page aligned.
    pub fn new(regions: Vec<MemRegion>) -> Self {
        for r in &regions {
            assert!(
                r.base.is_page_aligned() && r.size % PAGE_SIZE == 0,
                "misaligned region {r:?}"
            );
        }
        let mut sorted = regions.clone();
        sorted.sort_by_key(|r| r.base.bits());
        for w in sorted.windows(2) {
            assert!(
                w[0].end().bits() <= w[1].base.bits(),
                "overlapping regions {w:?}"
            );
        }
        Self {
            regions,
            pages: RwLock::new(HashMap::default()),
            mmio_reads: AtomicU64::new(0),
            mmio_writes: AtomicU64::new(0),
            write_log: WriteLog::default(),
        }
    }

    /// The region layout.
    pub fn regions(&self) -> &[MemRegion] {
        &self.regions
    }

    /// Looks up the region containing `pa`.
    pub fn region_of(&self, pa: PhysAddr) -> Option<&MemRegion> {
        self.regions.iter().find(|r| r.contains(pa))
    }

    /// Returns `true` if `pa` is backed by RAM.
    pub fn is_ram(&self, pa: PhysAddr) -> bool {
        matches!(self.region_of(pa), Some(r) if r.kind == RegionKind::Ram)
    }

    /// Returns `true` if `pa` is in a device region.
    pub fn is_mmio(&self, pa: PhysAddr) -> bool {
        matches!(self.region_of(pa), Some(r) if r.kind == RegionKind::Mmio)
    }

    /// Number of MMIO read accesses performed so far.
    pub fn mmio_reads(&self) -> u64 {
        self.mmio_reads.load(Ordering::Relaxed)
    }

    /// Number of MMIO write accesses performed so far.
    pub fn mmio_writes(&self) -> u64 {
        self.mmio_writes.load(Ordering::Relaxed)
    }

    /// The dirty-page log recording this memory's writes.
    pub fn write_log(&self) -> &WriteLog {
        &self.write_log
    }

    /// Number of RAM pages currently backed by real storage (touched pages).
    pub fn backed_pages(&self) -> usize {
        self.pages.read().len()
    }

    fn note_access(&self, pa: PhysAddr, write: bool) -> Result<(), BusError> {
        match self.region_of(pa) {
            None => Err(BusError { addr: pa }),
            Some(r) if r.kind == RegionKind::Mmio => {
                if write {
                    self.mmio_writes.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.mmio_reads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Some(_) => Ok(()),
        }
    }

    /// Reads a naturally-aligned 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses (the simulated hardware does not issue
    /// misaligned descriptor accesses).
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, BusError> {
        assert!(pa.bits().is_multiple_of(8), "misaligned u64 read at {pa}");
        self.note_access(pa, false)?;
        let pages = self.pages.read();
        Ok(match pages.get(&pa.pfn()) {
            None => 0,
            Some(page) => {
                let off = (pa.bits() & PAGE_MASK) as usize;
                u64::from_le_bytes(page[off..off + 8].try_into().unwrap())
            }
        })
    }

    /// Writes a naturally-aligned 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses.
    pub fn write_u64(&self, pa: PhysAddr, value: u64) -> Result<(), BusError> {
        assert!(pa.bits().is_multiple_of(8), "misaligned u64 write at {pa}");
        self.note_access(pa, true)?;
        let mut pages = self.pages.write();
        // Recorded under the store's lock (see `WriteLog`): recorded
        // before it, a snapshot taken in between would read the old word
        // and never hear of the new one.
        self.write_log.record(pa.pfn());
        let page = pages.entry(pa.pfn()).or_insert_with(zeroed_page);
        let off = (pa.bits() & PAGE_MASK) as usize;
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `pa` (may cross page
    /// boundaries), one slice copy per page.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if any touched page is outside every region;
    /// the bytes of the pages before it have been read.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), BusError> {
        let pages = self.pages.read();
        for (a, span) in page_spans(pa, buf.len()) {
            self.note_access(a, false)?;
            let off = a.page_offset() as usize;
            let dst = &mut buf[span];
            match pages.get(&a.pfn()) {
                None => dst.fill(0),
                Some(page) => dst.copy_from_slice(&page[off..off + dst.len()]),
            }
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa` (may cross page boundaries), one
    /// slice copy per page: an unaligned page-sized write spills into the
    /// next page, as pKVM bug 1's memset does.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] if any touched page is outside every region;
    /// the pages before it have been written.
    pub fn write_bytes(&self, pa: PhysAddr, buf: &[u8]) -> Result<(), BusError> {
        let mut pages = self.pages.write();
        for (a, span) in page_spans(pa, buf.len()) {
            self.note_access(a, true)?;
            self.write_log.record(a.pfn());
            let off = a.page_offset() as usize;
            let page = pages.entry(a.pfn()).or_insert_with(zeroed_page);
            page[off..off + span.len()].copy_from_slice(&buf[span]);
        }
        Ok(())
    }

    /// Zeroes the 4 KiB page containing `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn zero_page(&self, pa: PhysAddr) -> Result<(), BusError> {
        self.note_access(pa, true)?;
        let mut pages = self.pages.write();
        self.write_log.record(pa.pfn());
        // Dropping the backing restores zero-fill semantics cheaply.
        pages.remove(&pa.pfn());
        Ok(())
    }

    /// Returns `true` if the 4 KiB page containing `pa` reads as all
    /// zeros, in one region check and one page lookup: an unbacked page
    /// is zero without a scan.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn page_is_zero(&self, pa: PhysAddr) -> Result<bool, BusError> {
        self.note_access(pa, false)?;
        let pages = self.pages.read();
        Ok(pages
            .get(&pa.pfn())
            .is_none_or(|page| page.iter().all(|&b| b == 0)))
    }

    /// Reads the `idx`th descriptor of the table whose base is `table`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn read_pte(&self, table: PhysAddr, idx: usize) -> Result<Pte, BusError> {
        debug_assert!(idx < 512);
        Ok(Pte(self.read_u64(table.wrapping_add(8 * idx as u64))?))
    }

    /// Reads all 512 descriptors of the table page whose base is `table`
    /// in one access: one region check, one lock acquire, one page lookup
    /// and one 4 KiB copy instead of 512 of each. An unbacked page reads
    /// as all-zero descriptors, matching [`PhysMem::read_u64`]'s
    /// zero-fill semantics. The page-table interpreter leans on this:
    /// abstracting a table level touches every descriptor, and the
    /// per-descriptor bookkeeping dominates the walk otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for table bases outside every region.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not page aligned (table bases always are).
    pub fn read_table(&self, table: PhysAddr) -> Result<Box<[Pte; 512]>, BusError> {
        let mut out = Box::new([Pte(0); 512]);
        self.read_table_into(table, &mut out)?;
        Ok(out)
    }

    /// [`PhysMem::read_table`] into a buffer the caller owns, for readers
    /// that re-read tables often and recycle their buffers.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for table bases outside every region, leaving
    /// `out` as it was.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not page aligned (table bases always are).
    pub fn read_table_into(&self, table: PhysAddr, out: &mut [Pte; 512]) -> Result<(), BusError> {
        assert!(table.is_page_aligned(), "misaligned table base {table}");
        self.note_access(table, false)?;
        let pages = self.pages.read();
        match pages.get(&table.pfn()) {
            Some(page) => {
                for (pte, chunk) in out.iter_mut().zip(page.chunks_exact(8)) {
                    *pte = Pte(u64::from_le_bytes(chunk.try_into().unwrap()));
                }
            }
            None => out.fill(Pte(0)),
        }
        Ok(())
    }

    /// Writes the `idx`th descriptor of the table whose base is `table`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for addresses outside every region.
    pub fn write_pte(&self, table: PhysAddr, idx: usize, pte: Pte) -> Result<(), BusError> {
        debug_assert!(idx < 512);
        self.write_u64(table.wrapping_add(8 * idx as u64), pte.bits())
    }
}

/// A fresh backing page: zero-filled, like memory never written.
fn zeroed_page() -> Box<[u8; PAGE_SIZE as usize]> {
    Box::new([0; PAGE_SIZE as usize])
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysMem")
            .field("regions", &self.regions)
            .field("backed_pages", &self.backed_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SHIFT;
    use std::hash::BuildHasher;

    fn mem() -> PhysMem {
        PhysMem::new(vec![
            MemRegion::ram(0x4000_0000, 0x100_0000),
            MemRegion::mmio(0x900_0000, 0x1_0000),
        ])
    }

    #[test]
    fn zero_fill_on_first_read() {
        let m = mem();
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_0000)).unwrap(), 0);
        assert_eq!(m.backed_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let m = mem();
        m.write_u64(PhysAddr::new(0x4000_0008), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(
            m.read_u64(PhysAddr::new(0x4000_0008)).unwrap(),
            0xdead_beef_cafe_f00d
        );
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_0000)).unwrap(), 0);
        assert_eq!(m.backed_pages(), 1);
    }

    #[test]
    fn bus_error_outside_regions() {
        let m = mem();
        assert!(m.read_u64(PhysAddr::new(0x1000)).is_err());
        assert!(m.write_u64(PhysAddr::new(0x2_0000_0000), 1).is_err());
    }

    #[test]
    fn mmio_accesses_are_counted() {
        let m = mem();
        assert_eq!(m.mmio_writes(), 0);
        m.write_u64(PhysAddr::new(0x900_0000), 7).unwrap();
        m.read_u64(PhysAddr::new(0x900_0008)).unwrap();
        assert_eq!(m.mmio_writes(), 1);
        assert_eq!(m.mmio_reads(), 1);
    }

    #[test]
    fn zero_page_clears_contents() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_2000);
        m.write_u64(pa, 42).unwrap();
        m.zero_page(pa.wrapping_add(0x10)).unwrap();
        assert_eq!(m.read_u64(pa).unwrap(), 0);
    }

    #[test]
    fn bytes_roundtrip_across_page_boundary() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_0ff8);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        m.write_bytes(pa, &data).unwrap();
        let mut back = [0u8; 16];
        m.read_bytes(pa, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.backed_pages(), 2);
    }

    #[test]
    fn pte_accessors() {
        let m = mem();
        let table = PhysAddr::new(0x4001_0000);
        m.write_pte(table, 5, Pte(0x123)).unwrap();
        assert_eq!(m.read_pte(table, 5).unwrap().bits(), 0x123);
        assert_eq!(m.read_pte(table, 4).unwrap().bits(), 0);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_regions_rejected() {
        let _ = PhysMem::new(vec![
            MemRegion::ram(0x1000, 0x2000),
            MemRegion::ram(0x2000, 0x2000),
        ]);
    }

    /// The set of pages written at or after snapshot `gen`, or `None` if
    /// the log cannot answer.
    fn dirty_since(log: &WriteLog, gen: u64) -> Option<std::collections::BTreeSet<u64>> {
        let mut dirty = std::collections::BTreeSet::new();
        log.for_each_dirty_since(gen, |pfn| {
            dirty.insert(pfn);
        })
        .then_some(dirty)
    }

    #[test]
    fn write_log_disabled_by_default_and_answers_none() {
        let m = mem();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        assert!(!m.write_log().enabled());
        assert!(m.write_log().is_empty());
        assert_eq!(dirty_since(m.write_log(), 0), None);
    }

    #[test]
    fn write_log_records_each_written_page_once_per_generation() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // Two writes to the same page, one to another; reads don't count.
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        m.write_u64(PhysAddr::new(0x4000_0008), 2).unwrap();
        m.write_u64(PhysAddr::new(0x4000_1000), 3).unwrap();
        m.read_u64(PhysAddr::new(0x4000_2000)).unwrap();
        let dirty = dirty_since(m.write_log(), snap).unwrap();
        assert_eq!(
            dirty.into_iter().collect::<Vec<_>>(),
            vec![0x40000, 0x40001]
        );
        assert_eq!(m.write_log().len(), 2, "same-page writes deduplicated");
    }

    #[test]
    fn snapshot_bumps_the_generation_and_resets_dedup() {
        let m = mem();
        m.write_log().set_enabled(true);
        let g1 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        let g2 = m.write_log().snapshot_generation();
        assert!(g2 > g1);
        // The same page dirtied again lands in the *new* generation.
        m.write_u64(PhysAddr::new(0x4000_0000), 2).unwrap();
        assert_eq!(dirty_since(m.write_log(), g2).unwrap().len(), 1);
        // And the older snapshot still sees both generations' entries.
        assert_eq!(dirty_since(m.write_log(), g1).unwrap().len(), 1);
    }

    #[test]
    fn write_log_covers_byte_writes_and_page_zeroing() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // A byte write straddling a page boundary dirties both pages.
        m.write_bytes(PhysAddr::new(0x4000_0ffc), &[0xff; 8])
            .unwrap();
        m.zero_page(PhysAddr::new(0x4000_3000)).unwrap();
        let dirty = dirty_since(m.write_log(), snap).unwrap();
        assert!(dirty.contains(&0x40000));
        assert!(dirty.contains(&0x40001));
        assert!(dirty.contains(&0x40003));
    }

    #[test]
    fn disabling_clears_the_log_and_invalidates_old_snapshots() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_0000), 1).unwrap();
        m.write_log().set_enabled(false);
        m.write_log().set_enabled(true);
        // The old snapshot predates the gap in coverage: no answer.
        assert_eq!(dirty_since(m.write_log(), snap), None);
        // A fresh snapshot works again.
        let snap2 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_1000), 1).unwrap();
        assert_eq!(dirty_since(m.write_log(), snap2).unwrap().len(), 1);
    }

    #[test]
    fn overflow_trims_oldest_entries_and_reports_unanswerable() {
        let m = mem();
        m.write_log().set_enabled(true);
        let snap = m.write_log().snapshot_generation();
        // One distinct page per generation, enough to overflow the cap.
        for i in 0..(WRITE_LOG_CAP as u64 + 2) {
            m.write_log().snapshot_generation();
            m.write_u64(PhysAddr::new(0x4000_0000 + (i % 0x1000) * 0x1000), i)
                .unwrap();
        }
        assert!(m.write_log().len() <= WRITE_LOG_CAP);
        // The trimmed-away snapshot cannot be answered...
        assert_eq!(dirty_since(m.write_log(), snap), None);
        // ...but a current one can.
        let snap2 = m.write_log().snapshot_generation();
        m.write_u64(PhysAddr::new(0x4000_5000), 9).unwrap();
        assert_eq!(dirty_since(m.write_log(), snap2).unwrap().len(), 1);
    }

    #[test]
    fn a_word_read_after_a_snapshot_is_current_or_its_page_is_dirty() {
        // A writer hammers one word while the reader snapshots, reads it
        // twice and asks the log. Two different reads mean a write landed
        // after the first read, so after the snapshot: the page must be
        // dirty since it. Recorded before the store's lock, a write could
        // be logged just before the snapshot and stored just after the
        // first read. The writer zeroes the word's page every other time,
        // and touches a second page in between, which keeps the word's
        // own record from being refreshed at once.
        const ROUNDS: u32 = 200_000;
        let m = mem();
        m.write_log().set_enabled(true);
        let pa = PhysAddr::new(0x4000_0000);
        let other = PhysAddr::new(0x4000_1000);
        let stop = AtomicBool::new(false);
        let missed = std::thread::scope(|s| {
            s.spawn(|| {
                for v in 1.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match v % 2 {
                        0 => m.zero_page(pa).unwrap(),
                        _ => m.write_u64(pa, v).unwrap(),
                    }
                    m.write_u64(other, v).unwrap();
                }
            });
            let mut missed = 0;
            for _ in 0..ROUNDS {
                let snap = m.write_log().snapshot_generation();
                let first = m.read_u64(pa).unwrap();
                let again = m.read_u64(pa).unwrap();
                let mut dirty = false;
                let answered = m
                    .write_log()
                    .for_each_dirty_since(snap, |pfn| dirty |= pfn == pa.pfn());
                if first != again && answered && !dirty {
                    missed += 1;
                }
            }
            stop.store(true, Ordering::Relaxed);
            missed
        });
        assert_eq!(
            missed, 0,
            "{missed} of {ROUNDS} stale reads went unreported"
        );
    }

    /// The reference's memory: each written page's bytes by frame number.
    type Model = HashMap<u64, [u8; PAGE_SIZE as usize]>;

    /// The byte-at-a-time reference of `write_bytes` (`write`) and
    /// `read_bytes`: a region check at the first byte and at every page
    /// boundary, then one byte. Returns the result and the addresses it
    /// checked.
    fn reference(
        m: &PhysMem,
        model: &mut Model,
        pa: u64,
        buf: &mut [u8],
        write: bool,
    ) -> (Result<(), BusError>, Vec<u64>) {
        let mut checked = Vec::new();
        for (i, b) in buf.iter_mut().enumerate() {
            let a = pa.wrapping_add(i as u64);
            if a & PAGE_MASK == 0 || i == 0 {
                checked.push(a);
                if m.region_of(PhysAddr::new(a)).is_none() {
                    let addr = PhysAddr::new(a);
                    return (Err(BusError { addr }), checked);
                }
            }
            let (pfn, off) = (a >> PAGE_SHIFT, (a & PAGE_MASK) as usize);
            if write {
                model.entry(pfn).or_insert([0; PAGE_SIZE as usize])[off] = *b;
            } else {
                *b = model.get(&pfn).map_or(0, |page| page[off]);
            }
        }
        (Ok(()), checked)
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
    }

    #[test]
    fn bulk_accesses_match_the_byte_at_a_time_reference() {
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let m = mem();
            m.write_log().set_enabled(true);
            let mut model = Model::new();
            for op in 0..8 {
                // Unaligned starts in RAM, at RAM's end (spans run off
                // it), in MMIO, and below RAM (no region at all).
                let base = match rng.below(4) {
                    0 => 0x4000_0000 + rng.below(4) * PAGE_SIZE,
                    1 => 0x4100_0000 - (1 + rng.below(3)) * PAGE_SIZE,
                    2 => 0x900_0000 + rng.below(16) * PAGE_SIZE,
                    _ => 0x4000_0000 - PAGE_SIZE,
                };
                let pa = base + rng.below(PAGE_SIZE);
                let len = rng.below(3 * PAGE_SIZE + 1) as usize;
                let write = rng.below(2) == 0;
                let ctx = format!("seed {seed}, op {op}: {len} bytes at {pa:#x}, write {write}");
                let mut buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let mut want = buf.clone();
                let (expect, checked) = reference(&m, &mut model, pa, &mut want, write);
                // The pages accessed before any bus error.
                let reached = &checked[..checked.len() - usize::from(expect.is_err())];
                let mmio = reached
                    .iter()
                    .filter(|&&a| m.is_mmio(PhysAddr::new(a)))
                    .count();
                let (reads, writes) = (m.mmio_reads(), m.mmio_writes());
                let snap = m.write_log().snapshot_generation();
                let got = if write {
                    m.write_bytes(PhysAddr::new(pa), &buf)
                } else {
                    m.read_bytes(PhysAddr::new(pa), &mut buf)
                };
                assert_eq!(got, expect, "{ctx}");
                assert!(buf == want, "{ctx}: read-back");
                let mut dirty = Vec::new();
                m.write_log()
                    .for_each_dirty_since(snap, |pfn| dirty.push(pfn));
                dirty.reverse();
                let logged: Vec<u64> = match write {
                    true => reached.iter().map(|a| a >> PAGE_SHIFT).collect(),
                    false => Vec::new(),
                };
                assert_eq!(dirty, logged, "{ctx}: write-log pages");
                let counted = (m.mmio_reads() - reads, m.mmio_writes() - writes);
                let mmio = mmio as u64;
                assert_eq!(counted, if write { (0, mmio) } else { (mmio, 0) }, "{ctx}");
                // Every word of every page reached reads back, through
                // the word path, what the reference holds.
                for &a in reached {
                    let page = model.get(&(a >> PAGE_SHIFT));
                    for off in (0..PAGE_SIZE as usize).step_by(8) {
                        let word = page.map_or(0, |p| {
                            u64::from_le_bytes(p[off..off + 8].try_into().unwrap())
                        });
                        let w = PhysAddr::new((a & !PAGE_MASK) + off as u64);
                        assert_eq!(m.read_u64(w).unwrap(), word, "{ctx}: word at {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_unaligned_page_sized_write_spills_into_the_next_page() {
        let m = mem();
        m.write_bytes(PhysAddr::new(0x4000_1008), &[0xff; PAGE_SIZE as usize])
            .unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_1000)).unwrap(), 0);
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_2000)).unwrap(), u64::MAX);
        assert_eq!(m.read_u64(PhysAddr::new(0x4000_2008)).unwrap(), 0);
        assert_eq!(m.backed_pages(), 2);
    }

    #[test]
    fn an_unbacked_page_is_zero_without_being_backed() {
        let m = mem();
        assert_eq!(m.page_is_zero(PhysAddr::new(0x4000_3000)), Ok(true));
        assert_eq!(m.backed_pages(), 0);
    }

    #[test]
    fn a_zeroed_page_is_zero() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_3000);
        m.write_u64(pa.wrapping_add(0x80), 7).unwrap();
        m.zero_page(pa).unwrap();
        assert_eq!(m.page_is_zero(pa), Ok(true));
        // Backed, but written with zeros only.
        m.write_bytes(pa, &[0; 64]).unwrap();
        assert_eq!(m.backed_pages(), 1);
        assert_eq!(m.page_is_zero(pa.wrapping_add(0xfff)), Ok(true));
    }

    #[test]
    fn a_page_whose_only_non_zero_word_is_the_last_is_not_zero() {
        let m = mem();
        let pa = PhysAddr::new(0x4000_3000);
        m.write_u64(pa.wrapping_add(PAGE_SIZE - 8), 1).unwrap();
        assert_eq!(m.page_is_zero(pa), Ok(false));
        assert_eq!(m.page_is_zero(pa.wrapping_add(PAGE_SIZE)), Ok(true));
    }

    #[test]
    fn a_page_outside_every_region_is_a_bus_error() {
        let m = mem();
        let pa = PhysAddr::new(0x4100_0000);
        assert_eq!(m.page_is_zero(pa), Err(BusError { addr: pa }));
    }

    #[test]
    fn dense_and_2mib_strided_pfns_both_hash_well() {
        // A hash table of 2n buckets indexes by the hash's low bits and
        // tags each slot with its top 7. Random hashes of n keys fill
        // about 79% of n distinct buckets.
        fn spread(hashes: Vec<u64>) -> (usize, usize) {
            let mask = (2 * hashes.len() - 1) as u64;
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & mask).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            (buckets.len(), tags.len())
        }
        let n = 4096;
        let hash = PfnHash::default();
        let pfn = |stride: u64| {
            (0..n)
                .map(|i| hash.hash_one(0x40000 + i * stride))
                .collect()
        };
        let tlb_key = |stride: u64| {
            (0..n)
                .map(|i| hash.hash_one((7u16, (0x40000 + i * stride) << 12)))
                .collect()
        };
        for (keys, hashes) in [
            ("dense pfns", pfn(1)),
            ("2 MiB-strided pfns", pfn(512)),
            ("dense TLB keys", tlb_key(1)),
            ("2 MiB-strided TLB keys", tlb_key(512)),
        ] {
            let (buckets, tags) = spread(hashes);
            assert!(
                buckets >= n as usize * 7 / 10,
                "{keys}: {buckets} buckets of {n} keys"
            );
            assert!(tags >= 120, "{keys}: {tags} tags of 128");
        }
    }
}
