//! Per-vCPU memory caches (`kvm_hyp_memcache`).
//!
//! Guest stage 2 tables cannot come from the hypervisor pool (the host
//! must pay for its guests' memory), so the host donates pages into a
//! per-vCPU *memcache* before running operations that may need them.
//! As in pKVM, the cache is an intrusive stack threaded through the pages
//! themselves: the first 8 bytes of each free page hold the physical
//! address of the next.
//!
//! This module is the site of two of the real pKVM bugs reproduced here
//! (§6 bugs 1 and 2): the top-up path must check that donated addresses
//! are page-aligned and that the requested count is sane; see
//! [`crate::mem_protect`] for the checks at the donation boundary.

use pkvm_aarch64::addr::{PhysAddr, PAGE_SIZE};
use pkvm_aarch64::memory::PhysMem;

use crate::error::{Errno, HypResult};

/// The maximum top-up size accepted in one hypercall; requests beyond this
/// indicate a host error (or an attack) and are rejected with `E2BIG`.
pub const MEMCACHE_MAX_TOPUP: u64 = 64;

/// An intrusive stack of donated pages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Memcache {
    head: Option<PhysAddr>,
    nr_pages: u64,
}

impl Memcache {
    /// An empty cache.
    pub const fn new() -> Self {
        Self {
            head: None,
            nr_pages: 0,
        }
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> u64 {
        self.nr_pages
    }

    /// Returns `true` if the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.nr_pages == 0
    }

    /// Pushes `page` onto the cache, threading the link through memory.
    ///
    /// The page must already be owned by the hypervisor; the caller (the
    /// donation path) establishes that.
    pub fn push(&mut self, mem: &PhysMem, page: PhysAddr) {
        let next = self.head.map_or(0, PhysAddr::bits);
        mem.write_u64(page, next)
            .expect("memcache page must be backed");
        self.head = Some(page);
        self.nr_pages += 1;
    }

    /// Pops a page, zeroing the link word.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when the cache is empty (the caller surfaces this
    /// to the host, which responds by topping up and retrying).
    pub fn pop(&mut self, mem: &PhysMem) -> HypResult<PhysAddr> {
        let Some(head) = self.head else {
            crate::cov::hit!("memcache/empty");
            return Err(Errno::ENOMEM);
        };
        let next = mem.read_u64(head).unwrap_or(0);
        let _ = mem.write_u64(head, 0);
        self.head = sanitize_link(next);
        self.nr_pages -= 1;
        crate::cov::hit!("memcache/pop");
        Ok(head)
    }

    /// Drains the cache, returning all pages (teardown path).
    pub fn drain(&mut self, mem: &PhysMem) -> Vec<PhysAddr> {
        let mut pages = Vec::with_capacity(self.nr_pages as usize);
        while let Ok(p) = self.pop(mem) {
            pages.push(p);
        }
        pages
    }

    /// The pages currently cached, without removing them (for abstraction
    /// recording).
    pub fn peek_pages(&self, mem: &PhysMem) -> Vec<PhysAddr> {
        let mut pages = Vec::new();
        let mut cur = self.head;
        // The links live in memory the host once controlled; a corrupted
        // link must truncate the walk, never panic or cycle, so the walk
        // is bounded by the page counter.
        while let Some(p) = cur {
            if pages.len() as u64 >= self.nr_pages {
                break;
            }
            pages.push(p);
            cur = sanitize_link(mem.read_u64(p).unwrap_or(0));
        }
        pages
    }
}

/// Interprets one intrusive link word defensively: zero ends the list,
/// and a value that is not a page-aligned address the machine backs with
/// RAM is treated the same way. The link words live in donated pages —
/// memory the host controlled until a moment ago — so garbage here is an
/// attack surface, not an internal invariant.
fn sanitize_link(next: u64) -> Option<PhysAddr> {
    if next == 0 || !next.is_multiple_of(PAGE_SIZE) {
        return None;
    }
    Some(PhysAddr::new(next))
}

/// Zeroes one donated page.
///
/// With pKVM bug 1 injected, the caller passes an *unaligned* address here
/// and this dutifully zeroes `PAGE_SIZE` bytes from it — spilling into the
/// following page, which the host may not own. The clean top-up path
/// rejects unaligned donations before reaching this.
pub fn wipe_donated(mem: &PhysMem, addr: PhysAddr) {
    let zeros = [0u8; PAGE_SIZE as usize];
    // Deliberately *not* page-truncated: this mirrors the memset in the
    // buggy top-up path, whose extent depended on the unvalidated address.
    let _ = mem.write_bytes(addr, &zeros);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_aarch64::memory::MemRegion;

    fn mem() -> PhysMem {
        PhysMem::new(vec![MemRegion::ram(0x4000_0000, 0x40_0000)])
    }

    #[test]
    fn lifo_order() {
        let m = mem();
        let mut mc = Memcache::new();
        let a = PhysAddr::new(0x4000_1000);
        let b = PhysAddr::new(0x4000_2000);
        mc.push(&m, a);
        mc.push(&m, b);
        assert_eq!(mc.len(), 2);
        assert_eq!(mc.pop(&m).unwrap(), b);
        assert_eq!(mc.pop(&m).unwrap(), a);
        assert_eq!(mc.pop(&m), Err(Errno::ENOMEM));
    }

    #[test]
    fn links_live_in_the_pages_themselves() {
        let m = mem();
        let mut mc = Memcache::new();
        let a = PhysAddr::new(0x4000_1000);
        let b = PhysAddr::new(0x4000_2000);
        mc.push(&m, a);
        mc.push(&m, b);
        // b's first word must point at a.
        assert_eq!(m.read_u64(b).unwrap(), a.bits());
        assert_eq!(m.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn pop_clears_link_word() {
        let m = mem();
        let mut mc = Memcache::new();
        let a = PhysAddr::new(0x4000_1000);
        mc.push(&m, a);
        mc.pop(&m).unwrap();
        assert_eq!(m.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn peek_does_not_consume() {
        let m = mem();
        let mut mc = Memcache::new();
        for pfn in 1..=3u64 {
            mc.push(&m, PhysAddr::new(0x4000_0000 + pfn * 0x1000));
        }
        let pages = mc.peek_pages(&m);
        assert_eq!(pages.len(), 3);
        assert_eq!(mc.len(), 3);
    }

    #[test]
    fn drain_empties() {
        let m = mem();
        let mut mc = Memcache::new();
        mc.push(&m, PhysAddr::new(0x4000_1000));
        mc.push(&m, PhysAddr::new(0x4000_2000));
        assert_eq!(mc.drain(&m).len(), 2);
        assert!(mc.is_empty());
    }

    #[test]
    fn wipe_donated_spills_when_unaligned() {
        // The essence of real bug 1: zeroing from an unaligned "page"
        // crosses into the next physical page.
        let m = mem();
        let victim = PhysAddr::new(0x4000_2000);
        m.write_u64(victim, 0xdead_beef).unwrap();
        wipe_donated(&m, PhysAddr::new(0x4000_1800));
        assert_eq!(
            m.read_u64(victim).unwrap(),
            0,
            "spilled zeroing reached the next page"
        );
    }
}
