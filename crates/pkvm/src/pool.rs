//! The hypervisor page allocator (`hyp_pool`).
//!
//! pKVM carves a region of memory out for itself at initialisation and
//! manages it with a buddy allocator plus per-page refcounts (the
//! `hyp_page` vmemmap). Translation tables for the hypervisor's own
//! stage 1 and for the host's stage 2 are allocated here; guest stage 2
//! tables instead come from per-vCPU memcaches donated by the host.
//!
//! The allocator is pure metadata: it hands out physical addresses, and
//! callers zero the memory through [`pkvm_aarch64::PhysMem`].

use pkvm_aarch64::addr::PhysAddr;

use crate::error::{Errno, HypResult};

/// Maximum buddy order (matches the kernel's `MAX_ORDER` for 4 KiB pages:
/// order 10 blocks are 4 MiB).
pub const MAX_ORDER: u8 = 10;

#[derive(Clone, Copy, Debug, Default)]
struct HypPage {
    refcount: u16,
    order: u8,
    free: bool,
}

/// A buddy allocator over a contiguous carveout of physical pages.
#[derive(Debug)]
pub struct HypPool {
    base_pfn: u64,
    nr_pages: u64,
    free_lists: Vec<Vec<u64>>, // per order, page indices relative to base
    meta: Vec<HypPage>,
    free_pages: u64,
}

impl HypPool {
    /// Creates a pool over `[base, base + nr_pages * 4K)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned.
    pub fn new(base: PhysAddr, nr_pages: u64) -> Self {
        assert!(base.is_page_aligned());
        let mut pool = Self {
            base_pfn: base.pfn(),
            nr_pages,
            free_lists: vec![Vec::new(); MAX_ORDER as usize + 1],
            meta: vec![HypPage::default(); nr_pages as usize],
            free_pages: 0,
        };
        // Seed the free lists with maximal aligned blocks.
        let mut idx = 0u64;
        while idx < nr_pages {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                // Block must be size-aligned relative to pfn 0 (hardware
                // block-mapping alignment) and fit in the carveout.
                if idx + size <= nr_pages && (pool.base_pfn + idx).is_multiple_of(size) {
                    break;
                }
                order -= 1;
            }
            pool.meta[idx as usize] = HypPage {
                refcount: 0,
                order,
                free: true,
            };
            pool.free_lists[order as usize].push(idx);
            pool.free_pages += 1 << order;
            idx += 1 << order;
        }
        pool
    }

    /// First page of the carveout.
    pub fn base(&self) -> PhysAddr {
        PhysAddr::from_pfn(self.base_pfn)
    }

    /// Total pages managed.
    pub fn nr_pages(&self) -> u64 {
        self.nr_pages
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Returns `true` if `pa` lies inside the carveout.
    pub fn owns(&self, pa: PhysAddr) -> bool {
        pa.pfn() >= self.base_pfn && pa.pfn() < self.base_pfn + self.nr_pages
    }

    fn idx_of(&self, pa: PhysAddr) -> u64 {
        debug_assert!(self.owns(pa));
        pa.pfn() - self.base_pfn
    }

    /// Allocates `2^order` contiguous pages, refcount 1.
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when no block of sufficient order is free.
    pub fn alloc_pages(&mut self, order: u8) -> HypResult<PhysAddr> {
        let mut have = order;
        while have <= MAX_ORDER && self.free_lists[have as usize].is_empty() {
            have += 1;
        }
        if have > MAX_ORDER {
            crate::cov::hit!("pool/oom");
            return Err(Errno::ENOMEM);
        }
        let idx = self.free_lists[have as usize].pop().expect("nonempty list");
        // Split down to the requested order, returning the upper halves.
        while have > order {
            have -= 1;
            let buddy = idx + (1 << have);
            self.meta[buddy as usize] = HypPage {
                refcount: 0,
                order: have,
                free: true,
            };
            self.free_lists[have as usize].push(buddy);
        }
        self.meta[idx as usize] = HypPage {
            refcount: 1,
            order,
            free: false,
        };
        self.free_pages -= 1 << order;
        crate::cov::hit!("pool/alloc");
        Ok(PhysAddr::from_pfn(self.base_pfn + idx))
    }

    /// Allocates a single page (`order` 0).
    ///
    /// # Errors
    ///
    /// Returns `ENOMEM` when the pool is exhausted.
    pub fn alloc_page(&mut self) -> HypResult<PhysAddr> {
        self.alloc_pages(0)
    }

    /// Drops a reference to the block at `pa`; frees and merges buddies
    /// when the refcount reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not an allocated block head in this pool.
    pub fn put_page(&mut self, pa: PhysAddr) {
        let idx = self.idx_of(pa);
        let page = &mut self.meta[idx as usize];
        assert!(
            !page.free && page.refcount > 0,
            "put_page on free page {pa}"
        );
        page.refcount -= 1;
        if page.refcount == 0 {
            let order = page.order;
            self.free_block(idx, order);
        }
    }

    /// Takes an additional reference to the block at `pa`.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is not an allocated block head.
    pub fn get_page(&mut self, pa: PhysAddr) {
        let idx = self.idx_of(pa);
        let page = &mut self.meta[idx as usize];
        assert!(
            !page.free && page.refcount > 0,
            "get_page on free page {pa}"
        );
        page.refcount += 1;
    }

    /// Current refcount of the block at `pa` (0 if free).
    pub fn refcount(&self, pa: PhysAddr) -> u16 {
        let idx = self.idx_of(pa);
        let page = self.meta[idx as usize];
        if page.free {
            0
        } else {
            page.refcount
        }
    }

    fn free_block(&mut self, mut idx: u64, mut order: u8) {
        self.free_pages += 1 << order;
        // Merge with the buddy while it is free and of the same order.
        while order < MAX_ORDER {
            let buddy = idx ^ (1 << order);
            if buddy >= self.nr_pages {
                break;
            }
            let bmeta = self.meta[buddy as usize];
            if !(bmeta.free && bmeta.order == order) {
                break;
            }
            // Detach the buddy from its free list.
            let list = &mut self.free_lists[order as usize];
            let pos = list
                .iter()
                .position(|&i| i == buddy)
                .expect("buddy on free list");
            list.swap_remove(pos);
            self.meta[buddy as usize].free = false;
            idx = idx.min(buddy);
            order += 1;
        }
        self.meta[idx as usize] = HypPage {
            refcount: 0,
            order,
            free: true,
        };
        self.free_lists[order as usize].push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> HypPool {
        HypPool::new(PhysAddr::new(0x4400_0000), 1024)
    }

    #[test]
    fn fresh_pool_is_all_free() {
        let p = pool();
        assert_eq!(p.free_pages(), 1024);
        assert_eq!(p.nr_pages(), 1024);
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut p = pool();
        let a = p.alloc_page().unwrap();
        let b = p.alloc_page().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free_pages(), 1022);
        p.put_page(a);
        p.put_page(b);
        assert_eq!(p.free_pages(), 1024);
    }

    #[test]
    fn buddies_merge_back_to_max_order() {
        let mut p = pool();
        let mut pages = Vec::new();
        for _ in 0..1024 {
            pages.push(p.alloc_page().unwrap());
        }
        assert_eq!(p.free_pages(), 0);
        assert!(p.alloc_page().is_err());
        for pa in pages {
            p.put_page(pa);
        }
        assert_eq!(p.free_pages(), 1024);
        // After full free+merge, a max-order allocation must succeed again.
        assert!(p.alloc_pages(MAX_ORDER).is_ok());
    }

    #[test]
    fn higher_order_allocations_are_aligned() {
        let mut p = pool();
        let a = p.alloc_pages(4).unwrap();
        assert_eq!(a.pfn() % 16, 0);
        assert_eq!(p.free_pages(), 1024 - 16);
        p.put_page(a);
    }

    #[test]
    fn refcounting_defers_free() {
        let mut p = pool();
        let a = p.alloc_page().unwrap();
        p.get_page(a);
        assert_eq!(p.refcount(a), 2);
        p.put_page(a);
        assert_eq!(p.refcount(a), 1);
        assert_eq!(p.free_pages(), 1023);
        p.put_page(a);
        assert_eq!(p.refcount(a), 0);
        assert_eq!(p.free_pages(), 1024);
    }

    #[test]
    fn exhaustion_returns_enomem() {
        let mut p = HypPool::new(PhysAddr::new(0x4400_0000), 2);
        assert!(p.alloc_pages(MAX_ORDER).is_err());
        p.alloc_page().unwrap();
        p.alloc_page().unwrap();
        assert_eq!(p.alloc_page(), Err(Errno::ENOMEM));
    }

    #[test]
    #[should_panic(expected = "put_page on free page")]
    fn double_free_panics() {
        let mut p = pool();
        let a = p.alloc_page().unwrap();
        p.put_page(a);
        p.put_page(a);
    }

    #[test]
    fn unaligned_carveout_still_covers_all_pages() {
        // A carveout whose base is not max-order aligned.
        let p = HypPool::new(PhysAddr::new(0x4400_3000), 100);
        assert_eq!(p.free_pages(), 100);
    }
}
