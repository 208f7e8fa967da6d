//! Logical page ownership and sharing state.
//!
//! pKVM tracks, for every physical page, a *logical owner* (the host, pKVM
//! itself, or a guest VM) and a sharing state. Both are encoded in
//! otherwise-unused page-table-entry bits:
//!
//! - the sharing state of a *mapped* page lives in the descriptor software
//!   bits \[56:55\] ([`PageState`]);
//! - the owner of an *unmapped* page (one the host no longer owns) is
//!   recorded as an annotation in the invalid descriptor of the host's
//!   stage 2 table ([`OwnerId`]).
//!
//! The ghost specification's central invariant — a partition of physical
//! memory into single-owner regions, some shared — is an abstraction of
//! exactly these bits.

use pkvm_aarch64::desc::Pte;

/// The sharing state of a mapped page, stored in PTE software bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageState {
    /// Exclusively owned by the entity whose table maps it.
    Owned = 0,
    /// Owned by this entity but currently shared with another.
    SharedOwned = 1,
    /// Mapped here but owned by (borrowed from) another entity.
    SharedBorrowed = 2,
}

impl PageState {
    /// Decodes the software bits of a mapped descriptor.
    ///
    /// The value 3 is unused by pKVM; we decode it as `None` so malformed
    /// states are distinguishable (and flaggable by the oracle).
    pub const fn from_sw(sw: u8) -> Option<PageState> {
        match sw & 0b11 {
            0 => Some(PageState::Owned),
            1 => Some(PageState::SharedOwned),
            2 => Some(PageState::SharedBorrowed),
            _ => None,
        }
    }

    /// Encodes into descriptor software bits.
    pub const fn to_sw(self) -> u8 {
        self as u8
    }
}

/// A logical owner identifier, as stored in invalid-descriptor annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u8);

impl OwnerId {
    /// The host Android kernel.
    pub const HOST: OwnerId = OwnerId(0);
    /// The pKVM hypervisor.
    pub const HYP: OwnerId = OwnerId(1);

    /// The owner id of the guest in VM-table slot `slot`.
    pub const fn guest(slot: usize) -> OwnerId {
        OwnerId(2 + slot as u8)
    }

    /// If this id denotes a guest, its VM-table slot.
    pub const fn guest_slot(self) -> Option<usize> {
        if self.0 >= 2 {
            Some((self.0 - 2) as usize)
        } else {
            None
        }
    }
}

impl core::fmt::Display for OwnerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            OwnerId::HOST => write!(f, "host"),
            OwnerId::HYP => write!(f, "hyp"),
            g => write!(f, "guest{}", g.0 - 2),
        }
    }
}

/// Builds the invalid descriptor annotating `owner` as the owner of an
/// unmapped range (identity annotation for the host is just a zero PTE).
pub fn annotation_pte(owner: OwnerId) -> Pte {
    if owner == OwnerId::HOST {
        Pte::invalid()
    } else {
        Pte::invalid_with_owner(owner.0)
    }
}

/// Reads the owner annotation of an invalid descriptor in the host table.
pub fn annotation_owner(pte: Pte) -> OwnerId {
    debug_assert!(!pte.is_valid());
    OwnerId(pte.invalid_owner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_state_roundtrip() {
        for s in [
            PageState::Owned,
            PageState::SharedOwned,
            PageState::SharedBorrowed,
        ] {
            assert_eq!(PageState::from_sw(s.to_sw()), Some(s));
        }
        assert_eq!(PageState::from_sw(3), None);
    }

    #[test]
    fn owner_ids() {
        assert_eq!(OwnerId::guest(0), OwnerId(2));
        assert_eq!(OwnerId::guest(5).guest_slot(), Some(5));
        assert_eq!(OwnerId::HOST.guest_slot(), None);
        assert_eq!(OwnerId::HYP.guest_slot(), None);
        assert_eq!(OwnerId::guest(1).to_string(), "guest1");
        assert_eq!(OwnerId::HYP.to_string(), "hyp");
    }

    #[test]
    fn annotation_roundtrip() {
        for owner in [OwnerId::HOST, OwnerId::HYP, OwnerId::guest(3)] {
            let pte = annotation_pte(owner);
            assert!(!pte.is_valid());
            assert_eq!(annotation_owner(pte), owner);
        }
    }
}
