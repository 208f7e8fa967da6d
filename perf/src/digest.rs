//! Traffic digests: FNV-1a over the driver-event schedule, so a change
//! that alters what a workload sends fails as a workload change instead
//! of reading as a speed-up.

use pkvm_aarch64::walk::Access;
use pkvm_ghost::event::Event;
use pkvm_hyp::vm::GuestOp;

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Folds one driver event (tag plus every argument); observation
    /// events are not part of a schedule and are skipped.
    pub fn event(&mut self, ev: &Event) {
        match ev {
            Event::Hvc { cpu, func, args } => {
                self.u64(1);
                self.u64(*cpu as u64);
                self.u64(*func);
                self.u64(args.len() as u64);
                args.iter().for_each(|&a| self.u64(a));
            }
            Event::WriteMem { pa, value } => {
                self.u64(2);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::CorruptMem { pa, value } => {
                self.u64(3);
                self.u64(*pa);
                self.u64(*value);
            }
            Event::HostAccess { cpu, addr, access } => {
                self.u64(4);
                self.u64(*cpu as u64);
                self.u64(*addr);
                self.u64(match access {
                    Access::Read => 0,
                    Access::Write => 1,
                    Access::Exec => 2,
                });
            }
            Event::PushGuestOp { handle, idx, op } => {
                self.u64(5);
                self.u64(u64::from(*handle));
                self.u64(*idx as u64);
                let (tag, a, b) = match *op {
                    GuestOp::Read(a) => (0, a, 0),
                    GuestOp::Write(a, v) => (1, a, v),
                    GuestOp::HvcShareHost(a) => (2, a, 0),
                    GuestOp::HvcUnshareHost(a) => (3, a, 0),
                    GuestOp::Wfi => (4, 0, 0),
                };
                self.u64(tag);
                self.u64(a);
                self.u64(b);
            }
            _ => {}
        }
    }
}

/// The digest of a schedule's driver events, in order.
pub fn schedule<'a>(events: impl IntoIterator<Item = &'a Event>) -> u64 {
    let mut h = Fnv::default();
    for ev in events {
        h.event(ev);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned_and_skips_observations() {
        let events = [
            Event::Hvc {
                cpu: 1,
                func: 0xc600_0002,
                args: vec![0x40100],
            },
            Event::TrapEnter { cpu: 1 },
            Event::WriteMem {
                pa: 0x4000_0000,
                value: 7,
            },
            Event::HostAccess {
                cpu: 0,
                addr: 0x4010_0000,
                access: Access::Write,
            },
            Event::PushGuestOp {
                handle: 0x1000,
                idx: 0,
                op: GuestOp::Write(0x10_000, 3),
            },
        ];
        let d = schedule(&events);
        // Pinned: a change to the encoding changes every workload pin.
        assert_eq!(d, 0x13b2_7d50_ed3b_2cc1, "digest {d:#x}");
        let drivers: Vec<Event> = events.iter().filter(|e| e.is_driver()).cloned().collect();
        assert_eq!(schedule(&drivers), d);
        let mut swapped = drivers.clone();
        swapped.swap(0, 1);
        assert_ne!(schedule(&swapped), d);
    }
}
