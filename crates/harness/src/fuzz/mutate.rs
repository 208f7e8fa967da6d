//! Structure-aware mutation of driver-event sequences.
//!
//! An input is a flat list of driver events, but it has structure: runs
//! of setup events (parameter-page writes, queued guest ops) terminated
//! by a trap-taking op (a hypercall or a host stage-2 access) form *op
//! groups*, each corresponding to one trap. Every mutator cuts only at
//! group boundaries, so a mutated sequence never orphans setup events
//! mid-group — truncation and splicing preserve trap-boundary
//! well-formedness by construction. The `insert` mutator grows inputs
//! with model-plausible ops: it replays the prefix on a throwaway
//! machine, then lets a fresh
//! [`RandomTester`](crate::random::RandomTester) (optionally with a
//! biased per-op weight mix) drive a handful of steps whose recorded
//! driver events are spliced in. Parameter mutation perturbs hypercall
//! arguments with values harvested from the sequence itself, biased
//! toward handle- and pfn-shaped constants.

use std::ops::Range;

use pkvm_ghost::event::{Event, EventRecord};
use pkvm_hyp::hypercalls::ALL_HOST_CALLS;

use crate::proxy::Proxy;
use crate::random::{RandomCfg, OP_NAMES};
use crate::rng::{Rng, SliceChoose};

use super::{apply_driver, extend_with_random_steps, FuzzCfg};

/// The mutation families the fuzzer draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// Keep a group-aligned prefix.
    Truncate,
    /// Prefix of one seed + suffix of another, cut at group boundaries.
    Splice,
    /// Insert freshly generated model-plausible ops at a boundary.
    InsertOps,
    /// Perturb one op's parameters in place.
    MutateParams,
}

impl MutationKind {
    /// Every family.
    pub const ALL: [MutationKind; 4] = [
        MutationKind::Truncate,
        MutationKind::Splice,
        MutationKind::InsertOps,
        MutationKind::MutateParams,
    ];

    /// Stable lowercase tag.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::Truncate => "truncate",
            MutationKind::Splice => "splice",
            MutationKind::InsertOps => "insert-ops",
            MutationKind::MutateParams => "mutate-params",
        }
    }
}

/// `true` for the driver events that take a trap (and hence terminate an
/// op group): hypercalls and host stage-2 accesses.
pub fn is_trap_boundary(event: &Event) -> bool {
    matches!(event, Event::Hvc { .. } | Event::HostAccess { .. })
}

/// Splits a driver-event sequence into op groups: each range covers a
/// (possibly empty) run of setup events plus its terminating trap op. A
/// trailing run with no terminator — possible only in hand-built inputs —
/// forms a final, unterminated group.
pub fn op_groups(events: &[EventRecord]) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0;
    for (i, r) in events.iter().enumerate() {
        if is_trap_boundary(&r.event) {
            groups.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < events.len() {
        groups.push(start..events.len());
    }
    groups
}

/// A sequence is well-formed when it contains only driver events and
/// every op group ends in a trap boundary (no orphaned setup run).
pub fn is_well_formed(events: &[EventRecord]) -> bool {
    events.iter().all(|r| r.event.is_driver())
        && op_groups(events)
            .iter()
            .all(|g| is_trap_boundary(&events[g.end - 1].event))
}

/// Reassigns contiguous sequence numbers (mutation splices records from
/// different recordings; replay only cares about order, but tooling
/// reads `seq` as a step index).
pub fn renumber(mut events: Vec<EventRecord>) -> Vec<EventRecord> {
    for (i, r) in events.iter_mut().enumerate() {
        r.seq = i as u64;
    }
    events
}

/// Keeps a strict group-aligned prefix (identity on 0- and 1-group
/// inputs).
pub fn truncate(events: &[EventRecord], rng: &mut Rng) -> Vec<EventRecord> {
    let groups = op_groups(events);
    if groups.len() <= 1 {
        return renumber(events.to_vec());
    }
    let keep = rng.gen_range(1..groups.len() as u64) as usize;
    renumber(events[..groups[keep - 1].end].to_vec())
}

/// A group-aligned prefix of `a` followed by a group-aligned suffix of
/// `b`. Either side may contribute zero groups.
pub fn splice(a: &[EventRecord], b: &[EventRecord], rng: &mut Rng) -> Vec<EventRecord> {
    let ga = op_groups(a);
    let gb = op_groups(b);
    if gb.is_empty() {
        return renumber(a.to_vec());
    }
    let cut_a = rng.gen_range(0..=ga.len() as u64) as usize;
    let cut_b = rng.gen_range(0..gb.len() as u64) as usize;
    let prefix_end = if cut_a == 0 { 0 } else { ga[cut_a - 1].end };
    let mut out = a[..prefix_end].to_vec();
    out.extend_from_slice(&b[gb[cut_b].start..]);
    renumber(out)
}

/// Inserts freshly generated model-plausible ops at a group boundary:
/// the prefix replays on a throwaway oracle-free machine so the
/// generator starts from the state the prefix actually produces, then a
/// fresh model-guided tester drives 1–48 steps — half the time with one
/// op's weight boosted to skew the mix (the per-op `op_weights` knob) —
/// and its recorded driver events are spliced in before the suffix.
pub fn insert_ops(cfg: &FuzzCfg, events: &[EventRecord], rng: &mut Rng) -> Vec<EventRecord> {
    let groups = op_groups(events);
    let cut = rng.gen_range(0..=groups.len() as u64) as usize;
    let boundary = if cut == 0 { 0 } else { groups[cut - 1].end };
    let proxy = Proxy::builder()
        .config(cfg.config.clone())
        .with_oracle(false)
        .record(true)
        .boot();
    apply_driver(&proxy.machine, &events[..boundary]);
    // Anything the prefix replay emitted is context, not new input.
    let _ = proxy.events().take_events();
    let mut rcfg = RandomCfg::builder()
        .seed(rng.gen_u64())
        .invalid_fraction(cfg.invalid_fraction);
    if rng.gen_bool(0.5) {
        let op = OP_NAMES.choose(rng).expect("nonempty");
        rcfg = rcfg.op_weight(op, 60.0);
    }
    let steps = rng.gen_range(1..=48u64);
    let fresh = extend_with_random_steps(proxy, rcfg.build(), steps);
    let mut out = events[..boundary].to_vec();
    out.extend(fresh);
    out.extend_from_slice(&events[boundary..]);
    renumber(out)
}

/// Perturbs one op's parameters in place: a hypercall argument (or
/// function id), a host-access address, a parameter-page value, or a
/// guest-op target. Replacement values come from the sequence itself
/// (arguments other ops used — handles, pfns), from bit flips and small
/// deltas, or from handle-/pfn-shaped constants.
pub fn mutate_params(events: &[EventRecord], rng: &mut Rng) -> Vec<EventRecord> {
    let mut out = events.to_vec();
    let candidates: Vec<usize> = out
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            matches!(
                r.event,
                Event::Hvc { .. } | Event::HostAccess { .. } | Event::WriteMem { .. }
            )
        })
        .map(|(i, _)| i)
        .collect();
    let Some(&i) = candidates.choose(rng) else {
        return renumber(out);
    };
    let harvest: Vec<u64> = events
        .iter()
        .flat_map(|r| match &r.event {
            Event::Hvc { args, .. } => args.clone(),
            Event::WriteMem { value, .. } => vec![*value],
            Event::HostAccess { addr, .. } => vec![*addr],
            _ => Vec::new(),
        })
        .collect();
    match &mut out[i].event {
        Event::Hvc { func, args, .. } => {
            if args.is_empty() || rng.gen_bool(0.15) {
                // Retarget the call instead: another ABI function keeps
                // the arguments, exercising its argument checks.
                *func = *ALL_HOST_CALLS.choose(rng).expect("nonempty");
            } else {
                let j = rng.gen_range(0..args.len());
                args[j] = twiddle(args[j], &harvest, rng);
            }
        }
        Event::HostAccess { addr, .. } => *addr = twiddle(*addr, &harvest, rng),
        Event::WriteMem { value, .. } => *value = twiddle(*value, &harvest, rng),
        _ => unreachable!("candidates filter"),
    }
    renumber(out)
}

/// One mutated value: bit flip, small delta, harvested neighbour, or an
/// interesting constant.
fn twiddle(v: u64, harvest: &[u64], rng: &mut Rng) -> u64 {
    const INTERESTING: [u64; 8] = [
        0,
        1,
        u64::MAX,
        0x1000,           // handle-shaped
        0x1001,           // the next handle over
        0x40000,          // DRAM pfn
        0x9000,           // MMIO pfn
        0x0040_0000_0000, // beyond any mapped range
    ];
    match rng.gen_range(0..4u32) {
        0 => v ^ (1 << rng.gen_range(0..64u64)),
        1 => v.wrapping_add(rng.gen_range(0..9u64)).wrapping_sub(4),
        2 => harvest
            .choose(rng)
            .copied()
            .unwrap_or_else(|| rng.gen_u64()),
        _ => *INTERESTING.choose(rng).expect("nonempty"),
    }
}

/// Caps an input to at most `max` events, cutting at a group boundary.
pub fn cap_len(events: Vec<EventRecord>, max: usize) -> Vec<EventRecord> {
    if events.len() <= max {
        return events;
    }
    let mut end = 0;
    for g in op_groups(&events) {
        if g.end > max {
            break;
        }
        end = g.end;
    }
    renumber(events[..end].to_vec())
}
