//! The model-guided random tester (§5 "Random testing").
//!
//! Each step proposes an API call: usually a *plausible* one built from
//! the [`TestModel`] (so runs make progress through the state machine —
//! VMs get created, vCPUs loaded, pages donated and reclaimed), sometimes
//! a deliberately arbitrary one (to exercise the error checks). Steps the
//! model predicts would "crash the host" — in the simulation, host
//! accesses to pages whose ownership was given away — are rejected before
//! execution, resolving the paper's tension between randomness and
//! effective testing.

use std::collections::HashMap;

use crate::rng::{Rng, SliceChoose};

use pkvm_aarch64::addr::PAGE_SIZE;
use pkvm_aarch64::walk::Access;
use pkvm_hyp::hypercalls::*;
use pkvm_hyp::vm::GuestOp;

use crate::model::{PageUse, TestModel};
use crate::proxy::Proxy;

/// The named operations the tester chooses between, in the order
/// [`RandomCfg::op_weights`] indexes them. The names match the per-op keys
/// in [`RunStats::per_op`].
pub const OP_NAMES: [&str; 16] = [
    "alloc",
    "share",
    "unshare",
    "init_vm",
    "init_vcpu",
    "vcpu_load",
    "vcpu_put",
    "topup",
    "map_guest",
    "vcpu_run",
    "vcpu_regs",
    "teardown",
    "reclaim",
    "host_access",
    "firmware",
    "topup_oversized",
];

/// The default call mix (same proportions the tester has always used,
/// plus small weights for the Android-surface ops).
pub const DEFAULT_OP_WEIGHTS: [f64; OP_NAMES.len()] = [
    20.0, 25.0, 15.0, 6.0, 8.0, 8.0, 5.0, 10.0, 12.0, 12.0, 4.0, 3.0, 6.0, 15.0, 2.0, 1.0,
];

/// Random tester configuration.
#[derive(Clone, Debug)]
pub struct RandomCfg {
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Fraction of steps that issue arbitrary (fuzzed) calls.
    pub invalid_fraction: f64,
    /// Cap on simultaneously live VMs.
    pub max_vms: usize,
    /// Cap on pages the tester allocates.
    pub max_pages: usize,
    /// Pin every issued call to this CPU (campaign workers set it so each
    /// worker drives its own simulated hardware thread).
    pub pin_cpu: Option<usize>,
    /// Relative weight of each operation in [`OP_NAMES`] order. The fuzzer
    /// biases these to steer the call mix; the builder sanitises them the
    /// way it sanitises `invalid_fraction` (see
    /// [`RandomCfgBuilder::build`]).
    pub op_weights: [f64; OP_NAMES.len()],
}

impl Default for RandomCfg {
    fn default() -> Self {
        Self {
            seed: 0xdeadbeef,
            invalid_fraction: 0.15,
            max_vms: 4,
            max_pages: 512,
            pin_cpu: None,
            op_weights: DEFAULT_OP_WEIGHTS,
        }
    }
}

impl RandomCfg {
    /// Starts a builder from the defaults.
    pub fn builder() -> RandomCfgBuilder {
        RandomCfgBuilder(RandomCfg::default())
    }
}

/// Builder for [`RandomCfg`].
#[derive(Clone, Debug, Default)]
pub struct RandomCfgBuilder(RandomCfg);

impl RandomCfgBuilder {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Sets the fraction of fuzzed (arbitrary-argument) steps.
    pub fn invalid_fraction(mut self, f: f64) -> Self {
        self.0.invalid_fraction = f;
        self
    }

    /// Caps simultaneously live VMs.
    pub fn max_vms(mut self, n: usize) -> Self {
        self.0.max_vms = n;
        self
    }

    /// Caps pages the tester allocates.
    pub fn max_pages(mut self, n: usize) -> Self {
        self.0.max_pages = n;
        self
    }

    /// Pins every issued call to one CPU.
    pub fn pin_cpu(mut self, cpu: usize) -> Self {
        self.0.pin_cpu = Some(cpu);
        self
    }

    /// Replaces the whole call mix ([`OP_NAMES`] order).
    pub fn op_weights(mut self, weights: [f64; OP_NAMES.len()]) -> Self {
        self.0.op_weights = weights;
        self
    }

    /// Overrides the weight of one operation by its [`OP_NAMES`] name.
    /// Unknown names panic — a misspelt op is a bug at the call site, not
    /// a value to sanitise.
    pub fn op_weight(mut self, name: &str, weight: f64) -> Self {
        let i = OP_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown op name {name:?}"));
        self.0.op_weights[i] = weight;
        self
    }

    /// Finishes the builder. `invalid_fraction` is sanitised here: NaN
    /// falls back to the default, anything else is clamped into [0, 1] —
    /// `gen_bool` otherwise silently skews (NaN compares false against
    /// everything, so `NaN` would mean "never fuzz" while `1.7` would
    /// mean "always fuzz" without saying so). `op_weights` get the same
    /// treatment: negatives clamp to zero, and a mix containing NaN or
    /// summing to zero (or not summing at all — an infinity swallows every
    /// other weight) falls back to uniform rather than silently skewing
    /// the weighted pick.
    pub fn build(mut self) -> RandomCfg {
        let f = self.0.invalid_fraction;
        self.0.invalid_fraction = if f.is_nan() {
            RandomCfg::default().invalid_fraction
        } else {
            f.clamp(0.0, 1.0)
        };
        let w = &mut self.0.op_weights;
        let bad = w.iter().any(|x| x.is_nan());
        for x in w.iter_mut() {
            *x = x.max(0.0);
        }
        let total: f64 = w.iter().sum();
        if bad || !total.is_finite() || total <= 0.0 {
            *w = [1.0; OP_NAMES.len()];
        }
        self.0
    }
}

/// Counters for one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Hypercalls actually issued.
    pub calls: u64,
    /// Calls that returned success.
    pub ok: u64,
    /// Calls that returned an error.
    pub errs: u64,
    /// Steps rejected by the crash predictor.
    pub rejected: u64,
    /// Host memory accesses performed.
    pub host_accesses: u64,
    /// Per-operation counts.
    pub per_op: HashMap<&'static str, u64>,
}

impl RunStats {
    /// Folds another run's counters into this one (campaign aggregation).
    pub fn merge(&mut self, other: &RunStats) {
        self.calls += other.calls;
        self.ok += other.ok;
        self.errs += other.errs;
        self.rejected += other.rejected;
        self.host_accesses += other.host_accesses;
        for (op, n) in &other.per_op {
            *self.per_op.entry(op).or_insert(0) += n;
        }
    }

    fn bump(&mut self, op: &'static str, ok: bool) {
        self.calls += 1;
        if ok {
            self.ok += 1;
        } else {
            self.errs += 1;
        }
        *self.per_op.entry(op).or_insert(0) += 1;
    }
}

/// The random tester: owns the proxy and its generator model.
pub struct RandomTester {
    /// The system under test.
    pub proxy: Proxy,
    /// The generator's abstract model.
    pub model: TestModel,
    /// Run counters.
    pub stats: RunStats,
    cfg: RandomCfg,
    rng: Rng,
}

impl RandomTester {
    /// Wraps `proxy` with a fresh model and RNG.
    pub fn new(proxy: Proxy, cfg: RandomCfg) -> RandomTester {
        let model = TestModel::new(proxy.machine.nr_cpus());
        let rng = Rng::seed_from_u64(cfg.seed);
        RandomTester {
            proxy,
            model,
            stats: RunStats::default(),
            cfg,
            rng,
        }
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Executes one randomly chosen step.
    pub fn step(&mut self) {
        if self.rng.gen_bool(self.cfg.invalid_fraction) {
            self.fuzz_step();
            return;
        }
        // Weighted choice over plausible operations ([`OP_NAMES`] order,
        // weights from the config so the fuzzer can bias the mix).
        const OPS: [fn(&mut RandomTester); OP_NAMES.len()] = [
            RandomTester::op_alloc,
            RandomTester::op_share,
            RandomTester::op_unshare,
            RandomTester::op_init_vm,
            RandomTester::op_init_vcpu,
            RandomTester::op_vcpu_load,
            RandomTester::op_vcpu_put,
            RandomTester::op_topup,
            RandomTester::op_map_guest,
            RandomTester::op_guest_step,
            RandomTester::op_vcpu_regs,
            RandomTester::op_teardown,
            RandomTester::op_reclaim,
            RandomTester::op_host_access,
            RandomTester::op_firmware,
            RandomTester::op_topup_oversized,
        ];
        let total: f64 = self.cfg.op_weights.iter().sum();
        let mut pick = self.rng.gen_f64() * total;
        for (i, f) in OPS.iter().enumerate() {
            pick -= self.cfg.op_weights[i];
            if pick < 0.0 {
                f(self);
                return;
            }
        }
        // Floating-point slack can leave `pick` at exactly 0 after the
        // last subtraction; fall through to the last weighted op.
        let last = self
            .cfg
            .op_weights
            .iter()
            .rposition(|&w| w > 0.0)
            .unwrap_or(OPS.len() - 1);
        OPS[last](self);
    }

    fn rand_cpu(&mut self) -> usize {
        match self.cfg.pin_cpu {
            Some(c) => c,
            None => self.rng.gen_range(0..self.proxy.machine.nr_cpus()),
        }
    }

    /// A CPU with no loaded vCPU — the pinned CPU when pinning, so a
    /// campaign worker never loads onto another worker's thread.
    fn pick_idle_cpu(&mut self) -> Option<usize> {
        match self.cfg.pin_cpu {
            Some(c) => (self.model.loaded.get(c) == Some(&None)).then_some(c),
            None => self.rng.choose_from(self.model.idle_cpus()),
        }
    }

    /// A CPU with a loaded vCPU — the pinned CPU when pinning.
    fn pick_busy_cpu(&mut self) -> Option<usize> {
        match self.cfg.pin_cpu {
            Some(c) => matches!(self.model.loaded.get(c), Some(Some(_))).then_some(c),
            None => self.rng.choose_from(self.model.busy_cpus()),
        }
    }

    fn op_alloc(&mut self) {
        if self.model.pages.len() >= self.cfg.max_pages {
            return;
        }
        let Some(pfn) = self.proxy.try_alloc_pages(1) else {
            return;
        };
        self.model.add_page(pfn);
        *self.stats.per_op.entry("alloc").or_insert(0) += 1;
    }

    fn op_share(&mut self) {
        let Some(pfn) = self.model.pick(PageUse::Free, &mut self.rng) else {
            return;
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.share(cpu, pfn).is_ok();
        if ok {
            self.model.set_page(pfn, PageUse::SharedHyp);
        }
        self.stats.bump("share", ok);
    }

    fn op_unshare(&mut self) {
        let Some(pfn) = self.model.pick(PageUse::SharedHyp, &mut self.rng) else {
            return;
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.unshare(cpu, pfn).is_ok();
        if ok {
            self.model.set_page(pfn, PageUse::Free);
        }
        self.stats.bump("unshare", ok);
    }

    fn op_init_vm(&mut self) {
        if self.model.vms.len() >= self.cfg.max_vms {
            return;
        }
        let nr_vcpus = self.rng.gen_range(1..=2u64);
        let protected = self.rng.gen_bool(0.7);
        let cpu = self.rand_cpu();
        match self.proxy.init_vm(cpu, nr_vcpus, protected) {
            Ok(handle) => {
                self.model.add_vm(handle, nr_vcpus as usize, protected);
                self.stats.bump("init_vm", true);
            }
            Err(_) => self.stats.bump("init_vm", false),
        }
    }

    fn op_init_vcpu(&mut self) {
        let candidates = self.model.vms.iter().flat_map(|v| {
            v.vcpus
                .iter()
                .enumerate()
                .filter(|(_, vc)| !vc.initialized)
                .map(move |(i, _)| (v.handle, i))
        });
        let Some((handle, idx)) = self.rng.choose_from(candidates) else {
            return;
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.init_vcpu(cpu, handle, idx as u64).is_ok();
        if ok {
            // The model may have been desynced by fuzzed calls; update
            // defensively.
            if let Some(vm) = self.model.vm_mut(handle) {
                if let Some(vc) = vm.vcpus.get_mut(idx) {
                    vc.initialized = true;
                }
            }
        }
        self.stats.bump("init_vcpu", ok);
    }

    fn op_vcpu_load(&mut self) {
        let Some(cpu) = self.pick_idle_cpu() else {
            return;
        };
        let candidates = self.model.vms.iter().flat_map(|v| {
            v.vcpus
                .iter()
                .enumerate()
                .filter(|(_, vc)| vc.initialized && vc.loaded_on.is_none())
                .map(move |(i, _)| (v.handle, i))
        });
        let Some((handle, idx)) = self.rng.choose_from(candidates) else {
            return;
        };
        let ok = self.proxy.vcpu_load(cpu, handle, idx as u64).is_ok();
        if ok {
            if let Some(vc) = self.model.vm_mut(handle).and_then(|v| v.vcpus.get_mut(idx)) {
                vc.loaded_on = Some(cpu);
            }
            self.model.loaded[cpu] = Some((handle, idx));
        }
        self.stats.bump("vcpu_load", ok);
    }

    fn op_vcpu_put(&mut self) {
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let ok = self.proxy.vcpu_put(cpu).is_ok();
        if ok {
            if let Some((handle, idx)) = self.model.loaded[cpu].take() {
                if let Some(vc) = self.model.vm_mut(handle).and_then(|v| v.vcpus.get_mut(idx)) {
                    vc.loaded_on = None;
                }
            }
        }
        self.stats.bump("vcpu_put", ok);
    }

    fn op_topup(&mut self) {
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let nr = self.rng.gen_range(1..=8u64);
        // Use fresh pages and register them as donated to the VM.
        let (handle, _) = self.model.loaded[cpu].expect("busy cpu");
        let Some(pfn) = self.proxy.try_alloc_pages(nr) else {
            return;
        };
        let ok = self.proxy.topup_raw(cpu, pfn << 12, nr).is_ok();
        for i in 0..nr {
            self.model.add_page(pfn + i);
            if ok {
                self.model
                    .set_page(pfn + i, PageUse::Donated { vm: handle });
            }
        }
        if ok {
            if let Some((h, idx)) = self.model.loaded[cpu] {
                if let Some(vm) = self.model.vm_mut(h) {
                    vm.vcpus[idx].memcache += nr;
                }
            }
        }
        self.stats.bump("topup", ok);
    }

    fn op_map_guest(&mut self) {
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let (handle, _idx) = self.model.loaded[cpu].expect("busy cpu");
        let Some(pfn) = self.model.pick(PageUse::Free, &mut self.rng) else {
            return;
        };
        let gfn = {
            let Some(vm) = self.model.vm_mut(handle) else {
                return;
            };
            let g = vm.next_gfn;
            vm.next_gfn += 1;
            g
        };
        let ok = self.proxy.map_guest_pfn(cpu, pfn, gfn).is_ok();
        if ok {
            self.model
                .set_page(pfn, PageUse::GuestMapped { vm: handle, gfn });
            if let Some(vm) = self.model.vm_mut(handle) {
                vm.mapped.push((gfn, pfn));
            }
        }
        self.stats.bump("map_guest", ok);
    }

    fn op_guest_step(&mut self) {
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let (handle, idx) = self.model.loaded[cpu].expect("busy cpu");
        let Some(vm) = self.model.vm(handle) else {
            return;
        };
        // Choose a guest action over its mapped/shared frames.
        let op = match self.rng.gen_range(0..5u32) {
            0 => vm
                .mapped
                .choose(&mut self.rng)
                .map(|&(g, _)| GuestOp::Read(g * PAGE_SIZE)),
            1 => {
                let v = self.rng.gen_u64();
                vm.mapped
                    .choose(&mut self.rng)
                    .map(|&(g, _)| GuestOp::Write(g * PAGE_SIZE, v))
            }
            2 => {
                let sharable = vm
                    .mapped
                    .iter()
                    .map(|&(g, _)| g)
                    .filter(|g| !vm.guest_shared.contains(g));
                self.rng
                    .choose_from(sharable)
                    .map(|g| GuestOp::HvcShareHost(g * PAGE_SIZE))
            }
            3 => vm
                .guest_shared
                .choose(&mut self.rng)
                .map(|&g| GuestOp::HvcUnshareHost(g * PAGE_SIZE)),
            _ => Some(GuestOp::Wfi),
        };
        let Some(op) = op else { return };
        if self.proxy.push_guest_op(handle, idx, op).is_err() {
            return;
        }
        let r = self.proxy.vcpu_run(cpu);
        let ok = r.is_ok();
        if ok {
            match op {
                GuestOp::HvcShareHost(gipa) => {
                    if let Some(vm) = self.model.vm_mut(handle) {
                        vm.guest_shared.push(gipa / PAGE_SIZE);
                    }
                }
                GuestOp::HvcUnshareHost(gipa) => {
                    if let Some(vm) = self.model.vm_mut(handle) {
                        vm.guest_shared.retain(|&g| g != gipa / PAGE_SIZE);
                    }
                }
                _ => {}
            }
        }
        self.stats.bump("vcpu_run", ok);
    }

    fn op_vcpu_regs(&mut self) {
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let n = self.rng.gen_range(0..31u64);
        let v = self.rng.gen_u64();
        let set_ok = self.proxy.vcpu_set_reg(cpu, n, v).is_ok();
        let get = self.proxy.vcpu_get_reg(cpu, n);
        self.stats.bump("vcpu_regs", set_ok && get == Ok(v));
    }

    fn op_teardown(&mut self) {
        let candidates = self
            .model
            .vms
            .iter()
            .filter(|v| v.vcpus.iter().all(|vc| vc.loaded_on.is_none()))
            .map(|v| v.handle);
        let Some(handle) = self.rng.choose_from(candidates) else {
            return;
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.teardown(cpu, handle).is_ok();
        if ok {
            self.model.teardown_vm(handle);
        }
        self.stats.bump("teardown", ok);
    }

    fn op_reclaim(&mut self) {
        let Some(pfn) = self.model.pick(PageUse::Reclaimable, &mut self.rng) else {
            return;
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.reclaim(cpu, pfn).is_ok();
        if ok {
            self.model.set_page(pfn, PageUse::Free);
            // Read the page straight back: reclaim must have wiped it, so
            // this gives the oracle an observation point right where
            // `SynReclaimSkipsWipe` would leave guest data behind.
            let _ = self.proxy.host_access(cpu, pfn * PAGE_SIZE, Access::Read);
            self.stats.host_accesses += 1;
        }
        self.stats.bump("reclaim", ok);
    }

    fn op_host_access(&mut self) {
        // Pick a page and reject the access if the model predicts a fault
        // (the "crash the host" analog).
        let Some(&(pfn, _)) = self.model.pages.choose(&mut self.rng) else {
            return;
        };
        if self.model.host_access_would_fault(pfn) {
            self.stats.rejected += 1;
            return;
        }
        let cpu = self.rand_cpu();
        let access = if self.rng.gen_bool(0.5) {
            Access::Read
        } else {
            Access::Write
        };
        let _ = self.proxy.host_access(cpu, pfn * PAGE_SIZE, access);
        self.stats.host_accesses += 1;
    }

    fn op_firmware(&mut self) {
        // pvmfw-style protected boot: donate a small firmware region into
        // a protected VM before any vCPU is initialised. The host loses
        // the pages permanently, even across teardown.
        if self.model.pages.len() >= self.cfg.max_pages {
            return;
        }
        let candidates = self
            .model
            .vms
            .iter()
            .filter(|v| v.protected && v.vcpus.iter().all(|vc| !vc.initialized))
            .map(|v| v.handle);
        let Some(handle) = self.rng.choose_from(candidates) else {
            return;
        };
        let nr = self.rng.gen_range(1..=4u64);
        let Some(pfn) = self.proxy.try_alloc_pages(nr) else {
            return;
        };
        let gfn = {
            let Some(vm) = self.model.vm_mut(handle) else {
                return;
            };
            let g = vm.next_gfn;
            vm.next_gfn += nr;
            g
        };
        let cpu = self.rand_cpu();
        let ok = self.proxy.load_firmware(cpu, handle, pfn, gfn, nr).is_ok();
        for i in 0..nr {
            self.model.add_page(pfn + i);
            if ok {
                self.model.set_page(pfn + i, PageUse::Firmware);
            }
        }
        self.stats.bump("firmware", ok);
    }

    fn op_topup_oversized(&mut self) {
        // An oversized top-up must bounce off the size check (`E2BIG`)
        // without consuming anything; under `Bug2MemcacheSize` the
        // narrow-type truncation silently accepts it, and the spec check
        // flags the divergent return value.
        let Some(cpu) = self.pick_busy_cpu() else {
            return;
        };
        let addr = 0x47f0_0000u64; // page-aligned DRAM; never actually donated
        let ok = self.proxy.topup_raw(cpu, addr, 0x1_0000).is_ok();
        self.stats.bump("topup_oversized", ok);
    }

    /// An arbitrary call: random function id from the ABI (or garbage) and
    /// fuzzed arguments drawn from interesting neighbourhoods.
    fn fuzz_step(&mut self) {
        let func = if self.rng.gen_bool(0.8) {
            *ALL_HOST_CALLS.choose(&mut self.rng).expect("nonempty")
        } else {
            self.rng.gen_u64()
        };
        let args: Vec<u64> = (0..3).map(|_| self.fuzz_arg()).collect();
        let cpu = self.rand_cpu();
        let ret = self.proxy.hvc(cpu, func, &args);
        self.stats.bump("fuzz", ret == 0);
        // The model deliberately does not track fuzzed calls; subsequent
        // model-guided steps may now see "unexpected" errors, which is
        // fine — they are counted, not trusted.
    }

    fn fuzz_arg(&mut self) -> u64 {
        let (pool_pfn, pool_pages) = self.proxy.machine.state.hyp_range;
        match self.rng.gen_range(0..6u32) {
            0 => self.rng.gen_u64(),                           // anywhere
            1 => self.rng.gen_range(0x40000u64..0x48000),      // DRAM pfns
            2 => pool_pfn + self.rng.gen_range(0..pool_pages), // the carveout
            3 => 0x9000 + self.rng.gen_range(0..16u64),        // MMIO pfns
            4 => self.rng.gen_range(0..64u64),                 // small values
            _ => 0x1000 + self.rng.gen_range(0..4u64),         // handle-shaped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_steps_stay_clean_under_the_oracle() {
        let proxy = Proxy::builder().boot();
        let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(1).build());
        t.run(1000);
        assert!(t.stats.calls > 400, "tester barely ran: {:?}", t.stats);
        assert!(
            t.proxy.all_clear(),
            "random run found violations on a clean hypervisor:\n{:?}",
            t.proxy.violations()
        );
        assert!(t.proxy.machine.panicked().is_none());
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let run = |seed| {
            let proxy = Proxy::builder().boot();
            let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(seed).build());
            t.run(300);
            (t.stats.calls, t.stats.ok, t.stats.errs)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn random_run_reaches_deep_states() {
        let proxy = Proxy::builder().boot();
        let mut t = RandomTester::new(
            proxy,
            RandomCfg::builder().seed(7).invalid_fraction(0.05).build(),
        );
        t.run(2000);
        // The model guidance must get us past the shallow calls.
        assert!(t.stats.per_op.get("init_vm").copied().unwrap_or(0) > 0);
        assert!(t.stats.per_op.get("vcpu_load").copied().unwrap_or(0) > 0);
        assert!(t.stats.per_op.get("map_guest").copied().unwrap_or(0) > 0);
        assert!(t.stats.per_op.get("vcpu_run").copied().unwrap_or(0) > 0);
        assert!(t.proxy.all_clear(), "{:?}", t.proxy.violations());
    }

    #[test]
    fn builder_sanitises_invalid_fraction() {
        let build = |f| RandomCfg::builder().invalid_fraction(f).build();
        assert_eq!(build(0.4).invalid_fraction, 0.4);
        assert_eq!(build(-0.3).invalid_fraction, 0.0);
        assert_eq!(build(1.7).invalid_fraction, 1.0);
        assert_eq!(build(f64::INFINITY).invalid_fraction, 1.0);
        assert_eq!(
            build(f64::NAN).invalid_fraction,
            RandomCfg::default().invalid_fraction
        );
    }

    #[test]
    fn builder_sanitises_op_weights() {
        // Negatives clamp to zero, the rest survive.
        let mut w = DEFAULT_OP_WEIGHTS;
        w[0] = -5.0;
        let cfg = RandomCfg::builder().op_weights(w).build();
        assert_eq!(cfg.op_weights[0], 0.0);
        assert_eq!(cfg.op_weights[1], DEFAULT_OP_WEIGHTS[1]);
        // NaN anywhere, a zero sum, or an infinity poisons the whole mix:
        // uniform fallback.
        let uniform = [1.0; OP_NAMES.len()];
        let nan = RandomCfg::builder().op_weight("share", f64::NAN).build();
        assert_eq!(nan.op_weights, uniform);
        let zero = RandomCfg::builder()
            .op_weights([0.0; OP_NAMES.len()])
            .build();
        assert_eq!(zero.op_weights, uniform);
        let inf = RandomCfg::builder()
            .op_weight("alloc", f64::INFINITY)
            .build();
        assert_eq!(inf.op_weights, uniform);
        // All-negative sums to zero after clamping: uniform too.
        let neg = RandomCfg::builder()
            .op_weights([-1.0; OP_NAMES.len()])
            .build();
        assert_eq!(neg.op_weights, uniform);
    }

    #[test]
    #[should_panic(expected = "unknown op name")]
    fn op_weight_rejects_unknown_names() {
        let _ = RandomCfg::builder().op_weight("no_such_op", 1.0);
    }

    #[test]
    fn op_weights_bias_the_call_mix() {
        // Zero out everything but alloc+share: only those ops (plus the
        // invalid fraction, disabled here) may run.
        let mut w = [0.0; OP_NAMES.len()];
        w[0] = 1.0; // alloc
        w[1] = 3.0; // share
        let proxy = Proxy::builder().boot();
        let mut t = RandomTester::new(
            proxy,
            RandomCfg::builder()
                .seed(5)
                .invalid_fraction(0.0)
                .op_weights(w)
                .build(),
        );
        t.run(400);
        assert!(t.stats.per_op.get("share").copied().unwrap_or(0) > 0);
        for op in OP_NAMES {
            if op != "alloc" && op != "share" {
                assert_eq!(
                    t.stats.per_op.get(op).copied().unwrap_or(0),
                    0,
                    "zero-weighted op {op} ran"
                );
            }
        }
        assert!(t.proxy.all_clear(), "{:?}", t.proxy.violations());
    }

    #[test]
    fn pinned_tester_only_issues_calls_on_its_cpu() {
        let proxy = Proxy::builder().boot();
        let machine = proxy.machine.clone();
        let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(12).pin_cpu(2).build());
        t.run(500);
        assert!(t.stats.calls > 100, "{:?}", t.stats);
        // Only CPU 2's register file should ever have been touched.
        for cpu in 0..machine.nr_cpus() {
            let used = machine.cpus[cpu].lock().regs != Default::default();
            assert_eq!(used, cpu == 2, "cpu {cpu} usage");
        }
        assert!(t.proxy.all_clear(), "{:?}", t.proxy.violations());
    }

    #[test]
    fn firmware_op_reaches_protected_boot() {
        use crate::model::PageUse;
        let proxy = Proxy::builder().boot();
        // Keep vCPUs uninitialised so protected VMs stay eligible for
        // firmware loads, and bias the mix towards them.
        let mut t = RandomTester::new(
            proxy,
            RandomCfg::builder()
                .seed(11)
                .invalid_fraction(0.0)
                .op_weight("init_vcpu", 0.0)
                .op_weight("firmware", 30.0)
                .build(),
        );
        t.run(800);
        assert!(t.stats.per_op.get("firmware").copied().unwrap_or(0) > 0);
        assert!(
            t.model.pages_in(PageUse::Firmware).next().is_some(),
            "no firmware load ever succeeded: {:?}",
            t.stats
        );
        assert!(t.proxy.all_clear(), "{:?}", t.proxy.violations());
    }

    #[test]
    fn oversized_topup_diverges_under_bug2() {
        use pkvm_hyp::faults::{Fault, FaultSet};
        let run = |faults: FaultSet| {
            let proxy = Proxy::builder().faults(faults).boot();
            let mut t = RandomTester::new(
                proxy,
                RandomCfg::builder()
                    .seed(9)
                    .invalid_fraction(0.0)
                    .op_weight("topup_oversized", 30.0)
                    .build(),
            );
            t.run(600);
            let n = t.stats.per_op.get("topup_oversized").copied().unwrap_or(0);
            (n, t.proxy.all_clear())
        };
        let (n_clean, clean_ok) = run(FaultSet::none());
        assert!(n_clean > 0, "oversized top-up never ran");
        assert!(clean_ok, "oversized top-up false positive on clean run");
        let faults = FaultSet::none();
        faults.inject(Fault::Bug2MemcacheSize);
        let (n_bug, all_clear) = run(faults);
        assert!(n_bug > 0);
        assert!(!all_clear, "oversized top-up missed Bug2MemcacheSize");
    }

    #[test]
    fn random_run_detects_an_injected_bug() {
        use pkvm_hyp::faults::{Fault, FaultSet};
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let proxy = Proxy::builder().faults(faults).boot();
        let mut t = RandomTester::new(proxy, RandomCfg::builder().seed(3).build());
        t.run(200);
        assert!(
            !t.proxy.all_clear(),
            "random testing missed an injected bug"
        );
    }
}
