//! The execution-driven machine model: a Gracemont-like core attached to
//! the interpreter through [`asap_ir::MemoryModel`].
//!
//! Timing model (documented approximations in DESIGN.md):
//!
//! - non-memory instructions retire at `ipc_base`;
//! - a demand load stalls for `max(0, available − now − overlap)` — the
//!   small OoO window hides short-latency misses but not DRAM;
//! - cache lines are installed at request time with a future
//!   `ready_cycle`, so a later access to an in-flight line stalls only for
//!   the remaining latency (this is how timely prefetches win);
//! - software and hardware prefetches never stall the core, and are
//!   **dropped** when the L2 MSHR file is full — the resource contention
//!   that makes disabling inaccurate hardware prefetchers profitable;
//! - stores retire through a store buffer (no stall) but consume
//!   MSHRs/bandwidth on write-allocate misses.

use crate::cache::{line_of, Cache, Evicted, Probe};
use crate::config::{GracemontConfig, PrefetcherConfig};
use crate::counters::Counters;
use crate::dram::Dram;
use crate::hwpf::{Amp, FillLevel, Ipp, NextLine, PfRequest, Streamer};
use crate::mshr::{Alloc, Mshr};
use crate::tlb::Tlb;
use asap_ir::{MemoryModel, OpId};

/// The shared part of the hierarchy: L3 and the DRAM controller (plus the
/// LLC streamer, which observes L3 traffic). One per machine; in
/// multi-core runs the scheduler lends it to one core at a time.
#[derive(Debug)]
pub struct Uncore {
    pub l3: Cache,
    pub dram: Dram,
    llc_streamer: Streamer,
    llc_enabled: bool,
    l3_latency: u64,
}

impl Uncore {
    pub fn new(cfg: &GracemontConfig, pf: &PrefetcherConfig) -> Uncore {
        Uncore {
            l3: Cache::new(cfg.l3),
            dram: Dram::new(cfg.dram_latency, cfg.dram_line_interval),
            llc_streamer: Streamer::new(16, FillLevel::L3, 4),
            llc_enabled: pf.llc_streamer,
            l3_latency: cfg.l3.latency,
        }
    }

    fn handle_eviction(&mut self, ev: Option<Evicted>, now: u64, ctr: &mut Counters) {
        if let Some(e) = ev {
            if e.unused_prefetch {
                ctr.pf_unused_evictions += 1;
            }
            if e.dirty {
                self.dram.writeback(now);
                ctr.dram_lines_written += 1;
            }
        }
    }

    /// Fetch a line on behalf of a core. Returns the cycle at which the
    /// data is available to the core. `train` marks L1-originated traffic
    /// (demand or L1 prefetch) that the LLC streamer learns from.
    fn access(
        &mut self,
        line: u64,
        now: u64,
        demand: bool,
        train: bool,
        ctr: &mut Counters,
    ) -> u64 {
        let avail = match self.l3.probe(line, demand) {
            Probe::Hit { ready } => {
                if demand {
                    ctr.l3_hits += 1;
                }
                ready.max(now) + self.l3_latency
            }
            Probe::Miss => {
                if demand {
                    ctr.dram_hits += 1;
                }
                let avail = self.dram.read(now);
                ctr.dram_lines_read += 1;
                let ev = self.l3.install(line, avail, !demand);
                self.handle_eviction(ev, now, ctr);
                avail
            }
        };
        // The LLC streamer observes L1-originated traffic reaching L3 and
        // fills L3 directly (no core MSHRs involved).
        if train && self.llc_enabled {
            let mut reqs = Vec::new();
            self.llc_streamer.on_access(line, &mut reqs);
            for r in reqs {
                ctr.hw_pf_issued += 1;
                if self.l3.peek(r.line).is_some() {
                    ctr.hw_pf_redundant += 1;
                    continue;
                }
                let ready = self.dram.read(now);
                ctr.dram_lines_read += 1;
                let ev = self.l3.install(r.line, ready, true);
                self.handle_eviction(ev, now, ctr);
            }
        }
        avail
    }

    /// A dirty line written back from a core's L2.
    fn writeback_from_l2(&mut self, line: u64, now: u64, ctr: &mut Counters) {
        if self.l3.peek(line).is_some() {
            self.l3.mark_dirty(line);
        } else {
            self.dram.writeback(now);
            ctr.dram_lines_written += 1;
        }
    }
}

/// A single-core machine: one [`Core`] and the [`Uncore`] it owns.
/// Implements [`MemoryModel`] so it can be plugged straight into the IR
/// interpreter.
#[derive(Debug)]
pub struct Machine {
    core: Core,
    uncore: Uncore,
}

impl Machine {
    pub fn new(cfg: GracemontConfig, pf: PrefetcherConfig) -> Machine {
        Machine {
            core: Core::new(cfg, pf),
            uncore: Uncore::new(&cfg, &pf),
        }
    }

    pub fn counters(&self) -> Counters {
        self.core.counters()
    }

    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    pub fn config(&self) -> &GracemontConfig {
        &self.core.cfg
    }

    /// Total DRAM traffic of the whole machine (all cores + prefetchers),
    /// in bytes — the roofline denominator.
    pub fn dram_bytes_total(&self) -> u64 {
        self.uncore.dram.bytes_transferred()
    }
}

impl MemoryModel for Machine {
    fn load(&mut self, pc: OpId, addr: u64, _bytes: u8) {
        self.core.demand(&mut self.uncore, pc, addr, false);
    }

    fn store(&mut self, pc: OpId, addr: u64, _bytes: u8) {
        self.core.demand(&mut self.uncore, pc, addr, true);
    }

    fn prefetch(&mut self, _pc: OpId, addr: u64, locality: u8, _write: bool) {
        self.core.sw_prefetch(&mut self.uncore, addr, locality);
    }

    fn retire(&mut self, n: u64) {
        self.core.bump_instr(n);
    }

    fn retire_fp(&mut self, n: u64) {
        self.core.retire_fp(n);
    }
}

/// One simulated core's private state: L1/L2, their MSHRs, the core-side
/// hardware prefetchers, the TLB and the counters. Every access that
/// leaves L2 goes to the [`Uncore`] passed in, so the same code serves a
/// [`Machine`] and the multi-core scheduler.
#[derive(Debug)]
pub(crate) struct Core {
    cfg: GracemontConfig,
    pf: PrefetcherConfig,
    cycles: u64,
    instr_rem: u64,
    l1: Cache,
    l2: Cache,
    l1_mshr: Mshr,
    l2_mshr: Mshr,
    ipp: Ipp,
    l1_nlp: NextLine,
    l2_nlp: NextLine,
    mlc: Streamer,
    amp: Amp,
    hw_queue: Vec<PfRequest>,
    tlb: Tlb,
    ctr: Counters,
}

impl Core {
    pub(crate) fn new(cfg: GracemontConfig, pf: PrefetcherConfig) -> Core {
        Core {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l1_mshr: Mshr::new(cfg.l1_mshrs),
            l2_mshr: Mshr::new(cfg.l2_mshrs),
            ipp: Ipp::new(2),
            l1_nlp: NextLine::new(FillLevel::L1),
            l2_nlp: NextLine::new(FillLevel::L2),
            mlc: Streamer::new(16, FillLevel::L2, 2),
            amp: Amp::new(),
            hw_queue: Vec::new(),
            tlb: Tlb::new(cfg.tlb),
            cycles: 0,
            instr_rem: 0,
            ctr: Counters::default(),
            cfg,
            pf,
        }
    }

    pub(crate) fn counters(&self) -> Counters {
        let mut c = self.ctr;
        c.cycles = self.cycles;
        c
    }

    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `n` non-memory instructions retire at `ipc_base`.
    pub(crate) fn bump_instr(&mut self, n: u64) {
        self.ctr.instructions += n;
        self.instr_rem += n;
        self.cycles += self.instr_rem / self.cfg.ipc_base;
        self.instr_rem %= self.cfg.ipc_base;
    }

    /// `n` floating-point instructions, each on the `fp_op_cycles` chain.
    pub(crate) fn retire_fp(&mut self, n: u64) {
        self.ctr.instructions += n;
        self.cycles += n * self.cfg.fp_op_cycles;
    }

    fn stall_until(&mut self, available: u64) {
        let hidden = self.cycles + self.cfg.overlap_cycles;
        if available > hidden {
            // The residual latency is shared across ~mlp_width concurrent
            // independent misses the OoO engine keeps in flight.
            let stall = (available - hidden).div_ceil(self.cfg.mlp_width);
            self.cycles += stall;
            self.ctr.stall_cycles += stall;
        }
    }

    fn handle_l1_eviction(&mut self, uncore: &mut Uncore, ev: Option<Evicted>) {
        if let Some(e) = ev {
            if e.unused_prefetch {
                self.ctr.pf_unused_evictions += 1;
            }
            if e.dirty {
                // Write back into L2 (or memory if absent).
                if self.l2.peek(e.line_addr).is_some() {
                    self.l2.mark_dirty(e.line_addr);
                } else {
                    uncore.writeback_from_l2(e.line_addr, self.cycles, &mut self.ctr);
                }
            }
        }
    }

    fn handle_l2_eviction(&mut self, uncore: &mut Uncore, ev: Option<Evicted>) {
        if let Some(e) = ev {
            if e.unused_prefetch {
                self.ctr.pf_unused_evictions += 1;
            }
            if e.dirty {
                uncore.writeback_from_l2(e.line_addr, self.cycles, &mut self.ctr);
            }
        }
    }

    /// Fetch a line to L2 (probing L2 first). Returns the cycle the data
    /// is available to the core, or `None` when a non-demand request was
    /// dropped for lack of an L2 MSHR. Demand requests stall on a full
    /// MSHR file instead of dropping.
    ///
    /// `from_l1` marks requests arriving from the L1 side (demand misses
    /// and L1 prefetcher fills): these train the MLC streamer, exactly as
    /// the hardware streamer trains on all L1D requests — otherwise an
    /// enabled L1 NLP would hide the stream from the streamer entirely.
    /// L2-level prefetch fills do not train it (no self-feedback).
    fn fetch_to_l2(
        &mut self,
        uncore: &mut Uncore,
        line: u64,
        demand: bool,
        from_l1: bool,
    ) -> Option<u64> {
        match self.l2.probe(line, demand) {
            Probe::Hit { ready } => {
                if demand {
                    self.ctr.l2_hits += 1;
                }
                if from_l1 && self.pf.mlc_streamer {
                    self.mlc.on_access(line, &mut self.hw_queue);
                }
                Some(ready.max(self.cycles) + self.cfg.l2.latency)
            }
            Probe::Miss => {
                if demand {
                    self.ctr.l2_misses += 1;
                }
                if from_l1 && self.pf.mlc_streamer {
                    self.mlc.on_access(line, &mut self.hw_queue);
                }
                if demand {
                    if self.pf.l2_nlp {
                        self.l2_nlp.on_miss(line, &mut self.hw_queue);
                    }
                    if self.pf.l2_amp {
                        self.amp.on_l2_miss(line, &mut self.hw_queue);
                    }
                }
                loop {
                    match self.l2_mshr.check(line, self.cycles) {
                        Alloc::Merged { ready } => {
                            return Some(ready.max(self.cycles));
                        }
                        Alloc::Full { free_at } => {
                            if demand {
                                // The core waits for an MSHR slot.
                                let stall = free_at.saturating_sub(self.cycles);
                                self.cycles += stall;
                                self.ctr.stall_cycles += stall;
                            } else {
                                return None;
                            }
                        }
                        Alloc::Ok => break,
                    }
                }
                let avail = uncore.access(line, self.cycles, demand, from_l1, &mut self.ctr);
                self.l2_mshr.insert(line, avail);
                let ev = self.l2.install(line, avail, !demand);
                self.handle_l2_eviction(uncore, ev);
                Some(avail)
            }
        }
    }

    /// The demand-access path (loads and stores).
    pub(crate) fn demand(&mut self, uncore: &mut Uncore, pc: OpId, addr: u64, is_store: bool) {
        self.bump_instr(1);
        // Address translation: a page walk stalls the access up front.
        let walk = self.tlb.access(addr);
        if walk > 0 {
            self.ctr.tlb_misses += 1;
            self.cycles += walk;
            self.ctr.stall_cycles += walk;
        }
        let line = line_of(addr);
        if is_store {
            self.ctr.stores += 1;
        } else {
            self.ctr.loads += 1;
            if self.pf.l1_ipp {
                self.ipp.on_load(pc, addr, &mut self.hw_queue);
            }
        }
        match self.l1.probe(line, true) {
            Probe::Hit { ready } => {
                self.ctr.l1_hits += 1;
                if is_store {
                    self.l1.mark_dirty(line);
                } else {
                    self.stall_until(ready);
                }
            }
            Probe::Miss => {
                self.ctr.l1_misses += 1;
                if self.pf.l1_nlp {
                    self.l1_nlp.on_miss(line, &mut self.hw_queue);
                }
                // L1 fill buffer: demand misses wait for a slot.
                while let Alloc::Full { free_at } = self.l1_mshr.check(line, self.cycles) {
                    let stall = free_at.saturating_sub(self.cycles);
                    self.cycles += stall;
                    self.ctr.stall_cycles += stall;
                }
                let avail = self
                    .fetch_to_l2(uncore, line, true, true)
                    .expect("demand fetch is never dropped");
                self.l1_mshr.insert(line, avail);
                let ev = self.l1.install(line, avail, false);
                self.handle_l1_eviction(uncore, ev);
                if is_store {
                    self.l1.mark_dirty(line);
                } else {
                    self.stall_until(avail);
                }
            }
        }
        self.drain_hw_queue(uncore);
    }

    /// Software prefetch: never stalls; fills L2 (locality ≤ 2) or L1
    /// (locality 3); dropped when no MSHR is free. Prefetch instructions
    /// retire without consuming pipeline slots (they issue to a load port
    /// and complete asynchronously).
    pub(crate) fn sw_prefetch(&mut self, uncore: &mut Uncore, addr: u64, locality: u8) {
        self.ctr.instructions += 1;
        self.ctr.sw_pf_issued += 1;
        let line = line_of(addr);
        if self.l1.peek(line).is_some() {
            self.ctr.sw_pf_redundant += 1;
            return;
        }
        let to_l1 = locality >= 3;
        if let Probe::Hit { .. } = self.l2.probe(line, false) {
            self.ctr.sw_pf_redundant += 1;
            return;
        }
        match self.l2_mshr.check(line, self.cycles) {
            Alloc::Merged { .. } => {
                self.ctr.sw_pf_redundant += 1;
            }
            Alloc::Full { .. } => {
                self.ctr.sw_pf_dropped += 1;
            }
            Alloc::Ok => {
                let avail = uncore.access(line, self.cycles, false, false, &mut self.ctr);
                self.l2_mshr.insert(line, avail);
                let ev = self.l2.install(line, avail, true);
                self.handle_l2_eviction(uncore, ev);
                if to_l1 {
                    let ev = self.l1.install(line, avail, true);
                    self.handle_l1_eviction(uncore, ev);
                }
            }
        }
    }

    /// Drain hardware-prefetcher requests generated by the last access.
    fn drain_hw_queue(&mut self, uncore: &mut Uncore) {
        if self.hw_queue.is_empty() {
            return;
        }
        let reqs = std::mem::take(&mut self.hw_queue);
        for r in reqs {
            self.ctr.hw_pf_issued += 1;
            match r.fill {
                FillLevel::L1 => {
                    if self.l1.peek(r.line).is_some() {
                        self.ctr.hw_pf_redundant += 1;
                        continue;
                    }
                    if !matches!(self.l1_mshr.check(r.line, self.cycles), Alloc::Ok) {
                        self.ctr.hw_pf_dropped += 1;
                        continue;
                    }
                    match self.fetch_to_l2(uncore, r.line, false, true) {
                        Some(avail) => {
                            self.l1_mshr.insert(r.line, avail);
                            let ev = self.l1.install(r.line, avail, true);
                            self.handle_l1_eviction(uncore, ev);
                        }
                        None => self.ctr.hw_pf_dropped += 1,
                    }
                }
                FillLevel::L2 => {
                    if self.l2.peek(r.line).is_some() {
                        self.ctr.hw_pf_redundant += 1;
                        continue;
                    }
                    if self.fetch_to_l2(uncore, r.line, false, false).is_none() {
                        self.ctr.hw_pf_dropped += 1;
                    }
                }
                FillLevel::L3 => unreachable!("L3 prefetches are handled in the uncore"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GracemontConfig {
        GracemontConfig {
            l1: crate::config::CacheParams {
                size_bytes: 1024,
                assoc: 2,
                latency: 3,
            },
            l2: crate::config::CacheParams {
                size_bytes: 8 * 1024,
                assoc: 4,
                latency: 16,
            },
            l3: crate::config::CacheParams {
                size_bytes: 64 * 1024,
                assoc: 8,
                latency: 55,
            },
            tlb: crate::tlb::TlbConfig::disabled(),
            ..GracemontConfig::scaled()
        }
    }

    fn machine() -> Machine {
        Machine::new(small_cfg(), PrefetcherConfig::all_off())
    }

    #[test]
    fn first_access_misses_everywhere_then_hits() {
        let mut m = machine();
        m.load(OpId(1), 0x10000, 8);
        let c1 = m.counters();
        assert_eq!(c1.l1_misses, 1);
        assert_eq!(c1.dram_hits, 1);
        // Residual DRAM latency is divided across the MLP width.
        let expect =
            (small_cfg().dram_latency - small_cfg().overlap_cycles) / small_cfg().mlp_width;
        assert!(c1.stall_cycles >= expect, "DRAM stall expected: {c1:?}");

        m.load(OpId(1), 0x10000, 8);
        let c2 = m.counters();
        assert_eq!(c2.l1_hits, 1);
        assert_eq!(c2.dram_hits, 1, "second access is an L1 hit");
    }

    #[test]
    fn timely_prefetch_hides_dram_latency() {
        // Prefetch, burn enough instructions for the fill to land, then
        // demand-load: stall must be (near) zero.
        let mut m = machine();
        m.prefetch(OpId(9), 0x40000, 2, false);
        m.retire(3000);
        let stalls_before = m.counters().stall_cycles;
        m.load(OpId(1), 0x40000, 8);
        let c = m.counters();
        assert_eq!(c.sw_pf_issued, 1);
        assert_eq!(c.l2_hits, 1, "demand finds the line in L2");
        // Stall limited to L2 latency minus overlap (possibly 0).
        assert!(
            c.stall_cycles - stalls_before <= 16,
            "prefetch should hide DRAM: {c:?}"
        );
    }

    #[test]
    fn late_prefetch_hides_partial_latency() {
        let mut m = machine();
        // No gap between prefetch and demand: partial benefit only.
        m.prefetch(OpId(9), 0x40000, 2, false);
        m.load(OpId(1), 0x40000, 8);
        let late = m.counters().stall_cycles;

        let mut m2 = machine();
        m2.load(OpId(1), 0x40000, 8);
        let none = m2.counters().stall_cycles;
        // A just-in-time prefetch can cost up to one extra L2 transfer
        // (the demand now hits an in-flight L2 line) but no more.
        assert!(
            late <= none + small_cfg().l2.latency,
            "late {late} vs none {none}"
        );
    }

    #[test]
    fn prefetch_never_stalls_and_never_faults() {
        let mut m = machine();
        let before = m.cycles();
        for i in 0..10 {
            m.prefetch(OpId(5), 0xdead_0000 + i * 64, 2, false);
        }
        // Only instruction-retire time advances (10 instrs / ipc 3).
        assert!(m.cycles() - before <= 4);
        assert_eq!(m.counters().stall_cycles, 0);
    }

    #[test]
    fn prefetches_drop_when_mshrs_full() {
        let mut cfg = small_cfg();
        cfg.l2_mshrs = 2;
        let mut m = Machine::new(cfg, PrefetcherConfig::all_off());
        // Issue many prefetches back-to-back: only 2 MSHRs available.
        for i in 0..8 {
            m.prefetch(OpId(5), 0x100000 + i * 64, 2, false);
        }
        let c = m.counters();
        assert_eq!(c.sw_pf_issued, 8);
        assert!(c.sw_pf_dropped >= 5, "most must drop: {c:?}");
    }

    #[test]
    fn demand_waits_rather_than_drops_on_full_mshrs() {
        let mut cfg = small_cfg();
        cfg.l2_mshrs = 1;
        let mut m = Machine::new(cfg, PrefetcherConfig::all_off());
        m.prefetch(OpId(5), 0x100000, 2, false); // occupies the only MSHR
        m.load(OpId(1), 0x200000, 8); // must wait, then fetch
        let c = m.counters();
        assert_eq!(c.dram_hits, 1);
        assert_eq!(c.sw_pf_dropped, 0);
    }

    #[test]
    fn redundant_prefetch_is_counted_not_refetched() {
        let mut m = machine();
        m.load(OpId(1), 0x30000, 8);
        m.retire(3000);
        let lines_before = m.dram_bytes_total();
        m.prefetch(OpId(9), 0x30000, 2, false);
        assert_eq!(m.counters().sw_pf_redundant, 1);
        assert_eq!(m.dram_bytes_total(), lines_before);
    }

    #[test]
    fn l1_nlp_fetches_next_line() {
        let mut m = Machine::new(
            small_cfg(),
            PrefetcherConfig {
                l1_nlp: true,
                ..PrefetcherConfig::all_off()
            },
        );
        m.load(OpId(1), 0x50000, 8);
        let c = m.counters();
        assert_eq!(c.hw_pf_issued, 1);
        // Next line was brought in: a demand touch is an L1 hit (possibly
        // in-flight).
        m.retire(3000);
        m.load(OpId(1), 0x50040, 8);
        assert_eq!(m.counters().l1_hits, 1);
    }

    #[test]
    fn streaming_load_pattern_trains_ipp() {
        let mut m = Machine::new(
            small_cfg(),
            PrefetcherConfig {
                l1_ipp: true,
                ..PrefetcherConfig::all_off()
            },
        );
        for i in 0..64u64 {
            m.load(OpId(7), 0x80000 + i * 8, 8);
            m.retire(16);
        }
        let c = m.counters();
        assert!(c.hw_pf_issued > 10, "IPP must engage on a stride: {c:?}");
    }

    #[test]
    fn instructions_advance_cycles_at_ipc() {
        let mut m = machine();
        m.retire(300);
        assert_eq!(m.cycles(), 100);
        assert_eq!(m.counters().instructions, 300);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut m = machine();
        // L1: 1 KB / 64 B / 2-way = 8 sets. Fill one set with stores and
        // overflow it; evicted dirty lines eventually reach DRAM writeback
        // via L2 when also evicted there. Simplest check: store then evict
        // from both levels by touching many conflicting lines.
        let set_stride = 8 * 64; // lines mapping to the same L1 set
        for i in 0..200u64 {
            m.store(OpId(2), 0x100000 + i * set_stride, 8);
        }
        let c = m.counters();
        assert!(c.stores == 200);
        assert!(
            c.dram_lines_written > 0,
            "dirty evictions must write back: {c:?}"
        );
    }

    #[test]
    fn huge_pages_beat_base_pages_on_wide_gathers() {
        // A gather over many 4K pages thrashes the TLB; 2MB pages absorb
        // it (the paper's Section 4.4 methodology point).
        let run = |tlb: crate::tlb::TlbConfig| {
            let cfg = GracemontConfig { tlb, ..small_cfg() };
            let mut m = Machine::new(cfg, PrefetcherConfig::all_off());
            // 256 pages, strided so every access touches a new page.
            for round in 0..4u64 {
                for p in 0..256u64 {
                    m.load(OpId(1), 0x1000_0000 + p * 4096 + round * 64, 8);
                    m.retire(4);
                }
            }
            m.counters()
        };
        let huge = run(crate::tlb::TlbConfig::huge_pages());
        let base = run(crate::tlb::TlbConfig::base_pages());
        assert!(base.tlb_misses > 100 * huge.tlb_misses.max(1));
        assert!(base.cycles > huge.cycles, "walks must cost time");
    }

    #[test]
    fn counters_report_l2_miss_events() {
        let mut m = machine();
        m.load(OpId(1), 0x90000, 8);
        m.load(OpId(1), 0xa0000, 8);
        let c = m.counters();
        assert_eq!(c.l2_miss_events(), 2);
        assert!(c.l2_mpki() > 0.0);
    }
}
