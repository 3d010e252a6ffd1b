//! Multi-core simulation: N cores with private L1/L2 sharing one
//! [`Uncore`] (L3 + DRAM bandwidth), as in the paper's Figure 12 roofline
//! experiment.
//!
//! Timing never feeds back into functional execution, so each core's
//! timing is a pure function of its event stream. Each core's work
//! therefore runs on its own scoped thread against a [`Recorder`], which
//! ships the core's [`MemoryModel`] events in fixed-size chunks over a
//! bounded channel. One scheduler, on the calling thread, owns every
//! core's private state and the uncore, and applies events in
//! `(clock, core_id)` order: always the next event of the core with the
//! smallest clock, ties to the lower id, blocking on that core's channel
//! when its next chunk has not arrived. The interleaving, and with it
//! every counter, is the same on every run and for any host thread count.

use crate::config::{GracemontConfig, PrefetcherConfig};
use crate::counters::Counters;
use crate::machine::{Core, Uncore};
use asap_ir::{MemoryModel, OpId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// One [`MemoryModel`] call, as recorded by a producer.
#[derive(Debug, Clone, Copy)]
enum Event {
    Load { pc: OpId, addr: u64 },
    Store { pc: OpId, addr: u64 },
    Prefetch { addr: u64, locality: u8 },
    Retire(u64),
    RetireFp(u64),
}

/// Events per chunk.
const CHUNK_EVENTS: usize = 2048;
/// Full chunks a core's channel buffers before its producer blocks.
const CHANNEL_DEPTH: usize = 4;
// Per core, one chunk is being filled and one is being applied besides
// the buffered ones: at 8 cores at most 2 MiB of events are in flight.
const _: () =
    assert!(8 * (CHANNEL_DEPTH + 2) * CHUNK_EVENTS * std::mem::size_of::<Event>() <= 2 << 20);

/// The producer side of a multi-core run: a [`MemoryModel`] that records
/// one core's events into chunks for the scheduler.
#[derive(Debug)]
pub struct Recorder {
    chunk: Vec<Event>,
    tx: SyncSender<Vec<Event>>,
}

impl Recorder {
    fn push(&mut self, ev: Event) {
        self.chunk.push(ev);
        if self.chunk.len() == CHUNK_EVENTS {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(CHUNK_EVENTS));
        // Sending fails only once the scheduler has gone (it panicked);
        // the events have no consumer left, so dropping them is right.
        let _ = self.tx.send(full);
    }
}

impl MemoryModel for Recorder {
    fn load(&mut self, pc: OpId, addr: u64, _bytes: u8) {
        self.push(Event::Load { pc, addr });
    }

    fn store(&mut self, pc: OpId, addr: u64, _bytes: u8) {
        self.push(Event::Store { pc, addr });
    }

    fn prefetch(&mut self, _pc: OpId, addr: u64, locality: u8, _write: bool) {
        self.push(Event::Prefetch { addr, locality });
    }

    fn retire(&mut self, n: u64) {
        self.push(Event::Retire(n));
    }

    fn retire_fp(&mut self, n: u64) {
        self.push(Event::RetireFp(n));
    }
}

/// The outcome of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    pub per_core: Vec<Counters>,
    /// Events summed, cycles = max over cores (wall clock).
    pub aggregate: Counters,
    /// Total DRAM traffic (all cores and prefetchers), bytes.
    pub dram_bytes: u64,
}

impl MulticoreResult {
    /// Wall-clock seconds of the parallel region.
    pub fn seconds(&self, cfg: &GracemontConfig) -> f64 {
        cfg.cycles_to_seconds(self.aggregate.cycles)
    }
}

/// Run `work(core_id, recorder)` on `n_threads` cores sharing one
/// uncore. A core whose work returns an error stops producing events
/// (the scheduler sees its stream end); once every core is done, the
/// error of the lowest-numbered failing core is returned.
pub fn run_parallel<F, E>(
    cfg: GracemontConfig,
    pf: PrefetcherConfig,
    n_threads: usize,
    work: F,
) -> Result<MulticoreResult, E>
where
    F: Fn(usize, &mut Recorder) -> Result<(), E> + Sync,
    E: Send,
{
    assert!(n_threads >= 1);
    let mut cores: Vec<Core> = (0..n_threads).map(|_| Core::new(cfg, pf)).collect();
    let mut uncore = Uncore::new(&cfg, &pf);
    std::thread::scope(|s| {
        let mut streams = Vec::with_capacity(n_threads);
        let mut producers = Vec::with_capacity(n_threads);
        for tid in 0..n_threads {
            let (tx, rx) = sync_channel(CHANNEL_DEPTH);
            let work = &work;
            producers.push(s.spawn(move || {
                let mut rec = Recorder {
                    chunk: Vec::with_capacity(CHUNK_EVENTS),
                    tx,
                };
                let done = work(tid, &mut rec);
                rec.flush();
                done
            }));
            streams.push(rx);
        }
        schedule(&mut cores, &mut uncore, &streams);
        producers
            .into_iter()
            .try_for_each(|p| p.join().expect("core thread panicked"))
    })?;
    let per_core: Vec<Counters> = cores.iter().map(Core::counters).collect();
    let mut aggregate = Counters::default();
    for c in &per_core {
        aggregate.merge_parallel(c);
    }
    Ok(MulticoreResult {
        per_core,
        aggregate,
        dram_bytes: uncore.dram.bytes_transferred(),
    })
}

/// Apply every core's events in `(clock, core_id)` order until all
/// streams have ended.
fn schedule(cores: &mut [Core], uncore: &mut Uncore, streams: &[Receiver<Vec<Event>>]) {
    let mut pending: Vec<std::vec::IntoIter<Event>> =
        cores.iter().map(|_| Vec::new().into_iter()).collect();
    // Every core with events left except the running one, by (clock, id).
    let mut waiting: BinaryHeap<Reverse<(u64, usize)>> =
        (1..cores.len()).map(|k| Reverse((0, k))).collect();
    let mut k = 0;
    loop {
        // Only core k's clock moves while it runs, so it stays the
        // minimum until its `(clock, id)` passes the runner-up's.
        let bound = waiting.peek().map_or((u64::MAX, usize::MAX), |r| r.0);
        let (core, events) = (&mut cores[k], &mut pending[k]);
        let passed = loop {
            let Some(ev) = events.next() else {
                match streams[k].recv() {
                    Ok(chunk) => {
                        *events = chunk.into_iter();
                        continue;
                    }
                    // Stream closed: core k has retired its last event.
                    Err(_) => break false,
                }
            };
            match ev {
                Event::Load { pc, addr } => core.demand(uncore, pc, addr, false),
                Event::Store { pc, addr } => core.demand(uncore, pc, addr, true),
                Event::Prefetch { addr, locality } => core.sw_prefetch(uncore, addr, locality),
                Event::Retire(n) => core.bump_instr(n),
                Event::RetireFp(n) => core.retire_fp(n),
            }
            if (core.cycles(), k) > bound {
                break true;
            }
        };
        k = if passed {
            // The runner-up runs next; core k takes its place in the heap.
            let mut top = waiting.peek_mut().expect("a finite bound has a heap entry");
            std::mem::replace(&mut *top, Reverse((core.cycles(), k)))
                .0
                 .1
        } else {
            match waiting.pop() {
                Some(Reverse((_, next))) => next,
                None => return,
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GracemontConfig {
        GracemontConfig::scaled()
    }

    /// [`run_parallel`] for work that cannot fail.
    fn run(
        pf: PrefetcherConfig,
        n_threads: usize,
        work: impl Fn(usize, &mut Recorder) + Sync,
    ) -> MulticoreResult {
        run_parallel(cfg(), pf, n_threads, |tid, m| {
            work(tid, m);
            Ok::<(), ()>(())
        })
        .unwrap()
    }

    /// Each core streams over a disjoint 1 MiB region.
    fn stream_work(tid: usize, m: &mut Recorder) {
        let base = 0x1000_0000u64 + tid as u64 * 0x40_0000;
        for i in 0..16_384u64 {
            m.load(OpId(1), base + i * 64, 8);
            m.retire(4);
        }
    }

    /// Core 1 retires local work first, then every core loads the same
    /// 4096 lines.
    fn head_start_work(tid: usize, m: &mut Recorder) {
        if tid == 1 {
            for i in 0..50_000 {
                m.retire(1 + (i % 2));
            }
        }
        for i in 0..4096u64 {
            m.load(OpId(1), 0x2000_0000 + i * 64, 8);
            m.retire(8);
        }
    }

    #[test]
    fn more_threads_do_more_total_work_in_similar_time() {
        let r1 = run(PrefetcherConfig::all_off(), 1, stream_work);
        let r4 = run(PrefetcherConfig::all_off(), 4, stream_work);
        assert_eq!(r4.per_core.len(), 4);
        assert_eq!(r4.aggregate.loads, 4 * r1.aggregate.loads);
        // Four streaming cores share DRAM bandwidth: wall clock grows, but
        // by far less than 4x-serial.
        assert!(r4.aggregate.cycles < 3 * r1.aggregate.cycles);
        assert!(r4.dram_bytes >= 4 * 16_384 * 64);
    }

    #[test]
    fn bandwidth_contention_slows_each_core() {
        // With the streamers running ahead, each core consumes lines far
        // faster than its demand-serial pace; 8 such streams oversubscribe
        // the DRAM interval and wall-clock time degrades.
        let r1 = run(PrefetcherConfig::hw_default(), 1, stream_work);
        let r8 = run(PrefetcherConfig::hw_default(), 8, stream_work);
        assert!(
            r8.aggregate.cycles > r1.aggregate.cycles * 11 / 10,
            "8 streams must contend: {} vs {}",
            r8.aggregate.cycles,
            r1.aggregate.cycles
        );
    }

    #[test]
    fn shared_l3_lets_cores_reuse_each_others_lines() {
        // Core 0 touches a region; all cores then touch the same region.
        // With a shared L3, later cores hit in L3 far more than DRAM.
        let r = run(PrefetcherConfig::all_off(), 2, head_start_work);
        let total_dram: u64 = r.aggregate.dram_hits;
        // Both cores demanded 4096 distinct lines; with sharing the total
        // DRAM demand hits stay well below 2 * 4096.
        assert!(
            total_dram < 6000,
            "shared L3 should absorb reuse: {total_dram}"
        );
    }

    #[test]
    fn interleaving_is_deterministic() {
        let a = run(PrefetcherConfig::hw_default(), 3, head_start_work);
        let b = run(PrefetcherConfig::hw_default(), 3, head_start_work);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.dram_bytes, b.dram_bytes);
    }

    #[test]
    fn shared_lines_go_to_the_core_with_the_earlier_clock() {
        // Both cores load the same lines at the same pace, but core 1
        // starts 1000 cycles late: every line's DRAM miss is core 0's,
        // and core 1 finds each one in L3.
        let r = run(PrefetcherConfig::all_off(), 2, |tid, m| {
            if tid == 1 {
                m.retire(3000);
            }
            for i in 0..256u64 {
                m.load(OpId(1), 0x3000_0000 + i * 64, 8);
                m.retire(3000);
            }
        });
        assert_eq!(r.per_core[0].dram_hits, 256);
        assert_eq!(r.per_core[1].dram_hits, 0);
        assert_eq!(r.per_core[1].l3_hits, 256);
    }

    #[test]
    fn first_failing_core_in_id_order_reports_its_error() {
        let r = run_parallel(cfg(), PrefetcherConfig::all_off(), 4, |tid, m| {
            stream_work(tid, m);
            if tid % 2 == 1 {
                return Err(tid);
            }
            Ok(())
        });
        assert_eq!(r.unwrap_err(), 1);
    }

    #[test]
    fn seconds_scale_with_frequency() {
        let r = run(PrefetcherConfig::all_off(), 1, |_, m| m.retire(2_400_000));
        let s = r.seconds(&cfg());
        assert!((s - 2_400_000.0 / 3.0 / 2.4e9).abs() < 1e-9);
    }
}
