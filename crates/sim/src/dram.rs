//! DRAM model: fixed access latency plus a bandwidth queue.
//!
//! Bandwidth is modeled as a service-slot scheduler: line transfers are
//! granted slots no closer together than `line_interval` cycles, so a
//! burst of requests (demand misses, software prefetches, *and* the
//! inaccurate requests of misconfigured hardware prefetchers) queues up
//! and sees growing effective latency — the "bandwidth pressure" the
//! paper attributes to the L2 AMP on SpMV.

/// The DRAM controller shared by all cores.
///
/// The slot chain advances by `line_interval` per transfer but is allowed
/// to lag at most `burst_window` cycles behind the requester's clock.
/// Bandwidth left idle within that window absorbs a later burst without
/// queueing; idle time further back cannot be banked, so a burst after a
/// long quiet phase still queues once it exceeds the window's share of
/// bandwidth.
#[derive(Debug, Clone)]
pub struct Dram {
    latency: u64,
    line_interval: u64,
    next_slot: u64,
    burst_window: u64,
    /// Total line transfers serviced (reads + writebacks).
    pub lines_transferred: u64,
}

/// Burst headroom in cycles (at least 64 line intervals). In multi-core
/// runs the scheduler hands the controller requests in `(clock, core)`
/// order, except that a core's clock can run ahead within one event (a
/// page walk or an MSHR wait before its uncore access); skew shorter
/// than the window does not register as backlog for the other cores. The
/// value is part of the calibrated timing model: the single-core golden
/// counters depend on it.
const BURST_WINDOW_CYCLES: u64 = 1024;

impl Dram {
    pub fn new(latency: u64, line_interval: u64) -> Dram {
        Dram {
            latency,
            line_interval,
            next_slot: 0,
            burst_window: BURST_WINDOW_CYCLES.max(64 * line_interval),
            lines_transferred: 0,
        }
    }

    fn take_slot(&mut self, now: u64) -> u64 {
        let slot = self.next_slot.max(now.saturating_sub(self.burst_window));
        self.next_slot = slot + self.line_interval;
        slot
    }

    /// Request a line read at `now`; returns the cycle the data arrives.
    pub fn read(&mut self, now: u64) -> u64 {
        let slot = self.take_slot(now);
        self.lines_transferred += 1;
        slot.max(now) + self.latency
    }

    /// Queue a writeback at `now` (consumes a bandwidth slot; the core
    /// never waits for it).
    pub fn writeback(&mut self, now: u64) {
        self.take_slot(now);
        self.lines_transferred += 1;
    }

    /// Current queueing delay experienced by a request issued at `now`.
    pub fn queue_delay(&self, now: u64) -> u64 {
        self.next_slot.saturating_sub(now)
    }

    pub fn bytes_transferred(&self) -> u64 {
        self.lines_transferred * crate::config::LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_costs_latency() {
        let mut d = Dram::new(200, 2);
        assert_eq!(d.read(1000), 1200);
    }

    #[test]
    fn back_to_back_reads_queue() {
        let mut d = Dram::new(200, 2);
        assert_eq!(d.read(0), 200);
        assert_eq!(d.read(0), 202);
        assert_eq!(d.read(0), 204);
        assert_eq!(d.lines_transferred, 3);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut d = Dram::new(200, 2);
        d.read(0);
        assert_eq!(d.read(1000), 1200);
    }

    #[test]
    fn writebacks_consume_bandwidth() {
        let mut d = Dram::new(200, 2);
        d.writeback(0);
        assert_eq!(d.read(0), 202);
        assert_eq!(d.bytes_transferred(), 128);
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut d = Dram::new(200, 4);
        for _ in 0..10 {
            d.read(0);
        }
        assert_eq!(d.queue_delay(0), 40);
        assert_eq!(d.queue_delay(100), 0);
    }
}
