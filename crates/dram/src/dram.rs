//! The device façade: channel routing, completions, statistics.

use crate::address::decode;
use crate::channel::{Channel, Pending};
use crate::config::DramConfig;
use crate::stats::{BandwidthTrace, DramStats};
use mnpu_probe::{Event, NullProbe, Probe};
use mnpu_snapshot::{Reader, SnapError, Writer};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// A serviced transaction, returned by [`Dram::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-supplied tag (e.g. a tile or walker identifier).
    pub meta: u64,
    /// Requesting core.
    pub core: usize,
    /// Physical address of the transaction.
    pub addr: u64,
    /// `true` for writes.
    pub is_write: bool,
    /// Device cycle at which the data burst finished.
    pub completed_at: u64,
}

/// Why [`Dram::try_enqueue`] rejected a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target channel's transaction queue is full; retry after the next
    /// completion or scheduling event.
    QueueFull {
        /// Index of the saturated channel.
        channel: usize,
    },
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::QueueFull { channel } => {
                write!(f, "transaction queue of channel {channel} is full")
            }
        }
    }
}

impl Error for EnqueueError {}

/// A multi-channel DRAM device with per-core channel partitioning.
///
/// Drive it with three calls:
///
/// * [`Dram::try_enqueue`] — submit a 64-byte transaction;
/// * [`Dram::next_event`] — the next cycle at which the device state changes;
/// * [`Dram::advance`] — move time forward, returning finished transactions.
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    core_channels: Vec<Vec<usize>>,
    /// The full channel index set — the default subset for unpartitioned
    /// cores, precomputed so address decode never allocates.
    all_channels: Vec<usize>,
    /// In-flight data bursts keyed `(completed_at, slot)`: a min-heap, so
    /// the check for due bursts on every `advance` is one peek.
    in_flight: BinaryHeap<Reverse<(u64, u64)>>,
    in_flight_data: Vec<Option<Completion>>,
    free_slots: Vec<usize>,
    per_core_bytes: Vec<u64>,
    trace: Option<BandwidthTrace>,
    now: u64,
    pending_count: usize,
    /// Reusable buffer for commands committed within one `advance` call;
    /// kept across calls so the steady state allocates nothing.
    scratch_committed: Vec<Completion>,
    /// Per-channel attention cache: the next cycle at which the channel's
    /// `advance` can change any state ([`Channel::next_attention`]).
    /// `advance_into_probed` skips channels whose cached cycle lies beyond
    /// `now` — the skipped call is a provable no-op. Refreshed after every
    /// advance of the channel; an enqueue stores the `0` sentinel ("attend
    /// at the next tick"), which doubles as the dirty flag so the per-wake
    /// scan reads one word per channel. `0` can never be a live skip
    /// threshold (`0 > now` is false for every clock value).
    ch_att: Vec<Cell<u64>>,
    /// Per-channel cache of [`Channel::ea_component`] (`u64::MAX` = idle),
    /// so [`Dram::next_event`] reads one word per channel instead of
    /// re-deriving the scheduler pick. Refreshed after every advance of
    /// the channel; an enqueue stores the `0` sentinel ("stale") and
    /// `next_event` recomputes lazily through the `Cell` (an enqueue can
    /// land between an advance and the next-event query). A legitimately
    /// zero earliest action only exists at cycle 0, where the recompute
    /// returns the same value.
    ch_ea: Vec<Cell<u64>>,
}

impl Dram {
    /// Create a device.
    ///
    /// Setting `MNPU_NO_FASTFWD=1` in the environment forces
    /// [`DramConfig::fastfwd`] off for every device built afterwards — the
    /// one-run bisection switch for any suspected fast-path divergence
    /// (see EXPERIMENTS.md). The fast path is bit-exact, so flipping it
    /// must never change a report; only wall-clock time moves.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(mut config: DramConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DRAM config: {e}");
        }
        if std::env::var_os("MNPU_NO_FASTFWD").is_some_and(|v| v != "0") {
            config.fastfwd = false;
        }
        let channels: Vec<Channel> = (0..config.channels).map(|_| Channel::new(&config)).collect();
        let ch_att = channels.iter().map(|c| Cell::new(c.next_attention())).collect();
        let ch_ea = channels.iter().map(|c| Cell::new(c.ea_component())).collect();
        Dram {
            channels,
            core_channels: Vec::new(),
            all_channels: (0..config.channels).collect(),
            in_flight: BinaryHeap::new(),
            in_flight_data: Vec::new(),
            free_slots: Vec::new(),
            per_core_bytes: Vec::new(),
            trace: None,
            now: 0,
            pending_count: 0,
            scratch_committed: Vec::new(),
            ch_att,
            ch_ea,
            config,
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Restrict `core` to a subset of channels (bandwidth partitioning).
    ///
    /// Cores default to all channels (full sharing). Subsets of different
    /// cores may overlap arbitrarily.
    ///
    /// # Panics
    ///
    /// Panics if the subset is empty or names an out-of-range channel.
    pub fn set_core_channels(&mut self, core: usize, channels: Vec<usize>) {
        assert!(!channels.is_empty(), "channel subset must not be empty");
        assert!(channels.iter().all(|&c| c < self.config.channels), "channel index out of range");
        if self.core_channels.len() <= core {
            self.core_channels.resize(core + 1, Vec::new());
        }
        self.core_channels[core] = channels;
    }

    fn subset_of(&self, core: usize) -> &[usize] {
        match self.core_channels.get(core) {
            Some(v) if !v.is_empty() => v,
            _ => &self.all_channels,
        }
    }

    /// Enable windowed bandwidth tracing (see [`BandwidthTrace`]).
    pub fn enable_trace(&mut self, window: u64, cores: usize) {
        self.trace = Some(BandwidthTrace::new(window, cores));
    }

    /// The bandwidth trace, if enabled.
    pub fn trace(&self) -> Option<&BandwidthTrace> {
        self.trace.as_ref()
    }

    /// Number of transactions enqueued or in flight.
    pub fn pending(&self) -> usize {
        self.pending_count
    }

    /// Submit a 64-byte transaction at device cycle `now`.
    ///
    /// `meta` is an opaque tag returned in the [`Completion`].
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] when the target channel queue is
    /// saturated — the caller should retry after the next event.
    pub fn try_enqueue(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
    ) -> Result<(), EnqueueError> {
        self.try_enqueue_probed(now, core, addr, is_write, meta, &mut NullProbe)
    }

    /// [`Dram::try_enqueue`] with an observability probe: on acceptance it
    /// emits [`Event::DramIssue`] carrying the target channel's queue
    /// occupancy (reorder-window pressure). With [`NullProbe`] this
    /// monomorphizes to exactly the unprobed path.
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] when the target channel queue is
    /// saturated — the caller should retry after the next event.
    pub fn try_enqueue_probed<P: Probe>(
        &mut self,
        now: u64,
        core: usize,
        addr: u64,
        is_write: bool,
        meta: u64,
        probe: &mut P,
    ) -> Result<(), EnqueueError> {
        let decoded = decode(addr, &self.config, self.subset_of(core));
        let ch = decoded.channel;
        let flat = decoded.flat_bank(&self.config) as u32;
        let p = Pending { meta, core, addr, decoded, flat, is_write, arrival: now, bypassed: 0 };
        if !self.channels[ch].enqueue(p) {
            return Err(EnqueueError::QueueFull { channel: ch });
        }
        // `0` sentinel: attend this channel at the next tick (the arrival
        // may be committable immediately) and recompute its earliest
        // action lazily.
        self.ch_att[ch].set(0);
        self.ch_ea[ch].set(0);
        self.pending_count += 1;
        if P::ENABLED {
            probe.record(
                now,
                Event::DramIssue { channel: ch, queue_depth: self.channels[ch].queue_len() },
            );
        }
        Ok(())
    }

    /// Advance the device clock to `now` (monotone non-decreasing), commit
    /// every command that becomes legal, and return the transactions whose
    /// data finished by `now`, ordered by completion cycle.
    ///
    /// Convenience wrapper around [`Dram::advance_into`]; hot callers should
    /// pass a reused buffer to `advance_into` instead.
    pub fn advance(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// [`Dram::advance`], appending completions to a caller-owned buffer so
    /// the per-tick path allocates nothing.
    pub fn advance_into(&mut self, now: u64, out: &mut Vec<Completion>) {
        self.advance_into_probed(now, out, &mut NullProbe);
    }

    /// [`Dram::advance_into`] with an observability probe: each committed
    /// command emits its row-buffer outcome (hit / miss / conflict, with
    /// queue residency) and each all-bank refresh is reported. With
    /// [`NullProbe`] this monomorphizes to exactly the unprobed path.
    pub fn advance_into_probed<P: Probe>(
        &mut self,
        now: u64,
        out: &mut Vec<Completion>,
        probe: &mut P,
    ) {
        debug_assert!(now >= self.now, "clock must be monotone");
        self.now = self.now.max(now);

        let mut committed = std::mem::take(&mut self.scratch_committed);
        for i in 0..self.channels.len() {
            // Attention filter: a channel whose cached attention cycle lies
            // beyond `now` has no run slot, no actionable candidate and no
            // due refresh — its `advance_probed` would be a pure no-op, so
            // the call is skipped outright. An enqueue stores 0 (never
            // beyond `now`), so freshly fed channels are always attended.
            // This is what turns the per-wake cost from O(channels) into
            // O(channels with work).
            if self.ch_att[i].get() > now {
                continue;
            }
            let ch = &mut self.channels[i];
            ch.advance_probed(now, &mut committed, probe, i);
            self.ch_att[i].set(ch.next_attention());
            self.ch_ea[i].set(ch.ea_component());
            for c in committed.drain(..) {
                // Account bytes at commit time (the data burst is scheduled).
                if self.per_core_bytes.len() <= c.core {
                    self.per_core_bytes.resize(c.core + 1, 0);
                }
                self.per_core_bytes[c.core] += crate::address::TRANSACTION_BYTES;
                if let Some(t) = &mut self.trace {
                    t.record(c.completed_at, c.core, crate::address::TRANSACTION_BYTES);
                }
                let slot = match self.free_slots.pop() {
                    Some(s) => {
                        self.in_flight_data[s] = Some(c);
                        s
                    }
                    None => {
                        self.in_flight_data.push(Some(c));
                        self.in_flight_data.len() - 1
                    }
                };
                self.in_flight.push(Reverse((c.completed_at, slot as u64)));
            }
        }
        self.scratch_committed = committed;

        while let Some(&Reverse((t, slot))) = self.in_flight.peek() {
            if t > now {
                break;
            }
            self.in_flight.pop();
            let c = self.in_flight_data[slot as usize].take().expect("slot occupied");
            self.free_slots.push(slot as usize);
            self.pending_count -= 1;
            out.push(c);
        }
    }

    /// The next cycle at which the device changes state: a pending data
    /// burst completes or a channel can commit another command. `None` when
    /// fully idle.
    pub fn next_event(&self) -> Option<u64> {
        let mut next: Option<u64> = self.in_flight.peek().map(|&Reverse((t, _))| t);
        for (i, ch) in self.channels.iter().enumerate() {
            // One cached word per channel instead of re-deriving the
            // scheduler pick; an enqueue since the last advance stores the
            // 0 ("stale") sentinel and the entry is refilled here (through
            // the `Cell`). The refresh-due branch of
            // `Channel::earliest_action_uncached` has no cached counterpart
            // because `next_refresh > self.now` holds for every channel
            // between `advance` calls: the attention filter forces an
            // advance (which pushes the deadline out) before a due refresh
            // can be observed here.
            let mut t = self.ch_ea[i].get();
            if t == 0 {
                t = ch.ea_component();
                self.ch_ea[i].set(t);
            }
            if t != u64::MAX {
                let t = t.max(self.now);
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        }
        // Never return a cycle in the past.
        next.map(|t| t.max(self.now + 1))
    }

    /// [`Dram::next_event`] recomputed from scratch, bypassing every
    /// channel's memoized scheduler pick. Exists solely so property tests
    /// can check the cached answer against a brute-force rescan; not part
    /// of the stable API.
    #[doc(hidden)]
    pub fn next_event_uncached(&self) -> Option<u64> {
        let mut next: Option<u64> = self.in_flight.peek().map(|&Reverse((t, _))| t);
        for ch in &self.channels {
            if let Some(t) = ch.earliest_action_uncached(self.now) {
                next = Some(match next {
                    Some(n) => n.min(t),
                    None => t,
                });
            }
        }
        next.map(|t| t.max(self.now + 1))
    }

    /// Commits retired through the steady-state fast path, summed over
    /// channels. Diagnostic for equivalence tests and benches — never part
    /// of [`DramStats`] (the fast path must not change any reported field).
    #[doc(hidden)]
    pub fn fastfwd_commits(&self) -> u64 {
        self.channels.iter().map(|c| c.fastfwd_commits()).sum()
    }

    /// Serialize all mutable device state: every channel, the in-flight
    /// burst buffer (verbatim, including slot numbering and the free-slot
    /// stack — slot numbers tie-break equal completion cycles, so the
    /// allocation history is observable and must survive restore
    /// bit-exactly), byte accounting, the bandwidth trace and the clock.
    /// Structural state (config, channel partitions) is excluded: restore
    /// targets a device built from the same configuration.
    pub fn save_state(&self, w: &mut Writer) {
        w.tag(0xD0);
        w.usize(self.channels.len());
        for ch in &self.channels {
            ch.save_state(w);
        }
        // The heap's keys, sorted: `(completed_at, slot)` is unique per
        // entry, so heap pop order is a pure function of this set.
        let mut keys: Vec<(u64, u64)> = self.in_flight.iter().map(|&Reverse(k)| k).collect();
        keys.sort_unstable();
        w.seq(&keys, |w, &(t, slot)| {
            w.u64(t);
            w.u64(slot);
        });
        w.seq(&self.in_flight_data, |w, slot| {
            w.opt(slot, |w, c| {
                w.u64(c.meta);
                w.usize(c.core);
                w.u64(c.addr);
                w.bool(c.is_write);
                w.u64(c.completed_at);
            });
        });
        w.seq(&self.free_slots, |w, &s| w.usize(s));
        w.seq(&self.per_core_bytes, |w, &b| w.u64(b));
        w.opt(&self.trace, |w, t| t.save_state(w));
        w.u64(self.now);
        w.usize(self.pending_count);
        w.seq(&self.ch_att, |w, c| w.u64(c.get()));
        w.seq(&self.ch_ea, |w, c| w.u64(c.get()));
    }

    /// Restore state saved by [`Dram::save_state`] into a device built from
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or shaped for a
    /// different configuration (channel/bank counts disagree).
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(0xD0)?;
        if r.usize()? != self.channels.len() {
            return Err(SnapError::BadValue("channel count mismatch"));
        }
        for ch in &mut self.channels {
            ch.load_state(r)?;
        }
        let keys = r.seq(|r| Ok((r.u64()?, r.u64()?)))?;
        self.in_flight = keys.into_iter().map(Reverse).collect();
        self.in_flight_data = r.seq(|r| {
            r.opt(|r| {
                Ok(Completion {
                    meta: r.u64()?,
                    core: r.usize()?,
                    addr: r.u64()?,
                    is_write: r.bool()?,
                    completed_at: r.u64()?,
                })
            })
        })?;
        self.free_slots = r.seq(|r| r.usize())?;
        self.per_core_bytes = r.seq(|r| r.u64())?;
        let trace = r.opt(BandwidthTrace::load_state)?;
        if trace.is_some() != self.trace.is_some() {
            return Err(SnapError::BadValue("bandwidth trace enablement mismatch"));
        }
        self.trace = trace;
        self.now = r.u64()?;
        self.pending_count = r.usize()?;
        let att = r.seq(|r| r.u64())?;
        let ea = r.seq(|r| r.u64())?;
        if att.len() != self.ch_att.len() || ea.len() != self.ch_ea.len() {
            return Err(SnapError::BadValue("attention cache length mismatch"));
        }
        for (c, v) in self.ch_att.iter().zip(att) {
            c.set(v);
        }
        for (c, v) in self.ch_ea.iter().zip(ea) {
            c.set(v);
        }
        self.scratch_committed.clear();
        Ok(())
    }

    /// Snapshot of device statistics.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats {
            per_channel: self.channels.iter().map(|c| c.stats().clone()).collect(),
            per_core_bytes: self.per_core_bytes.clone(),
            ..Default::default()
        };
        for c in &s.per_channel {
            s.total.merge(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_idle(dram: &mut Dram, mut now: u64) -> (Vec<Completion>, u64) {
        let mut all = Vec::new();
        loop {
            all.extend(dram.advance(now));
            match dram.next_event() {
                Some(t) => now = t,
                None => break,
            }
        }
        (all, now)
    }

    /// Enqueue with retry, advancing the clock whenever a queue is full.
    fn enqueue_all(dram: &mut Dram, reqs: &[(usize, u64, bool, u64)]) -> Vec<Completion> {
        let mut all = Vec::new();
        let mut now = 0;
        for &(core, addr, is_write, meta) in reqs {
            while dram.try_enqueue(now, core, addr, is_write, meta).is_err() {
                now = dram.next_event().expect("device must drain");
                all.extend(dram.advance(now));
            }
        }
        let (rest, _) = run_until_idle(dram, now);
        all.extend(rest);
        all
    }

    #[test]
    fn single_read_completes() {
        let mut d = Dram::new(DramConfig::hbm2(8));
        d.try_enqueue(0, 0, 4096, false, 7).unwrap();
        let (done, _) = run_until_idle(&mut d, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].meta, 7);
        assert!(!done[0].is_write);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn sequential_stream_spreads_over_channels() {
        let mut d = Dram::new(DramConfig::hbm2(8));
        for i in 0..64u64 {
            d.try_enqueue(0, 0, i * 64, false, i).unwrap();
        }
        let (done, _) = run_until_idle(&mut d, 0);
        assert_eq!(done.len(), 64);
        let s = d.stats();
        for ch in &s.per_channel {
            assert_eq!(ch.reads, 8, "each channel gets 64/8 reads");
        }
    }

    #[test]
    fn partitioned_core_only_uses_its_channels() {
        let mut d = Dram::new(DramConfig::hbm2(8));
        d.set_core_channels(0, vec![0, 1]);
        for i in 0..32u64 {
            d.try_enqueue(0, 0, i * 64, false, i).unwrap();
        }
        let (done, _) = run_until_idle(&mut d, 0);
        assert_eq!(done.len(), 32);
        let s = d.stats();
        assert_eq!(s.per_channel[0].reads + s.per_channel[1].reads, 32);
        for ch in 2..8 {
            assert_eq!(s.per_channel[ch].reads, 0);
        }
    }

    #[test]
    fn more_channels_finish_a_burst_faster() {
        let burst: Vec<(usize, u64, bool, u64)> =
            (0..256u64).map(|i| (0usize, i * 64, false, i)).collect();
        let mut finish = Vec::new();
        for n in [1usize, 4, 8] {
            let mut d = Dram::new(DramConfig::hbm2(n));
            let done = enqueue_all(&mut d, &burst);
            finish.push(done.iter().map(|c| c.completed_at).max().unwrap());
        }
        assert!(finish[0] > finish[1] && finish[1] > finish[2], "{finish:?}");
        // 8 channels should be roughly 8x the single channel throughput.
        assert!(finish[0] as f64 / finish[2] as f64 > 4.0, "{finish:?}");
    }

    #[test]
    fn queue_full_surfaces_error() {
        let cfg = DramConfig { queue_depth: 2, ..DramConfig::hbm2(1) };
        let mut d = Dram::new(cfg);
        d.try_enqueue(0, 0, 0, false, 0).unwrap();
        d.try_enqueue(0, 0, 64, false, 1).unwrap();
        let err = d.try_enqueue(0, 0, 128, false, 2).unwrap_err();
        assert_eq!(err, EnqueueError::QueueFull { channel: 0 });
    }

    #[test]
    fn per_core_byte_accounting() {
        let mut d = Dram::new(DramConfig::hbm2(4));
        for i in 0..10u64 {
            d.try_enqueue(0, 0, i * 64, false, i).unwrap();
            d.try_enqueue(0, 1, (1 << 20) + i * 64, true, 100 + i).unwrap();
        }
        let _ = run_until_idle(&mut d, 0);
        let s = d.stats();
        assert_eq!(s.per_core_bytes[0], 640);
        assert_eq!(s.per_core_bytes[1], 640);
        assert_eq!(s.total.reads, 10);
        assert_eq!(s.total.writes, 10);
    }

    #[test]
    fn trace_records_completions() {
        let mut d = Dram::new(DramConfig::hbm2(4));
        d.enable_trace(100, 2);
        for i in 0..16u64 {
            d.try_enqueue(0, 0, i * 64, false, i).unwrap();
        }
        let _ = run_until_idle(&mut d, 0);
        let t = d.trace().unwrap();
        let total: u64 = t.core_series(0).iter().sum();
        assert_eq!(total, 16 * 64);
    }

    #[test]
    fn completions_are_time_ordered() {
        let mut d = Dram::new(DramConfig::hbm2(2));
        let reqs: Vec<(usize, u64, bool, u64)> =
            (0..100u64).map(|i| (0usize, i * 6400, i % 3 == 0, i)).collect();
        let done = enqueue_all(&mut d, &reqs);
        assert_eq!(done.len(), 100);
        for w in done.windows(2) {
            assert!(w[0].completed_at <= w[1].completed_at);
        }
    }

    #[test]
    fn contention_raises_latency() {
        // Two cores sharing one channel see higher mean latency than one
        // core alone — the basic premise of the whole study.
        let solo = {
            let mut d = Dram::new(DramConfig::hbm2(1));
            let reqs: Vec<(usize, u64, bool, u64)> =
                (0..48u64).map(|i| (0usize, i * 64, false, i)).collect();
            let _ = enqueue_all(&mut d, &reqs);
            d.stats().total.mean_latency()
        };
        let shared = {
            let mut d = Dram::new(DramConfig::hbm2(1));
            let reqs: Vec<(usize, u64, bool, u64)> = (0..48u64)
                .flat_map(|i| {
                    [(0usize, i * 64, false, i), (1usize, (1 << 22) + i * 64, false, 100 + i)]
                })
                .collect();
            let _ = enqueue_all(&mut d, &reqs);
            d.stats().total.mean_latency()
        };
        assert!(shared > solo, "shared {shared} vs solo {solo}");
    }

    #[test]
    #[should_panic(expected = "invalid DRAM config")]
    fn invalid_config_panics() {
        let mut c = DramConfig::hbm2(8);
        c.channels = 0;
        let _ = Dram::new(c);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::SchedPolicy;

    #[test]
    fn fcfs_never_reorders() {
        // Interleave row-conflicting and row-hitting requests; under strict
        // FCFS completions come back in arrival order.
        let mut cfg = DramConfig::hbm2(1);
        cfg.policy = SchedPolicy::Fcfs;
        let mut d = Dram::new(cfg);
        for i in 0..32u64 {
            // Alternate two far-apart regions to force conflicts.
            let addr = if i % 2 == 0 { i * 64 } else { (1 << 26) + i * 64 };
            d.try_enqueue(0, 0, addr, false, i).unwrap();
        }
        let mut now = 0;
        let mut done = Vec::new();
        loop {
            done.extend(d.advance(now));
            match d.next_event() {
                Some(t) => now = t,
                None => break,
            }
        }
        let metas: Vec<u64> = done.iter().map(|c| c.meta).collect();
        assert_eq!(metas, (0..32).collect::<Vec<u64>>(), "strict arrival order");
    }

    #[test]
    fn frfcfs_beats_fcfs_on_mixed_pattern() {
        let run = |policy: SchedPolicy| {
            let mut cfg = DramConfig::hbm2(1);
            cfg.policy = policy;
            let mut d = Dram::new(cfg);
            for i in 0..48u64 {
                let addr = if i % 3 == 0 { (1 << 26) + i * 64 } else { i * 64 };
                d.try_enqueue(0, 0, addr, false, i).unwrap();
            }
            let mut now = 0;
            let mut last = 0;
            loop {
                for c in d.advance(now) {
                    last = last.max(c.completed_at);
                }
                match d.next_event() {
                    Some(t) => now = t,
                    None => break,
                }
            }
            last
        };
        assert!(run(SchedPolicy::FrFcfs) <= run(SchedPolicy::Fcfs));
    }
}
