//! The instruction-side memory hierarchy: L1i → L2 → L3 → memory.
//!
//! Caches are set-associative tag arrays over 64-byte lines with true LRU.
//! In-flight fills are tracked in an MSHR-like map so demand accesses that
//! hit an outstanding prefetch wait only for the remaining latency — the
//! mechanism by which FDIP hides I-cache misses.


use twig_types::{CacheLineAddr, FxHashMap};

use crate::config::{CacheGeometry, SimConfig};
use crate::integrity::{Fault, Validator, ViolationKind};

/// Where a request was satisfied (for statistics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillSource {
    /// Hit in L1i.
    L1i,
    /// Joined an outstanding fill (issued earlier, possibly by FDIP).
    InFlight,
    /// Filled from L2.
    L2,
    /// Filled from L3.
    L3,
    /// Filled from DRAM.
    Memory,
}

/// Result of a cache access or prefetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle at which the line's bytes are usable by fetch.
    pub ready_at: u64,
    /// Where the line came from.
    pub source: FillSource,
    /// Whether a new fill into L1i was initiated (triggers predecode hooks
    /// for Confluence-style prefetchers).
    pub filled_l1i: bool,
}

/// One set-associative tag array (MRU-first true LRU).
///
/// Tags live in a single flat `sets × ways` slab rather than one `Vec` per
/// set: a lookup touches exactly one contiguous stripe (one or two cache
/// lines of host memory) instead of chasing a per-set heap pointer, and LRU
/// promotion is an in-place prefix rotation instead of a `remove` +
/// `insert(0)` pair shifting through a separate allocation. Only the first
/// `lens[set]` slots of each stripe are meaningful.
#[derive(Clone, Debug)]
struct TagArray {
    /// `sets × ways` tag slots; each set's occupied prefix is MRU-first.
    tags: Box<[u64]>,
    /// Occupied slot count per set.
    lens: Box<[u32]>,
    ways: usize,
    mask: u64,
}

impl TagArray {
    fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        TagArray {
            tags: vec![0; sets * geometry.ways].into_boxed_slice(),
            lens: vec![0; sets].into_boxed_slice(),
            ways: geometry.ways,
            mask: sets as u64 - 1,
        }
    }

    #[inline]
    fn set_and_tag(&self, line: CacheLineAddr) -> (usize, u64) {
        let n = line.line_number();
        ((n & self.mask) as usize, n >> self.mask.count_ones())
    }

    /// Hit check with LRU promotion.
    fn access(&mut self, line: CacheLineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        let len = self.lens[set] as usize;
        let ways = &mut self.tags[set * self.ways..][..len];
        match ways.iter().position(|&t| t == tag) {
            Some(pos) => {
                ways[..=pos].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Inserts a line, returning the evicted line if any.
    fn fill(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let (set, tag) = self.set_and_tag(line);
        let set_bits = self.mask.count_ones();
        let len = self.lens[set] as usize;
        let ways = &mut self.tags[set * self.ways..][..self.ways];
        if let Some(pos) = ways[..len].iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            return None;
        }
        if len < self.ways {
            ways[..=len].rotate_right(1);
            ways[0] = tag;
            self.lens[set] = (len + 1) as u32;
            None
        } else {
            let victim = ways[len - 1];
            ways[..len].rotate_right(1);
            ways[0] = tag;
            let n = (victim << set_bits) | set as u64;
            Some(CacheLineAddr::from_line_number(n))
        }
    }

    fn contains(&self, line: CacheLineAddr) -> bool {
        let (set, tag) = self.set_and_tag(line);
        let len = self.lens[set] as usize;
        self.tags[set * self.ways..][..len].contains(&tag)
    }

    /// Structural scan: per-set occupancy within associativity and no
    /// duplicate tags.
    fn check(&self, name: &str) -> Result<(), Fault> {
        self.check_window(name, 0, self.lens.len())
    }

    /// Structural scan of `count` sets starting at `start` (wrapping).
    ///
    /// Large tag arrays (L2/L3) are validated in rotating windows so a
    /// deep scan's cost is bounded regardless of cache size; the caller
    /// advances its cursor between scans for full coverage.
    fn check_window(&self, name: &str, start: usize, count: usize) -> Result<(), Fault> {
        let n = self.lens.len();
        for off in 0..count.min(n) {
            let set = (start + off) % n;
            let len = self.lens[set] as usize;
            if len > self.ways {
                return Err(Fault::new(
                    ViolationKind::IcacheAccounting,
                    format!("{name} set {set}: {len} tags exceed {} ways", self.ways),
                ));
            }
            let ways = &self.tags[set * self.ways..][..len.min(self.ways)];
            for (i, tag) in ways.iter().enumerate() {
                if ways[..i].contains(tag) {
                    return Err(Fault::new(
                        ViolationKind::IcacheAccounting,
                        format!("{name} set {set}: duplicate tag {tag:#x}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Counters for the instruction-side hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoryStats {
    /// Demand accesses (fetch).
    pub demand_accesses: u64,
    /// Demand accesses that missed L1i (including joins of in-flight fills).
    pub demand_misses: u64,
    /// Demand accesses that found an outstanding fill (FDIP success).
    pub demand_joined_inflight: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Prefetch requests that were already resident or in flight.
    pub redundant_prefetches: u64,
    /// Fills from each level.
    pub fills_l2: u64,
    /// Fills from L3.
    pub fills_l3: u64,
    /// Fills from memory.
    pub fills_memory: u64,
}

/// The L1i/L2/L3/memory hierarchy with in-flight fill tracking.
///
/// # Examples
///
/// ```
/// use twig_sim::{MemoryHierarchy, SimConfig};
/// use twig_types::{Addr, CacheLineAddr};
///
/// let mut mem = MemoryHierarchy::new(&SimConfig::default());
/// let line = CacheLineAddr::containing(Addr::new(0x40_0000));
/// let cold = mem.demand(line, 0);
/// assert!(cold.ready_at >= 200); // memory latency
/// let warm = mem.demand(line, cold.ready_at);
/// assert_eq!(warm.ready_at, cold.ready_at + 1); // L1i hit latency
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1i: TagArray,
    l2: TagArray,
    l3: TagArray,
    inflight: FxHashMap<CacheLineAddr, u64>,
    stats: MemoryStats,
    l1i_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    mem_latency: u64,
    ideal: bool,
    /// Whether fill/eviction events are recorded at all. Only systems
    /// that consume [`BtbSystem::observes_line_events`] callbacks need
    /// them; for everything else the queues would be drained unread, so
    /// the simulator turns recording off.
    ///
    /// [`BtbSystem::observes_line_events`]: crate::BtbSystem::observes_line_events
    track_line_events: bool,
    /// Lines evicted from L1i since the last drain (Confluence invalidates
    /// its line-synced BTB entries from these).
    evicted_l1i: Vec<CacheLineAddr>,
    /// Lines newly filled into L1i since the last drain, with the cycle at
    /// which their bytes arrive.
    filled_l1i: Vec<(CacheLineAddr, u64)>,
    /// Rotating start set for windowed L2/L3 deep scans. Interior
    /// mutability because [`Validator::check`] takes `&self`; the cursor
    /// never influences simulation state, only which window the next
    /// deep scan validates.
    scan_cursor: std::cell::Cell<usize>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        MemoryHierarchy {
            l1i: TagArray::new(config.l1i),
            l2: TagArray::new(config.l2),
            l3: TagArray::new(config.l3),
            inflight: FxHashMap::default(),
            stats: MemoryStats::default(),
            l1i_latency: config.l1i_latency,
            l2_latency: config.l2_latency,
            l3_latency: config.l3_latency,
            mem_latency: config.mem_latency,
            ideal: config.ideal_icache,
            track_line_events: true,
            evicted_l1i: Vec::new(),
            filled_l1i: Vec::new(),
            scan_cursor: std::cell::Cell::new(0),
        }
    }

    /// Demand access from the fetch unit.
    pub fn demand(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.stats.demand_accesses += 1;
        if self.ideal {
            return AccessResult {
                ready_at: cycle + self.l1i_latency,
                source: FillSource::L1i,
                filled_l1i: false,
            };
        }
        let result = self.access_inner(line, cycle);
        if result.source != FillSource::L1i {
            self.stats.demand_misses += 1;
        }
        if result.source == FillSource::InFlight {
            self.stats.demand_joined_inflight += 1;
        }
        result
    }

    /// Prefetch request (FDIP or a hardware BTB prefetcher).
    pub fn prefetch(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.stats.prefetches += 1;
        if self.ideal {
            return AccessResult {
                ready_at: cycle,
                source: FillSource::L1i,
                filled_l1i: false,
            };
        }
        // Residency (for the redundant-prefetch counter) falls out of the
        // lookups the access performs anyway; a separate contains() pass
        // would double the tag/MSHR probes on the hottest path in the
        // simulator (FDIP probes every line of every enqueued block).
        let (result, before_resident) = self.access_counted(line, cycle);
        if before_resident {
            self.stats.redundant_prefetches += 1;
        }
        result
    }

    fn access_inner(&mut self, line: CacheLineAddr, cycle: u64) -> AccessResult {
        self.access_counted(line, cycle).0
    }

    /// The shared demand/prefetch access path. The second return is
    /// whether the line was resident (L1i or in flight) before the access.
    fn access_counted(&mut self, line: CacheLineAddr, cycle: u64) -> (AccessResult, bool) {
        // Outstanding fill? A line can be in flight yet already evicted
        // from the L1i tags, so in-flight state alone establishes
        // residency for the caller's accounting.
        let mut resident = false;
        if let Some(&ready) = self.inflight.get(&line) {
            resident = true;
            if ready > cycle {
                return (
                    AccessResult {
                        ready_at: ready,
                        source: FillSource::InFlight,
                        filled_l1i: false,
                    },
                    resident,
                );
            }
            self.inflight.remove(&line);
        }
        if self.l1i.access(line) {
            return (
                AccessResult {
                    ready_at: cycle + self.l1i_latency,
                    source: FillSource::L1i,
                    filled_l1i: false,
                },
                true,
            );
        }
        // Miss: find the line downstream, fill upward.
        let (latency, source) = if self.l2.access(line) {
            self.stats.fills_l2 += 1;
            (self.l2_latency, FillSource::L2)
        } else if self.l3.access(line) {
            self.stats.fills_l3 += 1;
            if let Some(v) = self.l2.fill(line) {
                let _ = v; // L2 eviction is silent for the I-side model
            }
            (self.l3_latency, FillSource::L3)
        } else {
            self.stats.fills_memory += 1;
            self.l3.fill(line);
            self.l2.fill(line);
            (self.mem_latency, FillSource::Memory)
        };
        let victim = self.l1i.fill(line);
        let ready = cycle + latency;
        if self.track_line_events {
            if let Some(victim) = victim {
                self.evicted_l1i.push(victim);
            }
            self.filled_l1i.push((line, ready));
        }
        self.inflight.insert(line, ready);
        (
            AccessResult {
                ready_at: ready,
                source,
                filled_l1i: true,
            },
            resident,
        )
    }

    /// Whether `line` is resident in L1i (possibly still in flight).
    pub fn l1i_contains(&self, line: CacheLineAddr) -> bool {
        self.ideal || self.l1i.contains(line)
    }

    /// Enables or disables fill/eviction event recording (on by default).
    /// The simulator disables it when the attached system does not
    /// consume the callbacks.
    pub fn set_line_event_tracking(&mut self, on: bool) {
        self.track_line_events = on;
    }

    /// Moves the lines filled into L1i since the last call (each with the
    /// cycle its bytes arrive: predecode cannot start earlier) onto
    /// `filled`, and the lines evicted from L1i onto `evicted`. Both
    /// internal lists keep their capacity, so a caller that reuses its
    /// buffers drains without allocating.
    pub fn drain_line_events_into(
        &mut self,
        filled: &mut Vec<(CacheLineAddr, u64)>,
        evicted: &mut Vec<CacheLineAddr>,
    ) {
        filled.append(&mut self.filled_l1i);
        evicted.append(&mut self.evicted_l1i);
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Number of fills tracked in the MSHR-like in-flight map. Removal is
    /// lazy (a completed fill's entry is dropped on its next access), so
    /// this is an upper bound on truly outstanding fills.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether any fill is still genuinely outstanding at `cycle`
    /// (feeds the livelock watchdog: no retirement *and* no pending fill
    /// means the simulation can never make progress again).
    pub fn has_outstanding_fill(&self, cycle: u64) -> bool {
        self.inflight.values().any(|&ready| ready > cycle)
    }
}

impl Validator for MemoryHierarchy {
    fn component(&self) -> &'static str {
        "icache"
    }

    fn check(&self, deep: bool) -> Result<(), Fault> {
        // MSHR / statistics accounting: joins are a subset of misses, which
        // are a subset of accesses; redundant prefetches never exceed
        // prefetches; fills are bounded by the misses that caused them.
        let s = &self.stats;
        if s.demand_joined_inflight > s.demand_misses || s.demand_misses > s.demand_accesses {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "demand counters inconsistent: joined {} / misses {} / accesses {}",
                    s.demand_joined_inflight, s.demand_misses, s.demand_accesses
                ),
            ));
        }
        if s.redundant_prefetches > s.prefetches {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "redundant prefetches {} exceed prefetches {}",
                    s.redundant_prefetches, s.prefetches
                ),
            ));
        }
        let fills = s.fills_l2 + s.fills_l3 + s.fills_memory;
        if fills > s.demand_accesses + s.prefetches {
            return Err(Fault::new(
                ViolationKind::IcacheAccounting,
                format!(
                    "{} fills exceed {} total requests",
                    fills,
                    s.demand_accesses + s.prefetches
                ),
            ));
        }
        if deep {
            // L1i is small — scan it whole. L2/L3 tag stores are large
            // enough that a full walk would dominate the deep scan, so
            // they are validated in rotating windows: bounded cost per
            // scan, full coverage every few deep periods.
            const DEEP_SCAN_SETS: usize = 256;
            self.l1i.check("l1i")?;
            let cursor = self.scan_cursor.get();
            self.l2.check_window("l2", cursor, DEEP_SCAN_SETS)?;
            self.l3.check_window("l3", cursor, DEEP_SCAN_SETS)?;
            self.scan_cursor.set(cursor.wrapping_add(DEEP_SCAN_SETS));
        }
        Ok(())
    }

    fn snapshot(&self) -> String {
        format!(
            "icache stats {:?}, {} in-flight fills, {} pending fill events, \
             {} pending eviction events",
            self.stats,
            self.inflight.len(),
            self.filled_l1i.len(),
            self.evicted_l1i.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_types::Addr;

    fn line(v: u64) -> CacheLineAddr {
        CacheLineAddr::containing(Addr::new(v))
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::default())
    }

    #[test]
    fn cold_miss_pays_memory_latency() {
        let mut m = mem();
        let r = m.demand(line(0x40_0000), 100);
        assert_eq!(r.source, FillSource::Memory);
        assert_eq!(r.ready_at, 300);
        assert!(r.filled_l1i);
    }

    #[test]
    fn second_access_hits_l1i_after_fill() {
        let mut m = mem();
        let r = m.demand(line(0x1000), 0);
        let r2 = m.demand(line(0x1000), r.ready_at + 1);
        assert_eq!(r2.source, FillSource::L1i);
        assert_eq!(r2.ready_at, r.ready_at + 2);
    }

    #[test]
    fn early_second_access_joins_inflight() {
        let mut m = mem();
        let r = m.demand(line(0x1000), 0);
        let r2 = m.demand(line(0x1000), 10);
        assert_eq!(r2.source, FillSource::InFlight);
        assert_eq!(r2.ready_at, r.ready_at);
        assert_eq!(m.stats().demand_joined_inflight, 1);
    }

    #[test]
    fn prefetch_hides_latency_for_demand() {
        let mut m = mem();
        m.prefetch(line(0x2000), 0);
        // Demand arrives after the fill completed: full hit.
        let r = m.demand(line(0x2000), 500);
        assert_eq!(r.source, FillSource::L1i);
        assert_eq!(r.ready_at, 501);
    }

    #[test]
    fn l1i_eviction_falls_back_to_l2() {
        let mut m = mem();
        let config = SimConfig::default();
        let sets = config.l1i.sets() as u64;
        // Fill one L1i set beyond capacity: lines mapping to set 0.
        let ways = config.l1i.ways as u64;
        let mut t = 0u64;
        for i in 0..(ways + 2) {
            let r = m.demand(line(i * sets * 64), t);
            t = r.ready_at + 1;
        }
        // First line was evicted from L1i but lives in L2 now.
        let r = m.demand(line(0), t);
        assert_eq!(r.source, FillSource::L2);
        assert_eq!(r.ready_at, t + config.l2_latency);
        let (mut filled, mut evicted) = (Vec::new(), Vec::new());
        m.drain_line_events_into(&mut filled, &mut evicted);
        assert!(!evicted.is_empty());
    }

    #[test]
    fn ideal_icache_always_ready() {
        let config = SimConfig {
            ideal_icache: true,
            ..SimConfig::default()
        };
        let mut m = MemoryHierarchy::new(&config);
        let r = m.demand(line(0x0999_9000), 42);
        assert_eq!(r.ready_at, 43);
        assert_eq!(m.stats().demand_misses, 0);
    }

    #[test]
    fn redundant_prefetch_is_counted() {
        let mut m = mem();
        m.prefetch(line(0x3000), 0);
        m.prefetch(line(0x3000), 1);
        assert_eq!(m.stats().prefetches, 2);
        assert_eq!(m.stats().redundant_prefetches, 1);
    }

    #[test]
    fn filled_lines_are_reported() {
        let mut m = mem();
        m.demand(line(0x1000), 0);
        m.prefetch(line(0x2000), 0);
        let (mut filled, mut evicted) = (Vec::new(), Vec::new());
        m.drain_line_events_into(&mut filled, &mut evicted);
        assert_eq!(filled.len(), 2);
        assert!(filled.iter().all(|&(_, ready)| ready > 0));
        filled.clear();
        m.drain_line_events_into(&mut filled, &mut evicted);
        assert!(filled.is_empty());
    }
}
