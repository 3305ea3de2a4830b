//! The [`BtbSystem`] abstraction: BTB organization plus prefetch policy.
//!
//! The paper compares four BTB designs on the same FDIP frontend: the plain
//! baseline BTB (optionally fed by Twig's software prefetch instructions),
//! Shotgun's partitioned BTB, Confluence's line-synced AirBTB, and an ideal
//! BTB. The simulator core is agnostic: it drives any [`BtbSystem`] through
//! lookup/resolve hooks plus I-cache-event and software-prefetch hooks.

use twig_types::{Addr, BlockId, BranchKind, BranchRecord, CacheLineAddr, PrefetchOp};
use twig_workload::Program;

use crate::btb::Btb;
use crate::config::SimConfig;
use crate::icache::MemoryHierarchy;
use crate::integrity::{MutationKind, Validator};
use crate::prefetch_buffer::{PrefetchBuffer, PrefetchBufferStats};

/// Mutable frontend state handed to [`BtbSystem`] hooks.
#[derive(Debug)]
pub struct FrontendCtx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// The simulated program (for predecode queries and op resolution).
    pub program: &'a Program,
    /// The instruction-side memory hierarchy (for issuing line prefetches).
    pub mem: &'a mut MemoryHierarchy,
}

/// Outcome of a BTB lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LookupOutcome {
    /// Found in the BTB proper.
    Hit {
        /// The predicted taken target.
        target: Addr,
        /// The stored branch kind.
        kind: BranchKind,
    },
    /// Found in the prefetch buffer: a would-be miss that prefetching
    /// covered. The entry is promoted into the BTB.
    CoveredMiss {
        /// The predicted taken target.
        target: Addr,
        /// The stored branch kind.
        kind: BranchKind,
    },
    /// Not present anywhere.
    Miss,
}

impl LookupOutcome {
    /// Whether this lookup avoided a resteer.
    pub fn is_hit(&self) -> bool {
        !matches!(self, LookupOutcome::Miss)
    }
}

/// A BTB organization plus its prefetching machinery.
///
/// Object-safe so experiment harnesses can select implementations at
/// runtime (`Box<dyn BtbSystem>` also implements the trait).
pub trait BtbSystem {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// BPU-time branch-target lookup.
    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome;

    /// A taken branch resolved; install/refresh its entry.
    fn resolve_taken(&mut self, rec: &BranchRecord, block: BlockId, ctx: &mut FrontendCtx<'_>);

    /// An L1i line was filled (demand or prefetch); its bytes arrive at
    /// `ready_at`, so predecoded entries cannot be usable before then.
    fn line_filled(&mut self, line: CacheLineAddr, ready_at: u64, ctx: &mut FrontendCtx<'_>) {
        let _ = (line, ready_at, ctx);
    }

    /// An L1i line was evicted.
    fn line_evicted(&mut self, line: CacheLineAddr, ctx: &mut FrontendCtx<'_>) {
        let _ = (line, ctx);
    }

    /// Whether this system consumes [`line_filled`]/[`line_evicted`]
    /// callbacks. Systems that leave both as the default no-ops return
    /// `false` (the default) and the memory hierarchy skips recording
    /// line events entirely — the queues would only ever be drained into
    /// the void. Predecode-based prefetchers (Confluence) return `true`.
    ///
    /// [`line_filled`]: BtbSystem::line_filled
    /// [`line_evicted`]: BtbSystem::line_evicted
    fn observes_line_events(&self) -> bool {
        false
    }

    /// A demand fetch missed L1i (temporal-stream trigger).
    fn line_demand_miss(&mut self, line: CacheLineAddr, ctx: &mut FrontendCtx<'_>) {
        let _ = (line, ctx);
    }

    /// The BPU enqueued a fetch block spanning `[first_line, last_line]`
    /// (inclusive). Shotgun-style prefetchers learn spatial footprints from
    /// this access stream.
    fn lines_accessed(
        &mut self,
        first_line: CacheLineAddr,
        last_line: CacheLineAddr,
        ctx: &mut FrontendCtx<'_>,
    ) {
        let _ = (first_line, last_line, ctx);
    }

    /// A software BTB prefetch op was decoded at cycle `decoded_at`.
    fn software_prefetch(
        &mut self,
        op: &PrefetchOp,
        decoded_at: u64,
        ctx: &mut FrontendCtx<'_>,
    ) {
        let _ = (op, decoded_at, ctx);
    }

    /// Prefetch coverage/accuracy counters.
    fn prefetch_stats(&self) -> PrefetchBufferStats;

    /// Arms differential reference models inside the system's structures
    /// (called once, before the first lookup, under `paranoid`).
    fn enable_differential(&mut self) {}

    /// The system's self-checking structures, polled by the integrity
    /// layer. Default: none.
    fn validators(&self) -> Vec<&dyn Validator> {
        Vec::new()
    }

    /// Applies a seeded corruption for the integrity mutation drill.
    /// Returns whether the system owns a structure of that kind (the
    /// simulator falls back to its own IBTB/RAS otherwise).
    #[doc(hidden)]
    fn inject_corruption(&mut self, kind: MutationKind) -> bool {
        let _ = kind;
        false
    }

    /// Contributes system-specific counters to the observability
    /// registry at end of run (called only when the obs tier is on).
    /// Default: nothing. Implementations should namespace their metrics
    /// under `system.<name>.`.
    fn register_metrics(&self, registry: &mut twig_obs::MetricsRegistry) {
        let _ = registry;
    }
}

impl<T: BtbSystem + ?Sized> BtbSystem for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome {
        (**self).lookup(pc, ctx)
    }
    fn resolve_taken(&mut self, rec: &BranchRecord, block: BlockId, ctx: &mut FrontendCtx<'_>) {
        (**self).resolve_taken(rec, block, ctx)
    }
    fn line_filled(&mut self, line: CacheLineAddr, ready_at: u64, ctx: &mut FrontendCtx<'_>) {
        (**self).line_filled(line, ready_at, ctx)
    }
    fn line_evicted(&mut self, line: CacheLineAddr, ctx: &mut FrontendCtx<'_>) {
        (**self).line_evicted(line, ctx)
    }
    fn observes_line_events(&self) -> bool {
        (**self).observes_line_events()
    }
    fn line_demand_miss(&mut self, line: CacheLineAddr, ctx: &mut FrontendCtx<'_>) {
        (**self).line_demand_miss(line, ctx)
    }
    fn lines_accessed(
        &mut self,
        first_line: CacheLineAddr,
        last_line: CacheLineAddr,
        ctx: &mut FrontendCtx<'_>,
    ) {
        (**self).lines_accessed(first_line, last_line, ctx)
    }
    fn software_prefetch(&mut self, op: &PrefetchOp, decoded_at: u64, ctx: &mut FrontendCtx<'_>) {
        (**self).software_prefetch(op, decoded_at, ctx)
    }
    fn prefetch_stats(&self) -> PrefetchBufferStats {
        (**self).prefetch_stats()
    }
    fn enable_differential(&mut self) {
        (**self).enable_differential()
    }
    fn validators(&self) -> Vec<&dyn Validator> {
        (**self).validators()
    }
    fn inject_corruption(&mut self, kind: MutationKind) -> bool {
        (**self).inject_corruption(kind)
    }
    fn register_metrics(&self, registry: &mut twig_obs::MetricsRegistry) {
        (**self).register_metrics(registry)
    }
}


/// Reusable execution engine for Twig's software BTB prefetch instructions.
///
/// Any [`BtbSystem`] can embed one to gain `brprefetch`/`brcoalesce`
/// support: it owns the prefetch buffer, models the prefetch-execution
/// latency and the coalesce-table line buffer, and resolves id-based
/// operands against the program's current layout. Twig's claim that it
/// works with *any* underlying BTB organization (§5) is exactly this
/// separation.
#[derive(Debug)]
pub struct SoftwarePrefetcher {
    buffer: PrefetchBuffer,
    prefetch_exec_latency: u64,
    coalesce_miss_latency: u64,
    /// Tiny LRU of recently read coalesce-table lines: consecutive
    /// `brcoalesce` ops hitting the same table line pay the cheap latency.
    table_lines: Vec<CacheLineAddr>,
}

/// Capacity of the coalesce-table line buffer.
const TABLE_LINE_BUFFER: usize = 16;

impl SoftwarePrefetcher {
    /// Builds the engine from the simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        SoftwarePrefetcher {
            buffer: PrefetchBuffer::new(config.prefetch_buffer_entries),
            prefetch_exec_latency: config.prefetch_exec_latency,
            coalesce_miss_latency: config.coalesce_table_miss_latency,
            table_lines: Vec::with_capacity(TABLE_LINE_BUFFER),
        }
    }

    /// Demand lookup in the prefetch buffer (consumes the entry).
    pub fn take(&mut self, pc: Addr, cycle: u64) -> Option<crate::prefetch_buffer::BufferedEntry> {
        self.buffer.take(pc, cycle)
    }

    /// Buffer statistics.
    pub fn stats(&self) -> PrefetchBufferStats {
        self.buffer.stats()
    }

    /// Whether an entry for `pc` is resident.
    pub fn contains(&self, pc: Addr) -> bool {
        self.buffer.contains(pc)
    }

    /// The underlying prefetch buffer (integrity checking).
    pub fn buffer(&self) -> &PrefetchBuffer {
        &self.buffer
    }

    /// Executes one decoded prefetch op.
    pub fn execute(&mut self, op: &PrefetchOp, decoded_at: u64, program: &Program) {
        match *op {
            PrefetchOp::BrPrefetch { branch_block } => {
                let ready = decoded_at + self.prefetch_exec_latency;
                self.insert_block(branch_block, ready, program);
            }
            PrefetchOp::BrCoalesce {
                base_index,
                bitmask,
            } => {
                let table = program.coalesce_table();
                let line = program.coalesce_entry_addr(base_index).line();
                let mem_latency = self.table_line_latency(line);
                let ready = decoded_at + self.prefetch_exec_latency + mem_latency;
                let mut mask = bitmask;
                while mask != 0 {
                    let bit = mask.trailing_zeros();
                    mask &= mask - 1;
                    let idx = base_index as usize + bit as usize;
                    if let Some(&block) = table.get(idx) {
                        self.insert_block(block, ready, program);
                    }
                }
            }
        }
    }

    fn table_line_latency(&mut self, line: CacheLineAddr) -> u64 {
        if let Some(pos) = self.table_lines.iter().position(|&l| l == line) {
            self.table_lines.remove(pos);
            self.table_lines.insert(0, line);
            1
        } else {
            self.table_lines.insert(0, line);
            self.table_lines.truncate(TABLE_LINE_BUFFER);
            self.coalesce_miss_latency
        }
    }

    fn insert_block(&mut self, block: BlockId, ready_at: u64, program: &Program) {
        let b = program.block(block);
        let Some(kind) = b.branch_kind() else { return };
        let Some(target) = program.direct_branch_target_addr(block) else {
            return;
        };
        self.buffer.insert(program.branch_pc(block), target, kind, ready_at);
    }
}

/// The baseline BTB organization: a single set-associative BTB plus the
/// prefetch buffer consumed by Twig's `brprefetch`/`brcoalesce`
/// instructions. With no injected ops in the program this is exactly the
/// paper's FDIP baseline.
///
/// # Examples
///
/// ```
/// use twig_sim::{PlainBtb, SimConfig};
///
/// let system = PlainBtb::new(&SimConfig::default());
/// assert_eq!(system.name(), "plain");
/// # use twig_sim::BtbSystem;
/// ```
#[derive(Debug)]
pub struct PlainBtb {
    btb: Btb,
    software: SoftwarePrefetcher,
}

impl PlainBtb {
    /// Builds the baseline system from the simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        PlainBtb {
            btb: Btb::new(config.btb),
            software: SoftwarePrefetcher::new(config),
        }
    }

    /// Direct access to the underlying BTB (tests, occupancy inspection).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }
}

impl BtbSystem for PlainBtb {
    fn name(&self) -> &str {
        "plain"
    }

    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome {
        if let Some(entry) = self.btb.lookup(pc) {
            return LookupOutcome::Hit {
                target: entry.target,
                kind: entry.kind,
            };
        }
        if let Some(buffered) = self.software.take(pc, ctx.cycle) {
            self.btb.insert(pc, buffered.target, buffered.kind);
            return LookupOutcome::CoveredMiss {
                target: buffered.target,
                kind: buffered.kind,
            };
        }
        LookupOutcome::Miss
    }

    fn resolve_taken(&mut self, rec: &BranchRecord, _block: BlockId, _ctx: &mut FrontendCtx<'_>) {
        if let Some(target) = rec.outcome.target() {
            self.btb.insert(rec.pc, target, rec.kind);
        }
    }

    fn software_prefetch(&mut self, op: &PrefetchOp, decoded_at: u64, ctx: &mut FrontendCtx<'_>) {
        self.software.execute(op, decoded_at, ctx.program);
    }

    fn prefetch_stats(&self) -> PrefetchBufferStats {
        self.software.stats()
    }

    fn enable_differential(&mut self) {
        self.btb.enable_shadow();
    }

    fn validators(&self) -> Vec<&dyn Validator> {
        vec![&self.btb, self.software.buffer()]
    }

    fn inject_corruption(&mut self, kind: MutationKind) -> bool {
        match kind {
            MutationKind::BtbOccupancy => {
                self.btb.corrupt_occupancy();
                true
            }
            MutationKind::RasDepth => false,
        }
    }

    fn register_metrics(&self, registry: &mut twig_obs::MetricsRegistry) {
        registry.set_by_name("system.plain.btb_occupancy", self.btb.occupancy() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_workload::{ProgramGenerator, WorkloadSpec};

    fn setup() -> (Program, SimConfig, MemoryHierarchy) {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default();
        let mem = MemoryHierarchy::new(&config);
        (program, config, mem)
    }

    fn first_direct_branch(program: &Program) -> BlockId {
        program
            .blocks()
            .find(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn miss_then_resolve_then_hit() {
        let (program, config, mut mem) = setup();
        let mut sys = PlainBtb::new(&config);
        let block = first_direct_branch(&program);
        let rec = program.resolve_branch(block, true, Some(block_target(&program, block))).unwrap();
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        assert_eq!(sys.lookup(rec.pc, &mut ctx), LookupOutcome::Miss);
        sys.resolve_taken(&rec, block, &mut ctx);
        assert!(matches!(
            sys.lookup(rec.pc, &mut ctx),
            LookupOutcome::Hit { .. }
        ));
    }

    fn block_target(program: &Program, block: BlockId) -> BlockId {
        use twig_workload::Terminator;
        match &program.block(block).term {
            Terminator::Conditional { taken, .. } => *taken,
            Terminator::Jump { target } => *target,
            Terminator::Call { callee, .. } => program.function(*callee).entry,
            _ => panic!("not a direct branch"),
        }
    }

    #[test]
    fn brprefetch_covers_would_be_miss() {
        let (program, config, mut mem) = setup();
        let mut sys = PlainBtb::new(&config);
        let block = first_direct_branch(&program);
        let pc = program.branch_pc(block);
        let op = PrefetchOp::BrPrefetch {
            branch_block: block,
        };
        let mut ctx = FrontendCtx {
            cycle: 100,
            program: &program,
            mem: &mut mem,
        };
        sys.software_prefetch(&op, 50, &mut ctx);
        // Ready at 50 + prefetch_exec_latency < 100: covered.
        match sys.lookup(pc, &mut ctx) {
            LookupOutcome::CoveredMiss { target, .. } => {
                assert_eq!(Some(target), program.direct_branch_target_addr(block));
            }
            other => panic!("expected covered miss, got {other:?}"),
        }
        // Promoted into the BTB: next lookup is a plain hit.
        assert!(matches!(
            sys.lookup(pc, &mut ctx),
            LookupOutcome::Hit { .. }
        ));
        assert_eq!(sys.prefetch_stats().used, 1);
    }

    #[test]
    fn late_prefetch_does_not_cover() {
        let (program, config, mut mem) = setup();
        let mut sys = PlainBtb::new(&config);
        let block = first_direct_branch(&program);
        let pc = program.branch_pc(block);
        let mut ctx = FrontendCtx {
            cycle: 51,
            program: &program,
            mem: &mut mem,
        };
        sys.software_prefetch(
            &PrefetchOp::BrPrefetch {
                branch_block: block,
            },
            50,
            &mut ctx,
        );
        // decoded_at 50 + latency 4 = 54 > 51: still in flight.
        assert_eq!(sys.lookup(pc, &mut ctx), LookupOutcome::Miss);
    }

    #[test]
    fn brcoalesce_prefetches_masked_entries() {
        let (mut program, config, mut mem) = setup();
        // Build a coalesce table from the first few direct branches.
        let table: Vec<BlockId> = program
            .blocks()
            .filter(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(8)
            .collect();
        assert!(table.len() >= 4);
        program.set_coalesce_table(table.clone());
        let mut sys = PlainBtb::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 1000,
            program: &program,
            mem: &mut mem,
        };
        sys.software_prefetch(
            &PrefetchOp::BrCoalesce {
                base_index: 0,
                bitmask: 0b1011,
            },
            0,
            &mut ctx,
        );
        assert_eq!(sys.prefetch_stats().inserted, 3);
        for (i, &block) in table.iter().take(4).enumerate() {
            let pc = program.branch_pc(block);
            let outcome = sys.lookup(pc, &mut ctx);
            if i == 2 {
                assert_eq!(outcome, LookupOutcome::Miss, "bit 2 unset");
            } else {
                assert!(outcome.is_hit(), "entry {i} should be prefetched");
            }
        }
    }

    #[test]
    fn coalesce_table_line_buffer_amortizes_latency() {
        let (mut program, config, mut mem) = setup();
        let table: Vec<BlockId> = program
            .blocks()
            .filter(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(2)
            .collect();
        program.set_coalesce_table(table.clone());
        let mut sys = PlainBtb::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        // First touch of the table line: slow path.
        sys.software_prefetch(
            &PrefetchOp::BrCoalesce {
                base_index: 0,
                bitmask: 0b1,
            },
            0,
            &mut ctx,
        );
        // Second touch (same line, entries are 12 B apart): fast path.
        sys.software_prefetch(
            &PrefetchOp::BrCoalesce {
                base_index: 1,
                bitmask: 0b1,
            },
            0,
            &mut ctx,
        );
        let pc0 = program.branch_pc(table[0]);
        let pc1 = program.branch_pc(table[1]);
        let slow_ready = config.prefetch_exec_latency + config.coalesce_table_miss_latency;
        let fast_ready = config.prefetch_exec_latency + 1;
        ctx.cycle = fast_ready;
        assert!(sys.lookup(pc1, &mut ctx).is_hit(), "fast entry ready");
        assert!(
            !sys.lookup(pc0, &mut ctx).is_hit(),
            "slow entry not ready before {slow_ready}"
        );
    }
}
