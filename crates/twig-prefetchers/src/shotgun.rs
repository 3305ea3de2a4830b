//! Shotgun (Kumar et al., ASPLOS 2018): a partitioned BTB with
//! unconditional-branch-driven spatial-footprint prefetching.
//!
//! Shotgun statically splits the BTB into a large U-BTB for unconditional
//! branches (whose entries carry the spatial I-cache footprint observed
//! around their target the last time they executed) and a small C-BTB for
//! conditional branches. On a U-BTB hit, the recorded footprint lines are
//! prefetched into the L1i, and the branches found in those lines are
//! *predecoded* into the C-BTB's prefetch buffer.
//!
//! The paper's §2.3 identifies two structural limitations this
//! implementation reproduces faithfully:
//!
//! 1. the fixed partition sizes fit some applications and waste storage on
//!    others (Fig. 11), and
//! 2. only conditional branches within [`SPATIAL_RANGE_LINES`] of the last
//!    unconditional target can be prefetched (Fig. 12).

use twig_sim::{
    Btb, BtbGeometry, BtbSystem, FrontendCtx, LookupOutcome, MutationKind, PrefetchBuffer,
    PrefetchBufferStats, SimConfig, Validator,
};
use twig_types::{Addr, BlockId, BranchKind, BranchRecord, CacheLineAddr};

/// Entries in the unconditional BTB (the paper evaluates 5120 ≈ 63.1 KB).
pub const UBTB_ENTRIES: usize = 5120;
/// U-BTB associativity (5 ways × 1024 sets).
pub const UBTB_WAYS: usize = 5;
/// Entries in the conditional BTB (1536 ≈ 12.2 KB).
pub const CBTB_ENTRIES: usize = 1536;
/// C-BTB associativity (6 ways × 256 sets).
pub const CBTB_WAYS: usize = 6;
/// Spatial range of the recorded footprint: up to 8 cache lines from the
/// unconditional branch target (§2.3).
pub const SPATIAL_RANGE_LINES: u64 = 8;

/// Footprint metadata attached to each U-BTB entry: one bit per line in
/// `[target_line, target_line + SPATIAL_RANGE_LINES)`.
type Footprint = u8;

/// The Shotgun BTB organization.
///
/// # Examples
///
/// ```
/// use twig_prefetchers::Shotgun;
/// use twig_sim::{BtbSystem, SimConfig};
///
/// let shotgun = Shotgun::new(&SimConfig::default());
/// assert_eq!(shotgun.name(), "shotgun");
/// ```
#[derive(Debug)]
pub struct Shotgun {
    ubtb: Btb,
    cbtb: Btb,
    /// Footprints, parallel-keyed by unconditional branch PC. Kept in a
    /// side table the same size as the U-BTB (a real implementation stores
    /// the bits in the entry).
    footprints: twig_types::FxHashMap<Addr, Footprint>,
    /// Prefetched conditional entries await their first use here.
    buffer: PrefetchBuffer,
    /// Footprint currently being recorded: the last executed unconditional
    /// branch and its target line.
    recording: Option<(Addr, CacheLineAddr)>,
    accumulated: Footprint,
}

impl Shotgun {
    /// Builds Shotgun with the paper's partition sizes; the prefetch-buffer
    /// size follows the simulator configuration (Fig. 25 sweeps it).
    pub fn new(config: &SimConfig) -> Self {
        Shotgun {
            ubtb: Btb::named(BtbGeometry::new(UBTB_ENTRIES, UBTB_WAYS), "ubtb"),
            cbtb: Btb::named(BtbGeometry::new(CBTB_ENTRIES, CBTB_WAYS), "cbtb"),
            footprints: twig_types::FxHashMap::default(),
            buffer: PrefetchBuffer::new(config.prefetch_buffer_entries),
            recording: None,
            accumulated: 0,
        }
    }

    /// Occupancies `(u_btb, c_btb)`, for partition-utilization analyses.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.ubtb.occupancy(), self.cbtb.occupancy())
    }

    /// Finishes the footprint being recorded and stores it on the previous
    /// unconditional branch's entry.
    fn commit_recording(&mut self) {
        if let Some((pc, _)) = self.recording.take() {
            let fp = self.accumulated;
            if fp != 0 {
                self.footprints.insert(pc, fp);
                // Bound the side table at the U-BTB's reach.
                if self.footprints.len() > UBTB_ENTRIES * 4 {
                    self.footprints.clear();
                }
            }
        }
        self.accumulated = 0;
    }

    /// Replays a stored footprint: prefetches the lines and predecodes their
    /// conditional branches into the prefetch buffer.
    fn replay(&mut self, target: Addr, footprint: Footprint, ctx: &mut FrontendCtx<'_>) {
        let base = target.line();
        for bit in 0..SPATIAL_RANGE_LINES {
            if footprint & (1 << bit) == 0 {
                continue;
            }
            let line = CacheLineAddr::from_line_number(base.line_number() + bit);
            let fill = ctx.mem.prefetch(line, ctx.cycle);
            // Predecode: conditional branches in the fetched line become
            // C-BTB prefetch-buffer entries, usable once the line arrives.
            for (block, kind, target_addr) in ctx.program.branches_in_line(line) {
                if kind != BranchKind::Conditional {
                    continue;
                }
                let Some(target_addr) = target_addr else { continue };
                let pc = ctx.program.branch_pc(block);
                self.buffer.insert(pc, target_addr, kind, fill.ready_at);
            }
        }
    }
}

impl BtbSystem for Shotgun {
    fn name(&self) -> &str {
        "shotgun"
    }

    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome {
        // Conditional path: C-BTB, then the prefetch buffer.
        if let Some(entry) = self.cbtb.lookup(pc) {
            return LookupOutcome::Hit {
                target: entry.target,
                kind: entry.kind,
            };
        }
        if let Some(buffered) = self.buffer.take(pc, ctx.cycle) {
            self.cbtb.insert(pc, buffered.target, buffered.kind);
            return LookupOutcome::CoveredMiss {
                target: buffered.target,
                kind: buffered.kind,
            };
        }
        // Unconditional path: U-BTB hit triggers footprint replay.
        if let Some(entry) = self.ubtb.lookup(pc) {
            if let Some(fp) = self.footprints.get(&pc).copied() {
                self.replay(entry.target, fp, ctx);
            }
            return LookupOutcome::Hit {
                target: entry.target,
                kind: entry.kind,
            };
        }
        LookupOutcome::Miss
    }

    fn resolve_taken(&mut self, rec: &BranchRecord, _block: BlockId, _ctx: &mut FrontendCtx<'_>) {
        let Some(target) = rec.outcome.target() else {
            return;
        };
        if rec.kind == BranchKind::Conditional {
            self.cbtb.insert(rec.pc, target, rec.kind);
        } else {
            if let Some(evicted) = self.ubtb.insert(rec.pc, target, rec.kind) {
                self.footprints.remove(&evicted);
            }
            // A new unconditional branch: the previous footprint recording
            // window closes and a new one opens at this branch's target.
            self.commit_recording();
            self.recording = Some((rec.pc, target.line()));
        }
    }

    fn lines_accessed(
        &mut self,
        first_line: CacheLineAddr,
        last_line: CacheLineAddr,
        _ctx: &mut FrontendCtx<'_>,
    ) {
        let Some((_, base)) = self.recording else {
            return;
        };
        for line in first_line.line_number()..=last_line.line_number() {
            let delta = line.wrapping_sub(base.line_number());
            if delta < SPATIAL_RANGE_LINES {
                self.accumulated |= 1 << delta;
            }
        }
    }

    fn prefetch_stats(&self) -> PrefetchBufferStats {
        self.buffer.stats()
    }

    fn enable_differential(&mut self) {
        self.ubtb.enable_shadow();
        self.cbtb.enable_shadow();
    }

    fn validators(&self) -> Vec<&dyn Validator> {
        vec![&self.ubtb, &self.cbtb, &self.buffer]
    }

    fn inject_corruption(&mut self, kind: MutationKind) -> bool {
        match kind {
            MutationKind::BtbOccupancy => {
                self.ubtb.corrupt_occupancy();
                true
            }
            MutationKind::RasDepth => false,
        }
    }

    fn register_metrics(&self, registry: &mut twig_sim::MetricsRegistry) {
        registry.set_by_name("system.shotgun.ubtb_occupancy", self.ubtb.occupancy() as u64);
        registry.set_by_name("system.shotgun.cbtb_occupancy", self.cbtb.occupancy() as u64);
        registry.set_by_name("system.shotgun.footprints", self.footprints.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::MemoryHierarchy;
    use twig_workload::{ProgramGenerator, Program, Terminator, WorkloadSpec};

    fn setup() -> (Program, SimConfig, MemoryHierarchy) {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default();
        let mem = MemoryHierarchy::new(&config);
        (program, config, mem)
    }

    /// Finds a direct call whose target function contains a conditional
    /// branch within the spatial range.
    fn call_with_nearby_conditional(program: &Program) -> Option<(BlockId, BlockId)> {
        for (id, block) in program.blocks() {
            let Terminator::Call { callee, .. } = &block.term else {
                continue;
            };
            let entry = program.function(*callee).entry;
            let target_line = program.addr(entry).line();
            for bid in program.function(*callee).block_ids() {
                let b = program.block(bid);
                if b.branch_kind() == Some(BranchKind::Conditional)
                    && program.branch_pc(bid).line().line_number()
                        >= target_line.line_number()
                    && program.branch_pc(bid).line().line_number()
                        < target_line.line_number() + SPATIAL_RANGE_LINES
                {
                    return Some((id, bid));
                }
            }
        }
        None
    }

    #[test]
    fn partition_sizes_match_paper() {
        let (_, config, _) = setup();
        let s = Shotgun::new(&config);
        assert_eq!(s.ubtb.capacity(), 5120);
        assert_eq!(s.cbtb.capacity(), 1536);
    }

    #[test]
    fn conditionals_go_to_cbtb_unconditionals_to_ubtb() {
        let (program, config, mut mem) = setup();
        let mut s = Shotgun::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        let cond = program
            .blocks()
            .find(|(_, b)| b.branch_kind() == Some(BranchKind::Conditional))
            .unwrap()
            .0;
        let uncond = program
            .blocks()
            .find(|(_, b)| b.branch_kind() == Some(BranchKind::DirectJump))
            .unwrap()
            .0;
        let crec = program
            .resolve_branch(cond, true, direct_target(&program, cond))
            .unwrap();
        let urec = program
            .resolve_branch(uncond, true, direct_target(&program, uncond))
            .unwrap();
        s.resolve_taken(&crec, cond, &mut ctx);
        s.resolve_taken(&urec, uncond, &mut ctx);
        let (u, c) = s.occupancy();
        assert_eq!((u, c), (1, 1));
    }

    fn direct_target(program: &Program, block: BlockId) -> Option<BlockId> {
        match &program.block(block).term {
            Terminator::Conditional { taken, .. } => Some(*taken),
            Terminator::Jump { target } => Some(*target),
            Terminator::Call { callee, .. } => Some(program.function(*callee).entry),
            _ => None,
        }
    }

    #[test]
    fn footprint_replay_prefetches_conditionals() {
        let (program, config, mut mem) = setup();
        let Some((call_block, cond_block)) = call_with_nearby_conditional(&program) else {
            panic!("tiny program should contain a call with a nearby conditional");
        };
        let mut s = Shotgun::new(&config);
        let call_rec = program
            .resolve_branch(call_block, true, direct_target(&program, call_block))
            .unwrap();
        let cond_pc = program.branch_pc(cond_block);

        // First execution: install the U-BTB entry and record the footprint
        // (the callee's lines are accessed while the window is open).
        {
            let mut ctx = FrontendCtx {
                cycle: 0,
                program: &program,
                mem: &mut mem,
            };
            s.resolve_taken(&call_rec, call_block, &mut ctx);
            let target_line = call_rec.outcome.target().unwrap().line();
            s.lines_accessed(target_line, target_line.next(), &mut ctx);
            let cond_line = cond_pc.line();
            s.lines_accessed(cond_line, cond_line, &mut ctx);
            // A later unconditional branch closes the recording window.
            let next_uncond = BranchRecord {
                pc: Addr::new(0x9999_0000),
                kind: BranchKind::DirectJump,
                outcome: twig_types::BranchOutcome::Taken(Addr::new(0x9999_1000)),
                fallthrough: Addr::new(0x9999_0005),
            };
            s.resolve_taken(&next_uncond, BlockId::new(0), &mut ctx);
        }

        // Second execution: the U-BTB hit replays the footprint and the
        // conditional is covered.
        {
            let mut ctx = FrontendCtx {
                cycle: 10_000,
                program: &program,
                mem: &mut mem,
            };
            let outcome = s.lookup(call_rec.pc, &mut ctx);
            assert!(matches!(outcome, LookupOutcome::Hit { .. }));
            assert!(s.buffer.contains(cond_pc), "conditional not predecoded");
            // Once the line arrives the entry covers a C-BTB miss.
            ctx.cycle = 20_000;
            assert!(matches!(
                s.lookup(cond_pc, &mut ctx),
                LookupOutcome::CoveredMiss { .. }
            ));
        }
    }

    #[test]
    fn out_of_range_conditionals_are_not_prefetched() {
        // A conditional branch more than 8 lines past the last unconditional
        // target is never recorded (Fig. 12's limitation).
        let (program, config, mut mem) = setup();
        let mut s = Shotgun::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        let jump = program
            .blocks()
            .find(|(_, b)| b.branch_kind() == Some(BranchKind::DirectJump))
            .unwrap()
            .0;
        let rec = program
            .resolve_branch(jump, true, direct_target(&program, jump))
            .unwrap();
        s.resolve_taken(&rec, jump, &mut ctx);
        let base = rec.outcome.target().unwrap().line();
        let far = CacheLineAddr::from_line_number(base.line_number() + SPATIAL_RANGE_LINES + 2);
        s.lines_accessed(far, far, &mut ctx);
        assert_eq!(s.accumulated, 0, "out-of-range line must not be recorded");
    }

    #[test]
    fn eviction_drops_footprint() {
        let (program, config, mut mem) = setup();
        let mut s = Shotgun::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        // Force U-BTB set conflicts: 5 ways per set, insert 6 aliasing PCs.
        let sets = UBTB_ENTRIES / UBTB_WAYS;
        for i in 0..=UBTB_WAYS as u64 {
            let pc = Addr::new(0x1_0000 + i * (sets as u64) * 2 * 64);
            let rec = BranchRecord {
                pc,
                kind: BranchKind::DirectJump,
                outcome: twig_types::BranchOutcome::Taken(Addr::new(0x7000_0000)),
                fallthrough: pc + 5,
            };
            s.resolve_taken(&rec, BlockId::new(0), &mut ctx);
            let tl = Addr::new(0x7000_0000).line();
            s.lines_accessed(tl, tl, &mut ctx);
        }
        // The first PC was evicted; its footprint must be gone.
        let first = Addr::new(0x1_0000);
        assert!(s.ubtb.probe(first).is_none());
        assert!(!s.footprints.contains_key(&first));
    }
}
