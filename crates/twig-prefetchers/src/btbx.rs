//! A BTB-X-style compressed BTB (Asheim, Grot & Kumar, CAL 2021).
//!
//! The paper's related-work section (§5) argues that Twig is independent of
//! the underlying BTB organization and "should be just as effective" with
//! compressed designs like BTB-X. This module makes that claim testable:
//! a storage-budgeted BTB whose partitions store *delta-encoded* targets of
//! different widths — short-offset branches (the overwhelming majority,
//! Fig. 15) go to narrow partitions, so the same silicon budget holds
//! roughly twice the entries — combined with the standard
//! [`SoftwarePrefetcher`] so Twig's instructions work unchanged.

use twig_sim::{
    Btb, BtbGeometry, BtbSystem, FrontendCtx, LookupOutcome, MutationKind, PrefetchBufferStats,
    SimConfig, SoftwarePrefetcher, Validator,
};
use twig_types::{Addr, BlockId, BranchRecord, PrefetchOp};

/// One partition: entries whose branch-to-target delta fits `offset_bits`.
#[derive(Debug)]
struct Partition {
    btb: Btb,
    offset_bits: u32,
}

/// Per-entry overhead bits besides the target offset (tag + kind + LRU).
const ENTRY_OVERHEAD_BITS: u64 = 20;

/// The partition plan: `(offset_bits, share of the bit budget)`.
/// Narrow partitions get most of the budget because most deltas are short.
const PARTITION_PLAN: [(u32, f64); 5] = [
    (6, 0.10),
    (12, 0.35),
    (18, 0.25),
    (25, 0.15),
    (46, 0.15),
];

/// A compressed, partitioned BTB under the same storage budget as the
/// baseline, with Twig software-prefetch support.
///
/// # Examples
///
/// ```
/// use twig_prefetchers::CompressedBtb;
/// use twig_sim::{BtbSystem, SimConfig};
///
/// let btbx = CompressedBtb::new(&SimConfig::default());
/// assert!(btbx.total_entries() > 8192, "compression buys extra entries");
/// assert_eq!(btbx.name(), "btb-x");
/// ```
#[derive(Debug)]
pub struct CompressedBtb {
    partitions: Vec<Partition>,
    software: SoftwarePrefetcher,
}

impl CompressedBtb {
    /// Builds the compressed BTB with the same bit budget as the baseline
    /// BTB in `config` (entries × (overhead + 46-bit target)).
    pub fn new(config: &SimConfig) -> Self {
        let budget_bits = config.btb.entries as u64 * (ENTRY_OVERHEAD_BITS + 46);
        let ways = config.btb.ways.max(2);
        let partitions = PARTITION_PLAN
            .iter()
            .map(|&(offset_bits, share)| {
                let bits_per_entry = ENTRY_OVERHEAD_BITS + u64::from(offset_bits);
                let entries = (budget_bits as f64 * share / bits_per_entry as f64) as usize;
                // Sets must be a power of two; absorb the remainder into
                // the way count so capacity tracks the bit budget closely.
                let sets = 1usize << (entries / ways).max(1).ilog2();
                let ways = (entries / sets).max(ways);
                Partition {
                    btb: Btb::new(BtbGeometry::new(sets * ways, ways)),
                    offset_bits,
                }
            })
            .collect();
        CompressedBtb {
            partitions,
            software: SoftwarePrefetcher::new(config),
        }
    }

    /// Total entries across partitions (exceeds the uncompressed design's
    /// count under the same budget).
    pub fn total_entries(&self) -> usize {
        self.partitions.iter().map(|p| p.btb.capacity()).sum()
    }

    /// The partition index an entry with this branch→target delta uses.
    fn partition_for(&self, pc: Addr, target: Addr) -> usize {
        let bits = pc.offset_bits_to(target);
        self.partitions
            .iter()
            .position(|p| p.offset_bits >= bits)
            .unwrap_or(self.partitions.len() - 1)
    }

    fn insert(&mut self, pc: Addr, target: Addr, kind: twig_types::BranchKind) {
        let idx = self.partition_for(pc, target);
        self.partitions[idx].btb.insert(pc, target, kind);
        // An entry lives in exactly one partition: shoot down stale copies
        // (the target delta class can change under re-layout/JIT).
        for (i, p) in self.partitions.iter_mut().enumerate() {
            if i != idx {
                p.btb.invalidate(pc);
            }
        }
    }
}

impl BtbSystem for CompressedBtb {
    fn name(&self) -> &str {
        "btb-x"
    }

    fn lookup(&mut self, pc: Addr, ctx: &mut FrontendCtx<'_>) -> LookupOutcome {
        for p in &mut self.partitions {
            if let Some(entry) = p.btb.lookup(pc) {
                return LookupOutcome::Hit {
                    target: entry.target,
                    kind: entry.kind,
                };
            }
        }
        if let Some(buffered) = self.software.take(pc, ctx.cycle) {
            self.insert(pc, buffered.target, buffered.kind);
            return LookupOutcome::CoveredMiss {
                target: buffered.target,
                kind: buffered.kind,
            };
        }
        LookupOutcome::Miss
    }

    fn resolve_taken(&mut self, rec: &BranchRecord, _block: BlockId, _ctx: &mut FrontendCtx<'_>) {
        if let Some(target) = rec.outcome.target() {
            self.insert(rec.pc, target, rec.kind);
        }
    }

    fn software_prefetch(&mut self, op: &PrefetchOp, decoded_at: u64, ctx: &mut FrontendCtx<'_>) {
        self.software.execute(op, decoded_at, ctx.program);
    }

    fn prefetch_stats(&self) -> PrefetchBufferStats {
        self.software.stats()
    }

    fn enable_differential(&mut self) {
        for p in &mut self.partitions {
            p.btb.enable_shadow();
        }
    }

    fn validators(&self) -> Vec<&dyn Validator> {
        let mut v: Vec<&dyn Validator> =
            self.partitions.iter().map(|p| &p.btb as &dyn Validator).collect();
        v.push(self.software.buffer());
        v
    }

    fn inject_corruption(&mut self, kind: MutationKind) -> bool {
        match kind {
            MutationKind::BtbOccupancy => {
                self.partitions[0].btb.corrupt_occupancy();
                true
            }
            MutationKind::RasDepth => false,
        }
    }

    fn register_metrics(&self, registry: &mut twig_sim::MetricsRegistry) {
        registry.set_by_name("system.btb-x.total_entries", self.total_entries() as u64);
        registry.set_by_name(
            "system.btb-x.occupancy",
            self.partitions.iter().map(|p| p.btb.occupancy()).sum::<usize>() as u64,
        );
        registry.set_by_name("system.btb-x.partitions", self.partitions.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_sim::MemoryHierarchy;
    use twig_types::{BranchKind, BranchOutcome};
    use twig_workload::{ProgramGenerator, WorkloadSpec};

    fn rec(pc: u64, target: u64) -> BranchRecord {
        BranchRecord {
            pc: Addr::new(pc),
            kind: BranchKind::DirectJump,
            outcome: BranchOutcome::Taken(Addr::new(target)),
            fallthrough: Addr::new(pc + 5),
        }
    }

    fn ctx_parts() -> (twig_workload::Program, SimConfig, MemoryHierarchy) {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default();
        let mem = MemoryHierarchy::new(&config);
        (program, config, mem)
    }

    #[test]
    fn compression_buys_capacity() {
        let config = SimConfig::default();
        let btbx = CompressedBtb::new(&config);
        assert!(
            btbx.total_entries() as f64 > config.btb.entries as f64 * 1.4,
            "expected >1.4x entries, got {} vs {}",
            btbx.total_entries(),
            config.btb.entries
        );
    }

    #[test]
    fn short_and_long_deltas_route_to_different_partitions() {
        let config = SimConfig::default();
        let btbx = CompressedBtb::new(&config);
        let near = btbx.partition_for(Addr::new(0x1000), Addr::new(0x1040));
        let far = btbx.partition_for(Addr::new(0x1000), Addr::new(0x7f00_0000_0000));
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    fn insert_then_hit_regardless_of_delta() {
        let (program, config, mut mem) = ctx_parts();
        let mut btbx = CompressedBtb::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        for (pc, target) in [(0x40_1000u64, 0x40_1040u64), (0x40_2000, 0x7f00_0000_0000)] {
            let r = rec(pc, target);
            assert_eq!(btbx.lookup(r.pc, &mut ctx), LookupOutcome::Miss);
            btbx.resolve_taken(&r, BlockId::new(0), &mut ctx);
            match btbx.lookup(r.pc, &mut ctx) {
                LookupOutcome::Hit { target: t, .. } => assert_eq!(t, Addr::new(target)),
                other => panic!("expected hit, got {other:?}"),
            }
        }
    }

    #[test]
    fn retarget_moves_entry_between_partitions() {
        let (program, config, mut mem) = ctx_parts();
        let mut btbx = CompressedBtb::new(&config);
        let mut ctx = FrontendCtx {
            cycle: 0,
            program: &program,
            mem: &mut mem,
        };
        let pc = 0x40_1000u64;
        btbx.resolve_taken(&rec(pc, pc + 0x20), BlockId::new(0), &mut ctx);
        btbx.resolve_taken(&rec(pc, 0x7f00_0000_0000), BlockId::new(0), &mut ctx);
        // Exactly one resident copy, with the fresh target.
        let copies = btbx
            .partitions
            .iter()
            .filter(|p| p.btb.probe(Addr::new(pc)).is_some())
            .count();
        assert_eq!(copies, 1);
        match btbx.lookup(Addr::new(pc), &mut ctx) {
            LookupOutcome::Hit { target, .. } => {
                assert_eq!(target, Addr::new(0x7f00_0000_0000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn software_prefetch_covers_misses_like_plain_btb() {
        let (program, config, mut mem) = ctx_parts();
        let mut btbx = CompressedBtb::new(&config);
        let branch = program
            .blocks()
            .find(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .unwrap();
        let pc = program.branch_pc(branch);
        let mut ctx = FrontendCtx {
            cycle: 100,
            program: &program,
            mem: &mut mem,
        };
        btbx.software_prefetch(
            &PrefetchOp::BrPrefetch {
                branch_block: branch,
            },
            50,
            &mut ctx,
        );
        assert!(matches!(
            btbx.lookup(pc, &mut ctx),
            LookupOutcome::CoveredMiss { .. }
        ));
        assert_eq!(btbx.prefetch_stats().used, 1);
    }
}
