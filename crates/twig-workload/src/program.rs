//! The synthetic program model: functions, basic blocks, terminators.
//!
//! A [`Program`] is the stand-in for the multi-megabyte x86 binaries the
//! paper profiles. It is a complete control-flow graph with a concrete
//! binary layout (every block has an address and a byte size), so that the
//! frontend simulator can model I-cache lines, BTB indices, and signed
//! address offsets exactly as it would for a real binary.

use std::sync::Arc;

use twig_serde::{Deserialize, Serialize};
use twig_types::{Addr, BlockId, BranchKind, BranchOutcome, BranchRecord, FuncId, PrefetchOp};

/// How a basic block transfers control when it finishes executing.
///
/// Block references are stable [`BlockId`]s; the concrete branch-instruction
/// addresses are a function of the current [layout](crate::layout).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Terminator {
    /// No control transfer: execution continues at `next` (which the layout
    /// guarantees to be the physically following block).
    FallThrough {
        /// The successor block.
        next: BlockId,
    },
    /// Conditional direct branch (`jcc`).
    Conditional {
        /// Target if taken.
        taken: BlockId,
        /// Successor if not taken (physically next block).
        not_taken: BlockId,
        /// Base probability of the branch being taken; the workload input
        /// configuration may skew this per input.
        taken_prob: f32,
    },
    /// Unconditional direct jump (`jmp rel`).
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Direct call; control returns to `return_to` when the callee returns.
    Call {
        /// Called function.
        callee: FuncId,
        /// Block executed after the callee returns (physically next block).
        return_to: BlockId,
    },
    /// Indirect jump with a weighted set of observed targets.
    IndirectJump {
        /// `(target, weight)` pairs; weights need not be normalized.
        targets: Vec<(BlockId, f32)>,
    },
    /// Indirect call with a weighted set of observed callees.
    IndirectCall {
        /// `(callee, weight)` pairs; weights need not be normalized.
        callees: Vec<(FuncId, f32)>,
        /// Block executed after the callee returns (physically next block).
        return_to: BlockId,
    },
    /// Function return.
    Return,
}

impl Terminator {
    /// The branch kind of this terminator, or `None` for a fall-through.
    pub fn branch_kind(&self) -> Option<BranchKind> {
        match self {
            Terminator::FallThrough { .. } => None,
            Terminator::Conditional { .. } => Some(BranchKind::Conditional),
            Terminator::Jump { .. } => Some(BranchKind::DirectJump),
            Terminator::Call { .. } => Some(BranchKind::DirectCall),
            Terminator::IndirectJump { .. } => Some(BranchKind::IndirectJump),
            Terminator::IndirectCall { .. } => Some(BranchKind::IndirectCall),
            Terminator::Return => Some(BranchKind::Return),
        }
    }

    /// The statically known taken-target block for direct branches.
    ///
    /// `None` for fall-throughs, indirect branches, and returns.
    pub fn direct_target(&self) -> Option<BlockId> {
        match self {
            Terminator::Conditional { taken, .. } => Some(*taken),
            Terminator::Jump { target } => Some(*target),
            _ => None,
        }
    }
}

/// One basic block of the synthetic program: its place in the CFG and the
/// byte sizes of its original instructions.
///
/// Blocks are immutable once generated and shared by every binary of the
/// program; where a block sits and which prefetch ops it carries belong to
/// a binary's layout (see [`Program::addr`] and [`Program::prefetch_ops`]).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Owning function.
    pub func: FuncId,
    /// Number of *original* program instructions, including the terminator
    /// branch (if any) but excluding injected prefetch operations.
    pub num_instrs: u32,
    /// Byte size of the original instructions (terminator included).
    pub body_bytes: u32,
    /// Byte size of the terminator branch instruction (0 for fall-through).
    pub term_bytes: u32,
    /// Control transfer at the end of the block.
    pub term: Terminator,
}

impl BasicBlock {
    /// Branch kind of the terminator, if it is a branch.
    #[inline]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        self.term.branch_kind()
    }
}

/// One function: a contiguous, dense range of block ids.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Function {
    /// This function's id.
    pub id: FuncId,
    /// Entry block (always the first block of the range).
    pub entry: BlockId,
    /// First block id of the function (inclusive).
    pub first_block: u32,
    /// One past the last block id of the function.
    pub last_block: u32,
}

impl Function {
    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.last_block - self.first_block
    }

    /// Iterator over the function's block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (self.first_block..self.last_block).map(BlockId::new)
    }
}

/// The immutable control-flow graph, shared through an `Arc` by the
/// pristine binary and every binary rewritten from it.
#[derive(PartialEq, Debug, Serialize, Deserialize)]
struct Cfg {
    functions: Vec<Function>,
    blocks: Vec<BasicBlock>,
    entry_function: FuncId,
    /// Original instructions over all blocks.
    instructions: u64,
    /// Original bytes over all blocks.
    body_bytes: u64,
    /// Static branch sites per [`BranchKind`] index.
    branches_by_kind: [u64; 6],
}

/// A complete synthetic program: a shared CFG plus this binary's layout.
///
/// The CFG (functions and [`BasicBlock`]s) is immutable and shared, so
/// cloning a program copies only its layout: one address and one byte size
/// per block, the injected prefetch ops, and the coalesce table.
///
/// # Examples
///
/// Programs are normally produced by the [generator](crate::generator) from a
/// [`WorkloadSpec`](crate::WorkloadSpec):
///
/// ```
/// use twig_workload::{ProgramGenerator, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// assert!(program.num_blocks() > 0);
/// let entry = program.function(program.entry_function());
/// assert_eq!(entry.entry.index() as u32, entry.first_block);
/// assert!(program.clone().shares_cfg_with(&program));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Program {
    cfg: Arc<Cfg>,
    /// First-byte address of each block in this layout.
    addrs: Vec<Addr>,
    /// Byte size of each block in this layout, injected ops included.
    sizes: Vec<u32>,
    /// Blocks carrying injected ops, in id order.
    op_sites: Vec<BlockId>,
    /// `ops[op_start[k]..op_start[k + 1]]` are the ops of `op_sites[k]`
    /// (one more entry than `op_sites` once any op is installed).
    op_start: Vec<u32>,
    /// Software BTB prefetch operations injected by the Twig rewriter,
    /// grouped by site. A site's ops execute at the *start* of the block
    /// (placed before the original instructions so they retire before the
    /// block's own branch, maximizing timeliness).
    ops: Vec<PrefetchOp>,
    /// Encoded bytes of `ops`.
    op_bytes: u64,
    /// Sorted key-value table for `brcoalesce` (block ids whose terminator
    /// branches are prefetchable via the table). Laid out in the text
    /// segment after the last function.
    coalesce_table: Vec<BlockId>,
    /// Address of the first coalesce-table entry in the current layout.
    coalesce_table_addr: Addr,
}

impl Program {
    /// Assembles an op-free program from parts with every block at address
    /// zero; the generator and the builder then assign a layout.
    /// Invariants (dense function ranges, valid ids) are checked in debug
    /// builds.
    pub fn from_parts(functions: Vec<Function>, blocks: Vec<BasicBlock>, entry: FuncId) -> Self {
        debug_assert!(entry.index() < functions.len());
        debug_assert!(functions
            .iter()
            .enumerate()
            .all(|(i, f)| f.id.index() == i && f.first_block <= f.last_block));
        let mut cfg = Cfg {
            functions,
            blocks,
            entry_function: entry,
            instructions: 0,
            body_bytes: 0,
            branches_by_kind: [0; 6],
        };
        for block in &cfg.blocks {
            cfg.instructions += u64::from(block.num_instrs);
            cfg.body_bytes += u64::from(block.body_bytes);
            if let Some(kind) = block.branch_kind() {
                cfg.branches_by_kind[kind.index()] += 1;
            }
        }
        Program {
            addrs: vec![Addr::ZERO; cfg.blocks.len()],
            sizes: cfg.blocks.iter().map(|b| b.body_bytes).collect(),
            cfg: Arc::new(cfg),
            op_sites: Vec::new(),
            op_start: Vec::new(),
            ops: Vec::new(),
            op_bytes: 0,
            coalesce_table: Vec::new(),
            coalesce_table_addr: Addr::ZERO,
        }
    }

    /// Whether `self` and `other` are layouts of one shared CFG (as a
    /// rewritten binary and the pristine program it was rewritten from).
    pub fn shares_cfg_with(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.cfg, &other.cfg)
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.cfg.blocks.len()
    }

    /// Number of functions.
    #[inline]
    pub fn num_functions(&self) -> usize {
        self.cfg.functions.len()
    }

    /// The program entry function (the event-loop dispatcher).
    #[inline]
    pub fn entry_function(&self) -> FuncId {
        self.cfg.entry_function
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.cfg.blocks[id.index()]
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.cfg.functions[id.index()]
    }

    /// Iterator over all blocks with their ids.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.cfg
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i as u32), b))
    }

    /// Iterator over all functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.cfg.functions.iter()
    }

    /// First-byte address of a block in the current layout.
    #[inline]
    pub fn addr(&self, id: BlockId) -> Addr {
        self.addrs[id.index()]
    }

    /// Total byte size of a block in the current layout, including
    /// injected ops.
    #[inline]
    pub fn size_bytes(&self, id: BlockId) -> u32 {
        self.sizes[id.index()]
    }

    /// Bytes of a block's injected prefetch operations.
    #[inline]
    pub fn prefetch_bytes(&self, id: BlockId) -> u32 {
        self.size_bytes(id) - self.block(id).body_bytes
    }

    /// Address of the first byte after a block (fall-through address).
    #[inline]
    pub fn end_addr(&self, id: BlockId) -> Addr {
        self.addr(id) + u64::from(self.size_bytes(id))
    }

    /// Address of a block's terminator branch instruction.
    ///
    /// For fall-through blocks this is the address of the last instruction
    /// (which is not a branch); callers should check
    /// [`BasicBlock::branch_kind`].
    #[inline]
    pub fn branch_pc(&self, id: BlockId) -> Addr {
        let term_bytes = self.block(id).term_bytes.max(1);
        self.addr(id) + u64::from(self.size_bytes(id) - term_bytes)
    }

    /// The software prefetch ops injected at the start of a block.
    #[inline]
    pub fn prefetch_ops(&self, id: BlockId) -> &[PrefetchOp] {
        // Every op has a nonzero encoding, so a block without extra bytes
        // carries none and the site table need not be searched.
        if self.prefetch_bytes(id) == 0 {
            return &[];
        }
        match self.op_sites.binary_search(&id) {
            Ok(k) => &self.ops[self.op_start[k] as usize..self.op_start[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Blocks carrying injected ops, in id order.
    #[inline]
    pub fn op_sites(&self) -> &[BlockId] {
        &self.op_sites
    }

    /// Every injected op, grouped by site in id order.
    #[inline]
    pub fn all_prefetch_ops(&self) -> &[PrefetchOp] {
        &self.ops
    }

    /// Replaces every injected op (rewriter only; re-run the
    /// [layout](crate::layout) pass afterwards). Each block's ops keep the
    /// order in which they appear in `ops`.
    pub fn set_prefetch_ops(&mut self, mut ops: Vec<(BlockId, PrefetchOp)>) {
        for &site in &self.op_sites {
            self.sizes[site.index()] = self.cfg.blocks[site.index()].body_bytes;
        }
        self.op_sites.clear();
        self.op_start.clear();
        self.ops.clear();
        self.op_bytes = 0;
        // Stable: a block's ops keep their relative order.
        ops.sort_by_key(|&(site, _)| site);
        for (site, op) in ops {
            debug_assert!(op.encoded_bytes() > 0);
            if self.op_sites.last() != Some(&site) {
                self.op_sites.push(site);
                self.op_start.push(self.ops.len() as u32);
            }
            self.sizes[site.index()] += op.encoded_bytes();
            self.op_bytes += u64::from(op.encoded_bytes());
            self.ops.push(op);
        }
        if !self.ops.is_empty() {
            self.op_start.push(self.ops.len() as u32);
        }
    }

    /// The function table, the block sizes and the block addresses of
    /// this layout (layout pass only).
    pub(crate) fn layout_mut(&mut self) -> (&[Function], &[u32], &mut [Addr]) {
        (&self.cfg.functions, &self.sizes, &mut self.addrs)
    }

    /// Original instructions over all blocks.
    pub(crate) fn original_instructions(&self) -> u64 {
        self.cfg.instructions
    }

    /// Static branch sites per [`BranchKind`] index.
    pub(crate) fn branches_by_kind(&self) -> [u64; 6] {
        self.cfg.branches_by_kind
    }

    /// Encoded bytes of every injected op.
    pub(crate) fn op_bytes(&self) -> u64 {
        self.op_bytes
    }

    /// The sorted coalesce table (block ids ordered by branch address).
    #[inline]
    pub fn coalesce_table(&self) -> &[BlockId] {
        &self.coalesce_table
    }

    /// Installs the coalesce table (rewriter only). Entries must be sorted
    /// by terminator branch address in the final layout.
    pub fn set_coalesce_table(&mut self, table: Vec<BlockId>) {
        self.coalesce_table = table;
    }

    /// Address of coalesce-table entry `index` in the text segment.
    #[inline]
    pub fn coalesce_entry_addr(&self, index: u32) -> Addr {
        self.coalesce_table_addr
            + u64::from(index) * u64::from(twig_types::COALESCE_ENTRY_BYTES)
    }

    /// Sets the coalesce-table base address (layout pass only).
    pub(crate) fn set_coalesce_table_addr(&mut self, addr: Addr) {
        self.coalesce_table_addr = addr;
    }

    /// Resolves the dynamic [`BranchRecord`] for a block execution.
    ///
    /// `taken` is the resolved direction (always `true` for unconditional
    /// branches); `target_block` must be provided for taken branches and is
    /// validated against the CFG for direct branches in debug builds.
    ///
    /// Returns `None` for fall-through blocks (no branch executed).
    pub fn resolve_branch(
        &self,
        id: BlockId,
        taken: bool,
        target_block: Option<BlockId>,
    ) -> Option<BranchRecord> {
        let block = self.block(id);
        let kind = block.branch_kind()?;
        let outcome = if taken {
            let tb = target_block.expect("taken branch must carry a target block");
            let target_addr = match &block.term {
                // Calls and indirect calls land on the callee's entry block.
                Terminator::Call { callee, .. } => {
                    debug_assert_eq!(*callee, self.block(tb).func);
                    self.addr(self.function(*callee).entry)
                }
                _ => self.addr(tb),
            };
            BranchOutcome::Taken(target_addr)
        } else {
            debug_assert_eq!(kind, BranchKind::Conditional);
            BranchOutcome::NotTaken
        };
        Some(BranchRecord {
            pc: self.branch_pc(id),
            kind,
            outcome,
            fallthrough: self.end_addr(id),
        })
    }

    /// The statically known taken-target *address* of a direct branch
    /// terminator, if any. Used by BTB prefetching, which can only encode
    /// statically known targets.
    pub fn direct_branch_target_addr(&self, id: BlockId) -> Option<Addr> {
        match &self.block(id).term {
            Terminator::Conditional { taken, .. } => Some(self.addr(*taken)),
            Terminator::Jump { target } => Some(self.addr(*target)),
            Terminator::Call { callee, .. } => Some(self.addr(self.function(*callee).entry)),
            _ => None,
        }
    }

    /// Block ids whose bytes overlap the given cache line.
    ///
    /// Relies on the layout invariant that block addresses are globally
    /// non-decreasing in block-id order (functions are placed in id order
    /// and blocks are contiguous within functions).
    ///
    /// Used by predecode-style prefetchers (Confluence, Shotgun) that
    /// extract the branches of a fetched/prefetched I-cache line.
    pub fn blocks_overlapping_line(
        &self,
        line: twig_types::CacheLineAddr,
    ) -> impl Iterator<Item = BlockId> + '_ {
        let base = line.base();
        let end = line.next().base();
        // First block whose end extends past the line base (a partition
        // point over the dense layout arrays).
        let (mut lo, mut hi) = (0, self.num_blocks());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.addrs[mid] + u64::from(self.sizes[mid]) <= base {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.addrs[lo..]
            .iter()
            .take_while(move |&&a| a < end)
            .enumerate()
            .map(move |(i, _)| BlockId::new((lo + i) as u32))
    }

    /// Blocks whose *terminator branch instruction* lies in the given line,
    /// together with their statically known target (direct branches only).
    pub fn branches_in_line(
        &self,
        line: twig_types::CacheLineAddr,
    ) -> impl Iterator<Item = (BlockId, twig_types::BranchKind, Option<Addr>)> + '_ {
        self.blocks_overlapping_line(line).filter_map(move |id| {
            let kind = self.block(id).branch_kind()?;
            if self.branch_pc(id).line() != line {
                return None;
            }
            Some((id, kind, self.direct_branch_target_addr(id)))
        })
    }

    /// Total text-segment size in bytes (blocks plus coalesce table),
    /// assuming the current layout is packed.
    pub fn text_bytes(&self) -> u64 {
        self.cfg.body_bytes
            + self.op_bytes
            + self.coalesce_table.len() as u64 * u64::from(twig_types::COALESCE_ENTRY_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_program() -> Program {
        let blocks = vec![
            BasicBlock {
                func: FuncId::new(0),
                num_instrs: 4,
                body_bytes: 16,
                term_bytes: 4,
                term: Terminator::Conditional {
                    taken: BlockId::new(0),
                    not_taken: BlockId::new(1),
                    taken_prob: 0.5,
                },
            },
            BasicBlock {
                func: FuncId::new(0),
                num_instrs: 2,
                body_bytes: 8,
                term_bytes: 2,
                term: Terminator::Return,
            },
        ];
        let functions = vec![Function {
            id: FuncId::new(0),
            entry: BlockId::new(0),
            first_block: 0,
            last_block: 2,
        }];
        let mut p = Program::from_parts(functions, blocks, FuncId::new(0));
        crate::layout::assign_layout(
            &mut p,
            &crate::LayoutOptions {
                text_base: 0x1000,
                ..crate::LayoutOptions::default()
            },
        );
        p
    }

    #[test]
    fn branch_pc_is_last_instruction() {
        let p = two_block_program();
        let b = BlockId::new(0);
        assert_eq!(p.branch_pc(b), Addr::new(0x100c));
        assert_eq!(p.end_addr(b), Addr::new(0x1010));
    }

    #[test]
    fn resolve_taken_conditional() {
        let p = two_block_program();
        let rec = p
            .resolve_branch(BlockId::new(0), true, Some(BlockId::new(0)))
            .unwrap();
        assert_eq!(rec.kind, BranchKind::Conditional);
        assert_eq!(rec.outcome, BranchOutcome::Taken(Addr::new(0x1000)));
        assert_eq!(rec.fallthrough, Addr::new(0x1010));
    }

    #[test]
    fn resolve_not_taken_conditional() {
        let p = two_block_program();
        let rec = p.resolve_branch(BlockId::new(0), false, None).unwrap();
        assert_eq!(rec.outcome, BranchOutcome::NotTaken);
        assert_eq!(rec.next_fetch(), Addr::new(0x1010));
    }

    #[test]
    fn prefetch_ops_grow_block() {
        let mut p = two_block_program();
        let b = BlockId::new(0);
        let before = p.size_bytes(b);
        let op = PrefetchOp::BrPrefetch {
            branch_block: BlockId::new(1),
        };
        p.set_prefetch_ops(vec![(b, op)]);
        assert_eq!(p.size_bytes(b), before + twig_types::BRPREFETCH_BYTES);
        assert_eq!(p.prefetch_ops(b), &[op]);
        assert!(p.prefetch_ops(BlockId::new(1)).is_empty());
        assert_eq!(p.text_bytes(), 24 + u64::from(twig_types::BRPREFETCH_BYTES));
        // Replacing the ops restores the old sizes.
        p.set_prefetch_ops(Vec::new());
        assert_eq!(p.size_bytes(b), before);
        assert!(p.op_sites().is_empty());
    }

    #[test]
    fn ops_keep_their_order_within_a_block() {
        let mut p = two_block_program();
        let (a, b) = (BlockId::new(0), BlockId::new(1));
        let op = |n: u32| PrefetchOp::BrCoalesce {
            base_index: n,
            bitmask: 1,
        };
        p.set_prefetch_ops(vec![(b, op(0)), (a, op(1)), (b, op(2)), (a, op(3))]);
        assert_eq!(p.op_sites(), &[a, b]);
        assert_eq!(p.prefetch_ops(a), &[op(1), op(3)]);
        assert_eq!(p.prefetch_ops(b), &[op(0), op(2)]);
        assert_eq!(p.all_prefetch_ops().len(), 4);
    }

    #[test]
    fn clones_share_the_cfg_and_own_their_layout() {
        let p = two_block_program();
        let mut q = p.clone();
        assert!(q.shares_cfg_with(&p));
        q.set_prefetch_ops(vec![(
            BlockId::new(0),
            PrefetchOp::BrPrefetch {
                branch_block: BlockId::new(1),
            },
        )]);
        assert!(p.prefetch_ops(BlockId::new(0)).is_empty());
        assert_eq!(p.size_bytes(BlockId::new(0)), 16);
        assert!(!two_block_program().shares_cfg_with(&p));
    }

    #[test]
    fn text_bytes_counts_table() {
        let mut p = two_block_program();
        assert_eq!(p.text_bytes(), 24);
        p.set_coalesce_table(vec![BlockId::new(0)]);
        assert_eq!(
            p.text_bytes(),
            24 + u64::from(twig_types::COALESCE_ENTRY_BYTES)
        );
    }

    #[test]
    fn direct_target_addrs() {
        let p = two_block_program();
        assert_eq!(
            p.direct_branch_target_addr(BlockId::new(0)),
            Some(Addr::new(0x1000))
        );
        assert_eq!(p.direct_branch_target_addr(BlockId::new(1)), None);
    }
}
