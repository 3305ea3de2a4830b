//! Seeded random construction of synthetic programs from a [`WorkloadSpec`].
//!
//! The generated program has the shape of a data-center service:
//!
//! - function 0 is the *dispatcher* (event loop) that indirect-calls one of
//!   `handlers` request-handler functions per iteration, with Zipf-skewed
//!   popularity;
//! - handlers call into a DAG of helper functions organized in
//!   `call_levels` levels (calls only go to strictly deeper levels, so the
//!   call graph is recursion-free and the call depth is bounded);
//! - the last `lib_funcs` functions are shared-library leaves placed in a
//!   distant text region by the layout pass.
//!
//! Everything is deterministic in `spec.seed`.

use twig_rand::rngs::StdRng;
use twig_rand::{RngExt, SeedableRng};
use twig_types::{BlockId, FuncId};

use crate::layout::{assign_layout, LayoutOptions, LibrarySplit};
use crate::program::{BasicBlock, Function, Program, Terminator};
use crate::spec::{Span, Span1, WorkloadSpec};

/// Deterministic program builder. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use twig_workload::{ProgramGenerator, WorkloadSpec};
///
/// let spec = WorkloadSpec::tiny_test();
/// let a = ProgramGenerator::new(spec.clone()).generate();
/// let b = ProgramGenerator::new(spec).generate();
/// assert_eq!(a.num_blocks(), b.num_blocks()); // fully deterministic
/// ```
#[derive(Debug)]
pub struct ProgramGenerator {
    spec: WorkloadSpec,
}

/// Terminator byte sizes, modelling typical x86-64 encodings.
const COND_BYTES: u32 = 4;
const JUMP_BYTES: u32 = 5;
const CALL_BYTES: u32 = 5;
const ICALL_BYTES: u32 = 3;
const IJUMP_BYTES: u32 = 3;
const RET_BYTES: u32 = 1;

impl ProgramGenerator {
    /// Creates a generator for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`]; use
    /// [`Self::try_new`] to handle invalid specs as typed errors.
    pub fn new(spec: WorkloadSpec) -> Self {
        Self::try_new(spec).expect("invalid workload spec")
    }

    /// Creates a generator for `spec`, surfacing validation failures as a
    /// typed error.
    ///
    /// # Errors
    ///
    /// Returns the spec's first violated constraint.
    pub fn try_new(spec: WorkloadSpec) -> Result<Self, crate::spec::SpecError> {
        spec.validate()?;
        Ok(ProgramGenerator { spec })
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generates the program and assigns its initial binary layout.
    pub fn generate(&self) -> Program {
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let total_funcs = spec.app_funcs + spec.lib_funcs;

        // Assign call-graph levels. Levels: 0 dispatcher, 1 handlers,
        // 2..=call_levels+1 helpers, call_levels+2 library leaves.
        let helper_levels = spec.call_levels;
        let mut level_of = vec![0u32; total_funcs as usize];
        let mut funcs_at_level: Vec<Vec<u32>> = vec![Vec::new(); (helper_levels + 3) as usize];
        funcs_at_level[0].push(0);
        for f in 1..=spec.handlers {
            level_of[f as usize] = 1;
            funcs_at_level[1].push(f);
        }
        for f in (spec.handlers + 1)..spec.app_funcs {
            // Deeper levels get more functions (call trees widen with depth).
            let depth_bias = rng.random::<f64>().max(rng.random::<f64>());
            let level = 2 + (depth_bias * f64::from(helper_levels)) as u32;
            let level = level.min(helper_levels + 1);
            level_of[f as usize] = level;
            funcs_at_level[level as usize].push(f);
        }
        let lib_level = helper_levels + 2;
        for f in spec.app_funcs..total_funcs {
            level_of[f as usize] = lib_level;
            funcs_at_level[lib_level as usize].push(f);
        }
        // Guarantee every helper level is non-empty so call sites always
        // find a deeper target (fall back to the library otherwise).

        let mut functions = Vec::with_capacity(total_funcs as usize);
        let mut blocks: Vec<BasicBlock> = Vec::new();
        // Balanced callee assignment: rotate through each pool so every
        // function has near-uniform in-degree. Uniform *random* assignment
        // produces a multiplicative popularity cascade across call levels
        // (lognormal skew) that lets the hottest 8K branch sites absorb
        // ~99% of executions, collapsing the BTB miss rate far below what
        // the paper's flat-profile data-center applications exhibit.
        let mut rotors = vec![0usize; funcs_at_level.len()];

        for f in 0..total_funcs {
            let fid = FuncId::new(f);
            let first_block = blocks.len() as u32;
            if f == 0 {
                self.build_dispatcher(&mut blocks, fid, &mut rng);
            } else {
                let level = level_of[f as usize];
                self.build_function(
                    &mut blocks,
                    fid,
                    level,
                    &funcs_at_level,
                    lib_level,
                    &mut rotors,
                    &mut rng,
                );
            }
            let last_block = blocks.len() as u32;
            functions.push(Function {
                id: fid,
                entry: BlockId::new(first_block),
                first_block,
                last_block,
            });
        }

        let mut program = Program::from_parts(functions, blocks, FuncId::new(0));
        assign_layout(&mut program, &self.layout_options());
        program
    }

    /// The layout options implied by the spec (library functions go to a
    /// distant region, producing the large offsets of Fig. 15).
    pub fn layout_options(&self) -> LayoutOptions {
        LayoutOptions {
            inter_function_pad: self.spec.inter_function_pad,
            library_split: Some(LibrarySplit {
                first_library_func: self.spec.app_funcs,
                library_base: 0x7f00_0000_0000 / 64 * 64,
            }),
            ..LayoutOptions::default()
        }
    }

    /// Dispatcher: `bb0` indirect-calls a handler (Zipf weights), `bb1`
    /// jumps back to `bb0` — an infinite event loop.
    fn build_dispatcher(&self, blocks: &mut Vec<BasicBlock>, fid: FuncId, rng: &mut StdRng) {
        let spec = &self.spec;
        let first = blocks.len() as u32;
        let callees: Vec<(FuncId, f32)> = (1..=spec.handlers)
            .map(|h| {
                let zipf_w = 1.0 / f64::from(h).powf(spec.handler_zipf);
                (FuncId::new(h), zipf_w as f32)
            })
            .collect();
        blocks.push(BasicBlock {
            func: fid,
            num_instrs: self.sample_instrs(rng),
            body_bytes: 0,
            term_bytes: ICALL_BYTES,
            term: Terminator::IndirectCall {
                callees,
                return_to: BlockId::new(first + 1),
            },
        });
        blocks.push(BasicBlock {
            func: fid,
            num_instrs: self.sample_instrs(rng),
            body_bytes: 0,
            term_bytes: JUMP_BYTES,
            term: Terminator::Jump {
                target: BlockId::new(first),
            },
        });
        let ib = self.sample_span(spec.instr_bytes, rng);
        for b in &mut blocks[first as usize..] {
            b.body_bytes = (b.num_instrs - 1) * ib + b.term_bytes;
        }
    }

    /// Builds one handler/helper/library function.
    #[allow(clippy::too_many_arguments)]
    fn build_function(
        &self,
        blocks: &mut Vec<BasicBlock>,
        fid: FuncId,
        level: u32,
        funcs_at_level: &[Vec<u32>],
        lib_level: u32,
        rotors: &mut [usize],
        rng: &mut StdRng,
    ) {
        let spec = &self.spec;
        let first = blocks.len() as u32;
        let n = self.sample_span(spec.blocks_per_func, rng).max(2);
        let instr_bytes = self.sample_span(spec.instr_bytes, rng);
        let is_library = level >= lib_level;

        for i in 0..n {
            let bid = first + i;
            let is_last = i == n - 1;
            let term = if is_last {
                Terminator::Return
            } else {
                self.sample_terminator(
                    first,
                    i,
                    n,
                    level,
                    funcs_at_level,
                    lib_level,
                    is_library,
                    rotors,
                    rng,
                )
            };
            let term_bytes = match &term {
                Terminator::FallThrough { .. } => 0,
                Terminator::Conditional { .. } => COND_BYTES,
                Terminator::Jump { .. } => JUMP_BYTES,
                Terminator::Call { .. } => CALL_BYTES,
                Terminator::IndirectJump { .. } => IJUMP_BYTES,
                Terminator::IndirectCall { .. } => ICALL_BYTES,
                Terminator::Return => RET_BYTES,
            };
            let num_instrs = self.sample_instrs(rng);
            let body_bytes = (num_instrs - 1) * instr_bytes + term_bytes.max(1);
            blocks.push(BasicBlock {
                func: fid,
                    num_instrs,
                body_bytes,
                term_bytes,
                term,
                });
            let _ = bid;
        }
    }

    /// Samples a terminator for block `i` of `n` in the function starting at
    /// global block index `first`.
    #[allow(clippy::too_many_arguments)]
    fn sample_terminator(
        &self,
        first: u32,
        i: u32,
        n: u32,
        level: u32,
        funcs_at_level: &[Vec<u32>],
        lib_level: u32,
        is_library: bool,
        rotors: &mut [usize],
        rng: &mut StdRng,
    ) -> Terminator {
        let spec = &self.spec;
        let mix = &spec.mix;
        let next = BlockId::new(first + i + 1);
        let can_call = !is_library;

        let mut total = mix.conditional + mix.jump + mix.fallthrough + mix.indirect_jump;
        if can_call {
            total += mix.call + mix.indirect_call;
        }
        let mut x = rng.random::<f32>() * total;

        // Conditional.
        if x < mix.conditional {
            return self.sample_conditional(first, i, n, next, rng);
        }
        x -= mix.conditional;
        // Unconditional jump: short forward hop, like the join blocks of
        // compiled if/else code. Near targets keep per-function execution
        // coverage high and produce the small-offset mass of Figs. 14-15.
        if x < mix.jump {
            let hi = (i + 4).min(n - 1);
            let target = BlockId::new(first + rng.random_range(i + 1..=hi));
            return Terminator::Jump { target };
        }
        x -= mix.jump;
        // Indirect jump (switch over nearby forward blocks).
        if x < mix.indirect_jump {
            let fanout = self
                .sample_span(spec.indirect_jump_fanout, rng)
                .min(n - i - 1)
                .max(1);
            let hi = (i + 8).min(n - 1);
            let targets = (0..fanout)
                .map(|_| {
                    let t = BlockId::new(first + rng.random_range(i + 1..=hi));
                    (t, rng.random_range(0.2f32..1.0))
                })
                .collect();
            return Terminator::IndirectJump { targets };
        }
        x -= mix.indirect_jump;
        // Fall-through.
        if x < mix.fallthrough || !can_call {
            return Terminator::FallThrough { next };
        }
        x -= mix.fallthrough;
        // Direct call. Deepest-level functions have no deeper app level to
        // call; only `library_call_fraction` of their call slots reach the
        // library, the rest degrade to fall-throughs, so the call cascade
        // tapers off instead of funnelling into the small library pool.
        if x < mix.call {
            return match self.choose_callee(level, funcs_at_level, lib_level, rotors, rng) {
                Some(callee) => Terminator::Call {
                    callee: FuncId::new(callee),
                    return_to: next,
                },
                None => Terminator::FallThrough { next },
            };
        }
        // Indirect call.
        let fanout = self.sample_span(spec.indirect_call_fanout, rng).max(1);
        let callees: Vec<(FuncId, f32)> = (0..fanout)
            .filter_map(|_| {
                let c = self.choose_callee(level, funcs_at_level, lib_level, rotors, rng)?;
                Some((FuncId::new(c), rng.random_range(0.2f32..1.0)))
            })
            .collect();
        if callees.is_empty() {
            return Terminator::FallThrough { next };
        }
        Terminator::IndirectCall {
            callees,
            return_to: next,
        }
    }

    /// Balanced callee choice: `library_call_fraction` of call slots go to
    /// the library; the rest rotate through the next non-empty deeper app
    /// level, or return `None` (no call) when none exists. Rotation keeps
    /// in-degree near-uniform, preserving the flat execution profile of
    /// data-center services.
    fn choose_callee(
        &self,
        level: u32,
        funcs_at_level: &[Vec<u32>],
        lib_level: u32,
        rotors: &mut [usize],
        rng: &mut StdRng,
    ) -> Option<u32> {
        let lib = &funcs_at_level[lib_level as usize];
        let wants_lib =
            !lib.is_empty() && rng.random::<f32>() < self.spec.library_call_fraction;
        let (pool_idx, pool) = if wants_lib {
            (lib_level as usize, lib)
        } else {
            let idx = (level as usize + 1..lib_level as usize)
                .find(|&l| !funcs_at_level[l].is_empty())?;
            (idx, &funcs_at_level[idx])
        };
        let rotor = &mut rotors[pool_idx];
        let choice = pool[*rotor % pool.len()];
        *rotor += 1;
        Some(choice)
    }

    fn sample_conditional(
        &self,
        first: u32,
        i: u32,
        n: u32,
        next: BlockId,
        rng: &mut StdRng,
    ) -> Terminator {
        let spec = &self.spec;
        let is_loop = i > 0 && rng.random::<f32>() < spec.loop_fraction;
        let (taken, prob) = if is_loop {
            let back = rng.random_range(first + i.saturating_sub(6)..=first + i);
            (
                BlockId::new(back),
                self.sample_prob(spec.loop_taken_prob, rng),
            )
        } else {
            // Short forward skip (if/then shape): mostly 1-3 blocks ahead.
            let hi = (i + 3).min(n - 1);
            let fwd = BlockId::new(first + rng.random_range(i + 1..=hi));
            let p = if rng.random::<f32>() < spec.unbiased_fraction {
                rng.random_range(0.35f32..0.65)
            } else {
                let p = self.sample_prob(spec.biased_taken_prob, rng);
                if rng.random::<bool>() {
                    p
                } else {
                    1.0 - p
                }
            };
            (fwd, p)
        };
        Terminator::Conditional {
            taken,
            not_taken: next,
            taken_prob: prob,
        }
    }

    fn sample_span(&self, span: Span, rng: &mut StdRng) -> u32 {
        rng.random_range(span.min..=span.max)
    }

    fn sample_instrs(&self, rng: &mut StdRng) -> u32 {
        self.sample_span(self.spec.instrs_per_block, rng).max(1)
    }

    fn sample_prob(&self, span: Span1, rng: &mut StdRng) -> f32 {
        rng.random_range(span.min..=span.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use twig_types::BranchKind;

    fn tiny() -> Program {
        ProgramGenerator::new(WorkloadSpec::tiny_test()).generate()
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a, b);
    }

    #[test]
    fn every_function_ends_in_return_except_dispatcher() {
        let p = tiny();
        for func in p.functions() {
            let last = p.block(BlockId::new(func.last_block - 1));
            if func.id == p.entry_function() {
                assert!(matches!(last.term, Terminator::Jump { .. }));
            } else {
                assert!(
                    matches!(last.term, Terminator::Return),
                    "{} does not end in return",
                    func.id
                );
            }
        }
    }

    #[test]
    fn branch_targets_stay_in_function_for_direct_branches() {
        let p = tiny();
        for (id, block) in p.blocks() {
            let func = p.function(block.func);
            let in_func = |b: BlockId| {
                (func.first_block..func.last_block).contains(&b.raw())
            };
            match &block.term {
                Terminator::Conditional {
                    taken, not_taken, ..
                } => {
                    assert!(in_func(*taken), "{id}: cond target escapes function");
                    assert_eq!(not_taken.raw(), id.raw() + 1);
                }
                Terminator::Jump { target } if block.func != p.entry_function() => {
                    assert!(in_func(*target));
                    assert!(target.raw() > id.raw(), "direct jumps are forward");
                }
                Terminator::IndirectJump { targets } => {
                    assert!(!targets.is_empty());
                    for (t, w) in targets {
                        assert!(in_func(*t));
                        assert!(*w > 0.0);
                    }
                }
                Terminator::FallThrough { next } => {
                    assert_eq!(next.raw(), id.raw() + 1);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn calls_are_recursion_free() {
        // Follow max-length call chains: must terminate (DAG by levels).
        let p = tiny();
        fn depth(
            p: &Program,
            f: twig_types::FuncId,
            memo: &mut Vec<Option<u32>>,
            visiting: &mut Vec<bool>,
        ) -> u32 {
            if let Some(d) = memo[f.index()] {
                return d;
            }
            assert!(!visiting[f.index()], "recursive call chain at {f}");
            visiting[f.index()] = true;
            let func = p.function(f);
            let mut best = 0;
            for bid in func.block_ids() {
                match &p.block(bid).term {
                    Terminator::Call { callee, .. } => {
                        best = best.max(1 + depth(p, *callee, memo, visiting));
                    }
                    Terminator::IndirectCall { callees, .. } => {
                        for (c, _) in callees {
                            best = best.max(1 + depth(p, *c, memo, visiting));
                        }
                    }
                    _ => {}
                }
            }
            visiting[f.index()] = false;
            memo[f.index()] = Some(best);
            best
        }
        let mut memo = vec![None; p.num_functions()];
        let mut visiting = vec![false; p.num_functions()];
        let d = depth(&p, p.entry_function(), &mut memo, &mut visiting);
        assert!(d >= 2, "call graph should have some depth, got {d}");
    }

    #[test]
    fn probabilities_are_valid() {
        let p = tiny();
        for (_, b) in p.blocks() {
            if let Terminator::Conditional { taken_prob, .. } = b.term {
                assert!((0.0..=1.0).contains(&taken_prob));
            }
        }
    }

    #[test]
    fn terminator_mix_is_represented() {
        let p = tiny();
        let mut seen = [false; 6];
        for (_, b) in p.blocks() {
            if let Some(k) = b.branch_kind() {
                seen[k.index()] = true;
            }
        }
        for k in BranchKind::ALL {
            assert!(seen[k.index()], "no {k} branches generated");
        }
    }

    #[test]
    fn footprint_close_to_estimate() {
        let spec = WorkloadSpec::tiny_test();
        let est = spec.estimated_footprint_bytes() as f64;
        let p = ProgramGenerator::new(spec).generate();
        let actual = p.text_bytes() as f64;
        assert!(
            (actual / est - 1.0).abs() < 0.5,
            "estimate {est} vs actual {actual}"
        );
    }
}
