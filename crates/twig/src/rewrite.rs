//! Link-time binary rewriting: injecting prefetch operations and
//! re-laying-out the program (Figs. 21–22, Table 3's overhead columns).
//!
//! Injection changes block sizes, which shifts addresses, which can change
//! which pairs are offset-encodable — so the rewriter iterates: classify
//! against the current layout, inject, re-layout, re-verify, demoting any
//! pair that stopped fitting to the coalesce table. Two or three passes
//! always converge because demotion is monotone.

use twig_serde::{Deserialize, Serialize};
use twig_types::{BlockId, PrefetchOp};
use twig_workload::{layout::assign_layout, LayoutOptions, Program};

use crate::analysis::MissPlan;
use crate::coalesce::{build_coalesce_plan, CoalescePlan};
use crate::compress::is_encodable;
use crate::config::TwigConfig;

/// Summary of one rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RewriteOutcome {
    /// `brprefetch` instructions injected.
    pub brprefetch_ops: u64,
    /// `brcoalesce` instructions injected.
    pub brcoalesce_ops: u64,
    /// Key-value pairs in the coalesce table.
    pub coalesce_entries: u64,
    /// Distinct blocks that received at least one op.
    pub injection_sites: u64,
    /// `(site, branch)` pairs dropped (unencodable with coalescing
    /// disabled, or beyond the per-block op budget).
    pub dropped_pairs: u64,
    /// Text bytes before the rewrite.
    pub text_bytes_before: u64,
    /// Text bytes after the rewrite (including the coalesce table).
    pub text_bytes_after: u64,
}

impl RewriteOutcome {
    /// Static size overhead: added bytes over the original text
    /// (Fig. 21 / Table 3's Overhead column).
    pub fn static_overhead(&self) -> f64 {
        if self.text_bytes_before == 0 {
            return 0.0;
        }
        (self.text_bytes_after - self.text_bytes_before) as f64 / self.text_bytes_before as f64
    }

    /// Bytes added by the rewrite.
    pub fn added_bytes(&self) -> u64 {
        self.text_bytes_after - self.text_bytes_before
    }
}

/// Applies the miss plans to `program`: injects `brprefetch`/`brcoalesce`
/// ops at the selected sites, builds the coalesce table, and re-lays-out
/// the binary.
///
/// The input program must be op-free (a freshly generated binary or a
/// clone of one); apply exactly one rewrite per program instance. Only the
/// layout changes: the CFG stays shared with every clone.
///
/// # Panics
///
/// Panics if `config` is invalid or `program` already contains ops.
pub fn apply_rewrite(
    program: &mut Program,
    plans: &[MissPlan],
    config: &TwigConfig,
    layout: &LayoutOptions,
) -> RewriteOutcome {
    config.validate().expect("invalid twig config");
    assert!(
        program.all_prefetch_ops().is_empty(),
        "program was already rewritten"
    );
    let text_bytes_before = program.text_bytes();

    // Desired (site, branches) assignments in site order, respecting the
    // per-block budget; plans arrive hottest-first and the sort is stable,
    // so the budget favours hot misses.
    let mut pairs: Vec<(BlockId, BlockId)> = plans
        .iter()
        .flat_map(|plan| plan.sites.iter().map(|s| (s.site, plan.branch_block)))
        .collect();
    pairs.sort_by_key(|&(site, _)| site);
    let mut per_site: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    let mut dropped = 0u64;
    for (site, branch) in pairs {
        if per_site.last().map(|&(s, _)| s) != Some(site) {
            per_site.push((site, Vec::new()));
        }
        let list = &mut per_site.last_mut().expect("pushed above").1;
        if list.len() < config.max_ops_per_block {
            list.push(branch);
        } else {
            dropped += 1;
        }
    }

    // Iterate classification until stable (demotion is monotone). Each
    // site's demoted branches sit at the same index as in `per_site`.
    let mut demoted: Vec<(BlockId, Vec<BlockId>)> =
        per_site.iter().map(|&(s, _)| (s, Vec::new())).collect();
    for _pass in 0..3 {
        // Classify against the current layout.
        let mut direct: Vec<(BlockId, BlockId)> = Vec::new();
        for ((site, branches), (_, demoted)) in per_site.iter().zip(&mut demoted) {
            for &branch in branches {
                if demoted.contains(&branch) {
                    continue;
                }
                if is_encodable(program, *site, branch, config.offset_bits) {
                    direct.push((*site, branch));
                } else {
                    demoted.push(branch);
                }
            }
        }
        let coalesce = if config.enable_coalescing {
            build_coalesce_plan(program, &demoted, config.coalesce_bitmask_bits)
        } else {
            CoalescePlan::default()
        };
        // Rebuild the ops from scratch: a site's `brprefetch`es first,
        // then its `brcoalesce`s.
        let ops = direct
            .iter()
            .map(|&(site, branch)| {
                (
                    site,
                    PrefetchOp::BrPrefetch {
                        branch_block: branch,
                    },
                )
            })
            .chain(coalesce.ops)
            .collect();
        program.set_prefetch_ops(ops);
        program.set_coalesce_table(coalesce.table);
        assign_layout(program, layout);

        // Converged when every direct pair still encodes.
        let stable = direct
            .iter()
            .all(|&(site, branch)| is_encodable(program, site, branch, config.offset_bits));
        if stable {
            break;
        }
    }

    // Account the outcome.
    let ops = program.all_prefetch_ops();
    let brcoalesce_ops = ops
        .iter()
        .filter(|op| matches!(op, PrefetchOp::BrCoalesce { .. }))
        .count() as u64;
    let mut outcome = RewriteOutcome {
        brprefetch_ops: ops.len() as u64 - brcoalesce_ops,
        brcoalesce_ops,
        coalesce_entries: program.coalesce_table().len() as u64,
        injection_sites: program.op_sites().len() as u64,
        dropped_pairs: dropped,
        text_bytes_before,
        text_bytes_after: program.text_bytes(),
    };
    if !config.enable_coalescing {
        outcome.dropped_pairs += demoted.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SelectedSite;
    use twig_workload::{ProgramGenerator, WorkloadSpec};

    fn generator() -> ProgramGenerator {
        ProgramGenerator::new(WorkloadSpec::tiny_test())
    }

    fn direct_branches(program: &Program, n: usize) -> Vec<BlockId> {
        program
            .blocks()
            .filter(|(id, b)| {
                b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(n)
            .collect()
    }

    fn plan(site: BlockId, branch: BlockId) -> MissPlan {
        MissPlan {
            branch_block: branch,
            total_samples: 10,
            sites: vec![SelectedSite {
                site,
                covered_samples: 10,
                conditional_prob: 0.9,
            }],
        }
    }

    #[test]
    fn rewrite_injects_and_relayouts() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 4);
        let site = program.function(program.entry_function()).entry;
        let plans: Vec<MissPlan> = branches.iter().map(|&b| plan(site, b)).collect();
        let outcome = apply_rewrite(
            &mut program,
            &plans,
            &TwigConfig::default(),
            &g.layout_options(),
        );
        assert_eq!(
            outcome.brprefetch_ops + outcome.brcoalesce_ops,
            program
                .blocks()
                .map(|(id, _)| program.prefetch_ops(id).len() as u64)
                .sum::<u64>()
        );
        assert!(outcome.added_bytes() > 0);
        assert!(outcome.static_overhead() > 0.0);
        assert_eq!(outcome.injection_sites, 1);
        // Layout stays contiguous after injection.
        for func in program.functions() {
            let ids: Vec<BlockId> = func.block_ids().collect();
            for pair in ids.windows(2) {
                assert_eq!(program.end_addr(pair[0]), program.addr(pair[1]));
            }
        }
    }

    #[test]
    fn far_branches_go_through_the_coalesce_table() {
        let g = generator();
        let mut program = g.generate();
        // Site in app region, branches in the library region: unencodable.
        let site = program.function(program.entry_function()).entry;
        let lib_branches: Vec<BlockId> = program
            .blocks()
            .filter(|(id, b)| {
                program.addr(*id).raw() > 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .take(3)
            .collect();
        assert!(!lib_branches.is_empty());
        let plans: Vec<MissPlan> = lib_branches.iter().map(|&b| plan(site, b)).collect();
        let outcome = apply_rewrite(
            &mut program,
            &plans,
            &TwigConfig::default(),
            &g.layout_options(),
        );
        assert_eq!(outcome.brprefetch_ops, 0);
        assert!(outcome.brcoalesce_ops >= 1);
        assert_eq!(outcome.coalesce_entries, lib_branches.len() as u64);
    }

    #[test]
    fn coalescing_disabled_drops_far_branches() {
        let g = generator();
        let mut program = g.generate();
        let site = program.function(program.entry_function()).entry;
        let lib_branch = program
            .blocks()
            .find(|(id, b)| {
                program.addr(*id).raw() > 0x7000_0000_0000
                    && b.branch_kind().is_some_and(|k| k.is_direct())
                    && program.direct_branch_target_addr(*id).is_some()
            })
            .map(|(id, _)| id)
            .unwrap();
        let outcome = apply_rewrite(
            &mut program,
            &[plan(site, lib_branch)],
            &TwigConfig::software_prefetch_only(),
            &g.layout_options(),
        );
        assert_eq!(outcome.brprefetch_ops, 0);
        assert_eq!(outcome.brcoalesce_ops, 0);
        assert_eq!(outcome.coalesce_entries, 0);
        assert_eq!(outcome.dropped_pairs, 1);
    }

    #[test]
    fn per_block_budget_is_respected() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 10);
        let site = program.function(program.entry_function()).entry;
        let plans: Vec<MissPlan> = branches.iter().map(|&b| plan(site, b)).collect();
        let config = TwigConfig {
            max_ops_per_block: 3,
            ..TwigConfig::default()
        };
        let outcome = apply_rewrite(&mut program, &plans, &config, &g.layout_options());
        assert!(program.prefetch_ops(site).len() <= 3);
        assert_eq!(outcome.dropped_pairs, 7);
    }

    #[test]
    #[should_panic(expected = "already rewritten")]
    fn double_rewrite_is_rejected() {
        let g = generator();
        let mut program = g.generate();
        let branches = direct_branches(&program, 1);
        let site = program.function(program.entry_function()).entry;
        let plans = vec![plan(site, branches[0])];
        apply_rewrite(&mut program, &plans, &TwigConfig::default(), &g.layout_options());
        apply_rewrite(&mut program, &plans, &TwigConfig::default(), &g.layout_options());
    }

    #[test]
    fn empty_plans_are_a_noop() {
        let g = generator();
        let mut program = g.generate();
        let before = program.clone();
        let outcome = apply_rewrite(&mut program, &[], &TwigConfig::default(), &g.layout_options());
        assert_eq!(outcome.added_bytes(), 0);
        assert_eq!(program, before);
    }
}
