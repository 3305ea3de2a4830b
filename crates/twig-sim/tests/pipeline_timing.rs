//! Precise pipeline-timing tests on hand-built programs: with exact CFGs
//! the expected resteer costs, region shapes, and steady-state rates can
//! be asserted quantitatively rather than directionally.

use twig_sim::{DirectionPredictorKind, PlainBtb, SimConfig, SimStats, Simulator};
use twig_types::BlockId;
use twig_workload::{InputConfig, Program, ProgramBuilder, Terminator, Walker};

/// A single hot loop: bb0 -(cond, always taken)-> bb0; bb1 is dead exit.
fn hot_loop(instrs_per_block: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let f0 = b.function();
    b.block(
        f0,
        instrs_per_block,
        Terminator::Conditional {
            taken: b.block_ref(f0, 0),
            not_taken: b.block_ref(f0, 1),
            taken_prob: 1.0,
        },
    );
    b.block(f0, 1, Terminator::Return);
    b.build(f0)
}

/// A chain of `n` distinct blocks linked by jumps, closed into a cycle:
/// every block's terminator is a distinct taken branch site.
fn jump_ring(n: usize, instrs_per_block: u32) -> Program {
    let mut b = ProgramBuilder::new();
    let f0 = b.function();
    for i in 0..n {
        let next = (i + 1) % n;
        b.block(
            f0,
            instrs_per_block,
            Terminator::Jump {
                target: b.block_ref(f0, next),
            },
        );
    }
    b.build(f0)
}

fn no_skew() -> InputConfig {
    InputConfig {
        cond_skew: 0.0,
        weight_skew: 0.0,
        ..InputConfig::numbered(0)
    }
}

fn run(program: &Program, config: SimConfig, instructions: u64) -> SimStats {
    let mut sim = Simulator::new(program, config, PlainBtb::new(&config));
    sim.run(Walker::new(program, no_skew()), instructions)
}

fn quiet_config() -> SimConfig {
    SimConfig {
        backend_extra_cpki: 0.0,
        direction: DirectionPredictorKind::Oracle,
        ..SimConfig::default()
    }
}

#[test]
fn hot_loop_reaches_bpu_limited_steady_state() {
    // One taken branch per block: the BPU emits one region (= one block)
    // per cycle, so steady-state IPC == instrs per block / region,
    // bounded by retire width.
    let program = hot_loop(4);
    let stats = run(&program, quiet_config(), 100_000);
    let ipc = stats.ipc();
    assert!(
        (3.2..=4.05).contains(&ipc),
        "expected ~4 IPC (one 4-instr region/cycle), got {ipc:.2}"
    );
    // The loop branch misses exactly once (compulsory), then always hits.
    assert_eq!(stats.total_btb_misses(), 1);
    assert_eq!(stats.decode_resteers, 1);
}

#[test]
fn wide_hot_loop_is_retire_limited() {
    // 12-instr blocks exceed the 6-wide retire: IPC pins at ~6.
    let program = hot_loop(12);
    let stats = run(&program, quiet_config(), 120_000);
    let ipc = stats.ipc();
    assert!(
        (5.2..=6.0).contains(&ipc),
        "expected retire-limited ~6 IPC, got {ipc:.2}"
    );
}

#[test]
fn every_block_is_its_own_region() {
    // In a jump ring every block ends taken, so regions cannot merge:
    // accesses == block executions == taken jumps.
    let program = jump_ring(8, 3);
    let stats = run(&program, quiet_config(), 24_000);
    let jumps = stats.btb_accesses[twig_types::BranchKind::DirectJump.index()];
    // 24k instructions / 3 per block = 8k block executions.
    assert!((7_900..=8_100).contains(&(jumps as i64)), "{jumps}");
}

#[test]
fn ring_larger_than_btb_set_conflicts_forever() {
    // A ring whose 9 branches all map into few sets of a tiny BTB keeps
    // missing; one smaller than the BTB stops missing after warmup.
    let small_cfg = SimConfig {
        btb: twig_sim::BtbGeometry::new(8, 1),
        ..quiet_config()
    };
    let fits = run(&jump_ring(4, 3), small_cfg, 30_000);
    let thrashes = run(&jump_ring(64, 3), small_cfg, 30_000);
    assert!(fits.total_btb_misses() <= 8, "{}", fits.total_btb_misses());
    assert!(
        thrashes.total_btb_misses() > 5_000,
        "{}",
        thrashes.total_btb_misses()
    );
    assert!(thrashes.ipc() < fits.ipc() * 0.6);
}

#[test]
fn decode_resteer_cost_matches_pipeline_depth() {
    // Ideal I$ isolates the resteer cost. Every jump in a ring larger than
    // the BTB misses -> each block costs (decode_pipe + redirect + fetch)
    // extra cycles versus the hit case.
    let config = SimConfig {
        ideal_icache: true,
        btb: twig_sim::BtbGeometry::new(8, 1),
        ..quiet_config()
    };
    let n = 64;
    let instrs = 30_000;
    let hits = run(&jump_ring(4, 3), config, instrs);
    let misses = run(&jump_ring(n, 3), config, instrs);
    let blocks = instrs / 3;
    let extra_per_block =
        (misses.cycles as f64 - hits.cycles as f64) / blocks as f64;
    // Expected bubble: decode_pipe (12) + redirect (2) + fetch/issue (~2).
    assert!(
        (10.0..=22.0).contains(&extra_per_block),
        "decode-resteer cost {extra_per_block:.1} cycles/block"
    );
}

#[test]
fn covered_miss_avoids_the_resteer_cost() {
    // Hand-inject a brprefetch in a two-block loop covering the *other*
    // block's branch: after warmup, would-be misses become covered and the
    // IPC approaches the always-hit configuration.
    let build = |tiny_btb: bool, inject: bool| -> SimStats {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        for i in 0..32usize {
            b.block(
                f0,
                3,
                Terminator::Jump {
                    target: b.block_ref(f0, (i + 1) % 32),
                },
            );
        }
        let mut program = b.build(f0);
        if inject {
            // Each block prefetches the branch 8 blocks ahead (timely at
            // one region per cycle and a 12-cycle decode pipe).
            program.set_prefetch_ops(
                (0..32u32)
                    .map(|i| {
                        let op = twig_types::PrefetchOp::BrPrefetch {
                            branch_block: BlockId::new((i + 8) % 32),
                        };
                        (BlockId::new(i), op)
                    })
                    .collect(),
            );
            twig_workload::layout::assign_layout(
                &mut program,
                &twig_workload::LayoutOptions::default(),
            );
        }
        let config = SimConfig {
            ideal_icache: true,
            btb: if tiny_btb {
                twig_sim::BtbGeometry::new(4, 1)
            } else {
                SimConfig::default().btb
            },
            ..quiet_config()
        };
        run(&program, config, 30_000)
    };
    let baseline = build(true, false);
    let twig = build(true, true);
    let big = build(false, false);
    assert!(
        baseline.total_btb_misses() > 5_000,
        "baseline must thrash: {}",
        baseline.total_btb_misses()
    );
    assert!(
        twig.total_covered_misses() > 4_000,
        "prefetches must cover: {} covered, {} missed",
        twig.total_covered_misses(),
        twig.total_btb_misses()
    );
    assert!(
        twig.ipc() > baseline.ipc() * 1.3,
        "covering misses must pay off: {:.2} vs {:.2}",
        twig.ipc(),
        baseline.ipc()
    );
    assert!(twig.ipc() <= big.ipc() * 1.02, "cannot beat the always-hit BTB");
}

#[test]
fn rob_cap_bounds_frontend_runahead() {
    // With a crushing backend factor the frontend must stall once the ROB
    // fills; decoded-but-unretired work stays bounded, which shows up as
    // backend-bound slots dominating.
    let program = hot_loop(4);
    let config = SimConfig {
        backend_extra_cpki: 2_000.0,
        direction: DirectionPredictorKind::Oracle,
        ..SimConfig::default()
    };
    let stats = run(&program, config, 20_000);
    let td = stats.topdown;
    assert!(
        td.backend_bound > td.frontend_bound * 3,
        "backend-bound must dominate: {td:?}"
    );
    // IPC throttled to ~1000/2000 = 0.5.
    assert!((0.35..=0.6).contains(&stats.ipc()), "{}", stats.ipc());
}

#[test]
fn return_prediction_uses_the_ras() {
    // A call chain deeper than the RAS forces return mispredicts; a
    // shallow one predicts all returns after warmup.
    let build_chain = |depth: usize| -> Program {
        let mut b = ProgramBuilder::new();
        let funcs: Vec<usize> = (0..depth + 1).map(|_| b.function()).collect();
        // f0 calls f1 ... f(depth-1) calls f(depth); leaf returns; each
        // caller returns after its call; f0 loops.
        for (i, &f) in funcs.iter().enumerate() {
            if i < depth {
                b.block(
                    f,
                    2,
                    Terminator::Call {
                        callee: b.func_id(funcs[i + 1]),
                        return_to: b.block_ref(f, 1),
                    },
                );
                if i == 0 {
                    b.block(
                        f,
                        2,
                        Terminator::Jump {
                            target: b.block_ref(f, 0),
                        },
                    );
                } else {
                    b.block(f, 2, Terminator::Return);
                }
            } else {
                b.block(f, 2, Terminator::Return);
            }
        }
        b.build(funcs[0])
    };
    let shallow = run(&build_chain(8), quiet_config(), 40_000);
    assert_eq!(
        shallow.return_mispredicts, 0,
        "8-deep chain fits the 32-entry RAS"
    );
    let deep = run(&build_chain(64), quiet_config(), 40_000);
    assert!(
        deep.return_mispredicts > 100,
        "64-deep chain must overflow the RAS: {}",
        deep.return_mispredicts
    );
}
