//! Microbenchmarks proving the hot-loop optimizations: monomorphized vs
//! `Box<dyn>`-erased `Simulator::run`, flat-storage BTB lookup/insert
//! under realistic miss traffic, batched (idle-skipping) vs per-cycle
//! stepping, and the cost of the simulation integrity and observability
//! tiers (`off` must be free; the richer tiers priced).

use std::hint::black_box;
use std::time::Instant;

use twig_criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twig_rand::rngs::StdRng;
use twig_rand::{RngExt, SeedableRng};
use twig_sim::{
    Btb, BtbGeometry, BtbSystem, IntegrityConfig, ObsConfig, PlainBtb, SimConfig, Simulator,
};
use twig_types::{Addr, BranchKind};
use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

const INSTRS: u64 = 100_000;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_dispatch");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    let config = SimConfig::default();
    group.throughput(Throughput::Elements(INSTRS));

    // Type-erased: the same system behind `Box<dyn BtbSystem>`, the path
    // existing callers keep using.
    group.bench_function("boxed_dyn", |b| {
        b.iter(|| {
            let system: Box<dyn BtbSystem> = Box::new(PlainBtb::new(&config));
            let mut sim = Simulator::new(&program, config, system);
            sim.run(events.iter().copied(), INSTRS).cycles
        });
    });
    // Monomorphized: the event loop sees the concrete `PlainBtb` type.
    group.bench_function("monomorphized", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
            sim.run(events.iter().copied(), INSTRS).cycles
        });
    });

    group.finish();
}

/// The seed's BTB storage layout (`Vec<Vec<_>>`, MRU via `remove` +
/// `insert(0)`), re-created verbatim — same entry payload, same evicted-PC
/// reconstruction — so the flat layout's effect is measured against the
/// real predecessor rather than asserted.
#[derive(Clone, Copy)]
struct NestedEntry {
    tag: u64,
    target: Addr,
    kind: BranchKind,
}

struct NestedBtb {
    sets: Vec<Vec<NestedEntry>>,
    ways: usize,
    set_mask: u64,
}

impl NestedBtb {
    fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        NestedBtb {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            set_mask: sets as u64 - 1,
        }
    }

    fn set_and_tag(&self, pc: Addr) -> (usize, u64) {
        let key = pc.raw() >> 1;
        ((key & self.set_mask) as usize, key >> self.set_mask.count_ones())
    }

    fn lookup(&mut self, pc: Addr) -> Option<NestedEntry> {
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        let pos = ways.iter().position(|e| e.tag == tag)?;
        let entry = ways.remove(pos);
        ways.insert(0, entry);
        Some(entry)
    }

    fn insert(&mut self, pc: Addr, target: Addr, kind: BranchKind) -> Option<Addr> {
        let (set, tag) = self.set_and_tag(pc);
        let set_bits = self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|e| e.tag == tag) {
            let mut entry = ways.remove(pos);
            entry.target = target;
            entry.kind = kind;
            ways.insert(0, entry);
            return None;
        }
        ways.insert(0, NestedEntry { tag, target, kind });
        if ways.len() > self.ways {
            let victim = ways.pop().expect("overflow entry");
            let key = (victim.tag << set_bits) | set as u64;
            return Some(Addr::new(key << 1));
        }
        None
    }
}

fn bench_btb_flat_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("btb_storage");
    let mut rng = StdRng::seed_from_u64(29);
    let addrs: Vec<Addr> = (0..8192)
        .map(|_| Addr::new(0x40_0000 + rng.random_range(0..200_000u64) * 2))
        .collect();
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for &(entries, ways) in &[(8192usize, 4usize), (8192, 128)] {
        group.bench_with_input(
            BenchmarkId::new("flat", format!("{entries}x{ways}")),
            &(entries, ways),
            |b, &(entries, ways)| {
                let mut btb = Btb::new(BtbGeometry::new(entries, ways));
                b.iter(|| {
                    let mut hits = 0u32;
                    for &pc in &addrs {
                        match btb.lookup(pc) {
                            Some(_) => hits += 1,
                            None => {
                                btb.insert(pc, Addr::new(1), BranchKind::Conditional);
                            }
                        }
                    }
                    hits
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("nested_vec", format!("{entries}x{ways}")),
            &(entries, ways),
            |b, &(entries, ways)| {
                let mut btb = NestedBtb::new(entries, ways);
                b.iter(|| {
                    let mut hits = 0u32;
                    for &pc in &addrs {
                        match btb.lookup(pc) {
                            Some(_) => hits += 1,
                            None => {
                                btb.insert(pc, Addr::new(1), BranchKind::Conditional);
                            }
                        }
                    }
                    hits
                });
            },
        );
    }
    group.finish();
}

/// Before/after for the idle-cycle skipping rewrite: `per_cycle` steps
/// every simulated cycle (the seed's loop, `batch_stepping: false`);
/// `batched` consults the activity mask and leaps over quiescent spans
/// in closed form. The win scales with how backend-bound the workload
/// is — retire-limited stretches are exactly the cycles the mask proves
/// skippable — so both a frontend-bound app (Kafka) and a more
/// backend-bound one (Verilator) are priced.
///
/// Before timing anything, this bench asserts the soundness contract:
/// batching must produce bit-identical statistics to per-cycle stepping.
fn bench_idle_skipping(c: &mut Criterion) {
    let mut group = c.benchmark_group("idle_skipping");
    group.sample_size(10);
    group.throughput(Throughput::Elements(INSTRS));

    for app in [twig_workload::AppId::Kafka, twig_workload::AppId::Verilator] {
        let program = ProgramGenerator::new(WorkloadSpec::preset(app)).generate();
        let events: Vec<_> =
            Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
        let run = |batch: bool| {
            let config = SimConfig {
                batch_stepping: batch,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
            sim.run(events.iter().copied(), INSTRS)
        };

        assert_eq!(
            run(true),
            run(false),
            "batched stepping perturbed the simulation on {}",
            app.name(),
        );

        for (name, batch) in [("per_cycle", false), ("batched", true)] {
            group.bench_with_input(
                BenchmarkId::new(name, app.name()),
                &batch,
                |b, &batch| {
                    b.iter(|| run(batch).cycles);
                },
            );
        }
    }
    group.finish();
}

/// Prices the integrity tiers against each other on the same event
/// stream. The `off` tier leaves the hot loop paying one never-taken
/// branch per cycle, so its row should be indistinguishable from the
/// `monomorphized` dispatch row above; `sampled=64` buys continuous
/// invariant coverage for a bounded surcharge; `paranoid` is the
/// debugging tier and is expected to be several times slower.
///
/// Before timing anything, this bench asserts the zero-perturbation
/// contract: every tier must produce bit-identical statistics — checking
/// may cost time but must never change the simulation.
fn bench_integrity_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrity_overhead");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    group.throughput(Throughput::Elements(INSTRS));

    let tiers: [(&str, IntegrityConfig); 4] = [
        ("off", IntegrityConfig::off()),
        ("sampled64", IntegrityConfig::sampled(64)),
        ("sampled1024", IntegrityConfig::sampled(1024)),
        ("paranoid", IntegrityConfig::paranoid()),
    ];
    let run = |integrity: IntegrityConfig| {
        let config = SimConfig {
            integrity,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        sim.run(events.iter().copied(), INSTRS)
    };

    let reference = run(IntegrityConfig::off());
    for &(name, integrity) in &tiers {
        assert_eq!(
            run(integrity),
            reference,
            "integrity tier {name} perturbed the simulation",
        );
    }

    for &(name, integrity) in &tiers {
        group.bench_function(name, |b| {
            b.iter(|| run(integrity).cycles);
        });
    }
    group.finish();
}

/// Prices the observability tiers on the same event stream. The `off`
/// tier leaves the hot loop paying one never-taken branch per cycle
/// (the `obs` state is `None`), so its row should be within noise of the
/// `monomorphized` dispatch row above; `counters` records through
/// preallocated integer handles; `trace`/`trace=64` add the sampled span
/// ring on top; `attr` adds the per-branch cycle attribution table
/// (bounded top-K, charged once per resteer) to the counters tier;
/// `window4096`/`window65536` price the windowed timeline alone (one
/// retired-instruction compare per retiring cycle, tier still `off`).
///
/// Before timing anything, this bench asserts the zero-perturbation
/// contract: every tier must produce bit-identical statistics —
/// recording may cost time but must never change the simulation. It then
/// asserts the overhead bound: idle-cycle batching stays on under every
/// tier, so `counters` and `attr` each cost at most
/// [`MAX_RECORDING_OVERHEAD`] times `off` (fastest of seven alternated
/// runs each, so a burst of host noise lands on every tier alike).
fn bench_obs_overhead(c: &mut Criterion) {
    const MAX_RECORDING_OVERHEAD: f64 = 1.2;
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let program = ProgramGenerator::new(WorkloadSpec::preset(twig_workload::AppId::Kafka))
        .generate();
    let events: Vec<_> =
        Walker::new(&program, InputConfig::numbered(0)).run_instructions(INSTRS);
    group.throughput(Throughput::Elements(INSTRS));

    let tiers: [(&str, ObsConfig); 7] = [
        ("off", ObsConfig::off()),
        ("counters", ObsConfig::counters()),
        ("trace", ObsConfig::trace(1)),
        ("trace64", ObsConfig::trace(64)),
        (
            "attr",
            ObsConfig::counters().with_attr(twig_sim::AttrConfig::on()),
        ),
        ("window4096", ObsConfig::windowed(4096)),
        ("window65536", ObsConfig::windowed(65_536)),
    ];
    let run = |obs: ObsConfig| {
        let config = SimConfig {
            obs,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        sim.run(events.iter().copied(), INSTRS)
    };

    let reference = run(ObsConfig::off());
    for &(name, obs) in &tiers {
        assert_eq!(
            run(obs),
            reference,
            "observability tier {name} perturbed the simulation",
        );
    }

    let bounded: Vec<(&str, ObsConfig)> = tiers
        .iter()
        .filter(|(name, _)| matches!(*name, "off" | "counters" | "attr"))
        .copied()
        .collect();
    let mut fastest = [f64::INFINITY; 3];
    for _ in 0..7 {
        for (best, &(_, obs)) in fastest.iter_mut().zip(&bounded) {
            let start = Instant::now();
            black_box(run(obs));
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    for (i, &(name, _)) in bounded.iter().enumerate().skip(1) {
        let ratio = fastest[i] / fastest[0];
        assert!(
            ratio <= MAX_RECORDING_OVERHEAD,
            "observability tier {name} costs {ratio:.2}x off \
             ({:.2} ms vs {:.2} ms), above the {MAX_RECORDING_OVERHEAD}x bound",
            fastest[i] * 1e3,
            fastest[0] * 1e3,
        );
    }

    for &(name, obs) in &tiers {
        group.bench_function(name, |b| {
            b.iter(|| run(obs).cycles);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_btb_flat_storage,
    bench_idle_skipping,
    bench_integrity_overhead,
    bench_obs_overhead
);
criterion_main!(benches);
