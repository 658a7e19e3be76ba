//! Sub-array event-kernel microbenches plus the fig10/fig11 fleet task
//! bodies — the measurements the column-kernel rewrite is judged by.
//!
//! The kernel benches drive one [`Subarray`] directly through the same
//! command sequences the paper's primitives use, so each iteration fires
//! a known set of internal events over a known column count:
//!
//! - `share_kernel/frac`: interrupted single-row activation — one
//!   charge-share plus one word-line close per iteration;
//! - `share_kernel/halfm`: interrupted **multi-row** activation — one
//!   weighted four-row share plus the asymmetric Half-m closure;
//! - `sense_kernel`: a full activate → sense → restore → close cycle;
//! - `leak_kernel`: a millisecond leakage step over the whole row.
//!
//! The task-body benches run the actual fleet task bodies of the two
//! heaviest figures (`fig10` F-MAJ stability, `fig11` PUF evaluation),
//! which is where the acceptance speedup is measured:
//!
//! ```text
//! cargo bench -p fracdram-bench --bench kernels -- --json BENCH_kernels.json
//! ```

use fracdram::fmaj::FmajConfig;
use fracdram::puf::{challenge_set, evaluate};
use fracdram::rowsets::Quad;
use fracdram_bench::{black_box, criterion_group, criterion_main, Criterion};
use fracdram_experiments::{setup, tasks};
use fracdram_model::faults::{FaultConfig, FaultPlan};
use fracdram_model::subarray::{Ctx, Subarray};
use fracdram_model::variation::NoiseEngine;
use fracdram_model::{DeviceParams, Environment, GroupId, InternalTiming, SubarrayAddr};
use fracdram_stats::rng::Rng;

const COLS: usize = 1024;

/// A sub-array bench fixture: silicon, environment, and one open clock.
struct Fixture {
    silicon: fracdram_model::silicon::Silicon,
    env: Environment,
    timing: InternalTiming,
    noise: NoiseEngine,
    perf: fracdram_model::ModelPerf,
    cache: fracdram_model::MaterializeCache,
    sub: Subarray,
    now: u64,
}

impl Fixture {
    fn new() -> Self {
        Fixture {
            silicon: fracdram_model::silicon::Silicon::new(
                0xF00D,
                DeviceParams::default(),
                GroupId::B.profile(),
            ),
            env: Environment::nominal(),
            timing: InternalTiming::default(),
            noise: NoiseEngine::new(7),
            perf: fracdram_model::ModelPerf::default(),
            cache: fracdram_model::MaterializeCache::new(0xF00D),
            sub: Subarray::new(0, 0, 32, COLS),
            now: 100,
        }
    }

    /// Runs `f` with a fresh [`Ctx`] borrowing the fixture's parts.
    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut Subarray, &mut Ctx<'_>, u64) -> R) -> R {
        let mut ctx = Ctx {
            silicon: &self.silicon,
            env: &self.env,
            timing: &self.timing,
            noise: &self.noise,
            perf: &mut self.perf,
            cache: &mut self.cache,
        };
        f(&mut self.sub, &mut ctx, self.now)
    }

    fn write_row(&mut self, row: usize, bits: &[bool]) {
        let end = self.with_ctx(|sub, ctx, t| {
            sub.activate(ctx, row, t).unwrap();
            sub.write(ctx, t + 10, 0, bits).unwrap();
            sub.precharge(ctx, t + 20);
            sub.advance(ctx, t + 30);
            t + 30
        });
        self.now = end;
    }
}

fn bench_share_kernel(c: &mut Criterion) {
    let mut fx = Fixture::new();
    fx.write_row(3, &vec![true; COLS]);
    c.bench_function("kernels/share_kernel/frac", |b| {
        b.iter(|| {
            let end = fx.with_ctx(|sub, ctx, t| {
                sub.activate(ctx, 3, t).unwrap();
                sub.precharge(ctx, t + 1);
                sub.advance(ctx, t + 7);
                t + 7
            });
            fx.now = end;
        })
    });

    // Twin of share_kernel/frac with fault injection explicitly armed
    // then disarmed: the kernels' fault hooks must be free when no plan
    // is installed (guarded <5% vs the twin in BENCH_kernels.json).
    let mut fx = Fixture::new();
    fx.silicon
        .set_faults(Some(FaultPlan::new(0xF00D, FaultConfig::none())));
    fx.write_row(3, &vec![true; COLS]);
    c.bench_function("kernels/share_kernel/frac_faults_off", |b| {
        b.iter(|| {
            let end = fx.with_ctx(|sub, ctx, t| {
                sub.activate(ctx, 3, t).unwrap();
                sub.precharge(ctx, t + 1);
                sub.advance(ctx, t + 7);
                t + 7
            });
            fx.now = end;
        })
    });

    let mut fx = Fixture::new();
    for row in [8usize, 0, 1, 9] {
        fx.write_row(row, &vec![row % 2 == 0; COLS]);
    }
    c.bench_function("kernels/share_kernel/halfm", |b| {
        b.iter(|| {
            let end = fx.with_ctx(|sub, ctx, t| {
                sub.activate(ctx, 8, t).unwrap();
                sub.precharge(ctx, t + 1);
                sub.activate(ctx, 1, t + 2).unwrap();
                sub.precharge(ctx, t + 3);
                sub.advance(ctx, t + 10);
                t + 10
            });
            fx.now = end;
        })
    });
}

fn bench_sense_kernel(c: &mut Criterion) {
    let mut fx = Fixture::new();
    fx.write_row(5, &vec![true; COLS]);
    c.bench_function("kernels/sense_kernel", |b| {
        b.iter(|| {
            let end = fx.with_ctx(|sub, ctx, t| {
                sub.activate(ctx, 5, t).unwrap();
                sub.precharge(ctx, t + 20);
                sub.advance(ctx, t + 30);
                t + 30
            });
            fx.now = end;
        })
    });
}

fn bench_leak_kernel(c: &mut Criterion) {
    let mut fx = Fixture::new();
    fx.write_row(6, &vec![true; COLS]);
    // One millisecond of simulated time per step: far above the
    // sub-microsecond skip threshold, so every column's exponential runs.
    const STEP: u64 = 400_000;
    c.bench_function("kernels/leak_kernel", |b| {
        b.iter(|| {
            fx.now += STEP;
            let v = fx.with_ctx(|sub, ctx, t| sub.cell_voltage(ctx, 6, 0, t));
            black_box(v)
        })
    });
}

fn bench_controller_caches(c: &mut Criterion) {
    use fracdram_model::{Geometry, Module, ModuleConfig, RowAddr};
    use fracdram_softmc::MemoryController;

    // Live full-row write: the fixed ACT/WRITE/PRE sequence every trial
    // loop issues to rewrite its operand rows.
    let mut mc = MemoryController::new(Module::new(ModuleConfig::single_chip(
        GroupId::B,
        0xBEEF,
        Geometry {
            banks: 2,
            subarrays_per_bank: 4,
            rows_per_subarray: 8,
            columns: COLS,
        },
    )));
    let addr = RowAddr::new(0, 3);
    let bits = vec![true; mc.module().row_bits()];
    mc.write_row(addr, &bits).unwrap();
    c.bench_function("kernels/write_row", |b| {
        b.iter(|| mc.write_row(addr, &bits).unwrap())
    });

    // Compiled-program cache: running an already-compiled data-free
    // program measures hash + interpreter dispatch without model events
    // (NOPs only touch the clock).
    let mut mc = MemoryController::new(Module::new(ModuleConfig::single_chip(
        GroupId::B,
        0xBEEF,
        Geometry::tiny(),
    )));
    let program = {
        let mut b = fracdram_softmc::Program::builder();
        for _ in 0..64 {
            b = b.nop().delay(2);
        }
        b.build()
    };
    mc.run(&program).unwrap();
    c.bench_function("kernels/compiled_program", |b| {
        b.iter(|| mc.run(&program).unwrap())
    });
}

fn bench_task_bodies(c: &mut Criterion) {
    // fig10: one F-MAJ stability trial (3 row writes + the F-MAJ program).
    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), 7);
    let geometry = *mc.module().geometry();
    let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), GroupId::B).expect("quad");
    let config = FmajConfig::best_for(GroupId::B);
    let mut rng = Rng::seed_from_u64(1);
    c.bench_function("tasks/fig10_body", |b| {
        b.iter(|| tasks::stability_fmaj(&mut mc, &quad, &config, 1, &mut rng))
    });

    // Twin with fault injection armed-then-disarmed through the module
    // API (guarded <5% vs fig10_body in BENCH_kernels.json).
    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), 7);
    mc.module_mut()
        .set_fault_config(&fracdram_model::FaultConfig::none());
    let mut rng = Rng::seed_from_u64(1);
    c.bench_function("tasks/fig10_body_faults_off", |b| {
        b.iter(|| tasks::stability_fmaj(&mut mc, &quad, &config, 1, &mut rng))
    });

    // fig11: one PUF challenge evaluation on a 1024-column row.
    let geometry = setup::puf_geometry(1024);
    let mut mc = setup::controller(GroupId::B, geometry, 11);
    let challenges = challenge_set(&geometry, 4, 11);
    let mut next = 0usize;
    c.bench_function("tasks/fig11_body", |b| {
        b.iter(|| {
            let ch = challenges[next % challenges.len()];
            next += 1;
            evaluate(&mut mc, ch).expect("puf").hamming_weight()
        })
    });
}

criterion_group!(
    benches,
    bench_share_kernel,
    bench_sense_kernel,
    bench_leak_kernel,
    bench_controller_caches,
    bench_task_bodies
);
criterion_main!(benches);
