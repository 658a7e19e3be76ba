//! Standard module setups for the experiments.

use std::cell::RefCell;

use fracdram_model::{DeviceParams, Geometry, GroupId, MaterializeCache, Module, ModuleConfig};
use fracdram_softmc::MemoryController;

thread_local! {
    /// Per-worker materialize-cache pool. `None` (the default) disables
    /// pooling entirely; fleet workers arm it for the span of their task
    /// loop. Holds the caches the last reclaimed controller donated, one
    /// per chip.
    static WORKER_CACHES: RefCell<Option<Vec<MaterializeCache>>> = const { RefCell::new(None) };
}

/// Arms this thread's materialize-cache pool: every controller built on
/// this thread adopts the caches of the previously [`reclaim_caches`]'d
/// one. Fleet workers call this at the top of their task loop. Sharing
/// cannot change simulated values — buffers survive adoption only for
/// the same die seed, and they are pure functions of that seed — so any
/// mix of armed and unarmed threads stays byte-identical; only wall
/// time and the `cache_share_hits` counter move.
pub fn arm_cache_pool() {
    WORKER_CACHES.with(|c| *c.borrow_mut() = Some(Vec::new()));
}

/// Disarms this thread's cache pool and drops any pooled caches.
pub fn disarm_cache_pool() {
    WORKER_CACHES.with(|c| *c.borrow_mut() = None);
}

/// Donates a finished task's caches to this thread's pool (no-op while
/// the pool is unarmed). Fleet task bodies call this on their
/// controller right before returning.
pub fn reclaim_caches(mc: &mut MemoryController) {
    WORKER_CACHES.with(|c| {
        if let Some(pool) = c.borrow_mut().as_mut() {
            *pool = mc.module_mut().take_caches();
        }
    });
}

/// Installs this thread's pooled caches into a freshly built controller
/// (no-op while the pool is unarmed or empty).
fn adopt_pooled_caches(mc: &mut MemoryController) {
    WORKER_CACHES.with(|c| {
        if let Some(pool) = c.borrow_mut().as_mut() {
            if !pool.is_empty() {
                mc.module_mut().install_caches(std::mem::take(pool));
            }
        }
    });
}

/// The default geometry for compute experiments: small enough for quick
/// sweeps, wide enough for smooth per-column statistics.
pub fn compute_geometry() -> Geometry {
    Geometry {
        banks: 2,
        subarrays_per_bank: 4,
        rows_per_subarray: 32,
        columns: 512,
    }
}

/// The geometry for PUF experiments: one module row is `chips × columns`
/// bits (the paper's 8 KB row corresponds to 8 chips × 8192 columns —
/// pass `--cols 8192 --chips 8` for paper scale).
pub fn puf_geometry(columns: usize) -> Geometry {
    Geometry {
        banks: 4,
        subarrays_per_bank: 2,
        rows_per_subarray: 32,
        columns,
    }
}

/// A single-chip module of `group` under test, with a distinct die seed.
pub fn controller(group: GroupId, geometry: Geometry, seed: u64) -> MemoryController {
    // Mix the group into the seed so "module 0 of group A" and "module 0
    // of group B" are distinct dies.
    let die = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(group as u64 + 1);
    let mut mc =
        MemoryController::new(Module::new(ModuleConfig::single_chip(group, die, geometry)));
    adopt_pooled_caches(&mut mc);
    mc
}

/// A module of `group` with an explicit chip count (1 reproduces
/// [`controller`]; 8 is a realistic rank) — the PUF experiments'
/// `--chips` flag.
pub fn chips_controller(
    group: GroupId,
    geometry: Geometry,
    seed: u64,
    chips: usize,
) -> MemoryController {
    let die = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(group as u64 + 1);
    let mut mc = MemoryController::new(Module::new(ModuleConfig {
        group,
        seed: die,
        geometry,
        chips,
        params: DeviceParams::default(),
    }));
    adopt_pooled_caches(&mut mc);
    mc
}

/// A multi-chip (rank) module — used by the PUF experiments when paper
/// scale is requested.
pub fn rank_controller(group: GroupId, geometry: Geometry, seed: u64) -> MemoryController {
    let die = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(group as u64 + 1);
    let mut mc = MemoryController::new(Module::new(ModuleConfig::rank(group, die, geometry)));
    adopt_pooled_caches(&mut mc);
    mc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controllers_are_distinct_dies() {
        let a = controller(GroupId::B, compute_geometry(), 0);
        let b = controller(GroupId::B, compute_geometry(), 1);
        assert_ne!(
            a.module().chips()[0].silicon().sense_offset(0, 0, 0),
            b.module().chips()[0].silicon().sense_offset(0, 0, 0),
        );
        let c = controller(GroupId::C, compute_geometry(), 0);
        assert_ne!(
            a.module().chips()[0].silicon().sense_offset(0, 0, 0),
            c.module().chips()[0].silicon().sense_offset(0, 0, 0),
        );
    }

    #[test]
    fn pooled_caches_share_across_identical_controllers_only() {
        use fracdram_model::RowAddr;

        arm_cache_pool();
        let geometry = compute_geometry();
        let addr = RowAddr::new(0, 0);
        let bits = vec![true; geometry.columns];

        let mut warm = controller(GroupId::B, geometry, 7);
        warm.write_row(addr, &bits).unwrap();
        let first = warm.read_row(addr).unwrap();
        reclaim_caches(&mut warm);

        // Same (group, seed): the rebuilt controller adopts the donated
        // buffers and reads the same bytes.
        let mut next = controller(GroupId::B, geometry, 7);
        assert!(next.model_perf().cache_share_hits > 0);
        next.write_row(addr, &bits).unwrap();
        assert_eq!(next.read_row(addr).unwrap(), first);
        reclaim_caches(&mut next);

        // Different die seed: adoption must clear the buffers instead of
        // crediting stale ones.
        let other = controller(GroupId::B, geometry, 8);
        assert_eq!(other.model_perf().cache_share_hits, 0);

        disarm_cache_pool();
    }

    #[test]
    fn geometries_have_expected_shape() {
        assert_eq!(compute_geometry().rows_per_subarray, 32);
        assert_eq!(puf_geometry(1024).columns, 1024);
        let r = rank_controller(GroupId::B, puf_geometry(64), 3);
        assert_eq!(r.module().chips().len(), 8);
    }
}
