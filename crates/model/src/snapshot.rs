//! Snapshot/restore of sub-array dynamic state.
//!
//! The TRNG's refill prefix (four RowClone copies that reseed the
//! activation quad) ends in the same rail-exact state every time, so it
//! runs live once per (bank, sub-array, environment) and is restored
//! afterwards. A [`SubArrayState`] is a memcpy-style capture of what
//! such a prefix leaves behind — charge vectors, bit-line levels, the
//! open-row set, `charged` flags, and the not-yet-fired close event —
//! stored with *relative* time offsets so the capture can be reimposed
//! at any later clock.
//!
//! **Determinism argument.** A restore is byte-identical to re-executing
//! the captured program because (a) the captured post-state is a pure
//! function of the program and its command offsets, (b) temporal noise
//! is a pure function of each event's fire time and coordinates — not
//! of how many draws happened before it — so suffix events after a
//! restore see exactly the noise a live replay would, and (c) all
//! absolute times are rebased onto the new anchor, which is exactly
//! where the replayed program would have put them.

use crate::env::Environment;

/// Captured dynamic state of one row (voltages plus leak bookkeeping),
/// with `last` stored relative to the snapshot anchor.
#[derive(Debug, Clone)]
pub struct RowCapture {
    pub(crate) row: usize,
    pub(crate) v: Box<[f64]>,
    pub(crate) last_off: u64,
    pub(crate) charged: bool,
}

/// Captured dynamic state of one sub-array, relative to an anchor cycle.
///
/// Produced by `Subarray::snapshot` and reimposed by `Subarray::restore`;
/// the static silicon parameters are *not* captured — they are pure seed
/// hashes served by the materialize cache.
#[derive(Debug, Clone)]
pub struct SubArrayState {
    pub(crate) bank: usize,
    pub(crate) index: usize,
    pub(crate) bl: Box<[f64]>,
    pub(crate) sensed_bits: Box<[bool]>,
    pub(crate) open: Vec<usize>,
    pub(crate) sensed: bool,
    pub(crate) multi_row: bool,
    pub(crate) pending_share_off: Option<u64>,
    pub(crate) pending_sense_off: Option<u64>,
    pub(crate) pending_close_off: Option<u64>,
    pub(crate) rows: Vec<RowCapture>,
}

impl SubArrayState {
    /// Bank the capture belongs to.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Sub-array index within the bank.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Approximate size of the captured payload in bytes (the
    /// `snapshot_bytes` perf counter).
    pub fn bytes(&self) -> u64 {
        let mut bytes = (self.bl.len() * 8 + self.sensed_bits.len() + self.open.len() * 8) as u64;
        for rc in &self.rows {
            bytes += (rc.v.len() * 8 + 16) as u64;
        }
        bytes
    }
}

/// A module-wide prefix capture: one [`SubArrayState`] per chip for the
/// captured sub-array, and the environment the program ran under.
#[derive(Debug, Clone)]
pub struct ModuleRowsSnapshot {
    pub(crate) states: Vec<SubArrayState>,
    pub(crate) env: Environment,
}

impl ModuleRowsSnapshot {
    /// The environment the captured program executed under; a restore is
    /// only valid while the module environment is unchanged.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Total captured bytes across all chips.
    pub fn bytes(&self) -> u64 {
        self.states.iter().map(SubArrayState::bytes).sum()
    }
}
