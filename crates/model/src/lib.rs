//! # fracdram-model — charge-level DRAM device simulator
//!
//! This crate is the hardware substrate of the FracDRAM reproduction
//! (Gao, Tziantzioulis, Wentzlaff — MICRO 2022): a behavioral, charge-level
//! simulator of commodity DDR3 chips that produces *defined* behavior for
//! the out-of-spec command timings the paper exploits.
//!
//! The model is mechanistic, not tabular: cell capacitors share charge
//! with bit-lines, sense amplifiers compare against per-column offset
//! thresholds, cells leak with per-cell log-normal time constants, and
//! the row decoder glitches into multi-row activation when an ACTIVATE
//! lands during an in-flight PRECHARGE. The paper's primitives (Frac,
//! Half-m), its verification methods (retention profiling, MAJ3 with
//! fractional operands), and its use cases (F-MAJ, the Frac-PUF) all
//! *emerge* from these mechanisms.
//!
//! ## Example
//!
//! ```
//! use fracdram_model::{Chip, ChipConfig, Geometry, GroupId, RowAddr};
//!
//! # fn main() -> Result<(), fracdram_model::ModelError> {
//! let mut chip = Chip::new(ChipConfig::new(GroupId::B, 42, Geometry::tiny()));
//! let addr = RowAddr::new(0, 3);
//!
//! // A normal, legally timed write...
//! chip.activate(addr, 100)?;
//! chip.write(0, 0, &vec![true; 64], 110)?;
//! chip.precharge(0, 130)?;
//!
//! // ...then the paper's Frac sequence: ACTIVATE and PRECHARGE
//! // back-to-back, which interrupts the row activation and leaves a
//! // fractional voltage in every cell of the row (the cell started at a
//! // full rail — 0 V or 1.5 V depending on the column's polarity — and
//! // moved toward Vdd/2).
//! chip.activate(addr, 200)?;
//! chip.precharge(0, 201)?;
//!
//! let v = chip.probe_cell_voltage(addr, 0, 300);
//! assert!(v.value() > 0.1 && v.value() < 1.4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitline;
pub mod cell;
pub mod chip;
pub mod decoder;
pub mod env;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod materialize;
pub mod module;
pub mod params;
pub mod perf;
pub mod sense_amp;
pub mod silicon;
pub mod snapshot;
pub mod subarray;
pub mod units;
pub mod variation;
pub mod vendor;

pub use chip::{Chip, ChipConfig};
pub use env::Environment;
pub use error::{ModelError, Result};
pub use faults::{EnvWindow, FaultConfig, FaultPlan};
pub use geometry::{Geometry, RowAddr, SubarrayAddr};
pub use materialize::MaterializeCache;
pub use module::{Module, ModuleConfig};
pub use params::{DeviceParams, InternalTiming};
pub use perf::ModelPerf;
pub use subarray::{ProbeEvent, ProbeSample};
pub use units::{Cycles, Femtofarads, Seconds, Volts};
pub use vendor::{GroupId, VendorProfile};
