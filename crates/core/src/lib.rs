//! # fracdram — fractional values in off-the-shelf DRAM
//!
//! A faithful reproduction of **FracDRAM** (Gao, Tziantzioulis,
//! Wentzlaff — MICRO 2022): storing *fractional* voltages — neither 0
//! nor `Vdd` — in unmodified, commodity DDR3 DRAM using specially timed
//! command sequences, and the applications that capability unlocks.
//!
//! The paper's platform is real silicon behind a SoftMC FPGA controller;
//! this reproduction drives the same command sequences, cycle for cycle,
//! against the charge-level device simulator of [`fracdram_model`]
//! through the software memory controller of [`fracdram_softmc`].
//!
//! ## The primitives
//!
//! * [`frac`] — **Frac** (§III-A): `ACTIVATE`–`PRECHARGE` back-to-back
//!   interrupts a row activation before the sense amplifiers enable,
//!   leaving every cell of the row at a fractional voltage. 7 cycles.
//! * [`halfm`] — **Half-m** (§III-B): a trailing `PRECHARGE` interrupts
//!   a *four-row* activation, storing Half values on masked columns and
//!   weak ones/zeros elsewhere — three distinguishable states in a row.
//! * [`multirow`] — the decoder-glitch sequence behind both, plus the
//!   empirical capability survey of Table I.
//!
//! ## Verification (§IV-B)
//!
//! Fractional values cannot be read directly (sensing destroys them),
//! so the paper proves their existence indirectly:
//! [`retention`] profiles how Frac shifts retention-time buckets
//! (Fig. 6), and [`verify`] runs the two-majority procedure whose
//! `X₁ = 1, X₂ = 0` signature is impossible for rail values (Fig. 7).
//!
//! ## Use cases (§VI)
//!
//! * [`maj3`] — the ComputeDRAM baseline majority (three-row).
//! * [`fmaj`] — **F-MAJ**: majority-of-three via *four*-row activation
//!   with a fractional helper row; extends in-memory majority to
//!   modules that cannot open three rows and cuts the error rate of the
//!   original from 9.1 % to 2.2 % (Figs. 9–10).
//! * [`puf`] — the **Frac-based PUF**: ten Frac operations push a row to
//!   `Vdd/2`; the sense amplifiers' manufacturing offsets then resolve a
//!   device-unique fingerprint in ≈ 1.5 µs (Figs. 11–12).
//!
//! ## Example
//!
//! ```
//! use fracdram::{Challenge, FracDram};
//! use fracdram_model::{Geometry, GroupId, Module, ModuleConfig, RowAddr};
//!
//! # fn main() -> Result<(), fracdram::FracDramError> {
//! let module = Module::new(ModuleConfig::single_chip(GroupId::B, 42, Geometry::tiny()));
//! let mut dram = FracDram::new(module);
//!
//! // Store a fractional value in row 5 of bank 0...
//! dram.store_fractional(RowAddr::new(0, 5), true, 3)?;
//! // ...which blocks refresh until it is consumed (§III-C).
//! assert!(dram.refresh().is_err());
//! dram.read_row(RowAddr::new(0, 5))?;
//! dram.refresh()?;
//!
//! // Fingerprint the device.
//! let response = dram.puf_response(Challenge::new(0, 9))?;
//! assert_eq!(response.len(), 64);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compute;
pub mod error;
pub mod fmaj;
pub mod frac;
pub mod halfm;
pub mod maj3;
pub mod multirow;
pub mod puf;
pub mod retention;
pub mod reverse;
pub mod rowcopy;
pub mod rowsets;
pub mod session;
pub mod ternary;
pub mod trng;
pub mod verify;

pub use compute::{ComputeEngine, MajorityKind};
pub use error::{FracDramError, Result};
pub use fmaj::FmajConfig;
pub use frac::FRAC_CYCLES;
pub use multirow::Capabilities;
pub use puf::{Challenge, PUF_FRAC_OPS};
pub use retention::{CategoryShares, CellCategory, RetentionBucket};
pub use rowsets::{Quad, Triplet};
pub use session::{FracDram, TrialRunner};
pub use ternary::{TernaryStore, Trit};
pub use trng::Trng;
pub use verify::{FracPlacement, VerifySetup};
