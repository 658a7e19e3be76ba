//! # fracdram-softmc — software-controlled memory controller
//!
//! A SoftMC-style controller for the simulated DRAM of
//! [`fracdram_model`]: programs are explicit command sequences with exact
//! cycle spacing, issued verbatim — including spacings that violate the
//! JEDEC DDR3 standard, which is precisely how FracDRAM's primitives
//! work. A standalone checker reports which constraints a program breaks.
//!
//! ## Example
//!
//! ```
//! use fracdram_model::{Geometry, GroupId, Module, ModuleConfig, RowAddr};
//! use fracdram_softmc::{MemoryController, Program};
//!
//! # fn main() -> Result<(), fracdram_softmc::ControllerError> {
//! let module = Module::new(ModuleConfig::single_chip(GroupId::B, 1, Geometry::tiny()));
//! let mut mc = MemoryController::new(module);
//!
//! let addr = RowAddr::new(0, 1);
//! mc.write_row(addr, &vec![true; 64])?;
//!
//! // The paper's Frac primitive is just a 7-cycle program:
//! let frac = Program::builder().act(addr).pre(0).delay(5).build();
//! assert!(!mc.check(&frac).is_empty(), "frac is out-of-spec by design");
//! mc.run(&frac)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod command;
pub mod compiled;
pub mod controller;
pub mod encoding;
pub mod error;
pub mod program;
pub mod timing;
pub mod trace;

pub use command::{CommandKind, DramCommand};
pub use compiled::{CompiledInst, CompiledProgram};
pub use controller::{MemoryController, RunMetrics, RunOutcome};
pub use encoding::{decode, encode, DecodeError};
pub use error::{ControllerError, Result};
pub use program::{Instruction, Program, ProgramBuilder};
pub use timing::{TimingParams, TimingRule, TimingViolation};
pub use trace::{CommandTrace, CycleStats, TraceEntry, TraceOp};
