//! `fracbench` — one benchmark for the three entry points of the
//! FracDRAM reproduction: a figure run (fleet task → controller →
//! column kernels), a served request (parse → shard queue → execute →
//! WAL commit → reply) and a population die (build → probes → fold →
//! store).
//!
//! Untraced runs drive the real release binaries as child processes and
//! check their outputs; traced runs replay each workload in-process at
//! reduced scale, timing calls into each layer's public functions, and
//! break the wall time down by layer. See `README.md` for the workloads,
//! the metric glossary and the layer-to-metric map.

#![warn(missing_docs)]

pub mod batch;
pub mod compare;
pub mod proc;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
