//! # fracdram-serve — FracDRAM as a service
//!
//! The experiment fleet proves the paper's primitives work; this crate
//! serves them. A persistent daemon owns a sharded pool of simulated
//! modules and exposes the useful primitives to concurrent clients
//! over a line-delimited JSON protocol on TCP:
//!
//! * `trng` — whitened random bit streams (QUAC-style four-row TRNG);
//! * `puf` / `enroll` / `verify` — Frac-PUF challenge→response
//!   evaluation, enrollment with a per-die signature cache, and
//!   threshold authentication;
//! * `write` / `copy` / `read` — Frac write and in-array row copy as a
//!   storage primitive;
//! * `fault` / `mark-bad` / `status` — fault-injection control,
//!   administrative die retirement, and the health/remap report.
//!
//! Production concerns are the point of the crate: bounded per-shard
//! queues shed overload with `503` responses, a die that fails (or
//! trips its fault-event limit) is remapped to fresh silicon without
//! dropping requests, and the recorded request log replays to a
//! byte-identical response log ([`server::run_replay`]). See DESIGN.md
//! §"FracDRAM as a service" for why the determinism holds and
//! EXPERIMENTS.md for the measured serving latencies.
//!
//! Durability and failure testing (PR 9): every executed request is
//! journaled to a checksummed per-shard [`wal`] before its response is
//! acknowledged, so a killed daemon recovers byte-identical state by
//! replaying the log ([`server::recover`]); a per-die [`breaker`]
//! trips persistent failures open ahead of the remap path; and a
//! seeded [`chaos`] plan injects die failures, connection drops, shard
//! stalls, and kill points deterministically for the `chaos_sweep`
//! harness. See DESIGN.md §"Crash-safe durability".

#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod wal;

pub use breaker::{Admission, Breaker, BreakerConfig};
pub use chaos::{ChaosConfig, ChaosPlan, ChaosSpec};
pub use pool::{RemapEvent, Reply, ServeConfig, ShardState, StatusBoard};
pub use protocol::{bits_to_hex, hex_to_bits, Request, WritePayload};
pub use server::{recover, run_replay, start, start_on, Recovery, ServerHandle, ServerReport};
pub use wal::{WalEntry, WalShard, WalWriter};
