//! # sweb-chaos — deterministic fault injection for the live cluster
//!
//! The paper's availability story (§2.2–2.3) is that loadd marks silent
//! peers unavailable and the scheduler tolerates node join/leave. Proving
//! that requires deliberately breaking nodes, and doing it *replayably*:
//! a chaos test that fails must fail the same way on the next run.
//!
//! This crate supplies two pieces:
//!
//! * [`FaultPlan`] — a seeded, text-serializable description of every
//!   fault to inject during a run: loadd packet loss/delay, network
//!   partitions (per node-pair), node crashes and revivals at scripted
//!   times, accept pauses, slow-disk latency, and fd-exhaustion pressure.
//!   Plans round-trip through a line-based text format so a failing CI
//!   job can upload the exact plan for local replay.
//! * [`Injector`] — the runtime half: armed with the cluster's start
//!   instant, it answers point queries from the server hot paths
//!   ("should this loadd packet from node 2 to node 0 be delivered?",
//!   "is node 1's accept loop paused right now?") deterministically from
//!   the plan's seed. Random decisions (probabilistic packet loss) hash
//!   `(seed, from, to, per-pair sequence number)` through splitmix64, so
//!   the verdict stream is a pure function of the plan.
//!
//! The injector deliberately knows nothing about sockets or threads —
//! `sweb-server` threads the queries through its loadd loop, accept
//! loops, and file-fetch path. With no plan (the default), every query
//! short-circuits to "no fault" without touching an atomic.

#![warn(missing_docs)]

mod inject;
mod plan;

pub use inject::{FaultCounts, Injector, ScriptedOp, TxVerdict};
pub use plan::{Fault, FaultPlan, PlanParseError, Window};
