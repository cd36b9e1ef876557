//! # sweb-telemetry — live observability for the SWEB cluster
//!
//! The paper's scheduler (§3.2) is only as good as the load and cost
//! information it acts on, yet the original system never *checked* its own
//! predictions. This crate is the measurement layer of the live server:
//!
//! * a **lock-free metric registry** ([`Registry`]) of atomic
//!   [`Counter`]s and fixed-bucket log-scale [`AtomicHistogram`]s —
//!   registration takes a lock once, every increment after that is a
//!   single atomic op on an `Arc` handle — plus scrape-time readers of
//!   numbers other subsystems keep in their own atomics;
//! * **shard-local cells** ([`ShardedCounter`], [`ShardedGauge`]): hot
//!   per-request counters split into cacheline-padded per-shard cells so
//!   multi-core reactor shards never contend on one cacheline — summed on
//!   scrape, exact, and broken down per shard by `/sweb-status`;
//! * **per-request phase timing** ([`PhaseTimes`]): accept → parse →
//!   decide → fetch → write;
//! * **cost-model feedback** ([`CostFeedback`]): every locally-served
//!   decision records the broker's predicted `t_redirection`/`t_data`/
//!   `t_cpu` against the measured fulfillment wall time, making
//!   prediction-error histograms first-class metrics;
//! * a **Prometheus-style text exposition**
//!   ([`Registry::render_prometheus`]), its counters and gauges as
//!   `(series, value)` pairs ([`Registry::scalars`]), and a minimal,
//!   dependency-free [`Json`] value type (writer *and* parser) for the
//!   typed `/sweb-status?format=json` API.
//!
//! Everything here is `std`-only by design: the registry must be usable
//! from the innermost I/O loops without pulling in a dependency tree.

#![warn(missing_docs)]

mod deadline;
mod feedback;
mod hist;
mod json;
mod phases;
mod registry;
mod sharded;

pub use deadline::RequestDeadline;
pub use feedback::CostFeedback;
pub use hist::AtomicHistogram;
pub use json::Json;
pub use phases::{Phase, PhaseTimes};
pub use registry::{line_is_well_formed, Counter, Registry};
pub use sharded::{ShardedCounter, ShardedGauge, MAX_SHARD_CELLS};
