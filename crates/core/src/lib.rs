//! # sweb-core — the SWEB scheduling system
//!
//! This crate implements the paper's primary contribution: the distributed,
//! **multi-faceted** request scheduler that every SWEB node runs (Fig. 3 of
//! the paper). It is engine-agnostic — both the discrete-event simulator
//! (`sweb-sim`) and the live TCP server (`sweb-server`) drive the same code.
//!
//! The per-node scheduler is made of three collaborating modules:
//!
//! * the **broker** ([`Broker`]) — picks the node that minimizes the
//!   estimated completion time for each request and issues redirect
//!   decisions (at most one redirect per request);
//! * the **oracle** ([`Oracle`]) — "a miniature expert system" mapping a
//!   request to its CPU demand from a user-supplied table;
//! * **loadd** ([`Loadd`], [`LoadTable`]) — per-node load vectors (CPU,
//!   disk, network) broadcast every 2–3 s, with silent peers marked
//!   unavailable and support for nodes joining/leaving the pool. The
//!   simulator and the live node run the same sans-IO [`Loadd`].
//!
//! The cost model ([`CostModel`]) aggregates
//! `t_s = t_redirection + t_data + t_cpu + t_net` exactly as §3.2 defines,
//! including the conservative Δ = 30 % load bump applied to a chosen node to
//! avoid unsynchronized herd overloading.
//!
//! [`Policy`] selects between SWEB and the paper's comparison strategies
//! (DNS round-robin, pure file locality) plus a single-faceted CPU-only
//! baseline, and [`analytic`] is the closed-form §3.3 throughput bound.

#![warn(missing_docs)]

pub mod analytic;
mod broker;
mod config;
mod cost;
mod digest;
mod load;
mod loadd;
mod oracle;
mod overload;
mod policy;
mod types;

pub use broker::{Broker, Decision, Route};
pub use config::{RedirectMechanism, SwebConfig};
pub use cost::{CostBreakdown, CostInputs, CostModel};
pub use digest::{CacheDigest, DIGEST_BYTES};
pub use load::{HealthChurn, LoadTable, LoadVector, PeerHealth};
pub use loadd::{Broadcast, Folded, LoadReport, Loadd, PACKET_MAX};
pub use oracle::{CostProfile, Oracle, OracleRule};
pub use overload::{
    AdmissionController, AdmitClass, BreakerState, PeerBreakers, RetryBudget, MAX_SHED_LEVEL,
};
pub use policy::Policy;
pub use types::{RequestClass, RequestInfo};
