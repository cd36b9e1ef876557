//! # sweb-sim — the SWEB cluster simulator
//!
//! A discrete-event model of the paper's full system (Fig. 2): clients
//! resolve the server through round-robin DNS, connect to a node, the
//! node's httpd preprocesses and analyzes the request, the broker either
//! serves it locally or 302-redirects it to a better node, data comes off a
//! local disk or over NFS, and the response streams back to the client.
//!
//! Every hardware stage is a contended resource:
//!
//! * per-node **CPU** (processor-sharing over preprocessing, analysis,
//!   redirect generation, fulfillment, and loadd overhead);
//! * per-node **disk** channel;
//! * per-node **page cache** (LRU over whole files — the aggregate-memory
//!   effect behind the paper's superlinear speedups);
//! * the **interconnect** — per-node fat-tree links (Meiko CS-2) or one
//!   shared Ethernet bus (NOW); NFS reads pipeline the remote disk leg with
//!   the network leg, and on the NOW client responses also cross the bus;
//! * the **Internet path** to each client (fixed per-client bandwidth and
//!   latency).
//!
//! [`ClusterSim`] runs one experiment and produces
//! [`sweb_metrics::RunStats`]; [`experiments`] packages every table and
//! figure of §4.
//!
//! ```
//! use sweb_cluster::presets;
//! use sweb_core::Policy;
//! use sweb_sim::{ClusterSim, SimConfig};
//! use sweb_workload::{ArrivalSchedule, FilePopulation};
//!
//! let cluster = presets::meiko(4);
//! let corpus = FilePopulation::uniform(24, 1_500_000).build(4);
//! let arrivals = ArrivalSchedule::burst_30s(8).generate(&corpus);
//! let stats = ClusterSim::new(cluster, corpus, SimConfig::with_policy(Policy::Sweb))
//!     .run(&arrivals);
//! assert_eq!(stats.offered, 240);
//! assert_eq!(stats.completed + stats.dropped, stats.offered);
//! ```

#![warn(missing_docs)]

mod config;
mod dns;
mod driver;
mod join;
mod lifecycle;
mod world;

pub mod experiments;
pub mod trace;

pub use config::SimConfig;
pub use dns::Dns;
pub use driver::ClusterSim;
pub use trace::{TraceEvent, TraceLog, TracePoint};
pub use world::{ResKey, World};
