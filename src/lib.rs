//! # sweb — facade crate
//!
//! Re-exports the whole SWEB workspace behind one dependency. See the
//! individual crates for details:
//!
//! * [`des`] — discrete-event simulation engine
//! * [`cluster`] — multicomputer hardware models and presets
//! * [`http`] — HTTP/1.0 subset shared by simulator and live server
//! * [`core`] — the SWEB scheduler (broker, oracle, loadd, cost model)
//! * [`workload`] — request/file/client generators
//! * [`metrics`] — histograms, run statistics, table rendering
//! * [`sim`] — the full cluster simulator and paper experiments
//! * [`server`] — the live cluster: event-driven HTTP/1.0 nodes on
//!   localhost TCP ports (one reactor shard per core)

pub use sweb_cluster as cluster;
pub use sweb_core as core;
pub use sweb_des as des;
pub use sweb_http as http;
pub use sweb_metrics as metrics;
pub use sweb_server as server;
pub use sweb_sim as sim;
pub use sweb_workload as workload;
