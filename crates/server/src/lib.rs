//! # sweb-server — a live SWEB cluster on real sockets
//!
//! The simulator (`sweb-sim`) reproduces the paper's numbers; this crate
//! reproduces its *system*: every node is an HTTP/1.0 server on its own
//! localhost TCP port, running the same scheduler stack ([`sweb_core`])
//! the simulator uses:
//!
//! * an **httpd** on the event-driven reactor (`sweb-reactor`: per-core
//!   poller threads multiplexing every connection, bounded workers for
//!   blocking fulfilment, 503 admission control). Where NCSA httpd forked
//!   a process per `/cgi-bin/` request, every handler here is an
//!   in-process [`DynamicHandler`];
//! * the **broker** consults the node's live [`sweb_core::LoadTable`] and
//!   answers `302 Found` with a `Location` on a peer when another node
//!   would finish the request sooner — marked with the redirect-once query
//!   parameter so the target must serve it;
//! * a **loadd** daemon broadcasting this node's load vector over UDP to
//!   every peer on a short period, with staleness marking, exactly as
//!   §3.1 describes.
//!
//! [`LiveCluster`] wires `n` nodes together over a shared document root
//! (standing in for the NFS-crossmounted disks), and [`client`] is a small
//! redirect-following HTTP client for driving it.
//!
//! ```no_run
//! use sweb_server::{client, ClusterConfig, LiveCluster};
//!
//! let dir = std::env::temp_dir().join("sweb-docs");
//! std::fs::create_dir_all(&dir).unwrap();
//! std::fs::write(dir.join("hello.html"), "<h1>hi</h1>").unwrap();
//! let cluster = LiveCluster::start(3, dir, ClusterConfig::default()).unwrap();
//! let resp = client::get(&format!("{}/hello.html", cluster.base_url(0))).unwrap();
//! assert_eq!(resp.status, 200);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

mod cluster;
mod handler;
mod loadd;
mod node;

pub mod access_log;
pub mod client;
pub mod dynamic;
pub mod file_cache;
pub mod status;

pub use access_log::AccessLog;
pub use file_cache::FileCache;
pub use cluster::{ClusterConfig, LiveCluster};
pub use dynamic::{DynamicHandler, DynamicRegistry};
pub use handler::home_of;
pub use sweb_chaos::{Fault, FaultPlan, Injector, ScriptedOp, Window};
pub use node::{NodeHandle, NodeShared, NodeStats};
pub use status::{StatusReport, METRICS_PATH, STATUS_PATH, STATUS_SCHEMA_VERSION};
