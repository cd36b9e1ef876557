//! # sweb-bench — the simulator's command-line drivers
//!
//! Two binaries:
//!
//! * **`reproduce`** — regenerates every table and figure of the paper's
//!   §4 at full scale and prints them in the paper's layout
//!   (`cargo run --release -p sweb-bench --bin reproduce [-- <table>]`);
//! * **`swebsim`** — runs one simulated scenario from the command line.
//!
//! The live server is measured by the standalone package in `benchmark/`.

pub use sweb_sim::experiments;
