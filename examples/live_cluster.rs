//! Run a *real* SWEB cluster: three HTTP servers on localhost TCP ports,
//! UDP loadd between them, 302-redirect scheduling — then fetch documents
//! through it and show which node answered each request.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```

use std::time::Duration;

use sweb::core::Policy;
use sweb::server::{client, ClusterConfig, LiveCluster};

fn main() {
    // Build a document root standing in for the NFS-crossmounted disks.
    let dir = std::env::temp_dir().join(format!("sweb-live-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("maps")).expect("mkdir docroot");
    std::fs::write(dir.join("index.html"), "<html><body>Alexandria Digital Library</body></html>")
        .unwrap();
    std::fs::write(dir.join("maps/goleta.gif"), vec![0x47u8; 512 * 1024]).unwrap();
    for i in 0..6 {
        std::fs::write(dir.join(format!("doc{i}.txt")), format!("library object {i}\n").repeat(50))
            .unwrap();
    }

    // Three nodes, pure file-locality scheduling so redirects are visible.
    let cfg = ClusterConfig { policy: Policy::FileLocality, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(3, dir.clone(), cfg).expect("start cluster");
    println!("started 3-node SWEB cluster:");
    for i in 0..cluster.len() {
        println!("  node {i}: {}", cluster.base_url(i));
    }
    assert!(cluster.await_loadd_mesh(Duration::from_secs(5)), "loadd mesh");
    println!("loadd mesh converged\n");

    // Fetch everything through node 0 and watch the redirects.
    for path in
        ["/index.html", "/maps/goleta.gif", "/doc0.txt", "/doc1.txt", "/doc2.txt", "/doc3.txt"]
    {
        let url = format!("{}{}", cluster.base_url(0), path);
        let resp = client::get(&url).expect("fetch");
        println!(
            "GET {:<18} -> {} ({} bytes) served by node {:?}{}",
            path,
            resp.status,
            resp.body.len(),
            resp.served_by.unwrap_or(99),
            if resp.redirects > 0 { "  [302 redirect followed]" } else { "" },
        );
    }

    println!("\nper-node counters:");
    for i in 0..cluster.len() {
        let stats = &cluster.node(i).reactor.counters;
        println!(
            "  node {i}: accepted {:2}  served {:2}  redirected-away {:2}",
            stats.accepted.get(),
            stats.served.get(),
            stats.redirected.get(),
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nshut down cleanly");
}
