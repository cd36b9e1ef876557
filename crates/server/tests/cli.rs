//! End-to-end tests of the `swebd` binary: spawn a real process and drive
//! it over HTTP with the library client.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn docroot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("index.html"), "<h1>cli test</h1>").unwrap();
    std::fs::write(dir.join("map.gif"), vec![0x47u8; 64_000]).unwrap();
    dir
}

/// A port base unlikely to collide across test processes: 10000–29999,
/// so that with the offsets the tests add (at most 101) every port the
/// suite binds stays below 32768, where Linux's ephemeral range starts,
/// and no outgoing connection of another process already holds it.
fn port_base() -> u16 {
    10000 + (std::process::id() % 20000) as u16
}

struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Wait until `daemon` listens on `port`; if it does not within
/// `deadline`, stop it and fail with what it wrote on stderr.
fn wait_for_http(daemon: &mut Daemon, port: u16, deadline: Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < deadline {
        if std::net::TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = daemon.0.kill();
    let mut err = String::new();
    if let Some(mut stderr) = daemon.0.stderr.take() {
        let _ = stderr.read_to_string(&mut err);
    }
    panic!("swebd never listened on {port} within {deadline:?}; its stderr:\n{err}");
}

#[test]
fn swebd_serves_two_nodes_over_http() {
    let dir = docroot("e2e");
    let base = port_base();
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_swebd"))
            .args([
                "--nodes",
                "2",
                "--docroot",
                dir.to_str().unwrap(),
                "--policy",
                "sweb",
                "--port-base",
                &base.to_string(),
                "--loadd-ms",
                "200",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn swebd"),
    );
    wait_for_http(&mut daemon, base, Duration::from_secs(10));
    wait_for_http(&mut daemon, base + 1, Duration::from_secs(10));

    // Both nodes serve both documents, whole, whichever node ends up
    // answering (`client::get` follows the one 302 the broker may issue).
    let targets = [(base, "map.gif"), (base + 1, "index.html")]
        .map(|(port, name)| (port, name, std::fs::metadata(dir.join(name)).unwrap().len()));
    for i in 0..40 {
        let (port, name, on_disk) = targets[i % 2];
        let resp = sweb_server::client::get(&format!("http://127.0.0.1:{port}/{name}")).unwrap();
        assert_eq!(resp.status, 200, "request {i} for {name}");
        assert_eq!(resp.body.len() as u64, on_disk, "request {i} for {name}");
    }

    // Status endpoint over the daemon too.
    let status =
        sweb_server::client::get(&format!("http://127.0.0.1:{}/sweb-status", base + 1)).unwrap();
    assert_eq!(status.status, 200);
    let body = String::from_utf8(status.body).unwrap();
    assert!(body.contains("SWEB node n1"), "{body}");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swebd_rejects_bad_oracle_config() {
    let dir = docroot("badconf");
    let conf = dir.join("oracle.conf");
    std::fs::write(&conf, "not-a-prefix 1.0 2.0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_swebd"))
        .args([
            "--nodes",
            "1",
            "--docroot",
            dir.to_str().unwrap(),
            "--oracle",
            conf.to_str().unwrap(),
        ])
        .output()
        .expect("run swebd");
    assert!(!out.status.success(), "malformed oracle config must be fatal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swebd_accepts_shipped_example_oracle() {
    let dir = docroot("goodconf");
    let base = port_base() + 100;
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../conf/oracle.conf.example");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_swebd"))
            .args([
                "--nodes",
                "1",
                "--docroot",
                dir.to_str().unwrap(),
                "--port-base",
                &base.to_string(),
                "--oracle",
                example,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn swebd"),
    );
    wait_for_http(&mut daemon, base, Duration::from_secs(10));
    let resp = sweb_server::client::get(&format!("http://127.0.0.1:{base}/index.html")).unwrap();
    assert_eq!(resp.status, 200);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swebd_usage_on_bad_flags() {
    // `--engine` was a flag while a second connection engine existed,
    // `--io-backend` while a second poller did, `--overload` while
    // overload control could be switched off. No nodes, and a loadd
    // period of zero, are refused before anything starts.
    for args in [
        &["--bogus"][..],
        &["--engine", "reactor"][..],
        &["--io-backend", "uring"][..],
        &["--io-backend", "epoll"][..],
        &["--overload", "on"][..],
        &["--nodes", "0"][..],
        &["--loadd-ms", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_swebd")).args(args).output().expect("run swebd");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let mut err = String::new();
        let _ = out.stderr.as_slice().read_to_string(&mut err);
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn swebd_help_prints_the_usage_and_succeeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_swebd")).arg("--help").output().expect("run swebd");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

/// The start-up contract `benchmark/src/swebd.rs` parses: spawned as
/// `swebd --nodes 3 --docroot DIR`, stdout yields one
/// `  node i: http://127.0.0.1:<port>` line per node, then a line
/// starting `loadd mesh converged`, and never `warning:`.
#[test]
fn swebd_default_startup_prints_node_urls_then_converges() {
    use std::io::BufRead;
    let dir = docroot("contract");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_swebd"))
            .args(["--nodes", "3", "--docroot", dir.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn swebd"),
    );
    let stdout = std::io::BufReader::new(daemon.0.stdout.take().unwrap());
    let mut ports = Vec::new();
    let mut converged = false;
    // swebd prints the convergence line (or a warning) within 10 s.
    for line in stdout.lines() {
        let line = line.unwrap();
        assert!(!line.starts_with("warning:"), "{line}");
        if let Some(rest) = line.strip_prefix(&format!("  node {}: http://127.0.0.1:", ports.len())) {
            let port: String = rest.chars().take_while(char::is_ascii_digit).collect();
            ports.push(port.parse::<u16>().expect("port after the node URL"));
        }
        if line.starts_with("loadd mesh converged") {
            converged = true;
            break;
        }
    }
    assert_eq!(ports.len(), 3, "one URL line per node, in node order: {ports:?}");
    assert!(converged, "no `loadd mesh converged` line after the node URLs");
    let resp =
        sweb_server::client::get(&format!("http://127.0.0.1:{}/index.html", ports[0])).unwrap();
    assert_eq!(resp.status, 200);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
