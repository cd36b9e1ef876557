//! Every reply kind a node sends, pinned byte for byte: the head (and the
//! body, where it is small and fixed) of a resident hit, a page-cache
//! miss, a streamed document, a 304, a 302, a 403, a 404, a 405, a 501, a
//! dynamic-cache miss and hit, an echo POST, a HEAD and the 503 shed, each
//! over a kept connection and over one that closes. Trace ids and the
//! peer's port vary from run to run and are masked; everything else must
//! match `golden/wire_replies.txt` exactly.
//!
//! On a mismatch the test writes what it saw next to the system temp dir
//! (`sweb-wire-replies.actual`) and names that file in the failure.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use sweb_cluster::NodeId;
use sweb_core::Policy;
use sweb_server::{home_of, ClusterConfig, LiveCluster};

const GOLDEN: &str = include_str!("golden/wire_replies.txt");

/// Bodies longer than this are summarized by their length.
const SHOWN_BODY: usize = 512;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `contents` to `dir/name` with a fixed mtime, so `Last-Modified`
/// is the same in every run.
fn fixed_file(dir: &Path, name: &str, contents: &[u8]) {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    let mtime = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    std::fs::File::options().write(true).open(&path).unwrap().set_modified(mtime).unwrap();
}

/// One reply as read off the socket: its head and its body.
struct Reply {
    head: String,
    body: Vec<u8>,
}

/// Read one reply from `s`: the head through its blank line, then the
/// `Content-Length` bytes of body, or none for a reply to HEAD.
fn read_reply(s: &mut TcpStream, head_only: bool) -> Reply {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = s.read(&mut byte).unwrap();
        assert_eq!(n, 1, "connection closed inside a head: {}", String::from_utf8_lossy(&raw));
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).unwrap();
    let len = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .map_or(0, |v| v.trim().parse::<usize>().unwrap());
    let mut body = vec![0u8; if head_only { 0 } else { len }];
    s.read_exact(&mut body).unwrap();
    Reply { head, body }
}

/// Replace what varies between runs: trace ids, in the header and in a
/// `Location`, and the port of a `Location`.
fn mask(head: &str) -> String {
    let mut out = String::new();
    for line in head.split_inclusive("\r\n") {
        if line.starts_with("X-SWEB-Trace: ") {
            out.push_str("X-SWEB-Trace: <trace>\r\n");
        } else if let Some(url) = line.strip_prefix("Location: http://127.0.0.1:") {
            let rest = url.trim_start_matches(|c: char| c.is_ascii_digit());
            let rest = match rest.find("sweb-trace=") {
                Some(at) => {
                    let end = rest[at..].find('&').map_or(rest.len() - 2, |e| at + e);
                    format!("{}sweb-trace=<trace>{}", &rest[..at], &rest[end..])
                }
                None => rest.to_string(),
            };
            out.push_str(&format!("Location: http://127.0.0.1:<port>{rest}"));
        } else {
            out.push_str(line);
        }
    }
    out
}

/// One transcript entry: the request's name, then its masked head and its
/// body (or the body's length).
fn entry(out: &mut String, name: &str, reply: &Reply) {
    out.push_str(&format!("=== {name}\n"));
    out.push_str(&mask(&reply.head).replace("\r\n", "\\r\\n\n"));
    if reply.body.len() > SHOWN_BODY {
        out.push_str(&format!("<{} body bytes>\n", reply.body.len()));
    } else {
        out.push_str(&format!("{}\n", String::from_utf8_lossy(&reply.body).escape_debug()));
    }
}

/// A request: its name, the request line, extra header lines, the body,
/// and whether the reply carries no body whatever its `Content-Length`.
struct Req {
    name: &'static str,
    line: String,
    headers: &'static str,
    body: &'static [u8],
    head_only: bool,
}

fn get(name: &'static str, target: &str) -> Req {
    Req { name, line: format!("GET {target} HTTP/1.0"), headers: "", body: b"", head_only: false }
}

fn wire(req: &Req, keep: bool) -> Vec<u8> {
    let mut out = format!("{}\r\n{}", req.line, req.headers).into_bytes();
    if keep {
        out.extend_from_slice(b"Connection: Keep-Alive\r\n");
    }
    if !req.body.is_empty() || req.line.starts_with("POST") {
        out.extend_from_slice(format!("Content-Length: {}\r\n", req.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(req.body);
    out
}

/// The requests of one node's script, in order: the first of each pair of
/// document and dynamic requests fills the cache the second hits.
fn script() -> Vec<Req> {
    vec![
        get("page-cache miss", "/small.html"),
        get("resident hit", "/small.html"),
        Req { name: "HEAD", line: "HEAD /small.html HTTP/1.0".into(), head_only: true, ..get("", "") },
        Req {
            name: "304",
            headers: "If-Modified-Since: Sun, 09 Sep 2001 01:46:40 GMT\r\n",
            ..get("", "/small.html")
        },
        get("streamed document", "/big.bin"),
        get("403", "/dir"),
        get("404", "/missing.html"),
        Req { name: "405", line: "POST /small.html HTTP/1.0".into(), ..get("", "") },
        Req { name: "501", line: "DELETE /small.html HTTP/1.0".into(), ..get("", "") },
        get("dynamic miss", "/cgi-bin/search?q=maps&cost=1000"),
        get("dynamic hit", "/cgi-bin/search?q=maps&cost=1000"),
        Req {
            name: "echo POST",
            line: "POST /cgi-bin/echo?x=1 HTTP/1.0".into(),
            body: b"posted bytes",
            ..get("", "")
        },
        Req {
            name: "echo POST again",
            line: "POST /cgi-bin/echo?x=1 HTTP/1.0".into(),
            body: b"posted bytes",
            ..get("", "")
        },
    ]
}

/// Run `reqs` against `port`, kept on one connection or one connection
/// each, appending to `out`.
fn run(out: &mut String, port: u16, reqs: &[Req], keep: bool) {
    let connect = || {
        let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    let mut kept = keep.then(connect);
    for req in reqs {
        let name = format!("{} ({})", req.name, if keep { "kept" } else { "closing" });
        match kept.as_mut() {
            Some(s) => {
                s.write_all(&wire(req, true)).unwrap();
                entry(out, &name, &read_reply(s, req.head_only));
            }
            None => {
                let mut s = connect();
                s.write_all(&wire(req, false)).unwrap();
                let reply = read_reply(&mut s, req.head_only);
                let mut rest = Vec::new();
                s.read_to_end(&mut rest).unwrap();
                assert!(rest.is_empty(), "{name}: bytes after the reply");
                entry(out, &name, &reply);
            }
        }
    }
}

fn port_of(cluster: &LiveCluster, i: usize) -> u16 {
    cluster.base_url(i).rsplit(':').next().unwrap().trim_end_matches('/').parse().unwrap()
}

#[test]
fn every_reply_kind_keeps_its_bytes() {
    let mut out = String::new();

    // One node: every kind but the 302, each side of a fresh cache.
    for keep in [true, false] {
        let dir = fresh_dir(if keep { "kept" } else { "closing" });
        fixed_file(&dir, "small.html", b"<HTML><BODY>a small page</BODY></HTML>\n");
        fixed_file(&dir, "big.bin", &vec![b'b'; 100_000]);
        std::fs::create_dir_all(dir.join("dir")).unwrap();
        let cfg = ClusterConfig { shards: 1, ..ClusterConfig::default() };
        let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
        run(&mut out, port_of(&cluster, 0), &script(), keep);
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Two nodes under file locality: node 0 sends a document homed on
    // node 1 there.
    let dir = fresh_dir("redirect");
    let away = (0..).map(|i| format!("doc{i}.html")).find(|n| home_of(&format!("/{n}"), 2) == NodeId(1));
    let away = away.unwrap();
    fixed_file(&dir, &away, b"homed on node 1\n");
    let cfg = ClusterConfig { shards: 1, policy: Policy::FileLocality, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(2, dir.clone(), cfg).unwrap();
    assert!(cluster.await_loadd_mesh(Duration::from_secs(10)), "loadd mesh never converged");
    let target = format!("/{away}?zoom=2");
    for keep in [true, false] {
        let redirect = Req { name: "302", ..get("", &target) };
        run(&mut out, port_of(&cluster, 0), &[redirect], keep);
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // The 503 at the admission cap: the one seat is taken by a held
    // connection, so the next is refused and closed.
    let dir = fresh_dir("shed");
    let cfg = ClusterConfig { shards: 1, max_conns: 1, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    let port = port_of(&cluster, 0);
    let held = TcpStream::connect(("127.0.0.1", port)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.node(0).reactor.counters.open.get() < 1 {
        assert!(std::time::Instant::now() < deadline, "the held connection was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let at = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("a whole head") + 4;
    let shed = Reply { head: String::from_utf8(raw[..at].to_vec()).unwrap(), body: raw[at..].to_vec() };
    entry(&mut out, "503 shed (closing)", &shed);
    drop(held);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if out != GOLDEN {
        let actual = std::env::temp_dir().join("sweb-wire-replies.actual");
        std::fs::write(&actual, &out).unwrap();
        let first = out.lines().zip(GOLDEN.lines()).position(|(a, b)| a != b);
        panic!(
            "the wire changed (first differing line {first:?}); what this run saw is in {}",
            actual.display()
        );
    }
}
