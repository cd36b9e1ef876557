//! How a reply leaves the server: in as few segments as it can, and only
//! where that is safe.
//!
//! A buffered write carries `MSG_MORE` when more of the same reply follows
//! at once, and a closing reply ends with `shutdown(SHUT_WR)` before
//! `close`: a small HTTP/1.0 reply leaves as one segment with its FIN. A
//! bare `close` with request bytes still unread would reset the connection
//! and drop the corked reply; a kept connection's last write must never be
//! held back waiting for more.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use sweb_server::{ClusterConfig, LiveCluster};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweb-transmit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-node cluster serving `docs` (name, body), each fetched once so
/// that it is resident in the file cache.
fn serving(tag: &str, docs: &[(&str, &str)]) -> (LiveCluster, std::path::PathBuf) {
    let dir = fresh_dir(tag);
    for (name, body) in docs {
        std::fs::write(dir.join(name), body).unwrap();
    }
    let cfg = ClusterConfig { shards: 1, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    for (name, body) in docs {
        let reply = exchange(&connect(&cluster), &format!("GET /{name} HTTP/1.0\r\n\r\n"));
        assert!(reply.ends_with(body.as_bytes()), "{}", String::from_utf8_lossy(&reply));
    }
    (cluster, dir)
}

fn connect(cluster: &LiveCluster) -> TcpStream {
    let s = TcpStream::connect(cluster.base_url(0).strip_prefix("http://").unwrap()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Write `request`, then read to EOF.
fn exchange(mut s: &TcpStream, request: &str) -> Vec<u8> {
    s.write_all(request.as_bytes()).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    out
}

/// Read one reply of a kept connection — its head, then the body its
/// `Content-Length` announces — from `carry` and then the socket. Bytes
/// past it (a pipelined reply) stay in `carry`.
fn read_reply(mut s: &TcpStream, carry: &mut Vec<u8>) -> String {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(end) = reply_end(carry) {
            let reply: Vec<u8> = carry.drain(..end).collect();
            return String::from_utf8_lossy(&reply).into_owned();
        }
        match s.read(&mut buf) {
            Ok(0) => panic!("connection closed mid-reply: {:?}", String::from_utf8_lossy(carry)),
            Ok(n) => carry.extend_from_slice(&buf[..n]),
            Err(e) => panic!("reading a kept connection's reply: {e}"),
        }
    }
}

/// Where the first complete reply in `buf` ends, if it is all there.
fn reply_end(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let length = head
        .split("\r\n")
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse::<usize>().ok())
        .expect("a reply announces its length");
    (buf.len() >= head_end + length).then_some(head_end + length)
}

/// Segments `s` has received, SYN-ACK included (`tcpi_segs_in` of
/// `TCP_INFO`).
fn segments_in(s: &TcpStream) -> u32 {
    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_INFO: i32 = 11;
    /// Offset of `tcpi_segs_in` in `struct tcp_info` (Linux 4.2+).
    const SEGS_IN: usize = 140;
    let mut info = [0u8; 256];
    let mut len = info.len() as u32;
    // SAFETY: the kernel writes at most `len` bytes into `info` and the
    // length it wrote into `len`, both live for the call.
    let rc = unsafe { getsockopt(s.as_raw_fd(), IPPROTO_TCP, TCP_INFO, info.as_mut_ptr(), &mut len) };
    assert_eq!(rc, 0, "getsockopt(TCP_INFO): {}", std::io::Error::last_os_error());
    assert!(len as usize >= SEGS_IN + 4, "tcp_info too short for tcpi_segs_in: {len}");
    u32::from_ne_bytes(info[SEGS_IN..SEGS_IN + 4].try_into().unwrap())
}

#[test]
fn a_client_that_sends_past_its_request_still_gets_the_whole_reply() {
    let body = "resident document ".repeat(40);
    let (cluster, dir) = serving("past", &[("doc.txt", &body)]);
    // The request and 10,000 bytes nobody asked for, in one write: the
    // server answers the request and closes with the rest unread.
    let mut request = b"GET /doc.txt HTTP/1.0\r\n\r\n".to_vec();
    request.extend_from_slice(&[b'z'; 10_000]);
    for client in 0..20 {
        let mut s = connect(&cluster);
        s.write_all(&request).unwrap();
        let mut reply = Vec::new();
        // A reset may end the stream once the reply is in: what counts is
        // that the whole reply arrived before it.
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&buf[..n]),
            }
        }
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "client {client}: {text:?}");
        assert!(text.ends_with(&body), "client {client} got a partial reply: {text:?}");
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_small_closing_reply_leaves_in_one_segment_with_its_fin() {
    let (cluster, dir) = serving("segs", &[("small.txt", "a small document")]);
    let s = connect(&cluster);
    let reply = exchange(&s, "GET /small.txt HTTP/1.0\r\n\r\n");
    assert!(reply.ends_with(b"a small document"), "{}", String::from_utf8_lossy(&reply));
    // SYN-ACK, the ACK of the request, then the reply and its FIN in one
    // segment. A FIN sent on its own would make four.
    let segs = segments_in(&s);
    assert!(segs <= 3, "{segs} segments reached the client for one small reply");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kept_connection_is_answered_before_the_client_sends_again() {
    let (cluster, dir) = serving("kept", &[("kept.txt", "kept alive")]);
    // A reply held back for more that never comes would stall until the
    // client gave up. Three tries, so that one slow scheduling of a busy
    // test machine cannot fail it; a corked reply fails all three.
    let fastest = (0..3)
        .map(|_| {
            let s = connect(&cluster);
            let started = Instant::now();
            (&s).write_all(b"GET /kept.txt HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
            let reply = read_reply(&s, &mut Vec::new());
            let took = started.elapsed();
            assert!(reply.contains("Connection: Keep-Alive\r\n"), "{reply}");
            assert!(reply.ends_with("kept alive"), "{reply}");
            took
        })
        .min()
        .unwrap();
    assert!(fastest < Duration::from_millis(50), "a kept reply took {fastest:?}");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_on_a_kept_connection_are_answered_in_order() {
    let (cluster, dir) = serving("pipe", &[("first.txt", "first"), ("second.txt", "second")]);
    let s = connect(&cluster);
    let keep = "Connection: Keep-Alive\r\n";
    let pair = format!("GET /first.txt HTTP/1.0\r\n{keep}\r\nGET /second.txt HTTP/1.0\r\n{keep}\r\n");
    (&s).write_all(pair.as_bytes()).unwrap();
    let mut carry = Vec::new();
    let first = read_reply(&s, &mut carry);
    assert!(first.starts_with("HTTP/1.0 200 OK\r\n") && first.ends_with("\r\n\r\nfirst"), "{first}");
    let second = read_reply(&s, &mut carry);
    assert!(
        second.starts_with("HTTP/1.0 200 OK\r\n") && second.ends_with("\r\n\r\nsecond"),
        "{second}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
