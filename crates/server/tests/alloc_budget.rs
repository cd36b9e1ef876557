//! Heap allocations per request, counted: a counting global allocator
//! around the system one, a one-shard node in this process, and a client
//! that allocates nothing while it is measured. Each kind of request is
//! warmed up, then sent 1,000 times; the allocations the idle node makes
//! over the same time (loadd, the timer) are subtracted.
//!
//! The budgets: at most 3 allocations for a resident-document hit, at
//! most 4 for a `search` dynamic-cache hit, both on a kept connection.
//! The other kinds are printed (`--nocapture`), not asserted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sweb_server::{ClusterConfig, LiveCluster};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const REQUESTS: usize = 1_000;

/// Read one reply into `buf` without allocating: the head, then its
/// `Content-Length` of body. Returns the status code.
fn read_reply(s: &mut TcpStream, buf: &mut [u8]) -> u16 {
    let mut have = 0;
    let head_end = loop {
        let n = s.read(&mut buf[have..]).unwrap();
        assert!(n > 0, "connection closed mid-reply");
        have += n;
        if let Some(at) = buf[..have].windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
    };
    let head = &buf[..head_end];
    let status = std::str::from_utf8(&head[9..12]).unwrap().parse().unwrap();
    let key = b"Content-Length: ";
    let at = head.windows(key.len()).position(|w| w == key).expect("a length") + key.len();
    let digits = head[at..].iter().take_while(|b| b.is_ascii_digit());
    let len = digits.fold(0usize, |n, d| n * 10 + usize::from(d - b'0'));
    while have < head_end + len {
        let n = s.read(&mut buf[have..]).unwrap();
        assert!(n > 0, "connection closed mid-body");
        have += n;
    }
    assert_eq!(have, head_end + len, "bytes after the reply");
    status
}

/// Allocations per request of `send` over `REQUESTS` requests, less what
/// the idle process allocates in as long.
fn per_request(idle_per_sec: f64, mut send: impl FnMut(usize)) -> f64 {
    for i in 0..50 {
        send(i); // warm up: caches, capacities, the class's measurements
    }
    let (before, t0) = (ALLOCS.load(Ordering::Relaxed), Instant::now());
    for i in 0..REQUESTS {
        send(50 + i);
    }
    let counted = (ALLOCS.load(Ordering::Relaxed) - before) as f64;
    let idle = idle_per_sec * t0.elapsed().as_secs_f64();
    (counted - idle).max(0.0) / REQUESTS as f64
}

#[test]
fn requests_on_the_inline_path_stay_within_their_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("sweb-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("small.html"), vec![b's'; 2048]).unwrap();
    let cfg = ClusterConfig { shards: 1, ..ClusterConfig::default() };
    let cluster = LiveCluster::start(1, dir.clone(), cfg).unwrap();
    let port: u16 = cluster.base_url(0).rsplit(':').next().unwrap().parse().unwrap();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));

    // What the idle node allocates in a second: loadd and the timer.
    std::thread::sleep(Duration::from_millis(300));
    let (before, t0) = (ALLOCS.load(Ordering::Relaxed), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let idle = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / t0.elapsed().as_secs_f64();

    let mut buf = vec![0u8; 1 << 16];
    let mut kept = TcpStream::connect(addr).unwrap();
    kept.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let keep = "Connection: Keep-Alive\r\n";
    // Reconnect before the server's keep-alive cap closes the socket.
    let mut exchange = |wire: &[u8], buf: &mut [u8], sent: &mut usize| {
        if *sent % 60 == 59 {
            kept = TcpStream::connect(addr).unwrap();
            kept.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        }
        *sent += 1;
        kept.write_all(wire).unwrap();
        read_reply(&mut kept, buf)
    };
    let mut sent = 0;

    let hit = format!("GET /small.html HTTP/1.0\r\n{keep}\r\n").into_bytes();
    let resident = per_request(idle, |_| {
        assert_eq!(exchange(&hit, &mut buf, &mut sent), 200);
    });
    let search = format!("GET /cgi-bin/search?q=maps&cost=1000 HTTP/1.0\r\n{keep}\r\n");
    let search = search.into_bytes();
    let search_hit = per_request(idle, |_| {
        assert_eq!(exchange(&search, &mut buf, &mut sent), 200);
    });
    let misses: Vec<Vec<u8>> = (0..REQUESTS + 50)
        .map(|i| format!("GET /cgi-bin/search?q=k{i}&cost=1000 HTTP/1.0\r\n{keep}\r\n").into())
        .collect();
    let search_miss = per_request(idle, |i| {
        assert_eq!(exchange(&misses[i], &mut buf, &mut sent), 200);
    });
    let posted = vec![b'p'; 2048];
    let mut post = format!(
        "POST /cgi-bin/echo HTTP/1.0\r\n{keep}Content-Length: {}\r\n\r\n",
        posted.len()
    )
    .into_bytes();
    post.extend_from_slice(&posted);
    let echo = per_request(idle, |_| {
        assert_eq!(exchange(&post, &mut buf, &mut sent), 200);
    });
    let closing = b"GET /small.html HTTP/1.0\r\n\r\n";
    let new_connection = per_request(idle, |_| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(closing).unwrap();
        assert_eq!(read_reply(&mut s, &mut buf), 200);
    });

    println!("allocations per request, idle rate {idle:.0}/s subtracted:");
    for (kind, n) in [
        ("resident-document hit, kept", resident),
        ("search dynamic-cache hit, kept", search_hit),
        ("search miss, kept", search_miss),
        ("2 KiB echo POST, kept", echo),
        ("resident-document hit, new connection", new_connection),
    ] {
        println!("  {kind}: {n:.2}");
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resident <= 3.0, "a resident hit made {resident:.2} allocations");
    assert!(search_hit <= 4.0, "a search cache hit made {search_hit:.2} allocations");
}
