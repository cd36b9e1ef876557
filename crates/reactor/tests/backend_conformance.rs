//! Poller conformance suite: the contract the reactor loop relies on,
//! asserted against the epoll [`Poller`] over real sockets.
//!
//! Contract under test (see `sys.rs` module docs):
//! * `register`/`modify`/`deregister` change which events arrive;
//! * delivery is level-triggered: un-drained readiness is re-delivered;
//! * `wait(_, t)` blocks at most ~`t` ms for `t > 0`, never blocks for
//!   `t == 0`, and spurious empty returns are allowed — so every
//!   positive assertion loops until a deadline rather than trusting one
//!   wake-up.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use sweb_reactor::sys::{Event, Interest, Poller};

/// Wait until `pred` matches an event or the deadline passes; panics on
/// timeout. Tolerates spurious wake-ups and empty returns.
fn wait_for(poller: &mut Poller, events: &mut Vec<Event>, what: &str, pred: impl Fn(&Event) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        poller.wait(events, 50).unwrap();
        if events.iter().any(&pred) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
    }
}

fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();
    (client, server)
}

#[test]
fn register_delivers_readability() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (mut client, server) = pair(&listener);
    poller.register(server.as_raw_fd(), 3, Interest::READ).unwrap();
    client.write_all(b"x").unwrap();
    let mut events = Vec::new();
    wait_for(&mut poller, &mut events, "readable", |e| e.token == 3 && e.readable);
}

#[test]
fn rearm_redelivers_undrained_readiness() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (mut client, mut server) = pair(&listener);
    poller.register(server.as_raw_fd(), 3, Interest::READ).unwrap();
    client.write_all(b"abc").unwrap();
    let mut events = Vec::new();
    // The level-triggered guarantee the reactor actually relies on:
    // readiness that exists when interest is (re-)armed is delivered,
    // even if the bytes arrived long before. Deliberately do NOT
    // drain the socket between rounds; each interest transition must
    // re-surface it.
    for round in 0..3 {
        wait_for(&mut poller, &mut events, "repeat readable", |e| {
            e.token == 3 && e.readable
        });
        if round < 2 {
            poller.modify(server.as_raw_fd(), 3, Interest::NONE).unwrap();
            poller.modify(server.as_raw_fd(), 3, Interest::READ).unwrap();
        }
    }
    // After draining, readability stops (modulo one benign spurious
    // wake-up per the contract — so allow the first wait to lie).
    let mut buf = [0u8; 16];
    let n = server.read(&mut buf).unwrap();
    assert_eq!(n, 3);
    poller.wait(&mut events, 20).unwrap();
    poller.wait(&mut events, 20).unwrap();
    assert!(
        !events.iter().any(|e| e.token == 3 && e.readable),
        "drained socket still readable: {events:?}"
    );
}

#[test]
fn modify_switches_interest() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (mut client, server) = pair(&listener);
    poller.register(server.as_raw_fd(), 5, Interest::READ).unwrap();
    client.write_all(b"x").unwrap();
    let mut events = Vec::new();
    wait_for(&mut poller, &mut events, "readable", |e| e.token == 5 && e.readable);
    // WRITE interest on an idle socket fires immediately; the
    // un-drained READ must stop arriving once interest moves away.
    poller.modify(server.as_raw_fd(), 5, Interest::WRITE).unwrap();
    wait_for(&mut poller, &mut events, "writable", |e| e.token == 5 && e.writable);
    // NONE: nothing (but errors) may arrive.
    poller.modify(server.as_raw_fd(), 5, Interest::NONE).unwrap();
    poller.wait(&mut events, 20).unwrap();
    poller.wait(&mut events, 20).unwrap();
    assert!(
        !events.iter().any(|e| e.token == 5 && (e.readable || e.writable)),
        "NONE interest still delivers I/O events: {events:?}"
    );
}

#[test]
fn deregister_stops_delivery() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (mut client, server) = pair(&listener);
    poller.register(server.as_raw_fd(), 9, Interest::READ).unwrap();
    poller.deregister(server.as_raw_fd()).unwrap();
    client.write_all(b"x").unwrap();
    let mut events = Vec::new();
    // A few generous waits: nothing for token 9 may ever surface.
    for _ in 0..3 {
        poller.wait(&mut events, 20).unwrap();
        assert!(
            !events.iter().any(|e| e.token == 9),
            "deregistered fd still delivers: {events:?}"
        );
    }
}

#[test]
fn zero_timeout_never_blocks() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (mut client, server) = pair(&listener);
    poller.register(server.as_raw_fd(), 4, Interest::READ).unwrap();
    let mut events = Vec::new();
    // Nothing ready: must return promptly and empty.
    let t0 = Instant::now();
    for _ in 0..10 {
        let n = poller.wait(&mut events, 0).unwrap();
        assert_eq!(n, 0, "phantom events: {events:?}");
    }
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "timeout_ms = 0 blocked"
    );
    // Something ready: a non-blocking poll loop must surface it (the
    // kernel may need a moment to post the readiness, hence the loop
    // — but every iteration stays non-blocking).
    client.write_all(b"x").unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let before = Instant::now();
        poller.wait(&mut events, 0).unwrap();
        assert!(
            before.elapsed() < Duration::from_millis(250),
            "timeout_ms = 0 blocked"
        );
        if events.iter().any(|e| e.token == 4 && e.readable) {
            break;
        }
        assert!(Instant::now() < deadline, "readiness never arrived via zero-timeout");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn positive_timeout_is_bounded() {
    let mut poller = Poller::new().unwrap();
    // Nothing registered at all: wait(50) must come back near 50 ms,
    // not hang.
    let mut events = Vec::new();
    let t0 = Instant::now();
    poller.wait(&mut events, 50).unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "bounded wait overslept"
    );
    assert!(events.is_empty());
}

#[test]
fn peer_close_surfaces_as_event() {
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let (client, server) = pair(&listener);
    poller.register(server.as_raw_fd(), 6, Interest::READ).unwrap();
    drop(client);
    let mut events = Vec::new();
    // HUP may arrive as error or as readable-with-EOF; both lead the
    // reactor to read 0 and close. It must arrive as *something*.
    wait_for(&mut poller, &mut events, "hangup", |e| {
        e.token == 6 && (e.error || e.readable)
    });
}
