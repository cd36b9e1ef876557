//! Readiness polling, transmit, page-cache residency, listener and
//! scheduling syscalls over raw Linux interfaces.
//!
//! [`Poller`] is one epoll instance: O(1) readiness delivery, used
//! level-triggered. The loop re-arms interest explicitly when a
//! connection changes state, which keeps the state machine simple (no
//! starvation bookkeeping for edge-triggered wake-ups).
//!
//! The poller counts its kernel entries (`epoll_wait`, `epoll_ctl`),
//! drained per tick via [`Poller::take_syscalls`], so telemetry shows
//! what the loop pays per request instead of asserting it.
//!
//! The FFI declarations are hand-written because this crate is
//! dependency-light by design (no `libc`): the reactor must build in the
//! same offline environment as the rest of the workspace.

use std::io;
use std::net::{SocketAddr, SocketAddrV4, SocketAddrV6, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

/// Which readiness events a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No events — parked (e.g. while a worker owns the request).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Readable (includes peer-hangup, so reads observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error condition on the fd (the owner should close it).
    pub error: bool,
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

// On x86-64 the kernel ABI packs epoll_event (no padding between the
// u32 mask and the u64 payload); other architectures use natural
// alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// `EPOLLERR`/`EPOLLHUP` are always reported. `EPOLLRDHUP` rides with
/// read interest only: a half-closed peer is level-triggered readable,
/// which a socket parked or draining a write must not hear on every wait.
fn mask_of(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.readable {
        m |= EPOLLIN | EPOLLRDHUP;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// An epoll instance, counting the syscalls it makes.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
    syscalls: u64,
}

impl Poller {
    /// Create the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: takes no pointers; a negative return is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 256], syscalls: 0 })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.syscalls += 1;
        let mut ev = EpollEvent { events: mask_of(interest), data: token as u64 };
        let arg = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
        // SAFETY: `arg` is null only for DEL, which ignores it, and
        // otherwise points at `ev`, live for the call; the kernel only
        // reads it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, arg) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    /// Drain the count of syscalls made since the last call.
    pub fn take_syscalls(&mut self) -> u64 {
        std::mem::take(&mut self.syscalls)
    }

    /// Wait for events, appending them to `events` (which is cleared
    /// first). Returns the number of events delivered.
    ///
    /// `timeout_ms > 0` blocks up to that many milliseconds, `0` returns
    /// at once with whatever is ready, and `< 0` blocks until an event
    /// arrives. An `EINTR` is retried inside; an empty return is a
    /// timeout tick, not end-of-stream.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        let n = loop {
            self.syscalls += 1;
            // SAFETY: the kernel writes at most `buf.len()` events into
            // `buf`, which this struct owns and nothing else borrows.
            let rc = unsafe {
                epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, timeout_ms)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let mask = raw.events;
            events.push(Event {
                token: raw.data as usize,
                readable: mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                error: mask & EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1`, is owned by this
        // struct alone, and is closed exactly once, here.
        unsafe { close(self.epfd) };
    }
}

// ------------------------------------------------------------------
// Transmit syscalls: vectored writes and in-kernel file streaming.
// ------------------------------------------------------------------

/// POSIX `struct iovec`.
#[repr(C)]
#[derive(Clone, Copy)]
struct IoVec {
    base: *const u8,
    len: usize,
}

extern "C" {
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
}

/// Transmit up to two slices with a single `writev(2)`: the serialized
/// response head and the shared body, gathered by the kernel without the
/// user-space concatenation `to_bytes` would pay. Returns bytes written
/// (which may straddle the two slices — the caller resumes from the
/// combined offset on the next readiness).
pub fn write_two(fd: RawFd, a: &[u8], b: &[u8]) -> io::Result<usize> {
    let mut iov = [IoVec { base: std::ptr::null(), len: 0 }; 2];
    let mut n = 0;
    for s in [a, b] {
        if !s.is_empty() {
            iov[n] = IoVec { base: s.as_ptr(), len: s.len() };
            n += 1;
        }
    }
    if n == 0 {
        return Ok(0);
    }
    let rc = unsafe { writev(fd, iov.as_ptr(), n as i32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// Stream up to `count` bytes of `in_fd` (a regular file) to `out_fd` (a
/// socket) with `sendfile(2)`, advancing `offset`. Returns bytes moved;
/// `Ok(0)` before the caller's expected end means the file was truncated
/// underneath us.
pub fn send_file(out_fd: RawFd, in_fd: RawFd, offset: &mut u64, count: usize) -> io::Result<usize> {
    extern "C" {
        fn sendfile(out_fd: i32, in_fd: i32, offset: *mut i64, count: usize) -> isize;
    }
    let mut off = *offset as i64;
    let rc = unsafe { sendfile(out_fd, in_fd, &mut off, count) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    *offset = off as u64;
    Ok(rc as usize)
}

// ------------------------------------------------------------------
// Page-cache residency.
// ------------------------------------------------------------------

/// `cachestat(2)` (Linux 6.5) has this number on every architecture.
const SYS_CACHESTAT: isize = 451;
const SC_PAGESIZE: i32 = 30;

/// Set once the kernel lacks `cachestat(2)` (`ENOSYS`) or a seccomp
/// filter refuses it (`EPERM`): later probes fail without a syscall.
static NO_CACHESTAT: AtomicBool = AtomicBool::new(false);

/// Whether every page of the first `len` bytes of `fd` is in the OS page
/// cache, so that reading or `sendfile`ing them cannot wait on the disk.
/// One `cachestat(2)`; `len = 0` is resident without one. Without
/// `cachestat` (missing or forbidden) it fails `Unsupported`.
pub fn page_cached(fd: RawFd, len: u64) -> io::Result<bool> {
    extern "C" {
        fn sysconf(name: i32) -> isize;
        fn syscall(num: isize, ...) -> isize;
    }
    if len == 0 {
        return Ok(true);
    }
    if NO_CACHESTAT.load(Ordering::Relaxed) {
        return Err(io::ErrorKind::Unsupported.into());
    }
    // `struct cachestat_range { off, len }`, and `struct cachestat`: five
    // page counts, `nr_cache` first.
    let range = [0u64, len];
    let mut stat = [0u64; 5];
    let (range_ptr, stat_ptr) = (range.as_ptr(), stat.as_mut_ptr());
    // SAFETY: `sysconf` takes no pointers. The kernel reads `range` and
    // writes `stat`, both live across the call and laid out as its ABI.
    let (page, rc) =
        unsafe { (sysconf(SC_PAGESIZE), syscall(SYS_CACHESTAT, fd, range_ptr, stat_ptr, 0u32)) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if matches!(err.kind(), io::ErrorKind::Unsupported | io::ErrorKind::PermissionDenied) {
            NO_CACHESTAT.store(true, Ordering::Relaxed);
            return Err(io::ErrorKind::Unsupported.into());
        }
        return Err(err);
    }
    // Were `sysconf` to fail, the range would read as cold: the safe side.
    Ok(page > 0 && stat[0] >= len.div_ceil(page as u64))
}

// ------------------------------------------------------------------
// Listeners: binding, accepting, and steering a reuseport group.
// ------------------------------------------------------------------

const SOL_SOCKET: i32 = 1;
const IPPROTO_TCP: i32 = 6;
const SO_REUSEADDR: i32 = 2;
const SO_REUSEPORT: i32 = 15;
const SO_INCOMING_CPU: i32 = 49;
const TCP_NODELAY: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;

/// Set one `int`-valued socket option.
fn set_int_opt(fd: RawFd, level: i32, name: i32, value: i32) -> io::Result<()> {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    // SAFETY: the kernel reads four bytes from `value`, live for the call.
    if unsafe { setsockopt(fd, level, name, &value, 4) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Bind a listener with `SO_REUSEADDR`, so a revived node can reclaim
/// its old address while connections it accepted before dying still sit
/// in `TIME_WAIT` (a plain `TcpListener::bind` fails with `EADDRINUSE`
/// for the staleness timeout's worth of seconds).
pub fn bind_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
    bind_with(addr, false)
}

/// Bind a listener with `SO_REUSEADDR` **and** `SO_REUSEPORT`, so several
/// listeners — one per reactor shard — share one port and the kernel
/// distributes incoming connections across them (hashed on the 4-tuple,
/// unless [`steer`] gives a listener the connections of one CPU).
/// Every listener on the port must set the flag *before* bind, or the
/// kernel refuses the group: sharded callers bind their first listener
/// through here too, never through a plain `TcpListener::bind`.
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    bind_with(addr, true)
}

/// The kernel's `struct sockaddr_in` (IPv4).
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

fn bind_with(addr: SocketAddr, reuseport: bool) -> io::Result<TcpListener> {
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    const SOCK_STREAM: i32 = 1;

    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(io::ErrorKind::Unsupported, "IPv4 addresses only"));
    };
    // SAFETY: takes no pointers. A non-negative return is a socket just
    // opened and owned by nothing else; the `OwnedFd` closes it on every
    // early return below.
    let fd = unsafe {
        match socket(AF_INET as i32, SOCK_STREAM | SOCK_CLOEXEC, 0) {
            fd if fd < 0 => return Err(io::Error::last_os_error()),
            fd => OwnedFd::from_raw_fd(fd),
        }
    };
    let raw = fd.as_raw_fd();
    set_int_opt(raw, SOL_SOCKET, SO_REUSEADDR, 1)?;
    if reuseport {
        set_int_opt(raw, SOL_SOCKET, SO_REUSEPORT, 1)?;
    }
    let sa = SockAddrIn {
        family: AF_INET,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    // SAFETY: the kernel reads `size_of::<SockAddrIn>()` bytes from `sa`,
    // laid out as its `struct sockaddr_in`; `listen` takes no pointers.
    if unsafe {
        bind(raw, &sa, std::mem::size_of::<SockAddrIn>() as u32) < 0 || listen(raw, 128) < 0
    } {
        return Err(io::Error::last_os_error());
    }
    Ok(TcpListener::from(fd))
}

/// Set `TCP_NODELAY` on a listener. Every socket it accepts inherits the
/// option (the kernel clones the listener's TCP state into the child), so
/// one call per listener replaces one per connection.
pub fn set_listener_nodelay(listener: &TcpListener) -> io::Result<()> {
    set_int_opt(listener.as_raw_fd(), IPPROTO_TCP, TCP_NODELAY, 1)
}

/// The kernel's `struct sockaddr_storage`: room for any address family.
#[repr(C, align(8))]
struct SockAddrStorage([u8; 128]);

/// Accept one connection with `accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)`:
/// the socket arrives non-blocking and close-on-exec in the one syscall,
/// where `TcpListener::accept` plus `set_nonblocking` take two. A
/// listener with nothing pending fails `WouldBlock` if it is itself
/// non-blocking.
pub fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    extern "C" {
        fn accept4(fd: i32, addr: *mut SockAddrStorage, len: *mut u32, flags: i32) -> i32;
    }
    let mut sa = SockAddrStorage([0; 128]);
    let mut len = std::mem::size_of::<SockAddrStorage>() as u32;
    let flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    // SAFETY: the kernel writes at most `len` bytes into `sa` and the
    // address length into `len`, both live for the call. A non-negative
    // return is the connection just accepted, owned by nothing else.
    let stream = unsafe {
        match accept4(listener.as_raw_fd(), &mut sa, &mut len, flags) {
            fd if fd < 0 => return Err(io::Error::last_os_error()),
            fd => TcpStream::from_raw_fd(fd),
        }
    };
    Ok((stream, peer_addr(&sa.0)))
}

/// Decode the `sockaddr_in` or `sockaddr_in6` `accept4` wrote (ports and
/// addresses in network order, the family in the host's).
fn peer_addr(sa: &[u8; 128]) -> SocketAddr {
    let bytes = |at: usize| -> [u8; 4] { std::array::from_fn(|i| sa[at + i]) };
    let port = u16::from_be_bytes([sa[2], sa[3]]);
    if u16::from_ne_bytes([sa[0], sa[1]]) == AF_INET6 {
        let ip: [u8; 16] = std::array::from_fn(|i| sa[8 + i]);
        let (flowinfo, scope) = (u32::from_ne_bytes(bytes(4)), u32::from_ne_bytes(bytes(24)));
        return SocketAddr::V6(SocketAddrV6::new(ip.into(), port, flowinfo, scope));
    }
    SocketAddr::V4(SocketAddrV4::new(bytes(4).into(), port))
}

// ------------------------------------------------------------------
// Where a shard's connections and its loop run.
// ------------------------------------------------------------------

/// The CPUs the calling thread may run on (its `sched_getaffinity`
/// mask), in ascending order.
pub fn cpus() -> io::Result<Vec<usize>> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1,024 CPUs.
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which is
    // that long and live for the call.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..mask.len() * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Steer a member of a reuseport group with `SO_INCOMING_CPU`: the kernel
/// gives it the connections whose SYN was processed on `cpu`, ahead of
/// the group's 4-tuple hash. A connection from a CPU no member claims is
/// hashed as before.
pub fn steer(listener: &TcpListener, cpu: usize) -> io::Result<()> {
    let cpu = i32::try_from(cpu).map_err(|_| io::ErrorKind::InvalidInput)?;
    set_int_opt(listener.as_raw_fd(), SOL_SOCKET, SO_INCOMING_CPU, cpu)
}

/// Move the calling thread into the `SCHED_BATCH` class (`batch`) or back
/// into `SCHED_OTHER`, at its nice level. The fair scheduler never lets a
/// waking batch-class thread preempt the one running: it runs when that
/// one blocks or its slice ends. Needs no privilege.
pub fn set_batch(batch: bool) -> io::Result<()> {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_OTHER: i32 = 0;
    const SCHED_BATCH: i32 = 3;
    let policy = if batch { SCHED_BATCH } else { SCHED_OTHER };
    // `struct sched_param` is one `int`, which must be 0 for both classes.
    let priority = 0i32;
    // SAFETY: the kernel reads one `int` from `priority`, live for the
    // call; pid 0 is the calling thread.
    if unsafe { sched_setscheduler(0, policy, &priority) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn poller_delivers_events() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: times out empty.
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());

        // A connection makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(conn.as_raw_fd(), 9, Interest::READ).unwrap();
        client.write_all(b"hi").unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "conn readability never arrived");
        }

        // Write interest on an idle socket fires immediately.
        poller.modify(conn.as_raw_fd(), 9, Interest::WRITE).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        poller.deregister(conn.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());
        // Four registration changes and the waits, each one syscall.
        assert!(poller.take_syscalls() >= 9);
        assert_eq!(poller.take_syscalls(), 0, "take drains the count");
    }

    /// A connected blocking stream pair over loopback.
    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn read_exact_n(s: &mut TcpStream, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        s.read_exact(&mut buf).unwrap();
        buf
    }

    #[test]
    fn write_two_gathers_both_slices() {
        let (tx, mut rx) = stream_pair();
        let head = b"HTTP/1.0 200 OK\r\n\r\n".to_vec();
        let body = vec![b'x'; 4096];
        let mut sent = 0;
        let total = head.len() + body.len();
        while sent < total {
            let (a, b): (&[u8], &[u8]) = if sent < head.len() {
                (&head[sent..], &body)
            } else {
                (&[], &body[sent - head.len()..])
            };
            sent += write_two(tx.as_raw_fd(), a, b).unwrap();
        }
        drop(tx);
        let got = read_exact_n(&mut rx, total);
        assert_eq!(&got[..head.len()], &head[..]);
        assert_eq!(&got[head.len()..], &body[..]);
    }

    #[test]
    fn write_two_skips_empty_slices() {
        let (tx, mut rx) = stream_pair();
        assert_eq!(write_two(tx.as_raw_fd(), b"", b"").unwrap(), 0);
        assert_eq!(write_two(tx.as_raw_fd(), b"", b"tail").unwrap(), 4);
        assert_eq!(write_two(tx.as_raw_fd(), b"head", b"").unwrap(), 4);
        drop(tx);
        assert_eq!(read_exact_n(&mut rx, 8), b"tailhead");
    }

    #[test]
    fn reuseport_listeners_share_one_port() {
        // Two listeners bound to one port form a kernel accept group; a
        // plain second bind on the same port must still fail.
        let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = a.local_addr().unwrap();
        let b = bind_reuseport(addr).expect("second reuseport bind joins the group");
        assert_eq!(b.local_addr().unwrap(), addr);
        assert!(
            TcpListener::bind(addr).is_err(),
            "a non-reuseport bind must not join the group"
        );
        // Connections land on *some* member of the group and are served.
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        for _ in 0..8 {
            let _client = TcpStream::connect(addr).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                if a.accept().is_ok() || b.accept().is_ok() {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "accept never arrived");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// The `flags:` line of `/proc/self/fdinfo/<fd>`: the open file's
    /// status flags, with `O_CLOEXEC` standing for the fd's `FD_CLOEXEC`.
    fn fd_flags(fd: RawFd) -> u32 {
        let info = std::fs::read_to_string(format!("/proc/self/fdinfo/{fd}")).unwrap();
        let line = info.lines().find_map(|l| l.strip_prefix("flags:")).unwrap();
        u32::from_str_radix(line.trim(), 8).unwrap()
    }

    #[test]
    fn accepted_sockets_arrive_nonblocking_cloexec_and_nodelay() {
        // What the loop relies on to skip one `ioctl(FIONBIO)` and one
        // `setsockopt(TCP_NODELAY)` per connection: `accept4`'s flags,
        // and a listener's `TCP_NODELAY` copied into the sockets it
        // accepts.
        const O_NONBLOCK: u32 = 0o4000;
        const O_CLOEXEC: u32 = 0o2000000;
        let plain = bind_reuseaddr("127.0.0.1:0".parse().unwrap()).unwrap();
        let _client = TcpStream::connect(plain.local_addr().unwrap()).unwrap();
        let (conn, _) = accept(&plain).unwrap();
        assert!(!conn.nodelay().unwrap(), "TCP_NODELAY is off unless the listener has it");
        let flags = fd_flags(conn.as_raw_fd());
        assert_eq!(flags & O_NONBLOCK, O_NONBLOCK, "flags {flags:o}");
        assert_eq!(flags & O_CLOEXEC, O_CLOEXEC, "flags {flags:o}");
        assert_eq!(fd_flags(plain.as_raw_fd()) & O_CLOEXEC, O_CLOEXEC, "the listener too");
        let mut buf = [0u8; 8];
        assert_eq!((&conn).read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);

        let listener = bind_reuseaddr("127.0.0.1:0".parse().unwrap()).unwrap();
        set_listener_nodelay(&listener).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, peer) = accept(&listener).unwrap();
        assert!(conn.nodelay().unwrap(), "the accepted socket inherits TCP_NODELAY");
        assert_eq!(peer, client.local_addr().unwrap());

        // Nothing pending on a non-blocking listener: `WouldBlock`.
        listener.set_nonblocking(true).unwrap();
        assert_eq!(accept(&listener).unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn accept_decodes_an_ipv6_peer() {
        let Ok(listener) = TcpListener::bind("[::1]:0") else {
            eprintln!("skipped: no IPv6 loopback here");
            return;
        };
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_conn, peer) = accept(&listener).unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
    }

    #[test]
    fn the_affinity_mask_lists_the_cpus_this_thread_may_use() {
        // `available_parallelism` is the mask's count, or less under a
        // cgroup CPU quota.
        let cpus = cpus().unwrap();
        let parallelism = std::thread::available_parallelism().unwrap().get();
        assert!(cpus.len() >= parallelism, "{cpus:?}");
        assert!(cpus.windows(2).all(|w| w[0] < w[1]), "{cpus:?}");
    }

    #[test]
    fn a_thread_enters_and_leaves_the_batch_class() {
        // On a thread of its own: the class belongs to the calling thread.
        std::thread::spawn(|| {
            let policy = || {
                let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
                let fields: Vec<&str> =
                    stat.rsplit_once(')').unwrap().1.split_whitespace().collect();
                // Field 41 of `stat`; fields 1 and 2 precede the `)`.
                fields[41 - 3].parse::<u32>().unwrap()
            };
            set_batch(true).unwrap();
            assert_eq!(policy(), 3, "SCHED_BATCH");
            set_batch(false).unwrap();
            assert_eq!(policy(), 0, "SCHED_OTHER");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn send_file_streams_and_advances_offset() {
        let dir = std::env::temp_dir().join(format!("sweb-sendfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();

        let (tx, mut rx) = stream_pair();
        let file = std::fs::File::open(&path).unwrap();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        let mut offset = 0u64;
        while offset < payload.len() as u64 {
            let want = (payload.len() as u64 - offset) as usize;
            match send_file(tx.as_raw_fd(), file.as_raw_fd(), &mut offset, want) {
                Ok(0) => panic!("file truncated"),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("sendfile: {e}"),
            }
        }
        assert_eq!(offset, payload.len() as u64);
        drop(tx);
        assert_eq!(reader.join().unwrap(), payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_cached_sees_written_pages_and_holes() {
        let path = std::env::temp_dir().join(format!("sweb-pagecache-{}", std::process::id()));
        std::fs::write(&path, vec![7u8; 300_000]).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        let probe = |len| page_cached(file.as_raw_fd(), len);
        if probe(1).is_err_and(|e| e.kind() == io::ErrorKind::Unsupported) {
            return; // no `cachestat` here
        }
        assert!(probe(300_000).unwrap(), "written pages must be resident");
        assert!(probe(0).unwrap(), "an empty range is resident");
        // `set_len` extends with a hole: the range exists, no page of it
        // is in memory. (The state `fsync` + `POSIX_FADV_DONTNEED` leaves
        // on a disk-backed file, reached without a second FFI.)
        file.set_len(4 << 20).unwrap();
        assert!(!probe(4 << 20).unwrap(), "a hole is not resident");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_closed_fd_is_an_error() {
        // Far above any descriptor limit, so never open: what a closed fd
        // is to the kernel (`EBADF`), without racing the other tests for a
        // just-freed number.
        assert!(page_cached(RawFd::MAX, 4).is_err());
    }
}
