//! Readiness polling, transmit and listener syscalls over raw Linux
//! interfaces.
//!
//! Two interchangeable backends behind [`Poller`]:
//!
//! * **epoll**: O(1) readiness delivery, the default backend;
//! * **io_uring** (5.11+): completion-based, batched — one
//!   `io_uring_enter` per loop tick (often zero), multishot accept,
//!   queued writes with linked SQE chains (see [`uring`]). Selected via
//!   `--io-backend uring` / `SWEB_IO_BACKEND=uring` (or `auto`), with a
//!   startup probe falling back to epoll on unsupporting kernels.
//!
//! Both are used level-triggered: the loop re-arms interest explicitly
//! when a connection changes state, which keeps the state machine simple
//! (no starvation bookkeeping for edge-triggered wakeups). The io_uring
//! backend preserves this contract because `POLL_ADD` performs a
//! readiness check at arm time; spurious wakeups (allowed for both
//! backends) are bounded at one per interest transition.
//!
//! Every backend counts its kernel crossings into [`IoStats`]
//! (syscalls made, SQEs/CQEs moved, syscalls the completion model
//! avoided), drained per tick via [`Poller::take_stats`] so telemetry
//! can prove the batching claim instead of asserting it.
//!
//! The FFI declarations are hand-written because this crate is
//! dependency-light by design (no `libc`): the reactor must build in the
//! same offline environment as the rest of the workspace.

use std::io;
use std::os::fd::RawFd;

pub mod uring;

/// Which I/O backend a reactor shard should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Probe io_uring at startup; fall back to epoll if unavailable.
    Auto,
    /// io_uring, falling back to epoll (with a logged warning) if the
    /// kernel does not support it.
    Uring,
    /// epoll — the default, and what every benchmark workload runs.
    #[default]
    Epoll,
}

impl IoBackend {
    /// Parse a backend name (`uring`/`epoll`/`auto`).
    pub fn parse(s: &str) -> Option<IoBackend> {
        match s {
            "uring" | "io_uring" => Some(IoBackend::Uring),
            "epoll" => Some(IoBackend::Epoll),
            "auto" => Some(IoBackend::Auto),
            _ => None,
        }
    }

    /// Backend from the environment: `SWEB_IO_BACKEND` if set (unknown
    /// values fall back to the default), else epoll.
    pub fn from_env() -> IoBackend {
        if let Some(v) = std::env::var_os("SWEB_IO_BACKEND") {
            if let Some(b) = v.to_str().and_then(IoBackend::parse) {
                return b;
            }
        }
        IoBackend::Epoll
    }

    /// The requested backend's name (what `Poller::backend` reports
    /// once a concrete backend is running; `Auto` resolves at open).
    pub fn name(&self) -> &'static str {
        match self {
            IoBackend::Auto => "auto",
            IoBackend::Uring => "uring",
            IoBackend::Epoll => "epoll",
        }
    }
}

/// Kernel-crossing counters, drained per loop tick via
/// [`Poller::take_stats`].
///
/// `syscalls` counts actual kernel entries (`epoll_wait`/`epoll_ctl`,
/// `io_uring_enter`). `syscalls_saved` counts operations that epoll
/// would have paid a dedicated syscall for but io_uring absorbed
/// (registrations folded into SQEs, accepts and writes completed via
/// CQEs, waits satisfied from the completion ring without entering the
/// kernel). SQE/CQE counts are zero under epoll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Syscalls actually made.
    pub syscalls: u64,
    /// io_uring submission entries queued.
    pub sqe_submitted: u64,
    /// io_uring completion entries reaped.
    pub cqe_completed: u64,
    /// Dedicated syscalls avoided by the completion model.
    pub syscalls_saved: u64,
    /// Responses transmitted as `WRITE_FIXED` from the registered
    /// staging pool (io_uring only).
    pub write_fixed: u64,
    /// Responses that wanted a staging slot but found the pool
    /// exhausted and fell back to plain `WRITEV`.
    pub buf_pool_exhausted: u64,
    /// `SEND_ZC` operations submitted for large bodies.
    pub send_zc: u64,
    /// Completed zero-copy body sends — each one is a kernel
    /// skb-copy of the payload avoided versus plain `write`/`sendfile`.
    pub zc_copies_avoided: u64,
    /// SQEs that found the submission queue full and waited in the
    /// userspace backlog (SQ-pressure signal; see uring docs on the
    /// p99 investigation).
    pub sqe_backlogged: u64,
}

impl IoStats {
    /// True when nothing was counted since the last drain.
    pub fn is_zero(&self) -> bool {
        *self == IoStats::default()
    }

    /// Accumulate another sample into this one.
    pub fn add(&mut self, other: &IoStats) {
        self.syscalls += other.syscalls;
        self.sqe_submitted += other.sqe_submitted;
        self.cqe_completed += other.cqe_completed;
        self.syscalls_saved += other.syscalls_saved;
        self.write_fixed += other.write_fixed;
        self.buf_pool_exhausted += other.buf_pool_exhausted;
        self.send_zc += other.send_zc;
        self.zc_copies_avoided += other.zc_copies_avoided;
        self.sqe_backlogged += other.sqe_backlogged;
    }
}

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

/// One delivered event: a readiness edge, or (io_uring only) a
/// completion carrying its payload directly.
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
    /// io_uring multishot accept: the already-accepted connection fd
    /// (the listener needs no `accept(2)` call). Always `None` under
    /// epoll.
    pub accepted: Option<RawFd>,
    /// io_uring queued write: bytes written by a completed `WRITEV` SQE
    /// (negative = the op failed with that `-errno`). Always `None`
    /// under epoll.
    pub wrote: Option<i32>,
}

impl Event {
    /// A plain readiness event (what the epoll backend delivers).
    pub fn ready(token: usize, readable: bool, writable: bool, error: bool) -> Event {
        Event { token, readable, writable, error, accepted: None, wrote: None }
    }
}

/// A poller over one of the two backends.
pub enum Poller {
    /// io_uring (completion-based). Boxed: the ring bookkeeping dwarfs
    /// epoll's and the enum is stored inline in every shard.
    Uring(Box<uring::UringPoller>),
    /// epoll (readiness-based).
    Epoll(epoll::EpollPoller),
}

impl Poller {
    /// Open a poller for `backend`. `Uring`/`Auto` probe io_uring and
    /// fall back to epoll when the kernel lacks support — an explicit
    /// `uring` request logs the downgrade to stderr, `auto` is silent.
    /// `pool_bytes` is the io_uring registered-buffer pool budget
    /// (ignored by epoll); shards size it off the file cache's
    /// hot-segment share so the staging pool tracks the working set it
    /// stages.
    pub fn with_backend_and_pool(backend: IoBackend, pool_bytes: usize) -> io::Result<Poller> {
        match backend {
            IoBackend::Uring | IoBackend::Auto => {
                match uring::UringPoller::with_pool_bytes(pool_bytes) {
                    Ok(p) => Ok(Poller::Uring(Box::new(p))),
                    Err(e) => {
                        if backend == IoBackend::Uring {
                            eprintln!(
                                "sweb-reactor: io_uring unavailable ({e}); falling back to epoll"
                            );
                        }
                        Ok(Poller::Epoll(epoll::EpollPoller::new()?))
                    }
                }
            }
            IoBackend::Epoll => Ok(Poller::Epoll(epoll::EpollPoller::new()?)),
        }
    }

    /// Open exactly the requested backend — no fallback. Errors when
    /// the backend is unsupported on this kernel. Used by the
    /// conformance tests so a silent fallback can't mask a missing
    /// backend.
    pub fn strict(backend: IoBackend) -> io::Result<Poller> {
        match backend {
            IoBackend::Uring | IoBackend::Auto => {
                Ok(Poller::Uring(Box::new(uring::UringPoller::new()?)))
            }
            IoBackend::Epoll => Ok(Poller::Epoll(epoll::EpollPoller::new()?)),
        }
    }

    /// Name of the active backend (surfaced in status output).
    pub fn backend(&self) -> &'static str {
        match self {
            Poller::Uring(_) => "uring",
            Poller::Epoll(_) => "epoll",
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            Poller::Uring(p) => p.register(fd, token, interest),
            Poller::Epoll(p) => p.register(fd, token, interest),
        }
    }

    /// Start watching a listener. On io_uring this arms a multishot
    /// accept whose completions carry the accepted fd in
    /// [`Event::accepted`]; epoll treats it as a plain READ registration
    /// (the caller keeps its `accept(2)` loop there).
    pub fn register_accept(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        match self {
            Poller::Uring(p) => p.register_accept(fd, token),
            Poller::Epoll(p) => p.register(fd, token, Interest::READ),
        }
    }

    /// Change the interest set of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            Poller::Uring(p) => p.modify(fd, token, interest),
            Poller::Epoll(p) => p.modify(fd, token, interest),
        }
    }

    /// Stop watching `fd`. Must be called before the fd is closed: the
    /// io_uring backend must cancel in-flight SQEs targeting the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            Poller::Uring(p) => p.deregister(fd),
            Poller::Epoll(p) => p.deregister(fd),
        }
    }

    /// True when [`Poller::queue_writev`] can take buffered responses
    /// (the io_uring backend).
    pub fn supports_queued_write(&self) -> bool {
        matches!(self, Poller::Uring(_))
    }

    /// True when large queued bodies go out as `SEND_ZC` (io_uring on a
    /// kernel that probes the opcode, not opted out). Callers use this
    /// to prefer materializing a file body over the sendfile loop: the
    /// zero-copy send rides the ring, sendfile cannot.
    pub fn supports_send_zc(&self) -> bool {
        match self {
            Poller::Uring(p) => p.supports_send_zc(),
            Poller::Epoll(_) => false,
        }
    }

    /// Submit a whole buffered response for completion-based transmit
    /// (io_uring only; see [`uring::UringPoller::queue_writev`]). On
    /// success the buffers are taken (left empty); on refusal they are
    /// untouched and the caller must use the readiness + `writev(2)`
    /// path instead.
    pub fn queue_writev(
        &mut self,
        fd: RawFd,
        token: usize,
        head: &mut Vec<u8>,
        body: &mut bytes::Bytes,
        link_read: bool,
    ) -> bool {
        match self {
            Poller::Uring(p) => p.queue_writev(fd, token, head, body, link_read),
            Poller::Epoll(_) => false,
        }
    }

    /// Drain the kernel-crossing counters accumulated since the last
    /// call (see [`IoStats`]).
    pub fn take_stats(&mut self) -> IoStats {
        match self {
            Poller::Uring(p) => p.take_stats(),
            Poller::Epoll(p) => p.take_stats(),
        }
    }

    /// Synchronously release every kernel-held resource before drop.
    ///
    /// epoll needs nothing (closing an fd detaches it at once), so this
    /// is a no-op there. io_uring holds file references
    /// in the kernel — a multishot accept pins its listener, the fixed
    /// table pins connection fds — and plain `close(ring_fd)` releases
    /// them *asynchronously*, so a listener port can linger in `LISTEN`
    /// state briefly after the owning thread exits. Callers that rebind
    /// addresses right after stopping a shard (graceful stop → revive)
    /// need this fence; the reactor loop calls it during drain.
    pub fn shutdown(&mut self) {
        match self {
            Poller::Uring(p) => p.shutdown(),
            Poller::Epoll(_) => {}
        }
    }

    /// Wait for events, appending them to `events` (which is cleared
    /// first). Returns the number of events delivered.
    ///
    /// Timeout contract, identical for both backends:
    /// * `timeout_ms > 0` — block up to that many milliseconds;
    /// * `timeout_ms == 0` — non-blocking: deliver whatever is ready
    ///   right now (io_uring still submits queued SQEs) and return
    ///   immediately;
    /// * `timeout_ms < 0` — block until at least one event arrives.
    ///
    /// Either backend may return early with zero events (EINTR, stale
    /// completions); callers must treat an empty return as a timeout
    /// tick, not end-of-stream.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match self {
            Poller::Uring(p) => p.wait(events, timeout_ms),
            Poller::Epoll(p) => p.wait(events, timeout_ms),
        }
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

/// Bind a listener with `SO_REUSEADDR`, so a revived node can reclaim
/// its old address while connections it accepted before dying still sit
/// in `TIME_WAIT` (a plain `TcpListener::bind` fails with `EADDRINUSE`
/// for the staleness timeout's worth of seconds).
pub fn bind_reuseaddr(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
    bind_with(addr, false)
}

/// Bind a listener with `SO_REUSEADDR` **and** `SO_REUSEPORT`, so several
/// listeners — one per reactor shard — share one port and the kernel
/// distributes incoming connections across them (hashed on the 4-tuple).
/// Every listener on the port must set the flag *before* bind, or the
/// kernel refuses the group: sharded callers bind their first listener
/// through here too, never through a plain `TcpListener::bind`.
pub fn bind_reuseport(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
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

fn bind_with(addr: std::net::SocketAddr, reuseport: bool) -> io::Result<std::net::TcpListener> {
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;

    let std::net::SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(io::ErrorKind::Unsupported, "IPv4 addresses only"));
    };
    let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let fail = |fd: i32| {
        let err = io::Error::last_os_error();
        unsafe { close(fd) };
        Err(err)
    };
    let one: i32 = 1;
    if unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) } < 0 {
        return fail(fd);
    }
    if reuseport && unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, 4) } < 0 {
        return fail(fd);
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    if unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) } < 0 {
        return fail(fd);
    }
    if unsafe { listen(fd, 128) } < 0 {
        return fail(fd);
    }
    Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
}

pub mod epoll {
    //! The epoll backend.

    use super::{Event, Interest, IoStats};
    use std::io;
    use std::os::fd::RawFd;

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

    /// `EPOLLERR`/`EPOLLHUP` are always reported. `EPOLLRDHUP` rides
    /// with read interest only: a half-closed peer is level-triggered
    /// readable, which a socket parked or draining a write must not hear
    /// on every wait.
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

    /// An epoll instance.
    pub struct EpollPoller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
        stats: IoStats,
    }

    impl EpollPoller {
        /// Create the epoll instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<EpollPoller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
                stats: IoStats::default(),
            })
        }

        /// Drain stats accumulated since the last call.
        pub fn take_stats(&mut self) -> IoStats {
            std::mem::take(&mut self.stats)
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.stats.syscalls += 1;
            let mut ev = EpollEvent { events: mask_of(interest), data: token as u64 };
            let arg = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, arg) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// See [`super::Poller::register`].
        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// See [`super::Poller::modify`].
        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// See [`super::Poller::deregister`].
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// See [`super::Poller::wait`].
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            let n = loop {
                self.stats.syscalls += 1;
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
                let token = raw.data as usize;
                events.push(Event::ready(
                    token,
                    mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    mask & EPOLLOUT != 0,
                    mask & EPOLLERR != 0,
                ));
            }
            Ok(n)
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backend_smoke(mut poller: Poller) {
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
    }

    #[test]
    fn epoll_backend_delivers_events() {
        backend_smoke(Poller::Epoll(epoll::EpollPoller::new().unwrap()));
    }

    #[test]
    fn uring_backend_delivers_events() {
        match uring::UringPoller::new() {
            Ok(p) => backend_smoke(Poller::Uring(Box::new(p))),
            Err(e) => eprintln!("skipping: io_uring unavailable on this kernel: {e}"),
        }
    }

    #[test]
    fn explicit_uring_request_falls_back_to_epoll() {
        // SWEB_URING_DISABLE simulates a kernel without io_uring; the
        // explicit request must still yield a working poller.
        std::env::set_var("SWEB_URING_DISABLE", "1");
        let p = Poller::with_backend_and_pool(IoBackend::Uring, uring::DEFAULT_BUF_POOL).unwrap();
        std::env::remove_var("SWEB_URING_DISABLE");
        assert_eq!(p.backend(), "epoll");
        backend_smoke(p);
    }

    #[test]
    fn io_backend_parses_names() {
        assert_eq!(IoBackend::parse("uring"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::parse("epoll"), Some(IoBackend::Epoll));
        assert_eq!(IoBackend::parse("auto"), Some(IoBackend::Auto));
        assert_eq!(IoBackend::parse("poll"), None);
        assert_eq!(IoBackend::parse("kqueue"), None);
        assert_eq!(IoBackend::default().name(), "epoll");
    }

    /// A connected blocking stream pair over loopback.
    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn read_exact_n(s: &mut TcpStream, n: usize) -> Vec<u8> {
        use std::io::Read;
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

    #[test]
    fn send_file_streams_and_advances_offset() {
        use std::io::Read;
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
}
