//! # sweb-reactor — an event-driven connection engine
//!
//! The 1996 SWEB design (NCSA httpd lineage) dedicates one process or
//! thread to each connection; §4.3 of the paper measures precisely that
//! overhead ("the overhead for the threads package") eating into
//! scheduling gains. This crate is the modern counterpoint the paper
//! anticipates: one readiness loop multiplexing every connection through
//! a per-connection state machine, so concurrency is bounded by memory
//! rather than by threads.
//!
//! Architecture (one reactor = one shard group: a loop thread per shard
//! and one bounded worker pool they share):
//!
//! ```text
//!        accept ──▶ [admission: cap or 503] ──▶ Reading ──▶ ReadingBody
//!          (read at once, in the same call)        │ parse (incremental)
//!                                                  ▼
//!                                    dispatch: first_look() on the loop
//!                          Done │                          │ Blocking / None
//!                               │                          ▼
//!                               │       workers ◀──── Dispatched
//!                               │          │  continuation or respond()
//!                               ▼          ▼  (blocking work off the loop)
//!                            Writing ◀──wakeup── completion queue
//!                               │
//!                               ▼
//!                        close | keep-alive ↺
//!
//!   ┄ a connection enters the poller, and its deadline the timer wheel,
//!     only on its first wait: a read or write that would block, or a
//!     worker holding its request
//! ```
//!
//! * **Linux only.** Events come from [`sys::Poller`], one epoll
//!   instance per loop, used level-triggered.
//! * **Accepts are the kernel's to distribute**: every shard of
//!   [`spawn_sharded`] owns its own `SO_REUSEPORT` listener on the
//!   shared port, the way each SWEB node's httpd accepts its own
//!   connections — there is no user-space dispatcher. With one CPU per
//!   shard, each listener takes the connections that arrive on its CPU
//!   (`SO_INCOMING_CPU`), and its loop runs in the batch scheduling
//!   class so that it yields to the client it shares that CPU with.
//!   `accept4` hands over each socket non-blocking and close-on-exec,
//!   with the listener's `TCP_NODELAY`: no syscall per connection
//!   beyond the accept itself.
//! * **Parsing is incremental**: partial reads accumulate in a carry
//!   buffer and [`sweb_http::try_parse_request`] distinguishes "need more
//!   bytes" from "can never parse" without re-scanning cost blowups.
//! * **A connection that never waits costs no registration**: it is
//!   read straight after `accept`, and an HTTP/1.0 request answered
//!   inline costs `accept`, `read`, `sendmsg`, `shutdown` and `close`
//!   plus its share of one poller wake-up — no `epoll_ctl` either side,
//!   nothing in the timer wheel. The socket is registered the first time
//!   something would block.
//! * **Timeouts** ride a hashed [`timer::TimerWheel`] with lazy
//!   re-arming: slow or idle clients are evicted without ever blocking
//!   healthy connections. A connection's deadline reaches the wheel when
//!   it is registered (one entry, pushed then), a deadline that only
//!   moves later (the next phase, the next keep-alive request) keeps that
//!   one entry, and the entry leaves the wheel when the connection
//!   closes.
//! * **An idle loop sleeps**: with the wheel empty, no worker holding a
//!   request and no listener parked, the loop waits for an fd, its
//!   doorbell or its [`Service`]'s next deadline, however far off that is.
//!   Shutdown is an event too: [`ReactorHandle::join`] rings the doorbell.
//! * **What cannot block is answered where it was parsed**:
//!   [`App::first_look`] runs on the loop thread and may finish the
//!   request ([`FirstLook::Done`] goes straight to the socket, no thread
//!   hop), a [`FileBody`] whose pages are all in the OS page cache
//!   included ([`sys::page_cached`] asks the kernel). **Blocking work**
//!   (a document read on a cache miss, reading a cold large file in, a
//!   handler that may block or has not yet measured cheap, the status
//!   and `/metrics` renders) runs on a bounded [`workers::WorkerPool`],
//!   one per shard group, whose workers serve every loop's jobs; a full
//!   queue sheds (503) instead of queueing unboundedly.
//! * **Transmit is zero-copy**: responses drain as head bytes plus a
//!   shared [`Bytes`] body gathered by one `sendmsg(2)` (no per-request
//!   body copy; a cached document's head is shared too, see
//!   [`sweb_http::Head`]), and large [`FileBody`] payloads stream
//!   in-kernel via `sendfile(2)` with partial-write resumption; a reply
//!   has until its request budget's end to drain, however slowly its
//!   reader takes it.
//! * **A reply leaves in as few segments as it can**: a buffered write
//!   carries `MSG_MORE` when more of the same reply follows at once — a
//!   streamed file body, or the FIN of a connection that closes after
//!   this reply — so a head rides the first file segment and a small
//!   closing reply leaves as one segment with its FIN. A closing reply
//!   ends with `shutdown(SHUT_WR)`, then `close`: a bare `close` with
//!   request bytes still unread resets the connection and the kernel
//!   drops the corked reply. A kept connection's last write never
//!   carries `MSG_MORE`, and `sendfile` takes no flags, so a streamed
//!   body's last chunk goes out on its own.
//! * **Admission control**: beyond `max_conns` open connections, counted
//!   across every loop of a shard group, the reactor answers 503
//!   immediately. The application reads the open connections and bytes
//!   in flight from [`Counters`] and feeds them into its advertised load
//!   vector, so an overloaded node repels the cluster's scheduler as
//!   §3.3's `A+d(A+O)` model intends.
//! * **The loops count their own events**: accepts, every reply's
//!   outcome, evictions, poller syscalls and the phases they time land
//!   in one [`Counters`] block of shard-local cells, each loop at its own
//!   shard's index. The application names the cells; the engine knows
//!   none of its series.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("sweb-reactor is Linux-only: it needs epoll, sendfile(2) and SO_REUSEPORT");

pub mod slab;
pub mod sys;
pub mod timer;
pub mod workers;

use std::io::{self, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sweb_http::{try_parse_request, Head, Method, Request, Response, StatusCode};
use sweb_telemetry::{
    AtomicHistogram, Counter, Phase, PhaseTimes, RequestDeadline, ShardedCounter, ShardedGauge,
    MAX_SHARD_CELLS,
};

use slab::Slab;
use sys::{Event, Interest, Poller};
use timer::{EvictClock, Fired, TimerEntry, TimerWheel};
use workers::WorkerPool;

/// A file payload to stream instead of an in-memory body: the open fd
/// travels through the connection state machine and is drained with
/// `sendfile(2)`. The reactor sets `Content-Length` from `len`.
#[derive(Debug)]
pub struct FileBody {
    /// Open file positioned at the start of the payload.
    pub file: std::fs::File,
    /// Bytes to transmit (the advertised `Content-Length`).
    pub len: u64,
}

/// What [`App::respond`] produces: a response head/body plus an optional
/// file payload that replaces the in-memory body on the wire.
#[derive(Debug)]
pub struct Reply {
    /// Status, headers and (unless `file` is set) the body.
    pub response: Response,
    /// When set, the wire body is streamed from this file; any in-memory
    /// `response.body` is ignored.
    pub file: Option<FileBody>,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply { response, file: None }
    }
}

/// What the loops of a shard group count. Each loop adds at its own
/// shard's index, and a worker at the index of the loop that handed it
/// the request. The application names the cells (a server builds the
/// block from its metric registry) and reads them; the reactor only adds.
/// The `Default` is fresh cells that no registry knows, one per possible
/// shard.
///
/// Every reply lands in exactly one of `served`, `redirected`, `shed`,
/// `bad_requests` and `deadline_overruns`.
#[derive(Debug)]
pub struct Counters {
    /// Connections accepted, before admission control.
    pub accepted: Arc<ShardedCounter>,
    /// Replies the app produced that were neither a 302 nor a 503.
    pub served: Arc<ShardedCounter>,
    /// Replies the app produced that were a 302.
    pub redirected: Arc<Counter>,
    /// 503 refusals: at the admission cap, at a full worker queue, or
    /// produced by the app.
    pub shed: Arc<ShardedCounter>,
    /// Requests that failed to parse, answered 400.
    pub bad_requests: Arc<Counter>,
    /// Requests answered 503 for missing a phase checkpoint of their
    /// [`RequestDeadline`] (a reply that came too late is discarded).
    pub deadline_overruns: Arc<Counter>,
    /// Connections evicted by the timer wheel (read or write deadline).
    pub evicted: Arc<ShardedCounter>,
    /// `accept(2)` failures (not `WouldBlock`), real or the gate's.
    pub accept_errors: Arc<Counter>,
    /// `served` replies whose non-empty body left as a shared [`Bytes`]
    /// gathered behind the head by `sendmsg(2)`: no user-space copy.
    pub zero_copy: Arc<ShardedCounter>,
    /// `served` replies whose body streamed from a [`FileBody`] by
    /// `sendfile(2)`.
    pub sendfile: Arc<ShardedCounter>,
    /// Connections admitted and not yet closed. A connection opens and
    /// closes on its own loop, so no cell goes negative.
    pub open: Arc<ShardedGauge>,
    /// Reply bytes queued to sockets and not yet written or dropped.
    pub bytes_in_flight: Arc<ShardedGauge>,
    /// Kernel entries of the loops' pollers (`epoll_wait`, `epoll_ctl`).
    pub poller_syscalls: Arc<ShardedCounter>,
    /// Requests answered by [`FirstLook::Done`], on the loop thread.
    pub inline: Arc<ShardedCounter>,
    /// Per inline answer, µs from parsed request to the start of its
    /// write, all of it on the loop thread.
    pub inline_us: Arc<AtomicHistogram>,
    /// The loops time accept (admission hand-off), parse (first byte to
    /// dispatched request) and write (reply queued to drained, successful
    /// writes only); the application times the other phases.
    pub phases: Arc<PhaseTimes>,
    /// 1 in a shard's cell while its loop runs, 0 once it has exited.
    pub live: Arc<ShardedGauge>,
}

impl Default for Counters {
    fn default() -> Counters {
        let sc = || Arc::new(ShardedCounter::new(MAX_SHARD_CELLS));
        let sg = || Arc::new(ShardedGauge::new(MAX_SHARD_CELLS));
        Counters {
            accepted: sc(),
            served: sc(),
            redirected: Arc::default(),
            shed: sc(),
            bad_requests: Arc::default(),
            deadline_overruns: Arc::default(),
            evicted: sc(),
            accept_errors: Arc::default(),
            zero_copy: sc(),
            sendfile: sc(),
            open: sg(),
            bytes_in_flight: sg(),
            poller_syscalls: sc(),
            inline: sc(),
            inline_us: Arc::default(),
            phases: Arc::default(),
            live: sg(),
        }
    }
}

/// What [`App::first_look`] concluded about one parsed request, on the
/// loop thread.
pub enum FirstLook {
    /// The reply, finished without blocking: written from the loop
    /// thread, no worker involved. A [`FileBody`] belongs here only when
    /// its range is in the OS page cache ([`sys::page_cached`]): the
    /// loop's `sendfile` then copies memory, while a cold range would
    /// stall the loop on the disk and belongs in a continuation.
    Done(Reply),
    /// The rest of the request can sleep: this continuation runs on a
    /// worker thread, given the same `(peer, request, body)` the first
    /// look saw, and [`App::respond`] is not called.
    Blocking(Continuation),
}

/// The blocking remainder of a request whose first look ran on the loop.
pub type Continuation = Box<dyn FnOnce(&str, &Request, &[u8]) -> Reply + Send>;

/// Work that shares a shard's loop with its connections ([`App::service`]):
/// the loop watches the service's fd for reads beside its own, and wakes
/// it at the deadline it last asked for. It runs on the loop thread, so,
/// like [`App::first_look`], it must not block: drain its nonblocking fd,
/// send datagrams, compute. A SWEB node runs its loadd daemon this way,
/// on shard 0, instead of on a thread of its own.
pub trait Service: Send {
    /// The nonblocking fd to watch for reads, for the service's life: the
    /// loop registers it once, as it starts, and deregisters it as it
    /// stops.
    fn fd(&self) -> RawFd;
    /// `readable`: the fd is readable; drain it. Otherwise the loop just
    /// started, or the deadline the last call returned has come. Returns
    /// the next deadline (`None`: wake only for a read).
    fn run(&mut self, readable: bool) -> Option<Instant>;
}

/// Verdict from [`App::accept_gate`], consulted before each accept burst.
/// Lets the application (or a fault injector riding inside it) throttle
/// the listener without owning the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptGate {
    /// Accept normally.
    Proceed,
    /// Don't accept right now; re-check after a short park. Pending
    /// connections wait in the kernel backlog.
    Pause,
    /// Treat the accept as if the process were out of file descriptors
    /// (synthetic `EMFILE`): report the error and back off.
    FailFd,
}

/// What the reactor serves: the replies, and the decisions and policy
/// behind them. What happened to each connection and reply the loops
/// count themselves, in [`Counters`].
///
/// Which method runs where: [`App::respond`], a [`FirstLook::Blocking`]
/// continuation and [`App::on_queue_sojourn`] run on a **worker thread**
/// and may block; [`App::retry_after_secs`] runs where a 503 is built
/// (worker or loop); [`App::first_look`], [`App::accept_gate`] and
/// [`App::service`] run on the **event-loop thread**, where anything that
/// sleeps stalls every connection of the shard.
pub trait App: Send + Sync + 'static {
    /// Produce the response for one parsed request, on a worker thread.
    /// Called for every request [`App::first_look`] declined (`None`).
    fn respond(&self, peer: &str, req: &Request, body: &[u8]) -> Reply;

    /// A non-blocking first look at a parsed request, on the loop thread,
    /// before anything is handed to the worker pool. `None` (the default)
    /// sends the request to [`App::respond`] as if this method did not
    /// exist.
    ///
    /// Budget: compute, short uncontended locks, and at most one
    /// `stat(2)` — no reads, no sleeps, no lock a worker holds across
    /// I/O. A large document resident in the page cache adds one `open`
    /// and one `cachestat(2)`. Nothing enforces it; [`Counters::inline_us`]
    /// records what each inline answer cost, so a first look that does
    /// block (a docroot on a slow NFS mount makes even the `stat` slow)
    /// shows there.
    fn first_look(&self, _peer: &str, _req: &Request, _body: &[u8]) -> Option<FirstLook> {
        None
    }

    /// Consulted before each accept burst; see [`AcceptGate`].
    fn accept_gate(&self) -> AcceptGate {
        AcceptGate::Proceed
    }
    /// Work that shares this loop with its connections, asked for once as
    /// the loop is built. `None` (the default): the loop serves connections
    /// alone. See [`Service`].
    fn service(&self) -> Option<Box<dyn Service>> {
        None
    }
    /// How long one request sat in the worker submission queue before a
    /// worker picked it up (called on the worker thread, just before
    /// `respond` or the continuation). This is the *sojourn time* an
    /// adaptive admission controller feeds on: a standing queue here
    /// means the node is past capacity no matter what the connection
    /// count says. Requests answered inline never queue and report
    /// nothing — a zero per cache hit would hide a standing queue.
    fn on_queue_sojourn(&self, _micros: u64) {}
    /// `Retry-After` seconds for every 503 this reactor emits (admission
    /// cap, full worker queue, missed deadline). Applications derive it
    /// from live load; the default matches the old fixed header.
    fn retry_after_secs(&self) -> u64 {
        1
    }
}

/// Tuning knobs for one reactor instance.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Admission cap: connections beyond this are answered 503. The
    /// loops of a [`spawn_sharded`] group share it: together they hold at
    /// most this many, however the connections fall among them.
    pub max_conns: usize,
    /// Worker threads for blocking fulfilment, one pool for every loop of
    /// a [`spawn_sharded`] group. Defaults to [`default_workers`] (the
    /// machine's `available_parallelism()` clamped to `[4, 32]`).
    pub workers: usize,
    /// Bounded depth of the group's one worker submission queue.
    pub worker_queue: usize,
    /// Evict a connection that produces no complete request for this long.
    pub read_timeout: Duration,
    /// Maximum requests served over one keep-alive connection. Also the
    /// bound on how deep the loop thread's stack nests when a client
    /// pipelines requests that are all answered inline (each answer's
    /// write completion dispatches the next).
    pub keepalive_limit: u32,
    /// Timer wheel tick, ms (eviction resolution).
    pub timer_tick_ms: u64,
    /// Wall-clock budget for one request (first byte to response
    /// drained). Phase checkpoints are derived from it via
    /// [`RequestDeadline`]; a request
    /// missing one is answered 503 + `Retry-After` instead of hanging its
    /// client, and a reply still draining at the budget's end is evicted
    /// mid-write. A `400`, which has no request to budget, has this long
    /// to drain from when its write starts.
    pub request_budget: Duration,
    /// Where the loops count what happens: a handle, shared by every loop
    /// of a group and by every reactor spawned with the same config.
    pub counters: Arc<Counters>,
}

/// Default worker-pool size: [`std::thread::available_parallelism`]
/// clamped to `[4, 32]` — small machines keep four workers, larger ones
/// stop serializing blocking fulfilment behind four threads.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(4, 32)
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_conns: 1024,
            workers: default_workers(),
            worker_queue: 512,
            read_timeout: Duration::from_secs(10),
            keepalive_limit: 64,
            timer_tick_ms: 20,
            request_budget: Duration::from_secs(10),
            counters: Arc::default(),
        }
    }
}

/// Timer wheel ring size (slots).
const TIMER_SLOTS: usize = 256;

/// Largest accepted POST body.
const MAX_BODY_BYTES: u64 = 1 << 20;

/// Connections one readable listener event accepts before the loop
/// polls again (the listener is level-triggered, so the rest wait one
/// tick). Each is read, and often answered, on the spot: an unbounded
/// burst would let a steady stream of connects starve the timers, the
/// workers' completions and every established connection.
const ACCEPT_BURST: usize = 16;

/// Reserved poller tokens.
const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKEUP: usize = 1;
const TOKEN_SERVICE: usize = 2;
const TOKEN_BASE: usize = 3;

/// A running reactor: one shard group, its worker pool, and its address.
pub struct ReactorHandle {
    /// Each loop's thread and doorbell, in shard order.
    loops: Vec<(std::thread::JoinHandle<io::Result<()>>, Arc<UdpSocket>)>,
    /// The group's workers; every loop holds the pool too.
    pool: Arc<WorkerPool>,
    /// Address the reactor is listening on.
    pub addr: SocketAddr,
}

impl ReactorHandle {
    /// Number of shard loops.
    pub fn shard_count(&self) -> usize {
        self.loops.len()
    }

    /// Wait for every loop to exit (after `shutdown` was flagged), then
    /// for the workers, which run what is still queued first: when this
    /// returns, no thread of the group is left. Rings each loop's doorbell
    /// first: an idle loop sleeps until something happens, and this is
    /// what makes it look at the flag. Returns the first loop error, if
    /// any.
    pub fn join(self) -> io::Result<()> {
        let mut result = Ok(());
        for (thread, wakeup) in self.loops {
            let _ = wakeup.send(&[1]);
            let joined =
                thread.join().unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked")));
            result = result.and(joined);
        }
        // The loops are gone, and their references with them: dropping the
        // last one closes the queue and joins the workers.
        drop(self.pool);
        result
    }
}

/// Spawn a reactor serving `app` on `listener`: the one-shard case of
/// [`spawn_sharded`]. The loop runs until `shutdown` is set: it looks at
/// the flag every time it wakes, and [`ReactorHandle::join`] wakes it.
pub fn spawn(
    listener: TcpListener,
    app: Arc<dyn App>,
    cfg: ReactorConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<ReactorHandle> {
    spawn_sharded(listener, vec![app], cfg, shutdown)
}

/// Make the calling loop thread the one that serves `cpu`'s connections:
/// its listener takes the connections whose SYN was processed on `cpu`
/// ([`sys::steer`]), and the loop joins the batch scheduling class
/// ([`sys::set_batch`]). Such a loop shares its CPU with the client that
/// just connected. In the normal class, the finished handshake would wake
/// it ahead of that client, before the request is written, and the loop
/// would find nothing to read. As a batch thread it runs once the client
/// blocks, with the request in the socket. The loop is not pinned: the
/// scheduler may still move it, and a connection is served either way.
/// Both settings or neither: if the kernel refuses one, the shard says so
/// once and keeps the group's hash and the normal class.
fn steer_loop(listener: &TcpListener, cpu: usize, shard: usize) {
    let steered = sys::set_batch(true).and_then(|()| {
        sys::steer(listener, cpu).inspect_err(|_| {
            let _ = sys::set_batch(false);
        })
    });
    if let Err(e) = steered {
        eprintln!("sweb-reactor: shard {shard} not steered to CPU {cpu}, hashed instead: {e}");
    }
}

/// Spawn a shard group: `apps.len()` loops all serving the same port,
/// sharing one worker pool. `cfg` holds the node-wide totals, whatever the
/// shard count: the group runs `workers` threads on one queue of
/// `worker_queue` jobs, any worker serves any shard's job (an idle one
/// that last served the same loop first, see
/// [`WorkerPool::try_submit_from`]), and `max_conns` bounds the
/// connections the loops hold together. Nothing is divided
/// per shard because placement is not even: a steered shard takes every
/// connection that arrives on its CPU. Loops are named
/// `sweb-<port>-s<shard>` and workers `sweb-<port>-w<i>`.
///
/// Shard 0 serves `listener`; every other shard binds its own
/// `SO_REUSEPORT` listener on the same port and the kernel distributes
/// accepts across the group. With several apps, `listener` must itself
/// have been bound with [`sys::bind_reuseport`] or the group cannot
/// form: every bind happens before any thread starts, so that mistake is
/// an `Err` and no thread runs.
///
/// With at least two shards and no more than the CPUs this thread may run
/// on ([`sys::cpus`]), shard `i` serves the connections that arrive on
/// the `i`-th of those CPUs (see `steer_loop`), so a connection's packets,
/// its loop and its client share a CPU instead of waking each other
/// across two. A single shard, or more shards than CPUs, keeps the
/// group's 4-tuple hash. The workers are spawned on the caller's thread,
/// before any loop steers itself, so they stay in the normal class.
pub fn spawn_sharded(
    listener: TcpListener,
    apps: Vec<Arc<dyn App>>,
    cfg: ReactorConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<ReactorHandle> {
    assert!(!apps.is_empty(), "spawn_sharded needs at least one shard app");
    let addr = listener.local_addr()?;
    let mut listeners = vec![listener];
    for _ in 1..apps.len() {
        let joined = sys::bind_reuseport(addr).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "shard listener cannot join {addr}: {e} \
                     (bind the first listener with sweb_reactor::sys::bind_reuseport)"
                ),
            )
        })?;
        listeners.push(joined);
    }

    let name = format!("sweb-{}", addr.port());
    let pool = Arc::new(WorkerPool::new(cfg.workers, cfg.worker_queue, &name));
    let open = Arc::new(AtomicUsize::new(0));
    // Every loop is built before any starts: a loop that cannot be built
    // drops the others and the pool, which joins its workers.
    let loops = listeners
        .into_iter()
        .zip(apps)
        .enumerate()
        .map(|(shard, (listener, app))| {
            let (shutdown, open, pool) =
                (Arc::clone(&shutdown), Arc::clone(&open), Arc::clone(&pool));
            Loop::new(shard, listener, app, cfg.clone(), shutdown, open, pool)
        })
        .collect::<io::Result<Vec<Loop>>>()?;

    let cpus = sys::cpus().unwrap_or_default();
    let steered = (2..=cpus.len()).contains(&loops.len());
    let mut threads = Vec::with_capacity(loops.len());
    for lp in loops {
        let (shard, wakeup) = (lp.shard, Arc::clone(&lp.wakeup_tx));
        let cpu = steered.then(|| cpus[shard]);
        let thread =
            std::thread::Builder::new().name(format!("{name}-s{shard}")).spawn(move || {
                if let Some(cpu) = cpu {
                    steer_loop(&lp.listener, cpu, shard);
                }
                lp.run()
            })?;
        threads.push((thread, wakeup));
    }
    Ok(ReactorHandle { loops: threads, pool, addr })
}

/// Per-connection protocol position.
enum ConnState {
    /// Accumulating bytes of a request head.
    Reading,
    /// Head parsed; accumulating `need` bytes of POST body.
    ReadingBody { req: Box<Request>, need: usize },
    /// The request is parsed and being answered. Inline, this state
    /// lasts one call; otherwise a worker owns the request and the loop
    /// ignores the socket (except errors) until the completion arrives.
    Dispatched,
    /// Draining the serialized response.
    Writing,
}

/// An in-flight `sendfile` transfer: the open fd rides the connection
/// until `offset` reaches `end`, resuming across EAGAIN round-trips.
struct FileTx {
    file: std::fs::File,
    offset: u64,
    end: u64,
}

/// A connection's place under the admission cap, counted in the `open`
/// total its shard group shares. It is dropped with the connection,
/// which gives the place back. The count publishes no other data, so
/// `Relaxed` suffices: each update is one atomic read-modify-write.
struct Seat(Arc<AtomicUsize>);

impl Seat {
    /// A place, if fewer than `cap` are taken.
    fn take(open: &Arc<AtomicUsize>, cap: usize) -> Option<Seat> {
        open.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
            .ok()
            .map(|_| Seat(Arc::clone(open)))
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One tracked connection.
struct Conn {
    stream: TcpStream,
    /// Its place under the admission cap.
    _seat: Seat,
    /// The client's address as [`App`] methods see it.
    peer: Arc<str>,
    state: ConnState,
    /// Read accumulator; may hold pipelined bytes beyond one request.
    carry: Vec<u8>,
    /// The head shared with a cache entry, if the reply has one: sent
    /// split at its gap, with `out_head` in between.
    out_shared: Option<Head>,
    /// The head bytes serialized for this reply alone: the lines in the
    /// shared head's gap, or without one the whole head.
    out_head: Vec<u8>,
    /// Body as a shared handle (refcount clone of the cache's buffer, or
    /// empty when the head already contains the body / a file follows).
    out_body: Bytes,
    /// Combined transmit offset across the buffered pieces
    /// ([`Conn::out_pieces`]).
    out_pos: usize,
    /// File payload streamed after the buffered part, if any.
    out_file: Option<FileTx>,
    /// Planned wire size (head + body + file), for in-flight accounting.
    out_planned: usize,
    keep_alive: bool,
    /// Close after the in-progress write (protocol errors, shed).
    rounds: u32,
    /// Eviction deadline (reactor ms) and the wheel entry that enforces
    /// it; moved through [`Loop::set_deadline`] only, armed together
    /// with the registration.
    clock: EvictClock,
    /// The socket is in the poller. False until the connection first
    /// waits for something (see [`Loop::set_interest`]); a connection
    /// answered in the call that accepted it never is.
    registered: bool,
    /// What the poller watches for; meaningless until `registered`.
    interest: Interest,
    /// When the first byte of the in-progress request arrived (parse
    /// phase start); `None` between requests.
    req_started: Option<Instant>,
    /// When the in-progress response was queued (write phase start).
    write_started: Option<Instant>,
    /// Absolute cutoff (reactor ms) from the request's
    /// [`RequestDeadline`]: the reply's write deadline, so a response
    /// that can't drain inside the budget is evicted at the budget's end.
    budget_deadline_ms: Option<u64>,
}

impl Conn {
    /// The buffered part of the reply, in wire order: the shared head's
    /// part before its gap, this reply's own head bytes, the rest of the
    /// shared head, the body.
    fn out_pieces(&self) -> [&[u8]; 4] {
        let (before, after) = match &self.out_shared {
            Some(head) => (head.before_gap(), head.after_gap()),
            None => (&[][..], &[][..]),
        };
        [before, &self.out_head, after, &self.out_body]
    }

    /// Whether more of this reply follows the buffered part at once: a
    /// file body still to stream, or the FIN of a connection that closes
    /// after it. Either way a partial last segment is worth holding back
    /// ([`sys::send_vectored`]'s `more`).
    fn more_follows(&self) -> bool {
        !self.keep_alive || self.out_file.as_ref().is_some_and(|f| f.offset < f.end)
    }
}

/// What remains of `pieces` once the first `sent` bytes are gone.
fn unsent(pieces: [&[u8]; 4], mut sent: usize) -> [&[u8]; 4] {
    pieces.map(|piece| {
        let gone = sent.min(piece.len());
        sent -= gone;
        &piece[gone..]
    })
}

/// A reply in the shape `start_write` takes.
struct Wire {
    shared: Option<Head>,
    head: Vec<u8>,
    body: Bytes,
    file: Option<FileTx>,
    keep_alive: bool,
}

impl Wire {
    /// A reply the reactor produces itself (400, 503): no payload file,
    /// and the connection closes after it.
    fn closing(resp: Response) -> Wire {
        let (head, body) = resp.to_wire_parts(false);
        Wire { shared: None, head, body, file: None, keep_alive: false }
    }
}

/// A finished worker job coming back from the pool.
struct Completion {
    token: usize,
    gen: u64,
    wire: Wire,
}

/// Everything between an [`App`]'s reply and the wire, decided at
/// dispatch and applied where the reply is produced: by the worker job,
/// or on the loop thread for a [`FirstLook::Done`].
struct Seal {
    /// The shard whose loop dispatched the request: the reply counts in
    /// its cells.
    shard: usize,
    deadline: RequestDeadline,
    keep_alive: bool,
    head_only: bool,
}

impl Seal {
    /// `reply` is `None` when the fetch checkpoint had already passed
    /// and the work was skipped. A reply that arrives past the
    /// checkpoint is replaced by the same definite 503. Either way the
    /// reply is counted in its outcome here.
    fn finish(self, app: &dyn App, counters: &Counters, reply: Option<Reply>) -> Wire {
        let reply = reply.filter(|_| !self.deadline.overrun(Phase::Fetch));
        let overrun = reply.is_none();
        let reply = reply.unwrap_or_else(|| {
            counters.deadline_overruns.inc();
            Reply::from(Response::unavailable(app.retry_after_secs()))
        });
        let mut resp = reply.response;
        let keep_alive = self.keep_alive && !overrun;
        if keep_alive {
            resp.headers.set("Connection", "Keep-Alive");
        }
        let mut file_tx: Option<FileTx> = None;
        if let Some(fb) = reply.file {
            resp.headers.set("Content-Length", fb.len.to_string());
            // A HEAD's header describes the file; nothing follows.
            if !self.head_only {
                file_tx = Some(FileTx { file: fb.file, offset: 0, end: fb.len });
            }
        }
        let (shared, head) = resp.head_pieces();
        let body = if self.head_only { Bytes::new() } else { resp.body };
        let shard = self.shard;
        match resp.status {
            // Counted as an overrun above.
            _ if overrun => {}
            StatusCode::Found => counters.redirected.inc(),
            StatusCode::ServiceUnavailable => counters.shed.inc_at(shard),
            _ => {
                counters.served.inc_at(shard);
                if file_tx.is_some() {
                    counters.sendfile.inc_at(shard);
                } else if !body.is_empty() {
                    counters.zero_copy.inc_at(shard);
                }
            }
        }
        Wire { shared, head, body, file: file_tx, keep_alive }
    }
}

struct Loop {
    /// This loop's index in its shard group.
    shard: usize,
    listener: TcpListener,
    app: Arc<dyn App>,
    cfg: ReactorConfig,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
    wakeup_rx: UdpSocket,
    wakeup_tx: Arc<UdpSocket>,
    conns: Slab<Conn>,
    /// Connections open across this loop's shard group; the admission
    /// cap bounds it ([`Seat`]).
    open: Arc<AtomicUsize>,
    wheel: TimerWheel,
    /// The group's workers, shared by its loops.
    pool: Arc<WorkerPool>,
    completions: Arc<Mutex<Vec<Completion>>>,
    start: Instant,
    /// Accept failure streak, for exponential listener backoff.
    accept_errors: u32,
    /// When set, the listener is deregistered until this reactor-ms time.
    listener_parked_until: Option<u64>,
    /// Jobs handed to the pool whose completion has not been drained.
    in_flight: usize,
    /// What the app runs beside its connections ([`App::service`]), and
    /// when it next wants to run.
    service: Option<Box<dyn Service>>,
    service_due: Option<Instant>,
    /// The last client address accepted and its label ([`Conn::peer`]):
    /// a run of connections from one address formats it once.
    last_peer: Option<(IpAddr, Arc<str>)>,
}

impl Loop {
    /// Shard `shard`'s loop, accepting on `listener`, with `open`
    /// counting the connections its group holds under the admission cap
    /// and `pool` running its group's blocking work.
    fn new(
        shard: usize,
        listener: TcpListener,
        app: Arc<dyn App>,
        cfg: ReactorConfig,
        shutdown: Arc<AtomicBool>,
        open: Arc<AtomicUsize>,
        pool: Arc<WorkerPool>,
    ) -> io::Result<Loop> {
        listener.set_nonblocking(true)?;
        // Inherited by every accepted socket: no `setsockopt` per connection.
        sys::set_listener_nodelay(&listener)?;
        // Self-addressed UDP socket: the workers' doorbell into the loop.
        let wakeup_rx = UdpSocket::bind("127.0.0.1:0")?;
        wakeup_rx.set_nonblocking(true)?;
        wakeup_rx.connect(wakeup_rx.local_addr()?)?;
        let wakeup_tx = Arc::new(wakeup_rx.try_clone()?);
        let poller = Poller::new()?;
        let wheel = TimerWheel::new(TIMER_SLOTS, cfg.timer_tick_ms);
        let service = app.service();
        Ok(Loop {
            shard,
            listener,
            app,
            cfg,
            shutdown,
            poller,
            wakeup_rx,
            wakeup_tx,
            conns: Slab::new(),
            open,
            wheel,
            pool,
            completions: Arc::new(Mutex::new(Vec::new())),
            start: Instant::now(),
            accept_errors: 0,
            listener_parked_until: None,
            in_flight: 0,
            service,
            service_due: None,
            last_peer: None,
        })
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn run(mut self) -> io::Result<()> {
        let _live = Live::mark(&self.cfg.counters.live, self.shard);
        let result = self.run_inner();

        // Drain: close every connection. Jobs still on the group's pool
        // run; their completions have no loop left to write them.
        for (_, conn) in self.conns.drain_all() {
            self.release(&conn);
        }
        if let Some(service) = &self.service {
            let _ = self.poller.deregister(service.fd());
        }
        result
    }

    fn run_inner(&mut self) -> io::Result<()> {
        self.start_polling()?;
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut expired: Vec<TimerEntry> = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            self.turn(&mut events, &mut expired)?;
        }
        Ok(())
    }

    /// Watch the listener, the doorbell and the service's fd, and run the
    /// service for the first time.
    fn start_polling(&mut self) -> io::Result<()> {
        self.poller.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        self.poller.register(self.wakeup_rx.as_raw_fd(), TOKEN_WAKEUP, Interest::READ)?;
        if let Some(service) = &self.service {
            self.poller.register(service.fd(), TOKEN_SERVICE, Interest::READ)?;
        }
        self.run_service(false);
        Ok(())
    }

    /// One iteration: wait up to [`Loop::poll_timeout`], handle what woke
    /// the loop, then completions, expired deadlines, a parked listener
    /// and the service's deadline.
    fn turn(&mut self, events: &mut Vec<Event>, expired: &mut Vec<TimerEntry>) -> io::Result<()> {
        self.poller.wait(events, self.poll_timeout())?;

        for &ev in events.iter() {
            match ev.token {
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_WAKEUP => self.drain_wakeup(),
                TOKEN_SERVICE => self.run_service(true),
                t => self.conn_event(t - TOKEN_BASE, ev),
            }
        }

        // Checked every iteration, not only on a doorbell event: a
        // dropped wakeup datagram must not strand a finished job.
        self.drain_completions();

        let now = self.now_ms();
        self.wheel.advance(now, expired);
        for e in expired.drain(..) {
            self.expire(e);
        }

        if let Some(until) = self.listener_parked_until {
            if now >= until {
                self.listener_parked_until = None;
                let fd = self.listener.as_raw_fd();
                self.poller.register(fd, TOKEN_LISTENER, Interest::READ)?;
            }
        }

        if self.service_due.is_some_and(|due| due <= Instant::now()) {
            self.run_service(false);
        }

        self.cfg.counters.poller_syscalls.add_at(self.shard, self.poller.take_syscalls());
        Ok(())
    }

    /// How long the next poll may sleep, in ms (`-1`: until an event).
    /// While the wheel holds entries or a worker holds a request, until
    /// the next tick, so a finished job whose doorbell datagram was lost
    /// waits one tick at most. Otherwise only a parked listener and the
    /// service's deadline bound it: an idle loop sleeps until an fd, the
    /// doorbell or [`ReactorHandle::join`] wakes it.
    fn poll_timeout(&self) -> i32 {
        let now = self.now_ms();
        let ticking = self.in_flight > 0 || self.wheel.pending() > 0;
        let service_ms = self.service_due.map(|due| {
            due.saturating_duration_since(Instant::now()).as_micros().div_ceil(1000) as u64
        });
        [
            ticking.then(|| self.wheel.ms_to_next_tick(now)),
            self.listener_parked_until.map(|until| until.saturating_sub(now)),
            service_ms,
        ]
        .into_iter()
        .flatten()
        .min()
        .map_or(-1, |ms| ms.min(i32::MAX as u64) as i32)
    }

    /// Run the service (`readable`: its fd woke the loop) and keep the
    /// deadline it asks for.
    fn run_service(&mut self, readable: bool) {
        if let Some(service) = self.service.as_mut() {
            self.service_due = service.run(readable);
        }
    }

    // -------------------------------------------------- accept + admission

    fn accept_ready(&mut self) {
        match self.app.accept_gate() {
            AcceptGate::Proceed => {}
            AcceptGate::Pause => {
                // Hold the backlog: park the listener briefly and re-check
                // the gate on the way back in.
                self.park_listener(20);
                return;
            }
            AcceptGate::FailFd => {
                // Synthetic EMFILE: exercise the same backoff path a real
                // fd-exhausted process would take.
                self.accept_failed();
                return;
            }
        }
        for _ in 0..ACCEPT_BURST {
            match sys::accept(&self.listener) {
                Ok((stream, peer)) => {
                    self.accept_errors = 0;
                    self.take(stream, peer);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.accept_failed();
                    break;
                }
            }
        }
    }

    /// Take the listener out of the poller for `ms`; the loop re-arms it.
    fn park_listener(&mut self, ms: u64) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.listener_parked_until = Some(self.now_ms() + ms);
    }

    /// `accept(2)` failed (EMFILE & friends, real or the gate's): count
    /// it and back the listener off exponentially instead of spinning hot.
    fn accept_failed(&mut self) {
        self.cfg.counters.accept_errors.inc();
        self.accept_errors = self.accept_errors.saturating_add(1);
        self.park_listener(5u64.saturating_mul(1 << self.accept_errors.min(8)).min(1000));
    }

    /// One accepted connection: counted, then shed at the cap or admitted
    /// and read at once.
    fn take(&mut self, stream: TcpStream, peer: SocketAddr) {
        self.cfg.counters.accepted.inc_at(self.shard);
        let Some(seat) = Seat::take(&self.open, self.cfg.max_conns) else {
            self.shed(stream);
            return;
        };
        let t0 = Instant::now();
        let idx = self.admit(stream, seat, peer);
        self.cfg.counters.phases.record(Phase::Accept, t0.elapsed().as_micros() as u64);
        // The request is almost always in the socket by the time accept
        // returns: read it now. The poller and the wheel hear of this
        // connection only if that read (or the answer's write) would
        // block, or a worker takes the request.
        self.on_readable(idx);
    }

    /// Refuse a connection with 503 (best effort) and drop it.
    fn shed(&mut self, stream: TcpStream) {
        self.cfg.counters.shed.inc_at(self.shard);
        let wire = Response::unavailable(self.app.retry_after_secs()).to_bytes(false);
        let mut s = stream;
        let _ = s.write(&wire); // small; fits the socket buffer or is lost
    }

    /// Track a connection (accepted non-blocking, with the listener's
    /// `TCP_NODELAY`); returns its slab index. Nothing reaches the poller
    /// or the wheel here.
    fn admit(&mut self, stream: TcpStream, seat: Seat, peer: SocketAddr) -> usize {
        let deadline_ms = self.now_ms() + self.cfg.read_timeout.as_millis() as u64;
        let ip = peer.ip();
        let peer = match &self.last_peer {
            Some((last, label)) if *last == ip => Arc::clone(label),
            _ => {
                let label: Arc<str> = ip.to_string().into();
                self.last_peer = Some((ip, Arc::clone(&label)));
                label
            }
        };
        let conn = Conn {
            stream,
            _seat: seat,
            peer,
            state: ConnState::Reading,
            carry: Vec::new(),
            out_shared: None,
            out_head: Vec::new(),
            out_body: Bytes::new(),
            out_pos: 0,
            out_file: None,
            out_planned: 0,
            keep_alive: false,
            rounds: 0,
            clock: EvictClock::new(deadline_ms),
            registered: false,
            interest: Interest::NONE,
            req_started: None,
            write_started: None,
            budget_deadline_ms: None,
        };
        let (idx, _) = self.conns.insert(conn);
        self.cfg.counters.open.inc_at(self.shard);
        idx
    }

    // -------------------------------------------------------- I/O events

    fn conn_event(&mut self, idx: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(idx) else { return };
        match conn.state {
            ConnState::Reading | ConnState::ReadingBody { .. } => {
                if ev.error {
                    self.close(idx);
                } else if ev.readable {
                    self.on_readable(idx);
                }
            }
            ConnState::Writing => {
                if ev.error {
                    self.close(idx);
                } else if ev.writable || ev.readable {
                    // `readable` here is HUP leaking through: the write
                    // will surface the broken pipe.
                    self.on_writable(idx);
                }
            }
            ConnState::Dispatched => {
                // Interest is NONE, so only a reset arrives; the worker
                // holds a generation-checked key, so closing now is safe.
                // A readable edge here predates the dispatch (or is a
                // half-close, whose client still wants the answer); a
                // client that hung up with a FIN is found by the write.
                if ev.error {
                    self.close(idx);
                }
            }
        }
    }

    fn on_readable(&mut self, idx: usize) {
        let mut chunk = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(idx) else { return };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => {
                    let first_byte = conn.req_started.is_none();
                    if first_byte {
                        conn.req_started = Some(Instant::now());
                    }
                    conn.carry.extend_from_slice(&chunk[..n]);
                    if !self.progress(idx) {
                        return; // state advanced away from reading
                    }
                    // Only a request its first read left incomplete
                    // needs the parse clock.
                    if first_byte {
                        self.arm_parse_deadline(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Registers the socket the first time round.
                    self.set_interest(idx, Interest::READ);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// A request's first bytes arrived and did not complete it: from
    /// here the whole head must parse within the parse budget (the
    /// deadline ladder's 25% cutoff, never looser than the read timeout).
    /// The deadline is *absolute* — later trickled bytes never push it
    /// out — so a slowloris client dribbling one header byte per tick is
    /// evicted on schedule instead of resetting the clock with every
    /// byte.
    fn arm_parse_deadline(&mut self, idx: usize) {
        let parse_ms = (self.cfg.request_budget.as_millis() as u64 / 4)
            .min(self.cfg.read_timeout.as_millis() as u64)
            .max(1);
        let deadline_ms = self.now_ms() + parse_ms;
        let Some(conn) = self.conns.get_mut(idx) else { return };
        if deadline_ms >= conn.clock.deadline_ms() {
            return; // the idle-read deadline is already at least as tight
        }
        self.set_deadline(idx, deadline_ms);
    }

    /// Move a connection's eviction deadline. The wheel hears of it only
    /// when the deadline moved earlier than the entry already pending,
    /// which the new entry replaces; see [`EvictClock`].
    fn set_deadline(&mut self, idx: usize, deadline_ms: u64) {
        let Some(gen) = self.conns.gen_of(idx) else { return };
        let Some(conn) = self.conns.get_mut(idx) else { return };
        let superseded = conn.clock.pending();
        if let Some(deadline_ms) = conn.clock.set(deadline_ms) {
            if let Some(old_ms) = superseded {
                self.wheel.cancel(TimerEntry { token: idx, gen, deadline_ms: old_ms });
            }
            self.wheel.schedule(TimerEntry { token: idx, gen, deadline_ms });
        }
    }

    /// Try to advance a Reading/ReadingBody connection using buffered
    /// bytes only. Returns true while the connection still wants reads.
    fn progress(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(idx) else { return false };
            match &conn.state {
                ConnState::Reading => match try_parse_request(&conn.carry) {
                    Ok(None) => return true,
                    Ok(Some((req, used))) => {
                        conn.carry.drain(..used);
                        let need = match body_length(&req) {
                            Ok(n) => n,
                            Err(()) => {
                                self.bad_request(idx);
                                return false;
                            }
                        };
                        if conn.carry.len() >= need {
                            let body: Vec<u8> = conn.carry.drain(..need).collect();
                            self.dispatch(idx, req, body);
                            return false;
                        }
                        conn.state = ConnState::ReadingBody { req: Box::new(req), need };
                        // Loop again: maybe the body is already here (it
                        // isn't — we just checked — so this returns true).
                    }
                    Err(_malformed) => {
                        self.bad_request(idx);
                        return false;
                    }
                },
                ConnState::ReadingBody { need, .. } => {
                    let need = *need;
                    if conn.carry.len() < need {
                        return true;
                    }
                    let body: Vec<u8> = conn.carry.drain(..need).collect();
                    let ConnState::ReadingBody { req, .. } =
                        std::mem::replace(&mut conn.state, ConnState::Reading)
                    else {
                        unreachable!()
                    };
                    self.dispatch(idx, *req, body);
                    return false;
                }
                _ => return false,
            }
        }
    }

    // ----------------------------------------------------- request lifecycle

    fn dispatch(&mut self, idx: usize, req: Request, body: Vec<u8>) {
        let Some(gen) = self.conns.gen_of(idx) else { return };
        let dispatched = Instant::now();
        let loop_now_ms = self.now_ms();
        let Some(conn) = self.conns.get_mut(idx) else { return };
        // Pipelined requests whose bytes were already buffered (dispatch
        // straight out of write_done) have no first-byte mark: count 0.
        let started = conn.req_started.take();
        let parse_us = started.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0);
        let deadline =
            RequestDeadline::new(started.unwrap_or(dispatched), self.cfg.request_budget);
        conn.rounds += 1;
        let client_keep = req
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("keep-alive"))
            .unwrap_or(false);
        conn.state = ConnState::Dispatched;
        // Clamp this request's eviction to its budget: whatever else
        // happens, the connection is resolved by the budget's end.
        conn.budget_deadline_ms =
            Some(loop_now_ms + deadline.remaining().as_millis() as u64);
        let seal = Seal {
            shard: self.shard,
            deadline,
            keep_alive: client_keep && conn.rounds < self.cfg.keepalive_limit,
            head_only: req.method == Method::Head,
        };
        // The head parsed: the slowloris parse deadline has done its job.
        // Push eviction back out so a slow *fulfillment* (worker queue,
        // stalled disk) isn't evicted on the parse clock; start_write
        // sets the write deadline when the response is ready.
        let evict_ms = loop_now_ms + self.cfg.read_timeout.as_millis() as u64;
        if conn.clock.deadline_ms() < evict_ms {
            self.set_deadline(idx, evict_ms);
        }
        let counters = &self.cfg.counters;
        counters.phases.record(Phase::Parse, parse_us);
        if deadline.overrun(Phase::Parse) {
            // A trickled head already ate most of the budget: refuse the
            // work before paying for fulfillment.
            counters.deadline_overruns.inc();
            let resp = Response::unavailable(self.app.retry_after_secs());
            self.start_write(idx, Wire::closing(resp));
            return;
        }
        // First look, on this thread: a request that cannot block is
        // answered here and never meets the pool. The socket's interest
        // is left alone — it changes only if the write blocks.
        let Some(conn) = self.conns.get_mut(idx) else { return };
        let continuation = match self.app.first_look(&conn.peer, &req, &body) {
            Some(FirstLook::Done(reply)) => {
                let counters = &self.cfg.counters;
                let wire = seal.finish(&*self.app, counters, Some(reply));
                counters.inline.inc_at(self.shard);
                counters.inline_us.record(dispatched.elapsed().as_micros() as u64);
                // A pipelined client re-enters dispatch from this write's
                // write_done; `keepalive_limit` bounds that recursion.
                self.start_write(idx, wire);
                return;
            }
            Some(FirstLook::Blocking(continuation)) => Some(continuation),
            None => None,
        };
        let peer = Arc::clone(&conn.peer);
        // The request waits on a worker: the socket goes quiet in the
        // poller (registered now, if this is its first wait, so a reset
        // still reaches it) and the wheel enforces the budget.
        self.set_interest(idx, Interest::NONE);
        // The worker may outlive this request's relevance (evicted client);
        // the generation check on completion makes that harmless.
        let app = Arc::clone(&self.app);
        let counters = Arc::clone(&self.cfg.counters);
        let completions = Arc::clone(&self.completions);
        let wakeup = Arc::clone(&self.wakeup_tx);
        let enqueued = Instant::now();
        let job = Box::new(move || {
            // Queue wait is the admission controller's signal: the time
            // between submission and this line is pure sojourn — the
            // request did nothing but stand in line.
            app.on_queue_sojourn(enqueued.elapsed().as_micros() as u64);
            // Budget checks bracket fulfillment: skip the work entirely if
            // the fetch checkpoint already passed (queueing delay), and
            // `finish` replaces a too-late response with a definite 503.
            let reply = (!seal.deadline.overrun(Phase::Fetch)).then(|| match continuation {
                Some(continuation) => continuation(&peer, &req, &body),
                None => app.respond(&peer, &req, &body),
            });
            let done = Completion { token: idx, gen, wire: seal.finish(&*app, &counters, reply) };
            match completions.lock() {
                Ok(mut q) => q.push(done),
                Err(poisoned) => poisoned.into_inner().push(done),
            }
            let _ = wakeup.send(&[1]);
        });
        match self.pool.try_submit_from(self.shard, job) {
            Ok(()) => self.in_flight += 1,
            Err(_job) => {
                // Every worker busy and the queue full: shed at the
                // request level rather than queue unboundedly.
                self.cfg.counters.shed.inc_at(self.shard);
                let resp = Response::unavailable(self.app.retry_after_secs());
                self.start_write(idx, Wire::closing(resp));
            }
        }
    }

    fn bad_request(&mut self, idx: usize) {
        self.cfg.counters.bad_requests.inc();
        self.start_write(idx, Wire::closing(Response::error(StatusCode::BadRequest)));
    }

    fn drain_wakeup(&mut self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = self.wakeup_rx.recv(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut q = match self.completions.lock() {
                Ok(q) => q,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *q)
        };
        self.in_flight = self.in_flight.saturating_sub(done.len());
        for c in done {
            if self.conns.get_mut_checked(c.token, c.gen).is_none() {
                continue; // connection died while the worker ran
            }
            let Some(conn) = self.conns.get_mut(c.token) else { continue };
            if !matches!(conn.state, ConnState::Dispatched) {
                continue;
            }
            self.start_write(c.token, c.wire);
        }
    }

    fn start_write(&mut self, idx: usize, wire: Wire) {
        let Wire { shared, head, body, file, keep_alive } = wire;
        let unbudgeted_ms = self.now_ms() + self.cfg.request_budget.as_millis() as u64;
        let file_len = file.as_ref().map(|f| (f.end - f.offset) as usize).unwrap_or(0);
        let shared_len = shared.as_ref().map_or(0, |h| h.before_gap().len() + h.after_gap().len());
        let planned = shared_len + head.len() + body.len() + file_len;
        let deadline_ms = {
            let Some(conn) = self.conns.get_mut(idx) else { return };
            self.cfg.counters.bytes_in_flight.add_at(self.shard, planned as i64);
            conn.out_shared = shared;
            conn.out_head = head;
            conn.out_body = body;
            conn.out_pos = 0;
            conn.out_file = file;
            conn.out_planned = planned;
            conn.keep_alive = keep_alive;
            conn.state = ConnState::Writing;
            conn.write_started = Some(Instant::now());
            // The budget's end, fixed at dispatch: transmit progress never
            // moves it. A 400 has no budget.
            conn.budget_deadline_ms.unwrap_or(unbudgeted_ms)
        };
        self.set_deadline(idx, deadline_ms);

        // Optimistic write: most responses fit the socket buffer, saving a
        // poll round-trip. Falls back to WRITE interest if it blocks.
        self.on_writable(idx);
    }

    fn on_writable(&mut self, idx: usize) {
        enum Step {
            Again,
            Block,
            Fail,
            Done,
        }
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(idx) else { return };
                let pieces = conn.out_pieces();
                let buf_total: usize = pieces.iter().map(|p| p.len()).sum();
                if conn.out_pos < buf_total {
                    // Buffered part: head ‖ body gathered in one syscall.
                    let fd = conn.stream.as_raw_fd();
                    let rest = unsent(pieces, conn.out_pos);
                    match sys::send_vectored(fd, &rest, conn.more_follows()) {
                        Ok(0) => Step::Fail,
                        Ok(n) => {
                            conn.out_pos += n;
                            Step::Again
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Step::Block,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => Step::Again,
                        Err(_) => Step::Fail,
                    }
                } else if let Some(ft) = conn.out_file.as_mut() {
                    if ft.offset >= ft.end {
                        Step::Done
                    } else {
                        // File part: stream in-kernel, ≤1 MiB per call so
                        // one huge transfer can't monopolize the loop.
                        let out_fd = conn.stream.as_raw_fd();
                        let in_fd = ft.file.as_raw_fd();
                        let want = (ft.end - ft.offset).min(1u64 << 20) as usize;
                        match sys::send_file(out_fd, in_fd, &mut ft.offset, want) {
                            // EOF before the advertised length: the file
                            // was truncated underneath us; the client sees
                            // a short body, which closing makes explicit.
                            Ok(0) => Step::Fail,
                            Ok(_) => Step::Again,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Step::Block,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => Step::Again,
                            Err(_) => Step::Fail,
                        }
                    }
                } else {
                    Step::Done
                }
            };
            match step {
                Step::Again => {}
                Step::Block => {
                    self.set_interest(idx, Interest::WRITE);
                    return;
                }
                Step::Fail => {
                    self.write_done(idx, false);
                    return;
                }
                Step::Done => {
                    self.write_done(idx, true);
                    return;
                }
            }
        }
    }

    /// A write finished (fully, or by error). Account it, then either
    /// recycle the connection for keep-alive or close it.
    fn write_done(&mut self, idx: usize, ok: bool) {
        let (keep, written, write_us) = {
            let Some(conn) = self.conns.get_mut(idx) else { return };
            let written = conn.out_planned;
            conn.out_shared = None;
            conn.out_head = Vec::new();
            conn.out_body = Bytes::new();
            conn.out_pos = 0;
            conn.out_file = None;
            conn.out_planned = 0;
            conn.budget_deadline_ms = None;
            let write_us = conn
                .write_started
                .take()
                .map(|t| t.elapsed().as_micros() as u64)
                .unwrap_or(0);
            (conn.keep_alive, written, write_us)
        };
        let counters = &self.cfg.counters;
        counters.bytes_in_flight.sub_at(self.shard, written as i64);
        if ok {
            counters.phases.record(Phase::Write, write_us);
        }
        if !ok || !keep {
            if ok {
                // The FIN goes out behind the corked tail of the reply,
                // before `close` can reset a connection whose client
                // sent more than its request.
                if let Some(conn) = self.conns.get_mut(idx) {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                }
            }
            self.close(idx);
            return;
        }
        let deadline_ms = self.now_ms() + self.cfg.read_timeout.as_millis() as u64;
        let registered = {
            let Some(conn) = self.conns.get_mut(idx) else { return };
            conn.state = ConnState::Reading;
            conn.registered
        };
        self.set_deadline(idx, deadline_ms);
        if registered {
            self.set_interest(idx, Interest::READ);
        }
        // Pipelined bytes may already complete the next request. If not,
        // a connection that has never waited reads on (registering only
        // if that would block); a registered one hears from the poller.
        if self.progress(idx) && !registered {
            self.on_readable(idx);
        }
    }

    // ------------------------------------------------------------ plumbing

    /// Set what the poller watches `idx` for. The first call registers
    /// the socket and arms the connection's eviction clock, pushing its
    /// one wheel entry: a connection is watched, by the poller and by the
    /// wheel, from the first time something would block.
    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let Some(gen) = self.conns.gen_of(idx) else { return };
        let Some(conn) = self.conns.get_mut(idx) else { return };
        if conn.registered && conn.interest == interest {
            return;
        }
        conn.interest = interest;
        let (fd, token) = (conn.stream.as_raw_fd(), TOKEN_BASE + idx);
        let result = if conn.registered {
            self.poller.modify(fd, token, interest)
        } else {
            let result = self.poller.register(fd, token, interest);
            if result.is_ok() {
                conn.registered = true;
                if let Some(deadline_ms) = conn.clock.arm() {
                    self.wheel.schedule(TimerEntry { token: idx, gen, deadline_ms });
                }
            }
            result
        };
        if result.is_err() {
            self.close(idx);
        }
    }

    fn expire(&mut self, e: TimerEntry) {
        let now_ms = self.now_ms();
        let Some(conn) = self.conns.get_mut_checked(e.token, e.gen) else {
            return; // stale: connection already gone or recycled
        };
        match conn.clock.fired(e.deadline_ms, now_ms) {
            Fired::Stale => {}
            Fired::Rearm(deadline_ms) => self.wheel.schedule(TimerEntry { deadline_ms, ..e }),
            Fired::Evict => {
                self.cfg.counters.evicted.inc_at(self.shard);
                self.close(e.token);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(gen) = self.conns.gen_of(idx) else { return };
        if let Some(conn) = self.conns.remove(idx) {
            // Its wheel entry goes with it: a stale entry would keep the
            // loop ticking until the deadline, long after the connection.
            if let Some(deadline_ms) = conn.clock.pending() {
                self.wheel.cancel(TimerEntry { token: idx, gen, deadline_ms });
            }
            self.release(&conn);
            // conn.stream drops here, closing the fd.
        }
    }

    /// Let go of a connection leaving the slab: out of the poller, out of
    /// the open count, and its unwritten reply out of the bytes in flight.
    fn release(&mut self, conn: &Conn) {
        // Deregistered explicitly, not left to close(2): any child a
        // handler or test spawns holds a copy of the fd between fork and
        // exec, which would keep a stale registration alive on a recycled
        // token.
        if conn.registered {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        let counters = &self.cfg.counters;
        counters.open.dec_at(self.shard);
        counters.bytes_in_flight.sub_at(self.shard, conn.out_planned as i64);
    }
}

/// A loop's mark in [`Counters::live`], held while it runs: dropped as
/// the loop exits, by return or by panic.
struct Live(Arc<ShardedGauge>, usize);

impl Live {
    fn mark(live: &Arc<ShardedGauge>, shard: usize) -> Live {
        live.inc_at(shard);
        Live(Arc::clone(live), shard)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.0.dec_at(self.1);
    }
}

/// Expected body length for a parsed request head; `Err` means the head
/// is unserviceable (POST without/with oversized `Content-Length`).
fn body_length(req: &Request) -> Result<usize, ()> {
    if req.method != Method::Post {
        return Ok(0);
    }
    let len = req.headers.content_length().ok_or(())?;
    if len > MAX_BODY_BYTES {
        return Err(());
    }
    Ok(len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_length_rules() {
        let parse = |raw: &[u8]| try_parse_request(raw).unwrap().unwrap().0;
        let get = parse(b"GET / HTTP/1.0\r\n\r\n");
        assert_eq!(body_length(&get), Ok(0));
        let post = parse(b"POST /cgi HTTP/1.0\r\nContent-Length: 12\r\n\r\n");
        assert_eq!(body_length(&post), Ok(12));
        let no_len = parse(b"POST /cgi HTTP/1.0\r\n\r\n");
        assert_eq!(body_length(&no_len), Err(()));
        let huge = parse(b"POST /cgi HTTP/1.0\r\nContent-Length: 99999999\r\n\r\n");
        assert_eq!(body_length(&huge), Err(()));
    }

    /// Answers every request on the loop thread.
    struct Inline;

    impl App for Inline {
        fn respond(&self, _: &str, _: &Request, _: &[u8]) -> Reply {
            Response::ok("pool", "text/plain").into()
        }
        fn first_look(&self, _: &str, _: &Request, _: &[u8]) -> Option<FirstLook> {
            Some(FirstLook::Done(Response::ok("inline", "text/plain").into()))
        }
    }

    /// Voluntary plus involuntary context switches of the calling thread.
    fn ctx_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn a_closed_connection_takes_its_timer_with_it() {
        // The loop runs on this thread, one turn at a time. 50 clients
        // connect and hold their requests until all 50 are accepted, so
        // every first read would block: each connection registers and
        // puts one entry in the wheel. Then each sends its request, is
        // answered inline and closed.
        const CLIENTS: usize = 50;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(WorkerPool::new(1, 1, "test"));
        let cfg = ReactorConfig::default();
        let counters = Arc::clone(&cfg.counters);
        let mut lp = Loop::new(
            0,
            listener,
            Arc::new(Inline),
            cfg,
            Arc::clone(&shutdown),
            Arc::default(),
            pool,
        )
        .unwrap();
        let wakeup_tx = Arc::clone(&lp.wakeup_tx);
        lp.start_polling().unwrap();

        let open = Arc::clone(&counters.open);
        let clients = std::thread::spawn(move || {
            let mut streams: Vec<TcpStream> =
                (0..CLIENTS).map(|_| TcpStream::connect(addr).unwrap()).collect();
            // No connection closes before every one is open.
            while open.get() < CLIENTS as i64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for s in &mut streams {
                s.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
                let mut reply = Vec::new();
                s.read_to_end(&mut reply).unwrap();
                assert!(reply.starts_with(b"HTTP/1.0 200"), "{}", String::from_utf8_lossy(&reply));
            }
        });
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let mut peak = 0;
        while counters.served.get() < CLIENTS as u64 || counters.open.get() > 0 {
            lp.turn(&mut events, &mut expired).unwrap();
            peak = peak.max(lp.wheel.pending());
        }
        clients.join().unwrap();
        assert_eq!(peak, CLIENTS, "every connection waited once");
        assert_eq!(lp.wheel.pending(), 0, "closed connections left their entries behind");

        // Nothing left to time: the loop sleeps until the doorbell rings a
        // second later, instead of ticking every `timer_tick_ms`.
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(1));
            shutdown.store(true, Ordering::SeqCst);
            wakeup_tx.send(&[1]).unwrap();
        });
        let before = ctx_switches();
        while !lp.shutdown.load(Ordering::SeqCst) {
            lp.turn(&mut events, &mut expired).unwrap();
        }
        let switches = ctx_switches() - before;
        ringer.join().unwrap();
        assert!(switches <= 5, "{switches} context switches in an idle second");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ReactorConfig::default();
        assert!(cfg.max_conns > 0 && cfg.workers > 0 && cfg.keepalive_limit > 1);
        assert!(cfg.timer_tick_ms > 0);
    }
}
