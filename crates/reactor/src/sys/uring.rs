//! The io_uring backend: completion-based I/O with batched syscalls.
//!
//! Where epoll charges one syscall per readiness notification and one
//! more per `accept`/`writev`, io_uring amortizes all of them into (at
//! most) one `io_uring_enter` per loop tick: the shard queues submission
//! entries (SQEs) into a shared-memory ring, the kernel posts completion
//! entries (CQEs) into a second ring, and a tick that finds completions
//! already posted needs **zero** syscalls. On top of the plain poll
//! translation this backend implements:
//!
//! * **multishot accept** on the listener — one SQE yields a stream of
//!   accepted-fd CQEs, no `accept(2)` calls at all;
//! * **multishot poll** for connection readiness — one SQE per interest
//!   change rather than per event;
//! * **registered (fixed) files** — long-lived connection fds are
//!   installed into the ring's file table with inline `FILES_UPDATE`
//!   SQEs, skipping the per-op fd lookup;
//! * **queued writes with linked SQE chains** — the cache-hit response
//!   is submitted as a `WRITEV` SQE; on keep-alive it carries
//!   `IOSQE_IO_LINK` into the next-request `POLL_ADD`, so
//!   write-response → await-next-request re-enters the kernel zero
//!   times between requests;
//! * **registered buffers + `WRITE_FIXED`** — small responses are
//!   staged into a pre-registered buffer pool (sized off the file
//!   cache's per-segment budget) and sent as `WRITE_FIXED`, so the
//!   kernel skips per-op buffer mapping *and* the response `Bytes`
//!   drops at submission instead of being pinned until the CQE;
//! * **`SEND_ZC`** for large bodies — the uring-native successor to
//!   the sendfile path: the kernel transmits straight from the shared
//!   body pages (no copy into socket buffers), completion arrives as a
//!   result CQE plus a buffer-release notification CQE, and the op's
//!   buffers stay alive until the notification lands.
//!
//! Everything is raw FFI (syscalls 425/426/427 + `mmap`), matching the
//! crate's no-dependency policy. The [`super::Poller`] seam keeps the
//! level-triggered contract: `POLL_ADD` performs a readiness check at
//! arm time (an already-ready fd completes inline), so re-arming after
//! each interest change behaves like level-triggered epoll with at most
//! one benign spurious wakeup per transition.
//!
//! Feature detection is dynamic: multishot poll/accept downgrade to
//! oneshot on `EINVAL` (older kernels), the fixed-file table is skipped
//! if sparse registration fails, and [`UringPoller::new`] refuses
//! kernels without `SINGLE_MMAP`/`NODROP`/`EXT_ARG` so callers fall
//! back to epoll.

use super::{Event, Interest, IoStats, IoVec};
use crate::slab::Slab;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU32, Ordering};

const SYS_IO_URING_SETUP: i64 = 425;
const SYS_IO_URING_ENTER: i64 = 426;
const SYS_IO_URING_REGISTER: i64 = 427;

const IORING_OP_WRITEV: u8 = 2;
const IORING_OP_WRITE_FIXED: u8 = 5;
const IORING_OP_POLL_ADD: u8 = 6;
const IORING_OP_ACCEPT: u8 = 13;
const IORING_OP_ASYNC_CANCEL: u8 = 14;
const IORING_OP_FILES_UPDATE: u8 = 20;
const IORING_OP_SEND_ZC: u8 = 47;

const IORING_SETUP_CQSIZE: u32 = 1 << 3;
const IORING_SETUP_CLAMP: u32 = 1 << 4;

const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
const IORING_FEAT_NODROP: u32 = 1 << 1;
const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

const IOSQE_FIXED_FILE: u8 = 1 << 0;
const IOSQE_IO_LINK: u8 = 1 << 2;

/// Multishot flag for `POLL_ADD`; lives in `sqe.len`.
const IORING_POLL_ADD_MULTI: u32 = 1 << 0;
/// Multishot flag for `ACCEPT`; lives in `sqe.ioprio`.
const IORING_ACCEPT_MULTISHOT: u16 = 1 << 0;

const IORING_CQE_F_MORE: u32 = 1 << 1;
/// This CQE is a zero-copy buffer-release notification, not a result.
const IORING_CQE_F_NOTIF: u32 = 1 << 3;

/// `SOCK_CLOEXEC` for the `ACCEPT` op's accept4-style flags.
const SOCK_CLOEXEC: u32 = 0o2000000;

const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

const IORING_SQ_CQ_OVERFLOW: u32 = 1 << 1;

const IORING_REGISTER_BUFFERS: u32 = 0;
const IORING_UNREGISTER_BUFFERS: u32 = 1;
const IORING_REGISTER_FILES: u32 = 2;
const IORING_UNREGISTER_FILES: u32 = 3;
const IORING_REGISTER_PROBE: u32 = 8;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_SQES: i64 = 0x1000_0000;

const POLLIN: u32 = 0x001;
const POLLOUT: u32 = 0x004;
const POLLERR: u32 = 0x008;
const POLLHUP: u32 = 0x010;
const POLLRDHUP: u32 = 0x2000;

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EBUSY: i32 = 16;
const EINVAL: i32 = 22;
const ETIME: i32 = 62;
const EOPNOTSUPP: i32 = 95;
const ECANCELED: i32 = 125;

/// Submission ring depth. 256 slots is comfortably more than one loop
/// tick produces; overflow spills to a userspace backlog that preserves
/// submission order (ordering matters for cancel-after-arm and links).
const SQ_ENTRIES: u32 = 256;
/// Completion ring depth: sized for multishot storms (accept bursts plus
/// one CQE per held connection) so `NODROP` overflow handling stays the
/// exception, not the rule.
const CQ_ENTRIES: u32 = 4096;
/// Sparse fixed-file table size: one slot per possible connection.
const FIXED_TABLE: u32 = 4096;

/// Registered-buffer slot size. Covers a response head plus any body the
/// file cache would call "small" (the long tail of document sizes);
/// anything larger goes out as plain `WRITEV` or `SEND_ZC`.
const BUF_SLOT: usize = 16 * 1024;
/// Default registered-buffer pool size when the caller doesn't wire one
/// (matches the file cache's default 2 MiB per-segment share).
pub(crate) const DEFAULT_BUF_POOL: usize = 2 << 20;
/// Bodies at least this large are sent with `SEND_ZC` instead of
/// `WRITEV`: below it, the page-pinning setup costs more than the copy
/// it avoids.
const ZC_MIN_BODY: usize = 64 * 1024;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const MAP_POPULATE: i32 = 0x8000;

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn close(fd: i32) -> i32;
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct SqOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct CqOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct IoUringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqOffsets,
    cq_off: CqOffsets,
}

/// One submission-queue entry (64-byte kernel ABI).
#[repr(C)]
#[derive(Clone, Copy)]
struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    op_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    pad: [u64; 2],
}

impl Sqe {
    fn zeroed() -> Sqe {
        // Safety: Sqe is plain-old-data; all-zero is the kernel's no-op
        // baseline for every field.
        unsafe { std::mem::zeroed() }
    }
}

/// One completion-queue entry (16-byte kernel ABI).
#[repr(C)]
#[derive(Clone, Copy)]
struct Cqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

#[repr(C)]
struct GeteventsArg {
    sigmask: u64,
    sigmask_sz: u32,
    pad: u32,
    ts: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// user_data layout: kind(2) | registration-or-op index(30) | seq(32).
// The seq is a global monotonic arm counter: a CQE whose seq does not
// match the slot's current seq is from a previous life of the slot and
// is dropped, the same staleness discipline the loop's generational
// slab uses.
const KIND_POLL: u8 = 0;
const KIND_ACCEPT: u8 = 1;
const KIND_WRITE: u8 = 2;
const KIND_MISC: u8 = 3;

/// `KIND_MISC` seq values (MISC ops carry their discriminator in seq).
const MISC_CANCEL: u32 = 0;
const MISC_FILES_UPDATE: u32 = 1;

fn pack(kind: u8, idx: usize, seq: u32) -> u64 {
    ((kind as u64) << 62) | (((idx as u64) & 0x3fff_ffff) << 32) | seq as u64
}

/// One watched fd (connection or listener).
struct Reg {
    fd: RawFd,
    token: usize,
    interest: Interest,
    is_accept: bool,
    /// Seq of the currently-armed SQE (stale CQEs are dropped on mismatch).
    seq: u32,
    armed: bool,
    /// Kind of the armed SQE (`KIND_ACCEPT` listeners downgrade to
    /// `KIND_POLL` when multishot accept is unavailable).
    kind: u8,
    /// Slot in the registered-file table, when one was available.
    fixed_slot: Option<u32>,
}

/// An in-flight queued write (`WRITEV`, `WRITE_FIXED`, or `SEND_ZC`).
/// The kernel reads `iov` (and through it `head`/`body`, or the staged
/// pool slot) asynchronously, so the op must stay alive — buffers
/// unmoved — until its CQE arrives, even if the connection dies first.
/// `SEND_ZC` ops additionally stay alive until every buffer-release
/// notification CQE has landed (`zc_pending`), because the kernel reads
/// the body pages until then.
struct WriteOp {
    token: usize,
    reg_idx: usize,
    reg_gen: u64,
    head: Vec<u8>,
    body: Bytes,
    pos: usize,
    /// Total response length. Staged (`fixed_buf`) ops drop `head`/`body`
    /// at submission, so the length has to live here.
    total: usize,
    iov: Box<[IoVec; 2]>,
    seq: u32,
    link_read: bool,
    /// Registered-buffer slot the response was staged into, if any.
    fixed_buf: Option<u32>,
    /// Send the body portion with `SEND_ZC` instead of `WRITEV`.
    send_zc: bool,
    /// Outstanding `SEND_ZC` notification CQEs; the op cannot be freed
    /// while any remain.
    zc_pending: u32,
    /// Data path finished (completed, failed, or connection gone); the
    /// op is only waiting out `zc_pending`.
    finished: bool,
}

/// An in-flight `FILES_UPDATE` (the fd value must stay addressable until
/// the CQE). `reg_idx == usize::MAX` marks a slot-clearing update whose
/// failure needs no rollback.
struct UpdateOp {
    fds: Box<i32>,
    reg_idx: usize,
    reg_gen: u64,
}

/// A per-shard io_uring instance implementing the [`super::Poller`]
/// contract, plus the completion-only extensions (`register_accept`,
/// `queue_writev`) the reactor loop uses when this backend is active.
pub struct UringPoller {
    ring_fd: RawFd,
    ring: *mut u8,
    ring_len: usize,
    sqes: *mut Sqe,
    sqes_len: usize,
    sq_khead: *const AtomicU32,
    sq_ktail: *const AtomicU32,
    sq_kflags: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    cq_khead: *const AtomicU32,
    cq_ktail: *const AtomicU32,
    cq_mask: u32,
    cqes: *const Cqe,
    /// Userspace tail: SQEs written but possibly not yet submitted.
    local_tail: u32,
    multishot_poll: bool,
    multishot_accept: bool,
    /// Whether a fixed-file table is registered with the kernel (and
    /// must be explicitly unregistered during [`UringPoller::shutdown`]).
    fixed_table: bool,
    fixed_free: Vec<u32>,
    /// Registered-buffer pool backing `WRITE_FIXED` staging: `buf_slots`
    /// equal slots of [`BUF_SLOT`] bytes, registered with the kernel at
    /// setup. Empty when registration failed or was opted out.
    buf_pool: Vec<u8>,
    buf_slots: u32,
    buf_free: Vec<u32>,
    buf_registered: bool,
    /// Kernel supports `IORING_OP_SEND_ZC` (probed at setup).
    send_zc_ok: bool,
    regs: Slab<Reg>,
    by_fd: HashMap<RawFd, usize>,
    /// Multishot accepts of deregistered (parked) listeners whose final
    /// CQE has not landed: `(user_data, token)`. Connections the kernel
    /// accepted before the cancel took effect still go to the loop.
    retired_accepts: Vec<(u64, usize)>,
    writes: Slab<WriteOp>,
    updates: Slab<UpdateOp>,
    backlog: VecDeque<Sqe>,
    scratch: Vec<Event>,
    seq: u32,
    stats: IoStats,
}

// Safety: the ring is owned by exactly one shard thread; the raw
// pointers reference mappings private to this instance. `Send` (not
// `Sync`) matches how the reactor moves its poller into the shard
// thread at spawn.
unsafe impl Send for UringPoller {}

fn unsupported(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, msg.to_string())
}

fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| v == "1")
}

/// `IORING_REGISTER_PROBE`: ask the kernel which opcodes it supports.
/// Returns false on kernels that predate the probe itself (5.6) — any
/// opcode new enough for us to probe for is absent there anyway.
fn probe_opcode(ring_fd: RawFd, opcode: u8) -> bool {
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct ProbeOp {
        op: u8,
        resv: u8,
        flags: u16, // bit 0: IO_URING_OP_SUPPORTED
        resv2: u32,
    }
    #[repr(C)]
    struct Probe {
        last_op: u8,
        ops_len: u8,
        resv: u16,
        resv2: [u32; 3],
        ops: [ProbeOp; 256],
    }
    let mut probe: Probe = unsafe { std::mem::zeroed() };
    let rc = unsafe {
        syscall(
            SYS_IO_URING_REGISTER,
            ring_fd as usize,
            IORING_REGISTER_PROBE as usize,
            &mut probe as *mut Probe as usize,
            256usize,
        )
    };
    rc == 0 && probe.last_op >= opcode && probe.ops[opcode as usize].flags & 1 != 0
}

impl UringPoller {
    /// Set up the ring, or fail with `Unsupported` (caller falls back to
    /// epoll) when the kernel lacks io_uring or the features we need.
    ///
    /// Switches that force a fallback on capable kernels (conformance
    /// tests and CI use them): `SWEB_URING_DISABLE=1` refuses outright,
    /// `SWEB_URING_NO_BUFS=1` skips the registered-buffer pool (every
    /// queued write goes out as plain `WRITEV`), and `SWEB_URING_NO_ZC=1`
    /// disables `SEND_ZC` (large bodies fall back to `WRITEV` /
    /// sendfile).
    pub fn new() -> io::Result<UringPoller> {
        UringPoller::with_pool_bytes(DEFAULT_BUF_POOL)
    }

    /// [`UringPoller::new`] with an explicit registered-buffer pool
    /// budget in bytes (rounded down to whole `BUF_SLOT` slots; 0
    /// disables the pool). The reactor wires the file cache's
    /// per-segment share through here so staging capacity tracks the
    /// hot-document working set.
    pub fn with_pool_bytes(pool_bytes: usize) -> io::Result<UringPoller> {
        if env_flag("SWEB_URING_DISABLE") {
            return Err(unsupported("io_uring disabled by SWEB_URING_DISABLE"));
        }
        let mut p = IoUringParams {
            cq_entries: CQ_ENTRIES,
            flags: IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP,
            ..IoUringParams::default()
        };
        let rc = unsafe {
            syscall(SYS_IO_URING_SETUP, SQ_ENTRIES as usize, &mut p as *mut IoUringParams)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let ring_fd = rc as RawFd;
        let need = IORING_FEAT_SINGLE_MMAP | IORING_FEAT_NODROP | IORING_FEAT_EXT_ARG;
        if p.features & need != need {
            unsafe { close(ring_fd) };
            return Err(unsupported("kernel io_uring lacks SINGLE_MMAP/NODROP/EXT_ARG"));
        }
        let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
        let ring_len = sq_len.max(cq_len);
        let ring = unsafe {
            mmap(
                std::ptr::null_mut(),
                ring_len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                ring_fd,
                IORING_OFF_SQ_RING,
            )
        };
        if ring as isize == -1 {
            let err = io::Error::last_os_error();
            unsafe { close(ring_fd) };
            return Err(err);
        }
        let sqes_len = p.sq_entries as usize * std::mem::size_of::<Sqe>();
        let sqes = unsafe {
            mmap(
                std::ptr::null_mut(),
                sqes_len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                ring_fd,
                IORING_OFF_SQES,
            )
        };
        if sqes as isize == -1 {
            let err = io::Error::last_os_error();
            unsafe {
                munmap(ring, ring_len);
                close(ring_fd)
            };
            return Err(err);
        }
        // Identity map the SQ index array once: slot i always holds SQE i.
        let sq_array = unsafe { ring.add(p.sq_off.array as usize) } as *mut u32;
        for i in 0..p.sq_entries {
            unsafe { sq_array.add(i as usize).write(i) };
        }
        let sq_mask = unsafe { *(ring.add(p.sq_off.ring_mask as usize) as *const u32) };
        let cq_mask = unsafe { *(ring.add(p.cq_off.ring_mask as usize) as *const u32) };
        // Sparse fixed-file table: all -1, filled per-connection with
        // FILES_UPDATE SQEs. Optional — older kernels reject sparse sets.
        let fds = vec![-1i32; FIXED_TABLE as usize];
        let rc = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                ring_fd as usize,
                IORING_REGISTER_FILES as usize,
                fds.as_ptr() as usize,
                FIXED_TABLE as usize,
            )
        };
        let fixed_free: Vec<u32> =
            if rc == 0 { (0..FIXED_TABLE).rev().collect() } else { Vec::new() };
        // Registered-buffer pool: one contiguous allocation carved into
        // BUF_SLOT-sized staging slots, registered as one iovec per slot
        // (WRITE_FIXED's buf_index selects an iovec). Registration pins
        // the pages, so failure (memlock/cgroup limits, old kernels) just
        // means every write stays a plain WRITEV.
        let mut buf_pool = Vec::new();
        let mut buf_free = Vec::new();
        let mut buf_registered = false;
        let buf_slots = if env_flag("SWEB_URING_NO_BUFS") {
            0
        } else {
            (pool_bytes / BUF_SLOT).min(1024) as u32
        };
        if buf_slots > 0 {
            buf_pool = vec![0u8; buf_slots as usize * BUF_SLOT];
            let iovs: Vec<IoVec> = (0..buf_slots as usize)
                .map(|i| IoVec { base: buf_pool[i * BUF_SLOT..].as_ptr(), len: BUF_SLOT })
                .collect();
            let rc = unsafe {
                syscall(
                    SYS_IO_URING_REGISTER,
                    ring_fd as usize,
                    IORING_REGISTER_BUFFERS as usize,
                    iovs.as_ptr() as usize,
                    buf_slots as usize,
                )
            };
            if rc == 0 {
                buf_registered = true;
                buf_free = (0..buf_slots).rev().collect();
            } else {
                buf_pool = Vec::new();
            }
        }
        // Probe the opcode table once: SEND_ZC (5.19+) gets a positive
        // capability check instead of a per-op EINVAL dance.
        let send_zc_ok = !env_flag("SWEB_URING_NO_ZC") && probe_opcode(ring_fd, IORING_OP_SEND_ZC);
        Ok(UringPoller {
            ring_fd,
            ring,
            ring_len,
            sqes: sqes as *mut Sqe,
            sqes_len,
            sq_khead: unsafe { ring.add(p.sq_off.head as usize) } as *const AtomicU32,
            sq_ktail: unsafe { ring.add(p.sq_off.tail as usize) } as *const AtomicU32,
            sq_kflags: unsafe { ring.add(p.sq_off.flags as usize) } as *const AtomicU32,
            sq_mask,
            sq_entries: p.sq_entries,
            cq_khead: unsafe { ring.add(p.cq_off.head as usize) } as *const AtomicU32,
            cq_ktail: unsafe { ring.add(p.cq_off.tail as usize) } as *const AtomicU32,
            cq_mask,
            cqes: unsafe { ring.add(p.cq_off.cqes as usize) } as *const Cqe,
            local_tail: 0,
            multishot_poll: true,
            multishot_accept: true,
            fixed_table: !fixed_free.is_empty(),
            fixed_free,
            buf_pool,
            buf_slots,
            buf_free,
            buf_registered,
            send_zc_ok,
            regs: Slab::new(),
            by_fd: HashMap::new(),
            retired_accepts: Vec::new(),
            writes: Slab::new(),
            updates: Slab::new(),
            backlog: VecDeque::new(),
            scratch: Vec::new(),
            seq: 0,
            stats: IoStats::default(),
        })
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    // ---- submission-side plumbing ----------------------------------

    fn sq_pending(&self) -> u32 {
        let head = unsafe { (*self.sq_khead).load(Ordering::Acquire) };
        self.local_tail.wrapping_sub(head)
    }

    fn cq_overflowed(&self) -> bool {
        let flags = unsafe { (*self.sq_kflags).load(Ordering::Acquire) };
        flags & IORING_SQ_CQ_OVERFLOW != 0
    }

    fn try_ring_push(&mut self, sqe: &Sqe) -> bool {
        if self.sq_pending() >= self.sq_entries {
            return false;
        }
        let slot = (self.local_tail & self.sq_mask) as usize;
        unsafe { self.sqes.add(slot).write(*sqe) };
        self.local_tail = self.local_tail.wrapping_add(1);
        unsafe { (*self.sq_ktail).store(self.local_tail, Ordering::Release) };
        true
    }

    /// Queue one SQE. Order is preserved even under ring pressure: once
    /// anything sits in the backlog, everything new goes behind it.
    fn push(&mut self, sqe: Sqe) {
        self.stats.sqe_submitted += 1;
        if !self.backlog.is_empty() || !self.try_ring_push(&sqe) {
            // SQ-pressure signal: a backlogged SQE waits at least one
            // extra submit round behind ring-resident ones, which is the
            // latency-ordering suspect for tail regressions under load.
            self.stats.sqe_backlogged += 1;
            self.backlog.push_back(sqe);
        }
    }

    /// Move backlogged SQEs into the ring, forcing a submit-only enter
    /// when the ring is full. Bounded so a wedged ring cannot spin.
    fn flush_backlog(&mut self) {
        let mut attempts = 0;
        while let Some(front) = self.backlog.front().copied() {
            if self.try_ring_push(&front) {
                self.backlog.pop_front();
                continue;
            }
            attempts += 1;
            if attempts > 8 || self.enter(self.sq_pending(), 0, 0, None).is_err() {
                break;
            }
        }
    }

    fn push_cancel(&mut self, target_user_data: u64) {
        let mut sqe = Sqe::zeroed();
        sqe.opcode = IORING_OP_ASYNC_CANCEL;
        sqe.fd = -1;
        sqe.addr = target_user_data;
        sqe.user_data = pack(KIND_MISC, 0, MISC_CANCEL);
        self.push(sqe);
    }

    /// One `io_uring_enter`: submit `to_submit` SQEs and (optionally)
    /// wait for completions. `EINTR`/`ETIME`/`EBUSY`/`EAGAIN` are
    /// treated as an empty wakeup — the caller reaps whatever is there.
    fn enter(
        &mut self,
        to_submit: u32,
        min_complete: u32,
        flags: u32,
        ts: Option<&Timespec>,
    ) -> io::Result<()> {
        self.stats.syscalls += 1;
        let rc = match ts {
            Some(t) => {
                let arg = GeteventsArg {
                    sigmask: 0,
                    sigmask_sz: 8,
                    pad: 0,
                    ts: t as *const Timespec as u64,
                };
                unsafe {
                    syscall(
                        SYS_IO_URING_ENTER,
                        self.ring_fd as usize,
                        to_submit as usize,
                        min_complete as usize,
                        (flags | IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG) as usize,
                        &arg as *const GeteventsArg as usize,
                        std::mem::size_of::<GeteventsArg>(),
                    )
                }
            }
            None => unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.ring_fd as usize,
                    to_submit as usize,
                    min_complete as usize,
                    flags as usize,
                    0usize,
                    0usize,
                )
            },
        };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(EINTR) | Some(ETIME) | Some(EBUSY) | Some(EAGAIN) => Ok(()),
            _ => Err(err),
        }
    }

    // ---- arming ----------------------------------------------------

    fn arm_poll(&mut self, ridx: usize) {
        let seq = self.next_seq();
        let multi = self.multishot_poll;
        let Some(reg) = self.regs.get_mut(ridx) else { return };
        reg.seq = seq;
        reg.armed = true;
        reg.kind = KIND_POLL;
        let mut mask = POLLERR | POLLHUP | POLLRDHUP;
        if reg.interest.readable {
            mask |= POLLIN;
        }
        if reg.interest.writable {
            mask |= POLLOUT;
        }
        let mut sqe = Sqe::zeroed();
        sqe.opcode = IORING_OP_POLL_ADD;
        if let Some(slot) = reg.fixed_slot {
            sqe.fd = slot as i32;
            sqe.flags |= IOSQE_FIXED_FILE;
        } else {
            sqe.fd = reg.fd;
        }
        sqe.op_flags = mask;
        if multi {
            sqe.len = IORING_POLL_ADD_MULTI;
        }
        sqe.user_data = pack(KIND_POLL, ridx, seq);
        self.push(sqe);
    }

    fn arm_accept(&mut self, ridx: usize) {
        if !self.multishot_accept {
            // Downgrade: poll the listener for readability and let the
            // loop fall back to accept(2).
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.interest = Interest::READ;
            }
            self.arm_poll(ridx);
            return;
        }
        let seq = self.next_seq();
        let Some(reg) = self.regs.get_mut(ridx) else { return };
        reg.seq = seq;
        reg.armed = true;
        reg.kind = KIND_ACCEPT;
        let mut sqe = Sqe::zeroed();
        sqe.opcode = IORING_OP_ACCEPT;
        sqe.fd = reg.fd;
        sqe.ioprio = IORING_ACCEPT_MULTISHOT;
        // `accept4(2)` flags ride in op_flags. CLOEXEC matters: without
        // it every accepted connection leaks into forked CGI children,
        // and a child (or grandchild) outliving its request holds the
        // socket open — the server's close() then sends no FIN and
        // clients waiting for EOF hang. The readiness paths get this
        // from std's accept; the ring op must ask for it explicitly.
        sqe.op_flags = SOCK_CLOEXEC;
        sqe.user_data = pack(KIND_ACCEPT, ridx, seq);
        self.push(sqe);
    }

    /// Cancel whatever SQE the registration currently has armed. The
    /// resulting ECANCELED CQE is dropped by seq staleness if the slot
    /// is re-armed (new seq) before it lands.
    fn cancel_current(&mut self, ridx: usize) {
        let Some(reg) = self.regs.get_mut(ridx) else { return };
        if !reg.armed {
            return;
        }
        reg.armed = false;
        let target = pack(reg.kind, ridx, reg.seq);
        self.push_cancel(target);
    }

    fn queue_files_update(&mut self, slot: u32, fd: i32, reg_idx: usize, reg_gen: u64, link: bool) {
        let (uidx, _) = self.updates.insert(UpdateOp { fds: Box::new(fd), reg_idx, reg_gen });
        let ptr = {
            let op = self.updates.get_mut(uidx).expect("update op just inserted");
            &*op.fds as *const i32 as u64
        };
        let mut sqe = Sqe::zeroed();
        sqe.opcode = IORING_OP_FILES_UPDATE;
        sqe.fd = -1;
        sqe.off = slot as u64;
        sqe.addr = ptr;
        sqe.len = 1;
        if link {
            sqe.flags |= IOSQE_IO_LINK;
        }
        sqe.user_data = pack(KIND_MISC, uidx, MISC_FILES_UPDATE);
        self.push(sqe);
    }

    // ---- public Poller surface -------------------------------------

    /// See [`super::Poller::register`].
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.by_fd.contains_key(&fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered twice"));
        }
        let fixed_slot = self.fixed_free.pop();
        let (ridx, rgen) = self.regs.insert(Reg {
            fd,
            token,
            interest,
            is_accept: false,
            seq: 0,
            armed: false,
            kind: KIND_POLL,
            fixed_slot,
        });
        self.by_fd.insert(fd, ridx);
        self.stats.syscalls_saved += 1; // the epoll_ctl(ADD) this replaces
        if let Some(slot) = fixed_slot {
            // Install the fd into the registered table. Linking the
            // first poll behind the update means a failed install
            // cancels the poll, whose ECANCELED handler re-arms against
            // the plain fd (the update-failure handler clears the slot).
            self.queue_files_update(slot, fd, ridx, rgen, interest != Interest::NONE);
        }
        if interest != Interest::NONE {
            self.arm_poll(ridx);
        }
        Ok(())
    }

    /// Register a listener for completion-based accepts: one multishot
    /// `ACCEPT` SQE yields accepted fds directly in [`Event::accepted`],
    /// with no `accept(2)` syscalls. Falls back to readiness polling
    /// (and the loop's accept(2) path) on kernels without multishot.
    pub fn register_accept(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        if self.by_fd.contains_key(&fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered twice"));
        }
        let (ridx, _) = self.regs.insert(Reg {
            fd,
            token,
            interest: Interest::READ,
            is_accept: true,
            seq: 0,
            armed: false,
            kind: KIND_ACCEPT,
            fixed_slot: None,
        });
        self.by_fd.insert(fd, ridx);
        self.stats.syscalls_saved += 1;
        self.arm_accept(ridx);
        Ok(())
    }

    /// See [`super::Poller::modify`]. Re-arming is elided when the
    /// armed interest already matches — which is exactly what makes the
    /// linked write→poll chain free: the loop's later `READ` modify
    /// finds the linked poll already armed and does nothing.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let Some(&ridx) = self.by_fd.get(&fd) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        };
        self.stats.syscalls_saved += 1; // the epoll_ctl(MOD) this replaces
        let Some(reg) = self.regs.get_mut(ridx) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        };
        reg.token = token;
        if reg.is_accept {
            return Ok(()); // listener interest is managed by arm_accept
        }
        if reg.armed && reg.interest == interest {
            return Ok(());
        }
        reg.interest = interest;
        if reg.armed {
            self.cancel_current(ridx);
        }
        if interest != Interest::NONE {
            self.arm_poll(ridx);
        }
        Ok(())
    }

    /// See [`super::Poller::deregister`]. Cancels the armed SQE and any
    /// in-flight queued writes; their buffers stay alive inside the op
    /// slab until the kernel's CQE confirms it is done with them.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let Some(ridx) = self.by_fd.remove(&fd) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        };
        self.stats.syscalls_saved += 1; // the epoll_ctl(DEL) this replaces
        let rgen = self.regs.gen_of(ridx).unwrap_or(0);
        if let Some(reg) = self.regs.get(ridx).filter(|r| r.armed && r.kind == KIND_ACCEPT) {
            self.retired_accepts.push((pack(KIND_ACCEPT, ridx, reg.seq), reg.token));
        }
        self.cancel_current(ridx);
        let Some(reg) = self.regs.remove(ridx) else {
            return Ok(());
        };
        if let Some(slot) = reg.fixed_slot {
            // Clear the table slot. FILES_UPDATE executes inline in
            // submission order, so the slot is safe to hand out again
            // immediately: any reuse's own update is ordered after this.
            self.queue_files_update(slot, -1, usize::MAX, 0, false);
            self.fixed_free.push(slot);
        }
        let mut cancels = Vec::new();
        for (widx, op) in self.writes.iter_mut() {
            if op.reg_idx == ridx && op.reg_gen == rgen {
                cancels.push(pack(KIND_WRITE, widx, op.seq));
            }
        }
        for target in cancels {
            self.push_cancel(target);
        }
        Ok(())
    }

    /// Whether `SEND_ZC` is available (probed at setup; disabled via
    /// `SWEB_URING_NO_ZC=1`). The reactor uses this to route large
    /// bodies through the queued-write path instead of sendfile.
    pub fn supports_send_zc(&self) -> bool {
        self.send_zc_ok
    }

    /// Number of registered staging slots (0 when registration failed
    /// or `SWEB_URING_NO_BUFS=1`). Conformance tests use this to prove
    /// which wire path a run exercised.
    pub fn buf_pool_slots(&self) -> u32 {
        if self.buf_registered {
            self.buf_slots
        } else {
            0
        }
    }

    /// Queue an entire buffered response as one write op, completing
    /// via [`Event::wrote`] CQEs instead of readiness + `writev(2)`.
    ///
    /// The op picks the cheapest wire shape available: responses that
    /// fit a registered-buffer slot are *staged* — copied into the
    /// pinned pool and sent as `WRITE_FIXED` (no per-op buffer mapping,
    /// and the response `Bytes` drops immediately instead of living
    /// until the CQE); large bodies go out as `SEND_ZC` (the kernel
    /// transmits from the shared body pages, no socket-buffer copy);
    /// everything else is a plain `WRITEV`. Pool exhaustion and probe
    /// failure degrade along the same ladder, counted in
    /// [`IoStats::buf_pool_exhausted`].
    ///
    /// With `link_read` (keep-alive), the write carries `IOSQE_IO_LINK`
    /// into an immediately-queued next-request `POLL_ADD`: the
    /// write-then-await-next transition costs zero dedicated syscalls.
    /// Returns false — caller takes the classic sync path — if the fd
    /// is not registered, the op is empty, or a poll is unexpectedly
    /// still armed (a cancel would break the link chain).
    pub fn queue_writev(
        &mut self,
        fd: RawFd,
        token: usize,
        head: &mut Vec<u8>,
        body: &mut Bytes,
        link_read: bool,
    ) -> bool {
        let total = head.len() + body.len();
        if total == 0 {
            return false;
        }
        let Some(&ridx) = self.by_fd.get(&fd) else { return false };
        let Some(rgen) = self.regs.gen_of(ridx) else { return false };
        {
            let Some(reg) = self.regs.get_mut(ridx) else { return false };
            if reg.is_accept || reg.armed {
                return false;
            }
        }
        // Stage into a registered buffer when the whole response fits a
        // slot: one copy now buys WRITE_FIXED submission and releases
        // the cache's Bytes reference immediately.
        let mut fixed_buf = None;
        if self.buf_registered && total <= BUF_SLOT {
            match self.buf_free.pop() {
                Some(slot) => {
                    let base = slot as usize * BUF_SLOT;
                    self.buf_pool[base..base + head.len()].copy_from_slice(head);
                    self.buf_pool[base + head.len()..base + total].copy_from_slice(body);
                    fixed_buf = Some(slot);
                }
                None => self.stats.buf_pool_exhausted += 1,
            }
        }
        // Large bodies (and only bodies: heads are always slot-sized)
        // ride SEND_ZC when the kernel has it.
        let send_zc = fixed_buf.is_none() && self.send_zc_ok && body.len() >= ZC_MIN_BODY;
        let (head, body) = if fixed_buf.is_some() {
            // Staged: the pool owns the bytes now. The head Vec keeps
            // its allocation on the caller's side for reuse; the body's
            // Bytes reference (and its hold on the cache entry) drops
            // right here instead of at CQE time.
            head.clear();
            *body = Bytes::new();
            (Vec::new(), Bytes::new())
        } else {
            (std::mem::take(head), std::mem::take(body))
        };
        let (widx, _) = self.writes.insert(WriteOp {
            token,
            reg_idx: ridx,
            reg_gen: rgen,
            head,
            body,
            pos: 0,
            total,
            iov: Box::new([IoVec { base: std::ptr::null(), len: 0 }; 2]),
            seq: 0,
            link_read,
            fixed_buf,
            send_zc,
            zc_pending: 0,
            finished: false,
        });
        self.submit_write(widx);
        if link_read {
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.interest = Interest::READ;
            }
            self.arm_poll(ridx);
        }
        true
    }

    /// (Re)submit a write op from its current position, as whichever of
    /// `WRITE_FIXED` / `SEND_ZC` / `WRITEV` the op's shape calls for.
    /// The first submission of a `link_read` op links into the poll
    /// that follows; short-write resubmissions are independent SQEs.
    /// A `send_zc` op's head (if any) goes out first as a `WRITEV`, the
    /// body as `SEND_ZC` once `pos` reaches it — the links-only-at-pos-0
    /// rule keeps the next-request poll from arming mid-body.
    fn submit_write(&mut self, widx: usize) {
        let seq = self.next_seq();
        let reg_idx = match self.writes.get_mut(widx) {
            Some(op) => op.reg_idx,
            None => return,
        };
        let (reg_fd, fixed_slot) = match self.regs.get(reg_idx) {
            Some(reg) => (reg.fd, reg.fixed_slot),
            None => return,
        };
        let pool_base = self.buf_pool.as_ptr() as usize;
        let Some(op) = self.writes.get_mut(widx) else { return };
        op.seq = seq;
        let mut sqe = Sqe::zeroed();
        if let Some(slot) = fixed_slot {
            sqe.fd = slot as i32;
            sqe.flags |= IOSQE_FIXED_FILE;
        } else {
            sqe.fd = reg_fd;
        }
        let mut used_fixed_buf = false;
        let mut used_zc = false;
        if let Some(bslot) = op.fixed_buf {
            sqe.opcode = IORING_OP_WRITE_FIXED;
            sqe.addr = (pool_base + bslot as usize * BUF_SLOT + op.pos) as u64;
            sqe.len = (op.total - op.pos) as u32;
            sqe.buf_index = bslot as u16;
            used_fixed_buf = true;
        } else if op.send_zc && op.pos >= op.head.len() {
            let bp = op.pos - op.head.len();
            sqe.opcode = IORING_OP_SEND_ZC;
            sqe.addr = op.body[bp..].as_ptr() as u64;
            sqe.len = (op.body.len() - bp) as u32;
            used_zc = true;
        } else {
            let mut n = 0usize;
            let hp = op.pos.min(op.head.len());
            if hp < op.head.len() {
                op.iov[n] = IoVec { base: op.head[hp..].as_ptr(), len: op.head.len() - hp };
                n += 1;
            }
            // A send_zc op defers its body to the SEND_ZC submission
            // that follows the head's completion.
            let bp = op.pos.saturating_sub(op.head.len());
            if !op.send_zc && bp < op.body.len() {
                op.iov[n] = IoVec { base: op.body[bp..].as_ptr(), len: op.body.len() - bp };
                n += 1;
            }
            sqe.opcode = IORING_OP_WRITEV;
            sqe.addr = op.iov.as_ptr() as u64;
            sqe.len = n as u32;
        }
        let link = op.link_read && op.pos == 0 && !op.send_zc;
        if link {
            sqe.flags |= IOSQE_IO_LINK;
        }
        sqe.user_data = pack(KIND_WRITE, widx, seq);
        if used_fixed_buf {
            self.stats.write_fixed += 1;
        }
        if used_zc {
            self.stats.send_zc += 1;
        }
        self.push(sqe);
    }

    /// Drain stats accumulated since the last call.
    pub fn take_stats(&mut self) -> IoStats {
        std::mem::take(&mut self.stats)
    }

    /// Synchronously quiesce the ring before it is dropped: cancel
    /// every in-flight operation, reap the cancellations, and
    /// unregister the fixed-file table.
    ///
    /// Without this, the kernel-held file references — the listener
    /// pinned by a multishot accept, connection fds in the fixed table —
    /// are only released by the *asynchronous* ring-teardown work that
    /// follows `close(ring_fd)`. A listener whose userspace fd is closed
    /// but whose kernel socket lingers keeps the port in `LISTEN` state
    /// for a few more milliseconds, long enough for an immediate rebind
    /// (graceful stop → revive on the same address) to race it and fail
    /// with `EADDRINUSE`.
    pub fn shutdown(&mut self) {
        let fds: Vec<RawFd> = self.by_fd.keys().copied().collect();
        for fd in fds {
            let _ = self.deregister(fd);
        }
        // Nobody will admit another connection: from here an accept CQE
        // closes its fd.
        self.retired_accepts.clear();
        // Cancellation CQEs carry no countable state, so the fence is
        // two consecutive quiet waits with every write/update op freed.
        // Bounded: a wedged kernel must not hang shard teardown.
        let mut events = Vec::new();
        let mut quiet = 0;
        for _ in 0..64 {
            events.clear();
            let before = self.stats.cqe_completed;
            if self.wait(&mut events, 5).is_err() {
                break;
            }
            let busy = self.stats.cqe_completed != before
                || !self.writes.is_empty()
                || !self.updates.is_empty();
            if busy {
                quiet = 0;
            } else {
                quiet += 1;
                if quiet >= 2 {
                    break;
                }
            }
        }
        if self.fixed_table {
            // Blocks until every fixed-file reference has been dropped.
            unsafe {
                syscall(
                    SYS_IO_URING_REGISTER,
                    self.ring_fd as usize,
                    IORING_UNREGISTER_FILES as usize,
                    0usize,
                    0usize,
                );
            }
            self.fixed_table = false;
            self.fixed_free.clear();
        }
        if self.buf_registered {
            // Unpin the staging pool; quiesce above guarantees no
            // WRITE_FIXED still reads from it.
            unsafe {
                syscall(
                    SYS_IO_URING_REGISTER,
                    self.ring_fd as usize,
                    IORING_UNREGISTER_BUFFERS as usize,
                    0usize,
                    0usize,
                );
            }
            self.buf_registered = false;
            self.buf_free.clear();
        }
    }

    /// See [`super::Poller::wait`]: batched submit + complete. One
    /// `io_uring_enter` both submits every SQE queued since the last
    /// tick and waits for completions; if completions are already
    /// posted (or `timeout_ms == 0` finds nothing to submit), the wait
    /// costs zero syscalls.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        self.reap(&mut out);
        self.flush_backlog();
        let before = events.len();
        if !out.is_empty() || timeout_ms == 0 {
            let pending = self.sq_pending();
            if pending > 0 || self.cq_overflowed() {
                if let Err(e) = self.enter(pending, 0, IORING_ENTER_GETEVENTS, None) {
                    self.scratch = out;
                    return Err(e);
                }
                self.reap(&mut out);
            } else {
                // Completions already in hand (or an empty non-blocking
                // poll): the whole tick was syscall-free.
                self.stats.syscalls_saved += 1;
            }
        } else {
            let pending = self.sq_pending();
            let res = if timeout_ms < 0 {
                self.enter(pending, 1, IORING_ENTER_GETEVENTS, None)
            } else {
                let ts = Timespec {
                    tv_sec: (timeout_ms / 1000) as i64,
                    tv_nsec: ((timeout_ms % 1000) as i64) * 1_000_000,
                };
                self.enter(pending, 1, IORING_ENTER_GETEVENTS, Some(&ts))
            };
            if let Err(e) = res {
                self.scratch = out;
                return Err(e);
            }
            self.reap(&mut out);
        }
        // CQE handlers may have queued re-arm SQEs; stage them so the
        // next enter submits the lot.
        self.flush_backlog();
        events.append(&mut out);
        self.scratch = out;
        Ok(events.len() - before)
    }

    /// Drain every posted CQE, translating them into [`Event`]s.
    fn reap(&mut self, out: &mut Vec<Event>) {
        loop {
            let head = unsafe { (*self.cq_khead).load(Ordering::Acquire) };
            let tail = unsafe { (*self.cq_ktail).load(Ordering::Acquire) };
            if head == tail {
                return;
            }
            let mut h = head;
            while h != tail {
                let cqe = unsafe { *self.cqes.add((h & self.cq_mask) as usize) };
                h = h.wrapping_add(1);
                unsafe { (*self.cq_khead).store(h, Ordering::Release) };
                self.stats.cqe_completed += 1;
                self.handle_cqe(cqe, out);
            }
        }
    }

    fn handle_cqe(&mut self, cqe: Cqe, out: &mut Vec<Event>) {
        let kind = (cqe.user_data >> 62) as u8;
        let idx = ((cqe.user_data >> 32) & 0x3fff_ffff) as usize;
        let seq = cqe.user_data as u32;
        match kind {
            KIND_POLL => self.on_poll_cqe(idx, seq, cqe, out),
            KIND_ACCEPT => self.on_accept_cqe(idx, seq, cqe, out),
            KIND_WRITE => self.on_write_cqe(idx, seq, cqe, out),
            _ => {
                if seq == MISC_FILES_UPDATE {
                    self.on_files_update_cqe(idx, cqe);
                }
                // MISC_CANCEL completions carry no state.
            }
        }
    }

    fn on_poll_cqe(&mut self, ridx: usize, seq: u32, cqe: Cqe, out: &mut Vec<Event>) {
        let (token, interest) = {
            let Some(reg) = self.regs.get_mut(ridx) else { return };
            if reg.seq != seq || reg.kind != KIND_POLL {
                return; // stale arm
            }
            (reg.token, reg.interest)
        };
        if cqe.res < 0 {
            let err = -cqe.res;
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.armed = false;
            }
            if err == ECANCELED {
                // A link-break cancel (failed FILES_UPDATE) or a racing
                // cancel that lost to a re-arm intent: restore the poll.
                if interest != Interest::NONE {
                    self.arm_poll(ridx);
                }
            } else if err == EINVAL && self.multishot_poll {
                // Kernel predates multishot poll: downgrade globally.
                self.multishot_poll = false;
                if interest != Interest::NONE {
                    self.arm_poll(ridx);
                }
            } else {
                out.push(Event {
                    token,
                    readable: false,
                    writable: false,
                    error: true,
                    accepted: None,
                    wrote: None,
                });
            }
            return;
        }
        let mask = cqe.res as u32;
        let more = cqe.flags & IORING_CQE_F_MORE != 0;
        if !more {
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.armed = false;
            }
        }
        out.push(Event {
            token,
            readable: mask & (POLLIN | POLLHUP | POLLRDHUP) != 0,
            writable: mask & POLLOUT != 0,
            error: mask & POLLERR != 0,
            accepted: None,
            wrote: None,
        });
        if !more && interest != Interest::NONE {
            // Oneshot consumed: re-arm. POLL_ADD's arm-time readiness
            // check keeps this level-triggered.
            self.arm_poll(ridx);
        }
    }

    fn on_accept_cqe(&mut self, ridx: usize, seq: u32, cqe: Cqe, out: &mut Vec<Event>) {
        let live = self.regs.get(ridx).filter(|reg| reg.seq == seq && reg.kind == KIND_ACCEPT);
        let Some(token) = live.map(|reg| reg.token) else {
            self.on_retired_accept_cqe(cqe, out);
            return;
        };
        if cqe.res < 0 {
            let err = -cqe.res;
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.armed = false;
            }
            if err == ECANCELED {
                return;
            }
            if err == EINVAL || err == EOPNOTSUPP {
                // Kernel predates multishot accept: downgrade to
                // readiness polling + the loop's accept(2) path.
                self.multishot_accept = false;
                self.arm_accept(ridx);
                return;
            }
            // Transient accept failure (the errno was consumed by the
            // CQE): re-arm, and surface plain readability so the loop's
            // accept(2) path observes the condition and applies its
            // backoff/park policy.
            self.arm_accept(ridx);
            out.push(Event {
                token,
                readable: true,
                writable: false,
                error: false,
                accepted: None,
                wrote: None,
            });
            return;
        }
        self.stats.syscalls_saved += 1; // the accept(2) this replaces
        let more = cqe.flags & IORING_CQE_F_MORE != 0;
        if !more {
            if let Some(reg) = self.regs.get_mut(ridx) {
                reg.armed = false;
            }
        }
        out.push(Event {
            token,
            readable: true,
            writable: false,
            error: false,
            accepted: Some(cqe.res),
            wrote: None,
        });
        if !more {
            self.arm_accept(ridx);
        }
    }

    /// An accept CQE from a multishot accept no longer armed under its
    /// seq. If its listener was parked, the kernel accepted this
    /// connection before the cancel took effect: it goes to the loop like
    /// any other, since closing it would reset a client whose connect
    /// already succeeded. Otherwise (shutdown) it is closed, never leaked.
    fn on_retired_accept_cqe(&mut self, cqe: Cqe, out: &mut Vec<Event>) {
        let retired = self.retired_accepts.iter().position(|&(ud, _)| ud == cqe.user_data);
        let token = retired.map(|i| self.retired_accepts[i].1);
        if let Some(i) = retired.filter(|_| cqe.flags & IORING_CQE_F_MORE == 0) {
            self.retired_accepts.swap_remove(i); // the accept's last CQE
        }
        if cqe.res < 0 {
            return;
        }
        match token {
            Some(token) => out.push(Event {
                token,
                readable: true,
                writable: false,
                error: false,
                accepted: Some(cqe.res),
                wrote: None,
            }),
            // SAFETY: `cqe.res` is a connection the kernel accepted for
            // this ring; no `TcpStream` was made of it, so this is its
            // only close.
            None => unsafe {
                close(cqe.res);
            },
        }
    }

    /// The op's data path is over (completed, failed, or the connection
    /// died): free it now unless `SEND_ZC` notifications are still
    /// outstanding — the kernel reads the body pages until every notif
    /// lands, so the op (and its buffers) must outlive them.
    fn finish_write(&mut self, widx: usize) {
        let remove = {
            let Some(op) = self.writes.get_mut(widx) else { return };
            op.finished = true;
            op.zc_pending == 0
        };
        if remove {
            self.release_write(widx);
        }
    }

    /// Actually free a write op, returning its staging slot to the pool.
    fn release_write(&mut self, widx: usize) {
        if let Some(op) = self.writes.remove(widx) {
            if let Some(slot) = op.fixed_buf {
                self.buf_free.push(slot);
            }
        }
    }

    fn on_write_cqe(&mut self, widx: usize, seq: u32, cqe: Cqe, out: &mut Vec<Event>) {
        if cqe.flags & IORING_CQE_F_NOTIF != 0 {
            // SEND_ZC buffer-release notification. Matched by op index,
            // not seq: a short-send resubmission bumps the seq while the
            // prior submission's notif is still in flight, and every one
            // of them must be drained before the buffers can go. The op
            // is never removed with zc_pending > 0, so the index cannot
            // have been reused.
            let remove = {
                let Some(op) = self.writes.get_mut(widx) else { return };
                op.zc_pending = op.zc_pending.saturating_sub(1);
                op.finished && op.zc_pending == 0
            };
            if remove {
                self.release_write(widx);
            }
            return;
        }
        let (reg_idx, reg_gen, token) = {
            let Some(op) = self.writes.get_mut(widx) else { return };
            if op.seq != seq {
                return; // stale resubmission
            }
            // A SEND_ZC result CQE with F_MORE promises a notif CQE for
            // this submission; count it before any early return below.
            if cqe.flags & IORING_CQE_F_MORE != 0 {
                op.zc_pending += 1;
            }
            (op.reg_idx, op.reg_gen, op.token)
        };
        if self.regs.gen_of(reg_idx) != Some(reg_gen) {
            // Connection died while the write was in flight; the result
            // CQE means the data path is over (any ZC notifs still
            // gate the actual free).
            self.finish_write(widx);
            return;
        }
        if cqe.res < 0 {
            let err = -cqe.res;
            if err == EAGAIN || err == EINTR {
                self.submit_write(widx);
                return;
            }
            self.finish_write(widx);
            out.push(Event {
                token,
                readable: false,
                writable: false,
                error: false,
                accepted: None,
                wrote: Some(cqe.res),
            });
            return;
        }
        self.stats.syscalls_saved += 1; // the writev(2)/sendfile this replaces
        let (done, zc_sent) = {
            let Some(op) = self.writes.get_mut(widx) else { return };
            let in_body = op.send_zc && op.pos >= op.head.len();
            op.pos += cqe.res as usize;
            (op.pos >= op.total, in_body && cqe.res > 0)
        };
        if zc_sent {
            // One completed SEND_ZC = one socket-buffer copy a plain
            // send would have paid.
            self.stats.zc_copies_avoided += 1;
        }
        out.push(Event {
            token,
            readable: false,
            writable: false,
            error: false,
            accepted: None,
            wrote: Some(cqe.res),
        });
        if done {
            self.finish_write(widx);
        } else {
            self.submit_write(widx);
        }
    }

    fn on_files_update_cqe(&mut self, uidx: usize, cqe: Cqe) {
        let Some(up) = self.updates.remove(uidx) else { return };
        if cqe.res >= 1 || up.reg_idx == usize::MAX {
            return; // install succeeded, or a clear (no rollback needed)
        }
        // Install failed: strip the slot from the registration (its
        // linked poll was cancelled and re-arms against the plain fd)
        // and put the slot back in the pool.
        if self.regs.gen_of(up.reg_idx) == Some(up.reg_gen) {
            let slot = self.regs.get_mut(up.reg_idx).and_then(|reg| reg.fixed_slot.take());
            if let Some(slot) = slot {
                self.fixed_free.push(slot);
            }
        }
    }
}

impl Drop for UringPoller {
    fn drop(&mut self) {
        // Closing the ring fd cancels in-flight ops, but teardown is
        // asynchronous: leak any op buffers the kernel might still read
        // rather than risk a use-after-free. The staging pool goes the
        // same way: with writes in flight a WRITE_FIXED may still read
        // from it, so it leaks alongside them; otherwise it frees
        // normally (the kernel's pin is by page refcount, not address).
        unsafe { close(self.ring_fd) };
        if !self.writes.is_empty() {
            std::mem::forget(std::mem::take(&mut self.buf_pool));
        }
        for (_, op) in self.writes.drain_all() {
            std::mem::forget(op);
        }
        for (_, op) in self.updates.drain_all() {
            std::mem::forget(op);
        }
        unsafe {
            munmap(self.sqes as *mut u8, self.sqes_len);
            munmap(self.ring, self.ring_len);
        }
    }
}
