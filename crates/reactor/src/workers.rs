//! A bounded worker pool for blocking work (file reads, CGI execution).
//!
//! The event loop must never block on disk, so fulfilment runs on a small
//! fixed pool. The submission queue is bounded: when every worker is busy
//! and the queue is full, `try_submit` refuses and the caller sheds load
//! (503) instead of queueing unboundedly — the same admission philosophy
//! the paper applies at the connection level.
//!
//! Any worker runs any job, but a submit first wakes an idle worker that
//! last ran a job of the same submitter (a shard group's loop), so a loop
//! keeps waking the workers that run where it does.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};

/// A unit of blocking work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The submission queue. Its lock is held only to push or pop: an idle
/// worker parks with the lock released, so a submit never queues behind a
/// sleeping worker and a woken worker finds its job with one acquisition.
struct Queue {
    state: Mutex<State>,
    cap: usize,
}

struct State {
    /// Each job with the submitter it came from.
    jobs: VecDeque<(usize, Job)>,
    open: bool,
    /// Parked workers, longest idle first. A submit takes the one it
    /// wakes off this list, so a wake-up is never lost or spent twice.
    idle: Vec<Idle>,
}

/// A parked worker and the submitter of the last job it ran.
struct Idle {
    thread: Thread,
    last: usize,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A job never runs under the lock, so a poisoned guard still
        // holds a consistent queue.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Fixed-size pool with a bounded submission queue.
pub struct WorkerPool {
    queue: Arc<Queue>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads, named `{name}-w{i}`, sharing one queue of
    /// capacity `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize, name: &str) -> WorkerPool {
        assert!(workers > 0);
        let queue = Arc::new(Queue {
            state: Mutex::new(State {
                jobs: VecDeque::with_capacity(queue_cap),
                open: true,
                idle: Vec::with_capacity(workers),
            }),
            cap: queue_cap,
        });
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { queue, handles }
    }

    /// [`WorkerPool::try_submit_from`] submitter 0.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        self.try_submit_from(0, job)
    }

    /// Submit without blocking, on behalf of submitter `from` (a shard
    /// group's loop index). Wakes an idle worker whose last job came from
    /// `from`, else the one idle longest. `Err` returns the job when the
    /// queue is full (shed) or the pool is shutting down.
    pub fn try_submit_from(&self, from: usize, job: Job) -> Result<(), Job> {
        let mut state = self.queue.lock();
        if !state.open || state.jobs.len() >= self.queue.cap {
            return Err(job);
        }
        state.jobs.push_back((from, job));
        let pick = state.idle.iter().position(|w| w.last == from);
        let woken = pick.or((!state.idle.is_empty()).then_some(0)).map(|i| state.idle.remove(i));
        drop(state);
        if let Some(w) = woken {
            w.thread.unpark();
        }
        Ok(())
    }

    /// Close the queue and join every worker. Queued jobs still run.
    pub fn shutdown(&mut self) {
        let idle = {
            let mut state = self.queue.lock();
            state.open = false;
            std::mem::take(&mut state.idle)
        };
        for w in idle {
            w.thread.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(queue: &Queue) {
    let me = std::thread::current();
    let mut last = usize::MAX; // no job yet
    let mut state = queue.lock();
    loop {
        if let Some((from, job)) = state.jobs.pop_front() {
            last = from;
            // Run the job with the lock released.
            drop(state);
            job();
            state = queue.lock();
        } else if !state.open {
            return; // closed and drained: shutdown
        } else {
            state.idle.push(Idle { thread: me.clone(), last });
            drop(state);
            // An unpark that comes before the park is kept, not lost.
            std::thread::park();
            state = queue.lock();
            // A submit took this worker off the list; a spurious wake-up
            // did not.
            state.idle.retain(|w| w.thread.id() != me.id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(2, 16, "test");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            assert!(pool
                .try_submit(Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }))
                .is_ok());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 8 {
            assert!(std::time::Instant::now() < deadline, "jobs never completed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn full_queue_refuses_instead_of_blocking() {
        let pool = WorkerPool::new(1, 1, "test");
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        // Occupy the single worker.
        assert!(pool
            .try_submit(Box::new(move || {
                let _ = block_rx.recv();
            }))
            .is_ok());
        // Fill the queue (capacity 1), then the next submit must refuse.
        // The busy worker may or may not have dequeued the blocker yet, so
        // allow one extra success before demanding refusal.
        let mut refused = false;
        for _ in 0..3 {
            if pool.try_submit(Box::new(|| {})).is_err() {
                refused = true;
                break;
            }
        }
        assert!(refused, "bounded queue accepted unbounded work");
        block_tx.send(()).unwrap();
    }

    #[test]
    fn a_submitter_gets_back_the_worker_that_last_served_it() {
        let pool = WorkerPool::new(3, 16, "test");
        // One job for `from` once every worker is parked; the name of the
        // worker that ran it.
        let run = |from: usize| {
            while pool.queue.lock().idle.len() < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let job = move || tx.send(std::thread::current().name().unwrap().to_string()).unwrap();
            assert!(pool.try_submit_from(from, Box::new(job)).is_ok());
            rx.recv().unwrap()
        };
        let first = run(0);
        let other = run(1);
        assert_ne!(other, first, "submitter 1 took submitter 0's worker");
        for _ in 0..5 {
            assert_eq!(run(0), first);
            assert_eq!(run(1), other);
        }
    }

    #[test]
    fn shutdown_joins_and_refuses_later_submits() {
        let mut pool = WorkerPool::new(2, 4, "test");
        pool.shutdown();
        assert!(pool.try_submit(Box::new(|| {})).is_err());
    }
}
