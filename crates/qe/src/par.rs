//! The one fan-out under a query (DESIGN.md §6): CAD lifting hands a level's
//! parents to a process-wide pool of persistent helper threads.
//!
//! A fan-out publishes one owned job. The job is `'static` (it owns what it
//! reads, behind `Arc`s), so threads that outlive the call can run it without
//! `unsafe`. Determinism contract: results are collected **in input order**,
//! and the reported error (if any) is the lowest-index error — the same one
//! the sequential loop would have hit first.
//!
//! Work is claimed in **chunks** of consecutive indices (one `fetch_add`
//! and one lock of the job's result table per chunk, not per item), so a
//! level with thousands of parent cells does not pay a SeqCst atomic plus a
//! lock per stack. Chunks are handed out in ascending order and every
//! claimed chunk is processed to completion (or to its own first error),
//! which is what keeps the lowest-index-error guarantee: the first error the
//! sequential loop would hit lives in a chunk at or below any chunk whose
//! error triggered the stop flag, and that chunk was necessarily claimed
//! earlier.
//!
//! The pool has [`hardware_threads`]` − 1` helpers. The first fan-out that
//! asks for more than one worker starts them, and they park on a `Condvar`
//! between jobs. A job admits at most `workers − 1` of them, and the calling
//! thread claims chunks too. When it runs out of chunks to claim, it waits
//! only for the chunks a helper has already claimed. So fan-outs from
//! several threads at once (two server sessions) all finish even when every
//! helper is busy elsewhere. A panic inside a job is caught where it
//! happens and resumed on the calling thread, and the helper that caught it
//! goes back to the pool.

use crate::{hardware_threads, QeError};
use cdb_num::ranked::{Rank, Ranked};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Once};

/// Number of chunks each worker should get on average: small enough that
/// the claim traffic is negligible, large enough to rebalance when chunk
/// costs are skewed.
const CHUNKS_PER_WORKER: usize = 4;

/// Chunk length for `n` items over `workers` threads: `n / workers`
/// shrunk by an oversubscription factor so uneven chunks can still be
/// rebalanced, floored at 1 (heavyweight jobs keep per-item claiming).
fn chunk_len(n: usize, workers: usize) -> usize {
    (n / (workers * CHUNKS_PER_WORKER)).max(1)
}

/// Map `f` over `0..n` on up to `workers` threads (the caller's thread is
/// one of them), preserving input order. With `workers <= 1` (or at most
/// one item) this is the plain sequential loop and the pool is not
/// touched. `workers` is taken as given: the caller passes
/// [`crate::QeContext::effective_workers`], which has already clamped the
/// request to the hardware. A panic in `f` is resumed on the calling thread.
pub(crate) fn fan_out<U, F>(n: usize, workers: usize, f: F) -> Result<Vec<U>, QeError>
where
    U: Send + 'static,
    F: Fn(usize) -> Result<U, QeError> + Send + Sync + 'static,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_len(n, workers);
    let job = Arc::new(Job {
        f,
        n,
        chunk,
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        done: Ranked::new(
            Rank::LiftPool,
            Done {
                slots: (0..n.div_ceil(chunk)).map(|_| None).collect(),
                panic: None,
            },
        ),
        finished: Condvar::new(),
    });
    let published: Arc<dyn Work> = job.clone();
    let pool = pool();
    pool.publish(&published, workers - 1);
    job.claim_chunks();
    pool.withdraw(&published);
    job.gather()
}

/// One fan-out's shared state: the item function, the chunk queue and the
/// table the chunks' results land in.
struct Job<U, F> {
    f: F,
    n: usize,
    chunk: usize,
    /// Start of the next unclaimed chunk. SeqCst per the determinism rule:
    /// claim order and the stop flag gate which slots get filled.
    next: AtomicUsize,
    /// Set by the first chunk that fails; consulted between claims only.
    stop: AtomicBool,
    done: Ranked<Done<U>>,
    /// Signalled whenever a chunk lands in `done`.
    finished: Condvar,
}

/// The finished chunks of a job, and the first panic any of them raised.
struct Done<U> {
    /// One slot per chunk: `None` until the thread that claimed the chunk
    /// stores its results — full-length (all `Ok`), ending at the chunk's
    /// first error, or empty when the chunk panicked.
    slots: Vec<Option<Vec<Result<U, QeError>>>>,
    panic: Option<Box<dyn Any + Send>>,
}

/// What a helper sees of a published job.
trait Work: Send + Sync {
    /// Claim chunks and run each to completion (or to its own first error)
    /// until none are left or one has failed. Abandoning a chunk mid-way
    /// could leave a hole below another thread's error, losing the
    /// lowest-index-error guarantee.
    fn claim_chunks(&self);
}

impl<U, F> Work for Job<U, F>
where
    U: Send,
    F: Fn(usize) -> Result<U, QeError> + Send + Sync,
{
    fn claim_chunks(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let start = self.next.fetch_add(self.chunk, Ordering::SeqCst);
            if start >= self.n {
                break;
            }
            let end = (start + self.chunk).min(self.n);
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut results = Vec::with_capacity(end - start);
                for i in start..end {
                    let r = (self.f)(i);
                    let failed = r.is_err();
                    results.push(r);
                    if failed {
                        break;
                    }
                }
                results
            }));
            let (results, panicked) = match run {
                Ok(results) => (results, None),
                Err(payload) => (Vec::new(), Some(payload)),
            };
            if panicked.is_some() || results.last().is_some_and(Result::is_err) {
                self.stop.store(true, Ordering::SeqCst);
            }
            let mut done = self.done.lock();
            if let Some(slot) = done.slots.get_mut(start / self.chunk) {
                *slot = Some(results);
            }
            if done.panic.is_none() {
                done.panic = panicked;
            }
            drop(done);
            self.finished.notify_all();
        }
    }
}

impl<U, F> Job<U, F> {
    /// Close the queue, wait for the chunks helpers claimed before it
    /// closed, and collect the results in input order (or resume the first
    /// panic).
    fn gather(&self) -> Result<Vec<U>, QeError> {
        // After the swap every claim starts at or past `n`, so the chunks
        // below the old value are all that will ever be claimed: the ones
        // the caller ran and the ones helpers are running or have run.
        let claimed = self
            .next
            .swap(self.n, Ordering::SeqCst)
            .min(self.n)
            .div_ceil(self.chunk);
        let mut done = self.done.lock();
        while done.slots.iter().take(claimed).any(Option::is_none) {
            done = done.wait(&self.finished);
        }
        let slots = std::mem::take(&mut done.slots);
        let panicked = done.panic.take();
        drop(done);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        // Chunks are claimed contiguously from index 0, so unclaimed chunks
        // form a suffix; scanning in order meets the lowest-index error (if
        // any) before reaching it.
        let mut out = Vec::with_capacity(self.n);
        for slot in slots {
            match slot {
                Some(results) => {
                    for r in results {
                        out.push(r?);
                    }
                }
                None => {
                    return Err(QeError::Unsupported(
                        "parallel fan-out: unclaimed work chunk without a prior error".to_owned(),
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// The process-wide helper pool: published jobs with seats left, and the
/// condition variable parked helpers wait on.
struct Pool {
    queue: Ranked<VecDeque<Published>>,
    wake: Condvar,
}

/// A job on the queue and how many more helpers it admits.
struct Published {
    job: Arc<dyn Work>,
    seats: usize,
}

/// The pool, its helpers started on first use. Helpers are never joined:
/// they serve for the life of the process, and a panic in a job is caught
/// inside [`Work::claim_chunks`], so none ends early. A helper that cannot
/// be spawned is simply missing: every fan-out also runs on its caller, so
/// it still completes.
fn pool() -> &'static Pool {
    static POOL: Pool = Pool {
        queue: Ranked::new(Rank::LiftPool, VecDeque::new()),
        wake: Condvar::new(),
    };
    static HELPERS: Once = Once::new();
    HELPERS.call_once(|| {
        for _ in 1..hardware_threads() {
            let spawned = std::thread::Builder::new()
                .name("cdb-lift".to_owned())
                .spawn(|| POOL.run_helper());
            if spawned.is_err() {
                break;
            }
        }
    });
    &POOL
}

impl Pool {
    /// Put `job` on the queue for up to `seats` helpers and wake them.
    fn publish(&self, job: &Arc<dyn Work>, seats: usize) {
        self.queue.lock().push_back(Published {
            job: Arc::clone(job),
            seats,
        });
        for _ in 0..seats {
            self.wake.notify_one();
        }
    }

    /// Take `job` off the queue if no helper took its last seat: the caller
    /// has run out of chunks, so a helper arriving now would find none.
    fn withdraw(&self, job: &Arc<dyn Work>) {
        self.queue.lock().retain(|p| !Arc::ptr_eq(&p.job, job));
    }

    /// A helper's life: take a seat at the oldest published job, run it,
    /// park when the queue is empty.
    fn run_helper(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(front) = queue.front_mut() {
                        front.seats -= 1;
                        let job = Arc::clone(&front.job);
                        if front.seats == 0 {
                            queue.pop_front();
                        }
                        break job;
                    }
                    queue = queue.wait(&self.wake);
                }
            };
            job.claim_chunks();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    // The tests' handshake flags are plain mutexes outside the lock order:
    // they need `Condvar::wait_timeout_while`, and no ranked lock is taken
    // under them.
    #[allow(clippy::disallowed_types)]
    use std::sync::Mutex;

    /// `fan_out` over `items`, mapping each through `g`.
    fn map_items(
        items: &[u64],
        workers: usize,
        g: fn(u64) -> Result<u64, QeError>,
    ) -> Result<Vec<u64>, QeError> {
        let items: Arc<[u64]> = items.into();
        fan_out(items.len(), workers, move |i| g(items[i]))
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_items(&items, 8, |x| Ok(x * x)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_degenerate_case() {
        let out = map_items(&[1, 2, 3], 1, |x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn reports_lowest_index_error() {
        let items: Vec<u64> = (0..64).collect();
        let err = map_items(&items, 8, |x| {
            if x >= 10 {
                Err(QeError::Unsupported(format!("item {x}")))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, QeError::Unsupported("item 10".into()));
    }

    #[test]
    fn empty_input() {
        let out = map_items(&[], 4, Ok).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_len_scales_with_input() {
        // 96 jobs over 2 workers: 12-item chunks (8 claims total) instead
        // of 96 single-item claims.
        assert_eq!(chunk_len(96, 2), 12);
        // Few heavyweight jobs: per-item claiming preserved.
        assert_eq!(chunk_len(6, 4), 1);
        assert_eq!(chunk_len(1, 2), 1);
    }

    /// Error in the middle of a chunk: everything below it is still
    /// collected deterministically and the chunk's own first error wins
    /// over later chunks' errors.
    #[test]
    fn mid_chunk_error_is_lowest_index() {
        let items: Vec<u64> = (0..97).collect(); // non-multiple of chunk len
        for workers in [2, 3, 8] {
            let err = map_items(&items, workers, |x| {
                if x == 13 || x >= 40 {
                    Err(QeError::Unsupported(format!("item {x}")))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, QeError::Unsupported("item 13".into()));
        }
    }

    /// Same output for every worker count, including chunk-boundary sizes.
    #[test]
    fn worker_count_invariance() {
        for n in [1usize, 2, 7, 16, 95, 96, 97] {
            let items: Vec<u64> = (0..n as u64).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            for workers in [1usize, 2, 3, 4, 9] {
                let out = map_items(&items, workers, |x| Ok(x * 3 + 1)).unwrap();
                assert_eq!(out, expect, "n={n} workers={workers}");
            }
        }
    }

    /// Fan out two items on two workers, each waiting (up to 10 s) until
    /// the caller and a helper have both started one, so neither can run
    /// both. The item the helper runs answers `on_helper(i)`, the caller's
    /// `None`. With no helper coming, both are `None`.
    #[allow(clippy::disallowed_types)] // a handshake flag, see the `use` above
    fn one_item_on_a_helper<U: Send + 'static>(on_helper: fn(usize) -> U) -> Vec<Option<U>> {
        let caller = thread::current().id();
        let started = Arc::new((Mutex::new((false, false)), Condvar::new()));
        fan_out(2, 2, move |i| {
            let on_caller = thread::current().id() == caller;
            let (flags, cv) = &*started;
            let mut both = flags.lock().unwrap();
            if on_caller {
                both.0 = true;
            } else {
                both.1 = true;
            }
            cv.notify_all();
            let wait = Duration::from_secs(10);
            drop(cv.wait_timeout_while(both, wait, |(c, h)| !(*c && *h)));
            Ok((!on_caller).then(|| on_helper(i)))
        })
        .unwrap()
    }

    /// A panic in a job resumes on the calling thread, whether the caller
    /// or a helper raised it; the helper that caught one goes on serving,
    /// and the next fan-out completes with the sequential results.
    #[test]
    fn panic_resumes_on_the_caller_and_the_pool_survives() {
        let caught = panic::catch_unwind(|| {
            fan_out(4, 2, |i| -> Result<u64, QeError> {
                panic!("item {i} panicked")
            })
        });
        let message = |payload: Box<dyn Any + Send>| *payload.downcast::<String>().unwrap();
        let payload = caught.expect_err("the caller's own panic must resume");
        assert!(message(payload).ends_with(" panicked"));
        if hardware_threads() > 1 {
            let caught = panic::catch_unwind(|| {
                one_item_on_a_helper(|i| -> u64 { panic!("item {i} panicked on a helper") })
            });
            let payload = caught.expect_err("a helper's panic must resume on the caller");
            assert!(message(payload).ends_with(" panicked on a helper"));
            // Whichever item the helper claimed, it answers that one.
            let answers = one_item_on_a_helper(|i| i);
            let helped: Vec<(usize, usize)> = answers
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.map(|v| (i, v)))
                .collect();
            assert!(matches!(helped[..], [(i, v)] if i == v), "{answers:?}");
        }
        let items: Vec<u64> = (0..50).collect();
        let out = map_items(&items, 4, |x| Ok(x + 7)).unwrap();
        assert_eq!(out, (7..57).collect::<Vec<u64>>());
    }

    /// Two threads fan out at the same moment while the first one's job
    /// keeps every helper it admitted busy until the second job is done:
    /// the second caller runs its own job, so both finish with the
    /// sequential results. A pool whose callers only wait for helpers
    /// would hang here.
    #[test]
    #[allow(clippy::disallowed_types)] // a handshake flag, see the `use` above
    fn concurrent_fan_outs_finish_while_helpers_are_busy() {
        let second_done = Arc::new((Mutex::new(false), Condvar::new()));
        let helper_busy = Arc::new(Barrier::new(2));
        let first = {
            let (second_done, helper_busy) = (Arc::clone(&second_done), Arc::clone(&helper_busy));
            thread::spawn(move || {
                let caller = thread::current().id();
                let announced = AtomicBool::new(false);
                let out = fan_out(32, hardware_threads().max(2), move |i| {
                    if thread::current().id() != caller && !announced.swap(true, Ordering::SeqCst) {
                        helper_busy.wait();
                    }
                    let (flag, cv) = &*second_done;
                    let mut done = flag.lock().unwrap();
                    while !*done {
                        done = cv.wait(done).unwrap();
                    }
                    Ok(i * 2)
                });
                out.unwrap()
            })
        };
        // With helpers, start the second fan-out only once one of them is
        // stuck in the first job.
        if hardware_threads() > 1 {
            helper_busy.wait();
        }
        let second = fan_out(40, hardware_threads().max(2), |i| Ok(i + 1)).unwrap();
        assert_eq!(second, (1..=40).collect::<Vec<usize>>());
        let (flag, cv) = &*second_done;
        *flag.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(
            first.join().unwrap(),
            (0..32).map(|i| i * 2).collect::<Vec<usize>>()
        );
    }
}
