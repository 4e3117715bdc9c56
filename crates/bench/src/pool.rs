//! The ordered worker pool: the one place in the workspace where cells
//! are dispatched to threads and waited on.
//!
//! A *job* is a set of cell indices plus a function that runs cell `i`
//! from any thread. Workers take cells **round-robin across jobs and FIFO
//! within a job** — one cell from job A, one from job B, … — so a small
//! job submitted behind a large one starts at once instead of waiting for
//! its predecessor. A consumer waits for its job's cells by index, in
//! whatever order it likes (in-order delivery is just waiting for cell 0,
//! then cell 1, …); where the results themselves live is the job
//! function's business, not the pool's.
//!
//! Two owners share this one protocol:
//!
//! * local runs ([`run_in_order`], behind [`crate::sweep::run_indexed`]
//!   and [`crate::sweep::SweepSpec::run_streamed`]) create a scoped
//!   `Pool` inside [`std::thread::scope`], submit one job and consume it
//!   on the calling thread;
//! * the `vpsim-serve` job server owns one long-lived `Pool<'static>` and
//!   submits one job per admitted submission.
//!
//! A panic inside a cell is caught and fails only that cell's job; the
//! worker lives on. [`Pool::cancel`] reclaims a job's pending cells (cells
//! already running finish normally), and [`Pool::close`] lets the workers
//! drain every pending cell of every live job before they exit.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The function a job runs its cells with.
type CellFn<'a> = Box<dyn Fn(usize) + Send + Sync + 'a>;

/// A pool of cells from many jobs, drained by whatever threads call
/// [`Pool::work`]. `'a` bounds what the jobs' cell functions borrow: a
/// scoped local run borrows its caller's stack, the server's pool is
/// `'static`.
pub struct Pool<'a> {
    state: Mutex<State<'a>>,
    /// Signalled when cells are queued or the pool closes.
    work: Condvar,
}

struct State<'a> {
    /// Jobs with at least one pending cell, in submission order.
    queue: Vec<Queued<'a>>,
    /// Round-robin pointer into `queue`.
    next: usize,
    closed: bool,
}

struct Queued<'a> {
    job: Arc<Job<'a>>,
    pending: VecDeque<usize>,
}

/// One submitted job: its cell function and the progress its consumers
/// wait on.
pub struct Job<'a> {
    run: CellFn<'a>,
    submitted: Instant,
    progress: Mutex<Progress>,
    /// Signalled, under `progress`, whenever a cell finishes or the job
    /// fails or is cancelled.
    ready: Condvar,
}

struct Progress {
    /// `unfinished[i]` is set for each submitted cell `i` until it has run.
    unfinished: Vec<bool>,
    /// When a worker first took one of this job's cells.
    first_dispatch: Option<Instant>,
    /// The payload of the first cell panic, until a waiter takes it.
    panic: Option<Box<dyn Any + Send>>,
    failed: bool,
    cancelled: bool,
}

/// Why [`Job::wait`] cannot deliver a cell.
#[derive(Debug)]
pub enum Failure {
    /// A cell of this job panicked. The first waiter to see the failure
    /// receives the panic payload; later waiters receive `None`.
    Panicked(Option<Box<dyn Any + Send>>),
    /// The job was cancelled before the cell finished.
    Cancelled,
}

impl<'a> Default for Pool<'a> {
    fn default() -> Self {
        Pool {
            state: Mutex::new(State { queue: Vec::new(), next: 0, closed: false }),
            work: Condvar::new(),
        }
    }
}

impl<'a> Pool<'a> {
    /// Queue `cells` (run FIFO, each at most once) as one job whose cells
    /// run as `run(i)`. `None` once the pool is closed. A job with no cells
    /// never enters the queue: every wait on it returns at once.
    pub fn submit(
        &self,
        cells: Vec<usize>,
        run: impl Fn(usize) + Send + Sync + 'a,
    ) -> Option<Arc<Job<'a>>> {
        let mut unfinished = vec![false; cells.iter().max().map_or(0, |&m| m + 1)];
        for &i in &cells {
            unfinished[i] = true;
        }
        let job = Arc::new(Job {
            run: Box::new(run),
            submitted: Instant::now(),
            progress: Mutex::new(Progress {
                unfinished,
                first_dispatch: None,
                panic: None,
                failed: false,
                cancelled: false,
            }),
            ready: Condvar::new(),
        });
        let mut st = self.state.lock().expect("pool state poisoned");
        if st.closed {
            return None;
        }
        if !cells.is_empty() {
            st.queue.push(Queued { job: Arc::clone(&job), pending: cells.into() });
            self.work.notify_all();
        }
        Some(job)
    }

    /// Reclaim `job`'s pending cells and return how many there were. Cells
    /// already running finish normally; waits on the job's unfinished cells
    /// return [`Failure::Cancelled`]. Cancelling twice reclaims nothing.
    pub fn cancel(&self, job: &Arc<Job<'a>>) -> usize {
        job.progress.lock().expect("job progress poisoned").cancelled = true;
        job.ready.notify_all();
        let mut st = self.state.lock().expect("pool state poisoned");
        let Some(qi) = st.queue.iter().position(|q| Arc::ptr_eq(&q.job, job)) else { return 0 };
        if st.next > qi {
            st.next -= 1;
        }
        st.queue.remove(qi).pending.len()
    }

    /// Stop accepting jobs. Workers drain every pending cell of every job
    /// not cancelled, so no consumer waits forever, then return.
    pub fn close(&self) {
        self.state.lock().expect("pool state poisoned").closed = true;
        self.work.notify_all();
    }

    /// The worker body: take the next cell round-robin across jobs, run
    /// it, publish its completion; return once the pool is closed and
    /// drained.
    pub fn work(&self) {
        while let Some((job, cell)) = self.take() {
            job.progress
                .lock()
                .expect("job progress poisoned")
                .first_dispatch
                .get_or_insert_with(Instant::now);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (job.run)(cell)));
            // Publish under the progress mutex, then notify: `wait` checks
            // progress while holding the mutex, so it has either already
            // seen this cell finish or is parked in `Condvar::wait` by the
            // time the notification goes out — it cannot fall between its
            // check and its wait and miss the wakeup.
            {
                let mut p = job.progress.lock().expect("job progress poisoned");
                match outcome {
                    Ok(()) => p.unfinished[cell] = false,
                    Err(payload) => {
                        p.failed = true;
                        p.panic.get_or_insert(payload);
                    }
                }
            }
            job.ready.notify_all();
        }
    }

    /// Block for the next cell; `None` once the pool is closed and empty.
    fn take(&self) -> Option<(Arc<Job<'a>>, usize)> {
        let mut st = self.state.lock().expect("pool state poisoned");
        loop {
            if !st.queue.is_empty() {
                let qi = st.next % st.queue.len();
                let queued = &mut st.queue[qi];
                let cell = queued.pending.pop_front().expect("queued jobs have pending cells");
                let job = Arc::clone(&queued.job);
                if queued.pending.is_empty() {
                    st.queue.remove(qi);
                    st.next = qi;
                } else {
                    st.next = qi + 1;
                }
                return Some((job, cell));
            }
            if st.closed {
                return None;
            }
            st = self.work.wait(st).expect("pool state poisoned");
        }
    }
}

impl Job<'_> {
    /// Block until cell `cell` has run. Cells that were never submitted
    /// count as done. A finished cell is `Ok` even if the job failed or
    /// was cancelled afterwards.
    pub fn wait(&self, cell: usize) -> Result<(), Failure> {
        let mut p = self.progress.lock().expect("job progress poisoned");
        loop {
            if !p.unfinished.get(cell).copied().unwrap_or(false) {
                return Ok(());
            }
            if p.failed {
                return Err(Failure::Panicked(p.panic.take()));
            }
            if p.cancelled {
                return Err(Failure::Cancelled);
            }
            p = self.ready.wait(p).expect("job progress poisoned");
        }
    }

    /// How long the job waited between submission and a worker first
    /// taking one of its cells: zero for a job that never entered the
    /// queue.
    pub fn queue_wait(&self) -> Duration {
        let p = self.progress.lock().expect("job progress poisoned");
        p.first_dispatch.map_or(Duration::ZERO, |t| t.duration_since(self.submitted))
    }
}

/// Run `run(i)` for every `i` in `cells` and call `consume(i)` on the
/// calling thread **in `cells` order**, each as soon as its cell (and every
/// cell before it) has run.
///
/// With `threads > 1` and more than one cell, the cells form one job on a
/// scoped pool of `min(threads, cells)` workers; otherwise everything runs
/// inline on the calling thread. A panic inside `run` resurfaces here with
/// its original payload.
pub fn run_in_order(
    cells: &[usize],
    threads: usize,
    run: impl Fn(usize) + Sync,
    mut consume: impl FnMut(usize),
) {
    if threads <= 1 || cells.len() <= 1 {
        for &i in cells {
            run(i);
            consume(i);
        }
        return;
    }
    let pool = Pool::default();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()) {
            scope.spawn(|| pool.work());
        }
        let job = pool.submit(cells.to_vec(), &run).expect("a fresh pool is open");
        // Close on every exit, unwinding included, so the workers return
        // and the scope can join them.
        let _close = Closer(&pool);
        for &i in cells {
            match job.wait(i) {
                Ok(()) => consume(i),
                Err(Failure::Panicked(Some(payload))) => {
                    pool.cancel(&job);
                    panic::resume_unwind(payload);
                }
                Err(other) => unreachable!("sole consumer saw {other:?}"),
            }
        }
    });
}

/// Closes its pool when dropped.
struct Closer<'p, 'a>(&'p Pool<'a>);

impl Drop for Closer<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;
    use std::thread;

    /// Run cell functions on a 1-worker pool started only after every job
    /// is queued, so the dispatch order is exactly the pick order.
    #[test]
    fn one_worker_alternates_between_jobs_then_finishes_the_longer() {
        let order = Mutex::new(Vec::new());
        let pool = Pool::default();
        let a = pool.submit(vec![0, 1, 2, 3], |i| order.lock().unwrap().push(('A', i))).unwrap();
        let b = pool.submit(vec![0, 1], |i| order.lock().unwrap().push(('B', i))).unwrap();
        pool.close();
        pool.work();
        assert_eq!(
            *order.lock().unwrap(),
            [('A', 0), ('B', 0), ('A', 1), ('B', 1), ('A', 2), ('A', 3)]
        );
        assert!((0..4).all(|i| a.wait(i).is_ok()) && (0..2).all(|i| b.wait(i).is_ok()));
    }

    #[test]
    fn close_drains_pending_cells_and_refuses_new_jobs() {
        let ran = AtomicU32::new(0);
        let pool = Pool::default();
        let job = pool
            .submit(vec![5, 2, 7], |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        pool.close();
        assert!(pool.submit(vec![0], |_| {}).is_none(), "a closed pool takes no jobs");
        pool.work();
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        for i in 0..9 {
            assert!(job.wait(i).is_ok(), "cell {i}");
        }
    }

    #[test]
    fn empty_jobs_never_queue_and_report_no_wait() {
        let pool = Pool::default();
        let job = pool.submit(Vec::new(), |_| unreachable!()).unwrap();
        assert!(job.wait(0).is_ok());
        assert_eq!(job.queue_wait(), Duration::ZERO);
        assert_eq!(pool.cancel(&job), 0);
    }

    #[test]
    fn run_in_order_consumes_in_order_for_every_thread_count() {
        let cells: Vec<usize> = (0..23).map(|i| (i * 7) % 23).collect();
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            run_in_order(&cells, threads, |_| {}, |i| seen.push(i));
            assert_eq!(seen, cells, "threads={threads}");
        }
        run_in_order(&[], 4, |_| unreachable!(), |_| unreachable!());
    }

    #[test]
    fn a_panicking_cell_fails_only_its_job_and_keeps_every_worker() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(gate_rx);
        let (to_one, from_zero) = mpsc::channel();
        let (to_zero, from_one) = mpsc::channel();
        let inboxes = [Mutex::new(from_one), Mutex::new(from_zero)];
        let outboxes = [to_one, to_zero];
        let pool = Pool::default();
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| pool.work());
            }
            // The bad job's cell 1 waits for the good job to be queued, so
            // both are in flight at once.
            let bad = pool
                .submit(vec![0, 1, 2], |i| {
                    if i == 1 {
                        gate.lock().unwrap().recv().unwrap();
                        panic!("cell {i} exploded");
                    }
                })
                .unwrap();
            let good = pool.submit((0..6).collect(), |_| {}).unwrap();
            gate_tx.send(()).unwrap();
            assert!(bad.wait(0).is_ok());
            match bad.wait(1) {
                Err(Failure::Panicked(Some(payload))) => {
                    assert_eq!(payload.downcast_ref::<String>().unwrap(), "cell 1 exploded");
                }
                other => panic!("expected the cell's panic, got {other:?}"),
            }
            assert!(matches!(bad.wait(1), Err(Failure::Panicked(None))));
            pool.cancel(&bad);
            assert!((0..6).all(|i| good.wait(i).is_ok()), "the concurrent job completes");
            // Both workers survived the panic: a later job whose two cells
            // must run at the same time still completes.
            let later = pool
                .submit(vec![0, 1], |i| {
                    outboxes[i].send(()).unwrap();
                    inboxes[i]
                        .lock()
                        .unwrap()
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the other cell runs on a second worker");
                })
                .unwrap();
            assert!(later.wait(0).is_ok() && later.wait(1).is_ok());
            pool.close();
        });
    }

    /// Tiny deterministic generator (SplitMix64) for the stress schedule.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    struct StressJob {
        cells: Vec<usize>,
        work: Vec<u64>,
        ran: Vec<AtomicU32>,
        cancel_after: Option<usize>,
    }

    /// One seeded round: 4 workers, 5 jobs of random sizes whose cells
    /// spin or yield for random lengths, one in-order consumer thread per
    /// job, some jobs cancelled midway.
    fn stress_round(seed: u64) {
        let mut rng = Mix(seed);
        let jobs: Vec<StressJob> = (0..5)
            .map(|_| {
                let n = 1 + rng.below(40) as usize;
                let mut cells: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    cells.swap(k, rng.below(k as u64 + 1) as usize);
                }
                StressJob {
                    work: (0..n).map(|_| rng.below(3_000)).collect(),
                    ran: (0..n).map(|_| AtomicU32::new(0)).collect(),
                    cancel_after: (rng.below(3) == 0).then(|| rng.below(n as u64) as usize),
                    cells,
                }
            })
            .collect();
        let pool = Pool::default();
        let reclaimed: usize = thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| pool.work());
            }
            let consumers: Vec<_> = jobs
                .iter()
                .map(|sj| {
                    let job = pool
                        .submit(sj.cells.clone(), move |i| {
                            let w = sj.work[i];
                            if w % 2 == 0 {
                                for _ in 0..w / 8 {
                                    thread::yield_now();
                                }
                            } else {
                                let mut x = w;
                                for _ in 0..w * 20 {
                                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
                                }
                            }
                            sj.ran[i].fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        let mut reclaimed = 0;
                        for &i in &sj.cells {
                            if Some(seen.len()) == sj.cancel_after {
                                reclaimed = pool.cancel(&job);
                            }
                            match job.wait(i) {
                                Ok(()) => {
                                    assert_eq!(sj.ran[i].load(Ordering::SeqCst), 1, "cell {i}");
                                    seen.push(i);
                                }
                                Err(Failure::Cancelled) if sj.cancel_after.is_some() => break,
                                Err(e) => panic!("job failed: {e:?}"),
                            }
                        }
                        assert_eq!(seen, sj.cells[..seen.len()], "consumed in order");
                        if sj.cancel_after.is_none() {
                            assert_eq!(seen.len(), sj.cells.len());
                        }
                        reclaimed
                    })
                })
                .collect();
            let reclaimed = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            pool.close();
            reclaimed
        });
        let mut ran = 0;
        for sj in &jobs {
            for (i, count) in sj.ran.iter().enumerate() {
                let count = count.load(Ordering::SeqCst);
                assert!(count <= 1, "cell {i} ran {count} times");
                if sj.cancel_after.is_none() {
                    assert_eq!(count, 1, "cell {i} of a live job never ran");
                }
                ran += count as usize;
            }
        }
        let submitted: usize = jobs.iter().map(|sj| sj.cells.len()).sum();
        assert_eq!(ran + reclaimed, submitted, "every cell either ran or was reclaimed");
    }

    /// Seeded rounds under a watchdog: a lost wakeup shows as a hang,
    /// which the watchdog turns into a failure naming the seed.
    #[test]
    fn seeded_stress_delivers_in_order_runs_once_and_never_hangs() {
        for seed in 0..24u64 {
            let (tx, rx) = mpsc::channel();
            let round = thread::spawn(move || {
                stress_round(seed);
                let _ = tx.send(());
            });
            match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(()) => round.join().unwrap(),
                // The round panicked: resurface its assertion.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    if let Err(payload) = round.join() {
                        panic::resume_unwind(payload);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("seed {seed}: pool hung"),
            }
        }
    }
}
