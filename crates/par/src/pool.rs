//! Persistent worker pool — fj-par's one executor.
//!
//! [`WorkerPool`] spawns its threads once and parks them on channels
//! between dispatches, so the streaming engine, which issues one sharded
//! dispatch *per chunk*, pays no spawn/join tax per chunk: dispatching
//! is a handful of channel sends. A pool with no threads
//! ([`WorkerPool::for_shards`] at one shard) runs every job inline on the
//! submitting thread with the same per-item panic capture, so callers
//! need no separate single-shard path.
//!
//! Every dispatch keeps the same contract:
//!
//! - **Deterministic reduction.** Items are carved into contiguous shards
//!   by [`shard_ranges`](crate::shard_ranges) and results are reassembled
//!   in ascending shard order, so the output vector is element-for-element
//!   identical to the sequential map for any shard or worker count.
//! - **Panic capture.** Worker closures run under per-item
//!   `catch_unwind`; a panic is reported as a [`ShardPanic`] with the
//!   lowest panicking shard winning deterministically. Worker threads
//!   never unwind, so a panicked chunk leaves the pool fully serviceable
//!   for the supervised retry.
//! - **Ownership ping-pong.** Because pool threads are `'static` they
//!   cannot borrow the caller's data; [`WorkerPool::submit`] takes the
//!   items *by value*, ships each shard's sub-vector to a worker, and
//!   [`Pending::wait`] hands every item back — including the items of a
//!   panicked shard, which the engine needs for supervised state restore.
//!
//! Concurrency inventory (FJ09): the pool is built exclusively on
//! [`std::sync::mpsc`] channels — no atomics, no locks, no unsafe. Jobs
//! are distributed round-robin by shard index (`shard % workers`), which
//! is deterministic and keeps shard counts far above the worker count
//! (the FJ01 1024-shard case) well-defined: each worker drains its jobs
//! in ascending shard order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{shard_ranges, ShardPanic, ShardStats, WorkerStats};

/// A unit of work shipped to a pool thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A shared monotonic clock sampled around a profiled dispatch.
type SharedClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// What one shard sends back when its job finishes (or panics).
struct ShardDone<T, R> {
    shard: usize,
    /// The shard's items, returned even when the closure panicked.
    items: Vec<T>,
    /// Per-item results up to (not including) the first panic.
    out: Vec<R>,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    started_us: u64,
    ended_us: u64,
}

/// A persistent pool of named worker threads (`fj-par-worker-{n}`).
///
/// Threads are spawned once in [`WorkerPool::new`] and parked on their
/// job channels until [`WorkerPool::submit`] feeds them; dropping the
/// pool closes the channels and joins every thread. A pool with no
/// threads — asked for, or because the OS refused every spawn — runs
/// each job inline on the submitting thread, preserving results exactly
/// (threads only ever decide wall-clock time).
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` parked threads; with `0`, every dispatch runs
    /// inline on the submitting thread.
    pub fn new(workers: usize) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for n in 0..workers {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            let spawned = std::thread::Builder::new()
                .name(format!("fj-par-worker-{n}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                });
            match spawned {
                Ok(handle) => {
                    senders.push(tx);
                    handles.push(handle);
                }
                // Out of threads: run with what we have (possibly none —
                // submit() then executes jobs inline).
                Err(_) => break,
            }
        }
        WorkerPool { senders, handles }
    }

    /// A pool sized for dispatches of `shards` shards: no threads at one
    /// shard or fewer, so every dispatch runs inline on the calling
    /// thread, and [`clamp_shards`](crate::clamp_shards)`(shards)`
    /// threads otherwise. Shard counts above the thread count round-robin
    /// onto the workers deterministically.
    pub fn for_shards(shards: usize) -> Self {
        Self::new(if shards <= 1 {
            0
        } else {
            crate::clamp_shards(shards)
        })
    }

    /// Worker threads actually running; 0 means jobs run inline on the
    /// submitting thread.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Dispatches `f` over `items` split into at most `shards` contiguous
    /// shards, returning immediately with a [`Pending`] handle (on a pool
    /// with no threads, after running every shard inline). The mapped
    /// results observed through [`Pending::wait`] are bit-identical to
    /// the sequential map over the same items for any shard or worker
    /// count.
    pub fn submit<T, R, F>(&self, items: Vec<T>, shards: usize, f: F) -> Pending<T, R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
    {
        self.submit_inner(items, shards, Arc::new(f), None)
    }

    /// [`WorkerPool::submit`] with per-worker utilization measured
    /// through a caller-supplied monotonic clock (units are whatever the
    /// clock returns; the engine passes its trace epoch, keeping this
    /// crate free of wall-clock reads): `spawn_wait` covers dispatch
    /// entry → job start (i.e. channel send plus queue wait behind
    /// earlier shards on the same worker), `busy` the item loop, and
    /// `join_wait` job end → `wait` returning.
    pub fn submit_profiled<T, R, F, C>(
        &self,
        items: Vec<T>,
        shards: usize,
        clock: C,
        f: F,
    ) -> Pending<T, R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
        C: Fn() -> u64 + Send + Sync + 'static,
    {
        let clock: SharedClock = Arc::new(clock);
        self.submit_inner(items, shards, Arc::new(f), Some(clock))
    }

    fn submit_inner<T, R, F>(
        &self,
        mut items: Vec<T>,
        shards: usize,
        f: Arc<F>,
        clock: Option<SharedClock>,
    ) -> Pending<T, R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
    {
        let entered_us = clock.as_ref().map_or(0, |c| c());
        let mut ranges = shard_ranges(items.len(), shards);
        if ranges.is_empty() {
            // An empty dispatch still runs one empty shard, so profiled
            // stats always report at least one worker.
            ranges.push(0..0);
        }
        // Carve the item vector into owned per-shard parts without
        // shifting: split the tail off back-to-front, then restore order.
        // Shard 0 keeps the original buffer.
        let mut parts: Vec<(usize, std::ops::Range<usize>, Vec<T>)> = Vec::new();
        for (shard, range) in ranges.into_iter().enumerate().rev() {
            let part = if range.start == 0 {
                std::mem::take(&mut items)
            } else {
                items.split_off(range.start)
            };
            parts.push((shard, range, part));
        }
        parts.reverse();
        let (done_tx, done_rx) = channel::<ShardDone<T, R>>();
        let jobs = parts.len();
        for (shard, range, part) in parts {
            let tx = done_tx.clone();
            let f = Arc::clone(&f);
            let clock = clock.clone();
            let job: Job = Box::new(move || {
                let started_us = clock.as_ref().map_or(0, |c| c());
                let mut part = part;
                let mut out = Vec::with_capacity(part.len());
                let mut panic = None;
                for (k, item) in part.iter_mut().enumerate() {
                    // Per-item capture keeps the worker thread alive and
                    // the shard's items recoverable after a panic.
                    match catch_unwind(AssertUnwindSafe(|| f(range.start + k, item))) {
                        Ok(r) => out.push(r),
                        Err(payload) => {
                            panic = Some(payload);
                            break;
                        }
                    }
                }
                let ended_us = clock.as_ref().map_or(0, |c| c());
                // The receiver may be gone if the Pending was dropped;
                // the work is then simply discarded.
                // fj-lint: allow(FJ05) — send into a possibly-closed
                // result channel: the only failure is "caller abandoned
                // the dispatch", and the caller owns that choice.
                let _ = tx.send(ShardDone {
                    shard,
                    items: part,
                    out,
                    panic,
                    started_us,
                    ended_us,
                });
            });
            // Round-robin by shard index: deterministic placement, and a
            // worker drains its queue in ascending shard order.
            match self.senders.get(shard % self.senders.len().max(1)) {
                Some(tx) => {
                    if let Err(send_err) = tx.send(job) {
                        // Worker thread gone (cannot happen while the
                        // pool is alive, but stay total): run inline.
                        (send_err.0)();
                    }
                }
                None => job(),
            }
        }
        Pending {
            rx: done_rx,
            jobs,
            entered_us,
            clock,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop; join so no
        // thread outlives the pool.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // fj-lint: allow(FJ05) — join on teardown: workers never
            // unwind (jobs catch per item), so an Err here means a
            // non-unwinding abort already took the process down.
            let _ = handle.join();
        }
    }
}

/// An in-flight sharded dispatch. Consume it with [`Pending::wait`];
/// dropping it instead abandons the results (workers finish and their
/// sends land in a closed channel).
pub struct Pending<T, R> {
    rx: Receiver<ShardDone<T, R>>,
    jobs: usize,
    entered_us: u64,
    clock: Option<SharedClock>,
}

impl<T, R> Pending<T, R> {
    /// Blocks until every shard reports, then reassembles items and
    /// results in ascending shard (= index) order.
    pub fn wait(self) -> Completed<T, R> {
        let mut done: Vec<Option<ShardDone<T, R>>> = (0..self.jobs).map(|_| None).collect();
        let mut received = 0;
        while received < self.jobs {
            match self.rx.recv() {
                Ok(d) => {
                    let slot = d.shard;
                    if done.get(slot).is_some_and(Option::is_none) {
                        done[slot] = Some(d);
                        received += 1;
                    }
                }
                // All senders gone with shards still missing: a worker
                // died mid-job. Surfaced below as a synthesized panic.
                Err(_) => break,
            }
        }
        let returned_us = self.clock.as_ref().map_or(0, |c| c());
        let mut items = Vec::new();
        let mut out = Vec::new();
        let mut workers = Vec::with_capacity(self.jobs);
        let mut first_panic: Option<ShardPanic> = None;
        for (shard, slot) in done.into_iter().enumerate() {
            match slot {
                Some(d) => {
                    if let Some(payload) = d.panic {
                        if first_panic.is_none() {
                            first_panic = Some(ShardPanic { shard, payload });
                        }
                    }
                    workers.push(WorkerStats {
                        shard,
                        items: d.items.len() as u64,
                        spawn_wait_us: d.started_us.saturating_sub(self.entered_us),
                        busy_us: d.ended_us.saturating_sub(d.started_us),
                        join_wait_us: returned_us.saturating_sub(d.ended_us),
                    });
                    items.extend(d.items);
                    out.extend(d.out);
                }
                None => {
                    if first_panic.is_none() {
                        first_panic = Some(ShardPanic {
                            shard,
                            payload: Box::new(format!(
                                "fj-par: pool worker lost shard {shard} without reporting"
                            )),
                        });
                    }
                }
            }
        }
        let stats = self.clock.as_ref().map(|_| ShardStats {
            wall_us: returned_us.saturating_sub(self.entered_us),
            workers,
        });
        let result = match first_panic {
            None => Ok(out),
            Some(p) => Err(p),
        };
        Completed {
            items,
            result,
            stats,
        }
    }
}

/// A finished pool dispatch.
pub struct Completed<T, R> {
    /// Every submitted item, reassembled in original index order — also
    /// on panic, so supervisors can restore state in place. (Items of a
    /// shard lost to a wedged worker are the one unrecoverable case; the
    /// caller detects it by length.)
    pub items: Vec<T>,
    /// Index-ordered results, or the lowest panicking shard's panic.
    pub result: Result<Vec<R>, ShardPanic>,
    /// Per-worker utilization; `Some` exactly for profiled dispatches.
    pub stats: Option<ShardStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_map_matches_sequential_for_any_shard_and_worker_count() {
        for workers in [0usize, 1, 2, 4] {
            let pool = WorkerPool::new(workers);
            for shards in [1usize, 2, 3, 7, 16, 257, 1024] {
                let items: Vec<u64> = (0..257).collect();
                let done = pool.submit(items, shards, |i, v: &mut u64| {
                    *v += 1;
                    i as u64 * 3 + *v
                });
                let completed = done.wait();
                let out = completed.result.expect("no panic");
                assert_eq!(
                    out,
                    (0..257u64).map(|i| i * 4 + 1).collect::<Vec<_>>(),
                    "workers {workers} shards {shards}"
                );
                assert_eq!(
                    completed.items,
                    (1..258u64).collect::<Vec<_>>(),
                    "items return mutated, in order"
                );
            }
        }
    }

    #[test]
    fn empty_dispatch_completes_immediately() {
        let pool = WorkerPool::new(2);
        let done = pool.submit(Vec::<u8>::new(), 4, |i, v| (i, *v)).wait();
        assert!(done.items.is_empty());
        assert!(done.result.expect("no panic").is_empty());
        assert!(done.stats.is_none());
    }

    #[test]
    fn more_shards_than_items_degrades_to_one_item_shards() {
        let pool = WorkerPool::new(3);
        let done = pool.submit(vec![10u8, 20, 30], 1024, |i, v| (i, *v)).wait();
        assert_eq!(
            done.result.expect("no panic"),
            vec![(0, 10), (1, 20), (2, 30)]
        );
        assert_eq!(done.items, vec![10, 20, 30]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        for (workers, shards) in [(4usize, 1usize), (4, 8), (0, 8)] {
            let pool = WorkerPool::new(workers);
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let done = pool
                .submit((0..64u64).collect(), shards, move |_, v: &mut u64| {
                    h.fetch_add(1, Ordering::Relaxed);
                    *v
                })
                .wait();
            assert_eq!(hits.load(Ordering::Relaxed), 64, "workers {workers}");
            assert_eq!(done.result.expect("no panic").len(), 64);
        }
    }

    #[test]
    fn lowest_panicking_shard_wins_and_items_survive() {
        // 32 items over 4 shards: panic at 20 (shard 2) and 5 (shard 0)
        // — shard 0 must win, and every item must come back mutated up
        // to (but excluding) its shard's panic site.
        for workers in [0usize, 2] {
            let pool = WorkerPool::new(workers);
            let done = pool
                .submit((0..32usize).collect(), 4, |i, v: &mut usize| {
                    *v += 100;
                    assert!(i != 20 && i != 5, "injected at {i}");
                    i
                })
                .wait();
            let err = done.result.expect_err("panics must surface");
            assert_eq!(err.shard, 0, "workers {workers}");
            let msg = err
                .payload
                .downcast_ref::<String>()
                .expect("assert message");
            assert!(msg.contains("injected"), "payload preserved: {msg}");
            // All 32 items return, in order; non-panicked ones mutated.
            assert_eq!(done.items.len(), 32);
            assert_eq!(done.items[0], 100);
            assert_eq!(done.items[31], 131);
        }
    }

    #[test]
    fn inline_panic_is_shard_zero_and_every_item_returns() {
        let pool = WorkerPool::for_shards(1);
        let done = pool
            .submit(vec![1u8, 2, 3], 1, |_, v: &mut u8| -> u8 {
                assert!(*v == 0, "inline injected for {v}");
                0
            })
            .wait();
        let err = done.result.expect_err("inline panic surfaces");
        assert_eq!(err.shard, 0);
        assert!(format!("{err:?}").contains("shard"));
        assert_eq!(done.items, vec![1, 2, 3]);
    }

    #[test]
    fn pool_survives_a_panicked_chunk_and_serves_the_next() {
        let pool = WorkerPool::new(2);
        let first = pool
            .submit((0..16usize).collect(), 4, |i, _: &mut usize| {
                assert!(i != 3, "injected");
                i
            })
            .wait();
        assert!(first.result.is_err());
        // Same pool, same threads: the retry must succeed.
        let second = pool
            .submit(first.items, 4, |i, v: &mut usize| i + *v)
            .wait();
        assert_eq!(second.result.expect("retry clean").len(), 16);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn profiled_dispatch_partitions_wall_per_worker() {
        for workers in [0usize, 2] {
            let tick = Arc::new(AtomicUsize::new(0));
            let t = Arc::clone(&tick);
            let pool = WorkerPool::new(workers);
            let done = pool
                .submit_profiled(
                    (0..53i64).collect(),
                    4,
                    move || t.fetch_add(1, Ordering::Relaxed) as u64,
                    |i, v: &mut i64| {
                        *v = i as i64;
                        i
                    },
                )
                .wait();
            let out = done.result.expect("no panic");
            assert_eq!(out, (0..53).collect::<Vec<usize>>());
            let stats = done.stats.expect("profiled");
            assert_eq!(stats.shards(), 4);
            assert_eq!(stats.items(), 53);
            // The fake clock is strictly monotonic, so each worker's three
            // segments partition the dispatch wall exactly.
            for w in &stats.workers {
                assert_eq!(
                    w.spawn_wait_us + w.busy_us + w.join_wait_us,
                    stats.wall_us,
                    "workers {workers} shard {}",
                    w.shard
                );
            }
        }
    }

    #[test]
    fn profiled_dispatch_surfaces_panics_like_unprofiled() {
        let pool = WorkerPool::new(2);
        let done = pool
            .submit_profiled(
                (0..32usize).collect(),
                4,
                || 0,
                |i, _: &mut usize| {
                    assert!(i != 20, "injected at {i}");
                    i
                },
            )
            .wait();
        assert_eq!(done.result.expect_err("panics must surface").shard, 2);
    }

    #[test]
    fn unprofiled_dispatch_reports_no_stats() {
        let pool = WorkerPool::new(2);
        let done = pool.submit(vec![1u8, 2, 3], 2, |_, v| *v).wait();
        assert!(done.stats.is_none());
        assert_eq!(done.result.expect("no panic"), vec![1, 2, 3]);
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let done = pool.submit((0..8u8).collect(), 8, |_, v| *v).wait();
        assert_eq!(done.result.expect("no panic").len(), 8);
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn one_shard_pool_has_no_threads_and_runs_inline() {
        for pool in [WorkerPool::new(0), WorkerPool::for_shards(1)] {
            assert_eq!(pool.workers(), 0);
            let done = pool.submit(vec![7u8], 4, |i, v| (i, *v)).wait();
            assert_eq!(done.result.expect("no panic"), vec![(0, 7)]);
        }
        assert_eq!(WorkerPool::for_shards(2).workers(), crate::clamp_shards(2));
    }
}
