//! Morsel-driven parallel task execution for the operator pipeline.
//!
//! Every heavy operator (scan, hash-join build and probe, aggregation)
//! has one code path: it splits its input into tasks and hands them to
//! [`run_tasks`] through its [`PoolUse`]. The operator asks [`workers`] how many threads it may
//! use, which depends only on the plan's thread count and the size of
//! the input: under [`PAR_THRESHOLD`] rows it is one. `run_tasks` is the
//! one place that decides between running the tasks inline on the
//! calling thread (one worker or one task) and launching a scoped pool
//! whose workers pull task indices from a shared atomic cursor. Either
//! way results land in per-task slots, so callers always see them in
//! task order — the cornerstone of the executor's determinism.
//!
//! Cooperative cancellation: the ambient [`aqks_guard`] governor is
//! captured on the calling thread (thread-local installs don't cross
//! into workers) and its deadline is re-checked before every task, so a
//! tripped budget stops all workers within one morsel. Row charging
//! stays on the calling thread at the operators' charge sites, which
//! keeps budget accounting byte-identical across thread counts.
//!
//! Observability: when a recorder is installed and a pool is actually
//! launched, a `par:<site>` span wraps the pool and each worker records
//! a `worker` child span with its completed-task count, using the
//! cross-thread `SpanHandle` API. Always-on metrics mirror the same
//! numbers into the global registry: each worker accumulates its task
//! count locally and merges it with a single atomic add at scope exit,
//! so totals are exact regardless of scheduling or thread count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aqks_obs::metrics::{Counter, LabeledCounter};

use crate::exec::ExecError;

/// Completed parallel tasks, labeled by call site. Each worker adds its
/// local tally exactly once when it exits, so the per-site total equals
/// the task count of every pool run at that site.
static PAR_TASKS: LabeledCounter = LabeledCounter::new("aqks_par_tasks", "site");

/// Worker-pool launches (inline runs are not counted).
static PAR_POOLS: Counter = Counter::new("aqks_par_pools");

/// Rows per morsel: the unit of work a task filters, builds or probes,
/// and the size of the batches operators emit.
pub(crate) const MORSEL: usize = 1024;

/// Inputs smaller than this get one worker whatever the thread count —
/// below it, pool overhead exceeds the win.
pub(crate) const PAR_THRESHOLD: usize = 4096;

/// Workers an operator may use on an input of `rows` rows when the plan
/// runs with `threads` threads.
pub(crate) fn workers(threads: usize, rows: usize) -> usize {
    if rows >= PAR_THRESHOLD {
        threads.max(1)
    } else {
        1
    }
}

/// Threads a [`run_tasks`] call occupies: more than one means a pool.
fn pool_size(workers: usize, tasks: usize) -> usize {
    workers.min(tasks).max(1)
}

/// The pool runs of one operator: the widest pool and the wall time
/// spent inside pools, reported in the operator's metrics.
#[derive(Debug, Default)]
pub(crate) struct PoolUse {
    threads: u32,
    wall: Duration,
}

impl PoolUse {
    /// [`run_tasks`], recording the run when it launched a pool.
    pub(crate) fn run<T, F>(
        &mut self,
        workers: usize,
        n: usize,
        site: &'static str,
        task: F,
    ) -> Result<Vec<T>, ExecError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, ExecError> + Sync,
    {
        let t = Instant::now();
        let out = run_tasks(workers, n, site, task)?;
        let size = pool_size(workers, n);
        if size > 1 {
            self.threads = self.threads.max(size as u32);
            self.wall += t.elapsed();
        }
        Ok(out)
    }

    /// `(threads, wall)` when any pool ran.
    pub(crate) fn info(&self) -> Option<(u32, Duration)> {
        (self.threads > 1).then_some((self.threads, self.wall))
    }
}

/// Recovers a poisoned mutex: a worker panicking mid-store cannot leave
/// the slot table unreadable (the panic still propagates via the scope).
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `n` independent tasks on up to `threads` workers and returns
/// their results in task order. Errors are deterministic: the
/// lowest-index failing task wins, matching what an inline run would
/// report first.
fn run_tasks<T, F>(
    threads: usize,
    n: usize,
    site: &'static str,
    task: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    let gov = aqks_guard::current();
    let workers = pool_size(threads, n);
    if workers <= 1 {
        // Inline: no pool, no spans.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(g) = &gov {
                g.check_deadline(site)?;
            }
            out.push(task(i)?);
        }
        return Ok(out);
    }

    let span = aqks_obs::current().map(|rec| rec.span(format!("par:{site}")));
    let handle = span.as_ref().map(|s| s.handle());
    if aqks_obs::metrics::enabled() {
        PAR_POOLS.add(1);
    }

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, ExecError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let wspan = handle.as_ref().map(|h| h.child("worker"));
                let mut done = 0u64;
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let res = match &gov {
                        Some(g) => {
                            g.check_deadline(site).map_err(ExecError::from).and_then(|_| task(i))
                        }
                        None => task(i),
                    };
                    let is_err = res.is_err();
                    *relock(&slots[i]) = Some(res);
                    if is_err {
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                    done += 1;
                }
                if let Some(s) = &wspan {
                    s.add("par.tasks", done);
                }
                // One merge per worker lifetime: the handoff to the
                // shared registry happens here, not per task, so the
                // hot loop stays free of shared-cacheline traffic.
                if done > 0 && aqks_obs::metrics::enabled() {
                    PAR_TASKS.add(site, done);
                }
            });
        }
    });

    if let Some(s) = &span {
        s.add("par.workers", workers as u64);
    }

    let results: Vec<Option<Result<T, ExecError>>> =
        slots.into_iter().map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner())).collect();
    // Deterministic error selection: scan in task order.
    for r in &results {
        if let Some(Err(e)) = r {
            return Err(e.clone());
        }
    }
    let mut out = Vec::with_capacity(n);
    for r in results {
        match r {
            Some(Ok(v)) => out.push(v),
            // Unreached in practice: slots stay empty only after another
            // task failed, and that error returned above.
            _ => return Err(ExecError::Unsupported("parallel task cancelled".into())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_tasks(threads, 100, "test.par", |i| Ok(i * 3)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Whatever the scheduling, the reported failure is task 7's.
        let out: Result<Vec<usize>, _> = run_tasks(4, 64, "test.par", |i| {
            if i % 7 == 0 && i > 0 {
                Err(ExecError::Unsupported(format!("task {i}")))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(ExecError::Unsupported("task 7".into())));
    }

    #[test]
    fn failure_stops_the_pool_early() {
        let started = AtomicU64::new(0);
        let _ = run_tasks::<(), _>(4, 10_000, "test.par", |i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(ExecError::Unsupported("boom".into()))
            } else {
                Ok(())
            }
        });
        // Not all 10k tasks ran: the failed flag short-circuits workers.
        assert!(started.load(Ordering::Relaxed) < 10_000);
    }

    #[test]
    fn worker_task_counters_merge_exactly_across_threads() {
        // A unique site label partitions this test's registry deltas
        // from concurrent tests, so the comparison can be exact.
        aqks_obs::metrics::set_enabled(true);
        let delta = |snap: &aqks_obs::metrics::Snapshot| {
            snap.find("aqks_par_tasks", Some("test.par.merge"))
                .map(|m| match &m.value {
                    aqks_obs::metrics::MetricValue::Counter(v) => *v,
                    _ => panic!("aqks_par_tasks is a counter"),
                })
                .unwrap_or(0)
        };
        let before = delta(&aqks_obs::metrics::global().snapshot());
        for _ in 0..4 {
            run_tasks(8, 1_000, "test.par.merge", |i| {
                std::hint::black_box(i);
                Ok(())
            })
            .unwrap();
        }
        let after = delta(&aqks_obs::metrics::global().snapshot());
        // Every task is counted exactly once, no matter which worker
        // ran it or how the morsels interleaved.
        assert_eq!(after - before, 4_000);
    }

    #[test]
    fn tasks_actually_run_on_multiple_threads() {
        let ids = Mutex::new(HashSet::new());
        run_tasks(4, 256, "test.par", |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
            Ok(())
        })
        .unwrap();
        assert!(ids.into_inner().unwrap().len() > 1);
    }
}
