//! Micro-batching of concurrent top-k queries.
//!
//! Request threads — threaded-backend workers and evented-backend
//! executors alike — don't call the scoring kernel directly; they
//! submit jobs to a [`Batcher`] and block on a reply channel. A single
//! drain thread collects everything that queued up while the previous
//! batch was computing (up to `max_batch`) and answers the whole batch
//! with one [`QueryBackend::top_k_batch`] pass — so under concurrent
//! load the embedding matrix is read once per *batch*, not once per
//! *request*, and per-request latency amortizes the memory traffic.
//! Under light load the queue is almost always length 1 and the drain
//! thread behaves like a direct call — no artificial delay is added.
//!
//! The batcher is transport- and backend-agnostic: it runs over any
//! [`QueryBackend`] — a monolithic engine or a shard router alike.

use crate::backend::QueryBackend;
use crate::cost::QueryCost;
use crate::engine::Neighbor;
use crate::Result;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How one queued query wants to be answered.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Full scan (bit-exact).
    Exact,
    /// IVF probe of `nprobe` lists (`0` = backend default width).
    Approx { nprobe: usize },
}

struct Job {
    node: usize,
    k: usize,
    mode: Mode,
    /// Every answer travels with the pass's cost profile: queue wait
    /// and kernel time are per member, the backend counters are the
    /// whole pass's (cost accounting is always on; callers that don't
    /// want the cost just drop it).
    reply: mpsc::Sender<(Result<Vec<Neighbor>>, QueryCost)>,
    /// Trace (request) id captured at submit time, so the drain
    /// thread can attribute queue wait and kernel time to the HTTP
    /// request even though it runs on its own thread. 0 = untraced.
    trace: u64,
    /// Submit timestamp (µs since the tracing epoch) — always
    /// captured, it feeds `QueryCost::queue_wait_us` even with
    /// tracing off.
    enqueued_us: u64,
}

#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// Batches concurrent top-k queries into single kernel passes.
///
/// ```
/// use sgla_serve::batch::Batcher;
/// use sgla_serve::{Artifact, EngineConfig, QueryEngine, TrainConfig};
/// use std::sync::Arc;
///
/// let mvag = mvag_data::toy_mvag(40, 2, 7);
/// let mut config = TrainConfig::default();
/// config.embed.dim = 4;
/// let engine = Arc::new(
///     QueryEngine::new(Artifact::train(&mvag, &config).unwrap(), EngineConfig::default())
///         .unwrap(),
/// );
///
/// let batcher = Batcher::new(engine.clone(), 16);
/// let via_batcher = batcher.top_k(5, 3).0.unwrap();
/// assert_eq!(via_batcher, engine.top_k_similar(5, 3).unwrap());
/// ```
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    /// Largest batch drained in one pass (observability).
    max_batch: usize,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("max_batch", &self.max_batch)
            .finish()
    }
}

impl Batcher {
    /// Starts the drain thread over any backend. `max_batch` bounds
    /// how many queued queries one kernel pass may absorb.
    pub fn new(backend: Arc<dyn QueryBackend>, max_batch: usize) -> Batcher {
        let max_batch = max_batch.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("sgla-batcher".into())
            .spawn(move || drain_loop(&worker_shared, backend.as_ref(), max_batch))
            .expect("spawn batcher thread");
        Batcher {
            shared,
            worker: Some(worker),
            max_batch,
        }
    }

    /// Enqueues one exact query and blocks until its answer arrives.
    /// The answer comes with the query's cost profile: the shared
    /// kernel pass's backend counters with this member's own queue
    /// wait and compute time. Accounting never perturbs results.
    ///
    /// # Errors
    /// Query errors from the engine; [`crate::ServeError::Server`] if
    /// the batcher is shutting down.
    pub fn top_k(&self, node: usize, k: usize) -> (Result<Vec<Neighbor>>, QueryCost) {
        self.submit(node, k, Mode::Exact)
    }

    /// Enqueues one approximate (IVF-probed) query and blocks until
    /// its answer and cost profile arrive. `nprobe = 0` uses the
    /// backend's default probe width.
    ///
    /// # Errors
    /// Query errors from the engine (including "no index attached");
    /// [`crate::ServeError::Server`] if the batcher is shutting down.
    pub fn top_k_approx(
        &self,
        node: usize,
        k: usize,
        nprobe: usize,
    ) -> (Result<Vec<Neighbor>>, QueryCost) {
        self.submit(node, k, Mode::Approx { nprobe })
    }

    fn submit(&self, node: usize, k: usize, mode: Mode) -> (Result<Vec<Neighbor>>, QueryCost) {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().expect("batch queue lock");
            if q.shutdown {
                return (
                    Err(crate::ServeError::Server("batcher is shut down".into())),
                    QueryCost::default(),
                );
            }
            let traced = mvag_obs::enabled();
            q.jobs.push(Job {
                node,
                k,
                mode,
                reply: tx,
                trace: if traced { mvag_obs::current_trace() } else { 0 },
                enqueued_us: mvag_obs::now_us(),
            });
        }
        self.shared.available.notify_one();
        match rx.recv() {
            Ok(reply) => reply,
            Err(_) => (
                Err(crate::ServeError::Server(
                    "batcher dropped the query".into(),
                )),
                QueryCost::default(),
            ),
        }
    }

    /// Stops the drain thread; queued queries get a shutdown error.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("batch queue lock");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn drain_loop(shared: &Shared, backend: &dyn QueryBackend, max_batch: usize) {
    loop {
        let batch: Vec<Job> = {
            let mut q = shared.queue.lock().expect("batch queue lock");
            while q.jobs.is_empty() && !q.shutdown {
                q = shared.available.wait(q).expect("batch queue lock");
            }
            if q.jobs.is_empty() && q.shutdown {
                return;
            }
            let take = q.jobs.len().min(max_batch);
            q.jobs.drain(..take).collect()
        };
        // One drained batch may mix exact and approx queries; each
        // flavor gets its own kernel pass (they share the pass with
        // their own kind — the shapes of the two scans differ).
        let traced = mvag_obs::enabled();
        if traced {
            // Queue wait per request: submit → pickup by this drain.
            let picked_up = mvag_obs::now_us();
            for job in &batch {
                if job.trace != 0 {
                    mvag_obs::record(
                        job.trace,
                        "serve.queue_wait",
                        job.enqueued_us,
                        picked_up.saturating_sub(job.enqueued_us),
                        1,
                    );
                }
            }
        }
        let mut exact: Vec<(usize, (usize, usize))> = Vec::new();
        let mut approx: Vec<(usize, (usize, usize, usize))> = Vec::new();
        for (pos, job) in batch.iter().enumerate() {
            match job.mode {
                Mode::Exact => exact.push((pos, (job.node, job.k))),
                Mode::Approx { nprobe } => approx.push((pos, (job.node, job.k, nprobe))),
            }
        }
        let mut answers: Vec<Option<(Result<Vec<Neighbor>>, QueryCost)>> =
            batch.iter().map(|_| None).collect();
        // Runs one kernel pass with the first traced job's id as the
        // ambient trace (so backend-internal spans — router fan-out,
        // lazy shard loads — attach to *a* request of the batch; when
        // batches are bigger than one, siblings share those inner
        // spans), then records the pass as a `serve.backend` stage on
        // *every* job's trace — the per-request backend-time stage.
        // Returns `(answers, pass cost, pass start µs, pass µs)`; the
        // timing is taken unconditionally because it feeds the cost
        // profile even with tracing off.
        let run_pass = |members: &[usize],
                        pass: &dyn Fn() -> (Vec<Result<Vec<Neighbor>>>, QueryCost)|
         -> (Vec<Result<Vec<Neighbor>>>, QueryCost, u64, u64) {
            let start_us = mvag_obs::now_us();
            let (results, cost) = if traced {
                let pass_trace = members
                    .iter()
                    .map(|&pos| batch[pos].trace)
                    .find(|&t| t != 0)
                    .unwrap_or(0);
                mvag_obs::with_trace(pass_trace, pass)
            } else {
                pass()
            };
            let dur_us = mvag_obs::now_us().saturating_sub(start_us);
            if traced {
                for &pos in members {
                    mvag_obs::record_with(
                        batch[pos].trace,
                        "serve.backend",
                        start_us,
                        dur_us,
                        1,
                        vec![("batch", members.len() as u64)],
                    );
                }
            }
            (results, cost, start_us, dur_us)
        };
        // Each batch member gets the whole pass's backend counters
        // plus its own queue wait (submit → pass start) and the pass's
        // compute time.
        let mut fill = |members: &[usize],
                        results: Vec<Result<Vec<Neighbor>>>,
                        pass_cost: QueryCost,
                        start_us: u64,
                        dur_us: u64| {
            for (&pos, answer) in members.iter().zip(results) {
                let mut cost = pass_cost.clone();
                cost.queue_wait_us = start_us.saturating_sub(batch[pos].enqueued_us);
                cost.compute_us = dur_us;
                answers[pos] = Some((answer, cost));
            }
        };
        if !exact.is_empty() {
            let queries: Vec<(usize, usize)> = exact.iter().map(|&(_, q)| q).collect();
            let members: Vec<usize> = exact.iter().map(|&(pos, _)| pos).collect();
            let (results, cost, start_us, dur_us) =
                run_pass(&members, &|| backend.top_k_batch_costed(&queries));
            fill(&members, results, cost, start_us, dur_us);
        }
        if !approx.is_empty() {
            let queries: Vec<(usize, usize, usize)> = approx.iter().map(|&(_, q)| q).collect();
            let members: Vec<usize> = approx.iter().map(|&(pos, _)| pos).collect();
            let (results, cost, start_us, dur_us) =
                run_pass(&members, &|| backend.top_k_batch_approx_costed(&queries));
            fill(&members, results, cost, start_us, dur_us);
        }
        for (job, answer) in batch.into_iter().zip(answers) {
            // A dropped receiver just means the client went away.
            let _ = job.reply.send(answer.expect("every job answered"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, TrainConfig};
    use crate::engine::{EngineConfig, QueryEngine};
    use mvag_graph::toy::toy_mvag;

    fn engine() -> Arc<QueryEngine> {
        let mvag = toy_mvag(60, 2, 3);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        let artifact = Artifact::train(&mvag, &config).unwrap();
        Arc::new(QueryEngine::new(artifact, EngineConfig::default()).unwrap())
    }

    #[test]
    fn concurrent_submissions_match_direct_calls() {
        let engine = engine();
        let batcher = Arc::new(Batcher::new(engine.clone(), 32));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let batcher = Arc::clone(&batcher);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..25usize {
                    let node = (t * 25 + i) % 60;
                    let got = batcher.top_k(node, 5).0.unwrap();
                    let want = engine.top_k_similar(node, 5).unwrap();
                    assert_eq!(got, want, "node {node}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn mixed_exact_and_approx_batches_route_correctly() {
        let mvag = toy_mvag(60, 2, 3);
        let mut config = TrainConfig::default();
        config.embed.dim = 6;
        let artifact = Artifact::train(&mvag, &config).unwrap();
        let engine = Arc::new(
            QueryEngine::new(
                artifact,
                EngineConfig {
                    index: Some(mvag_index::IvfConfig { nlist: 4, seed: 1 }),
                    ..EngineConfig::default()
                },
            )
            .unwrap(),
        );
        let batcher = Arc::new(Batcher::new(engine.clone(), 32));
        let mut handles = Vec::new();
        for t in 0..6usize {
            let batcher = Arc::clone(&batcher);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..20usize {
                    let node = (t * 20 + i) % 60;
                    if (t + i) % 2 == 0 {
                        let got = batcher.top_k(node, 5).0.unwrap();
                        assert_eq!(got, engine.top_k_similar(node, 5).unwrap());
                    } else {
                        // Full probe: deterministic, equals exact.
                        let got = batcher.top_k_approx(node, 5, usize::MAX).0.unwrap();
                        assert_eq!(got, engine.top_k_similar(node, 5).unwrap());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = engine.index_stats();
        assert!(stats.approx_queries > 0 && stats.exact_queries > 0);
    }

    #[test]
    fn invalid_queries_get_their_own_error() {
        let engine = engine();
        let batcher = Batcher::new(engine, 8);
        assert!(batcher.top_k(10_000, 5).0.is_err());
        assert!(batcher.top_k(0, 5).0.is_ok());
    }

    #[test]
    fn shutdown_rejects_new_queries() {
        let engine = engine();
        let mut batcher = Batcher::new(engine, 8);
        batcher.shutdown();
        assert!(batcher.top_k(0, 5).0.is_err());
    }
}
