//! The gateway server: a multi-threaded TCP front-end over the
//! `drift-serve` runtime.
//!
//! ```text
//!            acceptor thread (non-blocking listener)
//!                 │ spawns one reader per connection   (crate::conn)
//!   reader ──try_submit_batch──▶ bounded JobQueue ──▶ worker pool (one
//!     │  shed: {"error":"overloaded"}   of key groups   DriftAccelerator
//!     │                                                 each, shared
//!     └─▶ writer thread ◀──reply channel─────────────── schedule cache)
//! ```
//!
//! Every request takes one path. A request — a singleton line or a
//! batch line — is split into groups of items sharing a schedule key,
//! and each group occupies one queue slot and runs on one worker
//! through `drift_serve::worker::execute_group`, so its key is solved
//! or fetched once. A singleton is a batch of one; it differs only in
//! rendering its one item line instead of a batch response line.
//!
//! Three properties the batch runtime does not need become load-bearing
//! here and are owned by this module:
//!
//! * **admission control** — submission uses the queue's non-blocking
//!   [`JobQueue::try_submit_batch`]: either every group of a request is
//!   admitted or the request is shed with a structured `overloaded`
//!   response instead of blocking the socket, and a deadline budget
//!   below the observed service-time estimate is shed as
//!   `deadline_unmeetable` before it can occupy a slot;
//! * **deadlines** — each request carries a millisecond budget from
//!   admission; workers check it when they dequeue a group *and* again
//!   after executing it, answering `deadline_exceeded` for expired
//!   work. With `--queue edf` the queue drains
//!   earliest-deadline-first instead of FIFO (`docs/SCHEDULING.md`);
//! * **graceful drain** — [`Gateway::shutdown`] stops the acceptor,
//!   lets readers wind down, flushes every accepted job's response
//!   through its connection writer, and only then closes the queue and
//!   joins the workers. No accepted job is lost.
//!
//! The acceptor, readers and writers are the shared [`crate::conn`]
//! loop, which the router reuses: stalled clients cannot pin threads.

use crate::conn::{Acceptor, LineService, Reply};
use crate::protocol::{
    self, ControlOp, Request, ERR_BAD_REQUEST, ERR_DEADLINE, ERR_OVERLOADED, ERR_UNMEETABLE,
};
use crossbeam::channel::Sender;
use drift_core::accelerator::DriftAccelerator;
use drift_core::arch::paper_fabric;
use drift_core::schedule::ScheduleKey;
use drift_obs::{Recorder, SpanRecord, TraceDecision, TraceId, Tracer};
use drift_serve::cache::ScheduleCache;
use drift_serve::job::{result_line, JobOutcome, JobResult, JobSpec};
use drift_serve::persist::{open_and_preload, StoreBinding};
use drift_serve::queue::{job_queue_with_policy, Deadlined, JobQueue, QueuePolicy, WorkerHandle};
use drift_serve::worker::{execute_group, schedule_key_for, ItemSpans};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one gateway instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Worker threads executing jobs (at least 1).
    pub workers: usize,
    /// Maximum admitted schedule-key groups waiting in the queue (a
    /// singleton is one group); beyond this, requests are shed with
    /// `overloaded`.
    pub queue_depth: usize,
    /// Total schedules the shared cache may hold.
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Default per-request deadline budget in milliseconds, applied
    /// when a request carries no `deadline_ms` field. `0` disables the
    /// default (requests without a field get no deadline).
    pub default_deadline_ms: u64,
    /// Close a connection after this long without a complete request
    /// line. `0` disables idle expiry.
    pub idle_timeout_ms: u64,
    /// Queue discipline for admitted jobs: FIFO (default) or
    /// earliest-deadline-first (see `docs/SCHEDULING.md`).
    pub queue: QueuePolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_depth: 256,
            cache_capacity: 4096,
            cache_shards: 16,
            default_deadline_ms: 0,
            idle_timeout_ms: 30_000,
            queue: QueuePolicy::Fifo,
        }
    }
}

impl GatewayConfig {
    /// The default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        GatewayConfig {
            workers,
            ..GatewayConfig::default()
        }
    }
}

/// Request totals over a gateway's lifetime, returned by
/// [`Gateway::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewaySummary {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests refused with `overloaded` (queue full).
    pub shed: u64,
    /// Requests answered `deadline_exceeded`.
    pub expired: u64,
    /// Requests refused at admission with `deadline_unmeetable`: their
    /// budget was below the gateway's service-time estimate.
    pub unmeetable: u64,
    /// Lines that parsed as neither a job nor a control request.
    pub rejected: u64,
    /// Completed responses dropped because the client was gone or
    /// stalled past the write timeout.
    pub dropped: u64,
    /// Connections accepted over the lifetime.
    pub connections: u64,
}

impl GatewaySummary {
    /// One-line human rendering for the CLI's exit report.
    pub fn render(&self) -> String {
        format!(
            "gateway: {} connections, {} accepted, {} shed, {} expired, {} unmeetable, {} rejected, {} responses dropped",
            self.connections,
            self.accepted,
            self.shed,
            self.expired,
            self.unmeetable,
            self.rejected,
            self.dropped
        )
    }
}

/// Lifetime counters, kept as plain atomics so the exit summary works
/// even with the recorder disabled.
#[derive(Debug, Default)]
struct Tally {
    accepted: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    unmeetable: AtomicU64,
    rejected: AtomicU64,
    dropped: AtomicU64,
    connections: AtomicU64,
}

impl Tally {
    fn summary(&self) -> GatewaySummary {
        GatewaySummary {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            unmeetable: self.unmeetable.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

/// An exponentially-weighted moving average of observed job service
/// times, in microseconds. Admission uses it to shed requests whose
/// deadline budget could not be met even from an empty queue.
///
/// `0` means "no samples yet": the gateway never sheds as unmeetable
/// before at least one job has completed, so cold starts and tests
/// with no completed work keep the pre-estimator behaviour.
#[derive(Debug, Default)]
struct ServiceEstimator {
    ewma_us: AtomicU64,
}

impl ServiceEstimator {
    /// Folds one observed service time into the average (new/8 + old*7/8).
    fn observe(&self, service: Duration) {
        let sample = service.as_micros().min(u128::from(u64::MAX)) as u64;
        let prev = self.ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample.max(1)
        } else {
            (prev - prev / 8 + sample / 8).max(1)
        };
        self.ewma_us.store(next, Ordering::Relaxed);
    }

    /// The current estimate in microseconds; `0` until the first sample.
    fn estimate_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }
}

/// The sampled-trace state of an admitted job: which trace it belongs
/// to, the upstream parent span, and this gateway's request span id
/// (the parent of every span the gateway records for the job).
#[derive(Debug, Clone, Copy)]
struct JobTrace {
    trace: TraceId,
    parent: Option<u64>,
    req_span: u64,
}

/// The client-visible state of one admitted request — a singleton or a
/// batch — shared by its schedule-key groups: the response slots
/// (indexed by submission position, so assembly order is the client's
/// order no matter which worker finishes first) and the countdown that
/// tells the last group to assemble and send the single response line.
#[derive(Debug)]
struct BatchShared {
    /// The client's id for the whole line: the job id of a singleton,
    /// the batch id of a batch.
    id: u64,
    /// A singleton answers with its one item line, not a batch line.
    single: bool,
    total: usize,
    slots: Mutex<Vec<Option<String>>>,
    remaining: AtomicUsize,
    reply: Sender<Reply>,
    trace: Option<JobTrace>,
    admitted: Instant,
    /// One absolute deadline shared by every item: the budget is never
    /// decremented per item.
    deadline: Option<Instant>,
}

impl BatchShared {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// True when the request cannot be answered in budget: already
    /// expired, or the remaining slack is smaller than the estimated
    /// per-job service time (`estimate_us`, 0 = no estimate). Executing
    /// it can only produce a late result, so the worker discards it
    /// instead — without this predictive check EDF degrades under
    /// overload, because the earliest-deadline job is by construction
    /// the one most likely to expire mid-execution
    /// (docs/SCHEDULING.md).
    fn doomed(&self, now: Instant, estimate_us: u64) -> bool {
        self.deadline.is_some_and(|d| {
            d.saturating_duration_since(now).as_micros() <= u128::from(estimate_us)
        })
    }

    /// Fills one item's rendered payload; the filler of the last empty
    /// slot assembles and sends the response. `outcome` labels a
    /// singleton's request span (a batch's always reads `ok`).
    fn settle_item(&self, shared: &Shared, pos: usize, line: String, outcome: &str) {
        {
            let mut slots = self.slots.lock().expect("batch slots");
            debug_assert!(slots[pos].is_none(), "batch slot settled twice");
            slots[pos] = Some(line);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish(shared, if self.single { outcome } else { "ok" });
        }
    }

    /// Sends the response and settles the request's accounting
    /// (in-flight gauge, end-to-end latency, the request trace span).
    fn finish(&self, shared: &Shared, outcome: &str) {
        let mut items: Vec<String> = {
            let mut slots = self.slots.lock().expect("batch slots");
            slots
                .iter_mut()
                .map(|slot| slot.take().expect("all batch slots settled"))
                .collect()
        };
        let line = if self.single {
            items.pop().expect("a singleton has one item")
        } else {
            protocol::batch_response_line(self.id, &items)
        };
        shared
            .recorder
            .gauge_add("drift_gateway_inflight_requests", &[], -(self.total as i64));
        if shared.recorder.is_enabled() {
            shared.recorder.observe(
                "drift_gateway_request_latency_microseconds",
                &[],
                drift_obs::contract::LATENCY_US_BUCKETS,
                self.admitted
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64,
            );
        }
        if let Some(t) = &self.trace {
            record_request_span(shared, t, self.id, self.admitted, outcome);
        }
        let reply = Reply {
            line,
            trace: self.trace.as_ref().map(|t| (t.trace, t.req_span)),
        };
        if self.reply.send(reply).is_err() {
            // The connection is fully gone (reader and writer exited).
            shared.count_dropped();
        }
    }
}

/// The items of one request that share a schedule key: one queue slot,
/// executed together on one worker so the key is solved/fetched
/// exactly once (`drift_serve::worker::execute_group`). `key == None`
/// collects the Select items, which carry no schedule key.
#[derive(Debug)]
struct GroupJob {
    key: Option<ScheduleKey>,
    /// Submission positions within the request, parallel to `specs`.
    positions: Vec<usize>,
    specs: Vec<JobSpec>,
    batch: Arc<BatchShared>,
}

impl Deadlined for GroupJob {
    fn deadline(&self) -> Option<Instant> {
        self.batch.deadline
    }
}

#[derive(Debug)]
struct Shared {
    config: GatewayConfig,
    recorder: Recorder,
    tracer: Tracer,
    /// Arrival sequence of accepted job requests, the head-sampling
    /// input when this gateway is the ingress edge.
    trace_seq: AtomicU64,
    cache: ScheduleCache,
    /// Hard stop: acceptor and readers exit at their next tick.
    stop: AtomicBool,
    /// A client requested a drain (`{"control":"shutdown"}`); the
    /// gateway's owner observes this via [`Gateway::draining`] and
    /// calls [`Gateway::shutdown`].
    drain: AtomicBool,
    tally: Tally,
    estimator: ServiceEstimator,
}

impl Shared {
    fn count_dropped(&self) {
        self.tally.dropped.fetch_add(1, Ordering::Relaxed);
        self.recorder
            .counter_add("drift_gateway_responses_dropped_total", &[], 1);
    }
}

/// The gateway's side of the shared connection loop: request lines in,
/// admitted groups onto the queue. Every reader holds it, and with it
/// the queue's submit side, so the queue closes once the last reader
/// is gone.
#[derive(Debug)]
struct Admission {
    shared: Arc<Shared>,
    queue: JobQueue<GroupJob>,
}

impl LineService for Admission {
    fn should_stop(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed) || self.shared.drain.load(Ordering::Relaxed)
    }

    fn idle_timeout_ms(&self) -> u64 {
        self.shared.config.idle_timeout_ms
    }

    fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    fn connection(&self, opened: bool) {
        if opened {
            self.shared
                .tally
                .connections
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.recorder.gauge_add(
            "drift_gateway_connections",
            &[],
            if opened { 1 } else { -1 },
        );
    }

    fn handle_line(&self, line: &str, reply: &Sender<Reply>) -> bool {
        let shared = &*self.shared;
        match protocol::parse_request(line) {
            Err(_) => {
                // Lenient by design: a malformed request is answered and
                // counted, never a reason to abort the stream.
                shared.tally.rejected.fetch_add(1, Ordering::Relaxed);
                shared
                    .recorder
                    .counter_add("drift_serve_jobs_rejected_total", &[], 1);
                let _ = reply.send(Reply::plain(protocol::error_line(None, ERR_BAD_REQUEST)));
            }
            Ok(Request::Control(ControlOp::Ping)) => {
                // The ack advertises the queue discipline so router health
                // probes learn each shard's policy (docs/SCHEDULING.md).
                let _ = reply.send(Reply::plain(protocol::ping_ack_line(
                    true,
                    shared.config.queue.as_str(),
                )));
            }
            Ok(Request::Control(ControlOp::Shutdown)) => {
                let _ = reply.send(Reply::plain(protocol::control_ack_line(
                    ControlOp::Shutdown,
                    true,
                )));
                shared.drain.store(true, Ordering::SeqCst);
                return false;
            }
            Ok(Request::Prewarm(entries)) => {
                // Reshard prewarming: the router pushes schedules whose
                // keys now hash here (docs/PERSISTENCE.md). Preloaded
                // entries bypass hit/miss accounting and the store spill —
                // they are transplants, not solves.
                let inserted = shared.cache.preload(&entries);
                shared.recorder.counter_add(
                    "drift_gateway_prewarm_entries_total",
                    &[],
                    inserted as u64,
                );
                let _ = reply.send(Reply::plain(protocol::prewarm_ack_line(
                    true,
                    inserted as u64,
                )));
            }
            Ok(Request::Job {
                spec,
                deadline_ms,
                trace,
            }) => self.admit(spec.id, vec![spec], true, deadline_ms, trace, reply),
            Ok(Request::Batch {
                id,
                specs,
                deadline_ms,
                trace,
            }) => self.admit(id, specs, false, deadline_ms, trace, reply),
        }
        true
    }

    fn response_dropped(&self) {
        self.shared.count_dropped();
    }
}

impl Admission {
    /// Admits one request — `single` for a singleton line — as a unit:
    /// one sampling decision and request span, one shared deadline, and
    /// all-or-shed submission of its schedule-key groups.
    fn admit(
        &self,
        id: u64,
        specs: Vec<JobSpec>,
        single: bool,
        deadline_ms: Option<u64>,
        trace: TraceDecision,
        reply: &Sender<Reply>,
    ) {
        let shared = &*self.shared;
        let admitted = Instant::now();
        let total = specs.len();
        // Resolve head sampling: honor an upstream decision; when the
        // request carries none, this gateway is the ingress edge and
        // decides from its arrival sequence.
        let decision = match trace {
            TraceDecision::Undecided if shared.tracer.is_enabled() => shared
                .tracer
                .decide(shared.trace_seq.fetch_add(1, Ordering::Relaxed)),
            other => other,
        };
        let trace = match (decision.context(), shared.tracer.is_enabled()) {
            (Some(ctx), true) => Some(JobTrace {
                trace: ctx.trace_id,
                parent: ctx.parent_span,
                req_span: shared.tracer.new_span_id(),
            }),
            _ => None,
        };
        let budget = deadline_ms.unwrap_or(shared.config.default_deadline_ms);
        let deadline = (budget > 0).then(|| admitted + Duration::from_millis(budget));
        // Infeasibility shed: once at least one job has completed, a
        // budget below the observed per-job service-time estimate cannot
        // be met even from an empty queue — refuse the whole request
        // immediately instead of letting it occupy slots and expire.
        let estimate_us = shared.estimator.estimate_us();
        if deadline.is_some() && estimate_us > 0 && budget.saturating_mul(1000) < estimate_us {
            shared
                .tally
                .unmeetable
                .fetch_add(total as u64, Ordering::Relaxed);
            shared.recorder.counter_add(
                "drift_gateway_deadline_outcomes_total",
                &[("outcome", "unmeetable")],
                total as u64,
            );
            if let Some(t) = &trace {
                record_request_span(shared, t, id, admitted, "unmeetable");
            }
            let _ = reply.send(Reply::plain(protocol::error_line(Some(id), ERR_UNMEETABLE)));
            return;
        }
        let batch = Arc::new(BatchShared {
            id,
            single,
            total,
            slots: Mutex::new(vec![None; total]),
            remaining: AtomicUsize::new(total),
            reply: reply.clone(),
            trace,
            admitted,
            deadline,
        });
        // Group by schedule key, preserving submission order within
        // each group. Linear scan: batches carry at most a few distinct
        // keys by construction (that is the amortization).
        let fabric = paper_fabric();
        let mut groups: Vec<GroupJob> = Vec::new();
        for (pos, spec) in specs.into_iter().enumerate() {
            let key = schedule_key_for(&spec, fabric);
            match groups.iter_mut().find(|g| g.key == key) {
                Some(group) => {
                    group.positions.push(pos);
                    group.specs.push(spec);
                }
                None => groups.push(GroupJob {
                    key,
                    positions: vec![pos],
                    specs: vec![spec],
                    batch: Arc::clone(&batch),
                }),
            }
        }
        match self.queue.try_submit_batch(groups) {
            Ok(()) => {
                shared
                    .tally
                    .accepted
                    .fetch_add(total as u64, Ordering::Relaxed);
                shared.recorder.counter_add(
                    "drift_gateway_requests_accepted_total",
                    &[],
                    total as u64,
                );
                shared
                    .recorder
                    .gauge_add("drift_gateway_inflight_requests", &[], total as i64);
                if !single && shared.recorder.is_enabled() {
                    shared.recorder.observe(
                        "drift_gateway_batch_size",
                        &[],
                        drift_obs::contract::BATCH_SIZE_BUCKETS,
                        total as u64,
                    );
                }
            }
            Err(_groups) => {
                // All-or-shed: no group was enqueued, so dropping the
                // groups (and the request state inside) is safe —
                // nothing will ever settle a slot.
                shared.tally.shed.fetch_add(total as u64, Ordering::Relaxed);
                shared
                    .recorder
                    .counter_add("drift_gateway_requests_shed_total", &[], total as u64);
                if let Some(t) = &batch.trace {
                    record_request_span(shared, t, id, admitted, "overloaded");
                }
                let _ = reply.send(Reply::plain(protocol::error_line(Some(id), ERR_OVERLOADED)));
            }
        }
    }
}

/// A running gateway: acceptor, connection threads, and worker pool.
///
/// Dropping the gateway performs the same graceful drain as
/// [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The acceptor and connection threads. They alone hold the queue's
    /// submit side, so joining them closes the queue and lets the
    /// workers drain out.
    acceptor: Option<Acceptor>,
    workers: Vec<JoinHandle<()>>,
    /// The persistent schedule store, when started with one. Finished
    /// (flushed, possibly compacted) during shutdown, after the workers
    /// have stopped producing new schedules.
    store: Option<StoreBinding>,
}

impl Gateway {
    /// Binds `addr` (port 0 picks a free port) and starts the acceptor
    /// and worker threads, recording metrics into `recorder` and
    /// distributed-trace spans into `tracer`. With a disabled tracer
    /// every response byte is the same.
    ///
    /// With `store`, the schedule cache is backed by the persistent
    /// schedule store at that path (created if absent). The store is
    /// loaded into the cache *before* the acceptor starts, so the very
    /// first connection sees the warm cache; newly solved schedules are
    /// appended in the background and flushed — with a compaction when
    /// the log has outgrown the live set — during shutdown.
    /// Warm-started gateways answer byte-identically to cold ones:
    /// schedule solving is deterministic, so a stored schedule is the
    /// schedule a cold solve would produce (`docs/PERSISTENCE.md`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and store open/load failures (bad
    /// magic, future version, I/O) as `io::Error::other`. A corrupt
    /// record *tail* is not an error: the valid prefix loads and the
    /// damage is counted in `drift_store_records_skipped_total`.
    pub fn start(
        addr: &str,
        config: GatewayConfig,
        recorder: Recorder,
        tracer: Tracer,
        store: Option<&Path>,
    ) -> io::Result<Gateway> {
        let listener = Acceptor::bind(addr)?;
        let addr = listener.local_addr()?;
        let config = GatewayConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            cache_capacity: config.cache_capacity.max(1),
            cache_shards: config.cache_shards.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            cache: ScheduleCache::with_recorder(
                config.cache_capacity,
                config.cache_shards,
                recorder.clone(),
            ),
            recorder,
            tracer,
            trace_seq: AtomicU64::new(0),
            config,
            stop: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            tally: Tally::default(),
            estimator: ServiceEstimator::default(),
        });
        shared
            .recorder
            .gauge_set("drift_serve_workers", &[], config.workers as i64);

        // Warm-start before anything can connect: the first request
        // already sees every schedule the previous run persisted.
        let store = store
            .map(|path| {
                open_and_preload(path, &shared.cache, shared.recorder.clone())
                    .map(|(_report, binding)| binding)
                    .map_err(io::Error::other)
            })
            .transpose()?;

        let (queue, handle) = job_queue_with_policy::<GroupJob>(config.queue, config.queue_depth);
        let workers = (0..config.workers)
            .map(|i| {
                let handle = handle.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gateway-worker-{i}"))
                    .spawn(move || worker_loop(handle, &shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        drop(handle);

        let admission = Arc::new(Admission {
            shared: Arc::clone(&shared),
            queue,
        });
        let acceptor = Acceptor::spawn(listener, admission, "gateway")?;

        Ok(Gateway {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            store,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client has requested a drain via
    /// `{"control":"shutdown"}`. The owner should then call
    /// [`Gateway::shutdown`].
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::Relaxed)
    }

    /// Lifetime request totals so far.
    pub fn summary(&self) -> GatewaySummary {
        self.shared.tally.summary()
    }

    /// Gracefully drains the gateway: stop accepting, flush every
    /// accepted job's response, close the queue, join all threads.
    /// Returns the lifetime totals.
    pub fn shutdown(mut self) -> GatewaySummary {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> GatewaySummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Readers notice the stop flag at their next read tick and exit;
        // each joins its writer, which flushes the responses of every
        // job that connection had in flight (workers are still running
        // here, so those jobs finish). With the last reader gone the
        // queue is closed: workers drain whatever is still buffered and
        // exit.
        if let Some(mut acceptor) = self.acceptor.take() {
            acceptor.join();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        // With the workers gone nothing else produces schedules: flush
        // the store's remaining appends and compact if it has outgrown
        // the live set. Persistence is best-effort on the way out — a
        // failed flush loses warm-start data, never responses.
        if let Some(binding) = self.store.take() {
            if let Err(e) = binding.finish(&self.shared.cache) {
                eprintln!("drift-gateway: schedule store flush failed: {e}");
            }
        }
        self.shared.tally.summary()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// Records the gateway-tier root (`request`) span for a request that
/// settled now, labelled with how it settled.
fn record_request_span(
    shared: &Shared,
    trace: &JobTrace,
    id: u64,
    admitted: Instant,
    outcome: &str,
) {
    shared.tracer.record(&SpanRecord {
        service: None,
        trace: trace.trace,
        span: trace.req_span,
        parent: trace.parent,
        stage: "request",
        start: admitted,
        end: Instant::now(),
        job: Some(id),
        attrs: &[("outcome", outcome)],
    });
}

/// One worker: pulls admitted groups until the queue closes.
fn worker_loop(jobs: WorkerHandle<GroupJob>, shared: &Shared) {
    let mut accel =
        DriftAccelerator::paper_config().expect("the paper configuration always builds");
    accel.set_recorder(shared.recorder.clone());
    while let Some(group) = jobs.next_job() {
        run_group(group, &mut accel, shared);
    }
}

/// Executes one schedule-key group, enforcing the request's deadline at
/// dequeue and again after execution: the group's key is solved/fetched
/// once, every item runs against the resolved schedule, and each item's
/// rendered payload settles into its slot.
fn run_group(group: GroupJob, accel: &mut DriftAccelerator, shared: &Shared) {
    let dequeued = Instant::now();
    let request = &*group.batch;
    let n = group.specs.len();
    if request.doomed(dequeued, shared.estimator.estimate_us()) {
        record_queue_wait(shared, &group, dequeued, "expired");
        for (pos, spec) in group.positions.iter().zip(&group.specs) {
            count_expired_item(shared);
            request.settle_item(
                shared,
                *pos,
                protocol::error_line(Some(spec.id), ERR_DEADLINE),
                ERR_DEADLINE,
            );
        }
        return;
    }
    record_queue_wait(shared, &group, dequeued, "ok");
    // Each item's gateway `execute` span parents its serve-tier spans
    // (cache_lookup/solve/execute).
    let spans = request.trace.map(|t| ItemSpans {
        trace: t.trace,
        parent: Some(t.req_span),
        stage: "execute",
    });
    let results = execute_group(
        group.key.as_ref(),
        &group.specs,
        accel,
        &shared.cache,
        &shared.recorder,
        &shared.tracer,
        spans,
    );
    // One dequeue-to-done observation per item, so the admission
    // estimator keeps tracking per-job service time.
    shared
        .estimator
        .observe(dequeued.elapsed() / n.max(1) as u32);
    let late = request.expired(Instant::now());
    for ((pos, spec), (outcome, _cache_hit)) in
        group.positions.iter().zip(&group.specs).zip(results)
    {
        if shared.recorder.is_enabled() {
            let is_error = matches!(outcome, JobOutcome::Error { .. });
            shared.recorder.counter_add(
                "drift_serve_jobs_total",
                &[
                    ("kind", spec.kind.label()),
                    ("outcome", if is_error { "error" } else { "ok" }),
                ],
                1,
            );
        }
        if late {
            count_expired_item(shared);
            let line = protocol::error_line(Some(spec.id), ERR_DEADLINE);
            request.settle_item(shared, *pos, line, ERR_DEADLINE);
            continue;
        }
        if request.deadline.is_some() {
            shared.recorder.counter_add(
                "drift_gateway_deadline_outcomes_total",
                &[("outcome", "met")],
                1,
            );
        }
        let line = result_line(&JobResult {
            id: spec.id,
            outcome,
        });
        request.settle_item(shared, *pos, line, "ok");
    }
}

/// The per-item expiry accounting shared by the dequeue-discard and
/// post-execution paths of [`run_group`].
fn count_expired_item(shared: &Shared) {
    shared.tally.expired.fetch_add(1, Ordering::Relaxed);
    shared
        .recorder
        .counter_add("drift_gateway_requests_expired_total", &[], 1);
    shared.recorder.counter_add(
        "drift_gateway_deadline_outcomes_total",
        &[("outcome", "missed")],
        1,
    );
}

/// Observes how long a group sat in the queue (once per group: it was
/// one queue entry), labelled by what happened at dequeue (`ok` =
/// executed, `expired` = discarded as doomed), and records the matching
/// `queue_wait` span under the request span.
fn record_queue_wait(shared: &Shared, group: &GroupJob, dequeued: Instant, outcome: &str) {
    let request = &*group.batch;
    if shared.recorder.is_enabled() {
        shared.recorder.observe(
            "drift_gateway_queue_wait_microseconds",
            &[("outcome", outcome)],
            drift_obs::contract::LATENCY_US_BUCKETS,
            dequeued
                .duration_since(request.admitted)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64,
        );
    }
    if let Some(t) = &request.trace {
        shared.tracer.record(&SpanRecord {
            service: None,
            trace: t.trace,
            span: shared.tracer.new_span_id(),
            parent: Some(t.req_span),
            stage: "queue_wait",
            start: request.admitted,
            end: dequeued,
            job: Some(request.id),
            attrs: &[("outcome", outcome)],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use drift_serve::job::JobKind;

    fn small_spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            seed: id + 1,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.25,
                fw: 0.5,
            },
        }
    }

    #[test]
    fn serves_jobs_and_pings_over_tcp() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(2),
            Recorder::disabled(),
            Tracer::disabled(),
            None,
        )
        .unwrap();
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        assert!(client.ping().unwrap());
        for id in 0..10 {
            let resp = client.submit(&small_spec(id), None).unwrap();
            match resp {
                protocol::Response::Result(r) => assert_eq!(r.id, id),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let summary = gw.shutdown();
        assert_eq!(summary.accepted, 10);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.connections, 1);
    }

    #[test]
    fn bad_lines_get_bad_request_responses_and_the_stream_continues() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(1),
            Recorder::disabled(),
            Tracer::disabled(),
            None,
        )
        .unwrap();
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        client.send_raw("this is not json").unwrap();
        match client.recv().unwrap() {
            protocol::Response::Error { id, error } => {
                assert_eq!(id, None);
                assert_eq!(error, ERR_BAD_REQUEST);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The connection is still usable afterwards.
        assert!(matches!(
            client.submit(&small_spec(1), None).unwrap(),
            protocol::Response::Result(_)
        ));
        assert_eq!(gw.shutdown().rejected, 1);
    }

    #[test]
    fn drain_flag_is_set_by_the_shutdown_control() {
        let gw = Gateway::start(
            "127.0.0.1:0",
            GatewayConfig::with_workers(1),
            Recorder::disabled(),
            Tracer::disabled(),
            None,
        )
        .unwrap();
        assert!(!gw.draining());
        let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
        assert!(client.shutdown_server().unwrap());
        // The reader observes the flag on its next tick.
        let start = Instant::now();
        while !gw.draining() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(gw.draining());
        gw.shutdown();
    }
}
