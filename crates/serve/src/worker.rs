//! Job execution: one simulator per worker, one RNG per job.
//!
//! Each pool thread owns a [`DriftAccelerator`] for its whole lifetime
//! (building one per job would rebuild the memory subsystem
//! constantly), and calls [`DriftAccelerator::reset`] before every job
//! so no cross-layer state — reconfiguration elision, DRAM row/
//! allocator state, the index buffer — leaks between jobs. Randomness
//! comes from a per-job ChaCha stream seeded by [`JobSpec::seed`].
//! Together these make every result a pure function of its spec: the
//! same job stream yields the same result set at any worker count and
//! any assignment of jobs to workers.

use crate::cache::ScheduleCache;
use crate::job::{JobKind, JobOutcome, JobResult, JobSpec};
use crate::queue::WorkerHandle;
use crate::stats::WorkerStats;
use crossbeam::channel::Sender;
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_accel::systolic::ArrayGeometry;
use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_core::selector::{record_policy_run, DriftPolicy};
use drift_nn::datagen::TokenProfile;
use drift_obs::{Recorder, SpanRecord, TraceId, Tracer};
use drift_quant::policy::decide_policy;
use drift_quant::Precision;
use drift_tensor::rng::{derive_seed, seeded};
use drift_tensor::subtensor::SubTensorScheme;
use rand::Rng;
use std::time::Instant;

/// Executes one job on `accel`, using `cache` for schedules. Returns
/// the outcome and whether the schedule came from the cache.
///
/// A job is a group of one: this is [`execute_group`] under the job's
/// own [`schedule_key_for`] key, with no recorder and no tracer.
/// Failures of any stage land in [`JobOutcome::Error`] rather than
/// tearing down the worker: one malformed job must not poison the
/// stream.
pub fn execute_job(
    spec: &JobSpec,
    accel: &mut DriftAccelerator,
    cache: &ScheduleCache,
) -> (JobOutcome, bool) {
    let key = schedule_key_for(spec, accel.fabric());
    let mut outcomes = execute_group(
        key.as_ref(),
        std::slice::from_ref(spec),
        accel,
        cache,
        &Recorder::disabled(),
        &Tracer::disabled(),
        None,
    );
    outcomes.pop().expect("one outcome per spec")
}

/// Where [`execute_group`] hangs each job's trace spans: one `stage`
/// span per job (carrying the job id and `kind`/`outcome` attrs) under
/// `parent`, with the serve-tier `cache_lookup`, `solve` and `execute`
/// spans nested beneath it. The span belongs to the tracer's own
/// service: the gateway's `execute` span, or offline serve's root
/// `job` span.
#[derive(Debug, Clone, Copy)]
pub struct ItemSpans {
    /// The trace the jobs belong to.
    pub trace: TraceId,
    /// The span each per-job span hangs under (`None` for a root).
    pub parent: Option<u64>,
    /// The per-job span's stage name.
    pub stage: &'static str,
}

/// Executes jobs that all share one schedule key, resolving that key
/// against `cache` exactly once — the paper's one solve per layer
/// shape, served to every sub-tensor of that shape.
///
/// Every request path runs each job through the same per-job step: the
/// gateway hands over a singleton as a group of one, offline serve
/// runs that step directly so its job span shares the worker's clock
/// reads, and the gateway groups a batch's items by
/// [`schedule_key_for`] so `len - 1` redundant cache probes (and their
/// shard-lock acquisitions) per group collapse into a single lookup. Each job still gets its own accelerator reset and
/// per-job seeded RNG, so outcomes are the same pure function of the
/// spec however jobs are grouped.
///
/// `key` must be the [`schedule_key_for`] value shared by every spec
/// in the group (`None` for keyless jobs: Select jobs and invalid
/// shapes, which share nothing). Returns one `(outcome, cache_hit)`
/// pair per spec, in order; only the first keyed job reports the real
/// probe outcome — the rest would have hit by construction.
///
/// A Select job's per-sub-tensor decisions fold into `recorder`. With
/// `spans` set and `tracer` enabled each job records the spans
/// [`ItemSpans`] describes; the first keyed job's span also parents
/// the key's `cache_lookup`/`solve`. Outcomes never depend on either.
pub fn execute_group(
    key: Option<&ScheduleKey>,
    specs: &[JobSpec],
    accel: &mut DriftAccelerator,
    cache: &ScheduleCache,
    recorder: &Recorder,
    tracer: &Tracer,
    spans: Option<ItemSpans>,
) -> Vec<(JobOutcome, bool)> {
    debug_assert!(specs
        .iter()
        .all(|s| schedule_key_for(s, accel.fabric()).as_ref() == key));
    let spans = spans.filter(|_| tracer.is_enabled());
    let mut schedule = GroupSchedule {
        key,
        cache,
        resolved: None,
    };
    specs
        .iter()
        .map(|spec| {
            let item = spans.map(|s| (s, tracer.new_span_id(), Instant::now()));
            let ctx = item.map(|(s, span, _)| (s.trace, span));
            let (outcome, hit) = execute_item(&mut schedule, spec, accel, recorder, tracer, ctx);
            if let Some((s, span, start)) = item {
                s.record(tracer, span, spec, &outcome, start, Instant::now());
            }
            (outcome, hit)
        })
        .collect()
}

impl ItemSpans {
    /// Records job `spec`'s own span `span`, covering `start`..`end`.
    fn record(
        self,
        tracer: &Tracer,
        span: u64,
        spec: &JobSpec,
        outcome: &JobOutcome,
        start: Instant,
        end: Instant,
    ) {
        let is_error = matches!(outcome, JobOutcome::Error { .. });
        tracer.record(&SpanRecord {
            service: None,
            trace: self.trace,
            span,
            parent: self.parent,
            stage: self.stage,
            start,
            end,
            job: Some(spec.id),
            attrs: &[
                ("kind", spec.kind.label()),
                ("outcome", if is_error { "error" } else { "ok" }),
            ],
        });
    }
}

/// A group's schedule key, resolved against the cache at most once.
struct GroupSchedule<'a> {
    key: Option<&'a ScheduleKey>,
    cache: &'a ScheduleCache,
    resolved: Option<drift_core::Result<(Schedule, bool)>>,
}

impl GroupSchedule<'_> {
    /// The group's schedule (`None` for keyless jobs), fetched or
    /// solved on first use with its `cache_lookup`/`solve` spans under
    /// `ctx`. The `bool` is true when the cache answered or an earlier
    /// job of the group already resolved the key.
    fn resolve(
        &mut self,
        tracer: &Tracer,
        ctx: Option<(TraceId, u64)>,
    ) -> Result<(Option<&Schedule>, bool), String> {
        let Some(key) = self.key else {
            return Ok((None, false));
        };
        let first = self.resolved.is_none();
        let cache = self.cache;
        match self
            .resolved
            .get_or_insert_with(|| cache.get_or_solve_traced(*key, tracer, ctx))
        {
            Ok((schedule, hit)) => Ok((Some(schedule), !first || *hit)),
            // A solve failure reads exactly as it would per job.
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Runs one job of a group on a freshly reset `accel`: the body of
/// [`execute_group`]'s loop, and the whole of an offline job. Failures
/// of any stage become [`JobOutcome::Error`].
fn execute_item(
    schedule: &mut GroupSchedule<'_>,
    spec: &JobSpec,
    accel: &mut DriftAccelerator,
    recorder: &Recorder,
    tracer: &Tracer,
    ctx: Option<(TraceId, u64)>,
) -> (JobOutcome, bool) {
    accel.reset();
    schedule
        .resolve(tracer, ctx)
        .and_then(|(schedule, hit)| {
            run_item(spec, accel, schedule, recorder, tracer, ctx).map(|o| (o, hit))
        })
        .unwrap_or_else(|message| (JobOutcome::Error { message }, false))
}

/// Runs one job against its resolved schedule (`None` for keyless
/// jobs), recording the serve-tier `execute` span under `ctx` =
/// (trace id, parent span id) when set — for a Select job with its
/// `generate` and `decide` children.
fn run_item(
    spec: &JobSpec,
    accel: &mut DriftAccelerator,
    schedule: Option<&Schedule>,
    recorder: &Recorder,
    tracer: &Tracer,
    ctx: Option<(TraceId, u64)>,
) -> Result<JobOutcome, String> {
    const NO_KEY: &str = "job has no schedule key";
    match &spec.kind {
        JobKind::Select {
            tokens,
            hidden,
            delta,
            profile,
        } => {
            // The clock is read only for the spans of a traced job.
            let start = ctx.map(|_| Instant::now());
            let profile = match profile.as_str() {
                "cnn" => TokenProfile::cnn(),
                "vit" => TokenProfile::vit(),
                "bert" => TokenProfile::bert(),
                "llm" => TokenProfile::llm(),
                other => return Err(format!("unknown profile '{other}'")),
            };
            let data = profile
                .generate(*tokens, *hidden, spec.seed)
                .map_err(|e| e.to_string())?;
            let generated = ctx.map(|_| Instant::now());
            let policy = DriftPolicy::new(*delta).map_err(|e| e.to_string())?;
            let decided = decide_policy(
                &data,
                &SubTensorScheme::token(*hidden),
                Precision::INT8,
                &policy,
            )
            .map_err(|e| e.to_string())?;
            record_policy_run(recorder, &decided.decisions);
            if let (Some((trace, parent)), Some(start), Some(generated)) = (ctx, start, generated) {
                // `generate` and `decide` split the `execute` span, so
                // the critical path shows which half of the selector
                // the time went to.
                let (execute, end) = (tracer.new_span_id(), Instant::now());
                let children = [("generate", start, generated), ("decide", generated, end)];
                for (stage, from, to) in children {
                    let span = tracer.new_span_id();
                    record_serve_span(tracer, (trace, execute), span, stage, from, to, &[]);
                }
                let kind = [("kind", "select")];
                record_serve_span(
                    tracer,
                    (trace, parent),
                    execute,
                    "execute",
                    start,
                    end,
                    &kind,
                );
            }
            Ok(JobOutcome::Select {
                low_subtensors: decided.low_subtensors(),
                subtensors: decided.decisions.len(),
                low_fraction: decided.low_fraction(),
            })
        }
        JobKind::Schedule { m, k, n, .. } => {
            GemmShape::new(*m, *k, *n).map_err(|e| e.to_string())?;
            let schedule = schedule.ok_or(NO_KEY)?;
            Ok(JobOutcome::Schedule {
                makespan: schedule.makespan,
                latencies: schedule.latencies,
            })
        }
        JobKind::Simulate { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).map_err(|e| e.to_string())?;
            // Precision maps are Bernoulli draws from the job's private
            // ChaCha stream — scattered like real selector output, yet
            // reproducible from the spec alone.
            let (act_high, weight_high) = simulate_precision_maps(spec.seed, *m, *n, *fa, *fw);
            let workload =
                GemmWorkload::new(format!("job-{}", spec.id), shape, act_high, weight_high)
                    .map_err(|e| e.to_string())?;
            let schedule = schedule.ok_or(NO_KEY)?;
            let exec_start = ctx.map(|_| Instant::now());
            let report = accel
                .execute_with_schedule(&workload, *schedule)
                .map_err(|e| e.to_string())?;
            if let (Some(ctx), Some(start)) = (ctx, exec_start) {
                let (span, end) = (tracer.new_span_id(), Instant::now());
                let kind = [("kind", "simulate")];
                record_serve_span(tracer, ctx, span, "execute", start, end, &kind);
            }
            Ok(JobOutcome::Simulate {
                cycles: report.cycles,
                compute_cycles: report.compute_cycles,
                dram_cycles: report.dram_cycles,
                energy_pj: report.energy.total_pj(),
            })
        }
    }
}

/// Records the serve-tier span `span` (stage `stage`) covering
/// `start`..`end` under `parent` = (trace id, parent span id).
pub(crate) fn record_serve_span(
    tracer: &Tracer,
    parent: (TraceId, u64),
    span: u64,
    stage: &str,
    start: Instant,
    end: Instant,
    attrs: &[(&str, &str)],
) {
    tracer.record(&SpanRecord {
        service: Some("serve"),
        trace: parent.0,
        span,
        parent: Some(parent.1),
        stage,
        start,
        end,
        job: None,
        attrs,
    });
}

/// The Bernoulli precision maps a Simulate job draws from its private
/// ChaCha stream — shared between execution ([`execute_job`]) and
/// routing ([`schedule_key_for`]) so both always agree on the counts.
fn simulate_precision_maps(
    seed: u64,
    m: usize,
    n: usize,
    fa: f64,
    fw: f64,
) -> (Vec<bool>, Vec<bool>) {
    let mut rng = seeded(derive_seed(seed, "serve-simulate"));
    let fa = fa.clamp(0.0, 1.0);
    let fw = fw.clamp(0.0, 1.0);
    let act_high: Vec<bool> = (0..m).map(|_| rng.gen_bool(fa)).collect();
    let weight_high: Vec<bool> = (0..n).map(|_| rng.gen_bool(fw)).collect();
    (act_high, weight_high)
}

/// The exact [`ScheduleKey`] executing `spec` on `fabric` will look up,
/// or `None` for jobs without a schedule (Select) and for invalid
/// shapes (which execution reports as a job-level error anyway).
///
/// This is the single source of truth the router tier shards by: a
/// front tier that routes every job by this key sends each distinct
/// schedule-cache entry to exactly one backend, so per-shard key sets
/// are disjoint and each shard's LRU holds only its own slice. For
/// Simulate jobs the key re-derives the seeded Bernoulli precision
/// maps, so it costs `O(m + n)` RNG draws — microseconds against a
/// millisecond-scale simulation.
pub fn schedule_key_for(spec: &JobSpec, fabric: ArrayGeometry) -> Option<ScheduleKey> {
    match &spec.kind {
        JobKind::Select { .. } => None,
        JobKind::Schedule { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).ok()?;
            Some(ScheduleKey {
                shape,
                act_high: (*m as f64 * fa.clamp(0.0, 1.0)) as usize,
                weight_high: (*n as f64 * fw.clamp(0.0, 1.0)) as usize,
                act_precisions: (Precision::INT8, Precision::INT4),
                weight_precisions: (Precision::INT8, Precision::INT4),
                fabric,
            })
        }
        JobKind::Simulate { m, k, n, fa, fw } => {
            let shape = GemmShape::new(*m, *k, *n).ok()?;
            let (act_high, weight_high) = simulate_precision_maps(spec.seed, *m, *n, *fa, *fw);
            let workload =
                GemmWorkload::new(format!("job-{}", spec.id), shape, act_high, weight_high).ok()?;
            Some(ScheduleKey::for_workload(&workload, fabric))
        }
    }
}

/// One pool thread: pulls jobs until the queue closes, sending one
/// result per job, and returns its counters.
///
/// Jobs arrive tagged with their submission sequence number, which is
/// echoed alongside the result so the runtime can keep duplicate job
/// ids sequence-stable (see the [`crate::job`] module docs).
///
/// The result channel only disconnects when the collector is gone —
/// at that point nobody can observe further results, so the worker
/// simply stops.
pub(crate) fn worker_loop(
    worker: usize,
    jobs: WorkerHandle<(u64, JobSpec)>,
    results: Sender<(u64, JobResult)>,
    cache: &ScheduleCache,
    recorder: Recorder,
    tracer: Tracer,
) -> WorkerStats {
    let mut accel =
        DriftAccelerator::paper_config().expect("the paper configuration always builds");
    accel.set_recorder(recorder.clone());
    let worker_label = worker.to_string();
    let mut stats = WorkerStats::new(worker);
    while let Some((seq, spec)) = jobs.next_job() {
        // Offline serve is its own ingress edge: the submission
        // sequence number is the sampling input, and each sampled job
        // gets a root `job` span with cache/solve/execute children.
        let spans = tracer.decide(seq).context().map(|c| ItemSpans {
            trace: c.trace_id,
            parent: None,
            stage: "job",
        });
        // One clock read at each end of the job, shared by the worker's
        // latency stats, the latency histogram and the `job` span.
        let start = Instant::now();
        let key = schedule_key_for(&spec, accel.fabric());
        let mut schedule = GroupSchedule {
            key: key.as_ref(),
            cache,
            resolved: None,
        };
        let item = spans.map(|s| (s, tracer.new_span_id()));
        let ctx = item.map(|(s, span)| (s.trace, span));
        let (outcome, cache_hit) =
            execute_item(&mut schedule, &spec, &mut accel, &recorder, &tracer, ctx);
        let end = Instant::now();
        if let Some((s, span)) = item {
            s.record(&tracer, span, &spec, &outcome, start, end);
        }
        let latency = end - start;
        let is_error = matches!(outcome, JobOutcome::Error { .. });
        if recorder.is_enabled() {
            recorder.counter_add(
                "drift_serve_jobs_total",
                &[
                    ("kind", spec.kind.label()),
                    ("outcome", if is_error { "error" } else { "ok" }),
                ],
                1,
            );
            recorder.observe(
                "drift_serve_job_latency_microseconds",
                &[("worker", &worker_label)],
                drift_obs::contract::LATENCY_US_BUCKETS,
                latency.as_micros().min(u128::from(u64::MAX)) as u64,
            );
        }
        stats.record(latency, cache_hit, is_error);
        if results
            .send((
                seq,
                JobResult {
                    id: spec.id,
                    outcome,
                },
            ))
            .is_err()
        {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> DriftAccelerator {
        DriftAccelerator::paper_config().unwrap()
    }

    #[test]
    fn simulate_jobs_are_reproducible_across_simulators() {
        let cache = ScheduleCache::new(16, 2);
        let spec = JobSpec {
            id: 4,
            seed: 99,
            kind: JobKind::Simulate {
                m: 96,
                k: 256,
                n: 128,
                fa: 0.3,
                fw: 0.4,
            },
        };
        let (a, _) = execute_job(&spec, &mut accel(), &cache);
        // A different simulator instance with prior history must agree.
        let mut used = accel();
        let warmup = JobSpec {
            id: 0,
            seed: 1,
            kind: JobKind::Simulate {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.9,
                fw: 0.1,
            },
        };
        execute_job(&warmup, &mut used, &cache);
        let (b, _) = execute_job(&spec, &mut used, &cache);
        assert_eq!(a, b);
        assert!(matches!(a, JobOutcome::Simulate { cycles, .. } if cycles > 0));
    }

    #[test]
    fn schedule_jobs_hit_the_cache_on_repeats() {
        let cache = ScheduleCache::new(16, 2);
        let spec = JobSpec {
            id: 0,
            seed: 0,
            kind: JobKind::Schedule {
                m: 128,
                k: 256,
                n: 128,
                fa: 0.25,
                fw: 0.5,
            },
        };
        let (_, hit1) = execute_job(&spec, &mut accel(), &cache);
        let (out2, hit2) = execute_job(&spec, &mut accel(), &cache);
        assert!(!hit1);
        assert!(hit2);
        assert!(matches!(out2, JobOutcome::Schedule { makespan, .. } if makespan > 0));
    }

    #[test]
    fn select_jobs_report_conversion_statistics() {
        let cache = ScheduleCache::new(4, 1);
        let spec = JobSpec {
            id: 1,
            seed: 7,
            kind: JobKind::Select {
                tokens: 64,
                hidden: 128,
                delta: 0.05,
                profile: "bert".to_string(),
            },
        };
        let (out, hit) = execute_job(&spec, &mut accel(), &cache);
        assert!(!hit);
        match out {
            JobOutcome::Select {
                low_subtensors,
                subtensors,
                low_fraction,
            } => {
                assert_eq!(subtensors, 64);
                assert!(low_subtensors <= subtensors);
                assert!((0.0..=1.0).contains(&low_fraction));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn schedule_key_for_matches_execution() {
        // Pre-seeding the cache at `schedule_key_for`'s key must turn
        // the job's own lookup into a hit, for both kinds that
        // schedule. This is the property the router's key-sharding
        // relies on: the routing key IS the execution key.
        for kind in [
            JobKind::Schedule {
                m: 96,
                k: 192,
                n: 80,
                fa: 0.31,
                fw: 0.47,
            },
            JobKind::Simulate {
                m: 72,
                k: 128,
                n: 64,
                fa: 0.4,
                fw: 0.2,
            },
        ] {
            let spec = JobSpec {
                id: 9,
                seed: 13,
                kind,
            };
            let cache = ScheduleCache::new(16, 2);
            let mut accel = accel();
            let key = schedule_key_for(&spec, accel.fabric()).expect("both kinds schedule");
            cache.get_or_solve(key).unwrap();
            let (_, hit) = execute_job(&spec, &mut accel, &cache);
            assert!(hit, "execution missed the pre-seeded routing key");
        }
        let select = JobSpec {
            id: 0,
            seed: 0,
            kind: JobKind::Select {
                tokens: 8,
                hidden: 16,
                delta: 0.1,
                profile: "bert".to_string(),
            },
        };
        assert!(schedule_key_for(&select, accel().fabric()).is_none());
    }

    #[test]
    fn bad_jobs_become_error_outcomes() {
        let cache = ScheduleCache::new(4, 1);
        let bad = JobSpec {
            id: 2,
            seed: 0,
            kind: JobKind::Simulate {
                m: 0,
                k: 16,
                n: 16,
                fa: 0.5,
                fw: 0.5,
            },
        };
        let (out, _) = execute_job(&bad, &mut accel(), &cache);
        assert!(matches!(out, JobOutcome::Error { .. }));
        let bad_profile = JobSpec {
            id: 3,
            seed: 0,
            kind: JobKind::Select {
                tokens: 4,
                hidden: 8,
                delta: 0.1,
                profile: "gpt".to_string(),
            },
        };
        let (out, _) = execute_job(&bad_profile, &mut accel(), &cache);
        assert!(matches!(out, JobOutcome::Error { message } if message.contains("gpt")));
    }
}
