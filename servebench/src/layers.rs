//! Per-layer replays: the harness times each layer's public functions
//! on the benchmark's own generated inputs, one thread, with a span
//! around every call (or every loop of sub-microsecond calls).
//!
//! Layers that consume request lines or whole job streams (gateway
//! parse and render, router routing, the serve queue) replay the
//! current workload's own lines. Layers that serve one job kind replay
//! the workload that carries it: Select and Simulate jobs come from
//! `mixed-closed`, schedule-cache hits from `small-open`, and solves and
//! store records from `router-batch`, all under the run's seed.

use crate::spans::Spans;
use crate::tiers::VNODES;
use crate::workload::{Unit, Workload};
use drift_accel::gemm::{GemmShape, GemmWorkload};
use drift_core::arch::paper_fabric;
use drift_core::schedule::{Schedule, ScheduleKey};
use drift_core::{DriftAccelerator, DriftPolicy};
use drift_gateway::protocol::{batch_response_line, parse_request};
use drift_nn::datagen::TokenProfile;
use drift_quant::policy::run_policy;
use drift_quant::Precision;
use drift_router::{route_key, HashRing};
use drift_serve::cache::ScheduleCache;
use drift_serve::job::{result_line, JobKind, JobResult, JobSpec};
use drift_serve::queue::job_queue;
use drift_serve::worker::{execute_job, schedule_key_for};
use drift_tensor::rng::{derive_seed, seeded};
use drift_tensor::subtensor::SubTensorScheme;
use rand::Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One mixed-closed period: 80 jobs cover every distinct spec of the
/// stream (shape x seed x fraction x kind).
const MIXED_PERIOD: usize = 80;
/// Distinct router-batch keys solved and stored per replay.
const SOLVE_KEYS: usize = 200;
/// Cap on lines and jobs replayed through the cheap per-line layers.
const LINE_CAP: usize = 4000;
/// Passes over the small-open keys when timing cache hits.
const HIT_ROUNDS: usize = 500;

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Times `f` under a span named `stage`.
fn timed<T>(spans: &Spans, stage: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(f());
    let end = Instant::now();
    spans.layer(stage, start, end);
    (out, end - start)
}

fn per(total: Duration, count: usize, scale: f64) -> f64 {
    total.as_secs_f64() * scale / count.max(1) as f64
}

/// Runs every replay and returns the per-layer metrics it measures.
/// `units` and `expected` are the current workload's request lines and
/// offline answer lines (indexed by job id); `dir` takes a scratch store.
pub fn replay(
    units: &[Unit],
    expected: &[String],
    seed: u64,
    spans: &Spans,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mixed = Workload::MixedClosed.jobs(MIXED_PERIOD, seed);
    out.extend(selector(&mixed, spans)?);
    out.push(("accel.simulate_us", simulate(&mixed, spans)?, "us"));
    out.extend(execute(&mixed, spans)?);

    let (solve_us, entries) = solve(seed, spans)?;
    out.push(("core.solve_us", solve_us, "us"));
    out.extend(store(&entries, dir, spans)?);
    out.push(("serve.cache_hit_ns", cache_hits(seed, spans)?, "ns"));

    let units = &units[..units.len().min(LINE_CAP)];
    let jobs: Vec<&JobSpec> = units.iter().flat_map(|u| &u.jobs).take(LINE_CAP).collect();
    out.push(("serve.queue_op_ns", queue_ops(&jobs, spans), "ns"));
    out.push(("gateway.parse_ns_per_job", parse(units, spans)?, "ns"));
    out.push((
        "gateway.render_ns_per_job",
        render(units, expected, spans)?,
        "ns",
    ));
    out.push(("router.route_ns_per_job", route(&jobs, spans), "ns"));
    Ok(out)
}

/// `nn.generate_ns_per_elem` and `quant.run_policy_ns_per_elem` over the
/// Select jobs of one mixed-closed period.
fn selector(mixed: &[JobSpec], spans: &Spans) -> Result<Vec<Metric>, String> {
    let (mut gen, mut policy, mut elems) = (Duration::ZERO, Duration::ZERO, 0);
    for spec in mixed {
        let JobKind::Select {
            tokens,
            hidden,
            delta,
            profile,
        } = &spec.kind
        else {
            continue;
        };
        let profile = match profile.as_str() {
            "cnn" => TokenProfile::cnn(),
            "vit" => TokenProfile::vit(),
            "bert" => TokenProfile::bert(),
            "llm" => TokenProfile::llm(),
            other => return Err(format!("unknown profile {other}")),
        };
        let (data, d) = timed(spans, "nn.generate", || {
            profile.generate(*tokens, *hidden, spec.seed)
        });
        let data = data.map_err(|e| e.to_string())?;
        gen += d;
        let drift = DriftPolicy::new(*delta).map_err(|e| e.to_string())?;
        let scheme = SubTensorScheme::token(*hidden);
        let (run, d) = timed(spans, "quant.run_policy", || {
            run_policy(&data, &scheme, Precision::INT8, &drift)
        });
        run.map_err(|e| e.to_string())?;
        policy += d;
        elems += tokens * hidden;
    }
    Ok(vec![
        ("nn.generate_ns_per_elem", per(gen, elems, 1e9), "ns"),
        (
            "quant.run_policy_ns_per_elem",
            per(policy, elems, 1e9),
            "ns",
        ),
    ])
}

/// The precision maps a Simulate job draws (the serve worker's rule).
fn simulate_workload(
    spec: &JobSpec,
    m: usize,
    k: usize,
    n: usize,
    fa: f64,
    fw: f64,
) -> Result<GemmWorkload, String> {
    let mut rng = seeded(derive_seed(spec.seed, "serve-simulate"));
    let (fa, fw) = (fa.clamp(0.0, 1.0), fw.clamp(0.0, 1.0));
    let act: Vec<bool> = (0..m).map(|_| rng.gen_bool(fa)).collect();
    let weight: Vec<bool> = (0..n).map(|_| rng.gen_bool(fw)).collect();
    let shape = GemmShape::new(m, k, n).map_err(|e| e.to_string())?;
    GemmWorkload::new(format!("job-{}", spec.id), shape, act, weight).map_err(|e| e.to_string())
}

/// Mean µs of `DriftAccelerator::execute_with_schedule` over the Simulate
/// jobs of one mixed-closed period.
fn simulate(mixed: &[JobSpec], spans: &Spans) -> Result<f64, String> {
    let mut accel = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let (mut total, mut calls) = (Duration::ZERO, 0);
    for spec in mixed {
        let JobKind::Simulate { m, k, n, fa, fw } = spec.kind else {
            continue;
        };
        let workload = simulate_workload(spec, m, k, n, fa, fw)?;
        let schedule = ScheduleKey::for_workload(&workload, accel.fabric())
            .solve()
            .map_err(|e| e.to_string())?;
        accel.reset();
        let (report, d) = timed(spans, "accel.execute_with_schedule", || {
            accel.execute_with_schedule(&workload, schedule)
        });
        report.map_err(|e| e.to_string())?;
        total += d;
        calls += 1;
    }
    Ok(per(total, calls, 1e6))
}

/// Mean µs of `worker::execute_job` per job kind over one mixed-closed
/// period, on a cache the same period warmed first.
fn execute(mixed: &[JobSpec], spans: &Spans) -> Result<Vec<Metric>, String> {
    let mut accel = DriftAccelerator::paper_config().map_err(|e| e.to_string())?;
    let cache = ScheduleCache::new(4096, 16);
    for spec in mixed {
        execute_job(spec, &mut accel, &cache);
    }
    let mut totals = [(Duration::ZERO, 0usize); 3];
    for spec in mixed {
        let slot = match spec.kind {
            JobKind::Select { .. } => 0,
            JobKind::Schedule { .. } => 1,
            JobKind::Simulate { .. } => 2,
        };
        let (_, d) = timed(spans, "serve.execute_job", || {
            execute_job(spec, &mut accel, &cache)
        });
        totals[slot].0 += d;
        totals[slot].1 += 1;
    }
    Ok(vec![
        (
            "serve.execute_us.select",
            per(totals[0].0, totals[0].1, 1e6),
            "us",
        ),
        (
            "serve.execute_us.schedule",
            per(totals[1].0, totals[1].1, 1e6),
            "us",
        ),
        (
            "serve.execute_us.simulate",
            per(totals[2].0, totals[2].1, 1e6),
            "us",
        ),
    ])
}

/// Mean µs of `ScheduleKey::solve` over the first distinct keys of the
/// router-batch stream; returns the solved entries too.
fn solve(seed: u64, spans: &Spans) -> Result<(f64, Vec<(ScheduleKey, Schedule)>), String> {
    let fabric = paper_fabric();
    let mut seen = HashSet::new();
    let keys: Vec<ScheduleKey> = Workload::RouterBatch
        .jobs(SOLVE_KEYS * 3, seed)
        .iter()
        .filter_map(|j| schedule_key_for(j, fabric))
        .filter(|k| seen.insert(*k))
        .take(SOLVE_KEYS)
        .collect();
    let mut total = Duration::ZERO;
    let mut entries = Vec::with_capacity(keys.len());
    for key in keys {
        let (schedule, d) = timed(spans, "core.solve", || key.solve());
        total += d;
        entries.push((key, schedule.map_err(|e| e.to_string())?));
    }
    Ok((per(total, entries.len(), 1e6), entries))
}

/// µs per record of `StoreWriter::append_batch` into a fresh store and of
/// `drift_store::load` reading it back.
fn store(
    entries: &[(ScheduleKey, Schedule)],
    dir: &Path,
    spans: &Spans,
) -> Result<Vec<Metric>, String> {
    let path = dir.join("replay.store");
    if path.exists() {
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (_, mut writer) = drift_store::StoreWriter::open(&path).map_err(|e| e.to_string())?;
    let (appended, d_append) = timed(spans, "store.append_batch", || writer.append_batch(entries));
    appended.map_err(|e| e.to_string())?;
    writer.sync().map_err(|e| e.to_string())?;
    drop(writer);
    let (loaded, d_load) = timed(spans, "store.load", || drift_store::load(&path));
    let loaded = loaded.map_err(|e| e.to_string())?;
    if loaded.entries.len() != entries.len() {
        return Err(format!(
            "store replay wrote {} records and loaded {}",
            entries.len(),
            loaded.entries.len()
        ));
    }
    Ok(vec![
        (
            "store.append_us_per_record",
            per(d_append, entries.len(), 1e6),
            "us",
        ),
        (
            "store.load_us_per_record",
            per(d_load, entries.len(), 1e6),
            "us",
        ),
    ])
}

/// ns per `ScheduleCache::get_or_solve` hit over the small-open keys.
fn cache_hits(seed: u64, spans: &Spans) -> Result<f64, String> {
    let fabric = paper_fabric();
    let keys: Vec<ScheduleKey> = Workload::SmallOpen
        .warmup(seed)
        .iter()
        .filter_map(|j| schedule_key_for(j, fabric))
        .collect();
    let cache = ScheduleCache::new(4096, 16);
    for key in &keys {
        cache.get_or_solve(*key).map_err(|e| e.to_string())?;
    }
    let (hits, d) = timed(spans, "serve.cache_get_or_solve", || {
        let mut hits = 0;
        for _ in 0..HIT_ROUNDS {
            for key in &keys {
                hits += usize::from(matches!(cache.get_or_solve(black_box(*key)), Ok((_, true))));
            }
        }
        hits
    });
    if hits != HIT_ROUNDS * keys.len() {
        return Err(format!(
            "cache replay: {hits} hits of {}",
            HIT_ROUNDS * keys.len()
        ));
    }
    Ok(per(d, hits, 1e9))
}

/// ns per `JobQueue::try_submit` + `next_job` pair over the workload's jobs.
fn queue_ops(jobs: &[&JobSpec], spans: &Spans) -> f64 {
    let (queue, handle) = job_queue::<(u64, JobSpec)>(256);
    let items: Vec<(u64, JobSpec)> = jobs.iter().map(|j| (j.id, (*j).clone())).collect();
    let (_, d) = timed(spans, "serve.queue", || {
        for item in items {
            let _ = black_box(queue.try_submit(item));
            black_box(handle.next_job());
        }
    });
    per(d, jobs.len(), 1e9)
}

/// ns per job of `protocol::parse_request` over the workload's lines.
fn parse(units: &[Unit], spans: &Spans) -> Result<f64, String> {
    let (parsed, d) = timed(spans, "gateway.parse_request", || {
        units
            .iter()
            .map(|u| parse_request(&u.line).is_ok())
            .filter(|ok| *ok)
            .count()
    });
    if parsed != units.len() {
        return Err(format!(
            "parse replay: {parsed} of {} lines parsed",
            units.len()
        ));
    }
    Ok(per(d, units.iter().map(|u| u.jobs.len()).sum(), 1e9))
}

/// ns per job of rendering the workload's answers: `result_line` per
/// job, plus `batch_response_line` per batch line.
fn render(units: &[Unit], expected: &[String], spans: &Spans) -> Result<f64, String> {
    let results: Vec<Vec<JobResult>> = units
        .iter()
        .map(|u| {
            u.jobs
                .iter()
                .map(|j| serde_json::from_str(&expected[j.id as usize]).map_err(|e| e.to_string()))
                .collect()
        })
        .collect::<Result<_, String>>()?;
    let (_, d) = timed(spans, "gateway.render", || {
        for (u, items) in results.iter().enumerate() {
            let lines: Vec<String> = items.iter().map(result_line).collect();
            if lines.len() > 1 {
                black_box(batch_response_line(u as u64, &lines));
            }
            black_box(lines);
        }
    });
    Ok(per(d, results.iter().map(Vec::len).sum(), 1e9))
}

/// ns per job of `route_key` + `HashRing::primary` on a two-shard ring.
fn route(jobs: &[&JobSpec], spans: &Spans) -> f64 {
    let ring = HashRing::new(
        &["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()],
        VNODES,
    );
    let fabric = paper_fabric();
    let (_, d) = timed(spans, "router.route", || {
        for job in jobs {
            black_box(ring.primary(route_key(job, fabric)));
        }
    });
    per(d, jobs.len(), 1e9)
}
