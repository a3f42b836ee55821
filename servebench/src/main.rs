//! `servebench`: the Drift serving benchmark.
//!
//! ```text
//! drift-servebench --drift PATH --workload mixed-closed|small-open|router-batch
//!                  --seed N --seconds S --trace 0|1 [--dir DIR]
//! ```
//!
//! Generates the workload's jobs from the seed, serves them through
//! child `drift gateway` / `drift router` processes, checks every answer
//! against offline `drift_serve::serve`, and prints each metric with its
//! unit. The last stdout line is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `servebench/README.md` for the workloads and the metric map.

mod check;
mod drive;
mod layers;
mod spans;
mod stats;
mod tiers;
mod workload;

use check::{expected_lines, tally, Tally};
use drift_obs::TraceDecision;
use drive::RunLog;
use spans::{breakdown, read_spans, Breakdown, Spans};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tiers::{TierOpts, Topology};
use workload::{units, Plan, Unit, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Jobs generated per second of run for the closed loop: well above
/// what a 2-CPU host serves, so a run never runs out of work.
const CLOSED_JOBS_PER_S: f64 = 10_000.0;

/// The command line.
#[derive(Debug)]
struct Args {
    drift: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut drift = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dir = PathBuf::from(".bench_work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--drift" => drift = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--dir" => dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        drift: drift.ok_or("--drift PATH is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
        dir,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("servebench: the correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A printed metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// One timed phase's results.
struct Phase {
    /// The request lines up to the last one sent.
    units: Vec<Unit>,
    /// Offline answer line per job id of `units`.
    expected: Vec<String>,
    log: RunLog,
    tally: Tally,
    /// CPU seconds the tiers spent during the timed phase.
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Each stopped tier's name and stderr log.
    logs: Vec<(String, String)>,
}

fn run(args: &Args) -> Result<bool, String> {
    if !args.drift.is_file() {
        return Err(format!("no drift binary at {}", args.drift.display()));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = args.workload.plan(nproc);
    let dir = args.dir.join(args.workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    print_meta(args, nproc, &plan);

    let generated = Instant::now();
    let jobs = args
        .workload
        .jobs(job_count(&plan, args.seconds), args.seed);
    eprintln!(
        "servebench: generated {} jobs in {:.2} s",
        jobs.len(),
        generated.elapsed().as_secs_f64()
    );
    let warm = units(args.workload.warmup(args.seed), 1, |_| Default::default());
    let opts = |trace: bool| TierOpts {
        drift: args.drift.clone(),
        dir: dir.clone(),
        trace,
        metrics: args.trace,
    };

    let (metrics, tallies): (Vec<Metric>, Vec<Tally>) = if args.trace {
        let (plain, _) = phase(
            args,
            &plan,
            &opts(false),
            &warm,
            units(jobs.clone(), plan.batch, |_| Default::default()),
            1,
        )?;
        let spans = Spans::new(args.seed);
        let contexts: Vec<_> = (0..jobs.len().div_ceil(plan.batch))
            .map(|u| spans.context(u))
            .collect();
        let traced_units = units(jobs, plan.batch, |u| TraceDecision::Sampled(contexts[u]));
        let (traced, _) = phase(args, &plan, &opts(true), &warm, traced_units, 1)?;
        for a in &traced.log.answers {
            if let Some(ctx) = contexts.get(a.unit) {
                spans.request(*ctx, a.unit, a.sent, a.done);
            }
        }
        let mut tier_spans = spans.parsed()?;
        for (name, _) in &traced.logs {
            tier_spans.extend(read_spans(&dir.join(format!("{name}.spans.jsonl")))?);
        }
        let replayed = layers::replay(&plain.units, &plain.expected, args.seed, &spans, &dir)?;
        spans.write(&dir.join("bench.spans.jsonl"))?;
        let metrics = per_layer(
            &plan,
            &plain,
            &traced,
            &breakdown(&tier_spans),
            replayed,
            &dir,
        )?;
        (metrics, vec![plain.tally, traced.tally])
    } else {
        let (p, setup_s) = phase(
            args,
            &plan,
            &opts(false),
            &warm,
            units(jobs, plan.batch, |_| Default::default()),
            SETUPS,
        )?;
        (end_to_end(&plan, &p, setup_s), vec![p.tally])
    };

    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is not a finite number: {value}"));
    }
    let correct = tallies.iter().all(Tally::correct);
    for t in &tallies {
        for problem in t.problems.iter().take(10) {
            eprintln!("servebench: incorrect: {problem}");
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    let first = &tallies[0];
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        first.attempted.max(1),
        first.failed()
    );
    Ok(correct)
}

/// How many jobs to generate for a run of `seconds`.
fn job_count(plan: &Plan, seconds: f64) -> usize {
    let per_s = plan.open_rate.unwrap_or(CLOSED_JOBS_PER_S);
    ((per_s * seconds).ceil() as usize).max(plan.batch)
}

/// Sets the tiers up `setups` times (keeping the last), drives one timed
/// phase through them, stops them, and checks every answer. Returns the
/// phase and the median set-up time in seconds.
fn phase(
    args: &Args,
    plan: &Plan,
    opts: &TierOpts,
    warm: &[Unit],
    mut units: Vec<Unit>,
    setups: usize,
) -> Result<(Phase, f64), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup_s = Vec::with_capacity(setups);
    let mut topo = None;
    for i in 0..setups {
        let start = Instant::now();
        let t = Topology::start(plan, opts)?;
        drive::warm(t.front(), warm)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < setups {
            t.stop()?;
        } else {
            topo = Some(t);
        }
    }
    let topo = topo.ok_or("no set-up ran")?;
    let cpu_before = topo.cpu_s()?;
    let log = match plan.open_rate {
        Some(rate) => drive::open_loop(topo.front(), &units, rate / plan.batch as f64),
        None => drive::closed_loop(
            topo.front(),
            &units,
            plan.connections,
            plan.depth,
            args.seconds,
        ),
    }?;
    let cpu_s = topo.cpu_s()? - cpu_before;
    let peak_rss_mb = topo.peak_rss_mb()?;
    let logs = topo.stop()?;
    if log.sent.len() == units.len() && plan.open_rate.is_none() {
        eprintln!("servebench: warning: the run used every generated job; raise the job count");
    }
    let last = log.sent.iter().max().map_or(0, |&u| u + 1);
    let asked: Vec<_> = units[..last].iter().flat_map(|u| u.jobs.clone()).collect();
    let checked = Instant::now();
    let expected = expected_lines(&asked, nproc);
    let tally = tally(&units, &log, &expected, plan.limit_us);
    eprintln!(
        "servebench: checked {} jobs against offline serve in {:.2} s",
        asked.len(),
        checked.elapsed().as_secs_f64()
    );
    units.truncate(last);
    Ok((
        Phase {
            units,
            expected,
            log,
            tally,
            cpu_s,
            peak_rss_mb,
            logs,
        },
        median(&setup_s),
    ))
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(plan: &Plan, p: &Phase, setup_s: f64) -> Vec<Metric> {
    let t = &p.tally;
    let (p50, p99) = (t.latency(p.log.wall_s, 50), t.latency(p.log.wall_s, 99));
    let attempted = t.attempted.max(1) as f64;
    eprintln!(
        "servebench: {} jobs attempted, {} ok, {} failed (shed {}, expired {}, unmeetable {}, \
         job errors {}, transport {}); latency limit {} us",
        t.attempted,
        t.ok,
        t.failed(),
        t.shed,
        t.expired,
        t.unmeetable,
        t.job_errors,
        t.transport_errors,
        plan.limit_us
    );
    // Printed beside the gated metrics but left out of the result line:
    // host stalls set p99, and `failed` / `attempted` carry fail_frac.
    if let Some(p) = p99 {
        println!(
            "{:<32} {:>14.4} us (p{} of {} samples, median of {} slices; not gated)",
            "p99_us",
            p.value,
            p.pct,
            p.samples,
            check::WINDOWS
        );
    }
    println!(
        "{:<32} {:>14.6} frac (not gated)",
        "fail_frac",
        t.failed() as f64 / attempted
    );
    vec![
        ("ok_per_s", t.ok_per_s(p.log.wall_s), "1/s"),
        ("p50_us", p50.map_or(0.0, |p| p.value), "us"),
        ("slo_frac", t.within_limit as f64 / attempted, "frac"),
        ("setup_s", setup_s, "s"),
        ("cpu_ms_per_job", p.cpu_s * 1e3 / t.ok.max(1) as f64, "ms"),
        ("peak_rss_mb", p.peak_rss_mb, "MiB"),
    ]
}

/// The per-layer metrics of a traced run: the untraced phase's counters,
/// the traced phase's span breakdown, and the replays.
fn per_layer(
    plan: &Plan,
    plain: &Phase,
    traced: &Phase,
    b: &Breakdown,
    replayed: Vec<layers::Metric>,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let t = &plain.tally;
    let attempted = t.attempted.max(1) as f64;
    let (hits, misses) = plain
        .logs
        .iter()
        .filter(|(name, _)| name.starts_with("gateway"))
        .map(|(name, _)| cache_counts(&dir.join(format!("{name}.metrics.json"))))
        .try_fold((0u64, 0u64), |acc, c| {
            c.map(|(h, m)| (acc.0 + h, acc.1 + m))
        })?;
    let router = plain.logs.iter().find(|(name, _)| name == "router");
    let (routed, failovers) = match router {
        Some((_, log)) => (
            summary_count(log, "routed")?,
            summary_count(log, "failovers")?,
        ),
        None => (0, 0),
    };
    let batches = if plan.batch > 1 {
        plain.log.sent.len()
    } else {
        0
    };
    let late = percentile(&sorted(&plain.log.late_us), 99).map_or(0.0, |p| p.value);
    let p50 = |p: &Phase| p.tally.latency(p.log.wall_s, 50).map_or(0.0, |p| p.value);

    let mut m: Vec<Metric> = replayed;
    m.extend([
        (
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "frac",
        ),
        ("serve.execute_share.select", b.select_share(), "frac"),
        ("gateway.shed_frac", t.shed as f64 / attempted, "frac"),
        (
            "gateway.queue_wait_us.p50",
            Breakdown::p(&b.queue_wait_us, 50),
            "us",
        ),
        (
            "gateway.queue_wait_us.p99",
            Breakdown::p(&b.queue_wait_us, 99),
            "us",
        ),
        (
            "gateway.wire_self_us.p50",
            Breakdown::p(&b.wire_self_us, 50),
            "us",
        ),
        (
            "router.hop_self_us.p50",
            Breakdown::p(&b.hop_self_us, 50),
            "us",
        ),
        (
            "router.shards_per_batch",
            routed.saturating_sub(failovers) as f64 / batches.max(1) as f64,
            "count",
        ),
        ("router.failovers", failovers as f64, "count"),
        ("harness.late_p99_us", late, "us"),
        ("obs.trace_overhead_p50_us", p50(traced) - p50(plain), "us"),
    ]);
    Ok(m)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Schedule-cache hits and misses from a tier's `--metrics-out` snapshot.
fn cache_counts(path: &Path) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let count = |name: &str| -> u64 {
        v.get("counters")
            .and_then(|c| c.as_seq())
            .into_iter()
            .flatten()
            .filter(|s| matches!(s.get("name"), Some(serde::Value::Str(n)) if n == name))
            .map(|s| match s.get("value") {
                Some(serde::Value::I64(n)) => *n as u64,
                Some(serde::Value::U64(n)) => *n,
                _ => 0,
            })
            .sum()
    };
    Ok((
        count("drift_schedule_cache_hits_total"),
        count("drift_schedule_cache_misses_total"),
    ))
}

/// The count before `word` in the router's exit summary
/// (`router: 2 connections, 40 accepted, 75 routed, 0 failovers, ...`).
fn summary_count(log: &str, word: &str) -> Result<u64, String> {
    let line = log
        .lines()
        .rev()
        .find(|l| l.starts_with("router: ") && l.contains(" routed"))
        .ok_or("no exit summary in the router's log")?;
    line.split(", ")
        .find_map(|part| {
            let (n, w) = part.trim_start_matches("router: ").split_once(' ')?;
            (w == word).then(|| n.parse().ok()).flatten()
        })
        .ok_or_else(|| format!("no '{word}' count in {line:?}"))
}

/// The run's provenance, on its own stdout line before the metrics.
fn print_meta(args: &Args, nproc: usize, plan: &Plan) {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={} git_rev={rev} nproc={nproc} cpu_model={cpu:?} profile={profile} \
         gateways={} workers={} router={} batch={} connections={} depth={} open_rate={:?} limit_us={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.gateways,
        plan.workers,
        plan.router,
        plan.batch,
        plan.connections,
        plan.depth,
        plan.open_rate,
        plan.limit_us,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_summary_counts_parse() {
        let log = "router: listening\nrouter: 2 connections, 40 accepted, 75 routed, 3 failovers, 0 ejections, \
                   0 readmissions, 0 unrouted, 0 expired, 0 rejected, 0 reshards, 0 dropped\n";
        assert_eq!(summary_count(log, "routed"), Ok(75));
        assert_eq!(summary_count(log, "failovers"), Ok(3));
        assert!(summary_count("nothing", "routed").is_err());
    }
}
