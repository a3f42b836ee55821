//! The correctness gate and the end-to-end tallies of one timed phase.
//!
//! Every answered job must be byte-identical to the line offline
//! `drift_serve::serve` renders for the same job, every sent job must be
//! answered exactly once, and refusals are counted, not excused.

use crate::drive::RunLog;
use crate::stats::{median, percentile, Pct};
use crate::workload::Unit;
use drift_serve::job::{result_line, JobResult, JobSpec};
use drift_serve::runtime::{serve, ServeConfig};
use std::collections::HashMap;
use std::time::Instant;

/// The offline answer line of every job in `jobs`, indexed like `jobs`.
///
/// Results are a pure function of a job's spec (its seed and kind; the
/// id is only echoed), so each distinct spec is served once and its
/// outcome re-labelled with every id that asked for it: the lines are
/// the ones `serve` renders for the full list, at a fraction of the
/// cost for streams that repeat their jobs.
pub fn expected_lines(jobs: &[JobSpec], workers: usize) -> Vec<String> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let slots: Vec<usize> = jobs
        .iter()
        .map(|job| {
            let anonymous = JobSpec {
                id: 0,
                ..job.clone()
            };
            let key = drift_gateway::protocol::request_line(&anonymous, None);
            *index.entry(key).or_insert_with(|| {
                distinct.push(JobSpec {
                    id: distinct.len() as u64,
                    ..anonymous
                });
                distinct.len() - 1
            })
        })
        .collect();
    let outcome = serve(distinct, &ServeConfig::with_workers(workers));
    jobs.iter()
        .zip(slots)
        .map(|(job, slot)| {
            result_line(&JobResult {
                id: job.id,
                outcome: outcome.results[slot].outcome.clone(),
            })
        })
        .collect()
}

/// The items of a batch response line `{"id":B,"batch":[item,...]}`, as
/// raw text; `None` when the line is not a batch response.
pub fn batch_items(line: &str) -> Option<Vec<&str>> {
    let body = line
        .strip_prefix("{\"id\":")?
        .split_once(",\"batch\":[")?
        .1
        .strip_suffix("]}")?;
    let mut items = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut from) = (0usize, false, false, 0usize);
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                items.push(&body[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    (depth == 0 && !in_str && from < body.len()).then(|| {
        items.push(&body[from..]);
        items
    })
}

/// The wire error code of an error response (`{"id":N,"error":"code"}`).
fn error_code(item: &str) -> Option<&str> {
    let at = item
        .find(",\"error\":\"")
        .or_else(|| item.find("{\"error\":\""))?;
    let rest = &item[at..];
    let rest = &rest[rest.find(":\"")? + 2..];
    rest.split('"').next()
}

/// Equal slices a timed phase is cut into; latency percentiles and
/// throughput are taken per slice and reported as the median slice, so
/// one burst of host stalls moves a run's figures less.
pub const WINDOWS: usize = 5;

/// When one ok job's line was due and when it was answered, seconds
/// from the phase's first due instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Due (closed loop: sent).
    pub due_s: f64,
    /// Answered.
    pub done_s: f64,
}

impl Sample {
    /// Latency from due to answer, µs.
    pub fn latency_us(&self) -> f64 {
        (self.done_s - self.due_s) * 1e6
    }
}

/// The tallies of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Jobs in every request line that was written.
    pub attempted: usize,
    /// Jobs answered with a non-error result.
    pub ok: usize,
    /// Jobs answered `overloaded`.
    pub shed: usize,
    /// Jobs answered `deadline_exceeded`.
    pub expired: usize,
    /// Jobs answered `deadline_unmeetable`.
    pub unmeetable: usize,
    /// Jobs answered with an error outcome or another error code.
    pub job_errors: usize,
    /// Jobs with no answer because their connection failed.
    pub transport_errors: usize,
    /// Ok jobs answered within the latency limit.
    pub within_limit: usize,
    /// One sample per ok job: a batched job takes its batch's times.
    pub samples: Vec<Sample>,
    /// Correctness failures: mismatches, lost, duplicate or unknown ids.
    pub problems: Vec<String>,
}

impl Tally {
    /// Failed jobs: every refusal, error and lost answer.
    pub fn failed(&self) -> usize {
        self.shed + self.expired + self.unmeetable + self.job_errors + self.transport_errors
    }

    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The `pct`-th latency percentile (by the percentile rule) of the
    /// jobs due in each of the [`WINDOWS`] slices of a `wall_s` phase, as
    /// the median slice's value, with the lowest percentile a slice had
    /// to fall back to and the total sample count. Slices too thin for
    /// even a median are skipped; `None` when every slice is.
    pub fn latency(&self, wall_s: f64, pct: u32) -> Option<Pct> {
        let mut slices = vec![Vec::new(); WINDOWS];
        for s in &self.samples {
            slices[window(s.due_s, wall_s)].push(s.latency_us());
        }
        let per_slice: Vec<Pct> = slices
            .iter_mut()
            .filter_map(|v| {
                v.sort_by(f64::total_cmp);
                percentile(v, pct)
            })
            .collect();
        Some(Pct {
            pct: per_slice.iter().map(|p| p.pct).min()?,
            value: median(&per_slice.iter().map(|p| p.value).collect::<Vec<_>>()),
            samples: self.samples.len(),
        })
    }

    /// Ok jobs answered per second, as the median of the [`WINDOWS`]
    /// slices of a `wall_s` phase.
    pub fn ok_per_s(&self, wall_s: f64) -> f64 {
        let mut counts = vec![0.0; WINDOWS];
        for s in &self.samples {
            counts[window(s.done_s, wall_s)] += 1.0;
        }
        median(&counts) * WINDOWS as f64 / wall_s.max(1e-9)
    }
}

/// The slice of a `wall_s` phase that time `at_s` falls in.
fn window(at_s: f64, wall_s: f64) -> usize {
    ((at_s / wall_s.max(1e-9) * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Checks `log` against the offline lines and tallies it. `expected[i]`
/// is the offline answer of job id `i`; `limit_us` is the latency limit
/// of one request line.
pub fn tally(units: &[Unit], log: &RunLog, expected: &[String], limit_us: f64) -> Tally {
    let mut t = Tally::default();
    let mut answered = vec![0u32; units.len()];
    let t0 = log
        .answers
        .iter()
        .map(|a| a.due)
        .min()
        .unwrap_or_else(Instant::now);
    for &u in &log.sent {
        t.attempted += units[u].jobs.len();
    }
    for answer in &log.answers {
        let Some(unit) = units.get(answer.unit) else {
            t.problems.push(format!(
                "answer for unknown request: {}",
                clip(&answer.line)
            ));
            continue;
        };
        answered[answer.unit] += 1;
        if answered[answer.unit] > 1 {
            t.problems
                .push(format!("request {} answered twice", answer.unit));
            continue;
        }
        let sample = Sample {
            due_s: answer.due.duration_since(t0).as_secs_f64(),
            done_s: answer.done.duration_since(t0).as_secs_f64(),
        };
        let items: Vec<&str> = if !unit.line.contains(",\"batch\":[") {
            vec![answer.line.as_str()]
        } else if let Some(items) = batch_items(&answer.line) {
            items
        } else {
            // A whole batch refused with one error line.
            vec![answer.line.as_str(); unit.jobs.len()]
        };
        if items.len() != unit.jobs.len() {
            t.problems.push(format!(
                "request {} carried {} jobs but got {} answers",
                answer.unit,
                unit.jobs.len(),
                items.len()
            ));
            continue;
        }
        for (job, item) in unit.jobs.iter().zip(items) {
            if let Some(code) = error_code(item) {
                match code {
                    "overloaded" => t.shed += 1,
                    "deadline_exceeded" => t.expired += 1,
                    "deadline_unmeetable" => t.unmeetable += 1,
                    _ => t.job_errors += 1,
                }
                continue;
            }
            let want = &expected[job.id as usize];
            if item != want {
                t.problems.push(format!(
                    "job {}: got {} want {}",
                    job.id,
                    clip(item),
                    clip(want)
                ));
                continue;
            }
            if item.contains("\"outcome\":{\"Error\"") {
                t.job_errors += 1;
                continue;
            }
            t.ok += 1;
            t.samples.push(sample);
            if sample.latency_us() <= limit_us {
                t.within_limit += 1;
            }
        }
    }
    for &u in &log.sent {
        if answered[u] == 0 {
            t.transport_errors += units[u].jobs.len();
            t.problems.push(format!("request {u} was never answered"));
        }
    }
    t
}

fn clip(s: &str) -> &str {
    &s[..s.char_indices().nth(160).map_or(s.len(), |(i, _)| i)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_items_split_at_top_level_only() {
        let line = r#"{"id":4,"batch":[{"id":1,"outcome":{"Schedule":{"makespan":3,"latencies":[1,2,3,0]}}},{"id":2,"error":"overloaded"},{"id":3,"outcome":{"Error":{"message":"a, \"b\" }"}}}]}"#;
        let items = batch_items(line).unwrap();
        assert_eq!(items.len(), 3);
        assert!(items[0].ends_with("[1,2,3,0]}}}"));
        assert_eq!(items[1], r#"{"id":2,"error":"overloaded"}"#);
        assert!(items[2].starts_with(r#"{"id":3,"outcome":{"Error""#));
        assert_eq!(batch_items(r#"{"id":1,"error":"overloaded"}"#), None);
    }

    #[test]
    fn error_codes_are_read_from_error_lines_only() {
        assert_eq!(
            error_code(r#"{"id":2,"error":"overloaded"}"#),
            Some("overloaded")
        );
        assert_eq!(
            error_code(r#"{"error":"bad_request"}"#),
            Some("bad_request")
        );
        assert_eq!(error_code(r#"{"id":2,"outcome":{"Schedule":{}}}"#), None);
    }

    #[test]
    fn latency_and_throughput_take_the_median_slice() {
        // 10 s phase, 100 jobs per 2 s slice; one slice (4-6 s) is slow
        // and answers only 10 jobs.
        let mut t = Tally::default();
        for slice in 0..WINDOWS {
            let (count, latency_s) = if slice == 2 { (10, 0.5) } else { (100, 0.001) };
            for i in 0..count {
                let due_s = slice as f64 * 2.0 + i as f64 * 0.01;
                t.samples.push(Sample {
                    due_s,
                    done_s: due_s + latency_s,
                });
            }
        }
        // The slow slice is too thin for a median and is skipped.
        let p50 = t.latency(10.0, 50).unwrap();
        assert!((p50.value - 1000.0).abs() < 1e-6, "{p50:?}");
        assert_eq!((p50.pct, p50.samples), (50, 410));
        // 100 samples per slice leave 10 beyond p90 at most.
        assert_eq!(t.latency(10.0, 99).unwrap().pct, 90);
        assert_eq!(Tally::default().latency(10.0, 50), None);
        // Answers per slice 100, 100, 10 (+ late ones), 100, 100.
        assert!((t.ok_per_s(10.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn expected_lines_match_a_full_offline_serve() {
        // 100 mixed jobs: every kind, and the last 20 repeat earlier specs.
        let jobs = crate::workload::Workload::MixedClosed.jobs(100, 5);
        let full = serve(jobs.clone(), &ServeConfig::with_workers(2));
        let lines: Vec<String> = full.results.iter().map(result_line).collect();
        assert_eq!(expected_lines(&jobs, 2), lines);
    }
}
