//! Batch/singleton byte-identity at the serve layer: grouping jobs by
//! schedule key and running them through [`execute_group`] must yield
//! outcomes byte-identical to executing every spec individually — the
//! property the gateway's per-batch schedule amortization rests on
//! (docs/SERVING.md).

use drift_core::accelerator::DriftAccelerator;
use drift_core::schedule::ScheduleKey;
use drift_obs::{Recorder, Tracer};
use drift_serve::job::{result_line, JobResult, JobSpec};
use drift_serve::worker::{execute_group, execute_job, schedule_key_for};
use drift_serve::{synthetic_jobs, ScheduleCache};

fn accel() -> DriftAccelerator {
    DriftAccelerator::paper_config().unwrap()
}

/// Renders the result line each spec would produce when executed
/// one at a time — the reference the grouped path must reproduce.
fn singleton_lines(specs: &[JobSpec]) -> Vec<String> {
    let mut accel = accel();
    let cache = ScheduleCache::new(64, 4);
    specs
        .iter()
        .map(|spec| {
            let (outcome, _) = execute_job(spec, &mut accel, &cache);
            result_line(&JobResult {
                id: spec.id,
                outcome,
            })
        })
        .collect()
}

/// Groups the same specs by schedule key (preserving submission order
/// inside each group, like the gateway batch path) and renders each
/// group's [`execute_group`] outcomes back in submission order.
fn grouped_lines(specs: &[JobSpec]) -> Vec<String> {
    let mut accel = accel();
    let cache = ScheduleCache::new(64, 4);
    let recorder = Recorder::disabled();
    let fabric = accel.fabric();

    let mut groups: Vec<(Option<ScheduleKey>, Vec<usize>)> = Vec::new();
    for (pos, spec) in specs.iter().enumerate() {
        let key = schedule_key_for(spec, fabric);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, positions)) => positions.push(pos),
            None => groups.push((key, vec![pos])),
        }
    }

    let mut lines: Vec<Option<String>> = vec![None; specs.len()];
    for (key, positions) in groups {
        let members: Vec<JobSpec> = positions.iter().map(|&p| specs[p].clone()).collect();
        let outcomes = execute_group(
            key.as_ref(),
            &members,
            &mut accel,
            &cache,
            &recorder,
            &Tracer::disabled(),
            None,
        );
        assert_eq!(outcomes.len(), members.len(), "one outcome per member");
        for ((pos, spec), (outcome, _hit)) in positions.iter().zip(&members).zip(outcomes) {
            lines[*pos] = Some(result_line(&JobResult {
                id: spec.id,
                outcome,
            }));
        }
    }
    lines
        .into_iter()
        .map(|line| line.expect("every position settled exactly once"))
        .collect()
}

#[test]
fn grouped_execution_is_byte_identical_to_singleton_execution() {
    // A mixed synthetic stream: several GEMM shapes plus the keyless
    // Select jobs, across enough jobs that every group has repeats
    // (the amortized schedule actually gets shared).
    for (jobs, shapes, seed) in [(60usize, 4usize, 42u64), (48, 6, 7), (32, 1, 2024)] {
        let specs = synthetic_jobs(jobs, shapes, seed);
        let singleton = singleton_lines(&specs);
        let grouped = grouped_lines(&specs);
        assert_eq!(
            singleton, grouped,
            "[jobs={jobs} shapes={shapes} seed={seed}] grouped execution \
             must be byte-identical to singleton execution"
        );
    }
}

#[test]
fn group_cache_hits_report_shared_schedule_reuse() {
    // Within one keyed group only the first job pays the solve — the
    // rest must report cache hits (the amortization itself). Schedule
    // jobs key purely on (shape, fractions, fabric), so same-shape
    // specs with distinct ids and seeds form one group by
    // construction (Simulate keys also hash the seeded precision
    // maps, so they rarely coincide).
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| JobSpec {
            id: i,
            seed: 100 + i,
            kind: drift_serve::job::JobKind::Schedule {
                m: 96,
                k: 256,
                n: 128,
                fa: 0.3,
                fw: 0.4,
            },
        })
        .collect();
    let key = schedule_key_for(&specs[0], accel().fabric());
    assert!(key.is_some(), "Schedule jobs are keyed");
    assert!(specs
        .iter()
        .all(|s| schedule_key_for(s, accel().fabric()) == key));

    let mut accel = accel();
    let cache = ScheduleCache::new(16, 2);
    let recorder = Recorder::disabled();
    let outcomes = execute_group(
        key.as_ref(),
        &specs,
        &mut accel,
        &cache,
        &recorder,
        &Tracer::disabled(),
        None,
    );
    let (first_hit, rest) = (outcomes[0].1, &outcomes[1..]);
    assert!(!first_hit, "a cold cache makes the first job the solver");
    assert!(
        rest.iter().all(|(_, hit)| *hit),
        "every later member of a keyed group must reuse the schedule"
    );
}
