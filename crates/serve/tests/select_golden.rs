//! Select results are pinned byte for byte: the exact `result_line`
//! of twenty Select jobs covering every profile, shapes from a single
//! element to 256×768, and δ from 0 (convert whenever the range fits)
//! to 5 (keep almost everything). Any change to the generator's draw
//! sequence, the selector's statistics or the decision rule shows up
//! as a changed line.

use drift_serve::job::{result_line, JobKind, JobSpec};
use drift_serve::{serve, ServeConfig};

const PROFILES: [&str; 4] = ["cnn", "vit", "bert", "llm"];

fn select(id: u64, seed: u64, tokens: usize, hidden: usize, delta: f64, profile: &str) -> JobSpec {
    JobSpec {
        id,
        seed,
        kind: JobKind::Select {
            tokens,
            hidden,
            delta,
            profile: profile.to_string(),
        },
    }
}

fn golden_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (s, &(tokens, hidden)) in [(1, 1), (3, 5), (64, 512), (256, 768)].iter().enumerate() {
        for (d, &delta) in [0.0, 0.03, 5.0].iter().enumerate() {
            let i = jobs.len() as u64;
            let profile = PROFILES[(s + d) % PROFILES.len()];
            jobs.push(select(i, 40 + i, tokens, hidden, delta, profile));
        }
    }
    for profile in PROFILES {
        let i = jobs.len() as u64;
        jobs.push(select(i, 7, 64, 512, 0.3, profile));
        jobs.push(select(i + 1, 42, 256, 768, 0.03, profile));
    }
    jobs
}

const GOLDEN: &[&str] = &[
    r#"{"id":0,"outcome":{"Select":{"low_subtensors":1,"subtensors":1,"low_fraction":1.0}}}"#,
    r#"{"id":1,"outcome":{"Select":{"low_subtensors":1,"subtensors":1,"low_fraction":1.0}}}"#,
    r#"{"id":2,"outcome":{"Select":{"low_subtensors":0,"subtensors":1,"low_fraction":0.0}}}"#,
    r#"{"id":3,"outcome":{"Select":{"low_subtensors":3,"subtensors":3,"low_fraction":1.0}}}"#,
    r#"{"id":4,"outcome":{"Select":{"low_subtensors":2,"subtensors":3,"low_fraction":0.6666666666666666}}}"#,
    r#"{"id":5,"outcome":{"Select":{"low_subtensors":0,"subtensors":3,"low_fraction":0.0}}}"#,
    r#"{"id":6,"outcome":{"Select":{"low_subtensors":64,"subtensors":64,"low_fraction":1.0}}}"#,
    r#"{"id":7,"outcome":{"Select":{"low_subtensors":48,"subtensors":64,"low_fraction":0.75}}}"#,
    r#"{"id":8,"outcome":{"Select":{"low_subtensors":0,"subtensors":64,"low_fraction":0.0}}}"#,
    r#"{"id":9,"outcome":{"Select":{"low_subtensors":256,"subtensors":256,"low_fraction":1.0}}}"#,
    r#"{"id":10,"outcome":{"Select":{"low_subtensors":256,"subtensors":256,"low_fraction":1.0}}}"#,
    r#"{"id":11,"outcome":{"Select":{"low_subtensors":0,"subtensors":256,"low_fraction":0.0}}}"#,
    r#"{"id":12,"outcome":{"Select":{"low_subtensors":47,"subtensors":64,"low_fraction":0.734375}}}"#,
    r#"{"id":13,"outcome":{"Select":{"low_subtensors":256,"subtensors":256,"low_fraction":1.0}}}"#,
    r#"{"id":14,"outcome":{"Select":{"low_subtensors":6,"subtensors":64,"low_fraction":0.09375}}}"#,
    r#"{"id":15,"outcome":{"Select":{"low_subtensors":232,"subtensors":256,"low_fraction":0.90625}}}"#,
    r#"{"id":16,"outcome":{"Select":{"low_subtensors":4,"subtensors":64,"low_fraction":0.0625}}}"#,
    r#"{"id":17,"outcome":{"Select":{"low_subtensors":234,"subtensors":256,"low_fraction":0.9140625}}}"#,
    r#"{"id":18,"outcome":{"Select":{"low_subtensors":4,"subtensors":64,"low_fraction":0.0625}}}"#,
    r#"{"id":19,"outcome":{"Select":{"low_subtensors":177,"subtensors":256,"low_fraction":0.69140625}}}"#,
];

#[test]
fn select_result_lines_are_pinned() {
    let outcome = serve(golden_jobs(), &ServeConfig::with_workers(1));
    let lines: Vec<String> = outcome.results.iter().map(result_line).collect();
    assert_eq!(lines.len(), 20);
    assert_eq!(lines, GOLDEN, "{lines:#?}");
}
