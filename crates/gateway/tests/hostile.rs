//! Hostile lines and edge timings at the gateway: a deeply nested line
//! must be answered `bad_request` without taking the process down, and
//! a batch discarded as doomed at dequeue must be counted as an
//! `expired` queue wait, not an `ok` one.

use drift_gateway::client::Client;
use drift_gateway::protocol::{self, Response, ERR_BAD_REQUEST, ERR_DEADLINE};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_serve::job::{JobKind, JobSpec};

fn start(workers: usize, recorder: Recorder) -> Gateway {
    Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(workers),
        recorder,
        Tracer::disabled(),
        None,
    )
    .expect("gateway binds on an ephemeral port")
}

#[test]
fn deeply_nested_line_is_a_bad_request_and_the_gateway_stays_up() {
    let gw = start(1, Recorder::disabled());
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    client.send_raw(&"[".repeat(20_000)).unwrap();
    match client.recv().unwrap() {
        Response::Error { id: None, error } => assert_eq!(error, ERR_BAD_REQUEST),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(client.ping().unwrap(), "the gateway must still answer");
    assert_eq!(gw.shutdown().rejected, 1);
}

/// Observations of `drift_gateway_queue_wait_microseconds` labelled
/// `outcome`.
fn queue_waits(recorder: &Recorder, outcome: &str) -> u64 {
    recorder
        .registry()
        .unwrap()
        .snapshot()
        .histograms
        .iter()
        .filter(|h| h.id.name == "drift_gateway_queue_wait_microseconds")
        .filter(|h| h.id.labels == [("outcome".to_string(), outcome.to_string())])
        .map(|h| h.count())
        .sum()
}

#[test]
fn batch_discarded_at_dequeue_counts_an_expired_queue_wait() {
    let recorder = Recorder::enabled();
    let gw = start(1, recorder.clone());
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    // A long Select job occupies the only worker: drawing and scanning
    // its 2048 x 1024 activation tensor takes tens of milliseconds even
    // in a release build, far past the batch's 1 ms budget. Nothing has
    // completed yet, so the service-time estimator is still 0 and
    // admission cannot refuse the batch below as unmeetable: it queues,
    // and its budget has passed by the time the worker dequeues it.
    let long = JobSpec {
        id: 0,
        seed: 1,
        kind: JobKind::Select {
            tokens: 2048,
            hidden: 1024,
            delta: 0.03,
            profile: "bert".to_string(),
        },
    };
    let batch: Vec<JobSpec> = (1..3)
        .map(|id| JobSpec {
            id,
            seed: id,
            kind: JobKind::Schedule {
                m: 64,
                k: 128,
                n: 64,
                fa: 0.25,
                fw: 0.5,
            },
        })
        .collect();
    let lines = format!(
        "{}\n{}",
        protocol::request_line(&long, None),
        protocol::batch_request_line(100, &batch, Some(1))
    );
    client.send_raw(&lines).unwrap();
    assert!(matches!(client.recv().unwrap(), Response::Result(r) if r.id == 0));
    match client.recv().unwrap() {
        Response::Batch { id: 100, items } => {
            assert_eq!(items.len(), 2);
            for item in items {
                assert!(
                    matches!(&item, Response::Error { error, .. } if error == ERR_DEADLINE),
                    "{item:?}"
                );
            }
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(gw.shutdown().expired, 2);
    assert_eq!(queue_waits(&recorder, "ok"), 1, "the long job ran");
    assert_eq!(
        queue_waits(&recorder, "expired"),
        1,
        "the doomed batch group was discarded, not executed"
    );
}
