//! Failure-path behaviour of the gateway: overload sheds instead of
//! hanging, deadlines expire with structured errors, client
//! disconnects stay contained, and a graceful drain answers every
//! accepted job.

use drift_gateway::client::Client;
use drift_gateway::protocol::{Response, ERR_DEADLINE, ERR_OVERLOADED};
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_serve::job::{JobKind, JobSpec};
use std::collections::BTreeSet;

/// A job small enough to stay fast in debug builds.
fn quick_spec(id: u64) -> JobSpec {
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

/// A cycle-accurate simulation big enough to keep a worker busy for a
/// while, so queues actually fill and deadlines actually pass.
fn heavy_spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Simulate {
            m: 96,
            k: 384,
            n: 96,
            fa: 0.5,
            fw: 0.5,
        },
    }
}

/// A Select job whose 2048 x 1024 activation tensor takes tens of
/// milliseconds to draw and scan even in a release build: work that
/// outlasts a 1 ms budget many times over on either build profile.
fn occupying_spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Select {
            tokens: 2048,
            hidden: 1024,
            delta: 0.03,
            profile: "bert".to_string(),
        },
    }
}

#[test]
fn full_queue_sheds_with_overloaded_and_answers_every_request() {
    const REQUESTS: u64 = 16;
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 1;
    let gw = Gateway::start(
        "127.0.0.1:0",
        config,
        Recorder::disabled(),
        Tracer::disabled(),
        None,
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // Pipeline everything at once: the single worker cannot keep up,
    // so most requests must shed — and none may go unanswered.
    for id in 0..REQUESTS {
        client.send(&heavy_spec(id), None).unwrap();
    }
    let mut ok_ids = BTreeSet::new();
    let mut shed = 0u64;
    for _ in 0..REQUESTS {
        match client.recv().unwrap() {
            Response::Result(r) => {
                assert!(ok_ids.insert(r.id), "duplicate result id {}", r.id);
            }
            Response::Error { id, error } => {
                assert_eq!(error, ERR_OVERLOADED);
                assert!(id.is_some(), "shed responses must carry the job id");
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok_ids.len() as u64 + shed, REQUESTS);
    assert!(shed > 0, "queue_depth=1 under a pipelined burst must shed");

    let summary = gw.shutdown();
    assert_eq!(summary.accepted, ok_ids.len() as u64);
    assert_eq!(summary.shed, shed);
}

#[test]
fn stale_requests_expire_with_deadline_exceeded() {
    let mut config = GatewayConfig::with_workers(1);
    config.queue_depth = 8;
    let gw = Gateway::start(
        "127.0.0.1:0",
        config,
        Recorder::disabled(),
        Tracer::disabled(),
        None,
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    // One long job occupies the single worker; the budgeted request
    // queues behind it, so its 1 ms deadline has long passed when a
    // worker finally dequeues it.
    client.send(&occupying_spec(0), None).unwrap();
    client.send(&quick_spec(99), Some(1)).unwrap();

    let mut expired = Vec::new();
    for _ in 0..2 {
        match client.recv().unwrap() {
            Response::Result(_) => {}
            Response::Error { id, error } => {
                assert_eq!(error, ERR_DEADLINE);
                expired.push(id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(expired, vec![Some(99)]);
    assert_eq!(gw.shutdown().expired, 1);
}

#[test]
fn mid_stream_disconnect_does_not_kill_the_server() {
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        Recorder::disabled(),
        Tracer::disabled(),
        None,
    )
    .unwrap();
    let addr = gw.local_addr().to_string();

    // First client submits work and vanishes without reading responses.
    let mut doomed = Client::connect(&addr).unwrap();
    doomed.send(&heavy_spec(0), None).unwrap();
    doomed.send(&quick_spec(1), None).unwrap();
    drop(doomed);

    // The server keeps serving fresh connections.
    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ping().unwrap());
    match client.submit(&quick_spec(2), None).unwrap() {
        Response::Result(r) => assert_eq!(r.id, 2),
        other => panic!("unexpected response {other:?}"),
    }

    let summary = gw.shutdown();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.accepted, 3, "{}", summary.render());
}

#[test]
fn graceful_drain_answers_every_accepted_job() {
    const JOBS: u64 = 32;
    let mut config = GatewayConfig::with_workers(2);
    config.queue_depth = JOBS as usize * 2;
    let gw = Gateway::start(
        "127.0.0.1:0",
        config,
        Recorder::disabled(),
        Tracer::disabled(),
        None,
    )
    .unwrap();
    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();

    for id in 0..JOBS {
        client.send(&quick_spec(id), None).unwrap();
    }
    // The ping ack proves the reader has admitted all the job lines
    // queued ahead of it, so a shutdown from here on may not lose any.
    client.send_raw("{\"control\":\"ping\"}").unwrap();
    let mut results = BTreeSet::new();
    loop {
        match client.recv().unwrap() {
            Response::Control { op, ok, .. } => {
                assert_eq!(op, "ping");
                assert!(ok);
                break;
            }
            Response::Result(r) => {
                assert!(results.insert(r.id));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    let drainer = std::thread::spawn(move || gw.shutdown());
    while results.len() < JOBS as usize {
        match client.recv().unwrap() {
            Response::Result(r) => {
                assert!(results.insert(r.id), "duplicate result id {}", r.id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let summary = drainer.join().unwrap();
    assert_eq!(summary.accepted, JOBS);
    assert_eq!(summary.dropped, 0);
    assert_eq!(results, (0..JOBS).collect::<BTreeSet<_>>());
}
