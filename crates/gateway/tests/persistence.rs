//! Gateway-tier persistence integration: warm-start byte-identity over
//! TCP, and cache prewarming through the `prewarm` control message.
//!
//! The serve-tier equivalents live in `drift-serve`'s `persist` module
//! tests; these exercise the same contract end-to-end through the
//! gateway's socket protocol (`docs/PERSISTENCE.md`).

use drift_core::accelerator::DriftAccelerator;
use drift_gateway::client::Client;
use drift_gateway::protocol::request_line;
use drift_gateway::server::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_serve::job::{JobKind, JobSpec};
use drift_serve::worker::schedule_key_for;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "drift-gateway-persist-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

/// A schedule job over one of 8 distinct shapes, so repeated ids
/// exercise both the miss path and the hit path.
fn spec(id: u64) -> JobSpec {
    JobSpec {
        id,
        seed: id + 1,
        kind: JobKind::Schedule {
            m: 64 + (id as usize % 8) * 16,
            k: 128,
            n: 64,
            fa: 0.25,
            fw: 0.5,
        },
    }
}

/// Submits `specs` strictly one-at-a-time over a raw socket and returns
/// the exact response lines. Sequential submission pins the response
/// order, so two runs over the same stream are comparable byte-for-byte.
fn submit_raw(addr: &str, specs: &[JobSpec]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::with_capacity(specs.len());
    for spec in specs {
        writer
            .write_all((request_line(spec, None) + "\n").as_bytes())
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "gateway hung up");
        lines.push(line);
    }
    lines
}

#[test]
fn warm_started_gateway_answers_byte_identically_without_solving() {
    let path = temp_path("warm");
    let config = GatewayConfig::with_workers(2);
    let specs: Vec<JobSpec> = (0..24).map(spec).collect();

    let cold_gw = Gateway::start(
        "127.0.0.1:0",
        config,
        Recorder::disabled(),
        Tracer::disabled(),
        Some(&path),
    )
    .unwrap();
    let cold = submit_raw(&cold_gw.local_addr().to_string(), &specs);
    cold_gw.shutdown();

    // Restart on the same store: every schedule the cold run solved
    // loads before the acceptor starts, so the warm run never misses
    // and every response byte matches the cold run's.
    let recorder = Recorder::enabled();
    let warm_gw = Gateway::start(
        "127.0.0.1:0",
        config,
        recorder.clone(),
        Tracer::disabled(),
        Some(&path),
    )
    .unwrap();
    let warm = submit_raw(&warm_gw.local_addr().to_string(), &specs);
    warm_gw.shutdown();

    assert_eq!(cold, warm, "warm responses must be byte-identical");
    let snap = recorder.registry().unwrap().snapshot();
    assert_eq!(
        snap.counter_sum("drift_schedule_cache_misses_total"),
        0,
        "a warm-started gateway should serve this stream without solving"
    );
    assert_eq!(snap.counter_sum("drift_store_records_loaded_total"), 8);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn prewarm_control_preloads_the_cache_ahead_of_traffic() {
    let recorder = Recorder::enabled();
    let gw = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(1),
        recorder.clone(),
        Tracer::disabled(),
        None,
    )
    .unwrap();

    // Solve the schedules locally — exactly what the router does for
    // keys that move to a new shard during a reshard.
    let fabric = DriftAccelerator::paper_config().unwrap().fabric();
    let specs: Vec<JobSpec> = (0..4).map(spec).collect();
    let entries: Vec<_> = specs
        .iter()
        .map(|s| {
            let key = schedule_key_for(s, fabric).expect("schedule jobs have keys");
            (key, key.solve().unwrap())
        })
        .collect();

    let mut client = Client::connect(&gw.local_addr().to_string()).unwrap();
    assert!(client.prewarm(&entries).unwrap());
    // An empty batch is legal and acks fine.
    assert!(client.prewarm(&[]).unwrap());

    // The prewarmed gateway serves those shapes without a single solve.
    for s in &specs {
        match client.submit(s, None).unwrap() {
            drift_gateway::protocol::Response::Result(r) => assert_eq!(r.id, s.id),
            other => panic!("unexpected response {other:?}"),
        }
    }
    gw.shutdown();

    let snap = recorder.registry().unwrap().snapshot();
    assert_eq!(snap.counter_sum("drift_gateway_prewarm_entries_total"), 4);
    assert_eq!(snap.counter_sum("drift_schedule_cache_misses_total"), 0);
    assert_eq!(snap.counter_sum("drift_schedule_cache_hits_total"), 4);
}
