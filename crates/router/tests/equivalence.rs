//! End-to-end equivalence: a router fronting four gateways must be
//! byte-identical to the offline `drift serve` runtime, and sharding by
//! schedule key must not make aggregate cache locality worse than a
//! single gateway holding the same per-shard cache capacity.

use drift_gateway::protocol::request_line;
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_router::{Router, RouterConfig};
use drift_serve::job::{result_line, synthetic_jobs, JobKind, JobSpec};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn gateway_config(cache_capacity: usize) -> GatewayConfig {
    GatewayConfig {
        workers: 2,
        cache_capacity,
        ..GatewayConfig::default()
    }
}

fn start_gateways(n: usize, cache_capacity: usize, recorder: &Recorder) -> Vec<Gateway> {
    (0..n)
        .map(|_| {
            Gateway::start(
                "127.0.0.1:0",
                gateway_config(cache_capacity),
                recorder.clone(),
                Tracer::disabled(),
                None,
            )
            .expect("gateway binds on an ephemeral port")
        })
        .collect()
}

fn addrs(gateways: &[Gateway]) -> Vec<String> {
    gateways
        .iter()
        .map(|g| g.local_addr().to_string())
        .collect()
}

/// Drives `jobs` one at a time over a raw TCP connection and returns
/// the exact response line received for each job id. Submitting
/// sequentially keeps the backend cache access order deterministic.
fn drive_raw(addr: SocketAddr, jobs: &[JobSpec]) -> HashMap<u64, String> {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write = stream;
    let mut lines = HashMap::new();
    for spec in jobs {
        let line = request_line(spec, None);
        write.write_all(line.as_bytes()).expect("send request");
        write.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let response = response.trim_end().to_string();
        assert!(!response.is_empty(), "server closed mid-stream");
        let value: Value = serde_json::from_str(&response).expect("response is JSON");
        let id = match value.get("id") {
            Some(Value::U64(id)) => *id,
            Some(Value::I64(id)) => *id as u64,
            other => panic!("response without an id: {other:?} in {response}"),
        };
        assert!(
            lines.insert(id, response).is_none(),
            "duplicate response for id {id}"
        );
    }
    lines
}

fn offline_lines(jobs: Vec<JobSpec>, cache_capacity: usize) -> HashMap<u64, String> {
    let config = drift_serve::ServeConfig {
        workers: 2,
        cache_capacity,
        ..drift_serve::ServeConfig::default()
    };
    drift_serve::serve(jobs, &config)
        .results
        .iter()
        .map(|r| (r.id, result_line(r)))
        .collect()
}

#[test]
fn router_over_four_gateways_is_byte_identical_to_offline_serve() {
    let jobs = synthetic_jobs(200, 8, 42);
    let recorder = Recorder::disabled();
    let gateways = start_gateways(4, 4096, &recorder);
    let router = Router::start(
        "127.0.0.1:0",
        &addrs(&gateways),
        RouterConfig::default(),
        Recorder::disabled(),
        Tracer::disabled(),
    )
    .expect("router starts");

    let routed = drive_raw(router.local_addr(), &jobs);
    let offline = offline_lines(jobs.clone(), 4096);

    assert_eq!(routed.len(), jobs.len());
    assert_eq!(offline.len(), jobs.len());
    for spec in &jobs {
        assert_eq!(
            routed.get(&spec.id),
            offline.get(&spec.id),
            "response for job {} differs from the offline runtime",
            spec.id
        );
    }

    let summary = router.shutdown();
    assert_eq!(summary.accepted, jobs.len() as u64);
    assert_eq!(summary.failovers, 0, "healthy run must not fail over");
    assert_eq!(summary.unrouted, 0);
    for gw in gateways {
        gw.shutdown();
    }
}

/// A cyclic scan over more distinct schedule keys than one cache can
/// hold: the single gateway LRU-thrashes, while the router splits the
/// keyspace so each shard's slice fits and repeats hit.
fn schedule_scan(distinct: usize, passes: usize) -> Vec<JobSpec> {
    (0..distinct * passes)
        .map(|i| {
            let slot = i % distinct;
            JobSpec {
                id: i as u64,
                seed: 1,
                kind: JobKind::Schedule {
                    m: 16 + 8 * slot,
                    k: 256,
                    n: 256,
                    fa: 0.25,
                    fw: 0.25,
                },
            }
        })
        .collect()
}

fn hit_rate(recorder: &Recorder) -> f64 {
    let snapshot = recorder.registry().expect("recorder enabled").snapshot();
    let hits = snapshot.counter_sum("drift_schedule_cache_hits_total") as f64;
    let misses = snapshot.counter_sum("drift_schedule_cache_misses_total") as f64;
    hits / (hits + misses).max(1.0)
}

#[test]
fn sharded_cache_hit_rate_beats_a_single_gateway() {
    const CACHE: usize = 64;
    let jobs = schedule_scan(150, 4);

    // Baseline: one gateway whose LRU cannot hold the working set.
    let single_recorder = Recorder::enabled();
    let single = start_gateways(1, CACHE, &single_recorder);
    drive_raw(single[0].local_addr(), &jobs);
    let single_rate = hit_rate(&single_recorder);
    for gw in single {
        gw.shutdown();
    }

    // Sharded: four gateways with the SAME per-shard capacity behind
    // the router; each shard sees only its slice of the keyspace.
    let sharded_recorder = Recorder::enabled();
    let gateways = start_gateways(4, CACHE, &sharded_recorder);
    let router = Router::start(
        "127.0.0.1:0",
        &addrs(&gateways),
        RouterConfig::default(),
        Recorder::enabled(),
        Tracer::disabled(),
    )
    .expect("router starts");
    drive_raw(router.local_addr(), &jobs);
    let sharded_rate = hit_rate(&sharded_recorder);

    let summary = router.shutdown();
    assert_eq!(summary.accepted, jobs.len() as u64);
    for gw in gateways {
        gw.shutdown();
    }

    assert!(
        sharded_rate >= single_rate,
        "sharded hit rate {sharded_rate:.3} fell below the single-gateway rate {single_rate:.3}"
    );
    // The working set (150 keys) exceeds one cache (64) but each
    // shard's slice fits, so the gap should be decisive, not marginal.
    assert!(
        sharded_rate > single_rate + 0.2,
        "sharding gained too little locality: {sharded_rate:.3} vs {single_rate:.3}"
    );
}

/// Submits `jobs` in batches of `batch` over one raw TCP connection
/// and returns the exact response line per batch, keyed by batch id.
fn drive_raw_batched(addr: SocketAddr, jobs: &[JobSpec], batch: usize) -> HashMap<u64, String> {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut write = stream;
    let mut lines = HashMap::new();
    for chunk in jobs.chunks(batch) {
        let batch_id = chunk[0].id;
        let line = drift_gateway::protocol::batch_request_line(batch_id, chunk, None);
        write.write_all(line.as_bytes()).expect("send batch");
        write.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .expect("read batch response");
        assert!(
            lines
                .insert(batch_id, response.trim_end().to_string())
                .is_none(),
            "duplicate batch response for id {batch_id}"
        );
    }
    lines
}

#[test]
fn router_batch_responses_splice_the_exact_singleton_bytes() {
    // A batch through the router shards by per-item schedule key, so a
    // mixed-shape batch splits into per-shard sub-batches; reassembly
    // must still produce one line whose items are byte-identical to
    // what singleton submission of the same stream returns, in
    // submission order.
    const JOBS: usize = 96;
    const BATCH: usize = 16;
    let jobs = synthetic_jobs(JOBS, 8, 42);
    let recorder = Recorder::disabled();

    // Reference: an identical fresh cluster driven singleton.
    let single_gws = start_gateways(4, 4096, &recorder);
    let single_router = Router::start(
        "127.0.0.1:0",
        &addrs(&single_gws),
        RouterConfig::default(),
        Recorder::disabled(),
        Tracer::disabled(),
    )
    .expect("router starts");
    let singleton = drive_raw(single_router.local_addr(), &jobs);
    single_router.shutdown();
    for gw in single_gws {
        gw.shutdown();
    }

    let gateways = start_gateways(4, 4096, &recorder);
    let router = Router::start(
        "127.0.0.1:0",
        &addrs(&gateways),
        RouterConfig::default(),
        Recorder::enabled(),
        Tracer::disabled(),
    )
    .expect("router starts");
    let batched = drive_raw_batched(router.local_addr(), &jobs, BATCH);

    for chunk in jobs.chunks(BATCH) {
        let batch_id = chunk[0].id;
        let items: Vec<String> = chunk
            .iter()
            .map(|spec| singleton.get(&spec.id).expect("singleton answered").clone())
            .collect();
        assert_eq!(
            batched.get(&batch_id),
            Some(&drift_gateway::protocol::batch_response_line(
                batch_id, &items
            )),
            "batch {batch_id}: router reassembly must splice the exact singleton bytes"
        );
    }

    let summary = router.shutdown();
    assert_eq!(
        summary.accepted, JOBS as u64,
        "accepted counts items, not lines"
    );
    assert_eq!(summary.unrouted, 0);
    for gw in gateways {
        gw.shutdown();
    }
}
