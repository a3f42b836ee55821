//! Live resharding: grow the ring from two to three shards (and back
//! down) while the router keeps answering, with moved-key accounting in
//! both the control acknowledgement and the metrics contract — and
//! with every moved schedule prewarmed onto its new owner, so the
//! reshard never turns warm keys cold (`docs/PERSISTENCE.md`).

use drift_gateway::protocol::request_line;
use drift_gateway::{Gateway, GatewayConfig};
use drift_obs::{Recorder, Tracer};
use drift_router::{Router, RouterConfig};
use drift_serve::job::{JobKind, JobSpec};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn start_gateway(recorder: &Recorder) -> Gateway {
    Gateway::start(
        "127.0.0.1:0",
        GatewayConfig::with_workers(2),
        recorder.clone(),
        Tracer::disabled(),
        None,
    )
    .expect("gateway binds on an ephemeral port")
}

fn scan(distinct: usize, first_id: u64) -> Vec<JobSpec> {
    (0..distinct)
        .map(|i| JobSpec {
            id: first_id + i as u64,
            seed: 1,
            kind: JobKind::Schedule {
                m: 16 + 8 * i,
                k: 256,
                n: 256,
                fa: 0.25,
                fw: 0.25,
            },
        })
        .collect()
}

struct RawConn {
    write: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect to router");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        RawConn {
            write: stream,
            reader,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.write.write_all(line.as_bytes()).expect("send line");
        self.write.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        let response = response.trim_end().to_string();
        assert!(!response.is_empty(), "router closed the connection");
        response
    }

    fn drive(&mut self, jobs: &[JobSpec]) -> HashMap<u64, String> {
        let mut lines = HashMap::new();
        for spec in jobs {
            let response = self.round_trip(&request_line(spec, None));
            let value: Value = serde_json::from_str(&response).expect("response is JSON");
            let id = match value.get("id") {
                Some(Value::U64(id)) => *id,
                Some(Value::I64(id)) if *id >= 0 => *id as u64,
                other => panic!("response without an id: {other:?} in {response}"),
            };
            assert!(
                lines.insert(id, response).is_none(),
                "duplicate response for id {id}"
            );
        }
        lines
    }
}

fn field_u64(value: &Value, name: &str) -> u64 {
    match value.get(name) {
        Some(Value::U64(v)) => *v,
        Some(Value::I64(v)) if *v >= 0 => *v as u64,
        other => panic!("ack field {name} missing or non-numeric: {other:?}"),
    }
}

fn counter(recorder: &Recorder, name: &str) -> u64 {
    recorder
        .registry()
        .expect("recorder enabled")
        .snapshot()
        .counter_sum(name)
}

fn moved_keys_metric(recorder: &Recorder) -> u64 {
    counter(recorder, "drift_router_reshard_moved_keys_total")
}

#[test]
fn reshard_grows_and_shrinks_the_ring_without_losing_jobs() {
    let recorder = Recorder::enabled();
    // All three gateways share one recorder, so miss/prewarm totals
    // below are summed over the whole backend fleet.
    let gw_recorder = Recorder::enabled();
    let gateways: Vec<Gateway> = (0..3).map(|_| start_gateway(&gw_recorder)).collect();
    let addr_of = |i: usize| gateways[i].local_addr().to_string();

    let router = Router::start(
        "127.0.0.1:0",
        &[addr_of(0), addr_of(1)],
        RouterConfig::default(),
        recorder.clone(),
        Tracer::disabled(),
    )
    .expect("router starts");
    let mut conn = RawConn::open(router.local_addr());

    // Phase 1: 50 distinct schedule keys over two shards.
    let first = scan(50, 0);
    let answered = conn.drive(&first);
    assert_eq!(answered.len(), first.len());

    // Grow the ring to three shards. The ack must report the move.
    let grow = format!(
        "{{\"control\":\"reshard\",\"shards\":[\"{}\",\"{}\",\"{}\"]}}",
        addr_of(0),
        addr_of(1),
        addr_of(2)
    );
    let ack: Value = serde_json::from_str(&conn.round_trip(&grow)).expect("ack is JSON");
    assert!(
        matches!(ack.get("ok"), Some(Value::Bool(true))),
        "grow refused: {ack:?}"
    );
    assert_eq!(field_u64(&ack, "shards"), 3);
    assert_eq!(field_u64(&ack, "added"), 1);
    assert_eq!(field_u64(&ack, "retired"), 0);
    assert_eq!(field_u64(&ack, "tracked_keys"), 50);
    let moved_up = field_u64(&ack, "moved_keys");
    assert!(
        (1..50).contains(&moved_up),
        "growing 2 -> 3 shards should move a strict subset of keys, moved {moved_up}"
    );
    assert_eq!(moved_keys_metric(&recorder), moved_up);
    // Every moved key is a schedule job and the new shard is healthy,
    // so every one of them was solved and pushed before the quiesce
    // lifted — on both sides of the control message.
    assert_eq!(field_u64(&ack, "prewarmed_keys"), moved_up);
    assert_eq!(
        counter(&recorder, "drift_router_prewarm_keys_total"),
        moved_up
    );
    assert_eq!(
        counter(&gw_recorder, "drift_gateway_prewarm_entries_total"),
        moved_up
    );

    // The router keeps answering on the SAME client connection.
    let second = conn.drive(&scan(50, 1000));
    assert_eq!(second.len(), 50);
    // The same 50 keys again: retained keys hit their original shard's
    // cache and moved keys hit the prewarmed entries on the new shard,
    // so the fleet solves nothing it has solved before.
    assert_eq!(
        counter(&gw_recorder, "drift_schedule_cache_misses_total"),
        50,
        "a prewarmed reshard must not turn warm keys cold"
    );

    // Shrink back to two shards, retiring the third.
    let shrink = format!(
        "{{\"control\":\"reshard\",\"shards\":[\"{}\",\"{}\"],\"vnodes\":32}}",
        addr_of(0),
        addr_of(1)
    );
    let ack: Value = serde_json::from_str(&conn.round_trip(&shrink)).expect("ack is JSON");
    assert!(
        matches!(ack.get("ok"), Some(Value::Bool(true))),
        "shrink refused: {ack:?}"
    );
    assert_eq!(field_u64(&ack, "shards"), 2);
    assert_eq!(field_u64(&ack, "added"), 0);
    assert_eq!(field_u64(&ack, "retired"), 1);
    let moved_down = field_u64(&ack, "moved_keys");
    assert!(moved_down >= 1, "retiring a shard must move its keys back");
    assert_eq!(moved_keys_metric(&recorder), moved_up + moved_down);
    assert_eq!(field_u64(&ack, "prewarmed_keys"), moved_down);

    let third = conn.drive(&scan(50, 2000));
    assert_eq!(third.len(), 50);
    // Still the same 50 keys: the shrink's prewarm kept them warm too.
    assert_eq!(
        counter(&gw_recorder, "drift_schedule_cache_misses_total"),
        50
    );

    // A malformed reshard is refused without disturbing the router.
    let bad: Value =
        serde_json::from_str(&conn.round_trip("{\"control\":\"reshard\",\"shards\":[]}"))
            .expect("nack is JSON");
    assert!(matches!(bad.get("ok"), Some(Value::Bool(false))));
    let fourth = conn.drive(&scan(10, 3000));
    assert_eq!(fourth.len(), 10);

    let summary = router.shutdown();
    assert_eq!(summary.accepted, 160);
    assert_eq!(summary.reshards, 2);
    assert_eq!(summary.unrouted, 0);
    for gw in gateways {
        gw.shutdown();
    }
}
