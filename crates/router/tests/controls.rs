//! The router's exact reply bytes for every control-shaped or
//! malformed line it answers itself, and survival of a hostile line.

use drift_obs::{Recorder, Tracer};
use drift_router::server::{Router, RouterConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// A shard address nothing listens on: the router starts with it
/// unhealthy, which is all these control-plane tests need.
fn dead_shard() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn start_router() -> Router {
    Router::start(
        "127.0.0.1:0",
        &[dead_shard()],
        RouterConfig::default(),
        Recorder::disabled(),
        Tracer::disabled(),
    )
    .expect("router starts")
}

/// Sends `line` and returns the router's one reply line, newline
/// stripped.
fn round_trip(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    assert!(
        reader.read_line(&mut reply).unwrap() > 0,
        "router hung up on {line:?}"
    );
    reply.trim_end_matches('\n').to_string()
}

#[test]
fn router_control_replies_are_pinned() {
    let router = start_router();
    let addr = router.local_addr();
    let bad_request = r#"{"error":"bad_request"}"#;
    let table: [(&str, &str); 6] = [
        (r#"{"control":"ping"}"#, r#"{"control":"ping","ok":true}"#),
        (
            r#"{"control":"reshard"}"#,
            r#"{"control":"reshard","ok":false,"error":"reshard needs a shards array"}"#,
        ),
        // The router holds no schedule cache: prewarm targets gateways.
        (r#"{"control":"prewarm","entries":[]}"#, bad_request),
        (r#"{"control":"frobnicate"}"#, bad_request),
        (r#"{"control":5}"#, bad_request),
        ("this is not json", bad_request),
    ];
    for (line, expected) in table {
        assert_eq!(round_trip(addr, line), expected, "reply to {line}");
    }
    assert_eq!(
        round_trip(addr, r#"{"control":"shutdown"}"#),
        r#"{"control":"shutdown","ok":true}"#
    );
    assert!(router.draining());
    let summary = router.shutdown();
    assert_eq!(summary.rejected, 4);
}

#[test]
fn deeply_nested_line_is_a_bad_request_not_a_crash() {
    let router = start_router();
    let addr = router.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{}\n{{\"control\":\"ping\"}}\n", "[".repeat(20_000)).as_bytes())
        .unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "{\"error\":\"bad_request\"}\n");
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "{\"control\":\"ping\",\"ok\":true}\n");
    router.shutdown();
}

#[test]
fn reshard_above_the_vnode_cap_is_refused_and_the_router_stays_up() {
    // 2^40 vnodes for one shard once asked the ring for a 16 TiB
    // allocation, which aborted the process.
    let router = start_router();
    let addr = router.local_addr();
    let line = format!(
        r#"{{"control":"reshard","shards":["{}"],"vnodes":1099511627776}}"#,
        dead_shard()
    );
    assert_eq!(
        round_trip(addr, &line),
        r#"{"control":"reshard","ok":false,"error":"vnodes must be at most 4096"}"#
    );
    assert_eq!(
        round_trip(addr, r#"{"control":"ping"}"#),
        r#"{"control":"ping","ok":true}"#
    );
    router.shutdown();
}

#[test]
fn router_refuses_vnodes_above_the_cap_at_startup() {
    let config = RouterConfig {
        vnodes: drift_router::MAX_VNODES + 1,
        ..RouterConfig::default()
    };
    let err = Router::start(
        "127.0.0.1:0",
        &[dead_shard()],
        config,
        Recorder::disabled(),
        Tracer::disabled(),
    )
    .expect_err("vnodes above the cap must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("at most 4096"), "{err}");
}
