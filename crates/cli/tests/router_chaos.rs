//! Failover correctness under a real crash: backend gateways run as
//! separate `drift gateway` processes, one is SIGKILLed mid-flood, and
//! every accepted job must still be answered exactly once. The router
//! must eject the dead shard, fail its orphans over, and re-admit the
//! shard once a replacement gateway binds the same address.

#![cfg(unix)]

use drift_gateway::framing::{LineEvent, LineReader};
use drift_gateway::protocol::request_line;
use drift_obs::{Recorder, Tracer};
use drift_router::{Router, RouterConfig};
use drift_serve::job::{JobKind, JobSpec};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FLOOD: usize = 400;
const KILL_AFTER: usize = 150;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drift-router-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns `drift gateway` as a child process and waits for its
/// atomically written port file to learn the bound address. Callers
/// keep every child in a vec and kill + reap them before returning
/// (the test intentionally SIGKILLs one mid-run).
#[allow(clippy::zombie_processes)]
fn spawn_gateway(dir: &Path, name: &str, addr: &str) -> (Child, SocketAddr) {
    let port_file = dir.join(name);
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_drift"))
        .args([
            "gateway",
            "--addr",
            addr,
            "--workers",
            "1",
            "--queue-depth",
            "256",
            "--port-file",
        ])
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn drift gateway");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = text.trim().parse() {
                return (child, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "gateway {name} never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Re-binds the killed shard's address; retried because the kernel may
/// briefly hold the port after the SIGKILL.
fn respawn_gateway(dir: &Path, name: &str, addr: SocketAddr) -> (Child, SocketAddr) {
    let mut last = None;
    for attempt in 0..10 {
        let (mut child, bound) =
            spawn_gateway(dir, &format!("{name}-retry{attempt}"), &addr.to_string());
        if bound == addr {
            return (child, bound);
        }
        let _ = child.kill();
        let _ = child.wait();
        last = Some(bound);
        std::thread::sleep(Duration::from_millis(200));
    }
    panic!("could not re-bind {addr}, last bound {last:?}");
}

fn flood_jobs() -> Vec<JobSpec> {
    const FRACTIONS: [(f64, f64); 4] = [(0.1, 0.1), (0.2, 0.1), (0.5, 0.25), (0.8, 0.5)];
    (0..FLOOD)
        .map(|i| {
            let (fa, fw) = FRACTIONS[i % FRACTIONS.len()];
            JobSpec {
                id: i as u64,
                seed: (i % 8) as u64,
                kind: JobKind::Simulate {
                    m: 512,
                    k: 4096,
                    n: 4096,
                    fa,
                    fw,
                },
            }
        })
        .collect()
}

/// Reads response lines until `expect` responses arrived (or the
/// deadline passes), tallying responses per job id.
fn collect(reader: &mut LineReader, expect: usize, seen: &mut HashMap<u64, usize>) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut got = 0usize;
    while got < expect {
        assert!(
            Instant::now() < deadline,
            "timed out at {got}/{expect} responses"
        );
        match reader.next_line() {
            LineEvent::Line(line) => {
                let value: Value = serde_json::from_str(&line).expect("response is JSON");
                let id = match value.get("id") {
                    Some(Value::U64(id)) => *id,
                    Some(Value::I64(id)) if *id >= 0 => *id as u64,
                    other => panic!("response without an id: {other:?} in {line}"),
                };
                assert!(
                    value.get("error").is_none(),
                    "job {id} was answered with an error: {line}"
                );
                *seen.entry(id).or_insert(0) += 1;
                got += 1;
            }
            LineEvent::TimedOut => {}
            LineEvent::Eof | LineEvent::Failed => panic!("router dropped the connection"),
        }
    }
}

fn counter(recorder: &Recorder, name: &str) -> u64 {
    recorder
        .registry()
        .expect("recorder enabled")
        .snapshot()
        .counter_sum(name)
}

#[test]
fn killing_a_backend_mid_run_loses_and_duplicates_nothing() {
    let dir = scratch_dir();
    let mut children = Vec::new();
    let mut shard_addrs = Vec::new();
    for i in 0..3 {
        let (child, addr) = spawn_gateway(&dir, &format!("gw{i}.port"), "127.0.0.1:0");
        children.push(child);
        shard_addrs.push(addr);
    }

    let recorder = Recorder::enabled();
    let config = RouterConfig {
        probe_interval_ms: 100,
        ..RouterConfig::default()
    };
    let shards: Vec<String> = shard_addrs.iter().map(SocketAddr::to_string).collect();
    let router = Router::start(
        "127.0.0.1:0",
        &shards,
        config,
        recorder.clone(),
        Tracer::disabled(),
    )
    .expect("router starts");

    let stream = TcpStream::connect(router.local_addr()).expect("connect to router");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = LineReader::new(stream);

    // Flood the router, SIGKILLing a shard part-way through while the
    // fleet still holds accepted-but-unanswered jobs. The victim is
    // the shard that has routed the most traffic so far: the flood has
    // only four distinct schedule keys, and the ring hashes ephemeral
    // shard addresses, so a *fixed* victim can own none of them in a
    // given run — killing an idle shard would leave nothing to fail
    // over. The reader drains concurrently so responses never
    // back-pressure the flood.
    let jobs = flood_jobs();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut victim = usize::MAX;
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut seen = HashMap::new();
            collect(&mut reader, FLOOD, &mut seen);
            seen
        });
        for (i, spec) in jobs.iter().enumerate() {
            if i == KILL_AFTER {
                // Wait (bounded) until the router has visibly routed a
                // chunk of the backlog, but not so long that the
                // single-worker victim *executes* its share — draining
                // it would leave nothing in flight to fail over.
                let routed = |addr: &SocketAddr| {
                    let snapshot = recorder.registry().expect("recorder enabled").snapshot();
                    let addr = addr.to_string();
                    snapshot
                        .counters
                        .iter()
                        .filter(|s| {
                            s.id.name == "drift_router_requests_routed_total"
                                && s.id.labels.iter().any(|(k, v)| k == "shard" && *v == addr)
                        })
                        .map(|s| s.value)
                        .sum::<u64>()
                };
                let deadline = Instant::now() + Duration::from_secs(10);
                victim = loop {
                    let busiest = (0..shard_addrs.len())
                        .max_by_key(|&i| routed(&shard_addrs[i]))
                        .expect("at least one shard");
                    let dispatched = routed(&shard_addrs[busiest]);
                    if dispatched >= 20 || (dispatched > 0 && Instant::now() >= deadline) {
                        break busiest;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "router routed nothing within 10s"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                };
                children[victim].kill().expect("SIGKILL the busiest shard");
                children[victim].wait().expect("reap the killed shard");
            }
            let line = request_line(spec, None);
            writer.write_all(line.as_bytes()).expect("send request");
            writer.write_all(b"\n").expect("send newline");
        }
        seen = collector.join().expect("collector thread");
    });

    // Exactly-once: every job answered, no duplicates, no errors
    // (errors already rejected inside `collect`).
    assert_eq!(seen.len(), FLOOD, "some jobs were never answered");
    for spec in &jobs {
        assert_eq!(
            seen.get(&spec.id),
            Some(&1),
            "job {} was answered {:?} times",
            spec.id,
            seen.get(&spec.id)
        );
    }
    assert!(
        counter(&recorder, "drift_router_shard_ejections_total") >= 1,
        "the dead shard was never ejected"
    );
    assert!(
        counter(&recorder, "drift_router_failovers_total") >= 1,
        "no orphaned or refused job was failed over"
    );

    // Bring a replacement gateway up on the SAME address; the router's
    // probe must re-admit the shard.
    let (child, _) = respawn_gateway(&dir, "gw-replacement.port", shard_addrs[victim]);
    children.push(child);
    let deadline = Instant::now() + Duration::from_secs(20);
    while counter(&recorder, "drift_router_shard_readmissions_total") == 0 {
        assert!(
            Instant::now() < deadline,
            "replacement shard was never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The re-admitted shard serves again: a fresh batch completes.
    for spec in flood_jobs().iter().take(30) {
        let spec = JobSpec {
            id: spec.id + 10_000,
            ..spec.clone()
        };
        let line = request_line(&spec, None);
        writer.write_all(line.as_bytes()).expect("send request");
        writer.write_all(b"\n").expect("send newline");
    }
    let mut after: HashMap<u64, usize> = HashMap::new();
    collect(&mut reader, 30, &mut after);
    assert_eq!(after.len(), 30);
    assert!(after.keys().all(|id| *id >= 10_000));

    let summary = router.shutdown();
    assert_eq!(summary.accepted, (FLOOD + 30) as u64);
    assert!(summary.ejections >= 1);
    assert!(summary.readmissions >= 1);

    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
