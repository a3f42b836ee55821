//! The serving tiers as child `drift` processes: spawn, wait until a
//! ping is answered, read their CPU and memory from `/proc`, and stop
//! them.

use crate::workload::Plan;
use drift_gateway::Client;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a tier may take to bind, answer a ping, or exit.
const PATIENCE: Duration = Duration::from_secs(20);
/// Virtual nodes per shard on the router's ring. Shard addresses carry
/// ports the kernel picks, so the ring differs every run; at the
/// router's default of 64 a shard's share of the keys ranges over about
/// 0.42-0.59 between runs, at 1024 over about 0.48-0.53.
pub const VNODES: usize = 1024;
/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// Where the tiers write their files, and whether they trace and keep
/// metrics.
#[derive(Debug, Clone)]
pub struct TierOpts {
    /// The `drift` binary.
    pub drift: PathBuf,
    /// A directory for port, store, trace, metrics and log files.
    pub dir: PathBuf,
    /// Record spans at 1/1 sampling into `<dir>/<tier>.spans.jsonl`.
    pub trace: bool,
    /// Write a final metrics snapshot to `<dir>/<tier>.metrics.json`.
    pub metrics: bool,
}

/// One running `drift` process.
#[derive(Debug)]
struct Tier {
    /// `gateway-0`, `gateway-1`, `router`.
    name: String,
    /// The address it listens on.
    addr: String,
    child: Child,
}

/// The running topology of one workload; its front tier takes the load.
/// Dropping it kills and reaps every process still running.
#[derive(Debug)]
pub struct Topology {
    /// Gateways first, then the router if there is one.
    tiers: Vec<Tier>,
    opts: TierOpts,
}

impl Topology {
    /// Starts `plan`'s tiers and waits until the front tier answers a
    /// ping. Each gateway of a router plan gets a fresh store file.
    pub fn start(plan: &Plan, opts: &TierOpts) -> Result<Topology, String> {
        std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
        let mut topo = Topology {
            tiers: Vec::new(),
            opts: opts.clone(),
        };
        for g in 0..plan.gateways {
            let name = format!("gateway-{g}");
            let mut args = vec![
                "gateway".to_string(),
                "--workers".into(),
                plan.workers.to_string(),
            ];
            if plan.router {
                let store = opts.dir.join(format!("{name}.store"));
                remove_if_present(&store)?;
                args.extend(["--store".into(), store.display().to_string()]);
            }
            topo.spawn(&name, args)?;
        }
        if plan.router {
            let shards: Vec<&str> = topo.tiers.iter().map(|t| t.addr.as_str()).collect();
            let args = vec![
                "router".to_string(),
                "--shards".into(),
                shards.join(","),
                "--vnodes".into(),
                VNODES.to_string(),
            ];
            topo.spawn("router", args)?;
        }
        for tier in &topo.tiers {
            ping(&tier.addr)?;
        }
        Ok(topo)
    }

    /// The address clients connect to.
    pub fn front(&self) -> &str {
        &self
            .tiers
            .last()
            .expect("a topology has at least one tier")
            .addr
    }

    fn spawn(&mut self, name: &str, mut args: Vec<String>) -> Result<(), String> {
        let dir = &self.opts.dir;
        let port_file = dir.join(format!("{name}.port"));
        remove_if_present(&port_file)?;
        args.extend([
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--port-file".into(),
            port_file.display().to_string(),
        ]);
        if self.opts.trace {
            let spans = dir.join(format!("{name}.spans.jsonl"));
            args.extend([
                "--trace-out".into(),
                spans.display().to_string(),
                "--trace-sample".into(),
                "1/1".into(),
            ]);
        }
        if self.opts.metrics {
            let out = dir.join(format!("{name}.metrics.json"));
            args.extend(["--metrics-out".into(), out.display().to_string()]);
        }
        let log = File::create(dir.join(format!("{name}.log")))
            .map_err(|e| format!("cannot create {name}.log: {e}"))?;
        let child = Command::new(&self.opts.drift)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.opts.drift.display()))?;
        let mut tier = Tier {
            name: name.to_string(),
            addr: String::new(),
            child,
        };
        let addr = wait_for_port(&port_file, &mut tier.child);
        // Keep the child owned by the topology even on failure, so Drop
        // reaps it.
        self.tiers.push(tier);
        self.tiers.last_mut().expect("just pushed").addr = addr?;
        Ok(())
    }

    /// Total user + system CPU seconds of every tier so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        self.tiers.iter().map(|t| proc_cpu_s(t.child.id())).sum()
    }

    /// The largest peak resident set (`VmHWM`) among the tiers, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.tiers
            .iter()
            .map(|t| proc_hwm_kb(t.child.id()).map(|kb| kb as f64 / 1024.0))
            .try_fold(0.0f64, |acc, v| v.map(|v| acc.max(v)))
    }

    /// Drains and stops every tier, front first, and returns each tier's
    /// name and stderr log (which ends with its exit summary).
    pub fn stop(mut self) -> Result<Vec<(String, String)>, String> {
        let mut summaries = Vec::new();
        while let Some(mut tier) = self.tiers.pop() {
            send_shutdown(&tier.addr)?;
            wait_exit(&mut tier.child, &tier.name)?;
            let log = std::fs::read_to_string(self.opts.dir.join(format!("{}.log", tier.name)))
                .unwrap_or_default();
            summaries.push((tier.name, log));
        }
        Ok(summaries)
    }
}

impl Drop for Topology {
    fn drop(&mut self) {
        for tier in &mut self.tiers {
            let _ = tier.child.kill();
            let _ = tier.child.wait();
        }
    }
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Polls the tier's `--port-file` until it holds an address.
fn wait_for_port(port_file: &Path, child: &mut Child) -> Result<String, String> {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim();
            if addr.parse::<std::net::SocketAddr>().is_ok() {
                return Ok(addr.to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "{} exited during start-up: {status}",
                port_file.display()
            ));
        }
        if start.elapsed() > PATIENCE {
            return Err(format!(
                "no address in {} after {PATIENCE:?}",
                port_file.display()
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// A control connection to a tier, with reads bounded by [`PATIENCE`].
fn client(addr: &str) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client
        .try_clone_stream()
        .and_then(|s| s.set_read_timeout(Some(PATIENCE)))
        .map_err(|e| format!("{addr}: {e}"))?;
    Ok(client)
}

fn ping(addr: &str) -> Result<(), String> {
    if client(addr)?.ping()? {
        Ok(())
    } else {
        Err(format!("{addr} refused the ping"))
    }
}

fn send_shutdown(addr: &str) -> Result<(), String> {
    if client(addr)?.shutdown_server()? {
        Ok(())
    } else {
        Err(format!("{addr} refused the shutdown"))
    }
}

fn wait_exit(child: &mut Child, name: &str) -> Result<(), String> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{name} exited with {status}")),
            Ok(None) if start.elapsed() > PATIENCE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{name} did not exit within {PATIENCE:?} of its drain"
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("{name}: {e}")),
        }
    }
}

/// utime + stime of process `pid`, seconds.
fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("/proc/{pid}/stat: no command name"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/{pid}/stat: bad field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// `VmHWM` of process `pid`, KiB.
fn proc_hwm_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}
