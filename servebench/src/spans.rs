//! The traced run: the harness's own spans, kept in memory through a
//! `drift_obs::Tracer` and written out at the end, joined by trace id
//! with the spans the tiers wrote through `--trace-out`.

use crate::stats::{percentile, self_time};
use drift_obs::{Recorder, SpanRecord, TraceContext, Tracer};
use serde::Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The service name of the harness's spans.
pub const SERVICE: &str = "bench";

/// A span sink that keeps every line in memory.
#[derive(Clone, Default)]
struct Memory(Arc<Mutex<Vec<u8>>>);

impl Write for Memory {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("span buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The harness's tracer: a root span per request line and a span around
/// each replayed layer call, recorded in memory.
pub struct Spans {
    tracer: Tracer,
    memory: Memory,
    seed: u64,
}

impl Spans {
    /// A tracer whose trace ids derive from `seed`.
    pub fn new(seed: u64) -> Spans {
        let memory = Memory::default();
        let tracer = Tracer::to_writer(
            Box::new(memory.clone()),
            SERVICE,
            1,
            seed,
            Recorder::disabled(),
        );
        Spans {
            tracer,
            memory,
            seed,
        }
    }

    /// Trace context for request line `unit`: its trace id and the id of
    /// the root span the harness records for it.
    pub fn context(&self, unit: usize) -> TraceContext {
        TraceContext {
            trace_id: Tracer::trace_id_for(self.seed, unit as u64),
            parent_span: Some(self.tracer.new_span_id()),
        }
    }

    /// Records request line `unit`'s root span over its round trip.
    pub fn request(&self, ctx: TraceContext, unit: usize, sent: Instant, done: Instant) {
        self.tracer.record(&SpanRecord {
            service: None,
            trace: ctx.trace_id,
            span: ctx
                .parent_span
                .expect("request contexts carry their root span"),
            parent: None,
            stage: "request",
            start: sent,
            end: done,
            job: Some(unit as u64),
            attrs: &[],
        });
    }

    /// Records a span named `stage` around one replayed layer call,
    /// under the replay's own trace.
    pub fn layer(&self, stage: &str, start: Instant, end: Instant) {
        self.tracer.record(&SpanRecord {
            service: None,
            trace: Tracer::trace_id_for(self.seed, u64::MAX),
            span: self.tracer.new_span_id(),
            parent: None,
            stage,
            start,
            end,
            job: None,
            attrs: &[],
        });
    }

    /// Writes every span recorded so far to `path` as JSONL.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let bytes = self.memory.0.lock().expect("span buffer poisoned").clone();
        std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every span recorded so far.
    pub fn parsed(&self) -> Result<Vec<Span>, String> {
        let bytes = self.memory.0.lock().expect("span buffer poisoned").clone();
        parse_spans(&String::from_utf8_lossy(&bytes))
    }
}

/// One span line, as `drift_obs` renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace id (32 hex digits).
    pub trace: String,
    /// Span id (16 hex digits).
    pub span: String,
    /// Parent span id, if any.
    pub parent: Option<String>,
    /// Service name.
    pub svc: String,
    /// Stage name.
    pub stage: String,
    /// Wall-clock start, µs since the epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// The `kind` attribute (serve `execute` spans), if present.
    pub kind: Option<String>,
}

/// Parses span JSONL.
pub fn parse_spans(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("span line: {e}"))?;
            let s = |k: &str| match v.get(k) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let n = |k: &str| match v.get(k) {
                Some(Value::I64(n)) => u64::try_from(*n).ok(),
                Some(Value::U64(n)) => Some(*n),
                _ => None,
            };
            let kind = match v.get("attrs").and_then(|a| a.get("kind")) {
                Some(Value::Str(k)) => Some(k.clone()),
                _ => None,
            };
            Ok(Span {
                trace: s("trace").ok_or("span without trace")?,
                span: s("span").ok_or("span without id")?,
                parent: s("parent"),
                svc: s("svc").ok_or("span without svc")?,
                stage: s("stage").ok_or("span without stage")?,
                start_us: n("start_us").ok_or("span without start_us")?,
                dur_us: n("dur_us").ok_or("span without dur_us")?,
                kind,
            })
        })
        .collect()
}

/// Reads one tier's span file.
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_spans(&text)
}

/// What the traced run says about each layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Gateway `queue_wait` span durations, µs, sorted.
    pub queue_wait_us: Vec<f64>,
    /// Harness round trip minus the front tier's `request` span, µs,
    /// sorted.
    pub wire_self_us: Vec<f64>,
    /// Router `hop` span minus the gateway `request` spans under it, µs,
    /// sorted.
    pub hop_self_us: Vec<f64>,
    /// Serve-tier `execute` time per job kind, µs.
    pub execute_us: HashMap<String, f64>,
}

impl Breakdown {
    /// The `pct`-th percentile of a sorted sample set by the percentile
    /// rule, 0 when there are too few samples or the
    /// layer is not on this workload's path.
    pub fn p(sorted: &[f64], pct: u32) -> f64 {
        percentile(sorted, pct).map_or(0.0, |p| p.value)
    }

    /// Select's share of serve-tier execute time.
    pub fn select_share(&self) -> f64 {
        let total: f64 = self.execute_us.values().sum();
        let select = self.execute_us.get("select").copied().unwrap_or(0.0);
        if total > 0.0 {
            select / total
        } else {
            0.0
        }
    }
}

/// Joins every span by trace id and parent and computes the breakdown.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: HashMap<(&str, &str), Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = &s.parent {
            children.entry((&s.trace, p)).or_default().push(s);
        }
    }
    let self_of = |s: &Span, child: &dyn Fn(&Span) -> bool| -> f64 {
        let covered: Vec<(u64, u64)> = children
            .get(&(s.trace.as_str(), s.span.as_str()))
            .into_iter()
            .flatten()
            .filter(|c| child(c))
            .map(|c| (c.start_us, c.start_us + c.dur_us))
            .collect();
        self_time(s.start_us, s.start_us + s.dur_us, &covered) as f64
    };
    let mut b = Breakdown::default();
    for s in spans {
        match (s.svc.as_str(), s.stage.as_str()) {
            ("gateway", "queue_wait") => b.queue_wait_us.push(s.dur_us as f64),
            (SERVICE, "request") => b.wire_self_us.push(self_of(s, &|c| c.stage == "request")),
            ("router", "hop") => b
                .hop_self_us
                .push(self_of(s, &|c| c.svc == "gateway" && c.stage == "request")),
            ("serve", "execute") => {
                *b.execute_us
                    .entry(s.kind.clone().unwrap_or_default())
                    .or_default() += s.dur_us as f64;
            }
            _ => {}
        }
    }
    for v in [
        &mut b.queue_wait_us,
        &mut b.wire_self_us,
        &mut b.hop_self_us,
    ] {
        v.sort_by(f64::total_cmp);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_obs::TraceId;

    fn span(
        trace: &str,
        id: &str,
        parent: Option<&str>,
        svc: &str,
        stage: &str,
        start: u64,
        dur: u64,
    ) -> Span {
        Span {
            trace: trace.into(),
            span: id.into(),
            parent: parent.map(Into::into),
            svc: svc.into(),
            stage: stage.into(),
            start_us: start,
            dur_us: dur,
            kind: None,
        }
    }

    #[test]
    fn spans_join_by_trace_and_parent() {
        let spans = vec![
            // Trace t1: harness 0..100, router request 10..90 with two
            // hops, each with a gateway request inside.
            span("t1", "a", None, SERVICE, "request", 0, 100),
            span("t1", "b", Some("a"), "router", "request", 10, 80),
            span("t1", "h1", Some("b"), "router", "hop", 15, 50),
            span("t1", "h2", Some("b"), "router", "hop", 20, 60),
            span("t1", "g1", Some("h1"), "gateway", "request", 20, 30),
            span("t1", "g2", Some("h2"), "gateway", "request", 30, 40),
            span("t1", "q", Some("g1"), "gateway", "queue_wait", 21, 4),
            // Same span ids in another trace never join with t1's.
            span("t2", "a", None, SERVICE, "request", 0, 10),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.wire_self_us, vec![10.0, 20.0]);
        assert_eq!(b.hop_self_us, vec![20.0, 20.0]);
        assert_eq!(b.queue_wait_us, vec![4.0]);
    }

    #[test]
    fn tracer_lines_parse_back() {
        let spans = Spans::new(9);
        let ctx = spans.context(3);
        let t0 = Instant::now();
        spans.request(ctx, 3, t0, t0 + std::time::Duration::from_micros(250));
        spans.layer("nn.generate", t0, t0);
        let parsed = spans.parsed().unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].trace, ctx.trace_id.to_string());
        assert_eq!(
            (parsed[0].stage.as_str(), parsed[0].dur_us),
            ("request", 250)
        );
        assert_eq!(parsed[1].stage, "nn.generate");
        assert_eq!(TraceId::parse(&parsed[0].trace), Some(ctx.trace_id));
    }
}
