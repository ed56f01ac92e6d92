//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! simulator crate; nothing inside the simulator is instrumented. A span
//! carries a name, the layer (crate) it times, start and end, its parent
//! and a run id. Spans stay in memory until the run ends, then export as
//! Chrome trace-event JSON (loadable in Perfetto) and fold into a per-layer
//! self-time table.

use std::collections::BTreeMap;
use std::time::Instant;

use imo_util::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u32) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), run, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name` that times `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the time its direct
    /// children cover (children are nested and sequential, so their
    /// durations add up without overlap).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_default();
            e.0 += s.dur_ns().saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span.
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = vec![("span", Json::from(i)), ("run", Json::from(u64::from(s.run)))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::from(p)));
            }
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("cat", Json::from(s.layer)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("args", Json::obj(args)),
            ])
        });
        Json::obj([("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::from("ms"))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 7);
        t.span("outer", "a", |t| {
            t.span("inner", "b", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, 7);
        let st = t.self_time_by_layer();
        let outer = st["outer"].0;
        let inner = st["inner"].0;
        assert!(inner >= 5_000_000);
        assert_eq!(outer + inner, spans[0].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        assert_eq!(t.span("x", "y", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
