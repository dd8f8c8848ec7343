//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! simulator's public API; nothing inside the library is instrumented.
//! Each span has a name, the layer it belongs to, the run it serves (spans
//! of one simulation run share that identifier), its parent, and start and
//! end offsets from the recorder's creation. Spans stay in memory and are
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` when tracing was off at `enter`.
pub type SpanId = Option<usize>;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing only between spans");
        self.enabled = enabled;
    }

    /// Tag the spans opened from now on as belonging to run `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds each layer spent in its own spans, excluding time covered
    /// by child spans. Children of one parent never overlap: the benchmark
    /// calls the simulator from a single thread.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The span file: provenance, per-layer self time, then one object per
    /// span in the order the spans were opened.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n\"provenance\": ");
        out.push_str(provenance);
        out.push_str(",\n\"self_seconds\": {");
        for (i, (layer, secs)) in self.self_seconds().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{layer}\": {secs}").expect("write to String");
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.layer, s.run, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("outer", "harness");
        t.exit(id);
        assert!(t.spans.is_empty());

        t.set_enabled(true);
        let outer = t.enter("outer", "harness");
        t.scope("inner", "engine", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let self_s = t.self_seconds();
        assert!(self_s["engine"] >= 0.005);
        assert!(self_s["harness"] < self_s["engine"]);
    }
}
