//! Spans recorded around the benchmark's calls into each layer's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span has a layer (the module name, e.g. `core.transform`), the
//! function it wraps, the operation it belongs to (`req`), its parent and
//! its start and end. A layer's self time is its spans' durations minus
//! the part covered by their child spans. Counts measured at the same
//! boundaries (candidates enumerated, fuel burnt, ...) are kept beside
//! the spans as named samples.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of an open span (`0` when tracing is off).
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct SpanRec {
    id: SpanId,
    parent: SpanId,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span and sample store. When disabled every call is a no-op
/// and nothing is allocated.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer recording spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off, keeping what was recorded.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let now = self.now_ns();
        self.spans.push(SpanRec {
            id,
            parent,
            req,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records one sample of a named count or measurement.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(key).or_default().push(value);
        }
    }

    /// Samples recorded under `key`.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Durations in milliseconds of every span `layer::name`.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("frame", "f", 0, 0, || 3);
        assert_eq!(v, 3);
        t.sample("k", 1.0);
        assert!(t.durations_ms("frame", "f").is_empty());
        assert!(t.samples("k").is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench", "op", 1, 0);
        t.span("interp", "run", 1, root, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let own = t.self_time_ms();
        let root_ms = t.durations_ms("bench", "op")[0];
        let child_ms = t.durations_ms("interp", "run")[0];
        assert!(child_ms >= 5.0);
        assert!((own["bench"] - (root_ms - child_ms)).abs() < 1e-6);
    }
}
