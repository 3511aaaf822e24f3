//! Host-time spans recorded by the benchmark around its calls into
//! each crate. Each span name keeps its durations in memory, in
//! recording order; a disabled tracer only calls through.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    spans: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { enabled: false, spans: BTreeMap::new() }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { enabled: true, spans: BTreeMap::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.spans.entry(name.to_string()).or_default().push(t.elapsed().as_nanos() as f64);
        r
    }

    /// Every recorded span's durations in ns, by name.
    pub fn spans(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.spans
    }

    /// The durations in ns of the spans named `name`.
    pub fn durs_ns(&self, name: &str) -> &[f64] {
        self.spans().get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_grouped_by_name() {
        let mut tr = Tracer::on();
        assert_eq!(tr.span("a", || 1) + tr.span("a", || 2) + tr.span("b", || 3), 6);
        assert_eq!(tr.durs_ns("a").len(), 2);
        assert_eq!(tr.durs_ns("b").len(), 1);
        assert!(tr.durs_ns("c").is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
