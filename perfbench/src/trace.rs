//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory, and written out once at exit. A span's layer is the
//! part of its name before the first `.` (`ctt.replay` → `ctt`). Spans of
//! the `e2e` layer stand for one unit of end-to-end work (a pass, a
//! request), so their self time is the part of that work no layer span
//! accounts for: the unattributed remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Batch index or request id the span belongs to.
    pub id: u64,
}

/// Span store; a disabled recorder records nothing, so the untraced run
/// pays one branch per call site.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (for children), or
    /// [`ROOT`] when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, id });
        u32::try_from(self.spans.len() - 1).expect("fewer than 4G spans")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

/// Self time per layer in seconds.
///
/// A span's self time is its duration minus the part of its interval its
/// children cover; children of one parent are assumed not to overlap,
/// which holds for spans recorded from one thread in sequence.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let own = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(c);
        *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// The layer a span name belongs to.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_e2e_keeps_the_remainder() {
        let mut r = Recorder::new(true);
        let root = r.record("e2e.pass", 0, 100, ROOT, 0);
        let exec = r.record("ctt.execute", 10, 60, root, 1);
        r.record("ctt.replay", 40, 55, exec, 1);
        r.record("ctt.finish", 60, 90, root, 0);
        let t = self_times(r.spans());
        assert_eq!(t["e2e"], 20e-9, "root: 100 - 50 - 30");
        assert_eq!(t["ctt"], (35.0 + 15.0 + 30.0) * 1e-9);
        let total: f64 = t.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "self times partition the roots");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.record("x", 0, 1, ROOT, 0), ROOT);
        assert!(r.spans().is_empty());
        assert!(self_times(r.spans()).is_empty());
    }

    #[test]
    fn json_lines_name_the_parent() {
        let mut r = Recorder::new(true);
        let p = r.record("e2e.pass", 0, 10, ROOT, 7);
        r.record("sim.run", 1, 2, p, 7);
        let text = r.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"name\":\"sim.run\""));
    }
}
