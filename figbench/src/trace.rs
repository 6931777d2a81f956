//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into the
//! library layers (nothing inside the library is instrumented). Each span
//! carries a trace id (one per operating point, or a phase name for
//! figure-level work), the layer it times, and its parent, so a layer's self
//! time is its duration minus the part its children cover. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them out when the run ends.

use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: String,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span (its index in the recorder).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(
        &mut self,
        id: impl Into<String>,
        layer: &'static str,
        parent: Option<Open>,
    ) -> Open {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id: id.into(),
            layer,
            parent: parent.map(|p| p.0),
            start: now,
            end: f64::NAN,
        });
        Open(self.spans.len() - 1)
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let s = &mut self.spans[span.0];
        s.end = now;
        s.duration()
    }

    /// Times `work` as a span of `layer` under `parent`.
    pub fn time<T>(
        &mut self,
        id: impl Into<String>,
        layer: &'static str,
        parent: Option<Open>,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(id, layer, parent);
        let out = work();
        let secs = self.close(span);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children of one parent never overlap here, since
    /// the recorder is single-threaded, so the union is a plain sum).
    pub fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.duration() - c).max(0.0))
            .collect()
    }

    /// Sum of the durations of every span recorded under `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration)
            .sum()
    }

    /// Writes `header` (one JSON object) and then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_times = self.self_times();
        let mut out = String::with_capacity(128 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, (span, self_s)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\": {i}, \"id\": {}, \"layer\": \"{}\", \"parent\": {parent}, \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}\n",
                json_string(&span.id),
                span.layer,
                span.start,
                span.end,
                self_s
            ));
        }
        std::fs::write(path, out)
    }
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("r", "root", None);
        let child = t.open("r", "child", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close(child);
        t.close(root);
        let selfs = t.self_times();
        assert!(selfs[1] >= 0.004);
        assert!(selfs[0] < t.spans()[0].duration());
        assert!((selfs[0] + selfs[1] - t.spans()[0].duration()).abs() < 1e-9);
    }

    #[test]
    fn json_strings_escape_quotes() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
