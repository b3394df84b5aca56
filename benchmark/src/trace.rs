//! In-memory spans for the traced pass, written out as JSON at exit.
//!
//! Spans are recorded here, in the benchmark's own files, around the calls
//! into each layer's public functions; spans *inside* the replicas are a
//! later change (ROADMAP item 3). Every span carries the id of the span that
//! was open when it started, so a layer's self time is its duration minus
//! its children's.

use crate::generator::OpSpan;
use crate::json;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process — the one clock every
/// span, request timestamp and counter sample is read from.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Calls into the layer this span covers (ns-scale functions are timed
    /// in runs, so that reading the clock does not dominate).
    calls: u64,
}

/// The spans, request spans and counter samples of one traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: Vec<OpSpan>,
    samples: Vec<String>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Runs `f` inside a span named `name`; spans started by `f` become its
    /// children.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = now_ns();
        result
    }

    /// Times `calls` back-to-back calls of `f` as one leaf span and returns
    /// the seconds *per call*.
    pub fn timed<T>(&mut self, name: &str, calls: u64, mut f: impl FnMut() -> T) -> f64 {
        let calls = calls.max(1);
        let start_ns = now_ns();
        for _ in 0..calls {
            std::hint::black_box(f());
        }
        let end_ns = now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            calls,
        });
        (end_ns - start_ns) as f64 / 1e9 / calls as f64
    }

    /// Times one call of `f` as a leaf span; returns its result and seconds.
    pub fn timed_once<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let mut f = Some(f);
        let mut result = None;
        let seconds = self.timed(name, 1, || result = f.take().map(|f| f()));
        (result.expect("timed runs its closure once"), seconds)
    }

    /// [`Trace::median_timed`] for a fallible call: the first error ends it.
    pub fn median_timed_ok<T, E>(
        &mut self,
        name: &str,
        runs: usize,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> Result<f64, E> {
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs.max(1) {
            let (result, seconds) = self.timed_once(name, &mut f);
            result?;
            samples.push(seconds);
        }
        Ok(crate::stats::median(&samples))
    }

    /// Median seconds per call over `runs` leaf spans of `calls` calls each.
    pub fn median_timed<T>(
        &mut self,
        name: &str,
        runs: usize,
        calls: u64,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let samples: Vec<f64> = (0..runs.max(1))
            .map(|_| self.timed(name, calls, &mut f))
            .collect();
        crate::stats::median(&samples)
    }

    /// Keeps the request spans of a traced generator run.
    pub fn add_requests(&mut self, spans: &[OpSpan]) {
        self.requests.extend_from_slice(spans);
    }

    /// Keeps one counter sample (an encoded JSON object).
    pub fn add_sample(&mut self, sample: String) {
        self.samples.push(sample);
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            json::object([
                ("id", json::num(id as f64)),
                (
                    "parent",
                    s.parent.map_or("null".to_string(), |p| json::num(p as f64)),
                ),
                ("name", json::string(&s.name)),
                ("start_ns", json::num(s.start_ns as f64)),
                ("end_ns", json::num(s.end_ns as f64)),
                ("calls", json::num(s.calls as f64)),
            ])
        });
        let requests = self.requests.iter().map(|r| {
            json::object([
                ("client", json::num(r.client as f64)),
                ("seq", json::num(r.seq as f64)),
                ("due_ns", json::num(r.due_ns as f64)),
                ("sent_ns", json::num(r.sent_ns as f64)),
                ("first_reply_ns", json::num(r.first_reply_ns as f64)),
                ("quorum_ns", json::num(r.quorum_ns as f64)),
            ])
        });
        json::object([
            ("workload", json::string(workload)),
            ("seed", json::num(seed as f64)),
            ("spans", json::array(spans)),
            ("requests", json::array(requests)),
            ("samples", json::array(self.samples.iter().cloned())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent() {
        let mut trace = Trace::new();
        trace.scope("outer", |t| {
            t.timed("inner", 3, || 1 + 1);
        });
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].calls, 3);
        assert!(trace.spans[0].end_ns >= trace.spans[1].end_ns);
        assert!(trace.to_json("w", 1).contains("\"inner\""));
    }
}
