//! Spans of the traced run: every request split into the public calls
//! that compose it, recorded from out here around calls into `pub`
//! functions, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names. A request's own span is [`REQUEST`]; every other span
/// names the public call it wraps and has the request as its parent.
pub const REQUEST: &str = "request";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by all spans of one request; the parent of
    /// every non-request span is the request span carrying it.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. At most [`SpanLog::KEEP`] spans are kept for
/// the file; per-name totals cover every span ever recorded.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    totals: Vec<(&'static str, u64, u64)>,
    next_request: u32,
}

impl SpanLog {
    pub const KEEP: usize = 40_000;

    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(Self::KEEP),
            totals: Vec::new(),
            next_request: 0,
        }
    }

    /// Opens the next request; returns its identifier and start.
    pub fn begin_request(&mut self) -> (u32, Instant) {
        let id = self.next_request;
        self.next_request += 1;
        (id, Instant::now())
    }

    pub fn end_request(&mut self, id: u32, started: Instant) -> u64 {
        self.record(REQUEST, id, started, Instant::now())
    }

    /// Runs `f` as a span of request `id`.
    pub fn call<T>(&mut self, name: &'static str, id: u32, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, id, t0, Instant::now());
        out
    }

    fn record(&mut self, name: &'static str, request: u32, t0: Instant, t1: Instant) -> u64 {
        let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
        let end_ns = t1.duration_since(self.origin).as_nanos() as u64;
        if self.spans.len() < Self::KEEP {
            self.spans.push(Span {
                name,
                request,
                start_ns,
                end_ns,
            });
        }
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += 1;
                t.2 += end_ns - start_ns;
            }
            None => self.totals.push((name, 1, end_ns - start_ns)),
        }
        end_ns - start_ns
    }

    /// Mean raw duration of the spans called `name`, in nanoseconds
    /// (0 when none was recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or(0.0, |t| t.2 as f64 / t.1 as f64)
    }

    pub fn total_spans(&self) -> u64 {
        self.totals.iter().map(|t| t.1).sum()
    }

    /// The kept spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.name == REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            write!(
                out,
                "\n  {{\"name\": \"{}\", \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, parent, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_request_and_totals_cover_everything() {
        let mut log = SpanLog::new();
        let (id, t0) = log.begin_request();
        assert_eq!(log.call("txn.begin", id, || 7), 7);
        log.call("txn.read", id, || ());
        log.end_request(id, t0);
        let (id2, t1) = log.begin_request();
        log.call("txn.begin", id2, || ());
        log.end_request(id2, t1);
        assert_eq!(log.total_spans(), 5);
        assert_eq!((id, id2), (0, 1));
        let req = log.spans.iter().find(|s| s.name == REQUEST).unwrap();
        let child = log.spans.iter().find(|s| s.name == "txn.read").unwrap();
        assert!(req.start_ns <= child.start_ns && child.end_ns <= req.end_ns);
        assert!(log.mean_ns("txn.begin") >= 0.0);
        assert_eq!(log.mean_ns("absent"), 0.0);
        let json = log.to_json();
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
    }
}
