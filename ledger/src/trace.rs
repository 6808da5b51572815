//! Spans recorded from outside the product: one around each call into a
//! crate, kept in memory and written out when the run ends.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while `enabled`; otherwise `time` only runs the closure,
/// which is how the same replay code yields the untraced comparison run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            request_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to a new request.
    pub fn next_request(&mut self) {
        self.request_id += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, a child of whichever span is
    /// open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Lay stage durations that a call *returned* (it timed them itself)
    /// end to end as children of the open span, from its start.
    pub fn stages(&mut self, stages: &[(&'static str, Duration)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for &(name, took) in stages {
            let end_ns = at + took.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns,
                parent: Some(parent),
                request_id: self.request_id,
            });
            at = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in ms of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("request_id", Json::from(s.request_id)),
                        ("self_ns", Json::from(own)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's duration minus the part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 1000, None),
            span("prove", 100, 900, Some(0)),
            span("commit", 100, 400, Some(1)),
            span("open", 400, 850, Some(1)),
            span("verify", 900, 990, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![110, 50, 300, 450, 90]);
        // Nothing is lost: self times add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new(true);
        t.next_request();
        let answer = t.time("outer", |t| {
            t.time("inner", |_| ());
            t.stages(&[
                ("a", Duration::from_nanos(5)),
                ("b", Duration::from_nanos(7)),
            ]);
            42
        });
        assert_eq!(answer, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("a", Some(0)),
                ("b", Some(0))
            ]
        );
        let (a, b) = (&t.spans()[2], &t.spans()[3]);
        assert_eq!((a.duration_ns(), b.duration_ns()), (5, 7));
        assert_eq!(a.start_ns, t.spans()[0].start_ns);
        assert_eq!(b.start_ns, a.end_ns);
        assert!(t.spans().iter().all(|s| s.request_id == 1));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("outer", |t| t.time("inner", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
