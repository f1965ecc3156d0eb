//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and end relative to the tracer's epoch,
//! and the span that was open when it started (its parent). Spans stay
//! in memory while the run is measured and are written out once it
//! ends. A span's *self time* is its duration minus the time its
//! direct children cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one; close it with
    /// [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.epoch.elapsed();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Summed self time of every span of `layer`.
    pub fn layer_self_time(&self, layer: &str) -> Duration {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, t)| t)
            .sum()
    }

    /// Durations of every span named exactly `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Spans as a JSON array, one object per line: name, parent,
    /// start/end and self time in nanoseconds.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("[\n");
        for (i, (span, self_time)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                self_time.as_nanos()
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tracer = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("week", None, 0, 100),
                span("plan", Some(0), 10, 50),
                span("plan.inner", Some(1), 20, 30),
                span("govern", Some(0), 60, 70),
            ],
            open: Vec::new(),
        };
        let own: Vec<u128> = tracer.self_times().iter().map(|d| d.as_millis()).collect();
        assert_eq!(own, vec![50, 30, 10, 10]);
        assert_eq!(tracer.layer_self_time("plan"), Duration::from_millis(40));
        assert_eq!(tracer.durations("govern"), vec![Duration::from_millis(10)]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("week");
        tracer.time("plan", || ());
        tracer.exit(root);
        assert_eq!(tracer.spans()[1].parent, Some(root));
        assert!(tracer
            .to_json()
            .contains("\"name\": \"plan\", \"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let a = tracer.enter("a");
        let _b = tracer.enter("b");
        tracer.exit(a);
    }
}
