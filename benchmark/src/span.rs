//! Driver-side span ledger.
//!
//! A span is `{name, start_ns, end_ns, parent, event}`: one timed call
//! from the benchmark into a layer of the program, the span that was
//! open when it started, and the index of the driver event it belongs
//! to. Spans stay in memory for the whole run and are written out as
//! JSON lines once it has ended. A span's *self time* is its duration
//! minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// `parent` of a top-level span, `event` of a span outside the event loop.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub event: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        let id = match self.names.iter().position(|&n| n == name) {
            Some(id) => id,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        u16::try_from(id).expect("span names are a small fixed set")
    }

    /// Opens a span that started at `start`; spans recorded until the
    /// matching [`exit`](Self::exit) become its children.
    pub fn enter(&mut self, name: &'static str, event: u32, start: Instant) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let span = Span {
            name: self.name_id(name),
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            event,
        };
        self.spans.push(span);
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`. `name`
    /// replaces the one given at `enter` (a tick is only classified
    /// once it has run).
    pub fn exit(&mut self, index: u32, name: &'static str, end: Instant) {
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost-first"
        );
        let (name, end_ns) = (self.name_id(name), self.ns(end));
        let span = &mut self.spans[index as usize];
        span.name = name;
        span.end_ns = end_ns;
    }

    /// Records a finished call as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, event: u32, start: Instant, end: Instant) {
        let index = self.enter(name, event, start);
        self.exit(index, name, end);
    }

    /// The event index of the innermost open span ([`NONE`] outside one).
    pub fn current_event(&self) -> u32 {
        self.open
            .last()
            .map_or(NONE, |&i| self.spans[i as usize].event)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn name_of(&self, span: &Span) -> &'static str {
        self.names[span.name as usize]
    }

    /// Self time of every span, nanoseconds: duration minus the summed
    /// durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NONE {
                let slot = &mut own[span.parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Summed duration of the spans no other span contains, leaving
    /// out those whose name starts with `outside`.
    pub fn top_level_ns(&self, outside: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE && !self.name_of(s).starts_with(outside))
            .map(Span::duration_ns)
            .sum()
    }

    /// `(calls, total ns, self ns)` of every span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let row = out.entry(self.name_of(span)).or_default();
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += own_ns;
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        for span in &self.spans {
            let parent = if span.parent == NONE {
                -1
            } else {
                i64::from(span.parent)
            };
            let event = if span.event == NONE {
                -1
            } else {
                i64::from(span.event)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"event\":{}}}",
                self.name_of(span),
                span.start_ns,
                span.end_ns,
                parent,
                event
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let at = |us: u64| t.origin + Duration::from_micros(us);
        let (t0, t10, t20, t30, t50, t90, t100, t140) = (
            at(0),
            at(10),
            at(20),
            at(30),
            at(50),
            at(90),
            at(100),
            at(140),
        );
        // tick [0,100) > sink [10,50) > flush [20,30); tick > sink [90,100)
        let tick = t.enter("tick", 7, t0);
        let sink = t.enter("sink", 7, t10);
        t.leaf("flush", 7, t20, t30);
        t.exit(sink, "sink", t50);
        t.leaf("sink", 7, t90, t100);
        t.exit(tick, "tick_close", t100);
        // A second top-level span.
        t.leaf("arrive", 8, t100, t140);

        let own = t.self_times_ns();
        assert_eq!(own, vec![50_000, 30_000, 10_000, 10_000, 40_000]);
        assert_eq!(t.top_level_ns("replay."), 140_000);
        assert_eq!(t.top_level_ns("arr"), 100_000);
        let summary = t.summary();
        assert_eq!(summary["sink"], (2, 50_000, 40_000));
        assert_eq!(summary["tick_close"], (1, 100_000, 50_000));
        assert!(!summary.contains_key("tick"), "exit renames the span");
        // Self times of a tree add up to its root's duration.
        assert_eq!(own[..4].iter().sum::<u64>(), 100_000);
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[4].parent, NONE);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new();
        let start = t.origin;
        let outer = t.enter("run", NONE, start);
        t.leaf("arrive", 0, start, start + Duration::from_nanos(5));
        t.exit(outer, "run", start + Duration::from_nanos(9));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"name\":\"run\",\"start_ns\":0,\"end_ns\":9,\"parent\":-1,\"event\":-1}",
                "{\"name\":\"arrive\",\"start_ns\":0,\"end_ns\":5,\"parent\":0,\"event\":0}",
            ]
        );
    }
}
