//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records its name, start, end, parent span and cell. Spans stay
//! in memory until the run ends; [`Spans::to_json`] writes them out once.
//! A disabled recorder does nothing, so the untraced run pays for no
//! bookkeeping.

use std::time::Instant;

/// One closed or open span. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `workloads.trace`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell or head the call worked on (for a `round` span, the
    /// round's index).
    pub cell: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records when `on` and does nothing otherwise.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `cell`.
    pub fn time<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that encloses whatever is recorded until
    /// [`Spans::exit`]; returns its id (or `None` when disabled).
    pub fn enter(&mut self, name: &'static str, cell: u32) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Spans::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.close(id);
        }
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened after the recorder was at `depth`, for
    /// when a call failed or panicked inside them.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open is longer than depth");
            self.close(id);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds in spans named `name` recorded at or after index
    /// `from`.
    pub fn total_s(&self, name: &str, from: usize) -> f64 {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cell\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.cell,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_recorder_records_nothing() {
        let mut spans = Spans::new(true);
        let round = spans.enter("round", 0);
        let x = spans.time("inner", 3, || spans_free_work(10));
        spans.exit(round);
        assert_eq!(x, 45);
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[1].parent, Some(0));
        assert_eq!(spans.spans()[1].cell, 3);
        assert!(spans.spans()[0].end_ns >= spans.spans()[1].end_ns);
        assert!(spans.to_json().contains("\"name\": \"inner\""));

        let mut off = Spans::new(false);
        let id = off.enter("round", 0);
        off.time("inner", 0, || ());
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    fn spans_free_work(n: u64) -> u64 {
        (0..n).sum()
    }
}
