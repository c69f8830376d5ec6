//! In-memory spans, written as JSON Lines when the run ends.
//!
//! Every span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), an optional parent and an optional request id
//! `(tenant, stream, seq)`.  Spans beyond the kept-span cap are counted
//! only.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the JSONL file; later spans are counted only.
pub const KEPT_SPANS: usize = 50_000;

/// A request id: tenant, stream, and the stream's request sequence.
pub type RequestId = (u16, u32, u64);

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `core.enqueue`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
    /// Index of the enclosing span among the kept spans.
    pub parent: Option<usize>,
    /// The request the span served, if any.
    pub id: Option<RequestId>,
}

impl Span {
    /// A root span.
    pub fn new(name: &'static str, start: u64, end: u64, id: Option<RequestId>) -> Span {
        Span {
            name,
            start,
            end,
            parent: None,
            id,
        }
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Makes room for `n` more kept spans, so recording them allocates
    /// nothing (heap figures taken meanwhile stay clean).
    pub fn reserve(&mut self, n: usize) {
        let room = KEPT_SPANS.saturating_sub(self.spans.len());
        self.spans.reserve(n.min(room));
    }

    /// The tracer's epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Records `span`; returns its index when it was kept.
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(span);
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        }
    }

    /// Records `span` as a child of `parent`.
    pub fn push_child(&mut self, parent: Option<usize>, span: Span) -> Option<usize> {
        self.push(Span { parent, ..span })
    }

    /// Spans recorded beyond [`KEPT_SPANS`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each kept span: its duration minus its kept
    /// children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Writes the kept spans as JSON Lines to `path`, creating its
    /// directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let _ = write!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}",
                s.name, s.start, s.end
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match s.id {
                Some((t, st, seq)) => {
                    let _ = write!(out, ",\"tenant\":{t},\"stream\":{st},\"seq\":{seq}}}");
                }
                None => out.push_str(",\"tenant\":null,\"stream\":null,\"seq\":null}"),
            }
            out.push('\n');
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Nanoseconds elapsed since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.push(Span::new("gen.request", 100, 400, Some((1, 2, 3))));
        t.push_child(root, Span::new("core.enqueue", 100, 150, Some((1, 2, 3))));
        t.push_child(root, Span::new("core.pump", 150, 380, Some((1, 2, 3))));
        assert_eq!(t.self_times(), vec![20, 50, 230]);
    }
}
