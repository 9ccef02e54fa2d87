//! Structured trace spans and the fixed-size span journal.
//!
//! A request carries a `trace_id` (a nonzero `u64`, generated at the
//! client and propagated on the wire; `0` means "untraced"). Each
//! pipeline stage the request crosses — server receive, broker call,
//! broker admission, fairness lane, flight, solve — records one
//! [`SpanRecord`] into a shared [`SpanJournal`], a bounded ring buffer
//! that keeps the most recent spans and can be dumped as JSON lines or
//! snapshotted for the op-4 introspection response.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One completed span: a stage a traced request passed through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request trace id; `0` marks an untraced/internal span.
    pub trace_id: u64,
    /// Stage name, e.g. `server.recv` or `broker.solve`.
    pub stage: String,
    /// Stage entry time, clock-relative monotonic nanoseconds.
    pub start_ns: u64,
    /// Stage exit time, clock-relative monotonic nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds (zero if the clock is a no-op or
    /// the record is malformed).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded ring buffer of recent spans.
///
/// Recording is append-at-tail; once `capacity` spans are held the
/// oldest is overwritten. The ring is **per-slot locked**: an atomic
/// cursor hands each recorder its own slot, so concurrent recorders
/// contend only in the (rare) case of lapping the same slot — one
/// global lock here would serialize every traced request in the
/// serving layer. Snapshots walk the slots oldest-first; under
/// concurrent recording they are a best-effort view (observability
/// data, not an accounting ledger).
#[derive(Debug)]
pub struct SpanJournal {
    capacity: usize,
    /// Total spans ever recorded; `% capacity` picks the slot.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<SpanRecord>>>,
}

impl SpanJournal {
    /// A journal keeping at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            next: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a span, evicting the oldest if full.
    pub fn record(&self, span: SpanRecord) {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        *self.slots[n % self.capacity]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(span);
    }

    /// Convenience: build and append a span in one call.
    pub fn record_span(&self, trace_id: u64, stage: &str, start_ns: u64, end_ns: u64) {
        self.record(SpanRecord {
            trace_id,
            stage: stage.to_owned(),
            start_ns,
            end_ns,
        });
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.capacity)
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the retained spans, oldest first. Slots whose write is
    /// still in flight are skipped rather than waited on.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let n = self.next.load(Ordering::Acquire);
        let (start, count) = if n <= self.capacity {
            (0, n)
        } else {
            (n % self.capacity, self.capacity)
        };
        (0..count)
            .filter_map(|i| {
                self.slots[(start + i) % self.capacity]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone()
            })
            .collect()
    }

    /// Drop all retained spans.
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        self.next.store(0, Ordering::Release);
    }

    /// Dump the journal as JSON lines (one span object per line,
    /// oldest first).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.snapshot() {
            out.push_str(&format!(
                "{{\"trace_id\":{},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                span.trace_id,
                json_escape(&span.stage),
                span.start_ns,
                span.end_ns
            ));
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, stage: &str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            stage: stage.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn journal_keeps_most_recent_spans() {
        let j = SpanJournal::new(3);
        for i in 0..5u64 {
            j.record(span(i, "s", i, i + 1));
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<u64> = snap.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest spans evicted first");
    }

    #[test]
    fn capacity_is_at_least_one() {
        let j = SpanJournal::new(0);
        assert_eq!(j.capacity(), 1);
        j.record_span(7, "only", 0, 1);
        j.record_span(8, "only", 1, 2);
        assert_eq!(j.len(), 1);
        assert_eq!(j.snapshot()[0].trace_id, 8);
    }

    #[test]
    fn jsonl_dump_escapes_and_orders() {
        let j = SpanJournal::new(8);
        j.record_span(1, "server.recv", 10, 20);
        j.record_span(1, "odd\"stage\\\n", 20, 30);
        let dump = j.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"trace_id\":1,\"stage\":\"server.recv\",\"start_ns\":10,\"end_ns\":20}"
        );
        assert_eq!(
            lines[1],
            "{\"trace_id\":1,\"stage\":\"odd\\\"stage\\\\\\n\",\"start_ns\":20,\"end_ns\":30}"
        );
    }

    #[test]
    fn duration_saturates() {
        assert_eq!(span(1, "s", 10, 25).duration_ns(), 15);
        assert_eq!(span(1, "s", 25, 10).duration_ns(), 0);
    }

    #[test]
    fn clear_empties_journal() {
        let j = SpanJournal::new(4);
        j.record_span(1, "a", 0, 1);
        assert!(!j.is_empty());
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.to_jsonl(), "");
    }
}
