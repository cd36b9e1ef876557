//! In-memory spans, written as JSON lines when the run ends.
//!
//! Per request: `request -> connect | send | ttfb | body
//! [-> redirect_hop -> connect | send | ttfb | body]`. Per replayed
//! request: `replay -> http.parse | core.oracle | core.decide |
//! file_cache.get | http.serialize | telemetry.record`.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Shared by every span of one request.
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across threads because the
/// owner's index sits in the top bits.
pub struct Tracer {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so spans line up.
    pub fn new(owner: usize, epoch: Instant) -> Tracer {
        Tracer { epoch, next: (owner as u64 + 1) << 40, spans: Vec::new() }
    }

    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        parent: u64,
        request_id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push_with_id(id, parent, request_id, name, start, end);
        id
    }

    /// Record a span whose id was reserved earlier with [`Tracer::next_id`]
    /// (a parent that closes after its children).
    pub fn push_with_id(
        &mut self,
        id: u64,
        parent: u64,
        request_id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request_id, name, start_ns, end_ns });
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request_id: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "connect", 10, 30),
            span(3, 1, "send", 20, 50), // overlaps connect: union is 10..50
            span(4, 1, "body", 60, 120), // clipped to the parent's end
            span(5, 2, "inner", 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 40);
        assert_eq!(selfs[&2], 18);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 2);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("body", 60));
    }

    #[test]
    fn tracer_ids_are_distinct_across_owners() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Tracer::new(0, epoch), Tracer::new(1, epoch));
        let now = Instant::now();
        let root = a.next_id();
        let child = a.push(root, root, "connect", epoch, now);
        a.push_with_id(root, 0, root, "request", epoch, now);
        assert_ne!(root, child);
        assert_ne!(b.next_id(), root);
        assert_eq!(a.spans[1].id, root);
        assert_eq!(a.spans[0].parent, root);
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);
    }
}
