//! In-memory spans recorded by the traced runs, around calls into each
//! layer's public API. Each span records its name, start, end, parent
//! span and request id; spans are kept in memory and written out as
//! JSONL when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover (the union of the children, so children
//! running in parallel are not counted twice).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Ends `open` now; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = Instant::now();
        self.push(open, end)
    }

    /// Ends `open` at `end` (for spans whose end was taken earlier).
    pub fn push(&self, open: Open, end: Instant) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: nanos(open.start - self.epoch),
            end_ns: nanos(end - self.epoch),
        };
        let dur = span.dur_ns();
        self.spans.lock().expect("span log lock").push(span);
        dur
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Writes every span as one JSON line each.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self times and roll-ups over a finished span log.
pub struct Profile {
    spans: Vec<Span>,
    self_ns: BTreeMap<u64, u64>,
}

impl Profile {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .map(|s| {
                let covered = children
                    .get_mut(&s.id)
                    .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
                (s.id, s.dur_ns() - covered)
            })
            .collect();
        Profile { spans, self_ns }
    }

    /// Total self time of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_ns[&s.id]).sum::<u64>() as f64 / 1e6
    }

    /// Self time of each span named `name`, in ms.
    pub fn self_each_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| self.self_ns[&s.id] as f64 / 1e6)
            .collect()
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Share of the root spans' (`root`) wall time that child spans
    /// cover: 1 − Σ root self time / Σ root duration.
    pub fn accounted_frac(&self, root: &str) -> f64 {
        let total = self.total_ms(root);
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.self_ms(root) / total
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..50 and a
        // disjoint child 80..120 clipped at the root's end: covered
        // = 40 + 20 = 60, self = 40.
        let profile = Profile::new(vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 80, 120),
        ]);
        assert_eq!(profile.self_ns[&0], 40);
        assert_eq!(profile.self_ns[&1], 30);
        assert!((profile.accounted_frac("root") - 0.6).abs() < 1e-12);
    }
}
