//! Benchmark-side spans around every public call into a layer.
//!
//! A span records its name, start, end, parent span and the entity or
//! request it served. Spans stay in memory while a pass runs; the pass
//! reduces them to per-layer self times at the end and may write them out.
//! Spans nest strictly (one thread records them), so a span's self time is
//! its duration minus the durations of its direct children.
//!
//! A disabled tracer records nothing: `enter` and `exit` are one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Entity index or request id the span served.
    pub id: u64,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let idx = spans.len() as u32;
        spans.push(Span {
            name,
            id,
            parent: stack.last().copied().unwrap_or(NONE),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        stack.push(idx);
        Open(idx)
    }

    pub fn exit(&self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now_ns();
        self.spans.borrow_mut()[open.0 as usize].end_ns = end;
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(open.0), "spans must nest");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// What one layer's spans add up to.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Inclusive duration of every span.
    pub durations: Samples,
}

impl Layer {
    /// Adds another set of spans of the same layer.
    pub fn merge(&mut self, other: &Layer) {
        self.self_ns += other.self_ns;
        self.durations.extend(&other.durations);
    }
}

/// Per-name self times of a closed span list.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let layer = out.entry(s.name).or_default();
        layer.self_ns += dur.saturating_sub(children);
        layer.durations.push_ms(dur as f64 / 1e6);
    }
    out
}

/// Writes `spans` as tab-separated `name id parent start_ns end_ns` rows.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.id, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "outer",
                id: 0,
                parent: NONE,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "inner",
                id: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "inner",
                id: 0,
                parent: 0,
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let l = layers(&spans);
        assert_eq!(l["outer"].self_ns, 60);
        assert_eq!(l["inner"].self_ns, 40);
        assert_eq!(l["inner"].durations.len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", 1, || ());
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        t.span("x", 1, || t.span("y", 1, || ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
    }
}
