//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `name, start, end, parent, op_id`. Spans nest on one
//! thread (the traced replays and the traced lifecycle run on one), so
//! a span's self time is its duration minus the sum of its children's.
//! With tracing off, [`Tracer::span`] just calls the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

/// Self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with an operation id.
    pub fn set_op(&self, op_id: u64) {
        self.op.set(op_id);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op_id: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Number of spans recorded so far (a mark for [`Self::since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Spans recorded at or after `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }

    /// Self time per span name over spans at or after `mark`.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in &spans[mark..] {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(mark) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(covered[i]);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{}",
                serde_json::json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "op_id": s.op_id,
                })
            )?;
        }
        out.flush()
    }
}
