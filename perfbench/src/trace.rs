//! In-memory spans around the calls into each layer.
//!
//! A span records its name, start and end (nanoseconds since the tracer
//! was created), the span that was open when it started, and the
//! operation it belongs to. Spans are kept in memory and written out as
//! JSON lines when the run ends; `run.py` computes self times from them.
//! A disabled tracer runs the closure and records nothing. Spans opened
//! before the first `set_op` belong to the set-up, operation
//! [`SETUP_OP`].

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// The operation id of set-up spans.
const SETUP_OP: u64 = u64::MAX;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(SETUP_OP),
        }
    }

    /// Sets the operation id that spans opened from now on belong to.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.into(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                spllift_json::escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        out.flush()
    }
}
