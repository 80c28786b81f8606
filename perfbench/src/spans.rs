//! In-memory spans for the traced run.
//!
//! A span is one timed call the benchmark makes into a crate's public API
//! (`Simulator::run`, `EvalService::handle_tagged`, `Client::recv_tagged`,
//! ...). Spans carry a parent, so nested calls report *self* time, and a
//! request id shared by every span of one request. They stay in memory
//! until the run ends and are then written out as JSON lines.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u32,
    parent: Option<u32>,
    pub request: u64,
    name: &'static str,
    start: Instant,
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn open(&self, name: &'static str, parent: Option<&Open>, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            request,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open) {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        request: u64,
        f: impl FnOnce(&Open) -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let out = f(&open);
        self.close(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Total and self time per span name (self = own time minus the time
    /// of direct children).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_ns += total;
            layer.self_ns += total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut text = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
