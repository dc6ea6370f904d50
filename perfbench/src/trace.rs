//! In-memory spans taken around the benchmark's own calls into each crate
//! (no tracing inside the program). Written out as JSON lines when the run
//! ends.

use std::io::Write;
use std::time::Instant;

/// Per-burst spans (`inject`, `drain`) are kept 1 in this many, so a
/// traced run's file stays a few megabytes; every other span is kept.
pub const BURST_SAMPLE: u64 = 16;
/// Hard cap on spans kept in memory.
const MAX_SPANS: usize = 100_000;

pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder; disabled recorders cost one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the run's epoch (0 when disabled, so callers can
    /// take stamps unconditionally).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Reserves a span id, for a parent whose children finish first.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id; returns the id.
    pub fn record_as(&mut self, id: u32, name: &'static str, parent: u32, start_ns: u64) -> u32 {
        if !self.enabled {
            return id;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return id;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a finished span that started at `start_ns`; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, name, parent, start_ns)
    }

    /// Moves another recorder's spans (e.g. a traffic thread's) into this
    /// one, renumbering their ids so they stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next_id;
        for mut s in other.spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.next_id += other.next_id;
        self.dropped += other.dropped;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, workload
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}
