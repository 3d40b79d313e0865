//! Tracing from outside the engine: spans around the calls into each
//! layer, and per-operator attribution read off the profile the engine
//! already exposes (`QueryContext::with_profiling`, `Profiler::root`).
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! All spans of one query (or of one set-up) share a `trace` id. Set-up,
//! query and serving spans carry start and end; operator records carry
//! their profile's cumulative wall and self time instead, because a pulled
//! operator's work is spread over many `next` calls, not one interval.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bdcc_obs::json::Obj;
use bdcc_obs::ProfileNode;

/// Operator classes of the per-layer self-time metrics, in report order.
pub const CLASSES: [&str; 8] =
    ["scan", "filter", "join", "sandwich", "merge_join", "agg", "sort", "other"];

/// Class of a profile label (`Scan(lineitem)`, `Join(sandwich)`, ...).
/// `Aggregate(sandwich)` counts as aggregation; `Project` and `Limit` go to
/// `other`.
fn class_of(label: &str) -> usize {
    let class = if label.starts_with("Scan(") {
        "scan"
    } else if label == "Filter" {
        "filter"
    } else if label == "Join(sandwich)" {
        "sandwich"
    } else if label == "Join(merge)" {
        "merge_join"
    } else if label.starts_with("Join(") {
        "join"
    } else if label.starts_with("Aggregate(") {
        "agg"
    } else if label.starts_with("Sort(") {
        "sort"
    } else {
        "other"
    };
    CLASSES.iter().position(|c| *c == class).expect("class is listed")
}

/// Per-operator attribution of one profiled plan.
#[derive(Debug, Clone, Default)]
pub struct OpAttrib {
    /// Self time per class: node wall minus its children's wall. Signed,
    /// so the selves of a tree sum exactly to the root's wall even where
    /// parallel children overlap their parent.
    pub self_ns: [i64; CLASSES.len()],
    pub root_wall_ns: u64,
    pub scan_rows_out: u64,
    pub scan_blocks_skipped: u64,
    pub agg_rows_in: u64,
    pub join_rows_out: u64,
    pub sandwich_peak: u64,
    pub join_peak: u64,
    pub spill_partitions: u64,
    pub spill_bytes: u64,
    pub spill_restore_bytes: u64,
    /// Self time of the operators that spilled.
    pub spill_self_ns: i64,
}

fn self_ns(n: &ProfileNode) -> i64 {
    n.wall_nanos as i64 - n.children.iter().map(|c| c.wall_nanos as i64).sum::<i64>()
}

impl OpAttrib {
    pub fn of(root: &ProfileNode) -> OpAttrib {
        let mut a = OpAttrib { root_wall_ns: root.wall_nanos, ..OpAttrib::default() };
        root.walk(&mut |n| {
            let class = class_of(&n.label);
            let own = self_ns(n);
            a.self_ns[class] += own;
            match CLASSES[class] {
                "scan" => {
                    a.scan_rows_out += n.rows_out;
                    a.scan_blocks_skipped += n.blocks_skipped;
                }
                "agg" => a.agg_rows_in += n.rows_in,
                "join" => {
                    a.join_rows_out += n.rows_out;
                    a.join_peak = a.join_peak.max(n.peak_memory);
                }
                "sandwich" => a.sandwich_peak = a.sandwich_peak.max(n.peak_memory),
                _ => {}
            }
            if n.spill_partitions > 0 {
                a.spill_partitions += n.spill_partitions;
                a.spill_bytes += n.spill_bytes;
                a.spill_restore_bytes += n.spill_restore_bytes;
                a.spill_self_ns += own;
            }
        });
        a
    }

    /// Σ self over every operator: equals the root's wall by construction;
    /// checked per query so the attribution cannot silently lose time.
    pub fn self_total_ns(&self) -> i64 {
        self.self_ns.iter().sum()
    }
}

#[derive(Debug)]
struct Span {
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
    end_us: Option<f64>,
    attrs: Vec<(String, f64)>,
}

/// In-memory span log. A disabled log (the untraced runs) records nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_trace: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), next_trace: 0, spans: Vec::new() }
    }

    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    fn push(&mut self, trace: u64, parent: Option<u64>, name: &str, start: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_us = self.us(start);
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Open a span starting now; returns its id (0 when disabled).
    pub fn open(&mut self, trace: u64, parent: Option<u64>, name: &str) -> u64 {
        self.push(trace, parent, name, Instant::now())
    }

    pub fn close(&mut self, id: u64) {
        self.close_at(id, Instant::now());
    }

    pub fn close_at(&mut self, id: u64, end: Instant) {
        if self.enabled {
            let end_us = self.us(end);
            self.spans[id as usize - 1].end_us = Some(end_us);
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.push(trace, parent, name, start);
        self.close_at(id, end);
        id
    }

    pub fn attr(&mut self, id: u64, key: &str, value: f64) {
        if self.enabled {
            self.spans[id as usize - 1].attrs.push((key.to_string(), value));
        }
    }

    /// Record a profile tree under `parent`, one record per operator.
    pub fn profile(&mut self, trace: u64, parent: u64, node: &ProfileNode) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent: Some(parent),
            name: node.label.clone(),
            start_us: f64::NAN,
            end_us: None,
            attrs: vec![
                ("wall_us".into(), node.wall_nanos as f64 / 1e3),
                ("self_us".into(), self_ns(node) as f64 / 1e3),
                ("rows_in".into(), node.rows_in as f64),
                ("rows_out".into(), node.rows_out as f64),
                ("peak_bytes".into(), node.peak_memory as f64),
                ("io_bytes".into(), node.io_bytes as f64),
                ("spill_bytes".into(), node.spill_bytes as f64),
            ],
        });
        for c in &node.children {
            self.profile(trace, id, c);
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut o = Obj::new().u64("trace", s.trace).u64("span", s.id);
            o = match s.parent {
                Some(p) => o.u64("parent", p),
                None => o.raw("parent", "null"),
            };
            o = o.str("name", &s.name).f64("start_us", s.start_us);
            o = match s.end_us {
                Some(e) => o.f64("end_us", e),
                None => o.raw("end_us", "null"),
            };
            for (k, v) in &s.attrs {
                o = o.f64(k, *v);
            }
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}
