//! One query execution as every workload records it, and the metrics both
//! workload kinds compute from per-query groups of executions.

use bdcc_pool::PoolStats;
use bdcc_storage::{DeviceProfile, IoStats};

use crate::report::Values;
use crate::stats::median;
use crate::trace::{OpAttrib, CLASSES};
use crate::{Outcome, MIB};

/// One query execution.
#[derive(Debug)]
pub struct Exec {
    pub scheme: usize,
    /// Query index, 0-based (`Q1` is 0).
    pub query: usize,
    pub traced: bool,
    /// Wall time of the query call itself.
    pub wall_ns: u64,
    pub outcome: Outcome,
    pub io: IoStats,
    pub peak: u64,
    pub attrib: Option<OpAttrib>,
}

/// Σ over queries of the median of `f` over that query's executions.
pub fn sum_medians(groups: &[Vec<&Exec>], f: impl Fn(&Exec) -> f64) -> f64 {
    groups.iter().map(|g| median(&g.iter().map(|e| f(e)).collect::<Vec<_>>())).sum()
}

/// Traced executions whose operator self times plus `plan_other` do not
/// add up to the query's wall time.
pub fn attribution_gaps<'a>(execs: impl Iterator<Item = &'a Exec>) -> usize {
    execs
        .filter_map(|e| e.attrib.as_ref().map(|a| (e, a)))
        .filter(|(e, a)| {
            let plan_other = e.wall_ns as i64 - a.root_wall_ns as i64;
            a.self_total_ns() + plan_other != e.wall_ns as i64
        })
        .count()
}

/// `<scheme>.query_ms`, `.io_ms` and `.mem_mb` from one scheme's untraced
/// executions, grouped per query.
pub fn scheme_end_to_end(v: &mut Values, name: &str, groups: &[Vec<&Exec>]) {
    let ssd = DeviceProfile::ssd_raid();
    v.set(format!("{name}.query_ms"), sum_medians(groups, |e| e.wall_ns as f64 / 1e6));
    v.set(format!("{name}.io_ms"), sum_medians(groups, |e| ssd.estimate_seconds(&e.io) * 1e3));
    v.set(
        format!("{name}.mem_mb"),
        sum_medians(groups, |e| e.peak as f64) / groups.len() as f64 / MIB,
    );
}

/// The per-scheme layer metrics from one scheme's traced and untraced
/// executions, grouped per query.
pub fn scheme_layers(v: &mut Values, name: &str, traced: &[Vec<&Exec>], plain: &[Vec<&Exec>]) {
    let attr =
        |f: &dyn Fn(&OpAttrib) -> f64| sum_medians(traced, |e| e.attrib.as_ref().map_or(0.0, f));
    v.set(format!("{name}.io.bytes"), sum_medians(traced, |e| e.io.bytes_read as f64));
    v.set(format!("{name}.io.seeks"), sum_medians(traced, |e| e.io.random_seeks as f64));
    v.set(format!("{name}.io.seq"), sum_medians(traced, |e| e.io.sequential_accesses as f64));
    v.set(format!("{name}.scan.rows_out"), attr(&|a| a.scan_rows_out as f64));
    v.set(format!("{name}.scan.blocks_skipped"), attr(&|a| a.scan_blocks_skipped as f64));
    v.set(format!("{name}.agg.rows_in"), attr(&|a| a.agg_rows_in as f64));
    v.set(format!("{name}.join.rows_out"), attr(&|a| a.join_rows_out as f64));
    let peak = |f: &dyn Fn(&OpAttrib) -> u64| {
        traced.iter().flatten().filter_map(|e| e.attrib.as_ref().map(f)).max().unwrap_or(0) as f64
            / MIB
    };
    v.set(format!("{name}.sandwich.peak_mb"), peak(&|a| a.sandwich_peak));
    v.set(format!("{name}.join.peak_mb"), peak(&|a| a.join_peak));
    for (c, class) in CLASSES.iter().enumerate() {
        v.set(format!("{name}.{class}.self_ms"), attr(&|a| a.self_ns[c] as f64 / 1e6));
    }
    v.set(
        format!("{name}.plan_other_ms"),
        sum_medians(traced, |e| {
            e.attrib.as_ref().map_or(0.0, |a| (e.wall_ns as f64 - a.root_wall_ns as f64) / 1e6)
        }),
    );
    let wall = |g: &[Vec<&Exec>]| sum_medians(g, |e| e.wall_ns as f64);
    v.set(format!("{name}.obs.overhead"), wall(traced) / wall(plain));
}

/// The spill metrics from every scheme's traced executions, grouped per
/// query, and the pool counters of the timed phase.
pub fn spill_and_pool_layers(v: &mut Values, traced: &[Vec<&Exec>], pool: &PoolStats) {
    let attr =
        |f: &dyn Fn(&OpAttrib) -> f64| sum_medians(traced, |e| e.attrib.as_ref().map_or(0.0, f));
    v.set("spill_mb", attr(&|a| a.spill_bytes as f64) / MIB);
    v.set("spill.partitions", attr(&|a| a.spill_partitions as f64));
    v.set("spill.restore_mb", attr(&|a| a.spill_restore_bytes as f64) / MIB);
    v.set("spill.self_ms", attr(&|a| a.spill_self_ns as f64 / 1e6));
    v.set("pool.jobs", pool.jobs as f64);
    v.set("pool.steals", pool.steals as f64);
    v.set("pool.parks", pool.parks as f64);
    v.set("pool.lends", pool.lends as f64);
}
