//! E-AGG — aggregation strategy throughput and memory: the serial
//! `HashAggregate` vs. morsel-parallel partial-merge vs. radix-partitioned
//! aggregation, on a fine-grained group-by (`GROUP BY l_partkey`, one
//! group per ~30 rows, keys scattered across morsels — the workload radix
//! partitioning exists for) and a coarse Q1-style group-by
//! (`GROUP BY l_returnflag, l_linestatus`, four groups — the workload the
//! partial-merge path keeps). Mirrors `probe_speedup`: scale factor from
//! `BDCC_SF` (default 0.02), thread counts from `BDCC_THREADS` (comma
//! separated, default `1,4`). Prints a table and, last, one JSON line
//! (`{"bench":"agg_radix",...}`) recorded as `BENCH_agg.json` so the
//! aggregation perf trajectory is machine-readable across PRs.

use std::sync::Arc;
use std::time::Instant;

use bdcc_bench::{generate_db, mb, print_table, r3, scale_factor, BenchReport};
use bdcc_exec::ops::agg::HashAggregate;
use bdcc_exec::ops::scan::PlainScan;
use bdcc_exec::ops::{collect, BoxedOp};
use bdcc_exec::parallel::{FragmentBlueprint, ParallelAggregate, ScanBlueprint, ScanKind};
use bdcc_exec::{AggFunc, AggSpec, Expr, MemoryTracker, ParallelConfig};
use bdcc_obs::json::Obj;
use bdcc_storage::{IoTracker, StoredTable};

/// One benchmark workload: scanned columns, group-by keys and aggregates
/// over LINEITEM. Each workload scans only what it consumes — the
/// radix path materializes the scanned columns during partitioning, so
/// padding the scan would misattribute memory.
struct Workload {
    name: &'static str,
    scan_cols: Vec<&'static str>,
    group_by: Vec<&'static str>,
    aggs: Vec<AggSpec>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "fine_partkey",
            scan_cols: vec!["l_partkey", "l_quantity", "l_extendedprice"],
            group_by: vec!["l_partkey"],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev"),
                AggSpec::new(AggFunc::Avg, Expr::col("l_quantity"), "aq"),
                AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            ],
        },
        Workload {
            name: "coarse_q1",
            scan_cols: vec!["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
            group_by: vec!["l_returnflag", "l_linestatus"],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col("l_quantity"), "sq"),
                AggSpec::new(AggFunc::Sum, Expr::col("l_extendedprice"), "rev"),
                AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            ],
        },
    ]
}

/// Morsel size under test: `BDCC_MORSEL_ROWS`, default 1024. Smaller than
/// the engine default (8192) on purpose: the morsel count is what scales
/// per-morsel partial duplication, so a laptop-scale LINEITEM at 1024-row
/// morsels models the morsel-to-group ratio a server-scale table has at
/// default morsels.
fn bench_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(1024)
}

fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f(); // warm up
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn run_serial(li: &Arc<StoredTable>, w: &Workload) -> (usize, u64) {
    let tracker = MemoryTracker::new();
    let scan: BoxedOp =
        Box::new(PlainScan::new(Arc::clone(li), IoTracker::new(), &w.scan_cols, vec![]).unwrap());
    let out = collect(Box::new(
        HashAggregate::new(scan, &w.group_by, w.aggs.clone(), tracker.clone()).unwrap(),
    ))
    .unwrap();
    (out.rows(), tracker.peak())
}

fn run_parallel(li: &Arc<StoredTable>, w: &Workload, threads: usize, radix: bool) -> (usize, u64) {
    let tracker = MemoryTracker::new();
    let bp = ScanBlueprint {
        table: Arc::clone(li),
        columns: w.scan_cols.iter().map(|c| c.to_string()).collect(),
        predicates: vec![],
        kind: ScanKind::Plain,
        filter_kernel: bdcc_exec::kernel_enabled(),
    };
    let cfg = ParallelConfig { threads, morsel_rows: bench_morsel_rows(), agg_radix: Some(radix) };
    let out = collect(Box::new(
        ParallelAggregate::new(
            FragmentBlueprint { scan: bp, steps: vec![] },
            &w.group_by,
            w.aggs.clone(),
            IoTracker::new(),
            cfg,
            tracker.clone(),
        )
        .unwrap(),
    ))
    .unwrap();
    (out.rows(), tracker.peak())
}

fn mrows_per_s(rows: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        rows as f64 / secs / 1e6
    } else {
        0.0
    }
}

fn main() {
    let sf = scale_factor();
    let threads: Vec<usize> = std::env::var("BDCC_THREADS")
        .unwrap_or_else(|_| "1,4".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("E-AGG — aggregation strategy throughput (SF {sf}, {cores} core(s) available)");
    let db = generate_db(sf);
    let li = db.stored_by_name("lineitem").expect("lineitem stored").clone();
    let rows = li.rows();
    let reps = 5;

    let mut table_rows = Vec::new();
    let mut report = BenchReport::new("agg_radix")
        .f64("sf", sf)
        .usize("rows", rows)
        .usize("cores", cores)
        .usize("reps", reps);
    let mut record = |workload: &str,
                      variant: &str,
                      t: usize,
                      secs: f64,
                      base_s: f64,
                      groups: usize,
                      peak: u64| {
        table_rows.push(vec![
            workload.to_string(),
            variant.to_string(),
            t.to_string(),
            format!("{:.2}", secs * 1000.0),
            format!("{:.2}", mrows_per_s(rows, secs)),
            format!("{:.2}x", base_s / secs),
            groups.to_string(),
            mb(peak),
        ]);
        report.result(
            Obj::new()
                .str("workload", workload)
                .str("variant", variant)
                .usize("threads", t)
                .f64("agg_ms", r3(secs * 1000.0))
                .f64("mrows_per_s", r3(mrows_per_s(rows, secs)))
                .f64("speedup", r3(base_s / secs))
                .usize("groups", groups)
                .u64("peak_bytes", peak),
        );
    };

    for w in &workloads() {
        let (groups, serial_peak) = run_serial(&li, w);
        let serial_s = timed(reps, || run_serial(&li, w));
        record(w.name, "serial", 1, serial_s, serial_s, groups, serial_peak);
        for &t in &threads {
            if t <= 1 {
                continue;
            }
            for (variant, radix) in [("partial_merge", false), ("radix", true)] {
                let (g, peak) = run_parallel(&li, w, t, radix);
                assert_eq!(g, groups, "strategies must agree on the group count");
                let s = timed(reps, || run_parallel(&li, w, t, radix));
                record(w.name, variant, t, s, serial_s, groups, peak);
            }
        }
    }

    let _ = record; // end the closure's borrows of the table and report
    print_table(
        &["workload", "variant", "threads", "ms", "Mrows/s", "speedup", "groups", "peak MB"],
        &table_rows,
    );
    report.print();
}
