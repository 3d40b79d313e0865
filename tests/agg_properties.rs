//! Property tests of the aggregation paths: random batches × random group
//! keys × every aggregate kind (Sum/Avg/Min/Max/Count/CountDistinct,
//! including the Neumaier-compensated float Sum/Avg), checked against a
//! naive HashMap reference, with three-way equivalence across execution
//! strategies:
//!
//! * **serial** (`HashAggregate`) must match the naive reference — values
//!   and first-seen group order;
//! * **radix-partitioned** (`ParallelAggregate` with `agg_radix` forced
//!   on) must be **bit-identical** to serial, floats included — each
//!   group's rows fold in serial stream order inside its one partition;
//! * **parallel-partial** (`agg_radix` forced off) must match serial
//!   exactly on group keys, group order and integer aggregates, and to
//!   ~1 ulp on compensated float sums (partials associate differently).
//!
//! Thread counts {1, 2, 4} and tiny morsels (`BDCC_MORSEL_ROWS`, default
//! 16, over 8-row storage blocks) force many-morsel fan-outs on
//! laptop-sized inputs.
//!
//! The batch contract of the aggregation core is checked directly on
//! in-memory batch streams: output independent of batch boundaries, the
//! streaming and sandwich variants equal to hash aggregation on sorted
//! input, bitwise float keys, collision-free composite string keys, and
//! the zero-state row of a global aggregate over empty input.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use bdcc::exec::batch::{Batch, ColMeta, OpSchema};
use bdcc::exec::ops::agg::{HashAggregate, PartialAgg, SandwichAggregate, StreamingAggregate};
use bdcc::exec::ops::scan::PlainScan;
use bdcc::exec::ops::{collect, BoxedOp, Operator};
use bdcc::exec::parallel::{FragmentBlueprint, ParallelAggregate, ScanBlueprint, ScanKind};
use bdcc::exec::{AggFunc, AggSpec, Expr, MemoryTracker, ParallelConfig};
use bdcc::storage::{Column, StoredTable};
use bdcc_storage::IoTracker;

/// Morsel size under test (`BDCC_MORSEL_ROWS`, default 16): small enough
/// that even a 30-row random input splits into several morsels.
fn test_morsel_rows() -> usize {
    std::env::var("BDCC_MORSEL_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// One random input row: integer group key, string-group selector, and an
/// integer measure (the float measure derives from it).
type Row = (i64, i64, i64);

/// The float measure of a row: an inexact decimal scale so float sums
/// actually exercise rounding (and the compensation), plus sign changes
/// for cancellation.
fn fval(v: i64) -> f64 {
    v as f64 * 0.1 - 0.55
}

/// The `g`, `s`, `v`, `f` columns of `rows`.
fn row_columns(rows: &[Row]) -> Vec<(&'static str, Column)> {
    vec![
        ("g", Column::from_i64(rows.iter().map(|r| r.0).collect())),
        ("s", Column::from_strings(rows.iter().map(|r| format!("s{}", r.1)).collect())),
        ("v", Column::from_i64(rows.iter().map(|r| r.2).collect())),
        ("f", Column::from_f64(rows.iter().map(|r| fval(r.2)).collect())),
    ]
}

fn build_table(rows: &[Row]) -> Arc<StoredTable> {
    let cols = row_columns(rows).into_iter().map(|(n, c)| (n.to_string(), c)).collect();
    // Tiny MinMax blocks → many morsels at tiny morsel sizes.
    Arc::new(StoredTable::from_columns_with_block_rows("t", cols, 8).unwrap())
}

/// An in-memory operator replaying `cols` in batches of `chunk` rows.
struct Batches {
    schema: OpSchema,
    batches: std::vec::IntoIter<Batch>,
}

impl Batches {
    fn new(cols: Vec<(&str, Column)>, chunk: usize) -> Batches {
        let schema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
        let n = cols.first().map_or(0, |(_, c)| c.len());
        let batches: Vec<Batch> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                Batch::new(cols.iter().map(|(_, c)| c.slice(start, end)).collect())
            })
            .collect();
        Batches { schema, batches: batches.into_iter() }
    }
}

impl Operator for Batches {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }
    fn next(&mut self) -> bdcc::exec::Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

fn hash_agg(src: Batches, group_by: &[&str], aggs: Vec<AggSpec>) -> Batch {
    collect(Box::new(
        HashAggregate::new(Box::new(src), group_by, aggs, MemoryTracker::new()).unwrap(),
    ))
    .unwrap()
}

/// Byte-identical: same columns, types and values, floats by bit pattern.
fn assert_bit_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.columns.len(), b.columns.len(), "{what}: column count");
    for (c, (x, y)) in a.columns.iter().zip(&b.columns).enumerate() {
        match (x.as_f64(), y.as_f64()) {
            (Ok(xv), Ok(yv)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(xv), bits(yv), "{what}: float column {c}");
            }
            _ => assert_eq!(x, y, "{what}: column {c}"),
        }
    }
}

/// Every aggregate kind over the two measures.
fn all_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, Expr::col("v"), "sum_v"),
        AggSpec::new(AggFunc::Sum, Expr::col("f"), "sum_f"),
        AggSpec::new(AggFunc::Avg, Expr::col("f"), "avg_f"),
        AggSpec::new(AggFunc::Min, Expr::col("v"), "min_v"),
        AggSpec::new(AggFunc::Max, Expr::col("f"), "max_f"),
        AggSpec::new(AggFunc::Count, Expr::lit(1), "cnt"),
        AggSpec::new(AggFunc::CountDistinct, Expr::col("v"), "nd_v"),
    ]
}

const COLS: [&str; 4] = ["g", "s", "v", "f"];

fn serial(t: &Arc<StoredTable>, group_by: &[&str]) -> Batch {
    let scan: BoxedOp =
        Box::new(PlainScan::new(Arc::clone(t), IoTracker::new(), &COLS, vec![]).unwrap());
    collect(Box::new(HashAggregate::new(scan, group_by, all_aggs(), MemoryTracker::new()).unwrap()))
        .unwrap()
}

fn parallel(t: &Arc<StoredTable>, group_by: &[&str], threads: usize, radix: bool) -> Batch {
    let bp = ScanBlueprint {
        table: Arc::clone(t),
        columns: COLS.iter().map(|c| c.to_string()).collect(),
        predicates: vec![],
        kind: ScanKind::Plain,
        filter_kernel: bdcc_exec::kernel_enabled(),
    };
    let cfg = ParallelConfig { threads, morsel_rows: test_morsel_rows(), agg_radix: Some(radix) };
    collect(Box::new(
        ParallelAggregate::new(
            FragmentBlueprint { scan: bp, steps: vec![] },
            group_by,
            all_aggs(),
            IoTracker::new(),
            cfg,
            MemoryTracker::new(),
        )
        .unwrap(),
    ))
    .unwrap()
}

/// Naive reference state for one group.
#[derive(Default)]
struct RefState {
    sum_v: i64,
    sum_f: f64,
    n: u64,
    min_v: Option<i64>,
    max_f: Option<f64>,
    distinct: HashSet<i64>,
}

/// Naive reference: plain HashMap + first-seen order, scalar arithmetic.
fn reference<K: std::hash::Hash + Eq + Clone>(
    rows: &[Row],
    key_of: impl Fn(&Row) -> K,
) -> (Vec<K>, HashMap<K, RefState>) {
    let mut order = Vec::new();
    let mut states: HashMap<K, RefState> = HashMap::new();
    for r in rows {
        let k = key_of(r);
        let st = states.entry(k.clone()).or_insert_with(|| {
            order.push(k.clone());
            RefState::default()
        });
        st.sum_v += r.2;
        st.sum_f += fval(r.2);
        st.n += 1;
        st.min_v = Some(st.min_v.map_or(r.2, |m| m.min(r.2)));
        st.max_f = Some(st.max_f.map_or(fval(r.2), |m: f64| m.max(fval(r.2))));
        st.distinct.insert(r.2);
    }
    (order, states)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Assert `got` (group key columns first, then `all_aggs()` outputs)
/// matches the naive reference values in first-seen order.
fn assert_matches_reference<K: std::hash::Hash + Eq>(
    got: &Batch,
    key_cols: usize,
    order: &[K],
    states: &HashMap<K, RefState>,
    row_key: impl Fn(&Batch, usize) -> K,
) {
    assert_eq!(got.rows(), order.len(), "group count");
    let a = key_cols; // first aggregate column
    for (i, k) in order.iter().enumerate() {
        assert!(row_key(got, i) == *k, "group {i} out of first-seen order");
        let st = &states[k];
        assert_eq!(got.columns[a].as_i64().unwrap()[i], st.sum_v, "sum_v of group {i}");
        assert!(close(got.columns[a + 1].as_f64().unwrap()[i], st.sum_f), "sum_f of group {i}");
        assert!(
            close(got.columns[a + 2].as_f64().unwrap()[i], st.sum_f / st.n as f64),
            "avg_f of group {i}"
        );
        assert_eq!(got.columns[a + 3].as_i64().unwrap()[i], st.min_v.unwrap(), "min_v");
        assert_eq!(got.columns[a + 4].as_f64().unwrap()[i], st.max_f.unwrap(), "max_f");
        assert_eq!(got.columns[a + 5].as_i64().unwrap()[i], st.n as i64, "cnt");
        assert_eq!(got.columns[a + 6].as_i64().unwrap()[i], st.distinct.len() as i64, "nd_v");
    }
}

/// Partial-merge outputs may differ from serial by ~1 ulp on the
/// compensated float sum columns (different association); everything else
/// — group keys, group order, integer aggregates, min/max — must be
/// exactly equal.
fn assert_equivalent_modulo_float_ulp(serial: &Batch, partial: &Batch) {
    assert_eq!(serial.rows(), partial.rows());
    assert_eq!(serial.columns.len(), partial.columns.len());
    for (c, (s, p)) in serial.columns.iter().zip(&partial.columns).enumerate() {
        match (s.as_f64(), p.as_f64()) {
            (Ok(sv), Ok(pv)) => {
                for (i, (a, b)) in sv.iter().zip(pv).enumerate() {
                    assert!(close(*a, *b), "col {c} row {i}: {a} vs {b}");
                }
            }
            _ => assert_eq!(s, p, "col {c} must match exactly"),
        }
    }
}

proptest! {
    /// Integer group keys: serial == naive reference; radix is
    /// bit-identical to serial; parallel-partial matches modulo float
    /// association — across threads {1, 2, 4}.
    #[test]
    fn aggregation_strategies_agree_on_int_keys(
        rows in prop::collection::vec((0i64..15, 0i64..4, -50i64..50), 1..200),
    ) {
        let t = build_table(&rows);
        let s = serial(&t, &["g"]);
        let (order, states) = reference(&rows, |r| r.0);
        assert_matches_reference(&s, 1, &order, &states, |b, i| {
            b.columns[0].as_i64().unwrap()[i]
        });
        for threads in [1usize, 2, 4] {
            let radix = parallel(&t, &["g"], threads, true);
            prop_assert_eq!(&s, &radix, "radix must be bit-identical ({} threads)", threads);
            let partial = parallel(&t, &["g"], threads, false);
            assert_equivalent_modulo_float_ulp(&s, &partial);
        }
    }

    /// Composite (string, int) group keys route through the shared key
    /// codec; same three-way equivalence.
    #[test]
    fn aggregation_strategies_agree_on_composite_keys(
        rows in prop::collection::vec((0i64..6, 0i64..5, -50i64..50), 1..160),
        threads in 2usize..5,
    ) {
        let t = build_table(&rows);
        let s = serial(&t, &["s", "g"]);
        let (order, states) = reference(&rows, |r| (format!("s{}", r.1), r.0));
        assert_matches_reference(&s, 2, &order, &states, |b, i| {
            (
                b.columns[0].as_str().unwrap()[i].clone(),
                b.columns[1].as_i64().unwrap()[i],
            )
        });
        let radix = parallel(&t, &["s", "g"], threads, true);
        prop_assert_eq!(&s, &radix, "radix must be bit-identical ({} threads)", threads);
        let partial = parallel(&t, &["s", "g"], threads, false);
        assert_equivalent_modulo_float_ulp(&s, &partial);
    }

    /// Degenerate key distributions: a single group (everything collides
    /// into one partition) and all-distinct groups (per-row groups, the
    /// radix sweet spot) — plus the auto heuristic, which must agree with
    /// both forced paths whatever it picks.
    #[test]
    fn degenerate_group_distributions(
        n in 1usize..120,
        measure in -30i64..30,
        distinct in any::<bool>(),
        threads in 2usize..5,
    ) {
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| (if distinct { i } else { 7 }, i % 3, measure + i % 11))
            .collect();
        let t = build_table(&rows);
        let s = serial(&t, &["g"]);
        let radix = parallel(&t, &["g"], threads, true);
        prop_assert_eq!(&s, &radix);
        let partial = parallel(&t, &["g"], threads, false);
        assert_equivalent_modulo_float_ulp(&s, &partial);
        // The heuristic path (auto): whatever it picks must still agree.
        let bp = ScanBlueprint {
            table: Arc::clone(&t),
            columns: COLS.iter().map(|c| c.to_string()).collect(),
            predicates: vec![],
            kind: ScanKind::Plain,
            filter_kernel: bdcc_exec::kernel_enabled(),
        };
        let cfg = ParallelConfig { threads, morsel_rows: test_morsel_rows(), agg_radix: None };
        let auto = collect(Box::new(
            ParallelAggregate::new(
                FragmentBlueprint { scan: bp, steps: vec![] },
                &["g"],
                all_aggs(),
                IoTracker::new(),
                cfg,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        assert_equivalent_modulo_float_ulp(&s, &auto);
    }
}

proptest! {
    /// The same rows fed as 1-row, 7-row and whole batches aggregate to
    /// byte-identical output in the same group order, for a global, an
    /// integer-keyed and a composite string/int-keyed group-by.
    #[test]
    fn output_is_independent_of_batch_boundaries(
        rows in prop::collection::vec((0i64..9, 0i64..4, -50i64..50), 1..120),
    ) {
        for group_by in [&[][..], &["g"][..], &["s", "g"][..]] {
            let whole = hash_agg(Batches::new(row_columns(&rows), rows.len()), group_by, all_aggs());
            for chunk in [1, 7] {
                let split = hash_agg(Batches::new(row_columns(&rows), chunk), group_by, all_aggs());
                assert_bit_identical(&whole, &split, &format!("{group_by:?} in {chunk}-row batches"));
            }
        }
    }

    /// On input sorted by the group key, streaming aggregation equals hash
    /// aggregation row for row; on input sorted by a partition column the
    /// key determines, so does sandwich aggregation.
    #[test]
    fn streaming_and_sandwich_match_hash_on_sorted_input(
        mut rows in prop::collection::vec((0i64..9, 0i64..4, -50i64..50), 1..120),
        chunk in 1usize..20,
    ) {
        // Sort by (s, g) — the streaming key — stably, so rows of one
        // group keep their relative order.
        rows.sort_by_key(|r| (format!("s{}", r.1), r.0));
        let want = hash_agg(Batches::new(row_columns(&rows), chunk), &["s", "g"], all_aggs());
        let streaming = StreamingAggregate::new(
            Box::new(Batches::new(row_columns(&rows), chunk)),
            &["s", "g"],
            all_aggs(),
        )
        .unwrap();
        assert_bit_identical(&want, &collect(Box::new(streaming)).unwrap(), "streaming");

        // Partition p = g / 3 is determined by the key; group rows by it.
        rows.sort_by_key(|r| r.0 / 3);
        let with_partition = || {
            let mut cols = row_columns(&rows);
            cols.push(("p", Column::from_i64(rows.iter().map(|r| r.0 / 3).collect())));
            Batches::new(cols, chunk)
        };
        let want = hash_agg(with_partition(), &["g", "s"], all_aggs());
        let sandwich = SandwichAggregate::new(
            Box::new(with_partition()),
            &["g", "s"],
            all_aggs(),
            vec![4],
            MemoryTracker::new(),
        )
        .unwrap();
        assert_bit_identical(&want, &collect(Box::new(sandwich)).unwrap(), "sandwich");
    }
}

/// Float keys group by bit pattern: `NaN`, `-0.0` and `0.0` are three
/// groups, alone and inside a composite key.
#[test]
fn float_keys_group_by_bit_pattern() {
    let keys = vec![0.0, -0.0, f64::NAN, 0.0, f64::NAN, -0.0, 0.0];
    let tags: Vec<String> = vec!["t".into(); keys.len()];
    let cnt = || vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
    for group_by in [&["k"][..], &["k", "tag"][..]] {
        let cols = vec![
            ("k", Column::from_f64(keys.clone())),
            ("tag", Column::from_strings(tags.clone())),
        ];
        let out = hash_agg(Batches::new(cols, 3), group_by, cnt());
        let got: Vec<u64> = out.columns[0].as_f64().unwrap().iter().map(|f| f.to_bits()).collect();
        assert_eq!(got, vec![0.0f64.to_bits(), (-0.0f64).to_bits(), f64::NAN.to_bits()]);
        assert_eq!(out.columns.last().unwrap().as_i64().unwrap(), &[3, 2, 2], "{group_by:?}");
    }
}

/// Composite string keys that collide under naive concatenation stay
/// apart, empty strings included, on the serial and radix paths.
#[test]
fn composite_string_keys_never_collide() {
    let pairs = [("a", "bc"), ("ab", "c"), ("", "abc"), ("abc", ""), ("", ""), ("a", "bc")];
    let col = |i: usize| Column::from_strings(pairs.iter().map(|p| [p.0, p.1][i].into()).collect());
    let cols = vec![("a", col(0)), ("b", col(1)), ("k", Column::from_i64(vec![1; pairs.len()]))];
    let cnt = vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")];
    let out = hash_agg(Batches::new(cols.clone(), 2), &["a", "b", "k"], cnt.clone());
    assert_eq!(out.columns[0].as_str().unwrap(), &["a", "ab", "", "abc", ""]);
    assert_eq!(out.columns[1].as_str().unwrap(), &["bc", "c", "abc", "", ""]);
    assert_eq!(out.columns[3].as_i64().unwrap(), &[2, 1, 1, 1, 1]);

    let table = StoredTable::from_columns_with_block_rows(
        "t",
        cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect(),
        2,
    )
    .unwrap();
    let bp = ScanBlueprint {
        table: Arc::new(table),
        columns: vec!["a".into(), "b".into(), "k".into()],
        predicates: vec![],
        kind: ScanKind::Plain,
        filter_kernel: bdcc_exec::kernel_enabled(),
    };
    let cfg = ParallelConfig { threads: 2, morsel_rows: 2, agg_radix: Some(true) };
    let radix = ParallelAggregate::new(
        FragmentBlueprint { scan: bp, steps: vec![] },
        &["a", "b", "k"],
        cnt,
        IoTracker::new(),
        cfg,
        MemoryTracker::new(),
    )
    .unwrap();
    assert_bit_identical(&out, &collect(Box::new(radix)).unwrap(), "radix");
}

/// A global aggregate over empty input yields the single zero-state row,
/// from the serial operator and from a finished empty partial alike.
#[test]
fn global_aggregate_over_empty_input_yields_the_zero_row() {
    let empty = row_columns(&[]);
    let schema: OpSchema = empty.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
    let serial = hash_agg(Batches::new(empty, 4), &[], all_aggs());
    let partial = PartialAgg::new(&schema, &[], &all_aggs()).unwrap().finish().unwrap();
    for out in [&serial, &partial] {
        assert_eq!(out.rows(), 1);
        assert_eq!(out.columns[0].as_i64().unwrap(), &[0], "sum_v");
        assert_eq!(out.columns[1].as_f64().unwrap()[0].to_bits(), 0, "sum_f is +0.0");
        assert_eq!(out.columns[2].as_f64().unwrap()[0].to_bits(), 0, "avg_f is +0.0");
        assert_eq!(out.columns[3].as_i64().unwrap(), &[0], "min_v");
        assert_eq!(out.columns[4].as_f64().unwrap()[0].to_bits(), 0, "max_f is +0.0");
        assert_eq!(out.columns[5].as_i64().unwrap(), &[0], "cnt");
        assert_eq!(out.columns[6].as_i64().unwrap(), &[0], "nd_v");
    }
}
