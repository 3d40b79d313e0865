//! The counts the benchmark reports — I/O counters, row and block counts,
//! spill volumes, peak tracked memory and outcomes — must repeat exactly
//! on the serial workloads: across two traced runs, and between the
//! traced and untraced executions of each query. Later changes may cite
//! them as counts only because of this.
//!
//! Run with `cargo test --manifest-path e2ebench/Cargo.toml` (about a
//! minute on 2 cores: it runs `tpch_schemes` and `tpch_budget` at SF 0.1).

use std::collections::BTreeMap;

use e2ebench::closed::{self, ClosedRun};
use e2ebench::golden::Golden;
use e2ebench::record::Exec;
use e2ebench::setup::{self, SCHEMES};
use e2ebench::trace::Spans;
use e2ebench::{prepare_out_dir, stray_env, BUDGET_BYTES};

/// The exactly repeatable part of one execution: outcome, I/O counters
/// and peak tracked memory, plus the operator counters of a traced one.
#[derive(Debug, PartialEq)]
struct Counts {
    base: (String, u64, u64, u64, u64),
    ops: Option<[u64; 7]>,
}

fn counts(e: &Exec) -> Counts {
    Counts {
        base: (
            format!("{:?}", e.outcome),
            e.io.bytes_read,
            e.io.random_seeks,
            e.io.sequential_accesses,
            e.peak,
        ),
        ops: e.attrib.as_ref().map(|a| {
            [
                a.scan_rows_out,
                a.scan_blocks_skipped,
                a.agg_rows_in,
                a.join_rows_out,
                a.spill_partitions,
                a.spill_bytes,
                a.spill_restore_bytes,
            ]
        }),
    }
}

fn by_query(runs: &[&ClosedRun], traced: bool) -> BTreeMap<(usize, usize), Vec<Counts>> {
    let mut m: BTreeMap<(usize, usize), Vec<Counts>> = BTreeMap::new();
    for r in runs {
        for e in r.execs.iter().filter(|e| e.traced == traced) {
            m.entry((e.scheme, e.query)).or_default().push(counts(e));
        }
    }
    m
}

#[test]
fn serial_counters_repeat_exactly() {
    assert!(stray_env().is_empty(), "unset BDCC_* variables before running");
    prepare_out_dir().expect("create .bench_out");
    let golden = Golden::load();
    let (setup, _) = setup::build(7);
    for budget in [None, Some(BUDGET_BYTES)] {
        let mut spans = Spans::new(true);
        let a = closed::run(&setup, &golden, budget, 1, true, &mut spans);
        let b = closed::run(&setup, &golden, budget, 1, true, &mut spans);
        assert!(a.tally.correct() && b.tally.correct(), "{:?} {:?}", a.tally, b.tally);
        assert_eq!(a.tally.failed(), b.tally.failed());
        assert_eq!(a.attribution_gaps() + b.attribution_gaps(), 0);

        let traced = by_query(&[&a, &b], true);
        let untraced = by_query(&[&a, &b], false);
        for ((scheme, query), runs) in &traced {
            let what = format!("{} Q{} budget {budget:?}", SCHEMES[*scheme], query + 1);
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "{what}: traced runs differ: {runs:?}");
            let plain = &untraced[&(*scheme, *query)];
            for u in plain {
                assert_eq!(u.base, runs[0].base, "{what}: traced vs untraced");
            }
        }
    }
}
