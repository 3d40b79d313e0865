//! Closed-loop workloads (`tpch_schemes`, `tpch_budget`): one client runs
//! the 22 queries in order on Plain, then PK, then BDCC, with serial plans
//! (`QueryContext::new`), pass after pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bdcc_exec::{QueryContext, SpillMode};
use bdcc_pool::{PoolStats, WorkerPool};
use bdcc_storage::spill::live_spill_files;
use bdcc_tpch::{all_queries, Query, QueryCtx};

use crate::golden::Golden;
use crate::record::{
    attribution_gaps, scheme_end_to_end, scheme_layers, spill_and_pool_layers, Exec,
};
use crate::report::Values;
use crate::setup::{Setup, SCHEMES};
use crate::stats::{median, tail};
use crate::trace::{OpAttrib, Spans};
use crate::{Outcome, Tally, SF};

/// Run one query on one scheme and judge it.
pub fn run_query(
    setup: &Setup,
    golden: &Golden,
    scheme: usize,
    q: &Query,
    budget: Option<u64>,
    traced: bool,
    spans: &mut Spans,
) -> Exec {
    let mut qc = QueryContext::new(Arc::clone(&setup.schemes[scheme]));
    if let Some(bytes) = budget {
        qc = qc.with_memory_budget(bytes).with_spill(SpillMode::Auto);
    }
    if traced {
        qc = qc.with_profiling();
    }
    let ctx = QueryCtx::new(qc, SF);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| (q.run)(&ctx)));
    let end = Instant::now();
    let wall_ns = (end - start).as_nanos() as u64;
    let leaked = ctx.qc.tracker.current() != 0 || live_spill_files() != 0;
    let outcome = match &result {
        Ok(r) => Outcome::judge(r.as_ref(), leaked, budget.is_some(), |b| {
            golden.matches(setup.data_seed, q.id, b)
        }),
        Err(_) => Outcome::Error("panicked".into()),
    };
    let attrib = if traced {
        let node = ctx.qc.profiler.as_ref().and_then(|p| p.root()).map(|r| r.freeze());
        let trace = spans.new_trace();
        let id = spans.record(trace, None, &format!("{}.Q{}", SCHEMES[scheme], q.id), start, end);
        node.map(|n| {
            spans.profile(trace, id, &n);
            let a = OpAttrib::of(&n);
            spans.attr(id, "plan_other_us", (wall_ns as f64 - a.root_wall_ns as f64) / 1e3);
            a
        })
    } else {
        None
    };
    Exec {
        scheme,
        query: q.id - 1,
        traced,
        wall_ns,
        outcome,
        io: ctx.qc.io.stats(),
        peak: ctx.qc.tracker.peak(),
        attrib,
    }
}

/// Nominal wall seconds of one untraced pass on the reference 2-core box:
/// fixes the pass count from `--seconds`, so every run of a workload makes
/// the same number of executions and its percentiles compare.
fn nominal_pass_s(budget: Option<u64>) -> f64 {
    if budget.is_some() {
        6.0
    } else {
        2.5
    }
}

/// Timed passes for a run of `seconds`; the warm-up pass counts toward
/// them. A traced pass runs every query twice.
pub fn passes_for(seconds: f64, budget: Option<u64>, traced: bool) -> usize {
    let per_pass = nominal_pass_s(budget) * if traced { 2.0 } else { 1.0 };
    ((seconds / per_pass).round() as usize).saturating_sub(1).max(3)
}

/// A finished closed-loop run.
#[derive(Debug)]
pub struct ClosedRun {
    /// Timed executions (warm-up excluded).
    pub execs: Vec<Exec>,
    pub warmup: Tally,
    pub tally: Tally,
    pub passes: usize,
    pub elapsed_s: f64,
    pub pool: PoolStats,
}

/// Warm-up pass, then `passes` timed passes. A traced run executes each
/// query twice per pass, profiled and unprofiled, alternating which goes
/// first.
pub fn run(
    setup: &Setup,
    golden: &Golden,
    budget: Option<u64>,
    passes: usize,
    traced: bool,
    spans: &mut Spans,
) -> ClosedRun {
    let queries = all_queries();
    let mut warmup = Tally::default();
    let mut off = Spans::new(false);
    for (scheme, name) in SCHEMES.iter().enumerate() {
        for q in &queries {
            let e = run_query(setup, golden, scheme, q, budget, false, &mut off);
            warmup.add(&e.outcome, || format!("warm-up {name} Q{}", q.id));
        }
    }
    let mut execs = Vec::new();
    let mut tally = Tally::default();
    let pool_base = WorkerPool::shared().stats();
    let t = Instant::now();
    for pass in 0..passes {
        for (scheme, name) in SCHEMES.iter().enumerate() {
            for q in &queries {
                let order: &[bool] = match (traced, pass % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                for &tr in order {
                    let e = run_query(setup, golden, scheme, q, budget, tr, spans);
                    tally.add(&e.outcome, || format!("{name} Q{}", q.id));
                    execs.push(e);
                }
            }
        }
    }
    let elapsed_s = t.elapsed().as_secs_f64();
    let pool = WorkerPool::shared().stats().since(&pool_base);
    ClosedRun { execs, warmup, tally, passes, elapsed_s, pool }
}

impl ClosedRun {
    /// Executions of one scheme with the given tracing, per query.
    fn by_query(&self, scheme: usize, traced: bool) -> Vec<Vec<&Exec>> {
        let mut out: Vec<Vec<&Exec>> = (0..22).map(|_| Vec::new()).collect();
        for e in self.execs.iter().filter(|e| e.scheme == scheme && e.traced == traced) {
            out[e.query].push(e);
        }
        out
    }

    pub fn attribution_gaps(&self) -> usize {
        attribution_gaps(self.execs.iter())
    }

    /// Wall times of the untraced answered executions, ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.execs
            .iter()
            .filter(|e| !e.traced && e.outcome == Outcome::Answered)
            .map(|e| e.wall_ns as f64 / 1e6)
            .collect()
    }

    pub fn end_to_end(&self, v: &mut Values) {
        for (s, name) in SCHEMES.iter().enumerate() {
            scheme_end_to_end(v, name, &self.by_query(s, false));
        }
        let lat = self.latencies();
        v.set("p50_ms", median(&lat));
        v.set("p99_ms", tail(&lat).0);
        // A closed loop's client waits for every reply, so no latency
        // limit applies: goodput is verified answers per second.
        v.set("goodput_qps", lat.len() as f64 / self.elapsed_s);
        v.set("ok_share", self.tally.ok_share());
    }

    pub fn per_layer(&self, v: &mut Values) {
        let mut all_traced = Vec::new();
        for (s, name) in SCHEMES.iter().enumerate() {
            let traced = self.by_query(s, true);
            scheme_layers(v, name, &traced, &self.by_query(s, false));
            all_traced.extend(traced);
        }
        spill_and_pool_layers(v, &all_traced, &self.pool);
    }
}
