//! Hash join (inner, left-outer, semi, anti) with optional residual
//! predicate.
//!
//! The build side is the **right** child, fully materialized and indexed
//! by an allocation-free flat [`JoinIndex`] keyed on the integer join
//! columns; its size is registered with the memory tracker — this is the
//! memory the sandwich variant saves (Figure 3). Under a
//! [`ParallelConfig`] the index build is hash-partitioned across workers
//! (see [`crate::parallel::partition`]) and the **probe** fans out too:
//! rounds of left batches split into row-range probe morsels, workers run
//! the probe kernel over the shared immutable index, and per-morsel match
//! lists concatenate in morsel order — both byte-identical to serial.
//! Semi/Anti probes without a residual use a first-hit existence probe
//! and never gather pair columns.
//! Left-outer joins emit unmatched left rows with defaulted right columns
//! plus a `__matched` 0/1 column (the engine has no NULLs;
//! `COUNT(right.col)` compiles to `SUM(__matched)`).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use bdcc_obs::{OpMetrics, SpanTimer};
use bdcc_storage::{Column, DataType, IoTracker};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::broker::MemoryBroker;
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::govern::Governor;
use crate::hash::JoinIndex;
use crate::kernel::{PairFilter, SelVec};
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, Operator};
use crate::parallel::morsel::split_rows;
use crate::parallel::{merge, pool, ParallelConfig};

#[path = "join_spill.rs"]
mod spill;

use spill::Build;

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Left outer with defaulted right columns and a `__matched` flag.
    LeftOuter,
    /// Emit left rows with at least one (residual-passing) match.
    Semi,
    /// Emit left rows with no (residual-passing) match.
    Anti,
}

/// The `__matched` column name appended by left-outer joins.
pub const MATCHED_COLUMN: &str = "__matched";

/// Materialized build side.
struct BuildSide {
    columns: Vec<Column>,
    index: JoinIndex,
    _mem: MemoryGuard,
}

/// Hash join operator.
pub struct HashJoin {
    left: BoxedOp,
    right: Option<BoxedOp>,
    join_type: JoinType,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Residual over (left ++ right) columns, pre-bound.
    residual: Option<Expr>,
    /// Kernel-compiled residual (see [`crate::kernel`]): evaluates on the
    /// candidate pair selection, gathering only referenced columns, and
    /// shrinks the match lists *before* the output gathers. `None` when
    /// the kernel gate is off or there is no residual — the interpreter
    /// path is used instead (byte-identical results either way).
    pair_filter: Option<PairFilter>,
    schema: OpSchema,
    right_arity: usize,
    /// Build-side column types (for spilled-leaf decoding and left-outer
    /// defaults when the build side lives on disk).
    right_types: Vec<DataType>,
    build: Option<Build>,
    tracker: Arc<MemoryTracker>,
    /// Memory broker (planner-installed). When active, an over-budget
    /// build side freezes its largest hash partitions to spill files and
    /// probes them one restored leaf at a time — see [`crate::broker`].
    broker: MemoryBroker,
    /// Meters spill file writes/reads (planner-installed with the broker;
    /// inert stand-alone tracker by default).
    spill_io: IoTracker,
    /// When set (threads > 1), big build sides are indexed with the
    /// hash-partitioned parallel build and big probe rounds fan out as
    /// probe morsels across workers.
    parallel: Option<ParallelConfig>,
    /// Probed-but-unemitted output batches (a parallel probe round
    /// produces one output batch per probed left batch).
    out: VecDeque<Batch>,
    /// Profiling hook (planner-installed): build-side size and
    /// partitioned-vs-single annotation, probe-morsel counts/latencies.
    /// `None` costs nothing.
    metrics: Option<Arc<OpMetrics>>,
    /// Per-query governance checkpoint, polled once per probe round
    /// (inert by default).
    governor: Governor,
}

impl HashJoin {
    /// Join `left` and `right` on equality of the named key columns.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        on: &[(&str, &str)],
        join_type: JoinType,
        residual: Option<Expr>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<HashJoin> {
        let lschema = left.schema().clone();
        let rschema = right.schema().clone();
        let mut left_keys = Vec::with_capacity(on.len());
        let mut right_keys = Vec::with_capacity(on.len());
        for (l, r) in on {
            left_keys.push(
                crate::batch::schema_index(&lschema, l)
                    .ok_or_else(|| ExecError::UnknownColumn((*l).to_string()))?,
            );
            right_keys.push(
                crate::batch::schema_index(&rschema, r)
                    .ok_or_else(|| ExecError::UnknownColumn((*r).to_string()))?,
            );
        }
        let mut combined = lschema.clone();
        combined.extend(rschema.iter().cloned());
        let residual = match residual {
            Some(e) => Some(e.bind(&combined)?),
            None => None,
        };
        let pair_filter = match (&residual, crate::kernel::kernel_enabled()) {
            (Some(e), true) => Some(PairFilter::new(e, &combined)),
            _ => None,
        };
        let schema = match join_type {
            JoinType::Inner => combined,
            JoinType::LeftOuter => {
                let mut s = combined;
                s.push(ColMeta::new(MATCHED_COLUMN, DataType::Int));
                s
            }
            JoinType::Semi | JoinType::Anti => lschema,
        };
        let right_arity = rschema.len();
        let right_types = rschema.iter().map(|m| m.data_type).collect();
        Ok(HashJoin {
            left,
            right: Some(right),
            join_type,
            left_keys,
            right_keys,
            residual,
            pair_filter,
            schema,
            right_arity,
            right_types,
            build: None,
            tracker,
            broker: MemoryBroker::none(),
            spill_io: IoTracker::new(),
            parallel: None,
            out: VecDeque::new(),
            metrics: None,
            governor: Governor::none(),
        })
    }

    /// Enable the hash-partitioned parallel index build and the
    /// morsel-parallel probe (planner-installed under a
    /// [`ParallelConfig`]; results stay byte-identical).
    pub fn with_parallel(mut self, cfg: Option<ParallelConfig>) -> HashJoin {
        self.parallel = cfg;
        self
    }

    /// Force the residual kernel on or off, overriding the `BDCC_KERNEL`
    /// default picked up by [`HashJoin::new`]. Must be called before the
    /// build side is consumed (i.e. while still building the operator).
    pub fn with_kernel(mut self, on: bool) -> HashJoin {
        self.pair_filter = match (&self.residual, on, &self.right) {
            (Some(e), true, Some(right)) => {
                let mut combined = self.left.schema().clone();
                combined.extend(right.schema().iter().cloned());
                Some(PairFilter::new(e, &combined))
            }
            _ => None,
        };
        self
    }

    /// Attach the profiling metric block (planner-installed).
    pub fn with_metrics(mut self, metrics: Option<Arc<OpMetrics>>) -> HashJoin {
        self.metrics = metrics;
        self
    }

    /// Attach the per-query governor (planner-installed); probe rounds
    /// become cancellation/deadline/budget checkpoints.
    pub fn with_governor(mut self, governor: Governor) -> HashJoin {
        self.governor = governor;
        self
    }

    /// Attach the memory broker and the spill I/O meter
    /// (planner-installed). Under an active broker an over-budget build
    /// side spills — results stay byte-identical.
    pub fn with_broker(mut self, broker: MemoryBroker, io: IoTracker) -> HashJoin {
        self.broker = broker;
        self.spill_io = io;
        self
    }

    fn build_side(&mut self) -> Result<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut right = self.right.take().expect("build side consumed once");
        let mut columns: Vec<Column> =
            self.right_types.iter().map(|&dt| Column::empty(dt)).collect();
        // Under an active broker the accumulating payload is registered as
        // it drains so pressure is visible; the moment a pending batch
        // would push tracked memory past the high-water mark, the build
        // switches to the partitioned spill drain (`join_spill`). An
        // inactive broker never fires and this loop is the unchanged
        // in-memory drain.
        let mut drain_mem = self.broker.is_active().then(|| self.tracker.register(0));
        let mut pending = None;
        while let Some(batch) = right.next()? {
            let bytes = spill::est_cols(&batch.columns);
            if self.broker.should_spill(bytes) {
                pending = Some(batch);
                break;
            }
            for (dst, src) in columns.iter_mut().zip(&batch.columns) {
                dst.append(src)?;
            }
            if let Some(g) = &mut drain_mem {
                g.resize(spill::est_cols(&columns));
            }
        }
        if let Some(first) = pending {
            let guard = drain_mem.take().expect("spill fires only under an active broker");
            let spilled = self.build_spilled(right, columns, guard, first)?;
            self.build = Some(Build::Spilled(spilled));
            return Ok(());
        }
        drop(drain_mem);
        let key_cols: Vec<&[i64]> = self
            .right_keys
            .iter()
            .map(|&k| columns[k].as_i64())
            .collect::<std::result::Result<_, _>>()?;
        let index = JoinIndex::build(&key_cols, self.parallel.as_ref())?;
        if let Some(m) = &self.metrics {
            let rows = columns.first().map_or(0, |c| c.len());
            m.annotate("build_rows", rows.to_string());
            m.annotate(
                "build",
                match index.partition_count() {
                    1 => "single".to_string(),
                    n => format!("partitioned({n})"),
                },
            );
        }
        // Hash-table memory: materialized payload + the index's flat
        // arrays (buckets, chains, packed keys, partition row ids).
        let payload: u64 = spill::est_cols(&columns);
        let mem = self.tracker.register(payload + index.estimated_bytes());
        self.build = Some(Build::Mem(BuildSide { columns, index, _mem: mem }));
        Ok(())
    }
}

impl HashJoin {
    /// Pull the next round of probe batches from the left child: exactly
    /// one batch for a serial probe (the unchanged one-batch-at-a-time
    /// pipeline), or roughly `threads × morsel_rows` rows for a parallel
    /// probe — enough work for the fan-out while keeping probe-side
    /// buffering O(threads × morsel).
    fn fill_round(&mut self) -> Result<Vec<Batch>> {
        let mut target = match &self.parallel {
            Some(cfg) if cfg.threads > 1 => cfg.threads * cfg.morsel_rows,
            _ => 0,
        };
        if matches!(self.build, Some(Build::Spilled(_))) {
            // A spilled build restores every file leaf once per round:
            // bigger rounds amortize the restores while probe-side
            // buffering stays bounded.
            target = target.max(8192);
        }
        let mut round = Vec::new();
        let mut rows = 0usize;
        while let Some(b) = self.left.next()? {
            rows += b.rows();
            round.push(b);
            if rows >= target.max(1) {
                break;
            }
        }
        Ok(round)
    }

    /// Probe one round — serially batch-at-a-time, or (for a big-enough
    /// round under a parallel config) fanned out as `(batch, row range)`
    /// probe morsels. Per-morsel match lists concatenate in morsel order,
    /// and the per-batch output assembly (the column gathers) fans out as
    /// pool tasks as well, appending outputs in batch order — so each
    /// batch's output is byte-identical to the serial probe's.
    fn probe_round(&self, round: &[Batch]) -> Result<Vec<Batch>> {
        self.governor.check("probe-round")?;
        let build = match self.build.as_ref().expect("built") {
            Build::Mem(b) => b,
            Build::Spilled(s) => return self.probe_round_spilled(s, round),
        };
        let total: usize = round.iter().map(|b| b.rows()).sum();
        let fan_out = match &self.parallel {
            Some(cfg) if cfg.worth_splitting(total) => Some(cfg),
            _ => None,
        };
        let Some(cfg) = fan_out else {
            return round
                .iter()
                .map(|batch| {
                    let (lidx, ridx) = probe_range(
                        batch,
                        build,
                        &self.left_keys,
                        self.join_type,
                        self.residual.as_ref(),
                        self.pair_filter.as_ref(),
                        0..batch.rows(),
                    )?;
                    finish_batch(batch, build, self.join_type, self.right_arity, &lidx, &ridx)
                })
                .collect();
        };
        // Batch-major (batch, row range) probe pieces, coalesced into
        // tasks of roughly one morsel of rows: a run of tiny batches (a
        // selective filter upstream) shares one task instead of paying a
        // queue op and a fan-out slot per batch.
        let mut tasks: Vec<Vec<(usize, Range<usize>)>> = Vec::new();
        let mut cur: Vec<(usize, Range<usize>)> = Vec::new();
        let mut cur_rows = 0usize;
        for (bi, batch) in round.iter().enumerate() {
            for r in split_rows(batch.rows(), cfg.morsel_rows) {
                cur_rows += r.len();
                cur.push((bi, r));
                if cur_rows >= cfg.morsel_rows {
                    tasks.push(std::mem::take(&mut cur));
                    cur_rows = 0;
                }
            }
        }
        if !cur.is_empty() {
            tasks.push(cur);
        }
        // Capture only `Sync` plan data, not `self` (the child operators
        // are not shareable).
        let (left_keys, join_type) = (&self.left_keys, self.join_type);
        let residual = self.residual.as_ref();
        let pair_filter = self.pair_filter.as_ref();
        let metrics = self.metrics.as_ref();
        let per: Vec<Vec<ProbePiece>> =
            pool::run_tasks_labeled(cfg.threads, tasks.len(), "join-probe", |t| {
                let span = metrics.map(|_| SpanTimer::start());
                let pieces: Result<Vec<ProbePiece>> = tasks[t]
                    .iter()
                    .map(|(bi, range)| {
                        let lists = probe_range(
                            &round[*bi],
                            build,
                            left_keys,
                            join_type,
                            residual,
                            pair_filter,
                            range.clone(),
                        )?;
                        Ok((*bi, lists))
                    })
                    .collect();
                if let (Some(m), Some(span)) = (metrics, span) {
                    m.morsels.add(1);
                    m.morsel_rows.add(tasks[t].iter().map(|(_, r)| r.len() as u64).sum());
                    m.morsel_nanos.record(span.elapsed_nanos());
                }
                pieces
            })?;
        // Pieces flatten back in batch-major, range-ascending order
        // whatever the task boundaries were; group them per batch, then
        // fan the per-batch output assembly (match-list concat + column
        // gathers) out as pool tasks too — the gathers are the dominant
        // cost of a residual-free inner join round, and each batch's
        // assembly is independent. `run_tasks` returns in batch order, so
        // the appended outputs are byte-identical to the serial probe's.
        let mut pieces = per.into_iter().flatten().peekable();
        let mut grouped: Vec<Mutex<Vec<MatchLists>>> = Vec::with_capacity(round.len());
        for bi in 0..round.len() {
            let mut lists = Vec::new();
            while pieces.peek().is_some_and(|(pbi, _)| *pbi == bi) {
                lists.push(pieces.next().expect("peeked").1);
            }
            grouped.push(Mutex::new(lists));
        }
        let (right_arity, join_type) = (self.right_arity, self.join_type);
        pool::run_tasks_labeled(cfg.threads, round.len(), "join-assemble", |bi| {
            // Each gather task *takes* its batch's match lists (tasks are
            // per-batch, so the one lock is uncontended and the lists are
            // never copied).
            let lists = std::mem::take(&mut *grouped[bi].lock().expect("match lists poisoned"));
            let (lidx, ridx) = merge::concat_match_lists(lists);
            finish_batch(&round[bi], build, join_type, right_arity, &lidx, &ridx)
        })
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        self.build_side()?;
        loop {
            while let Some(b) = self.out.pop_front() {
                if b.rows() > 0 {
                    return Ok(Some(b));
                }
            }
            let round = self.fill_round()?;
            if round.is_empty() {
                if let (Some(pf), Some(m)) = (&self.pair_filter, &self.metrics) {
                    pf.annotate(m);
                }
                return Ok(None);
            }
            let outs = self.probe_round(&round)?;
            self.out.extend(outs);
        }
    }
}

/// Match lists of one probe piece or batch: `(left rows, build rows)`,
/// post-residual, in probe order.
type MatchLists = (Vec<usize>, Vec<u32>);

/// One probe piece: the originating batch index in the round plus the
/// piece's (post-residual) match lists.
type ProbePiece = (usize, MatchLists);

/// Do we need full `(left, right)` pair lists, or only per-row existence?
/// Semi/Anti without a residual only ask *whether* a row matches.
fn needs_pairs(join_type: JoinType, residual: Option<&Expr>) -> bool {
    !matches!(join_type, JoinType::Semi | JoinType::Anti) || residual.is_some()
}

/// Probe rows `range` of `left` against the build index and return the
/// match lists with the residual already applied — the per-morsel probe
/// kernel (also the whole-batch kernel when `range` spans the batch).
///
/// Semi/Anti without a residual take the existence fast path: a first-hit
/// [`JoinIndex::has_match`] per row, no pair lists and **no column
/// gathers** — `ridx` comes back empty and `lidx` lists the matched rows.
fn probe_range(
    left: &Batch,
    build: &BuildSide,
    left_keys: &[usize],
    join_type: JoinType,
    residual: Option<&Expr>,
    pair_filter: Option<&PairFilter>,
    range: Range<usize>,
) -> Result<(Vec<usize>, Vec<u32>)> {
    let key_cols: Vec<&[i64]> = left_keys
        .iter()
        .map(|&k| left.columns[k].as_i64())
        .collect::<std::result::Result<_, _>>()?;
    if !needs_pairs(join_type, residual) {
        let mut lidx = Vec::new();
        build.index.probe_exists(&key_cols, range, &mut lidx);
        return Ok((lidx, Vec::new()));
    }
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<u32> = Vec::new();
    build.index.probe_pairs(&key_cols, range, &mut lidx, &mut ridx);
    if let Some(pf) = pair_filter {
        // Kernel path: only the residual's referenced columns are
        // gathered for the candidate pairs, and the match lists shrink
        // before the output gathers. Survivors keep probe order.
        let left_arity = left.arity();
        let sel = pf.select_pairs(lidx.len(), |c| {
            Ok(if c < left_arity {
                left.columns[c].gather(&lidx)
            } else {
                build.columns[c - left_arity].gather_u32(&ridx)
            })
        })?;
        if let SelVec::Rows(rows) = sel {
            lidx = rows.iter().map(|&i| lidx[i as usize]).collect();
            ridx = rows.iter().map(|&i| ridx[i as usize]).collect();
        }
    } else if let Some(filter) = residual {
        // Evaluate the residual over the candidate pairs of this morsel
        // only; survivors keep their (ascending) probe order.
        let mut cols: Vec<Column> = left.columns.iter().map(|c| c.gather(&lidx)).collect();
        for rc in &build.columns {
            cols.push(rc.gather_u32(&ridx));
        }
        let keep = filter.eval_bool(&Batch::new(cols))?;
        let mut k = 0;
        lidx.retain(|_| {
            let r = keep[k];
            k += 1;
            r
        });
        let mut k = 0;
        ridx.retain(|_| {
            let r = keep[k];
            k += 1;
            r
        });
    }
    Ok((lidx, ridx))
}

/// Assemble a left batch's output from its (post-residual) match lists.
/// Semi/Anti never gather pair columns — the match list alone decides
/// which left rows survive.
fn finish_batch(
    left: &Batch,
    build: &BuildSide,
    join_type: JoinType,
    right_arity: usize,
    lidx: &[usize],
    ridx: &[u32],
) -> Result<Batch> {
    let rows = left.rows();
    let pair_cols = |lidx: &[usize], ridx: &[u32]| -> Vec<Column> {
        let mut cols: Vec<Column> = left.columns.iter().map(|c| c.gather(lidx)).collect();
        for rc in &build.columns {
            cols.push(rc.gather_u32(ridx));
        }
        cols
    };
    match join_type {
        JoinType::Inner => Ok(Batch::new(pair_cols(lidx, ridx))),
        JoinType::Semi | JoinType::Anti => {
            let mut matched = vec![false; rows];
            for &l in lidx {
                matched[l] = true;
            }
            let keep: Vec<bool> = match join_type {
                JoinType::Semi => matched,
                _ => matched.iter().map(|&m| !m).collect(),
            };
            Ok(left.filter(&keep))
        }
        JoinType::LeftOuter => {
            // Matched pairs with flag 1.
            let mut cols = pair_cols(lidx, ridx);
            cols.push(Column::from_i64(vec![1; lidx.len()]));
            let mut out = Batch::new(cols);
            let mut matched = vec![false; rows];
            for &l in lidx {
                matched[l] = true;
            }
            let unmatched: Vec<usize> = (0..rows).filter(|&r| !matched[r]).collect();
            // Unmatched left rows with defaulted right columns and flag 0.
            if !unmatched.is_empty() {
                let mut ucols: Vec<Column> =
                    left.columns.iter().map(|c| c.gather(&unmatched)).collect();
                for rc in build.columns.iter().take(right_arity) {
                    ucols.push(default_column(rc.data_type(), unmatched.len()));
                }
                ucols.push(Column::from_i64(vec![0; unmatched.len()]));
                let ub = Batch::new(ucols);
                for (dst, src) in out.columns.iter_mut().zip(&ub.columns) {
                    dst.append(src)?;
                }
            }
            Ok(out)
        }
    }
}

fn default_column(dt: DataType, n: usize) -> Column {
    match dt {
        DataType::Int => Column::from_i64(vec![0; n]),
        DataType::Date => Column::from_dates(vec![0; n]),
        DataType::Float => Column::from_f64(vec![0.0; n]),
        DataType::Str => Column::from_strings(vec![String::new(); n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;

    struct Source {
        schema: OpSchema,
        batches: Vec<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>) -> Source {
            let schema = cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let batch = Batch::new(cols.into_iter().map(|(_, c)| c).collect());
            Source { schema, batches: vec![batch] }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.pop())
        }
    }

    fn orders() -> Source {
        Source::new(vec![
            ("o_orderkey", Column::from_i64(vec![1, 2, 3, 4])),
            ("o_custkey", Column::from_i64(vec![10, 20, 10, 30])),
        ])
    }

    fn customers() -> Source {
        Source::new(vec![
            ("c_custkey", Column::from_i64(vec![10, 20])),
            ("c_name", Column::from_strings(vec!["alice".into(), "bob".into()])),
        ])
    }

    #[test]
    fn inner_join_matches_pairs() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3); // orders 1,2,3 match; 4 has no customer
        let keys = out.columns[0].as_i64().unwrap();
        assert_eq!(keys, &[1, 2, 3]);
        assert_eq!(out.columns[3].as_str().unwrap()[0], "alice");
        assert!(t.peak() > 0, "build side must be tracked");
        assert_eq!(t.current(), 0, "memory released after drop");
    }

    #[test]
    fn semi_and_anti() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Semi,
            None,
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.arity(), 2); // left columns only

        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            None,
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[4]);
    }

    #[test]
    fn left_outer_flags_unmatched() {
        let t = MemoryTracker::new();
        let j = HashJoin::new(
            Box::new(customers()),
            Box::new(Source::new(vec![
                ("o_custkey", Column::from_i64(vec![10, 10])),
                ("o_orderkey", Column::from_i64(vec![100, 101])),
            ])),
            &[("c_custkey", "o_custkey")],
            JoinType::LeftOuter,
            None,
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // alice matches twice, bob zero times (defaulted + flag 0).
        assert_eq!(out.rows(), 3);
        let matched = out.columns.last().unwrap().as_i64().unwrap();
        assert_eq!(matched.iter().sum::<i64>(), 2);
    }

    #[test]
    fn residual_restricts_matches() {
        let t = MemoryTracker::new();
        // Join orders to customers but require o_orderkey >= 3.
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            Some(Expr::col("o_orderkey").ge(Expr::lit(3))),
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[3]);
    }

    #[test]
    fn anti_with_residual_is_not_exists() {
        let t = MemoryTracker::new();
        // NOT EXISTS (customer with same key and name 'alice').
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Anti,
            Some(Expr::col("c_name").eq(Expr::lit("alice"))),
            t,
        )
        .unwrap();
        let out = collect(Box::new(j)).unwrap();
        // Orders 2 (bob) and 4 (no customer) survive.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[2, 4]);
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        // Tiny morsel budget forces the partitioned build even at this
        // scale; every join flavor must match the serial output exactly.
        let cfg = ParallelConfig { threads: 4, morsel_rows: 1, agg_radix: None };
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            let serial = collect(Box::new(
                HashJoin::new(
                    Box::new(orders()),
                    Box::new(customers()),
                    &[("o_custkey", "c_custkey")],
                    jt,
                    None,
                    MemoryTracker::new(),
                )
                .unwrap(),
            ))
            .unwrap();
            let parallel = collect(Box::new(
                HashJoin::new(
                    Box::new(orders()),
                    Box::new(customers()),
                    &[("o_custkey", "c_custkey")],
                    jt,
                    None,
                    MemoryTracker::new(),
                )
                .unwrap()
                .with_parallel(Some(cfg.clone())),
            ))
            .unwrap();
            assert_eq!(serial, parallel, "{jt:?}");
        }
    }

    /// Multi-batch chunked source for probe-round tests.
    struct Chunked {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Chunked {
        fn new(rows: &[(i64, i64)], names: (&str, &str), chunk: usize) -> Chunked {
            let schema =
                vec![ColMeta::new(names.0, DataType::Int), ColMeta::new(names.1, DataType::Int)];
            let batches: Vec<Batch> = rows
                .chunks(chunk)
                .map(|c| {
                    Batch::new(vec![
                        Column::from_i64(c.iter().map(|r| r.0).collect()),
                        Column::from_i64(c.iter().map(|r| r.1).collect()),
                    ])
                })
                .collect();
            Chunked { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Chunked {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    #[test]
    fn parallel_probe_rounds_are_byte_identical() {
        // Many small left batches force multi-batch probe rounds, and
        // morsel_rows 8 splits batches into several probe morsels; with
        // and without a residual, every flavor must equal serial exactly.
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8, agg_radix: None };
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for residual in [false, true] {
                let res =
                    residual.then(|| Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1020))));
                let serial = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res.clone(),
                        MemoryTracker::new(),
                    )
                    .unwrap(),
                ))
                .unwrap();
                let parallel = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res,
                        MemoryTracker::new(),
                    )
                    .unwrap()
                    .with_parallel(Some(cfg.clone())),
                ))
                .unwrap();
                assert_eq!(serial, parallel, "{jt:?} residual={residual}");
            }
        }
    }

    #[test]
    fn residual_kernel_matches_interpreter() {
        // Sargable residual (kernel leaf) and non-sargable residual
        // (fallback over the pair selection): kernel on vs. off must be
        // byte-identical for every flavor, serial and parallel.
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let residuals: Vec<Expr> = vec![
            Expr::col("rv").ge(Expr::lit(1030)),
            Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1020))),
        ];
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8, agg_radix: None };
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for res in &residuals {
                for parallel in [None, Some(cfg.clone())] {
                    let run = |kernel: bool| {
                        collect(Box::new(
                            HashJoin::new(
                                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                                &[("lk", "rk")],
                                jt,
                                Some(res.clone()),
                                MemoryTracker::new(),
                            )
                            .unwrap()
                            .with_kernel(kernel)
                            .with_parallel(parallel.clone()),
                        ))
                        .unwrap()
                    };
                    assert_eq!(run(true), run(false), "{jt:?} {res:?}");
                }
            }
        }
    }

    #[test]
    fn spilled_build_is_byte_identical_for_every_flavor() {
        use crate::broker::SpillMode;
        use bdcc_storage::live_spill_files;
        let _serial = crate::global_state_lock();
        // Build side big enough to scatter across many partitions; left
        // side chunked so multiple probe rounds hit the restored leaves.
        let left: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, i)).collect();
        let right: Vec<(i64, i64)> = (0..300).map(|i| (i % 53, 1000 + i)).collect();
        let base = live_spill_files();
        for jt in [JoinType::Inner, JoinType::LeftOuter, JoinType::Semi, JoinType::Anti] {
            for residual in [false, true] {
                let res =
                    residual.then(|| Expr::col("lv").ge(Expr::col("rv").sub(Expr::lit(1150))));
                let serial = collect(Box::new(
                    HashJoin::new(
                        Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                        Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                        &[("lk", "rk")],
                        jt,
                        res.clone(),
                        MemoryTracker::new(),
                    )
                    .unwrap(),
                ))
                .unwrap();
                // Force: everything freezes. Tiny auto budget: freeze +
                // recursive split on restore (4 KB budget → 2 KB leaves).
                let brokers: Vec<(&str, SpillMode, Option<u64>)> = vec![
                    ("force", SpillMode::Force, None),
                    ("tiny-auto", SpillMode::Auto, Some(4096)),
                ];
                for (name, mode, budget) in brokers {
                    let tracker = MemoryTracker::new();
                    let io = IoTracker::new();
                    let spilled = collect(Box::new(
                        HashJoin::new(
                            Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                            Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                            &[("lk", "rk")],
                            jt,
                            res.clone(),
                            Arc::clone(&tracker),
                        )
                        .unwrap()
                        .with_broker(MemoryBroker::with_mode(mode, &tracker, budget), io.clone()),
                    ))
                    .unwrap();
                    assert_eq!(serial, spilled, "{jt:?} residual={residual} {name}");
                    assert_eq!(
                        live_spill_files(),
                        base,
                        "{jt:?} residual={residual} {name}: temp files must unlink"
                    );
                    assert_eq!(tracker.current(), 0, "{name}: memory must release");
                    assert!(
                        io.stats().bytes_read > 0,
                        "{jt:?} {name}: spill traffic must be metered"
                    );
                }
            }
        }
    }

    #[test]
    fn spilled_build_under_parallel_probe_matches() {
        use crate::broker::SpillMode;
        let _serial = crate::global_state_lock();
        // Broker + parallel config: the spilled probe path is serial but
        // must still be byte-identical to the parallel in-memory one.
        let left: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, i)).collect();
        let right: Vec<(i64, i64)> = (0..60).map(|i| (i % 31, 1000 + i)).collect();
        let cfg = ParallelConfig { threads: 4, morsel_rows: 8, agg_radix: None };
        let serial = collect(Box::new(
            HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                JoinType::Inner,
                None,
                MemoryTracker::new(),
            )
            .unwrap(),
        ))
        .unwrap();
        let tracker = MemoryTracker::new();
        let spilled = collect(Box::new(
            HashJoin::new(
                Box::new(Chunked::new(&left, ("lk", "lv"), 13)),
                Box::new(Chunked::new(&right, ("rk", "rv"), 7)),
                &[("lk", "rk")],
                JoinType::Inner,
                None,
                Arc::clone(&tracker),
            )
            .unwrap()
            .with_parallel(Some(cfg))
            .with_broker(
                MemoryBroker::with_mode(SpillMode::Force, &tracker, None),
                IoTracker::new(),
            ),
        ))
        .unwrap();
        assert_eq!(serial, spilled);
    }

    #[test]
    fn roomy_auto_budget_never_spills() {
        use crate::broker::SpillMode;
        use bdcc_storage::live_spill_files;
        let _serial = crate::global_state_lock();
        let tracker = MemoryTracker::new();
        let io = IoTracker::new();
        let base = live_spill_files();
        let j = HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("o_custkey", "c_custkey")],
            JoinType::Inner,
            None,
            Arc::clone(&tracker),
        )
        .unwrap()
        .with_broker(MemoryBroker::with_mode(SpillMode::Auto, &tracker, Some(1 << 30)), io.clone());
        let out = collect(Box::new(j)).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(live_spill_files(), base);
        assert_eq!(io.stats().bytes_read, 0, "no spill traffic under a roomy budget");
    }

    #[test]
    fn unknown_key_rejected() {
        let t = MemoryTracker::new();
        assert!(HashJoin::new(
            Box::new(orders()),
            Box::new(customers()),
            &[("nope", "c_custkey")],
            JoinType::Inner,
            None,
            t,
        )
        .is_err());
    }
}
