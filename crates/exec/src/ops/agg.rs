//! Aggregation: hash, streaming, and sandwich variants over one
//! batch-at-a-time core.
//!
//! * [`HashAggregate`] — the baseline: one hash table over the whole input;
//!   its size is what Figure 3 charges the Plain scheme for.
//! * [`StreamingAggregate`] — input already sorted on the group-by prefix
//!   (the PK scheme's Q18); constant memory.
//! * [`SandwichAggregate`] — input pre-grouped on dimension bits that the
//!   group-by keys *functionally determine* (ref [3]): the hash table is
//!   flushed at every group boundary, so it only ever holds one
//!   co-cluster's worth of groups.
//! * [`PartialAgg`] — the same core as a morsel-parallel partial state
//!   (merge side in [`crate::parallel::merge`]).
//!
//! # The batch contract
//!
//! Every variant drives one `AggCore`, which folds a batch (or a row range
//! of one) in three steps, none of which allocates per row:
//!
//! 1. **Inputs**, evaluated once per batch: a plain column is borrowed and
//!    `COUNT` over a literal reads nothing.
//! 2. **Group ids**: one table lookup maps each row to a dense `u32` id —
//!    id 0 for a global aggregate, an `i64 → u32` map for one integer,
//!    date or float-bits key, else a map over the key packed into a reused
//!    buffer in [`crate::hash::hash_group_row`]'s order (integer-backed
//!    values as 8 bytes, then each string and a `0xff` terminator). Key
//!    values are copied only when a group is created. The streaming
//!    variant needs no table: each run of equal keys is one group.
//! 3. **Accumulators**: one typed vector per aggregate indexed by group id
//!    (`i64` sums, Neumaier-compensated float sums, counts, min/max values,
//!    distinct sets), updated by one tight loop over the batch's ids.
//!
//! Ids are handed out in first-seen order and each group folds its rows in
//! stream order, so a flush emits groups in first-seen order with values
//! independent of batch boundaries. Each group's first stream position
//! (`first_seen`) lets radix partitions restore the serial order
//! ([`crate::parallel::merge::concat_radix_partitions`]). An aggregate that
//! cannot fold its input type fails at bind time with [`ExecError::Type`].

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use bdcc_storage::{Column, DataType};

use crate::batch::{Batch, ColMeta, OpSchema};
use crate::error::{ExecError, Result};
use crate::expr::Expr;
use crate::hash::FxBuildHasher;
use crate::memory::{MemoryGuard, MemoryTracker};
use crate::ops::{BoxedOp, Operator};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Avg,
    Min,
    Max,
    Count,
    /// COUNT(DISTINCT expr) over integer-backed expressions.
    CountDistinct,
}

/// One output aggregate: function, input expression, output name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Expr,
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: Expr, name: &str) -> AggSpec {
        AggSpec { func, input, name: name.to_string() }
    }
}

/// Neumaier-compensated sum of `n` values: accumulates the rounding error
/// of `sum += v` into `c`. Makes float sums accurate to ~1 ulp of the true
/// value regardless of accumulation order, which is what lets
/// morsel-parallel partial aggregates merge without observable drift from
/// the serial result.
#[derive(Debug, Clone, Copy, Default)]
struct Compensated {
    sum: f64,
    c: f64,
    n: u64,
}

impl Compensated {
    #[inline]
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.c += (self.sum - t) + v;
        } else {
            self.c += (v - t) + self.sum;
        }
        self.sum = t;
        self.n += 1;
    }

    fn merge(&mut self, other: Compensated) {
        let n = self.n + other.n;
        self.add(other.sum);
        self.add(other.c);
        self.n = n;
    }

    fn value(self) -> f64 {
        self.sum + self.c
    }
}

/// Does `v` replace `cur` as the running min (`min`) or max? Strict, so
/// ties keep the first-seen value.
fn better<T: PartialOrd>(min: bool, v: &T, cur: &T) -> bool {
    if min {
        v < cur
    } else {
        v > cur
    }
}

/// [`better`] for floats in IEEE `total_cmp` order, as
/// [`bdcc_storage::Datum::total_cmp`] orders them.
fn better_f(min: bool, v: f64, cur: f64) -> bool {
    better(min, &v.total_cmp(&cur), &std::cmp::Ordering::Equal)
}

/// The per-batch accumulator loop: `f(state of row's group, row's value)`
/// for every row of a range and its group ids.
fn each<S, T>(states: &mut [S], ids: &[u32], vals: &[T], f: impl Fn(&mut S, &T)) {
    for (&g, v) in ids.iter().zip(vals) {
        f(&mut states[g as usize], v);
    }
}

/// One aggregate's state for every group, indexed by group id. A fresh
/// min/max slot holds its order's far end: `i64::MAX`/`MIN`, or for
/// floats the all-ones positive/negative NaN (`total_cmp`'s extremes).
#[derive(Debug)]
enum Acc {
    SumI(Vec<i64>),
    /// A float sum, finished as the mean when the flag is set (AVG).
    SumF(Vec<Compensated>, bool),
    Count(Vec<u64>),
    /// Min (`true`) or max over integer-backed values.
    MinMaxI(Vec<i64>, bool),
    MinMaxF(Vec<f64>, bool),
    MinMaxS(Vec<Option<String>>, bool),
    Distinct(Vec<HashSet<i64, FxBuildHasher>>),
}

impl Acc {
    /// The state `func` keeps over inputs of type `dt`, or a type error
    /// when `func` cannot fold `dt` (bind-time check).
    fn new(func: AggFunc, dt: DataType) -> Result<Acc> {
        use DataType::*;
        let min = func == AggFunc::Min;
        Ok(match (func, dt) {
            (AggFunc::Sum, Float) => Acc::SumF(Vec::new(), false),
            (AggFunc::Sum, Int | Date) => Acc::SumI(Vec::new()),
            (AggFunc::Avg, Int | Date | Float) => Acc::SumF(Vec::new(), true),
            (AggFunc::Min | AggFunc::Max, Int | Date) => Acc::MinMaxI(Vec::new(), min),
            (AggFunc::Min | AggFunc::Max, Float) => Acc::MinMaxF(Vec::new(), min),
            (AggFunc::Min | AggFunc::Max, Str) => Acc::MinMaxS(Vec::new(), min),
            (AggFunc::Count, _) => Acc::Count(Vec::new()),
            (AggFunc::CountDistinct, Int | Date) => Acc::Distinct(Vec::new()),
            (func, dt) => {
                return Err(ExecError::Type(format!("{func:?} over a {} input", dt.name())))
            }
        })
    }

    /// Extend to `n` groups with fresh slots.
    fn grow(&mut self, n: usize) {
        match self {
            Acc::SumI(v) => v.resize(n, 0),
            Acc::SumF(v, _) => v.resize(n, Compensated::default()),
            Acc::Count(v) => v.resize(n, 0),
            Acc::MinMaxI(v, min) => v.resize(n, if *min { i64::MAX } else { i64::MIN }),
            Acc::MinMaxF(v, min) => v.resize(n, f64::from_bits(u64::MAX >> *min as u32)),
            Acc::MinMaxS(v, _) => v.resize(n, None),
            Acc::Distinct(v) => v.resize_with(n, Default::default),
        }
    }

    /// Fold rows `range` of `input` into groups `ids` (one id per row of
    /// the range). `input` is `None` only for `COUNT` over a literal; a
    /// column of another type than the state's is a type error.
    fn update(&mut self, ids: &[u32], input: Option<&Column>, range: Range<usize>) -> Result<()> {
        match (self, input) {
            (Acc::Count(n), _) => ids.iter().for_each(|&g| n[g as usize] += 1),
            (Acc::SumI(a), Some(Column::I64 { values, .. })) => {
                each(a, ids, &values[range], |s, v| *s += v)
            }
            (Acc::SumF(a, _), Some(Column::F64(values))) => {
                each(a, ids, &values[range], |s, &v| s.add(v))
            }
            (Acc::SumF(a, true), Some(Column::I64 { values, .. })) => {
                each(a, ids, &values[range], |s, &v| s.add(v as f64))
            }
            (Acc::MinMaxI(a, min), Some(Column::I64 { values, .. })) => {
                each(a, ids, &values[range], |s, &v| *s = if better(*min, &v, s) { v } else { *s })
            }
            (Acc::MinMaxF(a, min), Some(Column::F64(values))) => {
                each(a, ids, &values[range], |s, &v| {
                    *s = if better_f(*min, v, *s) { v } else { *s }
                })
            }
            (Acc::MinMaxS(a, min), Some(Column::Str(values))) => {
                each(a, ids, &values[range], |s, v| {
                    if s.as_ref().is_none_or(|cur| better(*min, v, cur)) {
                        *s = Some(v.clone());
                    }
                })
            }
            (Acc::Distinct(a), Some(Column::I64 { values, .. })) => {
                each(a, ids, &values[range], |s, &v| {
                    s.insert(v);
                })
            }
            (_, input) => {
                let actual = input.map_or("no", |c| c.data_type().name());
                return Err(ExecError::Type(format!(
                    "aggregate state cannot fold a {actual} input"
                )));
            }
        }
        Ok(())
    }

    /// Fold `other`'s group `g` into this state's group `map[g]`, in place.
    /// Groups numbered `fresh` or above are new here and take `other`'s
    /// state as it is; older ones fold (exact for every function except
    /// float sums, which the compensation keeps within ~1 ulp of serial).
    fn merge(&mut self, other: Acc, map: &[u32], fresh: u32) -> Result<()> {
        fn fold<T>(mine: &mut [T], theirs: Vec<T>, map: &[u32], fresh: u32, f: impl Fn(&mut T, T)) {
            for (v, &dst) in theirs.into_iter().zip(map) {
                let slot = &mut mine[dst as usize];
                if dst >= fresh {
                    *slot = v;
                } else {
                    f(slot, v);
                }
            }
        }
        match (self, other) {
            (Acc::SumI(a), Acc::SumI(b)) => fold(a, b, map, fresh, |x, y| *x += y),
            (Acc::SumF(a, _), Acc::SumF(b, _)) => fold(a, b, map, fresh, |x, y| x.merge(y)),
            (Acc::Count(a), Acc::Count(b)) => fold(a, b, map, fresh, |x, y| *x += y),
            (Acc::MinMaxI(a, min), Acc::MinMaxI(b, _)) => {
                fold(a, b, map, fresh, |x, y| *x = if better(*min, &y, x) { y } else { *x })
            }
            (Acc::MinMaxF(a, min), Acc::MinMaxF(b, _)) => {
                fold(a, b, map, fresh, |x, y| *x = if better_f(*min, y, *x) { y } else { *x })
            }
            (Acc::MinMaxS(a, min), Acc::MinMaxS(b, _)) => fold(a, b, map, fresh, |x, y| {
                if y.as_ref().is_some_and(|y| x.as_ref().is_none_or(|x| better(*min, y, x))) {
                    *x = y;
                }
            }),
            (Acc::Distinct(a), Acc::Distinct(b)) => fold(a, b, map, fresh, |x, y| x.extend(y)),
            _ => return Err(ExecError::Type("merging mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// Drain every group's final value into a column of type `out`.
    fn finish(&mut self, out: DataType) -> Column {
        use std::mem::take;
        match self {
            Acc::SumI(v) => Column::from_i64(take(v)),
            Acc::SumF(v, false) => Column::from_f64(v.drain(..).map(Compensated::value).collect()),
            Acc::SumF(v, true) => Column::from_f64(
                v.drain(..).map(|s| if s.n == 0 { 0.0 } else { s.value() / s.n as f64 }).collect(),
            ),
            Acc::Count(v) => Column::from_i64(v.drain(..).map(|n| n as i64).collect()),
            Acc::MinMaxI(v, _) if out == DataType::Date => Column::from_dates(take(v)),
            Acc::MinMaxI(v, _) => Column::from_i64(take(v)),
            Acc::MinMaxF(v, _) => Column::from_f64(take(v)),
            Acc::MinMaxS(v, _) => {
                Column::from_strings(v.drain(..).map(Option::unwrap_or_default).collect())
            }
            Acc::Distinct(v) => Column::from_i64(v.drain(..).map(|s| s.len() as i64).collect()),
        }
    }

    /// Estimated bytes of the first-seen group's state (memory accounting).
    fn first_group_bytes(&self) -> u64 {
        match self {
            Acc::Distinct(sets) => 16 + sets.first().map_or(0, |s| s.len() as u64 * 16),
            _ => 16,
        }
    }
}

/// Output type of an aggregate over an input of type `dt`.
fn agg_output_type(func: AggFunc, dt: DataType) -> DataType {
    match func {
        AggFunc::Sum => {
            if dt == DataType::Float {
                DataType::Float
            } else {
                DataType::Int
            }
        }
        AggFunc::Avg => DataType::Float,
        AggFunc::Min | AggFunc::Max => dt,
        AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
    }
}

/// Maps key values to dense group ids (see the module doc).
enum GroupTable {
    /// No group-by: every row is group 0.
    Global,
    /// One integer, date or float key (floats by bit pattern, so `NaN`,
    /// `-0.0` and `0.0` are three groups).
    Int(HashMap<i64, u32, FxBuildHasher>),
    /// Any other key, packed by [`pack_key`] into the reused `buf`.
    Packed { map: HashMap<Box<[u8]>, u32, FxBuildHasher>, buf: Vec<u8> },
}

/// Pack row `r` of the key columns into `buf` in the shared group-key
/// codec's order: integer-backed values (floats as bits) as 8 bytes each,
/// then each string's bytes and a `0xff` terminator. UTF-8 never contains
/// `0xff`, so distinct keys pack to distinct bytes (`("a", "bc")` and
/// `("ab", "c")` differ).
#[inline]
fn pack_key(buf: &mut Vec<u8>, cols: &[&Column], r: usize) {
    buf.clear();
    for col in cols {
        match col {
            Column::I64 { values, .. } => buf.extend_from_slice(&values[r].to_le_bytes()),
            Column::F64(values) => buf.extend_from_slice(&values[r].to_bits().to_le_bytes()),
            Column::Str(_) => {}
        }
    }
    for col in cols {
        if let Column::Str(values) = col {
            buf.extend_from_slice(values[r].as_bytes());
            buf.push(0xff);
        }
    }
}

/// The groups of the current flush epoch, numbered in first-seen order.
struct Groups {
    table: GroupTable,
    /// Key values per group-by column, indexed by group id.
    keys: Vec<Column>,
    /// Per group id: the stream position of the group's first row (see
    /// [`AggCore::consume_range`]) — how radix-partitioned aggregation
    /// remembers the serial first-seen order across disjoint partitions.
    first_seen: Vec<u64>,
}

impl Groups {
    fn len(&self) -> usize {
        self.first_seen.len()
    }

    /// Append a group keyed by row `r` of `cols`; returns its id.
    fn push(&mut self, cols: &[&Column], r: usize, rank: u64) -> u32 {
        for (key, col) in self.keys.iter_mut().zip(cols) {
            key.push(col.datum(r)).expect("key column types checked per batch");
        }
        self.first_seen.push(rank);
        (self.first_seen.len() - 1) as u32
    }

    /// The id of the group keyed by row `r` of `cols`, created with
    /// first-seen rank `rank` if new. One table lookup per row; the key is
    /// copied only for a new group.
    #[inline]
    fn id_of(&mut self, cols: &[&Column], r: usize, rank: u64) -> u32 {
        let next = self.first_seen.len() as u32;
        let id = match &mut self.table {
            GroupTable::Global => 0,
            GroupTable::Int(map) => {
                let key = match cols[0] {
                    Column::I64 { values, .. } => values[r],
                    Column::F64(values) => values[r].to_bits() as i64,
                    Column::Str(_) => unreachable!("string keys use the packed table"),
                };
                *map.entry(key).or_insert(next)
            }
            GroupTable::Packed { map, buf } => {
                pack_key(buf, cols, r);
                map.get(buf.as_slice()).copied().unwrap_or_else(|| {
                    map.insert(buf.as_slice().into(), next);
                    next
                })
            }
        };
        if id == next {
            self.push(cols, r, rank);
        }
        id
    }

    fn clear(&mut self) {
        match &mut self.table {
            GroupTable::Global => {}
            GroupTable::Int(map) => map.clear(),
            GroupTable::Packed { map, .. } => map.clear(),
        }
        self.first_seen.clear();
    }
}

/// One batch's aggregate inputs, in aggregate order.
type Inputs<'b> = Vec<Option<Cow<'b, Column>>>;

/// Shared core: group ids + columnar accumulators (see the module doc).
struct AggCore {
    group_cols: Vec<usize>,
    group_types: Vec<DataType>,
    /// Bound aggregate inputs; `None` for `COUNT` over a literal.
    inputs: Vec<Option<Expr>>,
    funcs: Vec<AggFunc>,
    out_types: Vec<DataType>,
    accs: Vec<Acc>,
    groups: Groups,
    /// Rows consumed so far (the id space of `first_seen` when no
    /// explicit positions are supplied).
    rows_seen: u64,
    /// Reused per-range group-id buffer.
    ids: Vec<u32>,
}

impl AggCore {
    fn new(
        input_schema: &[ColMeta],
        group_by: &[&str],
        aggs: &[AggSpec],
    ) -> Result<(AggCore, OpSchema)> {
        let index = |g: &&str| crate::batch::schema_index(input_schema, g);
        let group_cols: Vec<usize> = group_by
            .iter()
            .map(|g| index(g).ok_or_else(|| ExecError::UnknownColumn(g.to_string())))
            .collect::<Result<_>>()?;
        let group_types: Vec<DataType> =
            group_cols.iter().map(|&c| input_schema[c].data_type).collect();
        let mut schema: OpSchema = group_cols.iter().map(|&c| input_schema[c].clone()).collect();
        let (mut inputs, mut funcs, mut out_types, mut accs) = (vec![], vec![], vec![], vec![]);
        for a in aggs {
            let dt = a.input.data_type(input_schema)?;
            accs.push(Acc::new(a.func, dt)?);
            let counts_rows = a.func == AggFunc::Count && matches!(a.input, Expr::Lit(_));
            inputs.push(if counts_rows { None } else { Some(a.input.bind(input_schema)?) });
            funcs.push(a.func);
            out_types.push(agg_output_type(a.func, dt));
            schema.push(ColMeta::new(&a.name, agg_output_type(a.func, dt)));
        }
        let table = match group_types.as_slice() {
            [] => GroupTable::Global,
            [t] if *t != DataType::Str => GroupTable::Int(HashMap::default()),
            _ => GroupTable::Packed { map: HashMap::default(), buf: Vec::new() },
        };
        let keys = group_types.iter().map(|&t| Column::empty(t)).collect();
        Ok((
            AggCore {
                group_cols,
                group_types,
                inputs,
                funcs,
                out_types,
                accs,
                groups: Groups { table, keys, first_seen: Vec::new() },
                rows_seen: 0,
                ids: Vec::new(),
            },
            schema,
        ))
    }

    /// Check the batch's key columns against the bound key types and
    /// evaluate its aggregate inputs (borrowing plain columns).
    fn eval_inputs<'b>(&self, batch: &'b Batch) -> Result<Inputs<'b>> {
        let repr = |t: DataType| if t == DataType::Date { DataType::Int } else { t };
        for (&c, &t) in self.group_cols.iter().zip(&self.group_types) {
            if repr(batch.columns[c].data_type()) != repr(t) {
                return Err(ExecError::Type(format!("group key column {c} is not {}", t.name())));
            }
        }
        self.inputs
            .iter()
            .map(|input| {
                Ok(match input {
                    None => None,
                    Some(Expr::ColIdx(c)) => Some(Cow::Borrowed(&batch.columns[*c])),
                    Some(e) => Some(Cow::Owned(e.eval(batch)?)),
                })
            })
            .collect()
    }

    /// Fold a whole batch through the group table; see
    /// [`consume_range`](Self::consume_range) for `positions`.
    fn consume(&mut self, batch: &Batch, positions: Option<(&[u64], u64)>) -> Result<()> {
        let inputs = self.eval_inputs(batch)?;
        self.consume_range(batch, &inputs, 0..batch.rows(), positions)?;
        self.rows_seen += batch.rows() as u64;
        Ok(())
    }

    /// Fold rows `range` of `batch` through the group table. A new group's
    /// first-seen rank is `base + pos[r]` when `positions` is
    /// `Some((pos, base))` — the row's position in the serial stream, as
    /// radix partitions supply it for their gathered sub-batches — and
    /// otherwise `rows_seen + r` (the caller advances `rows_seen` per
    /// batch).
    fn consume_range(
        &mut self,
        batch: &Batch,
        inputs: &Inputs,
        range: Range<usize>,
        positions: Option<(&[u64], u64)>,
    ) -> Result<()> {
        let cols: Vec<&Column> = self.group_cols.iter().map(|&c| &batch.columns[c]).collect();
        self.ids.clear();
        for r in range.clone() {
            let rank = match positions {
                Some((pos, base)) => base + pos[r],
                None => self.rows_seen + r as u64,
            };
            let id = self.groups.id_of(&cols, r, rank);
            self.ids.push(id);
        }
        self.accumulate(inputs, range)
    }

    /// Fold rows `range` of `batch` where each run is its own group,
    /// without a table lookup (the streaming path). Runs start at the
    /// rows in `starts` (ascending, inside `range`); the rows before the
    /// first of them continue the newest group — the run the previous
    /// batch left open — or start one if there is none.
    fn consume_runs(
        &mut self,
        batch: &Batch,
        inputs: &Inputs,
        range: Range<usize>,
        starts: &[usize],
    ) -> Result<()> {
        let cols: Vec<&Column> = self.group_cols.iter().map(|&c| &batch.columns[c]).collect();
        self.ids.clear();
        let mut run = range.start;
        for end in starts.iter().copied().chain([range.end]).filter(|&end| end > range.start) {
            let id = match self.groups.len() {
                n if n > 0 && run == range.start && starts.first() != Some(&run) => n as u32 - 1,
                _ => self.groups.push(&cols, run, self.rows_seen + run as u64),
            };
            self.ids.resize(end - range.start, id);
            run = end;
        }
        self.accumulate(inputs, range)
    }

    /// Grow every accumulator to the current group count and fold the
    /// range's rows (`self.ids`) into it.
    fn accumulate(&mut self, inputs: &Inputs, range: Range<usize>) -> Result<()> {
        let n = self.groups.len();
        for (acc, input) in self.accs.iter_mut().zip(inputs) {
            acc.grow(n);
            acc.update(&self.ids, input.as_deref(), range.clone())?;
        }
        Ok(())
    }

    /// Estimated bytes of accumulated state: every group sized like the
    /// first-seen one (so the estimate is deterministic).
    fn estimated_bytes(&self) -> u64 {
        let keys = &self.groups.keys;
        let first_len = |k: &Column| k.as_str().ok()?.first().map(|s| s.len() as u64);
        let per_key: u64 = 32 + keys.iter().map(|k| first_len(k).map_or(8, |l| l + 8)).sum::<u64>();
        let states: u64 = self.accs.iter().map(Acc::first_group_bytes).sum();
        self.groups.len() as u64 * (per_key + states)
    }

    /// Drain all groups into one output batch (first-seen order).
    fn flush(&mut self) -> Batch {
        let mut cols: Vec<Column> = self
            .groups
            .keys
            .iter_mut()
            .zip(&self.group_types)
            .map(|(k, &t)| std::mem::replace(k, Column::empty(t)))
            .collect();
        cols.extend(self.accs.iter_mut().zip(&self.out_types).map(|(acc, &t)| acc.finish(t)));
        self.groups.clear();
        Batch::new(cols)
    }

    /// Fold another core (same grouping and aggregates) into this one, in
    /// place. Groups unseen here are appended in `other`'s order, so
    /// folding per-morsel cores in morsel order reproduces the serial
    /// first-seen group order exactly.
    fn merge_from(&mut self, other: AggCore) -> Result<()> {
        if self.funcs != other.funcs
            || self.out_types != other.out_types
            || self.group_types != other.group_types
        {
            return Err(ExecError::Type("merging mismatched aggregate states".into()));
        }
        let fresh = self.groups.len() as u32;
        let theirs = other.groups;
        let cols: Vec<&Column> = theirs.keys.iter().collect();
        // Partials each count rows from 0, so merged ranks are only
        // ordinal per-partial; the partial-merge path orders by fold
        // position, never by these ranks.
        let map: Vec<u32> =
            (0..theirs.len()).map(|g| self.groups.id_of(&cols, g, theirs.first_seen[g])).collect();
        let n = self.groups.len();
        for (mine, acc) in self.accs.iter_mut().zip(other.accs) {
            mine.grow(n);
            mine.merge(acc, &map, fresh)?;
        }
        Ok(())
    }

    /// [`flush`](Self::flush), except that a *global* aggregation (no
    /// group-by) over empty input yields one row of zero states (COUNT() =
    /// 0, SUM() = 0, ...): the zero of each output type.
    fn finish(&mut self) -> Batch {
        let out = self.flush();
        if out.rows() > 0 || !self.group_cols.is_empty() {
            return out;
        }
        let cols = self
            .out_types
            .iter()
            .map(|t| match t {
                DataType::Int => Column::from_i64(vec![0]),
                DataType::Date => Column::from_dates(vec![0]),
                DataType::Float => Column::from_f64(vec![0.0]),
                DataType::Str => Column::from_strings(vec![String::new()]),
            })
            .collect();
        Batch::new(cols)
    }
}

/// Partial aggregation state for one morsel — the partition side of the
/// morsel-parallel aggregation contract (the merge side lives in
/// [`crate::parallel::merge`]). Each worker consumes its morsel's batches
/// into a `PartialAgg`; folding the partials *in morsel order* and
/// finishing yields exactly what a serial [`HashAggregate`] over the
/// concatenated stream would produce.
pub struct PartialAgg {
    core: AggCore,
    schema: OpSchema,
}

impl PartialAgg {
    /// State for aggregating `aggs` grouped by `group_by` over inputs with
    /// `input_schema`.
    pub fn new(
        input_schema: &[ColMeta],
        group_by: &[&str],
        aggs: &[AggSpec],
    ) -> Result<PartialAgg> {
        let (core, schema) = AggCore::new(input_schema, group_by, aggs)?;
        Ok(PartialAgg { core, schema })
    }

    /// Output schema (group keys then aggregates).
    pub fn schema(&self) -> &OpSchema {
        &self.schema
    }

    /// Accumulate one batch.
    pub fn consume(&mut self, batch: &Batch) -> Result<()> {
        self.core.consume(batch, None)
    }

    /// Accumulate one batch whose rows carry explicit global stream
    /// positions (`ids[row] + base`) — the radix-partitioned consume: a
    /// partition sees only its slice of the input, but remembers where
    /// each group first appeared in the *whole* stream.
    pub fn consume_indexed(&mut self, batch: &Batch, ids: &[u64], base: u64) -> Result<()> {
        debug_assert_eq!(ids.len(), batch.rows());
        self.core.consume(batch, Some((ids, base)))
    }

    /// Estimated bytes of accumulated state (memory accounting).
    pub fn estimated_bytes(&self) -> u64 {
        self.core.estimated_bytes()
    }

    /// Fold `other` into this partial in place, preserving first-seen group
    /// order. Partials of different aggregations fail with a type error.
    pub fn merge(&mut self, other: PartialAgg) -> Result<()> {
        self.core.merge_from(other.core)
    }

    /// Finish into the final output batch, including the one-row zero
    /// state a global aggregation yields over empty input.
    pub fn finish(mut self) -> Result<Batch> {
        Ok(self.core.finish())
    }

    /// Finish into `(output batch, first-seen rank per output row)` — the
    /// radix-partition finish. The ranks are the global stream positions
    /// recorded by [`consume_indexed`](Self::consume_indexed); sorting the
    /// concatenated partition outputs by them reproduces the serial
    /// first-seen group order byte-for-byte
    /// ([`crate::parallel::merge::concat_radix_partitions`]).
    pub fn finish_ordered(mut self) -> Result<(Batch, Vec<u64>)> {
        let ranks = std::mem::take(&mut self.core.groups.first_seen);
        let out = self.core.flush();
        debug_assert_eq!(ranks.len(), out.rows());
        Ok((out, ranks))
    }
}

/// Whole-input hash aggregation.
pub struct HashAggregate {
    input: BoxedOp,
    core: AggCore,
    schema: OpSchema,
    tracker: Arc<MemoryTracker>,
    done: bool,
}

impl HashAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<HashAggregate> {
        let (core, schema) = AggCore::new(input.schema(), group_by, &aggs)?;
        Ok(HashAggregate { input, core, schema, tracker, done: false })
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let mut mem: Option<MemoryGuard> = None;
        while let Some(batch) = self.input.next()? {
            self.core.consume(&batch, None)?;
            let bytes = self.core.estimated_bytes();
            match &mut mem {
                Some(m) => m.resize(bytes),
                None => mem = Some(self.tracker.register(bytes)),
            }
        }
        self.done = true;
        Ok(Some(self.core.finish()))
    }
}

/// Where runs of equal values in a set of columns start, across batch
/// boundaries — the flush points of the streaming and sandwich variants.
struct RunCuts {
    cols: Vec<usize>,
    /// The previous non-empty batch's last row of `cols` (one-row columns).
    last: Option<Vec<Column>>,
}

impl RunCuts {
    /// Rows of `batch` whose values differ from the previous row's (row 0
    /// compares against the previous batch's last row), found column by
    /// column; floats compare by bit pattern.
    fn cuts(&mut self, batch: &Batch) -> Vec<usize> {
        fn mark<T>(changed: &mut [bool], vals: &[T], prev: Option<&[T]>, ne: fn(&T, &T) -> bool) {
            changed[0] |= prev.is_some_and(|p| ne(&p[0], &vals[0]));
            for (flag, pair) in changed[1..].iter_mut().zip(vals.windows(2)) {
                *flag |= ne(&pair[0], &pair[1]);
            }
        }
        let n = batch.rows();
        if n == 0 {
            return Vec::new();
        }
        let mut changed = vec![false; n];
        for (j, &c) in self.cols.iter().enumerate() {
            let prev = self.last.as_ref().map(|last| &last[j]);
            match &batch.columns[c] {
                Column::I64 { values: v, .. } => {
                    mark(&mut changed, v, prev.and_then(|p| p.as_i64().ok()), |a, b| a != b)
                }
                Column::F64(v) => {
                    mark(&mut changed, v, prev.and_then(|p| p.as_f64().ok()), |a, b| {
                        a.to_bits() != b.to_bits()
                    })
                }
                Column::Str(v) => {
                    mark(&mut changed, v, prev.and_then(|p| p.as_str().ok()), |a, b| a != b)
                }
            }
        }
        self.last = Some(self.cols.iter().map(|&c| batch.columns[c].slice(n - 1, n)).collect());
        changed.iter().enumerate().filter_map(|(r, &c)| c.then_some(r)).collect()
    }
}

/// Streaming aggregation over key-sorted input (constant memory). Every
/// run of equal group keys is one output group, emitted once the run
/// ends.
pub struct StreamingAggregate {
    input: BoxedOp,
    core: AggCore,
    schema: OpSchema,
    runs: RunCuts,
    done: bool,
}

impl StreamingAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
    ) -> Result<StreamingAggregate> {
        let (core, schema) = AggCore::new(input.schema(), group_by, &aggs)?;
        let runs = RunCuts { cols: core.group_cols.clone(), last: None };
        Ok(StreamingAggregate { input, core, schema, runs, done: false })
    }
}

impl Operator for StreamingAggregate {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        while let Some(batch) = self.input.next()? {
            let n = batch.rows();
            let cuts = self.runs.cuts(&batch);
            let inputs = self.core.eval_inputs(&batch)?;
            // Every run before the batch's last cut is complete: fold
            // them, emit them in one flush, then open the last run.
            let flushed = match cuts.split_last() {
                None => {
                    self.core.consume_runs(&batch, &inputs, 0..n, &[])?;
                    None
                }
                Some((&last, complete)) => {
                    self.core.consume_runs(&batch, &inputs, 0..last, complete)?;
                    let out = self.core.flush();
                    self.core.consume_runs(&batch, &inputs, last..n, &[last])?;
                    Some(out)
                }
            };
            self.core.rows_seen += n as u64;
            if let Some(f) = flushed {
                if f.rows() > 0 {
                    return Ok(Some(f));
                }
            }
        }
        self.done = true;
        let out = self.core.flush();
        Ok((out.rows() > 0).then_some(out))
    }
}

/// Sandwich aggregation: like hash aggregation, but the table flushes at
/// every boundary of the `partition_cols` (the dimension group-key columns
/// the group-by keys determine). The partition columns are *not* part of
/// the output.
pub struct SandwichAggregate {
    input: BoxedOp,
    core: AggCore,
    schema: OpSchema,
    partitions: RunCuts,
    tracker: Arc<MemoryTracker>,
    mem: Option<MemoryGuard>,
    /// Largest per-partition table size seen (diagnostics).
    pub max_partition_groups: usize,
    done: bool,
}

impl SandwichAggregate {
    pub fn new(
        input: BoxedOp,
        group_by: &[&str],
        aggs: Vec<AggSpec>,
        partition_cols: Vec<usize>,
        tracker: Arc<MemoryTracker>,
    ) -> Result<SandwichAggregate> {
        if partition_cols.is_empty() {
            return Err(ExecError::Plan("sandwich aggregation needs partition columns".into()));
        }
        let (core, schema) = AggCore::new(input.schema(), group_by, &aggs)?;
        Ok(SandwichAggregate {
            input,
            core,
            schema,
            partitions: RunCuts { cols: partition_cols, last: None },
            tracker,
            mem: None,
            max_partition_groups: 0,
            done: false,
        })
    }

    /// Emit the current partition's groups into `acc`.
    fn flush_partition(&mut self, acc: &mut Option<Batch>) -> Result<()> {
        self.max_partition_groups = self.max_partition_groups.max(self.core.groups.len());
        let out = self.core.flush();
        match acc {
            Some(a) => a.columns.iter_mut().zip(&out.columns).try_for_each(|(d, s)| d.append(s))?,
            None => *acc = Some(out),
        }
        Ok(())
    }
}

impl Operator for SandwichAggregate {
    fn schema(&self) -> &OpSchema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        while let Some(batch) = self.input.next()? {
            let cuts = self.partitions.cuts(&batch);
            let inputs = self.core.eval_inputs(&batch)?;
            let mut start = 0;
            let mut flushed: Option<Batch> = None;
            for &cut in &cuts {
                self.core.consume_range(&batch, &inputs, start..cut, None)?;
                self.flush_partition(&mut flushed)?;
                start = cut;
            }
            self.core.consume_range(&batch, &inputs, start..batch.rows(), None)?;
            self.core.rows_seen += batch.rows() as u64;
            let bytes = self.core.estimated_bytes();
            match &mut self.mem {
                Some(m) => m.resize(bytes),
                None => self.mem = Some(self.tracker.register(bytes)),
            }
            if let Some(f) = flushed {
                if f.rows() > 0 {
                    return Ok(Some(f));
                }
            }
        }
        self.done = true;
        let mut out = None;
        self.flush_partition(&mut out)?;
        self.mem = None;
        Ok(out.filter(|o| o.rows() > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;

    struct Source {
        schema: OpSchema,
        batches: std::vec::IntoIter<Batch>,
    }

    impl Source {
        fn new(cols: Vec<(&str, Column)>, chunk: usize) -> Source {
            let schema: OpSchema =
                cols.iter().map(|(n, c)| ColMeta::new(*n, c.data_type())).collect();
            let n = cols[0].1.len();
            let mut batches = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                batches.push(Batch::new(cols.iter().map(|(_, c)| c.slice(start, end)).collect()));
                start = end;
            }
            Source { schema, batches: batches.into_iter() }
        }
    }

    impl Operator for Source {
        fn schema(&self) -> &OpSchema {
            &self.schema
        }
        fn next(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }
    }

    fn lineitems() -> Vec<(&'static str, Column)> {
        vec![
            ("flag", Column::from_strings(vec!["A".into(), "B".into(), "A".into(), "A".into()])),
            ("qty", Column::from_i64(vec![10, 20, 30, 40])),
            ("price", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
        ]
    }

    #[test]
    fn hash_aggregate_groups_and_sums() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(lineitems(), 2)),
            &["flag"],
            vec![
                AggSpec::new(AggFunc::Sum, Expr::col("qty"), "sum_qty"),
                AggSpec::new(AggFunc::Avg, Expr::col("price"), "avg_price"),
                AggSpec::new(AggFunc::Count, Expr::lit(1), "cnt"),
            ],
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 2);
        let flags = out.columns[0].as_str().unwrap();
        let a = flags.iter().position(|f| f == "A").unwrap();
        let b = flags.iter().position(|f| f == "B").unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap()[a], 80);
        assert_eq!(out.columns[1].as_i64().unwrap()[b], 20);
        assert!((out.columns[2].as_f64().unwrap()[a] - (1.0 + 3.0 + 4.0) / 3.0).abs() < 1e-9);
        assert_eq!(out.columns[3].as_i64().unwrap()[b], 1);
        assert!(t.peak() > 0);
    }

    #[test]
    fn global_aggregate_without_groups() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(lineitems(), 4)),
            &[],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("price"), "rev")],
            t,
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 1);
        assert!((out.columns[0].as_f64().unwrap()[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_count_distinct() {
        let t = MemoryTracker::new();
        let agg = HashAggregate::new(
            Box::new(Source::new(
                vec![
                    ("g", Column::from_i64(vec![1, 1, 1, 2])),
                    ("v", Column::from_i64(vec![5, 5, 9, 7])),
                ],
                4,
            )),
            &["g"],
            vec![
                AggSpec::new(AggFunc::Min, Expr::col("v"), "mn"),
                AggSpec::new(AggFunc::Max, Expr::col("v"), "mx"),
                AggSpec::new(AggFunc::CountDistinct, Expr::col("v"), "nd"),
            ],
            t,
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        let g = out.columns[0].as_i64().unwrap();
        let i = g.iter().position(|&x| x == 1).unwrap();
        assert_eq!(out.columns[1].as_i64().unwrap()[i], 5);
        assert_eq!(out.columns[2].as_i64().unwrap()[i], 9);
        assert_eq!(out.columns[3].as_i64().unwrap()[i], 2);
    }

    #[test]
    fn streaming_aggregate_on_sorted_input() {
        let src = Source::new(
            vec![
                ("k", Column::from_i64(vec![1, 1, 2, 2, 2, 3])),
                ("v", Column::from_i64(vec![1, 2, 3, 4, 5, 6])),
            ],
            2, // runs span batches
        );
        let agg = StreamingAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[3, 12, 6]);
    }

    #[test]
    fn sandwich_aggregate_flushes_per_partition() {
        // Partition column __gk determines the group key's high part.
        let src = Source::new(
            vec![
                ("k", Column::from_i64(vec![10, 11, 10, 20, 21, 20])),
                ("v", Column::from_i64(vec![1, 2, 3, 4, 5, 6])),
                ("__gk", Column::from_i64(vec![0, 0, 0, 1, 1, 1])),
            ],
            2,
        );
        let t = MemoryTracker::new();
        let agg = SandwichAggregate::new(
            Box::new(src),
            &["k"],
            vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")],
            vec![2],
            t.clone(),
        )
        .unwrap();
        let out = collect(Box::new(agg)).unwrap();
        assert_eq!(out.rows(), 4);
        // Keys 10,11 flushed first (partition 0), then 20,21.
        assert_eq!(out.columns[0].as_i64().unwrap(), &[10, 11, 20, 21]);
        assert_eq!(out.columns[1].as_i64().unwrap(), &[4, 2, 10, 5]);
    }

    #[test]
    fn packed_keys_follow_the_shared_codec_order() {
        // hash_group_row's write order: integer-backed values (floats as
        // bits) in column order, then each string and a 0xff terminator.
        let (a, s) = (Column::from_i64(vec![-3]), Column::from_strings(vec!["xy".into()]));
        let (f, d) = (Column::from_f64(vec![-0.0]), Column::from_dates(vec![9131]));
        let mut buf = Vec::new();
        pack_key(&mut buf, &[&a, &s, &f, &d], 0);
        let ints =
            [(-3i64).to_le_bytes(), (-0.0f64).to_bits().to_le_bytes(), 9131i64.to_le_bytes()];
        assert_eq!(buf, [&ints.concat()[..], b"xy\xff"].concat());
    }

    fn bind(func: AggFunc, col: &str) -> Result<PartialAgg> {
        let schema = Source::new(lineitems(), 4).schema;
        PartialAgg::new(&schema, &[], &[AggSpec::new(func, Expr::col(col), "a")])
    }

    #[test]
    fn sum_over_strings_fails_at_bind() {
        assert!(matches!(bind(AggFunc::Sum, "flag"), Err(ExecError::Type(_))));
    }

    #[test]
    fn avg_over_strings_fails_at_bind() {
        assert!(matches!(bind(AggFunc::Avg, "flag"), Err(ExecError::Type(_))));
    }

    #[test]
    fn count_distinct_over_floats_or_strings_fails_at_bind() {
        assert!(matches!(bind(AggFunc::CountDistinct, "price"), Err(ExecError::Type(_))));
        assert!(matches!(bind(AggFunc::CountDistinct, "flag"), Err(ExecError::Type(_))));
    }

    #[test]
    fn float_sum_over_a_mistyped_batch_is_a_type_error() {
        // The schema says float, the batches carry ints.
        let mut src = Source::new(vec![("v", Column::from_i64(vec![1, 2]))], 2);
        src.schema[0].data_type = DataType::Float;
        let aggs = vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")];
        let agg = HashAggregate::new(Box::new(src), &[], aggs, MemoryTracker::new()).unwrap();
        assert!(matches!(collect(Box::new(agg)), Err(ExecError::Type(_))));
    }

    #[test]
    fn merging_mismatched_partials_is_a_type_error() {
        let mut sum = bind(AggFunc::Sum, "qty").unwrap();
        let max = bind(AggFunc::Max, "qty").unwrap();
        assert!(matches!(sum.merge(max), Err(ExecError::Type(_))));
    }

    #[test]
    fn sandwich_agg_uses_less_memory_than_hash() {
        // 1000 distinct keys spread over 100 partitions.
        let n = 1000;
        let k: Vec<i64> = (0..n).collect();
        let gk: Vec<i64> = (0..n).map(|i| i / 10).collect();
        let v: Vec<i64> = vec![1; n as usize];
        let mk = |t: Arc<MemoryTracker>, sandwich: bool| -> u64 {
            let src = Source::new(
                vec![
                    ("k", Column::from_i64(k.clone())),
                    ("v", Column::from_i64(v.clone())),
                    ("__gk", Column::from_i64(gk.clone())),
                ],
                128,
            );
            let aggs = vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "s")];
            let op: BoxedOp = if sandwich {
                Box::new(
                    SandwichAggregate::new(Box::new(src), &["k"], aggs, vec![2], t.clone())
                        .unwrap(),
                )
            } else {
                Box::new(HashAggregate::new(Box::new(src), &["k"], aggs, t.clone()).unwrap())
            };
            let out = collect(op).unwrap();
            assert_eq!(out.rows(), 1000);
            t.peak()
        };
        let sandwich_peak = mk(MemoryTracker::new(), true);
        let hash_peak = mk(MemoryTracker::new(), false);
        assert!(sandwich_peak * 10 < hash_peak, "sandwich {sandwich_peak} vs hash {hash_peak}");
    }
}
