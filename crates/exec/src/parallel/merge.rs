//! Merging per-morsel partial results back into one stream.
//!
//! Four merge contracts, all **order-deterministic**: given the same
//! morsel list, the merged output is identical whatever order workers
//! finished in, because every merge folds partials in *morsel order* (or,
//! for radix partitions, by recorded stream position).
//!
//! * [`concat_ordered`] — leaf streams: morsel batch lists concatenated in
//!   morsel order reproduce the serial scan's batch stream exactly (the
//!   alignment guarantee of [`crate::parallel::morsel`]).
//! * [`merge_partial_aggs`] — hash-aggregation: per-morsel
//!   [`PartialAgg`] states folded left-to-right; group *first-seen order*
//!   and every integer aggregate match serial execution exactly, and
//!   compensated float sums keep Sum/Avg within ~1 ulp of it.
//! * [`concat_radix_partitions`] — radix-partitioned aggregation:
//!   disjoint per-partition outputs reordered by each group's recorded
//!   global first-row position — byte-identical to the serial aggregate,
//!   floats included (each group folds its rows in serial stream order
//!   inside its one partition).
//! * [`merge_sorted`] — sort-merge: k per-morsel streams, each sorted by
//!   the same comparator, merged stably with ties broken by morsel index —
//!   the contract a parallel sort needs to reproduce a serial stable sort
//!   of the concatenated input.

use crate::batch::Batch;
use crate::error::Result;
use crate::ops::agg::PartialAgg;

/// Concatenate per-morsel batch lists in morsel order.
pub fn concat_ordered(per_morsel: Vec<Vec<Batch>>) -> Vec<Batch> {
    per_morsel.into_iter().flatten().collect()
}

/// Concatenate per-morsel join match lists (`(probe row, build row)`
/// pairs) in morsel order. Probe morsels are contiguous row ranges handed
/// out in ascending order ([`crate::parallel::morsel::split_rows`]), so
/// the concatenation lists pairs in exactly the order one serial probe
/// loop over all rows would — the contract that keeps the parallel join
/// probe byte-identical to the serial one. Existence-mode probes
/// (Semi/Anti without residual) carry matched probe rows in the first
/// list and leave the second empty.
pub fn concat_match_lists(per_morsel: Vec<(Vec<usize>, Vec<u32>)>) -> (Vec<usize>, Vec<u32>) {
    let pairs: usize = per_morsel.iter().map(|(l, _)| l.len()).sum();
    let mut lidx = Vec::with_capacity(pairs);
    let mut ridx = Vec::with_capacity(pairs);
    for (l, r) in per_morsel {
        lidx.extend(l);
        ridx.extend(r);
    }
    (lidx, ridx)
}

/// Fold per-morsel partial aggregation states (in morsel order) and finish
/// into the final output batch. An empty partial list is an error — a
/// zero-morsel fan-out must contribute one fresh (empty) partial so the
/// global-aggregation zero row can be produced (see
/// [`ParallelAggregate`](crate::parallel::ParallelAggregate)).
pub fn merge_partial_aggs(mut partials: Vec<PartialAgg>) -> Result<Batch> {
    if partials.is_empty() {
        return Err(crate::error::ExecError::Internal(
            "merge_partial_aggs needs at least one partial state".into(),
        ));
    }
    let mut acc = partials.remove(0);
    for p in partials {
        acc.merge(p)?;
    }
    acc.finish()
}

/// Reassemble radix-partitioned aggregation outputs into the serial
/// first-seen group order. Each partition contributes `(batch, ranks)` —
/// its groups in partition-local first-seen order plus each group's
/// **global** first-row position ([`PartialAgg::finish_ordered`]). Groups
/// are disjoint across partitions and ranks are distinct (a rank is the
/// position of a specific input row), so sorting the concatenation by
/// rank is a permutation with no ties — the output is exactly the batch a
/// serial [`HashAggregate`](crate::ops::agg::HashAggregate) over the
/// unpartitioned stream would emit, byte for byte (including float
/// aggregates: each group's rows fold in original stream order inside
/// its one partition, so even compensated sums see the serial
/// accumulation sequence).
pub fn concat_radix_partitions(parts: Vec<(Batch, Vec<u64>)>) -> Result<Batch> {
    let mut parts = parts.into_iter();
    let (mut all, mut ranks) = parts.next().ok_or_else(|| {
        crate::error::ExecError::Internal(
            "concat_radix_partitions needs at least one partition".into(),
        )
    })?;
    for (b, r) in parts {
        for (dst, src) in all.columns.iter_mut().zip(&b.columns) {
            dst.append(src)?;
        }
        ranks.extend(r);
    }
    let mut perm: Vec<usize> = (0..ranks.len()).collect();
    perm.sort_unstable_by_key(|&i| ranks[i]);
    Ok(Batch::new(all.columns.iter().map(|c| c.gather(&perm)).collect()))
}

/// Stable k-way merge of row streams that are already sorted by `cmp`
/// (ties keep lower-stream-index rows first). Returns `(stream, row)`
/// coordinates in output order.
///
/// A binary min-heap of stream cursors keeps each output row at
/// `O(log k)` — with many runs (large sorts at small morsel sizes) a
/// linear scan per row would make the merge quadratic-ish (`O(n·k)`) and
/// slower than the serial sort it replaces.
pub fn merge_sorted<C>(streams: &[Batch], cmp: C) -> Vec<(usize, usize)>
where
    C: Fn(&Batch, usize, &Batch, usize) -> std::cmp::Ordering,
{
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    let total: usize = streams.iter().map(|b| b.rows()).sum();
    let mut out = Vec::with_capacity(total);
    // Heap order: current-row comparison, ties by stream index — the
    // stability contract.
    let less = |a: usize, b: usize, cursors: &[usize]| -> bool {
        match cmp(&streams[a], cursors[a], &streams[b], cursors[b]) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b,
        }
    };
    let mut heap: Vec<usize> = (0..streams.len()).filter(|&s| streams[s].rows() > 0).collect();
    let sift_down = |heap: &mut Vec<usize>, cursors: &[usize], mut i: usize| loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut best = i;
        if l < heap.len() && less(heap[l], heap[best], cursors) {
            best = l;
        }
        if r < heap.len() && less(heap[r], heap[best], cursors) {
            best = r;
        }
        if best == i {
            break;
        }
        heap.swap(i, best);
        i = best;
    };
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, &cursors, i);
    }
    while let Some(&s) = heap.first() {
        out.push((s, cursors[s]));
        cursors[s] += 1;
        if cursors[s] >= streams[s].rows() {
            let last = heap.pop().expect("non-empty");
            if heap.is_empty() {
                break;
            }
            heap[0] = last;
        }
        sift_down(&mut heap, &cursors, 0);
    }
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdcc_storage::Column;

    fn batch(vals: &[i64]) -> Batch {
        Batch::new(vec![Column::from_i64(vals.to_vec())])
    }

    #[test]
    fn concat_preserves_morsel_order() {
        let merged =
            concat_ordered(vec![vec![batch(&[1]), batch(&[2])], vec![], vec![batch(&[3])]]);
        let vals: Vec<i64> =
            merged.iter().flat_map(|b| b.columns[0].as_i64().unwrap().to_vec()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn radix_concat_restores_global_first_seen_order() {
        // Partition 0 holds groups first seen at rows 4 and 0; partition
        // 1 at rows 2 and 1; partition 2 is empty. The concatenation must
        // interleave them back into 0, 1, 2, 4.
        let parts = vec![
            (batch(&[40, 10]), vec![4, 0]),
            (batch(&[20, 30]), vec![2, 1]),
            (batch(&[]), vec![]),
        ];
        let out = concat_radix_partitions(parts).unwrap();
        assert_eq!(out.columns[0].as_i64().unwrap(), &[10, 30, 20, 40]);
    }

    #[test]
    fn kway_merge_is_stable() {
        let a = batch(&[1, 3, 3, 9]);
        let b = batch(&[2, 3, 8]);
        let c = batch(&[]);
        let order = merge_sorted(&[a, b, c], |x, i, y, j| {
            x.columns[0].as_i64().unwrap()[i].cmp(&y.columns[0].as_i64().unwrap()[j])
        });
        // Equal keys (the 3s) come stream-0 first, then stream-1.
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (1, 2), (0, 3)]);
    }
}
