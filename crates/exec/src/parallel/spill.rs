//! Out-of-core radix aggregation: the grace-hash side of the
//! [`MemoryBroker`](crate::broker::MemoryBroker) contract.
//!
//! The in-memory radix path ([`ParallelAggregate::run_radix`]) holds the
//! whole partitioned input resident between phase 1 and phase 2. This
//! module is the broker-governed variant: phase 1 runs in *chunks* of
//! morsels (parallel within a chunk, chunks in morsel order), and after
//! every chunk the broker is consulted — under pressure the largest
//! resident partitions **freeze**: their `(sub-batch, global row ids)`
//! entries serialize to a temp file via [`bdcc_storage::spill`] (ids ride
//! along as a trailing `i64` column) and the memory releases. A frozen
//! partition's later entries append straight to its file, so every
//! partition's entry sequence — resident or spilled — stays in global
//! morsel order.
//!
//! Phase 2 then works partition-at-a-time: resident partitions fold
//! exactly like the in-memory path; frozen partitions **restore** by
//! streaming their file back entry-by-entry into the partition's table.
//! A frozen partition whose estimated in-memory footprint exceeds the
//! broker's [`restore_limit`](crate::broker::MemoryBroker::restore_limit)
//! is never loaded whole: it *recurses* — its entries re-scatter on the
//! next [`RECURSE_BITS`] of the same group hash into sub-files (one
//! streamed entry resident at a time), and each sub-partition restores
//! (or recurses) independently.
//!
//! Byte-identity with serial execution holds for the same reason it does
//! in-memory: every group lives in exactly one (sub-)partition, rows
//! carry their global stream position, each partition consumes its rows
//! in ascending global order (morsel order, preserved by freeze files and
//! by the stable recursion scatter), and the disjoint outputs reorder by
//! first-seen rank ([`merge::concat_radix_partitions`]).

use std::collections::HashMap;
use std::sync::Mutex;

use bdcc_storage::{Column, SpillHandle, SpillWriter};

use crate::batch::Batch;
use crate::error::Result;
use crate::hash::hash_group_row;
use crate::memory::MemoryGuard;
use crate::parallel::{
    partition, partition_morsel_stream, pool, Morsel, ParallelAggregate, PartitionedBatches,
};

/// Extra hash bits per recursion level (16 sub-partitions per split).
const RECURSE_BITS: u32 = 4;

/// Deepest total bit budget for recursion. At 32 bits a "partition" is a
/// 1-in-4-billion hash slice; if it still exceeds the restore limit the
/// data is one giant group (recursion cannot split it further) and the
/// leaf consumes it anyway — the governor's budget check stays the
/// backstop for truly irreducible state.
const MAX_TOTAL_BITS: u32 = 32;

/// One partition's accumulation state during chunked phase 1.
enum PartState {
    /// Entries held in memory (`bytes` = estimated footprint).
    Resident { entries: Vec<(Batch, Vec<u64>)>, bytes: u64 },
    /// Frozen to a temp file; later entries append to the writer.
    /// `mem_bytes` estimates what the file would occupy restored.
    Frozen { writer: SpillWriter, mem_bytes: u64 },
}

/// Serialize one entry: the gathered sub-batch's columns plus the rows'
/// global stream positions as a trailing integer column.
fn entry_columns(batch: Batch, ids: &[u64]) -> Vec<Column> {
    let mut cols = batch.columns;
    cols.push(Column::from_i64(ids.iter().map(|&v| v as i64).collect()));
    cols
}

/// Inverse of [`entry_columns`].
fn decode_entry(mut cols: Vec<Column>) -> Result<(Batch, Vec<u64>)> {
    let ids_col = cols.pop().expect("spill entry has an ids column");
    let ids: Vec<u64> = ids_col.as_i64()?.iter().map(|&v| v as u64).collect();
    Ok((Batch::new(cols), ids))
}

/// The sub-partition of hash `h` at recursion depth `used_bits`: the
/// [`RECURSE_BITS`] bits immediately below the bits already consumed.
/// Equal keys share a hash, so they always land in one sub-partition.
#[inline]
fn sub_partition_of(h: u64, used_bits: u32) -> usize {
    ((h << used_bits) >> (64 - RECURSE_BITS)) as usize
}

impl ParallelAggregate {
    /// Record spill traffic on the operator's metric block (no-op
    /// unprofiled).
    fn note_spill(&self, frozen_parts: u64, written: u64, restored: u64) {
        if let Some(m) = &self.metrics {
            m.spill_partitions.add(frozen_parts);
            m.spill_bytes.add(written);
            m.spill_restore_bytes.add(restored);
        }
    }

    /// Append one globalized entry to its partition, spilling directly if
    /// the partition is already frozen. `resident` tracks the total
    /// resident estimate mirrored into `guard`.
    fn append_entry(
        &self,
        part: &mut PartState,
        batch: Batch,
        ids: Vec<u64>,
        resident: &mut u64,
        guard: &mut MemoryGuard,
    ) -> Result<()> {
        let est = batch.estimated_bytes() + ids.len() as u64 * 8;
        match part {
            PartState::Resident { entries, bytes } => {
                entries.push((batch, ids));
                *bytes += est;
                *resident += est;
                guard.grow(est);
            }
            PartState::Frozen { writer, mem_bytes } => {
                let written = writer.write_columns(&entry_columns(batch, &ids))?;
                *mem_bytes += est;
                self.note_spill(0, written, 0);
            }
        }
        Ok(())
    }

    /// Freeze resident partitions, largest first, until at least
    /// `target` estimated bytes are released (or nothing resident is
    /// left). Returns the bytes actually released.
    fn freeze_partitions(
        &self,
        parts: &mut [PartState],
        target: u64,
        resident: &mut u64,
        guard: &mut MemoryGuard,
    ) -> Result<u64> {
        let mut order: Vec<(u64, usize)> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PartState::Resident { entries, bytes } if !entries.is_empty() => Some((*bytes, i)),
                _ => None,
            })
            .collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let mut released = 0u64;
        for (bytes, i) in order {
            if released >= target {
                break;
            }
            let PartState::Resident { entries, .. } = &mut parts[i] else {
                unreachable!("selected above")
            };
            let mut writer = SpillWriter::create("agg", &self.io)?;
            let mut written = 0u64;
            for (batch, ids) in entries.drain(..) {
                written += writer.write_columns(&entry_columns(batch, &ids))?;
            }
            parts[i] = PartState::Frozen { writer, mem_bytes: bytes };
            self.note_spill(1, written, 0);
            released += bytes;
            *resident = resident.saturating_sub(bytes);
            guard.resize(*resident);
        }
        Ok(released)
    }

    /// The broker-governed radix execution (see the [module docs](self)).
    /// Chosen over [`run_radix`](Self::run_radix) only when the broker is
    /// active, so ungoverned queries keep the structurally unchanged
    /// in-memory path.
    pub(super) fn run_radix_spill(
        &self,
        morsels: &[Morsel],
        cached: HashMap<usize, Vec<Batch>>,
    ) -> Result<Batch> {
        // Two extra bits over the thread-derived count: smaller
        // partitions mean more freeze granularity and less recursion,
        // for a fixed per-chunk scatter cost.
        let bits = (partition::partition_bits_for(self.cfg.threads) + 2).min(8);
        let nparts = partition::partition_count(bits);
        let group_cols = self.group_col_indices()?;
        if let Some(m) = &self.metrics {
            m.annotate("spill_mode", "radix-broker");
        }

        // Chunked phase 1. Chunks complete in morsel order, so the
        // running `base` globalizes every morsel-local row id and frozen
        // files receive entries in global stream order.
        let mut parts: Vec<PartState> =
            (0..nparts).map(|_| PartState::Resident { entries: Vec::new(), bytes: 0 }).collect();
        let mut resident = 0u64;
        let mut guard = self.tracker.register(0);
        let mut base = 0u64;
        let cached = Mutex::new(cached);
        let chunk = self.cfg.threads.max(1) * 2;
        let mut avg_chunk_bytes = 0u64;
        let mut mi = 0usize;
        while mi < morsels.len() {
            let hi = (mi + chunk).min(morsels.len());
            // Make room for the incoming chunk *before* scattering it,
            // using the running average as the pending estimate (the
            // first chunk estimates 0 — nothing is resident yet either).
            if self.broker.should_spill(avg_chunk_bytes) {
                self.freeze_partitions(
                    &mut parts,
                    self.broker.release_target(),
                    &mut resident,
                    &mut guard,
                )?;
            }
            let chunk_parts: Vec<(PartitionedBatches, u64, u64)> =
                pool::run_tasks_labeled(self.cfg.threads, hi - mi, "agg-radix-p1", |k| {
                    let i = mi + k;
                    self.governor.check("agg-radix-p1")?;
                    let hit = cached.lock().expect("probe cache poisoned").remove(&i);
                    match hit {
                        Some(batches) => {
                            let mut it = batches.into_iter();
                            partition_morsel_stream(&group_cols, bits, || Ok(it.next()))
                        }
                        None => {
                            let mut op = self.fragment.build(&self.io, Some(&morsels[i]))?;
                            partition_morsel_stream(&group_cols, bits, || op.next())
                        }
                    }
                })?;
            let mut chunk_bytes = 0u64;
            for (mparts, rows, bytes) in chunk_parts {
                chunk_bytes += bytes;
                for (p, entries) in mparts.into_iter().enumerate() {
                    for (batch, local_ids) in entries {
                        let ids: Vec<u64> = local_ids.iter().map(|v| v + base).collect();
                        self.append_entry(&mut parts[p], batch, ids, &mut resident, &mut guard)?;
                    }
                }
                base += rows;
            }
            avg_chunk_bytes = avg_chunk_bytes.max(chunk_bytes);
            mi = hi;
        }

        // Phase 2 — partition at a time, keeping at most one partition's
        // input plus its table resident (the spill path trades fan-out
        // parallelism here for the bounded-memory guarantee; phase 1
        // above still runs fully parallel).
        let mut outs: Vec<(Batch, Vec<u64>)> = Vec::new();
        for state in parts {
            self.governor.check("agg-radix-p2")?;
            match state {
                PartState::Resident { entries, bytes } => {
                    if entries.is_empty() {
                        continue;
                    }
                    let mut part = self.fresh_partial()?;
                    for (batch, ids) in &entries {
                        part.consume_indexed(batch, ids, 0)?;
                    }
                    let _mem = self.tracker.register(part.estimated_bytes());
                    outs.push(part.finish_ordered()?);
                    resident = resident.saturating_sub(bytes);
                    guard.resize(resident);
                }
                PartState::Frozen { writer, mem_bytes } => {
                    let handle = writer.finish()?;
                    self.restore_partition(&group_cols, handle, mem_bytes, bits, &mut outs)?;
                }
            }
        }
        if outs.is_empty() {
            // Zero input rows: a grouped aggregate yields zero groups.
            let empty = self.fresh_partial()?;
            outs.push(empty.finish_ordered()?);
        }
        super::merge::concat_radix_partitions(outs)
    }

    /// Restore one frozen partition: recurse on deeper hash bits while
    /// its estimated footprint exceeds the broker's restore limit,
    /// otherwise stream its entries into the partition table. The parent
    /// temp file unlinks (RAII) as soon as its entries are re-scattered.
    fn restore_partition(
        &self,
        group_cols: &[usize],
        handle: SpillHandle,
        mem_bytes: u64,
        used_bits: u32,
        outs: &mut Vec<(Batch, Vec<u64>)>,
    ) -> Result<()> {
        self.governor.check("agg-spill-restore")?;
        let file_bytes = handle.bytes();
        if mem_bytes > self.broker.restore_limit() && used_bits + RECURSE_BITS <= MAX_TOTAL_BITS {
            // Too big to sit in memory whole: re-scatter on the next
            // RECURSE_BITS of the group hash, one streamed entry
            // resident at a time.
            let mut subs: Vec<Option<(SpillWriter, u64)>> =
                (0..partition::partition_count(RECURSE_BITS)).map(|_| None).collect();
            let mut reader = handle.open()?;
            while let Some(cols) = reader.next_columns()? {
                let (batch, ids) = decode_entry(cols)?;
                let gcols: Vec<&Column> = group_cols.iter().map(|&c| &batch.columns[c]).collect();
                let mut routed: Vec<Vec<usize>> = vec![Vec::new(); subs.len()];
                for r in 0..batch.rows() {
                    routed[sub_partition_of(hash_group_row(&gcols, r), used_bits)].push(r);
                }
                for (s, rows) in routed.into_iter().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    let sub_ids: Vec<u64> = rows.iter().map(|&r| ids[r]).collect();
                    let gathered =
                        Batch::new(batch.columns.iter().map(|c| c.gather(&rows)).collect());
                    let est = gathered.estimated_bytes() + sub_ids.len() as u64 * 8;
                    if subs[s].is_none() {
                        subs[s] = Some((SpillWriter::create("agg-rec", &self.io)?, 0));
                    }
                    let (writer, sub_mem) = subs[s].as_mut().expect("just created");
                    let written = writer.write_columns(&entry_columns(gathered, &sub_ids))?;
                    *sub_mem += est;
                    self.note_spill(0, written, 0);
                }
            }
            drop(reader);
            drop(handle); // parent file unlinks before children restore
            self.note_spill(1, 0, file_bytes);
            for sub in subs.into_iter().flatten() {
                let (writer, sub_mem) = sub;
                let sub_handle = writer.finish()?;
                self.restore_partition(
                    group_cols,
                    sub_handle,
                    sub_mem,
                    used_bits + RECURSE_BITS,
                    outs,
                )?;
            }
            return Ok(());
        }
        // Leaf: stream the file's entries — global stream order — into
        // this partition's one table.
        let mut part = self.fresh_partial()?;
        let mut reader = handle.open()?;
        let mut mem = self.tracker.register(0);
        while let Some(cols) = reader.next_columns()? {
            let (batch, ids) = decode_entry(cols)?;
            part.consume_indexed(&batch, &ids, 0)?;
            mem.resize(part.estimated_bytes());
        }
        self.note_spill(0, 0, file_bytes);
        if part.estimated_bytes() > 0 || handle.rows() > 0 {
            outs.push(part.finish_ordered()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bdcc_storage::{live_spill_files, Column, IoTracker, StoredTable};

    use crate::broker::{MemoryBroker, SpillMode};
    use crate::expr::Expr;
    use crate::memory::MemoryTracker;
    use crate::ops::agg::{AggFunc, AggSpec, HashAggregate};
    use crate::ops::scan::PlainScan;
    use crate::ops::{collect, BoxedOp};
    use crate::parallel::{
        FragmentBlueprint, ParallelAggregate, ParallelConfig, ScanBlueprint, ScanKind,
    };

    fn table(rows: usize) -> Arc<StoredTable> {
        let k: Vec<i64> = (0..rows as i64).map(|i| (i * 13) % 977).collect();
        let f: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.37 - 100.0).collect();
        let s: Vec<String> = (0..rows).map(|i| format!("tag{}", i % 11)).collect();
        Arc::new(
            StoredTable::from_columns_with_block_rows(
                "t",
                vec![
                    ("k".into(), Column::from_i64(k)),
                    ("f".into(), Column::from_f64(f)),
                    ("s".into(), Column::from_strings(s)),
                ],
                32,
            )
            .unwrap(),
        )
    }

    fn aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("f"), "sf"),
            AggSpec::new(AggFunc::Avg, Expr::col("f"), "af"),
            AggSpec::new(AggFunc::Min, Expr::col("f"), "mn"),
            AggSpec::new(AggFunc::Count, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::CountDistinct, Expr::col("k"), "nd"),
        ]
    }

    fn serial(t: &Arc<StoredTable>) -> crate::batch::Batch {
        let io = IoTracker::new();
        let op: BoxedOp =
            Box::new(PlainScan::new(Arc::clone(t), io, &["k", "f", "s"], vec![]).unwrap());
        collect(Box::new(
            HashAggregate::new(op, &["k", "s"], aggs(), MemoryTracker::new()).unwrap(),
        ))
        .unwrap()
    }

    fn spilled(t: &Arc<StoredTable>, broker_of: impl Fn(&Arc<MemoryTracker>) -> MemoryBroker) {
        let _serial = crate::global_state_lock();
        let want = serial(t);
        let base = live_spill_files();
        for threads in [2, 4] {
            let io = IoTracker::new();
            let tracker = MemoryTracker::new();
            let cfg = ParallelConfig { threads, morsel_rows: 64, agg_radix: Some(true) };
            let bp = ScanBlueprint {
                table: Arc::clone(t),
                columns: vec!["k".into(), "f".into(), "s".into()],
                predicates: vec![],
                kind: ScanKind::Plain,
                filter_kernel: crate::kernel::kernel_enabled(),
            };
            let agg = ParallelAggregate::new(
                FragmentBlueprint { scan: bp, steps: vec![] },
                &["k", "s"],
                aggs(),
                io,
                cfg,
                Arc::clone(&tracker),
            )
            .unwrap()
            .with_broker(broker_of(&tracker));
            let got = collect(Box::new(agg)).unwrap();
            assert_eq!(want, got, "threads={threads}: spilled agg must be bit-identical");
            assert_eq!(live_spill_files(), base, "threads={threads}: temp files must unlink");
            assert_eq!(tracker.current(), 0, "threads={threads}: memory must release");
        }
    }

    #[test]
    fn forced_spill_is_bit_identical_to_serial() {
        spilled(&table(3000), |t| MemoryBroker::with_mode(SpillMode::Force, t, None));
    }

    #[test]
    fn tiny_budget_recursion_is_bit_identical_to_serial() {
        // A 4 KB budget forces pressure after nearly every chunk and a
        // 2 KB restore limit forces recursion on restore (no governor is
        // attached, so nothing trips — this exercises pure broker
        // mechanics at maximum stress).
        spilled(&table(3000), |t| MemoryBroker::with_mode(SpillMode::Auto, t, Some(4096)));
    }

    #[test]
    fn auto_under_roomy_budget_stays_resident_and_identical() {
        spilled(&table(2000), |t| MemoryBroker::with_mode(SpillMode::Auto, t, Some(1 << 30)));
    }
}
