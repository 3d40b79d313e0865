//! Set-up: generate the TPC-H database and build the three storage
//! schemes every workload runs on.

use std::sync::Arc;
use std::time::Instant;

use bdcc_core::{create_dimensions, derive_design, DesignConfig};
use bdcc_exec::{bdcc_scheme, pk_scheme, plain_scheme, SchemeDb};
use bdcc_tpch::GenConfig;

use crate::trace::Spans;
use crate::SF;

/// The three schemes in report order: Plain, PK, BDCC.
pub const SCHEMES: [&str; 3] = ["plain", "pk", "bdcc"];

/// Built schemes over one generated database.
pub struct Setup {
    pub data_seed: u64,
    pub schemes: Vec<Arc<SchemeDb>>,
}

/// Layer timings of one set-up, taken from outside by timing each public
/// build call (the traced run's per-layer view of `setup_s`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub gen_s: f64,
    /// `derive_design` + `create_dimensions`, timed on their own.
    pub design_s: f64,
    /// `bdcc_scheme` minus the design steps it repeats internally.
    pub cluster_s: f64,
    pub pk_sort_s: f64,
    /// Count-table groups summed over the clustered tables.
    pub groups: f64,
    /// Clustered rows per count-table group.
    pub rows_per_group: f64,
}

/// Generate and build, returning the set-up and its wall seconds.
pub fn build(data_seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let db = bdcc_tpch::generate(&GenConfig { scale_factor: SF, seed: data_seed });
    let plain = Arc::new(plain_scheme(&db));
    let pk = Arc::new(pk_scheme(&db).expect("PK scheme builds on generated TPC-H"));
    let bdcc = Arc::new(
        bdcc_scheme(&db, &DesignConfig::default()).expect("BDCC scheme builds on generated TPC-H"),
    );
    let secs = t.elapsed().as_secs_f64();
    (Setup { data_seed, schemes: vec![plain, pk, bdcc] }, secs)
}

/// The traced set-up: the same builds, each call timed and recorded as a
/// span under one `setup` trace id, plus the design steps timed on their
/// own so `bdcc_scheme`'s clustering remainder can be separated.
pub fn build_traced(data_seed: u64, spans: &mut Spans) -> (Setup, SetupLayers) {
    let trace = spans.new_trace();
    let root = spans.open(trace, None, "setup");
    let cfg = DesignConfig::default();

    let s = spans.open(trace, Some(root), "tpch.generate");
    let t = Instant::now();
    let db = bdcc_tpch::generate(&GenConfig { scale_factor: SF, seed: data_seed });
    let gen_s = t.elapsed().as_secs_f64();
    spans.close(s);

    let s = spans.open(trace, Some(root), "core.derive_design+create_dimensions");
    let t = Instant::now();
    let design = derive_design(db.catalog(), &cfg).expect("TPC-H design derives");
    let dims = create_dimensions(&db, &design, &cfg.binning).expect("TPC-H dimensions build");
    let design_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&dims);
    spans.close(s);

    let s = spans.open(trace, Some(root), "exec.plain_scheme");
    let plain = Arc::new(plain_scheme(&db));
    spans.close(s);

    let s = spans.open(trace, Some(root), "exec.pk_scheme");
    let t = Instant::now();
    let pk = Arc::new(pk_scheme(&db).expect("PK scheme builds on generated TPC-H"));
    let pk_sort_s = t.elapsed().as_secs_f64();
    spans.close(s);

    let s = spans.open(trace, Some(root), "exec.bdcc_scheme");
    let t = Instant::now();
    let bdcc = Arc::new(bdcc_scheme(&db, &cfg).expect("BDCC scheme builds on generated TPC-H"));
    let bdcc_s = t.elapsed().as_secs_f64();
    spans.close(s);
    spans.close(root);

    let schema = bdcc.bdcc.as_ref().expect("BDCC scheme carries its schema");
    let groups: usize = schema.tables.values().map(|t| t.count.group_count()).sum();
    let rows: usize = schema.tables.values().map(|t| t.count.total_rows()).sum();
    let layers = SetupLayers {
        gen_s,
        design_s,
        cluster_s: bdcc_s - design_s,
        pk_sort_s,
        groups: groups as f64,
        rows_per_group: rows as f64 / groups.max(1) as f64,
    };
    (Setup { data_seed, schemes: vec![plain, pk, bdcc] }, layers)
}
