//! # e2ebench — the repository's end-to-end benchmark
//!
//! Three workloads, all on TPC-H at SF 0.1 and all on the three storage
//! schemes of the paper (Plain, PK, BDCC):
//!
//! * `tpch_schemes` — the paper's Figure 2/3 experiment: the 22 queries in
//!   order on each scheme, serial plans, closed loop with one client.
//! * `serve_open` — an open-loop request stream of the selective queries
//!   served by `bdcc_exec::Server` (1 session, 2 pool threads), a steady
//!   phase at about half of capacity and an overload phase above it.
//! * `tpch_budget` — `tpch_schemes` with a 2 MiB memory budget per query
//!   and automatic spilling.
//!
//! Every answer is checked against committed golden digests
//! ([`golden`]), and every query against tracked-memory and spill-file
//! leaks. See `FINDINGS.md` for why each workload exists, the layer →
//! end-to-end map and the first baseline.

pub mod closed;
pub mod golden;
pub mod record;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use bdcc_exec::{Batch, ExecError};

/// TPC-H scale factor of every workload.
pub const SF: f64 = 0.1;

/// Generated databases cycle through this many data seeds, each with
/// committed golden answers (`golden.tsv`).
pub const DATA_SEEDS: u64 = 32;

/// Latency limit of `goodput_qps`, on every workload.
pub const LIMIT_MS: f64 = 200.0;

pub const MIB: f64 = 1024.0 * 1024.0;

/// Per-query memory budget of `tpch_budget`.
pub const BUDGET_BYTES: u64 = 2 * 1024 * 1024;

/// TPC-H generator seed of a run. The closed-loop workloads cycle through
/// the `DATA_SEEDS` databases. `serve_open` always serves database 0, so
/// that its run-to-run spread reflects the serving layers rather than
/// differences between databases; its workload seed drives the arrivals
/// and the order of the mix.
pub fn data_seed(workload: Workload, seed: u64) -> u64 {
    match workload {
        Workload::ServeOpen => 0,
        Workload::TpchSchemes | Workload::TpchBudget => seed % DATA_SEEDS,
    }
}

/// `BDCC_*` variables set in the environment. The engine reads several
/// (`BDCC_PROFILE`, `BDCC_KERNEL`, `BDCC_SPILL`, `BDCC_ENCODE`, ...), so any
/// of them would silently change the program being measured.
pub fn stray_env() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("BDCC_"))
        .collect()
}

/// Create `.bench_out/tmp` under the working directory and point `TMPDIR`
/// at it, so spill files stay inside the checkout. Call before any thread
/// starts.
pub fn prepare_out_dir() -> std::io::Result<PathBuf> {
    let out = std::env::current_dir()?.join(".bench_out");
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchSchemes,
    ServeOpen,
    TpchBudget,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::TpchSchemes, Workload::ServeOpen, Workload::TpchBudget];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchSchemes => "tpch_schemes",
            Workload::ServeOpen => "serve_open",
            Workload::TpchBudget => "tpch_budget",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Verdict on one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Finished with the golden answer and released everything it held.
    Answered,
    /// Bounced by admission control (`ServeError::Overloaded`): a miss for
    /// goodput, not an engine failure.
    Refused,
    /// Failed with the typed `BudgetExceeded` error a budgeted query may
    /// legitimately end with.
    OverBudget,
    /// Finished with an answer other than the golden one.
    Mismatch,
    /// Left tracked bytes or spill files behind.
    Leak,
    /// Any other error or a panic.
    Error(String),
}

impl Outcome {
    /// Judge a finished query: leaks first, then the result.
    pub fn judge(
        result: Result<&Batch, &ExecError>,
        leaked: bool,
        budgeted: bool,
        golden_ok: impl FnOnce(&Batch) -> bool,
    ) -> Outcome {
        if leaked {
            return Outcome::Leak;
        }
        match result {
            Ok(batch) if golden_ok(batch) => Outcome::Answered,
            Ok(_) => Outcome::Mismatch,
            Err(ExecError::BudgetExceeded { .. }) if budgeted => Outcome::OverBudget,
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

/// Outcome counts of a run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub answered: u64,
    pub refused: u64,
    pub over_budget: u64,
    pub mismatched: u64,
    pub leaked: u64,
    pub errors: u64,
    /// First few problems, for the human-readable summary.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, outcome: &Outcome, what: impl FnOnce() -> String) {
        self.attempted += 1;
        let note = match outcome {
            Outcome::Answered => {
                self.answered += 1;
                return;
            }
            Outcome::Refused => {
                self.refused += 1;
                return;
            }
            Outcome::OverBudget => {
                self.over_budget += 1;
                return;
            }
            Outcome::Mismatch => {
                self.mismatched += 1;
                "answer differs from golden digest".to_string()
            }
            Outcome::Leak => {
                self.leaked += 1;
                "left tracked bytes or spill files behind".to_string()
            }
            Outcome::Error(e) => {
                self.errors += 1;
                e.clone()
            }
        };
        if self.notes.len() < 8 {
            self.notes.push(format!("{}: {note}", what()));
        }
    }

    /// Errored, mismatched or leaking operations (refusals excluded).
    pub fn failed(&self) -> u64 {
        self.attempted - self.answered - self.refused
    }

    /// Whether every failure was one the workload allows (a typed budget
    /// failure); mismatches, leaks and other errors make a run incorrect.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.leaked == 0 && self.errors == 0
    }

    /// Verified answers per operation the engine accepted.
    pub fn ok_share(&self) -> f64 {
        let accepted = self.attempted - self.refused;
        if accepted == 0 {
            0.0
        } else {
            self.answered as f64 / accepted as f64
        }
    }
}
