//! Benchmark entry point.
//!
//! ```text
//! e2ebench --workload <tpch_schemes|serve_open|tpch_budget> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! e2ebench --make-golden > golden.tsv
//! ```
//!
//! Prints a short human-readable summary and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. Spill files go to
//! `.bench_out/tmp`; both directories are under the working directory.

use std::path::Path;
use std::process::ExitCode;

use e2ebench::golden::{self, Digest, Golden};
use e2ebench::report::{self, Values};
use e2ebench::setup::{self, SetupLayers, SCHEMES};
use e2ebench::stats::{median, tail};
use e2ebench::trace::Spans;
use e2ebench::{closed, data_seed, serve, Tally, Workload, BUDGET_BYTES, DATA_SEEDS, SF};

/// Set-ups per run; `setup_s` and the set-up layers report the median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    MakeGolden,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--make-golden"] {
        return Ok(Mode::MakeGolden);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let stray = e2ebench::stray_env();
    if !stray.is_empty() {
        eprintln!("refusing to run: engine environment variables are set: {}", stray.join(", "));
        return ExitCode::from(2);
    }
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = match e2ebench::prepare_out_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot prepare .bench_out: {e}");
            return ExitCode::from(1);
        }
    };
    match mode {
        Mode::MakeGolden => make_golden(),
        Mode::Run(args) => run(&args, &out_dir),
    }
}

fn run(args: &Args, out_dir: &Path) -> ExitCode {
    let golden = Golden::load();
    if golden.seeds() < DATA_SEEDS as usize {
        eprintln!("error: golden.tsv covers {} data seeds, need {DATA_SEEDS}", golden.seeds());
        return ExitCode::from(1);
    }
    let ds = data_seed(args.workload, args.seed);
    let mut spans = Spans::new(args.trace);
    let mut values = Values::default();
    println!(
        "workload {} seed {} (TPC-H SF {SF}, data seed {ds}) seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::new();
    let mut layers: Vec<SetupLayers> = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // release the previous build before the next one
        if args.trace {
            let (s, l) = setup::build_traced(ds, &mut spans);
            layers.push(l);
            built = Some(s);
        } else {
            let (s, secs) = setup::build(ds);
            setup_s.push(secs);
            built = Some(s);
        }
    }
    let setup = built.expect("at least one set-up");
    if args.trace {
        let med = |f: fn(&SetupLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
        values.set("tpch.gen_s", med(|l| l.gen_s));
        values.set("core.design_s", med(|l| l.design_s));
        values.set("core.cluster_s", med(|l| l.cluster_s));
        values.set("exec.pk_sort_s", med(|l| l.pk_sort_s));
        values.set("core.groups", med(|l| l.groups));
        values.set("core.rows_per_group", med(|l| l.rows_per_group));
    } else {
        values.set("setup_s", median(&setup_s));
        println!("setup_s samples: {setup_s:?}");
    }

    let (tally, warmup, mut problems) = match args.workload {
        Workload::TpchSchemes | Workload::TpchBudget => {
            let budget = (args.workload == Workload::TpchBudget).then_some(BUDGET_BYTES);
            let passes = closed::passes_for(args.seconds, budget, args.trace);
            let r = closed::run(&setup, &golden, budget, passes, args.trace, &mut spans);
            let lat = r.latencies();
            println!(
                "{} passes in {:.2} s; {} timed executions; latency tail at p{:.1} of {} answers",
                r.passes,
                r.elapsed_s,
                r.execs.len(),
                tail(&lat).1,
                lat.len()
            );
            if args.trace {
                r.per_layer(&mut values);
            } else {
                r.end_to_end(&mut values);
            }
            let gaps = r.attribution_gaps();
            let problems = if gaps > 0 {
                vec![format!("{gaps} traced queries whose self times do not sum to wall")]
            } else {
                vec![]
            };
            (r.tally, r.warmup, problems)
        }
        Workload::ServeOpen => {
            let r = serve::run(&setup, &golden, args.seed, args.seconds, args.trace, &mut spans);
            let steady = r.requests.iter().filter(|q| q.phase == 0).count();
            let (lat, over) = (r.latencies(0), r.latencies(1));
            println!(
                "steady {} requests at {} qps, overload {} at {} qps; refused {}; \
                 latency tail at p{:.1} in each of {} windows over {} steady answers; \
                 generator lateness tail {:.3} ms, max {:.3} ms",
                steady,
                serve::STEADY_QPS,
                r.requests.len() - steady,
                serve::OVERLOAD_QPS,
                r.tally.refused,
                tail(&lat[..lat.len() / serve::STEADY_WINDOWS]).1,
                serve::STEADY_WINDOWS,
                lat.len(),
                r.lateness().0,
                r.lateness().1
            );
            println!(
                "overload latency: p50 {:.1} ms, tail {:.1} ms over {} answers (limit {} ms)",
                median(&over),
                tail(&over).0,
                over.len(),
                e2ebench::LIMIT_MS
            );
            if args.trace {
                r.per_layer(&mut values);
            } else {
                r.end_to_end(&mut values);
            }
            let mut problems = r.server_faults.clone();
            if !r.generator_on_time() {
                let (tail, max) = r.lateness();
                problems.push(format!(
                    "generator fell behind: lateness tail {tail:.1} ms (limit {} ms), max {max:.1} ms",
                    serve::MAX_LATE_TAIL_MS
                ));
            }
            let gaps = r.attribution_gaps();
            if gaps > 0 {
                problems
                    .push(format!("{gaps} traced requests whose self times do not sum to wall"));
            }
            (r.tally, r.warmup, problems)
        }
    };
    if !warmup.correct() {
        problems.push(format!("warm-up failed: {:?}", warmup.notes));
    }
    report_tally(&tally);
    for p in problems.iter().chain(&tally.notes) {
        println!("problem: {p}");
    }
    let correct = tally.correct() && problems.is_empty();

    let catalogue = if args.trace { report::per_layer() } else { report::end_to_end() };
    if args.trace {
        values.zero_fill(&catalogue);
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans written to {}", path.display());
    }
    println!("{}", values.result_line(&catalogue, correct, tally.attempted, tally.failed()));
    ExitCode::SUCCESS
}

fn report_tally(t: &Tally) {
    println!(
        "attempted {} answered {} refused {} over-budget {} mismatched {} leaked {} errors {}",
        t.attempted, t.answered, t.refused, t.over_budget, t.mismatched, t.leaked, t.errors
    );
}

/// Print `golden.tsv`: every query on every data seed, serial and
/// unbudgeted, with the three schemes required to agree.
fn make_golden() -> ExitCode {
    println!("# data_seed\tquery\trows\tfnv1a64(canonical_rows) — TPC-H SF {SF}");
    for ds in 0..DATA_SEEDS {
        let (setup, _) = setup::build(ds);
        for q in bdcc_tpch::all_queries() {
            let mut digests = Vec::new();
            for (s, name) in SCHEMES.iter().enumerate() {
                let ctx = bdcc_tpch::QueryCtx::new(
                    bdcc_exec::QueryContext::new(std::sync::Arc::clone(&setup.schemes[s])),
                    SF,
                );
                match (q.run)(&ctx) {
                    Ok(b) => digests.push(Digest::of(&b)),
                    Err(e) => {
                        eprintln!("data seed {ds} {name} Q{}: {e}", q.id);
                        return ExitCode::from(1);
                    }
                }
            }
            if digests.iter().any(|d| *d != digests[0]) {
                eprintln!("data seed {ds} Q{}: schemes disagree: {digests:?}", q.id);
                return ExitCode::from(1);
            }
            println!("{}", golden::line(ds, q.id, digests[0]));
        }
        eprintln!("data seed {ds} done");
    }
    ExitCode::SUCCESS
}
