//! Open-loop serving workload (`serve_open`).
//!
//! One generator thread submits requests on a seeded schedule
//! (exponential inter-arrival gaps) to one `Server` with 1 session, 2
//! pool threads per query and a fixed admission queue. A request is one
//! of the selective queries on one of the three schemes; the mix cycles
//! through seeded permutations of all 27 pairs, so every pair is served
//! about equally often. The run has a steady phase at about half of
//! capacity and then an overload phase above it.
//!
//! Each request is timed from its due time, not from when the generator
//! got to it, and its completion is stamped inside the submitted job, so a
//! late generator or a late `wait` cannot hide queueing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bdcc_exec::{
    ParallelConfig, QueryContext, QueryHandle, QueryOptions, QueryOutcome, ServeError, Server,
    ServerConfig,
};
use bdcc_obs::ProfileNode;
use bdcc_pool::{PoolStats, WorkerPool};
use bdcc_storage::spill::live_spill_files;
use bdcc_storage::IoStats;
use bdcc_tpch::{all_queries, Query, QueryCtx};

use crate::golden::Golden;
use crate::record::{
    attribution_gaps, scheme_end_to_end, scheme_layers, spill_and_pool_layers, Exec,
};
use crate::report::Values;
use crate::setup::{Setup, SCHEMES};
use crate::stats::{mean, median, tail, SplitMix};
use crate::trace::{OpAttrib, Spans};
use crate::{Outcome, Tally, LIMIT_MS, SF};

/// The selective queries served.
pub const MIX: [usize; 9] = [3, 5, 6, 7, 8, 10, 12, 14, 19];
/// One session: with two, each running 2-thread plans, 4 runnable threads
/// share the 2 cores, and on the reference box exec times then drifted by
/// up to 25 % between runs minutes apart, against under 10 % with one.
pub const SESSIONS: usize = 1;
pub const POOL_THREADS: usize = 2;
pub const QUEUE_DEPTH: usize = 4;
/// Offered rates. Under overload this server completes 80–96 qps of the
/// mix on a 2-core box: the steady phase offers about half of that, the
/// overload phase about twice.
pub const STEADY_QPS: f64 = 40.0;
pub const OVERLOAD_QPS: f64 = 170.0;
/// Share of `--seconds` spent in the steady phase; the rest is overload.
pub const STEADY_SHARE: f64 = 0.75;
/// Windows the steady phase's latency percentiles are averaged over.
pub const STEADY_WINDOWS: usize = 5;
/// The generator has fallen behind, and the run is invalid, when the tail
/// of its lateness passes this, or when any request goes out later than
/// the latency limit. Single scheduling hiccups below that are charged to
/// the requests' latency, which runs from the due time.
pub const MAX_LATE_TAIL_MS: f64 = 10.0;

/// What the job records about itself when the query returns.
#[derive(Debug)]
struct Done {
    at: Instant,
    wall_ns: u64,
    leaked: bool,
    io: IoStats,
    profile: Option<ProfileNode>,
}

/// One served request.
#[derive(Debug)]
pub struct Request {
    /// The query execution; `wall_ns` is timed inside the job.
    pub exec: Exec,
    /// 0 = steady, 1 = overload.
    pub phase: usize,
    pub late_ms: f64,
    /// Due time to completion stamp; `None` unless answered or failed
    /// after admission.
    pub latency_ms: Option<f64>,
    /// The server's own measurements (admitted and finished requests).
    pub queue_wait_ms: Option<f64>,
    pub exec_ms: Option<f64>,
}

/// The request schedule of one phase: `(offset seconds, scheme, query
/// index)`.
pub fn schedule(seed: u64, phase: usize, qps: f64, seconds: f64) -> Vec<(f64, usize, usize)> {
    let mut rng = SplitMix::new(seed ^ (0x5e7e_0000 + phase as u64));
    let pairs: Vec<(usize, usize)> =
        (0..SCHEMES.len()).flat_map(|s| MIX.iter().map(move |&q| (s, q - 1))).collect();
    let mut deck: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / qps);
        if t >= seconds {
            return out;
        }
        if deck.is_empty() {
            deck = pairs.clone();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        let (s, q) = deck.pop().expect("deck refilled above");
        out.push((t, s, q));
    }
}

/// A finished serving run.
#[derive(Debug)]
pub struct ServeRun {
    pub requests: Vec<Request>,
    pub warmup: Tally,
    pub tally: Tally,
    /// Offered window of each phase, seconds.
    pub phase_s: [f64; 2],
    pub pool: PoolStats,
    /// Server-level checks after each phase (finished == admitted, no
    /// tracked bytes, no spill files); each failure is described.
    pub server_faults: Vec<String>,
}

impl ServeRun {
    /// Tail and maximum of the generator's lateness, ms.
    pub fn lateness(&self) -> (f64, f64) {
        let late: Vec<f64> = self.requests.iter().map(|r| r.late_ms).collect();
        (tail(&late).0, late.iter().copied().fold(0.0, f64::max))
    }

    /// Whether the generator kept its schedule.
    pub fn generator_on_time(&self) -> bool {
        let (tail, max) = self.lateness();
        tail <= MAX_LATE_TAIL_MS && max <= LIMIT_MS
    }
}

struct Ctx<'a> {
    server: &'a Server,
    setup: &'a Setup,
    golden: &'a Golden,
    queries: Vec<Query>,
}

type Slot = Arc<Mutex<Option<Done>>>;

/// Submit one request.
fn submit(
    c: &Ctx<'_>,
    scheme: usize,
    query: usize,
    traced: bool,
) -> Result<(QueryHandle, Slot), ServeError> {
    let run = c.queries[query].run;
    let sdb = Arc::clone(&c.setup.schemes[scheme]);
    let slot: Slot = Arc::default();
    let job_slot = Arc::clone(&slot);
    let handle = c.server.submit_with(QueryOptions::default(), move |ctx: &QueryContext| {
        // One stream serves all three schemes: the session's context
        // (governor, tracker, parallel config) runs the query against the
        // requested scheme's database.
        let mut qc = ctx.clone();
        qc.sdb = sdb;
        if traced {
            qc = qc.with_profiling();
        }
        let qctx = QueryCtx::new(qc, SF);
        let start = Instant::now();
        let result = run(&qctx);
        let at = Instant::now();
        let profile = qctx.qc.profiler.as_ref().and_then(|p| p.root()).map(|r| r.freeze());
        *job_slot.lock().expect("request slot poisoned") = Some(Done {
            at,
            wall_ns: (at - start).as_nanos() as u64,
            leaked: qctx.qc.tracker.current() != 0,
            io: qctx.qc.io.stats(),
            profile,
        });
        result
    })?;
    Ok((handle, slot))
}

/// Wait for a submitted request: its result and what the job recorded.
fn finish(handle: QueryHandle, slot: Slot) -> (Result<QueryOutcome, ServeError>, Option<Done>) {
    let result = handle.wait();
    let done = slot.lock().expect("request slot poisoned").take();
    (result, done)
}

/// Judge a finished request against its golden answer.
fn judge(
    c: &Ctx<'_>,
    query: usize,
    result: &Result<QueryOutcome, ServeError>,
    done: Option<&Done>,
) -> Outcome {
    let leaked = done.is_some_and(|d| d.leaked);
    match result {
        Ok(o) => Outcome::judge(Ok(&o.batch), leaked, false, |b| {
            c.golden.matches(c.setup.data_seed, query + 1, b)
        }),
        Err(ServeError::Exec(e)) => Outcome::judge(Err(e), leaked, false, |_| false),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

/// Run one phase's schedule and wait for every admitted request.
fn run_phase(
    c: &Ctx<'_>,
    phase: usize,
    plan: &[(f64, usize, usize)],
    traced: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Request> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut pending = Vec::with_capacity(plan.len());
    for (i, &(offset, scheme, query)) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late_ms = due.elapsed().as_secs_f64() * 1e3;
        let tr = traced && i % 2 == 1;
        pending.push((due, scheme, query, tr, late_ms, submit(c, scheme, query, tr)));
    }
    let mut out = Vec::with_capacity(pending.len());
    for (due, scheme, query, traced, late_ms, submitted) in pending {
        let exec = Exec {
            scheme,
            query,
            traced,
            wall_ns: 0,
            outcome: Outcome::Refused,
            io: IoStats::default(),
            peak: 0,
            attrib: None,
        };
        let mut r =
            Request { exec, phase, late_ms, latency_ms: None, queue_wait_ms: None, exec_ms: None };
        match submitted {
            Err(ServeError::Overloaded { .. }) => {}
            Err(e) => r.exec.outcome = Outcome::Error(e.to_string()),
            Ok((handle, slot)) => {
                let (result, done) = finish(handle, slot);
                r.exec.outcome = judge(c, query, &result, done.as_ref());
                if let Ok(o) = &result {
                    r.queue_wait_ms = Some(o.queue_wait.as_secs_f64() * 1e3);
                    r.exec_ms = Some(o.exec.as_secs_f64() * 1e3);
                    r.exec.peak = o.peak_memory;
                }
                if let Some(d) = done {
                    r.latency_ms = Some((d.at - due).as_secs_f64() * 1e3);
                    r.exec.wall_ns = d.wall_ns;
                    r.exec.io = d.io;
                    if let Some(node) = d.profile {
                        let trace = spans.new_trace();
                        let id = spans.record(
                            trace,
                            None,
                            &format!("serve.{}.Q{}", SCHEMES[scheme], query + 1),
                            due,
                            d.at,
                        );
                        spans.attr(id, "late_ms", late_ms);
                        spans.attr(id, "queue_wait_ms", r.queue_wait_ms.unwrap_or(f64::NAN));
                        spans.profile(trace, id, &node);
                        r.exec.attrib = Some(OpAttrib::of(&node));
                    }
                }
            }
        }
        tally.add(&r.exec.outcome, || format!("phase {phase} {} Q{}", SCHEMES[scheme], query + 1));
        out.push(r);
    }
    out
}

/// Check the server is idle and clean after a phase.
fn check_server(server: &Server, phase: &str, faults: &mut Vec<String>) {
    let m = server.metrics();
    if m.finished() != m.admitted.get() {
        faults.push(format!("{phase}: finished {} != admitted {}", m.finished(), m.admitted.get()));
    }
    if server.memory().current() != 0 {
        faults.push(format!("{phase}: {} tracked bytes left", server.memory().current()));
    }
    if live_spill_files() != 0 {
        faults.push(format!("{phase}: {} spill files left", live_spill_files()));
    }
}

/// Warm-up (every pair once, one at a time), then the steady and the
/// overload phase. A traced run profiles every other request.
pub fn run(
    setup: &Setup,
    golden: &Golden,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &mut Spans,
) -> ServeRun {
    let cfg = ServerConfig {
        max_concurrent: SESSIONS,
        queue_depth: QUEUE_DEPTH,
        parallel: Some(ParallelConfig::with_threads(POOL_THREADS)),
        ..ServerConfig::default()
    };
    // The server's own database is BDCC; jobs pick their scheme (above).
    let server = Server::new(Arc::clone(&setup.schemes[2]), cfg);
    let c = Ctx { server: &server, setup, golden, queries: all_queries() };
    let mut faults = Vec::new();

    let mut warmup = Tally::default();
    for (s, name) in SCHEMES.iter().enumerate() {
        for &q in &MIX {
            let outcome = match submit(&c, s, q - 1, false) {
                Ok((handle, slot)) => {
                    let (result, done) = finish(handle, slot);
                    judge(&c, q - 1, &result, done.as_ref())
                }
                Err(e) => Outcome::Error(e.to_string()),
            };
            warmup.add(&outcome, || format!("warm-up {name} Q{q}"));
        }
    }
    check_server(&server, "warm-up", &mut faults);

    let phase_s = [seconds * STEADY_SHARE, seconds * (1.0 - STEADY_SHARE)];
    let rates = [STEADY_QPS, OVERLOAD_QPS];
    let mut tally = Tally::default();
    let mut requests = Vec::new();
    let pool_base = WorkerPool::shared().stats();
    for phase in 0..2 {
        let plan = schedule(seed, phase, rates[phase], phase_s[phase]);
        requests.extend(run_phase(&c, phase, &plan, traced, spans, &mut tally));
        check_server(&server, ["steady", "overload"][phase], &mut faults);
    }
    let pool = WorkerPool::shared().stats().since(&pool_base);
    drop(server);
    ServeRun { requests, warmup, tally, phase_s, pool, server_faults: faults }
}

impl ServeRun {
    /// Answered executions of `scheme` with the given tracing, both
    /// phases, per query of the mix.
    fn by_query(&self, scheme: usize, traced: bool) -> Vec<Vec<&Exec>> {
        MIX.iter()
            .map(|&q| {
                self.requests
                    .iter()
                    .map(|r| &r.exec)
                    .filter(|e| {
                        e.scheme == scheme
                            && e.query == q - 1
                            && e.traced == traced
                            && e.outcome == Outcome::Answered
                    })
                    .collect()
            })
            .collect()
    }

    pub fn attribution_gaps(&self) -> usize {
        attribution_gaps(self.requests.iter().map(|r| &r.exec))
    }

    /// Median and tail latency of the steady phase: the mean over
    /// `STEADY_WINDOWS` consecutive windows of each window's median and
    /// tail. A slow spell of the host inflates the tail of the windows it
    /// falls in; averaging five windows damps it more, run to run, than
    /// the median of three or one tail over the whole phase.
    pub fn steady_percentiles(&self) -> (f64, f64) {
        let lat = self.latencies(0);
        let (p50, p99): (Vec<f64>, Vec<f64>) = (0..STEADY_WINDOWS)
            .map(|w| {
                let part =
                    &lat[w * lat.len() / STEADY_WINDOWS..(w + 1) * lat.len() / STEADY_WINDOWS];
                (median(part), tail(part).0)
            })
            .unzip();
        (mean(&p50), mean(&p99))
    }

    /// Latencies of the answered requests of a phase, in due-time order.
    pub fn latencies(&self, phase: usize) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.phase == phase && r.exec.outcome == Outcome::Answered)
            .filter_map(|r| r.latency_ms)
            .collect()
    }

    pub fn end_to_end(&self, v: &mut Values) {
        for (s, name) in SCHEMES.iter().enumerate() {
            scheme_end_to_end(v, name, &self.by_query(s, false));
        }
        let (p50, p99) = self.steady_percentiles();
        v.set("p50_ms", p50);
        v.set("p99_ms", p99);
        let good = self.latencies(1).iter().filter(|&&ms| ms <= LIMIT_MS).count();
        v.set("goodput_qps", good as f64 / self.phase_s[1]);
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
        let admitted = |f: &dyn Fn(&Request) -> Option<f64>| -> Vec<f64> {
            self.requests.iter().filter_map(f).collect()
        };
        let waits = admitted(&|r| r.queue_wait_ms);
        let execs = admitted(&|r| r.exec_ms);
        v.set("serve.queue_wait_p50_ms", median(&waits));
        v.set("serve.queue_wait_p99_ms", tail(&waits).0);
        v.set("serve.exec_p50_ms", median(&execs));
        v.set("serve.exec_p99_ms", tail(&execs).0);
        v.set("serve.rejected", self.tally.refused as f64);
        v.set("gen.late_ms", self.lateness().0);
    }
}
