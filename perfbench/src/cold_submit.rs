//! `cold-submit`: two closed-loop clients each run operations of
//! Submit → Lint → Sweep{UnsafeBaseline, Cassandra} against a server that
//! starts with a cold store. Every operation submits a distinct program, so
//! each one is a store write: an Algorithm-2 miss, a BTU encode and a lint
//! insert. Operations run in rounds of 100, each on a fresh server,
//! so memory reflects one round's store and workload-list growth however
//! fast the operations get.

use crate::inputs::{
    cell_key, cold_strata, kernel_workload, standard_designs, submit, Reference, COLD_POLICIES,
};
use crate::layers::{self, Matrix, Op, Part, Scenario};
use crate::spans::Tracer;
use crate::util::{ms, Outcome, Rng};
use crate::wire::{self, Server, Tally};
use crate::{E2e, RunArgs, CLIENTS};
use cassandra_core::eval::{AnalysisStore, DesignPoint, EvalRecord, SweepExecutor};
use cassandra_core::lint::LintRow;
use cassandra_kernels::workload::Workload;
use cassandra_server::{Client, Request, Response};
use std::sync::Mutex;
use std::time::Instant;

/// Operations the traced probe replays through the service and the wire.
const PROBE_OPS: usize = 20;

/// One submitted program: its kernel spec and its in-process twin.
struct Program {
    family: &'static str,
    size: u64,
    workload: Workload,
}

/// One round's programs: one per stratum, in a seed-shuffled order.
fn round_programs(seed: u64, round: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed, 100 + round);
    let mut picks: Vec<(&'static str, u64)> = cold_strata()
        .into_iter()
        .map(|stratum| stratum[rng.below(stratum.len())])
        .collect();
    rng.shuffle(&mut picks);
    picks
        .into_iter()
        .map(|(family, size)| {
            let mut workload = kernel_workload(family, size);
            workload.name = format!("{family}-{size}");
            Program {
                family,
                size,
                workload,
            }
        })
        .collect()
}

fn op_requests(p: &Program) -> Vec<Request> {
    let name = &p.workload.name;
    vec![
        submit(p.family, p.size, Some(name.clone())),
        Request::Lint {
            workloads: vec![name.clone()],
        },
        Request::Sweep {
            workloads: vec![name.clone()],
            policies: COLD_POLICIES.iter().map(|p| (*p).to_string()).collect(),
        },
    ]
}

struct Round {
    server: Server,
    programs: Vec<Program>,
    build_ms: f64,
}

/// Set-up: the in-process twins of the round's programs, and a fresh
/// server that has answered a liveness `Ping`.
fn setup(seed: u64, round: u64) -> Round {
    let start = Instant::now();
    let programs = round_programs(seed, round);
    let build_ms = ms(start.elapsed());
    let server = Server::start().expect("loopback server starts");
    let pong = Client::connect(server.addr).and_then(|mut c| c.request(&Request::Ping));
    assert!(
        matches!(pong.as_deref(), Ok([Response::Pong { .. }])),
        "server answered Ping with {pong:?}"
    );
    Round {
        server,
        programs,
        build_ms,
    }
}

struct ColdOps<'a> {
    programs: &'a [Program],
    lints: Mutex<Vec<LintRow>>,
    records: Mutex<Vec<EvalRecord>>,
}

impl wire::Ops for ColdOps<'_> {
    /// Each operation opens its own connection, as a one-shot command-line
    /// client would.
    fn connection_per_op(&self) -> bool {
        true
    }

    fn next_op(&self, client: usize, n: usize, _rng: &mut Rng) -> Option<Vec<Request>> {
        self.programs.get(n * CLIENTS + client).map(op_requests)
    }

    fn check(
        &self,
        client: usize,
        request: &Request,
        replies: &[Response],
        tally: &mut Tally,
    ) -> bool {
        match (request, replies.last()) {
            (Request::Submit { .. }, Some(Response::Submitted { .. })) => true,
            (Request::Lint { .. }, Some(Response::LintReport { rows, .. })) if rows.len() == 1 => {
                lock(&self.lints).extend(rows.iter().cloned());
                true
            }
            (Request::Sweep { .. }, Some(Response::Done(summary))) => {
                let records: Vec<EvalRecord> = replies
                    .iter()
                    .filter_map(|r| match r {
                        Response::Record(r) => Some(r.clone()),
                        _ => None,
                    })
                    .collect();
                tally.cells += records.len() as u64;
                tally.instrs += records
                    .iter()
                    .map(|r| r.stats.committed_instructions)
                    .sum::<u64>();
                let ok = records.len() == COLD_POLICIES.len() && summary.records == records.len();
                if !ok {
                    tally.errors.push(format!(
                        "client {client}: sweep streamed {} records",
                        records.len()
                    ));
                }
                lock(&self.records).extend(records);
                ok
            }
            (_, last) => {
                tally
                    .errors
                    .push(format!("client {client}: {request:?} answered {last:?}"));
                false
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Checks one finished round: exactly-once analysis, and lint verdicts and
/// records equal to the in-process `analyze` and `SweepExecutor`.
fn check_round(
    round: &Round,
    ops: ColdOps<'_>,
    completed: u64,
    designs: &[DesignPoint],
    out: &mut Outcome,
) {
    let reference = Reference::load("cold-submit");
    let stats = round.server.store.stats();
    out.check(stats.misses == completed && stats.hits == 0, || {
        format!(
            "store misses {} / hits {} for {completed} distinct programs",
            stats.misses, stats.hits
        )
    });
    out.check(
        round.server.store.linted_programs() as u64 == completed,
        || {
            format!(
                "{} programs linted for {completed}",
                round.server.store.linted_programs()
            )
        },
    );
    let find = |name: &str| {
        round
            .programs
            .iter()
            .map(|p| &p.workload)
            .find(|w| w.name == name)
    };
    for row in ops.lints.into_inner().unwrap_or_default() {
        match find(&row.workload) {
            Some(w) => out.check(
                LintRow::from_report(w, &cassandra_analysis::analyze(&w.kernel.program)) == row,
                || {
                    format!(
                        "lint verdict of {} differs from in-process analyze",
                        row.workload
                    )
                },
            ),
            None => out
                .errors
                .push(format!("lint row for unknown program {}", row.workload)),
        }
    }
    let store = AnalysisStore::new();
    let executor = SweepExecutor::new(&store).with_threads(Some(1));
    for r in ops.records.into_inner().unwrap_or_default() {
        let key = cell_key(&r.workload, &r.design);
        let Some(w) = find(&r.workload) else {
            out.errors.push(format!("record for unknown program {key}"));
            continue;
        };
        let Some(d) = designs.iter().find(|d| d.label == r.design) else {
            out.errors.push(format!("record for unknown design {key}"));
            continue;
        };
        match executor.eval(w, d) {
            Ok(local) => out.check(local.stats == r.stats, || {
                format!("wire record {key} differs from the in-process sweep")
            }),
            Err(e) => out.errors.push(format!("{key}: {e}")),
        }
        if let Err(e) = reference.check(&key, &r.stats) {
            out.errors.push(e);
        }
    }
}

/// Rounds until `seconds` of operation windows and `MIN_OPS` operations.
fn e2e(
    first: Round,
    seed: u64,
    seconds: f64,
    round0: u64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> E2e {
    let designs = standard_designs(COLD_POLICIES);
    let mut total = E2e::default();
    let mut round = first;
    let mut index = round0;
    loop {
        let ops = ColdOps {
            programs: &round.programs,
            lints: Mutex::new(Vec::new()),
            records: Mutex::new(Vec::new()),
        };
        let (e, tally) = wire::drive(round.server.addr, &ops, seed, f64::MAX, tracer);
        let completed = tally.attempted - tally.failed;
        out.attempted += tally.attempted;
        out.failed += tally.failed;
        out.errors.extend(tally.errors);
        total.cells += e.cells;
        total.instrs += e.instrs;
        total.wall_s += e.wall_s;
        total.latencies_ms.extend(e.latencies_ms);
        let stats = round.server.store.stats();
        total.store_hits += stats.hits;
        total.store_misses += stats.misses;
        check_round(&round, ops, completed, &designs, out);
        if total.wall_s >= seconds && total.latencies_ms.len() >= crate::MIN_OPS {
            return total;
        }
        index += 1;
        drop(round);
        round = setup(seed, index);
    }
}

fn scenario(programs: &[Program]) -> (Matrix, Scenario) {
    let designs = standard_designs(COLD_POLICIES);
    let probe = &programs[..PROBE_OPS.min(programs.len())];
    let ops = probe
        .iter()
        .map(|p| Op {
            requests: op_requests(p),
            parts: vec![
                Part::Submit(p.family, p.size),
                Part::Lint(p.workload.clone()),
                Part::Sweep(Matrix {
                    workloads: vec![p.workload.clone()],
                    designs: designs.clone(),
                    cold: true,
                }),
            ],
        })
        .collect();
    let matrix = Matrix {
        workloads: probe.iter().map(|p| p.workload.clone()).collect(),
        designs,
        cold: true,
    };
    (
        matrix,
        Scenario {
            setup: Vec::new(),
            ops,
            op_reps: 1,
            connection_per_op: true,
        },
    )
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (first, setup_s) = crate::timed_setup(|| setup(args.seed, 0));
    if !args.trace {
        let e = e2e(first, args.seed, args.seconds, 0, None, &mut out);
        e.report(&mut out, setup_s);
        return out;
    }
    let build_ms = first.build_ms;
    let (matrix, scenario) = scenario(&first.programs);
    let untraced = e2e(first, args.seed, args.seconds / 2.0, 0, None, &mut out);
    let tracer = Tracer::default();
    let traced = e2e(
        setup(args.seed, 1000),
        args.seed,
        args.seconds / 2.0,
        1000,
        Some(&tracer),
        &mut out,
    );
    layers::probe(
        &mut out,
        &tracer,
        "cold-submit",
        &matrix,
        &scenario,
        &untraced,
        &traced,
        build_ms,
    );
    crate::write_spans(&tracer, "cold-submit", args.seed);
    out
}
