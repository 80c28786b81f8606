//! The traced run: per-layer numbers measured from outside, by spanning
//! the benchmark's own calls into each crate's public functions.
//!
//! | span                | call                                        |
//! |---------------------|---------------------------------------------|
//! | `isa.exec`          | `Executor::run`                             |
//! | `trace.alg2`        | `generate_traces`                           |
//! | `btu.encode`        | `EncodedTraces::from_bundle`                |
//! | `analysis.lint`     | `cassandra_analysis::analyze`               |
//! | `btu.make`          | `AnalysisBundle::make_btu`                  |
//! | `cpu.setup`         | `Simulator::new`                            |
//! | `cpu.run`           | `Simulator::run`                            |
//! | `core.sweep`        | `SweepExecutor::sweep_stream`               |
//! | `core.record_encode`| `serde_json::to_string(&EvalRecord)`        |
//! | `core.render`       | `report::render_text`                       |
//! | `server.service`    | `EvalService::handle_tagged`                |
//! | `server.encode`     | the response-line encoding inside its sink  |
//! | `client.op`/`recv`  | the repository's own `Client`               |
//!
//! Two reconciliations are reported. Serially, the cell layers
//! (`btu.make + cpu.setup + cpu.run`) must add up to the per-cell time of
//! an untraced serial `sweep_stream` over the same cells
//! (`trace.cell_reconcile_err_pct`). In-process, the service time of a
//! request must split into sweep, lint, encode and render
//! (`server.split_residual_pct` is what is left over). Both are stated
//! against a tolerance of 15% in the benchmark's README.

use crate::alloc::allocations;
use crate::inputs::{
    cell_key, cold_strata, grid_menu, kernel_workload, standard_designs, Reference, COLD_POLICIES,
    SMOKE_KERNELS,
};
use crate::spans::{LayerTime, Open, Tracer};
use crate::util::{mean, median, ms, Outcome};
use crate::wire::{self, Server};
use crate::E2e;
use cassandra_btu::EncodedTraces;
use cassandra_core::eval::{
    AnalysisStore, CancelToken, DesignPoint, EvalRecord, SweepExecutor, SweepOutcome,
};
use cassandra_core::lint::LintRow;
use cassandra_core::policies::PolicyRegistry;
use cassandra_core::report;
use cassandra_core::ExperimentOutput;
use cassandra_cpu::{SimStats, Simulator};
use cassandra_isa::Executor;
use cassandra_kernels::workload::Workload;
use cassandra_server::protocol;
use cassandra_server::{Client, EvalService, Request, Response, ResponseEnvelope};
use cassandra_trace::generate_traces;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A workload × design matrix, analyzed against a warm store or (`cold`)
/// a fresh one.
#[derive(Clone)]
pub struct Matrix {
    pub workloads: Vec<Workload>,
    pub designs: Vec<DesignPoint>,
    pub cold: bool,
}

/// The in-process work one request decomposes into.
pub enum Part {
    /// `Submit`: the server builds the kernel (family, size).
    Submit(&'static str, u64),
    Sweep(Matrix),
    Lint(Workload),
}

/// One operation of a workload: the requests a client sends back to back,
/// and the in-process parts the service time should split into.
pub struct Op {
    pub requests: Vec<Request>,
    pub parts: Vec<Part>,
}

/// A workload's requests for the service and wire probes.
pub struct Scenario {
    /// Untimed requests bringing a fresh service to the workload's state.
    pub setup: Vec<Request>,
    pub ops: Vec<Op>,
    /// Times each op is repeated (1 for ops that must see a cold store).
    pub op_reps: usize,
    /// True if each op opens its own connection (as in the end-to-end run).
    pub connection_per_op: bool,
}

/// Minimum time spent repeating the program-layer probe.
const PROGRAM_PROBE: Duration = Duration::from_millis(400);
/// Minimum time spent on the cell reconciliation, and its repetitions.
const CELL_PROBE: Duration = Duration::from_millis(600);
const CELL_PROBE_MAX_REPS: usize = 5;
const PINGS: usize = 20;

fn layer(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> LayerTime {
    layers.get(name).copied().unwrap_or_default()
}

fn per(total_ns: u64, count: u64, scale: f64) -> f64 {
    total_ns as f64 / count.max(1) as f64 / scale
}

/// Serial, decomposed simulation of one cell: the exact sequence
/// `Evaluator::simulate_program` runs, each call in its own span.
fn traced_cell(
    tracer: &Tracer,
    parent: &Open,
    w: &Workload,
    d: &DesignPoint,
    store: &AnalysisStore,
) -> SimStats {
    let (bundle, _) = store
        .entry(&w.kernel.program, w.kernel.step_limit)
        .expect("analysis of a benchmark program");
    let mut cfg = d.config;
    cfg.max_instructions = cfg.max_instructions.max(w.kernel.step_limit);
    let btu = cfg
        .resolved_policy()
        .frontend
        .uses_btu()
        .then(|| tracer.span("btu.make", Some(parent), 0, |_| bundle.make_btu(&cfg)));
    let sim = tracer.span("cpu.setup", Some(parent), 0, |_| {
        Simulator::new(&w.kernel.program, cfg, btu)
    });
    tracer
        .span("cpu.run", Some(parent), 0, |_| sim.run())
        .expect("benchmark cells simulate")
        .stats
}

fn warm_store(workloads: &[Workload]) -> AnalysisStore {
    let store = AnalysisStore::new();
    for w in workloads {
        store
            .entry(&w.kernel.program, w.kernel.step_limit)
            .expect("analysis of a benchmark program");
    }
    store
}

/// The exact simulated counts over one pass of a matrix.
#[derive(Default)]
struct Counts {
    cells: u64,
    committed: u64,
    cycles: u64,
    squashed: u64,
    btu_hits: u64,
    btu_lookups: u64,
}

impl Counts {
    fn add(&mut self, s: &SimStats) {
        self.cells += 1;
        self.committed += s.committed_instructions;
        self.cycles += s.cycles;
        self.squashed += s.squashed_instructions;
        self.btu_hits += s.btu.hits;
        self.btu_lookups += s.btu.lookups;
    }
}

#[allow(clippy::too_many_arguments)]
pub fn probe(
    out: &mut Outcome,
    tracer: &Tracer,
    workload: &str,
    matrix: &Matrix,
    scenario: &Scenario,
    untraced: &E2e,
    traced: &E2e,
    build_ms: f64,
) {
    let reference = Reference::load(workload);

    // Programs: functional executor, Algorithm 2, BTU encoding, lint.
    let mut exec_steps = 0u64;
    let start = Instant::now();
    let mut request = 0u64;
    while request == 0 || start.elapsed() < PROGRAM_PROBE {
        for w in &matrix.workloads {
            request += 1;
            let p = &w.kernel.program;
            tracer.span("program", None, request, |parent| {
                exec_steps += tracer.span("isa.exec", Some(parent), request, |_| {
                    Executor::new(p)
                        .run(w.kernel.step_limit)
                        .expect("program runs")
                });
                let bundle = tracer.span("trace.alg2", Some(parent), request, |_| {
                    generate_traces(p, None, w.kernel.step_limit).expect("program analyzes")
                });
                tracer.span("btu.encode", Some(parent), request, |_| {
                    EncodedTraces::from_bundle(p, &bundle)
                });
                tracer.span("analysis.lint", Some(parent), request, |_| {
                    cassandra_analysis::analyze(p)
                });
            });
        }
    }

    // Cells. One serial sweep of the whole matrix gives the exact counters,
    // the allocation count and the records. Then every cell runs twice per
    // repetition, once decomposed into spanned calls and once through an
    // untraced serial `sweep_stream` of that one cell, alternating which
    // goes first, so swings in machine speed hit both alike.
    let store = warm_store(&matrix.workloads);
    let serial = SweepExecutor::new(&store).with_threads(Some(1));
    let n_cells = matrix.workloads.len() * matrix.designs.len();
    let mut records: Vec<EvalRecord> = Vec::with_capacity(n_cells);
    let allocs = allocations();
    let result = serial.sweep_stream(
        &matrix.workloads,
        &matrix.designs,
        &CancelToken::new(),
        |r| {
            records.push(r);
            true
        },
    );
    let allocs_per_cell = (allocations() - allocs) as f64 / n_cells.max(1) as f64;
    out.check(matches!(result, Ok(SweepOutcome::Complete)), || {
        format!("serial sweep failed: {result:?}")
    });
    let mut counts = Counts::default();
    for r in &records {
        counts.add(&r.stats);
        if let Err(e) = reference.check(&cell_key(&r.workload, &r.design), &r.stats) {
            out.errors.push(e);
        }
    }
    let mut swept = Duration::ZERO;
    let mut sweep_one = |w: &Workload, d: &DesignPoint| {
        let t = Instant::now();
        let _ = serial.sweep_stream(
            std::slice::from_ref(w),
            std::slice::from_ref(d),
            &CancelToken::new(),
            |_| true,
        );
        swept += t.elapsed();
    };
    let start = Instant::now();
    for rep in 0..CELL_PROBE_MAX_REPS {
        if rep >= 2 && start.elapsed() > CELL_PROBE {
            break;
        }
        for w in &matrix.workloads {
            for d in &matrix.designs {
                if rep % 2 == 1 {
                    sweep_one(w, d);
                }
                request += 1;
                let stats = tracer.span("cell", None, request, |parent| {
                    traced_cell(tracer, parent, w, d, &store)
                });
                if rep == 0 {
                    if let Err(e) = reference.check(&cell_key(&w.name, &d.label), &stats) {
                        out.errors.push(e);
                    }
                }
                if rep % 2 == 0 {
                    sweep_one(w, d);
                }
            }
        }
    }
    let layered_ns: u64 = ["btu.make", "cpu.setup", "cpu.run"]
        .iter()
        .map(|name| layer(&tracer.layers(), name).self_ns)
        .sum();
    let swept_ns = swept.as_nanos() as f64;
    let cell_err_pct = (layered_ns as f64 - swept_ns) / swept_ns.max(1.0) * 100.0;

    // Records: JSON encoding.
    let mut record_bytes = 0usize;
    for r in &records {
        request += 1;
        record_bytes += tracer
            .span("core.record_encode", None, request, |_| {
                serde_json::to_string(r)
            })
            .map_or(0, |s| s.len());
    }

    // Service: in-process `handle_tagged`, its sink encoding each line the
    // way the server frames it, and the parts its time should split into.
    let service = EvalService::new();
    let mut service_errors = Vec::new();
    for r in &scenario.setup {
        let _ = service.handle(r.clone(), &mut |response| {
            if let Response::Error { message } = response {
                service_errors.push(format!("in-process service set-up: {message}"));
            }
            Ok(())
        });
    }
    let mut service_ms = Vec::new();
    let mut splits = Vec::new();
    let mut wire_bytes = 0usize;
    let mut wire_lines = 0usize;
    let mut wire_cells = 0usize;
    for rep in 0..scenario.op_reps {
        for (i, op) in scenario.ops.iter().enumerate() {
            request += 1;
            let t = Instant::now();
            tracer.span("server.op", None, request, |op_span| {
                for (j, req) in op.requests.iter().enumerate() {
                    let id = format!("probe-{rep}-{i}-{j}");
                    tracer.span("server.service", Some(op_span), request, |svc| {
                        let mut sink = |response: Response| {
                            if let Response::Error { message } = &response {
                                service_errors.push(format!("in-process service: {message}"));
                            }
                            if matches!(response, Response::Record(_)) {
                                wire_cells += 1;
                            }
                            let line = tracer.span("server.encode", Some(svc), request, |_| {
                                protocol::encode(&ResponseEnvelope {
                                    id: id.clone(),
                                    response,
                                })
                            });
                            wire_bytes += line.len() + 1;
                            wire_lines += 1;
                            Ok(())
                        };
                        let _ = service.handle_tagged(Some(&id), req.clone(), &mut sink);
                    });
                }
            });
            service_ms.push(ms(t.elapsed()));
            // Right after the service, so both see the same machine speed.
            splits.push(split(tracer, op, request));
        }
    }

    // Wire: the same requests through a loopback server and the
    // repository's own client.
    let (wire_ms, ping_ms) = wire_probe(tracer, scenario, &mut request, out);
    out.errors.extend(service_errors);

    let layers = tracer.layers();
    let m = &mut out.metrics;
    let exec = layer(&layers, "isa.exec");
    let run = layer(&layers, "cpu.run");
    let cells = layer(&layers, "cell").count;
    let exec_ns = per(exec.self_ns, exec_steps, 1.0);
    // Committed instructions of every decomposed cell pass.
    let run_instrs = counts.committed * (cells / counts.cells.max(1));
    let run_ns = per(run.self_ns, run_instrs, 1.0);
    m.put("isa.exec_ns_per_instr", exec_ns, "ns");
    m.put("cpu.run_ns_per_instr", run_ns, "ns");
    m.put(
        "cpu.run_to_exec_ratio",
        run_ns / exec_ns.max(f64::EPSILON),
        "ratio",
    );
    m.put(
        "cpu.setup_us_per_cell",
        per(layer(&layers, "cpu.setup").self_ns, cells, 1e3),
        "us",
    );
    m.put(
        "btu.make_us_per_cell",
        per(layer(&layers, "btu.make").self_ns, cells, 1e3),
        "us",
    );
    m.put("core.allocs_per_cell", allocs_per_cell, "count");
    let enc = layer(&layers, "core.record_encode");
    m.put(
        "core.record_encode_us",
        per(enc.self_ns, enc.count, 1e3),
        "us",
    );
    m.put(
        "core.record_bytes",
        record_bytes as f64 / records.len().max(1) as f64,
        "B",
    );
    let part = |f: fn(&Split) -> f64| mean(&splits.iter().map(f).collect::<Vec<_>>());
    let (sweep_ms, render_ms) = (part(|s| s.sweep), part(|s| s.render));
    let (lint_ms, build_op_ms) = (part(|s| s.lint), part(|s| s.build));
    m.put("core.render_ms_per_request", render_ms, "ms");
    let ops_served = service_ms.len().max(1) as f64;
    m.put(
        "server.wire_bytes_per_cell",
        wire_bytes as f64 / wire_cells.max(1) as f64,
        "B",
    );
    m.put(
        "server.lines_per_cell",
        wire_lines as f64 / wire_cells.max(1) as f64,
        "count",
    );
    let service = mean(&service_ms);
    let encode_ms = layer(&layers, "server.encode").total_ns as f64 / 1e6 / ops_served;
    m.put("server.service_ms_per_request", service, "ms");
    m.put("server.sweep_ms_per_request", sweep_ms, "ms");
    m.put("server.lint_ms_per_request", lint_ms, "ms");
    m.put("server.build_ms_per_request", build_op_ms, "ms");
    m.put("server.encode_ms_per_request", encode_ms, "ms");
    m.put(
        "server.split_residual_pct",
        (service - sweep_ms - render_ms - lint_ms - build_op_ms - encode_ms)
            / service.max(f64::EPSILON)
            * 100.0,
        "%",
    );
    m.put(
        "server.transport_ms_per_request",
        mean(&wire_ms) - service,
        "ms",
    );
    m.put("server.ping_rtt_ms", median(&ping_ms), "ms");
    let per_program = |name: &str| {
        let l = layer(&layers, name);
        per(l.self_ns, l.count, 1e3)
    };
    m.put("trace.alg2_us_per_program", per_program("trace.alg2"), "us");
    m.put("btu.encode_us_per_program", per_program("btu.encode"), "us");
    m.put(
        "analysis.lint_us_per_program",
        per_program("analysis.lint"),
        "us",
    );
    m.put("core.store_misses", untraced.store_misses as f64, "count");
    m.put("core.store_hits", untraced.store_hits as f64, "count");
    let lookups = (untraced.store_hits + untraced.store_misses).max(1) as f64;
    m.put(
        "core.store_hit_ratio",
        untraced.store_hits as f64 / lookups,
        "ratio",
    );
    m.put("kernels.build_ms", build_ms, "ms");
    m.put("cpu.cells", counts.cells as f64, "count");
    m.put("cpu.committed_instrs", counts.committed as f64, "count");
    m.put("cpu.sim_cycles", counts.cycles as f64, "count");
    m.put(
        "cpu.squash_ratio",
        counts.squashed as f64 / counts.committed.max(1) as f64,
        "ratio",
    );
    m.put(
        "btu.hit_ratio",
        counts.btu_hits as f64 / counts.btu_lookups.max(1) as f64,
        "ratio",
    );
    m.put("trace.cell_reconcile_err_pct", cell_err_pct, "%");
    m.put(
        "trace.overhead_pct",
        (untraced.cells_per_s() - traced.cells_per_s()) / untraced.cells_per_s().max(f64::EPSILON)
            * 100.0,
        "%",
    );
    m.put(
        "trace.p50_overhead_ms",
        median(&traced.latencies_ms) - median(&untraced.latencies_ms),
        "ms",
    );
    m.put("trace.spans", tracer.len() as f64, "count");
}

/// The in-process parts one op's service time should split into, in ms.
#[derive(Default)]
struct Split {
    sweep: f64,
    render: f64,
    lint: f64,
    build: f64,
}

fn split(tracer: &Tracer, op: &Op, request: u64) -> Split {
    let mut out = Split::default();
    let timed = |into: &mut f64, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.span(name, None, request, |_| f());
        *into += ms(t.elapsed());
    };
    for part in &op.parts {
        match part {
            Part::Sweep(m) => {
                let store = if m.cold {
                    AnalysisStore::new()
                } else {
                    warm_store(&m.workloads)
                };
                let executor = SweepExecutor::new(&store);
                // The service clones every record it streams, to render the
                // closing report from them.
                let mut records = Vec::new();
                timed(&mut out.sweep, "core.sweep", &mut || {
                    let _ =
                        executor.sweep_stream(&m.workloads, &m.designs, &CancelToken::new(), |r| {
                            records.push(r.clone());
                            true
                        });
                });
                let output = ExperimentOutput::Records(records);
                timed(&mut out.render, "core.render", &mut || {
                    report::render_text(&output);
                });
            }
            Part::Submit(family, size) => {
                timed(&mut out.build, "kernels.build", &mut || {
                    kernel_workload(family, *size);
                });
            }
            Part::Lint(w) => {
                timed(&mut out.lint, "core.lint_request", &mut || {
                    let static_report = cassandra_analysis::analyze(&w.kernel.program);
                    let rows = vec![LintRow::from_report(w, &static_report)];
                    report::render_text(&ExperimentOutput::Lint(rows));
                });
            }
        }
    }
    out
}

/// Client-observed latency of every op of `scenario`, and of `Ping`s,
/// through a loopback server.
fn wire_probe(
    tracer: &Tracer,
    scenario: &Scenario,
    request: &mut u64,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut wire_ms = Vec::new();
    let mut ping_ms = Vec::new();
    let connected = Server::start().and_then(|server| {
        let client = Client::connect(server.addr)?;
        Ok((server, client))
    });
    let (server, mut client) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            out.errors.push(format!("probe server: {e}"));
            return (wire_ms, ping_ms);
        }
    };
    let mut check = |replies: std::io::Result<Vec<Response>>| match replies {
        Ok(replies) => {
            if let Some(Response::Error { message }) = replies.last() {
                out.errors.push(format!("probe request: {message}"));
            }
        }
        Err(e) => out.errors.push(format!("probe request: {e}")),
    };
    for r in &scenario.setup {
        check(client.request(r));
    }
    for _ in 0..PINGS {
        let t = Instant::now();
        check(client.request(&Request::Ping));
        ping_ms.push(ms(t.elapsed()));
    }
    for rep in 0..scenario.op_reps {
        for (i, op) in scenario.ops.iter().enumerate() {
            *request += 1;
            let t = Instant::now();
            if scenario.connection_per_op {
                match Client::connect(server.addr) {
                    Ok(fresh) => client = fresh,
                    Err(e) => {
                        check(Err(e));
                        continue;
                    }
                }
            }
            let span = tracer.open("client.op", None, *request);
            for (j, req) in op.requests.iter().enumerate() {
                let id = format!("wire-{rep}-{i}-{j}");
                check(wire::call(&mut client, &id, req, Some((tracer, &span))));
            }
            tracer.close(span);
            wire_ms.push(ms(t.elapsed()));
        }
    }
    (wire_ms, ping_ms)
}

/// Rewrites `reference/*.tsv` from the current code: every cell each
/// workload can produce, simulated in-process.
pub fn bless() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let write = |name: &str, workloads: Vec<Workload>, designs: Vec<DesignPoint>| {
        let store = AnalysisStore::new();
        let records = SweepExecutor::new(&store)
            .sweep_matrix(&workloads, &designs)
            .map_err(|e| format!("{name}: {e}"))?;
        let mut lines: Vec<String> = records
            .iter()
            .map(|r| Reference::line(&cell_key(&r.workload, &r.design), &r.stats))
            .collect();
        lines.sort();
        lines.dedup();
        std::fs::write(dir.join(format!("{name}.tsv")), lines.join("\n") + "\n")
            .map_err(|e| format!("{name}: {e}"))?;
        eprintln!("perfbench: blessed {} cells of {name}", lines.len());
        Ok::<(), String>(())
    };
    write(
        "sweep-paper",
        cassandra_kernels::suite::full_suite(),
        cassandra_bench::representative_designs(),
    )?;
    let mut registry = PolicyRegistry::new();
    for g in grid_menu() {
        for d in g.to_grid()?.expand().designs() {
            registry.register(d.clone());
        }
    }
    write(
        "grid-short",
        SMOKE_KERNELS
            .iter()
            .map(|(f, s)| kernel_workload(f, *s))
            .collect(),
        registry.designs().to_vec(),
    )?;
    let cold: Vec<Workload> = cold_strata()
        .into_iter()
        .flatten()
        .map(|(f, s)| {
            let mut w = kernel_workload(f, s);
            w.name = format!("{f}-{s}");
            w
        })
        .collect();
    write("cold-submit", cold, standard_designs(COLD_POLICIES))
}
