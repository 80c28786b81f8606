//! `grid-short`: two closed-loop clients on two connections send tagged
//! `GridSweep`s over the four short smoke kernels to a warm server. Each
//! request's grid comes from a fixed menu of four 12-point grids (48 cells
//! per request); cells are short, so per-cell fixed costs, encoding,
//! rendering and the transport dominate.

use crate::inputs::{cell_key, grid_menu, kernel_workload, submit, Reference, SMOKE_KERNELS};
use crate::layers::{self, Matrix, Op, Part, Scenario};
use crate::spans::Tracer;
use crate::util::{ms, Outcome, Rng};
use crate::wire::{self, Server, Tally};
use crate::{E2e, RunArgs};
use cassandra_core::eval::{AnalysisStore, DesignPoint, SweepExecutor};
use cassandra_core::policies::PolicyRegistry;
use cassandra_cpu::SimStats;
use cassandra_kernels::workload::Workload;
use cassandra_server::{Client, GridSpec, Request, Response};
use std::collections::HashMap;
use std::time::Instant;

struct Setup {
    server: Server,
    workloads: Vec<Workload>,
    build_ms: f64,
}

fn grid_request(grid: &GridSpec) -> Request {
    Request::GridSweep {
        workloads: Vec::new(),
        grid: grid.clone(),
    }
}

/// Starts a server, submits the kernels and warms the store (and the
/// policy registry) with one sweep of every menu grid.
fn setup() -> Setup {
    let start = Instant::now();
    let workloads: Vec<Workload> = SMOKE_KERNELS
        .iter()
        .map(|(f, s)| kernel_workload(f, *s))
        .collect();
    let build_ms = ms(start.elapsed());
    let server = Server::start().expect("loopback server starts");
    let mut client = Client::connect(server.addr).expect("client connects");
    for (family, size) in SMOKE_KERNELS {
        let replies = client
            .request(&submit(family, *size, None))
            .expect("submit");
        assert!(
            matches!(replies.last(), Some(Response::Submitted { .. })),
            "{replies:?}"
        );
    }
    for grid in grid_menu() {
        let replies = client.request(&grid_request(&grid)).expect("warm sweep");
        assert!(
            matches!(replies.last(), Some(Response::Done(_))),
            "{:?}",
            replies.last()
        );
    }
    Setup {
        server,
        workloads,
        build_ms,
    }
}

fn menu_designs(menu: &[GridSpec]) -> Vec<Vec<DesignPoint>> {
    menu.iter()
        .map(|g| {
            g.to_grid()
                .expect("menu grids parse")
                .expand()
                .designs()
                .to_vec()
        })
        .collect()
}

struct GridOps {
    menu: Vec<GridSpec>,
    /// Each menu grid's design points, and their union.
    grid_designs: Vec<Vec<DesignPoint>>,
    all_designs: Vec<DesignPoint>,
    cells_per_grid: Vec<usize>,
    /// In-process `SweepExecutor` statistics of every menu cell.
    expected: HashMap<String, SimStats>,
}

impl wire::Ops for GridOps {
    fn next_op(&self, _client: usize, _n: usize, rng: &mut Rng) -> Option<Vec<Request>> {
        Some(vec![grid_request(&self.menu[rng.below(self.menu.len())])])
    }

    fn check(
        &self,
        client: usize,
        request: &Request,
        replies: &[Response],
        tally: &mut Tally,
    ) -> bool {
        let Request::GridSweep { grid, .. } = request else {
            return false;
        };
        let index = self.menu.iter().position(|g| g == grid).unwrap_or(0);
        let mut records = 0;
        for reply in replies {
            match reply {
                Response::Record(r) => {
                    records += 1;
                    tally.cells += 1;
                    tally.instrs += r.stats.committed_instructions;
                    let key = cell_key(&r.workload, &r.design);
                    if self.expected.get(&key) != Some(&r.stats) {
                        tally.errors.push(format!(
                            "client {client}: wire record {key} differs from the in-process sweep"
                        ));
                    }
                }
                Response::Progress { .. } => {}
                Response::Done(summary) => {
                    if summary.records != records || records != self.cells_per_grid[index] {
                        tally.errors.push(format!(
                            "client {client}: grid {index} streamed {records} records, summary {}, expected {}",
                            summary.records, self.cells_per_grid[index]
                        ));
                    }
                    return true;
                }
                other => {
                    tally
                        .errors
                        .push(format!("client {client}: unexpected reply {other:?}"));
                    return false;
                }
            }
        }
        false
    }
}

fn ops(s: &Setup, out: &mut Outcome) -> GridOps {
    let menu = grid_menu();
    let grid_designs = menu_designs(&menu);
    let mut all = PolicyRegistry::new();
    for d in grid_designs.iter().flatten() {
        all.register(d.clone());
    }
    let reference = Reference::load("grid-short");
    let store = AnalysisStore::new();
    let records = SweepExecutor::new(&store)
        .sweep_matrix(&s.workloads, all.designs())
        .expect("menu cells simulate in-process");
    let mut expected = HashMap::new();
    for r in records {
        let key = cell_key(&r.workload, &r.design);
        if let Err(e) = reference.check(&key, &r.stats) {
            out.errors.push(e);
        }
        expected.insert(key, r.stats);
    }
    GridOps {
        cells_per_grid: grid_designs
            .iter()
            .map(|d| d.len() * s.workloads.len())
            .collect(),
        menu,
        grid_designs,
        all_designs: all.designs().to_vec(),
        expected,
    }
}

fn e2e(
    s: &Setup,
    ops: &GridOps,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> E2e {
    let (mut e, tally) = wire::drive(s.server.addr, ops, seed, seconds, tracer);
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.errors.extend(tally.errors);
    let stats = s.server.store.stats();
    e.store_hits = stats.hits;
    e.store_misses = stats.misses;
    out.check(stats.misses == s.workloads.len() as u64, || {
        format!(
            "server ran Algorithm 2 {} times for {} programs",
            stats.misses,
            s.workloads.len()
        )
    });
    e
}

fn scenario(s: &Setup, ops: &GridOps) -> Scenario {
    let mut setup: Vec<Request> = SMOKE_KERNELS
        .iter()
        .map(|(f, n)| submit(f, *n, None))
        .collect();
    setup.extend(ops.menu.iter().map(grid_request));
    let ops = ops
        .menu
        .iter()
        .zip(&ops.grid_designs)
        .map(|(g, designs)| Op {
            requests: vec![grid_request(g)],
            parts: vec![Part::Sweep(Matrix {
                workloads: s.workloads.clone(),
                designs: designs.clone(),
                cold: false,
            })],
        })
        .collect();
    Scenario {
        setup,
        ops,
        op_reps: 3,
        connection_per_op: false,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = crate::timed_setup(setup);
    let ops = ops(&s, &mut out);
    if !args.trace {
        let e = e2e(&s, &ops, args.seed, args.seconds, None, &mut out);
        e.report(&mut out, setup_s);
        return out;
    }
    let untraced = e2e(&s, &ops, args.seed, args.seconds / 2.0, None, &mut out);
    let tracer = Tracer::default();
    let traced = e2e(
        &s,
        &ops,
        args.seed,
        args.seconds / 2.0,
        Some(&tracer),
        &mut out,
    );
    let matrix = Matrix {
        workloads: s.workloads.clone(),
        designs: ops.all_designs.clone(),
        cold: false,
    };
    layers::probe(
        &mut out,
        &tracer,
        "grid-short",
        &matrix,
        &scenario(&s, &ops),
        &untraced,
        &traced,
        s.build_ms,
    );
    crate::write_spans(&tracer, "grid-short", args.seed);
    out
}
