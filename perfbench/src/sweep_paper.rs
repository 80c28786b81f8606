//! `sweep-paper`: the warm, in-process 21-workload suite × the seven
//! representative policies through `SweepExecutor::sweep_stream` on two
//! threads. Simulation does almost all the work; the server, Algorithm 2
//! and lint are not on this path.

use crate::inputs::{cell_key, Reference};
use crate::layers::{self, Matrix, Op, Part, Scenario};
use crate::spans::Tracer;
use crate::util::{ms, Outcome, Rng};
use crate::{E2e, RunArgs};
use cassandra_bench::{representative_designs, REPRESENTATIVE_POLICIES};
use cassandra_core::eval::{AnalysisStore, CancelToken, DesignPoint, SweepExecutor, SweepOutcome};
use cassandra_kernels::suite;
use cassandra_kernels::workload::Workload;
use cassandra_server::{Request, WorkloadSpec};
use std::time::Instant;

const THREADS: usize = 2;

struct Setup {
    workloads: Vec<Workload>,
    designs: Vec<DesignPoint>,
    store: AnalysisStore,
    build_ms: f64,
}

fn setup() -> Setup {
    let start = Instant::now();
    let workloads = suite::full_suite();
    let build_ms = ms(start.elapsed());
    let store = AnalysisStore::new();
    for w in &workloads {
        store
            .entry(&w.kernel.program, w.kernel.step_limit)
            .expect("suite workloads analyze");
    }
    Setup {
        workloads,
        designs: representative_designs(),
        store,
        build_ms,
    }
}

/// Closed-loop passes over the whole matrix, in a seed-permuted order,
/// until `seconds` have passed and at least `min_passes` passes ran.
fn e2e(
    s: &Setup,
    rng: &mut Rng,
    seconds: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> E2e {
    let reference = Reference::load("sweep-paper");
    let executor = SweepExecutor::new(&s.store).with_threads(Some(THREADS));
    // One untimed pass first: the first pass after set-up runs on cold
    // caches and fresh pages and is far slower than the steady state.
    let warm = executor.sweep_stream(&s.workloads, &s.designs, &CancelToken::new(), |_| true);
    out.check(matches!(warm, Ok(SweepOutcome::Complete)), || {
        format!("warm-up pass: {warm:?}")
    });
    let mut e = E2e::default();
    let window = Instant::now();
    let mut passes = 0;
    while (window.elapsed().as_secs_f64() < seconds || passes < min_passes)
        && window.elapsed() < crate::MAX_WINDOW
    {
        passes += 1;
        let mut workloads = s.workloads.clone();
        let mut designs = s.designs.clone();
        rng.shuffle(&mut workloads);
        rng.shuffle(&mut designs);
        let mut records = Vec::with_capacity(workloads.len() * designs.len());
        let request = e.latencies_ms.len() as u64;
        let span = tracer.map(|t| t.open("core.sweep_stream", None, request));
        let start = Instant::now();
        let result = executor.sweep_stream(&workloads, &designs, &CancelToken::new(), |r| {
            records.push(r);
            true
        });
        let elapsed = start.elapsed();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        out.attempted += 1;
        if !matches!(result, Ok(SweepOutcome::Complete)) {
            out.failed += 1;
            out.errors.push(format!("sweep pass failed: {result:?}"));
            continue;
        }
        e.latencies_ms.push(ms(elapsed));
        e.cells += records.len() as u64;
        out.check(records.len() == workloads.len() * designs.len(), || {
            format!("pass emitted {} records", records.len())
        });
        for r in &records {
            e.instrs += r.stats.committed_instructions;
            if let Err(err) = reference.check(&cell_key(&r.workload, &r.design), &r.stats) {
                out.errors.push(err);
            }
        }
    }
    // Every pass does the same work, so the rate is taken at the median
    // pass: a pass the host slowed down does not skew it.
    e.wall_s = crate::util::median(&e.latencies_ms) / 1e3 * e.latencies_ms.len() as f64;
    let stats = s.store.stats();
    e.store_hits = stats.hits;
    e.store_misses = stats.misses;
    out.check(stats.misses == s.workloads.len() as u64, || {
        format!(
            "store ran Algorithm 2 {} times for {} programs",
            stats.misses,
            s.workloads.len()
        )
    });
    e
}

fn scenario(s: &Setup) -> Scenario {
    let policies: Vec<String> = REPRESENTATIVE_POLICIES
        .iter()
        .map(|p| (*p).to_string())
        .collect();
    let mut setup: Vec<Request> = s
        .workloads
        .iter()
        .map(|w| Request::Submit {
            spec: WorkloadSpec::Suite {
                name: w.name.clone(),
            },
        })
        .collect();
    let sweep = Request::Sweep {
        workloads: Vec::new(),
        policies,
    };
    setup.push(sweep.clone());
    Scenario {
        setup,
        ops: vec![Op {
            requests: vec![sweep],
            parts: vec![Part::Sweep(Matrix {
                workloads: s.workloads.clone(),
                designs: s.designs.clone(),
                cold: false,
            })],
        }],
        op_reps: 3,
        connection_per_op: false,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = crate::timed_setup(setup);
    let mut rng = Rng::new(args.seed, 0);
    if !args.trace {
        let e = e2e(&s, &mut rng, args.seconds, crate::MIN_OPS, None, &mut out);
        e.report(&mut out, setup_s);
        return out;
    }
    // The traced run reports no p90, so its halves need not hold
    // `MIN_OPS` passes each.
    let untraced = e2e(&s, &mut rng, args.seconds / 2.0, 3, None, &mut out);
    let tracer = Tracer::default();
    let traced = e2e(&s, &mut rng, args.seconds / 2.0, 3, Some(&tracer), &mut out);
    let matrix = Matrix {
        workloads: s.workloads.clone(),
        designs: s.designs.clone(),
        cold: false,
    };
    layers::probe(
        &mut out,
        &tracer,
        "sweep-paper",
        &matrix,
        &scenario(&s),
        &untraced,
        &traced,
        s.build_ms,
    );
    crate::write_spans(&tracer, "sweep-paper", args.seed);
    out
}
