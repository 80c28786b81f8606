//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep-paper|grid-short|cold-submit> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --bless        # rewrite reference/*.tsv from the current code
//! ```
//!
//! A run builds its inputs from the seed, sets its workload up several
//! times (reporting the median set-up time), drives the workload closed-loop
//! for `--seconds`, checks every output it received, and prints one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured by spanning the benchmark's own calls into
//! each crate's public API (see `layers.rs`). A failed output check prints
//! the failures on stderr, reports `"correct": false` and exits with 1.

mod alloc;
mod cold_submit;
mod grid_short;
mod inputs;
mod layers;
mod spans;
mod sweep_paper;
mod util;
mod wire;

use spans::Tracer;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, quantile, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 30;
pub const SETUP_MIN: std::time::Duration = std::time::Duration::from_secs(1);

/// Every window runs at least this many operations (passes, requests or
/// Submit→Lint→Sweep operations), so at least ten latency samples lie
/// beyond p90.
pub const MIN_OPS: usize = 100;

/// A window never outlasts this, whatever the operation count says.
pub const MAX_WINDOW: std::time::Duration = std::time::Duration::from_secs(120);

/// Client threads (and connections) driving the wire workloads, and worker
/// threads of the server under test: the 2 cores of the reference box.
pub const CLIENTS: usize = 2;
pub const SERVER_WORKERS: usize = 2;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What an end-to-end window measured.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    /// Cells (simulated workload × design points) completed.
    pub cells: u64,
    /// Committed instructions those cells simulated.
    pub instrs: u64,
    /// Host seconds the cells took: passes × the median pass time
    /// in-process, the whole window over the wire.
    pub wall_s: f64,
    /// Client-observed latency of each request or operation.
    pub latencies_ms: Vec<f64>,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl E2e {
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall_s.max(f64::EPSILON)
    }

    pub fn report(&self, out: &mut Outcome, setup_s: f64) {
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("cells_per_s", self.cells_per_s(), "1/s");
        m.put(
            "sim_minstr_per_s",
            self.instrs as f64 / 1e6 / self.wall_s.max(f64::EPSILON),
            "1/s",
        );
        m.put("request_p50_ms", median(&self.latencies_ms), "ms");
        m.put("request_p90_ms", quantile(&self.latencies_ms, 0.9), "ms");
        m.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
        let ok = out.ok_frac();
        out.metrics.put("ok_frac", ok, "fraction");
    }
}

/// Runs `setup` at least `SETUP_REPS` times and until `SETUP_MIN` has
/// passed (at most `SETUP_MAX_REPS` times), dropping each result before the
/// next, and returns the last one with the median set-up time in seconds.
/// Cheap set-ups repeat more often, so their median is as steady as that
/// of the expensive ones.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while times.len() < SETUP_REPS || (begin.elapsed() < SETUP_MIN && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Prints the self time of every layer on stderr and writes the traced
/// run's spans to `perfbench/out/` (ignored by git).
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    eprintln!(
        "perfbench: {:<22} {:>8} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (name, t) in tracer.layers() {
        eprintln!(
            "perfbench: {name:<22} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: spans not written to {}: {e}", path.display());
    }
}

fn parse_args() -> Result<(String, RunArgs, bool), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => run.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if bless {
        return Ok((String::new(), run, true));
    }
    Ok((workload.ok_or("--workload is required")?, run, false))
}

/// Pins the C allocator's heuristics, so peak RSS follows live memory
/// rather than allocator history: glibc's default mmap and trim thresholds
/// (128 KiB) without their dynamic growth, no top padding, and two arenas
/// (one per core of the reference box), so a freshly spawned thread does
/// not land in a new arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: called once at start-up, before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 128 * 1024);
        mallopt(M_TOP_PAD, 0);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        mallopt(M_ARENA_MAX, 2);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc() {}

fn main() -> ExitCode {
    pin_malloc();
    let (workload, args, bless) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if bless {
        return match layers::bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = match workload.as_str() {
        "sweep-paper" => sweep_paper::run(&args),
        "grid-short" => grid_short::run(&args),
        "cold-submit" => cold_submit::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    for e in out.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
