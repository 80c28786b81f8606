//! The fixed inputs every workload draws from, and the kept reference
//! statistics their cells must reproduce.

use crate::util::fnv64;
use cassandra_core::eval::DesignPoint;
use cassandra_core::policies::PolicyRegistry;
use cassandra_cpu::SimStats;
use cassandra_kernels::suite;
use cassandra_kernels::workload::Workload;
use cassandra_server::{GridSpec, Request, WorkloadSpec};
use std::collections::HashMap;

/// The four short kernels `grid-short` sweeps (the repository's smoke set).
pub const SMOKE_KERNELS: &[(&str, u64)] = &[
    ("chacha20", 64),
    ("sha256", 96),
    ("poly1305", 64),
    ("des", 4),
];

/// The design points cold-submit operations sweep.
pub const COLD_POLICIES: &[&str] = &["UnsafeBaseline", "Cassandra"];

/// The in-process twin of the server's `Submit { Kernel }` resolution: the
/// same suite builder for every family the benchmark submits.
pub fn kernel_workload(family: &str, size: u64) -> Workload {
    let size = size as usize;
    match family {
        "chacha20" => suite::chacha20_workload(size),
        "sha256" => suite::sha256_workload(size),
        "aes128" => suite::aes_ctr_workload(size),
        "des" => suite::des_workload(size),
        "poly1305" => suite::poly1305_workload(size),
        other => panic!("benchmark never submits kernel family `{other}`"),
    }
}

pub fn submit(family: &str, size: u64, name: Option<String>) -> Request {
    Request::Submit {
        spec: WorkloadSpec::Kernel {
            family: family.to_string(),
            size,
            name,
        },
    }
}

/// Design points by standard-registry label.
pub fn standard_designs(labels: &[&str]) -> Vec<DesignPoint> {
    let registry = PolicyRegistry::standard();
    labels
        .iter()
        .map(|l| registry.get(l).expect("standard policy").clone())
        .collect()
}

fn grid(
    defenses: &[&str],
    thresholds: &[u32],
    partitions: &[usize],
    entries: &[usize],
    misses: &[u64],
    redirects: &[u64],
) -> GridSpec {
    GridSpec {
        defenses: defenses.iter().map(|d| (*d).to_string()).collect(),
        tournament_thresholds: thresholds.to_vec(),
        btu_partitions: partitions.to_vec(),
        btu_entries: entries.to_vec(),
        miss_penalties: misses.to_vec(),
        redirect_penalties: redirects.to_vec(),
    }
}

/// The fixed menu `grid-short` requests draw from: four grids of twelve
/// design points each. A fixed menu keeps the server's policy registry
/// bounded (an open-ended menu would grow it without limit).
pub fn grid_menu() -> Vec<GridSpec> {
    vec![
        grid(
            &["Cassandra", "Cassandra-lite"],
            &[],
            &[],
            &[8, 16, 32],
            &[0, 20],
            &[],
        ),
        grid(&["Tournament"], &[1, 2, 4, 8], &[], &[], &[], &[10, 20, 30]),
        grid(
            &["UnsafeBaseline", "Fence", "SPT", "ProSpeCT"],
            &[],
            &[],
            &[],
            &[],
            &[10, 20, 30],
        ),
        grid(
            &["Cassandra-part"],
            &[],
            &[1, 2, 4],
            &[16, 32],
            &[5, 40],
            &[],
        ),
    ]
}

/// Every program cold-submit can submit, in 100 strata of three
/// neighbouring sizes of one kernel family. Sizes are ones each kernel
/// builder accepts (ChaCha20 whole 64-byte blocks, Poly1305 and AES whole
/// 16-byte blocks, any DES block count, any SHA-256 length) and are kept
/// small, so simulation stays a minor share of an operation. A round takes
/// one program per stratum: the seed picks which, so every seed's round
/// does about the same work.
pub fn cold_strata() -> Vec<Vec<(&'static str, u64)>> {
    let mut strata = Vec::new();
    let mut family = |name: &'static str, unit: u64, count: u64| {
        for k in 0..count {
            strata.push((1..=3).map(|i| (name, unit * (3 * k + i))).collect());
        }
    };
    family("chacha20", 64, 4);
    family("poly1305", 16, 10);
    family("aes128", 16, 6);
    family("des", 1, 20);
    family("sha256", 1, 60);
    strata
}

/// Stable digest of every simulated statistic of one cell.
pub fn stats_digest(stats: &SimStats) -> u64 {
    fnv64(serde_json::to_string(stats).unwrap_or_default().as_bytes())
}

/// Reference statistics kept in `reference/<workload>.tsv`: one line per
/// cell, `key<TAB>digest<TAB>committed<TAB>cycles`. Blessed once from the
/// code this benchmark was introduced with; a change to any simulated
/// statistic of any cell fails the run.
pub struct Reference {
    cells: HashMap<String, (u64, u64, u64)>,
}

fn reference_text(workload: &str) -> &'static str {
    match workload {
        "sweep-paper" => include_str!("../reference/sweep-paper.tsv"),
        "grid-short" => include_str!("../reference/grid-short.tsv"),
        "cold-submit" => include_str!("../reference/cold-submit.tsv"),
        _ => "",
    }
}

impl Reference {
    pub fn load(workload: &str) -> Self {
        let cells = reference_text(workload)
            .lines()
            .filter_map(|line| {
                let mut f = line.split('\t');
                let key = f.next()?.to_string();
                let digest = u64::from_str_radix(f.next()?, 16).ok()?;
                let committed = f.next()?.parse().ok()?;
                let cycles = f.next()?.parse().ok()?;
                Some((key, (digest, committed, cycles)))
            })
            .collect();
        Reference { cells }
    }

    pub fn line(key: &str, stats: &SimStats) -> String {
        format!(
            "{key}\t{:016x}\t{}\t{}",
            stats_digest(stats),
            stats.committed_instructions,
            stats.cycles
        )
    }

    /// Checks one cell against its kept statistics.
    pub fn check(&self, key: &str, stats: &SimStats) -> Result<(), String> {
        match self.cells.get(key) {
            None => Err(format!("cell {key} has no kept reference")),
            Some(&(digest, committed, cycles)) if digest != stats_digest(stats) => Err(format!(
                "cell {key}: statistics differ from the reference \
                 (committed {} vs {committed}, cycles {} vs {cycles})",
                stats.committed_instructions, stats.cycles
            )),
            Some(_) => Ok(()),
        }
    }
}

pub fn cell_key(workload: &str, design: &str) -> String {
    format!("{workload}|{design}")
}
