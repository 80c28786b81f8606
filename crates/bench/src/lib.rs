//! The representative policy set shared by `perfbench`, the repository
//! benchmark (see `BENCHMARK.json` and `perfbench/README.md`).
//!
//! One policy per frontend family: the unsafe baseline, the fence lower
//! bound, the two speculative defenses SPT/ProSpeCT, full Cassandra,
//! Cassandra-lite and the tournament hybrid.

use cassandra_core::eval::DesignPoint;
use cassandra_core::policies::PolicyRegistry;

/// The representative policy labels, one per frontend family, in
/// reporting order.
pub const REPRESENTATIVE_POLICIES: &[&str] = &[
    "UnsafeBaseline",
    "Fence",
    "SPT",
    "ProSpeCT",
    "Cassandra",
    "Cassandra-lite",
    "Tournament",
];

/// The representative design points, resolved from the standard registry.
pub fn representative_designs() -> Vec<DesignPoint> {
    let registry = PolicyRegistry::standard();
    REPRESENTATIVE_POLICIES
        .iter()
        .map(|label| {
            registry
                .get(label)
                .unwrap_or_else(|| panic!("policy `{label}` missing from the standard registry"))
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_policies_resolve_in_the_standard_registry() {
        let designs = representative_designs();
        assert_eq!(designs.len(), REPRESENTATIVE_POLICIES.len());
        for (design, label) in designs.iter().zip(REPRESENTATIVE_POLICIES) {
            assert_eq!(design.label, *label);
        }
    }

    #[test]
    fn frontier_bench_counts_simulations_and_pareto_points() {
        use cassandra_core::eval::{CancelToken, Evaluator};
        use cassandra_core::frontier::{frontier_with, standard_grid, AdaptiveSearch};
        use cassandra_kernels::suite;

        let workloads = vec![
            suite::chacha20_workload(64),
            suite::sha256_workload(96),
            suite::poly1305_workload(64),
            suite::des_workload(4),
        ];
        let grid = standard_grid();
        let cancel = CancelToken::new();
        let mut session = Evaluator::new();
        // Each progress callback is one completed simulation.
        let mut count = |search: Option<AdaptiveSearch>| {
            let mut sims = 0usize;
            let result = frontier_with(&mut session, &workloads, &grid, search, &cancel, |_| {
                sims += 1;
            })
            .expect("frontier search")
            .expect("not cancelled");
            (result, sims)
        };

        let (exhaustive, exhaustive_sims) = count(None);
        assert!(!exhaustive.adaptive);
        assert_eq!(exhaustive.cells_simulated_full, exhaustive.cells_total);
        assert!(!exhaustive.frontier.is_empty(), "no Pareto points");
        assert!(exhaustive_sims >= exhaustive.cells_total);

        let (adaptive, adaptive_sims) = count(Some(AdaptiveSearch::default()));
        assert!(adaptive.adaptive);
        assert!(
            adaptive.cells_simulated_full < exhaustive.cells_simulated_full,
            "halving must save full-suite cells"
        );
        assert!(adaptive_sims < exhaustive_sims);
        assert_eq!(adaptive.frontier.len(), exhaustive.frontier.len());
    }
}
