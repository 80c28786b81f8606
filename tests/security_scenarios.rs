//! Integration tests for the paper's security analysis (Figure 6 / Table 2).
//!
//! Every scenario is evaluated by building the gadget twice with different
//! secrets and comparing the attacker-visible data-access traces (which
//! include wrong-path accesses). A design protects a scenario when equal
//! sequential contract traces imply equal attacker-visible traces. The
//! `verdict` helper lives in the shared `common` harness.

mod common;

use cassandra::kernels::gadgets::{BranchSite, LeakGadget};
use cassandra::prelude::*;
use common::verdict;

/// Scenarios 1 and 2: crypto leak gadgets after a crypto branch must be
/// protected by Cassandra (BTU-enforced sequential flow) but leak on the
/// unsafe baseline.
#[test]
fn scenarios_1_and_2_crypto_branch_to_crypto_gadgets() {
    for gadget in [LeakGadget::CryptoRegister, LeakGadget::CryptoMemory] {
        let unsafe_v = verdict(DefenseMode::UnsafeBaseline, BranchSite::Crypto, gadget);
        assert!(
            !unsafe_v.is_protected(),
            "{gadget:?}: the unsafe baseline must leak transiently"
        );
        let cass_v = verdict(DefenseMode::Cassandra, BranchSite::Crypto, gadget);
        assert!(cass_v.is_protected(), "{gadget:?}: Cassandra must protect");
    }
}

/// Scenarios 3 and 4: non-crypto gadgets after a crypto branch. Cassandra
/// enforces the sequential flow of the crypto branch, so nothing transient
/// executes after it.
#[test]
fn scenarios_3_and_4_crypto_branch_to_non_crypto_gadgets() {
    for gadget in [LeakGadget::NonCryptoRegister, LeakGadget::NonCryptoMemory] {
        let cass_v = verdict(DefenseMode::Cassandra, BranchSite::Crypto, gadget);
        assert!(cass_v.is_protected(), "{gadget:?}");
    }
}

/// Scenarios 5 and 6: crypto gadgets after a *non-crypto* branch are
/// protected by the integrity check (fetch never speculatively redirects into
/// the crypto PC range).
#[test]
fn scenarios_5_and_6_non_crypto_branch_to_crypto_gadgets() {
    for gadget in [LeakGadget::CryptoMemory, LeakGadget::CryptoRegister] {
        let unsafe_v = verdict(DefenseMode::UnsafeBaseline, BranchSite::NonCrypto, gadget);
        let cass_v = verdict(DefenseMode::Cassandra, BranchSite::NonCrypto, gadget);
        assert!(
            cass_v.is_protected(),
            "{gadget:?}: integrity check must hold"
        );
        // The memory gadget leaks on the baseline (the register gadget's
        // register is declassified, so it may legitimately look public).
        if gadget == LeakGadget::CryptoMemory {
            assert!(!unsafe_v.is_protected(), "baseline leaks scenario 5");
        }
    }
}

/// Scenario 7: non-crypto register gadget after a non-crypto branch — the
/// speculative flow is allowed and leaks only declassified data, so the
/// attacker-visible trace stays secret-independent even on the baseline.
#[test]
fn scenario_7_non_crypto_register_gadget_is_harmless() {
    for defense in [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra] {
        let v = verdict(
            defense,
            BranchSite::NonCrypto,
            LeakGadget::NonCryptoRegister,
        );
        assert!(v.is_protected(), "{defense:?}");
    }
}

/// Scenario 8: non-crypto memory gadget after a non-crypto branch violates
/// software isolation. Cassandra explicitly does **not** protect this case
/// (it is out of scope); combining it with a ProSpeCT-style defense for the
/// non-crypto code closes it.
#[test]
fn scenario_8_software_isolation_needs_a_companion_defense() {
    let cass = verdict(
        DefenseMode::Cassandra,
        BranchSite::NonCrypto,
        LeakGadget::NonCryptoMemory,
    );
    assert!(
        !cass.is_protected(),
        "Cassandra alone does not provide software isolation (scenario 8)"
    );
    let combined = verdict(
        DefenseMode::CassandraProspect,
        BranchSite::NonCrypto,
        LeakGadget::NonCryptoMemory,
    );
    assert!(
        combined.is_protected(),
        "Cassandra+ProSpeCT must block the out-of-bounds transient leak"
    );
}

/// The way-partitioned BTU changes Trace Cache residency, never replay:
/// scenario-for-scenario it must match full Cassandra's verdicts exactly.
#[test]
fn partitioned_btu_matches_cassandras_verdicts() {
    for site in [BranchSite::Crypto, BranchSite::NonCrypto] {
        for gadget in [
            LeakGadget::CryptoRegister,
            LeakGadget::CryptoMemory,
            LeakGadget::NonCryptoRegister,
            LeakGadget::NonCryptoMemory,
        ] {
            let cass = verdict(DefenseMode::Cassandra, site, gadget);
            let part = verdict(DefenseMode::CassandraPartitioned, site, gadget);
            assert_eq!(
                cass.is_protected(),
                part.is_protected(),
                "{site:?}->{gadget:?}"
            );
        }
    }
}

/// The tournament's modeled security trade-off: a cold (once-executed)
/// crypto branch is still BPU-predicted, so the Figure-5(a) register gadget
/// leaks exactly as on the baseline — the deployment only protects branches
/// hot enough to have earned a trace.
#[test]
fn tournament_cold_branches_leak_like_the_baseline() {
    let v = verdict(
        DefenseMode::Tournament,
        BranchSite::Crypto,
        LeakGadget::CryptoRegister,
    );
    assert!(v.contract_equal, "the gadget is constant-time");
    assert!(
        !v.is_protected(),
        "a cold crypto branch must still leak transiently under Tournament"
    );
}

/// The Listing-1 decryption loop: skipping the loop transiently would leak
/// the secret on the baseline; Cassandra replays the loop sequentially.
#[test]
fn listing1_loop_skip_is_blocked_by_cassandra() {
    use cassandra::core::security::evaluate_scenario;
    let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
    let verdict = evaluate_scenario(
        &mut Evaluator::new(),
        "listing1",
        |secret| cassandra::kernels::gadgets::listing1_decrypt(secret, 8),
        &cfg,
    )
    .unwrap();
    // The architectural leak of the *declassified* plaintext is intentional
    // (so the contract traces legitimately differ in that one access); what
    // Cassandra guarantees is that nothing executes transiently, i.e. the
    // secret `m` is never leaked before the decryption loop completes.
    assert!(
        !verdict.transient_activity,
        "no wrong-path execution under Cassandra"
    );
    assert!(verdict.is_protected());
}
