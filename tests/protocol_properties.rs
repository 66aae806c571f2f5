//! Property-based protocol testing: arbitrary bounded access scripts
//! must (a) drain, (b) satisfy every whole-chip coherence invariant at
//! quiescence, and (c) serialize the same write set under all four
//! protocols. Shrinking then produces a minimal failing script, which
//! has been the workhorse for debugging the protocol race machinery.

use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::checker;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::Harness;
use cmpsim_protocols::providers::Providers;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Script = Vec<(usize, u64, bool)>;

fn run<P: CoherenceProtocol>(proto: P, script: &Script, jitter_seed: u64) -> BTreeMap<u64, u64> {
    let mut h = Harness::new(proto);
    h.enable_invariant_checker();
    h.jitter = Some(cmpsim_engine::SimRng::new(jitter_seed));
    for &(t, b, w) in script {
        h.push_access(t % 16, b, w);
    }
    h.run(script.len() as u64 * 1_000 + 50_000);
    if let Err(errors) = checker::check_chip(&h.proto) {
        panic!("invariants violated:\n{}", errors.join("\n"));
    }
    h.proto.authority().iter().collect()
}

fn script_strategy(max_ops: usize, blocks: u64) -> impl Strategy<Value = Script> {
    prop::collection::vec((0usize..16, 0u64..blocks, prop::bool::weighted(0.4)), 1..max_ops)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every protocol drains and stays coherent on arbitrary scripts.
    #[test]
    fn directory_coherent(script in script_strategy(120, 20), seed in 0u64..1000) {
        run(Directory::new(ChipSpec::small()), &script, seed);
    }

    #[test]
    fn dico_coherent(script in script_strategy(120, 20), seed in 0u64..1000) {
        run(DiCo::new(ChipSpec::small()), &script, seed);
    }

    #[test]
    fn providers_coherent(script in script_strategy(120, 20), seed in 0u64..1000) {
        run(Providers::new(ChipSpec::small()), &script, seed);
    }

    #[test]
    fn arin_coherent(script in script_strategy(120, 20), seed in 0u64..1000) {
        run(Arin::new(ChipSpec::small()), &script, seed);
    }

    /// All four protocols commit exactly the same writes.
    #[test]
    fn protocols_agree_on_writes(script in script_strategy(80, 12), seed in 0u64..1000) {
        let dir = run(Directory::new(ChipSpec::small()), &script, seed);
        let dico = run(DiCo::new(ChipSpec::small()), &script, seed.wrapping_add(1));
        let prov = run(Providers::new(ChipSpec::small()), &script, seed.wrapping_add(2));
        let arin = run(Arin::new(ChipSpec::small()), &script, seed.wrapping_add(3));
        prop_assert_eq!(&dir, &dico);
        prop_assert_eq!(&dir, &prov);
        prop_assert_eq!(&dir, &arin);
    }

    /// The tiny 2x2 chip (4-entry auxiliary structures) maximizes
    /// replacement/recall pressure; the protocols must survive it.
    #[test]
    fn tiny_chip_survives_pressure(script in prop::collection::vec(
        (0usize..4, 0u64..48, prop::bool::weighted(0.35)), 1..150,
    ), seed in 0u64..1000) {
        run(DiCo::new(ChipSpec::tiny()), &script, seed);
        run(Providers::new(ChipSpec::tiny()), &script, seed);
        run(Arin::new(ChipSpec::tiny()), &script, seed);
    }
}
