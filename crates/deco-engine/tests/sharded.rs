//! Sharded-engine integration suite: pinned partition digests.
//!
//! One [`ShardPlan::digest`] per scenario family × shard count. The
//! partitioner is a pure function of graph and shard count; a digest shift
//! means every sharded differential sweep silently runs a different
//! partition, so shifts must be deliberate (bump the constants in the same
//! commit that changes the partitioner). The sharded engine's
//! serial-identical observables are held by the four-way differential
//! suite in `differential.rs`.

use deco_engine::{GraphSpec, IdFlavor, Scenario, ShardPlan};

#[test]
fn partition_digests_are_pinned_per_family() {
    // Regenerate by printing `ShardPlan::new(&scenario.graph(), shards)
    // .digest()` for each row; bump deliberately, never by accident.
    let pins: [(GraphSpec, usize, u64); 20] = [
        (GraphSpec::Path { n: 33 }, 2, 0x4e3da74a1e527187),
        (GraphSpec::Path { n: 33 }, 4, 0xb0b9e81fa0074fb3),
        (GraphSpec::Cycle { n: 48 }, 2, 0xfceeaafd598a5e2e),
        (GraphSpec::Cycle { n: 48 }, 4, 0x3aae13682c941540),
        (GraphSpec::Complete { n: 13 }, 2, 0x7b81c8248b2376e0),
        (GraphSpec::Complete { n: 13 }, 4, 0xa111926c4e79447b),
        (GraphSpec::Grid { w: 8, h: 5 }, 2, 0xb00d830c0ac9a5fb),
        (GraphSpec::Grid { w: 8, h: 5 }, 4, 0x0bca33209be523ae),
        (
            GraphSpec::RandomRegular { n: 64, d: 8 },
            2,
            0x55c8c96046252ce8,
        ),
        (
            GraphSpec::RandomRegular { n: 64, d: 8 },
            4,
            0x11a8494e1594de9b,
        ),
        (GraphSpec::Gnp { n: 80, p: 0.08 }, 2, 0x35114a27240a6684),
        (GraphSpec::Gnp { n: 80, p: 0.08 }, 4, 0xda674622ef0675d1),
        (GraphSpec::PowerLaw { n: 100 }, 2, 0x732545858ca81be1),
        (GraphSpec::PowerLaw { n: 100 }, 4, 0xc07b9a8cbf4bfa7e),
        (GraphSpec::RandomTree { n: 90 }, 2, 0xfc415c3e2bcb1a93),
        (GraphSpec::RandomTree { n: 90 }, 4, 0xa05c1073b8823af4),
        (
            GraphSpec::TwoClusters { n: 24, d: 4 },
            2,
            0x6713b520a9de4ef5,
        ),
        (
            GraphSpec::TwoClusters { n: 24, d: 4 },
            4,
            0x4b18fa8c38d4041d,
        ),
        (
            GraphSpec::ManySmallComponents {
                components: 18,
                max_size: 7,
            },
            2,
            0xba7b004cc4fb5af7,
        ),
        (
            GraphSpec::ManySmallComponents {
                components: 18,
                max_size: 7,
            },
            4,
            0xce0a1bdd3dd61b33,
        ),
    ];
    for (spec, shards, expected) in pins {
        let scenario = Scenario::new(spec.clone(), IdFlavor::Sequential, 2026);
        let plan = ShardPlan::new(&scenario.graph(), shards);
        assert_eq!(
            plan.digest(),
            expected,
            "partition digest shifted for {} at {shards} shards",
            spec.label()
        );
    }
}
