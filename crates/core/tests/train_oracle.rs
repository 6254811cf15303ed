//! The pinned `train()` oracle: a 5-iteration run of every scheme on a small
//! problem, recorded bit for bit.
//!
//! The fleet has 12 workers, one constant-attack Byzantine worker (3) and
//! one ×10 straggler (0). For all four schemes the final weights are pinned
//! as `f64` bit patterns and the union of detected Byzantine workers as a
//! set. For `Uncoded`, `Lcc` and `StaticVcc` the per-iteration operation
//! counts are pinned as well: they are dimension-derived, so they change
//! only when a round does different work (an extra rng draw, a σ-combine, a
//! second Freivalds check), never with host timing.
//!
//! These values were recorded from the two-path round implementation that
//! the single round path replaced; any drift here is a behaviour change.

use avcc_coding::SchemeConfig;
use avcc_core::{DistributedTrainer, SchemeKind, TrainerConfig, TrainingProblem};
use avcc_field::P25;
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_sim::attack::{AttackModel, ByzantineSpec};
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::metrics::OpCounts;

fn small_problem() -> TrainingProblem {
    let dataset = Dataset::gisette_like(DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        ..DatasetConfig::default()
    });
    TrainingProblem::from_dataset(&dataset, 9)
}

/// One oracle run: final weights as bit patterns, the detected-Byzantine
/// union, and the per-iteration op counts.
struct Run {
    weight_bits: Vec<u64>,
    detected: Vec<usize>,
    ops: Vec<OpCounts>,
}

fn run(scheme: SchemeKind) -> Run {
    // LCC pays 2M for Byzantine tolerance, so its straggler budget is one
    // lower on the same fleet.
    let coding = match scheme {
        SchemeKind::Lcc => SchemeConfig::linear(12, 9, 1, 1),
        _ => SchemeConfig::linear(12, 9, 2, 1),
    }
    .unwrap();
    let mut trainer = DistributedTrainer::<P25>::new(
        small_problem(),
        ClusterProfile::uniform(12).with_stragglers(&[0], 10.0),
        ByzantineSpec::new([3], AttackModel::constant()),
        TrainerConfig {
            iterations: 5,
            time_scale: 1.0,
            ..TrainerConfig::paper_defaults(scheme, coding)
        },
        "oracle",
    );
    let report = trainer.train().unwrap();
    let mut detected: Vec<usize> = report
        .iterations
        .iter()
        .flat_map(|record| record.detected_byzantine.iter().copied())
        .collect();
    detected.sort_unstable();
    detected.dedup();
    Run {
        weight_bits: trainer
            .model()
            .weights
            .iter()
            .map(|w| w.to_bits())
            .collect(),
        detected,
        ops: report.iterations.iter().map(|record| record.ops).collect(),
    }
}

fn ops(worker_macs: u64, verify_macs: u64, decode_macs: u64) -> OpCounts {
    OpCounts {
        worker_macs,
        verify_macs,
        decode_macs,
    }
}

fn check(scheme: SchemeKind, weight_bits: &[u64], detected: &[usize], ops: Option<&[OpCounts]>) {
    let run = run(scheme);
    assert_eq!(
        run.weight_bits, weight_bits,
        "{scheme:?}: final weights drifted from the oracle"
    );
    assert_eq!(
        run.detected, detected,
        "{scheme:?}: detected-Byzantine union drifted from the oracle"
    );
    if let Some(ops) = ops {
        assert_eq!(
            run.ops, ops,
            "{scheme:?}: op counts drifted from the oracle"
        );
    }
}

/// Final weights of the uncoded baseline: worker 3's corruption flows
/// straight into the model.
const UNCODED_WEIGHTS: [u64; 27] = [
    0xbfd08bd000000000,
    0xbff8e12471c71c72,
    0x3ff455f38e38e38e,
    0xbfd07dc71c71c71c,
    0xbfaded2aaaaaaaaa,
    0xbfe32190e38e38e3,
    0xbfc72d71c71c71c7,
    0xbfd361038e38e38e,
    0xbff1d45aaaaaaaab,
    0xbedaaaaaaaaaaaaa,
    0xbedaaaaaaaaaaaaa,
    0xbedaaaaaaaaaaaaa,
    0xbfc527471c71c71c,
    0xbfd0b7571c71c71c,
    0xbfb851e38e38e38e,
    0x3fd213baaaaaaaab,
    0x3f97ee1c71c71c72,
    0xbfd2263e38e38e39,
    0x3fa6019c71c71c70,
    0xbfb7546aaaaaaaaa,
    0xbfb07ddc71c71c71,
    0xbfd028f38e38e38e,
    0xbfb6896aaaaaaaaa,
    0x3fcddbe38e38e38e,
    0x3fbd8fb8e38e38e3,
    0xbfceccd1c71c71c6,
    0x0,
];

/// Final weights of every coded scheme: each decodes the exact products, so
/// LCC, AVCC and Static VCC land on the same model.
const CODED_WEIGHTS: [u64; 27] = [
    0xbfcfcc6000000000,
    0xbff83dd5c71c71c7,
    0x3ff403cbffffffff,
    0xbfd03cf38e38e38e,
    0xbfab69c71c71c71c,
    0xbfe30e9d55555555,
    0xbfc48dae38e38e39,
    0xbfd43ccc71c71c72,
    0xbff172f71c71c71c,
    0x3fd1354000000000,
    0xbfada0638e38e38e,
    0x3f742071c71c71c7,
    0xbfc6865555555556,
    0xbfcf18c38e38e38e,
    0xbfb7229555555554,
    0x3fd11851c71c71c7,
    0x3fa0a1b8e38e38e3,
    0xbfcfee8000000000,
    0x3faa07471c71c71c,
    0xbfb507871c71c71c,
    0xbfacf50e38e38e38,
    0xbfcdb6ee38e38e38,
    0xbfb52f71c71c71c7,
    0x3fccf691c71c71c7,
    0x3fb9db4e38e38e38,
    0xbfccdf6e38e38e38,
    0x0,
];

#[test]
fn uncoded_matches_the_oracle() {
    check(
        SchemeKind::Uncoded,
        &UNCODED_WEIGHTS,
        &[],
        Some(&[ops(1080, 0, 0); 5]),
    );
}

#[test]
fn lcc_matches_the_oracle() {
    check(
        SchemeKind::Lcc,
        &CODED_WEIGHTS,
        &[3],
        Some(&[ops(1080, 0, 2519); 5]),
    );
}

#[test]
fn avcc_matches_the_oracle() {
    check(SchemeKind::Avcc, &CODED_WEIGHTS, &[3], None);
}

#[test]
fn static_vcc_matches_the_oracle() {
    check(
        SchemeKind::StaticVcc,
        &CODED_WEIGHTS,
        &[3],
        Some(&[ops(1080, 3089, 1863); 5]),
    );
}
