//! The batched round's contract: `m` products collected in one round are
//! bit-identical to `m` independent single-function (`m = 1`) rounds (and to
//! the plain `mat_vec` oracle), the batched
//! Freivalds pass accepts exactly when every per-function check accepts, and
//! a corrupted function inside a batch is localized by the per-function
//! fallback — across schemes and moduli.

use std::sync::Arc;

use avcc_coding::{EncodedDataset, SchemeConfig};
use avcc_core::rounds::{arrivals, RoundExecution};
use avcc_core::{AvccMatVec, LccMatVec, MatVecEngine, SchemeFailure, UncodedMatVec, WireRunner};
use avcc_field::{Fp, PrimeModulus, P25, P64};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{VirtualExecutor, WorkerOutcome};
use avcc_sim::NetworkModel;
use avcc_verify::KeyGenConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_matrix<M: PrimeModulus>(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<Fp<M>> {
    Matrix::from_vec(rows, cols, avcc_field::random_matrix(rng, rows, cols))
}

fn random_inputs<M: PrimeModulus>(
    rng: &mut StdRng,
    functions: usize,
    cols: usize,
) -> Vec<Vec<Fp<M>>> {
    (0..functions)
        .map(|_| avcc_field::random_vector(rng, cols))
        .collect()
}

/// Runs one `m = inputs.len()` round of `engine` on a virtual executor
/// through the wire runner: dispatch, compute, collect.
fn run_round<M: PrimeModulus>(
    engine: &dyn MatVecEngine<M>,
    inputs: &[Vec<Fp<M>>],
    executor: &mut VirtualExecutor,
    rng: &mut StdRng,
) -> Result<RoundExecution<M>, SchemeFailure> {
    let tasks = engine.dispatch(inputs);
    let outcomes = WireRunner::new()
        .run_batch_round(executor, 0, &tasks, &ByzantineSpec::none())
        .expect("the virtual executor runs every round");
    let network = executor.profile().network;
    engine.collect(inputs, &arrivals(&outcomes), &network, 1.0, rng)
}

/// Runs one batched round and `m` independent single rounds for every scheme
/// over one modulus, asserting all outputs equal the `mat_vec` oracle exactly.
fn batch_matches_singles_for_modulus<M: PrimeModulus>(seed: u64, functions: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = random_matrix::<M>(&mut rng, 18, 6);
    let inputs = random_inputs::<M>(&mut rng, functions, 6);
    let oracle: Vec<Vec<Fp<M>>> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
    // AVCC tolerates (S=2, M=1) at N=12; the same budget is LCC-infeasible
    // (eq. 1 needs S + 2M headroom), so LCC gets its own (S=1, M=1) dataset.
    // The uncoded baseline uses the raw partition of the same matrix.
    let avcc_config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let lcc_config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
    let avcc_coded = Arc::new(EncodedDataset::<M>::encode(&matrix, avcc_config, &mut rng));
    let lcc_coded = Arc::new(EncodedDataset::<M>::encode(&matrix, lcc_config, &mut rng));
    let raw = Arc::new(EncodedDataset::<M>::partitioned(&matrix, 9));
    let engines: Vec<Box<dyn MatVecEngine<M>>> = vec![
        Box::new(AvccMatVec::over(
            avcc_coded,
            KeyGenConfig::default(),
            &mut rng,
        )),
        Box::new(LccMatVec::over(lcc_coded)),
        Box::new(UncodedMatVec::over(raw)),
    ];

    for engine in &engines {
        let mut executor =
            VirtualExecutor::new(ClusterProfile::uniform(engine.workers())).with_time_scale(1.0);
        let mut round_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batch = run_round(engine.as_ref(), &inputs, &mut executor, &mut round_rng).unwrap();
        assert_eq!(batch.outputs.len(), functions);
        assert!(batch.corrupted_functions.is_empty());
        assert!(batch.detected_byzantine.is_empty());
        for (function, output) in batch.outputs.iter().enumerate() {
            assert_eq!(
                output,
                &oracle[function],
                "{}: batched function {function} diverged from the oracle",
                engine.name()
            );
        }
        // m independent single-function rounds over the same session.
        for (function, input) in inputs.iter().enumerate() {
            let single = run_round(
                engine.as_ref(),
                std::slice::from_ref(input),
                &mut executor,
                &mut round_rng,
            )
            .unwrap();
            assert_eq!(
                single.outputs,
                vec![oracle[function].clone()],
                "{}: single function {function} diverged from the oracle",
                engine.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn batched_rounds_match_independent_rounds_across_schemes(
        seed in 0u64..1000,
        functions in 1usize..6,
    ) {
        batch_matches_singles_for_modulus::<P25>(seed, functions);
        batch_matches_singles_for_modulus::<P64>(seed, functions);
    }
}

/// Builds arrival-ordered batch outcomes by running the dispatched tasks
/// directly, corrupting the listed `(worker, function)` payload entries.
fn manual_outcomes<M: PrimeModulus>(
    engine: &AvccMatVec<M>,
    inputs: &[Vec<Fp<M>>],
    corruptions: &[(usize, usize)],
) -> Vec<WorkerOutcome<Vec<Vec<Fp<M>>>>> {
    engine
        .dispatch(inputs)
        .iter()
        .map(|task| {
            let worker = task.worker;
            let mut payload = task.run_all();
            for &(bad_worker, function) in corruptions {
                if worker == bad_worker {
                    payload[function][0] += Fp::<M>::ONE;
                }
            }
            WorkerOutcome {
                worker,
                payload,
                compute_seconds: 0.001,
                network_seconds: 0.0001,
                arrival_seconds: 0.001 * (worker + 1) as f64,
                corrupted: corruptions.iter().any(|&(bad, _)| bad == worker),
            }
        })
        .collect()
}

/// The reject side of the batched check: corrupting exactly one function of
/// one worker fails the combined check for that worker only, the fallback
/// localizes the function, and the decoded outputs are still exact.
fn corrupted_function_is_localized_for_modulus<M: PrimeModulus>(seed: u64, bad_function: usize) {
    let functions = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = random_matrix::<M>(&mut rng, 18, 6);
    let inputs = random_inputs::<M>(&mut rng, functions, 6);
    let oracle: Vec<Vec<Fp<M>>> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let dataset = Arc::new(EncodedDataset::encode(&matrix, config, &mut rng));
    let engine = AvccMatVec::<M>::over(dataset, KeyGenConfig::default(), &mut rng);

    // Worker 0 arrives first (so the master is guaranteed to examine it) and
    // corrupts exactly one function of its batch payload.
    let outcomes = manual_outcomes(&engine, &inputs, &[(0, bad_function)]);
    let mut collect_rng = StdRng::seed_from_u64(seed ^ 0xbad);
    let batch = engine
        .collect(
            &inputs,
            &arrivals(&outcomes),
            &NetworkModel::default(),
            1.0,
            &mut collect_rng,
        )
        .unwrap();

    assert_eq!(batch.detected_byzantine, vec![0]);
    assert!(!batch.used_workers.contains(&0));
    assert_eq!(
        batch.corrupted_functions,
        vec![bad_function],
        "fallback must localize exactly the corrupted function"
    );
    for (function, output) in batch.outputs.iter().enumerate() {
        assert_eq!(
            output, &oracle[function],
            "function {function} must decode exactly"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn corrupted_function_is_localized_across_moduli(
        seed in 0u64..1000,
        bad_function in 0usize..4,
    ) {
        corrupted_function_is_localized_for_modulus::<P25>(seed, bad_function);
        corrupted_function_is_localized_for_modulus::<P64>(seed, bad_function);
    }
}

#[test]
fn multiple_corrupted_functions_are_all_localized() {
    let functions = 5;
    let mut rng = StdRng::seed_from_u64(77);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let inputs = random_inputs::<P25>(&mut rng, functions, 6);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let dataset = Arc::new(EncodedDataset::encode(&matrix, config, &mut rng));
    let engine = AvccMatVec::<P25>::over(dataset, KeyGenConfig::default(), &mut rng);

    // Worker 0 corrupts functions 1 and 3; worker 2 corrupts function 1.
    let outcomes = manual_outcomes(&engine, &inputs, &[(0, 1), (0, 3), (2, 1)]);
    let mut collect_rng = StdRng::seed_from_u64(78);
    let batch = engine
        .collect(
            &inputs,
            &arrivals(&outcomes),
            &NetworkModel::default(),
            1.0,
            &mut collect_rng,
        )
        .unwrap();
    assert_eq!(batch.detected_byzantine, vec![0, 2]);
    assert_eq!(batch.corrupted_functions, vec![1, 3]);
    for (function, input) in inputs.iter().enumerate() {
        assert_eq!(batch.outputs[function], mat_vec(&matrix, input));
    }
}

#[test]
fn batch_decode_amortizes_the_basis_cache() {
    let functions = 4;
    let mut rng = StdRng::seed_from_u64(99);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let inputs = random_inputs::<P25>(&mut rng, functions, 6);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let dataset = Arc::new(EncodedDataset::encode(&matrix, config, &mut rng));
    let engine = AvccMatVec::<P25>::over(dataset, KeyGenConfig::default(), &mut rng);
    assert_eq!(engine.decode_cache_stats(), (0, 0));

    let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12)).with_time_scale(1.0);
    let mut round_rng = StdRng::seed_from_u64(100);
    run_round(&engine, &inputs, &mut executor, &mut round_rng).unwrap();
    // One survivor set, m per-function decodes: the first pays for the
    // Lagrange basis, the remaining m − 1 hit the shared cache.
    assert_eq!(engine.decode_cache_stats(), (functions as u64 - 1, 1));

    // A cloned session shares the same dataset, hence the same cache.
    let clone = engine.clone();
    assert_eq!(clone.decode_cache_stats(), (functions as u64 - 1, 1));
}

#[test]
fn empty_arrivals_fail_loudly() {
    let mut rng = StdRng::seed_from_u64(123);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let inputs = random_inputs::<P25>(&mut rng, 2, 6);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let dataset = Arc::new(EncodedDataset::encode(&matrix, config, &mut rng));
    let engine = AvccMatVec::<P25>::over(dataset, KeyGenConfig::default(), &mut rng);
    let mut collect_rng = StdRng::seed_from_u64(124);
    let result = engine.collect(
        &inputs,
        &[],
        &NetworkModel::default(),
        1.0,
        &mut collect_rng,
    );
    assert!(matches!(
        result,
        Err(SchemeFailure::NotEnoughResults {
            available: 0,
            required: 9
        })
    ));
}
