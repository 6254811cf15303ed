//! The uncoded baseline (paper §V): no redundancy, no integrity protection.
//!
//! The data matrix is split into `K` raw blocks, one per participating worker
//! (the paper uses 9 of the 12 nodes). The master must wait for **every**
//! worker — a single straggler delays the whole round — and a Byzantine
//! worker's corrupted block flows straight into the reconstructed product,
//! which is what degrades the uncoded accuracy curves in Fig. 3.

use std::sync::Arc;
use std::time::Instant;

use avcc_coding::EncodedDataset;
use avcc_field::{Fp, PrimeModulus};
use avcc_sim::cluster::NetworkModel;
use avcc_sim::metrics::OpCounts;
use rand::rngs::StdRng;

use crate::engines::MatVecEngine;
use crate::rounds::{
    detect_stragglers, field_vector_bytes, waiting_costs, Arrival, RoundExecution, SchemeFailure,
};

/// The uncoded distributed matrix–vector engine: a session over a shared
/// raw-partitioned [`EncodedDataset`].
#[derive(Debug, Clone)]
pub struct UncodedMatVec<M: PrimeModulus> {
    dataset: Arc<EncodedDataset<M>>,
}

impl<M: PrimeModulus> UncodedMatVec<M> {
    /// Opens an uncoded session over an already-partitioned dataset.
    ///
    /// # Panics
    /// Panics if the dataset is coded (the uncoded baseline reassembles raw
    /// blocks by position; coded shares would decode to garbage).
    pub fn over(dataset: Arc<EncodedDataset<M>>) -> Self {
        assert!(
            !dataset.is_coded(),
            "the uncoded engine needs raw partitions; use EncodedDataset::partitioned"
        );
        UncodedMatVec { dataset }
    }
}

impl<M: PrimeModulus> MatVecEngine<M> for UncodedMatVec<M> {
    fn name(&self) -> &'static str {
        "uncoded"
    }

    fn dataset(&self) -> &Arc<EncodedDataset<M>> {
        &self.dataset
    }

    fn min_results(&self) -> usize {
        self.dataset.workers()
    }

    fn collect(
        &self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[Arrival<'_, M>],
        network: &NetworkModel,
        time_scale: f64,
        _rng: &mut StdRng,
    ) -> Result<RoundExecution<M>, SchemeFailure> {
        assert!(!inputs.is_empty(), "a round needs at least one input");
        let functions = inputs.len();
        let cols = inputs[0].len();
        let workers = self.dataset.workers();
        let block_rows = self.dataset.block_rows();
        if outcomes.len() < workers {
            return Err(SchemeFailure::NotEnoughResults {
                available: outcomes.len(),
                required: workers,
            });
        }
        let observed_stragglers = detect_stragglers(outcomes);
        // The master needs every result, so it pays for the slowest worker.
        let used: Vec<_> = outcomes.iter().collect();
        let mut costs = waiting_costs(
            &used,
            network,
            field_vector_bytes(functions * cols),
            workers,
        );

        // Reassembly (concatenation in block order) is the uncoded "decode";
        // it is nearly free but measured for completeness.
        let reassembly_start = Instant::now();
        let mut outputs = vec![vec![Fp::<M>::ZERO; workers * block_rows]; functions];
        for outcome in outcomes {
            let start = outcome.worker * block_rows;
            for (output, part) in outputs.iter_mut().zip(outcome.payload.iter()) {
                output[start..start + block_rows].copy_from_slice(part);
            }
        }
        costs.decoding = reassembly_start.elapsed().as_secs_f64() * time_scale;

        // No verification and no real decode: reassembly is data movement,
        // not multiply–accumulate work.
        let ops = OpCounts {
            worker_macs: (block_rows * functions * cols) as u64,
            verify_macs: 0,
            decode_macs: 0,
        };
        Ok(RoundExecution {
            outputs,
            costs,
            ops,
            used_workers: outcomes.iter().map(|o| o.worker).collect(),
            detected_byzantine: Vec::new(),
            observed_stragglers,
            screened_workers: Vec::new(),
            corrupted_functions: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::test_support::run_round;
    use avcc_field::{F25, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use avcc_sim::attack::{AttackModel, ByzantineSpec};
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::VirtualExecutor;
    use rand::SeedableRng;

    fn setup(rows: usize, cols: usize, partitions: usize) -> (Matrix<F25>, Vec<F25>) {
        let mut rng = StdRng::seed_from_u64(1);
        let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
        let input = avcc_field::random_vector(&mut rng, cols);
        let _ = partitions;
        (matrix, input)
    }

    #[test]
    fn honest_round_reconstructs_the_product() {
        let (matrix, input) = setup(18, 5, 9);
        let expected = mat_vec(&matrix, &input);
        let engine = UncodedMatVec::<P25>::over(Arc::new(EncodedDataset::partitioned(&matrix, 9)));
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(9)).with_time_scale(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let round = run_round(
            &engine,
            std::slice::from_ref(&input),
            &mut executor,
            &ByzantineSpec::none(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(round.outputs[0], expected);
        assert_eq!(round.used_workers.len(), 9);
        assert!(round.detected_byzantine.is_empty());
    }

    #[test]
    fn byzantine_corruption_silently_pollutes_the_output() {
        let (matrix, input) = setup(12, 4, 6);
        let expected = mat_vec(&matrix, &input);
        let engine = UncodedMatVec::<P25>::over(Arc::new(EncodedDataset::partitioned(&matrix, 6)));
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(6)).with_time_scale(1.0);
        let byzantine = ByzantineSpec::new([2], AttackModel::constant());
        let mut rng = StdRng::seed_from_u64(3);
        let round = run_round(
            &engine,
            std::slice::from_ref(&input),
            &mut executor,
            &byzantine,
            &mut rng,
        )
        .unwrap();
        assert_ne!(
            round.outputs[0], expected,
            "corruption should reach the output"
        );
        // The uncoded scheme has no way to notice.
        assert!(round.detected_byzantine.is_empty());
        // Untouched blocks are still correct.
        assert_eq!(round.outputs[0][..4], expected[..4]);
    }

    #[test]
    fn straggler_inflates_the_round_cost() {
        let (matrix, input) = setup(12, 4, 6);
        let engine = UncodedMatVec::<P25>::over(Arc::new(EncodedDataset::partitioned(&matrix, 6)));
        let mut rng = StdRng::seed_from_u64(4);
        let mut fast = VirtualExecutor::new(ClusterProfile::uniform(6)).with_time_scale(1.0);
        let mut slow =
            VirtualExecutor::new(ClusterProfile::uniform(6).with_stragglers(&[0], 200.0))
                .with_time_scale(1.0);
        // Wall-clock-derived virtual costs are noisy under parallel test
        // load; take the fastest of a few unloaded runs as the baseline (a
        // scheduling blip can only inflate a measurement, never deflate it)
        // against the x200 straggler's round.
        let fast_compute = (0..3)
            .map(|_| {
                run_round(
                    &engine,
                    std::slice::from_ref(&input),
                    &mut fast,
                    &ByzantineSpec::none(),
                    &mut rng,
                )
                .unwrap()
                .costs
                .compute
            })
            .fold(f64::INFINITY, f64::min);
        let slow_costs = run_round(
            &engine,
            std::slice::from_ref(&input),
            &mut slow,
            &ByzantineSpec::none(),
            &mut rng,
        )
        .unwrap()
        .costs;
        assert!(slow_costs.compute > fast_compute * 5.0);
    }
}
