//! The per-scheme execution engines.
//!
//! Each engine is a lightweight *session* over a shared
//! [`EncodedDataset`] — raw blocks for the uncoded scheme, coded shares for
//! LCC/AVCC, encoded once and shared through an `Arc` — plus whatever
//! master-side state the scheme needs (Freivalds keys and the dual-codeword
//! screen for AVCC). A session knows the two master-side halves of a round;
//! the compute in between always runs on an
//! [`avcc_sim::executor::Executor`] (usually through
//! [`crate::distributed::WireRunner`]) or on a serving fleet:
//!
//! 1. [`MatVecEngine::dispatch`] — encode-side: build one [`RoundTask`] per
//!    worker (an `Arc` handle onto the worker's share plus the round's `m`
//!    broadcast inputs). A provided method over the dataset's shares.
//! 2. [`MatVecEngine::collect`] — decode-side: given the arrival-ordered
//!    outcomes, establish integrity (Freivalds for AVCC, error decoding for
//!    LCC), reconstruct the `m` products and account the round's costs.
//!
//! A single matrix–vector product is the `m = 1` round: every engine has one
//! collect, and single-function rounds pay exactly what they did before the
//! batched shape existed (AVCC draws no batching scalar and combines nothing
//! when `m = 1`).

use std::sync::Arc;

use avcc_coding::EncodedDataset;
use avcc_field::{Fp, PrimeModulus};
use avcc_sim::cluster::NetworkModel;
use rand::rngs::StdRng;

use crate::rounds::{Arrival, RoundExecution, RoundTask, SchemeFailure};

pub mod avcc;
pub mod lcc;
pub mod uncoded;

pub use avcc::AvccMatVec;
pub use lcc::LccMatVec;
pub use uncoded::UncodedMatVec;

/// A distributed matrix–vector engine: one session per (scheme, dataset)
/// pair.
///
/// The training driver holds two engines per scheme — one for round 1
/// (`X`, row-partitioned) and one for round 2 (`Xᵀ`, row-partitioned) — and
/// runs each round with one input (the quantized weights, then the quantized
/// error vector). A serving job runs one round with its `m` inputs.
pub trait MatVecEngine<M: PrimeModulus> {
    /// Human-readable scheme name (for reports).
    fn name(&self) -> &'static str;

    /// The shared dataset this session dispatches against.
    fn dataset(&self) -> &Arc<EncodedDataset<M>>;

    /// The number of workers this engine dispatches to.
    fn workers(&self) -> usize {
        self.dataset().workers()
    }

    /// The minimum number of arrived results [`MatVecEngine::collect`] needs
    /// before it can possibly succeed: the recovery threshold for AVCC, the
    /// designed wait count for LCC, all workers for the uncoded scheme.
    ///
    /// `collect` may still fail with that many results (e.g. a Byzantine
    /// payload among an exactly-threshold AVCC prefix); callers that stream
    /// arrivals should retry with more results until all
    /// [`MatVecEngine::workers`] have arrived.
    fn min_results(&self) -> usize;

    /// Builds the round's worker tasks for `m` broadcast inputs, one task per
    /// worker (each carrying all `m` inputs), in worker order.
    fn dispatch(&self, inputs: &[Vec<Fp<M>>]) -> Vec<RoundTask<M>> {
        let inputs = Arc::new(inputs.to_vec());
        self.dataset()
            .shares()
            .iter()
            .enumerate()
            .map(|(worker, share)| RoundTask::batch(worker, Arc::clone(share), Arc::clone(&inputs)))
            .collect()
    }

    /// Reconstructs the round from arrival-ordered worker `outcomes` of the
    /// tasks built by [`MatVecEngine::dispatch`] for the same `inputs` (see
    /// [`crate::rounds::arrivals`] for borrowing any outcome shape).
    ///
    /// `network` and `time_scale` feed the cost model (broadcast cost and
    /// master-side work scaling). The outputs are exact over the field, so
    /// they do not depend on which sufficient set of honest results was
    /// used. On `Err` nothing was consumed, so the call may be retried with
    /// more outcomes.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    fn collect(
        &self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[Arrival<'_, M>],
        network: &NetworkModel,
        time_scale: f64,
        rng: &mut StdRng,
    ) -> Result<RoundExecution<M>, SchemeFailure>;

    /// `(hits, misses)` of the session's shared decoder basis cache — `(0, 0)`
    /// for raw datasets, which have nothing to decode. Counters are
    /// cumulative over the dataset's lifetime and shared with every other
    /// session over the same [`EncodedDataset`].
    fn decode_cache_stats(&self) -> (u64, u64) {
        self.dataset().basis_cache_stats()
    }
}

/// Concatenates a decode's `K` output blocks into the full product, trimming
/// the zero rows the dataset padded the matrix with.
fn assemble<M: PrimeModulus>(blocks: Vec<Vec<Fp<M>>>, dataset: &EncodedDataset<M>) -> Vec<Fp<M>> {
    let mut output: Vec<Fp<M>> = blocks.into_iter().flatten().collect();
    output.truncate(dataset.output_rows());
    output
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The engine tests' one round helper: dispatch, run on a
    //! [`VirtualExecutor`] through [`WireRunner`], collect.

    use avcc_field::{Fp, PrimeModulus};
    use avcc_sim::attack::ByzantineSpec;
    use avcc_sim::executor::VirtualExecutor;
    use rand::rngs::StdRng;

    use super::MatVecEngine;
    use crate::distributed::WireRunner;
    use crate::rounds::{arrivals, RoundExecution, SchemeFailure};

    /// Runs one `m = inputs.len()` round of `engine` on `executor` with
    /// `byzantine` corruption applied on arrival.
    pub(crate) fn run_round<M: PrimeModulus>(
        engine: &dyn MatVecEngine<M>,
        inputs: &[Vec<Fp<M>>],
        executor: &mut VirtualExecutor,
        byzantine: &ByzantineSpec,
        rng: &mut StdRng,
    ) -> Result<RoundExecution<M>, SchemeFailure> {
        let tasks = engine.dispatch(inputs);
        let outcomes = WireRunner::new()
            .run_batch_round(executor, 0, &tasks, byzantine)
            .expect("the virtual executor runs every round");
        let network = executor.profile().network;
        let time_scale = executor.time_scale;
        engine.collect(inputs, &arrivals(&outcomes), &network, time_scale, rng)
    }
}
