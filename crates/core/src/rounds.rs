//! Shared round-execution types and helpers used by every scheme engine.
//!
//! One "round" is `m ≥ 1` distributed matrix–vector products over one
//! (coded or raw) dataset: broadcast the `m` input vectors, have every
//! worker multiply each of them with its block, and reconstruct the `m`
//! full products at the master. A single product is the `m = 1` round; there
//! is no separate single-function path. The engines differ in how many
//! results they wait for and how they establish integrity; the bookkeeping —
//! who was used, who straggled, what each phase cost — is common and lives
//! here.

use std::sync::Arc;

use avcc_coding::decoder::DecodeError;
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::metrics::{IterationCosts, OpCounts};
use avcc_sim::NetworkModel;

/// One worker's share of a dispatched round: the (coded or raw) matrix block
/// the worker holds plus the round's `m` broadcast input vectors.
///
/// Both halves sit behind [`Arc`]s, so the task is cheap to clone and `Send`
/// — an engine can hand the same round to any executor or to a multi-job
/// fleet scheduler that runs it on another thread, without the task
/// borrowing the engine.
#[derive(Debug, Clone)]
pub struct RoundTask<M: PrimeModulus> {
    /// The worker this task is addressed to.
    pub worker: usize,
    matrix: Arc<Matrix<Fp<M>>>,
    inputs: Arc<Vec<Vec<Fp<M>>>>,
}

impl<M: PrimeModulus> RoundTask<M> {
    /// A single-function task multiplying `matrix` by `input` at `worker`:
    /// the `m = 1` case of [`RoundTask::batch`].
    pub fn new(worker: usize, matrix: Arc<Matrix<Fp<M>>>, input: Arc<Vec<Fp<M>>>) -> Self {
        Self::batch(worker, matrix, Arc::new(vec![Arc::unwrap_or_clone(input)]))
    }

    /// A task multiplying `matrix` by each of `inputs` at `worker`.
    pub fn batch(worker: usize, matrix: Arc<Matrix<Fp<M>>>, inputs: Arc<Vec<Vec<Fp<M>>>>) -> Self {
        RoundTask {
            worker,
            matrix,
            inputs,
        }
    }

    /// Runs a single-function task: the block–vector product.
    ///
    /// # Panics
    /// Panics if the task carries more than one function (use
    /// [`RoundTask::run_all`]).
    pub fn run(&self) -> Vec<Fp<M>> {
        mat_vec(&self.matrix, self.input())
    }

    /// Runs every function of the task: one block–vector product per input,
    /// in function order.
    pub fn run_all(&self) -> Vec<Vec<Fp<M>>> {
        self.inputs
            .iter()
            .map(|input| mat_vec(&self.matrix, input))
            .collect()
    }

    /// Number of functions (input vectors) the task carries.
    pub fn functions(&self) -> usize {
        self.inputs.len()
    }

    /// The worker's (coded or raw) matrix block, behind the engine's `Arc`.
    ///
    /// The shared handle (rather than the matrix itself) is exposed so a wire
    /// bridge can both serialize the block *and* fingerprint it by pointer
    /// identity — two dispatches over the same encoded dataset share the
    /// `Arc`, so an unchanged fingerprint proves the blocks already installed
    /// on remote workers are still current.
    pub fn matrix(&self) -> &Arc<Matrix<Fp<M>>> {
        &self.matrix
    }

    /// The input vector of a single-function task.
    ///
    /// # Panics
    /// Panics if the task carries more than one function (use
    /// [`RoundTask::inputs`]).
    pub fn input(&self) -> &[Fp<M>] {
        assert_eq!(
            self.inputs.len(),
            1,
            "input() is for single-function tasks; this one carries {} functions",
            self.inputs.len()
        );
        &self.inputs[0]
    }

    /// The `m` broadcast input vectors of this task, in function order.
    pub fn inputs(&self) -> &[Vec<Fp<M>>] {
        &self.inputs
    }
}

/// A worker payload as a collect reads it: the worker's per-function
/// outputs, in function order. A bare `Vec<Fp<M>>` is the single-function
/// (`m = 1`) payload, so single-function outcomes reach the collect without
/// being copied into a batch shape.
pub trait FunctionOutputs<M: PrimeModulus> {
    /// The per-function outputs.
    fn outputs(&self) -> &[Vec<Fp<M>>];
}

impl<M: PrimeModulus> FunctionOutputs<M> for Vec<Fp<M>> {
    fn outputs(&self) -> &[Vec<Fp<M>>] {
        std::slice::from_ref(self)
    }
}

impl<M: PrimeModulus> FunctionOutputs<M> for Vec<Vec<Fp<M>>> {
    fn outputs(&self) -> &[Vec<Fp<M>>] {
        self
    }
}

/// One arrival as [`crate::MatVecEngine::collect`] reads it: the outcome's
/// timing plus its per-function outputs, borrowed.
pub type Arrival<'a, M> = WorkerOutcome<&'a [Vec<Fp<M>>]>;

/// Borrows arrival-ordered outcomes as [`Arrival`]s (no payload is copied).
pub fn arrivals<M: PrimeModulus, P: FunctionOutputs<M>>(
    outcomes: &[WorkerOutcome<P>],
) -> Vec<Arrival<'_, M>> {
    outcomes
        .iter()
        .map(|outcome| WorkerOutcome {
            worker: outcome.worker,
            payload: outcome.payload.outputs(),
            compute_seconds: outcome.compute_seconds,
            network_seconds: outcome.network_seconds,
            arrival_seconds: outcome.arrival_seconds,
            corrupted: outcome.corrupted,
        })
        .collect()
}

/// The outcome of one distributed round: `m` reconstructed products plus the
/// round's bookkeeping.
#[derive(Debug, Clone)]
pub struct RoundExecution<M: PrimeModulus> {
    /// The reconstructed per-function products, in function order (each of
    /// length = rows of the full matrix).
    pub outputs: Vec<Vec<Fp<M>>>,
    /// Cost breakdown charged to this round. Compute and communication are
    /// paid once for the whole round; verification and decoding reflect the
    /// (batched) check and the `m` per-function decodes.
    pub costs: IterationCosts,
    /// Deterministic operation counts for this round (see
    /// [`avcc_sim::metrics::OpCounts`]): dimension-derived, identical across
    /// executors and hosts, the noise-free counterpart of `costs`.
    pub ops: OpCounts,
    /// Workers whose results the master actually used for reconstruction.
    pub used_workers: Vec<usize>,
    /// Workers identified as Byzantine during this round (by verification for
    /// AVCC, by error decoding for LCC; always empty for the uncoded scheme).
    pub detected_byzantine: Vec<usize>,
    /// Workers observed to straggle in this round (arrived far later than the
    /// median, or had not arrived when reconstruction became possible).
    pub observed_stragglers: Vec<usize>,
    /// Workers evicted by the pre-decode dual-codeword screen
    /// ([`avcc_coding::DualCodeword`]) before any per-worker verification
    /// ran. Always a subset of `detected_byzantine`; empty for engines (or
    /// rounds) that never screened.
    pub screened_workers: Vec<usize>,
    /// Function indices localized as corrupted by a rejected or screened
    /// worker (sorted, deduplicated). Empty whenever every examined worker
    /// passed verification, and always empty for engines that do not verify.
    pub corrupted_functions: Vec<usize>,
}

/// Errors an engine can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeFailure {
    /// Not enough usable results to reconstruct the product.
    NotEnoughResults {
        /// Usable results available.
        available: usize,
        /// Results required.
        required: usize,
    },
    /// Decoding failed (propagated from the coding layer).
    DecodeFailed {
        /// Human-readable description.
        details: String,
    },
}

impl std::fmt::Display for SchemeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeFailure::NotEnoughResults {
                available,
                required,
            } => write!(
                f,
                "not enough usable worker results: {available} available, {required} required"
            ),
            SchemeFailure::DecodeFailed { details } => write!(f, "decoding failed: {details}"),
        }
    }
}

impl std::error::Error for SchemeFailure {}

impl From<DecodeError> for SchemeFailure {
    fn from(error: DecodeError) -> Self {
        SchemeFailure::DecodeFailed {
            details: error.to_string(),
        }
    }
}

/// Multiplier above the median arrival time beyond which a worker counts as
/// an *observed* straggler (the adaptive controller's input `S_t`).
pub const STRAGGLER_DETECTION_FACTOR: f64 = 3.0;

/// Identifies observed stragglers from a round's *compute* times: every worker
/// whose compute time exceeds `STRAGGLER_DETECTION_FACTOR ×` the median. The
/// network component is excluded because it is shared by all workers and would
/// otherwise mask compute-side stragglers on small tasks.
pub fn detect_stragglers<T>(outcomes: &[WorkerOutcome<T>]) -> Vec<usize> {
    if outcomes.is_empty() {
        return Vec::new();
    }
    let mut compute_times: Vec<f64> = outcomes.iter().map(|o| o.compute_seconds).collect();
    compute_times.sort_by(|a, b| a.partial_cmp(b).expect("finite compute times"));
    let median = compute_times[compute_times.len() / 2];
    let threshold = median * STRAGGLER_DETECTION_FACTOR;
    outcomes
        .iter()
        .filter(|o| o.compute_seconds > threshold)
        .map(|o| o.worker)
        .collect()
}

/// Assembles the compute/communication part of a round's cost from the subset
/// of outcomes the master actually waited for, plus the cost of broadcasting
/// the input vector to every worker.
pub fn waiting_costs<T>(
    used: &[&WorkerOutcome<T>],
    network: &NetworkModel,
    broadcast_bytes: usize,
    workers: usize,
) -> IterationCosts {
    let compute = used
        .iter()
        .map(|o| o.compute_seconds)
        .fold(0.0f64, f64::max);
    let receive = used
        .iter()
        .map(|o| o.network_seconds)
        .fold(0.0f64, f64::max);
    // The master sends the input vector to every worker before the round; the
    // sends happen back to back on its single link.
    let broadcast = network.transfer_seconds(broadcast_bytes) * workers as f64;
    IterationCosts {
        compute,
        communication: receive + broadcast,
        ..IterationCosts::default()
    }
}

/// Serialized size of a field vector in bytes (8 bytes per element, matching
/// the wire format a real implementation would use for `u64` representatives).
pub fn field_vector_bytes(len: usize) -> usize {
    len * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;

    fn outcome(worker: usize, compute: f64, network: f64) -> WorkerOutcome<Vec<F25>> {
        WorkerOutcome {
            worker,
            payload: Vec::new(),
            compute_seconds: compute,
            network_seconds: network,
            arrival_seconds: compute + network,
            corrupted: false,
        }
    }

    #[test]
    fn straggler_detection_flags_late_workers() {
        let outcomes = vec![
            outcome(0, 1.0, 0.1),
            outcome(1, 1.1, 0.1),
            outcome(2, 0.9, 0.1),
            outcome(3, 10.0, 0.1),
        ];
        assert_eq!(detect_stragglers(&outcomes), vec![3]);
    }

    #[test]
    fn no_stragglers_in_a_homogeneous_round() {
        let outcomes = vec![
            outcome(0, 1.0, 0.1),
            outcome(1, 1.2, 0.1),
            outcome(2, 0.8, 0.1),
        ];
        assert!(detect_stragglers(&outcomes).is_empty());
    }

    #[test]
    fn empty_round_has_no_stragglers() {
        let outcomes: Vec<WorkerOutcome<Vec<F25>>> = Vec::new();
        assert!(detect_stragglers(&outcomes).is_empty());
    }

    #[test]
    fn waiting_costs_take_worst_case_over_used_workers() {
        let a = outcome(0, 2.0, 0.2);
        let b = outcome(1, 3.0, 0.1);
        let network = NetworkModel::default();
        let costs = waiting_costs(&[&a, &b], &network, 800, 4);
        assert!((costs.compute - 3.0).abs() < 1e-12);
        assert!(costs.communication > 0.2);
        assert_eq!(costs.verification, 0.0);
        assert_eq!(costs.decoding, 0.0);
    }

    #[test]
    fn field_vector_bytes_counts_eight_per_element() {
        assert_eq!(field_vector_bytes(100), 800);
    }

    #[test]
    fn scheme_failures_render_useful_messages() {
        let failure = SchemeFailure::NotEnoughResults {
            available: 3,
            required: 9,
        };
        assert!(failure.to_string().contains("3 available"));
        let failure = SchemeFailure::DecodeFailed {
            details: "boom".to_string(),
        };
        assert!(failure.to_string().contains("boom"));
    }
}
