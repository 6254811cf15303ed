//! The wire bridge: runs the staged training/serving pipeline on any
//! [`Executor`] — the trainer's own serial `VirtualExecutor`, real threads,
//! or real sockets. Every round in the repository goes through here.
//!
//! The executor trait is modulus-erased (blocks and vectors travel as `u64`
//! representatives, because closures cannot cross a process boundary), so
//! this module owns the two conversions:
//!
//! * **down**: a round's [`RoundTask`]s become one wire
//!   [`Block`] per worker (installed once per job)
//!   plus per-round input vectors;
//! * **up**: modulus-erased outcomes come back as canonical `u64`s, are
//!   validated back into field elements (non-canonical payloads drop the
//!   worker — the wire layer's invariant, never silently reduced), and the
//!   Byzantine corruption is applied **master-side on arrival**, so fault
//!   injection is executor-independent.
//!
//! Block installation is keyed by *pointer identity* of the engines' shared
//! dataset `Arc`s: dispatching twice over the same encoded dataset reuses the
//! resident remote blocks (rounds then move only input/output vectors, the
//! paper's "data is distributed once" assumption), while an adaptation that
//! re-encodes to a smaller `(N, K)` swaps the `Arc`s and is detected as a new
//! job — the new blocks are shipped before the next round, which is precisely
//! the re-distribution cost the adaptive controller charges.

use std::sync::Arc;

use avcc_field::{Fp, PrimeField, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::churn::ChurnEventKind;
use avcc_sim::executor::{Executor, ExecutorError, WorkerOutcome};
use avcc_sim::wire::Block;

use crate::driver::DistributedTrainer;
use crate::report::{IterationRecord, TrainingReport};
use crate::rounds::{RoundTask, SchemeFailure};

/// Arrival-ordered outcomes of one batched round: per worker, one field
/// vector per function.
pub type BatchOutcomes<M> = Vec<WorkerOutcome<Vec<Vec<Fp<M>>>>>;

/// Errors from running the pipeline over an executor: either the scheme
/// itself failed (not enough usable results, decode failure) or the executor
/// did (unknown job, spawn failure).
#[derive(Debug)]
pub enum DistributedError {
    /// A scheme-level failure (not enough usable results, decode failure).
    Scheme(SchemeFailure),
    /// An executor-level failure (job bookkeeping, worker spawn).
    Executor(ExecutorError),
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::Scheme(e) => write!(f, "scheme failure: {e}"),
            DistributedError::Executor(e) => write!(f, "executor failure: {e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<SchemeFailure> for DistributedError {
    fn from(e: SchemeFailure) -> Self {
        DistributedError::Scheme(e)
    }
}

impl From<ExecutorError> for DistributedError {
    fn from(e: ExecutorError) -> Self {
        DistributedError::Executor(e)
    }
}

/// Folds an executor-level failure into the scheme-failure shape the
/// synchronous APIs report: an executor that cannot run a round cannot
/// decode one.
impl From<DistributedError> for SchemeFailure {
    fn from(error: DistributedError) -> Self {
        match error {
            DistributedError::Scheme(failure) => failure,
            DistributedError::Executor(error) => SchemeFailure::DecodeFailed {
                details: format!("executor failure: {error}"),
            },
        }
    }
}

/// Serializes one worker's matrix block into its wire form.
fn block_of<M: PrimeModulus>(matrix: &Matrix<Fp<M>>) -> Block {
    Block {
        modulus: M::MODULUS,
        rows: matrix.rows() as u32,
        cols: matrix.cols() as u32,
        elements: matrix.data().iter().map(|&v| v.to_u64()).collect(),
    }
}

/// Lowers a field vector to its canonical `u64` representatives.
fn lower<M: PrimeModulus>(v: &[Fp<M>]) -> Vec<u64> {
    v.iter().map(|&x| x.to_u64()).collect()
}

/// Lifts one function's worth of wire output back into field elements, or
/// `None` if any value is non-canonical (`≥ q`) — the wire invariant says
/// such a payload is corrupt and must drop the worker, never be reduced.
fn lift<M: PrimeModulus>(v: &[u64]) -> Option<Vec<Fp<M>>> {
    if v.iter().any(|&x| x >= M::MODULUS) {
        return None;
    }
    Some(v.iter().map(|&x| Fp::<M>::from_u64(x)).collect())
}

/// One logical dispatch stream (e.g. "round 1 of this trainer"): which wire
/// job its blocks are installed under, and the dataset fingerprint that job
/// corresponds to.
#[derive(Debug, Default, Clone)]
struct Channel {
    job: u64,
    /// `Arc` pointer identity of each worker's block at install time.
    fingerprint: Vec<usize>,
}

/// Drives modulus-typed rounds over a modulus-erased [`Executor`], caching
/// block installation per channel (see the module docs).
#[derive(Debug, Default)]
pub struct WireRunner {
    channels: Vec<Option<Channel>>,
    next_job: u64,
    next_round: u64,
}

impl WireRunner {
    /// A fresh runner with no blocks installed anywhere.
    pub fn new() -> Self {
        WireRunner::default()
    }

    /// Makes sure the executor has the current blocks for `channel`
    /// installed, shipping them only when the dataset changed (or was never
    /// installed). Returns the wire job id to run rounds under.
    fn ensure_installed<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        matrices: &[&Arc<Matrix<Fp<M>>>],
    ) -> Result<u64, ExecutorError> {
        if self.channels.len() <= channel {
            self.channels.resize(channel + 1, None);
        }
        let fingerprint: Vec<usize> = matrices.iter().map(|m| Arc::as_ptr(m) as usize).collect();
        if let Some(existing) = &self.channels[channel] {
            if existing.fingerprint == fingerprint {
                return Ok(existing.job);
            }
        }
        let job = self.next_job;
        self.next_job += 1;
        let blocks: Vec<Block> = matrices.iter().map(|m| block_of(m)).collect();
        executor.install_blocks(job, &blocks)?;
        self.channels[channel] = Some(Channel { job, fingerprint });
        Ok(job)
    }

    /// Runs one single-function round (`tasks[i]` addressed to worker `i`)
    /// and returns arrival-ordered, corruption-applied outcomes with one
    /// field vector each — the `m = 1` call of
    /// [`WireRunner::run_batch_round`], unwrapped without copying.
    ///
    /// # Panics
    /// Panics if a task carries more than one function.
    pub fn run_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[RoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<Vec<WorkerOutcome<Vec<Fp<M>>>>, ExecutorError> {
        assert!(
            tasks.iter().all(|task| task.functions() == 1),
            "run_round takes single-function tasks; use run_batch_round"
        );
        let outcomes = self.run_batch_round(executor, channel, tasks, byzantine)?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| WorkerOutcome {
                worker: outcome.worker,
                payload: outcome.payload.into_iter().next().expect("one function"),
                compute_seconds: outcome.compute_seconds,
                network_seconds: outcome.network_seconds,
                arrival_seconds: outcome.arrival_seconds,
                corrupted: outcome.corrupted,
            })
            .collect())
    }

    /// Runs one round (`tasks[i]` addressed to worker `i`, `m` functions per
    /// task) on the executor and returns arrival-ordered, corruption-applied
    /// outcomes — the shape the engines' collect reads (through
    /// [`crate::rounds::arrivals`]). A Byzantine worker corrupts every
    /// function of its payload. Outcomes whose function count does not match
    /// the tasks', or that carry non-canonical values, drop the worker.
    pub fn run_batch_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[RoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<BatchOutcomes<M>, ExecutorError> {
        let matrices: Vec<&Arc<Matrix<Fp<M>>>> = tasks.iter().map(|t| t.matrix()).collect();
        let job = self.ensure_installed(executor, channel, &matrices)?;
        let round = self.next_round;
        self.next_round += 1;
        let inputs: Vec<Vec<Vec<u64>>> = tasks
            .iter()
            .map(|t| t.inputs().iter().map(|v| lower(v)).collect())
            .collect();
        let functions = tasks.first().map_or(0, |t| t.functions());
        let raw = executor.execute_round(job, round, &inputs)?;
        let mut outcomes: BatchOutcomes<M> = raw
            .into_iter()
            .filter_map(|outcome| {
                if outcome.payload.len() != functions {
                    return None;
                }
                let mut payload = Vec::with_capacity(functions);
                for part in &outcome.payload {
                    payload.push(lift::<M>(part)?);
                }
                let mut corrupted = false;
                for part in payload.iter_mut() {
                    corrupted |= byzantine.corrupt(outcome.worker, part);
                }
                Some(WorkerOutcome {
                    worker: outcome.worker,
                    payload,
                    compute_seconds: outcome.compute_seconds,
                    network_seconds: outcome.network_seconds,
                    arrival_seconds: outcome.arrival_seconds,
                    corrupted,
                })
            })
            .collect();
        outcomes.sort_by(|a, b| {
            a.arrival_seconds
                .partial_cmp(&b.arrival_seconds)
                .expect("finite arrival times")
        });
        Ok(outcomes)
    }
}

/// Channel index used for a trainer's round-1 dispatches.
const CHANNEL_ROUND1: usize = 0;
/// Channel index used for a trainer's round-2 dispatches.
const CHANNEL_ROUND2: usize = 1;

/// Runs the trainer's full configured training loop on `executor`, producing
/// the same model trajectory as [`DistributedTrainer::train`] (which runs
/// this loop on the trainer's own `VirtualExecutor`) for any executor whose
/// outcomes carry the same values — all of them: the compute path is the
/// same `avcc_linalg::mat_vec` kernel everywhere, and decode is exact.
///
/// Blocks ship to the workers once up front (and again only after a dynamic
/// re-coding swaps the datasets); each round then moves one input vector per
/// worker down and one output vector per worker back.
///
/// # Graceful degradation under churn
///
/// When a round comes back below the recovery threshold (churned workers
/// absent), the driver does not error: it **parks** the round — re-dispatching
/// the same tasks, each dispatch advancing the executor's round clock so
/// churned workers may have rejoined by the retry — up to the trainer's
/// [stall budget](DistributedTrainer::stall_budget). Exhausting the budget
/// [shrink-recodes](DistributedTrainer::shrink_to_fit) to a smaller `K` that
/// fits the workers actually responding and restarts the iteration on the
/// new code. Decode is exact, so neither path perturbs the model trajectory.
pub fn train_distributed<M: PrimeModulus>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut dyn Executor,
) -> Result<TrainingReport, DistributedError> {
    let mut runner = WireRunner::new();
    let mut report = TrainingReport::new(trainer.scheme().label(), trainer.scenario_label());
    let mut cumulative = 0.0;
    for iteration in 0..trainer.iterations() {
        match run_iteration_parked(
            trainer,
            Some(&mut *executor),
            &mut runner,
            iteration,
            &mut cumulative,
        ) {
            Ok(record) => report.push(record),
            Err(error) => {
                trainer.reset_pipeline();
                return Err(error);
            }
        }
    }
    Ok(report)
}

/// One iteration with the park / resume / shrink policy around each round
/// (see [`train_distributed`]), on `executor` — or, when `None`, on the
/// trainer's own `VirtualExecutor`, whose profile follows the trainer's
/// adaptations so every straggler stays on its physical worker.
pub(crate) fn run_iteration_parked<M: PrimeModulus>(
    trainer: &mut DistributedTrainer<M>,
    mut executor: Option<&mut dyn Executor>,
    runner: &mut WireRunner,
    iteration: usize,
    cumulative: &mut f64,
) -> Result<IterationRecord, DistributedError> {
    loop {
        let round1 = trainer.encode_round1();
        let Some(round2) = run_parked_round(
            trainer,
            &mut executor,
            runner,
            CHANNEL_ROUND1,
            &round1,
            iteration,
            |trainer, outcomes| trainer.collect_round1(outcomes),
        )?
        else {
            continue;
        };
        let record = run_parked_round(
            trainer,
            &mut executor,
            runner,
            CHANNEL_ROUND2,
            &round2,
            iteration,
            |trainer, outcomes| trainer.collect_round2(iteration, outcomes, cumulative),
        )?;
        if let Some(record) = record {
            return Ok(record);
        }
    }
}

/// Runs one round until `collect` accepts it. A round short of results is
/// parked and re-dispatched while the stall budget lasts, then the trainer
/// shrink-recodes and `Ok(None)` tells the caller to restart the iteration.
fn run_parked_round<M: PrimeModulus, T>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut Option<&mut dyn Executor>,
    runner: &mut WireRunner,
    channel: usize,
    tasks: &[RoundTask<M>],
    iteration: usize,
    mut collect: impl FnMut(
        &mut DistributedTrainer<M>,
        &[WorkerOutcome<Vec<Fp<M>>>],
    ) -> Result<T, SchemeFailure>,
) -> Result<Option<T>, DistributedError> {
    let byzantine = trainer.byzantine().clone();
    let round = iteration as u64;
    let mut stalls = 0usize;
    loop {
        let target: &mut dyn Executor = match executor {
            Some(executor) => &mut **executor,
            None => trainer.own_executor(),
        };
        let outcomes = runner.run_round(target, channel, tasks, &byzantine)?;
        match collect(trainer, &outcomes) {
            Ok(value) => {
                if stalls > 0 {
                    trainer.note_fleet_event(round, outcomes.len(), ChurnEventKind::Resumed);
                }
                return Ok(Some(value));
            }
            Err(SchemeFailure::NotEnoughResults {
                available,
                required,
            }) => {
                if stalls == 0 {
                    trainer.note_fleet_event(round, available, ChurnEventKind::Parked);
                }
                stalls += 1;
                if stalls > trainer.stall_budget() {
                    trainer.shrink_to_fit(round, available, required)?;
                    return Ok(None);
                }
            }
            Err(other) => return Err(other.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{SchemeKind, TrainerConfig};
    use crate::problem::TrainingProblem;
    use avcc_coding::SchemeConfig;
    use avcc_field::P25;
    use avcc_ml::dataset::{Dataset, DatasetConfig};
    use avcc_sim::attack::AttackModel;
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::{ThreadedExecutor, VirtualExecutor};

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

    fn quick_config(scheme: SchemeKind) -> TrainerConfig {
        TrainerConfig {
            iterations: 5,
            time_scale: 1.0,
            ..TrainerConfig::paper_defaults(scheme, SchemeConfig::linear(12, 9, 2, 1).unwrap())
        }
    }

    fn make_trainer(scheme: SchemeKind) -> DistributedTrainer<P25> {
        DistributedTrainer::new(
            small_problem(),
            ClusterProfile::uniform(12).with_stragglers(&[0], 10.0),
            ByzantineSpec::new([3], AttackModel::constant()),
            quick_config(scheme),
            "bridge-test",
        )
    }

    /// The per-iteration `(accuracy, loss)` trajectory — f64-exact equality
    /// certifies bit-identical models at every step.
    fn trajectory(report: &TrainingReport) -> Vec<(f64, f64)> {
        report
            .iterations
            .iter()
            .map(|r| (r.test_accuracy, r.train_loss))
            .collect()
    }

    #[test]
    fn train_distributed_on_virtual_executor_matches_train() {
        let mut oracle = make_trainer(SchemeKind::Avcc);
        let oracle_report = oracle.train().unwrap();

        let mut trainer = make_trainer(SchemeKind::Avcc);
        let mut executor = VirtualExecutor::new(trainer.cluster().clone());
        let report = train_distributed(&mut trainer, &mut executor).unwrap();

        assert_eq!(trajectory(&report), trajectory(&oracle_report));
        assert_eq!(trainer.model().weights, oracle.model().weights);
        assert!(report.total_detections() > 0);
    }

    #[test]
    fn train_distributed_on_threaded_executor_matches_train() {
        let mut oracle = make_trainer(SchemeKind::StaticVcc);
        let oracle_report = oracle.train().unwrap();

        let mut trainer = make_trainer(SchemeKind::StaticVcc);
        let mut executor = ThreadedExecutor::new(trainer.cluster().clone());
        executor.sleep_per_slowdown_unit = 0.002;
        let report = train_distributed(&mut trainer, &mut executor).unwrap();

        assert_eq!(trajectory(&report), trajectory(&oracle_report));
        assert_eq!(trainer.model().weights, oracle.model().weights);
    }

    #[test]
    fn adaptation_reinstalls_blocks_under_a_fresh_job() {
        // Straggler pressure beyond the (S=2) budget forces a re-encode; the
        // runner must detect the swapped dataset Arcs and ship new blocks
        // instead of letting workers compute on stale ones (which decode
        // would reject as garbage).
        let mut trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12).with_stragglers(&[0, 1, 2], 10.0),
            ByzantineSpec::new([4], AttackModel::constant()),
            TrainerConfig {
                iterations: 6,
                time_scale: 1.0,
                ..TrainerConfig::paper_defaults(
                    SchemeKind::Avcc,
                    SchemeConfig::linear(12, 9, 2, 1).unwrap(),
                )
            },
            "bridge-adapt",
        );
        let mut executor = VirtualExecutor::new(trainer.cluster().clone());
        let report = train_distributed(&mut trainer, &mut executor).unwrap();
        assert!(report.reconfiguration_count() >= 1);
        assert!(trainer.current_coding().workers < 12);
        assert!(report.final_accuracy() > 0.5);
    }

    #[test]
    fn non_canonical_payloads_drop_the_worker() {
        // Forge an executor outcome with an out-of-field value: the lift must
        // reject it rather than reduce it into a plausible-looking element.
        assert_eq!(
            lift::<P25>(&[0, 1, P25::MODULUS - 1]).map(|v| v.len()),
            Some(3)
        );
        assert!(lift::<P25>(&[0, P25::MODULUS]).is_none());
        assert!(lift::<P25>(&[u64::MAX]).is_none());
    }
}
