//! Serving jobs over a wire [`Executor`] — the socket-fleet counterpart of
//! the in-process [`crate::Scheduler`].
//!
//! [`serve_distributed`] runs a list of [`JobSpec`]s against any executor
//! implementing the modulus-erased trait: the in-process engines for tests,
//! or `avcc_sim::SocketExecutor` for a real multi-process TCP/UDS fleet. Jobs
//! run to completion one at a time (round pipelining across jobs remains the
//! in-process scheduler's specialty; the wire fleet's concurrency is *within*
//! a round, across worker processes), but every job's result is bit-identical
//! to the scheduler's for the same spec — all decode paths are exact.
//!
//! Worker evictions (corrupt frames, disconnects, deadline blowouts) surface
//! as absent outcomes, which the engines absorb through the same straggler
//! tolerance they were designed around; a job fails only when the surviving
//! results genuinely cannot reconstruct the product.

use std::time::Instant;

use avcc_core::distributed::{train_distributed, DistributedError, WireRunner};
use avcc_core::rounds::SchemeFailure;
use avcc_field::PrimeModulus;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::executor::Executor;
use avcc_sim::metrics::JobMetrics;

use crate::job::{CompletedJob, JobOutput, JobPlan, JobSpec};

/// Runs every job on `executor`, in submission order, returning one
/// [`CompletedJob`] per spec (ids are the spec's index). See the module docs
/// for semantics.
pub fn serve_distributed<M: PrimeModulus>(
    specs: Vec<JobSpec<M>>,
    executor: &mut dyn Executor,
) -> Vec<CompletedJob<M>> {
    let mut runner = WireRunner::new();
    let mut completed = Vec::with_capacity(specs.len());
    // Training jobs use two block channels (one per round); one-shot jobs
    // use one. Distinct channels per job keep block installation cached
    // per dataset instead of thrashing between jobs.
    let mut next_channel = 0usize;
    for (id, spec) in specs.into_iter().enumerate() {
        let started = Instant::now();
        let mut metrics = JobMetrics::default();
        let output = match spec.plan() {
            JobPlan::Training(config) => {
                let mut trainer = config.build_trainer::<M>();
                match train_distributed(&mut trainer, executor) {
                    Ok(report) => {
                        metrics.rounds = report.len() * 2;
                        for record in &report.iterations {
                            metrics.ops = metrics.ops.combined(&record.ops);
                            metrics.screened_workers += record.screened_workers.len() as u64;
                        }
                        JobOutput::Training(Box::new(report))
                    }
                    Err(error) => JobOutput::Failed(error.into()),
                }
            }
            JobPlan::MatMul(mut round) => {
                let channel = next_channel;
                next_channel += 1;
                runner
                    .run_batch_round(executor, channel, &round.dispatch(), &ByzantineSpec::none())
                    .map_err(|e| SchemeFailure::from(DistributedError::Executor(e)))
                    .and_then(|outcomes| round.collect(&outcomes, &mut metrics))
                    .unwrap_or_else(JobOutput::Failed)
            }
        };
        metrics.active_seconds = started.elapsed().as_secs_f64();
        completed.push(CompletedJob {
            id,
            output,
            metrics,
        });
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use avcc_coding::SchemeConfig;
    use avcc_field::{Fp, PrimeField, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::ThreadedExecutor;

    fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Fp<P25>> {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| Fp::<P25>::from_u64(seed.wrapping_mul(i as u64 + 3) % 1000))
                .collect(),
        )
    }

    fn input(cols: usize, seed: u64) -> Vec<Fp<P25>> {
        (0..cols)
            .map(|i| Fp::<P25>::from_u64(seed.wrapping_add(i as u64) % 997))
            .collect()
    }

    #[test]
    fn matvec_and_batch_jobs_decode_the_exact_products() {
        let coding = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let m = matrix(18, 6, 11);
        let single_in = input(6, 1);
        let batch_ins = vec![input(6, 2), input(6, 3), input(6, 4)];
        let specs = vec![
            JobSpec::CodedMatVec {
                matrix: m.clone(),
                input: single_in.clone(),
                coding,
                seed: 7,
            },
            JobSpec::MatMulBatch {
                matrix: m.clone(),
                inputs: batch_ins.clone(),
                coding,
                seed: 7,
            },
        ];
        let mut executor = ThreadedExecutor::new(ClusterProfile::uniform(12));
        let completed = serve_distributed(specs, &mut executor);
        assert_eq!(completed.len(), 2);

        let JobOutput::MatVec(product) = &completed[0].output else {
            panic!(
                "job 0 must be a matvec result, got {:?}",
                completed[0].output
            );
        };
        assert_eq!(product, &mat_vec(&m, &single_in));

        let JobOutput::MatVecBatch(products) = &completed[1].output else {
            panic!("job 1 must be a batch result");
        };
        assert_eq!(products.len(), 3);
        for (got, want) in products
            .iter()
            .zip(batch_ins.iter().map(|v| mat_vec(&m, v)))
        {
            assert_eq!(got, &want);
        }
        assert!(completed.iter().all(|job| job.metrics.rounds == 1));
    }
}
