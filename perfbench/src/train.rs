//! The training workloads: `train-wide` (Static VCC on a `ThreadedExecutor`)
//! and `socket-train` (Static VCC over a TCP-loopback `SocketExecutor`).
//!
//! A run repeats *reps* until `--seconds` have passed (at least
//! [`MIN_REPS`]). A rep sets a trainer up from the generated dataset, runs a
//! fixed number of iterations and checks the final weights against
//! `DistributedTrainer::train()` on the same inputs. Untraced reps run the
//! iterations through `train_distributed` and time them from a delegating
//! executor. Traced reps make the staged calls `train_distributed` makes per
//! iteration (encode round 1, `WireRunner::run_round`, collect round 1, run
//! round 2, collect round 2), so each gets a span. The workloads have no
//! churn, so a round that comes back short, parks or fails is a defect and
//! fails the run.

use std::cell::RefCell;
use std::time::Instant;

use avcc_coding::{DualCodeword, EncodedDataset, LagrangeDecoder, SchemeConfig};
use avcc_core::{
    train_distributed, DistributedError, DistributedTrainer, IterationRecord, RoundTask,
    SchemeKind, TrainerConfig, TrainingProblem, TrainingRound, WireRunner,
};
use avcc_field::{Fp, PrimeField, P25};
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_ml::{LogisticModel, QuantizedProtocol};
use avcc_sim::attack::{AttackModel, ByzantineSpec};
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Eviction, Executor, ExecutorError, ThreadedExecutor, WorkerOutcome};
use avcc_sim::socket::{SocketConfig, SocketExecutor, SocketMetrics, Transport};
use avcc_sim::wire::{read_frame, Block, Task, TaskResult, DEFAULT_MAX_PAYLOAD};
use avcc_sim::ChurnEvent;
use avcc_verify::{KeyGenConfig, MatVecKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, percentile, replay};
use crate::trace::{span, TracedExecutor, Tracer};
use crate::{Args, Workload};

/// Data blocks `K` of the paper's `(N = 12, K = 9, S = 2, M = 1)` coding.
const PARTITIONS: usize = 9;
/// Fleet width `N`.
const WORKERS: usize = 12;
/// Fewest reps a run makes, so `setup_s` is a median of several set-ups
/// (a traced run alternates untraced and traced reps, so it makes two of
/// each).
const MIN_REPS: usize = 3;
/// Timed calls per replayed kernel.
const REPLAYS: usize = 15;

/// What distinguishes the two training workloads.
///
/// Both run Static VCC: AVCC's re-code decision reads wall-clock compute
/// time (`detect_stragglers` flags a worker slower than 3× the median), so
/// on a shared host runs of one seed re-encode a different number of times
/// and do different work.
struct Params {
    dataset: DatasetConfig,
    iterations: usize,
    socket: bool,
}

impl Params {
    fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            // GISETTE-shaped: enough rows and features that the worker
            // kernels and the master's ML evaluation dominate.
            Workload::TrainWide => Params {
                dataset: DatasetConfig {
                    train_samples: 3600,
                    test_samples: 600,
                    features: 2700,
                    informative: 300,
                    seed,
                    ..DatasetConfig::default()
                },
                iterations: 30,
                socket: false,
            },
            // The paper's default 900 × 63 shape: compute is tiny, so the
            // wire and the master's per-round work dominate.
            Workload::SocketTrain => Params {
                dataset: DatasetConfig {
                    seed,
                    ..DatasetConfig::default()
                },
                iterations: 200,
                socket: true,
            },
            Workload::ServeMatvec => unreachable!("serve-matvec is not a training workload"),
        }
    }
}

/// The injected faults: one reverse-attack Byzantine worker and one
/// designated ×10 straggler, both chosen by the seed. Executors sleep
/// nothing for the straggler; only the oracle's virtual timeline sees it.
fn faults(seed: u64) -> (usize, usize) {
    let byzantine = (seed % WORKERS as u64) as usize;
    let straggler =
        (byzantine + 1 + ((seed / WORKERS as u64) % (WORKERS as u64 - 1)) as usize) % WORKERS;
    (byzantine, straggler)
}

/// The executor under test. One lives per rep, so its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Runtime {
    Threaded(ThreadedExecutor),
    Socket(SocketExecutor),
}

impl Runtime {
    fn spawn(socket: bool, profile: ClusterProfile) -> Result<Self, ExecutorError> {
        if socket {
            let config = SocketConfig {
                transport: Transport::Tcp,
                sleep_per_slowdown_unit: 0.0,
                ..SocketConfig::default()
            };
            Ok(Runtime::Socket(SocketExecutor::with_config(
                profile, config,
            )?))
        } else {
            let mut executor = ThreadedExecutor::new(profile);
            executor.sleep_per_slowdown_unit = 0.0;
            Ok(Runtime::Threaded(executor))
        }
    }

    fn executor(&mut self) -> &mut dyn Executor {
        match self {
            Runtime::Threaded(executor) => executor,
            Runtime::Socket(executor) => executor,
        }
    }

    fn executor_ref(&self) -> &dyn Executor {
        match self {
            Runtime::Threaded(executor) => executor,
            Runtime::Socket(executor) => executor,
        }
    }

    fn wire(&self) -> Option<SocketMetrics> {
        match self {
            Runtime::Threaded(_) => None,
            Runtime::Socket(executor) => Some(executor.metrics()),
        }
    }
}

/// Counts that must repeat exactly across reps of one seed.
#[derive(Debug, Clone, Default)]
struct WorkCounts {
    reconfigurations: u64,
    detected_byzantine: u64,
    screened_workers: u64,
    worker_macs: u64,
    verify_macs: u64,
    decode_macs: u64,
    cache_hits: u64,
    cache_misses: u64,
    frames: u64,
    bytes: u64,
}

impl WorkCounts {
    fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reconfigurations", self.reconfigurations),
            ("detected_byzantine", self.detected_byzantine),
            ("screened_workers", self.screened_workers),
            ("worker_macs", self.worker_macs),
            ("verify_macs", self.verify_macs),
            ("decode_macs", self.decode_macs),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("wire_frames", self.frames),
            ("wire_bytes", self.bytes),
        ]
    }
}

/// The inputs and outputs of one iteration's two rounds, kept for replays.
struct Rounds {
    round1: Vec<RoundTask<P25>>,
    outcomes1: Vec<WorkerOutcome<Vec<Fp<P25>>>>,
    round2: Vec<RoundTask<P25>>,
    outcomes2: Vec<WorkerOutcome<Vec<Fp<P25>>>>,
    /// Recovery threshold of each round when it ran.
    needed: [usize; 2],
}

/// Last arrival minus the arrival at the recovery threshold, in seconds.
fn threshold_wait(outcomes: &[WorkerOutcome<Vec<Fp<P25>>>], needed: usize) -> f64 {
    match (outcomes.get(needed.saturating_sub(1)), outcomes.last()) {
        (Some(at_threshold), Some(last)) => last.arrival_seconds - at_threshold.arrival_seconds,
        _ => 0.0,
    }
}

/// One iteration as `train_distributed` runs it, with a span around each
/// staged call when traced.
fn iterate(
    trainer: &mut DistributedTrainer<P25>,
    executor: &mut dyn Executor,
    runner: &mut WireRunner,
    iteration: usize,
    cumulative: &mut f64,
    tracer: Option<&RefCell<Tracer>>,
) -> Result<(IterationRecord, Rounds), DistributedError> {
    let needed = [
        trainer.round_min_results(TrainingRound::Round1),
        trainer.round_min_results(TrainingRound::Round2),
    ];
    let round1 = span(tracer, "core.encode_round1", || trainer.encode_round1());
    let byzantine = trainer.byzantine().clone();
    let outcomes1 = span(tracer, "core.wire_runner", || {
        runner.run_round(executor, 0, &round1, &byzantine)
    })?;
    let round2 = span(tracer, "core.collect_round1", || {
        trainer.collect_round1(&outcomes1)
    })?;
    let byzantine = trainer.byzantine().clone();
    let outcomes2 = span(tracer, "core.wire_runner", || {
        runner.run_round(executor, 1, &round2, &byzantine)
    })?;
    let record = span(tracer, "core.collect_round2", || {
        trainer.collect_round2(iteration, &outcomes2, cumulative)
    })?;
    Ok((
        record,
        Rounds {
            round1,
            outcomes1,
            round2,
            outcomes2,
            needed,
        },
    ))
}

/// Everything one rep measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    /// Latency of every timed iteration (all but the first); `+∞` for an
    /// iteration that failed or never ran because an earlier one failed.
    latencies: Vec<f64>,
    failed: u64,
    timed_wall_s: f64,
    completed_timed: u64,
    threshold_wait_s: Vec<f64>,
    weights: Option<Vec<f64>>,
    final_accuracy: f64,
    detected: Vec<usize>,
    work: WorkCounts,
    evictions: u64,
    /// Span unit of the rep's set-up and first iteration; timed iteration
    /// `i` is unit `base + i`.
    base: u64,
    last_rounds: Option<Rounds>,
    /// The code and quantization the trainer ended the rep on.
    coding: SchemeConfig,
    protocol: QuantizedProtocol,
    error: Option<String>,
}

/// Shared, seed-derived inputs of every rep.
struct Inputs {
    params: Params,
    dataset: Dataset,
    profile: ClusterProfile,
    byzantine: ByzantineSpec,
    config: TrainerConfig,
    label: &'static str,
}

fn run_rep(inputs: &Inputs, index: usize, tracer: Option<&RefCell<Tracer>>) -> Rep {
    let unit_base = index as u64 * 1_000_000;
    if let Some(tracer) = tracer {
        tracer.borrow_mut().unit = unit_base;
    }
    let iterations = inputs.params.iterations;
    let mut rep = Rep {
        traced: tracer.is_some(),
        setup_s: 0.0,
        latencies: Vec::with_capacity(iterations),
        failed: 0,
        timed_wall_s: 0.0,
        completed_timed: 0,
        threshold_wait_s: Vec::new(),
        weights: None,
        final_accuracy: 0.0,
        detected: Vec::new(),
        work: WorkCounts::default(),
        evictions: 0,
        base: unit_base,
        last_rounds: None,
        coding: inputs.config.coding,
        protocol: QuantizedProtocol::default(),
        error: None,
    };

    let started = Instant::now();
    let problem = span(tracer, "core.problem_from_dataset", || {
        TrainingProblem::from_dataset(&inputs.dataset, PARTITIONS)
    });
    let mut trainer = span(tracer, "core.trainer_new", || {
        DistributedTrainer::<P25>::new(
            problem,
            inputs.profile.clone(),
            inputs.byzantine.clone(),
            inputs.config,
            inputs.label,
        )
    });
    let spawned = span(tracer, "sim.spawn", || {
        Runtime::spawn(inputs.params.socket, inputs.profile.clone())
    });
    let mut runtime = match spawned {
        Ok(runtime) => runtime,
        Err(error) => {
            rep.failed = iterations as u64 - 1;
            rep.latencies = vec![f64::INFINITY; iterations - 1];
            rep.error = Some(format!("executor spawn failed: {error}"));
            return rep;
        }
    };
    let (records, wire_start) = match tracer {
        None => run_untraced(&mut trainer, &mut runtime, started, &mut rep),
        Some(tracer) => run_traced(&mut trainer, &mut runtime, started, tracer, &mut rep),
    };

    if rep.error.is_none() {
        rep.weights = Some(trainer.model().weights.clone());
        rep.final_accuracy = records.last().map_or(0.0, |r| r.test_accuracy);
    }
    rep.coding = *trainer.current_coding();
    rep.protocol = *trainer.protocol();
    let (cache_hits, cache_misses) = trainer.decode_cache_stats();
    rep.work = WorkCounts {
        reconfigurations: records.iter().filter(|r| r.reconfigured).count() as u64,
        detected_byzantine: records
            .iter()
            .map(|r| r.detected_byzantine.len() as u64)
            .sum(),
        screened_workers: records
            .iter()
            .map(|r| r.screened_workers.len() as u64)
            .sum(),
        worker_macs: records.iter().map(|r| r.ops.worker_macs).sum(),
        verify_macs: records.iter().map(|r| r.ops.verify_macs).sum(),
        decode_macs: records.iter().map(|r| r.ops.decode_macs).sum(),
        cache_hits,
        cache_misses,
        ..WorkCounts::default()
    };
    rep.detected = records
        .iter()
        .flat_map(|r| r.detected_byzantine.iter().copied())
        .collect();
    rep.detected.sort_unstable();
    rep.detected.dedup();
    if let (Some(start), Some(end)) = (wire_start, runtime.wire()) {
        rep.work.frames =
            end.frames_sent + end.frames_received - start.frames_sent - start.frames_received;
        rep.work.bytes =
            end.bytes_sent + end.bytes_received - start.bytes_sent - start.bytes_received;
        rep.evictions = end.evictions;
    }
    rep
}

/// An [`Executor`] that delegates every call to the runtime and stamps the
/// start of each `execute_round`. `train_distributed` runs round 1 and then
/// round 2 of every iteration, so when no round is retried the even-numbered
/// stamps mark where iterations start.
struct StampedExecutor<'a> {
    runtime: &'a mut Runtime,
    stamps: Vec<Instant>,
    /// Wire counters as iteration 1, the first timed one, starts.
    wire_at_timed: Option<SocketMetrics>,
}

impl Executor for StampedExecutor<'_> {
    fn workers(&self) -> usize {
        self.runtime.executor_ref().workers()
    }

    fn profile(&self) -> &ClusterProfile {
        self.runtime.executor_ref().profile()
    }

    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        self.runtime.executor().install_blocks(job, blocks)
    }

    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
        if self.stamps.len() == 2 {
            self.wire_at_timed = self.runtime.wire();
        }
        self.stamps.push(Instant::now());
        self.runtime.executor().execute_round(job, round, inputs)
    }

    fn round_evictions(&self) -> &[Eviction] {
        self.runtime.executor_ref().round_evictions()
    }

    fn churn_events(&self) -> &[ChurnEvent] {
        self.runtime.executor_ref().churn_events()
    }

    fn live_workers(&self) -> usize {
        self.runtime.executor_ref().live_workers()
    }
}

/// Runs a rep's iterations through `train_distributed`, the program's own
/// driver loop, timing them from the executor side: an iteration runs from
/// its round-1 `execute_round` to the next iteration's (the last one to the
/// return). Set-up ends where iteration 1 starts.
fn run_untraced(
    trainer: &mut DistributedTrainer<P25>,
    runtime: &mut Runtime,
    started: Instant,
    rep: &mut Rep,
) -> (Vec<IterationRecord>, Option<SocketMetrics>) {
    let iterations = trainer.iterations();
    let mut stamped = StampedExecutor {
        runtime,
        stamps: Vec::with_capacity(2 * iterations),
        wire_at_timed: None,
    };
    let result = train_distributed(trainer, &mut stamped);
    let returned = Instant::now();
    let mut bounds: Vec<Instant> = stamped.stamps.iter().step_by(2).copied().collect();
    let records = match result {
        Ok(report) => {
            if stamped.stamps.len() != 2 * iterations {
                rep.error = Some(format!(
                    "{} rounds ran for {iterations} iterations: a round was retried on a \
                     fleet without churn",
                    stamped.stamps.len()
                ));
            }
            bounds.push(returned);
            report.iterations
        }
        Err(error) => {
            // The last iteration that started is the one that failed.
            rep.error = Some(format!(
                "iteration {} failed: {error}",
                bounds.len().saturating_sub(1)
            ));
            Vec::new()
        }
    };
    if let Some(&iteration1) = bounds.get(1) {
        rep.setup_s = (iteration1 - started).as_secs_f64();
    }
    for window in bounds.windows(2).skip(1) {
        let seconds = (window[1] - window[0]).as_secs_f64();
        rep.latencies.push(seconds);
        rep.timed_wall_s += seconds;
        rep.completed_timed += 1;
    }
    let missing = (iterations - 1) as u64 - rep.completed_timed;
    rep.failed = missing;
    rep.latencies
        .extend(std::iter::repeat_n(f64::INFINITY, missing as usize));
    (records, stamped.wire_at_timed)
}

/// Runs a rep's iterations as the staged calls of `train_distributed`, with
/// a span around each call and around every `Executor` call.
fn run_traced(
    trainer: &mut DistributedTrainer<P25>,
    runtime: &mut Runtime,
    started: Instant,
    tracer: &RefCell<Tracer>,
    rep: &mut Rep,
) -> (Vec<IterationRecord>, Option<SocketMetrics>) {
    let iterations = trainer.iterations();
    let mut runner = WireRunner::new();
    let mut cumulative = 0.0;
    let mut wire_start = None;
    let mut records = Vec::with_capacity(iterations);
    for iteration in 0..iterations {
        tracer.borrow_mut().unit = rep.base + iteration as u64;
        let iteration_start = Instant::now();
        let mut traced = TracedExecutor {
            inner: runtime.executor(),
            tracer,
        };
        let result = span(Some(tracer), "core.iteration", || {
            iterate(
                trainer,
                &mut traced,
                &mut runner,
                iteration,
                &mut cumulative,
                Some(tracer),
            )
        });
        let seconds = iteration_start.elapsed().as_secs_f64();
        match result {
            Ok((record, rounds)) => {
                if iteration == 0 {
                    rep.setup_s = started.elapsed().as_secs_f64();
                    wire_start = runtime.wire();
                } else {
                    rep.latencies.push(seconds);
                    rep.timed_wall_s += seconds;
                    rep.completed_timed += 1;
                    rep.threshold_wait_s.push(
                        threshold_wait(&rounds.outcomes1, rounds.needed[0])
                            + threshold_wait(&rounds.outcomes2, rounds.needed[1]),
                    );
                }
                records.push(record);
                if iteration + 1 == iterations {
                    rep.last_rounds = Some(rounds);
                }
            }
            Err(error) => {
                trainer.reset_pipeline();
                let missing = (iterations - iteration.max(1)) as u64;
                rep.failed = missing;
                rep.latencies
                    .extend(std::iter::repeat_n(f64::INFINITY, missing as usize));
                rep.error = Some(format!("iteration {iteration} failed: {error}"));
                break;
            }
        }
    }
    (records, wire_start)
}

/// Runs `train-wide` or `socket-train`.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let params = Params::new(args.workload, args.seed);
    let (byzantine_worker, straggler) = faults(args.seed);
    let coding = SchemeConfig::linear(WORKERS, PARTITIONS, 2, 1)
        .expect("the paper's (12, 9, 2, 1) coding is feasible");
    let inputs = Inputs {
        dataset: Dataset::gisette_like(params.dataset),
        profile: ClusterProfile::uniform(WORKERS).with_stragglers(&[straggler], 10.0),
        byzantine: ByzantineSpec::new([byzantine_worker], AttackModel::reverse()),
        config: TrainerConfig {
            iterations: params.iterations,
            seed: args.seed,
            ..TrainerConfig::paper_defaults(SchemeKind::StaticVcc, coding)
        },
        label: args.workload.name(),
        params,
    };
    let samples = inputs.dataset.train_len() as f64;
    outcome.lines.push(format!(
        "# train: {}x{} features, {} test, scheme {}, {} iterations per rep, byzantine worker \
         {byzantine_worker} (reverse attack), straggler {straggler}, executor {}",
        inputs.dataset.train_len(),
        inputs.dataset.features(),
        inputs.dataset.test_len(),
        inputs.config.scheme.label(),
        inputs.params.iterations,
        if inputs.params.socket {
            "SocketExecutor (TCP loopback, in-process workers)"
        } else {
            "ThreadedExecutor (global pool)"
        },
    ));

    // The oracle: the same trainer run by `train()` on its built-in virtual
    // executor. Decode is exact, so every executor must reach the same bits.
    let oracle = {
        let mut trainer = DistributedTrainer::<P25>::new(
            TrainingProblem::from_dataset(&inputs.dataset, PARTITIONS),
            inputs.profile.clone(),
            inputs.byzantine.clone(),
            inputs.config,
            inputs.label,
        );
        match trainer.train() {
            Ok(report) => {
                let mut detected: Vec<usize> = report
                    .iterations
                    .iter()
                    .flat_map(|r| r.detected_byzantine.iter().copied())
                    .collect();
                detected.sort_unstable();
                detected.dedup();
                if detected != [byzantine_worker] {
                    outcome.fail(format!(
                        "train() detected {detected:?}, injected [{byzantine_worker}]"
                    ));
                }
                Some(trainer.model().weights.clone())
            }
            Err(error) => {
                outcome.fail(format!("train() failed: {error}"));
                None
            }
        }
    };

    let tracer = RefCell::new(Tracer::new(args.workload.name()));
    let loop_start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = None;
    while reps.len() < MIN_REPS + usize::from(args.trace) || loop_start.elapsed() < args.seconds {
        // A traced run alternates untraced and traced reps, so tracing
        // overhead compares reps of one process and one machine state.
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = run_rep(&inputs, reps.len(), traced.then_some(&tracer));
        reps.push(rep);
        // Later reps add allocator and thread-stack churn that grows with
        // the rep count, not with the workload.
        peak_rss = peak_rss.or_else(peak_rss_mb);
    }

    // Correctness gates and the work-identity check.
    for (index, rep) in reps.iter().enumerate() {
        if let Some(error) = &rep.error {
            outcome.fail(format!("rep {index}: {error}"));
            continue;
        }
        if let (Some(weights), Some(expected)) = (&rep.weights, &oracle) {
            let same = weights.len() == expected.len()
                && weights
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                outcome.fail(format!("rep {index}: final weights differ from train()"));
            }
        }
        if rep.detected != [byzantine_worker] {
            outcome.fail(format!(
                "rep {index}: detected Byzantine set {:?}, injected [{byzantine_worker}]",
                rep.detected
            ));
        }
    }
    let counts: Vec<_> = reps
        .iter()
        .filter(|rep| rep.error.is_none())
        .map(|rep| rep.work.named())
        .collect();
    outcome.work_identity(&counts);

    let measured: Vec<&Rep> = reps.iter().filter(|rep| !rep.traced).collect();
    let latencies: Vec<f64> = measured.iter().flat_map(|r| r.latencies.clone()).collect();
    let attempted = latencies.len() as u64;
    let failed: u64 = measured.iter().map(|r| r.failed).sum();
    outcome.attempted = attempted;
    outcome.failed = failed;
    let setup_s = median(&measured.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let p50_ms = percentile(&latencies, 50.0) * 1e3;
    let p90_ms = percentile(&latencies, 90.0) * 1e3;
    let completed: u64 = measured.iter().map(|r| r.completed_timed).sum();
    let wall: f64 = measured.iter().map(|r| r.timed_wall_s).sum();
    let samples_per_s = if wall > 0.0 {
        samples * completed as f64 / wall
    } else {
        0.0
    };
    let accuracy = measured
        .iter()
        .find(|r| r.error.is_none())
        .map_or(0.0, |r| r.final_accuracy);
    let rss = peak_rss.unwrap_or(0.0);

    let reps_note = format!("{} reps", measured.len());
    let samples_note = format!("{attempted} timed iterations");
    outcome.line("setup_s", setup_s, "s", &format!("median of {reps_note}"));
    outcome.line("iter_ms_p50", p50_ms, "ms", &samples_note);
    outcome.line("iter_ms_p90", p90_ms, "ms", &samples_note);
    outcome.line("samples_per_s", samples_per_s, "1/s", "");
    outcome.line(
        "final_test_acc",
        accuracy,
        "share",
        "bit-identical to train()",
    );
    outcome.line(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
        "",
    );
    outcome.line("peak_rss_mb", rss, "MB", "");
    outcome.set_end_to_end(setup_s, p50_ms, p90_ms, samples_per_s, rss);

    if args.trace {
        layers(&mut outcome, &inputs, &reps, &tracer.borrow());
        let file = format!("{}-seed{}.jsonl", args.workload.name(), args.seed);
        if let Err(error) = tracer.borrow().write(&args.trace_out, &file) {
            outcome.fail(format!("writing spans: {error}"));
        }
    }
    outcome
}

/// Derives the per-layer metrics from the traced reps' spans and from
/// replays on the inputs the last traced iteration captured.
fn layers(outcome: &mut Outcome, inputs: &Inputs, reps: &[Rep], tracer: &Tracer) {
    let traced: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.traced && r.error.is_none())
        .collect();
    let untraced: Vec<&Rep> = reps
        .iter()
        .filter(|r| !r.traced && r.error.is_none())
        .collect();
    let (Some(last), Some(first)) = (traced.last(), reps.first()) else {
        outcome.fail("no traced rep completed".to_string());
        return;
    };
    let rounds = last
        .last_rounds
        .as_ref()
        .expect("a completed rep keeps its last rounds");
    let totals = tracer.totals();
    let rep_len = inputs.params.iterations as u64;
    let units: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.base + 1..r.base + rep_len)
        .collect();
    let setup_units: Vec<u64> = traced.iter().map(|r| r.base).collect();
    let ms = |values: Vec<f64>| median(&values) * 1e3;
    let layers = &mut outcome.layers;

    layers.set(
        "core.encode_round1_ms",
        ms(totals.wall("core.encode_round1", &units)),
    );
    layers.set(
        "core.collect_round1_ms",
        ms(totals.wall("core.collect_round1", &units)),
    );
    layers.set(
        "core.collect_round2_ms",
        ms(totals.wall("core.collect_round2", &units)),
    );
    layers.set(
        "core.wire_runner_self_ms",
        ms(totals.own("core.wire_runner", &units)),
    );
    let iteration_wall: f64 = totals.wall("core.iteration", &units).iter().sum();
    let iteration_own: f64 = totals.own("core.iteration", &units).iter().sum();
    layers.set(
        "core.iter_unattributed_share",
        iteration_own / iteration_wall,
    );
    let work = &first.work;
    let iterations = inputs.params.iterations as f64;
    layers.set("core.reconfigurations", work.reconfigurations as f64);
    layers.set("core.detected_byzantine", work.detected_byzantine as f64);
    layers.set("core.screened_workers", work.screened_workers as f64);

    let installs: Vec<f64> = traced
        .iter()
        .map(|r| {
            let rep_units: Vec<u64> = (r.base..r.base + rep_len).collect();
            totals.wall("sim.install_blocks", &rep_units).iter().sum()
        })
        .collect();
    layers.set("sim.install_blocks_ms", median(&installs) * 1e3);
    let execute_round = totals.wall("sim.execute_round", &units);
    layers.set("sim.execute_round_ms", ms(execute_round.clone()));
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.threshold_wait_s.clone())
        .collect();
    layers.set("sim.threshold_wait_ms", ms(waits));
    if inputs.params.socket {
        layers.set(
            "sim.socket_spawn_ms",
            ms(totals.wall("sim.spawn", &setup_units)),
        );
    }

    // Kernel replays on worker 0's task (corruption is applied master-side,
    // so every worker's task computes the same kind of product).
    let round1_task = replay(REPLAYS, || rounds.round1[0].run());
    let round2_task = replay(REPLAYS, || rounds.round2[0].run());
    layers.set("linalg.round1_task_us", round1_task * 1e6);
    layers.set("linalg.round2_task_us", round2_task * 1e6);
    let threads = avcc_pool::global().parallelism() as f64;
    let task_compute =
        round1_task * rounds.round1.len() as f64 + round2_task * rounds.round2.len() as f64;
    layers.set(
        "sim.round_parallel_eff",
        task_compute / (threads * median(&execute_round)),
    );
    layers.set(
        "field.worker_macs_per_iter",
        work.worker_macs as f64 / iterations,
    );
    layers.set(
        "field.verify_macs_per_iter",
        work.verify_macs as f64 / iterations,
    );
    layers.set(
        "field.decode_macs_per_iter",
        work.decode_macs as f64 / iterations,
    );

    // Coding and verification replays on the code the trainer ended on.
    let problem = TrainingProblem::from_dataset(&inputs.dataset, PARTITIONS);
    let (coding, protocol) = (last.coding, last.protocol);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let round1_matrix = problem.round1_matrix::<P25>(&protocol);
    let round2_matrix = problem.round2_matrix::<P25>(&protocol);
    let encode = replay(3, || {
        (
            EncodedDataset::encode(&round1_matrix, coding, &mut rng),
            EncodedDataset::encode(&round2_matrix, coding, &mut rng),
        )
    });
    layers.set("coding.encode_ms", encode * 1e3);
    let honest: Vec<(usize, Vec<Fp<P25>>)> = rounds
        .outcomes1
        .iter()
        .filter(|o| !o.corrupted)
        .map(|o| (o.worker, o.payload.clone()))
        .collect();
    let decoder = LagrangeDecoder::<P25>::new(coding);
    let decode = replay(REPLAYS, || {
        decoder
            .decode_erasure(&honest[..rounds.needed[0].min(honest.len())])
            .expect("honest results decode")
    });
    layers.set("coding.decode_erasure_us", decode * 1e6);
    let claims: Vec<(usize, Vec<Fp<P25>>)> = rounds
        .outcomes1
        .iter()
        .map(|o| (o.worker, o.payload.clone()))
        .collect();
    let screen = DualCodeword::<P25>::new(coding);
    let screened = replay(REPLAYS, || screen.screen(&claims, 1, &mut rng));
    layers.set("coding.screen_us", screened * 1e6);
    layers.set("coding.basis_cache_hits", work.cache_hits as f64);
    layers.set("coding.basis_cache_misses", work.cache_misses as f64);
    let lookups = (work.cache_hits + work.cache_misses).max(1) as f64;
    layers.set(
        "coding.basis_cache_hit_ratio",
        work.cache_hits as f64 / lookups,
    );

    let keys = KeyGenConfig { repetitions: 1 };
    let keygen = replay(3, || {
        rounds
            .round1
            .iter()
            .chain(&rounds.round2)
            .map(|task| MatVecKey::generate(task.matrix(), keys, &mut rng))
            .collect::<Vec<_>>()
    });
    layers.set("verify.keygen_ms", keygen * 1e3);
    let (worker, claimed) = &honest[0];
    let task = rounds
        .round1
        .iter()
        .find(|task| task.worker == *worker)
        .expect("every outcome answers a task");
    let key = MatVecKey::generate(task.matrix(), keys, &mut rng);
    let freivalds = replay(REPLAYS, || key.verify(task.input(), claimed));
    layers.set("verify.freivalds_us", freivalds * 1e6);

    // The master's ML work per iteration.
    let model = {
        let mut model = LogisticModel::zeros(problem.features());
        model.weights = last.weights.clone().expect("a completed rep has weights");
        model
    };
    let loss = replay(5, || {
        model.evaluate_loss(&problem.train_features, &problem.train_labels)
    });
    let accuracy = replay(5, || {
        model.evaluate_accuracy(&problem.test_features, &problem.test_labels)
    });
    layers.set("ml.eval_loss_ms", loss * 1e3);
    layers.set("ml.eval_accuracy_ms", accuracy * 1e3);
    let mut z: Vec<Fp<P25>> = decoder
        .decode_erasure(&honest[..rounds.needed[0].min(honest.len())])
        .expect("honest results decode")
        .concat();
    z.truncate(problem.samples());
    let errors = protocol.error_vector(&z, &problem.train_labels);
    let quantize = replay(REPLAYS, || {
        (
            protocol.quantize_weights::<P25>(&model.weights),
            protocol.quantize_error::<P25>(&errors),
        )
    });
    layers.set("ml.quantize_us", quantize * 1e6);

    if inputs.params.socket {
        layers.set(
            "wire.bytes_per_iter",
            work.bytes as f64 / (iterations - 1.0),
        );
        layers.set(
            "wire.frames_per_iter",
            work.frames as f64 / (iterations - 1.0),
        );
        layers.set("wire.evictions", first.evictions as f64);
        // The frame codec at this iteration's payload sizes: every task frame
        // the master encodes and every result frame it decodes.
        let lower = |v: &[Fp<P25>]| v.iter().map(|x| x.to_u64()).collect::<Vec<u64>>();
        let tasks: Vec<Task> = rounds
            .round1
            .iter()
            .chain(&rounds.round2)
            .map(|task| Task {
                sleep_micros: 0,
                inputs: vec![lower(task.input())],
            })
            .collect();
        let encode = replay(REPLAYS, || {
            tasks
                .iter()
                .map(|task| task.frame(1, 1).encode())
                .collect::<Vec<_>>()
        });
        layers.set("wire.task_encode_us", encode * 1e6);
        let frames: Vec<Vec<u8>> = rounds
            .outcomes1
            .iter()
            .chain(&rounds.outcomes2)
            .map(|o| {
                TaskResult {
                    worker: o.worker as u32,
                    compute_seconds: o.compute_seconds,
                    outputs: vec![lower(&o.payload)],
                }
                .frame(1, 1)
                .encode()
            })
            .collect();
        let decode = replay(REPLAYS, || {
            frames
                .iter()
                .map(|bytes| {
                    let (frame, _) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD)
                        .expect("valid frame");
                    TaskResult::decode(&frame.payload).expect("valid result")
                })
                .collect::<Vec<_>>()
        });
        layers.set("wire.result_decode_us", decode * 1e6);
    }

    let traced_p50 = median(
        &traced
            .iter()
            .flat_map(|r| r.latencies.clone())
            .collect::<Vec<_>>(),
    );
    let untraced_p50 = median(
        &untraced
            .iter()
            .flat_map(|r| r.latencies.clone())
            .collect::<Vec<_>>(),
    );
    layers.set("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
}
