//! The `serve-matvec` workload: bursts of AVCC coded-matmul jobs through the
//! serving `Scheduler` on a `Fleet` as wide as the machine.
//!
//! All of a burst's jobs are submitted before `Scheduler::run`, and the
//! scheduler keeps its default `max_in_flight` of them active: a closed loop
//! driven from this one thread. Jobs alternate between `m = 1` and `m = 8`
//! input vectors, because the two batch sizes use the encode and the
//! decoder's basis cache differently (`m = 1` scores no hit per miss,
//! `m = 8` scores seven).

use std::cell::RefCell;
use std::time::Instant;

use avcc_coding::{DualCodeword, EncodedDataset, LagrangeDecoder, SchemeConfig};
use avcc_core::RoundTask;
use avcc_field::{random_matrix, random_vector, Fp, P25};
use avcc_linalg::{mat_vec, Matrix};
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig, ServingReport};
use avcc_sim::metrics::ServingMetrics;
use avcc_verify::{KeyGenConfig, MatVecKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, percentile, replay, reset_peak_rss, rss_mb};
use crate::trace::{span, Tracer};
use crate::Args;

/// Matrix rows of every job.
const ROWS: usize = 1800;
/// Matrix columns of every job.
const COLS: usize = 900;
/// Jobs per burst: enough that the 90th percentile has ten jobs beyond it.
const BURST_JOBS: usize = 100;
/// Distinct `(matrix, inputs)` pairs the jobs cycle through; job `j` uses
/// template `j % TEMPLATES`, so expected outputs are computed once per run.
const TEMPLATES: usize = 4;
/// Fewest bursts a run makes, so `setup_s` is a median of several set-ups.
const MIN_BURSTS: usize = 3;
/// Timed calls per replayed kernel.
const REPLAYS: usize = 15;

/// One job shape: the matrix, its inputs and their exact products.
struct Template {
    matrix: Matrix<Fp<P25>>,
    inputs: Vec<Vec<Fp<P25>>>,
    expected: Vec<Vec<Fp<P25>>>,
}

fn templates(seed: u64) -> Vec<Template> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..TEMPLATES)
        .map(|t| {
            let matrix =
                Matrix::from_vec(ROWS, COLS, random_matrix::<P25, _>(&mut rng, ROWS, COLS));
            let functions = if t % 2 == 0 { 1 } else { 8 };
            let inputs: Vec<Vec<Fp<P25>>> = (0..functions)
                .map(|_| random_vector::<P25, _>(&mut rng, COLS))
                .collect();
            let expected = inputs.iter().map(|x| mat_vec(&matrix, x)).collect();
            Template {
                matrix,
                inputs,
                expected,
            }
        })
        .collect()
}

/// The paper's `(N = 12, K = 9, S = 2, M = 1)` coding every job uses.
fn coding() -> SchemeConfig {
    SchemeConfig::linear(12, 9, 2, 1).expect("the paper's (12, 9, 2, 1) coding is feasible")
}

/// Counts that must repeat exactly across bursts of one seed.
fn work_counts(metrics: &ServingMetrics) -> Vec<(&'static str, u64)> {
    vec![
        ("jobs_completed", metrics.jobs_completed as u64),
        ("jobs_failed", metrics.jobs_failed as u64),
        ("rounds", metrics.rounds_total as u64),
        ("worker_macs", metrics.ops.worker_macs),
        ("verify_macs", metrics.ops.verify_macs),
        ("decode_macs", metrics.ops.decode_macs),
        ("cache_hits", metrics.decode_cache_hits),
        ("cache_misses", metrics.decode_cache_misses),
        ("screened_workers", metrics.screened_workers),
    ]
}

/// Everything one burst measured.
struct Burst {
    traced: bool,
    setup_s: f64,
    /// Peak resident memory during `Scheduler::run` above the resident
    /// memory right after submit, which holds the burst's queued inputs.
    run_rss_mb: Option<f64>,
    report: ServingReport<P25>,
}

fn run_burst(
    templates: &[Template],
    seed: u64,
    width: usize,
    index: usize,
    tracer: Option<&RefCell<Tracer>>,
) -> Burst {
    if let Some(tracer) = tracer {
        tracer.borrow_mut().unit = index as u64;
    }
    // The job specs are the burst's input, like a training dataset: each
    // owns a copy of its matrix, so building them stays outside set-up.
    let specs: Vec<JobSpec<P25>> = (0..BURST_JOBS)
        .map(|job| {
            let template = &templates[job % TEMPLATES];
            JobSpec::matmul(template.matrix.clone(), template.inputs[0].clone())
                .with_batch(template.inputs.clone())
                .with_scheme(coding())
                .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(job as u64))
                .build()
        })
        .collect();
    let started = Instant::now();
    let fleet = span(tracer, "serve.fleet_new", || Fleet::new(width));
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig {
        queue_capacity: BURST_JOBS,
        ..SchedulerConfig::default()
    });
    span(tracer, "serve.submit", || {
        for spec in specs {
            scheduler
                .submit(spec)
                .expect("the queue holds a whole burst");
        }
    });
    let setup_s = started.elapsed().as_secs_f64();
    let submitted_rss = reset_peak_rss().then(rss_mb).flatten();
    let report = span(tracer, "serve.run", || scheduler.run(&fleet));
    let run_rss_mb = submitted_rss
        .zip(peak_rss_mb())
        .map(|(submitted, peak)| peak - submitted);
    Burst {
        traced: tracer.is_some(),
        setup_s,
        run_rss_mb,
        report,
    }
}

/// Runs `serve-matvec`.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let width = std::thread::available_parallelism().map_or(1, usize::from);
    let templates = templates(args.seed);
    outcome.lines.push(format!(
        "# serve: {BURST_JOBS} jobs per burst, {ROWS}x{COLS} on P25, coding {}, m alternating 1 \
         and 8, fleet width {width}, max_in_flight {}",
        coding(),
        SchedulerConfig::default().max_in_flight,
    ));

    let tracer = RefCell::new(Tracer::new(args.workload.name()));
    let loop_start = Instant::now();
    let mut bursts: Vec<Burst> = Vec::new();
    while bursts.len() < MIN_BURSTS + usize::from(args.trace) || loop_start.elapsed() < args.seconds
    {
        // A traced run alternates untraced and traced bursts.
        let traced = args.trace && bursts.len() % 2 == 1;
        let burst = run_burst(
            &templates,
            args.seed,
            width,
            bursts.len(),
            traced.then_some(&tracer),
        );
        bursts.push(burst);
    }

    // Correctness: every job's outputs equal the direct products.
    for (index, burst) in bursts.iter().enumerate() {
        if burst.report.jobs.len() != BURST_JOBS {
            outcome.fail(format!(
                "burst {index}: {} of {BURST_JOBS} jobs reported",
                burst.report.jobs.len()
            ));
        }
        for job in &burst.report.jobs {
            let expected = &templates[job.id % TEMPLATES].expected;
            let correct = match &job.output {
                JobOutput::MatVec(output) => expected.len() == 1 && *output == expected[0],
                JobOutput::MatVecBatch(outputs) => outputs == expected,
                // The fleet has no churn and no straggler, so a job can only
                // fail through a defect: it is counted in `failed` and fails
                // the run.
                JobOutput::Failed(_) => {
                    outcome.fail(format!("burst {index}, job {}: failed", job.id));
                    true
                }
                JobOutput::Training(_) => false,
            };
            if !correct {
                outcome.fail(format!(
                    "burst {index}, job {}: outputs differ from the direct product",
                    job.id
                ));
            }
        }
    }
    let counts: Vec<_> = bursts
        .iter()
        .map(|burst| work_counts(&burst.report.metrics))
        .collect();
    outcome.work_identity(&counts);

    let measured: Vec<&Burst> = bursts.iter().filter(|b| !b.traced).collect();
    let latencies = job_latencies(&measured);
    let failed: usize = measured.iter().map(|b| b.report.metrics.jobs_failed).sum();
    outcome.attempted = latencies.len() as u64;
    outcome.failed = failed as u64;
    let setup_s = median(&measured.iter().map(|b| b.setup_s).collect::<Vec<_>>());
    let p50_ms = percentile(&latencies, 50.0) * 1e3;
    let p90_ms = percentile(&latencies, 90.0) * 1e3;
    let completed: usize = measured
        .iter()
        .map(|b| b.report.metrics.jobs_completed)
        .sum();
    let span_s: f64 = measured.iter().map(|b| b.report.metrics.span_seconds).sum();
    let jobs_per_s = completed as f64 / span_s;
    // Later bursts reuse heap that earlier bursts left resident, so their
    // growth reads lower and varies; the first burst starts from a fresh heap.
    let rss = bursts[0].run_rss_mb.unwrap_or(0.0);

    let samples_note = format!("{} jobs", latencies.len());
    outcome.line(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {} bursts", measured.len()),
    );
    outcome.line("jobs_per_s", jobs_per_s, "1/s", "");
    outcome.line("job_ms_p50", p50_ms, "ms", &samples_note);
    outcome.line("job_ms_p90", p90_ms, "ms", &samples_note);
    outcome.line(
        "failed_share",
        failed as f64 / latencies.len().max(1) as f64,
        "share",
        "",
    );
    outcome.line(
        "peak_rss_mb",
        rss,
        "MB",
        "first burst: peak during Scheduler::run above the resident set after submit",
    );
    outcome.set_end_to_end(setup_s, p50_ms, p90_ms, jobs_per_s, rss);

    if args.trace {
        layers(&mut outcome, &templates, &bursts);
        let file = format!("{}-seed{}.jsonl", args.workload.name(), args.seed);
        if let Err(error) = tracer.borrow().write(&args.trace_out, &file) {
            outcome.fail(format!("writing spans: {error}"));
        }
    }
    outcome
}

/// Admission-to-completion seconds of every job; `+∞` for a failed one.
fn job_latencies(bursts: &[&Burst]) -> Vec<f64> {
    bursts
        .iter()
        .flat_map(|b| &b.report.jobs)
        .map(|job| {
            if job.output.is_failed() {
                f64::INFINITY
            } else {
                job.metrics.active_seconds
            }
        })
        .collect()
}

/// Per-layer metrics: the serving layer's own accounting, and replays of
/// one job's coding, verification and worker kernels.
fn layers(outcome: &mut Outcome, templates: &[Template], bursts: &[Burst]) {
    let traced: Vec<&Burst> = bursts.iter().filter(|b| b.traced).collect();
    let work = &bursts[0].report.metrics;
    let untraced: Vec<&Burst> = bursts.iter().filter(|b| !b.traced).collect();
    let layers = &mut outcome.layers;

    let jobs = (work.jobs_completed + work.jobs_failed).max(1) as f64;
    layers.set("core.screened_workers", work.screened_workers as f64);
    layers.set(
        "field.worker_macs_per_iter",
        work.ops.worker_macs as f64 / jobs,
    );
    layers.set(
        "field.verify_macs_per_iter",
        work.ops.verify_macs as f64 / jobs,
    );
    layers.set(
        "field.decode_macs_per_iter",
        work.ops.decode_macs as f64 / jobs,
    );
    let (hits, misses) = (work.decode_cache_hits, work.decode_cache_misses);
    layers.set("coding.basis_cache_hits", hits as f64);
    layers.set("coding.basis_cache_misses", misses as f64);
    layers.set(
        "coding.basis_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|b| &b.report.jobs)
        .map(|job| job.metrics.queue_wait_seconds)
        .collect();
    layers.set("serve.queue_wait_ms_p50", median(&waits) * 1e3);
    let busy: f64 = traced
        .iter()
        .map(|b| b.report.metrics.busy_worker_seconds)
        .sum();
    let capacity: f64 = traced
        .iter()
        .map(|b| b.report.metrics.fleet_width as f64 * b.report.metrics.span_seconds)
        .sum();
    layers.set("serve.fleet_busy_share", busy / capacity);

    // Replays of one m = 1 job's stages on its template.
    let template = &templates[0];
    let input = &template.inputs[0];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let encode = replay(5, || {
        EncodedDataset::encode(&template.matrix, coding(), &mut rng)
    });
    layers.set("coding.encode_ms", encode * 1e3);
    let dataset = EncodedDataset::encode(&template.matrix, coding(), &mut rng);
    let keys = KeyGenConfig { repetitions: 1 };
    let keygen = replay(5, || {
        dataset
            .shares()
            .iter()
            .map(|share| MatVecKey::generate(share, keys, &mut rng))
            .collect::<Vec<_>>()
    });
    layers.set("verify.keygen_ms", keygen * 1e3);
    let shared_input = std::sync::Arc::new(input.clone());
    let tasks: Vec<RoundTask<P25>> = dataset
        .shares()
        .iter()
        .enumerate()
        .map(|(worker, share)| RoundTask::new(worker, share.clone(), shared_input.clone()))
        .collect();
    layers.set(
        "linalg.round1_task_us",
        replay(REPLAYS, || tasks[0].run()) * 1e6,
    );
    let results: Vec<(usize, Vec<Fp<P25>>)> = tasks.iter().map(|t| (t.worker, t.run())).collect();
    let key = MatVecKey::generate(dataset.share(0), keys, &mut rng);
    let freivalds = replay(REPLAYS, || key.verify(input, &results[0].1));
    layers.set("verify.freivalds_us", freivalds * 1e6);
    let screen = DualCodeword::<P25>::new(coding());
    let screened = replay(REPLAYS, || screen.screen(&results, 1, &mut rng));
    layers.set("coding.screen_us", screened * 1e6);
    let decoder = LagrangeDecoder::<P25>::new(coding());
    let threshold = dataset.recovery_threshold();
    let decode = replay(REPLAYS, || {
        decoder
            .decode_erasure(&results[..threshold])
            .expect("honest results decode")
    });
    layers.set("coding.decode_erasure_us", decode * 1e6);

    let traced_p50 = median(&job_latencies(&traced));
    let untraced_p50 = median(&job_latencies(&untraced));
    layers.set("trace.overhead_share", traced_p50 / untraced_p50 - 1.0);
}
