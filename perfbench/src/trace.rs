//! Spans recorded from outside the program: around the benchmark's calls
//! into each crate's public functions, and around every `Executor` call
//! through [`TracedExecutor`], a delegating implementation of the trait.
//!
//! Spans stay in memory and are written out as JSON lines when the run ends.
//! All spans come from the benchmark's main thread, so they nest strictly and a
//! stack gives each its parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Eviction, Executor, ExecutorError, WorkerOutcome};
use avcc_sim::wire::Block;
use avcc_sim::ChurnEvent;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, as `<module>.<call>`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The training iteration or serving burst the span belongs to.
    pub unit: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Iteration (or burst) id stamped on spans opened from now on.
    pub unit: u64,
}

impl Tracer {
    /// An empty tracer for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: usize) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(index), "spans must nest");
        self.spans[index].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Per `(name, unit)`: the summed wall seconds of those spans, and their
    /// summed self time — what each covers minus its direct children.
    pub fn totals(&self) -> Totals {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.seconds();
            }
        }
        let mut totals = Totals::default();
        for (span, covered) in self.spans.iter().zip(children) {
            let entry = totals.0.entry((span.name, span.unit)).or_default();
            entry.0 += span.seconds();
            entry.1 += span.seconds() - covered;
        }
        totals
    }

    /// Writes every span as one JSON line to `dir/<file>`.
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join(file))?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \
                 \"parent\": {parent}, \"workload\": \"{}\", \"unit\": {}}}",
                span.name, span.start, span.end, self.workload, span.unit
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span called `name` when a tracer is given, and plainly
/// otherwise, so the traced and untraced runs share one code path.
pub fn span<T>(tracer: Option<&RefCell<Tracer>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(tracer) => {
            let index = tracer.borrow_mut().begin(name);
            let value = f();
            tracer.borrow_mut().end(index);
            value
        }
    }
}

/// Summed `(wall, self)` seconds per `(span name, unit)`.
#[derive(Debug, Default)]
pub struct Totals(BTreeMap<(&'static str, u64), (f64, f64)>);

impl Totals {
    /// Summed wall seconds of the `name` spans of each unit in `units`.
    pub fn wall(&self, name: &'static str, units: &[u64]) -> Vec<f64> {
        units
            .iter()
            .map(|&unit| self.0.get(&(name, unit)).map_or(0.0, |t| t.0))
            .collect()
    }

    /// Summed self seconds of the `name` spans of each unit in `units`.
    pub fn own(&self, name: &'static str, units: &[u64]) -> Vec<f64> {
        units
            .iter()
            .map(|&unit| self.0.get(&(name, unit)).map_or(0.0, |t| t.1))
            .collect()
    }
}

/// An [`Executor`] that delegates every call to `inner` and records a span
/// around block installs and rounds.
pub struct TracedExecutor<'a> {
    /// The executor under test.
    pub inner: &'a mut dyn Executor,
    /// Where the spans go.
    pub tracer: &'a RefCell<Tracer>,
}

impl Executor for TracedExecutor<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn profile(&self) -> &ClusterProfile {
        self.inner.profile()
    }

    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        span(Some(self.tracer), "sim.install_blocks", || {
            self.inner.install_blocks(job, blocks)
        })
    }

    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
        span(Some(self.tracer), "sim.execute_round", || {
            self.inner.execute_round(job, round, inputs)
        })
    }

    fn round_evictions(&self) -> &[Eviction] {
        self.inner.round_evictions()
    }

    fn churn_events(&self) -> &[ChurnEvent] {
        self.inner.churn_events()
    }

    fn live_workers(&self) -> usize {
        self.inner.live_workers()
    }
}
