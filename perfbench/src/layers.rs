//! The per-layer metrics a traced run reports, named `<module>.<metric>`
//! after the repository's crates.
//!
//! Every traced run prints every name below. A layer a workload does not
//! exercise (the wire on `train-wide`, the ML evaluation on `serve-matvec`)
//! reads 0; README.md maps each metric to the workloads that run its layer
//! and to the end-to-end metric it should move.

use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.encode_round1_ms", "ms"),
    ("core.collect_round1_ms", "ms"),
    ("core.collect_round2_ms", "ms"),
    ("core.wire_runner_self_ms", "ms"),
    ("core.iter_unattributed_share", "share"),
    ("core.reconfigurations", "count"),
    ("core.detected_byzantine", "count"),
    ("core.screened_workers", "count"),
    ("sim.install_blocks_ms", "ms"),
    ("sim.execute_round_ms", "ms"),
    ("sim.threshold_wait_ms", "ms"),
    ("sim.round_parallel_eff", "share"),
    ("sim.socket_spawn_ms", "ms"),
    ("linalg.round1_task_us", "us"),
    ("linalg.round2_task_us", "us"),
    ("field.worker_macs_per_iter", "count"),
    ("field.verify_macs_per_iter", "count"),
    ("field.decode_macs_per_iter", "count"),
    ("coding.encode_ms", "ms"),
    ("coding.decode_erasure_us", "us"),
    ("coding.screen_us", "us"),
    ("coding.basis_cache_hits", "count"),
    ("coding.basis_cache_misses", "count"),
    ("coding.basis_cache_hit_ratio", "share"),
    ("verify.freivalds_us", "us"),
    ("verify.keygen_ms", "ms"),
    ("ml.eval_loss_ms", "ms"),
    ("ml.eval_accuracy_ms", "ms"),
    ("ml.quantize_us", "us"),
    ("wire.bytes_per_iter", "bytes"),
    ("wire.frames_per_iter", "count"),
    ("wire.evictions", "count"),
    ("wire.task_encode_us", "us"),
    ("wire.result_decode_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.fleet_busy_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-layer values a workload measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Records one metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] — a typo would otherwise
    /// silently print 0 for the real metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(known, _)| *known == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every per-layer metric as `(name, value, unit)`, 0 for layers the
    /// workload does not run.
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}
