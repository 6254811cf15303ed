//! The Lagrange / MDS decoder (paper §IV-B, step 4).
//!
//! Workers return `Ỹ_i = f(X̃_i) = f(u(α_i))`, i.e. evaluations of the
//! composed polynomial `f(u(z))` of degree at most `(K+T−1)·deg f`. The master
//! recovers the desired outputs `Y_k = f(X_k) = f(u(β_k))` by interpolation.
//! Two decoding modes are provided:
//!
//! * [`LagrangeDecoder::decode_erasure`] — what **AVCC** uses: every supplied
//!   result has already passed Freivalds verification, so the decoder only
//!   needs the recovery threshold `(K+T−1)·deg f + 1` of them and performs a
//!   plain coordinate-wise interpolation (implemented as one linear
//!   combination per output block, with coefficients shared across all
//!   coordinates).
//! * [`LagrangeDecoder::decode_with_errors`] — what the **LCC baseline**
//!   uses: up to `max_errors` of the supplied results may be arbitrary
//!   garbage. The decoder first *locates* the corrupted workers by running
//!   Berlekamp–Welch on a random-linear-combination fingerprint of each
//!   worker's vector (a corrupted vector produces a wrong fingerprint with
//!   probability at least `1 − deg/q`), then erasure-decodes from the
//!   remaining workers. The located workers are reported so the caller can
//!   mark them Byzantine. An exhaustive per-coordinate Berlekamp–Welch
//!   fallback is used if the fingerprint pass fails to produce a consistent
//!   codeword.
//!
//! When the evaluation points are in subgroup position (NTT-friendly field,
//! see [`crate::points::EvaluationPoints::subgroup`]) erasure decoding stays
//! on a fast path regardless of who responded:
//!
//! * **Every worker present** and `N` filling the covering coset: one
//!   full-coset inverse NTT, a fold modulo `z^B − 1` and one forward NTT —
//!   `O(N log N)` per coordinate.
//! * **Workers missing** (stragglers, evicted Byzantine workers): the
//!   surviving α-points are no longer a full coset, so the decoder
//!   interpolates `f(u)` from the survivor subset with a subproduct tree
//!   ([`avcc_poly::TreeInterpolator`], `O(R log² R)` per coordinate), then
//!   folds and forward-NTTs to the β-points exactly like the full-coset
//!   path. The tree, its vanishing-derivative weights and their shared batch
//!   inversion depend only on *which* workers survived, so they are cached
//!   per survivor set (consecutive rounds straggle the same workers far more
//!   often than not).
//!
//! The dense Lagrange combination ([`LagrangeDecoder::decode_erasure_lagrange`])
//! remains as the non-NTT-field path and as the correctness oracle — both
//! paths are bit-identical on every input (exact field arithmetic), which the
//! tests assert directly.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use avcc_field::{dot, random_vector, Fp, PrimeField, PrimeModulus};
use avcc_poly::{BerlekampWelch, LagrangeBasis, NttPlan, RsDecodeError, TreeInterpolator};
use rand::Rng;

use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Errors raised during decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer results than the recovery threshold (erasure mode) or than the
    /// threshold plus `2·max_errors` (error-correcting mode).
    NotEnoughResults {
        /// Results provided.
        provided: usize,
        /// Results required.
        required: usize,
    },
    /// The same worker index appears twice.
    DuplicateWorker {
        /// The repeated worker index.
        worker: usize,
    },
    /// A worker index outside `[0, N)`.
    UnknownWorker {
        /// The offending index.
        worker: usize,
    },
    /// Result vectors disagree in length.
    ShapeMismatch,
    /// Error-correcting decoding could not find a consistent codeword within
    /// the error budget.
    TooManyErrors,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NotEnoughResults { provided, required } => {
                write!(
                    f,
                    "not enough results: {provided} provided, {required} required"
                )
            }
            DecodeError::DuplicateWorker { worker } => {
                write!(f, "worker {worker} supplied more than one result")
            }
            DecodeError::UnknownWorker { worker } => write!(f, "unknown worker index {worker}"),
            DecodeError::ShapeMismatch => write!(f, "result vectors disagree in length"),
            DecodeError::TooManyErrors => {
                write!(
                    f,
                    "could not find a consistent codeword within the error budget"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The result of error-correcting decoding: the `K` output blocks plus the
/// worker indices identified as corrupted.
pub type DecodedWithErrors<M> = (Vec<Vec<Fp<M>>>, Vec<usize>);

/// The cached NTT plans of a decoder whose points are in subgroup position.
#[derive(Debug, Clone)]
struct DecoderNtt<M: PrimeModulus> {
    /// Inverse transform over the α-coset subgroup (size `A`): worker values
    /// → coefficients of `f(u)` (after undoing the coset shift). Present
    /// only when `N` fills the covering subgroup — the full-coset path needs
    /// an evaluation at *every* coset point.
    interpolate: Option<NttPlan<M>>,
    /// Forward transform over the β-subgroup (size `K + T`): folded
    /// coefficients → outputs at the β-points. Shared by the full-coset and
    /// the partial (subproduct-tree) paths.
    evaluate: NttPlan<M>,
}

/// Entries the decoder caches per surviving-worker set: everything about a
/// decode that depends only on *which* workers supplied results, not on the
/// values they returned.
#[derive(Debug)]
enum CachedBasis<M: PrimeModulus> {
    /// Dense Lagrange combination rows (the fallback/oracle path).
    Dense(DenseBasis<M>),
    /// Subproduct-tree interpolator over the survivor α-points (the partial
    /// NTT path).
    Tree(TreeInterpolator<M>),
}

/// The dense path's cached shape: systematic hits plus one Lagrange
/// coefficient row per interpolated block, all in sorted-survivor order.
#[derive(Debug)]
struct DenseBasis<M: PrimeModulus> {
    /// For each data block `k`: the sorted-survivor position of a worker
    /// sitting exactly on `β_k` (its vector *is* the output), if any.
    systematic: Vec<Option<usize>>,
    /// `ℓ_j(β_k)` rows for the non-systematic blocks, ascending `k`.
    rows: Vec<Vec<Fp<M>>>,
}

/// Basis cache keyed by `(tree_path, sorted surviving workers)` with hit
/// accounting. Bounded: at [`BASIS_CACHE_CAPACITY`] distinct survivor sets
/// the cache is cleared (straggler patterns at scale are heavily repetitive,
/// so churn past the bound means the patterns are random and caching is
/// hopeless anyway).
#[derive(Debug)]
struct BasisCache<M: PrimeModulus> {
    entries: HashMap<(bool, Vec<usize>), Arc<CachedBasis<M>>>,
    hits: u64,
    misses: u64,
}

impl<M: PrimeModulus> Default for BasisCache<M> {
    fn default() -> Self {
        BasisCache {
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

/// Distinct survivor sets held before the basis cache resets.
const BASIS_CACHE_CAPACITY: usize = 32;

/// The decoder bound to a scheme configuration and its evaluation points.
#[derive(Debug)]
pub struct LagrangeDecoder<M: PrimeModulus> {
    config: SchemeConfig,
    points: EvaluationPoints<M>,
    /// Cached transforms for the NTT fast paths (`None` → points not in
    /// subgroup position, always the dense Lagrange path).
    ntt: Option<DecoderNtt<M>>,
    /// Per-survivor-set interpolation state (see [`BasisCache`]); interior
    /// mutability because decoding takes `&self`.
    cache: Mutex<BasisCache<M>>,
}

impl<M: PrimeModulus> Clone for LagrangeDecoder<M> {
    /// Clones the decoder configuration; the basis cache starts empty (it is
    /// a pure accelerator, rebuilt on demand).
    fn clone(&self) -> Self {
        LagrangeDecoder {
            config: self.config,
            points: self.points.clone(),
            ntt: self.ntt.clone(),
            cache: Mutex::new(BasisCache::default()),
        }
    }
}

impl<M: PrimeModulus> LagrangeDecoder<M> {
    /// Creates a decoder using the automatically selected evaluation points
    /// for `config` — [`EvaluationPoints::auto`] is deterministic, so this
    /// matches the points an independently constructed
    /// [`crate::encoder::LagrangeEncoder`] picks.
    pub fn new(config: SchemeConfig) -> Self {
        Self::with_points(
            config,
            EvaluationPoints::<M>::auto(config.partitions, config.colluding, config.workers),
        )
    }

    /// Creates a decoder on explicitly chosen evaluation points (must match
    /// the encoder's).
    ///
    /// # Panics
    /// Panics if the point counts disagree with the configuration.
    pub fn with_points(config: SchemeConfig, points: EvaluationPoints<M>) -> Self {
        assert_eq!(
            points.beta().len(),
            config.partitions + config.colluding,
            "need one β-point per data block and pad"
        );
        assert_eq!(
            points.alpha().len(),
            config.workers,
            "need one α-point per worker"
        );
        // The β-side forward transform works whenever the points are in
        // subgroup position; the full-coset inverse NTT additionally needs an
        // evaluation at *every* coset point, so that plan only exists when
        // the worker count fills the covering subgroup exactly (N a power of
        // two).
        let ntt = points.ntt_layout().map(|layout| DecoderNtt {
            interpolate: (layout.workers() == config.workers)
                .then(|| NttPlan::new(layout.log_workers)),
            evaluate: NttPlan::new(layout.log_blocks),
        });
        LagrangeDecoder {
            config,
            points,
            ntt,
            cache: Mutex::new(BasisCache::default()),
        }
    }

    /// `true` iff this decoder can take the full-coset `O(N log N)` NTT path
    /// (subgroup points and `N` filling the covering subgroup); with results
    /// missing it drops to the partial subproduct-tree path instead.
    pub fn supports_ntt(&self) -> bool {
        self.ntt
            .as_ref()
            .is_some_and(|ntt| ntt.interpolate.is_some())
    }

    /// `true` iff this decoder can take the partial `O(R log² R)`
    /// subproduct-tree path when workers are missing (points in subgroup
    /// position — the β-side forward NTT is what the fold needs).
    pub fn supports_partial_ntt(&self) -> bool {
        self.ntt.is_some()
    }

    /// Cache accounting for the per-survivor-set interpolation state:
    /// `(hits, misses)` since construction. A repeated straggler pattern
    /// must hit (tested), so at steady state `hits` grows and `misses`
    /// stays put.
    pub fn basis_cache_stats(&self) -> (u64, u64) {
        let cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (cache.hits, cache.misses)
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The recovery threshold `(K+T−1)·deg f + 1`.
    pub fn recovery_threshold(&self) -> usize {
        self.config.recovery_threshold()
    }

    /// Erasure decoding from verified results.
    ///
    /// `results` maps worker indices to their returned vectors `Ỹ_i`; at least
    /// the recovery threshold of them must be present. Returns the `K` output
    /// blocks `Y_1, …, Y_K` (each the same length as the worker vectors).
    pub fn decode_erasure(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
    ) -> Result<Vec<Vec<Fp<M>>>, DecodeError> {
        let threshold = self.recovery_threshold();
        self.validate(results, threshold)?;
        if let Some(ntt) = &self.ntt {
            // Full-coset fast path: every worker responded (validate has
            // already established distinctness, so `N` results = all of
            // them), and `N` fills the covering subgroup.
            if ntt.interpolate.is_some() && results.len() == self.config.workers {
                return Ok(self.decode_erasure_full_coset(results));
            }
            // Partial fast path: workers are missing (or never filled the
            // coset), but the points are still in subgroup position —
            // subproduct-tree interpolation from the surviving subset.
            return Ok(self.decode_erasure_tree(&results[..threshold], ntt));
        }
        Ok(self.decode_erasure_dense(&results[..threshold]))
    }

    /// The dense Lagrange combination on exactly `threshold` results — the
    /// non-NTT-field path, kept public as the correctness oracle for the
    /// NTT paths (bit-identical outputs, asserted in tests) and as the
    /// comparator the `decode_straggler` benches gate against.
    ///
    /// Accepts the same inputs as [`LagrangeDecoder::decode_erasure`] and
    /// shares its per-survivor-set cache.
    pub fn decode_erasure_lagrange(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
    ) -> Result<Vec<Vec<Fp<M>>>, DecodeError> {
        let threshold = self.recovery_threshold();
        self.validate(results, threshold)?;
        Ok(self.decode_erasure_dense(&results[..threshold]))
    }

    /// Sorts selected results by worker index: the cache key must not depend
    /// on arrival order, so every per-survivor-set structure (and the
    /// combination that consumes it) uses this canonical order.
    fn sorted_by_worker(selected: &[(usize, Vec<Fp<M>>)]) -> Vec<&(usize, Vec<Fp<M>>)> {
        let mut ordered: Vec<&(usize, Vec<Fp<M>>)> = selected.iter().collect();
        ordered.sort_unstable_by_key(|(worker, _)| *worker);
        ordered
    }

    /// Fetches (or builds and caches) the per-survivor-set interpolation
    /// state for the given canonicalized selection.
    fn basis_for(&self, ordered: &[&(usize, Vec<Fp<M>>)], tree: bool) -> Arc<CachedBasis<M>> {
        let workers: Vec<usize> = ordered.iter().map(|(worker, _)| *worker).collect();
        {
            let mut cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(hit) = cache.entries.get(&(tree, workers.clone())) {
                let hit = Arc::clone(hit);
                cache.hits += 1;
                return hit;
            }
            cache.misses += 1;
        }
        // Build outside the lock: concurrent first decodes of the same
        // pattern may both build (harmless), but no decode ever blocks on
        // another's basis construction.
        let alphas: Vec<Fp<M>> = workers.iter().map(|&w| self.points.alpha()[w]).collect();
        let built = Arc::new(if tree {
            CachedBasis::Tree(TreeInterpolator::new(alphas))
        } else {
            CachedBasis::Dense(self.build_dense_basis(&alphas))
        });
        let mut cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if cache.entries.len() >= BASIS_CACHE_CAPACITY {
            cache.entries.clear();
        }
        cache.entries.insert((tree, workers), Arc::clone(&built));
        built
    }

    /// Builds the dense path's cached shape: systematic hits and the
    /// Lagrange rows for the interpolated blocks. One basis construction
    /// (with its batch-inverted barycentric weights) and one shared
    /// `evaluate_at_many` batch inversion cover all `K` blocks.
    fn build_dense_basis(&self, alphas: &[Fp<M>]) -> DenseBasis<M> {
        let basis = LagrangeBasis::new(alphas.to_vec());
        // Systematic fast path per block: a selected worker sitting exactly
        // on β_k already holds the output.
        let systematic: Vec<Option<usize>> = (0..self.config.partitions)
            .map(|k| {
                let beta = self.points.beta()[k];
                alphas.iter().position(|&alpha| alpha == beta)
            })
            .collect();
        let interpolated_betas: Vec<Fp<M>> = systematic
            .iter()
            .enumerate()
            .filter(|(_, hit)| hit.is_none())
            .map(|(k, _)| self.points.beta()[k])
            .collect();
        let rows = basis.evaluate_at_many(&interpolated_betas);
        DenseBasis { systematic, rows }
    }

    /// The dense `O(K·R)`-per-coordinate combination over exactly
    /// `threshold` results, with its basis rows cached per survivor set.
    fn decode_erasure_dense(&self, selected: &[(usize, Vec<Fp<M>>)]) -> Vec<Vec<Fp<M>>> {
        let ordered = Self::sorted_by_worker(selected);
        let basis = self.basis_for(&ordered, false);
        let CachedBasis::Dense(dense) = &*basis else {
            unreachable!("dense decode fetched a dense basis");
        };
        let width = ordered[0].1.len();
        let mut basis_rows = dense.rows.iter();
        let mut outputs = Vec::with_capacity(self.config.partitions);
        for hit in &dense.systematic {
            if let Some(position) = hit {
                outputs.push(ordered[*position].1.clone());
                continue;
            }
            let coefficients = basis_rows
                .next()
                .expect("one basis row per interpolated β-point");
            // One lazy-reduction pass over the selected workers: the
            // accumulator lanes absorb one product per worker and reduce
            // once at the end.
            let mut block = avcc_field::WideAccumulator::<M>::new(width);
            for ((_, vector), &coefficient) in ordered.iter().zip(coefficients.iter()) {
                if coefficient == Fp::<M>::ZERO {
                    continue;
                }
                block.axpy(coefficient, vector);
            }
            outputs.push(block.finish());
        }
        outputs
    }

    /// The partial `O(R log² R)`-per-coordinate fast path (points in
    /// subgroup position, workers missing): interpolate `P = f(u)` from the
    /// surviving α-subset with the cached subproduct tree (vector lanes —
    /// every coordinate in one tree pass), then fold the coefficients modulo
    /// `z^B − 1` and forward-NTT over the β-subgroup exactly like the
    /// full-coset path.
    fn decode_erasure_tree(
        &self,
        selected: &[(usize, Vec<Fp<M>>)],
        ntt: &DecoderNtt<M>,
    ) -> Vec<Vec<Fp<M>>> {
        let ordered = Self::sorted_by_worker(selected);
        let basis = self.basis_for(&ordered, true);
        let CachedBasis::Tree(interpolator) = &*basis else {
            unreachable!("tree decode fetched a tree basis");
        };
        let lanes: Vec<&[Fp<M>]> = ordered
            .iter()
            .map(|(_, vector)| vector.as_slice())
            .collect();
        let width = lanes[0].len();
        let mut coefficients = interpolator.interpolate_vectors(&lanes).into_iter();
        // Fold modulo z^B − 1 (exact: every β-point satisfies z^B = 1). The
        // recovery threshold (K+T−1)·deg f + 1 is at least B = K+T, so the
        // first B coefficient lanes always exist.
        let blocks = ntt.evaluate.len();
        let mut folded: Vec<Vec<Fp<M>>> = coefficients.by_ref().take(blocks).collect();
        debug_assert_eq!(folded.len(), blocks);
        for (m, lane) in coefficients.enumerate() {
            let target = &mut folded[m % blocks];
            for (slot, value) in target.iter_mut().zip(lane) {
                *slot += value;
            }
        }
        ntt.evaluate.forward_vectors(&mut folded);
        folded.truncate(self.config.partitions);
        debug_assert!(folded.iter().all(|lane| lane.len() == width));
        folded
    }

    /// The `O(N log N)`-per-coordinate fast path: interpolate `P = f(u)` from
    /// the full α-coset with one inverse NTT, fold the coefficients modulo
    /// `z^B − 1` (exact, because every β-point satisfies `z^B = 1`) and
    /// evaluate at all β-points with one forward NTT over the subgroup.
    fn decode_erasure_full_coset(&self, results: &[(usize, Vec<Fp<M>>)]) -> Vec<Vec<Fp<M>>> {
        let ntt = self.ntt.as_ref().expect("caller checked the fast path");
        let interpolate = ntt
            .interpolate
            .as_ref()
            .expect("caller checked the full-coset plan");
        let layout = self
            .points
            .ntt_layout()
            .expect("NTT plans imply a subgroup layout");
        let width = results[0].1.len();
        // Scatter results into coset order: worker i sits at α_i = g·ω_A^i.
        let mut lanes: Vec<Vec<Fp<M>>> = vec![Vec::new(); self.config.workers];
        for (worker, vector) in results {
            lanes[*worker] = vector.clone();
        }
        // Coefficients of P in the coset basis: INTT gives p_k·g^k, undone by
        // scaling with g^{-1} powers.
        interpolate.inverse_vectors(&mut lanes);
        interpolate.coset_scale_vectors(&mut lanes, layout.shift.inverse());
        // Fold modulo z^B − 1: coefficient m contributes to residue m mod B.
        let blocks = ntt.evaluate.len();
        let mut folded: Vec<Vec<Fp<M>>> = lanes.drain(..blocks).collect();
        for (m, lane) in lanes.into_iter().enumerate() {
            let target = &mut folded[m % blocks];
            debug_assert_eq!(lane.len(), width);
            for (slot, value) in target.iter_mut().zip(lane) {
                *slot += value;
            }
        }
        ntt.evaluate.forward_vectors(&mut folded);
        folded.truncate(self.config.partitions);
        folded
    }

    /// Error-correcting decoding: tolerates up to `max_errors` arbitrarily
    /// corrupted results among `results`. Returns the `K` output blocks and
    /// the worker indices identified as corrupted.
    pub fn decode_with_errors<R: Rng + ?Sized>(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
        max_errors: usize,
        rng: &mut R,
    ) -> Result<DecodedWithErrors<M>, DecodeError> {
        let threshold = self.recovery_threshold();
        let required = threshold + 2 * max_errors;
        self.validate(results, required)?;
        let width = results[0].1.len();
        let alphas: Vec<Fp<M>> = results
            .iter()
            .map(|(worker, _)| self.points.alpha()[*worker])
            .collect();

        // Fingerprint pass: collapse each worker vector to a single field
        // element with a shared random combination vector. Correct workers'
        // fingerprints are evaluations of a degree-(threshold-1) polynomial.
        let combination: Vec<Fp<M>> = random_vector(rng, width);
        let fingerprints: Vec<Fp<M>> = results
            .iter()
            .map(|(_, vector)| dot(vector, &combination))
            .collect();
        let decoder = BerlekampWelch::new(alphas.clone(), threshold);
        let located = match decoder.decode(&fingerprints, max_errors) {
            Ok(decoded) => decoded.error_positions,
            Err(RsDecodeError::TooManyErrors) => return Err(DecodeError::TooManyErrors),
            Err(RsDecodeError::NotEnoughEvaluations { provided, required }) => {
                return Err(DecodeError::NotEnoughResults { provided, required })
            }
            Err(RsDecodeError::LengthMismatch { .. }) => return Err(DecodeError::ShapeMismatch),
        };

        // Erasure-decode from the workers that were not located as corrupted.
        let clean: Vec<(usize, Vec<Fp<M>>)> = results
            .iter()
            .enumerate()
            .filter(|(position, _)| !located.contains(position))
            .map(|(_, entry)| entry.clone())
            .collect();
        if clean.len() < threshold {
            return Err(DecodeError::TooManyErrors);
        }
        let outputs = self.decode_erasure(&clean)?;
        let corrupted_workers: Vec<usize> = located
            .iter()
            .map(|&position| results[position].0)
            .collect();
        Ok((outputs, corrupted_workers))
    }

    fn validate(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
        required: usize,
    ) -> Result<(), DecodeError> {
        if results.len() < required {
            return Err(DecodeError::NotEnoughResults {
                provided: results.len(),
                required,
            });
        }
        let mut seen = vec![false; self.config.workers];
        let width = results[0].1.len();
        for (worker, vector) in results {
            if *worker >= self.config.workers {
                return Err(DecodeError::UnknownWorker { worker: *worker });
            }
            if seen[*worker] {
                return Err(DecodeError::DuplicateWorker { worker: *worker });
            }
            seen[*worker] = true;
            if vector.len() != width {
                return Err(DecodeError::ShapeMismatch);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::LagrangeEncoder;
    use avcc_field::{PrimeField, F25, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a full encode → worker-compute → decode round for a linear map
    /// (matrix–vector product), returning the expected per-block outputs and
    /// the worker results.
    type LinearRound = (Vec<Vec<F25>>, Vec<(usize, Vec<F25>)>, LagrangeDecoder<P25>);

    fn linear_round(config: SchemeConfig, seed: u64) -> LinearRound {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 4;
        let cols = 6;
        let blocks: Vec<Matrix<F25>> = (0..config.partitions)
            .map(|_| Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols)))
            .collect();
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, cols);
        let encoder = LagrangeEncoder::<P25>::new(config);
        let shares = if config.colluding == 0 {
            encoder.encode_deterministic(&blocks)
        } else {
            encoder.encode(&blocks, &mut rng)
        };
        let expected: Vec<Vec<F25>> = blocks.iter().map(|b| mat_vec(b, &w)).collect();
        let results: Vec<(usize, Vec<F25>)> = shares
            .iter()
            .map(|share| (share.worker, mat_vec(&share.block, &w)))
            .collect();
        (expected, results, LagrangeDecoder::<P25>::new(config))
    }

    #[test]
    fn erasure_decoding_from_all_workers() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (expected, results, decoder) = linear_round(config, 1);
        let outputs = decoder.decode_erasure(&results).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_from_any_threshold_subset() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (expected, results, decoder) = linear_round(config, 2);
        // Drop the first three workers (as if they straggled).
        let subset = results[3..].to_vec();
        let outputs = decoder.decode_erasure(&subset).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_with_privacy_pads() {
        let config = SchemeConfig::new(8, 3, 1, 0, 2, 1).unwrap();
        let (expected, results, decoder) = linear_round(config, 3);
        // Threshold is (3+2-1)*1+1 = 5.
        assert_eq!(decoder.recovery_threshold(), 5);
        let subset = results[2..7].to_vec();
        let outputs = decoder.decode_erasure(&subset).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_requires_threshold_results() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (_, results, decoder) = linear_round(config, 4);
        let subset = results[..8].to_vec();
        assert_eq!(
            decoder.decode_erasure(&subset),
            Err(DecodeError::NotEnoughResults {
                provided: 8,
                required: 9
            })
        );
    }

    #[test]
    fn duplicate_and_unknown_workers_are_rejected() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let (_, results, decoder) = linear_round(config, 5);
        let mut duplicated = results.clone();
        duplicated[1] = duplicated[0].clone();
        assert_eq!(
            decoder.decode_erasure(&duplicated),
            Err(DecodeError::DuplicateWorker { worker: 0 })
        );
        let mut unknown = results.clone();
        unknown[0].0 = 99;
        assert_eq!(
            decoder.decode_erasure(&unknown),
            Err(DecodeError::UnknownWorker { worker: 99 })
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let (_, mut results, decoder) = linear_round(config, 6);
        results[2].1.pop();
        assert_eq!(
            decoder.decode_erasure(&results),
            Err(DecodeError::ShapeMismatch)
        );
    }

    #[test]
    fn error_correcting_decode_locates_byzantine_workers() {
        // LCC-style: (N=12, K=9, S=1, M=1) needs 9 + 1 + 2 = 12 workers.
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, mut results, decoder) = linear_round(config, 7);
        // Corrupt worker 4's vector (constant attack).
        for value in results[4].1.iter_mut() {
            *value = F25::from_u64(3);
        }
        // Drop one straggler (worker 11), leaving N - S = 11 results.
        results.truncate(11);
        let mut rng = StdRng::seed_from_u64(70);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        assert_eq!(corrupted, vec![4]);
    }

    #[test]
    fn error_correcting_decode_with_two_errors() {
        let config = SchemeConfig::linear(14, 9, 1, 2).unwrap();
        let (expected, mut results, decoder) = linear_round(config, 8);
        for value in results[0].1.iter_mut() {
            *value = -*value; // reverse-value attack
        }
        for value in results[7].1.iter_mut() {
            *value += F25::from_u64(1234);
        }
        let mut rng = StdRng::seed_from_u64(80);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 2, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        let mut corrupted_sorted = corrupted;
        corrupted_sorted.sort_unstable();
        assert_eq!(corrupted_sorted, vec![0, 7]);
    }

    #[test]
    fn error_correcting_decode_needs_two_extra_per_error() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (_, results, decoder) = linear_round(config, 9);
        // Only 10 results available but 9 + 2*1 = 11 required.
        let subset = results[..10].to_vec();
        let mut rng = StdRng::seed_from_u64(90);
        assert_eq!(
            decoder.decode_with_errors(&subset, 1, &mut rng),
            Err(DecodeError::NotEnoughResults {
                provided: 10,
                required: 11
            })
        );
    }

    #[test]
    fn error_correcting_decode_reports_overload() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, mut results, decoder) = linear_round(config, 10);
        // Corrupt three workers but only budget one error: the decoder must
        // either refuse or at least fail to reproduce the clean outputs (the
        // attack exceeds the code's correction capability by design).
        for index in [1, 5, 9] {
            for value in results[index].1.iter_mut() {
                *value = F25::from_u64(7);
            }
        }
        let mut rng = StdRng::seed_from_u64(100);
        match decoder.decode_with_errors(&results, 1, &mut rng) {
            Err(DecodeError::TooManyErrors) => {}
            Ok((outputs, _)) => assert_ne!(outputs, expected),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn clean_results_report_no_corruption() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, results, decoder) = linear_round(config, 11);
        let mut rng = StdRng::seed_from_u64(110);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        assert!(corrupted.is_empty());
    }

    mod ntt_path {
        use super::*;
        use avcc_field::{F64, P64};

        type NttRound = (Vec<Vec<F64>>, Vec<(usize, Vec<F64>)>, LagrangeDecoder<P64>);

        /// A full encode → linear-compute round on the Goldilocks field with
        /// `N = 16` workers (filling the covering subgroup) and `K = 8`.
        fn ntt_round(config: SchemeConfig, seed: u64) -> NttRound {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = 4;
            let cols = 6;
            let blocks: Vec<Matrix<F64>> = (0..config.partitions)
                .map(|_| {
                    Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols))
                })
                .collect();
            let w: Vec<F64> = avcc_field::random_vector(&mut rng, cols);
            let encoder = LagrangeEncoder::<P64>::new(config);
            assert!(encoder.uses_ntt());
            let shares = if config.colluding == 0 {
                encoder.encode_deterministic(&blocks)
            } else {
                encoder.encode(&blocks, &mut rng)
            };
            let expected: Vec<Vec<F64>> = blocks.iter().map(|b| mat_vec(b, &w)).collect();
            let results: Vec<(usize, Vec<F64>)> = shares
                .iter()
                .map(|share| (share.worker, mat_vec(&share.block, &w)))
                .collect();
            (expected, results, LagrangeDecoder::<P64>::new(config))
        }

        #[test]
        fn full_coset_results_decode_through_the_ntt() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = ntt_round(config, 21);
            assert!(decoder.supports_ntt());
            let outputs = decoder.decode_erasure(&results).unwrap();
            assert_eq!(outputs, expected);
        }

        #[test]
        fn missing_workers_take_the_tree_path_and_agree() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = ntt_round(config, 22);
            // Dropping any straggler drops to the partial subproduct-tree
            // path; all three paths must produce the same outputs.
            let full = decoder.decode_erasure(&results).unwrap();
            let subset = results[3..].to_vec();
            let partial = decoder.decode_erasure(&subset).unwrap();
            let oracle = decoder.decode_erasure_lagrange(&subset).unwrap();
            assert_eq!(full, expected);
            assert_eq!(partial, expected);
            // Bit-identical to the dense Lagrange oracle, not just equal as
            // decoded numbers.
            assert_eq!(partial, oracle);
        }

        #[test]
        fn tree_path_is_bit_identical_to_lagrange_for_any_straggler_count() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = ntt_round(config, 26);
            for missing in 1..=4usize {
                let subset = results[missing..].to_vec();
                let tree = decoder.decode_erasure(&subset).unwrap();
                let oracle = decoder.decode_erasure_lagrange(&subset).unwrap();
                assert_eq!(tree, expected, "{missing} missing");
                assert_eq!(tree, oracle, "{missing} missing");
            }
        }

        #[test]
        fn non_power_of_two_worker_counts_use_the_partial_path() {
            // N = 12 < 16 never fills the coset: the full-coset path is
            // unavailable, but the points are still in subgroup position so
            // the partial tree path applies — and decoding stays correct.
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            let (expected, results, decoder) = ntt_round(config, 23);
            assert!(!decoder.supports_ntt());
            assert!(decoder.supports_partial_ntt());
            let outputs = decoder.decode_erasure(&results).unwrap();
            assert_eq!(outputs, expected);
        }

        #[test]
        fn repeated_straggler_pattern_hits_the_basis_cache() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = ntt_round(config, 27);
            // Exactly threshold-many survivors, so the selected set (and
            // with it the cache key) is the whole subset regardless of
            // arrival order.
            assert_eq!(decoder.recovery_threshold(), 8);
            let subset = results[2..10].to_vec();
            assert_eq!(decoder.basis_cache_stats(), (0, 0));
            assert_eq!(decoder.decode_erasure(&subset).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (0, 1));
            // Same survivor set again (the common consecutive-round case):
            // the interpolator is reused, not rebuilt.
            assert_eq!(decoder.decode_erasure(&subset).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (1, 1));
            // Arrival order must not matter: a shuffled copy of the same
            // survivor set still hits.
            let mut shuffled = subset.clone();
            shuffled.reverse();
            assert_eq!(decoder.decode_erasure(&shuffled).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (2, 1));
            // A different straggler pattern is a different key.
            let other = results[3..].to_vec();
            assert_eq!(decoder.decode_erasure(&other).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (2, 2));
            // The dense oracle on the same survivors caches separately.
            assert_eq!(decoder.decode_erasure_lagrange(&subset).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (2, 3));
            assert_eq!(decoder.decode_erasure_lagrange(&subset).unwrap(), expected);
            assert_eq!(decoder.basis_cache_stats(), (3, 3));
            // Cloning resets the cache (it is a pure accelerator).
            let cloned = decoder.clone();
            assert_eq!(cloned.basis_cache_stats(), (0, 0));
        }

        #[test]
        fn private_ntt_round_trips_with_full_coset() {
            // K + T = 8, N = 16: threshold (8−1)·1+1 = 8 ≤ 16.
            let config = SchemeConfig::new(16, 6, 2, 2, 2, 1).unwrap();
            let (expected, results, decoder) = ntt_round(config, 24);
            assert!(decoder.supports_ntt());
            let outputs = decoder.decode_erasure(&results).unwrap();
            assert_eq!(outputs, expected);
        }

        #[test]
        fn error_correcting_decode_works_on_subgroup_points() {
            // LCC-style on F64: locate the corruption via Berlekamp–Welch,
            // then erasure-decode the clean subset (Lagrange fallback, since
            // the evicted worker breaks full-coset coverage).
            let config = SchemeConfig::linear(16, 8, 2, 2).unwrap();
            let (expected, mut results, decoder) = ntt_round(config, 25);
            for value in results[5].1.iter_mut() {
                *value = -*value;
            }
            let mut rng = StdRng::seed_from_u64(250);
            let (outputs, corrupted) = decoder.decode_with_errors(&results, 2, &mut rng).unwrap();
            assert_eq!(outputs, expected);
            assert_eq!(corrupted, vec![5]);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn prop_ntt_and_lagrange_paths_agree(seed in any::<u64>(), drop_count in 0usize..8) {
                let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
                let (expected, results, decoder) = ntt_round(config, seed);
                let outputs = decoder
                    .decode_erasure(&results[drop_count..])
                    .unwrap();
                prop_assert_eq!(outputs, expected);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_any_threshold_subset_decodes(seed in any::<u64>(), drop_count in 0usize..3) {
            let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
            let (expected, results, decoder) = linear_round(config, seed);
            let subset = results[drop_count..].to_vec();
            let outputs = decoder.decode_erasure(&subset).unwrap();
            prop_assert_eq!(outputs, expected);
        }

        #[test]
        fn prop_single_corruption_is_always_located(seed in any::<u64>(), victim in 0usize..12) {
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let (expected, mut results, decoder) = linear_round(config, seed);
            for value in results[victim].1.iter_mut() {
                *value += F25::from_u64(999);
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
            prop_assert_eq!(outputs, expected);
            prop_assert_eq!(corrupted, vec![victim]);
        }
    }
}
