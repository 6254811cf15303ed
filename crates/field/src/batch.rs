//! Slice-level field kernels: element-wise arithmetic, lazy-reduction dot
//! products and accumulators, and Montgomery batch inversion.
//!
//! These are the inner loops of the encoder (`X̃ = Σ X_j ℓ_j(α)`), the worker
//! compute kernels (`X̃ w`, `X̃ᵀ e`) and the Freivalds verifier (`r · z̃`).
//! They exploit *lazy reduction*: products of canonical representatives are
//! accumulated unreduced in [`Lane`]s and collapsed through the modulus's
//! specialized [`PrimeModulus::reduce_wide`] backend only once per batch of
//! products — a compile-time bound derived from the modulus (see
//! [`assert_wide_batch`]) guaranteeing a lane can never overflow.
//!
//! The lane width follows the modulus ([`narrow_lanes`]):
//!
//! * **`u64` lanes** for `q ≤ 2^32` ([`PrimeModulus::NARROW_BATCH`] ≥ 1).
//!   Canonical values fit in 32 bits, so every product is a
//!   `u32 × u32 → u64` multiply-add, which the optimizer vectorizes
//!   (`pmuludq` on the baseline x86-64 target) — no `unsafe`, no target
//!   feature. The paper's 25-bit field collapses once per 16 384 products.
//! * **`u128` lanes** for larger moduli ([`PrimeModulus::WIDE_BATCH`]
//!   products per collapse): every ~63 products for the 61-bit field, every
//!   product for Goldilocks.
//!
//! On the `u128` path, whose collapse cadence is tight, [`dot`] additionally
//! stripes over [`DOT_LANES`] independent accumulator lanes so consecutive
//! multiply-adds never serialize on a single accumulator's add-with-carry
//! chain. The striping is
//! pure instruction-level parallelism in safe, portable code, and the
//! overflow bound is enforced per lane by the same compile-time guard, so the
//! vector path admits exactly the moduli the scalar path did.

use crate::fp::{Fp, PrimeField, PrimeModulus};

/// Compile-time guard that lazy accumulation is sound for a modulus: at least
/// one product must fit per reduction in a `u128` lane, and a nonzero
/// [`PrimeModulus::NARROW_BATCH`] must fit its products (and one canonical
/// carry-in) in a `u64` lane. Every kernel in this module evaluates it in an
/// inline-`const` block, so an unsound modulus fails to *compile* rather than
/// overflow at run time.
pub const fn assert_wide_batch<M: PrimeModulus>() {
    assert!(
        M::WIDE_BATCH >= 1,
        "modulus too large for lazy reduction: one (q-1)^2 product must fit in u128"
    );
    let top = (M::MODULUS - 1) as u128;
    assert!(
        M::NARROW_BATCH == 0
            || (M::MODULUS <= 1 << 32
                && top + M::NARROW_BATCH as u128 * top * top <= u64::MAX as u128),
        "NARROW_BATCH overflows a u64 lane"
    );
}

/// Whether modulus `M` accumulates in `u64` lanes (`q ≤ 2^32`) instead of
/// `u128` lanes. Every lazy-reduction kernel selects its [`Lane`] type
/// through this one `const` predicate.
pub const fn narrow_lanes<M: PrimeModulus>() -> bool {
    M::NARROW_BATCH > 0
}

/// An unreduced accumulator word of the lazy-reduction kernels: `u64` when
/// [`narrow_lanes`] holds, `u128` otherwise. The kernels are written once
/// over this trait; `From<u64>` lifts a canonical representative.
pub trait Lane: Copy + From<u64> + core::ops::AddAssign {
    /// Products a lane absorbs, on top of one canonical carry-in, between
    /// collapses under modulus `M`.
    fn batch<M: PrimeModulus>() -> usize;
    /// The exact product of two canonical representatives.
    fn product(a: u64, b: u64) -> Self;
    /// The canonical representative of the lane's value modulo `M`.
    fn reduce<M: PrimeModulus>(self) -> u64;
}

impl Lane for u64 {
    #[inline(always)]
    fn batch<M: PrimeModulus>() -> usize {
        M::NARROW_BATCH
    }

    /// Both factors are canonical, hence below `2^32` on this lane: the
    /// casts spell a `u32 × u32 → u64` multiply, which vectorizes.
    #[inline(always)]
    fn product(a: u64, b: u64) -> u64 {
        (a as u32 as u64) * (b as u32 as u64)
    }

    #[inline(always)]
    fn reduce<M: PrimeModulus>(self) -> u64 {
        M::reduce_wide(self as u128)
    }
}

impl Lane for u128 {
    #[inline(always)]
    fn batch<M: PrimeModulus>() -> usize {
        M::WIDE_BATCH
    }

    #[inline(always)]
    fn product(a: u64, b: u64) -> u128 {
        a as u128 * b as u128
    }

    #[inline(always)]
    fn reduce<M: PrimeModulus>(self) -> u64 {
        M::reduce_wide(self)
    }
}

/// Number of independent `u128` accumulator lanes the striped kernels
/// stripe over. A single running accumulator serializes on its own add
/// (`u128` add-with-carry latency per product) and, worse, on the
/// [`PrimeModulus::reduce_wide`] collapse it must pay every
/// [`PrimeModulus::WIDE_BATCH`] products; four independent lanes let the
/// multiplies, adds and per-lane collapses overlap, and the compiler keep
/// all four in registers. The lanes are folded with field additions only at
/// the end, so the result is bit-identical to the single-lane kernel.
pub const DOT_LANES: usize = 4;

/// Element-wise sum of two equal-length slices into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_add<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.len(), b.len(), "slice_add length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference `a − b` of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_sub<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.len(), b.len(), "slice_sub length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// In-place element-wise accumulation `a[i] += b[i]`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_add_assign<M: PrimeModulus>(a: &mut [Fp<M>], b: &[Fp<M>]) {
    assert_eq!(a.len(), b.len(), "slice_add_assign length mismatch");
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// Scales every element of `a` by the scalar `c` into a new vector.
pub fn slice_scale<M: PrimeModulus>(a: &[Fp<M>], c: Fp<M>) -> Vec<Fp<M>> {
    let scale = c.value() as u128;
    a.iter()
        .map(|&x| Fp::from_canonical(M::reduce_wide(scale * x.value() as u128)))
        .collect()
}

/// In-place fused multiply-add `acc[i] += c * b[i]`.
///
/// One reduction per element (of `c·b[i] + acc[i]`, which never overflows a
/// `u128`). When several axpys accumulate into the same output — the Lagrange
/// encoder/decoder case — prefer [`WideAccumulator`], which defers reduction
/// across *all* of them.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_axpy<M: PrimeModulus>(acc: &mut [Fp<M>], c: Fp<M>, b: &[Fp<M>]) {
    assert_eq!(acc.len(), b.len(), "slice_axpy length mismatch");
    const { assert_wide_batch::<M>() }
    let scale = c.value() as u128;
    for (x, &y) in acc.iter_mut().zip(b.iter()) {
        *x = Fp::from_canonical(M::reduce_wide(
            scale * y.value() as u128 + x.value() as u128,
        ));
    }
}

/// Inner product `Σ a[i]·b[i]` with lazy reduction.
///
/// Narrow moduli ([`narrow_lanes`]) keep one running `u64` accumulator,
/// which the optimizer already runs wide; `u128` moduli stripe over
/// [`DOT_LANES`] independent lanes (the selection is a `const` branch that
/// folds away).
///
/// On the striped path, unreduced products stripe across the lanes
/// (`lane[j]` absorbs elements `j, j+4, j+8, …` of each chunk), each lane is
/// reduced through the specialized backend once every
/// [`PrimeModulus::WIDE_BATCH`] of *its* products, and the canonical lane
/// totals are folded with field additions at the end — the inner loop is
/// four independent multiply-adds per step, with no division, no comparison,
/// no branch, and no dependency chain between consecutive products. The
/// [`PrimeModulus::WIDE_BATCH`] overflow bound holds per lane exactly as it
/// does for the scalar kernel: a chunk of `DOT_LANES · WIDE_BATCH` elements
/// feeds at most `WIDE_BATCH` products into any one lane between collapses.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    const { assert_wide_batch::<M>() }
    if const { narrow_lanes::<M>() } {
        return dot_narrow(a, b);
    }
    let chunk_len = M::WIDE_BATCH.saturating_mul(DOT_LANES);
    let mut lanes = [0u128; DOT_LANES];
    for (chunk_a, chunk_b) in a.chunks(chunk_len).zip(b.chunks(chunk_len)) {
        let mut groups_a = chunk_a.chunks_exact(DOT_LANES);
        let mut groups_b = chunk_b.chunks_exact(DOT_LANES);
        for (ga, gb) in groups_a.by_ref().zip(groups_b.by_ref()) {
            lanes[0] += ga[0].value() as u128 * gb[0].value() as u128;
            lanes[1] += ga[1].value() as u128 * gb[1].value() as u128;
            lanes[2] += ga[2].value() as u128 * gb[2].value() as u128;
            lanes[3] += ga[3].value() as u128 * gb[3].value() as u128;
        }
        for ((lane, &x), &y) in lanes
            .iter_mut()
            .zip(groups_a.remainder())
            .zip(groups_b.remainder())
        {
            *lane += x.value() as u128 * y.value() as u128;
        }
        for lane in lanes.iter_mut() {
            *lane = M::reduce_wide(*lane) as u128;
        }
    }
    // Every lane is canonical after the per-chunk collapse (or still zero),
    // so the fold is plain field addition.
    lanes
        .into_iter()
        .map(|lane| Fp::from_canonical(lane as u64))
        .fold(Fp::<M>::ZERO, |acc, lane| acc + lane)
}

/// The single-accumulator `u64`-lane dot: each chunk of
/// [`PrimeModulus::NARROW_BATCH`] products is summed onto the canonical
/// running total and collapsed once.
fn dot_narrow<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
    let batch = M::NARROW_BATCH;
    let mut total = 0u64;
    for (chunk_a, chunk_b) in a.chunks(batch).zip(b.chunks(batch)) {
        let mut accumulator = total;
        for (&x, &y) in chunk_a.iter().zip(chunk_b) {
            accumulator += <u64 as Lane>::product(x.value(), y.value());
        }
        total = accumulator.reduce::<M>();
    }
    Fp::from_canonical(total)
}

/// A vector of unreduced [`Lane`]s — `u64` or `u128`, by [`narrow_lanes`] —
/// the shared engine of the Lagrange encoder (`Σ_j ℓ_j(α)·X_j`), the erasure
/// decoder, the screen and the blocked matrix kernels.
///
/// Each `axpy` adds one product per lane; after the lane type's batch
/// ([`PrimeModulus::NARROW_BATCH`] or [`PrimeModulus::WIDE_BATCH`]) of
/// accumulated products the lanes are collapsed with one reduction each.
/// Compared to repeated [`slice_axpy`] this performs `1/batch` as many
/// reductions (for the 25-bit field: one per 16 384 products per lane).
#[derive(Debug, Clone)]
pub struct WideAccumulator<M: PrimeModulus> {
    lanes: Lanes,
    /// Products accumulated since the last collapse.
    pending: usize,
    _modulus: core::marker::PhantomData<M>,
}

/// The lane storage of a [`WideAccumulator`]; [`WideAccumulator::new`]
/// picks the variant with [`narrow_lanes`].
#[derive(Debug, Clone)]
enum Lanes {
    Narrow(Vec<u64>),
    Wide(Vec<u128>),
}

impl<M: PrimeModulus> WideAccumulator<M> {
    /// Creates a zeroed accumulator with `len` lanes.
    pub fn new(len: usize) -> Self {
        const { assert_wide_batch::<M>() }
        let lanes = if const { narrow_lanes::<M>() } {
            Lanes::Narrow(vec![0; len])
        } else {
            Lanes::Wide(vec![0; len])
        };
        WideAccumulator {
            lanes,
            pending: 0,
            _modulus: core::marker::PhantomData,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        match &self.lanes {
            Lanes::Narrow(lanes) => lanes.len(),
            Lanes::Wide(lanes) => lanes.len(),
        }
    }

    /// `true` iff the accumulator has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fused multiply-add `lane[i] += c · b[i]`, reducing lazily.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the number of lanes.
    pub fn axpy(&mut self, c: Fp<M>, b: &[Fp<M>]) {
        assert_eq!(self.len(), b.len(), "axpy length mismatch");
        let pending = &mut self.pending;
        match &mut self.lanes {
            Lanes::Narrow(lanes) => axpy_lanes(lanes, pending, c, b),
            Lanes::Wide(lanes) => axpy_lanes(lanes, pending, c, b),
        }
    }

    /// Adds already-canonical values (one addition counts as one product
    /// against the overflow budget, which is conservative).
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the number of lanes.
    pub fn add(&mut self, b: &[Fp<M>]) {
        assert_eq!(self.len(), b.len(), "add length mismatch");
        let pending = &mut self.pending;
        match &mut self.lanes {
            Lanes::Narrow(lanes) => add_lanes(lanes, pending, b),
            Lanes::Wide(lanes) => add_lanes(lanes, pending, b),
        }
    }

    /// Reduces and returns the accumulated vector.
    pub fn finish(self) -> Vec<Fp<M>> {
        // The output gets its own allocation. A `u64` lane vector has `Fp`'s
        // size and alignment, so collecting it would reuse the lane buffer
        // in place, and that variant measured 882–890 MB peak RSS on the
        // train-wide benchmark against 849 MB for this one.
        let mut out = vec![Fp::<M>::ZERO; self.len()];
        self.finish_into(&mut out);
        out
    }

    /// Reduces the accumulated values into an existing slice (the blocked
    /// kernels reuse one accumulator across tiles).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the number of lanes.
    pub fn finish_into(self, out: &mut [Fp<M>]) {
        assert_eq!(self.len(), out.len(), "finish_into length mismatch");
        match &self.lanes {
            Lanes::Narrow(lanes) => reduce_lanes(lanes, out),
            Lanes::Wide(lanes) => reduce_lanes(lanes, out),
        }
    }
}

/// The [`WideAccumulator::axpy`] sweep over lane type `L`, collapsing first
/// when the lanes already hold a full batch. The sweep is unrolled
/// [`DOT_LANES`] lanes at a time: the lanes are already independent, and the
/// explicit four-wide groups keep the multiply-adds flowing without
/// per-element loop control.
fn axpy_lanes<M: PrimeModulus, L: Lane>(
    lanes: &mut [L],
    pending: &mut usize,
    c: Fp<M>,
    b: &[Fp<M>],
) {
    if *pending == L::batch::<M>() {
        collapse::<M, L>(lanes, pending);
    }
    let scale = c.value();
    let mut lane_groups = lanes.chunks_exact_mut(DOT_LANES);
    let mut b_groups = b.chunks_exact(DOT_LANES);
    for (lanes, values) in lane_groups.by_ref().zip(b_groups.by_ref()) {
        lanes[0] += L::product(scale, values[0].value());
        lanes[1] += L::product(scale, values[1].value());
        lanes[2] += L::product(scale, values[2].value());
        lanes[3] += L::product(scale, values[3].value());
    }
    for (lane, &y) in lane_groups
        .into_remainder()
        .iter_mut()
        .zip(b_groups.remainder())
    {
        *lane += L::product(scale, y.value());
    }
    *pending += 1;
}

/// The [`WideAccumulator::add`] sweep over lane type `L`.
fn add_lanes<M: PrimeModulus, L: Lane>(lanes: &mut [L], pending: &mut usize, b: &[Fp<M>]) {
    if *pending == L::batch::<M>() {
        collapse::<M, L>(lanes, pending);
    }
    for (lane, &y) in lanes.iter_mut().zip(b) {
        *lane += L::from(y.value());
    }
    *pending += 1;
}

/// Reduces every lane to its canonical representative in place.
fn collapse<M: PrimeModulus, L: Lane>(lanes: &mut [L], pending: &mut usize) {
    for lane in lanes.iter_mut() {
        *lane = L::from(lane.reduce::<M>());
    }
    *pending = 0;
}

/// Writes the canonical value of every lane into `out`.
fn reduce_lanes<M: PrimeModulus, L: Lane>(lanes: &[L], out: &mut [Fp<M>]) {
    for (slot, &lane) in out.iter_mut().zip(lanes) {
        *slot = Fp::from_canonical(lane.reduce::<M>());
    }
}

/// Montgomery batch inversion: inverts every element of `values` using a
/// single field inversion plus `3(n−1)` multiplications.
///
/// Free-function form of [`PrimeField::batch_inverse`], kept for callers that
/// work with a concrete [`PrimeModulus`].
///
/// # Panics
/// Panics if any element is zero.
pub fn batch_inverse<M: PrimeModulus>(values: &[Fp<M>]) -> Vec<Fp<M>> {
    <Fp<M> as PrimeField>::batch_inverse(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{P25, P251, P61};
    use proptest::prelude::*;

    type F = Fp<P25>;

    fn fv(values: &[u64]) -> Vec<F> {
        values.iter().map(|&v| F::from_u64(v)).collect()
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn wide_batch_constants_are_sane() {
        // P25 products are ~2^50: the whole u128 is effectively one batch.
        assert!(P25::WIDE_BATCH > 1 << 40);
        // P61 products are ~2^122: roughly 63 fit.
        assert!((32..256).contains(&P61::WIDE_BATCH), "{}", P61::WIDE_BATCH);
        assert!(P251::WIDE_BATCH > 1 << 40);
        // The 64-bit Goldilocks modulus degenerates to one product per
        // reduction — the minimum the compile-time guard admits.
        assert_eq!(crate::fp::P64::WIDE_BATCH, 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn narrow_batch_is_the_exact_u64_lane_capacity() {
        // A u64 lane holds one canonical carry-in plus NARROW_BATCH products
        // of (q−1)², and not one more.
        fn check<M: PrimeModulus>() {
            let top = (M::MODULUS - 1) as u128;
            let batch = M::NARROW_BATCH as u128;
            assert!(top + batch * top * top <= u64::MAX as u128, "{}", M::NAME);
            assert!(
                (u64::MAX as u128) < top + (batch + 1) * top * top,
                "{}",
                M::NAME
            );
        }
        check::<P25>();
        check::<P251>();
        assert_eq!(P25::NARROW_BATCH, 16_384);
        // Canonical values above 2^32 do not fit the u32 × u32 multiply.
        assert_eq!(P61::NARROW_BATCH, 0);
        assert_eq!(crate::fp::P64::NARROW_BATCH, 0);
        assert!(narrow_lanes::<P25>() && narrow_lanes::<P251>());
        assert!(!narrow_lanes::<P61>() && !narrow_lanes::<crate::fp::P64>());
    }

    /// Explicit `u128` reference for the narrow-lane equivalence tests: every
    /// product reduced on its own, summed in a `u128`.
    fn reference_dot<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
        let mut total = 0u128;
        for (&x, &y) in a.iter().zip(b) {
            total += M::reduce_wide(x.value() as u128 * y.value() as u128) as u128;
        }
        Fp::new(M::reduce_wide(total))
    }

    /// Random canonical values and all-`(q−1)` values — the lane's worst case.
    fn narrow_inputs<M: PrimeModulus>(len: usize, seed: u64) -> [Vec<Fp<M>>; 2] {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let random = (0..len)
            .map(|_| Fp::new(rng.gen_range(0..M::MODULUS)))
            .collect();
        [random, vec![Fp::new(M::MODULUS - 1); len]]
    }

    /// Lengths around the `u64` lane's collapse boundary (capped for
    /// `P251`, whose batch of ~2^48 products no test can reach).
    fn narrow_lengths<M: PrimeModulus>() -> [usize; 4] {
        let batch = M::NARROW_BATCH.min(P25::NARROW_BATCH);
        [batch - 1, batch, batch + 1, 2 * batch + 3]
    }

    #[test]
    fn narrow_dot_matches_u128_reference_across_the_batch() {
        fn check<M: PrimeModulus>() {
            for len in narrow_lengths::<M>() {
                let [random, top] = narrow_inputs::<M>(len, 1);
                let [other, _] = narrow_inputs::<M>(len, 2);
                for (a, b) in [(&random, &other), (&top, &top), (&random, &top)] {
                    assert_eq!(dot(a, b), reference_dot(a, b), "{} len {len}", M::NAME);
                }
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn narrow_accumulator_matches_u128_reference_across_the_batch() {
        // axpy and add counts below, at, just past and well past the u64
        // batch, so every collapse boundary is crossed; finish and
        // finish_into must agree with a u128 reference of the same sums.
        // The all-(q−1) run is axpy only, the lane's worst case; the random
        // run mixes in adds.
        fn check<M: PrimeModulus>() {
            let width = 7;
            for count in narrow_lengths::<M>() {
                let [random, top] = narrow_inputs::<M>(count + width, 3);
                let [other, _] = narrow_inputs::<M>(count + width, 4);
                for (coefficients, values, with_adds) in
                    [(&random, &other, true), (&top, &top, false)]
                {
                    let mut accumulator = WideAccumulator::<M>::new(width);
                    let mut sums = vec![0u128; width];
                    for step in 0..count {
                        let row = &values[step..step + width];
                        if with_adds && step % 5 == 4 {
                            accumulator.add(row);
                            for (sum, &y) in sums.iter_mut().zip(row) {
                                *sum += y.value() as u128;
                            }
                        } else {
                            let c = coefficients[step];
                            accumulator.axpy(c, row);
                            for (sum, &y) in sums.iter_mut().zip(row) {
                                *sum += (c.value() as u128) * (y.value() as u128);
                            }
                        }
                    }
                    let expected: Vec<Fp<M>> = sums
                        .iter()
                        .map(|&sum| Fp::new(M::reduce_wide(sum)))
                        .collect();
                    let mut into = vec![Fp::<M>::ONE; width];
                    accumulator.clone().finish_into(&mut into);
                    assert_eq!(into, expected, "{} count {count}", M::NAME);
                    assert_eq!(accumulator.finish(), expected, "{} count {count}", M::NAME);
                }
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn goldilocks_kernels_survive_batch_of_one() {
        // WIDE_BATCH = 1 forces a collapse on every accumulation; the lazy
        // kernels must still match the element-wise reference at the extremes.
        type H = Fp<crate::fp::P64>;
        const Q: u64 = crate::fp::P64::MODULUS;
        let a: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 1 - i)).collect();
        let b: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 7 - i)).collect();
        let reference: H = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), reference);
        let near = H::from_u64(Q - 1);
        let mut accumulator = WideAccumulator::<crate::fp::P64>::new(4);
        let lane = vec![near; 4];
        for _ in 0..10 {
            accumulator.axpy(near, &lane);
        }
        // (q−1)^2 ≡ 1, so ten accumulations of it sum to 10.
        assert_eq!(accumulator.finish(), vec![H::from_u64(10); 4]);
    }

    #[test]
    fn slice_add_and_sub_are_inverses() {
        let a = fv(&[1, 2, 3, 4]);
        let b = fv(&[10, 20, 30, 40]);
        let sum = slice_add(&a, &b);
        assert_eq!(slice_sub(&sum, &b), a);
    }

    #[test]
    fn slice_add_assign_matches_slice_add() {
        let mut a = fv(&[5, 6, 7]);
        let b = fv(&[1, 1, 1]);
        let expected = slice_add(&a, &b);
        slice_add_assign(&mut a, &b);
        assert_eq!(a, expected);
    }

    #[test]
    fn slice_scale_by_one_is_identity() {
        let a = fv(&[9, 8, 7]);
        assert_eq!(slice_scale(&a, F::ONE), a);
    }

    #[test]
    fn slice_axpy_accumulates() {
        let mut acc = fv(&[1, 2, 3]);
        let b = fv(&[10, 10, 10]);
        slice_axpy(&mut acc, F::from_u64(2), &b);
        assert_eq!(acc, fv(&[21, 22, 23]));
    }

    #[test]
    fn dot_matches_naive_reference() {
        let a = fv(&[1, 2, 3, 4, 5]);
        let b = fv(&[5, 4, 3, 2, 1]);
        let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        let empty: Vec<F> = Vec::new();
        assert_eq!(dot(&empty, &empty), F::ZERO);
    }

    #[test]
    fn dot_handles_values_near_modulus() {
        let near = F::from_u64(P25::MODULUS - 1);
        let a = vec![near; 10_000];
        let b = vec![near; 10_000];
        let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn dot_matches_reference_across_lane_remainders() {
        // The 4-lane striping: exercise every remainder class (0..=3 leftover
        // elements) and lengths shorter than one lane group.
        for len in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17] {
            let a: Vec<F> = (0..len as u64).map(|i| F::from_u64(i * 7 + 1)).collect();
            let b: Vec<F> = (0..len as u64).map(|i| F::from_u64(i * 13 + 3)).collect();
            let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            assert_eq!(dot(&a, &b), naive, "len = {len}");
        }
    }

    #[test]
    fn dot_crosses_the_p61_lane_chunk_boundary() {
        // With 4 lanes the collapse boundary sits at 4 * WIDE_BATCH elements;
        // straddle it, land exactly on it, and overshoot by a non-multiple
        // of the lane count.
        type G = Fp<P61>;
        let chunk = P61::WIDE_BATCH * DOT_LANES;
        for len in [chunk - 1, chunk, chunk + 1, chunk * 2 + 3] {
            let a: Vec<G> = (0..len as u64)
                .map(|i| G::from_u64(P61::MODULUS - 1 - (i % 11)))
                .collect();
            let b: Vec<G> = (0..len as u64)
                .map(|i| G::from_u64(P61::MODULUS - 5 - (i % 7)))
                .collect();
            let naive: G = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            assert_eq!(dot(&a, &b), naive, "len = {len}");
        }
    }

    #[test]
    fn axpy_matches_slice_axpy_across_lane_remainders() {
        for len in [1usize, 3, 4, 5, 7, 8, 11] {
            let b: Vec<F> = (0..len as u64)
                .map(|i| F::from_u64(P25::MODULUS - 1 - i))
                .collect();
            let c = F::from_u64(P25::MODULUS - 2);
            let mut expected = vec![F::ZERO; len];
            let mut accumulator = WideAccumulator::<P25>::new(len);
            for _ in 0..3 {
                slice_axpy(&mut expected, c, &b);
                accumulator.axpy(c, &b);
            }
            assert_eq!(accumulator.finish(), expected, "len = {len}");
        }
    }

    #[test]
    fn dot_crosses_the_p61_reduction_batch() {
        // Vector longer than WIDE_BATCH forces mid-loop collapses in F_{2^61-1}.
        type G = Fp<P61>;
        let len = P61::WIDE_BATCH * 3 + 7;
        let a: Vec<G> = (0..len as u64)
            .map(|i| G::from_u64(P61::MODULUS - 1 - i))
            .collect();
        let b: Vec<G> = (0..len as u64)
            .map(|i| G::from_u64(P61::MODULUS - 7 - i))
            .collect();
        let naive: G = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&fv(&[1]), &fv(&[1, 2]));
    }

    #[test]
    fn wide_accumulator_matches_repeated_axpy() {
        let blocks = [fv(&[1, 2, 3]), fv(&[4, 5, 6]), fv(&[7, 8, 9])];
        let coefficients = fv(&[3, 1, 4]);
        let mut expected = fv(&[0, 0, 0]);
        let mut accumulator = WideAccumulator::<P25>::new(3);
        for (c, b) in coefficients.iter().zip(blocks.iter()) {
            slice_axpy(&mut expected, *c, b);
            accumulator.axpy(*c, b);
        }
        assert_eq!(accumulator.finish(), expected);
    }

    #[test]
    fn wide_accumulator_collapses_past_the_batch_limit() {
        type G = Fp<P61>;
        let near = G::from_u64(P61::MODULUS - 1);
        let b = vec![near; 4];
        let mut accumulator = WideAccumulator::<P61>::new(4);
        let rounds = P61::WIDE_BATCH * 2 + 5;
        for _ in 0..rounds {
            accumulator.axpy(near, &b);
        }
        // (q-1)^2 * rounds mod q == rounds mod q (since (q-1)^2 ≡ 1).
        let expected = G::from_u64(rounds as u64);
        assert_eq!(accumulator.finish(), vec![expected; 4]);
    }

    #[test]
    fn wide_accumulator_add_matches_slice_add() {
        let a = fv(&[1, 2, 3]);
        let b = fv(&[P25::MODULUS - 1, 5, 6]);
        let mut accumulator = WideAccumulator::<P25>::new(3);
        accumulator.add(&a);
        accumulator.add(&b);
        assert_eq!(accumulator.finish(), slice_add(&a, &b));
    }

    #[test]
    fn wide_accumulator_finish_into_writes_slice() {
        let mut accumulator = WideAccumulator::<P25>::new(2);
        accumulator.axpy(F::from_u64(3), &fv(&[10, 20]));
        let mut out = fv(&[0, 0]);
        accumulator.finish_into(&mut out);
        assert_eq!(out, fv(&[30, 60]));
    }

    #[test]
    fn batch_inverse_matches_individual_inverses() {
        let values = fv(&[1, 2, 3, 12345, P25::MODULUS - 1]);
        let inverses = batch_inverse(&values);
        for (v, inv) in values.iter().zip(inverses.iter()) {
            assert_eq!(*v * *inv, F::ONE);
        }
    }

    #[test]
    fn batch_inverse_of_empty_is_empty() {
        assert!(batch_inverse::<P25>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_inverse_rejects_zero() {
        let _ = batch_inverse(&fv(&[1, 0, 2]));
    }

    proptest! {
        #[test]
        fn prop_dot_is_bilinear(
            a in proptest::collection::vec(0..P25::MODULUS, 1..50),
            b in proptest::collection::vec(0..P25::MODULUS, 1..50),
            c in 0..P25::MODULUS,
        ) {
            let n = a.len().min(b.len());
            let a: Vec<F> = a[..n].iter().map(|&v| F::from_u64(v)).collect();
            let b: Vec<F> = b[..n].iter().map(|&v| F::from_u64(v)).collect();
            let c = F::from_u64(c);
            let scaled = slice_scale(&a, c);
            prop_assert_eq!(dot(&scaled, &b), c * dot(&a, &b));
        }

        #[test]
        fn prop_lazy_dot_matches_elementwise_reference_all_moduli(
            raw_a in proptest::collection::vec(any::<u64>(), 1..80),
            raw_b in proptest::collection::vec(any::<u64>(), 1..80),
        ) {
            let n = raw_a.len().min(raw_b.len());
            fn check<M: PrimeModulus>(raw_a: &[u64], raw_b: &[u64], n: usize) {
                let a: Vec<Fp<M>> = raw_a[..n].iter().map(|&v| Fp::from_u64(v)).collect();
                let b: Vec<Fp<M>> = raw_b[..n].iter().map(|&v| Fp::from_u64(v)).collect();
                let reference: Fp<M> = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
                assert_eq!(dot(&a, &b), reference);
            }
            check::<P25>(&raw_a, &raw_b, n);
            check::<P61>(&raw_a, &raw_b, n);
            check::<P251>(&raw_a, &raw_b, n);
            check::<crate::fp::P64>(&raw_a, &raw_b, n);
        }

        #[test]
        fn prop_batch_inverse_correct(
            raw in proptest::collection::vec(1..P25::MODULUS, 1..40)
        ) {
            let values: Vec<F> = raw.iter().map(|&v| F::from_u64(v)).collect();
            let inverses = batch_inverse(&values);
            for (v, inv) in values.iter().zip(inverses.iter()) {
                prop_assert_eq!(*v * *inv, F::ONE);
            }
        }
    }
}
