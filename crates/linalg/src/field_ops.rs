//! Field-matrix kernels: matrix–vector, transpose–vector and matrix–matrix
//! products, in serial and multi-threaded form.
//!
//! The worker-side computations of the paper's two-round logistic-regression
//! protocol are exactly these kernels: round one computes `z̃ = X̃ w`
//! ([`mat_vec`]) and round two computes `g̃ = X̃ᵀ e` ([`matt_vec`]).
//!
//! All kernels are built on *lazy reduction* (see [`avcc_field::batch`]):
//! unreduced products accumulate in `u64` lanes when `q ≤ 2^32` (vectorized
//! `u32 × u32 → u64` multiply-adds, [`PrimeModulus::NARROW_BATCH`] products
//! per collapse) and in `u128` lanes otherwise
//! ([`PrimeModulus::WIDE_BATCH`] products per collapse), collapsing through
//! the modulus's specialized [`PrimeModulus::reduce_wide`] backend, so the
//! inner loops are multiply-add only — no division, no per-element
//! reduction:
//!
//! * [`mat_vec`] — register-blocked: four rows share one streaming pass over
//!   `x`, each with its own lazy accumulator.
//! * [`matt_vec`] — one [`WideAccumulator`] over the output columns; the
//!   matrix streams through row-major exactly once.
//! * [`mat_mat`] — cache-blocked: strips of [`MAT_MAT_ROW_BLOCK`] output rows
//!   share one streaming pass over `B`, so `B` is read `rows/block` times
//!   instead of `rows` times.
//!
//! The parallel variants split the row range with the shared
//! [`crate::partition`] helper and run the chunks as tasks on the global
//! work-stealing pool ([`avcc_pool`]); they are used by the threaded cluster
//! executor where a worker may own several cores, and by the benchmarks that
//! calibrate the simulator's compute-cost model. Because the chunks are pool
//! tasks rather than dedicated OS threads, these kernels can be called from
//! *inside* other pool tasks (the simulated cluster's per-worker dispatch)
//! without oversubscribing the machine: the `threads` argument caps the
//! chunk count, and the pool schedules chunks onto its fixed worker set.

use avcc_field::batch::{assert_wide_batch, narrow_lanes, Lane};
use avcc_field::{Fp, PrimeModulus, WideAccumulator};

use crate::matrix::Matrix;
use crate::partition::{auto_chunk_count, chunk_ranges, pool_map};

/// Number of output rows that share one streaming pass over `B` (or over `x`)
/// in the blocked kernels. Chosen so a strip of accumulator lanes for
/// typical widths stays within L2 while still cutting memory traffic on the
/// streamed operand by the same factor.
pub const MAT_MAT_ROW_BLOCK: usize = 8;

/// Work-size threshold below which the parallel kernels stay serial.
const PARALLEL_MIN_ELEMENTS: usize = 1 << 14;

/// Serial matrix–vector product `A·x` over the field.
///
/// Rows are processed four at a time so each streamed load of `x[j]` feeds
/// four multiply-adds; accumulation is lazy with one reduction per row per
/// lane batch ([`PrimeModulus::NARROW_BATCH`] or
/// [`PrimeModulus::WIDE_BATCH`] products).
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn mat_vec<M: PrimeModulus>(a: &Matrix<Fp<M>>, x: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.cols(), x.len(), "mat_vec dimension mismatch");
    mat_vec_rows(a, x, 0..a.rows())
}

/// The row-range worker behind [`mat_vec`] / [`mat_vec_parallel`], on the
/// modulus's lane width ([`narrow_lanes`]).
fn mat_vec_rows<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    x: &[Fp<M>],
    rows: core::ops::Range<usize>,
) -> Vec<Fp<M>> {
    if const { narrow_lanes::<M>() } {
        mat_vec_rows_in::<M, u64>(a, x, rows)
    } else {
        mat_vec_rows_in::<M, u128>(a, x, rows)
    }
}

/// [`mat_vec_rows`] accumulating in lane type `L`.
fn mat_vec_rows_in<M: PrimeModulus, L: Lane>(
    a: &Matrix<Fp<M>>,
    x: &[Fp<M>],
    rows: core::ops::Range<usize>,
) -> Vec<Fp<M>> {
    const { assert_wide_batch::<M>() }
    let batch = L::batch::<M>();
    let mut out = Vec::with_capacity(rows.len());
    let mut row = rows.start;
    // Four-row micro-kernel: one pass over x feeds four accumulators.
    while row + 4 <= rows.end {
        // Canonical running totals, collapsed once per batch of columns.
        let mut totals = [0u64; 4];
        for (index, xs) in x.chunks(batch).enumerate() {
            let start = index * batch;
            let n = xs.len();
            let r0 = &a.row(row)[start..start + n];
            let r1 = &a.row(row + 1)[start..start + n];
            let r2 = &a.row(row + 2)[start..start + n];
            let r3 = &a.row(row + 3)[start..start + n];
            let mut acc = totals.map(L::from);
            for j in 0..n {
                let xj = xs[j].value();
                acc[0] += L::product(r0[j].value(), xj);
                acc[1] += L::product(r1[j].value(), xj);
                acc[2] += L::product(r2[j].value(), xj);
                acc[3] += L::product(r3[j].value(), xj);
            }
            totals = acc.map(|lane| lane.reduce::<M>());
        }
        out.extend(totals.map(Fp::<M>::new));
        row += 4;
    }
    // Remainder rows: plain lazy dot.
    for r in row..rows.end {
        out.push(avcc_field::dot(a.row(r), x));
    }
    out
}

/// Serial transpose–vector product `Aᵀ·y` over the field, computed without
/// materializing the transpose: one [`WideAccumulator`] over the output
/// columns absorbs `y[i]·A[i,·]` per row, reducing lazily.
///
/// # Panics
/// Panics if `y.len() != A.rows()`.
pub fn matt_vec<M: PrimeModulus>(a: &Matrix<Fp<M>>, y: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.rows(), y.len(), "matt_vec dimension mismatch");
    matt_vec_rows(a, y, 0..a.rows())
}

/// Partial transpose–vector product over a row range (full-width output).
fn matt_vec_rows<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    y: &[Fp<M>],
    rows: core::ops::Range<usize>,
) -> Vec<Fp<M>> {
    let mut accumulator = WideAccumulator::<M>::new(a.cols());
    for row in rows {
        accumulator.axpy(y[row], a.row(row));
    }
    accumulator.finish()
}

/// Serial matrix–matrix product `A·B` over the field, cache-blocked: strips
/// of [`MAT_MAT_ROW_BLOCK`] output rows share one streaming pass over `B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn mat_mat<M: PrimeModulus>(a: &Matrix<Fp<M>>, b: &Matrix<Fp<M>>) -> Matrix<Fp<M>> {
    assert_eq!(a.cols(), b.rows(), "mat_mat dimension mismatch");
    Matrix::from_vec(a.rows(), b.cols(), mat_mat_rows(a, b, 0..a.rows()))
}

/// The row-strip worker behind [`mat_mat`] / [`mat_mat_parallel`]: computes
/// output rows `rows` in row-major order.
fn mat_mat_rows<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    b: &Matrix<Fp<M>>,
    rows: core::ops::Range<usize>,
) -> Vec<Fp<M>> {
    let mut out = Vec::with_capacity(rows.len() * b.cols());
    let mut strip_start = rows.start;
    while strip_start < rows.end {
        let strip_end = (strip_start + MAT_MAT_ROW_BLOCK).min(rows.end);
        let mut accumulators: Vec<WideAccumulator<M>> = (strip_start..strip_end)
            .map(|_| WideAccumulator::new(b.cols()))
            .collect();
        // One pass over B serves the whole strip.
        for k in 0..a.cols() {
            let b_row = b.row(k);
            for (offset, accumulator) in accumulators.iter_mut().enumerate() {
                let a_ik = *a.get(strip_start + offset, k);
                if a_ik.value() != 0 {
                    accumulator.axpy(a_ik, b_row);
                }
            }
        }
        for accumulator in accumulators {
            out.extend(accumulator.finish());
        }
        strip_start = strip_end;
    }
    out
}

/// Multi-threaded matrix–vector product: rows are split into `threads`
/// contiguous chunks by the shared [`crate::partition`] helper.
///
/// Falls back to the serial kernel when `threads <= 1` or the matrix is small
/// enough that threading overhead would dominate.
pub fn mat_vec_parallel<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    x: &[Fp<M>],
    threads: usize,
) -> Vec<Fp<M>> {
    assert_eq!(a.cols(), x.len(), "mat_vec_parallel dimension mismatch");
    let rows = a.rows();
    if threads <= 1 || rows < 2 * threads || rows * a.cols() < PARALLEL_MIN_ELEMENTS {
        return mat_vec(a, x);
    }
    let partials = pool_map(chunk_ranges(rows, threads), |range| {
        mat_vec_rows(a, x, range)
    });
    partials.into_iter().flatten().collect()
}

/// Multi-threaded transpose–vector product: the row range is split across
/// threads by the shared [`crate::partition`] helper, each producing a
/// partial column accumulation that is then reduced.
pub fn matt_vec_parallel<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    y: &[Fp<M>],
    threads: usize,
) -> Vec<Fp<M>> {
    assert_eq!(a.rows(), y.len(), "matt_vec_parallel dimension mismatch");
    let rows = a.rows();
    if threads <= 1 || rows < 2 * threads || rows * a.cols() < PARALLEL_MIN_ELEMENTS {
        return matt_vec(a, y);
    }
    let partials = pool_map(chunk_ranges(rows, threads), |range| {
        matt_vec_rows(a, y, range)
    });
    let mut result = vec![Fp::<M>::ZERO; a.cols()];
    for partial in partials {
        avcc_field::slice_add_assign(&mut result, &partial);
    }
    result
}

/// Multi-threaded matrix–matrix product: output row strips are split across
/// threads by the shared [`crate::partition`] helper.
pub fn mat_mat_parallel<M: PrimeModulus>(
    a: &Matrix<Fp<M>>,
    b: &Matrix<Fp<M>>,
    threads: usize,
) -> Matrix<Fp<M>> {
    assert_eq!(a.cols(), b.rows(), "mat_mat_parallel dimension mismatch");
    let rows = a.rows();
    if threads <= 1 || rows < 2 * threads || rows * a.cols() * b.cols() < PARALLEL_MIN_ELEMENTS {
        return mat_mat(a, b);
    }
    let partials = pool_map(chunk_ranges(rows, threads), |range| {
        mat_mat_rows(a, b, range)
    });
    Matrix::from_vec(rows, b.cols(), partials.into_iter().flatten().collect())
}

/// Matrix–vector product with autotuned fan-out: the chunk count comes from
/// [`crate::partition::auto_chunk_count`] (work size × global pool width)
/// instead of a caller-fixed thread count.
pub fn mat_vec_auto<M: PrimeModulus>(a: &Matrix<Fp<M>>, x: &[Fp<M>]) -> Vec<Fp<M>> {
    mat_vec_parallel(a, x, auto_chunk_count(a.rows(), a.cols()))
}

/// Transpose–vector product with autotuned fan-out (see [`mat_vec_auto`]).
pub fn matt_vec_auto<M: PrimeModulus>(a: &Matrix<Fp<M>>, y: &[Fp<M>]) -> Vec<Fp<M>> {
    matt_vec_parallel(a, y, auto_chunk_count(a.rows(), a.cols()))
}

/// Matrix–matrix product with autotuned fan-out; per output row the work is
/// a `cols × B.cols` pass, which is what the chunk sizing weighs.
pub fn mat_mat_auto<M: PrimeModulus>(a: &Matrix<Fp<M>>, b: &Matrix<Fp<M>>) -> Matrix<Fp<M>> {
    mat_mat_parallel(a, b, auto_chunk_count(a.rows(), a.cols() * b.cols()))
}

/// Left vector–matrix product `rᵀ·A` over the field — the kernel of Freivalds
/// key generation (`s = r · X̃`).
pub fn vec_mat<M: PrimeModulus>(r: &[Fp<M>], a: &Matrix<Fp<M>>) -> Vec<Fp<M>> {
    assert_eq!(r.len(), a.rows(), "vec_mat dimension mismatch");
    matt_vec(a, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeField, F25, F61, P61};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<F25> {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
                .collect(),
        )
    }

    fn random_vector(rng: &mut StdRng, len: usize) -> Vec<F25> {
        (0..len)
            .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
            .collect()
    }

    /// Elementwise reference kernel (the pre-lazy-reduction implementation).
    fn mat_vec_reference(a: &Matrix<F25>, x: &[F25]) -> Vec<F25> {
        a.rows_iter()
            .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
            .collect()
    }

    #[test]
    fn mat_vec_matches_manual_example() {
        let a = Matrix::from_vec(
            2,
            3,
            [1u64, 2, 3, 4, 5, 6]
                .iter()
                .map(|&v| F25::from_u64(v))
                .collect(),
        );
        let x: Vec<F25> = [1u64, 1, 1].iter().map(|&v| F25::from_u64(v)).collect();
        assert_eq!(mat_vec(&a, &x), vec![F25::from_u64(6), F25::from_u64(15)]);
    }

    #[test]
    fn mat_vec_matches_elementwise_reference_across_row_remainders() {
        // 4-row blocking: exercise every remainder class (0..=3 leftover rows).
        let mut rng = StdRng::seed_from_u64(6);
        for rows in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 15] {
            let a = random_matrix(&mut rng, rows, 11);
            let x = random_vector(&mut rng, 11);
            assert_eq!(mat_vec(&a, &x), mat_vec_reference(&a, &x), "rows = {rows}");
        }
    }

    #[test]
    fn mat_vec_crosses_the_p61_reduction_batch() {
        // Width beyond WIDE_BATCH forces mid-row collapses in F_{2^61-1}.
        let mut rng = StdRng::seed_from_u64(61);
        let cols = P61::WIDE_BATCH * 2 + 3;
        let a = Matrix::from_vec(
            5,
            cols,
            (0..5 * cols)
                .map(|_| F61::from_u64(rng.gen_range(0..F61::MODULUS)))
                .collect(),
        );
        let x: Vec<F61> = (0..cols)
            .map(|_| F61::from_u64(rng.gen_range(0..F61::MODULUS)))
            .collect();
        let reference: Vec<F61> = a
            .rows_iter()
            .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
            .collect();
        assert_eq!(mat_vec(&a, &x), reference);
    }

    /// Explicit `u128` references for the narrow-lane equivalence tests:
    /// every product reduced on its own, summed in a `u128`.
    fn reference_mat_vec<M: PrimeModulus>(a: &Matrix<Fp<M>>, x: &[Fp<M>]) -> Vec<Fp<M>> {
        a.rows_iter()
            .map(|row| {
                let total: u128 = row
                    .iter()
                    .zip(x)
                    .map(|(p, q)| (*p * *q).value() as u128)
                    .sum();
                Fp::new(M::reduce_wide(total))
            })
            .collect()
    }

    fn reference_matt_vec<M: PrimeModulus>(a: &Matrix<Fp<M>>, y: &[Fp<M>]) -> Vec<Fp<M>> {
        (0..a.cols())
            .map(|j| {
                let total: u128 = (0..a.rows())
                    .map(|i| (*a.get(i, j) * y[i]).value() as u128)
                    .sum();
                Fp::new(M::reduce_wide(total))
            })
            .collect()
    }

    #[test]
    fn narrow_lane_kernels_match_u128_reference_across_the_batch() {
        // mat_vec rows and matt_vec columns accumulate `len` products; the
        // lengths sit below, at, just past and well past the u64 batch.
        // Five rows run the four-row micro-kernel and one remainder row.
        fn check<M: PrimeModulus>() {
            let batch = M::NARROW_BATCH.min(avcc_field::P25::NARROW_BATCH);
            let mut rng = StdRng::seed_from_u64(M::MODULUS);
            for len in [batch - 1, batch, batch + 1, 2 * batch + 3] {
                let random = |rng: &mut StdRng, n: usize| -> Vec<Fp<M>> {
                    (0..n)
                        .map(|_| Fp::new(rng.gen_range(0..M::MODULUS)))
                        .collect()
                };
                let top = |n: usize| vec![Fp::<M>::new(M::MODULUS - 1); n];
                for (a, v) in [
                    (random(&mut rng, 5 * len), random(&mut rng, len)),
                    (top(5 * len), top(len)),
                ] {
                    let wide = Matrix::from_vec(5, len, a.clone());
                    assert_eq!(
                        mat_vec(&wide, &v),
                        reference_mat_vec(&wide, &v),
                        "{} mat_vec len {len}",
                        M::NAME
                    );
                    let tall = Matrix::from_vec(len, 5, a);
                    assert_eq!(
                        matt_vec(&tall, &v),
                        reference_matt_vec(&tall, &v),
                        "{} matt_vec len {len}",
                        M::NAME
                    );
                }
            }
        }
        check::<avcc_field::P25>();
        check::<avcc_field::P251>();
    }

    #[test]
    fn matt_vec_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 13, 7);
        let y = random_vector(&mut rng, 13);
        let via_transpose = mat_vec(&a.transpose(), &y);
        assert_eq!(matt_vec(&a, &y), via_transpose);
    }

    #[test]
    fn mat_mat_matches_mat_vec_per_column() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_matrix(&mut rng, 5, 4);
        let b = random_matrix(&mut rng, 4, 3);
        let product = mat_mat(&a, &b);
        for j in 0..3 {
            let column: Vec<F25> = (0..4).map(|k| *b.get(k, j)).collect();
            let expected = mat_vec(&a, &column);
            for (i, &value) in expected.iter().enumerate() {
                assert_eq!(*product.get(i, j), value);
            }
        }
    }

    #[test]
    fn mat_mat_blocking_handles_strip_remainders() {
        let mut rng = StdRng::seed_from_u64(13);
        for rows in [1usize, 7, 8, 9, 17] {
            let a = random_matrix(&mut rng, rows, 6);
            let b = random_matrix(&mut rng, 6, 5);
            let blocked = mat_mat(&a, &b);
            for i in 0..rows {
                let expected: Vec<F25> = (0..5)
                    .map(|j| (0..6).map(|k| *a.get(i, k) * *b.get(k, j)).sum())
                    .collect();
                assert_eq!(blocked.row(i), &expected[..], "rows = {rows}, i = {i}");
            }
        }
    }

    #[test]
    fn parallel_mat_vec_matches_serial() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_matrix(&mut rng, 256, 128);
        let x = random_vector(&mut rng, 128);
        for threads in [1, 2, 4, 7] {
            assert_eq!(mat_vec_parallel(&a, &x, threads), mat_vec(&a, &x));
        }
    }

    #[test]
    fn parallel_matt_vec_matches_serial() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_matrix(&mut rng, 300, 64);
        let y = random_vector(&mut rng, 300);
        for threads in [1, 2, 3, 8] {
            assert_eq!(matt_vec_parallel(&a, &y, threads), matt_vec(&a, &y));
        }
    }

    #[test]
    fn parallel_mat_mat_matches_serial() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = random_matrix(&mut rng, 64, 48);
        let b = random_matrix(&mut rng, 48, 32);
        for threads in [1, 2, 3, 8] {
            assert_eq!(mat_mat_parallel(&a, &b, threads), mat_mat(&a, &b));
        }
    }

    #[test]
    fn auto_kernels_match_serial() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = random_matrix(&mut rng, 200, 96);
        let x = random_vector(&mut rng, 96);
        let y = random_vector(&mut rng, 200);
        let b = random_matrix(&mut rng, 96, 40);
        assert_eq!(mat_vec_auto(&a, &x), mat_vec(&a, &x));
        assert_eq!(matt_vec_auto(&a, &y), matt_vec(&a, &y));
        assert_eq!(mat_mat_auto(&a, &b), mat_mat(&a, &b));
    }

    #[test]
    fn small_matrices_fall_back_to_serial_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 4, 4);
        let x = random_vector(&mut rng, 4);
        assert_eq!(mat_vec_parallel(&a, &x, 8), mat_vec(&a, &x));
    }

    #[test]
    fn vec_mat_is_left_multiplication() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_matrix(&mut rng, 6, 9);
        let r = random_vector(&mut rng, 6);
        assert_eq!(vec_mat(&r, &a), mat_vec(&a.transpose(), &r));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mat_vec_rejects_bad_dimensions() {
        let a: Matrix<F25> = Matrix::zeros(2, 3);
        let _ = mat_vec(&a, &[F25::ZERO; 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_mat_vec_is_linear(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, 9, 6);
            let x = random_vector(&mut rng, 6);
            let y = random_vector(&mut rng, 6);
            let sum: Vec<F25> = x.iter().zip(y.iter()).map(|(&p, &q)| p + q).collect();
            let lhs = mat_vec(&a, &sum);
            let rhs: Vec<F25> = mat_vec(&a, &x)
                .into_iter()
                .zip(mat_vec(&a, &y))
                .map(|(p, q)| p + q)
                .collect();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_freivalds_identity_holds(seed in any::<u64>()) {
            // r · (A x) == (rᵀ A) · x — the algebraic identity Freivalds
            // verification relies on.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, 8, 5);
            let x = random_vector(&mut rng, 5);
            let r = random_vector(&mut rng, 8);
            let ax = mat_vec(&a, &x);
            let lhs = avcc_field::dot(&r, &ax);
            let rta = vec_mat(&r, &a);
            let rhs = avcc_field::dot(&rta, &x);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_mat_mat_matches_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, 10, 7);
            let b = random_matrix(&mut rng, 7, 6);
            let product = mat_mat(&a, &b);
            for i in 0..10 {
                for j in 0..6 {
                    let expected: F25 = (0..7).map(|k| *a.get(i, k) * *b.get(k, j)).sum();
                    prop_assert_eq!(*product.get(i, j), expected);
                }
            }
        }
    }
}
