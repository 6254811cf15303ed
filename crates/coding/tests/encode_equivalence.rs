//! The tiled, pool-parallel Lagrange encode against its definition: every
//! share must equal the explicit combination `Σ_j U[j][i]·X_j` over the data
//! blocks and the privacy pads, with the pads drawn from the caller's rng as
//! `T` consecutive `rows × cols` matrices right at the start of the encode.
//!
//! The grid covers three moduli on the standard (matrix-path) points,
//! `T ∈ {0, 2}`, share lengths below, at and across the encoder's
//! 1024-coordinate tile, lengths that span several pool tasks, and row
//! counts not divisible by `K` (through [`EncodedDataset::encode`]).

use std::sync::Mutex;

use avcc_coding::{EncodedDataset, EncodedShare, EvaluationPoints, LagrangeEncoder, SchemeConfig};
use avcc_field::{random_matrix, Fp, PrimeModulus, P25, P61, P64};
use avcc_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Share lengths (`rows × cols`) around the encoder's 1024-coordinate tile:
/// below one tile, exactly one, a non-multiple spanning a few tiles, and one
/// spanning several pool tasks with a ragged last tile.
const SHAPES: [(usize, usize); 4] = [(3, 5), (32, 32), (7, 301), (41, 251)];

/// `Σ_j U[j][i]·inputs[j]` for every worker `i`, one coordinate at a time.
fn reference_shares<M: PrimeModulus>(
    encoder: &LagrangeEncoder<M>,
    inputs: &[Vec<Fp<M>>],
) -> Vec<Vec<Fp<M>>> {
    let matrix = encoder.encoding_matrix();
    (0..encoder.config().workers)
        .map(|worker| {
            (0..inputs[0].len())
                .map(|coordinate| {
                    inputs
                        .iter()
                        .enumerate()
                        .map(|(j, input)| matrix[j][worker] * input[coordinate])
                        .fold(Fp::<M>::ZERO, |acc, term| acc + term)
                })
                .collect()
        })
        .collect()
}

/// The data blocks followed by `T` pads drawn from `rng` in the encoder's
/// order.
fn blocks_and_pads<M: PrimeModulus, R: Rng>(
    blocks: &[Vec<Fp<M>>],
    colluding: usize,
    rows: usize,
    cols: usize,
    rng: &mut R,
) -> Vec<Vec<Fp<M>>> {
    let mut inputs = blocks.to_vec();
    inputs.extend((0..colluding).map(|_| random_matrix(rng, rows, cols)));
    inputs
}

fn assert_shares_match<M: PrimeModulus>(shares: &[EncodedShare<M>], expected: &[Vec<Fp<M>>]) {
    assert_eq!(shares.len(), expected.len());
    for (share, want) in shares.iter().zip(expected) {
        assert_eq!(share.block.data(), &want[..], "worker {}", share.worker);
    }
}

fn check_modulus<M: PrimeModulus>(seed: u64) {
    for colluding in [0, 2] {
        let config = SchemeConfig::new(12, 7, 2, 1, colluding, 1).unwrap();
        let encoder =
            LagrangeEncoder::<M>::with_points(config, EvaluationPoints::standard(7, colluding, 12));
        assert!(!encoder.uses_ntt());
        for (index, &(rows, cols)) in SHAPES.iter().enumerate() {
            let case = seed + 10 * index as u64 + colluding as u64;
            let mut data_rng = StdRng::seed_from_u64(case);
            let blocks: Vec<Vec<Fp<M>>> = (0..7)
                .map(|_| random_matrix(&mut data_rng, rows, cols))
                .collect();
            let matrices: Vec<Matrix<Fp<M>>> = blocks
                .iter()
                .map(|block| Matrix::from_vec(rows, cols, block.clone()))
                .collect();

            let mut rng = StdRng::seed_from_u64(case ^ 0xA5A5);
            let shares = encoder.encode(&matrices, &mut rng);
            let mut reference_rng = StdRng::seed_from_u64(case ^ 0xA5A5);
            let inputs = blocks_and_pads(&blocks, colluding, rows, cols, &mut reference_rng);
            assert_shares_match(&shares, &reference_shares(&encoder, &inputs));
            // The encode consumed exactly the T pads from the caller's rng.
            assert_eq!(rng.next_u64(), reference_rng.next_u64());

            // The slice entry point is the same encode.
            let slices: Vec<&[Fp<M>]> = blocks.iter().map(Vec::as_slice).collect();
            let mut rng = StdRng::seed_from_u64(case ^ 0xA5A5);
            assert_eq!(encoder.encode_slices(&slices, rows, cols, &mut rng), shares);
        }
    }
}

#[test]
fn tiled_encode_matches_the_explicit_combination_on_p25() {
    check_modulus::<P25>(100);
}

#[test]
fn tiled_encode_matches_the_explicit_combination_on_p61() {
    check_modulus::<P61>(200);
}

#[test]
fn tiled_encode_matches_the_explicit_combination_on_p64() {
    check_modulus::<P64>(300);
}

/// The blocks [`EncodedDataset::encode`] is defined on: `matrix` padded with
/// zero rows to a multiple of `K`, split into `K` row blocks.
fn padded_blocks<M: PrimeModulus>(matrix: &Matrix<Fp<M>>, parts: usize) -> Vec<Vec<Fp<M>>> {
    let block_rows = matrix.rows().div_ceil(parts);
    let mut data = matrix.data().to_vec();
    data.resize(parts * block_rows * matrix.cols(), Fp::<M>::ZERO);
    data.chunks(block_rows * matrix.cols())
        .map(<[Fp<M>]>::to_vec)
        .collect()
}

fn check_dataset(rows: usize, cols: usize, colluding: usize, seed: u64) {
    let config = SchemeConfig::new(12, 9, 1, 0, colluding, 1).unwrap();
    let mut data_rng = StdRng::seed_from_u64(seed);
    let matrix = Matrix::from_vec(
        rows,
        cols,
        random_matrix::<P25, _>(&mut data_rng, rows, cols),
    );
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let dataset = EncodedDataset::encode(&matrix, config, &mut rng);

    let block_rows = rows.div_ceil(9);
    assert_eq!(dataset.block_rows(), block_rows);
    assert_eq!(dataset.output_rows(), rows);
    let encoder = LagrangeEncoder::<P25>::new(config);
    let mut reference_rng = StdRng::seed_from_u64(seed + 1);
    let inputs = blocks_and_pads(
        &padded_blocks(&matrix, 9),
        colluding,
        block_rows,
        cols,
        &mut reference_rng,
    );
    let expected = reference_shares(&encoder, &inputs);
    for (worker, share) in dataset.shares().iter().enumerate() {
        assert_eq!((share.rows(), share.cols()), (block_rows, cols));
        assert_eq!(share.data(), &expected[worker][..], "worker {worker}");
    }
    assert_eq!(rng.next_u64(), reference_rng.next_u64());
}

#[test]
fn dataset_encode_borrows_whole_blocks_and_pads_ragged_rows() {
    for colluding in [0, 2] {
        // Divisible rows, then ragged tails of one, several and all-but-one
        // short block, then fewer rows than partitions.
        for rows in [18, 19, 20, 26, 5] {
            check_dataset(rows, 37, colluding, 40 + rows as u64);
        }
        // Shares longer than one pool task.
        check_dataset(9 * 40, 300, colluding, 41);
    }
}

#[test]
fn dataset_encode_inside_a_pool_task_completes_and_matches() {
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut data_rng = StdRng::seed_from_u64(7);
    let matrix = Matrix::from_vec(180, 90, random_matrix::<P25, _>(&mut data_rng, 180, 90));
    let outside = EncodedDataset::encode(&matrix, config, &mut StdRng::seed_from_u64(8));
    let inside = Mutex::new(Vec::new());
    avcc_pool::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let dataset =
                    EncodedDataset::encode(&matrix, config, &mut StdRng::seed_from_u64(8));
                inside.lock().unwrap().push(dataset);
            });
        }
    });
    let inside = inside.into_inner().unwrap();
    assert_eq!(inside.len(), 2);
    for dataset in &inside {
        assert_eq!(dataset.shares(), outside.shares());
    }
}
