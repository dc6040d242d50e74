//! K-nearest-neighbour graph construction from attribute views.
//!
//! The paper (Section III-B) converts each attribute view `Xⱼ` into a KNN
//! graph `G_K(Xⱼ)`: every node connects to its `K` most cosine-similar
//! nodes, each edge weighted by the similarity. The result is symmetrized
//! by keeping an edge if *either* endpoint selected the other (union),
//! which is the prevalent convention (e.g. 2CMV \[26\]).
//!
//! Construction is the exact brute-force `O(n² d / threads)`; the
//! paper's `qnK` terms count the *resulting* nonzeros, and the
//! construction itself is a one-time preprocessing cost reported as part
//! of total runtime in Figures 5–6 (as we do in the harness).
//!
//! # The blocked kernel
//!
//! Scoring one row against all `n` rows streams the whole normalized
//! matrix through the cache once per row, so a row-at-a-time scan is
//! bound by memory bandwidth, not arithmetic. The kernel here works on
//! tiles of 8 query rows × 2 candidate rows instead:
//!
//! * the 8 query rows of a tile are packed transposed (`pk[t][b]`), so
//!   the 8 per-query accumulators of one candidate are contiguous lanes
//!   that plain SSE2 vectorizes without any target-feature flag;
//! * candidate rows stream in ascending `j`, two per step (an odd tail
//!   takes one), so each candidate row is loaded once per *tile* instead
//!   of once per query row — about 8× less memory traffic.
//!
//! The results are bit-identical to the scalar scan
//! (`vecops::dot` per pair) by construction: every (query, candidate)
//! pair keeps its own accumulator, summed in ascending `t` as a plain
//! multiply then add (no FMA, no reassociation) from the same initial
//! value `Iterator::sum` starts at. The similarities then enter the same
//! sorted-insertion selection in the same ascending-`j` order, so
//! neighbour sets, tie resolution and edge weights cannot differ. The
//! vectorization runs *across* query rows, never along `t`, which is why
//! it needs no reassociation.

use crate::{Graph, GraphError, Result};
use mvag_sparse::parallel::par_map;
use mvag_sparse::{vecops, CooMatrix, DenseMatrix};

/// Query rows per tile: 8 f64 accumulators per candidate are four SSE2
/// registers, so the two candidates of a step hold 8 of the 16.
const QUERY_BLOCK: usize = 8;

/// Parameters for KNN graph construction.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Number of neighbours per node (the paper uses K = 10 by default and
    /// larger values for attribute-rich datasets).
    pub k: usize,
    /// Worker threads (default: autodetect, ≤ 16).
    pub threads: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 10,
            threads: mvag_sparse::parallel::default_threads(),
        }
    }
}

/// Builds the similarity-weighted KNN graph of the rows of `x`.
///
/// Only strictly positive cosine similarities produce edges (a node with
/// no positively-similar peers can end up with fewer than `k` neighbours,
/// or isolated — downstream code must tolerate isolated nodes, and the
/// connectivity objective is what steers SGLA's weights away from such
/// views).
///
/// # Errors
/// [`GraphError::InvalidArgument`] if `k == 0`, `k >= n`, or `x` holds a
/// non-finite value.
pub fn knn_graph(x: &DenseMatrix, config: &KnnConfig) -> Result<Graph> {
    let (normed, zero_rows) = normalized_rows(x, config.k)?;
    let per_row = top_k_tiled(&normed, &zero_rows, config.k, config.threads);
    symmetrize(&per_row)
}

/// Validates `k` and the values of `x`, then scales every row to unit
/// norm so cosine reduces to a dot product. Rows of (near-)zero norm are
/// left as they are and flagged: they get no neighbours and are nobody's
/// neighbour.
fn normalized_rows(x: &DenseMatrix, k: usize) -> Result<(DenseMatrix, Vec<bool>)> {
    let n = x.nrows();
    if k == 0 {
        return Err(GraphError::InvalidArgument("knn k must be >= 1".into()));
    }
    if k >= n {
        return Err(GraphError::InvalidArgument(format!(
            "knn k = {k} must be < n = {n}"
        )));
    }
    let mut normed = x.clone();
    let mut zero_rows = vec![false; n];
    for r in 0..n {
        let row = normed.row_mut(r);
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GraphError::InvalidArgument(format!(
                "knn input row {r} holds a non-finite value"
            )));
        }
        let nrm = vecops::norm2(row);
        if nrm > f64::MIN_POSITIVE {
            let inv = 1.0 / nrm;
            for v in row {
                *v *= inv;
            }
        } else {
            zero_rows[r] = true;
        }
    }
    Ok((normed, zero_rows))
}

/// Offers candidate `j` with similarity `sim` to one row's top-`k` list.
///
/// Bounded min-heap via sorted insertion into a small vec: K is small
/// (10–500), and a linear insert beats a BinaryHeap at these sizes
/// because of cache behaviour. Candidates must arrive in ascending `j`;
/// that order is what resolves ties.
fn offer(best: &mut Vec<(usize, f64)>, k: usize, j: usize, sim: f64) {
    if best.len() < k {
        best.push((j, sim));
        if best.len() == k {
            best.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        }
    } else if sim > best[0].1 {
        // Replace current minimum, restore order.
        best[0] = (j, sim);
        let mut idx = 0;
        while idx + 1 < best.len() && best[idx].1 > best[idx + 1].1 {
            best.swap(idx, idx + 1);
            idx += 1;
        }
    }
}

/// Per-row top-`k` lists of the unit-norm rows of `normed`, parallel over
/// tiles of [`QUERY_BLOCK`] query rows (see the module docs).
fn top_k_tiled(
    normed: &DenseMatrix,
    zero_rows: &[bool],
    k: usize,
    threads: usize,
) -> Vec<Vec<(usize, f64)>> {
    let n = normed.nrows();
    // `Iterator::sum`'s starting value (-0.0 on current toolchains), so
    // every accumulator starts exactly where `vecops::dot`'s does.
    let init: f64 = std::iter::empty::<f64>().sum();
    let tiles = par_map(n.div_ceil(QUERY_BLOCK), threads, |tile| {
        let i0 = tile * QUERY_BLOCK;
        let rows = QUERY_BLOCK.min(n - i0);
        // Transposed pack: pk[t][b] = x[i0 + b][t]; unused lanes of a
        // tail tile stay zero and their sums are never read.
        let mut pk = vec![[0.0f64; QUERY_BLOCK]; normed.ncols()];
        for b in 0..rows {
            for (lane, &v) in pk.iter_mut().zip(normed.row(i0 + b)) {
                lane[b] = v;
            }
        }
        let mut best: Vec<Vec<(usize, f64)>> =
            (0..rows).map(|_| Vec::with_capacity(k + 1)).collect();
        let mut offer_all = |j: usize, sims: &[f64; QUERY_BLOCK]| {
            if zero_rows[j] {
                return;
            }
            for (b, list) in best.iter_mut().enumerate() {
                let sim = sims[b];
                if i0 + b != j && !zero_rows[i0 + b] && sim > 0.0 {
                    offer(list, k, j, sim);
                }
            }
        };
        let mut j = 0;
        while j + 1 < n {
            let (y0, y1) = (normed.row(j), normed.row(j + 1));
            let mut s0 = [init; QUERY_BLOCK];
            let mut s1 = [init; QUERY_BLOCK];
            for ((q, &v0), &v1) in pk.iter().zip(y0).zip(y1) {
                for b in 0..QUERY_BLOCK {
                    s0[b] += q[b] * v0;
                    s1[b] += q[b] * v1;
                }
            }
            offer_all(j, &s0);
            offer_all(j + 1, &s1);
            j += 2;
        }
        if j < n {
            let mut s0 = [init; QUERY_BLOCK];
            for (q, &v0) in pk.iter().zip(normed.row(j)) {
                for b in 0..QUERY_BLOCK {
                    s0[b] += q[b] * v0;
                }
            }
            offer_all(j, &s0);
        }
        best
    });
    tiles.into_iter().flatten().collect()
}

/// Union-symmetrizes per-row neighbour lists into a graph: edge weight =
/// max of the two directed similarities (they are equal for cosine, so
/// max == the similarity itself).
fn symmetrize(per_row: &[Vec<(usize, f64)>]) -> Result<Graph> {
    let n = per_row.len();
    let mut coo = CooMatrix::with_capacity(n, n, per_row.iter().map(Vec::len).sum::<usize>() * 2);
    let mut seen: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for (i, nbrs) in per_row.iter().enumerate() {
        for &(j, sim) in nbrs {
            let key = (i.min(j), i.max(j));
            if seen.insert(key) {
                coo.push_sym(key.0, key.1, sim.clamp(0.0, 1.0))
                    .map_err(GraphError::from)?;
            }
        }
    }
    Graph::from_adjacency(coo.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-at-a-time scalar scan the tiled kernel replaced: each row
    /// against every row through `vecops::dot`, offered in ascending `j`.
    /// Kept as the bit-identity oracle.
    fn reference_knn_graph(x: &DenseMatrix, config: &KnnConfig) -> Result<Graph> {
        let (normed, zero_rows) = normalized_rows(x, config.k)?;
        let n = normed.nrows();
        let per_row: Vec<Vec<(usize, f64)>> = par_map(n, config.threads, |i| {
            let mut best = Vec::with_capacity(config.k + 1);
            if zero_rows[i] {
                return best;
            }
            for j in 0..n {
                if j == i || zero_rows[j] {
                    continue;
                }
                let sim = vecops::dot(normed.row(i), normed.row(j));
                if sim > 0.0 {
                    offer(&mut best, config.k, j, sim);
                }
            }
            best
        });
        symmetrize(&per_row)
    }

    /// Rows drawn from a small pool of mixed-sign base rows, some exact
    /// duplicates (tied similarities) and some all-zero.
    fn oracle_input(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = TestRng::new(seed);
        let value = |rng: &mut TestRng| rng.unit_f64() * 2.0 - 1.0;
        let pool: Vec<Vec<f64>> = (0..n.div_ceil(3).max(1))
            .map(|_| (0..d).map(|_| value(&mut rng)).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| match rng.below(8) {
                0 => vec![0.0; d],
                1 | 2 => pool[rng.below(pool.len() as u64) as usize].clone(),
                _ => (0..d).map(|_| value(&mut rng)).collect(),
            })
            .collect();
        DenseMatrix::from_rows(&rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tiled_matches_scalar_reference(
            (n, k) in (2usize..72).prop_flat_map(|n| (Just(n), 1..n)),
            d in 1usize..41,
            threads in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let x = oracle_input(n, d, seed);
            let config = KnnConfig { k, threads };
            prop_assert_eq!(
                knn_graph(&x, &config).unwrap(),
                reference_knn_graph(&x, &config).unwrap(),
                "n = {}, d = {}, k = {}, threads = {}, seed = {}", n, d, k, threads, seed
            );
        }
    }

    #[test]
    fn tiled_matches_scalar_reference_full_tiles_and_tails() {
        // 300 = 37 full tiles + a 4-row tail tile; even n, so the last
        // candidate step is a pair. n = 301 adds the odd-candidate tail.
        for n in [300, 301] {
            let x = oracle_input(n, 128, 7);
            let config = KnnConfig { k: 10, threads: 2 };
            assert_eq!(
                knn_graph(&x, &config).unwrap(),
                reference_knn_graph(&x, &config).unwrap(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn non_finite_input_rejected() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut x = two_blobs();
            x.row_mut(4)[1] = bad;
            let err = knn_graph(&x, &KnnConfig { k: 3, threads: 2 }).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidArgument(ref m) if m.contains("non-finite")),
                "{bad}: {err}"
            );
        }
    }

    /// Two well-separated clusters in 2-D.
    fn two_blobs() -> DenseMatrix {
        let mut rows = Vec::new();
        for i in 0..6 {
            let t = i as f64 * 0.05;
            rows.push(vec![1.0 + t, 0.1 * t]); // blob A near +x axis
        }
        for i in 0..6 {
            let t = i as f64 * 0.05;
            rows.push(vec![-0.1 * t - 0.05, 1.0 + t]); // blob B near +y axis
        }
        DenseMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn knn_separates_blobs() {
        let x = two_blobs();
        let g = knn_graph(&x, &KnnConfig { k: 3, threads: 2 }).unwrap();
        // No edges across the two blobs: cross-cosine is ≈ 0 or negative.
        for i in 0..6 {
            let (cols, _) = g.neighbors(i);
            for &c in cols {
                assert!(c < 6, "node {i} connected across blobs to {c}");
            }
        }
        // All nodes in a blob have neighbours.
        for i in 0..12 {
            assert!(!g.neighbors(i).0.is_empty(), "node {i} isolated");
        }
    }

    #[test]
    fn edge_weights_are_cosine_similarities() {
        let x = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 1, threads: 1 }).unwrap();
        let w = g.adjacency().get(0, 1);
        assert!((w - (0.5f64).sqrt()).abs() < 1e-12, "w = {w}");
    }

    #[test]
    fn invalid_k_rejected() {
        let x = DenseMatrix::zeros(4, 2);
        assert!(knn_graph(&x, &KnnConfig { k: 0, threads: 1 }).is_err());
        assert!(knn_graph(&x, &KnnConfig { k: 4, threads: 1 }).is_err());
    }

    #[test]
    fn zero_rows_become_isolated() {
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 0.0], // zero attributes
            vec![0.8, 0.2],
        ])
        .unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 1 }).unwrap();
        assert!(g.neighbors(2).0.is_empty());
    }

    #[test]
    fn symmetric_result() {
        let x = two_blobs();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 2 }).unwrap();
        assert!(g.adjacency().is_symmetric(1e-12));
    }

    #[test]
    fn negative_similarity_excluded() {
        let x =
            DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.9, 0.05]]).unwrap();
        let g = knn_graph(&x, &KnnConfig { k: 2, threads: 1 }).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 0.0);
        assert!(g.adjacency().get(0, 2) > 0.0);
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let x = two_blobs();
        let g1 = knn_graph(&x, &KnnConfig { k: 3, threads: 1 }).unwrap();
        let g2 = knn_graph(&x, &KnnConfig { k: 3, threads: 4 }).unwrap();
        assert_eq!(g1, g2);
    }
}
