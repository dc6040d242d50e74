//! k-means with k-means++ seeding and Lloyd iterations.
//!
//! The rounding step of spectral clustering (following \[32\]'s pipeline,
//! with k-means as the standard alternative to the rotation-based
//! discretization, which is also provided in [`clustering`](crate::clustering)).

use crate::{Result, SglaError};
use mvag_sparse::{vecops, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansParams {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iteration cap per restart (default 100).
    pub max_iters: usize,
    /// Independent restarts; the lowest-inertia run wins (default 10).
    pub restarts: usize,
    /// Relative inertia improvement below which a restart stops early.
    pub tol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl KMeansParams {
    /// Sensible defaults for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeansParams {
            k,
            max_iters: 100,
            restarts: 10,
            tol: 1e-7,
            seed: 23,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster assignment per row.
    pub labels: Vec<usize>,
    /// Final centroids (`k × d`).
    pub centroids: DenseMatrix,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// Clusters the rows of `data` into `k` groups.
///
/// # Errors
/// [`SglaError::InvalidArgument`] if `k == 0`, `k > n`, or `data` has no
/// columns.
pub fn kmeans(data: &DenseMatrix, params: &KMeansParams) -> Result<KMeansResult> {
    let n = data.nrows();
    let d = data.ncols();
    let k = params.k;
    if k == 0 || k > n {
        return Err(SglaError::InvalidArgument(format!(
            "kmeans needs 1 <= k <= n, got k = {k}, n = {n}"
        )));
    }
    if d == 0 {
        return Err(SglaError::InvalidArgument(
            "kmeans needs at least one feature".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut best: Option<KMeansResult> = None;
    for _restart in 0..params.restarts.max(1) {
        let run = lloyd(data, k, params.max_iters, params.tol, &mut rng);
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    Ok(best.expect("at least one restart"))
}

fn lloyd(
    data: &DenseMatrix,
    k: usize,
    max_iters: usize,
    tol: f64,
    rng: &mut StdRng,
) -> KMeansResult {
    let n = data.nrows();
    let d = data.ncols();
    let mut centroids = kpp_init(data, k, rng);
    let mut labels = vec![0usize; n];
    let mut dists = vec![0.0f64; n];
    let mut prev_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    for _iter in 0..max_iters {
        // Assignment.
        inertia = 0.0;
        for i in 0..n {
            let row = data.row(i);
            let mut best_c = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dist = vecops::dist2(row, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best_c = c;
                }
            }
            labels[i] = best_c;
            dists[i] = best_d;
            inertia += best_d;
        }
        // Update.
        let mut counts = vec![0usize; k];
        let mut sums = DenseMatrix::zeros(k, d);
        for i in 0..n {
            counts[labels[i]] += 1;
            let row = data.row(i);
            let srow = sums.row_mut(labels[i]);
            for (s, &x) in srow.iter_mut().zip(row) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an empty cluster at the farthest point.
                let far = (0..n)
                    .max_by(|&a, &b| dists[a].total_cmp(&dists[b]))
                    .expect("n >= 1");
                centroids.row_mut(c).copy_from_slice(data.row(far));
                dists[far] = 0.0;
            } else {
                let inv = 1.0 / counts[c] as f64;
                let crow = centroids.row_mut(c);
                for (slot, &s) in crow.iter_mut().zip(sums.row(c)) {
                    *slot = s * inv;
                }
            }
        }
        if (prev_inertia - inertia).abs() <= tol * (1.0 + inertia) {
            break;
        }
        prev_inertia = inertia;
    }
    KMeansResult {
        labels,
        centroids,
        inertia,
    }
}

/// k-means++ seeding: iteratively pick centroids with probability
/// proportional to squared distance from the nearest chosen one.
fn kpp_init(data: &DenseMatrix, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = data.nrows();
    let d = data.ncols();
    let mut centroids = DenseMatrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut min_d2: Vec<f64> = (0..n)
        .map(|i| vecops::dist2(data.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = min_d2.iter().sum();
        let pick = if total <= f64::MIN_POSITIVE {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in min_d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(data.row(pick));
        for i in 0..n {
            let dist = vecops::dist2(data.row(i), centroids.row(c));
            if dist < min_d2[i] {
                min_d2[i] = dist;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, centers: &[(f64, f64)], spread: f64, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    cx + (rng.gen::<f64>() - 0.5) * spread,
                    cy + (rng.gen::<f64>() - 0.5) * spread,
                ]);
            }
        }
        DenseMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs(30, &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 1.0, 3);
        let res = kmeans(&data, &KMeansParams::new(3)).unwrap();
        // All points in a blob share a label, and blobs differ.
        for b in 0..3 {
            let first = res.labels[b * 30];
            for i in 0..30 {
                assert_eq!(res.labels[b * 30 + i], first, "blob {b} split");
            }
        }
        assert_ne!(res.labels[0], res.labels[30]);
        assert_ne!(res.labels[30], res.labels[60]);
        assert_ne!(res.labels[0], res.labels[60]);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs(20, &[(0.0, 0.0), (5.0, 5.0)], 2.0, 7);
        let r2 = kmeans(&data, &KMeansParams::new(2)).unwrap();
        let r4 = kmeans(&data, &KMeansParams::new(4)).unwrap();
        assert!(r4.inertia <= r2.inertia + 1e-9);
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let data = blobs(2, &[(0.0, 0.0), (5.0, 5.0)], 1.0, 1);
        let res = kmeans(&data, &KMeansParams::new(4)).unwrap();
        assert!(res.inertia < 1e-12);
        let mut sorted = res.labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "all singleton clusters used");
    }

    #[test]
    fn invalid_args() {
        let data = DenseMatrix::zeros(5, 2);
        assert!(kmeans(&data, &KMeansParams::new(0)).is_err());
        assert!(kmeans(&data, &KMeansParams::new(6)).is_err());
        let empty = DenseMatrix::zeros(5, 0);
        assert!(kmeans(&empty, &KMeansParams::new(2)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(25, &[(0.0, 0.0), (8.0, 1.0)], 2.0, 5);
        let a = kmeans(&data, &KMeansParams::new(2)).unwrap();
        let b = kmeans(&data, &KMeansParams::new(2)).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn duplicate_points_handled() {
        let data = DenseMatrix::from_rows(&vec![vec![1.0, 1.0]; 10]).unwrap();
        let res = kmeans(&data, &KMeansParams::new(2)).unwrap();
        assert_eq!(res.labels.len(), 10);
        assert!(res.inertia < 1e-12);
    }
}
