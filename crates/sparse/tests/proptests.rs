//! Property-based tests for the linear algebra substrate.

use mvag_sparse::eigen::{
    jacobi_eig, smallest_eigenpairs, smallest_eigenvalues, EigOptions, EigResult,
};
use mvag_sparse::pool::WorkerPool;
use mvag_sparse::qr::qr_thin;
use mvag_sparse::{vecops, CooMatrix, CsrMatrix, DenseMatrix, FusedSumOp, LinOp};
use proptest::prelude::*;

/// Strategy: a random sparse square matrix as triplets.
fn coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |triplets| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in triplets {
                    coo.push(r, c, v).unwrap();
                }
                coo
            },
        )
    })
}

/// Strategy: a random symmetric sparse matrix.
fn sym_coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..max_nnz).prop_map(
            move |triplets| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in triplets {
                    coo.push_sym(r, c, v).unwrap();
                }
                coo
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matvec_matches_dense(coo in coo_strategy(24, 80)) {
        let csr = coo.to_csr();
        let n = csr.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_sparse = vec![0.0; n];
        csr.matvec(&x, &mut y_sparse);
        let dense = csr.to_dense();
        let mut y_dense = vec![0.0; n];
        dense.matvec(&x, &mut y_dense);
        for (a, b) in y_sparse.iter().zip(&y_dense) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy(20, 60)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_swaps_entries(coo in coo_strategy(16, 40)) {
        let csr = coo.to_csr();
        let t = csr.transpose();
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(t.get(c, r), v);
        }
    }

    #[test]
    fn symmetric_builder_gives_symmetric(coo in sym_coo_strategy(18, 50)) {
        let csr = coo.to_csr();
        prop_assert!(csr.is_symmetric(1e-12));
    }

    #[test]
    fn linear_combination_matches_elementwise(
        coo1 in coo_strategy(12, 30),
        w1 in -3.0f64..3.0,
        w2 in -3.0f64..3.0,
    ) {
        let a = coo1.to_csr();
        let n = a.nrows();
        // Second matrix on same shape: the identity.
        let b = CsrMatrix::identity(n);
        let s = CsrMatrix::linear_combination(&[&a, &b], &[w1, w2]).unwrap();
        for r in 0..n {
            for c in 0..n {
                let expect = w1 * a.get(r, c) + w2 * b.get(r, c);
                prop_assert!((s.get(r, c) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn jacobi_eigenvalues_match_trace_and_residuals(coo in sym_coo_strategy(12, 40)) {
        let a = coo.to_csr().to_dense();
        let n = a.nrows();
        let e = jacobi_eig(&a).unwrap();
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((tr - sum).abs() < 1e-8 * (1.0 + tr.abs()));
        // Residual of the extreme pairs.
        for j in [0, n - 1] {
            let v = e.vectors.col(j);
            let mut av = vec![0.0; n];
            a.matvec(&v, &mut av);
            for i in 0..n {
                prop_assert!((av[i] - e.values[j] * v[i]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn lanczos_matches_jacobi_on_symmetric(coo in sym_coo_strategy(14, 40)) {
        // Dense fallback path exercises materialization; compare full chain.
        let csr = coo.to_csr();
        let k = 3.min(csr.nrows());
        let opts = EigOptions::default();
        let lv = smallest_eigenvalues(&csr, k, &opts).unwrap();
        let jv = jacobi_eig(&csr.to_dense()).unwrap();
        for (j, (a, b)) in lv.iter().zip(jv.values.iter()).enumerate().take(k) {
            prop_assert!((a - b).abs() < 1e-7, "λ{} = {} vs {}", j, a, b);
        }
    }

    #[test]
    fn qr_orthonormal_and_reconstructs(
        rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 4),
            6..12,
        )
    ) {
        let a = DenseMatrix::from_rows(&rows).unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        let qr = q.matmul(&r).unwrap();
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn norm2_scale_invariance(v in proptest::collection::vec(-100.0f64..100.0, 1..40), s in 0.1f64..10.0) {
        let scaled: Vec<f64> = v.iter().map(|x| x * s).collect();
        let n1 = vecops::norm2(&v) * s;
        let n2 = vecops::norm2(&scaled);
        prop_assert!((n1 - n2).abs() <= 1e-10 * (1.0 + n1.abs()));
    }

    #[test]
    fn cosine_bounded(
        a in proptest::collection::vec(-10.0f64..10.0, 5),
        b in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let c = vecops::cosine(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn pooled_matvec_bit_identical_to_sequential(coo in coo_strategy(24, 80)) {
        let csr = coo.to_csr();
        let n = csr.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() * 3.0).collect();
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        csr.matvec(&x, &mut y_seq);
        csr.matvec_parallel(&x, &mut y_par, 4);
        prop_assert_eq!(y_seq, y_par);
    }

    #[test]
    fn fused_csr_bit_identical_to_linear_combination(
        coo1 in coo_strategy(20, 60),
        coo2_triplets in proptest::collection::vec((0usize..20, 0usize..20, 0.1f64..10.0), 0..60),
        w1 in 0.1f64..3.0,
        w2 in 0.1f64..3.0,
    ) {
        // Strictly positive values and weights: no exact cancellation,
        // so the fused union pattern equals the materialized
        // linear-combination pattern and the per-entry accumulation
        // order matches — results must agree bit-for-bit.
        let mut csr1 = coo1.to_csr();
        for v in csr1.values_mut() {
            *v = v.abs() + 0.001;
        }
        let n = csr1.nrows();
        let mut coo2 = CooMatrix::new(n, n);
        for (r, c, v) in coo2_triplets {
            coo2.push(r % n, c % n, v).unwrap();
        }
        let csr2 = coo2.to_csr();
        let fused = FusedSumOp::new(vec![&csr1, &csr2], vec![w1, w2]).unwrap();
        let reference = CsrMatrix::linear_combination(&[&csr1, &csr2], &[w1, w2]).unwrap();
        prop_assert_eq!(fused.fused_matrix(), &reference);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.83).sin() * 2.0).collect();
        let mut y_fused = vec![0.0; n];
        let mut y_ref = vec![0.0; n];
        fused.matvec(&x, &mut y_fused);
        reference.matvec(&x, &mut y_ref);
        prop_assert_eq!(y_fused, y_ref);
    }

    #[test]
    fn matvec_block_bit_identical_to_columnwise(
        (n, row_lens) in (1usize..40).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec(0usize..10, n))
        }),
        b in 1usize..10,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        // Every row holds 0–9 entries (distinct columns), so each
        // four-entry unroll tail length occurs; widths 1–9 cover every
        // block shape the unroll meets.
        let mut rng = TestRng::new(seed);
        let mut coo = CooMatrix::new(n, n);
        for (r, &len) in row_lens.iter().enumerate() {
            let start = rng.below(n as u64) as usize;
            for t in 0..len.min(n) {
                coo.push(r, (start + t) % n, rng.unit_f64() * 20.0 - 10.0).unwrap();
            }
        }
        let csr = coo.to_csr();
        let mut x = DenseMatrix::zeros(n, b);
        for v in x.data_mut() {
            *v = rng.unit_f64() * 16.0 - 8.0;
        }
        let mut y = DenseMatrix::zeros(n, b);
        csr.matvec_block(&x, &mut y, threads);
        let mut xc = vec![0.0; n];
        let mut yc = vec![0.0; n];
        for j in 0..b {
            for i in 0..n {
                xc[i] = x[(i, j)];
            }
            csr.matvec(&xc, &mut yc);
            for i in 0..n {
                prop_assert_eq!(y[(i, j)], yc[i], "col {} row {}", j, i);
            }
        }
    }

    #[test]
    fn sym_normalized_spectrum_bounded(coo in sym_coo_strategy(16, 50)) {
        // For a nonnegative symmetric matrix, the normalized Laplacian
        // I − D^{-1/2} A D^{-1/2} has spectrum in [0, 2].
        let mut csr = coo.to_csr();
        for v in csr.values_mut() {
            *v = v.abs();
        }
        let p = csr.sym_normalized();
        let n = p.nrows();
        let mut lap_coo = CooMatrix::new(n, n);
        for i in 0..n {
            lap_coo.push(i, i, 1.0).unwrap();
        }
        let lap = CsrMatrix::linear_combination(
            &[&lap_coo.to_csr(), &p],
            &[1.0, -1.0],
        ).unwrap();
        let e = jacobi_eig(&lap.to_dense()).unwrap();
        prop_assert!(e.values[0] > -1e-9, "λmin = {}", e.values[0]);
        prop_assert!(e.values[n - 1] < 2.0 + 1e-9, "λmax = {}", e.values[n - 1]);
    }
}

/// Dense-enough matrix to cross `matvec_parallel`'s sequential cutoff,
/// so the pool-dispatched path itself (not the fallback) is exercised.
fn large_random_csr(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut state = seed | 1;
    for i in 0..n {
        for _ in 0..per_row {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % n;
            let v = ((state >> 11) & 0xffff) as f64 / 4096.0 - 8.0;
            coo.push(i, j, v).unwrap();
        }
    }
    coo.to_csr()
}

#[test]
fn pooled_matvec_bit_identical_above_cutoff() {
    let a = large_random_csr(700, 16, 41); // nnz ≈ 11k > the 8192 cutoff
    assert!(a.nnz() > 8192, "test must exercise the pooled path");
    let x: Vec<f64> = (0..700).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut y_seq = vec![0.0; 700];
    let mut y_par = vec![0.0; 700];
    a.matvec(&x, &mut y_seq);
    a.matvec_parallel(&x, &mut y_par, 8);
    assert_eq!(y_seq, y_par);
}

#[test]
fn block_matvec_bit_identical_above_cutoff() {
    let a = large_random_csr(400, 8, 43);
    let b = 8;
    assert!(a.nnz() * b > 8192, "test must exercise the pooled path");
    let mut x = DenseMatrix::zeros(400, b);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        *v = ((i * 97) % 23) as f64 - 11.0;
    }
    let mut y = DenseMatrix::zeros(400, b);
    a.matvec_block(&x, &mut y, 8);
    let mut xc = vec![0.0; 400];
    let mut yc = vec![0.0; 400];
    for j in 0..b {
        for i in 0..400 {
            xc[i] = x[(i, j)];
        }
        a.matvec(&xc, &mut yc);
        for i in 0..400 {
            assert_eq!(y[(i, j)], yc[i], "col {j} row {i}");
        }
    }
}

/// A panicking task must not poison the pool for subsequent submits —
/// both on a private (injected) pool and on the shared global one that
/// all library helpers dispatch to.
#[test]
fn pool_panic_containment() {
    let pool = WorkerPool::new(4);
    let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.for_each_chunk(256, 4, 1, |range| {
            if range.contains(&200) {
                panic!("task blew up");
            }
        });
    }));
    assert!(blown.is_err(), "the panic must reach the submitter");
    // The same pool keeps serving.
    let sum = std::sync::atomic::AtomicUsize::new(0);
    pool.for_each_chunk(256, 4, 1, |range| {
        sum.fetch_add(range.len(), std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 256);

    // And a panic inside a library helper leaves the global pool usable.
    let a = large_random_csr(700, 16, 47);
    let x: Vec<f64> = (0..700).map(|i| i as f64 * 0.01).collect();
    let blown = std::panic::catch_unwind(|| {
        mvag_sparse::parallel::par_map(700, 4, |i| {
            if i == 500 {
                panic!("helper task blew up");
            }
            i
        })
    });
    assert!(blown.is_err());
    let mut y_seq = vec![0.0; 700];
    let mut y_par = vec![0.0; 700];
    a.matvec(&x, &mut y_seq);
    a.matvec_parallel(&x, &mut y_par, 4);
    assert_eq!(y_seq, y_par, "global pool must survive a panicking task");
}

/// The fused operator's spectral bound (Gershgorin on the materialized
/// sum) must dominate the true spectrum, like the lazy bound it replaces
/// inside the eigensolver shift selection.
#[test]
fn fused_spectral_bound_dominates() {
    // Symmetric views (the LinOp contract): Gershgorin on the fused
    // matrix must dominate the true spectral radius of the sum.
    let symmetrize =
        |m: &CsrMatrix| CsrMatrix::linear_combination(&[m, &m.transpose()], &[0.5, 0.5]).unwrap();
    let a = symmetrize(&large_random_csr(60, 4, 53));
    let b = symmetrize(&large_random_csr(60, 4, 59));
    let fused = FusedSumOp::new(vec![&a, &b], vec![0.7, 0.3]).unwrap();
    let bound = LinOp::spectral_bound(&fused).unwrap();
    let reference = CsrMatrix::linear_combination(&[&a, &b], &[0.7, 0.3]).unwrap();
    let eig = jacobi_eig(&reference.to_dense()).unwrap();
    let spec_max = eig.values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!(
        bound + 1e-9 >= spec_max,
        "gershgorin {bound} vs spectral radius {spec_max}"
    );
}

/// One connected block: a ring plus `s / 2` random chords, weights in
/// `[0.5, 2)`, returned as the dense symmetric adjacency.
fn random_block(s: usize, seed: u64) -> DenseMatrix {
    let mut rng = proptest::TestRng::new(seed);
    let mut a = DenseMatrix::zeros(s, s);
    let link = |a: &mut DenseMatrix, i: usize, j: usize, w: f64| {
        if i != j {
            a[(i, j)] += w;
            a[(j, i)] += w;
        }
    };
    for i in 0..s {
        let w = 0.5 + 1.5 * rng.unit_f64();
        link(&mut a, i, (i + 1) % s, w);
    }
    for _ in 0..s / 2 {
        let (i, j) = (rng.below(s as u64) as usize, rng.below(s as u64) as usize);
        let w = 0.5 + 1.5 * rng.unit_f64();
        link(&mut a, i, j, w);
    }
    a
}

/// `I − D^{-1/2} A D^{-1/2}` of a dense adjacency.
fn normalized_laplacian(a: &DenseMatrix) -> DenseMatrix {
    let s = a.nrows();
    let inv_sqrt: Vec<f64> = (0..s)
        .map(|i| 1.0 / (0..s).map(|j| a[(i, j)]).sum::<f64>().sqrt())
        .collect();
    let mut l = DenseMatrix::zeros(s, s);
    for i in 0..s {
        for j in 0..s {
            let id = if i == j { 1.0 } else { 0.0 };
            l[(i, j)] = id - inv_sqrt[i] * a[(i, j)] * inv_sqrt[j];
        }
    }
    l
}

/// A block-diagonal normalized Laplacian from `(size, copies, seed)`
/// blocks, with its exact eigenpairs ascending: per-block Jacobi pairs,
/// each block's repeated `copies` times. Several blocks make the graph
/// disconnected; copies of one block repeat every eigenvalue.
fn block_laplacian(blocks: &[(usize, usize, u64)]) -> (CsrMatrix, Vec<(f64, Vec<f64>)>) {
    let n: usize = blocks.iter().map(|&(s, c, _)| s * c).sum();
    let mut coo = CooMatrix::new(n, n);
    let mut pairs = Vec::with_capacity(n);
    let mut off = 0;
    for &(s, copies, seed) in blocks {
        let l = normalized_laplacian(&random_block(s, seed));
        let eig = jacobi_eig(&l).unwrap();
        for _ in 0..copies {
            for (j, &value) in eig.values.iter().enumerate() {
                let mut v = vec![0.0; n];
                v[off..off + s].copy_from_slice(&eig.vectors.col(j));
                pairs.push((value, v));
            }
            for i in 0..s {
                for j in 0..s {
                    if l[(i, j)] != 0.0 {
                        coo.push(off + i, off + j, l[(i, j)]).unwrap();
                    }
                }
            }
            off += s;
        }
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    (coo.to_csr(), pairs)
}

/// Graph layouts of 100–300 nodes: connected; two components; one block
/// repeated 2–3 times; a repeated block plus a distinct one.
fn layout_strategy() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    (
        0usize..4,
        50usize..=100,
        40usize..=100,
        2usize..=3,
        0u64..1 << 40,
    )
        .prop_map(|(layout, s1, s2, copies, seed)| match layout {
            0 => vec![(s1 + 50, 1, seed)],
            1 => vec![(s1, 1, seed), (s2.max(50), 1, seed + 1)],
            2 => vec![(s1, copies, seed)],
            _ => vec![(s1.min(80), 2, seed), (s2, 1, seed + 1)],
        })
}

/// Accuracy battery, oracle = per-block Jacobi: over 12 drawn layouts
/// and k in 2..=10, every solve matches the exact values to 1e-7 with
/// residuals ≤ 1e-6 and orthonormal vectors, cold and warm-started from
/// perturbed exact vectors alike. The warm starts must save operator
/// applications over the battery, not per case: which copies of a
/// repeated eigenvalue a single start vector misses (each costs a
/// verification probe) is luck. Over the first sixty layouts this
/// generator draws, warm starts save 18% in total but lose on one
/// (301 vs 223 matvecs).
#[test]
fn eigen_battery_matches_jacobi() {
    let mut rng = proptest::TestRng::new(proptest::seed_for("eigen_battery_matches_jacobi"));
    let (mut cold_total, mut warm_total) = (0, 0);
    for _case in 0..12 {
        let blocks = layout_strategy().sample(&mut rng);
        let k = (2usize..=10).sample(&mut rng);
        let (l, exact) = block_laplacian(&blocks);
        let n = l.nrows();
        let check = |res: &EigResult, what: &str| {
            assert!(res.converged, "{blocks:?} {what}");
            for (j, (want, _)) in exact.iter().enumerate().take(k) {
                let (value, v) = (res.values[j], res.vectors.col(j));
                assert!(
                    (value - want).abs() < 1e-7,
                    "{blocks:?} {what} λ{j} = {value} vs {want}"
                );
                let mut lv = vec![0.0; n];
                l.matvec(&v, &mut lv);
                let resid = lv
                    .iter()
                    .zip(&v)
                    .fold(0.0f64, |m, (a, b)| m.max((a - value * b).abs()));
                assert!(resid <= 1e-6, "{blocks:?} {what} pair {j} residual {resid}");
                for i in 0..=j {
                    let d = vecops::dot(&res.vectors.col(i), &v);
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((d - expect).abs() < 1e-8, "{what} v{i}·v{j} = {d}");
                }
            }
        };
        let cold = smallest_eigenpairs(&l, k, &EigOptions::default()).unwrap();
        check(&cold, "cold");
        // Warm start from the exact vectors of the k + 1 smallest pairs,
        // perturbed.
        let mut init = DenseMatrix::zeros(n, k + 1);
        for (j, (_, v)) in exact.iter().take(k + 1).enumerate() {
            let noisy: Vec<f64> = v
                .iter()
                .enumerate()
                .map(|(i, x)| x + 1e-4 * ((i * (j + 1)) as f64 * 0.618).sin())
                .collect();
            init.set_col(j, &noisy);
        }
        let warm_opts = EigOptions {
            init: Some(init),
            ..EigOptions::default()
        };
        let warm = smallest_eigenpairs(&l, k, &warm_opts).unwrap();
        check(&warm, "warm");
        cold_total += cold.matvecs;
        warm_total += warm.matvecs;
    }
    assert!(
        warm_total < cold_total,
        "warm starts {warm_total} matvecs vs cold {cold_total}"
    );
}
