//! The eight-dataset registry mirroring the paper's Table II.
//!
//! Every [`DatasetSpec`] records (a) the *paper's* statistics for
//! reference and reporting, and (b) the *simulation* parameters used to
//! generate a synthetic MVAG with the same shape. Densities are expressed
//! as average degrees so that scaling `n` preserves sparsity structure.
//!
//! Documented deviations:
//! * MAG-eng / MAG-phy are scaled ~150× down in `n` (1.8M → 12k,
//!   2.35M → 15k) with per-view average degrees preserved, and their
//!   cluster counts reduced proportionally (55 → 12, 22 → 10) so clusters
//!   keep realistic sizes;
//! * 1000–7487-dimensional attribute views are simulated at 128–512
//!   dimensions (cosine-KNN behaviour is dimension-stable well below
//!   that);
//! * per-view informativeness is heterogeneous — some views carry most of
//!   the community signal, others are mostly noise — which is the regime
//!   in which view weighting matters (the paper's Fig. 2 motivation).

use crate::{DataError, Result};
use mvag_graph::generators::{
    balanced_labels, binary_attributes, gaussian_attributes, sbm, BinaryAttrConfig,
    GaussianAttrConfig, SbmConfig,
};
use mvag_graph::{Mvag, View};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kind and parameters of a simulated attribute view.
#[derive(Debug, Clone)]
pub enum AttrKind {
    /// Numerical attributes: Gaussian mixture per cluster.
    Gaussian {
        /// Cluster-centre scale relative to unit noise.
        separation: f64,
        /// Per-coordinate noise standard deviation.
        noise: f64,
    },
    /// Categorical/binary attributes: Bernoulli profiles per cluster.
    Binary {
        /// Fraction of dimensions characteristic per cluster.
        active_fraction: f64,
        /// On-probability for characteristic dimensions.
        p_on: f64,
        /// On-probability elsewhere (noise floor).
        p_noise: f64,
    },
}

/// A simulated graph view's parameters.
#[derive(Debug, Clone)]
pub struct GraphViewSpec {
    /// Target average (weighted) degree.
    pub avg_degree: f64,
    /// Fraction of in-cluster edge mass (0.5 = structureless).
    pub assortativity: f64,
    /// Fraction of nodes whose community this view observes.
    pub informative_fraction: f64,
    /// Degree-correction spread (1.0 = regular SBM).
    pub degree_spread: f64,
}

/// A simulated attribute view's parameters.
#[derive(Debug, Clone)]
pub struct AttrViewSpec {
    /// Attribute dimensionality in the simulation.
    pub dim: usize,
    /// Distribution family.
    pub kind: AttrKind,
    /// Fraction of nodes whose attributes reflect their community.
    pub informative_fraction: f64,
}

/// Paper-reported statistics (Table II), kept for reporting.
#[derive(Debug, Clone)]
pub struct PaperStats {
    /// Number of nodes in the real dataset.
    pub n: usize,
    /// Number of views.
    pub r: usize,
    /// Edge count per graph view.
    pub edges: Vec<usize>,
    /// Dimension per attribute view.
    pub dims: Vec<usize>,
    /// Ground-truth classes.
    pub k: usize,
}

/// A complete dataset specification.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (lower-case, as used by the experiment harness).
    pub name: &'static str,
    /// Simulated node count at scale 1.0.
    pub n: usize,
    /// Simulated cluster count.
    pub k: usize,
    /// Graph views.
    pub graph_views: Vec<GraphViewSpec>,
    /// Attribute views.
    pub attr_views: Vec<AttrViewSpec>,
    /// KNN neighbourhood size for attribute views (the paper uses 10,
    /// with 200 for Yelp and 500 for IMDB).
    pub knn_k: usize,
    /// The paper's statistics for this dataset.
    pub paper: PaperStats,
}

impl DatasetSpec {
    /// Generates the synthetic MVAG at the given scale (`1.0` = the
    /// spec's default size; smaller values shrink `n` proportionally,
    /// never below `4k` nodes). Deterministic in `seed`.
    ///
    /// # Errors
    /// Propagates generator failures (cannot occur for registry specs at
    /// sane scales).
    pub fn generate(&self, scale: f64, seed: u64) -> Result<Mvag> {
        if scale <= 0.0 || !scale.is_finite() {
            return Err(DataError::InvalidArgument(format!(
                "scale must be positive and finite, got {scale}"
            )));
        }
        let n = ((self.n as f64 * scale).round() as usize).max(4 * self.k);
        let k = self.k;
        // Shuffled planted labels.
        let mut labels = balanced_labels(n, k)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            labels.swap(i, j);
        }
        let mut views = Vec::with_capacity(self.graph_views.len() + self.attr_views.len());
        for (vi, gv) in self.graph_views.iter().enumerate() {
            let s = n as f64 / k as f64; // average cluster size
            let d_in = gv.assortativity * gv.avg_degree;
            let d_out = (1.0 - gv.assortativity) * gv.avg_degree;
            let p_in = (d_in / (s - 1.0).max(1.0)).min(1.0);
            let p_out = (d_out / (n as f64 - s).max(1.0)).min(1.0);
            let g = sbm(
                &labels,
                &SbmConfig {
                    p_in,
                    p_out,
                    informative_fraction: gv.informative_fraction,
                    degree_spread: gv.degree_spread,
                },
                seed.wrapping_add(1000 + vi as u64),
            )?;
            views.push(View::Graph(g));
        }
        for (vi, av) in self.attr_views.iter().enumerate() {
            let x = match av.kind {
                AttrKind::Gaussian { separation, noise } => gaussian_attributes(
                    &labels,
                    &GaussianAttrConfig {
                        dim: av.dim,
                        separation,
                        noise,
                        informative_fraction: av.informative_fraction,
                    },
                    seed.wrapping_add(2000 + vi as u64),
                )?,
                AttrKind::Binary {
                    active_fraction,
                    p_on,
                    p_noise,
                } => binary_attributes(
                    &labels,
                    &BinaryAttrConfig {
                        dim: av.dim,
                        active_fraction,
                        p_on,
                        p_noise,
                        informative_fraction: av.informative_fraction,
                    },
                    seed.wrapping_add(2000 + vi as u64),
                )?,
            };
            views.push(View::Attributes(x));
        }
        Ok(Mvag::new(self.name, views, Some(labels), k)?)
    }

    /// The KNN `K` to use at a given node count (never ≥ n).
    pub fn effective_knn(&self, n: usize) -> usize {
        self.knn_k.min(n / 4).max(2)
    }

    /// Total number of views `r`.
    pub fn r(&self) -> usize {
        self.graph_views.len() + self.attr_views.len()
    }
}

fn gv(avg_degree: f64, assortativity: f64, informative: f64, spread: f64) -> GraphViewSpec {
    GraphViewSpec {
        avg_degree,
        assortativity,
        informative_fraction: informative,
        degree_spread: spread,
    }
}

fn gauss(dim: usize, separation: f64, noise: f64, informative: f64) -> AttrViewSpec {
    AttrViewSpec {
        dim,
        kind: AttrKind::Gaussian { separation, noise },
        informative_fraction: informative,
    }
}

fn binary(dim: usize, informative: f64) -> AttrViewSpec {
    AttrViewSpec {
        dim,
        kind: AttrKind::Binary {
            active_fraction: 0.2,
            p_on: 0.55,
            p_noise: 0.05,
        },
        informative_fraction: informative,
    }
}

/// All eight dataset specs, in the paper's Table II order.
pub fn full_registry() -> Vec<DatasetSpec> {
    vec![
        // RM (Reality Mining): 10 proximity graph views of very different
        // quality over two classes, one numerical attribute view.
        DatasetSpec {
            name: "rm",
            n: 91,
            k: 2,
            graph_views: vec![
                gv(5.9, 0.78, 0.90, 1.0),
                gv(8.9, 0.72, 0.15, 1.0),
                gv(6.5, 0.72, 0.10, 1.0),
                gv(7.0, 0.75, 0.80, 1.0),
                gv(3.6, 0.70, 0.10, 1.0),
                gv(20.0, 0.78, 0.85, 1.5),
                gv(21.0, 0.72, 0.30, 1.5),
                gv(24.0, 0.80, 0.90, 1.5),
                gv(20.0, 0.72, 0.15, 1.5),
                gv(14.0, 0.72, 0.25, 1.5),
            ],
            attr_views: vec![gauss(32, 1.2, 1.0, 0.75)],
            knn_k: 10,
            paper: PaperStats {
                n: 91,
                r: 11,
                edges: vec![267, 404, 298, 317, 163, 1595, 1683, 1910, 1565, 1044],
                dims: vec![32],
                k: 2,
            },
        },
        // Yelp: two dense business-interaction views + binary categories.
        DatasetSpec {
            name: "yelp",
            n: 2614,
            k: 3,
            graph_views: vec![gv(100.0, 0.72, 0.95, 2.0), gv(300.0, 0.70, 0.10, 2.0)],
            attr_views: vec![binary(82, 0.9)],
            knn_k: 200,
            paper: PaperStats {
                n: 2614,
                r: 3,
                edges: vec![262_859, 1_237_554],
                dims: vec![82],
                k: 3,
            },
        },
        // IMDB: sparse co-actor/co-director views + high-dim plot keywords
        // (2000 dims in the paper, 256 simulated).
        DatasetSpec {
            name: "imdb",
            n: 3550,
            k: 3,
            graph_views: vec![gv(2.9, 0.70, 0.50, 1.0), gv(17.7, 0.70, 0.15, 1.5)],
            attr_views: vec![binary(256, 0.85)],
            knn_k: 500,
            paper: PaperStats {
                n: 3550,
                r: 3,
                edges: vec![5119, 31_439],
                dims: vec![2000],
                k: 3,
            },
        },
        // DBLP: one sparse co-author view, two very dense co-term /
        // co-venue views, bag-of-words attributes.
        DatasetSpec {
            name: "dblp",
            n: 4057,
            k: 4,
            graph_views: vec![
                gv(1.7, 0.90, 0.95, 1.0),
                gv(400.0, 0.68, 0.85, 2.0),
                gv(500.0, 0.70, 0.08, 2.0),
            ],
            attr_views: vec![binary(334, 0.8)],
            knn_k: 10,
            paper: PaperStats {
                n: 4057,
                r: 4,
                edges: vec![3528, 2_498_219, 3_386_139],
                dims: vec![334],
                k: 4,
            },
        },
        // Amazon photos: one co-purchase view + two attribute views
        // (745-dim features and a 7487-dim one-hot-ish view → 256/512 sim).
        DatasetSpec {
            name: "amazon-photos",
            n: 7487,
            k: 8,
            graph_views: vec![gv(31.8, 0.75, 0.85, 2.0)],
            attr_views: vec![gauss(256, 1.8, 1.0, 0.85), binary(512, 0.15)],
            knn_k: 10,
            paper: PaperStats {
                n: 7487,
                r: 3,
                edges: vec![119_043],
                dims: vec![745, 7487],
                k: 8,
            },
        },
        // Amazon computers.
        DatasetSpec {
            name: "amazon-computers",
            n: 13_381,
            k: 10,
            graph_views: vec![gv(36.7, 0.72, 0.85, 2.0)],
            attr_views: vec![gauss(256, 1.6, 1.0, 0.8), binary(512, 0.10)],
            knn_k: 10,
            paper: PaperStats {
                n: 13_381,
                r: 3,
                edges: vec![245_778],
                dims: vec![767, 13_381],
                k: 10,
            },
        },
        // MAG-eng: citation + co-authorship views, two 1000-dim attribute
        // views (128 sim). n scaled 1.8M → 20k, k 55 → 15.
        DatasetSpec {
            name: "mag-eng",
            n: 12_000,
            k: 12,
            graph_views: vec![gv(24.2, 0.75, 0.9, 3.0), gv(5.6, 0.70, 0.15, 2.0)],
            attr_views: vec![gauss(128, 1.5, 1.0, 0.8), gauss(128, 1.2, 1.0, 0.2)],
            knn_k: 10,
            paper: PaperStats {
                n: 1_798_717,
                r: 4,
                edges: vec![43_519_012, 10_112_848],
                dims: vec![1000, 1000],
                k: 55,
            },
        },
        // MAG-phy: n scaled 2.35M → 25k, k 22 → 12.
        DatasetSpec {
            name: "mag-phy",
            n: 15_000,
            k: 10,
            graph_views: vec![gv(109.6, 0.72, 0.85, 3.0), gv(7.7, 0.70, 0.10, 2.0)],
            attr_views: vec![gauss(128, 1.5, 1.0, 0.8), gauss(128, 1.2, 1.0, 0.2)],
            knn_k: 10,
            paper: PaperStats {
                n: 2_353_996,
                r: 4,
                edges: vec![257_706_767, 18_055_930],
                dims: vec![1000, 1000],
                k: 22,
            },
        },
    ]
}

/// Looks up a dataset spec by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    let lower = name.to_ascii_lowercase();
    full_registry().into_iter().find(|s| s.name == lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eight_table2_rows() {
        let reg = full_registry();
        assert_eq!(reg.len(), 8);
        let names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "rm",
                "yelp",
                "imdb",
                "dblp",
                "amazon-photos",
                "amazon-computers",
                "mag-eng",
                "mag-phy"
            ]
        );
        // r matches the paper for every dataset.
        for spec in &reg {
            assert_eq!(spec.r(), spec.paper.r, "{}", spec.name);
            assert_eq!(
                spec.graph_views.len(),
                spec.paper.edges.len(),
                "{}",
                spec.name
            );
            assert_eq!(
                spec.attr_views.len(),
                spec.paper.dims.len(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("yelp").is_some());
        assert!(by_name("YELP").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn generate_small_scale_all() {
        for spec in full_registry() {
            let scale = (200.0 / spec.n as f64).min(1.0);
            let mvag = spec.generate(scale, 3).unwrap();
            assert_eq!(mvag.r(), spec.r(), "{}", spec.name);
            assert_eq!(mvag.k(), spec.k, "{}", spec.name);
            assert!(mvag.n() >= 4 * spec.k, "{}", spec.name);
            assert!(mvag.labels().is_some());
            assert!(mvag.total_edges() > 0, "{}", spec.name);
        }
    }

    #[test]
    fn rm_generates_at_full_scale() {
        let spec = by_name("rm").unwrap();
        let mvag = spec.generate(1.0, 7).unwrap();
        assert_eq!(mvag.n(), 91);
        assert_eq!(mvag.r(), 11);
        // Edge densities within a loose factor of target (paper shape).
        let degrees_target: Vec<f64> = spec.graph_views.iter().map(|g| g.avg_degree).collect();
        let mut idx = 0;
        for view in mvag.views() {
            if let mvag_graph::View::Graph(g) = view {
                let actual = 2.0 * g.num_edges() as f64 / g.n() as f64;
                let target = degrees_target[idx];
                assert!(
                    actual > target * 0.4 && actual < target * 2.5,
                    "view {idx}: avg degree {actual} vs target {target}"
                );
                idx += 1;
            }
        }
    }

    #[test]
    fn generation_deterministic() {
        let spec = by_name("imdb").unwrap();
        let a = spec.generate(0.05, 11).unwrap();
        let b = spec.generate(0.05, 11).unwrap();
        assert_eq!(a, b);
        let c = spec.generate(0.05, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_scale_rejected() {
        let spec = by_name("rm").unwrap();
        assert!(spec.generate(0.0, 1).is_err());
        assert!(spec.generate(f64::NAN, 1).is_err());
        assert!(spec.generate(-1.0, 1).is_err());
    }

    #[test]
    fn effective_knn_clamps() {
        let spec = by_name("imdb").unwrap(); // knn_k = 500
        assert_eq!(spec.effective_knn(3550), 500);
        assert_eq!(spec.effective_knn(100), 25);
        assert_eq!(spec.effective_knn(8), 2);
    }
}
