//! Scaled replicas of the paper's evaluation datasets (Table 4).
//!
//! Every spec records both the *paper* statistics and the *replica*
//! statistics plus the scale factor between them. The hardware simulator
//! divides device memory capacities by the same factor so that
//! capacity-driven effects (cache ratio, OOM) reproduce at replica scale.

use crate::csr::Csr;
use crate::features;
use crate::generate::{barabasi_albert, planted_partition, rmat, RmatParams};
use neutron_tensor::Matrix;

/// Topology family used to synthesise a replica.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// R-MAT with the given quadrant parameters (social / web graphs).
    Rmat(RmatParams),
    /// Barabási–Albert with `edges_per_vertex` (citation graphs).
    PreferentialAttachment { edges_per_vertex: usize },
    /// Planted partition with `intra_prob` homophily (convergence runs).
    Community { intra_prob: f64 },
}

/// Specification of one evaluation dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper ("Reddit", "Papers100M", …).
    pub name: &'static str,
    /// Paper-reported vertex count (Table 4).
    pub paper_vertices: u64,
    /// Paper-reported edge count (Table 4).
    pub paper_edges: u64,
    /// Input feature dimension ("ftr. dim").
    pub feature_dim: usize,
    /// Number of label classes ("#L").
    pub num_classes: usize,
    /// Hidden layer dimension ("hid. dim").
    pub hidden_dim: usize,
    /// Replica vertex count.
    pub vertices: usize,
    /// Target replica directed edge count. The R-MAT and community
    /// generators draw `edges / 2` pairs and store each in both directions,
    /// so this bounds the stored count from above (self-loops and duplicates
    /// are dropped); preferential-attachment replicas ignore it.
    pub edges: usize,
    /// Linear scale factor between paper and replica (`paper_vertices /
    /// vertices`); the simulator divides memory capacities by this.
    pub scale: f64,
    /// Replica topology family.
    pub topology: Topology,
    /// Generation seed.
    pub seed: u64,
    /// Centroid strength of class-correlated features relative to unit
    /// noise (community datasets only). Convergence replicas use a weak
    /// signal so accuracy is *earned* over epochs rather than trivial.
    pub feature_signal: f32,
}

/// A materialised dataset: topology, labels, splits and (optionally)
/// features.
pub struct Dataset {
    /// The spec this dataset was built from.
    pub spec: DatasetSpec,
    /// In-neighbor CSR topology.
    pub csr: Csr,
    /// Per-vertex class labels.
    pub labels: Vec<usize>,
    /// Training vertex ids (65%).
    pub train: Vec<u32>,
    /// Test vertex ids (10%).
    pub test: Vec<u32>,
    /// Validation vertex ids (25%).
    pub val: Vec<u32>,
    /// Vertex features; `None` for perf-only builds where only byte counts
    /// matter (avoids multi-hundred-MB buffers for wide replicas).
    pub features: Option<Matrix>,
}

impl DatasetSpec {
    #[allow(clippy::too_many_arguments)] // internal registry constructor
    fn replica(
        name: &'static str,
        paper_vertices: u64,
        paper_edges: u64,
        feature_dim: usize,
        num_classes: usize,
        hidden_dim: usize,
        vertices: usize,
        topology: Topology,
        seed: u64,
    ) -> Self {
        let scale = paper_vertices as f64 / vertices as f64;
        let edges = (paper_edges as f64 / scale) as usize;
        Self {
            name,
            paper_vertices,
            paper_edges,
            feature_dim,
            num_classes,
            hidden_dim,
            vertices,
            edges,
            scale,
            topology,
            seed,
            feature_signal: 2.0,
        }
    }

    /// Reddit social network (Table 4 row 1) at 1/16 scale. Very dense
    /// (avg degree ≈ 492), which is why its bottom sampled layer saturates.
    pub fn reddit_scaled() -> Self {
        Self::replica(
            "Reddit",
            232_960,
            114_610_000,
            602,
            41,
            256,
            14_560,
            Topology::Rmat(RmatParams::graph500()),
            0x01,
        )
    }

    /// LiveJournal communication network at 1/64 scale.
    pub fn lj_large_scaled() -> Self {
        Self::replica(
            "Lj-large",
            10_690_000,
            224_610_000,
            400,
            60,
            256,
            167_031,
            Topology::Rmat(RmatParams::graph500()),
            0x17,
        )
    }

    /// Orkut social network at 1/32 scale.
    pub fn orkut_scaled() -> Self {
        Self::replica(
            "Orkut",
            3_100_000,
            117_000_000,
            600,
            20,
            160,
            96_875,
            Topology::Rmat(RmatParams::graph500()),
            0x02,
        )
    }

    /// English Wikipedia wikilink graph at 1/96 scale.
    pub fn wikipedia_scaled() -> Self {
        Self::replica(
            "Wikipedia",
            13_600_000,
            437_200_000,
            600,
            16,
            128,
            141_667,
            Topology::Rmat(RmatParams::graph500()),
            0x03,
        )
    }

    /// Amazon Products co-purchase network (ogbn-products) at 1/16 scale.
    pub fn products_scaled() -> Self {
        Self::replica(
            "Products",
            2_400_000,
            61_900_000,
            100,
            47,
            64,
            150_000,
            Topology::Rmat(RmatParams::mild()),
            0x04,
        )
    }

    /// Papers100M citation graph (ogbn-papers100M) at 1/512 scale.
    pub fn papers100m_scaled() -> Self {
        Self::replica(
            "Papers100M",
            111_000_000,
            1_600_000_000,
            128,
            172,
            64,
            216_797,
            Topology::PreferentialAttachment {
                edges_per_vertex: 7,
            },
            0x05,
        )
    }

    /// All six performance-evaluation replicas, in the paper's Table 4 order.
    pub fn all_scaled() -> Vec<Self> {
        vec![
            Self::reddit_scaled(),
            Self::lj_large_scaled(),
            Self::orkut_scaled(),
            Self::wikipedia_scaled(),
            Self::products_scaled(),
            Self::papers100m_scaled(),
        ]
    }

    /// Small homophilous replica of Reddit used by the convergence
    /// experiments (Fig 16): labels are learnable, features materialised.
    pub fn reddit_convergence() -> Self {
        let mut s = Self::replica(
            "Reddit-conv",
            232_960,
            114_610_000,
            64,
            8,
            32,
            4_000,
            Topology::Community { intra_prob: 0.55 },
            0x06,
        );
        s.edges = 160_000;
        s.num_classes = 8;
        // Weak feature signal: a fresh model starts near chance and needs
        // both epochs and neighbor aggregation to climb (Fig 16 regime).
        s.feature_signal = 0.25;
        s
    }

    /// Small homophilous replica of Products for convergence runs.
    pub fn products_convergence() -> Self {
        let mut s = Self::replica(
            "Products-conv",
            2_400_000,
            61_900_000,
            64,
            10,
            32,
            5_000,
            Topology::Community { intra_prob: 0.5 },
            0x07,
        );
        s.edges = 120_000;
        s.num_classes = 10;
        s.feature_signal = 0.25;
        s
    }

    /// Tiny spec for unit tests and doc examples.
    pub fn tiny() -> Self {
        let mut s = Self::replica(
            "Tiny",
            1_000,
            8_000,
            16,
            4,
            8,
            300,
            Topology::Community { intra_prob: 0.8 },
            0x08,
        );
        s.edges = 2_400;
        s.num_classes = 4;
        s
    }

    /// Builds topology, labels and splits but not features (perf mode).
    pub fn build_topology(&self) -> Dataset {
        self.build_inner(false)
    }

    /// Builds everything including materialised features (training mode).
    pub fn build_full(&self) -> Dataset {
        self.build_inner(true)
    }

    fn build_inner(&self, with_features: bool) -> Dataset {
        let (csr, labels) = match self.topology {
            Topology::Rmat(params) => {
                let csr = rmat(self.vertices, self.edges, params, self.seed);
                let labels =
                    features::random_labels(self.vertices, self.num_classes, self.seed ^ 1);
                (csr, labels)
            }
            Topology::PreferentialAttachment { edges_per_vertex } => {
                let csr = barabasi_albert(self.vertices, edges_per_vertex, self.seed);
                let labels =
                    features::random_labels(self.vertices, self.num_classes, self.seed ^ 1);
                (csr, labels)
            }
            Topology::Community { intra_prob } => {
                let pp = planted_partition(
                    self.vertices,
                    self.edges,
                    self.num_classes,
                    intra_prob,
                    self.seed,
                );
                (pp.csr, pp.labels)
            }
        };
        let (train, test, val) = features::split_65_10_25(self.vertices, self.seed ^ 2);
        let feats = if with_features {
            Some(match self.topology {
                Topology::Community { .. } => features::class_features(
                    &labels,
                    self.num_classes,
                    self.feature_dim,
                    self.feature_signal,
                    self.seed ^ 3,
                ),
                _ => features::random_features(self.vertices, self.feature_dim, self.seed ^ 3),
            })
        } else {
            None
        };
        Dataset {
            spec: self.clone(),
            csr,
            labels,
            train,
            test,
            val,
            features: feats,
        }
    }

    /// Bytes of one vertex's feature row (f32).
    pub fn feature_row_bytes(&self) -> u64 {
        (self.feature_dim * std::mem::size_of::<f32>()) as u64
    }

    /// Bytes of one vertex's hidden embedding row (f32). Embeddings are what
    /// NeutronOrch transfers instead of raw features (§4.1.1, Fig 7).
    pub fn hidden_row_bytes(&self) -> u64 {
        (self.hidden_dim * std::mem::size_of::<f32>()) as u64
    }
}

impl Dataset {
    /// Borrow features, panicking with a clear message in perf-only builds.
    pub fn features(&self) -> &Matrix {
        self.features
            .as_ref()
            .expect("dataset built with build_topology(); call build_full() for features")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table4_paper_stats() {
        let all = DatasetSpec::all_scaled();
        assert_eq!(all.len(), 6);
        let reddit = &all[0];
        assert_eq!(reddit.feature_dim, 602);
        assert_eq!(reddit.num_classes, 41);
        assert_eq!(reddit.hidden_dim, 256);
        let papers = &all[5];
        assert_eq!(papers.paper_vertices, 111_000_000);
        assert_eq!(papers.hidden_dim, 64);
    }

    #[test]
    fn scale_is_consistent_with_replica_size() {
        for spec in DatasetSpec::all_scaled() {
            let implied = spec.paper_vertices as f64 / spec.vertices as f64;
            assert!(
                (implied - spec.scale).abs() / spec.scale < 1e-9,
                "{}",
                spec.name
            );
            assert!(spec.scale >= 1.0);
        }
    }

    #[test]
    fn tiny_builds_quickly_with_features() {
        let d = DatasetSpec::tiny().build_full();
        assert_eq!(d.csr.num_vertices(), 300);
        assert_eq!(d.features().rows(), 300);
        assert_eq!(d.features().cols(), 16);
        assert_eq!(d.train.len(), 195);
        assert!(d.csr.validate().is_ok());
    }

    #[test]
    fn topology_only_build_omits_features() {
        let d = DatasetSpec::tiny().build_topology();
        assert!(d.features.is_none());
        assert_eq!(d.labels.len(), 300);
    }

    #[test]
    fn replica_avg_degree_tracks_paper() {
        // Papers100M paper avg degree ≈ 14.4; the BA replica should land in
        // the same regime (factor < 2 off).
        let spec = DatasetSpec::papers100m_scaled();
        let mut small = spec.clone();
        small.vertices = 20_000;
        small.edges = (spec.edges as f64 * 20_000.0 / spec.vertices as f64) as usize;
        let d = small.build_topology();
        let paper_avg = spec.paper_edges as f64 / spec.paper_vertices as f64;
        let got = d.csr.avg_degree();
        assert!(
            got > paper_avg / 2.0 && got < paper_avg * 2.0,
            "avg degree {got} vs paper {paper_avg}"
        );
    }

    #[test]
    fn byte_helpers() {
        let s = DatasetSpec::reddit_scaled();
        assert_eq!(s.feature_row_bytes(), 602 * 4);
        assert_eq!(s.hidden_row_bytes(), 256 * 4);
    }
}
