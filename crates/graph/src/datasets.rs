//! Synthetic stand-ins for the paper's ModelNet40 and MR datasets.
//!
//! Real ModelNet40 CAD meshes and the MR movie-review corpus are not
//! available offline, so we generate parametric datasets with the *same
//! graph statistics* (node count, feature width, class count) — these are
//! the quantities that drive every latency/communication trade-off in the
//! paper.

use crate::CsrGraph;
use gcode_tensor::Matrix;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A single graph-classification sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// `n × d` node features.
    pub features: Matrix,
    /// Ground-truth class index.
    pub label: usize,
    /// Pre-built input graph. Point-cloud samples carry `None` because
    /// DGCNN-style models rebuild the KNN graph in feature space per layer.
    pub graph: Option<CsrGraph>,
}

/// Summary statistics of a dataset, mirroring the "nodes / feature dims"
/// comparison the paper draws between ModelNet40 and MR (1024 vs ~17 nodes,
/// 3 vs 300 dims).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Mean node count per sample.
    pub mean_nodes: f64,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of samples.
    pub len: usize,
}

/// ModelNet40-like synthetic point-cloud classification dataset.
///
/// Each class is a parametric surface family (sphere, box, cylinder, cone,
/// torus) × 8 aspect-ratio variants = 40 classes, sampled with jitter and a
/// random rotation — enough intra-class variety that a GNN must actually
/// aggregate geometry to classify, and enough inter-class signal that tiny
/// models reach high accuracy quickly.
///
/// # Example
///
/// ```
/// use gcode_graph::datasets::PointCloudDataset;
///
/// let ds = PointCloudDataset::generate(8, 64, 40, 42);
/// assert_eq!(ds.samples().len(), 8);
/// assert_eq!(ds.stats().feature_dim, 3);
/// ```
#[derive(Debug, Clone)]
pub struct PointCloudDataset {
    samples: Vec<Sample>,
    num_classes: usize,
}

impl PointCloudDataset {
    /// Generates `len` samples of `points_per_cloud` 3-D points across
    /// `num_classes` classes (≤ 40), deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `num_classes > 40`.
    pub fn generate(len: usize, points_per_cloud: usize, num_classes: usize, seed: u64) -> Self {
        assert!((1..=40).contains(&num_classes), "1..=40 classes supported");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(len);
        for i in 0..len {
            let label = i % num_classes;
            let features = sample_shape(label, points_per_cloud, &mut rng);
            samples.push(Sample { features, label, graph: None });
        }
        Self { samples, num_classes }
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Splits into `(train, validation)` at `train_fraction`.
    pub fn split(&self, train_fraction: f64) -> (Vec<Sample>, Vec<Sample>) {
        split_samples(&self.samples, train_fraction)
    }

    /// Dataset statistics.
    pub fn stats(&self) -> DatasetStats {
        stats_of(&self.samples, self.num_classes)
    }
}

/// MR-like synthetic text-graph classification dataset (binary sentiment).
///
/// Each sample is a short "document": a sliding-window word graph of ~17
/// nodes whose 300-dim embeddings contain a class-dependent direction plus
/// shared noise, mimicking pretrained word vectors.
///
/// # Example
///
/// ```
/// use gcode_graph::datasets::TextGraphDataset;
///
/// let ds = TextGraphDataset::generate(10, 17, 300, 7);
/// assert_eq!(ds.stats().num_classes, 2);
/// assert!(ds.samples()[0].graph.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TextGraphDataset {
    samples: Vec<Sample>,
}

impl TextGraphDataset {
    /// Generates `len` samples with mean `mean_nodes` nodes and
    /// `feature_dim`-wide embeddings, deterministically from `seed`.
    pub fn generate(len: usize, mean_nodes: usize, feature_dim: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Two fixed class directions, shared across samples.
        let dirs: Vec<Vec<f32>> = (0..2)
            .map(|c| (0..feature_dim).map(|j| if j % 2 == c { 1.0 } else { -1.0 }).collect())
            .collect();
        let mut samples = Vec::with_capacity(len);
        for i in 0..len {
            let label = i % 2;
            let n = (mean_nodes as i64 + rng.gen_range(-3..=3)).max(4) as usize;
            let mut features = Matrix::zeros(n, feature_dim);
            for u in 0..n {
                let row = features.row_mut(u);
                for (j, x) in row.iter_mut().enumerate() {
                    let signal = 0.35 * dirs[label][j];
                    *x = signal + rng.gen_range(-1.0..1.0);
                }
            }
            // Sliding-window word graph: each word links to the next 2 words
            // in both directions, the construction used by TextING/PNAS-style
            // inductive text classification.
            let mut edges = Vec::new();
            for u in 0..n {
                for w in 1..=2usize {
                    if u + w < n {
                        edges.push((u as u32, (u + w) as u32));
                        edges.push(((u + w) as u32, u as u32));
                    }
                }
            }
            let graph = CsrGraph::from_edges(n, &edges);
            samples.push(Sample { features, label, graph: Some(graph) });
        }
        Self { samples }
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Splits into `(train, validation)` at `train_fraction`.
    pub fn split(&self, train_fraction: f64) -> (Vec<Sample>, Vec<Sample>) {
        split_samples(&self.samples, train_fraction)
    }

    /// Dataset statistics.
    pub fn stats(&self) -> DatasetStats {
        stats_of(&self.samples, 2)
    }
}

fn split_samples(samples: &[Sample], train_fraction: f64) -> (Vec<Sample>, Vec<Sample>) {
    let cut = ((samples.len() as f64) * train_fraction).round() as usize;
    let cut = cut.min(samples.len());
    (samples[..cut].to_vec(), samples[cut..].to_vec())
}

fn stats_of(samples: &[Sample], num_classes: usize) -> DatasetStats {
    let mean_nodes = if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|s| s.features.rows() as f64).sum::<f64>() / samples.len() as f64
    };
    DatasetStats {
        mean_nodes,
        feature_dim: samples.first().map_or(0, |s| s.features.cols()),
        num_classes,
        len: samples.len(),
    }
}

/// Samples one point cloud for class `label`.
fn sample_shape(label: usize, n: usize, rng: &mut impl Rng) -> Matrix {
    let family = label % 5;
    // Aspect-ratio knobs per variant (0..8) keep the 8 variants of a
    // family apart.
    let variant = (label / 5) as f32;
    let ax = 1.0 + 0.25 * variant;
    let az = 1.0 / (1.0 + 0.15 * variant);
    let mut pts = Matrix::zeros(n, 3);
    for i in 0..n {
        let p: [f32; 3] = match family {
            0 => sphere_point(rng),
            1 => box_point(rng),
            2 => cylinder_point(rng),
            3 => cone_point(rng),
            _ => torus_point(rng, 0.35 + 0.05 * variant),
        };
        let row = pts.row_mut(i);
        row[0] = p[0] * ax;
        row[1] = p[1];
        row[2] = p[2] * az;
    }
    // Random rotation about z + jitter: intra-class variation.
    let theta = rng.gen_range(0.0..std::f32::consts::TAU);
    let (s, c) = theta.sin_cos();
    for i in 0..n {
        let row = pts.row_mut(i);
        let (x, y) = (row[0], row[1]);
        row[0] = c * x - s * y + rng.gen_range(-0.02..0.02);
        row[1] = s * x + c * y + rng.gen_range(-0.02..0.02);
        row[2] += rng.gen_range(-0.02..0.02);
    }
    pts
}

fn sphere_point(rng: &mut impl Rng) -> [f32; 3] {
    loop {
        let v =
            [rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if norm > 1e-3 {
            return [v[0] / norm, v[1] / norm, v[2] / norm];
        }
    }
}

fn box_point(rng: &mut impl Rng) -> [f32; 3] {
    // Uniform over the surface of the unit cube: pick a face, then uv.
    let face = rng.gen_range(0..6);
    let u = rng.gen_range(-1.0f32..1.0);
    let v = rng.gen_range(-1.0f32..1.0);
    match face {
        0 => [1.0, u, v],
        1 => [-1.0, u, v],
        2 => [u, 1.0, v],
        3 => [u, -1.0, v],
        4 => [u, v, 1.0],
        _ => [u, v, -1.0],
    }
}

fn cylinder_point(rng: &mut impl Rng) -> [f32; 3] {
    let theta = rng.gen_range(0.0..std::f32::consts::TAU);
    let z = rng.gen_range(-1.0f32..1.0);
    [theta.cos(), theta.sin(), z]
}

fn cone_point(rng: &mut impl Rng) -> [f32; 3] {
    let theta = rng.gen_range(0.0..std::f32::consts::TAU);
    let h = rng.gen_range(0.0f32..1.0);
    let r = 1.0 - h;
    [r * theta.cos(), r * theta.sin(), h * 2.0 - 1.0]
}

fn torus_point(rng: &mut impl Rng, minor: f32) -> [f32; 3] {
    let u = rng.gen_range(0.0..std::f32::consts::TAU);
    let v = rng.gen_range(0.0..std::f32::consts::TAU);
    let r = 1.0 + minor * v.cos();
    [r * u.cos(), r * u.sin(), minor * v.sin()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointcloud_shapes_and_labels() {
        let ds = PointCloudDataset::generate(80, 32, 40, 1);
        assert_eq!(ds.samples().len(), 80);
        for (i, s) in ds.samples().iter().enumerate() {
            assert_eq!(s.features.shape(), (32, 3));
            assert_eq!(s.label, i % 40);
            assert!(s.graph.is_none());
        }
    }

    #[test]
    fn pointcloud_deterministic() {
        let a = PointCloudDataset::generate(4, 16, 10, 5);
        let b = PointCloudDataset::generate(4, 16, 10, 5);
        assert_eq!(a.samples()[3].features, b.samples()[3].features);
    }

    #[test]
    fn pointcloud_classes_are_geometrically_distinct() {
        // Mean radius separates a sphere (class 0) from a large-aspect torus.
        let ds = PointCloudDataset::generate(10, 256, 5, 2);
        let radius = |m: &Matrix| -> f32 {
            (0..m.rows())
                .map(|i| {
                    let r = m.row(i);
                    (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt()
                })
                .sum::<f32>()
                / m.rows() as f32
        };
        let sphere = radius(&ds.samples()[0].features);
        let torus = radius(&ds.samples()[4].features);
        assert!((sphere - 1.0).abs() < 0.1);
        assert!(torus > sphere, "torus mean radius should exceed the sphere's");
    }

    #[test]
    fn split_fractions() {
        let ds = PointCloudDataset::generate(10, 8, 5, 3);
        let (tr, va) = ds.split(0.7);
        assert_eq!(tr.len(), 7);
        assert_eq!(va.len(), 3);
    }

    #[test]
    fn textgraph_shapes() {
        let ds = TextGraphDataset::generate(6, 17, 300, 11);
        let st = ds.stats();
        assert_eq!(st.num_classes, 2);
        assert_eq!(st.feature_dim, 300);
        assert!(st.mean_nodes > 10.0 && st.mean_nodes < 25.0);
        for s in ds.samples() {
            let g = s.graph.as_ref().expect("text samples carry graphs");
            assert_eq!(g.num_nodes(), s.features.rows());
        }
    }

    #[test]
    fn textgraph_window_graph_is_symmetric() {
        let ds = TextGraphDataset::generate(2, 17, 32, 13);
        let g = ds.samples()[0].graph.as_ref().unwrap();
        for (u, v) in g.iter_edges() {
            assert!(g.neighbors(v as usize).contains(&u), "missing reverse of ({u},{v})");
        }
    }

    #[test]
    fn textgraph_classes_linearly_separable_in_mean() {
        let ds = TextGraphDataset::generate(40, 17, 100, 17);
        // Project mean feature onto the class-0 direction: labels alternate.
        let mut score0 = 0.0;
        let mut score1 = 0.0;
        for s in ds.samples() {
            let mean = s.features.mean_rows();
            let proj: f32 =
                mean.row(0).iter().enumerate().map(|(j, &x)| if j % 2 == 0 { x } else { -x }).sum();
            if s.label == 0 {
                score0 += proj;
            } else {
                score1 += proj;
            }
        }
        assert!(score0 > score1, "class directions should separate means");
    }
}
