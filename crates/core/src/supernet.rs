//! One-shot supernet: shared-weight pretraining and fast accuracy queries.
//!
//! GCoDE "organizes the co-inference design space into a supernet,
//! decoupling the training and searching processes via a one-shot approach"
//! (Sec. 3.1). We pretrain with single-path sampling: each step draws a
//! random *valid* architecture and trains only the weights on its path; all
//! paths share weights through [`gcode_nn::seq::WeightBank`]. During search,
//! a candidate's accuracy is a forward pass with the shared weights — no
//! per-candidate training.

use crate::arch::Architecture;
use crate::space::DesignSpace;
use gcode_graph::datasets::Sample;
use gcode_nn::seq::{evaluate_accuracy, train_step, GraphInput, WeightBank};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A pretrained one-shot supernet over a design space.
pub struct SuperNet {
    space: DesignSpace,
    bank: WeightBank,
    rng: ChaCha8Rng,
}

impl SuperNet {
    /// Creates an untrained supernet.
    pub fn new(space: DesignSpace, seed: u64) -> Self {
        Self {
            bank: WeightBank::new(space.profile.num_classes, seed),
            space,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x50E7_AC3D),
        }
    }

    /// The design space this supernet spans.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Pretrains shared weights: `steps` rounds of (sample a valid path,
    /// run one SGD epoch of that path over `train`). Returns the final
    /// round's mean loss.
    pub fn pretrain(&mut self, train: &[Sample], steps: usize, lr: f32) -> f32 {
        // The sampler borrows a copy of the space: training borrows `self`.
        let space = self.space.clone();
        let sampler = space.sampler();
        let mut last = 0.0;
        for _ in 0..steps {
            let arch = sampler.sample(&mut self.rng);
            last = self.train_arch(&arch, train, 1, lr);
        }
        last
    }

    /// Trains one specific architecture's path for `epochs`; returns the
    /// final mean loss. Also used to fine-tune a search winner.
    pub fn train_arch(
        &mut self,
        arch: &Architecture,
        train: &[Sample],
        epochs: usize,
        lr: f32,
    ) -> f32 {
        let specs = arch.lower();
        let mut mean = 0.0;
        for _ in 0..epochs {
            let mut total = 0.0;
            for s in train {
                total += train_step(
                    &specs,
                    GraphInput { features: &s.features, graph: s.graph.as_ref() },
                    s.label,
                    &mut self.bank,
                    lr,
                    &mut self.rng,
                );
            }
            mean = total / train.len().max(1) as f32;
        }
        mean
    }

    /// Validation accuracy of a candidate with the shared weights — the
    /// `acc_val` term of Alg. 1.
    pub fn accuracy(&mut self, arch: &Architecture, val: &[Sample]) -> f64 {
        let specs = arch.lower();
        evaluate_accuracy(&specs, val, &mut self.bank, &mut self.rng)
    }

    /// Number of weight tensors materialized so far.
    pub fn num_weights(&self) -> usize {
        self.bank.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::WorkloadProfile;
    use crate::op::{Op, SampleFn};
    use gcode_graph::datasets::{PointCloudDataset, TextGraphDataset};
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    #[test]
    fn pretraining_materializes_shared_weights() {
        let profile = WorkloadProfile::modelnet40_mini(16, 4);
        let space = DesignSpace::paper(profile);
        let ds = PointCloudDataset::generate(8, 16, 4, 3);
        let mut net = SuperNet::new(space, 7);
        assert_eq!(net.num_weights(), 0);
        net.pretrain(ds.samples(), 3, 0.01);
        assert!(net.num_weights() > 0);
    }

    #[test]
    fn accuracy_query_in_unit_range() {
        let profile = WorkloadProfile::modelnet40_mini(16, 4);
        let space = DesignSpace::paper(profile);
        let ds = PointCloudDataset::generate(8, 16, 4, 5);
        let mut net = SuperNet::new(space.clone(), 9);
        let (arch, _) = space.sample_valid(&mut ChaCha8Rng::seed_from_u64(1), 100_000);
        let acc = net.accuracy(&arch, ds.samples());
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn dedicated_training_learns_text_task() {
        let profile = WorkloadProfile {
            num_nodes: 12,
            in_dim: 32,
            provides_graph: true,
            provided_degree: 4,
            num_classes: 2,
        };
        let space = DesignSpace::paper(profile);
        let ds = TextGraphDataset::generate(20, 12, 32, 4);
        let mut net = SuperNet::new(space, 11);
        let arch = Architecture::new(vec![
            Op::Combine { dim: 16 },
            Op::Aggregate(AggMode::Mean),
            Op::GlobalPool(PoolMode::Mean),
        ]);
        net.train_arch(&arch, ds.samples(), 40, 0.02);
        let acc = net.accuracy(&arch, ds.samples());
        assert!(acc > 0.8, "trained path should fit, got {acc}");
    }

    #[test]
    fn shared_weights_benefit_unseen_sibling_architecture() {
        // Train arch A; arch B sharing A's Combine slot should beat an
        // untrained supernet on the same data more often than not. We just
        // check the query path works and returns a valid accuracy.
        let profile = WorkloadProfile::modelnet40_mini(16, 2);
        let space = DesignSpace::paper(profile);
        let ds = PointCloudDataset::generate(10, 16, 2, 6);
        let mut net = SuperNet::new(space, 13);
        let a = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 8 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::GlobalPool(PoolMode::Max),
        ]);
        let b = Architecture::new(vec![
            Op::Sample(SampleFn::Knn { k: 8 }),
            Op::Aggregate(AggMode::Max),
            Op::Combine { dim: 16 },
            Op::Communicate,
            Op::GlobalPool(PoolMode::Max),
        ]);
        net.train_arch(&a, ds.samples(), 20, 0.02);
        let acc_b = net.accuracy(&b, ds.samples());
        assert!((0.0..=1.0).contains(&acc_b));
    }
}
