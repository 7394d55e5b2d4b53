//! Multi-objective utilities: Pareto-front extraction and hypervolume.
//!
//! GCoDE is a multi-objective optimizer (accuracy vs latency vs energy);
//! Fig. 8 of the paper plots the accuracy/latency frontier. These helpers
//! extract fronts from search results and quantify frontier quality so the
//! λ-sweep ablation has a scalar to compare.

use crate::search::ScoredArch;
use serde::{Deserialize, Serialize};

/// A point in (maximize accuracy, minimize latency) space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Accuracy in `[0, 1]` (maximized).
    pub accuracy: f64,
    /// Latency in seconds (minimized).
    pub latency_s: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other`: at least as good in both
    /// objectives and strictly better in one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let geq = self.accuracy >= other.accuracy && self.latency_s <= other.latency_s;
        let strict = self.accuracy > other.accuracy || self.latency_s < other.latency_s;
        geq && strict
    }
}

impl From<&ScoredArch> for ParetoPoint {
    fn from(s: &ScoredArch) -> Self {
        Self { accuracy: s.accuracy, latency_s: s.latency_s }
    }
}

/// Extracts the non-dominated subset, sorted by ascending latency.
fn pareto_front(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    let mut front: Vec<ParetoPoint> = Vec::new();
    for &p in points {
        if points.iter().any(|q| q.dominates(&p)) {
            continue;
        }
        // Keep one representative per exact coordinate pair.
        if !front.iter().any(|f| f == &p) {
            front.push(p);
        }
    }
    front.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
    front
}

/// 2-D hypervolume of the front against a reference point
/// `(ref_accuracy_floor, ref_latency_ceiling)`: the area dominated by the
/// front inside the reference box. Larger is better.
///
/// Points outside the box contribute only their clipped part.
///
/// # Example
///
/// ```
/// use gcode_core::pareto::{hypervolume, ParetoPoint};
///
/// let pts = vec![
///     ParetoPoint { accuracy: 0.90, latency_s: 0.010 },
///     ParetoPoint { accuracy: 0.92, latency_s: 0.020 },
///     ParetoPoint { accuracy: 0.91, latency_s: 0.025 }, // dominated: adds nothing
/// ];
/// let hv = hypervolume(&pts, 0.85, 0.030);
/// assert!((hv - (0.020 * 0.05 + 0.010 * 0.02)).abs() < 1e-12);
/// ```
pub fn hypervolume(front: &[ParetoPoint], ref_accuracy: f64, ref_latency_s: f64) -> f64 {
    let mut pts = pareto_front(front);
    pts.retain(|p| p.accuracy > ref_accuracy && p.latency_s < ref_latency_s);
    if pts.is_empty() {
        return 0.0;
    }
    // Sweep latency ascending; accuracy strictly decreasing along a clean
    // front after pruning.
    let mut volume = 0.0;
    let mut prev_latency = ref_latency_s;
    for p in pts.iter().rev() {
        // From high latency to low: rectangle between this point's latency
        // and the previous sweep line, at this point's accuracy height.
        let width = prev_latency - p.latency_s;
        let height = p.accuracy - ref_accuracy;
        if width > 0.0 && height > 0.0 {
            volume += width * height;
        }
        prev_latency = p.latency_s;
    }
    volume
}

/// Extracts the accuracy/latency front of a set of scored candidates.
pub fn front_of(archs: &[ScoredArch]) -> Vec<ParetoPoint> {
    let pts: Vec<ParetoPoint> = archs.iter().map(ParetoPoint::from).collect();
    pareto_front(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(accuracy: f64, latency_s: f64) -> ParetoPoint {
        ParetoPoint { accuracy, latency_s }
    }

    #[test]
    fn domination_rules() {
        assert!(p(0.9, 0.1).dominates(&p(0.8, 0.2)));
        assert!(p(0.9, 0.1).dominates(&p(0.9, 0.2)));
        assert!(!p(0.9, 0.1).dominates(&p(0.9, 0.1)), "no self-domination");
        assert!(!p(0.9, 0.2).dominates(&p(0.8, 0.1)), "trade-offs don't dominate");
    }

    #[test]
    fn front_removes_dominated_and_sorts() {
        let pts = vec![p(0.92, 0.05), p(0.90, 0.01), p(0.91, 0.06), p(0.85, 0.02)];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![p(0.90, 0.01), p(0.92, 0.05)]);
    }

    #[test]
    fn front_of_empty_is_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn duplicates_collapse() {
        let pts = vec![p(0.9, 0.1), p(0.9, 0.1)];
        assert_eq!(pareto_front(&pts).len(), 1);
    }

    #[test]
    fn hypervolume_known_value() {
        // Single point (0.9 acc, 0.1 s) vs reference (0.8, 0.3):
        // area = (0.3 - 0.1) * (0.9 - 0.8) = 0.02.
        let hv = hypervolume(&[p(0.9, 0.1)], 0.8, 0.3);
        assert!((hv - 0.02).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_additive_over_staircase() {
        // Two points forming a staircase.
        let hv = hypervolume(&[p(0.85, 0.05), p(0.95, 0.20)], 0.80, 0.30);
        // Rect A: latency 0.30→0.20 at height 0.15 = 0.015
        // Rect B: latency 0.20→0.05 at height 0.05 = 0.0075
        assert!((hv - 0.0225).abs() < 1e-12, "got {hv}");
    }

    #[test]
    fn better_front_has_larger_hypervolume() {
        let weak = vec![p(0.85, 0.10)];
        let strong = vec![p(0.85, 0.10), p(0.92, 0.05)];
        let r = |f: &[ParetoPoint]| hypervolume(f, 0.8, 0.3);
        assert!(r(&strong) > r(&weak));
    }

    #[test]
    fn points_outside_reference_contribute_nothing() {
        let hv = hypervolume(&[p(0.75, 0.1)], 0.8, 0.3);
        assert_eq!(hv, 0.0);
    }

    #[test]
    fn hypervolume_of_empty_front_is_zero() {
        assert_eq!(hypervolume(&[], 0.8, 0.3), 0.0);
    }

    #[test]
    fn ties_on_one_objective_keep_only_the_dominating_point() {
        // Same accuracy, different latency: the faster point dominates.
        let same_acc = pareto_front(&[p(0.9, 0.1), p(0.9, 0.2), p(0.9, 0.3)]);
        assert_eq!(same_acc, vec![p(0.9, 0.1)]);
        // Same latency, different accuracy: the more accurate dominates.
        let same_lat = pareto_front(&[p(0.85, 0.1), p(0.95, 0.1), p(0.90, 0.1)]);
        assert_eq!(same_lat, vec![p(0.95, 0.1)]);
        // A tie on one objective with a trade-off on the other keeps both.
        let trade = pareto_front(&[p(0.9, 0.1), p(0.95, 0.2)]);
        assert_eq!(trade.len(), 2);
    }

    #[test]
    fn front_is_insertion_order_independent() {
        let pts = [
            p(0.92, 0.05),
            p(0.90, 0.01),
            p(0.91, 0.06),
            p(0.85, 0.02),
            p(0.90, 0.01),
            p(0.95, 0.09),
        ];
        let baseline = pareto_front(&pts);
        // Exhaustively check a handful of distinct orderings, including
        // reversed and interleaved ones.
        let orders: [Vec<usize>; 4] = [
            vec![5, 4, 3, 2, 1, 0],
            vec![1, 3, 5, 0, 2, 4],
            vec![2, 0, 4, 5, 3, 1],
            vec![4, 5, 0, 1, 2, 3],
        ];
        for order in orders {
            let shuffled: Vec<ParetoPoint> = order.iter().map(|&i| pts[i]).collect();
            assert_eq!(pareto_front(&shuffled), baseline, "order {order:?}");
        }
    }

    #[test]
    fn duplicate_points_collapse_regardless_of_multiplicity() {
        let pts = vec![p(0.9, 0.1); 5];
        assert_eq!(pareto_front(&pts), vec![p(0.9, 0.1)]);
        // Duplicates of a dominated point still vanish entirely.
        let mixed = vec![p(0.8, 0.2), p(0.8, 0.2), p(0.9, 0.1)];
        assert_eq!(pareto_front(&mixed), vec![p(0.9, 0.1)]);
    }

    #[test]
    fn front_of_scored_archs_maps_fields() {
        use crate::arch::Architecture;
        use crate::op::{Op, SampleFn};

        let arch = Architecture::new(vec![Op::Sample(SampleFn::Knn { k: 20 })]);
        let mk = |accuracy: f64, latency_s: f64| ScoredArch {
            arch: arch.clone(),
            score: 0.0,
            accuracy,
            latency_s,
            energy_j: 0.1,
        };
        let front = front_of(&[mk(0.9, 0.1), mk(0.8, 0.2), mk(0.92, 0.3)]);
        assert_eq!(front, vec![p(0.9, 0.1), p(0.92, 0.3)]);
    }
}
