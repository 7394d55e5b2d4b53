//! GNN architecture zoo and the runtime dispatcher's selection policy.
//!
//! "GCoDE maintains a set of optimal GNN co-inference architectures (low
//! energy consumption, low latency, high accuracy, etc.) in an architecture
//! zoo... GCoDE dynamically adapts execution architectures via its runtime
//! dispatcher to meet the fluctuating latency and power consumption
//! constraints of the device" (Sec. 3.6).

use crate::search::ScoredArch;
use serde::{Deserialize, Serialize};

/// Runtime requirement handed to the dispatcher when conditions change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConstraint {
    /// Maximum tolerable latency in seconds (`None` = unconstrained).
    pub max_latency_s: Option<f64>,
    /// Maximum tolerable device energy per inference in joules.
    pub max_energy_j: Option<f64>,
}

impl RuntimeConstraint {
    /// No constraints: dispatcher picks the most accurate entry.
    pub fn none() -> Self {
        Self { max_latency_s: None, max_energy_j: None }
    }

    /// Latency-only constraint.
    pub fn latency(max_latency_s: f64) -> Self {
        Self { max_latency_s: Some(max_latency_s), max_energy_j: None }
    }

    /// Energy-only constraint.
    pub fn energy(max_energy_j: f64) -> Self {
        Self { max_latency_s: None, max_energy_j: Some(max_energy_j) }
    }

    fn admits(&self, entry: &ScoredArch) -> bool {
        self.max_latency_s.is_none_or(|c| entry.latency_s <= c)
            && self.max_energy_j.is_none_or(|c| entry.energy_j <= c)
    }
}

/// A persistent collection of searched architectures with their metrics.
///
/// # Example
///
/// ```
/// use gcode_core::zoo::{ArchitectureZoo, RuntimeConstraint};
/// let zoo = ArchitectureZoo::new(vec![]);
/// assert!(zoo.dispatch(RuntimeConstraint::none()).is_none());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ArchitectureZoo {
    entries: Vec<ScoredArch>,
}

impl ArchitectureZoo {
    /// Builds a zoo from search results (typically `SearchResult::zoo`).
    pub fn new(entries: Vec<ScoredArch>) -> Self {
        let mut zoo = Self { entries };
        zoo.entries.sort_by(|a, b| b.score.total_cmp(&a.score));
        zoo
    }

    /// All entries, best score first.
    pub fn entries(&self) -> &[ScoredArch] {
        &self.entries
    }

    /// Number of stored architectures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an entry, keeping the ordering invariant.
    pub fn insert(&mut self, entry: ScoredArch) {
        self.entries.push(entry);
        self.entries.sort_by(|a, b| b.score.total_cmp(&a.score));
    }

    /// Runtime dispatch: the most *accurate* entry satisfying `constraint`,
    /// falling back to the lowest-latency entry when nothing qualifies
    /// (degraded mode beats refusing to serve).
    pub fn dispatch(&self, constraint: RuntimeConstraint) -> Option<&ScoredArch> {
        let qualified = self
            .entries
            .iter()
            .filter(|e| constraint.admits(e))
            .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy));
        qualified.or_else(|| self.entries.iter().min_by(|a, b| a.latency_s.total_cmp(&b.latency_s)))
    }

    /// The zoo with each entry's `(latency_s, energy_j)` replaced by
    /// `price(entry)`, entry order kept — what scenario replay dispatches
    /// on at the current conditions.
    pub(crate) fn repriced(&self, mut price: impl FnMut(&ScoredArch) -> (f64, f64)) -> Self {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let (latency_s, energy_j) = price(e);
                ScoredArch { latency_s, energy_j, ..e.clone() }
            })
            .collect();
        Self { entries }
    }

    /// Serializes the zoo to JSON (deployment artifact).
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` serialization error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a zoo from [`ArchitectureZoo::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` deserialization error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::op::Op;
    use gcode_nn::pool::PoolMode;

    fn entry(score: f64, accuracy: f64, latency_s: f64, energy_j: f64, dim: usize) -> ScoredArch {
        ScoredArch {
            arch: Architecture::new(vec![Op::Combine { dim }, Op::GlobalPool(PoolMode::Sum)]),
            score,
            accuracy,
            latency_s,
            energy_j,
        }
    }

    fn zoo() -> ArchitectureZoo {
        ArchitectureZoo::new(vec![
            entry(0.8, 0.93, 0.100, 1.0, 128), // accurate but slow
            entry(0.7, 0.91, 0.030, 0.4, 64),  // balanced
            entry(0.6, 0.89, 0.010, 0.1, 16),  // fast & frugal
        ])
    }

    #[test]
    fn unconstrained_dispatch_prefers_accuracy() {
        let z = zoo();
        let pick = z.dispatch(RuntimeConstraint::none()).expect("non-empty");
        assert_eq!(pick.accuracy, 0.93);
    }

    #[test]
    fn latency_constraint_filters() {
        let z = zoo();
        let pick = z.dispatch(RuntimeConstraint::latency(0.05)).expect("non-empty");
        assert_eq!(pick.accuracy, 0.91);
        let pick = z.dispatch(RuntimeConstraint::latency(0.02)).expect("non-empty");
        assert_eq!(pick.accuracy, 0.89);
    }

    #[test]
    fn energy_constraint_filters() {
        let z = zoo();
        let pick = z.dispatch(RuntimeConstraint::energy(0.2)).expect("non-empty");
        assert_eq!(pick.accuracy, 0.89);
    }

    #[test]
    fn impossible_constraint_falls_back_to_fastest() {
        let z = zoo();
        let pick = z.dispatch(RuntimeConstraint::latency(1e-6)).expect("fallback");
        assert_eq!(pick.latency_s, 0.010);
    }

    #[test]
    fn empty_zoo_dispatches_none() {
        let z = ArchitectureZoo::default();
        assert!(z.dispatch(RuntimeConstraint::none()).is_none());
        assert!(z.is_empty());
    }

    #[test]
    fn insert_keeps_order() {
        let mut z = zoo();
        z.insert(entry(0.95, 0.94, 0.2, 2.0, 128));
        assert_eq!(z.entries()[0].score, 0.95);
        assert_eq!(z.len(), 4);
    }

    #[test]
    fn json_round_trip() {
        let z = zoo();
        let json = z.to_json().expect("serialize");
        let back = ArchitectureZoo::from_json(&json).expect("deserialize");
        assert_eq!(back.len(), z.len());
        assert_eq!(back.entries()[0].accuracy, z.entries()[0].accuracy);
    }
}
