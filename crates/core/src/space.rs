//! The searchable co-inference design space: sampling, mutation and
//! function scale-down.

use crate::arch::{Architecture, Validity, WorkloadProfile};
use crate::op::{Op, SampleFn};
use gcode_nn::agg::AggMode;
use gcode_nn::pool::PoolMode;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// The GNN co-inference design space `A` (Fig. 6): a supernet of
/// `num_layers` slots, each choosing one of the six operations with its
/// function setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Number of operation slots.
    pub num_layers: usize,
    /// Allowed `Combine` widths (paper: 16/32/64/128).
    pub combine_dims: Vec<usize>,
    /// Allowed `Sample` neighbor counts.
    pub sample_ks: Vec<usize>,
    /// Workload the space targets.
    pub profile: WorkloadProfile,
    /// Whether `Communicate` is a sampleable operation. `false` turns this
    /// into a *single-device* space — the HGNAS-style baseline setting
    /// where mapping is decided after the fact (Motivation ❸).
    pub allow_communicate: bool,
}

impl DesignSpace {
    /// The paper's space for a workload: 8 layers, dims {16,32,64,128},
    /// k ∈ {10, 20}.
    pub fn paper(profile: WorkloadProfile) -> Self {
        Self {
            num_layers: 8,
            combine_dims: vec![16, 32, 64, 128],
            sample_ks: vec![10, 20],
            profile,
            allow_communicate: true,
        }
    }

    /// The same space with `Communicate` removed — a single-device NAS
    /// space (HGNAS-style baseline).
    pub fn single_device(profile: WorkloadProfile) -> Self {
        Self { allow_communicate: false, ..Self::paper(profile) }
    }

    /// Uniformly samples one op for slot construction.
    fn sample_op(&self, rng: &mut impl Rng) -> Op {
        let choice = rng.gen_range(0..CHOICES);
        self.choice_op(choice, rng)
    }

    /// The op behind one of the `CHOICES` equally likely slot choices, its
    /// function setting drawn from `rng` — the only copy of the table.
    fn choice_op(&self, choice: usize, rng: &mut impl Rng) -> Op {
        match choice {
            0 => {
                let k = *self.sample_ks.choose(rng).expect("non-empty ks");
                if rng.gen_bool(0.5) {
                    Op::Sample(SampleFn::Knn { k })
                } else {
                    Op::Sample(SampleFn::Random { k })
                }
            }
            1 => Op::Aggregate(*AggMode::ALL.choose(rng).expect("non-empty")),
            2 => {
                if self.allow_communicate {
                    Op::Communicate
                } else {
                    Op::Identity
                }
            }
            3 => Op::Combine { dim: *self.combine_dims.choose(rng).expect("non-empty dims") },
            4 => Op::GlobalPool(*PoolMode::ALL.choose(rng).expect("non-empty")),
            _ => Op::Identity,
        }
    }

    /// Samples an unvalidated op sequence (one op per slot).
    pub fn sample_ops(&self, rng: &mut impl Rng) -> Architecture {
        Architecture::new((0..self.num_layers).map(|_| self.sample_op(rng)).collect())
    }

    /// The exact sampler of this space's valid architectures. It builds
    /// the count table once, so a caller that draws in a loop builds one
    /// sampler and pays for the table once, not per draw.
    ///
    /// # Panics
    ///
    /// Panics if the space holds no valid architecture (`num_layers` 0,
    /// say), or more than a `u64` can count (beyond 24 layers).
    pub fn sampler(&self) -> ValidSampler<'_> {
        let table = ValidCounts::new(self);
        assert!(table.total() > 0, "no valid architecture in {self:?}");
        ValidSampler { space: self, table }
    }

    /// Samples one valid architecture: one [`ValidSampler::sample`] draw
    /// from a fresh [`DesignSpace::sampler`].
    ///
    /// `max_tries` is ignored and the returned draw count is always 1; both
    /// remain only because the frozen `perf/` package calls this signature.
    ///
    /// # Panics
    ///
    /// As [`DesignSpace::sampler`].
    pub fn sample_valid(&self, rng: &mut impl Rng, _max_tries: usize) -> (Architecture, usize) {
        (self.sampler().sample(rng), 1)
    }

    /// Mutates one random slot to a random op — the EA baseline's mutation
    /// operator. The result is *not* validity-checked (that is the point of
    /// Fig. 10a: plain EA keeps proposing invalid candidates).
    pub fn mutate(&self, arch: &Architecture, rng: &mut impl Rng) -> Architecture {
        let mut ops = arch.ops().to_vec();
        if ops.is_empty() {
            return self.sample_ops(rng);
        }
        let slot = rng.gen_range(0..ops.len());
        ops[slot] = self.sample_op(rng);
        Architecture::new(ops)
    }

    /// Single-point crossover of two parents (EA baseline).
    pub fn crossover(
        &self,
        a: &Architecture,
        b: &Architecture,
        rng: &mut impl Rng,
    ) -> Architecture {
        let n = a.len().min(b.len());
        if n == 0 {
            return a.clone();
        }
        let cut = rng.gen_range(0..n);
        let mut ops: Vec<Op> = a.ops()[..cut].to_vec();
        ops.extend_from_slice(&b.ops()[cut..]);
        Architecture::new(ops)
    }

    /// Proposes a scaled-down function variant: one `Combine` width or
    /// `Sample` k reduced one notch (Alg. 1 stage 2). Returns `None` if
    /// nothing can shrink.
    pub fn scale_down(&self, arch: &Architecture, rng: &mut impl Rng) -> Option<Architecture> {
        let mut candidates: Vec<usize> = Vec::new();
        for (i, op) in arch.ops().iter().enumerate() {
            match op {
                Op::Combine { dim } | Op::EdgeCombine { dim }
                    if self.combine_dims.iter().any(|&d| d < *dim) =>
                {
                    candidates.push(i);
                }
                Op::Sample(f) if self.sample_ks.iter().any(|&k| k < f.k()) => {
                    candidates.push(i);
                }
                _ => {}
            }
        }
        let &slot = candidates.choose(rng)?;
        let mut ops = arch.ops().to_vec();
        ops[slot] = match ops[slot] {
            Op::Combine { dim } => Op::Combine { dim: next_smaller(&self.combine_dims, dim)? },
            Op::EdgeCombine { dim } => {
                Op::EdgeCombine { dim: next_smaller(&self.combine_dims, dim)? }
            }
            Op::Sample(SampleFn::Knn { k }) => {
                Op::Sample(SampleFn::Knn { k: next_smaller(&self.sample_ks, k)? })
            }
            Op::Sample(SampleFn::Random { k }) => {
                Op::Sample(SampleFn::Random { k: next_smaller(&self.sample_ks, k)? })
            }
            other => other,
        };
        Some(Architecture::new(ops))
    }
}

/// Equally likely op choices per slot (the arms of `choice_op`).
const CHOICES: usize = 6;

/// An RNG of constant words, for a representative op per choice:
/// `choice_op` draws *some* function setting from it, and any will do —
/// validity sees the choice, never the function.
struct AnyFunction;

impl RngCore for AnyFunction {
    fn next_u32(&mut self) -> u32 {
        0
    }

    fn next_u64(&mut self) -> u64 {
        0
    }
}

/// One op per choice, in `choice_op`'s order.
fn representative_ops(space: &DesignSpace) -> [Op; CHOICES] {
    std::array::from_fn(|choice| space.choice_op(choice, &mut AnyFunction))
}

/// Draws valid architectures of one [`DesignSpace`] off a count table
/// built once by [`DesignSpace::sampler`].
#[derive(Debug)]
pub struct ValidSampler<'a> {
    space: &'a DesignSpace,
    table: ValidCounts,
}

impl ValidSampler<'_> {
    /// Samples one valid architecture, uniformly over the valid *choice*
    /// sequences with each op's function drawn independently — the
    /// distribution Alg. 1's `while Check(Ops)` loop over
    /// [`DesignSpace::sample_ops`] produces, without the loop: one rank is
    /// drawn below the number of valid sequences and unranked through a
    /// count table over the validity rules' state machine.
    pub fn sample(&self, rng: &mut impl Rng) -> Architecture {
        let rank = rng.gen_range(0..self.table.total());
        let ops = self.table.unrank(rank).map(|choice| self.space.choice_op(choice, rng)).collect();
        Architecture::new(ops)
    }
}

/// How many valid choice sequences complete each prefix of a space: the
/// [`Validity`] automaton's transitions per choice, and a backward count
/// of its accepting paths. Uniform sampling is then one draw below
/// [`ValidCounts::total`] and a walk down the table.
#[derive(Debug)]
struct ValidCounts {
    /// `next[state][choice]`: the state index after that choice, `None`
    /// where `Validity::step` refuses it.
    next: [[Option<usize>; CHOICES]; Validity::STATES],
    /// `completions[slot][state]`: valid ways to fill slots `slot..` from
    /// `state`; row `num_layers` is 1 where `Validity::finish` accepts.
    completions: Vec<[u64; Validity::STATES]>,
    start: usize,
}

impl ValidCounts {
    fn new(space: &DesignSpace) -> Self {
        let ops = representative_ops(space);
        let mut next = [[None; CHOICES]; Validity::STATES];
        for (state, row) in next.iter_mut().enumerate() {
            for (to, op) in row.iter_mut().zip(&ops) {
                *to = Validity::from_index(state).step(0, op).ok().map(Validity::index);
            }
        }
        let mut completions = vec![[0u64; Validity::STATES]; space.num_layers + 1];
        for (state, count) in completions[space.num_layers].iter_mut().enumerate() {
            *count = u64::from(Validity::from_index(state).finish().is_ok());
        }
        for slot in (0..space.num_layers).rev() {
            for state in 0..Validity::STATES {
                completions[slot][state] = next[state]
                    .iter()
                    .flatten()
                    .try_fold(0u64, |sum, &to| sum.checked_add(completions[slot + 1][to]))
                    .unwrap_or_else(|| panic!("valid architectures of {space:?} overflow u64"));
            }
        }
        Self { next, completions, start: Validity::start(&space.profile).index() }
    }

    /// Number of valid choice sequences (0 for an empty space: the start
    /// state has seen no pool).
    fn total(&self) -> u64 {
        self.completions[0][self.start]
    }

    /// The `rank`-th valid choice sequence in lexicographic order, one
    /// choice per slot.
    fn unrank(&self, mut rank: u64) -> impl Iterator<Item = usize> + '_ {
        assert!(rank < self.total(), "rank {rank} of {}", self.total());
        let mut state = self.start;
        self.completions[1..].iter().map(move |after| {
            for (choice, to) in self.next[state].iter().enumerate() {
                let Some(to) = *to else { continue };
                if rank < after[to] {
                    state = to;
                    return choice;
                }
                rank -= after[to];
            }
            unreachable!("rank below the completions of a state selects one of its choices")
        })
    }
}

fn next_smaller(options: &[usize], current: usize) -> Option<usize> {
    options.iter().copied().filter(|&d| d < current).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space() -> DesignSpace {
        DesignSpace::paper(WorkloadProfile::modelnet40())
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn sample_ops_has_layer_count() {
        let s = space();
        let arch = s.sample_ops(&mut rng(1));
        assert_eq!(arch.len(), 8);
    }

    #[test]
    fn sample_valid_always_validates() {
        let s = space();
        let mut r = rng(2);
        for _ in 0..50 {
            let (arch, _) = s.sample_valid(&mut r, 10_000);
            assert!(arch.validate(&s.profile).is_ok(), "invalid: {arch}");
        }
    }

    #[test]
    fn raw_sampling_often_invalid() {
        // The motivation for the Check loop: the fused space is littered
        // with invalid sequences.
        let s = space();
        let mut r = rng(3);
        let invalid =
            (0..500).filter(|_| s.sample_ops(&mut r).validate(&s.profile).is_err()).count();
        assert!(invalid > 200, "expected many invalid draws, got {invalid}/500");
    }

    #[test]
    fn mutation_changes_at_most_one_slot() {
        let s = space();
        let mut r = rng(4);
        let (arch, _) = s.sample_valid(&mut r, 10_000);
        let mutant = s.mutate(&arch, &mut r);
        let diffs = arch.ops().iter().zip(mutant.ops()).filter(|(a, b)| a != b).count();
        assert!(diffs <= 1);
        assert_eq!(mutant.len(), arch.len());
    }

    #[test]
    fn crossover_preserves_length() {
        let s = space();
        let mut r = rng(5);
        let a = s.sample_ops(&mut r);
        let b = s.sample_ops(&mut r);
        let c = s.crossover(&a, &b, &mut r);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn scale_down_shrinks_one_function() {
        let s = space();
        let arch = Architecture::new(vec![Op::Combine { dim: 128 }, Op::GlobalPool(PoolMode::Sum)]);
        let mut r = rng(6);
        let shrunk = s.scale_down(&arch, &mut r).expect("128 can shrink");
        match shrunk.ops()[0] {
            Op::Combine { dim } => assert_eq!(dim, 64),
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn scale_down_none_at_minimum() {
        let s = space();
        let arch = Architecture::new(vec![
            Op::Combine { dim: 16 },
            Op::Sample(SampleFn::Knn { k: 10 }),
            Op::GlobalPool(PoolMode::Sum),
        ]);
        assert!(s.scale_down(&arch, &mut rng(7)).is_none());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = space();
        let a = s.sample_ops(&mut rng(9));
        let b = s.sample_ops(&mut rng(9));
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod single_device_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_device_space_never_communicates() {
        let s = DesignSpace::single_device(WorkloadProfile::modelnet40());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..100 {
            let (arch, _) = s.sample_valid(&mut rng, 100_000);
            assert_eq!(arch.num_communicates(), 0, "leaked communicate: {arch}");
        }
    }

    #[test]
    fn paper_space_does_communicate_sometimes() {
        let s = DesignSpace::paper(WorkloadProfile::modelnet40());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let with_comm =
            (0..100).filter(|_| s.sample_valid(&mut rng, 100_000).0.num_communicates() > 0).count();
        assert!(with_comm > 20, "expected frequent splits, got {with_comm}/100");
    }
}

#[cfg(test)]
mod exact_sampler_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    /// `provides_graph` × `allow_communicate`, in the order of the paper
    /// space's totals below.
    fn configurations(num_layers: usize) -> [DesignSpace; 4] {
        let space = |profile, allow_communicate| DesignSpace {
            num_layers,
            allow_communicate,
            ..DesignSpace::paper(profile)
        };
        let (cloud, text) = (WorkloadProfile::modelnet40(), WorkloadProfile::mr());
        [space(cloud, true), space(cloud, false), space(text, true), space(text, false)]
    }

    /// Alg. 1's `while Check(Ops)` loop — what `sample_valid` was, kept as
    /// the reference for its distribution.
    fn sample_by_rejection(space: &DesignSpace, rng: &mut impl Rng) -> Architecture {
        loop {
            let arch = space.sample_ops(rng);
            if arch.validate(&space.profile).is_ok() {
                return arch;
            }
        }
    }

    /// A choice sequence as a base-`CHOICES` number, slot 0 most
    /// significant, so numeric order is lexicographic order.
    fn code(choices: impl Iterator<Item = usize>) -> u32 {
        choices.fold(0, |code, choice| code * CHOICES as u32 + choice as u32)
    }

    /// Codes of every choice sequence whose ops pass `validate`, ascending.
    fn brute_force_valid(space: &DesignSpace) -> Vec<u32> {
        let ops = representative_ops(space);
        let sequences = (CHOICES as u32).pow(space.num_layers as u32);
        (0..sequences)
            .filter(|&sequence| {
                let mut rest = sequence;
                let mut arch = vec![Op::Identity; space.num_layers];
                for slot in arch.iter_mut().rev() {
                    *slot = ops[(rest % CHOICES as u32) as usize];
                    rest /= CHOICES as u32;
                }
                Architecture::new(arch).validate(&space.profile).is_ok()
            })
            .collect()
    }

    /// The table's total is the brute-force count and unranking
    /// `0..total` enumerates exactly the brute-force set, in order.
    fn assert_unranking_is_the_valid_set(space: &DesignSpace) -> u64 {
        let table = ValidCounts::new(space);
        let unranked: Vec<u32> = (0..table.total()).map(|rank| code(table.unrank(rank))).collect();
        assert!(unranked == brute_force_valid(space), "{space:?}");
        table.total()
    }

    #[test]
    fn paper_space_counts_and_unranking_match_brute_force() {
        let totals = configurations(8).map(|space| assert_unranking_is_the_valid_set(&space));
        assert_eq!(totals, [80_460, 104_764, 150_520, 192_032]);
    }

    #[test]
    fn small_spaces_counts_and_unranking_match_brute_force() {
        for num_layers in 1..=5 {
            for space in configurations(num_layers) {
                assert!(assert_unranking_is_the_valid_set(&space) > 0);
            }
        }
    }

    #[test]
    fn distribution_matches_the_rejection_loop() {
        // Frequencies from two independent runs of SAMPLES draws differ by
        // sqrt(2 p (1 - p) / SAMPLES) <= 0.0016 (one sigma); 0.006 is past
        // 3.7 sigma for every one of the ~170 cells compared.
        const SAMPLES: usize = 200_000;
        const TOLERANCE: f64 = 0.006;
        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
        enum Cell {
            OpAtSlot(usize, Op),
            Communicates(usize),
        }
        let space = DesignSpace::paper(WorkloadProfile::modelnet40());
        let tally = |sample: &mut dyn FnMut() -> Architecture| {
            let mut cells: BTreeMap<Cell, usize> = BTreeMap::new();
            for _ in 0..SAMPLES {
                let arch = sample();
                for (slot, &op) in arch.ops().iter().enumerate() {
                    *cells.entry(Cell::OpAtSlot(slot, op)).or_default() += 1;
                }
                *cells.entry(Cell::Communicates(arch.num_communicates())).or_default() += 1;
            }
            cells
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let exact = tally(&mut || space.sample_valid(&mut rng, 0).0);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let reference = tally(&mut || sample_by_rejection(&space, &mut rng));
        assert_eq!(exact.keys().collect::<Vec<_>>(), reference.keys().collect::<Vec<_>>());
        for (cell, &count) in &exact {
            let diff = (count as f64 - reference[cell] as f64).abs() / SAMPLES as f64;
            assert!(diff < TOLERANCE, "{cell:?}: {count} vs {} of {SAMPLES}", reference[cell]);
        }
    }

    #[test]
    fn one_sampler_draws_what_repeated_sample_valid_draws() {
        for space in configurations(8) {
            let sampler = space.sampler();
            let (mut a, mut b) = (ChaCha8Rng::seed_from_u64(21), ChaCha8Rng::seed_from_u64(21));
            for _ in 0..1000 {
                assert_eq!(sampler.sample(&mut a), space.sample_valid(&mut b, 0).0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no valid architecture in DesignSpace { num_layers: 0")]
    fn empty_space_panics_at_once() {
        let space = DesignSpace { num_layers: 0, ..DesignSpace::paper(WorkloadProfile::mr()) };
        space.sample_valid(&mut ChaCha8Rng::seed_from_u64(1), 100_000);
    }

    #[test]
    #[should_panic(expected = "overflow u64")]
    fn a_space_too_wide_to_count_panics_instead_of_wrapping() {
        let space = DesignSpace { num_layers: 40, ..DesignSpace::paper(WorkloadProfile::mr()) };
        space.sample_valid(&mut ChaCha8Rng::seed_from_u64(1), 0);
    }

    #[test]
    fn twenty_four_layers_are_counted_exactly() {
        let space = DesignSpace { num_layers: 24, ..DesignSpace::paper(WorkloadProfile::mr()) };
        let (arch, _) = space.sample_valid(&mut ChaCha8Rng::seed_from_u64(1), 0);
        assert_eq!(arch.len(), 24);
        assert!(arch.validate(&space.profile).is_ok());
    }
}
