//! K-nearest-neighbor graph construction.
//!
//! DGCNN rebuilds the neighbor graph *in feature space* before every edge
//! convolution; this is the `KNN` operation whose cost dominates GPU
//! execution in the paper's Fig. 3. The brute-force `O(n²·d)` scan here is
//! faithful to what PyG's `knn_graph` does for these sizes; it is blocked
//! and register-tiled for the machine, not approximated.

use crate::CsrGraph;
use gcode_tensor::rows::{self, Job};
use gcode_tensor::Matrix;
use rand::Rng;

/// Query rows whose distances are accumulated together: each packed
/// coordinate of a target tile is loaded once per block.
const QUERY_BLOCK: usize = 4;

/// Target nodes whose distances to one query block are summed together:
/// the block's `QUERY_BLOCK × TILE` partial sums stay in registers over
/// every coordinate, and are stored once.
const TILE: usize = 8;

/// Builds the directed k-NN graph of the rows of `features` under squared
/// Euclidean distance. Node `u` points to its `k` nearest *other* nodes,
/// nearest first; with `n <= k` nodes every other node becomes a neighbor.
///
/// The order is total, so the construction is fully deterministic on any
/// input: by distance, then by node index, and a NaN distance (a non-finite
/// coordinate on either end) ranks after every non-NaN one — `+inf`
/// included — again by node index. Nothing here panics on non-finite
/// input; the edge runs this on activations that arrived over a socket.
///
/// Each distance is the sum `((0 + t₀²) + t₁²) + …` over the coordinates in
/// order, `tⱼ = features[u][j] - features[v][j]`, whatever the blocking,
/// the row bands or the build of the band body ([`rows`]).
///
/// # Example
///
/// ```
/// use gcode_graph::knn::knn_graph;
/// use gcode_tensor::Matrix;
///
/// let pts = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0]]);
/// let g = knn_graph(&pts, 1);
/// assert_eq!(g.neighbors(0), &[1]);
/// assert_eq!(g.neighbors(2), &[1]);
/// ```
pub fn knn_graph(features: &Matrix, k: usize) -> CsrGraph {
    let (n, d) = features.shape();
    // Per target of a query: a subtract, a multiply and an add per
    // coordinate, and a visit by each of the selector's two passes.
    let ops_per_block = (QUERY_BLOCK * n).saturating_mul(3 * d + 2);
    knn_graph_as(features, k, Job::new(n.div_ceil(QUERY_BLOCK), ops_per_block))
}

/// [`knn_graph`] with the query nodes cut into at most `bands` runs of whole
/// query blocks, whatever the host's cores, by the build the host runs
/// every kNN with.
#[cfg(test)]
fn knn_graph_banded(features: &Matrix, k: usize, bands: usize) -> CsrGraph {
    knn_graph_as(features, k, Job { bands, avx2: rows::avx2() })
}

/// [`knn_graph`] as `job` says: the query nodes cut into at most
/// `job.bands` runs of whole query blocks, filled by the build it names. A
/// band has its own distance rows and [`Selector`] and writes the neighbor
/// lists of its own nodes, so no list can tell how many bands there were.
fn knn_graph_as(features: &Matrix, k: usize, job: Job) -> CsrGraph {
    let n = features.rows();
    assert!(u32::try_from(n).is_ok(), "node indices are u32");
    let kk = k.min(n.saturating_sub(1));
    if kk == 0 {
        return CsrGraph::empty(n);
    }
    let tiles = pack_tiles(features);
    let mut targets = vec![0u32; n * kk];
    rows::for_each_split(job.bands, &mut targets, QUERY_BLOCK * kk, |first_block, lists| {
        match job.avx2 {
            // SAFETY: an `Avx2` exists only where `rows::avx2()` found AVX2
            // on this CPU at run time.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[allow(unsafe_code)]
            Some(_) => unsafe { knn_band_avx2(features, &tiles, first_block, lists, kk) },
            _ => knn_band(features, &tiles, first_block, lists, kk),
        }
    });
    CsrGraph::from_degrees(std::iter::repeat_n(kk, n), targets)
}

/// The coordinates of `features` in tiles of `TILE` nodes: tile `t` holds
/// coordinate `j` of nodes `t·TILE..` as the contiguous run
/// `[(t·d + j)·TILE..][..TILE]`. The last tile is padded with zeros, whose
/// distances are computed and never stored.
fn pack_tiles(features: &Matrix) -> Vec<f32> {
    let (n, d) = features.shape();
    let mut tiles = vec![0.0f32; n.div_ceil(TILE) * TILE * d];
    for v in 0..n {
        let tile = &mut tiles[v / TILE * TILE * d..][..TILE * d];
        for (j, &x) in features.row(v).iter().enumerate() {
            tile[j * TILE + v % TILE] = x;
        }
    }
    tiles
}

/// Fills `lists`, the neighbor lists of the query blocks from
/// `first_block` on, `kk` targets a node: one band of [`knn_graph`].
/// Inlined into both builds, [`knn_band_avx2`] and the baseline.
#[inline(always)]
fn knn_band(features: &Matrix, tiles: &[f32], first_block: usize, lists: &mut [u32], kk: usize) {
    let (n, d) = features.shape();
    let mut dist = vec![0.0f32; QUERY_BLOCK * n];
    let mut query = vec![[0.0f32; QUERY_BLOCK]; d];
    let mut select = Selector::new(n, kk);
    let blocks = (first_block * QUERY_BLOCK..n).step_by(QUERY_BLOCK);
    for (u0, lists) in blocks.zip(lists.chunks_mut(QUERY_BLOCK * kk)) {
        // A short last block repeats its last node; the repeats' rows are
        // computed and never read.
        for r in 0..QUERY_BLOCK {
            for (q, &x) in query.iter_mut().zip(features.row((u0 + r).min(n - 1))) {
                q[r] = x;
            }
        }
        distances(&query, tiles, n, &mut dist);
        for (r, (row, list)) in dist.chunks_exact(n).zip(lists.chunks_exact_mut(kk)).enumerate() {
            for (target, &key) in list.iter_mut().zip(select.nearest(row, u0 + r)) {
                *target = key as u32;
            }
        }
    }
}

/// [`knn_band`] compiled with AVX2: eight `f32` lanes where the baseline
/// has four, the same subtracts, multiplies and adds in the same order.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn knn_band_avx2(
    features: &Matrix,
    tiles: &[f32],
    first_block: usize,
    lists: &mut [u32],
    kk: usize,
) {
    knn_band(features, tiles, first_block, lists, kk);
}

/// Writes into row `r` of `dist` (`QUERY_BLOCK` rows of `n`) the squared
/// distance of query `r` to every node, from the queries' coordinates
/// (`query[j][r]`) and the packed target tiles. Every sum runs over `j` in
/// order from `0.0`; the tile only decides which sums share registers.
#[inline(always)]
fn distances(query: &[[f32; QUERY_BLOCK]], tiles: &[f32], n: usize, dist: &mut [f32]) {
    let d = query.len();
    for v0 in (0..n).step_by(TILE) {
        let tile = &tiles[v0 * d..][..TILE * d];
        let mut acc = [[0.0f32; TILE]; QUERY_BLOCK];
        for (coord, q) in tile.chunks_exact(TILE).zip(query) {
            for (acc, &q) in acc.iter_mut().zip(q) {
                for (a, &c) in acc.iter_mut().zip(coord) {
                    let t = q - c;
                    *a += t * t;
                }
            }
        }
        let width = TILE.min(n - v0);
        for (row, acc) in dist.chunks_exact_mut(n).zip(&acc) {
            row[v0..v0 + width].copy_from_slice(&acc[..width]);
        }
    }
}

/// Sort key of candidate `v` at distance `d`: distance in the high half,
/// node index in the low half, so one integer comparison orders by both.
///
/// A sum of squares is `+0`, positive, `+inf` or NaN. The bit patterns of
/// the first three order as the values do; every NaN is sent above them.
fn rank(d: f32, v: usize) -> u64 {
    let bits = if d.is_nan() { u32::MAX } else { d.to_bits() };
    u64::from(bits) << 32 | v as u64
}

/// Picks the `kk` nearest entries of one distance row, with buffers reused
/// from row to row.
///
/// Two passes, both sequential over the row. The first keeps the minimum
/// of every `lanes`-strided lane (NaN never wins) and takes the
/// `kk + 1`-th smallest of those minima as a bound: at least `kk + 1`
/// distinct nodes lie at or under it, so at least `kk` besides the query
/// itself, so none of the `kk` nearest lies above it. The second pass
/// collects what lies at or under the bound — a few more than `kk` entries
/// on a typical row — and only those are ranked and sorted. NaN entries are
/// always collected; they sort last and are cut off again unless the row
/// has too few others, which is also when the bound is `+inf` and the pass
/// collects everything. The second pass decides 64 entries at a time into a
/// bit mask of `!(d > bound)` — the same set as `d <= bound || d.is_nan()`,
/// since the bound is never NaN — with no branch per entry, and visits the
/// set bits. Where the lanes span the whole row (`n` at most twice
/// `kk + 1`, rounded up to 8) the first pass is skipped and every entry
/// collected. Of what was collected, only the `kk` smallest are sorted.
struct Selector {
    kk: usize,
    lane_min: Vec<f32>,
    ranked: Vec<u64>,
}

impl Selector {
    fn new(n: usize, kk: usize) -> Self {
        // Twice the lanes the bound needs: narrower lanes, tighter bound.
        let lanes = (2 * (kk + 1)).next_multiple_of(8).min(n);
        Self { kk, lane_min: vec![0.0; lanes], ranked: Vec::with_capacity(n) }
    }

    /// Rank keys of the `kk` nearest nodes of `row` other than `u`, nearest
    /// first. `row.len() > kk` and `row.len() >= lanes`.
    #[inline(always)]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(d > bound)` admits NaN on purpose
    fn nearest(&mut self, row: &[f32], u: usize) -> &[u64] {
        // Lanes that span the row are the row itself: the bound would
        // cost a selection over the whole row, so every entry is collected
        // instead.
        let bound = if self.lane_min.len() == row.len() {
            f32::INFINITY
        } else {
            self.lane_min.fill(f32::INFINITY);
            for chunk in row.chunks(self.lane_min.len()) {
                for (m, &d) in self.lane_min.iter_mut().zip(chunk) {
                    *m = if d < *m { d } else { *m };
                }
            }
            *self.lane_min.select_nth_unstable_by(self.kk, f32::total_cmp).1
        };
        self.ranked.clear();
        for (v0, chunk) in (0..).step_by(64).zip(row.chunks(64)) {
            let mut near = 0u64;
            for (i, &d) in chunk.iter().enumerate() {
                near |= u64::from(!(d > bound)) << i;
            }
            if let Some(own) = u.checked_sub(v0).filter(|&i| i < chunk.len()) {
                near &= !(1 << own);
            }
            while near != 0 {
                let i = near.trailing_zeros() as usize;
                self.ranked.push(rank(chunk[i], v0 + i));
                near &= near - 1;
            }
        }
        // Keys are distinct, so the `kk` smallest, sorted, are the first
        // `kk` of the whole run sorted.
        if self.ranked.len() > self.kk {
            self.ranked.select_nth_unstable(self.kk);
            self.ranked.truncate(self.kk);
        }
        self.ranked.sort_unstable();
        &self.ranked[..self.kk]
    }
}

/// Builds a random directed graph where each node points to `k` distinct
/// uniformly-sampled other nodes — the `Random` sampling function of the
/// design space's `Sample` operation (Fig. 6).
///
/// With `n <= k` nodes every other node becomes a neighbor.
pub fn random_graph(n: usize, k: usize, rng: &mut impl Rng) -> CsrGraph {
    let kk = k.min(n.saturating_sub(1));
    let mut targets = Vec::with_capacity(n * kk);
    // `mark[v] == u + 1`: `v` is `u` itself or already one of its targets.
    let mut mark = vec![0usize; n];
    for u in 0..n {
        mark[u] = u + 1;
        // Reservoir-free rejection sampling is fine at these densities.
        let mut left = kk;
        while left > 0 {
            let v = rng.gen_range(0..n);
            if mark[v] != u + 1 {
                mark[v] = u + 1;
                targets.push(v as u32);
                left -= 1;
            }
        }
    }
    CsrGraph::from_degrees(std::iter::repeat_n(kk, n), targets)
}

/// Number of multiply-accumulate-equivalent operations a brute-force KNN
/// over `n` points of dimension `d` performs. Used by the hardware cost
/// model to price the op.
pub fn knn_flops(n: usize, d: usize) -> u64 {
    // n*(n-1) pairwise distances, d mul + d add each, plus selection ~ n log n.
    let pairs = (n as u64) * (n.saturating_sub(1) as u64);
    pairs * (2 * d as u64) + (n as u64) * (n as f64).log2().ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn grid_points() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[5.0, 5.0], &[5.0, 6.0]])
    }

    /// The order `knn_graph` documents, written out case by case.
    fn by_distance_then_index(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
        match (a.0.is_nan(), b.0.is_nan()) {
            (false, false) => a.partial_cmp(b).expect("neither distance is NaN"),
            (a_nan, b_nan) => a_nan.cmp(&b_nan).then(a.1.cmp(&b.1)),
        }
    }

    /// The brute force `knn_graph` replaced — one serial distance per pair,
    /// `select_nth_unstable_by` + sort, one `Vec` per node — kept as the
    /// reference the blocked kernel must match edge for edge.
    fn knn_graph_reference(features: &Matrix, k: usize) -> CsrGraph {
        let n = features.rows();
        let mut adj = Vec::with_capacity(n);
        let mut dist: Vec<(f32, u32)> = Vec::with_capacity(n.saturating_sub(1));
        for u in 0..n {
            dist.clear();
            let fu = features.row(u);
            for v in 0..n {
                if v == u {
                    continue;
                }
                let fv = features.row(v);
                let mut d = 0.0;
                for (a, b) in fu.iter().zip(fv) {
                    let t = a - b;
                    d += t * t;
                }
                dist.push((d, v as u32));
            }
            let kk = k.min(dist.len());
            if kk == 0 {
                adj.push(Vec::new());
                continue;
            }
            dist.select_nth_unstable_by(kk - 1, by_distance_then_index);
            let mut chosen: Vec<(f32, u32)> = dist[..kk].to_vec();
            chosen.sort_unstable_by(by_distance_then_index);
            adj.push(chosen.into_iter().map(|(_, v)| v).collect());
        }
        CsrGraph::from_adjacency(adj)
    }

    /// `n × d` points on a coarse grid, so exact distance ties are common.
    fn grid_cloud(n: usize, d: usize, cells: i32, rng: &mut ChaCha8Rng) -> Matrix {
        let data = (0..n * d).map(|_| rng.gen_range(0..cells) as f32 * 0.3).collect();
        Matrix::from_vec(n, d, data)
    }

    #[test]
    fn blocked_knn_matches_the_brute_force_edge_for_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x6E6E);
        let k = 20;
        // Every remainder of the query block and of the selector's lanes.
        for n in [0usize, 1, 2, 3, 5, k, k + 1, k + 2, 47, 133, 257] {
            for d in [1usize, 3, 16, 64] {
                // Few cells: most distances tie. Many cells: few do.
                for cells in [2, 5, 1000] {
                    let pts = grid_cloud(n, d, cells, &mut rng);
                    for k in [1, 4, k, 64, 1000] {
                        assert_eq!(
                            knn_graph(&pts, k),
                            knn_graph_reference(&pts, k),
                            "n {n} d {d} cells {cells} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn knn_of_zero_width_features_is_the_first_k_other_nodes() {
        let g = knn_graph(&Matrix::zeros(5, 0), 2);
        assert_eq!(g, knn_graph_reference(&Matrix::zeros(5, 0), 2));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn non_finite_coordinates_rank_last_and_never_panic() {
        // Node 1 is NaN, node 3 is at infinity: from a finite node, 3 is
        // infinitely far (ranks after every finite distance) and 1 is NaN
        // far (ranks after that).
        let pts = Matrix::from_rows(&[&[0.0], &[f32::NAN], &[1.0], &[f32::INFINITY], &[3.0]]);
        let g = knn_graph(&pts, 4);
        assert_eq!(g.neighbors(0), &[2, 4, 3, 1]);
        assert_eq!(g.neighbors(4), &[2, 0, 3, 1]);
        // Every distance from the NaN node is NaN: index order.
        assert_eq!(g.neighbors(1), &[0, 2, 3, 4]);
        // From infinity, finite nodes are infinitely far; NaN is NaN far.
        assert_eq!(g.neighbors(3), &[0, 2, 4, 1]);
        assert_eq!(g, knn_graph_reference(&pts, 4));
        assert_eq!(knn_graph(&pts, 2).neighbors(0), &[2, 4]);
    }

    #[test]
    fn knn_with_scattered_non_finite_values_matches_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBAD);
        for n in [2usize, 9, 47, 133] {
            for d in [1usize, 3, 16] {
                for share in [0.02, 0.3, 1.0] {
                    let mut pts = grid_cloud(n, d, 4, &mut rng);
                    for x in pts.as_mut_slice() {
                        if rng.gen_bool(share) {
                            *x = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
                        }
                    }
                    for k in [1, 8, 20] {
                        assert_eq!(
                            knn_graph(&pts, k),
                            knn_graph_reference(&pts, k),
                            "n {n} d {d} share {share} k {k}"
                        );
                    }
                }
            }
        }
    }

    /// One band; bands that cut the query blocks evenly and unevenly; (for
    /// small `n`) more bands than blocks; and one more than there are blocks.
    fn band_counts(n: usize) -> [usize; 5] {
        [1, 2, 3, 5, n.div_ceil(QUERY_BLOCK) + 1]
    }

    fn assert_every_band_count_matches_the_reference(pts: &Matrix, k: usize, case: &str) {
        let want = knn_graph_reference(pts, k);
        for bands in band_counts(pts.rows()) {
            assert_eq!(knn_graph_banded(pts, k, bands), want, "{case} k {k} in {bands} bands");
        }
    }

    #[test]
    fn every_band_count_matches_the_brute_force_edge_for_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBA2D);
        let k = 20;
        // The blocked suite's sizes, plus block counts on every side of a
        // band edge: one block, fewer blocks than bands, a block count no
        // band count divides, a short last block in the last band.
        for n in [0usize, 1, 2, 3, 5, 9, 17, k, k + 1, k + 2, 47, 133, 257] {
            for d in [1usize, 3, 16, 64] {
                for cells in [2, 5, 1000] {
                    let pts = grid_cloud(n, d, cells, &mut rng);
                    for k in [1, 4, k, 64, 1000] {
                        let case = format!("n {n} d {d} cells {cells}");
                        assert_every_band_count_matches_the_reference(&pts, k, &case);
                    }
                }
            }
        }
        assert_every_band_count_matches_the_reference(&Matrix::zeros(9, 0), 2, "zero width");
    }

    #[test]
    fn every_band_count_ranks_non_finite_distances_like_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBAD5);
        for n in [2usize, 9, 47, 133] {
            for d in [1usize, 3, 16] {
                for share in [0.02, 0.3, 1.0] {
                    let mut pts = grid_cloud(n, d, 4, &mut rng);
                    for x in pts.as_mut_slice() {
                        if rng.gen_bool(share) {
                            *x = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
                        }
                    }
                    for k in [1, 8, 20] {
                        let case = format!("n {n} d {d} share {share}");
                        assert_every_band_count_matches_the_reference(&pts, k, &case);
                    }
                }
            }
        }
    }

    /// Asserts that both builds of the band body give `pts` the same
    /// neighbor lists in every band count, and returns how many graphs it
    /// compared.
    fn assert_builds_agree(avx2: rows::Avx2, pts: &Matrix, k: usize, case: &str) -> usize {
        let counts = band_counts(pts.rows());
        for bands in counts {
            let baseline = knn_graph_as(pts, k, Job { bands, avx2: None });
            let wide = knn_graph_as(pts, k, Job { bands, avx2: Some(avx2) });
            assert_eq!(wide, baseline, "{case} k {k} in {bands} bands");
        }
        counts.len()
    }

    #[test]
    fn cross_build_graphs_are_identical_on_every_block_tile_and_lane() {
        let Some(avx2) = rows::avx2() else {
            println!("cross-build knn: this CPU has no AVX2; nothing compared");
            return;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0xA5C2);
        let mut compared = 0;
        // Every remainder of the query block, the target tile, the
        // selector's lanes and its 64-entry masks; few grid cells, so most
        // distances tie and one moved bit reorders a list.
        for n in [0usize, 1, 2, 3, 5, 8, 9, 17, 20, 21, 22, 47, 63, 64, 65, 133, 257] {
            for d in [0usize, 1, 3, 16, 64] {
                for cells in [2, 5, 1000] {
                    let pts = grid_cloud(n, d, cells, &mut rng);
                    for k in [1, 4, 20, 64, 1000] {
                        let case = format!("n {n} d {d} cells {cells}");
                        compared += assert_builds_agree(avx2, &pts, k, &case);
                    }
                }
            }
        }
        // The stream's two kNNs, over the band floor.
        for d in [3, 64] {
            let pts = grid_cloud(1024, d, 7, &mut rng);
            compared += assert_builds_agree(avx2, &pts, 20, &format!("n 1024 d {d}"));
        }
        println!("cross-build knn: {compared} graphs compared edge for edge");
    }

    #[test]
    fn cross_build_non_finite_coordinates_give_identical_graphs() {
        let Some(avx2) = rows::avx2() else {
            println!("cross-build knn: this CPU has no AVX2; nothing compared");
            return;
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0xBAD2);
        let mut compared = 0;
        for n in [2usize, 9, 47, 65, 133] {
            for d in [1usize, 3, 16] {
                for share in [0.02, 0.3, 1.0] {
                    let mut pts = grid_cloud(n, d, 4, &mut rng);
                    for x in pts.as_mut_slice() {
                        if rng.gen_bool(share) {
                            *x = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
                        }
                    }
                    for k in [1, 8, 20] {
                        let case = format!("n {n} d {d} share {share}");
                        compared += assert_builds_agree(avx2, &pts, k, &case);
                    }
                }
            }
        }
        println!("cross-build knn: {compared} non-finite graphs compared edge for edge");
    }

    #[test]
    fn four_threads_at_once_get_the_one_band_answers() {
        // Both shapes are above the band floor, so on a multi-core host every
        // call below spawns bands of its own while three others do the same.
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0);
        let pts = grid_cloud(1024, 3, 50, &mut rng);
        let x = grid_cloud(1024, 64, 7, &mut rng);
        let w = grid_cloud(64, 128, 9, &mut rng);
        let graph = knn_graph_banded(&pts, 20, 1);
        // The i-k-j product: the order `Matrix::matmul` keeps, on one thread.
        let mut product = Matrix::zeros(1024, 128);
        for i in 0..1024 {
            for k in 0..64 {
                let a = x[(i, k)];
                if a != 0.0 {
                    for (o, b) in product.row_mut(i).iter_mut().zip(w.row(k)) {
                        *o += a * b;
                    }
                }
            }
        }
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..3 {
                        assert_eq!(knn_graph(&pts, 20), graph);
                        assert_eq!(x.matmul(&w), product);
                    }
                });
            }
        });
    }

    #[test]
    fn knn_every_node_has_k_neighbors() {
        let g = knn_graph(&grid_points(), 2);
        for u in 0..5 {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    fn knn_no_self_loops() {
        let g = knn_graph(&grid_points(), 3);
        for u in 0..g.num_nodes() {
            assert!(!g.neighbors(u).contains(&(u as u32)));
        }
    }

    #[test]
    fn knn_finds_true_nearest() {
        let g = knn_graph(&grid_points(), 1);
        assert_eq!(g.neighbors(3), &[4]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn knn_neighbors_sorted_by_distance() {
        let pts = Matrix::from_rows(&[&[0.0], &[3.0], &[1.0], &[10.0]]);
        let g = knn_graph(&pts, 3);
        assert_eq!(g.neighbors(0), &[2, 1, 3]);
    }

    #[test]
    fn knn_k_larger_than_n_saturates() {
        let pts = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let g = knn_graph(&pts, 10);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn knn_empty_input() {
        let g = knn_graph(&Matrix::zeros(0, 3), 4);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn random_graph_degree_and_no_self_loops() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = random_graph(20, 4, &mut rng);
        for u in 0..20 {
            assert_eq!(g.degree(u), 4);
            assert!(!g.neighbors(u).contains(&(u as u32)));
            // neighbors are distinct
            let mut ns = g.neighbors(u).to_vec();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), 4);
        }
    }

    /// The `random_graph` the mark array replaced — one `Vec` per node,
    /// deduplicated by `contains` — kept as the reference it must match
    /// graph for graph and draw for draw.
    fn random_graph_reference(n: usize, k: usize, rng: &mut impl Rng) -> CsrGraph {
        let mut adj = Vec::with_capacity(n);
        for u in 0..n {
            let kk = k.min(n.saturating_sub(1));
            let mut chosen = Vec::with_capacity(kk);
            while chosen.len() < kk {
                let v = rng.gen_range(0..n) as u32;
                if v as usize != u && !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            adj.push(chosen);
        }
        CsrGraph::from_adjacency(adj)
    }

    #[test]
    fn random_graph_matches_the_reference_and_draws_as_much() {
        use rand::RngCore;
        for n in [0usize, 1, 2, 5, 12, 23, 24, 25, 64, 300] {
            for k in [0, 1, 3, 10, 20, n.saturating_sub(1), n, n + 5] {
                for seed in 0..50 {
                    let mut fast = ChaCha8Rng::seed_from_u64(seed);
                    let mut reference = ChaCha8Rng::seed_from_u64(seed);
                    let case = format!("n {n} k {k} seed {seed}");
                    let want = random_graph_reference(n, k, &mut reference);
                    assert_eq!(random_graph(n, k, &mut fast), want, "{case}");
                    assert_eq!(fast.next_u64(), reference.next_u64(), "{case}: next draw");
                }
            }
        }
    }

    #[test]
    fn random_graph_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(random_graph(10, 3, &mut r1), random_graph(10, 3, &mut r2));
    }

    #[test]
    fn knn_flops_monotone_in_n_and_d() {
        assert!(knn_flops(100, 3) < knn_flops(200, 3));
        assert!(knn_flops(100, 3) < knn_flops(100, 6));
    }
}
