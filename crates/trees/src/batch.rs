//! Breadth-first, level-order batch tree traversal over columnar row
//! blocks.
//!
//! Per-row recursive traversal (`predict_one` in a loop) chases one
//! pointer per level per row and touches the feature matrix row-major —
//! for a forest of `T` trees over `n` rows that is `T·n` dependent
//! pointer chains with no memory-level parallelism. This module flattens
//! each tree's arena into structure-of-arrays node vectors
//! ([`FlatTree`]) and advances **all still-active rows one level at a
//! time**. The frontier is kept as contiguous *segments* of a row-index
//! permutation, one per live node: within a segment the split feature
//! and threshold are loop constants, so each level is a handful of tight
//! branch-free partition loops that stream one [`FeatureBlock`] column in
//! ascending row order — instead of `n` interleaved per-row descents
//! that hop between columns.
//!
//! Numerics contract: thresholds stay `f64`, and each row's comparisons
//! are `(x as f64) <= threshold` — exactly the operations `predict_one`
//! performs on the f32-cast row — so flat traversal is **bitwise equal**
//! to recursive traversal over the same f32-rounded inputs. Ensemble
//! combination preserves the recursive accumulation order too: forests
//! sum tree values in tree order then divide by the tree count — the
//! same expression as [`RandomForest::predict_one`].

use crate::causal::{self, CausalForest, CausalTree};
use crate::forest::RandomForest;
use crate::tree::{self, RegressionTree};
use linalg::block::FeatureBlock;

/// Sentinel in [`FlatTree`]'s `left` array marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A decision tree flattened into structure-of-arrays node vectors.
///
/// `left[i] == u32::MAX` marks node `i` as a leaf whose prediction is
/// `value[i]`; internal nodes route on `feature[i]`/`threshold[i]`.
#[derive(Debug, Clone)]
pub struct FlatTree {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    value: Vec<f64>,
    n_features: usize,
}

impl FlatTree {
    fn with_capacity(n: usize, n_features: usize) -> Self {
        FlatTree {
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            n_features,
        }
    }

    fn push_leaf(&mut self, value: f64) {
        self.feature.push(0);
        self.threshold.push(0.0);
        self.left.push(LEAF);
        self.right.push(LEAF);
        self.value.push(value);
    }

    fn push_internal(&mut self, feature: usize, threshold: f64, left: usize, right: usize) {
        self.feature.push(feature as u32);
        self.threshold.push(threshold);
        self.left.push(left as u32);
        self.right.push(right as u32);
        self.value.push(0.0);
    }

    /// Flattens a fitted [`RegressionTree`] (same node indices, same
    /// routing decisions).
    pub fn from_regression(t: &RegressionTree) -> Self {
        let nodes = t.nodes();
        let mut flat = FlatTree::with_capacity(nodes.len(), t.n_features());
        for node in nodes {
            match node {
                tree::Node::Leaf { value } => flat.push_leaf(*value),
                tree::Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => flat.push_internal(*feature, *threshold, *left, *right),
            }
        }
        flat
    }

    /// Flattens a fitted [`CausalTree`] (leaf values are CATE estimates).
    pub fn from_causal(t: &CausalTree) -> Self {
        let nodes = t.nodes();
        let mut flat = FlatTree::with_capacity(nodes.len(), t.n_features());
        for node in nodes {
            match node {
                causal::Node::Leaf { tau } => flat.push_leaf(*tau),
                causal::Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => flat.push_internal(*feature, *threshold, *left, *right),
            }
        }
        flat
    }

    /// Feature dimension the tree expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Level-order traversal: adds this tree's prediction for every
    /// logical row of `x` into `acc`, allocating fresh scratch buffers.
    /// Scoring loops over many trees should allocate one [`BlockScratch`]
    /// and call [`FlatTree::accumulate_block_with`] instead.
    ///
    /// # Panics
    /// Panics when `x` has the wrong number of features or `acc` the
    /// wrong number of rows.
    pub fn accumulate_block(&self, x: &FeatureBlock, acc: &mut [f64]) {
        self.accumulate_block_with(x, acc, &mut BlockScratch::new());
    }

    /// Level-order traversal with caller-owned scratch.
    ///
    /// The frontier is a list of *segments* — `(node, row range)` pairs
    /// over a row-index permutation — rather than a per-row node array:
    /// inside one segment the split feature and threshold are fixed, so
    /// the partition loop reads a single feature column in ascending row
    /// order (the stable partition keeps child segments ascending too)
    /// and runs branch-free by writing left-goers and right-goers through
    /// two cursors. Rows reaching a leaf flush `value` into `acc` and
    /// drop off the frontier.
    ///
    /// # Panics
    /// Panics when `x` has the wrong number of features or `acc` the
    /// wrong number of rows.
    pub fn accumulate_block_with(
        &self,
        x: &FeatureBlock,
        acc: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        assert_eq!(
            x.cols(),
            self.n_features,
            "FlatTree::accumulate_block: expected {} features, got {}",
            self.n_features,
            x.cols()
        );
        assert_eq!(
            acc.len(),
            x.rows(),
            "FlatTree::accumulate_block: accumulator has {} rows, block has {}",
            acc.len(),
            x.rows()
        );
        let n = x.rows();
        let BlockScratch {
            rows,
            next,
            right_tmp,
            segs,
            next_segs,
        } = scratch;
        rows.clear();
        rows.extend(0..n as u32);
        next.clear();
        next.resize(n, 0);
        right_tmp.clear();
        right_tmp.resize(n, 0);
        segs.clear();
        segs.push(Segment {
            node: 0,
            start: 0,
            end: n as u32,
        });
        while !segs.is_empty() {
            let mut w = 0usize;
            next_segs.clear();
            for seg in segs.iter() {
                let nd = seg.node as usize;
                let seg_rows = &rows[seg.start as usize..seg.end as usize];
                if self.left[nd] == LEAF {
                    let val = self.value[nd];
                    for &r in seg_rows {
                        acc[r as usize] += val;
                    }
                    continue;
                }
                let col = x.col(self.feature[nd] as usize);
                let thr = self.threshold[nd];
                // Branch-free stable partition: every row is written to
                // both buffers, and only the matching cursor advances.
                // `li` stays below `base + len(seg_rows) <= n` and `ti`
                // below `len(seg_rows)`, so the unconditional writes stay
                // in bounds.
                let base = w;
                let mut li = w;
                let mut ti = 0usize;
                for &r in seg_rows {
                    // f32 feature widened to f64 against the f64
                    // threshold — identical to predict_one on the
                    // f32-cast row.
                    let go_left = f64::from(col[r as usize]) <= thr;
                    next[li] = r;
                    right_tmp[ti] = r;
                    li += usize::from(go_left);
                    ti += usize::from(!go_left);
                }
                next[li..li + ti].copy_from_slice(&right_tmp[..ti]);
                w = li + ti;
                if li > base {
                    next_segs.push(Segment {
                        node: self.left[nd],
                        start: base as u32,
                        end: li as u32,
                    });
                }
                if ti > 0 {
                    next_segs.push(Segment {
                        node: self.right[nd],
                        start: li as u32,
                        end: w as u32,
                    });
                }
            }
            std::mem::swap(rows, next);
            std::mem::swap(segs, next_segs);
        }
    }
}

/// One frontier entry of the level-order traversal: all rows in
/// `rows[start..end]` (a [`BlockScratch`] permutation range) currently
/// sit at `node`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    node: u32,
    start: u32,
    end: u32,
}

/// Reusable scratch for [`FlatTree::accumulate_block_with`]: the
/// row-index permutation ping-pong buffers and the per-level segment
/// lists. Allocate once per scoring loop and reuse across trees — the
/// buffers grow to the block's row count and stay there.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Current level's row permutation, segment-contiguous.
    rows: Vec<u32>,
    /// Next level's permutation, written during partitioning.
    next: Vec<u32>,
    /// Right-going rows of the segment being partitioned.
    right_tmp: Vec<u32>,
    /// Current level's frontier.
    segs: Vec<Segment>,
    /// Next level's frontier.
    next_segs: Vec<Segment>,
}

impl BlockScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BlockScratch::default()
    }
}

/// A [`RandomForest`] flattened for level-order batch scoring.
#[derive(Debug, Clone)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
}

impl FlatForest {
    /// Flattens every tree of a fitted forest.
    pub fn from_forest(f: &RandomForest) -> Self {
        FlatForest {
            trees: f.trees().iter().map(FlatTree::from_regression).collect(),
        }
    }

    /// Tree-average prediction for every logical row of `x` — bitwise
    /// equal to [`RandomForest::predict`] over the same f32-cast rows
    /// (trees accumulate in order, one final division).
    pub fn predict_block(&self, x: &FeatureBlock) -> Vec<f64> {
        let mut acc = vec![0.0; x.rows()];
        let mut scratch = BlockScratch::new();
        for t in &self.trees {
            t.accumulate_block_with(x, &mut acc, &mut scratch);
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

/// A [`CausalForest`] flattened for level-order batch CATE scoring.
#[derive(Debug, Clone)]
pub struct FlatCausalForest {
    trees: Vec<FlatTree>,
}

impl FlatCausalForest {
    /// Flattens every causal tree of a fitted forest.
    pub fn from_forest(f: &CausalForest) -> Self {
        FlatCausalForest {
            trees: f.trees().iter().map(FlatTree::from_causal).collect(),
        }
    }

    /// Tree-average CATE for every logical row of `x` — bitwise equal to
    /// [`CausalForest::predict`] over the same f32-cast rows.
    pub fn predict_block(&self, x: &FeatureBlock) -> Vec<f64> {
        let mut acc = vec![0.0; x.rows()];
        let mut scratch = BlockScratch::new();
        for t in &self.trees {
            t.accumulate_block_with(x, &mut acc, &mut scratch);
        }
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalForestConfig;
    use crate::forest::RandomForestConfig;
    use crate::tree::TreeConfig;
    use linalg::random::Prng;
    use linalg::Matrix;

    /// Casts a matrix through f32 and back — the rows both traversal
    /// paths must agree on bitwise.
    fn f32_rounded(x: &Matrix) -> Matrix {
        let mut out = x.clone();
        out.map_mut(|v| v as f32 as f64);
        out
    }

    fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Prng::seed_from_u64(seed);
        let x = Matrix::from_vec(n, d, rng.gaussian_vec(n * d));
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let r = x.row(i);
                r[0] * 2.0 + (r[1] * 3.0).sin() + 0.1 * rng.gaussian()
            })
            .collect();
        (x, y)
    }

    #[test]
    fn flat_tree_matches_recursive_bitwise() {
        let (x, y) = dataset(300, 4, 0);
        let mut rng = Prng::seed_from_u64(1);
        let tree = RegressionTree::fit_all(&x, &y, &TreeConfig::default(), &mut rng);
        let flat = FlatTree::from_regression(&tree);
        let xr = f32_rounded(&x);
        let want = tree.predict(&xr);
        let mut acc = vec![0.0; x.rows()];
        flat.accumulate_block(&FeatureBlock::from_matrix(&x), &mut acc);
        assert_eq!(acc, want);
    }

    #[test]
    fn flat_forest_matches_recursive_bitwise() {
        let (x, y) = dataset(257, 5, 2); // not a multiple of the tile
        let cfg = RandomForestConfig {
            n_trees: 17,
            ..RandomForestConfig::default()
        };
        let mut rng = Prng::seed_from_u64(3);
        let forest = RandomForest::fit(&x, &y, &cfg, &mut rng);
        let flat = FlatForest::from_forest(&forest);
        let want = forest.predict(&f32_rounded(&x));
        let got = flat.predict_block(&FeatureBlock::from_matrix(&x));
        assert_eq!(got, want);
    }

    #[test]
    fn flat_causal_forest_matches_recursive_bitwise() {
        let (x, _) = dataset(400, 4, 6);
        let mut rng = Prng::seed_from_u64(7);
        let t: Vec<u8> = (0..400).map(|_| u8::from(rng.bernoulli(0.5))).collect();
        let y: Vec<f64> = (0..400)
            .map(|i| x.get(i, 0) + f64::from(t[i]) * (1.0 + x.get(i, 1)) + 0.1 * rng.gaussian())
            .collect();
        let cfg = CausalForestConfig {
            n_trees: 11,
            ..CausalForestConfig::default()
        };
        let forest = CausalForest::fit(&x, &t, &y, &cfg, &mut rng);
        let flat = FlatCausalForest::from_forest(&forest);
        let want = forest.predict(&f32_rounded(&x));
        let got = flat.predict_block(&FeatureBlock::from_matrix(&x));
        assert_eq!(got, want);
    }

    #[test]
    fn single_leaf_tree_and_empty_block() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![3.0, 3.0];
        let mut rng = Prng::seed_from_u64(8);
        let tree = RegressionTree::fit_all(&x, &y, &TreeConfig::default(), &mut rng);
        let flat = FlatTree::from_regression(&tree);
        let mut acc = vec![0.0; 2];
        flat.accumulate_block(&FeatureBlock::from_matrix(&x), &mut acc);
        assert_eq!(acc, vec![3.0, 3.0]);
        // Zero rows: nothing to do, nothing panics.
        let mut empty: Vec<f64> = Vec::new();
        flat.accumulate_block(&FeatureBlock::from_matrix(&Matrix::zeros(0, 1)), &mut empty);
        assert!(empty.is_empty());
    }
}
