//! Join-tree selection: `pick_tree` is the one place a comprehension's
//! generator chain gets its join order — a DPsize/DPccp-style dynamic program
//! over the connected subgraphs of the join graph for chains of up to
//! [`MAX_DP_RELATIONS`] generators, a greedy left-deep builder past that.
//!
//! A greedy order always grows one intermediate result left-deep, picking the
//! smallest *extent* next. That rule is blind to selectivity: on a star schema
//! whose hub joins one satellite on a low-distinct key and another on a
//! near-unique key, joining the small but unselective satellite first
//! materialises a huge intermediate that the selective join then has to grind
//! down. The enumerator searches **every join-tree shape** — bushy trees
//! included — and scores each with a cost model over per-extent key
//! histograms, so the selective join runs first regardless of extent sizes,
//! and independent subchains may be joined separately before being combined.
//!
//! # Algorithm
//!
//! Classic DPsize over subset bitmasks, restricted to *connected* subproblems
//! (the DPccp refinement that never enumerates cross products):
//!
//! 1. `est[S]` — the estimated output cardinality of joining the relation set
//!    `S`: the product of member cardinalities times the selectivity of every
//!    join edge internal to `S`. Edge selectivity is `1 / max(distinct keys on
//!    either side)`, the textbook equi-join estimate, with the distinct counts
//!    drawn from the persisted histograms.
//! 2. `best[S]` — the cheapest tree for `S`, minimised over every partition
//!    `S = L ⊎ R` where both halves have a plan and at least one join edge
//!    crosses the cut. The cost of a join node is
//!    `cost(L) + cost(R) + min(est(L), est(R)) + est(S)` — the build side of
//!    the hash join (the smaller input) plus the materialised output, summed
//!    over the whole tree (a `C_out`-style model with an explicit build term).
//!
//! Subsets are enumerated in increasing mask order (every proper subset
//! precedes its superset) and partitions via the standard sub-mask walk, so the
//! program is exhaustive and deterministic: ties keep the first partition
//! found. With at most [`MAX_DP_RELATIONS`] relations the table has ≤ 64
//! entries — enumeration costs microseconds, far below one hash-join build.
//! Longer chains (DP cost grows as `3^n`) get the greedy left-deep tree:
//! seed with the smallest relation, then repeatedly join the smallest
//! remaining relation connected to the joined set.
//!
//! The module is pure planning: it sees only cardinalities and selectivities
//! and returns a [`JoinTree`]; the evaluator executes every tree — a pair is
//! the tree `(0 ⋈ 1)` — with the same recursive hash joins and restores
//! nested-loop output order with one positional sort.

use std::fmt;

/// The largest relation count enumerated exhaustively. `2^6 = 64` subset table
/// entries; beyond this the greedy left-deep builder takes over (DP cost
/// grows as `3^n` partitions, and chains that long are rare in practice).
pub const MAX_DP_RELATIONS: usize = 6;

/// The longest chain a [`JoinTree`] may span: leaf sets are `u64` bitmasks
/// indexed by chain position, so a longer chain (query text can carry one) has
/// no tree and keeps its textual plan.
pub const MAX_TREE_RELATIONS: usize = u64::BITS as usize;

/// Ceiling for subset cardinality estimates. A cost is a sum of at most
/// `2 · (MAX_TREE_RELATIONS - 1)` build/output terms, so clamping each term
/// here keeps every cost finite and the DP's `<` comparisons totally ordered.
const EST_CEILING: f64 = 1e300;

/// The shape of a planned join over a generator chain, reported through
/// [`crate::JoinStrategy::Materialised`]. Leaves are chain positions in **textual
/// generator order** (0 = the leading generator); internal nodes join the
/// results of their two subtrees with a hash join on every equi-predicate that
/// crosses the cut.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinTree {
    /// One generator of the chain, by textual position.
    Leaf(usize),
    /// Hash-join the results of two subtrees.
    Join {
        /// Left input subtree.
        left: Box<JoinTree>,
        /// Right input subtree.
        right: Box<JoinTree>,
    },
}

impl JoinTree {
    /// The chain positions covered by this subtree, in ascending order.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out.sort_unstable();
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(g) => out.push(*g),
            JoinTree::Join { left, right } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// Bitmask of the chain positions covered by this subtree.
    pub(crate) fn leaf_mask(&self) -> u64 {
        match self {
            JoinTree::Leaf(g) => 1u64 << g,
            JoinTree::Join { left, right } => left.leaf_mask() | right.leaf_mask(),
        }
    }

    /// Number of join (internal) nodes in the tree.
    pub fn join_count(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Join { left, right } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// Whether the tree is *linear*: every join has at least one
    /// single-relation input, i.e. the tree is a left- or right-deep chain.
    /// The greedy builder only produces linear trees; a `false` here means
    /// the enumerator found a genuinely bushy shape (two multi-relation
    /// subtrees joined together).
    pub fn is_linear(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join { left, right } => match (&**left, &**right) {
                (JoinTree::Leaf(_), t) | (t, JoinTree::Leaf(_)) => t.is_linear(),
                _ => false,
            },
        }
    }
}

impl fmt::Display for JoinTree {
    /// Render as e.g. `((2 ⋈ 1) ⋈ (0 ⋈ 3))`, leaves being textual positions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinTree::Leaf(g) => write!(f, "{g}"),
            JoinTree::Join { left, right } => write!(f, "({left} ⋈ {right})"),
        }
    }
}

/// One equi-join edge of the chain's join graph, with its estimated
/// selectivity (`1 / max(distinct keys on either endpoint)`). Multiple
/// predicates between the same pair of relations contribute one `EdgeSel`
/// each; their selectivities multiply (independence assumption).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeSel {
    /// Chain position of one endpoint.
    pub a: usize,
    /// Chain position of the other endpoint.
    pub b: usize,
    /// Estimated fraction of the cross product the predicate keeps.
    pub selectivity: f64,
}

/// A picked join tree with its estimated output cardinality and total model
/// cost (build sides + intermediates).
#[derive(Debug, Clone)]
pub(crate) struct PickedTree {
    /// The chosen join tree.
    pub tree: JoinTree,
    /// Estimated root output cardinality (used by tests; the caller
    /// thresholds `max_intermediate`, which includes the root).
    #[allow(dead_code)]
    pub est_rows: f64,
    /// Largest estimated output over **every** join node of the chosen tree
    /// (root included) — the caller's bail-out threshold, so a plan is
    /// rejected if *any* intermediate it must materialise looks explosive,
    /// not just its final output.
    pub max_intermediate: f64,
    /// Total cost under the model (used by tests).
    #[allow(dead_code)]
    pub cost: f64,
}

/// Decide the join tree for a chain of `cards.len()` relations connected by
/// `edges`: the exhaustive enumerator up to [`MAX_DP_RELATIONS`], the greedy
/// left-deep builder up to [`MAX_TREE_RELATIONS`]. `None` — the chain keeps
/// its textual plan — when the join graph is disconnected (any complete tree
/// would cross-product), or the chain is shorter than a pair or wider than a
/// leaf mask.
pub(crate) fn pick_tree(cards: &[usize], edges: &[EdgeSel]) -> Option<PickedTree> {
    match cards.len() {
        2..=MAX_DP_RELATIONS => enumerate(cards, edges),
        n if n <= MAX_TREE_RELATIONS => greedy(cards, edges),
        _ => None,
    }
}

/// Pairwise combined selectivity and adjacency of the join graph.
/// Selectivities are sanitised to the meaningful `(0, 1]` range: histogram
/// estimates are `1/distinct` and observed-feedback ratios are fractions of a
/// cross product, so a NaN, infinite, negative or > 1 value can only come from
/// degenerate feedback (e.g. a ratio over a zero estimate) and is treated as
/// "keeps everything".
fn join_graph(n: usize, edges: &[EdgeSel]) -> (Vec<Vec<f64>>, Vec<Vec<bool>>) {
    let mut sel = vec![vec![1.0f64; n]; n];
    let mut adj = vec![vec![false; n]; n];
    for e in edges {
        if e.a >= n || e.b >= n || e.a == e.b {
            continue;
        }
        let s = if e.selectivity.is_finite() && e.selectivity >= 0.0 {
            e.selectivity.min(1.0)
        } else {
            1.0
        };
        sel[e.a][e.b] *= s;
        sel[e.b][e.a] *= s;
        adj[e.a][e.b] = true;
        adj[e.b][e.a] = true;
    }
    (sel, adj)
}

/// Build the greedy left-deep tree: seed with the smallest relation, then
/// repeatedly join the smallest remaining relation connected to the joined
/// set (ties keep the lowest chain position). `None` when the join graph is
/// disconnected.
fn greedy(cards: &[usize], edges: &[EdgeSel]) -> Option<PickedTree> {
    let n = cards.len();
    let (sel, adj) = join_graph(n, edges);
    let seed = (0..n).min_by_key(|&g| cards[g])?;
    let mut joined = vec![seed];
    let mut tree = JoinTree::Leaf(seed);
    let mut est = cards[seed] as f64;
    let (mut max_intermediate, mut cost) = (0.0f64, 0.0f64);
    while joined.len() < n {
        let next = (0..n)
            .filter(|g| !joined.contains(g) && joined.iter().any(|&s| adj[*g][s]))
            .min_by_key(|&g| cards[g])?;
        let card = cards[next] as f64;
        let out = joined
            .iter()
            .fold(est * card, |e, &s| e * sel[next][s])
            .min(EST_CEILING);
        cost += est.min(card) + out;
        max_intermediate = max_intermediate.max(out);
        tree = JoinTree::Join {
            left: Box::new(tree),
            right: Box::new(JoinTree::Leaf(next)),
        };
        joined.push(next);
        est = out;
    }
    Some(PickedTree {
        tree,
        est_rows: est,
        max_intermediate,
        cost,
    })
}

/// Exhaustively enumerate join trees over `cards.len()` relations connected by
/// `edges`, returning the cheapest. `None` when the join graph is disconnected
/// (some cut has no edge, so any complete tree would cross-product), when
/// there are fewer than two relations, or when the relation count exceeds
/// [`MAX_DP_RELATIONS`].
fn enumerate(cards: &[usize], edges: &[EdgeSel]) -> Option<PickedTree> {
    let n = cards.len();
    if !(2..=MAX_DP_RELATIONS).contains(&n) {
        return None;
    }
    let full: u64 = (1u64 << n) - 1;
    let (sel, adj) = join_graph(n, edges);

    // est[S]: cardinality estimate for the subset `S`, built incrementally by
    // peeling the lowest relation off — its internal edges to the rest of `S`
    // contribute their selectivities exactly once.
    let mut est = vec![0.0f64; (full + 1) as usize];
    for s in 1..=full {
        let low = s.trailing_zeros() as usize;
        let rest = s & (s - 1);
        if rest == 0 {
            est[s as usize] = cards[low] as f64;
            continue;
        }
        let mut e = est[rest as usize] * cards[low] as f64;
        for (other, s_low) in sel[low].iter().enumerate() {
            if rest & (1 << other) != 0 {
                e *= s_low;
            }
        }
        // Clamp to a finite ceiling: huge cardinality products overflow `f64`
        // to ∞, and an infinite estimate poisons every cost that includes it
        // (`cost < ∞` never orders candidates). The ceiling is large enough
        // that sums over a ≤ MAX_DP_RELATIONS tree stay finite.
        est[s as usize] = e.min(EST_CEILING);
    }

    let crosses = |l: u64, r: u64| -> bool {
        adj.iter().enumerate().any(|(a, row)| {
            l & (1 << a) != 0
                && row
                    .iter()
                    .enumerate()
                    .any(|(b, &edge)| r & (1 << b) != 0 && edge)
        })
    };

    // best[S]: (cost, split) — split == 0 marks a leaf.
    let mut best: Vec<Option<(f64, u64)>> = vec![None; (full + 1) as usize];
    for g in 0..n {
        best[1usize << g] = Some((0.0, 0));
    }
    for s in 1..=full {
        if (s & (s - 1)) == 0 {
            continue; // singleton, already seeded
        }
        let mut chosen: Option<(f64, u64)> = None;
        // Walk every proper nonempty sub-mask; taking only halves that contain
        // the lowest bit visits each unordered partition once.
        let lowbit = s & s.wrapping_neg();
        let mut l = (s - 1) & s;
        while l != 0 {
            let r = s ^ l;
            if l & lowbit != 0 {
                if let (Some((cl, _)), Some((cr, _))) = (best[l as usize], best[r as usize]) {
                    if crosses(l, r) {
                        let build = est[l as usize].min(est[r as usize]);
                        let cost = cl + cr + build + est[s as usize];
                        // A non-finite cost must never be *held*: `cost < NaN`
                        // and `cost < ∞` comparisons would let an arbitrary
                        // first candidate survive against every cheaper one.
                        if cost.is_finite() && chosen.is_none_or(|(c, _)| cost < c) {
                            chosen = Some((cost, l));
                        }
                    }
                }
            }
            l = (l - 1) & s;
        }
        best[s as usize] = chosen;
    }

    let (cost, _) = best[full as usize]?;
    let tree = rebuild(full, &best);
    let max_intermediate = max_join_estimate(&tree, &est);
    Some(PickedTree {
        tree,
        est_rows: est[full as usize],
        max_intermediate,
        cost,
    })
}

/// The largest subset estimate over the tree's join (internal) nodes.
fn max_join_estimate(tree: &JoinTree, est: &[f64]) -> f64 {
    match tree {
        JoinTree::Leaf(_) => 0.0,
        JoinTree::Join { left, right } => est[tree.leaf_mask() as usize]
            .max(max_join_estimate(left, est))
            .max(max_join_estimate(right, est)),
    }
}

/// Reconstruct the tree for `mask` from the recorded splits. The half holding
/// the lowest set bit becomes the left child (a deterministic orientation; the
/// executor hashes whichever side is smaller at run time regardless).
fn rebuild(mask: u64, best: &[Option<(f64, u64)>]) -> JoinTree {
    let (_, split) = best[mask as usize].expect("rebuild only visits planned subsets");
    if split == 0 {
        return JoinTree::Leaf(mask.trailing_zeros() as usize);
    }
    JoinTree::Join {
        left: Box::new(rebuild(split, best)),
        right: Box::new(rebuild(mask ^ split, best)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: usize, b: usize, selectivity: f64) -> EdgeSel {
        EdgeSel { a, b, selectivity }
    }

    #[test]
    fn chain_of_three_orders_by_cost_not_size() {
        // big(120) — mid(30) — small(3), all keys 1/6 selective: joining
        // small with mid first (15 rows) beats starting from big.
        let out = enumerate(
            &[120, 30, 3],
            &[edge(0, 1, 1.0 / 6.0), edge(1, 2, 1.0 / 6.0)],
        )
        .expect("connected");
        assert_eq!(out.tree.leaves(), vec![0, 1, 2]);
        assert!((out.est_rows - 300.0).abs() < 1e-9);
        // The chosen tree joins {mid, small} before touching big.
        let JoinTree::Join { left, right } = &out.tree else {
            panic!("expected a join at the root");
        };
        let inner = if matches!(**left, JoinTree::Join { .. }) {
            left
        } else {
            right
        };
        assert_eq!(inner.leaves(), vec![1, 2]);
    }

    #[test]
    fn four_chain_prefers_genuinely_bushy_tree() {
        // A(100)-B(4)-C(4)-D(100): the outer edges are selective but the middle
        // edge keeps everything, so growing one intermediate through the middle
        // (any linear order, cost 60) loses to joining the two selective ends
        // separately and combining them last: (A⋈B) ⋈ (C⋈D) costs 36.
        let out = enumerate(
            &[100, 4, 4, 100],
            &[edge(0, 1, 0.01), edge(1, 2, 1.0), edge(2, 3, 0.01)],
        )
        .expect("connected");
        assert!(
            !out.tree.is_linear(),
            "expected a bushy tree, got {}",
            out.tree
        );
        let JoinTree::Join { left, right } = &out.tree else {
            panic!("expected a join at the root");
        };
        assert_eq!(left.leaves(), vec![0, 1]);
        assert_eq!(right.leaves(), vec![2, 3]);
        assert!(
            (out.cost - 36.0).abs() < 1e-9,
            "cost model drifted: {out:?}"
        );
    }

    #[test]
    fn star_graphs_admit_only_left_deep_trees() {
        // hub(0) joined to three satellites: every connected subset of size ≥ 2
        // contains the hub, so no bushy partition exists.
        let out = enumerate(
            &[50, 10, 10, 10],
            &[edge(0, 1, 0.1), edge(0, 2, 0.1), edge(0, 3, 0.1)],
        )
        .expect("connected");
        assert!(out.tree.is_linear());
        assert_eq!(out.tree.join_count(), 3);
    }

    #[test]
    fn disconnected_graph_is_refused() {
        assert!(enumerate(&[5, 5, 5], &[edge(0, 1, 0.5)]).is_none());
        assert!(enumerate(&[5, 5], &[]).is_none());
    }

    #[test]
    fn size_limits_are_enforced() {
        assert!(enumerate(&[5], &[]).is_none());
        let cards = vec![5usize; MAX_DP_RELATIONS + 1];
        let edges: Vec<EdgeSel> = (1..cards.len()).map(|i| edge(i - 1, i, 0.5)).collect();
        assert!(enumerate(&cards, &edges).is_none());
    }

    #[test]
    fn picker_switches_to_the_greedy_tree_past_the_dp_bound() {
        // A line of MAX_DP_RELATIONS + 1 relations, the smallest in the
        // middle: the greedy tree seeds there and grows left-deep through
        // whichever connected neighbour is smaller (ties: lowest position).
        let cards = [9, 8, 7, 2, 7, 8, 9];
        assert_eq!(cards.len(), MAX_DP_RELATIONS + 1);
        let edges: Vec<EdgeSel> = (1..cards.len()).map(|i| edge(i - 1, i, 0.5)).collect();
        let out = pick_tree(&cards, &edges).expect("connected");
        assert!(out.tree.is_linear());
        assert_eq!(
            out.tree.to_string(),
            "((((((3 ⋈ 2) ⋈ 4) ⋈ 1) ⋈ 5) ⋈ 0) ⋈ 6)"
        );
        // 2·7·½ = 7, ·7·½ = 24.5, ·8·½ = 98, ·8·½ = 392, ·9·½ = 1764, ·9·½.
        assert!((out.est_rows - 7938.0).abs() < 1e-9, "{out:?}");
        assert_eq!(out.max_intermediate, out.est_rows);
        // Within the DP range the picker enumerates instead.
        let dp = pick_tree(&cards[..3], &edges[..2]).expect("connected");
        assert_eq!(dp.tree, enumerate(&cards[..3], &edges[..2]).unwrap().tree);
        // A disconnected long chain has no tree.
        assert!(pick_tree(&cards, &edges[1..]).is_none());
    }

    #[test]
    fn chains_wider_than_a_leaf_mask_get_no_tree() {
        let line = |n: usize| -> (Vec<usize>, Vec<EdgeSel>) {
            (vec![3; n], (1..n).map(|i| edge(i - 1, i, 0.5)).collect())
        };
        let (cards, edges) = line(MAX_TREE_RELATIONS);
        let widest = pick_tree(&cards, &edges).expect("64 leaves fit the mask");
        assert_eq!(widest.tree.leaf_mask(), u64::MAX);
        assert!(widest.cost.is_finite());
        let (cards, edges) = line(MAX_TREE_RELATIONS + 1);
        assert!(pick_tree(&cards, &edges).is_none());
    }

    #[test]
    fn max_intermediate_covers_every_join_node() {
        // Unselective 0-1 edge, selective 1-2 edge: the winner joins {1, 2}
        // first (est 1), then 0 (root est 20) — max_intermediate is the
        // worst node of the *chosen* tree, here the root, not the 400-row
        // intermediate the rejected left-deep order would have built.
        let out =
            enumerate(&[20, 20, 3], &[edge(0, 1, 1.0), edge(1, 2, 1.0 / 60.0)]).expect("connected");
        let JoinTree::Join { left, right } = &out.tree else {
            panic!("expected a join at the root");
        };
        let inner = if matches!(**left, JoinTree::Join { .. }) {
            left
        } else {
            right
        };
        assert_eq!(inner.leaves(), vec![1, 2], "selective pair joins first");
        assert!((out.est_rows - 20.0).abs() < 1e-9);
        assert!((out.max_intermediate - 20.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_predicates_between_a_pair_multiply() {
        // Two edges between the same pair: est = 10*10*0.1*0.1 = 1.
        let out = enumerate(&[10, 10], &[edge(0, 1, 0.1), edge(0, 1, 0.1)]).expect("connected");
        assert!((out.est_rows - 1.0).abs() < 1e-9);
        assert_eq!(out.tree.join_count(), 1);
    }

    #[test]
    fn overflowing_cardinalities_still_pick_the_cheapest_tree() {
        // Cardinalities near usize::MAX: the {0,1} product alone is ~3e38, and
        // before estimates were clamped a poisoned (∞) first candidate was
        // never displaced — `cost < ∞` is false only for other infinities, and
        // `cost < NaN` is false for everything — so the DP kept the arbitrary
        // first partition, which builds the catastrophic {0,1} pair first.
        let out = enumerate(
            &[usize::MAX, usize::MAX, 3],
            &[edge(0, 1, 1.0), edge(1, 2, 1e-18)],
        )
        .expect("connected");
        assert!(
            out.cost.is_finite(),
            "clamped costs must be finite: {out:?}"
        );
        let JoinTree::Join { left, right } = &out.tree else {
            panic!("expected a join at the root");
        };
        let inner = if matches!(**left, JoinTree::Join { .. }) {
            left
        } else {
            right
        };
        assert_eq!(
            inner.leaves(),
            vec![1, 2],
            "the selective pair must join first, not the arbitrary first partition"
        );
    }

    #[test]
    fn non_finite_selectivities_are_neutralised() {
        // Degenerate feedback (a ratio over a zero estimate) can hand the
        // enumerator NaN or ∞ selectivities; they must not poison the DP or
        // leak into the cost. Structure as in `chain_of_three_orders_by_cost`:
        // with the bad edges neutralised to 1.0 the selective 1-2 edge still
        // decides the shape.
        for bad in [f64::INFINITY, f64::NAN, -3.0] {
            let out = enumerate(&[120, 30, 3], &[edge(0, 1, bad), edge(1, 2, 1.0 / 60.0)])
                .unwrap_or_else(|| panic!("connected (bad = {bad})"));
            assert!(out.cost.is_finite(), "bad = {bad}: {out:?}");
            let JoinTree::Join { left, right } = &out.tree else {
                panic!("expected a join at the root");
            };
            let inner = if matches!(**left, JoinTree::Join { .. }) {
                left
            } else {
                right
            };
            assert_eq!(inner.leaves(), vec![1, 2], "bad = {bad}");
        }
    }

    #[test]
    fn selectivities_above_one_are_clamped() {
        // Selectivity is a kept-fraction; > 1 can only be feedback noise. A
        // huge "selectivity" used to let est overflow to ∞ even for modest
        // cardinalities.
        let out = enumerate(&[10, 10], &[edge(0, 1, 1e200)]).expect("connected");
        assert!(out.cost.is_finite());
        assert!(
            (out.est_rows - 100.0).abs() < 1e-9,
            "clamped to 1.0: {out:?}"
        );
    }

    #[test]
    fn enumeration_is_deterministic() {
        let cards = [40, 7, 19, 23, 11];
        let edges = [
            edge(0, 1, 0.2),
            edge(1, 2, 0.05),
            edge(0, 3, 0.5),
            edge(3, 4, 0.125),
        ];
        let a = enumerate(&cards, &edges).expect("connected");
        let b = enumerate(&cards, &edges).expect("connected");
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn display_renders_positions() {
        let t = JoinTree::Join {
            left: Box::new(JoinTree::Join {
                left: Box::new(JoinTree::Leaf(2)),
                right: Box::new(JoinTree::Leaf(0)),
            }),
            right: Box::new(JoinTree::Leaf(1)),
        };
        assert_eq!(t.to_string(), "((2 ⋈ 0) ⋈ 1)");
        assert_eq!(t.leaves(), vec![0, 1, 2]);
        assert!(t.is_linear());
    }
}
