//! The QUAD split rule: the line quadtree / hyperplane octree Intersection
//! Index of §IV-B of the paper, as a [`SplitPolicy::Quad`] of the
//! [`ArenaTree`].
//!
//! [`SplitPolicy::Quad`]: crate::arena::SplitPolicy::Quad
//! [`ArenaTree`]: crate::arena::ArenaTree
//!
//! An overfull cell is split into its `2^k` quadrants / octants, either at
//! the cell midpoint ([`SplitRule::Midpoint`], the paper's rule) or where
//! the hyperplanes actually cross it ([`SplitRule::Hybrid`]).  As the paper
//! notes, the structure has very good average-case behaviour but can
//! degenerate to linear depth when all hyperplanes concentrate in the same
//! quadrant of every cell — exactly the worst case exercised by Figs. 13–14.
//! The [`crate::cutting`] rule is the counterpart with a bounded worst case.

use eclipse_persist::{PersistError, PersistResult};
use serde::{Deserialize, Serialize};

use crate::arena::{crossing_census, median_inplace, partition, SplitPlan};
use crate::hyperplane::HyperplaneSlab;
use crate::point::BoundingBox;

/// How an overfull cell is partitioned into children.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitRule {
    /// The classic quadtree rule: halve every non-degenerate axis at its
    /// midpoint, producing `2^k` congruent children.  This is the only rule
    /// format-v1 snapshots can carry.
    Midpoint,
    /// Data-adaptive rule: per node, the in-cell zero-crossings of the
    /// entries are measured along every axis.  When one axis carries nearly
    /// all of the crossing signal the cell is cut once, on that axis, at the
    /// median crossing (a cutting-tree-style split that tracks clustered,
    /// near-axis-perpendicular bundles instead of blindly halving space);
    /// otherwise every splittable axis is split at its median crossing
    /// (falling back to the midpoint on axes without crossings), so
    /// quadrant-style splits still land where the hyperplanes actually are.
    /// Deterministic — no randomness is consumed.
    ///
    /// Per build, the rule first projects the census tree's entry total from
    /// its root split (`hybrid_projects_entry_overrun`); when the
    /// projection exhausts `max_entries` — duplication compounding around a
    /// shared point — the whole tree is built with the midpoint partition
    /// instead, and a census tree that overruns anyway is checked against
    /// the midpoint tree (see
    /// [`crate::arena::ArenaTree::build_from_slab_with`]).  The arena still
    /// carries this tag, so rebuilding from it reproduces the same bytes.
    Hybrid,
}

impl SplitRule {
    /// Stable one-byte snapshot tag.
    pub fn tag(self) -> u8 {
        match self {
            SplitRule::Midpoint => 0,
            SplitRule::Hybrid => 1,
        }
    }

    /// Inverse of [`SplitRule::tag`]; rejects unknown tags.
    pub fn from_tag(tag: u8) -> PersistResult<Self> {
        match tag {
            0 => Ok(SplitRule::Midpoint),
            1 => Ok(SplitRule::Hybrid),
            other => Err(PersistError::Malformed(format!(
                "unknown quadtree split-rule tag {other}"
            ))),
        }
    }
}

/// Construction parameters of a QUAD [`crate::arena::ArenaTree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuadtreeConfig {
    /// Maximum number of hyperplanes a cell may hold before it is subdivided
    /// (the paper's example uses 3).
    pub max_capacity: usize,
    /// Hard limit on the subdivision depth, guarding against unbounded
    /// recursion when many hyperplanes pass through a common region.
    pub max_depth: usize,
    /// Global budget on the number of tree nodes.  Unlike a point quadtree,
    /// a *hyperplane* quadtree duplicates entries across every child their
    /// hyperplane crosses, so in high dimensions an unbounded tree can grow
    /// to `2^{k·depth}` nodes; once the budget is exhausted the remaining
    /// cells simply stay leaves (queries remain exact, only pruning quality
    /// degrades).
    pub max_nodes: usize,
    /// Global budget on the shared entry slab (the arena's dominant memory
    /// cost: every node stores the ids of the hyperplanes crossing its
    /// cell).  Subdivision stops once the slab reaches the budget; thanks to
    /// the breadth-first construction the cap degrades pruning uniformly.
    /// The budget bounds the slab only loosely: the children of every split
    /// made before it ran out are still recorded, so the slab can end up
    /// several times the budget (about 4x for a 263-point, 4-dimensional
    /// skyline index at the default 2^22 entries).
    pub max_entries: usize,
    /// How overfull cells are partitioned; see [`SplitRule`].
    pub split: SplitRule,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig {
            max_capacity: 8,
            max_depth: 16,
            max_nodes: 1 << 15,
            max_entries: 1 << 22,
            split: SplitRule::Hybrid,
        }
    }
}

/// Plans the QUAD split of one node, or `None` when the cell cannot split
/// (degenerate on every axis) or no partition makes progress (every child
/// would inherit every entry).
///
/// Under [`SplitRule::Hybrid`] a census partition that makes no progress —
/// every median landing exactly on a point shared by all entries, so every
/// child inherits every entry — is retried with the midpoint partition
/// before the node is frozen into an oversized leaf.  Censuses that make
/// *poor* progress (medians merely *near* a shared point, each child
/// keeping most of the parent) are not second-guessed here: no per-node
/// greedy rule can see that such cuts starve the whole build of entry
/// budget, so that pathology is handled once per build, before it starts,
/// by [`hybrid_projects_entry_overrun`] (see
/// [`crate::arena::ArenaTree::build_from_slab_with`]).
pub(crate) fn plan_split(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
    rule: SplitRule,
) -> Option<SplitPlan> {
    match rule {
        SplitRule::Midpoint => partition(slab, subdivide(cell), entries),
        SplitRule::Hybrid => partition(slab, hybrid_subdivide(slab, cell, entries), entries)
            .or_else(|| partition(slab, subdivide(cell), entries)),
    }
}

/// The [`SplitRule::Hybrid`] partition of a cell.
///
/// Takes the crossing census of the cell ([`crossing_census`]: per axis, the
/// in-cell zero-crossings of a strided entry sample, solved along the axis
/// through the cell centre — the same measurement the
/// [`crate::cutting::CutRule::MedianExtents`] cut uses).  When a single
/// axis carries at least 90% of all crossings *and* at least half the
/// sampled entries cross it, the bundle is effectively perpendicular to that
/// axis and one median cut separates it best (2 children); otherwise every
/// splittable axis splits at its own median crossing — midpoint when the
/// axis saw no crossings — which keeps the quadrant structure (needed to
/// separate diagonal bundles, which no single-axis cut can) while placing
/// the split planes where the data is.  With no crossings anywhere this
/// degrades to the classic midpoint rule, and when the measured cuts fail to
/// separate anything — a bundle through one shared point puts every median
/// on that point — [`plan_split`] retries the node with the midpoint
/// partition before giving up.
fn hybrid_subdivide(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
) -> Vec<BoundingBox> {
    let (mut crossings, sampled) = crossing_census(slab, cell, entries);
    let total: usize = crossings.iter().map(|c| c.len()).sum();
    if total == 0 {
        return subdivide(cell);
    }
    let mut dominant = 0;
    for axis in 1..cell.dim() {
        if crossings[axis].len() > crossings[dominant].len() {
            dominant = axis;
        }
    }
    let dominant_count = crossings[dominant].len();
    if dominant_count * 10 >= total * 9 && dominant_count * 2 >= sampled {
        // Crossings are strictly interior (EPS margin), so both halves keep
        // positive extent and the no-progress guard sees a genuine cut.
        let at = median_inplace(&mut crossings[dominant]);
        let (low, high) = cell.split_at(dominant, at);
        return vec![low, high];
    }
    let mut cells = vec![cell.clone()];
    for (axis, axis_crossings) in crossings.iter_mut().enumerate() {
        if cell.extent(axis) <= 0.0 {
            continue;
        }
        let at = if axis_crossings.is_empty() {
            0.5 * (cell.lo()[axis] + cell.hi()[axis])
        } else {
            median_inplace(axis_crossings)
        };
        let mut split = Vec::with_capacity(cells.len() * 2);
        for c in cells {
            let (a, b) = c.split_at(axis, at);
            split.push(a);
            split.push(b);
        }
        cells = split;
    }
    cells
}

/// Whether a [`SplitRule::Hybrid`] build over `cell` is projected to
/// exhaust `config.max_entries`: the up-front half of the rule's per-build
/// midpoint fallback (see [`crate::arena::ArenaTree::build_from_slab_with`]).
///
/// Plans the root split once and extrapolates level by level.  With `R`
/// entries crossing the root and the root's children holding `g·R`, level 1
/// adds the root's children and `g·R` entries; every later level multiplies
/// the nodes by `2^k` (`k` the axes the root spans) and the entries by
/// `min(g, 2^(k−1))` — a hyperplane crosses about half of a small cell's
/// quadrants.  The projection stops, short of the budget, at `max_depth`,
/// when the next level would pass `max_nodes`, or once the level averages
/// at most `max_capacity` entries per node.  Costs one root plan, a few
/// milliseconds against a full build's hundreds.
pub(crate) fn hybrid_projects_entry_overrun(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    config: &QuadtreeConfig,
) -> bool {
    let mut root = Vec::new();
    slab.filter_all_intersecting_into(cell.lo(), cell.hi(), &mut root);
    let budget = config.max_entries as f64;
    let mut total = root.len() as f64;
    if total >= budget {
        return true;
    }
    if root.len() <= config.max_capacity || config.max_depth == 0 || config.max_nodes <= 1 {
        return false;
    }
    let Some(plan) = plan_split(slab, cell, &root, SplitRule::Hybrid) else {
        return false;
    };
    let quadrants = 2f64.powi(spanned_axes(cell) as i32);
    let child_entries: usize = plan.child_entries.iter().map(Vec::len).sum();
    let growth = (child_entries as f64 / total).min(quadrants / 2.0);
    let (mut nodes, mut level_nodes, mut level_entries) =
        (1.0, plan.cells.len() as f64, child_entries as f64);
    let mut depth = 1;
    loop {
        if nodes + level_nodes > config.max_nodes as f64 {
            return false;
        }
        nodes += level_nodes;
        total += level_entries;
        if total >= budget {
            // When the root's own children exhaust the budget, both trees
            // end after a single split: the census build is cheap and the
            // backstop compares the two exactly.
            return depth > 1;
        }
        if depth >= config.max_depth || level_entries <= config.max_capacity as f64 * level_nodes {
            return false;
        }
        level_nodes *= quadrants;
        level_entries *= growth;
        depth += 1;
    }
}

/// The most nodes a [`SplitRule::Midpoint`] build over `cell` can end with:
/// the backstop half of the Hybrid rule's fallback skips the midpoint build
/// when the census tree already has this many.
///
/// A split happens only while the arena holds fewer than `max_nodes` nodes,
/// and a midpoint split halves every axis the cell spans, adding exactly
/// `q = 2^k` children — so the node count stays of the form `1 + j·q` and
/// ends at most at the first such value `≥ max_nodes`.  That holds while
/// the cells at `max_depth` stay wide against the rounding of their
/// midpoints; when they may not, halving could leave a child flat on an
/// axis (fewer children per split) and the looser `max_nodes − 1 + q` is
/// returned.
pub(crate) fn midpoint_node_ceiling(cell: &BoundingBox, config: &QuadtreeConfig) -> usize {
    let q = 1usize
        .checked_shl(spanned_axes(cell) as u32)
        .unwrap_or(usize::MAX);
    let below = config.max_nodes.max(1) - 1;
    let depth = config.max_depth.min(4096) as i32;
    // Each level's midpoints round by at most half an ulp of the largest
    // coordinate, so a cell at `max_depth` is at most `max_depth` ulps
    // narrower than exact halving gives; wider than a few more ulps, its
    // midpoint falls strictly inside it.
    let halves_cleanly = (0..cell.dim()).filter(|&a| cell.extent(a) > 0.0).all(|a| {
        let magnitude = cell.lo()[a].abs().max(cell.hi()[a].abs());
        cell.extent(a) * 0.5f64.powi(depth) > 4.0 * (depth as f64 + 2.0) * f64::EPSILON * magnitude
    });
    if halves_cleanly {
        below.div_ceil(q).saturating_mul(q).saturating_add(1)
    } else {
        below.saturating_add(q)
    }
}

/// The number of axes along which `cell` has positive extent — the axes a
/// midpoint split halves.
fn spanned_axes(cell: &BoundingBox) -> usize {
    (0..cell.dim()).filter(|&a| cell.extent(a) > 0.0).count()
}

/// Splits a cell into its `2^k` children by halving every axis.  Axes with
/// (numerically) zero extent are not split; if every axis is degenerate the
/// function returns an empty vector to signal that subdivision is impossible.
fn subdivide(cell: &BoundingBox) -> Vec<BoundingBox> {
    let k = cell.dim();
    let mut splittable = Vec::new();
    for axis in 0..k {
        if cell.extent(axis) > 0.0 {
            splittable.push(axis);
        }
    }
    if splittable.is_empty() {
        return Vec::new();
    }
    let mut cells = vec![cell.clone()];
    for &axis in &splittable {
        let mid = 0.5 * (cell.lo()[axis] + cell.hi()[axis]);
        let mut next = Vec::with_capacity(cells.len() * 2);
        for c in cells {
            let (a, b) = c.split_at(axis, mid);
            next.push(a);
            next.push(b);
        }
        cells = next;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdivide_produces_2k_children() {
        let cells = subdivide(&BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        assert_eq!(cells.len(), 4);
        let total_volume: f64 = cells.iter().map(|c| c.volume()).sum();
        assert!((total_volume - 1.0).abs() < 1e-12);
        // Degenerate cell cannot be subdivided.
        let degenerate = BoundingBox::new(vec![0.5, 0.5], vec![0.5, 0.5]);
        assert!(subdivide(&degenerate).is_empty());
        // Cell flat on one axis splits only the other.
        let flat = BoundingBox::new(vec![0.0, 0.5], vec![1.0, 0.5]);
        assert_eq!(subdivide(&flat).len(), 2);
    }
}
