//! The CUTTING split rule: the cutting-tree Intersection Index of §IV-B of
//! the paper, as a [`SplitPolicy::Cutting`] of the [`ArenaTree`] —
//! randomized or median-based, sampling-driven cuts.
//!
//! Chazelle's deterministic (1/t)-cuttings give the textbook worst-case
//! guarantee but, as the paper itself notes, "are theoretical in nature and
//! involve large constant factors"; the paper therefore implements the index
//! with a probabilistic scheme (random sampling of intersection vertices and
//! a Voronoi partition of the sampled points).  We follow the same spirit
//! with a structure that is easier to make *exact*:
//!
//! * the space is partitioned by a binary tree of axis-aligned cuts;
//! * at every node the cut coordinate is chosen from a **sample of the
//!   hyperplanes crossing the cell** (the median of their zero-crossings,
//!   measured through the cell centre), so regions dense in hyperplanes are
//!   cut more finely — the property the paper's Voronoi sampling is after;
//! * every node stores the hyperplanes crossing its cell, and queries gather
//!   candidates from the cells intersecting the query box and filter them
//!   with an exact hyperplane-box test.
//!
//! Unlike the quadtree, the depth of this tree is bounded by `max_depth`
//! *and* the data-adaptive median splits keep it balanced even when all
//! hyperplanes crowd into one corner of the root cell — which is exactly the
//! worst-case scenario of Figs. 13–14 where CUTTING must beat QUAD.
//!
//! [`SplitPolicy::Cutting`]: crate::arena::SplitPolicy::Cutting
//! [`ArenaTree`]: crate::arena::ArenaTree

use eclipse_persist::{PersistError, PersistResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::approx::EPS;
use crate::arena::{crossing_census, interior_crossing, median_inplace, partition, SplitPlan};
use crate::hyperplane::HyperplaneSlab;
use crate::point::BoundingBox;

/// How the cut coordinate of an overfull cell is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutRule {
    /// The historical randomized rule: widest axis, median zero-crossing of
    /// a `sample_size`-element random sample of the cell's entries, jittered
    /// midpoint fallback.  The only rule format-v1 snapshots can carry.
    SampledCrossings,
    /// Deterministic adaptive rule: per axis, the in-cell zero-crossings of
    /// a strided entry sample (every entry up to 256, then every
    /// `len/256`-th) are measured; the cut axis is the one carrying the most
    /// crossings (ties to the wider extent, then the earlier axis) and the
    /// cut lands on the median crossing, so dense clusters are split through
    /// their mass instead of through a 16-element random guess.  Falls back
    /// to the widest axis's midpoint (no jitter) when nothing crosses the
    /// cell interior.  Consumes no randomness.
    MedianExtents,
}

impl CutRule {
    /// Stable one-byte snapshot tag.
    pub fn tag(self) -> u8 {
        match self {
            CutRule::SampledCrossings => 0,
            CutRule::MedianExtents => 1,
        }
    }

    /// Inverse of [`CutRule::tag`]; rejects unknown tags.
    pub fn from_tag(tag: u8) -> PersistResult<Self> {
        match tag {
            0 => Ok(CutRule::SampledCrossings),
            1 => Ok(CutRule::MedianExtents),
            other => Err(PersistError::Malformed(format!(
                "unknown cutting-tree cut-rule tag {other}"
            ))),
        }
    }
}

/// Construction parameters of a CUTTING [`crate::arena::ArenaTree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CuttingTreeConfig {
    /// Maximum number of hyperplanes a leaf may hold before it is cut.
    pub max_capacity: usize,
    /// Hard depth limit.
    pub max_depth: usize,
    /// Number of hyperplanes sampled per node to choose the cut (the paper's
    /// parameter `t`; higher values give better balanced cuts at higher
    /// construction cost).
    pub sample_size: usize,
    /// Global budget on the number of tree nodes; once exhausted the
    /// remaining cells stay leaves (queries remain exact).
    pub max_nodes: usize,
    /// Global budget on the shared entry slab (every node stores the ids of
    /// the hyperplanes crossing its cell); see
    /// [`QuadtreeConfig::max_entries`](crate::quadtree::QuadtreeConfig::max_entries).
    pub max_entries: usize,
    /// Seed for the sampling RNG so index construction is reproducible
    /// (consumed only under [`CutRule::SampledCrossings`]).
    pub seed: u64,
    /// How cut coordinates are chosen; see [`CutRule`].
    pub cut: CutRule,
}

impl Default for CuttingTreeConfig {
    fn default() -> Self {
        CuttingTreeConfig {
            max_capacity: 8,
            max_depth: 24,
            sample_size: 16,
            max_nodes: 1 << 16,
            max_entries: 1 << 22,
            seed: 0x5eed_cafe,
            cut: CutRule::MedianExtents,
        }
    }
}

/// Plans the CUTTING split of arena node `node`: one cut chosen by the
/// configured [`CutRule`], or `None` when the cell cannot be cut, a half
/// would be degenerate, or the cut separates nothing (every hyperplane
/// crosses both halves).
pub(crate) fn plan_cut(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
    config: &CuttingTreeConfig,
    node: u32,
) -> Option<SplitPlan> {
    let (axis, at) = match config.cut {
        CutRule::SampledCrossings => choose_cut(
            slab,
            cell,
            entries,
            config.sample_size,
            &mut node_rng(config.seed, node),
        ),
        CutRule::MedianExtents => choose_cut_median(slab, cell, entries),
    }?;
    let (low, high) = cell.split_at(axis, at);
    if low.extent(axis) <= EPS || high.extent(axis) <= EPS {
        return None;
    }
    partition(slab, vec![low, high], entries)
}

/// The deterministic [`CutRule::MedianExtents`] cut: takes the crossing
/// census of the cell (see [`crossing_census`]), cuts the axis carrying the
/// most crossings — ties broken towards the wider extent, then the earlier
/// axis — at their median.  With no interior crossings at all, falls back to
/// the midpoint of the widest axis (no jitter; a fruitless midpoint cut is
/// caught by the no-progress guard, so termination does not need it).
/// Returns `None` only when the cell is degenerate on every axis.
fn choose_cut_median(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
) -> Option<(usize, f64)> {
    let (mut crossings, _) = crossing_census(slab, cell, entries);
    let mut best: Option<usize> = None;
    for axis in 0..cell.dim() {
        if crossings[axis].is_empty() {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                crossings[axis].len() > crossings[b].len()
                    || (crossings[axis].len() == crossings[b].len()
                        && cell.extent(axis) > cell.extent(b))
            }
        };
        if better {
            best = Some(axis);
        }
    }
    if let Some(axis) = best {
        return Some((axis, median_inplace(&mut crossings[axis])));
    }
    // No interior crossing anywhere: midpoint of the widest axis.
    let axis = widest_axis(cell)?;
    Some((axis, 0.5 * (cell.lo()[axis] + cell.hi()[axis])))
}

/// The widest axis of `cell`, or `None` when even that one is degenerate.
fn widest_axis(cell: &BoundingBox) -> Option<usize> {
    let axis = (0..cell.dim()).max_by(|&a, &b| cell.extent(a).total_cmp(&cell.extent(b)))?;
    (cell.extent(axis) > EPS).then_some(axis)
}

/// The [`CutRule::SampledCrossings`] RNG of one node: seeded purely from
/// `(config seed, arena node id)` via splitmix64, so a node's draws are
/// reproducible no matter how the build was chunked, how much of a budget
/// was left, or how many other nodes drew before it.  Node ids are
/// allocated in deterministic BFS stitch order, so two builds that agree
/// on a node's id agree on its sample.
fn node_rng(seed: u64, node: u32) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        seed ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// SplitMix64: a tiny, well-distributed bijection — the standard way to
/// spread correlated seeds (`seed ^ f(node)`) across the u64 space before
/// feeding a stream RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Chooses an axis and a cut coordinate for a cell under
/// [`CutRule::SampledCrossings`].
///
/// The axis is the widest axis of the cell; the coordinate is the median of
/// the zero-crossings (along that axis, through the cell centre) of a random
/// sample of the hyperplanes crossing the cell.  Falls back to a jittered
/// cell midpoint when no sampled hyperplane yields a usable crossing.
fn choose_cut(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
    sample_size: usize,
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    let axis = widest_axis(cell)?;
    let sample_count = sample_size.min(entries.len()).max(1);
    let sample: Vec<u32> = if entries.len() <= sample_count {
        entries.to_vec()
    } else {
        entries
            .choose_multiple(rng, sample_count)
            .copied()
            .collect()
    };
    let center = cell.center();
    let mut crossings: Vec<f64> = sample
        .iter()
        .filter_map(|&e| interior_crossing(slab, e, axis, cell, &center))
        .collect();
    let at = if crossings.is_empty() {
        // No informative crossing in the sample: fall back to the midpoint,
        // jittered slightly so repeated fallbacks still make progress.
        let mid = 0.5 * (cell.lo()[axis] + cell.hi()[axis]);
        let jitter = cell.extent(axis) * rng.gen_range(-0.05..0.05);
        (mid + jitter).clamp(cell.lo()[axis], cell.hi()[axis])
    } else {
        median_inplace(&mut crossings)
    };
    Some((axis, at))
}
