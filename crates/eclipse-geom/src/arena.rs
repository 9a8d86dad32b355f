//! The arena Intersection Index (§IV-B of the paper): one tree for both of
//! the paper's indexes.
//!
//! The index stores a set of hyperplanes (in the workspace: the *score
//! difference* hyperplanes of pairs of skyline points, living in the
//! `(d−1)`-dimensional weight-ratio space) inside a recursively subdivided
//! axis-aligned cell hierarchy.  A cell is split when more than
//! `max_capacity` hyperplanes cross it and the depth and size budgets allow.
//! Queries report exactly the stored hyperplanes intersecting an
//! axis-aligned query box: candidates come from the cells the box touches and
//! are filtered with an exact hyperplane-box test, so the result is never
//! approximate.
//!
//! The paper's two indexes differ only in how a cell is split, which is the
//! [`SplitPolicy`]:
//!
//! * **QUAD** ([`SplitPolicy::Quad`], rules in [`crate::quadtree`]) — the
//!   line quadtree / hyperplane octree.  A split yields `2^k` quadrant cells
//!   (or, under the adaptive rule, a single median cut).  It has very good
//!   average-case behaviour but can degenerate to linear depth when all
//!   hyperplanes concentrate in the same quadrant of every cell — the worst
//!   case of Figs. 13–14.
//! * **CUTTING** ([`SplitPolicy::Cutting`], rules in [`crate::cutting`]) —
//!   the cutting tree.  A split is one binary axis-aligned cut placed at the
//!   median zero-crossing of (a sample of) the cell's hyperplanes, which
//!   keeps the tree balanced on exactly that worst case.
//!
//! # Arena layout
//!
//! The tree is a flat arena rather than boxed nodes: one `Vec` of fixed-size
//! node records (children referenced as a contiguous index range), one shared
//! entry slab holding every node's hyperplane ids, and one flat buffer of
//! cell corner coordinates.  The hyperplanes themselves live in a
//! [`HyperplaneSlab`] (structure-of-arrays coefficient rows), so the query
//! loop — an iterative descent with an explicit stack, visited-bitmap
//! deduplication and branchless box sign tests — touches only dense arrays.
//! Steady-state probes through [`ArenaTree::query_into`] perform no heap
//! allocations.

use eclipse_exec::ThreadPool;
use eclipse_persist::{enc, Cursor, PersistError, PersistResult};
use serde::{Deserialize, Serialize};

use crate::approx::EPS;
use crate::cutting::{CutRule, CuttingTreeConfig};
use crate::hyperplane::{Hyperplane, HyperplaneSlab};
use crate::point::{BoundingBox, Point};
use crate::quadtree::{
    hybrid_projects_entry_overrun, midpoint_node_ceiling, QuadtreeConfig, SplitRule,
};
use crate::traverse::{classify_cell, CellRelation, TraversalScratch};

/// How an overfull cell is split — the one thing that tells QUAD and
/// CUTTING apart.  Each variant carries its index's construction
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SplitPolicy {
    /// The paper's QUAD: quadrant (or adaptive median) splits.
    Quad(QuadtreeConfig),
    /// The paper's CUTTING: one binary cut per split.
    Cutting(CuttingTreeConfig),
}

impl SplitPolicy {
    /// Stable one-byte tag of the policy family (0 QUAD, 1 CUTTING).  The
    /// tree payload does not carry it; snapshot containers store it in front
    /// of the payload and hand it back to [`ArenaTree::decode_versioned`].
    pub fn kind_tag(&self) -> u8 {
        match self {
            SplitPolicy::Quad(_) => 0,
            SplitPolicy::Cutting(_) => 1,
        }
    }

    /// The budgets both policies share: `(max_capacity, max_depth,
    /// max_nodes, max_entries)`.
    fn budgets(&self) -> (usize, usize, usize, usize) {
        match self {
            SplitPolicy::Quad(c) => (c.max_capacity, c.max_depth, c.max_nodes, c.max_entries),
            SplitPolicy::Cutting(c) => (c.max_capacity, c.max_depth, c.max_nodes, c.max_entries),
        }
    }

    /// Plans the split of arena node `node` (cell `cell`, crossed by
    /// `entries`), or `None` when the node stays a leaf.  A pure function of
    /// its arguments, so planning can run on any thread.
    fn plan(
        &self,
        slab: &HyperplaneSlab,
        cell: &BoundingBox,
        entries: &[u32],
        node: u32,
    ) -> Option<SplitPlan> {
        match self {
            SplitPolicy::Quad(c) => crate::quadtree::plan_split(slab, cell, entries, c.split),
            SplitPolicy::Cutting(c) => crate::cutting::plan_cut(slab, cell, entries, c, node),
        }
    }
}

/// Sentinel marking a leaf node (no children).
const NO_CHILDREN: u32 = u32::MAX;

/// One arena node: children as a contiguous index range, entries as a range
/// into the shared entry slab.
///
/// Every node — internal or leaf — records the ids of the hyperplanes
/// crossing its cell.  Leaves use the range for exact candidate filtering;
/// internal nodes use it to report their whole (deduplicated) subtree in one
/// pass when their cell is fully contained in the query box.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Node {
    /// Arena index of the first child; [`NO_CHILDREN`] for leaves.
    first_child: u32,
    /// Number of children, laid out contiguously from `first_child`.
    child_count: u32,
    /// Start of this node's entry range in the shared slab.
    entries_start: u32,
    /// One past the end of the entry range.
    entries_end: u32,
}

/// A QUAD or CUTTING Intersection Index over hyperplanes, stored as a flat
/// arena.
///
/// The tree owns its hyperplanes in [`HyperplaneSlab`] form; construction
/// from a `&[Hyperplane]` slice copies the rows once.  [`query`] keeps the
/// historical slice-taking signature (the slice is only length-checked),
/// while the hot path is [`query_into`], which reuses caller-provided
/// scratch.
///
/// [`query`]: ArenaTree::query
/// [`query_into`]: ArenaTree::query_into
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArenaTree {
    slab: HyperplaneSlab,
    nodes: Vec<Node>,
    /// Node cells, `2k` values per node: `k` lower corner coordinates, then
    /// `k` upper.
    cells: Vec<f64>,
    /// Shared entry slab: every node's hyperplane ids, concatenated.
    entries: Vec<u32>,
    root_cell: BoundingBox,
    policy: SplitPolicy,
    max_depth_reached: usize,
}

impl ArenaTree {
    /// Builds the index over `hyperplanes`, bounded by `cell` (hyperplanes
    /// not intersecting the root cell are simply never reported).  Serial;
    /// see [`ArenaTree::build_from_slab_with`] for the pool-aware entry point
    /// (both produce byte-identical arenas).
    pub fn build(hyperplanes: &[Hyperplane], cell: BoundingBox, policy: SplitPolicy) -> Self {
        Self::build_from_slab_with(
            HyperplaneSlab::from_hyperplanes(hyperplanes),
            cell,
            policy,
            None,
        )
    }

    /// Builds the index over an already-constructed hyperplane slab, taking
    /// ownership of it (the cheap path for callers that assemble their rows
    /// directly, like the n-dimensional eclipse index), optionally spreading
    /// per-node split planning over `pool`.
    ///
    /// Construction is level-synchronous breadth-first: each level's node
    /// frontier is *planned* first (per-node child cells and entry
    /// partitions — the expensive sign tests — computed independently, in
    /// parallel when a pool is supplied), then *stitched* serially in
    /// frontier order (entry recording, budget checks, contiguous child
    /// allocation).  Planning is pure per node — the random draws of
    /// [`CutRule::SampledCrossings`] come from a per-node RNG — and the
    /// stitch replays the exact serial order, so the arena, and therefore
    /// the snapshot encoding, is byte-identical for any thread count.
    ///
    /// Level order also matters for the node budget: when `max_nodes` runs
    /// out, a BFS fills every region of the root cell to the same depth, so
    /// the partially built tree prunes uniformly — a depth-first order would
    /// instead spend the whole budget on the first child's subtree and leave
    /// the remaining cells as giant unpruned leaves.
    ///
    /// # Per-build midpoint fallback for [`SplitRule::Hybrid`]
    ///
    /// When most entries pass near one shared point (the clustered worst
    /// case), the census medians land on that point and every child of
    /// every cut inherits most of its parent's entries.  Each such split
    /// looks locally fine — it makes progress — but the duplication
    /// compounds level over level and exhausts `max_entries` well before
    /// the midpoint rule would, leaving a shallower, slower arena.  No
    /// per-node heuristic can see this (the damage is global), so the rule
    /// is picked once per build, before building:
    ///
    /// * **Projection.**  The root is planned under Hybrid and the census
    ///   tree's entry total extrapolated from it
    ///   (`quadtree::hybrid_projects_entry_overrun`).  When the
    ///   projection reaches `max_entries`, the midpoint tree is built
    ///   directly.
    /// * **Backstop.**  Otherwise the census tree is built; if it did run
    ///   out of entry budget anyway, the midpoint tree is built too and the
    ///   arena with more nodes — the one whose budget went into pruning
    ///   rather than duplication — wins (ties keep the census tree).  The
    ///   second build is skipped when the census tree already has as many
    ///   nodes as a midpoint tree can reach
    ///   (`quadtree::midpoint_node_ceiling`), since the midpoint
    ///   tree could then at best tie.
    ///
    /// So a Hybrid quadtree that runs out of entry budget never has fewer
    /// nodes than the midpoint tree over the same input, and a build pays
    /// for a second arena only when the projection guessed wrong.  The
    /// midpoint arena still advertises `SplitRule::Hybrid`, since the choice
    /// is part of the rule: rebuilding from the carried policy reproduces it
    /// byte-for-byte.
    pub fn build_from_slab_with(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        policy: SplitPolicy,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let config = match policy {
            SplitPolicy::Quad(config) if config.split == SplitRule::Hybrid => config,
            _ => return Self::build_arena(slab, cell, policy, pool),
        };
        let midpoint = SplitPolicy::Quad(QuadtreeConfig {
            split: SplitRule::Midpoint,
            ..config
        });
        let mut tree = if hybrid_projects_entry_overrun(&slab, &cell, &config) {
            Self::build_arena(slab, cell, midpoint, pool)
        } else {
            let census = Self::build_arena(slab, cell.clone(), policy, pool);
            if census.entries.len() < config.max_entries
                || census.nodes.len() >= midpoint_node_ceiling(&cell, &config)
            {
                return census;
            }
            let fallback = Self::build_arena(census.slab.clone(), cell, midpoint, pool);
            if fallback.nodes.len() <= census.nodes.len() {
                return census;
            }
            fallback
        };
        tree.policy = policy;
        tree
    }

    /// One budget-bounded level-synchronous arena build, no fallback; see
    /// [`ArenaTree::build_from_slab_with`].
    fn build_arena(
        slab: HyperplaneSlab,
        cell: BoundingBox,
        policy: SplitPolicy,
        pool: Option<&ThreadPool>,
    ) -> Self {
        #[cfg(test)]
        tests::ARENA_BUILDS.with(|builds| builds.set(builds.get() + 1));
        let (max_capacity, max_depth, max_nodes, max_entries) = policy.budgets();
        // Upper bound on the children one split allocates (a quadrant split
        // on every axis, or a cut's pair); sizes the planning chunks below.
        let max_children = match policy {
            SplitPolicy::Quad(_) => 1usize << cell.dim().min(16),
            SplitPolicy::Cutting(_) => 2,
        };
        let mut all = Vec::new();
        slab.filter_all_intersecting_into(cell.lo(), cell.hi(), &mut all);
        let mut tree = ArenaTree {
            slab,
            nodes: Vec::new(),
            cells: Vec::new(),
            entries: Vec::new(),
            root_cell: cell.clone(),
            policy,
            max_depth_reached: 0,
        };
        tree.alloc_node(&cell);
        let mut frontier: Vec<(u32, Vec<u32>)> = vec![(0, all)];
        let mut depth = 0usize;
        while !frontier.is_empty() {
            tree.max_depth_reached = depth;
            let mut next = Vec::new();
            let mut i = 0usize;
            while i < frontier.len() {
                if depth >= max_depth
                    || tree.nodes.len() >= max_nodes
                    || tree.entries.len() >= max_entries
                {
                    // No node from here on can split (depth and budget
                    // exhaustion only ever grow); record the remaining entry
                    // lists and finish the level without planning them.
                    for (idx, node_entries) in &frontier[i..] {
                        tree.record_entries(*idx, node_entries);
                    }
                    break;
                }
                // Phase A — plan: child cells + entry partitions, one chunk
                // of frontier nodes at a time.  The chunk is sized so that
                // stitching it cannot overrun a budget by more than one
                // node's children: on early levels with plenty of room the
                // chunk is the whole level (maximal parallelism), while on
                // the level where a budget fills the chunks shrink and at
                // most one chunk of planning is ever thrown away.
                let node_room = (max_nodes - tree.nodes.len()) / max_children;
                let entry_room = max_entries - tree.entries.len();
                let mut end = i;
                let mut chunk_entries = 0usize;
                while end < frontier.len()
                    && end - i < node_room.max(1)
                    && chunk_entries < entry_room
                {
                    chunk_entries += frontier[end].1.len();
                    end += 1;
                }
                let chunk = &frontier[i..end];
                let plans: Vec<Option<SplitPlan>> = {
                    let tree = &tree;
                    let plan_one = |(idx, node_entries): &(u32, Vec<u32>)| -> Option<SplitPlan> {
                        if node_entries.len() <= max_capacity {
                            return None;
                        }
                        let cell = tree.node_cell(*idx);
                        policy.plan(&tree.slab, &cell, node_entries, *idx)
                    };
                    match pool {
                        Some(pool)
                            if pool.threads() > 1
                                && chunk_entries >= PARALLEL_BUILD_MIN_ENTRIES =>
                        {
                            pool.par_map(chunk, plan_one)
                        }
                        _ => chunk.iter().map(plan_one).collect(),
                    }
                };
                // Phase B — stitch, serially and in frontier order.  The
                // checks below observe the live arena exactly as a
                // one-node-at-a-time BFS would.
                for (j, plan) in plans.into_iter().enumerate() {
                    let (idx, node_entries) = &frontier[i + j];
                    // Every node records its (deduplicated) entry list, so
                    // queries can report a fully contained subtree straight
                    // from its root.
                    tree.record_entries(*idx, node_entries);
                    if tree.nodes.len() >= max_nodes || tree.entries.len() >= max_entries {
                        continue;
                    }
                    // `plan` is `None` when the node is within capacity, the
                    // cell cannot split, or no child partition made progress
                    // (all hyperplanes cross all children) — further
                    // subdivision would only multiply memory without
                    // improving pruning.
                    let Some(plan) = plan else { continue };
                    let first = tree.nodes.len() as u32;
                    tree.nodes[*idx as usize].first_child = first;
                    tree.nodes[*idx as usize].child_count = plan.cells.len() as u32;
                    for child_cell in &plan.cells {
                        tree.alloc_node(child_cell);
                    }
                    for (ci, ce) in plan.child_entries.into_iter().enumerate() {
                        next.push((first + ci as u32, ce));
                    }
                }
                i = end;
            }
            frontier = next;
            depth += 1;
        }
        tree
    }

    /// Appends a leaf placeholder for `cell` to the arena.
    fn alloc_node(&mut self, cell: &BoundingBox) {
        self.nodes.push(Node {
            first_child: NO_CHILDREN,
            child_count: 0,
            entries_start: 0,
            entries_end: 0,
        });
        self.cells.extend_from_slice(cell.lo());
        self.cells.extend_from_slice(cell.hi());
    }

    /// Stores a node's entries into the shared slab and records the range.
    fn record_entries(&mut self, idx: u32, node_entries: &[u32]) {
        let start = self.entries.len() as u32;
        self.entries.extend_from_slice(node_entries);
        let node = &mut self.nodes[idx as usize];
        node.entries_start = start;
        node.entries_end = self.entries.len() as u32;
    }

    /// Reconstructs a node's cell as an owned box (build only).
    fn node_cell(&self, idx: u32) -> BoundingBox {
        let k = self.root_cell.dim();
        let base = idx as usize * 2 * k;
        BoundingBox::new(
            self.cells[base..base + k].to_vec(),
            self.cells[base + k..base + 2 * k].to_vec(),
        )
    }

    /// The CUTTING record of node `idx`: `(axis, at)` of its cut, read off
    /// the low child's cell, whose upper corner on the cut axis is the cut
    /// coordinate and whose other corners are the parent's.  `(0, 0.0)` for
    /// a leaf.
    fn cut_of(&self, idx: usize) -> (u32, f64) {
        let first = self.nodes[idx].first_child;
        if first == NO_CHILDREN {
            return (0, 0.0);
        }
        let k = self.root_cell.dim();
        let upper = |i: usize| &self.cells[i * 2 * k + k..(i + 1) * 2 * k];
        let (parent, low) = (upper(idx), upper(first as usize));
        let axis = (0..k).find(|&a| low[a] != parent[a]).unwrap_or(0);
        (axis as u32, low[axis])
    }

    /// The split policy (and construction parameters) the tree was built
    /// with.
    pub fn policy(&self) -> SplitPolicy {
        self.policy
    }

    /// Number of hyperplanes the tree was built over.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// `true` when the tree indexes no hyperplanes.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Total number of tree nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of entry-slab slots (diagnostic: the arena's dominant
    /// memory cost; every node stores the ids crossing its cell).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Deepest level created during construction (diagnostic; the worst-case
    /// experiments of Fig. 13 drive this towards `max_depth`).
    pub fn depth(&self) -> usize {
        self.max_depth_reached
    }

    /// Heap bytes owned by the arena: the hyperplane slab plus the node,
    /// cell-corner and entry buffers (counted at capacity) and the root
    /// cell's corners.  Exact up to allocator headers; used by the serving
    /// layer's memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.cells.capacity() * std::mem::size_of::<f64>()
            + self.entries.capacity() * std::mem::size_of::<u32>()
            + self.root_cell.heap_bytes()
    }

    /// The root cell.
    pub fn root_cell(&self) -> &BoundingBox {
        &self.root_cell
    }

    /// The hyperplane rows the tree indexes.
    pub fn slab(&self) -> &HyperplaneSlab {
        &self.slab
    }

    /// Returns the indices of all hyperplanes intersecting `query`, in
    /// ascending order and without duplicates.
    ///
    /// `hyperplanes` must be the same slice the tree was built from (the tree
    /// owns a slab copy of the rows; the slice is only length-checked).
    /// Allocates fresh scratch per call — repeated probing should use
    /// [`ArenaTree::query_into`].
    ///
    /// # Panics
    /// Panics if `hyperplanes.len()` differs from the construction-time count.
    pub fn query(&self, hyperplanes: &[Hyperplane], query: &BoundingBox) -> Vec<usize> {
        assert_eq!(
            hyperplanes.len(),
            self.slab.len(),
            "query must use the hyperplane slice the index was built from"
        );
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        self.query_into(query.lo(), query.hi(), &mut scratch, &mut out);
        out
    }

    /// The allocation-free query: appends the indices of all hyperplanes
    /// intersecting the box `[qlo, qhi]` to `out` (cleared first), in
    /// ascending order and without duplicates.  `scratch` is reused at its
    /// high-water capacity across probes.
    ///
    /// # Panics
    /// Panics if the corner slices do not match the root cell dimensionality.
    pub fn query_into(
        &self,
        qlo: &[f64],
        qhi: &[f64],
        scratch: &mut TraversalScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.mark_hits(qlo, qhi, scratch);
        scratch.drain_into(out);
    }

    /// The count-only query: the number of hyperplanes intersecting the box
    /// `[qlo, qhi]`, computed with the same traversal (contained cells report
    /// their deduplicated subtree without a single sign test) but swept out
    /// of the visited bitmap as a popcount — no id is ever materialized, so
    /// the query performs no heap allocations at steady state.
    ///
    /// # Panics
    /// Panics if the corner slices do not match the root cell dimensionality.
    pub fn count_in_box(&self, qlo: &[f64], qhi: &[f64], scratch: &mut TraversalScratch) -> usize {
        self.mark_hits(qlo, qhi, scratch);
        scratch.drain_count()
    }

    /// Shared traversal of [`ArenaTree::query_into`] and
    /// [`ArenaTree::count_in_box`]: marks every hyperplane intersecting the
    /// box in the scratch's visited bitmap.
    fn mark_hits(&self, qlo: &[f64], qhi: &[f64], scratch: &mut TraversalScratch) {
        assert_eq!(
            qlo.len(),
            self.root_cell.dim(),
            "query dimensionality mismatch"
        );
        assert_eq!(
            qhi.len(),
            self.root_cell.dim(),
            "query dimensionality mismatch"
        );
        scratch.begin(self.slab.len());
        scratch.stack.push(0);
        while let Some(idx) = scratch.stack.pop() {
            let idx = idx as usize;
            let node = self.nodes[idx];
            match classify_cell(&self.cells, idx, qlo, qhi) {
                CellRelation::Disjoint => {}
                CellRelation::Contained => {
                    // The cell lies inside the query box, so every hyperplane
                    // crossing the cell crosses the box: report this node's
                    // deduplicated entry list without descending or running a
                    // single sign test.
                    for &e in &self.entries[node.entries_start as usize..node.entries_end as usize]
                    {
                        scratch.mark(e as usize);
                    }
                }
                CellRelation::Overlaps if node.first_child == NO_CHILDREN => {
                    // Gather the not-yet-marked entries and sign-test them
                    // four at a time through the batched kernel; the buffers
                    // are taken out of the scratch for the duration (no
                    // allocation at steady state, same bit-exact decisions).
                    let mut pending = std::mem::take(&mut scratch.pending);
                    let mut filtered = std::mem::take(&mut scratch.filtered);
                    pending.clear();
                    pending.extend(
                        self.entries[node.entries_start as usize..node.entries_end as usize]
                            .iter()
                            .copied()
                            .filter(|&e| !scratch.is_marked(e as usize)),
                    );
                    filtered.clear();
                    self.slab
                        .filter_intersecting_into(&pending, qlo, qhi, &mut filtered);
                    for &e in &filtered {
                        scratch.mark(e as usize);
                    }
                    scratch.pending = pending;
                    scratch.filtered = filtered;
                }
                CellRelation::Overlaps => {
                    for c in node.first_child..node.first_child + node.child_count {
                        scratch.stack.push(c);
                    }
                }
            }
        }
    }

    /// Appends the tree's snapshot encoding: construction parameters, root
    /// cell, reached depth, the hyperplane slab, then the three arena
    /// buffers (node records, flat cell corners, shared entry slab).  The
    /// encoding is byte-stable: construction is deterministic (for any
    /// thread count), so the same input data and policy always produce the
    /// same bytes.
    ///
    /// The policy family is not written (see [`SplitPolicy::kind_tag`]); it
    /// picks the layout of the parameters and of the node records:
    ///
    /// * QUAD — `max_capacity, max_depth, max_nodes, max_entries` and the
    ///   split-rule tag; records are `first_child, child_count,
    ///   entries_start, entries_end`.
    /// * CUTTING — `max_capacity, max_depth, sample_size, max_nodes,
    ///   max_entries, seed` and the cut-rule tag; records are `axis, at,
    ///   low, high, entries_start, entries_end`, the cut derived from the
    ///   children's cells.
    ///
    /// Always writes the current container format; the rule tag is the
    /// format-v2 addition.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self.policy {
            SplitPolicy::Quad(c) => {
                for v in [c.max_capacity, c.max_depth, c.max_nodes, c.max_entries] {
                    enc::put_usize(out, v);
                }
                enc::put_u8(out, c.split.tag());
            }
            SplitPolicy::Cutting(c) => {
                for v in [
                    c.max_capacity,
                    c.max_depth,
                    c.sample_size,
                    c.max_nodes,
                    c.max_entries,
                ] {
                    enc::put_usize(out, v);
                }
                enc::put_u64(out, c.seed);
                enc::put_u8(out, c.cut.tag());
            }
        }
        self.root_cell.encode_into(out);
        enc::put_usize(out, self.max_depth_reached);
        self.slab.encode_into(out);
        enc::put_usize(out, self.nodes.len());
        let cutting = matches!(self.policy, SplitPolicy::Cutting(_));
        for (idx, node) in self.nodes.iter().enumerate() {
            if cutting {
                let (axis, at) = self.cut_of(idx);
                let high = match node.first_child {
                    NO_CHILDREN => NO_CHILDREN,
                    low => low + 1,
                };
                enc::put_u32(out, axis);
                enc::put_f64(out, at);
                enc::put_u32(out, node.first_child);
                enc::put_u32(out, high);
            } else {
                enc::put_u32(out, node.first_child);
                enc::put_u32(out, node.child_count);
            }
            enc::put_u32(out, node.entries_start);
            enc::put_u32(out, node.entries_end);
        }
        // `cells` holds exactly 2k values per node, so no count is stored.
        for &c in &self.cells {
            enc::put_f64(out, c);
        }
        enc::put_usize(out, self.entries.len());
        for &e in &self.entries {
            enc::put_u32(out, e);
        }
    }

    /// Decodes a current-format tree of policy family `kind_tag`; see
    /// [`ArenaTree::decode_versioned`].
    ///
    /// # Errors
    /// A typed [`PersistError`] for every defect.
    pub fn decode(cur: &mut Cursor<'_>, kind_tag: u8) -> PersistResult<Self> {
        Self::decode_versioned(cur, eclipse_persist::FORMAT_VERSION, kind_tag)
    }

    /// Decodes a tree previously written by [`ArenaTree::encode_into`] for
    /// policy family `kind_tag`, consuming exactly its bytes from `cur` and
    /// re-validating every arena invariant the query loop relies on, so a
    /// crafted payload can neither panic a probe, hang it, nor make it miss
    /// a hit:
    ///
    /// * element counts are checked against the remaining bytes before any
    ///   buffer is reserved;
    /// * child ranges stay inside the arena and point strictly forward
    ///   (guaranteeing traversal termination);
    /// * entry ranges stay inside the entry slab and every entry id indexes
    ///   a slab row;
    /// * the root cell and slab dimensionalities agree;
    /// * every CUTTING record is what the encoder would write back: a leaf
    ///   with a zero cut, or an adjacent child pair whose cells agree with
    ///   the stored `(axis, at)`.
    ///
    /// Format-v1 payloads predate the rule tags (no tag byte; every v1 tree
    /// was built with [`SplitRule::Midpoint`] or
    /// [`CutRule::SampledCrossings`]).  Callers reading a snapshot container
    /// pass `SnapshotReader::version`.
    ///
    /// # Errors
    /// A typed [`PersistError`] for every defect; arbitrary input never
    /// panics.
    pub fn decode_versioned(
        cur: &mut Cursor<'_>,
        version: u32,
        kind_tag: u8,
    ) -> PersistResult<Self> {
        let policy = match kind_tag {
            0 => SplitPolicy::Quad(QuadtreeConfig {
                max_capacity: cur.usize64()?,
                max_depth: cur.usize64()?,
                max_nodes: cur.usize64()?,
                max_entries: cur.usize64()?,
                split: if version >= 2 {
                    SplitRule::from_tag(cur.u8()?)?
                } else {
                    SplitRule::Midpoint
                },
            }),
            1 => SplitPolicy::Cutting(CuttingTreeConfig {
                max_capacity: cur.usize64()?,
                max_depth: cur.usize64()?,
                sample_size: cur.usize64()?,
                max_nodes: cur.usize64()?,
                max_entries: cur.usize64()?,
                seed: cur.u64()?,
                cut: if version >= 2 {
                    CutRule::from_tag(cur.u8()?)?
                } else {
                    CutRule::SampledCrossings
                },
            }),
            tag => {
                return Err(PersistError::UnknownTag {
                    context: "backend tree",
                    tag,
                })
            }
        };
        let root_cell = BoundingBox::decode(cur)?;
        let max_depth_reached = cur.usize64()?;
        let slab = HyperplaneSlab::decode(cur)?;
        let k = root_cell.dim();
        if slab.dim() != k {
            return Err(PersistError::Malformed(format!(
                "slab dimensionality {} does not match the {k}-dimensional root cell",
                slab.dim()
            )));
        }
        let cutting = matches!(policy, SplitPolicy::Cutting(_));
        let node_count = cur.count(if cutting { 28 } else { 16 })?;
        if node_count == 0 {
            return Err(PersistError::Malformed(
                "an arena needs at least its root node".to_string(),
            ));
        }
        let mut nodes = Vec::with_capacity(node_count);
        // The stored CUTTING cuts, checked against the cells once read.
        let mut cuts = Vec::with_capacity(if cutting { node_count } else { 0 });
        for idx in 0..node_count {
            let (first_child, child_count) = if cutting {
                let (axis, at, low, high) = (cur.u32()?, cur.f64()?, cur.u32()?, cur.u32()?);
                let leaf = low == NO_CHILDREN;
                let well_formed = if leaf {
                    high == NO_CHILDREN && axis == 0 && at.to_bits() == 0
                } else {
                    Some(high) == low.checked_add(1)
                };
                if !well_formed {
                    return Err(PersistError::Malformed(format!(
                        "node {idx} cut (axis {axis}, at {at}, children {low}/{high}) is neither \
                         a leaf nor an adjacent child pair"
                    )));
                }
                cuts.push((axis, at));
                (low, if leaf { 0 } else { 2 })
            } else {
                (cur.u32()?, cur.u32()?)
            };
            nodes.push(Node {
                first_child,
                child_count,
                entries_start: cur.u32()?,
                entries_end: cur.u32()?,
            });
        }
        let cells = cur.f64_vec(node_count.checked_mul(2 * k).ok_or_else(|| {
            PersistError::Malformed(format!("{node_count} cells of dimension {k} overflow"))
        })?)?;
        let entry_count = cur.count(4)?;
        let entries = cur.u32_vec(entry_count)?;
        if let Some(&bad) = entries.iter().find(|&&e| e as usize >= slab.len()) {
            return Err(PersistError::Malformed(format!(
                "entry id {bad} out of range for {} hyperplanes",
                slab.len()
            )));
        }
        for (idx, node) in nodes.iter().enumerate() {
            if node.entries_start > node.entries_end || node.entries_end as usize > entries.len() {
                return Err(PersistError::Malformed(format!(
                    "node {idx} entry range {}..{} escapes the {}-slot entry slab",
                    node.entries_start,
                    node.entries_end,
                    entries.len()
                )));
            }
            if node.first_child == NO_CHILDREN {
                if node.child_count != 0 {
                    return Err(PersistError::Malformed(format!(
                        "leaf node {idx} claims {} children",
                        node.child_count
                    )));
                }
            } else if node.child_count == 0
                || node.first_child as usize <= idx
                || u64::from(node.first_child) + u64::from(node.child_count) > node_count as u64
            {
                // Children must point strictly forward (the builder allocates
                // them after their parent), which is also what guarantees the
                // iterative traversal terminates on decoded arenas.
                return Err(PersistError::Malformed(format!(
                    "node {idx} child range {}+{} is invalid for {node_count} nodes",
                    node.first_child, node.child_count
                )));
            }
        }
        let tree = ArenaTree {
            slab,
            nodes,
            cells,
            entries,
            root_cell,
            policy,
            max_depth_reached,
        };
        for (idx, &(axis, at)) in cuts.iter().enumerate() {
            let (derived_axis, derived_at) = tree.cut_of(idx);
            let high = tree.nodes[idx].first_child.wrapping_add(1) as usize;
            let agrees = (derived_axis, derived_at.to_bits()) == (axis, at.to_bits())
                && (tree.nodes[idx].first_child == NO_CHILDREN
                    || tree.cells[high * 2 * k + axis as usize].to_bits() == at.to_bits());
            if !agrees {
                return Err(PersistError::Malformed(format!(
                    "node {idx} cut (axis {axis}, at {at}) disagrees with its children's cells"
                )));
            }
        }
        Ok(tree)
    }
}

/// Minimum number of entries across a level's frontier chunk before split
/// planning is farmed out to the pool — below this the sign-test work cannot
/// amortize the dispatch overhead.
const PARALLEL_BUILD_MIN_ENTRIES: usize = 4096;

/// A planned subdivision of one overfull node: the child cells and, for each
/// child, the subset of the parent's entries crossing it.
pub(crate) struct SplitPlan {
    pub(crate) cells: Vec<BoundingBox>,
    pub(crate) child_entries: Vec<Vec<u32>>,
}

/// Partitions `entries` over the candidate child `cells`, or `None` when
/// there are no cells or the partition makes no progress (every child would
/// inherit every entry).
pub(crate) fn partition(
    slab: &HyperplaneSlab,
    cells: Vec<BoundingBox>,
    entries: &[u32],
) -> Option<SplitPlan> {
    if cells.is_empty() {
        return None;
    }
    let mut child_entries = Vec::with_capacity(cells.len());
    for cell in &cells {
        let mut ce = Vec::new();
        slab.filter_intersecting_into(entries, cell.lo(), cell.hi(), &mut ce);
        child_entries.push(ce);
    }
    if child_entries.iter().all(|c| c.len() == entries.len()) {
        return None;
    }
    Some(SplitPlan {
        cells,
        child_entries,
    })
}

/// Cap on the entries whose crossings the adaptive rules measure per node: a
/// deterministic strided subset (every `len/256`-th entry), plenty for a
/// robust median while keeping split selection O(1) per node instead of
/// O(n) — without it, adaptive construction on large dense nodes costs more
/// than the probe time it saves.
const CROSSING_SAMPLE_CAP: usize = 256;

/// Where row `e` crosses the line through `center` parallel to `axis`, if
/// strictly inside `cell` (with an EPS margin, so both halves of a cut there
/// keep positive extent).
pub(crate) fn interior_crossing(
    slab: &HyperplaneSlab,
    e: u32,
    axis: usize,
    cell: &BoundingBox,
    center: &Point,
) -> Option<f64> {
    let row = slab.coeffs_row(e as usize);
    let coeff = row[axis];
    if coeff.abs() <= EPS {
        return None;
    }
    let mut rest = 0.0;
    for (j, c) in row.iter().enumerate() {
        if j != axis {
            rest += c * center.coord(j);
        }
    }
    let x = -(rest + slab.offset(e as usize)) / coeff;
    (x > cell.lo()[axis] + EPS && x < cell.hi()[axis] - EPS).then_some(x)
}

/// The crossing census of the adaptive rules: per axis, the interior
/// crossings ([`interior_crossing`], through the cell centre) of a
/// deterministic strided sample of `entries` — every `stride`-th entry,
/// capped at [`CROSSING_SAMPLE_CAP`] — plus the sample size.  Thread-count
/// independent, so parallel and serial builds measure identical samples.
pub(crate) fn crossing_census(
    slab: &HyperplaneSlab,
    cell: &BoundingBox,
    entries: &[u32],
) -> (Vec<Vec<f64>>, usize) {
    let k = cell.dim();
    let center = cell.center();
    let stride = entries.len().div_ceil(CROSSING_SAMPLE_CAP).max(1);
    let mut crossings: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut sampled = 0usize;
    for &e in entries.iter().step_by(stride) {
        sampled += 1;
        for (axis, axis_crossings) in crossings.iter_mut().enumerate() {
            if let Some(x) = interior_crossing(slab, e, axis, cell, &center) {
                axis_crossings.push(x);
            }
        }
    }
    (crossings, sampled)
}

/// The (upper) median by `total_cmp`, found by in-place selection.
pub(crate) fn median_inplace(xs: &mut [f64]) -> f64 {
    let mid = xs.len() / 2;
    *xs.select_nth_unstable_by(mid, |a, b| a.total_cmp(b)).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`ArenaTree::build_arena`] on this thread (a build runs
        /// on its calling thread; the pool only plans splits).
        pub(super) static ARENA_BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    /// The number of full arena builds `f` runs.
    fn arena_builds<T>(f: impl FnOnce() -> T) -> (usize, T) {
        let before = ARENA_BUILDS.with(Cell::get);
        let out = f();
        (ARENA_BUILDS.with(Cell::get) - before, out)
    }

    /// A 2-D line `a·x + b·y + c = 0` as a hyperplane.
    fn line(a: f64, b: f64, c: f64) -> Hyperplane {
        Hyperplane::new(vec![a, b], c)
    }

    fn unit_box() -> BoundingBox {
        BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    fn square() -> BoundingBox {
        BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0])
    }

    fn brute_force(hs: &[Hyperplane], q: &BoundingBox) -> Vec<usize> {
        (0..hs.len()).filter(|&i| hs[i].intersects_box(q)).collect()
    }

    fn random_lines(rng: &mut impl Rng, n: usize) -> Vec<Hyperplane> {
        (0..n)
            .map(|_| {
                line(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect()
    }

    /// A random query box inside [`square`] with sides in `side`.
    fn random_box(rng: &mut impl Rng, side: std::ops::Range<f64>) -> BoundingBox {
        let x0 = rng.gen_range(-1.0..0.7);
        let y0 = rng.gen_range(-1.0..0.7);
        BoundingBox::new(
            vec![x0, y0],
            vec![x0 + rng.gen_range(side.clone()), y0 + rng.gen_range(side)],
        )
    }

    fn quad(split: SplitRule, f: impl Fn(&mut QuadtreeConfig)) -> SplitPolicy {
        let mut c = QuadtreeConfig {
            split,
            ..QuadtreeConfig::default()
        };
        f(&mut c);
        SplitPolicy::Quad(c)
    }

    fn cutting(cut: CutRule, f: impl Fn(&mut CuttingTreeConfig)) -> SplitPolicy {
        let mut c = CuttingTreeConfig {
            cut,
            ..CuttingTreeConfig::default()
        };
        f(&mut c);
        SplitPolicy::Cutting(c)
    }

    /// The four named configurations — QUAD Midpoint/Hybrid, CUTTING
    /// SampledCrossings/MedianExtents — with `max_capacity` `cap` (0 keeps
    /// the defaults) and `max_depth` `depth` (0 keeps the defaults).
    fn policies(cap: usize, depth: usize) -> [SplitPolicy; 4] {
        let q = |c: &mut QuadtreeConfig| {
            if cap > 0 {
                c.max_capacity = cap;
            }
            if depth > 0 {
                c.max_depth = depth;
            }
        };
        let t = |c: &mut CuttingTreeConfig| {
            if cap > 0 {
                c.max_capacity = cap;
            }
            if depth > 0 {
                c.max_depth = depth;
            }
        };
        [
            quad(SplitRule::Midpoint, q),
            quad(SplitRule::Hybrid, q),
            cutting(CutRule::SampledCrossings, t),
            cutting(CutRule::MedianExtents, t),
        ]
    }

    fn encode(tree: &ArenaTree) -> Vec<u8> {
        let mut bytes = Vec::new();
        tree.encode_into(&mut bytes);
        bytes
    }

    fn decode(bytes: &[u8], policy: SplitPolicy) -> PersistResult<ArenaTree> {
        ArenaTree::decode(&mut Cursor::new(bytes), policy.kind_tag())
    }

    #[test]
    fn build_and_query_small() {
        // Diagonal and two horizontal-ish lines inside the unit box.
        let hs = vec![
            line(1.0, -1.0, 0.0),  // y = x
            line(0.0, 1.0, -0.25), // y = 0.25
            line(0.0, 1.0, -0.75), // y = 0.75
            line(1.0, 1.0, -10.0), // far away, never intersects the unit box
        ];
        for policy in policies(0, 0) {
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            assert_eq!(tree.len(), 4);
            assert!(!tree.is_empty());
            assert_eq!(tree.root_cell(), &unit_box());
            assert_eq!(tree.slab().len(), 4);
            assert_eq!(tree.policy(), policy);
            let q = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
            let got = tree.query(&hs, &q);
            assert_eq!(got, brute_force(&hs, &q), "{policy:?}");
            assert!(got.contains(&0) && got.contains(&1) && !got.contains(&3));
        }
    }

    #[test]
    fn query_agrees_with_brute_force_randomized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        // Random lines, degenerate rows, a near-vertical bundle and a
        // near-diagonal bundle.
        let mut hs = random_lines(&mut rng, 200);
        hs.push(Hyperplane::new(vec![0.0, 0.0], 0.0));
        hs.push(Hyperplane::new(vec![0.0, 0.0], 1.0));
        for i in 0..40 {
            hs.push(line(1.0, 1e-6, -0.3 - 1e-5 * i as f64));
        }
        for i in 0..64 {
            hs.push(line(1.0, -1.0, -1e-4 * i as f64));
        }
        for policy in policies(4, 12) {
            let tree = ArenaTree::build(&hs, square(), policy);
            assert!(tree.node_count() > 1, "{policy:?} should subdivide");
            for _ in 0..40 {
                // Query boxes stay inside the root cell: hyperplanes
                // crossing a box only outside the indexed region are by
                // contract never reported.
                let q = random_box(&mut rng, 0.01..0.3);
                assert_eq!(
                    tree.query(&hs, &q),
                    brute_force(&hs, &q),
                    "{policy:?} {q:?}"
                );
            }
            assert_eq!(tree.query(&hs, &square()), brute_force(&hs, &square()));
        }
    }

    #[test]
    fn three_dimensional_trees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let hs: Vec<Hyperplane> = (0..120)
            .map(|_| {
                Hyperplane::new(
                    (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    rng.gen_range(-0.5..0.5),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![-1.0; 3], vec![1.0; 3]);
        for policy in policies(0, 0) {
            let tree = ArenaTree::build(&hs, root.clone(), policy);
            for _ in 0..10 {
                let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..0.8)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.2)).collect();
                let q = BoundingBox::new(lo, hi);
                assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q), "{policy:?}");
            }
        }
    }

    #[test]
    fn empty_tree_queries_cleanly() {
        let hs: Vec<Hyperplane> = Vec::new();
        for policy in policies(0, 0) {
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            assert!(tree.is_empty());
            assert_eq!(tree.query(&hs, &unit_box()), Vec::<usize>::new());
            assert_eq!(tree.node_count(), 1);
            let mut scratch = TraversalScratch::new();
            assert_eq!(tree.count_in_box(&[0.0, 0.0], &[1.0, 1.0], &mut scratch), 0);
        }
    }

    #[test]
    fn count_in_box_matches_query_cardinality() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let hs = random_lines(&mut rng, 200);
        for policy in policies(6, 0) {
            let tree = ArenaTree::build(&hs, square(), policy);
            let mut scratch = TraversalScratch::new();
            // One scratch alternates freely between id and count drains; the
            // box covering the whole root cell takes the contained fast path
            // at the root node itself.
            let boxes: Vec<BoundingBox> =
                (0..25).map(|_| random_box(&mut rng, 0.01..0.2)).collect();
            for q in std::iter::once(square()).chain(boxes) {
                let ids = tree.query(&hs, &q);
                assert_eq!(tree.count_in_box(q.lo(), q.hi(), &mut scratch), ids.len());
                // The count drain left the bitmap clean for the next id query.
                let mut out = Vec::new();
                tree.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
                assert_eq!(out, ids, "{policy:?} {q:?}");
            }
        }
    }

    #[test]
    fn query_into_reuses_scratch_across_probes_and_trees() {
        let hs: Vec<Hyperplane> = (0..60)
            .map(|i| line(1.0, -0.7, -(i as f64) / 60.0))
            .collect();
        let trees = policies(4, 0).map(|p| ArenaTree::build(&hs, unit_box(), p));
        let mut scratch = TraversalScratch::new();
        let mut out = Vec::new();
        for (x0, y0, side) in [(0.0, 0.0, 0.4), (0.5, 0.5, 0.3), (0.9, 0.1, 0.05)] {
            let q = BoundingBox::new(vec![x0, y0], vec![x0 + side, y0 + side]);
            for tree in &trees {
                tree.query_into(q.lo(), q.hi(), &mut scratch, &mut out);
                assert_eq!(out, brute_force(&hs, &q), "{:?} {q:?}", tree.policy());
            }
        }
    }

    #[test]
    fn parallel_diagonals_subdivide_and_report_the_whole_root() {
        let hs: Vec<Hyperplane> = (0..50)
            .map(|i| line(1.0, -1.0, -(i as f64) / 50.0))
            .collect();
        for policy in policies(4, 12) {
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            assert_eq!(tree.query(&hs, &unit_box()), brute_force(&hs, &unit_box()));
            assert!(tree.node_count() > 1, "{policy:?} should have subdivided");
            assert!(tree.depth() >= 1);
        }
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        let hs = random_lines(&mut rng, 150);
        for policy in policies(4, 0) {
            let tree = ArenaTree::build(&hs, square(), policy);
            let bytes = encode(&tree);
            let mut cur = Cursor::new(&bytes);
            let back = ArenaTree::decode(&mut cur, policy.kind_tag()).unwrap();
            cur.finish().unwrap();
            assert_eq!(back.policy(), tree.policy());
            assert_eq!(back.root_cell(), tree.root_cell());
            assert_eq!(back.node_count(), tree.node_count());
            assert_eq!(back.entry_count(), tree.entry_count());
            assert_eq!(back.depth(), tree.depth());
            // The decoded tree answers every probe identically.
            for _ in 0..20 {
                let q = random_box(&mut rng, 0.01..0.3);
                assert_eq!(back.query(&hs, &q), tree.query(&hs, &q), "{policy:?} {q:?}");
            }
            // Re-encoding reproduces the bytes exactly (the golden-file
            // property).
            assert_eq!(encode(&back), bytes, "{policy:?}");
        }
    }

    #[test]
    fn snapshot_decode_is_total_on_hostile_input() {
        // Kept deliberately tiny: the truncation sweep below decodes every
        // proper prefix, which is quadratic in the snapshot size.
        // Horizontal lines separate cleanly under axis-aligned splits, so
        // the root subdivides even at this size.
        let hs: Vec<Hyperplane> = (0..8).map(|i| line(0.0, 1.0, -0.1 * i as f64)).collect();
        let malformed = |bytes: &[u8], policy, what: &str| match decode(bytes, policy) {
            Err(PersistError::Malformed(m)) => assert!(m.contains(what), "{policy:?}: {m}"),
            other => panic!("{policy:?}: expected a {what:?} rejection, got {other:?}"),
        };
        for policy in policies(2, 0) {
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            assert!(tree.nodes[0].first_child != NO_CHILDREN, "root subdivided");
            let bytes = encode(&tree);
            decode(&bytes, policy).unwrap();
            // Every truncation errors cleanly.
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut], policy).is_err(),
                    "prefix of {cut} bytes"
                );
            }
            // An unknown policy family is refused.
            assert!(matches!(
                ArenaTree::decode(&mut Cursor::new(&bytes), 7),
                Err(PersistError::UnknownTag { tag: 7, .. })
            ));
            // Children must point strictly forward: rewired to the root
            // itself, traversal would never terminate.
            let mut evil = tree.clone();
            evil.nodes[0].first_child = 0;
            malformed(&encode(&evil), policy, "child range");
            // An entry id beyond the slab is rejected.
            let mut evil = tree.clone();
            evil.entries[0] = 99;
            malformed(&encode(&evil), policy, "out of range");
        }
    }

    #[test]
    fn cutting_records_must_be_what_the_encoder_writes() {
        // CUTTING node records carry `(axis, at, low, high)`; traversal reads
        // none of it beyond the child range, so the decoder insists every
        // record is exactly what encoding the decoded arena writes back.
        let hs: Vec<Hyperplane> = (0..8).map(|i| line(0.0, 1.0, -0.1 * i as f64)).collect();
        for policy in &policies(2, 0)[2..] {
            let tree = ArenaTree::build(&hs, unit_box(), *policy);
            let bytes = encode(&tree);
            // Node records sit between the header and the cells, 28 bytes
            // each: axis u32, at f64, low u32, high u32, entry range.
            let records = bytes.len() - 4 * tree.entries.len() - 8 - 8 * tree.cells.len();
            let at = |idx: usize| records - 28 * (tree.nodes.len() - idx);
            let patched = |idx: usize, field: usize, value: &[u8]| {
                let mut b = bytes.clone();
                b[at(idx) + field..at(idx) + field + value.len()].copy_from_slice(value);
                b
            };
            let root_cut = f64::from_le_bytes(bytes[at(0) + 4..at(0) + 12].try_into().unwrap());
            assert!(root_cut > 0.0 && root_cut < 1.0, "root is a cut");
            let rejected = |b: Vec<u8>, what: &str| match decode(&b, *policy) {
                Err(PersistError::Malformed(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("expected a {what:?} rejection, got {other:?}"),
            };
            // The root cut moved, or on an axis outside the ambient space.
            rejected(
                patched(0, 4, &(root_cut + 0.125).to_le_bytes()),
                "disagrees",
            );
            rejected(patched(0, 4, &1.0f64.to_le_bytes()), "disagrees");
            rejected(patched(0, 0, &7u32.to_le_bytes()), "disagrees");
            // Children that are not an adjacent pair.
            let low = tree.nodes[0].first_child;
            rejected(patched(0, 16, &(low + 2).to_le_bytes()), "adjacent");
            rejected(patched(0, 16, &low.to_le_bytes()), "adjacent");
            rejected(patched(0, 16, &NO_CHILDREN.to_le_bytes()), "adjacent");
            // A leaf carrying a cut axis or coordinate, even `-0.0`.
            let leaf = tree.nodes.len() - 1;
            assert_eq!(tree.nodes[leaf].first_child, NO_CHILDREN);
            rejected(patched(leaf, 0, &1u32.to_le_bytes()), "adjacent");
            rejected(patched(leaf, 4, &0.5f64.to_le_bytes()), "adjacent");
            rejected(patched(leaf, 4, &(-0.0f64).to_le_bytes()), "adjacent");
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        // Enough hyperplanes that the root frontier crosses the parallel
        // planning threshold.
        let hs = random_lines(&mut rng, 5000);
        let pool = ThreadPool::with_threads(4);
        for policy in policies(16, 12) {
            let serial = ArenaTree::build(&hs, square(), policy);
            let parallel = ArenaTree::build_from_slab_with(
                HyperplaneSlab::from_hyperplanes(&hs),
                square(),
                policy,
                Some(&pool),
            );
            assert_eq!(encode(&serial), encode(&parallel), "{policy:?}");
        }
    }

    #[test]
    fn node_budget_caps_the_arena() {
        let hs: Vec<Hyperplane> = (0..128)
            .map(|i| line(1.0, -1.0, -(i as f64) / 128.0))
            .collect();
        for policy in policies(1, 30) {
            let policy = match policy {
                SplitPolicy::Quad(c) => SplitPolicy::Quad(QuadtreeConfig { max_nodes: 64, ..c }),
                SplitPolicy::Cutting(c) => {
                    SplitPolicy::Cutting(CuttingTreeConfig { max_nodes: 64, ..c })
                }
            };
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            // The budget may be exceeded by at most one sibling group.
            assert!(
                tree.node_count() <= 64 + 4,
                "{policy:?}: {}",
                tree.node_count()
            );
            // Queries are exact regardless of where construction stopped.
            let q = BoundingBox::new(vec![0.1, 0.1], vec![0.9, 0.9]);
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn identical_hyperplanes_do_not_recurse_forever() {
        // Every hyperplane is the same: no split can separate them; the
        // builder must terminate with an oversized leaf rather than recurse.
        let hs: Vec<Hyperplane> = (0..32).map(|_| line(1.0, -1.0, 0.0)).collect();
        for policy in policies(2, 64) {
            let tree = ArenaTree::build(&hs, unit_box(), policy);
            let q = BoundingBox::new(vec![0.2, 0.2], vec![0.8, 0.8]);
            assert_eq!(tree.query(&hs, &q).len(), 32, "{policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "hyperplane slice")]
    fn query_with_wrong_slice_panics() {
        let hs = vec![line(1.0, -1.0, 0.0)];
        let tree = ArenaTree::build(&hs, unit_box(), policies(0, 0)[0]);
        let wrong: Vec<Hyperplane> = Vec::new();
        let _ = tree.query(&wrong, &unit_box());
    }

    #[test]
    fn clustered_lines_drive_quad_deep_and_keep_cutting_shallow() {
        // All lines pass very close to the same corner: under the classic
        // midpoint rule the quadtree keeps subdividing towards that corner
        // (the paper's worst case — pinned here to the rule it describes),
        // while the cutting tree's median cuts keep the depth far below the
        // hyperplane count.
        let hs: Vec<Hyperplane> = (0..256)
            .map(|i| line(1.0, -1.0, -1e-4 * i as f64))
            .collect();
        let midpoint = ArenaTree::build(
            &hs[..64],
            unit_box(),
            quad(SplitRule::Midpoint, |c| {
                c.max_capacity = 2;
                c.max_depth = 20;
            }),
        );
        assert!(midpoint.depth() >= 8, "got {}", midpoint.depth());
        let cut = ArenaTree::build(
            &hs,
            unit_box(),
            SplitPolicy::Cutting(CuttingTreeConfig {
                max_capacity: 4,
                max_depth: 40,
                ..CuttingTreeConfig::default()
            }),
        );
        assert!(cut.depth() <= 20, "got {}", cut.depth());
        // Queries remain exact even in the degenerate case.
        let q = BoundingBox::new(vec![0.4, 0.4], vec![0.6, 0.6]);
        assert_eq!(midpoint.query(&hs[..64], &q), brute_force(&hs[..64], &q));
        assert_eq!(cut.query(&hs, &q), brute_force(&hs, &q));
    }

    #[test]
    fn hybrid_split_tames_axis_aligned_clusters() {
        // A tight bundle of near-vertical lines at x ≈ 0.3: the midpoint
        // rule needs to bisect its way down to the 1e-4 spacing before
        // leaves thin out, while the hybrid rule sees all crossings on one
        // axis and cuts straight through the bundle's median every level.
        let hs: Vec<Hyperplane> = (0..64)
            .map(|i| line(1.0, 0.0, -0.3 - 1e-4 * i as f64))
            .collect();
        let build = |split| {
            ArenaTree::build(
                &hs,
                unit_box(),
                quad(split, |c| {
                    c.max_capacity = 2;
                    c.max_depth = 20;
                }),
            )
        };
        let midpoint = build(SplitRule::Midpoint);
        let hybrid = build(SplitRule::Hybrid);
        assert!(
            hybrid.depth() < midpoint.depth(),
            "hybrid depth {} should undercut midpoint depth {}",
            hybrid.depth(),
            midpoint.depth()
        );
        for q in [
            BoundingBox::new(vec![0.29, 0.4], vec![0.31, 0.6]),
            BoundingBox::new(vec![0.0, 0.0], vec![0.01, 0.01]),
            unit_box(),
        ] {
            assert_eq!(hybrid.query(&hs, &q), brute_force(&hs, &q), "box {q:?}");
        }
        // The diagonal worst case stays exact under the hybrid rule too (no
        // axis-aligned rule can separate a diagonal bundle faster, but
        // correctness must not depend on the split geometry).
        let diag: Vec<Hyperplane> = (0..64).map(|i| line(1.0, -1.0, -1e-4 * i as f64)).collect();
        let tree = ArenaTree::build(
            &diag,
            unit_box(),
            quad(SplitRule::Hybrid, |c| {
                c.max_capacity = 2;
                c.max_depth = 20;
            }),
        );
        let q = BoundingBox::new(vec![0.4, 0.4], vec![0.6, 0.6]);
        assert_eq!(tree.query(&diag, &q), brute_force(&diag, &q));
    }

    #[test]
    fn hybrid_census_falls_back_to_midpoint_on_shared_point_bundles() {
        // A pencil of lines through the single interior point (1.6, 1.6):
        // three vertical, three horizontal, two diagonal.  The crossing
        // census measures both per-axis medians at exactly 1.6, so the
        // hybrid quadrant corner lands on the shared point and every child
        // inherits every line — the clustered worst case.  The rule must
        // fall back to the midpoint partition (which sheds the axis-aligned
        // lines immediately) instead of freezing the root into one leaf.
        let mut hs = vec![line(1.0, 0.0, -1.6); 3];
        hs.extend(vec![line(0.0, 1.0, -1.6); 3]);
        hs.push(line(1.0, -1.0, 0.0));
        hs.push(line(1.0, 1.0, -3.2));
        let tree = ArenaTree::build(
            &hs,
            BoundingBox::new(vec![0.0, 0.0], vec![4.0, 4.0]),
            quad(SplitRule::Hybrid, |c| c.max_capacity = 2),
        );
        assert!(
            tree.node_count() > 1,
            "inconclusive census must fall back to midpoint, not freeze the root"
        );
        // Probes stay exact, and a probe away from the pencil point no
        // longer scans the whole slab.
        for q in [
            BoundingBox::new(vec![0.1, 0.1], vec![0.4, 0.4]),
            BoundingBox::new(vec![3.0, 0.1], vec![3.4, 0.5]),
            BoundingBox::new(vec![1.5, 1.5], vec![1.7, 1.7]),
        ] {
            assert_eq!(tree.query(&hs, &q), brute_force(&hs, &q));
        }
    }

    #[test]
    fn median_cuts_balance_at_least_as_well_as_sampled_cuts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        // Clustered diagonals plus random lines and degenerate rows.
        let mut hs: Vec<Hyperplane> = (0..128)
            .map(|i| line(1.0, -1.0, -1e-4 * i as f64))
            .collect();
        hs.extend(random_lines(&mut rng, 64));
        hs.push(Hyperplane::new(vec![0.0, 0.0], 0.0));
        hs.push(Hyperplane::new(vec![0.0, 0.0], 1.0));
        let [.., sampled, median] = policies(4, 40).map(|p| ArenaTree::build(&hs, unit_box(), p));
        // The 256-element strided median can only balance better than the
        // 16-element sampled guess.
        assert!(
            median.depth() <= sampled.depth(),
            "median depth {} vs sampled depth {}",
            median.depth(),
            sampled.depth()
        );
        for _ in 0..30 {
            let x0 = rng.gen_range(0.0..0.9);
            let y0 = rng.gen_range(0.0..0.9);
            let q = BoundingBox::new(
                vec![x0, y0],
                vec![x0 + rng.gen_range(0.01..0.1), y0 + rng.gen_range(0.01..0.1)],
            );
            assert_eq!(median.query(&hs, &q), brute_force(&hs, &q), "box {q:?}");
        }
    }

    #[test]
    fn sampled_cuts_are_deterministic_for_a_seed() {
        let hs: Vec<Hyperplane> = (0..50).map(|i| line(1.0, -0.5, -0.01 * i as f64)).collect();
        let build = |seed| {
            ArenaTree::build(
                &hs,
                unit_box(),
                cutting(CutRule::SampledCrossings, |c| c.seed = seed),
            )
        };
        let (a, b) = (build(0x5eed_cafe), build(0x5eed_cafe));
        assert_eq!(encode(&a), encode(&b));
        let q = BoundingBox::new(vec![0.1, 0.1], vec![0.3, 0.3]);
        assert_eq!(a.query(&hs, &q), b.query(&hs, &q));
    }

    /// `n` random rows in `k` dimensions, drawn as the `arena_digests`
    /// suite draws them.
    fn random_rows(seed: u64, n: usize, k: usize) -> Vec<Hyperplane> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Hyperplane::new(
                    (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    rng.gen_range(-0.5..0.5),
                )
            })
            .collect()
    }

    /// Builds `config` over `hs` in the root `[-1, 1]^k`, serially and on a
    /// 4-thread pool; asserts both encode alike and returns the number of
    /// full arena builds the serial one ran, with its tree.
    fn counted_build(hs: &[Hyperplane], config: QuadtreeConfig) -> (usize, ArenaTree) {
        let k = hs[0].dim();
        let root = BoundingBox::new(vec![-1.0; k], vec![1.0; k]);
        let build = |pool: Option<&ThreadPool>| {
            let slab = HyperplaneSlab::from_hyperplanes(hs);
            ArenaTree::build_from_slab_with(slab, root.clone(), SplitPolicy::Quad(config), pool)
        };
        let (builds, tree) = arena_builds(|| build(None));
        let pool = ThreadPool::with_threads(4);
        let (pooled_builds, pooled) = arena_builds(|| build(Some(&pool)));
        assert!(encode(&tree) == encode(&pooled), "pooled build differs");
        assert_eq!(builds, pooled_builds);
        (builds, tree)
    }

    /// The midpoint arena of `config`, relabelled with `config`'s rule.
    fn midpoint_twin(hs: &[Hyperplane], config: QuadtreeConfig) -> (ArenaTree, ArenaTree) {
        let k = hs[0].dim();
        let root = BoundingBox::new(vec![-1.0; k], vec![1.0; k]);
        let midpoint = QuadtreeConfig {
            split: SplitRule::Midpoint,
            ..config
        };
        let tree = ArenaTree::build(hs, root.clone(), SplitPolicy::Quad(midpoint));
        let mut relabelled = tree.clone();
        relabelled.policy = SplitPolicy::Quad(config);
        (tree, relabelled)
    }

    #[test]
    fn projected_overrun_builds_only_the_midpoint_arena() {
        // 150 random planes in 3-D under a 20,000-entry budget: the root
        // plan projects the census tree past the budget at level 3, so the
        // midpoint tree is the one and only build.
        let hs = random_rows(15, 150, 3);
        let config = QuadtreeConfig {
            max_capacity: 4,
            max_entries: 20_000,
            ..QuadtreeConfig::default()
        };
        let (builds, tree) = counted_build(&hs, config);
        assert_eq!(builds, 1);
        let (midpoint, relabelled) = midpoint_twin(&hs, config);
        assert!(
            encode(&tree) == encode(&relabelled),
            "midpoint arena expected"
        );
        assert!(midpoint.entry_count() >= config.max_entries);
    }

    #[test]
    fn census_at_the_node_ceiling_skips_the_backstop() {
        // Both budgets bind: the census tree overruns 5,000 entries and
        // stops at 201 nodes, the most a midpoint tree can reach under a
        // 200-node budget in 3-D (1 + 25·8), so no midpoint build can win
        // and none is run.
        let hs = random_rows(15, 150, 3);
        let config = QuadtreeConfig {
            max_capacity: 4,
            max_nodes: 200,
            max_entries: 5_000,
            ..QuadtreeConfig::default()
        };
        let (builds, tree) = counted_build(&hs, config);
        assert_eq!(builds, 1);
        assert!(tree.entry_count() >= config.max_entries);
        assert_eq!(tree.node_count(), 201);
        let (midpoint, relabelled) = midpoint_twin(&hs, config);
        assert!(
            encode(&tree) != encode(&relabelled),
            "census arena expected"
        );
        assert!(midpoint.node_count() <= tree.node_count());
    }

    #[test]
    fn backstop_compares_when_the_root_split_alone_exhausts_the_budget() {
        // A vertical bundle: the census cuts the root once along x (3
        // nodes, 64 + 65 entries), the midpoint rule into quadrants (5
        // nodes, 64 + 128 entries).  A 90-entry budget ends both trees
        // right there, which the projection leaves to the backstop: it
        // builds both and keeps the midpoint tree's extra nodes.
        let hs: Vec<Hyperplane> = (0..64)
            .map(|i| line(1.0, 0.0, -0.3 - 1e-4 * i as f64))
            .collect();
        let config = QuadtreeConfig {
            max_capacity: 2,
            max_entries: 90,
            ..QuadtreeConfig::default()
        };
        let (builds, tree) = counted_build(&hs, config);
        assert_eq!(builds, 2);
        let (_, relabelled) = midpoint_twin(&hs, config);
        assert!(
            encode(&tree) == encode(&relabelled),
            "midpoint arena expected"
        );
        assert_eq!(tree.node_count(), 5);
    }

    #[test]
    fn builds_within_budget_and_other_rules_build_once() {
        let hs = random_rows(16, 300, 2);
        for policy in policies(4, 0) {
            let (builds, tree) = arena_builds(|| ArenaTree::build(&hs, square(), policy));
            assert_eq!(builds, 1, "{policy:?}");
            assert!(tree.entry_count() < QuadtreeConfig::default().max_entries);
        }
    }

    #[test]
    fn midpoint_trees_stay_under_the_node_ceiling() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let flat = BoundingBox::new(vec![-1.0, 0.25, -1.0], vec![1.0, 0.25, 1.0]);
        for (k, root) in [
            (2, square()),
            (3, BoundingBox::new(vec![-1.0; 3], vec![1.0; 3])),
            (3, flat.clone()),
        ] {
            let hs = random_rows(rng.gen(), 200, k);
            for _ in 0..12 {
                let config = QuadtreeConfig {
                    max_capacity: rng.gen_range(1..6),
                    max_nodes: rng.gen_range(1..400),
                    split: SplitRule::Midpoint,
                    ..QuadtreeConfig::default()
                };
                let tree = ArenaTree::build(&hs, root.clone(), SplitPolicy::Quad(config));
                let ceiling = midpoint_node_ceiling(&root, &config);
                assert!(
                    tree.node_count() <= ceiling,
                    "{config:?}: {} > {ceiling}",
                    tree.node_count()
                );
            }
        }
        // The first `1 + j·2^k` at or above the budget, for the axes the
        // root spans; the looser `max_nodes − 1 + 2^k` once the deepest
        // cells could round flat.
        let cube = |k| BoundingBox::new(vec![0.0; k], vec![16.0; k]);
        let ceiling = |root: &BoundingBox, max_nodes, max_depth| {
            midpoint_node_ceiling(
                root,
                &QuadtreeConfig {
                    max_nodes,
                    max_depth,
                    ..QuadtreeConfig::default()
                },
            )
        };
        assert_eq!(ceiling(&cube(2), 1 << 15, 16), 32_769);
        assert_eq!(ceiling(&cube(3), 1 << 15, 16), 32_769);
        assert_eq!(ceiling(&cube(3), 200, 16), 201);
        assert_eq!(ceiling(&cube(2), 40, 16), 41);
        assert_eq!(ceiling(&cube(3), 40, 16), 41);
        assert_eq!(ceiling(&cube(3), 42, 16), 49);
        assert_eq!(ceiling(&cube(3), 1, 16), 1);
        assert_eq!(ceiling(&cube(3), 0, 16), 1);
        assert_eq!(ceiling(&flat, 42, 16), 45);
        assert_eq!(ceiling(&cube(2), 42, 200), 45);
    }
}
