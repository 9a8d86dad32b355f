//! Byte pins for arena builds the committed snapshot fixtures never reach.
//!
//! The golden `.eclsnap` fixtures hold a few dozen hyperplanes, so they never
//! exhaust a node or entry budget, never cross the pooled-planning threshold,
//! never take either path of the Hybrid quadtree's per-build midpoint
//! fallback (the up-front projection and the backstop comparison) and never
//! hit the sampled cutting rule's jittered-midpoint fallback.  This suite
//! builds a small matrix that does, and pins each arena's `encode_into`
//! length and FNV-1a digest.  Any change to construction or to the node
//! codec shows up here as a changed constant.

use eclipse_exec::ThreadPool;
use eclipse_geom::arena::{ArenaTree, SplitPolicy};
use eclipse_geom::cutting::{CutRule, CuttingTreeConfig};
use eclipse_geom::hyperplane::{Hyperplane, HyperplaneSlab};
use eclipse_geom::point::BoundingBox;
use eclipse_geom::quadtree::{QuadtreeConfig, SplitRule};
use rand::{Rng, SeedableRng};

fn quad(split: SplitRule) -> SplitPolicy {
    SplitPolicy::Quad(QuadtreeConfig {
        max_capacity: 4,
        split,
        ..QuadtreeConfig::default()
    })
}

fn cutting(cut: CutRule) -> SplitPolicy {
    SplitPolicy::Cutting(CuttingTreeConfig {
        max_capacity: 4,
        cut,
        ..CuttingTreeConfig::default()
    })
}

/// The four named configurations: QUAD Midpoint/Hybrid, CUTTING
/// SampledCrossings/MedianExtents.
fn all_rules() -> [SplitPolicy; 4] {
    [
        quad(SplitRule::Midpoint),
        quad(SplitRule::Hybrid),
        cutting(CutRule::SampledCrossings),
        cutting(CutRule::MedianExtents),
    ]
}

/// Builds `rule` over `hs` on `pool` and returns the arena's snapshot bytes.
fn encode(rule: SplitPolicy, hs: &[Hyperplane], root: &BoundingBox, pool: &ThreadPool) -> Vec<u8> {
    let slab = HyperplaneSlab::from_hyperplanes(hs);
    let mut bytes = Vec::new();
    ArenaTree::build_from_slab_with(slab, root.clone(), rule, Some(pool)).encode_into(&mut bytes);
    bytes
}

/// `(encoded length, FNV-1a digest)` of an arena.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), eclipse_persist::fnv1a(bytes))
}

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

/// A near-diagonal bundle (the paper's worst case) plus a tight vertical
/// bundle.  Vertical rows have no crossing along `y`, the axis the sampled
/// cutting rule picks on square cells, so that rule falls back to its
/// jittered midpoint.
fn clustered_rows() -> Vec<Hyperplane> {
    let mut hs: Vec<Hyperplane> = (0..160)
        .map(|i| Hyperplane::new(vec![1.0, -1.0], -1e-4 * i as f64))
        .collect();
    hs.extend((0..96).map(|i| Hyperplane::new(vec![1.0, 0.0], -0.3 - 1e-4 * i as f64)));
    hs
}

/// Lines with random slopes through points within 1e-3 of (0.4, 0.4): the
/// Hybrid census puts its medians on that point, so every child keeps most
/// of its parent's entries and the entry budget runs out early.
fn pencil_rows() -> Vec<Hyperplane> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    (0..200)
        .map(|_| {
            let c: Vec<f64> = (0..2).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a: Vec<f64> = (0..2).map(|_| 0.4 + rng.gen_range(-1e-3..1e-3)).collect();
            Hyperplane::new(c.clone(), -(c[0] * a[0] + c[1] * a[1]))
        })
        .collect()
}

fn square(k: usize) -> BoundingBox {
    BoundingBox::new(vec![-1.0; k], vec![1.0; k])
}

/// Asserts each rule's arena over `hs` against its pin, built serially.
fn check(
    name: &str,
    rules: &[SplitPolicy],
    hs: &[Hyperplane],
    root: &BoundingBox,
    pins: &[(usize, u64)],
) {
    let serial = ThreadPool::with_threads(1);
    let got: Vec<(usize, u64)> = rules
        .iter()
        .map(|&rule| pin(&encode(rule, hs, root, &serial)))
        .collect();
    assert_eq!(got, pins, "{name}: arena bytes changed");
}

#[test]
fn small_builds_under_every_rule() {
    check(
        "uniform 2-D",
        &all_rules(),
        &random_rows(11, 300, 2),
        &square(2),
        &[
            (2137209, 10580015350413399799),
            (2181333, 18268293774644292734),
            (4341433, 1326948792158209349),
            (5071321, 7648778716360265380),
        ],
    );
    check(
        "uniform 3-D",
        &all_rules(),
        &random_rows(12, 150, 3),
        &square(3),
        &[
            (3395585, 3002500097426603190),
            (3552501, 14003546507019496418),
            (8071605, 8686624904046992017),
            (8396701, 8228055384268449275),
        ],
    );
}

#[test]
fn clustered_builds_under_every_rule() {
    check(
        "clustered",
        &all_rules(),
        &clustered_rows(),
        &BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]),
        &[
            (4254717, 3078384385599561737),
            (4546097, 915545691460304931),
            (7349, 1174717664236805701),
            (9133, 1464822522751568324),
        ],
    );
}

#[test]
fn node_capped_builds_under_every_rule() {
    let capped: Vec<SplitPolicy> = all_rules()
        .into_iter()
        .map(|rule| match rule {
            SplitPolicy::Quad(cfg) => SplitPolicy::Quad(QuadtreeConfig {
                max_nodes: 40,
                ..cfg
            }),
            SplitPolicy::Cutting(cfg) => SplitPolicy::Cutting(CuttingTreeConfig {
                max_nodes: 40,
                ..cfg
            }),
        })
        .collect();
    check(
        "node-capped",
        &capped,
        &random_rows(13, 400, 2),
        &square(2),
        &[
            (30017, 6832490747925093039),
            (30753, 17535562199968978327),
            (38305, 899392102348291788),
            (38425, 13596125368920573525),
        ],
    );
}

#[test]
fn hybrid_takes_the_midpoint_fallback_under_a_small_entry_budget() {
    let hs = pencil_rows();
    let root = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    let budget = |split| {
        SplitPolicy::Quad(QuadtreeConfig {
            max_capacity: 2,
            max_entries: 2000,
            split,
            ..QuadtreeConfig::default()
        })
    };
    let hybrid = encode(
        budget(SplitRule::Hybrid),
        &hs,
        &root,
        &ThreadPool::with_threads(1),
    );
    assert!(
        hybrid == relabelled_midpoint(budget(SplitRule::Midpoint), &hs, &root),
        "Hybrid build did not take the fallback"
    );
    assert_eq!(pin(&hybrid), (26813, 10808576838804380049));
}

/// The bytes of the Midpoint arena of `midpoint` advertising the Hybrid
/// rule, as the fallback arena does: the two encodings differ only in the
/// split-rule tag, the byte after the four numeric config fields.
fn relabelled_midpoint(midpoint: SplitPolicy, hs: &[Hyperplane], root: &BoundingBox) -> Vec<u8> {
    let mut bytes = encode(midpoint, hs, root, &ThreadPool::with_threads(1));
    assert_eq!(bytes[32], SplitRule::Midpoint.tag());
    bytes[32] = SplitRule::Hybrid.tag();
    bytes
}

/// A QUAD policy with `max_capacity` 4 and the given budgets.
fn budgeted(split: SplitRule, max_nodes: usize, max_entries: usize) -> SplitPolicy {
    SplitPolicy::Quad(QuadtreeConfig {
        max_capacity: 4,
        max_nodes,
        max_entries,
        split,
        ..QuadtreeConfig::default()
    })
}

#[test]
fn hybrid_projected_past_the_entry_budget_builds_the_midpoint_arena() {
    // 150 random planes in 3-D under a 20,000-entry budget: the root plan
    // projects the census tree past the budget, so the midpoint arena is
    // built directly (and is the only arena built).
    let hs = random_rows(15, 150, 3);
    let root = square(3);
    let nodes = QuadtreeConfig::default().max_nodes;
    for threads in [1, 4] {
        let pool = ThreadPool::with_threads(threads);
        let hybrid = encode(
            budgeted(SplitRule::Hybrid, nodes, 20_000),
            &hs,
            &root,
            &pool,
        );
        assert!(
            hybrid == relabelled_midpoint(budgeted(SplitRule::Midpoint, nodes, 20_000), &hs, &root),
            "{threads} threads: Hybrid build did not take the projected fallback"
        );
        assert_eq!(
            pin(&hybrid),
            (604601, 510098406017334204),
            "{threads} threads"
        );
    }
}

#[test]
fn hybrid_keeps_the_census_arena_at_the_midpoint_node_ceiling() {
    // Both budgets bind: the census tree runs past 5,000 entries and stops
    // at 201 nodes, the most a 3-D midpoint tree can reach under a 200-node
    // budget (1 + 25·8).  The midpoint tree could at best tie, so the census
    // arena stays.
    let hs = random_rows(15, 150, 3);
    let root = square(3);
    for threads in [1, 4] {
        let pool = ThreadPool::with_threads(threads);
        let hybrid = encode(budgeted(SplitRule::Hybrid, 200, 5_000), &hs, &root, &pool);
        assert!(
            hybrid != relabelled_midpoint(budgeted(SplitRule::Midpoint, 200, 5_000), &hs, &root),
            "{threads} threads: census arena expected"
        );
        assert_eq!(
            pin(&hybrid),
            (57517, 13797029868634542498),
            "{threads} threads"
        );
    }
}

#[test]
fn serial_and_pooled_builds_over_the_planning_threshold() {
    // 5000 rows put the root level alone over the 4096-entry threshold at
    // which split planning moves onto the pool.
    let hs = random_rows(14, 5000, 2);
    let root = square(2);
    let rules: Vec<SplitPolicy> = all_rules()
        .into_iter()
        .map(|rule| match rule {
            SplitPolicy::Quad(cfg) => SplitPolicy::Quad(QuadtreeConfig {
                max_capacity: 16,
                max_depth: 10,
                ..cfg
            }),
            SplitPolicy::Cutting(cfg) => SplitPolicy::Cutting(CuttingTreeConfig {
                max_capacity: 16,
                max_depth: 14,
                ..cfg
            }),
        })
        .collect();
    let pins = [
        (9134961, 6495065700674807136),
        (9607157, 1974318865460663858),
        (12487421, 6299067140322877305),
        (13930889, 14834567533135796287),
    ];
    check("large serial", &rules, &hs, &root, &pins);
    let pooled = ThreadPool::with_threads(4);
    let got: Vec<(usize, u64)> = rules
        .iter()
        .map(|&rule| pin(&encode(rule, &hs, &root, &pooled)))
        .collect();
    assert_eq!(got, pins, "large pooled: arena bytes changed");
}
