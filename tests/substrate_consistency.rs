//! Cross-crate consistency of the substrates: the skyline algorithms agree
//! with each other, the spatial indexes agree with brute force, kNN engines
//! agree, and the geometry primitives compose correctly with the core
//! operator.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_geom::arena::{ArenaTree, SplitPolicy};
use eclipse_geom::cutting::CuttingTreeConfig;
use eclipse_geom::dual::score_difference_hyperplane;
use eclipse_geom::hyperplane::Hyperplane;
use eclipse_geom::point::{BoundingBox, Point};
use eclipse_geom::quadtree::QuadtreeConfig;
use eclipse_geom::rtree::RTree;
use eclipse_skyline::dominance::skyline_naive;
use eclipse_skyline::{skyline_bnl, skyline_dc, skyline_sfs};

fn random_points(n: usize, d: usize, seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All four skyline implementations return identical results.
    #[test]
    fn prop_skyline_algorithms_agree(seed in 0u64..10_000, n in 0usize..250, d in 1usize..6) {
        let pts = random_points(n, d, seed);
        let naive = skyline_naive(&pts);
        prop_assert_eq!(&skyline_bnl(&pts), &naive);
        prop_assert_eq!(&skyline_sfs(&pts), &naive);
        prop_assert_eq!(&skyline_dc(&pts), &naive);
    }

    /// Quadtree and cutting tree report exactly the hyperplanes crossing a box.
    #[test]
    fn prop_intersection_indexes_are_exact(
        seed in 0u64..10_000,
        n in 0usize..150,
        k in 1usize..4,
        qlo in 0.0f64..0.8,
        qsize in 0.01f64..0.3,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let planes: Vec<Hyperplane> = (0..n)
            .map(|_| {
                Hyperplane::new(
                    (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let root = BoundingBox::new(vec![0.0; k], vec![1.0; k]);
        let query = BoundingBox::new(vec![qlo; k], vec![(qlo + qsize).min(1.0); k]);
        let expected: Vec<usize> = (0..planes.len())
            .filter(|&i| planes[i].intersects_box(&query))
            .collect();
        let quad = ArenaTree::build(
            &planes,
            root.clone(),
            SplitPolicy::Quad(QuadtreeConfig::default()),
        );
        let cut = ArenaTree::build(
            &planes,
            root,
            SplitPolicy::Cutting(CuttingTreeConfig::default()),
        );
        prop_assert_eq!(quad.query(&planes, &query), expected.clone());
        prop_assert_eq!(cut.query(&planes, &query), expected);
    }

    /// R-tree range queries and kNN agree with linear scans.
    #[test]
    fn prop_rtree_agrees_with_linear_scan(
        seed in 0u64..10_000,
        n in 0usize..300,
        d in 1usize..5,
        k in 0usize..12,
    ) {
        let pts = random_points(n, d, seed);
        let tree = RTree::bulk_load(&pts);
        let query = Point::new(vec![0.5; d]);
        let got = tree.knn(&pts, &query, k);
        let mut expected: Vec<(usize, f64)> = (0..pts.len())
            .map(|i| (i, pts[i].l2_distance(&query)))
            .collect();
        expected.sort_by(|a, b| a.1.total_cmp(&b.1));
        expected.truncate(k);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert!((g.1 - e.1).abs() < 1e-9);
        }
    }

    /// The score-difference hyperplane evaluates to the actual score difference.
    #[test]
    fn prop_score_difference_hyperplane_is_score_difference(
        seed in 0u64..10_000,
        d in 2usize..6,
        r in proptest::collection::vec(0.01f64..5.0, 1..5),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect());
        let b = Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect());
        let h = score_difference_hyperplane(&a, &b);
        let ratios: Vec<f64> = r.iter().copied().cycle().take(d - 1).collect();
        let expected = eclipse_geom::dual::score(&a, &ratios) - eclipse_geom::dual::score(&b, &ratios);
        prop_assert!((h.eval(&ratios) - expected).abs() < 1e-9);
    }
}

#[test]
fn dual_space_ordering_matches_primal_scores() {
    // For any abscissa x = −r, the order of dual-line values (closeness to the
    // x-axis) matches the order of primal scores — the fact §IV-A relies on.
    let pts = random_points(50, 2, 7);
    let lines: Vec<eclipse_geom::hyperplane::DualLine> = pts
        .iter()
        .map(eclipse_geom::hyperplane::DualLine::from_point)
        .collect();
    for r in [0.25, 0.5, 1.0, 2.0, 4.0] {
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let si = pts[i].weighted_sum(&[r, 1.0]);
                let sj = pts[j].weighted_sum(&[r, 1.0]);
                let vi = lines[i].value_at(-r);
                let vj = lines[j].value_at(-r);
                // Smaller score ⇔ dual value closer to zero (less negative).
                assert_eq!(si < sj, vi > vj, "r = {r}, i = {i}, j = {j}");
            }
        }
    }
}

#[test]
fn hull_membership_consistent_between_lp_and_2d_chain() {
    for seed in [3u64, 5, 8, 13] {
        let pts = random_points(80, 2, seed);
        assert_eq!(
            eclipse_skyline::hull::hull_query_2d(&pts),
            eclipse_skyline::hull::hull_query_lp(&pts),
            "seed {seed}"
        );
    }
}

#[test]
fn skyline_of_nba_and_synthetic_families_is_consistent_across_algorithms() {
    let nba = eclipse_data::nba::nba_dataset(600, 4, 77);
    assert_eq!(skyline_bnl(&nba), skyline_dc(&nba));
    assert_eq!(skyline_sfs(&nba), skyline_dc(&nba));
    for dist in [
        eclipse_data::synthetic::Distribution::Correlated,
        eclipse_data::synthetic::Distribution::AntiCorrelated,
        eclipse_data::synthetic::Distribution::ClusteredWorstCase,
    ] {
        let pts = eclipse_data::synthetic::SyntheticConfig::new(400, 3, dist, 13).generate();
        assert_eq!(skyline_bnl(&pts), skyline_dc(&pts), "{dist:?}");
    }
}
