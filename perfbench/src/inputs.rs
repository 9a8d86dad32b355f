//! Input generation.  The datasets are pinned (INDE from a fixed dataset
//! seed) so every run measures the same index; the `--seed` argument drives
//! everything that varies between runs: the probe boxes, the order and mix
//! of requests, the mutation schedule of the traced run and the dataset
//! choice of the routed workload.  The program under test receives only
//! these generated inputs.

use eclipse_core::{Point, WeightRatioBox};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};

use crate::rng::Rng;

/// Seed of every generated dataset.  At this seed INDE n = 16384, d = 3
/// has a skyline of 29 points (≈ 59 candidate hyperplanes per probe) and
/// INDE n = 32768, d = 4 one of 263 (≈ 7.6k candidates per probe).
pub const DATASET_SEED: u64 = 7;

/// Dataset seeds of the routed workload's six datasets: the first seeds
/// from [`DATASET_SEED`] on whose INDE n = 16384, d = 3 skyline has at most
/// 45 points (29 to 43), so every dataset costs about the same to evict and
/// reload.
const ROUTED_SEEDS: [u64; 6] = [7, 13, 15, 26, 30, 33];

/// The dataset seed of dataset `j` of a workload with `count` datasets.
pub fn dataset_seed(count: usize, j: usize) -> u64 {
    if count == 1 {
        DATASET_SEED
    } else {
        ROUTED_SEEDS[j % ROUTED_SEEDS.len()]
    }
}

/// Salts separating the seeded streams.
pub const SALT_PROBES: u64 = 1;
pub const SALT_PLAN: u64 = 2;
pub const SALT_LAYERS: u64 = 4;

/// INDE points: independent uniform attributes.
pub fn inde(n: usize, d: usize, seed: u64) -> Vec<Point> {
    SyntheticConfig::new(n, d, Distribution::Independent, seed).generate()
}

/// `m` weight-ratio boxes for `d`-dimensional data: each of the `d − 1`
/// ratio ranges starts in `[0.2, 2)` and is `[0.05, 1.5)` wide (the
/// repository's probe distribution).
pub fn probe_boxes(rng: &mut Rng, m: usize, d: usize) -> Vec<WeightRatioBox> {
    (0..m)
        .map(|_| {
            let bounds: Vec<(f64, f64)> = (0..d - 1)
                .map(|_| {
                    let lo = rng.range(0.2, 2.0);
                    (lo, lo + rng.range(0.05, 1.5))
                })
                .collect();
            WeightRatioBox::from_bounds(&bounds).expect("generated bounds are valid")
        })
        .collect()
}

/// The mutation mix repeats every `MIX_CYCLE` writes: one
/// skyline-entering insert, one skyline delete, and dominated inserts
/// alternating with non-skyline deletes in between (45/5/5/45 %).  A
/// skyline-changing write rebuilds the index arena from the maintained
/// skyline, so those stay a small share of the mix.
const MIX_CYCLE: usize = 20;

/// One generated mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    Insert(Vec<f64>),
    Delete(u64),
}

/// `count` mutations against `points`, whose sorted skyline ids are
/// `original_skyline`:
/// * dominated inserts: a uniform point in `[0.3, 1)^d`;
/// * skyline-entering inserts: a copy of a random original skyline member
///   moved slightly towards the origin, so it evicts about that member and
///   the skyline keeps its size over a long schedule;
/// * deletes of original skyline members, and deletes of other original
///   points.
///
/// Delete ids are computed for the dataset as it will be after the earlier
/// mutations of the schedule (deleting shifts later ids down; inserts
/// append).
pub fn mutation_schedule(
    points: &[Point],
    original_skyline: &[usize],
    count: usize,
    rng: &mut Rng,
) -> Vec<Mutation> {
    let n = points.len();
    let d = points[0].dim();
    let mut skyline = original_skyline.to_vec();
    let mut deleted: Vec<usize> = Vec::new(); // original ids, sorted
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let slot = k % MIX_CYCLE;
        let skyline_delete = slot == MIX_CYCLE - 1;
        if slot == MIX_CYCLE / 2 - 1 {
            let member = points[original_skyline[rng.below(original_skyline.len())]].coords();
            out.push(Mutation::Insert(
                member.iter().map(|c| c * rng.range(0.99, 0.999)).collect(),
            ));
        } else if slot.is_multiple_of(2) && !skyline_delete {
            out.push(Mutation::Insert(
                (0..d).map(|_| rng.range(0.3, 1.0)).collect(),
            ));
        } else {
            let original = if skyline_delete && !skyline.is_empty() {
                skyline.remove(rng.below(skyline.len()))
            } else {
                loop {
                    let candidate = rng.below(n);
                    if deleted.binary_search(&candidate).is_err()
                        && skyline.binary_search(&candidate).is_err()
                    {
                        break candidate;
                    }
                }
            };
            let pos = deleted.binary_search(&original).unwrap_or_else(|p| p);
            deleted.insert(pos, original);
            // Current id: the original id minus the originals deleted below it.
            out.push(Mutation::Delete((original - pos) as u64));
        }
    }
    out
}

/// Zipf(1) weights over `k` items, as cumulative probabilities.
pub fn zipf_cdf(k: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=k).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws an index from a cumulative distribution.
pub fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed() {
        let pts = inde(2000, 3, DATASET_SEED);
        let sky = eclipse_core::EclipseEngine::new(pts.clone())
            .expect("engine")
            .skyline();
        let a = mutation_schedule(&pts, &sky, 50, &mut Rng::derive(1, SALT_LAYERS));
        let b = mutation_schedule(&pts, &sky, 50, &mut Rng::derive(1, SALT_LAYERS));
        assert_eq!(a, b);
        let c = mutation_schedule(&pts, &sky, 50, &mut Rng::derive(2, SALT_LAYERS));
        assert_ne!(a, c);
    }

    #[test]
    fn the_schedule_mixes_every_outcome_and_ids_stay_valid() {
        let pts = inde(4000, 3, DATASET_SEED);
        let engine = eclipse_core::EclipseEngine::new(pts.clone()).expect("engine");
        let sky = engine.skyline();
        let schedule = mutation_schedule(&pts, &sky, 200, &mut Rng::derive(9, SALT_LAYERS));
        let skyline_before = sky.len();
        let mut seen = std::collections::BTreeSet::new();
        for m in &schedule {
            let s = match m {
                Mutation::Insert(c) => engine.insert(Point::from_slice(c)),
                Mutation::Delete(id) => engine.delete(*id as usize),
            }
            .expect("every generated mutation applies");
            seen.insert(format!("{:?}", s.outcome));
        }
        assert_eq!(seen.len(), 4, "outcomes seen: {seen:?}");
        // The mix keeps the skyline near its size, so a long run measures
        // the same index throughout.
        let after = engine.skyline().len();
        assert!(
            after * 2 >= skyline_before && after <= skyline_before * 2,
            "skyline went from {skyline_before} to {after} points"
        );
    }

    #[test]
    fn zipf_is_skewed_and_complete() {
        let cdf = zipf_cdf(6);
        assert!((cdf[5] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 0.4 && cdf[0] < 0.41);
        let mut rng = Rng::derive(1, 0);
        let mut hits = [0usize; 6];
        for _ in 0..6000 {
            hits[draw(&cdf, &mut rng)] += 1;
        }
        assert!(hits[0] > hits[5] * 4);
    }
}
