//! The correctness gate.  Every reply is compared byte for byte with the
//! encoding of what an in-process reference `EclipseEngine`, fed the same
//! generated inputs, answers: ids for queries, cardinalities for counts.
//! Typed refusals (`Overloaded`, `Timeout`, errors, an unavailable dataset)
//! and missing replies are *failures*, counted against the run; any other
//! difference is a *wrong answer* and fails the whole run.

use eclipse_core::{EclipseEngine, QueryOptions, WeightRatioBox};
use eclipse_serve::protocol::{Request, Response};

/// Why a request did not produce a correct answer in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    Overloaded,
    Timeout,
    ServerError,
    Unavailable,
}

/// The outcome of checking one reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Correct,
    Failed(Failure),
    Wrong(String),
}

/// Classifies a reply body against the expected reply body.
pub fn classify(body: &[u8], expected: &[u8]) -> Verdict {
    if body == expected {
        return Verdict::Correct;
    }
    match Response::decode(body) {
        Ok(Response::Overloaded { .. }) => Verdict::Failed(Failure::Overloaded),
        Ok(Response::Timeout { .. }) => Verdict::Failed(Failure::Timeout),
        Ok(Response::Error(_)) => Verdict::Failed(Failure::ServerError),
        Ok(Response::DatasetUnavailable { .. }) => Verdict::Failed(Failure::Unavailable),
        Ok(got) => Verdict::Wrong(format!(
            "expected {:?}, got {got:?}",
            Response::decode(expected)
        )),
        Err(e) => Verdict::Wrong(format!("undecodable reply: {e}")),
    }
}

/// The wire form of a weight-ratio box.
pub fn wire_box(b: &WeightRatioBox) -> Vec<(f64, f64)> {
    b.ranges().iter().map(|r| (r.lo(), r.hi())).collect()
}

/// The encoded `QueryBatch` / `CountBatch` request over `boxes`.
pub fn read_request(dataset: &str, boxes: &[WeightRatioBox], count: bool) -> Vec<u8> {
    let name = dataset.to_string();
    let boxes = boxes.iter().map(wire_box).collect();
    if count {
        Request::CountBatch { name, boxes }.encode()
    } else {
        Request::QueryBatch { name, boxes }.encode()
    }
}

/// The reference's answers for `boxes`, in input order.
pub fn reference_results(reference: &EclipseEngine, boxes: &[WeightRatioBox]) -> Vec<Vec<usize>> {
    reference
        .eclipse_query_batch(boxes, &QueryOptions::default())
        .expect("generated boxes are valid for the reference engine")
}

/// The reply body a correct server sends for `results`: the ids, or with
/// `count` the cardinalities.
pub fn encode_read(results: &[Vec<usize>], count: bool) -> Vec<u8> {
    if count {
        Response::Counts(results.iter().map(|ids| ids.len() as u64).collect()).encode()
    } else {
        Response::QueryResults(
            results
                .iter()
                .map(|ids| ids.iter().map(|&i| i as u64).collect())
                .collect(),
        )
        .encode()
    }
}

/// The reply body a correct server sends for `boxes` on `reference`.
#[cfg(test)]
fn expected_read(reference: &EclipseEngine, boxes: &[WeightRatioBox], count: bool) -> Vec<u8> {
    encode_read(&reference_results(reference, boxes), count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_core::Point;

    fn points() -> Vec<Point> {
        let mut rng = crate::rng::Rng::derive(3, 0);
        (0..200)
            .map(|_| Point::new(vec![rng.unit(), rng.unit(), rng.unit()]))
            .collect()
    }

    fn probe() -> WeightRatioBox {
        WeightRatioBox::from_bounds(&[(0.5, 1.5), (0.4, 2.0)]).expect("valid box")
    }

    #[test]
    fn the_reference_answer_is_accepted() {
        let engine = EclipseEngine::new(points()).expect("engine");
        let expected = expected_read(&engine, &[probe()], false);
        assert_eq!(classify(&expected.clone(), &expected), Verdict::Correct);
    }

    #[test]
    fn a_deliberately_wrong_reply_is_rejected() {
        let engine = EclipseEngine::new(points()).expect("engine");
        let boxes = [probe()];
        let expected = expected_read(&engine, &boxes, false);
        let Ok(Response::QueryResults(mut rows)) = Response::decode(&expected) else {
            panic!("reference reply is a QueryResults");
        };
        // One extra id: still a well-formed reply, but not the right one.
        rows[0].push(199);
        let wrong = Response::QueryResults(rows).encode();
        assert!(matches!(classify(&wrong, &expected), Verdict::Wrong(_)));
        // A count that is off by one is wrong too.
        let expected = expected_read(&engine, &boxes, true);
        let Ok(Response::Counts(counts)) = Response::decode(&expected) else {
            panic!("reference reply is a Counts");
        };
        let wrong = Response::Counts(vec![counts[0] + 1]).encode();
        assert!(matches!(classify(&wrong, &expected), Verdict::Wrong(_)));
        // Garbage is wrong, not a failure.
        assert!(matches!(
            classify(&[0xff, 1, 2], &expected),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn typed_refusals_are_failures_not_wrong_answers() {
        let engine = EclipseEngine::new(points()).expect("engine");
        let expected = expected_read(&engine, &[probe()], false);
        let overloaded = Response::Overloaded {
            in_flight: 9,
            limit: 8,
        }
        .encode();
        assert_eq!(
            classify(&overloaded, &expected),
            Verdict::Failed(Failure::Overloaded)
        );
        let timeout = Response::Timeout { deadline_ms: 5 }.encode();
        assert_eq!(
            classify(&timeout, &expected),
            Verdict::Failed(Failure::Timeout)
        );
    }
}
