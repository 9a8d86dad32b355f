//! The load generator: a few blocking clients, each sending its next
//! request only after the previous reply arrived, and timing every request
//! from its own send to its reply.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::wire;

/// How long a client waits for a reply beyond the end of the run.
pub const GRACE: Duration = Duration::from_secs(5);

/// One closed-loop request: which body, when it was sent and answered
/// (nanoseconds from the run's `t0`), and the reply handler's verdict code.
#[derive(Clone, Copy, Debug)]
pub struct ClosedRec {
    pub body: u32,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub checked_ns: u64,
    pub status: u8,
}

/// Runs `clients` blocking clients until `stop` (measured from the
/// returned `t0`); client `c` cycles through `schedule[c]`.  `on_reply`
/// runs on the client's thread after every reply and returns the verdict
/// code stored with the request.  With `monitor = Some((body, every))`,
/// client 0 also sends request `body` (a `Stats`) once per `every` between
/// its own requests; those replies reach `on_reply` but are not recorded.
pub fn closed_loop<F>(
    addr: SocketAddr,
    schedule: &[Vec<u32>],
    bodies: &[Vec<u8>],
    stop: Duration,
    monitor: Option<(u32, Duration)>,
    on_reply: F,
) -> Result<(Instant, Vec<Vec<ClosedRec>>), String>
where
    F: Fn(u32, &[u8]) -> u8 + Sync,
{
    let conns = schedule
        .iter()
        .map(|_| wire::Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    let end = t0 + stop;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(schedule)
            .enumerate()
            .map(|(c, (mut conn, order))| {
                let on_reply = &on_reply;
                let mut monitor = monitor
                    .filter(|_| c == 0)
                    .map(|(body, every)| (body, every, t0));
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    for &body in order.iter().cycle() {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        if let Some((stats, every, next)) = monitor.as_mut() {
                            if now >= *next {
                                let reply = conn
                                    .call_raw(&bodies[*stats as usize], stop + GRACE)
                                    .map_err(|e| format!("monitor request: {e}"))?;
                                on_reply(*stats, &reply);
                                *next += *every;
                            }
                        }
                        // Timed from here, so a monitor call before the
                        // request is not charged to it.
                        let start = Instant::now();
                        let reply = conn
                            .call_raw(&bodies[body as usize], stop + GRACE)
                            .map_err(|e| format!("closed-loop request: {e}"))?;
                        let done = Instant::now();
                        let status = on_reply(body, &reply);
                        let checked = Instant::now();
                        recs.push(ClosedRec {
                            body,
                            status,
                            send_ns: start.duration_since(t0).as_nanos() as u64,
                            recv_ns: done.duration_since(t0).as_nanos() as u64,
                            checked_ns: checked.duration_since(t0).as_nanos() as u64,
                        });
                    }
                    Ok::<_, String>(recs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((t0, results))
}
