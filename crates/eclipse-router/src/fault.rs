//! Deterministic fault injection: a frame-aware TCP proxy that sits
//! between the router and a backend (or a client and the router) and
//! misbehaves on command.
//!
//! The proxy understands the wire framing (4-byte little-endian length
//! prefix), so faults land on exact frame boundaries — "kill the
//! connection when the 3rd request arrives" or "corrupt the 2nd response"
//! is reproducible to the byte, with no races on TCP segmentation.  Each
//! accepted connection gets its own copy of the [`FaultPlan`] with fresh
//! counters, and the shared [`FaultProxy::set_offline`] toggle simulates a
//! whole member dying and later coming back **on the same address** —
//! which real restarts can't do reliably in tests (`TIME_WAIT`, rebind
//! races).
//!
//! This lives in the library (not `#[cfg(test)]`) so the integration
//! suites and the failover benchmark drive the same machinery.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eclipse_serve::protocol::write_frame;

use crate::router::FrameReader;

/// What one proxied connection does to the traffic passing through it.
/// All counters are 1-based frame ordinals; `None` disables that fault.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Abruptly close both sides when the k-th *request* frame arrives
    /// (the request is never forwarded) — the mid-workload kill.
    pub kill_at_request: Option<u64>,
    /// After k *request* frames have been forwarded, swallow every
    /// response: the backend still executes, the caller sees silence (a
    /// read-timeout test, not a connection-closed test).
    pub black_hole_after: Option<u64>,
    /// Hold every *response* frame for this long before forwarding —
    /// injected latency for deadline and slow-member tests.
    pub delay_ms: u64,
    /// Replace the k-th *response* frame's body with garbage bytes of the
    /// same length (the length prefix stays honest, the payload does not
    /// decode).
    pub garbage_response_at: Option<u64>,
    /// Forward only the first half of the k-th *response* frame, then
    /// close both sides abruptly — the torn-frame mid-reply death.
    pub reset_mid_frame_at: Option<u64>,
}

/// A running fault proxy: listens on an ephemeral local port and forwards
/// every connection to `upstream` under the configured [`FaultPlan`].
pub struct FaultProxy {
    addr: SocketAddr,
    offline: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Spawns the proxy.  `plan` applies to every accepted connection
    /// (each with fresh frame counters).
    ///
    /// # Errors
    /// Propagates socket errors from binding the listener.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let offline = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let offline = Arc::clone(&offline);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, upstream, &plan, &offline, &stop))
        };
        Ok(FaultProxy {
            addr,
            offline,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients (or the router) should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simulates the member behind this proxy dying (`true`) or coming
    /// back (`false`): while offline, existing connections are torn down
    /// and new ones are accepted-and-dropped, all on the same stable
    /// address.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, Ordering::Release);
    }

    /// Stops the proxy and joins its threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &FaultPlan,
    offline: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                if offline.load(Ordering::Acquire) {
                    // A dead member's port answers with an immediate close.
                    drop(client);
                    continue;
                }
                let plan = plan.clone();
                let offline = Arc::clone(offline);
                let stop = Arc::clone(stop);
                conn_threads.push(std::thread::spawn(move || {
                    let _ = proxy_conn(client, upstream, &plan, &offline, &stop);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
        conn_threads.retain(|t| !t.is_finished());
    }
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Forwards one client connection through the plan: requests on this
/// thread, responses on a second.
fn proxy_conn(
    client: TcpStream,
    upstream: SocketAddr,
    plan: &FaultPlan,
    offline: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))?;
    client.set_read_timeout(Some(Duration::from_millis(20)))?;
    server.set_read_timeout(Some(Duration::from_millis(20)))?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;

    let response_thread = {
        let server = server.try_clone()?;
        let client = client.try_clone()?;
        let plan = plan.clone();
        let offline = Arc::clone(offline);
        let stop = Arc::clone(stop);
        std::thread::spawn(move || {
            let _ = forward_responses(server, client, &plan, &offline, &stop);
        })
    };

    let result = forward_requests(&client, &server, plan, offline, stop);
    // Either direction ending ends the connection: closing both sockets
    // unblocks the peer thread's reads.
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = response_thread.join();
    result
}

fn forward_requests(
    client: &TcpStream,
    server: &TcpStream,
    plan: &FaultPlan,
    offline: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut reader = FrameReader::new(client.try_clone()?);
    let mut server_w = server.try_clone()?;
    let mut requests_seen = 0u64;
    loop {
        let frame = match reader.next_frame(&[offline, stop]) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return Ok(()),
        };
        requests_seen += 1;
        if plan.kill_at_request == Some(requests_seen) {
            // Abrupt close with the request unforwarded: the caller's
            // in-flight batch dies mid-air.
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return Ok(());
        }
        write_frame(&mut server_w, &frame)?;
        server_w.flush()?;
    }
}

fn forward_responses(
    server: TcpStream,
    client: TcpStream,
    plan: &FaultPlan,
    offline: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut reader = FrameReader::new(server.try_clone()?);
    let mut client_w = client.try_clone()?;
    let mut responses_seen = 0u64;
    let mut black_holed = false;
    // Requests forwarded are counted on the other thread; the black-hole
    // trigger counts *responses* here.  Each request gets exactly one
    // response, so the k-th response answers one of the first k requests.
    loop {
        let mut frame = match reader.next_frame(&[offline, stop]) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return Ok(()),
        };
        responses_seen += 1;
        if plan.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.delay_ms));
        }
        if let Some(k) = plan.black_hole_after {
            if responses_seen > k {
                black_holed = true;
            }
        }
        if black_holed {
            // Swallow silently; keep draining upstream so it never blocks.
            continue;
        }
        if plan.garbage_response_at == Some(responses_seen) {
            // Keep the honest length prefix; trash the payload with a tag
            // no decoder accepts.
            frame.fill(0x7f);
        }
        if plan.reset_mid_frame_at == Some(responses_seen) {
            let mut wire = Vec::with_capacity(4 + frame.len());
            write_frame(&mut wire, &frame)?;
            let _ = client_w.write_all(&wire[..4 + frame.len() / 2]);
            let _ = client_w.flush();
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return Ok(());
        }
        write_frame(&mut client_w, &frame)?;
        client_w.flush()?;
    }
}
