//! Raw protocol-v2 connections.  The load generator speaks the wire
//! protocol through `eclipse_serve::protocol`'s public codec directly (not
//! the client library), so every reply body can be compared byte for byte.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use eclipse_serve::protocol::{
    read_frame, write_frame, FrameHeader, Request, Response, MAX_FRAME_LEN, MAX_PROTOCOL_VERSION,
    V2_HEADER_LEN,
};
use eclipse_serve::server::ServerConfig;

/// Opens a connection and negotiates protocol v2 with a `Hello`, asking
/// for the server's default per-connection pipeline depth.
fn connect_v2(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let hello = Request::Hello {
        max_version: MAX_PROTOCOL_VERSION,
        pipe_size: ServerConfig::default().max_pipeline,
    };
    write_frame(&mut stream, &hello.encode())?;
    stream.flush()?;
    let payload = read_frame(&mut stream)
        .map_err(|e| io::Error::other(format!("handshake: {e}")))?
        .ok_or_else(|| io::Error::other("connection closed during the handshake"))?;
    match Response::decode(&payload) {
        Ok(Response::HelloAck { version: 2, .. }) => Ok(stream),
        other => Err(io::Error::other(format!("handshake answered {other:?}"))),
    }
}

/// Reader half that survives read timeouts: bytes accumulate until a whole
/// frame is present, so a timeout between (or inside) frames loses nothing.
struct Receiver {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Receiver {
    /// `poll` bounds each blocking read, so the caller regains control at
    /// least that often.
    fn new(stream: TcpStream, poll: Duration) -> io::Result<Receiver> {
        stream.set_read_timeout(Some(poll))?;
        Ok(Receiver {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    /// The next reply as `(request id, body)`; `Ok(None)` when the poll
    /// interval passed without a complete frame.
    fn next(&mut self) -> io::Result<Option<(u64, Vec<u8>)>> {
        loop {
            if let Some(reply) = self.take_frame()? {
                return Ok(Some(reply));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + (1 << 16), 0);
            match self.stream.read(&mut self.buf[len..]) {
                Ok(0) => {
                    self.buf.truncate(len);
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                Ok(n) => self.buf.truncate(len + n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    self.buf.truncate(len);
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => self.buf.truncate(len),
                Err(e) => {
                    self.buf.truncate(len);
                    return Err(e);
                }
            }
        }
    }

    fn take_frame(&mut self) -> io::Result<Option<(u64, Vec<u8>)>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4-byte prefix"));
        if len > MAX_FRAME_LEN || (len as usize) < V2_HEADER_LEN {
            return Err(io::Error::other(format!("bad reply frame length {len}")));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let (header, body) = FrameHeader::split(&avail[4..total])
            .map_err(|e| io::Error::other(format!("reply header: {e}")))?;
        let reply = (header.request_id, body.to_vec());
        self.start += total;
        Ok(Some(reply))
    }
}

/// A blocking request/response connection (load clients and control calls).
pub struct Conn {
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    receiver: Receiver,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = connect_v2(addr)?;
        let receiver = Receiver::new(stream.try_clone()?, Duration::from_millis(200))?;
        Ok(Conn {
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            receiver,
            next_id: 0,
        })
    }

    /// Sends one encoded request body and waits (up to `timeout`) for its
    /// reply body.
    pub fn call_raw(&mut self, body: &[u8], timeout: Duration) -> io::Result<Vec<u8>> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        FrameHeader {
            request_id: id,
            deadline_ms: 0,
        }
        .encode_into(&mut self.frame);
        self.frame.extend_from_slice(body);
        write_frame(&mut self.writer, &self.frame)?;
        self.writer.flush()?;
        let give_up = std::time::Instant::now() + timeout;
        loop {
            match self.receiver.next()? {
                Some((got, reply)) if got == id => return Ok(reply),
                Some((got, _)) => {
                    return Err(io::Error::other(format!(
                        "reply for request {got} while waiting for {id}"
                    )))
                }
                None if std::time::Instant::now() >= give_up => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within the timeout",
                    ))
                }
                None => {}
            }
        }
    }

    /// [`Conn::call_raw`] with encoding and decoding.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> io::Result<Response> {
        let body = self.call_raw(&request.encode(), timeout)?;
        Response::decode(&body).map_err(|e| io::Error::other(format!("reply: {e}")))
    }
}
