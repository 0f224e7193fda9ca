//! The byte-moving layer under the node runtime: a small [`Transport`] trait
//! and its two implementations.
//!
//! A transport connects `N + 1` endpoints — one per node plus a coordinator —
//! each addressed by index. It moves the codec's length-prefixed frames and
//! promises per-sender-per-peer FIFO order and nothing else, which is exactly
//! the substrate the runtime needs: every lane — one session's packets over
//! one directed link — has a single sending task on a single thread, so
//! per-connection FIFO implies the per-lane FIFO the paper assumes.
//!
//! Frames move in batches. [`Transport::send_to`] takes one or more whole
//! frames and has written them when it returns — it never defers; when to
//! write, and the counting invariants I1–I3 around it, are [`crate::runtime`]'s.
//! The far end hands the bytes on as **blobs**: one or more *whole* frames in
//! arrival order, never a partial one. [`Transport::recv_blob`] returns the
//! next blob (the node workers' receive: one wake-up per read);
//! [`Transport::recv_timeout`] peels the next single frame off it.
//!
//! * [`channel_mesh`] — in-process [`std::sync::mpsc`] channels; the bytes of
//!   one `send_to` are one blob. Reliable, allocation-cheap, and free of
//!   socket nondeterminism: the e2e tests run on it.
//! * [`tcp_mesh`] — real `std::net` loopback sockets, one listener per
//!   endpoint, lazily dialled outbound connections with `TCP_NODELAY`, and a
//!   per-connection reader thread that does one `read` at a time and forwards
//!   every whole frame of that read as one blob. The cluster demo runs on it.

use crate::codec::{LEN_PREFIX, MAX_FRAME_LEN};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes a connection's reader takes off its socket in one `read`.
const READ_BUF: usize = 64 * 1024;

/// One endpoint of a frame-moving mesh.
///
/// `Send` so an endpoint can move onto its node's thread; object-safe so the
/// runtime can hold `Box<dyn Transport>` and stay independent of the wire.
pub trait Transport: Send {
    /// Writes `bytes` — one or more whole frames — to endpoint `peer`. The
    /// bytes are on their way when this returns; nothing is held back.
    fn send_to(&mut self, peer: usize, bytes: &[u8]) -> io::Result<()>;

    /// Receives the next single frame addressed to this endpoint, waiting at
    /// most `timeout`. `Ok(None)` means the wait elapsed (or every peer is
    /// gone) with nothing to deliver.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;

    /// Receives the next blob — one or more whole frames that arrived
    /// together — waiting at most `timeout`; `Ok(None)` as for
    /// [`Transport::recv_timeout`].
    fn recv_blob(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;
}

/// The payload length the prefix at the front of `bytes` claims, once all of
/// the prefix is there.
fn prefix_len(bytes: &[u8]) -> Option<usize> {
    let prefix = bytes.first_chunk::<LEN_PREFIX>()?;
    Some(u32::from_le_bytes(*prefix) as usize)
}

/// Length, prefix included, of the whole frame at the front of `bytes`.
/// `None` when it is incomplete or claims more than [`MAX_FRAME_LEN`]: from
/// there on the bytes cannot be framed.
pub(crate) fn whole_frame(bytes: &[u8]) -> Option<usize> {
    let len = LEN_PREFIX + prefix_len(bytes).filter(|&len| len <= MAX_FRAME_LEN)?;
    (bytes.len() >= len).then_some(len)
}

/// The receiving half both endpoints own: the channel blobs arrive on, and
/// the blob [`Inbox::frame`] is part-way through (`held[at..]` is unread).
struct Inbox {
    rx: Receiver<Vec<u8>>,
    held: Vec<u8>,
    at: usize,
}

impl Inbox {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        let held = Vec::new();
        Inbox { rx, held, at: 0 }
    }

    /// The next blob. A timeout and "every sender gone" both read as nothing:
    /// every peer having exited is not this layer's call, the runtime's own
    /// shutdown protocol decides when to stop.
    fn blob(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        if self.at < self.held.len() {
            return Some(self.held.split_off(self.at));
        }
        self.rx.recv_timeout(timeout).ok()
    }

    fn frame(&mut self, timeout: Duration) -> Option<Vec<u8>> {
        if self.at == self.held.len() {
            self.held = self.blob(timeout)?;
            self.at = 0;
        }
        let rest = &self.held[self.at..];
        // What cannot be framed goes out as it is; the decoder turns it into
        // a typed error.
        let len = whole_frame(rest).unwrap_or(rest.len());
        self.at += len;
        Some(rest[..len].to_vec())
    }
}

/// An endpoint of an in-process channel mesh (see [`channel_mesh`]).
pub struct ChannelEndpoint {
    senders: Vec<Sender<Vec<u8>>>,
    inbox: Inbox,
}

/// Builds a fully connected in-process mesh of `endpoints` endpoints.
pub fn channel_mesh(endpoints: usize) -> Vec<ChannelEndpoint> {
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..endpoints).map(|_| mpsc::channel()).unzip();
    inboxes
        .into_iter()
        .map(|rx| ChannelEndpoint {
            senders: senders.clone(),
            inbox: Inbox::new(rx),
        })
        .collect()
}

impl Transport for ChannelEndpoint {
    fn send_to(&mut self, peer: usize, bytes: &[u8]) -> io::Result<()> {
        self.senders[peer]
            .send(bytes.to_vec())
            .map_err(|_| io::Error::new(ErrorKind::BrokenPipe, "peer endpoint dropped"))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inbox.frame(timeout))
    }

    fn recv_blob(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inbox.blob(timeout))
    }
}

/// An endpoint of a TCP loopback mesh (see [`tcp_mesh`]).
///
/// Inbound: an acceptor thread takes connections on this endpoint's listener
/// and spawns one reader thread per connection; readers cut each read into
/// whole frames and feed a single inbox channel. Outbound: one lazily dialled
/// stream per peer.
pub struct TcpEndpoint {
    peers: Vec<SocketAddr>,
    outbound: Vec<Option<TcpStream>>,
    inbox: Inbox,
    listen_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

/// Builds a fully connected mesh of `endpoints` endpoints over 127.0.0.1
/// sockets with ephemeral ports. Connections are dialled on first send.
pub fn tcp_mesh(endpoints: usize) -> io::Result<Vec<TcpEndpoint>> {
    let listeners: Vec<TcpListener> = (0..endpoints)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<io::Result<_>>()?;
    let mut mesh = Vec::with_capacity(endpoints);
    for (index, listener) in listeners.into_iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("bneck-accept-{index}"))
                .spawn(move || accept_loop(listener, tx, stop))
                .expect("spawn acceptor thread")
        };
        mesh.push(TcpEndpoint {
            peers: peers.clone(),
            outbound: (0..endpoints).map(|_| None).collect(),
            inbox: Inbox::new(rx),
            listen_addr: peers[index],
            stop,
            acceptor: Some(acceptor),
        });
    }
    Ok(mesh)
}

fn accept_loop(listener: TcpListener, tx: Sender<Vec<u8>>, stop: Arc<AtomicBool>) {
    let mut readers = 0usize;
    while let Ok((stream, _)) = listener.accept() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let tx = tx.clone();
        readers += 1;
        // Readers are detached: they exit on EOF when the peer closes its
        // outbound stream, or when the inbox is dropped.
        let _ = std::thread::Builder::new()
            .name(format!("bneck-read-{readers}"))
            .spawn(move || read_loop(stream, tx));
    }
}

/// Reads one connection in bulk and forwards every whole frame of a read
/// (prefixes included) to the endpoint's inbox as one blob; a partial frame
/// at the end waits for the next read. A frame whose prefix exceeds
/// [`MAX_FRAME_LEN`] is forwarded as just its prefix — the decoder turns it
/// into a typed error — and the connection is abandoned, since the stream
/// can no longer be framed.
fn read_loop(mut stream: TcpStream, tx: Sender<Vec<u8>>) {
    let mut buf = vec![0u8; READ_BUF];
    // `buf[..filled]` is unforwarded: always less than one frame, so there is
    // room to read into.
    let mut filled = 0;
    loop {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return, // EOF: the peer is done sending.
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut whole = 0;
        while let Some(len) = whole_frame(&buf[whole..filled]) {
            whole += len;
        }
        if whole > 0 && tx.send(buf[..whole].to_vec()).is_err() {
            return; // The endpoint was dropped; stop reading.
        }
        if prefix_len(&buf[whole..filled]).is_some_and(|len| len > MAX_FRAME_LEN) {
            let _ = tx.send(buf[whole..whole + LEN_PREFIX].to_vec());
            return;
        }
        buf.copy_within(whole..filled, 0);
        filled -= whole;
    }
}

impl Transport for TcpEndpoint {
    fn send_to(&mut self, peer: usize, bytes: &[u8]) -> io::Result<()> {
        if self.outbound[peer].is_none() {
            let stream = TcpStream::connect(self.peers[peer])?;
            // The runtime decides what shares a write; a write then held
            // back behind Nagle would serialize the whole protocol on ack
            // round trips.
            stream.set_nodelay(true)?;
            self.outbound[peer] = Some(stream);
        }
        let stream = self.outbound[peer].as_mut().expect("dialled above");
        match stream.write_all(bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Drop the broken stream so a later send can redial.
                self.outbound[peer] = None;
                Err(e)
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inbox.frame(timeout))
    }

    fn recv_blob(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inbox.blob(timeout))
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        // Close outbound streams first so peers' readers see EOF and exit,
        // then stop the acceptor: flag it and dial the listener once to wake
        // it out of `accept`.
        for stream in &mut self.outbound {
            *stream = None;
        }
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bytes: &[u8]) -> Vec<u8> {
        let mut f = (bytes.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(bytes);
        f
    }

    #[test]
    fn channel_mesh_delivers_in_order() {
        let mut mesh = channel_mesh(3);
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.send_to(1, &frame(b"first")).unwrap();
        a.send_to(1, &frame(b"second")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some(frame(b"first"))
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some(frame(b"second"))
        );
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn tcp_mesh_round_trips_both_directions() {
        let mut mesh = tcp_mesh(2).unwrap();
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.send_to(1, &frame(b"ping")).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(frame(b"ping"))
        );
        b.send_to(0, &frame(b"pong")).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(frame(b"pong"))
        );
    }

    #[test]
    fn tcp_mesh_preserves_per_connection_order() {
        let mut mesh = tcp_mesh(2).unwrap();
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        for i in 0u32..100 {
            a.send_to(1, &frame(&i.to_le_bytes())).unwrap();
        }
        for i in 0u32..100 {
            let got = b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(got, frame(&i.to_le_bytes()), "frame {i} out of order");
        }
    }

    const WAIT: Duration = Duration::from_secs(5);

    /// Endpoints 0 and 1 of a two-endpoint mesh.
    fn pair<T>(mut mesh: Vec<T>) -> (T, T) {
        let b = mesh.remove(1);
        (mesh.remove(0), b)
    }

    /// The probes' contract, on either mesh: every single-frame `send_to`
    /// comes out of `recv_timeout` as exactly one result, byte-equal and in
    /// order, however the far end batched the bytes in between.
    fn one_frame_per_recv_timeout(mut a: impl Transport, mut b: impl Transport) {
        for i in 0u32..1000 {
            a.send_to(1, &frame(&i.to_le_bytes())).unwrap();
        }
        for i in 0u32..1000 {
            let got = b.recv_timeout(WAIT).unwrap();
            assert_eq!(got, Some(frame(&i.to_le_bytes())), "frame {i}");
        }
        assert_eq!(b.recv_timeout(Duration::from_millis(20)).unwrap(), None);
    }

    /// One `send_to` of 50 frames arrives through the batch receive as whole
    /// frames only, 50 in order, across however many blobs.
    fn a_batch_arrives_as_whole_frames(mut a: impl Transport, mut b: impl Transport) {
        let batch: Vec<u8> = (0u32..50)
            .flat_map(|i| frame(&vec![i as u8; 1 + i as usize]))
            .collect();
        a.send_to(1, &batch).unwrap();
        let mut next = 0u32;
        while next < 50 {
            let blob = b.recv_blob(WAIT).unwrap().expect("the rest of the batch");
            let mut rest = blob.as_slice();
            while !rest.is_empty() {
                let len = whole_frame(rest).expect("blobs hold whole frames only");
                assert_eq!(&rest[..len], frame(&vec![next as u8; 1 + next as usize]));
                rest = &rest[len..];
                next += 1;
            }
        }
        assert_eq!(b.recv_blob(Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn both_meshes_keep_the_single_frame_and_the_batch_contract() {
        let (a, b) = pair(channel_mesh(2));
        one_frame_per_recv_timeout(a, b);
        let (a, b) = pair(tcp_mesh(2).unwrap());
        one_frame_per_recv_timeout(a, b);
        let (a, b) = pair(channel_mesh(2));
        a_batch_arrives_as_whole_frames(a, b);
        let (a, b) = pair(tcp_mesh(2).unwrap());
        a_batch_arrives_as_whole_frames(a, b);
    }

    #[test]
    fn a_blob_begun_frame_by_frame_is_finished_by_the_batch_receive() {
        let (mut a, mut b) = pair(channel_mesh(2));
        let batch = [frame(b"one"), frame(b"two"), frame(b"three")].concat();
        a.send_to(1, &batch).unwrap();
        assert_eq!(b.recv_timeout(WAIT).unwrap(), Some(frame(b"one")));
        let rest = [frame(b"two"), frame(b"three")].concat();
        assert_eq!(b.recv_blob(WAIT).unwrap(), Some(rest));
        assert_eq!(b.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }

    #[test]
    fn tcp_reader_reassembles_a_frame_split_across_writes() {
        let mut mesh = tcp_mesh(1).unwrap();
        let mut raw = TcpStream::connect(mesh[0].listen_addr).unwrap();
        raw.set_nodelay(true).unwrap();
        let whole = frame(b"split down the middle");
        raw.write_all(&whole[..7]).unwrap();
        // The first half alone is no frame: nothing may come out yet.
        assert_eq!(mesh[0].recv_blob(Duration::from_millis(20)).unwrap(), None);
        raw.write_all(&whole[7..]).unwrap();
        assert_eq!(mesh[0].recv_blob(WAIT).unwrap(), Some(whole));
        assert_eq!(mesh[0].recv_blob(Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn tcp_reader_forwards_an_oversized_prefix_alone_and_abandons_the_stream() {
        let mut mesh = tcp_mesh(1).unwrap();
        let mut raw = TcpStream::connect(mesh[0].listen_addr).unwrap();
        let oversized = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut bytes = [frame(b"one"), frame(b"two"), oversized.to_vec()].concat();
        bytes.extend_from_slice(&frame(b"never framed"));
        raw.write_all(&bytes).unwrap();
        for expected in [frame(b"one"), frame(b"two"), oversized.to_vec()] {
            assert_eq!(mesh[0].recv_timeout(WAIT).unwrap(), Some(expected));
        }
        assert_eq!(
            mesh[0].recv_timeout(Duration::from_millis(20)).unwrap(),
            None
        );
    }

    #[test]
    fn tcp_endpoints_tear_down_cleanly() {
        let mesh = tcp_mesh(4).unwrap();
        drop(mesh); // Must not hang on acceptor or reader threads.
    }
}
