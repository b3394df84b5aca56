//! The shared wire format of the TCP links.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! ┌───────────────┬───────────────┬──────────────────────────────┐
//! │ len: u32 (LE) │ tag: [u8; 4]  │ payload: len bytes           │
//! └───────────────┴───────────────┴──────────────────────────────┘
//! ```
//!
//! The 8-byte header is exactly [`smartchain_codec::FRAME_BYTES`] — the
//! per-message transport overhead the simulator's NIC model has charged all
//! along — and the payload is the message's canonical
//! [`smartchain_codec::Encode`] bytes, so `wire_size()` and the real socket
//! agree byte-for-byte. `tag` is a truncated HMAC-SHA256 over the payload
//! under a *pairwise link key* derived from the cluster secret and the
//! (sender, receiver) pair: a connected peer cannot spoof frames as another
//! replica without that pair's key.
//!
//! The first frame on every connection is a [`Hello`] naming the dialer; its
//! tag is verified under the key of the *claimed* identity, which is what
//! rejects spoofed session handshakes.

use smartchain_codec::{Decode, Encode};
use smartchain_consensus::ReplicaId;
use smartchain_crypto::hmac::{derive_key, verify_tag, HmacKey};
use std::io::{self, Read, Write};

/// Truncated MAC length carried per frame.
pub const TAG_BYTES: usize = 4;
/// Full frame header: length prefix + tag (= `smartchain_codec::FRAME_BYTES`).
pub const HEADER_BYTES: usize = 4 + TAG_BYTES;
/// Frame size sanity cap. State-transfer replies carry whole batch suffixes,
/// so the cap is generous; anything larger is a protocol violation.
pub const MAX_FRAME: usize = 64 << 20;

const _: () = assert!(HEADER_BYTES == smartchain_codec::FRAME_BYTES);

/// A per-direction link authentication key, held with its HMAC schedule
/// precomputed (two compressions saved on every tag and verify — nearly
/// half the per-frame MAC cost at protocol frame sizes).
#[derive(Clone)]
pub struct FrameKey(HmacKey);

impl std::fmt::Debug for FrameKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FrameKey(..)")
    }
}

impl FrameKey {
    /// The key authenticating frames sent by replica `from` to replica `to`,
    /// derived from the cluster secret. Directional: `link(s, a, b)` and
    /// `link(s, b, a)` differ.
    pub fn link(secret: &[u8; 32], from: ReplicaId, to: ReplicaId) -> FrameKey {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&(from as u64).to_le_bytes());
        material[8..].copy_from_slice(&(to as u64).to_le_bytes());
        FrameKey(HmacKey::new(&derive_key(secret, b"sc-link", &material)))
    }

    /// The fixed, public key used on client connections. Clients do not hold
    /// the cluster secret, so their frames carry an *integrity checksum*
    /// only — client authentication happens where it always has, at the
    /// request-signature layer (the pipeline's verify stage).
    pub fn client() -> FrameKey {
        FrameKey(HmacKey::new(b"smartchain-client-frame-checksum"))
    }

    fn tag(&self, payload: &[u8]) -> [u8; TAG_BYTES] {
        let mac = self.0.tag(payload);
        let mut tag = [0u8; TAG_BYTES];
        tag.copy_from_slice(&mac[..TAG_BYTES]);
        tag
    }

    /// Whether `tag` authenticates `payload` under this key (constant-time
    /// compare). The reactor verifies buffered frames with this instead of
    /// the blocking [`read_frame`].
    pub fn verify(&self, payload: &[u8], tag: &[u8; TAG_BYTES]) -> bool {
        verify_tag(&self.tag(payload), tag)
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, key: &FrameKey, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&key.tag(payload));
    // One write_all per part: the reader reassembles from arbitrary TCP
    // segmentation, so there is no need to coalesce into a single buffer.
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Encodes one frame — header plus `msg`'s canonical bytes — into `buf`,
/// reusing its allocation. `buf` is cleared first; on return it holds
/// exactly the bytes [`write_frame`] would have produced. This is the
/// reactor's hot path: the message encodes *directly* into the staging
/// buffer (no intermediate payload `Vec`), the tag is computed over the
/// staged bytes, and the header is backfilled.
///
/// # Errors
///
/// Rejects encoded payloads over [`MAX_FRAME`]; `buf` is left cleared.
pub fn encode_frame_into(buf: &mut Vec<u8>, key: &FrameKey, msg: &impl Encode) -> io::Result<()> {
    buf.clear();
    buf.resize(HEADER_BYTES, 0);
    msg.encode(buf);
    finish_frame(buf, key)
}

/// Encodes one frame around an already-serialized `payload` (the broadcast
/// path: the payload bytes are shared across peers, but each link's key —
/// and therefore tag — differs). Byte-identical to [`write_frame`].
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`]; `buf` is left cleared.
pub fn encode_frame_payload_into(
    buf: &mut Vec<u8>,
    key: &FrameKey,
    payload: &[u8],
) -> io::Result<()> {
    buf.clear();
    buf.resize(HEADER_BYTES, 0);
    buf.extend_from_slice(payload);
    finish_frame(buf, key)
}

/// The header (length prefix + link tag) for `payload`, without copying the
/// payload anywhere: the encode-once broadcast path tags one shared payload
/// buffer under each per-link key and queues `(header, Arc<[u8]>)` pairs, so
/// only these [`HEADER_BYTES`] differ between peers.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`].
pub fn frame_header(key: &FrameKey, payload: &[u8]) -> io::Result<[u8; HEADER_BYTES]> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&key.tag(payload));
    Ok(header)
}

/// Backfills the header of a staged frame whose payload sits after the
/// reserved [`HEADER_BYTES`] prefix.
fn finish_frame(buf: &mut Vec<u8>, key: &FrameKey) -> io::Result<()> {
    let payload_len = buf.len() - HEADER_BYTES;
    if payload_len > MAX_FRAME {
        buf.clear();
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    let tag = key.tag(&buf[HEADER_BYTES..]);
    buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[4..HEADER_BYTES].copy_from_slice(&tag);
    Ok(())
}

/// Reads one frame without verifying its tag (the handshake path, where the
/// key depends on the claimed identity *inside* the payload). Blocks until
/// the full frame arrived — partial delivery and TCP segmentation are
/// handled by the underlying `read_exact` loops.
///
/// # Errors
///
/// `UnexpectedEof` on a torn connection, `InvalidData` on an oversized
/// length prefix, plus any transport error.
pub fn read_frame_raw(r: &mut impl Read) -> io::Result<([u8; TAG_BYTES], Vec<u8>)> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut tag = [0u8; TAG_BYTES];
    tag.copy_from_slice(&header[4..]);
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((tag, payload))
}

/// Reads one frame and verifies its tag under `key`.
///
/// # Errors
///
/// `InvalidData` when the tag does not verify (spoofed or corrupted frame),
/// plus everything [`read_frame_raw`] returns.
pub fn read_frame(r: &mut impl Read, key: &FrameKey) -> io::Result<Vec<u8>> {
    let (tag, payload) = read_frame_raw(r)?;
    if !verify_tag(&key.tag(&payload), &tag) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame tag mismatch",
        ));
    }
    Ok(payload)
}

/// The first frame on every connection: who is dialing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hello {
    /// A replica's session handshake, MAC'd under the pairwise link key of
    /// the claimed `(from, to)` pair.
    Peer {
        /// The dialing replica.
        from: ReplicaId,
    },
    /// A client connection (integrity-checked only; see
    /// [`FrameKey::client`]).
    Client {
        /// The client's logical id (replies are routed back by it).
        client: u64,
    },
}

const HELLO_PEER: u8 = 1;
const HELLO_CLIENT: u8 = 2;

impl Hello {
    fn encode_payload(&self, me_to: ReplicaId) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        b"sc-hello".as_slice().encode(&mut out);
        match self {
            Hello::Peer { from } => {
                HELLO_PEER.encode(&mut out);
                (*from as u64).encode(&mut out);
                (me_to as u64).encode(&mut out);
            }
            Hello::Client { client } => {
                HELLO_CLIENT.encode(&mut out);
                client.encode(&mut out);
            }
        }
        out
    }
}

/// Sends the session handshake for replica `from` dialing replica `to`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_peer_hello(
    w: &mut impl Write,
    secret: &[u8; 32],
    from: ReplicaId,
    to: ReplicaId,
) -> io::Result<()> {
    let hello = Hello::Peer { from };
    let payload = hello.encode_payload(to);
    write_frame(w, &FrameKey::link(secret, from, to), &payload)
}

/// The session-handshake frame for replica `from` dialing replica `to`, as
/// bytes — the reactor enqueues this on a freshly-connected link instead of
/// blocking in [`write_peer_hello`].
pub fn peer_hello_frame(secret: &[u8; 32], from: ReplicaId, to: ReplicaId) -> Vec<u8> {
    let payload = Hello::Peer { from }.encode_payload(to);
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    encode_frame_payload_into(&mut buf, &FrameKey::link(secret, from, to), &payload)
        .expect("hello payload is tiny");
    buf
}

/// Sends a client handshake.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_client_hello(w: &mut impl Write, client: u64) -> io::Result<()> {
    let hello = Hello::Client { client };
    let payload = hello.encode_payload(0);
    write_frame(w, &FrameKey::client(), &payload)
}

/// Reads and authenticates the handshake frame on an accepted connection.
///
/// A peer hello must (a) address `me`, and (b) carry a tag that verifies
/// under the link key of the pair it *claims* — a dialer without the
/// cluster secret cannot fabricate that, so accepting the claimed id is
/// sound afterwards.
///
/// # Errors
///
/// `InvalidData` for malformed, mis-addressed or spoofed hellos, plus I/O
/// failures.
pub fn read_hello(r: &mut impl Read, secret: &[u8; 32], me: ReplicaId) -> io::Result<Hello> {
    let (tag, payload) = read_frame_raw(r)?;
    decode_hello(&tag, &payload, secret, me)
}

/// Authenticates an already-buffered handshake frame (the reactor reads
/// frames incrementally, so the raw bytes arrive via [`FrameReader`]
/// rather than a blocking read). Same validation as [`read_hello`].
///
/// [`FrameReader`]: super::reactor::FrameReader
///
/// # Errors
///
/// `InvalidData` for malformed, mis-addressed or spoofed hellos.
pub fn decode_hello(
    tag: &[u8; TAG_BYTES],
    payload: &[u8],
    secret: &[u8; 32],
    me: ReplicaId,
) -> io::Result<Hello> {
    let bad = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut input = payload;
    let magic = Vec::<u8>::decode(&mut input).map_err(|_| bad("hello: no magic"))?;
    if magic != b"sc-hello" {
        return Err(bad("hello: wrong magic"));
    }
    match u8::decode(&mut input).map_err(|_| bad("hello: no kind"))? {
        HELLO_PEER => {
            let from = u64::decode(&mut input).map_err(|_| bad("hello: no sender"))? as usize;
            let to = u64::decode(&mut input).map_err(|_| bad("hello: no receiver"))? as usize;
            if to != me {
                return Err(bad("hello: addressed to another replica"));
            }
            let key = FrameKey::link(secret, from, me);
            if !verify_tag(&key.tag(payload), tag) {
                return Err(bad("hello: tag mismatch (spoofed identity?)"));
            }
            Ok(Hello::Peer { from })
        }
        HELLO_CLIENT => {
            let client = u64::decode(&mut input).map_err(|_| bad("hello: no client id"))?;
            if !verify_tag(&FrameKey::client().tag(payload), tag) {
                return Err(bad("hello: client checksum mismatch"));
            }
            Ok(Hello::Client { client })
        }
        _ => Err(bad("hello: unknown kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that returns one byte per call: the cruellest legal TCP
    /// segmentation. Frames must reassemble regardless.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.1 >= self.0.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[self.1];
            self.1 += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_roundtrip() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, &key, b"hello frame").unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 11);
        let got = read_frame(&mut Cursor::new(&buf), &key).unwrap();
        assert_eq!(got, b"hello frame");
    }

    #[test]
    fn frame_survives_byte_at_a_time_delivery() {
        let key = FrameKey::link(&[7u8; 32], 2, 3);
        let mut buf = Vec::new();
        write_frame(&mut buf, &key, &[0xabu8; 300]).unwrap();
        write_frame(&mut buf, &key, b"second").unwrap();
        let mut trickle = Trickle(&buf, 0);
        assert_eq!(read_frame(&mut trickle, &key).unwrap(), vec![0xabu8; 300]);
        assert_eq!(read_frame(&mut trickle, &key).unwrap(), b"second");
    }

    #[test]
    fn torn_frame_reports_eof() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, &key, b"will be torn").unwrap();
        // Cut mid-payload and mid-header.
        for cut in [buf.len() - 5, HEADER_BYTES - 2] {
            let err = read_frame(&mut Cursor::new(&buf[..cut]), &key).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let good = FrameKey::link(&[7u8; 32], 0, 1);
        let bad = FrameKey::link(&[8u8; 32], 0, 1); // different cluster secret
        let other_dir = FrameKey::link(&[7u8; 32], 1, 0); // direction matters
        let mut buf = Vec::new();
        write_frame(&mut buf, &good, b"payload").unwrap();
        for key in [bad, other_dir] {
            let err = read_frame(&mut Cursor::new(&buf), &key).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn corrupted_payload_rejected() {
        let key = FrameKey::link(&[7u8; 32], 0, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, &key, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(&buf), &key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = vec![0u8; HEADER_BYTES];
        buf[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame_raw(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn peer_hello_roundtrip() {
        let secret = [9u8; 32];
        let mut buf = Vec::new();
        write_peer_hello(&mut buf, &secret, 2, 0).unwrap();
        let hello = read_hello(&mut Cursor::new(&buf), &secret, 0).unwrap();
        assert_eq!(hello, Hello::Peer { from: 2 });
    }

    #[test]
    fn spoofed_peer_hello_rejected() {
        // An attacker without the cluster secret claims to be replica 2.
        let mut buf = Vec::new();
        write_peer_hello(&mut buf, &[0xeeu8; 32], 2, 0).unwrap();
        let err = read_hello(&mut Cursor::new(&buf), &[9u8; 32], 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn misaddressed_hello_rejected() {
        let secret = [9u8; 32];
        let mut buf = Vec::new();
        write_peer_hello(&mut buf, &secret, 2, 1).unwrap();
        // Replica 0 receives a hello addressed to replica 1.
        let err = read_hello(&mut Cursor::new(&buf), &secret, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn client_hello_roundtrip() {
        let mut buf = Vec::new();
        write_client_hello(&mut buf, 0xC0FFEE).unwrap();
        let hello = read_hello(&mut Cursor::new(&buf), &[9u8; 32], 3).unwrap();
        assert_eq!(hello, Hello::Client { client: 0xC0FFEE });
    }

    #[test]
    fn encode_into_matches_write_frame_byte_for_byte() {
        let key = FrameKey::link(&[7u8; 32], 1, 2);
        // Representative payload shapes: empty, tiny, multi-kB.
        for payload in [&b""[..], b"x", &[0x5au8; 4096][..]] {
            let mut classic = Vec::new();
            write_frame(&mut classic, &key, payload).unwrap();

            // The Encode-directly path, via a type whose canonical bytes
            // are exactly `payload`.
            struct Raw<'a>(&'a [u8]);
            impl Encode for Raw<'_> {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(self.0);
                }
                fn encoded_len(&self) -> usize {
                    self.0.len()
                }
            }
            let mut staged = vec![0xffu8; 3]; // dirty buffer: must be cleared
            encode_frame_into(&mut staged, &key, &Raw(payload)).unwrap();
            assert_eq!(staged, classic);

            // The pre-serialized-payload path.
            let mut shared = vec![0xffu8; 64];
            encode_frame_payload_into(&mut shared, &key, payload).unwrap();
            assert_eq!(shared, classic);
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_allocation() {
        let key = FrameKey::client();
        let mut buf = Vec::with_capacity(1024);
        encode_frame_payload_into(&mut buf, &key, &[1u8; 512]).unwrap();
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        encode_frame_payload_into(&mut buf, &key, &[2u8; 256]).unwrap();
        assert_eq!(buf.as_ptr(), ptr, "no realloc for a smaller frame");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn frame_header_plus_payload_matches_write_frame() {
        let key = FrameKey::link(&[7u8; 32], 1, 2);
        for payload in [&b""[..], b"shared", &[0x33u8; 2048][..]] {
            let mut classic = Vec::new();
            write_frame(&mut classic, &key, payload).unwrap();
            let header = frame_header(&key, payload).unwrap();
            let mut split = header.to_vec();
            split.extend_from_slice(payload);
            assert_eq!(split, classic, "header+body must be wire-identical");
        }
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(frame_header(&key, &huge).is_err());
    }

    #[test]
    fn hello_frame_bytes_match_write_peer_hello() {
        let secret = [3u8; 32];
        let mut classic = Vec::new();
        write_peer_hello(&mut classic, &secret, 2, 1).unwrap();
        assert_eq!(peer_hello_frame(&secret, 2, 1), classic);
    }

    #[test]
    fn decode_hello_matches_read_hello() {
        let secret = [9u8; 32];
        let mut buf = Vec::new();
        write_peer_hello(&mut buf, &secret, 2, 0).unwrap();
        let (tag, payload) = read_frame_raw(&mut Cursor::new(&buf)).unwrap();
        let hello = decode_hello(&tag, &payload, &secret, 0).unwrap();
        assert_eq!(hello, Hello::Peer { from: 2 });
        // Mis-addressed and spoofed frames still rejected on this path.
        assert!(decode_hello(&tag, &payload, &secret, 1).is_err());
        assert!(decode_hello(&tag, &payload, &[0u8; 32], 0).is_err());
    }

    #[test]
    fn oversized_encode_into_rejected_and_buffer_cleared() {
        let key = FrameKey::client();
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(encode_frame_payload_into(&mut buf, &key, &huge).is_err());
        assert!(buf.is_empty());
    }
}
