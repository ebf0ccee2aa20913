//! The binary frame codec: how a [`WireMessage`] crosses a socket.
//!
//! The format follows the [`StoreCheckpoint`](specsync_ps::StoreCheckpoint)
//! codec conventions — versioned, checksummed, bounds-checked, with every
//! field in a fixed order:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SSNF"
//! 4       4     format (u32 LE, currently 2)
//! 8       4     payload length (u32 LE)
//! 12      8     checksum of the payload (u64 LE): word-wise FNV-1a
//! 20      n     payload: tag byte, then the variant's fields
//! ```
//!
//! The checksum is [`fnv1a`], the function the checkpoint codec uses too
//! (defined, with its detection argument, in `specsync_ps`). Format 2
//! introduced it; format 1 hashed byte by byte, and a format-1 frame is
//! refused as [`FrameError::UnsupportedFormat`].
//!
//! Integers are little-endian; floats are raw IEEE-754 bits (bit-exact
//! round-trip, no text formatting); slices and strings are length-prefixed.
//! Decoding demands an exact fit — trailing bytes are as fatal as missing
//! ones — so any single flipped byte in a frame is rejected (magic, format,
//! length and checksum cover the header; the checksum covers the payload).
//!
//! The codec touches each payload byte about once per stage: `encode_frame`
//! writes the payload in place behind a header placeholder and then fills
//! in the length and checksum, and f32 slices convert in one bulk pass each
//! way (a `PullReply` decodes straight into its shared `Arc<[f32]>`).

use std::fmt;
use std::io::{self, Read, Write};

use specsync_ps::PushPayload;
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::wire::{FailoverControl, WireMessage};

/// Frame magic: `SSNF`, SpecSync Net Frame.
pub const MAGIC: [u8; 4] = *b"SSNF";
/// Current frame format version.
pub const FORMAT: u32 = 2;
/// Bytes before the payload: magic, format, length, checksum.
pub const HEADER_LEN: usize = 20;
/// Upper bound on a payload a peer may ask us to buffer (256 MiB — far
/// above any model this repo trains, far below a hostile length field).
pub const PAYLOAD_LIMIT: usize = 256 << 20;
/// Upper bound on a sparse gradient's declared dimension: the dimension
/// of the largest dense gradient a frame can carry (`PAYLOAD_LIMIT` / 4
/// bytes per f32). `dim` sizes decoder-side scratch without contributing
/// bytes to the payload, so the usual remaining-bytes bound on length
/// prefixes cannot cover it.
pub const MAX_SPARSE_DIM: u64 = (PAYLOAD_LIMIT / 4) as u64;

const TAG_PULL: u8 = 0;
const TAG_PULL_REPLY: u8 = 1;
const TAG_PUSH: u8 = 2;
const TAG_PUSH_ACK: u8 = 3;
const TAG_NOTIFY: u8 = 4;
const TAG_CHECK: u8 = 5;
const TAG_ABORT: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_FAILOVER: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_RELAY_PUSH: u8 = 10;

const FC_CRASH: u8 = 0;
const FC_PROMOTE: u8 = 1;
const FC_PROMOTED: u8 = 2;
const FC_RECOVER: u8 = 3;
const FC_ACK: u8 = 4;
const FC_REGISTER: u8 = 5;
const FC_QUERY_PRIMARY: u8 = 6;
const FC_PRIMARY: u8 = 7;
const FC_JOIN_AS_BACKUP: u8 = 8;
const FC_SNAPSHOT_CHUNK: u8 = 9;
const FC_CATCH_UP: u8 = 10;
const FC_BACKUP_READY: u8 = 11;

const PAYLOAD_DENSE: u8 = 0;
const PAYLOAD_SPARSE: u8 = 1;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `SSNF`.
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedFormat {
        /// The version found in the header.
        found: u32,
    },
    /// The buffer ended before the advertised payload did.
    Truncated,
    /// The payload does not hash to the header checksum.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, bad length, bad value).
    Malformed(&'static str),
    /// The header advertises a payload beyond [`PAYLOAD_LIMIT`].
    TooLarge {
        /// The advertised payload length.
        len: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (want SSNF)"),
            FrameError::UnsupportedFormat { found } => {
                write!(
                    f,
                    "unsupported frame format {found} (this build reads {FORMAT})"
                )
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {PAYLOAD_LIMIT}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The frame checksum — the same function the checkpoint codec uses.
pub use specsync_ps::fnv1a;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f32_slice(out: &mut Vec<u8>, vs: &[f32]) {
    put_u64(out, vs.len() as u64);
    let start = out.len();
    out.resize(start + vs.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(vs) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_worker(out: &mut Vec<u8>, w: WorkerId) {
    put_u64(out, w.index() as u64);
}

fn put_push_payload(out: &mut Vec<u8>, payload: &PushPayload) {
    match payload {
        PushPayload::Dense(grad) => {
            out.push(PAYLOAD_DENSE);
            put_f32_slice(out, grad);
        }
        PushPayload::Sparse(grad) => {
            out.push(PAYLOAD_SPARSE);
            put_u64(out, grad.dim() as u64);
            put_u64(out, grad.nnz() as u64);
            out.reserve(grad.nnz() * 12);
            for (index, value) in grad.iter() {
                put_u64(out, index as u64);
                put_f32(out, value);
            }
        }
    }
}

fn put_relay_push(out: &mut Vec<u8>, seq: u64, worker: WorkerId, lr: f32, payload: &PushPayload) {
    out.push(TAG_RELAY_PUSH);
    put_u64(out, seq);
    put_worker(out, worker);
    put_f32(out, lr);
    put_push_payload(out, payload);
}

fn encode_payload(msg: &WireMessage, out: &mut Vec<u8>) {
    match msg {
        WireMessage::Pull { worker } => {
            out.push(TAG_PULL);
            put_worker(out, *worker);
        }
        WireMessage::PullReply { version, params } => {
            out.push(TAG_PULL_REPLY);
            put_u64(out, *version);
            put_f32_slice(out, params);
        }
        WireMessage::Push { worker, payload } => {
            out.push(TAG_PUSH);
            put_worker(out, *worker);
            put_push_payload(out, payload);
        }
        WireMessage::RelayPush {
            seq,
            worker,
            lr,
            payload,
        } => put_relay_push(out, *seq, *worker, *lr, payload),
        WireMessage::PushAck {
            version,
            pushes_by_worker,
        } => {
            out.push(TAG_PUSH_ACK);
            put_u64(out, *version);
            put_u64(out, *pushes_by_worker);
        }
        WireMessage::Notify { worker, pushes } => {
            out.push(TAG_NOTIFY);
            put_worker(out, *worker);
            put_u64(out, *pushes);
        }
        WireMessage::Check { worker } => {
            out.push(TAG_CHECK);
            put_worker(out, *worker);
        }
        WireMessage::Abort { worker } => {
            out.push(TAG_ABORT);
            put_worker(out, *worker);
        }
        WireMessage::Heartbeat { worker } => {
            out.push(TAG_HEARTBEAT);
            put_worker(out, *worker);
        }
        WireMessage::Failover(control) => {
            out.push(TAG_FAILOVER);
            match control {
                FailoverControl::Crash { server } => {
                    out.push(FC_CRASH);
                    put_u64(out, *server);
                }
                FailoverControl::Promote { server } => {
                    out.push(FC_PROMOTE);
                    put_u64(out, *server);
                }
                FailoverControl::Promoted {
                    server,
                    version,
                    replayed,
                } => {
                    out.push(FC_PROMOTED);
                    put_u64(out, *server);
                    put_u64(out, *version);
                    put_u64(out, *replayed);
                }
                FailoverControl::Recover { server } => {
                    out.push(FC_RECOVER);
                    put_u64(out, *server);
                }
                FailoverControl::Ack { server } => {
                    out.push(FC_ACK);
                    put_u64(out, *server);
                }
                FailoverControl::Register {
                    server,
                    backup,
                    addr,
                } => {
                    out.push(FC_REGISTER);
                    put_u64(out, *server);
                    out.push(u8::from(*backup));
                    put_str(out, addr);
                }
                FailoverControl::QueryPrimary => {
                    out.push(FC_QUERY_PRIMARY);
                }
                FailoverControl::Primary { addr, epoch } => {
                    out.push(FC_PRIMARY);
                    put_str(out, addr);
                    put_u64(out, *epoch);
                }
                FailoverControl::JoinAsBackup { server, addr } => {
                    out.push(FC_JOIN_AS_BACKUP);
                    put_u64(out, *server);
                    put_str(out, addr);
                }
                FailoverControl::SnapshotChunk { index, total, data } => {
                    out.push(FC_SNAPSHOT_CHUNK);
                    put_u64(out, *index);
                    put_u64(out, *total);
                    put_bytes(out, data);
                }
                FailoverControl::CatchUp { entries, through } => {
                    out.push(FC_CATCH_UP);
                    put_u64(out, *entries);
                    put_u64(out, *through);
                }
                FailoverControl::BackupReady {
                    server,
                    version,
                    replayed,
                } => {
                    out.push(FC_BACKUP_READY);
                    put_u64(out, *server);
                    put_u64(out, *version);
                    put_u64(out, *replayed);
                }
            }
        }
        WireMessage::Shutdown => {
            out.push(TAG_SHUTDOWN);
        }
    }
}

/// Encodes one message as a complete frame (header + payload).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds [`PAYLOAD_LIMIT`]:
/// every receiver would reject such a frame anyway, and a payload past
/// `u32::MAX` would silently truncate the length field and corrupt the
/// stream, so the sender refuses to put it on the wire at all.
pub fn encode_frame(msg: &WireMessage) -> Result<Vec<u8>, FrameError> {
    encode_with(|out| encode_payload(msg, out))
}

/// Encodes the frame of `WireMessage::RelayPush { seq, worker, lr,
/// payload }` from a borrowed payload — byte-identical to
/// [`encode_frame`] on that message, without first copying the gradient
/// into an owned one.
///
/// # Errors
///
/// [`FrameError::TooLarge`], as for [`encode_frame`].
pub fn encode_relay_push(
    seq: u64,
    worker: WorkerId,
    lr: f32,
    payload: &PushPayload,
) -> Result<Vec<u8>, FrameError> {
    encode_with(|out| put_relay_push(out, seq, worker, lr, payload))
}

/// One buffer per frame: the header with a zeroed length and checksum,
/// the payload written in place behind it, then the two filled in.
fn encode_with(payload: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.resize(HEADER_LEN, 0);
    payload(&mut out);
    let len = out.len() - HEADER_LEN;
    if len > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge { len: len as u64 });
    }
    let checksum = fnv1a(&out[HEADER_LEN..]);
    out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
    out[12..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Bounds-checked sequential reader over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(le_f32(self.take(4)?))
    }

    /// A length prefix, bounds-checked against `per_item` bytes of
    /// remaining buffer so a hostile length cannot force a huge
    /// pre-allocation.
    fn len_prefix(&mut self, per_item: usize) -> Result<usize, FrameError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(per_item as u64).is_none_or(|b| b > remaining) {
            return Err(FrameError::Malformed("length prefix exceeds payload"));
        }
        Ok(n as usize)
    }

    /// A length-prefixed f32 slice, bounds-checked once and converted in
    /// one pass straight into the caller's container (`Vec<f32>` or
    /// `Arc<[f32]>`; both allocate once, at the exact size).
    fn f32_slice<C: FromIterator<f32>>(&mut self) -> Result<C, FrameError> {
        let n = self.len_prefix(4)?;
        // `len_prefix` bounded `n * 4` by the remaining bytes.
        Ok(self.take(n * 4)?.chunks_exact(4).map(le_f32).collect())
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("non-UTF-8 string"))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bad bool")),
        }
    }

    fn worker(&mut self) -> Result<WorkerId, FrameError> {
        let idx = self.u64()?;
        if idx > u32::MAX as u64 {
            return Err(FrameError::Malformed("worker index out of range"));
        }
        Ok(WorkerId::new(idx as usize))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after payload"))
        }
    }
}

fn le_f32(bytes: &[u8]) -> f32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(bytes);
    f32::from_bits(u32::from_le_bytes(b))
}

fn read_push_payload(r: &mut Reader<'_>) -> Result<PushPayload, FrameError> {
    match r.u8()? {
        PAYLOAD_DENSE => Ok(PushPayload::Dense(r.f32_slice()?)),
        PAYLOAD_SPARSE => {
            let dim = r.u64()?;
            // `SparseGrad::reset` allocates per-dimension scratch,
            // so a hostile dim would force a huge allocation even
            // with zero entries on the wire: cap it like a length.
            if dim > MAX_SPARSE_DIM {
                return Err(FrameError::Malformed("sparse dim exceeds limit"));
            }
            let nnz = r.len_prefix(12)?;
            let mut grad = SparseGrad::new();
            grad.reset(dim as usize);
            for _ in 0..nnz {
                let index = r.u64()?;
                let value = r.f32()?;
                if index >= dim {
                    return Err(FrameError::Malformed("sparse index beyond dim"));
                }
                grad.add(index as usize, value);
            }
            grad.finish();
            Ok(PushPayload::Sparse(grad))
        }
        _ => Err(FrameError::Malformed("bad push payload kind")),
    }
}

fn decode_payload(payload: &[u8]) -> Result<WireMessage, FrameError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        TAG_PULL => WireMessage::Pull {
            worker: r.worker()?,
        },
        TAG_PULL_REPLY => {
            let version = r.u64()?;
            let params = r.f32_slice()?;
            WireMessage::PullReply { version, params }
        }
        TAG_PUSH => {
            let worker = r.worker()?;
            let payload = read_push_payload(&mut r)?;
            WireMessage::Push { worker, payload }
        }
        TAG_RELAY_PUSH => {
            let seq = r.u64()?;
            let worker = r.worker()?;
            let lr = r.f32()?;
            let payload = read_push_payload(&mut r)?;
            WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload,
            }
        }
        TAG_PUSH_ACK => WireMessage::PushAck {
            version: r.u64()?,
            pushes_by_worker: r.u64()?,
        },
        TAG_NOTIFY => WireMessage::Notify {
            worker: r.worker()?,
            pushes: r.u64()?,
        },
        TAG_CHECK => WireMessage::Check {
            worker: r.worker()?,
        },
        TAG_ABORT => WireMessage::Abort {
            worker: r.worker()?,
        },
        TAG_HEARTBEAT => WireMessage::Heartbeat {
            worker: r.worker()?,
        },
        TAG_FAILOVER => {
            let control = match r.u8()? {
                FC_CRASH => FailoverControl::Crash { server: r.u64()? },
                FC_PROMOTE => FailoverControl::Promote { server: r.u64()? },
                FC_PROMOTED => FailoverControl::Promoted {
                    server: r.u64()?,
                    version: r.u64()?,
                    replayed: r.u64()?,
                },
                FC_RECOVER => FailoverControl::Recover { server: r.u64()? },
                FC_ACK => FailoverControl::Ack { server: r.u64()? },
                FC_REGISTER => FailoverControl::Register {
                    server: r.u64()?,
                    backup: r.bool()?,
                    addr: r.string()?,
                },
                FC_QUERY_PRIMARY => FailoverControl::QueryPrimary,
                FC_PRIMARY => FailoverControl::Primary {
                    addr: r.string()?,
                    epoch: r.u64()?,
                },
                FC_JOIN_AS_BACKUP => FailoverControl::JoinAsBackup {
                    server: r.u64()?,
                    addr: r.string()?,
                },
                FC_SNAPSHOT_CHUNK => {
                    let index = r.u64()?;
                    let total = r.u64()?;
                    if index >= total {
                        return Err(FrameError::Malformed("snapshot chunk index beyond total"));
                    }
                    FailoverControl::SnapshotChunk {
                        index,
                        total,
                        data: r.bytes()?,
                    }
                }
                FC_CATCH_UP => FailoverControl::CatchUp {
                    entries: r.u64()?,
                    through: r.u64()?,
                },
                FC_BACKUP_READY => FailoverControl::BackupReady {
                    server: r.u64()?,
                    version: r.u64()?,
                    replayed: r.u64()?,
                },
                _ => return Err(FrameError::Malformed("bad failover sub-tag")),
            };
            WireMessage::Failover(control)
        }
        TAG_SHUTDOWN => WireMessage::Shutdown,
        _ => return Err(FrameError::Malformed("bad frame tag")),
    };
    r.finish()?;
    Ok(msg)
}

/// Decodes one complete frame. The buffer must hold exactly one frame —
/// missing bytes report [`FrameError::Truncated`], extra bytes
/// [`FrameError::Malformed`].
pub fn decode_frame(buf: &[u8]) -> Result<WireMessage, FrameError> {
    if buf.len() < HEADER_LEN {
        // A short buffer that cannot even disprove the magic is truncated;
        // one that can is reported as whatever the header says first.
        if buf.len() >= 4 && buf[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        return Err(FrameError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let mut w = [0u8; 4];
    w.copy_from_slice(&buf[4..8]);
    let format = u32::from_le_bytes(w);
    if format != FORMAT {
        return Err(FrameError::UnsupportedFormat { found: format });
    }
    w.copy_from_slice(&buf[8..12]);
    let payload_len = u32::from_le_bytes(w) as usize;
    if payload_len > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge {
            len: payload_len as u64,
        });
    }
    let mut c = [0u8; 8];
    c.copy_from_slice(&buf[12..20]);
    let checksum = u64::from_le_bytes(c);
    let end = HEADER_LEN + payload_len;
    if buf.len() < end {
        return Err(FrameError::Truncated);
    }
    if buf.len() > end {
        return Err(FrameError::Malformed("trailing bytes after frame"));
    }
    let payload = &buf[HEADER_LEN..end];
    if fnv1a(payload) != checksum {
        return Err(FrameError::ChecksumMismatch);
    }
    decode_payload(payload)
}

/// Writes one frame to a stream, returning the bytes written. An
/// unencodable message (payload over [`PAYLOAD_LIMIT`]) surfaces as
/// [`io::ErrorKind::InvalidInput`] with nothing written.
pub fn write_frame(w: &mut dyn Write, msg: &WireMessage) -> io::Result<usize> {
    let bytes = encode_frame(msg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame from a stream, returning the message and the bytes
/// consumed. An EOF before the first header byte reports
/// [`ReadOutcome::Closed`]; any later truncation is an error.
pub fn read_frame(r: &mut dyn Read) -> Result<ReadOutcome, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish a clean close (no bytes at all) from a mid-frame cut.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(FrameReadError::Frame(FrameError::Truncated));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    if header[..4] != MAGIC {
        return Err(FrameReadError::Frame(FrameError::BadMagic));
    }
    let mut w4 = [0u8; 4];
    w4.copy_from_slice(&header[4..8]);
    let format = u32::from_le_bytes(w4);
    if format != FORMAT {
        return Err(FrameReadError::Frame(FrameError::UnsupportedFormat {
            found: format,
        }));
    }
    w4.copy_from_slice(&header[8..12]);
    let payload_len = u32::from_le_bytes(w4) as usize;
    if payload_len > PAYLOAD_LIMIT {
        return Err(FrameReadError::Frame(FrameError::TooLarge {
            len: payload_len as u64,
        }));
    }
    let mut frame = vec![0u8; HEADER_LEN + payload_len];
    frame[..HEADER_LEN].copy_from_slice(&header);
    if let Err(e) = r.read_exact(&mut frame[HEADER_LEN..]) {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            return Err(FrameReadError::Frame(FrameError::Truncated));
        }
        return Err(FrameReadError::Io(e));
    }
    match decode_frame(&frame) {
        Ok(msg) => Ok(ReadOutcome::Frame(msg, frame.len())),
        Err(e) => Err(FrameReadError::Frame(e)),
    }
}

/// Result of reading from a framed stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One complete frame, with the bytes it occupied on the wire.
    Frame(WireMessage, usize),
    /// The peer closed the stream cleanly between frames.
    Closed,
}

/// Why reading a frame from a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The stream itself failed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Frame(FrameError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame read i/o error: {e}"),
            FrameReadError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_frames() -> Vec<WireMessage> {
        let w = WorkerId::new(2);
        let mut sparse = SparseGrad::new();
        sparse.reset(10);
        sparse.add(1, 0.5);
        sparse.add(7, -2.25);
        sparse.finish();
        vec![
            WireMessage::Pull { worker: w },
            WireMessage::PullReply {
                version: 42,
                params: Arc::from(vec![1.0f32, -0.5, 3.25].as_slice()),
            },
            WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![0.25, -1.0]),
            },
            WireMessage::Push {
                worker: w,
                payload: PushPayload::Sparse(sparse),
            },
            WireMessage::PushAck {
                version: 43,
                pushes_by_worker: 7,
            },
            WireMessage::Notify {
                worker: w,
                pushes: 12,
            },
            WireMessage::Check { worker: w },
            WireMessage::Abort { worker: w },
            WireMessage::Heartbeat { worker: w },
            WireMessage::Failover(FailoverControl::Crash { server: 0 }),
            WireMessage::Failover(FailoverControl::Promote { server: 0 }),
            WireMessage::Failover(FailoverControl::Promoted {
                server: 0,
                version: 99,
                replayed: 3,
            }),
            WireMessage::Failover(FailoverControl::Recover { server: 1 }),
            WireMessage::Failover(FailoverControl::Ack { server: 1 }),
            WireMessage::Failover(FailoverControl::Register {
                server: 0,
                backup: true,
                addr: "127.0.0.1:4242".to_string(),
            }),
            WireMessage::Failover(FailoverControl::QueryPrimary),
            WireMessage::Failover(FailoverControl::Primary {
                addr: "127.0.0.1:4243".to_string(),
                epoch: 2,
            }),
            WireMessage::Failover(FailoverControl::JoinAsBackup {
                server: 2,
                addr: "127.0.0.1:4244".to_string(),
            }),
            WireMessage::Failover(FailoverControl::SnapshotChunk {
                index: 1,
                total: 3,
                data: vec![0xde, 0xad, 0xbe, 0xef, 0x00],
            }),
            WireMessage::Failover(FailoverControl::CatchUp {
                entries: 5,
                through: 104,
            }),
            WireMessage::Failover(FailoverControl::BackupReady {
                server: 2,
                version: 104,
                replayed: 5,
            }),
            {
                let mut sparse = SparseGrad::new();
                sparse.reset(6);
                sparse.add(0, 1.5);
                sparse.add(5, -0.75);
                sparse.finish();
                WireMessage::RelayPush {
                    seq: 44,
                    worker: w,
                    lr: 0.05,
                    payload: PushPayload::Sparse(sparse),
                }
            },
            WireMessage::RelayPush {
                seq: 45,
                worker: w,
                lr: 0.05,
                payload: PushPayload::Dense(vec![0.5, -0.25, 0.125]),
            },
            WireMessage::Shutdown,
        ]
    }

    /// A frame around an arbitrary payload, with a valid header.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&FORMAT.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Every byte of one frame, the checksum cross-checked against an
    /// independent implementation of the definition in `specsync_ps`.
    #[test]
    fn fixed_frame_bytes_are_pinned() {
        let bytes = encode_frame(&WireMessage::PullReply {
            version: 7,
            params: Arc::from(vec![1.0f32, -0.0, f32::from_bits(1)].as_slice()),
        })
        .unwrap();
        #[rustfmt::skip]
        let want: [u8; 49] = [
            b'S', b'S', b'N', b'F', 2, 0, 0, 0, 29, 0, 0, 0,
            0x08, 0x69, 0xbf, 0x61, 0xa4, 0x18, 0x7f, 0xad,
            TAG_PULL_REPLY, 7, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x00,
        ];
        assert_eq!(bytes, want);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Payload lengths 0..=96 cross the checksum's 32-byte block and
        // tail boundaries. The checksum is verified before the payload is
        // parsed, so a flipped payload bit is a checksum mismatch whatever
        // the payload holds; a flipped header bit fails the magic, format,
        // length or checksum check.
        for len in 0..=96usize {
            let payload: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(53) ^ 0x9e)
                .collect();
            let frame = raw_frame(&payload);
            for i in 0..frame.len() {
                for bit in 0..8 {
                    let mut corrupt = frame.clone();
                    corrupt[i] ^= 1 << bit;
                    let got = decode_frame(&corrupt);
                    if i >= HEADER_LEN {
                        assert_eq!(
                            got,
                            Err(FrameError::ChecksumMismatch),
                            "payload length {len}, byte {i}, bit {bit}"
                        );
                    } else {
                        assert!(got.is_err(), "payload length {len}, byte {i}, bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn format_one_frame_is_refused_by_version() {
        let mut bytes = encode_frame(&WireMessage::Shutdown).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::UnsupportedFormat { found: 1 })
        );
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)),
            Err(FrameReadError::Frame(FrameError::UnsupportedFormat {
                found: 1
            }))
        ));
    }

    #[test]
    fn relay_push_encodes_identically_from_a_borrowed_payload() {
        for msg in sample_frames() {
            if let WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload,
            } = &msg
            {
                assert_eq!(
                    encode_relay_push(*seq, *worker, *lr, payload).unwrap(),
                    encode_frame(&msg).unwrap()
                );
            }
        }
    }

    #[test]
    fn hostile_snapshot_chunk_index_is_malformed() {
        let msg = WireMessage::Failover(FailoverControl::SnapshotChunk {
            index: 0,
            total: 2,
            data: vec![7; 4],
        });
        let mut bytes = encode_frame(&msg).unwrap();
        // The index field sits after header(20) + tag(1) + sub-tag(1) = 22;
        // forge an index at/above total and fix the checksum so only the
        // semantic check can reject it.
        bytes[22..30].copy_from_slice(&2u64.to_le_bytes());
        let sum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Malformed("snapshot chunk index beyond total"))
        );
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_frames() {
            let bytes = encode_frame(&msg).unwrap();
            let back = decode_frame(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        for msg in sample_frames() {
            let bytes = encode_frame(&msg).unwrap();
            for i in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0x01;
                assert!(
                    decode_frame(&corrupt).is_err(),
                    "flipping byte {i} of {msg:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let bytes = encode_frame(&WireMessage::Notify {
            worker: WorkerId::new(1),
            pushes: 5,
        })
        .unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            decode_frame(&extended),
            Err(FrameError::Malformed("trailing bytes after frame"))
        );
    }

    #[test]
    fn stream_round_trip_and_clean_close() {
        let mut buf = Vec::new();
        let frames = sample_frames();
        for msg in &frames {
            write_frame(&mut buf, msg).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for msg in &frames {
            match read_frame(&mut cursor).unwrap() {
                ReadOutcome::Frame(got, n) => {
                    assert_eq!(&got, msg);
                    assert!(n >= HEADER_LEN);
                }
                ReadOutcome::Closed => panic!("stream closed early"),
            }
        }
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn stream_truncated_mid_frame_errors() {
        let bytes = encode_frame(&WireMessage::PullReply {
            version: 7,
            params: Arc::from(vec![1.0f32; 16].as_slice()),
        })
        .unwrap();
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(bytes[..cut].to_vec());
            assert!(
                matches!(
                    read_frame(&mut cursor),
                    Err(FrameReadError::Frame(FrameError::Truncated))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_is_bounded() {
        let mut bytes = encode_frame(&WireMessage::Shutdown).unwrap();
        // Forge a payload length far beyond the limit.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn sparse_index_beyond_dim_is_malformed() {
        let mut sparse = SparseGrad::new();
        sparse.reset(4);
        sparse.add(3, 1.0);
        sparse.finish();
        let msg = WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Sparse(sparse),
        };
        let mut bytes = encode_frame(&msg).unwrap();
        // The index field sits after header(20) + tag(1) + worker(8) +
        // kind(1) + dim(8) + nnz(8) = 46; overwrite it with dim.
        bytes[46..54].copy_from_slice(&4u64.to_le_bytes());
        // Fix the checksum so only the semantic check can reject it.
        let sum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Malformed("sparse index beyond dim"))
        );
    }

    #[test]
    fn hostile_sparse_dim_is_bounded() {
        let mut sparse = SparseGrad::new();
        sparse.reset(4);
        sparse.add(1, 1.0);
        sparse.finish();
        let msg = WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Sparse(sparse),
        };
        let mut bytes = encode_frame(&msg).unwrap();
        // The dim field sits after header(20) + tag(1) + worker(8) +
        // kind(1) = 30; forge a multi-terabyte dimension on an otherwise
        // tiny frame and fix the checksum, so only the dim bound can
        // reject it before the decoder allocates.
        bytes[30..38].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let sum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Malformed("sparse dim exceeds limit"))
        );
    }

    #[test]
    fn oversized_payload_refuses_to_encode() {
        // One f32 past the largest dense gradient a frame can carry.
        let n = PAYLOAD_LIMIT / 4 + 1;
        let msg = WireMessage::PullReply {
            version: 1,
            params: Arc::from(vec![0.0f32; n].as_slice()),
        };
        assert!(matches!(
            encode_frame(&msg),
            Err(FrameError::TooLarge { .. })
        ));
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the wire");
    }
}
