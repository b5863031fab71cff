//! Checkpoint (snapshot) serialization.
//!
//! A checkpoint is a whole [`WalState`] covering every record below its
//! `next_seq`, written as a **stream of bounded CRC frames**
//! ([`crate::frame`]), so neither side ever holds the document in one
//! buffer and no frame can pass the reader's [`crate::frame::MAX_PAYLOAD`]:
//!
//! * a header frame, `[version: u8][next_seq: u64]`;
//! * chunk frames, `[FRAME_CHUNK][entry]…`, each closed once it passes the
//!   writer's chunk bound. An entry is a one-byte section tag followed by
//!   one item in [`crate::codec`] conventions (all little-endian). Five
//!   kinds are written: a task record (the owed tasks first, oldest
//!   arrival first — entry order *is* the queue order — then the terminal
//!   ones), a deregistered endpoint, a memo entry, an endpoint record, a
//!   function record. Four more are only read, from checkpoints written
//!   before queues were derived from task state ([`crate::retired`]): a
//!   dispatch-order id, a queue declaration, one item of the queue
//!   declared last, a KV entry;
//! * a trailer frame, `[FRAME_TRAILER][chunks: u64][entries: u64]`.
//!
//! A file that ends before its trailer, fails a CRC, or whose counts
//! disagree is torn: it reads as `None` and recovery falls back to an
//! older checkpoint plus a longer replay. Apart from the owed tasks, entry
//! order is not deterministic (the sections come from `HashMap`s), but
//! duplicate keys cannot occur on write; on read, last-one-wins matches
//! replay order.

use std::io::{self, Read, Write};

use funcx_types::EndpointId;

use crate::codec::{self, Cur};
use crate::frame::{read_frame, seal_frame, HEADER_LEN};
use crate::retired::{self, LegacyQueue};
use crate::state::WalState;

/// Bumped when the checkpoint layout changes; an unknown version reads as
/// `None` and recovery falls back to replaying the full log.
///
/// Version history: 1 = pre-runtime record layouts (discarded; the log,
/// whose old tags remain readable, replays in full); 2 = runtime-aware
/// records in **one** frame, which the frame reader refuses past 64 MiB —
/// still read ([`decode_v2`]), never written; 3 = the same records as a
/// stream of bounded frames.
const SNAPSHOT_VERSION: u8 = 3;

/// The single-frame layout older builds wrote.
const SNAPSHOT_VERSION_SINGLE_FRAME: u8 = 2;

const FRAME_CHUNK: u8 = 1;
const FRAME_TRAILER: u8 = 2;

const ENTRY_TASK: u8 = 1;
const ENTRY_DEREGISTERED: u8 = 5;
const ENTRY_MEMO: u8 = 6;
const ENTRY_ENDPOINT: u8 = 8;
const ENTRY_FUNCTION: u8 = 9;
// Read, never written.
const ENTRY_LEGACY_DISPATCHED: u8 = 2;
const ENTRY_LEGACY_QUEUE: u8 = 3;
const ENTRY_LEGACY_QUEUE_ITEM: u8 = 4;
const ENTRY_LEGACY_KV: u8 = 7;

/// A chunk frame is closed once it holds this many bytes; one entry larger
/// than the bound still travels whole, in a frame of its own.
pub const CHUNK_BYTES: usize = 1 << 20;

/// Called between bounded units of checkpoint work (one chunk written, one
/// chunk or segment read), so a long fold can keep other duties and be
/// abandoned: an `Err` aborts the work and is returned to the caller.
pub type Tick<'a> = &'a mut dyn FnMut() -> io::Result<()>;

/// Streams a checkpoint into `out`, one bounded frame at a time.
struct CheckpointWriter<'t, W: Write> {
    out: W,
    /// The open chunk frame: reserved header, [`FRAME_CHUNK`], entries.
    chunk: Vec<u8>,
    chunk_bound: usize,
    tick: Tick<'t>,
    chunks: u64,
    entries: u64,
    bytes: u64,
}

/// A frame under construction: the reserved header plus its kind byte.
fn open_frame(kind: u8) -> Vec<u8> {
    let mut frame = vec![0u8; HEADER_LEN];
    frame.push(kind);
    frame
}

/// Seal `frame` and write it out; returns its length.
fn write_sealed(out: &mut impl Write, frame: &mut [u8]) -> io::Result<u64> {
    seal_frame(frame)?;
    out.write_all(frame)?;
    Ok(frame.len() as u64)
}

impl<'t, W: Write> CheckpointWriter<'t, W> {
    fn new(mut out: W, next_seq: u64, chunk_bound: usize, tick: Tick<'t>) -> io::Result<Self> {
        let mut header = open_frame(SNAPSHOT_VERSION);
        codec::put_u64(&mut header, next_seq);
        let bytes = write_sealed(&mut out, &mut header)?;
        Ok(CheckpointWriter {
            out,
            chunk: open_frame(FRAME_CHUNK),
            chunk_bound,
            tick,
            chunks: 0,
            entries: 0,
            bytes,
        })
    }

    fn entry(&mut self, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.chunk.push(tag);
        fill(&mut self.chunk);
        self.entries += 1;
        if self.chunk.len() - HEADER_LEN >= self.chunk_bound {
            self.close_chunk()?;
        }
        Ok(())
    }

    fn close_chunk(&mut self) -> io::Result<()> {
        self.bytes += write_sealed(&mut self.out, &mut self.chunk)?;
        self.chunks += 1;
        self.chunk.truncate(HEADER_LEN + 1);
        (self.tick)()
    }

    /// Close the last chunk, write the trailer, flush. Returns the bytes
    /// written.
    fn finish(mut self) -> io::Result<u64> {
        if self.chunk.len() > HEADER_LEN + 1 {
            self.close_chunk()?;
        }
        let mut trailer = open_frame(FRAME_TRAILER);
        codec::put_u64(&mut trailer, self.chunks);
        codec::put_u64(&mut trailer, self.entries);
        self.bytes += write_sealed(&mut self.out, &mut trailer)?;
        self.out.flush()?;
        Ok(self.bytes)
    }
}

/// Stream `state` (covering events `< next_seq`) into `out` as a v3
/// checkpoint in chunks of about `chunk_bound` bytes, calling `tick` after
/// each. Returns the bytes written; `out` is flushed, not synced.
pub fn write_checkpoint(
    out: impl Write,
    state: &WalState,
    next_seq: u64,
    chunk_bound: usize,
    tick: Tick<'_>,
) -> io::Result<u64> {
    let mut w = CheckpointWriter::new(out, next_seq, chunk_bound, tick)?;
    for record in state.tasks_in_order() {
        w.entry(ENTRY_TASK, |o| codec::put_task_record(o, record))?;
    }
    for endpoint_id in &state.deregistered {
        w.entry(ENTRY_DEREGISTERED, |o| codec::put_uuid(o, endpoint_id.uuid()))?;
    }
    for (key, (wire, body)) in &state.memo {
        w.entry(ENTRY_MEMO, |o| {
            codec::put_u64(o, *key);
            o.push(*wire);
            codec::put_bytes(o, body);
        })?;
    }
    for record in state.endpoints.values() {
        w.entry(ENTRY_ENDPOINT, |o| codec::put_endpoint_record(o, record))?;
    }
    for record in state.functions.values() {
        w.entry(ENTRY_FUNCTION, |o| codec::put_function_record(o, record))?;
    }
    w.finish()
}

/// Serialize `state` (covering events `< next_seq`) to the bytes of a
/// `.snap` file.
pub fn encode_snapshot(state: &WalState, next_seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_checkpoint(&mut out, state, next_seq, CHUNK_BYTES, &mut || Ok(()))
        .expect("an in-memory checkpoint fails only on an entry over the frame limit");
    out
}

/// A stream that ends early or fails a check is a torn checkpoint (`None`
/// to the caller); anything else is a real I/O error.
fn torn<T>(error: io::Error) -> io::Result<Option<T>> {
    match error.kind() {
        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData => Ok(None),
        _ => Err(error),
    }
}

/// One piece of a checkpoint handed to [`scan`]'s visitor.
enum Part<'a> {
    /// The entries of one v3 chunk frame.
    Chunk(&'a [u8]),
    /// The sections of a v2 single-frame document (after its `next_seq`).
    SingleFrame(&'a [u8]),
}

/// Walk a checkpoint stream frame by frame: check every CRC, the header,
/// the trailer's chunk count and that nothing follows it, handing each
/// body to `visit` (`None` from it rejects the checkpoint). Returns the
/// header's `next_seq` and the trailer's entry count, or `None` if the
/// stream is torn, corrupt or of an unknown version.
fn scan(
    mut reader: impl Read,
    tick: Tick<'_>,
    mut visit: impl FnMut(Part<'_>) -> Option<()>,
) -> io::Result<Option<(u64, u64)>> {
    let mut payload = Vec::new();
    if let Err(e) = read_frame(&mut reader, &mut payload) {
        return torn(e);
    }
    let mut header = Cur::new(&payload);
    let (Some(version), Some(next_seq)) = (header.u8(), header.u64()) else { return Ok(None) };
    if version == SNAPSHOT_VERSION_SINGLE_FRAME {
        return Ok(visit(Part::SingleFrame(&payload[9..])).map(|()| (next_seq, 0)));
    }
    if version != SNAPSHOT_VERSION || !header.at_end() {
        return Ok(None);
    }
    let mut chunks = 0u64;
    loop {
        if let Err(e) = read_frame(&mut reader, &mut payload) {
            return torn(e);
        }
        match payload.split_first() {
            Some((&FRAME_CHUNK, entries)) => {
                chunks += 1;
                if visit(Part::Chunk(entries)).is_none() {
                    return Ok(None);
                }
                tick()?;
            }
            Some((&FRAME_TRAILER, counts)) => {
                let mut cur = Cur::new(counts);
                let (Some(want_chunks), Some(entries)) = (cur.u64(), cur.u64()) else {
                    return Ok(None);
                };
                let at_eof = reader.read(&mut [0u8])? == 0;
                let whole = cur.at_end() && want_chunks == chunks && at_eof;
                return Ok(whole.then_some((next_seq, entries)));
            }
            _ => return Ok(None),
        }
    }
}

/// Decode the entries of one chunk into `state`. `legacy` carries the
/// queue declared last across chunk boundaries. Returns the entries decoded.
fn decode_chunk(state: &mut WalState, legacy: &mut LegacyQueue, entries: &[u8]) -> Option<u64> {
    let mut cur = Cur::new(entries);
    let mut decoded = 0u64;
    while !cur.at_end() {
        match cur.u8()? {
            ENTRY_TASK => state.insert_task(codec::read_task_record(&mut cur)?),
            ENTRY_DEREGISTERED => {
                state.deregistered.insert(EndpointId(codec::read_uuid(&mut cur)?));
            }
            ENTRY_LEGACY_DISPATCHED => retired::dispatched(&mut cur, state)?,
            ENTRY_LEGACY_QUEUE => legacy.declare(&mut cur)?,
            ENTRY_LEGACY_QUEUE_ITEM => legacy.item(&mut cur, state)?,
            ENTRY_LEGACY_KV => retired::kv(&mut cur)?,
            ENTRY_MEMO => {
                let key = cur.u64()?;
                let wire = cur.u8()?;
                state.memo.insert(key, (wire, cur.bytes()?));
            }
            ENTRY_ENDPOINT => {
                let record = codec::read_endpoint_record(&mut cur)?;
                state.endpoints.insert(record.endpoint_id, record);
            }
            ENTRY_FUNCTION => {
                let record = codec::read_function_record(&mut cur)?;
                state.functions.insert(record.function_id, record);
            }
            _ => return None,
        }
        decoded += 1;
    }
    Some(decoded)
}

/// Read a checkpoint stream (a `.snap` file of either readable version).
/// `Ok(None)` if it is corrupt, torn or of an unknown version — the caller
/// falls back to an older checkpoint or an empty state and replays more
/// log.
pub fn read_checkpoint(reader: impl Read, tick: Tick<'_>) -> io::Result<Option<(WalState, u64)>> {
    let mut state = WalState::new();
    let mut legacy = LegacyQueue::default();
    let mut decoded = 0u64;
    let scanned = scan(reader, tick, |part| match part {
        Part::Chunk(entries) => {
            decoded += decode_chunk(&mut state, &mut legacy, entries)?;
            Some(())
        }
        Part::SingleFrame(sections) => {
            state = decode_v2(sections)?;
            Some(())
        }
    })?;
    Ok(scanned.filter(|&(_, entries)| entries == decoded).map(|(next_seq, _)| (state, next_seq)))
}

/// Check a checkpoint stream without building its state: every frame's
/// CRC, the header and the trailer. Returns its `next_seq` if it is whole.
pub fn verify_checkpoint(reader: impl Read) -> io::Result<Option<u64>> {
    Ok(scan(reader, &mut || Ok(()), |_| Some(()))?.map(|(next_seq, _)| next_seq))
}

/// Parse the bytes of a `.snap` file; `None` as for [`read_checkpoint`].
pub fn decode_snapshot(bytes: &[u8]) -> Option<(WalState, u64)> {
    read_checkpoint(bytes, &mut || Ok(())).expect("reading from memory cannot fail")
}

/// The sections of a version-2 document: each a `u32` count followed by
/// that many entries. Decode-only; nothing writes this layout any more.
fn decode_v2(sections: &[u8]) -> Option<WalState> {
    let mut cur = Cur::new(sections);
    let mut state = WalState::new();
    for _ in 0..cur.count()? {
        state.insert_task(codec::read_task_record(&mut cur)?);
    }
    for _ in 0..cur.count()? {
        retired::dispatched(&mut cur, &mut state)?;
    }
    for _ in 0..cur.count()? {
        let mut queue = LegacyQueue::default();
        queue.declare(&mut cur)?;
        for _ in 0..cur.count()? {
            queue.item(&mut cur, &mut state)?;
        }
    }
    for _ in 0..cur.count()? {
        state.deregistered.insert(EndpointId(codec::read_uuid(&mut cur)?));
    }
    for _ in 0..cur.count()? {
        let key = cur.u64()?;
        let wire = cur.u8()?;
        let body = cur.bytes()?;
        state.memo.insert(key, (wire, body));
    }
    for _ in 0..cur.count()? {
        retired::kv(&mut cur)?;
    }
    for _ in 0..cur.count()? {
        let record = codec::read_endpoint_record(&mut cur)?;
        state.endpoints.insert(record.endpoint_id, record);
    }

    for _ in 0..cur.count()? {
        let record = codec::read_function_record(&mut cur)?;
        state.functions.insert(record.function_id, record);
    }

    if !cur.at_end() {
        return None;
    }
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DurableEvent;
    use crate::fodder::{event, waiting_task};
    use crate::frame::{decode_all, decode_frame, encode_frame};
    use funcx_types::TaskId;

    /// Three groups of the lifecycle stream: owed tasks on two endpoints
    /// (one re-routed), finished ones, a memo entry, a deregistration.
    fn populated_state() -> WalState {
        let mut state = WalState::new();
        for i in 0..24 {
            state.apply(&event(i));
        }
        assert!(state.owed().len() >= 2 && !state.memo.is_empty());
        assert!(!state.deregistered.is_empty());
        state
    }

    #[test]
    fn snapshot_roundtrip_is_lossless() {
        let state = populated_state();
        let bytes = encode_snapshot(&state, 42);
        let (back, next_seq) = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(next_seq, 42);
    }

    #[test]
    fn torn_snapshot_decodes_to_none() {
        let bytes = encode_snapshot(&populated_state(), 7);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(decode_snapshot(&flipped).is_none());
    }

    #[test]
    fn unknown_version_decodes_to_none() {
        let bytes = encode_snapshot(&WalState::new(), 0);
        // Re-frame the same payload with a bumped version byte: the CRC is
        // valid, so only the version check can reject it.
        let (payload, _) = decode_frame(&bytes, 0).unwrap();
        let mut doctored = payload.to_vec();
        doctored[0] = SNAPSHOT_VERSION + 1;
        assert!(decode_snapshot(&encode_frame(&doctored).unwrap()).is_none());
    }

    #[test]
    fn small_chunk_bound_splits_the_stream_and_reads_back() {
        let mut state = populated_state();
        for i in 24..64 {
            state.apply(&event(i));
        }

        let mut bytes = Vec::new();
        let mut ticks = 0u64;
        let written = write_checkpoint(&mut bytes, &state, 99, 64, &mut || {
            ticks += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(written, bytes.len() as u64);
        let (frames, valid) = decode_all(&bytes);
        assert_eq!(valid, bytes.len());
        assert!(frames.len() > 10, "a 64-byte bound must split the stream: {}", frames.len());
        assert_eq!(ticks, frames.len() as u64 - 2, "one tick per chunk frame");
        // The bound is soft by one entry: the largest here is a task record.
        assert!(frames.iter().all(|f| f.len() < 64 + 256));

        assert_eq!(decode_snapshot(&bytes), Some((state.clone(), 99)));
        assert_eq!(verify_checkpoint(&bytes[..]).unwrap(), Some(99));
        // The same state in one chunk reads back equal too.
        assert_eq!(decode_snapshot(&encode_snapshot(&state, 99)), Some((state, 99)));

        // Cut at every frame boundary (a writer that died between frames),
        // or with a frame dropped from the middle: never a partial state.
        let mut boundary = 0;
        for frame in &frames[..frames.len() - 1] {
            boundary += HEADER_LEN + frame.len();
            assert!(decode_snapshot(&bytes[..boundary]).is_none(), "cut at {boundary}");
            assert_eq!(verify_checkpoint(&bytes[..boundary]).unwrap(), None);
        }
        let second = HEADER_LEN + frames[0].len();
        let third = second + HEADER_LEN + frames[1].len();
        let spliced = [&bytes[..second], &bytes[third..]].concat();
        assert!(decode_snapshot(&spliced).is_none(), "a missing chunk must not pass");
        // Bytes after the trailer are not a checkpoint this writer made.
        let padded = [&bytes[..], &[0u8][..]].concat();
        assert!(decode_snapshot(&padded).is_none());
    }

    #[test]
    fn sections_of_an_older_checkpoint_order_the_tasks_and_are_dropped() {
        let task = |id: u128| {
            let DurableEvent::TaskCreated { record } = waiting_task(id, 3, 4) else {
                unreachable!()
            };
            *record
        };
        let mut done = task(4);
        done.state = funcx_types::task::TaskState::Failed;
        let ep = |id: u128| EndpointId::from_u128(id).uuid();

        // What the previous writer produced: tasks in map order, then the
        // dispatch list, the queues, the removed queues, the KV space.
        let mut bytes = Vec::new();
        let mut tick = || Ok(());
        let mut w = CheckpointWriter::new(&mut bytes, 7, CHUNK_BYTES, &mut tick).unwrap();
        for record in [task(3), done.clone(), task(1), task(2)] {
            w.entry(ENTRY_TASK, |o| codec::put_task_record(o, &record)).unwrap();
        }
        w.entry(ENTRY_LEGACY_DISPATCHED, |o| codec::put_uuid(o, TaskId::from_u128(2).uuid()))
            .unwrap();
        let queue = |w: &mut CheckpointWriter<'_, &mut Vec<u8>>, kind: u8, items: &[Vec<u8>]| {
            w.entry(ENTRY_LEGACY_QUEUE, |o| {
                codec::put_uuid(o, ep(3));
                o.push(kind);
            })
            .unwrap();
            for item in items {
                w.entry(ENTRY_LEGACY_QUEUE_ITEM, |o| codec::put_bytes(o, item)).unwrap();
            }
        };
        // A result queue's items name finished tasks: never an order.
        queue(&mut w, 1, &[4u128.to_be_bytes().to_vec(), 1u128.to_be_bytes().to_vec()]);
        queue(&mut w, 0, &[1u128.to_be_bytes().to_vec(), 3u128.to_be_bytes().to_vec()]);
        w.entry(ENTRY_DEREGISTERED, |o| codec::put_uuid(o, ep(9))).unwrap();
        w.entry(ENTRY_LEGACY_KV, |o| {
            codec::put_str(o, "hash");
            codec::put_str(o, "field");
            codec::put_bytes(o, &[9]);
            codec::put_opt(o, Some(&123u64), |o, n| codec::put_u64(o, *n));
        })
        .unwrap();
        w.finish().unwrap();

        let (state, next_seq) = decode_snapshot(&bytes).expect("an older checkpoint reads");
        assert_eq!(next_seq, 7);
        let owed: Vec<TaskId> = state.owed().iter().map(|r| r.spec.task_id).collect();
        assert_eq!(owed, [2, 1, 3].map(TaskId::from_u128), "dispatched first, then the queue");
        assert_eq!(state.tasks[&TaskId::from_u128(4)], done);
        assert!(state.deregistered.contains(&EndpointId::from_u128(9)));

        // Written back, only the current sections remain — and the order.
        let rewritten = encode_snapshot(&state, 7);
        assert!(rewritten.len() < bytes.len());
        assert_eq!(decode_snapshot(&rewritten), Some((state, 7)));
    }

    #[test]
    fn an_entry_over_the_frame_limit_is_an_error_not_a_bad_file() {
        let mut state = WalState::new();
        state.apply(&DurableEvent::MemoInsert {
            key: 1,
            codec: b'N',
            body: vec![0u8; crate::frame::MAX_PAYLOAD],
        });
        let err = write_checkpoint(io::sink(), &state, 1, CHUNK_BYTES, &mut || Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn empty_state_roundtrips() {
        let bytes = encode_snapshot(&WalState::new(), 0);
        let (back, next_seq) = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, WalState::new());
        assert_eq!(next_seq, 0);
    }
}
