//! Recovery, and recovery written back to disk.
//!
//! [`fold`] is the one routine that turns the files of a log directory —
//! the newest decodable checkpoint plus the segments behind it — into a
//! [`WalState`]. [`crate::Wal::open`] calls it to recover,
//! [`crate::Wal::state`] to answer "what would recovery see now", and a
//! checkpoint *is* its result for the sealed segments, handed to
//! [`install`]: so there is no second, resident copy of the state to keep
//! in step with the log, and nothing a checkpoint can contain that
//! recovery would not have rebuilt.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};

use crate::event::DurableEvent;
use crate::frame::decode_all;
use crate::snapshot::{read_checkpoint, write_checkpoint, Tick, CHUNK_BYTES};
use crate::state::WalState;

pub(crate) fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.seg"))
}

pub(crate) fn snapshot_path(dir: &Path, next_seq: u64) -> PathBuf {
    dir.join(format!("snap-{next_seq:020}.snap"))
}

/// Extension of a checkpoint still being written; renamed away on success.
const TMP_EXTENSION: &str = "snap.tmp";

/// Parse `prefix-<num>.<ext>` filenames, returning the number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(ext)?.parse().ok()
}

pub(crate) fn list_numbered(
    dir: &Path,
    prefix: &str,
    ext: &str,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(num) = entry.file_name().to_str().and_then(|n| parse_numbered(n, prefix, ext)) {
            out.push((num, entry.path()));
        }
    }
    out.sort_by_key(|(num, _)| *num);
    Ok(out)
}

/// Delete what a writer that died mid-checkpoint left behind.
pub(crate) fn remove_stale_tmp(dir: &Path) -> io::Result<()> {
    for (_, path) in list_numbered(dir, "snap-", &format!(".{TMP_EXTENSION}"))? {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// A segment holds exactly the records from its own base up to its
/// successor's, so `segments[index]` lies wholly below `seq` — and need not
/// be opened by a reader starting there — when its successor's base does.
pub(crate) fn wholly_below(segments: &[(u64, PathBuf)], index: usize, seq: u64) -> bool {
    segments.get(index + 1).is_some_and(|(next, _)| *next <= seq)
}

/// A segment whose bytes stop decoding before its end.
pub(crate) struct Tear {
    /// Index into [`Folded::segments`].
    pub index: usize,
    /// Length of the prefix of whole frames.
    pub valid_len: u64,
    /// Length of the file.
    pub file_len: u64,
}

/// What [`fold`] found.
#[derive(Default)]
pub(crate) struct Folded {
    /// The checkpoint's state with every surviving record applied.
    pub state: WalState,
    /// One past the last record applied (the checkpoint's `next_seq` when
    /// no record followed it).
    pub next_seq: u64,
    /// `(next_seq, file bytes)` of the checkpoint the fold started from.
    pub checkpoint: Option<(u64, u64)>,
    /// Log records applied on top of the checkpoint (or empty state).
    pub replayed: u64,
    /// Records skipped because they no longer parse (format drift).
    pub skipped: u64,
    /// Whole-frame bytes of the segments the fold read.
    pub log_bytes: u64,
    /// Every segment in the directory, in sequence order.
    pub segments: Vec<(u64, PathBuf)>,
    /// The first segment that does not decode to its end; nothing after
    /// it was read.
    pub tear: Option<Tear>,
}

/// Rebuild the state as of sequence number `upto` (exclusive) from the
/// files in `dir`: the newest decodable checkpoint wins (torn ones are
/// skipped, not fatal), then every record from its `next_seq` up to `upto`
/// is applied in order, stopping at the first frame that does not decode.
/// Reads only; repairing a torn tail is [`crate::Wal::open`]'s business.
/// `tick` runs before each segment and after each checkpoint chunk.
pub(crate) fn fold(dir: &Path, upto: u64, tick: Tick<'_>) -> io::Result<Folded> {
    let mut out = Folded::default();
    for (_, path) in list_numbered(dir, "snap-", ".snap")?.into_iter().rev() {
        let file = File::open(&path)?;
        let file_bytes = file.metadata()?.len();
        if let Some((state, next_seq)) = read_checkpoint(BufReader::new(file), &mut *tick)? {
            out.state = state;
            out.next_seq = next_seq;
            out.checkpoint = Some((next_seq, file_bytes));
            break;
        }
    }
    let replay_from = out.next_seq;

    out.segments = list_numbered(dir, "wal-", ".seg")?;
    for (index, (first_seq, path)) in out.segments.iter().enumerate() {
        if *first_seq >= upto {
            break;
        }
        if wholly_below(&out.segments, index, replay_from) {
            continue; // nothing to replay: not opened
        }
        tick()?;
        let bytes = fs::read(path)?;
        let (frames, valid) = decode_all(&bytes);
        for (i, payload) in frames.iter().enumerate() {
            let seq = first_seq + i as u64;
            if seq < replay_from {
                continue;
            }
            if seq >= upto {
                break;
            }
            match DurableEvent::from_bytes(payload) {
                Some(event) => {
                    out.state.apply_owned(event);
                    out.replayed += 1;
                }
                None => out.skipped += 1,
            }
        }
        out.next_seq = out.next_seq.max((first_seq + frames.len() as u64).min(upto));
        out.log_bytes += valid as u64;
        if valid < bytes.len() {
            out.tear = Some(Tear { index, valid_len: valid as u64, file_len: bytes.len() as u64 });
            break;
        }
    }
    Ok(out)
}

/// Make `state` the checkpoint covering every record below `next_seq`, then
/// compact the log behind it. Returns the checkpoint's size and the log
/// bytes unlinked.
///
/// Order, and what a crash after each step leaves: (1) the stream goes to
/// `snap-<seq>.snap.tmp` and is fsynced — a crash leaves a `.tmp` that
/// recovery ignores and `open` deletes; (2) it is renamed into place and
/// the directory is fsynced — from here the checkpoint is what recovery
/// loads, and everything older is redundant; (3) only then are the
/// superseded segments and checkpoints unlinked, oldest first, so what
/// survives a crash is always a contiguous suffix of the log — recovery
/// skips whatever lies below the checkpoint, the next compaction removes
/// it. Without the directory fsync a power cut could keep the unlinks and
/// lose the rename.
pub(crate) fn install(
    dir: &Path,
    state: &WalState,
    next_seq: u64,
    tick: Tick<'_>,
) -> io::Result<(u64, u64)> {
    let path = snapshot_path(dir, next_seq);
    let tmp = path.with_extension(TMP_EXTENSION);
    let written = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        let bytes = write_checkpoint(&mut out, state, next_seq, CHUNK_BYTES, tick)?;
        out.get_ref().sync_data()?;
        Ok(bytes)
    });
    let checkpoint_bytes = match written {
        Ok(bytes) => bytes,
        Err(error) => {
            let _ = fs::remove_file(&tmp);
            return Err(error);
        }
    };
    fs::rename(&tmp, &path)?;
    File::open(dir)?.sync_all()?;

    let mut log_bytes_removed = 0;
    for (first_seq, path) in list_numbered(dir, "wal-", ".seg")? {
        if first_seq < next_seq {
            log_bytes_removed += fs::metadata(&path)?.len();
            fs::remove_file(path)?;
        }
    }
    for (snap_seq, path) in list_numbered(dir, "snap-", ".snap")? {
        if snap_seq < next_seq {
            fs::remove_file(path)?;
        }
    }
    Ok((checkpoint_bytes, log_bytes_removed))
}
