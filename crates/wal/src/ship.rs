//! Segment shipping: followers tail a leader's log.
//!
//! The cluster control plane replicates each instance's durable state by
//! *shipping* its WAL — followers read the leader's segment and snapshot
//! files and replay them into a shadow [`WalState`], acknowledging the
//! highest contiguous sequence applied. On partition failover the new
//! leader finishes catch-up from the shipped log and adopts the state,
//! so an acked task is never lost with a dead member.
//!
//! Two halves:
//!
//! * [`SegmentShipper`] — the read side. Points at a log directory (the
//!   shipped copy of a leader's WAL, or the leader's own directory when
//!   the transport is a shared filesystem) and serves [`Shipment`]s from
//!   any sequence number. Reading is tolerant of concurrent appends and
//!   torn tails: a half-written frame simply ends the batch, and the next
//!   poll picks up from the same sequence.
//! * [`Follower`] — the apply/ack side. Replays shipments into a shadow
//!   state and tracks the acked sequence the leader uses to compute
//!   shipping lag (gossiped back in the membership table).

use std::fs::{self, File};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};

use crate::event::DurableEvent;
use crate::frame::decode_all;
use crate::recover::{list_numbered, wholly_below};
use crate::snapshot::{read_checkpoint, verify_checkpoint};
use crate::state::WalState;

/// One batch of shipped log content.
#[derive(Debug, Clone)]
pub enum Shipment {
    /// Nothing newer than the requested sequence is on disk.
    UpToDate,
    /// The log was compacted past the requested sequence: bootstrap from
    /// this whole-state snapshot, then tail from `next_seq`.
    Snapshot {
        /// Materialized state covering every record below `next_seq`.
        state: Box<WalState>,
        /// First sequence NOT covered by the snapshot.
        next_seq: u64,
    },
    /// Decoded log records, each tagged with its sequence number.
    /// Sequences are contiguous except across records that no longer
    /// parse (format drift) — those are counted in `skipped`.
    Events {
        /// `(seq, event)` pairs in sequence order.
        events: Vec<(u64, DurableEvent)>,
        /// Frames in the range that failed to decode and were dropped.
        skipped: u64,
    },
}

/// Read side of WAL shipping: serves [`Shipment`]s from a log directory.
pub struct SegmentShipper {
    dir: PathBuf,
}

impl SegmentShipper {
    /// Ship from the log at `dir`. The directory may be actively appended
    /// to by its owner; reads never block the writer.
    pub fn new(dir: impl Into<PathBuf>) -> SegmentShipper {
        SegmentShipper { dir: dir.into() }
    }

    /// The directory being shipped from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number one past the newest decodable frame on disk — the
    /// leader's shippable tip. Lag for a follower acked at `a` is
    /// `tip - a`. Reads the newest checkpoint's frames (CRCs, header and
    /// trailer; no state is built) and the newest segment only: a sealed
    /// segment reaches exactly to its successor's base.
    pub fn tip(&self) -> io::Result<u64> {
        let mut tip = 0u64;
        for (snap_next, path) in list_numbered(&self.dir, "snap-", ".snap")?.into_iter().rev() {
            if verify_checkpoint(BufReader::new(File::open(&path)?))?.is_some() {
                tip = snap_next;
                break;
            }
        }
        if let Some((first_seq, path)) = list_numbered(&self.dir, "wal-", ".seg")?.last() {
            let bytes = fs::read(path)?;
            tip = tip.max(first_seq + decode_all(&bytes).0.len() as u64);
        }
        Ok(tip)
    }

    /// Everything on disk from `from_seq`, up to `max_events` records.
    ///
    /// If compaction has deleted the segments holding `from_seq`, the
    /// newest decodable snapshot is shipped instead and the follower
    /// restarts its tail at the snapshot's `next_seq`. A torn tail (the
    /// shipping transport or the leader's in-flight append cut a frame)
    /// ends the batch at the last whole record — never an error, never a
    /// partial record.
    pub fn ship_from(&self, from_seq: u64, max_events: usize) -> io::Result<Shipment> {
        let segments = list_numbered(&self.dir, "wal-", ".seg")?;

        // Oldest shippable sequence: the first segment's base (segments
        // are created at the snapshot boundary on compaction).
        let log_start = segments.first().map(|(first, _)| *first);
        let behind_log = match log_start {
            Some(start) => from_seq < start,
            None => true,
        };
        if behind_log {
            // The log cannot serve `from_seq`; bootstrap from the newest
            // decodable snapshot, if it advances the follower.
            for (snap_next, path) in list_numbered(&self.dir, "snap-", ".snap")?.into_iter().rev() {
                if snap_next <= from_seq {
                    break;
                }
                let reader = BufReader::new(File::open(&path)?);
                if let Some((state, next_seq)) = read_checkpoint(reader, &mut || Ok(()))? {
                    return Ok(Shipment::Snapshot { state: Box::new(state), next_seq });
                }
            }
            if segments.is_empty() {
                return Ok(Shipment::UpToDate);
            }
        }

        let mut events = Vec::new();
        let mut skipped = 0u64;
        for (index, (first_seq, path)) in segments.iter().enumerate() {
            if events.len() >= max_events {
                break;
            }
            // Tailing a long log reads its newest segment, not its history.
            if wholly_below(&segments, index, from_seq) {
                continue;
            }
            let bytes = fs::read(path)?;
            let (frames, valid) = decode_all(&bytes);
            for (i, payload) in frames.iter().enumerate() {
                let seq = first_seq + i as u64;
                if seq < from_seq {
                    continue;
                }
                if events.len() >= max_events {
                    break;
                }
                match DurableEvent::from_bytes(payload) {
                    Some(event) => events.push((seq, event)),
                    None => skipped += 1,
                }
            }
            if valid < bytes.len() {
                break; // torn tail: stop; the next poll retries from here
            }
        }
        if events.is_empty() && skipped == 0 {
            return Ok(Shipment::UpToDate);
        }
        Ok(Shipment::Events { events, skipped })
    }
}

/// Apply/ack side of WAL shipping: a shadow replica of a leader's state.
#[derive(Debug, Clone)]
pub struct Follower {
    state: WalState,
    acked: u64,
    /// Records applied over this follower's lifetime.
    pub applied: u64,
    /// Snapshot bootstraps taken.
    pub snapshots_loaded: u64,
    /// Shipped frames dropped because they no longer parse.
    pub skipped: u64,
}

impl Default for Follower {
    fn default() -> Self {
        Self::new()
    }
}

impl Follower {
    /// A fresh follower: empty state, acked at 0.
    pub fn new() -> Follower {
        Follower { state: WalState::new(), acked: 0, applied: 0, snapshots_loaded: 0, skipped: 0 }
    }

    /// Highest sequence applied + 1 — what the follower acks back to the
    /// leader (the leader's lag view is `tip - acked`).
    pub fn acked_seq(&self) -> u64 {
        self.acked
    }

    /// The replicated state.
    pub fn state(&self) -> &WalState {
        &self.state
    }

    /// Consume the replicated state (failover adoption).
    pub fn into_state(self) -> WalState {
        self.state
    }

    /// Apply one shipment; returns the number of records applied.
    /// Re-shipped prefixes are idempotent: records below the acked
    /// sequence are ignored.
    pub fn apply(&mut self, shipment: &Shipment) -> u64 {
        match shipment {
            Shipment::UpToDate => 0,
            Shipment::Snapshot { state, next_seq } => {
                if *next_seq <= self.acked {
                    return 0;
                }
                self.state = (**state).clone();
                self.acked = *next_seq;
                self.snapshots_loaded += 1;
                0
            }
            Shipment::Events { events, skipped } => {
                let mut applied = 0u64;
                for (seq, event) in events {
                    if *seq < self.acked {
                        continue;
                    }
                    self.state.apply(event);
                    self.acked = seq + 1;
                    applied += 1;
                }
                self.applied += applied;
                self.skipped += skipped;
                applied
            }
        }
    }

    /// Pull from `shipper` until up to date; returns records applied.
    pub fn catch_up(&mut self, shipper: &SegmentShipper, batch: usize) -> io::Result<u64> {
        let mut total = 0u64;
        loop {
            let shipment = shipper.ship_from(self.acked, batch.max(1))?;
            if matches!(shipment, Shipment::UpToDate) {
                return Ok(total);
            }
            let before = self.acked;
            total += self.apply(&shipment);
            if self.acked == before {
                // No forward progress (e.g. a skipped-only batch would
                // loop): bail rather than spin.
                return Ok(total);
            }
        }
    }

    /// Records this follower is behind a leader whose shippable tip is
    /// `leader_tip`.
    pub fn lag(&self, leader_tip: u64) -> u64 {
        leader_tip.saturating_sub(self.acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fodder::{event, waiting_task};
    use crate::log::{FsyncPolicy, Wal, WalConfig, WalInstruments};
    use funcx_types::TaskId;

    fn tmp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        std::env::temp_dir().join(format!("funcx-ship-{tag}-{}-{nanos}", std::process::id()))
    }

    #[test]
    fn follower_tails_a_growing_log() {
        let dir = tmp_dir("tail");
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
            ..WalConfig::new(dir.clone())
        };
        let wal = Wal::open(config, WalInstruments::standalone()).unwrap();
        let shipper = SegmentShipper::new(&dir);
        let mut follower = Follower::new();

        for i in 0..10 {
            wal.append(&event(i)).unwrap();
        }
        assert_eq!(follower.catch_up(&shipper, 4).unwrap(), 10);
        assert_eq!(follower.acked_seq(), 10);
        assert_eq!(follower.state(), &wal.state());

        for i in 10..25 {
            wal.append(&event(i)).unwrap();
        }
        assert_eq!(follower.lag(shipper.tip().unwrap()), 15);
        assert_eq!(follower.catch_up(&shipper, 100).unwrap(), 15);
        assert_eq!(follower.state(), &wal.state());
        assert_eq!(follower.lag(shipper.tip().unwrap()), 0);

        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reshipped_prefix_is_idempotent() {
        let dir = tmp_dir("idem");
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
            ..WalConfig::new(dir.clone())
        };
        let wal = Wal::open(config, WalInstruments::standalone()).unwrap();
        for i in 0..6 {
            wal.append(&event(i)).unwrap();
        }
        let shipper = SegmentShipper::new(&dir);
        let mut follower = Follower::new();
        follower.catch_up(&shipper, 100).unwrap();
        let state = follower.state().clone();

        // Re-applying the whole log from 0 must change nothing.
        let shipment = shipper.ship_from(0, 100).unwrap();
        assert_eq!(follower.apply(&shipment), 0);
        assert_eq!(follower.state(), &state);
        assert_eq!(follower.acked_seq(), 6);

        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lifecycle_events_replicate_the_derived_queue() {
        let dir = tmp_dir("queues");
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
            ..WalConfig::new(dir.clone())
        };
        let wal = Wal::open(config, WalInstruments::standalone()).unwrap();
        for id in 0..4 {
            wal.append(&waiting_task(id, 7, 3)).unwrap();
        }
        wal.append(&DurableEvent::TaskDispatched { task_id: TaskId::from_u128(0) }).unwrap();
        wal.append(&DurableEvent::TaskFailed {
            task_id: TaskId::from_u128(0),
            error: "rejected".into(),
        })
        .unwrap();

        let mut follower = Follower::new();
        follower.catch_up(&SegmentShipper::new(&dir), 100).unwrap();
        let owed: Vec<TaskId> =
            follower.state().owed().iter().map(|record| record.spec.task_id).collect();
        assert_eq!(owed, [1, 2, 3].map(TaskId::from_u128), "one of four tasks finished");

        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailing_never_opens_segments_below_the_requested_range() {
        let dir = tmp_dir("skip");
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 64, // a segment per record or two
            snapshot_every: 0,
            ..WalConfig::new(dir.clone())
        };
        let wal = Wal::open(config, WalInstruments::standalone()).unwrap();
        let event = |i: u64| DurableEvent::TaskDispatched { task_id: TaskId::from_u128(i as u128) };
        let mut i = 0;
        while list_numbered(&dir, "wal-", ".seg").unwrap().len() < 11 {
            wal.append(&event(i)).unwrap();
            i += 1;
        }
        wal.append(&event(i)).unwrap();
        wal.sync().unwrap();
        let shipper = SegmentShipper::new(&dir);
        let tip = shipper.tip().unwrap();
        assert_eq!(tip, wal.next_seq());

        // Ten sealed segments and the open one. Overwrite the nine oldest
        // with garbage: a reader that touched them would stop at the tear.
        let segments = list_numbered(&dir, "wal-", ".seg").unwrap();
        assert_eq!(segments.len(), 11);
        for (_, path) in &segments[..9] {
            std::fs::write(path, b"not a frame, not even close").unwrap();
        }
        assert_eq!(shipper.tip().unwrap(), tip);
        match shipper.ship_from(tip - 1, 100).unwrap() {
            Shipment::Events { events, skipped } => {
                assert_eq!(skipped, 0);
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].0, tip - 1);
                assert_eq!(events[0].1, event(i));
            }
            other => panic!("expected the newest record, got {other:?}"),
        }
        // From the tenth segment's base on, both intact segments ship.
        let from = segments[9].0;
        match shipper.ship_from(from, 100).unwrap() {
            Shipment::Events { events, .. } => {
                let seqs: Vec<u64> = events.iter().map(|(seq, _)| *seq).collect();
                assert_eq!(seqs, (from..tip).collect::<Vec<_>>());
            }
            other => panic!("expected events, got {other:?}"),
        }

        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }
}
