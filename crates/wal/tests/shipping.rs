//! WAL segment shipping: the follower/acker contract the cluster's
//! partition failover rests on.
//!
//! Three properties, mirroring `torn_tail.rs`'s discipline:
//!
//! 1. **Mid-log catch-up** — a follower that starts tailing after the
//!    leader has already appended converges to the leader's exact state,
//!    and keeps converging as the leader keeps appending.
//! 2. **Snapshot + tail bootstrap** — when compaction has deleted the
//!    early segments, a fresh follower bootstraps from the newest
//!    snapshot and tails the surviving segments to the same final state.
//! 3. **Torn-shipment tolerance** — a shipped segment cut at *every*
//!    byte offset yields exactly the longest whole-record prefix: never
//!    an error, never a partial record, and re-polling after the rest of
//!    the bytes arrive completes the catch-up.

use std::fs;
use std::path::PathBuf;

use funcx_wal::{
    DurableEvent, Follower, FsyncPolicy, SegmentShipper, Shipment, Wal, WalConfig, WalInstruments,
    WalState,
};

use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-wal-ship-{tag}-{}-{nanos}", std::process::id()))
}

/// Single-segment, no-snapshot config (the torn-shipment tests cut the
/// one segment at arbitrary offsets).
fn flat_config(dir: &PathBuf) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Always,
        segment_max_bytes: u64::MAX,
        snapshot_every: 0,
        ..WalConfig::new(dir.clone())
    }
}

fn segment_path(dir: &PathBuf) -> PathBuf {
    dir.join(format!("wal-{:020}.seg", 0))
}

// `event(i)`: the deterministic lifecycle stream, frame sizes varying.
include!("fixtures/lifecycle_events.rs");

/// The reference state after replaying exactly `events`.
fn prefix_state(events: &[DurableEvent]) -> WalState {
    let mut state = WalState::new();
    state.apply_all(events.iter());
    state
}

#[test]
fn follower_catches_up_from_mid_log() {
    let dir = tmp_dir("midlog");
    let wal = Wal::open(flat_config(&dir), WalInstruments::standalone()).expect("open");
    for i in 0..40 {
        wal.append(&event(i)).expect("append");
    }

    // The follower arrives late: everything so far ships in one catch-up.
    let shipper = SegmentShipper::new(&dir);
    let mut follower = Follower::new();
    assert_eq!(follower.catch_up(&shipper, 7).expect("catch up"), 40);
    assert_eq!(follower.acked_seq(), 40);
    assert_eq!(follower.state(), &wal.state());
    assert_eq!(follower.snapshots_loaded, 0, "mid-log catch-up needs no snapshot");

    // The leader keeps going; the follower tails incrementally.
    for round in 0..5u64 {
        for i in 0..9 {
            wal.append(&event(40 + round * 9 + i)).expect("append");
        }
        follower.catch_up(&shipper, 4).expect("tail");
        assert_eq!(follower.state(), &wal.state(), "round {round}: follower diverged");
        assert_eq!(follower.acked_seq(), wal.next_seq());
        assert_eq!(follower.lag(shipper.tip().expect("tip")), 0);
    }

    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn follower_bootstraps_from_snapshot_plus_tail() {
    let dir = tmp_dir("snaptail");
    // Tiny segments so the pre-compaction log spans several files.
    let config = WalConfig {
        fsync: FsyncPolicy::Always,
        segment_max_bytes: 256,
        snapshot_every: 0,
        ..WalConfig::new(dir.clone())
    };
    let wal = Wal::open(config, WalInstruments::standalone()).expect("open");
    for i in 0..25 {
        wal.append(&event(i)).expect("append");
    }
    // Compact, then keep appending: the follower must bootstrap from the
    // snapshot AND tail the post-compaction segments.
    wal.snapshot_now().expect("compact");
    assert!(!segment_path(&dir).exists(), "expected compaction to have deleted the first segment");
    for i in 25..30 {
        wal.append(&event(i)).expect("append");
    }

    let shipper = SegmentShipper::new(&dir);
    let mut follower = Follower::new();
    follower.catch_up(&shipper, 100).expect("bootstrap");
    assert_eq!(follower.snapshots_loaded, 1, "bootstrap must come from a snapshot");
    assert_eq!(follower.acked_seq(), wal.next_seq());
    assert_eq!(follower.state(), &wal.state());

    // Tail past the bootstrap: plain event shipping from here on.
    for i in 30..41 {
        wal.append(&event(i)).expect("append");
    }
    follower.catch_up(&shipper, 100).expect("tail");
    assert_eq!(follower.snapshots_loaded, 1, "tailing must not re-bootstrap");
    assert_eq!(follower.state(), &wal.state());

    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

/// Write `events` into a fresh single-segment log; return the segment
/// bytes and each frame's end offset.
fn write_log(events: &[DurableEvent]) -> (Vec<u8>, Vec<u64>) {
    let dir = tmp_dir("writer");
    let wal = Wal::open(flat_config(&dir), WalInstruments::standalone()).expect("open");
    let mut boundaries = Vec::with_capacity(events.len());
    for e in events {
        boundaries.push(wal.append(e).expect("append").end_offset);
    }
    wal.sync().expect("sync");
    drop(wal);
    let bytes = fs::read(segment_path(&dir)).expect("segment exists");
    fs::remove_dir_all(&dir).ok();
    (bytes, boundaries)
}

/// Ship from a directory holding exactly `bytes[..cut]` as the segment.
fn ship_cut(bytes: &[u8], cut: usize) -> (Follower, u64) {
    let dir = tmp_dir("cut");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(segment_path(&dir), &bytes[..cut]).expect("write cut segment");
    let shipper = SegmentShipper::new(&dir);
    let mut follower = Follower::new();
    let applied = follower
        .catch_up(&shipper, usize::MAX)
        .expect("shipping from a torn segment must not fail");
    fs::remove_dir_all(&dir).ok();
    (follower, applied)
}

/// Frames wholly contained in the first `cut` bytes.
fn surviving(boundaries: &[u64], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b <= cut as u64).count()
}

#[test]
fn every_shipment_cut_offset_yields_the_longest_valid_prefix() {
    let events: Vec<DurableEvent> = (0..14).map(event).collect();
    let (bytes, boundaries) = write_log(&events);
    assert_eq!(*boundaries.last().unwrap(), bytes.len() as u64);

    let references: Vec<WalState> =
        (0..=events.len()).map(|k| prefix_state(&events[..k])).collect();

    for cut in 0..=bytes.len() {
        let k = surviving(&boundaries, cut);
        let (follower, applied) = ship_cut(&bytes, cut);
        assert_eq!(applied, k as u64, "cut at byte {cut}: wrong shipped-record count");
        assert_eq!(follower.acked_seq(), k as u64, "cut at byte {cut}: wrong ack");
        assert_eq!(
            follower.state(),
            &references[k],
            "cut at byte {cut}: follower state is not the {k}-record prefix"
        );
        assert_eq!(follower.skipped, 0, "cut at byte {cut}: no frame may half-decode");
    }
}

#[test]
fn torn_shipment_completes_when_remaining_bytes_arrive() {
    // A shipment torn mid-frame is retried from the same ack; once the
    // transport delivers the rest of the segment the follower converges.
    let events: Vec<DurableEvent> = (0..12).map(event).collect();
    let (bytes, boundaries) = write_log(&events);
    let cut = (boundaries[7] + 3) as usize; // record 8 is torn

    let dir = tmp_dir("resume");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(segment_path(&dir), &bytes[..cut]).expect("write torn segment");
    let shipper = SegmentShipper::new(&dir);
    let mut follower = Follower::new();
    assert_eq!(follower.catch_up(&shipper, 100).expect("first poll"), 8);
    assert_eq!(follower.acked_seq(), 8);

    // The rest of the shipment lands; the next poll picks up records 8..12.
    fs::write(segment_path(&dir), &bytes).expect("complete segment");
    assert_eq!(follower.catch_up(&shipper, 100).expect("second poll"), 4);
    assert_eq!(follower.acked_seq(), 12);
    assert_eq!(follower.state(), &prefix_state(&events));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shipment_batches_tag_events_with_sequence_numbers() {
    let events: Vec<DurableEvent> = (0..9).map(event).collect();
    let (bytes, _) = write_log(&events);
    let dir = tmp_dir("seqs");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(segment_path(&dir), &bytes).expect("write segment");

    let shipper = SegmentShipper::new(&dir);
    match shipper.ship_from(4, 3).expect("ship") {
        Shipment::Events { events, skipped } => {
            assert_eq!(skipped, 0);
            assert_eq!(events.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        }
        other => panic!("expected an Events batch, got {other:?}"),
    }
    assert!(
        matches!(shipper.ship_from(9, 3).expect("ship"), Shipment::UpToDate),
        "shipping from the tip must report up-to-date"
    );
    fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random log lengths and random shipment cut offsets: catch-up never
    /// fails and always yields exactly the longest whole-record prefix.
    #[test]
    fn arbitrary_shipment_cut_yields_a_prefix(n in 1usize..20, cut_frac in 0.0f64..=1.0) {
        let events: Vec<DurableEvent> = (0..n as u64).map(event).collect();
        let (bytes, boundaries) = write_log(&events);
        let cut = (((bytes.len() as f64) * cut_frac).round() as usize).min(bytes.len());

        let k = surviving(&boundaries, cut);
        let (follower, applied) = ship_cut(&bytes, cut);
        prop_assert_eq!(applied, k as u64);
        prop_assert_eq!(follower.state(), &prefix_state(&events[..k]));
    }
}
