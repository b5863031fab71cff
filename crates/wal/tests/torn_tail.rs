//! Crash-recovery property: a log file cut at an *arbitrary* byte offset
//! recovers exactly the longest prefix of whole records — never a panic,
//! never a partial effect, never an invented record.
//!
//! Two tests cover the same property. The proptest samples random cut
//! offsets (and doubles as a fuzz target when run with a larger case
//! count); the deterministic companion walks *every* cut offset of a
//! mixed-event log, so the property holds exhaustively on at least one
//! concrete log even where the proptest runner is unavailable.

use std::fs;
use std::path::PathBuf;

use funcx_wal::{DurableEvent, FsyncPolicy, Wal, WalConfig, WalInstruments, WalState};

use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-wal-torn-{tag}-{}-{nanos}", std::process::id()))
}

/// Single-segment, no-snapshot config: every append lands in
/// `wal-…0000.seg`, which the tests then cut at arbitrary offsets.
fn config(dir: &PathBuf) -> WalConfig {
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

/// Write `events` into a fresh log; return (file bytes, frame end offsets).
fn write_log(events: &[DurableEvent]) -> (Vec<u8>, Vec<u64>) {
    let dir = tmp_dir("writer");
    let wal = Wal::open(config(&dir), WalInstruments::standalone()).expect("open");
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

/// The reference state after replaying exactly `events` — built by a
/// fresh WAL that never crashes.
fn prefix_state(events: &[DurableEvent]) -> WalState {
    let dir = tmp_dir("prefix");
    let wal = Wal::open(config(&dir), WalInstruments::standalone()).expect("open");
    for e in events {
        wal.append(e).expect("append");
    }
    let state = wal.state();
    drop(wal);
    fs::remove_dir_all(&dir).ok();
    state
}

/// Recover from a segment holding exactly `bytes[..cut]` and return the
/// reopened WAL's (state, replayed, truncated) triple.
fn recover_cut(bytes: &[u8], cut: usize) -> (WalState, u64, u64) {
    let dir = tmp_dir("cut");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(segment_path(&dir), &bytes[..cut]).expect("write cut segment");
    let wal = Wal::open(config(&dir), WalInstruments::standalone())
        .expect("recovery from a torn tail must not fail");
    let info = wal.recovery_info();
    let out = (wal.state(), info.replayed, info.truncated_bytes);
    drop(wal);
    fs::remove_dir_all(&dir).ok();
    out
}

/// Frames wholly contained in the first `cut` bytes.
fn surviving(boundaries: &[u64], cut: usize) -> usize {
    boundaries.iter().filter(|&&b| b <= cut as u64).count()
}

#[test]
fn every_cut_offset_recovers_the_longest_valid_prefix() {
    let events: Vec<DurableEvent> = (0..14).map(event).collect();
    let (bytes, boundaries) = write_log(&events);
    assert_eq!(boundaries.len(), events.len());
    assert_eq!(*boundaries.last().unwrap(), bytes.len() as u64);

    // Reference states for every possible surviving prefix, 0..=N.
    let references: Vec<WalState> =
        (0..=events.len()).map(|k| prefix_state(&events[..k])).collect();

    for cut in 0..=bytes.len() {
        let k = surviving(&boundaries, cut);
        let (state, replayed, truncated) = recover_cut(&bytes, cut);
        assert_eq!(replayed, k as u64, "cut at byte {cut}: wrong surviving count");
        assert_eq!(
            state, references[k],
            "cut at byte {cut}: recovered state is not the {k}-record prefix"
        );
        let prefix_end = if k == 0 { 0 } else { boundaries[k - 1] };
        assert_eq!(
            truncated,
            cut as u64 - prefix_end,
            "cut at byte {cut}: torn bytes must all be counted"
        );
    }
}

#[test]
fn recovery_after_a_cut_accepts_new_appends() {
    // A recovered-from-torn-tail log is a first-class log: appends resume
    // at the surviving sequence number and the new record is readable.
    let events: Vec<DurableEvent> = (0..10).map(event).collect();
    let (bytes, boundaries) = write_log(&events);
    let cut = (boundaries[6] + 2) as usize; // mid-frame: record 7 is torn

    let dir = tmp_dir("resume");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(segment_path(&dir), &bytes[..cut]).expect("write cut segment");
    let wal = Wal::open(config(&dir), WalInstruments::standalone()).expect("recover");
    assert_eq!(wal.recovery_info().replayed, 7);
    assert_eq!(wal.next_seq(), 7);
    assert_eq!(wal.append(&event(99)).expect("append resumes").seq, 7);

    // And the re-written record survives the *next* recovery.
    drop(wal);
    let wal = Wal::open(config(&dir), WalInstruments::standalone()).expect("second recovery");
    assert_eq!(wal.recovery_info().replayed, 8);
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random event counts and random cut offsets: recovery never fails
    /// and always yields exactly the longest valid prefix.
    #[test]
    fn arbitrary_cut_recovers_a_prefix(n in 1usize..24, cut_frac in 0.0f64..=1.0) {
        let events: Vec<DurableEvent> = (0..n as u64).map(event).collect();
        let (bytes, boundaries) = write_log(&events);
        let cut = ((bytes.len() as f64) * cut_frac).round() as usize;
        let cut = cut.min(bytes.len());

        let k = surviving(&boundaries, cut);
        let (state, replayed, _) = recover_cut(&bytes, cut);
        prop_assert_eq!(replayed, k as u64);
        prop_assert_eq!(state, prefix_state(&events[..k]));
    }
}
