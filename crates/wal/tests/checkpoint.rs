//! Checkpoints as files: what the chunked format, the install order and the
//! old single-frame layout promise, checked from outside the crate.
//!
//! 1. **More than one frame's worth of state survives.** A state over the
//!    64 MiB frame limit checkpoints and reopens whole (the single-frame
//!    layout wrote such a snapshot, deleted the log behind it, and could
//!    not read it back).
//! 2. **A crash at any step of an install loses nothing**, in the
//!    every-byte-offset style of `torn_tail.rs`: the temporary file cut
//!    anywhere, the rename done with nothing unlinked, every prefix of the
//!    unlinks — each reopens to the reference state.
//! 3. **A version-2 snapshot written by an older build still recovers**,
//!    and the next checkpoint replaces it with the current layout.

use std::fs;
use std::path::{Path, PathBuf};

use funcx_types::task::TaskOutcome;
use funcx_types::time::VirtualInstant;
use funcx_types::{EndpointId, FunctionId, TaskId, UserId};
use funcx_wal::frame::{decode_all, HEADER_LEN, MAX_PAYLOAD};
use funcx_wal::{DurableEvent, FsyncPolicy, Wal, WalConfig, WalInstruments, WalState};

// `event(i)`, the deterministic lifecycle stream, and `waiting_task`.
include!("fixtures/lifecycle_events.rs");

fn tmp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("funcx-wal-ckpt-{tag}-{}-{nanos}", std::process::id()))
}

/// No automatic checkpoints: the tests decide when one happens.
fn config(dir: &Path, segment_max_bytes: u64) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        segment_max_bytes,
        snapshot_every: 0,
        ..WalConfig::new(dir.to_path_buf())
    }
}

fn open(dir: &Path, segment_max_bytes: u64) -> std::sync::Arc<Wal> {
    Wal::open(config(dir, segment_max_bytes), WalInstruments::standalone()).expect("open")
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    names
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("mkdir");
    for name in file_names(from) {
        fs::copy(from.join(&name), to.join(&name)).expect("copy");
    }
}

#[test]
fn state_over_one_frame_limit_checkpoints_and_reopens_whole() {
    const ITEMS: u64 = 9_000;
    const ITEM_BYTES: usize = 8 << 10;
    // 9 000 waiting tasks with 8 KiB inputs: the backlog of one endpoint.
    let task = |i: u64| waiting_task(i as u128, 1, ITEM_BYTES);

    let dir = tmp_dir("big");
    let wal = open(&dir, 8 << 20);
    for i in 0..ITEMS {
        wal.append(&task(i)).expect("append");
    }
    wal.snapshot_now().expect("checkpoint");
    let names = file_names(&dir);
    assert_eq!(names.len(), 2, "one checkpoint, one fresh segment: {names:?}");
    let checkpoint = dir.join(names.iter().find(|n| n.starts_with("snap-")).expect("checkpoint"));
    assert!(
        fs::metadata(&checkpoint).expect("stat").len() > MAX_PAYLOAD as u64,
        "the state must not fit one frame for this test to mean anything"
    );
    drop(wal);

    let (wal, state) =
        Wal::recover(config(&dir, 8 << 20), WalInstruments::standalone()).expect("reopen");
    let info = wal.recovery_info();
    assert!(info.snapshot_loaded, "the checkpoint must be readable");
    assert_eq!(info.replayed, 0, "the log behind it was compacted");
    assert_eq!(wal.next_seq(), ITEMS);
    let queue = state.owed();
    assert_eq!(queue.len() as u64, ITEMS, "every task back");
    for (i, got) in queue.into_iter().enumerate() {
        let DurableEvent::TaskCreated { record } = task(i as u64) else { unreachable!() };
        assert!(*got == *record, "task {i} differs or is out of order");
    }
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

/// Reopen a copy of `scenario` and check it against the reference: the
/// state, where appending resumes, and that no temporary file is left.
fn assert_recovers(scenario: &Path, reference: &WalState, next_seq: u64, what: &str) -> bool {
    let dir = tmp_dir("reopen");
    copy_dir(scenario, &dir);
    let (wal, state) = Wal::recover(config(&dir, 256), WalInstruments::standalone())
        .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    assert!(state == *reference, "{what}: recovered state differs from the reference");
    assert_eq!(wal.next_seq(), next_seq, "{what}: appending resumes at the wrong seq");
    assert_eq!(wal.append(&event(999)).expect("append").seq, next_seq, "{what}");
    assert!(!file_names(&dir).iter().any(|n| n.ends_with(".tmp")), "{what}: tmp left behind");
    let loaded = wal.recovery_info().snapshot_loaded;
    drop(wal);
    fs::remove_dir_all(&dir).ok();
    loaded
}

#[test]
fn a_crash_at_every_step_of_an_install_recovers_the_reference_state() {
    const FIRST: u64 = 20;
    const TOTAL: u64 = 45;
    let events: Vec<DurableEvent> = (0..TOTAL).map(event).collect();
    let mut reference = WalState::new();
    reference.apply_all(&events);

    // `before`: an older checkpoint at FIRST and several small segments
    // behind it — the directory as the second checkpoint finds it, cut
    // (fresh segment at TOTAL) already made.
    let before = tmp_dir("before");
    let after = tmp_dir("after");
    {
        let wal = open(&before, 256);
        for e in &events[..FIRST as usize] {
            wal.append(e).expect("append");
        }
        wal.snapshot_now().expect("first checkpoint");
        for e in &events[FIRST as usize..] {
            wal.append(e).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);
        copy_dir(&before, &after);
        open(&after, 256).snapshot_now().expect("second checkpoint");
    }
    let snap = |seq: u64| format!("snap-{seq:020}.snap");
    let seg = |seq: u64| format!("wal-{seq:020}.seg");
    assert_eq!(file_names(&after), vec![snap(TOTAL), seg(TOTAL)], "a finished install");
    fs::copy(after.join(seg(TOTAL)), before.join(seg(TOTAL))).expect("the cut's fresh segment");
    let new_checkpoint = fs::read(after.join(snap(TOTAL))).expect("read checkpoint");
    let superseded: Vec<String> =
        file_names(&before).into_iter().filter(|n| *n != seg(TOTAL)).collect();
    assert!(superseded.len() >= 4, "several segments and a checkpoint to unlink: {superseded:?}");
    assert_eq!(superseded[0], snap(FIRST));

    // Step 1 — the temporary file, cut at every frame boundary and a
    // sample of other offsets. Also under its final name: the data is
    // fsynced before the rename, but recovery must not depend on it.
    let (frames, _) = decode_all(&new_checkpoint);
    let mut cuts = vec![0usize];
    for frame in &frames {
        cuts.push(cuts.last().expect("non-empty") + HEADER_LEN + frame.len());
    }
    assert_eq!(*cuts.last().expect("non-empty"), new_checkpoint.len());
    cuts.extend((1..new_checkpoint.len()).step_by(7));
    for &cut in &cuts {
        for name in [format!("{}.tmp", snap(TOTAL)), snap(TOTAL)] {
            if cut == new_checkpoint.len() && name == snap(TOTAL) {
                continue; // that is step 2
            }
            let scenario = tmp_dir("torn");
            copy_dir(&before, &scenario);
            fs::write(scenario.join(&name), &new_checkpoint[..cut]).expect("write cut");
            assert_recovers(&scenario, &reference, TOTAL, &format!("{name} cut at {cut}"));
            fs::remove_dir_all(&scenario).ok();
        }
    }

    // Step 2 — renamed, directory synced, nothing unlinked yet. Step 3 —
    // every prefix of the unlinks, in the order install performs them:
    // segments oldest first, then the old checkpoint.
    let mut unlink_order: Vec<String> = superseded[1..].to_vec();
    unlink_order.push(snap(FIRST));
    for done in 0..=unlink_order.len() {
        let scenario = tmp_dir("unlink");
        copy_dir(&before, &scenario);
        fs::write(scenario.join(snap(TOTAL)), &new_checkpoint).expect("install");
        for name in &unlink_order[..done] {
            fs::remove_file(scenario.join(name)).expect("unlink");
        }
        let loaded = assert_recovers(&scenario, &reference, TOTAL, &format!("{done} unlinks done"));
        assert!(loaded, "{done} unlinks done: the new checkpoint must be the one loaded");
        fs::remove_dir_all(&scenario).ok();
    }

    fs::remove_dir_all(&before).ok();
    fs::remove_dir_all(&after).ok();
}

include!("fixtures/v2_events.rs");

fn owed_ids(state: &WalState) -> Vec<TaskId> {
    state.owed().iter().map(|record| record.spec.task_id).collect()
}

#[test]
fn a_v2_single_frame_snapshot_from_an_older_build_still_recovers() {
    // Written by the commit before the chunked layout: the 23 records
    // behind `fixture_events()` appended, then `snapshot_now()`.
    let fixture = include_bytes!("fixtures/v2-single-frame.snap");
    let mut reference = WalState::new();
    reference.apply_all(&fixture_events());
    let next_seq = FIXTURE_RECORDS;

    let dir = tmp_dir("v2");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join(format!("snap-{next_seq:020}.snap")), fixture).expect("place fixture");
    let (wal, state) = Wal::recover(config(&dir, 8 << 20), WalInstruments::standalone())
        .expect("recover from a v2 snapshot");
    assert!(wal.recovery_info().snapshot_loaded);
    assert_eq!(wal.recovery_info().replayed, 0);
    assert_eq!(wal.next_seq(), next_seq);
    assert_eq!(state, reference);
    // Its tasks come in no order; its dispatch list and queue are the order.
    assert_eq!(owed_ids(&state), [2, 4].map(TaskId::from_u128));

    // The next checkpoint folds it into the current layout.
    let extra = event(0);
    wal.append(&extra).expect("append");
    wal.snapshot_now().expect("checkpoint over a v2 base");
    reference.apply(&extra);
    drop(wal);
    let (wal, state) =
        Wal::recover(config(&dir, 8 << 20), WalInstruments::standalone()).expect("reopen");
    assert!(wal.recovery_info().snapshot_loaded);
    assert_eq!(state, reference);
    let rewritten = fs::read(dir.join(format!("snap-{:020}.snap", next_seq + 1))).expect("read");
    assert!(decode_all(&rewritten).0.len() >= 3, "header, chunk, trailer: the chunked layout");
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_and_a_checkpoint_from_before_queues_were_derived_recover_the_same_state() {
    // Written by the last commit that journaled queues: the 23 + 8 records
    // behind `fixture_events()` and `fixture_tail_events()`, once as one
    // segment, once as a v3 checkpoint over the 23 with the 8 behind it.
    // That build recovered endpoint 3's queue from them as [2, 4, 5].
    let mut reference = WalState::new();
    reference.apply_all(&fixture_events());
    reference.apply_all(&fixture_tail_events());
    let total = FIXTURE_RECORDS + FIXTURE_TAIL_RECORDS;
    let seg = |seq: u64| format!("wal-{seq:020}.seg");
    let snap = |seq: u64| format!("snap-{seq:020}.snap");
    let log: &[u8] = include_bytes!("fixtures/parent-log.seg");
    let checkpoint: &[u8] = include_bytes!("fixtures/parent-v3.snap");
    let tail: &[u8] = include_bytes!("fixtures/parent-v3-tail.seg");
    let scenarios = [
        ("log", vec![(seg(0), log)], total),
        (
            "v3 checkpoint + tail",
            vec![(snap(FIXTURE_RECORDS), checkpoint), (seg(FIXTURE_RECORDS), tail)],
            FIXTURE_TAIL_RECORDS,
        ),
    ];
    for (what, files, replayed) in scenarios {
        let dir = tmp_dir("parent");
        fs::create_dir_all(&dir).expect("mkdir");
        for (name, bytes) in &files {
            fs::write(dir.join(name), bytes).expect("place fixture");
        }
        let (wal, state) = Wal::recover(config(&dir, 8 << 20), WalInstruments::standalone())
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let info = wal.recovery_info();
        assert_eq!(info.skipped, 0, "{what}: a retired record is read, not skipped");
        assert_eq!(info.replayed, replayed, "{what}");
        assert_eq!(info.truncated_bytes, 0, "{what}");
        assert_eq!(info.snapshot_loaded, files.len() == 2, "{what}");
        assert_eq!(wal.next_seq(), total, "{what}");
        assert_eq!(state, reference, "{what}");
        assert_eq!(owed_ids(&state), [2, 4, 5].map(TaskId::from_u128), "{what}");
        assert_eq!(state.endpoints.len(), 1, "{what}");
        assert_eq!(state.functions.len(), 1, "{what}");
        assert_eq!(state.memo.len(), 2, "{what}");

        // Checkpointed by this build, the same state in fewer bytes: the
        // queue, KV and dispatch sections are gone from the file.
        wal.snapshot_now().expect("checkpoint");
        drop(wal);
        let (wal, state) =
            Wal::recover(config(&dir, 8 << 20), WalInstruments::standalone()).expect("reopen");
        assert_eq!(wal.recovery_info().replayed, 0, "{what}");
        assert_eq!(state, reference, "{what}: through this build's checkpoint");
        drop(wal);
        fs::remove_dir_all(&dir).ok();
    }
}
