//! Decode-only reader for what older builds journaled and this one derives.
//!
//! Until queues became a function of task state the log also carried every
//! queue push and pop, the terminal removal of an endpoint's queues, and
//! writes to a KV space nothing used. Those logs and checkpoints must
//! still open, so their shapes are read here — checked, so a corrupt one
//! is still caught — and dropped:
//!
//! | tag | record was      | fields                                        |
//! |-----|-----------------|-----------------------------------------------|
//! | 7   | `QueuePush`     | endpoint uuid, kind `u8`, front `bool`, bytes |
//! | 8   | `QueuePop`      | endpoint uuid, kind `u8`, count `u32`         |
//! | 9   | `QueuesRemoved` | endpoint uuid                                 |
//! | 11  | `KvSet`         | str, str, bytes, optional `u64`               |
//! | 12  | `KvDel`         | str, str                                      |
//!
//! Nothing encodes these. What they said is either implied by the
//! lifecycle records beside them (a `TaskCreated` *is* the push, an
//! `EndpointDeregistered` the removal) or was never read back (results
//! queue, KV). A checkpoint's sections of the same vintage are read by
//! [`dispatched`], [`LegacyQueue`] and [`kv`].

use funcx_types::TaskId;

use crate::codec::{read_uuid, Cur};
use crate::event::DurableEvent;
use crate::state::WalState;

/// Tag [`DurableEvent::Retired`] encodes to, so the variant round-trips;
/// no product code appends one.
pub(crate) const MARKER: u8 = 19;

/// The task-queue kind byte; 1 was the result queue.
const KIND_TASK: u8 = 0;

fn queue_kind(cur: &mut Cur<'_>) -> Option<u8> {
    cur.u8().filter(|kind| *kind <= 1)
}

/// Read the fields of a retired record whose tag byte was `tag`. `None`
/// for a tag that never existed or fields that do not parse.
pub(crate) fn read(tag: u8, cur: &mut Cur<'_>) -> Option<DurableEvent> {
    match tag {
        7 => {
            read_uuid(cur)?;
            queue_kind(cur)?;
            cur.bool()?;
            cur.bytes()?;
        }
        8 => {
            read_uuid(cur)?;
            queue_kind(cur)?;
            cur.u32()?;
        }
        9 => {
            read_uuid(cur)?;
        }
        11 => {
            cur.str()?;
            cur.str()?;
            cur.bytes()?;
            cur.opt(|c| c.u64())?;
        }
        12 => {
            cur.str()?;
            cur.str()?;
        }
        MARKER => {}
        _ => return None,
    }
    Some(DurableEvent::Retired)
}

/// Checkpoints written before queues were derived list their tasks in no
/// order; their dispatch list and task-queue items *are* the order, so each
/// id those name is moved to the back of the line as it is read (dispatched
/// first: the writer put that section first, and unacked dispatches are
/// redelivered first). This is a dispatch-order entry: one task uuid.
pub(crate) fn dispatched(cur: &mut Cur<'_>, state: &mut WalState) -> Option<()> {
    state.rearrive(TaskId(read_uuid(cur)?));
    Some(())
}

/// A KV entry of such a checkpoint: hash, field, value, optional expiry.
/// Dropped.
pub(crate) fn kv(cur: &mut Cur<'_>) -> Option<()> {
    cur.str()?;
    cur.str()?;
    cur.bytes()?;
    cur.opt(|c| c.u64())?;
    Some(())
}

/// The queue sections of such a checkpoint: a declaration, then its items.
#[derive(Default)]
pub(crate) struct LegacyQueue {
    /// Whether the queue declared last was a task queue.
    is_task_queue: bool,
}

impl LegacyQueue {
    /// A queue declaration: endpoint uuid and kind byte.
    pub(crate) fn declare(&mut self, cur: &mut Cur<'_>) -> Option<()> {
        read_uuid(cur)?;
        self.is_task_queue = queue_kind(cur)? == KIND_TASK;
        Some(())
    }

    /// One item of the queue declared last; a task queue's items are task
    /// ids as 16 big-endian bytes.
    pub(crate) fn item(&self, cur: &mut Cur<'_>, state: &mut WalState) -> Option<()> {
        let item = cur.bytes()?;
        if let (true, Ok(raw)) = (self.is_task_queue, <[u8; 16]>::try_from(item.as_slice())) {
            state.rearrive(TaskId::from_u128(u128::from_be_bytes(raw)));
        }
        Some(())
    }
}
