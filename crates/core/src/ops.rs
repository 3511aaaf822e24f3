//! Queued shared-memory operations and get tickets.
//!
//! As in the paper's library, `get()` and `put()` merely enqueue
//! requests on the local node; all communication happens inside
//! `sync()`. A [`GetTicket`] is the capability to read a get's result
//! — it only becomes redeemable after the next `sync()`, which is how
//! the bulk-synchrony rule "values returned by reads issued in a
//! phase cannot be used in the same phase" is enforced at runtime.

use std::marker::PhantomData;

use crate::addr::ArrayId;
use crate::word::Word;

/// A queued remote write of a contiguous global range. Its payload
/// lives in the owning [`QueuedOps`]'s word buffer
/// ([`QueuedOps::payload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOp {
    /// Target array.
    pub array: ArrayId,
    /// First global index written.
    pub start: usize,
    /// Offset of the raw payload in [`QueuedOps::words`].
    pub offset: usize,
    /// Elements written (`len` elements from `start`).
    pub len: usize,
}

/// A queued remote read of a contiguous global range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOp {
    /// Source array.
    pub array: ArrayId,
    /// First global index read.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
    /// Ticket this read fulfills.
    pub ticket: u64,
}

/// All operations a processor queued during one phase.
///
/// Put payloads are packed back to back into one word buffer instead
/// of one allocation per put: an all-pairs phase at p = 1024 queues
/// about a million one-word puts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueuedOps {
    /// Remote writes, in issue order.
    pub puts: Vec<PutOp>,
    /// Remote reads, in issue order.
    pub gets: Vec<GetOp>,
    /// Every put's raw payload, in issue order.
    pub words: Vec<u64>,
}

impl QueuedOps {
    /// Queue a write of the raw words `data` to `array` from `start`.
    pub fn push_put(&mut self, array: ArrayId, start: usize, data: impl IntoIterator<Item = u64>) {
        let offset = self.words.len();
        self.words.extend(data);
        self.puts.push(PutOp { array, start, offset, len: self.words.len() - offset });
    }

    /// The raw payload of `op`, one of this queue's puts.
    pub fn payload(&self, op: &PutOp) -> &[u64] {
        &self.words[op.offset..op.offset + op.len]
    }

    /// Forget every queued operation, keeping the capacity.
    pub fn clear(&mut self) {
        self.puts.clear();
        self.gets.clear();
        self.words.clear();
    }

    /// True when nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.gets.is_empty()
    }

    /// Total elements written.
    pub fn put_elems(&self) -> u64 {
        self.puts.iter().map(|p| p.len as u64).sum()
    }

    /// Total elements read.
    pub fn get_elems(&self) -> u64 {
        self.gets.iter().map(|g| g.len as u64).sum()
    }

    /// Drain into a fresh value, leaving this one empty.
    pub fn take(&mut self) -> QueuedOps {
        std::mem::take(self)
    }
}

/// Capability to read the result of a [`GetOp`] after the next
/// `sync()`.
///
/// The ticket is intentionally **not** `Copy`/`Clone`: redeeming it
/// consumes it, so a result can be taken exactly once.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a get() that is never take()n moves data for nothing"]
pub struct GetTicket<T: Word> {
    pub(crate) id: u64,
    pub(crate) len: usize,
    pub(crate) issued_phase: u64,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T: Word> GetTicket<T> {
    /// Number of elements the redeemed result will contain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the get was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_ops_counts() {
        let mut q = QueuedOps::default();
        assert!(q.is_empty());
        q.push_put(ArrayId(0), 0, [1, 2, 3]);
        q.push_put(ArrayId(1), 4, [9]);
        q.gets.push(GetOp { array: ArrayId(0), start: 5, len: 7, ticket: 0 });
        assert!(!q.is_empty());
        assert_eq!(q.put_elems(), 4);
        assert_eq!(q.get_elems(), 7);
        assert_eq!(q.payload(&q.puts[0]), &[1, 2, 3]);
        assert_eq!(q.payload(&q.puts[1]), &[9]);
        q.clear();
        assert!(q.is_empty() && q.words.is_empty());
    }

    #[test]
    fn take_leaves_empty() {
        let mut q = QueuedOps::default();
        q.push_put(ArrayId(0), 0, [9]);
        let t = q.take();
        assert_eq!(t.put_elems(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ticket_reports_len() {
        let t = GetTicket::<u32> { id: 1, len: 4, issued_phase: 0, _elem: PhantomData };
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }
}
