//! Shared-array metadata and per-processor memory.

use std::marker::PhantomData;

use crate::addr::{block_range, ArrayId, Layout};
use crate::word::Word;

/// A typed handle to a registered shared array.
///
/// Handles are `Copy` and cheap; they carry no storage. All access
/// goes through a [`crate::ctx::Ctx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedArray<T: Word> {
    pub(crate) id: ArrayId,
    pub(crate) len: usize,
    pub(crate) layout: Layout,
    pub(crate) _elem: PhantomData<fn() -> T>,
}

impl<T: Word> SharedArray<T> {
    /// Identifier.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Declared layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }
}

/// Metadata of one registered array, shared between the workers and
/// the phase leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Identifier.
    pub id: ArrayId,
    /// Registration name (diagnostics only).
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Wire bytes per element.
    pub elem_bytes: u64,
    /// Cost layout.
    pub layout: Layout,
}

impl ArrayInfo {
    /// 4-byte accounting words per element.
    pub fn words_per_elem(&self) -> u64 {
        self.elem_bytes.div_ceil(4)
    }
}

/// A registration request (collective across processors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// Name supplied by the program.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Wire bytes per element.
    pub elem_bytes: u64,
    /// Cost layout.
    pub layout: Layout,
}

/// Storage for one processor's block segment of an array.
pub type Segment = Vec<u64>;

/// The per-processor view of shared memory: segment storage plus
/// array metadata, both dense `Vec`s indexed by `ArrayId.0` (ids are
/// assigned sequentially, so the tables stay small and lookup is a
/// bounds check instead of a hash). Each worker owns its store for
/// the whole run; peers read it only inside the barrier-bracketed
/// window of `crate::spmd`.
#[derive(Debug, Default)]
pub struct LocalStore {
    /// Metadata for every array id ever assigned; `None` when the
    /// array is not (or no longer) live on this processor.
    pub infos: Vec<Option<ArrayInfo>>,
    /// This processor's block segment of each array; unregistered or
    /// never-registered slots hold an empty `Vec`.
    pub segments: Vec<Segment>,
}

impl LocalStore {
    /// Metadata lookup, panicking with the array name context on
    /// unknown ids (e.g. use before the registering `sync()`).
    pub fn info(&self, id: ArrayId) -> &ArrayInfo {
        self.infos.get(id.0 as usize).and_then(Option::as_ref).unwrap_or_else(|| {
            panic!(
                "array {:?} is not live on this processor; did you use a handle \
                 before the sync() that completes its registration, or after \
                 unregistering it?",
                id
            )
        })
    }

    /// This processor's global index range of `id` (block partition).
    pub fn local_range(&self, id: ArrayId, p: usize, proc: usize) -> std::ops::Range<usize> {
        let info = self.info(id);
        block_range(info.len, p, proc)
    }

    /// This processor's segment of `id` (liveness already verified by
    /// the caller through [`LocalStore::info`]).
    pub fn segment(&self, id: ArrayId) -> &Segment {
        &self.segments[id.0 as usize]
    }

    /// Mutable access to this processor's segment of `id`.
    pub fn segment_mut(&mut self, id: ArrayId) -> &mut Segment {
        &mut self.segments[id.0 as usize]
    }

    /// Install a new array's segment (grows the dense tables to cover
    /// its id).
    pub fn install(&mut self, info: ArrayInfo, segment: Segment) {
        let idx = info.id.0 as usize;
        if self.infos.len() <= idx {
            self.infos.resize(idx + 1, None);
        }
        if self.segments.len() <= idx {
            self.segments.resize_with(idx + 1, Segment::new);
        }
        self.segments[idx] = segment;
        self.infos[idx] = Some(info);
    }

    /// Drop an array: the slot stays (ids are never reused) but its
    /// metadata and storage are released.
    pub fn remove(&mut self, id: ArrayId) {
        let idx = id.0 as usize;
        if let Some(slot) = self.infos.get_mut(idx) {
            *slot = None;
        }
        if let Some(seg) = self.segments.get_mut(idx) {
            *seg = Segment::new();
        }
    }

    /// True when no array is live.
    pub fn is_empty(&self) -> bool {
        self.infos.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u32, len: usize) -> ArrayInfo {
        ArrayInfo {
            id: ArrayId(id),
            name: format!("a{id}"),
            len,
            elem_bytes: 8,
            layout: Layout::Block,
        }
    }

    #[test]
    fn install_and_lookup() {
        let mut s = LocalStore::default();
        s.install(info(1, 100), vec![0; 25]);
        assert_eq!(s.info(ArrayId(1)).len, 100);
        assert_eq!(s.local_range(ArrayId(1), 4, 2), 50..75);
        assert_eq!(s.segment(ArrayId(1)).len(), 25);
        s.remove(ArrayId(1));
        assert!(s.is_empty());
        // The slot persists (ids are never reused) but holds nothing.
        assert!(s.segments[1].is_empty());
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn unknown_array_panics_with_context() {
        let s = LocalStore::default();
        let _ = s.info(ArrayId(42));
    }

    #[test]
    fn words_per_elem_rounds_up() {
        let mut i = info(1, 10);
        assert_eq!(i.words_per_elem(), 2);
        i.elem_bytes = 4;
        assert_eq!(i.words_per_elem(), 1);
        i.elem_bytes = 5;
        assert_eq!(i.words_per_elem(), 2);
    }

    #[test]
    fn handle_reports_shape() {
        let h = SharedArray::<u64> {
            id: ArrayId(7),
            len: 12,
            layout: Layout::Hashed,
            _elem: PhantomData,
        };
        assert_eq!(h.id(), ArrayId(7));
        assert_eq!(h.len(), 12);
        assert!(!h.is_empty());
        assert_eq!(h.layout(), Layout::Hashed);
    }
}
