//! Dense message arenas with bitmap presence words — the mailbox diet.
//!
//! Every engine in the workspace used to park messages in `Option<M>` slot
//! arenas (`Vec<Option<M>>`, `[Option<M>; 2]`). For small payloads the
//! `Option` tag can double the slot size (16 bytes for a `u64` message),
//! and the hot deliver path pays a branch per slot on the discriminant.
//! [`PortArena`] stores the payloads densely (`Vec<M>`) and keeps presence
//! in a separate bitmap — one `u64` per 64 ports — so a slot costs
//! `size_of::<M>()` bytes plus one bit, occupancy counting is a popcount,
//! and clearing a node's ports is a handful of mask operations.
//!
//! A slot whose presence bit is off may hold a stale payload from an
//! earlier round; the bit is authoritative and every accessor checks it, so
//! stale bytes are never observable. This is what makes the arena a pure
//! representation change: engines that swap `Vec<Option<M>>` for
//! [`PortArena`] keep bit-identical outputs, round counts, and message
//! counts.
//!
//! The presence words are `AtomicU64` so the parallel engines can write
//! disjoint slot ranges concurrently (see [`PortArena::split_writers`]):
//! two writers whose ranges share a boundary word combine their bits with
//! `fetch_or`/`fetch_and` instead of racing. Single-owner paths (`&mut
//! self` methods) compile down to plain loads and stores via `get_mut`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A dense message arena: payload slots plus one presence bit per slot.
///
/// `M: Default` supplies the filler for vacant slots (all message types in
/// this workspace are plain data — integers, small tuples, field-less enum
/// variants — so the default is free); `M: Clone` serves the deliver path,
/// which clones a message out of the sender's slot into the receiver's
/// inbox view.
#[derive(Debug)]
pub struct PortArena<M> {
    slots: Vec<M>,
    /// Presence bitmap: bit `k % 64` of word `k / 64` covers slot `k`.
    present: Vec<AtomicU64>,
}

impl<M: Clone + Default> PortArena<M> {
    /// An arena of `len` vacant slots.
    pub fn new(len: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(len, M::default);
        let words = len.div_ceil(64);
        let mut present = Vec::with_capacity(words);
        present.resize_with(words, || AtomicU64::new(0));
        PortArena { slots, present }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena has zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fills slot `k` with `msg` and marks it present.
    #[inline]
    pub fn set(&mut self, k: usize, msg: M) {
        self.slots[k] = msg;
        *self.present[k / 64].get_mut() |= 1u64 << (k % 64);
    }

    /// Marks slot `k` vacant (the stale payload stays, unobservable).
    #[inline]
    pub fn clear(&mut self, k: usize) {
        *self.present[k / 64].get_mut() &= !(1u64 << (k % 64));
    }

    /// Sets or clears slot `k` from an `Option`, the shape node programs
    /// produce.
    #[inline]
    pub fn write(&mut self, k: usize, msg: Option<M>) {
        match msg {
            Some(m) => self.set(k, m),
            None => self.clear(k),
        }
    }

    /// Whether slot `k` is present.
    #[inline]
    fn is_present(&self, k: usize) -> bool {
        let word = self.present[k / 64].load(Ordering::Relaxed);
        word & (1u64 << (k % 64)) != 0
    }

    /// Borrows the payload of slot `k` if present.
    #[inline]
    pub fn get(&self, k: usize) -> Option<&M> {
        self.is_present(k).then(|| &self.slots[k])
    }

    /// Clones the payload of slot `k` out if present — the deliver path.
    #[inline]
    pub fn clone_out(&self, k: usize) -> Option<M> {
        self.is_present(k).then(|| self.slots[k].clone())
    }

    /// Moves the payload of slot `k` out if present, leaving the slot
    /// vacant (the moved-from default stays as the stale payload).
    #[inline]
    pub fn take(&mut self, k: usize) -> Option<M> {
        if self.is_present(k) {
            self.clear(k);
            Some(std::mem::take(&mut self.slots[k]))
        } else {
            None
        }
    }

    /// Marks every slot in `range` vacant — a halted node's ports in a few
    /// mask operations instead of a per-slot write.
    pub fn clear_range(&mut self, range: Range<usize>) {
        let Range { start, end } = range;
        debug_assert!(start <= end && end <= self.len());
        if start >= end {
            return;
        }
        let (first_word, last_word) = (start / 64, (end - 1) / 64);
        let low_mask = !0u64 << (start % 64); // bits >= start%64
        let high_mask = !0u64 >> (63 - (end - 1) % 64); // bits <= (end-1)%64
        if first_word == last_word {
            *self.present[first_word].get_mut() &= !(low_mask & high_mask);
        } else {
            *self.present[first_word].get_mut() &= !low_mask;
            for w in first_word + 1..last_word {
                *self.present[w].get_mut() = 0;
            }
            *self.present[last_word].get_mut() &= !high_mask;
        }
    }

    /// Heap bytes held by the arena: dense payload slots plus the presence
    /// bitmap. This is the number the mailbox-diet reports quote per engine
    /// (`size_of::<M>()` per slot + one bit per slot, against the
    /// `size_of::<Option<M>>()` per slot of the old layout).
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<M>()
            + self.present.len() * std::mem::size_of::<u64>()
    }

    /// Number of present slots — one popcount per 64 ports.
    pub fn count_present(&self) -> u64 {
        self.present
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Splits the arena into one [`ArenaWriter`] per range for a parallel
    /// send phase. Ranges must be disjoint, in ascending order, and cover
    /// indices within the arena; each writer gets exclusive `&mut` access
    /// to its payload slots while presence bits go through the shared
    /// atomic words (boundary words may be shared between neighbors — the
    /// `fetch_or`/`fetch_and` there is what keeps the split safe without
    /// word-aligning the ranges).
    ///
    /// # Panics
    ///
    /// Panics if ranges overlap, regress, or exceed the arena.
    pub fn split_writers<'a>(&'a mut self, ranges: &[Range<usize>]) -> Vec<ArenaWriter<'a, M>> {
        let present: &'a [AtomicU64] = &self.present;
        let mut writers = Vec::with_capacity(ranges.len());
        let mut rest: &'a mut [M] = &mut self.slots;
        let mut consumed = 0usize;
        for r in ranges {
            assert!(r.start >= consumed, "ranges must ascend without overlap");
            let (skip, tail) = rest.split_at_mut(r.start - consumed);
            let _ = skip;
            let (chunk, tail) = tail.split_at_mut(r.end - r.start);
            rest = tail;
            consumed = r.end;
            writers.push(ArenaWriter {
                start: r.start,
                slots: chunk,
                present,
            });
        }
        writers
    }
}

/// Exclusive write access to one slot range of a [`PortArena`], with
/// presence updates routed through the shared atomic bitmap. Handed out by
/// [`PortArena::split_writers`]; indices are *global* arena indices.
#[derive(Debug)]
pub struct ArenaWriter<'a, M> {
    start: usize,
    slots: &'a mut [M],
    present: &'a [AtomicU64],
}

impl<M: Clone + Default> ArenaWriter<'_, M> {
    /// First global slot index of this writer's range.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of slots in this writer's range.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether this writer's range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fills global slot `k` and marks it present.
    #[inline]
    pub fn set(&mut self, k: usize, msg: M) {
        self.slots[k - self.start] = msg;
        self.present[k / 64].fetch_or(1u64 << (k % 64), Ordering::Relaxed);
    }

    /// Marks global slot `k` vacant.
    #[inline]
    pub fn clear(&mut self, k: usize) {
        // Bounds-check against this writer's range even though only the
        // bitmap is touched: clearing another writer's slot would be a
        // logic bug the payload write would have caught.
        let _ = &self.slots[k - self.start];
        self.present[k / 64].fetch_and(!(1u64 << (k % 64)), Ordering::Relaxed);
    }

    /// Sets or clears global slot `k` from an `Option`.
    #[inline]
    pub fn write(&mut self, k: usize, msg: Option<M>) {
        match msg {
            Some(m) => self.set(k, m),
            None => self.clear(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_take_roundtrip() {
        let mut a: PortArena<u64> = PortArena::new(130);
        assert!(a.clone_out(0).is_none());
        a.set(0, 7);
        a.set(64, 8);
        a.set(129, 9);
        assert_eq!(a.clone_out(0), Some(7));
        assert_eq!(a.get(64), Some(&8));
        assert_eq!(a.count_present(), 3);
        assert_eq!(a.take(129), Some(9));
        assert_eq!(a.take(129), None);
        a.clear(0);
        assert!(!a.is_present(0));
        assert_eq!(a.count_present(), 1);
    }

    #[test]
    fn stale_payload_is_unobservable() {
        let mut a: PortArena<u64> = PortArena::new(4);
        a.set(2, 41);
        a.clear(2);
        assert_eq!(a.get(2), None);
        assert_eq!(a.clone_out(2), None);
        assert_eq!(a.count_present(), 0);
    }

    #[test]
    fn clear_range_handles_word_boundaries() {
        let mut a: PortArena<u32> = PortArena::new(200);
        for k in 0..200 {
            a.set(k, k as u32);
        }
        a.clear_range(60..70); // spans the word 0 / word 1 boundary
        a.clear_range(128..192); // exactly word 2
        a.clear_range(5..5); // empty
        assert_eq!(a.count_present(), 200 - 10 - 64);
        for k in 0..200 {
            let expect = !(60..70).contains(&k) && !(128..192).contains(&k);
            assert_eq!(a.is_present(k), expect, "slot {k}");
        }
    }

    #[test]
    fn split_writers_cover_disjoint_ranges_and_shared_words() {
        let mut a: PortArena<u64> = PortArena::new(100);
        // Ranges deliberately split inside word 0 and word 1.
        let ranges = vec![0..30, 30..70, 70..100];
        let mut writers = a.split_writers(&ranges);
        std::thread::scope(|scope| {
            for w in &mut writers {
                scope.spawn(move || {
                    let (start, len) = (w.start(), w.len());
                    for k in start..start + len {
                        if k % 3 == 0 {
                            w.set(k, k as u64);
                        } else {
                            w.clear(k);
                        }
                    }
                });
            }
        });
        drop(writers);
        for k in 0..100 {
            if k % 3 == 0 {
                assert_eq!(a.clone_out(k), Some(k as u64), "slot {k}");
            } else {
                assert!(!a.is_present(k), "slot {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ranges must ascend")]
    fn split_writers_rejects_overlap() {
        let mut a: PortArena<u64> = PortArena::new(10);
        let _ = a.split_writers(&[0..6, 4..10]);
    }

    #[test]
    fn zero_len_arena() {
        let a: PortArena<u64> = PortArena::new(0);
        assert!(a.is_empty());
        assert_eq!(a.count_present(), 0);
    }
}
