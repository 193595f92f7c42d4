//! Fixed-record seqlock ring: the one publication protocol behind the
//! span rings ([`span`](mod@crate::span)) and `pecan-serve`'s flight
//! recorder.
//!
//! Writers claim logical position `n` with one `fetch_add`, so any number
//! may push at once, then publish through the slot's sequence word:
//! `2·n + 1` while storing, `2·n + 2` once consistent, `0` never written.
//! A reader that sees `2·n + 2` before and after copying got record `n`
//! whole; torn or lapped slots are skipped. A writer takes its slot by
//! compare-exchange from an older even sequence, so no two writers store
//! into one slot: a record whose slot is still being written when the
//! ring laps it is dropped (it still counts in [`SeqRing::recorded`]).

use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// Lock-free, allocation-free ring keeping the newest `capacity` records
/// of `W` words; the oldest are overwritten. See the module docs.
pub struct SeqRing<const W: usize> {
    head: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> std::fmt::Debug for SeqRing<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SeqRing {{ capacity: {}, recorded: {} }}", self.capacity(), self.recorded())
    }
}

impl<const W: usize> SeqRing<W> {
    /// A ring keeping the newest `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let slot =
            |_| Slot { seq: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) };
        Self { head: AtomicU64::new(0), slots: (0..capacity.max(1)).map(slot).collect() }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        // ordering: Relaxed — pairs with `push`'s Relaxed fetch_add; a
        // monotone counter read in isolation needs no ordering.
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one record without blocking or allocating.
    pub fn push(&self, words: [u64; W]) {
        // ordering: Relaxed — the fetch_add only hands out a unique
        // position; publication is carried by the slot's `seq`.
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let (seq, storing) = (&slot.seq, 2 * n + 1);
        // An odd `seq` is another writer mid-store, a larger one a newer
        // record: this record yields to either.
        // ordering: Relaxed load and claim failure — a stale value only
        // fails the claim, dropping the record. Acquire on success pairs
        // with the previous writer's Release store of its even `seq`, so
        // its word stores precede ours.
        let seen = seq.load(Ordering::Relaxed);
        if seen % 2 == 1
            || seen > storing
            || seq.compare_exchange(seen, storing, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            return;
        }
        // Pairs with the Acquire fence in `read`: no word store below is
        // visible before the odd `seq`.
        fence(Ordering::Release);
        // ordering: Relaxed — fenced by the Release fence above and the
        // Release store of `seq` below.
        for (dst, src) in slot.words.iter().zip(words) {
            dst.store(src, Ordering::Relaxed);
        }
        seq.store(storing + 1, Ordering::Release);
    }

    /// Every consistent record, oldest first.
    pub fn read(&self) -> Vec<[u64; W]> {
        let head = self.recorded();
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        for n in head.saturating_sub(cap)..head {
            let slot = &self.slots[(n % cap) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before != 2 * n + 2 {
                continue;
            }
            // ordering: Relaxed — bracketed by the Acquire load of `seq`
            // above and the Acquire fence below, pairing with `push`'s
            // Release store and fence: an unchanged `seq` across the copy
            // proves the words are record n's.
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            // ordering: Relaxed — kept after the word loads by the fence.
            if slot.seq.load(Ordering::Relaxed) == before {
                out.push(words);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every word derives from `id`, so a torn read breaks the relation.
    fn rec(id: u64) -> [u64; 3] {
        [id, id * 7, !id]
    }

    #[test]
    fn keeps_newest_capacity_records_in_order() {
        let ring = SeqRing::new(4);
        (0..10).for_each(|id| ring.push(rec(id)));
        assert_eq!(ring.read(), (6..10).map(rec).collect::<Vec<_>>());
        assert_eq!((ring.recorded(), ring.capacity()), (10, 4));
        assert_eq!(SeqRing::<1>::new(0).capacity(), 1);
    }

    #[test]
    fn partial_fill_reads_only_written_slots() {
        let ring = SeqRing::new(8);
        ring.push(rec(1));
        ring.push(rec(2));
        assert_eq!(ring.read(), vec![rec(1), rec(2)]);
    }

    #[test]
    fn a_slot_still_being_written_drops_the_lapping_record() {
        let ring = SeqRing::new(2);
        // A writer of position 2 stalled mid-store in slot 0.
        ring.head.store(3, Ordering::Relaxed);
        ring.slots[0].seq.store(5, Ordering::Relaxed);
        ring.push(rec(3)); // slot 1
        ring.push(rec(4)); // slot 0, still held: dropped
        assert_eq!(ring.read(), vec![rec(3)]);
        assert_eq!((ring.recorded(), ring.slots[0].seq.load(Ordering::Relaxed)), (5, 5));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let (writers, per_writer, reads) = if cfg!(miri) { (3, 40, 10) } else { (4, 500, 50) };
        let ring = SeqRing::new(16);
        std::thread::scope(|s| {
            for t in 0..writers {
                let ring = &ring;
                s.spawn(move || (0..per_writer).for_each(|i| ring.push(rec(t * 1000 + i))));
            }
            for _ in 0..reads {
                for w in ring.read() {
                    assert_eq!(w, rec(w[0]), "torn record: {w:?}");
                }
            }
        });
        assert_eq!(ring.recorded(), writers * per_writer);
    }
}
