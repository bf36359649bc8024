//! A generic set-associative table with true-LRU replacement, shared by the
//! BTB, the FTB and the stream predictor.

use smt_isa::Presized;

/// One way of a set.
#[derive(Clone, Debug)]
struct Way<E> {
    tag: u64,
    lru: u64,
    entry: E,
}

/// A set-associative, tagged table with true-LRU replacement.
///
/// The table is generic over the payload `E`. Callers supply `(set, tag)`
/// pairs; helpers for deriving them from addresses live with the callers,
/// since index/tag splits differ between structures.
#[derive(Clone, Debug)]
pub struct SetAssoc<E> {
    sets: Vec<Presized<Vec<Way<E>>>>,
    ways: usize,
    tick: u64,
    lookups: u64,
    hits: u64,
}

impl<E> SetAssoc<E> {
    /// Creates a table with `entries` total entries organized as
    /// `entries / ways` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of a positive `ways`,
    /// or if the resulting set count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries > 0 && entries.is_multiple_of(ways),
            "entries ({entries}) must be a positive multiple of ways ({ways})"
        );
        let num_sets = entries / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two (got {num_sets})"
        );
        SetAssoc {
            sets: (0..num_sets).map(|_| Presized::vec(ways)).collect(),
            ways,
            tick: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set-index mask (`num_sets - 1`).
    pub fn set_mask(&self) -> u64 {
        self.sets.len() as u64 - 1
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked to the set count")]
    fn set_index(&self, set: u64) -> usize {
        (set & self.set_mask()) as usize
    }

    fn set_of(&mut self, set: u64) -> &mut Vec<Way<E>> {
        let i = self.set_index(set);
        &mut self.sets[i]
    }

    /// Looks up `(set, tag)`, updating LRU and hit statistics on hit.
    pub fn lookup(&mut self, set: u64, tag: u64) -> Option<&mut E> {
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let i = self.set_index(set);
        let ways = &mut self.sets[i];
        match ways.iter_mut().find(|w| w.tag == tag) {
            Some(w) => {
                w.lru = tick;
                self.hits += 1;
                Some(&mut w.entry)
            }
            None => None,
        }
    }

    /// Looks up `(set, tag)` without touching LRU or statistics.
    pub fn peek(&self, set: u64, tag: u64) -> Option<&E> {
        self.sets[self.set_index(set)]
            .iter()
            .find(|w| w.tag == tag)
            .map(|w| &w.entry)
    }

    /// Inserts or replaces the entry for `(set, tag)`.
    ///
    /// On conflict the least-recently-used way is evicted; the evicted
    /// payload is returned (with its tag) so callers can model writebacks.
    pub fn insert(&mut self, set: u64, tag: u64, entry: E) -> Option<(u64, E)> {
        self.tick += 1;
        let tick = self.tick;
        let cap = self.ways;
        let ways = self.set_of(set);
        if let Some(w) = ways.iter_mut().find(|w| w.tag == tag) {
            w.lru = tick;
            let old = std::mem::replace(&mut w.entry, entry);
            return Some((tag, old));
        }
        if ways.len() < cap {
            ways.push(Way {
                tag,
                lru: tick,
                entry,
            });
            return None;
        }
        #[expect(clippy::expect_used, reason = "ways.len() == cap > 0, so never empty")]
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("set is non-empty: ways.len() == cap > 0");
        let old_tag = victim.tag;
        victim.tag = tag;
        victim.lru = tick;
        let old = std::mem::replace(&mut victim.entry, entry);
        Some((old_tag, old))
    }

    /// Invalidates `(set, tag)` if present, returning the payload.
    pub fn invalidate(&mut self, set: u64, tag: u64) -> Option<E> {
        let ways = self.set_of(set);
        let pos = ways.iter().position(|w| w.tag == tag)?;
        Some(ways.swap_remove(pos).entry)
    }

    /// `(lookups, hits)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let t: SetAssoc<u32> = SetAssoc::new(2048, 4);
        assert_eq!(t.num_sets(), 512);
        assert_eq!(t.ways(), 4);
        assert_eq!(t.set_mask(), 511);
    }

    #[test]
    fn insert_then_lookup() {
        let mut t: SetAssoc<u32> = SetAssoc::new(16, 4);
        assert!(t.insert(1, 100, 42).is_none());
        assert_eq!(t.lookup(1, 100), Some(&mut 42));
        assert_eq!(t.peek(1, 100), Some(&42));
        assert_eq!(t.lookup(1, 101), None);
        assert_eq!(t.lookup(2, 100), None);
    }

    #[test]
    fn insert_same_tag_replaces() {
        let mut t: SetAssoc<u32> = SetAssoc::new(16, 4);
        t.insert(0, 7, 1);
        let old = t.insert(0, 7, 2);
        assert_eq!(old, Some((7, 1)));
        assert_eq!(t.peek(0, 7), Some(&2));
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut t: SetAssoc<u32> = SetAssoc::new(8, 4); // 2 sets × 4 ways
        for tag in 0..4u32 {
            t.insert(0, tag.into(), tag);
        }
        // Touch tags 0, 2, 3 — tag 1 becomes LRU.
        t.lookup(0, 0);
        t.lookup(0, 2);
        t.lookup(0, 3);
        let evicted = t.insert(0, 99, 99);
        assert_eq!(evicted, Some((1, 1)));
        assert!(t.peek(0, 1).is_none());
        assert!(t.peek(0, 0).is_some());
    }

    #[test]
    fn sets_are_independent() {
        let mut t: SetAssoc<u32> = SetAssoc::new(8, 4);
        for tag in 0..4 {
            t.insert(0, tag, 0);
        }
        // Set 1 is still empty; inserting there evicts nothing.
        assert!(t.insert(1, 50, 1).is_none());
    }

    #[test]
    fn invalidate_removes() {
        let mut t: SetAssoc<u32> = SetAssoc::new(16, 4);
        t.insert(3, 8, 5);
        assert_eq!(t.invalidate(3, 8), Some(5));
        assert!(t.peek(3, 8).is_none());
        assert_eq!(t.invalidate(3, 8), None);
    }

    #[test]
    fn set_index_wraps() {
        let mut t: SetAssoc<u32> = SetAssoc::new(8, 4); // 2 sets
        t.insert(5, 1, 9); // set 5 & 1 = 1
        assert_eq!(t.peek(1, 1), Some(&9));
    }

    #[test]
    fn stats_count_lookups_and_hits() {
        let mut t: SetAssoc<u32> = SetAssoc::new(16, 4);
        t.insert(0, 1, 1);
        t.lookup(0, 1);
        t.lookup(0, 2);
        assert_eq!(t.stats(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_rejected() {
        let _ = SetAssoc::<u32>::new(12, 4);
    }

    #[test]
    #[should_panic(expected = "positive multiple of ways")]
    fn empty_table_rejected() {
        let _ = SetAssoc::<u32>::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "positive multiple of ways")]
    fn entries_not_a_multiple_of_ways_rejected() {
        let _ = SetAssoc::<u32>::new(10, 4);
    }
}
