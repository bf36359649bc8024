//! Saturating counters — the basic state element of direction predictors.

/// A 2-bit saturating counter.
///
/// States 0–1 predict not-taken, 2–3 predict taken. New counters start
/// weakly taken (2), which favours the loop branches that dominate dynamic
/// conditional branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TwoBit(u8);

impl TwoBit {
    /// Strongly not-taken.
    pub const STRONG_NT: TwoBit = TwoBit(0);
    /// Weakly not-taken.
    pub const WEAK_NT: TwoBit = TwoBit(1);
    /// Weakly taken.
    pub const WEAK_T: TwoBit = TwoBit(2);
    /// Strongly taken.
    pub const STRONG_T: TwoBit = TwoBit(3);

    /// Creates a counter in the given state (clamped to 0..=3).
    pub fn new(state: u8) -> Self {
        TwoBit(state.min(3))
    }

    /// The predicted direction.
    pub fn taken(self) -> bool {
        self.0 >= 2
    }

    /// Whether the counter is in a saturated (strong) state.
    pub fn is_strong(self) -> bool {
        self.0 == 0 || self.0 == 3
    }

    /// Trains the counter toward the actual outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }

    /// Raw state, 0..=3.
    pub fn state(self) -> u8 {
        self.0
    }
}

impl Default for TwoBit {
    fn default() -> Self {
        TwoBit::WEAK_T
    }
}

/// A table of 2-bit counters of power-of-two size, bit-packed 32 counters
/// per `u64` word.
///
/// The packed layout quarters the table footprint versus one byte per
/// counter, so the large gshare/gskew banks (Table 3: up to 64K entries)
/// fit in 16 KB instead of 64 KB and stay resident in the host L1/L2 while
/// the simulator runs. Packing is an implementation detail: the API is
/// value-based ([`TwoBit`] in, [`TwoBit`] out) and behaves identically to
/// the byte-array layout — proven by the differential property test in
/// `tests/properties.rs` (`packed_counter_table_matches_byte_reference`).
#[derive(Clone, Debug)]
pub struct CounterTable {
    /// 32 two-bit counters per word, counter `i` at bits `2*(i%32)..`.
    words: Vec<u64>,
    entries: usize,
    mask: u64,
}

/// Every counter in a fresh table starts weakly taken (state 2,
/// `0b10` — replicated across a word this is `0xAAAA_AAAA_AAAA_AAAA`).
const INIT_WORD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

impl CounterTable {
    /// Creates a table with `entries` counters, all weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two (zero included).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "counter-table size must be a power of two (got {entries})"
        );
        CounterTable {
            words: vec![INIT_WORD; entries.div_ceil(32)],
            entries,
            mask: entries as u64 - 1,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table is empty (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The packed slot of `index` (wrapped into range).
    #[expect(clippy::cast_possible_truncation, reason = "masked to the entry count")]
    fn slot(&self, index: u64) -> usize {
        (index & self.mask) as usize
    }

    /// The counter at `index` (wrapped into range).
    pub fn get(&self, index: u64) -> TwoBit {
        let i = self.slot(index);
        TwoBit(((self.words[i >> 5] >> ((i & 31) * 2)) & 0b11) as u8)
    }

    /// Trains the counter at `index` (wrapped into range).
    pub fn update(&mut self, index: u64, taken: bool) {
        let i = self.slot(index);
        let shift = (i & 31) * 2;
        let word = &mut self.words[i >> 5];
        let state = ((*word >> shift) & 0b11) as u8;
        let next = if taken {
            (state + 1).min(3)
        } else {
            state.saturating_sub(1)
        };
        *word = (*word & !(0b11 << shift)) | (u64::from(next) << shift);
    }

    /// Overwrites the counter at `index` (wrapped into range) with `state`.
    ///
    /// This is the write half of a batched probe: a caller that already read
    /// the counter (e.g. through a `GskewProbe`) trains it in registers and
    /// writes the result back without re-reading the packed word's counter
    /// bits. `set(i, trained(get(i)))` is exactly [`CounterTable::update`]
    /// as long as the table was not touched between the read and the write.
    pub fn set(&mut self, index: u64, state: TwoBit) {
        let i = self.slot(index);
        let shift = (i & 31) * 2;
        let word = &mut self.words[i >> 5];
        *word = (*word & !(0b11 << shift)) | (u64::from(state.state()) << shift);
    }

    /// Index mask (`len - 1`).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Bytes of storage actually held (packed words).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_saturates_both_ends() {
        let mut c = TwoBit::STRONG_NT;
        c.update(false);
        assert_eq!(c, TwoBit::STRONG_NT);
        c.update(true);
        assert_eq!(c, TwoBit::WEAK_NT);
        c.update(true);
        c.update(true);
        assert_eq!(c, TwoBit::STRONG_T);
        c.update(true);
        assert_eq!(c, TwoBit::STRONG_T);
    }

    #[test]
    fn two_bit_hysteresis() {
        // A single anomalous not-taken outcome must not flip a strong-taken
        // counter's prediction.
        let mut c = TwoBit::STRONG_T;
        c.update(false);
        assert!(c.taken());
        c.update(false);
        assert!(!c.taken());
    }

    #[test]
    fn default_is_weakly_taken() {
        assert_eq!(TwoBit::default(), TwoBit::WEAK_T);
        assert!(TwoBit::default().taken());
        assert!(!TwoBit::default().is_strong());
    }

    #[test]
    fn new_clamps() {
        assert_eq!(TwoBit::new(9), TwoBit::STRONG_T);
    }

    #[test]
    fn table_wraps_indices() {
        let mut t = CounterTable::new(16);
        assert_eq!(t.len(), 16);
        t.update(3, false);
        t.update(3 + 16, false);
        assert!(!t.get(3).taken());
        assert_eq!(t.get(3), t.get(19));
    }

    #[test]
    fn packed_table_initialises_weakly_taken() {
        let t = CounterTable::new(128);
        for i in 0..128 {
            assert_eq!(t.get(i), TwoBit::WEAK_T, "counter {i}");
        }
        // 128 counters × 2 bits = 32 bytes, a quarter of the byte layout.
        assert_eq!(t.storage_bytes(), 32);
    }

    #[test]
    fn packed_neighbours_are_independent() {
        // Updates to a counter never disturb the other 31 sharing its word.
        let mut t = CounterTable::new(64);
        t.update(33, false);
        t.update(33, false);
        assert_eq!(t.get(33), TwoBit::STRONG_NT);
        t.update(34, true);
        assert_eq!(t.get(34), TwoBit::STRONG_T);
        assert_eq!(t.get(32), TwoBit::WEAK_T);
        assert_eq!(t.get(35), TwoBit::WEAK_T);
        assert_eq!(t.get(33), TwoBit::STRONG_NT);
    }

    #[test]
    fn sub_word_table_works() {
        // Tables smaller than one packed word still hold `entries` counters.
        let mut t = CounterTable::new(2);
        assert_eq!(t.len(), 2);
        t.update(0, false);
        t.update(1, true);
        assert!(!t.get(0).taken());
        assert!(t.get(1).taken());
        // Index 2 wraps onto 0.
        assert_eq!(t.get(2), t.get(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_rejected() {
        let _ = CounterTable::new(12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_size_rejected() {
        let _ = CounterTable::new(0);
    }
}
