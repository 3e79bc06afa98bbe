//! A packed fixed-size bitmap.
//!
//! Used by the virtio-mem device model to track which sub-blocks of the
//! managed region are plugged, and by the guest block layer to track
//! online blocks.

/// A fixed-capacity bitmap over `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// Creates a bitmap with `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Returns the number of bits in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`, returning its previous value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let was = *word & mask != 0;
        *word |= mask;
        if !was {
            self.ones += 1;
        }
        was
    }

    /// Clears bit `i`, returning its previous value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let was = *word & mask != 0;
        *word &= !mask;
        if was {
            self.ones -= 1;
        }
        was
    }

    /// Sets bits `[start, start + n)`, returning how many were newly
    /// set. Whole-word equivalent of `n` [`Bitmap::set`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the map.
    pub fn set_range(&mut self, start: usize, n: usize) -> usize {
        let newly = self.update_range(start, n, |word, mask| {
            let newly = (mask & !*word).count_ones();
            *word |= mask;
            newly
        });
        self.ones += newly;
        newly
    }

    /// Clears bits `[start, start + n)`, returning how many were
    /// previously set. Whole-word equivalent of `n` [`Bitmap::clear`]
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the map.
    pub fn clear_range(&mut self, start: usize, n: usize) -> usize {
        let dropped = self.update_range(start, n, |word, mask| {
            let dropped = (mask & *word).count_ones();
            *word &= !mask;
            dropped
        });
        self.ones -= dropped;
        dropped
    }

    /// Sets bits `[start, start + n)`, which the caller knows are all
    /// clear: the words are written without being read or counted.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the map, and (debug) if
    /// a bit of it is set.
    pub fn set_clear_range(&mut self, start: usize, n: usize) {
        debug_assert_eq!(
            self.count_zeros_in(start, n),
            n,
            "range {start}+{n} not clear"
        );
        self.update_range(start, n, |word, mask| {
            *word |= mask;
            0
        });
        self.ones += n;
    }

    /// Clears bits `[start, start + n)`, of which the caller knows `ones`
    /// are set: the words are written without being read or counted,
    /// and not at all when `ones` is 0.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the map, and (debug) if
    /// it does not hold `ones` set bits.
    pub fn clear_counted_range(&mut self, start: usize, n: usize, ones: usize) {
        debug_assert_eq!(n - self.count_zeros_in(start, n), ones, "range {start}+{n}");
        if ones == 0 {
            return;
        }
        self.update_range(start, n, |word, mask| {
            *word &= !mask;
            0
        });
        self.ones -= ones;
    }

    /// Calls `f` on every word that `[start, start + n)` overlaps, with
    /// the mask of the range's bits in it, and sums what it returns. The
    /// whole words between the first and the last take a constant mask
    /// in a plain slice loop, which the compiler vectorizes.
    #[inline]
    fn update_range(&mut self, start: usize, n: usize, f: impl Fn(&mut u64, u64) -> u32) -> usize {
        assert!(
            start + n <= self.len,
            "range {start}+{n} out of {}",
            self.len
        );
        if n == 0 {
            return 0;
        }
        let end = start + n;
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            return f(&mut self.words[first], head & tail) as usize;
        }
        let mut sum = f(&mut self.words[first], head) as usize;
        sum += f(&mut self.words[last], tail) as usize;
        for word in &mut self.words[first + 1..last] {
            sum += f(word, u64::MAX) as usize;
        }
        sum
    }

    /// Counts clear bits in `[start, start + n)`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the map.
    pub fn count_zeros_in(&self, start: usize, n: usize) -> usize {
        assert!(
            start + n <= self.len,
            "range {start}+{n} out of {}",
            self.len
        );
        if n == 0 {
            return 0;
        }
        let end = start + n;
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        let zeros = |w: u64, mask: u64| (mask & !w).count_ones() as usize;
        if first == last {
            return zeros(self.words[first], head & tail);
        }
        let whole: usize = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_zeros() as usize)
            .sum();
        zeros(self.words[first], head) + whole + zeros(self.words[last], tail)
    }

    /// Returns the index of the first clear bit, or `None` if all set.
    pub fn first_zero(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let bit = (!w).trailing_zeros() as usize;
                let idx = wi * 64 + bit;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.set(0));
        assert!(!b.set(64));
        assert!(!b.set(129));
        assert!(b.set(129), "second set reports prior value");
        assert_eq!(b.count_ones(), 3);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn first_zero_and_one() {
        let mut b = Bitmap::new(70);
        assert_eq!(b.first_zero(), Some(0));
        for i in 0..70 {
            b.set(i);
        }
        assert_eq!(b.first_zero(), None);
        b.clear(69);
        assert_eq!(b.first_zero(), Some(69));
    }

    #[test]
    fn range_ops_match_per_bit_ops() {
        // Every (start, n) window over a word boundary, checked against
        // the per-bit reference.
        for start in 0..70 {
            for n in 0..70 {
                if start + n > 130 {
                    continue;
                }
                let mut bulk = Bitmap::new(130);
                let mut bit = Bitmap::new(130);
                // Pre-set a pattern so set/clear see mixed prior state.
                for i in (0..130).step_by(3) {
                    bulk.set(i);
                    bit.set(i);
                }
                let newly = bulk.set_range(start, n);
                let mut newly_ref = 0;
                for i in start..start + n {
                    if !bit.set(i) {
                        newly_ref += 1;
                    }
                }
                assert_eq!(newly, newly_ref, "set_range({start}, {n})");
                assert_eq!(bulk, bit);
                assert_eq!(bulk.count_zeros_in(start, n), 0);

                let dropped = bulk.clear_range(start, n);
                let mut dropped_ref = 0;
                for i in start..start + n {
                    if bit.clear(i) {
                        dropped_ref += 1;
                    }
                }
                assert_eq!(dropped, dropped_ref, "clear_range({start}, {n})");
                assert_eq!(bulk, bit);
                assert_eq!(bulk.count_zeros_in(start, n), n);
            }
        }
    }

    #[test]
    fn counted_writes_match_range_ops() {
        for start in 0..70 {
            for n in 0..70 {
                let mut counted = Bitmap::new(140);
                let mut reference = Bitmap::new(140);
                counted.set_clear_range(start, n);
                reference.set_range(start, n);
                assert_eq!(counted, reference, "set_clear_range({start}, {n})");
                // Pre-set a pattern, then clear a window holding it.
                for i in (0..140).step_by(5) {
                    counted.set(i);
                    reference.set(i);
                }
                let ones = n - counted.count_zeros_in(start, n);
                counted.clear_counted_range(start, n, ones);
                assert_eq!(reference.clear_range(start, n), ones);
                assert_eq!(counted, reference, "clear_counted_range({start}, {n})");
            }
        }
    }

    #[test]
    fn count_zeros_in_counts_window_only() {
        let mut b = Bitmap::new(200);
        b.set(10);
        b.set(64);
        b.set(65);
        assert_eq!(b.count_zeros_in(0, 200), 197);
        assert_eq!(b.count_zeros_in(10, 1), 0);
        assert_eq!(b.count_zeros_in(11, 53), 53);
        assert_eq!(b.count_zeros_in(60, 10), 8);
        assert_eq!(b.count_zeros_in(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::new(10).get(10);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.first_zero(), None);
    }
}
