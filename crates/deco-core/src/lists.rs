//! Color lists and color-space partitions.
//!
//! A [`ColorList`] is a set of colors from a palette `{0, …, C−1}`, stored
//! as a bitset over the span of its colors with a cached length: cloning a
//! list copies `C/64` words, removing `k` colors costs `O(k)`, and the
//! range queries of the partition code work a word at a time.
//! A [`SubspacePartition`] splits the palette into `q ≤ 2p` contiguous
//! blocks of size ≤ `C/p` (the partition Lemma 4.3 requires; the paper notes
//! such a partition always exists). [`level_of`] computes the "level" `ℓ(e)`
//! of a list relative to a partition, the quantity at the heart of
//! Lemma 4.4.

use deco_graph::coloring::Color;
use deco_local::math::{floor_log2, harmonic};
use std::fmt;

/// The candidate colors of one edge: a bitset over the span `[min, max]`
/// of its colors, plus a cached length.
///
/// Equality compares content, not span. The span is fixed when the list is
/// built, so its memory is `(max − min)/64 + 1` words however many colors
/// are later removed.
#[derive(Clone, Default)]
pub struct ColorList {
    /// The color of bit 0 of `words[0]`.
    base: Color,
    /// Bit `i` of `words[w]` stands for color `base + 64·w + i`.
    words: Vec<u64>,
    /// Number of set bits.
    len: usize,
}

/// Bits `lo..=hi` of a word (`lo ≤ hi < 64`).
#[inline]
fn word_mask(lo: u64, hi: u64) -> u64 {
    (!0u64 << lo) & (!0u64 >> (63 - hi))
}

impl ColorList {
    /// Builds a list from arbitrary colors (any order, duplicates ignored).
    pub fn new(colors: Vec<Color>) -> ColorList {
        let (Some(&min), Some(&max)) = (colors.iter().min(), colors.iter().max()) else {
            return ColorList::default();
        };
        let mut list = ColorList::zeroed(min, max);
        for c in colors {
            let (w, bit) = list.slot(c).expect("color inside the span");
            if list.words[w] & bit == 0 {
                list.words[w] |= bit;
                list.len += 1;
            }
        }
        list
    }

    /// The contiguous list `{lo, …, hi−1}`.
    pub fn range(lo: Color, hi: Color) -> ColorList {
        if lo >= hi {
            return ColorList::default();
        }
        let mut list = ColorList::zeroed(lo, hi - 1);
        list.words.fill(!0);
        *list.words.last_mut().expect("a nonempty span") &=
            word_mask(0, u64::from(hi - 1 - lo) % 64);
        list.len = (hi - lo) as usize;
        list
    }

    /// An empty list whose span covers `[min, max]`.
    fn zeroed(min: Color, max: Color) -> ColorList {
        ColorList {
            base: min,
            words: vec![0; ((max - min) / 64) as usize + 1],
            len: 0,
        }
    }

    /// The word index and bit of `c`, if `c` lies inside the span.
    #[inline]
    fn slot(&self, c: Color) -> Option<(usize, u64)> {
        let off = c.checked_sub(self.base)?;
        let w = (off / 64) as usize;
        (w < self.words.len()).then(|| (w, 1u64 << (off % 64)))
    }

    /// The words of the span that meet `[lo, hi)`, masked to it, and the
    /// color of bit 0 of the first one; `None` if the span misses `[lo, hi)`.
    fn window(&self, lo: Color, hi: Color) -> Option<(Color, impl Iterator<Item = u64> + '_)> {
        let base = u64::from(self.base);
        let start = u64::from(lo).max(base);
        let end = u64::from(hi).min(base + 64 * self.words.len() as u64);
        if start >= end {
            return None;
        }
        let (first, last) = (start - base, end - 1 - base);
        let (wa, wb) = ((first / 64) as usize, (last / 64) as usize);
        let words = self.words[wa..=wb].iter().enumerate().map(move |(i, &w)| {
            let lo_bit = if i == 0 { first % 64 } else { 0 };
            let hi_bit = if i == wb - wa { last % 64 } else { 63 };
            w & word_mask(lo_bit, hi_bit)
        });
        Some((self.base + 64 * wa as Color, words))
    }

    /// Number of colors in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `c` is in the list.
    #[inline]
    pub fn contains(&self, c: Color) -> bool {
        self.slot(c)
            .is_some_and(|(w, bit)| self.words[w] & bit != 0)
    }

    /// Iterates over the colors in increasing order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Color> + '_ {
        Iter {
            words: self.words.iter(),
            next_base: u64::from(self.base),
            word_base: 0,
            bits: 0,
            left: self.len,
        }
    }

    /// The colors in increasing order, as a vector.
    pub fn to_vec(&self) -> Vec<Color> {
        self.iter().collect()
    }

    /// The smallest color, if any.
    pub fn first(&self) -> Option<Color> {
        self.iter().next()
    }

    /// The largest color, if any.
    pub fn last(&self) -> Option<Color> {
        let (w, word) = self
            .words
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &word)| word != 0)?;
        Some(self.base + 64 * w as Color + (63 - word.leading_zeros()))
    }

    /// Removes `c` if present; returns whether it was present.
    pub fn remove(&mut self, c: Color) -> bool {
        match self.slot(c) {
            Some((w, bit)) if self.words[w] & bit != 0 => {
                self.words[w] &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes every color in `forbidden` (any order; duplicates and
    /// colors not in the list are ignored).
    pub fn remove_all(&mut self, forbidden: &[Color]) {
        for &c in forbidden {
            self.remove(c);
        }
    }

    /// Number of colors in `self ∩ [lo, hi)`, a popcount per word — the
    /// partition blocks are contiguous, so intersections are ranges.
    pub fn count_in_range(&self, lo: Color, hi: Color) -> usize {
        self.window(lo, hi)
            .map_or(0, |(_, words)| words.map(|w| w.count_ones() as usize).sum())
    }

    /// The sub-list `self ∩ [lo, hi)`.
    pub fn restrict_to_range(&self, lo: Color, hi: Color) -> ColorList {
        self.window(lo, hi)
            .map_or_else(ColorList::default, |(base, words)| {
                let words: Vec<u64> = words.collect();
                ColorList {
                    base,
                    len: words.iter().map(|w| w.count_ones() as usize).sum(),
                    words,
                }
            })
    }
}

/// Iterator over a [`ColorList`]'s colors in increasing order.
struct Iter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Color of bit 0 of the next word `words` yields.
    next_base: u64,
    /// Color of bit 0 of the word `bits` came from.
    word_base: u64,
    /// Bits of the current word not yet yielded.
    bits: u64,
    /// Colors not yet yielded.
    left: usize,
}

impl Iterator for Iter<'_> {
    type Item = Color;

    #[inline]
    fn next(&mut self) -> Option<Color> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.word_base = self.next_base;
            self.next_base += 64;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        self.left -= 1;
        Some((self.word_base + u64::from(bit)) as Color)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl PartialEq for ColorList {
    fn eq(&self, other: &ColorList) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ColorList {}

impl FromIterator<Color> for ColorList {
    fn from_iter<I: IntoIterator<Item = Color>>(iter: I) -> Self {
        ColorList::new(iter.into_iter().collect())
    }
}

impl fmt::Debug for ColorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColorList")?;
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ColorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// A partition of the palette `{0, …, C−1}` into `q` contiguous blocks
/// `C_1, …, C_q` of uniform size (the last may be smaller).
///
/// Constructed by [`SubspacePartition::new`] to satisfy Lemma 4.3's
/// requirements: `q ≤ 2p` blocks, each of size at most `C/p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubspacePartition {
    palette: u32,
    block: u32,
    q: u32,
}

impl SubspacePartition {
    /// Partitions a palette of size `palette` for parameter `p ∈ [2, palette]`.
    ///
    /// Block size is `max(1, ⌊C/p⌋)`, which yields `q ≤ 2p` blocks of size
    /// ≤ `C/p` (for `p` dividing `C` this is exactly `p` blocks of size
    /// `C/p`, matching the paper's Figure 5 example).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ p ≤ palette`.
    pub fn new(palette: u32, p: u32) -> SubspacePartition {
        assert!(p >= 2, "p must be at least 2");
        assert!(p <= palette, "p must be at most the palette size");
        let block = (palette / p).max(1);
        let q = palette.div_ceil(block);
        debug_assert!(q <= 2 * p, "q={q} exceeds 2p={}", 2 * p);
        debug_assert!(block as u64 * p as u64 <= palette as u64 || block == 1);
        SubspacePartition { palette, block, q }
    }

    /// Number of blocks `q` (`≤ 2p`).
    #[inline]
    pub fn num_subspaces(&self) -> u32 {
        self.q
    }

    /// Palette size `C`.
    #[inline]
    pub fn palette(&self) -> u32 {
        self.palette
    }

    /// Uniform block size (last block may be smaller).
    #[inline]
    pub fn block_size(&self) -> u32 {
        self.block
    }

    /// The color range `[lo, hi)` of block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ q`.
    pub fn range(&self, i: u32) -> (Color, Color) {
        assert!(i < self.q, "subspace index out of range");
        let lo = i * self.block;
        let hi = ((i + 1) * self.block).min(self.palette);
        (lo, hi)
    }

    /// The block containing color `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the palette.
    pub fn subspace_of(&self, c: Color) -> u32 {
        assert!(c < self.palette, "color outside palette");
        c / self.block
    }

    /// `|list ∩ C_i|` for every block `i`.
    pub fn intersection_sizes(&self, list: &ColorList) -> Vec<usize> {
        let sizes: Vec<usize> = (0..self.q)
            .map(|i| {
                let (lo, hi) = self.range(i);
                list.count_in_range(lo, hi)
            })
            .collect();
        debug_assert_eq!(
            sizes.iter().sum::<usize>(),
            list.len(),
            "list colors outside the palette"
        );
        sizes
    }
}

/// Outcome of the Lemma 4.4 analysis for one list.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelInfo {
    /// The level `ℓ(e)`: the largest `ℓ` such that at least `2^ℓ` blocks
    /// have intersection ≥ `|L|/(2^{ℓ+1}·H_q)`.
    pub level: u32,
    /// Indices of blocks meeting the level-`ℓ` threshold, sorted by
    /// decreasing intersection size.
    pub indices: Vec<u32>,
    /// The threshold `|L|/(2^{ℓ+1}·H_q)` used at this level.
    pub threshold: f64,
}

/// Computes the level `ℓ(e)` of a nonempty list relative to a partition.
///
/// Lemma 4.4 guarantees an integer `k` with `k` blocks of intersection
/// ≥ `|L|/(k·H_q)`; taking `ℓ = ⌊log₂ k⌋` always yields a valid level, so
/// the maximum over valid levels exists.
///
/// # Panics
///
/// Panics if `list` is empty.
pub fn level_of(list: &ColorList, partition: &SubspacePartition) -> LevelInfo {
    assert!(!list.is_empty(), "level is undefined for an empty list");
    let q = partition.num_subspaces() as u64;
    let hq = harmonic(q);
    let len = list.len() as f64;
    let sizes = partition.intersection_sizes(list);
    // Blocks sorted by decreasing intersection.
    let mut order: Vec<u32> = (0..partition.num_subspaces()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i as usize]));

    let max_level = floor_log2(q);
    for level in (0..=max_level).rev() {
        let threshold = len / (2f64.powi(level as i32 + 1) * hq);
        let need = 1usize << level;
        let have = order
            .iter()
            .take_while(|&&i| sizes[i as usize] as f64 >= threshold)
            .count();
        if have >= need {
            return LevelInfo {
                level,
                indices: order.into_iter().take(have).collect(),
                threshold,
            };
        }
    }
    unreachable!("Lemma 4.4 guarantees some level is valid");
}

/// Direct statement of Lemma 4.4: the largest `k` such that `k` blocks all
/// have intersection ≥ `|L|/(k·H_q)`; returns `(k, indices)`.
///
/// # Panics
///
/// Panics if `list` is empty.
pub fn lemma44_witness(list: &ColorList, partition: &SubspacePartition) -> (usize, Vec<u32>) {
    assert!(!list.is_empty(), "witness is undefined for an empty list");
    let q = partition.num_subspaces() as u64;
    let hq = harmonic(q);
    let len = list.len() as f64;
    let sizes = partition.intersection_sizes(list);
    let mut order: Vec<u32> = (0..partition.num_subspaces()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i as usize]));
    let mut best: Option<usize> = None;
    for k in 1..=order.len() {
        let kth = sizes[order[k - 1] as usize] as f64;
        if kth >= len / (k as f64 * hq) {
            best = Some(k);
        }
    }
    let k = best.expect("Lemma 4.4: some k is always valid");
    (k, order.into_iter().take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_basics() {
        let mut l = ColorList::new(vec![5, 1, 3, 3, 1]);
        assert_eq!(l.to_vec(), [1, 3, 5]);
        assert_eq!(l.len(), 3);
        assert!(l.contains(3));
        assert!(!l.contains(2));
        assert!(l.remove(3));
        assert!(!l.remove(3));
        assert_eq!(l.len(), 2);
        l.remove_all(&[5, 9]);
        assert_eq!(l.to_vec(), [1]);
        assert_eq!(l.first(), Some(1));
        assert_eq!(l.to_string(), "{1}");
    }

    /// Checks `list` against the sorted, duplicate-free reference `model`.
    fn assert_matches_model(list: &ColorList, model: &[Color], ctx: &str) {
        assert_eq!(list.to_vec(), model, "{ctx}: iter order");
        assert_eq!(list.iter().len(), model.len(), "{ctx}: iter len");
        assert_eq!(list.len(), model.len(), "{ctx}: len");
        assert_eq!(list.is_empty(), model.is_empty(), "{ctx}: is_empty");
        assert_eq!(list.first(), model.first().copied(), "{ctx}: first");
        assert_eq!(list.last(), model.last().copied(), "{ctx}: last");
        let top = model.last().map_or(0, |&c| c + 2);
        for c in 0..top.max(130) {
            assert_eq!(
                list.contains(c),
                model.binary_search(&c).is_ok(),
                "{ctx}: contains({c})"
            );
        }
        // Equality is by content, across spans: a tight span, a span
        // widened on both sides, and the empty list.
        assert_eq!(*list, ColorList::new(model.to_vec()), "{ctx}: eq tight");
        let mut wide = ColorList::new([model, &[0, top + 200]].concat());
        for c in [0, top + 200] {
            if model.binary_search(&c).is_err() {
                wide.remove(c);
            }
        }
        assert_eq!(*list, wide, "{ctx}: eq wide");
        assert_eq!(
            *list == ColorList::default(),
            model.is_empty(),
            "{ctx}: eq empty"
        );
        let bounds = [0, 63, 64, 65, 127, 128, top, u32::MAX];
        for &lo in &bounds {
            for &hi in &bounds {
                let want: Vec<Color> = model
                    .iter()
                    .copied()
                    .filter(|&c| lo <= c && c < hi)
                    .collect();
                assert_eq!(
                    list.count_in_range(lo, hi),
                    want.len(),
                    "{ctx}: count [{lo},{hi})"
                );
                let sub = list.restrict_to_range(lo, hi);
                assert_eq!(sub.to_vec(), want, "{ctx}: restrict [{lo},{hi})");
                assert_eq!(sub.len(), want.len(), "{ctx}: restrict len [{lo},{hi})");
            }
        }
    }

    /// Seeded differential test: random operation sequences applied to a
    /// `ColorList` and to a sorted-`Vec` reference must agree after every
    /// step.
    #[test]
    fn color_list_matches_sorted_vec_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_c0105);
        for case in 0..200 {
            // Color domains that stay in one word, cross a few word
            // boundaries, or sit far from zero.
            let (offset, width) = match case % 4 {
                0 => (0u32, 64u32),
                1 => (0, 200),
                2 => (60, 70),
                _ => (1_000, 300),
            };
            let draw = |rng: &mut StdRng| offset + rng.gen_range(0..width);
            let (mut list, mut model) = if rng.gen_range(0..3u32) == 0 {
                let lo = draw(&mut rng);
                let hi = lo + rng.gen_range(0..width);
                (ColorList::range(lo, hi), (lo..hi).collect::<Vec<_>>())
            } else {
                let raw: Vec<Color> = (0..rng.gen_range(0..40usize))
                    .map(|_| draw(&mut rng))
                    .collect();
                let mut model = raw.clone();
                model.sort_unstable();
                model.dedup();
                (ColorList::new(raw), model)
            };
            assert_matches_model(&list, &model, &format!("case {case}: build"));
            for step in 0..12 {
                if rng.gen_range(0..2u32) == 0 {
                    let c = draw(&mut rng);
                    let had = model.binary_search(&c);
                    assert_eq!(list.remove(c), had.is_ok(), "case {case}: remove({c})");
                    if let Ok(i) = had {
                        model.remove(i);
                    }
                } else {
                    // Duplicates and absent colors included on purpose.
                    let mut forbidden: Vec<Color> = (0..rng.gen_range(0..8usize))
                        .map(|_| draw(&mut rng))
                        .collect();
                    if let Some(&c) = forbidden.first() {
                        forbidden.push(c);
                    }
                    forbidden.push(offset + width + 500);
                    list.remove_all(&forbidden);
                    model.retain(|c| !forbidden.contains(c));
                }
                assert_matches_model(&list, &model, &format!("case {case} step {step}"));
            }
        }
    }

    #[test]
    fn range_queries() {
        let l = ColorList::range(0, 10);
        assert_eq!(l.count_in_range(3, 7), 4);
        assert_eq!(l.restrict_to_range(8, 20).to_vec(), [8, 9]);
        assert_eq!(l.count_in_range(10, 20), 0);
    }

    #[test]
    fn partition_matches_figure5_shape() {
        // C = 20, p = 4 → exactly 4 blocks of 5, as in the paper's Figure 5.
        let part = SubspacePartition::new(20, 4);
        assert_eq!(part.num_subspaces(), 4);
        assert_eq!(part.block_size(), 5);
        assert_eq!(part.range(0), (0, 5));
        assert_eq!(part.range(3), (15, 20));
        assert_eq!(part.subspace_of(0), 0);
        assert_eq!(part.subspace_of(19), 3);
    }

    #[test]
    fn partition_respects_lemma43_bounds() {
        for (c, p) in [(100u32, 7u32), (17, 4), (5, 2), (1000, 31), (8, 8), (9, 4)] {
            let part = SubspacePartition::new(c, p);
            assert!(
                part.num_subspaces() <= 2 * p,
                "q too large for C={c}, p={p}"
            );
            for i in 0..part.num_subspaces() {
                let (lo, hi) = part.range(i);
                assert!(hi > lo, "empty block");
                assert!(
                    (hi - lo) as f64 <= c as f64 / p as f64 || hi - lo == 1,
                    "block too large for C={c}, p={p}"
                );
            }
            // Blocks tile the palette.
            let total: u32 = (0..part.num_subspaces())
                .map(|i| {
                    let (lo, hi) = part.range(i);
                    hi - lo
                })
                .sum();
            assert_eq!(total, c);
        }
    }

    #[test]
    fn figure5_worked_example() {
        // Figure 5: C = 20, p = 4, L_e = {1,2,5,6,7,12,17} (1-based in the
        // paper; 0-based here: {0,1,4,5,6,11,16}). |L| = 7.
        // Intersections: C1 = {0..5} → 3, C2 = {5..10} → 2, C3 = {10..15} → 1,
        // C4 = {15..20} → 1. The paper finds I = {1, 2} (k = 2) since
        // |C1∩L|, |C2∩L| ≥ 7/(2·H₄) = 1.68.
        let part = SubspacePartition::new(20, 4);
        let list = ColorList::new(vec![0, 1, 4, 5, 6, 11, 16]);
        let (k, indices) = lemma44_witness(&list, &part);
        assert!(k >= 2, "paper's example has k = 2, got {k}");
        assert!(indices.contains(&0) && indices.contains(&1));
        // `level_of` picks the *largest* valid level; here even ℓ = 2 is
        // valid (all 4 blocks have intersection ≥ 7/(8·H₄) = 0.42, i.e. ≥ 1),
        // which only gives the assignment more freedom.
        let info = level_of(&list, &part);
        assert_eq!(info.level, 2);
        assert_eq!(info.indices.len(), 4);
        assert_eq!(info.indices[0], 0); // sorted by decreasing intersection
        assert_eq!(info.indices[1], 1);
    }

    #[test]
    fn level_indices_meet_threshold() {
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::new((0..64).step_by(3).collect());
        let info = level_of(&list, &part);
        assert!(!info.indices.is_empty());
        assert!(info.indices.len() >= 1 << info.level);
        for &i in &info.indices {
            let (lo, hi) = part.range(i);
            assert!(list.count_in_range(lo, hi) as f64 >= info.threshold);
        }
    }

    #[test]
    fn uniform_list_gets_max_level() {
        // A list spread across all blocks: level should be ⌊log₂ q⌋.
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::range(0, 64);
        let info = level_of(&list, &part);
        assert_eq!(info.level, floor_log2(u64::from(part.num_subspaces())));
    }

    #[test]
    fn concentrated_list_gets_low_level() {
        // All colors in one block: only 1 block has a large intersection.
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::range(0, 8);
        let info = level_of(&list, &part);
        assert_eq!(info.level, 0);
        assert_eq!(info.indices[0], 0);
    }

    #[test]
    fn intersection_sizes_sum_to_list_len() {
        let part = SubspacePartition::new(30, 4);
        let list = ColorList::new(vec![0, 3, 7, 8, 15, 22, 29]);
        let sizes = part.intersection_sizes(&list);
        assert_eq!(sizes.iter().sum::<usize>(), list.len());
    }

    #[test]
    #[should_panic(expected = "p must be at least 2")]
    fn rejects_p_below_2() {
        let _ = SubspacePartition::new(10, 1);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn level_rejects_empty_list() {
        let part = SubspacePartition::new(10, 2);
        let _ = level_of(&ColorList::default(), &part);
    }
}
