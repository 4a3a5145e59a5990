//! Wide-window GenASM-DC: windows larger than the 64-bit machine word.
//!
//! The paper's evaluated configuration uses `W = 64` so every bitvector
//! fits one PE word, but `W` is an architectural parameter — a wider
//! window trades TB-SRAM capacity and per-window cycles for accuracy
//! on long indels (§6's divide-and-conquer analysis is parameterized
//! by `W` throughout). This module implements the window kernel for
//! arbitrary `W` using multi-word bitvectors ([`BitVector`], the same
//! §5 "Long Read Support" machinery as multi-word Bitap), storing the
//! match/insertion/deletion bitvectors per `(text iteration, distance)`
//! for the traceback walk.
//!
//! The wide kernel is exercised through
//! [`GenAsmConfig`](crate::align::GenAsmConfig) by setting
//! `window > 64`; results agree bit-for-bit with the single-word kernel
//! wherever both apply (see the equivalence tests).

use crate::alphabet::Alphabet;
use crate::bitvec::BitVector;
use crate::error::AlignError;
use crate::pattern::PatternBitmasks;
use crate::tb::TracebackSource;

/// Upper bound on the wide-kernel window size (keeps per-window memory
/// `W² · 3 · W` bits within tens of megabytes).
pub const MAX_WIDE_WINDOW: usize = 1024;

/// Intermediate bitvectors of one wide window.
#[derive(Debug, Clone, Default)]
pub struct WideWindowBitvectors {
    pattern_len: usize,
    text_len: usize,
    match_rows: Vec<Vec<BitVector>>,
    ins_rows: Vec<Vec<BitVector>>,
    del_rows: Vec<Vec<BitVector>>,
}

impl WideWindowBitvectors {
    /// Number of distance rows stored.
    pub fn rows(&self) -> usize {
        self.match_rows.len()
    }

    /// Number of 64-bit words written for this window (TB-SRAM traffic
    /// of the hypothetical wide configuration).
    pub fn stored_words(&self) -> usize {
        let words = self.pattern_len.div_ceil(64);
        let gap_rows = self.rows().saturating_sub(1);
        self.text_len * words * (1 + 3 * gap_rows)
    }
}

impl TracebackSource for WideWindowBitvectors {
    fn pattern_len(&self) -> usize {
        self.pattern_len
    }

    fn text_len(&self) -> usize {
        self.text_len
    }

    fn stored_words(&self) -> usize {
        WideWindowBitvectors::stored_words(self)
    }

    fn match_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        !self.match_rows[d][i].bit(bit)
    }

    fn ins_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        // Gap rows exist only for d >= 1 and are stored at index d - 1.
        d > 0 && !self.ins_rows[d - 1][i].bit(bit)
    }

    fn del_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        d > 0 && !self.del_rows[d - 1][i].bit(bit)
    }

    fn subs_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        // Substitution = deletion << 1: bit `b` of the shifted vector
        // is bit `b - 1` of the stored deletion vector; bit 0 is the
        // shifted-in 0 (substituting the last pattern character is
        // always a valid chain start).
        d > 0 && (bit == 0 || !self.del_rows[d - 1][i].bit(bit - 1))
    }
}

/// Outcome of the wide-window DC kernel.
#[derive(Debug, Clone)]
pub struct WideDcWindow {
    /// Minimum anchored window distance, `None` if over `k_max`.
    pub edit_distance: Option<usize>,
    /// Stored bitvectors for traceback.
    pub bitvectors: WideWindowBitvectors,
}

/// Reusable storage for wide-window GenASM-DC runs: the multi-word
/// analogue of [`DcArena`](crate::dc::DcArena). Row vectors (and the
/// [`BitVector`]s inside them) are recycled between windows, so a
/// warmed-up arena performs no per-cell allocation — only the handful
/// of per-row boundary vectors are rebuilt.
#[derive(Debug, Default)]
pub struct WideArena {
    bitvectors: WideWindowBitvectors,
    /// Retired rows available for reuse.
    spare: Vec<Vec<BitVector>>,
    /// The rolling `R[d-1]` / `R[d]` scratch rows.
    prev_row: Vec<BitVector>,
    cur_row: Vec<BitVector>,
    /// Flat word-array rolling rows of the distance-only scan
    /// (`n × words` u64s each) — the scan's only storage.
    dist_prev: Vec<u64>,
    dist_cur: Vec<u64>,
}

impl WideArena {
    /// An empty arena; buffers are grown on first use.
    pub fn new() -> Self {
        WideArena::default()
    }

    /// The bitvectors of the most recent [`window_dc_wide_into`] run.
    pub fn bitvectors(&self) -> &WideWindowBitvectors {
        &self.bitvectors
    }

    /// Consumes the arena, keeping the last run's bitvectors.
    pub fn into_bitvectors(self) -> WideWindowBitvectors {
        self.bitvectors
    }

    /// Rows (live plus pooled) currently retained — exposed so tests
    /// can assert reuse across runs.
    pub fn retained_rows(&self) -> usize {
        self.bitvectors.match_rows.len()
            + self.bitvectors.ins_rows.len()
            + self.bitvectors.del_rows.len()
            + self.spare.len()
    }

    /// Moves the previous run's rows into the spare pool.
    fn recycle(&mut self) {
        for rows in [
            &mut self.bitvectors.match_rows,
            &mut self.bitvectors.ins_rows,
            &mut self.bitvectors.del_rows,
        ] {
            self.spare.extend(rows.drain(..).filter(|r| !r.is_empty()));
        }
    }

    /// A row of `n` bitvectors of width `m` whose every entry will be
    /// overwritten by the kernel: pooled rows are reshaped in place,
    /// reallocating an entry only when its width changed.
    fn fresh_row(&mut self, n: usize, m: usize) -> Vec<BitVector> {
        let mut row = self.spare.pop().unwrap_or_default();
        Self::reshape(&mut row, n, m);
        row
    }

    fn reshape(row: &mut Vec<BitVector>, n: usize, m: usize) {
        row.truncate(n);
        for bv in row.iter_mut() {
            if bv.len() != m {
                *bv = BitVector::zeros(m);
            }
        }
        while row.len() < n {
            row.push(BitVector::zeros(m));
        }
    }
}

/// Runs GenASM-DC on one window of arbitrary width (up to
/// [`MAX_WIDE_WINDOW`]), anchored at the start of `text`.
///
/// # Errors
///
/// Same conditions as [`window_dc`](crate::dc::window_dc), with the
/// size limit raised to [`MAX_WIDE_WINDOW`].
pub fn window_dc_wide<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
) -> Result<WideDcWindow, AlignError> {
    let mut arena = WideArena::new();
    let edit_distance = window_dc_wide_into::<A>(text, pattern, k_max, &mut arena)?;
    Ok(WideDcWindow {
        edit_distance,
        bitvectors: arena.into_bitvectors(),
    })
}

/// [`window_dc_wide`] writing into a reusable [`WideArena`]: identical
/// computation and stored bitvectors, with row storage recycled from
/// previous runs (closing the ROADMAP item that had the wide kernel
/// allocating per window).
///
/// # Errors
///
/// Same conditions as [`window_dc_wide`].
pub fn window_dc_wide_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut WideArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    if text.is_empty() {
        return Err(AlignError::EmptyText);
    }
    if pattern.len() > MAX_WIDE_WINDOW {
        return Err(AlignError::InvalidWindow { w: pattern.len() });
    }
    let pm = PatternBitmasks::<A>::new(pattern)?;
    let m = pattern.len();
    let n = text.len();

    let mut text_pm: Vec<&BitVector> = Vec::with_capacity(n);
    for (i, &byte) in text.iter().enumerate() {
        match pm.mask(byte) {
            Some(mask) => text_pm.push(mask),
            None => return Err(AlignError::InvalidSymbol { pos: i, byte }),
        }
    }

    arena.recycle();
    arena.bitvectors.pattern_len = m;
    arena.bitvectors.text_len = n;
    WideArena::reshape(&mut arena.prev_row, n, m);
    WideArena::reshape(&mut arena.cur_row, n, m);

    // Row 0.
    {
        let mut row0 = arena.fresh_row(n, m);
        let mut r = BitVector::ones(m);
        for i in (0..n).rev() {
            r.shl1_or_into(text_pm[i], &mut row0[i]);
            r.copy_from(&row0[i]);
            arena.prev_row[i].copy_from(&row0[i]);
        }
        arena.bitvectors.match_rows.push(row0);
    }
    let mut edit_distance = if !arena.prev_row[0].msb() {
        Some(0)
    } else {
        None
    };

    if edit_distance.is_none() {
        let mut scratch = BitVector::zeros(m);
        for d in 1..=k_max {
            let init_d = BitVector::ones_shl(m, d);
            let init_dm1 = BitVector::ones_shl(m, d - 1);
            let mut match_row = arena.fresh_row(n, m);
            let mut ins_row = arena.fresh_row(n, m);
            let mut del_row = arena.fresh_row(n, m);
            for i in (0..n).rev() {
                let old_r_dm1 = if i + 1 < n {
                    &arena.prev_row[i + 1]
                } else {
                    &init_dm1
                };
                // R[d][i+1] was just written at i + 1 (boundary at n).
                let (head, tail) = arena.cur_row.split_at_mut(i + 1);
                let r_next: &BitVector = tail.first().unwrap_or(&init_d);
                // match = (oldR[d] << 1) | PM
                r_next.shl1_or_into(text_pm[i], &mut match_row[i]);
                // insertion = R[d-1][i] << 1
                arena.prev_row[i].shl1_into(&mut ins_row[i]);
                // deletion = oldR[d-1], unshifted
                del_row[i].copy_from(old_r_dm1);
                // R[d] = M & I & S & D
                let r = &mut head[i];
                r.copy_from(&match_row[i]);
                r.and_assign(&ins_row[i]);
                old_r_dm1.shl1_into(&mut scratch); // substitution
                r.and_assign(&scratch);
                r.and_assign(old_r_dm1);
            }
            arena.bitvectors.match_rows.push(match_row);
            arena.bitvectors.ins_rows.push(ins_row);
            arena.bitvectors.del_rows.push(del_row);
            std::mem::swap(&mut arena.prev_row, &mut arena.cur_row);
            if !arena.prev_row[0].msb() {
                edit_distance = Some(d);
                break;
            }
        }
    }

    Ok(edit_distance)
}

/// The multi-word boundary state `ones << d` over `m` pattern bits,
/// evaluated per word: word `w` covers bits `64w .. 64w + 63`. Bits at
/// or above `m` are left set — the recurrence only ever shifts upward
/// and ANDs, so they can never influence a bit below `m`.
#[inline]
fn boundary_word(d: usize, w: usize) -> u64 {
    let lo = w * 64;
    if d >= lo + 64 {
        0
    } else if d <= lo {
        u64::MAX
    } else {
        u64::MAX << (d - lo)
    }
}

/// Distance-only wide-window GenASM-DC: the identical recurrence and
/// edit distance as [`window_dc_wide_into`], but no intermediate
/// bitvectors are stored — only two rolling rows of flat `u64` words
/// live, and each recurrence cell is one fused pass (shift-with-carry
/// plus ANDs) instead of per-[`BitVector`] operations. This completes
/// the distance-only mode across the window kernels (the multi-word
/// arm of [`anchored_distance_into`](crate::align::anchored_distance_into),
/// the exact whole-pattern anchored bound) for callers that need the
/// tight anchored distance without TB-SRAM writes; the two-phase
/// mapper's phase 1 instead runs the cheaper block-decomposed
/// [`block_occurrence_distance_into`](crate::align::block_occurrence_distance_into)
/// over single-word blocks. After a distance-only run the arena's
/// stored bitvectors are empty.
///
/// # Errors
///
/// Same conditions as [`window_dc_wide`].
pub fn window_dc_wide_distance_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut WideArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    if text.is_empty() {
        return Err(AlignError::EmptyText);
    }
    if pattern.len() > MAX_WIDE_WINDOW {
        return Err(AlignError::InvalidWindow { w: pattern.len() });
    }
    let pm = PatternBitmasks::<A>::new(pattern)?;
    let m = pattern.len();
    let n = text.len();
    let words = m.div_ceil(64);
    let msb_word = (m - 1) / 64;
    let msb_bit = (m - 1) % 64;

    let mut text_pm: Vec<&[u64]> = Vec::with_capacity(n);
    for (i, &byte) in text.iter().enumerate() {
        match pm.mask(byte) {
            Some(mask) => text_pm.push(mask.as_words()),
            None => return Err(AlignError::InvalidSymbol { pos: i, byte }),
        }
    }

    arena.recycle();
    arena.bitvectors.pattern_len = m;
    arena.bitvectors.text_len = n;
    arena.dist_prev.clear();
    arena.dist_prev.resize(n * words, 0);
    arena.dist_cur.clear();
    arena.dist_cur.resize(n * words, 0);
    let prev = &mut arena.dist_prev;
    let cur = &mut arena.dist_cur;

    // Row 0: R[0][i] = (R[0][i+1] << 1) | PM, boundary all-ones at n.
    {
        let mut r = vec![u64::MAX; words];
        for i in (0..n).rev() {
            let pm_i = text_pm[i];
            let mut carry = 0u64;
            for w in 0..words {
                let shifted = (r[w] << 1) | carry;
                carry = r[w] >> 63;
                r[w] = shifted | pm_i[w];
            }
            prev[i * words..(i + 1) * words].copy_from_slice(&r);
        }
    }
    if prev[msb_word] >> msb_bit & 1 == 0 {
        return Ok(Some(0));
    }

    for d in 1..=k_max {
        for i in (0..n).rev() {
            let pm_i = text_pm[i];
            // The cell's neighbours: oldR[d-1][i+1] (deletion,
            // unshifted) from `prev` and R[d][i+1] (just written) from
            // `cur`, both replaced by boundary states at i = n - 1.
            let next = (i + 1 < n).then_some((i + 1) * words);
            // Fused pass: every component's shift-with-carry and the
            // AND chain in one word loop.
            let mut del_carry = 0u64;
            let mut ins_carry = 0u64;
            let mut mat_carry = 0u64;
            for w in 0..words {
                let del = match next {
                    Some(base) => prev[base + w],
                    None => boundary_word(d - 1, w),
                };
                let ins_src = prev[i * words + w];
                let rn = match next {
                    Some(base) => cur[base + w],
                    None => boundary_word(d, w),
                };
                let sub = (del << 1) | del_carry;
                del_carry = del >> 63;
                let ins = (ins_src << 1) | ins_carry;
                ins_carry = ins_src >> 63;
                let mat = (rn << 1) | mat_carry | pm_i[w];
                mat_carry = rn >> 63;
                cur[i * words + w] = del & sub & ins & mat;
            }
        }
        std::mem::swap(prev, cur);
        if prev[msb_word] >> msb_bit & 1 == 0 {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Dna;
    use crate::cigar::Cigar;
    use crate::dc::window_dc;
    use crate::tb::{window_traceback, TracebackOrder};

    fn dna(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn agrees_with_single_word_kernel_for_small_windows() {
        for seed in 1..6u64 {
            let text = dna(60, seed);
            let mut pattern = text.clone();
            pattern[20] = if pattern[20] == b'A' { b'C' } else { b'A' };
            pattern.remove(40);
            let narrow = window_dc::<Dna>(&text, &pattern, pattern.len()).unwrap();
            let wide = window_dc_wide::<Dna>(&text, &pattern, pattern.len()).unwrap();
            assert_eq!(narrow.edit_distance, wide.edit_distance, "seed={seed}");
            let d = narrow.edit_distance.unwrap();
            let tb_narrow =
                window_traceback(&narrow.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                    .unwrap();
            let tb_wide =
                window_traceback(&wide.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                    .unwrap();
            assert_eq!(tb_narrow.ops, tb_wide.ops, "seed={seed}");
        }
    }

    #[test]
    fn wide_window_handles_128_character_patterns() {
        let text = dna(140, 9);
        let mut pattern = text[..128].to_vec();
        pattern[60] = if pattern[60] == b'A' { b'G' } else { b'A' };
        pattern.insert(100, b'T');
        let dc = window_dc_wide::<Dna>(&text, &pattern, 16).unwrap();
        let d = dc.edit_distance.expect("alignment exists");
        assert_eq!(d, 2);
        let tb =
            window_traceback(&dc.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert!(cigar.validates(&text[..tb.text_consumed], &pattern));
        assert_eq!(cigar.edit_distance(), 2);
    }

    #[test]
    fn figure3_example_on_wide_kernel() {
        let dc = window_dc_wide::<Dna>(b"CGTGA", b"CTGA", 4).unwrap();
        assert_eq!(dc.edit_distance, Some(1));
        let tb =
            window_traceback(&dc.bitvectors, 1, usize::MAX, &TracebackOrder::affine()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.to_string(), "1=1D3=");
    }

    #[test]
    fn arena_backed_wide_matches_owned_path_and_reuses_rows() {
        let mut arena = WideArena::new();
        let mut warmed = 0usize;
        for round in 0..3 {
            for seed in 1..8u64 {
                let text = dna(150, seed * 17);
                let mut pattern = text[..140].to_vec();
                let p = (seed as usize * 19) % 120;
                pattern[p] = if pattern[p] == b'A' { b'G' } else { b'A' };
                let owned = window_dc_wide::<Dna>(&text, &pattern, 20).unwrap();
                let reused = window_dc_wide_into::<Dna>(&text, &pattern, 20, &mut arena).unwrap();
                assert_eq!(owned.edit_distance, reused, "seed={seed}");
                let d = reused.unwrap();
                let walk_owned =
                    window_traceback(&owned.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                        .unwrap();
                let walk_arena =
                    window_traceback(arena.bitvectors(), d, usize::MAX, &TracebackOrder::affine())
                        .unwrap();
                assert_eq!(walk_owned.ops, walk_arena.ops, "seed={seed}");
                assert_eq!(
                    owned.bitvectors.stored_words(),
                    arena.bitvectors().stored_words()
                );
            }
            if round == 0 {
                warmed = arena.retained_rows();
            } else {
                assert_eq!(arena.retained_rows(), warmed, "warm rounds must not grow");
            }
        }
    }

    #[test]
    fn distance_only_matches_stored_kernel_and_interleaves_with_it() {
        let mut arena = WideArena::new();
        for seed in 1..12u64 {
            let text = dna(80 + (seed as usize * 29) % 300, seed * 3);
            let take = 60 + (seed as usize * 37) % (text.len() - 60);
            let mut pattern = text[..take].to_vec();
            for e in 0..(seed as usize % 5) {
                let idx = (e * 31 + 7) % pattern.len();
                pattern[idx] = if pattern[idx] == b'A' { b'T' } else { b'A' };
            }
            for k_max in [2usize, 8, pattern.len()] {
                let stored = window_dc_wide::<Dna>(&text, &pattern, k_max).unwrap();
                // Interleave distance-only and stored runs through one
                // arena so row recycling across modes is exercised.
                let distance =
                    window_dc_wide_distance_into::<Dna>(&text, &pattern, k_max, &mut arena)
                        .unwrap();
                assert_eq!(distance, stored.edit_distance, "seed={seed} k={k_max}");
                let restored =
                    window_dc_wide_into::<Dna>(&text, &pattern, k_max, &mut arena).unwrap();
                assert_eq!(restored, stored.edit_distance, "seed={seed} k={k_max}");
            }
        }
    }

    #[test]
    fn distance_only_rejects_bad_inputs_like_stored_kernel() {
        let mut arena = WideArena::new();
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"ACGT", b"", 1, &mut arena),
            Err(AlignError::EmptyPattern)
        ));
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"", b"ACGT", 1, &mut arena),
            Err(AlignError::EmptyText)
        ));
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"ACNT", b"ACGT", 1, &mut arena),
            Err(AlignError::InvalidSymbol { pos: 2, byte: b'N' })
        ));
        let big = vec![b'A'; MAX_WIDE_WINDOW + 1];
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(&big, &big, 1, &mut arena),
            Err(AlignError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn rejects_oversized_window() {
        let big = vec![b'A'; MAX_WIDE_WINDOW + 1];
        assert!(matches!(
            window_dc_wide::<Dna>(&big, &big, 1),
            Err(AlignError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn stored_words_scale_with_width() {
        let text = dna(128, 3);
        let mut pattern = text.clone();
        pattern[64] = if pattern[64] == b'A' { b'C' } else { b'A' };
        let dc = window_dc_wide::<Dna>(&text, &pattern, 8).unwrap();
        // 2 words per bitvector at 128 bits.
        let rows = dc.bitvectors.rows();
        assert_eq!(dc.bitvectors.stored_words(), 128 * 2 * (1 + 3 * (rows - 1)));
    }
}
