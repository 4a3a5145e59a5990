//! Sharded, packed reference indexing (step 0 of read mapping,
//! Figure 1).
//!
//! The reference genome is pre-processed offline into a seed index
//! whose keys are all fixed-length substrings (seeds) and whose values
//! are the seeds' locations — the structure queried by the seeding
//! step (§2.1 and §11, "Hash-Table Based Indexing"). Following the
//! paper's §9 storage scheme, the reference is first packed at 2 bits
//! per base; the index itself is split into [`ShardedIndex`] shards —
//! per-shard *sorted bucket tables* (sorted distinct keys, a prefix-sum
//! offset table, and a flat ascending position array) instead of one
//! big hash map. Shards are built in parallel, lookups touch exactly
//! one shard, and lookup results are deterministic: positions come back
//! ascending, exactly as the historical `HashMap`-based `KmerIndex`
//! returned them.

/// Encodes a k-mer into 2 bits per base; `None` if it contains a
/// non-ACGT byte.
fn encode_kmer(kmer: &[u8]) -> Option<u64> {
    debug_assert!(kmer.len() <= 32, "k-mer must fit in a u64");
    let mut v = 0u64;
    for &b in kmer {
        let code = match b {
            b'A' | b'a' => 0u64,
            b'C' | b'c' => 1,
            b'G' | b'g' => 2,
            b'T' | b't' => 3,
            _ => return None,
        };
        v = (v << 2) | code;
    }
    Some(v)
}

/// A reference packed at 2 bits per base (`A=00, C=01, G=10, T=11`,
/// §9 of the paper) plus a validity bitmap marking non-ACGT bases, so
/// index construction scans 4 bases per byte instead of raw ASCII.
#[derive(Debug, Clone, Default)]
pub struct PackedRef {
    codes: Vec<u8>,
    valid: Vec<u64>,
    len: usize,
}

impl PackedRef {
    /// Packs `reference` (case-insensitive); non-ACGT bytes get an
    /// arbitrary code and a cleared validity bit.
    pub fn pack(reference: &[u8]) -> Self {
        let mut codes = vec![0u8; reference.len().div_ceil(4)];
        let mut valid = vec![0u64; reference.len().div_ceil(64)];
        for (i, &b) in reference.iter().enumerate() {
            let code = match b {
                b'A' | b'a' => 0u8,
                b'C' | b'c' => 1,
                b'G' | b'g' => 2,
                b'T' | b't' => 3,
                _ => continue, // leave code 0, validity bit clear
            };
            codes[i / 4] |= code << ((i % 4) * 2);
            valid[i / 64] |= 1u64 << (i % 64);
        }
        PackedRef {
            codes,
            valid,
            len: reference.len(),
        }
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the reference holds no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of packed storage (codes + validity bitmap).
    pub fn packed_bytes(&self) -> usize {
        self.codes.len() + self.valid.len() * 8
    }

    /// The 2-bit code of base `i`.
    #[inline]
    fn code(&self, i: usize) -> u8 {
        (self.codes[i / 4] >> ((i % 4) * 2)) & 0b11
    }

    /// `true` when base `i` is an ACGT base.
    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.valid[i / 64] >> (i % 64) & 1 == 1
    }

    /// `true` when bases `start..start + len` (clamped to the
    /// reference end) are all ACGT, checked a validity word at a time.
    /// The mapper's post-alignment certificate holds only for such
    /// windows; any other window takes the pre-alignment filter.
    pub fn is_acgt(&self, start: usize, len: usize) -> bool {
        let end = (start + len).min(self.len);
        let mut i = start;
        while i < end {
            let bit = i % 64;
            let span = (64 - bit).min(end - i);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            if self.valid[i / 64] & mask != mask {
                return false;
            }
            i += span;
        }
        true
    }
}

/// A shard's `(key, position)` postings, ascending by position.
type ShardEntries = Vec<(u64, u32)>;

/// One shard: a sorted bucket table. `keys` holds the shard's distinct
/// seed keys in ascending order; key `keys[i]`'s positions are
/// `positions[offsets[i]..offsets[i + 1]]`, ascending.
#[derive(Debug, Clone, Default)]
struct Shard {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl Shard {
    /// Builds the table from this shard's `(key, position)` entries,
    /// given in ascending position order. The stable sort groups them
    /// by key while preserving that order, which is what makes lookups
    /// return ascending positions deterministically.
    fn from_entries(mut entries: ShardEntries) -> Shard {
        entries.sort_by_key(|&(key, _)| key);
        let mut table = Shard {
            offsets: vec![0],
            ..Shard::default()
        };
        for (key, pos) in entries {
            if table.keys.last() != Some(&key) {
                table.keys.push(key);
                table.offsets.push(table.positions.len() as u32);
            }
            table.positions.push(pos);
            *table.offsets.last_mut().expect("offsets never empty") = table.positions.len() as u32;
        }
        table
    }
}

/// Rolling scan over k-mer starts `s0..s1` of the packed reference,
/// partitioning each valid k-mer into its shard's bucket. The scan
/// reads base positions `s0..s1 + k - 1`, so parallel range scans
/// overlap by only `k - 1` bases and total work stays linear in the
/// reference regardless of shard count.
fn scan_range(
    packed: &PackedRef,
    k: usize,
    shard_bits: u32,
    s0: usize,
    s1: usize,
) -> Vec<ShardEntries> {
    let mask = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut buckets: Vec<ShardEntries> = vec![Vec::new(); 1 << shard_bits];
    let mut key = 0u64;
    let mut run = 0usize;
    for pos in s0..(s1 + k - 1).min(packed.len()) {
        if packed.is_valid(pos) {
            key = ((key << 2) | packed.code(pos) as u64) & mask;
            run += 1;
        } else {
            key = 0;
            run = 0;
        }
        if run >= k {
            let start = pos + 1 - k;
            if start >= s1 {
                break;
            }
            buckets[shard_of(key, shard_bits)].push((key, start as u32));
        }
    }
    buckets
}

/// Routes a seed key to its shard: a multiplicative hash over the full
/// key, taken from the top bits, so shards stay balanced even though
/// adjacent k-mers share all but one base.
#[inline]
fn shard_of(key: u64, shard_bits: u32) -> usize {
    if shard_bits == 0 {
        0
    } else {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shard_bits)) as usize
    }
}

/// A sharded k-mer index over a 2-bit-packed reference.
///
/// # Examples
///
/// ```
/// use genasm_mapper::index::ShardedIndex;
///
/// let index = ShardedIndex::build(b"ACGTACGTACGT", 4);
/// let hits = index.lookup(b"ACGT").unwrap();
/// assert_eq!(hits, &[0, 4, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    k: usize,
    shard_bits: u32,
    shards: Vec<Shard>,
    reference_len: usize,
}

impl ShardedIndex {
    /// Builds the index of all `k`-mers of `reference` with an
    /// automatic shard count (host parallelism, rounded to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0, exceeds 32, or exceeds the reference length.
    pub fn build(reference: &[u8], k: usize) -> Self {
        ShardedIndex::build_with_shards(reference, k, 0)
    }

    /// [`build`](Self::build) with an explicit shard count (rounded up
    /// to a power of two, capped at 4096; `0` = automatic).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0, exceeds 32, or exceeds the reference
    /// length, or if the reference exceeds `u32` positions.
    pub fn build_with_shards(reference: &[u8], k: usize, shards: usize) -> Self {
        assert!(k > 0 && k <= 32, "seed length must be in 1..=32");
        assert!(k <= reference.len(), "seed longer than the reference");
        assert!(
            reference.len() <= u32::MAX as usize,
            "reference exceeds u32 positions"
        );
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shard_count = match shards {
            0 => hw.next_power_of_two().min(64),
            n => n.next_power_of_two().min(4096),
        };
        let shard_bits = shard_count.trailing_zeros();
        let packed = PackedRef::pack(reference);

        // Phase 1 — partition scan: `builders` threads each scan one
        // contiguous slice of k-mer starts (overlapping by k-1 bases),
        // routing entries into per-shard buckets, so total scan work is
        // linear in the reference regardless of shard count.
        let starts = reference.len() - k + 1;
        let builders = hw.clamp(1, starts);
        let chunk = starts.div_ceil(builders);
        let mut per_builder: Vec<Vec<ShardEntries>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..builders)
                .map(|b| {
                    let packed = &packed;
                    let s0 = b * chunk;
                    let s1 = (s0 + chunk).min(starts);
                    scope.spawn(move || scan_range(packed, k, shard_bits, s0, s1))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index scanner panicked"))
                .collect()
        });

        // Concatenating builder buckets in builder (= position) order
        // keeps each shard's entries ascending by position.
        let mut shard_entries: Vec<ShardEntries> = (0..shard_count).map(|_| Vec::new()).collect();
        for buckets in &mut per_builder {
            for (shard, bucket) in buckets.iter_mut().enumerate() {
                shard_entries[shard].append(bucket);
            }
        }

        // Phase 2 — sort and table-build each shard, in parallel:
        // workers pull (shard, entries) off a shared queue and results
        // are re-slotted by shard index, so output is deterministic
        // regardless of scheduling.
        let queue: std::sync::Mutex<Vec<(usize, ShardEntries)>> =
            std::sync::Mutex::new(shard_entries.into_iter().enumerate().rev().collect());
        let built = std::sync::Mutex::new(Vec::with_capacity(shard_count));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..builders.min(shard_count))
                .map(|_| {
                    let queue = &queue;
                    let built = &built;
                    scope.spawn(move || loop {
                        let item = queue.lock().expect("queue poisoned").pop();
                        let Some((shard, entries)) = item else { break };
                        let table = Shard::from_entries(entries);
                        built.lock().expect("results poisoned").push((shard, table));
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("index builder panicked");
            }
        });
        let mut slots: Vec<Option<Shard>> = (0..shard_count).map(|_| None).collect();
        for (shard, table) in built.into_inner().expect("results poisoned") {
            slots[shard] = Some(table);
        }
        let shards = slots
            .into_iter()
            .map(|s| s.expect("every shard is built exactly once"))
            .collect();

        ShardedIndex {
            k,
            shard_bits,
            shards,
            reference_len: reference.len(),
        }
    }

    /// The seed length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of the indexed reference.
    pub fn reference_len(&self) -> usize {
        self.reference_len
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct seeds present.
    pub fn distinct_seeds(&self) -> usize {
        self.shards.iter().map(|s| s.keys.len()).sum()
    }

    /// Total number of (seed, position) postings.
    pub fn postings(&self) -> usize {
        self.shards.iter().map(|s| s.positions.len()).sum()
    }

    /// Locations of `seed` in the reference (must have length `k`),
    /// ascending. Returns `None` for absent or invalid seeds.
    pub fn lookup(&self, seed: &[u8]) -> Option<&[u32]> {
        if seed.len() != self.k {
            return None;
        }
        self.lookup_key(encode_kmer(seed)?)
    }

    /// [`lookup`](Self::lookup) by pre-encoded 2-bit key.
    pub fn lookup_key(&self, key: u64) -> Option<&[u32]> {
        let shard = &self.shards[shard_of(key, self.shard_bits)];
        let i = shard.keys.binary_search(&key).ok()?;
        Some(&shard.positions[shard.offsets[i] as usize..shard.offsets[i + 1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_occurrences() {
        let index = ShardedIndex::build(b"AAGAAGAAG", 3);
        assert_eq!(index.lookup(b"AAG").unwrap(), &[0, 3, 6]);
        assert_eq!(index.lookup(b"AGA").unwrap(), &[1, 4]);
        assert_eq!(index.lookup(b"GGG"), None);
    }

    #[test]
    fn postings_count_every_position() {
        let index = ShardedIndex::build(b"ACGTACGT", 4);
        assert_eq!(index.postings(), 5); // positions 0..=4
        assert_eq!(index.reference_len(), 8);
    }

    #[test]
    fn wrong_length_lookup_is_none() {
        let index = ShardedIndex::build(b"ACGTACGT", 4);
        assert_eq!(index.lookup(b"ACG"), None);
        assert_eq!(index.lookup(b"ACGTA"), None);
    }

    #[test]
    fn case_insensitive() {
        let index = ShardedIndex::build(b"acgtACGT", 4);
        // ACGT occurs (case-insensitively) at positions 0 and 4.
        assert_eq!(index.lookup(b"ACGT").unwrap(), &[0, 4]);
        assert_eq!(index.lookup(b"acgt").unwrap(), &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "seed length")]
    fn rejects_oversized_k() {
        ShardedIndex::build(b"ACGT", 33);
    }

    #[test]
    fn non_acgt_bases_break_seeds() {
        // The N at position 4 invalidates every window covering it.
        let index = ShardedIndex::build(b"ACGTNACGT", 4);
        assert_eq!(index.lookup(b"ACGT").unwrap(), &[0, 5]);
        assert_eq!(index.lookup(b"GTNA"), None);
        assert_eq!(index.postings(), 2);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let reference: Vec<u8> = b"ACGGTCATTGCAGGTTACAG"
            .iter()
            .copied()
            .cycle()
            .take(800)
            .collect();
        let one = ShardedIndex::build_with_shards(&reference, 6, 1);
        for shards in [2usize, 4, 16, 64] {
            let sharded = ShardedIndex::build_with_shards(&reference, 6, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.postings(), one.postings());
            assert_eq!(sharded.distinct_seeds(), one.distinct_seeds());
            for window in reference.windows(6) {
                assert_eq!(one.lookup(window), sharded.lookup(window));
            }
        }
    }

    #[test]
    fn full_k_width_uses_whole_key() {
        let reference: Vec<u8> = b"ACGT".iter().copied().cycle().take(80).collect();
        let index = ShardedIndex::build_with_shards(&reference, 32, 4);
        let hits = index.lookup(&reference[0..32]).unwrap();
        assert_eq!(hits, &[0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48]);
    }

    #[test]
    fn acgt_windows_are_told_apart_from_ones_covering_other_bytes() {
        let mut reference = b"acgtACGT".repeat(20);
        reference[70] = b'N';
        let packed = PackedRef::pack(&reference);
        assert!(packed.is_acgt(0, 70));
        assert!(packed.is_acgt(71, 89));
        assert!(!packed.is_acgt(70, 1));
        assert!(!packed.is_acgt(60, 20));
        assert!(!packed.is_acgt(0, 160));
        // Past-the-end windows clamp like the mapper's region().
        assert!(packed.is_acgt(100, 1_000));
        assert!(packed.is_acgt(160, 5));
        assert!(packed.is_acgt(3, 0));
    }

    #[test]
    fn packed_ref_is_dense() {
        let packed = PackedRef::pack(&vec![b'G'; 1000]);
        assert_eq!(packed.len(), 1000);
        // 250 code bytes + 16 validity words.
        assert_eq!(packed.packed_bytes(), 250 + 128);
    }
}
