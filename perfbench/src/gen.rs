//! Seeded input generation. The harness owns its generator (PRNG,
//! genome synthesis, read simulation) so that a workload is a pure
//! function of `--seed` and of this file: a later change to the
//! repository's own simulators cannot silently change what is measured.
//! The program under test receives only the FASTA/FASTQ bytes built
//! here; the ground truth stays on the harness side.

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the run seed and a stream tag
/// (genome, reads, ...), so streams never share a prefix.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is
    /// below 2^-40 for every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Per-base sequencing error rates.
#[derive(Clone, Copy)]
pub struct ErrorProfile {
    pub substitution: f64,
    pub insertion: f64,
    pub deletion: f64,
}

impl ErrorProfile {
    /// Illumina-like: 5 % total, 94 : 3 : 3 substitution : insertion : deletion.
    pub fn illumina() -> Self {
        ErrorProfile {
            substitution: 0.05 * 0.94,
            insertion: 0.05 * 0.03,
            deletion: 0.05 * 0.03,
        }
    }

    /// PacBio-CLR-like: 15 % total, 10 : 60 : 30.
    pub fn pacbio_15() -> Self {
        ErrorProfile {
            substitution: 0.15 * 0.10,
            insertion: 0.15 * 0.60,
            deletion: 0.15 * 0.30,
        }
    }
}

/// Repeat structure of a synthetic genome.
#[derive(Clone, Copy)]
pub struct Repeats {
    /// Share of the genome overwritten by repeat copies.
    pub fraction: f64,
    /// Length of one copied unit.
    pub unit: usize,
    /// Per-base substitution rate applied to each copy.
    pub divergence: f64,
}

fn other_base(rng: &mut Rng, not: u8) -> u8 {
    let alternatives: [u8; 3] = match not {
        b'A' => [b'C', b'G', b'T'],
        b'C' => [b'A', b'G', b'T'],
        b'G' => [b'A', b'C', b'T'],
        _ => [b'A', b'C', b'G'],
    };
    alternatives[rng.below(3)]
}

/// An i.i.d. genome (41 % GC) with optional diverged segmental duplications.
pub fn genome(length: usize, repeats: Option<Repeats>, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut seq: Vec<u8> = (0..length)
        .map(|_| {
            let gc = rng.unit() < 0.41;
            let second = rng.next_u64() & 1 == 1;
            match (gc, second) {
                (true, true) => b'G',
                (true, false) => b'C',
                (false, true) => b'A',
                (false, false) => b'T',
            }
        })
        .collect();
    if let Some(r) = repeats {
        // The genome is cut into `copies` equal stretches. Each holds one
        // copy slot near its start and keeps a free tail of at least one
        // unit; copy `c` is the (diverged) free tail of stretch `perm[c]`.
        // Every seed therefore has the same structure — `copies` repeat
        // families of exactly two members, none overlapping, `fraction`
        // of the genome overwritten — and the mapper's work varies
        // little from seed to seed; only the bases and offsets are random.
        let copies = (length as f64 * r.fraction / r.unit as f64).floor() as usize;
        let stretch = length.checked_div(copies).unwrap_or(0);
        if stretch >= 2 * r.unit {
            let slots: Vec<usize> = (0..copies)
                .map(|c| c * stretch + rng.below(stretch - 2 * r.unit + 1))
                .collect();
            let mut perm: Vec<usize> = (0..copies).collect();
            for i in (1..copies).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            for c in 0..copies {
                let from = perm[c];
                let tail_start = slots[from] + r.unit;
                let tail_end = (from + 1) * stretch;
                let src = tail_start + rng.below(tail_end - tail_start - r.unit + 1);
                let mut unit = seq[src..src + r.unit].to_vec();
                for base in &mut unit {
                    if rng.unit() < r.divergence {
                        *base = other_base(&mut rng, *base);
                    }
                }
                seq[slots[c]..slots[c] + r.unit].copy_from_slice(&unit);
            }
        }
    }
    seq
}

pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|&b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            b'T' => b'A',
            other => other,
        })
        .collect()
}

/// One simulated read and the truth the checkers compare against.
pub struct SimRead {
    pub seq: Vec<u8>,
    /// Start of the template on the forward reference.
    pub origin: usize,
    pub template_len: usize,
    /// The read is the reverse complement of its template.
    pub reverse: bool,
    /// Edits the simulator introduced: an upper bound of the optimal
    /// edit distance at the true locus.
    pub true_edits: usize,
}

fn mutate(template: &[u8], profile: ErrorProfile, rng: &mut Rng) -> (Vec<u8>, usize) {
    let mut seq = Vec::with_capacity(template.len() + template.len() / 8);
    let mut edits = 0usize;
    for &base in template {
        let roll = rng.unit();
        if roll < profile.deletion {
            edits += 1;
        } else if roll < profile.deletion + profile.substitution {
            seq.push(other_base(rng, base));
            edits += 1;
        } else {
            seq.push(base);
        }
        if rng.unit() < profile.insertion {
            seq.push(b"ACGT"[rng.below(4)]);
            edits += 1;
        }
    }
    if seq.is_empty() {
        seq.push(b'A');
        edits += 1;
    }
    (seq, edits)
}

/// `count` reads of template length `length` and — when `both_strands` —
/// a fair coin for the strand. Origins are stratified: read `i` starts at
/// a random point of the `i`-th of `count` equal stretches of the
/// reference, so every seed samples every region equally (a uniform draw
/// would make the number of repeat-borne reads, and with it the mapper's
/// work, vary by several percent between seeds). The reads are then
/// shuffled, so their order carries no locality.
pub fn reads(
    reference: &[u8],
    count: usize,
    length: usize,
    profile: ErrorProfile,
    both_strands: bool,
    seed: u64,
) -> Vec<SimRead> {
    assert!(reference.len() >= length, "reference shorter than a read");
    let mut rng = Rng::new(seed);
    let span = reference.len() - length + 1;
    let mut reads: Vec<SimRead> = (0..count)
        .map(|i| {
            let (lo, hi) = (i * span / count, (i + 1) * span / count);
            let origin = lo + rng.below((hi - lo).max(1));
            let reverse = both_strands && rng.next_u64() & 1 == 1;
            let region = &reference[origin..origin + length];
            let template = if reverse {
                reverse_complement(region)
            } else {
                region.to_vec()
            };
            let (seq, true_edits) = mutate(&template, profile, &mut rng);
            SimRead {
                seq,
                origin,
                template_len: length,
                reverse,
                true_edits,
            }
        })
        .collect();
    for i in (1..reads.len()).rev() {
        reads.swap(i, rng.below(i + 1));
    }
    reads
}

/// FASTA bytes, 80 columns per line, one record per `(name, sequence)`.
pub fn fasta_bytes<'a>(records: impl IntoIterator<Item = (String, &'a [u8])>) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, seq) in records {
        out.push(b'>');
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
        for line in seq.chunks(80) {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
    }
    out
}

/// FASTQ bytes with a uniform quality string; record `i` is named `r<i>`.
pub fn fastq_bytes<'a>(seqs: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, seq) in seqs.into_iter().enumerate() {
        out.extend_from_slice(format!("@r{i}\n").as_bytes());
        out.extend_from_slice(seq);
        out.extend_from_slice(b"\n+\n");
        out.resize(out.len() + seq.len(), b'I');
        out.push(b'\n');
    }
    out
}
