//! Property-based tests for the GenASM core algorithms.
//!
//! A small reference Needleman–Wunsch implementation (independent of
//! the `genasm-baselines` crate, which depends on this one) provides
//! ground truth for distances.

use genasm_core::align::{AlignmentMode, GenAsmAligner, GenAsmConfig};
use genasm_core::alphabet::Dna;
use genasm_core::bitap;
use genasm_core::cigar::Cigar;
use genasm_core::dc::window_dc;
use genasm_core::dc_multi::{
    window_dc_multi_distance_into, window_dc_multi_into, DcLaneStream, LaneLoad, MultiDcArena,
    MultiLane,
};
use genasm_core::edit_distance::EditDistanceCalculator;
use genasm_core::filter::PreAlignmentFilter;
use genasm_core::tb::{window_traceback, TracebackOrder};
use proptest::prelude::*;

/// Reference global (NW) edit distance, O(m*n) DP.
fn nw_distance(a: &[u8], b: &[u8]) -> usize {
    let n = a.len();
    let m = b.len();
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j - 1] + cost).min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Reference semiglobal distance: best alignment of the whole pattern
/// `b` inside text `a` (free text prefix and suffix).
fn semiglobal_distance(a: &[u8], b: &[u8]) -> usize {
    let n = a.len();
    let m = b.len();
    // Rows over pattern; free start anywhere in text: row 0 all zeros.
    let mut prev = vec![0usize; n + 1];
    let mut cur = vec![0usize; n + 1];
    for j in 1..=m {
        cur[0] = j;
        for i in 1..=n {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[i] = (prev[i - 1] + cost).min(prev[i] + 1).min(cur[i - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.iter().copied().min().unwrap()
}

fn dna_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        1..=max_len,
    )
}

/// A (text, pattern) pair where the pattern is a mutated copy of a text
/// substring, mimicking a read with sequencing errors.
fn read_pair(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna_seq(max_len), any::<u64>()).prop_map(|(text, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pattern = Vec::with_capacity(text.len());
        for &c in &text {
            match next() % 100 {
                // 5% substitution, 3% deletion, 3% insertion.
                0..=4 => pattern.push(b"ACGT"[(next() % 4) as usize]),
                5..=7 => {}
                8..=10 => {
                    pattern.push(c);
                    pattern.push(b"ACGT"[(next() % 4) as usize]);
                }
                _ => pattern.push(c),
            }
        }
        if pattern.is_empty() {
            pattern.push(b'A');
        }
        (text, pattern)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// GenASM's global edit distance never undercounts the true (NW)
    /// distance — its CIGAR is a real transcript — and stays within a
    /// small window-approximation slack of it on realistic error
    /// profiles (the paper's accuracy study reports the same behaviour:
    /// 96.6-99.7% of reads match the DP-optimal score).
    #[test]
    fn genasm_edit_distance_brackets_dp((text, pattern) in read_pair(300)) {
        let calc = EditDistanceCalculator::default();
        let genasm = calc.distance(&text, &pattern).unwrap();
        let dp = nw_distance(&text, &pattern);
        prop_assert!(genasm >= dp, "undercount: genasm={} dp={}", genasm, dp);
        let slack = 2 + text.len() / 32;
        prop_assert!(genasm <= dp + slack, "genasm={} dp={} slack={}", genasm, dp, slack);
    }

    /// For isolated errors separated by more than a window, the
    /// windowed distance is exact.
    #[test]
    fn genasm_edit_distance_exact_for_sparse_errors(
        base in dna_seq(600),
        positions in proptest::collection::vec(0usize..4, 4),
        kinds in proptest::collection::vec(0usize..3, 4),
    ) {
        // Place up to 4 errors at positions spaced ~150 apart.
        let text = base;
        let mut pattern = text.clone();
        let mut offset = 0i64;
        for (slot, (&p, &kind)) in positions.iter().zip(kinds.iter()).enumerate() {
            let pos = slot * 150 + 40 + p;
            let idx = (pos as i64 + offset) as usize;
            if idx >= pattern.len().saturating_sub(2) || pos + 2 >= text.len() {
                continue;
            }
            match kind {
                0 => pattern[idx] = if pattern[idx] == b'A' { b'C' } else { b'A' },
                1 => { pattern.remove(idx); offset -= 1; }
                _ => { pattern.insert(idx, b'G'); offset += 1; }
            }
        }
        let calc = EditDistanceCalculator::default();
        let genasm = calc.distance(&text, &pattern).unwrap();
        let dp = nw_distance(&text, &pattern);
        prop_assert_eq!(genasm, dp);
    }

    /// The global-mode CIGAR is a valid transcript whose edit count
    /// equals the reported distance and consumes both sequences fully.
    #[test]
    fn global_cigar_is_valid_transcript((text, pattern) in read_pair(256)) {
        let calc = EditDistanceCalculator::default();
        let alignment = calc.alignment(&text, &pattern).unwrap();
        prop_assert!(alignment.cigar.validates(&text, &pattern));
        prop_assert_eq!(alignment.cigar.edit_distance(), alignment.edit_distance);
        prop_assert_eq!(alignment.cigar.text_len(), text.len());
        prop_assert_eq!(alignment.cigar.pattern_len(), pattern.len());
    }

    /// The semiglobal aligner produces a valid transcript and consumes
    /// the full pattern.
    #[test]
    fn semiglobal_cigar_is_valid((text, pattern) in read_pair(256)) {
        let aligner = GenAsmAligner::default();
        let a = aligner.align(&text, &pattern).unwrap();
        prop_assert!(a.text_consumed <= text.len());
        prop_assert!(a.cigar.validates(&text[..a.text_consumed], &pattern));
        prop_assert_eq!(a.pattern_consumed, pattern.len());
        prop_assert_eq!(a.cigar.edit_distance(), a.edit_distance);
    }

    /// Bitap reports a position iff the semiglobal DP distance is
    /// within the threshold, and its best distance matches the DP.
    #[test]
    fn bitap_best_matches_semiglobal_dp(text in dna_seq(80), pattern in dna_seq(24), k in 0usize..6) {
        let best = bitap::find_best::<Dna>(&text, &pattern, k).unwrap();
        let dp = semiglobal_distance(&text, &pattern);
        match best {
            Some(m) => prop_assert_eq!(m.distance, dp),
            None => prop_assert!(dp > k, "dp={} k={}", dp, k),
        }
    }

    /// Single-word and multi-word Bitap agree wherever both apply.
    #[test]
    fn bitap_word_paths_agree(text in dna_seq(120), pattern in dna_seq(60), k in 0usize..4) {
        let single = bitap::find_all_single_word::<Dna>(&text, &pattern, k).unwrap();
        let multi = bitap::find_all_multi_word::<Dna>(&text, &pattern, k).unwrap();
        prop_assert_eq!(single, multi);
    }

    /// The pre-alignment filter never rejects a pair the ground truth
    /// accepts (zero false-reject rate, §10.3).
    #[test]
    fn filter_has_zero_false_reject_rate((text, pattern) in read_pair(120), k in 0usize..12) {
        let filter = PreAlignmentFilter::new(k);
        let truth_accepts = semiglobal_distance(&text, &pattern) <= k;
        if truth_accepts {
            prop_assert!(filter.accepts(&text, &pattern).unwrap());
        }
    }

    /// Every valid (W, O) setting produces a valid global transcript
    /// that brackets the DP distance within the window-approximation
    /// slack.
    #[test]
    fn window_settings_are_consistent((text, pattern) in read_pair(200)) {
        let dp = nw_distance(&text, &pattern);
        for (w, o) in [(32usize, 12usize), (48, 16), (64, 24)] {
            let cfg = GenAsmConfig::default()
                .with_window(w)
                .with_overlap(o)
                .with_mode(AlignmentMode::Global);
            let calc = EditDistanceCalculator::new(cfg);
            let alignment = calc.alignment(&text, &pattern).unwrap();
            prop_assert!(alignment.cigar.validates(&text, &pattern), "W={} O={}", w, o);
            // Every configuration yields a real transcript, so the
            // distance never undercounts the optimum. Tightness is
            // asserted separately for the paper's (64, 24) setting —
            // small windows degrade on adversarial homopolymer inputs,
            // which is exactly why the paper ships W = 64.
            prop_assert!(alignment.edit_distance >= dp, "W={} O={}", w, o);
        }
    }

    /// Lock-step lanes are bit-identical to the scalar window kernel:
    /// same distances, same stored bitvectors, same traceback walks —
    /// across mixed window sizes, ragged lane counts (1..=4 of 4), and
    /// early-terminating lanes (k budgets that may be exhausted).
    #[test]
    fn lockstep_lanes_match_scalar_window_dc(
        windows in proptest::collection::vec(
            (dna_seq(64), dna_seq(64), 0usize..66),
            1..=4,
        ),
    ) {
        let mut arena = MultiDcArena::<4>::new();
        let lanes: Vec<MultiLane> = windows
            .iter()
            .map(|(t, p, k)| MultiLane { text: t, pattern: p, k_max: *k })
            .collect();
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        for (l, (t, p, k)) in windows.iter().enumerate() {
            let scalar = window_dc::<Dna>(t, p, *k).unwrap();
            prop_assert_eq!(&Ok(scalar.edit_distance), &arena.outcomes()[l], "lane {}", l);
            let view = arena.lane(l);
            prop_assert_eq!(view.rows(), scalar.bitvectors.rows(), "lane {}", l);
            for d in 0..view.rows() {
                for i in 0..t.len() {
                    prop_assert_eq!(view.match_at(i, d), scalar.bitvectors.match_at(i, d));
                    prop_assert_eq!(view.ins_at(i, d), scalar.bitvectors.ins_at(i, d));
                    prop_assert_eq!(view.del_at(i, d), scalar.bitvectors.del_at(i, d));
                }
            }
            if let Some(d) = scalar.edit_distance {
                let walk_scalar = window_traceback(
                    &scalar.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                let walk_lane = window_traceback(
                    &view, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                prop_assert_eq!(walk_scalar.ops, walk_lane.ops, "lane {}", l);
            }
        }
        // Distance-only mode reports the identical distances.
        let mut fast = MultiDcArena::<4>::new();
        window_dc_multi_distance_into::<Dna, 4>(&lanes, &mut fast);
        prop_assert_eq!(arena.outcomes(), fast.outcomes());
    }

    /// The persistent-lane stream is bit-identical to the scalar window
    /// kernel across ragged lane lifetimes: windows resolving at
    /// different depths, mid-stream refills into half-drained lanes,
    /// instant resolutions, exhausted budgets, invalid windows, and the
    /// empty-refill-queue tail where lanes idle out one by one. Up to
    /// 24 windows stream through 4 lanes, so lanes see many refills
    /// and stale state from a previous window would be caught.
    #[test]
    fn persistent_lanes_match_scalar_window_dc(
        windows in proptest::collection::vec(
            (dna_seq(64), dna_seq(64), 0usize..66),
            1..=24,
        ),
    ) {
        let mut stream = DcLaneStream::<4>::new();
        let mut next = 0usize;
        let mut loaded = [usize::MAX; 4];
        let mut resolved = Vec::new();
        // Checks the resolved lane against the scalar kernel:
        // distance, stored bitvectors, and the traceback walk.
        fn check(stream: &DcLaneStream<4>, lane: usize, window: &(Vec<u8>, Vec<u8>, usize)) {
            let (t, p, k) = window;
            let scalar = window_dc::<Dna>(t, p, *k).unwrap();
            assert_eq!(stream.outcome(lane), scalar.edit_distance);
            let view = stream.lane(lane);
            assert_eq!(view.rows(), scalar.bitvectors.rows());
            for d in 0..view.rows() {
                for i in 0..t.len() {
                    assert_eq!(view.match_at(i, d), scalar.bitvectors.match_at(i, d));
                    assert_eq!(view.ins_at(i, d), scalar.bitvectors.ins_at(i, d));
                    assert_eq!(view.del_at(i, d), scalar.bitvectors.del_at(i, d));
                }
            }
            if let Some(d) = scalar.edit_distance {
                let walk_scalar = window_traceback(
                    &scalar.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                let walk_lane = window_traceback(
                    &view, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                assert_eq!(walk_scalar.ops, walk_lane.ops);
            }
        }
        // Feeds a lane until it holds a pending window or the queue is
        // dry (the lane then idles through the tail).
        fn feed(
            stream: &mut DcLaneStream<4>,
            lane: usize,
            windows: &[(Vec<u8>, Vec<u8>, usize)],
            next: &mut usize,
            loaded: &mut [usize; 4],
        ) {
            loop {
                if *next >= windows.len() {
                    stream.release_lane(lane);
                    loaded[lane] = usize::MAX;
                    return;
                }
                let idx = *next;
                *next += 1;
                let (t, p, k) = &windows[idx];
                match stream.refill_lane::<Dna>(lane, t, p, *k) {
                    Ok(LaneLoad::Pending) => {
                        loaded[lane] = idx;
                        return;
                    }
                    Ok(LaneLoad::Resolved) => check(stream, lane, &windows[idx]),
                    Err(e) => {
                        assert_eq!(window_dc::<Dna>(t, p, *k).unwrap_err(), e);
                    }
                }
            }
        }
        for lane in 0..4 {
            feed(&mut stream, lane, &windows, &mut next, &mut loaded);
        }
        while stream.active_lanes() > 0 {
            resolved.clear();
            stream.step(&mut resolved);
            for &lane in &resolved {
                check(&stream, lane, &windows[loaded[lane]]);
                feed(&mut stream, lane, &windows, &mut next, &mut loaded);
            }
        }
        prop_assert_eq!(next, windows.len(), "every window must drain");
    }

    /// Batched filter decisions equal scalar decisions pair by pair.
    #[test]
    fn filter_batches_match_scalar(
        pairs_in in proptest::collection::vec((dna_seq(90), dna_seq(70)), 1..=9),
        k in 0usize..8,
    ) {
        let filter = PreAlignmentFilter::new(k);
        let pairs: Vec<(&[u8], &[u8])> = pairs_in
            .iter()
            .map(|(t, p)| (t.as_slice(), p.as_slice()))
            .collect();
        let accepts = filter.accepts_many(&pairs);
        let decides = filter.decide_many(&pairs);
        for (idx, &(t, p)) in pairs.iter().enumerate() {
            prop_assert_eq!(&accepts[idx], &filter.accepts(t, p), "idx {}", idx);
            prop_assert_eq!(&decides[idx], &filter.decide(t, p), "idx {}", idx);
        }
    }

    /// Batched distance-only edit distances: exact (DP-equal) whenever
    /// the certified fast path engages, never above the full windowed
    /// path, and identical to it on fallback.
    #[test]
    fn distance_many_brackets_correctly(
        pairs_in in proptest::collection::vec((dna_seq(60), dna_seq(60)), 1..=6),
    ) {
        let calc = EditDistanceCalculator::default();
        let pairs: Vec<(&[u8], &[u8])> = pairs_in
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let many = calc.distance_many(&pairs);
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            let full = calc.distance(a, b).unwrap();
            let fast = *many[idx].as_ref().unwrap();
            let dp = nw_distance(a, b);
            let max = EditDistanceCalculator::SINGLE_WINDOW_MAX;
            if a.len() <= max && b.len() <= max && dp < EditDistanceCalculator::SENTINEL_PAD {
                prop_assert_eq!(fast, dp, "idx {} not exact", idx);
            } else {
                prop_assert_eq!(fast, full, "idx {} fallback mismatch", idx);
            }
            prop_assert!(dp <= fast && fast <= full, "idx {}: {} {} {}", idx, dp, fast, full);
        }
    }

    /// CIGAR string round-trips through parse/display.
    #[test]
    fn cigar_roundtrip((text, pattern) in read_pair(200)) {
        let aligner = GenAsmAligner::default();
        let a = aligner.align(&text, &pattern).unwrap();
        let s = a.cigar.to_string();
        let parsed: Cigar = s.parse().unwrap();
        prop_assert_eq!(parsed, a.cigar);
    }
}

// ---------------------------------------------------------------------
// Wider lanes and fused occurrence hit-tests: the 16-lane row kernels
// and the per-lane AND-accumulator hit test, against the scalar ground
// truth. These tests carry no feature gates, so the same properties
// also run under `--no-default-features`, where every width falls back
// to the portable row kernels.
// ---------------------------------------------------------------------

use genasm_core::dc::{occurrence_distance_into, DcArena};
use genasm_core::error::AlignError;

/// One occurrence outcome, as the scalar kernel reports it.
type Occurrence = Result<Option<usize>, AlignError>;

/// Streams `windows` through an occurrence-mode lane stream in
/// submission order and returns the per-window outcomes plus the
/// stream's `(rows_issued, rows_useful)` and scan-op totals.
fn run_occurrence_stream<const L: usize>(
    stream: &mut DcLaneStream<L>,
    windows: &[(Vec<u8>, Vec<u8>, usize)],
) -> (Vec<Occurrence>, (u64, u64), u64) {
    let mut outcomes: Vec<Option<Occurrence>> = vec![None; windows.len()];
    let mut next = 0usize;
    let mut loaded = [usize::MAX; L];
    // Feeds `lane` until it holds a pending window or the queue dries.
    fn feed<const L: usize>(
        stream: &mut DcLaneStream<L>,
        lane: usize,
        windows: &[(Vec<u8>, Vec<u8>, usize)],
        outcomes: &mut [Option<Occurrence>],
        next: &mut usize,
        loaded: &mut [usize; L],
    ) {
        loop {
            if *next >= windows.len() {
                stream.release_lane(lane);
                loaded[lane] = usize::MAX;
                return;
            }
            let idx = *next;
            *next += 1;
            let (t, p, k) = &windows[idx];
            match stream.refill_lane::<Dna>(lane, t, p, *k) {
                Ok(genasm_core::dc_multi::LaneLoad::Pending) => {
                    loaded[lane] = idx;
                    return;
                }
                Ok(genasm_core::dc_multi::LaneLoad::Resolved) => {
                    outcomes[idx] = Some(Ok(stream.outcome(lane)));
                }
                Err(e) => outcomes[idx] = Some(Err(e)),
            }
        }
    }
    for lane in 0..L {
        feed(stream, lane, windows, &mut outcomes, &mut next, &mut loaded);
    }
    let mut resolved = Vec::new();
    while stream.active_lanes() > 0 {
        resolved.clear();
        stream.step(&mut resolved);
        for &lane in &resolved {
            outcomes[loaded[lane]] = Some(Ok(stream.outcome(lane)));
            feed(stream, lane, windows, &mut outcomes, &mut next, &mut loaded);
        }
    }
    let rows = stream.take_row_counters();
    let ops = stream.take_scan_ops();
    (
        outcomes
            .into_iter()
            .map(|o| o.expect("every window drains"))
            .collect(),
        rows,
        ops,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The 16-lane row kernels are bit-identical to the scalar window
    /// kernel: same distances, same stored bitvectors, same traceback
    /// walks — across mixed window sizes, ragged lane counts
    /// (1..=16 of 16), and early-terminating k budgets.
    #[test]
    fn sixteen_lane_rows_match_scalar_window_dc(
        windows in proptest::collection::vec(
            (dna_seq(64), dna_seq(64), 0usize..66),
            1..=16,
        ),
    ) {
        let mut arena = MultiDcArena::<16>::new();
        let lanes: Vec<MultiLane> = windows
            .iter()
            .map(|(t, p, k)| MultiLane { text: t, pattern: p, k_max: *k })
            .collect();
        window_dc_multi_into::<Dna, 16>(&lanes, &mut arena);
        for (l, (t, p, k)) in windows.iter().enumerate() {
            let scalar = window_dc::<Dna>(t, p, *k).unwrap();
            prop_assert_eq!(&Ok(scalar.edit_distance), &arena.outcomes()[l], "lane {}", l);
            let view = arena.lane(l);
            prop_assert_eq!(view.rows(), scalar.bitvectors.rows(), "lane {}", l);
            for d in 0..view.rows() {
                for i in 0..t.len() {
                    prop_assert_eq!(view.match_at(i, d), scalar.bitvectors.match_at(i, d));
                    prop_assert_eq!(view.ins_at(i, d), scalar.bitvectors.ins_at(i, d));
                    prop_assert_eq!(view.del_at(i, d), scalar.bitvectors.del_at(i, d));
                }
            }
            if let Some(d) = scalar.edit_distance {
                let walk_scalar = window_traceback(
                    &scalar.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                let walk_lane = window_traceback(
                    &view, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                prop_assert_eq!(walk_scalar.ops, walk_lane.ops, "lane {}", l);
            }
        }
        // Distance-only mode reports the identical distances.
        let mut fast = MultiDcArena::<16>::new();
        window_dc_multi_distance_into::<Dna, 16>(&lanes, &mut fast);
        prop_assert_eq!(arena.outcomes(), fast.outcomes());
    }

    /// The fused occurrence hit test answers every probe the unfused
    /// baseline answers, with the identical outcome: both streams match
    /// the scalar occurrence kernel window for window, issue the same
    /// row slots (fusion changes how a probe is answered, never the
    /// walk schedule), and the fused stream never scans more column
    /// positions than the baseline. The k range deliberately crosses
    /// `k >= m` so the `d >= m` exact-scan fallback is exercised. Runs
    /// at 4 and 16 lanes.
    #[test]
    fn fused_occurrence_hit_test_matches_scalar_and_unfused(
        windows in proptest::collection::vec(
            (dna_seq(48), dna_seq(24), 0usize..32),
            1..=20,
        ),
    ) {
        let mut scalar_arena = DcArena::new();
        let scalar: Vec<Occurrence> = windows
            .iter()
            .map(|(t, p, k)| occurrence_distance_into::<Dna>(t, p, *k, &mut scalar_arena))
            .collect();

        let mut fused4 = DcLaneStream::<4>::occurrence_scan();
        let (out_f4, rows_f4, ops_f4) = run_occurrence_stream(&mut fused4, &windows);
        let mut unfused4 = DcLaneStream::<4>::occurrence_scan_unfused();
        let (out_u4, rows_u4, ops_u4) = run_occurrence_stream(&mut unfused4, &windows);
        prop_assert_eq!(&out_f4, &scalar, "fused x4 vs scalar");
        prop_assert_eq!(&out_u4, &scalar, "unfused x4 vs scalar");
        prop_assert_eq!(rows_f4, rows_u4, "fusion must not change the x4 walk schedule");
        prop_assert!(ops_f4 <= ops_u4, "fused x4 scanned more: {} > {}", ops_f4, ops_u4);

        let mut fused16 = DcLaneStream::<16>::occurrence_scan();
        let (out_f16, rows_f16, ops_f16) = run_occurrence_stream(&mut fused16, &windows);
        let mut unfused16 = DcLaneStream::<16>::occurrence_scan_unfused();
        let (out_u16, rows_u16, ops_u16) = run_occurrence_stream(&mut unfused16, &windows);
        prop_assert_eq!(&out_f16, &scalar, "fused x16 vs scalar");
        prop_assert_eq!(&out_u16, &scalar, "unfused x16 vs scalar");
        prop_assert_eq!(rows_f16, rows_u16, "fusion must not change the x16 walk schedule");
        prop_assert!(ops_f16 <= ops_u16, "fused x16 scanned more: {} > {}", ops_f16, ops_u16);
    }
}
