//! Differential oracle for the flat-matrix matcher.
//!
//! The oracle below is the matcher as it stood before signatures became one
//! row-major word matrix: one `BitVec` per fault, masked distance through
//! bitwise temporaries (`(value ^ stored) & known`), and a full sort of
//! every candidate. Thousands of seeded cases — all three dictionary kinds,
//! widths across 63/64/65/128 bits, tie-heavy fault pools, masked and
//! unmasked observations — must produce, through every path that serves
//! them (whole, randomly cut shards, `.sddb` round-trip, memory-mapped
//! load), exactly the oracle's ranking prefix: every fault tied at the
//! minimum plus the first [`TOP_CANDIDATES`].

use same_different::dict::diagnose::{
    match_signatures_masked, match_signatures_top_into, MatchQuality, MatchScratch,
    NoisyDiagnosisReport, ScoredCandidate, TOP_CANDIDATES,
};
use same_different::dict::{FullDictionary, PassFailDictionary, SameDifferentDictionary};
use same_different::logic::{BitVec, MaskedBitVec, Prng};
use same_different::shard::{diagnose_sharded, ShardObservation};
use same_different::sim::ResponseMatrix;
use same_different::store::{self, MmapMode, SddbReader, StoredDictionary};

/// Widths that straddle the word boundaries.
const WIDTHS: [usize; 12] = [1, 2, 7, 63, 64, 65, 100, 127, 128, 129, 130, 191];

/// Cases per dictionary kind.
const CASES: usize = 2000;

/// The oracle's answer: `(fault, mismatches)` in full rank order.
#[derive(Debug)]
struct Oracle {
    ranking: Vec<(usize, usize)>,
    quality: MatchQuality,
    known: usize,
}

impl Oracle {
    fn rank(mut scores: Vec<(usize, usize)>, known: usize, fully_known: bool) -> Self {
        scores.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        let min = scores[0].1;
        let quality = match (min, fully_known) {
            (0, true) => MatchQuality::Exact,
            (0, false) => MatchQuality::ConsistentUnderMask,
            _ => MatchQuality::Ranked,
        };
        Self {
            ranking: scores,
            quality,
            known,
        }
    }

    fn best(&self) -> Vec<usize> {
        let min = self.ranking[0].1;
        self.ranking
            .iter()
            .take_while(|&&(_, m)| m == min)
            .map(|&(f, _)| f)
            .collect()
    }

    /// Every fault tied at the minimum plus the first `TOP_CANDIDATES`.
    fn prefix(&self) -> &[(usize, usize)] {
        let len = self
            .best()
            .len()
            .max(TOP_CANDIDATES.min(self.ranking.len()));
        &self.ranking[..len]
    }

    fn assert_full(&self, report: &NoisyDiagnosisReport, what: &str) {
        self.assert_ranking(&report.ranking, &self.ranking, what);
        self.assert_header(report, what);
    }

    fn assert_prefix(&self, report: &NoisyDiagnosisReport, what: &str) {
        self.assert_ranking(&report.ranking, self.prefix(), what);
        self.assert_header(report, what);
    }

    fn assert_header(&self, report: &NoisyDiagnosisReport, what: &str) {
        assert_eq!(report.best, self.best(), "{what}: best");
        assert_eq!(report.quality, self.quality, "{what}: quality");
        assert_eq!(report.known, self.known, "{what}: known");
    }

    fn assert_ranking(&self, got: &[ScoredCandidate], want: &[(usize, usize)], what: &str) {
        let pairs: Vec<(usize, usize)> = got.iter().map(|c| (c.fault, c.mismatches)).collect();
        assert_eq!(pairs, want, "{what}: ranking");
        for c in got {
            let confidence = (self.known - c.mismatches + 1) as f64 / (self.known + 2) as f64;
            assert_eq!(c.confidence, confidence, "{what}: confidence");
            assert_eq!(c.known, self.known, "{what}: candidate known");
        }
    }
}

/// Masked distance through bitwise temporaries.
fn oracle_distance(observed: &MaskedBitVec, stored: &BitVec) -> usize {
    let diff = observed.values() ^ stored;
    (&diff & observed.known_mask()).count_ones()
}

fn oracle_signatures(rows: &[BitVec], observed: &MaskedBitVec) -> Oracle {
    let scores = rows
        .iter()
        .enumerate()
        .map(|(fault, row)| (fault, oracle_distance(observed, row)))
        .collect();
    Oracle::rank(
        scores,
        observed.known_count(),
        observed.known_count() == observed.len(),
    )
}

/// Same/different encoding: `1` on any known disagreement with the
/// baseline, `0` only on a fully-known equal response, else unknown.
fn oracle_encode(baselines: &[BitVec], responses: &[MaskedBitVec]) -> MaskedBitVec {
    let mut signature = MaskedBitVec::unknown(baselines.len());
    for (test, (observed, baseline)) in responses.iter().zip(baselines).enumerate() {
        if oracle_distance(observed, baseline) > 0 {
            signature.set_known(test, true);
        } else if observed.known_count() == observed.len() {
            signature.set_known(test, false);
        }
    }
    signature
}

fn oracle_full(matrix: &ResponseMatrix, responses: &[MaskedBitVec]) -> Oracle {
    let scores = (0..matrix.fault_count())
        .map(|fault| {
            let d = (0..matrix.test_count())
                .map(|t| {
                    oracle_distance(&responses[t], &matrix.response(t, matrix.class(t, fault)))
                })
                .sum();
            (fault, d)
        })
        .collect();
    let known = responses.iter().map(MaskedBitVec::known_count).sum();
    let fully_known = responses.iter().all(|r| r.known_count() == r.len());
    Oracle::rank(scores, known, fully_known)
}

fn random_bits(rng: &mut Prng, width: usize, p: f64) -> BitVec {
    (0..width).map(|_| rng.gen_bool(p)).collect()
}

/// `n` rows of `width` bits: tie-heavy (drawn from a pool of 1–3 rows) half
/// the time, independent otherwise.
fn random_rows(rng: &mut Prng, n: usize, width: usize) -> Vec<BitVec> {
    let p = [0.1, 0.5, 0.9][rng.gen_range(0..3)];
    if rng.gen_bool(0.5) {
        let pool: Vec<BitVec> = (0..1 + rng.gen_range(0..3))
            .map(|_| random_bits(rng, width, p))
            .collect();
        (0..n).map(|_| rng.choose(&pool).unwrap().clone()).collect()
    } else {
        (0..n).map(|_| random_bits(rng, width, p)).collect()
    }
}

/// Masks each bit with probability `rate` and flips each known bit with
/// probability `flip`.
fn corrupt(rng: &mut Prng, clean: &BitVec, rate: f64, flip: f64) -> MaskedBitVec {
    let mut observed = MaskedBitVec::from_known(clean.clone());
    for t in 0..clean.len() {
        if rng.gen_bool(rate) {
            observed.mask(t);
        } else if rng.gen_bool(flip) {
            observed.flip(t);
        }
    }
    observed
}

/// Masking regime: unmasked, lightly masked, or heavily masked.
fn mask_rate(rng: &mut Prng) -> f64 {
    [0.0, 0.0, 0.05, 0.4][rng.gen_range(0..4)]
}

/// Contiguous ranges tiling `0..n`, cut at 0–3 random points.
fn random_cuts(rng: &mut Prng, n: usize) -> Vec<std::ops::Range<usize>> {
    let count = if n > 1 { rng.gen_range(0..4) } else { 0 };
    let mut cuts: Vec<usize> = (0..count).map(|_| 1 + rng.gen_range(0..n - 1)).collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Asserts the bounded paths every stored dictionary is served through:
/// sharded at random cuts, `.sddb` round-tripped, and (every tenth case)
/// loaded from a mapped file.
fn assert_served(
    rng: &mut Prng,
    case: usize,
    whole: &StoredDictionary,
    observation: ShardObservation<'_>,
    oracle: &Oracle,
) {
    let what = format!("case {case} {:?}", whole.kind());
    let report = diagnose_sharded(&[(0, whole)], observation).unwrap();
    oracle.assert_prefix(&report, &format!("{what} whole"));

    let ranges = random_cuts(rng, whole.fault_count());
    let shards: Vec<StoredDictionary> = ranges
        .iter()
        .map(|r| store::slice_dictionary(whole, r.clone()).unwrap())
        .collect();
    let refs: Vec<(usize, &StoredDictionary)> = ranges
        .iter()
        .zip(&shards)
        .map(|(r, d)| (r.start, d))
        .collect();
    let report = diagnose_sharded(&refs, observation).unwrap();
    oracle.assert_prefix(&report, &format!("{what} sharded {ranges:?}"));

    let bytes = store::encode(whole).unwrap();
    let decoded = store::decode(&bytes).unwrap();
    assert_eq!(&decoded, whole, "{what}: round trip");
    let report = diagnose_sharded(&[(0, &decoded)], observation).unwrap();
    oracle.assert_prefix(&report, &format!("{what} decoded"));

    if case.is_multiple_of(10) && store::mmap_supported() {
        let path = std::env::temp_dir().join(format!(
            "sdd-match-oracle-{}-{}-{case}.sddb",
            whole.kind().name(),
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = store::read_dictionary_bytes(&path, MmapMode::On).unwrap();
        assert!(mapped.is_mapped());
        let loaded = SddbReader::open(mapped).unwrap().dictionary().unwrap();
        let report = diagnose_sharded(&[(0, &loaded)], observation).unwrap();
        oracle.assert_prefix(&report, &format!("{what} mapped"));
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn pass_fail_matches_the_oracle_prefix_on_every_path() {
    let mut rng = Prng::seed_from_u64(0x9a55_fa11);
    let mut scratch = MatchScratch::default();
    for case in 0..CASES {
        let width = WIDTHS[case % WIDTHS.len()];
        let n = 1 + rng.gen_range(0..40);
        let rows = random_rows(&mut rng, n, width);
        let d = PassFailDictionary::from_parts(rows.clone(), width, 1).unwrap();
        let target = if rng.gen_bool(0.7) {
            rows[rng.gen_range(0..n)].clone()
        } else {
            random_bits(&mut rng, width, 0.5)
        };
        let rate = mask_rate(&mut rng);
        let observed = corrupt(&mut rng, &target, rate, 0.02);
        let oracle = oracle_signatures(&rows, &observed);

        let full = match_signatures_masked(d.signatures(), &observed).unwrap();
        oracle.assert_full(&full, &format!("case {case} full"));
        let (quality, known) =
            match_signatures_top_into(d.signatures(), &observed, TOP_CANDIDATES, &mut scratch)
                .unwrap();
        assert_eq!((quality, known), (oracle.quality, oracle.known));
        let pairs: Vec<(usize, usize)> = scratch
            .ranking
            .iter()
            .map(|c| (c.fault, c.mismatches))
            .collect();
        assert_eq!(pairs, oracle.prefix(), "case {case} bounded");

        let whole = StoredDictionary::PassFail(d);
        assert_served(
            &mut rng,
            case,
            &whole,
            ShardObservation::Signature(&observed),
            &oracle,
        );
    }
}

#[test]
fn same_different_matches_the_oracle_prefix_on_every_path() {
    let mut rng = Prng::seed_from_u64(0x5a3e_d1ff);
    for case in 0..CASES {
        let tests = WIDTHS[case % WIDTHS.len()];
        let outputs = 1 + rng.gen_range(0..6);
        let n = 1 + rng.gen_range(0..40);
        let rows = random_rows(&mut rng, n, tests);
        let baselines: Vec<BitVec> = (0..tests)
            .map(|_| random_bits(&mut rng, outputs, 0.5))
            .collect();
        let classes: Vec<u32> = (0..tests).map(|_| rng.gen_range(0..3) as u32).collect();
        let d =
            SameDifferentDictionary::from_parts(rows.clone(), baselines.clone(), classes, outputs)
                .unwrap();
        // Responses that reproduce a stored (or random) signature: the
        // baseline for a `0`, the baseline with one output flipped for a
        // `1`, then masked and flipped.
        let target = if rng.gen_bool(0.7) {
            rows[rng.gen_range(0..n)].clone()
        } else {
            random_bits(&mut rng, tests, 0.5)
        };
        let rate = mask_rate(&mut rng);
        let responses: Vec<MaskedBitVec> = (0..tests)
            .map(|t| {
                let mut response = baselines[t].clone();
                if target.bit(t) {
                    response.toggle(rng.gen_range(0..outputs));
                }
                corrupt(&mut rng, &response, rate, 0.01)
            })
            .collect();
        let encoded = oracle_encode(&baselines, &responses);
        assert_eq!(d.encode_observed_masked(&responses).unwrap(), encoded);
        let oracle = oracle_signatures(&rows, &encoded);

        let full = d.diagnose_masked(&responses).unwrap();
        oracle.assert_full(&full, &format!("case {case} full"));
        let whole = StoredDictionary::SameDifferent(d);
        assert_served(
            &mut rng,
            case,
            &whole,
            ShardObservation::Responses(&responses),
            &oracle,
        );
    }
}

#[test]
fn full_matches_the_oracle_prefix_on_every_path() {
    let mut rng = Prng::seed_from_u64(0xf011_d1c7);
    let mut scratch = MatchScratch::default();
    for case in 0..CASES {
        let outputs = WIDTHS[case % WIDTHS.len()];
        let tests = 1 + rng.gen_range(0..3);
        let n = 1 + rng.gen_range(0..30);
        let good: Vec<BitVec> = (0..tests)
            .map(|_| random_bits(&mut rng, outputs, 0.5))
            .collect();
        // Per test, faults draw their responses from a small pool (ties)
        // that includes the fault-free response.
        let responses: Vec<Vec<BitVec>> = good
            .iter()
            .map(|g| {
                let mut pool = vec![g.clone()];
                let extra = 1 + rng.gen_range(0..3);
                pool.extend(random_rows(&mut rng, extra, outputs));
                (0..n).map(|_| rng.choose(&pool).unwrap().clone()).collect()
            })
            .collect();
        let matrix = ResponseMatrix::from_responses(good, &responses);
        let d = FullDictionary::new(matrix.clone());
        let fault = rng.gen_range(0..n);
        let rate = mask_rate(&mut rng);
        let observed: Vec<MaskedBitVec> = (0..tests)
            .map(|t| corrupt(&mut rng, &responses[t][fault], rate, 0.01))
            .collect();
        let oracle = oracle_full(&matrix, &observed);

        let full = d.diagnose_masked(&observed).unwrap();
        oracle.assert_full(&full, &format!("case {case} full"));
        let (quality, known) = d
            .diagnose_masked_top_into(&observed, TOP_CANDIDATES, &mut scratch)
            .unwrap();
        assert_eq!((quality, known), (oracle.quality, oracle.known));
        let pairs: Vec<(usize, usize)> = scratch
            .ranking
            .iter()
            .map(|c| (c.fault, c.mismatches))
            .collect();
        assert_eq!(pairs, oracle.prefix(), "case {case} bounded");

        let whole = StoredDictionary::Full(d);
        assert_served(
            &mut rng,
            case,
            &whole,
            ShardObservation::Responses(&observed),
            &oracle,
        );
    }
}
