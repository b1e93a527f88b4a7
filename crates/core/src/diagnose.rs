//! Cause-effect diagnosis: matching observed tester responses against a
//! dictionary to produce candidate faults.
//!
//! All three dictionary types diagnose the same way — compare the observed
//! behaviour with each stored fault and return the best matches — but they
//! compare different amounts of information:
//!
//! * [`FullDictionary::diagnose`] compares complete output vectors;
//! * [`PassFailDictionary::diagnose`] compares pass/fail signatures;
//! * [`SameDifferentDictionary::diagnose`] compares same/different
//!   signatures computed against the stored baselines.
//!
//! Every entry point also has a `_masked` variant taking ternary
//! [`MaskedBitVec`] observations — the shape corrupted tester datalogs
//! actually produce (see `sdd_sim::CorruptionModel`). Masked diagnosis never
//! panics on partial data: unknown bits are simply excluded from the
//! comparison, and the result reports how much evidence supported it.
//!
//! [`two_phase_diagnose`] combines a cheap dictionary screen with exact
//! fault simulation of the surviving candidates (the hybrid of the
//! paper's references 8, 12 and 14).

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, MaskedBitVec, SddError, SignatureMatrix};
use sdd_netlist::{Circuit, CombView};
use sdd_sim::reference;

use crate::{FullDictionary, PassFailDictionary, SameDifferentDictionary};

/// The outcome of matching an observed behaviour against a dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisReport {
    /// Faults whose stored behaviour matches the observation exactly
    /// (positions into the dictionary's fault list).
    pub exact: Vec<usize>,
    /// Faults at minimum distance from the observation (equals `exact`
    /// when exact matches exist).
    pub nearest: Vec<usize>,
    /// The minimum distance (0 when exact matches exist).
    pub distance: usize,
}

impl DiagnosisReport {
    /// The best candidate set: exact matches if any, else nearest.
    pub fn candidates(&self) -> &[usize] {
        if self.exact.is_empty() {
            &self.nearest
        } else {
            &self.exact
        }
    }
}

/// How much of the observation supported a noisy diagnosis — the
/// degradation ladder masked matching walks down as data gets worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchQuality {
    /// Every bit was known and the best candidates match all of them —
    /// as strong as a clean-data exact match.
    Exact,
    /// Some bits were unknown, but the best candidates agree with every
    /// known bit: consistent under the mask.
    ConsistentUnderMask,
    /// No candidate explains all known bits; the report is a best-effort
    /// ranking by known-bit mismatches.
    Ranked,
}

impl MatchQuality {
    /// The ladder rung for a best-candidate mismatch count `min`: zero
    /// mismatches is [`Exact`](Self::Exact) on fully-known data and
    /// [`ConsistentUnderMask`](Self::ConsistentUnderMask) under a mask;
    /// anything else is [`Ranked`](Self::Ranked). Every matcher — whole,
    /// sharded, any kind — derives its rung here.
    pub fn of(min: usize, fully_known: bool) -> Self {
        match (min, fully_known) {
            (0, true) => Self::Exact,
            (0, false) => Self::ConsistentUnderMask,
            _ => Self::Ranked,
        }
    }
}

/// Candidates a reply shows beyond the best-tied set: the serve `top=`
/// field and the volume record's `top` list. The bounded matchers keep
/// exactly this ranking prefix.
pub const TOP_CANDIDATES: usize = 5;

/// One candidate fault in a noisy diagnosis, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// Position in the dictionary's fault list.
    pub fault: usize,
    /// Known observation bits at which the stored behaviour disagrees.
    pub mismatches: usize,
    /// Known observation bits compared.
    pub known: usize,
    /// Smoothed agreement fraction in `(0, 1)`: `(known - mismatches + 1) /
    /// (known + 2)`. A fully-unknown observation scores every fault `0.5`
    /// (no evidence), and confidence grows with both agreement and the
    /// amount of data that survived corruption.
    pub confidence: f64,
}

impl ScoredCandidate {
    fn new(fault: usize, mismatches: usize, known: usize) -> Self {
        Self {
            fault,
            mismatches,
            known,
            confidence: (known - mismatches + 1) as f64 / (known + 2) as f64,
        }
    }
}

/// The outcome of matching a partial/noisy observation against a
/// dictionary: a full ranking instead of a bare candidate set, because with
/// missing data the caller needs to see how steeply confidence falls off.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyDiagnosisReport {
    /// Candidates ranked by known-bit mismatches (ties in fault order):
    /// every fault for the `diagnose_masked` entry points, the bounded
    /// prefix (best-tied set plus the first [`TOP_CANDIDATES`]) for
    /// sharded diagnosis.
    pub ranking: Vec<ScoredCandidate>,
    /// Faults tied at the minimum mismatch count (positions into the
    /// dictionary's fault list) — the noisy analogue of
    /// [`DiagnosisReport::candidates`].
    pub best: Vec<usize>,
    /// Where the result landed on the degradation ladder.
    pub quality: MatchQuality,
    /// Known observation bits compared (identical for every candidate:
    /// the mask is a property of the observation).
    pub known: usize,
}

impl NoisyDiagnosisReport {
    /// The best candidate set, mirroring [`DiagnosisReport::candidates`].
    pub fn candidates(&self) -> &[usize] {
        &self.best
    }

    /// The minimum known-bit mismatch count.
    pub fn distance(&self) -> usize {
        self.ranking.first().map_or(0, |c| c.mismatches)
    }

    fn from_ranking(ranking: Vec<ScoredCandidate>, quality: MatchQuality, known: usize) -> Self {
        let min = ranking.first().map_or(0, |c| c.mismatches);
        let best = ranking
            .iter()
            .take_while(|c| c.mismatches == min)
            .map(|c| c.fault)
            .collect();
        Self {
            ranking,
            best,
            quality,
            known,
        }
    }
}

/// Reusable buffers for the bounded matchers
/// ([`match_signatures_top_into`], [`FullDictionary::diagnose_masked_top_into`]):
/// per-fault mismatch counts and the ranking prefix selected from them.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    mismatches: Vec<u32>,
    /// The ranking the last match left, ordered by `(mismatches, fault)`.
    pub ranking: Vec<ScoredCandidate>,
}

/// The one selection every matcher ends in. Fills `ranking` with every
/// candidate tied at `min` plus the first `top` candidates by
/// `(mismatches, fault)` — the prefix of the full ranking of length
/// `max(ties, min(top, count))` — from `count` `(fault, mismatches)` pairs
/// in any order.
///
/// When `top` covers every candidate this is the full ranking, sorted once.
/// Otherwise it is a bounded insertion: a candidate is placed (binary
/// search into the at most `top` kept entries) only if it ties the minimum
/// or beats the current last entry, and the last entry is dropped again
/// whenever that overfills the bound without evicting a tie — no full sort,
/// and nothing is allocated beyond the kept prefix.
fn select_top_into(
    candidates: impl Iterator<Item = (usize, usize)>,
    count: usize,
    min: usize,
    known: usize,
    top: usize,
    ranking: &mut Vec<ScoredCandidate>,
) {
    ranking.clear();
    let key = |c: &ScoredCandidate| (c.mismatches, c.fault);
    if top >= count {
        ranking.reserve(count);
        ranking.extend(candidates.map(|(fault, m)| ScoredCandidate::new(fault, m, known)));
        ranking.sort_unstable_by_key(key);
        return;
    }
    // The key of the last kept entry once `top` are kept: a later candidate
    // past it that does not tie the minimum cannot enter the prefix.
    let mut cut = (usize::MAX, usize::MAX);
    for (fault, mismatches) in candidates {
        if mismatches != min && (mismatches, fault) > cut {
            continue;
        }
        let at = ranking.partition_point(|c| key(c) < (mismatches, fault));
        ranking.insert(at, ScoredCandidate::new(fault, mismatches, known));
        if ranking.len() > top && ranking.last().is_some_and(|last| last.mismatches != min) {
            ranking.pop();
        }
        if ranking.len() >= top {
            cut = ranking.last().map_or(cut, key);
        }
    }
}

/// Matches an observed signature against stored per-fault signatures by
/// Hamming distance.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when there are no signatures to match, and
/// [`SddError::WidthMismatch`] when `observed`'s width differs from the
/// signatures'.
pub fn match_signatures(
    signatures: &SignatureMatrix,
    observed: &BitVec,
) -> Result<DiagnosisReport, SddError> {
    let mut mismatches = Vec::new();
    let distance = signatures
        .masked_mismatches_into(&MaskedBitVec::from_known(observed.clone()), &mut mismatches)
        .map_err(|e| match e {
            SddError::WidthMismatch {
                expected, actual, ..
            } => SddError::WidthMismatch {
                context: "observed signature",
                expected,
                actual,
            },
            other => other,
        })?;
    let nearest: Vec<usize> = (0..mismatches.len())
        .filter(|&fault| mismatches[fault] == distance)
        .collect();
    let exact = if distance == 0 {
        nearest.clone()
    } else {
        Vec::new()
    };
    Ok(DiagnosisReport {
        exact,
        nearest,
        distance: distance as usize,
    })
}

/// Matches a partial observed signature against stored per-fault signatures
/// by masked Hamming distance: only known observation bits count. The
/// ranking covers every fault.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when there are no signatures to match, and
/// [`SddError::WidthMismatch`] when `observed`'s width differs from the
/// signatures'.
pub fn match_signatures_masked(
    signatures: &SignatureMatrix,
    observed: &MaskedBitVec,
) -> Result<NoisyDiagnosisReport, SddError> {
    let mut scratch = MatchScratch::default();
    let (quality, known) =
        match_signatures_top_into(signatures, observed, usize::MAX, &mut scratch)?;
    Ok(NoisyDiagnosisReport::from_ranking(
        scratch.ranking,
        quality,
        known,
    ))
}

/// [`match_signatures_masked`] with a caller-owned ranking buffer: `scratch`
/// is cleared and filled with every fault's score, sorted by mismatch count
/// (ties in fault order). Returns the match quality and the known-bit count.
/// This is the `top = usize::MAX` case of [`match_signatures_top_into`].
///
/// # Errors
///
/// Returns [`SddError::Empty`] when there are no signatures to match, and
/// [`SddError::WidthMismatch`] when `observed`'s width differs from the
/// signatures'.
pub fn match_signatures_masked_into(
    signatures: &SignatureMatrix,
    observed: &MaskedBitVec,
    scratch: &mut Vec<ScoredCandidate>,
) -> Result<(MatchQuality, usize), SddError> {
    let mut buffers = MatchScratch {
        mismatches: Vec::new(),
        ranking: std::mem::take(scratch),
    };
    let result = match_signatures_top_into(signatures, observed, usize::MAX, &mut buffers);
    *scratch = buffers.ranking;
    result
}

/// The bounded matcher: scores every row of `signatures` with the
/// allocation-free kernel ([`SignatureMatrix::masked_mismatches_into`]) and
/// leaves in `scratch.ranking` every fault tied at the minimum plus the
/// first `top` faults by `(mismatches, fault)` — exactly the prefix of
/// [`match_signatures_masked`]'s ranking a reply shows. Returns the match
/// quality and the known-bit count.
///
/// Long-running services handle thousands of diagnosis queries per loaded
/// dictionary; one `scratch` per worker keeps the hot path free of
/// per-request allocation once its buffers have grown.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when there are no signatures to match, and
/// [`SddError::WidthMismatch`] when `observed`'s width differs from the
/// signatures'.
///
/// # Example
///
/// ```
/// use sdd_core::diagnose::{match_signatures_masked, match_signatures_top_into, MatchScratch};
/// use sdd_core::PassFailDictionary;
///
/// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
/// let observed = "1X".parse()?;
/// let mut scratch = MatchScratch::default();
/// match_signatures_top_into(d.signatures(), &observed, 1, &mut scratch)?;
/// let full = match_signatures_masked(d.signatures(), &observed)?;
/// // f1, f2, f3 tie at zero mismatches: all ties are kept past `top = 1`.
/// assert_eq!(scratch.ranking, full.ranking[..3]);
/// # Ok::<(), sdd_logic::SddError>(())
/// ```
pub fn match_signatures_top_into(
    signatures: &SignatureMatrix,
    observed: &MaskedBitVec,
    top: usize,
    scratch: &mut MatchScratch,
) -> Result<(MatchQuality, usize), SddError> {
    let min = signatures.masked_mismatches_into(observed, &mut scratch.mismatches)? as usize;
    let known = observed.known_count();
    let mismatches = &scratch.mismatches;
    select_top_into(
        mismatches.iter().map(|&m| m as usize).enumerate(),
        mismatches.len(),
        min,
        known,
        top,
        &mut scratch.ranking,
    );
    Ok((MatchQuality::of(min, known == observed.len()), known))
}

impl PassFailDictionary {
    /// Diagnoses from an observed pass/fail signature (bit `j` = test `t_j`
    /// failed on the tester).
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the signature width is wrong
    /// and [`SddError::Empty`] for an empty dictionary.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_core::PassFailDictionary;
    /// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
    /// let report = d.diagnose(&"01".parse()?)?;
    /// assert_eq!(report.candidates(), &[0]); // f0 fails only t1
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn diagnose(&self, observed: &BitVec) -> Result<DiagnosisReport, SddError> {
        match_signatures(self.signatures(), observed)
    }

    /// Diagnoses from a partial pass/fail signature: tests whose outcome was
    /// lost to datalog corruption are unknown bits and do not count against
    /// any candidate.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the signature width is wrong
    /// and [`SddError::Empty`] for an empty dictionary.
    pub fn diagnose_masked(
        &self,
        observed: &MaskedBitVec,
    ) -> Result<NoisyDiagnosisReport, SddError> {
        match_signatures_masked(self.signatures(), observed)
    }
}

impl SameDifferentDictionary {
    /// Diagnoses from the observed per-test output vectors: each response is
    /// first compared against the test's stored baseline to form the
    /// observed same/different signature, then matched.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary and
    /// [`SddError::Empty`] for an empty dictionary.
    pub fn diagnose(&self, responses: &[BitVec]) -> Result<DiagnosisReport, SddError> {
        let observed = self.encode_observed(responses)?;
        match_signatures(self.signatures(), &observed)
    }

    /// Diagnoses from partial per-test observations. A test's signature bit
    /// is *different* as soon as any known bit disagrees with the baseline,
    /// *same* only when the whole response is known and equal, and unknown
    /// otherwise — so lost data can only widen, never corrupt, the match.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary and
    /// [`SddError::Empty`] for an empty dictionary.
    pub fn diagnose_masked(
        &self,
        responses: &[MaskedBitVec],
    ) -> Result<NoisyDiagnosisReport, SddError> {
        let observed = self.encode_observed_masked(responses)?;
        match_signatures_masked(self.signatures(), &observed)
    }
}

impl FullDictionary {
    /// Diagnoses from the observed per-test output vectors, scoring each
    /// fault by the total number of output bits at which its stored
    /// responses differ from the observation.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary.
    pub fn diagnose(&self, responses: &[BitVec]) -> Result<DiagnosisReport, SddError> {
        let matrix = self.matrix();
        if responses.len() != matrix.test_count() {
            return Err(SddError::CountMismatch {
                context: "responses per test",
                expected: matrix.test_count(),
                actual: responses.len(),
            });
        }
        // Distance from the observation to each response class, per test.
        let mut per_test: Vec<Vec<usize>> = Vec::with_capacity(matrix.test_count());
        for (test, observed) in responses.iter().enumerate() {
            let mut classes = Vec::with_capacity(matrix.class_count(test));
            for class in 0..matrix.class_count(test) as u32 {
                let stored = matrix.response(test, class);
                let d = stored
                    .hamming_distance(observed)
                    .ok_or(SddError::WidthMismatch {
                        context: "observed response width",
                        expected: stored.len(),
                        actual: observed.len(),
                    })?;
                classes.push(d);
            }
            per_test.push(classes);
        }
        let mut distance = usize::MAX;
        let mut nearest = Vec::new();
        for fault in 0..matrix.fault_count() {
            let d: usize = (0..matrix.test_count())
                .map(|test| per_test[test][matrix.class(test, fault) as usize])
                .sum();
            if d < distance {
                distance = d;
                nearest.clear();
            }
            if d == distance {
                nearest.push(fault);
            }
        }
        let exact = if distance == 0 {
            nearest.clone()
        } else {
            Vec::new()
        };
        Ok(DiagnosisReport {
            exact,
            nearest,
            distance,
        })
    }

    /// Diagnoses from partial per-test observations by masked Hamming
    /// distance: each fault is scored by how many *known* observed output
    /// bits its stored responses contradict. The ranking covers every
    /// fault.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary, and
    /// [`SddError::Empty`] for a dictionary with no faults.
    pub fn diagnose_masked(
        &self,
        responses: &[MaskedBitVec],
    ) -> Result<NoisyDiagnosisReport, SddError> {
        let mut scratch = MatchScratch::default();
        let (quality, known) =
            self.diagnose_masked_top_into(responses, usize::MAX, &mut scratch)?;
        Ok(NoisyDiagnosisReport::from_ranking(
            scratch.ranking,
            quality,
            known,
        ))
    }

    /// The bounded form of [`diagnose_masked`](Self::diagnose_masked), the
    /// full-dictionary counterpart of [`match_signatures_top_into`]: scores
    /// every fault into `scratch`, then keeps every fault tied at the
    /// minimum plus the first `top` by `(mismatches, fault)` in
    /// `scratch.ranking`. Returns the match quality and the known-bit count.
    ///
    /// Scoring is per response class, not per fault: each test's classes
    /// are compared with the observation once (the fault-free response plus
    /// the class's flipped outputs), then each fault sums its classes'
    /// counts.
    ///
    /// # Errors
    ///
    /// As [`diagnose_masked`](Self::diagnose_masked).
    pub fn diagnose_masked_top_into(
        &self,
        responses: &[MaskedBitVec],
        top: usize,
        scratch: &mut MatchScratch,
    ) -> Result<(MatchQuality, usize), SddError> {
        let matrix = self.matrix();
        if matrix.fault_count() == 0 {
            return Err(SddError::Empty {
                context: "full dictionary",
            });
        }
        if responses.len() != matrix.test_count() {
            return Err(SddError::CountMismatch {
                context: "responses per test",
                expected: matrix.test_count(),
                actual: responses.len(),
            });
        }
        // A fault's count is at most the observed bits, so u32 counts (as
        // the signature kernel keeps) cannot overflow once those fit.
        let bits: usize = responses.iter().map(MaskedBitVec::len).sum();
        if u32::try_from(bits).is_err() {
            return Err(SddError::TooLarge {
                context: "observed bits per diagnosis",
                max: u64::from(u32::MAX),
                actual: bits as u64,
            });
        }
        let mismatches = &mut scratch.mismatches;
        mismatches.clear();
        mismatches.resize(matrix.fault_count(), 0);
        let mut per_class = Vec::new();
        let mut known = 0usize;
        for (test, observed) in responses.iter().enumerate() {
            let good = matrix.good_response(test);
            let base = observed.distance_to(good)?.mismatches;
            per_class.clear();
            for class in 0..matrix.class_count(test) as u32 {
                // Each flipped output moves a known bit into or out of
                // agreement with the observation.
                let mut d = base;
                for &output in matrix.class_diffs(test, class) {
                    match observed.bit(output as usize) {
                        Some(bit) if bit == good.bit(output as usize) => d += 1,
                        Some(_) => d -= 1,
                        None => {}
                    }
                }
                per_class.push(d as u32);
            }
            for (total, &class) in mismatches.iter_mut().zip(matrix.classes(test)) {
                *total += per_class[class as usize];
            }
            known += observed.known_count();
        }
        let min = mismatches.iter().copied().min().unwrap_or(0) as usize;
        let fully_known = responses.iter().all(MaskedBitVec::is_fully_known);
        select_top_into(
            mismatches.iter().map(|&m| m as usize).enumerate(),
            mismatches.len(),
            min,
            known,
            top,
            &mut scratch.ranking,
        );
        Ok((MatchQuality::of(min, fully_known), known))
    }
}

/// Simulates the per-test responses a tester would observe for a defect
/// modeled by `fault` — a convenience for examples and tests.
pub fn observed_responses(
    circuit: &Circuit,
    view: &CombView,
    fault: sdd_fault::Fault,
    tests: &[BitVec],
) -> Vec<BitVec> {
    tests
        .iter()
        .map(|t| reference::faulty_response(circuit, view, fault, t))
        .collect()
}

/// Two-phase diagnosis: a same/different dictionary screens the fault list
/// down to its best matches, then exact fault simulation of only those
/// candidates ranks them by full-response distance.
///
/// Returns `(fault id, full-response distance)` sorted by distance — the
/// same answer a full dictionary would give for the screened candidates, at
/// a fraction of the storage.
///
/// # Errors
///
/// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`] when
/// the observation does not line up with the dictionary or tests.
pub fn two_phase_diagnose(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    tests: &[BitVec],
    observed: &[BitVec],
    dictionary: &SameDifferentDictionary,
) -> Result<Vec<(FaultId, usize)>, SddError> {
    let screened = dictionary.diagnose(observed)?;
    let mut ranked = Vec::with_capacity(screened.candidates().len());
    for &pos in screened.candidates() {
        let id = faults[pos];
        let mut distance = 0usize;
        for (test, seen) in tests.iter().zip(observed) {
            let simulated = reference::faulty_response(circuit, view, universe.fault(id), test);
            distance += simulated
                .hamming_distance(seen)
                .ok_or(SddError::WidthMismatch {
                    context: "observed response width",
                    expected: simulated.len(),
                    actual: seen.len(),
                })?;
        }
        ranked.push((id, distance));
    }
    ranked.sort_by_key(|&(id, d)| (d, id));
    Ok(ranked)
}

/// Two-phase diagnosis from partial observations: the masked same/different
/// screen picks candidates, then exact simulation re-ranks them by masked
/// full-response distance (mismatches over known bits only).
///
/// # Errors
///
/// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`] when
/// the observation does not line up with the dictionary or tests.
pub fn two_phase_diagnose_masked(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    tests: &[BitVec],
    observed: &[MaskedBitVec],
    dictionary: &SameDifferentDictionary,
) -> Result<Vec<(FaultId, usize)>, SddError> {
    let screened = dictionary.diagnose_masked(observed)?;
    let mut ranked = Vec::with_capacity(screened.candidates().len());
    for &pos in screened.candidates() {
        let id = faults[pos];
        let mut distance = 0usize;
        for (test, seen) in tests.iter().zip(observed) {
            let simulated = reference::faulty_response(circuit, view, universe.fault(id), test);
            distance += seen.distance_to(&simulated)?.mismatches;
        }
        ranked.push((id, distance));
    }
    ranked.sort_by_key(|&(id, d)| (d, id));
    Ok(ranked)
}

/// Merges per-shard masked rankings into one global [`NoisyDiagnosisReport`]
/// that equals the unsharded diagnosis' ranking prefix.
///
/// Each entry pairs a shard's first global fault index with its local
/// ranking — the prefix a bounded matcher left (every local tie at the
/// shard's minimum plus its first `top`), or a whole `diagnose_masked`
/// ranking. Local fault positions are rebased by the offset and the union
/// goes through the same selection as a single dictionary, keyed on
/// `(mismatches, global fault)`: the result is every candidate tied at the
/// global minimum plus the first `top` overall. That prefix is exact: a
/// fault among the global first `top` is among its own shard's first
/// `top`, and every fault tied at the global minimum is tied at its
/// shard's minimum, so no shard dropped anything the merge keeps.
/// Candidates from *different* shards with equal mismatches tie-break on
/// global fault index, whatever order the shards appear in `shards`. A
/// shard with an empty ranking (it matched nothing — e.g. it was filtered
/// out upstream) contributes nothing and is otherwise ignored; only *all*
/// shards being empty is an error. `fully_known` is whether the observation
/// had no masked bits (a property of the observation, identical for every
/// shard); the rung comes from [`MatchQuality::of`] like any other match.
/// `top = usize::MAX` merges whole rankings into the whole global ranking.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when no shard contributed any candidate and
/// [`SddError::CountMismatch`] when shards disagree on the known-bit count
/// (they scored different observations).
///
/// # Example
///
/// ```
/// use sdd_core::diagnose::{match_signatures_masked, merge_shard_rankings};
/// use sdd_core::PassFailDictionary;
/// use sdd_logic::MaskedBitVec;
///
/// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
/// let observed = MaskedBitVec::from_known("01".parse()?);
/// let whole = d.diagnose_masked(&observed)?;
/// // Split the 4 faults into two shards and diagnose each independently.
/// let lo = match_signatures_masked(&d.signatures().slice(0..2), &observed)?;
/// let hi = match_signatures_masked(&d.signatures().slice(2..4), &observed)?;
/// let merged = merge_shard_rankings(
///     &[(0, &lo.ranking[..]), (2, &hi.ranking[..])],
///     observed.is_fully_known(),
///     usize::MAX,
/// )?;
/// assert_eq!(merged, whole);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn merge_shard_rankings(
    shards: &[(usize, &[ScoredCandidate])],
    fully_known: bool,
    top: usize,
) -> Result<NoisyDiagnosisReport, SddError> {
    let candidates = || {
        shards
            .iter()
            .flat_map(|&(offset, ranking)| ranking.iter().map(move |c| (offset + c.fault, c)))
    };
    let Some((_, first)) = candidates().next() else {
        return Err(SddError::Empty {
            context: "shard rankings",
        });
    };
    let known = first.known;
    if let Some((_, c)) = candidates().find(|(_, c)| c.known != known) {
        return Err(SddError::CountMismatch {
            context: "known bits across shard rankings",
            expected: known,
            actual: c.known,
        });
    }
    let min = candidates().map(|(_, c)| c.mismatches).min().unwrap_or(0);
    let mut ranking = Vec::new();
    select_top_into(
        candidates().map(|(fault, c)| (fault, c.mismatches)),
        shards.iter().map(|(_, r)| r.len()).sum(),
        min,
        known,
        top,
        &mut ranking,
    );
    Ok(NoisyDiagnosisReport::from_ranking(
        ranking,
        MatchQuality::of(min, fully_known),
        known,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::{select_baselines, Procedure1Options};

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    fn mv(s: &str) -> MaskedBitVec {
        s.parse().unwrap()
    }

    fn sm(rows: &[&str]) -> SignatureMatrix {
        let rows: Vec<BitVec> = rows.iter().map(|r| bv(r)).collect();
        SignatureMatrix::from_rows(rows.first().map_or(0, BitVec::len), &rows).unwrap()
    }

    #[test]
    fn exact_match_wins() {
        let sigs = sm(&["00", "01", "11"]);
        let r = match_signatures(&sigs, &bv("01")).unwrap();
        assert_eq!(r.exact, vec![1]);
        assert_eq!(r.candidates(), &[1]);
        assert_eq!(r.distance, 0);
    }

    #[test]
    fn nearest_match_reports_all_ties() {
        let sigs = sm(&["00", "11", "10"]);
        let r = match_signatures(&sigs, &bv("01")).unwrap();
        assert!(r.exact.is_empty());
        assert_eq!(r.nearest, vec![0, 1]); // both at distance 1
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let sigs = sm(&["00"]);
        let e = match_signatures(&sigs, &bv("000")).unwrap_err();
        assert!(matches!(
            e,
            SddError::WidthMismatch {
                expected: 2,
                actual: 3,
                ..
            }
        ));
        let e = match_signatures_masked(&sigs, &mv("0X0")).unwrap_err();
        assert!(matches!(e, SddError::WidthMismatch { .. }));
    }

    #[test]
    fn empty_dictionary_is_an_error() {
        assert!(matches!(
            match_signatures(&SignatureMatrix::zeros(0, 2), &bv("01")),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            match_signatures_masked(&SignatureMatrix::zeros(0, 2), &mv("01")),
            Err(SddError::Empty { .. })
        ));
    }

    #[test]
    fn masked_match_walks_the_degradation_ladder() {
        let sigs = sm(&["00", "01", "11"]);
        // Fully known, exact.
        let r = match_signatures_masked(&sigs, &mv("01")).unwrap();
        assert_eq!(r.quality, MatchQuality::Exact);
        assert_eq!(r.candidates(), &[1]);
        assert_eq!(r.distance(), 0);
        // Unknown bit: both consistent candidates surface.
        let r = match_signatures_masked(&sigs, &mv("0X")).unwrap();
        assert_eq!(r.quality, MatchQuality::ConsistentUnderMask);
        assert_eq!(r.candidates(), &[0, 1]);
        // Nothing consistent: ranked.
        let r = match_signatures_masked(&sigs, &mv("10")).unwrap();
        assert_eq!(r.quality, MatchQuality::Ranked);
        assert_eq!(r.candidates(), &[0, 2]); // one mismatch each
        assert_eq!(r.ranking.len(), 3);
        assert!(r.ranking[0].confidence > r.ranking[2].confidence);
    }

    #[test]
    fn scratch_variant_agrees_and_reuses_the_buffer() {
        let sigs = sm(&["00", "01", "11"]);
        let mut scratch = Vec::new();
        for obs in ["01", "0X", "10", "XX"] {
            let observed = mv(obs);
            let report = match_signatures_masked(&sigs, &observed).unwrap();
            let (quality, known) =
                match_signatures_masked_into(&sigs, &observed, &mut scratch).unwrap();
            assert_eq!(quality, report.quality, "obs {obs}");
            assert_eq!(known, report.known, "obs {obs}");
            assert_eq!(scratch, report.ranking, "obs {obs}");
        }
        let capacity = scratch.capacity();
        let _ = match_signatures_masked_into(&sigs, &mv("11"), &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), capacity, "no reallocation on reuse");
    }

    #[test]
    fn fully_unknown_observation_is_uninformative_not_fatal() {
        let sigs = sm(&["00", "01"]);
        let r = match_signatures_masked(&sigs, &mv("XX")).unwrap();
        assert_eq!(r.candidates(), &[0, 1], "no evidence, all candidates");
        assert_eq!(r.known, 0);
        for c in &r.ranking {
            assert!((c.confidence - 0.5).abs() < 1e-12, "no-evidence prior");
        }
    }

    #[test]
    fn confidence_grows_with_supporting_evidence() {
        let a = ScoredCandidate::new(0, 0, 2);
        let b = ScoredCandidate::new(0, 0, 40);
        assert!(
            b.confidence > a.confidence,
            "more agreeing bits, more confidence"
        );
        let c = ScoredCandidate::new(0, 10, 40);
        assert!(c.confidence < b.confidence, "mismatches cost confidence");
    }

    #[test]
    fn pass_fail_diagnosis_cannot_split_f2_f3() {
        let d = PassFailDictionary::build(&paper_example());
        let r = d.diagnose(&bv("11")).unwrap();
        assert_eq!(r.exact, vec![2, 3], "pass/fail sees f2 and f3 identically");
    }

    #[test]
    fn same_different_diagnosis_splits_f2_f3() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        // Simulate the tester observing fault f2's actual responses.
        let responses: Vec<BitVec> = (0..m.test_count())
            .map(|t| m.response(t, m.class(t, 2)))
            .collect();
        let r = d.diagnose(&responses).unwrap();
        assert_eq!(r.exact, vec![2], "same/different pinpoints f2");
    }

    #[test]
    fn masked_same_different_agrees_with_clean_on_full_data() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        for fault in 0..m.fault_count() {
            let responses: Vec<BitVec> = (0..m.test_count())
                .map(|t| m.response(t, m.class(t, fault)))
                .collect();
            let clean = d.diagnose(&responses).unwrap();
            let masked_responses: Vec<MaskedBitVec> = responses
                .into_iter()
                .map(MaskedBitVec::from_known)
                .collect();
            let noisy = d.diagnose_masked(&masked_responses).unwrap();
            assert_eq!(noisy.candidates(), clean.candidates());
            assert_eq!(noisy.quality, MatchQuality::Exact);
        }
    }

    #[test]
    fn masked_same_different_degrades_to_superset() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        let responses: Vec<BitVec> = (0..m.test_count())
            .map(|t| m.response(t, m.class(t, 2)))
            .collect();
        // Mask the whole first response: candidates can only widen, and the
        // true fault must stay in them.
        let mut masked: Vec<MaskedBitVec> = responses
            .iter()
            .cloned()
            .map(MaskedBitVec::from_known)
            .collect();
        masked[0] = MaskedBitVec::unknown(responses[0].len());
        let noisy = d.diagnose_masked(&masked).unwrap();
        assert!(
            noisy.candidates().contains(&2),
            "true fault survives masking"
        );
        assert!(noisy.quality <= MatchQuality::ConsistentUnderMask);
    }

    #[test]
    fn full_diagnosis_is_exact_for_stored_faults() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        for fault in 0..4 {
            let responses: Vec<BitVec> = (0..2).map(|t| d.response(fault, t)).collect();
            let r = d.diagnose(&responses).unwrap();
            assert!(r.exact.contains(&fault), "fault {fault}");
            assert_eq!(r.distance, 0);
        }
    }

    #[test]
    fn full_diagnosis_nearest_for_out_of_model_behaviour() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        // A behaviour no modeled fault produces: 11 under both tests.
        let r = d.diagnose(&[bv("11"), bv("11")]).unwrap();
        assert!(r.exact.is_empty());
        assert!(!r.nearest.is_empty());
        assert!(r.distance > 0);
    }

    #[test]
    fn full_masked_diagnosis_matches_clean_and_survives_masking() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        for fault in 0..4usize {
            let responses: Vec<BitVec> = (0..2).map(|t| d.response(fault, t)).collect();
            let masked: Vec<MaskedBitVec> = responses
                .iter()
                .cloned()
                .map(MaskedBitVec::from_known)
                .collect();
            let clean = d.diagnose(&responses).unwrap();
            let noisy = d.diagnose_masked(&masked).unwrap();
            assert_eq!(noisy.candidates(), clean.candidates(), "fault {fault}");
            // Drop one whole test: the true fault must still be among the
            // best candidates.
            let mut partial = masked.clone();
            partial[1] = MaskedBitVec::unknown(partial[1].len());
            let degraded = d.diagnose_masked(&partial).unwrap();
            assert!(degraded.candidates().contains(&fault), "fault {fault}");
        }
    }

    #[test]
    fn full_masked_count_mismatch_is_an_error() {
        let d = FullDictionary::new(paper_example());
        assert!(matches!(
            d.diagnose_masked(&[MaskedBitVec::unknown(2)]),
            Err(SddError::CountMismatch { .. })
        ));
        assert!(matches!(
            d.diagnose(&[bv("11")]),
            Err(SddError::CountMismatch { .. })
        ));
    }

    #[test]
    fn merged_shards_reproduce_the_whole_ranking() {
        let d = PassFailDictionary::build(&paper_example());
        // With and without masked bits, over every possible cut point.
        for observed in [mv("01"), mv("1X"), mv("XX")] {
            let whole = d.diagnose_masked(&observed).unwrap();
            for cut in 1..d.fault_count() {
                let lo = match_signatures_masked(&d.signatures().slice(0..cut), &observed).unwrap();
                let hi =
                    match_signatures_masked(&d.signatures().slice(cut..d.fault_count()), &observed)
                        .unwrap();
                let merged = merge_shard_rankings(
                    &[(0, &lo.ranking[..]), (cut, &hi.ranking[..])],
                    observed.is_fully_known(),
                    usize::MAX,
                )
                .unwrap();
                assert_eq!(merged, whole, "cut at {cut}, observed {observed:?}");
            }
        }
    }

    #[test]
    fn merge_tolerates_an_empty_shard_among_nonempty_ones() {
        let d = PassFailDictionary::build(&paper_example());
        let observed = mv("0X");
        let whole = d.diagnose_masked(&observed).unwrap();
        let lo = match_signatures_masked(&d.signatures().slice(0..2), &observed).unwrap();
        let hi = match_signatures_masked(&d.signatures().slice(2..4), &observed).unwrap();
        // An empty middle shard (matched nothing) must not perturb the merge
        // or trip the known-bits consistency check.
        let merged = merge_shard_rankings(
            &[(0, &lo.ranking[..]), (2, &[][..]), (2, &hi.ranking[..])],
            observed.is_fully_known(),
            usize::MAX,
        )
        .unwrap();
        assert_eq!(merged, whole);
    }

    #[test]
    fn cross_shard_ties_order_by_global_fault_index() {
        // Two shards whose candidates all tie on mismatches; the merged
        // ranking must interleave them in global fault order even when the
        // shards are passed high-offset first.
        let c = |fault, mismatches| ScoredCandidate::new(fault, mismatches, 4);
        let lo = [c(0, 1), c(1, 1)];
        let hi = [c(0, 1), c(1, 1)];
        for shards in [
            [(0usize, &lo[..]), (2, &hi[..])],
            [(2, &hi[..]), (0, &lo[..])],
        ] {
            let merged = merge_shard_rankings(&shards, true, usize::MAX).unwrap();
            let order: Vec<usize> = merged.ranking.iter().map(|s| s.fault).collect();
            assert_eq!(order, vec![0, 1, 2, 3]);
            assert_eq!(merged.best, vec![0, 1, 2, 3]);
            assert_eq!(merged.quality, MatchQuality::Ranked);
        }
    }

    #[test]
    fn merge_rejects_empty_and_inconsistent_shards() {
        assert!(matches!(
            merge_shard_rankings(&[], true, usize::MAX),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            merge_shard_rankings(&[(0, &[][..])], true, usize::MAX),
            Err(SddError::Empty { .. })
        ));
        let d = PassFailDictionary::build(&paper_example());
        let full = match_signatures_masked(d.signatures(), &mv("01")).unwrap();
        let masked = match_signatures_masked(d.signatures(), &mv("0X")).unwrap();
        assert!(matches!(
            merge_shard_rankings(
                &[(0, &full.ranking[..]), (4, &masked.ranking[..])],
                false,
                usize::MAX
            ),
            Err(SddError::CountMismatch { .. })
        ));
    }

    /// The prefix a bounded match must equal: every fault tied at the
    /// minimum plus the first `top` of the full ranking.
    fn prefix(full: &[ScoredCandidate], top: usize) -> &[ScoredCandidate] {
        let ties = full
            .iter()
            .take_while(|c| c.mismatches == full[0].mismatches)
            .count();
        &full[..ties.max(top.min(full.len()))]
    }

    #[test]
    fn bounded_selection_is_the_full_rankings_prefix() {
        let mut rng = sdd_logic::Prng::seed_from_u64(13);
        let mut scratch = MatchScratch::default();
        for case in 0..300 {
            let bits = [3usize, 64, 70][case % 3];
            // Few distinct rows: tie-heavy.
            let pool: Vec<BitVec> = (0..1 + case % 4)
                .map(|_| (0..bits).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let rows: Vec<BitVec> = (0..1 + rng.gen_range(0..30))
                .map(|_| rng.choose(&pool).unwrap().clone())
                .collect();
            let sigs = SignatureMatrix::from_rows(bits, &rows).unwrap();
            let mut observed =
                MaskedBitVec::from_known((0..bits).map(|_| rng.gen_bool(0.5)).collect());
            for t in 0..bits {
                if rng.gen_bool(0.2) {
                    observed.mask(t);
                }
            }
            let full = match_signatures_masked(&sigs, &observed).unwrap();
            for top in [0, 1, 2, 5, 40] {
                let (quality, known) =
                    match_signatures_top_into(&sigs, &observed, top, &mut scratch).unwrap();
                assert_eq!((quality, known), (full.quality, full.known));
                assert_eq!(
                    scratch.ranking,
                    prefix(&full.ranking, top),
                    "case {case} top {top}"
                );
            }
        }
    }

    #[test]
    fn bounded_merge_is_the_unsharded_prefix() {
        let d = PassFailDictionary::build(&paper_example());
        for observed in [mv("01"), mv("1X"), mv("XX"), mv("00")] {
            let whole = d.diagnose_masked(&observed).unwrap();
            for top in [0, 1, 2, 3] {
                let mut lo = MatchScratch::default();
                let mut hi = MatchScratch::default();
                match_signatures_top_into(&d.signatures().slice(0..3), &observed, top, &mut lo)
                    .unwrap();
                match_signatures_top_into(&d.signatures().slice(3..4), &observed, top, &mut hi)
                    .unwrap();
                let merged = merge_shard_rankings(
                    &[(3, &hi.ranking[..]), (0, &lo.ranking[..])],
                    observed.is_fully_known(),
                    top,
                )
                .unwrap();
                assert_eq!(
                    merged.ranking,
                    prefix(&whole.ranking, top),
                    "{observed:?} {top}"
                );
                assert_eq!(merged.best, whole.best);
                assert_eq!((merged.quality, merged.known), (whole.quality, whole.known));
            }
        }
    }

    #[test]
    fn full_class_scoring_matches_materialized_responses() {
        let d = FullDictionary::new(paper_example());
        let m = d.matrix();
        for observed in [["01", "10"], ["1X", "X1"], ["XX", "00"], ["11", "11"]] {
            let responses: Vec<MaskedBitVec> = observed.iter().map(|o| mv(o)).collect();
            let report = d.diagnose_masked(&responses).unwrap();
            assert_eq!(report.ranking.len(), m.fault_count());
            for c in &report.ranking {
                let expected: usize = (0..m.test_count())
                    .map(|t| {
                        responses[t]
                            .distance_to(&m.response(t, m.class(t, c.fault)))
                            .unwrap()
                            .mismatches
                    })
                    .sum();
                assert_eq!(c.mismatches, expected, "{observed:?} fault {}", c.fault);
            }
            let mut scratch = MatchScratch::default();
            d.diagnose_masked_top_into(&responses, 1, &mut scratch)
                .unwrap();
            assert_eq!(scratch.ranking, prefix(&report.ranking, 1));
        }
    }

    #[test]
    fn a_zero_fault_full_dictionary_is_empty_not_exact() {
        let good: Vec<BitVec> = vec![bv("01"), bv("10")];
        let d = FullDictionary::new(sdd_sim::ResponseMatrix::from_responses(
            good,
            &[vec![], vec![]],
        ));
        assert_eq!(d.fault_count(), 0);
        assert!(matches!(
            d.diagnose_masked(&[mv("01"), mv("10")]),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            d.diagnose_masked_top_into(&[mv("01"), mv("10")], 5, &mut MatchScratch::default()),
            Err(SddError::Empty { .. })
        ));
    }
}
