//! Diagnosis across sharded dictionaries.
//!
//! A sharded set (see [`sdd_store::write_sharded`]) cuts one dictionary
//! into contiguous fault ranges; this module runs the masked-diagnosis
//! ladder over every shard and merges the per-shard rankings into one
//! report that is bit-identical to diagnosing against the unsharded
//! dictionary. All shards must be scored: signatures compare against
//! shard-global baselines, so a fault outside the failing outputs' cones
//! can still be a zero-mismatch candidate — cones prioritize *load order*
//! (see the serve layer), never skip scoring.
//!
//! # Example
//!
//! ```
//! use sdd_core::PassFailDictionary;
//! use sdd_logic::MaskedBitVec;
//! use sdd_store::{slice_dictionary, StoredDictionary};
//! use sdd_volume::shard::{diagnose_sharded, ShardObservation};
//!
//! let whole = StoredDictionary::PassFail(PassFailDictionary::build(
//!     &sdd_core::example::paper_example(),
//! ));
//! let lo = slice_dictionary(&whole, 0..2)?;
//! let hi = slice_dictionary(&whole, 2..4)?;
//! let observed = MaskedBitVec::from_known("01".parse()?);
//! let merged = diagnose_sharded(
//!     &[(0, &lo), (2, &hi)],
//!     ShardObservation::Signature(&observed),
//! )?;
//! let unsharded =
//!     diagnose_sharded(&[(0, &whole)], ShardObservation::Signature(&observed))?;
//! assert_eq!(merged, unsharded);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sdd_core::diagnose::{
    match_signatures_top_into, merge_shard_rankings, MatchScratch, NoisyDiagnosisReport,
    ScoredCandidate, TOP_CANDIDATES,
};
use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_store::StoredDictionary;

/// One parsed observation, in the shape the dictionary kind expects —
/// mirroring the serve protocol: pass/fail dictionaries take one `k`-bit
/// signature, same/different and full dictionaries take `k` per-test
/// `m`-bit output responses.
#[derive(Debug, Clone, Copy)]
pub enum ShardObservation<'a> {
    /// A `k`-bit (possibly partial) pass/fail signature.
    Signature(&'a MaskedBitVec),
    /// Per-test output responses, one per test.
    Responses(&'a [MaskedBitVec]),
}

/// Diagnoses one observation against a set of dictionary shards, each given
/// as `(first global fault index, slice)`, and merges the per-shard
/// rankings into a single globally-ranked [`NoisyDiagnosisReport`] whose
/// candidate indices are global fault positions.
///
/// Each shard is ranked bounded — its best-tied set plus its first
/// [`TOP_CANDIDATES`] — and the merge trims the union to the same prefix
/// of the global ranking: every fault tied at the global minimum plus the
/// first [`TOP_CANDIDATES`]. For shards produced by slicing one dictionary
/// into ranges that tile the fault list, the result is bit-identical to
/// diagnosing the unsharded dictionary the same way (same ranking prefix,
/// same best set, same quality ladder rung), and its `best` set and first
/// [`TOP_CANDIDATES`] entries equal the whole `diagnose_masked` ranking's.
///
/// # Errors
///
/// [`SddError::Invalid`] when the observation shape does not fit the shard
/// kind or the shards mix kinds; [`SddError::Empty`] for no shards; plus
/// every per-kind `diagnose_masked` error.
pub fn diagnose_sharded(
    shards: &[(usize, &StoredDictionary)],
    observation: ShardObservation<'_>,
) -> Result<NoisyDiagnosisReport, SddError> {
    let Some(&(_, first)) = shards.first() else {
        return Err(SddError::Empty {
            context: "dictionary shards",
        });
    };
    let mut scratch = MatchScratch::default();
    let mut rankings: Vec<(usize, Vec<ScoredCandidate>)> = Vec::with_capacity(shards.len());
    let fully_known = match (observation, first) {
        (ShardObservation::Signature(observed), StoredDictionary::PassFail(_)) => {
            for &(offset, shard) in shards {
                let StoredDictionary::PassFail(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                match_signatures_top_into(d.signatures(), observed, TOP_CANDIDATES, &mut scratch)?;
                rankings.push((offset, std::mem::take(&mut scratch.ranking)));
            }
            observed.is_fully_known()
        }
        (ShardObservation::Responses(responses), StoredDictionary::SameDifferent(first)) => {
            // Baselines are shard-global (each shard carries the full set),
            // so the observation encodes identically through any shard.
            let encoded = first.encode_observed_masked(responses)?;
            for &(offset, shard) in shards {
                let StoredDictionary::SameDifferent(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                match_signatures_top_into(d.signatures(), &encoded, TOP_CANDIDATES, &mut scratch)?;
                rankings.push((offset, std::mem::take(&mut scratch.ranking)));
            }
            encoded.is_fully_known()
        }
        (ShardObservation::Responses(responses), StoredDictionary::Full(_)) => {
            for &(offset, shard) in shards {
                let StoredDictionary::Full(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                d.diagnose_masked_top_into(responses, TOP_CANDIDATES, &mut scratch)?;
                rankings.push((offset, std::mem::take(&mut scratch.ranking)));
            }
            responses.iter().all(MaskedBitVec::is_fully_known)
        }
        (ShardObservation::Signature(_), _) => {
            return Err(SddError::invalid(
                "signature observations fit pass/fail dictionaries; \
                 this kind takes per-test responses",
            ));
        }
        (ShardObservation::Responses(_), StoredDictionary::PassFail(_)) => {
            return Err(SddError::invalid(
                "pass/fail dictionaries take a signature observation, not per-test responses",
            ));
        }
    };
    let slices: Vec<(usize, &[ScoredCandidate])> = rankings
        .iter()
        .map(|(offset, ranking)| (*offset, ranking.as_slice()))
        .collect();
    merge_shard_rankings(&slices, fully_known, TOP_CANDIDATES)
}

/// The failing outputs of an observation: bit `o` is set when any test's
/// observed output `o` is known and disagrees with the dictionary's
/// reference response for that test (the baseline for same/different, the
/// fault-free response for full dictionaries). This is what gets
/// intersected with shard cones to prioritize lazy loads.
///
/// # Errors
///
/// [`SddError::Invalid`] for pass/fail dictionaries (their observations
/// carry no per-output information), [`SddError::CountMismatch`] /
/// [`SddError::WidthMismatch`] when the responses do not line up.
pub fn failing_outputs(
    dictionary: &StoredDictionary,
    responses: &[MaskedBitVec],
) -> Result<BitVec, SddError> {
    let (tests, outputs) = match dictionary {
        StoredDictionary::PassFail(_) => {
            return Err(SddError::invalid(
                "pass/fail observations carry no per-output information",
            ));
        }
        StoredDictionary::SameDifferent(d) => (d.test_count(), d.sizes().outputs as usize),
        StoredDictionary::Full(d) => (d.test_count(), d.matrix().output_count()),
    };
    if responses.len() != tests {
        return Err(SddError::CountMismatch {
            context: "responses per test",
            expected: tests,
            actual: responses.len(),
        });
    }
    let mut failing = BitVec::zeros(outputs);
    for (test, observed) in responses.iter().enumerate() {
        if observed.len() != outputs {
            return Err(SddError::WidthMismatch {
                context: "observed response width",
                expected: outputs,
                actual: observed.len(),
            });
        }
        let reference = match dictionary {
            StoredDictionary::SameDifferent(d) => d.baseline(test).clone(),
            StoredDictionary::Full(d) => d.matrix().good_response(test).clone(),
            StoredDictionary::PassFail(_) => unreachable!("rejected above"),
        };
        for output in 0..outputs {
            if observed.bit(output) == Some(!reference.bit(output)) {
                failing.set(output, true);
            }
        }
    }
    Ok(failing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::{PassFailDictionary, SameDifferentDictionary};

    fn sd() -> StoredDictionary {
        let matrix = sdd_core::example::paper_example();
        StoredDictionary::SameDifferent(SameDifferentDictionary::with_fault_free_baselines(&matrix))
    }

    #[test]
    fn sharded_same_different_matches_unsharded() {
        let whole = sd();
        let lo = sdd_store::slice_dictionary(&whole, 0..1).unwrap();
        let hi = sdd_store::slice_dictionary(&whole, 1..4).unwrap();
        let StoredDictionary::SameDifferent(d) = &whole else {
            unreachable!()
        };
        // Observed responses of fault 2 with one masked bit.
        let mut responses: Vec<MaskedBitVec> = (0..d.test_count())
            .map(|t| {
                let mut r = MaskedBitVec::from_known(d.baseline(t).clone());
                if d.signatures().bit(2, t) {
                    r.flip(0);
                }
                r
            })
            .collect();
        responses[0].mask(0);
        let unsharded =
            diagnose_sharded(&[(0, &whole)], ShardObservation::Responses(&responses)).unwrap();
        let merged = diagnose_sharded(
            &[(0, &lo), (1, &hi)],
            ShardObservation::Responses(&responses),
        )
        .unwrap();
        assert_eq!(merged, unsharded);
    }

    #[test]
    fn observation_shape_must_fit_the_kind() {
        let pf = StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ));
        let sig = MaskedBitVec::unknown(2);
        assert!(matches!(
            diagnose_sharded(&[(0, &sd())], ShardObservation::Signature(&sig)),
            Err(SddError::Invalid { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[(0, &pf)], ShardObservation::Responses(&[])),
            Err(SddError::Invalid { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[], ShardObservation::Signature(&sig)),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[(0, &pf), (2, &sd())], ShardObservation::Signature(&sig)),
            Err(SddError::Invalid { .. })
        ));
    }

    #[test]
    fn failing_outputs_reflect_known_disagreements() {
        let whole = sd();
        let StoredDictionary::SameDifferent(d) = &whole else {
            unreachable!()
        };
        let mut responses: Vec<MaskedBitVec> = (0..d.test_count())
            .map(|t| MaskedBitVec::from_known(d.baseline(t).clone()))
            .collect();
        let clean = failing_outputs(&whole, &responses).unwrap();
        assert!(!clean.any(), "agreeing observation fails nothing");
        responses[1].flip(1);
        let failing = failing_outputs(&whole, &responses).unwrap();
        assert!(failing.bit(1) && !failing.bit(0));
        // Masking the flipped bit removes the evidence.
        responses[1].mask(1);
        let masked = failing_outputs(&whole, &responses).unwrap();
        assert!(!masked.any());
        let pf = StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ));
        assert!(failing_outputs(&pf, &responses).is_err());
    }
}
