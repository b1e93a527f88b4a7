//! Inputs shared by the workloads: dictionary construction with the shipped
//! defaults, seeded injected-fault observations, and the in-process
//! reference diagnosis every output is checked against.

use same_different::Experiment;
use sdd_core::diagnose::{match_signatures_masked, match_signatures_masked_into, MatchQuality};
use sdd_core::{replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary};
use sdd_logic::{BitVec, MaskedBitVec, Prng, SddError};
use sdd_sim::{CorruptionModel, ResponseMatrix};
use sdd_store::StoredDictionary;

use crate::trace::Trace;

/// Tester noise applied to every observation: 2 % of bits masked, 1 %
/// flipped.
pub const MASK_RATE: f64 = 0.02;
pub const FLIP_RATE: f64 = 0.01;

/// `sdd dictionary`/`sdd build` defaults: `calls1 = 20`, every hardware
/// thread, everything else as [`Procedure1Options::default`].
pub fn shipped_p1_options() -> Procedure1Options {
    Procedure1Options {
        calls1: 20,
        jobs: sdd_sim::available_jobs(),
        ..Procedure1Options::default()
    }
}

/// A built same/different dictionary and what its construction reported.
pub struct Built {
    pub matrix: ResponseMatrix,
    pub dictionary: SameDifferentDictionary,
    /// Indistinguished fault pairs after Procedure 2.
    pub pairs: u64,
    pub p1_calls: usize,
    /// The encoded `.sddb` image.
    pub bytes: Vec<u8>,
}

/// simulate → Procedure 1 → Procedure 2 → build → encode, one span per
/// stage (the commit is the caller's: whole file or shard set).
pub fn build_dictionary(
    exp: &Experiment,
    tests: &[BitVec],
    trace: &mut Trace,
    op: u64,
    parent: Option<usize>,
) -> Built {
    let options = shipped_p1_options();
    let matrix = trace.time("sim.simulate", op, parent, || {
        exp.simulate_jobs(tests, options.jobs)
    });
    let mut selection = trace.time("core.p1", op, parent, || {
        select_baselines(&matrix, &options)
    });
    let pairs = trace.time("core.p2", op, parent, || {
        replace_baselines(&matrix, &mut selection.baselines)
    });
    let dictionary = trace.time("core.sd_build", op, parent, || {
        SameDifferentDictionary::build(&matrix, &selection.baselines)
    });
    let bytes = trace.time("store.encode", op, parent, || {
        sdd_store::encode(&StoredDictionary::SameDifferent(dictionary.clone()))
            .expect("a freshly built dictionary encodes")
    });
    Built {
        matrix,
        dictionary,
        pairs,
        p1_calls: selection.calls,
        bytes,
    }
}

/// `count` fault positions drawn uniformly from `0..faults`.
pub fn draw_faults(seed: u64, faults: usize, count: usize) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..faults)).collect()
}

/// The responses fault `column` of `matrix` produces, as the wire text
/// `01X/1X0/...`, pushed through the seeded tester-noise model when `noise`
/// names a seed.
pub fn observation(matrix: &ResponseMatrix, column: usize, noise: Option<u64>) -> String {
    let mut responses: Vec<MaskedBitVec> = (0..matrix.test_count())
        .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, column))))
        .collect();
    if let Some(seed) = noise {
        CorruptionModel::clean()
            .with_mask_rate(MASK_RATE)
            .with_flip_rate(FLIP_RATE)
            .with_seed(seed)
            .degrade(&mut responses);
    }
    let tokens: Vec<String> = responses.iter().map(MaskedBitVec::to_string).collect();
    tokens.join("/")
}

/// Per-observation noise seed: distinct for every `(seed, index)`.
pub fn noise_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a diagnosis must report: the ladder rung, the best distance, and
/// the whole best (tied) set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub quality: &'static str,
    pub distance: usize,
    pub best: Vec<usize>,
}

impl Expected {
    /// Share credited for diagnosing `injected`: `1/|best|` when the best
    /// set holds it, else 0.
    pub fn credit(&self, injected: usize) -> f64 {
        if self.best.contains(&injected) {
            1.0 / self.best.len() as f64
        } else {
            0.0
        }
    }
}

pub fn parse_responses(text: &str) -> Result<Vec<MaskedBitVec>, SddError> {
    text.split('/').map(str::parse).collect()
}

/// The reference answer: `match_signatures_masked` on the encoded
/// observation.
pub fn reference(dictionary: &SameDifferentDictionary, text: &str) -> Result<Expected, SddError> {
    let responses = parse_responses(text)?;
    let encoded = dictionary.encode_observed_masked(&responses)?;
    let report = match_signatures_masked(dictionary.signatures(), &encoded)?;
    Ok(Expected {
        quality: sdd_volume::quality_name(report.quality),
        distance: report.ranking.first().map_or(0, |c| c.mismatches),
        best: report.best,
    })
}

/// The same diagnosis as [`reference`], one span per layer call: parse,
/// encode, score.
pub fn probe(
    dictionary: &SameDifferentDictionary,
    text: &str,
    trace: &mut Trace,
) -> Result<Expected, SddError> {
    let responses = trace.time("logic.parse", 0, None, || parse_responses(text))?;
    let encoded = trace.time("core.encode_observed", 0, None, || {
        dictionary.encode_observed_masked(&responses)
    })?;
    let mut ranking = Vec::new();
    let (quality, _known): (MatchQuality, usize) = trace.time("core.score", 0, None, || {
        match_signatures_masked_into(dictionary.signatures(), &encoded, &mut ranking)
    })?;
    let distance = ranking.first().map_or(0, |c| c.mismatches);
    Ok(Expected {
        quality: sdd_volume::quality_name(quality),
        distance,
        best: ranking
            .iter()
            .take_while(|c| c.mismatches == distance)
            .map(|c| c.fault)
            .collect(),
    })
}

/// Digest of a test set.
pub fn tests_digest(tests: &[BitVec]) -> String {
    let rows: Vec<String> = tests.iter().map(BitVec::to_string).collect();
    crate::report::Digest::of(rows.iter().map(String::as_bytes))
}
