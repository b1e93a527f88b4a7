//! Signature-matching throughput: the flat-matrix kernel and the bounded
//! matcher against the reference matcher they replaced, at three
//! dictionary sizes.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin match_bench -- [--trials N]
//!     [--out report.json] [--check report.json]
//! ```
//!
//! Sizes: `c17` (22 faults), `s953` (the serve dictionary: 1,064 faults ×
//! 48 tests) and `synthetic` (20,000 random faults × 512 tests). Each size
//! scores a seeded pool of signature observations — a stored row with 2 %
//! of bits masked and 1 % flipped — three ways:
//!
//! * `kernel` — [`SignatureMatrix::masked_mismatches_into`] alone;
//! * `bounded` — [`match_signatures_top_into`] with [`TOP_CANDIDATES`]: the
//!   kernel plus the bounded selection, what `sdd serve` and volume runs do;
//! * `reference` — the matcher before the flat matrix: one `BitVec` per
//!   fault, masked distance through `^`/`&` temporaries, a full sort.
//!
//! Each prints one record per (size, matcher) with ns/fault and GB/s of
//! signature bytes scanned (`rows × stride × 8` per observation) as the
//! median, min and max over `--trials` trials (default 7), next to
//! `available_parallelism`. `identical` is the correctness claim: for every
//! observation the bounded reply — quality, known bits, and every best-tied
//! fault plus the top candidates with their mismatch counts — equals the
//! reference's prefix. `--check` gates shape, positive numbers and
//! `identical`; which matcher is faster is recorded, not gated.

use std::time::Instant;

use same_different::Experiment;
use sdd_core::diagnose::{match_signatures_top_into, MatchQuality, MatchScratch, TOP_CANDIDATES};
use sdd_core::{select_baselines, Procedure1Options, SameDifferentDictionary};
use sdd_logic::{BitVec, MaskedBitVec, Prng, SignatureMatrix};

const SIZES: [&str; 3] = ["c17", "s953", "synthetic"];
const MATCHERS: [&str; 3] = ["kernel", "bounded", "reference"];
/// Keys every record must carry as a finite positive number.
const NUMERIC_KEYS: [&str; 10] = [
    "faults",
    "tests",
    "observations",
    "signature_bytes",
    "ns_per_fault_median",
    "ns_per_fault_min",
    "ns_per_fault_max",
    "gb_per_s_median",
    "gb_per_s_min",
    "gb_per_s_max",
];
const MASK_RATE: f64 = 0.02;
const FLIP_RATE: f64 = 0.01;

fn main() {
    let mut trials = 7usize;
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--trials takes a positive count");
            }
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    if let Some(path) = check_path {
        match check(&path) {
            Ok(()) => println!("{path}: ok"),
            Err(why) => {
                eprintln!("{path}: {why}");
                std::process::exit(1);
            }
        }
        return;
    }
    let records: Vec<String> = SIZES
        .iter()
        .flat_map(|&size| {
            let (rows, observations) = workload(size);
            run(size, &rows, &observations, trials)
        })
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = format!(
        "{{\"available_parallelism\":{parallelism},\"trials\":{trials},\"top\":{TOP_CANDIDATES},\
         \"records\":[{}]}}",
        records.join(",")
    );
    println!("{report}");
    if let Some(out) = out {
        std::fs::write(&out, format!("{report}\n")).expect("write report");
        eprintln!("wrote {out}");
    }
}

/// The signature rows and seeded observations of one size.
fn workload(size: &str) -> (Vec<BitVec>, Vec<MaskedBitVec>) {
    let mut rng = Prng::seed_from_u64(0x3a7c_4b1e);
    let (rows, count) = match size {
        "synthetic" => {
            let rows: Vec<BitVec> = (0..20_000)
                .map(|_| (0..512).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            (rows, 32)
        }
        circuit => {
            let exp = Experiment::iscas89(circuit, 1)
                .unwrap_or_else(|| Experiment::new(sdd_netlist::library::c17()));
            let tests = exp.diagnostic_tests(&Default::default()).tests;
            let matrix = exp.simulate(&tests);
            let options = Procedure1Options {
                calls1: 3,
                ..Procedure1Options::default()
            };
            let baselines = select_baselines(&matrix, &options).baselines;
            let d = SameDifferentDictionary::build(&matrix, &baselines);
            ((0..d.fault_count()).map(|f| d.signature(f)).collect(), 512)
        }
    };
    let observations = (0..count)
        .map(|_| {
            let row = &rows[rng.gen_range(0..rows.len())];
            let mut observed = MaskedBitVec::from_known(row.clone());
            for t in 0..row.len() {
                if rng.gen_bool(MASK_RATE) {
                    observed.mask(t);
                } else if rng.gen_bool(FLIP_RATE) {
                    observed.flip(t);
                }
            }
            observed
        })
        .collect();
    (rows, observations)
}

/// One reply: quality, known bits, and `(fault, mismatches)` of every
/// best-tied fault plus the top candidates.
type Reply = (MatchQuality, usize, Vec<(usize, usize)>);

/// The matcher before the flat matrix: per-fault `BitVec` temporaries and a
/// full sort, cut to the reply prefix afterwards.
fn reference(rows: &[BitVec], observed: &MaskedBitVec) -> Reply {
    let mut ranked: Vec<(usize, usize)> = rows
        .iter()
        .enumerate()
        .map(|(fault, row)| {
            let diff = observed.values() ^ row;
            (fault, (&diff & observed.known_mask()).count_ones())
        })
        .collect();
    ranked.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    let min = ranked[0].1;
    let ties = ranked.iter().take_while(|&&(_, m)| m == min).count();
    ranked.truncate(ties.max(TOP_CANDIDATES));
    let known = observed.known_count();
    let quality = match (min, known == observed.len()) {
        (0, true) => MatchQuality::Exact,
        (0, false) => MatchQuality::ConsistentUnderMask,
        _ => MatchQuality::Ranked,
    };
    (quality, known, ranked)
}

fn bounded(matrix: &SignatureMatrix, observed: &MaskedBitVec, scratch: &mut MatchScratch) -> Reply {
    let (quality, known) = match_signatures_top_into(matrix, observed, TOP_CANDIDATES, scratch)
        .expect("observation fits the dictionary");
    let ranked = scratch
        .ranking
        .iter()
        .map(|c| (c.fault, c.mismatches))
        .collect();
    (quality, known, ranked)
}

/// Times the three matchers over `trials` passes of every observation and
/// returns one JSON record per matcher.
fn run(size: &str, rows: &[BitVec], observations: &[MaskedBitVec], trials: usize) -> Vec<String> {
    let bits = rows[0].len();
    let matrix = SignatureMatrix::from_rows(bits, rows).expect("rows share one width");
    let mut scratch = MatchScratch::default();
    let mut mismatches = Vec::new();
    let identical = observations
        .iter()
        .all(|o| bounded(&matrix, o, &mut scratch) == reference(rows, o));
    let scored = (observations.len() * rows.len()) as f64;
    let scanned = (observations.len() * matrix.words().len() * 8) as f64;
    MATCHERS
        .iter()
        .map(|&matcher| {
            let mut seconds: Vec<f64> = (0..trials)
                .map(|_| {
                    let start = Instant::now();
                    for observed in observations {
                        match matcher {
                            "kernel" => {
                                let min = matrix
                                    .masked_mismatches_into(observed, &mut mismatches)
                                    .expect("observation fits the dictionary");
                                std::hint::black_box((min, &mismatches));
                            }
                            "bounded" => {
                                std::hint::black_box(bounded(&matrix, observed, &mut scratch));
                            }
                            _ => {
                                std::hint::black_box(reference(rows, observed));
                            }
                        }
                    }
                    start.elapsed().as_secs_f64().max(1e-12)
                })
                .collect();
            seconds.sort_by(f64::total_cmp);
            let median = seconds[seconds.len() / 2];
            let (fastest, slowest) = (seconds[0], seconds[seconds.len() - 1]);
            let ns = |s: f64| s * 1e9 / scored;
            let gbs = |s: f64| scanned / s / 1e9;
            format!(
                "{{\"size\":\"{size}\",\"matcher\":\"{matcher}\",\"faults\":{},\"tests\":{bits},\
                 \"observations\":{},\"signature_bytes\":{},\
                 \"ns_per_fault_median\":{:.3},\"ns_per_fault_min\":{:.3},\"ns_per_fault_max\":{:.3},\
                 \"gb_per_s_median\":{:.3},\"gb_per_s_min\":{:.3},\"gb_per_s_max\":{:.3},\
                 \"identical\":{identical}}}",
                rows.len(),
                observations.len(),
                matrix.words().len() * 8,
                ns(median),
                ns(fastest),
                ns(slowest),
                gbs(median),
                gbs(slowest),
                gbs(fastest),
            )
        })
        .collect()
}

/// Validates a written report: `available_parallelism`, then one record per
/// size × matcher whose numbers are all finite and positive (min ≤ median
/// ≤ max) and whose `identical` claim holds. String scanning, as the
/// workspace has no JSON parser — strong enough to refuse an empty,
/// truncated or claim-failing report.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("unreadable: {err}"))?;
    let body = text.trim();
    if !(body.starts_with('{') && body.ends_with('}')) {
        return Err("not a JSON object".to_owned());
    }
    match field(body, "available_parallelism").and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => {}
        other => return Err(format!("\"available_parallelism\" is {other:?}")),
    }
    let records: Vec<&str> = body.split("{\"size\":").skip(1).collect();
    if records.len() != SIZES.len() * MATCHERS.len() {
        return Err(format!(
            "{} records, expected {}",
            records.len(),
            SIZES.len() * MATCHERS.len()
        ));
    }
    for size in SIZES {
        for matcher in MATCHERS {
            let record = records
                .iter()
                .find(|r| {
                    r.starts_with(&format!("\"{size}\""))
                        && field(r, "matcher") == Some(&format!("\"{matcher}\""))
                })
                .ok_or_else(|| format!("missing record {size}/{matcher}"))?;
            let what = format!("{size}/{matcher}");
            let mut numbers = Vec::with_capacity(NUMERIC_KEYS.len());
            for key in NUMERIC_KEYS {
                let value = field(record, key).ok_or_else(|| format!("{what}: missing {key:?}"))?;
                let number: f64 = value
                    .parse()
                    .map_err(|_| format!("{what}: {key:?} holds non-numeric {value:?}"))?;
                if !number.is_finite() || number <= 0.0 {
                    return Err(format!("{what}: {key:?} holds {number}"));
                }
                numbers.push(number);
            }
            let [ns_median, ns_min, ns_max, gb_median, gb_min, gb_max] = [
                numbers[4], numbers[5], numbers[6], numbers[7], numbers[8], numbers[9],
            ];
            if !(ns_min <= ns_median
                && ns_median <= ns_max
                && gb_min <= gb_median
                && gb_median <= gb_max)
            {
                return Err(format!("{what}: min/median/max out of order"));
            }
            if field(record, "identical") != Some("true") {
                return Err(format!("{what}: bounded replies differ from the reference"));
            }
        }
    }
    Ok(())
}

/// The raw value text after `"key":` up to the next delimiter.
fn field<'t>(body: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = if let Some(tail) = rest.strip_prefix('"') {
        tail.find('"')? + 2
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim())
}
