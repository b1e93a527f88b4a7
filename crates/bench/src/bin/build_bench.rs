//! Dictionary *construction* benchmark: times the three build stages —
//! fault simulation, Procedure 1 (baseline selection), Procedure 2
//! (baseline replacement) — at `jobs=1` versus `jobs=N`, and proves the
//! parallel path produces a byte-identical `.sddb` dictionary.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin build_bench -- [options]
//!
//!   --circuit <name>   ISCAS'89-shaped benchmark (default: s1423)
//!   --ttype <t>        diag | 10det (default: diag)
//!   --seed <u64>       generation seed (default: 1)
//!   --calls1 <n>       Procedure 1 restart patience (default: 10)
//!   --jobs <n>         parallel worker count (default: all hardware threads)
//!   --out <path>       where to write the JSON report (default: BENCH_build.json)
//!   --check <path>     validate an existing report instead of benchmarking;
//!                      exits non-zero if the file is missing or malformed
//! ```
//!
//! The report is one JSON object, e.g.:
//!
//! ```json
//! {"circuit":"s1423","ttype":"diag","seed":1,"faults":1501,"tests":241,
//!  "jobs":4,"available_parallelism":4,"jobs_effective":4,
//!  "simulate_s_jobs1":1.91,"simulate_s_jobsn":0.52,
//!  "procedure1_s_jobs1":10.80,"procedure1_s_jobsn":2.95,
//!  "procedure2_s":0.41,
//!  "simulate_speedup":3.67,"procedure1_speedup":3.66,
//!  "indistinguished_pairs":210,"procedure1_calls":14,"identical":true}
//! ```
//!
//! `identical` is the headline correctness claim: the serial and parallel
//! response matrices compare equal, Procedure 1 selects the same baselines
//! with the same figure of merit, and the encoded `.sddb` bytes match.
//! Speedups depend on the host (`available_parallelism` is recorded so a
//! single-core CI box's numbers are not misread as a regression).
//!
//! The report also carries a `shard_bench` point comparing the unsharded
//! deployment (cold `.sddb` read + decode + first diagnosis) against the
//! sharded one (manifest open + every shard load + merged diagnosis):
//! `shards`, `unsharded_cold_s`, `sharded_cold_s`, and `shard_identical`,
//! the second correctness claim — the merged cross-shard ranking equals the
//! unsharded one bit for bit.
//!
//! Finally a `patch_bench` point times the incremental (ECO) update path
//! against the from-scratch alternative: a single-pin rewire of the
//! benchmark circuit is applied to the written artifact with
//! `patch_dictionary` (`patch_s`) and, separately, the modified netlist is
//! rebuilt through the full simulate → Procedure 1 → Procedure 2 → encode →
//! write flow (`rebuild_s`). `patch_identical` is the third correctness
//! claim: the patched file's bytes equal a rebuild of the modified netlist
//! under the patched baselines, modulo the patch-generation header field.
//! The `--check` gate requires `patch_s < rebuild_s` — the point of the
//! patch path is that it is cheaper than the rebuild it replaces.
//!
//! The main circuit's diagnostic test set is often a single 64-test pattern
//! block (s953: 48 tests), and fault simulation runs one worker per block,
//! so its `simulate_speedup` reads about 1.0x. A `large_*` point therefore
//! times the stage at a realistic size: an s5378-shaped circuit (generator
//! seed 1) under 256 random patterns (pattern seed 1), `LARGE_TRIALS`
//! trials each at `jobs=1` and `jobs=N`, reported as median/min/max
//! (`large_simulate_s_jobs1_median`, ...), next to `large_faults`,
//! `large_ffr_roots` (fanout-free-region roots: the stem propagations a
//! block shares among its faults), `large_blocks`, and
//! `large_simulate_workers = min(jobs_effective, large_blocks)`.
//! `large_identical` is the matrix identity claim at that size; the gate
//! checks it and the shape of the point, never the speedup.

use std::time::Instant;

use same_different::netlist::{Circuit, Driver};
use same_different::Experiment;
use sdd_bench::TestSetType;
use sdd_core::{replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary};
use sdd_store::StoredDictionary;

/// Keys [`check`] requires to hold a finite, non-negative number.
const NUMERIC_KEYS: &[&str] = &[
    "seed",
    "faults",
    "tests",
    "jobs",
    "available_parallelism",
    "jobs_effective",
    "simulate_s_jobs1",
    "simulate_s_jobsn",
    "procedure1_s_jobs1",
    "procedure1_s_jobsn",
    "procedure2_s",
    "simulate_speedup",
    "procedure1_speedup",
    "indistinguished_pairs",
    "procedure1_calls",
    "shards",
    "unsharded_cold_s",
    "sharded_cold_s",
    "patch_s",
    "rebuild_s",
    "patch_touched_tests",
    "large_patterns",
    "large_faults",
    "large_ffr_roots",
    "large_blocks",
    "large_simulate_workers",
    "large_trials",
    "large_simulate_s_jobs1_median",
    "large_simulate_s_jobs1_min",
    "large_simulate_s_jobs1_max",
    "large_simulate_s_jobsn_median",
    "large_simulate_s_jobsn_min",
    "large_simulate_s_jobsn_max",
    "large_simulate_speedup",
];

/// The large simulate point: circuit profile, random patterns, trials.
const LARGE_CIRCUIT: &str = "s5378";
const LARGE_PATTERNS: usize = 256;
const LARGE_TRIALS: usize = 5;

fn main() {
    let mut circuit = "s1423".to_owned();
    let mut ttype = TestSetType::Diagnostic;
    let mut seed: u64 = 1;
    let mut calls1: usize = 10;
    let mut jobs = sdd_sim::available_jobs();
    let mut out = "BENCH_build.json".to_owned();
    let mut check_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--circuit" => circuit = args.next().expect("--circuit takes a name"),
            "--ttype" => {
                ttype = match args.next().expect("--ttype takes diag|10det").as_str() {
                    "diag" => TestSetType::Diagnostic,
                    "10det" => TestSetType::TenDetect,
                    other => {
                        eprintln!("unknown ttype {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed u64")
            }
            "--calls1" => {
                calls1 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--calls1 n")
            }
            "--jobs" => jobs = args.next().and_then(|s| s.parse().ok()).expect("--jobs n"),
            "--out" => out = args.next().expect("--out takes a path"),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => {
                eprintln!("unknown option {other:?}");
                std::process::exit(2);
            }
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

    let report = run(&circuit, ttype, seed, calls1, jobs);
    std::fs::write(&out, &report).expect("write report");
    println!("{report}");
    eprintln!("wrote {out}");
}

/// Runs the benchmark and renders the JSON report.
fn run(circuit: &str, ttype: TestSetType, seed: u64, calls1: usize, jobs: usize) -> String {
    let jobs = jobs.max(1);
    let exp = Experiment::iscas89(circuit, seed).unwrap_or_else(|| {
        eprintln!("unknown circuit {circuit:?}");
        std::process::exit(2);
    });
    let atpg = sdd_atpg::AtpgOptions {
        seed,
        ..Default::default()
    };
    let tests = match ttype {
        TestSetType::Diagnostic => exp.diagnostic_tests(&atpg),
        TestSetType::TenDetect => exp.detection_tests(10, &atpg),
    };

    // Stage 1: fault simulation, serial then parallel.
    let start = Instant::now();
    let matrix_serial = exp.simulate_jobs(&tests.tests, 1);
    let simulate_s_jobs1 = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let matrix = exp.simulate_jobs(&tests.tests, jobs);
    let simulate_s_jobsn = start.elapsed().as_secs_f64();
    let mut identical = matrix == matrix_serial;

    // Stage 2: Procedure 1, serial then parallel.
    let options = |jobs| Procedure1Options {
        calls1,
        seed,
        jobs,
        ..Procedure1Options::default()
    };
    let start = Instant::now();
    let selection_serial = select_baselines(&matrix_serial, &options(1));
    let procedure1_s_jobs1 = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut selection = select_baselines(&matrix, &options(jobs));
    let procedure1_s_jobsn = start.elapsed().as_secs_f64();
    identical &= selection.baselines == selection_serial.baselines
        && selection.indistinguished_pairs == selection_serial.indistinguished_pairs
        && selection.calls == selection_serial.calls;

    // Stage 3: Procedure 2 (serial by construction — passes are inherently
    // sequential), then the byte-level identity proof.
    let start = Instant::now();
    let pairs = replace_baselines(&matrix, &mut selection.baselines);
    let procedure2_s = start.elapsed().as_secs_f64();

    let mut serial_baselines = selection_serial.baselines;
    replace_baselines(&matrix_serial, &mut serial_baselines);
    let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let bytes = sdd_store::encode(&StoredDictionary::SameDifferent(dictionary.clone())).unwrap();
    let serial_bytes = sdd_store::encode(&StoredDictionary::SameDifferent(
        SameDifferentDictionary::build(&matrix_serial, &serial_baselines),
    ))
    .unwrap();
    identical &= bytes == serial_bytes;

    // Shard bench: cold-load + first-diagnosis latency, unsharded `.sddb`
    // versus a cone-partitioned shard set, plus the bit-identity proof of
    // the merged cross-shard ranking.
    let (shards, unsharded_cold_s, sharded_cold_s, shard_identical) =
        shard_bench(&exp, &matrix, StoredDictionary::SameDifferent(dictionary));

    // Patch bench: the incremental ECO path versus the rebuild it replaces.
    let (patch_s, rebuild_s, patch_touched_tests, patch_identical) =
        patch_bench(&exp, &tests.tests, &bytes, calls1, seed, jobs);

    let large = large_simulate_point(jobs);

    // `jobs_effective` is the honesty field: `--jobs 4` on a single-core
    // runner still exercises the threaded path, but only
    // min(jobs, available_parallelism) threads can actually run — readers
    // (and the `--check` gate) must not read a 1.0x "speedup" there as a
    // regression.
    format!(
        "{{\"circuit\":\"{}\",\"ttype\":\"{}\",\"seed\":{},\"faults\":{},\"tests\":{},\
         \"jobs\":{},\"available_parallelism\":{},\"jobs_effective\":{},\
         \"simulate_s_jobs1\":{:.3},\"simulate_s_jobsn\":{:.3},\
         \"procedure1_s_jobs1\":{:.3},\"procedure1_s_jobsn\":{:.3},\
         \"procedure2_s\":{:.3},\
         \"simulate_speedup\":{:.2},\"procedure1_speedup\":{:.2},\
         \"indistinguished_pairs\":{},\"procedure1_calls\":{},\
         \"shards\":{},\"unsharded_cold_s\":{:.6},\"sharded_cold_s\":{:.6},\
         \"shard_identical\":{},\
         \"patch_s\":{:.6},\"rebuild_s\":{:.6},\"patch_touched_tests\":{},\
         \"patch_identical\":{},{},\"identical\":{}}}",
        circuit,
        ttype,
        seed,
        exp.faults().len(),
        tests.len(),
        jobs,
        sdd_sim::available_jobs(),
        jobs.min(sdd_sim::available_jobs()),
        simulate_s_jobs1,
        simulate_s_jobsn,
        procedure1_s_jobs1,
        procedure1_s_jobsn,
        procedure2_s,
        simulate_s_jobs1 / simulate_s_jobsn.max(1e-9),
        procedure1_s_jobs1 / procedure1_s_jobsn.max(1e-9),
        pairs,
        selection.calls,
        shards,
        unsharded_cold_s,
        sharded_cold_s,
        shard_identical,
        patch_s,
        rebuild_s,
        patch_touched_tests,
        patch_identical,
        large,
        identical,
    )
}

/// Times fault simulation of the large synthetic at `jobs=1` and `jobs`,
/// `LARGE_TRIALS` times each, and renders the `large_*` report fields.
fn large_simulate_point(jobs: usize) -> String {
    let exp = Experiment::iscas89(LARGE_CIRCUIT, 1).expect("known profile");
    let width = exp.view().inputs().len();
    let tests = sdd_atpg::random_patterns(
        width,
        LARGE_PATTERNS,
        &mut sdd_logic::Prng::seed_from_u64(1),
    );
    let blocks = tests.len().div_ceil(sdd_logic::LANES);
    let roots = sdd_sim::Engine::new(exp.circuit(), exp.view()).root_count();

    let mut identical = true;
    let mut jobs1 = Vec::with_capacity(LARGE_TRIALS);
    let mut jobsn = Vec::with_capacity(LARGE_TRIALS);
    for _ in 0..LARGE_TRIALS {
        let start = Instant::now();
        let matrix = exp.simulate_jobs(&tests, 1);
        jobs1.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let parallel = exp.simulate_jobs(&tests, jobs);
        jobsn.push(start.elapsed().as_secs_f64());
        identical &= parallel == matrix;
    }
    let (jobs1, jobsn) = (spread(jobs1), spread(jobsn));
    format!(
        "\"large_circuit\":\"{LARGE_CIRCUIT}\",\"large_patterns\":{},\"large_faults\":{},\
         \"large_ffr_roots\":{roots},\"large_blocks\":{blocks},\"large_simulate_workers\":{},\
         \"large_trials\":{LARGE_TRIALS},\
         \"large_simulate_s_jobs1_median\":{:.4},\"large_simulate_s_jobs1_min\":{:.4},\
         \"large_simulate_s_jobs1_max\":{:.4},\
         \"large_simulate_s_jobsn_median\":{:.4},\"large_simulate_s_jobsn_min\":{:.4},\
         \"large_simulate_s_jobsn_max\":{:.4},\
         \"large_simulate_speedup\":{:.2},\"large_identical\":{identical}",
        tests.len(),
        exp.faults().len(),
        jobs.min(sdd_sim::available_jobs()).min(blocks),
        jobs1[0],
        jobs1[1],
        jobs1[2],
        jobsn[0],
        jobsn[1],
        jobsn[2],
        jobs1[0] / jobsn[0].max(1e-9),
    )
}

/// `[median, min, max]` of a non-empty sample.
fn spread(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    [
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    ]
}

/// Finds a patch-compatible rewire ECO: a gate pin fed by a fan-out-≥3 net,
/// rewired to a different fan-out-≥2 input/flip-flop net. Both nets keep
/// fan-out > 1 on every sink, so the branch-fault universe — and with
/// unchanged gate kinds, the structural collapsing — is preserved while the
/// function changes. Among the candidates, the gate with the *smallest*
/// output cone wins: real ECOs are local, and the bench should time the
/// local-update path, not a root-net rewrite.
fn find_rewire(exp: &Experiment) -> Option<Circuit> {
    let circuit = exp.circuit();
    let fanout = circuit.fanout_counts();
    let cones = sdd_sim::OutputCones::compute(circuit, exp.view());
    let sources: Vec<_> = circuit
        .nets()
        .filter(|&net| {
            fanout[net.index()] >= 2
                && matches!(circuit.driver(net), Driver::Input | Driver::Dff { .. })
        })
        .collect();
    let mut best: Option<(usize, Circuit)> = None;
    for gate in circuit.nets() {
        let Driver::Gate { kind, inputs } = circuit.driver(gate) else {
            continue;
        };
        let reach = cones.net_cone(gate).count_ones();
        if best.as_ref().is_some_and(|(b, _)| *b <= reach) {
            continue;
        }
        for (pin, &old_source) in inputs.iter().enumerate() {
            if fanout[old_source.index()] < 3 {
                continue;
            }
            if let Some(&new_source) = sources
                .iter()
                .find(|&&s| s != old_source && !inputs.contains(&s))
            {
                let mut rewired = inputs.clone();
                rewired[pin] = new_source;
                let eco = circuit
                    .with_driver(
                        gate,
                        Driver::Gate {
                            kind: *kind,
                            inputs: rewired,
                        },
                    )
                    .expect("rewiring to an input net cannot form a cycle");
                best = Some((reach, eco));
                break;
            }
        }
    }
    best.map(|(_, eco)| eco)
}

/// Times the ECO patch path against a from-scratch rebuild of the modified
/// netlist and proves the patched bytes equal the rebuild's (modulo the
/// patch-generation header field). Returns
/// `(patch_s, rebuild_s, touched_tests, patch_identical)`.
fn patch_bench(
    exp: &Experiment,
    tests: &[sdd_logic::BitVec],
    whole_bytes: &[u8],
    calls1: usize,
    seed: u64,
    jobs: usize,
) -> (f64, f64, usize, bool) {
    use same_different::patch::{patch_dictionary, PatchOptions};

    let old = exp.circuit();
    let new = find_rewire(exp).expect("no patch-compatible rewire in benchmark circuit");

    let dir = std::env::temp_dir().join(format!("sdd-patch-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create patch bench dir");
    let path = dir.join("bench.sddb");
    std::fs::write(&path, whole_bytes).expect("write artifact");

    let start = Instant::now();
    let report = patch_dictionary(
        old,
        &new,
        tests,
        &path,
        &PatchOptions {
            jobs,
            ..Default::default()
        },
    )
    .expect("patch");
    let patch_s = start.elapsed().as_secs_f64();

    // The rebuild it replaces: the full build flow on the modified netlist,
    // through to committed bytes on disk.
    let rebuild_path = dir.join("rebuild.sddb");
    let start = Instant::now();
    let new_exp = Experiment::new(new.clone());
    let matrix = new_exp.simulate_jobs(tests, jobs);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1,
            seed,
            jobs,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let rebuilt = SameDifferentDictionary::build(&matrix, &selection.baselines);
    sdd_store::save(&rebuild_path, &StoredDictionary::SameDifferent(rebuilt))
        .expect("write rebuilt dictionary");
    let rebuild_s = start.elapsed().as_secs_f64();

    // Identity claim: the patched file equals a rebuild of the modified
    // netlist under the patched baselines (the patch's documented policy —
    // untouched tests keep their baselines, touched tests carry the
    // refreshed ones).
    let patched_bytes = std::fs::read(&path).expect("read patched artifact");
    let patched = sdd_store::read_same_different_auto(&patched_bytes).expect("decode patched");
    let target = SameDifferentDictionary::build(&matrix, patched.baseline_classes());
    let target_bytes = sdd_store::encode(&StoredDictionary::SameDifferent(target)).unwrap();
    let patch_identical = sdd_store::strip_patch_provenance(&patched_bytes).unwrap()
        == sdd_store::strip_patch_provenance(&target_bytes).unwrap();

    let _ = std::fs::remove_dir_all(&dir);
    (patch_s, rebuild_s, report.touched_tests, patch_identical)
}

/// Times the two deployment shapes from a cold start and proves the merged
/// cross-shard ranking is bit-identical to the unsharded one. The probe
/// observation is fault 0's simulated responses — a realistic single-fault
/// datalog.
fn shard_bench(
    exp: &Experiment,
    matrix: &sdd_sim::ResponseMatrix,
    whole: StoredDictionary,
) -> (usize, f64, f64, bool) {
    use same_different::shard::{diagnose_sharded, ShardObservation};

    let dir = std::env::temp_dir().join(format!("sdd-shard-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create shard bench dir");
    let whole_path = dir.join("bench.sddb");
    sdd_store::save(&whole_path, &whole).expect("write unsharded dictionary");
    let shards = 4.min(whole.fault_count());
    let cones = sdd_sim::OutputCones::compute(exp.circuit(), exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), shards);
    let shard_cones: Vec<sdd_logic::BitVec> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    let manifest_path = dir.join("bench.sddm");
    sdd_store::write_sharded(&manifest_path, &whole, &ranges, Some(&shard_cones))
        .expect("write sharded dictionary");
    drop(whole);

    let responses: Vec<sdd_logic::MaskedBitVec> = (0..matrix.test_count())
        .map(|t| sdd_logic::MaskedBitVec::from_known(matrix.response(t, matrix.class(t, 0))))
        .collect();
    let observation = ShardObservation::Responses(&responses);

    let start = Instant::now();
    let bytes = std::fs::read(&whole_path).expect("read unsharded dictionary");
    let cold = sdd_store::decode(&bytes).expect("decode unsharded dictionary");
    let unsharded_report =
        diagnose_sharded(&[(0, &cold)], observation).expect("unsharded diagnosis");
    let unsharded_cold_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let reader = sdd_store::ShardedReader::open(&manifest_path).expect("open manifest");
    let loaded: Vec<(usize, StoredDictionary)> = reader
        .manifest()
        .shards
        .iter()
        .enumerate()
        .map(|(i, record)| {
            (
                record.fault_start,
                reader.load_shard(i).expect("load shard"),
            )
        })
        .collect();
    let refs: Vec<(usize, &StoredDictionary)> =
        loaded.iter().map(|(start, d)| (*start, d)).collect();
    let sharded_report = diagnose_sharded(&refs, observation).expect("sharded diagnosis");
    let sharded_cold_s = start.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(&dir);
    (
        ranges.len(),
        unsharded_cold_s,
        sharded_cold_s,
        sharded_report == unsharded_report,
    )
}

/// Validates a previously written report: the file must exist, look like a
/// single JSON object, carry every numeric key with a finite non-negative
/// value, name a circuit, and claim `"identical":true`.
///
/// The workspace has no JSON parser (and takes no dependencies), so this is
/// a schema check by string scanning — exactly strong enough for CI to
/// refuse an empty, truncated, or `identical:false` report.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("unreadable: {err}"))?;
    let body = text.trim();
    if !(body.starts_with('{') && body.ends_with('}')) {
        return Err("not a JSON object".to_owned());
    }
    for key in NUMERIC_KEYS {
        let value = field(body, key).ok_or_else(|| format!("missing key {key:?}"))?;
        let number: f64 = value
            .parse()
            .map_err(|_| format!("key {key:?} holds non-numeric {value:?}"))?;
        if !number.is_finite() || number < 0.0 {
            return Err(format!("key {key:?} holds invalid value {number}"));
        }
    }
    match field(body, "circuit") {
        Some(value) if value.starts_with('"') && value.len() > 2 => {}
        _ => return Err("missing or empty key \"circuit\"".to_owned()),
    }
    for claim in [
        "shard_identical",
        "patch_identical",
        "large_identical",
        "identical",
    ] {
        match field(body, claim) {
            Some("true") => {}
            Some(value) => return Err(format!("{claim:?} is {value}, expected true")),
            None => return Err(format!("missing key {claim:?}")),
        }
    }
    // The large point's spreads must be ordered: min <= median <= max.
    for stage in ["large_simulate_s_jobs1", "large_simulate_s_jobsn"] {
        let value = |stat: &str| -> f64 {
            field(body, &format!("{stage}_{stat}"))
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        let (min, median, max) = (value("min"), value("median"), value("max"));
        if !(min <= median && median <= max) {
            return Err(format!(
                "{stage}: min {min}, median {median}, max {max} are not ordered"
            ));
        }
    }
    // The patch path exists to beat the rebuild it replaces; a report where
    // it does not is a regression regardless of host shape.
    let patch_s: f64 = field(body, "patch_s")
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::MAX);
    let rebuild_s: f64 = field(body, "rebuild_s")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if patch_s >= rebuild_s {
        return Err(format!(
            "patch_s={patch_s} did not beat rebuild_s={rebuild_s}; \
             the incremental patch path regressed"
        ));
    }
    // Speedup sanity only where speedup was possible: on a host where the
    // threaded run had real cores (`jobs_effective > 1`), the parallel path
    // must not be catastrophically slower than serial. A single-core runner
    // (jobs_effective == 1) skips this — there, ~1.0x is the honest answer.
    let effective: f64 = field(body, "jobs_effective")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    if effective > 1.0 {
        for key in ["simulate_speedup", "procedure1_speedup"] {
            let speedup: f64 = field(body, key).and_then(|v| v.parse().ok()).unwrap_or(0.0);
            if speedup < 0.5 {
                return Err(format!(
                    "{key:?} is {speedup} with jobs_effective={effective}; \
                     the parallel path regressed"
                ));
            }
        }
    }
    Ok(())
}

/// Extracts the raw value text after `"key":` up to the next top-level
/// delimiter. Sufficient for the flat objects this binary writes.
fn field<'t>(body: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = if let Some(tail) = rest.strip_prefix('"') {
        // String value: spans up to and including the closing quote.
        tail.find('"')? + 2
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim())
}
