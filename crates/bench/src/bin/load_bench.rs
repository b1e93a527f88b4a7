//! Dictionary load-time comparison: parsing the v1 text format vs. decoding
//! the binary `.sddb` store, plus the cold-start cost of the two byte
//! ownership modes — full owned read + decode versus `mmap` + first row.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin load_bench -- [circuit] [seed] [reps]
//!     [--out report.json] [--check report.json]
//! ```
//!
//! Emits one JSON object on stdout (and to `--out` when given) so CI can
//! archive and diff the numbers:
//!
//! ```json
//! {"circuit":"s953","faults":1079,"tests":203,
//!  "text_bytes":292384,"binary_bytes":37120,
//!  "text_parse_us":1201.3,"binary_read_us":63.7,"speedup":18.9,
//!  "mmap_supported":true,"owned_cold_us":88.1,"mmap_cold_us":21.4,
//!  "first_row_identical":true}
//! ```
//!
//! The text-vs-binary pair starts from bytes already in memory, so that
//! comparison is parse/decode cost alone. The cold pair starts from a file
//! on disk: `owned_cold_us` reads the whole file into a `Vec` and decodes
//! every row (the `--mmap off` serve path), `mmap_cold_us` maps the file
//! and materializes only the first signature row through the lazy reader
//! (the `--mmap on` serve path before any decode) — the latency gap is what
//! deferring residency buys. `first_row_identical` is the correctness
//! claim: the row read through the mapping equals the decoded one. On a
//! target without mmap both cold points use owned reads and
//! `mmap_supported` records why they converge.

use std::time::Instant;

use same_different::Experiment;
use sdd_core::{io as dict_io, Procedure1Options};
use sdd_store::{MmapMode, SddbReader, StoredDictionary};

/// Keys [`check`] requires to hold a finite, non-negative number.
const NUMERIC_KEYS: &[&str] = &[
    "faults",
    "tests",
    "text_bytes",
    "binary_bytes",
    "text_parse_us",
    "binary_read_us",
    "speedup",
    "owned_cold_us",
    "mmap_cold_us",
];

fn main() {
    let mut positional = Vec::new();
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => positional.push(other.to_owned()),
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
    let circuit = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "s953".to_owned());
    let seed: u64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let reps: u32 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);

    let report = run(&circuit, seed, reps);
    println!("{report}");
    if let Some(out) = out {
        std::fs::write(&out, format!("{report}\n")).expect("write report");
        eprintln!("wrote {out}");
    }
}

fn run(circuit: &str, seed: u64, reps: u32) -> String {
    let exp = Experiment::iscas89(circuit, seed)
        .unwrap_or_else(|| Experiment::new(sdd_netlist::library::c17()));
    let tests = exp.diagnostic_tests(&Default::default());
    let suite = exp.build_dictionaries(
        &tests.tests,
        &Procedure1Options {
            calls1: 3,
            ..Default::default()
        },
    );
    let dictionary = suite.same_different;

    let text = dict_io::write_same_different(&dictionary);
    let binary = sdd_store::encode(&StoredDictionary::SameDifferent(dictionary.clone())).unwrap();

    // One warm-up of each path keeps first-touch effects out of the timings.
    assert_eq!(dict_io::read_same_different(&text).unwrap(), dictionary);
    match sdd_store::decode(&binary).unwrap() {
        StoredDictionary::SameDifferent(d) => assert_eq!(d, dictionary),
        other => panic!("unexpected kind {:?}", other.kind()),
    }

    let start = Instant::now();
    for _ in 0..reps {
        let parsed = dict_io::read_same_different(&text).unwrap();
        std::hint::black_box(&parsed);
    }
    let text_parse_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

    let start = Instant::now();
    for _ in 0..reps {
        let decoded = sdd_store::decode(&binary).unwrap();
        std::hint::black_box(&decoded);
    }
    let binary_read_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

    // Cold-start pair: the same `.sddb` from disk, owned vs mapped.
    let dir = std::env::temp_dir().join(format!("sdd-load-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("bench.sddb");
    std::fs::write(&path, &binary).expect("write bench dictionary");
    let mapped_mode = if sdd_store::mmap_supported() {
        MmapMode::On
    } else {
        MmapMode::Off
    };

    let start = Instant::now();
    for _ in 0..reps {
        let bytes = sdd_store::read_dictionary_bytes(&path, MmapMode::Off).expect("owned read");
        let decoded = sdd_store::decode(bytes.as_slice()).expect("decode");
        std::hint::black_box(&decoded);
    }
    let owned_cold_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

    let start = Instant::now();
    for _ in 0..reps {
        let bytes = sdd_store::read_dictionary_bytes(&path, mapped_mode).expect("mapped read");
        let reader = SddbReader::open_unverified(&bytes).expect("open reader");
        let row = reader.signature(0).expect("first row");
        std::hint::black_box(&row);
    }
    let mmap_cold_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

    // Correctness claim: the row materialized through the mapping equals
    // the one the full decode produces.
    let bytes = sdd_store::read_dictionary_bytes(&path, mapped_mode).expect("mapped read");
    let reader = SddbReader::open(&bytes).expect("open reader");
    let first_row_identical = reader.signature(0).expect("first row") == dictionary.signature(0);
    let _ = std::fs::remove_dir_all(&dir);

    format!(
        "{{\"circuit\":\"{}\",\"faults\":{},\"tests\":{},\
         \"text_bytes\":{},\"binary_bytes\":{},\
         \"text_parse_us\":{:.1},\"binary_read_us\":{:.1},\"speedup\":{:.1},\
         \"mmap_supported\":{},\"owned_cold_us\":{:.1},\"mmap_cold_us\":{:.1},\
         \"first_row_identical\":{}}}",
        exp.circuit().name(),
        dictionary.fault_count(),
        dictionary.test_count(),
        text.len(),
        binary.len(),
        text_parse_us,
        binary_read_us,
        text_parse_us / binary_read_us.max(1e-9),
        sdd_store::mmap_supported(),
        owned_cold_us,
        mmap_cold_us,
        first_row_identical,
    )
}

/// Validates a previously written report: the file must exist, look like a
/// single JSON object, carry every numeric key with a finite non-negative
/// value, name a circuit, and claim `"first_row_identical":true`.
///
/// The workspace has no JSON parser (and takes no dependencies), so this is
/// a schema check by string scanning — exactly strong enough for CI to
/// refuse an empty, truncated, or claim-failing report.
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
    match field(body, "mmap_supported") {
        Some("true" | "false") => {}
        other => return Err(format!("\"mmap_supported\" is {other:?}, expected a bool")),
    }
    match field(body, "first_row_identical") {
        Some("true") => {}
        Some(value) => return Err(format!("\"first_row_identical\" is {value}, expected true")),
        None => return Err("missing key \"first_row_identical\"".to_owned()),
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
