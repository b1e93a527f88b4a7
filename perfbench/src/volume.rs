//! The `volume-s5378` workload: the large dictionary as a 4-shard `.sddm`,
//! opened the way `sdd volume` opens it, with a seeded datalog corpus
//! replayed through `sdd_volume::run` lot by lot.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sdd_store::{MmapMode, StoredDictionary};
use sdd_volume::corpus::parse_line;
use sdd_volume::shard::{diagnose_sharded, ShardObservation};
use sdd_volume::{
    Aggregator, JsonlSink, Observation, Parsed, PreloadedShards, ShardSource, SynthSpec,
    VolumeOptions,
};

use crate::build_patch;
use crate::fixtures::{self, Expected};
use crate::report::{self, median, quantile, Digest, Outcome};
use crate::trace::{self, Trace, OP};
use crate::Args;

/// Shards in the `.sddm` set.
const SHARDS: usize = 4;
/// Devices in the synthesized corpus.
const DEVICES: usize = 512;
/// Devices per `sdd_volume::run` call (one op).
const LOT: usize = 128;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Traced runs cycle through four lot kinds; at least one of each.
const TRACED_PHASES: usize = 4;
/// Corpus devices replayed in-process for the parse/encode/score probes.
const PROBES: usize = 64;
/// Clean devices diagnosed after the window for `resolution`.
const QUALITY_LOTS: usize = 2;
/// Seed salt separating the clean quality corpus from the load corpus.
const QUALITY_SALT: u64 = 0x51_7A11;
/// `VolumeOptions::default().threshold`, the shipped systematic cutoff.
const THRESHOLD: f64 = 0.05;

struct Setup {
    exp: same_different::Experiment,
    tests: Vec<sdd_logic::BitVec>,
    built: fixtures::Built,
    source: PreloadedShards,
    lines: Vec<String>,
    plan: Vec<usize>,
    secs: f64,
}

/// Synthesizes a corpus; returns its lines and the injected-fault plan.
fn corpus(
    matrix: &sdd_sim::ResponseMatrix,
    spec: &SynthSpec,
) -> Result<(Vec<String>, Vec<usize>), String> {
    let mut bytes = Vec::new();
    let plan =
        sdd_volume::synthesize(matrix, spec, &mut bytes).map_err(|e| format!("synthesize: {e}"))?;
    let text = String::from_utf8(bytes).map_err(|e| format!("corpus: {e}"))?;
    Ok((text.lines().map(str::to_owned).collect(), plan))
}

/// Build → 4-shard commit → `PreloadedShards::open_with` → corpus synthesis.
fn set_up(args: &Args, trace: &mut Trace, rep: usize) -> Result<Setup, String> {
    let start = Instant::now();
    let (exp, tests) = build_patch::instance(trace);
    let built = fixtures::build_dictionary(&exp, &tests, trace, 0, None);
    let manifest: PathBuf = args.work.join(format!("volume-{rep}.sddm"));
    let cones = sdd_sim::OutputCones::compute(exp.circuit(), exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), SHARDS);
    let shard_cones: Vec<_> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    let whole = StoredDictionary::SameDifferent(built.dictionary.clone());
    trace
        .time("store.commit", 0, None, || {
            sdd_store::write_sharded(&manifest, &whole, &ranges, Some(&shard_cones))
        })
        .map_err(|e| format!("write shards: {e}"))?;
    let source = trace
        .time("store.open", 0, None, || {
            PreloadedShards::open_with(&manifest, MmapMode::Auto)
        })
        .map_err(|e| format!("open shards: {e}"))?;
    // Two systematic faults, a tenth of the devices each; the rest random.
    let picks = fixtures::draw_faults(args.seed ^ 0x5157, built.matrix.fault_count(), 2);
    let spec = SynthSpec {
        devices: DEVICES,
        systematic: vec![(picks[0], 0.1), (picks[1], 0.1)],
        mask_rate: fixtures::MASK_RATE,
        flip_rate: fixtures::FLIP_RATE,
        seed: args.seed,
        ..SynthSpec::default()
    };
    let (lines, plan) = corpus(&built.matrix, &spec)?;
    Ok(Setup {
        exp,
        tests,
        built,
        source,
        lines,
        plan,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// The observation text of a corpus line (text or JSONL shape).
fn observation_text(line: &str) -> &str {
    match line.strip_prefix('{') {
        Some(json) => {
            let start = json.find("\"obs\":\"").map_or(0, |i| i + 7);
            let rest = &json[start..];
            &rest[..rest.find('"').unwrap_or(rest.len())]
        }
        None => line.split_whitespace().nth(1).unwrap_or(""),
    }
}

/// The numbers after `"key":` in a record line, up to the next `,`/`}`
/// (or the whole `[...]` list for a list value).
fn record_field<'r>(record: &'r str, key: &str) -> Option<&'r str> {
    let needle = format!("\"{key}\":");
    let rest = &record[record.find(&needle)? + needle.len()..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

/// Does a device record carry the reference's `distance`, best-set size
/// (`nbest`), and shown best prefix?
pub fn record_matches(record: &str, device: &str, expected: &Expected) -> bool {
    let shown: Vec<String> = expected
        .best
        .iter()
        .take(sdd_volume::engine::BEST_SHOWN)
        .map(usize::to_string)
        .collect();
    record_field(record, "device") == Some(&format!("\"{device}\""))
        && record_field(record, "status") == Some("\"ok\"")
        && record_field(record, "distance") == Some(&expected.distance.to_string())
        && record_field(record, "nbest") == Some(&expected.best.len().to_string())
        && record_field(record, "best") == Some(&format!("[{}]", shown.join(",")))
}

/// One lot through `sdd_volume::run`, every record checked. Returns the
/// seconds the call took.
fn run_lot(
    source: &PreloadedShards,
    lines: &[String],
    first: usize,
    expected: &[Expected],
    jobs: usize,
    seed: u64,
    out: &mut Outcome,
) -> f64 {
    let mut lot = lines[first..first + LOT].iter().map(|l| Ok(l.clone()));
    let mut records = Vec::with_capacity(LOT * 512);
    let options = VolumeOptions {
        jobs,
        seed,
        ..VolumeOptions::default()
    };
    let start = Instant::now();
    let summary = sdd_volume::run(source, &mut lot, &mut JsonlSink(&mut records), &options);
    let secs = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&records);
    let mut lines_out = text.lines();
    for (offset, expected) in expected[first..first + LOT].iter().enumerate() {
        let device = sdd_volume::device_name(first + offset);
        let record = lines_out.next().unwrap_or("");
        out.check(record_matches(record, &device, expected), || {
            format!(
                "device {device}: record {:?} disagrees with the reference",
                record.chars().take(160).collect::<String>()
            )
        });
    }
    out.check(
        summary.is_ok_and(|s| s.devices == LOT && s.ok == LOT && s.skipped == 0),
        || format!("lot at {first}: summary is not {LOT} ok devices"),
    );
    secs
}

/// The engine's per-device path rebuilt from the layers' public calls —
/// ingest, sharded diagnosis, clustering — one span each, under one op
/// root per lot. Returns the lot's seconds.
fn traced_lot(
    source: &PreloadedShards,
    lines: &[String],
    first: usize,
    expected: &[Expected],
    trace: &mut Trace,
    op: u64,
    out: &mut Outcome,
) -> f64 {
    let shape = source.shape();
    let start = Instant::now();
    let root = trace.start(OP, op, None);
    let mut aggregator = Aggregator::new();
    let mut reports = Vec::with_capacity(LOT);
    for line in &lines[first..first + LOT] {
        let parsed = trace.time("volume.ingest", op, root, || parse_line(line, &shape));
        let Parsed::Record { observation, .. } = parsed else {
            reports.push(None);
            continue;
        };
        let shards: Vec<(usize, Arc<StoredDictionary>)> = (0..source.shard_count())
            .filter_map(|i| source.fetch(i).ok().map(|d| (source.fault_start(i), d)))
            .collect();
        let refs: Vec<(usize, &StoredDictionary)> =
            shards.iter().map(|(s, d)| (*s, d.as_ref())).collect();
        let shard_observation = match &observation {
            Observation::Signature(s) => ShardObservation::Signature(s),
            Observation::Responses(r) => ShardObservation::Responses(r),
        };
        let report = trace.time("volume.diagnose", op, root, || {
            diagnose_sharded(&refs, shard_observation)
        });
        if let Ok(report) = &report {
            let top = report.best.first().copied().unwrap_or(0);
            let confidence = report.ranking.first().map_or(0.0, |c| c.confidence);
            trace.time("volume.cluster", op, root, || {
                aggregator.add(top, confidence, source.fault_cone(top))
            });
        }
        reports.push(report.ok());
    }
    let clusters = trace.time("volume.cluster", op, root, || {
        aggregator.finish(THRESHOLD, LOT)
    });
    trace.end(root);
    let secs = start.elapsed().as_secs_f64();
    for (offset, report) in reports.iter().enumerate() {
        let expected = &expected[first + offset];
        let ok = report.as_ref().is_some_and(|r| {
            r.best == expected.best
                && r.ranking.first().map_or(0, |c| c.mismatches) == expected.distance
                && sdd_volume::quality_name(r.quality) == expected.quality
        });
        out.check(ok, || {
            format!(
                "traced lot: device {} disagrees with the reference",
                first + offset
            )
        });
    }
    out.check(!clusters.faults.is_empty(), || {
        "traced lot produced no clusters".to_owned()
    });
    secs
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut trace = Trace::new(args.trace, epoch, 0);
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for rep in 0..SETUPS {
        let setup = set_up(args, &mut trace, rep)?;
        setup_secs.push(setup.secs);
        kept = Some(setup);
    }
    let setup = kept.expect("at least one set-up");
    let Setup {
        exp,
        tests,
        built,
        source,
        lines,
        plan,
        ..
    } = &setup;
    let faults = built.matrix.fault_count();

    let mut out = Outcome::default();
    // The reference: each device diagnosed on the whole dictionary.
    let reference = |lines: &[String]| -> Result<Vec<Expected>, String> {
        lines
            .iter()
            .map(|line| fixtures::reference(&built.dictionary, observation_text(line)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference diagnosis: {e}"))
    };
    let expected = reference(lines)?;
    // Clean devices, diagnosed after the window for `resolution`.
    let (quality_lines, quality_plan) = corpus(
        &built.matrix,
        &SynthSpec {
            devices: QUALITY_LOTS * LOT,
            mask_rate: 0.0,
            flip_rate: 0.0,
            seed: args.seed ^ QUALITY_SALT,
            ..SynthSpec::default()
        },
    )?;
    let quality_expected = reference(&quality_lines)?;
    out.shape("faults", faults);
    out.shape("tests", tests.len());
    out.shape("outputs", exp.view().outputs().len());
    out.shape("dictionary_bytes", built.bytes.len());
    out.shape("shards", SHARDS);
    out.shape("devices", lines.len());
    out.shape(
        "corpus_bytes",
        lines.iter().map(|l| l.len() + 1).sum::<usize>(),
    );
    out.shape(
        "observation_bytes",
        lines
            .iter()
            .map(|l| observation_text(l).len())
            .sum::<usize>()
            / lines.len(),
    );
    out.shape(
        "corpus_digest",
        Digest::of(lines.iter().chain(&quality_lines).map(String::as_bytes)),
    );

    let jobs = sdd_sim::available_jobs();
    let lots = lines.len() / LOT;
    let mut default_lots = Vec::new();
    let mut jobs1_lots = Vec::new();
    let mut untraced_replica = Vec::new();
    let mut traced_replica = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    let min_ops = if args.trace { TRACED_PHASES as u64 } else { 1 };
    while op < min_ops || start.elapsed().as_secs_f64() < args.seconds {
        let first = (op as usize % lots) * LOT;
        let phase = if args.trace {
            op as usize % TRACED_PHASES
        } else {
            0
        };
        op += 1;
        match phase {
            0 => default_lots.push(run_lot(
                source, lines, first, &expected, jobs, args.seed, &mut out,
            )),
            1 => jobs1_lots.push(run_lot(
                source, lines, first, &expected, 1, args.seed, &mut out,
            )),
            2 => {
                trace.set_on(false);
                untraced_replica.push(traced_lot(
                    source, lines, first, &expected, &mut trace, op, &mut out,
                ));
                trace.set_on(true);
            }
            _ => traced_replica.push(traced_lot(
                source, lines, first, &expected, &mut trace, op, &mut out,
            )),
        }
    }

    for lot in 0..QUALITY_LOTS {
        run_lot(
            source,
            &quality_lines,
            lot * LOT,
            &quality_expected,
            jobs,
            args.seed,
            &mut out,
        );
    }
    let credit: f64 = quality_plan
        .iter()
        .zip(&quality_expected)
        .map(|(&f, e)| e.credit(f))
        .sum();
    // Hit rate over the load corpus (every record was checked against the
    // reference, whose best sets are therefore the engine's).
    let devices_seen = (op as usize * LOT).min(lines.len());
    let hits = plan[..devices_seen]
        .iter()
        .zip(&expected)
        .filter(|(f, e)| e.best.contains(f))
        .count();
    let lot_secs: f64 = default_lots.iter().sum();
    let m = &mut out.metrics;
    m.put("setup_s", median(&setup_secs), "s");
    m.put("peak_rss_mb", report::peak_rss_mb(None), "MB");
    m.put(
        "ops_per_s",
        (default_lots.len() * LOT) as f64 / lot_secs,
        "1/s",
    );
    m.put("op_p50_ms", median(&default_lots) * 1e3, "ms");
    m.put("resolution", credit / quality_plan.len() as f64, "share");
    m.put(
        "devices_per_s",
        (default_lots.len() * LOT) as f64 / lot_secs,
        "1/s",
    );
    m.put("hit_rate", hits as f64 / devices_seen as f64, "share");
    m.put("lots", default_lots.len() as f64, "count");

    if args.trace {
        let mut probes = Trace::new(true, epoch, 1);
        probes.time("sim.simulate_jobs1", 0, None, || {
            exp.simulate_jobs(tests, 1)
        });
        for (line, expected) in lines.iter().zip(&expected).take(PROBES) {
            let probed = fixtures::probe(&built.dictionary, observation_text(line), &mut probes);
            out.check(probed.as_ref() == Ok(expected), || {
                "in-process probe disagrees with the reference".to_owned()
            });
        }
        out.spans = trace::merge([trace, probes]);
        let stats = trace::summarize(&out.spans);
        let m = &mut out.metrics;
        report::common_layer_metrics(m, &stats, faults);
        m.put("core.p1_calls", built.p1_calls as f64, "count");
        m.put(
            "trace_overhead",
            median(&traced_replica) / median(&untraced_replica),
            "ratio",
        );
        m.put("op.p99_ms", quantile(&default_lots, 0.99) * 1e3, "ms");
        m.put(
            "store.shard_open_s",
            report::span_median(&stats, "store.open"),
            "s",
        );
        let per_device = |name: &str| {
            stats.get(name).map_or(0.0, |s| s.self_secs) * 1e6 / (traced_replica.len() * LOT) as f64
        };
        m.put("volume.ingest_us", per_device("volume.ingest"), "us");
        m.put("volume.diagnose_us", per_device("volume.diagnose"), "us");
        m.put("volume.cluster_us", per_device("volume.cluster"), "us");
        m.put(
            "volume.jobs_efficiency",
            median(&jobs1_lots) / (jobs as f64 * median(&default_lots)),
            "ratio",
        );
        m.put(
            "volume.replica_lot_ms",
            median(&untraced_replica) * 1e3,
            "ms",
        );
        m.put("volume.run_jobs1_lot_ms", median(&jobs1_lots) * 1e3, "ms");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use same_different::Experiment;

    fn c17() -> (Experiment, fixtures::Built) {
        let exp = Experiment::new(same_different::netlist::library::c17());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let built = fixtures::build_dictionary(
            &exp,
            &tests,
            &mut Trace::new(false, Instant::now(), 0),
            0,
            None,
        );
        (exp, built)
    }

    fn spec(seed: u64) -> SynthSpec {
        SynthSpec {
            devices: LOT,
            systematic: vec![(1, 0.1)],
            seed,
            ..SynthSpec::default()
        }
    }

    #[test]
    fn corpus_digest_follows_the_seed() {
        let (_, built) = c17();
        let digest = |seed| {
            let (lines, _) = corpus(&built.matrix, &spec(seed)).unwrap();
            Digest::of(lines.iter().map(String::as_bytes))
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn held_out_seed_passes_every_check_on_a_shard_set() {
        let (exp, built) = c17();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("selftest-volume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("c17.sddm");
        let cones = sdd_sim::OutputCones::compute(exp.circuit(), exp.view());
        let ranges = cones.shard_ranges(exp.universe(), exp.faults(), 2);
        let whole = StoredDictionary::SameDifferent(built.dictionary.clone());
        sdd_store::write_sharded(&manifest, &whole, &ranges, None).unwrap();
        let source = PreloadedShards::open_with(&manifest, MmapMode::Auto).unwrap();
        let (lines, _) = corpus(&built.matrix, &spec(0x00C0_FFEE)).unwrap();
        let expected: Vec<Expected> = lines
            .iter()
            .map(|l| fixtures::reference(&built.dictionary, observation_text(l)).unwrap())
            .collect();
        let mut out = Outcome::default();
        run_lot(&source, &lines, 0, &expected, 2, 1, &mut out);
        traced_lot(
            &source,
            &lines,
            0,
            &expected,
            &mut Trace::new(true, Instant::now(), 0),
            1,
            &mut out,
        );
        assert_eq!(out.attempted, 2 * LOT as u64 + 2);
        assert_eq!(out.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_records_fail() {
        let expected = Expected {
            quality: "ranked",
            distance: 1,
            best: vec![4, 9],
        };
        let good = "{\"line\":1,\"device\":\"dev-000000\",\"status\":\"ok\",\"quality\":\"ranked\",\"known\":9,\"distance\":1,\"nbest\":2,\"best\":[4,9],\"top\":[]}";
        assert!(record_matches(good, "dev-000000", &expected));
        for bad in [
            good.replace("\"best\":[4,9]", "\"best\":[4]"),
            good.replace("\"distance\":1", "\"distance\":2"),
            good.replace("\"nbest\":2", "\"nbest\":3"),
            good.replace("dev-000000", "dev-000001"),
            good.replace("\"ok\"", "\"partial\""),
            String::new(),
        ] {
            assert!(!record_matches(&bad, "dev-000000", &expected), "{bad}");
        }
    }
}
