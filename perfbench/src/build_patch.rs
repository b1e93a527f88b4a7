//! The `build-s5378` workload: full dictionary construction through an
//! atomic `.sddb` commit, then a one-pin rewire ECO patched into the
//! committed artifact — repeated, byte-checked, on one fixed large input.

use std::path::PathBuf;
use std::time::Instant;

use same_different::netlist::{Circuit, Driver};
use same_different::patch::{patch_dictionary, PatchOptions};
use same_different::Experiment;
use sdd_core::SameDifferentDictionary;
use sdd_logic::{BitVec, Prng};
use sdd_sim::ResponseMatrix;
use sdd_store::StoredDictionary;

use crate::fixtures::{self, Expected};
use crate::report::{self, median, quantile, Digest, Outcome};
use crate::trace::{self, Trace, OP};
use crate::Args;

/// The large synthetic: an s5378-shaped circuit (generator seed 1).
pub const CIRCUIT: &str = "s5378";
/// Random test patterns per build.
pub const PATTERNS: usize = 256;
/// Fixed seed of the build's pattern set. Procedure 1's restart count is a
/// property of the test set (21–72 calls over sixteen pattern seeds), so a
/// per-run pattern set would put that spread, not the program's, into
/// `op_p50_ms`; every run builds the same input and `--seed` draws the
/// diagnosed observations instead.
pub const PATTERN_SEED: u64 = 1;
/// Full set-ups per run; `setup_s` is their median. Each takes tens of
/// milliseconds, so several keep the median steady.
const SETUPS: usize = 9;
/// Build cycles per run, at least (each takes several seconds).
const MIN_OPS: usize = 2;
/// Seeded clean injected-fault observations diagnosed against the artifact.
const SAMPLE: usize = 512;

/// The s5378-shaped experiment and its fixed pattern set.
pub fn instance(trace: &mut Trace) -> (Experiment, Vec<BitVec>) {
    let exp = Experiment::iscas89(CIRCUIT, 1).expect("s5378 is a known profile");
    let width = exp.view().inputs().len();
    let tests = trace.time("atpg.tests", 0, None, || {
        sdd_atpg::random_patterns(width, PATTERNS, &mut Prng::seed_from_u64(PATTERN_SEED))
    });
    (exp, tests)
}

/// Finds a patch-compatible rewire ECO: a gate pin fed by a fan-out-≥3 net,
/// rewired to a different fan-out-≥2 input/flip-flop net, on the gate with
/// the smallest output cone (the same choice `build_bench` makes).
pub fn find_rewire(exp: &Experiment) -> Option<Circuit> {
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

/// Clean observations of `SAMPLE` seeded faults, simulated on the original
/// circuit.
fn sample(exp: &Experiment, tests: &[BitVec], seed: u64) -> Vec<(usize, String)> {
    let faults = fixtures::draw_faults(seed, exp.faults().len(), SAMPLE);
    let ids: Vec<_> = faults.iter().map(|&f| exp.faults()[f]).collect();
    let matrix = ResponseMatrix::simulate_jobs(
        exp.circuit(),
        exp.view(),
        exp.universe(),
        &ids,
        tests,
        sdd_sim::available_jobs(),
    );
    faults
        .iter()
        .enumerate()
        .map(|(column, &fault)| (fault, fixtures::observation(&matrix, column, None)))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut trace = Trace::new(args.trace, epoch, 0);
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (exp, tests) = instance(&mut trace);
        let eco = find_rewire(&exp).ok_or("no patch-compatible rewire in the s5378 circuit")?;
        setup_secs.push(start.elapsed().as_secs_f64());
        kept = Some((exp, tests, eco));
    }
    let (exp, tests, eco) = kept.expect("at least one set-up");
    let jobs = sdd_sim::available_jobs();

    let mut out = Outcome::default();
    let observations = sample(&exp, &tests, args.seed);
    // The patch must equal a rebuild under the patched baselines: the
    // rewired circuit's responses, simulated once.
    let eco_matrix = Experiment::new(eco.clone()).simulate_jobs(&tests, jobs);

    let path: PathBuf = args.work.join("build.sddb");
    let patch_options = PatchOptions {
        jobs,
        ..PatchOptions::default()
    };
    let mut first_bytes: Option<Vec<u8>> = None;
    let mut builds = Vec::new();
    let mut patches = Vec::new();
    let mut untraced_cycles = Vec::new();
    let mut traced_cycles = Vec::new();
    let mut last_report = None;
    let mut pairs = 0;
    let mut calls = 0;
    let start = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS as u64 || start.elapsed().as_secs_f64() < args.seconds {
        op += 1;
        // Traced runs alternate untraced and traced cycles.
        let traced = args.trace && op.is_multiple_of(2);
        trace.set_on(traced);
        let cycle = Instant::now();
        let root = trace.start(OP, op, None);
        let built = fixtures::build_dictionary(&exp, &tests, &mut trace, op, root);
        trace
            .time("store.commit", op, root, || {
                sdd_store::atomic_write(&path, &built.bytes)
            })
            .map_err(|e| format!("commit: {e}"))?;
        let build_s = cycle.elapsed().as_secs_f64();
        let patch_start = Instant::now();
        let report = trace.time("patch.apply", op, root, || {
            patch_dictionary(exp.circuit(), &eco, &tests, &path, &patch_options)
        });
        let patch_s = patch_start.elapsed().as_secs_f64();
        trace.end(root);
        let cycle_s = cycle.elapsed().as_secs_f64();
        trace.set_on(args.trace);

        builds.push(build_s);
        patches.push(patch_s);
        if traced {
            traced_cycles.push(cycle_s);
        } else {
            untraced_cycles.push(cycle_s);
        }
        pairs = built.pairs;
        calls = built.p1_calls;

        // Every cycle commits the same bytes.
        match &first_bytes {
            None => first_bytes = Some(built.bytes.clone()),
            Some(first) => out.check(*first == built.bytes, || {
                format!("cycle {op} committed different .sddb bytes")
            }),
        }
        // The patched artifact equals a rebuild under its own baselines.
        let patched = std::fs::read(&path).map_err(|e| format!("read patched artifact: {e}"))?;
        let identical = report.is_ok()
            && sdd_store::read_same_different_auto(&patched).is_ok_and(|d| {
                let target = SameDifferentDictionary::build(&eco_matrix, d.baseline_classes());
                let target = sdd_store::encode(&StoredDictionary::SameDifferent(target));
                match (sdd_store::strip_patch_provenance(&patched), target) {
                    (Ok(a), Ok(b)) => sdd_store::strip_patch_provenance(&b).is_ok_and(|b| a == b),
                    _ => false,
                }
            });
        out.check(identical, || {
            format!("cycle {op}: patched artifact differs from the rebuild ({report:?})")
        });
        if op == 1 {
            diagnose_sample(&built, &observations, &args.work, &mut out, &mut trace)?;
        }
        last_report = report.ok();
    }

    let report = last_report.ok_or("the patch never succeeded")?;
    let cycles: Vec<f64> = untraced_cycles.clone();
    out.shape("faults", exp.faults().len());
    out.shape("tests", tests.len());
    out.shape("outputs", exp.view().outputs().len());
    out.shape("dictionary_bytes", first_bytes.as_ref().map_or(0, Vec::len));
    out.shape(
        "observation_bytes",
        observations.iter().map(|(_, t)| t.len()).sum::<usize>() / observations.len(),
    );
    out.shape("tests_digest", fixtures::tests_digest(&tests));
    out.shape(
        "observations_digest",
        Digest::of(observations.iter().map(|(_, t)| t.as_bytes())),
    );

    let m = &mut out.metrics;
    m.put("setup_s", median(&setup_secs), "s");
    m.put("peak_rss_mb", report::peak_rss_mb(None), "MB");
    m.put(
        "ops_per_s",
        cycles.len() as f64 / cycles.iter().sum::<f64>(),
        "1/s",
    );
    m.put("op_p50_ms", median(&cycles) * 1e3, "ms");
    m.put("build_s", median(&builds), "s");
    m.put("patch_s", median(&patches), "s");
    m.put("cycles", (builds.len()) as f64, "count");
    m.put("indistinguished_pairs", pairs as f64, "count");
    m.put(
        "artifact_bytes",
        first_bytes.as_ref().map_or(0, Vec::len) as f64,
        "bytes",
    );
    m.put(
        "patch.dirty_fault_share",
        report.dirty_faults as f64 / report.total_faults as f64,
        "share",
    );
    m.put(
        "patch.touched_test_share",
        report.touched_tests as f64 / report.total_tests as f64,
        "share",
    );
    m.put(
        "patch.refresh_passes",
        report.refresh_passes as f64,
        "count",
    );
    m.put(
        "patch.bits_flipped",
        report.stats.bits_flipped as f64,
        "count",
    );

    if args.trace {
        let mut probes = Trace::new(true, epoch, 1);
        probes.time("sim.simulate_jobs1", 0, None, || {
            exp.simulate_jobs(&tests, 1)
        });
        probes
            .time("sim.eco_delta", 0, None, || {
                sdd_sim::eco::EcoDelta::compute(exp.circuit(), &eco, exp.universe(), exp.faults())
            })
            .map_err(|e| format!("EcoDelta::compute: {e}"))?;
        out.spans = trace::merge([trace, probes]);
        let stats = trace::summarize(&out.spans);
        let m = &mut out.metrics;
        report::common_layer_metrics(m, &stats, exp.faults().len());
        m.put("core.p1_calls", calls as f64, "count");
        m.put(
            "trace_overhead",
            median(&traced_cycles) / median(&untraced_cycles),
            "ratio",
        );
        m.put("op.p99_ms", quantile(&untraced_cycles, 0.99) * 1e3, "ms");
        m.put(
            "sim.eco_delta_s",
            report::span_median(&stats, "sim.eco_delta"),
            "s",
        );
        m.put(
            "patch.apply_s",
            report::span_median(&stats, "patch.apply"),
            "s",
        );
    }
    Ok(out)
}

/// Re-opens the committed artifact and diagnoses the seeded sample against
/// it: `resolution` and `hit_rate` of what this build produced, plus the
/// parse/encode/score probes.
fn diagnose_sample(
    built: &fixtures::Built,
    observations: &[(usize, String)],
    work: &std::path::Path,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Result<(), String> {
    let copy = work.join("reopen.sddb");
    sdd_store::atomic_write(&copy, &built.bytes).map_err(|e| format!("write copy: {e}"))?;
    let opened = trace.time("store.open", 0, None, || {
        sdd_store::load_same_different(&copy)
    });
    let dictionary = opened.map_err(|e| format!("re-open committed artifact: {e}"))?;
    out.check(
        dictionary.signatures() == built.dictionary.signatures(),
        || "re-opened artifact differs from the built dictionary".to_owned(),
    );
    let mut credit = 0.0;
    let mut hits = 0usize;
    for (fault, text) in observations {
        let expected: Result<Expected, _> = fixtures::reference(&built.dictionary, text);
        let probed = fixtures::probe(&dictionary, text, trace);
        out.check(
            expected.is_ok() && probed.as_ref().ok() == expected.as_ref().ok(),
            || format!("diagnosis of injected fault {fault} disagrees with the reference"),
        );
        if let Ok(e) = probed {
            credit += e.credit(*fault);
            hits += usize::from(e.best.contains(fault));
        }
    }
    let n = observations.len().max(1) as f64;
    out.metrics.put("resolution", credit / n, "share");
    out.metrics.put("hit_rate", hits as f64 / n, "share");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_set_is_fixed_and_sample_follows_the_seed() {
        let off = || Trace::new(false, Instant::now(), 0);
        let (exp, tests) = instance(&mut off());
        let (_, again) = instance(&mut off());
        assert_eq!(
            fixtures::tests_digest(&tests),
            fixtures::tests_digest(&again)
        );
        assert_eq!((exp.faults().len(), tests.len()), (8184, PATTERNS));
        let digest = |seed| {
            let sample = sample(&exp, &tests, seed);
            Digest::of(sample.iter().map(|(_, t)| t.as_bytes()))
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn the_rewire_is_patchable() {
        let (exp, _) = instance(&mut Trace::new(false, Instant::now(), 0));
        let eco = find_rewire(&exp).expect("a rewire exists");
        let delta =
            sdd_sim::eco::EcoDelta::compute(exp.circuit(), &eco, exp.universe(), exp.faults())
                .expect("patch-compatible");
        assert!(!delta.is_empty());
    }
}
