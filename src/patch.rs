//! Incremental (ECO) dictionary patching: `sdd patch`'s engine.
//!
//! Given a built same/different artifact, the netlist it was built from,
//! and a *modified* netlist, this module re-simulates only what the edit
//! can have changed and patches the artifact in place, producing files
//! **bit-identical** (modulo the patch-generation provenance counter) to a
//! from-scratch rebuild of the modified netlist that keeps the same
//! baseline policy. The pipeline:
//!
//! 1. **Cone delta** ([`sdd_sim::EcoDelta`]): which outputs and faults the
//!    changed drivers can reach, consulting both circuits' cones.
//! 2. **Phase 1** — simulate the *dirty faults* under **all** tests on both
//!    the old and the new circuit. The old run cross-checks the artifact
//!    (a stale or mismatched dictionary is a typed error, not a silent
//!    corruption); comparing the two runs finds the *touched tests*, the
//!    tests where any dirty fault's diff set or the fault-free response
//!    changed.
//! 3. **Phase 2** — simulate **all** faults under only the touched tests
//!    on the new circuit. Response-class interning is per test, so these
//!    columns are exactly the columns a full rebuild would produce.
//! 4. **Baseline refresh** — touched tests get a [`Budget`]-bounded
//!    Procedure 2 pass ([`sdd_core::refresh_baselines_budgeted`]) whose
//!    replacement decisions are evaluated against the *full* dictionary:
//!    untouched tests contribute their (invariant) signature columns as a
//!    fixed partition. Untouched baselines are never moved — skipping the
//!    fresh Procedure 1 restarts is the documented policy that makes
//!    patching cheap, and the refresh can only improve on the inherited
//!    baselines.
//! 5. **Column patch** ([`sdd_store::patch_artifact`]): the touched
//!    columns are written through the store's row index — whole files
//!    atomically, sharded sets shard-by-shard with the manifest committed
//!    last.
//!
//! Why this is exact: an output is *dirty* when a changed net's cone (old
//! or new) contains it; a clean output computes the same function before
//! and after, so every fault's value there is unchanged. A fault is
//! *dirty* when its cone meets a dirty output; a clean fault's diff set
//! (faulty vs fault-free positions) is therefore invariant under every
//! test, which means per-test response partitions can only change through
//! dirty faults — and those are exactly what Phase 1 watches.

use std::path::Path;

use sdd_core::{refresh_baselines_budgeted, Budget, SameDifferentDictionary};
use sdd_logic::{BitVec, SddError};
use sdd_netlist::{Circuit, NetId};
use sdd_sim::{EcoDelta, Partition, ResponseMatrix};
use sdd_store::{
    DictionaryKind, MmapMode, PatchStats, SdColumnPatch, ShardedReader, StoredDictionary,
};

use crate::Experiment;

/// Tuning knobs for [`patch_dictionary`].
#[derive(Debug, Clone)]
pub struct PatchOptions {
    /// Worker threads for the two simulation phases (output is identical
    /// for every value).
    pub jobs: usize,
    /// Budget for the touched-test baseline refresh (Procedure 2 passes).
    /// An exhausted budget keeps the best baselines found so far — the
    /// patch is correct either way, the budget only trades diagnostic
    /// resolution for time.
    pub budget: Budget,
}

impl Default for PatchOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            budget: Budget::unlimited(),
        }
    }
}

/// What [`patch_dictionary`] did, for reporting and benchmarks.
#[derive(Debug, Clone)]
pub struct PatchReport {
    /// Nets whose drivers the ECO changed.
    pub changed_nets: Vec<NetId>,
    /// View outputs the change can reach.
    pub dirty_outputs: usize,
    /// Collapsed faults whose signatures may have changed.
    pub dirty_faults: usize,
    /// Total collapsed faults.
    pub total_faults: usize,
    /// Tests whose dictionary column actually changed.
    pub touched_tests: usize,
    /// Total tests.
    pub total_tests: usize,
    /// Indistinguished fault pairs of the patched dictionary (`None` when
    /// no test was touched — the artifact's resolution is unchanged).
    pub indistinguished_pairs: Option<u64>,
    /// Baseline-refresh passes run, and whether the refresh converged
    /// before the budget ran out.
    pub refresh_passes: usize,
    /// `false` when the budget stopped the refresh mid-improvement.
    pub refresh_completed: bool,
    /// What the store layer rewrote.
    pub stats: PatchStats,
}

/// Reads the same/different dictionary out of a binary artifact — a whole
/// `.sddb` or a sharded `.sddm` set reassembled in global fault order.
fn load_artifact(path: &Path) -> Result<SameDifferentDictionary, SddError> {
    let bytes = sdd_store::read_dictionary_bytes(path, MmapMode::Off)?;
    if !sdd_store::is_manifest(&bytes) {
        return sdd_store::read_same_different_auto(&bytes);
    }
    let reader = ShardedReader::open(path)?;
    let manifest = reader.manifest();
    if manifest.kind != DictionaryKind::SameDifferent {
        return Err(SddError::invalid(format!(
            "expected a same-different dictionary, found a {} manifest",
            manifest.kind.name()
        )));
    }
    let mut signatures = Vec::with_capacity(manifest.faults);
    let mut baselines = Vec::new();
    let mut classes = Vec::new();
    for index in 0..reader.shard_count() {
        let StoredDictionary::SameDifferent(shard) = reader.load_shard(index)? else {
            return Err(SddError::invalid(format!(
                "shard {index}: kind disagrees with the manifest"
            )));
        };
        if index == 0 {
            baselines = (0..shard.test_count())
                .map(|t| shard.baseline(t).clone())
                .collect();
            classes = shard.baseline_classes().to_vec();
        }
        for fault in 0..shard.fault_count() {
            signatures.push(shard.signature(fault));
        }
    }
    SameDifferentDictionary::from_parts(signatures, baselines, classes, manifest.outputs)
}

/// Checks the preconditions that make patching (rather than rebuilding)
/// sound: the two circuits enumerate and collapse to the *identical* fault
/// list, so fault indices in the artifact keep their meaning.
fn check_fault_lists(old: &Experiment, new: &Experiment) -> Result<(), SddError> {
    if old.universe().faults() != new.universe().faults() {
        return Err(SddError::invalid(
            "ECO changed the fault universe (gate fanins differ): fault indices \
             would shift — not patchable, rebuild the dictionary",
        ));
    }
    if old.faults() != new.faults() {
        return Err(SddError::invalid(
            "ECO changed fault collapsing: fault indices would shift — \
             not patchable, rebuild the dictionary",
        ));
    }
    Ok(())
}

/// Patches the same/different artifact at `artifact` — built from `old`
/// over `tests` — so it describes `new` instead, re-simulating only the
/// cone-affected region. See the module docs for the algorithm and the
/// exactness argument.
///
/// # Errors
///
/// [`SddError::Invalid`] when the circuits are not patch-compatible (net
/// interface, fault universe, or collapsing changed — rebuild instead),
/// when the artifact's dimensions disagree with the circuit and test set,
/// or when the artifact's stored signatures disagree with an old-circuit
/// re-simulation of the dirty faults (a stale or foreign dictionary).
/// Store and I/O errors pass through typed.
pub fn patch_dictionary(
    old: &Circuit,
    new: &Circuit,
    tests: &[BitVec],
    artifact: impl AsRef<Path>,
    options: &PatchOptions,
) -> Result<PatchReport, SddError> {
    let artifact = artifact.as_ref();
    let old_exp = Experiment::new(old.clone());
    let new_exp = Experiment::new(new.clone());
    // `EcoDelta::compute` validates the net interface; these validate the
    // fault side of the contract.
    let delta = EcoDelta::compute(old, new, old_exp.universe(), old_exp.faults())?;
    check_fault_lists(&old_exp, &new_exp)?;
    let faults = old_exp.faults();
    let (n, k, m) = (faults.len(), tests.len(), old_exp.view().outputs().len());

    let dictionary = load_artifact(artifact)?;
    if dictionary.fault_count() != n {
        return Err(SddError::CountMismatch {
            context: "artifact fault count",
            expected: n,
            actual: dictionary.fault_count(),
        });
    }
    if dictionary.test_count() != k {
        return Err(SddError::CountMismatch {
            context: "artifact test count",
            expected: k,
            actual: dictionary.test_count(),
        });
    }
    if dictionary.sizes().outputs as usize != m {
        return Err(SddError::CountMismatch {
            context: "artifact output count",
            expected: m,
            actual: dictionary.sizes().outputs as usize,
        });
    }

    let mut report = PatchReport {
        changed_nets: delta.changed_nets().to_vec(),
        dirty_outputs: delta.dirty_outputs().count_ones(),
        dirty_faults: delta.dirty_faults().len(),
        total_faults: n,
        touched_tests: 0,
        total_tests: k,
        indistinguished_pairs: None,
        refresh_passes: 0,
        refresh_completed: true,
        stats: PatchStats::default(),
    };
    if report.changed_nets.is_empty() {
        return Ok(report);
    }

    // Phase 1: dirty faults × all tests, both circuits. (Runs even when
    // the dirty fault set is empty: the fault-free responses alone decide
    // whether baseline vectors moved.)
    let dirty_ids: Vec<_> = delta.dirty_faults().iter().map(|&p| faults[p]).collect();
    let old_dirty = ResponseMatrix::simulate_jobs(
        old,
        old_exp.view(),
        old_exp.universe(),
        &dirty_ids,
        tests,
        options.jobs,
    );
    let new_dirty = ResponseMatrix::simulate_jobs(
        new,
        new_exp.view(),
        new_exp.universe(),
        &dirty_ids,
        tests,
        options.jobs,
    );

    // Cross-check the artifact against the old circuit where they must
    // agree: a dirty fault's stored signature bit says whether its old
    // response differs from the stored baseline vector.
    for test in 0..k {
        let baseline = dictionary.baseline(test);
        // Memoized per response class: whole classes share the verdict.
        let mut differs: Vec<Option<bool>> = vec![None; old_dirty.class_count(test)];
        for (local, &global) in delta.dirty_faults().iter().enumerate() {
            let class = old_dirty.class(test, local);
            let differs = *differs[class as usize]
                .get_or_insert_with(|| old_dirty.response(test, class) != *baseline);
            let stored = dictionary.signatures().bit(global, test);
            if stored != differs {
                return Err(SddError::invalid(format!(
                    "artifact disagrees with the old netlist at test {test}, fault {global}: \
                     it was not built from this circuit and test set — rebuild instead",
                )));
            }
        }
    }

    // A test is touched when the new circuit changes its fault-free
    // response or any dirty fault's diff set — equivalently, when any
    // response vector the dictionary column depends on moved.
    let touched: Vec<usize> = (0..k)
        .filter(|&t| {
            old_dirty.good_response(t) != new_dirty.good_response(t)
                || (0..dirty_ids.len()).any(|p| {
                    old_dirty.class_diffs(t, old_dirty.class(t, p))
                        != new_dirty.class_diffs(t, new_dirty.class(t, p))
                })
        })
        .collect();
    report.touched_tests = touched.len();
    if touched.is_empty() {
        return Ok(report);
    }

    // Phase 2: all faults × touched tests on the new circuit. Interning is
    // per test, so these are exactly the rebuilt dictionary's columns.
    let touched_patterns: Vec<BitVec> = touched.iter().map(|&t| tests[t].clone()).collect();
    let matrix = ResponseMatrix::simulate_jobs(
        new,
        new_exp.view(),
        new_exp.universe(),
        faults,
        &touched_patterns,
        options.jobs,
    );

    // Inherited baselines: the class whose new response equals the stored
    // baseline vector, falling back to the fault-free class when the ECO
    // removed that response entirely.
    let mut baselines: Vec<u32> = touched
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let stored = dictionary.baseline(t);
            (0..matrix.class_count(j) as u32)
                .find(|&c| matrix.response(j, c) == *stored)
                .unwrap_or(0)
        })
        .collect();

    // Untouched columns are invariant, so their stored signature bits are
    // the fixed partition the refresh's decisions are evaluated against.
    let mut fixed = Partition::unit(n);
    let touched_set: Vec<bool> = {
        let mut set = vec![false; k];
        for &t in &touched {
            set[t] = true;
        }
        set
    };
    for test in (0..k).filter(|&t| !touched_set[t]) {
        fixed.refine_bits(|fault| dictionary.signatures().bit(fault, test));
    }
    let outcome = refresh_baselines_budgeted(&matrix, &fixed, &mut baselines, &options.budget);
    report.indistinguished_pairs = Some(outcome.indistinguished_pairs);
    report.refresh_passes = outcome.passes;
    report.refresh_completed = outcome.completed;

    let patches: Vec<SdColumnPatch> = touched
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let baseline_class = baselines[j];
            let mut column = BitVec::zeros(n);
            for (fault, &class) in matrix.classes(j).iter().enumerate() {
                column.set(fault, class != baseline_class);
            }
            SdColumnPatch {
                test: t,
                baseline_class,
                baseline: matrix.response(j, baseline_class),
                column,
            }
        })
        .collect();
    report.stats = sdd_store::patch_artifact(artifact, &patches)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::{library, Driver, GateKind};

    fn rewire(circuit: &Circuit, gate: &str, pin: usize, source: &str) -> Circuit {
        let gate = circuit.net(gate).unwrap();
        let mut inputs = circuit.driver(gate).fanin().to_vec();
        inputs[pin] = circuit.net(source).unwrap();
        let kind = match circuit.driver(gate) {
            Driver::Gate { kind, .. } => *kind,
            _ => panic!("not a gate"),
        };
        circuit
            .with_driver(gate, Driver::Gate { kind, inputs })
            .unwrap()
    }

    /// A patch-compatible ECO on c17: swap which of N11/N16 feeds N19 and
    /// N23. Both nets keep fan-out 2, so the branch-fault universe and the
    /// structural collapsing are unchanged while the function moves.
    fn rewired_c17(old: &Circuit) -> Circuit {
        rewire(&rewire(old, "N19", 0, "N16"), "N23", 0, "N11")
    }

    /// End-to-end on c17: patching the artifact of the old circuit yields
    /// byte-for-byte the encoding of a dictionary rebuilt from the new
    /// matrix with the same baseline policy (modulo provenance).
    #[test]
    fn patched_c17_equals_the_rebuilt_dictionary() {
        let old = library::c17();
        let new = rewired_c17(&old);
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let matrix = exp.simulate(&tests);
        let mut selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 3,
                ..Default::default()
            },
        );
        sdd_core::replace_baselines(&matrix, &mut selection.baselines);
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);

        let dir = std::env::temp_dir().join(format!("sdd-patch-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();

        let report = patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap();
        assert!(report.touched_tests > 0);
        assert!(report.stats.changed());

        // Rebuild target: new matrix, untouched baselines inherited (as
        // class labels, valid because untouched columns are invariant),
        // touched baselines as the patch refreshed them.
        let new_matrix = Experiment::new(new.clone()).simulate(&tests);
        let patched = load_artifact(&path).unwrap();
        let rebuilt = SameDifferentDictionary::build(&new_matrix, patched.baseline_classes());
        assert_eq!(patched, rebuilt);
        assert_eq!(
            report.indistinguished_pairs,
            Some(rebuilt.indistinguished_pairs())
        );
        let patched_bytes = std::fs::read(&path).unwrap();
        let rebuilt_bytes = sdd_store::encode(&StoredDictionary::SameDifferent(rebuilt)).unwrap();
        assert_eq!(
            sdd_store::strip_patch_provenance(&patched_bytes).unwrap(),
            sdd_store::strip_patch_provenance(&rebuilt_bytes).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_circuits_patch_to_a_no_op() {
        let old = library::c17();
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let matrix = exp.simulate(&tests);
        let selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 2,
                ..Default::default()
            },
        );
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
        let dir = std::env::temp_dir().join(format!("sdd-patch-noop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let report = patch_dictionary(&old, &old, &tests, &path, &PatchOptions::default()).unwrap();
        assert!(report.changed_nets.is_empty());
        assert_eq!(report.touched_tests, 0);
        assert!(!report.stats.changed());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_artifact_is_a_typed_error() {
        let old = library::c17();
        let new = rewired_c17(&old);
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        // Build the artifact from the NEW circuit, then claim it describes
        // the old one: the old-circuit cross-check must reject it.
        let matrix = Experiment::new(new.clone()).simulate(&tests);
        let selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 2,
                ..Default::default()
            },
        );
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
        let dir = std::env::temp_dir().join(format!("sdd-patch-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();
        let err =
            patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fanin_changing_eco_demands_a_rebuild() {
        let old = library::c17();
        // Drop one fanin of N22: the branch-fault universe changes shape.
        let net = old.net("N22").unwrap();
        let inputs = old.driver(net).fanin().to_vec();
        let new = old
            .with_driver(
                net,
                Driver::Gate {
                    kind: GateKind::Not,
                    inputs: inputs[..1].to_vec(),
                },
            )
            .unwrap();
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let err = patch_dictionary(&old, &new, &tests, "unused.sddb", &PatchOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
    }
}
