//! Response-class matrices: the distilled fault-simulation result that
//! fault dictionaries are built from.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, LANES};
use sdd_netlist::{Circuit, CombView, NetId};

use crate::Engine;

/// For every test and every fault, *which* output vector the faulty circuit
/// produces — encoded as a small per-test class label rather than the vector
/// itself.
///
/// Class `0` is always the fault-free response `z_ff,j`; faults sharing a
/// class under a test produce identical output vectors there. The paper's
/// candidate set `Z_j` is exactly the set of classes of test `j`, and every
/// dictionary question (pass/fail bits, same/different bits with any
/// baseline, full-dictionary resolution) reduces to label comparisons.
///
/// # Example
///
/// ```
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
/// use sdd_sim::ResponseMatrix;
/// use sdd_logic::BitVec;
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let collapsed = universe.collapse_on(&c17);
/// let tests: Vec<BitVec> = vec!["10111".parse()?, "01101".parse()?];
/// let m = ResponseMatrix::simulate(&c17, &view, &universe, collapsed.representatives(), &tests);
/// // The response of class 0 is the fault-free response:
/// assert_eq!(m.response(0, 0), *m.good_response(0));
/// # Ok::<(), sdd_logic::ParseBitVecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMatrix {
    fault_count: usize,
    output_count: usize,
    /// Row-major `class[test * fault_count + fault]`.
    class: Vec<u32>,
    /// Per test: class id → sorted list of flipped output positions
    /// (class 0 = empty).
    distinct: Vec<Vec<Vec<u32>>>,
    good: Vec<BitVec>,
}

impl ResponseMatrix {
    /// Fault-simulates `faults` (given as ids into `universe`) against
    /// `tests` and builds the class matrix: [`simulate_jobs`](Self::simulate_jobs)
    /// with one worker.
    ///
    /// # Panics
    ///
    /// Panics if any test's width differs from the view's input count.
    pub fn simulate(
        circuit: &Circuit,
        view: &CombView,
        universe: &FaultUniverse,
        faults: &[FaultId],
        tests: &[BitVec],
    ) -> Self {
        Self::simulate_jobs(circuit, view, universe, faults, tests, 1)
    }

    /// Fault-simulates `faults` against `tests` with up to `jobs` worker
    /// threads, one per [`LANES`]-test pattern block at a time.
    ///
    /// Class labels are interned per test, so a block's rows are final as
    /// soon as the block is simulated. Each worker owns one [`Engine`],
    /// pulls the next block index from a shared counter, and simulates every
    /// fault against it, so each fanout-free region's stem is propagated once
    /// per block. The blocks are then concatenated in block order: the result
    /// is identical (`==`, and byte-identical once stored) for any `jobs`.
    /// At most one worker per block runs, so a test set of one block is
    /// simulated serially whatever `jobs` is.
    ///
    /// # Panics
    ///
    /// Panics if any test's width differs from the view's input count.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_fault::FaultUniverse;
    /// use sdd_netlist::{library, CombView};
    /// use sdd_sim::ResponseMatrix;
    /// use sdd_logic::BitVec;
    ///
    /// let c17 = library::c17();
    /// let view = CombView::new(&c17);
    /// let universe = FaultUniverse::enumerate(&c17);
    /// let collapsed = universe.collapse_on(&c17);
    /// let tests: Vec<BitVec> = vec!["10111".parse()?, "01101".parse()?];
    /// let serial = ResponseMatrix::simulate(&c17, &view, &universe, collapsed.representatives(), &tests);
    /// let parallel = ResponseMatrix::simulate_jobs(&c17, &view, &universe, collapsed.representatives(), &tests, 4);
    /// assert_eq!(serial, parallel);
    /// # Ok::<(), sdd_logic::ParseBitVecError>(())
    /// ```
    pub fn simulate_jobs(
        circuit: &Circuit,
        view: &CombView,
        universe: &FaultUniverse,
        faults: &[FaultId],
        tests: &[BitVec],
        jobs: usize,
    ) -> Self {
        let blocks: Vec<&[BitVec]> = tests.chunks(LANES).collect();
        let next = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Self)>> = Mutex::new(Vec::with_capacity(blocks.len()));
        let work = || {
            let mut engine = Engine::new(circuit, view);
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(block) = blocks.get(index) else {
                    break;
                };
                let part = Self::simulate_block(&mut engine, view, universe, faults, block);
                parts.lock().expect("block result lock").push((index, part));
            }
        };
        let workers = jobs.min(blocks.len());
        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }

        let mut parts = parts.into_inner().expect("block result lock");
        parts.sort_unstable_by_key(|&(index, _)| index);
        let mut matrix = Self {
            fault_count: faults.len(),
            output_count: view.outputs().len(),
            class: Vec::with_capacity(tests.len() * faults.len()),
            distinct: Vec::with_capacity(tests.len()),
            good: Vec::with_capacity(tests.len()),
        };
        for (_, part) in parts {
            matrix.class.extend(part.class);
            matrix.distinct.extend(part.distinct);
            matrix.good.extend(part.good);
        }
        matrix
    }

    /// The matrix of one pattern block (at most [`LANES`] tests).
    ///
    /// A fault that reaches its fanout-free region's root in a lane produces
    /// the root's stem-flip output vector there, so each `(root, lane)` is
    /// interned once, when the first fault (in fault order) reaches it — the
    /// label the per-fault scan would assign.
    fn simulate_block(
        engine: &mut Engine<'_>,
        view: &CombView,
        universe: &FaultUniverse,
        faults: &[FaultId],
        tests: &[BitVec],
    ) -> Self {
        let fault_count = faults.len();
        let mut class = vec![0u32; tests.len() * fault_count];
        let mut distinct: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new()]; tests.len()];
        let mut interner: Vec<HashMap<Vec<u32>, u32>> = vec![HashMap::new(); tests.len()];
        // Per root: its stem flip's class label in each lane, 0 until
        // interned (a detected lane is never class 0).
        let mut root_labels: HashMap<NetId, [u32; LANES]> = HashMap::new();
        let mut diffs: Vec<u32> = Vec::new();

        engine.load_block(&PatternBlock::from_patterns(view.inputs().len(), tests));
        let good = (0..tests.len())
            .map(|lane| engine.good_response(lane))
            .collect();
        for (fault_pos, &fault_id) in faults.iter().enumerate() {
            let (root, reach) = engine.root_difference(universe.fault(fault_id));
            if reach == 0 {
                continue;
            }
            let stem = engine.stem_flip(root);
            let labels = root_labels.entry(root).or_insert([0; LANES]);
            let lanes = stem.detect & reach;
            for lane in (0..tests.len()).filter(|&lane| lanes >> lane & 1 == 1) {
                if labels[lane] == 0 {
                    diffs.clear();
                    diffs.extend(
                        stem.output_diffs
                            .iter()
                            .filter(|&&(_, word)| word >> lane & 1 == 1)
                            .map(|&(pos, _)| pos),
                    );
                    labels[lane] = intern(&mut interner[lane], &mut distinct[lane], &diffs);
                }
                class[lane * fault_count + fault_pos] = labels[lane];
            }
        }

        Self {
            fault_count,
            output_count: view.outputs().len(),
            class,
            distinct,
            good,
        }
    }

    /// Builds a matrix from explicit responses instead of simulation: one
    /// fault-free response and one faulty response per fault, for each test.
    /// Useful for worked examples and tests.
    ///
    /// Class labels follow the same convention as simulation: class 0 is the
    /// fault-free response, further classes in first-occurrence order
    /// scanning faults in index order.
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent or response widths differ.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_logic::BitVec;
    /// use sdd_sim::ResponseMatrix;
    ///
    /// let bv = |s: &str| s.parse::<BitVec>().unwrap();
    /// // One test, fault-free response 00; two faults responding 00 and 10.
    /// let m = ResponseMatrix::from_responses(
    ///     vec![bv("00")],
    ///     &[vec![bv("00"), bv("10")]],
    /// );
    /// assert!(!m.detects(0, 0));
    /// assert!(m.detects(0, 1));
    /// ```
    pub fn from_responses(good: Vec<BitVec>, responses: &[Vec<BitVec>]) -> Self {
        assert_eq!(good.len(), responses.len(), "one response row per test");
        let fault_count = responses.first().map_or(0, Vec::len);
        let output_count = good.first().map_or(0, BitVec::len);
        let mut class = vec![0u32; good.len() * fault_count];
        let mut distinct: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new()]; good.len()];
        for (test, row) in responses.iter().enumerate() {
            assert_eq!(row.len(), fault_count, "ragged fault row in test {test}");
            let mut interner: HashMap<Vec<u32>, u32> = HashMap::new();
            for (fault, response) in row.iter().enumerate() {
                assert_eq!(response.len(), output_count, "response width mismatch");
                let diff: Vec<u32> = (0..output_count)
                    .filter(|&o| response.bit(o) != good[test].bit(o))
                    .map(|o| o as u32)
                    .collect();
                if !diff.is_empty() {
                    class[test * fault_count + fault] =
                        intern(&mut interner, &mut distinct[test], &diff);
                }
            }
        }
        Self {
            fault_count,
            output_count,
            class,
            distinct,
            good,
        }
    }

    /// Reassembles a matrix from its stored parts — the exact inverse of
    /// the accessors, used by the binary dictionary store (`sdd-store`) so a
    /// deserialized full dictionary is structurally identical to the
    /// simulated one (same class labels, same distinct-vector tables).
    ///
    /// # Errors
    ///
    /// Returns [`SddError`](sdd_logic::SddError) when the parts are
    /// inconsistent: ragged class rows, class labels out of range, response
    /// widths exceeding `output_count`, a non-empty class-0 diff list, or a
    /// diff list that is not strictly increasing (a repeated position would
    /// toggle an output back).
    pub fn from_class_parts(
        good: Vec<BitVec>,
        fault_count: usize,
        output_count: usize,
        class: Vec<u32>,
        distinct: Vec<Vec<Vec<u32>>>,
    ) -> Result<Self, sdd_logic::SddError> {
        use sdd_logic::SddError;
        if class.len() != good.len() * fault_count {
            return Err(SddError::CountMismatch {
                context: "response class matrix entries",
                expected: good.len() * fault_count,
                actual: class.len(),
            });
        }
        if distinct.len() != good.len() {
            return Err(SddError::CountMismatch {
                context: "distinct-vector tables per test",
                expected: good.len(),
                actual: distinct.len(),
            });
        }
        for (test, g) in good.iter().enumerate() {
            if g.len() != output_count {
                return Err(SddError::WidthMismatch {
                    context: "fault-free response width",
                    expected: output_count,
                    actual: g.len(),
                });
            }
            let table = &distinct[test];
            if table.first().is_none_or(|c0| !c0.is_empty()) {
                return Err(SddError::invalid(format!(
                    "test {test}: class 0 must be present with an empty diff list"
                )));
            }
            for diffs in table {
                if diffs.iter().any(|&pos| pos as usize >= output_count) {
                    return Err(SddError::invalid(format!(
                        "test {test}: diff position out of range ({output_count} outputs)"
                    )));
                }
                if diffs.windows(2).any(|pair| pair[0] >= pair[1]) {
                    return Err(SddError::invalid(format!(
                        "test {test}: diff positions not strictly increasing"
                    )));
                }
            }
            let classes = &class[test * fault_count..(test + 1) * fault_count];
            if let Some(&bad) = classes.iter().find(|&&c| c as usize >= table.len()) {
                return Err(SddError::invalid(format!(
                    "test {test}: class label {bad} out of range ({} classes)",
                    table.len()
                )));
            }
        }
        Ok(Self {
            fault_count,
            output_count,
            class,
            distinct,
            good,
        })
    }

    /// The sorted flipped-output positions of response class `class` under
    /// `test` relative to the fault-free response (class 0 is empty) — the
    /// raw stored form behind [`response`](Self::response).
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of `test`.
    pub fn class_diffs(&self, test: usize, class: u32) -> &[u32] {
        &self.distinct[test][class as usize]
    }

    /// Number of tests.
    pub fn test_count(&self) -> usize {
        self.good.len()
    }

    /// Number of faults (rows are indexed by position in the fault list
    /// passed to [`simulate`](Self::simulate), not by [`FaultId`]).
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Number of observed outputs (`m` in the paper's size formulas).
    pub fn output_count(&self) -> usize {
        self.output_count
    }

    /// The response class of fault `fault` under test `test`; `0` means the
    /// fault-free response (the test does not detect the fault).
    pub fn class(&self, test: usize, fault: usize) -> u32 {
        self.class[test * self.fault_count + fault]
    }

    /// All fault classes of one test, indexed by fault position.
    pub fn classes(&self, test: usize) -> &[u32] {
        &self.class[test * self.fault_count..(test + 1) * self.fault_count]
    }

    /// Number of distinct output vectors that occur under `test` (the size
    /// of the paper's candidate set `Z_j`, counting the fault-free vector).
    pub fn class_count(&self, test: usize) -> usize {
        self.distinct[test].len()
    }

    /// Returns `true` when `test` detects `fault`.
    pub fn detects(&self, test: usize, fault: usize) -> bool {
        self.class(test, fault) != 0
    }

    /// The fault-free response of `test`.
    pub fn good_response(&self, test: usize) -> &BitVec {
        &self.good[test]
    }

    /// Materializes the output vector of response class `class` under
    /// `test`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of `test`.
    pub fn response(&self, test: usize, class: u32) -> BitVec {
        let mut response = self.good[test].clone();
        for &pos in &self.distinct[test][class as usize] {
            response.toggle(pos as usize);
        }
        response
    }

    /// How many tests detect each fault.
    pub fn detection_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.fault_count];
        for test in 0..self.test_count() {
            for (fault, &c) in self.classes(test).iter().enumerate() {
                if c != 0 {
                    counts[fault] += 1;
                }
            }
        }
        counts
    }

    /// Positions of faults never detected by any test (undetectable by this
    /// test set — possibly redundant faults).
    pub fn undetected_faults(&self) -> Vec<usize> {
        self.detection_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The class label of the nonempty diff list `diffs` under one test: the
/// label it already has, or the next fresh one, appended to `table`.
fn intern(interner: &mut HashMap<Vec<u32>, u32>, table: &mut Vec<Vec<u32>>, diffs: &[u32]) -> u32 {
    if let Some(&label) = interner.get(diffs) {
        return label;
    }
    let label = table.len() as u32;
    table.push(diffs.to_vec());
    interner.insert(diffs.to_vec(), label);
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sdd_netlist::library::c17;

    fn setup(
        tests: &[&str],
    ) -> (
        Circuit,
        CombView,
        FaultUniverse,
        Vec<FaultId>,
        ResponseMatrix,
    ) {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let patterns: Vec<BitVec> = tests.iter().map(|s| s.parse().unwrap()).collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        (c, view, universe, ids, m)
    }

    fn setup_exhaustive() -> (
        Circuit,
        CombView,
        FaultUniverse,
        Vec<FaultId>,
        ResponseMatrix,
        Vec<BitVec>,
    ) {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let patterns: Vec<BitVec> = (0u32..32)
            .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
            .collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        (c, view, universe, ids, m, patterns)
    }

    #[test]
    fn shape_is_consistent() {
        let (_, _, _, ids, m) = setup(&["10111", "01101", "00000"]);
        assert_eq!(m.test_count(), 3);
        assert_eq!(m.fault_count(), ids.len());
        assert_eq!(m.output_count(), 2);
        for t in 0..3 {
            assert_eq!(m.classes(t).len(), ids.len());
            assert!(m.class_count(t) >= 1);
        }
    }

    #[test]
    fn classes_agree_with_reference_responses() {
        let (c, view, universe, ids, m, patterns) = setup_exhaustive();
        for (t, pattern) in patterns.iter().enumerate() {
            let good = reference::good_response(&c, &view, pattern);
            assert_eq!(*m.good_response(t), good);
            let responses: Vec<BitVec> = ids
                .iter()
                .map(|&id| reference::faulty_response(&c, &view, universe.fault(id), pattern))
                .collect();
            for (a, ra) in responses.iter().enumerate() {
                // Class 0 ⇔ equals fault-free.
                assert_eq!(m.class(t, a) == 0, *ra == good, "test {t} fault {a}");
                // Materialized response matches the reference.
                assert_eq!(m.response(t, m.class(t, a)), *ra);
                for (b, rb) in responses.iter().enumerate().skip(a + 1) {
                    assert_eq!(
                        m.class(t, a) == m.class(t, b),
                        ra == rb,
                        "test {t} faults {a},{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_count_counts_distinct_vectors() {
        let (c, view, universe, ids, m, patterns) = setup_exhaustive();
        for (t, pattern) in patterns.iter().enumerate() {
            let mut vectors: Vec<BitVec> = ids
                .iter()
                .map(|&id| reference::faulty_response(&c, &view, universe.fault(id), pattern))
                .collect();
            vectors.push(reference::good_response(&c, &view, pattern));
            vectors.sort();
            vectors.dedup();
            assert_eq!(m.class_count(t), vectors.len(), "test {t}");
        }
    }

    #[test]
    fn detection_counts_match_manual_count() {
        let (_, _, _, _, m, _) = setup_exhaustive();
        let counts = m.detection_counts();
        for (fault, &count) in counts.iter().enumerate() {
            let manual = (0..m.test_count()).filter(|&t| m.detects(t, fault)).count() as u32;
            assert_eq!(count, manual);
        }
        // Every collapsed c17 fault is detectable by exhaustive patterns.
        assert!(m.undetected_faults().is_empty());
    }

    #[test]
    fn class_parts_round_trip_exactly() {
        let (_, _, _, _, m) = setup(&["10111", "01101", "00000"]);
        let good: Vec<BitVec> = (0..m.test_count())
            .map(|t| m.good_response(t).clone())
            .collect();
        let class: Vec<u32> = (0..m.test_count())
            .flat_map(|t| m.classes(t).to_vec())
            .collect();
        let distinct: Vec<Vec<Vec<u32>>> = (0..m.test_count())
            .map(|t| {
                (0..m.class_count(t))
                    .map(|c| m.class_diffs(t, c as u32).to_vec())
                    .collect()
            })
            .collect();
        let back = ResponseMatrix::from_class_parts(
            good,
            m.fault_count(),
            m.output_count(),
            class,
            distinct,
        )
        .unwrap();
        assert_eq!(back, m, "parts reassemble the identical matrix");
    }

    #[test]
    fn from_class_parts_rejects_inconsistent_parts() {
        let (_, _, _, _, m) = setup(&["10111"]);
        let good = vec![m.good_response(0).clone()];
        let classes = m.classes(0).to_vec();
        let distinct: Vec<Vec<Vec<u32>>> = vec![(0..m.class_count(0))
            .map(|c| m.class_diffs(0, c as u32).to_vec())
            .collect()];
        // Wrong class-entry count.
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count() + 1,
            m.output_count(),
            classes.clone(),
            distinct.clone(),
        )
        .is_err());
        // Class label out of range.
        let mut bad_classes = classes.clone();
        bad_classes[0] = 99;
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count(),
            m.output_count(),
            bad_classes,
            distinct.clone(),
        )
        .is_err());
        // Diff position beyond the output count.
        let mut bad_distinct = distinct.clone();
        bad_distinct[0].last_mut().unwrap().push(99);
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count(),
            m.output_count(),
            classes.clone(),
            bad_distinct,
        )
        .is_err());
        // A repeated diff position (it would toggle the output back).
        let mut bad_distinct = distinct.clone();
        let last = bad_distinct[0].last_mut().unwrap();
        last.push(*last.last().unwrap());
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count(),
            m.output_count(),
            classes.clone(),
            bad_distinct,
        )
        .is_err());
        // Class 0 must stay the fault-free (empty-diff) class.
        let mut bad_distinct = distinct;
        bad_distinct[0][0].push(0);
        assert!(ResponseMatrix::from_class_parts(
            good,
            m.fault_count(),
            m.output_count(),
            classes,
            bad_distinct,
        )
        .is_err());
    }

    #[test]
    fn parallel_simulation_equals_serial_for_any_jobs() {
        // 70 tests are two pattern blocks, so two workers run and the
        // block concatenation (not the one-block serial case) is tested.
        let c = generator_circuit();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let ids = collapsed.representatives();
        let width = view.inputs().len();
        let mut rng = sdd_logic::Prng::seed_from_u64(7);
        let patterns: Vec<BitVec> = (0..70)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let serial = ResponseMatrix::simulate(&c, &view, &universe, ids, &patterns);
        for jobs in [2, 3, 4, 16] {
            let parallel =
                ResponseMatrix::simulate_jobs(&c, &view, &universe, ids, &patterns, jobs);
            assert_eq!(serial, parallel, "jobs = {jobs}");
        }
    }

    fn generator_circuit() -> Circuit {
        sdd_netlist::generator::iscas89("s298", 1).expect("known profile")
    }

    #[test]
    fn more_than_64_tests_cross_block_boundary() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        // 96 tests: the 32 exhaustive patterns three times.
        let patterns: Vec<BitVec> = (0u32..96)
            .map(|w| (0..5).map(|i| (w % 32) >> i & 1 == 1).collect())
            .collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        assert_eq!(m.test_count(), 96);
        // Repetition: test t and t+32 have identical structure.
        for t in 0..32 {
            assert_eq!(m.good_response(t), m.good_response(t + 32));
            assert_eq!(m.class_count(t), m.class_count(t + 32));
            for f in 0..m.fault_count() {
                assert_eq!(
                    m.response(t, m.class(t, f)),
                    m.response(t + 32, m.class(t + 32, f))
                );
            }
        }
    }
}
