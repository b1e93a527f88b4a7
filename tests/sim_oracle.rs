//! Seeded differential test of the production simulator against the scalar
//! reference: `Engine::run_fault` (shared-stem PPSFP) and the response
//! matrix built on it must reproduce `reference::faulty_response` for every
//! fault and every pattern lane — on generated ISCAS'89-shaped circuits
//! (sequential, so full-scan views with pseudo inputs and outputs), on
//! ragged last blocks, and on hand-built fanout-free-region corner cases.
//! The matrix must also be identical for every worker count.

use same_different::fault::{Fault, FaultUniverse};
use same_different::logic::{BitVec, PatternBlock, Prng, LANES};
use same_different::netlist::{generator, Circuit, CircuitBuilder, CombView, GateKind};
use same_different::sim::{reference, Engine, ResponseMatrix};

fn random_patterns(rng: &mut Prng, width: usize, count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

/// Checks every fault of `circuit`'s full universe against the reference
/// under every pattern, block by block, through both the engine and the
/// response matrix.
fn assert_matches_reference(circuit: &Circuit, patterns: &[BitVec], context: &str) {
    let view = CombView::new(circuit);
    let universe = FaultUniverse::enumerate(circuit);
    let faults: Vec<Fault> = universe.iter().map(|(_, fault)| fault).collect();
    let ids: Vec<_> = universe.iter().map(|(id, _)| id).collect();
    let width = view.inputs().len();
    let matrix = ResponseMatrix::simulate(circuit, &view, &universe, &ids, patterns);

    let mut engine = Engine::new(circuit, &view);
    for (block_index, block) in patterns.chunks(LANES).enumerate() {
        engine.load_block(&PatternBlock::from_patterns(width, block));
        for (pos, &fault) in faults.iter().enumerate() {
            let effect = engine.run_fault(fault);
            assert_eq!(
                engine.detect_lanes(fault),
                effect.detect,
                "{context}: detect_lanes of {}",
                fault.describe(circuit)
            );
            assert_eq!(
                effect.detect.checked_shr(block.len() as u32).unwrap_or(0),
                0,
                "{context}: dead lanes of {} stay silent",
                fault.describe(circuit)
            );
            for (lane, pattern) in block.iter().enumerate() {
                let test = block_index * LANES + lane;
                let expected = reference::faulty_response(circuit, &view, fault, pattern);
                let good = engine.good_response(lane);
                assert_eq!(
                    effect.faulty_response(&good, lane),
                    expected,
                    "{context}: {} under test {test}",
                    fault.describe(circuit)
                );
                assert_eq!(effect.detect >> lane & 1 == 1, expected != good);
                assert_eq!(
                    matrix.response(test, matrix.class(test, pos)),
                    expected,
                    "{context}: matrix row of {} under test {test}",
                    fault.describe(circuit)
                );
            }
        }
    }
}

#[test]
fn engine_matches_reference_on_generated_circuits() {
    for (profile, seed) in [("s208", 1), ("s298", 2), ("s344", 3), ("s386", 4)] {
        let circuit = generator::iscas89(profile, seed).expect("known profile");
        let width = CombView::new(&circuit).inputs().len();
        let mut rng = Prng::seed_from_u64(seed);
        // One full block plus a ragged tail of 1..=31 lanes.
        let count = LANES + 1 + rng.gen_range(0..31);
        let patterns = random_patterns(&mut rng, width, count);
        assert_matches_reference(&circuit, &patterns, &format!("{profile} seed {seed}"));
    }
}

/// Every input combination of a small hand-built circuit.
fn exhaustive(width: usize) -> Vec<BitVec> {
    (0u32..1 << width)
        .map(|word| (0..width).map(|i| word >> i & 1 == 1).collect())
        .collect()
}

#[test]
fn observed_net_feeding_one_gate_is_a_root() {
    // `a` is a primary output and also feeds exactly one gate: its effect
    // is observed at `a` itself, not only through `b`.
    let mut b = CircuitBuilder::new("observed_chain");
    let x = b.input("x");
    let y = b.input("y");
    let z = b.input("z");
    let a = b.gate("a", GateKind::And, vec![x, y]);
    let n = b.gate("n", GateKind::Or, vec![a, z]);
    let o = b.gate("o", GateKind::Not, vec![n]);
    b.output(a);
    b.output(o);
    let circuit = b.finish().unwrap();
    assert_matches_reference(&circuit, &exhaustive(3), "observed chain");
}

#[test]
fn one_net_on_two_pins_of_one_gate() {
    // `n` feeds both pins of `x2` (an XOR, so a stem flip cancels while a
    // single-pin branch fault does not) and both pins of `a2`.
    let mut b = CircuitBuilder::new("double_pin");
    let p = b.input("p");
    let q = b.input("q");
    let n = b.gate("n", GateKind::Nand, vec![p, q]);
    let x2 = b.gate("x2", GateKind::Xor, vec![n, n]);
    let m = b.gate("m", GateKind::Nor, vec![p, q]);
    let a2 = b.gate("a2", GateKind::And, vec![m, m, q]);
    let o = b.gate("o", GateKind::Or, vec![x2, a2]);
    b.output(o);
    let circuit = b.finish().unwrap();
    assert_matches_reference(&circuit, &exhaustive(2), "double pin");
}

#[test]
fn branch_faults_on_reconvergent_fanout() {
    // `s` fans out to `p` and `q`, which reconverge at `r`; `p` and `q` are
    // single-consumer nets inside `r`'s fanout-free region, and `r` also
    // feeds a flip-flop, so it is observed twice (PO and pseudo output).
    let mut b = CircuitBuilder::new("reconvergent");
    let x = b.input("x");
    let y = b.input("y");
    let z = b.input("z");
    let w = b.input("w");
    let s = b.gate("s", GateKind::Nand, vec![x, y]);
    let p = b.gate("p", GateKind::And, vec![s, z]);
    let q = b.gate("q", GateKind::Or, vec![s, w]);
    let r = b.gate("r", GateKind::Xor, vec![p, q]);
    let state = b.dff("state", r);
    let t = b.gate("t", GateKind::Xnor, vec![state, s]);
    b.output(r);
    b.output(t);
    let circuit = b.finish().unwrap();
    assert_matches_reference(&circuit, &exhaustive(5), "reconvergent");
}

#[test]
fn dangling_net_has_no_effect() {
    // `d` and its private chain `e` reach no output; their faults are
    // never detected, and a dangling root's stem flip is empty.
    let mut b = CircuitBuilder::new("dangling");
    let x = b.input("x");
    let y = b.input("y");
    let d = b.gate("d", GateKind::Nand, vec![x, y]);
    b.gate("e", GateKind::Not, vec![d]);
    let o = b.gate("o", GateKind::And, vec![x, y]);
    b.output(o);
    let circuit = b.finish().unwrap();
    assert_matches_reference(&circuit, &exhaustive(2), "dangling");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let mut engine = Engine::new(&circuit, &view);
    engine.load_block(&PatternBlock::from_patterns(2, &exhaustive(2)));
    for name in ["d", "e"] {
        let net = circuit.net(name).unwrap();
        for (_, fault) in universe.iter() {
            if fault.site == same_different::fault::FaultSite::Stem(net) {
                assert_eq!(engine.detect_lanes(fault), 0, "{name} is unobservable");
            }
        }
    }
}

#[test]
fn response_matrix_is_identical_for_every_job_count() {
    for (profile, seed) in [("s298", 5), ("s526", 6)] {
        let circuit = generator::iscas89(profile, seed).expect("known profile");
        let view = CombView::new(&circuit);
        let universe = FaultUniverse::enumerate(&circuit);
        let collapsed = universe.collapse_on(&circuit);
        let mut rng = Prng::seed_from_u64(seed);
        // Three full blocks and a ragged fourth.
        let count = 3 * LANES + 1 + rng.gen_range(0..LANES - 1);
        let patterns = random_patterns(&mut rng, view.inputs().len(), count);
        let ids = collapsed.representatives();
        let serial = ResponseMatrix::simulate_jobs(&circuit, &view, &universe, ids, &patterns, 1);
        assert_eq!(serial.test_count(), count);
        for jobs in [2, 3, 8] {
            let parallel =
                ResponseMatrix::simulate_jobs(&circuit, &view, &universe, ids, &patterns, jobs);
            assert_eq!(parallel, serial, "{profile}: jobs {jobs}");
        }
    }
}
