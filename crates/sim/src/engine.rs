//! The production simulator: compiled fault-free evaluation plus
//! shared-stem parallel-pattern single-fault propagation (PPSFP).
//!
//! A fault's effect first travels the unique gate chain of its fanout-free
//! region (FFR) to the region's root: a net that is observed or whose gate
//! fan-out is not exactly one. Beyond the root the faulty circuit differs
//! from the fault-free one only through the root's value, and pattern lanes
//! are independent, so the fault's output diffs are the root's *stem-flip*
//! diffs (the root inverted in every live lane, propagated event-driven)
//! masked to the lanes where the fault reaches the root. Stem flips are
//! computed once per root per loaded block and shared by every fault of the
//! region.

use sdd_fault::{Fault, FaultSite};
use sdd_logic::{BitVec, PatternBlock};
use sdd_netlist::{Circuit, CombView, Driver, GateKind, NetId};

/// The observable consequence of one fault over one pattern block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEffect {
    /// Lanes (patterns) in which at least one output differs from the
    /// fault-free response.
    pub detect: u64,
    /// `(output position, diff word)` for every output whose word differs,
    /// in ascending output order. Bit `p` of a diff word means the output
    /// differs under pattern `p`.
    pub output_diffs: Vec<(u32, u64)>,
}

impl FaultEffect {
    /// The faulty response of lane `lane`, reconstructed from the
    /// fault-free response `good`.
    ///
    /// # Panics
    ///
    /// Panics if an output position exceeds `good.len()`.
    pub fn faulty_response(&self, good: &BitVec, lane: usize) -> BitVec {
        let mut response = good.clone();
        for &(pos, word) in &self.output_diffs {
            if word >> lane & 1 == 1 {
                response.toggle(pos as usize);
            }
        }
        response
    }
}

/// A reusable PPSFP simulation engine bound to one circuit view.
///
/// Typical use: [`load_block`](Engine::load_block) a [`PatternBlock`] of up
/// to 64 tests, then call [`run_fault`](Engine::run_fault) for each fault of
/// interest. The engine keeps all scratch state internally, so a single
/// engine amortizes allocations across millions of fault passes, and it
/// caches each fanout-free region's stem flip for the loaded block, so the
/// faults of one region share a single downstream propagation.
///
/// # Example
///
/// ```
/// use sdd_fault::FaultUniverse;
/// use sdd_logic::{BitVec, PatternBlock};
/// use sdd_netlist::{library, CombView};
/// use sdd_sim::Engine;
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let mut engine = Engine::new(&c17, &view);
/// let tests: Vec<BitVec> = vec!["10111".parse()?, "01101".parse()?];
/// engine.load_block(&PatternBlock::from_patterns(5, &tests));
/// let universe = FaultUniverse::enumerate(&c17);
/// let effect = engine.run_fault(universe.fault(sdd_fault::FaultId(0)));
/// assert_eq!(effect.detect & !0b11, 0, "only loaded lanes can detect");
/// # Ok::<(), sdd_logic::ParseBitVecError>(())
/// ```
#[derive(Debug)]
pub struct Engine<'a> {
    circuit: &'a Circuit,
    view: &'a CombView,
    /// Gate nets consuming each net (sinks to re-evaluate on change).
    fanout_gates: Vec<Vec<NetId>>,
    /// For a net inside a fanout-free region, the `(gate, pin)` it feeds;
    /// `None` for a region root (observed, or gate fan-out other than 1).
    chain: Vec<Option<(NetId, usize)>>,
    good: Vec<u64>,
    value: Vec<u64>,
    lane_mask: u64,
    pattern_count: usize,
    buckets: Vec<Vec<NetId>>,
    queued: Vec<bool>,
    touched: Vec<NetId>,
    /// Per net: the stem-flip effect, valid when its epoch matches.
    stems: Vec<StemFlip>,
    /// Bumped by every [`load_block`](Self::load_block); 0 = none loaded.
    epoch: u64,
}

/// The output diffs of one root inverted in every live lane of a block.
#[derive(Debug, Clone, Default)]
pub(crate) struct StemFlip {
    epoch: u64,
    /// OR of the diff words: the lanes in which the flip is observed.
    pub(crate) detect: u64,
    /// `(output position, diff word)` for every output the flip reaches,
    /// in ascending output order.
    pub(crate) output_diffs: Vec<(u32, u64)>,
}

impl<'a> Engine<'a> {
    /// Creates an engine for `circuit` as seen through `view`.
    pub fn new(circuit: &'a Circuit, view: &'a CombView) -> Self {
        let mut fanout_gates = vec![Vec::new(); circuit.net_count()];
        let mut chain = vec![None; circuit.net_count()];
        for net in circuit.nets() {
            if let Driver::Gate { inputs, .. } = circuit.driver(net) {
                for (pin, &source) in inputs.iter().enumerate() {
                    fanout_gates[source.index()].push(net);
                    chain[source.index()] = Some((net, pin));
                }
            }
        }
        // A net feeding two pins (of one gate or two) lists that many sinks.
        for (link, sinks) in chain.iter_mut().zip(&fanout_gates) {
            if sinks.len() != 1 {
                *link = None;
            }
        }
        for &output in view.outputs() {
            chain[output.index()] = None;
        }
        let depth = view.depth() as usize;
        Self {
            circuit,
            view,
            fanout_gates,
            chain,
            good: vec![0; circuit.net_count()],
            value: vec![0; circuit.net_count()],
            lane_mask: 0,
            pattern_count: 0,
            buckets: vec![Vec::new(); depth + 1],
            queued: vec![false; circuit.net_count()],
            touched: Vec::new(),
            stems: vec![StemFlip::default(); circuit.net_count()],
            epoch: 0,
        }
    }

    /// Simulates the fault-free circuit for a block of patterns and latches
    /// the result as the baseline for subsequent [`run_fault`](Self::run_fault)
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if the block's input count differs from the view's.
    pub fn load_block(&mut self, block: &PatternBlock) {
        assert_eq!(
            block.input_count(),
            self.view.inputs().len(),
            "block width must match view inputs"
        );
        for &net in self.view.order() {
            let word = match self.circuit.driver(net) {
                Driver::Input | Driver::Dff { .. } => {
                    let pos = self
                        .view
                        .input_position(net)
                        .expect("sources are view inputs");
                    block.input_word(pos)
                }
                Driver::Gate { .. } => self.eval_gate(net, &self.good, None),
            };
            self.good[net.index()] = word;
        }
        self.value.copy_from_slice(&self.good);
        self.lane_mask = block.lane_mask();
        self.pattern_count = block.pattern_count();
        self.epoch += 1;
    }

    /// Number of fanout-free-region roots: nets that are observed or whose
    /// gate fan-out is not exactly one. A block propagates at most this many
    /// stem flips, however many faults it simulates.
    pub fn root_count(&self) -> usize {
        self.chain.iter().filter(|link| link.is_none()).count()
    }

    /// Number of patterns in the loaded block.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The fault-free value word of `net` for the loaded block.
    pub fn good_word(&self, net: NetId) -> u64 {
        self.good[net.index()]
    }

    /// The fault-free output response of pattern `lane`.
    ///
    /// # Panics
    ///
    /// Panics if no block is loaded or `lane` exceeds the pattern count.
    pub fn good_response(&self, lane: usize) -> BitVec {
        assert!(self.epoch != 0, "no block loaded");
        assert!(lane < self.pattern_count, "lane {lane} out of range");
        self.view
            .outputs()
            .iter()
            .map(|&o| self.good[o.index()] >> lane & 1 == 1)
            .collect()
    }

    /// Simulates `fault` against every pattern of the loaded block and
    /// returns its observable effect.
    ///
    /// # Panics
    ///
    /// Panics if no block is loaded.
    pub fn run_fault(&mut self, fault: Fault) -> FaultEffect {
        let (root, reach) = self.root_difference(fault);
        if reach == 0 {
            return FaultEffect {
                detect: 0,
                output_diffs: Vec::new(),
            };
        }
        let stem = self.stem_flip(root);
        FaultEffect {
            detect: stem.detect & reach,
            output_diffs: stem
                .output_diffs
                .iter()
                .map(|&(pos, word)| (pos, word & reach))
                .filter(|&(_, word)| word != 0)
                .collect(),
        }
    }

    /// The lanes in which `fault` is detected — the `detect` word of
    /// [`run_fault`](Self::run_fault) without building its diff list, for
    /// detection-only callers like ATPG.
    ///
    /// # Panics
    ///
    /// Panics if no block is loaded.
    pub fn detect_lanes(&mut self, fault: Fault) -> u64 {
        let (root, reach) = self.root_difference(fault);
        if reach == 0 {
            return 0;
        }
        self.stem_flip(root).detect & reach
    }

    /// Walks `fault`'s effect along its fanout-free region: returns the
    /// region's root and the live lanes in which the root's faulty value
    /// differs from the fault-free one. Each step is one gate evaluation
    /// on fault-free side inputs, which no other net of the chain can reach.
    pub(crate) fn root_difference(&self, fault: Fault) -> (NetId, u64) {
        assert!(self.epoch != 0, "no block loaded");
        let forced = if fault.stuck_at { u64::MAX } else { 0 };
        let (mut net, mut diff) = match fault.site {
            FaultSite::Stem(net) => (net, self.good[net.index()] ^ forced),
            FaultSite::Branch { gate, pin } => (
                gate,
                self.eval_gate(gate, &self.good, Some((pin as usize, forced)))
                    ^ self.good[gate.index()],
            ),
        };
        diff &= self.lane_mask;
        while diff != 0 {
            let Some((gate, pin)) = self.chain[net.index()] else {
                break;
            };
            let faulty = self.good[net.index()] ^ diff;
            diff = self.eval_gate(gate, &self.good, Some((pin, faulty))) ^ self.good[gate.index()];
            net = gate;
        }
        (net, diff)
    }

    /// The loaded block's stem flip of `root`, propagated on first use.
    pub(crate) fn stem_flip(&mut self, root: NetId) -> &StemFlip {
        let slot = root.index();
        if self.stems[slot].epoch != self.epoch {
            self.value[slot] = self.good[slot] ^ self.lane_mask;
            self.touched.push(root);
            self.schedule_sinks(root);

            // Event-driven propagation: levels settle in ascending order.
            for level in 0..self.buckets.len() {
                while let Some(net) = self.buckets[level].pop() {
                    self.queued[net.index()] = false;
                    let new = self.eval_gate(net, &self.value, None);
                    if new != self.value[net.index()] {
                        if self.value[net.index()] == self.good[net.index()] {
                            self.touched.push(net);
                        }
                        self.value[net.index()] = new;
                        self.schedule_sinks(net);
                    }
                }
            }

            let stem = &mut self.stems[slot];
            stem.epoch = self.epoch;
            stem.detect = 0;
            stem.output_diffs.clear();
            for (pos, &o) in self.view.outputs().iter().enumerate() {
                let diff = (self.value[o.index()] ^ self.good[o.index()]) & self.lane_mask;
                if diff != 0 {
                    stem.detect |= diff;
                    stem.output_diffs.push((pos as u32, diff));
                }
            }

            // Undo for the next root.
            for net in self.touched.drain(..) {
                self.value[net.index()] = self.good[net.index()];
            }
        }
        &self.stems[slot]
    }

    fn schedule_sinks(&mut self, net: NetId) {
        // Split borrows: take the sink list via index to satisfy the
        // borrow checker without cloning.
        for i in 0..self.fanout_gates[net.index()].len() {
            let sink = self.fanout_gates[net.index()][i];
            if !self.queued[sink.index()] {
                self.queued[sink.index()] = true;
                self.buckets[self.view.level(sink) as usize].push(sink);
            }
        }
    }

    /// Evaluates gate `net` over `words`, with input pin `force_pin.0`
    /// reading `force_pin.1` instead when given.
    fn eval_gate(&self, net: NetId, words: &[u64], force_pin: Option<(usize, u64)>) -> u64 {
        match self.circuit.driver(net) {
            Driver::Gate { kind, inputs } => eval_words(
                *kind,
                inputs
                    .iter()
                    .enumerate()
                    .map(|(pin, &source)| match force_pin {
                        Some((fp, word)) if fp == pin => word,
                        _ => words[source.index()],
                    }),
            ),
            // Inputs and flip-flop outputs never self-evaluate; a branch
            // fault can only sit on a gate.
            _ => words[net.index()],
        }
    }
}

/// Evaluates a gate over transposed pattern words.
fn eval_words(kind: GateKind, mut inputs: impl Iterator<Item = u64>) -> u64 {
    match kind {
        GateKind::And => inputs.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Nand => !inputs.fold(u64::MAX, |acc, w| acc & w),
        GateKind::Or => inputs.fold(0, |acc, w| acc | w),
        GateKind::Nor => !inputs.fold(0, |acc, w| acc | w),
        GateKind::Xor => inputs.fold(0, |acc, w| acc ^ w),
        GateKind::Xnor => !inputs.fold(0, |acc, w| acc ^ w),
        GateKind::Not => !inputs.next().expect("NOT has one input"),
        GateKind::Buf => inputs.next().expect("BUFF has one input"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sdd_fault::FaultUniverse;
    use sdd_netlist::generator;
    use sdd_netlist::library::{c17, demo_seq};

    fn all_patterns(width: usize) -> Vec<BitVec> {
        (0u32..1 << width)
            .map(|word| (0..width).map(|i| word >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn good_simulation_matches_reference_exhaustively() {
        let c = c17();
        let view = CombView::new(&c);
        let patterns = all_patterns(5);
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(5, &patterns[..32]));
        for (lane, pattern) in patterns.iter().take(32).enumerate() {
            assert_eq!(
                engine.good_response(lane),
                reference::good_response(&c, &view, pattern),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn every_fault_matches_reference_on_c17() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let patterns = all_patterns(5);
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(5, &patterns));
        for (_, fault) in universe.iter() {
            let effect = engine.run_fault(fault);
            for (lane, pattern) in patterns.iter().enumerate() {
                let expected = reference::faulty_response(&c, &view, fault, pattern);
                let good = engine.good_response(lane);
                let actual = effect.faulty_response(&good, lane);
                assert_eq!(actual, expected, "fault {fault:?} lane {lane}");
                let detected = effect.detect >> lane & 1 == 1;
                assert_eq!(detected, expected != good);
            }
        }
    }

    #[test]
    fn engine_state_is_clean_between_faults() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let patterns = all_patterns(5);
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(5, &patterns));
        // Running the same fault repeatedly, interleaved with others, must
        // give identical results.
        let probe = universe.fault(sdd_fault::FaultId(5));
        let first = engine.run_fault(probe);
        for (_, fault) in universe.iter() {
            engine.run_fault(fault);
        }
        assert_eq!(engine.run_fault(probe), first);
    }

    #[test]
    fn sequential_circuit_matches_reference() {
        let c = demo_seq();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let width = view.inputs().len();
        let patterns = all_patterns(width);
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(width, &patterns));
        for (_, fault) in universe.iter() {
            let effect = engine.run_fault(fault);
            for (lane, pattern) in patterns.iter().enumerate() {
                let expected = reference::faulty_response(&c, &view, fault, pattern);
                let good = engine.good_response(lane);
                assert_eq!(effect.faulty_response(&good, lane), expected);
            }
        }
    }

    #[test]
    fn generated_circuit_matches_reference_sampled() {
        use sdd_logic::Prng;
        let c = generator::iscas89("s208", 1).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let width = view.inputs().len();
        let mut rng = Prng::seed_from_u64(42);
        let patterns: Vec<BitVec> = (0..64)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(width, &patterns));
        // Sample every 7th fault to keep the scalar reference affordable.
        for (id, fault) in universe.iter() {
            if id.index() % 7 != 0 {
                continue;
            }
            let effect = engine.run_fault(fault);
            for lane in [0usize, 13, 63] {
                let expected = reference::faulty_response(&c, &view, fault, &patterns[lane]);
                let good = engine.good_response(lane);
                assert_eq!(
                    effect.faulty_response(&good, lane),
                    expected,
                    "{} lane {lane}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn partial_block_masks_dead_lanes() {
        let c = c17();
        let view = CombView::new(&c);
        let mut engine = Engine::new(&c, &view);
        let patterns = all_patterns(5);
        engine.load_block(&PatternBlock::from_patterns(5, &patterns[..3]));
        let universe = FaultUniverse::enumerate(&c);
        for (_, fault) in universe.iter() {
            let effect = engine.run_fault(fault);
            assert_eq!(effect.detect & !0b111, 0, "dead lanes must stay silent");
        }
    }

    #[test]
    #[should_panic(expected = "no block loaded")]
    fn run_fault_without_block_panics() {
        let c = c17();
        let view = CombView::new(&c);
        let mut engine = Engine::new(&c, &view);
        let universe = FaultUniverse::enumerate(&c);
        engine.run_fault(universe.fault(sdd_fault::FaultId(0)));
    }

    #[test]
    #[should_panic(expected = "block width")]
    fn wrong_block_width_panics() {
        let c = c17();
        let view = CombView::new(&c);
        let mut engine = Engine::new(&c, &view);
        engine.load_block(&PatternBlock::from_patterns(4, &[]));
    }
}
