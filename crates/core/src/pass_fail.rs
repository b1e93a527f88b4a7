//! The classic pass/fail fault dictionary.

use sdd_logic::{BitVec, SddError, SignatureMatrix};
use sdd_sim::{Partition, ResponseMatrix};

use crate::DictionarySizes;

/// A pass/fail fault dictionary: bit `b[i][j]` is `1` when test `t_j`
/// detects fault `f_i` (its output vector differs from the fault-free
/// vector).
///
/// # Example
///
/// ```
/// use sdd_core::PassFailDictionary;
///
/// let matrix = sdd_core::example::paper_example();
/// let d = PassFailDictionary::build(&matrix);
/// // Table 2 of the paper: signatures by fault, tests left-to-right.
/// assert_eq!(d.signature(0).to_string(), "01");
/// assert_eq!(d.signature(1).to_string(), "10");
/// assert_eq!(d.signature(2).to_string(), "11");
/// assert_eq!(d.signature(3).to_string(), "11");
/// assert_eq!(d.indistinguished_pairs(), 1); // only f2,f3 collide
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFailDictionary {
    signatures: SignatureMatrix,
    outputs: usize,
}

impl PassFailDictionary {
    /// Builds the dictionary from simulated responses.
    pub fn build(matrix: &ResponseMatrix) -> Self {
        let mut signatures = SignatureMatrix::zeros(matrix.fault_count(), matrix.test_count());
        for test in 0..matrix.test_count() {
            for fault in 0..matrix.fault_count() {
                if matrix.detects(test, fault) {
                    signatures.set(fault, test, true);
                }
            }
        }
        Self::from_matrix(signatures, matrix.output_count())
    }

    /// Reassembles a dictionary from stored signature rows, as the binary
    /// store reads them back.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when any signature's width
    /// differs from `tests`.
    pub fn from_parts(
        signatures: Vec<BitVec>,
        tests: usize,
        outputs: usize,
    ) -> Result<Self, SddError> {
        Ok(Self::from_matrix(
            SignatureMatrix::from_rows(tests, &signatures)?,
            outputs,
        ))
    }

    /// Wraps an already-packed signature matrix (one row per fault, one
    /// bit per test) — how the binary store and shard slicing hand rows
    /// over without unpacking them.
    pub fn from_matrix(signatures: SignatureMatrix, outputs: usize) -> Self {
        Self {
            signatures,
            outputs,
        }
    }

    /// Number of faults `n`.
    pub fn fault_count(&self) -> usize {
        self.signatures.rows()
    }

    /// Number of tests `k`.
    pub fn test_count(&self) -> usize {
        self.signatures.bits()
    }

    /// The detection signature of fault `i`, one bit per test, unpacked
    /// into an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `fault >= self.fault_count()`.
    pub fn signature(&self, fault: usize) -> BitVec {
        self.signatures.to_bitvec(fault)
    }

    /// All signatures: row `i` is fault `i`.
    pub fn signatures(&self) -> &SignatureMatrix {
        &self.signatures
    }

    /// Storage accounting per the paper.
    pub fn sizes(&self) -> DictionarySizes {
        DictionarySizes::new(
            self.test_count() as u64,
            self.fault_count() as u64,
            self.outputs as u64,
        )
    }

    /// This dictionary's size in bits (`k·n`).
    pub fn size_bits(&self) -> u64 {
        self.sizes().pass_fail
    }

    /// The partition of faults into signature-equal groups.
    pub fn partition(&self) -> Partition {
        let mut p = Partition::unit(self.fault_count());
        for test in 0..self.test_count() {
            p.refine_bits(|i| self.signatures.bit(i, test));
        }
        p
    }

    /// Fault pairs the dictionary cannot distinguish.
    pub fn indistinguished_pairs(&self) -> u64 {
        self.partition().indistinguished_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;

    #[test]
    fn example_signatures_match_table2() {
        let d = PassFailDictionary::build(&paper_example());
        let rows: Vec<String> = (0..d.fault_count())
            .map(|f| d.signature(f).to_string())
            .collect();
        assert_eq!(rows, ["01", "10", "11", "11"]);
        assert_eq!(d.fault_count(), 4);
        assert_eq!(d.test_count(), 2);
    }

    #[test]
    fn partition_groups_f2_f3() {
        let d = PassFailDictionary::build(&paper_example());
        let p = d.partition();
        assert_eq!(p.group_count(), 3);
        assert_eq!(p.group_of(2), p.group_of(3));
        assert_ne!(p.group_of(0), p.group_of(1));
        assert_eq!(d.indistinguished_pairs(), 1);
    }

    #[test]
    fn sizes_match_formula() {
        let d = PassFailDictionary::build(&paper_example());
        assert_eq!(d.size_bits(), 8);
        assert_eq!(d.sizes().full, 16);
    }

    #[test]
    fn pass_fail_partition_matches_matrix_shortcut() {
        let matrix = paper_example();
        let d = PassFailDictionary::build(&matrix);
        assert_eq!(
            d.partition().indistinguished_pairs(),
            matrix.pass_fail_partition().indistinguished_pairs()
        );
    }
}
