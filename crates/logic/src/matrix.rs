//! One contiguous, row-major bit matrix: a fault dictionary's signatures.
//!
//! A pass/fail or same/different dictionary is a `k·n` bit matrix — one
//! `k`-bit signature row per fault — and diagnosis is a nearest-row search
//! over it. [`SignatureMatrix`] stores every row in one `Vec<u64>` with a
//! fixed stride of `⌈k/64⌉` words, so scoring an observation is a single
//! linear scan of XOR/AND/popcount over contiguous memory with no per-row
//! allocation, and the word image is exactly the `.sddb` v1 signature
//! section.

use std::fmt;
use std::ops::Range;

use crate::{BitVec, MaskedBitVec, SddError};

/// A row-major bit matrix: `rows` rows of `bits` bits each, packed 64 per
/// word with a stride of `bits.div_ceil(64)` words per row.
///
/// Bits beyond `bits` in each row's last word are always zero, so words
/// can be compared, hashed, XORed and popcounted without masking.
///
/// # Example
///
/// ```
/// use sdd_logic::{BitVec, MaskedBitVec, SignatureMatrix};
///
/// let rows: Vec<BitVec> = ["00", "01", "11"].iter().map(|s| s.parse().unwrap()).collect();
/// let m = SignatureMatrix::from_rows(2, &rows)?;
/// assert_eq!(m.to_bitvec(1), rows[1]);
/// let observed: MaskedBitVec = "0X".parse()?;
/// let mut mismatches = Vec::new();
/// let min = m.masked_mismatches_into(&observed, &mut mismatches)?;
/// assert_eq!((min, mismatches), (0, vec![0, 0, 1]));
/// # Ok::<(), sdd_logic::SddError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    words: Vec<u64>,
    rows: usize,
    bits: usize,
}

impl SignatureMatrix {
    /// A matrix of `rows` all-zero rows of `bits` bits.
    pub fn zeros(rows: usize, bits: usize) -> Self {
        Self {
            words: vec![0; rows * bits.div_ceil(64)],
            rows,
            bits,
        }
    }

    /// Packs `rows` into one matrix of `bits`-bit rows.
    ///
    /// # Errors
    ///
    /// [`SddError::WidthMismatch`] when any row's width differs from `bits`.
    pub fn from_rows(bits: usize, rows: &[BitVec]) -> Result<Self, SddError> {
        if let Some(bad) = rows.iter().find(|r| r.len() != bits) {
            return Err(SddError::WidthMismatch {
                context: "signature matrix row width",
                expected: bits,
                actual: bad.len(),
            });
        }
        let mut words = Vec::with_capacity(rows.len() * bits.div_ceil(64));
        for row in rows {
            words.extend(row.as_words());
        }
        Ok(Self {
            words,
            rows: rows.len(),
            bits,
        })
    }

    /// Adopts a row-major word image of `rows` rows of `bits` bits, as the
    /// binary store lays it out. Stale bits beyond `bits` in each row's last
    /// word are cleared rather than trusted.
    ///
    /// # Errors
    ///
    /// [`SddError::CountMismatch`] when `words.len()` is not
    /// `rows · bits.div_ceil(64)`.
    pub fn from_words(mut words: Vec<u64>, rows: usize, bits: usize) -> Result<Self, SddError> {
        let stride = bits.div_ceil(64);
        let expected = rows.checked_mul(stride).ok_or_else(|| {
            SddError::invalid(format!("{rows} rows of {bits} bits overflow usize"))
        })?;
        if words.len() != expected {
            return Err(SddError::CountMismatch {
                context: "signature matrix words",
                expected,
                actual: words.len(),
            });
        }
        if !bits.is_multiple_of(64) {
            let tail = u64::MAX >> (64 - bits % 64);
            for row in words.chunks_exact_mut(stride) {
                row[stride - 1] &= tail;
            }
        }
        Ok(Self { words, rows, bits })
    }

    /// Number of rows (faults).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row (tests).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per row: `bits().div_ceil(64)`.
    pub fn stride(&self) -> usize {
        self.bits.div_ceil(64)
    }

    /// The whole row-major word image (`rows · stride` words, tails zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of range {}", self.rows);
        let stride = self.stride();
        &self.words[i * stride..(i + 1) * stride]
    }

    /// The bit at row `i`, column `t`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()` or `t >= self.bits()`.
    pub fn bit(&self, i: usize, t: usize) -> bool {
        assert!(t < self.bits, "bit {t} out of range {}", self.bits);
        self.row(i)[t / 64] >> (t % 64) & 1 == 1
    }

    /// Sets the bit at row `i`, column `t` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()` or `t >= self.bits()`.
    pub fn set(&mut self, i: usize, t: usize, value: bool) {
        assert!(i < self.rows, "row {i} out of range {}", self.rows);
        assert!(t < self.bits, "bit {t} out of range {}", self.bits);
        let word = &mut self.words[i * self.bits.div_ceil(64) + t / 64];
        let mask = 1 << (t % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Row `i` as an owned [`BitVec`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn to_bitvec(&self, i: usize) -> BitVec {
        BitVec::from_words(self.row(i).to_vec(), self.bits)
            .expect("a row holds exactly stride words")
    }

    /// The rows in `range` as a matrix of their own.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of range {}",
            self.rows
        );
        let stride = self.stride();
        Self {
            words: self.words[range.start * stride..range.end * stride].to_vec(),
            rows: range.len(),
            bits: self.bits,
        }
    }

    /// Scores a ternary observation against every row: `out[i]` becomes the
    /// number of *known* observation bits at which row `i` disagrees,
    /// `popcount((row ^ value) & known)`. Returns the minimum.
    ///
    /// The observation is unpacked once into tail-cleared value and known
    /// words; the scan itself allocates nothing (`out` is cleared and
    /// reused).
    ///
    /// # Errors
    ///
    /// [`SddError::Empty`] when the matrix has no rows, and
    /// [`SddError::WidthMismatch`] when `observed`'s width differs from
    /// [`bits`](Self::bits).
    pub fn masked_mismatches_into(
        &self,
        observed: &MaskedBitVec,
        out: &mut Vec<u32>,
    ) -> Result<u32, SddError> {
        if self.rows == 0 {
            return Err(SddError::Empty {
                context: "signature dictionary",
            });
        }
        if observed.len() != self.bits {
            return Err(SddError::WidthMismatch {
                context: "masked comparison",
                expected: self.bits,
                actual: observed.len(),
            });
        }
        out.clear();
        out.reserve(self.rows);
        let stride = self.stride();
        if stride == 1 {
            // The common shape (k ≤ 64 tests): one word per row.
            let value = observed.values().as_words().next().unwrap_or(0);
            let known = observed.known_mask().as_words().next().unwrap_or(0);
            out.extend(
                self.words
                    .iter()
                    .map(|&row| ((row ^ value) & known).count_ones()),
            );
        } else if stride == 0 {
            out.resize(self.rows, 0);
        } else {
            let value: Vec<u64> = observed.values().as_words().collect();
            let known: Vec<u64> = observed.known_mask().as_words().collect();
            out.extend(self.words.chunks_exact(stride).map(|row| {
                row.iter()
                    .zip(&value)
                    .zip(&known)
                    .map(|((&r, &v), &k)| ((r ^ v) & k).count_ones())
                    .sum::<u32>()
            }));
        }
        Ok(out.iter().copied().min().unwrap_or(0))
    }
}

impl fmt::Debug for SignatureMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignatureMatrix({}x{}) [", self.rows, self.bits)?;
        for i in 0..self.rows {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "\"{}\"", self.to_bitvec(i))?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random_row(rng: &mut Prng, bits: usize) -> BitVec {
        (0..bits).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn rows_round_trip_across_word_boundaries() {
        let mut rng = Prng::seed_from_u64(11);
        for bits in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
            let rows: Vec<BitVec> = (0..7).map(|_| random_row(&mut rng, bits)).collect();
            let m = SignatureMatrix::from_rows(bits, &rows).unwrap();
            assert_eq!(
                (m.rows(), m.bits(), m.stride()),
                (7, bits, bits.div_ceil(64))
            );
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(m.to_bitvec(i), *row, "bits {bits} row {i}");
                assert_eq!(m.row(i).len(), m.stride());
                for t in 0..bits {
                    assert_eq!(m.bit(i, t), row.bit(t));
                }
            }
            let back = SignatureMatrix::from_words(m.words().to_vec(), 7, bits).unwrap();
            assert_eq!(back, m);
            let part = m.slice(2..5);
            assert_eq!(part.rows(), 3);
            assert_eq!(part.to_bitvec(0), rows[2]);
            assert_eq!(part, SignatureMatrix::from_rows(bits, &rows[2..5]).unwrap());
        }
    }

    #[test]
    fn from_words_clears_stale_tails_and_checks_the_count() {
        let m = SignatureMatrix::from_words(vec![u64::MAX, 0b10], 2, 3).unwrap();
        assert_eq!(m.to_bitvec(0).to_string(), "111");
        assert_eq!(m.words(), &[0b111, 0b10]);
        assert!(matches!(
            SignatureMatrix::from_words(vec![0; 3], 2, 3),
            Err(SddError::CountMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_a_ragged_row() {
        let rows = ["01".parse().unwrap(), "011".parse().unwrap()];
        assert!(matches!(
            SignatureMatrix::from_rows(2, &rows),
            Err(SddError::WidthMismatch {
                expected: 2,
                actual: 3,
                ..
            })
        ));
    }

    #[test]
    fn set_flips_one_bit_and_keeps_tails_zero() {
        let mut m = SignatureMatrix::zeros(3, 70);
        m.set(1, 69, true);
        m.set(2, 0, true);
        assert!(m.bit(1, 69) && m.bit(2, 0) && !m.bit(0, 69));
        m.set(1, 69, false);
        assert!(!m.bit(1, 69));
        assert_eq!(m.words().iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn kernel_matches_masked_distance_on_every_row() {
        let mut rng = Prng::seed_from_u64(7);
        for bits in [0usize, 1, 5, 63, 64, 65, 128, 130] {
            let rows: Vec<BitVec> = (0..9).map(|_| random_row(&mut rng, bits)).collect();
            let m = SignatureMatrix::from_rows(bits, &rows).unwrap();
            let mut observed = MaskedBitVec::from_known(random_row(&mut rng, bits));
            for t in 0..bits {
                if rng.gen_bool(0.3) {
                    observed.mask(t);
                }
            }
            let mut out = vec![99; 2];
            let min = m.masked_mismatches_into(&observed, &mut out).unwrap();
            let expected: Vec<u32> = rows
                .iter()
                .map(|r| observed.distance_to(r).unwrap().mismatches as u32)
                .collect();
            assert_eq!(out, expected, "bits {bits}");
            assert_eq!(min, *expected.iter().min().unwrap());
        }
    }

    #[test]
    fn kernel_rejects_empty_matrices_and_wrong_widths() {
        let mut out = Vec::new();
        let observed: MaskedBitVec = "01".parse().unwrap();
        assert!(matches!(
            SignatureMatrix::zeros(0, 2).masked_mismatches_into(&observed, &mut out),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            SignatureMatrix::zeros(1, 3).masked_mismatches_into(&observed, &mut out),
            Err(SddError::WidthMismatch {
                expected: 3,
                actual: 2,
                ..
            })
        ));
    }

    #[test]
    fn debug_lists_rows() {
        let rows = ["01".parse().unwrap(), "10".parse().unwrap()];
        let m = SignatureMatrix::from_rows(2, &rows).unwrap();
        assert_eq!(format!("{m:?}"), "SignatureMatrix(2x2) [\"01\", \"10\"]");
    }
}
