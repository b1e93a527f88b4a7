//! Payload assembly: each dictionary kind serialized to its `.sddb` payload.
//!
//! Section layout per kind (offsets relative to the payload start, which is
//! byte 64 of the file):
//!
//! * **Pass/fail** — `[row index: n×u64] [signature rows: n × ⌈k/64⌉×u64]`.
//! * **Same/different** — `[baseline classes: k×u32] [baselines: k ×
//!   ⌈m/64⌉×u64] [row index: n×u64] [signature rows: n × ⌈k/64⌉×u64]`.
//! * **Full** — `[good responses: k × ⌈m/64⌉×u64] [class matrix: k·n×u32]
//!   [table index: k×u64] [per-test distinct tables]`, where each table is
//!   `class_count:u32` followed by `class_count` diff lists
//!   (`len:u32, len×u32` flipped-output positions).
//!
//! The row index is redundant for the fixed-width signature rows of v1 —
//! offsets are computable — but it is what lets a reader load single rows
//! without trusting arithmetic on dimensions, and it keeps the format stable
//! if a later version compresses rows to variable width.
//!
//! Every count written into a fixed-width field and every offset computed
//! here goes through a checked conversion: the read side already refuses to
//! trust unvalidated arithmetic, and the write side must not silently
//! truncate what the read side would then faithfully mis-serve.

use sdd_core::{FullDictionary, PassFailDictionary, SameDifferentDictionary};
use sdd_logic::{SddError, SignatureMatrix};

use crate::format::{
    checked_add, checked_mul, push_bit_row, push_u32, push_u64, Header, HEADER_LEN,
};
use crate::{format, DictionaryKind, StoredDictionary};

/// `value as u32` that refuses to truncate, surfacing the field that
/// overflowed as a typed [`SddError::TooLarge`].
pub(crate) fn checked_u32(value: usize, context: &'static str) -> Result<u32, SddError> {
    u32::try_from(value).map_err(|_| SddError::TooLarge {
        context,
        max: u64::from(u32::MAX),
        actual: value as u64,
    })
}

/// Serializes any dictionary into a complete `.sddb` byte image
/// (header + checksummed payload), with a patch generation of 0.
///
/// # Errors
///
/// [`SddError::TooLarge`] when a count or offset exceeds its fixed-width
/// field, and [`SddError::Invalid`] when a section offset overflows `usize`.
pub fn encode(dictionary: &StoredDictionary) -> Result<Vec<u8>, SddError> {
    let (kind, tests, faults, outputs, payload) = match dictionary {
        StoredDictionary::PassFail(d) => (
            DictionaryKind::PassFail,
            d.test_count(),
            d.fault_count(),
            d.sizes().outputs as usize,
            pass_fail_payload(d)?,
        ),
        StoredDictionary::SameDifferent(d) => (
            DictionaryKind::SameDifferent,
            d.test_count(),
            d.fault_count(),
            d.sizes().outputs as usize,
            same_different_payload(d)?,
        ),
        StoredDictionary::Full(d) => (
            DictionaryKind::Full,
            d.test_count(),
            d.fault_count(),
            d.matrix().output_count(),
            full_payload(d)?,
        ),
    };
    let header = Header {
        kind,
        tests,
        faults,
        outputs,
        payload_len: payload.len(),
        payload_checksum: format::fnv1a64(&payload),
        patched: 0,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Appends a row index (`count` × u64 offsets of fixed-width rows starting
/// at `rows_start`) followed by nothing — rows are pushed by the caller.
fn push_row_index(
    out: &mut Vec<u8>,
    count: usize,
    rows_start: usize,
    row_bytes: usize,
) -> Result<(), SddError> {
    for row in 0..count {
        let offset = checked_add(
            rows_start,
            checked_mul(row, row_bytes, "row offset")?,
            "row offset",
        )?;
        push_u64(out, offset as u64);
    }
    Ok(())
}

/// Appends every signature row, fault order. The matrix is row-major with
/// zeroed tails, so its word image *is* the v1 row section.
fn push_signature_rows(out: &mut Vec<u8>, signatures: &SignatureMatrix) {
    for &word in signatures.words() {
        push_u64(out, word);
    }
}

fn pass_fail_payload(d: &PassFailDictionary) -> Result<Vec<u8>, SddError> {
    let n = d.fault_count();
    let row_bytes = d.test_count().div_ceil(64) * 8;
    let index_bytes = checked_mul(n, 8, "row index length")?;
    let mut out = Vec::with_capacity(index_bytes + n * row_bytes);
    push_row_index(&mut out, n, index_bytes, row_bytes)?;
    push_signature_rows(&mut out, d.signatures());
    Ok(out)
}

fn same_different_payload(d: &SameDifferentDictionary) -> Result<Vec<u8>, SddError> {
    let k = d.test_count();
    let n = d.fault_count();
    let baseline_bytes = (d.sizes().outputs as usize).div_ceil(64) * 8;
    let row_bytes = k.div_ceil(64) * 8;
    let index_start = checked_add(
        checked_mul(k, 4, "baseline class section")?,
        checked_mul(k, baseline_bytes, "baseline section")?,
        "row index start",
    )?;
    let rows_start = checked_add(
        index_start,
        checked_mul(n, 8, "row index length")?,
        "signature section start",
    )?;
    let mut out = Vec::with_capacity(rows_start + n * row_bytes);
    for &class in d.baseline_classes() {
        push_u32(&mut out, class);
    }
    for test in 0..k {
        push_bit_row(&mut out, d.baseline(test));
    }
    push_row_index(&mut out, n, rows_start, row_bytes)?;
    push_signature_rows(&mut out, d.signatures());
    Ok(out)
}

fn full_payload(d: &FullDictionary) -> Result<Vec<u8>, SddError> {
    let m = d.matrix();
    let k = m.test_count();
    let n = m.fault_count();
    // Distinct tables first, into a scratch buffer, recording each test's
    // offset relative to the tables section.
    let mut tables = Vec::new();
    let mut table_offsets = Vec::with_capacity(k);
    for test in 0..k {
        table_offsets.push(tables.len());
        let classes = checked_u32(m.class_count(test), "class count")?;
        push_u32(&mut tables, classes);
        for class in 0..classes {
            let diffs = m.class_diffs(test, class);
            push_u32(&mut tables, checked_u32(diffs.len(), "diff list length")?);
            for &pos in diffs {
                push_u32(&mut tables, pos);
            }
        }
    }
    let good_bytes = m.output_count().div_ceil(64) * 8;
    let tables_start = checked_add(
        checked_add(
            checked_mul(k, good_bytes, "good response section")?,
            checked_mul(
                checked_mul(k, n, "class matrix entries")?,
                4,
                "class matrix section",
            )?,
            "table index start",
        )?,
        checked_mul(k, 8, "table index length")?,
        "tables section start",
    )?;
    let mut out = Vec::with_capacity(tables_start + tables.len());
    for test in 0..k {
        push_bit_row(&mut out, m.good_response(test));
    }
    for test in 0..k {
        for &class in m.classes(test) {
            push_u32(&mut out, class);
        }
    }
    for offset in table_offsets {
        let offset = checked_add(tables_start, offset, "table offset")?;
        push_u64(&mut out, offset as u64);
    }
    out.extend_from_slice(&tables);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_u32_accepts_the_boundary_and_rejects_past_it() {
        // The largest dictionaries that fit in memory cannot push class or
        // diff counts past u32 end to end, so the boundary is forced at the
        // conversion the write path funnels every such count through.
        assert_eq!(
            checked_u32(u32::MAX as usize, "class count").unwrap(),
            u32::MAX
        );
        let err = checked_u32(u32::MAX as usize + 1, "class count").unwrap_err();
        assert_eq!(
            err,
            SddError::TooLarge {
                context: "class count",
                max: u64::from(u32::MAX),
                actual: u64::from(u32::MAX) + 1,
            }
        );
        assert!(err.to_string().contains("class count"));
    }
}
