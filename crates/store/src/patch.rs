//! In-place column patching of same/different `.sddb` artifacts — the
//! store half of ECO (`sdd patch`) support.
//!
//! An ECO leaves most of a dictionary untouched: only the *touched tests*
//! (those whose response partition changed) need new data, and for each the
//! delta is one **column** — the test's baseline class, its baseline output
//! vector, and bit `t` of every fault's signature row. This module applies
//! such column patches directly to the serialized image through the per-
//! fault row index, instead of re-encoding the dictionary from scratch:
//!
//! * whole `.sddb` files are patched in memory and atomically replaced;
//! * sharded sets rewrite **only the shards whose bytes actually change**,
//!   under generation-suffixed names (`<base>.p<N>.sddb`), then commit the
//!   manifest last — a crash at any point leaves either the old complete
//!   set or the new complete set loadable, never a mix.
//!
//! Every rewritten image gets its payload checksum recomputed and its
//! header's patch generation bumped, so provenance survives in the file
//! itself (see [`crate::strip_patch_provenance`] for the canonical form
//! used in patched-vs-rebuilt equivalence checks).

use std::fs;
use std::io::Read;
use std::path::Path;

use sdd_logic::{BitVec, SddError};

use crate::format::{checked_add, checked_mul, Header, HEADER_LEN};
use crate::manifest::{ShardManifest, ShardRecord, ShardedReader};
use crate::{atomic_write, format, read_dictionary_file, DictionaryKind, SddbReader};

/// The full replacement column for one touched test of a same/different
/// dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdColumnPatch {
    /// Test index `t` (column to replace).
    pub test: usize,
    /// New baseline response class of test `t`.
    pub baseline_class: u32,
    /// New baseline output vector of test `t` (`m` bits).
    pub baseline: BitVec,
    /// New signature bits of test `t` for **all** faults, in global
    /// collapsed order (`n` bits — sliced per shard automatically).
    pub column: BitVec,
}

/// What a patch application did, summed across every image it touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Number of column patches applied.
    pub tests_patched: usize,
    /// Signature bits whose stored value actually flipped.
    pub bits_flipped: u64,
    /// Touched tests whose baseline class or vector actually changed.
    pub baseline_changes: usize,
    /// Files rewritten (1 for a whole `.sddb`, per-shard otherwise).
    pub files_rewritten: usize,
    /// Total data files in the artifact (1 for a whole `.sddb`).
    pub files_total: usize,
    /// Highest patch generation now recorded in a rewritten header, or the
    /// existing generation when nothing changed.
    pub generation: u32,
}

impl PatchStats {
    /// `true` when the patch changed any stored byte.
    pub fn changed(&self) -> bool {
        self.files_rewritten > 0
    }
}

/// Per-image byte delta from [`apply`].
#[derive(Debug, Default)]
struct ImageDelta {
    bits_flipped: u64,
    baseline_changes: usize,
    bytes_changed: u64,
}

impl ImageDelta {
    fn changed(&self) -> bool {
        self.bytes_changed > 0
    }
}

/// Applies column patches to one validated same/different image in memory.
///
/// `fault_start` maps the image's local fault rows into the patches'
/// global fault order (0 for a whole file, the shard's `fault_start`
/// otherwise); `total_faults` is the global `n` every patch column must be
/// exactly as wide as. The header is *not* updated — see [`finalize`].
fn apply(
    image: &mut [u8],
    patches: &[SdColumnPatch],
    fault_start: usize,
    total_faults: usize,
) -> Result<ImageDelta, SddError> {
    let header = *SddbReader::open(&*image)?.header();
    if header.kind != DictionaryKind::SameDifferent {
        return Err(SddError::invalid(format!(
            "column patching is only defined for same-different dictionaries, \
             found a {} dictionary",
            header.kind.name()
        )));
    }
    let (k, n, m) = (header.tests, header.faults, header.outputs);
    let baseline_bytes = checked_mul(m.div_ceil(64), 8, "baseline row length")?;
    let baselines_start = checked_mul(k, 4, "baseline class table")?;
    let index_start = checked_add(
        baselines_start,
        checked_mul(k, baseline_bytes, "baseline table")?,
        "signature index offset",
    )?;
    let row_bytes = checked_mul(k.div_ceil(64), 8, "signature row length")?;
    // Row offsets come from the stored index, not arithmetic, mirroring the
    // reader: the same entries `SddbReader::signature` trusts.
    let payload_len = image.len() - HEADER_LEN;
    let mut offsets = Vec::with_capacity(n);
    for fault in 0..n {
        let at = checked_add(
            index_start,
            checked_mul(fault, 8, "signature index entry")?,
            "signature index entry",
        )?;
        let raw = u64::from_le_bytes(
            image[HEADER_LEN + at..HEADER_LEN + at + 8]
                .try_into()
                .unwrap(),
        );
        let offset = usize::try_from(raw)
            .map_err(|_| SddError::invalid(format!("row offset {raw} exceeds usize")))?;
        if checked_add(offset, row_bytes, "signature row end")? > payload_len {
            return Err(SddError::Truncated {
                context: "signature row",
                expected: offset + row_bytes,
                actual: payload_len,
            });
        }
        offsets.push(HEADER_LEN + offset);
    }
    let mut delta = ImageDelta::default();
    for patch in patches {
        if patch.test >= k {
            return Err(SddError::invalid(format!(
                "patch test {} out of range ({k} tests)",
                patch.test
            )));
        }
        if patch.baseline.len() != m {
            return Err(SddError::WidthMismatch {
                context: "patch baseline",
                expected: m,
                actual: patch.baseline.len(),
            });
        }
        if patch.column.len() != total_faults {
            return Err(SddError::WidthMismatch {
                context: "patch signature column",
                expected: total_faults,
                actual: patch.column.len(),
            });
        }
        // Baseline class (u32 at 4·t) and baseline vector.
        let mut meta_changed = false;
        let class_at = HEADER_LEN + 4 * patch.test;
        let new_class = patch.baseline_class.to_le_bytes();
        if image[class_at..class_at + 4] != new_class {
            image[class_at..class_at + 4].copy_from_slice(&new_class);
            meta_changed = true;
            delta.bytes_changed += 4;
        }
        let baseline_at = HEADER_LEN + baselines_start + patch.test * baseline_bytes;
        for (word_index, word) in patch.baseline.as_words().enumerate() {
            let at = baseline_at + word_index * 8;
            let new = word.to_le_bytes();
            if image[at..at + 8] != new {
                image[at..at + 8].copy_from_slice(&new);
                meta_changed = true;
                delta.bytes_changed += 8;
            }
        }
        if meta_changed {
            delta.baseline_changes += 1;
        }
        // Bit t of every local fault's signature row. In the little-endian
        // word layout, bit t of a row lives at byte t/8, mask 1 << (t%8).
        let (byte, mask) = (patch.test / 8, 1u8 << (patch.test % 8));
        for (fault, &row) in offsets.iter().enumerate() {
            let desired = patch.column.bit(fault_start + fault);
            let current = image[row + byte] & mask != 0;
            if desired != current {
                image[row + byte] ^= mask;
                delta.bits_flipped += 1;
                delta.bytes_changed += 1;
            }
        }
    }
    Ok(delta)
}

/// Recomputes a patched image's payload checksum, bumps its patch
/// generation (saturating at `u32::MAX`), and rewrites the header.
/// Returns the new generation.
fn finalize(image: &mut [u8]) -> Result<u32, SddError> {
    let mut header = Header::decode(image)?;
    header.payload_checksum = format::fnv1a64(&image[HEADER_LEN..]);
    header.patched = header.patched.saturating_add(1);
    image[..HEADER_LEN].copy_from_slice(&header.encode());
    Ok(header.patched)
}

/// The generation-suffixed shard name a rewrite commits under: the base
/// name with any existing `.p<N>` generation suffix replaced by the new
/// one, e.g. `dict.000.sddb → dict.000.p1.sddb → dict.000.p2.sddb`.
fn generation_name(file: &str, generation: u32) -> String {
    let base = file.strip_suffix(".sddb").unwrap_or(file);
    let base = match base.rfind(".p") {
        Some(pos)
            if pos + 2 < base.len() && base[pos + 2..].chars().all(|c| c.is_ascii_digit()) =>
        {
            &base[..pos]
        }
        _ => base,
    };
    format!("{base}.p{generation}.sddb")
}

/// Patches a whole same/different `.sddb` file in place (atomically: the
/// patched image is staged and renamed over the original). A patch that
/// changes no stored byte leaves the file untouched, generation included.
///
/// # Errors
///
/// Every [`SddbReader::open`] error for a corrupt file, plus
/// [`SddError::Invalid`] / [`SddError::WidthMismatch`] for patches that do
/// not fit the artifact, and [`SddError::Io`] on write failure.
pub fn patch_file(
    path: impl AsRef<Path>,
    patches: &[SdColumnPatch],
) -> Result<PatchStats, SddError> {
    let path = path.as_ref();
    let mut image = read_dictionary_file(path)?;
    let faults = Header::decode(&image)?.faults;
    let delta = apply(&mut image, patches, 0, faults)?;
    let mut stats = PatchStats {
        tests_patched: patches.len(),
        bits_flipped: delta.bits_flipped,
        baseline_changes: delta.baseline_changes,
        files_rewritten: 0,
        files_total: 1,
        generation: Header::decode(&image)?.patched,
    };
    if delta.changed() {
        stats.generation = finalize(&mut image)?;
        stats.files_rewritten = 1;
        atomic_write(path, &image)?;
    }
    Ok(stats)
}

/// Patches a sharded same/different set: every shard whose bytes change is
/// rewritten under a fresh generation-suffixed name, the manifest is
/// committed **last** (atomically), and only then are the replaced shard
/// files best-effort deleted. A crash before the manifest commit leaves
/// the old set fully loadable (new-generation files are invisible to it);
/// a crash after leaves the new set fully loadable. Shards the ECO did not
/// touch — no flipped bits, no baseline change — keep their files verbatim.
///
/// # Errors
///
/// As [`patch_file`], plus every [`ShardedReader::open`] manifest error.
pub fn patch_sharded(
    manifest_path: impl AsRef<Path>,
    patches: &[SdColumnPatch],
) -> Result<PatchStats, SddError> {
    let manifest_path = manifest_path.as_ref();
    let reader = ShardedReader::open(manifest_path)?;
    let manifest = reader.manifest();
    if manifest.kind != DictionaryKind::SameDifferent {
        return Err(SddError::invalid(format!(
            "column patching is only defined for same-different dictionaries, \
             found a {} manifest",
            manifest.kind.name()
        )));
    }
    let dir = reader.dir().to_path_buf();
    let mut stats = PatchStats {
        tests_patched: patches.len(),
        files_total: manifest.shards.len(),
        ..PatchStats::default()
    };
    let mut records = Vec::with_capacity(manifest.shards.len());
    let mut replaced = Vec::new();
    for record in &manifest.shards {
        let path = dir.join(&record.file);
        let mut image = read_dictionary_file(&path)?;
        let delta = apply(&mut image, patches, record.fault_start, manifest.faults)?;
        stats.bits_flipped += delta.bits_flipped;
        // Baselines are duplicated in every shard, so the first shard's
        // delta reports the baseline change count exactly once.
        if record.fault_start == 0 {
            stats.baseline_changes = delta.baseline_changes;
        }
        if !delta.changed() {
            records.push(record.clone());
            continue;
        }
        let generation = finalize(&mut image)?;
        let file = generation_name(&record.file, generation);
        atomic_write(dir.join(&file), &image)?;
        let header = Header::decode(&image)?;
        records.push(ShardRecord {
            file,
            payload_checksum: header.payload_checksum,
            ..record.clone()
        });
        replaced.push(path);
        stats.files_rewritten += 1;
        stats.generation = stats.generation.max(generation);
    }
    if stats.files_rewritten == 0 {
        return Ok(stats);
    }
    let new_manifest = ShardManifest {
        shards: records,
        ..manifest.clone()
    };
    // Round-trip before commit so a just-patched manifest is guaranteed
    // readable, exactly like `write_sharded`.
    let encoded = new_manifest.encode()?;
    ShardManifest::decode(&encoded)?;
    atomic_write(manifest_path, &encoded)?;
    for old in replaced {
        let _ = fs::remove_file(old);
    }
    Ok(stats)
}

/// Patches either artifact form at `path`, sniffing the magic bytes: a
/// `.sddm` manifest routes to [`patch_sharded`], anything else to
/// [`patch_file`].
///
/// # Errors
///
/// [`SddError::Io`] when the file cannot be opened, otherwise as the
/// routed function.
pub fn patch_artifact(
    path: impl AsRef<Path>,
    patches: &[SdColumnPatch],
) -> Result<PatchStats, SddError> {
    let path = path.as_ref();
    let mut magic = [0u8; 4];
    let mut file =
        fs::File::open(path).map_err(|e| SddError::io(path.display().to_string(), &e))?;
    let mut filled = 0;
    while filled < magic.len() {
        match file.read(&mut magic[filled..]) {
            Ok(0) => break,
            Ok(read) => filled += read,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SddError::io(path.display().to_string(), &e)),
        }
    }
    drop(file);
    if crate::is_manifest(&magic[..filled]) {
        patch_sharded(path, patches)
    } else {
        patch_file(path, patches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        decode, encode, load, save, strip_patch_provenance, write_sharded, StoredDictionary,
    };
    use sdd_core::SameDifferentDictionary;

    fn dictionaries() -> (SameDifferentDictionary, SameDifferentDictionary) {
        let matrix = sdd_core::example::paper_example();
        (
            SameDifferentDictionary::build(&matrix, &[2, 1]),
            SameDifferentDictionary::build(&matrix, &[2, 0]),
        )
    }

    /// The column patch that turns `from` into `to` at `test`.
    fn column_patch(to: &SameDifferentDictionary, test: usize) -> SdColumnPatch {
        let mut column = BitVec::zeros(to.fault_count());
        for fault in 0..to.fault_count() {
            column.set(fault, to.signatures().bit(fault, test));
        }
        SdColumnPatch {
            test,
            baseline_class: to.baseline_classes()[test],
            baseline: to.baseline(test).clone(),
            column,
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sdd-patch-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_whole_file_patch_is_bit_identical_to_the_target() {
        let (old, new) = dictionaries();
        let dir = temp_dir("whole");
        let path = dir.join("dict.sddb");
        save(&path, &StoredDictionary::SameDifferent(old.clone())).unwrap();
        let stats = patch_file(&path, &[column_patch(&new, 1)]).unwrap();
        assert!(stats.changed());
        assert_eq!(stats.generation, 1);
        assert!(stats.bits_flipped > 0);
        assert_eq!(stats.baseline_changes, 1);
        let patched = std::fs::read(&path).unwrap();
        assert_eq!(Header::decode(&patched).unwrap().patched, 1);
        // Identical to a from-scratch encode once provenance is stripped.
        let rebuilt = encode(&StoredDictionary::SameDifferent(new.clone())).unwrap();
        assert_eq!(
            strip_patch_provenance(&patched).unwrap(),
            strip_patch_provenance(&rebuilt).unwrap()
        );
        assert_eq!(load(&path).unwrap(), StoredDictionary::SameDifferent(new));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_no_op_patch_leaves_the_file_untouched() {
        let (old, _) = dictionaries();
        let dir = temp_dir("noop");
        let path = dir.join("dict.sddb");
        save(&path, &StoredDictionary::SameDifferent(old.clone())).unwrap();
        let before = std::fs::read(&path).unwrap();
        let stats = patch_file(&path, &[column_patch(&old, 0)]).unwrap();
        assert!(!stats.changed());
        assert_eq!(stats.generation, 0);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sharded_patch_rewrites_generation_named_shards_and_commits_the_manifest_last() {
        let (old, new) = dictionaries();
        let dir = temp_dir("sharded");
        let path = dir.join("dict.sddm");
        write_sharded(
            &path,
            &StoredDictionary::SameDifferent(old.clone()),
            &[0..2, 2..4],
            None,
        )
        .unwrap();
        let stats = patch_artifact(&path, &[column_patch(&new, 1)]).unwrap();
        // The baseline changed, so *every* shard is rewritten.
        assert_eq!(stats.files_rewritten, 2);
        assert_eq!(stats.baseline_changes, 1);
        assert_eq!(stats.generation, 1);
        let reader = ShardedReader::open(&path).unwrap();
        assert_eq!(reader.manifest().shards[0].file, "dict.000.p1.sddb");
        assert_eq!(reader.manifest().shards[1].file, "dict.001.p1.sddb");
        assert!(!dir.join("dict.000.sddb").exists(), "old shard deleted");
        // Reassembling the shards yields exactly the target dictionary.
        let (StoredDictionary::SameDifferent(s0), StoredDictionary::SameDifferent(s1)) =
            (reader.load_shard(0).unwrap(), reader.load_shard(1).unwrap())
        else {
            panic!("kind preserved");
        };
        let mut signatures: Vec<_> = (0..2).map(|f| s0.signature(f)).collect();
        signatures.extend((0..2).map(|f| s1.signature(f)));
        let reassembled = SameDifferentDictionary::from_parts(
            signatures,
            (0..2).map(|t| s0.baseline(t).clone()).collect(),
            s0.baseline_classes().to_vec(),
            new.sizes().outputs as usize,
        )
        .unwrap();
        assert_eq!(reassembled, new);
        // A second patch back to the original advances the generation.
        let stats = patch_artifact(&path, &[column_patch(&old, 1)]).unwrap();
        assert_eq!(stats.generation, 2);
        let reader = ShardedReader::open(&path).unwrap();
        assert_eq!(reader.manifest().shards[0].file, "dict.000.p2.sddb");
        assert!(!dir.join("dict.000.p1.sddb").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cone_local_eco_keeps_untouched_shards_verbatim() {
        // Flip one signature bit of fault 3 only: shard 0 (faults 0..2) has
        // no byte to change and must keep its file, name and all.
        let (old, _) = dictionaries();
        let dir = temp_dir("skip");
        let path = dir.join("dict.sddm");
        write_sharded(
            &path,
            &StoredDictionary::SameDifferent(old.clone()),
            &[0..2, 2..4],
            None,
        )
        .unwrap();
        let mut patch = column_patch(&old, 0);
        let flipped = !patch.column.bit(3);
        patch.column.set(3, flipped);
        let stats = patch_sharded(&path, &[patch]).unwrap();
        assert_eq!(stats.files_rewritten, 1);
        assert_eq!(stats.bits_flipped, 1);
        assert_eq!(stats.baseline_changes, 0);
        let reader = ShardedReader::open(&path).unwrap();
        assert_eq!(reader.manifest().shards[0].file, "dict.000.sddb");
        assert_eq!(reader.manifest().shards[1].file, "dict.001.p1.sddb");
        reader.load_shard(0).unwrap();
        reader.load_shard(1).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misfit_patches_and_kinds_are_typed_errors() {
        let (old, _) = dictionaries();
        let dir = temp_dir("errors");
        let sd = dir.join("dict.sddb");
        save(&sd, &StoredDictionary::SameDifferent(old.clone())).unwrap();
        let mut patch = column_patch(&old, 0);
        patch.test = 9;
        assert!(matches!(
            patch_file(&sd, &[patch.clone()]),
            Err(SddError::Invalid { .. })
        ));
        patch.test = 0;
        patch.column = BitVec::zeros(1);
        assert!(matches!(
            patch_file(&sd, &[patch]),
            Err(SddError::WidthMismatch { .. })
        ));
        let pf = dir.join("pf.sddb");
        let matrix = sdd_core::example::paper_example();
        save(
            &pf,
            &StoredDictionary::PassFail(sdd_core::PassFailDictionary::build(&matrix)),
        )
        .unwrap();
        let err = patch_file(&pf, &[column_patch(&old, 0)]).unwrap_err();
        assert!(err.to_string().contains("same-different"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_names_replace_rather_than_stack() {
        assert_eq!(generation_name("d.000.sddb", 1), "d.000.p1.sddb");
        assert_eq!(generation_name("d.000.p1.sddb", 2), "d.000.p2.sddb");
        assert_eq!(generation_name("d.000.p12.sddb", 13), "d.000.p13.sddb");
        // A non-numeric ".p" suffix is part of the base name, not a
        // generation marker.
        assert_eq!(generation_name("d.px.sddb", 1), "d.px.p1.sddb");
    }

    #[test]
    fn patched_files_round_trip_through_decode() {
        let (old, new) = dictionaries();
        let dir = temp_dir("roundtrip");
        let path = dir.join("dict.sddb");
        save(&path, &StoredDictionary::SameDifferent(old.clone())).unwrap();
        patch_file(&path, &[column_patch(&new, 1)]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // The patched checksum is valid and the image decodes cleanly.
        assert_eq!(
            decode(&bytes).unwrap(),
            StoredDictionary::SameDifferent(new)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
