//! Snapshot format pins: save→load→predict parity (bit-exact, by property
//! test) and typed, panic-free errors for every corruption mode — from the
//! copying loader and from both memory-mapped loaders alike.

use pecan_serve::{
    crc32, demo, inspect_snapshot_bytes, FrozenEngine, SnapshotError, SNAPSHOT_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at {i}: {x} vs {y}");
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn align64(n: usize) -> usize {
    n.div_ceil(64) * 64
}

/// Offset of the model-name length field: right after the directory.
fn name_at(bytes: &[u8]) -> usize {
    20 + 20 * u32_at(bytes, 16) as usize
}

/// Applies `edit` to the header region (without its CRC), then rebuilds a
/// well-formed file around it: `header_len`, the directory offsets and the
/// header CRC are re-stamped, and the sections move if the header grew.
/// Whatever the edit breaks stays broken, but behind a *valid* checksum.
fn edit_header(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let header_len = u32_at(bytes, 12) as usize;
    let sections_at = align64(header_len);
    let mut out = bytes[..header_len - 4].to_vec();
    edit(&mut out);
    let new_len = out.len() + 4;
    out[12..16].copy_from_slice(&(new_len as u32).to_le_bytes());
    let shift = align64(new_len) - sections_at;
    for i in 0..u32_at(&out, 16) as usize {
        let at = 20 + 20 * i;
        let offset = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
        out[at..at + 8].copy_from_slice(&(offset + shift as u64).to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.resize(align64(new_len), 0);
    out.extend_from_slice(&bytes[sections_at..]);
    out
}

/// A linear model small enough that its whole header is shorter than the
/// 4096-byte name limit, and whose file is mostly padding and header.
fn tiny_engine() -> FrozenEngine {
    use pecan_core::{PecanLinear, PecanVariant, PqLayerSettings};
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = pecan_nn::Sequential::new();
    net.push(Box::new(
        PecanLinear::new(&mut rng, PecanVariant::Distance, PqLayerSettings::new(8, 4, 1.0), 16, 5)
            .unwrap(),
    ));
    FrozenEngine::compile(&net, &[16]).unwrap().with_name("tiny")
}

/// Writes `bytes` to a file named after `tag` and returns what the
/// verified and the fast memory-mapped loaders make of it.
fn open_mapped(
    tag: &str,
    bytes: &[u8],
) -> (Result<FrozenEngine, SnapshotError>, Result<FrozenEngine, SnapshotError>) {
    let path =
        std::env::temp_dir().join(format!("pecan-fuzz-{tag}-{}.psnp", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let verified = FrozenEngine::open_snapshot_verified(&path);
    let fast = FrozenEngine::open_snapshot(&path);
    std::fs::remove_file(&path).unwrap();
    (verified, fast)
}

/// Asserts that a mapped loader failed with exactly `want`.
fn same_error(
    got: Result<FrozenEngine, SnapshotError>,
    want: &SnapshotError,
) -> Result<(), TestCaseError> {
    match got {
        Ok(_) => Err(TestCaseError::fail(format!("mapped load passed; copying gave {want:?}"))),
        Err(e) => {
            prop_assert_eq!(e.to_string(), want.to_string());
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reloaded engines answer bit-identically, for MLP and conv models.
    #[test]
    fn save_load_predict_parity(seed in 0u64..5, conv in proptest::bool::ANY) {
        let engine = if conv { demo::lenet_engine(seed) } else { demo::mlp_engine(seed) };
        let bytes = engine.snapshot_bytes();
        let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(engine.input_shape(), reloaded.input_shape());
        prop_assert_eq!(engine.output_shape(), reloaded.output_shape());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for _ in 0..3 {
            let x = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0)
                .into_vec();
            assert_bits_eq(&engine.predict(&x).unwrap(), &reloaded.predict(&x).unwrap());
        }
        // serialization is stable: re-saving the reload is byte-identical
        prop_assert_eq!(bytes, reloaded.snapshot_bytes());
    }

    /// No truncation point panics, every one is a typed error, and both
    /// memory-mapped loaders report the same error as the copying one.
    #[test]
    fn any_truncation_is_a_typed_error(cut_permille in 0u32..1000) {
        let bytes = demo::mlp_engine(1).snapshot_bytes();
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let err = FrozenEngine::from_snapshot_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::Corrupt(_)
            ),
            "truncation at {cut} gave {err:?}"
        );
        let (verified, fast) = open_mapped("truncation", &bytes[..cut]);
        same_error(verified, &err)?;
        same_error(fast, &err)?;
    }

    /// A flip anywhere inside the header region is caught by the header
    /// CRC (or by magic/version gating) before any section is touched —
    /// by every loader, with the same error.
    #[test]
    fn v3_header_flip_is_a_typed_error(pos_permille in 0u32..1000, flip in 1u32..256) {
        let mut bytes = demo::mlp_engine(2).snapshot_bytes();
        let header_len = u32_at(&bytes, 12) as usize;
        let pos = (header_len as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(header_len - 1);
        bytes[pos] ^= flip as u8;
        let err = FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err();
        let (verified, fast) = open_mapped("header-flip", &bytes);
        same_error(verified, &err)?;
        same_error(fast, &err)?;
    }

    /// A flip anywhere inside any *section payload* trips exactly that
    /// section's CRC on the copying and the verified mapped path. (The
    /// fast mapped open skips section CRCs by design.)
    #[test]
    fn v3_section_flip_reports_checksum_mismatch(
        section_seed in proptest::num::u64::ANY,
        pos_permille in 0u32..1000,
        flip in 1u32..256,
    ) {
        let mut bytes = demo::mlp_engine(2).snapshot_bytes();
        let info = inspect_snapshot_bytes(&bytes).unwrap();
        let s = info.sections[(section_seed % info.sections.len() as u64) as usize];
        let pos = s.offset + s.byte_len * u64::from(pos_permille) / 1000;
        let pos = (pos as usize).min((s.offset + s.byte_len) as usize - 1);
        bytes[pos] ^= flip as u8;
        let err = FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err();
        prop_assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }));
        let (verified, _) = open_mapped("section-flip", &bytes);
        same_error(verified, &err)?;
    }
}

/// Every byte of a small file, three masks each: a flip is a typed error,
/// or the byte lies outside every CRC range (padding, which is never read)
/// and the engine answers bit-identically.
#[test]
fn any_flipped_byte_is_a_typed_error() {
    let engine = tiny_engine();
    let clean = engine.snapshot_bytes();
    let info = inspect_snapshot_bytes(&clean).unwrap();
    let header_len = u32_at(&clean, 12) as u64;
    let x: Vec<f32> = (0..engine.input_len()).map(|i| i as f32 * 0.1 - 0.7).collect();
    let want = engine.predict(&x).unwrap();
    let mut accepted = 0;
    for pos in 0..clean.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = clean.clone();
            bytes[pos] ^= mask;
            let Ok(loaded) = FrozenEngine::from_snapshot_bytes(&bytes) else { continue };
            let at = pos as u64;
            assert!(at >= header_len, "flip at {pos} inside the header was accepted");
            assert!(
                info.sections.iter().all(|s| at < s.offset || at >= s.offset + s.byte_len),
                "flip at {pos} inside a section was accepted"
            );
            assert_bits_eq(&loaded.predict(&x).unwrap(), &want);
            accepted += 1;
        }
    }
    assert!(accepted > 0, "the file has padding, so some flips must pass");
}

#[test]
fn corrupt_magic_reports_bad_magic() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::BadMagic
    ));
}

#[test]
fn future_version_reports_unsupported_not_checksum() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found } => {
            assert_eq!(found, SNAPSHOT_VERSION + 7);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn payload_flip_reports_checksum_mismatch() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::ChecksumMismatch { .. }
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    // Extra bytes after the last stage record, inside a header whose
    // length and checksum are consistent: structural, not bit rot.
    let bytes = edit_header(&demo::mlp_engine(1).snapshot_bytes(), |h| h.extend([0u8; 8]));
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("trailing"), "got: {msg}"),
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

#[test]
fn file_length_must_match_the_layout() {
    // The file ends at the first 64-byte boundary after the header and the
    // last section: bytes appended (or padding cut) are corruption, for
    // the copying and both mapped loaders.
    let clean = tiny_engine().snapshot_bytes();
    let last = *inspect_snapshot_bytes(&clean).unwrap().sections.last().unwrap();
    let payload_end = (last.offset + last.byte_len) as usize;
    assert!(payload_end < clean.len(), "the last section must end in padding");
    let mut appended = clean.clone();
    appended.extend([0u8; 64]);
    let mut ragged = clean.clone();
    ragged.extend([0u8; 3]);
    for (tag, bytes) in [
        ("appended", appended),
        ("ragged", ragged),
        ("cut-padding", clean[..payload_end].to_vec()),
    ] {
        let err = FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{tag}: got {err:?}");
        assert!(matches!(inspect_snapshot_bytes(&bytes), Err(SnapshotError::Corrupt(_))));
        let (verified, fast) = open_mapped(tag, &bytes);
        same_error(verified, &err).unwrap();
        same_error(fast, &err).unwrap();
    }
}

#[test]
fn crafted_inconsistent_pipeline_is_rejected_not_a_panic() {
    // A snapshot whose checksum is valid but whose declared input shape
    // does not thread through the stages must fail at *load* time — never
    // at predict time inside a scheduler worker.
    let bytes = edit_header(&demo::mlp_engine(1).snapshot_bytes(), |h| {
        let name_len = u32_at(h, name_at(h)) as usize;
        let dim_at = name_at(h) + 4 + name_len + 4; // first dim after rank
        assert_eq!(u32_at(h, dim_at), 64);
        h[dim_at..dim_at + 4].copy_from_slice(&63u32.to_le_bytes());
    });
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => {
            assert!(msg.contains("carries [63]"), "got: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn v2_round_trips_the_model_name() {
    let engine = demo::mlp_engine(4); // named "mlp"
    assert_eq!(engine.name(), Some("mlp"));
    let bytes = engine.snapshot_bytes();
    let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(reloaded.name(), Some("mlp"));
    // renaming changes only the header, not the model
    let renamed = demo::mlp_engine(4).with_name("mlp-canary");
    let reloaded2 = FrozenEngine::from_snapshot_bytes(&renamed.snapshot_bytes()).unwrap();
    assert_eq!(reloaded2.name(), Some("mlp-canary"));
    let x = vec![0.25f32; engine.input_len()];
    assert_bits_eq(&reloaded.predict(&x).unwrap(), &reloaded2.predict(&x).unwrap());
}

fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    edit_header(bytes, |h| h[8..12].copy_from_slice(&version.to_le_bytes()))
}

#[test]
fn version_0_and_future_versions_are_rejected_with_typed_errors() {
    // Even with a *valid* header checksum, the version gates first.
    let bytes = demo::mlp_engine(1).snapshot_bytes();
    for version in [0, SNAPSHOT_VERSION + 1] {
        match FrozenEngine::from_snapshot_bytes(&with_version(&bytes, version)).unwrap_err() {
            SnapshotError::UnsupportedVersion { found } => assert_eq!(found, version),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn versions_1_and_2_are_rejected_as_unsupported() {
    // This build reads version 3 only; the retired sequential revisions
    // are reported as such, never misparsed as v3.
    let bytes = demo::mlp_engine(1).snapshot_bytes();
    for version in [1, 2] {
        let stamped = with_version(&bytes, version);
        let err = FrozenEngine::from_snapshot_bytes(&stamped).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion { found } if found == version));
        assert!(err.to_string().contains("version 3 only"), "got: {err}");
        assert!(matches!(
            inspect_snapshot_bytes(&stamped),
            Err(SnapshotError::UnsupportedVersion { found }) if found == version
        ));
    }
}

#[test]
fn name_header_corruption_is_typed_never_a_panic() {
    let set_name_len = |bytes: &[u8], len: u32| {
        edit_header(bytes, |h| {
            let at = name_at(h);
            h[at..at + 4].copy_from_slice(&len.to_le_bytes());
        })
    };

    // Declared name length beyond the whole header → truncation. Needs a
    // model small enough that an in-limit length (≤ 4096) overruns it.
    let tiny = tiny_engine().snapshot_bytes();
    assert!(u32_at(&tiny, 12) < 4000, "tiny header must be shorter than the declared name");
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&set_name_len(&tiny, 4000)).unwrap_err(),
        SnapshotError::Truncated { .. }
    ));

    // Absurd declared length → bounded, typed Corrupt (no huge allocation).
    let base = demo::mlp_engine(1).snapshot_bytes();
    match FrozenEngine::from_snapshot_bytes(&set_name_len(&base, u32::MAX)).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("name"), "got: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Length shortened by one: the name eats into the shape fields and the
    // stream no longer lines up — typed error, never a panic.
    let len = u32_at(&base, name_at(&base));
    assert!(FrozenEngine::from_snapshot_bytes(&set_name_len(&base, len - 1)).is_err());

    // Non-UTF-8 name bytes → Corrupt.
    let bytes = edit_header(&base, |h| {
        let first = name_at(h) + 4; // first name byte ("mlp" → invalid sequence)
        h[first] = 0xFF;
    });
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("UTF-8"), "got: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn empty_and_foreign_files_are_rejected() {
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&[]).unwrap_err(),
        SnapshotError::Truncated { .. }
    ));
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(b"#!/bin/sh\necho not a model\n").unwrap_err(),
        SnapshotError::BadMagic
    ));
}

#[test]
fn file_round_trip_through_disk() {
    let engine = demo::lenet_engine(6);
    let dir = std::env::temp_dir().join(format!("pecan-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.psnp");
    engine.save_snapshot(&path).unwrap();
    let reloaded = FrozenEngine::load_snapshot(&path).unwrap();
    let x = vec![0.5f32; engine.input_len()];
    assert_bits_eq(&engine.predict(&x).unwrap(), &reloaded.predict(&x).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();

    // Missing file surfaces as Io, not a panic.
    assert!(matches!(
        FrozenEngine::load_snapshot(dir.join("nope.psnp")).unwrap_err(),
        SnapshotError::Io(_)
    ));
}
