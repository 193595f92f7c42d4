//! Memory-mapped snapshot loading: engines served straight from page cache.
//!
//! [`FrozenEngine::open_snapshot`] maps a snapshot file
//! (`PROT_READ`, `MAP_PRIVATE`) and builds the engine as borrowed views
//! into the mapping — validation happens on the header, the bulk tensors
//! are [`pecan_tensor::Tensor::from_shared`] windows that the kernel pages
//! in on first touch. Cold start is an `mmap` plus a header parse no
//! matter how large the model is, and N processes (or N reloads) of one
//! file share one copy of the weights in page cache. See
//! `docs/snapshot-format.md` for why the v3 layout (64-byte-aligned
//! little-endian sections in runtime layout) makes this possible.
//!
//! The mapping is decoded by the same decoder as the copying loader, so
//! a file either loads identically or fails with the same typed error.
//! On targets without the raw-syscall layer (anything but Linux
//! `x86_64`/`aarch64` — see [`mmap_supported`]), and for files that
//! cannot be mapped, `open_snapshot` transparently falls back to the
//! copying loader [`FrozenEngine::load_snapshot`]: same engine, same bits,
//! just a heap copy.

use crate::engine::FrozenEngine;
use crate::error::SnapshotError;
use std::path::Path;

/// `true` when this build can memory-map snapshots (Linux on `x86_64` or
/// `aarch64` — the same gate as the event-loop front end). Everywhere
/// else [`FrozenEngine::open_snapshot`] silently uses the copying loader.
pub fn mmap_supported() -> bool {
    cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    use crate::error::SnapshotError;
    use crate::http::sys::Mmap;
    use pecan_tensor::F32Source;
    use std::path::Path;
    use std::sync::Arc;

    /// A whole snapshot file held as one read-only memory mapping, shared
    /// (via `Arc`) by every tensor of the engine built over it. The
    /// mapping lives exactly as long as the last tensor viewing it.
    #[derive(Debug)]
    pub struct MappedSnapshot {
        map: Mmap,
    }

    impl MappedSnapshot {
        pub fn open(path: &Path) -> Result<Arc<Self>, SnapshotError> {
            let file = std::fs::File::open(path)?;
            let map = Mmap::map_file(&file)?;
            if map.as_f32s().is_none() {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot length {} is not a multiple of 4",
                    map.as_bytes().len()
                )));
            }
            Ok(Arc::new(Self { map }))
        }

        pub fn bytes(&self) -> &[u8] {
            self.map.as_bytes()
        }

        pub fn prefetch(&self) {
            self.map.advise_willneed();
        }
    }

    impl F32Source for MappedSnapshot {
        fn f32s(&self) -> &[f32] {
            self.map.as_f32s().expect("length checked at open")
        }
    }
}

fn open_inner(path: &Path, verify_sections: bool) -> Result<FrozenEngine, SnapshotError> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    if let Ok(mapped) = imp::MappedSnapshot::open(path) {
        use crate::snapshot::{decode, Storage};
        use pecan_tensor::F32Source;
        use std::sync::Arc;

        if !verify_sections {
            // Warm the page cache in the background; purely advisory, the
            // open itself stays instant.
            mapped.prefetch();
        }
        let owner: Arc<dyn F32Source> = mapped.clone();
        return decode(mapped.bytes(), Storage::Shared { owner: &owner, verify: verify_sections });
    }
    // Unmappable (missing, empty, ragged length, unsupported target): the
    // copying loader reports the same errors and always verifies.
    let _ = verify_sections;
    FrozenEngine::load_snapshot(path)
}

impl FrozenEngine {
    /// Opens a snapshot for serving: on supported targets the file is
    /// memory-mapped and the engine's bulk tensors borrow the mapping
    /// (no bulk copy, no bulk read — the header is validated, weights
    /// fault in on first use). Files that cannot be mapped and unsupported
    /// targets fall back to [`FrozenEngine::load_snapshot`] transparently.
    ///
    /// The fast path checks the header CRC but **not** the per-section
    /// CRCs (checking them would read every byte, defeating the instant
    /// cold start). Use [`FrozenEngine::open_snapshot_verified`] or
    /// `snapshot-tool verify` when integrity matters more than latency.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see that type's docs.
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        open_inner(path.as_ref(), false)
    }

    /// Like [`FrozenEngine::open_snapshot`], but also verifies every
    /// section CRC before returning (reads the whole file once; the
    /// engine still borrows the mapping afterwards).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see that type's docs.
    pub fn open_snapshot_verified(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        open_inner(path.as_ref(), true)
    }

    /// `true` when any of the engine's bulk tensors is a borrowed view
    /// into shared storage (a memory-mapped snapshot) rather than a heap
    /// copy.
    pub fn uses_shared_storage(&self) -> bool {
        self.stages
            .iter()
            .filter_map(|s| s.lut())
            .any(|l| l.cam_rows().iter().any(|t| t.is_shared()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pecan-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_snapshot_matches_copying_loader_bit_for_bit() {
        let dir = tmp_dir("open");
        for engine in [demo::mlp_engine(11), demo::lenet_engine(11)] {
            let path = dir.join(format!("{}.psnp", engine.name().unwrap()));
            engine.save_snapshot(&path).unwrap();
            let copied = FrozenEngine::load_snapshot(&path).unwrap();
            let opened = FrozenEngine::open_snapshot(&path).unwrap();
            let verified = FrozenEngine::open_snapshot_verified(&path).unwrap();
            assert!(!copied.uses_shared_storage());
            if mmap_supported() {
                assert!(opened.uses_shared_storage(), "v3 open must borrow the mapping");
                assert!(verified.uses_shared_storage());
            }
            let x = vec![0.375f32; engine.input_len()];
            let want = engine.predict(&x).unwrap();
            assert_eq!(copied.predict(&x).unwrap(), want);
            assert_eq!(opened.predict(&x).unwrap(), want);
            assert_eq!(verified.predict(&x).unwrap(), want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_snapshot_rejects_old_versions_and_reports_missing_files() {
        let dir = tmp_dir("open-old");
        let mut bytes = demo::mlp_engine(12).snapshot_bytes();
        for old in [1u32, 2] {
            let path = dir.join(format!("mlp-v{old}.psnp"));
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            for open in [FrozenEngine::open_snapshot, FrozenEngine::open_snapshot_verified] {
                assert!(matches!(
                    open(&path),
                    Err(SnapshotError::UnsupportedVersion { found }) if found == old
                ));
            }
        }
        assert!(matches!(
            FrozenEngine::open_snapshot(dir.join("nope.psnp")),
            Err(SnapshotError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verified_open_catches_section_corruption() {
        let dir = tmp_dir("open-verify");
        let engine = demo::mlp_engine(13);
        let path = dir.join("mlp.psnp");
        let mut bytes = engine.snapshot_bytes();
        let info = crate::snapshot::inspect_snapshot_bytes(&bytes).unwrap();
        let s = info.sections[info.sections.len() / 2];
        bytes[s.offset as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FrozenEngine::open_snapshot_verified(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        if mmap_supported() {
            // The fast open accepts it by design — the header is intact.
            assert!(FrozenEngine::open_snapshot(&path).is_ok());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
