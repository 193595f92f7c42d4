//! Endian-stable binary model snapshots: one format, version 3.
//!
//! A snapshot captures a compiled [`FrozenEngine`] exactly: per-stage CAM
//! prototype rows, precomputed `W·C` lookup tables and biases, all as
//! little-endian IEEE-754 bit patterns. Loading rebuilds the engine without
//! any recomputation, so a reloaded engine's outputs are **bit-identical**
//! to the saved one's — `tests/snapshot_roundtrip.rs` pins
//! save→load→predict parity by property test.
//!
//! The normative byte-level specification lives in
//! [`docs/snapshot-format.md`] — this module doc is the summary.
//!
//! [`docs/snapshot-format.md`]: https://github.com/pecan/pecan/blob/main/docs/snapshot-format.md
//!
//! # Format
//!
//! All integers little-endian; `f32` as raw LE bit patterns. The file is a
//! self-checksummed header followed by 64-byte-aligned bulk **sections**
//! addressed by a directory, stored in the engine's *runtime* layout (CAM
//! rows `[p, d]`, tables `[cout, p]`) so a loader can construct the engine
//! over a borrowed byte buffer — e.g. a memory-mapped file — with **no bulk
//! copy** ([`FrozenEngine::open_snapshot`]):
//!
//! ```text
//! magic          8 × u8   "PECANSNP"
//! version        u32      3
//! header_len     u32      bytes [0, header_len) are the header region
//! section count  u32
//! directory      count × { offset u64, byte_len u64, crc u32 }
//! model name     u32 len + UTF-8 bytes; 0 = unnamed
//! input dims     u32 rank, then that many u32 dims
//! output dims    u32 rank, then that many u32 dims
//! stage count    u32
//! stages…                 tagged (u8); every bulk f32 blob is replaced
//!                         by the u32 index of its section
//! header CRC     u32      CRC-32 over bytes [0, header_len - 4)
//! zero padding            to the next 64-byte boundary
//! sections…               raw LE f32, each 64-byte aligned, zero-padded;
//!                         the file ends at the first 64-byte boundary
//!                         after the header and every section
//! ```
//!
//! Every section carries its own CRC-32 in the directory: the copying
//! loader checks them all; the zero-copy loader checks the header eagerly
//! and leaves section verification to [`FrozenEngine::open_snapshot_verified`]
//! or the `snapshot-tool verify` command, so an open does not have to fault
//! in the bulk data (instant cold start). Both run the same decoder; they
//! differ only in whether a section becomes an owned copy or a borrowed
//! window.
//!
//! This build reads and writes version 3 only: any other version is
//! rejected with a typed [`SnapshotError::UnsupportedVersion`].
//!
//! Stage tags: `0` ReLU · `1` MaxPool (`kernel`, `stride` as u32) · `2`
//! GlobalAvgPool · `3` Flatten · `4` PECAN conv · `5` PECAN linear. PECAN
//! payloads carry `variant` (u8: 0 = Distance, 1 = Angle), `dim`,
//! `groups`, `prototypes` (u32), `tau` (f32), `c_out` (u32), a bias flag
//! (u8), conv-only geometry (`c_in`, `h_in`, `w_in`, `kernel`, `stride`,
//! `padding` as u32), then per group the section indices of the `[p, d]`
//! CAM rows and the `[c_out, p]` table, then the bias section when flagged.
//!
//! Every decoding failure is a typed [`SnapshotError`] — truncation,
//! flipped bits (checksum), foreign files (magic), other versions,
//! structural nonsense (with a *valid* checksum) and trailing bytes all
//! surface as errors, never panics.

use crate::engine::FrozenEngine;
use crate::error::SnapshotError;
use crate::stage::{
    FlattenStage, GlobalAvgPoolStage, LutConvStage, LutLinearStage, MaxPoolStage, ReluStage,
    Stage,
};
use pecan_cam::LookupTable;
use pecan_core::{LayerLut, PecanVariant};
use pecan_pq::PqConfig;
use pecan_tensor::{Conv2dGeometry, F32Source, Tensor};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PECANSNP";
/// The format revision this build writes, and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Alignment of every section (and of the file length).
pub const SECTION_ALIGN: usize = 64;

const TAG_RELU: u8 = 0;
const TAG_MAXPOOL: u8 = 1;
const TAG_GAP: u8 = 2;
const TAG_FLATTEN: u8 = 3;
const TAG_CONV: u8 = 4;
const TAG_LINEAR: u8 = 5;

/// Smallest possible header: magic(8) + version(4) + header_len(4) +
/// section count(4) + header CRC(4).
const MIN_HEADER: usize = 24;

/// Longest accepted model-name header, in bytes.
const NAME_LIMIT: usize = 4096;

/// Ceiling on the section count — far above any real model, small
/// enough that a corrupt header cannot demand a gigantic directory.
const SECTION_LIMIT: usize = 1 << 20;

/// Ceiling on any single declared dimension — far above every model in the
/// workspace, small enough that `rank · dim · 4` cannot wrap.
const DIM_LIMIT: usize = 1 << 24;

/// Ceiling on the declared stage count.
const STAGE_LIMIT: usize = 4096;

// ---------------------------------------------------------------- CRC-32

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the snapshot integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

fn corrupt(e: impl ToString) -> SnapshotError {
    SnapshotError::Corrupt(e.to_string())
}

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        // Shapes in this workspace are far below u32::MAX; keep the file
        // format fixed-width regardless of host pointer size.
        // analyze: allow(hot-path-panic) -- writer only: every dimension
        // of a compiled engine fits u32; the load path never writes
        self.u32(u32::try_from(v).expect("snapshot dimension exceeds u32"));
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn dims(&mut self, dims: &[usize]) {
        self.usize(dims.len());
        for &d in dims {
            self.usize(d);
        }
    }
}

/// Collects the bulk payloads of a snapshot while the stage descriptors
/// are encoded; the assembler lays them out aligned afterwards.
struct SectionWriter {
    payloads: Vec<Vec<u8>>,
}

impl SectionWriter {
    /// Encodes `data` as LE bytes and returns the new section's index.
    fn add(&mut self, data: &[f32]) -> usize {
        let mut buf = Vec::with_capacity(data.len() * 4);
        for &v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.payloads.push(buf);
        self.payloads.len() - 1
    }
}

/// PECAN payload: the scalar header (plus conv geometry), then per group
/// the section indices of the `[p, d]` CAM rows and the `[cout, p]` table,
/// then the bias section. The runtime layout goes to disk unchanged —
/// serialization is a byte copy and zero-copy loading needs no transform.
fn write_pecan(
    w: &mut Writer,
    sections: &mut SectionWriter,
    lut: &LayerLut,
    geom: Option<&Conv2dGeometry>,
) {
    let cfg = lut.config();
    w.u8(match lut.variant() {
        PecanVariant::Distance => 0,
        PecanVariant::Angle => 1,
    });
    w.usize(cfg.dim());
    w.usize(cfg.groups());
    w.usize(cfg.prototypes());
    w.f32(cfg.tau());
    w.usize(lut.outputs());
    w.u8(u8::from(lut.bias().is_some()));
    if let Some(g) = geom {
        w.usize(g.c_in());
        w.usize(g.h_in());
        w.usize(g.w_in());
        w.usize(g.kernel());
        w.usize(g.stride());
        w.usize(g.padding());
    }
    for (rows, table) in lut.cam_rows().iter().zip(lut.luts()) {
        w.usize(sections.add(rows.data()));
        w.usize(sections.add(table.table().data()));
    }
    if let Some(b) = lut.bias() {
        w.usize(sections.add(b.data()));
    }
}

fn write_stage(w: &mut Writer, sections: &mut SectionWriter, stage: &dyn Stage) {
    let any = stage.as_any();
    if any.downcast_ref::<ReluStage>().is_some() {
        w.u8(TAG_RELU);
    } else if let Some(pool) = any.downcast_ref::<MaxPoolStage>() {
        w.u8(TAG_MAXPOOL);
        w.usize(pool.kernel());
        w.usize(pool.stride());
    } else if any.downcast_ref::<GlobalAvgPoolStage>().is_some() {
        w.u8(TAG_GAP);
    } else if any.downcast_ref::<FlattenStage>().is_some() {
        w.u8(TAG_FLATTEN);
    } else if let Some(conv) = any.downcast_ref::<LutConvStage>() {
        w.u8(TAG_CONV);
        write_pecan(w, sections, conv.lut_engine(), Some(conv.geometry()));
    } else if let Some(lin) = any.downcast_ref::<LutLinearStage>() {
        w.u8(TAG_LINEAR);
        write_pecan(w, sections, lin.lut_engine(), None);
    } else {
        // analyze: allow(hot-path-panic) -- writer only: engines are
        // built from exactly the stage kinds tagged above
        unreachable!("every compiled stage kind has a snapshot tag");
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.bytes.len() - self.pos;
        if available < n {
            return Err(SnapshotError::Truncated { needed: n, available });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        Ok(self.u32()? as usize)
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    /// Bounded dimension list; `limit` guards against absurd declared sizes
    /// in a file whose checksum happens to validate.
    fn dims(&mut self, limit: usize) -> Result<Vec<usize>, SnapshotError> {
        let rank = self.usize()?;
        if rank == 0 || rank > 8 {
            return Err(SnapshotError::Corrupt(format!("shape rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = self.usize()?;
            if d == 0 || d > limit {
                return Err(SnapshotError::Corrupt(format!("dimension {d}")));
            }
            dims.push(d);
        }
        Ok(dims)
    }
    /// Length-prefixed UTF-8 model name; empty means unnamed.
    fn name(&mut self) -> Result<Option<String>, SnapshotError> {
        let len = self.usize()?;
        if len > NAME_LIMIT {
            return Err(SnapshotError::Corrupt(format!(
                "model name of {len} bytes exceeds the {NAME_LIMIT}-byte limit"
            )));
        }
        if len == 0 {
            return Ok(None);
        }
        let raw = self.take(len)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(Some(s.to_string())),
            Err(_) => Err(SnapshotError::Corrupt("model name is not UTF-8".into())),
        }
    }
}

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// One entry of the section directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Byte offset of the section from the start of the file (64-aligned).
    pub offset: u64,
    /// Unpadded payload length in bytes (a multiple of 4).
    pub byte_len: u64,
    /// CRC-32 (IEEE) over the unpadded payload.
    pub crc: u32,
}

/// Structural metadata of a snapshot file, decoded without building the
/// engine — the `snapshot-tool info` view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format revision of the file (always [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Embedded model name.
    pub name: Option<String>,
    /// Declared per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Declared per-sample output shape.
    pub output_shape: Vec<usize>,
    /// Declared stage count.
    pub stage_count: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// The section directory.
    pub sections: Vec<SectionInfo>,
}

/// Parses and validates everything before the stage records — magic and
/// version, the header CRC, the section directory, the file length, the
/// model name, both shapes and the stage count — and returns them with a
/// reader positioned at the first stage record. Every reader (copying,
/// zero-copy, inspection) starts here.
fn parse_header(bytes: &[u8]) -> Result<(SnapshotInfo, Reader<'_>), SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    // The version gates before any checksum, so a file of another format
    // revision reports its version, not a spurious bit-rot error.
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if bytes.len() < MIN_HEADER {
        return Err(SnapshotError::Truncated { needed: MIN_HEADER, available: bytes.len() });
    }
    let header_len = r.usize()?;
    if header_len < MIN_HEADER || header_len > bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "header length {header_len} outside file of {} bytes",
            bytes.len()
        )));
    }
    let crc_at = header_len - 4;
    let stored = Reader { bytes, pos: crc_at }.u32()?;
    let computed = crc32(&bytes[..crc_at]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader { bytes: &bytes[..crc_at], pos: r.pos };
    let count = r.usize()?;
    if count > SECTION_LIMIT {
        return Err(SnapshotError::Corrupt(format!("{count} sections")));
    }
    let mut sections = Vec::with_capacity(count);
    let mut end = header_len as u64;
    for i in 0..count {
        let (offset, byte_len, crc) = (r.u64()?, r.u64()?, r.u32()?);
        match offset.checked_add(byte_len) {
            Some(e)
                if e <= bytes.len() as u64
                    && offset >= header_len as u64
                    && offset % SECTION_ALIGN as u64 == 0
                    && byte_len % 4 == 0 =>
            {
                end = end.max(e);
            }
            _ => {
                return Err(SnapshotError::Corrupt(format!(
                    "section {i} spans [{offset}, {offset}+{byte_len}) in a file of {} bytes",
                    bytes.len()
                )))
            }
        }
        sections.push(SectionInfo { offset, byte_len, crc });
    }
    // `end` ≤ the file length, so it fits `usize`.
    let file_len = align_up(end as usize);
    if bytes.len() != file_len {
        return Err(SnapshotError::Corrupt(format!(
            "file is {} bytes, but its header and sections end at {file_len}",
            bytes.len()
        )));
    }
    let name = r.name()?;
    let input_shape = r.dims(DIM_LIMIT)?;
    let output_shape = r.dims(DIM_LIMIT)?;
    let stage_count = r.usize()?;
    if stage_count > STAGE_LIMIT {
        return Err(SnapshotError::Corrupt(format!("{stage_count} stages")));
    }
    let info =
        SnapshotInfo { version, name, input_shape, output_shape, stage_count, file_len, sections };
    Ok((info, r))
}

/// Where a decoded engine's bulk tensors live.
#[derive(Clone, Copy)]
pub(crate) enum Storage<'a> {
    /// One owned heap copy per section; every section CRC is checked.
    Owned,
    /// Windows borrowed from `owner`, which views the decoded bytes as
    /// `f32`s; section CRCs are checked only when `verify` is set.
    Shared { owner: &'a Arc<dyn F32Source>, verify: bool },
}

/// The decoder's view of the sections: the file bytes, the directory and
/// how a section becomes a [`Tensor`].
struct Sections<'a> {
    bytes: &'a [u8],
    dir: &'a [SectionInfo],
    storage: Storage<'a>,
}

impl Sections<'_> {
    /// Section `idx` as a tensor of shape `dims`. The section's length
    /// must match the shape — a section may not be reinterpreted.
    fn tensor(&self, idx: usize, dims: &[usize]) -> Result<Tensor, SnapshotError> {
        let entry = self.dir.get(idx).ok_or_else(|| {
            SnapshotError::Corrupt(format!(
                "section index {idx} outside a {}-entry directory",
                self.dir.len()
            ))
        })?;
        let want = dims.iter().product::<usize>() as u64 * 4;
        if entry.byte_len != want {
            return Err(SnapshotError::Corrupt(format!(
                "section {idx} holds {} bytes, shape {dims:?} needs {want}",
                entry.byte_len
            )));
        }
        // The header parse bounded every section by the file length.
        let start = entry.offset as usize;
        let payload = &self.bytes[start..start + entry.byte_len as usize];
        let verify = match self.storage {
            Storage::Owned => true,
            Storage::Shared { verify, .. } => verify,
        };
        if verify {
            let computed = crc32(payload);
            if computed != entry.crc {
                return Err(SnapshotError::ChecksumMismatch { stored: entry.crc, computed });
            }
        }
        match self.storage {
            Storage::Owned => Tensor::from_vec(decode_f32s(payload), dims),
            Storage::Shared { owner, .. } => {
                Tensor::from_shared(Arc::clone(owner), start / 4, dims)
            }
        }
        .map_err(corrupt)
    }
}

/// The scalar head of a PECAN payload, before the conv geometry.
struct PecanHead {
    variant: PecanVariant,
    config: PqConfig,
    c_out: usize,
    has_bias: bool,
}

fn read_pecan_head(r: &mut Reader<'_>) -> Result<PecanHead, SnapshotError> {
    let variant = match r.u8()? {
        0 => PecanVariant::Distance,
        1 => PecanVariant::Angle,
        other => return Err(SnapshotError::Corrupt(format!("variant tag {other}"))),
    };
    let dim = r.usize()?;
    let groups = r.usize()?;
    let prototypes = r.usize()?;
    let tau = r.f32()?;
    let c_out = r.usize()?;
    let has_bias = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(SnapshotError::Corrupt(format!("bias flag {other}"))),
    };
    for (what, v) in
        [("dim", dim), ("groups", groups), ("prototypes", prototypes), ("c_out", c_out)]
    {
        if v == 0 || v > DIM_LIMIT {
            return Err(SnapshotError::Corrupt(format!("{what} = {v}")));
        }
    }
    let config = PqConfig::for_rows(groups * dim, prototypes, dim, tau).map_err(corrupt)?;
    Ok(PecanHead { variant, config, c_out, has_bias })
}

fn read_geometry(r: &mut Reader<'_>) -> Result<Conv2dGeometry, SnapshotError> {
    let (c_in, h_in, w_in) = (r.usize()?, r.usize()?, r.usize()?);
    let (kernel, stride, padding) = (r.usize()?, r.usize()?, r.usize()?);
    Conv2dGeometry::new(c_in, h_in, w_in, kernel, stride, padding).map_err(corrupt)
}

/// Reads the section indices that close a PECAN payload and builds the
/// layer engine over those sections — no transpose, no reshuffle.
fn read_lut(
    r: &mut Reader<'_>,
    sections: &Sections<'_>,
    head: PecanHead,
) -> Result<LayerLut, SnapshotError> {
    let PecanHead { variant, config, c_out, has_bias } = head;
    let (dim, prototypes) = (config.dim(), config.prototypes());
    let mut cams = Vec::with_capacity(config.groups());
    let mut tables = Vec::with_capacity(config.groups());
    for _ in 0..config.groups() {
        let rows_idx = r.usize()?;
        let table_idx = r.usize()?;
        cams.push(sections.tensor(rows_idx, &[prototypes, dim])?);
        let table = sections.tensor(table_idx, &[c_out, prototypes])?;
        tables.push(LookupTable::new(table).map_err(corrupt)?);
    }
    let bias = if has_bias { Some(sections.tensor(r.usize()?, &[c_out])?) } else { None };
    LayerLut::from_tables(variant, config, cams, tables, bias).map_err(corrupt)
}

/// The snapshot decoder behind every loader: validates the header, then
/// decodes the stage records, materializing each referenced section as
/// `storage` says.
pub(crate) fn decode(bytes: &[u8], storage: Storage<'_>) -> Result<FrozenEngine, SnapshotError> {
    if let Storage::Shared { owner, .. } = storage {
        if bytes.len() != owner.f32s().len() * 4 {
            return Err(SnapshotError::Corrupt(format!(
                "shared source of {} scalars does not cover the {}-byte file",
                owner.f32s().len(),
                bytes.len()
            )));
        }
    }
    let (info, mut r) = parse_header(bytes)?;
    let sections = Sections { bytes, dir: &info.sections, storage };
    let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(info.stage_count);
    for _ in 0..info.stage_count {
        let stage: Box<dyn Stage> = match r.u8()? {
            TAG_RELU => Box::new(ReluStage),
            TAG_MAXPOOL => {
                let kernel = r.usize()?;
                let stride = r.usize()?;
                if kernel > DIM_LIMIT {
                    return Err(SnapshotError::Corrupt(format!(
                        "pool window {kernel}/{stride}"
                    )));
                }
                Box::new(MaxPoolStage::new(kernel, stride).map_err(corrupt)?)
            }
            TAG_GAP => Box::new(GlobalAvgPoolStage),
            TAG_FLATTEN => Box::new(FlattenStage),
            TAG_CONV => {
                let head = read_pecan_head(&mut r)?;
                let geom = read_geometry(&mut r)?;
                let lut = read_lut(&mut r, &sections, head)?;
                Box::new(LutConvStage::new(lut, geom).map_err(corrupt)?)
            }
            TAG_LINEAR => {
                let head = read_pecan_head(&mut r)?;
                Box::new(LutLinearStage::new(read_lut(&mut r, &sections, head)?))
            }
            other => return Err(SnapshotError::Corrupt(format!("stage tag {other}"))),
        };
        stages.push(stage);
    }
    if r.pos != r.bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after last stage",
            r.bytes.len() - r.pos
        )));
    }
    FrozenEngine::from_parts(stages, info.input_shape, info.output_shape, info.name)
        .map_err(corrupt)
}

/// Decodes a snapshot's structural metadata — version, name, shapes, stage
/// count and the section directory — verifying the header checksum and
/// the file length but not decoding stage payloads.
///
/// # Errors
///
/// Any [`SnapshotError`] variant; see the module docs.
pub fn inspect_snapshot_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    parse_header(bytes).map(|(info, _)| info)
}

impl FrozenEngine {
    /// Serializes the engine into the snapshot byte format: encodes the
    /// header tail while collecting section payloads, lays the sections
    /// out 64-aligned after the header, then stamps the directory and
    /// header CRC.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut tail = Writer { buf: Vec::new() };
        let mut sections = SectionWriter { payloads: Vec::new() };
        // Over-long names clamp on a char boundary — a mid-character cut
        // would write a header this build's own loader rejects.
        let name = self.name().unwrap_or("");
        let mut name_end = name.len().min(NAME_LIMIT);
        while !name.is_char_boundary(name_end) {
            name_end -= 1;
        }
        tail.usize(name_end);
        tail.buf.extend_from_slice(&name.as_bytes()[..name_end]);
        tail.dims(&self.input_shape);
        tail.dims(&self.output_shape);
        tail.usize(self.stages.len());
        for stage in &self.stages {
            write_stage(&mut tail, &mut sections, stage.as_ref());
        }
        let n = sections.payloads.len();
        // magic(8) + version(4) + header_len(4) + count(4) + dir + tail + CRC(4)
        let header_len = 20 + n * 20 + tail.buf.len() + 4;
        let mut cursor = align_up(header_len);
        let mut dir = Vec::with_capacity(n);
        for p in &sections.payloads {
            dir.push(SectionInfo {
                offset: cursor as u64,
                byte_len: p.len() as u64,
                crc: crc32(p),
            });
            cursor = align_up(cursor + p.len());
        }
        let mut w = Writer { buf: Vec::with_capacity(cursor) };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.usize(header_len);
        w.usize(n);
        for e in &dir {
            w.u64(e.offset);
            w.u64(e.byte_len);
            w.u32(e.crc);
        }
        w.buf.extend_from_slice(&tail.buf);
        let crc = crc32(&w.buf);
        w.u32(crc);
        debug_assert_eq!(w.buf.len(), header_len);
        for (e, p) in dir.iter().zip(&sections.payloads) {
            w.buf.resize(e.offset as usize, 0);
            w.buf.extend_from_slice(p);
        }
        w.buf.resize(cursor, 0);
        w.buf
    }

    /// Writes the snapshot to `path` (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        fs::write(path, self.snapshot_bytes())?;
        Ok(())
    }

    /// Decodes an engine from snapshot bytes via the copying path — every
    /// bulk section is copied to the heap and its checksum verified.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see the module docs. The returned
    /// engine is bit-identical to the one that produced the bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        decode(bytes, Storage::Owned)
    }

    /// Reads a snapshot file written by [`FrozenEngine::save_snapshot`]
    /// via the copying path.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see the module docs.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offset of the model-name length field: right after the directory.
    fn name_at(bytes: &[u8]) -> usize {
        20 + 20 * u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_bytes_start_with_magic_and_version() {
        let engine = crate::demo::mlp_engine(1);
        let bytes = engine.snapshot_bytes();
        assert_eq!(&bytes[..8], b"PECANSNP");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), SNAPSHOT_VERSION);
        // The name follows the section directory.
        let at = name_at(&bytes);
        let name_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert_eq!(&bytes[at + 4..at + 4 + name_len], b"mlp");
    }

    #[test]
    fn v3_layout_is_aligned_and_self_describing() {
        let engine = crate::demo::mlp_engine(1);
        let bytes = engine.snapshot_bytes();
        assert_eq!(bytes.len() % SECTION_ALIGN, 0);
        let info = inspect_snapshot_bytes(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert_eq!(info.name.as_deref(), Some("mlp"));
        assert_eq!(info.stage_count, engine.stage_count());
        assert!(!info.sections.is_empty());
        for s in &info.sections {
            assert_eq!(s.offset as usize % SECTION_ALIGN, 0);
            assert_eq!(s.byte_len % 4, 0);
            let payload = &bytes[s.offset as usize..(s.offset + s.byte_len) as usize];
            assert_eq!(crc32(payload), s.crc);
        }
    }

    #[test]
    fn oversized_names_clamp_on_a_char_boundary() {
        // 4095 ASCII bytes + a 2-byte char straddling the limit: the write
        // must clamp to 4095, and the snapshot must load back cleanly.
        let long = "a".repeat(NAME_LIMIT - 1) + "é";
        let engine = crate::demo::mlp_engine(1).with_name(long);
        let bytes = engine.snapshot_bytes();
        let at = name_at(&bytes);
        let name_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert_eq!(name_len, NAME_LIMIT - 1);
        let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(reloaded.name(), Some("a".repeat(NAME_LIMIT - 1).as_str()));
        // Re-saving the clamped name is stable.
        assert_eq!(reloaded.snapshot_bytes(), bytes);
    }

    #[test]
    fn v3_round_trips_bit_identically_from_shared_and_copying_paths() {
        let engine = crate::demo::lenet_engine(7);
        let bytes = engine.snapshot_bytes();
        let input = vec![0.125f32; engine.input_len()];
        let want = engine.predict(&input).unwrap();

        let copied = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(copied.predict(&input).unwrap(), want);

        // Zero-copy: build over an f32 view of the same bytes. The engine's
        // bulk tensors must be borrowed views, not heap copies.
        let scalars: Arc<dyn F32Source> = Arc::new(decode_f32s(&bytes));
        let shared = decode(&bytes, Storage::Shared { owner: &scalars, verify: true }).unwrap();
        assert_eq!(shared.predict(&input).unwrap(), want);
        let mut shared_tensors = 0;
        for stage in shared.stages() {
            if let Some(lut) = stage.lut() {
                for rows in lut.cam_rows() {
                    assert!(rows.is_shared(), "CAM rows must borrow the source");
                    shared_tensors += 1;
                }
                for t in lut.luts() {
                    assert!(t.table().is_shared(), "tables must borrow the source");
                    shared_tensors += 1;
                }
            }
        }
        assert!(shared_tensors > 0);
    }

    #[test]
    fn shared_load_detects_section_corruption_only_when_verifying() {
        let engine = crate::demo::mlp_engine(3);
        let mut bytes = engine.snapshot_bytes();
        let info = inspect_snapshot_bytes(&bytes).unwrap();
        let first = info.sections[0];
        bytes[first.offset as usize] ^= 0xFF;
        // Copying path always checks section CRCs.
        assert!(matches!(
            FrozenEngine::from_snapshot_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let scalars: Arc<dyn F32Source> = Arc::new(decode_f32s(&bytes));
        assert!(matches!(
            decode(&bytes, Storage::Shared { owner: &scalars, verify: true }),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The fast open skips section CRCs by design (the header still
        // validates) — corruption surfaces as different bits, not an error.
        assert!(decode(&bytes, Storage::Shared { owner: &scalars, verify: false }).is_ok());
    }
}
