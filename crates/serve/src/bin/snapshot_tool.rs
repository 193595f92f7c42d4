//! `snapshot-tool`: inspect and verify PECAN snapshot files.
//!
//! ```text
//! snapshot-tool info model.psnp            # header, shapes, section map
//! snapshot-tool verify model.psnp          # every checksum; exit 0/1
//! ```
//!
//! `info` reads only the header. `verify` fully decodes the file the way
//! `FrozenEngine::load_snapshot` would — header CRC, every section CRC and
//! structural validation — and exits non-zero on the first problem, so it
//! slots into CI and deploy gates. The byte-level format is specified in
//! `docs/snapshot-format.md`.

use pecan_serve::{inspect_snapshot_bytes, FrozenEngine};
use std::process::ExitCode;

fn usage() -> String {
    "usage: snapshot-tool info PATH\n\
     \u{20}      snapshot-tool verify PATH"
        .into()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => {
            let [_, path] = args.as_slice() else { return Err(usage()) };
            info(path)
        }
        Some("verify") => {
            let [_, path] = args.as_slice() else { return Err(usage()) };
            verify(path)
        }
        Some("--help" | "-h") | None => Err(usage()),
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn info(path: &str) -> Result<(), String> {
    let bytes = read(path)?;
    let info = inspect_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("file:        {path}");
    println!("version:     {}", info.version);
    println!("model:       {}", info.name.as_deref().unwrap_or("(unnamed)"));
    println!("input:       {:?}", info.input_shape);
    println!("output:      {:?}", info.output_shape);
    println!("stages:      {}", info.stage_count);
    println!("file bytes:  {}", info.file_len);
    let payload: u64 = info.sections.iter().map(|s| s.byte_len).sum();
    println!("sections:    {} ({payload} payload bytes, 64-byte aligned)", info.sections.len());
    for (i, s) in info.sections.iter().enumerate() {
        println!(
            "  [{i:3}] offset {:>10}  len {:>10}  crc32 {:08x}",
            s.offset, s.byte_len, s.crc
        );
    }
    Ok(())
}

fn verify(path: &str) -> Result<(), String> {
    let bytes = read(path)?;
    let info = inspect_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    // The copying decoder checks everything the format promises: header
    // CRC, every section CRC and structural validation.
    let engine = FrozenEngine::from_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK (v{}, model `{}`, {} stages, {} sections, {} bytes)",
        info.version,
        engine.name().unwrap_or("default"),
        info.stage_count,
        info.sections.len(),
        info.file_len,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
