//! CLI for the workspace lint engine.
//!
//! ```text
//! analyze --workspace              # lint the whole workspace, exit 1 on findings
//! analyze --workspace --root DIR   # same, for the workspace at DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pecan_analyze::{analyze_workspace, find_workspace_root, Config};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("analyze: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut workspace = false;
    let mut root_override: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                root_override = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: analyze --workspace [--root DIR]\n\
                     \n\
                     Lints every .rs file under the workspace root with the pecan audit\n\
                     policy. Exits 0 on a clean pass, 1 on findings, 2 on usage/IO errors.\n\
                     See docs/static-analysis.md for the rule catalogue."
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if !workspace {
        return Err("nothing to do: pass --workspace".to_string());
    }

    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = match root_override {
        Some(r) => r,
        None => find_workspace_root(&cwd)
            .ok_or("no workspace root (Cargo.toml with [workspace]) above the current dir")?,
    };

    let findings = analyze_workspace(&root, &Config::workspace_default())?;
    if findings.is_empty() {
        println!("analyze: clean — 0 findings");
        return Ok(ExitCode::SUCCESS);
    }
    for f in &findings {
        println!("{f}");
    }
    println!("analyze: {} finding(s)", findings.len());
    Ok(ExitCode::FAILURE)
}
