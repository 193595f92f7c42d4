//! Link-and-anchor checker for the repository's markdown documentation.
//!
//! Walks `README.md`, everything under `docs/`, and the crate READMEs,
//! extracts every inline markdown link, and verifies:
//!
//! * relative file links resolve to a file or directory that exists in
//!   the repo (so `docs/*.md` cross-references and README pointers can't
//!   rot silently);
//! * anchor links (`#section`, `file.md#section`) name a heading that
//!   actually exists in the target file, using GitHub's slugification;
//! * absolute URLs are at least well-formed (`http://`/`https://` — the
//!   environment is offline, so they are not fetched).
//!
//! Fenced code blocks are ignored on both sides: links inside them are
//! not checked, and headings inside them do not create anchors.
//!
//! The Rust sources are held to the same standard: a markdown file a doc
//! comment cites by path must exist.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The documentation surface under test. Deliberately explicit so a new
/// doc must be added here (and a deleted one removed) consciously.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![
        root.join("README.md"),
        root.join("ROADMAP.md"),
        root.join("shims/README.md"),
        root.join("crates/bench/README.md"),
    ];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory exists");
    for e in entries.flatten() {
        if e.path().extension().and_then(|x| x.to_str()) == Some("md") {
            files.push(e.path());
        }
    }
    files.sort();
    assert!(
        files.iter().filter(|f| f.starts_with(&docs)).count() >= 3,
        "expected the architecture / serving-ops / snapshot-format set under docs/"
    );
    files
}

/// Strips fenced code blocks (``` … ```) so neither links nor headings
/// inside them count.
fn without_code_fences(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(!in_fence, "unterminated code fence");
    out
}

/// GitHub heading slug: lowercase; keep alphanumerics, `-` and `_`;
/// spaces become hyphens; everything else is dropped.
fn slugify(heading: &str) -> String {
    let mut slug = String::new();
    for c in heading.trim().chars() {
        match c {
            ' ' => slug.push('-'),
            c if c.is_alphanumeric() || c == '-' || c == '_' => {
                slug.extend(c.to_lowercase());
            }
            _ => {}
        }
    }
    slug
}

/// Every anchor a markdown file exposes (its heading slugs, with GitHub's
/// `-1`, `-2` … suffixes for duplicates).
fn anchors(text: &str) -> BTreeSet<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut set = BTreeSet::new();
    for line in without_code_fences(text).lines() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('#') {
            continue;
        }
        let heading = trimmed.trim_start_matches('#');
        if !heading.starts_with(' ') && !heading.is_empty() {
            continue; // "#hashtag", not a heading
        }
        // Strip inline markdown that doesn't contribute to the slug.
        let plain: String = heading.replace(['`', '*'], "");
        let base = slugify(&plain);
        let dupes = seen.iter().filter(|s| **s == base).count();
        seen.push(base.clone());
        set.insert(if dupes == 0 { base } else { format!("{base}-{dupes}") });
    }
    set
}

/// Extracts `(target, context)` for every inline `[text](target)` link.
fn links(text: &str) -> Vec<String> {
    let cleaned = without_code_fences(text);
    let bytes = cleaned.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = cleaned[start..].find(')') {
                let target = &cleaned[start..start + rel_end];
                // Markdown allows an optional title: [t](url "title").
                let target = target.split_whitespace().next().unwrap_or("");
                if !target.is_empty() {
                    out.push(target.to_string());
                }
                i = start + rel_end;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn every_markdown_link_resolves_and_every_anchor_exists() {
    let root = repo_root();
    let mut checked_links = 0;
    let mut failures = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let own_anchors = anchors(&text);
        for target in links(&text) {
            checked_links += 1;
            let fail = |why: String| format!("{}: [{}] {}", file.display(), target, why);
            if target.starts_with("http://") || target.starts_with("https://") {
                if !target[8..].contains('.') && !target[7..].contains('.') {
                    failures.push(fail("absolute URL without a host".into()));
                }
                continue;
            }
            if target.starts_with("mailto:") {
                continue;
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (target.as_str(), None),
            };
            // Resolve the file part relative to the linking document.
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                let base = file.parent().unwrap_or(&root);
                base.join(path_part)
            };
            if !resolved.exists() {
                failures.push(fail(format!("broken path: {}", resolved.display())));
                continue;
            }
            if let Some(anchor) = anchor {
                let targets = if path_part.is_empty() {
                    own_anchors.clone()
                } else if resolved.extension().and_then(|x| x.to_str()) == Some("md") {
                    anchors(&std::fs::read_to_string(&resolved).expect("readable target"))
                } else {
                    continue; // anchors into non-markdown (e.g. source) not checked
                };
                if !targets.contains(anchor) {
                    failures.push(fail(format!(
                        "missing anchor #{anchor} (available: {})",
                        targets.iter().cloned().collect::<Vec<_>>().join(", ")
                    )));
                }
            }
        }
    }
    assert!(
        checked_links >= 20,
        "suspiciously few links checked ({checked_links}) — extractor regression?"
    );
    assert!(failures.is_empty(), "broken documentation links:\n{}", failures.join("\n"));
}

#[test]
fn docs_cross_reference_each_other_and_the_code() {
    // The three-document set must stay cross-linked: each doc links the
    // other two, and the snapshot spec points at its implementation.
    let root = repo_root();
    let spec = std::fs::read_to_string(root.join("docs/snapshot-format.md")).unwrap();
    let ops = std::fs::read_to_string(root.join("docs/serving-ops.md")).unwrap();
    let arch = std::fs::read_to_string(root.join("docs/architecture.md")).unwrap();
    for (doc, text, others) in [
        ("snapshot-format", &spec, ["serving-ops.md", "architecture.md"]),
        ("serving-ops", &ops, ["architecture.md", "snapshot-format.md"]),
        ("architecture", &arch, ["serving-ops.md", "snapshot-format.md"]),
    ] {
        for other in others {
            assert!(text.contains(other), "docs/{doc}.md must link {other}");
        }
    }
    assert!(spec.contains("crates/serve/src/snapshot.rs"), "spec links its implementation");
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    for doc in ["docs/architecture.md", "docs/serving-ops.md", "docs/snapshot-format.md"] {
        assert!(readme.contains(doc), "README must link {doc}");
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Every backticked `*.md` path in a Rust doc comment (`///`, `//!`)
/// under `crates/`, `src/`, `examples/` and `tests/` names a file that
/// exists relative to the repo root. Patterns such as `results/<id>.md`
/// (written at run time) or a glob are not paths and are skipped.
#[test]
fn doc_comments_cite_markdown_files_that_exist() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let mut cited = 0;
    let mut failures = Vec::new();
    for file in &sources {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_start();
            if !line.starts_with("///") && !line.starts_with("//!") {
                continue;
            }
            // Every other piece between backticks is inline code.
            for code in line.split('`').skip(1).step_by(2) {
                let is_path = code.ends_with(".md")
                    && code.chars().all(|c| c.is_ascii_alphanumeric() || "/._-".contains(c));
                if !is_path {
                    continue;
                }
                cited += 1;
                if !root.join(code).is_file() {
                    let shown = file.strip_prefix(&root).unwrap_or(file).display();
                    failures.push(format!("{shown}:{}: `{code}`", n + 1));
                }
            }
        }
    }
    assert!(
        cited >= 10,
        "suspiciously few citations checked ({cited}) — extractor regression?"
    );
    assert!(failures.is_empty(), "doc comments cite missing files:\n{}", failures.join("\n"));
}

#[test]
fn slugification_matches_github_conventions() {
    assert_eq!(slugify("Building and testing"), "building-and-testing");
    assert_eq!(slugify("The connection tier: epoll event loop"), "the-connection-tier-epoll-event-loop");
    assert_eq!(slugify("Snapshot v3 (current)"), "snapshot-v3-current");
    assert_eq!(slugify("`serve` flags"), "serve-flags");
    let text = "# A\n## A\n```\n# not a heading\n```\n## B c\n";
    let a = anchors(text);
    assert!(a.contains("a") && a.contains("a-1") && a.contains("b-c"));
    assert!(!a.contains("not-a-heading"));
}
