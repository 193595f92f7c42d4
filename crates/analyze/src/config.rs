//! Rule-engine configuration: which files may hold `unsafe`, which are
//! serving hot paths, which `Relaxed` sites are part of an audited
//! lock-free protocol, and what gets excluded.
//!
//! The built-in [`Config::workspace_default`] encodes this workspace's
//! audit decisions and is what `analyze --workspace` runs with. The same
//! settings can be rendered to a conf file (`analyze --print-config`),
//! edited, and fed back with `--config`, so downstream forks can move
//! the fences without patching the binary.
//!
//! # File format
//!
//! Line-based, `#` comments, one `[rule-id]` section per rule, repeated
//! `key = value` pairs accumulate:
//!
//! ```text
//! lookback = 4
//! [unsafe-containment]
//! allow = crates/serve/src/http/sys.rs
//! [hot-path-panic]
//! file = crates/serve/src/scheduler.rs
//! ```

/// Everything the rules need to know about the workspace's audit policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Justification/allow comments must end within this many lines above
    /// the flagged line (trailing comments always count).
    pub lookback: u32,
    /// Path prefixes excluded from every rule (vendored code the
    /// workspace does not audit).
    pub exclude: Vec<String>,
    /// Files allowed to contain `unsafe` (the audited modules).
    pub unsafe_allowed: Vec<String>,
    /// Files whose `Ordering::Relaxed` sites belong to a hand-rolled
    /// lock-free protocol and must each name their pairing site in an
    /// `// ordering:` comment.
    pub relaxed_audited: Vec<String>,
    /// The designated serving-hot-path modules: no panicking constructs
    /// outside `#[cfg(test)]`.
    pub hot_path: Vec<String>,
    /// Library files exempt from `no-print` (the logfmt logger itself).
    pub print_exempt: Vec<String>,
}

impl Config {
    /// An empty config: no allowances anywhere, lookback 4.
    pub fn empty() -> Config {
        Config {
            lookback: 4,
            exclude: Vec::new(),
            unsafe_allowed: Vec::new(),
            relaxed_audited: Vec::new(),
            hot_path: Vec::new(),
            print_exempt: Vec::new(),
        }
    }

    /// The audit policy of this workspace — the single source of truth
    /// that CI enforces. See `docs/static-analysis.md` for the rationale
    /// behind each entry.
    pub fn workspace_default() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            lookback: 4,
            // Vendored stand-ins for crates.io packages (offline build
            // environment); they mirror external APIs and print bench
            // reports by design. Not part of the audited surface.
            exclude: s(&["shims/"]),
            // The audited unsafe islands: raw syscalls (epoll/eventfd/
            // mmap, thread CPU clock), the span-name pointer round trip,
            // the counting GlobalAlloc, and the (future-SIMD) GEMM
            // microkernel. Everything else: #![forbid(unsafe_code)].
            unsafe_allowed: s(&[
                "crates/serve/src/http/sys.rs",
                "crates/serve/src/mapped.rs",
                "crates/obs/src/clock.rs",
                "crates/obs/src/alloc.rs",
                "crates/obs/src/span.rs",
                "crates/tensor/src/gemm/kernel.rs",
            ]),
            // The seqlock ring, the span rings' pool and the histogram
            // publish paths: every Relaxed here is a deliberate protocol
            // decision and must name its pairing site.
            relaxed_audited: s(&[
                "crates/obs/src/ring.rs",
                "crates/obs/src/span.rs",
                "crates/obs/src/hist.rs",
            ]),
            // Scheduler submit, engine infer, event-loop poll, span
            // record, ring push, flight-recorder record: a panic here
            // takes down a worker or the connection tier mid-request.
            // The stage, batch, LUT, CAM and scan-kernel files are the
            // code engine infer calls. The snapshot decoder runs inside a
            // live server on every reload.
            hot_path: s(&[
                "crates/serve/src/scheduler.rs",
                "crates/serve/src/engine.rs",
                "crates/serve/src/stage.rs",
                "crates/core/src/batch.rs",
                "crates/core/src/infer.rs",
                "crates/cam/src/analog.rs",
                "crates/cam/src/lut.rs",
                "crates/index/src/batch.rs",
                "crates/serve/src/snapshot.rs",
                "crates/serve/src/http/event_loop.rs",
                "crates/obs/src/ring.rs",
                "crates/obs/src/span.rs",
                "crates/obs/src/hist.rs",
                "crates/serve/src/obs/recorder.rs",
            ]),
            // The logfmt logger owns stderr; everything else must log
            // through it.
            print_exempt: s(&["crates/obs/src/log.rs"]),
        }
    }

    /// Parses the conf-file format described in the module docs.
    ///
    /// # Errors
    ///
    /// A `line N: <problem>` message for unknown sections, unknown keys,
    /// or lines that are neither `[section]`, `key = value`, comment nor
    /// blank.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::empty();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                let name = name.trim();
                match name {
                    "unsafe-containment" | "atomic-ordering" | "hot-path-panic" | "no-print"
                    | "exclude" => section = Some(name.to_string()),
                    other => return Err(format!("line {n}: unknown section [{other}]")),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {n}: expected `key = value`, got `{line}`"));
            };
            let (key, value) = (key.trim(), value.trim().to_string());
            if value.is_empty() {
                return Err(format!("line {n}: empty value for `{key}`"));
            }
            match (section.as_deref(), key) {
                (None, "lookback") => match value.parse() {
                    Ok(v) => config.lookback = v,
                    Err(_) => return Err(format!("line {n}: lookback must be a number")),
                },
                (Some("exclude"), "path") => config.exclude.push(value),
                (Some("unsafe-containment"), "allow") => config.unsafe_allowed.push(value),
                (Some("atomic-ordering"), "relaxed-audit") => config.relaxed_audited.push(value),
                (Some("hot-path-panic"), "file") => config.hot_path.push(value),
                (Some("no-print"), "exempt") => config.print_exempt.push(value),
                (sec, key) => {
                    let place = sec.map_or("top level".to_string(), |s| format!("[{s}]"));
                    return Err(format!("line {n}: unknown key `{key}` in {place}"));
                }
            }
        }
        Ok(config)
    }

    /// Renders the config in the format [`Config::parse`] reads:
    /// `parse(render(c)) == c` for any config.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# pecan-analyze configuration (see docs/static-analysis.md)\n");
        out.push_str(&format!("lookback = {}\n", self.lookback));
        out.push_str("\n[exclude]\n");
        for p in &self.exclude {
            out.push_str(&format!("path = {p}\n"));
        }
        out.push_str("\n[unsafe-containment]\n");
        for p in &self.unsafe_allowed {
            out.push_str(&format!("allow = {p}\n"));
        }
        out.push_str("\n[atomic-ordering]\n");
        for p in &self.relaxed_audited {
            out.push_str(&format!("relaxed-audit = {p}\n"));
        }
        out.push_str("\n[hot-path-panic]\n");
        for p in &self.hot_path {
            out.push_str(&format!("file = {p}\n"));
        }
        out.push_str("\n[no-print]\n");
        for p in &self.print_exempt {
            out.push_str(&format!("exempt = {p}\n"));
        }
        out
    }

    /// Is `path` (workspace-relative, forward slashes) excluded entirely?
    pub fn excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_render_and_parse() {
        let d = Config::workspace_default();
        let parsed = Config::parse(&d.render()).expect("rendered config parses");
        assert_eq!(parsed, d);
    }

    #[test]
    fn parse_rejects_unknown_sections_keys_and_garbage() {
        assert!(Config::parse("[not-a-rule]\n").unwrap_err().contains("unknown section"));
        assert!(Config::parse("[no-print]\nallow = x\n").unwrap_err().contains("unknown key"));
        assert!(Config::parse("just words\n").unwrap_err().contains("key = value"));
        assert!(Config::parse("lookback = many\n").unwrap_err().contains("number"));
        assert!(Config::parse("[no-print]\nexempt =\n").unwrap_err().contains("empty value"));
    }

    #[test]
    fn comments_blanks_and_accumulation() {
        let c = Config::parse(
            "# header\n\nlookback = 2\n[hot-path-panic]\nfile = a.rs\n# mid\nfile = b.rs\n",
        )
        .unwrap();
        assert_eq!(c.lookback, 2);
        assert_eq!(c.hot_path, vec!["a.rs", "b.rs"]);
    }

    #[test]
    fn excluded_is_prefix_based() {
        let c = Config::workspace_default();
        assert!(c.excluded("shims/rand/src/lib.rs"));
        assert!(!c.excluded("crates/obs/src/lib.rs"));
    }
}
