//! Rule-engine configuration: which files may hold `unsafe`, which are
//! serving hot paths, which `Relaxed` sites are part of an audited
//! lock-free protocol, and what gets excluded.
//!
//! The built-in [`Config::workspace_default`] encodes this workspace's
//! audit decisions and is the one policy `analyze --workspace` runs with:
//! moving a fence means editing it, which is a reviewed change.

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

    /// Is `path` (workspace-relative, forward slashes) excluded entirely?
    pub fn excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_is_prefix_based() {
        let c = Config::workspace_default();
        assert!(c.excluded("shims/rand/src/lib.rs"));
        assert!(!c.excluded("crates/obs/src/lib.rs"));
    }
}
