#![forbid(unsafe_code)]
//! Repo-native static analysis for the resilience-patterns workspace.
//!
//! `cargo run -p xtask -- lint` walks every `.rs` file under `crates/` and
//! enforces the invariants this reproduction actually rests on — the ones
//! `rustc` and clippy cannot see because they are *repo policy*, not
//! language rules:
//!
//! * **unsafe stays audited and quarantined** — every `unsafe` needs an
//!   adjacent `// SAFETY:` justification, and only the SIMD engine may
//!   contain `unsafe` at all ([`lints::UNSAFE_ALLOWLIST`]);
//! * **SIMD paths stay pinned** — every `#[target_feature]` kernel must have
//!   a same-file `*_scalar` twin and a test referencing both by name, so a
//!   new intrinsic path can never land without its bit-identical oracle;
//! * **outputs stay deterministic** — no wall-clock/ambient-entropy reads,
//!   no ambient-seeded hash containers, and no thread spawning outside the
//!   executor/runner in the crates whose results are byte-pinned;
//! * **float comparisons stay deliberate** — direct `==`/`!=` against float
//!   literals must go through `to_bits`/`approx_eq` or carry a written
//!   `float-cmp:` justification.
//!
//! The engine is dependency-free and works offline: [`lexer`] strips
//! comments and literals with a hand-rolled scanner, and the lints in
//! [`lints`] are token scans over the stripped text. Fixture-based tests
//! (`tests/lint_engine.rs`) pin each lint's trip condition, and a live test
//! asserts the real workspace lints clean — so a CI failure always points
//! at the offending `file:line`.

pub mod lexer;
pub mod lints;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint category. `name()` is the stable identifier used in diagnostics,
/// fixtures, and README documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `unsafe` outside the allowlisted SIMD engine.
    UnsafeAllowlist,
    /// `unsafe` without an adjacent `// SAFETY:` / `# Safety` justification.
    SafetyComment,
    /// `#[target_feature]` fn without a same-file `*_scalar` twin (or not
    /// following the `*_avx2` naming convention).
    SimdParityTwin,
    /// SIMD twin pair not referenced by name from any test in the crate.
    SimdParityTest,
    /// Wall-clock or ambient-entropy read in a determinism-pinned crate.
    WallClock,
    /// Ambient-seeded (default-hasher) `HashMap`/`HashSet` in a
    /// determinism-pinned crate.
    DefaultHasher,
    /// Thread creation outside `sim::executor`/`sim::runner`.
    ThreadSpawn,
    /// Direct `==`/`!=` against a float literal without justification.
    FloatCmpLiteral,
    /// Required crate-root lint attribute missing.
    CrateAttrs,
}

impl Lint {
    /// Stable diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeAllowlist => "unsafe-allowlist",
            Lint::SafetyComment => "safety-comment",
            Lint::SimdParityTwin => "simd-parity-twin",
            Lint::SimdParityTest => "simd-parity-test",
            Lint::WallClock => "wall-clock",
            Lint::DefaultHasher => "default-hasher",
            Lint::ThreadSpawn => "thread-spawn",
            Lint::FloatCmpLiteral => "float-cmp-literal",
            Lint::CrateAttrs => "crate-attrs",
        }
    }
}

/// One diagnostic: a lint violation at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint tripped.
    pub lint: Lint,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// A lexed source file ready for lint scans.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/sim/src/engine/simd.rs`).
    pub rel_path: String,
    /// Raw source lines (comments intact — the SAFETY lint reads these).
    pub raw_lines: Vec<String>,
    /// Comment/literal-stripped lines, same line structure as `raw_lines`.
    pub code_lines: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` region (or the whole file,
    /// for files under `tests/`).
    pub test_lines: Vec<bool>,
    /// Whole file is test code (`crates/<c>/tests/…`, `benches`, `examples`).
    pub is_test_file: bool,
    /// Second path component under `crates/`.
    pub crate_name: String,
}

impl SourceFile {
    /// Lexes `source` under the given workspace-relative path.
    pub fn new(rel_path: &str, source: &str) -> Self {
        let raw_lines: Vec<String> = source.lines().map(str::to_owned).collect();
        let code_lines: Vec<String> = lexer::strip(source).lines().map(str::to_owned).collect();
        let is_test_file = {
            let parts: Vec<&str> = rel_path.split('/').collect();
            parts
                .iter()
                .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
        };
        let mut test_lines = vec![is_test_file; raw_lines.len()];
        if !is_test_file {
            mark_cfg_test_regions(&code_lines, &mut test_lines);
        }
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_owned();
        Self {
            rel_path: rel_path.to_owned(),
            raw_lines,
            code_lines,
            test_lines,
            is_test_file,
            crate_name,
        }
    }

    /// Whether line `i` (0-based) is test code.
    pub fn is_test_line(&self, i: usize) -> bool {
        self.test_lines.get(i).copied().unwrap_or(false)
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item. The item's extent is
/// the brace block that opens after the attribute (a `mod tests { … }` in
/// every file of this workspace); attribute-to-`{` distance and nesting are
/// resolved by brace counting on the stripped text.
fn mark_cfg_test_regions(code_lines: &[String], test_lines: &mut [bool]) {
    let mut i = 0;
    while i < code_lines.len() {
        if !code_lines[i].replace(' ', "").contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let start = i;
        // Scan forward for the item's opening `{` (stopping at a bare `;`
        // for block-less items like `#[cfg(test)] mod tests;`).
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = start;
        'scan: for (j, line) in code_lines.iter().enumerate().skip(start) {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for flag in test_lines.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        i = end + 1;
    }
}

/// The lintable file set: every `.rs` under `crates/`, lexed.
pub struct Workspace {
    /// Files in deterministic (path-sorted) order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root/crates` for `.rs` files, skipping `target` and lint
    /// `fixtures` directories. Paths are recorded relative to `root`.
    pub fn discover(root: &Path) -> std::io::Result<Self> {
        let mut paths: Vec<PathBuf> = Vec::new();
        walk(&root.join("crates"), &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(p)?;
            files.push(SourceFile::new(&rel, &source));
        }
        Ok(Self { files })
    }

    /// Builds a workspace from in-memory `(rel_path, source)` pairs — the
    /// fixture-test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        Self {
            files: sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect(),
        }
    }

    /// Runs every lint; findings come back path/line-sorted.
    pub fn lint(&self) -> Vec<Finding> {
        let mut findings = lints::run(self);
        findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
        findings
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds deliberately-bad lint snippets; `target` is
            // build output.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when invoked via
/// cargo, else the nearest ancestor of the current directory whose
/// `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.parent().and_then(Path::parent) {
            if root.join("Cargo.toml").is_file() {
                return root.to_owned();
            }
        }
    }
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = cur.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return cur;
                }
            }
        }
        if !cur.pop() {
            return PathBuf::from(".");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_marking() {
        let src = "pub fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn inner() { let x = 1; }\n\
                   }\n\
                   pub fn live_again() {}\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src);
        assert!(!f.is_test_line(0));
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn tests_dir_files_are_fully_test() {
        let f = SourceFile::new("crates/demo/tests/it.rs", "fn x() {}\n");
        assert!(f.is_test_file);
        assert!(f.is_test_line(0));
        assert_eq!(f.crate_name, "demo");
    }
}
