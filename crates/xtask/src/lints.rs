//! The lint checks. Each is a token scan over [`SourceFile`] stripped text;
//! none require type information, so they run offline in milliseconds and
//! never go stale against a toolchain.

use crate::lexer::{has_word, word_positions};
use crate::{Finding, Lint, SourceFile, Workspace};

/// The only file allowed to contain `unsafe`: the SIMD engine, whose AVX2
/// fast-path mask is pinned bit-identical to its scalar twin. Growing this
/// list is a deliberate, reviewed act (see README "Correctness tooling").
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/sim/src/engine/simd.rs"];

/// Crates whose outputs are byte-pinned (goldens, shard concatenation,
/// cross-backend equivalence): wall-clock, ambient entropy, ambient-seeded
/// hashing, and stray threading are forbidden in their non-test code.
pub const DETERMINISM_CRATES: &[&str] = &["numerics", "stats", "resilience", "sim"];

/// The only files allowed to create threads. Everything else must route
/// parallelism through the executor/runner so sharding and reordering stay
/// centralized (and byte-identical to serial). The service crate's batch
/// worker, connection handlers, and smoke client are the deliberate
/// exception: they live outside the determinism-pinned set and delegate
/// all numeric work to it. The coordinator's supervisor is the other:
/// its attempt threads only pump worker pipes into an event channel, and
/// every timing decision it makes is erased by checksum-verified, in-order
/// merging before bytes reach the output.
pub const THREAD_ALLOWLIST: &[&str] = &[
    "crates/sim/src/executor.rs",
    "crates/sim/src/runner.rs",
    "crates/resilience-service/src/batcher.rs",
    "crates/resilience-service/src/server.rs",
    "crates/resilience-service/src/bin/service-client.rs",
    "crates/resilience-coord/src/supervisor.rs",
];

/// Required crate-root attributes: `(crate, root file, attribute)`.
/// Every library and CLI crate root but `sim`'s must be `unsafe`-free at the
/// compiler level; `sim` carries the allowlisted SIMD engine and must make
/// every unsafe operation explicit inside `unsafe fn` bodies.
pub const REQUIRED_CRATE_ATTRS: &[(&str, &str, &str)] = &[
    (
        "numerics",
        "crates/numerics/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "stats",
        "crates/stats/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "resilience-cli",
        "crates/resilience-cli/src/main.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "xtask",
        "crates/xtask/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "sim",
        "crates/sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]",
    ),
    (
        "resilience",
        "crates/resilience/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "resilience-service",
        "crates/resilience-service/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
    (
        "resilience-coord",
        "crates/resilience-coord/src/lib.rs",
        "#![forbid(unsafe_code)]",
    ),
];

/// Wall-clock / ambient-entropy tokens forbidden in determinism crates.
const WALL_CLOCK_TOKENS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// Runs every lint over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        unsafe_lints(file, &mut out);
        simd_parity(file, ws, &mut out);
        determinism_lints(file, &mut out);
        float_cmp(file, &mut out);
    }
    crate_attrs(ws, &mut out);
    out
}

fn finding(file: &SourceFile, line0: usize, lint: Lint, message: String) -> Finding {
    Finding {
        path: file.rel_path.clone(),
        line: line0 + 1,
        lint,
        message,
    }
}

// ---------------------------------------------------------------------------
// unsafe audit
// ---------------------------------------------------------------------------

/// `unsafe` quarantine + SAFETY-comment audit. Applies to *all* code,
/// including tests: an unjustified `unsafe` in a test is still an
/// unauditable `unsafe`.
fn unsafe_lints(file: &SourceFile, out: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str());
    for (i, code) in file.code_lines.iter().enumerate() {
        if !has_word(code, "unsafe") {
            continue;
        }
        if !allowlisted {
            out.push(finding(
                file,
                i,
                Lint::UnsafeAllowlist,
                format!(
                    "`unsafe` is only permitted in the audited SIMD engine ({}); \
                     move the intrinsic code there or extend the allowlist in \
                     crates/xtask/src/lints.rs with a review",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            ));
            continue;
        }
        if !safety_justified(file, i) {
            out.push(finding(
                file,
                i,
                Lint::SafetyComment,
                "`unsafe` without an immediately-preceding `// SAFETY:` comment \
                 (or `# Safety` doc section for an `unsafe fn`); state the exact \
                 invariant the block relies on"
                    .to_owned(),
            ));
        }
    }
}

/// A line containing `unsafe` is justified when the line itself, or any
/// contiguous run of comment/attribute/blank lines directly above it,
/// contains `SAFETY:` or a `# Safety` doc heading.
fn safety_justified(file: &SourceFile, line0: usize) -> bool {
    let says_safety = |raw: &str| raw.contains("SAFETY:") || raw.contains("# Safety");
    if says_safety(&file.raw_lines[line0]) {
        return true;
    }
    let mut i = line0;
    while i > 0 {
        i -= 1;
        let trimmed = file.raw_lines[i].trim_start();
        let is_comment = trimmed.starts_with("//");
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if !(is_comment || is_attr || trimmed.is_empty()) {
            return false;
        }
        if is_comment && says_safety(trimmed) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// SIMD parity
// ---------------------------------------------------------------------------

/// Every `#[target_feature]` fn must be named `*_avx2`, have a same-file
/// `*_scalar` twin, and both names must appear in test code somewhere in
/// the crate — so an intrinsic path can never exist without its
/// bit-identity oracle and a test that exercises the pair.
fn simd_parity(file: &SourceFile, ws: &Workspace, out: &mut Vec<Finding>) {
    for (i, code) in file.code_lines.iter().enumerate() {
        if !code.replace(' ', "").contains("#[target_feature") {
            continue;
        }
        // The fn item follows the attribute (possibly after more attrs).
        let Some((fn_line, name)) = next_fn_name(file, i) else {
            continue;
        };
        let Some(base) = name.strip_suffix("_avx2") else {
            out.push(finding(
                file,
                fn_line,
                Lint::SimdParityTwin,
                format!(
                    "`#[target_feature]` fn `{name}` does not follow the `*_avx2` \
                     naming convention, so its scalar twin cannot be paired; rename \
                     it `{name}_avx2`-style with a `*_scalar` twin"
                ),
            ));
            continue;
        };
        let twin = format!("{base}_scalar");
        let has_twin = file.code_lines.iter().any(|l| has_word(l, &twin));
        if !has_twin {
            out.push(finding(
                file,
                fn_line,
                Lint::SimdParityTwin,
                format!(
                    "`#[target_feature]` fn `{name}` has no same-file scalar twin \
                     `{twin}`; add one mirroring the expression order so the pair \
                     can be pinned bit-identical"
                ),
            ));
            continue;
        }
        let referenced = |ident: &str| {
            ws.files.iter().any(|f| {
                f.crate_name == file.crate_name
                    && f.code_lines
                        .iter()
                        .enumerate()
                        .any(|(j, l)| f.is_test_line(j) && has_word(l, ident))
            })
        };
        if !(referenced(&name) && referenced(&twin)) {
            out.push(finding(
                file,
                fn_line,
                Lint::SimdParityTest,
                format!(
                    "no test in crate `{}` references both `{name}` and `{twin}` \
                     by name; add a bit-identity test comparing the pair",
                    file.crate_name
                ),
            ));
        }
    }
}

/// Finds the next `fn` item at or after `start` and returns its line and
/// name (bounded lookahead over further attributes/blank lines).
fn next_fn_name(file: &SourceFile, start: usize) -> Option<(usize, String)> {
    for j in start..(start + 8).min(file.code_lines.len()) {
        let code = &file.code_lines[j];
        for pos in word_positions(code, "fn") {
            let rest: String = code.chars().skip(pos + 2).collect();
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some((j, name));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// Wall-clock, ambient-hashing, and threading lints over the non-test code
/// of the determinism-pinned crates (threading is checked in every crate).
fn determinism_lints(file: &SourceFile, out: &mut Vec<Finding>) {
    let pinned = DETERMINISM_CRATES.contains(&file.crate_name.as_str());
    let may_thread = THREAD_ALLOWLIST.contains(&file.rel_path.as_str());
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.is_test_line(i) {
            continue;
        }
        if pinned {
            for token in WALL_CLOCK_TOKENS {
                if has_word(code, token) {
                    out.push(finding(
                        file,
                        i,
                        Lint::WallClock,
                        format!(
                            "`{token}` reads wall clock or ambient entropy; crate \
                             `{}` is determinism-pinned — inject seeds/times through \
                             parameters instead (timing belongs in resilience-cli)",
                            file.crate_name
                        ),
                    ));
                }
            }
            default_hasher(file, i, out);
        }
        if !may_thread {
            for method in ["spawn", "scope"] {
                if path_call(code, "thread", method) {
                    out.push(finding(
                        file,
                        i,
                        Lint::ThreadSpawn,
                        format!(
                            "`thread::{method}` outside {}; route parallelism \
                             through the sweep executor or replication runner so \
                             scheduling stays deterministic",
                            THREAD_ALLOWLIST.join("/")
                        ),
                    ));
                }
            }
        }
    }
}

/// Detects `word :: method` with arbitrary interior whitespace.
fn path_call(code: &str, word: &str, method: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for pos in word_positions(code, word) {
        let mut i = pos + word.chars().count();
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i + 1 >= chars.len() || chars[i] != ':' || chars[i + 1] != ':' {
            continue;
        }
        i += 2;
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        let rest: String = chars[i..].iter().collect();
        if rest.starts_with(method)
            && !rest
                .chars()
                .nth(method.len())
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
    }
    false
}

/// Flags `HashMap<K, V>` / `HashSet<T>` instantiations without an explicit
/// hasher parameter, `HashMap::new`/`HashSet::new` (which pin the
/// ambient-seeded `RandomState`), and explicit `RandomState` mentions.
fn default_hasher(file: &SourceFile, i: usize, out: &mut Vec<Finding>) {
    let code = &file.code_lines[i];
    for (container, default_params) in [("HashMap", 2usize), ("HashSet", 1usize)] {
        for pos in word_positions(code, container) {
            let after: String = code.chars().skip(pos + container.len()).collect();
            let after = after.trim_start();
            let violation = if after.starts_with('<') {
                generic_arity(file, i, pos + container.len()) == Some(default_params)
            } else {
                after.starts_with("::new")
            };
            if violation {
                out.push(finding(
                    file,
                    i,
                    Lint::DefaultHasher,
                    format!(
                        "`{container}` with the default ambient-seeded hasher; use an \
                         explicit deterministic hasher (e.g. `KeyHashBuilder` as in \
                         resilience::cache) or a sorted/BTree container so iteration \
                         order can never leak into output"
                    ),
                ));
            }
        }
    }
    if has_word(code, "RandomState") {
        out.push(finding(
            file,
            i,
            Lint::DefaultHasher,
            "`RandomState` is seeded from ambient entropy; use a deterministic \
             hasher"
                .to_owned(),
        ));
    }
}

/// Counts top-level generic parameters of the `<…>` starting at char
/// `col` of line `i` (must point at or before the `<`), scanning across at
/// most 6 lines. `None` when unbalanced within the window.
fn generic_arity(file: &SourceFile, i: usize, col: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    for (j, line) in file.code_lines.iter().enumerate().skip(i).take(6) {
        let skip = if j == i { col } else { 0 };
        for c in line.chars().skip(skip) {
            match c {
                '<' => {
                    depth += 1;
                    any = true;
                }
                '>' => {
                    depth = depth.saturating_sub(1);
                    if any && depth == 0 {
                        return Some(commas + 1);
                    }
                }
                ',' if depth == 1 => commas += 1,
                _ => {}
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// float hygiene
// ---------------------------------------------------------------------------

/// Flags `==`/`!=` whose immediate operand is a float literal (or a
/// `f64::NAN`-style float constant) in non-test code, unless the line — or
/// the contiguous comment run directly above it — carries a written
/// `float-cmp:` justification. Bit-exact comparisons through `to_bits` and
/// tolerance comparisons through `approx_eq*` never trip this (their
/// operands are integers/calls).
fn float_cmp(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, code) in file.code_lines.iter().enumerate() {
        if file.is_test_line(i) {
            continue;
        }
        let chars: Vec<char> = code.chars().collect();
        let mut flagged = false;
        for p in 0..chars.len().saturating_sub(1) {
            if flagged {
                break;
            }
            let op = (chars[p], chars[p + 1]);
            if op != ('=', '=') && op != ('!', '=') {
                continue;
            }
            // Exclude `<=`, `>=`, `===`-like runs and `=>`/`!=` tails.
            if p > 0 && matches!(chars[p - 1], '<' | '>' | '=' | '!') {
                continue;
            }
            if chars.get(p + 2) == Some(&'=') {
                continue;
            }
            let left = operand_left(&chars, p);
            let right = operand_right(&chars, p + 2);
            if is_float_operand(&left) || is_float_operand(&right) {
                if justified_float(file, i) {
                    continue;
                }
                out.push(finding(
                    file,
                    i,
                    Lint::FloatCmpLiteral,
                    "direct `==`/`!=` against a float literal; compare through \
                     `to_bits()`, `numerics::approx_eq*`, or document the exact-\
                     value intent in a `// float-cmp:` comment"
                        .to_owned(),
                ));
                flagged = true;
            }
        }
    }
}

/// A float comparison is justified when its own line, or any line of the
/// contiguous comment/attribute/blank run directly above it, contains a
/// `float-cmp:` marker — the same neighbourhood rule as [`safety_justified`],
/// so multi-line justification comments work.
fn justified_float(file: &SourceFile, line0: usize) -> bool {
    if file.raw_lines[line0].contains("float-cmp:") {
        return true;
    }
    let mut i = line0;
    while i > 0 {
        i -= 1;
        let trimmed = file.raw_lines[i].trim_start();
        let is_comment = trimmed.starts_with("//");
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if !(is_comment || is_attr || trimmed.is_empty()) {
            return false;
        }
        if is_comment && trimmed.contains("float-cmp:") {
            return true;
        }
    }
    false
}

/// Token charset for comparison operands: enough to capture numeric
/// literals and `Type::CONST` paths.
fn operand_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn operand_left(chars: &[char], op_pos: usize) -> String {
    let mut end = op_pos;
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && operand_char(chars[start - 1]) {
        start -= 1;
    }
    chars[start..end].iter().collect()
}

fn operand_right(chars: &[char], mut pos: usize) -> String {
    while pos < chars.len() && chars[pos].is_whitespace() {
        pos += 1;
    }
    let mut s = String::new();
    if pos < chars.len() && (chars[pos] == '-' || chars[pos] == '+') {
        s.push(chars[pos]);
        pos += 1;
    }
    while pos < chars.len() {
        let c = chars[pos];
        // Exponent signs continue the literal (`1e-9`).
        let exp_sign = (c == '-' || c == '+')
            && s.chars().last().is_some_and(|l| l == 'e' || l == 'E')
            && s.chars()
                .next()
                .is_some_and(|f| f.is_ascii_digit() || f == '-' || f == '+');
        if operand_char(c) || exp_sign {
            s.push(c);
            pos += 1;
        } else {
            break;
        }
    }
    s
}

/// Whether an operand token is a float literal (`0.0`, `1e-9`, `2f64`,
/// `1_000.5`) or a named float constant path (`f64::NAN`, `f64::INFINITY`).
fn is_float_operand(tok: &str) -> bool {
    let t = tok.strip_prefix(['-', '+']).unwrap_or(tok);
    for konst in ["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"] {
        if t.ends_with(&format!("::{konst}")) {
            return true;
        }
    }
    let Some(first) = t.chars().next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    let digits = t.trim_end_matches("f64").trim_end_matches("f32");
    let trimmed_suffix = digits.len() != t.len();
    let has_dot = digits.contains('.');
    let has_exp = digits.char_indices().any(|(k, c)| {
        (c == 'e' || c == 'E')
            && k > 0
            && digits[..k]
                .chars()
                .all(|d| d.is_ascii_digit() || d == '_' || d == '.')
    });
    (has_dot || has_exp || trimmed_suffix)
        && digits
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+'))
}

// ---------------------------------------------------------------------------
// crate attributes
// ---------------------------------------------------------------------------

/// Required crate-root attributes must be present (checked only for crates
/// whose root file exists in the file set, so fixture workspaces are not
/// spuriously flagged).
fn crate_attrs(ws: &Workspace, out: &mut Vec<Finding>) {
    for (krate, root_file, attr) in REQUIRED_CRATE_ATTRS {
        let Some(file) = ws.files.iter().find(|f| f.rel_path == *root_file) else {
            continue;
        };
        let want = attr.replace(' ', "");
        let present = file
            .code_lines
            .iter()
            .any(|l| l.replace(' ', "").contains(&want));
        if !present {
            out.push(Finding {
                path: root_file.to_string(),
                line: 1,
                lint: Lint::CrateAttrs,
                message: format!(
                    "crate `{krate}` must carry `{attr}` at the crate root; it is \
                     part of the unsafe-quarantine contract"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        Workspace::from_sources(&[(path, src)]).lint()
    }

    #[test]
    fn float_operand_classification() {
        for good in [
            "0.0", "1e-9", "2f64", "1_000.5", "-3.25", "f64::NAN", "1.5E3",
        ] {
            assert!(is_float_operand(good), "{good}");
        }
        for bad in ["0", "100", "0x1f", "count", "m", "1usize", "x.len"] {
            assert!(!is_float_operand(bad), "{bad}");
        }
    }

    #[test]
    fn path_call_matching() {
        assert!(path_call("std::thread::spawn(|| {})", "thread", "spawn"));
        assert!(path_call("thread :: scope(|s| {})", "thread", "scope"));
        assert!(!path_call(
            "thread::available_parallelism()",
            "thread",
            "spawn"
        ));
        assert!(!path_call("scope.spawn(move || {})", "thread", "spawn"));
    }

    #[test]
    fn generic_arity_counting() {
        let f = SourceFile::new(
            "crates/sim/src/x.rs",
            "type A = HashMap<Key<u8, u8>, Value, Hasher>;\n",
        );
        let col = f.code_lines[0].find("HashMap").unwrap() + "HashMap".len();
        assert_eq!(generic_arity(&f, 0, col), Some(3));
    }

    #[test]
    fn le_ge_comparisons_do_not_trip_float_lint() {
        let findings = lint_one(
            "crates/sim/src/x.rs",
            "fn f(x: f64) -> bool { x <= 1.0 && x >= 0.0 }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
