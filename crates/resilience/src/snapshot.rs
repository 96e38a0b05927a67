//! Serialized optimum-cache snapshots: the shareable warm-store artifact.
//!
//! A snapshot is a line-delimited JSON document over the same wire layer
//! the daemon protocol uses:
//!
//! ```text
//! {"format":"optimum-snapshot","version":1,"entries":N}
//! {"key":{"bits":[…7 u64…],"theorem":"theoremN"},"optimum":{"pattern":…,"overhead":…}}
//!   … N entry lines, sorted by OptimumKey::order_key …
//! {"fnv64":"0x…"}
//! ```
//!
//! Keys travel as raw f64 bit patterns (see [`crate::wire`]), so a reloaded
//! cache is *bit-identical* to the one that wrote the snapshot. Entries are
//! emitted in [`OptimumKey::order_key`]
//! order, so the same cache contents always produce the same bytes no
//! matter how they were inserted. The footer's FNV-64 digest covers every
//! byte of the header and entry lines (newlines included); a flipped bit,
//! a truncated tail or a foreign format is rejected with an error naming
//! the failure, never silently half-loaded.
//!
//! This module is pure string ↔ entries, keeping this crate deterministic
//! and I/O-free.

use crate::cache::{OptimumCache, OptimumKey};
use crate::optimal::PatternOptimum;
use serde::{Serialize, Value};
use stats::Fnv64;

/// The `format` discriminator every snapshot header carries.
pub const SNAPSHOT_FORMAT: &str = "optimum-snapshot";

/// The snapshot layout version this build writes and accepts.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Renders `cache`'s entries as a snapshot document (sorted, digested).
pub fn snapshot_string(cache: &OptimumCache) -> String {
    snapshot_of_entries(&cache.snapshot_entries())
}

/// Renders an explicit entry list as a snapshot document. The list is
/// re-sorted by [`OptimumKey::order_key`] so callers cannot accidentally
/// produce schedule-dependent bytes.
pub fn snapshot_of_entries(entries: &[(OptimumKey, PatternOptimum)]) -> String {
    let mut sorted: Vec<&(OptimumKey, PatternOptimum)> = entries.iter().collect();
    sorted.sort_unstable_by_key(|(key, _)| key.order_key());
    let mut body = Value::obj(vec![
        ("format", SNAPSHOT_FORMAT.to_json()),
        ("version", SNAPSHOT_VERSION.to_json()),
        ("entries", (sorted.len() as u64).to_json()),
    ])
    .render();
    body.push('\n');
    for (key, optimum) in sorted {
        body.push_str(
            &Value::obj(vec![("key", key.to_json()), ("optimum", optimum.to_json())]).render(),
        );
        body.push('\n');
    }
    let digest = Fnv64::of(body.as_bytes());
    body.push_str(&Value::obj(vec![("fnv64", format!("{digest:#018x}").to_json())]).render());
    body.push('\n');
    body
}

/// Parses and verifies a snapshot document. Every rejection names what
/// failed: a foreign `format`, an unsupported `version`, a truncated body,
/// a digest mismatch, or a malformed entry (with its 1-based index).
pub fn parse_snapshot(text: &str) -> Result<Vec<(OptimumKey, PatternOptimum)>, String> {
    let mut digest = Fnv64::new();
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or("snapshot is empty (missing header)")?;
    digest.update(header_line.as_bytes());
    digest.update(b"\n");
    let header =
        serde::json::parse(header_line).map_err(|e| format!("snapshot header is not JSON: {e}"))?;
    let format: String = header
        .read("format")
        .map_err(|e| format!("snapshot header: {e}"))?;
    if format != SNAPSHOT_FORMAT {
        return Err(format!(
            "snapshot format \"{format}\" is not \"{SNAPSHOT_FORMAT}\""
        ));
    }
    let version: u64 = header
        .read("version")
        .map_err(|e| format!("snapshot header: {e}"))?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} is unsupported (this build reads version {SNAPSHOT_VERSION})"
        ));
    }
    let expected: u64 = header
        .read("entries")
        .map_err(|e| format!("snapshot header: {e}"))?;
    let mut entries = Vec::with_capacity(usize::try_from(expected).unwrap_or(0));
    for index in 1..=expected {
        let line = lines.next().ok_or_else(|| {
            format!(
                "snapshot truncated: header promises {expected} entries, file ends after {}",
                index - 1
            )
        })?;
        digest.update(line.as_bytes());
        digest.update(b"\n");
        let entry = serde::json::parse(line)
            .map_err(|e| format!("snapshot entry {index}/{expected}: {e}"))?;
        let key: OptimumKey = entry
            .read("key")
            .map_err(|e| format!("snapshot entry {index}/{expected}: {e}"))?;
        let optimum: PatternOptimum = entry
            .read("optimum")
            .map_err(|e| format!("snapshot entry {index}/{expected}: {e}"))?;
        entries.push((key, optimum));
    }
    let footer_line = lines
        .next()
        .ok_or("snapshot truncated: missing the fnv64 footer")?;
    let footer =
        serde::json::parse(footer_line).map_err(|e| format!("snapshot footer is not JSON: {e}"))?;
    let stated: String = footer
        .read("fnv64")
        .map_err(|e| format!("snapshot footer: {e}"))?;
    let computed = format!("{:#018x}", digest.digest());
    if stated != computed {
        return Err(format!(
            "snapshot corrupted: footer digest {stated} does not match computed {computed}"
        ));
    }
    if let Some(extra) = lines.find(|l| !l.trim().is_empty()) {
        return Err(format!(
            "snapshot has trailing content after the footer: \"{}\"",
            extra.trim()
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::reference_scenarios;
    use crate::sweep::Theorem;

    fn sample_entries() -> Vec<(OptimumKey, PatternOptimum)> {
        let s = &reference_scenarios()[0];
        Theorem::ALL
            .into_iter()
            .map(|t| {
                (
                    OptimumKey::new(&s.platform, &s.costs, t),
                    t.optimize(&s.platform, &s.costs),
                )
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_and_is_insertion_order_independent() {
        let entries = sample_entries();
        let mut reversed = entries.clone();
        reversed.reverse();
        let doc = snapshot_of_entries(&entries);
        assert_eq!(doc, snapshot_of_entries(&reversed));
        let parsed = parse_snapshot(&doc).unwrap();
        assert_eq!(parsed.len(), entries.len());
        let mut sorted = entries;
        sorted.sort_unstable_by_key(|(k, _)| k.order_key());
        assert_eq!(parsed, sorted);
    }

    #[test]
    fn cache_snapshot_reloads_into_an_equivalent_cache() {
        let cache = OptimumCache::new();
        let s = &reference_scenarios()[0];
        for t in Theorem::ALL {
            cache.optimum(&s.platform, &s.costs, t);
        }
        let reloaded = OptimumCache::new();
        reloaded.seed(parse_snapshot(&snapshot_string(&cache)).unwrap());
        assert_eq!(reloaded.snapshot_entries(), cache.snapshot_entries());
        assert_eq!(reloaded.stats().hits + reloaded.stats().misses, 0);
    }

    #[test]
    fn empty_snapshot_is_legal() {
        let doc = snapshot_of_entries(&[]);
        assert!(parse_snapshot(&doc).unwrap().is_empty());
    }

    #[test]
    fn rejections_name_the_failure() {
        let doc = snapshot_of_entries(&sample_entries());
        // Tamper with a payload while keeping every line valid JSON: only
        // the digest can catch this.
        let corrupted = doc.replacen("theorem1", "theorem2", 1);
        assert!(corrupted != doc, "test setup: corruption must land");
        let err = parse_snapshot(&corrupted).unwrap_err();
        assert!(err.contains("corrupted"), "{err}");
        // Truncation: drop the footer and the last entry.
        let mut lines: Vec<&str> = doc.lines().collect();
        lines.pop();
        lines.pop();
        let err = parse_snapshot(&(lines.join("\n") + "\n")).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Version from the future.
        let future = doc.replacen("\"version\":1", "\"version\":2", 1);
        let err = parse_snapshot(&future).unwrap_err();
        assert!(err.contains("version 2 is unsupported"), "{err}");
        // Foreign format.
        let foreign = doc.replacen("optimum-snapshot", "mystery-blob", 1);
        let err = parse_snapshot(&foreign).unwrap_err();
        assert!(err.contains("mystery-blob"), "{err}");
        // Not a snapshot at all.
        let err = parse_snapshot("").unwrap_err();
        assert!(err.contains("missing header"), "{err}");
        let err = parse_snapshot("garbage\n").unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
        // Trailing junk after a valid document.
        let err = parse_snapshot(&format!("{doc}surprise\n")).unwrap_err();
        assert!(err.contains("trailing content"), "{err}");
    }
}
