//! The host context recorded with every result.

use stats::Fnv64;
use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub llc: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The last-level cache of CPU 0: the highest-level entry under sysfs.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) = (
            read_trimmed(&format!("{dir}/level")).and_then(|l| l.parse::<u32>().ok()),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level >= *l) {
            best = Some((level, format!("L{level} {size}")));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, s)| s)
}

/// FNV-1a over the sources the CLI is built from (every file under
/// `crates/` and `vendor/`, in path order, plus the root manifest and
/// lock file): names the code measured when no git metadata is present.
fn source_digest() -> Option<String> {
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates"), "vendor".into()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).ok()? {
            let path = entry.ok()?.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    let mut h = Fnv64::new();
    for f in &files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(f).ok()?);
    }
    Some(format!("{:016x}", h.digest()))
}

pub fn probe() -> Host {
    let cpu_model = read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let git = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let sources = source_digest().unwrap_or_else(|| "unknown".to_owned());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
        cpu_model,
        llc: last_level_cache(),
        kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        commit: match git {
            Some(rev) => format!("{rev} (sources {sources})"),
            None => format!("no git metadata (sources {sources})"),
        },
    }
}

impl Host {
    pub fn json(&self, seed: u64) -> String {
        let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"llc\":{},\"kernel\":{},\"rustc\":{},\"commit\":{},\"seed\":{seed}}}",
            self.nproc,
            q(&self.cpu_model),
            q(&self.llc),
            q(&self.kernel),
            q(&self.rustc),
            q(&self.commit)
        )
    }
}
