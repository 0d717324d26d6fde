//! Host fingerprint and process memory, read from the OS.

use std::path::Path;

use kconv_sim::mem::lanes;

/// Everything a result needs to say about where it was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// The lane backend the simulator's pricing engine dispatched to.
    pub lanes: &'static str,
    /// Worker threads every workload runs on.
    pub threads: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// The workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Reads the fingerprint of the current process.
    pub fn read(seed: u64) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lanes: lanes::active().name(),
            threads: 1,
            git_rev: git_rev(Path::new(env!("CARGO_MANIFEST_DIR")).parent()),
            seed,
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"nproc\": {}, \"lanes\": \"{}\", \"threads\": {}, \"git_rev\": \"{}\", \"seed\": {}}}",
            self.cpu.replace(['"', '\\'], ""),
            self.nproc,
            self.lanes,
            self.threads,
            self.git_rev,
            self.seed
        )
    }
}

/// The commit `HEAD` names, read from `.git` without running git; `none`
/// outside a git work tree.
fn git_rev(root: Option<&Path>) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(git) = root.map(|r| r.join(".git")) else {
        return "none".into();
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs")).and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                })
                .unwrap_or_else(|| "none".into()),
            None => head,
        },
        None => "none".into(),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where the
/// OS does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
