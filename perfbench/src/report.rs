//! Output: a minimal JSON writer, the metric list a run prints as its
//! last line, host facts stamped on every result, and the report and
//! span files a run leaves under `perfbench/results/`.

use std::fmt::Write as _;
use std::path::Path;

/// Directory (relative to the checkout root) for report and span files.
pub const RESULTS_DIR: &str = "perfbench/results";

/// Insertion-ordered JSON object writer.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn raw(mut self, k: &str, v: String) -> Self {
        self.fields.push((k.to_string(), v));
        self
    }

    pub fn str(self, k: &str, v: &str) -> Self {
        self.raw(k, quote(v))
    }

    pub fn int(self, k: &str, v: i64) -> Self {
        self.raw(k, v.to_string())
    }

    /// A finite float with every digit Rust's shortest round-trip
    /// formatting gives; non-finite values are a bug in the caller.
    pub fn num(self, k: &str, v: f64) -> Self {
        assert!(v.is_finite(), "metric {k} is not finite: {v}");
        self.raw(k, format!("{v:?}"))
    }

    pub fn bool(self, k: &str, v: bool) -> Self {
        self.raw(k, v.to_string())
    }

    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", quote(k));
        }
        s.push('}');
        s
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The named metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.items.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.items.push((name, value, unit));
    }

    pub fn json(&self) -> String {
        let mut o = Obj::new();
        for (name, value, unit) in &self.items {
            o = o.raw(
                name,
                Obj::new().num("value", *value).str("unit", unit).render(),
            );
        }
        o.render()
    }
}

/// Host and configuration facts every result carries, so results from
/// different hosts, backends or server shapes are never compared.
pub fn host_facts(workload: &str, seed: u64, workers: usize, engine_threads: usize) -> Obj {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::new()
        .str("workload", workload)
        .int("seed", seed as i64)
        .int("nproc", nproc as i64)
        .str(
            "kernel_backend",
            apsq_tensor::KernelBackend::detect().name(),
        )
        .str("commit", &commit())
        .int("workers", workers as i64)
        .int("engine_threads", engine_threads as i64)
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(r))
            .unwrap_or_else(|| "unknown".to_string()),
        None => head.to_string(),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `body` to `perfbench/results/<name>`, creating the directory.
pub fn write_result_file(name: &str, body: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(RESULTS_DIR)?;
    let path = format!("{RESULTS_DIR}/{name}");
    std::fs::write(&path, body)?;
    Ok(path)
}
