//! Small shared helpers: order statistics, JSON building, output
//! directory, plan directories that remove themselves.

use serde_json::{Map, Number, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Median of `values` (mean of the middle pair for even counts); NaN
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

pub fn int(v: u64) -> Value {
    Value::Number(Number::from_u64(v))
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => n.as_f64(),
        _ => None,
    }
}

/// The benchmark package's directory. The path baked in at build time
/// is right whenever the binary runs in the checkout that built it;
/// the working-directory fallback covers a checkout moved afterwards.
pub fn package_dir() -> PathBuf {
    let baked = Path::new(env!("CARGO_MANIFEST_DIR"));
    if baked.is_dir() {
        baked.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    }
}

/// `benchmark/out`, created on demand. Everything the benchmark writes
/// (plan directories, `trace.json`, `history.jsonl`) lives here, inside
/// the checkout.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out must be creatable");
    dir
}

/// A per-process plan directory under `benchmark/out`, removed on drop.
pub struct PlanDir(PathBuf);

impl PlanDir {
    pub fn fresh() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = out_dir().join(format!(
            "plans-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PlanDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for PlanDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Worker threads and closed-loop clients both follow the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
