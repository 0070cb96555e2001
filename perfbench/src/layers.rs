//! Layer measurements taken outside the request loop: decoding the
//! workload's data files from memory, the `bauplan` CLI against the same
//! data dir, and process memory.

use bytes::Bytes;
use lakehouse_format::RangedReader;
use lakehouse_store::ObjectStore;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of `f` over repetitions that together take at least
/// `budget` (and at least three).
fn median_time(budget: Duration, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(ms(t.elapsed()));
    }
    Duration::from_secs_f64(median(&times) / 1e3)
}

/// Decode cost of the data files under `prefix`, read once into memory and
/// then decoded through the public ranged reader with a fetch over those
/// bytes, so no store time is included. Returns (decode ms/MB excluding
/// checksums, CRC32C ms/MB).
pub fn decode_rates(raw: &dyn ObjectStore, prefix: &str) -> Result<(f64, f64), String> {
    let files: Vec<Bytes> = raw
        .list(prefix)
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|p| p.as_str().ends_with(".lkh"))
        .map(|p| raw.get(p).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mb = files.iter().map(Bytes::len).sum::<usize>() as f64 / (1024.0 * 1024.0);
    if mb == 0.0 {
        return Err(format!("no data files under {prefix}"));
    }
    let budget = Duration::from_millis(300);
    let crc = median_time(budget, || {
        for f in &files {
            std::hint::black_box(lakehouse_checksum::crc32c(std::hint::black_box(f)));
        }
    });
    let mut failure = None;
    let read = median_time(budget, || {
        for f in &files {
            let fetch = |s: usize, e: usize| Ok(f.slice(s..e));
            let decoded = RangedReader::open(f.len(), &fetch).and_then(|r| {
                let groups: Vec<usize> = (0..r.num_row_groups()).collect();
                r.read_groups(&groups, None, &fetch)
            });
            match decoded {
                Ok(batch) => {
                    std::hint::black_box(batch);
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let (read, crc) = (ms(read) / mb, ms(crc) / mb);
    Ok(((read - crc).max(0.0), crc))
}

/// One `bauplan query` against `data_dir`: wall ms, or an error if it
/// failed or its output lacks `expect`.
pub fn cli_query(cli: &Path, data_dir: &Path, sql: &str, expect: &str) -> Result<f64, String> {
    let t = Instant::now();
    let out = Command::new(cli)
        .arg("--data-dir")
        .arg(data_dir)
        .args(["query", "-q", sql])
        .output()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    let wall = ms(t.elapsed());
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "cli exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    if !stdout.contains(expect) {
        return Err(format!("cli output lacks {expect:?}"));
    }
    Ok(wall)
}
