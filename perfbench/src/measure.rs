//! Small measurement helpers: order statistics, the result digest and
//! the process counters read from procfs.

use avis::checker::CampaignResult;

/// Quartiles and median of `values` (Python `statistics.quantiles(n=4)`
/// with the default exclusive method), so the spread printed here is
/// the spread a reader computes from the same samples.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Summary {
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
    pub(crate) n: usize,
}

pub(crate) fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "summarize needs at least one sample");
    if n == 1 {
        let v = sorted[0];
        return Summary {
            q1: v,
            median: v,
            q3: v,
            n,
        };
    }
    // The exclusive method in exact integer steps, as CPython has it.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary {
        q1: quartile(1),
        median: median(&sorted),
        q3: quartile(3),
        n,
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `p` in `0.0..=1.0`.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// 64-bit FNV-1a.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest a campaign result is verified by: FNV-1a over its `Debug`
/// rendering, which covers every field (floats print round-trip exact).
pub(crate) fn digest(result: &CampaignResult) -> u64 {
    fnv1a(format!("{result:?}").as_bytes())
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process so far (MB), from `VmHWM`.
pub(crate) fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of the whole process, every thread it ever
/// ran included (s). procfs reports clock ticks; Linux fixes the
/// user-visible tick at 100 Hz.
pub(crate) fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}
