//! Order statistics, answer digests and process memory.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of unsorted samples; `+∞` entries (failed
/// requests) sort last, so failing cannot improve a percentile.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The `q`-th percentile, refused when fewer than [`MIN_TAIL_BEYOND`]
/// samples lie beyond it: a tail read off fewer samples is noise.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = if n == 0 { 0 } else { n - nearest_rank(n, q) };
    if beyond < MIN_TAIL_BEYOND {
        return Err(format!(
            "p{q} of {n} samples has {beyond} beyond it; at least {MIN_TAIL_BEYOND} are needed"
        ));
    }
    Ok(percentile(samples, q))
}

/// Fewest samples whose `q`-th percentile has [`MIN_TAIL_BEYOND`] samples
/// beyond it, so that [`tail_percentile`] accepts them.
pub fn min_samples_for_tail(q: f64) -> usize {
    assert!((0.0..100.0).contains(&q), "percentile {q} outside [0, 100)");
    (1..)
        .find(|&n| n - nearest_rank(n, q) >= MIN_TAIL_BEYOND)
        .expect("a percentile below 100 leaves ten beyond at some count")
}

/// FNV-1a over the bit patterns of a vector: two answers digest equal iff
/// (barring collisions) they are bit-identical.
pub fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}
