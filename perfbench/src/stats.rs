//! Small numeric helpers shared by the workloads.

/// SplitMix64: the seeded hash every generator draws from.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`, for response-body fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Rank-based quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Latency samples a p99 needs: at least ten beyond it.
pub const LATENCY_SAMPLES: usize = 1000;

/// Latency percentiles in milliseconds from nanosecond samples:
/// `(p50, p99)`. Panics on fewer than [`LATENCY_SAMPLES`] samples.
pub fn latency_ms(samples_ns: &mut [u32]) -> (f64, f64) {
    assert!(
        samples_ns.len() >= LATENCY_SAMPLES,
        "{} latency samples: p99 needs at least {LATENCY_SAMPLES}",
        samples_ns.len()
    );
    samples_ns.sort_unstable();
    let at = |q: f64| {
        let rank = ((samples_ns.len() as f64 * q).ceil() as usize).clamp(1, samples_ns.len());
        samples_ns[rank - 1] as f64 / 1e6
    };
    (at(0.50), at(0.99))
}
