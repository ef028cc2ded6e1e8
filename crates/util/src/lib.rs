//! Foundation utilities shared across the `trtsim` workspace.
//!
//! This crate deliberately owns four pieces of machinery that the simulator
//! must control bit-for-bit rather than delegate to external crates:
//!
//! * [`rng`] — a deterministic, splittable PRNG ([`rng::Pcg32`] seeded through
//!   [`rng::SplitMix64`], with [`rng::stream_seed`] deriving order-free
//!   per-item streams). Engine-build non-determinism is a *subject of study*
//!   in this reproduction, so every random draw must be replayable from a seed.
//! * [`pool`] — a scoped worker pool ([`pool::map_indexed`]) for deterministic
//!   fan-out: same results at any thread count as long as the work is a pure
//!   function of the item index.
//! * [`mod@f16`] — software IEEE 754 binary16 ([`f16::F16`]) plus INT8 quantization
//!   helpers. Tactic-dependent accumulation order over these types is what
//!   makes different engine builds produce different output labels.
//! * [`stats`] — Welford accumulators and summary statistics used by every
//!   experiment harness when reporting mean/σ latencies, exactly as the paper
//!   reports "average of the 10 runs along with standard deviation".
//!
//! # Examples
//!
//! ```
//! use trtsim_util::rng::Pcg32;
//! use trtsim_util::stats::RunningStats;
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let mut stats = RunningStats::new();
//! for _ in 0..100 {
//!     stats.push(rng.next_f64());
//! }
//! assert!(stats.mean() > 0.0 && stats.mean() < 1.0);
//! ```

#![warn(missing_docs)]

pub mod f16;
pub mod pool;
pub mod rng;
pub mod stats;

pub use f16::F16;
pub use rng::{Pcg32, SplitMix64};
pub use stats::{RunningStats, Summary};

/// Renders `s` as a JSON string literal, quotes included, with every escape
/// RFC 8259 requires (quote, backslash and all control characters).
///
/// The workspace's hand-rolled JSON writers (bench reports, telemetry
/// snapshots, chrome traces, request traces) all quote strings through this.
///
/// # Examples
///
/// ```
/// assert_eq!(trtsim_util::json_string("a\"b\n\u{1}"), r#""a\"b\n\u0001""#);
/// ```
pub fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Combines a base seed with a domain label and an index into a new seed.
///
/// Used throughout the workspace to derive independent random streams (e.g.
/// per-layer weight seeds, per-build tactic-noise seeds) from a single
/// user-provided seed, so that changing one stream never perturbs another.
///
/// # Examples
///
/// ```
/// let a = trtsim_util::derive_seed(42, "weights", 0);
/// let b = trtsim_util::derive_seed(42, "weights", 1);
/// let c = trtsim_util::derive_seed(42, "tactics", 0);
/// assert_ne!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn derive_seed(base: u64, domain: &str, index: u64) -> u64 {
    // FNV-1a over the domain string, then SplitMix64 finalization to spread
    // low-entropy (base, index) pairs across the full 64-bit space.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in domain.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut x = base ^ h.rotate_left(17) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, "x", 2), derive_seed(1, "x", 2));
    }

    #[test]
    fn derive_seed_separates_domains_and_indices() {
        let mut seen = HashSet::new();
        for base in 0..4u64 {
            for idx in 0..16u64 {
                for domain in ["weights", "tactics", "images"] {
                    assert!(seen.insert(derive_seed(base, domain, idx)));
                }
            }
        }
    }
}
