//! Named deterministic random-number streams.
//!
//! All randomness in an AFTA experiment flows from a single master seed.
//! Each subsystem (fault injector, workload generator, voter jitter, ...)
//! asks the [`SeedFactory`] for a stream by *name*; the same master seed
//! and name always yield the same stream, independent of the order in which
//! streams are requested.  This is what makes the Fig. 6/Fig. 7 experiments
//! bit-for-bit reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, reproducible [`StdRng`] streams from a master seed.
///
/// Stream derivation uses an FNV-1a hash of the stream name folded into the
/// master seed, so streams are stable across runs, platforms, and request
/// order.
///
/// ```
/// use afta_sim::SeedFactory;
/// use rand::Rng;
///
/// let f = SeedFactory::new(42);
/// let mut a1: rand::rngs::StdRng = f.stream("faults");
/// let mut a2: rand::rngs::StdRng = f.stream("faults");
/// let mut b: rand::rngs::StdRng = f.stream("workload");
///
/// let xs: Vec<u32> = (0..4).map(|_| a1.gen()).collect();
/// let ys: Vec<u32> = (0..4).map(|_| a2.gen()).collect();
/// let zs: Vec<u32> = (0..4).map(|_| b.gen()).collect();
/// assert_eq!(xs, ys);   // same name => same stream
/// assert_ne!(xs, zs);   // different name => different stream
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedFactory {
    master: u64,
}

/// FNV-1a 64 offset basis: the accumulator every [`fnv1a_64`] fold
/// starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a rolling FNV-1a 64 accumulator.  Start from
/// [`FNV_OFFSET`]; folding `a` then `b` equals folding `a ++ b`.
#[inline]
#[must_use]
pub fn fnv1a_64(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc = (acc ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    acc
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijection on `u64`, so distinct inputs
/// always map to distinct outputs.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SeedFactory {
    /// Creates a factory rooted at `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            master: master_seed,
        }
    }

    /// The master seed this factory was created with.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Returns the 64-bit seed derived for stream `name`.
    #[must_use]
    pub fn derived_seed(&self, name: &str) -> u64 {
        // Mix the name hash with the master seed through a second FNV pass
        // so that (master, name) pairs map to well-spread seeds.
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.master.to_le_bytes());
        let mut h = fnv1a_64(FNV_OFFSET, &buf);
        h ^= fnv1a_64(FNV_OFFSET, name.as_bytes());
        h = h.wrapping_mul(FNV_PRIME);
        h
    }

    /// Creates the deterministic [`StdRng`] for stream `name`.
    #[must_use]
    pub fn stream(&self, name: &str) -> StdRng {
        StdRng::seed_from_u64(self.derived_seed(name))
    }

    /// The master seed for campaign shard `index`.
    ///
    /// Shard seeds are **collision-free for a fixed master**: the index
    /// is folded in through a bijective multiply (odd constant) followed
    /// by the bijective SplitMix64 finalizer, so distinct shard indices
    /// can never yield the same seed.  This is what lets a campaign fan
    /// one master seed out over thousands of parallel shards without any
    /// pair of shards replaying the same fault history.
    #[must_use]
    pub fn shard_seed(&self, index: u64) -> u64 {
        splitmix_finalize(
            self.master
                .wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        )
    }

    /// A whole [`SeedFactory`] rooted at [`SeedFactory::shard_seed`], so
    /// each campaign shard derives its own independent named streams.
    #[must_use]
    pub fn shard(&self, index: u64) -> SeedFactory {
        SeedFactory::new(self.shard_seed(index))
    }

    /// Creates an indexed sub-stream, e.g. one per replica.
    ///
    /// `indexed_stream("replica", 3)` is equivalent to
    /// `stream("replica#3")` but avoids the allocation at call sites that
    /// derive many streams.
    #[must_use]
    pub fn indexed_stream(&self, name: &str, index: usize) -> StdRng {
        let mut h = self.derived_seed(name);
        h ^= (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(FNV_PRIME);
        StdRng::seed_from_u64(h)
    }
}

/// Parses a master seed written the `AFTA_SEED` way: surrounding
/// whitespace is ignored, a `0x` or `0X` prefix means hexadecimal, and
/// anything else is decimal.  Returns `None` for text that is empty, not
/// a number or larger than `u64::MAX`; what a bad seed means is the
/// caller's policy (a default, or an error).
///
/// ```
/// assert_eq!(afta_sim::parse_seed(" 0xAF7A\n"), Some(0xAF7A));
/// assert_eq!(afta_sim::parse_seed("42"), Some(42));
/// assert_eq!(afta_sim::parse_seed("forty-two"), None);
/// ```
#[must_use]
pub fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn take4(mut r: StdRng) -> Vec<u64> {
        (0..4).map(|_| r.gen()).collect()
    }

    #[test]
    fn same_name_same_stream() {
        let f = SeedFactory::new(7);
        assert_eq!(take4(f.stream("x")), take4(f.stream("x")));
    }

    #[test]
    fn different_name_different_stream() {
        let f = SeedFactory::new(7);
        assert_ne!(take4(f.stream("x")), take4(f.stream("y")));
    }

    #[test]
    fn different_master_different_stream() {
        assert_ne!(
            take4(SeedFactory::new(1).stream("x")),
            take4(SeedFactory::new(2).stream("x"))
        );
    }

    #[test]
    fn request_order_does_not_matter() {
        let f = SeedFactory::new(99);
        let a_first = take4(f.stream("a"));
        let _ = take4(f.stream("b"));
        let a_second = take4(f.stream("a"));
        assert_eq!(a_first, a_second);
    }

    #[test]
    fn indexed_streams_differ_by_index() {
        let f = SeedFactory::new(3);
        assert_ne!(
            take4(f.indexed_stream("rep", 0)),
            take4(f.indexed_stream("rep", 1))
        );
        assert_eq!(
            take4(f.indexed_stream("rep", 5)),
            take4(f.indexed_stream("rep", 5))
        );
    }

    #[test]
    fn derived_seed_is_stable() {
        // Pin the derivation so refactors cannot silently change every
        // experiment in the repository.
        let f = SeedFactory::new(42);
        assert_eq!(f.derived_seed("faults"), f.derived_seed("faults"));
        assert_ne!(f.derived_seed("faults"), f.derived_seed("workload"));
        assert_ne!(f.derived_seed(""), 0);
    }

    #[test]
    fn master_seed_accessor() {
        assert_eq!(SeedFactory::new(5).master_seed(), 5);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let f = SeedFactory::new(42);
        let seeds: Vec<u64> = (0..1024).map(|i| f.shard_seed(i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "shard seed collision");
        // Stable across calls, different across masters.
        assert_eq!(f.shard_seed(7), f.shard_seed(7));
        assert_ne!(f.shard_seed(7), SeedFactory::new(43).shard_seed(7));
        // A shard factory derives streams from the shard seed.
        assert_eq!(f.shard(3).master_seed(), f.shard_seed(3));
        assert_ne!(
            take4(f.shard(0).stream("faults")),
            take4(f.shard(1).stream("faults"))
        );
    }

    #[test]
    fn parse_seed_reads_decimal_and_hex_and_refuses_the_rest() {
        for (text, want) in [
            ("42", Some(42)),
            ("0xAF7A", Some(0xAF7A)),
            ("0Xaf7a", Some(0xAF7A)),
            (" \t7\n", Some(7)),
            (" 0x10 ", Some(16)),
            ("", None),
            ("   ", None),
            ("0x", None),
            ("nonsense", None),
            ("0xfg", None),
            ("12ab", None),
            ("-1", None),
            ("0x-1", None),
            ("18446744073709551615", Some(u64::MAX)),
            ("0xffffffffffffffff", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("0x10000000000000000", None),
        ] {
            assert_eq!(parse_seed(text), want, "parse_seed({text:?})");
        }
    }
}
