//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (mobility, traffic, shadowing,
//! …) draws from its own [`RngStream`], derived from a single master seed and
//! a stable stream label. Two benefits:
//!
//! * Changing how often one component draws does not perturb the numbers any
//!   other component sees (variance reduction across experiment arms).
//! * A run is reproducible from `(master_seed, labels)` alone.
//!
//! The generator is SplitMix64-seeded xoshiro256++, implemented locally so
//! the statistical stream is stable regardless of `rand` version. The crate
//! still implements [`rand::RngCore`] so the distribution adaptors from
//! `rand` can be used on top.

use rand::RngCore;
use std::fmt;

/// SplitMix64 step; used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial state of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a state `h` (start from
/// [`FNV_OFFSET`]). The workspace's one stable string hash: stream
/// labels here, store keys and worker offsets in `mtnet-bench`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A `fmt::Write` that folds what is written into an FNV-1a state: the
/// hash of a formatted label without the label. FNV-1a is a byte stream,
/// so the pieces hash exactly as their concatenation would.
struct FnvSink(u64);

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// A named, independently seeded random stream.
///
/// ```
/// use mtnet_sim::RngStream;
/// use rand::RngCore;
/// let mut a = RngStream::derive(42, "mobility/mn0");
/// let mut b = RngStream::derive(42, "mobility/mn0");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed+label => same stream
/// let mut c = RngStream::derive(42, "traffic/mn0");
/// assert_ne!(a.next_u64(), c.next_u64()); // different label => independent
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngStream {
    s: [u64; 4],
}

impl RngStream {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not be seeded with all zeros; splitmix output of any
        // seed is never all-zero across four draws, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        RngStream { s }
    }

    /// Derives an independent stream from a master seed and a stable label.
    ///
    /// The label is hashed with an FNV-1a/SplitMix combination; any two
    /// distinct labels yield (with overwhelming probability) uncorrelated
    /// streams.
    pub fn derive(master_seed: u64, label: &str) -> Self {
        Self::from_label_hash(master_seed, fnv1a(FNV_OFFSET, label.as_bytes()))
    }

    /// [`RngStream::derive`] from the label's FNV-1a hash.
    fn from_label_hash(master_seed: u64, label_hash: u64) -> Self {
        let mut mix = master_seed ^ label_hash;
        let folded = splitmix64(&mut mix) ^ splitmix64(&mut mix);
        Self::from_seed(folded)
    }

    /// Derives a child stream from this stream and a sub-label, without
    /// advancing `self`: `derive(base, label)` for a base folded from this
    /// stream's state. The label is hashed as it is formatted
    /// (`format_args!("mn{idx}/mobility")`), so a builder deriving one
    /// stream per node allocates no string for it.
    pub fn child(&self, label: fmt::Arguments<'_>) -> Self {
        let mut hash = FnvSink(FNV_OFFSET);
        fmt::write(&mut hash, label).expect("hashing a label cannot fail");
        Self::from_label_hash(self.fold(), hash.0)
    }

    /// The seed [`RngStream::child`] derives from.
    fn fold(&self) -> u64 {
        self.s[0] ^ self.s[1].rotate_left(17) ^ self.s[2].rotate_left(31) ^ self.s[3]
    }

    /// Core xoshiro256++ step.
    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64 range must be non-empty");
        loop {
            let x = self.next();
            let (hi, lo) = {
                let m = u128::from(x) * u128::from(n);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Uniform index in `[0, len)` for slice access.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.uniform_u64(len as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        // Avoid ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (single draw; the pair's partner is
    /// discarded to keep the stream consumption per call fixed).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0, "bad std_dev");
        mean + std_dev * self.std_normal()
    }

    /// Pareto-distributed value with scale `x_min > 0` and shape `alpha > 0`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive and finite.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min.is_finite() && x_min > 0.0, "bad x_min");
        assert!(alpha.is_finite() && alpha > 0.0, "bad alpha");
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        x_min / u.powf(1.0 / alpha)
    }
}

/// Hierarchical, order-independent seed derivation for parallel batches.
///
/// A `SeedTree` names a node in an (unbounded) tree of seed namespaces
/// rooted at a master seed. Children are addressed by string label or by
/// numeric index, and the 64-bit sub-seed of a node is a pure function of
/// the path from the root — **not** of how many other nodes were derived,
/// in which order, or on which thread. That is the determinism contract
/// the parallel replication runner builds on: the `(experiment,
/// architecture, replication)` tuple alone fixes every random number a
/// run consumes.
///
/// ```
/// use mtnet_sim::rng::SeedTree;
/// let a = SeedTree::new(42).label("E10").label("multi-tier").index(3);
/// let b = SeedTree::new(42).label("E10").label("multi-tier").index(3);
/// assert_eq!(a.seed(), b.seed()); // same path => same seed
/// let c = SeedTree::new(42).label("E10").label("pure-mip").index(3);
/// assert_ne!(a.seed(), c.seed()); // any path difference => independent
/// ```
///
/// Label and index children live in separate namespaces (`label("3")` and
/// `index(3)` differ), and every absorption step mixes in the byte length,
/// so concatenation tricks (`"ab"+"c"` vs `"a"+"bc"`) cannot collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    state: u64,
}

/// Domain-separation tag for label-addressed children.
const SEED_TAG_LABEL: u64 = 0x6c61_6265_6c00_0001;
/// Domain-separation tag for index-addressed children.
const SEED_TAG_INDEX: u64 = 0x696e_6465_7800_0002;

impl SeedTree {
    /// The root namespace of a master seed.
    pub fn new(master_seed: u64) -> Self {
        let mut mix = master_seed ^ 0x5eed_c0de_5eed_c0de;
        SeedTree {
            state: splitmix64(&mut mix),
        }
    }

    /// The child namespace addressed by a string label.
    pub fn label(self, label: &str) -> Self {
        let mut mix = self.state ^ fnv1a(FNV_OFFSET, label.as_bytes()) ^ SEED_TAG_LABEL;
        let _ = splitmix64(&mut mix);
        let mut mix2 = mix ^ (label.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeedTree {
            state: splitmix64(&mut mix2),
        }
    }

    /// The child namespace addressed by a numeric index (replication
    /// number, shard id, …).
    pub fn index(self, index: u64) -> Self {
        let mut mix = self.state ^ index ^ SEED_TAG_INDEX;
        let _ = splitmix64(&mut mix);
        let mut mix2 = mix ^ index.rotate_left(32);
        SeedTree {
            state: splitmix64(&mut mix2),
        }
    }

    /// The 64-bit sub-seed of this node, e.g. for `WorldConfig::seed`.
    pub fn seed(self) -> u64 {
        let mut mix = self.state;
        splitmix64(&mut mix)
    }

    /// An [`RngStream`] seeded by this node.
    pub fn stream(self) -> RngStream {
        RngStream::from_seed(self.seed())
    }
}

/// The sub-seed for one `(experiment, architecture, replication)` run —
/// the standard derivation the batch runner and the experiment harness
/// share. Pure in its arguments: scheduling order cannot perturb it.
pub fn replication_seed(master_seed: u64, experiment: &str, architecture: &str, rep: u64) -> u64 {
    seed_for_path(master_seed, &[experiment, architecture], rep)
}

/// The sub-seed for an arbitrary-depth label path plus a replication
/// index — the generalization of [`replication_seed`] that scenario specs
/// and sweep cells use (`["E10", "multi-tier+rsmc"]` for an experiment
/// arm, `["sweep", family, cell-label]` for a sweep cell). Equal paths
/// give equal seeds; any segment difference decorrelates the streams, and
/// `seed_for_path(m, &[e, a], r) == replication_seed(m, e, a, r)` by
/// construction.
pub fn seed_for_path<S: AsRef<str>>(master_seed: u64, path: &[S], rep: u64) -> u64 {
    let mut tree = SeedTree::new(master_seed);
    for segment in path {
        tree = tree.label(segment.as_ref());
    }
    tree.index(rep).seed()
}

impl RngCore for RngStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_label() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_decorrelate() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "y");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = RngStream::derive(1, "x");
        let mut b = RngStream::derive(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn child_streams_are_stable_and_independent() {
        let parent = RngStream::derive(9, "p");
        let mut c1 = parent.child(format_args!("a"));
        let mut c2 = parent.child(format_args!("a"));
        let mut c3 = parent.child(format_args!("b"));
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn a_formatted_child_label_hashes_as_its_string() {
        let parent = RngStream::derive(42, "world");
        for idx in [0u32, 9, 10, 249, 250, 99_999, u32::MAX] {
            assert_eq!(
                parent.child(format_args!("mn{idx}/mobility")),
                RngStream::derive(parent.fold(), &format!("mn{idx}/mobility")),
                "mn{idx}"
            );
            assert_eq!(
                parent.child(format_args!("flow{idx}/traffic")),
                RngStream::derive(parent.fold(), &format!("flow{idx}/traffic")),
                "flow{idx}"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = RngStream::derive(3, "u");
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = RngStream::derive(3, "u2");
        for _ in 0..10_000 {
            let x = r.uniform(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_unbiased_small_range() {
        let mut r = RngStream::derive(11, "lemire");
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.uniform_u64(3) as usize] += 1;
        }
        for c in counts {
            // each bucket expects 10k; allow 5% deviation
            assert!((9_500..10_500).contains(&c), "biased: {counts:?}");
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = RngStream::derive(5, "exp");
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = RngStream::derive(5, "norm");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pareto_lower_bound_holds() {
        let mut r = RngStream::derive(5, "par");
        for _ in 0..10_000 {
            assert!(r.pareto(1.5, 2.0) >= 1.5);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::derive(6, "chance");
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = RngStream::derive(6, "bytes");
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_u64_zero_panics() {
        RngStream::derive(1, "z").uniform_u64(0);
    }

    #[test]
    fn seed_tree_is_pure_in_its_path() {
        let a = SeedTree::new(7).label("exp").label("arch").index(4);
        let b = SeedTree::new(7).label("exp").label("arch").index(4);
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.stream().next_u64(), b.stream().next_u64());
    }

    #[test]
    fn seed_tree_separates_label_and_index_namespaces() {
        let root = SeedTree::new(11);
        assert_ne!(root.label("3").seed(), root.index(3).seed());
        assert_ne!(root.label("").seed(), root.seed());
        assert_ne!(root.index(0).seed(), root.seed());
    }

    #[test]
    fn seed_tree_resists_concatenation_collisions() {
        let root = SeedTree::new(11);
        assert_ne!(
            root.label("ab").label("c").seed(),
            root.label("a").label("bc").seed()
        );
        assert_ne!(root.label("abc").seed(), root.label("ab").label("c").seed());
    }

    #[test]
    fn seed_tree_masters_decorrelate() {
        let a = SeedTree::new(1).label("x").index(0).seed();
        let b = SeedTree::new(2).label("x").index(0).seed();
        assert_ne!(a, b);
    }

    #[test]
    fn seed_for_path_generalizes_replication_seed() {
        assert_eq!(
            seed_for_path(42, &["E10", "multi-tier+rsmc"], 3),
            replication_seed(42, "E10", "multi-tier+rsmc", 3)
        );
        // Deeper paths are their own namespaces.
        let sweep = seed_for_path(42, &["sweep", "dense-urban", "arch=pico"], 0);
        assert_eq!(
            sweep,
            seed_for_path(42, &["sweep", "dense-urban", "arch=pico"], 0)
        );
        assert_ne!(
            sweep,
            seed_for_path(42, &["sweep", "dense-urban", "arch=pico"], 1)
        );
        assert_ne!(sweep, seed_for_path(42, &["sweep", "dense-urban"], 0));
        assert_ne!(
            sweep,
            seed_for_path(43, &["sweep", "dense-urban", "arch=pico"], 0)
        );
    }

    #[test]
    fn replication_seeds_unique_over_small_grid() {
        let mut seen = std::collections::HashSet::new();
        for exp in ["E1", "E2", "E10", "E11", "E12"] {
            for arch in ["multi-tier+rsmc", "pure-mobile-ip", "flat-cellular-ip"] {
                for rep in 0..50u64 {
                    assert!(
                        seen.insert(replication_seed(42, exp, arch, rep)),
                        "collision at ({exp}, {arch}, {rep})"
                    );
                }
            }
        }
    }
}
