//! Deterministic randomness for workload generation.
//!
//! Self-contained (the offline crate set has no `rand`): a xoshiro256++
//! generator seeded through SplitMix64, plus a Zipf(α) sampler over a finite
//! item universe: a precomputed CDF inverted through a table of cutpoint
//! cells, each carrying its first item's CDF value, so most draws cost one
//! load and one compare, and every draw returns exactly the index a binary
//! search over the CDF would (see [`Zipf`]).
//!
//! Every draw is a pure function of the seed, so simulation runs are
//! bit-reproducible across platforms and rustc versions — the property the
//! determinism regression tests pin down.

/// A deterministic random source. Cloneable so sub-generators can be forked;
/// prefer [`DetRng::fork`] which decorrelates the child stream.
#[derive(Clone)]
pub struct DetRng {
    s: [u64; 4],
}

/// The double in `[0, 1)` that 53 random bits `x < 2^53` stand for:
/// `x · 2^-53`, exact.
#[inline]
fn unit_of(x: u64) -> f64 {
    x as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // Expand the seed through SplitMix64, per the xoshiro authors'
        // recommendation (avoids the all-zero state and correlated lanes).
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Fork a decorrelated child generator (e.g. one per source instance).
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seed(s)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift bounded sampling (Lemire). The bias for any n the
        // simulator uses (≪ 2^32) is far below 2^-32 — irrelevant here, and
        // the method is branch-free which keeps the hot generators cheap.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the canonical [0,1) double.
        unit_of(self.next_u64() >> 11)
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponentially distributed value with the given mean (used for jittered
    /// inter-arrival times).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }
}

/// Zipf(α) distribution over `{0, 1, .., n-1}` where item 0 is the hottest.
///
/// `alpha = 0` degenerates to the uniform distribution, matching the paper's
/// skewness parameter sweep `[0.0, 0.5, 1.0, 1.5]`.
///
/// A draw inverts the CDF at `u = x · 2^-53`, where `x` is the same 53
/// random bits [`DetRng::unit`] turns into a double, through a table of
/// cells (Chen & Asau's cutpoint method; Devroye, *Non-Uniform Random
/// Variate Generation*, §III.2.4). With `m` a power of two, cell `j` holds
/// `lo`, the first item whose CDF reaches `j / m`, together with `cdf[lo]`
/// and a *wide* flag; cell `m` holds `lo = n - 1`. For `j = ⌊u · m⌋` the
/// answer lies in `lo ..= lo'`, where `lo'` is cell `j + 1`'s, and the flag
/// is set when that span has more than two entries. A draw therefore
/// costs one load for an unflagged cell (`lo + (cdf[lo] < u)`, with no
/// branch on the data) and a short scan, or a binary search over the
/// span, for a flagged one, instead of a ~log₂ n search over the whole CDF.
///
/// The draw is exact. `m = 2^k`, so `j = x >> (53 - k)` is `⌊u · m⌋`
/// computed on the integer (`u · m` and `j / m` are exact scalings by a
/// power of two), and `j / m <= u < (j + 1) / m` holds. Then `cdf[lo'] >=
/// (j + 1) / m > u`, or `lo' = n - 1` whose CDF is 1, and every item below
/// `lo` has a CDF under `j / m <= u`; so the span contains the first `i`
/// with `cdf[i] >= u`, and an unflagged cell's compare picks it. Every draw
/// returns the index a full binary search over the CDF would, for every
/// seed.
///
/// `m = min(4 · n.next_power_of_two(), 2^16)`, and a cell is 16 bytes, so
/// the table is at most ~1 MB next to the CDF's `8 · n` bytes (the
/// Twitch users sampler, n = 100 k, sits at that cap). The flag is bit 31
/// of `lo`, so the universe is capped at 2^31 items.
pub struct Zipf {
    cdf: Vec<f64>,
    cells: Vec<Cell>,
    /// `53 - log2 m`: a draw's 53 bits shifted by this are its cell.
    shift: u32,
}

/// One cutpoint cell: the first item of its span, that item's CDF value,
/// and the [`WIDE`] flag in `lo`. Aligned so a cell never straddles a
/// cache line.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct Cell {
    cdf: f64,
    lo: u32,
}

/// Set in [`Cell::lo`] when the cell's span has more than two entries.
const WIDE: u32 = 1 << 31;

/// The table's maximum number of cells (`m`): 2^16 cells keep it at about
/// 1 MB for any universe size.
const CELLS_MAX: usize = 1 << 16;

/// Spans of at most this many entries past a wide cell's `lo` are scanned
/// linearly; longer ones (only the tail cells of a large universe) are
/// binary-searched.
const LINEAR_SPAN: usize = 8;

impl Zipf {
    /// Build the sampler. `n` must be in `1 ..= 2^31` and `alpha` finite
    /// and ≥ 0.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n >= 1, "zipf over empty universe");
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "zipf exponent must be finite and >= 0, got {alpha}"
        );
        assert!(
            n <= WIDE as usize,
            "zipf universe of {n} items overflows the cells' 31-bit index"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point drift: the last entry must be 1.0 so
        // sampling can never fall off the end.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        let m = (4 * n.next_power_of_two()).min(CELLS_MAX);
        let mut cells: Vec<Cell> = Vec::with_capacity(m + 1);
        let mut i = 0;
        for j in 0..=m {
            if j == m {
                i = n - 1;
            } else {
                let cut = j as f64 / m as f64;
                while cdf[i] < cut {
                    i += 1;
                }
            }
            if let Some(prev) = cells.last_mut() {
                if i - prev.lo as usize > 1 {
                    prev.lo |= WIDE;
                }
            }
            cells.push(Cell {
                cdf: cdf[i],
                lo: i as u32,
            });
        }
        let shift = 53 - m.trailing_zeros();
        Self { cdf, cells, shift }
    }

    /// Number of items in the universe.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the universe is empty (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw an item index.
    // checker:hot-path
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.invert(rng.next_u64() >> 11)
    }

    /// The first index `i` with `cdf[i] >= x · 2^-53`, for `x < 2^53`.
    // checker:hot-path
    #[inline]
    fn invert(&self, x: u64) -> usize {
        let u = unit_of(x);
        let j = (x >> self.shift) as usize;
        let cell = self.cells[j];
        let lo = (cell.lo & !WIDE) as usize;
        if cell.lo & WIDE == 0 {
            return lo + usize::from(cell.cdf < u);
        }
        // A wide cell: the answer is in lo..=hi, and cdf[hi] >= u.
        let hi = (self.cells[j + 1].lo & !WIDE) as usize;
        if hi - lo <= LINEAR_SPAN {
            let mut i = lo;
            while self.cdf[i] < u {
                i += 1;
            }
            i
        } else {
            lo + self.cdf[lo..hi].partition_point(|&c| c < u)
        }
    }

    /// Probability mass of item `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_reproducible() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn forks_decorrelate() {
        let mut root = DetRng::seed(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let s1: Vec<u64> = (0..10).map(|_| c1.below(u64::MAX)).collect();
        let s2: Vec<u64> = (0..10).map(|_| c2.below(u64::MAX)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = DetRng::seed(11);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            let v = rng.range(100, 110);
            assert!((100..110).contains(&v));
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        // Every residue of a small modulus must be reachable (a classic
        // failure mode of bad bounded sampling).
        let mut rng = DetRng::seed(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_is_skewed_and_monotone() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        // Hottest item of Zipf(1.0, 100) has mass 1/H_100 ≈ 0.1928.
        assert!((z.pmf(0) - 0.1928).abs() < 1e-3);
    }

    #[test]
    fn zipf_samples_in_range_and_hit_head() {
        let z = Zipf::new(50, 1.5);
        let mut rng = DetRng::seed(1);
        let mut head = 0usize;
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!(s < 50);
            if s == 0 {
                head += 1;
            }
        }
        // Zipf(1.5) head mass is ~0.38 of all draws; allow generous slack.
        assert!(head > 2_000, "head drawn {head} times");
    }

    /// The search the cell table replaced: the oracle for exactness, at the
    /// double `unit()` makes of the 53 bits `x`.
    fn binary_search(z: &Zipf, x: u64) -> usize {
        let u = unit_of(x);
        z.cdf.partition_point(|&c| c < u)
    }

    /// Share of the cells a draw can land in (all but the last) that are
    /// flagged wide.
    fn wide_share(z: &Zipf) -> f64 {
        let m = z.cells.len() - 1;
        let wide = z.cells[..m].iter().filter(|c| c.lo & WIDE != 0).count();
        wide as f64 / m as f64
    }

    #[test]
    fn zipf_draws_match_the_binary_search_oracle() {
        // Universe sizes at 1, around powers of two (where the table's cell
        // count steps), the workloads' sizes, and past the 2^16-cell cap;
        // then random ones.
        let mut sizes = vec![1, 2, 3, 4000, 100_000, 200_000, 300_000];
        for p in [2usize, 4, 8, 1024, 1 << 14, 1 << 16, 1 << 17] {
            sizes.extend([p - 1, p, p + 1]);
        }
        let mut pick = DetRng::seed(0x21FF);
        sizes.extend((0..8).map(|_| pick.range(1, 300_001) as usize));
        const TOP: u64 = 1 << 53;
        for &n in &sizes {
            for alpha in [0.0, 0.2, 1.0, 1.1, 1.5, 3.0] {
                let z = Zipf::new(n, alpha);
                let m = z.cells.len() - 1;
                assert!(m.is_power_of_two() && m <= CELLS_MAX, "n {n}: {m} cells");
                assert_eq!(1 << (53 - z.shift), m, "n {n}");
                let seed = pick.next_u64();
                let mut draws = DetRng::seed(seed);
                let mut oracle = DetRng::seed(seed);
                for draw in 0..4_000 {
                    let got = z.sample(&mut draws);
                    let want = binary_search(&z, oracle.next_u64() >> 11);
                    assert_eq!(got, want, "n {n} alpha {alpha} seed {seed} draw {draw}");
                }
                // The values a random stream almost never hits: the bits
                // of CDF entries (⌊c · 2^53⌋) and of cell boundaries
                // (j · 2^shift), with their neighbours.
                let steps = z.cdf.iter().step_by(n / 4096 + 1);
                let entries = steps.map(|&c| (c * TOP as f64) as u64);
                let cuts = (0..=m as u64).step_by(m / 4096 + 1).map(|j| j << z.shift);
                for x in entries.chain(cuts) {
                    for x in [x.wrapping_sub(1), x, x + 1] {
                        if x < TOP {
                            let (got, want) = (z.invert(x), binary_search(&z, x));
                            assert_eq!(got, want, "n {n} alpha {alpha} x {x:#x}");
                        }
                    }
                }
            }
        }
        // Both kinds of cell are exercised above: the skewed head of
        // Zipf(1024, 1.0) leaves a few percent of its 4,096 cells wide,
        // while Zipf(4000, 0.2), Q7's auctions, has none.
        let skewed = wide_share(&Zipf::new(1024, 1.0));
        assert!((0.01..0.1).contains(&skewed), "wide share {skewed}");
        assert_eq!(wide_share(&Zipf::new(4000, 0.2)), 0.0);
        // The documented bound: 16 bytes a cell, at most 2^16 + 1 cells
        // (asserted per universe above), reached at n = 100 k.
        assert_eq!(std::mem::size_of::<Cell>(), 16);
        assert_eq!(Zipf::new(100_000, 1.1).cells.len(), CELLS_MAX + 1);
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be finite and >= 0")]
    fn zipf_rejects_nan_alpha() {
        Zipf::new(10, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be finite and >= 0")]
    fn zipf_rejects_infinite_alpha() {
        Zipf::new(10, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "zipf exponent must be finite and >= 0")]
    fn zipf_rejects_negative_alpha() {
        Zipf::new(10, -0.5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = DetRng::seed(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() < 0.2, "empirical mean {emp}");
    }
}
