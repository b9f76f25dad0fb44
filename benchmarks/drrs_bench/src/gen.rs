//! The benchmark's own input generator: rate profile × key distribution ×
//! `DetRng(seed)`.
//!
//! Keys are drawn once, during set-up, into a fixed-size table that the
//! source then cycles through, so the timed region sees only generated
//! records: no sampling (Zipf is a binary search over a CDF) happens while
//! the engine is being measured, and input memory does not grow with the
//! horizon.

use std::sync::Arc;

use simcore::time::{SimTime, MICROS_PER_SEC};
use simcore::{DetRng, Zipf};
use streamflow::instance::SourceGen;

/// Entries in a key table. 2^20 keys is 20 s of `steady` input; the table
/// wraps after that, which repeats the key *sequence* but not the timing.
pub const TABLE_LEN: usize = 1 << 20;

/// How keys are distributed over the universe. A Zipf rank is the key
/// itself, so which keys are hot does not depend on the seed — only the
/// order in which they arrive does.
#[derive(Clone, Copy, Debug)]
pub enum Keys {
    /// Uniform over `0..n`.
    Uniform(u64),
    /// Zipf over `0..n` with exponent `alpha`.
    Zipf(usize, f64),
}

/// Demanded input rate over simulated time (open loop: the schedule never
/// slows down when the engine does; unsent records wait in the source's
/// `pending` queue).
#[derive(Clone, Copy, Debug)]
pub enum Rate {
    /// Constant records/second.
    Constant(f64),
    /// Square wave: `hi` for `half_period`, then `lo` for `half_period`.
    Square {
        hi: f64,
        lo: f64,
        half_period: SimTime,
    },
}

impl Rate {
    pub fn at(&self, t: SimTime) -> f64 {
        match *self {
            Rate::Constant(r) => r,
            Rate::Square {
                hi,
                lo,
                half_period,
            } => {
                if (t / half_period).is_multiple_of(2) {
                    hi
                } else {
                    lo
                }
            }
        }
    }

    /// Records the profile demands over `[0, until)`.
    pub fn records_until(&self, until: SimTime) -> u64 {
        let secs = |t: SimTime| t as f64 / MICROS_PER_SEC as f64;
        match *self {
            Rate::Constant(r) => (r * secs(until)) as u64,
            Rate::Square {
                hi,
                lo,
                half_period,
            } => {
                let full = until / half_period;
                let rest = until % half_period;
                let hi_halves = full.div_ceil(2);
                let lo_halves = full / 2;
                let tail = if full.is_multiple_of(2) { hi } else { lo };
                (hi * secs(hi_halves * half_period)
                    + lo * secs(lo_halves * half_period)
                    + tail * secs(rest)) as u64
            }
        }
    }
}

/// Draw a key table. This is the benchmark's input generation; its cost is
/// part of `setup_s` and is reported as `workloads.gen_ns_per_record`.
pub fn key_table(keys: Keys, seed: u64, len: usize) -> Arc<[u32]> {
    let mut rng = DetRng::seed(seed);
    let table: Vec<u32> = match keys {
        Keys::Uniform(n) => (0..len).map(|_| rng.below(n) as u32).collect(),
        Keys::Zipf(n, alpha) => {
            let z = Zipf::new(n, alpha);
            (0..len).map(|_| z.sample(&mut rng) as u32).collect()
        }
    };
    table.into()
}

/// What value a generated record carries.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Always 1 (keyed running aggregate).
    One,
    /// A NEXMark bid price: trends upward with simulated time plus a
    /// position-derived jitter in `0..50`.
    Bid,
}

/// One source instance's generator: cycles through a pre-drawn key table.
pub struct TableGen {
    pub table: Arc<[u32]>,
    pub pos: usize,
    pub rate: Rate,
    pub value: Value,
    pub batch: u32,
    /// Stop after this many records, so the pipeline drains before the
    /// horizon and record conservation can be checked exactly.
    pub limit: u64,
}

impl SourceGen for TableGen {
    fn rate(&self, t: SimTime) -> f64 {
        self.rate.at(t)
    }

    fn next(&mut self, t: SimTime) -> (u64, i64) {
        let pos = self.pos;
        self.pos = if pos + 1 == self.table.len() {
            0
        } else {
            pos + 1
        };
        let value = match self.value {
            Value::One => 1,
            Value::Bid => {
                let jitter = (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                100 + (t / MICROS_PER_SEC) as i64 + (jitter % 50) as i64
            }
        };
        (self.table[pos] as u64, value)
    }

    fn limit(&self) -> Option<u64> {
        Some(self.limit)
    }

    fn batch(&self) -> u32 {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{ms, secs};

    #[test]
    fn same_seed_same_table_other_seed_other_table() {
        let a = key_table(Keys::Zipf(1024, 1.0), 7, 4096);
        let b = key_table(Keys::Zipf(1024, 1.0), 7, 4096);
        let c = key_table(Keys::Zipf(1024, 1.0), 8, 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < 1024));
    }

    #[test]
    fn square_wave_alternates_and_integrates() {
        let r = Rate::Square {
            hi: 60_000.0,
            lo: 12_000.0,
            half_period: secs(1),
        };
        assert_eq!(r.at(0), 60_000.0);
        assert_eq!(r.at(secs(1)), 12_000.0);
        assert_eq!(r.at(secs(2) + 5), 60_000.0);
        assert_eq!(r.records_until(secs(2)), 72_000);
        assert_eq!(r.records_until(secs(3)), 132_000);
        assert_eq!(r.records_until(secs(1) + ms(500)), 66_000);
        assert_eq!(Rate::Constant(50_000.0).records_until(secs(4)), 200_000);
    }

    #[test]
    fn table_gen_wraps_and_prices_trend_upward() {
        let mut g = TableGen {
            table: vec![3u32, 5].into(),
            pos: 0,
            rate: Rate::Constant(1.0),
            value: Value::Bid,
            batch: 4,
            limit: 10,
        };
        let (k0, v0) = g.next(0);
        let (k1, _) = g.next(0);
        let (k2, v2) = g.next(secs(100));
        assert_eq!((k0, k1, k2), (3, 5, 3));
        assert_eq!(v2 - v0, 100);
        assert_eq!(g.limit(), Some(10));
        assert_eq!(g.batch(), 4);
    }
}
