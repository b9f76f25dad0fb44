//! `workloads` — the three workload families from the paper's evaluation
//! (§V-A):
//!
//! * [`nexmark`] — NEXMark Q7 (sliding-window max, 20K tps, ≈800 MB state)
//!   and Q8 (windowed person⋈auction join, 1K tps, ≈3 GB state),
//! * [`twitch`](mod@twitch) — a seven-operator viewer-engagement pipeline over a
//!   synthetic trace with the Rappaz-dataset macro-shape (~4 M events in
//!   1000 s, ≈500 MB of state at the scale point),
//! * [`custom`](mod@custom) — the configurable 3-operator sensitivity workload
//!   (rate × state size × Zipf skewness) used for Fig. 15.
//!
//! Each builder returns `(World, OpId)` where the `OpId` is the operator
//! the experiments rescale.

pub mod custom;
pub mod nexmark;
pub mod twitch;

pub use custom::{cluster_engine_config, custom, CustomParams};
pub use nexmark::{nexmark_engine_config, q7, q8, Q7Params, Q8Params};
pub use twitch::{twitch, twitch_engine_config, TwitchParams};

#[cfg(test)]
mod tests {
    use simcore::time::{secs, SimTime};
    use streamflow::instance::SourceGen;

    use crate::custom::CustomGen;
    use crate::nexmark::{BidGen, PersonAuctionGen};
    use crate::twitch::TwitchGen;

    /// `rate`, `limit` and `batch` at instants across the runs' horizons
    /// (Twitch's rate wave has a 200 s period).
    fn queries(g: &dyn SourceGen) -> Vec<(u64, Option<u64>, u32)> {
        [0, secs(1), secs(50), secs(150), secs(333)]
            .iter()
            .map(|&t| (g.rate(t).to_bits(), g.limit(), g.batch()))
            .collect()
    }

    /// `SourceGen`'s contract, on two generators built alike: queries
    /// between draws leave the draws unchanged, and 10 k draws leave the
    /// queries unchanged.
    fn keeps_the_contract(name: &str, make: impl Fn() -> Box<dyn SourceGen>) {
        let (mut plain, mut mixed) = (make(), make());
        let before = queries(&*mixed);
        for i in 0..10_000u64 {
            let t: SimTime = i / 25 * 10_000;
            let want = plain.next(t);
            for _ in 0..i % 3 {
                queries(&*mixed);
            }
            assert_eq!(mixed.next(t), want, "{name}: draw {i} moved");
        }
        assert_eq!(queries(&*plain), before, "{name}: draws moved a query");
        assert_eq!(queries(&*mixed), before, "{name}: draws moved a query");
    }

    #[test]
    fn every_generator_keeps_the_source_gen_contract() {
        keeps_the_contract("bid", || Box::new(BidGen::new(10_000.0, 1_000, 7, 4)));
        keeps_the_contract("person-auction", || {
            Box::new(PersonAuctionGen::new(1_000.0, 5_000, 0.3, 7, 1))
        });
        keeps_the_contract("twitch", || Box::new(TwitchGen::new(4_000, 1_000, 7, 2)));
        keeps_the_contract("custom", || {
            Box::new(CustomGen::new(10_000.0, 200_000, 0.8, 7, 8))
        });
    }
}
