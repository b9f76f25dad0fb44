//! The Scale Planner (paper component C): state partitioning into subscales
//! and the greedy subscale scheduler.
//!
//! Default strategies from §IV-A: lexicographic division into near-equal
//! subsets, and a greedy scheduler that prioritizes subscales migrating to
//! the instance currently holding the fewest keys (so new instances join
//! the computation as early as possible), with a per-node concurrency
//! threshold.

use std::collections::HashMap;

use streamflow::ids::{InstId, KeyGroup};
use streamflow::keygroup::KgMove;

/// One subscale: an independently migrated subset of key-groups moving
/// between a single (source, destination) instance pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscaleSpec {
    /// Source instance.
    pub from: InstId,
    /// Destination instance.
    pub to: InstId,
    /// Key-groups, lexicographically ordered.
    pub kgs: Vec<KeyGroup>,
}

/// Running subscales per instance, as [`greedy_pick`] takes them. A std map
/// because that signature is pinned from outside the workspace
/// (`benchmarks/drrs_bench` calls it); it is probed once per launch and
/// never iterated.
pub type ActiveCounts = HashMap<InstId, usize>;

/// Divide the moves into at most ~`target` subscales, lexicographically,
/// as equally sized as possible, never mixing (from, to) pairs.
pub fn divide_subscales(moves: &[KgMove], target: usize) -> Vec<SubscaleSpec> {
    if moves.is_empty() {
        return Vec::new();
    }
    let target = target.max(1);
    // Group by (from, to), preserving lexicographic key-group order.
    let mut sorted: Vec<&KgMove> = moves.iter().collect();
    sorted.sort_by_key(|m| (m.from, m.to, m.kg));
    let chunk = moves.len().div_ceil(target).max(1);
    let mut out: Vec<SubscaleSpec> = Vec::new();
    for m in sorted {
        match out.last_mut() {
            Some(s) if s.from == m.from && s.to == m.to && s.kgs.len() < chunk => {
                s.kgs.push(m.kg);
            }
            _ => out.push(SubscaleSpec {
                from: m.from,
                to: m.to,
                kgs: vec![m.kg],
            }),
        }
    }
    out
}

/// Greedy pick: among `pending` subscale indices, choose the launchable one
/// whose destination holds the fewest keys. `active` counts running
/// subscales per instance; both endpoints must be under `limit`.
pub fn greedy_pick(
    pending: &[usize],
    subs: &[SubscaleSpec],
    held_keys: &dyn Fn(InstId) -> usize,
    active: &ActiveCounts,
    limit: usize,
) -> Option<usize> {
    pending
        .iter()
        .copied()
        .filter(|&i| {
            let s = &subs[i];
            active.get(&s.from).copied().unwrap_or(0) < limit
                && active.get(&s.to).copied().unwrap_or(0) < limit
        })
        .min_by_key(|&i| (held_keys(subs[i].to), i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(kg: u16, from: u32, to: u32) -> KgMove {
        KgMove {
            kg: KeyGroup(kg),
            from: InstId(from),
            to: InstId(to),
        }
    }

    #[test]
    fn division_covers_all_moves_exactly_once() {
        let moves: Vec<KgMove> = (0..111u16)
            .map(|k| mv(k, (k % 8) as u32, 8 + (k % 4) as u32))
            .collect();
        let subs = divide_subscales(&moves, 8);
        let total: usize = subs.iter().map(|s| s.kgs.len()).sum();
        assert_eq!(total, 111);
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            for kg in &s.kgs {
                assert!(seen.insert(*kg), "duplicate {kg}");
            }
        }
    }

    #[test]
    fn division_never_mixes_pairs() {
        let moves = vec![mv(0, 0, 2), mv(1, 0, 2), mv(2, 1, 2), mv(3, 1, 3)];
        let subs = divide_subscales(&moves, 2);
        for s in &subs {
            assert!(s.kgs.len() <= 2);
        }
        // (0,2), (1,2), (1,3) pairs stay separate.
        assert!(subs.len() >= 3);
    }

    #[test]
    fn division_is_lexicographic_within_pair() {
        let moves = vec![mv(9, 0, 2), mv(3, 0, 2), mv(7, 0, 2)];
        let subs = divide_subscales(&moves, 1);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].kgs, vec![KeyGroup(3), KeyGroup(7), KeyGroup(9)]);
    }

    #[test]
    fn single_target_single_pair_yields_one_subscale() {
        let moves = vec![mv(0, 0, 1), mv(1, 0, 1)];
        assert_eq!(divide_subscales(&moves, 1).len(), 1);
    }

    #[test]
    fn empty_moves_empty_plan() {
        assert!(divide_subscales(&[], 4).is_empty());
    }

    #[test]
    fn greedy_prefers_emptier_destination() {
        let subs = vec![
            SubscaleSpec {
                from: InstId(0),
                to: InstId(10),
                kgs: vec![KeyGroup(0)],
            },
            SubscaleSpec {
                from: InstId(1),
                to: InstId(11),
                kgs: vec![KeyGroup(1)],
            },
        ];
        let held = |i: InstId| if i == InstId(10) { 100 } else { 0 };
        let active = HashMap::new();
        let pick = greedy_pick(&[0, 1], &subs, &held, &active, 2);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn greedy_respects_concurrency_limit() {
        let subs = vec![
            SubscaleSpec {
                from: InstId(0),
                to: InstId(10),
                kgs: vec![KeyGroup(0)],
            },
            SubscaleSpec {
                from: InstId(0),
                to: InstId(11),
                kgs: vec![KeyGroup(1)],
            },
        ];
        let held = |_: InstId| 0;
        let mut active = HashMap::new();
        active.insert(InstId(0), 2);
        assert_eq!(greedy_pick(&[0, 1], &subs, &held, &active, 2), None);
        active.insert(InstId(0), 1);
        assert_eq!(greedy_pick(&[0, 1], &subs, &held, &active, 2), Some(0));
    }

    #[test]
    fn greedy_ties_break_by_index() {
        let subs = vec![
            SubscaleSpec {
                from: InstId(0),
                to: InstId(10),
                kgs: vec![KeyGroup(0)],
            },
            SubscaleSpec {
                from: InstId(1),
                to: InstId(10),
                kgs: vec![KeyGroup(1)],
            },
        ];
        let held = |_: InstId| 5;
        let active = HashMap::new();
        assert_eq!(greedy_pick(&[1, 0], &subs, &held, &active, 2), Some(0));
    }
}
