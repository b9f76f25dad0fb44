//! Model-checking suite for `simcore`'s concurrency primitives.
//!
//! Runs only under `--features interleave-check`: the `sync` facade then
//! routes through the `interleave` schedule explorer, and these tests
//! drive the *real* ring and barrier (not models of them) across
//! thousands of distinct thread interleavings, including weak-memory
//! behaviours (stale `Relaxed` reads).
//!
//! The `mutant_*` tests are the checker's own regression suite: each
//! seeds a classic SPSC bug into a miniature ring and asserts the
//! explorer finds it. If a refactor ever blinds the checker, these fail
//! first.
#![cfg(feature = "interleave-check")]

use std::sync::Arc;

use interleave::{thread, Checker, ViolationKind};
use simcore::spsc::{ring, EpochBarrier};
use simcore::sync::{hint, AtomicUsize, Ordering, UnsafeCell};

/// One checker configuration for every test so the "≥1000 distinct
/// schedules" bar is enforced uniformly.
fn checker() -> Checker {
    Checker::new()
        .dfs_schedules(4096)
        .random_schedules(2048)
        .preemption_bound(2)
}

/// The exploration bar: either DFS exhausted the entire schedule tree at
/// the preemption bound (strictly stronger than any sample count — every
/// schedule the bound admits was checked), or at least 1000 distinct
/// schedules were sampled.
fn assert_well_explored(report: &interleave::Report) {
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.dfs_complete || report.distinct >= 1000,
        "only {} distinct schedules explored and DFS incomplete",
        report.distinct
    );
}

#[test]
fn ring_cross_thread_transfer_is_lossless_and_ordered() {
    const N: u64 = 4;
    let report = checker().run(|| {
        let (mut tx, mut rx) = ring::<u64>(2);
        let producer = thread::spawn(move || {
            let mut i = 0;
            while i < N {
                match tx.push(i) {
                    Ok(()) => i += 1,
                    Err(_) => hint::spin_loop(),
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.pop() {
                Some(v) => {
                    // Lossless, exactly-once, in order: any lost,
                    // duplicated or reordered element breaks the
                    // sequence equality.
                    assert_eq!(v, expect, "ring reordered or duplicated");
                    expect += 1;
                }
                None => hint::spin_loop(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None, "ring produced an extra element");
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.distinct >= 1000,
        "only {} distinct schedules explored",
        report.distinct
    );
}

#[test]
fn ring_drop_with_queued_elements_is_race_free() {
    // Producer fills, consumer pops one, both halves are dropped with
    // elements still queued: Drop's walk of [head, tail) must be ordered
    // after every slot access (no race, no double free).
    let report = checker().preemption_bound(3).run(|| {
        let (mut tx, mut rx) = ring::<Box<u64>>(4);
        let producer = thread::spawn(move || {
            for i in 0..3 {
                tx.push(Box::new(i)).expect("capacity 4 fits 3");
            }
        });
        let _ = rx.pop();
        producer.join().unwrap();
        drop(rx);
    });
    assert_well_explored(&report);
}

#[test]
fn epoch_barrier_never_deadlocks_or_races() {
    const EPOCHS: u64 = 2;
    let report = checker().preemption_bound(3).run(|| {
        let barrier = Arc::new(EpochBarrier::new(2));
        let turns = Arc::new(AtomicUsize::new(0));
        let (b2, t2) = (Arc::clone(&barrier), Arc::clone(&turns));
        let peer = thread::spawn(move || {
            for _ in 0..EPOCHS {
                t2.fetch_add(1, Ordering::SeqCst);
                b2.wait();
                b2.wait();
            }
        });
        for epoch in 0..EPOCHS as usize {
            turns.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            // Between the two waits of an epoch, the whole cohort's
            // arrivals for it must be visible (the barrier is the
            // synchronization edge).
            let seen = turns.load(Ordering::SeqCst);
            assert!(
                seen >= (epoch + 1) * 2,
                "barrier generation leaked: saw {seen} in epoch {epoch}"
            );
            barrier.wait();
        }
        peer.join().unwrap();
    });
    assert_well_explored(&report);
}

// ---------------------------------------------------------------------
// Mutation-kill suite: seeded bugs the checker MUST catch
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    /// Faithful miniature of the real ring's protocol.
    None,
    /// Producer publishes `tail` with `Relaxed` instead of `Release`.
    RelaxedTailStore,
    /// Producer publishes `tail` *before* writing the slot.
    PublishBeforeWrite,
    /// Consumer publishes `head` with `Relaxed` instead of `Release`.
    RelaxedHeadStore,
}

/// Miniature SPSC ring sharing the real ring's index protocol, with a
/// knob to seed one bug at a time. Kept deliberately tiny (capacity 2,
/// direct index loads, `u64` slots) so the explorer covers it densely.
struct MiniRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Vec<UnsafeCell<u64>>,
    mutation: Mutation,
}

// SAFETY: same argument as the real ring — every slot access is ordered
// through the published indices (except where a seeded mutation breaks
// exactly that, which the model detects before the access executes).
unsafe impl Sync for MiniRing {}
// SAFETY: the ring owns plain u64 values.
unsafe impl Send for MiniRing {}

impl MiniRing {
    const CAP: usize = 2;

    fn new(mutation: Mutation) -> Self {
        Self {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..Self::CAP).map(|_| UnsafeCell::new(0)).collect(),
            mutation,
        }
    }

    fn push(&self, v: u64) -> bool {
        let t = self.tail.load(Ordering::Relaxed);
        if t.wrapping_sub(self.head.load(Ordering::Acquire)) == Self::CAP {
            return false;
        }
        let publish = match self.mutation {
            Mutation::RelaxedTailStore => Ordering::Relaxed,
            _ => Ordering::Release,
        };
        if self.mutation == Mutation::PublishBeforeWrite {
            self.tail.store(t.wrapping_add(1), publish);
            self.slots[t % Self::CAP].with_mut(|p| {
                // SAFETY: seeded bug under test — the model flags the
                // race before this write executes.
                unsafe { *p = v }
            });
        } else {
            self.slots[t % Self::CAP].with_mut(|p| {
                // SAFETY: slot at `tail` is outside [head, tail); we are
                // the only producer (mirrors the real ring).
                unsafe { *p = v }
            });
            self.tail.store(t.wrapping_add(1), publish);
        }
        true
    }

    fn pop(&self) -> Option<u64> {
        let h = self.head.load(Ordering::Relaxed);
        if h == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let v = self.slots[h % Self::CAP].with(|p| {
            // SAFETY: head != tail, so the producer published this slot
            // (unless a seeded mutation broke the ordering — detected).
            unsafe { *p }
        });
        let publish = match self.mutation {
            Mutation::RelaxedHeadStore => Ordering::Relaxed,
            _ => Ordering::Release,
        };
        self.head.store(h.wrapping_add(1), publish);
        Some(v)
    }
}

/// Drive a mini ring hard enough that every seeded bug has a schedule
/// that exposes it: 4 items through capacity 2 forces slot reuse, so
/// both publication edges (tail for delivery, head for reuse) matter.
fn drive(mutation: Mutation) -> interleave::Report {
    checker().run(move || {
        let ring = Arc::new(MiniRing::new(mutation));
        let r2 = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            let mut i = 0u64;
            while i < 4 {
                if r2.push(i) {
                    i += 1;
                } else {
                    hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        while expect < 4 {
            match ring.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "mini ring lost or reordered");
                    expect += 1;
                }
                None => hint::spin_loop(),
            }
        }
        producer.join().unwrap();
    })
}

#[test]
fn faithful_mini_ring_is_clean() {
    let report = drive(Mutation::None);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.distinct >= 1000, "only {}", report.distinct);
}

#[test]
fn mutant_relaxed_tail_store_is_killed() {
    let v = drive(Mutation::RelaxedTailStore)
        .violation
        .expect("weakened tail publish must be caught");
    assert!(
        v.kind == ViolationKind::DataRace || v.kind == ViolationKind::Panic,
        "unexpected verdict {:?}: {}",
        v.kind,
        v.message
    );
}

#[test]
fn mutant_publish_before_write_is_killed() {
    let v = drive(Mutation::PublishBeforeWrite)
        .violation
        .expect("tail published before slot write must be caught");
    assert!(
        v.kind == ViolationKind::DataRace || v.kind == ViolationKind::Panic,
        "unexpected verdict {:?}: {}",
        v.kind,
        v.message
    );
}

#[test]
fn mutant_relaxed_head_store_is_killed() {
    let v = drive(Mutation::RelaxedHeadStore)
        .violation
        .expect("weakened head publish (slot reuse) must be caught");
    assert!(
        v.kind == ViolationKind::DataRace || v.kind == ViolationKind::Panic,
        "unexpected verdict {:?}: {}",
        v.kind,
        v.message
    );
}
