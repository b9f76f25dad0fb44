//! Bounded single-producer single-consumer ring — the cross-region event
//! transport.
//!
//! The thread-per-region PDES executor (`streamflow`'s
//! `parallel::run_parallel`) wires one ring per directed pair of regions:
//! after each epoch slice a worker ships the cross-region messages its
//! replica staged (cut-channel deliveries, by value, and cut-credit
//! returns) over the ring to the owning region, whose worker drains it
//! at the start of the next epoch; an [`EpochBarrier`] pair brackets each
//! epoch. The sequential PDES engine does not use the rings: it pushes
//! cross events straight into its one multi-region
//! [`FutureEventList`](crate::queue::FutureEventList). `drrs_bench`'s
//! kernels time both primitives (`simcore.spsc.ring_ns_per_msg`,
//! `simcore.spsc.barrier_ns_per_cycle`).
//!
//! Design: the classic Lamport ring with cached indices. One fixed
//! power-of-two slot array; the producer owns `tail`, the consumer owns
//! `head`; each side keeps a cached copy of the other's index and only
//! re-reads the shared atomic (an acquire load) when the cache says the
//! ring looks full/empty. Steady-state push/pop is therefore one relaxed
//! load, one slot write/read and one release store — no locks, no CAS, no
//! allocation.
//!
//! All shared state goes through the [`crate::sync`] facade, so the same
//! source is model-checked across thousands of thread interleavings under
//! `--features interleave-check` (see `tests/interleave.rs`) and compiles
//! to the bare std primitives otherwise.

use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{AtomicUsize, Condvar, Mutex, Ordering, UnsafeCell};

struct Inner<T> {
    /// Next slot the consumer will read. Owned (written) by the consumer.
    head: AtomicUsize,
    /// Next slot the producer will write. Owned (written) by the producer.
    tail: AtomicUsize,
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: the ring hands each value from exactly one thread to exactly
// one other thread, with every slot access ordered by an acquire load of
// the release-published index; `T: Send` is the only requirement.
unsafe impl<T: Send> Sync for Inner<T> {}
// SAFETY: as above — the ring owns plain `T` values and transfers them
// across threads at most once.
unsafe impl<T: Send> Send for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access here (`&mut self` — the last Arc clone is
        // gone): drop whatever is still queued. Acquire pairs with the
        // producer's release publication of `tail`, so the slot values in
        // [head, tail) are fully visible. The indices are free-running
        // and may have wrapped `usize`; `i != tail` with `wrapping_add`
        // walks exactly `tail - head` (mod 2^64) live slots, which the
        // full/empty invariant bounds by the capacity.
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        let mut i = head;
        while i != tail {
            self.slots[i & self.mask].with_mut(|slot| {
                // SAFETY: slots in [head, tail) hold initialized values
                // that were never popped; we have `&mut self`.
                unsafe { (*slot).assume_init_drop() }
            });
            i = i.wrapping_add(1);
        }
    }
}

/// The sending half of a bounded SPSC ring. `!Clone` — exactly one
/// producer.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of the consumer's `head`; refreshed only when the ring
    /// looks full.
    head_cache: usize,
    /// Local copy of our own `tail` (authoritative; the atomic is the
    /// published view).
    tail: usize,
}

/// The receiving half of a bounded SPSC ring. `!Clone` — exactly one
/// consumer.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of the producer's `tail`; refreshed only when the ring
    /// looks empty.
    tail_cache: usize,
    /// Local copy of our own `head`.
    head: usize,
}

/// Create a bounded SPSC ring holding at least `cap` elements (rounded up
/// to a power of two, minimum 2).
pub fn ring<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    ring_with_start(cap, 0)
}

/// [`ring`], with both indices starting at `start` instead of 0.
///
/// The ring's indices are free-running and wrap `usize`; starting them
/// near `usize::MAX` exercises the wraparound paths directly. Test-only
/// plumbing — real rings always start at 0.
#[doc(hidden)]
pub fn ring_with_start<T: Send>(cap: usize, start: usize) -> (Producer<T>, Consumer<T>) {
    let cap = cap.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        head: AtomicUsize::new(start),
        tail: AtomicUsize::new(start),
        mask: cap - 1,
        slots,
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            head_cache: start,
            tail: start,
        },
        Consumer {
            inner,
            tail_cache: start,
            head: start,
        },
    )
}

impl<T: Send> Producer<T> {
    /// Slots available for this ring (its fixed capacity).
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Enqueue `v`, or hand it back if the ring is full.
    // checker:hot-path
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let cap = self.inner.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) == cap {
            // Looks full — refresh the cache from the consumer's side.
            self.head_cache = self.inner.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return Err(v);
            }
        }
        self.inner.slots[self.tail & self.inner.mask].with_mut(|slot| {
            // SAFETY: the slot at `tail` is outside [head, tail) — not
            // owned by the consumer — and we are the only producer.
            unsafe { (*slot).write(v) };
        });
        self.tail = self.tail.wrapping_add(1);
        // Release: the slot write happens-before the consumer's acquire
        // load of `tail`.
        self.inner.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Number of queued elements (from the producer's view; exact in
    /// single-threaded use, a lower bound of consumption otherwise).
    pub fn len(&mut self) -> usize {
        self.head_cache = self.inner.head.load(Ordering::Acquire);
        self.tail.wrapping_sub(self.head_cache)
    }

    /// Whether the ring looks empty from the producer's side.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Consumer<T> {
    /// Dequeue the oldest element, or `None` if the ring is empty.
    // checker:hot-path
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            // Looks empty — refresh the cache from the producer's side.
            self.tail_cache = self.inner.tail.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let v = self.inner.slots[self.head & self.inner.mask].with(|slot| {
            // SAFETY: head != tail, so this slot holds a value the
            // producer published with a release store we have acquired.
            unsafe { (*slot).assume_init_read() }
        });
        self.head = self.head.wrapping_add(1);
        // Release: the slot read happens-before the producer reusing it.
        self.inner.head.store(self.head, Ordering::Release);
        Some(v)
    }

    /// Number of queued elements visible to the consumer.
    pub fn len(&mut self) -> usize {
        self.tail_cache = self.inner.tail.load(Ordering::Acquire);
        self.tail_cache.wrapping_sub(self.head)
    }

    /// Whether the ring is empty from the consumer's view.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

/// Reusable epoch barrier — the wake/park signal for thread-per-region
/// execution.
///
/// Each PDES epoch has two synchronization points (publish clocks /
/// exchange messages); every region thread parks on the barrier until the
/// last arrival wakes the cohort. A generation counter makes the barrier
/// reusable without re-arming. `drrs_bench`'s `barrier` kernel measures
/// this wait cost.
pub struct EpochBarrier {
    n: u32,
    state: Mutex<(u32, u64)>,
    cv: Condvar,
}

impl EpochBarrier {
    /// Barrier for a cohort of `n` threads (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier cohort must be non-empty");
        Self {
            n: n as u32,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` threads of the cohort have called `wait` for
    /// this generation; the last arrival wakes the rest.
    pub fn wait(&self) {
        let mut s = self.state.lock().expect("barrier poisoned");
        let generation = s.1;
        s.0 += 1;
        if s.0 == self.n {
            s.0 = 0;
            s.1 = s.1.wrapping_add(1);
            drop(s);
            self.cv.notify_all();
            return;
        }
        while s.1 == generation {
            s = self.cv.wait(s).expect("barrier poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = ring::<u64>(8);
        assert_eq!(tx.capacity(), 8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "ring full");
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = ring::<usize>(4);
        for round in 0..1_000 {
            for i in 0..3 {
                tx.push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.pop(), Some(round * 3 + i));
            }
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn drops_undelivered_elements() {
        use std::rc::Rc;
        // Rc is !Send, so wrap in a Send newtype for the test: the ring
        // itself never crosses threads here.
        struct Tracked(#[allow(dead_code)] Rc<()>);
        // SAFETY: test-only; the ring never leaves this thread, so the
        // `Rc` clones are never shared across threads.
        unsafe impl Send for Tracked {}
        let counter = Rc::new(());
        {
            let (mut tx, rx) = ring::<Tracked>(8);
            for _ in 0..5 {
                assert!(tx.push(Tracked(Rc::clone(&counter))).is_ok());
            }
            drop(tx);
            drop(rx);
        }
        assert_eq!(Rc::strong_count(&counter), 1, "queued elements leaked");
    }

    #[test]
    fn index_wraparound_push_pop_and_drop() {
        use std::rc::Rc;
        #[derive(Debug)]
        struct Tracked(#[allow(dead_code)] Rc<()>, usize);
        // SAFETY: test-only; the ring never leaves this thread.
        unsafe impl Send for Tracked {}
        let counter = Rc::new(());
        // Start the free-running indices 3 slots before usize::MAX so
        // both the index arithmetic and Drop's `i != tail` walk cross
        // the wraparound boundary with live elements in flight.
        let start = usize::MAX - 3;
        {
            let (mut tx, mut rx) = ring_with_start::<Tracked>(8, start);
            for i in 0..8 {
                tx.push(Tracked(Rc::clone(&counter), i)).unwrap();
            }
            // Pop three (these straddle usize::MAX), leaving five queued
            // with head < tail only in the wrapping sense.
            for i in 0..3 {
                assert_eq!(rx.pop().expect("queued").1, i);
            }
            assert_eq!(rx.len(), 5);
            assert_eq!(tx.len(), 5);
            // Refill across the boundary and verify FIFO survives.
            for i in 8..11 {
                tx.push(Tracked(Rc::clone(&counter), i)).unwrap();
            }
            assert_eq!(rx.pop().expect("queued").1, 3);
            // Drop with 7 elements queued and wrapped indices: Drop's
            // walk must free exactly the live range, no more, no less.
        }
        assert_eq!(
            Rc::strong_count(&counter),
            1,
            "wrapped-index drop leaked or double-freed"
        );
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(1024);
        let producer = std::thread::spawn(move || {
            let mut i = 0;
            while i < N {
                match tx.push(i) {
                    Ok(()) => i += 1,
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn epoch_barrier_synchronizes_many_generations() {
        use crate::sync::{AtomicU64, Ordering};
        const THREADS: usize = 4;
        const EPOCHS: u64 = 2_000;
        let barrier = EpochBarrier::new(THREADS);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for epoch in 0..EPOCHS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between two waits every thread must observe the
                        // full cohort's increments for the finished epoch.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (epoch + 1) * THREADS as u64);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), EPOCHS * THREADS as u64);
    }
}
