//! Virtual threads: spawn/join/yield inside a model execution.
//!
//! Model threads are real OS threads, but the runtime's single execution
//! token serializes them completely — see the `rt` module docs.
//! `spawn` must be called from inside a [`crate::Checker::run`] closure;
//! there is deliberately no fallback to `std::thread::spawn`, because
//! code under test reaches threads only from its test harness, which is
//! always inside the model.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex as OsMutex};

use crate::rt::{self, current, BlockOn, Run, Step, ViolationKind};
use crate::vclock::MAX_THREADS;

/// Handle to a spawned virtual thread; `join` blocks (in model time)
/// until it finishes and returns its result, mirroring
/// `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    rt: Arc<rt::Rt>,
    tid: usize,
    slot: Arc<OsMutex<Option<T>>>,
}

/// Spawn a virtual thread running `f`. Panics when called outside a
/// model execution.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (rt, me) = current().expect("interleave::thread::spawn outside a model execution");
    // Register the child: it starts Ready, with the parent's clock
    // (spawn is a release/acquire edge from parent to child).
    let tid = rt.with(me, |ex, me| {
        assert!(
            ex.threads.len() < MAX_THREADS,
            "interleave models at most {MAX_THREADS} threads per execution"
        );
        ex.threads[me].clock.tick(me);
        let clock = ex.threads[me].clock;
        let tid = ex.threads.len();
        ex.threads.push(rt::Th {
            run: Run::Ready,
            clock,
            seen: Vec::new(),
            final_clock: clock,
        });
        ex.note(me, "spawn", tid as u64);
        Step::Done(tid)
    });
    let slot: Arc<OsMutex<Option<T>>> = Arc::new(OsMutex::new(None));
    let slot2 = Arc::clone(&slot);
    let rt2 = Arc::clone(&rt);
    let os = std::thread::spawn(move || {
        rt::CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&rt2), tid)));
        // The closure parks itself at its first visible operation; any
        // pure prefix it runs early has no model-visible effects.
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        match result {
            Ok(v) => {
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                finish(&rt2, tid);
            }
            Err(payload) => {
                if payload.downcast_ref::<rt::Aborted>().is_none() {
                    let msg = rt::panic_message(&payload);
                    let mut ex = rt2.lock();
                    ex.record_failure(ViolationKind::Panic, msg);
                    drop(ex);
                    rt2.cv.notify_all();
                }
            }
        }
        rt::CURRENT.with(|c| *c.borrow_mut() = None);
    });
    rt.os_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(os);
    JoinHandle { rt, tid, slot }
}

/// Mark `tid` finished, wake its joiners, and hand the token off.
fn finish(rt: &Arc<rt::Rt>, tid: usize) {
    let mut ex = rt.lock();
    loop {
        if ex.failed.is_some() || ex.done {
            return;
        }
        if ex.cur == tid {
            break;
        }
        ex = rt.cv.wait(ex).unwrap_or_else(|e| e.into_inner());
    }
    ex.threads[tid].clock.tick(tid);
    let fc = ex.threads[tid].clock;
    ex.threads[tid].final_clock = fc;
    ex.threads[tid].run = Run::Finished;
    for t in ex.threads.iter_mut() {
        if t.run == Run::Blocked(BlockOn::Join(tid)) {
            t.run = Run::Ready;
        }
    }
    ex.note(tid, "finish", tid as u64);
    // Forced hand-off. The driver is always alive (Ready in an op/drain
    // or Blocked on a join we may just have released), so an empty Ready
    // set here means every other thread is stuck: a deadlock.
    let n = ex.ready_ids(None);
    if n == 0 {
        let states: Vec<String> = ex
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("t{i}:{:?}", t.run))
            .collect();
        ex.record_failure(
            ViolationKind::Deadlock,
            format!(
                "thread finished into a blocked cohort — {}",
                states.join(" ")
            ),
        );
    } else {
        let idx = ex.choose(n);
        ex.cur = ex.scratch[idx];
    }
    drop(ex);
    rt.cv.notify_all();
}

impl<T> JoinHandle<T> {
    /// Wait (in model time) for the thread to finish; joining is an
    /// acquire of everything the thread did.
    pub fn join(self) -> std::thread::Result<T> {
        let (rt, me) = current().expect("interleave join outside a model execution");
        assert!(
            Arc::ptr_eq(&rt, &self.rt),
            "join of a handle from another execution"
        );
        let tid = self.tid;
        rt.with(me, |ex, me| {
            if ex.threads[tid].run == Run::Finished {
                let fc = ex.threads[tid].final_clock;
                ex.threads[me].clock.tick(me);
                ex.threads[me].clock.join(&fc);
                ex.note(me, "join", tid as u64);
                Step::Done(())
            } else {
                Step::Block(BlockOn::Join(tid))
            }
        });
        match self.slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            None => Err(Box::new("interleave: joined thread produced no value")),
        }
    }
}

/// Hand the token to another runnable thread, if any — the model's
/// equivalent of `std::thread::yield_now`, and the required escape hatch
/// in spin/retry loops (a spinning thread that never yields would trip
/// the step limit).
pub fn yield_now() {
    if let Some((rt, me)) = current() {
        rt.yield_now(me);
    } else {
        std::thread::yield_now();
    }
}
