//! Parallel sweep execution with deterministic trace capture.
//!
//! Every experiment iterates a cross-product of configurations and runs one
//! independent simulation per cell. [`sweep`] fans those cells out over an
//! [`nvp_exec::Pool`] sized by [`Scale::effective_jobs`], returning results
//! in item order — so the printed tables are identical for any worker count.
//!
//! # Trace capture
//!
//! Tracing is scoped to a caller, never to the process: [`traced`] turns
//! it on for the calling thread and hands back the JSONL text of every
//! experiment simulation run inside it. A sweep started inside a capture
//! runs each job under its own nested capture on whichever worker picks it
//! up, then splices the jobs' text into the caller's buffer in item order.
//! A job's internal runs stay in their serial order and jobs land in
//! submission order, so the captured text is byte-identical to a
//! `--jobs 1` run. Sweeps outside a capture record nothing, whatever other
//! threads in the process are tracing.

use crate::Scale;
use nvp_exec::Pool;
use std::cell::RefCell;

thread_local! {
    /// This thread's capture buffer while inside [`traced`].
    static CAPTURE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Whether the current thread is inside [`traced`].
pub(crate) fn capture_active() -> bool {
    CAPTURE.with(|c| c.borrow().is_some())
}

/// Appends rendered JSONL text to the current capture buffer, if any.
pub(crate) fn capture_append(text: &str) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push_str(text);
        }
    });
}

/// Reinstates the enclosing capture (or none) when a [`traced`] scope
/// ends, including by panic.
struct Restore(Option<String>);

impl Drop for Restore {
    fn drop(&mut self) {
        let outer = self.0.take();
        CAPTURE.with(|c| *c.borrow_mut() = outer);
    }
}

/// Runs `f` with tracing on for the calling thread and returns its result
/// together with the JSONL trace of every experiment simulation it ran
/// (one labelled run each, in serial order). Captures nest: an inner
/// capture's text goes to its caller, not to the enclosing capture.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    let _restore = Restore(CAPTURE.with(|c| c.replace(Some(String::new()))));
    let out = f();
    let text = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    (out, text)
}

/// Runs `f` over `items` on the sweep pool, returning results in item order.
///
/// Inside a [`traced`] capture, each job's trace is captured separately and
/// appended to the caller's capture in item order (see the module docs for
/// the determinism argument).
pub fn sweep<I, T, F>(scale: Scale, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let pool = Pool::new(scale.effective_jobs());
    if !capture_active() {
        return pool.map(items, f);
    }
    let pairs = pool.map(items, |item| traced(|| f(item)));
    let mut results = Vec::with_capacity(pairs.len());
    for (out, text) in pairs {
        results.push(out);
        capture_append(&text);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_item_order() {
        let scale = Scale::quick().with_jobs(4);
        let out = sweep(scale, (0..32).collect::<Vec<i32>>(), |i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn capture_is_inactive_outside_traced() {
        assert!(!capture_active());
        capture_append("ignored\n"); // must be a no-op, not a panic
        assert!(!capture_active());
    }

    #[test]
    fn nested_captures_return_text_to_their_own_caller() {
        let ((inner, outer_seen), outer) = traced(|| {
            capture_append("a");
            let inner = traced(|| capture_append("b")).1;
            capture_append("c");
            (inner, capture_active())
        });
        assert_eq!(inner, "b");
        assert_eq!(outer, "ac");
        assert!(outer_seen);
        assert!(!capture_active());
    }

    #[test]
    fn sweep_splices_job_captures_in_item_order() {
        let scale = Scale::quick().with_jobs(4);
        let (out, text) = traced(|| {
            sweep(scale, (0..16).collect::<Vec<u32>>(), |i| {
                capture_append(&format!("{i};"));
                i
            })
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let want: String = (0..16).map(|i| format!("{i};")).collect();
        assert_eq!(text, want);
    }

    #[test]
    fn a_panicking_capture_restores_the_enclosing_one() {
        let ((), text) = traced(|| {
            capture_append("x");
            let r = std::panic::catch_unwind(|| traced(|| panic!("inner capture dies")));
            assert!(r.is_err());
            capture_append("y");
        });
        assert_eq!(text, "xy");
    }
}
