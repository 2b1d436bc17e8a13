//! The process's one fan-out, run by the predictor's batch planner for
//! library and engine batches alike: a call that owes more than one job
//! runs them on its own thread plus scoped helper threads, and every
//! helper in the process holds a permit from one counter capped at
//! `available_parallelism()`.
//!
//! The helpers live inside the call's `std::thread::scope`: they borrow
//! what the caller hands them and none outlives the call. A caller that
//! gets no permit, or whose spawn the host refuses, does the work alone:
//! the budget costs parallelism, never an answer.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Helper permits held across the whole process; never more than
/// [`helper_cap`]. A helper thread holds its permit from before its
/// spawn until after its join, so this is never below the helpers
/// alive. Only counts — it publishes no data, the scope's join does
/// that — so `Relaxed` throughout.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// The most permits [`HELPERS`] has held at once; it only grows.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Helper threads started since the process began; it only grows.
static STARTED: AtomicU64 = AtomicU64::new(0);

/// How many helper threads the process has started so far: whether a
/// fan-out ran, read exactly, however briefly its helpers lived.
pub fn helpers_started() -> u64 {
    STARTED.load(Ordering::Relaxed)
}

/// Helper permits held right now. Every helper thread alive holds one,
/// so 0 once every fan-out has returned means none is left running.
pub fn helpers_live() -> usize {
    HELPERS.load(Ordering::Relaxed)
}

/// The most helper permits the process has held at once: its thread
/// budget as used, read exactly rather than sampled. Never above
/// `available_parallelism()`.
pub fn helpers_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// `available_parallelism()`, read once.
fn helper_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Up to `want` helper permits, returned to [`HELPERS`] on drop — also
/// when a job panics out of the scope.
struct Permits(usize);

impl Permits {
    fn take(want: usize) -> Permits {
        let mut got = 0;
        // The closure's last `got` is the one whose exchange succeeded.
        let (Ok(alive) | Err(alive)) =
            HELPERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |alive| {
                got = want.min(helper_cap().saturating_sub(alive));
                Some(alive + got)
            });
        PEAK.fetch_max(alive + got, Ordering::Relaxed);
        Permits(got)
    }

    /// Keep `used` of the permits taken and return the rest now.
    fn keep(&mut self, used: usize) {
        HELPERS.fetch_sub(self.0 - used, Ordering::Relaxed);
        self.0 = used;
    }
}

impl Drop for Permits {
    fn drop(&mut self) {
        HELPERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// `work(i)` for every `i` in `0..jobs`, results in index order.
///
/// One job runs inline on the caller, touching no permit. More than
/// that, and the caller plus up to `min(available_parallelism, jobs) − 1`
/// permitted helpers pull one job at a time off one atomic cursor; each
/// result comes back with the index that places it.
///
/// # Panics
///
/// When a job panics (its permits go back first).
pub fn run<T: Send>(jobs: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if jobs <= 1 {
        return (0..jobs).map(work).collect();
    }
    let mut permits = Permits::take(jobs.min(helper_cap()) - 1);
    let cursor = AtomicUsize::new(0);
    // Claim jobs until none are left; each comes back with its index.
    let pull = || -> Vec<(usize, T)> {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, work(i)));
        }
    };
    let mut done = thread::scope(|scope| {
        // A host that refuses a thread costs the call parallelism, not
        // its answer: stop asking, and the cursor is drained by whoever
        // did start — this thread at the least.
        let helpers: Vec<_> = (0..permits.0)
            .map_while(|_| thread::Builder::new().spawn_scoped(scope, pull).ok())
            .collect();
        permits.keep(helpers.len());
        STARTED.fetch_add(helpers.len() as u64, Ordering::Relaxed);
        let mut done = pull();
        // Joined by handle, not left to the scope: that returns once the
        // OS thread is gone, so a permit never goes back while its
        // thread still runs.
        for helper in helpers {
            done.extend(helper.join().expect("a helper thread's job panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [0, 1, 2, 63, 64, 65, 200] {
            let got = run(jobs, |i| i * i);
            let want: Vec<_> = (0..jobs).map(|i| i * i).collect();
            assert_eq!(got, want, "jobs {jobs}");
        }
    }

    #[test]
    fn one_job_runs_on_the_caller() {
        let caller = thread::current().id();
        assert_eq!(run(1, |_| thread::current().id()), [caller]);
    }

    #[test]
    fn every_helper_that_ran_a_job_was_counted() {
        let before = helpers_started();
        let ran_on: std::collections::HashSet<_> = run(64, |_| {
            thread::sleep(std::time::Duration::from_micros(100));
            thread::current().id()
        })
        .into_iter()
        .collect();
        // Other tests in this binary may start helpers meanwhile.
        let helpers = ran_on.len() as u64 - u64::from(ran_on.contains(&thread::current().id()));
        assert!(helpers_started() - before >= helpers);
    }

    #[test]
    fn a_panicking_job_returns_its_permits() {
        let panicked = std::panic::catch_unwind(|| run(16, |i| assert_ne!(i, 9)));
        assert!(panicked.is_err());
        // Other tests in this binary may hold permits for a moment; a
        // leaked one never comes back.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while helpers_live() != 0 {
            assert!(std::time::Instant::now() < deadline, "a permit leaked");
            thread::yield_now();
        }
    }
}
