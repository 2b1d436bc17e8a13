//! The process's one fan-out: a call that owes more work than one chunk
//! runs it on its own thread plus scoped helper threads, and every
//! helper in the process — whichever library batch or engine batch
//! spawned it — holds a permit from one counter capped at
//! `available_parallelism()`.
//!
//! The helpers live inside the call's `std::thread::scope`: they borrow
//! what the caller hands them and none outlives the call. A caller that
//! gets no permit, or whose spawn the host refuses, does the work alone:
//! the budget costs parallelism, never an answer.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Helper threads alive across the whole process; never more than
/// [`helper_cap`]. Only counts — it publishes no data, the scope's join
/// does that — so `Relaxed` throughout.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

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
        let _ = HELPERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |alive| {
            got = want.min(helper_cap().saturating_sub(alive));
            Some(alive + got)
        });
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
/// At most `chunk` jobs run inline on the caller, touching no permit. More
/// than that, and the caller plus up to
/// `min(available_parallelism, ⌈jobs / chunk⌉) − 1` permitted helpers
/// pull `chunk` consecutive jobs at a time off one atomic cursor; each
/// chunk's results come back with the index that places them.
///
/// # Panics
///
/// If `chunk` is 0, or when a job panics (its permits go back first).
pub fn run<T: Send>(jobs: usize, chunk: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(chunk > 0, "a chunk holds at least one job");
    let span = |i: usize| -> Range<usize> { i * chunk..jobs.min((i + 1) * chunk) };
    if jobs <= chunk {
        return span(0).map(&work).collect();
    }
    let chunks = jobs.div_ceil(chunk);
    let mut permits = Permits::take(chunks.min(helper_cap()) - 1);
    let cursor = AtomicUsize::new(0);
    // Claim chunks until none are left; each comes back with the index
    // that places it.
    let pull = || -> Vec<(usize, Vec<T>)> {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                return done;
            }
            done.push((i, span(i).map(&work).collect()));
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
    done.into_iter().flat_map(|(_, results)| results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_chunk() {
        for chunk in [1, 3, 64] {
            for jobs in [0, 1, 2, 63, 64, 65, 200] {
                let got = run(jobs, chunk, |i| i * i);
                let want: Vec<_> = (0..jobs).map(|i| i * i).collect();
                assert_eq!(got, want, "jobs {jobs}, chunk {chunk}");
            }
        }
    }

    #[test]
    fn one_chunk_runs_on_the_caller() {
        let caller = thread::current().id();
        let ran_on = run(4, 4, |_| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_panicking_job_returns_its_permits() {
        let panicked = std::panic::catch_unwind(|| run(16, 1, |i| assert_ne!(i, 9)));
        assert!(panicked.is_err());
        // Other tests in this binary may hold permits for a moment; a
        // leaked one never comes back.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while HELPERS.load(Ordering::Relaxed) != 0 {
            assert!(std::time::Instant::now() < deadline, "a permit leaked");
            thread::yield_now();
        }
    }
}
