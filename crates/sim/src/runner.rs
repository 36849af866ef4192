//! Deterministic parallel batch execution.
//!
//! Simulated worlds are single-threaded event loops; throughput comes from
//! running *many* of them — experiment arms, replications, parameter
//! sweeps — concurrently. [`BatchRunner`] fans a `Vec` of jobs out across a
//! pool of scoped worker threads (`std::thread`, no external dependencies)
//! and collects the results **in submission order**.
//!
//! ## Determinism contract
//!
//! The runner adds no randomness and no ordering freedom to results:
//!
//! * Each job is executed exactly once, by exactly one worker.
//! * The output `Vec` is indexed like the input `Vec`, regardless of which
//!   worker ran which job or in what real-time order they finished.
//! * Jobs must be self-contained (`Send`, results `Send`): everything a run
//!   needs — including its sub-seed, see [`crate::rng::SeedTree`] — is
//!   decided *before* dispatch, so `threads = 1` and `threads = N` produce
//!   byte-identical results.
//!
//! ```
//! use mtnet_sim::runner::BatchRunner;
//! let squares = BatchRunner::new(4).run((0..32u64).collect(), |_, j| j * j);
//! assert_eq!(squares[7], 49); // submission order preserved
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed-width scoped thread pool executing job batches in submission
/// order. See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with exactly `threads` workers; `0` means "one per
    /// available core".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        BatchRunner { threads }
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every job, returning results in submission order.
    ///
    /// With one worker (or at most one job) everything runs inline on the
    /// caller's thread — the literal sequential path the determinism tests
    /// compare against. A panicking job aborts the whole batch: the panic
    /// surfaces to the caller when the scope joins.
    pub fn run<J, R, F>(&self, jobs: Vec<J>, f: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(usize, J) -> R + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }
        // Shared work queue; each result lands in its submission slot, so
        // completion order is irrelevant to the output.
        let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = queue.lock().expect("queue lock").pop_front();
                    let Some((i, j)) = job else {
                        break;
                    };
                    let r = f(i, j);
                    *slots[i].lock().expect("slot lock") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every job completed")
            })
            .collect()
    }
}

impl Default for BatchRunner {
    /// One worker per available core.
    fn default() -> Self {
        Self::new(0)
    }
}

/// Worker count for "use every core": `std::thread::available_parallelism`
/// with a floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a count the way every count-valued flag documents it: ASCII
/// decimal digits, surrounding whitespace allowed, that fit `T` — and
/// nothing looser. `str::parse` alone would let a `+` sign through.
pub fn parse_count<T: std::str::FromStr>(value: &str) -> Option<T> {
    let digits = value.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The validated thread-count parser behind the harness `--threads`
/// flag: a non-negative integer, where `0` means "one worker per
/// available core". Anything else is an error naming the flag and the
/// expected form.
pub fn parse_thread_count(value: &str) -> Result<usize, String> {
    parse_count(value).ok_or_else(|| {
        format!("--threads needs a non-negative integer (0 = one per core), got {value:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_submission_order() {
        for threads in [1, 2, 4, 8] {
            let out = BatchRunner::new(threads).run((0..100u64).collect(), |i, j| {
                assert_eq!(i as u64, j, "job handed its own index");
                j * 3
            });
            assert_eq!(out, (0..100u64).map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = BatchRunner::new(4).run(vec![(); 57], |_, ()| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |_, seed: u64| {
            // A cheap but stateful computation: a short LCG walk.
            let mut x = seed;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let jobs: Vec<u64> = (0..40).map(|i| i * 7 + 1).collect();
        let seq = BatchRunner::new(1).run(jobs.clone(), work);
        let par = BatchRunner::new(6).run(jobs, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let r = BatchRunner::new(4);
        assert_eq!(r.run(Vec::<u8>::new(), |_, j| j), Vec::<u8>::new());
        assert_eq!(r.run(vec![9u8], |_, j| j + 1), vec![10]);
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        let r = BatchRunner::new(0);
        assert!(r.threads() >= 1);
        assert_eq!(r.threads(), available_threads());
    }

    #[test]
    fn parse_thread_count_is_strict() {
        assert_eq!(parse_thread_count("3"), Ok(3));
        assert_eq!(parse_thread_count(" 12 "), Ok(12));
        assert_eq!(parse_thread_count("0"), Ok(0));
        let err = parse_thread_count("lots").unwrap_err();
        assert!(err.contains("--threads") && err.contains("lots"), "{err}");
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("1.5").is_err());
    }

    #[test]
    fn parse_thread_count_rejects_hostile_input() {
        let twenty_digits = "9".repeat(20);
        for bad in [
            "",
            " ",
            "+4",
            "-1",
            "1e3",
            "4 2",
            &twenty_digits,
            "\u{663}", // ARABIC-INDIC DIGIT THREE
            "4\0",
            "\x004",
            "0x10",
        ] {
            let err = parse_thread_count(bad).expect_err(bad);
            assert!(err.contains("--threads"), "{bad:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        BatchRunner::new(2).run((0..8).collect::<Vec<u32>>(), |_, j| {
            if j == 3 {
                panic!("job 3 exploded");
            }
            j
        });
    }
}
