//! Parallel parameter sweeps.
//!
//! Experiments sweep a parameter (load, ring size, slot length, …) over
//! many settings × seeds; the runs are independent, so they fan out over
//! `std::thread::scope` workers. Results return in input order, so tables
//! stay deterministic regardless of scheduling.
//!
//! The implementation lives in [`ccr_sim::parallel`]; this module
//! re-exports it for the experiment harness and its historical import
//! paths.

pub use ccr_sim::parallel::{default_threads, parallel_map, parallel_map_chunked};

#[cfg(test)]
mod tests {
    use super::*;

    // The full behavioural test suite (order preservation, panic
    // propagation, the chunked-vs-per-item differential property) lives
    // next to the implementation in `ccr_sim::parallel`; here we only pin
    // the re-exported paths the experiments compile against.
    #[test]
    fn reexported_paths_work() {
        let out = parallel_map(vec![1u64, 2, 3], 2, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        let out = parallel_map_chunked(vec![1u64, 2, 3], 2, 2, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert!(default_threads() >= 1);
    }
}
