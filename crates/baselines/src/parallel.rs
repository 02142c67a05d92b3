//! Minimal data-parallel executor for the BSP baselines.
//!
//! The paper's software frameworks run on a 36-core Xeon (Table 1); the
//! BSP rounds of KickStarter and GraphBolt are data-parallel over the
//! frontier, so the baselines here fan each round out over a scoped thread
//! pool. Chunking is static and results are written to disjoint output
//! slots, keeping every run deterministic regardless of thread count.

use std::num::NonZeroUsize;

/// Number of worker threads the baselines use: the machine's available
/// parallelism.
pub fn baseline_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Applies `f` to every item, in parallel over `threads` workers, returning
/// results in input order.
///
/// Falls back to a plain sequential map for one worker or tiny inputs
/// (spawning threads for a handful of items costs more than it saves).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    const MIN_PARALLEL_ITEMS: usize = 256;
    if threads <= 1 || items.len() < MIN_PARALLEL_ITEMS {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|in_chunk| scope.spawn(|| in_chunk.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(chunk_results) => chunk_results,
                // A worker panicked; surface the original panic payload
                // instead of swallowing it.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..5000).map(|x| x * 7 % 113).collect();
        let seq = par_map(&items, 1, |&x| x * x + 1);
        let par = par_map(&items, 8, |&x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn small_inputs_stay_sequential_but_correct() {
        let items = vec![1u32, 2, 3];
        assert_eq!(par_map(&items, 8, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        assert!(par_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(baseline_threads() >= 1);
    }
}
