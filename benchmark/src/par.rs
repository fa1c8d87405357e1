//! The one parallel primitive the benchmark needs.

/// Run `job` over `items` on `threads` scoped threads, keeping order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&job).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_order() {
        let items: Vec<u32> = (0..101).collect();
        assert_eq!(
            parallel_map(&items, 2, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
        assert!(parallel_map(&[] as &[u32], 2, |x| *x).is_empty());
    }
}
