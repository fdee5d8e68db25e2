//! A bounded, per-process memo whose entries are initialised once per key.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One entry's value, set once and shared by everyone who asked for it.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

/// Holds at most `cap` entries, evicting the oldest first. Each entry is
/// initialised at most once while it is held: concurrent callers asking
/// for the same key wait for the first caller's initialiser and share its
/// value. An initialiser that panics leaves its entry empty for the next
/// caller.
pub(crate) struct Memo<K, V> {
    cap: usize,
    entries: Mutex<VecDeque<(K, Cell<V>)>>,
    /// Initialisers run to completion, for tests to count.
    inits: AtomicUsize,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty memo holding at most `cap` (positive) entries.
    pub(crate) const fn new(cap: usize) -> Self {
        Memo { cap, entries: Mutex::new(VecDeque::new()), inits: AtomicUsize::new(0) }
    }

    /// The value for `key`, running `init` to produce it unless it is
    /// already held. The memo's lock is not held while `init` runs.
    pub(crate) fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut entries = self.entries.lock().expect("no caller panics holding the memo");
            match entries.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    if entries.len() == self.cap {
                        entries.pop_front();
                    }
                    let cell = Cell::default();
                    entries.push_back((key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        Arc::clone(cell.get_or_init(|| {
            let value = Arc::new(init());
            self.inits.fetch_add(1, Ordering::Relaxed);
            value
        }))
    }

    /// How many entries the memo holds (never more than its capacity).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("no caller panics holding the memo").len()
    }

    /// How many initialisers have run to completion.
    #[cfg(test)]
    pub(crate) fn inits(&self) -> usize {
        self.inits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_callers_for_one_key_initialise_once() {
        let memo: Memo<u64, u64> = Memo::new(4);
        // Eight workers, released together to ask for the same key.
        let start = std::sync::Barrier::new(8);
        let values = mnpu_engine::FanOut::with_jobs(8).map(&[(); 8], |_| {
            start.wait();
            memo.get_or_init(7, || 49)
        });
        assert_eq!(memo.inits(), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0]) && **v == 49));
    }

    #[test]
    fn never_exceeds_its_capacity_and_evicts_the_oldest() {
        let memo: Memo<u64, u64> = Memo::new(3);
        for k in 0..10 {
            memo.get_or_init(k, || k * 10);
            assert!(memo.len() <= 3, "{} entries after key {k}", memo.len());
        }
        assert_eq!((memo.len(), memo.inits()), (3, 10));
        // Keys 7..10 are held; key 0 was evicted and initialises again.
        assert_eq!(*memo.get_or_init(9, || unreachable!("key 9 is held")), 90);
        assert_eq!(*memo.get_or_init(0, || 1), 1);
        assert_eq!((memo.len(), memo.inits()), (3, 11));
    }

    #[test]
    fn a_panicking_initialiser_leaves_the_entry_for_the_next_caller() {
        let memo: Memo<u64, u64> = Memo::new(2);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_init(1, || panic!("training failed"))
        }));
        assert!(first.is_err());
        assert_eq!(*memo.get_or_init(1, || 5), 5);
    }
}
