//! The predictor's set-up (solo profiles and trained models), memoized.

use crate::{SlowdownModel, WorkloadProfile};
use mnpu_engine::{config_fingerprint, FanOut, SystemConfig};
use mnpu_model::{zoo, Scale};
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
struct Memo<K, V> {
    cap: usize,
    entries: Mutex<VecDeque<(K, Cell<V>)>>,
    /// Initialisers run to completion, for tests to count.
    inits: AtomicUsize,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty memo holding at most `cap` (positive) entries.
    const fn new(cap: usize) -> Self {
        Memo { cap, entries: Mutex::new(VecDeque::new()), inits: AtomicUsize::new(0) }
    }

    /// The value for `key`, running `init` to produce it unless it is
    /// already held. The memo's lock is not held while `init` runs.
    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> Arc<V> {
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
    fn len(&self) -> usize {
        self.entries.lock().expect("no caller panics holding the memo").len()
    }

    /// How many initialisers have run to completion.
    #[cfg(test)]
    fn inits(&self) -> usize {
        self.inits.load(Ordering::Relaxed)
    }
}

/// The predictor's set-up, memoized per process. The paper fits its
/// slowdown regression once and reuses it, and so does every caller in one
/// process: the serve predictor policy (including the one a restored serve
/// session rebuilds) and the mapping study of Figs. 17–18 read their
/// profiles and models from [`PredictorMemo::global`].
pub struct PredictorMemo {
    /// Trained models, keyed by the training rig's config fingerprint, the
    /// network and pair counts, and the seed; at most 16.
    models: Memo<(u64, usize, usize, u64), SlowdownModel>,
    /// Solo profiles, keyed by the fingerprint of the config they run on
    /// ([`WorkloadProfile::solo_config`]), the scale and the network name;
    /// at most 256.
    profiles: Memo<(u64, Scale, String), WorkloadProfile>,
}

static GLOBAL: PredictorMemo = PredictorMemo::new();

impl PredictorMemo {
    /// An empty memo; callers share [`PredictorMemo::global`].
    const fn new() -> Self {
        PredictorMemo { models: Memo::new(16), profiles: Memo::new(256) }
    }

    /// The process-wide memo.
    pub fn global() -> &'static PredictorMemo {
        &GLOBAL
    }

    /// The solo profiles ([`WorkloadProfile::measure`] on `chip`) of the
    /// zoo networks `names` at `scale`, in order. Whatever the memo lacks
    /// is measured on `fan`'s workers.
    ///
    /// # Panics
    ///
    /// Panics if a name is not in [`zoo::MODEL_NAMES`].
    pub fn profiles(
        &self,
        chip: &SystemConfig,
        scale: Scale,
        names: &[&str],
        fan: FanOut,
    ) -> Vec<Arc<WorkloadProfile>> {
        let solo_fp = config_fingerprint(&WorkloadProfile::solo_config(chip));
        fan.map(names, |&name| {
            self.profiles.get_or_init((solo_fp, scale, name.into()), || {
                let net = zoo::by_name(name, scale).expect("a zoo network name");
                WorkloadProfile::measure(chip, &net)
            })
        })
    }

    /// The slowdown model [`SlowdownModel::train_on_random_networks`]
    /// fits on `rig` from `networks` random networks and `pairs` co-runs
    /// seeded by `seed`, trained on `fan`'s workers unless the memo holds
    /// it.
    pub fn model(
        &self,
        rig: &SystemConfig,
        networks: usize,
        pairs: usize,
        seed: u64,
        fan: FanOut,
    ) -> Arc<SlowdownModel> {
        self.models.get_or_init((config_fingerprint(rig), networks, pairs, seed), || {
            SlowdownModel::train_on_random_networks(rig, networks, pairs, seed, fan)
        })
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
        let values = FanOut::with_jobs(8).map(&[(); 8], |_| {
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
    fn concurrent_predictor_set_ups_for_one_key_train_once() {
        // A memo of the test's own, so no other test's keys can reach it.
        let memo = PredictorMemo::new();
        let rig = SystemConfig::bench(2, mnpu_engine::SharingLevel::PlusDwt);
        let set_up = |fan| {
            (memo.profiles(&rig, Scale::Bench, &["ncf", "yt"], fan), memo.model(&rig, 6, 8, 3, fan))
        };
        let start = std::sync::Barrier::new(3);
        let built = FanOut::with_jobs(3).map(&[(); 3], |_| {
            start.wait();
            set_up(FanOut::new())
        });
        assert_eq!((memo.models.inits(), memo.profiles.inits()), (1, 2));
        assert!(built.iter().all(|(_, m)| Arc::ptr_eq(m, &built[0].1)));
        // A later set-up on the same key simulates nothing.
        set_up(FanOut::with_jobs(2));
        assert_eq!((memo.models.inits(), memo.profiles.inits()), (1, 2));
        // Other network and pair counts are another model.
        memo.model(&rig, 10, 20, 3, FanOut::new());
        assert_eq!(memo.models.inits(), 2);
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
