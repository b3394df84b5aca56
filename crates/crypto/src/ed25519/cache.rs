//! Comb tables of the public keys that sign again.
//!
//! A replica verifies the same few keys over and over (its clients' and its
//! peers'), so the process keeps such a key's [`CombTable`] and checks later
//! signatures under it with [`Point::mul_double_comb`]. A key is admitted on
//! the second signature under it that verifies the slow way: the first one
//! only notes the key in a bounded seen-once set, so neither an invalid
//! signature nor a key that signs once ever costs a table. The cache admits
//! keys until it holds [`CAPACITY`] and then admits no more (there is no
//! eviction), so a process builds at most [`CAPACITY`] tables in its life,
//! and once the cache is full an uncached key verifies as it would without
//! it.

use super::point::{CombTable, Point};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock, RwLock};

/// Keys whose comb tables the process keeps: at 7 680 B a table, at most
/// 7.9 MB.
pub const CAPACITY: usize = 1024;

/// A bounded map from a compressed public key to the comb table of its
/// negation, `−A`, the point the verification equation multiplies by `k`.
pub(crate) struct KeyCache {
    capacity: usize,
    keys: RwLock<Keys>,
}

struct Keys {
    tables: HashMap<[u8; 32], Arc<CombTable>>,
    /// Keys with one valid signature so far; emptied when it would pass
    /// `capacity`.
    seen_once: HashSet<[u8; 32]>,
}

/// The process-wide cache behind [`super::verify`].
pub(crate) fn keys() -> &'static KeyCache {
    static KEYS: OnceLock<KeyCache> = OnceLock::new();
    KEYS.get_or_init(|| KeyCache::new(CAPACITY))
}

impl KeyCache {
    pub(crate) fn new(capacity: usize) -> KeyCache {
        KeyCache {
            capacity,
            keys: RwLock::new(Keys {
                tables: HashMap::new(),
                seen_once: HashSet::new(),
            }),
        }
    }

    /// The comb table of `−A` if `public_key` has been admitted.
    pub(crate) fn get(&self, public_key: &[u8; 32]) -> Option<Arc<CombTable>> {
        let keys = self.keys.read().expect("key cache lock");
        keys.tables.get(public_key).cloned()
    }

    /// Notes that a signature under `public_key`, whose decompressed point
    /// is `a`, verified the slow way; on the key's second such signature,
    /// admits it while the cache has room.
    pub(crate) fn note_valid(&self, public_key: &[u8; 32], a: &Point) {
        if self.keys.read().expect("key cache lock").tables.len() >= self.capacity {
            return;
        }
        {
            let mut keys = self.keys.write().expect("key cache lock");
            if !keys.seen_once.remove(public_key) {
                if keys.seen_once.len() >= self.capacity {
                    keys.seen_once.clear();
                }
                keys.seen_once.insert(*public_key);
                return;
            }
        }
        self.admit(public_key, a);
    }

    /// Builds the table of `public_key` (outside the lock) and keeps it
    /// while the cache has room.
    pub(crate) fn admit(&self, public_key: &[u8; 32], a: &Point) {
        let table = Arc::new(CombTable::new(&a.neg()));
        let mut keys = self.keys.write().expect("key cache lock");
        if keys.tables.len() < self.capacity {
            keys.tables.entry(*public_key).or_insert(table);
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.read().expect("key cache lock").tables.len()
    }

    #[cfg(test)]
    pub(crate) fn seen_once_len(&self) -> usize {
        self.keys.read().expect("key cache lock").seen_once.len()
    }
}
