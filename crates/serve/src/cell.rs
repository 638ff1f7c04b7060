//! [`ArcCell`]: a swappable `Arc<T>` slot — the synchronisation primitive
//! under the snapshot store, and nothing cleverer than `RwLock<Arc<T>>`.
//!
//! `load` clones the `Arc` under the read lock and `store` swaps it under
//! the write lock, so a reader sees either the complete old value or the
//! complete new one and waits at most for one pointer swap. A loaded
//! `Arc` is immutable history: later stores cannot touch it.

use parking_lot::RwLock;
use std::sync::Arc;

/// A shared slot holding an `Arc<T>`, replaced whole and never mutated.
pub struct ArcCell<T>(RwLock<Arc<T>>);

impl<T> ArcCell<T> {
    pub fn new(value: Arc<T>) -> Self {
        ArcCell(RwLock::new(value))
    }

    /// A complete, previously-committed value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.0.read())
    }

    /// Publishes `value` and returns the replaced `Arc`.
    pub fn store(&self, value: Arc<T>) -> Arc<T> {
        std::mem::replace(&mut *self.0.write(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    #[test]
    fn load_returns_stored_value() {
        let cell = ArcCell::new(Arc::new(7u32));
        assert_eq!(*cell.load(), 7);
        let old = cell.store(Arc::new(8));
        assert_eq!(*old, 7);
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn drop_reclaims_exactly_once() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let cell = ArcCell::new(Arc::new(D));
            let old = cell.store(Arc::new(D));
            drop(old);
            assert_eq!(DROPS.load(SeqCst), 1, "replaced value dropped once");
        }
        assert_eq!(
            DROPS.load(SeqCst),
            2,
            "cell drop reclaims the current value"
        );
    }

    #[test]
    fn held_arc_outlives_replacement() {
        let cell = ArcCell::new(Arc::new(vec![1u8; 64]));
        let held = cell.load();
        cell.store(Arc::new(vec![2u8; 64]));
        cell.store(Arc::new(vec![3u8; 64]));
        assert!(
            held.iter().all(|&b| b == 1),
            "reader's Arc is immutable history"
        );
    }

    /// Concurrent readers under a storm of writes: every loaded value is
    /// internally consistent (untorn) and the observed sequence is
    /// monotone per reader.
    #[test]
    fn concurrent_loads_see_complete_monotone_values() {
        const WRITES: u64 = 3_000;
        const READERS: usize = 4;
        let cell = ArcCell::new(Arc::new(vec![0u64; 8]));
        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    let mut last = 0u64;
                    while last < WRITES {
                        let v = cell.load();
                        let first = v[0];
                        assert!(v.iter().all(|&x| x == first), "torn value {v:?}");
                        assert!(first >= last, "went backwards: {first} after {last}");
                        last = first;
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=WRITES {
                    cell.store(Arc::new(vec![i; 8]));
                }
            });
        });
        assert_eq!(cell.load()[0], WRITES);
    }
}
