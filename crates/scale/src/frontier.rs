//! Frontier virtualization: a deque whose middle spills out of memory.
//!
//! BUbiNG keeps a small in-memory head and tail per queue and "virtualizes"
//! the middle to disk; [`SpillQueue`] is that idea over interned
//! [`UrlId`]s. The logical sequence is always
//!
//! ```text
//! front buffer ++ arena chunks (oldest → newest) ++ back buffer
//! ```
//!
//! Pushes append to the back buffer; when the two buffers exceed the
//! configured in-memory cap, fixed-size chunks move from the *oldest end of
//! the back buffer* into the overflow arena — preserving order exactly.
//! `pop_front` refills the front buffer from the oldest arena chunk;
//! `pop_back` reloads the newest. Both FIFO and LIFO pop orders are
//! therefore *identical* to an unbounded `VecDeque`'s (pinned by proptest),
//! which is what lets the bounded frontier sit behind the frozen
//! deterministic-replay suites.
//!
//! With the default [`SpillConfig::unbounded`] the queue never spills and
//! every operation degenerates to a plain `VecDeque` op on the front
//! buffer — bit-identical behaviour, no arena, no chunking.
//!
//! The arena is an unlinked temp file ([`SpillBacking::Disk`]) whose slots
//! are recycled as chunks are read back: the backing that bounds the
//! process's memory. [`SpillBacking::Memory`] keeps the chunks on the heap
//! as dense boxed slices, 4 bytes per id — what the unbounded `VecDeque`
//! costs, minus its headroom — so it bounds the two deque windows and not
//! the process; it exercises the chunking without a file.

use sb_webgraph::UrlId;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic suffix so concurrent queues in one process get distinct files.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where spilled chunks live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillBacking {
    /// Boxed heap chunks (dense, 4 bytes/id): bounds the deque windows,
    /// not the process's memory.
    Memory,
    /// An anonymous temp file (created in `std::env::temp_dir()` and
    /// immediately unlinked); slots are recycled after reads.
    Disk,
}

/// Spill policy for a [`SpillQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// Max ids held in the in-memory front + back buffers before chunks
    /// spill. The cap is approximate by up to one chunk.
    pub mem_cap: usize,
    /// Ids per spilled chunk.
    pub chunk: usize,
    pub backing: SpillBacking,
}

impl SpillConfig {
    /// Never spills: plain `VecDeque` behaviour (the engine default).
    pub fn unbounded() -> Self {
        SpillConfig { mem_cap: usize::MAX, chunk: 1024, backing: SpillBacking::Memory }
    }

    /// Spills past `mem_cap` in-memory ids, chunking at `mem_cap / 4`
    /// (minimum 16).
    pub fn bounded(mem_cap: usize, backing: SpillBacking) -> Self {
        SpillConfig { mem_cap, chunk: (mem_cap / 4).max(16), backing }
    }
}

/// The overflow arena: an ordered sequence of fixed-size chunks.
enum Arena {
    Mem(VecDeque<Box<[UrlId]>>),
    Disk {
        file: File,
        /// Slot indices in logical (oldest → newest) order.
        order: VecDeque<u32>,
        /// Recycled slots.
        free: Vec<u32>,
        /// Total slots ever allocated (file length / slot size).
        slots: u32,
        /// Ids per slot.
        chunk: usize,
    },
}

impl Arena {
    fn new(cfg: &SpillConfig) -> Arena {
        match cfg.backing {
            SpillBacking::Memory => Arena::Mem(VecDeque::new()),
            SpillBacking::Disk => {
                let dir = std::env::temp_dir();
                let name = format!(
                    "sb-scale-spill-{}-{}",
                    std::process::id(),
                    SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
                );
                let path = dir.join(name);
                let file = File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)
                    .expect("create spill file");
                // Unlink immediately: the fd keeps the storage alive, and
                // nothing leaks if the process dies.
                let _ = std::fs::remove_file(&path);
                Arena::Disk { file, order: VecDeque::new(), free: Vec::new(), slots: 0, chunk: cfg.chunk }
            }
        }
    }

    fn n_chunks(&self) -> usize {
        match self {
            Arena::Mem(chunks) => chunks.len(),
            Arena::Disk { order, .. } => order.len(),
        }
    }

    fn items(&self) -> usize {
        match self {
            Arena::Mem(chunks) => chunks.iter().map(|c| c.len()).sum(),
            Arena::Disk { order, chunk, .. } => order.len() * chunk,
        }
    }

    fn push_newest(&mut self, ids: Vec<UrlId>) {
        match self {
            Arena::Mem(chunks) => chunks.push_back(ids.into_boxed_slice()),
            Arena::Disk { file, order, free, slots, chunk } => {
                assert_eq!(ids.len(), *chunk, "disk slots are fixed-size");
                let slot = free.pop().unwrap_or_else(|| {
                    let s = *slots;
                    *slots += 1;
                    s
                });
                let mut buf = Vec::with_capacity(*chunk * 4);
                for id in &ids {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
                file.seek(SeekFrom::Start(slot as u64 * (*chunk as u64) * 4))
                    .expect("seek spill slot");
                file.write_all(&buf).expect("write spill slot");
                order.push_back(slot);
            }
        }
    }

    fn pop_oldest(&mut self) -> Option<Vec<UrlId>> {
        match self {
            Arena::Mem(chunks) => chunks.pop_front().map(|c| c.into_vec()),
            Arena::Disk { file, order, free, chunk, .. } => {
                let slot = order.pop_front()?;
                Some(read_slot(file, free, *chunk, slot))
            }
        }
    }

    fn pop_newest(&mut self) -> Option<Vec<UrlId>> {
        match self {
            Arena::Mem(chunks) => chunks.pop_back().map(|c| c.into_vec()),
            Arena::Disk { file, order, free, chunk, .. } => {
                let slot = order.pop_back()?;
                Some(read_slot(file, free, *chunk, slot))
            }
        }
    }
}

/// Reads one fixed-size slot back from the spill file and recycles it.
fn read_slot(file: &mut File, free: &mut Vec<u32>, chunk: usize, slot: u32) -> Vec<UrlId> {
    let mut buf = vec![0u8; chunk * 4];
    file.seek(SeekFrom::Start(slot as u64 * (chunk as u64) * 4)).expect("seek spill slot");
    file.read_exact(&mut buf).expect("read spill slot");
    free.push(slot);
    buf.chunks_exact(4)
        .map(|b| UrlId::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// Bounded-memory deque of [`UrlId`]s with exact `VecDeque` pop order; see
/// module docs.
pub struct SpillQueue {
    front: VecDeque<UrlId>,
    back: VecDeque<UrlId>,
    arena: Arena,
    cfg: SpillConfig,
    spill_events: u64,
}

impl SpillQueue {
    /// An unbounded queue — plain `VecDeque` behaviour, never spills.
    pub fn unbounded() -> Self {
        Self::with_config(SpillConfig::unbounded())
    }

    pub fn with_config(cfg: SpillConfig) -> Self {
        assert!(cfg.chunk > 0, "chunk size must be positive");
        SpillQueue {
            front: VecDeque::new(),
            back: VecDeque::new(),
            arena: Arena::new(&cfg),
            cfg,
            spill_events: 0,
        }
    }

    /// Total ids queued (in memory + spilled).
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len() + self.arena.items()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids currently resident in memory buffers (excludes `Memory`-backed
    /// arena chunks, which are accounted as spilled).
    pub fn in_mem_len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// Ids in the overflow arena.
    pub fn spilled_len(&self) -> usize {
        self.arena.items()
    }

    /// Number of chunk-spill events so far (observability: proves the
    /// overflow path actually ran).
    pub fn spill_events(&self) -> u64 {
        self.spill_events
    }

    pub fn push_back(&mut self, id: UrlId) {
        if self.arena.n_chunks() == 0 && self.back.is_empty() && self.front.len() < self.cfg.mem_cap
        {
            // Unspilled fast path: the whole queue is the front buffer.
            self.front.push_back(id);
            return;
        }
        self.back.push_back(id);
        while self.front.len() + self.back.len() > self.cfg.mem_cap
            && self.back.len() >= self.cfg.chunk
        {
            let chunk: Vec<UrlId> = self.back.drain(..self.cfg.chunk).collect();
            self.arena.push_newest(chunk);
            self.spill_events += 1;
        }
    }

    pub fn pop_front(&mut self) -> Option<UrlId> {
        if self.front.is_empty() {
            if let Some(chunk) = self.arena.pop_oldest() {
                self.front.extend(chunk);
            } else {
                return self.back.pop_front();
            }
        }
        self.front.pop_front()
    }

    pub fn pop_back(&mut self) -> Option<UrlId> {
        if let Some(id) = self.back.pop_back() {
            return Some(id);
        }
        if let Some(chunk) = self.arena.pop_newest() {
            self.back.extend(chunk);
            return self.back.pop_back();
        }
        self.front.pop_back()
    }

    /// Removes and returns the id at logical index `i`, replacing it with
    /// the last element (exactly `VecDeque::swap_remove_back`). Only
    /// supported while nothing is spilled — the RANDOM discipline keeps its
    /// frontier unbounded; spilling configs are for FIFO/LIFO.
    pub fn swap_remove_back(&mut self, i: usize) -> Option<UrlId> {
        assert!(
            self.arena.n_chunks() == 0,
            "swap_remove_back on a spilled queue (RANDOM frontiers must stay unbounded)"
        );
        let nf = self.front.len();
        if i < nf {
            if self.back.is_empty() {
                self.front.swap_remove_back(i)
            } else {
                let last = self.back.pop_back().expect("back non-empty");
                Some(std::mem::replace(&mut self.front[i], last))
            }
        } else {
            self.back.swap_remove_back(i - nf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_front(q: &mut SpillQueue) -> Vec<UrlId> {
        std::iter::from_fn(|| q.pop_front()).collect()
    }

    fn drain_back(q: &mut SpillQueue) -> Vec<UrlId> {
        std::iter::from_fn(|| q.pop_back()).collect()
    }

    #[test]
    fn unbounded_is_plain_deque() {
        let mut q = SpillQueue::unbounded();
        for id in 0..100 {
            q.push_back(id);
        }
        assert_eq!(q.spilled_len(), 0);
        assert_eq!(q.spill_events(), 0);
        assert_eq!(drain_front(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_order_survives_memory_spill() {
        let mut q = SpillQueue::with_config(SpillConfig {
            mem_cap: 8,
            chunk: 4,
            backing: SpillBacking::Memory,
        });
        for id in 0..1000 {
            q.push_back(id);
        }
        assert!(q.spill_events() > 0, "spill must happen");
        assert!(q.in_mem_len() <= 8 + 4, "in-memory {} over cap", q.in_mem_len());
        assert_eq!(q.len(), 1000);
        assert_eq!(drain_front(&mut q), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn lifo_order_survives_memory_spill() {
        let mut q = SpillQueue::with_config(SpillConfig {
            mem_cap: 8,
            chunk: 4,
            backing: SpillBacking::Memory,
        });
        for id in 0..500 {
            q.push_back(id);
        }
        assert_eq!(drain_back(&mut q), (0..500).rev().collect::<Vec<_>>());
    }

    #[test]
    fn fifo_order_survives_disk_spill() {
        let mut q = SpillQueue::with_config(SpillConfig {
            mem_cap: 16,
            chunk: 8,
            backing: SpillBacking::Disk,
        });
        for id in 0..2000 {
            q.push_back(id);
        }
        assert!(q.spill_events() > 0);
        assert_eq!(drain_front(&mut q), (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn disk_slots_are_recycled() {
        let mut q = SpillQueue::with_config(SpillConfig {
            mem_cap: 8,
            chunk: 4,
            backing: SpillBacking::Disk,
        });
        // Interleave pushes and pops so chunks cycle through the file.
        let mut popped = Vec::new();
        let mut next = 0u32;
        for round in 0..50 {
            for _ in 0..20 {
                q.push_back(next);
                next += 1;
            }
            for _ in 0..(if round % 2 == 0 { 15 } else { 20 }) {
                if let Some(id) = q.pop_front() {
                    popped.push(id);
                }
            }
        }
        popped.extend(drain_front(&mut q));
        assert_eq!(popped, (0..next).collect::<Vec<_>>());
        if let Arena::Disk { slots, .. } = &q.arena {
            assert!(*slots < 40, "slots should be recycled, got {slots}");
        } else {
            panic!("expected disk arena");
        }
    }

    #[test]
    fn mixed_pops_match_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let cap = rng.gen_range(1..32);
            let mut q = SpillQueue::with_config(SpillConfig {
                mem_cap: cap,
                chunk: rng.gen_range(1..16),
                backing: SpillBacking::Memory,
            });
            let mut model: VecDeque<UrlId> = VecDeque::new();
            let mut next = 0;
            for _ in 0..400 {
                match rng.gen_range(0..3) {
                    0 | 1 => {
                        q.push_back(next);
                        model.push_back(next);
                        next += 1;
                    }
                    _ => {
                        if rng.gen_bool(0.5) {
                            assert_eq!(q.pop_front(), model.pop_front());
                        } else {
                            assert_eq!(q.pop_back(), model.pop_back());
                        }
                    }
                }
                assert_eq!(q.len(), model.len());
            }
        }
    }

    #[test]
    fn swap_remove_back_matches_deque_when_unspilled() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = SpillQueue::unbounded();
        let mut model: VecDeque<UrlId> = VecDeque::new();
        for id in 0..200 {
            q.push_back(id);
            model.push_back(id);
        }
        while !model.is_empty() {
            let i = rng.gen_range(0..model.len());
            assert_eq!(q.swap_remove_back(i), model.swap_remove_back(i));
        }
        assert!(q.is_empty());
    }
}
