//! A CLOCK (second-chance) replacement ring with an O(1) index.
//!
//! Shared by the LSM block cache (one ring per lock stripe) and the
//! compressed B+tree's decoded-block cache. Slots carry a reference bit
//! that a hit sets; on a full ring the hand clears set bits until it finds
//! an unreferenced victim. A `HashMap` from key to slot position replaces
//! the linear probe a plain CLOCK would need.

use std::collections::HashMap;
use std::hash::Hash;

/// A CLOCK ring of at most `capacity` `(key, value)` slots.
pub struct Clock<K, V> {
    /// `(key, value, referenced)`. Public for inspection only; mutate
    /// through the methods so the index stays coherent.
    pub slots: Vec<(K, V, bool)>,
    /// Key → slot position.
    index: HashMap<K, usize>,
    capacity: usize,
    hand: usize,
    hits: u64,
    misses: u64,
}

impl<K: Copy + Eq + Hash, V> Clock<K, V> {
    /// An empty ring holding at most `capacity` slots (0 caches nothing).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::new(),
            index: HashMap::new(),
            capacity,
            hand: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot holding `key`, marking it referenced and counting a hit.
    pub fn find(&mut self, key: K) -> Option<usize> {
        let &i = self.index.get(&key)?;
        self.slots[i].2 = true;
        self.hits += 1;
        Some(i)
    }

    /// The value cached under `key` (see [`Clock::find`]).
    pub fn get(&mut self, key: K) -> Option<&V> {
        let i = self.find(key)?;
        Some(&self.slots[i].1)
    }

    /// Caches `value` under `key` and returns its slot, counting a miss
    /// (callers insert after a failed lookup). A capacity-0 ring hands the
    /// value back as `Err`. Re-inserting a cached key refreshes its slot in
    /// place: indexing a second slot would leave the old one in the ring
    /// but out of the index, wasting capacity and invisible to
    /// [`Clock::invalidate`].
    pub fn insert(&mut self, key: K, value: V) -> Result<usize, V> {
        self.misses += 1;
        if self.capacity == 0 {
            return Err(value);
        }
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].1 = value;
            self.slots[i].2 = true;
            return Ok(i);
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push((key, value, true));
            return Ok(self.slots.len() - 1);
        }
        // Sweep: clear reference bits until an unreferenced victim.
        loop {
            let victim = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[victim];
            if slot.2 {
                slot.2 = false;
            } else {
                self.index.remove(&slot.0);
                self.index.insert(key, victim);
                *slot = (key, value, true);
                return Ok(victim);
            }
        }
    }

    /// Drops `key`'s slot, if cached. The swap-removed slot's new occupant
    /// is re-indexed and the hand is clamped back into range.
    pub fn invalidate(&mut self, key: K) {
        let Some(i) = self.index.remove(&key) else {
            return;
        };
        self.slots.swap_remove(i);
        if i < self.slots.len() {
            self.index.insert(self.slots[i].0, i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Asserts the index ↔ slots bijection and the hand range (for the
    /// differential cache tests, after every operation).
    pub fn assert_coherent(&self) {
        assert_eq!(self.index.len(), self.slots.len(), "index/slot count desync");
        assert!(self.slots.len() <= self.capacity);
        for (pos, slot) in self.slots.iter().enumerate() {
            assert_eq!(self.index.get(&slot.0), Some(&pos), "slot {pos} not indexed");
        }
        assert!(self.hand == 0 || self.hand < self.slots.len(), "hand out of range");
    }
}
