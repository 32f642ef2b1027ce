//! The canonical-form solve cache: deterministic solves make memoization
//! trivially correct.
//!
//! # Why this is sound
//!
//! Every service solve is a pure function of `(canonical instance bytes,
//! solver, seed)` — PR 4's solve surface guarantees bit-identical plans
//! for identical inputs, and the service derives the seed itself from the
//! *content digest* ([`crate::service::item_seed`]), not from scheduling,
//! request ids, or worker identity. Two submissions of the same demand
//! pattern therefore run the exact same solve — so returning the stored
//! plan of the first run for the second is byte-for-byte indistinguishable
//! from re-solving. A cache hit can never change a transcript; it can only
//! skip work. (The one deliberate exception: solves truncated by a
//! deadline or the shutdown latch are *not* cached, so a hit always serves
//! the canonical full solve — see `DESIGN.md` §13.)
//!
//! # Key derivation
//!
//! The key is a 128-bit digest of the instance's canonical wire form
//! ([`crate::protocol::format_item`] — exactly the bytes a client would
//! have sent) plus the solver selection. Multi-ring instances have no wire
//! encoding; they fall back to their `Debug` form, which is deterministic
//! (derived field-order traversal of plain data) and captures every
//! solve-relevant field. The two 64-bit halves are independent FNV-1a
//! streams (the second seeded differently and finalized through
//! SplitMix64), so a colliding pair would have to collide both.

use std::collections::{HashMap, VecDeque};

use grooming::algorithm::Algorithm;
use grooming::solve::{Instance, Plan};

use crate::protocol::format_item;

/// The FNV-1a 64-bit offset basis: where a fresh [`fnv1a64`] starts.
pub const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from `basis` — the workspace's
/// one copy (cache keys, and the smoke and perf transcript digests).
pub fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical 128-bit digest of one `(instance, solver)` pair — the
/// cache key, and the content the per-item RNG seed derives from.
pub fn instance_digest(instance: &Instance, algo: Option<Algorithm>) -> u128 {
    let canonical = match format_item(instance) {
        Ok(wire) => wire,
        // In-process-only kinds (multi-ring) have no wire form; the
        // derived Debug output is deterministic and complete.
        Err(_) => format!("{instance:?}"),
    };
    let solver = match algo {
        Some(algo) => algo.wire_name(),
        None => "portfolio",
    };
    let mut h1 = fnv1a64(canonical.as_bytes(), FNV1A64_BASIS);
    h1 = fnv1a64(solver.as_bytes(), h1);
    let mut h2 = fnv1a64(canonical.as_bytes(), 0x6c62_272e_07bb_0142);
    h2 = fnv1a64(solver.as_bytes(), h2);
    h2 = rand::splitmix64(&mut h2);
    ((h1 as u128) << 64) | h2 as u128
}

/// A bounded, insertion-order-evicting map from content digests to
/// completed plans.
///
/// Eviction is FIFO rather than LRU on purpose: it is deterministic under
/// concurrent lookups (hits never reorder anything), which keeps cache
/// *contents* a pure function of the insertion sequence.
pub struct SolveCache {
    capacity: usize,
    map: HashMap<u128, Plan>,
    order: VecDeque<u128>,
    evictions: u64,
}

impl SolveCache {
    /// A cache holding at most `capacity` plans (`0` disables caching).
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            order: VecDeque::new(),
            evictions: 0,
        }
    }

    /// `true` if the cache can never store anything.
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Plans currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Plans evicted so far (monotonic).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The cached plan for `key`, if any.
    pub fn get(&self, key: u128) -> Option<&Plan> {
        self.map.get(&key)
    }

    /// Stores `plan` under `key`, evicting the oldest entries to stay
    /// within capacity. Re-inserting an existing key is a no-op (the plan
    /// is necessarily identical — see the module docs).
    pub fn insert(&mut self, key: u128, plan: Plan) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
        self.map.insert(key, plan);
        self.order.push_back(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grooming::solve::{SolveContext, Solver};
    use grooming_graph::generators;
    use grooming_sonet::demand::DemandSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan(seed: u64) -> Plan {
        let g = generators::gnm(8, 14, &mut StdRng::seed_from_u64(seed));
        Algorithm::Brauner
            .solve(&Instance::upsr(g, 4), &mut SolveContext::seeded(seed))
            .unwrap()
            .plan
    }

    #[test]
    fn digest_separates_instances_solvers_and_matches_itself() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Instance::ring(DemandSet::random(8, 12, &mut rng), 4);
        let b = Instance::ring(DemandSet::random(8, 12, &mut rng), 4);
        // Stable for the same value, split by content and by solver.
        assert_eq!(instance_digest(&a, None), instance_digest(&a, None));
        assert_ne!(instance_digest(&a, None), instance_digest(&b, None));
        assert_ne!(
            instance_digest(&a, None),
            instance_digest(&a, Some(Algorithm::Brauner))
        );
        // The same demands at a different grooming factor are different
        // work.
        let Instance::Ring { demands, .. } = a.clone() else {
            unreachable!()
        };
        assert_ne!(
            instance_digest(&a, None),
            instance_digest(&Instance::ring(demands, 3), None)
        );
    }

    #[test]
    fn multi_ring_instances_digest_via_debug_fallback() {
        use grooming_sonet::multiring::{rn, MultiRingNetwork};
        let mut network = MultiRingNetwork::new(vec![4, 4]);
        network.add_gateway(rn(0, 0), rn(1, 0));
        let a = Instance::multi_ring(network.clone(), vec![(rn(0, 1), rn(1, 2))], 4);
        let b = Instance::multi_ring(network, vec![(rn(0, 1), rn(1, 3))], 4);
        assert_eq!(instance_digest(&a, None), instance_digest(&a, None));
        assert_ne!(instance_digest(&a, None), instance_digest(&b, None));
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let mut cache = SolveCache::new(2);
        cache.insert(1, plan(1));
        cache.insert(2, plan(2));
        cache.insert(1, plan(1)); // re-insert: no-op, no reorder
        cache.insert(3, plan(3)); // evicts key 1 (oldest)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = SolveCache::new(0);
        assert!(cache.is_disabled());
        cache.insert(1, plan(1));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }
}
