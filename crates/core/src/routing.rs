//! Routed circuits as a shared, persistent product.
//!
//! Fig. 10 scores one compiled circuit against whole device
//! populations. Compiling (layout → SABRE → basis lowering) reads only
//! the circuit, the coupling map and the transpiler configuration —
//! never noise — so the per-edge gate usage it produces
//! ([`edge_usage`]) is a pure function of a `RoutingKey`. The
//! [`CacheHub`](crate::lab::CacheHub) memoizes it once per key for all
//! scenarios (link ratio, σ_f, lab seed and batch are not in the key),
//! and a persistent store keeps it across processes as an
//! `edge-usage` entry.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use chipletqc_benchmarks::suite::{logical_width, Benchmark};
use chipletqc_math::rng::Seed;
use chipletqc_store::Store;
use chipletqc_topology::device::Device;
use chipletqc_topology::family::MonolithicSpec;
use chipletqc_topology::mcm::McmSpec;
use chipletqc_transpile::esp::edge_usage;
use chipletqc_transpile::pipeline::Transpiler;

use crate::lab::{slot, Slot};

/// Version of the routing pipeline behind stored `edge-usage` entries,
/// part of every entry's cache key. Bump it whenever layout, SABRE
/// routing or basis lowering can change a routed circuit, so entries
/// written by the old pipeline are never served again.
pub const ROUTING_VERSION: u32 = 1;

/// The device a circuit is routed onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoutedDevice {
    /// A multi-chip module: the full chiplet design and grid.
    Mcm(McmSpec),
    /// A monolithic device, a pure function of its qubit count.
    Monolithic(usize),
}

impl RoutedDevice {
    /// The device's qubit count.
    fn num_qubits(&self) -> usize {
        match self {
            RoutedDevice::Mcm(spec) => spec.num_qubits(),
            RoutedDevice::Monolithic(qubits) => *qubits,
        }
    }

    /// Builds the coupling map.
    ///
    /// # Panics
    ///
    /// Panics if a monolithic qubit count is not a positive multiple
    /// of 5.
    fn build(&self) -> Device {
        match self {
            RoutedDevice::Mcm(spec) => spec.build(),
            RoutedDevice::Monolithic(qubits) => MonolithicSpec::with_qubits(*qubits)
                .unwrap_or_else(|e| panic!("monolithic size {qubits}: {e}"))
                .build(),
        }
    }

    fn detail(&self) -> String {
        match self {
            RoutedDevice::Mcm(spec) => {
                let chiplet = spec.chiplet();
                format!(
                    "mcm-{}x{}m-{}x{}",
                    chiplet.dense_rows(),
                    chiplet.width_param(),
                    spec.grid_rows(),
                    spec.grid_cols()
                )
            }
            RoutedDevice::Monolithic(qubits) => format!("mono-{qubits}q"),
        }
    }
}

/// Everything that decides a routed circuit, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RoutingKey {
    /// The compiler configuration.
    pub(crate) transpiler: Transpiler,
    /// The benchmark generated.
    pub(crate) benchmark: Benchmark,
    /// Seed for randomized benchmarks (primacy).
    pub(crate) circuit_seed: Seed,
    /// The generated circuit's logical width.
    pub(crate) circuit_qubits: usize,
    /// The device routed onto.
    pub(crate) device: RoutedDevice,
}

impl RoutingKey {
    /// The key of `benchmark` generated at the paper's 80 % utilization
    /// of `device` (as [`Benchmark::for_device_qubits`] does).
    pub(crate) fn for_device(
        transpiler: Transpiler,
        benchmark: Benchmark,
        circuit_seed: Seed,
        device: RoutedDevice,
    ) -> RoutingKey {
        RoutingKey {
            transpiler,
            benchmark,
            circuit_seed,
            circuit_qubits: logical_width(device.num_qubits()),
            device,
        }
    }

    /// The store cache key: the routing version and the transpiler.
    fn cache_key(&self) -> String {
        format!("r{ROUTING_VERSION}|{:?}", self.transpiler)
    }

    /// The store detail: benchmark, circuit seed and width, device.
    fn detail(&self) -> String {
        format!(
            "{:?}|s{}|w{}|{}",
            self.benchmark,
            self.circuit_seed.0,
            self.circuit_qubits,
            self.device.detail()
        )
    }

    /// Generates, compiles and tallies the circuit on `device` (the
    /// key's own device, already built).
    fn route_onto(&self, device: &Device) -> Vec<u32> {
        let circuit = self.benchmark.generate(self.circuit_qubits, self.circuit_seed);
        edge_usage(&self.transpiler.transpile(&circuit, device).physical, device)
    }

    /// The routed circuit's per-edge gate usage, computed directly.
    #[cfg(test)]
    fn route(&self) -> Vec<u32> {
        self.route_onto(&self.device.build())
    }
}

/// A routing's store coordinates, `(cache_key, detail)`: its memo key.
type Names = (String, String);

/// The hub's routing memo: one once-initialized slot per
/// [`RoutingKey`], so racing scenarios route each circuit once.
#[derive(Debug, Default)]
pub(crate) struct RoutingMemo {
    slots: Mutex<BTreeMap<Names, Slot<Vec<u32>>>>,
    /// Keys some [`RoutingMemo::route_all`] caller has taken on.
    claimed: Mutex<BTreeSet<Names>>,
    transpiles: AtomicUsize,
}

impl RoutingMemo {
    /// The usage under `key`: memoized, else read through `store`,
    /// else routed (and persisted behind the computation).
    pub(crate) fn edge_usage(&self, key: &RoutingKey, store: Option<&Store>) -> Arc<Vec<u32>> {
        let names = (key.cache_key(), key.detail());
        let cell = slot(&self.slots, &names);
        Arc::clone(cell.get_or_init(|| {
            let (cache_key, detail) = &names;
            let device = key.device.build();
            if let Some(store) = store {
                if let Some(usage) =
                    store.get_edge_usage(cache_key, detail, device.edges().len())
                {
                    return Arc::new(usage);
                }
            }
            self.transpiles.fetch_add(1, Ordering::Relaxed);
            let usage = Arc::new(key.route_onto(&device));
            if let Some(store) = store {
                store.put_edge_usage(cache_key, detail, Arc::clone(&usage));
            }
            usage
        }))
    }

    /// Resolves every key in `keys` that no other caller has claimed,
    /// in order. Scenarios that need the same routings at once (a
    /// link-ratio sweep) thus split them between their threads instead
    /// of queueing behind each other on every slot; keys claimed
    /// elsewhere resolve later, through [`RoutingMemo::edge_usage`].
    pub(crate) fn route_all(&self, keys: &[RoutingKey], store: Option<&Store>) {
        for key in keys {
            let names = (key.cache_key(), key.detail());
            if self.claimed.lock().expect("routing claims poisoned").insert(names) {
                self.edge_usage(key, store);
            }
        }
    }

    /// Routings actually run (never reset).
    pub(crate) fn transpiles(&self) -> usize {
        self.transpiles.load(Ordering::Relaxed)
    }

    /// Drops every memoized usage; the counter keeps counting.
    pub(crate) fn clear(&self) {
        self.slots.lock().expect("routing memo poisoned").clear();
        self.claimed.lock().expect("routing claims poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::CacheHub;
    use chipletqc_store::products::KIND_EDGE_USAGE;
    use chipletqc_store::{CacheMode, EntryKey};
    use chipletqc_topology::family::ChipletSpec;

    fn mcm_key(benchmark: Benchmark) -> RoutingKey {
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        RoutingKey::for_device(
            Transpiler::paper(),
            benchmark,
            Seed(10),
            RoutedDevice::Mcm(spec),
        )
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-routing-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        (dir, store)
    }

    /// Tripwire for [`ROUTING_VERSION`]: stored entries are trusted
    /// across processes and builds, so a change to what layout, SABRE
    /// or `to_basis` produce must come with a version bump.
    #[test]
    fn routing_version_pins_the_routed_usage() {
        let key = RoutingKey::for_device(
            Transpiler::paper(),
            Benchmark::Qaoa,
            Seed(10),
            RoutedDevice::Monolithic(20),
        );
        let usage = key.route();
        // SABRE inserts SWAPs here, so layout, routing and lowering
        // all feed the pin.
        let device = key.device.build();
        let circuit = key.benchmark.generate(key.circuit_qubits, key.circuit_seed);
        assert!(key.transpiler.transpile(&circuit, &device).swaps > 0);
        let pinned: (u32, &[u32]) =
            (1, &[2, 2, 2, 2, 2, 2, 5, 2, 2, 2, 5, 2, 0, 0, 0, 0, 2, 2, 2]);
        assert_eq!(
            (ROUTING_VERSION, usage.as_slice()),
            pinned,
            "the routed edge usage changed: if layout, SABRE routing or basis lowering \
             changed, bump ROUTING_VERSION (so stored edge-usage entries are not served) \
             and re-pin this usage"
        );
    }

    #[test]
    fn keys_cover_the_device_and_circuit_but_not_noise() {
        let key = mcm_key(Benchmark::Ghz);
        assert_eq!(key.circuit_qubits, 32);
        assert_eq!(key.detail(), "Ghz|s10|w32|mcm-2x1m-2x2");
        assert!(key.cache_key().starts_with(&format!("r{ROUTING_VERSION}|")));
        // Same qubit count, different chiplet: a different coupling
        // map, so a different key.
        let other = RoutingKey {
            device: RoutedDevice::Mcm(McmSpec::new(
                ChipletSpec::with_qubits(20).unwrap(),
                1,
                2,
            )),
            ..key
        };
        assert_eq!(other.device.num_qubits(), key.device.num_qubits());
        assert_ne!(other.detail(), key.detail());
        let mono = RoutingKey { device: RoutedDevice::Monolithic(40), ..key };
        assert_eq!(mono.detail(), "Ghz|s10|w32|mono-40q");
    }

    #[test]
    fn hub_routes_each_key_once_and_matches_a_direct_route() {
        let hub = CacheHub::new();
        let key = mcm_key(Benchmark::Bv);
        let a = hub.edge_usage(&key);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| assert_eq!(*hub.edge_usage(&key), *a));
            }
        });
        assert_eq!(*a, key.route());
        assert_eq!(hub.transpiles(), 1);
        hub.edge_usage(&RoutingKey { device: RoutedDevice::Monolithic(40), ..key });
        assert_eq!(hub.transpiles(), 2);
    }

    #[test]
    fn racing_route_all_callers_route_each_key_once() {
        let hub = CacheHub::new();
        let keys: Vec<RoutingKey> = [Benchmark::Bv, Benchmark::Ghz, Benchmark::Qaoa]
            .into_iter()
            .flat_map(|b| {
                let key = mcm_key(b);
                [key, RoutingKey { device: RoutedDevice::Monolithic(40), ..key }]
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| hub.route_all(&keys));
            }
        });
        assert_eq!(hub.transpiles(), keys.len());
        for key in &keys {
            assert_eq!(*hub.edge_usage(key), key.route());
        }
        hub.route_all(&keys);
        assert_eq!(hub.transpiles(), keys.len(), "claimed keys are not routed again");
    }

    #[test]
    fn clear_drops_routings_and_keeps_the_count_monotonic() {
        let hub = CacheHub::new();
        let key = mcm_key(Benchmark::Ghz);
        let first = hub.edge_usage(&key);
        let before = hub.transpiles();
        hub.clear();
        assert_eq!(hub.transpiles(), before, "clear keeps the cumulative count");
        hub.route_all(&[key]);
        let second = hub.edge_usage(&key);
        assert!(!Arc::ptr_eq(&first, &second), "clear must drop the memoized routing");
        assert_eq!(first, second);
        let after = hub.transpiles();
        assert_eq!(after.saturating_sub(before), 1, "per-batch delta across a reset");
        hub.edge_usage(&key);
        assert_eq!(hub.transpiles(), after, "memoized again after the recompute");
    }

    #[test]
    fn warm_store_serves_routings_without_transpiling() {
        let (dir, store) = temp_store("warm");
        let key = mcm_key(Benchmark::Qaoa);
        let cold = CacheHub::new().with_store(store);
        let usage = cold.edge_usage(&key);
        assert_eq!(cold.transpiles(), 1);
        cold.flush_store();
        assert_eq!(cold.store_stats().writes, 1);

        let warm = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        assert_eq!(warm.edge_usage(&key), usage);
        assert_eq!(warm.transpiles(), 0);
        assert_eq!(warm.store_stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_wrong_length_entries_are_invalid_misses_and_recomputed() {
        let key = mcm_key(Benchmark::Ghz);
        let expected = key.route();
        let entry = EntryKey::new(key.cache_key(), KIND_EDGE_USAGE, key.detail());
        let short = chipletqc_math::codec::encode_to_vec(&expected[1..].to_vec());
        for (tag, payload) in [("short", short), ("garbage", b"not a table".to_vec())] {
            let (dir, store) = temp_store(tag);
            store.put(&entry, chipletqc_store::envelope::Encoding::Binary, payload);
            store.flush();
            let hub =
                CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
            assert_eq!(*hub.edge_usage(&key), expected, "{tag} entry must not be scored");
            assert_eq!(hub.transpiles(), 1, "{tag} entry is recomputed");
            let stats = hub.store_stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.invalid),
                (0, 1, 1),
                "{tag}: {stats:?}"
            );
            hub.flush_store();
            // The recomputed usage replaced the bad entry.
            let again =
                CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
            assert_eq!(*again.edge_usage(&key), expected);
            assert_eq!(again.transpiles(), 0, "{tag}: rewritten entry serves");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
