//! The shared fabricate → characterize → assemble → compare pipeline.
//!
//! Every architecture comparison in the paper (Figs. 8–10) consumes the
//! same intermediate products: a collision-free KGD-characterized
//! chiplet bin per chiplet size, a collision-free noise-assigned
//! monolithic population per system size, and a best-first MCM assembly
//! per configuration. [`Lab`] computes these once per configuration and
//! caches them, and [`Lab::with_link_ratio`] creates sibling labs that
//! share the link-independent caches — the Fig. 9 ratio sweep reuses
//! all fabrication work across its four panels.
//!
//! ## Thread-safe sharing (the engine contract)
//!
//! The caches are `Arc`-based and internally synchronized, so labs can
//! be shared across the worker threads of `chipletqc-engine`'s
//! scenario scheduler. A [`CacheHub`] extends sibling sharing across
//! *independently constructed* labs: every lab created through
//! [`Lab::new_in`] with an equivalent cache-relevant configuration
//! (batch, fabrication, collision thresholds, root seed) reuses the
//! same fabrication and characterization products, and each product is
//! computed exactly once even when scenarios race for it (per-entry
//! [`OnceLock`] initialization). Cached values are pure functions of
//! the configuration, never of thread timing, so results remain
//! bit-identical regardless of worker count.
//!
//! ## Population semantics (DESIGN.md §6)
//!
//! The paper compares "the devices in the collision-free monolithic
//! yield to the MCMs resulting from the chiplets in the scaled,
//! collision-free bin", with KGD ranking ensuring the best chiplets
//! form the first modules. [`ComparisonMode::MatchMonolithicCount`]
//! (the default) compares the *best `min(N_mono, N_assembled)`
//! modules* against the full monolithic survivor population — equal
//! device counts, which is what makes speed-binning-style postselection
//! meaningful. [`ComparisonMode::AllAssembled`] is the ablation that
//! averages over every assembled module.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use chipletqc_assembly::assembler::{Assembler, AssemblyOutcome, AssemblyParams};
use chipletqc_assembly::kgd::KgdBin;
use chipletqc_collision::criteria::CollisionParams;
use chipletqc_collision::frequencies::Frequencies;
use chipletqc_math::codec::{ByteReader, ByteWriter, Codec, CodecError};
use chipletqc_math::rng::Seed;
use chipletqc_math::stats::mean;
use chipletqc_noise::assign::{EdgeNoise, NoiseModel};
use chipletqc_store::envelope::Encoding;
use chipletqc_store::products::KIND_MONO_POP;
use chipletqc_store::{EntryKey, Store, StoreStats};
use chipletqc_topology::device::Device;
use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
use chipletqc_topology::mcm::McmSpec;
use chipletqc_yield::fabrication::FabricationParams;
use chipletqc_yield::monte_carlo::{
    fabricate_collision_free_with_workers, TrialRange, YieldEstimate,
};

use crate::routing::{RoutingKey, RoutingMemo};

/// How MCM and monolithic populations are matched before averaging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComparisonMode {
    /// Compare the best `min(N_mono, N_assembled)` modules against all
    /// monolithic survivors (the paper's scaled comparison; default).
    #[default]
    MatchMonolithicCount,
    /// Compare every assembled module (ablation).
    AllAssembled,
}

/// Lab configuration: fabrication batch, models, and seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabConfig {
    /// Fabrication batch size per device design (paper: 10 000).
    pub batch: usize,
    /// Table I thresholds.
    pub collision: CollisionParams,
    /// Ideal plan + fabrication precision (paper: σ_f = 0.014).
    pub fabrication: FabricationParams,
    /// Assembly policy (reshuffle budget, bump bonds).
    pub assembly: AssemblyParams,
    /// Link error scale as a multiple of the on-chip mean; `None` uses
    /// the Gold et al. distribution (≈ 4.17×).
    pub link_ratio: Option<f64>,
    /// Population matching mode.
    pub comparison: ComparisonMode,
    /// Worker threads for Monte Carlo fabrication; `None` picks a
    /// heuristic from the batch size and hardware parallelism. The
    /// engine sets this to divide hardware between concurrent
    /// scenarios. Never affects results, only wall-clock time.
    pub yield_workers: Option<usize>,
    /// Root seed; every sub-stream derives from it.
    pub seed: Seed,
}

impl LabConfig {
    /// The paper-scale configuration: batch 10 000, σ_f = 0.014 GHz,
    /// state-of-the-art link noise.
    pub fn paper() -> LabConfig {
        LabConfig {
            batch: 10_000,
            collision: CollisionParams::paper(),
            fabrication: FabricationParams::state_of_the_art(),
            assembly: AssemblyParams::paper(),
            link_ratio: None,
            comparison: ComparisonMode::MatchMonolithicCount,
            yield_workers: None,
            seed: Seed(2022),
        }
    }

    /// A reduced configuration for tests and doc examples
    /// (batch 400).
    pub fn quick() -> LabConfig {
        LabConfig { batch: 400, ..LabConfig::paper() }
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch(self, batch: usize) -> LabConfig {
        LabConfig { batch, ..self }
    }

    /// Returns a copy with a different root seed.
    #[must_use]
    pub fn with_seed(self, seed: Seed) -> LabConfig {
        LabConfig { seed, ..self }
    }

    /// Returns a copy pinned to a fabrication worker count.
    #[must_use]
    pub fn with_yield_workers(self, workers: Option<usize>) -> LabConfig {
        LabConfig { yield_workers: workers, ..self }
    }

    /// The key under which labs may share fabrication/characterization
    /// caches: everything that determines those products (batch,
    /// fabrication model, collision thresholds, root seed) and nothing
    /// that does not (link ratio, comparison mode, assembly policy,
    /// worker counts).
    ///
    /// Public because it is also the natural *cross-process* cache
    /// key: shards of one scenario — or repeated engine invocations —
    /// that agree on this string are guaranteed to agree on every
    /// chiplet bin and monolithic population, so persisted products
    /// keyed by `(cache_key, product, size)` can be reused safely
    /// (ROADMAP: cross-process result caching).
    pub fn cache_key(&self) -> String {
        format!(
            "b{}|s{}|f{:?}|c{:?}",
            self.batch, self.seed.0, self.fabrication, self.collision
        )
    }

    /// The *batch-independent* part of [`LabConfig::cache_key`]: what
    /// pins the outcome of an individual Monte Carlo trial (trial `i`
    /// depends only on the derived seed and `i`, never on how many
    /// trials surround it). This keys the store's chunked raw-bin
    /// entries, so runs with different batch sizes still share every
    /// canonical chunk they have in common.
    pub fn trial_key(&self) -> String {
        format!("s{}|f{:?}|c{:?}", self.seed.0, self.fabrication, self.collision)
    }
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig::paper()
    }
}

/// A collision-free, noise-assigned monolithic device population.
#[derive(Debug, Clone, PartialEq)]
pub struct MonoPopulation {
    /// The monolithic device design.
    pub device: Device,
    /// The Monte Carlo yield estimate.
    pub estimate: YieldEstimate,
    /// Surviving devices: fabricated frequencies + assigned edge noise.
    pub members: Vec<(Frequencies, EdgeNoise)>,
}

impl MonoPopulation {
    /// Mean `E_avg` across the population, `None` when empty.
    pub fn mean_eavg(&self) -> Option<f64> {
        if self.members.is_empty() {
            return None;
        }
        Some(mean(&self.members.iter().map(|(_, n)| n.eavg()).collect::<Vec<f64>>()))
    }
}

/// Binary persistence for the result store: the device is recorded as
/// its qubit count (monolithic devices are a pure function of size)
/// and rebuilt on decode; estimate and members round-trip bit-exactly.
/// Decoding re-validates that the members cover the device and match
/// the estimate, so a stale or corrupt entry is an error (= a store
/// miss), never a wrong population.
impl Codec for MonoPopulation {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.device.num_qubits());
        self.estimate.encode(w);
        w.put_seq(&self.members);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<MonoPopulation, CodecError> {
        let qubits = r.get_usize()?;
        let estimate = YieldEstimate::decode(r)?;
        let members: Vec<(Frequencies, EdgeNoise)> = r.get_seq()?;
        let device = MonolithicSpec::with_qubits(qubits)
            .map_err(|e| CodecError::Invalid(format!("monolithic size {qubits}: {e}")))?
            .build();
        if members.len() != estimate.survivors {
            return Err(CodecError::Invalid(format!(
                "{} members but estimate counts {} survivors",
                members.len(),
                estimate.survivors
            )));
        }
        for (freqs, noise) in &members {
            if freqs.len() != device.num_qubits() || noise.len() != device.edges().len() {
                return Err(CodecError::Invalid("member does not cover the device".into()));
            }
        }
        Ok(MonoPopulation { device, estimate, members })
    }
}

/// A cache slot that is initialized exactly once, even under races:
/// the map lock is held only to find the slot, never while computing.
pub(crate) type Slot<T> = Arc<OnceLock<Arc<T>>>;

pub(crate) fn slot<K: Ord + Clone, T>(map: &Mutex<BTreeMap<K, Slot<T>>>, key: &K) -> Slot<T> {
    Arc::clone(map.lock().expect("cache poisoned").entry(key.clone()).or_default())
}

/// Link-independent caches shared between sibling labs (and, through a
/// [`CacheHub`], between labs of concurrent scenarios).
///
/// When a persistent [`Store`] is attached (via
/// [`CacheHub::with_store`]), it sits *under* these caches as a
/// read-through/write-behind layer: each per-entry `OnceLock` init
/// first consults the store, and computes (then persists) only on a
/// miss. In-process semantics are unchanged — every product is still
/// materialized at most once per hub, and its bytes are identical with
/// a cold store, a warm store, or no store at all.
#[derive(Debug, Default)]
struct SharedCaches {
    chiplet_bins: Mutex<BTreeMap<usize, Slot<KgdBin>>>,
    mono_pops: Mutex<BTreeMap<usize, Slot<MonoPopulation>>>,
    /// Products some [`Lab::prepare`] caller has taken on, as
    /// `(monolithic?, qubits)`.
    claimed: Mutex<BTreeSet<(bool, usize)>>,
    chiplet_fabrications: AtomicUsize,
    mono_fabrications: AtomicUsize,
    store: Option<Arc<Store>>,
}

/// Counters of how many fabrication campaigns actually ran — the
/// observable for cache-sharing tests and engine run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricationStats {
    /// Chiplet fabrication+KGD campaigns executed (one per distinct
    /// chiplet size, if sharing works).
    pub chiplet_fabrications: usize,
    /// Monolithic fabrication campaigns executed (one per distinct
    /// system size, if sharing works).
    pub mono_fabrications: usize,
}

impl FabricationStats {
    /// Total campaigns of either kind.
    pub fn total(&self) -> usize {
        self.chiplet_fabrications + self.mono_fabrications
    }

    /// The campaigns run since `earlier` was snapshotted — the
    /// per-submission view a long-lived service reports, where the
    /// hub's counters only ever grow across batches.
    #[must_use]
    pub fn since(&self, earlier: FabricationStats) -> FabricationStats {
        FabricationStats {
            chiplet_fabrications: self
                .chiplet_fabrications
                .saturating_sub(earlier.chiplet_fabrications),
            mono_fabrications: self.mono_fabrications.saturating_sub(earlier.mono_fabrications),
        }
    }
}

/// A registry of [`SharedCaches`] keyed by cache-relevant
/// configuration, extending sibling-lab sharing to labs constructed
/// independently (the engine's concurrent scenarios).
///
/// Cloning a hub clones the handle, not the contents; all clones see
/// the same caches.
#[derive(Debug, Clone, Default)]
pub struct CacheHub {
    inner: Arc<Mutex<BTreeMap<String, Arc<SharedCaches>>>>,
    store: Option<Arc<Store>>,
    /// Campaign counts carried over from caches dropped by
    /// [`CacheHub::clear`], so [`CacheHub::fabrication_stats`] stays
    /// monotonic across resets — the property per-batch deltas
    /// ([`FabricationStats::since`]) rely on.
    retired: Arc<Mutex<FabricationStats>>,
    /// Routed circuits, keyed apart from the lab configuration: noise
    /// never enters a routing, so every scenario shares them.
    routings: Arc<RoutingMemo>,
}

impl CacheHub {
    /// Creates an empty hub with no persistent store.
    pub fn new() -> CacheHub {
        CacheHub::default()
    }

    /// Returns a hub backed by a persistent result store: every lab
    /// created through this hub reads products through the store and
    /// persists what it computes (subject to the store's
    /// [`CacheMode`](chipletqc_store::CacheMode)).
    ///
    /// Must be called before labs are created — entries already handed
    /// out keep the store configuration they were created with.
    #[must_use]
    pub fn with_store(self, store: Store) -> CacheHub {
        CacheHub { store: Some(Arc::new(store)), ..self }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The persistent store's session counters (zeros when no store is
    /// attached, so reports have a stable shape either way).
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// The store peer tier's transport counters (zeros when no store
    /// or no peer is attached, mirroring [`CacheHub::store_stats`]).
    pub fn peer_stats(&self) -> chipletqc_store::remote::PeerStats {
        self.store.as_ref().and_then(|s| s.peer_stats()).unwrap_or_default()
    }

    /// Joins the store's outstanding background writes (no-op without
    /// a store). Call before reading [`CacheHub::store_stats`] for a
    /// final tally or before another process opens the directory.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// The per-edge gate usage of the circuit `key` routes, computed
    /// at most once per hub (and read through the attached store,
    /// which persists what is computed).
    pub(crate) fn edge_usage(&self, key: &RoutingKey) -> Arc<Vec<u32>> {
        self.routings.edge_usage(key, self.store.as_deref())
    }

    /// Resolves the routings of `keys` ahead of their
    /// [`CacheHub::edge_usage`] calls, skipping keys another caller is
    /// already resolving, so concurrent scenarios share the work.
    pub(crate) fn route_all(&self, keys: &[RoutingKey]) {
        self.routings.route_all(keys, self.store.as_deref());
    }

    /// How many routings [`CacheHub::edge_usage`] actually ran — neither
    /// memoized nor served by the store. Monotonic across
    /// [`CacheHub::clear`], so per-batch deltas are differences.
    pub fn transpiles(&self) -> usize {
        self.routings.transpiles()
    }

    fn shared_for(&self, config: &LabConfig) -> Arc<SharedCaches> {
        Arc::clone(
            self.inner.lock().expect("hub poisoned").entry(config.cache_key()).or_insert_with(
                || {
                    Arc::new(SharedCaches {
                        store: self.store.clone(),
                        ..SharedCaches::default()
                    })
                },
            ),
        )
    }

    /// Aggregate fabrication counters across every cache in the hub,
    /// including campaigns whose caches [`CacheHub::clear`] has since
    /// dropped — the counters only ever grow.
    pub fn fabrication_stats(&self) -> FabricationStats {
        let inner = self.inner.lock().expect("hub poisoned");
        let mut stats = *self.retired.lock().expect("retired counters poisoned");
        for caches in inner.values() {
            stats.chiplet_fabrications += caches.chiplet_fabrications.load(Ordering::Relaxed);
            stats.mono_fabrications += caches.mono_fabrications.load(Ordering::Relaxed);
        }
        stats
    }

    /// Drops every warm in-memory product — the shared
    /// fabrication/characterization caches, the routing memo and the
    /// attached store's in-process memo — while keeping the store
    /// attachment and the cumulative fabrication and routing counters.
    ///
    /// This is the long-lived service's memory-pressure valve: the hub
    /// behaves as freshly constructed (plus any persistent store), so
    /// the next batch recomputes or re-reads from disk. Results are
    /// unaffected — cached values are pure functions of their keys.
    /// Call it between batches, not while a scheduler is running.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("hub poisoned");
        let mut retired = self.retired.lock().expect("retired counters poisoned");
        for caches in inner.values() {
            retired.chiplet_fabrications += caches.chiplet_fabrications.load(Ordering::Relaxed);
            retired.mono_fabrications += caches.mono_fabrications.load(Ordering::Relaxed);
        }
        inner.clear();
        self.routings.clear();
        if let Some(store) = &self.store {
            store.clear_memo();
        }
    }
}

/// The cached experiment pipeline.
#[derive(Debug)]
pub struct Lab {
    config: LabConfig,
    noise: NoiseModel,
    shared: Arc<SharedCaches>,
    assemblies: Mutex<BTreeMap<(usize, usize, usize), Slot<AssemblyOutcome>>>,
}

impl Lab {
    /// Creates a lab with private caches.
    pub fn new(config: LabConfig) -> Lab {
        Lab::with_shared(config, Arc::new(SharedCaches::default()))
    }

    /// Creates a lab whose fabrication/characterization caches are
    /// shared through `hub` with every other compatible lab.
    pub fn new_in(config: LabConfig, hub: &CacheHub) -> Lab {
        Lab::with_shared(config, hub.shared_for(&config))
    }

    fn with_shared(config: LabConfig, shared: Arc<SharedCaches>) -> Lab {
        let calib_seed = config.seed.split_str("calibration");
        let noise = match config.link_ratio {
            None => NoiseModel::paper(calib_seed),
            Some(ratio) => NoiseModel::with_link_ratio(calib_seed, ratio),
        };
        Lab { config, noise, shared, assemblies: Mutex::new(BTreeMap::new()) }
    }

    /// A sibling lab with a different `e_link/e_chip` ratio, sharing
    /// the fabrication and characterization caches (the Fig. 9 sweep).
    pub fn with_link_ratio(&self, ratio: f64) -> Lab {
        let config = LabConfig { link_ratio: Some(ratio), ..self.config };
        let noise =
            NoiseModel::with_link_ratio(self.config.seed.split_str("calibration"), ratio);
        Lab {
            config,
            noise,
            shared: Arc::clone(&self.shared),
            assemblies: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LabConfig {
        &self.config
    }

    /// The noise model in use.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.noise
    }

    /// How many fabrication campaigns this lab's shared caches have
    /// actually executed (shared with siblings and hub-mates).
    pub fn fabrication_stats(&self) -> FabricationStats {
        FabricationStats {
            chiplet_fabrications: self.shared.chiplet_fabrications.load(Ordering::Relaxed),
            mono_fabrications: self.shared.mono_fabrications.load(Ordering::Relaxed),
        }
    }

    /// Fabricates the raw collision-free bin for `device`, through the
    /// persistent store's chunked raw-bin entries when one is attached
    /// (identical results either way; the store only skips trials it
    /// has already seen).
    fn fabricate_raw_bin(&self, device: &Device, stream: &str, seed: Seed) -> Vec<Frequencies> {
        match &self.shared.store {
            Some(store) => store.fabricate_bin_cached(
                &self.config.trial_key(),
                stream,
                device,
                &self.config.fabrication,
                &self.config.collision,
                TrialRange::full(self.config.batch),
                seed,
                self.config.yield_workers,
            ),
            None => fabricate_collision_free_with_workers(
                device,
                &self.config.fabrication,
                &self.config.collision,
                self.config.batch,
                seed,
                self.config.yield_workers,
            ),
        }
    }

    /// The KGD-characterized collision-free bin for a chiplet design
    /// (cached; computed at most once across all sharing labs, and
    /// served whole from the persistent store when warm — skipping the
    /// fabrication campaign entirely).
    pub fn chiplet_bin(&self, chiplet: ChipletSpec) -> Arc<KgdBin> {
        let key = chiplet.num_qubits();
        let cell = slot(&self.shared.chiplet_bins, &key);
        Arc::clone(cell.get_or_init(|| {
            let cache_key = self.config.cache_key();
            if let Some(store) = &self.shared.store {
                if let Some(bin) = store.get_kgd_bin(&cache_key, key) {
                    return Arc::new(bin);
                }
            }
            self.shared.chiplet_fabrications.fetch_add(1, Ordering::Relaxed);
            let device = chiplet.build();
            let raw = self.fabricate_raw_bin(
                &device,
                &format!("chiplet-fab-{key}q"),
                self.config.seed.split_str("chiplet-fab").split(key as u64),
            );
            let bin = Arc::new(KgdBin::characterize(
                &device,
                raw,
                &self.noise,
                self.config.seed.split_str("chiplet-kgd").split(key as u64),
            ));
            if let Some(store) = &self.shared.store {
                store.put_kgd_bin(&cache_key, key, Arc::clone(&bin));
            }
            bin
        }))
    }

    /// The collision-free monolithic population at `qubits` (cached;
    /// computed at most once across all sharing labs).
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is not a positive multiple of 5.
    pub fn mono_population(&self, qubits: usize) -> Arc<MonoPopulation> {
        let cell = slot(&self.shared.mono_pops, &qubits);
        Arc::clone(cell.get_or_init(|| {
            let entry_key =
                || EntryKey::new(self.config.cache_key(), KIND_MONO_POP, format!("{qubits}q"));
            if let Some(store) = &self.shared.store {
                if let Some(payload) = store.get(&entry_key()) {
                    match chipletqc_math::codec::decode_from_slice::<MonoPopulation>(&payload) {
                        Ok(pop) => return Arc::new(pop),
                        Err(_) => store.count_invalid_payload(),
                    }
                }
            }
            self.shared.mono_fabrications.fetch_add(1, Ordering::Relaxed);
            let device = MonolithicSpec::with_qubits(qubits)
                .unwrap_or_else(|e| panic!("monolithic size {qubits}: {e}"))
                .build();
            let survivors = self.fabricate_raw_bin(
                &device,
                &format!("mono-fab-{qubits}q"),
                self.config.seed.split_str("mono-fab").split(qubits as u64),
            );
            let estimate =
                YieldEstimate { survivors: survivors.len(), batch: self.config.batch };
            let noise_seed = self.config.seed.split_str("mono-noise").split(qubits as u64);
            let members = survivors
                .into_iter()
                .enumerate()
                .map(|(i, freqs)| {
                    let mut rng = noise_seed.split(i as u64).rng();
                    let noise = self.noise.assign(&device, &freqs, &mut rng);
                    (freqs, noise)
                })
                .collect();
            let pop = Arc::new(MonoPopulation { device, estimate, members });
            if let Some(store) = &self.shared.store {
                let for_writer = Arc::clone(&pop);
                store.put_with(&entry_key(), Encoding::Binary, move || {
                    chipletqc_math::codec::encode_to_vec(&*for_writer)
                });
            }
            pop
        }))
    }

    /// Resolves the chiplet bins and monolithic populations `systems`
    /// need, skipping those another lab on the same caches has claimed.
    /// Scenarios that start together on one configuration (a link-ratio
    /// sweep) thus split the fabrication campaigns between their
    /// threads instead of queueing behind each other on every product;
    /// the products, and how many campaigns run, are unchanged.
    pub(crate) fn prepare(&self, systems: &[McmSpec]) {
        let chiplets: BTreeSet<ChipletSpec> = systems.iter().map(McmSpec::chiplet).collect();
        let sizes: BTreeSet<usize> = systems.iter().map(McmSpec::num_qubits).collect();
        let claim =
            |product| self.shared.claimed.lock().expect("claims poisoned").insert(product);
        for chiplet in chiplets {
            if claim((false, chiplet.num_qubits())) {
                self.chiplet_bin(chiplet);
            }
        }
        for qubits in sizes {
            if claim((true, qubits)) {
                self.mono_population(qubits);
            }
        }
    }

    /// The best-first assembly of `spec` from its chiplet bin (cached
    /// per lab, since module link noise depends on the link ratio).
    pub fn assemble(&self, spec: &McmSpec) -> Arc<AssemblyOutcome> {
        let key = (spec.chiplet().num_qubits(), spec.grid_rows(), spec.grid_cols());
        let cell = slot(&self.assemblies, &key);
        Arc::clone(cell.get_or_init(|| {
            let bin = self.chiplet_bin(spec.chiplet());
            Arc::new(
                Assembler::new(self.config.assembly).assemble(
                    spec,
                    &bin,
                    self.noise.link_model(),
                    self.config
                        .seed
                        .split_str("assemble")
                        .split((key.0 * 1_000_000 + key.1 * 1000 + key.2) as u64),
                ),
            )
        }))
    }

    /// The number of modules selected for comparison under the
    /// configured [`ComparisonMode`].
    ///
    /// When the monolithic counterpart has zero yield there is nothing
    /// to match against — the MCM is the only way to build the system
    /// (the paper's "red X" / unbounded-improvement case) — so the full
    /// assembled population is reported.
    pub fn selected_mcm_count(&self, assembled: usize, mono_survivors: usize) -> usize {
        match self.config.comparison {
            ComparisonMode::MatchMonolithicCount if mono_survivors > 0 => {
                assembled.min(mono_survivors)
            }
            _ => assembled,
        }
    }

    /// Runs the full MCM-vs-monolithic comparison for one
    /// configuration.
    pub fn compare(&self, spec: &McmSpec) -> SystemComparison {
        let mono = self.mono_population(spec.num_qubits());
        let outcome = self.assemble(spec);
        let selected = self.selected_mcm_count(outcome.mcms.len(), mono.estimate.survivors);
        let eavg_mcm = (selected > 0).then(|| {
            mean(&outcome.mcms[..selected].iter().map(|m| m.eavg).collect::<Vec<f64>>())
        });
        let eavg_mono = mono.mean_eavg();
        let eavg_ratio = match (eavg_mcm, eavg_mono) {
            (Some(m), Some(o)) if o > 0.0 => Some(m / o),
            _ => None,
        };
        SystemComparison {
            spec: *spec,
            mono_yield: mono.estimate,
            mcm_assembled: outcome.mcms.len(),
            mcm_population: selected,
            mono_population: mono.estimate.survivors,
            eavg_mcm,
            eavg_mono,
            eavg_ratio,
        }
    }
}

/// One MCM-vs-monolithic comparison result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemComparison {
    /// The MCM configuration compared.
    pub spec: McmSpec,
    /// Monolithic collision-free yield at the same qubit count.
    pub mono_yield: YieldEstimate,
    /// Modules assembled from the full bin.
    pub mcm_assembled: usize,
    /// Modules selected for the comparison population.
    pub mcm_population: usize,
    /// Monolithic survivor count.
    pub mono_population: usize,
    /// Mean `E_avg` of the selected modules.
    pub eavg_mcm: Option<f64>,
    /// Mean `E_avg` of the monolithic population.
    pub eavg_mono: Option<f64>,
    /// `E_avg,MCM / E_avg,Mono` (the Fig. 9 cell), `None` when either
    /// population is empty.
    pub eavg_ratio: Option<f64>,
}

impl std::fmt::Display for SystemComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: mono yield {}, {} MCMs ({} compared), Eavg ratio {}",
            self.spec,
            self.mono_yield,
            self.mcm_assembled,
            self.mcm_population,
            crate::report::fmt_ratio(self.eavg_ratio)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipletqc_noise::link::PAPER_CHIP_MEAN;

    fn quick_lab() -> Lab {
        Lab::new(LabConfig::quick())
    }

    #[test]
    fn caches_return_identical_objects() {
        let lab = quick_lab();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let a = lab.chiplet_bin(chiplet);
        let b = lab.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&a, &b));
        let p = lab.mono_population(40);
        let q = lab.mono_population(40);
        assert!(Arc::ptr_eq(&p, &q));
        let spec = McmSpec::new(chiplet, 2, 2);
        let x = lab.assemble(&spec);
        let y = lab.assemble(&spec);
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(
            lab.fabrication_stats(),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 1 }
        );
    }

    #[test]
    fn sibling_labs_share_fabrication() {
        let lab = quick_lab();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = lab.chiplet_bin(chiplet);
        let sibling = lab.with_link_ratio(1.0);
        let bin2 = sibling.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&bin, &bin2));
        assert_eq!(sibling.config().link_ratio, Some(1.0));
        // But the link models differ.
        assert!((sibling.noise_model().link_model().mean() - PAPER_CHIP_MEAN).abs() < 1e-9);
        assert!((lab.noise_model().link_model().mean() - 0.075).abs() < 1e-9);
    }

    #[test]
    fn hub_extends_sharing_to_independent_labs() {
        let hub = CacheHub::new();
        let a = Lab::new_in(LabConfig::quick(), &hub);
        let b = Lab::new_in(LabConfig::quick(), &hub);
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin_a = a.chiplet_bin(chiplet);
        let bin_b = b.chiplet_bin(chiplet);
        assert!(Arc::ptr_eq(&bin_a, &bin_b));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 1);
        // A lab whose fabrication differs must NOT share.
        let other = Lab::new_in(LabConfig::quick().with_seed(Seed(1)), &hub);
        let bin_other = other.chiplet_bin(chiplet);
        assert!(!Arc::ptr_eq(&bin_a, &bin_other));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 2);
        // Link ratio and comparison mode are cache-irrelevant.
        let ratio_lab =
            Lab::new_in(LabConfig { link_ratio: Some(2.0), ..LabConfig::quick() }, &hub);
        assert!(Arc::ptr_eq(&bin_a, &ratio_lab.chiplet_bin(chiplet)));
        assert_eq!(hub.fabrication_stats().chiplet_fabrications, 2);
    }

    #[test]
    fn concurrent_labs_fabricate_once() {
        let hub = CacheHub::new();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hub = hub.clone();
                scope.spawn(move || {
                    let lab = Lab::new_in(LabConfig::quick(), &hub);
                    let bin = lab.chiplet_bin(chiplet);
                    assert!(!bin.is_empty());
                });
            }
        });
        assert_eq!(
            hub.fabrication_stats(),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 0 }
        );
    }

    #[test]
    fn racing_prepare_splits_campaigns_without_repeating_them() {
        let hub = CacheHub::new();
        let config = LabConfig::quick().with_batch(120);
        let (c10, c20) =
            (ChipletSpec::with_qubits(10).unwrap(), ChipletSpec::with_qubits(20).unwrap());
        let systems =
            [McmSpec::new(c10, 2, 2), McmSpec::new(c10, 2, 3), McmSpec::new(c20, 1, 2)];
        std::thread::scope(|scope| {
            for ratio in [1.0, 2.5] {
                let (hub, systems) = (&hub, &systems);
                scope.spawn(move || {
                    Lab::new_in(LabConfig { link_ratio: Some(ratio), ..config }, hub)
                        .prepare(systems);
                });
            }
        });
        // Two chiplet designs, two system sizes (40 and 60 qubits).
        let once = FabricationStats { chiplet_fabrications: 2, mono_fabrications: 2 };
        assert_eq!(hub.fabrication_stats(), once);
        let lab = Lab::new_in(config, &hub);
        let plain = Lab::new(config);
        assert_eq!(*lab.mono_population(60), *plain.mono_population(60));
        assert_eq!(*lab.chiplet_bin(c20), *plain.chiplet_bin(c20));
        assert_eq!(hub.fabrication_stats(), once, "prepared products are served");
    }

    #[test]
    fn warm_store_reproduces_products_bit_identically_without_fabrication() {
        use chipletqc_store::CacheMode;
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-lab-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let chiplet = ChipletSpec::with_qubits(10).unwrap();

        // Cold: compute and persist.
        let hub = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let lab = Lab::new_in(LabConfig::quick(), &hub);
        let bin_cold = lab.chiplet_bin(chiplet);
        let pop_cold = lab.mono_population(40);
        assert_eq!(hub.fabrication_stats().total(), 2);
        assert!(hub.store_stats().writes >= 2, "{:?}", hub.store_stats());
        hub.flush_store();

        // Warm: an independent hub over the same directory recalls
        // everything and fabricates nothing.
        let hub2 = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let lab2 = Lab::new_in(LabConfig::quick(), &hub2);
        assert_eq!(*lab2.chiplet_bin(chiplet), *bin_cold);
        assert_eq!(*lab2.mono_population(40), *pop_cold);
        assert_eq!(hub2.fabrication_stats().total(), 0, "warm run must not fabricate");
        assert_eq!(hub2.store_stats().hits, 2);
        assert_eq!(hub2.store_stats().writes, 0);

        // A store-less lab agrees bit-for-bit, so persistence can
        // never change results.
        let plain = Lab::new(LabConfig::quick());
        assert_eq!(*plain.chiplet_bin(chiplet), *bin_cold);
        assert_eq!(*plain.mono_population(40), *pop_cold);

        // A different configuration shares nothing.
        let other = Lab::new_in(LabConfig::quick().with_seed(Seed(1)), &hub2);
        other.chiplet_bin(chiplet);
        assert_eq!(hub2.fabrication_stats().chiplet_fabrications, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_drops_products_but_keeps_counters_monotonic() {
        let hub = CacheHub::new();
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        let before = hub.fabrication_stats();
        assert_eq!(before.chiplet_fabrications, 1);

        hub.clear();
        assert_eq!(hub.fabrication_stats(), before, "clear keeps cumulative counters");

        // A fresh lab refabricates (no store attached) — a new object,
        // but bit-identical contents.
        let bin2 = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        assert!(!Arc::ptr_eq(&bin, &bin2), "clear must drop the cached product");
        assert_eq!(*bin, *bin2, "recomputation is bit-identical");
        let after = hub.fabrication_stats();
        assert_eq!(after.chiplet_fabrications, 2);
        assert_eq!(
            after.since(before),
            FabricationStats { chiplet_fabrications: 1, mono_fabrications: 0 },
            "per-batch deltas survive a reset"
        );
        assert_eq!(FabricationStats::default().since(after), FabricationStats::default());
    }

    #[test]
    fn clear_with_store_rereads_from_disk_instead_of_fabricating() {
        use chipletqc_store::CacheMode;
        let dir = std::env::temp_dir()
            .join(format!("chipletqc-lab-clear-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = CacheHub::new().with_store(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let chiplet = ChipletSpec::with_qubits(10).unwrap();
        let bin = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        hub.flush_store();
        let snapshot = (hub.fabrication_stats(), hub.store_stats());

        hub.clear();
        let bin2 = Lab::new_in(LabConfig::quick(), &hub).chiplet_bin(chiplet);
        assert_eq!(*bin, *bin2);
        assert_eq!(
            hub.fabrication_stats().since(snapshot.0).total(),
            0,
            "the store still serves the product after a reset"
        );
        assert!(hub.store_stats().since(snapshot.1).hits >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mono_population_codec_round_trips() {
        use chipletqc_math::codec::{decode_from_slice, encode_to_vec};
        let pop = quick_lab().mono_population(40);
        let bytes = encode_to_vec(&*pop);
        let decoded: MonoPopulation = decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, *pop);
        assert!(decode_from_slice::<MonoPopulation>(&bytes[..bytes.len() - 5]).is_err());
        // A tampered survivor count fails validation.
        let mut w = chipletqc_math::codec::ByteWriter::new();
        w.put_usize(40);
        YieldEstimate { survivors: pop.estimate.survivors + 1, batch: pop.estimate.batch }
            .encode(&mut w);
        w.put_seq(&pop.members);
        assert!(decode_from_slice::<MonoPopulation>(&w.into_bytes()).is_err());
    }

    #[test]
    fn mono_population_members_match_yield() {
        let lab = quick_lab();
        let pop = lab.mono_population(40);
        assert_eq!(pop.members.len(), pop.estimate.survivors);
        assert!(pop.estimate.survivors > 0, "40q yield should be healthy");
        assert!(pop.mean_eavg().unwrap() > 0.001);
        for (freqs, noise) in &pop.members {
            assert_eq!(freqs.len(), 40);
            assert_eq!(noise.len(), pop.device.edges().len());
        }
    }

    #[test]
    fn compare_produces_sane_ratio_for_small_system() {
        let lab = quick_lab();
        let spec = McmSpec::new(ChipletSpec::with_qubits(10).unwrap(), 2, 2);
        let cmp = lab.compare(&spec);
        assert!(cmp.mcm_population > 0);
        assert!(cmp.mono_population > 0);
        let ratio = cmp.eavg_ratio.expect("both populations nonempty");
        assert!(ratio > 0.5 && ratio < 3.0, "ratio {ratio}");
        assert!(!cmp.to_string().is_empty());
    }

    #[test]
    fn match_mode_caps_population() {
        let lab = quick_lab();
        assert_eq!(lab.selected_mcm_count(100, 7), 7);
        assert_eq!(lab.selected_mcm_count(5, 7), 5);
        // Zero-yield monolithic counterpart: report all modules.
        assert_eq!(lab.selected_mcm_count(100, 0), 100);
        let all = Lab::new(LabConfig {
            comparison: ComparisonMode::AllAssembled,
            ..LabConfig::quick()
        });
        assert_eq!(all.selected_mcm_count(100, 7), 100);
    }

    #[test]
    fn equal_link_error_gives_mcm_advantage_on_large_systems() {
        // The Fig. 9(d) mechanism at reduced scale: with links as good
        // as on-chip couplers and far more modules than monolithic
        // survivors, the best-module population beats the monolithic
        // average.
        let lab = Lab::new(LabConfig::quick().with_batch(600)).with_link_ratio(1.0);
        let spec = McmSpec::new(ChipletSpec::with_qubits(20).unwrap(), 3, 3);
        let cmp = lab.compare(&spec);
        if let Some(ratio) = cmp.eavg_ratio {
            assert!(ratio < 1.05, "expected MCM advantage, ratio {ratio}");
        } else {
            // 180q monolithic can hit zero yield at this batch; then the
            // comparison is undefined (the paper's "X" case).
            assert_eq!(cmp.mono_population, 0);
        }
    }
}
