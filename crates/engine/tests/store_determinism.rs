//! The result store's load-bearing contract, pinned end to end:
//!
//! 1. **Cache transparency** — a batch's `RunReport` serializes to
//!    byte-identical JSON for a cold store, a warm store, and no store
//!    at all, apart from the two counter objects (`store`, and
//!    `fabrication`, which a warm store drives to zero);
//! 2. **Warm runs skip fabrication entirely** — the second run over a
//!    shared cache directory executes zero fabrication campaigns;
//! 3. both hold at every tested `(workers, shards)` pair, and across
//!    *different* shard counts against the same directory (the
//!    merge-on-read interop);
//! 4. **Routing is paid once** — a Fig. 10 link-ratio pair routes each
//!    distinct (benchmark, device) circuit once cold, and not at all
//!    warm.

use std::collections::BTreeSet;

use chipletqc::experiments::fig10::Fig10Config;
use chipletqc::lab::CacheHub;
use chipletqc_engine::report::{strip_counter_objects, RunReport};
use chipletqc_engine::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};
use chipletqc_engine::scheduler::Scheduler;
use chipletqc_engine::sweep::Sweep;
use chipletqc_store::{CacheMode, Store};

/// Two fig8 scenarios (one a two-system group) plus a trial-ranged
/// output-gain scenario: every persisted product kind — KGD bins,
/// monolithic populations, raw-bin chunks, tally chunks — is on the
/// path.
fn batch() -> Vec<Scenario> {
    let mut scenarios = Sweep::parse(
        "name = sd\n\
         kind = fig8\n\
         scale = quick\n\
         grid = 10q2x2, 10q2x3+10q3x3\n\
         batch = 120\n\
         seed = 7\n",
    )
    .expect("sweep parses")
    .expand();
    scenarios.push(Scenario {
        name: "gain".into(),
        kind: ExperimentKind::OutputGain,
        scale: Scale::Quick,
        overrides: Overrides { batch: Some(120), ..Overrides::default() },
    });
    // A scenario with a second cache key (different seed), so the test
    // also covers store isolation between configurations.
    scenarios.push(Scenario {
        name: "other-seed".into(),
        kind: ExperimentKind::Fig8,
        scale: Scale::Quick,
        overrides: Overrides {
            batch: Some(120),
            seed: Some(8),
            systems: Some(vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]),
            ..Overrides::default()
        },
    });
    scenarios
}

/// Runs the batch and returns the full report JSON plus the counters.
fn run(workers: usize, shards: usize, hub: &CacheHub) -> (String, usize, u64, u64) {
    let results = Scheduler::new(workers).with_shards(shards).run(&batch(), hub);
    hub.flush_store();
    let fabrication = hub.fabrication_stats().total();
    let store = hub.store_stats();
    let json = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .to_json();
    (json, fabrication, store.hits, store.writes)
}

/// Removes the two top-level counter objects — exactly the fields the
/// store is allowed to affect — via the engine's shared helper.
fn strip_counters(json: &str) -> String {
    strip_counter_objects(json)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("chipletqc-store-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cold_warm_and_off_reports_agree_modulo_counters_at_every_schedule() {
    // The store-less baseline.
    let (off_json, off_fabrications, _, _) = run(2, 1, &CacheHub::new());
    assert!(off_fabrications > 0);

    for (workers, shards) in [(1, 1), (2, 3)] {
        let dir = temp_dir(&format!("w{workers}s{shards}"));

        let cold_hub = CacheHub::new()
            .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
        let (cold_json, cold_fabrications, cold_hits, cold_writes) =
            run(workers, shards, &cold_hub);
        assert_eq!(
            cold_fabrications, off_fabrications,
            "a cold store must not change how much work runs"
        );
        assert_eq!(cold_hits, 0);
        assert!(cold_writes > 0, "cold run must persist its products");

        // Warm run — same directory, and a *different* shard count
        // than the cold run, so reuse must survive resharding.
        let warm_hub = CacheHub::new()
            .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
        let (warm_json, warm_fabrications, warm_hits, _) =
            run(workers, shards.max(2) + 1, &warm_hub);
        assert_eq!(
            warm_fabrications, 0,
            "warm run at ({workers}, {shards}) must skip fabrication entirely"
        );
        assert!(warm_hits > 0);

        // Byte-identical apart from the counter objects.
        assert_eq!(
            strip_counters(&cold_json),
            strip_counters(&off_json),
            "cold vs off diverged at ({workers}, {shards})"
        );
        assert_eq!(
            strip_counters(&warm_json),
            strip_counters(&off_json),
            "warm vs off diverged at ({workers}, {shards})"
        );
        // And the counters themselves do differ (misses vs hits), so
        // the stripping above is load-bearing.
        assert_ne!(cold_json, warm_json);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn read_mode_serves_hits_but_never_writes_and_off_matches() {
    let dir = temp_dir("modes");
    let cold_hub = CacheHub::new()
        .with_store(Store::open(&dir, CacheMode::ReadWrite).expect("open store"));
    let (baseline, _, _, _) = run(2, 1, &cold_hub);

    let read_hub =
        CacheHub::new().with_store(Store::open(&dir, CacheMode::Read).expect("open store"));
    let (read_json, read_fabrications, read_hits, read_writes) = run(2, 1, &read_hub);
    assert_eq!(read_fabrications, 0, "read mode still serves warm products");
    assert!(read_hits > 0);
    assert_eq!(read_writes, 0, "read mode must not write");
    assert_eq!(strip_counters(&read_json), strip_counters(&baseline));

    // Write mode recomputes everything and refreshes the entries.
    let write_hub =
        CacheHub::new().with_store(Store::open(&dir, CacheMode::Write).expect("open store"));
    let (write_json, write_fabrications, write_hits, write_writes) = run(2, 1, &write_hub);
    assert!(write_fabrications > 0, "write mode never trusts existing entries");
    assert_eq!(write_hits, 0);
    assert!(write_writes > 0);
    assert_eq!(strip_counters(&write_json), strip_counters(&baseline));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Fig. 10 systems the reduced pair below keeps.
const FIG10_MAX_QUBITS: usize = 60;

/// A reduced quick Fig. 10 pair at link ratios 1 and 2.5: the
/// `linkratio_sweep` shape, on few systems.
fn fig10_pair() -> Vec<Scenario> {
    [1.0, 2.5]
        .into_iter()
        .map(|ratio| Scenario {
            name: format!("fig10-r{ratio}"),
            kind: ExperimentKind::Fig10,
            scale: Scale::Quick,
            overrides: Overrides {
                batch: Some(120),
                link_ratio: Some(ratio),
                max_system_qubits: Some(FIG10_MAX_QUBITS),
                ..Overrides::default()
            },
        })
        .collect()
}

/// Runs the pair and returns the report JSON (with the routing count)
/// and the routings run.
fn run_fig10(workers: usize, shards: usize, hub: &CacheHub) -> (String, usize) {
    let before = hub.transpiles();
    let results = Scheduler::new(workers).with_shards(shards).run(&fig10_pair(), hub);
    hub.flush_store();
    let transpiles = hub.transpiles() - before;
    let json = RunReport::from_results(
        &results,
        hub.fabrication_stats(),
        hub.store_stats(),
        hub.peer_stats(),
    )
    .with_transpiles(transpiles)
    .to_json();
    (json, transpiles)
}

#[test]
fn fig10_ratio_pair_routes_each_circuit_once_cold_and_never_warm() {
    let config = Fig10Config::quick();
    let systems: Vec<_> =
        config.systems.iter().filter(|s| s.num_qubits() <= FIG10_MAX_QUBITS).collect();
    let sizes: BTreeSet<usize> = systems.iter().map(|s| s.num_qubits()).collect();
    assert!(systems.len() >= 2 && sizes.len() < systems.len(), "{systems:?}");
    // One MCM routing per system and one monolithic routing per size,
    // per benchmark — shared by both ratios and by every shard.
    let distinct = config.benchmarks.len() * (systems.len() + sizes.len());

    let (off_json, off_transpiles) = run_fig10(2, 1, &CacheHub::new());
    assert_eq!(off_transpiles, distinct, "the memo alone routes each pair once");

    let dir = temp_dir("fig10");
    let open = || Store::open(&dir, CacheMode::ReadWrite).expect("open store");
    let (cold_json, cold_transpiles) = run_fig10(2, 3, &CacheHub::new().with_store(open()));
    assert_eq!(cold_transpiles, distinct, "not once per ratio or shard");
    assert!(cold_json.contains(&format!("\"transpiles\": {distinct}")));

    let warm_hub = CacheHub::new().with_store(open());
    let (warm_json, warm_transpiles) = run_fig10(1, 1, &warm_hub);
    assert_eq!(warm_transpiles, 0, "a warm store serves every routing");
    assert!(warm_json.contains("\"transpiles\": 0"));
    assert_eq!(warm_hub.fabrication_stats().total(), 0);

    // Reports, artifacts included, agree byte for byte apart from the
    // counter objects.
    assert_eq!(strip_counters(&cold_json), strip_counters(&off_json));
    assert_eq!(strip_counters(&warm_json), strip_counters(&off_json));
    let _ = std::fs::remove_dir_all(&dir);
}
