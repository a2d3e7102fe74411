//! The traced replays of `paper_suite` and `linkratio_sweep`.
//!
//! Each first runs the workload once untraced through the engine's
//! scheduler (the wall clock the spans are held against), then replays
//! it by calling the layers' public functions in the order the
//! experiments call them, timing each call here. Nothing inside the
//! engine is instrumented. The replayed Fig. 10 data must equal the
//! engine's, and the replay's fabrication campaigns must equal the
//! engine's, or the run is reported as wrong.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use chipletqc::chipletqc_benchmarks::suite::Benchmark;
use chipletqc::chipletqc_collision::checker::is_collision_free;
use chipletqc::chipletqc_collision::criteria::CollisionParams;
use chipletqc::chipletqc_math::logspace::{ln_to_log10, mean_ln};
use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::chipletqc_store::{CacheMode, Store};
use chipletqc::chipletqc_topology::device::Device;
use chipletqc::chipletqc_topology::family::MonolithicSpec;
use chipletqc::chipletqc_topology::mcm::McmSpec;
use chipletqc::chipletqc_transpile::esp::{edge_usage, esp_from_usage};
use chipletqc::chipletqc_yield::fabrication::FabricationParams;
use chipletqc::chipletqc_yield::sweep::step_sigma_sweep;
use chipletqc::experiments::fig10::{
    Fig10Config, Fig10Data, Fig10Point, Fig10Row, RatioOutcome,
};
use chipletqc::experiments::fig4::Fig4Config;
use chipletqc::experiments::fig8::Fig8Config;
use chipletqc::experiments::fig9::Fig9Config;
use chipletqc::experiments::table2::Table2Config;
use chipletqc::lab::{CacheHub, Lab, LabConfig};
use chipletqc::report::Json;
use chipletqc_engine::protocol::Submission;
use chipletqc_engine::scenario::{ExperimentData, Scale};

use crate::util::{local_run, Args, LocalRun, ReadMeter, Spans};

/// Layer spans that are slices of the workload's own work (the
/// collision probe is extra sampling, so it is left out of coverage).
/// Lab spans include any store reads they make.
const WORK_SPANS: [&str; 6] = [
    "yield.simulate",
    "lab.chiplet_bin",
    "lab.mono_population",
    "assembly.assemble",
    "transpile",
    "esp",
];

/// Counters the replay observes beside its spans.
#[derive(Debug, Default)]
struct Work {
    yield_trials: u64,
    yield_survivors: u64,
    modules: u64,
    swaps: u64,
    esp_scores: u64,
}

/// The devices fabrication campaigns for `systems` check: each distinct
/// chiplet design and each distinct monolithic size.
pub fn probe_devices(systems: &[McmSpec]) -> Result<Vec<Device>, String> {
    let mut devices = Vec::new();
    for chiplet in systems.iter().map(McmSpec::chiplet).collect::<BTreeSet<_>>() {
        devices.push(chiplet.build());
    }
    for qubits in systems.iter().map(McmSpec::num_qubits).collect::<BTreeSet<_>>() {
        let spec =
            MonolithicSpec::with_qubits(qubits).map_err(|e| format!("mono {qubits}: {e}"))?;
        devices.push(spec.build());
    }
    Ok(devices)
}

/// Times `samples` collision checks per device on fresh fabrication
/// samples — the check fabrication campaigns run once per trial.
pub fn collision_probe(
    spans: &mut Spans,
    devices: &[Device],
    fab: &FabricationParams,
    params: &CollisionParams,
    samples: usize,
    seed: u64,
) {
    let mut rng = Seed(seed).split_str("perfbench-collision").rng();
    for device in devices {
        for _ in 0..samples {
            let freqs = fab.sample(device, &mut rng);
            let free =
                spans.time("collision.check", || is_collision_free(device, &freqs, params));
            std::hint::black_box(free);
        }
    }
}

/// Fabricates (or reads from the store) every chiplet bin and
/// monolithic population `systems` need, one timed call each.
pub fn lab_products(spans: &mut Spans, lab: &Lab, systems: &[McmSpec]) {
    let chiplets: BTreeSet<_> = systems.iter().map(McmSpec::chiplet).collect();
    for chiplet in chiplets {
        spans.time("lab.chiplet_bin", || lab.chiplet_bin(chiplet));
    }
    let sizes: BTreeSet<usize> = systems.iter().map(McmSpec::num_qubits).collect();
    for qubits in sizes {
        spans.time("lab.mono_population", || lab.mono_population(qubits));
    }
}

fn assemble_all(spans: &mut Spans, work: &mut Work, lab: &Lab, systems: &[McmSpec]) {
    for spec in systems {
        let outcome = spans.time("assembly.assemble", || lab.assemble(spec));
        work.modules += outcome.mcms.len() as u64;
    }
}

/// `fig10::run_in`, call for call, with the transpile and ESP calls
/// timed.
fn fig10_replay(
    spans: &mut Spans,
    work: &mut Work,
    lab: &Lab,
    config: &Fig10Config,
) -> Fig10Data {
    let mut mono_usage: BTreeMap<(usize, Benchmark), Vec<u32>> = BTreeMap::new();
    let mut rows: Vec<Fig10Row> = config
        .benchmarks
        .iter()
        .map(|b| Fig10Row { benchmark: *b, points: Vec::new() })
        .collect();
    for spec in &config.systems {
        let qubits = spec.num_qubits();
        let mcm_device = spec.build();
        let mono_pop = lab.mono_population(qubits);
        let outcome = spans.time("assembly.assemble", || lab.assemble(spec));
        work.modules += outcome.mcms.len() as u64;
        let selected = lab.selected_mcm_count(outcome.mcms.len(), mono_pop.estimate.survivors);
        for (bi, &benchmark) in config.benchmarks.iter().enumerate() {
            let circuit = benchmark.for_device_qubits(qubits, config.circuit_seed);
            let mcm_compiled =
                spans.time("transpile", || config.transpiler.transpile(&circuit, &mcm_device));
            work.swaps += mcm_compiled.swaps as u64;
            let mcm_lns: Vec<f64> = spans.time("esp", || {
                let usage = edge_usage(&mcm_compiled.physical, &mcm_device);
                outcome.mcms[..selected]
                    .iter()
                    .map(|m| esp_from_usage(&usage, &m.noise).ln())
                    .collect()
            });
            work.esp_scores += selected as u64;
            if !mono_usage.contains_key(&(qubits, benchmark)) {
                let compiled = spans.time("transpile", || {
                    config.transpiler.transpile(&circuit, &mono_pop.device)
                });
                work.swaps += compiled.swaps as u64;
                let usage =
                    spans.time("esp", || edge_usage(&compiled.physical, &mono_pop.device));
                mono_usage.insert((qubits, benchmark), usage);
            }
            let mono_use = &mono_usage[&(qubits, benchmark)];
            let mono_lns: Vec<f64> = spans.time("esp", || {
                mono_pop
                    .members
                    .iter()
                    .map(|(_, noise)| esp_from_usage(mono_use, noise).ln())
                    .collect()
            });
            work.esp_scores += mono_pop.members.len() as u64;
            let mcm_esp_log10 = (!mcm_lns.is_empty()).then(|| ln_to_log10(mean_ln(&mcm_lns)));
            let mono_esp_log10 =
                (!mono_lns.is_empty()).then(|| ln_to_log10(mean_ln(&mono_lns)));
            let outcome = match (mcm_esp_log10, mono_esp_log10) {
                (Some(m), Some(o)) => RatioOutcome::Finite(m - o),
                (Some(_), None) => RatioOutcome::MonolithicImpossible,
                _ => RatioOutcome::McmUnavailable,
            };
            rows[bi].points.push(Fig10Point {
                spec: *spec,
                mcm_esp_log10,
                mono_esp_log10,
                outcome,
            });
        }
    }
    Fig10Data { rows }
}

fn fig10_config(scale: Scale, link_ratio: Option<f64>) -> Fig10Config {
    let mut config = match scale {
        Scale::Paper => Fig10Config::paper(),
        Scale::Quick => Fig10Config::quick(),
    };
    config.lab.link_ratio = link_ratio;
    config
}

/// The engine's Fig. 10 data for the scenario with `link_ratio`.
fn engine_fig10(run: &LocalRun, link_ratio: Option<f64>) -> Option<&Fig10Data> {
    run.results.iter().find_map(|r| match &r.data {
        ExperimentData::Fig10(data) if r.scenario.overrides.link_ratio == link_ratio => {
            Some(data)
        }
        _ => None,
    })
}

/// A replay lab: the figure's configuration, fabricating on one thread
/// so its spans are comparable with the scheduler's per-scenario time.
fn replay_lab(config: LabConfig, hub: &CacheHub) -> Lab {
    Lab::new_in(config.with_yield_workers(Some(1)), hub)
}

fn layer_metrics(spans: &Spans, work: &Work, hub: &CacheHub, untraced: &LocalRun) -> Json {
    let campaigns = hub.fabrication_stats();
    Json::obj()
        .field("yield.simulate_s", spans.secs("yield.simulate"))
        .field("yield.trials", work.yield_trials)
        .field(
            "yield.survivor_ratio",
            if work.yield_trials == 0 {
                0.0
            } else {
                work.yield_survivors as f64 / work.yield_trials as f64
            },
        )
        .field("collision.check_ns", spans.mean_us("collision.check") * 1e3)
        .field("collision.checks", spans.calls("collision.check"))
        .field("lab.chiplet_bin_s", spans.secs("lab.chiplet_bin"))
        .field("lab.mono_population_s", spans.secs("lab.mono_population"))
        .field("lab.chiplet_campaigns", campaigns.chiplet_fabrications as u64)
        .field("lab.mono_campaigns", campaigns.mono_fabrications as u64)
        .field("assembly.assemble_s", spans.secs("assembly.assemble"))
        .field("assembly.modules", work.modules)
        .field("transpile.busy_s", spans.secs("transpile"))
        .field("transpile.calls", spans.calls("transpile"))
        .field("transpile.swaps", work.swaps)
        .field("esp.busy_s", spans.secs("esp"))
        .field("esp.scores", work.esp_scores)
        .field("scheduler.utilization", untraced.utilization())
        .field("report.to_json_us", spans.mean_us("report.to_json"))
        .field("trace.coverage", spans.total_secs(&WORK_SPANS) / untraced.busy_secs().max(1e-9))
        .field("spans", spans.table())
}

/// `paper_suite`, traced: the figure suite once through the scheduler,
/// then Monte Carlo yield, fabrication, assembly, transpile and ESP
/// replayed layer by layer.
pub fn paper_suite(args: &Args) -> Result<Json, String> {
    let scale = args.scale()?;
    let seed: u64 = args.num("seed")?;
    let engine_hub = CacheHub::new();
    let submission = Submission { scale: Some(scale), ..Submission::default() };
    let untraced = local_run(&submission, 2, &engine_hub)?;

    let mut spans = Spans::default();
    let mut work = Work::default();
    for _ in 0..5 {
        spans.time("report.to_json", || untraced.report(&engine_hub).to_json());
    }

    let fig4 = match scale {
        Scale::Paper => Fig4Config::paper(),
        Scale::Quick => Fig4Config::quick(),
    };
    let curves = spans.time("yield.simulate", || {
        step_sigma_sweep(
            &fig4.steps,
            &fig4.sigmas,
            &fig4.sizes,
            &fig4.collision,
            fig4.batch,
            fig4.seed,
        )
    });
    for estimate in curves.iter().flat_map(|c| &c.estimates) {
        work.yield_trials += estimate.batch as u64;
        work.yield_survivors += estimate.survivors as u64;
    }

    let (fig8, fig9, table2) = match scale {
        Scale::Paper => (Fig8Config::paper(), Fig9Config::paper(), Table2Config::paper()),
        Scale::Quick => (Fig8Config::quick(), Fig9Config::quick(), Table2Config::quick()),
    };
    let fig10 = fig10_config(scale, None);
    let hub = CacheHub::new();

    let lab8 = replay_lab(fig8.lab, &hub);
    lab_products(&mut spans, &lab8, &fig8.systems);
    assemble_all(&mut spans, &mut work, &lab8, &fig8.systems);

    let lab9 = replay_lab(fig9.lab, &hub);
    lab_products(&mut spans, &lab9, &fig9.systems);
    for &ratio in &fig9.ratios {
        assemble_all(&mut spans, &mut work, &lab9.with_link_ratio(ratio), &fig9.systems);
    }

    let lab10 = replay_lab(fig10.lab, &hub);
    lab_products(&mut spans, &lab10, &fig10.systems);
    let data = fig10_replay(&mut spans, &mut work, &lab10, &fig10);
    let fig10_matches = engine_fig10(&untraced, None) == Some(&data);

    for spec in &table2.systems {
        let device = spec.build();
        for &benchmark in &table2.benchmarks {
            let circuit = benchmark.for_device_qubits(spec.num_qubits(), table2.circuit_seed);
            let compiled =
                spans.time("transpile", || table2.transpiler.transpile(&circuit, &device));
            work.swaps += compiled.swaps as u64;
        }
    }

    let systems: Vec<McmSpec> = fig8.systems.iter().chain(&fig10.systems).copied().collect();
    let devices = probe_devices(&systems)?;
    let samples = if scale == Scale::Paper { 100 } else { 20 };
    collision_probe(
        &mut spans,
        &devices,
        &fig8.lab.fabrication,
        &fig8.lab.collision,
        samples,
        seed,
    );

    let campaigns_match = hub.fabrication_stats() == engine_hub.fabrication_stats();
    let layers = layer_metrics(&spans, &work, &hub, &untraced);
    Ok(Json::obj()
        .field("correct", fig10_matches && campaigns_match)
        .field("fig10_matches_engine", fig10_matches)
        .field("campaigns_match_engine", campaigns_match)
        .field("untraced_wall_s", untraced.elapsed.as_secs_f64())
        .field("layers", layers))
}

/// `linkratio_sweep`, traced: warm a store with the sweep, run it warm
/// through the scheduler, then replay both ratios layer by layer
/// against a freshly opened handle on the same warm store.
pub fn linkratio_sweep(args: &Args) -> Result<Json, String> {
    let scale = args.scale()?;
    let dir = Path::new(args.get("dir")?).join("store");
    let open =
        || Store::open(&dir, CacheMode::ReadWrite).map_err(|e| format!("open store: {e}"));
    let submission =
        Submission { sweep_text: Some(linkratio_sweep_text(scale)), ..Submission::default() };

    let cold = local_run(&submission, 2, &CacheHub::new().with_store(open()?))?;
    let engine_hub = CacheHub::new().with_store(open()?);
    let untraced = local_run(&submission, 2, &engine_hub)?;
    let warm_matches = untraced.stripped == cold.stripped;

    let mut spans = Spans::default();
    let mut work = Work::default();
    for _ in 0..5 {
        spans.time("report.to_json", || untraced.report(&engine_hub).to_json());
    }
    let gets = chipletqc_obs::histogram("store.get.local");
    let get_us_before = gets.summary().sum_us;
    let hub = CacheHub::new().with_store(open()?);
    let mut fig10_matches = true;
    let mut bytes_read = 0;
    for ratio in LINK_RATIOS {
        let config = fig10_config(scale, Some(ratio));
        let lab = replay_lab(config.lab, &hub);
        // The store's reads are the lab's products, fetched here: the
        // bytes this process reads meanwhile are the store's.
        let reads = ReadMeter::start()?;
        lab_products(&mut spans, &lab, &config.systems);
        bytes_read += reads.bytes()?;
        let data = fig10_replay(&mut spans, &mut work, &lab, &config);
        fig10_matches &= engine_fig10(&untraced, Some(ratio)) == Some(&data);
    }
    let get_s = (gets.summary().sum_us - get_us_before) as f64 / 1e6;

    let no_campaigns =
        hub.fabrication_stats().total() == 0 && engine_hub.fabrication_stats().total() == 0;
    let layers = layer_metrics(&spans, &work, &hub, &untraced)
        .field("store.get_s", get_s)
        .field("store.bytes_read", bytes_read)
        .field("store.hits", hub.store_stats().hits);
    Ok(Json::obj()
        .field("correct", warm_matches && fig10_matches && no_campaigns)
        .field("warm_matches_cold", warm_matches)
        .field("fig10_matches_engine", fig10_matches)
        .field("no_campaigns", no_campaigns)
        .field("untraced_wall_s", untraced.elapsed.as_secs_f64())
        .field("layers", layers))
}

/// The sweep's link ratios, as in its text below.
const LINK_RATIOS: [f64; 2] = [1.0, 2.5];

fn linkratio_sweep_text(scale: Scale) -> String {
    format!("name = linkratio\nkind = fig10\nscale = {}\nlink_ratio = 1, 2.5\n", scale.name())
}
