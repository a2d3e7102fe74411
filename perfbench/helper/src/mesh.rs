//! `mesh_sweep`: one coordinator calling `run_mesh` on the chiplet
//! grid sweep across two mesh-worker daemons, back to back.
//!
//! The workload seed picks a few orderings of the
//! sweep's axis values and of the worker list, which the runs cycle
//! through in a seed-chosen rotation; each ordering's merged
//! report is checked against a local `Scheduler::run` of the same
//! sweep text.

use std::time::{Duration, Instant};

use chipletqc::chipletqc_store::remote::PeerStats;
use chipletqc::chipletqc_store::StoreStats;
use chipletqc::lab::{CacheHub, FabricationStats};
use chipletqc::report::Json;
use chipletqc_engine::mesh::{
    decode_pieces, encode_pieces, merge_report, outcome_from_results, partition, run_mesh,
    MeshConfig,
};
use chipletqc_engine::protocol::{Request, Response, Submission};
use chipletqc_engine::service::{request_endpoint, Endpoint};

use crate::util::{local_run, ms, read_token, stripped, Args, LocalRun, Rng, Spans};

/// Orderings of the sweep a run draws from.
const VARIANTS: u64 = 4;

/// Axes whose value order the seed permutes. The grid axis is
/// outermost in the expansion, so keeping its order keeps each work
/// unit's system sizes, and with them the run's critical path.
const PERMUTED_AXES: [&str; 3] = ["link_ratio", "sigma_f", "seed"];

/// Codec and merge repetitions per ordering in the traced run.
const CODEC_REPS: usize = 20;

struct Setup {
    workers: Vec<String>,
    token: String,
    sweeps: Vec<String>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let workers: Vec<String> = args.get("workers")?.split(',').map(str::to_string).collect();
    let token = read_token(args.get("token-file")?)?;
    let path = args.get("sweep")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let seed: u64 = args.num("seed")?;
    let sweeps = (0..VARIANTS).map(|v| permuted(&text, &mut Rng::new(seed, 100 + v))).collect();
    Ok(Setup { workers, token, sweeps })
}

/// `text` with the values of every permuted axis line shuffled.
fn permuted(text: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.split_once('=') {
            Some((key, values)) if PERMUTED_AXES.contains(&key.trim()) => {
                let mut values: Vec<&str> = values.split(',').map(str::trim).collect();
                rng.shuffle(&mut values);
                out.push_str(&format!("{} = {}\n", key.trim(), values.join(", ")));
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

fn submission(sweep: &str) -> Submission {
    Submission { sweep_text: Some(sweep.to_string()), ..Submission::default() }
}

fn config(setup: &Setup, variant: usize) -> MeshConfig {
    let mut workers = setup.workers.clone();
    let shift = variant % workers.len().max(1);
    workers.rotate_left(shift);
    MeshConfig::new(workers, setup.token.clone())
}

/// Set-up: the sweep submitted straight to each worker, so both hubs
/// hold every product any ordering needs, then one mesh run.
pub fn warm(args: &Args) -> Result<Json, String> {
    let setup = setup(args)?;
    for addr in &setup.workers {
        let endpoint = Endpoint::Tcp { addr: addr.clone(), token: setup.token.clone() };
        let sub = Submission { workers: Some(1), ..submission(&setup.sweeps[0]) };
        match request_endpoint(&endpoint, &Request::Submit(sub)) {
            Ok(Response::Report { .. }) => {}
            Ok(other) => return Err(format!("warm-up of {addr} answered with {other:?}")),
            Err(e) => return Err(format!("warm-up of {addr}: {e}")),
        }
    }
    run_mesh(&submission(&setup.sweeps[0]), &config(&setup, 0))?;
    Ok(Json::obj().field("warm", true))
}

/// The measured window plus the output checks.
pub fn run(args: &Args) -> Result<Json, String> {
    let setup = setup(args)?;
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let references: Vec<LocalRun> = setup
        .sweeps
        .iter()
        .map(|sweep| local_run(&submission(sweep), 2, &CacheHub::new()))
        .collect::<Result<_, _>>()?;

    let mut latencies = Vec::new();
    let (mut transport, mut mismatches, mut units, mut retries) = (0u64, 0u64, 0u64, 0u64);
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // Every ordering equally often, in a seed-chosen rotation.
    let mut rotation: Vec<usize> = (0..VARIANTS as usize).collect();
    Rng::new(seed, 5000).shuffle(&mut rotation);
    let mut index = 0;
    while started.elapsed() < window {
        let variant = rotation[index % rotation.len()];
        index += 1;
        let op_started = Instant::now();
        let outcome = run_mesh(&submission(&setup.sweeps[variant]), &config(&setup, variant));
        latencies.push(ms(op_started.elapsed()));
        match outcome {
            Ok(run) => {
                units += run.summary.units as u64;
                retries += run.summary.retries;
                if stripped(&run.report.to_json()).as_ref()
                    != Some(&references[variant].stripped)
                {
                    mismatches += 1;
                }
            }
            Err(error) => {
                eprintln!("mesh run failed: {error}");
                transport += 1;
            }
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    let runs = latencies.len() as u64;
    let mut out = Json::obj()
        .field("ops", runs)
        .field(
            "failures",
            Json::obj().field("mesh_run", transport).field("mismatch", mismatches),
        )
        .field("units", units)
        .field("retries", retries)
        .field("window_s", window_s)
        .field("latencies_ms", Json::Arr(latencies.iter().map(|&ms| Json::from(ms)).collect()))
        .field("ops_per_s", runs as f64 / window_s);
    if args.has("trace") {
        let units_per_run = units / runs.max(1);
        let mean_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        out =
            out.field("layers", layers(&references, units_per_run as usize, retries, mean_ms)?);
    }
    Ok(out)
}

/// The pieces codec and the merge, replayed on each ordering's local
/// results split into the mesh's units.
fn layers(
    references: &[LocalRun],
    units: usize,
    retries: u64,
    mean_run_ms: f64,
) -> Result<Json, String> {
    let mut spans = Spans::default();
    for reference in references {
        let ranges = partition(reference.results.len(), units);
        for _ in 0..CODEC_REPS {
            let mut outcomes = Vec::with_capacity(ranges.len());
            for range in &ranges {
                let outcome = outcome_from_results(
                    &reference.results[range.clone()],
                    FabricationStats::default(),
                    StoreStats::default(),
                    PeerStats::default(),
                );
                let text = spans.time("mesh.encode", || encode_pieces(&outcome));
                let decoded = spans.time("mesh.decode", || decode_pieces(&text));
                outcomes.push(decoded.map_err(|e| format!("decode pieces: {e}"))?);
            }
            let merged =
                spans.time("mesh.merge", || merge_report(&reference.scenarios, outcomes))?;
            if stripped(&merged.to_json()).as_ref() != Some(&reference.stripped) {
                return Err("replayed merge differs from the local report".into());
            }
        }
    }
    let reps = (references.len() * CODEC_REPS).max(1) as f64;
    let codec_us = (spans.secs("mesh.encode") + spans.secs("mesh.decode")) * 1e6 / reps;
    let merge_us = spans.secs("mesh.merge") * 1e6 / reps;
    let busy: f64 = references.iter().map(LocalRun::busy_secs).sum();
    let elapsed: f64 =
        references.iter().map(|r| r.elapsed.as_secs_f64() * r.workers as f64).sum();
    Ok(Json::obj()
        .field("mesh.units", units as u64)
        .field("mesh.retries", retries)
        .field("mesh.codec_us", codec_us)
        .field("mesh.merge_us", merge_us)
        .field("scheduler.utilization", busy / elapsed.max(1e-9))
        .field("trace.coverage", (codec_us + merge_us) / 1e3 / mean_run_ms.max(1e-9))
        .field("spans", spans.table()))
}
