//! `serve_mixed`: two closed-loop clients against one `serve` daemon,
//! one over the Unix socket and one over authenticated loopback TCP.
//!
//! About 9 in 10 requests (11 in every 12) repeat one warm single-scenario
//! quick-scale submission, which the daemon's hub answers without
//! fabricating; the rest carry fresh seeds derived from the workload
//! seed, so they fabricate and write the daemon's store. Every report is
//! checked against a local `Scheduler::run` of the same submission, and
//! every cold report's counter objects against the work its submission
//! implies.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chipletqc::chipletqc_math::rng::Seed;
use chipletqc::chipletqc_topology::mcm::McmSpec;
use chipletqc::experiments::fig8::Fig8Config;
use chipletqc::lab::{CacheHub, Lab, LabConfig};
use chipletqc::report::Json;
use chipletqc_engine::protocol::{
    read_response, write_response, Progress, Request, Response, Submission,
};
use chipletqc_engine::scenario::{ExperimentKind, Overrides, Scale, SystemSpec};
use chipletqc_engine::service::{request_endpoint, request_endpoint_observed, Endpoint};

use crate::replay::{collision_probe, lab_products, probe_devices};
use crate::util::{
    counter_field, local_run, ms, read_token, scenarios_of, stripped, Args, Rng, Spans,
};

/// The warm submission: one quick-scale Fig. 8 system, the first grid
/// of `examples/sweeps/chiplet_grid.sweep`, at the quick scale's own
/// batch.
const WARM_SWEEP: &str = "name = warm\nkind = fig8\nscale = quick\ngrid = 10q2x2\n";

/// One request in every block of `COLD_EVERY` carries a fresh seed,
/// at a seed-chosen position, so every window has the same mix.
const COLD_EVERY: u64 = 12;

/// Cold seeds whose fabrication the traced run replays layer by layer.
const REPLAYED_COLD_SEEDS: usize = 8;

/// The request plan: request `index` of a run with workload seed
/// `seed` is `(cold, scenario seed)`.
fn plan(seed: u64, index: u64) -> (bool, u64) {
    let block = index / COLD_EVERY;
    let cold = Rng::new(seed, 1000 + block).below(COLD_EVERY) == index % COLD_EVERY;
    if cold {
        let base = (1 << 41) + Rng::new(seed, 2).below(1 << 40);
        (true, base + index)
    } else {
        (false, WARM_SEED)
    }
}

/// The scenario seed of every warm request: one fixed design point,
/// so only the order and the fresh seeds depend on the workload seed.
const WARM_SEED: u64 = 5;

fn submission(scenario_seed: u64) -> Submission {
    Submission {
        sweep_text: Some(WARM_SWEEP.into()),
        workers: Some(1),
        seed: Some(scenario_seed),
        ..Submission::default()
    }
}

/// The lab configuration and systems a submission's single Fig. 8
/// scenario runs, from the engine's own resolution of it. Only the
/// overrides the warm sweep carries (systems, batch, seed) are accepted,
/// so a changed submission fails here instead of replaying other work.
fn fig8_work(sub: &Submission) -> Result<(LabConfig, Vec<McmSpec>), String> {
    let scenarios = scenarios_of(sub)?;
    let [scenario] = scenarios.as_slice() else {
        return Err(format!("expected one scenario, got {}", scenarios.len()));
    };
    let o = &scenario.overrides;
    let replayed = Overrides {
        batch: o.batch,
        seed: o.seed,
        systems: o.systems.clone(),
        ..Overrides::default()
    };
    if scenario.kind != ExperimentKind::Fig8 || *o != replayed {
        return Err(format!(
            "the replay covers Fig. 8 with batch/seed/grid only, not {scenario:?}"
        ));
    }
    let mut lab = match scenario.scale {
        Scale::Paper => Fig8Config::paper().lab,
        Scale::Quick => Fig8Config::quick().lab,
    };
    if let Some(batch) = o.batch {
        lab = lab.with_batch(batch);
    }
    if let Some(seed) = o.seed {
        lab = lab.with_seed(Seed(seed));
    }
    let systems = scenario.resolved_systems().ok_or("a Fig. 8 scenario has systems")?;
    Ok((lab, systems.iter().map(SystemSpec::build).collect()))
}

/// Fabrication campaigns (chiplet, monolithic) one fresh seed costs:
/// one per distinct chiplet design and one per distinct system size.
fn campaigns_per_seed(systems: &[McmSpec]) -> [u64; 2] {
    let chiplets: BTreeSet<_> = systems.iter().map(McmSpec::chiplet).collect();
    let sizes: BTreeSet<_> = systems.iter().map(McmSpec::num_qubits).collect();
    [chiplets.len() as u64, sizes.len() as u64]
}

fn endpoints(args: &Args) -> Result<[Endpoint; 2], String> {
    let token = read_token(args.get("token-file")?)?;
    Ok([
        Endpoint::Unix(PathBuf::from(args.get("socket")?)),
        Endpoint::Tcp { addr: args.get("addr")?.to_string(), token },
    ])
}

/// Set-up: the warm submission once over each transport, so the hub
/// holds its products before the measured window.
pub fn warm(args: &Args) -> Result<Json, String> {
    for endpoint in endpoints(args)? {
        match request_endpoint(&endpoint, &Request::Submit(submission(WARM_SEED))) {
            Ok(Response::Report { .. }) => {}
            Ok(other) => return Err(format!("warm-up answered with {other:?}")),
            Err(e) => return Err(format!("warm-up: {e}")),
        }
    }
    Ok(Json::obj().field("warm", true))
}

/// What one measured request did.
struct Op {
    cold_seed: Option<u64>,
    /// When the request was sent, from the start of the window.
    sent: Duration,
    latency: Duration,
    /// The stripped report, kept only for cold requests (checked after
    /// the window); warm ones are checked as they arrive.
    report: Option<String>,
    /// A cold reply's own counter objects: chiplet campaigns,
    /// monolithic campaigns and store writes.
    served: Option<[u64; 3]>,
    failure: Option<&'static str>,
    report_bytes: usize,
    /// Connect → first progress frame; first queue frame → first task
    /// frame; first task frame → terminal response (traced runs only).
    phases: Option<(Duration, Duration, Duration)>,
}

impl Op {
    fn overlaps(&self, other: &Op) -> bool {
        self.sent < other.sent + other.latency && other.sent < self.sent + self.latency
    }
}

/// The counter objects of a served report.
fn served_work(report: &str) -> Option<[u64; 3]> {
    Some([
        counter_field(report, "fabrication", "chiplet_campaigns")?,
        counter_field(report, "fabrication", "mono_campaigns")?,
        counter_field(report, "store", "writes")?,
    ])
}

fn one_request(
    endpoint: &Endpoint,
    sub: &Submission,
    traced: bool,
) -> (Duration, std::io::Result<Response>, Option<(Duration, Duration, Duration)>) {
    let request = Request::Submit(sub.clone());
    let started = Instant::now();
    if !traced {
        let response = request_endpoint(endpoint, &request);
        return (started.elapsed(), response, None);
    }
    let (mut first, mut queued, mut tasks) = (None, None, None);
    let response = request_endpoint_observed(endpoint, &request, |progress| {
        let now = started.elapsed();
        first.get_or_insert(now);
        match progress {
            Progress::Queued { .. } => {
                queued.get_or_insert(now);
            }
            Progress::Tasks { .. } => {
                tasks.get_or_insert(now);
            }
        }
    });
    let latency = started.elapsed();
    let phases = match (first, tasks) {
        (Some(first), Some(tasks)) => Some((
            first,
            queued.map_or(Duration::ZERO, |q| tasks.saturating_sub(q)),
            latency.saturating_sub(tasks),
        )),
        _ => None,
    };
    (latency, response, phases)
}

/// The measured window plus the output checks.
pub fn run(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    // Segments of one run draw disjoint stretches of the request plan,
    // so every cold request of the run has a seed of its own.
    let first: u64 = args.num::<u64>("segment")? << 32;
    let traced = args.has("trace");
    let endpoints = endpoints(args)?;

    let warm_reference = local_run(&submission(WARM_SEED), 1, &CacheHub::new())?;
    let (_, systems) = fig8_work(&submission(WARM_SEED))?;
    let [chiplet_campaigns, mono_campaigns] = campaigns_per_seed(&systems);

    let next = AtomicU64::new(first);
    let ops: Mutex<Vec<Op>> = Mutex::new(Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for endpoint in &endpoints {
            let (next, ops, warm_reference) = (&next, &ops, &warm_reference.stripped);
            scope.spawn(move || {
                while started.elapsed() < window {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let (cold, scenario_seed) = plan(seed, index);
                    let sent = started.elapsed();
                    let (latency, response, phases) =
                        one_request(endpoint, &submission(scenario_seed), traced);
                    let mut op = Op {
                        cold_seed: cold.then_some(scenario_seed),
                        sent,
                        latency,
                        report: None,
                        served: None,
                        failure: None,
                        report_bytes: 0,
                        phases,
                    };
                    match response {
                        Ok(Response::Report { report, .. }) => {
                            op.report_bytes = report.len();
                            match stripped(&report) {
                                Some(text) if cold => {
                                    op.report = Some(text);
                                    op.served = served_work(&report);
                                }
                                Some(text) if &text == warm_reference => {}
                                _ => op.failure = Some("mismatch"),
                            }
                        }
                        Ok(Response::Busy { .. }) => op.failure = Some("busy"),
                        Ok(_) => op.failure = Some("error"),
                        Err(_) => op.failure = Some("transport"),
                    }
                    ops.lock().expect("ops lock").push(op);
                }
            });
        }
    });
    let window_s = started.elapsed().as_secs_f64();
    let mut ops = ops.into_inner().map_err(|_| "ops lock poisoned")?;

    // Cold reports: one local run per fresh seed, after the window.
    let mut reference_runs = vec![warm_reference];
    for op in ops.iter_mut().filter(|op| op.failure.is_none()) {
        if let (Some(cold_seed), Some(report)) = (op.cold_seed, &op.report) {
            let reference = local_run(&submission(cold_seed), 1, &CacheHub::new())?;
            if &reference.stripped != report {
                op.failure = Some("mismatch");
            }
            reference_runs.push(reference);
        }
    }

    // A cold reply's counter objects are the daemon's counter deltas
    // over its batch, so they are that request's own work only when no
    // other cold request ran beside it. Each such reply must show the
    // campaigns its fresh seed implies, and all must agree on the store
    // writes; these figures do not depend on the window.
    let isolated: Vec<usize> = (0..ops.len())
        .filter(|&i| {
            ops[i].cold_seed.is_some()
                && ops[i].failure.is_none()
                && !ops.iter().enumerate().any(|(j, other)| {
                    j != i && other.cold_seed.is_some() && ops[i].overlaps(other)
                })
        })
        .collect();
    let store_writes = isolated.iter().filter_map(|&i| ops[i].served).map(|w| w[2]).min();
    for &i in &isolated {
        if ops[i].served != store_writes.map(|w| [chiplet_campaigns, mono_campaigns, w]) {
            ops[i].failure = Some("work");
        }
    }
    let isolated: Vec<usize> =
        isolated.into_iter().filter(|&i| ops[i].failure.is_none()).collect();
    let counters = match store_writes {
        Some(writes) if !isolated.is_empty() => Json::obj()
            .field(
                "cold_op_campaigns",
                Json::Arr(vec![chiplet_campaigns.into(), mono_campaigns.into()]),
            )
            .field("cold_op_store_writes", writes),
        _ => Json::obj(),
    };

    let latencies: Vec<f64> = ops.iter().map(|op| ms(op.latency)).collect();
    let cold_ops = ops.iter().filter(|op| op.cold_seed.is_some()).count() as u64;
    let mut replay_failed = 0;
    let layers = if traced {
        let (layers, matches) = layers(&ops, &isolated, &reference_runs, seed)?;
        replay_failed = u64::from(!matches);
        Some(layers)
    } else {
        None
    };
    let failures = |kind: &str| ops.iter().filter(|op| op.failure == Some(kind)).count() as u64;
    let failed = ops.iter().filter(|op| op.failure.is_some()).count() as u64;
    let mut out = Json::obj()
        .field("ops", ops.len() as u64)
        .field("cold_ops", cold_ops)
        .field("isolated_cold_ops", isolated.len() as u64)
        .field("counters", counters)
        .field("failed", failed)
        .field(
            "failures",
            Json::obj()
                .field("transport", failures("transport"))
                .field("busy", failures("busy"))
                .field("error", failures("error"))
                .field("mismatch", failures("mismatch"))
                .field("work", failures("work"))
                .field("replay", replay_failed),
        )
        .field("window_s", window_s)
        .field("latencies_ms", Json::Arr(latencies.iter().map(|&ms| Json::from(ms)).collect()))
        .field("ops_per_s", ops.len() as f64 / window_s);
    if let Some(layers) = layers {
        out = out.field("layers", layers);
    }
    Ok(out)
}

/// Per-layer figures of the traced run: the client-side phases of
/// every request, the frame codec and report serialization on a warm
/// report, and a layer-by-layer replay of the fabrication of the
/// isolated cold requests. Also says whether the replay's campaigns
/// equal the ones the daemon reported for those requests.
fn layers(
    ops: &[Op],
    isolated: &[usize],
    reference_runs: &[crate::util::LocalRun],
    seed: u64,
) -> Result<(Json, bool), String> {
    let mut spans = Spans::default();
    for (accept, queue, reply) in ops.iter().filter_map(|op| op.phases) {
        spans.add("service.accept", accept);
        spans.add("service.queue_wait", queue);
        spans.add("service.reply", reply);
    }
    let submits: f64 = ops.iter().map(|op| op.latency.as_secs_f64()).sum();
    let phases = spans.total_secs(&["service.accept", "service.queue_wait", "service.reply"]);

    let warm = &reference_runs[0];
    let hub = CacheHub::new();
    let mut report = String::new();
    for _ in 0..50 {
        report = spans.time("report.to_json", || warm.report(&hub).to_json());
    }
    let mut frame = Vec::new();
    write_response(&mut frame, &Response::Report { batch: 1, timing: String::new(), report })
        .map_err(|e| format!("encode report frame: {e}"))?;
    for _ in 0..50 {
        let decoded = spans.time("protocol.decode", || read_response(&mut frame.as_slice()));
        decoded.map_err(|e| format!("decode report frame: {e}"))?;
    }

    // The isolated cold requests' fabrication, replayed through the lab
    // layer with the configuration the engine resolves for each.
    let mut replayed: Vec<&Op> = isolated.iter().map(|&i| &ops[i]).collect();
    replayed.sort_by_key(|op| op.cold_seed);
    replayed.truncate(REPLAYED_COLD_SEEDS);
    let lab_hub = CacheHub::new();
    let mut probed: Option<(LabConfig, Vec<McmSpec>)> = None;
    let mut served = [0u64; 2];
    for op in &replayed {
        let cold_seed = op.cold_seed.ok_or("replayed request is cold")?;
        let (lab, systems) = fig8_work(&submission(cold_seed))?;
        let replay_lab = Lab::new_in(lab.with_yield_workers(Some(1)), &lab_hub);
        lab_products(&mut spans, &replay_lab, &systems);
        probed.get_or_insert((lab, systems));
        let [chiplet, mono, _] = op.served.ok_or("isolated request has counters")?;
        served = [served[0] + chiplet, served[1] + mono];
    }
    if let Some((lab, systems)) = &probed {
        // As many checks as the replayed campaigns ran, one per trial.
        let devices = probe_devices(systems)?;
        let samples = lab.batch * replayed.len();
        collision_probe(&mut spans, &devices, &lab.fabrication, &lab.collision, samples, seed);
    }
    let campaigns = lab_hub.fabrication_stats();
    let matches =
        [campaigns.chiplet_fabrications as u64, campaigns.mono_fabrications as u64] == served;

    let busy: f64 = reference_runs.iter().map(|r| r.busy_secs()).sum();
    let elapsed: f64 =
        reference_runs.iter().map(|r| r.elapsed.as_secs_f64() * r.workers as f64).sum();
    let report_bytes: f64 =
        ops.iter().map(|op| op.report_bytes as f64).sum::<f64>() / ops.len().max(1) as f64;
    let layers = Json::obj()
        .field("collision.check_ns", spans.mean_us("collision.check") * 1e3)
        .field("collision.checks", spans.calls("collision.check"))
        .field("lab.chiplet_bin_s", spans.secs("lab.chiplet_bin"))
        .field("lab.mono_population_s", spans.secs("lab.mono_population"))
        .field("lab.chiplet_campaigns", campaigns.chiplet_fabrications as u64)
        .field("lab.mono_campaigns", campaigns.mono_fabrications as u64)
        .field("scheduler.utilization", busy / elapsed.max(1e-9))
        .field("service.accept_ms", spans.mean_us("service.accept") / 1e3)
        .field("service.queue_wait_ms", spans.mean_us("service.queue_wait") / 1e3)
        .field("service.reply_ms", spans.mean_us("service.reply") / 1e3)
        .field("protocol.report_bytes", report_bytes)
        .field("protocol.decode_us", spans.mean_us("protocol.decode"))
        .field("report.to_json_us", spans.mean_us("report.to_json"))
        .field("trace.coverage", phases / submits.max(1e-9))
        .field("spans", spans.table());
    Ok((layers, matches))
}
