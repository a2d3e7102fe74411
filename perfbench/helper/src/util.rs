//! Shared pieces: a seeded generator for request plans, the span
//! recorder of the traced replay, and
//! the local reference every served report is checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use chipletqc::lab::CacheHub;
use chipletqc_engine::protocol::Submission;
use chipletqc_engine::report::strip_counter_objects;
use chipletqc_engine::scenario::{Scale, Scenario};
use chipletqc_engine::{resolve_batch, RunReport, ScenarioResult, Scheduler, Sweep};

/// SplitMix64: a tiny, well-mixed generator. Request plans are pure
/// functions of the workload seed, so two runs with one seed send the
/// daemon exactly the same submissions in the same order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spans recorded around layer calls in the benchmark's own code:
/// per name, the summed wall time and the number of calls.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed());
        out
    }

    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        let slot = self.totals.entry(name).or_default();
        slot.0 += elapsed;
        slot.1 += 1;
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0.as_secs_f64())
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Mean duration per call in microseconds (0 without calls).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.secs(name) * 1e6 / n as f64,
        }
    }

    pub fn total_secs(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.secs(n)).sum()
    }

    /// One line per span, for the run's stderr log.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (total, calls)) in &self.totals {
            let _ = writeln!(
                out,
                "  span {name:<24} {calls:>7} call(s) {:>10.3}s",
                total.as_secs_f64()
            );
        }
        out
    }
}

/// [`strip_counter_objects`] without its panics: a report missing a
/// counter object is a wrong output, not a crashed benchmark.
pub fn stripped(report: &str) -> Option<String> {
    let report = report.to_string();
    std::panic::catch_unwind(move || strip_counter_objects(&report)).ok()
}

/// The number under `key` in the top-level `object` of a pretty-printed
/// run report, such as `fabrication` → `chiplet_campaigns`.
pub fn counter_field(report: &str, object: &str, key: &str) -> Option<u64> {
    let open = format!("  \"{object}\": {{");
    let field = format!("    \"{key}\": ");
    report
        .lines()
        .skip_while(|line| *line != open)
        .take_while(|line| *line != "  }," && *line != "  }")
        .find_map(|line| line.strip_prefix(&field))
        .and_then(|value| value.trim_end_matches(',').parse().ok())
}

/// Counts the bytes this process reads through `read`-like system calls
/// (`rchar` of `/proc/self/io`) from [`ReadMeter::start`] on, whatever
/// the page cache held.
pub struct ReadMeter(u64);

impl ReadMeter {
    pub fn start() -> Result<ReadMeter, String> {
        // The meter's own read of /proc/self/io is not counted.
        let (rchar, own) = rchar()?;
        Ok(ReadMeter(rchar + own))
    }

    pub fn bytes(&self) -> Result<u64, String> {
        Ok(rchar()?.0 - self.0)
    }
}

/// `rchar` before this call's read, and the length of that read.
fn rchar() -> Result<(u64, u64), String> {
    let io =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    let rchar = io
        .lines()
        .find_map(|line| line.strip_prefix("rchar: "))
        .and_then(|value| value.trim().parse().ok())
        .ok_or("/proc/self/io has no rchar")?;
    Ok((rchar, io.len() as u64))
}

/// What a one-shot local run of `submission` reports, counter objects
/// stripped — the reference a served or meshed report must equal —
/// plus the scheduler's results and wall clock for per-layer use.
pub struct LocalRun {
    pub stripped: String,
    pub results: Vec<ScenarioResult>,
    pub scenarios: Vec<Scenario>,
    pub workers: usize,
    pub elapsed: Duration,
}

impl LocalRun {
    /// Summed scenario seconds over elapsed × workers.
    pub fn utilization(&self) -> f64 {
        self.busy_secs() / (self.elapsed.as_secs_f64() * self.workers as f64).max(1e-9)
    }

    pub fn busy_secs(&self) -> f64 {
        self.results.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    pub fn report(&self, hub: &CacheHub) -> RunReport {
        RunReport::from_results(
            &self.results,
            hub.fabrication_stats(),
            hub.store_stats(),
            hub.peer_stats(),
        )
    }
}

pub fn scenarios_of(submission: &Submission) -> Result<Vec<Scenario>, String> {
    let sweep = match &submission.sweep_text {
        Some(text) => Some(Sweep::parse(text).map_err(|e| format!("sweep: {e}"))?),
        None => None,
    };
    resolve_batch(
        sweep.as_ref(),
        submission.scale.unwrap_or(Scale::Paper),
        submission.only.as_deref(),
        submission.seed,
    )
}

pub fn local_run(
    submission: &Submission,
    workers: usize,
    hub: &CacheHub,
) -> Result<LocalRun, String> {
    let scenarios = scenarios_of(submission)?;
    let started = Instant::now();
    let results = Scheduler::new(workers).run(&scenarios, hub);
    let elapsed = started.elapsed();
    hub.flush_store();
    let mut run = LocalRun { stripped: String::new(), results, scenarios, workers, elapsed };
    run.stripped =
        stripped(&run.report(hub).to_json()).ok_or("local report lacks counter objects")?;
    Ok(run)
}

/// `--key value` arguments after the subcommand.
pub struct Args(BTreeMap<String, String>);

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg}"))?;
            let value = match args.peek() {
                Some(next) if !next.starts_with("--") => args.next().unwrap_or_default(),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.parse().map_err(|_| format!("bad --{key}"))
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub fn scale(&self) -> Result<Scale, String> {
        match self.0.get("scale").map(String::as_str) {
            None | Some("paper") => Ok(Scale::Paper),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!("bad --scale {other}")),
        }
    }
}

pub fn read_token(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map(|t| t.trim().to_string())
        .map_err(|e| format!("read token {path}: {e}"))
}
