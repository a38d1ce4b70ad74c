//! The five workloads and the closed loop that measures them.
//!
//! Every workload is one operation repeated over seeded inputs by a
//! single caller that waits for each answer (a closed loop, one
//! connection for the daemon): a *cold* operation on an input the run
//! has not seen, then a *warm* operation that replays a random earlier
//! input. Cold operations miss every cache and memo the system keeps;
//! warm ones let the sweep cache (or the daemon's cache) answer, which
//! is the reuse path a reader hits when regenerating results. A warm
//! answer must equal the cold one byte for byte.
//!
//! Every executor runs at the shipped default thread count
//! ([`sos_sim::num_threads`]); only `chord10k-1t` pins one worker, for
//! the single-core trial throughput. Operations are reported by the
//! fastest one (see [`Run::latency_ms`]): on a small shared host a
//! neighbour's load slows every operation that overlaps it, and the
//! fastest is the one that ran with the least of it.

use crate::catalog::DEFAULT_SEED;
use crate::stats::{fnv1a64, input_seed, minimum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use sos_bench::ablations::{self, AblationOptions};
use sos_bench::figures;
use sos_serve::{Client, SimSpec};
use sos_sim::{Simulation, SimulationConfig, SimulationResult, SweepExecutor};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Digest of the first cold operation's output at [`DEFAULT_SEED`].
const PINNED: [(&str, u64); 5] = [
    ("paper-report", 0x25f0_9915_1198_fc8b),
    ("chord10k-trials", 0x87f2_3368_5408_e325),
    ("chord10k-1t", 0x87f2_3368_5408_e325),
    ("sweep-grid", 0x2c0e_1927_7c88_8f6a),
    ("sosd-loopback", 0x45ae_e494_b057_b060),
];

/// Trials per `chord10k-*` operation.
pub const CHORD_TRIALS: u64 = 10;

/// Latencies of the timed parts of operations made of several parts
/// (the report's sections): `0[k]` holds part `k`'s latency in every
/// operation.
#[derive(Debug, Default)]
struct Parts(Vec<Vec<f64>>);

impl Parts {
    fn push(&mut self, parts_ms: Vec<f64>) {
        for (k, ms) in parts_ms.into_iter().enumerate() {
            if self.0.len() <= k {
                self.0.push(Vec::new());
            }
            self.0[k].push(ms);
        }
    }

    /// The sum of each part's fastest time, so that a part slowed by a
    /// neighbour in one operation is taken from one where it was not.
    fn min_sum(&self) -> f64 {
        self.0.iter().map(|part| minimum(part)).sum()
    }
}

/// The latencies of one class (cold or warm) of operations.
#[derive(Debug, Default)]
pub struct Class {
    /// Whole-operation latencies, milliseconds.
    pub wall_ms: Vec<f64>,
    /// The parts that depend on the operation's input or on what is
    /// cached.
    parts: Parts,
}

impl Class {
    fn push(&mut self, wall_ms: f64, parts_ms: Vec<f64>) {
        self.wall_ms.push(wall_ms);
        self.parts.push(parts_ms);
    }
}

/// What one workload run hands back to the caller.
#[derive(Debug, Default)]
pub struct Run {
    /// Untimed set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Operations on inputs the run had not seen.
    pub cold: Class,
    /// Replays of earlier inputs.
    pub warm: Class,
    /// The parts that do the same work in every operation, cold or
    /// warm, so every operation samples them.
    shared: Parts,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
}

impl Run {
    /// The latency reported for `class`: its fastest operation or, for
    /// operations made of parts, the sum of each part's fastest time,
    /// the shared parts' taken over every operation.
    pub fn latency_ms(&self, class: &Class) -> f64 {
        if class.parts.0.is_empty() && self.shared.0.is_empty() {
            minimum(&class.wall_ms)
        } else {
            class.parts.min_sum() + self.shared.min_sum()
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Where a run may put temporary files (inside the checkout).
pub struct Ctx {
    /// Scratch directory, removed when the run ends.
    pub scratch: PathBuf,
    /// The `sos` CLI binary that serves `sosd-loopback`.
    pub sos_bin: Option<PathBuf>,
}

/// What one operation produced.
struct Output {
    /// Digest of the operation's output.
    digest: u64,
    /// Latency of each timed part that depends on the input or the
    /// caches, if the operation has several parts.
    parts_ms: Vec<f64>,
    /// Latency of each timed part that does the same work every time.
    shared_ms: Vec<f64>,
}

impl Output {
    fn whole(digest: u64) -> Self {
        Output {
            digest,
            parts_ms: Vec::new(),
            shared_ms: Vec::new(),
        }
    }
}

/// One workload: a set-up and an operation on input `index`.
trait Workload: Sized {
    /// Untimed preparation before the first timed operation.
    fn setup(seed: u64, ctx: &Ctx, rep: usize) -> Result<Self, String>;
    /// Runs the operation on input `index`.
    fn op(&mut self, index: u64) -> Result<Output, String>;
    /// Untimed checks after the loop; returns peak RSS in MiB.
    fn finish(self, run: &mut Run) -> Result<f64, String>;
}

/// Runs workload `name` for `seconds` of timed operations.
pub fn measure(name: &str, seed: u64, seconds: f64, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "paper-report" => closed_loop::<PaperReport>(name, seed, seconds, ctx),
        "chord10k-trials" => closed_loop::<Chord10k<0>>(name, seed, seconds, ctx),
        "chord10k-1t" => closed_loop::<Chord10k<1>>(name, seed, seconds, ctx),
        "sweep-grid" => closed_loop::<SweepGrid>(name, seed, seconds, ctx),
        "sosd-loopback" => closed_loop::<SosdLoopback>(name, seed, seconds, ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn closed_loop<W: Workload>(name: &str, seed: u64, seconds: f64, ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let started = Instant::now();
    let mut w = W::setup(seed, ctx, 0)?;
    run.setup_s.push(started.elapsed().as_secs_f64());
    let mut replay = StdRng::seed_from_u64(seed);
    // The cold answer of every input, `None` where the operation failed.
    let mut answers: Vec<Option<u64>> = Vec::new();
    let begin = Instant::now();
    loop {
        let index = answers.len() as u64;
        let started = Instant::now();
        let cold = w.op(index);
        let wall = ms_since(started);
        let answer = match cold {
            Ok(out) => {
                run.attempted += 1;
                if index == 0 && seed == DEFAULT_SEED {
                    let pinned = PINNED.iter().find(|(w, _)| *w == name).map(|p| p.1);
                    run.check(pinned == Some(out.digest), || {
                        format!(
                            "{name}: output digest {:016x} differs from the pinned {pinned:016x?}",
                            out.digest
                        )
                    });
                }
                run.cold.push(wall, out.parts_ms);
                run.shared.push(out.shared_ms);
                Some(out.digest)
            }
            Err(e) => {
                run.check(false, || format!("{name}: cold input {index}: {e}"));
                None
            }
        };
        answers.push(answer);
        let j = replay.gen_range(0..answers.len());
        if let Some(expected) = answers[j] {
            let started = Instant::now();
            let warm = w.op(j as u64);
            let wall = ms_since(started);
            match warm {
                Ok(out) => {
                    run.check(out.digest == expected, || {
                        format!("{name}: warm replay of input {j} differs from its cold answer")
                    });
                    run.warm.push(wall, out.parts_ms);
                    run.shared.push(out.shared_ms);
                }
                Err(e) => run.check(false, || format!("{name}: warm input {j}: {e}")),
            }
        }
        // Spare set-ups, spread over the run so that their median
        // samples the run's conditions rather than its first
        // milliseconds; each is torn down untimed.
        let elapsed = begin.elapsed().as_secs_f64();
        while run.setup_s.len() < SETUP_REPS
            && elapsed >= run.setup_s.len() as f64 * seconds / SETUP_REPS as f64
        {
            let started = Instant::now();
            let spare = W::setup(seed, ctx, run.setup_s.len())?;
            run.setup_s.push(started.elapsed().as_secs_f64());
            drop(spare);
        }
        if elapsed >= seconds {
            break;
        }
    }
    run.peak_rss_mb = w.finish(&mut run)?;
    Ok(run)
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn digest_json(value: &Value) -> u64 {
    fnv1a64(serde_json::to_string(value).expect("serializes").as_bytes())
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one).
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// The thread count a result is checked against: one worker for a
/// multi-thread run, and for a one-worker run every core, at least two.
fn other_threads(threads: usize) -> usize {
    if threads > 1 {
        1
    } else {
        sos_sim::num_threads().max(2)
    }
}

fn spec_config(spec: &SimSpec) -> SimulationConfig {
    spec.sim_config().expect("benchmark specs are valid")
}

// ---------------------------------------------------------------- specs

/// The paper's intelligent attacker at the paper's scale (N=10,000,
/// n=100, P_B=0.5, one-to-2, successive N_T=200/N_C=2,000): the config
/// of the report's traced section.
pub fn paper_spec(seed: u64, routes: u64) -> SimSpec {
    SimSpec {
        trials: 5,
        routes,
        seed,
        ..SimSpec::default()
    }
}

/// Paper scale on the Chord substrate: N=10,000, n=100, L=3, one-to-5,
/// 10 filters, one-burst N_T=100/N_C=1,000, 50 routes per trial.
pub fn chord_spec(seed: u64, trials: u64) -> SimSpec {
    SimSpec {
        mapping: "one-to-5".into(),
        model: "one-burst".into(),
        nt: 100,
        nc: 1_000,
        transport: "chord".into(),
        trials,
        routes: 50,
        seed,
        ..SimSpec::default()
    }
}

/// Sizing of one `sweep-grid` operation.
pub fn grid_options(seed: u64) -> AblationOptions {
    AblationOptions {
        trials: 10,
        routes_per_trial: 1_000,
        seed,
    }
}

/// Sizing of one `sosd-loopback` sweep request: the same grid at 2
/// trials × 20 routes per point, so that a cold request's time goes to
/// the executor, the per-point journal fsync and the codec rather than
/// to routing.
pub fn sosd_options(seed: u64) -> AblationOptions {
    AblationOptions {
        trials: 2,
        routes_per_trial: 20,
        seed,
    }
}

/// [`ablations::profile_grid`] as specs, point for point (the replay
/// and the daemon need each point's parameters, which a config keeps
/// private; the runtime check `grid_specs_match` pins the two
/// together).
pub fn grid_specs(opts: AblationOptions) -> Vec<SimSpec> {
    let seed = opts.seed;
    let base = |n_c: u64| SimSpec {
        overlay_nodes: 1_000,
        mapping: "one-to-5".into(),
        model: "one-burst".into(),
        nt: 60,
        nc: n_c,
        transport: "chord".into(),
        trials: opts.trials,
        routes: opts.routes_per_trial,
        seed,
        ..SimSpec::default()
    };
    let budgets = [0u64, 40, 80, 120, 160, 200];
    let mut specs = Vec::new();
    for policy in ["random-good", "first-good", "backtracking"] {
        specs.extend(budgets.map(|n_c| SimSpec {
            policy: policy.into(),
            ..base(n_c)
        }));
    }
    for transport in ["direct", "chord"] {
        specs.extend(budgets.map(|n_c| SimSpec {
            transport: transport.into(),
            ..base(n_c)
        }));
    }
    for loss in ["0", "0.2"] {
        let faults = format!("loss={loss},seed={seed}");
        specs.extend(budgets.map(|n_c| SimSpec {
            faults: Some(faults.clone()),
            ..base(n_c)
        }));
    }
    specs
}

/// The specs a traced run replays on pass `pass`: the inputs the
/// workload's own operations use.
pub fn replay_specs(workload: &str, seed: u64, pass: u64) -> Vec<SimSpec> {
    match workload {
        "paper-report" => vec![paper_spec(
            input_seed(seed, pass),
            AblationOptions::default().routes_per_trial,
        )],
        "chord10k-trials" | "chord10k-1t" => {
            vec![chord_spec(input_seed(seed, pass), CHORD_TRIALS)]
        }
        "sweep-grid" => grid_specs(grid_options(input_seed(seed, pass))),
        _ => grid_specs(sosd_options(input_seed(seed, pass))),
    }
}

/// Whether [`grid_specs`] still describes [`ablations::profile_grid`].
pub fn grid_specs_match(opts: AblationOptions) -> bool {
    let shipped = ablations::profile_grid(opts);
    let ours = grid_specs(opts);
    shipped.len() == ours.len()
        && shipped.iter().zip(&ours).all(|(a, b)| {
            sos_sim::config_fingerprint(a) == sos_sim::config_fingerprint(&spec_config(b))
        })
}

// --------------------------------------------------------- paper-report

/// `paper-report`: every section of `full_report`, in its order,
/// through the same public functions and at its sizing (100 trials ×
/// 100 routes, 20 `ext-staleness` trials), with the input's seed.
/// Sweeps go through the process-global sweep executor on every core
/// with a persistent cache file attached, as `full_report --cache` does
/// (every set-up attaches a fresh file); a warm pass answers them from
/// that cache while the analytic and protocol sections recompute.
struct PaperReport {
    seed: u64,
}

impl Workload for PaperReport {
    fn setup(seed: u64, ctx: &Ctx, rep: usize) -> Result<Self, String> {
        let cache = ctx.scratch.join(format!("report-cache-{rep}.json"));
        sos_sim::set_global_cache(&cache)
            .map_err(|e| format!("attaching {}: {e}", cache.display()))?;
        std::hint::black_box(figures::all());
        Ok(PaperReport { seed })
    }

    fn op(&mut self, index: u64) -> Result<Output, String> {
        let opts = AblationOptions {
            seed: input_seed(self.seed, index),
            ..AblationOptions::default()
        };
        let mut text = String::new();
        let (mut parts_ms, mut shared_ms) = (Vec::new(), Vec::new());
        for (section, shared) in report_sections(opts) {
            let started = Instant::now();
            text.push_str(&section());
            let ms = ms_since(started);
            if shared {
                shared_ms.push(ms);
            } else {
                parts_ms.push(ms);
            }
        }
        Ok(Output {
            digest: fnv1a64(text.as_bytes()),
            parts_ms,
            shared_ms,
        })
    }

    fn finish(self, _run: &mut Run) -> Result<f64, String> {
        peak_rss_mib("self")
    }
}

/// One report section: it produces its text, and `shared` marks a
/// section that reads neither the pass's seed nor the sweep cache
/// (analytic figures, the DES/protocol extensions), so it does the same
/// work in every pass, cold or warm.
type Section = (Box<dyn Fn() -> String>, bool);

/// The report's sections in `full_report`'s order.
fn report_sections(opts: AblationOptions) -> Vec<Section> {
    let seeded = |f: Box<dyn Fn() -> String>| (f, false);
    let shared = |f: Box<dyn Fn() -> String>| (f, true);
    vec![
        shared(Box::new(|| {
            let mut tables = figures::all();
            tables.push(figures::fig4a_exact());
            let mut text: String = tables.iter().map(ToString::to_string).collect();
            text.push_str(&figures::supplemental_nc().to_string());
            text + &serde_json::to_string_pretty(&tables).expect("tables serialize")
        })),
        seeded(Box::new(move || {
            ablations::evaluator_ablation(opts)
                .iter()
                .map(ToString::to_string)
                .collect()
        })),
        seeded(Box::new(move || {
            ablations::routing_ablation(opts).to_string()
        })),
        seeded(Box::new(move || {
            ablations::chord_ablation(opts).to_string()
        })),
        shared(Box::new(|| ablations::multirole_ablation().to_string())),
        seeded(Box::new(move || {
            ablations::repair_extension(opts).to_string()
        })),
        seeded(Box::new(move || {
            ablations::monitoring_extension(opts).to_string()
        })),
        seeded(Box::new(move || ablations::fault_sweep(opts).to_string())),
        seeded(Box::new(move || {
            ablations::flow_extension(opts).to_string()
        })),
        shared(Box::new(|| {
            ablations::stabilization_extension().to_string()
        })),
        shared(Box::new(|| ablations::staleness_extension().to_string())),
        shared(Box::new(|| {
            ablations::protocol_churn_extension().to_string()
        })),
        shared(Box::new(|| {
            let mut text: String = ablations::latency_frontier()
                .iter()
                .map(ToString::to_string)
                .collect();
            let point = sos_analysis::OperatingPoint::paper_default();
            let tornado = sos_analysis::tornado(&point, 0.25, sos_core::PathEvaluator::Binomial)
                .expect("paper operating point is valid");
            text.extend(tornado.iter().map(ToString::to_string));
            text
        })),
        seeded(Box::new(move || {
            let recorder = sos_observe::MemoryRecorder::new();
            let cfg = spec_config(&paper_spec(opts.seed, opts.routes_per_trial));
            let (result, metrics) = Simulation::new(cfg).run_traced(&recorder);
            let mut text = sos_observe::write_jsonl(&recorder.take_events());
            text.push_str(&metrics.to_csv());
            text + &serde_json::to_string(&result).expect("result serializes")
        })),
    ]
}

// ------------------------------------------------------ chord10k-trials

/// `chord10k-trials` (`THREADS` = 0: every core, the shipped default)
/// and `chord10k-1t` (`THREADS` = 1): [`CHORD_TRIALS`] paper-scale
/// Chord trials through `Simulation::run_parallel`, the scoped-thread
/// executor. Every trial has its own build seed, so the build memo
/// never hits, and `run_parallel` keeps nothing between calls: warm
/// replays are predicted to cost what cold inputs cost.
struct Chord10k<const THREADS: usize> {
    seed: u64,
    first: Option<Value>,
}

impl<const THREADS: usize> Chord10k<THREADS> {
    fn threads() -> usize {
        if THREADS == 0 {
            sos_sim::num_threads()
        } else {
            THREADS
        }
    }
}

impl<const THREADS: usize> Workload for Chord10k<THREADS> {
    fn setup(seed: u64, _ctx: &Ctx, _rep: usize) -> Result<Self, String> {
        // `run_parallel` keeps no state between calls, so the set-up is
        // one warm-up trial, on an input no operation uses. It runs on
        // the calling thread: a fresh worker thread's allocator arena
        // would make its cost depend on page-fault luck.
        let spec = chord_spec(input_seed(seed, u64::MAX), 1);
        std::hint::black_box(Simulation::new(spec_config(&spec)).run());
        Ok(Chord10k { seed, first: None })
    }

    fn op(&mut self, index: u64) -> Result<Output, String> {
        let spec = chord_spec(input_seed(self.seed, index), CHORD_TRIALS);
        let result = Simulation::new(spec_config(&spec)).run_parallel(Self::threads());
        let result = serde_json::to_value(&result);
        let digest = digest_json(&result);
        if index == 0 && self.first.is_none() {
            self.first = Some(result);
        }
        Ok(Output::whole(digest))
    }

    fn finish(self, run: &mut Run) -> Result<f64, String> {
        let peak = peak_rss_mib("self")?;
        if let Some(first) = &self.first {
            let (threads, other) = (Self::threads(), other_threads(Self::threads()));
            let spec = chord_spec(input_seed(self.seed, 0), CHORD_TRIALS);
            let again = Simulation::new(spec_config(&spec)).run_parallel(other);
            run.check(serde_json::to_value(&again) == *first, || {
                format!("chord10k: the result on {other} threads differs from the one on {threads}")
            });
        }
        Ok(peak)
    }
}

// ----------------------------------------------------------- sweep-grid

/// `sweep-grid`: the 42-point profiling grid (policy, transport and
/// loss panels; 10 trials × 1,000 routes) on one persistent
/// `SweepExecutor` with a private pool of one worker per core. Routing
/// dominates; 12 points per grid are intra-grid duplicates and the
/// per-worker build memo answers structurally equal points. A warm
/// replay is answered entirely from the executor's result cache.
struct SweepGrid {
    seed: u64,
    exec: SweepExecutor,
    first: Option<Vec<SimulationResult>>,
}

impl Workload for SweepGrid {
    fn setup(seed: u64, _ctx: &Ctx, _rep: usize) -> Result<Self, String> {
        let mut exec = SweepExecutor::with_threads(sos_sim::num_threads());
        let warm_up = ablations::profile_grid(grid_options(input_seed(seed, u64::MAX)));
        exec.run_one(&warm_up[0].clone().trials(1));
        Ok(SweepGrid {
            seed,
            exec,
            first: None,
        })
    }

    fn op(&mut self, index: u64) -> Result<Output, String> {
        let grid = ablations::profile_grid(grid_options(input_seed(self.seed, index)));
        let results = self.exec.run(&grid);
        let digest = digest_json(&serde_json::to_value(&results));
        if index == 0 && self.first.is_none() {
            self.first = Some(results);
        }
        Ok(Output::whole(digest))
    }

    fn finish(self, run: &mut Run) -> Result<f64, String> {
        let peak = peak_rss_mib("self")?;
        // Thread-count independence: the first grid must deliver on
        // one worker exactly what it delivered on every core.
        if let Some(first) = &self.first {
            let other = other_threads(sos_sim::num_threads());
            let grid = ablations::profile_grid(grid_options(input_seed(self.seed, 0)));
            let again = SweepExecutor::with_threads(other).run(&grid);
            let same = again
                .iter()
                .zip(first)
                .all(|(a, b)| (a.successes, a.attempts) == (b.successes, b.attempts));
            run.check(same, || {
                format!("sweep-grid: successes on {other} threads differ from every core's")
            });
        }
        run.check(grid_specs_match(grid_options(self.seed)), || {
            "sweep-grid: the replay's grid specs no longer match ablations::profile_grid".into()
        });
        Ok(peak)
    }
}

// -------------------------------------------------------- sosd-loopback

/// A `sos serve` daemon child; killed and reaped if dropped while
/// still running.
struct Daemon {
    child: Child,
    addr: String,
    /// Drains the daemon's stdout until it exits (the daemon prints a
    /// summary when it drains; a closed pipe would fail that write).
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(sos_bin: &Path, cache: &Path) -> Result<Daemon, String> {
        // No `--threads`: the daemon's default, the all-core global pool.
        let mut child = Command::new(sos_bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", sos_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (lines, first) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = lines.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: Some(drain),
        };
        // The "listening" line is the daemon's readiness signal.
        let line = first
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the daemon printed no readiness line within 30 s".to_string())?;
        daemon.addr = line
            .trim()
            .strip_prefix("sosd listening on ")
            .ok_or_else(|| format!("unexpected daemon output {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Waits up to ten seconds for the daemon to exit on its own.
    fn reap(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("daemon did not exit within 10 s of shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

/// `sosd-loopback`: 42-point `sweep` requests (the profiling grid at
/// [`sosd_options`]) to a `sos serve` daemon over one blocking loopback
/// connection, as `Client` callers behave. Cold requests execute 30
/// points (12 are intra-grid duplicates), fsync the cache journal once
/// per executed point and answer a large frame; warm replays are 42
/// cache hits, so they exercise admission, the executor lock, the cache
/// and the codec.
struct SosdLoopback {
    seed: u64,
    daemon: Daemon,
    client: Client,
    seen: HashSet<u64>,
    /// The first cold request's seed and results, checked in-process.
    first: Option<(u64, Value)>,
}

impl Workload for SosdLoopback {
    fn setup(seed: u64, ctx: &Ctx, rep: usize) -> Result<Self, String> {
        let sos_bin = ctx
            .sos_bin
            .as_deref()
            .ok_or("sosd-loopback needs the sos binary (SOSBENCH_SOS_BIN)")?;
        let cache = ctx.scratch.join(format!("sosd-cache-{rep}.json"));
        let daemon = Daemon::spawn(sos_bin, &cache)?;
        let mut client = Client::connect(daemon.addr.as_str())
            .map_err(|e| format!("connecting to {}: {e}", daemon.addr))?;
        client.ping().map_err(|e| format!("first ping: {e}"))?;
        Ok(SosdLoopback {
            seed,
            daemon,
            client,
            seen: HashSet::new(),
            first: None,
        })
    }

    fn op(&mut self, index: u64) -> Result<Output, String> {
        let seed = input_seed(self.seed, index);
        let reply = self
            .client
            .sweep(&grid_specs(sosd_options(seed)))
            .map_err(|e| e.to_string())?;
        let cold = self.seen.insert(index);
        // A cold grid executes its distinct points and dedups the rest
        // (`partial`); a replay is answered wholly from the cache.
        let served = reply["served_from"].as_str().unwrap_or("");
        if cold == (served == "cache") {
            return Err(format!(
                "a {} request was served from {served:?}",
                if cold { "cold" } else { "warm" }
            ));
        }
        let results = &reply["results"];
        if cold && self.first.is_none() {
            self.first = Some((seed, results.clone()));
        }
        Ok(Output::whole(digest_json(results)))
    }

    fn finish(mut self, run: &mut Run) -> Result<f64, String> {
        let peak = peak_rss_mib(&self.daemon.child.id().to_string())?;
        if let Some((seed, served)) = &self.first {
            let grid = ablations::profile_grid(sosd_options(*seed));
            let local = SweepExecutor::with_threads(sos_sim::num_threads()).run(&grid);
            let same = served.as_array().is_some_and(|points| {
                points.len() == local.len()
                    && points
                        .iter()
                        .zip(&local)
                        .all(|(p, r)| p["result"] == serde_json::to_value(r))
            });
            run.check(same, || {
                format!(
                    "sosd-loopback: daemon results for seed {seed} differ from an in-process sweep"
                )
            });
        }
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.daemon.reap()?;
        Ok(peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_specs_describe_the_profile_grid() {
        assert!(grid_specs_match(grid_options(DEFAULT_SEED)));
        assert!(grid_specs_match(sosd_options(input_seed(DEFAULT_SEED, 3))));
    }

    #[test]
    fn paper_spec_is_the_reports_traced_config() {
        use sos_core::{MappingDegree, Scenario, SystemParams, ThreatPreset};
        let system = SystemParams::new(10_000, 100, 0.5).unwrap();
        let scenario = Scenario::builder()
            .system(system)
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        let report =
            SimulationConfig::new(scenario, ThreatPreset::PaperIntelligent.attack(&system))
                .trials(5)
                .routes_per_trial(100)
                .seed(42);
        assert_eq!(
            sos_sim::config_fingerprint(&report),
            sos_sim::config_fingerprint(&spec_config(&paper_spec(42, 100)))
        );
    }
}
