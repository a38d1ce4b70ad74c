//! Command implementations for the `sos` CLI.

use crate::args::{ArgError, ParsedArgs};
use sos_analysis::{OneBurstAnalysis, SuccessiveAnalysis};
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, NodeDistribution, PathEvaluator, Scenario,
    SuccessiveParams, SystemParams,
};
use sos_sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos_sim::routing::RoutingPolicy;

/// Top-level usage text; [`usage`] fills in the figure names.
const USAGE: &str = "\
sos — generalized Secure Overlay Services analysis & simulation (ICDCS 2004)

USAGE:
    sos <COMMAND> [FLAGS]

COMMANDS:
    analyze    closed-form P_S for one configuration
    simulate   Monte Carlo P_S for one configuration
    profile    run a workload under the live telemetry plane and print
               the per-phase wall-clock profile (build | break-in |
               congestion | routing), p50/p95/p99, trials/s, worker
               utilization and sweep-cache hits
    trace      traced Monte Carlo run: per-trial attack-phase timeline
    compare    closed-form vs Monte Carlo side by side
    figure     print one report section as `full_report` writes it, or
               `all`: the seven paper figures (names under FIGURE FLAGS)
    serve      run sosd, the resident analysis daemon: owns the worker
               pool and a warm sweep cache, answers analyze/simulate/
               sweep/profile/trace/ping/shutdown requests over a
               length-prefixed JSON protocol, and serves Prometheus GET
               /metrics + GET /healthz + Chrome-trace GET /debug/trace
               on the same port (PROTOCOL.md, OPERATIONS.md)
    client     send one request to a running sosd and print the reply
    optimize   search the design grid for the best worst-case design
    frontier   latency-resilience Pareto frontier over the design grid
    tornado    parameter-sensitivity analysis around an operating point
    advise     lint a design against the standard threat catalogue

SHARED FLAGS (defaults = the paper's):
    --overlay-nodes N    total overlay population      [10000]
    --sos-nodes n        SOS nodes                     [100]
    --pb P_B             break-in success probability  [0.5]
    --filters F          filter count                  [10]
    --layers L           number of layers              [3]
    --mapping M          one-to-one | one-to-K | one-to-half | one-to-all [one-to-2]
    --distribution D     even | increasing | decreasing [even]
    --nt N_T             break-in budget               [200]
    --nc N_C             congestion budget             [2000]
    --model M            one-burst | successive        [successive]
    --rounds R           successive rounds             [3]
    --pe P_E             prior first-layer knowledge   [0.2]
    --evaluator E        binomial | hypergeometric     [binomial]

SIMULATE FLAGS:
    --trials T           attacked overlays             [100]
    --routes K           routes per trial              [100]
    --seed S             master seed                   [0]
    --policy P           random-good | first-good | backtracking [random-good]
    --transport T        direct | chord                [direct]
    --threads N          worker threads                [all cores, max 16]
    --trace-out F        write the event trace as JSONL to file F
    --metrics-out F      write aggregated metrics as CSV to file F
                         (either flag switches to the traced runner,
                         single-threaded unless --threads is given;
                         events come in trial order at any --threads)
    --faults SPEC        deterministic benign-fault plane: a bare loss
                         rate (0.2) or key=value pairs, e.g.
                         loss=0.2,delay=0.1,delay-ticks=4,crash=0.01,
                         slow=0.05,slow-ticks=2,misroute=0.02,seed=7
    --retry SPEC         per-hop retries when faults are on: a bare
                         attempt count (4) or attempts=4,backoff=1,
                         deadline=64 (backoff/deadline in sim ticks)
    --progress 1         live progress line on stderr (points, trials,
                         trials/s, worker utilization, cache hits, ETA)
    --telemetry-out F    periodic machine-readable telemetry snapshots:
                         `.prom`/`.txt` = Prometheus text exposition
                         rewritten in place, anything else = one JSON
                         line appended per interval (JSONL)
    --json 1             machine-readable {fingerprint, result} output,
                         byte-identical to what `sos client simulate`
                         prints for the same flags; runs through the
                         sweep executor so --cache answers repeats
                         from the cache file (cache hit/miss on stderr)
    --cache F            (with --json 1) persistent sweep cache file,
                         same format as `figure --cache` and
                         `serve --cache`

PROFILE FLAGS (plus --progress/--telemetry-out/--threads and, for the
simulate workload, every shared + simulate flag above):
    --workload W         grid | simulate: the 42-point ablation-shaped
                         sweep grid (the sweep-grid bench workload)
                         or a single simulate-shaped run   [grid]
    --trials T           (grid) attacked overlays per point [2]
    --routes K           (grid) routes per trial            [20]
    --seed S             (grid) master seed                 [13]
    --interval-ms MS     reporter snapshot interval         [500]
    --telemetry 0        disable the telemetry plane (reference run:
                         results must be byte-identical)    [1]
    --results-out F      write the workload's numeric results to F
                         (diff against a --telemetry 0 run)
    --spans-out F        run with the request-tracing plane on and
                         write the recorded spans (cache probes, sweep
                         points, pool batches) as Chrome trace-event
                         JSON to F — loadable in Perfetto or
                         chrome://tracing
    --cache F            (grid) persistent sweep cache, as `figure`

TRACE FLAGS (plus the shared topology flags and --routes/--seed/
--policy/--transport/--threads/--trace-out/--metrics-out/--faults/
--retry above):
    --scenario P         attack preset: moderate-flooder | heavy-flooder |
                         paper-intelligent | patient-intruder | balanced
                         [paper-intelligent]
    --trials T           attacked overlays             [3]

FIGURE FLAGS (sos figure <NAME>; `all` prints the seven paper figures,
every other name the report section that `full_report` writes):
{figure-names}
    --cache F            persistent sweep-result cache file: Monte Carlo
                         sections answer repeated points from F instead
                         of re-simulating (byte-identical output);
                         created on first use
    --trials T           (Monte Carlo sections) attacked overlays [100]
    --routes K           (Monte Carlo and trace sections) routes per
                         trial [100]
    --seed S             (Monte Carlo and trace sections) master seed [42]
                         A sizing flag the section does not read is
                         refused (exit code 2).

SERVE FLAGS (plus --progress/--telemetry-out/--interval-ms as simulate;
see PROTOCOL.md for the wire format, OPERATIONS.md for running it):
    --addr A             listen address                [127.0.0.1:7070]
    --cache F            persistent sweep cache: loaded at startup
                         (warm start, corrupt files quarantined to
                         F.corrupt), each request's executed points
                         journaled before it is answered, compacted
                         on drain
    --threads N          worker threads for this daemon [all cores, max 16]
    --queue-depth N      executor admission bound: further simulate/
                         sweep requests are shed with a `busy` error
                         and a retry_after_ms hint  [16]
    --slow-ms MS         slow-request threshold: requests at or over it
                         are counted (sos_serve_slow_requests_total)
                         and logged as one structured JSONL line
                         [disabled]
    --slow-log F         append slow-request lines and flight-recorder
                         anomaly dumps to F instead of stderr

CLIENT FLAGS (sos client <OP>; OP = ping | analyze | simulate | sweep |
profile | trace | shutdown; analyze and simulate take every shared +
simulate flag above and print the reply as JSON — byte-identical to
`sos analyze --json 1` / `sos simulate --json 1` for the same flags;
trace prints the daemon's flight recorder as Chrome trace-event JSON):
    --addr A             daemon address                [127.0.0.1:7070]
    --specs F            (sweep) JSON file holding an array of spec
                         objects (field names as in PROTOCOL.md)
    --timing 1           (simulate) print the client-observed RTT next
                         to the server-attributed timing breakdown
                         (queue/lock/phase ns) on stderr; stdout is
                         unchanged
    --retries N          (all ops except shutdown) attempts per request:
                         reconnect-and-resend on transport errors,
                         honor retry_after_ms on `busy` shedding  [1]
    --retry-backoff-ms B initial retry backoff, doubling per attempt
                         [100]
    --deadline-ms D      (simulate/sweep) server-side deadline budget;
                         an expired budget is answered with
                         `deadline-exceeded` instead of computed, and
                         a sweep stops cooperatively between points

OTHER FLAGS:
    --json 1             (analyze) machine-readable output
    --top K              (optimize) rows to print            [10]
    --max-latency T      (optimize) clean-latency constraint
    --pareto-only 1      (frontier) hide dominated designs
    --step S             (tornado) relative perturbation     [0.25]
    --threats a,b,…      (advise) threat subset: moderate-flooder |
                         heavy-flooder | paper-intelligent |
                         patient-intruder | balanced          [all]

EXAMPLES:
    sos analyze --layers 4 --mapping one-to-2
    sos simulate --nt 200 --nc 2000 --trials 200 --seed 7
    sos simulate --trials 500 --progress 1 --telemetry-out telemetry.prom
    sos profile --workload grid --telemetry-out profile.prom
    sos profile --workload simulate --trials 200 --threads 8
    sos simulate --faults 0.2 --retry 4 --trials 200
    sos trace --scenario paper-intelligent --trace-out trace.jsonl
    sos trace --faults loss=0.3,delay=0.1 --retry attempts=3,backoff=2
    sos compare --mapping one-to-all --model one-burst
    sos figure fig6a
    sos figure ext-faults --cache sweep.json --trials 30 --routes 40
    sos serve --addr 127.0.0.1:7070 --cache sweep.json
    sos serve --slow-ms 250 --slow-log slow.jsonl
    sos profile --workload grid --spans-out spans.json
    sos client analyze --layers 4
    sos client simulate --trials 200 --seed 7 --timing 1
    sos client trace > trace.json
    sos client shutdown
    sos optimize --max-latency 5
    sos tornado --mapping one-to-5
    sos advise --mapping one-to-all
";

/// The usage text with every name `sos figure` accepts, wrapped to
/// the width of the flag columns.
pub fn usage() -> String {
    let mut names = String::new();
    let mut line_len = 0;
    for name in figure_names() {
        if line_len > 0 && line_len + 1 + name.len() > 72 {
            names.push('\n');
            line_len = 0;
        }
        let sep = if line_len == 0 { "    " } else { " " };
        names.push_str(sep);
        names.push_str(name);
        line_len += sep.len() + name.len();
    }
    USAGE.replace("{figure-names}", &names)
}

/// Runs the CLI against raw arguments (without the program name);
/// returns the process exit code.
pub fn run<I, S>(args: I, out: &mut dyn std::io::Write) -> i32
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    match dispatch(args, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            let _ = writeln!(out, "run `sos` with no arguments for usage");
            if e.is::<IgnoredFlags>() {
                2
            } else {
                1
            }
        }
    }
}

/// Sizing flags given to `sos figure` that the chosen section does not
/// read; refused (exit code 2) rather than silently ignored.
#[derive(Debug)]
struct IgnoredFlags(String);

impl std::fmt::Display for IgnoredFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for IgnoredFlags {}

fn dispatch<I, S>(args: I, out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let parsed = ParsedArgs::parse(args)?;
    let command = parsed.positionals().first().map(String::as_str);
    match command {
        None | Some("help") => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        Some("analyze") => analyze(&parsed, out),
        Some("simulate") => simulate(&parsed, out),
        Some("profile") => profile(&parsed, out),
        Some("trace") => trace_cmd(&parsed, out),
        Some("compare") => compare(&parsed, out),
        Some("figure") => figure(&parsed, out),
        Some("serve") => serve_cmd(&parsed, out),
        Some("client") => client_cmd(&parsed, out),
        Some("optimize") => optimize(&parsed, out),
        Some("frontier") => frontier(&parsed, out),
        Some("tornado") => tornado_cmd(&parsed, out),
        Some("advise") => advise(&parsed, out),
        Some(other) => Err(ArgError(format!("unknown command `{other}`")).into()),
    }
}

fn parse_mapping(raw: &str) -> Result<MappingDegree, ArgError> {
    match raw {
        "one-to-one" | "one-to-1" => Ok(MappingDegree::ONE_TO_ONE),
        "one-to-half" => Ok(MappingDegree::OneToHalf),
        "one-to-all" => Ok(MappingDegree::OneToAll),
        other => {
            if let Some(k) = other.strip_prefix("one-to-") {
                let k: u64 = k
                    .parse()
                    .map_err(|_| ArgError(format!("unrecognized mapping `{other}`")))?;
                Ok(MappingDegree::OneTo(k))
            } else {
                Err(ArgError(format!(
                    "unrecognized mapping `{other}` (try one-to-one, one-to-5, one-to-half, one-to-all)"
                )))
            }
        }
    }
}

fn parse_distribution(raw: &str) -> Result<NodeDistribution, ArgError> {
    match raw {
        "even" => Ok(NodeDistribution::Even),
        "increasing" => Ok(NodeDistribution::Increasing),
        "decreasing" => Ok(NodeDistribution::Decreasing),
        other => Err(ArgError(format!(
            "unrecognized distribution `{other}` (even | increasing | decreasing)"
        ))),
    }
}

fn parse_evaluator(raw: &str) -> Result<PathEvaluator, ArgError> {
    match raw {
        "binomial" => Ok(PathEvaluator::Binomial),
        "hypergeometric" => Ok(PathEvaluator::Hypergeometric),
        other => Err(ArgError(format!(
            "unrecognized evaluator `{other}` (binomial | hypergeometric)"
        ))),
    }
}

struct CommonConfig {
    scenario: Scenario,
    attack: AttackConfig,
    evaluator: PathEvaluator,
}

fn common_config(args: &ParsedArgs) -> Result<CommonConfig, Box<dyn std::error::Error>> {
    let overlay_nodes: u64 = args.get_or("overlay-nodes", 10_000)?;
    let sos_nodes: u64 = args.get_or("sos-nodes", 100)?;
    let p_b: f64 = args.get_or("pb", 0.5)?;
    let filters: u64 = args.get_or("filters", 10)?;
    let layers: usize = args.get_or("layers", 3)?;
    let mapping = parse_mapping(args.get("mapping").unwrap_or("one-to-2"))?;
    let distribution = parse_distribution(args.get("distribution").unwrap_or("even"))?;
    let evaluator = parse_evaluator(args.get("evaluator").unwrap_or("binomial"))?;

    let scenario = Scenario::builder()
        .system(SystemParams::new(overlay_nodes, sos_nodes, p_b)?)
        .layers(layers)
        .distribution(distribution)
        .mapping(mapping)
        .filters(filters)
        .build()?;

    let budget = AttackBudget::new(args.get_or("nt", 200)?, args.get_or("nc", 2_000)?);
    let attack = match args.get("model").unwrap_or("successive") {
        "one-burst" => AttackConfig::OneBurst { budget },
        "successive" => AttackConfig::Successive {
            budget,
            params: SuccessiveParams::new(args.get_or("rounds", 3)?, args.get_or("pe", 0.2)?)?,
        },
        other => return Err(ArgError(format!("unknown model `{other}`")).into()),
    };
    Ok(CommonConfig {
        scenario,
        attack,
        evaluator,
    })
}

fn analyze(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = common_config(args)?;
    let json = args.get("json").is_some();
    args.reject_unknown()?;
    let (ps, layer_ps, broken, congested) = match cfg.attack {
        AttackConfig::OneBurst { budget } => {
            let report = OneBurstAnalysis::new(&cfg.scenario, budget)?.run();
            (
                report.success_probability(cfg.evaluator).value(),
                report.layer_successes(cfg.evaluator),
                report.total_broken,
                report.congested.iter().sum::<f64>(),
            )
        }
        AttackConfig::Successive { budget, params } => {
            let report = SuccessiveAnalysis::new(&cfg.scenario, budget, params)?.run();
            (
                report.success_probability(cfg.evaluator).value(),
                report.layer_successes(cfg.evaluator),
                report.total_broken,
                report.congested.iter().sum::<f64>(),
            )
        }
    };
    if json {
        // Machine-readable manifest + result (audit trail for batch
        // experiment runners).
        let doc = serde_json::json!({
            "scenario": cfg.scenario,
            "attack": cfg.attack,
            "evaluator": cfg.evaluator,
            "ps": ps,
            "per_layer_success": layer_ps,
            "expected_broken": broken,
            "expected_congested": congested,
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&doc)?)?;
        return Ok(());
    }
    writeln!(out, "model: {}", cfg.attack.model_name())?;
    writeln!(out, "evaluator: {}", cfg.evaluator)?;
    writeln!(
        out,
        "layer sizes: {:?}",
        cfg.scenario.topology().layer_sizes()
    )?;
    writeln!(out, "P_S: {ps:.6}")?;
    for (i, p) in layer_ps.iter().enumerate() {
        let name = if i == layer_ps.len() - 1 {
            "filters".to_string()
        } else {
            format!("layer {}", i + 1)
        };
        writeln!(out, "  P_{} ({name}): {p:.6}", i + 1)?;
    }
    writeln!(out, "expected broken-in nodes: {broken:.2}")?;
    writeln!(out, "expected congested nodes: {congested:.2}")?;
    Ok(())
}

fn parse_policy(raw: &str) -> Result<RoutingPolicy, ArgError> {
    match raw {
        "random-good" => Ok(RoutingPolicy::RandomGood),
        "first-good" => Ok(RoutingPolicy::FirstGood),
        "backtracking" => Ok(RoutingPolicy::Backtracking),
        other => Err(ArgError(format!("unknown policy `{other}`"))),
    }
}

fn parse_transport(raw: &str) -> Result<TransportKind, ArgError> {
    match raw {
        "direct" => Ok(TransportKind::Direct),
        "chord" => Ok(TransportKind::Chord),
        other => Err(ArgError(format!("unknown transport `{other}`"))),
    }
}

/// Parses `--faults`: either a bare loss rate (`0.2`) or a comma list
/// of `key=value` pairs (`loss=0.2,delay=0.1,delay-ticks=4,crash=0.01,
/// slow=0.05,slow-ticks=2,misroute=0.02,seed=7`).
fn parse_faults(raw: &str) -> Result<sos_faults::FaultConfig, ArgError> {
    let mut cfg = sos_faults::FaultConfig::none();
    if let Ok(loss) = raw.parse::<f64>() {
        if !(0.0..=1.0).contains(&loss) {
            return Err(ArgError(format!(
                "--faults: loss rate {loss} not in [0, 1]"
            )));
        }
        return Ok(cfg.loss(loss));
    }
    let mut delay = (0.0f64, 4u64);
    let mut slow = (0.0f64, 2u64);
    for pair in raw.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            ArgError(format!(
                "--faults: expected key=value, got `{pair}` \
                 (keys: loss delay delay-ticks crash slow slow-ticks misroute seed)"
            ))
        })?;
        let rate = |v: &str| -> Result<f64, ArgError> {
            let r: f64 = v
                .parse()
                .map_err(|e| ArgError(format!("--faults: {key}={v}: {e}")))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(ArgError(format!("--faults: {key}={r} not in [0, 1]")));
            }
            Ok(r)
        };
        let ticks = |v: &str| -> Result<u64, ArgError> {
            v.parse()
                .map_err(|e| ArgError(format!("--faults: {key}={v}: {e}")))
        };
        match key.trim() {
            "loss" => cfg = cfg.loss(rate(value)?),
            "delay" => delay.0 = rate(value)?,
            "delay-ticks" => delay.1 = ticks(value)?,
            "crash" => cfg = cfg.crash(rate(value)?),
            "slow" => slow.0 = rate(value)?,
            "slow-ticks" => slow.1 = ticks(value)?,
            "misroute" => cfg = cfg.misroute(rate(value)?),
            "seed" => cfg = cfg.seed(ticks(value)?),
            other => {
                return Err(ArgError(format!(
                    "--faults: unknown key `{other}` \
                     (keys: loss delay delay-ticks crash slow slow-ticks misroute seed)"
                )))
            }
        }
    }
    Ok(cfg.delay(delay.0, delay.1).slow(slow.0, slow.1))
}

/// Parses `--retry`: either a bare attempt count (`4`) or a comma list
/// of `key=value` pairs (`attempts=4,backoff=1,deadline=64`).
fn parse_retry(raw: &str) -> Result<sos_faults::RetryPolicy, ArgError> {
    if let Ok(attempts) = raw.parse::<u32>() {
        if attempts == 0 {
            return Err(ArgError("--retry: need at least one attempt".into()));
        }
        return Ok(sos_faults::RetryPolicy::new(attempts, 1, u64::MAX));
    }
    let mut attempts = 1u32;
    let mut backoff = 1u64;
    let mut deadline = u64::MAX;
    for pair in raw.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            ArgError(format!(
                "--retry: expected key=value, got `{pair}` (keys: attempts backoff deadline)"
            ))
        })?;
        match key.trim() {
            "attempts" => {
                attempts = value
                    .parse()
                    .map_err(|e| ArgError(format!("--retry: attempts={value}: {e}")))?;
                if attempts == 0 {
                    return Err(ArgError("--retry: need at least one attempt".into()));
                }
            }
            "backoff" => {
                backoff = value
                    .parse()
                    .map_err(|e| ArgError(format!("--retry: backoff={value}: {e}")))?;
            }
            "deadline" => {
                deadline = value
                    .parse()
                    .map_err(|e| ArgError(format!("--retry: deadline={value}: {e}")))?;
            }
            other => {
                return Err(ArgError(format!(
                    "--retry: unknown key `{other}` (keys: attempts backoff deadline)"
                )))
            }
        }
    }
    Ok(sos_faults::RetryPolicy::new(attempts, backoff, deadline))
}

/// Reads the optional fault-plane flags shared by `simulate` and
/// `trace`.
fn fault_flags(
    args: &ParsedArgs,
) -> Result<(sos_faults::FaultConfig, sos_faults::RetryPolicy), ArgError> {
    let faults = match args.get("faults") {
        None => sos_faults::FaultConfig::none(),
        Some(raw) => parse_faults(raw)?,
    };
    let retry = match args.get("retry") {
        None => sos_faults::RetryPolicy::none(),
        Some(raw) => parse_retry(raw)?,
    };
    Ok((faults, retry))
}

/// One-line summary of the active fault plane for command output.
fn describe_faults(faults: &sos_faults::FaultConfig, retry: &sos_faults::RetryPolicy) -> String {
    let mut parts = Vec::new();
    if faults.loss_rate > 0.0 {
        parts.push(format!("loss={}", faults.loss_rate));
    }
    if faults.delay_rate > 0.0 {
        parts.push(format!(
            "delay={}x{}t",
            faults.delay_rate, faults.delay_ticks
        ));
    }
    if faults.crash_rate > 0.0 {
        parts.push(format!("crash={}", faults.crash_rate));
    }
    if faults.slow_rate > 0.0 {
        parts.push(format!("slow={}x{}t", faults.slow_rate, faults.slow_ticks));
    }
    if faults.misroute_rate > 0.0 {
        parts.push(format!("misroute={}", faults.misroute_rate));
    }
    let retry_part = if retry.is_none() {
        "no retries".to_string()
    } else if retry.deadline == u64::MAX {
        format!(
            "retry attempts={} backoff={}",
            retry.max_attempts, retry.backoff_base
        )
    } else {
        format!(
            "retry attempts={} backoff={} deadline={}",
            retry.max_attempts, retry.backoff_base, retry.deadline
        )
    };
    format!("{} ({retry_part})", parts.join(" "))
}

/// Writes the requested observability sinks, reporting each file on
/// `out`.
fn write_sinks(
    out: &mut dyn std::io::Write,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    events: &[sos_observe::Event],
    metrics: &sos_observe::MetricsRegistry,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = trace_out {
        std::fs::write(path, sos_observe::write_jsonl(events))?;
        writeln!(out, "trace: {} events -> {path}", events.len())?;
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, metrics.to_csv())?;
        writeln!(out, "metrics: -> {path}")?;
    }
    Ok(())
}

/// Parses the `--threads` flag: `Some(n)` when given explicitly,
/// `None` when absent (callers pick the context-appropriate default —
/// [`sos_sim::num_threads`] for untraced runs, one thread for traced
/// runs so their float aggregates match an untraced serial `run`).
fn threads_flag(args: &ParsedArgs) -> Result<Option<usize>, ArgError> {
    match args.get("threads") {
        None => Ok(None),
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|e| ArgError(format!("flag --threads: cannot parse {raw:?}: {e}")))?;
            if n == 0 {
                return Err(ArgError("flag --threads: need at least one thread".into()));
            }
            Ok(Some(n))
        }
    }
}

/// Reads the live-telemetry flags shared by `simulate` and `profile`:
/// `--progress`, `--telemetry-out`, `--interval-ms`. Returns `Some`
/// reporter options when either output is requested (`--progress 0`
/// and `--telemetry-out` alone still start the reporter for the sink).
fn reporter_flags(args: &ParsedArgs) -> Result<Option<sos_observe::ReporterOptions>, ArgError> {
    let progress = args.get("progress").is_some_and(|v| v != "0");
    let telemetry_out = args.get("telemetry-out").map(std::path::PathBuf::from);
    let interval_ms: u64 = args.get_or("interval-ms", 500)?;
    if !progress && telemetry_out.is_none() {
        return Ok(None);
    }
    Ok(Some(sos_observe::ReporterOptions {
        interval: std::time::Duration::from_millis(interval_ms.max(1)),
        progress,
        out: telemetry_out,
    }))
}

/// Renders one `SimulationResult` as a stable CSV row (used by
/// `profile` so telemetry-on and telemetry-off runs can be diffed
/// byte for byte).
fn result_csv_row(point: usize, r: &sos_sim::engine::SimulationResult) -> String {
    format!(
        "{point},{},{},{:.6},{:.6},{:.6},{:.2}",
        r.successes,
        r.attempts,
        r.success_rate(),
        r.realized_ps_hypergeometric,
        r.realized_ps_binomial,
        r.mean_underlay_hops,
    )
}

fn profile(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_observe::{ProgressReporter, ReporterOptions};

    let workload = args.get("workload").unwrap_or("grid").to_string();
    let telemetry_on: u64 = args.get_or("telemetry", 1)?;
    let results_out = args.get("results-out").map(str::to_string);
    let spans_out = args.get("spans-out").map(str::to_string);
    let reporter_opts = reporter_flags(args)?;
    let threads = threads_flag(args)?;

    // `--spans-out` turns on the request-tracing plane for this run:
    // executor spans (cache probes, sweep points, pool batches) land
    // in the flight recorder and are exported as Chrome trace JSON.
    if spans_out.is_some() {
        sos_observe::trace::recorder().clear();
        sos_observe::trace::set_enabled(true);
    }

    // The reporter starts before the workload so the interval sink
    // sees it live; `--telemetry 0` gives the reference run whose
    // numeric results must be byte-identical.
    let reporter = if telemetry_on != 0 {
        Some(ProgressReporter::start(reporter_opts.clone().unwrap_or(
            ReporterOptions {
                progress: false,
                ..ReporterOptions::default()
            },
        )))
    } else {
        sos_observe::telemetry::set_enabled(false);
        None
    };

    let results = match workload.as_str() {
        "grid" => {
            let trials: u64 = args.get_or("trials", 2)?;
            let routes: u64 = args.get_or("routes", 20)?;
            let seed: u64 = args.get_or("seed", 13)?;
            let cache = args.get("cache").map(str::to_string);
            args.reject_unknown()?;
            let configs =
                sos_bench::ablations::profile_grid(sos_bench::ablations::AblationOptions {
                    trials,
                    routes_per_trial: routes,
                    seed,
                });
            let results = if let Some(path) = cache {
                let loaded = sos_sim::set_global_cache(&path)?;
                eprintln!("sweep cache {path}: {loaded} entries loaded");
                let results = sos_sim::run_sweep(&configs);
                sos_sim::persist_global_cache();
                results
            } else if let Some(t) = threads {
                sos_sim::SweepExecutor::with_threads(t).run(&configs)
            } else {
                sos_sim::run_sweep(&configs)
            };
            let mut text = String::from(
                "point,successes,attempts,ps,realized_hypergeometric,realized_binomial,mean_hops\n",
            );
            for (i, r) in results.iter().enumerate() {
                text.push_str(&result_csv_row(i, r));
                text.push('\n');
            }
            text
        }
        "simulate" => {
            let cfg = common_config(args)?;
            let trials: u64 = args.get_or("trials", 100)?;
            let routes: u64 = args.get_or("routes", 100)?;
            let seed: u64 = args.get_or("seed", 0)?;
            let policy = parse_policy(args.get("policy").unwrap_or("random-good"))?;
            let transport = parse_transport(args.get("transport").unwrap_or("direct"))?;
            let (faults, retry) = fault_flags(args)?;
            args.reject_unknown()?;
            let result = Simulation::new(
                SimulationConfig::new(cfg.scenario, cfg.attack)
                    .trials(trials)
                    .routes_per_trial(routes)
                    .seed(seed)
                    .policy(policy)
                    .transport(transport)
                    .faults(faults)
                    .retry(retry),
            )
            .run_parallel(threads.unwrap_or_else(sos_sim::num_threads));
            let mut text = String::from(
                "point,successes,attempts,ps,realized_hypergeometric,realized_binomial,mean_hops\n",
            );
            text.push_str(&result_csv_row(0, &result));
            text.push('\n');
            text
        }
        other => {
            return Err(ArgError(format!("unknown workload `{other}` (grid | simulate)")).into())
        }
    };

    write!(out, "{results}")?;
    if let Some(path) = results_out {
        std::fs::write(&path, &results)?;
        writeln!(out, "results: -> {path}")?;
    }
    if let Some(path) = spans_out {
        sos_observe::trace::set_enabled(false);
        let spans =
            sos_observe::trace::recorder().recent(sos_observe::trace::FLIGHT_RECORDER_CAPACITY);
        std::fs::write(&path, sos_observe::trace::chrome_trace_json(&spans))?;
        writeln!(out, "spans: {} -> {path}", spans.len())?;
    }
    match reporter {
        Some(reporter) => {
            let sink = reporter.sink_path();
            let snap = reporter.finish();
            writeln!(out)?;
            write!(out, "{}", snap.profile_table())?;
            if let Some(path) = sink {
                writeln!(out, "telemetry: -> {}", path.display())?;
            }
        }
        None => {
            writeln!(
                out,
                "telemetry disabled (--telemetry 0): reference run, no profile"
            )?;
        }
    }
    Ok(())
}

fn simulate(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = common_config(args)?;
    let trials: u64 = args.get_or("trials", 100)?;
    let routes: u64 = args.get_or("routes", 100)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let policy = parse_policy(args.get("policy").unwrap_or("random-good"))?;
    let transport = parse_transport(args.get("transport").unwrap_or("direct"))?;
    let (faults, retry) = fault_flags(args)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let threads = threads_flag(args)?;
    let reporter_opts = reporter_flags(args)?;
    let json_out = args.get("json").is_some_and(|v| v != "0");
    let cache = args.get("cache").map(str::to_string);
    args.reject_unknown()?;

    if json_out {
        if trace_out.is_some() || metrics_out.is_some() {
            return Err(ArgError(
                "flag --json: cannot combine with --trace-out/--metrics-out".into(),
            )
            .into());
        }
        let reporter = reporter_opts.map(sos_observe::ProgressReporter::start);
        let config = SimulationConfig::new(cfg.scenario, cfg.attack)
            .trials(trials)
            .routes_per_trial(routes)
            .seed(seed)
            .policy(policy)
            .transport(transport)
            .faults(faults)
            .retry(retry);
        let mut exec = match threads {
            Some(t) => sos_sim::SweepExecutor::with_threads(t),
            None => sos_sim::SweepExecutor::new(),
        };
        if let Some(path) = &cache {
            // Stderr, not `out`: the JSON document on stdout must stay
            // byte-identical between cold and warm cache runs (CI
            // diffs it against the daemon's answer for the same spec).
            let loaded = exec.attach_cache(path)?;
            eprintln!("sweep cache {path}: {loaded} entries loaded");
        }
        let fingerprint = sos_sim::config_fingerprint(&config);
        let before = exec.stats().points_executed;
        let result = exec.run_one(&config);
        let cached = exec.stats().points_executed == before;
        exec.persist();
        if let Some(reporter) = reporter {
            reporter.finish();
        }
        eprintln!("cache: {}", if cached { "hit" } else { "miss" });
        let doc = serde_json::json!({
            "fingerprint": format!("{fingerprint:016x}"),
            "result": result,
        });
        writeln!(out, "{}", serde_json::to_string_pretty(&doc)?)?;
        return Ok(());
    }
    if cache.is_some() {
        return Err(ArgError("flag --cache on simulate requires --json 1".into()).into());
    }

    // Live telemetry observes but never steers: counts are identical
    // with the reporter on or off.
    let reporter = reporter_opts.map(sos_observe::ProgressReporter::start);
    let sim = Simulation::new(
        SimulationConfig::new(cfg.scenario, cfg.attack)
            .trials(trials)
            .routes_per_trial(routes)
            .seed(seed)
            .policy(policy)
            .transport(transport)
            .faults(faults)
            .retry(retry),
    );
    let result = if trace_out.is_some() || metrics_out.is_some() {
        // Traced runs default to one thread, whose float aggregates
        // match an untraced serial run; an explicit --threads opts into
        // the parallel traced runner (counts and events identical, in
        // trial order; floats may move in the last ulps).
        let recorder = sos_observe::MemoryRecorder::new();
        let (result, metrics) = match threads {
            Some(t) if t > 1 => sim.run_parallel_traced(t, &recorder),
            _ => sim.run_traced(&recorder),
        };
        write_sinks(
            out,
            trace_out.as_deref(),
            metrics_out.as_deref(),
            &recorder.take_events(),
            &metrics,
        )?;
        result
    } else {
        sim.run_parallel(threads.unwrap_or_else(sos_sim::num_threads))
    };
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let ci = result.confidence_interval(0.95);
    writeln!(out, "model: {}", cfg.attack.model_name())?;
    writeln!(out, "policy: {policy}  transport: {}", transport.label())?;
    if !faults.is_none() {
        writeln!(out, "faults: {}", describe_faults(&faults, &retry))?;
    }
    writeln!(
        out,
        "trials: {trials}  routes/trial: {routes}  seed: {seed}"
    )?;
    writeln!(out, "empirical P_S: {:.6}", result.success_rate())?;
    writeln!(out, "95% CI: [{:.6}, {:.6}]", ci.lower, ci.upper)?;
    writeln!(
        out,
        "per-trial spread: mean {:.4}, sd {:.4}, min {:.4}, max {:.4}",
        result.per_trial.mean, result.per_trial.std_dev, result.per_trial.min, result.per_trial.max
    )?;
    writeln!(
        out,
        "eq.(1) on realized states: hypergeometric {:.6}, binomial {:.6}",
        result.realized_ps_hypergeometric, result.realized_ps_binomial
    )?;
    writeln!(out, "mean underlay hops: {:.2}", result.mean_underlay_hops)?;
    if let Some(layer) = result.bottleneck_layer() {
        writeln!(
            out,
            "failure bottleneck: layer {layer} ({} of {} failures died there)",
            result.failure_depths[layer],
            result.failure_depths.iter().sum::<u64>()
        )?;
    }
    Ok(())
}

fn trace_cmd(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_core::ThreatPreset;

    let label = args.get("scenario").unwrap_or("paper-intelligent");
    let preset = ThreatPreset::parse(label).ok_or_else(|| {
        ArgError(format!(
            "unknown scenario `{label}` (moderate-flooder | heavy-flooder | \
             paper-intelligent | patient-intruder | balanced)"
        ))
    })?;

    let overlay_nodes: u64 = args.get_or("overlay-nodes", 10_000)?;
    let sos_nodes: u64 = args.get_or("sos-nodes", 100)?;
    let p_b: f64 = args.get_or("pb", 0.5)?;
    let filters: u64 = args.get_or("filters", 10)?;
    let layers: usize = args.get_or("layers", 3)?;
    let mapping = parse_mapping(args.get("mapping").unwrap_or("one-to-2"))?;
    let distribution = parse_distribution(args.get("distribution").unwrap_or("even"))?;
    let trials: u64 = args.get_or("trials", 3)?;
    let routes: u64 = args.get_or("routes", 50)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let policy = parse_policy(args.get("policy").unwrap_or("random-good"))?;
    let transport = parse_transport(args.get("transport").unwrap_or("direct"))?;
    let (faults, retry) = fault_flags(args)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let threads = threads_flag(args)?;
    args.reject_unknown()?;

    let system = SystemParams::new(overlay_nodes, sos_nodes, p_b)?;
    let attack = preset.attack(&system);
    let scenario = Scenario::builder()
        .system(system)
        .layers(layers)
        .distribution(distribution)
        .mapping(mapping)
        .filters(filters)
        .build()?;

    let sim = Simulation::new(
        SimulationConfig::new(scenario, attack)
            .trials(trials)
            .routes_per_trial(routes)
            .seed(seed)
            .policy(policy)
            .transport(transport)
            .faults(faults)
            .retry(retry),
    );
    let recorder = sos_observe::MemoryRecorder::new();
    // One thread by default, whose floats match an untraced serial
    // run; --threads opts into the pooled traced runner (counts and
    // events identical, in trial order).
    let (result, metrics) = match threads {
        Some(t) if t > 1 => sim.run_parallel_traced(t, &recorder),
        _ => sim.run_traced(&recorder),
    };
    let events = recorder.take_events();

    writeln!(
        out,
        "scenario: {} ({})",
        preset.label(),
        attack.model_name()
    )?;
    if !faults.is_none() {
        writeln!(out, "faults: {}", describe_faults(&faults, &retry))?;
    }
    writeln!(
        out,
        "trials: {trials}  routes/trial: {routes}  seed: {seed}"
    )?;
    writeln!(out)?;
    write!(out, "{}", sos_observe::render_timeline(&events))?;
    writeln!(out)?;
    writeln!(out, "empirical P_S: {:.6}", result.success_rate())?;
    write_sinks(
        out,
        trace_out.as_deref(),
        metrics_out.as_deref(),
        &events,
        &metrics,
    )?;
    Ok(())
}

fn compare(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = common_config(args)?;
    let trials: u64 = args.get_or("trials", 100)?;
    let routes: u64 = args.get_or("routes", 100)?;
    let seed: u64 = args.get_or("seed", 0)?;
    args.reject_unknown()?;
    let row = sos_sim::compare_models("cli", &cfg.scenario, cfg.attack, trials, routes, seed)?;
    writeln!(out, "{}", sos_sim::ComparisonRow::CSV_HEADER)?;
    writeln!(out, "{row}")?;
    Ok(())
}

fn optimize(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_analysis::{AttackProfile, Constraints, DesignSpace, Optimizer};
    let overlay_nodes: u64 = args.get_or("overlay-nodes", 10_000)?;
    let sos_nodes: u64 = args.get_or("sos-nodes", 100)?;
    let p_b: f64 = args.get_or("pb", 0.5)?;
    let max_latency: Option<f64> = match args.get("max-latency") {
        None => None,
        Some(raw) => Some(raw.parse()?),
    };
    let top: usize = args.get_or("top", 10)?;
    args.reject_unknown()?;

    let system = SystemParams::new(overlay_nodes, sos_nodes, p_b)?;
    // A representative threat mix from the shared preset catalogue:
    // heavy flood, patient intruder, balanced adversary.
    let profiles: Vec<AttackProfile> = [
        sos_core::ThreatPreset::HeavyFlooder,
        sos_core::ThreatPreset::PatientIntruder,
        sos_core::ThreatPreset::Balanced,
    ]
    .into_iter()
    .map(|preset| AttackProfile::new(preset.label(), preset.attack(&system)))
    .collect();
    let optimizer =
        Optimizer::new(system, DesignSpace::paper_grid(), profiles).constraints(Constraints {
            max_clean_latency: max_latency,
            min_ps_per_profile: None,
        });
    let ranked = optimizer.run()?;
    writeln!(
        out,
        "rank,design,worst_case_ps,heavy-flooder,patient-intruder,balanced,clean_latency"
    )?;
    for (i, d) in ranked.iter().take(top).enumerate() {
        writeln!(
            out,
            "{},L={} {} {},{:.6},{:.6},{:.6},{:.6},{:.2}",
            i + 1,
            d.layers,
            d.mapping,
            d.distribution,
            d.score,
            d.per_profile[0],
            d.per_profile[1],
            d.per_profile[2],
            d.clean_latency
        )?;
    }
    if ranked.is_empty() {
        writeln!(out, "no feasible design under the given constraints")?;
    }
    Ok(())
}

fn frontier(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_analysis::{latency_resilience_frontier, ForwardingDiscipline, LatencyModel};
    let overlay_nodes: u64 = args.get_or("overlay-nodes", 10_000)?;
    let sos_nodes: u64 = args.get_or("sos-nodes", 100)?;
    let p_b: f64 = args.get_or("pb", 0.5)?;
    let chord = matches!(args.get("transport"), Some("chord"));
    let pareto_only = args.get("pareto-only").is_some();
    args.reject_unknown()?;

    let system = SystemParams::new(overlay_nodes, sos_nodes, p_b)?;
    let model = LatencyModel {
        per_hop_mean: 1.0,
        chord_transport: chord,
        discipline: ForwardingDiscipline::DelayAware,
    };
    let points = latency_resilience_frontier(
        system,
        NodeDistribution::Even,
        AttackBudget::paper_default(),
        SuccessiveParams::paper_default(),
        model,
        1..=8,
        &MappingDegree::paper_named_set(),
    )?;
    writeln!(out, "design,P_S,latency,pareto")?;
    for p in points {
        if pareto_only && !p.pareto_optimal {
            continue;
        }
        writeln!(out, "{p}")?;
    }
    Ok(())
}

fn tornado_cmd(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_analysis::{tornado, OperatingPoint};
    let mut point = OperatingPoint::paper_default();
    point.overlay_nodes = args.get_or("overlay-nodes", point.overlay_nodes)?;
    point.sos_nodes = args.get_or("sos-nodes", point.sos_nodes)?;
    point.break_in_probability = args.get_or("pb", point.break_in_probability)?;
    point.layers = args.get_or("layers", point.layers)?;
    point.mapping = parse_mapping(args.get("mapping").unwrap_or("one-to-2"))?;
    point.distribution = parse_distribution(args.get("distribution").unwrap_or("even"))?;
    point.break_in_trials = args.get_or("nt", point.break_in_trials)?;
    point.congestion_capacity = args.get_or("nc", point.congestion_capacity)?;
    point.rounds = args.get_or("rounds", point.rounds)?;
    point.prior_knowledge = args.get_or("pe", point.prior_knowledge)?;
    let step: f64 = args.get_or("step", 0.25)?;
    let evaluator = parse_evaluator(args.get("evaluator").unwrap_or("binomial"))?;
    args.reject_unknown()?;

    let base = point.price(evaluator)?;
    writeln!(out, "# tornado (step ±{:.0}%)", step * 100.0)?;
    writeln!(out, "base P_S: {base:.6}")?;
    writeln!(out, "parameter,ps_low,ps_high,swing")?;
    for entry in tornado(&point, step, evaluator)? {
        writeln!(out, "{entry}")?;
    }
    Ok(())
}

fn advise(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_core::ThreatPreset;
    let cfg = common_config(args)?;
    let threats: Vec<ThreatPreset> = match args.get("threats") {
        None => ThreatPreset::ALL.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|label| {
                ThreatPreset::parse(label.trim()).ok_or_else(|| {
                    ArgError(format!(
                        "unknown threat `{label}` (known: {})",
                        ThreatPreset::ALL.map(|t| t.label()).join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    args.reject_unknown()?;
    let advice = sos_analysis::review(&cfg.scenario, &threats)?;
    writeln!(
        out,
        "reviewing L={} {:?} against {} threats",
        cfg.scenario.topology().layer_count(),
        cfg.scenario.topology().degrees(),
        threats.len()
    )?;
    if advice.is_empty() {
        writeln!(out, "no findings — the design survives the stated threats")?;
    }
    for item in &advice {
        writeln!(out, "{item}")?;
    }
    if sos_analysis::has_critical(&advice) {
        writeln!(out, "verdict: REJECT (critical findings)")?;
    } else {
        writeln!(out, "verdict: acceptable")?;
    }
    Ok(())
}

fn figure(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use sos_bench::report;
    let cache = args.get("cache");
    let trials = args.get_or("trials", 100u64)?;
    let routes = args.get_or("routes", 100u64)?;
    let seed = args.get_or("seed", 42u64)?;
    args.reject_unknown()?;
    let names = || figure_names().join(" ");
    let which = args
        .positionals()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| ArgError(format!("figure requires a name, one of: {}", names())))?;
    // `None` is `all`, the seven paper figures.
    let section = report::section(which);
    if section.is_none() && which != "all" {
        return Err(ArgError(format!("unknown figure `{which}`; one of: {}", names())).into());
    }
    // `all` is the analytic paper figures, which read no sizing.
    let reads = section.map_or(report::Reads::NOTHING, |s| s.reads);
    let ignored: Vec<String> = [
        ("trials", reads.trials),
        ("routes", reads.routes),
        ("seed", reads.seed),
    ]
    .into_iter()
    .filter(|&(key, read)| !read && args.get(key).is_some())
    .map(|(key, _)| format!("--{key}"))
    .collect();
    if !ignored.is_empty() {
        return Err(IgnoredFlags(format!(
            "figure `{which}` does not read {}; drop the flag",
            ignored.join(", ")
        ))
        .into());
    }
    if let Some(path) = cache {
        // Stderr, not `out`: the CSV on stdout must stay byte-identical
        // between cold and warm cache runs (CI asserts exactly that).
        let loaded = sos_sim::set_global_cache(path)?;
        eprintln!("sweep cache {path}: {loaded} entries loaded");
    }
    let opts = sos_bench::AblationOptions {
        trials,
        routes_per_trial: routes,
        seed,
    };
    let text = match section {
        Some(section) => (section.render)(opts),
        None => sos_bench::figures::all()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
    };
    if cache.is_some() {
        sos_sim::persist_global_cache();
    }
    writeln!(out, "{text}")?;
    Ok(())
}

/// The names `sos figure` accepts: `all` (the seven paper figures) and
/// every section of the report catalogue.
fn figure_names() -> Vec<&'static str> {
    std::iter::once("all")
        .chain(sos_bench::report::SECTIONS.iter().map(|s| s.name()))
        .collect()
}

/// Maps the shared + simulate CLI flags onto a wire [`sos_serve::SimSpec`],
/// so `sos client analyze/simulate --layers 4 ...` describes exactly the
/// configuration the same flags describe to `sos analyze/simulate`.
fn spec_from_args(args: &ParsedArgs) -> Result<sos_serve::SimSpec, ArgError> {
    let d = sos_serve::SimSpec::default();
    Ok(sos_serve::SimSpec {
        overlay_nodes: args.get_or("overlay-nodes", d.overlay_nodes)?,
        sos_nodes: args.get_or("sos-nodes", d.sos_nodes)?,
        pb: args.get_or("pb", d.pb)?,
        filters: args.get_or("filters", d.filters)?,
        layers: args.get_or("layers", d.layers)?,
        mapping: args
            .get("mapping")
            .unwrap_or(d.mapping.as_str())
            .to_string(),
        distribution: args
            .get("distribution")
            .unwrap_or(d.distribution.as_str())
            .to_string(),
        evaluator: args
            .get("evaluator")
            .unwrap_or(d.evaluator.as_str())
            .to_string(),
        model: args.get("model").unwrap_or(d.model.as_str()).to_string(),
        nt: args.get_or("nt", d.nt)?,
        nc: args.get_or("nc", d.nc)?,
        rounds: args.get_or("rounds", d.rounds)?,
        pe: args.get_or("pe", d.pe)?,
        trials: args.get_or("trials", d.trials)?,
        routes: args.get_or("routes", d.routes)?,
        seed: args.get_or("seed", d.seed)?,
        policy: args.get("policy").unwrap_or(d.policy.as_str()).to_string(),
        transport: args
            .get("transport")
            .unwrap_or(d.transport.as_str())
            .to_string(),
        faults: args.get("faults").map(str::to_string),
        retry: args.get("retry").map(str::to_string),
    })
}

fn serve_cmd(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070").to_string();
    let threads = threads_flag(args)?;
    let cache = args.get("cache").map(std::path::PathBuf::from);
    let queue_depth = args.get_or(
        "queue-depth",
        sos_serve::ServerOptions::default().queue_depth,
    )?;
    let slow_ms = match args.get("slow-ms") {
        Some(_) => Some(args.get_or("slow-ms", 0)?),
        None => None,
    };
    let slow_log = args.get("slow-log").map(std::path::PathBuf::from);
    let reporter_opts = reporter_flags(args)?;
    args.reject_unknown()?;

    let server = sos_serve::Server::bind(
        addr.as_str(),
        sos_serve::ServerOptions {
            threads,
            cache,
            queue_depth,
            slow_ms,
            slow_log,
        },
    )?;
    if server.cache_entries_loaded() > 0 {
        eprintln!(
            "sweep cache: {} entries loaded",
            server.cache_entries_loaded()
        );
    }
    // The "listening" line is the readiness signal scripts wait for
    // (see OPERATIONS.md), so flush it before blocking in the accept
    // loop.
    writeln!(out, "sosd listening on {}", server.local_addr())?;
    out.flush()?;
    let reporter = reporter_opts.map(sos_observe::ProgressReporter::start);
    let report = server.run()?;
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    writeln!(
        out,
        "sosd drained: {} connections, {} requests ({} http, {} errors), {} cached points",
        report.connections,
        report.requests,
        report.http_requests,
        report.errors,
        report.cached_points,
    )?;
    Ok(())
}

fn client_cmd(
    args: &ParsedArgs,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070").to_string();
    // Connection-resilience knobs (distinct from the spec's per-hop
    // `--retry`, which configures fault-plane retries *inside* the
    // simulation): `--retries` re-sends idempotent requests through
    // reconnects and `busy` shedding, `--deadline-ms` asks the server
    // to give up rather than serve a stale answer late.
    let retries: u32 = args.get_or("retries", 1)?;
    let backoff_ms: u64 = args.get_or("retry-backoff-ms", 100)?;
    let deadline_ms = match args.get("deadline-ms") {
        Some(_) => Some(args.get_or("deadline-ms", 0)?),
        None => None,
    };
    let policy = sos_serve::RetryPolicy::new(retries.max(1), backoff_ms, u64::MAX);
    let mut client = sos_serve::RetryClient::new(addr.clone(), policy);
    let op = args
        .positionals()
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| {
            ArgError(
                "client requires an operation (ping | analyze | simulate | sweep | profile | trace | shutdown)"
                    .into(),
            )
        })?;
    if deadline_ms.is_some() && !matches!(op, "simulate" | "sweep") {
        return Err(ArgError("--deadline-ms applies to simulate and sweep only".into()).into());
    }
    match op {
        "ping" => {
            args.reject_unknown()?;
            let body = client.ping()?;
            writeln!(out, "{}", serde_json::to_string_pretty(&body)?)?;
        }
        "analyze" => {
            let spec = spec_from_args(args)?;
            args.reject_unknown()?;
            let mut body = client.analyze(&spec)?;
            // Drop the transport-level envelope fields so stdout stays
            // byte-identical to `sos analyze --json 1` (CI diffs them).
            if let serde_json::Value::Map(entries) = &mut body {
                entries.retain(|(k, _)| k != "request_id" && k != "timing");
            }
            writeln!(out, "{}", serde_json::to_string_pretty(&body)?)?;
        }
        "simulate" => {
            let spec = spec_from_args(args)?;
            let timing_flag = args.get("timing").is_some_and(|v| v != "0");
            args.reject_unknown()?;
            let rtt_started = std::time::Instant::now();
            let body = client.simulate_with(&spec, deadline_ms)?;
            let rtt_ns = rtt_started.elapsed().as_nanos();
            // Reprint as the same {fingerprint, result} document
            // `sos simulate --json 1` emits, with the cache verdict on
            // stderr, so stdout can be byte-diffed against the direct
            // CLI path (CI does exactly that).
            let cached = matches!(body["cached"], serde_json::Value::Bool(true));
            eprintln!("cache: {}", if cached { "hit" } else { "miss" });
            if timing_flag {
                // Client-observed RTT next to the server-attributed
                // breakdown, on stderr so stdout stays byte-diffable.
                let t = &body["timing"];
                let ns = |key: &str| t[key].as_u64().unwrap_or(0);
                eprintln!(
                    "timing: rtt {rtt_ns} ns | server decode {} ns, total {} ns \
                     (queue {}, lock {}, build {}, break-in {}, congestion {}, routing {}) \
                     | trials {} cache_hits {} builds_reused {} | request_id {}",
                    ns("decode_ns"),
                    ns("total_ns"),
                    ns("queue_ns"),
                    ns("lock_ns"),
                    ns("build_ns"),
                    ns("break_in_ns"),
                    ns("congestion_ns"),
                    ns("routing_ns"),
                    ns("trials"),
                    ns("cache_hits"),
                    ns("builds_reused"),
                    body["request_id"].as_u64().unwrap_or(0),
                );
            }
            let doc = serde_json::json!({
                "fingerprint": body["fingerprint"],
                "result": body["result"],
            });
            writeln!(out, "{}", serde_json::to_string_pretty(&doc)?)?;
        }
        "sweep" => {
            let path = args
                .get("specs")
                .ok_or_else(|| ArgError("client sweep requires --specs FILE".into()))?
                .to_string();
            args.reject_unknown()?;
            let text = std::fs::read_to_string(&path)?;
            let doc: serde_json::Value = serde_json::from_str(&text)?;
            let entries = doc
                .as_array()
                .ok_or_else(|| ArgError(format!("{path}: expected a JSON array of specs")))?;
            let specs = entries
                .iter()
                .map(sos_serve::SimSpec::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ArgError(format!("{path}: {e}")))?;
            let body = client.sweep_with(&specs, deadline_ms)?;
            writeln!(out, "{}", serde_json::to_string_pretty(&body)?)?;
        }
        "profile" => {
            args.reject_unknown()?;
            let body = client.profile()?;
            let table = body["table"]
                .as_str()
                .ok_or_else(|| ArgError("malformed profile reply: no table".into()))?;
            write!(out, "{table}")?;
        }
        "trace" => {
            args.reject_unknown()?;
            let body = client.trace()?;
            // The Chrome trace-event document goes to stdout so
            // `sos client trace > trace.json` loads directly in
            // Perfetto; the span count goes to stderr.
            eprintln!(
                "spans: {} in recorder ({} recorded in total)",
                body["spans"].as_u64().unwrap_or(0),
                body["recorded"].as_u64().unwrap_or(0),
            );
            writeln!(out, "{}", serde_json::to_string(&body["trace"])?)?;
        }
        "shutdown" => {
            args.reject_unknown()?;
            if retries > 1 {
                return Err(ArgError(
                    "shutdown is never retried (a lost reply is indistinguishable from a \
                     successful drain); drop --retries"
                        .into(),
                )
                .into());
            }
            let body = sos_serve::Client::connect(addr.as_str())?.shutdown()?;
            writeln!(out, "{}", serde_json::to_string_pretty(&body)?)?;
        }
        other => {
            return Err(ArgError(format!(
                "unknown client operation `{other}` (ping | analyze | simulate | sweep | profile | trace | shutdown)"
            ))
            .into())
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> (i32, String) {
        let mut buf = Vec::new();
        let code = run(args.iter().map(|s| s.to_string()), &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    /// A `Write` sink the test can read while another thread (the
    /// daemon accept loop) still owns a clone of it.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_and_client_round_trip() {
        let cache = std::env::temp_dir().join(format!("sos-serve-cli-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&cache);
        let cache_arg = cache.display().to_string();

        // One worker thread → cold executions are deterministic, so
        // every byte-identity assertion below holds unconditionally.
        let buf = SharedBuf::default();
        let mut serve_out = buf.clone();
        let serve_args = vec![
            "serve".to_string(),
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--threads".to_string(),
            "1".to_string(),
            "--cache".to_string(),
            cache_arg.clone(),
        ];
        let daemon = std::thread::spawn(move || run(serve_args, &mut serve_out));

        let addr = loop {
            let text = buf.text();
            if let Some(rest) = text.strip_prefix("sosd listening on ") {
                break rest.lines().next().unwrap().trim().to_string();
            }
            assert!(!daemon.is_finished(), "daemon exited early: {text}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let (code, pong) = run_to_string(&["client", "ping", "--addr", &addr]);
        assert_eq!(code, 0, "{pong}");
        assert!(pong.contains("\"sosd\""), "{pong}");

        // The daemon's analyze answer is the same document the direct
        // CLI prints, byte for byte.
        let (code, daemon_doc) =
            run_to_string(&["client", "analyze", "--addr", &addr, "--layers", "4"]);
        assert_eq!(code, 0, "{daemon_doc}");
        let (code, direct_doc) = run_to_string(&["analyze", "--json", "1", "--layers", "4"]);
        assert_eq!(code, 0, "{direct_doc}");
        assert_eq!(daemon_doc, direct_doc);

        // Cold and warm daemon simulate answers are byte-identical, and
        // a direct `simulate --json 1` reading the daemon's cache file
        // prints the same document.
        let sim = |extra: &[&str]| {
            let mut argv = extra.to_vec();
            argv.extend([
                "--overlay-nodes",
                "400",
                "--sos-nodes",
                "40",
                "--nt",
                "10",
                "--nc",
                "40",
                "--trials",
                "3",
                "--routes",
                "10",
                "--seed",
                "5",
            ]);
            run_to_string(&argv)
        };
        let (code, cold) = sim(&["client", "simulate", "--addr", &addr]);
        assert_eq!(code, 0, "{cold}");
        let (code, warm) = sim(&["client", "simulate", "--addr", &addr]);
        assert_eq!(code, 0, "{warm}");
        assert_eq!(cold, warm);
        let (code, direct) = sim(&["simulate", "--json", "1", "--cache", &cache_arg]);
        assert_eq!(code, 0, "{direct}");
        assert_eq!(cold, direct);

        let (code, bye) = run_to_string(&["client", "shutdown", "--addr", &addr]);
        assert_eq!(code, 0, "{bye}");
        assert!(bye.contains("\"draining\""), "{bye}");

        assert_eq!(daemon.join().unwrap(), 0);
        assert!(buf.text().contains("sosd drained:"), "{}", buf.text());
        let _ = std::fs::remove_file(&cache);
    }

    #[test]
    fn client_rejects_unknown_operation() {
        let (code, out) = run_to_string(&["client", "frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown client operation"), "{out}");
    }

    #[test]
    fn simulate_cache_requires_json() {
        let (code, out) = run_to_string(&["simulate", "--cache", "x.json", "--trials", "1"]);
        assert_eq!(code, 1);
        assert!(out.contains("requires --json"), "{out}");
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_to_string(&[]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn analyze_defaults_succeed() {
        let (code, out) = run_to_string(&["analyze"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("P_S:"));
        assert!(out.contains("model: successive"));
    }

    #[test]
    fn analyze_one_burst_matches_library() {
        let (code, out) = run_to_string(&[
            "analyze",
            "--model",
            "one-burst",
            "--mapping",
            "one-to-one",
            "--layers",
            "1",
            "--nt",
            "0",
            "--nc",
            "2000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("P_S: 0.8000"), "{out}");
    }

    #[test]
    fn simulate_small_run_succeeds() {
        let (code, out) = run_to_string(&[
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "10",
            "--routes",
            "20",
            "--nt",
            "10",
            "--nc",
            "50",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("empirical P_S"), "{out}");
        assert!(out.contains("95% CI"), "{out}");
    }

    #[test]
    fn simulate_threads_flag_does_not_change_counts() {
        let base = [
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "10",
            "--routes",
            "20",
            "--nt",
            "10",
            "--nc",
            "50",
            "--seed",
            "9",
        ];
        let mut outputs = Vec::new();
        for threads in ["1", "2", "7"] {
            let args: Vec<&str> = base
                .iter()
                .chain(&["--threads", threads])
                .copied()
                .collect();
            let (code, out) = run_to_string(&args);
            assert_eq!(code, 0, "{out}");
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "thread count changed the result");
        assert_eq!(outputs[0], outputs[2], "thread count changed the result");
        let (code, out) = run_to_string(&["simulate", "--threads", "0"]);
        assert_eq!(code, 1);
        assert!(out.contains("at least one thread"), "{out}");
    }

    #[test]
    fn trace_prints_per_trial_timeline() {
        let (code, out) = run_to_string(&[
            "trace",
            "--scenario",
            "paper-intelligent",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "2",
            "--routes",
            "10",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("scenario: paper-intelligent"), "{out}");
        assert!(out.contains("trial 0"), "{out}");
        assert!(out.contains("trial 1"), "{out}");
        assert!(out.contains("break-in"), "{out}");
        assert!(out.contains("routing"), "{out}");
        assert!(out.contains("empirical P_S"), "{out}");
    }

    #[test]
    fn trace_rejects_unknown_scenario() {
        let (code, out) = run_to_string(&["trace", "--scenario", "nope"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown scenario `nope`"), "{out}");
    }

    #[test]
    fn trace_writes_jsonl_and_csv_sinks() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("sos-cli-test-trace.jsonl");
        let metrics_path = dir.join("sos-cli-test-metrics.csv");
        let (code, out) = run_to_string(&[
            "trace",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "1",
            "--routes",
            "10",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let jsonl = std::fs::read_to_string(&trace_path).unwrap();
        assert!(jsonl.lines().count() > 10, "trace file too small");
        assert!(jsonl.contains("\"kind\":\"trial_start\""));
        let csv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(csv.starts_with("metric,type,stat,value"), "{csv}");
        assert!(csv.contains("break_in_attempts,counter"), "{csv}");
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(metrics_path);
    }

    #[test]
    fn simulate_with_metrics_out_writes_csv() {
        let metrics_path = std::env::temp_dir().join("sos-cli-test-sim-metrics.csv");
        let (code, out) = run_to_string(&[
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "5",
            "--routes",
            "10",
            "--nt",
            "10",
            "--nc",
            "50",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("empirical P_S"), "{out}");
        let csv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(csv.contains("trials,counter,value,5"), "{csv}");
        let _ = std::fs::remove_file(metrics_path);
    }

    #[test]
    fn simulate_with_faults_and_retries_reports_plane() {
        let base = [
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "10",
            "--routes",
            "20",
            "--nt",
            "10",
            "--nc",
            "50",
        ];
        let faulted: Vec<&str> = base
            .iter()
            .chain(["--faults", "0.3"].iter())
            .copied()
            .collect();
        let retried: Vec<&str> = base
            .iter()
            .chain(["--faults", "0.3", "--retry", "4"].iter())
            .copied()
            .collect();
        let (code, clean_out) = run_to_string(&base);
        assert_eq!(code, 0, "{clean_out}");
        let (code, faulted_out) = run_to_string(&faulted);
        assert_eq!(code, 0, "{faulted_out}");
        let (code, retried_out) = run_to_string(&retried);
        assert_eq!(code, 0, "{retried_out}");
        assert!(!clean_out.contains("faults:"), "{clean_out}");
        assert!(
            faulted_out.contains("faults: loss=0.3 (no retries)"),
            "{faulted_out}"
        );
        assert!(retried_out.contains("retry attempts=4"), "{retried_out}");
        let ps = |s: &str| -> f64 {
            s.lines()
                .find_map(|l| l.strip_prefix("empirical P_S: "))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(ps(&faulted_out) < ps(&clean_out));
        assert!(ps(&retried_out) > ps(&faulted_out));
    }

    #[test]
    fn trace_timeline_shows_fault_and_retry_events() {
        // The capped congestion budget (2 000 onsets) must stay well below
        // the overlay population so some routes traverse live hops and
        // actually roll the fault dice.
        let (code, out) = run_to_string(&[
            "trace",
            "--overlay-nodes",
            "3000",
            "--sos-nodes",
            "100",
            "--trials",
            "2",
            "--routes",
            "20",
            "--seed",
            "1",
            "--faults",
            "loss=0.4,delay=0.2",
            "--retry",
            "attempts=3,backoff=1",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("faults: loss=0.4 delay=0.2x4t"), "{out}");
        // Acceptance criterion: injected faults and retries surface in
        // the rendered per-phase timeline, not just in counters.
        assert!(out.contains("faults injected"), "{out}");
        assert!(out.contains("retries"), "{out}");
    }

    #[test]
    fn trace_jsonl_contains_fault_events() {
        let trace_path = std::env::temp_dir().join("sos-cli-test-fault-trace.jsonl");
        let (code, out) = run_to_string(&[
            "trace",
            "--overlay-nodes",
            "3000",
            "--sos-nodes",
            "100",
            "--trials",
            "2",
            "--routes",
            "20",
            "--seed",
            "1",
            "--faults",
            "0.4",
            "--retry",
            "3",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let jsonl = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            jsonl.contains("\"kind\":\"fault_injected\""),
            "no fault events in trace"
        );
        assert!(
            jsonl.contains("\"kind\":\"hop_retry\""),
            "no retry events in trace"
        );
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn bad_fault_specs_rejected() {
        let (code, out) = run_to_string(&["simulate", "--faults", "loss=2.0"]);
        assert_eq!(code, 1);
        assert!(out.contains("not in [0, 1]"), "{out}");
        let (code, out) = run_to_string(&["simulate", "--faults", "wibble=0.1"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown key `wibble`"), "{out}");
        let (code, out) = run_to_string(&["simulate", "--retry", "0"]);
        assert_eq!(code, 1);
        assert!(out.contains("at least one attempt"), "{out}");
        let (code, out) = run_to_string(&["simulate", "--retry", "lots=9"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown key `lots`"), "{out}");
    }

    #[test]
    fn profile_grid_results_identical_with_telemetry_off() {
        let dir = std::env::temp_dir();
        let on_path = dir.join("sos-cli-test-profile-on.csv");
        let off_path = dir.join("sos-cli-test-profile-off.csv");
        let prom_path = dir.join("sos-cli-test-profile.prom");
        let (code, on_out) = run_to_string(&[
            "profile",
            "--workload",
            "grid",
            "--trials",
            "1",
            "--routes",
            "5",
            "--telemetry-out",
            prom_path.to_str().unwrap(),
            "--results-out",
            on_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{on_out}");
        let (code, off_out) = run_to_string(&[
            "profile",
            "--workload",
            "grid",
            "--trials",
            "1",
            "--routes",
            "5",
            "--telemetry",
            "0",
            "--results-out",
            off_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{off_out}");
        // Telemetry observes but never steers: the numeric results of
        // the on and off runs must be byte-identical.
        let on = std::fs::read_to_string(&on_path).unwrap();
        let off = std::fs::read_to_string(&off_path).unwrap();
        assert_eq!(on, off, "telemetry changed the workload's results");
        assert!(on.lines().count() == 43, "42 points + header: {on}");
        // The profile table names every phase with quantile columns.
        for needle in [
            "phase",
            "p50",
            "p95",
            "p99",
            "build",
            "break-in",
            "congestion",
            "routing",
        ] {
            assert!(on_out.contains(needle), "missing {needle} in {on_out}");
        }
        assert!(off_out.contains("reference run, no profile"), "{off_out}");
        // The exposition sink parses as Prometheus text format: every
        // non-comment line is `name[{labels}] value`.
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        let mut series = 0usize;
        for line in prom.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample has name and value");
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
            assert!(!name.is_empty());
            series += 1;
        }
        assert!(series >= 10, "too few series in exposition:\n{prom}");
        for required in [
            "sos_trials_total",
            "sos_routes_total",
            "sos_sweep_points_done",
            "sos_phase_seconds_total{phase=\"build\"}",
            "sos_phase_ns{phase=\"routing\",quantile=\"0.95\"}",
            "sos_worker_trials_total",
        ] {
            assert!(prom.contains(required), "missing {required} in\n{prom}");
        }
        for p in [on_path, off_path, prom_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn profile_simulate_workload_and_bad_workload() {
        let (code, out) = run_to_string(&[
            "profile",
            "--workload",
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "5",
            "--routes",
            "10",
            "--nt",
            "10",
            "--nc",
            "50",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("point,successes"), "{out}");
        assert!(out.contains("routing"), "{out}");
        let (code, out) = run_to_string(&["profile", "--workload", "nope"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown workload"), "{out}");
    }

    #[test]
    fn simulate_with_progress_flag_keeps_counts() {
        let base = [
            "simulate",
            "--overlay-nodes",
            "500",
            "--sos-nodes",
            "50",
            "--trials",
            "10",
            "--routes",
            "20",
            "--nt",
            "10",
            "--nc",
            "50",
            "--seed",
            "4",
        ];
        let (code, plain) = run_to_string(&base);
        assert_eq!(code, 0, "{plain}");
        let jsonl = std::env::temp_dir().join("sos-cli-test-sim-telemetry.jsonl");
        let with_reporter: Vec<&str> = base
            .iter()
            .chain(
                [
                    "--progress",
                    "1",
                    "--telemetry-out",
                    jsonl.to_str().unwrap(),
                ]
                .iter(),
            )
            .copied()
            .collect();
        let (code, reported) = run_to_string(&with_reporter);
        assert_eq!(code, 0, "{reported}");
        assert_eq!(plain, reported, "telemetry changed simulate's output");
        let sink = std::fs::read_to_string(&jsonl).unwrap();
        assert!(sink.lines().count() >= 1, "no snapshot lines in sink");
        assert!(sink.lines().next().unwrap().starts_with('{'), "{sink}");
        let _ = std::fs::remove_file(jsonl);
    }

    #[test]
    fn figure_fig7_prints_csv() {
        let (code, out) = run_to_string(&["figure", "fig7"]);
        assert_eq!(code, 0);
        assert!(out.starts_with("# fig7"));
        assert!(out.contains("series,R,P_S"));
        assert!(out.contains("L=3,1,"));
    }

    #[test]
    fn figure_prints_any_catalogue_section_as_full_report_writes_it() {
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/fig-nc.csv");
        let committed = std::fs::read_to_string(data).unwrap();
        let (code, out) = run_to_string(&["figure", "fig-nc"]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(out, committed + "\n");
    }

    #[test]
    fn figure_refuses_sizing_flags_its_section_ignores() {
        let (code, out) = run_to_string(&["figure", "ext-latency", "--seed", "9", "--trials", "3"]);
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("figure `ext-latency` does not read --trials, --seed"),
            "{out}"
        );
        // The traced run reads routes and seed, not trials.
        let (code, out) = run_to_string(&["figure", "trace-paper-intelligent", "--trials", "50"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("does not read --trials;"), "{out}");
        let (code, out) = run_to_string(&["figure", "all", "--routes", "5"]);
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("figure `all` does not read --routes;"),
            "{out}"
        );
        // A flag the section reads is still taken.
        let (code, out) = run_to_string(&[
            "figure",
            "metrics-paper-intelligent",
            "--routes",
            "2",
            "--seed",
            "1",
        ]);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn unknown_figure_and_usage_list_the_catalogue() {
        let (code, out) = run_to_string(&["figure", "fig5"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown figure `fig5`"), "{out}");
        let (_, help) = run_to_string(&[]);
        for name in figure_names() {
            assert!(out.contains(name), "error omits {name}: {out}");
            assert!(help.contains(name), "usage omits {name}");
        }
    }

    #[test]
    fn optimize_ranks_designs() {
        let (code, out) = run_to_string(&["optimize", "--top", "3"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.starts_with("rank,design"), "{out}");
        assert!(out.lines().count() >= 2, "{out}");
        // The top design must not be one-to-all (it dies to the intruder).
        let first = out.lines().nth(1).unwrap();
        assert!(!first.contains("one-to-all"), "{first}");
    }

    #[test]
    fn optimize_latency_constraint_respected() {
        let (code, out) = run_to_string(&["optimize", "--max-latency", "3", "--top", "50"]);
        assert_eq!(code, 0, "{out}");
        for line in out.lines().skip(1) {
            // Unit latency model: L+1 boundaries ⇒ max-latency 3 allows L ≤ 2.
            assert!(
                line.contains("L=1") || line.contains("L=2"),
                "deep design leaked through: {line}"
            );
        }
    }

    #[test]
    fn frontier_prints_points() {
        let (code, out) = run_to_string(&["frontier", "--pareto-only", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.starts_with("design,P_S,latency,pareto"));
        for line in out.lines().skip(1) {
            assert!(line.ends_with("true"), "non-pareto point in output: {line}");
        }
    }

    #[test]
    fn tornado_prints_ranked_sensitivities() {
        let (code, out) = run_to_string(&["tornado", "--step", "0.2"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("base P_S:"), "{out}");
        assert!(out.contains("parameter,ps_low,ps_high,swing"));
        // All eight parameters reported.
        for p in ["N_T", "N_C", "P_B", "P_E", "R,", "L,", "n,", "N,"] {
            assert!(out.contains(p), "missing {p} in {out}");
        }
    }

    #[test]
    fn advise_flags_original_sos() {
        let (code, out) = run_to_string(&["advise", "--mapping", "one-to-all"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("one-to-all-under-break-in"), "{out}");
        assert!(out.contains("verdict: REJECT"), "{out}");
    }

    #[test]
    fn advise_accepts_good_design_with_selected_threats() {
        let (code, out) = run_to_string(&[
            "advise",
            "--layers",
            "4",
            "--mapping",
            "one-to-2",
            "--threats",
            "paper-intelligent",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: acceptable"), "{out}");
    }

    #[test]
    fn advise_rejects_unknown_threat_label() {
        let (code, out) = run_to_string(&["advise", "--threats", "zombie-horde"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown threat"), "{out}");
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_to_string(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn unknown_flag_fails() {
        let (code, out) = run_to_string(&["analyze", "--tirals", "5"]);
        assert_eq!(code, 1);
        assert!(out.contains("--tirals"), "{out}");
    }

    #[test]
    fn bad_mapping_reported() {
        let (code, out) = run_to_string(&["analyze", "--mapping", "one-two-many"]);
        assert_eq!(code, 1);
        assert!(out.contains("unrecognized mapping"), "{out}");
    }

    #[test]
    fn invalid_configuration_propagates() {
        // 100 SOS nodes cannot fill 101 layers.
        let (code, out) = run_to_string(&["analyze", "--layers", "101"]);
        assert_eq!(code, 1);
        assert!(out.contains("error:"), "{out}");
    }
}
