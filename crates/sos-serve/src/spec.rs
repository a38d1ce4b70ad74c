//! The shared experiment-description grammar: one flat [`SimSpec`]
//! per analysis/simulation point, with the exact field names, value
//! grammar and defaults of the `sos` CLI flags.
//!
//! The CLI parses `--mapping one-to-5 --faults loss=0.2` from argv;
//! the wire protocol parses `{"mapping":"one-to-5","faults":"loss=0.2"}`
//! from JSON. Both routes converge on this module, so a config
//! described over the wire builds the *same* [`SimulationConfig`]
//! (same content fingerprint, same sweep-cache entry) as the same
//! config described with flags — the property the `serve-smoke` CI job
//! diffs for.

use sos_analysis::{OneBurstAnalysis, SuccessiveAnalysis};
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, NodeDistribution, PathEvaluator, Scenario,
    SuccessiveParams, SystemParams,
};
use sos_sim::engine::{SimulationConfig, TransportKind};
use sos_sim::routing::RoutingPolicy;
use std::fmt;

/// A spec or protocol-field validation error with a user-facing
/// message (the same messages the CLI prints for the equivalent flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// Parses a mapping-degree label: `one-to-one`, `one-to-K`,
/// `one-to-half`, `one-to-all`.
///
/// # Errors
///
/// Returns [`SpecError`] for an unrecognized label.
pub fn parse_mapping(raw: &str) -> Result<MappingDegree, SpecError> {
    match raw {
        "one-to-one" | "one-to-1" => Ok(MappingDegree::ONE_TO_ONE),
        "one-to-half" => Ok(MappingDegree::OneToHalf),
        "one-to-all" => Ok(MappingDegree::OneToAll),
        other => {
            if let Some(k) = other.strip_prefix("one-to-") {
                let k: u64 = k
                    .parse()
                    .map_err(|_| SpecError(format!("unrecognized mapping `{other}`")))?;
                Ok(MappingDegree::OneTo(k))
            } else {
                Err(SpecError(format!(
                    "unrecognized mapping `{other}` (try one-to-one, one-to-5, one-to-half, one-to-all)"
                )))
            }
        }
    }
}

/// Parses a node-distribution label: `even | increasing | decreasing`.
///
/// # Errors
///
/// Returns [`SpecError`] for an unrecognized label.
pub fn parse_distribution(raw: &str) -> Result<NodeDistribution, SpecError> {
    match raw {
        "even" => Ok(NodeDistribution::Even),
        "increasing" => Ok(NodeDistribution::Increasing),
        "decreasing" => Ok(NodeDistribution::Decreasing),
        other => Err(SpecError(format!(
            "unrecognized distribution `{other}` (even | increasing | decreasing)"
        ))),
    }
}

/// Parses a closed-form evaluator label: `binomial | hypergeometric`.
///
/// # Errors
///
/// Returns [`SpecError`] for an unrecognized label.
pub fn parse_evaluator(raw: &str) -> Result<PathEvaluator, SpecError> {
    match raw {
        "binomial" => Ok(PathEvaluator::Binomial),
        "hypergeometric" => Ok(PathEvaluator::Hypergeometric),
        other => Err(SpecError(format!(
            "unrecognized evaluator `{other}` (binomial | hypergeometric)"
        ))),
    }
}

/// Parses a routing-policy label: `random-good | first-good |
/// backtracking`.
///
/// # Errors
///
/// Returns [`SpecError`] for an unrecognized label.
pub fn parse_policy(raw: &str) -> Result<RoutingPolicy, SpecError> {
    match raw {
        "random-good" => Ok(RoutingPolicy::RandomGood),
        "first-good" => Ok(RoutingPolicy::FirstGood),
        "backtracking" => Ok(RoutingPolicy::Backtracking),
        other => Err(SpecError(format!("unknown policy `{other}`"))),
    }
}

/// Parses a transport label: `direct | chord`.
///
/// # Errors
///
/// Returns [`SpecError`] for an unrecognized label.
pub fn parse_transport(raw: &str) -> Result<TransportKind, SpecError> {
    match raw {
        "direct" => Ok(TransportKind::Direct),
        "chord" => Ok(TransportKind::Chord),
        other => Err(SpecError(format!("unknown transport `{other}`"))),
    }
}

/// Parses a fault-plane spec: either a bare loss rate (`0.2`) or a
/// comma list of `key=value` pairs (`loss=0.2,delay=0.1,delay-ticks=4,
/// crash=0.01,slow=0.05,slow-ticks=2,misroute=0.02,seed=7`).
///
/// # Errors
///
/// Returns [`SpecError`] for unknown keys or out-of-range rates.
pub fn parse_faults(raw: &str) -> Result<sos_faults::FaultConfig, SpecError> {
    let mut cfg = sos_faults::FaultConfig::none();
    if let Ok(loss) = raw.parse::<f64>() {
        if !(0.0..=1.0).contains(&loss) {
            return Err(SpecError(format!(
                "--faults: loss rate {loss} not in [0, 1]"
            )));
        }
        return Ok(cfg.loss(loss));
    }
    let mut delay = (0.0f64, 4u64);
    let mut slow = (0.0f64, 2u64);
    for pair in raw.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            SpecError(format!(
                "--faults: expected key=value, got `{pair}` \
                 (keys: loss delay delay-ticks crash slow slow-ticks misroute seed)"
            ))
        })?;
        let rate = |v: &str| -> Result<f64, SpecError> {
            let r: f64 = v
                .parse()
                .map_err(|e| SpecError(format!("--faults: {key}={v}: {e}")))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(SpecError(format!("--faults: {key}={r} not in [0, 1]")));
            }
            Ok(r)
        };
        let ticks = |v: &str| -> Result<u64, SpecError> {
            v.parse()
                .map_err(|e| SpecError(format!("--faults: {key}={v}: {e}")))
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
                return Err(SpecError(format!(
                    "--faults: unknown key `{other}` \
                     (keys: loss delay delay-ticks crash slow slow-ticks misroute seed)"
                )))
            }
        }
    }
    Ok(cfg.delay(delay.0, delay.1).slow(slow.0, slow.1))
}

/// Parses a retry spec: either a bare attempt count (`4`) or a comma
/// list of `key=value` pairs (`attempts=4,backoff=1,deadline=64`).
///
/// # Errors
///
/// Returns [`SpecError`] for unknown keys or a zero attempt count.
pub fn parse_retry(raw: &str) -> Result<sos_faults::RetryPolicy, SpecError> {
    if let Ok(attempts) = raw.parse::<u32>() {
        if attempts == 0 {
            return Err(SpecError("--retry: need at least one attempt".into()));
        }
        return Ok(sos_faults::RetryPolicy::new(attempts, 1, u64::MAX));
    }
    let mut attempts = 1u32;
    let mut backoff = 1u64;
    let mut deadline = u64::MAX;
    for pair in raw.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            SpecError(format!(
                "--retry: expected key=value, got `{pair}` (keys: attempts backoff deadline)"
            ))
        })?;
        match key.trim() {
            "attempts" => {
                attempts = value
                    .parse()
                    .map_err(|e| SpecError(format!("--retry: attempts={value}: {e}")))?;
                if attempts == 0 {
                    return Err(SpecError("--retry: need at least one attempt".into()));
                }
            }
            "backoff" => {
                backoff = value
                    .parse()
                    .map_err(|e| SpecError(format!("--retry: backoff={value}: {e}")))?;
            }
            "deadline" => {
                deadline = value
                    .parse()
                    .map_err(|e| SpecError(format!("--retry: deadline={value}: {e}")))?;
            }
            other => {
                return Err(SpecError(format!(
                    "--retry: unknown key `{other}` (keys: attempts backoff deadline)"
                )))
            }
        }
    }
    Ok(sos_faults::RetryPolicy::new(attempts, backoff, deadline))
}

/// One experiment point, flat and stringly-typed: every field mirrors
/// the CLI flag of the same name, every default is the CLI default
/// (which is the paper's). `Default` gives the paper configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Total overlay population `N` (`--overlay-nodes`).
    pub overlay_nodes: u64,
    /// SOS nodes `n` (`--sos-nodes`).
    pub sos_nodes: u64,
    /// Break-in success probability `P_B` (`--pb`).
    pub pb: f64,
    /// Filter count (`--filters`).
    pub filters: u64,
    /// Number of layers `L` (`--layers`).
    pub layers: u64,
    /// Mapping-degree label (`--mapping`), e.g. `one-to-2`.
    pub mapping: String,
    /// Node-distribution label (`--distribution`).
    pub distribution: String,
    /// Closed-form evaluator label (`--evaluator`); analyze only.
    pub evaluator: String,
    /// Attack model label (`--model`): `one-burst | successive`.
    pub model: String,
    /// Break-in budget `N_T` (`--nt`).
    pub nt: u64,
    /// Congestion budget `N_C` (`--nc`).
    pub nc: u64,
    /// Successive-attack rounds `R` (`--rounds`).
    pub rounds: u32,
    /// Prior first-layer knowledge `P_E` (`--pe`).
    pub pe: f64,
    /// Attacked overlays (`--trials`); simulate/sweep only.
    pub trials: u64,
    /// Routes per trial (`--routes`).
    pub routes: u64,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Routing-policy label (`--policy`).
    pub policy: String,
    /// Transport label (`--transport`).
    pub transport: String,
    /// Fault-plane spec (`--faults` grammar), absent = fault-free.
    pub faults: Option<String>,
    /// Retry spec (`--retry` grammar), absent = no retries.
    pub retry: Option<String>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            overlay_nodes: 10_000,
            sos_nodes: 100,
            pb: 0.5,
            filters: 10,
            layers: 3,
            mapping: "one-to-2".into(),
            distribution: "even".into(),
            evaluator: "binomial".into(),
            model: "successive".into(),
            nt: 200,
            nc: 2_000,
            rounds: 3,
            pe: 0.2,
            trials: 100,
            routes: 100,
            seed: 0,
            policy: "random-good".into(),
            transport: "direct".into(),
            faults: None,
            retry: None,
        }
    }
}

impl SimSpec {
    /// Parses a spec from a JSON object. Every field is optional
    /// (missing = the paper default); unknown keys are rejected, the
    /// wire equivalent of the CLI's unknown-flag check.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for a non-object value, an unknown key,
    /// or a field of the wrong JSON type.
    pub fn from_value(value: &serde_json::Value) -> Result<Self, SpecError> {
        let entries = value
            .as_map()
            .ok_or_else(|| SpecError("spec must be a JSON object".into()))?;
        let mut spec = SimSpec::default();
        for (key, v) in entries {
            let u64_field = |v: &serde_json::Value| {
                v.as_u64().ok_or_else(|| {
                    SpecError(format!("spec field `{key}` must be a non-negative integer"))
                })
            };
            let f64_field = |v: &serde_json::Value| {
                v.as_f64()
                    .ok_or_else(|| SpecError(format!("spec field `{key}` must be a number")))
            };
            let str_field = |v: &serde_json::Value| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| SpecError(format!("spec field `{key}` must be a string")))
            };
            match key.as_str() {
                "overlay_nodes" => spec.overlay_nodes = u64_field(v)?,
                "sos_nodes" => spec.sos_nodes = u64_field(v)?,
                "pb" => spec.pb = f64_field(v)?,
                "filters" => spec.filters = u64_field(v)?,
                "layers" => spec.layers = u64_field(v)?,
                "mapping" => spec.mapping = str_field(v)?,
                "distribution" => spec.distribution = str_field(v)?,
                "evaluator" => spec.evaluator = str_field(v)?,
                "model" => spec.model = str_field(v)?,
                "nt" => spec.nt = u64_field(v)?,
                "nc" => spec.nc = u64_field(v)?,
                "rounds" => {
                    spec.rounds = u32::try_from(u64_field(v)?)
                        .map_err(|_| SpecError("spec field `rounds` out of range".into()))?
                }
                "pe" => spec.pe = f64_field(v)?,
                "trials" => spec.trials = u64_field(v)?,
                "routes" => spec.routes = u64_field(v)?,
                "seed" => spec.seed = u64_field(v)?,
                "policy" => spec.policy = str_field(v)?,
                "transport" => spec.transport = str_field(v)?,
                "faults" => spec.faults = Some(str_field(v)?),
                "retry" => spec.retry = Some(str_field(v)?),
                other => return Err(SpecError(format!("unknown spec field `{other}`"))),
            }
        }
        Ok(spec)
    }

    /// Encodes the spec as its request JSON: one compact object, each
    /// field written straight into the text by the JSON writer (no
    /// tree of the whole spec is built). `faults`/`retry` are written
    /// only when set, so [`from_value`](Self::from_value) round-trips
    /// exactly.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let fields = [
            ("overlay_nodes", Value::U64(self.overlay_nodes)),
            ("sos_nodes", Value::U64(self.sos_nodes)),
            ("pb", Value::F64(self.pb)),
            ("filters", Value::U64(self.filters)),
            ("layers", Value::U64(self.layers)),
            ("mapping", Value::Str(self.mapping.clone())),
            ("distribution", Value::Str(self.distribution.clone())),
            ("evaluator", Value::Str(self.evaluator.clone())),
            ("model", Value::Str(self.model.clone())),
            ("nt", Value::U64(self.nt)),
            ("nc", Value::U64(self.nc)),
            ("rounds", Value::U64(self.rounds.into())),
            ("pe", Value::F64(self.pe)),
            ("trials", Value::U64(self.trials)),
            ("routes", Value::U64(self.routes)),
            ("seed", Value::U64(self.seed)),
            ("policy", Value::Str(self.policy.clone())),
            ("transport", Value::Str(self.transport.clone())),
        ];
        let optional = [("faults", &self.faults), ("retry", &self.retry)];
        let optional = optional
            .into_iter()
            .filter_map(|(key, value)| Some((key, Value::Str(value.clone()?))));
        let mut out = Vec::with_capacity(384);
        for (i, (key, value)) in fields.into_iter().chain(optional).enumerate() {
            // The keys are plain ASCII identifiers: nothing to escape.
            out.push(if i == 0 { b'{' } else { b',' });
            out.push(b'"');
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            serde_json::to_writer(&mut out, &value).expect("writing to a Vec cannot fail");
        }
        out.push(b'}');
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Builds the validated [`Scenario`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a label does not parse or the
    /// topology is inconsistent (e.g. more layers than SOS nodes).
    pub fn scenario(&self) -> Result<Scenario, SpecError> {
        let system = SystemParams::new(self.overlay_nodes, self.sos_nodes, self.pb)
            .map_err(|e| SpecError(e.to_string()))?;
        Scenario::builder()
            .system(system)
            .layers(
                usize::try_from(self.layers)
                    .map_err(|_| SpecError("spec field `layers` out of range".into()))?,
            )
            .distribution(parse_distribution(&self.distribution)?)
            .mapping(parse_mapping(&self.mapping)?)
            .filters(self.filters)
            .build()
            .map_err(|e| SpecError(e.to_string()))
    }

    /// Builds the [`AttackConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for an unknown model label or invalid
    /// successive-attack parameters.
    pub fn attack(&self) -> Result<AttackConfig, SpecError> {
        let budget = AttackBudget::new(self.nt, self.nc);
        match self.model.as_str() {
            "one-burst" => Ok(AttackConfig::OneBurst { budget }),
            "successive" => Ok(AttackConfig::Successive {
                budget,
                params: SuccessiveParams::new(self.rounds, self.pe)
                    .map_err(|e| SpecError(e.to_string()))?,
            }),
            other => Err(SpecError(format!("unknown model `{other}`"))),
        }
    }

    /// The closed-form evaluator this spec selects (analyze requests).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for an unknown evaluator label.
    pub fn evaluator(&self) -> Result<PathEvaluator, SpecError> {
        parse_evaluator(&self.evaluator)
    }

    /// Builds the full Monte Carlo [`SimulationConfig`] — the value
    /// whose content fingerprint keys the sweep cache.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when any label or count is invalid
    /// (including the zero trial/route counts the engine would panic
    /// on — a daemon validates, it does not panic).
    pub fn sim_config(&self) -> Result<SimulationConfig, SpecError> {
        if self.trials == 0 {
            return Err(SpecError(
                "spec field `trials`: at least one trial is required".into(),
            ));
        }
        if self.routes == 0 {
            return Err(SpecError(
                "spec field `routes`: at least one route per trial is required".into(),
            ));
        }
        let faults = match &self.faults {
            None => sos_faults::FaultConfig::none(),
            Some(raw) => parse_faults(raw)?,
        };
        let retry = match &self.retry {
            None => sos_faults::RetryPolicy::none(),
            Some(raw) => parse_retry(raw)?,
        };
        Ok(SimulationConfig::new(self.scenario()?, self.attack()?)
            .trials(self.trials)
            .routes_per_trial(self.routes)
            .seed(self.seed)
            .policy(parse_policy(&self.policy)?)
            .transport(parse_transport(&self.transport)?)
            .faults(faults)
            .retry(retry))
    }
}

/// The numbers a closed-form analysis produces for one spec — shared
/// by the CLI's `analyze` command and the daemon's `analyze` request
/// so both emit identical documents.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOutcome {
    /// Overall attack success probability `P_S`.
    pub ps: f64,
    /// Per-layer success probabilities (last entry = filters).
    pub per_layer: Vec<f64>,
    /// Expected number of broken-in nodes.
    pub expected_broken: f64,
    /// Expected number of congested nodes.
    pub expected_congested: f64,
}

/// Runs the closed-form analysis for a scenario/attack pair.
///
/// # Errors
///
/// Returns [`SpecError`] when the analysis rejects the configuration.
pub fn analyze_outcome(
    scenario: &Scenario,
    attack: &AttackConfig,
    evaluator: PathEvaluator,
) -> Result<AnalyzeOutcome, SpecError> {
    let (ps, per_layer, expected_broken, expected_congested) = match *attack {
        AttackConfig::OneBurst { budget } => {
            let report = OneBurstAnalysis::new(scenario, budget)
                .map_err(|e| SpecError(e.to_string()))?
                .run();
            (
                report.success_probability(evaluator).value(),
                report.layer_successes(evaluator),
                report.total_broken,
                report.congested.iter().sum::<f64>(),
            )
        }
        AttackConfig::Successive { budget, params } => {
            let report = SuccessiveAnalysis::new(scenario, budget, params)
                .map_err(|e| SpecError(e.to_string()))?
                .run();
            (
                report.success_probability(evaluator).value(),
                report.layer_successes(evaluator),
                report.total_broken,
                report.congested.iter().sum::<f64>(),
            )
        }
    };
    Ok(AnalyzeOutcome {
        ps,
        per_layer,
        expected_broken,
        expected_congested,
    })
}

/// The machine-readable analyze document (manifest + result): the one
/// encoding shared by `sos analyze --json 1` and the daemon's
/// `analyze` response, so the two are byte-identical for the same
/// configuration.
pub fn analyze_doc(
    scenario: &Scenario,
    attack: &AttackConfig,
    evaluator: PathEvaluator,
    outcome: &AnalyzeOutcome,
) -> serde_json::Value {
    serde_json::json!({
        "scenario": scenario,
        "attack": attack,
        "evaluator": evaluator,
        "ps": outcome.ps,
        "per_layer_success": outcome.per_layer,
        "expected_broken": outcome.expected_broken,
        "expected_congested": outcome.expected_congested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_the_paper_config() {
        let spec = SimSpec::default();
        let scenario = spec.scenario().unwrap();
        assert_eq!(scenario.topology().layer_count(), 3);
        assert_eq!(scenario.topology().total_sos_nodes(), 100);
        assert!(matches!(
            spec.attack().unwrap(),
            AttackConfig::Successive { .. }
        ));
        spec.sim_config().unwrap();
    }

    #[test]
    fn value_round_trip_preserves_every_field() {
        let spec = SimSpec {
            overlay_nodes: 1_000,
            mapping: "one-to-5".into(),
            model: "one-burst".into(),
            nt: 60,
            nc: 120,
            trials: 2,
            routes: 20,
            seed: 13,
            transport: "chord".into(),
            faults: Some("loss=0.2,seed=13".into()),
            retry: Some("attempts=3,backoff=2".into()),
            ..SimSpec::default()
        };
        let round = SimSpec::from_value(&serde_json::from_str(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn missing_fields_take_paper_defaults() {
        let spec = SimSpec::from_value(&serde_json::json!({"layers": 4})).unwrap();
        assert_eq!(spec.layers, 4);
        assert_eq!(spec.overlay_nodes, 10_000);
        assert_eq!(spec.trials, 100);
    }

    #[test]
    fn unknown_and_mistyped_fields_rejected() {
        let err = SimSpec::from_value(&serde_json::json!({"tirals": 5})).unwrap_err();
        assert!(
            err.to_string().contains("unknown spec field `tirals`"),
            "{err}"
        );
        let err = SimSpec::from_value(&serde_json::json!({"mapping": 3})).unwrap_err();
        assert!(err.to_string().contains("must be a string"), "{err}");
        let err = SimSpec::from_value(&serde_json::json!([1, 2])).unwrap_err();
        assert!(err.to_string().contains("JSON object"), "{err}");
    }

    #[test]
    fn invalid_counts_error_instead_of_panicking() {
        let zero_trials = SimSpec {
            trials: 0,
            ..SimSpec::default()
        };
        assert!(zero_trials.sim_config().is_err());
        let zero_routes = SimSpec {
            routes: 0,
            ..SimSpec::default()
        };
        assert!(zero_routes.sim_config().is_err());
        let deep = SimSpec {
            layers: 101,
            ..SimSpec::default()
        };
        assert!(deep.scenario().is_err());
    }

    #[test]
    fn spec_config_matches_hand_built_fingerprint() {
        let spec = SimSpec {
            overlay_nodes: 1_000,
            sos_nodes: 100,
            mapping: "one-to-5".into(),
            model: "one-burst".into(),
            nt: 60,
            nc: 120,
            trials: 2,
            routes: 20,
            seed: 13,
            transport: "chord".into(),
            faults: Some("loss=0.2,seed=13".into()),
            ..SimSpec::default()
        };
        let by_hand = SimulationConfig::new(
            Scenario::builder()
                .system(SystemParams::new(1_000, 100, 0.5).unwrap())
                .layers(3)
                .mapping(MappingDegree::OneTo(5))
                .filters(10)
                .build()
                .unwrap(),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(60, 120),
            },
        )
        .trials(2)
        .routes_per_trial(20)
        .seed(13)
        .transport(TransportKind::Chord)
        .faults(sos_faults::FaultConfig::none().loss(0.2).seed(13));
        assert_eq!(
            sos_sim::config_fingerprint(&spec.sim_config().unwrap()),
            sos_sim::config_fingerprint(&by_hand),
        );
    }

    #[test]
    fn analyze_outcome_matches_direct_analysis() {
        let spec = SimSpec {
            model: "one-burst".into(),
            ..SimSpec::default()
        };
        let scenario = spec.scenario().unwrap();
        let attack = spec.attack().unwrap();
        let outcome = analyze_outcome(&scenario, &attack, PathEvaluator::Binomial).unwrap();
        assert!(outcome.ps > 0.0 && outcome.ps < 1.0, "{}", outcome.ps);
        assert_eq!(outcome.per_layer.len(), 4, "3 layers + filters");
        let doc = analyze_doc(&scenario, &attack, PathEvaluator::Binomial, &outcome);
        assert!(serde_json::to_string(&doc).unwrap().contains("\"ps\":"));
    }
}
