//! Argument parsing for the `simulate` binary, split out of the binary so
//! the parser is unit-testable (no process exit, no I/O).

use adpf_auction::{MarketplaceConfig, PriceFloors, PricingRule};
use adpf_core::scenario::{ScenarioPopulation, ScenarioSpec};
use adpf_core::{DeliveryMode, PlannerKind, SystemConfig};
use adpf_desim::SimDuration;
use adpf_energy::profiles;
use adpf_netem::{NetemConfig, RetryPolicy};
use adpf_prediction::PredictorKind;
use adpf_traces::PopulationConfig;

/// Parsed `simulate` options, with defaults applied.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOpts {
    /// CSV trace path; `None` uses the synthetic `preset`.
    pub trace: Option<String>,
    /// Synthetic population preset (`iphone`, `wp`, `small`).
    pub preset: String,
    /// Delivery mode: `realtime`, `prefetch`, or `both`.
    pub mode: String,
    /// Sync period in hours.
    pub interval_h: u64,
    /// Display deadline in hours.
    pub deadline_h: u64,
    /// SLA target probability.
    pub sla: f64,
    /// Predictor name (see [`PredictorKind::parse`]).
    pub predictor: String,
    /// Planner name (see [`PlannerKind::parse`]).
    pub planner: String,
    /// Radio profile name (`3g`, `lte`, `wifi`).
    pub radio: String,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the sharded simulator.
    pub threads: usize,
    /// Network emulation preset (`off`, `flaky`, `degraded`, `blackout`);
    /// `None` keeps the default: off, or the `--scenario` binding.
    pub netem: Option<String>,
    /// Override of the netem retry budget (`None` keeps the preset's).
    pub netem_retries: Option<u32>,
    /// Marketplace regime (`off`, `static`, `paced`).
    pub marketplace: String,
    /// Override of the pricing rule (`first`, `second`; `None` keeps the
    /// regime's default). Requires `--marketplace` other than `off`.
    pub pricing: Option<String>,
    /// Uniform price floor for both slot kinds (`None` = no floor).
    /// Requires `--marketplace` other than `off`.
    pub floor: Option<f64>,
    /// Run the bounded-memory streaming pipeline: each shard generates
    /// (synthetic presets) or re-reads from the CSV file (recorded
    /// traces) only its own user range, so the full trace never exists
    /// in memory. Reports are byte-identical to the default path.
    pub stream: bool,
    /// Population-size override for synthetic presets (`None` keeps the
    /// preset's). This is how million-user runs are requested.
    pub users: Option<u32>,
    /// Trace-length override in days for synthetic presets.
    pub days: Option<u32>,
    /// Scenario preset (`mixed`, `churn`, `flashcrowd`; `None` runs the
    /// plain population). Shapes the synthetic trace *and* enables the
    /// engine's scenario layer (device classes, data-plan caps, cell
    /// ceiling, user-cost metrics) with the matching assignment seed.
    pub scenario: Option<String>,
    /// Print the metric registry as a table after each run.
    pub metrics: bool,
    /// Write the metric registry as JSON lines to this path (implies
    /// metric collection, independent of `metrics`).
    pub metrics_out: Option<String>,
}

impl Default for SimulateOpts {
    fn default() -> Self {
        Self {
            trace: None,
            preset: "small".into(),
            mode: "both".into(),
            interval_h: 2,
            deadline_h: 12,
            sla: 0.95,
            predictor: "session".into(),
            planner: "greedy".into(),
            radio: "3g".into(),
            seed: 1,
            threads: 1,
            netem: None,
            netem_retries: None,
            marketplace: "off".into(),
            pricing: None,
            floor: None,
            stream: false,
            users: None,
            days: None,
            scenario: None,
            metrics: false,
            metrics_out: None,
        }
    }
}

/// Why parsing did not produce options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was requested.
    Help,
    /// The arguments are unusable, with a human-readable reason.
    Invalid(String),
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::Invalid(reason) => f.write_str(reason),
        }
    }
}

fn invalid(reason: impl Into<String>) -> CliError {
    CliError::Invalid(reason.into())
}

/// Parses `simulate` arguments (without the program name).
///
/// Every enumerated value (`--mode`, `--predictor`, `--planner`,
/// `--radio`, `--preset`) is validated here, so a typo fails fast with a
/// message instead of surfacing after a long trace load.
pub fn parse_simulate_args(args: &[String]) -> Result<SimulateOpts, CliError> {
    let mut o = SimulateOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(CliError::Help);
        }
        // Boolean flags take no value; handle them before the value fetch.
        if flag == "--metrics" {
            o.metrics = true;
            i += 1;
            continue;
        }
        if flag == "--stream" {
            o.stream = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| invalid(format!("flag `{flag}` is missing its value")))?;
        let parse_err = |name: &str| invalid(format!("invalid `{name}` value `{value}`"));
        match flag {
            "--trace" => o.trace = Some(value.clone()),
            "--preset" => o.preset = value.clone(),
            "--mode" => o.mode = value.clone(),
            "--interval-h" => {
                o.interval_h = value.parse().map_err(|_| parse_err("--interval-h"))?
            }
            "--deadline-h" => {
                o.deadline_h = value.parse().map_err(|_| parse_err("--deadline-h"))?
            }
            "--sla" => o.sla = value.parse().map_err(|_| parse_err("--sla"))?,
            "--predictor" => o.predictor = value.clone(),
            "--planner" => o.planner = value.clone(),
            "--radio" => o.radio = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| parse_err("--seed"))?,
            "--threads" => o.threads = value.parse().map_err(|_| parse_err("--threads"))?,
            "--netem" => o.netem = Some(value.clone()),
            "--netem-retries" => {
                o.netem_retries = Some(value.parse().map_err(|_| parse_err("--netem-retries"))?)
            }
            "--marketplace" => o.marketplace = value.clone(),
            "--pricing" => o.pricing = Some(value.clone()),
            "--floor" => o.floor = Some(value.parse().map_err(|_| parse_err("--floor"))?),
            "--users" => o.users = Some(value.parse().map_err(|_| parse_err("--users"))?),
            "--days" => o.days = Some(value.parse().map_err(|_| parse_err("--days"))?),
            "--scenario" => o.scenario = Some(value.clone()),
            "--metrics-out" => o.metrics_out = Some(value.clone()),
            other => return Err(invalid(format!("unknown flag `{other}`"))),
        }
        i += 2;
    }
    if !matches!(o.mode.as_str(), "realtime" | "prefetch" | "both") {
        return Err(invalid(format!("unknown mode `{}`", o.mode)));
    }
    if o.trace.is_none() && !matches!(o.preset.as_str(), "iphone" | "wp" | "small") {
        return Err(invalid(format!("unknown preset `{}`", o.preset)));
    }
    if o.threads == 0 {
        return Err(invalid("--threads must be at least 1"));
    }
    PredictorKind::parse(&o.predictor).map_err(CliError::Invalid)?;
    PlannerKind::parse(&o.planner).map_err(CliError::Invalid)?;
    if !matches!(o.radio.as_str(), "3g" | "lte" | "wifi") {
        return Err(invalid(format!("unknown radio `{}`", o.radio)));
    }
    if let Some(n) = &o.netem {
        NetemConfig::parse_preset(n).map_err(CliError::Invalid)?;
    }
    MarketplaceConfig::parse_regime(&o.marketplace).map_err(CliError::Invalid)?;
    if let Some(p) = &o.pricing {
        PricingRule::parse(p).map_err(CliError::Invalid)?;
    }
    if let Some(f) = o.floor {
        if !(f.is_finite() && f >= 0.0) {
            return Err(invalid(format!("--floor {f} must be finite and >= 0")));
        }
    }
    // Population overrides regenerate from a synthetic preset; a CSV
    // trace already fixes its own shape, so combining them would
    // silently ignore one side. Reject instead. (`--stream` combines
    // with both: synthetic presets regenerate per shard, recorded
    // traces re-read the file per shard through `read_trace_shard`.)
    if o.trace.is_some() && (o.users.is_some() || o.days.is_some()) {
        return Err(invalid(
            "--users/--days override a synthetic --preset, not --trace",
        ));
    }
    // A scenario shapes the *synthetic* trace and keys class assignment
    // on the population seed; a CSV trace fixes its own sessions and has
    // no such seed, so the combination would silently half-apply.
    if let Some(name) = &o.scenario {
        ScenarioSpec::parse_preset(name).map_err(CliError::Invalid)?;
        if o.trace.is_some() {
            return Err(invalid(
                "--scenario shapes a synthetic --preset, not --trace",
            ));
        }
    }
    if o.days == Some(0) {
        return Err(invalid("--days must be at least 1"));
    }
    Ok(o)
}

/// Resolves the synthetic population for parsed options: the `--preset`
/// shape with any `--users`/`--days` overrides applied. Errors when the
/// options name a CSV trace instead (callers handle that path
/// separately).
pub fn build_population(o: &SimulateOpts) -> Result<PopulationConfig, String> {
    if o.trace.is_some() {
        return Err("a CSV trace has no synthetic population".into());
    }
    let mut pop = match o.preset.as_str() {
        "iphone" => PopulationConfig::iphone_like(o.seed),
        "wp" => PopulationConfig::windows_phone_like(o.seed),
        "small" => PopulationConfig::small_test(o.seed),
        other => return Err(format!("unknown preset `{other}`")),
    };
    if let Some(users) = o.users {
        pop.num_users = users;
    }
    if let Some(days) = o.days {
        pop.days = days;
    }
    Ok(pop)
}

/// Resolves the scenario population for parsed options: the synthetic
/// population wrapped with the `--scenario` preset's spec. `Ok(None)`
/// when no scenario was requested.
pub fn build_scenario(o: &SimulateOpts) -> Result<Option<ScenarioPopulation>, String> {
    let Some(name) = &o.scenario else {
        return Ok(None);
    };
    let spec = ScenarioSpec::parse_preset(name)?;
    Ok(Some(ScenarioPopulation::new(build_population(o)?, spec)))
}

/// Builds the validated [`SystemConfig`] for one delivery mode from
/// parsed options.
pub fn build_config(o: &SimulateOpts, mode: DeliveryMode) -> Result<SystemConfig, String> {
    let mut cfg = match mode {
        DeliveryMode::RealTime => SystemConfig::realtime(o.seed),
        DeliveryMode::Prefetch => SystemConfig::prefetch_default(o.seed),
    };
    cfg.prefetch_interval = SimDuration::from_hours(o.interval_h);
    cfg.deadline = SimDuration::from_hours(o.deadline_h);
    cfg.sla_target = o.sla;
    cfg.predictor = PredictorKind::parse(&o.predictor)?;
    cfg.planner = PlannerKind::parse(&o.planner)?;
    cfg.radio = profiles::by_name(&o.radio)?;
    if let Some(n) = &o.netem {
        cfg.netem = NetemConfig::parse_preset(n)?;
    }
    if let Some(n) = o.netem_retries {
        if !cfg.netem.enabled {
            return Err("--netem-retries requires a --netem preset other than `off`".into());
        }
        cfg.netem.retry = RetryPolicy {
            max_retries: n,
            ..cfg.netem.retry
        };
    }
    cfg.marketplace = MarketplaceConfig::parse_regime(&o.marketplace)?;
    if let Some(p) = &o.pricing {
        if !cfg.marketplace.enabled {
            return Err("--pricing requires a --marketplace regime other than `off`".into());
        }
        cfg.marketplace.pricing = PricingRule::parse(p)?;
    }
    if let Some(f) = o.floor {
        if !cfg.marketplace.enabled {
            return Err("--floor requires a --marketplace regime other than `off`".into());
        }
        cfg.marketplace.floors = PriceFloors::uniform(f);
    }
    if let Some(name) = &o.scenario {
        let spec = ScenarioSpec::parse_preset(name)?;
        // The population seed is `o.seed` (see `build_population`), so
        // the engine's class assignment matches the trace generator's.
        // An explicit `--netem` preset, `off` included, wins over the
        // scenario's binding, so the two flags compose instead of
        // silently clobbering.
        let explicit_netem = o.netem.is_some().then(|| cfg.netem.clone());
        spec.apply_to(&mut cfg, o.seed);
        if let Some(netem) = explicit_netem {
            cfg.netem = netem;
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_yield_defaults() {
        let o = parse_simulate_args(&[]).unwrap();
        assert_eq!(o, SimulateOpts::default());
    }

    #[test]
    fn threads_flag_is_accepted() {
        let o = parse_simulate_args(&argv("--preset iphone --threads 4")).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(o.preset, "iphone");
    }

    #[test]
    fn zero_threads_are_rejected() {
        let err = parse_simulate_args(&argv("--threads 0")).unwrap_err();
        assert!(matches!(err, CliError::Invalid(r) if r.contains("--threads")));
    }

    #[test]
    fn unknown_mode_is_rejected() {
        let err = parse_simulate_args(&argv("--mode warp")).unwrap_err();
        assert_eq!(err, CliError::Invalid("unknown mode `warp`".into()));
    }

    #[test]
    fn unknown_planner_is_rejected() {
        let err = parse_simulate_args(&argv("--planner quantum")).unwrap_err();
        assert_eq!(err, CliError::Invalid("unknown planner `quantum`".into()));
        // fixed-K with junk K is also a reject, not a silent default.
        assert!(parse_simulate_args(&argv("--planner fixed-x")).is_err());
        assert_eq!(PlannerKind::parse("fixed-3"), Ok(PlannerKind::FixedK(3)));
    }

    #[test]
    fn unknown_flag_predictor_radio_preset_are_rejected() {
        assert!(parse_simulate_args(&argv("--bogus 1")).is_err());
        assert!(parse_simulate_args(&argv("--predictor psychic")).is_err());
        assert!(parse_simulate_args(&argv("--radio 5g")).is_err());
        assert!(parse_simulate_args(&argv("--preset android")).is_err());
    }

    #[test]
    fn missing_value_and_help_are_distinct() {
        assert!(matches!(
            parse_simulate_args(&argv("--seed")),
            Err(CliError::Invalid(_))
        ));
        assert_eq!(parse_simulate_args(&argv("--help")), Err(CliError::Help));
    }

    #[test]
    fn build_config_honors_parsed_options() {
        let o = parse_simulate_args(&argv(
            "--interval-h 4 --deadline-h 12 --sla 0.9 --predictor oracle --planner none --radio lte",
        ))
        .unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert_eq!(cfg.prefetch_interval, SimDuration::from_hours(4));
        assert_eq!(cfg.sla_target, 0.9);
        assert_eq!(cfg.planner, PlannerKind::NoReplication);
        assert_eq!(cfg.radio.name, "LTE");
    }

    #[test]
    fn netem_flags_parse_and_reach_the_config() {
        let o = parse_simulate_args(&argv("--netem flaky --netem-retries 5")).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(cfg.netem.enabled);
        assert_eq!(cfg.netem.name, "flaky");
        assert_eq!(cfg.netem.retry.max_retries, 5);

        let blackout = parse_simulate_args(&argv("--netem blackout")).unwrap();
        let cfg = build_config(&blackout, DeliveryMode::Prefetch).unwrap();
        assert_eq!(cfg.netem.outages.len(), 1);
    }

    #[test]
    fn netem_defaults_off_and_bad_values_are_rejected() {
        let o = parse_simulate_args(&[]).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(!cfg.netem.enabled);

        assert!(parse_simulate_args(&argv("--netem lossy")).is_err());
        assert!(parse_simulate_args(&argv("--netem-retries many")).is_err());
        // Retries without an active preset would silently do nothing;
        // reject instead.
        let o = parse_simulate_args(&argv("--netem-retries 2")).unwrap();
        assert!(build_config(&o, DeliveryMode::Prefetch).is_err());
    }

    #[test]
    fn marketplace_flags_parse_and_reach_the_config() {
        let o = parse_simulate_args(&argv("--marketplace paced --pricing first --floor 0.0005"))
            .unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(cfg.marketplace.enabled);
        assert!(cfg.marketplace.paced);
        assert_eq!(cfg.marketplace.pricing, PricingRule::FirstPrice);
        assert_eq!(cfg.marketplace.floors, PriceFloors::uniform(0.0005));

        // The static regime applies floors/pricing without pacing.
        let o = parse_simulate_args(&argv("--marketplace static --pricing second")).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(cfg.marketplace.enabled && !cfg.marketplace.paced);
    }

    #[test]
    fn marketplace_defaults_off_and_bad_values_are_rejected() {
        let o = parse_simulate_args(&[]).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(!cfg.marketplace.enabled);

        assert!(parse_simulate_args(&argv("--marketplace chaotic")).is_err());
        assert!(parse_simulate_args(&argv("--pricing dutch")).is_err());
        assert!(parse_simulate_args(&argv("--floor -0.1")).is_err());
        assert!(parse_simulate_args(&argv("--floor cheap")).is_err());

        // Pricing/floor overrides without an active marketplace would
        // silently do nothing; reject instead, mirroring --netem-retries.
        let o = parse_simulate_args(&argv("--pricing first")).unwrap();
        assert!(build_config(&o, DeliveryMode::Prefetch).is_err());
        let o = parse_simulate_args(&argv("--floor 0.001")).unwrap();
        assert!(build_config(&o, DeliveryMode::Prefetch).is_err());
    }

    #[test]
    fn metrics_flags_parse() {
        // `--metrics` is a bare boolean: it must not swallow the flag
        // that follows it.
        let o = parse_simulate_args(&argv("--metrics --threads 4")).unwrap();
        assert!(o.metrics);
        assert_eq!(o.threads, 4);
        assert_eq!(o.metrics_out, None);

        let o = parse_simulate_args(&argv("--metrics-out out.jsonl")).unwrap();
        assert!(!o.metrics);
        assert_eq!(o.metrics_out.as_deref(), Some("out.jsonl"));

        let o = parse_simulate_args(&[]).unwrap();
        assert!(!o.metrics && o.metrics_out.is_none());
    }

    #[test]
    fn stream_and_population_flags_parse() {
        // `--stream` is a bare boolean: it must not swallow what follows.
        let o =
            parse_simulate_args(&argv("--stream --preset iphone --users 100000 --days 2")).unwrap();
        assert!(o.stream);
        assert_eq!(o.users, Some(100_000));
        assert_eq!(o.days, Some(2));
        let pop = build_population(&o).unwrap();
        assert_eq!((pop.num_users, pop.days), (100_000, 2));

        // Overrides default to the preset's own shape.
        let o = parse_simulate_args(&argv("--preset small")).unwrap();
        assert_eq!(
            build_population(&o).unwrap(),
            adpf_traces::PopulationConfig::small_test(o.seed)
        );
    }

    #[test]
    fn stream_and_overrides_reject_csv_traces_and_zero_days() {
        // Streaming a recorded trace is supported (per-shard file
        // re-reads); only the population overrides conflict with one.
        let o = parse_simulate_args(&argv("--trace t.csv --stream")).unwrap();
        assert!(o.stream && o.trace.is_some());
        assert!(parse_simulate_args(&argv("--trace t.csv --users 10")).is_err());
        assert!(parse_simulate_args(&argv("--trace t.csv --days 2")).is_err());
        assert!(parse_simulate_args(&argv("--days 0")).is_err());
        assert!(parse_simulate_args(&argv("--users many")).is_err());
        let o = parse_simulate_args(&argv("--trace t.csv")).unwrap();
        assert!(build_population(&o).is_err());
    }

    #[test]
    fn scenario_flag_parses_and_reaches_the_config() {
        let o = parse_simulate_args(&argv("--scenario mixed --seed 777")).unwrap();
        assert_eq!(o.scenario.as_deref(), Some("mixed"));
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(cfg.scenario.enabled);
        assert_eq!(
            cfg.scenario.assign_seed, 777,
            "assignment keys on the population seed"
        );
        assert_eq!(cfg.scenario.classes.len(), 3);
        let pop = build_scenario(&o).unwrap().unwrap();
        assert_eq!(pop.assign_seed(), 777);

        // No scenario: config layer off, no population wrapper.
        let o = parse_simulate_args(&[]).unwrap();
        assert!(
            !build_config(&o, DeliveryMode::Prefetch)
                .unwrap()
                .scenario
                .enabled
        );
        assert!(build_scenario(&o).unwrap().is_none());
    }

    #[test]
    fn scenario_flag_rejects_unknown_presets_and_csv_traces() {
        assert!(parse_simulate_args(&argv("--scenario rush-hour")).is_err());
        assert!(parse_simulate_args(&argv("--trace t.csv --scenario mixed")).is_err());
    }

    #[test]
    fn explicit_netem_wins_over_the_scenario_binding() {
        // flashcrowd binds flaky+outage; an explicit --netem, `off`
        // included, must override it, while no flag accepts the binding.
        let o = parse_simulate_args(&argv("--scenario flashcrowd")).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(cfg.netem.enabled);
        assert!(cfg.netem.name.contains("outage"));

        let o = parse_simulate_args(&argv("--scenario flashcrowd --netem off")).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert!(!cfg.netem.enabled);
        assert!(
            cfg.scenario.enabled,
            "the rest of the scenario still applies"
        );

        let o = parse_simulate_args(&argv("--scenario flashcrowd --netem degraded")).unwrap();
        let cfg = build_config(&o, DeliveryMode::Prefetch).unwrap();
        assert_eq!(cfg.netem.name, "degraded");
        assert!(
            cfg.scenario.cell.enabled,
            "cell ceiling survives the override"
        );
    }

    #[test]
    fn build_config_rejects_invalid_combinations() {
        // Parses fine, but violates a SystemConfig invariant
        // (deadline < interval): the validation error surfaces.
        let o = parse_simulate_args(&argv("--interval-h 8 --deadline-h 2")).unwrap();
        assert!(build_config(&o, DeliveryMode::Prefetch).is_err());
    }
}
