//! The command line of the five binaries: one flag reader ([`Args`]),
//! one population resolver ([`Population::read`]) for `simulate` and
//! `tracegen`, and one [`SystemConfig`] builder for `simulate` and
//! `serve`. Nothing here prints or exits, so every parser is
//! unit-testable; the binaries print the [`CliError`] and their usage.

use std::fmt::Display;
use std::str::FromStr;

use adpf_auction::{MarketplaceConfig, PriceFloors, PricingRule};
use adpf_core::scenario::{BurstSpec, ScenarioPopulation, ScenarioSpec};
use adpf_core::{DeliveryMode, PlannerKind, SystemConfig};
use adpf_desim::{SimDuration, SimTime};
use adpf_energy::{profiles, RadioProfile};
use adpf_netem::{NetemConfig, RetryPolicy};
use adpf_prediction::PredictorKind;
use adpf_serve::ServeOptions;
use adpf_traces::{PopulationConfig, Session, Trace, MAX_USERS};

/// Why a command line did not produce options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given: usage goes to stdout and the exit status is 0.
    Help,
    /// The arguments are unusable, with the reason.
    Invalid(String),
}

fn invalid(reason: impl Into<String>) -> CliError {
    CliError::Invalid(reason.into())
}

/// A command line split into flags and positionals, then read flag by
/// flag.
///
/// Every token starting with `-` is a flag. A flag named in `switches`
/// stands alone; any other takes the next token as its value, whatever
/// it looks like, so `--floor -1` reaches the `--floor` check. A repeated
/// flag takes its last value. [`Args::finish`] rejects whatever no reader
/// took, so a misspelt flag fails before any work starts.
pub struct Args {
    flags: Vec<Flag>,
    positionals: Vec<String>,
}

struct Flag {
    name: String,
    value: Option<String>,
    read: bool,
}

impl Args {
    /// Splits `args` (without the program name); [`CliError::Help`] when
    /// `--help` or `-h` stands in a flag's place.
    pub fn new(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
    ) -> Result<Self, CliError> {
        let mut args = args.into_iter();
        let (mut flags, mut positionals) = (Vec::new(), Vec::new());
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            if !arg.starts_with('-') {
                positionals.push(arg);
                continue;
            }
            let value = if switches.contains(&arg.as_str()) {
                None
            } else {
                args.next()
            };
            flags.push(Flag {
                name: arg,
                value,
                read: false,
            });
        }
        Ok(Self { flags, positionals })
    }

    /// Marks every `name` flag read and returns the last one.
    fn take(&mut self, name: &str) -> Option<&Flag> {
        let mut last = None;
        for (i, flag) in self.flags.iter_mut().enumerate() {
            if flag.name == name {
                flag.read = true;
                last = Some(i);
            }
        }
        last.map(|i| &self.flags[i])
    }

    /// Whether flag `name` was given: a switch, or a flag whose value
    /// is not wanted.
    pub fn has(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of flag `name` through `parse`; `None` when the flag is
    /// absent. The one place a flag's error is worded: it names the flag
    /// and the value.
    pub fn value<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let Some(flag) = self.take(name) else {
            return Ok(None);
        };
        let Some(value) = &flag.value else {
            return Err(invalid(format!("`{name}` is missing its value")));
        };
        parse(value)
            .map(Some)
            .map_err(|why| invalid(format!("`{name} {value}`: {why}")))
    }

    /// [`Args::value`] through the type's `FromStr`.
    pub fn get<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.value(name, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// Takes the positionals (experiment ids, baseline rows).
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positionals)
    }

    /// Ends the reading: a flag no reader took, or a positional nobody
    /// asked for, is an error.
    pub fn finish(self) -> Result<(), CliError> {
        if let Some(flag) = self.flags.iter().find(|f| !f.read) {
            return Err(invalid(format!("unknown flag `{}`", flag.name)));
        }
        match self.positionals.first() {
            Some(arg) => Err(invalid(format!("unexpected argument `{arg}`"))),
            None => Ok(()),
        }
    }
}

/// A count of at least 1 (`--threads`, `--refresh-ms`; `--days` through `days`).
pub fn positive<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n: T = v.parse().map_err(|e: T::Err| e.to_string())?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err("must be at least 1".into())
    }
}

/// A trace length in days (`--days`): at least 1 and at most the
/// longest horizon a session's duration holds.
fn days(v: &str) -> Result<u32, String> {
    let days = positive(v)?;
    if days > PopulationConfig::MAX_DAYS {
        return Err(format!(
            "must be at most {} (a session lasts at most {} ms)",
            PopulationConfig::MAX_DAYS,
            Session::MAX_DURATION_MS
        ));
    }
    Ok(days)
}

/// A population size (`--users`): at most [`MAX_USERS`], since every
/// client's state is built up front.
fn users(v: &str) -> Result<u32, String> {
    let users: u32 = v
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    if users > MAX_USERS {
        return Err(format!("must be at most {MAX_USERS}"));
    }
    Ok(users)
}

/// The synthetic population `simulate` and `tracegen` generate.
#[derive(Debug, Clone, PartialEq)]
pub enum Population {
    /// A preset alone.
    Plain(Box<PopulationConfig>),
    /// A preset with a `--scenario`'s trace-side transforms on top.
    Scenario(Box<ScenarioPopulation>),
}

impl Population {
    /// Reads `--preset` (else `default(seed)`), its `--users`/`--days`
    /// overrides and `--scenario`. A scenario whose burst starts at or
    /// after the horizon is rejected: it would run without its burst.
    pub fn read(
        args: &mut Args,
        default: fn(u64) -> PopulationConfig,
        seed: u64,
    ) -> Result<Self, CliError> {
        let mut base = args
            .value("--preset", |p| PopulationConfig::preset(p, seed))?
            .unwrap_or_else(|| default(seed));
        if let Some(users) = args.value("--users", users)? {
            base.num_users = users;
        }
        if let Some(days) = args.value("--days", days)? {
            base.days = days;
        }
        let scenario = args.value("--scenario", ScenarioSpec::parse_preset)?;
        let horizon = SimTime::from_days(base.days.into());
        let start = BurstSpec::START;
        if let Some(spec) = scenario
            .as_ref()
            .filter(|s| s.burst.is_some() && start >= horizon)
        {
            return Err(invalid(format!(
                "`--scenario {}` bursts at {start}, past a {}-day horizon: it needs `--days {}` or more",
                spec.name,
                base.days,
                start.day_index() + 1
            )));
        }
        Ok(match scenario {
            Some(spec) => Self::Scenario(Box::new(ScenarioPopulation::new(base, spec))),
            None => Self::Plain(Box::new(base)),
        })
    }

    /// The preset shape, overrides applied.
    pub fn base(&self) -> &PopulationConfig {
        match self {
            Self::Plain(p) => p,
            Self::Scenario(p) => &p.base,
        }
    }

    /// The whole trace, generation fanned over `threads`; the same bytes
    /// at any count.
    pub fn generate_parallel(&self, threads: usize) -> Trace {
        match self {
            Self::Plain(p) => p.generate_parallel(threads),
            Self::Scenario(p) => p.generate_parallel(threads),
        }
    }

    /// Shard `shard` of an `n_shards`-way split, generated alone.
    pub fn generate_shard(&self, shard: usize, n_shards: usize) -> Trace {
        match self {
            Self::Plain(p) => p.generate_shard(shard, n_shards),
            Self::Scenario(p) => p.generate_shard(shard, n_shards),
        }
    }
}

/// The engine flags `simulate` and `serve` share, parsed once into typed
/// values; `None` keeps [`SystemConfig::prefetch_default`]'s value.
#[derive(Default)]
struct ConfigArgs {
    seed: u64,
    predictor: Option<PredictorKind>,
    planner: Option<PlannerKind>,
    radio: Option<RadioProfile>,
    netem: Option<NetemConfig>,
    marketplace: Option<MarketplaceConfig>,
    pricing: Option<PricingRule>,
    /// The scenario and the seed its class assignment keys on.
    scenario: Option<(ScenarioSpec, u64)>,
    // `simulate` alone reads these.
    interval_h: Option<u64>,
    deadline_h: Option<u64>,
    sla: Option<f64>,
    netem_retries: Option<u32>,
    floor: Option<f64>,
}

impl ConfigArgs {
    /// Reads the flags both binaries take, `--scenario` aside: `simulate`
    /// reads it with the population.
    fn read(args: &mut Args, seed: u64) -> Result<Self, CliError> {
        Ok(Self {
            seed,
            predictor: args.value("--predictor", PredictorKind::parse)?,
            planner: args.value("--planner", PlannerKind::parse)?,
            radio: args.value("--radio", profiles::by_name)?,
            netem: args.value("--netem", NetemConfig::parse_preset)?,
            marketplace: args.value("--marketplace", MarketplaceConfig::parse_regime)?,
            pricing: args.value("--pricing", PricingRule::parse)?,
            ..Self::default()
        })
    }

    /// The validated config for `mode`.
    fn build(&self, mode: DeliveryMode) -> Result<SystemConfig, CliError> {
        let d = SystemConfig::prefetch_default(self.seed);
        let mut cfg = SystemConfig {
            mode,
            prefetch_interval: self
                .interval_h
                .map_or(d.prefetch_interval, SimDuration::from_hours),
            deadline: self.deadline_h.map_or(d.deadline, SimDuration::from_hours),
            sla_target: self.sla.unwrap_or(d.sla_target),
            predictor: self.predictor.unwrap_or(d.predictor),
            planner: self.planner.unwrap_or(d.planner),
            radio: self.radio.clone().unwrap_or(d.radio),
            marketplace: self.marketplace.clone().unwrap_or(d.marketplace),
            ..d
        };
        // Overrides of a layer that is off would silently do nothing.
        let mut netem = self.netem.clone();
        if let Some(max_retries) = self.netem_retries {
            let Some(n) = netem.as_mut().filter(|n| n.enabled) else {
                return Err(invalid(
                    "--netem-retries requires a --netem preset other than `off`",
                ));
            };
            n.retry = RetryPolicy {
                max_retries,
                ..n.retry
            };
        }
        let priced = self
            .pricing
            .map(|_| "--pricing")
            .or(self.floor.map(|_| "--floor"));
        if let Some(flag) = priced.filter(|_| !cfg.marketplace.enabled) {
            return Err(invalid(format!(
                "{flag} requires a --marketplace regime other than `off`"
            )));
        }
        if let Some(p) = self.pricing {
            cfg.marketplace.pricing = p;
        }
        if let Some(f) = self.floor {
            cfg.marketplace.floors = PriceFloors::uniform(f);
        }
        if let Some((spec, assign_seed)) = &self.scenario {
            spec.apply_to(&mut cfg, *assign_seed);
        }
        // An explicit `--netem` preset, `off` included, wins over the
        // scenario's binding, so the two flags compose.
        if let Some(n) = netem {
            cfg.netem = n;
        }
        cfg.validate().map_err(CliError::Invalid)?;
        Ok(cfg)
    }
}

/// Where `simulate` reads its users from.
#[derive(Debug)]
pub enum Input {
    /// `--trace FILE`: a recorded CSV trace.
    Csv(String),
    /// A synthetic population (the default).
    Synthetic(Population),
}

/// A parsed `simulate` command line.
#[derive(Debug)]
pub struct SimulateArgs {
    /// Where the users come from.
    pub input: Input,
    /// One validated config per `--mode` run, real time first.
    pub configs: Vec<SystemConfig>,
    /// Worker threads for generation and the sharded simulator.
    pub threads: usize,
    /// Run the bounded-memory streaming pipeline: each shard generates
    /// (synthetic) or re-reads from the CSV file (recorded) only its own
    /// user range. Reports are byte-identical to the default path.
    pub stream: bool,
    /// Print each run's metric registry as a table.
    pub metrics: bool,
    /// Write the metric registries as JSON lines to this path.
    pub metrics_out: Option<String>,
}

impl SimulateArgs {
    /// Parses `simulate`'s arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut args = Args::new(args, &["--metrics", "--stream"])?;
        let seed = args.get("--seed")?.unwrap_or(1);
        let mut knobs = ConfigArgs::read(&mut args, seed)?;
        knobs.interval_h = args.get("--interval-h")?;
        knobs.deadline_h = args.get("--deadline-h")?;
        knobs.sla = args.get("--sla")?;
        knobs.netem_retries = args.get("--netem-retries")?;
        knobs.floor = args.value("--floor", |v| match v.parse::<f64>() {
            Ok(f) if f.is_finite() && f >= 0.0 => Ok(f),
            _ => Err("must be finite and >= 0".into()),
        })?;
        let input = match args.get::<String>("--trace")? {
            Some(path) => {
                // A CSV trace fixes its own users, days and sessions, and
                // has no population seed to key a scenario on: the
                // population flags would silently half-apply. (`--preset`
                // is ignored.)
                args.has("--preset");
                if args.has("--users") || args.has("--days") {
                    return Err(invalid(
                        "--users/--days override a synthetic --preset, not --trace",
                    ));
                }
                if args.has("--scenario") {
                    return Err(invalid(
                        "--scenario shapes a synthetic --preset, not --trace",
                    ));
                }
                Input::Csv(path)
            }
            None => {
                let pop = Population::read(&mut args, PopulationConfig::small_test, seed)?;
                if let Population::Scenario(p) = &pop {
                    knobs.scenario = Some((p.spec.clone(), p.assign_seed()));
                }
                Input::Synthetic(pop)
            }
        };
        const BOTH: &[DeliveryMode] = &[DeliveryMode::RealTime, DeliveryMode::Prefetch];
        let modes = args
            .value("--mode", |m| match m {
                "realtime" => Ok(&BOTH[..1]),
                "prefetch" => Ok(&BOTH[1..]),
                "both" => Ok(BOTH),
                other => Err(format!("unknown mode `{other}`")),
            })?
            .unwrap_or(BOTH);
        let threads = args.value("--threads", positive)?.unwrap_or(1);
        let stream = args.has("--stream");
        let metrics = args.has("--metrics");
        let metrics_out = args.get("--metrics-out")?;
        args.finish()?;
        Ok(Self {
            input,
            configs: modes
                .iter()
                .map(|&m| knobs.build(m))
                .collect::<Result<_, _>>()?,
            threads,
            stream,
            metrics,
            metrics_out,
        })
    }
}

/// A parsed `serve` command line.
#[derive(Debug)]
pub struct ServeArgs {
    /// Accept one TCP connection here instead of reading stdin.
    pub listen: Option<String>,
    /// The serving config, threads and shard override.
    pub options: ServeOptions,
    /// Print the metric registries after the final report.
    pub metrics: bool,
}

impl ServeArgs {
    /// Parses `serve`'s arguments (without the program name). Unflagged,
    /// the config is `prefetch_default(5)`, the one behind the batch
    /// smoke golden.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut args = Args::new(args, &["--metrics"])?;
        let seed = args.get("--seed")?.unwrap_or(5);
        let mut knobs = ConfigArgs::read(&mut args, seed)?;
        if knobs.predictor == Some(PredictorKind::Oracle) {
            return Err(invalid(
                "`--predictor oracle` needs the future slot stream; the online server \
                 cannot provide it",
            ));
        }
        // Class assignment keys on the seed the stream was generated
        // with, which the caller echoes (by default the config seed).
        let scenario = args.value("--scenario", ScenarioSpec::parse_preset)?;
        knobs.scenario = match (scenario, args.get("--scenario-seed")?) {
            (Some(spec), assign_seed) => Some((spec, assign_seed.unwrap_or(seed))),
            (None, Some(_)) => return Err(invalid("--scenario-seed requires --scenario")),
            (None, None) => None,
        };
        let threads = args.value("--threads", positive)?.unwrap_or(2);
        let shards = args.get("--shards")?;
        let listen = args.get("--listen")?;
        let metrics = args.has("--metrics");
        args.finish()?;
        let options = ServeOptions {
            threads,
            shards,
            ..ServeOptions::new(knobs.build(DeliveryMode::Prefetch)?)
        };
        Ok(Self {
            listen,
            options,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn simulate(s: &str) -> Result<SimulateArgs, CliError> {
        SimulateArgs::parse(argv(s))
    }

    fn serve(s: &str) -> Result<ServeArgs, CliError> {
        ServeArgs::parse(argv(s))
    }

    /// The prefetch config of a `simulate` command line.
    fn prefetch(s: &str) -> SystemConfig {
        let args = simulate(&format!("--mode prefetch {s}")).unwrap();
        args.configs.into_iter().next().unwrap()
    }

    fn rejected(r: Result<impl std::fmt::Debug, CliError>) -> String {
        match r {
            Err(CliError::Invalid(why)) => why,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn the_reader_takes_switches_values_and_positionals() {
        let mut args = Args::new(argv("e7 --on --n 3 e8 --n 4 --x -1"), &["--on"]).unwrap();
        assert!(args.has("--on"));
        assert!(!args.has("--off"));
        assert_eq!(args.get::<u32>("--n"), Ok(Some(4)), "the last value wins");
        assert_eq!(
            args.get::<i32>("--x"),
            Ok(Some(-1)),
            "a value may start with -"
        );
        assert_eq!(args.get::<u32>("--absent"), Ok(None));
        assert_eq!(args.positionals(), ["e7", "e8"]);
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn the_reader_rejects_what_nobody_read() {
        let args = Args::new(argv("--ful"), &[]).unwrap();
        assert_eq!(args.finish(), Err(invalid("unknown flag `--ful`")));
        let args = Args::new(argv("e13 --thread 3"), &[]).unwrap();
        assert_eq!(args.finish(), Err(invalid("unknown flag `--thread`")));
        let args = Args::new(argv("3"), &[]).unwrap();
        assert_eq!(args.finish(), Err(invalid("unexpected argument `3`")));
        let mut args = Args::new(argv("--n"), &[]).unwrap();
        assert_eq!(
            args.get::<u32>("--n"),
            Err(invalid("`--n` is missing its value"))
        );
        assert_eq!(Args::new(argv("--n 3 -h"), &[]).err(), Some(CliError::Help));
        assert_eq!(positive::<usize>("0"), Err("must be at least 1".into()));
    }

    #[test]
    fn simulate_rejects_an_unknown_flag_a_missing_value_a_bad_value_and_helps() {
        assert_eq!(rejected(simulate("--bogus 1")), "unknown flag `--bogus`");
        assert_eq!(
            rejected(simulate("--seed")),
            "`--seed` is missing its value"
        );
        assert_eq!(
            rejected(simulate("--mode warp")),
            "`--mode warp`: unknown mode `warp`"
        );
        assert_eq!(simulate("--help").err(), Some(CliError::Help));
    }

    #[test]
    fn serve_rejects_an_unknown_flag_a_missing_value_a_bad_value_and_helps() {
        // `serve` takes neither `--interval-h` nor `--floor`.
        assert_eq!(
            rejected(serve("--interval-h 4")),
            "unknown flag `--interval-h`"
        );
        assert_eq!(rejected(serve("--floor 0.1")), "unknown flag `--floor`");
        assert_eq!(
            rejected(serve("--listen")),
            "`--listen` is missing its value"
        );
        assert_eq!(
            rejected(serve("--threads 0")),
            "`--threads 0`: must be at least 1"
        );
        assert_eq!(serve("-h").err(), Some(CliError::Help));
        assert!(serve("--predictor oracle").is_err());
        assert!(serve("--scenario-seed 7").is_err());
    }

    #[test]
    fn no_args_yield_the_defaults() {
        let o = simulate("").unwrap();
        assert!(
            matches!(&o.input, Input::Synthetic(Population::Plain(p)) if **p == PopulationConfig::small_test(1))
        );
        assert_eq!(o.configs.len(), 2);
        assert_eq!(o.configs[0].mode, DeliveryMode::RealTime);
        assert_eq!(
            format!("{:?}", o.configs[1]),
            format!("{:?}", SystemConfig::prefetch_default(1))
        );
        assert_eq!((o.threads, o.stream, o.metrics), (1, false, false));
        assert_eq!(o.metrics_out, None);

        let s = serve("").unwrap();
        assert_eq!(
            format!("{:?}", s.options.config),
            format!("{:?}", SystemConfig::prefetch_default(5))
        );
        assert_eq!((s.options.threads, s.options.shards), (2, None));
        assert!(s.listen.is_none() && !s.metrics);

        // Switches take no value: `--metrics` must not swallow `--threads`.
        let o = simulate("--metrics --stream --threads 4 --metrics-out m.jsonl").unwrap();
        assert!(o.metrics && o.stream);
        assert_eq!(o.threads, 4);
        assert_eq!(o.metrics_out.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn enumerated_values_are_checked() {
        for bad in [
            "--planner quantum",
            "--planner fixed-x",
            "--predictor psychic",
            "--radio 5g",
            "--preset android",
            "--threads 0",
            "--netem lossy",
            "--netem-retries many",
            "--marketplace chaotic",
            "--pricing dutch",
            "--floor -0.1",
            "--floor cheap",
            "--days 0",
            "--users many",
            "--scenario rush-hour",
        ] {
            assert!(simulate(bad).is_err(), "{bad}");
        }
        assert_eq!(
            rejected(simulate("--planner quantum")),
            "`--planner quantum`: unknown planner `quantum`"
        );
    }

    #[test]
    fn parsed_options_reach_the_config() {
        let cfg = prefetch(
            "--interval-h 4 --deadline-h 12 --sla 0.9 --predictor oracle --planner none --radio lte",
        );
        assert_eq!(cfg.prefetch_interval, SimDuration::from_hours(4));
        assert_eq!(cfg.sla_target, 0.9);
        assert_eq!(cfg.predictor, PredictorKind::Oracle);
        assert_eq!(cfg.planner, PlannerKind::NoReplication);
        assert_eq!(cfg.radio.name, "LTE");
        assert_eq!(
            prefetch("--planner fixed-3").planner,
            PlannerKind::FixedK(3)
        );

        let cfg = prefetch("--netem flaky --netem-retries 5");
        assert!(cfg.netem.enabled);
        assert_eq!(cfg.netem.name, "flaky");
        assert_eq!(cfg.netem.retry.max_retries, 5);
        assert_eq!(prefetch("--netem blackout").netem.outages.len(), 1);

        let cfg = prefetch("--marketplace paced --pricing first --floor 0.0005");
        assert!(cfg.marketplace.enabled && cfg.marketplace.paced);
        assert_eq!(cfg.marketplace.pricing, PricingRule::FirstPrice);
        assert_eq!(cfg.marketplace.floors, PriceFloors::uniform(0.0005));
        let cfg = prefetch("--marketplace static --pricing second");
        assert!(cfg.marketplace.enabled && !cfg.marketplace.paced);

        let cfg = prefetch("");
        assert!(!cfg.netem.enabled && !cfg.marketplace.enabled && !cfg.scenario.enabled);
    }

    #[test]
    fn overrides_that_would_do_nothing_are_rejected() {
        assert!(simulate("--netem-retries 2").is_err());
        assert!(simulate("--netem off --netem-retries 2").is_err());
        assert!(simulate("--scenario flashcrowd --netem-retries 2").is_err());
        assert!(simulate("--pricing first").is_err());
        assert!(simulate("--floor 0.001").is_err());
        assert!(serve("--pricing first").is_err());
        // Parses fine, but the deadline falls inside the sync interval.
        assert!(simulate("--interval-h 8 --deadline-h 2").is_err());
    }

    #[test]
    fn population_flags_shape_synthetic_users_only() {
        let o = simulate("--stream --preset iphone --users 100000 --days 2").unwrap();
        assert!(o.stream);
        let Input::Synthetic(pop) = &o.input else {
            panic!("a preset is synthetic")
        };
        let iphone = PopulationConfig::iphone_like(1);
        assert_eq!(
            *pop,
            Population::Plain(Box::new(PopulationConfig {
                num_users: 100_000,
                days: 2,
                ..iphone
            }))
        );

        let o = simulate("--trace t.csv --stream").unwrap();
        assert!(o.stream && matches!(&o.input, Input::Csv(p) if p == "t.csv"));
        for bad in ["--users 10", "--days 2", "--scenario mixed"] {
            assert!(simulate(&format!("--trace t.csv {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn days_are_held_to_the_longest_session_horizon() {
        let max = PopulationConfig::MAX_DAYS;
        assert!(simulate(&format!("--days {max}")).is_ok());
        assert_eq!(
            rejected(simulate(&format!("--days {}", max + 1))),
            format!(
                "`--days {}`: must be at most {max} (a session lasts at most {} ms)",
                max + 1,
                Session::MAX_DURATION_MS
            )
        );
    }

    #[test]
    fn users_are_held_to_max_users() {
        assert!(simulate(&format!("--users {MAX_USERS}")).is_ok());
        assert!(simulate("--users 0").is_ok());
        for users in [u64::from(MAX_USERS) + 1, 4_000_000_000] {
            let flags = format!("--users {users} --days 1 --mode realtime --stream");
            assert_eq!(
                rejected(simulate(&flags)),
                format!("`--users {users}`: must be at most {MAX_USERS}")
            );
        }
        let mut args = Args::new(argv("--users 4000000000"), &[]).unwrap();
        assert!(Population::read(&mut args, PopulationConfig::iphone_like, 1).is_err());
    }

    #[test]
    fn a_burst_past_the_horizon_is_rejected() {
        // The flash crowd bursts at day 3 19:00: two days miss it, four
        // hold it, and both readers of the population share the check.
        assert_eq!(
            rejected(simulate("--scenario flashcrowd --days 2")),
            "`--scenario flashcrowd` bursts at d3 19:00:00, past a 2-day horizon: \
             it needs `--days 4` or more"
        );
        assert!(simulate("--scenario flashcrowd --days 3").is_err());
        assert!(simulate("--scenario flashcrowd --days 4").is_ok());
        let mut args = Args::new(argv("--scenario flashcrowd --days 2"), &[]).unwrap();
        assert!(Population::read(&mut args, PopulationConfig::iphone_like, 1).is_err());
        // Scenarios without a burst take any horizon.
        assert!(simulate("--scenario mixed --days 1").is_ok());
    }

    #[test]
    fn scenario_keys_class_assignment_on_the_population_seed() {
        let o = simulate("--mode prefetch --scenario mixed --seed 777").unwrap();
        let Input::Synthetic(Population::Scenario(pop)) = &o.input else {
            panic!("--scenario wraps the population")
        };
        assert_eq!(pop.assign_seed(), 777);
        let cfg = &o.configs[0];
        assert!(cfg.scenario.enabled);
        assert_eq!(cfg.scenario.assign_seed, 777);
        assert_eq!(cfg.scenario.classes.len(), 3);

        let s = serve("--seed 5 --scenario mixed --scenario-seed 777").unwrap();
        assert_eq!(s.options.config.scenario.assign_seed, 777);
        assert_eq!(s.options.config.seed, 5);
    }

    #[test]
    fn serve_and_batch_build_one_config() {
        // Every flag both binaries take, and the explicit-`--netem` rule:
        // flashcrowd binds flaky + outage, and an explicit preset, `off`
        // included, wins while the rest of the scenario still applies.
        for flags in [
            "",
            "--scenario flashcrowd",
            "--scenario flashcrowd --netem off",
            "--scenario flashcrowd --netem degraded",
            "--marketplace paced --pricing first",
            "--marketplace static --pricing second --netem blackout",
            "--predictor markov --planner fixed-3 --radio wifi --scenario churn",
        ] {
            let batch = prefetch(&format!("--seed 5 {flags}"));
            let served = serve(&format!("--seed 5 {flags}")).unwrap().options.config;
            assert_eq!(format!("{batch:?}"), format!("{served:?}"), "{flags}");
        }
        assert!(prefetch("--scenario flashcrowd")
            .netem
            .name
            .contains("outage"));
        let off = prefetch("--scenario flashcrowd --netem off");
        assert!(!off.netem.enabled && off.scenario.enabled);
        let degraded = prefetch("--scenario flashcrowd --netem degraded");
        assert_eq!(degraded.netem.name, "degraded");
        assert!(
            degraded.scenario.cell.enabled,
            "cell ceiling survives the override"
        );
    }
}
