//! The system sweeps, one row each of [`SWEEPS`]: E7–E13, E15, E16, E19,
//! E21 and E22.
//!
//! Every sweep has one shape: a trace, a baseline, a grid of config
//! tweaks, and numeric columns read from each cell's [`SimReport`]
//! against its baseline. [`Sweep::run`] is the only code that drives a
//! row, and every run holds the row's tables to its checks, the claims
//! its rows must show. E7b, the per-user savings CDF, reads the per-user
//! energies of one cell rather than one number per cell, so it stays a
//! function of its own ([`e7b_per_user_savings`]).

use adpf_auction::{MarketplaceConfig, PricingRule};
use adpf_core::scenario::{
    CellCapacity, CellPolicy, DeviceClass, ScenarioPopulation, ScenarioSpec,
};
use adpf_core::{DeliveryMode, PlannerKind, SimReport, Simulator, SystemConfig};
use adpf_desim::SimDuration;
use adpf_netem::{NetemConfig, RetryPolicy};
use adpf_prediction::PredictorKind;
use adpf_traces::{PopulationConfig, Trace};

use crate::scale::Scale;
use crate::table::Format::{Fixed, Pct};
use crate::table::{f, Cell, Format, Note, Table};

/// The population seed of every sweep; every cell's config is seeded 1.
const SEED: u64 = 42;

/// A config change: one point of an axis.
type Tweak = Box<dyn Fn(&mut SystemConfig)>;

/// One swept dimension: its header and its points, each a label and the
/// tweak it stands for.
struct Axis {
    name: &'static str,
    points: Vec<(String, Tweak)>,
}

/// An axis over `values`, each labelled by `label` and applied by `tweak`.
fn axis<T: Clone + 'static>(
    name: &'static str,
    values: &[T],
    label: fn(&T) -> String,
    tweak: impl Fn(&mut SystemConfig, &T) + Copy + 'static,
) -> Axis {
    let point = |v: &T| {
        let v = v.clone();
        (label(&v), Box::new(move |c: &mut _| tweak(c, &v)) as Tweak)
    };
    let points = values.iter().map(point).collect();
    Axis { name, points }
}

/// An axis over hand-labelled values.
fn labelled<T: Clone + 'static>(
    name: &'static str,
    points: &[(&'static str, T)],
    tweak: fn(&mut SystemConfig, &T),
) -> Axis {
    axis(name, points, |p| p.0.into(), move |c, p| tweak(c, &p.1))
}

/// A named config change, one point of a hand-listed axis.
type Variant = (&'static str, fn(&mut SystemConfig));

/// Where a row's traces come from.
enum Source {
    /// [`Scale::system_trace`]: one trace for every cell.
    System,
    /// One scenario population per point of an outer axis headed `axis`,
    /// each [`sweep_population`] under its spec. The trace is generated on
    /// the sweep's threads, and the spec's engine half is installed on
    /// every cell's config before the axes' tweaks.
    Scenarios {
        axis: &'static str,
        specs: fn() -> Vec<(String, ScenarioSpec)>,
    },
}

/// How a row runs one cell.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// One engine, [`Simulator::new`]; the thread count goes unused.
    Engine,
    /// [`Simulator::run_trace`] on the sweep's threads.
    Sharded,
}

impl Runner {
    fn run(self, cfg: SystemConfig, trace: &Trace, threads: usize) -> SimReport {
        match self {
            Runner::Engine => Simulator::new(cfg, trace).run(),
            Runner::Sharded => Simulator::run_trace(&cfg, trace, threads),
        }
    }
}

/// What a cell's columns read it against.
enum Baseline {
    /// Nothing: the cell is read against itself.
    None,
    /// One run of this config over each trace.
    Run(fn() -> SystemConfig),
    /// The cell at the first point of the innermost axis, per point of
    /// the outer ones.
    FirstInner,
}

/// A column: its header, the figure read from a cell's report and its
/// baseline's, and how the figure prints.
type Column = (&'static str, fn(&SimReport, &SimReport) -> f64, Format);

/// A claim the table must show, named for the failure message.
type Check = (&'static str, fn(&Table) -> bool);

/// One printed table of a sweep.
struct View {
    id: &'static str,
    title: &'static str,
    /// What the table shows (printed above it).
    note: Note,
    columns: &'static [Column],
    checks: &'static [Check],
}

/// The baseline's own row, printed above the grid: its labels, then its
/// first `.1` columns read from the baseline against itself, the rest `-`.
type BaseRow = (&'static [&'static str], usize);

/// One system sweep.
pub(crate) struct Sweep {
    /// The tables the grid fills, usually one (E8 and E9 are two views of
    /// one sweep).
    views: &'static [View],
    source: Source,
    runner: Runner,
    baseline: Baseline,
    base_row: Option<BaseRow>,
    /// The grid, outermost axis first.
    axes: fn(Scale) -> Vec<Axis>,
}

impl Sweep {
    /// Whether `id` names one of the row's tables (case-insensitive).
    pub(crate) fn answers(&self, id: &str) -> bool {
        self.views.iter().any(|v| v.id.eq_ignore_ascii_case(id))
    }

    /// Runs every cell and returns the row's tables, each held to its
    /// checks.
    pub(crate) fn run(&self, scale: Scale, threads: usize) -> Vec<Table> {
        let axes = (self.axes)(scale);
        let (groups, mut label_header) = match self.source {
            Source::System => (vec![(None, None)], vec![]),
            Source::Scenarios { axis, specs } => {
                let groups = specs()
                    .into_iter()
                    .map(|(label, spec)| {
                        let pop = ScenarioPopulation::new(sweep_population(scale), spec);
                        (Some(label), Some(pop))
                    })
                    .collect();
                (groups, vec![axis])
            }
        };
        label_header.extend(axes.iter().map(|a| a.name));
        let mut tables: Vec<Table> = self
            .views
            .iter()
            .map(|v| {
                let header: Vec<&str> = label_header
                    .iter()
                    .copied()
                    .chain(v.columns.iter().map(|c| c.0))
                    .collect();
                Table::new(v.id, v.title, v.note, &header)
            })
            .collect();
        let mut push = |labels: Vec<Cell>, cell: &dyn Fn(&Column, usize) -> Cell| {
            for (table, view) in tables.iter_mut().zip(self.views) {
                let cols = view.columns.iter().enumerate().map(|(i, c)| cell(c, i));
                table.push(labels.iter().cloned().chain(cols).collect());
            }
        };

        for (group, pop) in groups {
            let trace = match &pop {
                Some(pop) => pop.generate_parallel(threads),
                None => scale.system_trace(SEED),
            };
            let run = |mut cfg: SystemConfig, tweaks: &[&Tweak]| {
                if let Some(pop) = &pop {
                    pop.apply_to(&mut cfg);
                }
                tweaks.iter().for_each(|tweak| tweak(&mut cfg));
                self.runner.run(cfg, &trace, threads)
            };
            let fixed = match self.baseline {
                Baseline::Run(cfg) => Some(run(cfg(), &[])),
                _ => None,
            };
            if let (Some((labels, shown)), Some(base)) = (self.base_row, &fixed) {
                let labels = labels.iter().map(|l| Cell::Text(l.to_string()));
                push(labels.collect(), &|&(_, read, format), i| {
                    if i < shown {
                        Cell::Num(read(base, base), format)
                    } else {
                        Cell::Text("-".into())
                    }
                });
            }
            let mut first_inner = None;
            for point in grid(&axes) {
                let picked = || point.iter().zip(&axes).map(|(&i, a)| &a.points[i]);
                let tweaks: Vec<&Tweak> = picked().map(|(_, tweak)| tweak).collect();
                let r = run(SystemConfig::prefetch_default(1), &tweaks);
                if point.last() == Some(&0) && matches!(self.baseline, Baseline::FirstInner) {
                    first_inner = Some(r.clone());
                }
                let base = match self.baseline {
                    Baseline::None => &r,
                    Baseline::Run(_) => fixed.as_ref().expect("run above"),
                    Baseline::FirstInner => first_inner.as_ref().expect("first point runs first"),
                };
                let labels = group.iter().chain(picked().map(|(label, _)| label));
                push(
                    labels.map(|l| Cell::Text(l.clone())).collect(),
                    &|&(_, read, format), _| Cell::Num(read(&r, base), format),
                );
            }
        }
        for (table, view) in tables.iter_mut().zip(self.views) {
            hold(table, view.checks);
        }
        tables
    }
}

/// Every combination of one point per axis, as indices, the last axis
/// fastest.
fn grid(axes: &[Axis]) -> Vec<Vec<usize>> {
    axes.iter().fold(vec![vec![]], |combos, axis| {
        combos
            .into_iter()
            .flat_map(|combo| {
                (0..axis.points.len()).map(move |i| {
                    let mut next = combo.clone();
                    next.push(i);
                    next
                })
            })
            .collect()
    })
}

/// Records on `table` the names of the `checks` it fails.
fn hold(table: &mut Table, checks: &[Check]) {
    table.failed = checks
        .iter()
        .filter(|(_, holds)| !holds(table))
        .map(|&(name, _)| name)
        .collect();
}

/// The scenario sweeps' base population: the iPhone-like shape at the
/// experiment scale, capped at sweep size (like [`Scale::system_trace`])
/// because each table cell is a full simulation run.
fn sweep_population(scale: Scale) -> PopulationConfig {
    let mut cfg = scale.iphone(SEED);
    if matches!(scale, Scale::Full) {
        cfg.num_users = 600;
    }
    cfg
}

/// E7b: the CDF of per-user ad energy savings at the default 2 h
/// interval (E7's `2` cell, against its real-time baseline).
pub(crate) fn e7b_per_user_savings(scale: Scale) -> Table {
    let trace = scale.system_trace(SEED);
    let rt = Simulator::new(SystemConfig::realtime(1), &trace).run();
    let pf = Simulator::new(SystemConfig::prefetch_default(1), &trace).run();
    // The paper reports savings hold across users, not just on average.
    let mut cdf = Table::new(
        "E7b",
        "CDF of per-user ad energy savings (2 h interval)",
        Note::Paper("savings are broad-based: most users save, not just the heavy ones"),
        &["percentile", "energy savings"],
    );
    let ecdf = adpf_stats::Ecdf::new(pf.per_user_savings_vs(&rt));
    for q in [0.05, 0.10, 0.25, 0.50, 0.75, 0.90] {
        cdf.push(vec![Cell::Num(q, Pct), Cell::Num(ecdf.quantile(q), Pct)]);
    }
    hold(
        &mut cdf,
        &[("the median user saves over 20 %", |t| {
            t.column("energy savings")[3] > 0.20
        })],
    );
    cdf
}

fn count(r: &SimReport, name: &str) -> f64 {
    r.metrics.counter_value(name) as f64
}

/// Replicas per ad sold in advance.
fn replicas_per_ad(r: &SimReport, _: &SimReport) -> f64 {
    let advance_sold = r.ledger.sold.saturating_sub(r.realtime_fetches());
    if advance_sold == 0 {
        0.0
    } else {
        r.replicas_assigned() as f64 / advance_sold as f64
    }
}

/// Total radio energy relative to the baseline's.
fn energy_delta(r: &SimReport, b: &SimReport) -> f64 {
    if b.energy.total_j() > 0.0 {
        r.energy.total_j() / b.energy.total_j() - 1.0
    } else {
        0.0
    }
}

fn metered_mb_per_user_day(r: &SimReport, _: &SimReport) -> f64 {
    let user_days = (r.users as f64 * r.days as f64).max(1.0);
    r.metered_bytes() as f64 / 1e6 / user_days
}

fn display_p95(r: &SimReport, _: &SimReport) -> f64 {
    r.display_latency_ms().quantile_upper_bound(0.95) as f64
}

const SAVINGS: Column = ("savings", |r, b| r.energy_savings_vs(b), Pct);
const CACHE_HIT: Column = ("cache hit", |r, _| r.cache_hit_rate(), Pct);
const LOSS: Column = ("loss", |r, b| r.revenue_loss_vs(b), Pct);
const SLA_VIOL: Column = ("SLA viol", |r, _| r.sla_violation_rate(), Pct);
const REPLICAS: Column = ("replicas/ad", replicas_per_ad, Fixed(2));
const DUPLICATES: Column = ("duplicates", |r, _| r.ledger.duplicates as f64, Fixed(0));
const DUP_PER_SLOT: Column = (
    "dup/slot",
    |r, _| r.ledger.duplicates as f64 / r.slots().max(1) as f64,
    Pct,
);
const J_PER_IMP: Column = ("J/imp", |r, _| r.energy_per_impression_j(), Fixed(3));

/// The first and last numbers of a column.
fn ends(t: &Table, header: &str) -> (f64, f64) {
    let col = t.column(header);
    (col[0], col[col.len() - 1])
}

fn hours(h: u64) -> SimDuration {
    SimDuration::from_hours(h)
}

/// The SLA-target axis of E8/E9, E19 and E22.
fn sla_targets(name: &'static str, targets: &[f64]) -> Axis {
    axis(name, targets, |t| f(*t, 2), |c, &t| c.sla_target = t)
}

/// On-demand delivery: the three fields
/// [`SystemConfig::prefetch_default`] sets over [`SystemConfig::realtime`].
fn realtime_delivery(c: &mut SystemConfig) {
    c.mode = DeliveryMode::RealTime;
    c.predictor = PredictorKind::Zero;
    c.planner = PlannerKind::NoReplication;
}

/// The canonical three-way device mix, then each class alone as the
/// whole population.
fn mixes() -> Vec<(String, ScenarioSpec)> {
    let mixed = ScenarioSpec::mixed();
    let solo = |class: &DeviceClass| ScenarioSpec {
        name: format!("solo-{}", class.name),
        classes: vec![DeviceClass {
            weight: 1.0,
            ..class.clone()
        }],
        ..ScenarioSpec::mixed()
    };
    let solos = mixed.classes.iter().map(|c| (c.name.clone(), solo(c)));
    let mut all = vec![("mixed".to_string(), mixed.clone())];
    all.extend(solos);
    all
}

/// What a sweep starts from when no row says otherwise.
const SYSTEM: Sweep = Sweep {
    views: &[],
    source: Source::System,
    runner: Runner::Engine,
    baseline: Baseline::Run(|| SystemConfig::realtime(1)),
    base_row: None,
    axes: |_| vec![],
};

/// Every system sweep, in DESIGN.md order.
pub(crate) const SWEEPS: [Sweep; 11] = [
    // The headline figure.
    Sweep {
        views: &[View {
            id: "E7",
            title: "ad energy vs. prefetch interval (vs. real-time baseline)",
            note: Note::Paper(
                "prefetching cuts ad energy by about half at 1 h and more at longer \
                 intervals, which also raise revenue loss and SLA violations",
            ),
            columns: &[
                (
                    "energy J/impr",
                    |r, _| r.energy_per_impression_j(),
                    Fixed(2),
                ),
                SAVINGS,
                CACHE_HIT,
                ("syncs/user/day", |r, _| r.syncs_per_user_day(), Fixed(1)),
                LOSS,
                SLA_VIOL,
            ],
            checks: &[
                ("a real-time row and five intervals", |t| t.rows.len() == 6),
                ("every interval saves over 30 % of ad energy", |t| {
                    t.column("savings").iter().all(|&s| s > 0.30)
                }),
            ],
        }],
        base_row: Some((&["realtime"], 1)),
        axes: |_| {
            vec![axis(
                "interval h",
                &[1, 2, 4, 8, 12],
                u64::to_string,
                |c, &h| {
                    c.prefetch_interval = hours(h);
                    c.deadline = hours(h.max(12));
                },
            )]
        },
        ..SYSTEM
    },
    // Overbooking aggressiveness: the SLA target the planner aims for.
    Sweep {
        views: &[
            View {
                id: "E8",
                title: "SLA violations vs. overbooking aggressiveness (greedy planner)",
                note: Note::Paper(
                    "raising the target multiplies replicas/ad but moves violations by only a \
                     fraction of a point",
                ),
                columns: &[
                    REPLICAS,
                    SLA_VIOL,
                    ("expired", |r, _| r.ledger.expired as f64, Fixed(0)),
                    ("sold", |r, _| r.ledger.sold as f64, Fixed(0)),
                ],
                checks: &[("replicas/ad do not fall as the SLA target rises", |t| {
                    let (first, last) = ends(t, "replicas/ad");
                    last >= first
                })],
            },
            View {
                id: "E9",
                title: "revenue loss vs. overbooking aggressiveness",
                note: Note::Paper(
                    "duplicates (the cost of replication) stay negligible thanks to holdback + \
                     cancellation",
                ),
                columns: &[REPLICAS, DUPLICATES, DUP_PER_SLOT, LOSS],
                checks: &[("duplicates stay under 5 % of slots", |t| {
                    t.column("dup/slot").iter().all(|&d| d < 0.05)
                })],
            },
        ],
        axes: |_| vec![sla_targets("SLA target", &[0.5, 0.8, 0.9, 0.95, 0.99])],
        ..SYSTEM
    },
    Sweep {
        views: &[View {
            id: "E10",
            title: "deadline sensitivity (2 h syncs)",
            note: Note::Paper(
                "short deadlines strand inventory; by ~12-24 h violations and loss become \
                 negligible",
            ),
            columns: &[SLA_VIOL, LOSS, SAVINGS, DUPLICATES],
            checks: &[("violations fall as the deadline grows", |t| {
                let (first, last) = ends(t, "SLA viol");
                last < first
            })],
        }],
        axes: |_| {
            vec![axis(
                "deadline h",
                &[2, 4, 8, 12, 24],
                u64::to_string,
                |c, &h| c.deadline = hours(h),
            )]
        },
        ..SYSTEM
    },
    // The energy-vs-revenue trade-off frontier.
    Sweep {
        views: &[View {
            id: "E11",
            title: "energy savings vs. revenue loss frontier",
            note: Note::Paper(
                "aggressive selling buys little energy and costs revenue; the knee sits near \
                 margin 1",
            ),
            columns: &[SAVINGS, LOSS, SLA_VIOL],
            checks: &[],
        }],
        axes: |_| {
            vec![
                axis("interval h", &[1, 2, 4], u64::to_string, |c, &h| {
                    c.prefetch_interval = hours(h)
                }),
                axis(
                    "sell margin",
                    &[0.5, 1.0, 1.5],
                    |m| f(*m, 1),
                    |c, &m| c.sell_margin = m,
                ),
            ]
        },
        ..SYSTEM
    },
    // How prediction quality propagates into system metrics.
    Sweep {
        views: &[View {
            id: "E12",
            title: "predictor ablation inside the full system",
            note: Note::Paper(
                "better client models raise cache hits and savings; the oracle bounds what \
                 prediction can buy",
            ),
            columns: &[SAVINGS, CACHE_HIT, LOSS, SLA_VIOL],
            checks: &[(
                "the oracle's cache hit rate beats the zero predictor's",
                |t| t.num(&["oracle"], "cache hit") > t.num(&["zero"], "cache hit"),
            )],
        }],
        axes: |_| {
            use PredictorKind::*;
            let kinds = [
                Zero,
                GlobalRate,
                TimeOfDay,
                DayHour,
                Markov,
                Quantile(0.25),
                Quantile(0.75),
                SessionAware,
                Oracle,
            ];
            vec![axis("predictor", &kinds, PredictorKind::label, |c, &k| {
                c.predictor = k
            })]
        },
        ..SYSTEM
    },
    Sweep {
        views: &[View {
            id: "E13",
            title: "replication policy ablation",
            note: Note::Paper(
                "no replication violates the SLA on risky ads; fixed factors overpay in \
                 duplicates; greedy sits between",
            ),
            columns: &[REPLICAS, SLA_VIOL, DUPLICATES, LOSS],
            checks: &[
                ("greedy violates the SLA no more than no replication", |t| {
                    t.num(&["greedy"], "SLA viol") <= t.num(&["none"], "SLA viol")
                }),
            ],
        }],
        axes: |_| {
            use PlannerKind::*;
            let planners = [NoReplication, FixedK(1), FixedK(2), FixedK(4), Greedy];
            vec![axis("planner", &planners, PlannerKind::label, |c, &p| {
                c.planner = p
            })]
        },
        ..SYSTEM
    },
    // The reconstruction's mechanisms (DESIGN.md: piggybacked syncs,
    // replica holdback, deferred reports, bursty availability) and the
    // failure-injection knob, each flipped in isolation.
    Sweep {
        views: &[View {
            id: "E15",
            title: "mechanism ablation (each knob flipped in isolation)",
            note: Note::Extension("reconstruction-level design choices: what each mechanism buys"),
            columns: &[SAVINGS, CACHE_HIT, LOSS, SLA_VIOL, DUP_PER_SLOT],
            checks: &[
                ("piggybacking saves energy", |t| {
                    t.num(&["default"], "savings") > t.num(&["no piggyback"], "savings")
                }),
                ("the replica holdback does not add duplicates", |t| {
                    t.num(&["no replica holdback"], "dup/slot") >= t.num(&["default"], "dup/slot")
                }),
                ("20 % sync dropout keeps savings above 10 %", |t| {
                    t.num(&["20% sync dropout"], "savings") > 0.10
                }),
            ],
        }],
        axes: |_| {
            let variants: [Variant; 7] = [
                ("default", |_| {}),
                // The session-aware predictor deliberately sells ~nothing
                // while idle, so without piggybacked syncs it degenerates
                // to real-time; the fair interval-only variant pairs it
                // with a diurnal model that sells speculatively at
                // periodic syncs.
                ("no piggyback", |c| c.piggyback_on_fallback = false),
                ("no piggyback + day-hour", |c| {
                    c.piggyback_on_fallback = false;
                    c.predictor = PredictorKind::DayHour;
                }),
                ("eager reports", |c| c.defer_report_syncs = false),
                // Replicas displayable for their whole lifetime.
                ("no replica holdback", |c| c.replica_window = c.deadline),
                // No day-level overdispersion discount.
                ("poisson availability", |c| c.availability_dispersion = 1.0),
                ("20% sync dropout", |c| c.sync_dropout = 0.2),
            ];
            vec![labelled("variant", &variants, |c, tweak| tweak(c))]
        },
        ..SYSTEM
    },
    // Degraded networks: the paper assumes an always-on network. Flaky
    // per-client links and correlated regional blackouts, under retry
    // policies of increasing persistence, each read against the
    // ideal-network prefetch run so the deltas are the network's alone.
    Sweep {
        views: &[View {
            id: "E16",
            title: "degraded networks: outage intensity x retry policy",
            note: Note::Extension(
                "deltas vs the ideal-network prefetch baseline (paper's operating point)",
            ),
            columns: &[
                (
                    "sync fail",
                    |r, _| count(r, "netem.sync_failures"),
                    Fixed(0),
                ),
                (
                    "abandoned",
                    |r, _| count(r, "netem.syncs_abandoned"),
                    Fixed(0),
                ),
                ("rescued", |r, _| count(r, "overbooking.rescues"), Fixed(0)),
                CACHE_HIT,
                SLA_VIOL,
                LOSS,
                ("energy d", energy_delta, Pct),
            ],
            checks: &[
                ("ideal + 3 scenarios x 3 policies", |t| t.rows.len() == 10),
                ("degraded links fail syncs", |t| {
                    t.num(&["flaky", "capped-3"], "sync fail") > 0.0
                }),
                ("persistence does not raise abandonment", |t| {
                    let abandoned = |policy| t.num(&["flaky", policy], "abandoned");
                    abandoned("none") >= abandoned("aggressive-6")
                }),
                ("a full blackout fails more syncs than flaky links", |t| {
                    let failed = |scenario| t.num(&[scenario, "capped-3"], "sync fail");
                    failed("blackout 100%") > failed("flaky")
                }),
                // Micro-scale noise can invert subtler cells.
                ("ideal is the SLA floor of no-retry blackouts", |t| {
                    let viol = |labels: &[&str]| t.num(labels, "SLA viol");
                    viol(&["blackout 100%", "none"]) >= viol(&["ideal", "-"])
                }),
            ],
        }],
        runner: Runner::Sharded,
        baseline: Baseline::Run(|| SystemConfig::prefetch_default(1)),
        base_row: Some((&["ideal", "-"], 7)),
        axes: |_| {
            // Plain flaky links, then a 6-hour blackout two days in
            // covering half or all of the population.
            let blackout = |share| NetemConfig::flaky_cellular().with_outage(48, hours(6), share);
            let scenarios = [
                ("flaky", NetemConfig::flaky_cellular()),
                ("blackout 50%", blackout(0.5)),
                ("blackout 100%", blackout(1.0)),
            ];
            let policies = [
                ("none", RetryPolicy::none()),
                ("capped-3", RetryPolicy::capped_exponential()),
                ("aggressive-6", RetryPolicy::aggressive()),
            ];
            vec![
                labelled("scenario", &scenarios, |c, netem| c.netem = netem.clone()),
                labelled("retries", &policies, |c, &retry| c.netem.retry = retry),
            ]
        },
        ..SYSTEM
    },
    // The reactive marketplace: the paper's revenue loss assumes a static
    // exchange. Campaigns pacing spend against budget schedules and
    // converging to target CPCs, under both pricing rules, each read
    // against the static exchange at the same SLA target.
    Sweep {
        views: &[View {
            id: "E19",
            title: "reactive marketplace: overbooking aggressiveness x pacing regime",
            note: Note::Extension("revenue loss vs the static exchange at the same SLA target"),
            columns: &[
                ("revenue", |r, _| r.revenue(), Fixed(4)),
                ("loss vs static", |r, b| r.revenue_loss_vs(b), Pct),
                SLA_VIOL,
                ("refunded", |r, _| r.ledger.refunded, Fixed(4)),
            ],
            checks: &[
                ("3 SLA targets x 3 regimes", |t| t.rows.len() == 9),
                ("static is its own baseline: no loss, revenue", |t| {
                    ["0.80", "0.95", "0.99"].iter().all(|sla| {
                        t.num(&[sla, "static"], "loss vs static") == 0.0
                            && t.num(&[sla, "static"], "revenue") > 0.0
                    })
                }),
                // A paced run bit-identical to the static exchange would
                // mean the marketplace layer never engaged.
                ("pacing moves revenue somewhere in the sweep", |t| {
                    ["0.80", "0.95", "0.99"].iter().any(|sla| {
                        let revenue = |regime| t.num(&[sla, regime], "revenue");
                        revenue("paced") != revenue("static")
                            || revenue("paced-first") != revenue("static")
                    })
                }),
            ],
        }],
        runner: Runner::Sharded,
        baseline: Baseline::FirstInner,
        axes: |_| {
            let mut paced_first = MarketplaceConfig::paced();
            paced_first.pricing = PricingRule::FirstPrice;
            let regimes = [
                ("static", MarketplaceConfig::disabled()),
                ("paced", MarketplaceConfig::paced()),
                ("paced-first", paced_first),
            ];
            vec![
                sla_targets("sla target", &[0.80, 0.95, 0.99]),
                labelled("regime", &regimes, |c, m| c.marketplace = m.clone()),
            ]
        },
        ..SYSTEM
    },
    // Population mix x prefetch policy, read from the scenario layer's
    // user-cost counters. The per-class rows show what the mix hides:
    // WiFi-heavy users pay no metered bytes, LTE users pay bytes but never
    // hit a cap, and 3G-budget users exhaust their plan under prefetching
    // (cap-blk), then fall back to (still metered) on-demand fetches.
    Sweep {
        views: &[View {
            id: "E21",
            title: "population mix x prefetch policy: energy + user-cost per class",
            note: Note::Extension(
                "scenario-layer counters: metered bytes bill against the user's data plan, \
                 wasted MB is prefetch traffic that expired undisplayed, cap-blk counts prefetch \
                 syncs blocked by an exhausted plan, display latency from the \
                 scenario.display_latency_ms histogram",
            ),
            columns: &[
                J_PER_IMP,
                (
                    "metered MB",
                    |r, _| r.metered_bytes() as f64 / 1e6,
                    Fixed(2),
                ),
                ("MB/user-day", metered_mb_per_user_day, Fixed(3)),
                (
                    "wasted MB",
                    |r, _| count(r, "scenario.prefetch_wasted_bytes") / 1e6,
                    Fixed(2),
                ),
                (
                    "wasted ads",
                    |r, _| count(r, "scenario.prefetch_wasted_ads"),
                    Fixed(0),
                ),
                (
                    "cap-blk",
                    |r, _| count(r, "scenario.cap_blocked_syncs"),
                    Fixed(0),
                ),
                (
                    "disp p50 ms",
                    |r, _| r.display_latency_ms().quantile_upper_bound(0.50) as f64,
                    Fixed(0),
                ),
                ("disp p95 ms", display_p95, Fixed(0)),
            ],
            checks: &[
                ("4 mixes x 3 policies", |t| t.rows.len() == 12),
                ("WiFi-heavy users pay no metered bytes", |t| {
                    ["realtime", "prefetch 2h", "prefetch 30m"]
                        .iter()
                        .all(|policy| t.num(&["wifi-heavy", policy], "metered MB") == 0.0)
                }),
                ("on-demand delivery wastes nothing and hits no cap", |t| {
                    let clean = |mix| {
                        t.num(&[mix, "realtime"], "wasted MB") == 0.0
                            && t.num(&[mix, "realtime"], "cap-blk") == 0.0
                    };
                    ["mixed", "wifi-heavy", "lte", "3g-budget"]
                        .into_iter()
                        .all(clean)
                }),
                ("the budget class's plan blocks prefetch syncs", |t| {
                    t.num(&["3g-budget", "prefetch 2h"], "cap-blk") > 0.0
                }),
                ("metered LTE users pay bytes", |t| {
                    t.num(&["lte", "prefetch 2h"], "metered MB") > 0.0
                }),
            ],
        }],
        source: Source::Scenarios {
            axis: "mix",
            specs: mixes,
        },
        runner: Runner::Sharded,
        baseline: Baseline::None,
        // Pure on-demand delivery, the paper's default 2 h prefetch
        // interval, and an aggressive 30 min one (more syncs, fresher
        // caches, more wasted bytes).
        axes: |_| {
            let policies: [Variant; 3] = [
                ("realtime", realtime_delivery),
                ("prefetch 2h", |_| {}),
                ("prefetch 30m", |c| {
                    c.prefetch_interval = SimDuration::from_mins(30)
                }),
            ];
            vec![labelled("policy", &policies, |c, tweak| tweak(c))]
        },
        ..SYSTEM
    },
    // A flash crowd under an AdCell-style per-region cell ceiling and the
    // planner's overbooking aggressiveness. The burst is trace-side (one
    // trace per intensity); the ceiling and the SLA target are
    // engine-side. Dropped fetches surface as unfilled slots, deferred
    // ones as display latency. The less aggressive target (0.50) leans
    // harder on real-time fetches, the traffic a saturated cell throttles.
    Sweep {
        views: &[View {
            id: "E22",
            title: "flash crowd x cell capacity x overbooking",
            note: Note::Extension(
                "burst = mean extra sessions per affected user over the 2 h window (0 = \
                 outage-only baseline); the cell ceiling admits a per-region fetch budget per \
                 minute and drops or defers the overflow",
            ),
            columns: &[
                (
                    "dropped",
                    |r, _| count(r, "scenario.cell_dropped_fetches"),
                    Fixed(0),
                ),
                (
                    "deferred",
                    |r, _| count(r, "scenario.cell_deferred_fetches"),
                    Fixed(0),
                ),
                ("unfilled", |r, _| r.unfilled() as f64, Fixed(0)),
                SLA_VIOL,
                ("disp p95 ms", display_p95, Fixed(0)),
                J_PER_IMP,
            ],
            checks: &[
                ("3 bursts x 3 cells x 2 targets", |t| t.rows.len() == 18),
                ("uncapped rows never drop or defer", |t| {
                    let mut uncapped = t.rows.iter().filter(|r| r[1] == "uncapped");
                    uncapped.all(|r| r[3].num() == Some(0.0) && r[4].num() == Some(0.0))
                }),
                ("heavy crowd, tight/drop: drops, defers none", |t| {
                    let drop = |col| t.num(&["6.0", "tight/drop", "0.50"], col);
                    drop("dropped") > 0.0 && drop("deferred") == 0.0
                }),
                ("heavy crowd, tight/defer: defers, drops none", |t| {
                    let defer = |col| t.num(&["6.0", "tight/defer", "0.50"], col);
                    defer("deferred") > 0.0 && defer("dropped") == 0.0
                }),
                ("dropped fetches leave slots unfilled", |t| {
                    let unfilled = |cell| t.num(&["6.0", cell, "0.50"], "unfilled");
                    unfilled("tight/drop") >= unfilled("uncapped")
                }),
            ],
        }],
        source: Source::Scenarios {
            axis: "burst",
            specs: || {
                let crowd = |intensity| {
                    let mut spec = ScenarioSpec::flash_crowd();
                    spec.burst.as_mut().expect("the preset bursts").intensity = intensity;
                    (f(intensity, 1), spec)
                };
                vec![crowd(0.0), crowd(3.0), crowd(6.0)]
            },
        },
        runner: Runner::Sharded,
        baseline: Baseline::None,
        axes: |scale| {
            // No ceiling, then a tight per-region budget under each
            // overflow policy. The budget scales with the population (per
            // region-minute) so it binds at every scale; `regions` is the
            // flashcrowd preset's, so the burst's regional targeting baked
            // into the trace is the same in every cell.
            let tight = (sweep_population(scale).num_users / 20).max(1);
            let capped = |policy| CellCapacity {
                policy,
                ..CellCapacity::capped(4, tight, SimDuration::from_mins(1))
            };
            let cells = [
                ("uncapped", CellCapacity::disabled()),
                ("tight/drop", capped(CellPolicy::Drop)),
                ("tight/defer", capped(CellPolicy::Defer)),
            ];
            vec![
                labelled("cell", &cells, |c, cell| c.scenario.cell = cell.clone()),
                sla_targets("SLA tgt", &[0.95, 0.50]),
            ]
        },
        ..SYSTEM
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// What a table holds, numbers as their bits.
    fn bits(t: &Table) -> Vec<String> {
        t.rows
            .iter()
            .flatten()
            .map(|cell| match cell {
                Cell::Text(s) => s.clone(),
                Cell::Num(x, _) => format!("{:#x}", x.to_bits()),
            })
            .collect()
    }

    #[test]
    fn sharded_rows_are_deterministic_at_every_thread_count() {
        let sharded: Vec<&Sweep> = SWEEPS
            .iter()
            .filter(|s| s.runner == Runner::Sharded)
            .collect();
        assert_eq!(sharded.len(), 4, "E16, E19, E21, E22");
        for sweep in sharded {
            let one = sweep.run(Scale::Micro, 1);
            let four = sweep.run(Scale::Micro, 4);
            for (a, b) in one.iter().zip(&four) {
                assert_eq!(a.header, b.header);
                assert_eq!(bits(a), bits(b), "{} differs across thread counts", a.id);
            }
        }
    }

    #[test]
    fn grid_runs_the_last_axis_fastest() {
        let noop = |name| axis(name, &[1, 2], |v| v.to_string(), |_, _| {});
        let combos = grid(&[noop("a"), noop("b")]);
        assert_eq!(combos, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        assert_eq!(grid(&[]), vec![Vec::<usize>::new()]);
    }
}
