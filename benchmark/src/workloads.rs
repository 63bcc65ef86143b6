//! The six named workloads: inputs, queries and runtime configuration.
//!
//! Every workload is a pure function of `(name, seed, scale)`: the seed
//! goes into the generator's own seed field and the program under test
//! only ever sees the generated events. Sizes are fixed (not derived
//! from the machine) so two commits always evaluate identical inputs.

use std::sync::Arc;

use acep_core::{AdaptiveConfig, PolicyKind};
use acep_plan::PlannerKind;
use acep_stream::{
    DisorderConfig, KeyExtractor, LastAttrKeyExtractor, PatternSet, SourceId, StreamConfig,
};
use acep_types::{Event, EventTypeId, Pattern, PatternExpr, Value};
use acep_workloads::{
    clickstream_tagged, iot_fleet, ClickstreamConfig, DatasetKind, DatasetModel, IotConfig,
    PatternSetKind, Scenario, ScenarioConfig, StreamGenerator, TrafficModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Events pushed per `push_tagged` call by every driver.
pub const CHUNK: usize = 4_096;

/// Static description of a workload: the name is the contract, the
/// `why` is the reason it exists (mirrored into `BENCHMARK.json`).
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Fixed open-loop rate of the paced pass, ≈ 40 % of the closed-loop
    /// saturation measured on the reference box when the benchmark was
    /// defined. A constant, never derived from the current run: a
    /// slower program must show up as latency, not as a gentler load.
    pub paced_rate_eps: f64,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "stocks_hot",
        why: "64 hot keys keep all state cache-resident, so per-event order-executor and deadline-finalizer cost dominates; an executor or finalizer change must show here, a routing change must not",
        paced_rate_eps: 150_000.0,
    },
    WorkloadSpec {
        name: "iot_lazy",
        why: "100k Zipf keys under the lazy-chain plan: cold-key instantiation, key-map misses, slot buffers and ~1.7 matches/event load key state, the lazy executor and the emission-to-sink path",
        paced_rate_eps: 80_000.0,
    },
    WorkloadSpec {
        name: "click_disorder",
        why: "4 sources with 30 s staircase lateness: the only workload where the reorder buffer, per-source watermarks and watermark-driven finalization work, and the only out-of-order correctness check",
        paced_rate_eps: 60_000.0,
    },
    WorkloadSpec {
        name: "ckpt_recover",
        why: "6k keys with a mid-stream skew flip and large live state, checkpointed inside every rep, then crashed and recovered: executor export/restore beside evaluation, so faster reads at dearer snapshots show",
        paced_rate_eps: 100_000.0,
    },
    WorkloadSpec {
        name: "adapt_order",
        why: "single-thread AdaptiveCep, traffic stream, 5-way conjunction, greedy order plans: the paper's axis (invariant-policy gain over a static plan vs decision overhead) with no runtime around it",
        paced_rate_eps: 20_000.0,
    },
    WorkloadSpec {
        name: "adapt_tree",
        why: "the same job through the ZStream planner and tree executor, bypassing order plans; adaptation loses to the static plan here at the seed, so a fix or a further regression shows",
        paced_rate_eps: 1_500.0,
    },
];

pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated workload instance.
pub struct Workload {
    pub spec: &'static WorkloadSpec,
    /// The stream in delivery order, tagged with its ingestion source.
    pub events: Vec<(SourceId, Arc<Event>)>,
    pub num_types: usize,
    pub queries: Vec<(&'static str, Pattern)>,
    pub planner: PlannerKind,
    /// The adaptive side's decision policy (`PolicyKind::Static` is the
    /// other side of every A/B pair): the invariant method at distance
    /// 0.1, the setting of every in-repo smoke row.
    pub policy: PolicyKind,
    /// Deployment hysteresis (`AdaptiveConfig::min_improvement`).
    pub min_improvement: f64,
    pub disorder: DisorderConfig,
    /// `adapt_*`: one unkeyed stream. Closed-loop reps drive a
    /// single-thread `AdaptiveCep` instead of the sharded runtime, which
    /// hosts the stream under one constant key where a pass needs it.
    /// Every other workload is keyed by its trailing attribute.
    pub single_thread: bool,
    /// `ckpt_recover`: closed-loop reps take their checkpoints.
    pub ckpt_in_reps: bool,
    /// The seed the workload was generated from.
    pub seed: u64,
}

impl Workload {
    pub fn adaptive_config(&self, policy: PolicyKind) -> AdaptiveConfig {
        AdaptiveConfig {
            planner: self.planner,
            policy,
            min_improvement: self.min_improvement,
            ..AdaptiveConfig::default()
        }
    }

    pub fn pattern_set(&self, policy: PolicyKind) -> PatternSet {
        let mut set = PatternSet::new(self.num_types);
        for (name, pattern) in &self.queries {
            set.register(*name, pattern.clone(), self.adaptive_config(policy))
                .expect("workload pattern is valid");
        }
        set
    }

    /// One worker shard: the benchmark thread is the single producer,
    /// so a run never uses more than the reference box's two cores.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            shards: 1,
            disorder: self.disorder,
            ..StreamConfig::default()
        }
    }

    pub fn extractor(&self) -> Arc<dyn KeyExtractor> {
        if self.single_thread {
            Arc::new(|_: &Event| 0u64)
        } else {
            Arc::new(LastAttrKeyExtractor)
        }
    }

    /// Checkpoint cadence of the `ckpt_recover` reps, in chunks: every
    /// 32 chunks (131k events), tightened on short (`--quick`) streams
    /// so at least two checkpoints are always taken.
    pub fn ckpt_every(&self) -> usize {
        let chunks = self.events.len().div_ceil(CHUNK);
        32.min((chunks / 3).max(1))
    }
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale) as usize).max(floor)
}

fn merged(events: Vec<Arc<Event>>) -> Vec<(SourceId, Arc<Event>)> {
    events
        .into_iter()
        .map(|ev| (SourceId::MERGED, ev))
        .collect()
}

/// `SEQ(T0, T1, ¬T2)` within the stocks window: matches are held to
/// their deadline, so the finalizer does real work.
fn negt3(window_ms: u64) -> Pattern {
    Pattern::builder("negt3")
        .expr(PatternExpr::seq([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::neg(PatternExpr::prim(EventTypeId(2))),
        ]))
        .window(window_ms)
        .build()
        .expect("negation pattern is valid")
}

/// Match window of the `ckpt_recover` queries. Consecutive events of
/// one key are `3 × keys` ms apart (round-robin at 3 ms/event), so the
/// window is sized in per-key gaps — ~6.7 events of every key are live
/// at any time, whatever the key count — or no joins (and no large
/// live state) would exist at all.
fn skew_window_ms(keys: u64) -> u64 {
    20 * keys
}

/// The benchmark-owned skew-shift stream: `keys` round-robin partition
/// keys over three event types whose frequency ranking flips halfway
/// (T0 frequent / T2 rare, then the reverse), forcing every controller
/// through one re-plan and every key through one migration. The seed
/// perturbs the type draw so different seeds give different streams
/// with the same statistics.
fn skew_shift_keyed(keys: u64, events_per_key: usize, seed: u64) -> Vec<Arc<Event>> {
    let total = keys as usize * events_per_key;
    let mut state = acep_types::mix64(seed);
    (0..total)
        .map(|i| {
            state = acep_types::mix64(state);
            let r = state % 53;
            let phase2 = i >= total / 2;
            let (rare, frequent) = if phase2 { (0, 2) } else { (2, 0) };
            let tid = if r == 0 {
                rare
            } else if r % 5 == 0 {
                1
            } else {
                frequent
            };
            let key = i as u64 % keys;
            Event::new(
                EventTypeId(tid),
                3 * (i as u64 + 1),
                i as u64,
                vec![
                    Value::Int((state >> 8) as i64 % 7 - 3),
                    Value::Int(key as i64),
                ],
            )
        })
        .collect()
}

/// The traffic model with a seed-independent regime schedule.
///
/// The model rotates every type's rate rank by a random offset at each
/// segment boundary, and the ten reachable regimes differ several-fold
/// in evaluation cost. With the regimes drawn from the run's seed every
/// `adapt_*` metric is a function of the seed (measured on
/// `adapt_order`: 164k–286k events/s, gain 1.02–1.77 over ten seeds),
/// so the *schedule* of shifts is drawn from an RNG of its own with a
/// fixed seed, and the run's seed drives only what happens inside a
/// regime — arrivals and attribute values.
struct ScheduledTraffic {
    inner: TrafficModel,
    schedule: StdRng,
}

impl DatasetModel for ScheduledTraffic {
    fn num_types(&self) -> usize {
        self.inner.num_types()
    }

    fn attr_names(&self) -> &'static [&'static str] {
        self.inner.attr_names()
    }

    fn initial_rates(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.inner.initial_rates(rng)
    }

    fn next_change(&self, now: u64) -> u64 {
        self.inner.next_change(now)
    }

    fn apply_change(&mut self, _rng: &mut StdRng, now: u64, rates: &mut [f64]) {
        self.inner.apply_change(&mut self.schedule, now, rates);
    }

    fn attributes(&mut self, rng: &mut StdRng, type_idx: usize, ts: u64) -> Vec<Value> {
        self.inner.attributes(rng, type_idx, ts)
    }
}

/// Seed of the regime schedule shared by every `adapt_*` stream.
const REGIME_SCHEDULE_SEED: u64 = 42;

fn traffic_scenario(seed: u64) -> Scenario {
    Scenario::with_config(
        DatasetKind::Traffic,
        ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        },
    )
}

fn traffic_stream(scenario: &Scenario, n: usize) -> Vec<(SourceId, Arc<Event>)> {
    let model = ScheduledTraffic {
        inner: TrafficModel::new(scenario.config.traffic.clone()),
        schedule: StdRng::seed_from_u64(REGIME_SCHEDULE_SEED),
    };
    merged(StreamGenerator::new(model, StdRng::seed_from_u64(scenario.config.seed)).take_events(n))
}

/// Stream `j` of an `adapt_*` workload: `j = 0` is the workload's own
/// stream, higher `j` are further samples of the same scenario. Match
/// counts on this pattern are heavy-tailed (415–2876 per 60k events over
/// ten seeds), so the A/B phase reports medians over several streams
/// instead of repeating one.
pub fn adapt_stream(w: &Workload, j: u64) -> Vec<(SourceId, Arc<Event>)> {
    let seed = if j == 0 {
        w.seed
    } else {
        acep_types::mix64(w.seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    };
    traffic_stream(&traffic_scenario(seed), w.events.len())
}

fn and3(window_ms: u64) -> Pattern {
    Pattern::builder("and3")
        .expr(PatternExpr::and([
            PatternExpr::prim(EventTypeId(0)),
            PatternExpr::prim(EventTypeId(1)),
            PatternExpr::prim(EventTypeId(2)),
        ]))
        .window(window_ms)
        .build()
        .expect("conjunction pattern is valid")
}

/// Generates workload `name` from `seed`. `scale` is 1.0 for measured
/// runs and ~0.02 for `--quick`.
pub fn generate(name: &str, seed: u64, scale: f64) -> Option<Workload> {
    let spec = spec(name)?;
    let base = Workload {
        spec,
        events: Vec::new(),
        num_types: 0,
        queries: Vec::new(),
        planner: PlannerKind::Greedy,
        policy: PolicyKind::invariant_with_distance(0.1),
        min_improvement: 0.0,
        disorder: DisorderConfig::in_order(),
        single_thread: false,
        ckpt_in_reps: false,
        seed,
    };
    let scenario = |dataset| {
        Scenario::with_config(
            dataset,
            ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            },
        )
    };
    Some(match name {
        "stocks_hot" => {
            let s = scenario(DatasetKind::Stocks);
            Workload {
                events: merged(s.keyed_events(64, scaled(4_000, scale, 200))),
                num_types: s.num_types(),
                queries: vec![
                    ("stocks/seq3", s.pattern(PatternSetKind::Sequence, 3)),
                    ("stocks/negt3", negt3(s.config.window_ms)),
                ],
                // Without deployment hysteresis near-tie plans on the
                // stocks statistics are deployed back and forth: 7.9k
                // key migrations at seed 42 and 0.21–0.55x of static
                // throughput depending on the seed. This workload is
                // about executor and finalizer cost, so the flapping is
                // switched off.
                min_improvement: 0.1,
                ..base
            }
        }
        "iot_lazy" => {
            let cfg = IotConfig {
                devices: scaled(100_000, scale, 500) as u64,
                events: scaled(240_000, scale, 8_000),
                seed,
                ..IotConfig::default()
            };
            Workload {
                events: merged(iot_fleet(&cfg)),
                num_types: IotConfig::NUM_TYPES,
                queries: vec![("iot/seq3", cfg.pattern())],
                planner: PlannerKind::LazyChain,
                ..base
            }
        }
        "click_disorder" => {
            let cfg = ClickstreamConfig {
                users: scaled(24_000, scale, 400) as u64,
                seed,
                ..ClickstreamConfig::default()
            };
            Workload {
                events: clickstream_tagged(&cfg),
                num_types: ClickstreamConfig::NUM_TYPES,
                queries: vec![("click/funnel5", cfg.pattern())],
                disorder: DisorderConfig::per_source(256, 2 * cfg.max_lateness),
                ..base
            }
        }
        "ckpt_recover" => {
            let keys = scaled(6_000, scale, 200) as u64;
            let window_ms = skew_window_ms(keys);
            Workload {
                events: merged(skew_shift_keyed(keys, 40, seed)),
                num_types: 3,
                queries: vec![
                    (
                        "skew/seq3",
                        Pattern::sequence(
                            "seq3",
                            &[EventTypeId(0), EventTypeId(1), EventTypeId(2)],
                            window_ms,
                        ),
                    ),
                    ("skew/and3", and3(window_ms)),
                ],
                ckpt_in_reps: true,
                ..base
            }
        }
        "adapt_order" | "adapt_tree" => {
            let s = traffic_scenario(seed);
            let (n, planner) = if name == "adapt_order" {
                (60_000, PlannerKind::Greedy)
            } else {
                (16_000, PlannerKind::ZStream)
            };
            Workload {
                events: traffic_stream(&s, scaled(n, scale, 6_000)),
                num_types: s.num_types(),
                queries: vec![("traffic/and5", s.pattern(PatternSetKind::Conjunction, 5))],
                planner,
                single_thread: true,
                ..base
            }
        }
        _ => return None,
    })
}
