//! The shared adaptation plane: [`QueryController`].
//!
//! The paper's detection–adaptation loop (Algorithm 1, Fig. 2) adapts
//! *per pattern*, not per partition key. A controller is that loop's
//! control half for one query — the statistics collector, the
//! reoptimizing decision function `D`, and the plan generation
//! algorithm `A` — hoisted out of the per-key engines so a sharded
//! runtime keeps exactly one per (shard, query) instead of one per
//! (key, query):
//!
//! * the controller [`observe`](QueryController::observe)s every event
//!   relevant to its query on the shard **once**, so its statistics are
//!   cross-key — a cold key inherits what the hot keys taught the
//!   estimators instead of starting from uniform statistics and never
//!   reaching warmup;
//! * the control loop (snapshot → `D` → maybe `A` → maybe deploy) runs
//!   at shard scope: a skew shift costs at most one planner invocation
//!   per branch per control step, independent of how many keys are
//!   live;
//! * a deployment does **not** touch any engine. It updates the
//!   controller's current plan and bumps the branch's **plan epoch**;
//!   [`KeyedEngine`]s carry the epoch of the
//!   plan they run and lazily rebuild + migrate (the lossless protocol
//!   of `acep_engine::MigratingExecutor`) on their next event, so a
//!   re-plan is O(keys that actually receive events) spread over the
//!   stream, not O(live keys) at the decision point. Keys instantiated
//!   *after* a deployment start directly on the adapted plan with no
//!   migration debt.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acep_checkpoint::{
    BranchCtlRec, CheckpointError, CollectorRec, ControllerRec, EventMap, EventTable, RateRec,
    StatsRec,
};
use acep_engine::{build_executor, ExecContext, Executor};
use acep_plan::{CollectingRecorder, EvalPlan, Planner};
use acep_stats::{CollectorState, RateState, SharedSnapshot, StatisticsCollector};
use acep_telemetry::{
    snapshot_hash, Histogram, ReplanOutcome as ReplanVerdict, ShardRecorder, TelemetryEvent,
};
use acep_types::{CanonicalPattern, Event, SubPattern, Timestamp};

use crate::keyed::KeyedEngine;
use crate::policy::{ReoptOutcome, ReoptPolicy};
use crate::runtime::{AdaptiveConfig, EngineTemplate};

/// Counters and timers of one controller's adaptation loop — the
/// per-(shard, query) analogue of what `AdaptiveMetrics` tracked per
/// engine before the adaptation plane was shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptationStats {
    /// Events observed by the controller (relevant events on its shard).
    pub events: u64,
    /// Decision-function evaluations.
    pub decision_evals: u64,
    /// Times `D` returned `true` (reoptimization attempts).
    pub reopt_triggers: u64,
    /// Plan-generation (`A`) invocations, excluding the initial ones.
    pub planner_invocations: u64,
    /// Plans actually replaced (the paper's "total number of plan
    /// reoptimizations"), excluding the one-off initial optimization.
    pub plan_replacements: u64,
    /// Total plan deployments across branches — initial optimizations
    /// *and* replacements; the sum of the per-branch epochs engines
    /// migrate towards.
    pub plan_epoch: u64,
    /// Wall time spent evaluating `D`.
    pub decision_time: Duration,
    /// Wall time spent in `A`, invariant construction and deployment.
    pub planning_time: Duration,
    /// Distribution of whole-control-step wall times (µs): snapshot +
    /// `D` + any planning/deployment across branches. The log-bucketed
    /// replacement for eyeballing `decision_time / decision_evals`.
    pub control_step_us: Histogram,
}

impl AdaptationStats {
    /// Accumulates another controller's counters (e.g. the same query's
    /// controller on another shard).
    pub fn merge(&mut self, other: &Self) {
        self.events += other.events;
        self.decision_evals += other.decision_evals;
        self.reopt_triggers += other.reopt_triggers;
        self.planner_invocations += other.planner_invocations;
        self.plan_replacements += other.plan_replacements;
        self.plan_epoch += other.plan_epoch;
        self.decision_time += other.decision_time;
        self.planning_time += other.planning_time;
        self.control_step_us.merge(&other.control_step_us);
    }
}

/// Control-side state of one pattern branch.
struct BranchControl {
    sub: SubPattern,
    ctx: Arc<ExecContext>,
    policy: Box<dyn ReoptPolicy>,
    /// The currently deployed plan (what new and re-syncing engines
    /// build their executors from).
    plan: EvalPlan,
    /// Bumped on every deployment; engines compare their executor's
    /// epoch tag against this to detect a pending migration.
    epoch: u64,
    /// Whether the one-off initial optimization has run.
    initialized: bool,
    /// The snapshot of the last control step (shareable observability
    /// surface; `None` before the first step).
    last_snapshot: Option<SharedSnapshot>,
}

/// Statistics + decision function `D` + planner `A` for one query — one
/// instance per (shard, query), shared by every keyed engine of that
/// query on the shard. See the [module docs](self).
pub struct QueryController {
    pattern: Arc<CanonicalPattern>,
    config: AdaptiveConfig,
    planner: Planner,
    collector: StatisticsCollector,
    branches: Vec<BranchControl>,
    stats: AdaptationStats,
    /// `stats.events` value at the most recent deployment (any branch).
    /// Drives [`events_since_deployment`](Self::events_since_deployment)
    /// for migration staggering; `0` until the first deployment.
    last_deploy_event: u64,
    /// Event time of the most recent control step — the reference point
    /// of the optional time-based cadence
    /// ([`AdaptiveConfig::control_interval_ms`]); `0` before the first
    /// step.
    last_step_ts: Timestamp,
    /// Telemetry producer handle (`None` = not recording) and the
    /// query tag stamped on records. Only touched at control-step
    /// cadence — the per-event path never sees it.
    recorder: Option<ShardRecorder>,
    query_tag: u32,
}

impl QueryController {
    /// Builds the controller of a compiled template: uniform-statistics
    /// plans deployed at epoch 0, policies armed on the uniform
    /// deciding-condition sets.
    pub(crate) fn from_template(t: &EngineTemplate) -> Self {
        let branches = t
            .branches
            .iter()
            .map(|bt| {
                let mut policy = t.config.policy.build();
                policy.on_plan_installed(
                    &bt.uniform_sets,
                    &bt.uniform_snapshot,
                    ReoptOutcome::Deployed,
                );
                BranchControl {
                    sub: bt.sub.clone(),
                    ctx: Arc::clone(&bt.ctx),
                    policy,
                    plan: bt.uniform_plan.clone(),
                    epoch: 0,
                    initialized: false,
                    last_snapshot: None,
                }
            })
            .collect();
        Self {
            pattern: Arc::clone(&t.pattern),
            config: t.config.clone(),
            planner: Planner::new(t.config.planner),
            collector: StatisticsCollector::new(t.num_types, &t.pattern, &t.config.stats),
            branches,
            stats: AdaptationStats::default(),
            last_deploy_event: 0,
            last_step_ts: 0,
            recorder: None,
            query_tag: 0,
        }
    }

    /// Attaches a telemetry recorder: every subsequent control step
    /// emits [`TelemetryEvent::ControlStep`] plus per-branch
    /// [`Replan`](TelemetryEvent::Replan) /
    /// [`Deployment`](TelemetryEvent::Deployment) records tagged with
    /// `query`. Recording happens only at control-step cadence and
    /// never blocks (the ring drops with accounting when full).
    pub fn set_recorder(&mut self, recorder: ShardRecorder, query: u32) {
        self.recorder = Some(recorder);
        self.query_tag = query;
    }

    /// Feeds one relevant event into the statistics estimators and,
    /// every `control_interval` events past warmup, runs one control
    /// step. With [`AdaptiveConfig::control_interval_ms`] set, a step
    /// also runs when that much event time has passed since the last
    /// one — whichever cadence comes due first (each step resets both).
    /// Returns whether a control step ran — hosts piggy-back bounded
    /// housekeeping (idle-key generation retirement) on that cadence.
    #[allow(clippy::manual_is_multiple_of)] // `%` keeps the 1.82 MSRV
    pub fn observe(&mut self, ev: &Arc<Event>) -> bool {
        self.collector.observe(ev);
        self.stats.events += 1;
        if self.stats.events < self.config.warmup_events {
            return false;
        }
        let count_due = self.stats.events % self.config.control_interval == 0;
        let time_due = self
            .config
            .control_interval_ms
            .is_some_and(|ms| ev.timestamp >= self.last_step_ts.saturating_add(ms));
        if count_due || time_due {
            self.last_step_ts = ev.timestamp;
            self.control_step(ev.timestamp);
            true
        } else {
            false
        }
    }

    /// One decision point: snapshot → `D` → (maybe) `A` → (maybe)
    /// deployment, per branch. Deployment only moves the controller's
    /// plan and epoch; engines migrate lazily on their next event.
    fn control_step(&mut self, now: Timestamp) {
        let step_start = Instant::now();
        let at_event = self.stats.events;
        let recorder = self.recorder.as_ref();
        for bi in 0..self.branches.len() {
            let snapshot = self.collector.shared_snapshot_branch(bi, now);
            // The audit evidence: a digest of exactly the statistics
            // this decision saw. Hashed only when someone listens.
            let evidence = recorder.map(|r| (r, snapshot_hash(&snapshot.values())));
            let b = &mut self.branches[bi];

            if !b.initialized {
                // One-off initial optimization from real statistics.
                b.initialized = true;
                let mut rec = CollectingRecorder::new();
                let plan = self.planner.generate(&b.sub, &snapshot, &mut rec);
                // The initial optimization replaces unconditionally on
                // any improvement — the uniform-stats plan is a
                // placeholder, not a tuned incumbent.
                b.policy.on_plan_installed(
                    &rec.into_condition_sets(),
                    &snapshot,
                    ReoptOutcome::Deployed,
                );
                if plan != b.plan && plan.cost(&snapshot) < b.plan.cost(&snapshot) {
                    let (cost_before, cost_after) = (b.plan.cost(&snapshot), plan.cost(&snapshot));
                    b.plan = plan;
                    b.epoch += 1;
                    self.stats.plan_epoch += 1;
                    self.last_deploy_event = at_event;
                    if let Some((rec, snapshot_hash)) = evidence {
                        rec.record(TelemetryEvent::Deployment {
                            query: self.query_tag,
                            branch: bi as u32,
                            at_event,
                            epoch: b.epoch,
                            plan_epoch: self.stats.plan_epoch,
                            snapshot_hash,
                            cost_before,
                            cost_after,
                            plan: Arc::from(format!("{:?}", b.plan)),
                        });
                    }
                }
                b.last_snapshot = Some(snapshot);
                continue;
            }

            let t0 = Instant::now();
            let fire = b.policy.should_reoptimize(&snapshot);
            self.stats.decision_time += t0.elapsed();
            self.stats.decision_evals += 1;
            if !fire {
                b.last_snapshot = Some(snapshot);
                continue;
            }
            self.stats.reopt_triggers += 1;

            let t1 = Instant::now();
            let mut rec = CollectingRecorder::new();
            let new_plan = self.planner.generate(&b.sub, &snapshot, &mut rec);
            self.stats.planner_invocations += 1;
            // Algorithm 1: "if new_plan is better than curr_plan".
            let new_cost = new_plan.cost(&snapshot);
            let cur_cost = b.plan.cost(&snapshot);
            let better = new_cost < cur_cost * (1.0 - self.config.min_improvement);
            // A rejected candidate within this relative band of the
            // current plan's cost is a tie: monitoring its conditions is
            // as good as monitoring the deployed plan's, so install
            // instead of re-arming D every decision point.
            const TIE_BAND: f64 = 0.05;
            let outcome = if new_plan == b.plan {
                ReoptOutcome::Unchanged
            } else if better {
                b.plan = new_plan;
                b.epoch += 1;
                self.stats.plan_epoch += 1;
                self.stats.plan_replacements += 1;
                self.last_deploy_event = at_event;
                ReoptOutcome::Deployed
            } else if new_cost <= cur_cost * (1.0 + TIE_BAND) {
                ReoptOutcome::Unchanged
            } else {
                ReoptOutcome::RejectedCandidate
            };
            b.policy
                .on_plan_installed(&rec.into_condition_sets(), &snapshot, outcome);
            self.stats.planning_time += t1.elapsed();
            if let Some((rec, snapshot_hash)) = evidence {
                let verdict = match outcome {
                    ReoptOutcome::Deployed => ReplanVerdict::Deployed,
                    ReoptOutcome::Unchanged => ReplanVerdict::Unchanged,
                    ReoptOutcome::RejectedCandidate => ReplanVerdict::Rejected,
                };
                rec.record(TelemetryEvent::Replan {
                    query: self.query_tag,
                    branch: bi as u32,
                    at_event,
                    snapshot_hash,
                    cost_current: cur_cost,
                    cost_candidate: new_cost,
                    outcome: verdict,
                });
                if outcome == ReoptOutcome::Deployed {
                    rec.record(TelemetryEvent::Deployment {
                        query: self.query_tag,
                        branch: bi as u32,
                        at_event,
                        epoch: b.epoch,
                        plan_epoch: self.stats.plan_epoch,
                        snapshot_hash,
                        cost_before: cur_cost,
                        cost_after: new_cost,
                        plan: Arc::from(format!("{:?}", b.plan)),
                    });
                }
            }
            b.last_snapshot = Some(snapshot);
        }
        let duration_us = step_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.stats.control_step_us.record(duration_us);
        if let Some(rec) = recorder {
            rec.record(TelemetryEvent::ControlStep {
                query: self.query_tag,
                at_event,
                now,
                duration_us,
            });
        }
    }

    /// Stamps out a keyed engine running the controller's *current*
    /// plans at the current epochs — a key appearing after a re-plan
    /// starts directly on the adapted plan, with no per-key warmup and
    /// no migration debt.
    pub fn new_engine(&self) -> KeyedEngine {
        KeyedEngine::from_controller(self)
    }

    /// Like [`new_engine`](Self::new_engine), tagging the engine with
    /// its partition `key` so migration staggering
    /// ([`AdaptiveConfig::migration_stagger`]) can spread per-key
    /// rebuilds deterministically by key hash.
    pub fn new_engine_for(&self, key: u64) -> KeyedEngine {
        KeyedEngine::from_controller_keyed(self, key)
    }

    /// Controller events observed since the most recent deployment
    /// (any branch); `stats.events` before the first deployment. The
    /// yardstick keyed engines compare their stagger offset against.
    pub fn events_since_deployment(&self) -> u64 {
        self.stats.events.saturating_sub(self.last_deploy_event)
    }

    /// Builds a fresh executor for branch `b`'s current plan (the
    /// target of a lazy migration).
    pub fn build_branch_executor(&self, b: usize) -> Box<dyn Executor> {
        let branch = &self.branches[b];
        build_executor(Arc::clone(&branch.ctx), &branch.plan)
    }

    /// The currently deployed plan of a branch.
    pub fn plan(&self, b: usize) -> &EvalPlan {
        &self.branches[b].plan
    }

    /// The deployment epoch of a branch (0 = uniform-statistics plan).
    pub fn epoch(&self, b: usize) -> u64 {
        self.branches[b].epoch
    }

    /// The match window of branch `b` (for engine construction).
    pub(crate) fn branch_window(&self, b: usize) -> Timestamp {
        self.branches[b].sub.window
    }

    /// The compiled execution context of branch `b` (for engine
    /// restore).
    pub(crate) fn branch_ctx(&self, b: usize) -> &Arc<ExecContext> {
        &self.branches[b].ctx
    }

    /// Number of pattern branches.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Adaptation counters so far.
    pub fn stats(&self) -> &AdaptationStats {
        &self.stats
    }

    /// The statistics snapshot of the last control step for branch `b`
    /// (shareable; `None` before the first step).
    pub fn snapshot(&self, b: usize) -> Option<&SharedSnapshot> {
        self.branches[b].last_snapshot.as_ref()
    }

    /// The canonical pattern this controller adapts.
    pub fn pattern(&self) -> &CanonicalPattern {
        &self.pattern
    }

    /// The adaptation configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Serializes the controller's recoverable state: deployed plans,
    /// epochs, adaptation counters, and the statistics collector
    /// (sample events are interned into `table`).
    ///
    /// The collector is captured so the recovered controller replays
    /// the crashed incarnation's snapshot trajectory. Eager executors
    /// would tolerate a fresh collector — their emission times are
    /// plan-independent, so the match multiset is plan-trajectory-
    /// invariant (pinned by the `controller_equivalence` goldens). Lazy
    /// executors emit when a *trigger's* window closes, and the trigger
    /// slot is the plan's statistics-chosen first join position:
    /// replaying a different plan trajectory would reorder emissions
    /// and break frontier-based deduplication on replay. Armed
    /// decision-function state and timing histograms still restart
    /// fresh — only policies whose decisions derive purely from the
    /// (restored) snapshot trajectory, such as unconditional
    /// re-optimization, are replay-exact.
    pub fn export_rec(&self, table: &mut EventTable) -> ControllerRec {
        let state = self.collector.export_state();
        ControllerRec {
            branches: self
                .branches
                .iter()
                .map(|b| BranchCtlRec {
                    plan: b.plan.clone(),
                    epoch: b.epoch,
                    initialized: b.initialized,
                })
                .collect(),
            stats: StatsRec {
                events: self.stats.events,
                decision_evals: self.stats.decision_evals,
                reopt_triggers: self.stats.reopt_triggers,
                planner_invocations: self.stats.planner_invocations,
                plan_replacements: self.stats.plan_replacements,
                plan_epoch: self.stats.plan_epoch,
                decision_time_us: self.stats.decision_time.as_micros().min(u64::MAX as u128) as u64,
                planning_time_us: self.stats.planning_time.as_micros().min(u64::MAX as u128) as u64,
            },
            last_deploy_event: self.last_deploy_event,
            collector: CollectorRec {
                events_observed: state.events_observed,
                rates: state
                    .rates
                    .into_iter()
                    .map(|r| match r {
                        RateState::Exact { times, first_ts } => RateRec::Exact { times, first_ts },
                        RateState::Dgim { buckets, first_ts } => {
                            RateRec::Dgim { buckets, first_ts }
                        }
                    })
                    .collect(),
                samples: state
                    .samples
                    .iter()
                    .map(|evs| evs.iter().map(|ev| table.intern(ev)).collect())
                    .collect(),
            },
            last_step_ts: self.last_step_ts,
        }
    }

    /// Restores the state captured by [`export_rec`](Self::export_rec)
    /// into a freshly templated controller, resolving sampled events
    /// through `events`. Plans, epochs, counters, and the statistics
    /// collector come back exactly; policy state restarts fresh (see
    /// `export_rec` for the boundary).
    pub fn import_rec(
        &mut self,
        rec: &ControllerRec,
        events: &EventMap,
    ) -> Result<(), CheckpointError> {
        if rec.branches.len() != self.branches.len() {
            return Err(CheckpointError::BadValue("controller branch count"));
        }
        for (b, br) in self.branches.iter_mut().zip(&rec.branches) {
            b.plan = br.plan.clone();
            b.epoch = br.epoch;
            b.initialized = br.initialized;
            b.last_snapshot = None;
        }
        self.stats = AdaptationStats {
            events: rec.stats.events,
            decision_evals: rec.stats.decision_evals,
            reopt_triggers: rec.stats.reopt_triggers,
            planner_invocations: rec.stats.planner_invocations,
            plan_replacements: rec.stats.plan_replacements,
            plan_epoch: rec.stats.plan_epoch,
            decision_time: Duration::from_micros(rec.stats.decision_time_us),
            planning_time: Duration::from_micros(rec.stats.planning_time_us),
            control_step_us: Histogram::default(),
        };
        self.last_deploy_event = rec.last_deploy_event;
        let samples = rec
            .collector
            .samples
            .iter()
            .map(|seqs| seqs.iter().map(|&s| events.get(s)).collect())
            .collect::<Result<Vec<Vec<Arc<Event>>>, CheckpointError>>()?;
        let state = CollectorState {
            events_observed: rec.collector.events_observed,
            rates: rec
                .collector
                .rates
                .iter()
                .map(|r| match r {
                    RateRec::Exact { times, first_ts } => RateState::Exact {
                        times: times.clone(),
                        first_ts: *first_ts,
                    },
                    RateRec::Dgim { buckets, first_ts } => RateState::Dgim {
                        buckets: buckets.clone(),
                        first_ts: *first_ts,
                    },
                })
                .collect(),
            samples,
        };
        self.collector
            .import_state(state)
            .map_err(CheckpointError::BadValue)?;
        self.last_step_ts = rec.last_step_ts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use acep_stats::StatsConfig;
    use acep_types::{EventTypeId, Pattern, Value};

    fn t(i: u32) -> EventTypeId {
        EventTypeId(i)
    }

    fn ev(tid: u32, ts: u64, seq: u64) -> Arc<Event> {
        Event::new(t(tid), ts, seq, vec![Value::Int(0)])
    }

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            policy: PolicyKind::invariant_with_distance(0.0),
            control_interval: 50,
            warmup_events: 200,
            stats: StatsConfig {
                exact_rates: true,
                window_ms: 2_000,
                ..StatsConfig::default()
            },
            ..AdaptiveConfig::default()
        }
    }

    /// Type 0 frequent, type 1 medium, type 2 rare.
    fn skewed_stream(n: u64) -> Vec<Arc<Event>> {
        let mut events = Vec::new();
        let mut seq = 0;
        for i in 0..n {
            events.push(ev(0, i * 10, seq));
            seq += 1;
            if i % 5 == 0 {
                events.push(ev(1, i * 10 + 1, seq));
                seq += 1;
            }
            if i % 25 == 0 {
                events.push(ev(2, i * 10 + 2, seq));
                seq += 1;
            }
        }
        events
    }

    #[test]
    fn deployment_bumps_epoch_without_touching_engines() {
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        let template = EngineTemplate::new(&p, 3, config()).unwrap();
        let mut ctl = template.controller();
        let mut engine = ctl.new_engine();
        assert_eq!(ctl.epoch(0), 0);
        let mut out = Vec::new();
        for e in skewed_stream(500) {
            ctl.observe(&e);
        }
        // The skew moved the plan off uniform: epoch advanced, stats
        // recorded the deployments, and the last snapshot is published.
        assert!(ctl.epoch(0) > 0, "skew must deploy a non-uniform plan");
        assert_eq!(ctl.stats().plan_epoch, ctl.epoch(0));
        assert!(ctl.snapshot(0).is_some());
        // The engine never saw an event, so it still runs epoch 0 —
        // deployments are epoch bumps, not engine walks.
        assert_eq!(engine.plan_epoch(0), 0);
        // Its next event migrates it straight to the current epoch.
        engine.on_event(&ctl, &ev(0, 10_000, 999_999), &mut out);
        assert_eq!(engine.plan_epoch(0), ctl.epoch(0));
    }

    #[test]
    fn cold_engine_adopts_current_plan_at_birth() {
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        let template = EngineTemplate::new(&p, 3, config()).unwrap();
        let mut ctl = template.controller();
        for e in skewed_stream(500) {
            ctl.observe(&e);
        }
        assert!(ctl.epoch(0) > 0);
        let engine = ctl.new_engine();
        assert_eq!(
            engine.plan_epoch(0),
            ctl.epoch(0),
            "a cold key starts on the adapted plan, not the uniform one"
        );
        assert_eq!(engine.generations(), 1, "no migration debt at birth");
    }

    #[test]
    fn migration_stagger_defers_per_key_and_eventually_settles() {
        use acep_types::mix64;
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        let stagger = 600;
        let cfg = AdaptiveConfig {
            migration_stagger: stagger,
            ..config()
        };
        let template = EngineTemplate::new(&p, 3, cfg).unwrap();
        let mut ctl = template.controller();
        // Engines created *before* the deployment, so each carries
        // migration debt afterwards.
        let keys: Vec<u64> = (0..64u64).map(|k| k.wrapping_mul(2_654_435_761)).collect();
        let mut engines: Vec<_> = keys.iter().map(|&k| ctl.new_engine_for(k)).collect();
        let stream = skewed_stream(2_000);
        let split = stream.len() / 4;
        for e in &stream[..split] {
            ctl.observe(e);
        }
        let target = ctl.epoch(0);
        assert!(target > 0, "skew must deploy a non-uniform plan");
        let mut out = Vec::new();
        let probe = ev(0, 50_000, 900_000);
        for (eng, &k) in engines.iter_mut().zip(&keys) {
            eng.on_event(&ctl, &probe, &mut out);
            let due = ctl.events_since_deployment() >= mix64(k ^ target) % stagger;
            assert_eq!(
                eng.plan_epoch(0) == target,
                due,
                "key {k}: stagger gate must match the deterministic offset"
            );
        }
        assert!(
            engines.iter().any(|e| e.plan_epoch(0) != target),
            "stagger window must defer at least one key (events since deployment: {})",
            ctl.events_since_deployment()
        );
        // The stream is stationary, so no further deployment resets the
        // clock; once the stagger window passes, every key is due.
        for e in &stream[split..] {
            ctl.observe(e);
        }
        assert_eq!(ctl.epoch(0), target, "stationary stream must not redeploy");
        assert!(ctl.events_since_deployment() >= stagger);
        let probe2 = ev(0, 51_000, 900_001);
        for eng in engines.iter_mut() {
            eng.on_event(&ctl, &probe2, &mut out);
            assert_eq!(
                eng.plan_epoch(0),
                target,
                "all keys settle after the window"
            );
        }
    }

    #[test]
    fn time_based_cadence_fires_between_count_intervals() {
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        // Event-count cadence effectively disabled: only the time-based
        // branch can run control steps.
        let starve = AdaptiveConfig {
            control_interval: u64::MAX / 2,
            ..config()
        };
        let timed = AdaptiveConfig {
            control_interval_ms: Some(500),
            ..starve.clone()
        };
        let stream = skewed_stream(600);

        let mut ctl = EngineTemplate::new(&p, 3, starve).unwrap().controller();
        let mut steps = 0;
        for e in &stream {
            steps += u64::from(ctl.observe(e));
        }
        assert_eq!(steps, 0, "count cadence alone must starve");
        assert_eq!(ctl.epoch(0), 0);

        let mut ctl = EngineTemplate::new(&p, 3, timed).unwrap().controller();
        let mut steps = 0;
        for e in &stream {
            steps += u64::from(ctl.observe(e));
        }
        // ~6000ms of post-warmup event time / 500ms per step.
        assert!(steps >= 5, "time cadence must keep deciding (got {steps})");
        assert!(
            ctl.epoch(0) > 0,
            "initial optimization must deploy the skew-adapted plan"
        );
        assert!(ctl.stats().decision_evals > 0);
    }

    #[test]
    fn lazy_chain_planner_deploys_rarest_first_lazy_plan() {
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        let cfg = AdaptiveConfig {
            planner: acep_plan::PlannerKind::LazyChain,
            ..config()
        };
        let template = EngineTemplate::new(&p, 3, cfg).unwrap();
        let mut ctl = template.controller();
        let mut eng = ctl.new_engine();
        let mut out = Vec::new();
        for e in skewed_stream(800) {
            ctl.observe(&e);
            eng.on_event(&ctl, &e, &mut out);
        }
        eng.finish(&mut out);
        match ctl.plan(0) {
            acep_plan::EvalPlan::Lazy(l) => {
                assert_eq!(l.order[0], 2, "rarest type leads: {:?}", l.order)
            }
            other => panic!("lazy-chain planner must deploy lazy plans, got {other:?}"),
        }
        assert!(!out.is_empty(), "lazy engine must detect matches");
    }

    #[test]
    fn controller_and_engine_checkpoint_round_trip() {
        let p = Pattern::sequence("p", &[t(0), t(1), t(2)], 500);
        let template = EngineTemplate::new(&p, 3, config()).unwrap();
        let mut ctl = template.controller();
        let mut eng = ctl.new_engine_for(42);
        let mut out = Vec::new();
        let full = skewed_stream(700);
        let prefix_len = skewed_stream(600).len();
        for e in &full[..prefix_len] {
            ctl.observe(e);
            eng.on_event(&ctl, e, &mut out);
        }
        assert!(ctl.epoch(0) > 0, "skew must deploy before the checkpoint");

        let mut table = acep_checkpoint::EventTable::new();
        let crec = ctl.export_rec(&mut table);
        let erec = eng.export_rec(&mut table);
        let mut map = acep_checkpoint::EventMap::new();
        for r in table.into_records() {
            map.insert(&r);
        }

        let mut ctl2 = template.controller();
        ctl2.import_rec(&crec, &map).unwrap();
        let mut eng2 = KeyedEngine::restore(&ctl2, 42, &erec, &map).unwrap();
        assert_eq!(ctl2.epoch(0), ctl.epoch(0));
        assert_eq!(ctl2.stats().plan_epoch, ctl.stats().plan_epoch);
        assert_eq!(ctl2.stats().events, ctl.stats().events);
        assert_eq!(eng2.plan_epoch(0), eng.plan_epoch(0));
        assert_eq!(eng2.partial_count(), eng.partial_count());
        assert_eq!(eng2.comparisons(), eng.comparisons());

        // The restored pair must emit the same matches on the same
        // suffix — with the collector restored, both controllers see
        // identical snapshots, so their plan trajectories stay in
        // lockstep as well.
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for e in &full[prefix_len..] {
            ctl.observe(e);
            ctl2.observe(e);
            eng.on_event(&ctl, e, &mut o1);
            eng2.on_event(&ctl2, e, &mut o2);
        }
        eng.finish(&mut o1);
        eng2.finish(&mut o2);
        let mut k1: Vec<_> = o1.iter().map(acep_engine::Match::key).collect();
        let mut k2: Vec<_> = o2.iter().map(acep_engine::Match::key).collect();
        k1.sort();
        k2.sort();
        assert_eq!(
            k1, k2,
            "restored engine must detect the identical suffix matches"
        );
        assert!(!k1.is_empty(), "suffix must exercise the match path");
    }
}
