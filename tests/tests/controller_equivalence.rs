//! Golden equivalence of the shared-adaptation-plane refactor with the
//! pre-refactor per-key [`AdaptiveCep`].
//!
//! The controller/engine split (statistics + decision function `D` +
//! planner `A` hoisted into a [`QueryController`], per-key state reduced
//! to a [`KeyedEngine`] of `MigratingExecutor`s that lazily migrates on
//! plan-epoch changes) must be invisible on a single-key stream: the
//! match multiset *and* the deployed-plan trajectory have to be
//! bit-identical to what the pre-refactor `AdaptiveCep` — collector,
//! planner and policy embedded per instance, eager executor replacement
//! at the control step — produced. The golden table below was captured
//! by running the **pre-refactor** build over deterministic streams
//! with a mid-stream rate flip (so `D` actually fires and plans
//! actually change); the compatibility wrapper must keep reproducing it
//! forever.
//!
//! Complementing the pins, `explicit_split_equals_wrapper` runs the
//! same rows through a hand-wired controller + engine pair, proving the
//! wrapper adds nothing beyond plumbing.

use std::sync::Arc;

use acep_core::{AdaptiveCep, AdaptiveConfig, EngineTemplate, PolicyKind};
use acep_plan::PlannerKind;
use acep_stats::StatsConfig;
use acep_types::{attr, constant, Event, EventTypeId, Pattern, PatternExpr, Timestamp, Value};

const WINDOW: Timestamp = 500;

fn t(i: u32) -> EventTypeId {
    EventTypeId(i)
}

/// SEQ(T0, T1, T2) WHERE a.x < c.x WITHIN 500.
fn seq_pattern() -> Pattern {
    Pattern::builder("ce-seq")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(0, 0).lt(attr(2, 0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0 a, T1 b, T0 c) WHERE a.x < c.x WITHIN 100 — two positive
/// slots of one type, tied by a condition, so the statistics pair a
/// type's sample with itself and the executors test identity between
/// the two slots. The shorter window keeps the frequent half of the
/// stream from producing a quadratic number of matches.
fn seq_repeat_pattern() -> Pattern {
    Pattern::builder("ce-seqrep")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::prim(t(0)),
        ]))
        .condition(attr(0, 0).lt(attr(2, 0)))
        .window(100)
        .build()
        .unwrap()
}

/// SEQ(T0, T1, ~T2) WITHIN 500 — trailing negation, deadline-driven.
fn trailing_neg_pattern() -> Pattern {
    Pattern::builder("ce-negt")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::prim(t(1)),
            PatternExpr::neg(PatternExpr::prim(t(2))),
        ]))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// SEQ(T0, T1* b, T2) WHERE b.x > 0 WITHIN 500.
fn kleene_pattern() -> Pattern {
    Pattern::builder("ce-kleene")
        .expr(PatternExpr::seq([
            PatternExpr::prim(t(0)),
            PatternExpr::kleene(PatternExpr::prim(t(1))),
            PatternExpr::prim(t(2)),
        ]))
        .condition(attr(1, 0).gt(constant(0)))
        .window(WINDOW)
        .build()
        .unwrap()
}

/// Deterministic single-key stream over 3 types whose rate profile
/// flips halfway: first type 0 frequent / type 2 rare, then the
/// reverse. The flip moves the rate statistics far enough that every
/// non-static policy re-plans at least once.
fn shifting_stream(n: usize, seed: u64) -> Vec<Arc<Event>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut events = Vec::new();
    let mut ts = 0u64;
    let mut seq = 0u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = ((state >> 20) % 10) as i64 - 4;
        let (frequent, rare) = if i < n / 2 { (0, 2) } else { (2, 0) };
        ts += 5 + (state >> 45) % 4;
        events.push(Event::new(t(frequent), ts, seq, vec![Value::Int(x)]));
        seq += 1;
        if i % 5 == 0 {
            events.push(Event::new(t(1), ts + 1, seq, vec![Value::Int(x)]));
            seq += 1;
        }
        if i % 25 == 0 {
            events.push(Event::new(t(rare), ts + 2, seq, vec![Value::Int(x)]));
            seq += 1;
        }
    }
    events
}

fn config(planner: PlannerKind, policy: PolicyKind) -> AdaptiveConfig {
    AdaptiveConfig {
        planner,
        policy,
        control_interval: 32,
        control_interval_ms: None,
        warmup_events: 128,
        min_improvement: 0.0,
        migration_stagger: 0,
        stats: StatsConfig {
            window_ms: 2_000,
            exact_rates: true,
            sample_capacity: 16,
            max_pairs: 100,
            ..StatsConfig::default()
        },
    }
}

/// FNV-1a over a byte string (stable, dependency-free digest).
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of the sorted match-key multiset.
fn match_hash(out: &[acep_engine::Match]) -> u64 {
    let mut keys: Vec<String> = out.iter().map(|m| m.key().to_string()).collect();
    keys.sort();
    let mut h = FNV_OFFSET;
    for k in &keys {
        fnv(&mut h, k.as_bytes());
        fnv(&mut h, b";");
    }
    h
}

/// One measured row: a full adaptive run recording the match multiset
/// digest and the deployed-plan trajectory digest (initial plans plus
/// every `(event index, branch, plan)` change observed after an event).
fn run_row(
    pattern: &Pattern,
    planner: PlannerKind,
    policy: PolicyKind,
    events: &[Arc<Event>],
) -> (usize, u64, u64, u64) {
    let mut engine = AdaptiveCep::new(pattern, 3, config(planner, policy)).unwrap();
    let mut out = Vec::new();
    let mut traj = FNV_OFFSET;
    let mut last: Vec<String> = (0..engine.num_branches())
        .map(|b| format!("{:?}", engine.plan(b)))
        .collect();
    for p in &last {
        fnv(&mut traj, p.as_bytes());
    }
    for (i, ev) in events.iter().enumerate() {
        engine.on_event(ev, &mut out);
        for (b, seen) in last.iter_mut().enumerate() {
            let cur = format!("{:?}", engine.plan(b));
            if cur != *seen {
                fnv(&mut traj, &(i as u64).to_le_bytes());
                fnv(&mut traj, &(b as u64).to_le_bytes());
                fnv(&mut traj, cur.as_bytes());
                *seen = cur;
            }
        }
    }
    engine.finish(&mut out);
    (
        out.len(),
        match_hash(&out),
        traj,
        engine.metrics().plan_replacements,
    )
}

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("seq", seq_pattern()),
        ("negt", trailing_neg_pattern()),
        ("kleene", kleene_pattern()),
        ("seqrep", seq_repeat_pattern()),
    ]
}

fn planners() -> Vec<(&'static str, PlannerKind)> {
    vec![
        ("greedy", PlannerKind::Greedy),
        ("zstream", PlannerKind::ZStream),
    ]
}

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("inv", PolicyKind::invariant_with_distance(0.0)),
        ("uncond", PolicyKind::Unconditional),
        ("static", PolicyKind::Static),
    ]
}

/// One golden row:
/// `(pattern, planner, policy, seed, matches, match_hash, trajectory_hash, replacements)`.
type GoldenRow = (
    &'static str,
    &'static str,
    &'static str,
    u64,
    usize,
    u64,
    u64,
    u64,
);

/// Golden rows captured from the pre-refactor per-key `AdaptiveCep`.
/// See module docs. The `kleene × greedy × {inv, uncond} × seed 2`
/// trajectories were re-derived once, when the unary selectivity of
/// `b.x > 0` became a count over the statistics window instead of a
/// 16-event sample; they now equal seed 1's. Match counts, match hashes
/// and replacement counts did not move. The `seqrep` rows (one event
/// type in two slots) were captured on the build that still tested
/// every cross pair of a join step, before step masks skipped the
/// identity test between slots of different types.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    ("seq", "greedy", "inv", 1, 27915, 0x99B3F20F1F8BAF9B, 0xDA12FF993AFCF6CD, 8),
    ("seq", "greedy", "uncond", 1, 27915, 0x99B3F20F1F8BAF9B, 0xDA12FF993AFCF6CD, 8),
    ("seq", "greedy", "static", 1, 27915, 0x99B3F20F1F8BAF9B, 0x72516D96DCA36B12, 0),
    ("seq", "zstream", "inv", 1, 27915, 0x99B3F20F1F8BAF9B, 0xFD5CAAA59855B805, 0),
    ("seq", "zstream", "uncond", 1, 27915, 0x99B3F20F1F8BAF9B, 0xFF6C156CB5B088D0, 1),
    ("seq", "zstream", "static", 1, 27915, 0x99B3F20F1F8BAF9B, 0xFD5CAAA59855B805, 0),
    ("negt", "greedy", "inv", 1, 1394, 0x75C4C3E0BB5540A4, 0x02A793E3D623BB5E, 1),
    ("negt", "greedy", "uncond", 1, 1394, 0x75C4C3E0BB5540A4, 0x02A793E3D623BB5E, 1),
    ("negt", "greedy", "static", 1, 1394, 0x75C4C3E0BB5540A4, 0x0E5B49130587B15C, 0),
    ("negt", "zstream", "inv", 1, 1394, 0x75C4C3E0BB5540A4, 0xF898923FEC59795E, 0),
    ("negt", "zstream", "uncond", 1, 1394, 0x75C4C3E0BB5540A4, 0xF898923FEC59795E, 0),
    ("negt", "zstream", "static", 1, 1394, 0x75C4C3E0BB5540A4, 0xF898923FEC59795E, 0),
    ("kleene", "greedy", "inv", 1, 6794, 0xA95F5283C17E6500, 0x509CB42C91E8C8DA, 3),
    ("kleene", "greedy", "uncond", 1, 6794, 0xA95F5283C17E6500, 0x509CB42C91E8C8DA, 3),
    ("kleene", "greedy", "static", 1, 6794, 0xA95F5283C17E6500, 0x72516D96DCA36B12, 0),
    ("kleene", "zstream", "inv", 1, 6794, 0xA95F5283C17E6500, 0xFD5CAAA59855B805, 0),
    ("kleene", "zstream", "uncond", 1, 6794, 0xA95F5283C17E6500, 0xFF6C156CB5B088D0, 1),
    ("kleene", "zstream", "static", 1, 6794, 0xA95F5283C17E6500, 0xFD5CAAA59855B805, 0),
    ("seqrep", "greedy", "inv", 1, 8004, 0x107DE7884615BF67, 0x47F8D724F2F1161C, 1),
    ("seqrep", "greedy", "uncond", 1, 8004, 0x107DE7884615BF67, 0x47F8D724F2F1161C, 1),
    ("seqrep", "greedy", "static", 1, 8004, 0x107DE7884615BF67, 0x31E3D4B395E938BC, 0),
    ("seqrep", "zstream", "inv", 1, 8004, 0x107DE7884615BF67, 0xFD5CAAA59855B805, 0),
    ("seqrep", "zstream", "uncond", 1, 8004, 0x107DE7884615BF67, 0xFD5CAAA59855B805, 0),
    ("seqrep", "zstream", "static", 1, 8004, 0x107DE7884615BF67, 0xFD5CAAA59855B805, 0),
    ("seq", "greedy", "inv", 2, 29441, 0xBF7BE910A7F1795A, 0x940598A6450B3B3C, 4),
    ("seq", "greedy", "uncond", 2, 29441, 0xBF7BE910A7F1795A, 0x55DE3C6F572E2AE8, 5),
    ("seq", "greedy", "static", 2, 29441, 0xBF7BE910A7F1795A, 0x72516D96DCA36B12, 0),
    ("seq", "zstream", "inv", 2, 29441, 0xBF7BE910A7F1795A, 0xFD5CAAA59855B805, 0),
    ("seq", "zstream", "uncond", 2, 29441, 0xBF7BE910A7F1795A, 0xFF6C156CB5B088D0, 1),
    ("seq", "zstream", "static", 2, 29441, 0xBF7BE910A7F1795A, 0xFD5CAAA59855B805, 0),
    ("negt", "greedy", "inv", 2, 1392, 0x539A100A237374BC, 0x0E5B49130587B15C, 0),
    ("negt", "greedy", "uncond", 2, 1392, 0x539A100A237374BC, 0x5D016D3C80D8163E, 1),
    ("negt", "greedy", "static", 2, 1392, 0x539A100A237374BC, 0x0E5B49130587B15C, 0),
    ("negt", "zstream", "inv", 2, 1392, 0x539A100A237374BC, 0xF898923FEC59795E, 0),
    ("negt", "zstream", "uncond", 2, 1392, 0x539A100A237374BC, 0xF898923FEC59795E, 0),
    ("negt", "zstream", "static", 2, 1392, 0x539A100A237374BC, 0xF898923FEC59795E, 0),
    ("kleene", "greedy", "inv", 2, 6944, 0x9E1A02DA73ED1AF3, 0x509CB42C91E8C8DA, 3),
    ("kleene", "greedy", "uncond", 2, 6944, 0x9E1A02DA73ED1AF3, 0x509CB42C91E8C8DA, 3),
    ("kleene", "greedy", "static", 2, 6944, 0x9E1A02DA73ED1AF3, 0x72516D96DCA36B12, 0),
    ("kleene", "zstream", "inv", 2, 6944, 0x9E1A02DA73ED1AF3, 0xFD5CAAA59855B805, 0),
    ("kleene", "zstream", "uncond", 2, 6944, 0x9E1A02DA73ED1AF3, 0xFF6C156CB5B088D0, 1),
    ("kleene", "zstream", "static", 2, 6944, 0x9E1A02DA73ED1AF3, 0xFD5CAAA59855B805, 0),
    ("seqrep", "greedy", "inv", 2, 7997, 0x973063A1CACFBF15, 0x47F8D724F2F1161C, 1),
    ("seqrep", "greedy", "uncond", 2, 7997, 0x973063A1CACFBF15, 0x47F8D724F2F1161C, 1),
    ("seqrep", "greedy", "static", 2, 7997, 0x973063A1CACFBF15, 0x31E3D4B395E938BC, 0),
    ("seqrep", "zstream", "inv", 2, 7997, 0x973063A1CACFBF15, 0xFD5CAAA59855B805, 0),
    ("seqrep", "zstream", "uncond", 2, 7997, 0x973063A1CACFBF15, 0xFD5CAAA59855B805, 0),
    ("seqrep", "zstream", "static", 2, 7997, 0x973063A1CACFBF15, 0xFD5CAAA59855B805, 0),
];

fn compute_rows() -> Vec<GoldenRow> {
    let mut rows = Vec::new();
    for seed in [1u64, 2] {
        let events = shifting_stream(1_500, seed);
        for (pname, pattern) in patterns() {
            for (plname, planner) in planners() {
                for (poname, policy) in policies() {
                    let (n, mh, th, reps) = run_row(&pattern, planner, policy, &events);
                    rows.push((pname, plname, poname, seed, n, mh, th, reps));
                }
            }
        }
    }
    rows
}

/// The golden equivalence pin: run `ACEP_PRINT_GOLDEN=1 cargo test -p
/// acep-integration-tests --test controller_equivalence -- --nocapture`
/// to regenerate after an *intentional* semantics change.
#[test]
fn golden_matches_and_plan_trajectory_match_per_key_adaptation() {
    let rows = compute_rows();
    if std::env::var("ACEP_PRINT_GOLDEN").is_ok() {
        for (pat, pl, po, seed, n, mh, th, reps) in &rows {
            println!("    (\"{pat}\", \"{pl}\", \"{po}\", {seed}, {n}, 0x{mh:016X}, 0x{th:016X}, {reps}),");
        }
        return;
    }
    let got: Vec<_> = rows
        .into_iter()
        .map(|(a, b, c, d, e, f, g, h)| {
            (a.to_string(), b.to_string(), c.to_string(), d, e, f, g, h)
        })
        .collect();
    let want: Vec<_> = GOLDEN
        .iter()
        .map(|(a, b, c, d, e, f, g, h)| {
            (
                a.to_string(),
                b.to_string(),
                c.to_string(),
                *d,
                *e,
                *f,
                *g,
                *h,
            )
        })
        .collect();
    assert!(!want.is_empty(), "golden table must not be empty");
    assert_eq!(
        got.len(),
        want.len(),
        "row count changed — regenerate deliberately"
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "controller+engine path diverged from pre-refactor per-key adaptation"
        );
    }
    // The shifting workload must actually exercise adaptation: at least
    // one non-static row replaces a plan.
    assert!(
        want.iter().any(|r| r.2 != "static" && r.7 > 0),
        "no row re-planned — the golden streams are too tame to pin trajectories"
    );
}

/// Redundant with the wrapper only as long as the wrapper stays thin:
/// hand-wires a controller + keyed engine and checks it agrees with
/// [`AdaptiveCep`] on every golden row's stream.
#[test]
fn explicit_split_equals_wrapper() {
    let events = shifting_stream(1_200, 3);
    for (_, pattern) in patterns() {
        for (_, planner) in planners() {
            for (_, policy) in policies() {
                let cfg = config(planner, policy);
                let template = EngineTemplate::new(&pattern, 3, cfg.clone()).unwrap();
                let mut controller = template.controller();
                let mut engine = controller.new_engine();
                let mut split_out = Vec::new();
                for ev in &events {
                    controller.observe(ev);
                    engine.on_event(&controller, ev, &mut split_out);
                }
                engine.finish(&mut split_out);

                let mut wrapper = AdaptiveCep::new(&pattern, 3, cfg).unwrap();
                let mut wrap_out = Vec::new();
                for ev in &events {
                    wrapper.on_event(ev, &mut wrap_out);
                }
                wrapper.finish(&mut wrap_out);

                assert_eq!(match_hash(&split_out), match_hash(&wrap_out));
                assert_eq!(split_out.len(), wrap_out.len());
                assert_eq!(
                    controller.stats().events,
                    wrapper.metrics().events,
                    "controller observes exactly the wrapper's event count"
                );
                assert_eq!(engine.events(), events.len() as u64);
            }
        }
    }
}
