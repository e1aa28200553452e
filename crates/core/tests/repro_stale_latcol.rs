//! Regression: dropping a LAT and redefining it with other columns must not
//! leave a rule conditioned on it silently false. The rule's compiled column
//! indexes point into the old layout, so the plan marks it broken (an error
//! per evaluation, visible in `rule_errors()`); a redefinition with the same
//! columns keeps it working.

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::objects::query_object;
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

fn query(sig: u64, secs: f64) -> QueryInfo {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    q
}

fn wide_lat() -> LatSpec {
    LatSpec::new("L")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Dur")
}

/// `L` with columns [Sig, N, Avg_Dur], a feeding rule, and rule `r` reading
/// `L.Avg_Dur` (column index 2).
fn monitor_with_reader(engine: &Engine) -> Sqlcm {
    let sqlcm = Sqlcm::attach(engine);
    sqlcm.define_lat(wide_lat()).unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::Insert { lat: "L".into() }),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("L.Avg_Dur > 0"),
        )
        .unwrap();
    sqlcm
}

#[test]
fn narrower_redefinition_marks_rule_broken() {
    let engine = Engine::in_memory();
    let sqlcm = monitor_with_reader(&engine);
    assert!(sqlcm.drop_lat("L"));
    let narrow = sqlcm
        .define_lat(
            LatSpec::new("L")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    // A row for the probed key exists, so the implicit ∃ would succeed.
    narrow.insert(&query_object(&query(7, 1.0))).unwrap();
    for _ in 0..2 {
        sqlcm.inject_event(&EngineEvent::QueryCommit(query(7, 1.0)));
    }
    let r = sqlcm.rule("r").unwrap();
    assert_eq!(r.stats().evaluations, 2);
    assert_eq!(r.stats().fires, 0, "rule r fired on a stale layout");
    let errors = sqlcm.rule_errors();
    let err = errors
        .iter()
        .find(|e| e.rule == "r")
        .expect("rule r reports an error");
    assert!(
        err.message.contains("columns changed"),
        "unexpected error: {}",
        err.message
    );
}

#[test]
fn identical_redefinition_keeps_rule_working() {
    let engine = Engine::in_memory();
    let sqlcm = monitor_with_reader(&engine);
    assert!(sqlcm.drop_lat("L"));
    let lat = sqlcm.define_lat(wide_lat()).unwrap();
    lat.insert(&query_object(&query(7, 1.0))).unwrap();
    sqlcm.inject_event(&EngineEvent::QueryCommit(query(7, 1.0)));
    let r = sqlcm.rule("r").unwrap();
    assert_eq!(r.stats().fires, 1);
    assert!(sqlcm.rule_errors().iter().all(|e| e.rule != "r"));
}
