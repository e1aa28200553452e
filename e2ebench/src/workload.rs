//! The host workloads: data, monitoring rules, generated queries, and
//! the checks that SQLCM's output is what the generated inputs imply.
//!
//! Every workload runs on the same TPC-H-lite database of 10,000 orders,
//! loaded with a fixed generator seed. The queries come only from the run's
//! seed; the engine sees nothing but the generated SQL.
//! WORKLOADS.md gives the reason for each workload and the layers it loads.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_repro::common::{Result, Value};
use sqlcm_repro::engine::{Engine, EngineConfig};
use sqlcm_repro::monitor::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_repro::workloads::mixed::{self, MixedConfig};
use sqlcm_repro::workloads::tpch::{self, TpchConfig, TpchDb};
use sqlcm_repro::workloads::{rules, skewed, WorkloadQuery};

pub const ORDERS: u32 = 10_000;
/// The database is a fixture, not an input. With data drawn from the run
/// seed, one seed in ten made `topk_mixed` queries 1.7× costlier in the
/// engine (2-core Xeon VM); its query stream on this fixed database did not.
const DATA_SEED: u64 = 42;

/// tenant_oltp: tenant sessions, all on one client thread, and rules per
/// tenant.
pub const TENANTS: usize = 64;
pub const RULES_PER_TENANT: usize = 8;
pub const TENANT_QUERIES: u32 = 3_000;
pub const UPDATE_SHARE: f64 = 0.1;
pub const TENANT_LAT: &str = "Tenant_LAT";
const UPDATE_SQL: &str = "UPDATE orders SET o_totalprice = ? WHERE o_orderkey = ?";

/// topk_mixed: Figure 3's mix at 200 point selects per join.
pub const TOPK_POINTS: u32 = 4_000;
pub const TOPK_JOINS: u32 = 20;
pub const TOPK_LAT: &str = "TopK_LAT";
pub const TOPK_ROWS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TenantOltp,
    TopkMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::TenantOltp, Workload::TopkMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantOltp => "tenant_oltp",
            Workload::TopkMixed => "topk_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters, for the run record.
    pub fn describe(self) -> String {
        match self {
            Workload::TenantOltp => format!(
                "orders={ORDERS} clients=1 sessions={TENANTS} \
                 queries_per_pass={TENANT_QUERIES} (skewed read mix + {:.0}% UPDATE orders) \
                 rules={} ({RULES_PER_TENANT} per tenant, 1 firing into {TENANT_LAT}) + mixed \
                 catalog",
                UPDATE_SHARE * 100.0,
                TENANTS * RULES_PER_TENANT
            ),
            Workload::TopkMixed => format!(
                "orders={ORDERS} clients=1 queries_per_pass={} ({TOPK_POINTS} point selects, \
                 {TOPK_JOINS} 3-way joins) rules=top-{TOPK_ROWS} by Duration + mixed catalog",
                TOPK_POINTS + TOPK_JOINS
            ),
        }
    }
}

/// Sub-seed for one use of the run seed, so inputs differ across seeds and
/// uses (splitmix64 finalizer).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one operation must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Rows(usize),
    Affected(u64),
    /// Known only from the data: every pass must return what the first did.
    SameAsFirst(Option<usize>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into the client's sessions.
    pub session: usize,
    pub query: WorkloadQuery,
    pub expect: Expect,
}

/// One closed-loop client: its sessions (by user name) and the operations it
/// issues, in order, on every pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    pub users: Vec<String>,
    pub ops: Vec<Op>,
}

/// The engine with TPC-H-lite loaded and SQLCM attached with its rules.
pub struct Bench {
    pub engine: Engine,
    pub db: TpchDb,
    pub sqlcm: std::sync::Arc<Sqlcm>,
}

/// Create the engine, load the data and register the workload's LATs and
/// rules. This is what `setup_s` times.
pub fn setup(w: Workload) -> Result<Bench> {
    let engine = Engine::new(EngineConfig::default())?;
    let db = tpch::load(
        &engine,
        TpchConfig {
            orders: ORDERS,
            parts: ORDERS / 10,
            customers: ORDERS / 25,
            seed: DATA_SEED,
        },
    )?;
    let sqlcm = Sqlcm::attach(&engine);
    install(w, &sqlcm)?;
    Ok(Bench {
        engine,
        db,
        sqlcm: std::sync::Arc::new(sqlcm),
    })
}

fn install(w: Workload, sqlcm: &Sqlcm) -> Result<()> {
    let catalog = rules::mixed();
    for lat in catalog.lats {
        sqlcm.define_lat(lat)?;
    }
    for rule in catalog.rules {
        sqlcm.add_rule(rule)?;
    }
    match w {
        Workload::TenantOltp => {
            sqlcm.define_lat(
                LatSpec::new(TENANT_LAT)
                    .group_by("Query.User", "Tenant")
                    .aggregate(LatAggFunc::Count, "", "N")
                    .aggregate(LatAggFunc::Sum, "Query.Duration", "Total_Duration"),
            )?;
            for k in 0..TENANTS {
                sqlcm.add_rule(
                    Rule::new(tenant_track_rule(k))
                        .on(RuleEvent::QueryCommit)
                        .when(&format!("Query.User = '{}'", tenant_user(k)))
                        .then(Action::insert(TENANT_LAT)),
                )?;
                // Never true: no host query here runs for a minute or more.
                for j in 1..RULES_PER_TENANT {
                    sqlcm.add_rule(
                        Rule::new(format!("tenant_{k}_slow_{j}"))
                            .on(RuleEvent::QueryCommit)
                            .when(&format!(
                                "Query.User = '{}' AND Query.Duration > {}",
                                tenant_user(k),
                                60 * j
                            ))
                            .then(Action::send_mail("dba", "slow tenant query")),
                    )?;
                }
            }
        }
        Workload::TopkMixed => {
            sqlcm.define_lat(
                LatSpec::new(TOPK_LAT)
                    .group_by("Query.ID", "ID")
                    .aggregate(LatAggFunc::Last, "Query.Duration", "D")
                    .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
                    .order_by("D", true)
                    .max_rows(TOPK_ROWS),
            )?;
            sqlcm.add_rule(
                Rule::new("top10")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert(TOPK_LAT)),
            )?;
        }
    }
    Ok(())
}

fn tenant_user(k: usize) -> String {
    format!("tenant_{k}")
}

fn tenant_track_rule(k: usize) -> String {
    format!("tenant_{k}_track")
}

/// The client and its operations for one pass; every pass replays them.
pub fn generate(w: Workload, db: &TpchDb, seed: u64) -> Client {
    let single = |queries: Vec<WorkloadQuery>| {
        let ops = queries
            .into_iter()
            .map(|query| Op {
                session: 0,
                expect: Expect::Rows(mixed_rows(db, &query)),
                query,
            })
            .collect();
        Client {
            users: vec!["bench".to_string()],
            ops,
        }
    };
    match w {
        Workload::TopkMixed => single(mixed::generate(
            db,
            MixedConfig {
                point_selects: TOPK_POINTS,
                join_selects: TOPK_JOINS,
                seed: derive(seed, 3),
            },
        )),
        Workload::TenantOltp => tenant_client(db, seed),
    }
}

/// Rows a Figure-2/3 statement returns: one for a point select; for the
/// join, every line item of the orders in `[start, end)` (each line item's
/// part exists).
fn mixed_rows(db: &TpchDb, q: &WorkloadQuery) -> usize {
    if !q.is_join {
        return 1;
    }
    let (start, end) = (int(&q.params[0]), int(&q.params[1]));
    (start..end.min(db.config.orders as i64 + 1))
        .map(|o| db.lines_per_order[o as usize - 1] as usize)
        .sum()
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("generated parameter is an integer")
}

fn tenant_client(db: &TpchDb, seed: u64) -> Client {
    let users = (0..TENANTS).map(tenant_user).collect();
    let reads = skewed::generate(db, TENANT_QUERIES, derive(seed, 10));
    let mut rng = SmallRng::seed_from_u64(derive(seed, 20));
    let ops = reads
        .into_iter()
        .map(|read| {
            let session = rng.gen_range(0..TENANTS);
            if rng.gen_bool(UPDATE_SHARE) {
                let okey = rng.gen_range(1..=db.config.orders) as i64;
                let price = rng.gen_range(100.0..20_000.0);
                Op {
                    session,
                    query: WorkloadQuery {
                        sql: UPDATE_SQL.to_string(),
                        params: vec![Value::Float(price), Value::Int(okey)],
                        is_join: false,
                    },
                    expect: Expect::Affected(1),
                }
            } else {
                Op {
                    session,
                    expect: skewed_rows(db, &read),
                    query: read,
                }
            }
        })
        .collect();
    Client { users, ops }
}

/// Rows a skewed-mix template returns, by its shape. The per-ship-mode
/// aggregate depends on generated ship modes the loader does not expose, so
/// it must repeat what the first pass returned.
fn skewed_rows(db: &TpchDb, q: &WorkloadQuery) -> Expect {
    let okey = int(&q.params[0]);
    let sql = q.sql.as_str();
    if sql.contains("GROUP BY") {
        Expect::SameAsFirst(None)
    } else if sql.contains("o_orderkey >= ?") {
        let end = (okey + 50).min(db.config.orders as i64 + 1);
        Expect::Rows((end - okey) as usize)
    } else if sql.contains("FROM lineitem") && !sql.contains("l_linenumber") {
        Expect::Rows(db.lines_per_order[okey as usize - 1] as usize)
    } else {
        Expect::Rows(1)
    }
}

impl Expect {
    /// Check an observed row count (`rows` for queries, `rows_affected` for
    /// updates). `SameAsFirst` learns its value on the first call.
    pub fn check(&mut self, rows: usize, affected: u64) -> bool {
        match self {
            Expect::Rows(n) => rows == *n,
            Expect::Affected(n) => affected == *n,
            Expect::SameAsFirst(seen) => *seen.get_or_insert(rows) == rows,
        }
    }
}

/// Everything the checks need to know about what was run.
pub struct Ran<'a> {
    pub client: &'a Client,
    /// Passes delivered to SQLCM (warm-up, timed and traced).
    pub monitored_passes: u64,
}

/// Violations of the workload's output invariants (empty when correct).
pub fn check(w: Workload, bench: &Bench, ran: &Ran) -> Vec<String> {
    let sqlcm = &bench.sqlcm;
    let mut bad = Vec::new();
    let stats = sqlcm.stats();
    if stats.action_errors != 0 {
        bad.push(format!("{} action errors", stats.action_errors));
    }
    for e in sqlcm.rule_errors() {
        bad.push(format!("rule {} error x{}: {}", e.rule, e.count, e.message));
    }
    let telemetry = sqlcm.telemetry();
    if telemetry.containment.breaker_trips != 0 {
        bad.push(format!(
            "{} breaker trips",
            telemetry.containment.breaker_trips
        ));
    }
    if sqlcm.total_action_losses() != 0 {
        bad.push(format!(
            "{} deferred actions lost",
            sqlcm.total_action_losses()
        ));
    }
    let per_pass = ran.client.ops.len() as u64;
    let commits = per_pass * ran.monitored_passes;
    if stats.events != commits {
        bad.push(format!(
            "SQLCM saw {} events for {commits} commits",
            stats.events
        ));
    }
    let rule_fires = |name: &str| {
        telemetry
            .rules
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.fires)
    };
    match w {
        Workload::TenantOltp => {
            let mut per_tenant = vec![0u64; TENANTS];
            for op in &ran.client.ops {
                per_tenant[op.session] += ran.monitored_passes;
            }
            let lat = sqlcm.lat(TENANT_LAT).expect("tenant LAT is defined");
            let (ti, ni) = (
                lat.column_index("Tenant").expect("Tenant column"),
                lat.column_index("N").expect("N column"),
            );
            let rows = lat.rows();
            if rows.len() != TENANTS {
                bad.push(format!("{TENANT_LAT} has {} groups", rows.len()));
            }
            for row in rows {
                let k = row[ti]
                    .as_str()
                    .and_then(|t| (0..TENANTS).find(|&k| t == tenant_user(k)));
                match k {
                    Some(k) if row[ni].as_i64() == Some(per_tenant[k] as i64) => {}
                    _ => bad.push(format!(
                        "{TENANT_LAT} row {row:?}: predicted count {:?}",
                        k.map(|k| per_tenant[k])
                    )),
                }
            }
            for (k, &n) in per_tenant.iter().enumerate() {
                let fires = rule_fires(&tenant_track_rule(k));
                if fires != n {
                    bad.push(format!(
                        "{} fired {fires}, predicted {n}",
                        tenant_track_rule(k)
                    ));
                }
            }
            let slow: u64 = telemetry
                .rules
                .iter()
                .filter(|r| r.name.contains("_slow_"))
                .map(|r| r.fires)
                .sum();
            if slow != 0 {
                bad.push(format!("never-true tenant rules fired {slow} times"));
            }
            if rule_fires("track_durations") != commits {
                bad.push(format!(
                    "track_durations fired {}, predicted {commits}",
                    rule_fires("track_durations")
                ));
            }
        }
        Workload::TopkMixed => {
            let lat = sqlcm.lat(TOPK_LAT).expect("top-k LAT is defined");
            let (idi, ti) = (
                lat.column_index("ID").expect("ID column"),
                lat.column_index("Query_Text").expect("Query_Text column"),
            );
            let rows = lat.rows();
            let ids: BTreeSet<i64> = rows.iter().filter_map(|r| r[idi].as_i64()).collect();
            if rows.len() != TOPK_ROWS || ids.len() != TOPK_ROWS {
                bad.push(format!(
                    "{TOPK_LAT} has {} rows with {} distinct ids",
                    rows.len(),
                    ids.len()
                ));
            }
            for row in &rows {
                if !row[ti].as_str().is_some_and(|t| t.contains(" JOIN ")) {
                    bad.push(format!("{TOPK_LAT} row is not a join: {row:?}"));
                }
            }
            if rule_fires("top10") != commits {
                bad.push(format!(
                    "top10 fired {}, predicted {commits}",
                    rule_fires("top10")
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loader-free database handle: generators only read its shape.
    fn db(seed: u64) -> TpchDb {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lines_per_order: Vec<u8> = (0..ORDERS).map(|_| rng.gen_range(1..=7u8)).collect();
        TpchDb {
            config: TpchConfig {
                orders: ORDERS,
                parts: ORDERS / 10,
                customers: ORDERS / 25,
                seed,
            },
            lineitem_count: lines_per_order.iter().map(|&l| l as u64).sum(),
            lines_per_order,
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let d = db(5);
        for w in Workload::ALL {
            let a = generate(w, &d, 1);
            assert_eq!(
                a,
                generate(w, &d, 1),
                "{}: same seed, same inputs",
                w.name()
            );
            assert_ne!(a, generate(w, &d, 2), "{}: new seed, new inputs", w.name());
        }
    }

    #[test]
    fn generated_shapes_match_the_workload_parameters() {
        let d = db(5);
        let topk = generate(Workload::TopkMixed, &d, 1);
        let joins = topk.ops.iter().filter(|o| o.query.is_join).count();
        assert_eq!(joins, TOPK_JOINS as usize);
        assert_eq!(topk.ops.len(), (TOPK_POINTS + TOPK_JOINS) as usize);

        let tenants = generate(Workload::TenantOltp, &d, 1);
        let ops = &tenants.ops;
        let updates = ops.iter().filter(|o| o.query.sql == UPDATE_SQL).count() as f64;
        let share = updates / ops.len() as f64;
        assert!((0.07..0.13).contains(&share), "update share {share}");
        let users: BTreeSet<&str> = ops
            .iter()
            .map(|o| tenants.users[o.session].as_str())
            .collect();
        assert_eq!(users.len(), TENANTS, "every tenant issues queries");
    }

    #[test]
    fn expectations_learn_once() {
        let mut e = Expect::SameAsFirst(None);
        assert!(e.check(5, 0));
        assert!(e.check(5, 0));
        assert!(!e.check(4, 0));
        assert!(Expect::Affected(1).check(0, 1));
        assert!(!Expect::Rows(1).check(0, 1));
    }

    #[test]
    fn derived_seeds_differ_by_salt_and_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
