//! The workloads: set-up through the public API, the closed request loop,
//! and the per-layer tallies of the traced run.

use crate::layers::ms;
use crate::oracle::{check_rows, Cell, Expected, Trips};
use crate::probe::{Counts, Probe, ProbeHandle};
use crate::trace;
use bauplan_core::{builtins, Lakehouse, LakehouseConfig, PipelineProject, RunOptions, RunReport};
use lakehouse_columnar::RecordBatch;
use lakehouse_obs::SpanTree;
use lakehouse_store::{InMemoryStore, LocalFsStore, ObjectStore};
use lakehouse_table::{PartitionField, PartitionSpec, Transform};
use lakehouse_workload::TaxiGenerator;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Operator spans `Lakehouse::profile` emits, one per plan node.
pub const OPERATORS: [&str; 7] = [
    "Scan",
    "Filter",
    "Aggregate",
    "Join",
    "Sort",
    "Limit",
    "Project",
];

pub fn taxi(rows: usize, seed: u64) -> RecordBatch {
    TaxiGenerator {
        seed,
        ..Default::default()
    }
    .generate(rows)
}

/// A lakehouse built for one workload.
pub struct Env {
    pub lh: Lakehouse,
    pub probe: ProbeHandle,
    /// The backend below the probe, for reading data files directly.
    pub raw: Arc<dyn ObjectStore>,
    /// The set-up run that materialized `pickups`.
    pub run: RunReport,
    pub run_ms: f64,
}

/// Build a lakehouse with the default config over a fresh backend (a
/// `LocalFsStore` in `dir`, else an `InMemoryStore`): `taxi_table` from
/// `batch` (optionally partitioned by month of `pickup_at`), then one taxi
/// pipeline run, as `bauplan demo` does.
pub fn build(dir: Option<&Path>, batch: &RecordBatch, partitioned: bool) -> Result<Env, String> {
    let raw: Arc<dyn ObjectStore> = match dir {
        Some(dir) => {
            remove_dir(dir);
            Arc::new(LocalFsStore::new(dir).map_err(|e| e.to_string())?)
        }
        None => Arc::new(InMemoryStore::new()),
    };
    let (store, probe) = Probe::wrap(Arc::clone(&raw));
    let lh = Lakehouse::with_store(store, LakehouseConfig::default()).map_err(|e| e.to_string())?;
    let spec = if partitioned {
        PartitionSpec::new(vec![PartitionField {
            source_column: "pickup_at".into(),
            transform: Transform::Month,
        }])
    } else {
        PartitionSpec::unpartitioned()
    };
    lh.create_table_partitioned("taxi_table", batch, "main", spec)
        .map_err(|e| e.to_string())?;
    register_functions(&lh);
    let t = Instant::now();
    let run = lh
        .run(&PipelineProject::taxi_example(), &RunOptions::default())
        .map_err(|e| e.to_string())?;
    let run_ms = ms(t.elapsed());
    Ok(Env {
        lh,
        probe,
        raw,
        run,
        run_ms,
    })
}

/// The expectation `bauplan demo` registers: the paper's threshold of 10
/// mean passengers would fail on realistic data.
fn register_functions(lh: &Lakehouse) {
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Flush the file system that holds `dir` (`sync -f`), outside any timing.
/// Deleting a set-up's files frees blocks that the file system writes back
/// and discards at its next journal commit; unflushed, that commit lands in
/// the next timed operations and slowed commit cycles by up to 3× for
/// seconds at a time. Each set-up and each timed loop therefore starts from
/// a flushed file system.
pub fn settle(dir: &Path) -> Result<(), String> {
    let status = std::process::Command::new("sync")
        .arg("-f")
        .arg(dir)
        .status()
        .map_err(|e| format!("sync -f {}: {e}", dir.display()))?;
    if !status.success() {
        return Err(format!("sync -f {}: {status}", dir.display()));
    }
    Ok(())
}

/// Simulated platform time: S3-model store time plus the runtime's
/// container clock.
fn sim_ns(lh: &Lakehouse) -> u64 {
    (lh.store_metrics().simulated_time() + lh.clock().now()).as_nanos() as u64
}

/// What the oracle expects of the taxi pipeline run.
pub struct RunOracle {
    pickups: u64,
    trips: u64,
}

impl RunOracle {
    pub fn new(t: &Trips) -> RunOracle {
        RunOracle {
            pickups: t.pickups().len() as u64,
            trips: t.april_rows() as u64,
        }
    }

    pub fn check(&self, r: &RunReport) -> Result<(), String> {
        if !r.success {
            return Err(format!(
                "run {} failed its audit: {:?}",
                r.run_id, r.audit_results
            ));
        }
        let rows = |name: &str| r.artifact_rows.get(name).copied();
        if rows("pickups") != Some(self.pickups) {
            return Err(format!(
                "pickups rows {:?}, expected {}",
                rows("pickups"),
                self.pickups
            ));
        }
        match rows("trips") {
            Some(n) if n != self.trips => Err(format!("trips rows {n}, expected {}", self.trips)),
            _ => Ok(()),
        }
    }
}

/// One timed operation, with the pass of the loop (query workloads) or the
/// round (`pipeline_commit`) it ran in.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: usize,
    pub ms: f64,
    pub sim_ms: f64,
    pub pass: usize,
}

/// Operations timed, and operations attempted and failed (an error or a
/// wrong answer).
#[derive(Default)]
pub struct Tally {
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    /// Passes or rounds completed.
    pub passes: usize,
}

impl Tally {
    /// Count one checked outcome; failures are reported on stderr.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("FAILED {what}: {e}");
                }
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------------
// Query workloads
// ---------------------------------------------------------------------------

pub struct Query {
    pub name: &'static str,
    pub sql: &'static str,
    pub expected: Expected,
}

const JOIN_SQL: &str = "SELECT COUNT(*) AS n, SUM(p.counts) AS total FROM taxi_table t \
     JOIN pickups p ON t.pickup_location_id = p.pickup_location_id \
     AND t.dropoff_location_id = p.dropoff_location_id WHERE t.fare > 30.0";

/// ROADMAP's six ad-hoc queries.
pub fn adhoc_queries(t: &Trips) -> Vec<Query> {
    vec![
        Query {
            name: "count_star",
            sql: "SELECT COUNT(*) AS n FROM taxi_table",
            expected: t.count(),
        },
        Query {
            name: "selective_filter",
            sql: "SELECT pickup_location_id, dropoff_location_id, fare FROM taxi_table \
                  WHERE trip_distance > 20.0",
            expected: t.long_trips(20.0),
        },
        Query {
            name: "filter_group",
            sql: "SELECT passenger_count, COUNT(*) AS n, AVG(fare) AS avg_fare FROM taxi_table \
                  WHERE trip_distance > 5.0 GROUP BY passenger_count",
            expected: t.fare_by_passengers(5.0),
        },
        Query {
            name: "join_pickups",
            sql: JOIN_SQL,
            expected: t.join_pickups(30.0),
        },
        Query {
            name: "order_limit",
            sql: "SELECT pickup_location_id, fare FROM taxi_table ORDER BY fare DESC LIMIT 10",
            expected: t.top_fares(10, vec![0, 5]),
        },
        Query {
            name: "bare_limit",
            sql: "SELECT * FROM taxi_table LIMIT 10",
            expected: t.any_rows(10),
        },
    ]
}

/// The compute-heavy mix.
pub fn analytics_queries(t: &Trips) -> Vec<Query> {
    vec![
        Query {
            name: "group_two_keys",
            sql: "SELECT pickup_location_id, passenger_count, COUNT(*) AS n, SUM(fare) AS total_fare \
                  FROM taxi_table GROUP BY pickup_location_id, passenger_count",
            expected: t.fare_by_zone_and_passengers(),
        },
        Query {
            name: "filter_group_avg",
            sql: "SELECT dropoff_location_id, COUNT(*) AS n, AVG(trip_distance) AS avg_distance \
                  FROM taxi_table WHERE fare > 20.0 GROUP BY dropoff_location_id",
            expected: t.distance_by_dropoff(20.0),
        },
        Query {
            name: "join_pickups",
            sql: JOIN_SQL,
            expected: t.join_pickups(30.0),
        },
        Query {
            name: "order_limit",
            sql: "SELECT pickup_location_id, dropoff_location_id, fare FROM taxi_table \
                  ORDER BY fare DESC LIMIT 10",
            expected: t.top_fares(10, vec![0, 1, 5]),
        },
    ]
}

/// Store and span tallies of the traced queries, per query kind and in
/// total.
#[derive(Default, Clone)]
pub struct QueryLayers {
    pub queries: u64,
    pub wall_ns: u64,
    pub store: Counts,
    pub plan_ns: u64,
    pub files_scanned: u64,
    pub fetch_ns: u64,
    pub op_self_ns: BTreeMap<String, u64>,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    pub bytes_decoded: u64,
}

impl QueryLayers {
    fn add(&mut self, wall_ns: u64, store: Counts, tree: &SpanTree, rows_returned: u64) {
        self.queries += 1;
        self.wall_ns += wall_ns;
        self.store += store;
        self.rows_returned += rows_returned;
        let selfs = trace::self_times(&trace::from_tree(tree));
        for (s, self_ns) in tree.spans.iter().zip(selfs) {
            match s.name.as_str() {
                "scan.plan" => {
                    self.plan_ns += s.wall_nanos();
                    self.files_scanned += s.attr_u64("files_scanned").unwrap_or(0);
                }
                "scan.fetch" => self.fetch_ns += s.wall_nanos(),
                "scan.materialize" => {
                    self.rows_scanned += s.attr_u64("rows").unwrap_or(0);
                    self.bytes_decoded += s.attr_u64("bytes").unwrap_or(0);
                }
                name if OPERATORS.contains(&name) => {
                    *self.op_self_ns.entry(name.to_string()).or_default() += self_ns;
                }
                _ => {}
            }
        }
    }
}

/// Run the query mix round-robin, one client in a closed loop, in whole
/// passes over the mix until `seconds` have passed (at least one pass).
/// With `layers`, each query runs under `Lakehouse::profile` inside a
/// request span and its layers are tallied per kind.
pub fn query_loop(
    env: &Env,
    queries: &[Query],
    trips: &Trips,
    seconds: f64,
    mut layers: Option<&mut Vec<QueryLayers>>,
    tally: &mut Tally,
) {
    let start = Instant::now();
    loop {
        for (kind, q) in queries.iter().enumerate() {
            let sim0 = sim_ns(&env.lh);
            let c0 = env.probe.counts();
            let t = Instant::now();
            let result = if layers.is_some() {
                let req = trace::request(q.name);
                let r = env.lh.profile(q.sql, "main");
                if let Ok((_, tree)) = &r {
                    req.import(tree);
                }
                r.map(|(batch, tree)| (batch, Some(tree)))
            } else {
                env.lh.query(q.sql, "main").map(|batch| (batch, None))
            };
            let wall = t.elapsed();
            let sim_ms = (sim_ns(&env.lh) - sim0) as f64 / 1e6;
            let store = env.probe.counts() - c0;
            let outcome = result.map_err(|e| e.to_string()).and_then(|(batch, tree)| {
                trips.check(&q.expected, &batch)?;
                Ok((batch.num_rows() as u64, tree))
            });
            let ok = match outcome {
                Ok((rows, tree)) => {
                    if let (Some(layers), Some(tree)) = (layers.as_deref_mut(), tree) {
                        layers[kind].add(wall.as_nanos() as u64, store, &tree, rows);
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            };
            if tally.check(q.name, ok) {
                tally.ops.push(Op {
                    kind,
                    ms: ms(wall),
                    sim_ms,
                    pass: tally.passes,
                });
            }
        }
        tally.passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// pipeline_commit
// ---------------------------------------------------------------------------

/// Taxi pipeline runs per round; each is followed by `COMMITS_PER_RUN`
/// commit cycles. Ten runs per round put over 100 runs in a 45 s run, so
/// the runs' 90th percentile has ten beyond it.
pub const RUNS_PER_ROUND: usize = 10;
pub const COMMITS_PER_RUN: usize = 10;
pub const APPEND_ROWS: usize = 2_000;
/// The table the commit cycles append to; the pipeline does not read it.
const APPEND_TABLE: &str = "appends";

pub const RUN_OP: usize = 0;
pub const COMMIT_OP: usize = 1;

/// Per-layer tallies of the traced rounds.
#[derive(Default)]
pub struct CommitLayers {
    pub runs: Vec<RunReport>,
    pub run_ms: Vec<f64>,
    pub commits: u64,
    pub branch_ns: u64,
    pub append_ns: u64,
    pub merge_ns: u64,
    pub delete_ns: u64,
    pub commit_store: Counts,
    pub op_store: Counts,
    pub ops: u64,
    pub op_wall_ns: u64,
}

/// Metadata bytes read by the i-th commit cycle of a round, summed over
/// rounds, and the number of rounds.
pub struct MetaSeries {
    pub sums: Vec<u64>,
    pub rounds: u64,
}

/// One round: a fresh set-up, then `RUNS_PER_ROUND` × (one run +
/// `COMMITS_PER_RUN` commit cycles), then a check of the appended table's
/// row count. Returns the set-up time in seconds.
#[allow(clippy::too_many_arguments)]
pub fn commit_round(
    dir: &Path,
    batch: &RecordBatch,
    run_oracle: &RunOracle,
    seed: u64,
    mut layers: Option<&mut CommitLayers>,
    meta: &mut MetaSeries,
    tally: &mut Tally,
) -> Result<f64, String> {
    let t = Instant::now();
    let env = build(Some(dir), batch, false)?;
    env.lh
        .create_table(APPEND_TABLE, &taxi(APPEND_ROWS, seed ^ 0xa99e), "main")
        .map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    tally.check("setup run", run_oracle.check(&env.run));
    let project = PipelineProject::taxi_example();
    let mut appends = 0usize;
    for _ in 0..RUNS_PER_ROUND {
        let sim0 = sim_ns(&env.lh);
        let c0 = env.probe.counts();
        let t = Instant::now();
        let result = {
            let req = trace::request("run");
            let r = env.lh.run(&project, &RunOptions::default());
            if let Ok(report) = &r {
                req.import(&report.trace);
            }
            r
        };
        let wall = t.elapsed();
        let sim_ms = (sim_ns(&env.lh) - sim0) as f64 / 1e6;
        let store = env.probe.counts() - c0;
        let outcome = result
            .map_err(|e| e.to_string())
            .and_then(|r| run_oracle.check(&r).map(|_| r));
        let ok = outcome.map(|report| {
            if let Some(l) = layers.as_deref_mut() {
                l.runs.push(report);
                l.run_ms.push(ms(wall));
                l.ops += 1;
                l.op_wall_ns += wall.as_nanos() as u64;
                l.op_store += store;
            }
        });
        if tally.check("run", ok) {
            tally.ops.push(Op {
                kind: RUN_OP,
                ms: ms(wall),
                sim_ms,
                pass: tally.passes,
            });
        }
        for _ in 0..COMMITS_PER_RUN {
            let rows = taxi(APPEND_ROWS, seed ^ (appends as u64 + 1));
            let branch = format!("bench_append_{appends}");
            let sim0 = sim_ns(&env.lh);
            let c0 = env.probe.counts();
            let t = Instant::now();
            let mut step_ns = [0u64; 4];
            let result = (|| -> bauplan_core::Result<()> {
                let _req = trace::request("commit");
                let lh = &env.lh;
                let mut timed = |i: usize, name: &str, f: &dyn Fn() -> bauplan_core::Result<()>| {
                    let _span = trace::span(name);
                    let t = Instant::now();
                    let r = f();
                    step_ns[i] = t.elapsed().as_nanos() as u64;
                    r
                };
                timed(0, "catalog.create_branch", &|| {
                    lh.create_branch(&branch, Some("main")).map(drop)
                })?;
                timed(1, "table.append", &|| {
                    lh.append_table(APPEND_TABLE, &rows, &branch)
                })?;
                timed(2, "catalog.merge", &|| lh.merge(&branch, "main").map(drop))?;
                timed(3, "catalog.delete_branch", &|| lh.delete_branch(&branch))
            })();
            let wall = t.elapsed();
            let sim_ms = (sim_ns(&env.lh) - sim0) as f64 / 1e6;
            let store = env.probe.counts() - c0;
            if meta.sums.len() <= appends {
                meta.sums.resize(appends + 1, 0);
            }
            meta.sums[appends] += store.meta_read_bytes;
            appends += 1;
            if let (Some(l), Ok(())) = (layers.as_deref_mut(), &result) {
                l.commits += 1;
                l.branch_ns += step_ns[0];
                l.append_ns += step_ns[1];
                l.merge_ns += step_ns[2];
                l.delete_ns += step_ns[3];
                l.commit_store += store;
                l.ops += 1;
                l.op_wall_ns += wall.as_nanos() as u64;
                l.op_store += store;
            }
            if tally.check("commit", result.map_err(|e| e.to_string())) {
                tally.ops.push(Op {
                    kind: COMMIT_OP,
                    ms: ms(wall),
                    sim_ms,
                    pass: tally.passes,
                });
            }
        }
    }
    meta.rounds += 1;
    tally.passes += 1;
    let want = vec![vec![Cell::Int(((appends + 1) * APPEND_ROWS) as i64)]];
    let counted = env
        .lh
        .query(&format!("SELECT COUNT(*) AS n FROM {APPEND_TABLE}"), "main")
        .map_err(|e| e.to_string())
        .and_then(|b| check_rows(&want, &b));
    tally.check("appended row count", counted);
    // Delete the round's files while they are still only in the page cache,
    // so they are never written back to the device.
    drop(env);
    remove_dir(dir);
    Ok(setup_s)
}

pub fn round_dir(work: &Path, i: usize) -> PathBuf {
    work.join(format!("round{i}"))
}
