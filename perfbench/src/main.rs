//! End-to-end benchmark harness for the lakehouse.
//!
//! Drives the public entry points (`Lakehouse::query`, `Lakehouse::run`,
//! `create_branch`/`append_table`/`merge`/`delete_branch`) with the default
//! `LakehouseConfig`, one client in a closed loop, and reports both clocks:
//! wall time on the real backend and the simulated S3/container time.
//!
//! ```text
//! perfbench --workload <adhoc_local|analytics_mem|pipeline_commit> --seed <n>
//!           --seconds <s> --trace <0|1> [--rows <n>] [--work-dir <dir>]
//!           [--cli <path to bauplan>] [--trace-out <file>]
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). The exit code is 1 if any operation failed or gave a
//! wrong answer.

mod layers;
mod oracle;
mod probe;
mod trace;
mod workload;

use layers::{median, ms, peak_rss_mb, percentile};
use oracle::Trips;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::*;

const DEFAULT_SEED: u64 = 42;
/// `taxi_table` rows of `adhoc_local` and `pipeline_commit`: one
/// unpartitioned 8.8 MB file, as `bauplan demo` builds it.
const LOCAL_ROWS: usize = 200_000;
/// `taxi_table` rows of `analytics_mem`, partitioned by month (two files).
const MEM_ROWS: usize = 500_000;
/// Set-ups timed per run of the query workloads; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: Option<usize>,
    work_dir: PathBuf,
    cli: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        rows: None,
        work_dir: PathBuf::from(".perfbench_work"),
        cli: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--rows" => args.rows = Some(value.parse().map_err(|e| bad(&e))?),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--cli" => args.cli = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Every per-layer metric with its unit, in output order. A workload that
/// does not exercise a layer reports 0 for it (see perfbench/README.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("store.read_calls", "count"),
    ("store.bytes_returned", "bytes"),
    ("store.read_ms", "ms"),
    ("store.read_share", "ratio"),
    ("store.write_calls", "count"),
    ("store.write_ms", "ms"),
    ("store.cas_ms", "ms"),
    ("store.meta_bytes_per_commit", "bytes"),
    ("store.meta_bytes_first_commit", "bytes"),
    ("store.meta_bytes_last_commit", "bytes"),
    ("store.list_calls", "count"),
    ("store.list_ms", "ms"),
    ("format.decode_ms_per_mb", "ms/MB"),
    ("checksum.crc32c_ms_per_mb", "ms/MB"),
    ("table.scan_plan_ms", "ms"),
    ("table.files_scanned", "count"),
    ("table.fetch_self_ms", "ms"),
    ("table.append_ms", "ms"),
    ("sql.plan_ms", "ms"),
    ("sql.self_ms.Scan", "ms"),
    ("sql.self_ms.Filter", "ms"),
    ("sql.self_ms.Aggregate", "ms"),
    ("sql.self_ms.Join", "ms"),
    ("sql.self_ms.Sort", "ms"),
    ("sql.self_ms.Limit", "ms"),
    ("sql.self_ms.Project", "ms"),
    ("sql.rows_scanned_per_row_returned", "ratio"),
    ("sql.bytes_decoded", "bytes"),
    ("catalog.branch_ms", "ms"),
    ("catalog.merge_ms", "ms"),
    ("catalog.delete_branch_ms", "ms"),
    ("planner.stages_executed", "count"),
    ("runtime.cold_starts", "count"),
    ("runtime.warm_starts", "count"),
    ("runtime.startup_sim_ms", "ms"),
    ("core.run_store_sim_ms", "ms"),
    ("core.run_ms_p50", "ms"),
    ("core.run_sim_ms", "ms"),
    ("core.commit_ms_p50", "ms"),
    ("core.commit_ms_p90", "ms"),
    ("cli.overhead_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Per-layer values keyed by name; unset ones print as 0.
#[derive(Default)]
struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    self.0.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    }
}

/// A window holds at least this many operations, so its 90th percentile
/// has ten beyond it.
const MIN_WINDOW_OPS: usize = 100;

/// Split ops into windows of whole passes (rounds) with at least
/// `MIN_WINDOW_OPS` each; a short tail joins the last window.
fn windows(ops: &[Op]) -> Vec<&[Op]> {
    let mut starts = vec![0];
    for i in 1..ops.len() {
        let last = *starts.last().expect("starts is never empty");
        if ops[i].pass != ops[i - 1].pass && i - last >= MIN_WINDOW_OPS {
            starts.push(i);
        }
    }
    let last = *starts.last().expect("starts is never empty");
    if starts.len() > 1 && ops.len() - last < MIN_WINDOW_OPS {
        starts.pop();
    }
    let ends = starts.iter().skip(1).copied().chain([ops.len()]);
    starts.iter().zip(ends).map(|(&a, b)| &ops[a..b]).collect()
}

/// `op_ms_p50` of one window: the geometric mean over op kinds of each
/// kind's median. Each pass runs every kind in fixed numbers, so a plain
/// median of the mix would sit on the boundary between two kinds and jump
/// between them.
fn typical_ms(ops: &[Op]) -> f64 {
    let logs: Vec<f64> = by_kind(ops)
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The latencies of each op kind, indexed by kind.
fn by_kind(ops: &[Op]) -> Vec<Vec<f64>> {
    let kinds = ops.iter().map(|o| o.kind).max().map_or(0, |k| k + 1);
    let mut lat = vec![Vec::new(); kinds];
    for o in ops {
        lat[o.kind].push(o.ms);
    }
    lat
}

/// `op_ms_p90` of a run. If every op kind has at least `MIN_WINDOW_OPS`
/// timed ops (`pipeline_commit`), it is the geometric mean over kinds of
/// each kind's 90th percentile over the whole run, like `op_ms_p50`: a 90th
/// percentile of the mix would be the commits' tail alone, which swings
/// with the host's disk. Otherwise (`adhoc_local`: six query kinds, about
/// 30 each per run) it is the median over windows of the mix's 90th
/// percentile.
fn tail_ms(ops: &[Op], wins: &[&[Op]]) -> f64 {
    let lat = by_kind(ops);
    if !lat.is_empty() && lat.iter().all(|l| l.len() >= MIN_WINDOW_OPS) {
        let logs = lat.iter().map(|l| percentile(l, 0.9).ln());
        return (logs.sum::<f64>() / lat.len() as f64).exp();
    }
    let p90 = |w: &[Op]| percentile(&w.iter().map(|o| o.ms).collect::<Vec<_>>(), 0.9);
    median(&wins.iter().map(|w| p90(w)).collect::<Vec<_>>())
}

/// The end-to-end metrics of the timed operations. Throughput and latency
/// are computed per window of whole passes (rounds) and the median over
/// windows is reported, so a few seconds of host stall do not swing a run.
fn end_to_end(ops: &[Op], setups: &[f64]) -> Vec<Metric> {
    let wins = windows(ops);
    let per_window =
        |f: &dyn Fn(&[Op]) -> f64| median(&wins.iter().map(|w| f(w)).collect::<Vec<_>>());
    let throughput =
        |w: &[Op]| w.len() as f64 / (w.iter().map(|o| o.ms).sum::<f64>() / 1e3).max(1e-9);
    let sim_ms: f64 = ops.iter().map(|o| o.sim_ms).sum();
    vec![
        ("ops_per_s".into(), per_window(&throughput), "1/s"),
        ("op_ms_p50".into(), per_window(&typical_ms), "ms"),
        ("op_ms_p90".into(), tail_ms(ops, &wins), "ms"),
        (
            "sim_ms_per_op".into(),
            sim_ms / ops.len().max(1) as f64,
            "ms",
        ),
        ("setup_s".into(), median(setups), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Human-readable per-kind lines for stdout.
fn print_kinds(names: &[&str], ops: &[Op]) {
    for (kind, name) in names.iter().enumerate() {
        let lat: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.ms)
            .collect();
        let sim: f64 = ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.sim_ms)
            .sum();
        if lat.is_empty() {
            continue;
        }
        println!(
            "  {name:<18} n={:<5} p50={:>9.3} ms  p90={:>9.3} ms  sim={:>9.3} ms/op",
            lat.len(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9),
            sim / lat.len() as f64
        );
    }
}

fn p50_of(ops: &[Op]) -> f64 {
    percentile(&ops.iter().map(|o| o.ms).collect::<Vec<_>>(), 0.5)
}

/// Per-layer values of taxi pipeline runs: the timed runs of
/// `pipeline_commit`, the set-up runs of the query workloads.
fn run_layers(l: &mut Layers, runs: &[bauplan_core::RunReport], run_ms: &[f64]) {
    let n = runs.len().max(1) as f64;
    let avg = |f: &dyn Fn(&bauplan_core::RunReport) -> f64| runs.iter().map(f).sum::<f64>() / n;
    l.set(
        "planner.stages_executed",
        avg(&|r| r.stages_executed as f64),
    );
    l.set("runtime.cold_starts", avg(&|r| r.container_starts.0 as f64));
    l.set("runtime.warm_starts", avg(&|r| r.container_starts.1 as f64));
    l.set("runtime.startup_sim_ms", avg(&|r| ms(r.simulated_startup)));
    l.set("core.run_store_sim_ms", avg(&|r| ms(r.simulated_store)));
    l.set("core.run_sim_ms", avg(&|r| ms(r.simulated_total)));
    l.set("core.run_ms_p50", median(run_ms));
}

struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
}

fn query_workload(args: &Args, local: bool) -> Result<Outcome, String> {
    let rows = args
        .rows
        .unwrap_or(if local { LOCAL_ROWS } else { MEM_ROWS });
    let batch = taxi(rows, args.seed);
    let trips = Trips::from_batch(&batch);
    let queries = if local {
        adhoc_queries(&trips)
    } else {
        analytics_queries(&trips)
    };
    let names: Vec<&str> = queries.iter().map(|q| q.name).collect();
    let run_oracle = RunOracle::new(&trips);
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut env = None;
    let mut setup_runs = Vec::new();
    let mut setup_run_ms = Vec::new();
    for i in 0..SETUPS {
        drop(env.take());
        let dir = local.then(|| args.work_dir.join(format!("setup{i}")));
        if local {
            if i > 0 {
                remove_dir(&args.work_dir.join(format!("setup{}", i - 1)));
            }
            settle(&args.work_dir)?;
        }
        let t = Instant::now();
        let e = build(dir.as_deref(), &batch, !local)?;
        setups.push(t.elapsed().as_secs_f64());
        tally.check("setup run", run_oracle.check(&e.run));
        setup_runs.push(e.run.clone());
        setup_run_ms.push(e.run_ms);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let data_dir = args.work_dir.join(format!("setup{}", SETUPS - 1));
    if local {
        // Write the set-up's files back now rather than 30 s into the loop.
        settle(&args.work_dir)?;
    }

    // Warm-up pass: lazy set-up and caches, not timed.
    let mut warm = Tally::default();
    query_loop(&env, &queries, &trips, 0.0, None, &mut warm);
    tally.absorb(warm);

    if !args.trace {
        let mut timed = Tally::default();
        query_loop(&env, &queries, &trips, args.seconds, None, &mut timed);
        println!(
            "{} queries (wall p50/p90 and simulated S3 per query):",
            timed.ops.len()
        );
        print_kinds(&names, &timed.ops);
        let metrics = end_to_end(&timed.ops, &setups);
        tally.absorb(timed);
        return Ok(Outcome { metrics, tally });
    }

    // Traced run: untraced and traced passes alternate, so drift in the
    // host's speed falls on both halves alike; then the out-of-loop layers.
    let mut plain = Tally::default();
    let mut kinds = vec![QueryLayers::default(); queries.len()];
    let mut traced = Tally::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        query_loop(&env, &queries, &trips, 0.0, None, &mut plain);
        trace::set_enabled(true);
        query_loop(&env, &queries, &trips, 0.0, Some(&mut kinds), &mut traced);
        trace::set_enabled(false);
    }
    trace::set_enabled(true);
    let mut plan_ms = Vec::new();
    for q in &queries {
        let _req = trace::request("explain");
        let mut times = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let r = env
                .lh
                .explain(q.sql, "main")
                .map(drop)
                .map_err(|e| e.to_string());
            times.push(ms(t.elapsed()));
            tally.check("explain", r);
        }
        plan_ms.push(median(&times));
    }
    trace::set_enabled(false);
    println!("untraced: {} queries", plain.ops.len());
    print_kinds(&names, &plain.ops);
    println!("traced: {} queries", traced.ops.len());
    print_kinds(&names, &traced.ops);

    let mut total = QueryLayers::default();
    for k in &kinds {
        total.queries += k.queries;
        total.wall_ns += k.wall_ns;
        total.store += k.store;
        total.plan_ns += k.plan_ns;
        total.files_scanned += k.files_scanned;
        total.fetch_ns += k.fetch_ns;
        total.rows_scanned += k.rows_scanned;
        total.rows_returned += k.rows_returned;
        total.bytes_decoded += k.bytes_decoded;
        for (op, ns) in &k.op_self_ns {
            *total.op_self_ns.entry(op.clone()).or_default() += ns;
        }
    }
    let q = total.queries.max(1) as f64;
    let per_q_ms = |ns: u64| ns as f64 / 1e6 / q;
    let mut l = Layers::default();
    l.set("store.read_calls", total.store.read_calls as f64 / q);
    l.set("store.bytes_returned", total.store.read_bytes as f64 / q);
    l.set("store.read_ms", per_q_ms(total.store.read_ns));
    l.set(
        "store.read_share",
        total.store.read_ns as f64 / total.wall_ns.max(1) as f64,
    );
    l.set("store.list_calls", total.store.list_calls as f64 / q);
    l.set("store.list_ms", per_q_ms(total.store.list_ns));
    l.set("table.scan_plan_ms", per_q_ms(total.plan_ns));
    l.set("table.files_scanned", total.files_scanned as f64 / q);
    l.set(
        "table.fetch_self_ms",
        per_q_ms(total.fetch_ns.saturating_sub(total.store.data_read_ns)),
    );
    l.set(
        "sql.plan_ms",
        plan_ms.iter().sum::<f64>() / plan_ms.len().max(1) as f64,
    );
    for op in OPERATORS {
        let name: &'static str = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("sql.self_ms.") == Some(op))
            .expect("every operator has a metric");
        l.set(
            name,
            per_q_ms(total.op_self_ns.get(op).copied().unwrap_or(0)),
        );
    }
    l.set(
        "sql.rows_scanned_per_row_returned",
        total.rows_scanned as f64 / total.rows_returned.max(1) as f64,
    );
    l.set("sql.bytes_decoded", total.bytes_decoded as f64 / q);
    run_layers(&mut l, &setup_runs, &setup_run_ms);
    let (decode, crc) = layers::decode_rates(env.raw.as_ref(), "warehouse/taxi_table")?;
    l.set("format.decode_ms_per_mb", decode);
    l.set("checksum.crc32c_ms_per_mb", crc);
    let (p_plain, p_traced) = (p50_of(&plain.ops), p50_of(&traced.ops));
    l.set(
        "obs.trace_overhead_pct",
        (p_traced - p_plain) / p_plain.max(1e-9) * 100.0,
    );

    println!("baseline rows (per query, traced):");
    for (name, k) in names.iter().zip(&kinds) {
        let n = k.queries.max(1) as f64;
        println!(
            "  {name:<18} store reads {:>6.1} (data files {:>6.1})  bytes returned {:>12.0}  bytes decoded {:>12.0}  files scanned {:>4.1}",
            k.store.read_calls as f64 / n,
            k.store.data_read_calls as f64 / n,
            k.store.read_bytes as f64 / n,
            k.bytes_decoded as f64 / n,
            k.files_scanned as f64 / n,
        );
    }

    if local {
        if let Some(cli) = &args.cli {
            let overhead = cli_overhead(cli, &data_dir, &queries, &plain.ops, &mut tally);
            l.set("cli.overhead_ms", overhead);
        }
    }

    if let Some(path) = &args.trace_out {
        trace::write_jsonl(path, &trace::take()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for part in [plain, traced] {
        tally.absorb(part);
    }
    Ok(Outcome {
        metrics: l.into_metrics(),
        tally,
    })
}

/// `bauplan query` on the workload's data dir for three of the queries,
/// minus the in-process untraced p50 of the same query: mean over the three
/// of (median CLI wall − in-process p50).
fn cli_overhead(
    cli: &Path,
    data_dir: &Path,
    queries: &[Query],
    inproc: &[Op],
    tally: &mut Tally,
) -> f64 {
    let mut gaps = Vec::new();
    for name in ["count_star", "filter_group", "bare_limit"] {
        let Some(kind) = queries.iter().position(|q| q.name == name) else {
            continue;
        };
        // What the CLI's printed table must contain: the value of a
        // one-cell answer, else the row count footer.
        let expect = match &queries[kind].expected {
            oracle::Expected::Rows(rows) => match rows.as_slice() {
                [row] if row.len() == 1 => match row[0] {
                    oracle::Cell::Int(n) => format!("| {n} "),
                    _ => "(1 rows)".to_string(),
                },
                _ => format!("({} rows)", rows.len()),
            },
            oracle::Expected::AnyRows { n } => format!("({n} rows)"),
            oracle::Expected::Top { values, .. } => format!("({} rows)", values.len()),
        };
        let mut walls = Vec::new();
        for _ in 0..3 {
            let r = layers::cli_query(cli, data_dir, queries[kind].sql, &expect);
            if let Ok(w) = &r {
                walls.push(*w);
            }
            tally.check("cli query", r.map(drop));
        }
        let own: Vec<Op> = inproc.iter().filter(|o| o.kind == kind).copied().collect();
        if !walls.is_empty() && !own.is_empty() {
            let (cli_ms, in_ms) = (median(&walls), p50_of(&own));
            println!("baseline cli vs in-process: {name:<14} {cli_ms:>9.1} ms vs {in_ms:>9.1} ms");
            gaps.push(cli_ms - in_ms);
        }
    }
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

fn commit_workload(args: &Args) -> Result<Outcome, String> {
    let rows = args.rows.unwrap_or(LOCAL_ROWS);
    let batch = taxi(rows, args.seed);
    let trips = Trips::from_batch(&batch);
    let run_oracle = RunOracle::new(&trips);
    let names = ["run", "commit"];
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut meta = MetaSeries {
        sums: Vec::new(),
        rounds: 0,
    };
    // Whole rounds until `--seconds` have passed; a traced run traces every
    // other round, so drift in the host's speed falls on both halves alike.
    let mut tallies = [Tally::default(), Tally::default()];
    let mut cl = CommitLayers::default();
    let start = Instant::now();
    let mut round = 0;
    // At least one round of each kind.
    let min_rounds = if args.trace { 2 } else { 1 };
    while round < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && round % 2 == 1;
        settle(&args.work_dir)?;
        trace::set_enabled(traced);
        let setup = commit_round(
            &round_dir(&args.work_dir, round),
            &batch,
            &run_oracle,
            args.seed,
            traced.then_some(&mut cl),
            &mut meta,
            &mut tallies[usize::from(traced)],
        )?;
        trace::set_enabled(false);
        setups.push(setup);
        round += 1;
    }
    let [plain, traced] = tallies;
    if !args.trace {
        println!("{} runs and commits:", plain.ops.len());
        print_kinds(&names, &plain.ops);
        let metrics = end_to_end(&plain.ops, &setups);
        tally.absorb(plain);
        return Ok(Outcome { metrics, tally });
    }

    println!("untraced: {} runs and commits", plain.ops.len());
    print_kinds(&names, &plain.ops);
    println!("traced: {} runs and commits", traced.ops.len());
    print_kinds(&names, &traced.ops);

    let mut l = Layers::default();
    let c = cl.commits.max(1) as f64;
    let ops = cl.ops.max(1) as f64;
    let per_c_ms = |ns: u64| ns as f64 / 1e6 / c;
    l.set("store.read_calls", cl.op_store.read_calls as f64 / ops);
    l.set("store.bytes_returned", cl.op_store.read_bytes as f64 / ops);
    l.set("store.read_ms", cl.op_store.read_ns as f64 / 1e6 / ops);
    l.set(
        "store.read_share",
        cl.op_store.read_ns as f64 / cl.op_wall_ns.max(1) as f64,
    );
    l.set("store.list_calls", cl.op_store.list_calls as f64 / ops);
    l.set("store.list_ms", cl.op_store.list_ns as f64 / 1e6 / ops);
    l.set("store.write_calls", cl.commit_store.write_calls as f64 / c);
    l.set("store.write_ms", per_c_ms(cl.commit_store.write_ns));
    l.set("store.cas_ms", per_c_ms(cl.commit_store.cas_ns));
    let per_round: Vec<f64> = meta
        .sums
        .iter()
        .map(|&s| s as f64 / meta.rounds.max(1) as f64)
        .collect();
    l.set(
        "store.meta_bytes_per_commit",
        cl.commit_store.meta_read_bytes as f64 / c,
    );
    l.set(
        "store.meta_bytes_first_commit",
        per_round.first().copied().unwrap_or(0.0),
    );
    l.set(
        "store.meta_bytes_last_commit",
        per_round.last().copied().unwrap_or(0.0),
    );
    l.set("table.append_ms", per_c_ms(cl.append_ns));
    l.set("catalog.branch_ms", per_c_ms(cl.branch_ns));
    l.set("catalog.merge_ms", per_c_ms(cl.merge_ns));
    l.set("catalog.delete_branch_ms", per_c_ms(cl.delete_ns));
    run_layers(&mut l, &cl.runs, &cl.run_ms);
    let commit_ms: Vec<f64> = traced
        .ops
        .iter()
        .filter(|o| o.kind == COMMIT_OP)
        .map(|o| o.ms)
        .collect();
    l.set("core.commit_ms_p50", percentile(&commit_ms, 0.5));
    l.set("core.commit_ms_p90", percentile(&commit_ms, 0.9));
    let commit_p50 = |t: &Tally| {
        p50_of(
            &t.ops
                .iter()
                .filter(|o| o.kind == COMMIT_OP)
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    let (p_plain, p_traced) = (commit_p50(&plain), commit_p50(&traced));
    l.set(
        "obs.trace_overhead_pct",
        (p_traced - p_plain) / p_plain.max(1e-9) * 100.0,
    );
    // Rounds delete their data; decode the files of a fresh set-up.
    let dir = args.work_dir.join("decode");
    let env = build(Some(&dir), &batch, false)?;
    let (decode, crc) = layers::decode_rates(env.raw.as_ref(), "warehouse/taxi_table")?;
    drop(env);
    remove_dir(&dir);
    l.set("format.decode_ms_per_mb", decode);
    l.set("checksum.crc32c_ms_per_mb", crc);

    println!(
        "baseline metadata bytes read per commit, by append number (mean of {} rounds):",
        meta.rounds
    );
    for i in [1, 2, 10, 25, 50, 75, 100] {
        if let Some(b) = per_round.get(i - 1) {
            println!("  append {i:>4}: {b:>10.0} bytes");
        }
    }

    if let Some(path) = &args.trace_out {
        trace::write_jsonl(path, &trace::take()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for part in [plain, traced] {
        tally.absorb(part);
    }
    Ok(Outcome {
        metrics: l.into_metrics(),
        tally,
    })
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "adhoc_local" => query_workload(&args, true),
        "analytics_mem" => query_workload(&args, false),
        "pipeline_commit" => commit_workload(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    remove_dir(&args.work_dir);
    match outcome {
        Ok(o) => {
            let correct = o.tally.failed == 0;
            println!("{}", json_line(correct, &o.tally, &o.metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(passes: &[usize]) -> Vec<Op> {
        passes
            .iter()
            .enumerate()
            .flat_map(|(pass, &n)| {
                (0..n).map(move |_| Op {
                    kind: 0,
                    ms: 1.0,
                    sim_ms: 0.0,
                    pass,
                })
            })
            .collect()
    }

    #[test]
    fn windows_hold_whole_passes_of_at_least_min_ops() {
        let lens = |p: &[usize]| windows(&ops(p)).iter().map(|w| w.len()).collect::<Vec<_>>();
        assert_eq!(lens(&[104, 104, 104]), vec![104, 104, 104]);
        assert_eq!(lens(&[60, 60, 60, 60, 30]), vec![120, 150]);
        assert_eq!(lens(&[6; 10]), vec![60]);
        assert_eq!(lens(&[]), vec![0]);
    }
}
