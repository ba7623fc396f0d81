//! Per-layer replay and output oracle for the end-to-end benchmark.
//!
//! ```text
//! e2e-layers replay PLAN --spans on|off   # drive the plan, print one JSON object
//! e2e-layers oracle PLAN                  # library answers for the plan's tune/query lines
//! ```
//!
//! A plan is a text file, one directive per line:
//!
//! ```text
//! render OUT.txt
//! store cold DIR | store warm DIR
//! exp fig15
//! cell CONV 128 10
//! tune CONV 16 5
//! query energy_per_op 8,16 - area_per_alu 2.5e7
//! ```
//!
//! `replay` runs every `exp` through `stream_repro::run_with` on one engine
//! and renders its report (the `repro` layer; the reports go to the
//! `render` file, as `repro` would print them), then replays each `cell`
//! through the crates underneath it: `KernelCache::get_or_compile` on a
//! fresh cache (`sched`, `store`), `AppId::program` with the process cache
//! warm (`apps`), `stream_sim::simulate` (`sim`), `Tape::compile` and
//! `Tape::execute` (`ir`); each `tune` line through `stream_tune::tune_app`
//! and each `query` through `SpaceQuery::solve` (`vlsi`). Every call sits
//! in a span named `<layer>.<op>`; counts come from the crates' own exact
//! counters. Spans are plain records kept in memory and printed at the end,
//! so the program's own tracing stays off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;
use stream_apps::AppId;
use stream_grid::{DiskTier, Engine, KernelCache};
use stream_ir::{ExecConfig, Scalar, Tape, Ty};
use stream_machine::{Machine, SystemParams};
use stream_repro::{ExperimentId, Metric, SpaceQuery};
use stream_sched::CompileOptions;
use stream_store::{DiskStore, Key};
use stream_vlsi::Shape;

/// SIMD iterations each replayed tape executes.
const TAPE_ITERS: usize = 16;
/// Engine workers, as `repro --jobs 2` on the 2-core reference host.
const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreMode {
    Cold,
    Warm,
}

#[derive(Debug, Clone, PartialEq)]
struct QuerySpec {
    minimize: Metric,
    clusters: Option<Vec<u32>>,
    alus: Option<Vec<u32>>,
    constraint: Option<(Metric, f64)>,
}

impl QuerySpec {
    fn build(&self) -> SpaceQuery {
        let mut q = SpaceQuery::minimize(self.minimize);
        if let Some(cs) = &self.clusters {
            q = q.clusters(cs.iter().copied());
        }
        if let Some(ns) = &self.alus {
            q = q.alus_per_cluster(ns.iter().copied());
        }
        if let Some((m, max)) = self.constraint {
            q = q.subject_to(m, max);
        }
        q
    }
}

#[derive(Debug, Default)]
struct Plan {
    render: Option<PathBuf>,
    store: Option<(StoreMode, PathBuf)>,
    exps: Vec<ExperimentId>,
    cells: Vec<(AppId, Shape)>,
    tunes: Vec<(AppId, Shape)>,
    queries: Vec<QuerySpec>,
}

fn parse_app(s: &str) -> Result<AppId, String> {
    AppId::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown app `{s}`"))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| format!("`{s}` is not a u32"))
}

fn parse_list(s: &str) -> Result<Option<Vec<u32>>, String> {
    if s == "-" {
        return Ok(None);
    }
    s.split(',')
        .map(parse_u32)
        .collect::<Result<_, _>>()
        .map(Some)
}

fn parse_metric(s: &str) -> Result<Metric, String> {
    Metric::from_str(s).map_err(|e| e.to_string())
}

fn parse_shape(words: &[&str]) -> Result<(AppId, Shape), String> {
    match words {
        [app, c, n] => Ok((parse_app(app)?, Shape::new(parse_u32(c)?, parse_u32(n)?))),
        _ => Err("expected `APP C N`".to_string()),
    }
}

fn parse_plan(text: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for (lineno, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some((&head, rest)) = words.split_first() else {
            continue;
        };
        let at = |e: String| format!("plan line {}: {e}", lineno + 1);
        match (head, rest) {
            ("render", [path]) => plan.render = Some(PathBuf::from(path)),
            ("store", [mode, dir]) => {
                let mode = match *mode {
                    "cold" => StoreMode::Cold,
                    "warm" => StoreMode::Warm,
                    other => return Err(at(format!("unknown store mode `{other}`"))),
                };
                plan.store = Some((mode, PathBuf::from(dir)));
            }
            ("exp", [id]) => plan.exps.push(
                id.parse()
                    .map_err(|e: stream_repro::UnknownExperiment| at(e.to_string()))?,
            ),
            ("cell", shape) => plan.cells.push(parse_shape(shape).map_err(at)?),
            ("tune", shape) => plan.tunes.push(parse_shape(shape).map_err(at)?),
            ("query", [minimize, cs, ns, cm, max]) => {
                let constraint = match (*cm, *max) {
                    ("-", "-") => None,
                    (m, x) => Some((
                        parse_metric(m).map_err(at)?,
                        x.parse::<f64>()
                            .map_err(|_| at(format!("`{x}` is not a number")))?,
                    )),
                };
                plan.queries.push(QuerySpec {
                    minimize: parse_metric(minimize).map_err(at)?,
                    clusters: parse_list(cs).map_err(at)?,
                    alus: parse_list(ns).map_err(at)?,
                    constraint,
                });
            }
            _ => return Err(at(format!("cannot parse `{line}`"))),
        }
    }
    Ok(plan)
}

/// One recorded span: name, start and end in ns since the run began, and
/// the index of the enclosing span (`-1` for a root).
struct SpanRec {
    name: String,
    start: u64,
    end: u64,
    parent: i64,
}

/// Benchmark-side span recorder: a stack of open spans on one thread.
struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(-1, |&i| i as i64);
        let start = self.now();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start,
            end: start,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost span, renaming it when the outcome of the call
    /// decides which layer it belongs to.
    fn exit_as(&mut self, name: Option<&str>) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = self.now();
        if let Some(n) = name {
            self.spans[i].name = n.to_string();
        }
    }

    fn exit(&mut self) {
        self.exit_as(None);
    }

    /// Runs `f` inside a span called `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

/// Deterministic stream inputs for `iters` SIMD iterations on `clusters`
/// lanes (the pattern the repro tape smoke uses).
fn tape_inputs(kernel: &stream_ir::Kernel, clusters: usize, iters: usize) -> Vec<Vec<Scalar>> {
    kernel
        .inputs()
        .iter()
        .map(|d| {
            let words = iters * clusters * d.record_width as usize;
            (0..words)
                .map(|i| match d.ty {
                    Ty::I32 => Scalar::I32((i as i32 * 37) % 101 - 50),
                    Ty::F32 => Scalar::F32(i as f32 * 0.375 - 4.0),
                })
                .collect()
        })
        .collect()
}

/// Minimal JSON string escaping for names and messages.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sum of the `busy N us` figures in an experiment's perf lines.
fn busy_micros(report: &stream_repro::Report) -> u64 {
    report
        .perf_lines()
        .iter()
        .filter_map(|l| {
            let rest = &l[l.find("busy ")? + 5..];
            rest.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

fn replay(plan: &Plan, spans_on: bool) -> Result<String, String> {
    stream_trace::init_flight_from_env();
    stream_pool::configure_global(JOBS);
    let sys = SystemParams::paper_2007();
    let opts = CompileOptions::default();
    let mut rec = Recorder::new(spans_on);
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    if let Some((StoreMode::Warm, dir)) = &plan.store {
        stream_grid::attach_global_disk(dir).map_err(|e| format!("schedule tier: {e}"))?;
        stream_ir::attach_native_disk(dir).map_err(|e| format!("native tier: {e}"))?;
        stream_tune::attach_global_disk(dir).map_err(|e| format!("tune tier: {e}"))?;
    }
    let global = stream_grid::global_cache();
    let g0 = global.stats();
    let t0 = stream_tune::stats();
    let n0 = stream_ir::native_stats();

    rec.enter("run");

    // The repro layer: whole experiments, then their rendering.
    rec.enter("phase.experiments");
    let phase_start = Instant::now();
    let engine = Engine::new(JOBS);
    let mut engine_busy_us = 0u64;
    let mut rendered = String::new();
    for &id in &plan.exps {
        let report = rec.span(&format!("repro.exp.{id}"), || {
            stream_repro::run_with(id, &engine)
        });
        engine_busy_us += busy_micros(&report);
        rendered.push_str(&rec.span("repro.render", || format!("{report}\n")));
    }
    if let Some(path) = &plan.render {
        std::fs::write(path, &rendered).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let phase_wall = phase_start.elapsed().as_secs_f64();
    rec.exit();

    // The layers underneath, one app x shape cell at a time.
    rec.enter("phase.replay");
    let replay_cache = KernelCache::new();
    let mut cold_store: Option<DiskStore> = None;
    match &plan.store {
        Some((StoreMode::Warm, dir)) => {
            let tier = DiskTier::open(dir).map_err(|e| format!("replay tier: {e}"))?;
            replay_cache.attach_disk(tier);
        }
        Some((StoreMode::Cold, dir)) => {
            cold_store = Some(
                DiskStore::open(dir, "e2e-replay", 1).map_err(|e| format!("replay store: {e}"))?,
            );
        }
        None => {}
    }
    let mut cycles: BTreeMap<(AppId, u32, u32), u64> = BTreeMap::new();
    let mut anchor_cells: Vec<(AppId, Shape)> = Vec::new();
    for id in AppId::ALL {
        for shape in [Shape::new(8, 5), Shape::new(128, 10)] {
            if !plan.cells.contains(&(id, shape)) {
                anchor_cells.push((id, shape));
            }
        }
    }
    for &(app, shape) in plan.cells.iter().chain(&anchor_cells) {
        rec.enter("cell");
        let machine = Machine::paper(shape);
        let kernels = rec.span("apps.kernels", || app.kernels(&machine));
        for k in &kernels {
            let before = replay_cache.stats();
            rec.enter("sched.compile");
            let result = replay_cache.get_or_compile(k, &machine, &opts);
            let after = replay_cache.stats();
            let layer = if after.compiles > before.compiles {
                "sched.compile"
            } else if after.disk_hits > before.disk_hits {
                "store.read"
            } else {
                "grid.hit"
            };
            rec.exit_as(Some(layer));
            match result {
                Ok(compiled) => {
                    *counts.entry("sched.ii_sum").or_default() += u64::from(compiled.ii());
                    if layer == "sched.compile" {
                        if let Some(store) = &cold_store {
                            let material = format!(
                                "{}@C{}N{}",
                                k.name(),
                                shape.clusters,
                                shape.alus_per_cluster
                            );
                            let payload = compiled.recipe().encode();
                            rec.enter("store.write");
                            let put = store.put(Key::of(material.as_bytes()), &payload);
                            rec.exit();
                            put.map_err(|e| format!("replay store write: {e}"))?;
                            *counts.entry("store.writes").or_default() += 1;
                        }
                    }
                }
                Err(e) => {
                    *counts.entry("sched.errors").or_default() += 1;
                    errors.push(format!(
                        "{} at {app} C={} N={}: {e}",
                        k.name(),
                        shape.clusters,
                        shape.alus_per_cluster
                    ));
                }
            }
            // The process cache must be warm before `AppId::program` is
            // timed, so the apps span is program construction only.
            rec.span("grid.lookup", || {
                let _ = global.get_or_compile(k, &machine, &opts);
            });
            if k.param_tys().is_empty() {
                let clusters = shape.clusters as usize;
                let tape = rec.span("ir.tape_compile", || Tape::compile(k));
                *counts.entry("ir.tape_compiles").or_default() += 1;
                let inputs = tape_inputs(k, clusters, TAPE_ITERS);
                let cfg = ExecConfig::with_clusters(clusters);
                let out = rec.span("ir.tape_exec", || tape.execute(&[], &inputs, &cfg));
                std::hint::black_box(&out);
                *counts.entry("ir.tape_execs").or_default() += 1;
            }
        }
        let program = rec.span("apps.program", || app.program(&machine));
        *counts.entry("apps.programs").or_default() += 1;
        *counts.entry("apps.instrs").or_default() += program.program.instrs().len() as u64;
        attempted += 1;
        let report = rec.span("sim.simulate", || {
            stream_sim::simulate(&program.program, &machine, &sys)
        });
        *counts.entry("sim.simulations").or_default() += 1;
        match report {
            Ok(r) => {
                let c = r.cycles;
                cycles.insert((app, shape.clusters, shape.alus_per_cluster), c);
                if plan.cells.contains(&(app, shape)) {
                    *counts.entry("sim.cycles_sum").or_default() += c;
                }
            }
            Err(e) => errors.push(format!(
                "simulate {app} C={} N={}: {e}",
                shape.clusters, shape.alus_per_cluster
            )),
        }
        // Freeing a program's deep-cloned kernels costs about as much as
        // building it; left outside a span it would read as unattributed.
        rec.span("apps.drop", move || drop((program, kernels)));
        rec.exit();
    }
    let r0 = replay_cache.stats();
    counts.insert("sched.compiles", r0.compiles);
    counts.insert("store.reads", r0.disk_hits);
    counts.insert("store.read_misses", r0.disk_misses);
    let store_bytes = match (&cold_store, replay_cache.disk()) {
        (Some(s), _) => s.bytes(),
        (None, Some(tier)) => tier.bytes(),
        (None, None) => 0,
    };
    counts.insert("store.bytes", store_bytes);

    for &(app, shape) in &plan.tunes {
        let machine = Machine::paper(shape);
        let before = stream_tune::stats();
        rec.enter("tune.search");
        let tuned = stream_tune::tune_app(app, &machine, &sys);
        let after = stream_tune::stats();
        rec.exit_as(Some(if after.searches > before.searches {
            "tune.search"
        } else {
            "tune.rehydrate"
        }));
        attempted += 1;
        *counts.entry("tune.tuned_cycles_sum").or_default() += tuned.tuned_cycles;
        if tuned.tuned_cycles > tuned.default_cycles {
            errors.push(format!("tune {app}: tuned slower than default"));
        }
    }

    for q in &plan.queries {
        let answer = rec.span("vlsi.solve", || q.build().solve());
        attempted += 1;
        match answer {
            Some(a) => *counts.entry("vlsi.evals").or_default() += a.evaluated as u64,
            None => errors.push(format!("query {q:?} has no feasible shape")),
        }
    }
    rec.exit();
    rec.exit();
    let wall = rec.t0.elapsed().as_secs_f64();

    let g1 = global.stats();
    let t1 = stream_tune::stats();
    let n1 = stream_ir::native_stats();
    counts.insert("grid.cache_hits", g1.hits - g0.hits);
    counts.insert("grid.cache_misses", g1.misses - g0.misses);
    counts.insert("grid.engine_busy_us", engine_busy_us);
    counts.insert("grid.workers", JOBS as u64);
    counts.insert("tune.searches", t1.searches - t0.searches);
    counts.insert("tune.rehydrated", t1.rehydrated - t0.rehydrated);
    counts.insert("tune.candidates", t1.candidates - t0.candidates);
    counts.insert("tune.pruned", t1.pruned - t0.pruned);
    counts.insert("tune.sched_compiles", t1.sched_compiles - t0.sched_compiles);
    counts.insert("ir.native_compiles", n1.compiles - n0.compiles);

    // Model error against the paper's Figure 15 anchors (speedup of
    // C=128 N=10 over C=8 N=5), in percent of the paper value.
    let mut fig15 = String::new();
    for id in AppId::ALL {
        let base = cycles.get(&(id, 8, 5));
        let big = cycles.get(&(id, 128, 10));
        if let (Some(&b), Some(&g)) = (base, big) {
            let speedup = b as f64 / g as f64;
            let paper = id.paper_fig15().2;
            let err = 100.0 * (speedup - paper) / paper;
            if !fig15.is_empty() {
                fig15.push(',');
            }
            let _ = write!(
                fig15,
                "{}:{}",
                json_str(id.name()),
                json_str(&format!("{err:.4}"))
            );
        }
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"wall_s\":{wall},\"phase_experiments_s\":{phase_wall},\"attempted\":{attempted},\"failed\":{},",
        errors.len()
    );
    out.push_str("\"errors\":[");
    out.push_str(
        &errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("],\"counts\":{");
    out.push_str(
        &counts
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(","),
    );
    let _ = write!(out, "}},\"fig15_err_pct\":{{{fig15}}},\"spans\":[");
    out.push_str(
        &rec.spans
            .iter()
            .map(|s| format!("[{},{},{},{}]", json_str(&s.name), s.start, s.end, s.parent))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("]}");
    Ok(out)
}

/// The library's answers for the plan's `tune` and `query` lines, one JSON
/// object per line in plan order.
fn oracle(plan: &Plan) -> String {
    let sys = SystemParams::paper_2007();
    let mut out = String::new();
    for &(app, shape) in &plan.tunes {
        let t = stream_tune::tune_app(app, &Machine::paper(shape), &sys);
        let _ = writeln!(
            out,
            "{{\"kind\":\"tune\",\"app\":{},\"clusters\":{},\"alus_per_cluster\":{},\"default_cycles\":{},\"tuned_cycles\":{}}}",
            json_str(app.name()),
            shape.clusters,
            shape.alus_per_cluster,
            t.default_cycles,
            t.tuned_cycles
        );
    }
    for (i, q) in plan.queries.iter().enumerate() {
        match q.build().solve() {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"query\",\"index\":{i},\"clusters\":{},\"alus_per_cluster\":{},\"value\":{:?},\"evaluated\":{},\"feasible\":{}}}",
                    a.shape.clusters, a.shape.alus_per_cluster, a.value, a.evaluated, a.feasible
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"query\",\"index\":{i},\"infeasible\":true}}"
                );
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path, spans_on) = match args.as_slice() {
        [m, p] if m == "oracle" => (m.as_str(), p, false),
        [m, p, flag, v] if m == "replay" && flag == "--spans" => (m.as_str(), p, v == "on"),
        _ => {
            eprintln!("usage: e2e-layers replay PLAN --spans on|off | e2e-layers oracle PLAN");
            return ExitCode::from(2);
        }
    };
    let plan = match std::fs::read_to_string(Path::new(path))
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|t| parse_plan(&t))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e-layers: {e}");
            return ExitCode::from(2);
        }
    };
    if mode == "oracle" {
        print!("{}", oracle(&plan));
        return ExitCode::SUCCESS;
    }
    match replay(&plan, spans_on) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_every_directive() {
        let plan = parse_plan(
            "render r.txt\nstore warm /x\nexp fig15\ncell CONV 128 10\ntune depth 16 5\n\
             query energy_per_op 8,16 - area_per_alu 2.5e7\nquery area_per_alu - - - -\n",
        )
        .expect("valid plan");
        assert_eq!(plan.exps, vec![ExperimentId::Fig15]);
        assert_eq!(plan.cells, vec![(AppId::Conv, Shape::new(128, 10))]);
        assert_eq!(plan.tunes, vec![(AppId::Depth, Shape::new(16, 5))]);
        assert_eq!(plan.queries.len(), 2);
        assert_eq!(plan.queries[0].clusters, Some(vec![8, 16]));
        assert_eq!(plan.queries[1].constraint, None);
        assert!(parse_plan("cell CONV 8\n").is_err());
        assert!(parse_plan("exp fig99\n").is_err());
    }
}
