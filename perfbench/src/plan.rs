//! The two planning workloads: `plan-cold` (graph → cost tables → exact
//! prune → scalar DP, as `pase search` does by default) and `plan-frontier`
//! (the same pipeline into the Pareto-frontier DP, then a seeded grid of
//! memory-budget answers).

use crate::layers::{report_counts, report_span_layers, CellCounts, Stage};
use crate::report::Report;
use crate::spans::{self, Span, Spans};
use crate::stats::{
    budget_penalty_max, geomean, least_stolen, median, process_cpu, shuffle, status_bytes,
    steal_ticks, stolen_share, stolen_since,
};
use crate::Opts;
use pase_baselines::data_parallel;
use pase_core::{Search, SearchOutcome, SearchReport, StrategyFrontier};
use pase_cost::{
    ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, PrunedTables, TableOptions,
};
use pase_graph::Graph;
use pase_models::Benchmark;
use pase_obs::Trace;
use pase_serve::{
    strategy_cache_key, write_frontier_response_json, write_response_json, Lookup, Request,
    ShardedCache,
};
use pase_sim::{speedup_over, SimOptions, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Budgets per frontier cell drawn from `[floor, min-time memory]`.
const GRID_BUDGETS: usize = 32;

/// Untraced passes plan a cell faster than this several times over, so
/// its median rests on about as much measured time as a slow cell's.
const REPEAT_BELOW: Duration = Duration::from_millis(25);
/// The most times one pass plans a fast cell.
const MAX_REPEATS: u32 = 8;

/// Times an untraced run computes its references, for `setup_s`: half
/// before measuring and half after, so that `setup_s`, like the other
/// metrics, samples the whole run rather than its first seconds.
const SETUP_REPEATS: usize = 6;

/// Relative tolerance for re-costing a strategy: the DP and
/// `CostTables::evaluate_ids` add the same terms in different orders.
const RECOST_TOLERANCE: f64 = 1e-9;

/// Frontier cells whose exact (width-0) frontier is cheap enough to serve
/// as the reference for `budget_penalty_max`.
const EXACT_REFERENCE: [(Benchmark, u32); 5] = [
    (Benchmark::AlexNet, 8),
    (Benchmark::AlexNet, 32),
    (Benchmark::Rnnlm, 8),
    (Benchmark::Rnnlm, 32),
    (Benchmark::Transformer, 8),
];

/// Which planning workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Scalar DP on every cell at p ∈ {8, 32, 64}.
    Cold,
    /// Frontier DP plus budget answers on every cell at p ∈ {8, 32}.
    Frontier,
}

impl Mode {
    /// The cells of a pass, before the seed shuffles them.
    fn cells(self) -> Vec<Cell> {
        let devices: &[u32] = match self {
            Mode::Cold => &[8, 32, 64],
            // p = 64 frontier fills take seconds each; one pass must not.
            Mode::Frontier => &[8, 32],
        };
        Benchmark::all()
            .iter()
            .flat_map(|&bench| devices.iter().map(move |&p| Cell { bench, p }))
            // InceptionV3 p = 32 takes 2.4 s per frontier plan, two thirds
            // of a pass: a run got only 7-10 samples of it, too few to set
            // aside the ones that lost CPU time to other tenants, and the
            // workload's ten-run spread reached 37 % on a busy host.
            .filter(|c| self == Mode::Cold || (c.bench, c.p) != (Benchmark::InceptionV3, 32))
            .collect()
    }

    fn solve_span(self) -> &'static str {
        match self {
            Mode::Cold => "core.search",
            Mode::Frontier => "core.frontier_fill",
        }
    }

    fn prune_options(self) -> PruneOptions {
        PruneOptions {
            // The frontier search must keep memory-cheaper configurations a
            // time-only dominance test would drop; `Search` does the same.
            memory_aware: self == Mode::Frontier,
            ..PruneOptions::default()
        }
    }
}

/// The model's name in a `pase serve` request.
fn model_key(b: Benchmark) -> &'static str {
    match b {
        Benchmark::AlexNet => "alexnet",
        Benchmark::InceptionV3 => "inception",
        Benchmark::Rnnlm => "rnnlm",
        Benchmark::Transformer => "transformer",
    }
}

#[derive(Clone, Copy)]
struct Cell {
    bench: Benchmark,
    p: u32,
}

impl Cell {
    fn name(self) -> String {
        format!("{} p{}", model_key(self.bench), self.p)
    }

    /// The cell as a `pase serve` request line.
    fn request_line(self, mode: Mode) -> String {
        let frontier = if mode == Mode::Frontier {
            ", \"frontier\": true"
        } else {
            ""
        };
        format!(
            "{{\"model\": \"{}\", \"devices\": {}{frontier}}}",
            model_key(self.bench),
            self.p
        )
    }
}

/// Wall time of each stage of one cell's plan.
#[derive(Clone, Copy, Default)]
struct CellTime {
    parse: Duration,
    build: Duration,
    key: Duration,
    lookup: Duration,
    tables: Duration,
    prune: Duration,
    /// Scalar search or frontier fill.
    solve: Duration,
    /// All budget answers of the cell (frontier only).
    budgets: Duration,
    serialize: Duration,
    total: Duration,
    /// CPU time of the process, all planning threads together.
    cpu: Duration,
    /// Clock ticks stolen from this machine while the cell ran.
    steal: u64,
}

struct Pass {
    traced: bool,
    cells: Vec<(usize, CellTime)>,
    spans: Vec<Span>,
}

/// What a frontier cell answered, kept for the checks after timing.
struct Answers {
    frontier: StrategyFrontier,
    budgets: Vec<u64>,
    /// Index of the chosen frontier point per budget.
    picked: Vec<Option<usize>>,
}

/// One timed plan and everything the checks need afterwards.
struct Planned {
    graph: Graph,
    tables: CostTables,
    pruned: PrunedTables,
    outcome: SearchOutcome,
    answers: Option<Answers>,
    time: CellTime,
}

fn flat_1080ti() -> DeviceMesh {
    DeviceMesh::flat(&MachineSpec::gtx1080ti())
}

/// Plan one cell from a freshly built graph, timing every stage. The cell
/// is asked and answered as `pase serve` answers a request it has not
/// cached: its request line is parsed and keyed, the lookup misses, and the
/// plan is serialised as the server's reply (every budget answer, on a
/// frontier cell).
fn plan_cell(
    mode: Mode,
    cell: Cell,
    mesh: &DeviceMesh,
    fractions: &[f64],
    cache: &ShardedCache,
    sp: &mut Spans,
    group: u64,
) -> Result<Planned, String> {
    let t0 = Instant::now();
    let cpu0 = process_cpu();
    sp.open("bench.cell", group);
    let line = cell.request_line(mode);
    let (req, parse) = sp.time("serve.parse", group, || {
        Request::parse(&line).map_err(|e| e.to_string())
    });
    let req = match req {
        Ok(r) => r,
        Err(e) => {
            sp.close();
            return Err(format!("{}: {e}", cell.name()));
        }
    };
    let (graph, build) = sp.time("models.build", group, || cell.bench.build_for(cell.p));
    let rule = ConfigRule::new(cell.p);
    let (key, key_t) = sp.time("serve.key", group, || {
        strategy_cache_key(
            &graph,
            &rule,
            mesh,
            req.prune.then_some(req.epsilon),
            req.wants_frontier(),
        )
    });
    let (cached, lookup) = sp.time("serve.lookup", group, || {
        !matches!(cache.lookup(key), Lookup::Miss(_))
    });
    if cached {
        sp.close();
        return Err(format!("{}: a cold plan hit the cache", cell.name()));
    }
    let (tables, tables_t) = sp.time("cost.tables", group, || {
        CostTables::build_mesh(&graph, rule, mesh, &TableOptions::default(), None)
    });
    let (pruned, prune) = sp.time("cost.prune", group, || {
        PrunedTables::build(&graph, &tables, &mode.prune_options())
    });
    let trace_epoch = Instant::now();
    let trace = sp.enabled().then(Trace::new);
    let ((outcome, frontier), solve) = sp.time(mode.solve_span(), group, || {
        let mut search = Search::new(&graph).tables(pruned.tables());
        if let Some(t) = &trace {
            search = search.trace(t);
        }
        if mode == Mode::Frontier {
            search = search.frontier();
        }
        let run = search.run();
        let frontier = run.frontier().cloned();
        (run.into_outcome(), frontier)
    });
    if let Some(t) = &trace {
        sp.adopt_phases(mode.solve_span(), group, t, trace_epoch);
    }
    let mut budgets_t = Duration::ZERO;
    let answers = frontier.map(|frontier| {
        let ((budgets, picked), dt) = sp.time("core.budget_select", group, || {
            let floor = frontier.min_memory_bytes();
            let top = frontier.min_time().memory_bytes;
            let mut budgets: Vec<u64> = fractions
                .iter()
                .map(|u| floor + ((top - floor) as f64 * u) as u64)
                .collect();
            // Below the floor every answer must be "infeasible".
            budgets.extend([floor.saturating_sub(1), floor / 2]);
            let picked: Vec<Option<usize>> = budgets
                .iter()
                .map(|&b| {
                    let p = frontier.cheapest_within(b)?;
                    frontier.points().iter().position(|q| std::ptr::eq(q, p))
                })
                .collect();
            (budgets, picked)
        });
        budgets_t = dt;
        Answers {
            frontier,
            budgets,
            picked,
        }
    });
    let mut reply = String::new();
    let ((), serialize) = sp.time("serve.serialize", group, || {
        let report = SearchReport::new(model_key(cell.bench), cell.p, &outcome, None).to_json();
        match (&answers, outcome.found()) {
            (Some(a), _) => {
                let floor = a.frontier.min_memory_bytes();
                for picked in &a.picked {
                    let point = picked.map(|i| &a.frontier.points()[i]);
                    let ids = point.map(|p| pruned.to_original_ids(&p.config_ids));
                    reply.clear();
                    write_frontier_response_json(
                        &mut reply,
                        key,
                        false,
                        point
                            .zip(ids.as_deref())
                            .map(|(p, ids)| (p.cost, p.memory_bytes, ids)),
                        floor,
                        None,
                        &report,
                    );
                }
            }
            (None, Some(r)) => {
                let ids = pruned.to_original_ids(&r.config_ids);
                write_response_json(&mut reply, key, false, Some(r.cost), Some(&ids), &report);
            }
            (None, None) => write_response_json(&mut reply, key, false, None, None, &report),
        }
    });
    sp.close();
    let total = t0.elapsed();
    let cpu = process_cpu()
        .zip(cpu0)
        .map_or(total, |(b, a)| b.saturating_sub(a));
    Ok(Planned {
        graph,
        tables,
        pruned,
        outcome,
        answers,
        time: CellTime {
            parse,
            build,
            key: key_t,
            lookup,
            tables: tables_t,
            prune,
            solve,
            budgets: budgets_t,
            serialize,
            total,
            cpu,
            steal: 0,
        },
    })
}

/// The unpruned scalar optimum of a cell: the reference every plan's
/// optimum must equal bit for bit.
fn scalar_reference(cell: Cell, mesh: &DeviceMesh) -> Option<f64> {
    let graph = cell.bench.build_for(cell.p);
    let tables = CostTables::build_mesh(
        &graph,
        ConfigRule::new(cell.p),
        mesh,
        &TableOptions::default(),
        None,
    );
    let run = Search::new(&graph).tables(&tables).run();
    run.result().ok().map(|r| r.cost)
}

fn recost_error(graph: &Graph, tables: &CostTables, ids: &[u16], cost: f64) -> Option<String> {
    let again = tables.evaluate_ids(graph, ids);
    ((again - cost).abs() > RECOST_TOLERANCE * cost.abs())
        .then(|| format!("re-costing gives {again}, the search reported {cost}"))
}

/// Check a scalar plan; returns the original-space strategy ids.
fn check_cold(planned: &Planned, reference: Option<f64>) -> Result<Vec<u16>, String> {
    let r = planned
        .outcome
        .found()
        .ok_or_else(|| format!("search ended {}", planned.outcome.tag()))?;
    let ids = planned.pruned.to_original_ids(&r.config_ids);
    match reference {
        Some(c) if c.to_bits() == r.cost.to_bits() => {}
        other => {
            return Err(format!(
                "pruned optimum {} differs from the unpruned {other:?}",
                r.cost
            ))
        }
    }
    match recost_error(&planned.graph, &planned.tables, &ids, r.cost) {
        Some(e) => Err(e),
        None => Ok(ids),
    }
}

/// Check a frontier plan and each of its budget answers (one operation
/// each) into `report`.
fn check_frontier(
    planned: &Planned,
    reference: Option<f64>,
    first: Option<&StrategyFrontier>,
    report: &mut Report,
) {
    let Some(a) = &planned.answers else {
        report.op(Err(format!(
            "frontier search ended {}",
            planned.outcome.tag()
        )));
        report.fail_many(
            GRID_BUDGETS as u64 + 2,
            "no frontier to answer budgets from",
        );
        return;
    };
    let f = &a.frontier;
    let memory_of = |ids: &[u16]| {
        planned
            .tables
            .strategy_memory_bytes(&planned.pruned.to_original_ids(ids))
    };
    let min_time = f.min_time();
    let plan_check = (|| {
        match reference {
            Some(c) if c.to_bits() == min_time.cost.to_bits() => {}
            other => {
                return Err(format!(
                    "min-time point {} differs from the scalar optimum {other:?}",
                    min_time.cost
                ))
            }
        }
        let ids = planned.pruned.to_original_ids(&min_time.config_ids);
        if let Some(e) = recost_error(&planned.graph, &planned.tables, &ids, min_time.cost) {
            return Err(e);
        }
        if first.is_some_and(|first| first != f) {
            return Err("frontier differs from the first pass's".into());
        }
        Ok(())
    })();
    report.op(plan_check);
    let floor = f.min_memory_bytes();
    for (&b, picked) in a.budgets.iter().zip(&a.picked) {
        let result = match picked.map(|i| &f.points()[i]) {
            None if b < floor => Ok(()),
            None => Err(format!("budget {b} infeasible above the floor {floor}")),
            Some(p) if p.memory_bytes > b => {
                Err(format!("answer needs {} B over budget {b}", p.memory_bytes))
            }
            Some(p) if memory_of(&p.config_ids) != p.memory_bytes => {
                Err(format!("answer memory {} does not re-cost", p.memory_bytes))
            }
            Some(p)
                if f.points()
                    .iter()
                    .any(|q| q.memory_bytes <= b && q.cost < p.cost) =>
            {
                Err(format!("a cheaper frontier point fits budget {b}"))
            }
            Some(_) => Ok(()),
        };
        report.op(result);
    }
}

/// What every plan is checked against: the result of the benchmark's set-up.
#[derive(PartialEq)]
struct References {
    /// The unpruned scalar optimum per cell.
    scalar: Vec<Option<f64>>,
    /// Per cell of [`EXACT_REFERENCE`] (plan-frontier only), its exact
    /// (width-0) frontier: the reference for `budget_penalty_max`.
    exact: Vec<Option<StrategyFrontier>>,
}

fn exact_frontier(cell: Cell, mesh: &DeviceMesh) -> Option<StrategyFrontier> {
    let graph = cell.bench.build_for(cell.p);
    let tables = CostTables::build_mesh(
        &graph,
        ConfigRule::new(cell.p),
        mesh,
        &TableOptions::default(),
        None,
    );
    let pruned = PrunedTables::build(&graph, &tables, &Mode::Frontier.prune_options());
    let run = Search::new(&graph)
        .tables(pruned.tables())
        .frontier()
        .frontier_width(0)
        .run();
    run.frontier().cloned()
}

/// The benchmark's set-up: compute the references `repeats` times, each
/// time checking that they equal `first` (the first repeat's, when `None`).
/// Returns the references with each repeat's CPU seconds.
fn set_up(
    mode: Mode,
    cells: &[Cell],
    mesh: &DeviceMesh,
    repeats: usize,
    mut first: Option<References>,
    report: &mut Report,
) -> (References, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let cpu0 = process_cpu();
        let refs = References {
            scalar: cells.iter().map(|&c| scalar_reference(c, mesh)).collect(),
            exact: cells
                .iter()
                .map(|&c| {
                    (mode == Mode::Frontier && EXACT_REFERENCE.contains(&(c.bench, c.p)))
                        .then(|| exact_frontier(c, mesh))
                        .flatten()
                })
                .collect(),
        };
        let cpu = process_cpu().zip(cpu0).map(|(b, a)| b.saturating_sub(a));
        times.push(cpu.map_or(f64::NAN, |d| d.as_secs_f64()));
        match &first {
            None => first = Some(refs),
            Some(f) => report.op(if *f == refs {
                Ok(())
            } else {
                Err("references differ between set-ups".into())
            }),
        }
    }
    let refs = first.expect("at least one set-up ran");
    (refs, times)
}

/// `budget_penalty_max` on one cell against its exact frontier: budgets
/// are the cell's grid plus every exact breakpoint (where the penalty
/// peaks), answered by the default and the width-0 frontier.
fn penalty_for(cell: Cell, exact: &StrategyFrontier, approx: &Answers) -> Result<f64, String> {
    let mut budgets = approx.budgets.clone();
    budgets.extend(exact.points().iter().map(|p| p.memory_bytes));
    budget_penalty_max(
        &budgets,
        |b| approx.frontier.cheapest_within(b).map(|p| p.cost),
        |b| exact.cheapest_within(b).map(|p| p.cost),
    )
    .map_err(|e| format!("{}: {e}", cell.name()))
}

/// Simulated speedup over data parallelism of the strategy `ids` (in the
/// unpruned tables' id space) on the cell's flat cluster.
fn speedup(cell: Cell, graph: &Graph, tables: &CostTables, ids: &[u16]) -> f64 {
    let strategy = tables.ids_to_strategy(ids);
    let dp = data_parallel(graph, cell.p);
    let topo = Topology::cluster(MachineSpec::gtx1080ti(), cell.p)
        .expect("benchmark device counts are positive");
    speedup_over(graph, &strategy, &dp, &topo, &SimOptions::default())
}

/// The simulated speedup of every strategy a checked plan offers: the
/// optimum of a scalar cell, every point of a frontier cell (each budget
/// answer is one of them; the seeded budgets do not choose which count).
fn answer_speedups(cell: Cell, planned: &Planned) -> Vec<f64> {
    let of = |ids: &[u16]| {
        let ids = planned.pruned.to_original_ids(ids);
        speedup(cell, &planned.graph, &planned.tables, &ids)
    };
    match (&planned.answers, planned.outcome.found()) {
        (Some(a), _) => a
            .frontier
            .points()
            .iter()
            .map(|p| of(&p.config_ids))
            .collect(),
        (None, Some(r)) => vec![of(&r.config_ids)],
        (None, None) => Vec::new(),
    }
}

/// Everything a run of passes produced.
struct Measured {
    cells: Vec<Cell>,
    passes: Vec<Pass>,
    counts: Vec<Option<CellCounts>>,
    first_answers: Vec<Option<Answers>>,
    /// Per cell, the speedups of its first checked plan's strategies.
    speedups: Vec<Option<Vec<f64>>>,
    steal_pct: f64,
}

/// Plan every cell once per pass, in a seeded order, for `opts.seconds`,
/// checking every answer into `report`. After the first pass, untraced runs
/// plan each cell faster than [`REPEAT_BELOW`] several times in its slot.
fn measure(
    mode: Mode,
    cells: Vec<Cell>,
    mesh: &DeviceMesh,
    references: &[Option<f64>],
    opts: &Opts,
    report: &mut Report,
) -> Measured {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let fractions: Vec<Vec<f64>> = cells
        .iter()
        .map(|_| (0..GRID_BUDGETS).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut m = Measured {
        passes: Vec::new(),
        counts: vec![None; cells.len()],
        first_answers: (0..cells.len()).map(|_| None).collect(),
        speedups: vec![None; cells.len()],
        steal_pct: f64::NAN,
        cells,
    };
    let cells = m.cells.clone();
    // Nothing is ever inserted: every lookup is the miss a cold request
    // meets.
    let cache = ShardedCache::new(1, 64, None, true);
    let mut repeats = vec![1u32; cells.len()];
    let mut traced_spans = Spans::new(true);
    let mut untraced = Spans::new(false);
    let mut group = 0u64;
    let started = Instant::now();
    let steal_at_start = steal_ticks();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    // Traced runs alternate untraced and traced passes so the difference
    // between them is the tracing overhead.
    let min_passes = if opts.trace { 2 } else { 1 };
    while m.passes.len() < min_passes || Instant::now() < deadline {
        let traced = opts.trace && m.passes.len() % 2 == 1;
        let mut order: Vec<usize> = (0..cells.len()).collect();
        shuffle(&mut rng, &mut order);
        let mut pass = Pass {
            traced,
            cells: Vec::with_capacity(cells.len()),
            spans: Vec::new(),
        };
        let slots = order
            .iter()
            .flat_map(|&ci| std::iter::repeat_n(ci, repeats[ci] as usize));
        for ci in slots {
            group += 1;
            let sp = if traced {
                &mut traced_spans
            } else {
                &mut untraced
            };
            let steal0 = steal_ticks();
            let planned = plan_cell(mode, cells[ci], mesh, &fractions[ci], &cache, sp, group);
            let mut planned = match planned {
                Ok(p) => p,
                Err(e) => {
                    report.op(Err(e));
                    continue;
                }
            };
            planned.time.steal = stolen_since(steal0);
            pass.cells.push((ci, planned.time));
            // Everything below runs outside the timed region.
            if m.counts[ci].is_none() {
                if let Some(r) = planned.outcome.found() {
                    let ps = planned.pruned.stats();
                    m.counts[ci] = Some(CellCounts {
                        configs_before: ps.configs_before,
                        configs_after: ps.configs_after,
                        states_evaluated: r.stats.states_evaluated,
                        peak_table_bytes: r.stats.peak_table_bytes,
                    });
                }
            }
            let checked = match mode {
                Mode::Cold => {
                    let checked = check_cold(&planned, references[ci]).map(|_| ());
                    report.op(checked
                        .clone()
                        .map_err(|e| format!("{}: {e}", cells[ci].name())));
                    checked.is_ok()
                }
                Mode::Frontier => {
                    let first = m.first_answers[ci].as_ref().map(|a| &a.frontier);
                    let failed = report.failed();
                    check_frontier(&planned, references[ci], first, report);
                    report.failed() == failed
                }
            };
            if checked && m.speedups[ci].is_none() {
                m.speedups[ci] = Some(answer_speedups(cells[ci], &planned));
            }
            if m.first_answers[ci].is_none() {
                m.first_answers[ci] = planned.answers;
            }
        }
        if traced {
            pass.spans = traced_spans.drain();
        }
        if m.passes.is_empty() && !opts.trace {
            for &(ci, t) in &pass.cells {
                let fit = REPEAT_BELOW.as_secs_f64() / t.total.as_secs_f64().max(1e-6);
                repeats[ci] = (fit.ceil() as u32).clamp(1, MAX_REPEATS);
            }
        }
        m.passes.push(pass);
    }
    m.steal_pct = stolen_share(steal_at_start, started);
    eprintln!(
        "{:.1} % of the machine's CPU time was stolen while measuring",
        m.steal_pct
    );
    m
}

/// Per cell, the median of `stage` over the untraced passes' plans of it
/// that lost the least CPU time to other tenants of the machine.
fn per_cell_median(m: &Measured, stage: impl Fn(&CellTime) -> Duration) -> Vec<f64> {
    (0..m.cells.len())
        .map(|ci| {
            let samples: Vec<(f64, u64)> = m
                .passes
                .iter()
                .filter(|p| !p.traced)
                .flat_map(|p| p.cells.iter().filter(|(c, _)| *c == ci))
                .map(|(_, t)| (stage(t).as_secs_f64() * 1e3, t.steal))
                .collect();
            median(&least_stolen(samples))
        })
        .collect()
}

/// Geometric mean over cells of the per-cell median plan time, in ms.
fn answer_geomean_ms(m: &Measured) -> f64 {
    geomean(&per_cell_median(m, |t| t.total)).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced run.
fn report_end_to_end(mode: Mode, m: &Measured, refs: &References, report: &mut Report) {
    let cpu_ms = per_cell_median(m, |t| t.cpu);
    let wall_ms = per_cell_median(m, |t| t.total);
    for ((cell, cpu), wall) in m.cells.iter().zip(&cpu_ms).zip(&wall_ms) {
        eprintln!(
            "{:>14}: median {wall:9.3} ms wall, {cpu:9.3} ms CPU",
            cell.name()
        );
    }
    eprintln!("geometric mean plan time {:.3} ms", answer_geomean_ms(m));
    report.metric(
        "cpu_us_per_answer",
        cpu_ms.iter().sum::<f64>() * 1e3 / cpu_ms.len() as f64,
        "us",
    );
    let s: Option<Vec<Vec<f64>>> = m.speedups.iter().cloned().collect();
    let g = s.map(|s| s.concat()).as_deref().and_then(geomean);
    report.metric("speedup_vs_dp_geomean", g.unwrap_or(f64::NAN), "x");
    // It plans in-process: the peak covers the set-up's unpruned searches
    // as well as the measured plans.
    let peak = status_bytes(std::process::id(), "VmHWM");
    report.metric(
        "peak_rss_mb",
        peak.map_or(f64::NAN, |b| b as f64 / f64::from(1u32 << 20)),
        "MB",
    );
    if mode == Mode::Frontier {
        // How much a default-width budget answer loses against the exact
        // frontier: printed, not a metric (plan-cold answers no budgets).
        let mut worst = 1.0f64;
        for (ci, &cell) in m.cells.iter().enumerate() {
            if !EXACT_REFERENCE.contains(&(cell.bench, cell.p)) {
                continue;
            }
            let result = match (&refs.exact[ci], &m.first_answers[ci]) {
                (Some(exact), Some(a)) => penalty_for(cell, exact, a),
                (None, _) => Err(format!("{}: exact frontier search failed", cell.name())),
                (_, None) => Err(format!("{}: no frontier answers", cell.name())),
            };
            if let Ok(r) = result {
                worst = worst.max(r);
            }
            report.op(result.map(|_| ()));
        }
        eprintln!("budget penalty against the exact frontiers: at most {worst:.4}x");
    }
}

/// The per-layer metrics of a traced run: per planned cell, medians over
/// the traced passes.
fn report_layers(m: &Measured, report: &mut Report) {
    let (plain, traced): (Vec<&Pass>, Vec<&Pass>) = m.passes.iter().partition(|p| !p.traced);
    let per_cell = |ps: &[&Pass], f: &dyn Fn(&CellTime) -> Duration| {
        median(
            &ps.iter()
                .map(|p| {
                    let t: Duration = p.cells.iter().map(|(_, c)| f(c)).sum();
                    t.as_secs_f64() / p.cells.len() as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let us: [Stage<CellTime>; 5] = [
        ("models.build_us", |t| t.build),
        ("serve.parse_us", |t| t.parse),
        ("serve.key_us", |t| t.key),
        ("serve.lookup_us", |t| t.lookup),
        ("serve.serialize_us", |t| t.serialize),
    ];
    for (name, stage) in us {
        report.metric(name, per_cell(&traced, &|t| stage(t)) * 1e6, "us");
    }
    let ms: [Stage<CellTime>; 3] = [
        ("cost.tables_ms", |t| t.tables),
        ("cost.prune_ms", |t| t.prune),
        ("core.search_ms", |t| t.solve),
    ];
    for (name, stage) in ms {
        report.metric(name, per_cell(&traced, &|t| stage(t)) * 1e3, "ms");
    }
    report.metric(
        "bench.unaccounted_us",
        per_cell(&plain, &|t| {
            t.total.saturating_sub(
                t.parse
                    + t.build
                    + t.key
                    + t.lookup
                    + t.tables
                    + t.prune
                    + t.solve
                    + t.budgets
                    + t.serialize,
            )
        }) * 1e6,
        "us",
    );
    let counted: Vec<CellCounts> = m.counts.iter().flatten().copied().collect();
    if counted.len() != m.cells.len() {
        report.op(Err("some cells never produced counts".into()));
    }
    report_counts(&counted, report);
    let spans: Vec<(&[Span], usize)> = traced
        .iter()
        .map(|p| (p.spans.as_slice(), p.cells.len()))
        .collect();
    report_span_layers(&spans, report);
    report.metric("bench.answer_geomean_ms", answer_geomean_ms(m), "ms");
    report.metric("bench.steal_pct", m.steal_pct, "%");
    let plain_s = per_cell(&plain, &|t| t.total);
    report.metric(
        "trace.overhead_pct",
        (per_cell(&traced, &|t| t.total) - plain_s) / plain_s * 100.0,
        "%",
    );
}

/// Run a planning workload for `opts.seconds`, reporting its end-to-end
/// metrics (untraced) or its per-layer metrics (traced). Returns the
/// traced spans.
pub fn run(mode: Mode, opts: &Opts, report: &mut Report) -> Vec<Span> {
    let cells = mode.cells();
    let mesh = flat_1080ti();
    let before = if opts.trace { 1 } else { SETUP_REPEATS / 2 };
    let (refs, mut setup_times) = set_up(mode, &cells, &mesh, before, None, report);
    let m = measure(mode, cells.clone(), &mesh, &refs.scalar, opts, report);
    if !opts.trace {
        let after = SETUP_REPEATS - before;
        let (refs, later) = set_up(mode, &cells, &mesh, after, Some(refs), report);
        setup_times.extend(later);
        report.metric("setup_s", median(&setup_times), "s");
        report_end_to_end(mode, &m, &refs, report);
        return Vec::new();
    }
    report_layers(&m, report);
    let mut all = Vec::new();
    for p in m.passes {
        spans::archive(&mut all, p.spans);
    }
    all
}
