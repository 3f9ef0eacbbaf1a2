//! The harness's sweep rounds: spec texts in, verified grid artifacts out,
//! through the program's own spec runner.
//!
//! An untraced round does for each spec what `prestage run` does:
//! `run_spec_cells_observed` (validate, build the workloads, check and load
//! any replay traces once, run every cell on the shared work-stealing pool in
//! grid order), then `CellGrid::merge_named` and `grid_output`.  Its observer
//! records each cell's runner-measured wall time and worker.  A traced round
//! runs the same steps through `run_cells_sourced_observed`, so that the
//! instruction source can be wrapped in a timer.

use crate::clock;
use crate::laws::broken_laws;
use crate::spans::{self, Capture, SpanLog, TimedSource};
use prestage_sim::{
    grid_output, live_source, run_cells_sourced_observed, run_spec_cells_observed, CellGrid,
    CellResult, Engine, ExperimentSpec, SimStats, SweepCell,
};
use prestage_workload::{read_trace, replay_shared, DynInst, InstSource, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Pool width: fixed, never read from the host, so runs on hosts with a
/// different core count still measure the same load.
pub const THREADS: usize = 2;

/// Never set: rounds run every cell.
static RUN_TO_END: AtomicBool = AtomicBool::new(false);

/// Everything set-up produces: the spec texts a round parses and the
/// workloads (built once) that set-up records traces from and the kernels
/// replay.
pub struct Plan {
    pub spec_texts: Vec<String>,
    pub workloads: Vec<Workload>,
    /// Per spec, its bench index → index into `workloads`.
    pub bench_map: Vec<Vec<usize>>,
}

/// One evaluated cell, as the runner's observer saw it.
pub struct CellRun {
    pub spec: usize,
    /// Position in its spec's grid.
    pub flat: usize,
    pub cell: SweepCell,
    pub stats: SimStats,
    /// Simulated instructions, warm-up included.
    pub insts: u64,
    /// The runner's own timing of the cell (`CellResult::wall`): engine
    /// construction plus run.
    pub wall_ns: u64,
    /// [`clock::now`] reading when the cell finished.
    pub end: u64,
    /// Aggregated `next_stream` time and calls (traced rounds only).
    pub trace_ns: u64,
    pub streams: u64,
    pub worker: ThreadId,
}

impl CellRun {
    pub fn start(&self) -> u64 {
        self.end.saturating_sub(self.wall_ns)
    }
}

pub struct Round {
    pub wall_ns: u64,
    /// Per spec: the artifact, or `None` when the round panicked.
    pub artifacts: Vec<Option<String>>,
    /// Cells in (spec, grid position) order.
    pub cells: Vec<CellRun>,
    pub attempted: u64,
    /// Cells that panicked, wedged or broke a conservation law.
    pub failed: u64,
    pub emit_ns: u64,
    pub self_ns: u64,
}

/// How a round feeds each cell's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Whatever the spec says: live generation, or disk replay when the
    /// spec names a trace directory.
    AsSpecified,
    /// Live generation even for replaying specs (the replay-equality check).
    Live,
}

/// Parse and validate every spec of the plan (the "spec in" step), with
/// the pool width pinned to [`THREADS`].
pub fn parse_specs(texts: &[String]) -> Result<Vec<ExperimentSpec>, String> {
    texts
        .iter()
        .map(|t| {
            let spec = ExperimentSpec {
                threads: Some(THREADS),
                ..ExperimentSpec::from_json(t)?
            };
            spec.validate()?;
            Ok(spec)
        })
        .collect()
}

/// Run every spec of the plan once and render and check the artifacts.
/// With `log`, spans are recorded and instruction delivery is timed per
/// cell.  A panic anywhere in the round (a wedged cell included) counts
/// every cell of the round as failed.
pub fn run_round(plan: &Plan, feed: Feed, log: Option<&SpanLog>) -> Result<Round, String> {
    let t0 = clock::now();
    let sweep_id = log.map(SpanLog::new_id);
    let mut specs = parse_specs(&plan.spec_texts)?;
    if feed == Feed::Live {
        for s in &mut specs {
            s.trace = None;
        }
    }
    let grids = specs
        .iter()
        .map(CellGrid::from_spec)
        .collect::<Result<Vec<_>, _>>()?;
    let t_parsed = clock::now();
    let attempted: u64 = grids.iter().map(|g| g.n_cells() as u64).sum();

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut cells = Vec::new();
        let mut artifacts = Vec::new();
        let mut emit_ns = 0;
        for (s, (spec, grid)) in specs.iter().zip(&grids).enumerate() {
            let results = match (log, sweep_id) {
                (Some(log), Some(id)) => run_traced(spec, grid, s, log, id, &mut cells)?,
                _ => run_untraced(spec, grid, s, &mut cells)?,
            };
            let names = spec.bench_names()?;
            let t_emit = clock::now();
            let artifact = grid_output(spec, &grid.merge_named(results, &names));
            let t_emitted = clock::now();
            emit_ns += t_emitted - t_emit;
            if let (Some(log), Some(id)) = (log, sweep_id) {
                log.record(log.new_id(), Some(id), "spec.emit", None, t_emit, t_emitted);
            }
            artifacts.push(Some(artifact));
        }
        Ok::<_, String>((cells, artifacts, emit_ns))
    }));
    let (mut cells, artifacts, emit_ns, failed) = match outcome {
        Ok(done) => {
            let (cells, artifacts, emit_ns) = done?;
            let broken = cells
                .iter()
                .filter(|c: &&CellRun| !broken_laws(&c.stats).is_empty())
                .count() as u64;
            (cells, artifacts, emit_ns, broken)
        }
        Err(_) => {
            eprintln!("perfbench: a round panicked; all its cells count as failed");
            (Vec::new(), vec![None; specs.len()], 0, attempted)
        }
    };
    cells.sort_by_key(|c| (c.spec, c.flat));
    let t_end = clock::now();
    let mut self_ns = 0;
    if let (Some(log), Some(id)) = (log, sweep_id) {
        log.record(log.new_id(), Some(id), "spec.parse", None, t0, t_parsed);
        log.record(id, None, "sweep", None, t0, t_end);
        self_ns = log.self_time_of(id);
    }
    Ok(Round {
        wall_ns: t_end - t0,
        artifacts,
        cells,
        attempted,
        failed,
        emit_ns,
        self_ns,
    })
}

/// The id a cell's spans share: its spec and grid position.
fn cell_id(spec: usize, flat: usize) -> u64 {
    ((spec as u64) << 32) | flat as u64
}

/// Collects one [`CellRun`] per finished cell, on whichever worker ran it.
struct Observed<'a> {
    spec: usize,
    grid: &'a CellGrid,
    insts: u64,
    runs: Mutex<Vec<CellRun>>,
}

impl Observed<'_> {
    /// Record a finished cell; returns its span and its id, unique in the
    /// round.
    fn push(&self, r: &CellResult, trace_ns: u64, streams: u64) -> (u64, u64, u64) {
        let end = clock::now();
        // The runner only hands back cells of the grid it was given.
        let flat = self.grid.index_of(&r.cell).unwrap_or(usize::MAX);
        let run = CellRun {
            spec: self.spec,
            flat,
            cell: r.cell,
            stats: r.stats,
            insts: self.insts,
            wall_ns: r.wall.as_nanos() as u64,
            end,
            trace_ns,
            streams,
            worker: std::thread::current().id(),
        };
        let span = (run.start(), end, cell_id(self.spec, flat));
        self.runs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(run);
        span
    }
}

fn observed<'a>(spec: &ExperimentSpec, grid: &'a CellGrid, s: usize) -> Observed<'a> {
    Observed {
        spec: s,
        grid,
        insts: spec.warmup_insts.saturating_add(spec.measure_insts),
        runs: Mutex::new(Vec::new()),
    }
}

/// One spec exactly as the program's runner runs it.
fn run_untraced(
    spec: &ExperimentSpec,
    grid: &CellGrid,
    s: usize,
    out: &mut Vec<CellRun>,
) -> Result<Vec<CellResult>, String> {
    let obs = observed(spec, grid, s);
    let results = run_spec_cells_observed(
        spec,
        &grid.cells(),
        &|r| {
            obs.push(r, 0, 0);
        },
        &RUN_TO_END,
    )?;
    out.extend(obs.runs.into_inner().unwrap_or_else(|e| e.into_inner()));
    Ok(results)
}

/// The same steps as [`run_untraced`], spelled out so the instruction
/// source can be timed: build the workloads, decode each replay trace once
/// (the program's in-memory path), run the cells on the program's executor.
fn run_traced(
    spec: &ExperimentSpec,
    grid: &CellGrid,
    s: usize,
    log: &SpanLog,
    sweep: u64,
    out: &mut Vec<CellRun>,
) -> Result<Vec<CellResult>, String> {
    let t0 = clock::now();
    let workloads = spec.build_workloads()?;
    let t_built = clock::now();
    log.record(
        log.new_id(),
        Some(sweep),
        "workload.build",
        None,
        t0,
        t_built,
    );
    let traces: Option<Vec<Arc<Vec<DynInst>>>> = match spec.trace_paths()? {
        None => None,
        Some(paths) => {
            let mut loaded = Vec::with_capacity(paths.len());
            for path in &paths {
                let file = std::fs::File::open(path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                let records = read_trace(std::io::BufReader::new(file))
                    .map_err(|e| format!("trace {} is corrupt: {e}", path.display()))?;
                loaded.push(Arc::new(records));
            }
            log.record(
                log.new_id(),
                Some(sweep),
                "trace.load",
                None,
                t_built,
                clock::now(),
            );
            Some(loaded)
        }
    };
    let obs = observed(spec, grid, s);
    let results = run_cells_sourced_observed(
        &grid.cells(),
        &workloads,
        |c| spec.sim_config(c.preset, c.l1),
        spec.resolved_threads(),
        spec.predictor,
        |c, w| timed_source(c, w, traces.as_deref()),
        &|r| {
            let (trace_ns, streams) = spans::finish_cell();
            let (start, end, cell_id) = obs.push(r, trace_ns, streams);
            log.record(
                log.new_id(),
                Some(sweep),
                "engine.run",
                Some(cell_id),
                start,
                end,
            );
        },
        &RUN_TO_END,
    );
    out.extend(obs.runs.into_inner().unwrap_or_else(|e| e.into_inner()));
    Ok(results)
}

/// A traced cell's committed-path source: the program's live generator,
/// or a replay of the shared decode, behind a [`TimedSource`].
fn timed_source<'w>(
    c: &SweepCell,
    w: &'w Workload,
    traces: Option<&[Arc<Vec<DynInst>>]>,
) -> Box<dyn InstSource + 'w> {
    spans::start_cell();
    let inner: Box<dyn InstSource + 'w> = match traces {
        None => live_source(c, w),
        Some(t) => Box::new(replay_shared(t[c.bench_idx].clone(), w.profile.name)),
    };
    Box::new(TimedSource { inner })
}

/// Time `Engine::with_source` alone for every cell of the plan (the engine
/// is dropped untimed), recording an `engine.new` span per cell.  Returns
/// the nanoseconds of each construction.
pub fn construct_cells(plan: &Plan, log: &SpanLog) -> Result<Vec<u64>, String> {
    let specs = parse_specs(&plan.spec_texts)?;
    let mut out = Vec::new();
    for (s, spec) in specs.iter().enumerate() {
        let grid = CellGrid::from_spec(spec)?;
        for (flat, cell) in grid.cells().into_iter().enumerate() {
            let w = &plan.workloads[plan.bench_map[s][cell.bench_idx]];
            let cfg = spec.sim_config(cell.preset, cell.l1);
            let src = live_source(&cell, w);
            let t0 = clock::now();
            let engine = Engine::with_source(cfg, w, src, spec.predictor);
            let t1 = clock::now();
            drop(engine);
            log.record(
                log.new_id(),
                None,
                "engine.new",
                Some(cell_id(s, flat)),
                t0,
                t1,
            );
            out.push(t1 - t0);
        }
    }
    Ok(out)
}

/// Run one cell again on this thread with every stream the engine pulls
/// captured, for the per-layer kernels.  The stream is generated live:
/// replay equals live generation, which every `mech-tlb` run checks.
pub fn capture_cell(
    plan: &Plan,
    spec: &ExperimentSpec,
    s: usize,
    cell: SweepCell,
) -> (SimStats, Capture) {
    let w = &plan.workloads[plan.bench_map[s][cell.bench_idx]];
    spans::start_capture();
    let src = TimedSource {
        inner: live_source(&cell, w),
    };
    let cfg = spec.sim_config(cell.preset, cell.l1);
    let stats = Engine::with_source(cfg, w, Box::new(src), spec.predictor).run();
    (stats, spans::take_capture())
}
