//! The experiment API: one serializable value that fully describes an
//! experiment.
//!
//! The paper's evaluation is a fixed matrix of named configurations
//! (§5.1's presets × tech nodes × L1 sizes × SPECint2000 benchmarks).
//! [`ExperimentSpec`] is that matrix as a plain value: every knob a run
//! needs — axes, run lengths, seeds, pool width, predictor — in one struct
//! that round-trips through JSON and therefore crosses process (and host)
//! boundaries unchanged.  Everything above it is derived:
//!
//! * [`CellGrid::from_spec`] turns a spec into the flat cell grid the
//!   work-stealing pool executes;
//! * [`run_spec`] runs the whole grid in-process and returns ordered
//!   `[preset][size]` rows;
//! * [`run_spec_cells`] runs an arbitrary cell slice — the unit the
//!   `prestage shard` CLI distributes across processes — and
//!   [`ShardFile`] is its serialized output, reassembled bit-exactly by
//!   `prestage merge` via [`CellGrid::merge_named`];
//! * [`grid_output`] renders merged rows deterministically, so a merged
//!   multi-process run and a single-process run of the same spec produce
//!   byte-identical artifacts.
//!
//! The `PRESTAGE_*` environment variables survive only as an *override
//! layer*: [`ExperimentSpec::env_overrides`] folds them onto an existing
//! spec, and this module is the single place in the workspace where they
//! are parsed (malformed values abort with the variable name, per the
//! loud-parsing policy).

use crate::config::{ConfigPreset, SimConfig};
use crate::engine::PredictorKind;
use prestage_core::{ITlbConfig, InsertionPolicy, PrefetcherKind};
use crate::runner::{
    default_threads, live_source, run_cells_sourced_observed, CellGrid, CellResult,
    GridResult, SweepCell,
};
use crate::stats::SimStats;
use prestage_cacti::TechNode;
use prestage_json::{Counter, Json};
use prestage_workload::{
    build, replay_file_trusted, replay_shared, specint2000, BenchmarkProfile, DynInst,
    Workload,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// The paper's L1 I-cache sweep axis: 256 B … 64 KB.
pub const L1_SIZES: [usize; 9] = [
    256,
    512,
    1 << 10,
    2 << 10,
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
];

/// Schema version of every JSON artifact this module writes.  Schema 2
/// added the `trace` field; schema 3 added the `prefetcher` mechanism
/// override; schema 4 added the memory-system model fields `itlb` and
/// `insertion`.  Spec files of earlier schemas still parse, with the
/// fields they predate defaulting (`trace` → live generation,
/// `prefetcher` → each preset's own mechanism, `itlb` → free translation,
/// `insertion` → each mechanism's own policy).
pub const SPEC_SCHEMA: u64 = 4;

/// Run-ahead slack `prestage trace record` captures beyond
/// `warmup + measure`: the decoupled front-end pulls streams ahead of
/// commit (fetch queue + decode buffer + RUU, at most a few thousand
/// instructions), so recordings carry a generous margin.  A replay that
/// still runs dry panics rather than returning results from a partial
/// trace.
pub const TRACE_RECORD_SLACK: u64 = 16_384;

/// Budget for holding *decoded* traces in memory during a replayed sweep.
/// Traces are verified once per process either way; within the budget the
/// verification pass also materialises the records, so every cell of a
/// benchmark replays one shared in-memory decode (no per-cell I/O, decode
/// or hashing).  Beyond it, cells fall back to streaming the file at
/// constant memory — bit-exact either way, just slower per cell.
pub const TRACE_INMEM_BUDGET_BYTES: u64 = 512 << 20;

/// One benchmark's vetted replay source.
#[derive(Debug, Clone)]
enum ReplaySource {
    /// Decoded during verification; cells replay the shared `Arc`.
    InMemory(Arc<Vec<DynInst>>, PathBuf),
    /// Over the in-memory budget: cells stream the file (trusted — the
    /// verification pass already proved these exact bytes clean).
    Streamed(PathBuf),
}


/// Where a spec's pre-recorded traces live: a directory holding one v2
/// trace per benchmark, named by [`TraceSource::file_name`].  Execution
/// detail, not experiment identity — [`grid_output`] clears it (like
/// `threads`), so a replayed run's artifacts are byte-identical to the
/// live-generation run it mirrors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSource {
    /// Directory of recorded traces (relative paths resolve against the
    /// process's working directory, like every other CLI path).
    pub dir: String,
}

impl TraceSource {
    /// Canonical file name for one recorded `(profile, seeds)` trace.
    pub fn file_name(profile: &str, workload_seed: u64, exec_seed: u64) -> String {
        format!("{profile}-w{workload_seed}-x{exec_seed}.pstr")
    }

    /// Full path of the trace for `(profile, seeds)` under this source.
    pub fn trace_path(&self, profile: &str, workload_seed: u64, exec_seed: u64) -> PathBuf {
        Path::new(&self.dir).join(Self::file_name(profile, workload_seed, exec_seed))
    }
}

/// A complete, serializable description of one experiment.
///
/// This is the *only* way experiments are configured: declared figures
/// are one each, the CLI loads one from JSON, and the environment can only
/// override fields through [`ExperimentSpec::env_overrides`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Configuration presets (grid rows), figure-legend order.
    pub presets: Vec<ConfigPreset>,
    /// Technology node the whole grid runs at.
    pub tech: TechNode,
    /// L1 I-cache capacities in bytes (grid columns).
    pub l1_sizes: Vec<usize>,
    /// Benchmark filter: `None` = the full SPECint2000 set, `Some` = an
    /// explicit ordered subset (unknown names are a loud error).
    pub bench: Option<Vec<String>>,
    /// Warm-up instructions per run.
    pub warmup_insts: u64,
    /// Measured instructions per run.
    pub measure_insts: u64,
    /// Workload *generation* seed.
    pub workload_seed: u64,
    /// Engine *execution* seed (wrong-path / arbitration jitter),
    /// deliberately independent of [`workload_seed`](Self::workload_seed).
    pub exec_seed: u64,
    /// Worker threads for the sweep pool; `None` = available parallelism.
    /// The one field that may legitimately differ between hosts — it never
    /// affects results (cells are bit-exact for any pool width).
    pub threads: Option<usize>,
    /// Fetch-block predictor driving the decoupled front-end.
    pub predictor: PredictorKind,
    /// Committed-path source: `None` generates every cell's trace live;
    /// `Some` replays pre-recorded traces from disk (one per benchmark,
    /// shared by all cells that need it — record once, replay everywhere).
    pub trace: Option<TraceSource>,
    /// Prefetch-mechanism override: `None` leaves each preset its own
    /// engine (FDP presets run FDP, CLGP presets run CLGP); `Some(kind)`
    /// swaps the mechanism under every preset — the spec-field delivery
    /// path for the MANA / program-map comparisons (`"mana"`,
    /// `"progmap"`, or any other [`PrefetcherKind`] id).  Experiment
    /// identity: it changes results, so shards produced under different
    /// prefetcher ids refuse to merge.
    pub prefetcher: Option<PrefetcherKind>,
    /// Instruction-TLB model: `None` keeps translation free (the paper's
    /// implicit assumption, and bit-identical to pre-TLB artifacts);
    /// `Some` threads every fetched or prefetched address through an
    /// i-TLB whose misses charge a page-walk latency.  Experiment
    /// identity: shards produced under different TLB models refuse to
    /// merge, by name.
    pub itlb: Option<ITlbConfig>,
    /// Prefetch-fill insertion override (`"mru"`, `"lru"`, `"bypass"`):
    /// `None` leaves each mechanism its own policy.  Experiment identity.
    pub insertion: Option<InsertionPolicy>,
}

impl Default for ExperimentSpec {
    /// The paper's full evaluation matrix at the far-future node: every
    /// preset × every L1 size × all twelve benchmarks, §5.1 run lengths.
    fn default() -> ExperimentSpec {
        ExperimentSpec {
            presets: ConfigPreset::all().to_vec(),
            tech: TechNode::T045,
            l1_sizes: L1_SIZES.to_vec(),
            bench: None,
            warmup_insts: 200_000,
            measure_insts: 1_000_000,
            workload_seed: 42,
            exec_seed: 42,
            threads: None,
            predictor: PredictorKind::Stream,
            trace: None,
            prefetcher: None,
            itlb: None,
            insertion: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The environment override layer — the single place `PRESTAGE_*` variables
// are read.
// ---------------------------------------------------------------------------

/// Parse an env-var value, failing loudly on malformed input: a typo'd
/// `PRESTAGE_MEASURE=1e6` must abort, not silently run the default length.
/// Empty/whitespace values count as unset.
fn parse_env_u64(name: &str, value: Option<&str>, default: u64) -> u64 {
    match value.map(str::trim) {
        None | Some("") => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            panic!(
                "{name} must be an unsigned integer, got {v:?} \
                 (write e.g. {name}=1000000; scientific notation is not supported)"
            )
        }),
    }
}

fn std_env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// The `PRESTAGE_THREADS` override, if set (empty counts as unset).
/// Panics on malformed values rather than silently running serial.  Also
/// consulted by [`crate::runner::pool_threads`] for the non-spec entry
/// points, so the variable has exactly one parser.
pub(crate) fn threads_override() -> Option<usize> {
    parse_threads(std_env("PRESTAGE_THREADS").as_deref())
}

fn parse_threads(value: Option<&str>) -> Option<usize> {
    match value.map(str::trim) {
        None | Some("") => None,
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => panic!("PRESTAGE_THREADS must be a positive integer, got {t:?}"),
        },
    }
}

impl ExperimentSpec {
    /// The default matrix with every `PRESTAGE_*` override applied — the
    /// spec the study binaries run when the environment says nothing.
    pub fn from_env() -> ExperimentSpec {
        ExperimentSpec::default().env_overrides()
    }

    /// Fold the `PRESTAGE_*` environment variables over this spec:
    /// `PRESTAGE_WARMUP`, `PRESTAGE_MEASURE`, `PRESTAGE_SEED`,
    /// `PRESTAGE_EXEC_SEED`, `PRESTAGE_BENCH` (comma-separated filter) and
    /// `PRESTAGE_THREADS`.  Unset (or empty) variables leave the spec
    /// field untouched; malformed values abort with the variable name.
    ///
    /// The experiment axes (presets, tech, sizes, predictor) have no env
    /// form on purpose: changing *what* is measured is a spec edit, not a
    /// shell prefix.
    pub fn env_overrides(self) -> ExperimentSpec {
        self.env_overrides_with(std_env)
    }

    /// [`env_overrides`](Self::env_overrides) with an injectable lookup
    /// (tests override without mutating process-global state).
    fn env_overrides_with(mut self, get: impl Fn(&str) -> Option<String>) -> ExperimentSpec {
        let u64_of = |name: &str, current: u64| {
            parse_env_u64(name, get(name).as_deref(), current)
        };
        self.warmup_insts = u64_of("PRESTAGE_WARMUP", self.warmup_insts);
        self.measure_insts = u64_of("PRESTAGE_MEASURE", self.measure_insts);
        self.workload_seed = u64_of("PRESTAGE_SEED", self.workload_seed);
        self.exec_seed = u64_of("PRESTAGE_EXEC_SEED", self.exec_seed);
        if let Some(v) = get("PRESTAGE_BENCH") {
            if !v.trim().is_empty() {
                self.bench = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
        }
        if let Some(t) = parse_threads(get("PRESTAGE_THREADS").as_deref()) {
            self.threads = Some(t);
        }
        self
    }

    // -----------------------------------------------------------------------
    // Derived views.
    // -----------------------------------------------------------------------

    /// Check every invariant the runner assumes.  All spec consumers call
    /// this before running; the error strings are user-facing.
    pub fn validate(&self) -> Result<(), String> {
        if self.presets.is_empty() {
            return Err("spec has no presets".into());
        }
        for (i, p) in self.presets.iter().enumerate() {
            if self.presets[..i].contains(p) {
                return Err(format!("duplicate preset {:?} in spec", p.id()));
            }
        }
        if self.l1_sizes.is_empty() {
            return Err("spec has no L1 sizes".into());
        }
        for (i, s) in self.l1_sizes.iter().enumerate() {
            if self.l1_sizes[..i].contains(s) {
                return Err(format!("duplicate L1 size {s} in spec"));
            }
            if *s < 64 {
                return Err(format!("L1 size {s} is smaller than one 64B line"));
            }
            if !s.is_power_of_two() {
                return Err(format!(
                    "l1_sizes entry {s} is not a power of two — cache sets \
                     are mask-indexed and a non-power-of-two capacity would \
                     silently alias addresses"
                ));
            }
        }
        // Every (preset, size) cell's derived configuration must satisfy
        // the storage-sizing invariants (mask-indexed prefetcher tables
        // included) *before* anything is constructed.
        for &p in &self.presets {
            for &l1 in &self.l1_sizes {
                self.sim_config(p, l1)
                    .validate()
                    .map_err(|e| format!("preset {:?} at L1 {l1}: {e}", p.id()))?;
            }
        }
        if self.measure_insts == 0 {
            return Err("measure_insts must be at least 1".into());
        }
        // Found by the fuzz harness: the replay-length check sums the two
        // run lengths, so a spec whose sum wraps u64 would panic (debug) or
        // silently under-demand trace instructions (release).
        if self.warmup_insts.checked_add(self.measure_insts).is_none() {
            return Err(format!(
                "warmup_insts {} + measure_insts {} overflows u64 — no run is that long",
                self.warmup_insts, self.measure_insts
            ));
        }
        if self.threads == Some(0) {
            return Err("threads must be at least 1 (or null for auto)".into());
        }
        if let Some(t) = &self.trace {
            if t.dir.trim().is_empty() {
                return Err("trace dir is empty (use null for live generation)".into());
            }
        }
        self.bench_profiles().map(|_| ())
    }

    /// Instructions `prestage trace record` captures per benchmark for
    /// this spec: the run length plus [`TRACE_RECORD_SLACK`] of front-end
    /// run-ahead.
    pub fn trace_record_insts(&self) -> u64 {
        self.warmup_insts
            .saturating_add(self.measure_insts)
            .saturating_add(TRACE_RECORD_SLACK)
    }

    /// The per-benchmark trace files this spec replays (spec bench order),
    /// or `None` for live generation.  Pure path arithmetic, no I/O.
    pub fn trace_paths(&self) -> Result<Option<Vec<PathBuf>>, String> {
        let Some(src) = &self.trace else {
            return Ok(None);
        };
        Ok(Some(
            self.bench_names()?
                .iter()
                .map(|n| src.trace_path(n, self.workload_seed, self.exec_seed))
                .collect(),
        ))
    }

    /// Open `path` and check its header against this spec: identity
    /// (profile, both seeds) and at least `warmup + measure` instructions.
    /// Errors name the file and the mismatching field — replaying the
    /// wrong trace must be impossible, not merely unlikely.
    fn vet_trace(
        &self,
        path: &Path,
        name: &str,
    ) -> Result<prestage_workload::TraceReader<std::io::BufReader<std::fs::File>>, String> {
        let reader = prestage_workload::open_trace(path).map_err(|e| {
            format!("{e} — record it first: `prestage trace record <spec> --out <dir>`")
        })?;
        let h = reader.header();
        let meta = &h.meta;
        if meta.profile != name {
            return Err(format!(
                "trace {} was recorded from benchmark {:?}, spec expects {name:?}",
                path.display(),
                meta.profile
            ));
        }
        if meta.workload_seed != self.workload_seed {
            return Err(format!(
                "trace {} was recorded with workload seed {}, spec uses {}",
                path.display(),
                meta.workload_seed,
                self.workload_seed
            ));
        }
        if meta.exec_seed != self.exec_seed {
            return Err(format!(
                "trace {} was recorded with exec seed {}, spec uses {}",
                path.display(),
                meta.exec_seed,
                self.exec_seed
            ));
        }
        // Saturating: validate() rejects overflowing run lengths, but this
        // path is also reachable via `resolve_traces` on an unvalidated
        // spec and must not panic on hostile input.
        let needed = self.warmup_insts.saturating_add(self.measure_insts);
        if h.count < needed {
            return Err(format!(
                "trace {} holds {} instructions but the spec runs {needed} \
                 (warmup {} + measure {}) — re-record with the current run lengths",
                path.display(),
                h.count,
                self.warmup_insts,
                self.measure_insts
            ));
        }
        Ok(reader)
    }

    /// Resolve and *vet* the replay traces for every benchmark: identity
    /// and length against this spec, then one streaming pass over each
    /// file (every chunk CRC, every record) at constant memory.
    pub fn resolve_traces(&self) -> Result<Option<Vec<PathBuf>>, String> {
        let Some(paths) = self.trace_paths()? else {
            return Ok(None);
        };
        for (path, name) in paths.iter().zip(self.bench_names()?) {
            let mut reader = self.vet_trace(path, name)?;
            if let Some(e) = reader.by_ref().find_map(|r| r.err()) {
                return Err(format!("trace {} is corrupt: {e}", path.display()));
            }
        }
        Ok(Some(paths))
    }

    /// The vet-and-load pass behind the spec runners: verify and load only
    /// the benchmarks `cells` actually references (a shard of a 12-bench
    /// spec must not pay for — or spend in-memory budget on — the other
    /// eleven traces), returning one slot per spec benchmark (`None` for
    /// the unreferenced ones).
    ///
    /// Verification happens here, *once per process*; the sweep cells then
    /// replay a shared in-memory decode (within
    /// [`TRACE_INMEM_BUDGET_BYTES`]) or a trusted re-stream of the proven
    /// bytes, never re-verifying per cell.
    fn replay_sources(
        &self,
        cells: &[SweepCell],
    ) -> Result<Option<Vec<Option<ReplaySource>>>, String> {
        let Some(paths) = self.trace_paths()? else {
            return Ok(None);
        };
        let mut used = vec![false; paths.len()];
        for c in cells {
            if let Some(u) = used.get_mut(c.bench_idx) {
                *u = true;
            }
        }
        let mut budget = TRACE_INMEM_BUDGET_BYTES;
        let mut sources = Vec::with_capacity(paths.len());
        for ((path, name), used) in paths.into_iter().zip(self.bench_names()?).zip(used) {
            if !used {
                sources.push(None);
                continue;
            }
            let mut reader = self.vet_trace(&path, name)?;
            // One full pass: CRCs, record structure, count — and, within
            // the memory budget, the decode every cell will share.
            let declared = reader.header().count;
            let decoded_bytes = declared.saturating_mul(std::mem::size_of::<DynInst>() as u64);
            let corrupt =
                |e: std::io::Error| format!("trace {} is corrupt: {e}", path.display());
            if decoded_bytes <= budget {
                // The declared count routes between in-memory and
                // streaming, but is never trusted for allocation (a CRC is
                // not a MAC): capacity is clamped and the vector grows
                // only as records actually decode.
                let mut records = Vec::with_capacity(declared.min(1 << 16) as usize);
                for r in reader.by_ref() {
                    records.push(r.map_err(corrupt)?);
                }
                budget -= decoded_bytes;
                sources.push(Some(ReplaySource::InMemory(Arc::new(records), path)));
            } else {
                if let Some(e) = reader.by_ref().find_map(|r| r.err()) {
                    return Err(corrupt(e));
                }
                sources.push(Some(ReplaySource::Streamed(path)));
            }
        }
        Ok(Some(sources))
    }

    /// Resolve the benchmark filter to profiles, in *filter order* (or the
    /// canonical SPECint2000 order when no filter is set).
    ///
    /// An unknown or duplicate name fails with the full list of valid
    /// names — a typo must not silently shrink the workload set.
    pub fn bench_profiles(&self) -> Result<Vec<BenchmarkProfile>, String> {
        let all = specint2000();
        let Some(filter) = &self.bench else {
            return Ok(all);
        };
        if filter.is_empty() {
            return Err("bench filter is empty — it matches no benchmarks \
                        (use null for the full set)"
                .into());
        }
        let mut out = Vec::with_capacity(filter.len());
        for name in filter {
            if out.iter().any(|p: &BenchmarkProfile| p.name == name) {
                return Err(format!("benchmark {name:?} listed twice in the filter"));
            }
            match all.iter().find(|p| p.name == name) {
                Some(p) => out.push(p.clone()),
                None => {
                    let valid: Vec<&str> = all.iter().map(|p| p.name).collect();
                    return Err(format!(
                        "unknown benchmark {name:?}; valid names: {}",
                        valid.join(", ")
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Resolved benchmark names (the grid's innermost axis labels).
    pub fn bench_names(&self) -> Result<Vec<&'static str>, String> {
        Ok(self.bench_profiles()?.iter().map(|p| p.name).collect())
    }

    /// Build the workload set (the expensive step: static program
    /// synthesis per benchmark, seeded by
    /// [`workload_seed`](Self::workload_seed)).
    pub fn build_workloads(&self) -> Result<Vec<Workload>, String> {
        Ok(self
            .bench_profiles()?
            .iter()
            .map(|p| build(p, self.workload_seed))
            .collect())
    }

    /// The full simulator configuration for one (preset, L1 size) grid
    /// point of this spec: the preset's shape, the spec's run lengths,
    /// and — when the spec carries a `prefetcher` override — the swapped
    /// prefetch mechanism.
    pub fn sim_config(&self, preset: ConfigPreset, l1: usize) -> SimConfig {
        let cfg = SimConfig::preset(preset, self.tech, l1)
            .with_insts(self.warmup_insts, self.measure_insts)
            .with_itlb(self.itlb)
            .with_insertion(self.insertion);
        match self.prefetcher {
            Some(kind) => cfg.with_prefetcher(kind),
            None => cfg,
        }
    }

    /// Resolved pool width.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// This spec with the host-local execution fields cleared: `threads`
    /// (pool width) and `trace` (committed-path source) never change
    /// results, so the portable form is the spec's *result identity* —
    /// [`grid_output`] embeds it, `prestage merge` compares shard specs
    /// through it, and the serve cache keys sweeps by its canonical JSON.
    pub fn portable(&self) -> ExperimentSpec {
        ExperimentSpec {
            threads: None,
            trace: None,
            ..self.clone()
        }
    }

    // -----------------------------------------------------------------------
    // JSON round-trip.
    // -----------------------------------------------------------------------

    pub fn to_json_value(&self) -> Json {
        // Exhaustive destructuring: adding a spec field without extending
        // the codec must not compile.
        let ExperimentSpec {
            presets,
            tech,
            l1_sizes,
            bench,
            warmup_insts,
            measure_insts,
            workload_seed,
            exec_seed,
            threads,
            predictor,
            trace,
            prefetcher,
            itlb,
            insertion,
        } = self;
        Json::obj([
            ("schema", SPEC_SCHEMA.into()),
            (
                "presets",
                Json::Arr(presets.iter().map(|p| p.id().into()).collect()),
            ),
            ("tech", tech.id().into()),
            (
                "l1_sizes",
                Json::Arr(l1_sizes.iter().map(|&s| s.into()).collect()),
            ),
            (
                "bench",
                match bench {
                    None => Json::Null,
                    Some(names) => {
                        Json::Arr(names.iter().map(|n| n.as_str().into()).collect())
                    }
                },
            ),
            ("warmup_insts", (*warmup_insts).into()),
            ("measure_insts", (*measure_insts).into()),
            ("workload_seed", (*workload_seed).into()),
            ("exec_seed", (*exec_seed).into()),
            ("threads", (*threads).into()),
            ("predictor", predictor.id().into()),
            (
                "trace",
                match trace {
                    None => Json::Null,
                    Some(t) => Json::obj([("dir", t.dir.as_str().into())]),
                },
            ),
            (
                "prefetcher",
                match prefetcher {
                    None => Json::Null,
                    Some(k) => k.id().into(),
                },
            ),
            (
                "itlb",
                match itlb {
                    None => Json::Null,
                    Some(t) => Json::obj([
                        ("entries", t.entries.into()),
                        ("assoc", t.assoc.into()),
                        ("page_bytes", t.page_bytes.into()),
                        ("miss_cycles", t.miss_cycles.into()),
                    ]),
                },
            ),
            (
                "insertion",
                match insertion {
                    None => Json::Null,
                    Some(p) => p.id().into(),
                },
            ),
        ])
    }

    /// Serialize as pretty JSON (the on-disk spec-file format).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Parse a spec from a JSON value.  Strict: every field must be
    /// present, unknown keys are rejected (a misspelled `"warmupinsts"`
    /// must not silently fall back to the default run length).
    // Schemas 1–3 stay readable: serve journals written by older builds
    // carry them (replayed by `prestage_serve`'s journal loader).
    pub fn from_json_value(v: &Json) -> Result<ExperimentSpec, String> {
        let keys = v
            .keys()
            .ok_or_else(|| "spec must be a JSON object".to_string())?;
        const KNOWN: [&str; 15] = [
            "schema",
            "presets",
            "tech",
            "l1_sizes",
            "bench",
            "warmup_insts",
            "measure_insts",
            "workload_seed",
            "exec_seed",
            "threads",
            "predictor",
            "trace",
            "prefetcher",
            "itlb",
            "insertion",
        ];
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("schema must be an integer")?;
        if schema == 0 || schema > SPEC_SCHEMA {
            return Err(format!(
                "spec schema {schema} not supported (this build reads schemas 1..={SPEC_SCHEMA})"
            ));
        }
        // `trace` arrived with schema 2, `prefetcher` with schema 3, and
        // `itlb`/`insertion` with schema 4; a file of an earlier schema
        // both may and must omit the later fields (strictness per schema:
        // no field is ever silently ignored, none is silently defaulted
        // within its own schema).
        let known: &[&str] = match schema {
            1 => &KNOWN[..11],
            2 => &KNOWN[..12],
            3 => &KNOWN[..13],
            _ => &KNOWN,
        };
        for k in &keys {
            if !known.contains(k) {
                return Err(format!(
                    "unknown spec field {k:?} (valid fields for schema {schema}: {})",
                    known.join(", ")
                ));
            }
        }
        for k in known {
            if !keys.contains(k) {
                return Err(format!("spec is missing field {k:?}"));
            }
        }
        let presets = v
            .get("presets")
            .and_then(Json::as_arr)
            .ok_or("presets must be an array")?
            .iter()
            .map(|p| {
                let id = p.as_str().ok_or("presets entries must be strings")?;
                ConfigPreset::from_id(id).ok_or_else(|| {
                    let valid: Vec<&str> =
                        ConfigPreset::all().iter().map(|p| p.id()).collect();
                    format!("unknown preset {id:?}; valid ids: {}", valid.join(", "))
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tech_id = v
            .get("tech")
            .and_then(Json::as_str)
            .ok_or("tech must be a string")?;
        let tech = TechNode::from_id(tech_id).ok_or_else(|| {
            let valid: Vec<&str> = TechNode::all().iter().map(|n| n.id()).collect();
            format!("unknown tech node {tech_id:?}; valid ids: {}", valid.join(", "))
        })?;
        let l1_sizes = v
            .get("l1_sizes")
            .and_then(Json::as_arr)
            .ok_or("l1_sizes must be an array")?
            .iter()
            .map(|s| {
                s.as_usize()
                    .ok_or_else(|| format!("bad l1_sizes entry {s:?} (bytes expected)"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let bench = match v.get("bench") {
            Some(Json::Null) => None,
            Some(Json::Arr(names)) => Some(
                names
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or("bench entries must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            _ => return Err("bench must be null or an array of names".into()),
        };
        let u64_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name} must be an unsigned integer"))
        };
        let threads = match v.get("threads") {
            Some(Json::Null) => None,
            Some(t) => Some(
                t.as_usize()
                    .ok_or("threads must be null or a positive integer")?,
            ),
            None => None,
        };
        let pred_id = v
            .get("predictor")
            .and_then(Json::as_str)
            .ok_or("predictor must be a string")?;
        let predictor = PredictorKind::from_id(pred_id)
            .ok_or_else(|| format!("unknown predictor {pred_id:?} (stream or gshare)"))?;
        let trace = match v.get("trace") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let tkeys = t
                    .keys()
                    .ok_or("trace must be null or an object {\"dir\": ...}")?;
                for k in &tkeys {
                    if *k != "dir" {
                        return Err(format!("unknown trace field {k:?} (only \"dir\")"));
                    }
                }
                let dir = t
                    .get("dir")
                    .and_then(Json::as_str)
                    .ok_or("trace.dir must be a string")?;
                Some(TraceSource {
                    dir: dir.to_string(),
                })
            }
        };
        // An unknown mechanism id must abort listing the valid set — a
        // typo'd `"prefetcher": "mnaa"` silently falling back to the
        // preset default would measure the wrong mechanism.
        let prefetcher = match v.get("prefetcher") {
            None | Some(Json::Null) => None,
            Some(p) => {
                let id = p
                    .as_str()
                    .ok_or("prefetcher must be null or a mechanism id string")?;
                Some(PrefetcherKind::from_id(id).ok_or_else(|| {
                    let valid: Vec<&str> =
                        PrefetcherKind::all().iter().map(|k| k.id()).collect();
                    format!(
                        "unknown prefetcher {id:?}; valid ids: {}",
                        valid.join(", ")
                    )
                })?)
            }
        };
        // Strict object parse for the i-TLB model: all four sizing fields
        // present, nothing else — a misspelled `"pagebytes"` must not
        // silently model 4 KiB pages.
        let itlb = match v.get("itlb") {
            None | Some(Json::Null) => None,
            Some(t) => {
                const TLB_FIELDS: [&str; 4] = ["entries", "assoc", "page_bytes", "miss_cycles"];
                let tkeys = t.keys().ok_or(
                    "itlb must be null or an object \
                     {\"entries\", \"assoc\", \"page_bytes\", \"miss_cycles\"}",
                )?;
                for k in &tkeys {
                    if !TLB_FIELDS.contains(k) {
                        return Err(format!(
                            "unknown itlb field {k:?} (valid fields: {})",
                            TLB_FIELDS.join(", ")
                        ));
                    }
                }
                for k in TLB_FIELDS {
                    if !tkeys.contains(&k) {
                        return Err(format!("itlb is missing field {k:?}"));
                    }
                }
                let tlb_usize = |name: &str| {
                    t.get(name)
                        .and_then(|f| f.as_usize())
                        .ok_or_else(|| format!("itlb.{name} must be an unsigned integer"))
                };
                let tlb_u64 = |name: &str| {
                    t.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("itlb.{name} must be an unsigned integer"))
                };
                Some(ITlbConfig {
                    entries: tlb_usize("entries")?,
                    assoc: tlb_usize("assoc")?,
                    page_bytes: tlb_u64("page_bytes")?,
                    miss_cycles: tlb_u64("miss_cycles")?,
                })
            }
        };
        let insertion = match v.get("insertion") {
            None | Some(Json::Null) => None,
            Some(p) => {
                let id = p
                    .as_str()
                    .ok_or("insertion must be null or a policy id string")?;
                Some(InsertionPolicy::from_id(id).map_err(|e| format!("spec field insertion: {e}"))?)
            }
        };
        Ok(ExperimentSpec {
            presets,
            tech,
            l1_sizes,
            bench,
            warmup_insts: u64_field("warmup_insts")?,
            measure_insts: u64_field("measure_insts")?,
            workload_seed: u64_field("workload_seed")?,
            exec_seed: u64_field("exec_seed")?,
            threads,
            predictor,
            trace,
            prefetcher,
            itlb,
            insertion,
        })
    }

    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        ExperimentSpec::from_json_value(&v)
    }
}

impl CellGrid {
    /// The flat cell grid this spec describes — the work list a single
    /// process runs whole and `prestage shard` slices.
    pub fn from_spec(spec: &ExperimentSpec) -> Result<CellGrid, String> {
        spec.validate()?;
        Ok(CellGrid::new(
            spec.presets.clone(),
            spec.tech,
            spec.l1_sizes.clone(),
            spec.bench_names()?.len(),
            spec.exec_seed,
        ))
    }
}

// ---------------------------------------------------------------------------
// Running a spec.
// ---------------------------------------------------------------------------

/// Evaluate spec cells over pre-built workloads, routing each cell's
/// committed path to the spec's source: live generation, or (when
/// `traces` is `Some`) a per-cell streaming replay of the benchmark's
/// recorded trace.  All cells of one benchmark share one trace *file* —
/// each worker streams it independently at constant memory.
fn run_spec_cells_over(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
    workloads: &[Workload],
    traces: Option<&[Option<ReplaySource>]>,
) -> Result<Vec<CellResult>, String> {
    static RUN_TO_END: AtomicBool = AtomicBool::new(false);
    run_spec_cells_observed_over(spec, cells, workloads, traces, &|_| {}, &RUN_TO_END)
}

/// [`run_spec_cells_over`] with per-cell progress and cooperative
/// cancellation (see
/// [`run_cells_sourced_observed`](crate::runner::run_cells_sourced_observed)).
fn run_spec_cells_observed_over(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
    workloads: &[Workload],
    traces: Option<&[Option<ReplaySource>]>,
    observer: &(dyn Fn(&CellResult) + Sync),
    cancel: &AtomicBool,
) -> Result<Vec<CellResult>, String> {
    let configure = |c: &SweepCell| spec.sim_config(c.preset, c.l1);
    match traces {
        None => Ok(run_cells_sourced_observed(
            cells,
            workloads,
            configure,
            spec.resolved_threads(),
            spec.predictor,
            live_source,
            observer,
            cancel,
        )),
        Some(sources) => {
            // Named rejection *before* the pool starts: every cell must
            // have a loaded replay source, so the worker closure below
            // cannot hit a missing slot mid-sweep.
            for c in cells {
                if !matches!(sources.get(c.bench_idx), Some(Some(_))) {
                    return Err(format!(
                        "cell (preset {:?}, bench index {}) has no loaded replay \
                         source — the spec's traces do not cover every bench the \
                         cells reference",
                        c.preset, c.bench_idx
                    ));
                }
            }
            let spec_seed = spec.exec_seed;
            Ok(run_cells_sourced_observed(
                cells,
                workloads,
                configure,
                spec.resolved_threads(),
                spec.predictor,
                move |c, _w| {
                    // The recorded traces embody one execution seed; a
                    // foreign-seed cell would silently replay the wrong
                    // dynamic path (live_source honours c.exec_seed).
                    assert_eq!(
                        c.exec_seed, spec_seed,
                        "cell {c:?} wants exec seed {}, but the spec's traces were \
                         recorded at {spec_seed} — replay cannot serve foreign-seed cells",
                        c.exec_seed
                    );
                    let Some(Some(source)) = sources.get(c.bench_idx) else {
                        unreachable!(
                            "bench index {} was pre-checked against the replay \
                             sources before the pool started",
                            c.bench_idx
                        )
                    };
                    match source {
                        ReplaySource::InMemory(records, path) => Box::new(replay_shared(
                            records.clone(),
                            path.display().to_string(),
                        )),
                        // Trusted: replay_sources streamed these exact
                        // bytes clean before the pool started.
                        ReplaySource::Streamed(path) => Box::new(
                            replay_file_trusted(path).unwrap_or_else(|e| {
                                panic!("cannot replay {}: {e}", path.display())
                            }),
                        ),
                    }
                },
                observer,
                cancel,
            ))
        }
    }
}

/// Evaluate an arbitrary slice of a spec's cells (a whole grid or one
/// shard) on the work-stealing pool, honouring the spec's run lengths,
/// seeds, pool width, predictor and trace source.
pub fn run_spec_cells(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
) -> Result<Vec<CellResult>, String> {
    spec.validate()?;
    let workloads = spec.build_workloads()?;
    let traces = spec.replay_sources(cells)?;
    run_spec_cells_over(spec, cells, &workloads, traces.as_deref())
}

/// [`run_spec_cells`] with per-cell progress and cooperative cancellation
/// — what a long-lived orchestrator (the `prestage serve` daemon) needs to
/// stream job counters and drain workers on shutdown.  `observer` runs on
/// the worker threads, once per completed cell; setting `cancel` makes
/// workers stop pulling new cells, and only the completed subset (in
/// input-cell order) is returned.  Completed results are bit-identical to
/// an uncancelled [`run_spec_cells`] of the same slice.
pub fn run_spec_cells_observed(
    spec: &ExperimentSpec,
    cells: &[SweepCell],
    observer: &(dyn Fn(&CellResult) + Sync),
    cancel: &AtomicBool,
) -> Result<Vec<CellResult>, String> {
    spec.validate()?;
    let workloads = spec.build_workloads()?;
    let traces = spec.replay_sources(cells)?;
    run_spec_cells_observed_over(spec, cells, &workloads, traces.as_deref(), observer, cancel)
}

/// Run the whole experiment in-process: ordered `[preset][size]` rows with
/// per-benchmark entries in spec bench order.  Errors on an invalid spec.
pub fn try_run_spec(spec: &ExperimentSpec) -> Result<Vec<Vec<GridResult>>, String> {
    try_run_spec_over(spec, &spec.build_workloads()?)
}

/// [`try_run_spec`] over pre-built workloads — for callers running several
/// derived specs over one bench set (the headline binary runs five), where
/// rebuilding the synthetic programs per call would dominate.  The
/// workloads must match the spec's resolved bench set exactly.
pub fn try_run_spec_over(
    spec: &ExperimentSpec,
    workloads: &[Workload],
) -> Result<Vec<Vec<GridResult>>, String> {
    let grid = CellGrid::from_spec(spec)?;
    let names = spec.bench_names()?;
    if workloads.len() != names.len()
        || workloads.iter().zip(&names).any(|(w, n)| w.profile.name != *n)
    {
        return Err(format!(
            "given workloads [{}] do not match the spec's bench set [{}]",
            workloads
                .iter()
                .map(|w| w.profile.name)
                .collect::<Vec<_>>()
                .join(", "),
            names.join(", ")
        ));
    }
    let cells = grid.cells();
    let traces = spec.replay_sources(&cells)?;
    let results = run_spec_cells_over(spec, &cells, workloads, traces.as_deref())?;
    Ok(grid.merge_named(results, &names))
}

/// [`try_run_spec`], panicking (loudly, with the spec error) on an invalid
/// spec — the figure and study entry point, where an invalid spec is a bug or
/// a typo'd `PRESTAGE_BENCH` and must abort the reproduction.
pub fn run_spec(spec: &ExperimentSpec) -> Vec<Vec<GridResult>> {
    try_run_spec(spec).unwrap_or_else(|e| panic!("invalid experiment spec: {e}"))
}

// ---------------------------------------------------------------------------
// Cell/stats/shard serialization.
// ---------------------------------------------------------------------------

/// Serialize one cell's statistics as the canonical JSON object — the
/// shard-file / grid-artifact / serve-cache representation.  The codec is
/// generated from the counter tables (`prestage_json::counters!`).
pub fn stats_to_json(s: &SimStats) -> Json {
    s.to_json()
}

/// Parse [`stats_to_json`]'s representation back; every missing or
/// malformed counter is named by its dotted path.
pub fn stats_from_json(v: &Json) -> Result<SimStats, String> {
    SimStats::from_json(v, "")
}

/// Serialize a cell identifier as the canonical JSON object used by
/// shard files and the serve cache.
pub fn cell_to_json(c: &SweepCell) -> Json {
    let SweepCell {
        preset,
        tech,
        l1,
        bench_idx,
        exec_seed,
    } = *c;
    Json::obj([
        ("preset", preset.id().into()),
        ("tech", tech.id().into()),
        ("l1", l1.into()),
        ("bench_idx", bench_idx.into()),
        ("exec_seed", exec_seed.into()),
    ])
}

/// Parse [`cell_to_json`]'s representation back; every missing or
/// malformed field is named.
pub fn cell_from_json(v: &Json) -> Result<SweepCell, String> {
    let preset_id = v
        .get("preset")
        .and_then(Json::as_str)
        .ok_or("cell preset must be a string")?;
    let tech_id = v
        .get("tech")
        .and_then(Json::as_str)
        .ok_or("cell tech must be a string")?;
    Ok(SweepCell {
        preset: ConfigPreset::from_id(preset_id)
            .ok_or_else(|| format!("unknown preset {preset_id:?} in cell"))?,
        tech: TechNode::from_id(tech_id)
            .ok_or_else(|| format!("unknown tech {tech_id:?} in cell"))?,
        l1: v
            .get("l1")
            .and_then(Json::as_usize)
            .ok_or("cell l1 must be an integer")?,
        bench_idx: v
            .get("bench_idx")
            .and_then(Json::as_usize)
            .ok_or("cell bench_idx must be an integer")?,
        exec_seed: v
            .get("exec_seed")
            .and_then(Json::as_u64)
            .ok_or("cell exec_seed must be an integer")?,
    })
}

/// One process's share of a sharded sweep: the spec, the half-open cell
/// range `[start, end)` it evaluated, and the per-cell results.  Written
/// by `prestage shard`, consumed by `prestage merge`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFile {
    pub spec: ExperimentSpec,
    pub start: usize,
    pub end: usize,
    pub results: Vec<CellResult>,
}

// CellResult carries a wall-clock Duration, which has no meaningful
// equality across runs; compare shard files by cell identity and stats.
impl PartialEq for CellResult {
    fn eq(&self, other: &CellResult) -> bool {
        self.cell == other.cell && self.stats == other.stats
    }
}

impl ShardFile {
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema", SPEC_SCHEMA.into()),
            ("spec", self.spec.to_json_value()),
            (
                "cells",
                Json::obj([("start", self.start.into()), ("end", self.end.into())]),
            ),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("cell", cell_to_json(&r.cell)),
                                // Wall-clock is diagnostic only; merge
                                // output never includes it.
                                ("wall_s", r.wall.as_secs_f64().into()),
                                ("stats", stats_to_json(&r.stats)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    pub fn from_json(text: &str) -> Result<ShardFile, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("shard file has no schema")?;
        if schema != SPEC_SCHEMA {
            return Err(format!("shard schema {schema} not supported"));
        }
        let spec = ExperimentSpec::from_json_value(
            v.get("spec").ok_or("shard file has no spec")?,
        )?;
        let cells = v.get("cells").ok_or("shard file has no cells range")?;
        let start = cells
            .get("start")
            .and_then(Json::as_usize)
            .ok_or("bad cells.start")?;
        let end = cells
            .get("end")
            .and_then(Json::as_usize)
            .ok_or("bad cells.end")?;
        let results = v
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("shard file has no results array")?
            .iter()
            .map(|r| {
                let secs = r.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
                // Found by the fuzz harness: Duration::from_secs_f64
                // panics on negative or over-range input, so a hostile
                // wall_s crashed the merge instead of being refused.
                if secs.is_nan() || secs < 0.0 || secs >= u64::MAX as f64 {
                    return Err(format!(
                        "result wall_s {secs} is not a representable duration"
                    ));
                }
                Ok(CellResult {
                    cell: cell_from_json(r.get("cell").ok_or("result has no cell")?)?,
                    stats: stats_from_json(r.get("stats").ok_or("result has no stats")?)?,
                    wall: Duration::from_secs_f64(secs),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Found by the fuzz harness: with a saturating count an *inverted*
        // range (start > end) plus an empty results array parsed clean.
        if start > end {
            return Err(format!(
                "shard cell range is inverted: cells.start {start} > cells.end {end}"
            ));
        }
        if results.len() != end - start {
            return Err(format!(
                "shard claims cells {start}..{end} but carries {} results",
                results.len()
            ));
        }
        Ok(ShardFile { spec, start, end, results })
    }
}

/// Render merged `[preset][size]` rows as the canonical grid artifact:
/// deterministic bytes, full per-cell stats, no timing.  A merged
/// multi-process run and a single-process [`run_spec`] of the same spec
/// produce identical output — the property the shard/merge CI job diffs.
///
/// The embedded spec has `threads` and `trace` cleared: pool width is
/// host-local and the committed-path source (live vs replay) is bit-exact
/// by construction, so runs that only disagreed on either must still
/// produce identical bytes — the property the replay CI job diffs.
pub fn grid_output(spec: &ExperimentSpec, rows: &[Vec<GridResult>]) -> String {
    let spec = &spec.portable();
    let mut out_rows = Vec::new();
    for (preset, row) in spec.presets.iter().zip(rows) {
        for (&l1, r) in spec.l1_sizes.iter().zip(row) {
            out_rows.push(Json::obj([
                ("preset", preset.id().into()),
                ("l1", l1.into()),
                ("hmean_ipc", r.hmean_ipc().into()),
                (
                    "per_bench",
                    Json::Arr(
                        r.per_bench
                            .iter()
                            .map(|(name, s)| {
                                Json::obj([
                                    ("bench", name.as_str().into()),
                                    ("ipc", s.ipc().into()),
                                    ("stats", stats_to_json(s)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
    }
    Json::obj([
        ("schema", SPEC_SCHEMA.into()),
        ("spec", spec.to_json_value()),
        ("rows", Json::Arr(out_rows)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            presets: vec![ConfigPreset::Base, ConfigPreset::ClgpL0],
            tech: TechNode::T090,
            l1_sizes: vec![1 << 10, 4 << 10],
            bench: Some(vec!["gzip".into()]),
            warmup_insts: 1_000,
            measure_insts: 4_000,
            workload_seed: 7,
            exec_seed: 3,
            threads: Some(2),
            predictor: PredictorKind::Stream,
            trace: None,
            prefetcher: None,
            itlb: None,
            insertion: None,
        }
    }

    #[test]
    fn default_spec_is_the_paper_matrix_and_validates() {
        let spec = ExperimentSpec::default();
        assert_eq!(spec.presets.len(), 10);
        assert_eq!(spec.l1_sizes, L1_SIZES.to_vec());
        assert_eq!(spec.bench_names().unwrap().len(), 12);
        spec.validate().unwrap();
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let replaying = ExperimentSpec {
            trace: Some(TraceSource {
                dir: "traces/smoke".into(),
            }),
            ..tiny_spec()
        };
        let mana = ExperimentSpec {
            prefetcher: Some(PrefetcherKind::Mana),
            ..tiny_spec()
        };
        let progmap = ExperimentSpec {
            prefetcher: Some(PrefetcherKind::ProgMap),
            ..tiny_spec()
        };
        for spec in [ExperimentSpec::default(), tiny_spec(), replaying, mana, progmap] {
            let text = spec.to_json();
            let back = ExperimentSpec::from_json(&text).unwrap();
            assert_eq!(back, spec);
            // Canonical: serializing again is byte-identical.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn unknown_bench_fails_loudly_with_the_valid_names() {
        let mut spec = tiny_spec();
        spec.bench = Some(vec!["gzpi".into()]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("unknown benchmark \"gzpi\""), "{err}");
        assert!(err.contains("gzip") && err.contains("twolf"), "{err}");
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let mut s = tiny_spec();
        s.presets.push(ConfigPreset::Base);
        assert!(s.validate().unwrap_err().contains("duplicate preset"));
        let mut s = tiny_spec();
        s.l1_sizes = vec![];
        assert!(s.validate().unwrap_err().contains("no L1 sizes"));
        let mut s = tiny_spec();
        s.bench = Some(vec![]);
        assert!(s.validate().unwrap_err().contains("matches no benchmarks"));
        let mut s = tiny_spec();
        s.bench = Some(vec!["gzip".into(), "gzip".into()]);
        assert!(s.validate().unwrap_err().contains("listed twice"));
        let mut s = tiny_spec();
        s.threads = Some(0);
        assert!(s.validate().unwrap_err().contains("threads"));
        let mut s = tiny_spec();
        s.measure_insts = 0;
        assert!(s.validate().unwrap_err().contains("measure_insts"));
    }

    #[test]
    fn from_json_rejects_typos_and_wrong_schemas() {
        let good = tiny_spec().to_json();
        let e = ExperimentSpec::from_json(&good.replace("warmup_insts", "warmupinsts"))
            .unwrap_err();
        assert!(e.contains("unknown spec field"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"schema\": 4", "\"schema\": 99"))
            .unwrap_err();
        assert!(e.contains("schema 99"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"clgp+l0\"", "\"clgp+l9\""))
            .unwrap_err();
        assert!(e.contains("unknown preset"), "{e}");
        assert!(ExperimentSpec::from_json("[]").is_err());
        // Malformed trace blocks are loud.
        let e = ExperimentSpec::from_json(
            &good.replace("\"trace\": null", "\"trace\": {\"dri\": \"x\"}"),
        )
        .unwrap_err();
        assert!(e.contains("unknown trace field"), "{e}");
        let e = ExperimentSpec::from_json(&good.replace("\"trace\": null", "\"trace\": 7"))
            .unwrap_err();
        assert!(e.contains("trace must be null or an object"), "{e}");
    }

    #[test]
    fn unknown_prefetcher_id_aborts_listing_the_valid_set() {
        let good = tiny_spec().to_json();
        let e = ExperimentSpec::from_json(
            &good.replace("\"prefetcher\": null", "\"prefetcher\": \"mnaa\""),
        )
        .unwrap_err();
        assert!(e.contains("unknown prefetcher \"mnaa\""), "{e}");
        for id in ["none", "nextline", "fdp", "clgp", "mana", "progmap"] {
            assert!(e.contains(id), "error must list {id:?}: {e}");
        }
        // Non-string values are loud too.
        let e = ExperimentSpec::from_json(
            &good.replace("\"prefetcher\": null", "\"prefetcher\": 7"),
        )
        .unwrap_err();
        assert!(e.contains("prefetcher must be null"), "{e}");
    }

    /// Cut `,\n  "<field>": null` out of a serialized spec (for building
    /// earlier-schema fixtures).
    fn cut_field(text: &str, field: &str) -> String {
        let mut out = text.to_string();
        let needle = format!(",\n  \"{field}\": null");
        let cut = out.find(&needle).unwrap();
        out.replace_range(cut..cut + needle.len(), "");
        out
    }

    #[test]
    fn schema_1_and_2_specs_still_parse_with_their_defaults() {
        // A pre-trace spec file (schema 1, no trace/prefetcher) keeps
        // working, and a schema-2 file (trace, no prefetcher) too...
        let v4 = tiny_spec().to_json();
        let cut_memory_model =
            |text: &str| cut_field(&cut_field(text, "itlb"), "insertion");
        let v1 = cut_field(
            &cut_field(
                &cut_memory_model(&v4.replace("\"schema\": 4", "\"schema\": 1")),
                "trace",
            ),
            "prefetcher",
        );
        let spec = ExperimentSpec::from_json(&v1).unwrap();
        assert_eq!(spec, tiny_spec());
        let v2 = cut_field(
            &cut_memory_model(&v4.replace("\"schema\": 4", "\"schema\": 2")),
            "prefetcher",
        );
        let spec = ExperimentSpec::from_json(&v2).unwrap();
        assert_eq!(spec, tiny_spec());
        // ...and a schema-3 file (prefetcher, no itlb/insertion) too.
        let v3 = cut_memory_model(&v4.replace("\"schema\": 4", "\"schema\": 3"));
        let spec = ExperimentSpec::from_json(&v3).unwrap();
        assert_eq!(spec, tiny_spec());
        // ...but an earlier-schema file *claiming* a later field carries a
        // field from the future, rejected rather than half-understood.
        let e = ExperimentSpec::from_json(&cut_field(
            &cut_memory_model(&v4.replace("\"schema\": 4", "\"schema\": 1")),
            "prefetcher",
        ))
        .unwrap_err();
        assert!(e.contains("unknown spec field \"trace\""), "{e}");
        let e = ExperimentSpec::from_json(&cut_memory_model(
            &v4.replace("\"schema\": 4", "\"schema\": 2"),
        ))
        .unwrap_err();
        assert!(e.contains("unknown spec field \"prefetcher\""), "{e}");
        let e = ExperimentSpec::from_json(&v4.replace("\"schema\": 4", "\"schema\": 3"))
            .unwrap_err();
        assert!(e.contains("unknown spec field \"itlb\""), "{e}");
    }

    #[test]
    fn itlb_and_insertion_fields_round_trip_and_reject_typos() {
        let spec = ExperimentSpec {
            itlb: Some(ITlbConfig {
                entries: 16,
                assoc: 2,
                page_bytes: 4096,
                miss_cycles: 20,
            }),
            insertion: Some(InsertionPolicy::Lru),
            ..tiny_spec()
        };
        spec.validate().unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let text = spec.to_json();
        // Misspelled / missing i-TLB sizing fields are loud.
        let e = ExperimentSpec::from_json(&text.replace("page_bytes", "pagebytes"))
            .unwrap_err();
        assert!(e.contains("unknown itlb field \"pagebytes\""), "{e}");
        let e = ExperimentSpec::from_json(&text.replace("\"miss_cycles\": 20", "\"miss_cycles\": \"x\""))
            .unwrap_err();
        assert!(e.contains("itlb.miss_cycles"), "{e}");
        let e = ExperimentSpec::from_json(
            &text.replace("\"insertion\": \"lru\"", "\"insertion\": \"plru\""),
        )
        .unwrap_err();
        assert!(e.contains("unknown insertion policy `plru`"), "{e}");
        // A non-power-of-two set count is a validation error, by name.
        let bad = ExperimentSpec {
            itlb: Some(ITlbConfig {
                entries: 48,
                assoc: 4,
                page_bytes: 4096,
                miss_cycles: 20,
            }),
            ..tiny_spec()
        };
        assert!(bad.validate().unwrap_err().contains("itlb entries"));
    }

    #[test]
    fn non_pow2_l1_sizes_are_rejected_by_name() {
        // Regression: a 1536-byte L1 used to validate, then panic inside
        // the cache array (whose sets are mask-indexed) when the first
        // cell ran; now the spec itself refuses, naming the field.
        let mut s = tiny_spec();
        s.l1_sizes = vec![1536];
        let e = s.validate().unwrap_err();
        assert!(e.contains("l1_sizes entry 1536"), "{e}");
        assert!(e.contains("power of two"), "{e}");
    }

    #[test]
    fn prefetcher_override_reshapes_the_sim_config() {
        for (id, kind) in [("mana", PrefetcherKind::Mana), ("progmap", PrefetcherKind::ProgMap)]
        {
            let spec = ExperimentSpec {
                prefetcher: Some(kind),
                ..tiny_spec()
            };
            spec.validate().unwrap_or_else(|e| panic!("{id}: {e}"));
            // Presets with a pre-buffer swap mechanisms in place...
            let cfg = spec.sim_config(ConfigPreset::ClgpL0, 4 << 10);
            assert_eq!(cfg.frontend.prefetcher, kind);
            assert!(cfg.frontend.pb_entries > 0);
            // ...and bufferless presets gain the node's one-cycle buffer.
            let cfg = spec.sim_config(ConfigPreset::Base, 4 << 10);
            assert_eq!(cfg.frontend.prefetcher, kind);
            assert_eq!(
                cfg.frontend.pb_entries,
                prestage_core::FrontendConfig::one_cycle_buffer_lines(spec.tech)
            );
        }
        // No override: the preset keeps its own mechanism.
        let cfg = tiny_spec().sim_config(ConfigPreset::ClgpL0, 4 << 10);
        assert_eq!(cfg.frontend.prefetcher, PrefetcherKind::Clgp);
    }

    #[test]
    fn replay_specs_vet_their_traces_before_running() {
        // Missing directory/file: the error points at the record command.
        let spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: "/nonexistent/trace/dir".into(),
            }),
            ..tiny_spec()
        };
        let e = run_spec_cells(&spec, &CellGrid::from_spec(&spec).unwrap().cells())
            .unwrap_err();
        assert!(e.contains("prestage trace record"), "{e}");

        // A trace recorded under different seeds is refused by name.
        let dir = std::env::temp_dir().join(format!("prestage_vet_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let w = spec.build_workloads().unwrap().remove(0);
        let path = spec.trace_paths().unwrap().unwrap().remove(0);
        let f = std::fs::File::create(&path).unwrap();
        // Recorded with the wrong exec seed (spec uses 3).
        prestage_workload::record_trace(
            std::io::BufWriter::new(f),
            &w,
            99,
            spec.trace_record_insts(),
            1024,
        )
        .unwrap();
        let e = spec.resolve_traces().unwrap_err();
        assert!(e.contains("exec seed 99"), "{e}");
        // Too-short traces are refused with both lengths.
        let f = std::fs::File::create(&path).unwrap();
        prestage_workload::record_trace(std::io::BufWriter::new(f), &w, 3, 100, 1024).unwrap();
        let e = spec.resolve_traces().unwrap_err();
        assert!(e.contains("holds 100 instructions"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_shards_only_vet_the_benchmarks_they_run() {
        // A two-bench replay spec with only the first bench's trace
        // recorded: cells touching just that bench must run; the full
        // grid (and the vet-everything entry point) must refuse.
        let dir = std::env::temp_dir().join(format!("prestage_scope_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let w = spec.build_workloads().unwrap().remove(0);
        let path = spec.trace_paths().unwrap().unwrap().remove(0);
        let f = std::fs::File::create(&path).unwrap();
        prestage_workload::record_trace(
            std::io::BufWriter::new(f),
            &w,
            spec.exec_seed,
            spec.trace_record_insts(),
            2048,
        )
        .unwrap();
        let grid = CellGrid::from_spec(&spec).unwrap();
        let gzip_cells: Vec<SweepCell> = grid
            .cells()
            .into_iter()
            .filter(|c| c.bench_idx == 0)
            .collect();
        let results = run_spec_cells(&spec, &gzip_cells).unwrap();
        assert_eq!(results.len(), gzip_cells.len());
        let e = run_spec_cells(&spec, &grid.cells()).unwrap_err();
        assert!(e.contains("mcf"), "{e}");
        assert!(spec.resolve_traces().unwrap_err().contains("mcf"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "replay cannot serve foreign-seed cells")]
    fn replay_refuses_cells_with_a_foreign_exec_seed() {
        let dir = std::env::temp_dir().join(format!("prestage_fseed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ExperimentSpec {
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..tiny_spec()
        };
        let w = spec.build_workloads().unwrap().remove(0);
        let path = spec.trace_paths().unwrap().unwrap().remove(0);
        let f = std::fs::File::create(&path).unwrap();
        prestage_workload::record_trace(
            std::io::BufWriter::new(f),
            &w,
            spec.exec_seed,
            spec.trace_record_insts(),
            2048,
        )
        .unwrap();
        // A cell demanding a different execution seed than the recording:
        // live generation would honour it, so replay must refuse instead
        // of silently serving the spec-seed trace.
        let mut cell = CellGrid::from_spec(&spec).unwrap().cell_at(0);
        cell.exec_seed = spec.exec_seed + 1;
        let _ = run_spec_cells(&spec, &[cell]);
    }

    #[test]
    fn replay_run_is_bit_exact_and_byte_identical_to_live() {
        let dir = std::env::temp_dir().join(format!("prestage_replay_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = tiny_spec();
        let replay = ExperimentSpec {
            trace: Some(TraceSource {
                dir: dir.to_string_lossy().into_owned(),
            }),
            ..live.clone()
        };
        for (w, path) in live
            .build_workloads()
            .unwrap()
            .iter()
            .zip(replay.trace_paths().unwrap().unwrap())
        {
            let f = std::fs::File::create(&path).unwrap();
            prestage_workload::record_trace(
                std::io::BufWriter::new(f),
                w,
                live.exec_seed,
                live.trace_record_insts(),
                1024,
            )
            .unwrap();
        }
        let live_rows = try_run_spec(&live).unwrap();
        let replay_rows = try_run_spec(&replay).unwrap();
        // Every counter of every cell identical, and the rendered grid
        // artifact byte-identical (grid_output clears the trace source).
        for (lr, rr) in live_rows.iter().flatten().zip(replay_rows.iter().flatten()) {
            assert_eq!(lr.per_bench, rr.per_bench);
        }
        assert_eq!(
            grid_output(&live, &live_rows),
            grid_output(&replay, &replay_rows)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_layer_overrides_only_what_is_set() {
        let env: HashMap<&str, &str> = [
            ("PRESTAGE_MEASURE", "9000"),
            ("PRESTAGE_BENCH", "gcc, mcf"),
            ("PRESTAGE_THREADS", "3"),
        ]
        .into_iter()
        .collect();
        let spec = tiny_spec()
            .env_overrides_with(|k| env.get(k).map(|v| v.to_string()));
        assert_eq!(spec.measure_insts, 9_000);
        assert_eq!(spec.bench, Some(vec!["gcc".to_string(), "mcf".to_string()]));
        assert_eq!(spec.threads, Some(3));
        // Untouched fields keep the base spec's values.
        assert_eq!(spec.warmup_insts, 1_000);
        assert_eq!(spec.workload_seed, 7);
        // Empty values count as unset.
        let spec = tiny_spec().env_overrides_with(|k| {
            (k == "PRESTAGE_BENCH" || k == "PRESTAGE_THREADS").then(|| "  ".to_string())
        });
        assert_eq!(spec.bench, Some(vec!["gzip".to_string()]));
        assert_eq!(spec.threads, Some(2));
    }

    #[test]
    #[should_panic(expected = "PRESTAGE_MEASURE must be an unsigned integer")]
    fn env_layer_rejects_scientific_notation() {
        tiny_spec().env_overrides_with(|k| {
            (k == "PRESTAGE_MEASURE").then(|| "1e6".to_string())
        });
    }

    #[test]
    #[should_panic(expected = "PRESTAGE_THREADS must be a positive integer")]
    fn env_layer_rejects_zero_threads() {
        tiny_spec().env_overrides_with(|k| {
            (k == "PRESTAGE_THREADS").then(|| "0".to_string())
        });
    }

    #[test]
    fn env_u64_parse_accepts_good_values_and_defaults() {
        assert_eq!(parse_env_u64("X", None, 7), 7);
        assert_eq!(parse_env_u64("X", Some(""), 7), 7);
        assert_eq!(parse_env_u64("X", Some("  "), 7), 7);
        assert_eq!(parse_env_u64("X", Some("123"), 7), 123);
        assert_eq!(parse_env_u64("X", Some(" 42 "), 7), 42);
    }

    #[test]
    fn grid_from_spec_matches_axes() {
        let spec = tiny_spec();
        let grid = CellGrid::from_spec(&spec).unwrap();
        assert_eq!(grid.n_cells(), 4);
        let c = grid.cell_at(0);
        assert_eq!(c.preset, ConfigPreset::Base);
        assert_eq!(c.tech, TechNode::T090);
        assert_eq!(c.exec_seed, 3);
    }

    /// Give every integer leaf under `v` the next value of `n`.
    fn renumber(v: &mut Json, n: &mut u64) {
        match v {
            Json::Int(i) => {
                *n += 1;
                *i = (*n).into();
            }
            Json::Arr(items) => items.iter_mut().for_each(|x| renumber(x, n)),
            Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, x)| renumber(x, n)),
            other => panic!("stats leaf {other:?} is not an integer"),
        }
    }

    /// The dotted path of every field under `v`, blocks before their
    /// fields.
    fn field_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        for key in v.keys().unwrap_or_default() {
            let path = if prefix.is_empty() {
                key.to_string()
            } else {
                format!("{prefix}.{key}")
            };
            out.push(path.clone());
            field_paths(v.get(key).unwrap(), &path, out);
        }
    }

    /// The object holding the field at dotted `path`, and the field's key.
    fn parent_of<'a>(v: &'a mut Json, path: &'a str) -> (&'a mut Vec<(String, Json)>, &'a str) {
        let (block, key) = match path.rsplit_once('.') {
            Some((block, key)) => (Some(block), key),
            None => (None, path),
        };
        let mut at = v;
        for seg in block.into_iter().flat_map(|b| b.split('.')) {
            let Json::Obj(pairs) = at else { unreachable!() };
            at = &mut pairs.iter_mut().find(|(k, _)| k == seg).unwrap().1;
        }
        let Json::Obj(pairs) = at else { unreachable!() };
        (pairs, key)
    }

    #[test]
    fn stats_codec_roundtrips_every_field_exactly() {
        // Distinct values above 2^53 in every integer leaf, found by walking
        // the encoding itself, so a swapped or dropped counter cannot cancel
        // out and a new counter needs no edit here.
        let mut v = stats_to_json(&SimStats::default());
        let mut n = 1u64 << 53;
        renumber(&mut v, &mut n);
        assert!(n - (1 << 53) > 40, "only {} integer leaves", n - (1 << 53));
        let s = stats_from_json(&Json::parse(&v.pretty()).unwrap()).unwrap();
        assert_eq!(stats_to_json(&s), v);
        assert_eq!(stats_from_json(&stats_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn stats_decode_names_each_missing_or_malformed_field_by_path() {
        let full = stats_to_json(&SimStats::default());
        let mut paths = Vec::new();
        field_paths(&full, "", &mut paths);
        assert!(paths.iter().any(|p| p == "front.fetch_pb"), "{paths:?}");
        for path in &paths {
            let mut missing = full.clone();
            let (pairs, key) = parent_of(&mut missing, path);
            pairs.retain(|(k, _)| k != key);
            let mut negative = full.clone();
            let (pairs, key) = parent_of(&mut negative, path);
            pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::Int(-1);
            for broken in [missing, negative] {
                let e = stats_from_json(&broken).unwrap_err();
                assert!(
                    e.contains("stats") && e.contains(&format!("{path:?}")),
                    "{path}: {e}"
                );
            }
        }
        // Keys the tables do not declare are ignored.
        let mut extra = full.clone();
        let Json::Obj(pairs) = &mut extra else { unreachable!() };
        pairs.push(("from_the_future".into(), Json::Int(1)));
        assert_eq!(stats_from_json(&extra).unwrap(), SimStats::default());
    }

    #[test]
    fn shard_file_roundtrips_and_checks_its_count() {
        let spec = tiny_spec();
        let grid = CellGrid::from_spec(&spec).unwrap();
        let results = run_spec_cells(&spec, &grid.cells()[1..3]).unwrap();
        let shard = ShardFile { spec, start: 1, end: 3, results };
        let text = shard.to_json();
        let back = ShardFile::from_json(&text).unwrap();
        assert_eq!(back, shard);
        // A shard that lost a result line must not parse.
        let broken = text.replacen("\"end\": 3", "\"end\": 4", 1);
        assert!(ShardFile::from_json(&broken).unwrap_err().contains("carries"));
    }

    #[test]
    fn fuzz_regression_inverted_shard_range_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/shard/
        // inverted-range.json): start 5 > end 2 with an empty results
        // array sneaked past the saturating count check and parsed clean.
        let text = format!(
            "{{\n  \"schema\": {SPEC_SCHEMA},\n  \"spec\": {},\n  \
             \"cells\": {{\"start\": 5, \"end\": 2}},\n  \"results\": []\n}}",
            tiny_spec().to_json_value().render()
        );
        let e = ShardFile::from_json(&text).unwrap_err();
        assert!(e.contains("inverted"), "{e}");
        assert!(e.contains("cells.start 5") && e.contains("cells.end 2"), "{e}");
    }

    #[test]
    fn fuzz_regression_overflowing_run_length_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/spec/
        // warmup-measure-overflow.json): warmup + measure wrapping u64
        // validated clean, then panicked (debug) inside the replay length
        // check.
        let mut s = tiny_spec();
        s.warmup_insts = u64::MAX;
        s.measure_insts = 2;
        let e = s.validate().unwrap_err();
        assert!(e.contains("warmup_insts") && e.contains("measure_insts"), "{e}");
        assert!(e.contains("overflows"), "{e}");
        // And the trace vet itself stays total even without validate().
        assert!(s.trace_record_insts() == u64::MAX);
    }

    #[test]
    fn fuzz_regression_hostile_wall_s_is_rejected_by_name() {
        // Fuzzer crasher (checked in as fuzz/regressions/shard/
        // negative-wall.json): Duration::from_secs_f64 panics on negative
        // or over-range seconds, so "wall_s": -1.5 (or 1e300) crashed the
        // shard loader instead of being refused.
        let spec = tiny_spec().to_json_value().render();
        for bad in ["-1.5", "1e300"] {
            let text = format!(
                "{{\n  \"schema\": {SPEC_SCHEMA},\n  \"spec\": {spec},\n  \
                 \"cells\": {{\"start\": 0, \"end\": 1}},\n  \"results\": \
                 [{{\"cell\": null, \"stats\": null, \"wall_s\": {bad}}}]\n}}"
            );
            let e = ShardFile::from_json(&text).unwrap_err();
            assert!(e.contains("wall_s"), "wall_s {bad}: {e}");
        }
    }

    #[test]
    fn run_spec_matches_the_raw_runner_bit_exactly() {
        let spec = tiny_spec();
        let rows = try_run_spec(&spec).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        let w = spec.build_workloads().unwrap();
        for (pi, &preset) in spec.presets.iter().enumerate() {
            for (si, &l1) in spec.l1_sizes.iter().enumerate() {
                let direct = crate::Engine::new(
                    spec.sim_config(preset, l1),
                    &w[0],
                    spec.exec_seed,
                )
                .run();
                assert_eq!(rows[pi][si].per_bench[0].1, direct);
                assert_eq!(rows[pi][si].per_bench[0].0, "gzip");
            }
        }
    }

    #[test]
    fn grid_output_is_deterministic_and_thread_blind() {
        let spec = tiny_spec();
        let rows = try_run_spec(&spec).unwrap();
        let a = grid_output(&spec, &rows);
        let b = grid_output(&spec, &try_run_spec(&spec).unwrap());
        assert_eq!(a, b);
        assert!(Json::parse(&a).is_ok());
        // The pool width is host-local: a run that only differed in
        // `threads` must still produce identical artifact bytes.
        let wider = ExperimentSpec { threads: Some(7), ..spec.clone() };
        assert_eq!(grid_output(&wider, &try_run_spec(&wider).unwrap()), a);
    }
}
