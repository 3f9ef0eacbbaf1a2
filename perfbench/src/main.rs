//! End-to-end and per-layer benchmark of the fetch-prestaging simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stall|busy|mech-tlb|serve> --seed <n> --seconds <s> --trace <0|1>
//!     [--workload-seed <n>] [--exec-seed <n>] [--serve-seed <n>]
//! ```
//!
//! Run from the repository root.  The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`.  See `perfbench/README.md` for what each metric means.

mod clock;
mod kernels;
mod laws;
mod metrics;
mod report;
mod serve;
mod spans;
mod sweep;
mod workloads;

use report::{median, print_table, result_line, Metric};
use spans::SpanLog;
use std::path::{Path, PathBuf};
use sweep::{run_round, Feed, Plan, Round};
use workloads::{Kind, Seeds, SetupTimes};

const USAGE: &str = "usage: perfbench --workload <stall|busy|mech-tlb|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--workload-seed <n>] [--exec-seed <n>] \
                     [--serve-seed <n>]";

/// Default seeds behind every recorded figure.  Held out for confirming a
/// claim (never used while tuning a change): `--workload-seed 2005
/// --exec-seed 2005 --serve-seed 2005`.
const DEFAULT_SEEDS: Seeds = Seeds {
    workload: 42,
    exec: 42,
    serve_sequence: 11,
};

/// Timed set-ups before each timed round, and in a whole run at least;
/// `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 2;
const MIN_SETUPS: usize = 9;
/// Untraced sweep rounds per run, at least (more while time remains).
const MIN_ROUNDS: usize = 3;
/// Cache hits the serve client makes, at least (p99 needs 1000).
const MIN_HITS: usize = 1000;
/// Cold epochs of the serve client's sequence per run, at least, each on
/// the daemon a new set-up opened on a fresh state directory.  More run
/// while less than `SERVE_COLD_SHARE` of the run has passed; the cache hits
/// fill the rest.
const SERVE_EPOCHS: usize = 10;
const SERVE_COLD_SHARE: f64 = 0.75;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    seeds: Seeds,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut seeds = DEFAULT_SEEDS;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            "--workload-seed" => seeds.workload = num()?,
            "--exec-seed" => seeds.exec = num()?,
            "--serve-seed" => seeds.serve_sequence = num()?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let kind = Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        kind,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        seeds,
    })
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    digest: String,
    hmean_ipc: f64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".bench_work").join(format!("{}-{}", args.name, std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|_| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let expected = if args.trace {
        metrics::PER_LAYER.as_slice()
    } else {
        metrics::END_TO_END.as_slice()
    };
    let reported: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        reported, expected,
        "reported metrics drifted from the declared list"
    );
    for m in &out.metrics {
        assert!(
            report::valid_name(m.name) && report::valid_unit(m.unit),
            "bad metric {m:?}"
        );
    }
    println!(
        "perfbench {} ({} run, {} s, seed {}, pool {} threads; simulated-time metrics marked [sim])",
        args.name,
        if args.trace { "traced" } else { "untraced" },
        args.seconds,
        args.seed,
        sweep::THREADS
    );
    println!(
        "  artifact digest {}  sim.hmean_ipc {:.6}",
        out.digest, out.hmean_ipc
    );
    print_table(&out.metrics);
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Timed set-ups of one run.  Each goes into a fresh directory (the
/// previous one is removed first, untimed); on serve each also opens a
/// daemon on a fresh state directory and hands it back for a cold epoch.
struct Setups<'a> {
    args: &'a Args,
    dir: &'a Path,
    log: Option<&'a SpanLog>,
    times: Vec<SetupTimes>,
}

impl Setups<'_> {
    fn run(&mut self) -> Result<(Plan, Option<serve::Daemon>), String> {
        let k = self.times.len() + 1;
        let _ = std::fs::remove_dir_all(self.dir.join(format!("setup-{}", k - 1)));
        let sdir = self.dir.join(format!("setup-{k}"));
        std::fs::create_dir_all(&sdir)
            .map_err(|e| format!("cannot create {}: {e}", sdir.display()))?;
        let log = self.log;
        let id = log.map(SpanLog::new_id);
        let t0 = clock::now();
        let (plan, mut t) = workloads::setup(self.args.kind, self.args.seeds, &sdir, log, id)?;
        let mut daemon = None;
        if self.args.kind == Kind::Serve {
            let t_open = clock::now();
            daemon = Some(serve::Daemon::open(&sdir.join("serve"))?);
            if let (Some(log), Some(id)) = (log, id) {
                let t_opened = clock::now();
                log.record(log.new_id(), Some(id), "serve.open", None, t_open, t_opened);
            }
        }
        t.total = clock::since(t0);
        if let (Some(log), Some(id)) = (log, id) {
            log.record(id, None, "setup", None, t0, clock::now());
        }
        self.times.push(t);
        Ok((plan, daemon))
    }

    /// A set-up whose daemon, if any, is not used: it is stopped untimed.
    fn run_plan(&mut self) -> Result<Plan, String> {
        let (plan, daemon) = self.run()?;
        if let Some(d) = daemon {
            d.shutdown()?;
        }
        Ok(plan)
    }
}

/// Failures across rounds: artifacts that differ from the reference round's
/// count every cell of their spec as failed.
fn digest_failures(reference: &[Option<String>], round: &Round) -> u64 {
    let mut failed = 0;
    for (s, (want, got)) in reference.iter().zip(&round.artifacts).enumerate() {
        if want.is_some() && got.is_some() && want != got {
            eprintln!("perfbench: spec {s} rendered a different artifact than the reference round");
            failed += round.cells.iter().filter(|c| c.spec == s).count() as u64;
        }
    }
    failed
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let log = args.trace.then(SpanLog::default);
    let log = log.as_ref();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let t_run = clock::now();
    let run_ns = (args.seconds * 1e9) as u64;
    // Reference round, untimed, on the plan of an untimed first set-up: lets
    // caches, the page cache and lazy initialisation settle before any
    // timing.  Its artifacts are the ones every later artifact (later
    // rounds, the mech-tlb live run, serve fetches) must equal.
    let (mut plan, _) = workloads::setup(args.kind, args.seeds, &dir.join("setup-0"), None, None)?;
    let first = run_round(&plan, Feed::AsSpecified, None)?;
    let reference = first.artifacts.clone();
    attempted += first.attempted;
    failed += first.failed;

    // Timed set-ups are spread over the run, like the rounds, so that
    // `setup_s` samples the host over the same span of time.
    let mut setups = Setups {
        args,
        dir,
        log,
        times: Vec::new(),
    };

    // Serve: each cold epoch of the client's sequence runs on the daemon
    // its set-up opened, on a fresh state directory; the last daemon then
    // serves the cache hits until the run's time is up.
    let mut client = None;
    if args.kind == Kind::Serve {
        let specs = sweep::parse_specs(&plan.spec_texts)?;
        let mut c = serve::ClientRun::default();
        let mut journal = 0;
        let cold_ns = (run_ns as f64 * SERVE_COLD_SHARE) as u64;
        loop {
            drop(plan);
            let (p, d) = setups.run()?;
            plan = p;
            let mut d = d.ok_or("a serve set-up opened no daemon")?;
            c.cold(&mut d, &specs, log);
            let last = c.cold_ns.len() >= SERVE_EPOCHS && clock::since(t_run) >= cold_ns;
            if last {
                c.hits(&mut d, &specs[0], t_run + run_ns, MIN_HITS, log);
                journal = d.journal_bytes();
            }
            d.shutdown()?;
            if last {
                break;
            }
        }
        attempted += c.requests + c.cells;
        failed += c.failed_requests + c.failed_cells;
        client = Some((c, journal));
    }

    // Timed rounds until time is up, each after two set-ups.  A traced run
    // alternates untraced and traced rounds.  Serve's untraced run has
    // none: its figures come from the daemon.
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    let per_mode = if args.trace { 2 } else { 1 };
    let min_rounds = match args.kind {
        Kind::Serve => 2 * (per_mode - 1),
        _ => MIN_ROUNDS * per_mode,
    };
    let timed = args.kind != Kind::Serve;
    while rounds.len() < min_rounds || (timed && clock::since(t_run) < run_ns) {
        for _ in 0..SETUPS_PER_ROUND {
            drop(plan); // one plan alive at a time keeps `rss_mb` to the work itself
            plan = setups.run_plan()?;
        }
        let traced = args.trace && rounds.len() % 2 == 1;
        let mut r = run_round(&plan, Feed::AsSpecified, if traced { log } else { None })?;
        attempted += r.attempted;
        failed += r.failed + digest_failures(&reference, &r);
        // Once checked, the artifacts go, so `rss_mb` does not grow with
        // the number of rounds a host fits into the run.
        r.artifacts = Vec::new();
        eprintln!(
            "perfbench: round {} ({}) {:.3} s",
            rounds.len(),
            if traced { "traced" } else { "untraced" },
            r.wall_ns as f64 / 1e9
        );
        rounds.push((r, traced));
    }
    while setups.times.len() < MIN_SETUPS {
        drop(plan);
        plan = setups.run_plan()?;
    }
    let setup_times = setups.times;
    if let Some((c, _)) = &client {
        for (s, (fetched, local)) in c.artifacts.iter().zip(&reference).enumerate() {
            if local.as_deref() != Some(fetched.as_str()) {
                eprintln!(
                    "perfbench: serve sweep {s} fetched an artifact unlike the in-process run"
                );
                failed += first.cells.iter().filter(|c| c.spec == s).count() as u64;
            }
        }
    }
    if args.kind == Kind::MechTlb {
        // Replay must equal a live run of the same cells.
        let live = run_round(&plan, Feed::Live, None)?;
        attempted += live.attempted;
        failed += live.failed;
        for (s, (replayed, generated)) in reference.iter().zip(&live.artifacts).enumerate() {
            if replayed.is_some() && replayed != generated {
                eprintln!("perfbench: mech-tlb spec {s} replay differs from the live run");
                failed += live.cells.iter().filter(|c| c.spec == s).count() as u64;
            }
        }
    }

    let digest_input: String = reference
        .iter()
        .map(|a| a.as_deref().unwrap_or(""))
        .collect();
    let digest = prestage_serve::content_hash(digest_input.as_bytes());
    let hmean_ipc = metrics::hmean_ipc(&first);
    let untraced: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();

    let computed = (|| -> Result<Vec<Metric>, String> {
        Ok(if args.trace {
            let log = log.expect("traced run has a span log");
            let new_ns = sweep::construct_cells(&plan, log)?;
            let spans_dir = PathBuf::from(".bench_work").join("spans");
            std::fs::create_dir_all(&spans_dir)
                .map_err(|e| format!("cannot create {}: {e}", spans_dir.display()))?;
            let path = spans_dir.join(format!("{}-seed{}.jsonl", args.name, args.seed));
            log.write_jsonl(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            metrics::per_layer(
                &plan,
                &setup_times,
                &first,
                &untraced,
                &traced,
                &new_ns,
                client.as_ref(),
            )?
        } else {
            let (sweep_s, minst_per_s, cell_ms) = match &client {
                // Serve's cell times come from the daemon's cold sweeps, which
                // report no single cell's time: per sweep, host ms per cell.
                Some((c, _)) => {
                    let epochs: Vec<f64> = c.cold_ns.iter().map(|&n| n as f64 / 1e9).collect();
                    let cold_s: f64 = epochs.iter().sum();
                    (
                        median(&epochs),
                        c.simulated_insts as f64 / cold_s / 1e6,
                        c.cell_ms.clone(),
                    )
                }
                None => {
                    let wall: u64 = untraced.iter().map(|r| r.wall_ns).sum();
                    let cells = || untraced.iter().flat_map(|r| &r.cells);
                    let insts: u64 = cells().map(|c| c.insts).sum();
                    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
                    (
                        median(&walls),
                        insts as f64 / (wall as f64 / 1e9) / 1e6,
                        cells().map(|c| ns_to_ms(c.wall_ns)).collect(),
                    )
                }
            };
            let setup: Vec<f64> = setup_times.iter().map(|t| t.total as f64 / 1e9).collect();
            let tail = |q| {
                report::tail_quantile(&cell_ms, q).ok_or_else(|| {
                    format!(
                        "only {} samples: too few for a p{}",
                        cell_ms.len(),
                        q * 100.0
                    )
                })
            };
            vec![
                Metric::host("sweep_s", sweep_s, "s"),
                Metric::host("setup_s", median(&setup), "s").with_samples(setup.len()),
                Metric::host("minst_per_s", minst_per_s, "Minst/s"),
                Metric::host("cell_ms.p50", tail(0.5)?, "ms").with_samples(cell_ms.len()),
                Metric::host("cell_ms.p90", tail(0.9)?, "ms").with_samples(cell_ms.len()),
                Metric::host("rss_mb", metrics::peak_rss_mb()?, "MB"),
            ]
        })
    })();
    // A run whose operations failed may lack the samples a metric needs;
    // it still reports, with zeros, so the failures are counted, not lost.
    let metrics = match computed {
        Ok(m) => m,
        Err(e) if failed > 0 => {
            eprintln!("perfbench: {e}");
            let declared = if args.trace {
                metrics::PER_LAYER.as_slice()
            } else {
                metrics::END_TO_END.as_slice()
            };
            declared
                .iter()
                .map(|&(n, u)| Metric::host(n, 0.0, u))
                .collect()
        }
        Err(e) => return Err(e),
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        digest,
        hmean_ipc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_strictly() {
        let a = parse_args(&argv("--workload stall --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Stall, 3, 10.0, true)
        );
        assert_eq!(a.seeds.workload, DEFAULT_SEEDS.workload);
        let b = parse_args(&argv(
            "--workload serve --seed 1 --seconds 5 --trace 0 --serve-seed 9",
        ))
        .unwrap();
        assert_eq!(b.seeds.serve_sequence, 9);
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload busy --seed 1 --seconds 5 --trace 2",
            "--workload busy --seed -1 --seconds 5 --trace 0",
            "--workload busy --seconds 5 --trace 0",
            "--workload busy --seed 1 --seconds 0 --trace 0",
            "--workload busy --seed 1 --seconds 5 --trace 0 --extra 1",
            "--workload busy --seed 1 --seconds 5 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
