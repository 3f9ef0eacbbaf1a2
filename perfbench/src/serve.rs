//! The `serve` workload's daemon and its closed-loop client.
//!
//! The daemon is `prestage_serve::serve` on a thread of this process
//! (in-process dispatch, 2 workers of one sim thread each, fresh state
//! directory).  One client connection at a time sends each request only
//! after the previous answer arrived.

use crate::clock;
use crate::laws::broken_laws;
use crate::spans::SpanLog;
use prestage_json::Json;
use prestage_serve::{
    read_frame, serve, sweep_id, write_frame, Dispatch, Request, Response, ServeConfig, ADDR_FILE,
    JOURNAL_FILE,
};
use prestage_sim::{stats_from_json, ExperimentSpec};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Daemon {
    thread: Option<JoinHandle<Result<(), String>>>,
    conn: TcpStream,
    state_dir: PathBuf,
}

impl Daemon {
    /// Start a daemon on a fresh state directory and connect to it.
    pub fn open(state_dir: &Path) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            workers: crate::sweep::THREADS,
            threads_per_job: 1,
            dispatch: Dispatch::InProcess,
            ..ServeConfig::new(state_dir.to_path_buf())
        };
        let thread = std::thread::spawn(move || serve(cfg));
        let addr_path = state_dir.join(ADDR_FILE);
        let t_open = clock::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_path) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            if thread.is_finished() {
                let why = match thread.join() {
                    Ok(Err(e)) => e,
                    _ => "exited before binding".to_string(),
                };
                return Err(format!("daemon failed to start: {why}"));
            }
            if clock::since(t_open) > 30_000_000_000 {
                return Err("daemon did not write its address within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let conn = TcpStream::connect(&addr)
            .map_err(|e| format!("cannot connect to the daemon at {addr}: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        Ok(Daemon {
            thread: Some(thread),
            conn,
            state_dir: state_dir.to_path_buf(),
        })
    }

    /// One request/response exchange on the client connection.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        write_frame(&mut self.conn, &req.to_json())?;
        let v = read_frame(&mut self.conn)?.ok_or("daemon closed the connection")?;
        Response::from_json(&v)
    }

    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(self.state_dir.join(JOURNAL_FILE)).map_or(0, |m| m.len())
    }

    /// Drain the daemon and wait for its thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.close()
    }

    fn close(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let answer = self.call(&Request::Shutdown);
        let joined = thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        match answer {
            Ok(Response::ShuttingDown) => joined,
            Ok(other) => Err(format!("unexpected answer to shutdown: {other:?}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A failed run still stops its daemon; the error was reported.
        let _ = self.close();
    }
}

/// What the client measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Per cold epoch: first submission of every sweep of the sequence
    /// until the last verified artifact is fetched, on a fresh daemon.
    pub cold_ns: Vec<u64>,
    pub jobs: u64,
    pub cells: u64,
    pub cached_cells: u64,
    /// Cells the daemons simulated (requested minus cached) × insts each.
    pub simulated_insts: u64,
    /// The first epoch's artifacts, one per sweep.
    pub artifacts: Vec<String>,
    /// Per cold sweep the daemon simulated cells for: host ms per cell,
    /// i.e. submit-to-fetched time × busy workers / simulated cells.
    pub cell_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub fetch_ms: Vec<f64>,
    pub requests: u64,
    pub failed_requests: u64,
    /// Cells in fetched artifacts that broke a law or differed from the
    /// first epoch's.
    pub failed_cells: u64,
}

/// Milliseconds since `t0` (a [`clock::now`] reading).
fn ms(t0: u64) -> f64 {
    clock::since(t0) as f64 / 1e6
}

impl ClientRun {
    fn call(
        &mut self,
        d: &mut Daemon,
        req: &Request,
        log: Option<&SpanLog>,
        name: &'static str,
    ) -> Option<Response> {
        let t0 = clock::now();
        self.requests += 1;
        let resp = d.call(req);
        if let Some(log) = log {
            log.record(log.new_id(), None, name, None, t0, clock::now());
        }
        match resp {
            Ok(Response::Error { error }) => {
                eprintln!("serve: request failed: {error}");
                self.failed_requests += 1;
                None
            }
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("serve: transport error: {e}");
                self.failed_requests += 1;
                None
            }
        }
    }

    /// Submit; returns `(cells, jobs, cached_cells, complete)`.
    fn submit(
        &mut self,
        d: &mut Daemon,
        spec: &ExperimentSpec,
        log: Option<&SpanLog>,
    ) -> Option<(usize, usize, usize, bool)> {
        let t0 = clock::now();
        let r = self.call(
            d,
            &Request::Submit { spec: spec.clone() },
            log,
            "serve.submit",
        );
        self.submit_ms.push(ms(t0));
        match r {
            Some(Response::Submitted {
                cells,
                jobs,
                cached_cells,
                complete,
                ..
            }) => Some((cells, jobs, cached_cells, complete)),
            other => {
                if other.is_some() {
                    self.failed_requests += 1;
                }
                None
            }
        }
    }

    fn fetch(&mut self, d: &mut Daemon, id: &str, log: Option<&SpanLog>) -> Option<String> {
        let t0 = clock::now();
        let r = self.call(
            d,
            &Request::Fetch {
                sweep: id.to_string(),
            },
            log,
            "serve.fetch",
        );
        self.fetch_ms.push(ms(t0));
        match r {
            Some(Response::Artifact { artifact, .. }) => Some(artifact),
            other => {
                if other.is_some() {
                    self.failed_requests += 1;
                }
                None
            }
        }
    }

    /// One cold epoch on a fresh daemon: every sweep of `specs` in order,
    /// each submitted only after the previous one's artifact arrived.
    pub fn cold(&mut self, d: &mut Daemon, specs: &[ExperimentSpec], log: Option<&SpanLog>) {
        let first_epoch = self.cold_ns.is_empty();
        let t0 = clock::now();
        for (i, spec) in specs.iter().enumerate() {
            let id = sweep_id(spec);
            let t_sweep = clock::now();
            let Some((cells, jobs, cached, _)) = self.submit(d, spec, log) else {
                if first_epoch {
                    self.artifacts.push(String::new());
                }
                continue;
            };
            self.cells += cells as u64;
            self.jobs += jobs as u64;
            self.cached_cells += cached as u64;
            self.simulated_insts = self.simulated_insts.saturating_add(
                ((cells - cached) as u64)
                    .saturating_mul(spec.warmup_insts.saturating_add(spec.measure_insts)),
            );
            let done = loop {
                let status = Request::Status {
                    sweep: Some(id.clone()),
                };
                match self.call(d, &status, None, "serve.status") {
                    Some(Response::Status { sweeps }) => {
                        match sweeps.first().map(|s| s.state.as_str()) {
                            Some("done") => break true,
                            Some(s) if s.starts_with("failed") => break false,
                            _ => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    _ => break false,
                }
            };
            let artifact = if done { self.fetch(d, &id, log) } else { None };
            let simulated = cells - cached;
            if artifact.is_some() && simulated > 0 {
                let workers = jobs.clamp(1, crate::sweep::THREADS);
                self.cell_ms
                    .push(ms(t_sweep) * workers as f64 / simulated as f64);
            }
            let bad = match &artifact {
                None => cells as u64,
                Some(a) if first_epoch => artifact_law_failures(a),
                Some(a) if self.artifacts.get(i) != Some(a) => cells as u64,
                Some(_) => 0,
            };
            if bad > 0 {
                eprintln!("serve: sweep {i} of the cold sequence failed its checks");
            }
            self.failed_cells += bad;
            if first_epoch {
                self.artifacts.push(artifact.unwrap_or_default());
            }
        }
        self.cold_ns.push(clock::since(t0));
    }

    /// Identical resubmit+fetch cache hits of `spec` (the first sweep of the
    /// sequence) until [`clock::now`] reaches `until` and at least
    /// `min_hits` were made.
    pub fn hits(
        &mut self,
        d: &mut Daemon,
        spec: &ExperimentSpec,
        until: u64,
        min_hits: usize,
        log: Option<&SpanLog>,
    ) {
        let id = sweep_id(spec);
        let expected = self.artifacts.first().cloned().unwrap_or_default();
        while self.hit_ms.len() < min_hits || clock::now() < until {
            let t0 = clock::now();
            let hit = self.submit(d, spec, log);
            let artifact = self.fetch(d, &id, log);
            self.hit_ms.push(ms(t0));
            let is_hit = matches!(hit, Some((_, 0, _, true)));
            if !is_hit || artifact.as_deref() != Some(expected.as_str()) {
                eprintln!("serve: resubmission was not a byte-identical cache hit");
                self.failed_requests += 1;
            }
            if self.failed_requests > 100 {
                break; // the daemon is broken; stop hammering it
            }
        }
    }
}

/// Cells of a fetched artifact that break a conservation law (or cannot
/// be decoded at all).
fn artifact_law_failures(artifact: &str) -> u64 {
    let Ok(v) = Json::parse(artifact) else {
        return 1;
    };
    let mut failed = 0;
    for row in v.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
        for b in row.get("per_bench").and_then(Json::as_arr).unwrap_or(&[]) {
            let ok = b
                .get("stats")
                .map(stats_from_json)
                .is_some_and(|s| s.is_ok_and(|s| broken_laws(&s).is_empty()));
            if !ok {
                failed += 1;
            }
        }
    }
    failed
}
