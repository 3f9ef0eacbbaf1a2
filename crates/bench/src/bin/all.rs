//! Run every table and figure in sequence (the full reproduction).
//!
//! Honours the same `PRESTAGE_*` environment knobs as
//! `prestage run <figure>`; results land in the workspace results dir
//! (`PRESTAGE_RESULTS_DIR` to override) and on stdout.  The declared
//! figures run in-process, in paper order; the tables and the extra
//! studies run as their own binaries.

use prestage_bench::figures::{run_figure, FIGURES};
use std::process::Command;

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let dir = self_path.parent().expect("bin dir");
    let spawn = |exe: &str| {
        eprintln!("==> {exe}");
        let status = Command::new(dir.join(exe))
            .status()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        assert!(status.success(), "{exe} failed");
    };
    for exe in ["table1", "table2", "table3"] {
        spawn(exe);
    }
    for f in &FIGURES {
        eprintln!("==> {}", f.name);
        run_figure(f.name);
    }
    for exe in ["headline", "ablate", "related_work"] {
        spawn(exe);
    }
    eprintln!("all experiments complete; see results/");
}
