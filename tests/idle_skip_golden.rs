//! Idle-heavy golden: full `SimStats` of the cells where the cycle engine
//! spends most of its time waiting.
//!
//! The engine jumps its clock over cycles in which no component can make
//! progress (see `crates/sim/src/engine.rs`).  A jump that lands one cycle
//! off shows up first in cells dominated by L2/memory waits: for example, a
//! jump taken *after* a cycle instead of before it lets the idle tail after
//! warm-up's last commit escape the measured window, moving `cycles` by one
//! in a few cells while the high-IPC `engine_equality` goldens still pass.
//! This suite pins every counter of those cells:
//!
//! * Figure 6's presets × {256 B, 4 KB, 64 KB} L1 × {twolf, mcf, bzip2};
//! * every prefetch mechanism with the default i-TLB at a 4 KB L1.
//!
//! The goldens in `tests/golden/idle_skip.tsv` were generated by the
//! cycle-stepping engine, before event skipping existed, and must never be
//! regenerated to absorb a skip bug.  After an *intentional* behaviour
//! change, regenerate with:
//!
//! ```text
//! PRESTAGE_REGEN_GOLDEN=1 cargo test --test idle_skip_golden
//! ```
//!
//! Debug builds check every would-be jump by stepping it; only a release
//! run (`cargo test --release --test idle_skip_golden`) exercises the jumps
//! themselves.

use fetch_prestaging::sim::{
    grid_output, try_run_spec, ConfigPreset, ExperimentSpec, ITlbConfig, PrefetcherKind,
};
use prestage_json::Json;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/idle_skip.tsv")
}

const BENCH: [&str; 3] = ["twolf", "mcf", "bzip2"];

fn base_spec() -> ExperimentSpec {
    ExperimentSpec {
        bench: Some(BENCH.iter().map(|b| b.to_string()).collect()),
        warmup_insts: 20_000,
        measure_insts: 30_000,
        ..ExperimentSpec::default()
    }
}

/// Every golden case: a label and the spec it runs.
fn cases() -> Vec<(String, ExperimentSpec)> {
    let mut cases = vec![(
        "fig6".to_string(),
        ExperimentSpec {
            presets: vec![
                ConfigPreset::BasePipelined,
                ConfigPreset::FdpL0Pb16,
                ConfigPreset::ClgpL0Pb16,
            ],
            l1_sizes: vec![256, 4 << 10, 64 << 10],
            ..base_spec()
        },
    )];
    for kind in PrefetcherKind::all() {
        cases.push((
            format!("itlb/{}", kind.id()),
            ExperimentSpec {
                presets: vec![ConfigPreset::Fdp],
                l1_sizes: vec![4 << 10],
                prefetcher: Some(kind),
                itlb: Some(ITlbConfig::default_config()),
                ..base_spec()
            },
        ));
    }
    cases
}

/// The result rows of a grid artifact, rendered: every counter of every
/// cell (the header only restates the spec).
fn rows_of(spec: &ExperimentSpec) -> String {
    let rows = try_run_spec(spec).expect("spec runs");
    Json::parse(&grid_output(spec, &rows))
        .expect("grid output is JSON")
        .get("rows")
        .expect("grid output has a rows array")
        .render()
}

/// One golden record per line, with `\` and newline escaped.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                other => panic!("malformed golden escape: \\{other:?}"),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[test]
fn idle_heavy_cells_match_the_stepping_engine() {
    let path = golden_path();
    if std::env::var_os("PRESTAGE_REGEN_GOLDEN").is_some() {
        let mut text = String::new();
        for (label, spec) in cases() {
            text.push_str(&label);
            text.push('\t');
            text.push_str(&escape(&rows_of(&spec)));
            text.push('\n');
        }
        std::fs::write(&path, text).expect("golden written");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    let golden: Vec<(String, String)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (label, rows) = line
                .split_once('\t')
                .unwrap_or_else(|| panic!("malformed golden line: {line:?}"));
            (label.to_string(), unescape(rows))
        })
        .collect();
    let cases = cases();
    assert_eq!(
        golden.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
        cases.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
        "golden file covers a different case set"
    );
    let failures: Vec<&str> = cases
        .iter()
        .zip(&golden)
        .filter(|((_, spec), (_, want))| rows_of(spec) != *want)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        failures.is_empty(),
        "cells diverged from the stepping engine's golden: {failures:?}"
    );
}
