//! One Criterion group per figure family: `cargo bench` regenerates a
//! miniature of every reproduced artifact (`prestage run <figure>` and the
//! binaries in `src/bin/` run the full-size versions).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use prestage_cacti::TechNode;
use prestage_sim::{ConfigPreset, Engine, SimConfig};
use prestage_workload::{build, specint2000, Workload};

fn small_workloads() -> Vec<Workload> {
    specint2000()
        .into_iter()
        .filter(|p| ["gzip", "gcc"].contains(&p.name))
        .map(|p| build(&p, 42))
        .collect()
}

fn run_point(preset: ConfigPreset, tech: TechNode, l1: usize, w: &Workload) -> f64 {
    let cfg = SimConfig::preset(preset, tech, l1).with_insts(2_000, 10_000);
    Engine::new(cfg, w, 7).run().ipc()
}

fn bench_fig1_family(c: &mut Criterion) {
    let w = small_workloads();
    let mut g = c.benchmark_group("fig1/latency_vs_ipc");
    g.sample_size(10);
    for preset in [ConfigPreset::Ideal, ConfigPreset::Base, ConfigPreset::BasePipelined] {
        g.bench_function(preset.label(), |b| {
            b.iter_batched(
                || (),
                |_| {
                    w.iter()
                        .map(|wl| run_point(preset, TechNode::T045, 4 << 10, wl))
                        .sum::<f64>()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_fig5_family(c: &mut Criterion) {
    let w = small_workloads();
    let mut g = c.benchmark_group("fig5/techniques");
    g.sample_size(10);
    for preset in [
        ConfigPreset::FdpL0,
        ConfigPreset::ClgpL0,
        ConfigPreset::ClgpL0Pb16,
    ] {
        g.bench_function(preset.label(), |b| {
            b.iter_batched(
                || (),
                |_| {
                    w.iter()
                        .map(|wl| run_point(preset, TechNode::T045, 4 << 10, wl))
                        .sum::<f64>()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_fig7_family(c: &mut Criterion) {
    // Fetch-source accounting costs: the counters behind Figures 7/8.
    let w = small_workloads();
    let mut g = c.benchmark_group("fig7/fetch_sources");
    g.sample_size(10);
    g.bench_function("clgp_source_distribution", |b| {
        b.iter_batched(
            || (),
            |_| {
                let cfg = SimConfig::preset(ConfigPreset::Clgp, TechNode::T045, 8 << 10)
                    .with_insts(2_000, 10_000);
                let s = Engine::new(cfg, &w[1], 7).run();
                s.front.fetch_share(s.front.fetch_pb)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_fig1_family, bench_fig5_family, bench_fig7_family);
criterion_main!(benches);
