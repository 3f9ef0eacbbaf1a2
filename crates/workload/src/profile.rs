//! Benchmark profiles: the tunable first-order characteristics of each
//! synthetic workload.

/// Parameters controlling one synthetic benchmark.
///
/// Percentages are fractions of dynamic instructions except where noted.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Display name ("gzip", "gcc", ...).
    pub name: &'static str,
    /// Target static instruction footprint in KB (4-byte instructions).
    pub i_footprint_kb: u32,
    /// Number of functions in the call DAG.
    pub n_funcs: u32,
    /// Call-DAG depth (levels); bounds RAS depth.
    pub n_levels: u32,
    /// Basic-block payload size range (non-CTI instructions per block).
    pub block_insts: (u32, u32),
    /// Fraction of payload instructions that are loads.
    pub load_frac: f64,
    /// Fraction of payload instructions that are stores.
    pub store_frac: f64,
    /// Fraction of payload instructions that are integer multiplies.
    pub mul_frac: f64,
    /// Fraction of payload instructions that are floating point.
    pub fp_frac: f64,
    /// Of conditional branches: fraction that are loop back-edges.
    pub loop_frac: f64,
    /// Of conditional branches: fraction following a periodic pattern.
    pub pattern_frac: f64,
    /// Of conditional branches: fraction that are data-dependent/hard
    /// (the remainder are strongly biased and easy).
    pub hard_frac: f64,
    /// Taken probability band for hard branches (min, max).
    pub hard_p: (f64, f64),
    /// Mean loop trip count.
    pub trip_mean: u32,
    /// Fraction of loops whose trip count varies between visits.
    pub trip_jitter_frac: f64,
    /// Data footprint in KB (regions addressed by loads/stores).
    pub d_footprint_kb: u32,
    /// Of memory references: fraction using random (pointer-chasing)
    /// addressing over the data footprint; the rest stride or hit the
    /// stack.
    pub d_random_frac: f64,
    /// Of memory references: fraction hitting the (always-warm) stack.
    pub d_stack_frac: f64,
    /// Of pointer-chasing sites: fraction roaming the full data footprint
    /// (the rest chase hot, cache-resident structures).
    pub d_cold_frac: f64,
    /// Call sites per function body (density of the call DAG).
    pub call_sites: (u32, u32),
    /// Zipf exponent for callee popularity (higher = hotter hot set).
    pub zipf_alpha: f64,
}

impl BenchmarkProfile {
    /// Target static instruction count.
    pub fn target_insts(&self) -> u64 {
        self.i_footprint_kb as u64 * 1024 / 4
    }
}

/// The twelve SPECint2000 benchmarks the paper simulates (Figure 6 order),
/// parameterised to echo their published first-order behaviour.
pub fn specint2000() -> Vec<BenchmarkProfile> {
    vec![
        // gzip: tiny hot loops, very predictable, modest data side.
        BenchmarkProfile {
            name: "gzip",
            i_footprint_kb: 4,
            n_funcs: 10,
            n_levels: 3,
            block_insts: (6, 14),
            load_frac: 0.21,
            store_frac: 0.08,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.55,
            pattern_frac: 0.050,
            hard_frac: 0.015,
            hard_p: (0.30, 0.70),
            trip_mean: 24,
            trip_jitter_frac: 0.18,
            d_footprint_kb: 256,
            d_random_frac: 0.15,
            d_stack_frac: 0.40,
            d_cold_frac: 0.03,
            call_sites: (1, 2),
            zipf_alpha: 1.2,
        },
        // vpr: mid-size code, placement/routing with hard branches.
        BenchmarkProfile {
            name: "vpr",
            i_footprint_kb: 24,
            n_funcs: 40,
            n_levels: 4,
            block_insts: (5, 10),
            load_frac: 0.24,
            store_frac: 0.09,
            mul_frac: 0.02,
            fp_frac: 0.04,
            loop_frac: 0.40,
            pattern_frac: 0.060,
            hard_frac: 0.033,
            hard_p: (0.30, 0.70),
            trip_mean: 10,
            trip_jitter_frac: 0.30,
            d_footprint_kb: 2048,
            d_random_frac: 0.30,
            d_stack_frac: 0.35,
            d_cold_frac: 0.05,
            call_sites: (1, 3),
            zipf_alpha: 0.75,
        },
        // gcc: the big-code benchmark; short blocks, many functions.
        BenchmarkProfile {
            name: "gcc",
            i_footprint_kb: 256,
            n_funcs: 320,
            n_levels: 6,
            block_insts: (4, 9),
            load_frac: 0.23,
            store_frac: 0.11,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.35,
            pattern_frac: 0.075,
            hard_frac: 0.025,
            hard_p: (0.30, 0.70),
            trip_mean: 6,
            trip_jitter_frac: 0.36,
            d_footprint_kb: 2048,
            d_random_frac: 0.25,
            d_stack_frac: 0.40,
            d_cold_frac: 0.05,
            call_sites: (1, 4),
            zipf_alpha: 0.6,
        },
        // mcf: tiny code, brutal data side (pointer chasing over a huge
        // working set): memory bound, lowest IPC.
        BenchmarkProfile {
            name: "mcf",
            i_footprint_kb: 6,
            n_funcs: 12,
            n_levels: 3,
            block_insts: (5, 10),
            load_frac: 0.31,
            store_frac: 0.08,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.45,
            pattern_frac: 0.040,
            hard_frac: 0.022,
            hard_p: (0.35, 0.65),
            trip_mean: 16,
            trip_jitter_frac: 0.30,
            d_footprint_kb: 16 << 10,
            d_random_frac: 0.70,
            d_stack_frac: 0.10,
            d_cold_frac: 0.45,
            call_sites: (1, 2),
            zipf_alpha: 1.2,
        },
        // crafty: chess search; mid-large code, branchy and hard.
        BenchmarkProfile {
            name: "crafty",
            i_footprint_kb: 64,
            n_funcs: 90,
            n_levels: 5,
            block_insts: (5, 11),
            load_frac: 0.22,
            store_frac: 0.07,
            mul_frac: 0.02,
            fp_frac: 0.0,
            loop_frac: 0.35,
            pattern_frac: 0.050,
            hard_frac: 0.035,
            hard_p: (0.30, 0.70),
            trip_mean: 8,
            trip_jitter_frac: 0.36,
            d_footprint_kb: 1024,
            d_random_frac: 0.25,
            d_stack_frac: 0.40,
            d_cold_frac: 0.05,
            call_sites: (1, 3),
            zipf_alpha: 0.75,
        },
        // parser: dictionary lookups, mid code, hard branches.
        BenchmarkProfile {
            name: "parser",
            i_footprint_kb: 40,
            n_funcs: 70,
            n_levels: 5,
            block_insts: (4, 9),
            load_frac: 0.25,
            store_frac: 0.10,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.38,
            pattern_frac: 0.050,
            hard_frac: 0.030,
            hard_p: (0.30, 0.70),
            trip_mean: 7,
            trip_jitter_frac: 0.36,
            d_footprint_kb: 1024,
            d_random_frac: 0.30,
            d_stack_frac: 0.35,
            d_cold_frac: 0.06,
            call_sites: (1, 3),
            zipf_alpha: 0.75,
        },
        // eon: C++ ray tracer; long predictable blocks, high ILP — the
        // benchmark where prefetching pays most (Figure 6's biggest CLGP
        // win).
        BenchmarkProfile {
            name: "eon",
            i_footprint_kb: 96,
            n_funcs: 120,
            n_levels: 5,
            block_insts: (8, 16),
            load_frac: 0.23,
            store_frac: 0.12,
            mul_frac: 0.02,
            fp_frac: 0.10,
            loop_frac: 0.50,
            pattern_frac: 0.040,
            hard_frac: 0.007,
            hard_p: (0.40, 0.60),
            trip_mean: 12,
            trip_jitter_frac: 0.12,
            d_footprint_kb: 512,
            d_random_frac: 0.10,
            d_stack_frac: 0.45,
            d_cold_frac: 0.02,
            call_sites: (2, 4),
            zipf_alpha: 0.6,
        },
        // perlbmk: interpreter; large code, dispatch patterns.
        BenchmarkProfile {
            name: "perlbmk",
            i_footprint_kb: 128,
            n_funcs: 180,
            n_levels: 6,
            block_insts: (5, 10),
            load_frac: 0.25,
            store_frac: 0.12,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.32,
            pattern_frac: 0.070,
            hard_frac: 0.020,
            hard_p: (0.30, 0.70),
            trip_mean: 6,
            trip_jitter_frac: 0.30,
            d_footprint_kb: 2048,
            d_random_frac: 0.30,
            d_stack_frac: 0.40,
            d_cold_frac: 0.05,
            call_sites: (2, 4),
            zipf_alpha: 0.6,
        },
        // gap: group theory; mid-large code, fairly predictable.
        BenchmarkProfile {
            name: "gap",
            i_footprint_kb: 64,
            n_funcs: 100,
            n_levels: 5,
            block_insts: (5, 11),
            load_frac: 0.24,
            store_frac: 0.10,
            mul_frac: 0.03,
            fp_frac: 0.0,
            loop_frac: 0.45,
            pattern_frac: 0.050,
            hard_frac: 0.015,
            hard_p: (0.35, 0.65),
            trip_mean: 10,
            trip_jitter_frac: 0.24,
            d_footprint_kb: 2048,
            d_random_frac: 0.20,
            d_stack_frac: 0.40,
            d_cold_frac: 0.04,
            call_sites: (1, 3),
            zipf_alpha: 0.6,
        },
        // vortex: OO database; the classic big-I-footprint prefetch target.
        BenchmarkProfile {
            name: "vortex",
            i_footprint_kb: 160,
            n_funcs: 200,
            n_levels: 6,
            block_insts: (6, 12),
            load_frac: 0.26,
            store_frac: 0.14,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.35,
            pattern_frac: 0.050,
            hard_frac: 0.013,
            hard_p: (0.35, 0.65),
            trip_mean: 7,
            trip_jitter_frac: 0.24,
            d_footprint_kb: 4096,
            d_random_frac: 0.25,
            d_stack_frac: 0.40,
            d_cold_frac: 0.04,
            call_sites: (2, 4),
            zipf_alpha: 0.6,
        },
        // bzip2: small hot loops like gzip, bigger data.
        BenchmarkProfile {
            name: "bzip2",
            i_footprint_kb: 8,
            n_funcs: 14,
            n_levels: 3,
            block_insts: (6, 13),
            load_frac: 0.24,
            store_frac: 0.09,
            mul_frac: 0.01,
            fp_frac: 0.0,
            loop_frac: 0.52,
            pattern_frac: 0.050,
            hard_frac: 0.020,
            hard_p: (0.30, 0.70),
            trip_mean: 18,
            trip_jitter_frac: 0.18,
            d_footprint_kb: 4096,
            d_random_frac: 0.30,
            d_stack_frac: 0.30,
            d_cold_frac: 0.1,
            call_sites: (1, 2),
            zipf_alpha: 1.2,
        },
        // twolf: place & route; mid code, hard branches.
        BenchmarkProfile {
            name: "twolf",
            i_footprint_kb: 32,
            n_funcs: 60,
            n_levels: 4,
            block_insts: (4, 9),
            load_frac: 0.23,
            store_frac: 0.09,
            mul_frac: 0.02,
            fp_frac: 0.02,
            loop_frac: 0.38,
            pattern_frac: 0.060,
            hard_frac: 0.033,
            hard_p: (0.30, 0.70),
            trip_mean: 8,
            trip_jitter_frac: 0.36,
            d_footprint_kb: 1024,
            d_random_frac: 0.35,
            d_stack_frac: 0.30,
            d_cold_frac: 0.08,
            call_sites: (1, 3),
            zipf_alpha: 0.75,
        },
    ]
}

/// Look up one profile by name.
pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
    specint2000().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_in_figure6_order() {
        let names: Vec<_> = specint2000().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap",
                "vortex", "bzip2", "twolf"
            ]
        );
    }

    #[test]
    fn fractions_are_sane() {
        for p in specint2000() {
            assert!(p.load_frac + p.store_frac + p.mul_frac + p.fp_frac < 0.8, "{}", p.name);
            assert!(
                p.loop_frac + p.pattern_frac + p.hard_frac <= 1.0,
                "{}",
                p.name
            );
            assert!(p.hard_p.0 <= p.hard_p.1 && p.hard_p.1 <= 1.0, "{}", p.name);
            assert!(p.d_random_frac + p.d_stack_frac <= 1.0, "{}", p.name);
            assert!(p.block_insts.0 >= 1 && p.block_insts.0 <= p.block_insts.1);
            assert!(p.n_levels >= 2 && p.n_funcs >= p.n_levels);
        }
    }

    #[test]
    fn footprints_span_the_interesting_range() {
        let profs = specint2000();
        let min = profs.iter().map(|p| p.i_footprint_kb).min().unwrap();
        let max = profs.iter().map(|p| p.i_footprint_kb).max().unwrap();
        // The sweep runs 256B..64KB: footprints must straddle it.
        assert!(min <= 8);
        assert!(max >= 128);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("gcc").unwrap().i_footprint_kb, 256);
        assert!(by_name("nonesuch").is_none());
    }
}
