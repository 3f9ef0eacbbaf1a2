//! Conservation laws every cell's `SimStats` must satisfy.  A cell that
//! breaks one counts as a failed operation.

use prestage_sim::SimStats;

/// Names of the laws `s` breaks (empty when the cell is consistent).
pub fn broken_laws(s: &SimStats) -> Vec<&'static str> {
    let p = &s.pred;
    let b = &s.backend;
    let checks = [
        ("backend.committed == committed", b.committed == s.committed),
        (
            "pred.predictions == front.blocks_pushed",
            p.predictions == s.front.blocks_pushed,
        ),
        ("front.flushes == redirects", s.front.flushes == s.redirects),
        (
            "fetched insts >= committed",
            s.front.total_fetch_insts() >= s.committed,
        ),
        (
            "dcache hits + misses == loads + stores",
            b.dcache_hits + b.dcache_misses == b.loads + b.stores,
        ),
        (
            "predictor supply sources sum to predictions",
            p.l1_supplied + p.l2_supplied + p.fallback_supplied == p.predictions,
        ),
        ("train_correct <= trained", p.train_correct <= p.trained),
        (
            "commit_stall_cycles <= cycles",
            b.commit_stall_cycles <= s.cycles,
        ),
    ];
    checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, self-consistent cell.
    fn consistent() -> SimStats {
        let mut s = SimStats {
            cycles: 1000,
            committed: 800,
            redirects: 5,
            ..Default::default()
        };
        s.backend.committed = 800;
        s.backend.loads = 100;
        s.backend.stores = 50;
        s.backend.dcache_hits = 140;
        s.backend.dcache_misses = 10;
        s.backend.commit_stall_cycles = 300;
        s.pred.predictions = 120;
        s.pred.l1_supplied = 90;
        s.pred.l2_supplied = 20;
        s.pred.fallback_supplied = 10;
        s.pred.trained = 110;
        s.pred.train_correct = 100;
        s.front.blocks_pushed = 120;
        s.front.flushes = 5;
        s.front.fetch_l1.insts = 900;
        s
    }

    #[test]
    fn consistent_stats_pass_every_law() {
        assert!(broken_laws(&consistent()).is_empty());
    }

    #[test]
    fn each_law_trips_on_doctored_stats() {
        type Doctor = fn(&mut SimStats);
        let cases: [(Doctor, &str); 8] = [
            (
                |s| s.backend.committed += 1,
                "backend.committed == committed",
            ),
            (
                |s| s.front.blocks_pushed += 1,
                "pred.predictions == front.blocks_pushed",
            ),
            (|s| s.front.flushes += 1, "front.flushes == redirects"),
            (
                |s| s.front.fetch_l1.insts = 799,
                "fetched insts >= committed",
            ),
            (
                |s| s.backend.dcache_misses += 1,
                "dcache hits + misses == loads + stores",
            ),
            (
                |s| s.pred.l2_supplied += 1,
                "predictor supply sources sum to predictions",
            ),
            (|s| s.pred.train_correct = 111, "train_correct <= trained"),
            (
                |s| s.backend.commit_stall_cycles = 1001,
                "commit_stall_cycles <= cycles",
            ),
        ];
        for (doctor, law) in cases {
            let mut s = consistent();
            doctor(&mut s);
            assert_eq!(broken_laws(&s), vec![law]);
        }
    }
}
