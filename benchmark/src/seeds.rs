//! Seed plumbing: one `--seed` feeds every random choice the benchmark makes,
//! each through its own stream so the choices stay independent.

/// SplitMix64: the benchmark's only random generator (op order, shuffles,
/// probe inputs). The program under test never sees it — only what it draws.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The per-purpose seeds derived from `--seed`.
///
/// The network is not among them: the Medium LAN of the `paper_scale` preset
/// (topology seed 1, the network behind `BENCH_SCALE.json`) is part of what a
/// workload *is*. Drawing it from the seed too spread `packets_per_op` over
/// seeds by 5–9 % on the burst workloads instead of 1–2 %, and `ns_per_packet`
/// by 11 % instead of 7 %, which no bound under the contract's cap can hold
/// three times over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Session planner seed (endpoints, join times, churn targets).
    pub planner: u64,
    /// Fault-plan seed.
    pub faults: u64,
    /// Op order, session order and probe inputs drawn by the benchmark.
    pub ops: u64,
}

impl Seeds {
    /// Derives the three streams from the command-line seed.
    pub fn derive(seed: u64) -> Self {
        let mut g = SplitMix64::new(seed);
        Seeds {
            planner: g.next_u64(),
            faults: g.next_u64(),
            ops: g.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_order(seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..64).collect();
        SplitMix64::new(Seeds::derive(seed).ops).shuffle(&mut order);
        order
    }

    #[test]
    fn one_seed_gives_one_op_order_and_two_seeds_give_two() {
        assert_eq!(op_order(1), op_order(1));
        assert_ne!(op_order(1), op_order(2));
        let mut sorted = op_order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn the_streams_of_one_seed_differ() {
        let s = Seeds::derive(1);
        let all = [s.planner, s.faults, s.ops];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Seeds::derive(1), s);
        assert_ne!(Seeds::derive(2), s);
    }
}
