//! Relative-error distributions of assigned versus max-min fair rates
//! (Experiment 3, Figure 7 of the paper).

use crate::percentile::Summary;
use bneck_maxmin::{Allocation, CentralizedSolution, SessionId};
use bneck_sim::SimTime;

/// One sampling instant of an error distribution: the summary statistics of
/// the per-session (or per-link) relative errors at that time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Summary of the relative errors, in percent.
    pub summary: Summary,
}

/// Per-session relative errors at the sources, in percent:
/// `e = 100 · (a − x) / x` where `a` is the rate currently assigned by the
/// protocol and `x` the max-min fair rate (Figure 7, left side).
///
/// Sessions without a max-min rate (or with a zero one) are skipped. Positive
/// values mean the protocol overestimates the rate; negative values mean it is
/// conservative.
pub fn rate_errors(assigned: &Allocation, fair: &Allocation) -> Vec<f64> {
    fair.iter()
        .filter_map(|(session, x)| {
            if x <= 0.0 {
                return None;
            }
            let a = assigned.rate(session).unwrap_or(0.0);
            Some(100.0 * (a - x) / x)
        })
        .collect()
}

/// Per-bottleneck-link relative errors, in percent:
/// `e = 100 · (sa − sx) / sx` where `sa` is the sum of assigned rates of the
/// sessions crossing the bottleneck link and `sx` the sum of their max-min
/// rates (Figure 7, right side). Positive values mean the link would be
/// overloaded by the current assignment.
pub fn link_stress_errors(assigned: &Allocation, solution: &CentralizedSolution) -> Vec<f64> {
    solution
        .bottleneck_links()
        .filter_map(|link| {
            let crossing: Vec<SessionId> = link
                .restricted
                .iter()
                .chain(link.unrestricted.iter())
                .copied()
                .collect();
            let sx: f64 = crossing
                .iter()
                .filter_map(|s| solution.allocation.rate(*s))
                .sum();
            if sx <= 0.0 {
                return None;
            }
            let sa: f64 = crossing
                .iter()
                .map(|s| assigned.rate(*s).unwrap_or(0.0))
                .sum();
            Some(100.0 * (sa - sx) / sx)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bneck_maxmin::prelude::*;
    use bneck_net::prelude::*;

    fn dumbbell_solution() -> (Allocation, CentralizedSolution) {
        let net = synthetic::dumbbell(
            2,
            Capacity::from_mbps(100.0),
            Capacity::from_mbps(60.0),
            Delay::from_micros(1),
        );
        let hosts: Vec<_> = net.hosts().map(|h| h.id()).collect();
        let mut router = Router::new(&net);
        let mut sessions = SessionSet::new();
        for i in 0..2 {
            let path = router
                .shortest_path(hosts[2 * i], hosts[2 * i + 1])
                .unwrap();
            sessions.insert(Session::new(
                SessionId(i as u64),
                path,
                RateLimit::unlimited(),
            ));
        }
        let solution = CentralizedBneck::new(&net, &sessions).solve_with_bottlenecks();
        let fair = solution.allocation.clone();
        (fair, solution)
    }

    #[test]
    fn exact_assignment_has_zero_error() {
        let (fair, solution) = dumbbell_solution();
        let errors = rate_errors(&fair, &fair);
        assert_eq!(errors.len(), 2);
        assert!(errors.iter().all(|e| e.abs() < 1e-9));
        let link_errors = link_stress_errors(&fair, &solution);
        assert!(!link_errors.is_empty());
        assert!(link_errors.iter().all(|e| e.abs() < 1e-9));
    }

    #[test]
    fn conservative_assignment_has_negative_error() {
        let (fair, solution) = dumbbell_solution();
        let mut half = Allocation::new();
        for (s, r) in fair.iter() {
            half.set(s, r / 2.0);
        }
        let errors = rate_errors(&half, &fair);
        assert!(errors.iter().all(|e| (*e - (-50.0)).abs() < 1e-9));
        let link_errors = link_stress_errors(&half, &solution);
        assert!(link_errors.iter().all(|e| (*e - (-50.0)).abs() < 1e-9));
    }

    #[test]
    fn overshooting_assignment_has_positive_error() {
        let (fair, solution) = dumbbell_solution();
        let mut over = Allocation::new();
        for (s, r) in fair.iter() {
            over.set(s, r * 1.2);
        }
        assert!(rate_errors(&over, &fair)
            .iter()
            .all(|e| (*e - 20.0).abs() < 1e-9));
        assert!(link_stress_errors(&over, &solution)
            .iter()
            .all(|e| (*e - 20.0).abs() < 1e-9));
    }

    #[test]
    fn missing_sessions_count_as_zero_rate() {
        let (fair, _) = dumbbell_solution();
        let empty = Allocation::new();
        let errors = rate_errors(&empty, &fair);
        assert!(errors.iter().all(|e| (*e - (-100.0)).abs() < 1e-9));
    }

    #[test]
    fn error_sample_is_serializable_summary() {
        let sample = ErrorSample {
            at: SimTime::from_millis(3),
            summary: Summary::of(&[-5.0, 0.0, 5.0]),
        };
        assert_eq!(sample.summary.count, 3);
        assert_eq!(sample.summary.mean, 0.0);
    }
}
