//! VM migration accounting between consecutive slot plans.
//!
//! Consolidation-style policies repack aggressively and therefore move
//! VMs between physical hosts at every re-allocation; live migration
//! costs network traffic and downtime, so the number of moved VMs is a
//! standard secondary metric (the paper cites migration-based methods
//! [Ruan et al.] as related work). Server indices are arbitrary labels
//! within each plan, so a naive index comparison over-counts; this
//! module first matches each new server to the old server it inherited
//! the most VMs from, then counts the VMs that actually moved.

use std::collections::HashMap;

use crate::SlotPlan;

/// Number of VMs that must migrate to get from `prev` to `next`.
///
/// Each server of `next` is matched (greedily, largest overlap first)
/// to at most one server of `prev`; VMs not covered by their server's
/// match are counted as migrations. A pure relabeling therefore costs
/// zero.
///
/// # Panics
///
/// Panics if the two plans cover different VM counts.
///
/// # Examples
///
/// ```
/// use ntc_core::{migration_count, SlotPlan};
/// use ntc_units::Frequency;
///
/// let f = Frequency::from_ghz(1.9);
/// let fmin = Frequency::from_mhz(100.0);
/// let fmax = Frequency::from_ghz(3.1);
/// let a = SlotPlan::new(vec![0, 0, 1], 2, 61.0, f, fmin, fmax);
/// // same grouping, labels swapped: no migration
/// let b = SlotPlan::new(vec![1, 1, 0], 2, 61.0, f, fmin, fmax);
/// assert_eq!(migration_count(&a, &b), 0);
/// ```
pub fn migration_count(prev: &SlotPlan, next: &SlotPlan) -> usize {
    assert_eq!(
        prev.assignments().len(),
        next.assignments().len(),
        "plans must cover the same fleet"
    );

    // overlap[(new, old)] = number of shared VMs
    let mut overlap: HashMap<(usize, usize), usize> = HashMap::new();
    for (vm, (&new_s, &old_s)) in next
        .assignments()
        .iter()
        .zip(prev.assignments())
        .enumerate()
    {
        let _ = vm;
        *overlap.entry((new_s, old_s)).or_insert(0) += 1;
    }

    // Greedy maximum matching by descending overlap.
    let mut pairs: Vec<((usize, usize), usize)> = overlap.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut new_matched: HashMap<usize, usize> = HashMap::new();
    let mut old_taken: Vec<bool> = vec![false; prev.num_servers()];
    for ((new_s, old_s), _) in pairs {
        if !new_matched.contains_key(&new_s) && !old_taken[old_s] {
            new_matched.insert(new_s, old_s);
            old_taken[old_s] = true;
        }
    }

    next.assignments()
        .iter()
        .zip(prev.assignments())
        .filter(|&(&new_s, &old_s)| new_matched.get(&new_s) != Some(&old_s))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_units::Frequency;

    fn plan(assignments: Vec<usize>, n: usize) -> SlotPlan {
        SlotPlan::new(
            assignments,
            n,
            61.0,
            Frequency::from_ghz(1.9),
            Frequency::from_mhz(100.0),
            Frequency::from_ghz(3.1),
        )
    }

    #[test]
    fn identical_plans_have_zero_migrations() {
        let a = plan(vec![0, 1, 0, 1], 2);
        assert_eq!(migration_count(&a, &a.clone()), 0);
    }

    #[test]
    fn relabeling_is_free() {
        let a = plan(vec![0, 0, 1, 1, 2], 3);
        let b = plan(vec![2, 2, 0, 0, 1], 3);
        assert_eq!(migration_count(&a, &b), 0);
    }

    #[test]
    fn single_move_counts_once() {
        let a = plan(vec![0, 0, 1, 1], 2);
        let b = plan(vec![0, 1, 1, 1], 2);
        assert_eq!(migration_count(&a, &b), 1);
    }

    #[test]
    fn full_reshuffle_counts_most_vms() {
        let a = plan(vec![0, 0, 0, 1, 1, 1], 2);
        let b = plan(vec![0, 1, 0, 1, 0, 1], 2);
        // best matching keeps at most 2+2 VMs in place -> 2 migrations
        assert_eq!(migration_count(&a, &b), 2);
    }

    #[test]
    fn consolidation_from_spread_counts_moves() {
        // 4 servers -> 1 server: three of the four VMs must move.
        let a = plan(vec![0, 1, 2, 3], 4);
        let b = plan(vec![0, 0, 0, 0], 1);
        assert_eq!(migration_count(&a, &b), 3);
    }

    #[test]
    #[should_panic(expected = "same fleet")]
    fn mismatched_fleets_rejected() {
        let a = plan(vec![0], 1);
        let b = plan(vec![0, 0], 1);
        let _ = migration_count(&a, &b);
    }
}
