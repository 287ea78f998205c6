//! Exact prefix compression: the cover the compiler's exact and
//! TCAM-budgeted policies choose ([`crate::compiler`]).
//!
//! The subnet policy holds one *subnet* rule per port and bound subnet —
//! small but over-permissive (unassigned addresses in the subnet pass). This
//! module computes the **minimal exact CIDR cover** of a set of addresses:
//! the smallest list of prefixes whose union is exactly that set. Rules
//! compiled from the exact cover admit precisely the bound addresses while
//! still merging dense ranges (a port fronting `10.0.1.64/26` worth of
//! hosts costs 1 rule instead of 64).
//!
//! Algorithm: sort, fold complete sibling pairs bottom-up — the classic
//! CIDR aggregation, O(n log n).

use sav_net::addr::Ipv4Cidr;
use std::net::Ipv4Addr;

/// Compute the minimal exact CIDR cover of `addrs` (duplicates welcome).
///
/// Properties (see the property tests):
/// * the union of the result equals the input set exactly;
/// * no two output prefixes are siblings (no further merge possible);
/// * output prefixes are disjoint and sorted.
pub fn exact_cover(addrs: &[Ipv4Addr]) -> Vec<Ipv4Cidr> {
    let mut prefixes: Vec<Ipv4Cidr> = addrs.iter().map(|&a| Ipv4Cidr::host(a)).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    // Repeatedly merge adjacent complete sibling pairs. One left-to-right
    // pass per level is enough because merging produces a parent that can
    // only merge with a *later* sibling after re-examination; loop until a
    // fixed point (at most 32 passes).
    loop {
        let mut merged = Vec::with_capacity(prefixes.len());
        let mut changed = false;
        let mut i = 0;
        while i < prefixes.len() {
            if i + 1 < prefixes.len() && prefixes[i].is_sibling(&prefixes[i + 1]) {
                merged.push(prefixes[i].parent().expect("sibling implies parent"));
                changed = true;
                i += 2;
            } else {
                merged.push(prefixes[i]);
                i += 1;
            }
        }
        prefixes = merged;
        if !changed {
            return prefixes;
        }
    }
}

/// Budgeted (adaptive) aggregation: `None` while `addrs` fit within
/// `budget` as plain host rules — precision costs nothing, keep it — and
/// the exact cover once the count exceeds the budget. `budget: None`
/// disables aggregation entirely.
///
/// The threshold is a pure function of the *current* set (no hysteresis):
/// the incremental compiler and a from-scratch compile always agree on
/// whether a port is aggregated, which the differential suite relies on.
/// Note the cover is exact, so a sparse set may still exceed the budget —
/// the budget triggers compression, it never trades precision for space.
pub fn budgeted_cover(addrs: &[Ipv4Addr], budget: Option<usize>) -> Option<Vec<Ipv4Cidr>> {
    let budget = budget?;
    if addrs.len() > budget {
        Some(exact_cover(addrs))
    } else {
        None
    }
}

/// Number of addresses covered by a prefix list (assumes disjoint).
pub fn covered(prefixes: &[Ipv4Cidr]) -> u64 {
    prefixes.iter().map(|p| p.size()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips(specs: &[&str]) -> Vec<Ipv4Addr> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn empty_and_single() {
        assert!(exact_cover(&[]).is_empty());
        let c = exact_cover(&ips(&["10.0.0.5"]));
        assert_eq!(c, vec!["10.0.0.5/32".parse().unwrap()]);
    }

    #[test]
    fn complete_block_merges_fully() {
        let addrs: Vec<Ipv4Addr> = (0..64u32)
            .map(|i| Ipv4Addr::from(0x0a000140 + i)) // 10.0.1.64/26
            .collect();
        let c = exact_cover(&addrs);
        assert_eq!(c, vec!["10.0.1.64/26".parse().unwrap()]);
    }

    #[test]
    fn sparse_addresses_stay_host_routes() {
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.3", "10.0.0.5"]));
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }

    #[test]
    fn partial_merge() {
        // .0 and .1 merge to /31; .3 stays alone.
        let c = exact_cover(&ips(&["10.0.0.0", "10.0.0.1", "10.0.0.3"]));
        assert_eq!(
            c,
            vec![
                "10.0.0.0/31".parse().unwrap(),
                "10.0.0.3/32".parse().unwrap()
            ]
        );
    }

    #[test]
    fn duplicates_are_harmless() {
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.1", "10.0.0.0"]));
        assert_eq!(c, vec!["10.0.0.0/31".parse().unwrap()]);
        assert_eq!(covered(&c), 2);
    }

    #[test]
    fn multi_level_merge() {
        // Two /31 blocks that together form a /30.
        let c = exact_cover(&ips(&["10.0.0.4", "10.0.0.5", "10.0.0.6", "10.0.0.7"]));
        assert_eq!(c, vec!["10.0.0.4/30".parse().unwrap()]);
    }

    #[test]
    fn adjacent_pair_merges_to_slash31() {
        // Aligned neighbours merge; an unaligned pair (odd/even boundary)
        // does not — .1/.2 are adjacent but not siblings.
        let c = exact_cover(&ips(&["10.0.0.8", "10.0.0.9"]));
        assert_eq!(c, vec!["10.0.0.8/31".parse().unwrap()]);
        let c = exact_cover(&ips(&["10.0.0.1", "10.0.0.2"]));
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }

    #[test]
    fn full_slash24_collapses_to_one_prefix() {
        let addrs: Vec<Ipv4Addr> = (0..256u32)
            .map(|i| Ipv4Addr::from(0x0a000200 + i))
            .collect();
        let c = exact_cover(&addrs);
        assert_eq!(c, vec!["10.0.2.0/24".parse().unwrap()]);
        assert_eq!(covered(&c), 256);
        // Knock one address out and the cover fragments exactly.
        let holed: Vec<Ipv4Addr> = addrs
            .iter()
            .copied()
            .filter(|a| *a != "10.0.2.77".parse::<Ipv4Addr>().unwrap())
            .collect();
        let c = exact_cover(&holed);
        assert_eq!(covered(&c), 255);
        assert!(!c.iter().any(|p| p.contains("10.0.2.77".parse().unwrap())));
    }

    #[test]
    fn budget_threshold_is_strictly_greater() {
        let addrs: Vec<Ipv4Addr> = (0..8u32).map(|i| Ipv4Addr::from(0x0a000000 + i)).collect();
        // One below and exactly at the budget: host rules stay.
        assert_eq!(budgeted_cover(&addrs, Some(9)), None);
        assert_eq!(budgeted_cover(&addrs, Some(8)), None);
        // One past the budget: compress to the exact cover.
        let c = budgeted_cover(&addrs, Some(7)).expect("over budget must compress");
        assert_eq!(c, vec!["10.0.0.0/29".parse().unwrap()]);
        // No budget at all: never compress.
        assert_eq!(budgeted_cover(&addrs, None), None);
    }

    #[test]
    fn budgeted_cover_of_sparse_set_may_exceed_budget() {
        // The cover is exact, never lossy: 4 isolated hosts over budget 3
        // still cost 4 prefixes. The budget triggers compression, it does
        // not cap the result.
        let addrs = ips(&["10.0.0.1", "10.0.0.3", "10.0.0.5", "10.0.0.7"]);
        let c = budgeted_cover(&addrs, Some(3)).expect("over budget");
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|p| p.prefix_len() == 32));
    }
}
