//! Property-based tests of the allocation algorithms.

use ntc_core::{migration_count, OneDimAllocator, SlotPlan, TwoDimAllocator, MEM_CAP};
use ntc_trace::{CorrelationCache, DayCache, LazyPatternStats, TimeSeries};
use ntc_units::Frequency;
use proptest::prelude::*;

fn vm_cpu(n: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..30.0, len), n)
}

/// Memory series of `n` VMs that sometimes overflow when two share a
/// server.
fn vm_mem(n: usize, len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..60.0, len), n)
}

fn to_series(v: Vec<Vec<f64>>) -> Vec<TimeSeries> {
    v.into_iter().map(TimeSeries::from_values).collect()
}

/// Algorithm 1 as the paper states it, plus the memory cap, the
/// reference for [`OneDimAllocator::allocate_with_cache`]: the pool in
/// first-fit-decreasing order of CPU peak, each empty server taking the
/// pool's first VM, and each scan visiting the pool in order, checking
/// the CPU cap and [`MEM_CAP`] sample by sample before scoring a
/// candidate, and keeping the first maximum of φ. `cov(S, v)` comes
/// from [`LazyPatternStats`], summed over the server's members in
/// admission order from `+0.0`.
fn plain_alg1(
    cpu: &[TimeSeries],
    mem: &[TimeSeries],
    cache: &CorrelationCache,
    cap: f64,
) -> Vec<usize> {
    let peaks: Vec<f64> = cpu.iter().map(TimeSeries::peak).collect();
    let mut pool: Vec<usize> = (0..cpu.len()).collect();
    pool.sort_by(|&a, &b| peaks[b].partial_cmp(&peaks[a]).expect("finite"));
    let mut assignment = vec![usize::MAX; cpu.len()];
    let mut server = 0;
    let mut pattern = TimeSeries::zeros(cpu[0].len());
    let mut mem_pattern = TimeSeries::zeros(cpu[0].len());
    let mut stats = LazyPatternStats::new();
    let mut server_empty = true;
    while !pool.is_empty() {
        // (pool position, φ, cov(S, vm))
        let mut best: Option<(usize, f64, f64)> = None;
        if server_empty {
            best = Some((0, 0.0, stats.covariance_with(cache, pool[0])));
        } else {
            for (pos, &vm) in pool.iter().enumerate() {
                if pattern.sum_exceeds(&cpu[vm], cap, 1e-9)
                    || mem_pattern.sum_exceeds(&mem[vm], MEM_CAP, 1e-9)
                {
                    continue;
                }
                let cov = stats.covariance_with(cache, vm);
                let phi = stats.complement_correlation(cache, vm, cov);
                if best.is_none_or(|(_, b, _)| phi > b) {
                    best = Some((pos, phi, cov));
                }
            }
        }
        match best {
            Some((pos, _, cov)) => {
                let vm = pool.remove(pos);
                pattern.add_in_place(&cpu[vm]);
                mem_pattern.add_in_place(&mem[vm]);
                stats.admit(cache, vm, cov);
                assignment[vm] = server;
                server_empty = false;
            }
            None => {
                server += 1;
                pattern.reset_zeros(cpu[0].len());
                mem_pattern.reset_zeros(cpu[0].len());
                stats = LazyPatternStats::new();
                server_empty = true;
            }
        }
    }
    assignment
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn alg1_places_every_vm_exactly_once(cpu in vm_cpu(10, 6), mem in vm_mem(10, 6)) {
        let cpu = to_series(cpu);
        let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
        let a = alloc.allocate(&cpu, &to_series(mem));
        prop_assert_eq!(a.len(), cpu.len());
        // server ids are contiguous from 0
        let max = a.iter().copied().max().unwrap();
        for s in 0..=max {
            prop_assert!(a.contains(&s), "server {} is empty", s);
        }
    }

    #[test]
    fn alg1_respects_cap_for_multi_vm_servers(cpu in vm_cpu(12, 4), mem in vm_mem(12, 4)) {
        let cpu = to_series(cpu);
        let mem = to_series(mem);
        let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
        let a = alloc.allocate(&cpu, &mem);
        let servers = a.iter().copied().max().unwrap() + 1;
        for s in 0..servers {
            let members: Vec<&TimeSeries> =
                a.iter().enumerate().filter(|&(_, &x)| x == s).map(|(vm, _)| &cpu[vm]).collect();
            if members.len() < 2 {
                continue; // a lone oversized VM is admitted unconditionally
            }
            let agg = TimeSeries::aggregate(4, members.iter().copied());
            prop_assert!(
                !agg.exceeds(alloc.cap_cpu(), 1e-6),
                "server {} exceeds cap with {} VMs",
                s,
                members.len()
            );
            let agg_mem = TimeSeries::aggregate(
                4,
                a.iter().enumerate().filter(|&(_, &x)| x == s).map(|(vm, _)| &mem[vm]),
            );
            prop_assert!(!agg_mem.exceeds(MEM_CAP, 1e-6), "server {} overflows memory", s);
        }
    }

    #[test]
    fn alg1_is_deterministic(cpu in vm_cpu(8, 4), mem in vm_mem(8, 4)) {
        let cpu = to_series(cpu);
        let mem = to_series(mem);
        let alloc = OneDimAllocator::new(Frequency::from_ghz(1.9), Frequency::from_ghz(3.1));
        prop_assert_eq!(alloc.allocate(&cpu, &mem), alloc.allocate(&cpu, &mem));
    }

    #[test]
    fn alg2_feasible_per_sample(
        cpu in vm_cpu(10, 4),
        mem in prop::collection::vec(prop::collection::vec(0.0f64..20.0, 4), 10),
    ) {
        let cpu = to_series(cpu);
        let mem = to_series(mem);
        let alloc = TwoDimAllocator::new(61.3, 3);
        let a = alloc.allocate(&cpu, &mem);
        let servers = a.iter().copied().max().unwrap() + 1;
        for s in 0..servers {
            let members: Vec<usize> =
                a.iter().enumerate().filter(|&(_, &x)| x == s).map(|(vm, _)| vm).collect();
            if members.len() < 2 {
                continue;
            }
            let agg_cpu = TimeSeries::aggregate(4, members.iter().map(|&v| &cpu[v]));
            let agg_mem = TimeSeries::aggregate(4, members.iter().map(|&v| &mem[v]));
            prop_assert!(!agg_cpu.exceeds(61.3, 1e-6));
            prop_assert!(!agg_mem.exceeds(100.0, 1e-6));
        }
    }

    #[test]
    fn migrations_bounded_by_fleet_size(
        a in prop::collection::vec(0usize..4, 12),
        b in prop::collection::vec(0usize..4, 12),
    ) {
        let f = Frequency::from_ghz(1.9);
        let fmin = Frequency::from_mhz(100.0);
        let fmax = Frequency::from_ghz(3.1);
        let norm = |v: Vec<usize>| -> SlotPlan {
            // compact indices so num_servers matches
            let max = v.iter().copied().max().unwrap_or(0);
            SlotPlan::new(v, max + 1, 61.3, f, fmin, fmax)
        };
        let pa = norm(a);
        let pb = norm(b);
        let m = migration_count(&pa, &pb);
        prop_assert!(m <= 12);
        prop_assert_eq!(migration_count(&pa, &pa.clone()), 0);
    }

    #[test]
    fn migration_symmetry_under_relabeling(assign in prop::collection::vec(0usize..3, 9)) {
        // relabeling servers (0<->1<->2 rotation) costs nothing
        let f = Frequency::from_ghz(1.9);
        let fmin = Frequency::from_mhz(100.0);
        let fmax = Frequency::from_ghz(3.1);
        let rotated: Vec<usize> = assign.iter().map(|&s| (s + 1) % 3).collect();
        let pa = SlotPlan::new(assign, 3, 61.3, f, fmin, fmax);
        let pb = SlotPlan::new(rotated, 3, 61.3, f, fmin, fmax);
        prop_assert_eq!(migration_count(&pa, &pb), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 1 must place every VM where the plain reference does,
    /// on every cache a slot can bring: owned, and windowed over one
    /// block or several. The inputs cover a flat series (the σ floor),
    /// duplicated series (exact φ ties), slot lengths 1 to 13 (below,
    /// at and off multiples of 4), caps that some VMs exceed alone, and
    /// memory that binds on some servers and not on others.
    #[test]
    fn alg1_matches_plain_reference(
        (n, block, blocks) in (2usize..15, 1usize..14, 1usize..4),
        values in prop::collection::vec(0.0f64..40.0, 14 * 13 * 3),
        (flat, twins) in (0usize..20, prop::collection::vec(0usize..42, 14)),
        (first, width, cap) in (0usize..3, 1usize..4, 8.0f64..99.0),
        (mem_values, mem_scale) in (prop::collection::vec(0.0f64..1.0, 14 * 13 * 3), 0.0f64..90.0),
    ) {
        let day_len = block * blocks;
        let mut series: Vec<TimeSeries> = Vec::with_capacity(n);
        for i in 0..n {
            let row = &values[i * day_len..(i + 1) * day_len];
            let s = if i == flat {
                TimeSeries::constant(day_len, row[0])
            } else if twins[i] < i {
                series[twins[i]].clone()
            } else {
                TimeSeries::from_values(row.to_vec())
            };
            series.push(s);
        }
        let k0 = first.min(blocks - 1);
        let window = k0 * block..(k0 + width).min(blocks) * block;
        let cpu: Vec<TimeSeries> = series.iter().map(|s| s.window(window.clone())).collect();
        let mem: Vec<TimeSeries> = (0..n)
            .map(|i| {
                let row = &mem_values[i * day_len..(i + 1) * day_len];
                TimeSeries::from_values(row[window.clone()].iter().map(|v| v * mem_scale).collect())
            })
            .collect();
        let alloc = OneDimAllocator::new(Frequency::from_mhz(cap * 31.0), Frequency::from_ghz(3.1));
        let day = DayCache::with_block_size(&series, block);
        for (kind, cache) in [
            ("owned", CorrelationCache::new(&cpu)),
            ("windowed", CorrelationCache::from_day_window(&day, window.clone())),
        ] {
            prop_assert_eq!(
                alloc.allocate_with_cache(&cpu, &mem, &cache),
                plain_alg1(&cpu, &mem, &cache, alloc.cap_cpu()),
                "{} cache, {} VMs, window {:?} in blocks of {}, cap {}",
                kind,
                n,
                window,
                block,
                cap
            );
        }
    }
}
