//! Criterion benches for the hot-path layers: cached routing
//! (`RouteCache` vs per-call Dijkstra) and spatial radio measurement
//! (grid index vs full scan, and the batched SoA sweep vs both, at
//! 10/100/1k cells). Each pair documents the speed relationship the
//! code relies on — the optimized variant ahead of its reference. The
//! event queue has no pair here: the repository benchmark's
//! `sim.scheduler.hold_ns` and `sim.scheduler.tickwave_ns` time it at
//! each workload's own shape.
//! The equivalence of each pair's *answers* is enforced by property
//! tests (`tests/properties.rs`), so these benches only argue speed.
//!
//! Every sample runs a 10 000-operation batch (the `_x10k` suffix), so
//! sub-microsecond routines are measured well above timer resolution —
//! the vendored criterion stand-in times one closure call per sample.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtnet_net::{Addr, LinkConfig, NodeId, RouteCache, Topology};
use mtnet_radio::{Cell, CellId, CellKind, CellMap};

const BATCH: u64 = 10_000;

/// A two-level access-network-ish topology: one core, `n_gw` gateways,
/// four base stations chained under each gateway.
fn build_topology(n_gw: u32) -> Topology {
    let mut topo = Topology::new();
    let core = topo.add_node(Addr::from_octets(1, 0, 0, 1));
    for g in 0..n_gw {
        let gw = topo.add_node(Addr::from_octets(20, g as u8, 0, 1));
        topo.connect(core, gw, LinkConfig::wide_area());
        let mut parent = gw;
        for b in 0..4u8 {
            let bs = topo.add_node(Addr::from_octets(20, g as u8, 1, b + 1));
            topo.connect(parent, bs, LinkConfig::access());
            parent = bs;
        }
    }
    topo
}

fn bench_next_hop(c: &mut Criterion) {
    let topo = build_topology(8);
    let n = u64::from(topo.node_count() as u32);
    let mut group = c.benchmark_group("next_hop");
    group.sample_size(20);
    group.bench_function("naive_dijkstra_per_call_x10k", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for k in 0..BATCH {
                let i = k * 7 % (n * n);
                let (src, dst) = (NodeId((i / n) as u32), NodeId((i % n) as u32));
                found += u32::from(topo.next_hop_on_path(src, dst).is_some());
            }
            black_box(found)
        })
    });
    group.bench_function("route_cache_x10k", |b| {
        let mut cache = RouteCache::new();
        b.iter(|| {
            let mut found = 0u32;
            for k in 0..BATCH {
                let i = k * 7 % (n * n);
                let (src, dst) = (NodeId((i / n) as u32), NodeId((i % n) as u32));
                found += u32::from(cache.next_hop(&topo, src, dst).is_some());
            }
            black_box(found)
        })
    });
    group.finish();
}

/// A city-scale deployment: a 10×10 micro grid under 4 macro umbrellas.
fn build_cells() -> CellMap {
    let mut map = CellMap::without_shadowing();
    let mut id = 0u32;
    for gx in 0..10 {
        for gy in 0..10 {
            map.add(Cell::new(
                CellId(id),
                CellKind::Micro,
                mtnet_mobility::Point::new(gx as f64 * 400.0, gy as f64 * 400.0),
                NodeId(id),
            ));
            id += 1;
        }
    }
    for mx in 0..2 {
        for my in 0..2 {
            map.add(Cell::new(
                CellId(id),
                CellKind::Macro,
                mtnet_mobility::Point::new(
                    1000.0 + mx as f64 * 2000.0,
                    1000.0 + my as f64 * 2000.0,
                ),
                NodeId(id),
            ));
            id += 1;
        }
    }
    map
}

fn bench_measure(c: &mut Criterion) {
    let map = build_cells();
    let mut group = c.benchmark_group("measure");
    group.sample_size(20);
    let probe =
        |k: u64| mtnet_mobility::Point::new((k % 40) as f64 * 100.0, (k / 40 % 40) as f64 * 100.0);
    group.bench_function("full_scan_x10k", |b| {
        b.iter(|| {
            let mut audible = 0usize;
            for k in 0..BATCH {
                audible += map.measure_full_scan(probe(k), None).len();
            }
            black_box(audible)
        })
    });
    group.bench_function("grid_index_x10k", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut audible = 0usize;
            for k in 0..BATCH {
                map.measure_into(probe(k), None, &mut scratch);
                audible += scratch.len();
            }
            black_box(audible)
        })
    });
    group.finish();
}

/// A deployment of roughly `n` cells: a micro grid under macro umbrellas
/// (1:25 macro:micro, like the city scenarios).
fn build_cells_n(n: usize) -> CellMap {
    let mut map = CellMap::without_shadowing();
    let side = (n as f64).sqrt().ceil() as u32;
    let mut id = 0u32;
    for gx in 0..side {
        for gy in 0..side {
            if (id as usize) >= n {
                break;
            }
            map.add(Cell::new(
                CellId(id),
                if id % 26 == 25 {
                    CellKind::Macro
                } else {
                    CellKind::Micro
                },
                mtnet_mobility::Point::new(f64::from(gx) * 400.0, f64::from(gy) * 400.0),
                NodeId(id),
            ));
            id += 1;
        }
    }
    map
}

/// Batched SoA measurement vs the scalar full scan across deployment
/// sizes — the speedup side of the `measure_batch ≡ measure_full_scan`
/// property.
fn bench_measure_batch(c: &mut Criterion) {
    for n in [10usize, 100, 1_000] {
        let map = build_cells_n(n);
        let extent = (n as f64).sqrt().ceil() * 400.0;
        let probe = |k: u64| {
            mtnet_mobility::Point::new(
                (k % 37) as f64 / 37.0 * extent,
                (k % 53) as f64 / 53.0 * extent,
            )
        };
        let mut group = c.benchmark_group(format!("measure_batch_{n}cells"));
        group.sample_size(20);
        group.bench_function("scalar_full_scan_x10k", |b| {
            b.iter(|| {
                let mut audible = 0usize;
                for k in 0..BATCH {
                    audible += map.measure_full_scan(probe(k), None).len();
                }
                black_box(audible)
            })
        });
        group.bench_function("soa_batch_x10k", |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut audible = 0usize;
                for k in 0..BATCH {
                    map.measure_batch(probe(k), None, &mut scratch);
                    audible += scratch.len();
                }
                black_box(audible)
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_next_hop, bench_measure, bench_measure_batch);
criterion_main!(benches);
