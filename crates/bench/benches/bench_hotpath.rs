//! Criterion benches for the hot-path layers: cached routing
//! (`RouteCache` vs per-call Dijkstra), spatial radio measurement (grid
//! index vs full scan, and the batched SoA sweep vs both, at 10/100/1k
//! cells), per-packet flow lookup (persistent index vs linear scan), and
//! scheduler backends (calendar queue vs binary heap on a hold-model
//! churn). Each pair documents the speed relationship the code relies
//! on — the optimized variant ahead, or (for the scheduler pair) why
//! worlds run the calendar queue and the heap stays the test reference:
//! the heap's constant factor wins tiny pending sets, the calendar's
//! O(1) wins the thousands-pending populations the experiment suite
//! actually runs.
//! The equivalence of each pair's *answers* is enforced by property
//! tests (`tests/properties.rs`), so these benches only argue speed.
//!
//! Every sample runs a 10 000-operation batch (the `_x10k` suffix), so
//! sub-microsecond routines are measured well above timer resolution —
//! the vendored criterion stand-in times one closure call per sample.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtnet_net::{Addr, FlowId, LinkConfig, NodeId, RouteCache, Topology};
use mtnet_radio::{Cell, CellId, CellKind, CellMap};
use mtnet_sim::{FxHashMap, Scheduler, SchedulerKind, SimDuration, SimTime};

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

fn bench_flow_lookup(c: &mut Criterion) {
    const FLOWS: u64 = 64;
    let flows: Vec<FlowId> = (1..=FLOWS).map(FlowId).collect();
    let index: FxHashMap<FlowId, usize> = flows.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut group = c.benchmark_group("flow_lookup");
    group.sample_size(50);
    group.bench_function("linear_position_scan_x10k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 0..BATCH {
                let want = FlowId(k % FLOWS + 1);
                hits += usize::from(flows.iter().position(|&f| f == want).is_some());
            }
            black_box(hits)
        })
    });
    group.bench_function("indexed_x10k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 0..BATCH {
                let want = FlowId(k % FLOWS + 1);
                hits += usize::from(index.get(&want).is_some());
            }
            black_box(hits)
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

/// Scheduler backends head to head on the event loop's own access
/// pattern: a hold model (pop one, push one at `now + delay`) over a
/// standing population, the delays mixing packet-scale gaps with
/// occasional far-future timers (the overflow-ladder case). The small
/// population shows the heap's constant-factor advantage, the large one
/// the calendar's O(1) scaling — why every world runs the calendar queue
/// and `SchedulerKind::Heap` is the reference the tests compare against.
fn bench_scheduler(c: &mut Criterion) {
    let run = |kind: SchedulerKind, standing: usize| {
        let mut q = Scheduler::with_kind(kind);
        for i in 0..standing as u64 {
            q.schedule_at(SimTime::from_nanos(i * 1_000), i);
        }
        let mut acc = 0u64;
        for k in 0..BATCH {
            let e = q
                .pop_at_or_before(SimTime::MAX)
                .expect("standing population");
            acc ^= e.into_event();
            let delay = if k % 64 == 0 {
                SimDuration::from_secs(2) // periodic-timer scale
            } else {
                SimDuration::from_nanos(50_000 + k % 7 * 13_000) // packet scale
            };
            q.schedule_in(delay, k);
        }
        acc
    };
    let mut group = c.benchmark_group("scheduler_hold_model");
    group.sample_size(20);
    for standing in [256usize, 4_096] {
        group.bench_function(&format!("heap_{standing}pending_x10k"), |b| {
            b.iter(|| black_box(run(SchedulerKind::Heap, standing)))
        });
        group.bench_function(&format!("calendar_{standing}pending_x10k"), |b| {
            b.iter(|| black_box(run(SchedulerKind::Calendar, standing)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_next_hop,
    bench_measure,
    bench_measure_batch,
    bench_scheduler,
    bench_flow_lookup
);
criterion_main!(benches);
