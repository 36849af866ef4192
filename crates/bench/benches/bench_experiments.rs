//! Criterion bench regenerating every experiment table (E1–E14), one
//! group per experiment. Short (`Effort::Quick`) runs so the whole suite
//! stays tractable; the `experiments` binary produces the full-length
//! recorded tables.

use criterion::{criterion_group, criterion_main, Criterion};
use mtnet_bench::{run_one, Effort, RunOptions, ALL_IDS};

fn bench(c: &mut Criterion) {
    for id in ALL_IDS {
        let name = id.to_ascii_lowercase();
        let mut group = c.benchmark_group(&name);
        group.sample_size(10);
        group.bench_function(&format!("{name}_regenerate"), |b| {
            b.iter(|| std::hint::black_box(run_one(id, RunOptions::new(Effort::Quick, 1))))
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
