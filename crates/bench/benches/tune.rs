//! Benchmarks for the auto-tuner (`stream-tune`): what tuning buys per
//! application, and what a search costs.
//!
//! Besides the criterion display benches, this harness runs the full
//! six-application suite through `tune_app` at the C=64, N=8 design point
//! and writes `BENCH_tune.json` at the repository root, so CI can assert
//! the tuner never loses to the default configuration (and actually wins
//! somewhere) without scraping bench stdout.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use stream_apps::AppId;
use stream_machine::{Machine, SystemParams};
use stream_tune::tune_app;
use stream_vlsi::Shape;

/// Runs the suite at the shape CI gates on and writes `BENCH_tune.json`.
fn emit_json() {
    let shape = Shape::new(64, 8);
    let machine = Machine::paper(shape);
    let sys = SystemParams::paper_2007();

    let mut apps = String::new();
    let (mut evaluated, mut pruned, mut compiles) = (0u64, 0u64, 0u64);
    for (i, id) in AppId::ALL.into_iter().enumerate() {
        let t = tune_app(id, &machine, &sys);
        println!(
            "tune/{}: default {} cyc, tuned {} cyc, {:.3}x ({})",
            id.name(),
            t.default_cycles,
            t.tuned_cycles,
            t.speedup(),
            t.candidate.describe()
        );
        if i > 0 {
            apps.push_str(",\n");
        }
        apps.push_str(&format!(
            "    \"{}\": {{\"default_cycles\": {}, \"tuned_cycles\": {}, \"tuned_over_default\": {:.4}}}",
            id.name(),
            t.default_cycles,
            t.tuned_cycles,
            t.speedup()
        ));
        evaluated += t.evaluated;
        pruned += t.pruned.total();
        compiles += t.sched_compiles;
    }

    let json = format!(
        "{{\n  \"bench\": \"tune\",\n  \"unit\": \"simulated_cycles\",\n  \"shape\": {{\"clusters\": {}, \"alus_per_cluster\": {}}},\n  \"apps\": {{\n{apps}\n  }},\n  \"search\": {{\"evaluated\": {evaluated}, \"pruned\": {pruned}, \"sched_compiles\": {compiles}}}\n}}\n",
        shape.clusters, shape.alus_per_cluster
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tune.json");
    std::fs::write(&path, json).expect("write BENCH_tune.json");
    println!("wrote {}", path.display());
}

fn bench_tune(c: &mut Criterion) {
    emit_json();

    let mut g = c.benchmark_group("tune");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    // One full pruned search on a small machine. Candidate compiles ride
    // the process-global kernel cache, so after the first iteration this
    // measures the search loop, cost model, and simulator — the part that
    // runs even when every schedule is already cached.
    let machine = Machine::paper(Shape::new(4, 4));
    let sys = SystemParams::paper_2007();
    g.bench_function("search_conv_c4n4", |b| {
        b.iter(|| tune_app(AppId::Conv, &machine, &sys))
    });
    g.finish();
}

criterion_group!(benches, bench_tune);
criterion_main!(benches);
