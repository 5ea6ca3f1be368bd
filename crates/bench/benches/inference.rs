//! Inference-phase benchmark (§IV-D item 3).
//!
//! The paper's claim: DRP inference costs one Δ_infer; rDRP costs
//! 10–100 × Δ_infer for the MC passes, but the passes parallelize, so the
//! wall-clock gap is far below the work gap. `nn::mc` runs the layers
//! before DRP's dropout once per sweep, so the `mc_dropout/K` series
//! costs one Δ_infer plus K passes of mask draws and one dot product per
//! row, spread over cores by `par`'s scoped worker threads.

use datasets::generator::{Population, RctGenerator};
use datasets::CriteoLike;
use linalg::random::Prng;
use minibench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdrp::{DrpConfig, DrpModel};

fn fitted_model(n: usize) -> (DrpModel, datasets::RctDataset) {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(0);
    let train = gen.sample(n, Population::Base, &mut rng);
    let test = gen.sample(2_000, Population::Base, &mut rng);
    let mut m = DrpModel::new(DrpConfig {
        epochs: 5,
        ..DrpConfig::default()
    });
    m.fit(&train, &mut rng, &obs::Obs::disabled())
        .expect("bench data is well-formed");
    (m, test)
}

fn bench_inference(c: &mut Criterion) {
    let (model, test) = fitted_model(4_000);
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    // Single deterministic pass: Δ_infer.
    group.bench_function("drp_single_pass", |b| {
        b.iter(|| model.predict_roi(&test.x, &obs::Obs::disabled()))
    });
    // MC dropout with K passes: rDRP's inference cost.
    for &k in &[10usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("mc_dropout", k), &k, |b, &k| {
            b.iter(|| {
                let mut rng = Prng::seed_from_u64(1);
                model.mc_roi(&test.x, k, 1e-6, &mut rng, &obs::Obs::disabled())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
