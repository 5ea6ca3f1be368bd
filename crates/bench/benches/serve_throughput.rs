//! Scoring-engine throughput: what micro-batching buys.
//!
//! Three questions, answered against the same fitted models the serving
//! stack deploys:
//!
//! 1. **Coalescing payoff** — a stream of small rowwise requests pushed
//!    through the engine with the micro-batcher on (requests coalesce up
//!    to `max_batch_rows`) versus off (`max_batch_rows` = request size,
//!    so every request scores alone). The direct single-batch
//!    `scores` call is the floor: engine overhead is the gap
//!    between "coalesced" and "direct".
//! 2. **Worker scaling** — MC-form rDRP requests (scored per-request,
//!    never coalesced) across 1, 2, and 4 workers.
//! 3. **Submission overhead** — a single one-row request end to end,
//!    the fixed cost of queue + channel + wakeup.

use datasets::generator::{Population, RctGenerator};
use datasets::CriteoLike;
use linalg::random::Prng;
use linalg::Matrix;
use minibench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obs::Obs;
use rdrp::{MethodConfig, RoiMethod};
use serve::{EngineConfig, ScoringEngine};
use std::sync::Arc;
use std::time::Duration;

const REQUEST_ROWS: usize = 4;
const REQUESTS: usize = 128;

/// Fits registry method `name` (DRP ignores the calibration set).
fn fitted(name: &str, seed: u64) -> Arc<dyn RoiMethod> {
    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(seed);
    let train = gen.sample(2_000, Population::Base, &mut rng);
    let cal = gen.sample(800, Population::Base, &mut rng);
    let mut config = MethodConfig::default();
    config.rdrp.drp.epochs = 3;
    config.rdrp.mc_passes = 8;
    let mut model = rdrp::build(name, &config).unwrap();
    model.fit(&train, &cal, &mut rng, &Obs::disabled()).unwrap();
    Arc::from(model)
}

fn request_stream(n_features: usize, rng: &mut Prng) -> Vec<Matrix> {
    (0..REQUESTS)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..REQUEST_ROWS)
                .map(|_| (0..n_features).map(|_| rng.gaussian()).collect())
                .collect();
            Matrix::from_rows(&rows)
        })
        .collect()
}

fn drain(engine: &ScoringEngine, scorer: &Arc<dyn RoiMethod>, requests: &[Matrix]) {
    let pending: Vec<_> = requests
        .iter()
        .map(|r| {
            engine
                .submit(scorer, r.clone(), None)
                .expect("bench queue sized for the full stream")
        })
        .collect();
    for p in pending {
        p.wait().expect("bench scorer never fails");
    }
}

/// Rowwise request stream with the micro-batcher on vs off, with the
/// direct single-batch call as the floor.
fn bench_microbatch_coalescing(c: &mut Criterion) {
    let scorer = fitted("drp", 0);
    let n = scorer.n_features().unwrap();
    let mut rng = Prng::seed_from_u64(2);
    let requests = request_stream(n, &mut rng);
    let all_rows = {
        let data: Vec<Vec<f64>> = requests
            .iter()
            .flat_map(|m| m.row_iter().map(<[f64]>::to_vec))
            .collect();
        Matrix::from_rows(&data)
    };

    let mut group = c.benchmark_group("serve_microbatch");
    let configs = [
        (
            "coalesced",
            EngineConfig::builder()
                .workers(2)
                .max_batch_rows(1024)
                .max_wait(Duration::from_micros(100))
                .build()
                .expect("valid bench config"),
        ),
        (
            // max_batch_rows = request size: every request scores alone.
            "uncoalesced",
            EngineConfig::builder()
                .workers(2)
                .max_batch_rows(REQUEST_ROWS)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid bench config"),
        ),
    ];
    for (label, cfg) in configs {
        let engine = ScoringEngine::start(cfg, Obs::disabled());
        group.bench_function(label, |b| b.iter(|| drain(&engine, &scorer, &requests)));
    }
    let obs = Obs::disabled();
    group.bench_function("direct_single_batch", |b| {
        b.iter(|| scorer.scores_fresh(&all_rows, &obs))
    });
    group.finish();
}

/// MC-form rDRP requests (per-request scoring, no coalescing) across
/// worker counts.
fn bench_worker_scaling(c: &mut Criterion) {
    let scorer = fitted("rdrp", 1);
    let n = scorer.n_features().unwrap();
    let mut rng = Prng::seed_from_u64(3);
    let requests: Vec<Matrix> = (0..16)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..64)
                .map(|_| (0..n).map(|_| rng.gaussian()).collect())
                .collect();
            Matrix::from_rows(&rows)
        })
        .collect();

    let mut group = c.benchmark_group("serve_worker_scaling");
    for workers in [1usize, 2, 4] {
        let engine = ScoringEngine::start(
            EngineConfig::builder()
                .workers(workers)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid bench config"),
            Obs::disabled(),
        );
        group.bench_with_input(
            BenchmarkId::new("mc_rdrp_16x64", workers),
            &engine,
            |b, engine| b.iter(|| drain(engine, &scorer, &requests)),
        );
    }
    group.finish();
}

/// The fixed per-request cost: one single-row request, submit to
/// response.
fn bench_submission_overhead(c: &mut Criterion) {
    let scorer = fitted("drp", 0);
    let n = scorer.n_features().unwrap();
    let mut rng = Prng::seed_from_u64(4);
    let one_row = Matrix::from_rows(&[(0..n).map(|_| rng.gaussian()).collect::<Vec<f64>>()]);
    let engine = ScoringEngine::start(
        EngineConfig::builder()
            .workers(1)
            .max_wait(Duration::ZERO)
            .build()
            .expect("valid bench config"),
        Obs::disabled(),
    );
    c.bench_function("serve_single_row_roundtrip", |b| {
        b.iter(|| {
            engine
                .submit(&scorer, one_row.clone(), None)
                .expect("queue never fills at depth 1")
                .wait()
                .expect("bench scorer never fails")
        })
    });
}

criterion_group!(
    benches,
    bench_microbatch_coalescing,
    bench_worker_scaling,
    bench_submission_overhead
);
criterion_main!(benches);
