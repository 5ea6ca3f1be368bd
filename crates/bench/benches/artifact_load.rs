//! Artifact-layer costs: load latency and registry-dispatch overhead.
//!
//! Two questions about the versioned artifact layer everything now
//! trains and serves through:
//!
//! 1. **Load latency** — `rdrp::load_method` (read file, parse JSON,
//!    check the envelope, dispatch on the tag, rebuild the model) per
//!    method family. This is the hot-swap cost the serving registry
//!    pays on every `load`.
//! 2. **Dispatch overhead** — building a method through the registry
//!    versus constructing the concrete type directly, and scoring
//!    through the `dyn RoiMethod` trait object versus the concrete
//!    model. The gap is the price of registry indirection.

use datasets::generator::{Population, RctGenerator};
use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};
use linalg::random::Prng;
use minibench::{black_box, criterion_group, criterion_main, Criterion};
use obs::Obs;
use rdrp::{DrpConfig, DrpModel, MethodConfig, RdrpConfig, RoiMethod};
use std::path::PathBuf;
use uplift::NetConfig;

/// Families with visibly different artifact sizes: a tree ensemble
/// (hundreds of KB), a plain net, and a net plus calibration state.
const LOAD_FAMILIES: [&str; 3] = ["tpm-sl", "drp", "rdrp"];

fn bench_config() -> MethodConfig {
    MethodConfig {
        net: NetConfig {
            epochs: 3,
            ..NetConfig::default()
        },
        rdrp: RdrpConfig {
            drp: DrpConfig {
                epochs: 3,
                ..DrpConfig::default()
            },
            mc_passes: 8,
            ..RdrpConfig::default()
        },
        ..MethodConfig::default()
    }
}

fn bench_data() -> ExperimentData {
    let sizes = SettingSizes {
        train_sufficient: 2_000,
        insufficient_fraction: 0.15,
        calibration: 800,
        test: 1_000,
    };
    let mut rng = Prng::seed_from_u64(5);
    ExperimentData::build(&CriteoLike::new(), Setting::SuNo, &sizes, &mut rng)
}

fn fitted(name: &str, data: &ExperimentData) -> Box<dyn RoiMethod> {
    let mut method = rdrp::build(name, &bench_config()).expect(name);
    let mut rng = Prng::seed_from_u64(6);
    method
        .fit(&data.train, &data.calibration, &mut rng, &Obs::disabled())
        .expect(name);
    method
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rdrp_bench_artifact_{}_{}.json",
        name.replace('-', "_"),
        std::process::id()
    ))
}

/// `load_method` per family: file read + JSON parse + envelope check +
/// tag dispatch + model rebuild.
fn bench_artifact_load(c: &mut Criterion) {
    let data = bench_data();
    let mut group = c.benchmark_group("artifact_load");
    for name in LOAD_FAMILIES {
        let method = fitted(name, &data);
        let path = tmp(name);
        rdrp::save_method(method.as_ref(), &path).expect(name);
        let bytes = std::fs::metadata(&path).expect(name).len();
        group.bench_function(&format!("{name}_{bytes}B"), |b| {
            b.iter(|| rdrp::load_method(black_box(&path)).expect(name))
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

/// Registry `build` versus direct concrete construction (unfitted, so
/// this isolates lookup + config plumbing), and trait-object scoring
/// versus the concrete inference call on the same fitted weights.
fn bench_registry_dispatch(c: &mut Criterion) {
    let config = bench_config();
    let mut group = c.benchmark_group("registry_dispatch");
    group.bench_function("build_via_registry", |b| {
        b.iter(|| rdrp::build(black_box("drp"), &config).unwrap())
    });
    group.bench_function("build_direct", |b| {
        b.iter(|| black_box(DrpModel::new(config.rdrp.drp.clone())))
    });

    let gen = CriteoLike::new();
    let mut rng = Prng::seed_from_u64(7);
    let train = gen.sample(2_000, Population::Base, &mut rng);
    let test = gen.sample(1_000, Population::Base, &mut rng);
    // Same weights on both sides: the registry method trains from an
    // identically seeded RNG, then round-trips through its artifact and
    // loads as a trait object.
    let mut registry_rng = rng.clone();
    let mut direct = DrpModel::new(config.rdrp.drp.clone());
    let obs = Obs::disabled();
    direct.fit(&train, &mut rng, &obs).unwrap();
    let via_registry: Box<dyn RoiMethod> = {
        let mut method = rdrp::build("drp", &config).unwrap();
        method.fit(&train, &train, &mut registry_rng, &obs).unwrap();
        let path = tmp("dispatch");
        rdrp::save_method(method.as_ref(), &path).unwrap();
        let loaded = rdrp::load_method(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        loaded
    };
    group.bench_function("score_direct_concrete", |b| {
        b.iter(|| direct.predict_roi(black_box(&test.x), &obs))
    });
    group.bench_function("score_via_trait_object", |b| {
        b.iter(|| via_registry.scores_fresh(black_box(&test.x), &obs))
    });
    group.finish();
}

criterion_group!(benches, bench_artifact_load, bench_registry_dispatch);
criterion_main!(benches);
