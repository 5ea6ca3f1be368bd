//! `rdrp-cli` — train, calibrate, score, serve, and evaluate the
//! paper's ROI-ranking methods from the shell.
//!
//! ```text
//! rdrp-cli generate --dataset criteo --rows 20000 --out train.csv [--shifted true]
//! rdrp-cli train    --train train.csv --calibration cal.csv --model model.json
//!                   [--method rdrp] [--epochs 40 --hidden 64 --alpha 0.1 --mc-passes 50]
//! rdrp-cli score    --model model.json --data test.csv --out scores.csv
//! rdrp-cli serve    --model model.json [--tcp 127.0.0.1:7878] [--workers 2] [--shards 4] [--binary true]
//! rdrp-cli evaluate --model model.json --data test.csv [--bins 20]
//! rdrp-cli bandit   --n-arms 4 --periods 8 [--policies karm-tpm-xl,tpm-sl,uniform-random] [--out result.json]
//! ```
//!
//! `--method` accepts any registry name from `rdrp::methods` (every
//! Table I/II method: `tpm-sl` … `tpm-snet`, `dr`, `dr-mc`, `drp`,
//! `drp-mc`, `rdrp`, `bootstrap-drp`). The persisted file is a versioned
//! artifact whose embedded tag tells `score`, `evaluate`, and `serve`
//! which model type to reconstruct — no kind flag anywhere.
//!
//! CSV columns: features plus `treatment`, `conversion` (revenue) and
//! `visit` (cost); override the names with `--treatment-col` etc. The
//! `generate` subcommand emits lookalike data in exactly this format, so
//! the full loop runs without any external download.
//!
//! `bandit` runs the K-arm contextual-bandit simulation end-to-end in
//! memory: each named policy (any K-arm or binary registry method, plus
//! the `uniform-random` baseline) scores a shared synthetic user stream,
//! an MCKP allocator spends the per-period budget, outcomes realize from
//! the generator's ground-truth uplift laws, and the loop prints each
//! policy's cumulative realized ROI and regret against the ground-truth
//! oracle.
//!
//! `serve` speaks two codecs on the same port, negotiated from each
//! connection's first byte: the line-delimited JSON protocol from
//! [`serve::protocol`] (the debug codec) and the length-prefixed binary
//! protocol from [`serve::BinaryCodec`] (the fast one; `--binary`
//! requires it). Requests arrive on stdin or per TCP connection with
//! `--tcp` (a non-blocking poll loop over `--shards` independent engine
//! shards); scores are bitwise identical to the `score` subcommand
//! under every codec and shard count.

mod args;

use args::{
    BanditArgs, Command, EvaluateArgs, GenerateArgs, ObsFlags, SchemaFlags, ScoreArgs, ServeArgs,
    TrainArgs,
};
use datasets::generator::{Population, RctGenerator};
use datasets::{read_rct_csv, write_rct_csv, AlibabaLike, CriteoLike, CsvSchema, MeituanLike};
use linalg::random::Prng;
use obs::{InMemoryRecorder, Obs};
use rdrp::{DrpConfig, RdrpConfig};
use serve::{
    run_session, sniff_codec, BackoffPolicy, BinaryCodec, BreakerConfig, CalibrationMonitor,
    CalibrationMonitorConfig, EngineConfig, ModelRegistry, NetConfig, SessionLimits, ShardedEngine,
    SupervisorConfig, WireCodec,
};
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure, bucketed so scripts can branch on the exit code:
/// `2` = usage/configuration, `3` = data/IO, `4` = training/calibration.
/// A *degraded* (but successful) calibration is a warning on stderr and
/// exit 0 — the scores are still usable.
#[derive(Debug)]
enum CliError {
    /// Bad arguments or an out-of-range configuration (exit 2).
    Usage(String),
    /// Unreadable/unwritable files or malformed data (exit 3).
    Data(String),
    /// Model training or calibration failed (exit 4).
    Train(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 3,
            CliError::Train(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Data(m) => write!(f, "{m}"),
            CliError::Train(m) => write!(f, "{m}"),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!("run with no arguments for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn usage() -> String {
    "usage:\n  \
     rdrp-cli generate --dataset criteo|meituan|alibaba --rows N --out FILE [--shifted true] [--seed N]\n  \
     rdrp-cli train --train FILE --calibration FILE --model FILE [--method NAME] [--epochs N] [--hidden N] [--alpha F] [--mc-passes N] [--seed N] [--trace-out FILE] [-v]\n  \
     rdrp-cli score --model FILE --data FILE --out FILE [--trace-out FILE] [-v]\n  \
     rdrp-cli serve --model FILE [--tcp ADDR] [--workers N] [--shards N] [--binary true] [--max-batch-rows N] [--max-wait-us N] [--queue-rows N] [--window N] [--respawn-after-panics N] [--breaker-trip-panics N] [--breaker-shed-rows N] [--breaker-cooldown-ms N] [--conn-timeout-ms N] [--max-requests-per-conn N] [--block-kernels true] [--online-calibration true --reference FILE] [--calibration-window N] [--drift-batch N] [--drift-threshold F] [--trace-out FILE] [-v]\n  \
     rdrp-cli evaluate --model FILE --data FILE [--bins N]\n  \
     rdrp-cli bandit [--n-arms N] [--warmup N] [--users-per-period N] [--explore-per-period N] [--periods N] [--budget-fraction F] [--refit-every N] [--stochastic true|false] [--policies A,B,C] [--seed N] [--epochs N] [--hidden N] [--out FILE] [--trace-out FILE] [-v]\n\n\
     --method NAME picks the trained method (default rdrp); valid names: "
        .to_string()
        + &rdrp::method_names().join(", ")
        + "\n\
     bandit --policies accepts uniform-random plus any K-arm method name: "
        + &rdrp::karm_method_names().join(", ")
        + "\n\
     serve answers line-delimited JSON requests ({\"id\": ..., \"rows\": [[...]]}) on stdin, or per TCP connection with --tcp;\n\
     each connection may instead speak the length-prefixed binary protocol (sniffed from its first byte; --binary true requires it),\n\
     and --shards N spreads connections across N independent engine shards without changing any score;\n\
     a batch is what queued while the workers were busy: --max-wait-us N (default 500) caps how long a worker holds\n\
     an under-full batch while another worker of its shard is busy, and a lone request is scored at once;\n\
     the model file's embedded method tag picks the served model type;\n\
     with --online-calibration, feedback lines ({\"id\": ..., \"row\": [...], \"outcome\": F}) feed a rolling conformal window\n\
     and a drift detector (reference features from --reference) that hot-swaps a recalibrated artifact on drift;\n\
     --trace-out dumps the run's JSON trace (counters, histograms, events); -v prints a metrics summary table"
}

/// The observability wiring shared by `train`, `score`, and `serve`: an
/// enabled in-memory recorder when `--trace-out` or `-v`/`--verbose`
/// asks for one, the zero-overhead null handle otherwise.
struct CliObs {
    obs: Obs,
    recorder: Option<Arc<InMemoryRecorder>>,
    trace_out: Option<String>,
    verbose: bool,
}

impl CliObs {
    fn new(flags: &ObsFlags) -> CliObs {
        if flags.trace_out.is_none() && !flags.verbose {
            return CliObs {
                obs: Obs::disabled(),
                recorder: None,
                trace_out: None,
                verbose: false,
            };
        }
        let (obs, recorder) = Obs::in_memory();
        CliObs {
            obs,
            recorder: Some(recorder),
            trace_out: flags.trace_out.clone(),
            verbose: flags.verbose,
        }
    }

    /// Dumps the JSON trace and/or prints the summary table, as requested.
    fn finish(&self) -> Result<(), CliError> {
        let Some(recorder) = &self.recorder else {
            return Ok(());
        };
        if let Some(path) = &self.trace_out {
            std::fs::write(path, recorder.render_json()).map_err(data_err)?;
            eprintln!("trace written to {path}");
        }
        if self.verbose {
            eprint!("{}", recorder.summary());
        }
        Ok(())
    }
}

fn csv_schema(schema: &SchemaFlags) -> CsvSchema {
    CsvSchema {
        treatment: schema.treatment.clone(),
        revenue: schema.revenue.clone(),
        cost: schema.cost.clone(),
    }
}

fn run(argv: Vec<String>) -> Result<(), CliError> {
    if argv.is_empty() {
        println!("{}", usage());
        return Ok(());
    }
    // All flag validation happens inside Command::parse; from here on a
    // bad command line is impossible, only bad files and bad data.
    let command = Command::parse(argv).map_err(|e| match e {
        args::ArgError::UnknownCommand(ref cmd) => {
            CliError::Usage(format!("unknown subcommand '{cmd}'\n{}", usage()))
        }
        other => CliError::Usage(other.to_string()),
    })?;
    match command {
        Command::Generate(a) => generate(&a),
        Command::Train(a) => train(&a),
        Command::Score(a) => score(&a),
        Command::Evaluate(a) => evaluate(&a),
        Command::Serve(a) => serve_cmd(&a),
        Command::Bandit(a) => bandit(&a),
    }
}

/// Shorthand converters for the three failure buckets.
fn usage_err(e: impl fmt::Display) -> CliError {
    CliError::Usage(e.to_string())
}

fn data_err(e: impl fmt::Display) -> CliError {
    CliError::Data(e.to_string())
}

fn generate(a: &GenerateArgs) -> Result<(), CliError> {
    let generator: Box<dyn RctGenerator> = match a.dataset {
        args::Dataset::Criteo => Box::new(CriteoLike::new()),
        args::Dataset::Meituan => Box::new(MeituanLike::new()),
        args::Dataset::Alibaba => Box::new(AlibabaLike::new()),
    };
    let population = if a.shifted {
        Population::Shifted
    } else {
        Population::Base
    };
    let mut rng = Prng::seed_from_u64(a.seed);
    let data = generator.sample(a.rows, population, &mut rng);
    write_rct_csv(&data, &a.out, &csv_schema(&a.schema)).map_err(data_err)?;
    println!(
        "wrote {} rows x {} features of {} ({}) to {}",
        data.len(),
        data.n_features(),
        generator.name(),
        if a.shifted { "shifted" } else { "base" },
        a.out,
    );
    Ok(())
}

fn train(a: &TrainArgs) -> Result<(), CliError> {
    let config = rdrp::MethodConfig {
        net: uplift::NetConfig {
            epochs: a.epochs,
            hidden: a.hidden,
            ..uplift::NetConfig::default()
        },
        rdrp: RdrpConfig {
            drp: DrpConfig {
                epochs: a.epochs,
                hidden: a.hidden,
                ..DrpConfig::default()
            },
            alpha: a.alpha,
            mc_passes: a.mc_passes,
            ..RdrpConfig::default()
        },
        ..rdrp::MethodConfig::default()
    };
    // An unknown method or an invalid config is a usage error (exit 2),
    // surfaced before any file is touched ...
    let mut method = rdrp::build(&a.method, &config).map_err(usage_err)?;
    let schema = csv_schema(&a.schema);
    let train_data = read_rct_csv(&a.train, &schema).map_err(data_err)?;
    let cal_data = read_rct_csv(&a.calibration, &schema).map_err(data_err)?;
    println!(
        "training on {} rows, calibrating on {} rows ...",
        train_data.len(),
        cal_data.len()
    );
    let cli_obs = CliObs::new(&a.obs);
    let mut rng = Prng::seed_from_u64(a.seed);
    // ... while a failed fit is a training error (exit 4). Malformed
    // *contents* of an otherwise readable CSV (NaN features, single-group
    // data) surface here too: the pipeline's own validation is the
    // authority on what it can train on.
    method
        .fit(&train_data, &cal_data, &mut rng, &cli_obs.obs)
        .map_err(|e| CliError::Train(e.to_string()))?;
    if let Some(model) = method.as_rdrp() {
        let d = model.diagnostics();
        println!(
            "calibrated: roi* = {:?}, q̂ = {:.4}, form = {}",
            d.roi_star,
            d.qhat,
            d.selected_form.label()
        );
        // Degradation is a warning, not an error: the model still serves
        // a usable (plain-DRP) ranking, and the flag is persisted in the
        // artifact for machine consumption.
        if let Some(mode) = model.degraded() {
            eprintln!(
                "warning: calibration degraded ({mode:?}): {}",
                mode.reason()
            );
        }
    } else {
        println!("fitted {}", method.label());
    }
    rdrp::save_method(method.as_ref(), &a.model).map_err(data_err)?;
    println!("model saved to {}", a.model);
    cli_obs.finish()?;
    Ok(())
}

fn score(a: &ScoreArgs) -> Result<(), CliError> {
    let method = rdrp::load_method(&a.model).map_err(data_err)?;
    let data = read_rct_csv(&a.data, &csv_schema(&a.schema)).map_err(data_err)?;
    if let Some(mode) = method.as_rdrp().and_then(rdrp::Rdrp::degraded) {
        eprintln!(
            "warning: model was calibrated in degraded mode ({mode:?}): {}",
            mode.reason()
        );
    }
    let cli_obs = CliObs::new(&a.obs);
    // Scoring a fitted method is a pure function of the inputs: every
    // randomness-consuming path reseeds from rdrp::SCORING_SEED.
    let scores = method.scores_fresh(&data.x, &cli_obs.obs);
    let mut out = std::fs::File::create(&a.out).map_err(data_err)?;
    // Methods with conformal intervals (rDRP) get three columns; point
    // rankers get one.
    match method.intervals(&data.x) {
        Some(intervals) => {
            writeln!(out, "score,interval_lo,interval_hi").map_err(data_err)?;
            for (s, iv) in scores.iter().zip(&intervals) {
                writeln!(out, "{s},{},{}", iv.lo, iv.hi).map_err(data_err)?;
            }
        }
        None => {
            writeln!(out, "score").map_err(data_err)?;
            for s in &scores {
                writeln!(out, "{s}").map_err(data_err)?;
            }
        }
    }
    println!("wrote {} scores to {}", scores.len(), a.out);
    cli_obs.finish()?;
    Ok(())
}

fn evaluate(a: &EvaluateArgs) -> Result<(), CliError> {
    let method = rdrp::load_method(&a.model).map_err(data_err)?;
    let data = read_rct_csv(&a.data, &csv_schema(&a.schema)).map_err(data_err)?;
    let scores = method.scores_fresh(&data.x, &Obs::disabled());
    let aucc = metrics::aucc_checked(&data, &scores, a.bins).ok_or_else(|| {
        CliError::Data(
            "dataset too degenerate to rank (missing group or non-positive uplift)".to_string(),
        )
    })?;
    let qini = metrics::qini(&data, &scores, a.bins);
    println!("rows:  {}", data.len());
    println!("AUCC:  {aucc:.4}  (random = 0.5)");
    println!("Qini:  {qini:.4}  (random = 0.0)");
    Ok(())
}

fn bandit(a: &BanditArgs) -> Result<(), CliError> {
    use tinyjson::ToJson as _;

    let config = abtest::BanditConfig {
        n_arms: a.n_arms,
        warmup: a.warmup,
        users_per_period: a.users_per_period,
        explore_per_period: a.explore_per_period,
        periods: a.periods,
        budget_fraction: a.budget_fraction,
        refit_every: a.refit_every,
        stochastic_outcomes: a.stochastic,
        policies: a.policies.clone(),
        methods: rdrp::MethodConfig {
            net: uplift::NetConfig {
                epochs: a.epochs,
                hidden: a.hidden,
                ..uplift::NetConfig::default()
            },
            rdrp: RdrpConfig {
                drp: DrpConfig {
                    epochs: a.epochs,
                    hidden: a.hidden,
                    ..DrpConfig::default()
                },
                ..RdrpConfig::default()
            },
            ..rdrp::MethodConfig::default()
        },
    };
    let cli_obs = CliObs::new(&a.obs);
    let mut rng = Prng::seed_from_u64(a.seed);
    println!(
        "running {} policies over {} periods (K = {} arms, budget fraction {}) ...",
        a.policies.len(),
        a.periods,
        a.n_arms,
        a.budget_fraction
    );
    // An unknown policy name surfaces as a usage error (exit 2) just
    // like an unknown --method; a policy that fails to fit is a
    // training error (exit 4).
    let result = abtest::run_bandit(&config, &mut rng, &cli_obs.obs).map_err(|e| match e {
        rdrp::PipelineError::Config(_) => CliError::Usage(e.to_string()),
        rdrp::PipelineError::Fit(_) => CliError::Train(e.to_string()),
        other => CliError::Data(other.to_string()),
    })?;
    println!(
        "{:<20} {:>12} {:>12} {:>8} {:>12}",
        "policy", "revenue", "cost", "ROI", "regret"
    );
    for p in &result.policies {
        println!(
            "{:<20} {:>12.2} {:>12.2} {:>8.4} {:>12.2}",
            p.name, p.cumulative_revenue, p.cumulative_cost, p.realized_roi, p.cumulative_regret
        );
    }
    if let Some(path) = &a.out {
        std::fs::write(path, tinyjson::to_string_pretty(&result.to_json())).map_err(data_err)?;
        println!("result written to {path}");
    }
    cli_obs.finish()?;
    Ok(())
}

fn serve_cmd(a: &ServeArgs) -> Result<(), CliError> {
    let registry = Arc::new(ModelRegistry::new());
    let cli_obs = CliObs::new(&a.obs);
    // The initial load rides the same bounded-backoff path the online
    // recalibrator uses: a deploy still renaming the artifact into
    // place costs a few retries, not a dead server.
    registry
        .load_with_retry(
            &a.name,
            &a.model_version,
            &a.model,
            &BackoffPolicy::default(),
            &cli_obs.obs,
        )
        .map_err(data_err)?;
    eprintln!("serving {}@{} from {}", a.name, a.model_version, a.model);
    let config = EngineConfig::builder()
        .workers(a.workers)
        .shards(a.shards)
        .max_batch_rows(a.max_batch_rows)
        .max_wait(a.max_wait)
        .queue_rows(a.queue_rows)
        .supervisor(SupervisorConfig {
            respawn_after_panics: a.respawn_after_panics,
        })
        .breaker(BreakerConfig {
            trip_panics: a.breaker_trip_panics,
            shed_queue_rows: a.breaker_shed_rows,
            cooldown: a.breaker_cooldown,
        })
        .block_kernels(a.block_kernels)
        .build()
        .map_err(usage_err)?;
    let engine = ShardedEngine::start(config, cli_obs.obs.clone());
    if a.online_calibration {
        // `--reference` presence is enforced at arg validation.
        let path = a.reference.as_deref().unwrap_or_default();
        let refdata = read_rct_csv(path, &csv_schema(&a.schema)).map_err(data_err)?;
        let reference = datasets::FeatureReference::from_dataset(&refdata).map_err(data_err)?;
        // No flag sets the calibrator's fill floor or its adaptive-α
        // clamp, so derive both from what is set: the floor never
        // exceeds `--calibration-window`, and the clamp widens to
        // bracket the served model's α.
        let defaults = conformal::OnlineConformalConfig::default();
        let alpha = registry.get(&a.name, None).and_then(|m| m.alpha());
        let monitor = CalibrationMonitor::new(
            Arc::clone(&registry),
            reference,
            CalibrationMonitorConfig {
                model: a.name.clone(),
                base_version: a.model_version.clone(),
                online: conformal::OnlineConformalConfig {
                    window: a.calibration_window,
                    min_window: defaults.min_window.min(a.calibration_window),
                    alpha_min: alpha.map_or(defaults.alpha_min, |al| al.min(defaults.alpha_min)),
                    alpha_max: alpha.map_or(defaults.alpha_max, |al| al.max(defaults.alpha_max)),
                    ..defaults
                },
                drift: datasets::DriftDetectorConfig {
                    batch_rows: a.drift_batch,
                    threshold: a.drift_threshold,
                    ..datasets::DriftDetectorConfig::default()
                },
            },
            cli_obs.obs.clone(),
        )
        .map_err(data_err)?;
        engine.attach_monitor(Arc::new(monitor));
        eprintln!(
            "online calibration on (window {}, drift batch {}, threshold {})",
            a.calibration_window, a.drift_batch, a.drift_threshold
        );
    }
    let limits = SessionLimits {
        window: a.window,
        max_requests: a.max_requests_per_conn,
    };
    match &a.tcp {
        // stdin/stdout mode: the protocol owns stdout, diagnostics go to
        // stderr. EOF on stdin drains in-flight requests and exits. The
        // codec is sniffed from the first byte (or forced by --binary),
        // then the very same `run_session` the TCP sessions run on
        // drives the conversation — stdin is just one more transport.
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut input = stdin.lock();
            let mut first = [0u8; 1];
            let sniffed = loop {
                match input.read(&mut first) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(data_err(e)),
                }
            };
            let mut codec: Box<dyn WireCodec + Send> = if a.binary {
                Box::new(BinaryCodec::new())
            } else {
                sniff_codec(first[0])
            };
            // A stdin conversation is a single connection: route it the
            // way the TCP frontend would route connection id 0.
            run_session(
                std::io::Cursor::new(first[..sniffed].to_vec()).chain(input),
                stdout.lock(),
                codec.as_mut(),
                engine.shard_for(0),
                &registry,
                &limits,
            )
            .map_err(data_err)?;
        }
        Some(addr) => {
            let listener = TcpListener::bind(addr).map_err(data_err)?;
            let local = listener.local_addr().map_err(data_err)?;
            eprintln!("listening on {local}");
            let net = NetConfig {
                max_conns: a.max_conns,
                conn_timeout: a.conn_timeout,
                binary_only: a.binary,
                ..NetConfig::default()
            };
            serve::serve_poll(&listener, &engine, &registry, &limits, &net, &cli_obs.obs)
                .map_err(data_err)?;
        }
    }
    // Join the workers before dumping the trace so their final events are
    // in it.
    drop(engine);
    cli_obs.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("rdrp_cli_{name}_{}", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(strings(&["frobnicate"])).is_err());
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(vec![]).is_ok());
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let err = run(strings(&[
            "evaluate", "--model", "m.json", "--data", "d.csv", "--epochs", "3",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("epochs"), "{err}");
    }

    #[test]
    fn full_generate_train_score_evaluate_loop() {
        let train_csv = tmp("train.csv");
        let cal_csv = tmp("cal.csv");
        let test_csv = tmp("test.csv");
        let model_json = tmp("model.json");
        let scores_csv = tmp("scores.csv");
        run(strings(&[
            "generate",
            "--dataset",
            "criteo",
            "--rows",
            "3000",
            "--out",
            &train_csv,
        ]))
        .unwrap();
        run(strings(&[
            "generate",
            "--dataset",
            "criteo",
            "--rows",
            "1200",
            "--out",
            &cal_csv,
            "--seed",
            "43",
        ]))
        .unwrap();
        run(strings(&[
            "generate",
            "--dataset",
            "criteo",
            "--rows",
            "1500",
            "--out",
            &test_csv,
            "--seed",
            "44",
        ]))
        .unwrap();
        run(strings(&[
            "train",
            "--train",
            &train_csv,
            "--calibration",
            &cal_csv,
            "--model",
            &model_json,
            "--epochs",
            "5",
            "--mc-passes",
            "10",
        ]))
        .unwrap();
        run(strings(&[
            "score",
            "--model",
            &model_json,
            "--data",
            &test_csv,
            "--out",
            &scores_csv,
        ]))
        .unwrap();
        let scored = std::fs::read_to_string(&scores_csv).unwrap();
        assert_eq!(scored.lines().count(), 1501); // header + rows

        // The serve frontend must reproduce the score subcommand's
        // numbers over TCP, bit for bit, through both wire codecs.
        for binary in [false, true] {
            serve_matches_score_csv(&model_json, &test_csv, &scored, binary);
        }

        run(strings(&[
            "evaluate",
            "--model",
            &model_json,
            "--data",
            &test_csv,
        ]))
        .unwrap();
        for f in [train_csv, cal_csv, test_csv, model_json, scores_csv] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Serves the model on an ephemeral TCP port for one connection,
    /// replays the test CSV as one request over the JSONL codec or, with
    /// `binary`, the binary codec, and checks the scores against the
    /// `score` subcommand's CSV bit for bit (`==` would let `-0.0` pass
    /// for `0.0`). One request, not many: MC-form models seed their
    /// dropout sweep per request, so only a request holding the whole
    /// dataset reproduces the batch `score` run exactly.
    fn serve_matches_score_csv(model_json: &str, test_csv: &str, scored: &str, binary: bool) {
        use std::io::Write;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Hand the pre-bound port to serve via the OS: bind a fresh
        // listener inside serve on the same port after dropping ours.
        drop(listener);
        let model = model_json.to_string();
        let server = std::thread::spawn(move || {
            run(strings(&[
                "serve",
                "--model",
                &model,
                "--tcp",
                &addr.to_string(),
                "--max-conns",
                "1",
                "--workers",
                "2",
            ]))
        });

        let data = read_rct_csv(
            test_csv,
            &csv_schema(&SchemaFlags {
                treatment: "treatment".into(),
                revenue: "conversion".into(),
                cost: "visit".into(),
            }),
        )
        .unwrap();
        // The server needs a moment to bind; retry the connect under a
        // bounded backoff instead of a bare poll loop.
        let policy = serve::BackoffPolicy {
            attempts: 40,
            base: std::time::Duration::from_millis(5),
            factor: 1.5,
            cap: std::time::Duration::from_millis(100),
            ..serve::BackoffPolicy::default()
        };
        let mut stream =
            serve::backoff::retry(&policy, |_| std::net::TcpStream::connect(addr), |_| true)
                .expect("server never bound");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .unwrap();
        let rows: Vec<Vec<f64>> = data.x.row_iter().map(<[f64]>::to_vec).collect();
        let mut request = Vec::new();
        if binary {
            let req = serve::ScoreRequest {
                id: "all".into(),
                model: None,
                version: None,
                rows,
                deadline_ms: None,
            };
            serve::encode_score_request(&req, &mut request).unwrap();
        } else {
            writeln!(
                request,
                r#"{{"id": "all", "rows": {}}}"#,
                tinyjson::to_string(&rows)
            )
            .unwrap();
        }
        stream.write_all(&request).unwrap();
        // Half-close: the server reads until EOF before draining its
        // response window, so signal end-of-requests while keeping the
        // read side open. With --max-conns 1 it closes once answered.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        drop(stream);
        server.join().unwrap().unwrap();

        let served_scores: Vec<f64> = if binary {
            let mut buf = serve::FrameBuf::new();
            buf.extend(&response);
            buf.set_eof();
            match serve::decode_client_frame(&mut buf) {
                Ok(Some(serve::ClientFrame::Scores { scores, .. })) => scores,
                other => panic!("expected a scores frame, got {other:?}"),
            }
        } else {
            let line = String::from_utf8(response).unwrap();
            let v = tinyjson::parse(&line).unwrap();
            v.fetch("scores")
                .as_arr()
                .unwrap_or_else(|_| panic!("expected scores, got {line}"))
                .iter()
                .map(|s| s.as_f64().unwrap())
                .collect()
        };
        let csv_scores: Vec<f64> = scored
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&served_scores),
            bits(&csv_scores),
            "serve (binary: {binary}) and score disagree"
        );
    }

    #[test]
    fn train_with_trace_out_writes_parseable_trace() {
        let train_csv = tmp("tr_trace.csv");
        let cal_csv = tmp("cal_trace.csv");
        let model_json = tmp("model_trace.json");
        let trace_json = tmp("trace.json");
        for (path, rows, seed) in [(&train_csv, "2500", "50"), (&cal_csv, "1000", "51")] {
            run(strings(&[
                "generate",
                "--dataset",
                "criteo",
                "--rows",
                rows,
                "--out",
                path,
                "--seed",
                seed,
            ]))
            .unwrap();
        }
        run(strings(&[
            "train",
            "--train",
            &train_csv,
            "--calibration",
            &cal_csv,
            "--model",
            &model_json,
            "--epochs",
            "4",
            "--mc-passes",
            "10",
            "--trace-out",
            &trace_json,
            "-v",
        ]))
        .unwrap();
        let trace = std::fs::read_to_string(&trace_json).unwrap();
        let value = tinyjson::parse(&trace).unwrap();
        // Four epochs of training must appear as four train.epoch events.
        let tinyjson::Value::Obj(top) = &value else {
            panic!("trace root must be an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "events")
            .map(|(_, v)| v)
            .unwrap();
        let tinyjson::Value::Arr(events) = events else {
            panic!("events must be an array")
        };
        let epoch_events = events
            .iter()
            .filter(|e| {
                matches!(e, tinyjson::Value::Obj(fields)
                    if fields.iter().any(|(k, v)| k == "name"
                        && matches!(v, tinyjson::Value::Str(s) if s == "train.epoch")))
            })
            .count();
        assert_eq!(epoch_events, 4);
        for f in [train_csv, cal_csv, model_json, trace_json] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn train_rejects_invalid_alpha() {
        let err = run(strings(&[
            "train",
            "--train",
            "x.csv",
            "--calibration",
            "y.csv",
            "--model",
            "m.json",
            "--alpha",
            "2.0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("alpha"), "{err}");
    }

    #[test]
    fn missing_data_file_is_a_data_error() {
        let err = run(strings(&[
            "train",
            "--train",
            "/nonexistent/train.csv",
            "--calibration",
            "/nonexistent/cal.csv",
            "--model",
            &tmp("never.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn serve_with_missing_model_is_a_data_error() {
        let err = run(strings(&[
            "serve",
            "--model",
            "/nonexistent/model.json",
            "--tcp",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn corrupt_training_data_is_a_training_error() {
        // A readable, well-formed CSV whose contents the pipeline must
        // reject: every row is treated, so no uplift is identifiable.
        let train_csv = tmp("single_group.csv");
        let mut body = String::from("f0,treatment,conversion,visit\n");
        for i in 0..200 {
            body.push_str(&format!("{}.0,1,1,1\n", i % 7));
        }
        std::fs::write(&train_csv, &body).unwrap();
        let err = run(strings(&[
            "train",
            "--train",
            &train_csv,
            "--calibration",
            &train_csv,
            "--model",
            &tmp("never2.json"),
            "--epochs",
            "2",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Train(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);
        let _ = std::fs::remove_file(train_csv);
    }
}
