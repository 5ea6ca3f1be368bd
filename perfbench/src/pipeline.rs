//! `pipeline-rdrp` and `pipeline-karm`: repeated passes of the offline
//! paper pipeline in this process.
//!
//! A pass reads its input CSVs (the set-up part), fits, saves and
//! reloads the artifact, scores the population and allocates a fixed
//! budget. Every pass does the same work on the same inputs, so the
//! per-pass figures are repetitions of one measurement.

use crate::data::{self, BUDGET_FRACTION};
use crate::report::{Checks, Outcome, Values};
use crate::spans::{self, Tracer};
use crate::{oracle, stats, sys, RunArgs};
use linalg::random::Prng;
use obs::{InMemoryRecorder, Obs};
use rdrp::{greedy_allocate, mckp_allocate, MethodConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes every run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// What one pass measured and produced.
struct Pass {
    /// Wall time of reading the input CSVs.
    read_ns: u64,
    /// Process CPU time of reading the input CSVs.
    read_cpu_ns: u64,
    /// Wall time of the rest of the pass.
    work_ns: u64,
    /// Process CPU (all threads) of the rest of the pass.
    cpu_ns: u64,
    /// Scores the pass allocated on (flattened for K-arm).
    scores: Vec<f64>,
    /// The pass's `oracle_share`.
    share: f64,
    /// Peak resident set during the pass, MiB.
    peak_rss_mib: f64,
}

/// The clock the program's trace events are stamped with: the tracer's
/// own, so events and spans share one time axis.
#[derive(Debug)]
struct TracerClock(Instant);

impl obs::Clock for TracerClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A fresh in-memory trace on the tracer's clock (traced runs), or the
/// disabled handle.
fn pass_obs(tracer: &Tracer) -> (Obs, Option<Arc<InMemoryRecorder>>) {
    if !tracer.enabled() {
        return (Obs::disabled(), None);
    }
    let recorder = Arc::new(InMemoryRecorder::new());
    let obs = Obs::new(
        Arc::clone(&recorder) as Arc<dyn obs::Recorder>,
        Arc::new(TracerClock(tracer.origin())),
    );
    (obs, Some(recorder))
}

/// The last `name` event at or after `from` on the tracer's clock.
fn last_event(trace: &InMemoryRecorder, name: &str, from: u64) -> Option<u64> {
    trace
        .events()
        .iter()
        .filter(|e| e.name == name && e.t_ns >= from)
        .map(|e| e.t_ns)
        .max()
}

/// Per-pass figures the traced run reports as medians.
#[derive(Default)]
struct LayerSamples {
    by_metric: Vec<(&'static str, Vec<f64>)>,
    predict_ns: f64,
    predict_rows: f64,
}

impl LayerSamples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.by_metric.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.by_metric.push((name, vec![value])),
        }
    }

    /// Adds the pass's span-derived figures (ms unless named otherwise).
    fn add_pass(&mut self, tracer: &Tracer, first_span: usize, trace: &InMemoryRecorder) {
        let pass_spans = &tracer.spans()[first_span..];
        // Parent indices are absolute; rebase them onto this pass.
        let rebased: Vec<spans::Span> = pass_spans
            .iter()
            .map(|s| spans::Span {
                parent: s.parent.map(|p| p - first_span),
                ..s.clone()
            })
            .collect();
        let layers = spans::by_name(&rebased);
        let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e6);
        for (metric, span) in [
            ("datasets.read_ms", "datasets.read"),
            ("nn.train_ms", "nn.train"),
            ("rdrp.calibrate_ms", "rdrp.calibrate"),
            ("rdrp.form_select_ms", "rdrp.form_select"),
            ("artifact.save_ms", "artifact.save"),
            ("artifact.load_ms", "artifact.load"),
            ("allocator.greedy_ms", "allocator.greedy"),
            ("karm.score_matrix_ms", "karm.score_matrix"),
            ("mckp.allocate_ms", "mckp.allocate"),
        ] {
            self.push(metric, ms(span));
        }
        // The MC sweeps: the recorded `infer.mc_ns` (inside the fit) plus
        // the population sweep `intervals` runs without an obs handle.
        let mc_ns = trace.histogram("infer.mc_ns").map_or(0.0, |h| h.sum());
        self.push("nn.mc_ms", mc_ns / 1e6 + ms("method.intervals"));
        if let Some(h) = trace.histogram("infer.predict_ns") {
            self.predict_ns += h.sum();
        }
        if let Some(h) = trace.histogram("infer.predict_rows") {
            self.predict_rows += h.sum();
        }
        let root = &rebased[0];
        let unattributed = spans::self_times(&rebased)[0] as f64;
        self.push(
            "trace.unattributed_pct",
            100.0 * unattributed / root.duration_ns().max(1) as f64,
        );
    }

    fn report(&self, values: &mut Values) {
        for (name, samples) in &self.by_metric {
            values.set(name, stats::median(samples));
        }
        if self.predict_rows > 0.0 {
            values.set(
                "nn.predict_us_per_row",
                self.predict_ns / self.predict_rows / 1e3,
            );
        }
    }
}

/// Runs passes for `seconds` (at least [`MIN_PASSES`]) after one
/// untimed warm-up pass, checking every pass against the warm-up's.
fn run_passes(
    args: &RunArgs,
    checks: &mut Checks,
    mut pass: impl FnMut(
        &mut Tracer,
        &Obs,
        Option<&InMemoryRecorder>,
        u64,
        &mut Checks,
    ) -> Result<Pass, String>,
    layers: &mut LayerSamples,
) -> Result<(Pass, Vec<Pass>), String> {
    let mut tracer = Tracer::new(args.trace);
    let warm = pass(&mut Tracer::new(false), &Obs::disabled(), None, 0, checks)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let unit = passes.len() as u64 + 1;
        let first_span = tracer.spans().len();
        let (obs, trace) = pass_obs(&tracer);
        sys::reset_peak_rss().map_err(|e| format!("reset peak rss: {e}"))?;
        let mut p = pass(&mut tracer, &obs, trace.as_deref(), unit, checks)?;
        p.peak_rss_mib = sys::read_peak_rss_mib(std::process::id()).map_err(|e| e.to_string())?;
        checks.expect(data::bits_equal(&p.scores, &warm.scores), || {
            format!("pass {unit}: scores differ from the warm-up pass")
        });
        checks.expect(p.share.to_bits() == warm.share.to_bits(), || {
            format!("pass {unit}: oracle_share {} != {}", p.share, warm.share)
        });
        if let Some(trace) = trace {
            layers.add_pass(&tracer, first_span, &trace);
            layers.push("pass.cpu_per_wall", p.cpu_ns as f64 / p.work_ns as f64);
        }
        passes.push(p);
    }
    if args.trace {
        tracer
            .write_jsonl(&args.out_dir.join("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok((warm, passes))
}

/// The end-to-end figures shared by both pipelines.
fn pipeline_outcome(
    warm: &Pass,
    passes: &[Pass],
    checks: Checks,
    layers: &LayerSamples,
) -> Result<Outcome, String> {
    let mut values = Values::default();
    let read: Vec<f64> = passes.iter().map(|p| p.read_ns as f64 / 1e9).collect();
    let read_cpu: Vec<f64> = passes.iter().map(|p| p.read_cpu_ns as f64 / 1e9).collect();
    let work: Vec<f64> = passes.iter().map(|p| p.work_ns as f64 / 1e6).collect();
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_ns as f64 / 1e6).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mib).collect();
    let round1 = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    println!("passes: {}", passes.len());
    println!(
        "pass read_ms {:?}",
        round1(&read.iter().map(|r| r * 1e3).collect::<Vec<_>>())
    );
    println!(
        "pass read_cpu_ms {:?}",
        round1(&read_cpu.iter().map(|r| r * 1e3).collect::<Vec<_>>())
    );
    println!("pass wall_ms {:?}", round1(&work));
    println!("pass cpu_ms {:?}", round1(&cpu));
    println!("pass peak_rss_mib {:?}", round1(&rss));
    // CPU time, as for the serving cold starts: a 30 ms read is
    // stretched by whatever the hypervisor steals while it runs.
    values.set("setup_s", stats::median(&read_cpu));
    values.set("rss_mb", stats::median(&rss));
    values.set("p50_ms", stats::median(&work));
    values.set("cpu_ms", stats::median(&cpu));
    values.set("oracle_share", warm.share);
    layers.report(&mut values);
    let failed = if checks.ok() { 0 } else { passes.len() as u64 };
    Ok(Outcome {
        correct: checks.ok(),
        attempted: passes.len() as u64,
        failed,
        values,
    })
}

/// `pipeline-rdrp`: Algorithm 4 at the CLI defaults, end to end.
pub fn run_rdrp(args: &RunArgs) -> Result<Outcome, String> {
    sys::single_malloc_arena();
    let fit = data::pinned_fit("rdrp")?;
    let pop = data::base_population(args.seed, data::POP_ROWS);
    println!(
        "inputs: train {} cal {} population {} rows, fit seed {:#x}, redraws {}",
        fit.train.len(),
        fit.cal.len(),
        pop.len(),
        fit.fit_seed,
        fit.redraws
    );
    let dir = &args.work_dir;
    let files = [
        dir.join("train.csv"),
        dir.join("cal.csv"),
        dir.join("population.csv"),
    ];
    data::write_csv(&fit.train, &files[0])?;
    data::write_csv(&fit.cal, &files[1])?;
    data::write_csv(&pop, &files[2])?;
    let artifact = dir.join("rdrp.json");
    let tau_r = pop
        .true_tau_r
        .clone()
        .ok_or("population lost its ground truth")?;
    let tau_c = pop
        .true_tau_c
        .clone()
        .ok_or("population lost its ground truth")?;
    let budget = oracle::binary_budget(&tau_c, BUDGET_FRACTION);
    // The fitted method's own scores: the save → load round trip must
    // reproduce them bitwise.
    let fitted_scores = fit.method.scores_fresh(&pop.x, &Obs::disabled());
    let mut checks = Checks::default();
    let mut layers = LayerSamples::default();
    let pass = |tracer: &mut Tracer,
                obs: &Obs,
                trace: Option<&InMemoryRecorder>,
                unit: u64,
                checks: &mut Checks| {
        let root = tracer.open("pipeline.pass", None, unit);
        let t0 = tracer.now_ns();
        let cpu0 = sys::process_cpu_ns();
        let (read, _) = tracer.span("datasets.read", Some(root), unit, || {
            files
                .iter()
                .map(|f| data::read_csv(f))
                .collect::<Result<Vec<_>, _>>()
        });
        let [train, cal, population]: [datasets::RctDataset; 3] =
            read?.try_into().map_err(|_| "three CSVs".to_string())?;
        let t1 = tracer.now_ns();
        let cpu1 = sys::process_cpu_ns();
        let fit_span = tracer.open("rdrp.fit", Some(root), unit);
        let fit_start = tracer.now_ns();
        let mut method =
            rdrp::build("rdrp", &MethodConfig::default()).map_err(|e| e.to_string())?;
        method
            .fit(&train, &cal, &mut Prng::seed_from_u64(fit.fit_seed), obs)
            .map_err(|e| format!("fit: {e}"))?;
        tracer.close(fit_span);
        let (saved, _) = tracer.span("artifact.save", Some(root), unit, || {
            rdrp::save_method(method.as_ref(), &artifact).map_err(|e| e.to_string())
        });
        saved?;
        let (loaded, _) = tracer.span("artifact.load", Some(root), unit, || {
            rdrp::load_method(&artifact).map_err(|e| e.to_string())
        });
        let loaded = loaded?;
        let (scores, _) = tracer.span("method.scores", Some(root), unit, || {
            loaded.scores_fresh(&population.x, obs)
        });
        let (intervals, _) = tracer.span("method.intervals", Some(root), unit, || {
            loaded.intervals(&population.x)
        });
        let (allocation, _) = tracer.span("allocator.greedy", Some(root), unit, || {
            greedy_allocate(&scores, &tau_c, budget)
        });
        let t_end = tracer.now_ns();
        let cpu_end = sys::process_cpu_ns();
        tracer.close(root);
        if let Some(trace) = trace {
            let epoch = last_event(trace, "train.epoch", fit_start);
            let qhat = last_event(trace, "calibration.qhat", fit_start);
            let form = last_event(trace, "calibration.form_selected", fit_start);
            if let Some(e) = epoch {
                tracer.record("nn.train", fit_start, e, Some(fit_span), unit);
            }
            if let (Some(e), Some(q)) = (epoch, qhat) {
                tracer.record("rdrp.calibrate", e, q, Some(fit_span), unit);
            }
            if let (Some(q), Some(f)) = (qhat, form) {
                tracer.record("rdrp.form_select", q, f, Some(fit_span), unit);
            }
        }
        // Output checks, outside the pass's timings.
        checks.expect(data::same_bits(&population.x, &pop.x), || {
            format!("pass {unit}: population CSV did not round-trip")
        });
        checks.expect(data::bits_equal(&scores, &fitted_scores), || {
            format!("pass {unit}: scores after save → load differ from the fitted method's")
        });
        let intervals = intervals.unwrap_or_default();
        checks.expect(
            intervals.len() == scores.len() && intervals.iter().all(|iv| iv.lo <= iv.hi),
            || format!("pass {unit}: missing or inverted 90% intervals"),
        );
        checks.expect(allocation.spent <= budget, || {
            format!(
                "pass {unit}: spent {} over budget {budget}",
                allocation.spent
            )
        });
        let share = oracle::binary_share_of(&allocation, &tau_r, &tau_c, budget);
        Ok(Pass {
            read_ns: t1 - t0,
            read_cpu_ns: cpu1 - cpu0,
            work_ns: t_end - t1,
            cpu_ns: cpu_end - cpu1,
            scores,
            share,
            peak_rss_mib: 0.0,
        })
    };
    let (warm, passes) = run_passes(args, &mut checks, pass, &mut layers)?;
    if args.trace {
        if let Ok(meta) = std::fs::metadata(&artifact) {
            layers.push("artifact.bytes", meta.len() as f64);
        }
    }
    pipeline_outcome(&warm, &passes, checks, &layers)
}

/// `pipeline-karm`: K = 4 coupons through per-arm-lifted DRP.
pub fn run_karm(args: &RunArgs) -> Result<Outcome, String> {
    sys::single_malloc_arena();
    let inputs = data::karm_inputs(args.seed)?;
    println!(
        "inputs: train {} cal {} population {} rows, {} arms, fit seed {:#x}, redraws {}",
        inputs.train.len(),
        inputs.cal.len(),
        inputs.pop.len(),
        data::KARM_ARMS,
        inputs.fit_seed,
        inputs.redraws
    );
    let dir = &args.work_dir;
    let train_files = data::write_levels(&inputs.train, dir, "train")?;
    let cal_files = data::write_levels(&inputs.cal, dir, "cal")?;
    let pop_file = dir.join("population.csv");
    data::write_all(&inputs.pop, &pop_file)?;
    let artifact = dir.join("karm.json");
    let tau_r = inputs
        .pop
        .true_tau_r
        .clone()
        .ok_or("population lost its ground truth")?;
    let tau_c = inputs
        .pop
        .true_tau_c
        .clone()
        .ok_or("population lost its ground truth")?;
    let budget = oracle::karm_budget(&tau_c, BUDGET_FRACTION);
    let mut checks = Checks::default();
    let mut layers = LayerSamples::default();
    let pass = |tracer: &mut Tracer,
                obs: &Obs,
                trace: Option<&InMemoryRecorder>,
                unit: u64,
                checks: &mut Checks| {
        let root = tracer.open("pipeline.pass", None, unit);
        let t0 = tracer.now_ns();
        let cpu0 = sys::process_cpu_ns();
        let (read, _) = tracer.span("datasets.read", Some(root), unit, || {
            Ok::<_, String>((
                data::read_levels(&train_files)?,
                data::read_levels(&cal_files)?,
                data::read_csv(&pop_file)?,
            ))
        });
        let (train, cal, population) = read?;
        let t1 = tracer.now_ns();
        let cpu1 = sys::process_cpu_ns();
        let fit_span = tracer.open("karm.fit", Some(root), unit);
        let fit_start = tracer.now_ns();
        let mut method = data::karm_method()?;
        method
            .fit(&train, &cal, &mut Prng::seed_from_u64(inputs.fit_seed), obs)
            .map_err(|e| format!("fit: {e}"))?;
        tracer.close(fit_span);
        if let Some(e) = trace.and_then(|t| last_event(t, "train.epoch", fit_start)) {
            tracer.record("nn.train", fit_start, e, Some(fit_span), unit);
        }
        let (saved, _) = tracer.span("artifact.save", Some(root), unit, || {
            rdrp::save_karm_method(method.as_ref(), &artifact).map_err(|e| e.to_string())
        });
        saved?;
        let (loaded, _) = tracer.span("artifact.load", Some(root), unit, || {
            rdrp::load_karm_method(&artifact).map_err(|e| e.to_string())
        });
        let loaded = loaded?;
        let (scores, _) = tracer.span("karm.score_matrix", Some(root), unit, || {
            loaded.score_matrix(&population.x, obs)
        });
        let (allocation, _) = tracer.span("mckp.allocate", Some(root), unit, || {
            mckp_allocate(&scores, &tau_c, budget)
        });
        let allocation = allocation.map_err(|e| e.to_string())?;
        let t_end = tracer.now_ns();
        let cpu_end = sys::process_cpu_ns();
        tracer.close(root);
        checks.expect(
            same_karm_inputs(&train, &inputs.train) && same_karm_inputs(&cal, &inputs.cal),
            || format!("pass {unit}: K-arm CSVs did not round-trip"),
        );
        checks.expect(data::same_bits(&population.x, &inputs.pop.x), || {
            format!("pass {unit}: population CSV did not round-trip")
        });
        if unit == 0 {
            let direct = method.score_matrix(&population.x, &Obs::disabled());
            checks.expect(data::bits_equal(&direct.concat(), &scores.concat()), || {
                "scores after save → load differ from the fitted method's".to_string()
            });
        }
        checks.expect(allocation.spent <= budget, || {
            format!(
                "pass {unit}: spent {} over budget {budget}",
                allocation.spent
            )
        });
        let share = oracle::karm_share_of(&allocation, &tau_r, &tau_c, budget)
            .map_err(|e| e.to_string())?;
        Ok(Pass {
            read_ns: t1 - t0,
            read_cpu_ns: cpu1 - cpu0,
            work_ns: t_end - t1,
            cpu_ns: cpu_end - cpu1,
            scores: scores.concat(),
            share,
            peak_rss_mib: 0.0,
        })
    };
    let (warm, passes) = run_passes(args, &mut checks, pass, &mut layers)?;
    if args.trace {
        if let Ok(meta) = std::fs::metadata(&artifact) {
            layers.push("artifact.bytes", meta.len() as f64);
        }
    }
    pipeline_outcome(&warm, &passes, checks, &layers)
}

fn same_karm_inputs(
    read: &datasets::multi::MultiRctDataset,
    written: &datasets::multi::MultiRctDataset,
) -> bool {
    data::same_bits(&read.x, &written.x)
        && read.level == written.level
        && data::bits_equal(&read.y_r, &written.y_r)
        && data::bits_equal(&read.y_c, &written.y_c)
}
