//! `serve-binary-drp` and `serve-jsonl-feedback`: `rdrp-cli serve` in
//! its own process, driven at a fixed rate by [`crate::loadgen`].
//!
//! The artifact the server loads is fitted in this process first, with
//! the code under test and outside every timer. Every served line is
//! checked: scores bitwise equal to `load_method(..).scores` on the same
//! rows, and every feedback line answered `observed`.

use crate::data::{self, BUDGET_FRACTION};
use crate::loadgen::{self, LineRecord, LoadResult, Planned, Protocol, Reply};
use crate::report::{Checks, Outcome, Values};
use crate::spans::Tracer;
use crate::{oracle, stats, sys, RunArgs};
use linalg::Matrix;
use obs::Obs;
use rdrp::RoiMethod;
use serve::{CalibrationMonitor, CalibrationMonitorConfig, FrameBuf, ModelRegistry, ScoreRequest};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows in every scoring request.
const ROWS_PER_REQUEST: usize = 8;
/// Distinct scoring payloads per population, cycled through.
const POOL_REQUESTS: usize = 1024;
/// Distinct feedback rows per population.
const FEEDBACK_POOL: usize = 2048;
/// Offered rate of `serve-binary-drp`, requests/s over two connections.
const BINARY_RATE: f64 = 2000.0;
/// Offered scoring rate of `serve-jsonl-feedback`, lines/s on one
/// connection; one feedback line per three scoring lines rides the other.
const JSONL_SCORE_RATE: f64 = 500.0;
/// Warm-up before the measured phase, at the same rates.
const WARMUP_NS: u64 = 1_000_000_000;
/// Cold starts per run that `setup_s` is the median of.
const COLD_STARTS: usize = 21;
/// Repetitions of each in-process replay timing in a traced run.
const REPLAYS: usize = 10;
/// How long a server may take to start listening, or to answer a cold
/// start's first request, before the run fails.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);

/// What the server must answer for one payload.
#[derive(Debug, Clone)]
enum Expect {
    /// Exactly these scores.
    Scores(Vec<f64>),
    /// An applied observation.
    Observed,
}

/// One feedback payload's content, for the in-process replay.
struct Feedback {
    row: Vec<f64>,
    outcome: f64,
}

/// A serving workload, fully built before any timer starts.
struct Workload {
    protocol: Protocol,
    serve_args: Vec<String>,
    artifact: PathBuf,
    reference: Option<PathBuf>,
    payloads: Vec<Vec<u8>>,
    ids: Vec<String>,
    expect: Vec<Expect>,
    /// Feedback content by payload index (None for scoring payloads).
    feedback: Vec<Option<Feedback>>,
    /// Every line of a load phase, sorted by due time.
    plan: Vec<Planned>,
    /// Lines before this index are warm-up.
    warmup: usize,
    /// The base-population pool (payloads `0..POOL_REQUESTS`) with its
    /// ground truth, which `oracle_share` is computed over.
    base: datasets::RctDataset,
}

/// A running `rdrp-cli serve`; killed and reaped if dropped unfinished.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    fn start(cli: &Path, serve_args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(cli)
            .args(serve_args)
            // One glibc malloc arena, as in the pipeline workloads: with
            // glibc's default the server's anonymous memory at the end of
            // a phase read 0.5 or 0.9–1.2 MiB on identical load.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        // A watchdog kills a server that does not start listening in
        // time, which ends the read below; the read itself stays on this
        // thread so the start-up is not slowed by a thread hop.
        let pid = child.id();
        let (started, watch) = std::sync::mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(STARTUP_LIMIT) {
                sys::kill(pid);
            }
        });
        let mut reader = BufReader::new(child.stderr.take().ok_or("no server stderr")?);
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break Err(format!("server exited before listening:\n{log}"));
            }
            log.push_str(&line);
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("listening address {addr}: {e}"));
            }
        };
        drop(started);
        let _ = watchdog.join();
        let addr = match addr {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stderr = std::thread::spawn(move || {
            let _ = reader.read_to_string(&mut log);
            log
        });
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the server to exit on its own and returns its stderr.
    fn finish(&mut self, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after its connections closed".into());
                }
            }
        };
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("server exited with {status}:\n{log}"));
        }
        Ok(log)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn base_args(artifact: &Path) -> Vec<String> {
    [
        "serve",
        "--model",
        &artifact.to_string_lossy(),
        "--tcp",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Length of one load phase's measured part, ns. A traced run splits
/// `--seconds` between an untraced and a traced load phase.
fn phase_ns(args: &RunArgs) -> u64 {
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    (seconds.max(1.0) * 1e9) as u64
}

/// Sorts a plan by due time and counts its warm-up lines.
fn finish_plan(mut plan: Vec<Planned>) -> (Vec<Planned>, usize) {
    plan.sort_by_key(|p| p.due_ns);
    let warmup = plan.partition_point(|p| p.due_ns < WARMUP_NS);
    (plan, warmup)
}

fn request_rows(d: &datasets::RctDataset, i: usize) -> Vec<Vec<f64>> {
    (i * ROWS_PER_REQUEST..(i + 1) * ROWS_PER_REQUEST)
        .map(|r| d.x.row(r).to_vec())
        .collect()
}

fn expected_scores(method: &dyn RoiMethod, rows: &[Vec<f64>]) -> Vec<f64> {
    method.scores_fresh(&Matrix::from_rows(rows), &Obs::disabled())
}

fn fit_and_save(args: &RunArgs, name: &str) -> Result<(data::PinnedFit, PathBuf), String> {
    let fit = data::pinned_fit(name)?;
    let artifact = args.work_dir.join(format!("{name}.json"));
    rdrp::save_method(fit.method.as_ref(), &artifact).map_err(|e| e.to_string())?;
    println!(
        "inputs: {name} fitted on train {} cal {} rows, fit seed {:#x}, redraws {}",
        fit.train.len(),
        fit.cal.len(),
        fit.fit_seed,
        fit.redraws
    );
    Ok((fit, artifact))
}

/// `serve-binary-drp`: binary frames to a 2-shard server of a DRP model.
fn binary_workload(args: &RunArgs) -> Result<Workload, String> {
    let (_, artifact) = fit_and_save(args, "drp")?;
    let method = rdrp::load_method(&artifact).map_err(|e| e.to_string())?;
    let base = data::base_population(args.seed, POOL_REQUESTS * ROWS_PER_REQUEST);
    let mut payloads = Vec::new();
    let mut ids = Vec::new();
    let mut expect = Vec::new();
    for i in 0..POOL_REQUESTS {
        let rows = request_rows(&base, i);
        expect.push(Expect::Scores(expected_scores(method.as_ref(), &rows)));
        let id = format!("s{i}");
        let mut frame = Vec::new();
        serve::encode_score_request(
            &ScoreRequest {
                id: id.clone(),
                model: None,
                version: None,
                rows,
                deadline_ms: None,
            },
            &mut frame,
        )
        .map_err(|e| e.message)?;
        payloads.push(frame);
        ids.push(id);
    }
    let count = ((WARMUP_NS + phase_ns(args)) as f64 * BINARY_RATE / 1e9) as usize;
    let (plan, warmup) = finish_plan(
        loadgen::fixed_rate(BINARY_RATE, 0, count)
            .enumerate()
            .map(|(j, due_ns)| Planned {
                due_ns,
                conn: j % 2,
                payload: j % POOL_REQUESTS,
            })
            .collect(),
    );
    let mut serve_args = base_args(&artifact);
    for flag in ["--binary", "true", "--shards", "2", "--workers", "1"] {
        serve_args.push(flag.to_string());
    }
    Ok(Workload {
        protocol: Protocol::Binary,
        serve_args,
        artifact,
        reference: None,
        feedback: std::iter::repeat_with(|| None)
            .take(payloads.len())
            .collect(),
        payloads,
        ids,
        expect,
        plan,
        warmup,
        base,
    })
}

fn json_row(row: &[f64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", cells.join(","))
}

/// `serve-jsonl-feedback`: JSONL scoring plus feedback to an rDRP server
/// with online calibration; the rows shift population halfway through.
fn jsonl_workload(args: &RunArgs) -> Result<Workload, String> {
    let (fit, artifact) = fit_and_save(args, "rdrp")?;
    let reference = args.work_dir.join("train.csv");
    data::write_csv(&fit.train, &reference)?;
    let method = rdrp::load_method(&artifact).map_err(|e| e.to_string())?;
    let base = data::base_population(args.seed, POOL_REQUESTS * ROWS_PER_REQUEST);
    let shifted = data::shifted_population(args.seed, POOL_REQUESTS * ROWS_PER_REQUEST);
    let mut payloads = Vec::new();
    let mut ids = Vec::new();
    let mut expect = Vec::new();
    let mut feedback = Vec::new();
    for pool in [&base, &shifted] {
        for i in 0..POOL_REQUESTS {
            let rows = request_rows(pool, i);
            expect.push(Expect::Scores(expected_scores(method.as_ref(), &rows)));
            let id = format!("s{}", payloads.len());
            let cells: Vec<String> = rows.iter().map(|r| json_row(r)).collect();
            payloads
                .push(format!("{{\"id\":\"{id}\",\"rows\":[{}]}}\n", cells.join(",")).into_bytes());
            ids.push(id);
            feedback.push(None);
        }
    }
    let first_feedback = payloads.len();
    for pool in [&base, &shifted] {
        let roi = pool.true_roi().ok_or("population lost its ground truth")?;
        for (k, &outcome) in roi.iter().enumerate().take(FEEDBACK_POOL) {
            let row = pool.x.row(k).to_vec();
            let id = format!("f{}", payloads.len() - first_feedback);
            payloads.push(
                format!(
                    "{{\"id\":\"{id}\",\"row\":{},\"outcome\":{outcome:?}}}\n",
                    json_row(&row),
                )
                .into_bytes(),
            );
            ids.push(id);
            expect.push(Expect::Observed);
            feedback.push(Some(Feedback { row, outcome }));
        }
    }
    // Scoring lines ride connection 1 every 2 ms; feedback lines
    // ride connection 0, one per three scoring lines, half an interval
    // apart from them. All feedback goes in one fixed order, so the
    // monitor's hot-swaps repeat run to run. Halfway through the
    // measured part both switch to the shifted population.
    let span_ns = WARMUP_NS + phase_ns(args);
    let switch_ns = WARMUP_NS + phase_ns(args) / 2;
    let shift = |due_ns: u64| usize::from(due_ns >= switch_ns);
    let scores = (span_ns as f64 * JSONL_SCORE_RATE / 1e9) as usize;
    let scoring = loadgen::fixed_rate(JSONL_SCORE_RATE, 0, scores)
        .enumerate()
        .map(|(k, due_ns)| Planned {
            due_ns,
            conn: 1,
            payload: shift(due_ns) * POOL_REQUESTS + k % POOL_REQUESTS,
        });
    let feedback_rate = JSONL_SCORE_RATE / 3.0;
    let half_interval = (5e8 / JSONL_SCORE_RATE) as u64;
    let feedback_lines = loadgen::fixed_rate(feedback_rate, half_interval, scores / 3)
        .enumerate()
        .map(|(k, due_ns)| Planned {
            due_ns,
            conn: 0,
            payload: first_feedback + shift(due_ns) * FEEDBACK_POOL + k % FEEDBACK_POOL,
        });
    let (plan, warmup) = finish_plan(scoring.chain(feedback_lines).collect());
    let mut serve_args = base_args(&artifact);
    for flag in [
        "--online-calibration",
        "true",
        "--reference",
        &reference.to_string_lossy(),
    ] {
        serve_args.push(flag.to_string());
    }
    Ok(Workload {
        protocol: Protocol::Jsonl,
        serve_args,
        artifact,
        reference: Some(reference),
        payloads,
        ids,
        expect,
        feedback,
        plan,
        warmup,
        base,
    })
}

/// One cold start: spawn → first correct answer.
struct ColdStart {
    /// Wall time, s.
    wall_s: f64,
    /// The server's CPU time (all threads) over that span, s.
    cpu_s: f64,
}

/// Repeated cold starts of the server, each ended by its first correct
/// answer.
fn cold_starts(args: &RunArgs, w: &Workload) -> Result<Vec<ColdStart>, String> {
    let mut serve_args = w.serve_args.clone();
    serve_args.extend(["--max-conns".to_string(), "1".to_string()]);
    let mut samples = Vec::new();
    for _ in 0..COLD_STARTS {
        let t0 = Instant::now();
        let mut server = Server::start(&args.cli, &serve_args)?;
        let mut s = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(STARTUP_LIMIT))
            .map_err(|e| e.to_string())?;
        s.write_all(&w.payloads[0])
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = FrameBuf::new();
        let mut chunk = [0u8; 4096];
        let response = loop {
            if let Some(r) = w.protocol.decode(&mut buf)? {
                break r;
            }
            let n = s.read(&mut chunk).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed before answering".into());
            }
            buf.extend(&chunk[..n]);
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::read_run_ns(server.pid()).map_err(|e| e.to_string())? as f64 / 1e9;
        if !answer_ok(w, 0, Some(&response)) {
            return Err(format!("cold start answered wrongly: {response:?}"));
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        while matches!(s.read(&mut chunk), Ok(n) if n > 0) {}
        server.finish(Duration::from_secs(10))?;
        samples.push(ColdStart { wall_s, cpu_s });
    }
    Ok(samples)
}

/// Whether `response` is the right answer to payload `p`.
fn answer_ok(w: &Workload, p: usize, response: Option<&loadgen::Response>) -> bool {
    let Some(r) = response else { return false };
    r.id == w.ids[p]
        && match (&w.expect[p], &r.reply) {
            (Expect::Scores(e), Reply::Scores(s)) => data::bits_equal(e, s),
            (Expect::Observed, Reply::Observed { .. }) => true,
            _ => false,
        }
}

/// One load phase against a fresh server.
fn load_phase(
    args: &RunArgs,
    w: &Workload,
    trace_out: Option<&Path>,
) -> Result<LoadResult, String> {
    let mut serve_args = w.serve_args.clone();
    serve_args.extend(["--max-conns".to_string(), "2".to_string()]);
    if let Some(path) = trace_out {
        serve_args.extend([
            "--trace-out".to_string(),
            path.to_string_lossy().into_owned(),
        ]);
    }
    let mut server = Server::start(&args.cli, &serve_args)?;
    let streams = loadgen::connect(server.addr, 2)?;
    let result = loadgen::run(
        streams,
        w.protocol,
        &w.payloads,
        &w.plan,
        w.warmup,
        server.pid(),
    )?;
    server.finish(Duration::from_secs(30))?;
    Ok(result)
}

/// A load phase's checked figures.
struct PhaseFigures {
    failed: u64,
    answered: u64,
    p50_ms: f64,
    cpu_ms: f64,
    sys_share: f64,
    swaps: u64,
    /// Served scores of the base-pool payloads that were served, in
    /// payload order (all of them unless the run is only a few seconds).
    base_scores: Vec<(usize, Vec<f64>)>,
}

fn check_phase(w: &Workload, r: &LoadResult, checks: &mut Checks, label: &str) -> PhaseFigures {
    let mut failed = 0u64;
    let mut swaps = 0u64;
    let mut served: Vec<Option<&Vec<f64>>> = vec![None; POOL_REQUESTS];
    for (j, line) in r.lines.iter().enumerate() {
        let p = w.plan[j].payload;
        let ok = answer_ok(w, p, line.response.as_ref());
        if !ok {
            failed += 1;
            checks.expect(false, || {
                format!("{label} line {j} (payload {p}): {:?}", line.response)
            });
            continue;
        }
        match line.response.as_ref().map(|r| &r.reply) {
            Some(Reply::Observed { swapped: true }) => swaps += 1,
            Some(Reply::Scores(s)) if p < POOL_REQUESTS => served[p] = Some(s),
            _ => {}
        }
    }
    let answered: Vec<&LineRecord> = r
        .measured()
        .iter()
        .filter(|l| l.response.is_some())
        .collect();
    // Latency is the scoring requests' (the read path); feedback lines
    // skip the engine's batching window and are reported apart.
    let (scoring, feedback): (Vec<&LineRecord>, Vec<&LineRecord>) =
        answered.iter().partition(|l| {
            matches!(
                l.response.as_ref().map(|r| &r.reply),
                Some(Reply::Scores(_))
            )
        });
    let lat: Vec<f64> = scoring.iter().map(|l| l.latency_ms()).collect();
    let feedback_lat: Vec<f64> = feedback.iter().map(|l| l.latency_ms()).collect();
    if !feedback_lat.is_empty() {
        println!(
            "{label}: feedback latency p50 {:.4} ms over {} lines",
            stats::median(&feedback_lat),
            feedback_lat.len()
        );
    }
    let late: Vec<f64> = r.measured().iter().map(|l| l.late_ms()).collect();
    let base_scores: Vec<(usize, Vec<f64>)> = served
        .iter()
        .enumerate()
        .filter_map(|(p, s)| s.map(|s| (p, s.clone())))
        .collect();
    let warm_failed = r.lines[..r.warmup]
        .iter()
        .enumerate()
        .filter(|(j, l)| !answer_ok(w, w.plan[*j].payload, l.response.as_ref()))
        .count();
    let warm_late: Vec<f64> = r.lines[..r.warmup]
        .iter()
        .map(LineRecord::late_ms)
        .collect();
    println!(
        "{label}: warm-up sent {} ok {} failed {} late max {:.3} ms; \
         measured sent {} ok {} failed {} late max {:.3} ms",
        r.warmup,
        r.warmup - warm_failed,
        warm_failed,
        stats::max(&warm_late),
        r.measured().len(),
        r.measured().len() as u64 - (failed - warm_failed as u64),
        failed - warm_failed as u64,
        stats::max(&late)
    );
    let p50_ms = if lat.is_empty() {
        f64::NAN
    } else {
        stats::median(&lat)
    };
    let deciles: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .filter_map(|&q| stats::percentile(&lat, q).map(|p| (p.value * 1e3).round() / 1e3))
        .collect();
    println!("{label}: latency p10/p25/p50/p75/p90 {deciles:?} ms");
    if let Some((q, p)) = stats::tail_percentile(&lat) {
        println!(
            "{label}: latency p50 {p50_ms:.4} ms, p{} {:.4} ms ({} of {} beyond), max {:.3} ms; \
             hot-swaps {swaps}",
            q * 100.0,
            p.value,
            p.beyond,
            p.count,
            stats::max(&lat),
        );
    }
    let cpu_ms = sys::cpu_ms_per_unit(
        r.cpu_start.run_ns,
        r.cpu_end.run_ns,
        (answered.len() as u64).max(1),
    );
    let sys_share = sys::sys_share(r.cpu_start.ticks, r.cpu_end.ticks);
    println!(
        "{label}: server cpu {cpu_ms:.5} ms/line (sys share {sys_share:.3}), peak rss {:.3} MiB",
        r.peak_rss_mib
    );
    PhaseFigures {
        failed,
        answered: answered.len() as u64,
        p50_ms,
        cpu_ms,
        sys_share,
        swaps,
        base_scores,
    }
}

pub fn run_binary(args: &RunArgs) -> Result<Outcome, String> {
    let w = binary_workload(args)?;
    run_workload(args, &w)
}

pub fn run_jsonl(args: &RunArgs) -> Result<Outcome, String> {
    let w = jsonl_workload(args)?;
    run_workload(args, &w)
}

fn run_workload(args: &RunArgs, w: &Workload) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut values = Values::default();
    let cold = if args.trace {
        Vec::new()
    } else {
        cold_starts(args, w)?
    };
    let a = load_phase(args, w, None)?;
    let fa = check_phase(w, &a, &mut checks, "phase");
    let tau_r = w
        .base
        .true_tau_r
        .as_ref()
        .ok_or("population lost its ground truth")?;
    let tau_c = w
        .base
        .true_tau_c
        .as_ref()
        .ok_or("population lost its ground truth")?;
    // oracle_share over the rows of every base payload served.
    let rows: Vec<usize> = fa
        .base_scores
        .iter()
        .flat_map(|(p, _)| p * ROWS_PER_REQUEST..(p + 1) * ROWS_PER_REQUEST)
        .collect();
    let pick = |v: &[f64]| rows.iter().map(|&i| v[i]).collect::<Vec<f64>>();
    let (tau_r, tau_c) = (pick(tau_r), pick(tau_c));
    let scores: Vec<f64> = fa.base_scores.iter().flat_map(|(_, s)| s.clone()).collect();
    let budget = oracle::binary_budget(&tau_c, BUDGET_FRACTION);
    let served = oracle::binary_share(&scores, &tau_r, &tau_c, budget);
    checks.expect(served.spent <= budget, || {
        format!("spent {} over budget {budget}", served.spent)
    });
    let share = served.share;
    println!(
        "oracle_share over {} served base payloads ({} rows)",
        fa.base_scores.len(),
        rows.len()
    );
    let mut failed = fa.failed;
    let mut attempted = a.lines.len() as u64;
    if args.trace {
        let trace_path = args.out_dir.join("server-trace.json");
        let b = load_phase(args, w, Some(&trace_path))?;
        let fb = check_phase(w, &b, &mut checks, "traced phase");
        failed += fb.failed;
        attempted += b.lines.len() as u64;
        per_layer(
            args,
            w,
            &a,
            &fa,
            &b,
            &fb,
            &trace_path,
            &mut checks,
            &mut values,
        )?;
    } else {
        let ms = |f: fn(&ColdStart) -> f64| {
            cold.iter()
                .map(|c| (f(c) * 1e4).round() / 10.0)
                .collect::<Vec<_>>()
        };
        println!("setup: cold start wall ms {:?}", ms(|c| c.wall_s));
        println!("setup: cold start server cpu ms {:?}", ms(|c| c.cpu_s));
        // The server's CPU time, not the wall time: a 10 ms start is
        // stretched by whatever the hypervisor steals while it runs
        // (8.5 ms in quiet runs, 13–40 ms in runs with steal), and the
        // CPU it took is what a change to set-up moves.
        values.set(
            "setup_s",
            stats::median(&cold.iter().map(|c| c.cpu_s).collect::<Vec<_>>()),
        );
        values.set("rss_mb", a.peak_rss_mib);
        values.set("p50_ms", fa.p50_ms);
        values.set("cpu_ms", fa.cpu_ms);
        values.set("oracle_share", share);
    }
    println!(
        "answered {} measured lines; oracle_share {share}",
        fa.answered
    );
    Ok(Outcome {
        correct: checks.ok() && failed == 0,
        attempted,
        failed,
        values,
    })
}

/// Mean of a histogram in the server's trace JSON.
fn hist_mean(trace: &tinyjson::Value, name: &str) -> f64 {
    hist_field(trace, name, "sum") / hist_field(trace, name, "count").max(1.0)
}

fn hist_field(trace: &tinyjson::Value, name: &str, field: &str) -> f64 {
    trace
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(|v| v.as_f64().ok())
        .unwrap_or(0.0)
}

/// Median wall time of `f` over [`REPLAYS`] calls, ms.
fn replay_ms(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::new();
    for unit in 0..REPLAYS as u64 {
        let start = tracer.now_ns();
        f()?;
        let end = tracer.now_ns();
        tracer.record(name, start, end, None, unit);
        samples.push((end - start) as f64 / 1e6);
    }
    Ok(stats::median(&samples))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &RunArgs,
    w: &Workload,
    a: &LoadResult,
    fa: &PhaseFigures,
    b: &LoadResult,
    fb: &PhaseFigures,
    trace_path: &Path,
    checks: &mut Checks,
    values: &mut Values,
) -> Result<(), String> {
    let text = std::fs::read_to_string(trace_path).map_err(|e| format!("server trace: {e}"))?;
    let trace = tinyjson::parse(&text).map_err(|e| format!("server trace: {e}"))?;
    let mut tracer = Tracer::new(true);
    // Client-side request spans of the traced phase: the request from
    // its due time to its answer, and the generator's lateness inside it.
    for (j, line) in b.lines.iter().enumerate() {
        let root = tracer.record("client.request", line.due_ns, line.done_ns, None, j as u64);
        tracer.record(
            "client.late",
            line.due_ns,
            line.sent_ns,
            Some(root),
            j as u64,
        );
    }
    // Codec replays over the traced phase's exact bytes.
    let mut decode_ns = Vec::new();
    let mut encode_ns = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut out = Vec::new();
    for (j, line) in b.measured().iter().enumerate() {
        let j = j + b.warmup;
        let payload = &w.payloads[w.plan[j].payload];
        let mut codec = serve::sniff_codec(payload[0]);
        let mut buf = FrameBuf::new();
        buf.extend(payload);
        let start = tracer.now_ns();
        let decoded = codec.decode_frame(&mut buf);
        let end = tracer.now_ns();
        std::hint::black_box(&decoded);
        tracer.record("wire.decode", start, end, None, j as u64);
        decode_ns.push((end - start) as f64);
        let Some(response) = &line.response else {
            continue;
        };
        wire_bytes.push((payload.len() + response.bytes) as f64);
        if let Reply::Scores(scores) = &response.reply {
            out.clear();
            let start = tracer.now_ns();
            codec.encode_response(&response.id, scores, &mut out);
            let end = tracer.now_ns();
            tracer.record("wire.encode", start, end, None, j as u64);
            encode_ns.push((end - start) as f64);
        }
    }
    let decode_us = stats::mean(&decode_ns) / 1e3;
    let encode_us = stats::mean(&encode_ns) / 1e3;
    values.set("wire.decode_us", decode_us);
    values.set("wire.encode_us", encode_us);
    values.set("wire.bytes_per_req", stats::mean(&wire_bytes));
    // Server-side engine figures from its own trace.
    let e2e_us = hist_mean(&trace, "serve.e2e_ns") / 1e3;
    let score_us = hist_mean(&trace, "serve.score_ns") / 1e3;
    let batch_rows = hist_mean(&trace, "serve.batch_rows");
    values.set("engine.queue_us", e2e_us - score_us);
    values.set("engine.batch_rows", batch_rows);
    values.set(
        "engine.batch_requests",
        hist_mean(&trace, "serve.batch_requests"),
    );
    let rejected: f64 = trace
        .get("counters")
        .and_then(|c| c.as_obj().ok())
        .map(|c| {
            c.iter()
                .filter(|(k, _)| k.starts_with("serve.rejected."))
                .filter_map(|(_, v)| v.as_f64().ok())
                .fold(0.0, |a, b| a + b)
        })
        .unwrap_or(0.0);
    values.set("engine.rejected", rejected);
    let predict_rows = hist_field(&trace, "infer.predict_rows", "sum");
    if predict_rows > 0.0 {
        values.set(
            "nn.predict_us_per_row",
            hist_field(&trace, "infer.predict_ns", "sum") / predict_rows / 1e3,
        );
    }
    let swaps = trace
        .get("events")
        .and_then(|e| e.as_arr().ok())
        .map_or(0, |events| {
            events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(|n| n.as_str().ok()) == Some("calibration.hot_swap")
                })
                .count()
        });
    checks.expect(swaps as u64 == fb.swaps, || {
        format!(
            "server traced {swaps} hot-swaps but answered {} swapped",
            fb.swaps
        )
    });
    values.set("calibration.swaps", swaps as f64);
    // The network layer is what the client waited for beyond the
    // generator's lateness, the engine and the codecs (scoring lines).
    let scoring: Vec<&LineRecord> = b
        .measured()
        .iter()
        .filter(|l| {
            matches!(
                l.response.as_ref().map(|r| &r.reply),
                Some(Reply::Scores(_))
            )
        })
        .collect();
    let lat_us = stats::mean(
        &scoring
            .iter()
            .map(|l| l.latency_ms() * 1e3)
            .collect::<Vec<_>>(),
    );
    let late_us = stats::mean(
        &scoring
            .iter()
            .map(|l| l.late_ms() * 1e3)
            .collect::<Vec<_>>(),
    );
    let attributed = late_us + e2e_us + decode_us + encode_us;
    values.set("net.self_us", lat_us - attributed);
    values.set(
        "trace.unattributed_pct",
        100.0 * (attributed - lat_us).max(0.0) / lat_us,
    );
    println!(
        "request: mean {lat_us:.1} us = late {late_us:.1} + engine {e2e_us:.1} (score {score_us:.1}) \
         + decode {decode_us:.2} + encode {encode_us:.2} + net {:.1}",
        lat_us - attributed
    );
    values.set("server.sys_share", fa.sys_share);
    values.set("obs.overhead_pct", 100.0 * (fb.cpu_ms / fa.cpu_ms - 1.0));
    println!(
        "tracing overhead: cpu {:+.2} %, p50 {:+.2} %",
        100.0 * (fb.cpu_ms / fa.cpu_ms - 1.0),
        100.0 * (fb.p50_ms / fa.p50_ms - 1.0)
    );
    values.set(
        "client.late_ms",
        stats::max(
            &a.measured()
                .iter()
                .map(LineRecord::late_ms)
                .collect::<Vec<_>>(),
        ),
    );
    // In-process replays of the serving set-up path and the scorer.
    let method = rdrp::load_method(&w.artifact).map_err(|e| e.to_string())?;
    let rows = (batch_rows.round() as usize).clamp(1, w.base.len());
    let x = w.base.x.select_rows(&(0..rows).collect::<Vec<_>>());
    let mut ws = nn::Workspace::new();
    let mut per_call = Vec::new();
    let until = Instant::now() + Duration::from_millis(300);
    let mut unit = 0u64;
    while Instant::now() < until || per_call.len() < 100 {
        let start = tracer.now_ns();
        std::hint::black_box(method.scores(&x, &mut ws, &Obs::disabled()));
        let end = tracer.now_ns();
        tracer.record("scorer.scores", start, end, None, unit);
        per_call.push((end - start) as f64);
        unit += 1;
    }
    values.set(
        "scorer.us_per_row",
        stats::median(&per_call) / rows as f64 / 1e3,
    );
    values.set(
        "registry.load_ms",
        replay_ms(&mut tracer, "registry.load", || {
            ModelRegistry::new()
                .load(serve::DEFAULT_MODEL, "1", &w.artifact)
                .map_err(|e| e.to_string())
        })?,
    );
    let resaved = args.work_dir.join("resaved.json");
    values.set(
        "artifact.save_ms",
        replay_ms(&mut tracer, "artifact.save", || {
            rdrp::save_method(method.as_ref(), &resaved).map_err(|e| e.to_string())
        })?,
    );
    values.set(
        "artifact.load_ms",
        replay_ms(&mut tracer, "artifact.load", || {
            rdrp::load_method(&w.artifact)
                .map(drop)
                .map_err(|e| e.to_string())
        })?,
    );
    let bytes = std::fs::metadata(&w.artifact)
        .map_err(|e| e.to_string())?
        .len();
    values.set("artifact.bytes", bytes as f64);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load(serve::DEFAULT_MODEL, "1", &w.artifact)
        .map_err(|e| e.to_string())?;
    if let Some(reference) = &w.reference {
        values.set(
            "datasets.read_ms",
            replay_ms(&mut tracer, "datasets.read", || {
                data::read_csv(reference).map(drop)
            })?,
        );
        // Replay the traced phase's feedback, in order, through a monitor
        // configured as `rdrp-cli serve` configures its own.
        let refdata = data::read_csv(reference)?;
        let monitor = CalibrationMonitor::new(
            Arc::clone(&registry),
            datasets::FeatureReference::from_dataset(&refdata).map_err(|e| e.to_string())?,
            CalibrationMonitorConfig {
                model: serve::DEFAULT_MODEL.to_string(),
                base_version: "1".to_string(),
                ..CalibrationMonitorConfig::default()
            },
            Obs::disabled(),
        )
        .map_err(|e| e.to_string())?;
        let mut observe_ns = Vec::new();
        for (j, p) in w.plan.iter().enumerate() {
            let Some(fb) = &w.feedback[p.payload] else {
                continue;
            };
            let start = tracer.now_ns();
            monitor
                .observe(&fb.row, None, None, fb.outcome)
                .map_err(|e| e.to_string())?;
            let end = tracer.now_ns();
            tracer.record("calibration.observe", start, end, None, j as u64);
            observe_ns.push((end - start) as f64);
        }
        values.set("calibration.observe_us", stats::mean(&observe_ns) / 1e3);
        checks.expect(monitor.swaps() == swaps as u64, || {
            format!(
                "replayed feedback hot-swapped {} times, the server {swaps}",
                monitor.swaps()
            )
        });
    }
    values.set("registry.versions", registry.entries().len() as f64);
    tracer
        .write_jsonl(&args.out_dir.join("spans.jsonl"))
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(())
}
