//! Typed command-line parsing (`--name value` pairs plus one
//! subcommand).
//!
//! Hand-rolled on purpose: the CLI's surface is a handful of string and
//! numeric flags, and keeping the workspace's dependency set to the
//! offline-vendored crates matters more than clap's ergonomics.
//!
//! Parsing is two-layered. [`Args`] is the raw lexer — it splits the
//! line into a subcommand and `--flag value` pairs and expands the
//! boolean shorthands (currently just `-v` for `--verbose true`).
//! [`Command`] is the typed surface: one struct per subcommand
//! ([`TrainArgs`], [`ScoreArgs`], [`ServeArgs`], …) with every flag
//! parsed, defaulted, range-checked, and matched against the
//! subcommand's accepted flag set. [`Command::parse`] is the single
//! validation point — a `Command` that exists is a command that can
//! run, and `main` only pattern-matches on it.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Parsed command line: a subcommand plus `--flag value` pairs.
#[derive(Debug, Clone)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Errors from argument parsing and lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// The subcommand is not one of ours.
    UnknownCommand(String),
    /// A `--flag` had no value.
    MissingValue(String),
    /// A required flag was absent.
    MissingFlag(String),
    /// A flag's value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
    },
    /// A flag the subcommand does not accept.
    UnknownFlag {
        /// Flag name.
        flag: String,
        /// The subcommand it was passed to.
        command: String,
    },
    /// An argument did not look like `--flag`.
    Unexpected(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no subcommand given"),
            ArgError::UnknownCommand(cmd) => write!(f, "unknown subcommand '{cmd}'"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ArgError::BadValue { flag, value } => {
                write!(f, "flag --{flag}: cannot parse '{value}'")
            }
            ArgError::UnknownFlag { flag, command } => {
                write!(f, "'{command}' does not accept --{flag}")
            }
            ArgError::Unexpected(arg) => write!(f, "unexpected argument '{arg}'"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgError::NoCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::NoCommand);
        }
        let mut flags = BTreeMap::new();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                // Boolean shorthand: `-x` expands to its long flag = true.
                if let Some(short) = arg.strip_prefix('-') {
                    let long = match short {
                        "v" => "verbose",
                        _ => return Err(ArgError::Unexpected(arg.clone())),
                    };
                    flags.insert(long.to_string(), "true".to_string());
                    continue;
                }
                return Err(ArgError::Unexpected(arg.clone()));
            }
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| ArgError::Unexpected(arg.clone()))?
                .to_string();
            let value = iter
                .next()
                .ok_or_else(|| ArgError::MissingValue(name.clone()))?;
            flags.insert(name, value);
        }
        Ok(Args { command, flags })
    }

    /// A required string flag.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.flags
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| ArgError::MissingFlag(flag.to_string()))
    }

    /// An optional string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// Rejects any flag outside `allowed` — typos fail loudly instead of
    /// silently falling back to defaults.
    fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for flag in self.flags.keys() {
            if !allowed.contains(&flag.as_str()) {
                return Err(ArgError::UnknownFlag {
                    flag: flag.clone(),
                    command: self.command.clone(),
                });
            }
        }
        Ok(())
    }
}

/// CSV column-name overrides shared by every subcommand that reads or
/// writes RCT CSVs.
#[derive(Debug, Clone)]
pub struct SchemaFlags {
    /// Treatment-indicator column (default `treatment`).
    pub treatment: String,
    /// Revenue/label column (default `conversion`).
    pub revenue: String,
    /// Cost column (default `visit`).
    pub cost: String,
}

const SCHEMA_FLAGS: [&str; 3] = ["treatment-col", "revenue-col", "cost-col"];

impl SchemaFlags {
    fn from_args(args: &Args) -> SchemaFlags {
        SchemaFlags {
            treatment: args.get("treatment-col").unwrap_or("treatment").to_string(),
            revenue: args.get("revenue-col").unwrap_or("conversion").to_string(),
            cost: args.get("cost-col").unwrap_or("visit").to_string(),
        }
    }
}

/// Observability flags shared by `train`, `score`, and `serve`.
#[derive(Debug, Clone)]
pub struct ObsFlags {
    /// Where to dump the run's JSON trace, if anywhere.
    pub trace_out: Option<String>,
    /// Print the metrics summary table at the end (`-v`).
    pub verbose: bool,
}

const OBS_FLAGS: [&str; 2] = ["trace-out", "verbose"];

impl ObsFlags {
    fn from_args(args: &Args) -> Result<ObsFlags, ArgError> {
        Ok(ObsFlags {
            trace_out: args.get("trace-out").map(str::to_string),
            verbose: args.get_or("verbose", false)?,
        })
    }
}

/// The synthetic dataset families `generate` can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Criteo-like lookalike RCT data.
    Criteo,
    /// Meituan-like lookalike RCT data.
    Meituan,
    /// Alibaba-like lookalike RCT data.
    Alibaba,
}

impl Dataset {
    fn parse(value: &str) -> Result<Dataset, ArgError> {
        match value {
            "criteo" => Ok(Dataset::Criteo),
            "meituan" => Ok(Dataset::Meituan),
            "alibaba" => Ok(Dataset::Alibaba),
            other => Err(ArgError::BadValue {
                flag: "dataset".to_string(),
                value: other.to_string(),
            }),
        }
    }
}

/// `generate` — emit lookalike RCT data as CSV.
#[derive(Debug, Clone)]
pub struct GenerateArgs {
    /// Which lookalike family to sample.
    pub dataset: Dataset,
    /// Rows to emit.
    pub rows: usize,
    /// Output CSV path.
    pub out: String,
    /// Sample the covariate-shifted population instead of the base one.
    pub shifted: bool,
    /// Generator seed.
    pub seed: u64,
    /// CSV column names.
    pub schema: SchemaFlags,
}

impl GenerateArgs {
    fn from_args(args: &Args) -> Result<GenerateArgs, ArgError> {
        args.check_known(&flags(
            &["dataset", "rows", "out", "shifted", "seed"],
            &[&SCHEMA_FLAGS],
        ))?;
        Ok(GenerateArgs {
            dataset: Dataset::parse(args.require("dataset")?)?,
            rows: args.get_or("rows", 10_000)?,
            out: args.require("out")?.to_string(),
            shifted: args.get_or("shifted", false)?,
            seed: args.get_or("seed", 42)?,
            schema: SchemaFlags::from_args(args),
        })
    }
}

/// `train` — fit a registered method (default rDRP), then persist it as
/// a versioned model artifact.
#[derive(Debug, Clone)]
pub struct TrainArgs {
    /// Training CSV path.
    pub train: String,
    /// Calibration CSV path.
    pub calibration: String,
    /// Where to save the fitted model artifact.
    pub model: String,
    /// Registry name of the method to train (see `rdrp::methods`).
    pub method: String,
    /// Training seed.
    pub seed: u64,
    /// Training epochs.
    pub epochs: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Conformal miscoverage level.
    pub alpha: f64,
    /// MC-dropout passes.
    pub mc_passes: usize,
    /// CSV column names.
    pub schema: SchemaFlags,
    /// Trace/verbosity flags.
    pub obs: ObsFlags,
}

impl TrainArgs {
    fn from_args(args: &Args) -> Result<TrainArgs, ArgError> {
        args.check_known(&flags(
            &[
                "train",
                "calibration",
                "model",
                "method",
                "seed",
                "epochs",
                "hidden",
                "alpha",
                "mc-passes",
            ],
            &[&SCHEMA_FLAGS, &OBS_FLAGS],
        ))?;
        Ok(TrainArgs {
            train: args.require("train")?.to_string(),
            calibration: args.require("calibration")?.to_string(),
            model: args.require("model")?.to_string(),
            method: args.get("method").unwrap_or("rdrp").to_string(),
            seed: args.get_or("seed", 42)?,
            epochs: args.get_or("epochs", 40)?,
            hidden: args.get_or("hidden", 64)?,
            alpha: args.get_or("alpha", 0.1)?,
            mc_passes: args.get_or("mc-passes", 50)?,
            schema: SchemaFlags::from_args(args),
            obs: ObsFlags::from_args(args)?,
        })
    }
}

/// `score` — score a CSV with a persisted model, writing scores and
/// conformal intervals.
#[derive(Debug, Clone)]
pub struct ScoreArgs {
    /// Persisted model JSON path.
    pub model: String,
    /// Input CSV path.
    pub data: String,
    /// Output CSV path.
    pub out: String,
    /// CSV column names.
    pub schema: SchemaFlags,
    /// Trace/verbosity flags.
    pub obs: ObsFlags,
}

impl ScoreArgs {
    fn from_args(args: &Args) -> Result<ScoreArgs, ArgError> {
        args.check_known(&flags(
            &["model", "data", "out"],
            &[&SCHEMA_FLAGS, &OBS_FLAGS],
        ))?;
        Ok(ScoreArgs {
            model: args.require("model")?.to_string(),
            data: args.require("data")?.to_string(),
            out: args.require("out")?.to_string(),
            schema: SchemaFlags::from_args(args),
            obs: ObsFlags::from_args(args)?,
        })
    }
}

/// `evaluate` — AUCC/Qini of a persisted model on labeled RCT data.
#[derive(Debug, Clone)]
pub struct EvaluateArgs {
    /// Persisted model JSON path.
    pub model: String,
    /// Labeled CSV path.
    pub data: String,
    /// Percentile bins for the uplift curves.
    pub bins: usize,
    /// CSV column names.
    pub schema: SchemaFlags,
}

impl EvaluateArgs {
    fn from_args(args: &Args) -> Result<EvaluateArgs, ArgError> {
        args.check_known(&flags(&["model", "data", "bins"], &[&SCHEMA_FLAGS]))?;
        Ok(EvaluateArgs {
            model: args.require("model")?.to_string(),
            data: args.require("data")?.to_string(),
            bins: args.get_or("bins", 20)?,
            schema: SchemaFlags::from_args(args),
        })
    }
}

/// `serve` — load a persisted model artifact (any registered method;
/// the artifact's embedded tag picks the type) and answer line-delimited
/// JSON scoring requests over stdin/stdout or TCP.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Persisted model artifact path.
    pub model: String,
    /// Registry name to serve the model under.
    pub name: String,
    /// Registry version to serve the model under.
    pub model_version: String,
    /// `Some(addr)`: listen on TCP instead of stdin/stdout.
    pub tcp: Option<String>,
    /// TCP only: exit after this many connections (for tests/smoke).
    pub max_conns: Option<usize>,
    /// Engine worker threads (per shard).
    pub workers: usize,
    /// Independent engine shards; each connection hashes to one.
    pub shards: usize,
    /// Require the length-prefixed binary protocol instead of sniffing
    /// the first byte per connection.
    pub binary: bool,
    /// Micro-batch row cap.
    pub max_batch_rows: usize,
    /// The longest a worker holds an under-full batch while another
    /// worker of its shard is busy.
    pub max_wait: Duration,
    /// Submission-queue capacity in rows (backpressure bound).
    pub queue_rows: usize,
    /// Requests kept in flight per connection.
    pub window: usize,
    /// Consecutive worker panics before the supervisor respawns the
    /// thread (0 disables respawning).
    pub respawn_after_panics: u32,
    /// Worker panics that trip the load-shedding breaker (0 disables).
    pub breaker_trip_panics: u32,
    /// Queued-row watermark that trips the breaker (absent disables).
    pub breaker_shed_rows: Option<usize>,
    /// How long a tripped breaker sheds before accepting load again.
    pub breaker_cooldown: Duration,
    /// TCP only: per-connection read/write timeout; slow clients are
    /// disconnected instead of pinning a handler thread (0 disables).
    pub conn_timeout: Option<Duration>,
    /// TCP only: requests answered per connection before the session
    /// closes (0 = unlimited).
    pub max_requests_per_conn: u64,
    /// Score through the columnar f32 SIMD kernel path instead of the
    /// f64 scalar path. Higher throughput; scores track the scalar path
    /// to f32 rounding, not bitwise (DESIGN.md §11).
    pub block_kernels: bool,
    /// Enable serve-side online conformal calibration: feedback lines
    /// feed a rolling calibration window and a drift detector that
    /// hot-swaps a recalibrated artifact through the registry.
    pub online_calibration: bool,
    /// Training-reference RCT CSV the drift detector compares incoming
    /// feature rows against (required with `--online-calibration`).
    pub reference: Option<String>,
    /// Rolling feedback-window capacity (scores kept for the online
    /// quantile).
    pub calibration_window: usize,
    /// Drift-detector batch size: rows accumulated per SMD comparison.
    pub drift_batch: usize,
    /// EWMA-smoothed SMD level that counts as drift.
    pub drift_threshold: f64,
    /// CSV column names for the reference file.
    pub schema: SchemaFlags,
    /// Trace/verbosity flags.
    pub obs: ObsFlags,
}

impl ServeArgs {
    fn from_args(args: &Args) -> Result<ServeArgs, ArgError> {
        args.check_known(&flags(
            &[
                "model",
                "name",
                "model-version",
                "tcp",
                "max-conns",
                "workers",
                "shards",
                "binary",
                "max-batch-rows",
                "max-wait-us",
                "queue-rows",
                "window",
                "respawn-after-panics",
                "breaker-trip-panics",
                "breaker-shed-rows",
                "breaker-cooldown-ms",
                "conn-timeout-ms",
                "max-requests-per-conn",
                "block-kernels",
                "online-calibration",
                "reference",
                "calibration-window",
                "drift-batch",
                "drift-threshold",
            ],
            &[&OBS_FLAGS, &SCHEMA_FLAGS],
        ))?;
        let parsed = ServeArgs {
            model: args.require("model")?.to_string(),
            name: args.get("name").unwrap_or(serve::DEFAULT_MODEL).to_string(),
            model_version: args.get("model-version").unwrap_or("1").to_string(),
            tcp: args.get("tcp").map(str::to_string),
            max_conns: match args.get("max-conns") {
                None => None,
                Some(_) => Some(args.get_or("max-conns", 0usize)?),
            },
            workers: args.get_or("workers", 2)?,
            shards: args.get_or("shards", 1)?,
            binary: args.get_or("binary", false)?,
            max_batch_rows: args.get_or("max-batch-rows", 1024)?,
            max_wait: Duration::from_micros(args.get_or("max-wait-us", 500)?),
            queue_rows: args.get_or("queue-rows", 16_384)?,
            window: args.get_or("window", 32)?,
            respawn_after_panics: args.get_or("respawn-after-panics", 3u32)?,
            breaker_trip_panics: args.get_or("breaker-trip-panics", 0u32)?,
            breaker_shed_rows: match args.get("breaker-shed-rows") {
                None => None,
                Some(_) => Some(args.get_or("breaker-shed-rows", 0usize)?),
            },
            breaker_cooldown: Duration::from_millis(args.get_or("breaker-cooldown-ms", 1000)?),
            conn_timeout: match args.get_or("conn-timeout-ms", 30_000u64)? {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
            max_requests_per_conn: args.get_or("max-requests-per-conn", 0u64)?,
            block_kernels: args.get_or("block-kernels", false)?,
            online_calibration: args.get_or("online-calibration", false)?,
            reference: args.get("reference").map(str::to_string),
            calibration_window: args.get_or("calibration-window", 256)?,
            drift_batch: args.get_or("drift-batch", 64)?,
            drift_threshold: args.get_or("drift-threshold", 0.25)?,
            schema: SchemaFlags::from_args(args),
            obs: ObsFlags::from_args(args)?,
        };
        for (flag, value) in [
            ("max-batch-rows", parsed.max_batch_rows),
            ("queue-rows", parsed.queue_rows),
            ("shards", parsed.shards),
            ("calibration-window", parsed.calibration_window),
            ("drift-batch", parsed.drift_batch),
        ] {
            if value == 0 {
                return Err(ArgError::BadValue {
                    flag: flag.to_string(),
                    value: "0".to_string(),
                });
            }
        }
        if parsed.breaker_shed_rows == Some(0) {
            return Err(ArgError::BadValue {
                flag: "breaker-shed-rows".to_string(),
                value: "0".to_string(),
            });
        }
        if !(parsed.drift_threshold > 0.0 && parsed.drift_threshold.is_finite()) {
            return Err(ArgError::BadValue {
                flag: "drift-threshold".to_string(),
                value: parsed.drift_threshold.to_string(),
            });
        }
        if parsed.online_calibration && parsed.reference.is_none() {
            return Err(ArgError::MissingFlag("reference".to_string()));
        }
        Ok(parsed)
    }
}

/// `bandit` — run the K-arm contextual-bandit simulation: configured
/// policies score a shared user stream, an MCKP allocator spends the
/// per-period budget, outcomes realize from the generator's ground
/// truth, and the loop reports each policy's realized ROI and regret.
#[derive(Debug, Clone)]
pub struct BanditArgs {
    /// Total arm count including control (`K ≥ 2`).
    pub n_arms: u8,
    /// Warm-up RCT size each policy first fits on.
    pub warmup: usize,
    /// Users arriving per period.
    pub users_per_period: usize,
    /// Fresh exploration RCT rows gathered per period.
    pub explore_per_period: usize,
    /// Number of periods.
    pub periods: usize,
    /// Per-period budget as a fraction of the period's average per-arm
    /// total expected cost, in `(0, 1]`.
    pub budget_fraction: f64,
    /// Refit cadence in periods (0 = never refit after warm-up).
    pub refit_every: usize,
    /// Draw Bernoulli outcomes (true) or accrue expectations (false).
    pub stochastic: bool,
    /// Comma-separated policy names (`uniform-random` or any K-arm /
    /// binary registry name).
    pub policies: Vec<String>,
    /// Simulation seed.
    pub seed: u64,
    /// Training epochs for network-backed policies.
    pub epochs: usize,
    /// Hidden-layer width for network-backed policies.
    pub hidden: usize,
    /// Optional path for the full JSON result (per-period trajectories).
    pub out: Option<String>,
    /// Trace/verbosity flags.
    pub obs: ObsFlags,
}

impl BanditArgs {
    fn from_args(args: &Args) -> Result<BanditArgs, ArgError> {
        args.check_known(&flags(
            &[
                "n-arms",
                "warmup",
                "users-per-period",
                "explore-per-period",
                "periods",
                "budget-fraction",
                "refit-every",
                "stochastic",
                "policies",
                "seed",
                "epochs",
                "hidden",
                "out",
            ],
            &[&OBS_FLAGS],
        ))?;
        let parsed = BanditArgs {
            n_arms: args.get_or("n-arms", 4u8)?,
            warmup: args.get_or("warmup", 4_000)?,
            users_per_period: args.get_or("users-per-period", 2_000)?,
            explore_per_period: args.get_or("explore-per-period", 500)?,
            periods: args.get_or("periods", 8)?,
            budget_fraction: args.get_or("budget-fraction", 0.3)?,
            refit_every: args.get_or("refit-every", 4)?,
            stochastic: args.get_or("stochastic", true)?,
            policies: args
                .get("policies")
                .unwrap_or("karm-tpm-xl,tpm-sl,uniform-random")
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
            seed: args.get_or("seed", 42)?,
            epochs: args.get_or("epochs", 10)?,
            hidden: args.get_or("hidden", 32)?,
            out: args.get("out").map(str::to_string),
            obs: ObsFlags::from_args(args)?,
        };
        if parsed.n_arms < 2 {
            return Err(ArgError::BadValue {
                flag: "n-arms".to_string(),
                value: parsed.n_arms.to_string(),
            });
        }
        for (flag, value) in [
            ("warmup", parsed.warmup),
            ("users-per-period", parsed.users_per_period),
            ("periods", parsed.periods),
        ] {
            if value == 0 {
                return Err(ArgError::BadValue {
                    flag: flag.to_string(),
                    value: "0".to_string(),
                });
            }
        }
        if !(parsed.budget_fraction > 0.0 && parsed.budget_fraction <= 1.0) {
            return Err(ArgError::BadValue {
                flag: "budget-fraction".to_string(),
                value: parsed.budget_fraction.to_string(),
            });
        }
        if parsed.policies.is_empty() {
            return Err(ArgError::MissingFlag("policies".to_string()));
        }
        Ok(parsed)
    }
}

/// The fully validated command line. Constructing one is the CLI's
/// single validation point; a `Command` that exists can run.
#[derive(Debug, Clone)]
pub enum Command {
    /// `generate`
    Generate(GenerateArgs),
    /// `train`
    Train(TrainArgs),
    /// `score`
    Score(ScoreArgs),
    /// `evaluate`
    Evaluate(EvaluateArgs),
    /// `serve`
    Serve(ServeArgs),
    /// `bandit`
    Bandit(BanditArgs),
}

impl Command {
    /// Parses and validates a full command line (excluding the program
    /// name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Command, ArgError> {
        let args = Args::parse(argv)?;
        match args.command.as_str() {
            "generate" => Ok(Command::Generate(GenerateArgs::from_args(&args)?)),
            "train" => Ok(Command::Train(TrainArgs::from_args(&args)?)),
            "score" => Ok(Command::Score(ScoreArgs::from_args(&args)?)),
            "evaluate" => Ok(Command::Evaluate(EvaluateArgs::from_args(&args)?)),
            "serve" => Ok(Command::Serve(ServeArgs::from_args(&args)?)),
            "bandit" => Ok(Command::Bandit(BanditArgs::from_args(&args)?)),
            other => Err(ArgError::UnknownCommand(other.to_string())),
        }
    }
}

/// Concatenates a subcommand's own flags with the shared groups it
/// accepts.
fn flags<'a>(own: &[&'a str], shared: &[&[&'a str]]) -> Vec<&'a str> {
    let mut all: Vec<&str> = own.to_vec();
    for group in shared {
        all.extend_from_slice(group);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(strings(&["train", "--epochs", "30", "--model", "m.json"])).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.require("model").unwrap(), "m.json");
        assert_eq!(a.get_or("epochs", 10usize).unwrap(), 30);
        assert_eq!(a.get_or("alpha", 0.1f64).unwrap(), 0.1);
        assert_eq!(a.get("nope"), None);
    }

    #[test]
    fn short_v_expands_to_verbose() {
        let a = Args::parse(strings(&["train", "-v", "--epochs", "3"])).unwrap();
        assert!(a.get_or("verbose", false).unwrap());
        assert_eq!(a.get_or("epochs", 0usize).unwrap(), 3);
        assert_eq!(
            Args::parse(strings(&["train", "-x"])).unwrap_err(),
            ArgError::Unexpected("-x".into())
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(Args::parse(strings(&[])).unwrap_err(), ArgError::NoCommand);
        assert_eq!(
            Args::parse(strings(&["--flag", "v"])).unwrap_err(),
            ArgError::NoCommand
        );
        assert_eq!(
            Args::parse(strings(&["train", "--epochs"])).unwrap_err(),
            ArgError::MissingValue("epochs".into())
        );
        assert_eq!(
            Args::parse(strings(&["train", "stray"])).unwrap_err(),
            ArgError::Unexpected("stray".into())
        );
        let a = Args::parse(strings(&["train", "--epochs", "abc"])).unwrap();
        assert!(matches!(
            a.get_or("epochs", 1usize),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(a.require("model"), Err(ArgError::MissingFlag(_))));
    }

    #[test]
    fn typed_train_args_parse_with_defaults() {
        let Command::Train(t) = Command::parse(strings(&[
            "train",
            "--train",
            "a.csv",
            "--calibration",
            "b.csv",
            "--model",
            "m.json",
        ]))
        .unwrap() else {
            panic!("expected train")
        };
        assert_eq!(t.train, "a.csv");
        assert_eq!(t.method, "rdrp");
        assert_eq!(t.epochs, 40);
        assert_eq!(t.alpha, 0.1);
        assert_eq!(t.schema.treatment, "treatment");
        assert!(!t.obs.verbose);
    }

    #[test]
    fn unknown_flag_names_the_subcommand() {
        let err = Command::parse(strings(&[
            "score", "--model", "m.json", "--data", "d.csv", "--out", "s.csv", "--epochs", "40",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlag {
                flag: "epochs".into(),
                command: "score".into()
            }
        );
    }

    #[test]
    fn unknown_subcommand_is_typed() {
        assert_eq!(
            Command::parse(strings(&["frobnicate"])).unwrap_err(),
            ArgError::UnknownCommand("frobnicate".into())
        );
    }

    #[test]
    fn serve_args_validate_sizes() {
        let Command::Serve(s) = Command::parse(strings(&["serve", "--model", "m.json"])).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(s.name, serve::DEFAULT_MODEL);
        assert_eq!(s.model_version, "1");
        assert_eq!(s.max_wait, Duration::from_micros(500));
        assert!(s.tcp.is_none());

        // The artifact's embedded tag picks the model type; a --kind
        // flag no longer exists and fails like any other typo.
        assert!(matches!(
            Command::parse(strings(&["serve", "--model", "m.json", "--kind", "rdrp"])),
            Err(ArgError::UnknownFlag { ref flag, .. }) if flag == "kind"
        ));
        assert!(matches!(
            Command::parse(strings(&["serve", "--model", "m.json", "--queue-rows", "0"])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "queue-rows"
        ));
        assert!(matches!(
            Command::parse(strings(&["serve", "--model", "m.json", "--shards", "0"])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "shards"
        ));
        let Command::Serve(s) = Command::parse(strings(&[
            "serve", "--model", "m.json", "--shards", "4", "--binary", "true",
        ]))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(s.shards, 4);
        assert!(s.binary);
    }

    #[test]
    fn bandit_args_parse_with_defaults_and_validate_ranges() {
        let Command::Bandit(b) = Command::parse(strings(&["bandit"])).unwrap() else {
            panic!("expected bandit")
        };
        assert_eq!(b.n_arms, 4);
        assert_eq!(b.periods, 8);
        assert_eq!(b.budget_fraction, 0.3);
        assert_eq!(b.policies, vec!["karm-tpm-xl", "tpm-sl", "uniform-random"]);
        assert!(b.stochastic);
        assert!(b.out.is_none());

        let Command::Bandit(b) = Command::parse(strings(&[
            "bandit",
            "--n-arms",
            "3",
            "--policies",
            "karm-tpm-sl, uniform-random",
            "--stochastic",
            "false",
            "--out",
            "bandit.json",
        ]))
        .unwrap() else {
            panic!("expected bandit")
        };
        assert_eq!(b.n_arms, 3);
        assert_eq!(b.policies, vec!["karm-tpm-sl", "uniform-random"]);
        assert!(!b.stochastic);
        assert_eq!(b.out.as_deref(), Some("bandit.json"));

        assert!(matches!(
            Command::parse(strings(&["bandit", "--n-arms", "1"])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "n-arms"
        ));
        assert!(matches!(
            Command::parse(strings(&["bandit", "--budget-fraction", "0"])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "budget-fraction"
        ));
        assert!(matches!(
            Command::parse(strings(&["bandit", "--periods", "0"])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "periods"
        ));
        assert!(matches!(
            Command::parse(strings(&["bandit", "--policies", ","])),
            Err(ArgError::MissingFlag(ref flag)) if flag == "policies"
        ));
        // `bandit` reads no CSVs, so the schema group is rejected.
        assert!(matches!(
            Command::parse(strings(&["bandit", "--treatment-col", "t"])),
            Err(ArgError::UnknownFlag { ref flag, .. }) if flag == "treatment-col"
        ));
    }

    #[test]
    fn generate_dataset_is_validated_at_parse_time() {
        assert!(matches!(
            Command::parse(strings(&[
                "generate", "--dataset", "nope", "--out", "x.csv"
            ])),
            Err(ArgError::BadValue { ref flag, .. }) if flag == "dataset"
        ));
    }
}
