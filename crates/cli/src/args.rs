//! Hand-rolled argument parsing for `upsr-groom`.

use grooming::algorithm::Algorithm;
use grooming_graph::spanning::TreeStrategy;

/// What the user asked for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Groom demands read from an edge-list file.
    File {
        /// Path to the edge-list file.
        path: String,
        /// Common options.
        opts: GroomOptions,
    },
    /// Groom a random `G(n, m)` demand set.
    Random {
        /// Ring size.
        n: usize,
        /// Number of demand pairs.
        m: usize,
        /// Common options.
        opts: GroomOptions,
    },
    /// Groom a random `r`-regular demand set.
    Regular {
        /// Ring size.
        n: usize,
        /// Demand degree.
        r: usize,
        /// Common options.
        opts: GroomOptions,
    },
    /// Groom a named traffic pattern.
    Pattern {
        /// Ring size.
        n: usize,
        /// The pattern family.
        kind: PatternKind,
        /// Common options.
        opts: GroomOptions,
    },
    /// Run the long-lived grooming service (`groomd`) on a TCP listener.
    Serve {
        /// Service options.
        opts: ServeOptions,
    },
    /// Simulate dynamic Poisson traffic through the warm-start path
    /// (groomsim).
    Sim {
        /// Simulation options.
        opts: SimOptions,
    },
    /// List available algorithms.
    Algos,
    /// Print usage.
    Help,
}

/// Options for the `serve` command.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Admission queue capacity in items.
    pub queue: usize,
    /// Admission queue capacity in estimated work units.
    pub work_capacity: u64,
    /// Solve-cache capacity in plans (`0` disables the cache).
    pub cache: usize,
    /// Master seed for per-item RNG stream derivation.
    pub master_seed: u64,
    /// Default per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue: 256,
            work_capacity: 1 << 22,
            cache: 1024,
            master_seed: 0,
            deadline_ms: None,
        }
    }
}

/// Options for the `sim` command (groomsim).
#[derive(Clone, Debug, PartialEq)]
pub struct SimOptions {
    /// Topology family: `ring` or `mesh`.
    pub family: String,
    /// Ring size (`ring`) or grid side length (`mesh`).
    pub size: usize,
    /// Grooming factor.
    pub k: usize,
    /// Warm-repair rearrangement budget (`None` = unbounded).
    pub rearrange_budget: Option<usize>,
    /// Wavelength admission budget (`None` = the family default).
    pub max_wavelengths: Option<usize>,
    /// Independent Poisson demand streams.
    pub streams: u64,
    /// Aggregate offered load in Erlangs.
    pub erlangs: f64,
    /// Virtual-time horizon in ticks.
    pub horizon: u64,
    /// Master seed for the per-stream RNG derivation.
    pub seed: u64,
    /// Bisect offered load to the 1% blocking point instead of one run.
    pub sweep: bool,
    /// Print the full event trace before the report.
    pub trace: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            family: "ring".into(),
            size: 16,
            k: 16,
            rearrange_budget: Some(8),
            max_wavelengths: None,
            streams: 4,
            erlangs: 8.0,
            horizon: 50_000,
            seed: 1,
            sweep: false,
            trace: false,
        }
    }
}

/// Options shared by the grooming commands.
#[derive(Clone, Debug, PartialEq)]
pub struct GroomOptions {
    /// Grooming factor `k`.
    pub k: usize,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// RNG seed (tie-breaking and generators).
    pub seed: u64,
    /// Print the per-wavelength demand groups.
    pub show_parts: bool,
    /// Compare against all algorithms instead of running one.
    pub compare: bool,
    /// Optional wavelength budget (`W ≤ B` enforced after grooming).
    pub budget: Option<usize>,
    /// Print the analytic breakdown (histograms, hot nodes, cost over bound).
    pub analyze: bool,
    /// Write a Graphviz DOT rendering (edges colored by wavelength).
    pub dot: Option<String>,
    /// Worker threads for the portfolio engine (`0` = one per core).
    pub jobs: usize,
    /// Master seed for per-attempt stream derivation (defaults to `seed`).
    pub master_seed: Option<u64>,
    /// Extra derived-seed restarts per portfolio entry.
    pub restarts: usize,
    /// Optional solve deadline in milliseconds (best-so-far on expiry).
    pub deadline_ms: Option<u64>,
}

impl Default for GroomOptions {
    fn default() -> Self {
        GroomOptions {
            k: 16,
            algorithm: Algorithm::SpanTEuler(TreeStrategy::Bfs),
            seed: 1,
            show_parts: false,
            compare: false,
            budget: None,
            analyze: false,
            dot: None,
            jobs: 0,
            master_seed: None,
            restarts: 0,
            deadline_ms: None,
        }
    }
}

/// Traffic pattern kinds for the `pattern` command.
#[derive(Clone, Debug, PartialEq)]
pub enum PatternKind {
    /// All-to-all (`r = n − 1`).
    AllToAll,
    /// Locality traffic with exponent `alpha`.
    Locality {
        /// Number of pairs.
        m: usize,
        /// Distance exponent.
        alpha: f64,
    },
    /// Hubbed traffic toward the given gateway nodes.
    Hubbed {
        /// Gateway node ids.
        hubs: Vec<u32>,
    },
}

/// Algorithm names accepted by `--algo` (shared with the `groomd` wire
/// protocol through [`Algorithm::by_name`]).
pub fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    Algorithm::by_name(name)
}

/// All `--algo` spellings, for help text and the `algos` command.
pub const ALGO_NAMES: [(&str, &str); 9] = [
    (
        "goldschmidt",
        "Algo 1: spanning-tree partition (Goldschmidt et al. 2003)",
    ),
    (
        "brauner",
        "Algo 2: Euler-path partition (Brauner et al. 2003)",
    ),
    (
        "wang-gu",
        "Algo 3: tree-path skeleton cover (Wang & Gu ICC'06)",
    ),
    (
        "spant-euler",
        "SpanT_Euler: the paper's linear-time hybrid (default)",
    ),
    (
        "spant-refined",
        "SpanT_Euler followed by local-search refinement",
    ),
    (
        "regular-euler",
        "Regular_Euler: regular traffic patterns only",
    ),
    (
        "clique-first",
        "Clique-first packing + SpanT_Euler + refinement",
    ),
    (
        "dense-first",
        "Maximal-clique packing up to the grooming capacity",
    ),
    (
        "auto",
        "Portfolio: run everything applicable, keep the cheapest plan",
    ),
];

/// Parsing failure with a user-facing message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

/// Parses an argv-style list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "algos" => Ok(Command::Algos),
        "groom" => {
            let mut path = None;
            let mut opts = GroomOptions::default();
            parse_common(
                &mut it,
                &mut opts,
                |flag, _| Err(ParseError(format!("unknown flag {flag:?} for groom"))),
                &mut |positional| {
                    if path.is_none() {
                        path = Some(positional.to_string());
                        Ok(())
                    } else {
                        Err(ParseError(format!("unexpected argument {positional:?}")))
                    }
                },
            )?;
            let path = path.ok_or_else(|| ParseError("groom needs an edge-list file".into()))?;
            Ok(Command::File { path, opts })
        }
        "random" => {
            let mut n = None;
            let mut m = None;
            let mut opts = GroomOptions::default();
            parse_common(
                &mut it,
                &mut opts,
                |flag, value| match flag {
                    "--n" => {
                        n = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    "--m" => {
                        m = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    _ => Err(ParseError(format!("unknown flag {flag:?} for random"))),
                },
                &mut no_positional,
            )?;
            Ok(Command::Random {
                n: n.ok_or_else(|| ParseError("random needs --n".into()))?,
                m: m.ok_or_else(|| ParseError("random needs --m".into()))?,
                opts,
            })
        }
        "regular" => {
            let mut n = None;
            let mut r = None;
            let mut opts = GroomOptions::default();
            parse_common(
                &mut it,
                &mut opts,
                |flag, value| match flag {
                    "--n" => {
                        n = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    "--r" => {
                        r = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    _ => Err(ParseError(format!("unknown flag {flag:?} for regular"))),
                },
                &mut no_positional,
            )?;
            Ok(Command::Regular {
                n: n.ok_or_else(|| ParseError("regular needs --n".into()))?,
                r: r.ok_or_else(|| ParseError("regular needs --r".into()))?,
                opts,
            })
        }
        "pattern" => {
            let mut n = None;
            let mut kind_name = None;
            let mut m = None;
            let mut alpha = 2.0f64;
            let mut hubs: Vec<u32> = Vec::new();
            let mut opts = GroomOptions::default();
            parse_common(
                &mut it,
                &mut opts,
                |flag, value| match flag {
                    "--n" => {
                        n = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    "--kind" => {
                        kind_name = Some(value.to_string());
                        Ok(())
                    }
                    "--m" => {
                        m = Some(parse_num(flag, value)?);
                        Ok(())
                    }
                    "--alpha" => {
                        alpha = value
                            .parse()
                            .map_err(|_| ParseError("--alpha needs a number".into()))?;
                        Ok(())
                    }
                    "--hubs" => {
                        hubs = value
                            .split(',')
                            .map(|t| {
                                t.parse()
                                    .map_err(|_| ParseError(format!("bad hub id {t:?}")))
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(())
                    }
                    _ => Err(ParseError(format!("unknown flag {flag:?} for pattern"))),
                },
                &mut no_positional,
            )?;
            let n = n.ok_or_else(|| ParseError("pattern needs --n".into()))?;
            let kind = match kind_name.as_deref() {
                Some("all-to-all") | Some("all2all") => PatternKind::AllToAll,
                Some("locality") => PatternKind::Locality {
                    m: m.ok_or_else(|| ParseError("locality needs --m".into()))?,
                    alpha,
                },
                Some("hubbed") => {
                    if hubs.is_empty() {
                        return Err(ParseError("hubbed needs --hubs a,b,...".into()));
                    }
                    PatternKind::Hubbed { hubs }
                }
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown pattern kind {other:?} (all-to-all, locality, hubbed)"
                    )))
                }
                None => return Err(ParseError("pattern needs --kind".into())),
            };
            Ok(Command::Pattern { n, kind, opts })
        }
        "serve" => {
            let mut opts = ServeOptions::default();
            while let Some(arg) = it.next() {
                let flag = arg.as_str();
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                match flag {
                    "--addr" => opts.addr = value.to_string(),
                    "--workers" => opts.workers = parse_num(flag, value)?,
                    "--queue" => {
                        opts.queue = parse_num(flag, value)?;
                        if opts.queue == 0 {
                            return Err(ParseError("--queue must be positive".into()));
                        }
                    }
                    "--work-capacity" => {
                        opts.work_capacity = value.parse().map_err(|_| {
                            ParseError("--work-capacity needs an integer".to_string())
                        })?;
                        if opts.work_capacity == 0 {
                            return Err(ParseError("--work-capacity must be positive".into()));
                        }
                    }
                    "--cache" => opts.cache = parse_num(flag, value)?,
                    "--master-seed" => {
                        opts.master_seed = value
                            .parse()
                            .map_err(|_| ParseError("--master-seed needs an integer".to_string()))?
                    }
                    "--deadline-ms" => {
                        opts.deadline_ms = Some(value.parse().map_err(|_| {
                            ParseError("--deadline-ms needs an integer".to_string())
                        })?)
                    }
                    _ => return Err(ParseError(format!("unknown flag {flag:?} for serve"))),
                }
            }
            Ok(Command::Serve { opts })
        }
        "sim" => {
            let mut opts = SimOptions::default();
            while let Some(arg) = it.next() {
                let flag = arg.as_str();
                match flag {
                    "--sweep" => {
                        opts.sweep = true;
                        continue;
                    }
                    "--trace" => {
                        opts.trace = true;
                        continue;
                    }
                    "--no-rearrange-budget" => {
                        opts.rearrange_budget = None;
                        continue;
                    }
                    _ => {}
                }
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                match flag {
                    "--family" => {
                        if value != "ring" && value != "mesh" {
                            return Err(ParseError(format!(
                                "unknown family {value:?} (ring, mesh)"
                            )));
                        }
                        opts.family = value.to_string();
                    }
                    "--size" => {
                        opts.size = parse_num(flag, value)?;
                        if opts.size < 3 {
                            return Err(ParseError("--size must be at least 3".into()));
                        }
                    }
                    "--k" => {
                        opts.k = parse_num(flag, value)?;
                        if opts.k == 0 {
                            return Err(ParseError("--k must be positive".into()));
                        }
                    }
                    "--rearrange-budget" => opts.rearrange_budget = Some(parse_num(flag, value)?),
                    "--max-wavelengths" => opts.max_wavelengths = Some(parse_num(flag, value)?),
                    "--streams" => {
                        opts.streams = value
                            .parse()
                            .map_err(|_| ParseError("--streams needs an integer".into()))?;
                        if opts.streams == 0 {
                            return Err(ParseError("--streams must be positive".into()));
                        }
                    }
                    "--erlangs" => {
                        opts.erlangs = value
                            .parse()
                            .map_err(|_| ParseError("--erlangs needs a number".into()))?;
                        if opts.erlangs <= 0.0 {
                            return Err(ParseError("--erlangs must be positive".into()));
                        }
                    }
                    "--horizon" => {
                        opts.horizon = value
                            .parse()
                            .map_err(|_| ParseError("--horizon needs an integer".into()))?;
                        if opts.horizon == 0 {
                            return Err(ParseError("--horizon must be positive".into()));
                        }
                    }
                    "--seed" => {
                        opts.seed = value
                            .parse()
                            .map_err(|_| ParseError("--seed needs an integer".into()))?
                    }
                    _ => return Err(ParseError(format!("unknown flag {flag:?} for sim"))),
                }
            }
            Ok(Command::Sim { opts })
        }
        other => Err(ParseError(format!(
            "unknown command {other:?} (try: groom, random, regular, serve, sim, algos, help)"
        ))),
    }
}

fn no_positional(arg: &str) -> Result<(), ParseError> {
    Err(ParseError(format!("unexpected argument {arg:?}")))
}

fn parse_num(flag: &str, value: &str) -> Result<usize, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("{flag} needs an integer, got {value:?}")))
}

fn parse_common<'a>(
    it: &mut std::slice::Iter<'a, String>,
    opts: &mut GroomOptions,
    mut extra: impl FnMut(&str, &str) -> Result<(), ParseError>,
    positional: &mut dyn FnMut(&str) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--parts" => opts.show_parts = true,
            "--compare" => opts.compare = true,
            "--analyze" => opts.analyze = true,
            flag if flag.starts_with("--") => {
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
                match flag {
                    "--k" => opts.k = parse_num(flag, value)?,
                    "--budget" => opts.budget = Some(parse_num(flag, value)?),
                    "--dot" => opts.dot = Some(value.to_string()),
                    "--seed" => {
                        opts.seed = value
                            .parse()
                            .map_err(|_| ParseError("--seed needs an integer".to_string()))?
                    }
                    "--jobs" => {
                        opts.jobs = value.parse().map_err(|_| {
                            ParseError("--jobs needs an integer (0 = auto)".to_string())
                        })?
                    }
                    "--master-seed" => {
                        opts.master_seed = Some(value.parse().map_err(|_| {
                            ParseError("--master-seed needs an integer".to_string())
                        })?)
                    }
                    "--restarts" => opts.restarts = parse_num(flag, value)?,
                    "--deadline-ms" => {
                        opts.deadline_ms = Some(value.parse().map_err(|_| {
                            ParseError("--deadline-ms needs an integer".to_string())
                        })?)
                    }
                    "--algo" => {
                        opts.algorithm = algorithm_by_name(value).ok_or_else(|| {
                            ParseError(format!(
                                "unknown algorithm {value:?} (see `upsr-groom algos`)"
                            ))
                        })?
                    }
                    _ => extra(flag, value)?,
                }
            }
            pos => positional(pos)?,
        }
    }
    if opts.k == 0 {
        return Err(ParseError("--k must be positive".into()));
    }
    Ok(())
}

/// The usage text.
pub const USAGE: &str = "\
upsr-groom — traffic grooming planner for SONET/WDM UPSR rings
(Wang & Gu, ICPP 2006)

USAGE:
  upsr-groom groom <file> [OPTIONS]             groom demands from a file
                                                (edge-list or graph6)
  upsr-groom random --n N --m M [OPTIONS]       groom M random demand pairs
  upsr-groom regular --n N --r R [OPTIONS]      groom a random r-regular pattern
  upsr-groom pattern --n N --kind KIND [OPTIONS]
                                                groom a named pattern:
                                                all-to-all | locality (--m M
                                                [--alpha A]) | hubbed
                                                (--hubs a,b,...)
  upsr-groom serve [OPTIONS]                    run the grooming service
                                                (groomd) on a TCP listener
  upsr-groom sim [SIM OPTIONS]                  simulate dynamic Poisson
                                                traffic through the
                                                warm-start path (groomsim)
  upsr-groom algos                              list algorithms
  upsr-groom help                               this text

OPTIONS:
  --k K          grooming factor (default 16 = OC-3 into OC-48)
  --algo NAME    algorithm (default spant-euler; see `algos`)
  --seed S       RNG seed (default 1)
  --jobs N       portfolio worker threads (0 = one per core; default 0).
                 Job count never changes the result, only wall-clock
  --master-seed S  master seed for the portfolio's per-attempt RNG
                 streams (default: --seed)
  --restarts R   extra derived-seed restarts per portfolio entry
                 (default 0)
  --deadline-ms T  solve deadline in milliseconds; checked at attempt
                 boundaries, the best-so-far plan is returned on expiry
  --budget B     enforce a wavelength budget (W <= B)
  --parts        print the per-wavelength demand groups
  --analyze      print the analytic breakdown (histograms, hot nodes, cost
                 over bound)
  --dot FILE     write a Graphviz rendering (edges colored by wavelength)
  --compare      run every applicable algorithm and compare

SERVE OPTIONS:
  --addr A       listen address (default 127.0.0.1:0 = ephemeral port;
                 the bound address is printed on startup)
  --workers N    solve worker threads (0 = one per core; default 0).
                 Worker count never changes a response, only throughput
  --queue C      admission queue capacity in items (default 256);
                 over-capacity batches are rejected, never buffered
  --work-capacity W  admission queue capacity in estimated work units
                 (default 4194304); admission is bounded by items AND work
  --cache N      solve-cache capacity in plans (default 1024; 0 disables).
                 Hits return byte-identical plans without re-solving
  --master-seed S  master seed for per-item RNG streams (default 0)
  --deadline-ms T  default per-request deadline (requests may override);
                 under saturation, requests whose deadline cannot survive
                 the estimated queue wait are shed at admission
  Type `quit` on stdin (or send the SHUTDOWN verb) for a graceful,
  draining shutdown.

SIM OPTIONS:
  --family F     topology family: ring | mesh (default ring)
  --size S       ring size, or grid side for mesh (default 16)
  --k K          grooming factor (default 16)
  --erlangs E    aggregate offered load in Erlangs (default 8)
  --streams N    independent Poisson demand streams (default 4)
  --horizon T    virtual-time horizon in ticks (default 50000)
  --max-wavelengths W  wavelength admission budget (default: node count)
  --rearrange-budget B warm-repair SADM movement budget (default 8);
                 --no-rearrange-budget lifts it
  --seed S       master seed for the per-stream RNG streams (default 1)
  --sweep        bisect offered load to the 1% blocking point
  --trace        print the full event trace before the report

FILE FORMATS:
  edge list: line 1 `n m`, then m lines `u v` (0-based), `#` comments.
  graph6   : nauty/GenReg single-line format (auto-detected).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_groom_with_defaults() {
        let cmd = parse(&argv("groom demands.txt")).unwrap();
        match cmd {
            Command::File { path, opts } => {
                assert_eq!(path, "demands.txt");
                assert_eq!(opts.k, 16);
                assert!(!opts.show_parts);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_random_with_flags() {
        let cmd = parse(&argv("random --n 36 --m 216 --k 4 --seed 9 --parts")).unwrap();
        match cmd {
            Command::Random { n, m, opts } => {
                assert_eq!((n, m), (36, 216));
                assert_eq!(opts.k, 4);
                assert_eq!(opts.seed, 9);
                assert!(opts.show_parts);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_regular_and_algo() {
        let cmd = parse(&argv("regular --n 36 --r 7 --algo regular-euler")).unwrap();
        match cmd {
            Command::Regular { n, r, opts } => {
                assert_eq!((n, r), (36, 7));
                assert_eq!(opts.algorithm, Algorithm::RegularEuler);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse(&argv("fly --n 3")).is_err());
        assert!(parse(&argv("random --n 5")).is_err()); // missing --m
        assert!(parse(&argv("random --n 5 --m 4 --algo nope")).is_err());
        assert!(parse(&argv("groom a.txt b.txt")).is_err());
        assert!(parse(&argv("random --n 5 --m 4 --k 0")).is_err());
    }

    #[test]
    fn parses_pattern_kinds() {
        match parse(&argv("pattern --n 12 --kind all-to-all")).unwrap() {
            Command::Pattern { n, kind, .. } => {
                assert_eq!(n, 12);
                assert_eq!(kind, PatternKind::AllToAll);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("pattern --n 24 --kind locality --m 50 --alpha 1.5")).unwrap() {
            Command::Pattern { kind, .. } => {
                assert_eq!(kind, PatternKind::Locality { m: 50, alpha: 1.5 });
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("pattern --n 24 --kind hubbed --hubs 0,8,16")).unwrap() {
            Command::Pattern { kind, .. } => {
                assert_eq!(
                    kind,
                    PatternKind::Hubbed {
                        hubs: vec![0, 8, 16]
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pattern_rejects_incomplete_specs() {
        assert!(parse(&argv("pattern --n 12")).is_err()); // no kind
        assert!(parse(&argv("pattern --kind all-to-all")).is_err()); // no n
        assert!(parse(&argv("pattern --n 12 --kind locality")).is_err()); // no m
        assert!(parse(&argv("pattern --n 12 --kind hubbed")).is_err()); // no hubs
        assert!(parse(&argv("pattern --n 12 --kind nope")).is_err());
        assert!(parse(&argv("pattern --n 12 --kind hubbed --hubs 1,x")).is_err());
    }

    #[test]
    fn parses_budget_flag() {
        match parse(&argv("random --n 10 --m 20 --budget 7")).unwrap() {
            Command::Random { opts, .. } => assert_eq!(opts.budget, Some(7)),
            other => panic!("unexpected {other:?}"),
        }
        // Default: no budget.
        match parse(&argv("random --n 10 --m 20")).unwrap() {
            Command::Random { opts, .. } => assert_eq!(opts.budget, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_portfolio_engine_flags() {
        match parse(&argv(
            "random --n 12 --m 30 --algo auto --jobs 4 --master-seed 77 --restarts 3",
        ))
        .unwrap()
        {
            Command::Random { opts, .. } => {
                assert_eq!(opts.algorithm, Algorithm::Portfolio);
                assert_eq!(opts.jobs, 4);
                assert_eq!(opts.master_seed, Some(77));
                assert_eq!(opts.restarts, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: auto jobs, master seed falls back to --seed.
        match parse(&argv("random --n 12 --m 30")).unwrap() {
            Command::Random { opts, .. } => {
                assert_eq!(opts.jobs, 0);
                assert_eq!(opts.master_seed, None);
                assert_eq!(opts.restarts, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("random --n 12 --m 30 --jobs x")).is_err());
        assert!(parse(&argv("random --n 12 --m 30 --master-seed y")).is_err());
    }

    #[test]
    fn parses_deadline_flag() {
        match parse(&argv("random --n 12 --m 30 --deadline-ms 250")).unwrap() {
            Command::Random { opts, .. } => assert_eq!(opts.deadline_ms, Some(250)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("random --n 12 --m 30")).unwrap() {
            Command::Random { opts, .. } => assert_eq!(opts.deadline_ms, None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("random --n 12 --m 30 --deadline-ms soon")).is_err());
    }

    #[test]
    fn parses_serve_command() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                opts: ServeOptions::default()
            }
        );
        match parse(&argv(
            "serve --addr 127.0.0.1:7045 --workers 4 --queue 64 --work-capacity 8192 \
             --cache 0 --master-seed 9 --deadline-ms 500",
        ))
        .unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.addr, "127.0.0.1:7045");
                assert_eq!(opts.workers, 4);
                assert_eq!(opts.queue, 64);
                assert_eq!(opts.work_capacity, 8192);
                assert_eq!(opts.cache, 0);
                assert_eq!(opts.master_seed, 9);
                assert_eq!(opts.deadline_ms, Some(500));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve --queue 0")).is_err());
        assert!(parse(&argv("serve --work-capacity 0")).is_err());
        assert!(parse(&argv("serve --addr")).is_err());
        assert!(parse(&argv("serve --bogus 1")).is_err());
    }

    #[test]
    fn sim_flags() {
        match parse(&argv("sim")).unwrap() {
            Command::Sim { opts } => assert_eq!(opts, SimOptions::default()),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "sim --family mesh --size 4 --k 8 --erlangs 6.5 --streams 3 \
             --horizon 20000 --seed 9 --max-wavelengths 12 --no-rearrange-budget \
             --sweep --trace",
        ))
        .unwrap()
        {
            Command::Sim { opts } => {
                assert_eq!(opts.family, "mesh");
                assert_eq!(opts.size, 4);
                assert_eq!(opts.k, 8);
                assert!((opts.erlangs - 6.5).abs() < 1e-12);
                assert_eq!(opts.streams, 3);
                assert_eq!(opts.horizon, 20_000);
                assert_eq!(opts.seed, 9);
                assert_eq!(opts.max_wavelengths, Some(12));
                assert_eq!(opts.rearrange_budget, None);
                assert!(opts.sweep);
                assert!(opts.trace);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("sim --rearrange-budget 2")).unwrap() {
            Command::Sim { opts } => assert_eq!(opts.rearrange_budget, Some(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sim --family torus")).is_err());
        assert!(parse(&argv("sim --size 2")).is_err());
        assert!(parse(&argv("sim --erlangs 0")).is_err());
        assert!(parse(&argv("sim --streams 0")).is_err());
        assert!(parse(&argv("sim --bogus 1")).is_err());
    }

    #[test]
    fn help_and_algos() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("algos")).unwrap(), Command::Algos);
    }

    #[test]
    fn every_listed_algorithm_resolves() {
        for (name, _) in ALGO_NAMES {
            assert!(algorithm_by_name(name).is_some(), "{name}");
        }
        assert!(algorithm_by_name("algo1").is_some());
        assert!(algorithm_by_name("bogus").is_none());
    }
}
