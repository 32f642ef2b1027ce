//! What every `perf_*` binary shares: the `--fast` / `--out PATH` /
//! `--huge` flags and the [`Tier`] they select, the peak-RSS ceiling, the
//! named floor and ceiling gates, and the writer of the `BENCH_*.json`
//! baseline. A perf bin keeps only its workloads, per-tier parameters,
//! measurements and contract asserts.
//!
//! The writer reproduces the checked-in layout byte for byte: top-level
//! keys one per line, rows of an array one per line, nested objects
//! inline unless built as a [`Json::Block`]. Callers format numbers
//! themselves ([`fixed`], [`Json::raw`]), so every key keeps its decimals.

/// How much work a perf bin does: `--fast` is the CI smoke, the default
/// the checked-in baseline, `--huge` (where a bin allows it) the scale
/// target above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `--fast`.
    Fast,
    /// No tier flag.
    Full,
    /// `--huge`.
    Huge,
}

impl Tier {
    /// The tier's name in output and in the `"tier"` BENCH key.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Full => "full",
            Tier::Huge => "huge",
        }
    }

    /// The peak-RSS ceiling the bins that gate memory hold this tier to.
    /// The fast tier's ceiling leaves allocator noise generous headroom over
    /// every bin's footprint. The full tier's 1 GiB is the scale tier's
    /// documented memory floor: a dense `W x n` incidence matrix at
    /// `n = 10^5` alone needs ~3.75 GB. The huge tier's is linear-memory
    /// headroom at 10x the full tier.
    pub fn rss_ceiling_mb(self) -> f64 {
        match self {
            Tier::Fast => 256.0,
            Tier::Full => 1024.0,
            Tier::Huge => 8192.0,
        }
    }
}

/// A bound a named gate holds a value to.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// A floor: the value must be `>=` it.
    AtLeast(f64),
    /// An inclusive ceiling: the value must be `<=` it.
    AtMost(f64),
    /// A strict ceiling: the value must be `<` it.
    Below(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::AtMost(b) => value <= b,
            Bound::Below(b) => value < b,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Bound::AtLeast(b) => write!(f, ">= {}", show(b)),
            Bound::AtMost(b) => write!(f, "<= {}", show(b)),
            Bound::Below(b) => write!(f, "< {}", show(b)),
        }
    }
}

/// Whole values print as integers, the rest to two decimals.
fn show(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// One gate's verdict: the line to print, or the breach to report. A
/// missing value is a breach, never a pass.
fn verdict(name: &str, value: Option<f64>, bound: Bound, tier: Tier) -> Result<String, String> {
    let tier = tier.name();
    match value {
        None => Err(format!("{name} unavailable (bound {bound}, {tier} tier)")),
        Some(v) if bound.holds(v) => Ok(format!("{name} {} ({bound}, {tier} tier)", show(v))),
        Some(v) => Err(format!("{name} {} breached {bound} ({tier} tier)", show(v))),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` when
/// `/proc/self/status` is unreadable or has no such line. The high-water
/// mark is monotone, so one reading at the end captures the hungriest
/// stage.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A peak-RSS reading and the ceiling it is gated against.
pub struct Rss {
    /// The reading; `None` when the host does not report one.
    peak_mb: Option<f64>,
    /// The tier's ceiling.
    ceiling_mb: f64,
}

impl Rss {
    /// The `peak_rss_mb` and `rss_ceiling_mb` BENCH keys; a missing
    /// reading writes `null`.
    pub fn fields(&self) -> [(&'static str, Json); 2] {
        [
            ("peak_rss_mb", self.peak_mb.map(|mb| fixed(mb, 1)).into()),
            ("rss_ceiling_mb", fixed(self.ceiling_mb, 0)),
        ]
    }
}

/// A perf bin's parsed flags: where to write and at which tier.
#[derive(Debug, PartialEq)]
pub struct Harness {
    /// The tier the flags selected.
    pub tier: Tier,
    /// The `--out` path, or the bin's default.
    out: String,
    bin: &'static str,
}

impl Harness {
    /// Parses this process's arguments for the perf bin `bin`; on a bad
    /// flag prints the bin's usage and exits 2.
    pub fn from_env(bin: &'static str, default_out: &str, huge: bool) -> Harness {
        Harness::parse(bin, default_out, huge, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("{}", usage(bin, huge));
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name): `--fast`, `--out PATH`,
    /// and `--huge` when `huge` allows it. The last tier flag wins.
    pub fn parse(
        bin: &'static str,
        default_out: &str,
        huge: bool,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Harness, String> {
        let mut harness = Harness {
            tier: Tier::Full,
            out: default_out.to_string(),
            bin,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--fast" => harness.tier = Tier::Fast,
                "--huge" if huge => harness.tier = Tier::Huge,
                "--out" => harness.out = args.next().ok_or("--out needs a path")?,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(harness)
    }

    /// `true` at the `--fast` tier.
    pub fn fast(&self) -> bool {
        self.tier == Tier::Fast
    }

    /// Reads the peak RSS now and prints it beside the tier's ceiling.
    pub fn rss(&self) -> Rss {
        let rss = Rss {
            peak_mb: peak_rss_mb(),
            ceiling_mb: self.tier.rss_ceiling_mb(),
        };
        let peak = rss
            .peak_mb
            .map_or("unavailable".into(), |mb| format!("{mb:.1} MiB"));
        println!("  peak RSS {peak} (ceiling {:.0} MiB)", rss.ceiling_mb);
        rss
    }

    /// Writes the baseline to `--out`: a `"bench"` key naming the bin,
    /// then `fields` in order. Exits 1 if the file cannot be written.
    pub fn write(&self, fields: Vec<(&'static str, Json)>) {
        let doc = document(self.bin, fields);
        std::fs::write(&self.out, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", self.out);
            std::process::exit(1);
        });
        println!("baseline written to {}", self.out);
    }

    /// Prints the gate `name`'s value beside its bound and the tier, and
    /// exits 1 if the value breaches the bound.
    pub fn check(&self, name: &str, value: f64, bound: Bound) {
        self.gate(name, Some(value), bound);
    }

    /// Gates the peak RSS under the tier's ceiling; a missing reading
    /// fails the gate ("peak RSS unavailable").
    pub fn check_rss(&self, rss: &Rss) {
        self.gate("peak RSS", rss.peak_mb, Bound::Below(rss.ceiling_mb));
    }

    fn gate(&self, name: &str, value: Option<f64>, bound: Bound) {
        match verdict(name, value, bound, self.tier) {
            Ok(line) => println!("  gate: {line}"),
            Err(breach) => {
                eprintln!("{}: gate failed: {breach}", self.bin);
                std::process::exit(1);
            }
        }
    }
}

fn usage(bin: &str, huge: bool) -> String {
    let tiers = if huge {
        "[--fast | --huge]"
    } else {
        "[--fast]"
    };
    format!("usage: {bin} {tiers} [--out PATH]")
}

/// A BENCH value as the writer lays it out.
#[derive(Debug)]
pub enum Json {
    /// A number, boolean, `null` or inline array, already formatted.
    Raw(String),
    /// A string, quoted on output.
    Str(String),
    /// An object on one line.
    Obj(Vec<(&'static str, Json)>),
    /// An object with one key per line.
    Block(Vec<(&'static str, Json)>),
    /// An array with one element per line.
    Rows(Vec<Json>),
}

/// `x` with `decimals` digits after the point.
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Raw(format!("{x:.decimals$}"))
}

impl Json {
    /// A value written as its `Display` form.
    pub fn raw(x: impl std::fmt::Display) -> Json {
        Json::Raw(x.to_string())
    }

    fn render(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => quote(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    quote(out, key);
                    out.push_str(": ");
                    value.render(out, depth);
                }
                out.push('}');
            }
            Json::Block(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    quote(out, key);
                    out.push_str(": ");
                    value.render(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
            Json::Rows(rows) => {
                out.push_str("[\n");
                for (i, row) in rows.iter().enumerate() {
                    indent(out, depth + 1);
                    row.render(out, depth + 1);
                    out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
        }
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The whole baseline file for `bin`: a block whose first key is
/// `"bench"`, ending in a newline.
fn document(bin: &str, fields: Vec<(&'static str, Json)>) -> String {
    let mut all = vec![("bench", Json::from(bin))];
    all.extend(fields);
    let mut out = String::new();
    Json::Block(all).render(&mut out, 0);
    out.push('\n');
    out
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::raw(x)
            }
        }
    )*};
}
json_display!(bool, u32, u64, u128, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(x: Option<T>) -> Json {
        x.map_or(Json::Raw("null".into()), Into::into)
    }
}

/// `fields!["key" => value, ...]`: BENCH fields in order, each value
/// converted with `Json::from`.
#[macro_export]
macro_rules! fields {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, $crate::harness::Json::from($value))),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(huge: bool, args: &[&str]) -> Result<Harness, String> {
        let args = args.iter().map(|a| a.to_string());
        Harness::parse("perf_x", "results/BENCH_x.json", huge, args)
    }

    #[test]
    fn parser_accepts_the_tier_flags_and_out() {
        let h = parse(false, &[]).unwrap();
        assert_eq!(
            (h.tier, h.out.as_str()),
            (Tier::Full, "results/BENCH_x.json")
        );
        let h = parse(false, &["--fast", "--out", "/tmp/x.json"]).unwrap();
        assert_eq!((h.tier, h.out.as_str()), (Tier::Fast, "/tmp/x.json"));
        let h = parse(true, &["--out", "y.json", "--huge"]).unwrap();
        assert_eq!((h.tier, h.out.as_str()), (Tier::Huge, "y.json"));
        assert_eq!(parse(true, &["--huge", "--fast"]).unwrap().tier, Tier::Fast);
    }

    #[test]
    fn parser_rejects_bad_flags() {
        assert_eq!(
            parse(false, &["--huge"]),
            Err("unknown argument: --huge".into())
        );
        assert_eq!(
            parse(true, &["--fast", "--out"]),
            Err("--out needs a path".into())
        );
        assert_eq!(
            parse(true, &["--seeds", "3"]),
            Err("unknown argument: --seeds".into())
        );
        assert_eq!(
            usage("perf_x", false),
            "usage: perf_x [--fast] [--out PATH]"
        );
        assert_eq!(
            usage("perf_x", true),
            "usage: perf_x [--fast | --huge] [--out PATH]"
        );
    }

    #[test]
    fn gates_fail_on_a_breach_or_a_missing_value() {
        let fast = Tier::Fast;
        assert!(verdict("x", Some(5.0), Bound::AtLeast(5.0), fast).is_ok());
        assert!(verdict("x", Some(4.9), Bound::AtLeast(5.0), fast).is_err());
        assert!(verdict("x", Some(4.0), Bound::AtMost(4.0), fast).is_ok());
        assert!(verdict("x", Some(4.1), Bound::AtMost(4.0), fast).is_err());
        assert!(verdict("x", Some(499.0), Bound::Below(500.0), fast).is_ok());
        assert!(verdict("x", Some(500.0), Bound::Below(500.0), fast).is_err());
        assert_eq!(
            verdict("speedup", Some(9.512), Bound::AtLeast(5.0), fast),
            Ok("speedup 9.51 (>= 5, fast tier)".into())
        );
        let rss = Rss {
            peak_mb: None,
            ceiling_mb: Tier::Full.rss_ceiling_mb(),
        };
        let breach = verdict(
            "peak RSS",
            rss.peak_mb,
            Bound::Below(rss.ceiling_mb),
            Tier::Full,
        );
        assert_eq!(
            breach,
            Err("peak RSS unavailable (bound < 1024, full tier)".into())
        );
        let doc = document("perf_x", rss.fields().into());
        assert!(doc.contains("\"peak_rss_mb\": null,\n  \"rss_ceiling_mb\": 1024\n"));
    }

    /// `results/BENCH_groomd.json` as checked in: inline objects, rows,
    /// strings and a boolean tier key.
    #[test]
    fn writer_reproduces_the_groomd_baseline() {
        let expected = r#"{
  "bench": "perf_service",
  "fast": false,
  "corpus": {"batches": 12, "items": 48},
  "determinism": {"workers1": "b66022479788c629", "workers4": "b66022479788c629", "cache_cold": "b66022479788c629", "cache_warm": "b66022479788c629", "identical": true, "cache_hits": 48},
  "ramp": [
    {"offered_batches": 2, "accepted_items": 8, "rejected_requests": 0, "solves_per_sec": 2842.9},
    {"offered_batches": 4, "accepted_items": 16, "rejected_requests": 0, "solves_per_sec": 3792.7},
    {"offered_batches": 8, "accepted_items": 20, "rejected_requests": 3, "solves_per_sec": 3964.8}
  ],
  "blocking": {"offered_batches": 8, "rejected_requests": 3, "blocking_rate": 0.375, "sustained_solves_per_sec": 3964.8},
  "queue_wait_us": {"p50": 512, "p99": 2048},
  "solve_time_us": {"p50": 512, "p99": 2048},
  "round_trip_us": {"p50": 35, "p99": 72}
}
"#;
        let digest = "b66022479788c629";
        let ramp = [
            (2u64, 8u64, 0u64, 2842.9),
            (4, 16, 0, 3792.7),
            (8, 20, 3, 3964.8),
        ]
        .map(|(offered, accepted, rejected, rate)| {
            Json::Obj(fields![
                "offered_batches" => offered, "accepted_items" => accepted,
                "rejected_requests" => rejected, "solves_per_sec" => fixed(rate, 1),
            ])
        });
        let pair = |p50: u64, p99: u64| Json::Obj(fields!["p50" => p50, "p99" => p99]);
        let doc = document(
            "perf_service",
            fields![
                "fast" => false,
                "corpus" => Json::Obj(fields!["batches" => 12usize, "items" => 48usize]),
                "determinism" => Json::Obj(fields![
                    "workers1" => digest, "workers4" => digest, "cache_cold" => digest,
                    "cache_warm" => digest, "identical" => true, "cache_hits" => 48u64,
                ]),
                "ramp" => Json::Rows(ramp.into()),
                "blocking" => Json::Obj(fields![
                    "offered_batches" => 8usize, "rejected_requests" => 3u64,
                    "blocking_rate" => fixed(0.375, 3),
                    "sustained_solves_per_sec" => fixed(3964.8, 1),
                ]),
                "queue_wait_us" => pair(512, 2048),
                "solve_time_us" => pair(512, 2048),
                "round_trip_us" => pair(35, 72),
            ],
        );
        assert_eq!(doc, expected);
    }

    /// The first instance block of `results/BENCH_improve.json` as checked
    /// in: a multi-line object inside rows, holding rows and an inline
    /// object of its own.
    #[test]
    fn writer_reproduces_an_improve_instance_block() {
        let expected = r#"{
  "bench": "perf_improve",
  "fast": false,
  "reps": 3,
  "instances": [
    {
      "name": "gnm_100_600_k16",
      "n": 100,
      "m": 600,
      "k": 16,
      "graph_seed": 7,
      "anneal_iters": 50000,
      "stages": [
        {"stage": "refine", "ref_ms": 83.947, "new_ms": 1.057, "speedup": 79.42, "cost": 555, "identical": true},
        {"stage": "merge_parts", "ref_ms": 0.019, "new_ms": 0.042, "speedup": 0.45, "cost": 555, "identical": true},
        {"stage": "anneal", "ref_ms": 8.294, "new_ms": 4.011, "speedup": 2.07, "cost": 555, "identical": true}
      ],
      "pipeline": {"ref_ms": 92.259, "new_ms": 5.110, "speedup": 18.05}
    }
  ]
}
"#;
        let stages = [
            ("refine", 83.947, 1.057, 79.42),
            ("merge_parts", 0.019, 0.042, 0.45),
            ("anneal", 8.294, 4.011, 2.07),
        ]
        .map(|(stage, ref_ms, new_ms, speedup)| {
            Json::Obj(fields![
                "stage" => stage, "ref_ms" => fixed(ref_ms, 3), "new_ms" => fixed(new_ms, 3),
                "speedup" => fixed(speedup, 2), "cost" => 555usize, "identical" => true,
            ])
        });
        let instance = Json::Block(fields![
            "name" => "gnm_100_600_k16", "n" => 100usize, "m" => 600usize, "k" => 16usize,
            "graph_seed" => 7u64, "anneal_iters" => 50_000usize,
            "stages" => Json::Rows(stages.into()),
            "pipeline" => Json::Obj(fields![
                "ref_ms" => fixed(92.259, 3), "new_ms" => fixed(5.11, 3),
                "speedup" => fixed(18.05, 2),
            ]),
        ]);
        let doc = document(
            "perf_improve",
            fields!["fast" => false, "reps" => 3usize, "instances" => Json::Rows(vec![instance])],
        );
        assert_eq!(doc, expected);
    }

    #[test]
    fn strings_are_escaped_and_options_write_null() {
        let mut out = String::new();
        Json::Obj(fields!["s" => "a\"b\\c\n", "none" => None::<u64>, "some" => Some(2u32)])
            .render(&mut out, 0);
        assert_eq!(out, r#"{"s": "a\"b\\c\u000a", "none": null, "some": 2}"#);
    }
}
