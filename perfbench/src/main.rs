//! `perfbench`: wall-clock benchmark of the exspan workspace.
//!
//! ```text
//! perfbench --workload <maintain-value|maintain-durable|query-churn|serve>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.  Set-up
//! (build, fixpoint, and for `serve` bind and handshakes) runs three times,
//! twice in child processes of its own so every set-up starts cold, and
//! `setup_s` is their median.  `--trace 1` first runs the workload untraced
//! in a child process, then runs it again with spans recorded around every
//! call into a layer, and reports the per-layer metrics, the self time of
//! each layer and the tracing overhead.  The spans are written to
//! `perfbench/out/trace-<workload>-seed<n>.jsonl`.
//!
//! Every run checks the program's outputs and that the simulated counts of
//! the set-up repeat exactly; counts of earlier runs of the same build and
//! seed are kept in `perfbench/out/counts/` and must repeat too.  The last
//! line of standard output is one JSON object; a failed check sets
//! `"correct": false` and the exit code to 1.

mod common;
mod maintain;
mod query_churn;
mod report;
mod serve;
mod stats;
mod trace;

use common::{Counts, Ctx, Outcome};
use report::{result_line, unit_of, Metrics, END_TO_END, PER_LAYER};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Set-ups run in child processes, besides the one the measurement uses.
const SETUP_CHILDREN: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MaintainValue,
    MaintainDurable,
    QueryChurn,
    Serve,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("maintain-value", Workload::MaintainValue),
        ("maintain-durable", Workload::MaintainDurable),
        ("query-churn", Workload::QueryChurn),
        ("serve", Workload::Serve),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn setup(self, ctx: &mut Ctx) -> Result<Setup, String> {
        Ok(match self {
            Workload::MaintainValue => {
                Setup::Maintain(maintain::setup(maintain::Kind::Value, ctx)?)
            }
            Workload::MaintainDurable => {
                Setup::Maintain(maintain::setup(maintain::Kind::Durable, ctx)?)
            }
            Workload::QueryChurn => Setup::Query(query_churn::setup(ctx)?),
            Workload::Serve => Setup::Serve(serve::setup(ctx)?),
        })
    }
}

/// A workload after set-up, ready to measure.
enum Setup {
    Maintain(maintain::State),
    Query(query_churn::State),
    Serve(serve::State),
}

impl Setup {
    fn counts(&self) -> Counts {
        match self {
            Setup::Maintain(s) => s.counts(),
            Setup::Query(s) => s.counts(),
            Setup::Serve(s) => s.counts(),
        }
    }

    fn measure(self, ctx: &mut Ctx) -> Outcome {
        match self {
            Setup::Maintain(s) => maintain::measure(s, ctx),
            Setup::Query(s) => query_churn::measure(s, ctx),
            Setup::Serve(s) => serve::measure(s, ctx),
        }
    }

    fn close(self) {
        if let Setup::Serve(s) = self {
            s.close();
        }
    }
}

/// What a process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Measure and report (the command the benchmark is run with).
    Main,
    /// Set up once and report the set-up time and counts.
    Setup,
    /// Run the workload untraced and report its throughput.
    Pass,
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut name = None;
    let (mut seed, mut seconds, mut trace, mut role) = (None, None, None, Role::Main);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = Some(parse_num(&value()?, "--seed")?),
            "--seconds" => seconds = Some(parse_num(&value()?, "--seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--role" => {
                role = match value()?.as_str() {
                    "setup" => Role::Setup,
                    "pass" => Role::Pass,
                    other => return Err(format!("unknown role {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        role,
    })
}

fn parse_num(s: &str, flag: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {s:?}"))
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs this program again in `role` and returns its standard output.
fn run_child(args: &Args, role: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.name, "--role", role])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {role} child failed: {}", output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| format!("{role} child output: {e}"))
}

/// Reads a `<key> <value>` line of a child's output.
fn child_value(output: &str, key: &str) -> Result<f64, String> {
    output
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("child output lacks {key:?}"))
}

fn format_counts(counts: &Counts) -> String {
    counts
        .iter()
        .map(|(n, v)| format!("count {n} {v}\n"))
        .collect()
}

/// Compares two count lists; a difference adds one problem naming every
/// count that moved.
fn diff_counts(what: &str, expected: &str, got: &str, problems: &mut Vec<String>) {
    if expected != got {
        let exp: Vec<&str> = expected.lines().collect();
        let now: Vec<&str> = got.lines().collect();
        let differing: Vec<String> = exp
            .iter()
            .zip(&now)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("{a:?} vs {b:?}"))
            .collect();
        problems.push(format!(
            "determinism: {what} differ: {}",
            if differing.is_empty() {
                "different count lists".to_string()
            } else {
                differing.join("; ")
            }
        ));
    }
}

/// A fingerprint of the running executable, so kept counts are compared
/// only between runs of the same build.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Checks `counts` against those an earlier run of this build and seed
/// kept, or keeps them for later runs.
fn check_kept_counts(out_dir: &Path, args: &Args, counts: &str, problems: &mut Vec<String>) {
    let dir = out_dir.join("counts");
    let file = dir.join(format!(
        "{}-seed{}-s{}-{:016x}.txt",
        args.name,
        args.seed,
        args.seconds,
        build_id()
    ));
    match std::fs::read_to_string(&file) {
        Ok(kept) => diff_counts(
            "counts of an earlier run of this seed",
            &kept,
            counts,
            problems,
        ),
        Err(_) => {
            if std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&file, counts))
                .is_err()
            {
                eprintln!("perfbench: cannot keep counts in {}", file.display());
            }
        }
    }
}

fn run(args: &Args, work_dir: PathBuf, out_dir: &Path) -> Result<ExitCode, String> {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace && args.role == Role::Main),
        work_dir,
    };
    match args.role {
        Role::Setup => {
            let t0 = Instant::now();
            let setup = args.workload.setup(&mut ctx)?;
            println!("setup_s {:?}", t0.elapsed().as_secs_f64());
            print!("{}", format_counts(&setup.counts()));
            setup.close();
            return Ok(ExitCode::SUCCESS);
        }
        Role::Pass => {
            let outcome = args.workload.setup(&mut ctx)?.measure(&mut ctx);
            println!(
                "ops_per_s {:?}",
                outcome.metrics.get("ops_per_s").unwrap_or(0.0)
            );
            return Ok(ExitCode::SUCCESS);
        }
        Role::Main => {}
    }

    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut child_counts = Vec::new();
    let mut untraced_ops = None;
    if args.trace {
        untraced_ops = Some(child_value(&run_child(args, "pass")?, "ops_per_s")?);
    } else {
        for _ in 0..SETUP_CHILDREN {
            let output = run_child(args, "setup")?;
            setup_s.push(child_value(&output, "setup_s")?);
            let counts: String = output
                .lines()
                .filter(|l| l.starts_with("count "))
                .map(|l| format!("{l}\n"))
                .collect();
            child_counts.push(counts);
        }
    }

    let span = ctx.tracer.open("bench.setup", 0);
    let t0 = Instant::now();
    let setup = args.workload.setup(&mut ctx)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    ctx.tracer.close(span);
    let own_counts = format_counts(&setup.counts());
    for counts in &child_counts {
        diff_counts(
            "set-up counts of two processes",
            counts,
            &own_counts,
            &mut problems,
        );
    }

    let mut outcome = setup.measure(&mut ctx);
    problems.append(&mut outcome.problems);
    check_kept_counts(
        out_dir,
        args,
        &format_counts(&outcome.counts),
        &mut problems,
    );

    let mut metrics: Metrics = std::mem::take(&mut outcome.metrics);
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb());
    if let Some(untraced) = untraced_ops {
        let spans = ctx.tracer.spans();
        for (layer, self_ms) in trace::self_ms_by_layer(spans) {
            metrics.set(&format!("self_ms.{layer}"), self_ms);
        }
        metrics.set("trace.spans", spans.len() as f64);
        let traced = metrics.get("ops_per_s").unwrap_or(0.0);
        metrics.set("trace.untraced_ops_per_s", untraced);
        metrics.set("trace.traced_ops_per_s", traced);
        if traced > 0.0 {
            metrics.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
        }
        let file = out_dir.join(format!("trace-{}-seed{}.jsonl", args.name, args.seed));
        if let Err(e) = std::fs::write(&file, ctx.tracer.to_json_lines()) {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
        }
    }

    println!(
        "# {} seed {} seconds {} trace {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value) in metrics.iter() {
        println!("{name} = {value} {}", unit_of(name));
    }
    for problem in &problems {
        println!("check failed: {problem}");
        eprintln!("perfbench: check failed: {problem}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = problems.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics,
            names
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let code = match run(&args, work_dir.clone(), &out_dir) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    code
}
