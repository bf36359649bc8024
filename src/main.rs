//! `smtfetch` — command-line driver for the SMT fetch-unit simulator.
//!
//! ```text
//! smtfetch [OPTIONS]
//!
//!   --workload <NAME>     Table 2 workload (2_ILP … 8_MIX) or a comma list
//!                         of benchmark names (e.g. gzip,twolf)   [2_MIX]
//!   --engine <ENGINE>     gshare | ftb | stream | tc             [stream]
//!   --policy <POLICY>     icount | rr | brcount | misscount      [icount]
//!   --threads-per-cycle N 1 or 2                                 [1]
//!   --width N             fetch width (e.g. 8, 16)               [16]
//!   --stall / --flush     long-latency-load gating (Tullsen & Brown)
//!   --cycles N            measured cycles                        [120000]
//!   --warmup N            warmup cycles                          [30000]
//!   --seed N              workload generation seed               [2004]
//!   --all-engines         run every engine and compare
//! ```
//!
//! Each run's report ends with its per-thread stall breakdown: the share of
//! measured cycles each thread lost to each stall cause. A reader that
//! closes the pipe early (`smtfetch … | head`) ends the run quietly.

use std::io::{self, Write};
use std::process::ExitCode;

use smtfetch::core::{
    FetchEngineKind, FetchPolicy, LongLatencyAction, PolicyKind, SimBuilder, SimConfig, SimStats,
};
use smtfetch::experiments::render_stall_breakdown;
use smtfetch::workloads::{Workload, WorkloadClass};

#[derive(Debug)]
struct Options {
    workload: String,
    engine: FetchEngineKind,
    policy_kind: PolicyKind,
    threads_per_cycle: u32,
    width: u32,
    stall: bool,
    flush: bool,
    cycles: u64,
    warmup: u64,
    seed: u64,
    all_engines: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: "2_MIX".to_string(),
            engine: FetchEngineKind::Stream,
            policy_kind: PolicyKind::Icount,
            threads_per_cycle: 1,
            width: 16,
            stall: false,
            flush: false,
            cycles: 120_000,
            warmup: 30_000,
            seed: 2004,
            all_engines: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" | "-w" => o.workload = value("--workload")?,
            "--engine" | "-e" => {
                o.engine = value("--engine")?
                    .parse()
                    .map_err(|d| format!("invalid fetch engine:\n  {d}"))?
            }
            "--policy" | "-p" => {
                o.policy_kind = value("--policy")?
                    .parse()
                    .map_err(|d| format!("invalid fetch policy:\n  {d}"))?
            }
            "--threads-per-cycle" | "-n" => {
                o.threads_per_cycle = value("-n")?.parse().map_err(|e| format!("-n: {e}"))?
            }
            "--width" | "-x" => {
                o.width = value("--width")?
                    .parse()
                    .map_err(|e| format!("--width: {e}"))?
            }
            "--stall" => o.stall = true,
            "--flush" => o.flush = true,
            "--cycles" | "-c" => {
                o.cycles = value("--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?
            }
            "--warmup" => {
                o.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?
            }
            "--seed" | "-s" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--all-engines" => o.all_engines = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(o)
}

fn print_help() {
    println!(
        "smtfetch — SMT fetch-unit simulator (HPCA 2004 reproduction)\n\n\
         USAGE: smtfetch [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20 -w, --workload <NAME>       2_ILP…8_MIX or benchmarks: gzip,twolf [2_MIX]\n\
         \x20 -e, --engine <ENGINE>       gshare | ftb | stream | tc            [stream]\n\
         \x20 -p, --policy <POLICY>       icount | rr | brcount | misscount     [icount]\n\
         \x20 -n, --threads-per-cycle <N> 1 or 2                                [1]\n\
         \x20 -x, --width <N>             fetch width                           [16]\n\
         \x20     --stall | --flush       long-latency-load gating\n\
         \x20 -c, --cycles <N>            measured cycles                       [120000]\n\
         \x20     --warmup <N>            warmup cycles                         [30000]\n\
         \x20 -s, --seed <N>              workload seed                         [2004]\n\
         \x20     --all-engines           compare all four engines\n\n\
         EXAMPLES:\n\
         \x20 smtfetch -w 4_ILP -e ftb -n 1 -x 16\n\
         \x20 smtfetch -w gzip,twolf,mcf --all-engines\n\
         \x20 smtfetch -w 4_MIX -e ftb -n 2 -x 8 --flush"
    );
}

fn resolve_workload(name: &str) -> Result<Workload, String> {
    if let Some(w) = Workload::all_table2()
        .into_iter()
        .find(|w| w.name() == name)
    {
        return Ok(w);
    }
    // Comma-separated benchmark list.
    let names: Vec<&str> = name
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err("empty workload".into());
    }
    Workload::custom(name.to_string(), WorkloadClass::Mix, &names)
        .map_err(|e| format!("{e} (Table 2 names: 2_ILP, 2_MEM, 2_MIX, 4_ILP, 4_MEM, 4_MIX, 6_ILP, 6_MIX, 8_ILP, 8_MIX)"))
}

/// Builds the fetch policy and checks it with the configuration validator.
/// The policy is assembled field by field rather than through
/// `FetchPolicy::icount` and friends, whose asserts would panic on a bad
/// `-n` or `--width` before the validator could reject it with a
/// diagnostic (`E0004`).
fn build_policy(o: &Options) -> Result<FetchPolicy, String> {
    let mut policy = FetchPolicy {
        kind: o.policy_kind,
        threads_per_cycle: o.threads_per_cycle,
        width: o.width,
        long_latency: LongLatencyAction::None,
    };
    if o.stall {
        policy = policy.with_stall();
    }
    if o.flush {
        policy = policy.with_flush();
    }
    let cfg = SimConfig {
        fetch_policy: policy,
        ..SimConfig::default()
    };
    let errors: Vec<String> = cfg.validate().iter().map(ToString::to_string).collect();
    if errors.is_empty() {
        Ok(policy)
    } else {
        Err(format!("invalid fetch policy:\n  {}", errors.join("\n  ")))
    }
}

fn simulate(
    w: &Workload,
    engine: FetchEngineKind,
    policy: FetchPolicy,
    o: &Options,
) -> Result<SimStats, String> {
    let mut sim = SimBuilder::new(w.programs(o.seed).map_err(|e| e.to_string())?)
        .fetch_engine(engine)
        .fetch_policy(policy)
        .build()
        .map_err(|e| e.to_string())?;
    sim.run_cycles(o.warmup);
    sim.reset_stats();
    sim.run_cycles(o.cycles);
    Ok(sim.stats().clone())
}

fn report(
    out: &mut impl Write,
    engine: FetchEngineKind,
    policy: FetchPolicy,
    w: &Workload,
    s: &SimStats,
) -> io::Result<()> {
    writeln!(out, "\n{engine} with {policy}")?;
    writeln!(out, "  fetch throughput   {:>7.2} IPFC", s.ipfc())?;
    writeln!(out, "  commit throughput  {:>7.2} IPC", s.ipc())?;
    writeln!(
        out,
        "  branch accuracy    {:>6.1}%   wrong-path fetch {:>5.1}%",
        s.branch_accuracy() * 100.0,
        s.wrong_path_fraction() * 100.0
    )?;
    let per: Vec<String> = (0..w.num_threads())
        .map(|t| {
            format!(
                "{}={:.2}",
                w.benchmarks().get(t).copied().unwrap_or("?"),
                s.committed[t] as f64 / s.cycles.max(1) as f64
            )
        })
        .collect();
    writeln!(out, "  per-thread IPC     {}", per.join("  "))?;
    if s.flushes > 0 {
        writeln!(out, "  long-latency flushes {}", s.flushes)?;
    }
    let title = format!("{} / {engine} / {policy}", w.name());
    write!(
        out,
        "{}",
        render_stall_breakdown(&title, s, w.num_threads())
    )
}

/// Simulates and reports every requested engine; `Err` is a failed write.
fn run(
    o: &Options,
    w: &Workload,
    policy: FetchPolicy,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    writeln!(out, "{w}")?;
    writeln!(
        out,
        "seed {}  warmup {}  measured {} cycles",
        o.seed, o.warmup, o.cycles
    )?;
    let engines: Vec<FetchEngineKind> = if o.all_engines {
        FetchEngineKind::all_with_trace_cache().to_vec()
    } else {
        vec![o.engine]
    };
    for e in engines {
        match simulate(w, e, policy, o) {
            Ok(s) => report(out, e, policy, w, &s)?,
            Err(err) => {
                eprintln!("error: {err}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match resolve_workload(&o.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let policy = match build_policy(&o) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&o, &w, policy, &mut io::stdout().lock()) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing the report: {e}");
            ExitCode::FAILURE
        }
    }
}
