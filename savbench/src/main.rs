//! savbench — live-stack time-to-enforcement benchmark with a per-layer
//! budget. README.md beside this package explains every number.
//!
//! ```text
//! savbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! savbench run <name> [...]            same, the workload positional
//! savbench all [--repeat 2] [...]      every workload, a process each
//! ```

mod fleet;
mod plan;
mod report;
mod run;
mod spec;
mod stack;
mod stats;
mod trace;

use run::Args;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

const USAGE: &str = "usage: savbench (--workload <name> | run <name> | all [--repeat <k>]) \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: usize,
    args: Args,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: 1,
        args: Args {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            trace_out: None,
        },
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}\n{USAGE}"))
        };
        match a.as_str() {
            "all" => cli.all = true,
            "run" | "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                cli.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1` from the driver; a bare `--trace` turns it on.
                cli.args.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--trace-out" => cli.args.trace_out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => cli.args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err(format!("name one workload or `all`\n{USAGE}"));
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds <= 60.0) || cli.repeat == 0 {
        return Err("--seconds is in (0, 60] and --repeat at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    stats::now_ns(); // the process clock starts here
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.all {
        return report::run_all(&cli.args, cli.repeat);
    }
    let name = cli.workload.expect("checked by parse");
    let Some(w) = spec::workload(&name) else {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    match report::run_workload(w, cli.args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("savbench: {name}: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse(&argv(
            "--workload join_storm --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("join_storm"));
        assert_eq!(
            (cli.args.seed, cli.args.seconds, cli.args.trace),
            (9, 12.0, true)
        );
        let cli = parse(&argv("run churn_dense --trace 0 --smoke")).unwrap();
        assert!(!cli.args.trace && cli.args.smoke);
        let cli = parse(&argv("all --trace --trace-out t.jsonl --repeat 2")).unwrap();
        assert!(cli.all && cli.args.trace && cli.repeat == 2);
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("all --workload x")).is_err());
        assert!(parse(&argv("all --seconds 0")).is_err());
    }
}
