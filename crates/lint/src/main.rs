//! `cyclone-lint` CLI: lints the workspace and exits nonzero on findings, so
//! CI can gate on it. Human-readable text goes to stdout; `--json PATH` writes
//! the machine-readable findings artifact.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cyclone-lint: offline static analysis for the Cyclone workspace

USAGE:
    cyclone-lint [--root DIR] [--json PATH] [--quiet]

OPTIONS:
    --root DIR    Workspace root to lint (default: current directory)
    --json PATH   Also write machine-readable findings as JSON
    --quiet       Suppress per-finding text output (summary and exit code only)
    --help        Show this help

EXIT CODE: 0 clean, 1 findings, 2 usage or I/O error.

Rules: unordered-iter, wall-clock, hot-path-alloc, config-registry, io-unwrap,
annotation. Suppress one site with
    // cyclone-lint: allow(<rule>[, <rule>...]) -- <reason>
and mark no-allocation regions with
    // cyclone-lint: hot-path ... // cyclone-lint: end-hot-path
";

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quiet" => args.quiet = true,
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--json needs a file path".to_string())?,
                ));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("cyclone-lint: {err}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match lint::lint_workspace(&args.root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!(
                "cyclone-lint: failed to scan {}: {err}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!(
                "cyclone-lint: failed to write findings to {}: {err}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        for finding in &report.findings {
            println!("{finding}");
        }
    }
    println!(
        "cyclone-lint: {} finding(s) across {} file(s); {} suppression(s) honored",
        report.findings.len(),
        report.files_scanned,
        report.suppressions_used
    );
    let per_crate: Vec<String> = report
        .library_lines
        .iter()
        .map(|(krate, lines)| format!("{krate} {lines}"))
        .collect();
    println!(
        "cyclone-lint: library size {} lines ({})",
        report.library_total(),
        per_crate.join(", ")
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
