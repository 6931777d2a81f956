//! `sweep-cache`: offline inspection of sweep cache files.
//!
//! ```text
//! sweep-cache stats sweeps/fig5.json
//! sweep-cache verify sweeps/**/*.json
//! ```
//!
//! `stats FILE...` prints a per-file summary. `verify FILE...` validates
//! structure and exits nonzero when any file is invalid.
//!
//! Both read through `cyclone::sweep_cache`, the same validating reader the
//! sweep engine uses: a file `verify` rejects is one every sweep treats as a
//! miss (its points are recomputed).

use cyclone::sweep_cache::{stats_file, verify_file};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sweep-cache <stats FILE...|verify FILE...>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, files)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let files: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    match (command.as_str(), files.as_slice()) {
        ("stats", files) if !files.is_empty() => stats(files),
        ("verify", files) if !files.is_empty() => verify(files),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn stats(files: &[PathBuf]) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for path in files {
        match stats_file(path) {
            Ok(stats) => println!(
                "{}: figure `{}` schema {} mode {} | {} entr{}, {} shots, {} failures \
                 (seed {}, bp_iterations {})",
                path.display(),
                stats.figure,
                stats.schema,
                stats.mode,
                stats.entries,
                if stats.entries == 1 { "y" } else { "ies" },
                stats.total_shots,
                stats.total_failures,
                stats.seed,
                stats.bp_iterations,
            ),
            Err(reason) => {
                eprintln!("{}: {reason}", path.display());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn verify(files: &[PathBuf]) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for path in files {
        match verify_file(path) {
            Ok(()) => println!("{}: ok", path.display()),
            Err(reason) => {
                eprintln!("{}: INVALID: {reason}", path.display());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
