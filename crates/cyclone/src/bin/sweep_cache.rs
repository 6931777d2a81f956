//! `sweep-cache`: offline composition of sweep cache files.
//!
//! Shard-local caches written by a distributed sweep fleet (see the README's
//! "Distributed sweeps" section) compose back into one file without rerunning
//! anything:
//!
//! ```text
//! sweep-cache merge sweeps/fig5.json sweeps/shards/*/fig5.json
//! sweep-cache stats sweeps/fig5.json
//! sweep-cache verify sweeps/**/*.json
//! ```
//!
//! `merge DEST SRC...` folds every compatible source into `DEST` (created if
//! absent), resolving conflicts by the meets-or-exceeds shot-count order;
//! incompatible or corrupt sources are skipped and reported. `stats FILE...`
//! prints a per-file summary. `verify FILE...` validates structure and exits
//! nonzero when any file is invalid.
//!
//! All three read through `cyclone::sweep_cache`, the same validating reader
//! the sweep engine uses: a file `verify` rejects is one every sweep treats as
//! a miss (its points are recomputed) and every merge skips.

use cyclone::sweep_cache::{merge_files, stats_file, verify_file};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: sweep-cache <merge DEST SRC...|stats FILE...|verify FILE...>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, files)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let files: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    match (command.as_str(), files.as_slice()) {
        ("merge", [dest, sources @ ..]) if !sources.is_empty() => merge(dest, sources),
        ("stats", files) if !files.is_empty() => stats(files),
        ("verify", files) if !files.is_empty() => verify(files),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn merge(dest: &Path, sources: &[PathBuf]) -> ExitCode {
    match merge_files(dest, sources) {
        Ok(report) => {
            println!(
                "{}: {} entr{} from {} source(s) ({} added, {} upgraded)",
                dest.display(),
                report.entries_total,
                if report.entries_total == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.sources_merged,
                report.entries_added,
                report.entries_upgraded,
            );
            for (path, reason) in &report.sources_skipped {
                eprintln!("skipped {}: {reason}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("merge failed: {err}");
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
