//! `perfbench-helper`: the library side of the chipletqc benchmark.
//!
//! `perfbench/run.py` starts and stops the engine processes and owns
//! the measurement contract; this binary does what needs the engine's
//! library: closed-loop clients for `serve_mixed`, the mesh
//! coordinator for `mesh_sweep`, the local reference runs every output
//! is checked against, and the traced per-layer replays. Each
//! subcommand prints one JSON object as its last stdout line.
//!
//! ```text
//! perfbench-helper strip REPORT
//! perfbench-helper serve-warm|serve-run --socket S --addr H:P --token-file F --seed N [--seconds S] [--trace]
//! perfbench-helper mesh-warm|mesh-run --workers H:P,H:P --token-file F --sweep FILE --seed N [--seconds S] [--trace]
//! perfbench-helper replay-paper --scale paper|quick --seed N
//! perfbench-helper replay-linkratio --scale paper|quick --dir DIR
//! ```

mod mesh;
mod replay;
mod serve;
mod util;

use std::process::ExitCode;

use util::Args;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    if command == "strip" {
        let path = argv.next().unwrap_or_default();
        return match std::fs::read_to_string(&path).ok().as_deref().and_then(util::stripped) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("strip: {path} is not a run report");
                ExitCode::FAILURE
            }
        };
    }
    let result = Args::parse(argv).and_then(|args| match command.as_str() {
        "serve-warm" => serve::warm(&args),
        "serve-run" => serve::run(&args),
        "mesh-warm" => mesh::warm(&args),
        "mesh-run" => mesh::run(&args),
        "replay-paper" => replay::paper_suite(&args),
        "replay-linkratio" => replay::linkratio_sweep(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench-helper {command}: {error}");
            ExitCode::FAILURE
        }
    }
}
