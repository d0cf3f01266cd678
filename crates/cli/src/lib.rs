//! Implementation of the `radar` command-line tool.
//!
//! The binary is a thin wrapper over [`run`]; everything is a library
//! function so argument parsing and command execution are unit-testable.
//!
//! ```text
//! radar simulate [--workload W] [--objects N] [--rate R] [--duration S] …
//! radar topology <uunet|FILE> [--stats] [--dot] [--spec]
//! radar trace <stats|validate> FILE
//! radar events <tail|filter|explain|summary|watch> … FILE
//! radar events diff A B
//! radar objects <timeline|churn|audit> … FILE
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod dashboard;
mod events;
mod objects;
mod render;
mod simulate;
mod topology;
mod tracecmd;

pub use args::{ArgError, Parsed};
/// The workspace's JSON value, reader and printer, under the path scripts
/// and the repo benchmark import it by (`radar_cli::json::Value`).
pub use radar_obs::json;
pub use simulate::{SimulateArgs, WorkloadKind};

/// Executes a full command line (excluding the program name); returns
/// the text to print on success or an error message.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, malformed
/// flags, unreadable files, or invalid scenarios.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("simulate") => simulate::command(&args.collect::<Vec<_>>()),
        Some("topology") => topology::command(&args.collect::<Vec<_>>()),
        Some("trace") => tracecmd::command(&args.collect::<Vec<_>>()),
        Some("events") => events::command(&args.collect::<Vec<_>>()),
        Some("objects") => objects::command(&args.collect::<Vec<_>>()),
        Some("--help") | Some("-h") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    "radar — dynamic object replication and migration (ICDCS 1999 reproduction)\n\
     \n\
     USAGE:\n\
     \x20 radar simulate [OPTIONS]        run a hosting-platform simulation\n\
     \x20 radar topology <uunet|FILE>     inspect or convert a backbone topology\n\
     \x20 radar trace <stats|validate> F  inspect a request trace\n\
     \x20 radar events <SUBCOMMAND> FILE  inspect a flight-recorder event log\n\
     \x20                                 (tail | filter | explain | summary |\n\
     \x20                                 watch | diff)\n\
     \x20 radar objects <SUBCOMMAND> …    protocol-level behaviour of an event log\n\
     \x20                                 (timeline | churn | audit)\n\
     \n\
     Run `radar simulate --help` (etc.) for per-command options.\n"
        .to_string()
}
