//! `sos` — command-line front end for the sos-resilience workspace.
//!
//! See [`commands::usage`] (printed by `sos` with no arguments) for the
//! full flag reference.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    std::process::exit(commands::run(argv, &mut stdout));
}
