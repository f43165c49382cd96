//! The experiment fleet: every paper artifact and ablation, one catalogue.
//!
//! ```text
//! fleet [--threads N] [--scale quick|full | --goldens DIR] [--filter NAME] [--plan FILE] [--list]
//! ```
//!
//! The whole command line is [`tiger_bench::fleet::cli`], where each flag
//! is documented.

use std::io;
use std::process::ExitCode;

use tiger_bench::fleet::{cli, standard_jobs};

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    // Unlocked handles: a sweep's worker threads may write to stderr while
    // the jobs run, and a lock held here would block them for good.
    match cli(standard_jobs(), args, &mut io::stdout(), &mut io::stderr()) {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
