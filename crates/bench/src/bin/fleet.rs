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
    match cli(
        standard_jobs(),
        args,
        &mut io::stdout().lock(),
        &mut io::stderr().lock(),
    ) {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
