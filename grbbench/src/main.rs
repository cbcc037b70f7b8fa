//! `grbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes (`# ...`), one `name = value unit` line per metric, and as
//! the last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero without a result when set-up fails.

use grbbench::run::{self, parse_args, USAGE};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grbbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    graphblas_core::init(graphblas_core::Mode::Blocking);
    if args.events_arm {
        if let Err(e) = run::events_arm(&args) {
            eprintln!("grbbench: events arm failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = if args.trace {
        run::traced(&args)
    } else {
        run::end_to_end(&args)
    };
    match result {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("grbbench: {} set-up failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
