//! CLI dispatcher for the experiment harness.
//!
//! Usage: `experiments [all | <id> ...]`; with no arguments, lists the ids.
//!
//! The ambient engine comes from the environment (`DECO_ENGINE_*`) via
//! [`Runtime::from_env`]; a malformed variable is reported to stderr —
//! naming the variable and the offending value — and the harness exits
//! instead of silently running on an engine nobody pinned.

use deco_bench::experiments;
use deco_runtime::Runtime;

fn main() {
    let rt = match Runtime::from_env() {
        Ok(rt) => rt,
        Err(err) => {
            // err carries the variable name and the offending value
            // (e.g. "DECO_ENGINE_THREADS must be a thread count (0 or
            // empty = auto), got \"three\"").
            eprintln!("invalid engine environment: {err}");
            std::process::exit(2);
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments [all | <id> ...]\navailable experiments:");
        for (id, _) in experiments::all() {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    eprintln!("[engine: {}]", rt.descriptor());
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::all().into_iter().map(|(id, _)| id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        match experiments::by_id(id) {
            Some(runner) => {
                let start = std::time::Instant::now();
                println!("{}", runner(&rt));
                println!("[{id} completed in {:?}]\n", start.elapsed());
            }
            None => {
                eprintln!("unknown experiment: {id}");
                std::process::exit(2);
            }
        }
    }
}
