//! Shared plumbing for the runnable examples (included via `#[path]`;
//! not an example target itself).

/// The engine comes from the environment (`DECO_ENGINE_*`); a malformed
/// variable is reported to stderr — naming the variable and the offending
/// value — instead of panicking.
/// The CI `examples-smoke` job asserts this exact behavior (exit code 2,
/// variable name and value in the message).
pub fn runtime_or_exit() -> deco::Runtime {
    match deco::Runtime::from_env() {
        Ok(rt) => rt,
        Err(err) => {
            eprintln!("invalid engine environment: {err}");
            std::process::exit(2);
        }
    }
}

/// `--small` caps the instance size (used by the CI examples-smoke job).
/// Not every example sizes itself (trace_figures is fixed-size), so this
/// is allowed to go unused in any one inclusion.
#[allow(dead_code)]
pub fn small() -> bool {
    std::env::args().any(|a| a == "--small")
}

/// `--serve <addr>`: submit the workload to a running `deco-serve`
/// daemon at `addr` (`tcp:host:port`, `host:port`, or `uds:/path`)
/// instead of solving in-process. A malformed or missing address exits
/// with code 2, like every other bad argument.
#[allow(dead_code)]
pub fn serve_addr() -> Option<deco::serve::ServeAddr> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--serve" {
            let raw = args.next().unwrap_or_else(|| {
                eprintln!("--serve requires an address (tcp:host:port, uds:/path)");
                std::process::exit(2);
            });
            return Some(deco::serve::ServeAddr::parse(&raw).unwrap_or_else(|e| {
                eprintln!("invalid --serve address: {e}");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// Solves `g` through the daemon at `addr` and returns the coloring.
/// The daemon numbers nodes `1..=n` — the same IDs the examples use —
/// so the coloring is bit-identical to an in-process solve on the same
/// engine. Connection or solve failures exit with a message; an example
/// pointed at a dead daemon must not silently fall back to solving
/// locally.
#[allow(dead_code)]
pub fn solve_via_daemon(
    addr: &deco::serve::ServeAddr,
    g: &deco::graph::Graph,
) -> deco::graph::coloring::EdgeColoring {
    let mut client = deco::serve::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("could not connect to deco-serve at {addr}: {e}");
        std::process::exit(2);
    });
    let report = client
        .solve(deco::serve::GraphSource::from_graph(g), None, false)
        .map_err(|e| e.to_string())
        .and_then(|resp| resp.into_report())
        .unwrap_or_else(|e| {
            eprintln!("daemon solve failed: {e}");
            std::process::exit(2);
        });
    println!(
        "solved by deco-serve at {addr}: engine {}, {} rounds, {} messages",
        report.engine, report.rounds, report.messages
    );
    report.coloring()
}

/// `--graph <path>`: run the example on a graph loaded from disk instead
/// of a generated one. `.snap` files load through the binary snapshot
/// reader (O(read), validated); anything else parses as edge-list text
/// through the streaming `read_edge_list_file` (buffered, never holds the
/// whole file in memory). Load errors exit with a message — a mistyped
/// path must not silently fall back to the generated workload.
#[allow(dead_code)]
pub fn graph_from_args() -> Option<deco::graph::Graph> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--graph" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("--graph requires a path");
                std::process::exit(2);
            });
            let loaded = if path.ends_with(".snap") {
                deco::graph::io::read_snapshot_file(&path).map_err(|e| e.to_string())
            } else {
                deco::graph::io::read_edge_list_file(&path).map_err(|e| e.to_string())
            };
            return Some(loaded.unwrap_or_else(|e| {
                eprintln!("could not load graph from {path}: {e}");
                std::process::exit(2);
            }));
        }
    }
    None
}
