//! A bare `sc_service::Service` loop over stdin/stdout — the same
//! endpoint as `streamcolor serve`, kept as `sc-cluster`'s test fixture
//! and `exp_cluster`'s stdio worker: `CARGO_BIN_EXE_*` cannot name the
//! CLI crate's binary from this crate, so the tests spawn this instead.

use std::process::ExitCode;

fn main() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match sc_service::Service::new().serve(stdin.lock(), &mut stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cluster_worker: {e}");
            ExitCode::FAILURE
        }
    }
}
