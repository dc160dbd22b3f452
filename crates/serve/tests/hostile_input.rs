//! Hostile request lines against real `schedtaskd` processes.
//!
//! One request line must never crash or wedge a daemon. A recursive
//! parser without a depth limit overflows its stack on a line of
//! 200,000 `[`, aborting the whole process, and a parser that
//! re-validates the rest of the line for each character takes tens of
//! seconds on a string value near the line limit. Both a worker and a
//! router (which runs the same parser on every request) must answer
//! each with a structured `bad_request` error and then still serve an
//! ordinary run.

use std::path::Path;
use std::process::Child;

use schedtask_experiments::loadgen::spawn_daemon;
use schedtask_experiments::serve_api::{
    ClientTimeouts, Endpoint, JobSpec, Response, ServeClient, MAX_LINE_BYTES,
};
use schedtask_experiments::Technique;
use schedtask_workload::BenchmarkKind;

/// A `schedtaskd` child process, killed when dropped so a failing test
/// never leaks a daemon.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `schedtaskd` on an ephemeral port with `extra` arguments.
fn start(extra: &[&str]) -> Daemon {
    let mut args = vec!["--addr", "tcp://127.0.0.1:0"];
    args.extend_from_slice(extra);
    let args: Vec<String> = args.into_iter().map(str::to_owned).collect();
    let (child, addr, _) = spawn_daemon(Path::new(env!("CARGO_BIN_EXE_schedtaskd")), &args)
        .expect("schedtaskd starts");
    Daemon {
        child,
        endpoint: Endpoint::Tcp(addr),
    }
}

fn tiny_run_line() -> String {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.epoch_cycles = 10_000;
    spec.to_request_line(Some("normal"), false)
}

/// Sends each hostile line on one connection, requires a structured
/// `bad_request` answer to each, then requires an ordinary run to
/// succeed on the same connection and the process to still be alive.
fn assert_survives_hostile_lines(daemon: &mut Daemon) {
    let timeouts = ClientTimeouts {
        read_ms: 60_000,
        ..ClientTimeouts::default()
    };
    let mut client = ServeClient::dial(&daemon.endpoint, &timeouts).expect("dial daemon");
    let prefix = "{\"v\":1,\"op\":\"run\",\"workload\":\"";
    let long_string = format!(
        "{prefix}{}\"}}",
        "x".repeat(MAX_LINE_BYTES - prefix.len() - 16)
    );
    assert!(long_string.len() < MAX_LINE_BYTES);
    for (what, line) in [
        ("deep nesting", "[".repeat(200_000)),
        ("near-limit string", long_string),
    ] {
        let response = client
            .request_line(&line)
            .unwrap_or_else(|e| panic!("{what}: no answer: {e}"));
        match Response::parse(&response) {
            Ok(Response::Error { code, .. }) => {
                assert_eq!(code.as_deref(), Some("bad_request"), "{what}: {response}")
            }
            other => panic!("{what}: expected a structured error, got {other:?}"),
        }
    }
    let response = client
        .request_line(&tiny_run_line())
        .expect("normal run answered");
    assert!(
        matches!(Response::parse(&response), Ok(Response::Ok { .. })),
        "normal run after hostile lines: {response}"
    );
    assert!(
        daemon.child.try_wait().expect("poll daemon").is_none(),
        "daemon exited"
    );
}

#[test]
fn worker_and_router_refuse_hostile_lines_and_keep_serving() {
    let mut worker = start(&[]);
    assert_survives_hostile_lines(&mut worker);

    let worker_addr = worker.endpoint.to_string();
    let mut router = start(&["--router", "--worker", &worker_addr]);
    assert_survives_hostile_lines(&mut router);
    // The router's fleet is still whole: its worker answers too.
    assert!(worker.child.try_wait().expect("poll worker").is_none());
}
