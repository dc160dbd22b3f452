//! End-to-end test over real TCP: a minimal accept loop (the same
//! shape as the `schedtaskd` binary's) drives
//! `Server::handle_request_line`, and the `ServeClient` from
//! `serve_api` talks to it over the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use schedtask_experiments::serve_api::{result_payload, JobSpec, Json, ServeClient};
use schedtask_experiments::Technique;
use schedtask_serve::{ServeConfig, Server};
use schedtask_workload::BenchmarkKind;

/// Binds an ephemeral TCP port and serves connections (one thread each)
/// against a fresh `Server`. Returns the address, the server handle,
/// and the dispatcher join handle; the accept thread is detached and
/// dies with the test process.
fn start_tcp(cfg: ServeConfig) -> (String, Arc<Server>, thread::JoinHandle<()>) {
    let server = Arc::new(Server::new(cfg));
    let dispatcher = server.spawn_dispatcher();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let accept_server = Arc::clone(&server);
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let server = Arc::clone(&accept_server);
            thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut out = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    let (resp, shutdown) = server.handle_request_line(&line);
                    if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() || shutdown {
                        return;
                    }
                }
            });
        }
    });
    (addr, server, dispatcher)
}

#[test]
fn tcp_round_trip_caches_and_acknowledges_shutdown() {
    let (addr, server, dispatcher) = start_tcp(ServeConfig {
        queue_capacity: 8,
        batch_max: 4,
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    assert!(client.ping().expect("ping"), "server answers ping");

    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 2;
    spec.params.max_instructions = 50_000;
    spec.params.warmup_instructions = 10_000;
    let line = spec.to_request_line(Some("e2e"), false);
    let first = client.request_line(&line).expect("first run");
    let fj = Json::parse(&first).expect("first response parses");
    assert_eq!(
        fj.get("status").and_then(Json::as_str),
        Some("ok"),
        "{first}"
    );
    assert_eq!(fj.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(fj.get("id").and_then(Json::as_str), Some("e2e"));

    // A second connection sees a cache hit with identical result bytes.
    let mut client2 = ServeClient::connect_tcp(&addr).expect("connect again");
    let second = client2.request_line(&line).expect("second run");
    let sj = Json::parse(&second).expect("second response parses");
    assert_eq!(
        sj.get("cached").and_then(Json::as_bool),
        Some(true),
        "{second}"
    );
    assert_eq!(
        result_payload(&first).expect("result field"),
        result_payload(&second).expect("result field")
    );

    // Stats over the wire reflect one miss, one hit, one cached entry.
    let stats = client.request_line("{\"op\":\"stats\"}").expect("stats");
    let st = Json::parse(&stats).expect("stats parses");
    assert_eq!(
        st.get("cache_entries").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    let counters = st.get("counters").expect("counters object");
    assert_eq!(
        counters.get("serve_cache_hits").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        counters.get("serve_cache_misses").and_then(Json::as_u64),
        Some(1)
    );

    // The shutdown op is acknowledged before the connection closes.
    let bye = client2
        .request_line("{\"op\":\"shutdown\",\"id\":\"bye\"}")
        .expect("shutdown ack");
    assert!(bye.contains("\"shutting_down\":true"), "{bye}");

    server.close();
    dispatcher.join().expect("dispatcher exits");
}
