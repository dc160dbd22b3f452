//! Router end-to-end tests over real TCP workers.
//!
//! The fleet contract: duplicates execute exactly once fleet-wide
//! (router hot-cache + single-flight above the workers' own tiers),
//! result bytes through the router are identical to a direct worker
//! run, transport failures fail over around the ring, and worker
//! rejections propagate verbatim with their retry hints.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use schedtask_experiments::serve_api::{result_payload, Endpoint, JobSpec, Json, Response};
use schedtask_experiments::Technique;
use schedtask_obs::Counter;
use schedtask_serve::router::{build_ring, route, RING_REPLICAS};
use schedtask_serve::{Router, RouterConfig, ServeConfig, Server};
use schedtask_workload::BenchmarkKind;

/// Binds an ephemeral TCP port and serves connections against a fresh
/// `Server` — the same shape as the daemon's accept loop.
fn start_worker(cfg: ServeConfig) -> (String, Arc<Server>, thread::JoinHandle<()>) {
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

/// A fake worker that answers the router's join-time ping correctly,
/// then serves `canned` to every subsequent request on that connection,
/// and refuses all connections after the first (the listener is
/// dropped) — a worker that joins the fleet and then dies.
fn start_canned_worker(canned: Option<String>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        drop(listener); // later dials get connection-refused
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut out = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let resp = if line.contains("\"op\":\"ping\"") {
                "{\"v\":1,\"status\":\"ok\",\"pong\":true,\"proto\":1}".to_owned()
            } else {
                match &canned {
                    Some(canned) => canned.clone(),
                    None => return,
                }
            };
            if writeln!(out, "{resp}").and_then(|()| out.flush()).is_err() {
                return;
            }
        }
    });
    addr
}

fn tiny_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.seed = seed;
    spec
}

#[test]
fn duplicates_execute_once_fleet_wide_with_byte_identical_results() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        batch_max: 4,
        workers: 2,
        ..ServeConfig::default()
    };
    let (addr_a, worker_a, dispatcher_a) = start_worker(cfg.clone());
    let (addr_b, worker_b, dispatcher_b) = start_worker(cfg);
    let router = Arc::new(
        Router::new(RouterConfig::new(vec![
            Endpoint::Tcp(addr_a.clone()),
            Endpoint::Tcp(addr_b.clone()),
        ]))
        .expect("router joins both workers"),
    );

    let line = tiny_spec(7).to_request_line(Some("dup"), false);

    // Eight concurrent duplicate submissions through the router.
    let handles: Vec<thread::JoinHandle<String>> = (0..8)
        .map(|_| {
            let router = Arc::clone(&router);
            let line = line.clone();
            thread::spawn(move || router.handle_request_line(&line).0)
        })
        .collect();
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("submitter does not panic"))
        .collect();

    let first = result_payload(&responses[0]).expect("result field");
    for resp in &responses {
        let json = Json::parse(resp).expect("response parses");
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("ok"),
            "{resp}"
        );
        assert_eq!(
            result_payload(resp),
            Some(first),
            "identical bytes for every caller"
        );
    }

    // Exactly one execution across the whole fleet.
    let executed = worker_a.counters().get(Counter::ServeExecuted)
        + worker_b.counters().get(Counter::ServeExecuted);
    assert_eq!(executed, 1, "duplicates must execute exactly once");

    // A later duplicate is a router hot-cache hit: no worker traffic.
    let forwarded_before = router.counter(Counter::ServeRouterForwarded);
    let (replay, _) = router.handle_request_line(&line);
    let rj = Json::parse(&replay).expect("replay parses");
    assert_eq!(rj.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(result_payload(&replay), Some(first));
    assert_eq!(
        router.counter(Counter::ServeRouterForwarded),
        forwarded_before
    );
    assert!(router.counter(Counter::ServeRouterHotHits) >= 1);

    // Byte identity against a run that never saw the router: ask the
    // owning worker directly.
    let owner = route(
        &build_ring(
            &[Endpoint::Tcp(addr_a), Endpoint::Tcp(addr_b)],
            RING_REPLICAS,
        ),
        tiny_spec(7).cache_key(),
    );
    let direct_worker = if owner == 0 { &worker_a } else { &worker_b };
    let (direct, _) = direct_worker.handle_request_line(&line);
    assert_eq!(
        result_payload(&direct),
        Some(first),
        "router is byte-transparent"
    );

    worker_a.close();
    worker_b.close();
    dispatcher_a.join().expect("dispatcher a exits");
    dispatcher_b.join().expect("dispatcher b exits");
}

#[test]
fn transport_failures_fail_over_to_the_next_ring_worker() {
    let (addr_live, worker, dispatcher) = start_worker(ServeConfig {
        queue_capacity: 16,
        batch_max: 4,
        workers: 2,
        ..ServeConfig::default()
    });
    // The dead worker joins the fleet (answers the version handshake),
    // then drops every later connection.
    let addr_dead = start_canned_worker(None);
    let workers = vec![Endpoint::Tcp(addr_live), Endpoint::Tcp(addr_dead)];
    let router = Router::new(RouterConfig::new(workers.clone())).expect("router starts");

    // Find a spec the ring assigns to the dead worker so the forward
    // must fail over.
    let ring = build_ring(&workers, RING_REPLICAS);
    let seed = (0..u64::MAX)
        .find(|&s| route(&ring, tiny_spec(s).cache_key()) == 1)
        .expect("some key routes to the dead worker");
    let line = tiny_spec(seed).to_request_line(Some("failover"), false);

    let (resp, _) = router.handle_request_line(&line);
    let json = Json::parse(&resp).expect("response parses");
    assert_eq!(
        json.get("status").and_then(Json::as_str),
        Some("ok"),
        "the live worker serves the job: {resp}"
    );
    assert!(
        router.counter(Counter::ServeRouterFailovers) >= 1,
        "failover must be counted"
    );

    worker.close();
    dispatcher.join().expect("dispatcher exits");
}

#[test]
fn worker_rejections_propagate_verbatim_with_retry_hints() {
    // Both workers are canned rejecters, so whichever owns the key
    // sheds the job; the router must pass the hint through untouched.
    let rejected = "{\"v\":1,\"id\":\"shed\",\"status\":\"rejected\",\
                    \"queue_depth\":9,\"retry_after_ms\":1234}";
    let addr_a = start_canned_worker(Some(rejected.to_owned()));
    let addr_b = start_canned_worker(Some(rejected.to_owned()));
    let router = Router::new(RouterConfig::new(vec![
        Endpoint::Tcp(addr_a),
        Endpoint::Tcp(addr_b),
    ]))
    .expect("router starts");

    let line = tiny_spec(1).to_request_line(Some("shed"), false);
    let (resp, _) = router.handle_request_line(&line);
    match Response::parse(&resp) {
        Ok(Response::Rejected {
            queue_depth,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(queue_depth, 9);
            assert_eq!(retry_after_ms, 1234, "retry hint propagated honestly");
        }
        other => panic!("expected the worker's rejection verbatim, got {other:?}: {resp}"),
    }
    assert!(router.counter(Counter::ServeRouterShed) >= 1);

    // A retry of the shed key is forwarded again (the hot-tier slot was
    // failed, not filled), still yielding the worker's rejection.
    let forwarded_before = router.counter(Counter::ServeRouterForwarded);
    let (again, _) = router.handle_request_line(&line);
    assert!(again.contains("\"status\":\"rejected\""), "{again}");
    assert!(router.counter(Counter::ServeRouterForwarded) > forwarded_before);
}
