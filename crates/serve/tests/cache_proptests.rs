//! Property tests for the serve-layer result cache.
//!
//! Two properties from the PR contract:
//!
//! 1. For arbitrary job parameters (including light fault plans and the
//!    sanitizer), a cache hit replays byte-identical canonical stats
//!    JSON *and* a byte-identical JSONL event stream compared to both
//!    the first server execution and a fresh out-of-server run.
//! 2. N concurrent submitters of an identical spec trigger exactly one
//!    execution and all receive identical result bytes.

use std::sync::Arc;

use proptest::prelude::*;
use schedtask::{SchedTaskConfig, SchedTaskScheduler};
use schedtask_experiments::runner::RunBuilder;
use schedtask_experiments::serve_api::{parse_request, result_payload, JobSpec, Json, RequestOp};
use schedtask_obs::{Counter, JsonlSink, Observer};
use schedtask_serve::{ServeConfig, Server};

/// Parses a request line into the job spec the server would queue.
fn spec_of(line: &str) -> JobSpec {
    match parse_request(line).expect("request parses").op {
        RequestOp::Run(spec, _) => *spec,
        other => panic!("expected a run op, got {other:?}"),
    }
}

/// Runs `spec` directly — no server, no queue, no cache — mirroring the
/// daemon's executor, and returns (canonical stats JSON, JSONL stream).
fn fresh_run(spec: &JobSpec) -> (String, String) {
    let label = format!("{}/{}", spec.technique.name(), spec.benchmark.name());
    let sink = Arc::new(JsonlSink::with_label(Vec::new(), Some(label)));
    let mut builder =
        RunBuilder::new(&spec.params).observer(Arc::clone(&sink) as Arc<dyn Observer>);
    builder = match spec.steal {
        Some(policy) => builder.scheduler(Box::new(SchedTaskScheduler::new(
            spec.params.cores,
            SchedTaskConfig {
                steal_policy: policy,
                ..SchedTaskConfig::default()
            },
        ))),
        None => builder.technique(spec.technique),
    };
    let stats = builder
        .benchmark(spec.benchmark, spec.scale)
        .run()
        .expect("fresh run succeeds");
    (stats.to_canonical_json(), sink.take())
}

/// Extracts the `result` object bytes from an ok response that also
/// carries a trailing `jsonl` field.
fn result_before_jsonl(resp: &str) -> String {
    let start = resp.find("\"result\":").expect("result field") + "\"result\":".len();
    let end = resp.find(",\"jsonl\":").expect("jsonl field");
    resp[start..end].to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cache_hit_replays_byte_identical_stats_and_jsonl(
        workload in prop::sample::select(vec!["Find", "Iscp", "Dss"]),
        seed in 1u64..1_000,
        budget in 3u64..7, // x 10_000 instructions
        faults in prop::sample::select(vec!["none", "light", "light@3"]),
        sanitize in prop::bool::ANY,
    ) {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"cores\":2,\"seed\":{seed},\
             \"max_instructions\":{},\"warmup_instructions\":10000,\
             \"faults\":\"{faults}\",\"sanitize\":{sanitize},\"obs\":true}}",
            budget * 10_000
        );
        let (fresh_json, fresh_jsonl) = fresh_run(&spec_of(&line));

        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 4,
            batch_max: 2,
            workers: 2,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let (first, _) = server.handle_request_line(&line);
        let (second, _) = server.handle_request_line(&line);
        server.close();
        dispatcher.join().expect("dispatcher exits");

        let fj = Json::parse(&first).expect("first response parses");
        let sj = Json::parse(&second).expect("second response parses");
        prop_assert_eq!(fj.get("status").and_then(Json::as_str), Some("ok"), "{}", first);
        prop_assert_eq!(fj.get("cached").and_then(Json::as_bool), Some(false));
        prop_assert_eq!(sj.get("cached").and_then(Json::as_bool), Some(true));

        // The replayed result and event stream are byte-identical to the
        // first execution and to a run that never saw the server.
        prop_assert_eq!(result_before_jsonl(&first), result_before_jsonl(&second));
        prop_assert_eq!(result_before_jsonl(&first), fresh_json);
        let jsonl_of = |j: &Json| {
            j.get("jsonl")
                .and_then(Json::as_str)
                .expect("jsonl field")
                .to_owned()
        };
        prop_assert_eq!(jsonl_of(&fj), jsonl_of(&sj));
        prop_assert_eq!(jsonl_of(&fj), fresh_jsonl);
    }

    #[test]
    fn concurrent_identical_submissions_execute_once(
        submitters in 2usize..8,
        seed in 1u64..1_000,
    ) {
        let line = format!(
            "{{\"workload\":\"Find\",\"cores\":2,\"seed\":{seed},\
             \"max_instructions\":40000,\"warmup_instructions\":10000}}"
        );
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 16,
            batch_max: 4,
            workers: 2,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let handles: Vec<std::thread::JoinHandle<String>> = (0..submitters)
            .map(|_| {
                let server = Arc::clone(&server);
                let line = line.clone();
                std::thread::spawn(move || server.handle_request_line(&line).0)
            })
            .collect();
        let responses: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().expect("submitter does not panic"))
            .collect();
        server.close();
        dispatcher.join().expect("dispatcher exits");

        let first = result_payload(&responses[0]).expect("result field");
        for resp in &responses {
            let json = Json::parse(resp).expect("response parses");
            prop_assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"), "{}", resp);
            prop_assert_eq!(result_payload(resp), Some(first));
        }
        // Exactly one claim executed; everyone else hit or coalesced.
        prop_assert_eq!(server.counters().get(Counter::ServeExecuted), 1u64);
        prop_assert_eq!(server.cache().miss_count(), 1u64);
        prop_assert_eq!(
            server.counters().get(Counter::ServeSubmitted),
            submitters as u64
        );
    }
}
