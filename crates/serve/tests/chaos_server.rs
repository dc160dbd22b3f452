//! Acceptance proptest for the crash-recovery story: a server with a
//! persistent cache and an active chaos plan executes jobs, the process
//! "dies" (the server is dropped — torn-write chaos has already placed
//! partial records on disk, exactly what a kill -9 mid-append leaves),
//! and a second server on the same directory must serve every
//! previously-acknowledged result byte-identical, from the disk tier
//! wherever a record survived.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use schedtask_experiments::serve_api::{result_payload, Json};
use schedtask_serve::{ChaosPlan, ServeConfig, Server};

fn tmp_dir(case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("schedtask-chaosprop-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request_line(i: u64, seed: u64) -> String {
    format!(
        "{{\"workload\":\"Find\",\"cores\":2,\"seed\":{},\
         \"max_instructions\":40000,\"warmup_instructions\":10000}}",
        seed * 100 + i
    )
}

/// Submits `line`, retrying transient failures (chaos worker panics
/// surface as error responses; a panicked claim is evicted so a resubmit
/// re-executes). Returns the final ok response.
fn submit_until_ok(server: &Server, line: &str) -> String {
    for _ in 0..32 {
        let (response, _) = server.handle_request_line(line);
        let json = Json::parse(&response).expect("response parses");
        match json.get("status").and_then(Json::as_str) {
            Some("ok") => return response,
            Some("error") | Some("rejected") => continue,
            other => panic!("unexpected status {other:?} in {response}"),
        }
    }
    panic!("job never succeeded under chaos: {line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn restart_after_chaos_serves_byte_identical_results(
        plan in prop::sample::select(vec!["none", "light", "heavy"]),
        seed in 1u64..1_000,
    ) {
        let dir = tmp_dir(seed);
        let chaos = ChaosPlan::parse(&format!("{plan}@{seed}"), 0).expect("plan parses");
        let cfg = ServeConfig {
            queue_capacity: 16,
            batch_max: 4,
            workers: 2,
            cache_dir: Some(dir.clone()),
            chaos: Some(chaos),
        };
        let jobs: Vec<String> = (0..3).map(|i| request_line(i, seed)).collect();

        // Phase 1: execute every job under chaos, keeping the
        // acknowledged result bytes.
        let server = Arc::new(Server::try_new(cfg.clone()).expect("first server opens"));
        let dispatcher = server.spawn_dispatcher();
        let before: Vec<String> = jobs
            .iter()
            .map(|line| submit_until_ok(&server, line))
            .collect();
        let persisted = server.disk_entries();
        server.close();
        dispatcher.join().expect("dispatcher exits");
        drop(server);

        // Phase 2: a new server on the same directory. Recovery must
        // swallow whatever torn tails chaos left behind, and every
        // resubmission must come back byte-identical — from the disk
        // tier for each record that reached the log.
        let server = Arc::new(Server::try_new(cfg).expect("second server recovers"));
        let dispatcher = server.spawn_dispatcher();
        let recovery = server.recovery().expect("persistence enabled");
        prop_assert_eq!(recovery.records, persisted as u64,
            "recovery replays exactly the records that were acknowledged to disk");
        let mut disk_hits = 0u64;
        for (line, first) in jobs.iter().zip(&before) {
            let second = submit_until_ok(&server, line);
            prop_assert_eq!(
                result_payload(first).expect("result field"),
                result_payload(&second).expect("result field"),
                "result bytes changed across the crash"
            );
            let json = Json::parse(&second).expect("response parses");
            if json.get("cached").and_then(Json::as_bool) == Some(true) {
                disk_hits += 1;
            }
        }
        prop_assert_eq!(disk_hits, recovery.records,
            "every recovered record is served as a cache hit, nothing more");
        if plan == "none" {
            prop_assert_eq!(disk_hits, jobs.len() as u64,
                "without chaos every pre-crash result is a disk hit");
        }
        server.close();
        dispatcher.join().expect("dispatcher exits");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
