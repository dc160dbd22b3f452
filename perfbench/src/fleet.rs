//! `fleet-hot` and `fleet-miss`: a router and two `schedtaskd` workers
//! driven in a closed loop by this process.
//!
//! Conditions are fixed so runs repeat: the workers listen on fixed
//! ports (the router's ring hashes worker endpoints, so ephemeral ports
//! would reshuffle the shard split on every run); the generator runs on
//! one CPU and the fleet on the others; every run starts fresh
//! processes on an empty cache directory.

use schedtask_experiments::runner::{RunBuilder, Technique};
use schedtask_experiments::serve_api::{
    parse_request, ClientTimeouts, Endpoint, JobSpec, Json, RequestOp, ServeClient,
};
use schedtask_kernel::Engine;
use schedtask_obs::{JsonlSink, Observer};
use schedtask_serve::router::{build_ring, route, RING_REPLICAS};
use schedtask_serve::{DiskCache, Router, RouterConfig, ServeConfig, Server};
use schedtask_workload::BenchmarkKind;
use std::borrow::Cow;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::{median, percentile, Report};
use crate::sys::{self, Placement};
use crate::{layers, splitmix64, Outcome};

/// Fixed worker ports, so the ring split is the same on every run.
pub const WORKER_PORTS: [u16; 2] = [47_631, 47_632];
/// Distinct keys of `fleet-hot`, all warmed during set-up.
pub const HOT_KEYS: usize = 64;
/// Every this-many-th `fleet-miss` key has its payload checked.
const MISS_SAMPLE_EVERY: u64 = 256;
/// Fresh fleets per timed run; each metric is the median over them.
const FLEETS: usize = 5;
/// Calls per in-process layer measurement.
const LAYER_CALLS: usize = 200;
/// How long a daemon may take to start or stop.
const DAEMON_WAIT: Duration = Duration::from_secs(20);

const OK_PREFIX: &[u8] = b"{\"v\":1,\"status\":\"ok\"";
const STATS_LINE: &str = "{\"v\":1,\"op\":\"stats\"}";
const PING_LINE: &[u8] = b"{\"v\":1,\"op\":\"ping\"}\n";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Miss,
}

impl Mix {
    /// Closed-loop connections: one for reads, two (at most one per
    /// CPU) for misses.
    fn connections(self, placement: &Placement) -> usize {
        match self {
            Mix::Hot => 1,
            Mix::Miss => 2.min(placement.cpus()),
        }
    }
}

/// A tiny SchedTask/Find job like `repro loadgen`'s: 1–2 cores, about
/// 40k simulated instructions. `stream_seed` is a bijection of the
/// index, so distinct indices give distinct specs.
fn tiny_spec(stream_seed: u64, k: u64) -> JobSpec {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1 + (k % 2) as usize;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.epoch_cycles = 10_000;
    spec.params.seed = splitmix64(stream_seed.wrapping_add(k));
    spec
}

/// The `fleet-hot` key set.
pub fn hot_specs(seed: u64) -> Vec<JobSpec> {
    let stream = splitmix64(seed ^ 0x4807);
    (0..HOT_KEYS as u64).map(|k| tiny_spec(stream, k)).collect()
}

/// The `k`-th key of the `fleet-miss` stream; each is sent once.
pub fn miss_spec(seed: u64, k: u64) -> JobSpec {
    tiny_spec(splitmix64(seed ^ 0x0155), k)
}

fn framed(spec: &JobSpec) -> Vec<u8> {
    let mut line = spec.to_request_line(None, false).into_bytes();
    line.push(b'\n');
    line
}

/// The raw `"result":` payload of an ok run response.
pub fn result_payload(response: &str) -> Option<&str> {
    let start = response.find("\"result\":")? + "\"result\":".len();
    response.get(start..response.len().checked_sub(1)?)
}

/// Simulated instructions in a result payload, read from its leading
/// `instructions` object without parsing the rest.
fn payload_instructions(response: &[u8]) -> u64 {
    let Some(at) = response
        .windows(b"\"instructions\":{".len())
        .position(|w| w == b"\"instructions\":{")
    else {
        return 0;
    };
    let body = &response[at + b"\"instructions\":{".len()..];
    let end = body.iter().position(|&b| b == b'}').unwrap_or(body.len());
    body[..end]
        .split(|&b| b == b',')
        .filter_map(|field| {
            let colon = field.iter().position(|&b| b == b':')?;
            std::str::from_utf8(&field[colon + 1..])
                .ok()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// The canonical result and instruction count of `spec`, executed
/// in-process the way a worker executes it.
fn direct_result(spec: &JobSpec) -> Result<(String, u64), String> {
    let stats = RunBuilder::new(&spec.params)
        .technique(spec.technique)
        .benchmark(spec.benchmark, spec.scale)
        .run()
        .map_err(|e| e.to_string())?;
    Ok((stats.to_canonical_json(), stats.total_instructions()))
}

/// Payloads that differ from the direct execution, or are missing.
pub fn payload_mismatches(pairs: &[(String, Option<String>)]) -> u64 {
    pairs
        .iter()
        .filter(|(expected, got)| got.as_deref() != Some(expected.as_str()))
        .count() as u64
}

// ---------------------------------------------------------------------------
// Processes.

struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

/// A router plus workers, stopped and reaped on drop.
struct Fleet {
    daemons: Vec<Daemon>,
    router: String,
    workers: Vec<String>,
}

fn spawn_daemon(bin: &Path, args: &[String]) -> Result<(Daemon, String), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(a) = line.trim_end().strip_prefix("schedtaskd listening on ") {
                    break a.to_owned();
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("schedtaskd {args:?} exited before listening"));
            }
        }
    };
    // Keep reading so the daemon's shutdown prints never hit a closed pipe.
    let drain = std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok((
        Daemon {
            child,
            drain: Some(drain),
        },
        addr,
    ))
}

impl Fleet {
    /// Starts two workers on the fixed ports with cache directories
    /// under `dir` (emptied first), then the router, all on the fleet
    /// CPUs; returns once the router answers ping.
    fn spawn(bin: &Path, dir: &Path, placement: &Placement) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        sys::pin_current_thread(&placement.fleet)?;
        let mut fleet = Fleet {
            daemons: Vec::new(),
            router: String::new(),
            workers: Vec::new(),
        };
        let started = (|| {
            for (i, port) in WORKER_PORTS.iter().enumerate() {
                let cache = dir.join(format!("worker{i}"));
                std::fs::create_dir_all(&cache)
                    .map_err(|e| format!("cannot create {}: {e}", cache.display()))?;
                let args = [
                    "--addr".to_owned(),
                    format!("tcp://127.0.0.1:{port}"),
                    "--cache-dir".to_owned(),
                    cache.display().to_string(),
                ];
                let (daemon, addr) = spawn_daemon(bin, &args)?;
                fleet.daemons.push(daemon);
                fleet.workers.push(addr);
            }
            let mut args = vec![
                "--router".to_owned(),
                "--addr".to_owned(),
                "tcp://127.0.0.1:0".to_owned(),
            ];
            for w in &fleet.workers {
                args.push("--worker".to_owned());
                args.push(format!("tcp://{w}"));
            }
            let (daemon, addr) = spawn_daemon(bin, &args)?;
            fleet.daemons.push(daemon);
            fleet.router = addr;
            Ok::<(), String>(())
        })();
        sys::pin_current_thread(&placement.generator)?;
        started?;
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            if let Ok(mut c) = Conn::open(&fleet.router) {
                if c.call(PING_LINE).is_ok_and(|r| r.starts_with(OK_PREFIX)) {
                    return Ok(fleet);
                }
            }
            if Instant::now() > deadline {
                return Err("router never answered ping".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.daemons
            .iter()
            .filter_map(|d| sys::peak_rss_mb(&d.child.id().to_string()))
            .sum()
    }

    fn stats(&self, addr: &str) -> Result<Json, String> {
        let mut c = ServeClient::connect_tcp(addr).map_err(|e| format!("stats dial: {e}"))?;
        let line = c
            .request_line(STATS_LINE)
            .map_err(|e| format!("stats: {e}"))?;
        Json::parse(&line)
    }

    /// Asks every daemon to drain and exit, then reaps them.
    fn shutdown(mut self) {
        let addrs: Vec<String> = std::iter::once(self.router.clone())
            .chain(self.workers.iter().cloned())
            .collect();
        for addr in addrs {
            if let Ok(mut c) = ServeClient::connect_tcp(&addr) {
                let _ = c.request_line("{\"v\":1,\"op\":\"shutdown\"}");
            }
        }
        self.reap(DAEMON_WAIT);
    }

    /// Waits up to `grace` for each daemon, then kills what is left.
    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for d in &mut self.daemons {
            while Instant::now() < deadline && matches!(d.child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(d.child.try_wait(), Ok(None)) {
                let _ = d.child.kill();
            }
            let _ = d.child.wait();
            if let Some(h) = d.drain.take() {
                let _ = h.join();
            }
        }
        self.daemons.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

fn counter(json: &Json, object: &str, name: &str) -> u64 {
    json.get(object)
        .and_then(|o| o.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// The load generator.

/// One blocking connection: a single write per request, one response
/// line back.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one framed line (ending in a newline) and returns the
    /// response without its newline.
    fn call(&mut self, framed: &[u8]) -> std::io::Result<&[u8]> {
        self.stream.write_all(framed)?;
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 || self.buf.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.pop();
        Ok(&self.buf)
    }
}

/// What one closed-loop burst measured.
#[derive(Default)]
struct Burst {
    /// Per-request latency in ns; a failed request counts as `u64::MAX`.
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
    instructions: u64,
    wall: Duration,
    client_cpu_ns: u64,
    /// `(request index, payload)` of the sampled requests.
    samples: Vec<(u64, String)>,
}

impl Burst {
    fn merge(&mut self, other: Burst) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.instructions += other.instructions;
        self.client_cpu_ns += other.client_cpu_ns;
        self.samples.extend(other.samples);
    }

    fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    fn req_per_s(&self) -> f64 {
        self.ok() as f64 / self.wall.as_secs_f64()
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        v
    }
}

/// The request a closed loop sends at each global index.
trait Source: Sync {
    fn line(&self, index: u64) -> Cow<'_, [u8]>;
    /// Whether to keep this request's payload for checking.
    fn sampled(&self, _index: u64) -> bool {
        false
    }
}

/// `fleet-hot`: the warmed keys, in an order the seed picks.
struct HotSource {
    lines: Vec<Vec<u8>>,
    seed: u64,
}

impl Source for HotSource {
    fn line(&self, index: u64) -> Cow<'_, [u8]> {
        let k = splitmix64(self.seed ^ index) % self.lines.len() as u64;
        Cow::Borrowed(&self.lines[k as usize])
    }
}

/// `fleet-miss`: key `index` of the miss stream, each index taken once.
struct MissSource {
    seed: u64,
    offset: u64,
}

impl Source for MissSource {
    fn line(&self, index: u64) -> Cow<'_, [u8]> {
        Cow::Owned(framed(&miss_spec(self.seed, self.offset + index)))
    }
    fn sampled(&self, index: u64) -> bool {
        (self.offset + index).is_multiple_of(MISS_SAMPLE_EVERY)
    }
}

/// Drives `addr` over `connections` connections, each sending its next
/// request only after the last reply, until `seconds` have passed.
/// Request indices come from one shared counter, so no index is sent
/// twice. With `spans`, each request also records when its write
/// returned (the traced variant).
fn closed_loop(
    addr: &str,
    connections: usize,
    seconds: f64,
    source: &dyn Source,
    spans: bool,
) -> Result<Burst, String> {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let bursts: Vec<Result<Burst, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut b = Burst {
                        latencies: Vec::with_capacity(1 << 16),
                        ..Burst::default()
                    };
                    let mut write_ns: Vec<u64> = Vec::new();
                    let cpu0 = sys::thread_cpu_ns().unwrap_or(0);
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = source.line(index);
                        b.attempted += 1;
                        let t0 = Instant::now();
                        let sent = conn.stream.write_all(&line);
                        if spans {
                            write_ns.push(t0.elapsed().as_nanos() as u64);
                        }
                        let response = sent.and_then(|()| {
                            conn.buf.clear();
                            match conn.reader.read_until(b'\n', &mut conn.buf) {
                                Ok(n) if n > 0 && conn.buf.last() == Some(&b'\n') => {
                                    conn.buf.pop();
                                    Ok(&conn.buf[..])
                                }
                                Ok(_) => Err(std::io::ErrorKind::UnexpectedEof.into()),
                                Err(e) => Err(e),
                            }
                        });
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        match response {
                            Ok(r) if r.starts_with(OK_PREFIX) => {
                                b.latencies.push(elapsed);
                                b.instructions += payload_instructions(r);
                                if source.sampled(index) {
                                    let text = String::from_utf8_lossy(r);
                                    if let Some(p) = result_payload(&text) {
                                        b.samples.push((index, p.to_owned()));
                                    }
                                }
                            }
                            Ok(_) => {
                                b.failed += 1;
                                b.latencies.push(u64::MAX);
                            }
                            Err(_) => {
                                // The connection is gone; this one stops.
                                b.failed += 1;
                                b.latencies.push(u64::MAX);
                                break;
                            }
                        }
                    }
                    b.client_cpu_ns = sys::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
                    // The spans exist to cost what per-request tracing
                    // costs; keep the compiler from dropping them.
                    std::hint::black_box(write_ns);
                    Ok(b)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".to_owned()))
            })
            .collect()
    });
    let mut total = Burst::default();
    for b in bursts {
        total.merge(b?);
    }
    total.wall = started.elapsed();
    Ok(total)
}

// ---------------------------------------------------------------------------
// Set-up and checks.

/// Sends every line once, one at a time; returns the ok responses'
/// payloads in order (`None` for a failed request).
fn send_each(addr: &str, lines: &[Vec<u8>]) -> Result<Vec<Option<String>>, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let r = conn.call(line).map_err(|e| format!("request: {e}"))?;
        let text = String::from_utf8_lossy(r);
        out.push(
            r.starts_with(OK_PREFIX)
                .then(|| result_payload(&text).map(str::to_owned))
                .flatten(),
        );
    }
    Ok(out)
}

/// Spawns a fresh fleet and, when `warm` is given, sends each warm-up
/// line once; returns the fleet, the seconds this took, and the warm-up
/// requests that failed.
fn spawn_ready(
    bin: &Path,
    dir: &Path,
    placement: &Placement,
    warm: Option<&[Vec<u8>]>,
) -> Result<(Fleet, f64, u64), String> {
    let started = Instant::now();
    let fleet = Fleet::spawn(bin, dir, placement)?;
    let failed = match warm {
        Some(lines) => send_each(&fleet.router, lines)?
            .iter()
            .filter(|p| p.is_none())
            .count() as u64,
        None => 0,
    };
    Ok((fleet, started.elapsed().as_secs_f64(), failed))
}

/// Fleet-wide executions per distinct key, from the router's `stats`.
fn executions_per_key(fleet: &Fleet, distinct: u64) -> Result<(f64, Json), String> {
    let stats = fleet.stats(&fleet.router)?;
    let executed = counter(&stats, "worker_counters", "serve_jobs_executed");
    Ok((executed as f64 / distinct.max(1) as f64, stats))
}

/// Fails the run unless the fleet executed every distinct key once.
fn check_exactly_once(fleet: &Fleet, distinct: u64) -> Result<u64, String> {
    let (per_key, _) = executions_per_key(fleet, distinct)?;
    if per_key == 1.0 {
        return Ok(0);
    }
    eprintln!("perfbench: fleet executed {per_key} times per distinct key, want exactly 1");
    Ok(1)
}

/// Checks `fleet-hot`'s answers for every key against direct execution.
fn check_hot(fleet: &Fleet, specs: &[JobSpec], lines: &[Vec<u8>]) -> Result<u64, String> {
    let got = send_each(&fleet.router, lines)?;
    let pairs = specs
        .iter()
        .zip(got)
        .map(|(spec, got)| Ok((direct_result(spec)?.0, got)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(payload_mismatches(&pairs))
}

/// Checks the sampled `fleet-miss` payloads against direct execution.
fn check_miss(source: &MissSource, samples: &[(u64, String)]) -> Result<u64, String> {
    let pairs = samples
        .iter()
        .map(|(index, got)| {
            let spec = miss_spec(source.seed, source.offset + index);
            Ok((direct_result(&spec)?.0, Some(got.clone())))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(payload_mismatches(&pairs))
}

/// The end-to-end metrics of one fleet's burst.
fn burst_metrics(burst: &Burst, setup_s: f64, peak_rss_mb: f64) -> [(&'static str, f64); 6] {
    let lat = burst.sorted_latencies();
    let ms = |q| percentile(&lat, q).map_or(f64::INFINITY, |ns| ns as f64 / 1e6);
    [
        ("setup_s", setup_s),
        (
            "sim_minstr_per_s",
            burst.instructions as f64 / burst.wall.as_secs_f64() / 1e6,
        ),
        ("req_per_s", burst.req_per_s()),
        ("latency_p50_ms", ms(0.50)),
        ("latency_p99_ms", ms(0.99)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// The untraced run: [`FLEETS`] fresh fleets, one after another, each
/// driven for an equal share of `seconds`; every metric is the median
/// over the fleets.
pub fn timed(
    mix: Mix,
    seed: u64,
    seconds: u64,
    bin: &Path,
    dir: &Path,
    placement: &Placement,
) -> Result<Outcome, String> {
    let specs = hot_specs(seed);
    let hot_lines: Vec<Vec<u8>> = specs.iter().map(framed).collect();
    let warm = (mix == Mix::Hot).then_some(&hot_lines[..]);
    let share = seconds as f64 / FLEETS as f64;
    let mut attempted = 0;
    let mut failed = 0;
    let mut per_fleet: Vec<[(&'static str, f64); 6]> = Vec::with_capacity(FLEETS);
    for fleet_no in 0..FLEETS as u64 {
        let (fleet, setup_s, warm_failed) = spawn_ready(bin, dir, placement, warm)?;
        failed += warm_failed;
        let conns = mix.connections(placement);
        let burst = match mix {
            Mix::Hot => {
                let source = HotSource {
                    lines: hot_lines.clone(),
                    seed: seed ^ fleet_no,
                };
                let burst = closed_loop(&fleet.router, conns, share, &source, false)?;
                failed += check_exactly_once(&fleet, HOT_KEYS as u64)?;
                failed += check_hot(&fleet, &specs, &hot_lines)?;
                attempted += HOT_KEYS as u64;
                burst
            }
            Mix::Miss => {
                let source = MissSource {
                    seed,
                    offset: fleet_no << 32,
                };
                let burst = closed_loop(&fleet.router, conns, share, &source, false)?;
                failed += check_exactly_once(&fleet, burst.attempted)?;
                failed += check_miss(&source, &burst.samples)?;
                burst
            }
        };
        attempted += burst.attempted;
        failed += burst.failed;
        let metrics = burst_metrics(&burst, setup_s, fleet.peak_rss_mb());
        eprintln!(
            "perfbench: fleet {}/{FLEETS}: {}",
            fleet_no + 1,
            metrics
                .iter()
                .map(|(n, v)| format!("{n}={v:.6}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        per_fleet.push(metrics);
        fleet.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut report = Report::default();
    for (i, &(name, _)) in per_fleet[0].iter().enumerate() {
        let values: Vec<f64> = per_fleet.iter().map(|m| m[i].1).collect();
        report.set(name, median(&values));
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
    })
}

// ---------------------------------------------------------------------------
// The traced pass.

/// Median host microseconds per call of `f` over `calls` calls.
fn median_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Median round trip of a ping to `addr`, in microseconds.
fn ping_rtt_us(addr: &str) -> Result<f64, String> {
    let mut c = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut bad = 0;
    let us = median_us(2000, |_| {
        if !c.call(PING_LINE).is_ok_and(|r| r.starts_with(OK_PREFIX)) {
            bad += 1;
        }
    });
    if bad > 0 {
        return Err(format!("{bad} pings failed"));
    }
    Ok(us)
}

/// The read side in-process: request parsing, key derivation, and the
/// router's hot path on a warmed key.
fn hot_layers(fleet: &Fleet, lines: &[Vec<u8>], r: &mut Report) -> Result<(), String> {
    let text: Vec<&str> = lines
        .iter()
        .map(|l| std::str::from_utf8(&l[..l.len() - 1]).expect("request lines are UTF-8"))
        .collect();
    let n = text.len();
    r.set(
        "serve_api.parse_request_us",
        median_us(LAYER_CALLS * 10, |i| {
            std::hint::black_box(parse_request(text[i % n]).is_ok());
        }),
    );
    let specs: Vec<JobSpec> = text
        .iter()
        .map(|l| match parse_request(l).map(|q| q.op) {
            Ok(RequestOp::Run(spec, _)) => Ok(*spec),
            _ => Err(format!("not a run request: {l}")),
        })
        .collect::<Result<_, _>>()?;
    r.set(
        "serve_api.cache_key_us",
        median_us(LAYER_CALLS * 10, |i| {
            std::hint::black_box(specs[i % n].cache_key());
        }),
    );
    let workers = fleet
        .workers
        .iter()
        .map(|w| Endpoint::Tcp(w.clone()))
        .collect();
    let router = Router::new(RouterConfig::new(workers))?;
    for l in &text {
        if !router
            .handle_request_line(l)
            .0
            .starts_with("{\"v\":1,\"status\":\"ok\"")
        {
            return Err("in-process router could not warm a key".to_owned());
        }
    }
    r.set(
        "router.handle_hot_us",
        median_us(LAYER_CALLS * 10, |i| {
            std::hint::black_box(router.handle_request_line(text[i % n]));
        }),
    );
    Ok(())
}

/// The write side in-process and one hop at a time: forward cost,
/// the worker's miss path, execution, the obs sink and the disk append.
/// Uses miss-stream keys from `first` on, which the fleet has not seen.
fn miss_layers(
    fleet: &Fleet,
    seed: u64,
    first: u64,
    dir: &Path,
    r: &mut Report,
) -> Result<u64, String> {
    let spec = |k: u64| miss_spec(seed, first + k);
    let n = LAYER_CALLS as u64;
    let mut failed = 0;

    // Through the router, then straight to the owning worker, one key at
    // a time; the difference is the forward hop.
    let mut via_router = Conn::open(&fleet.router).map_err(|e| e.to_string())?;
    let through = median_us(LAYER_CALLS, |i| {
        if !via_router
            .call(&framed(&spec(i as u64)))
            .is_ok_and(|r| r.starts_with(OK_PREFIX))
        {
            failed += 1;
        }
    });
    let endpoints: Vec<Endpoint> = fleet
        .workers
        .iter()
        .map(|w| Endpoint::Tcp(w.clone()))
        .collect();
    let ring = build_ring(&endpoints, RING_REPLICAS);
    let mut direct: Vec<ServeClient> = endpoints
        .iter()
        .map(|e| ServeClient::dial(e, &ClientTimeouts::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let straight = median_us(LAYER_CALLS, |i| {
        let s = spec(n + i as u64);
        let owner = route(&ring, s.cache_key());
        if !direct[owner]
            .request_line(&s.to_request_line(None, false))
            .is_ok_and(|r| r.starts_with("{\"v\":1,\"status\":\"ok\""))
        {
            failed += 1;
        }
    });
    r.set("router.forward_us", through - straight);

    // The worker core in-process: claim, queue, batch, execute, persist.
    let server = Arc::new(
        Server::try_new(ServeConfig {
            cache_dir: Some(dir.join("inproc-server")),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("in-process server: {e}"))?,
    );
    let dispatcher = server.spawn_dispatcher();
    r.set(
        "server.handle_miss_us",
        median_us(LAYER_CALLS, |i| {
            let line = spec(2 * n + i as u64).to_request_line(None, false);
            if !server
                .handle_request_line(&line)
                .0
                .starts_with("{\"v\":1,\"status\":\"ok\"")
            {
                failed += 1;
            }
        }),
    );
    server.close();
    let _ = dispatcher.join();

    // Execution as the worker does it, with and without the JSONL sink.
    let specs: Vec<JobSpec> = (0..n).map(|i| spec(3 * n + i)).collect();
    let mut records: Vec<(u64, String, String)> = Vec::with_capacity(specs.len());
    let mut with_sink = Vec::with_capacity(specs.len());
    let mut without = Vec::with_capacity(specs.len());
    let mut engine_new = Vec::with_capacity(specs.len());
    for s in &specs {
        let t = Instant::now();
        let plain = RunBuilder::new(&s.params)
            .technique(s.technique)
            .benchmark(s.benchmark, s.scale)
            .run()
            .map(|st| st.to_canonical_json());
        without.push(t.elapsed().as_nanos() as f64 / 1e3);

        let t = Instant::now();
        let label = format!("{}/{}", s.technique.name(), s.benchmark.name());
        let sink = Arc::new(JsonlSink::with_label(Vec::new(), Some(label)));
        let stats = RunBuilder::new(&s.params)
            .observer(Arc::clone(&sink) as Arc<dyn Observer>)
            .technique(s.technique)
            .benchmark(s.benchmark, s.scale)
            .run()
            .map(|st| st.to_canonical_json());
        let jsonl = sink.take();
        with_sink.push(t.elapsed().as_nanos() as f64 / 1e3);
        match (plain, stats) {
            (Ok(a), Ok(b)) if a == b => records.push((s.cache_key(), b, jsonl)),
            _ => failed += 1,
        }

        let cfg = s.params.engine_config(s.technique);
        let sched = s.technique.scheduler(cfg.system.num_cores);
        let workload = schedtask_kernel::WorkloadSpec::single(s.benchmark, s.scale);
        let t = Instant::now();
        let engine = Engine::new(cfg, &workload, sched);
        engine_new.push(t.elapsed().as_nanos() as f64 / 1e3);
        failed += u64::from(engine.is_err());
    }
    r.set("execute.job_us", median(&with_sink));
    r.set("kernel.engine_new_us", median(&engine_new));
    r.set("obs.jsonl_us", median(&with_sink) - median(&without));

    // The persist step with the real records.
    let (disk, _) = DiskCache::open(&dir.join("inproc-disk")).map_err(|e| format!("disk: {e}"))?;
    let mut bytes = 0u64;
    let append = median_us(records.len(), |i| {
        let (key, stats, jsonl) = &records[i];
        match disk.append(*key, stats, jsonl) {
            Ok(b) => bytes += b,
            Err(_) => failed += 1,
        }
    });
    r.set("disk.append_us", append);
    r.set(
        "disk.record_bytes",
        bytes as f64 / records.len().max(1) as f64,
    );
    Ok(failed)
}

/// The traced run: the untraced loop, the same loop with per-request
/// spans, then the per-layer measurements.
pub fn traced(
    mix: Mix,
    seed: u64,
    seconds: u64,
    bin: &Path,
    dir: &Path,
    placement: &Placement,
) -> Result<Outcome, String> {
    let specs = hot_specs(seed);
    let hot_lines: Vec<Vec<u8>> = specs.iter().map(framed).collect();
    let warm = (mix == Mix::Hot).then_some(&hot_lines[..]);
    let (fleet, _, warm_failed) = spawn_ready(bin, dir, placement, warm)?;
    let half = seconds as f64 / 2.0;
    let hot = HotSource {
        lines: hot_lines.clone(),
        seed,
    };
    let conns = mix.connections(placement);
    let mut failed = warm_failed;
    let (untraced, traced) = match mix {
        Mix::Hot => {
            let untraced = closed_loop(&fleet.router, conns, half, &hot, false)?;
            let traced = closed_loop(&fleet.router, conns, half, &hot, true)?;
            failed += check_hot(&fleet, &specs, &hot_lines)?;
            (untraced, traced)
        }
        Mix::Miss => {
            let first_source = MissSource { seed, offset: 0 };
            let first = closed_loop(&fleet.router, conns, half, &first_source, false)?;
            let second_source = MissSource {
                seed,
                offset: first.attempted,
            };
            let second = closed_loop(&fleet.router, conns, half, &second_source, true)?;
            failed += check_miss(&first_source, &first.samples)?;
            failed += check_miss(&second_source, &second.samples)?;
            (first, second)
        }
    };
    failed += untraced.failed + traced.failed;
    let mut attempted = untraced.attempted + traced.attempted;

    let mut r = Report::default();
    r.set(
        "trace.overhead_pct",
        (untraced.req_per_s() / traced.req_per_s() - 1.0) * 100.0,
    );
    r.set(
        "client.cpu_us_per_req",
        untraced.client_cpu_ns as f64 / 1e3 / untraced.attempted.max(1) as f64,
    );
    r.set("transport.ping_rtt_us", ping_rtt_us(&fleet.router)?);

    let sent_keys = match mix {
        Mix::Hot => {
            hot_layers(&fleet, &hot_lines, &mut r)?;
            HOT_KEYS as u64
        }
        Mix::Miss => {
            let first = untraced.attempted + traced.attempted;
            failed += miss_layers(&fleet, seed, first, dir, &mut r)?;
            attempted += 4 * LAYER_CALLS as u64;
            let costs = layers::replay(2, seed);
            r.set("workload.next_block_ns", costs.next_block_ns);
            r.set("sim.fetch_code_ns", costs.fetch_code_ns);
            r.set("sim.access_data_ns", costs.access_data_ns);
            r.set("sim.tlb_access_ns", costs.tlb_access_ns);
            r.set("sim.directory_ns", costs.directory_ns);
            r.set("sim.heatmap_insert_ns", costs.heatmap_insert_ns);
            r.set("kernel.event_queue_ns", costs.event_queue_ns);
            // Keys sent through the fleet: both loops plus the router and
            // direct-to-worker probes.
            first + 2 * LAYER_CALLS as u64
        }
    };

    let (per_key, stats) = executions_per_key(&fleet, sent_keys)?;
    if per_key != 1.0 {
        eprintln!("perfbench: fleet executed {per_key} times per distinct key, want exactly 1");
        failed += 1;
    }
    let hot_hits = counter(&stats, "counters", "serve_router_hot_hits");
    let routed = hot_hits
        + counter(&stats, "counters", "serve_router_forwarded")
        + counter(&stats, "counters", "serve_router_coalesced");
    r.set(
        "router.hot_hit_ratio",
        hot_hits as f64 / routed.max(1) as f64,
    );
    let executed = counter(&stats, "worker_counters", "serve_jobs_executed");
    if mix == Mix::Miss {
        r.set("serve.executions_per_key", per_key);
        r.set(
            "serve.exec_us_per_job",
            counter(&stats, "worker_counters", "serve_exec_micros") as f64 / executed.max(1) as f64,
        );
        r.set(
            "queue.jobs_per_batch",
            executed as f64 / counter(&stats, "worker_counters", "serve_batches").max(1) as f64,
        );
        let per_worker = fleet
            .workers
            .iter()
            .map(|w| Ok(counter(&fleet.stats(w)?, "counters", "serve_jobs_executed")))
            .collect::<Result<Vec<u64>, String>>()?;
        let max = per_worker.iter().copied().max().unwrap_or(0);
        r.set(
            "router.max_shard_share",
            max as f64 / executed.max(1) as f64,
        );
    }
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Outcome {
        attempted,
        failed,
        report: r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_miss_stream_never_repeats_a_key() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            let keys: HashSet<u64> = (0..20_000)
                .map(|k| miss_spec(seed, k).cache_key())
                .collect();
            assert_eq!(keys.len(), 20_000, "seed {seed}");
        }
        let hot: HashSet<u64> = hot_specs(3).iter().map(JobSpec::cache_key).collect();
        assert_eq!(hot.len(), HOT_KEYS);
    }

    #[test]
    fn streams_are_fixed_by_the_seed() {
        assert_eq!(miss_spec(9, 5), miss_spec(9, 5));
        assert_ne!(miss_spec(9, 5).cache_key(), miss_spec(10, 5).cache_key());
    }

    #[test]
    fn a_flipped_payload_byte_is_a_failed_operation() {
        let spec = miss_spec(1, 0);
        let (payload, instructions) = direct_result(&spec).expect("tiny job runs");
        assert!(instructions > 0);
        let mut flipped = payload.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        let flipped = String::from_utf8(flipped).expect("still UTF-8");
        let pairs = vec![
            (payload.clone(), Some(payload.clone())),
            (payload.clone(), Some(flipped)),
            (payload, None),
        ];
        assert_eq!(payload_mismatches(&pairs), 2);
    }

    #[test]
    fn payload_and_instructions_are_read_from_the_response() {
        let response = "{\"v\":1,\"status\":\"ok\",\"cached\":true,\"coalesced\":false,\
                        \"key\":\"00\",\"queue_depth\":0,\"latency_us\":3,\"result\":\
                        {\"instructions\":{\"application\":5,\"syscall\":6,\"interrupt\":1,\
                        \"bottom_half\":0,\"scheduler\":2},\"x\":[1]}}";
        assert_eq!(
            result_payload(response),
            Some(
                "{\"instructions\":{\"application\":5,\"syscall\":6,\"interrupt\":1,\
                 \"bottom_half\":0,\"scheduler\":2},\"x\":[1]}"
            )
        );
        assert_eq!(payload_instructions(response.as_bytes()), 14);
    }
}
