//! Serve *transport* benchmark: drives a live `sdd serve` instance over
//! loopback with pipelined `DIAG` traffic and reports request throughput
//! and latency percentiles at several client concurrency levels.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin serve_bench -- [options]
//!
//!   --requests <n>       requests per client (default: 500)
//!   --window <n>         pipeline depth per client (default: 8)
//!   --out <path>         where to write the JSON report (default: BENCH_serve.json)
//!   --deadline-secs <n>  watchdog: abort a wedged run (default: 120)
//!   --check <path>       validate an existing report instead of benchmarking;
//!                        exits non-zero if the file is missing or malformed
//! ```
//!
//! Each run starts a fresh server (2 workers, c17 same/different
//! dictionary), spawns N clients, and has every client keep a window of
//! pipelined requests in flight — latency is measured send-to-reply per
//! request, throughput over the whole run. The report is one JSON object:
//!
//! ```json
//! {"circuit":"c17","requests_per_client":500,"window":8,"workers":2,
//!  "available_parallelism":2,
//!  "runs":[
//!    {"concurrency":1,"reqs_per_s":52310.1,"p50_us":120,"p99_us":410},
//!    ...],
//!  "max_reqs_per_s":74891.0}
//! ```
//!
//! Throughput is host-dependent (`available_parallelism` is recorded next
//! to it), so the `--check` gate verifies shape and sanity only: all three
//! concurrency levels present, positive throughput, and `p99 >= p50`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use same_different::dict::Procedure1Options;
use same_different::serve::{serve, Client, ServeConfig};
use same_different::store::{save, StoredDictionary};
use same_different::Experiment;

/// Client fan-out levels the server is measured at.
const CONCURRENCY: &[usize] = &[1, 4, 16];

/// One measured run at one concurrency level.
struct Run {
    concurrency: usize,
    reqs_per_s: f64,
    p50_us: u64,
    p99_us: u64,
}

fn main() {
    let mut requests: usize = 500;
    let mut window: usize = 8;
    let mut out = "BENCH_serve.json".to_owned();
    let mut deadline_secs: u64 = 120;
    let mut check_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--requests n")
            }
            "--window" => {
                window = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--window n")
            }
            "--out" => out = args.next().expect("--out takes a path"),
            "--deadline-secs" => {
                deadline_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--deadline-secs n")
            }
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => {
                eprintln!("unknown option {other:?}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        match check(&path) {
            Ok(()) => println!("{path}: ok"),
            Err(err) => {
                eprintln!("{path}: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Watchdog: a wedged server turns into a nonzero exit, not a hang.
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(deadline_secs));
        eprintln!("serve_bench: deadline {deadline_secs}s exceeded — a run wedged");
        std::process::exit(2);
    });

    let window = window.max(1);
    let dir = std::env::temp_dir().join(format!("sdd-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (dict_path, observation) = fixture(&dir);

    let mut runs = Vec::new();
    for &concurrency in CONCURRENCY {
        let run = measure(concurrency, requests, window, &dict_path, &observation);
        eprintln!(
            "serve_bench: c={concurrency}: {:.0} req/s p50={}us p99={}us",
            run.reqs_per_s, run.p50_us, run.p99_us
        );
        runs.push(run);
    }
    let max = runs.iter().map(|r| r.reqs_per_s).fold(0.0, f64::max);

    let mut body = format!(
        "{{\"circuit\":\"c17\",\"requests_per_client\":{requests},\"window\":{window},\
         \"workers\":2,\"available_parallelism\":{},\"runs\":[",
        sdd_sim::available_jobs(),
    );
    for (index, run) in runs.iter().enumerate() {
        if index > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"concurrency\":{},\"reqs_per_s\":{:.1},\"p50_us\":{},\"p99_us\":{}}}",
            run.concurrency, run.reqs_per_s, run.p50_us, run.p99_us
        ));
    }
    body.push_str(&format!("],\"max_reqs_per_s\":{max:.1}}}"));
    std::fs::write(&out, format!("{body}\n")).expect("write report");
    println!("{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds the c17 fixture once: a saved `.sddb` and one injected-fault
/// observation string for the `DIAG` traffic.
fn fixture(dir: &std::path::Path) -> (std::path::PathBuf, String) {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let suite = exp.build_dictionaries(
        &tests,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    let path = dir.join("c17.sddb");
    save(
        &path,
        &StoredDictionary::SameDifferent(suite.same_different),
    )
    .expect("save dictionary");
    let fault = exp.universe().fault(exp.faults()[3]);
    let observation: Vec<String> = tests
        .iter()
        .map(|t| {
            same_different::sim::reference::faulty_response(exp.circuit(), exp.view(), fault, t)
                .to_string()
        })
        .collect();
    (path, observation.join("/"))
}

/// One benchmark run: fresh server, `concurrency` clients, each keeping
/// `window` pipelined requests in flight until it has `requests` replies.
fn measure(
    concurrency: usize,
    requests: usize,
    window: usize,
    dict_path: &std::path::Path,
    observation: &str,
) -> Run {
    let handle = serve(&ServeConfig {
        workers: 2,
        max_connections: concurrency + 8,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    let addr = handle.addr();
    let mut control = Client::connect(addr).expect("connect control client");
    let reply = control
        .request(&format!("LOAD c17 {}", dict_path.display()))
        .expect("LOAD request");
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..concurrency)
            .map(|_| scope.spawn(move || client_loop(addr, requests, window, observation)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    assert_eq!(control.request("SHUTDOWN").expect("SHUTDOWN"), "OK BYE");
    handle.wait();

    latencies.sort_unstable();
    let total = latencies.len();
    let percentile = |p: f64| -> u64 {
        let index = ((total as f64) * p).ceil() as usize;
        latencies[index.clamp(1, total) - 1]
    };
    Run {
        concurrency,
        reqs_per_s: total as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

/// One client: keeps up to `window` `DIAG` requests on the wire, records
/// send-to-reply latency for each, returns the latencies in microseconds.
fn client_loop(
    addr: std::net::SocketAddr,
    requests: usize,
    window: usize,
    observation: &str,
) -> Vec<u64> {
    let stream = TcpStream::connect(addr).expect("connect bench client");
    stream.set_nodelay(true).expect("set nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let request = format!("DIAG c17 {observation}\n");
    let mut latencies = Vec::with_capacity(requests);
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut sent = 0usize;
    let mut line = String::new();
    while latencies.len() < requests {
        if sent < requests && in_flight.len() < window {
            // Top the window up in one send so the burst actually
            // pipelines instead of trickling a request at a time.
            let batch = (requests - sent).min(window - in_flight.len());
            let burst = request.repeat(batch);
            (&stream).write_all(burst.as_bytes()).expect("send burst");
            for _ in 0..batch {
                in_flight.push_back(Instant::now());
            }
            sent += batch;
            continue;
        }
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read reply") > 0,
            "server hung up mid-run"
        );
        let issued = in_flight.pop_front().expect("reply without a request");
        assert!(line.starts_with("OK DIAG "), "{line}");
        latencies.push(u64::try_from(issued.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    latencies
}

/// Validates a report written by a previous run: every concurrency level
/// measured, positive throughput, and `p99 >= p50` per run.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("unreadable: {err}"))?;
    let body = text.trim();
    if !(body.starts_with('{') && body.ends_with('}')) {
        return Err("not a JSON object".to_owned());
    }
    for &concurrency in CONCURRENCY {
        let prefix = format!("{{\"concurrency\":{concurrency},");
        let start = body
            .find(&prefix)
            .ok_or_else(|| format!("missing run c={concurrency}"))?;
        let run = &body[start..];
        let run = &run[..run.find('}').map_or(run.len(), |i| i + 1)];
        let number = |key: &str| -> Result<f64, String> {
            field(run, key)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("run c={concurrency}: bad {key:?}"))
        };
        if number("reqs_per_s")? <= 0.0 {
            return Err(format!("run c={concurrency}: zero throughput"));
        }
        if number("p99_us")? < number("p50_us")? {
            return Err(format!("run c={concurrency}: p99 < p50"));
        }
    }
    Ok(())
}

/// Extracts the raw value text after `"key":` up to the next top-level
/// delimiter. Sufficient for the flat objects this binary writes.
fn field<'t>(body: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = if let Some(tail) = rest.strip_prefix('"') {
        tail.find('"')? + 2
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim())
}
