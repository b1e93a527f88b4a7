//! The `serve-s953` and `serve-c17` workloads: a bare `sdd serve` process
//! on loopback, driven closed-loop by two client connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use same_different::Experiment;

use crate::fixtures::{self, Expected};
use crate::report::{self, median, quantile, Digest, Outcome};
use crate::trace::{self, Trace, OP};
use crate::Args;

/// Which dictionary a serve workload holds, and how its clients drive it.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// Full set-ups per run; `setup_s` is their median. The s953 set-up
    /// spends ~4 s in ATPG; c17's takes milliseconds, mostly the server's
    /// start, so it needs more repetitions for a steady median.
    pub setups: usize,
}

pub const S953: ServeSpec = ServeSpec {
    name: "s953",
    window: 1,
    setups: 2,
};
pub const C17: ServeSpec = ServeSpec {
    name: "c17",
    window: 8,
    setups: 9,
};

/// Client connections (and threads), at most the host's core count.
const CLIENTS: usize = 2;
/// Observations in the seeded pool the clients cycle through.
const POOL: usize = 2048;
/// Pool observations replayed in-process for the parse/encode/score probes.
const PROBES: usize = 256;
/// Clean injected-fault observations diagnosed after the window for
/// `resolution`.
pub const QUALITY: usize = 1024;
/// Seed salt separating the quality set from the load pool.
pub const QUALITY_SALT: u64 = 0x51_7A11;
/// The traced run alternates untraced and traced stretches of this length.
const SLICE: Duration = Duration::from_millis(250);

fn experiment(spec: ServeSpec) -> Experiment {
    match spec.name {
        "s953" => Experiment::iscas89("s953", 1).expect("s953 is a known profile"),
        _ => Experiment::new(same_different::netlist::library::c17()),
    }
}

/// A running `sdd serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `sdd serve` with no options and waits for its
    /// `listening on <addr>` line.
    pub fn spawn(sdd: &Path) -> Result<Self, String> {
        let mut child = Command::new(sdd)
            .arg("serve")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sdd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("sdd serve did not report an address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SHUTDOWN` over the protocol, then reaps the process (killing it if
    /// it has not drained within five seconds).
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::connect(self.addr)
            .and_then(|mut c| c.request("SHUTDOWN"))
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return if reply == "OK BYE" {
                    Ok(())
                } else {
                    Err(format!("SHUTDOWN replied {reply:?}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not exit after SHUTDOWN".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One blocking protocol connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_owned())
    }
}

/// `key=value` out of a reply line.
pub fn field<'r>(reply: &'r str, key: &str) -> Option<&'r str> {
    reply
        .split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// Does a `DIAG` reply carry exactly the expected `quality=`, `distance=`,
/// and `best=`?
pub fn reply_matches(reply: &str, expected: &Expected) -> bool {
    let best: Vec<String> = expected.best.iter().map(usize::to_string).collect();
    reply.starts_with("OK DIAG ")
        && field(reply, "quality") == Some(expected.quality)
        && field(reply, "distance") == Some(expected.distance.to_string().as_str())
        && field(reply, "best") == Some(best.join(",").as_str())
}

/// One pool entry: the injected fault, the `DIAG` request line, and the
/// reference answer.
pub struct Request {
    pub fault: usize,
    pub line: String,
    pub expected: Expected,
}

/// A seeded set of `DIAG` requests for `size` drawn faults: under the
/// tester-noise model when `noisy`, else the faults' clean responses.
pub fn pool(
    built: &fixtures::Built,
    spec: ServeSpec,
    seed: u64,
    size: usize,
    noisy: bool,
) -> Result<Vec<Request>, String> {
    let faults = fixtures::draw_faults(seed, built.matrix.fault_count(), size);
    faults
        .iter()
        .enumerate()
        .map(|(index, &fault)| {
            let noise = noisy.then(|| fixtures::noise_seed(seed, index));
            let text = fixtures::observation(&built.matrix, fault, noise);
            let expected =
                fixtures::reference(&built.dictionary, &text).map_err(|e| e.to_string())?;
            Ok(Request {
                fault,
                line: format!("DIAG {} {text}\n", spec.name),
                expected,
            })
        })
        .collect()
}

/// What one client connection measured.
struct ClientRun {
    /// Send-to-reply seconds of requests sent in untraced stretches.
    untraced: Vec<f64>,
    /// ... and in traced stretches.
    traced: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Pool entries answered (and checked) at least once.
    served: Vec<bool>,
    last_reply: Instant,
    /// Replies completed in each whole second since `start`.
    per_second: Vec<u64>,
    trace: Trace,
}

/// One closed-loop client: keeps `window` requests on the wire, topping the
/// window up in one write as replies arrive, until `stop`; then drains.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    window: usize,
    start: Instant,
    stop: Instant,
    traced_run: bool,
    thread: u32,
) -> ClientRun {
    let mut run = ClientRun {
        untraced: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        served: vec![false; requests.len()],
        last_reply: start,
        per_second: Vec::new(),
        trace: Trace::new(false, start, thread),
    };
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("perfbench: client connect: {e}");
            run.attempted = 1;
            run.failed = 1;
            return run;
        }
    };
    let mut in_flight: VecDeque<(usize, Instant, bool)> = VecDeque::with_capacity(window);
    let mut next = first;
    let mut op = u64::from(thread) << 40;
    let mut burst = String::new();
    loop {
        let now = Instant::now();
        if now < stop && in_flight.len() < window {
            let traced =
                traced_run && (now.duration_since(start).as_nanos() / SLICE.as_nanos()) % 2 == 1;
            burst.clear();
            let batch = window - in_flight.len();
            let sent = Instant::now();
            for _ in 0..batch {
                burst.push_str(&requests[next].line);
                in_flight.push_back((next, sent, traced));
                next = (next + 1) % requests.len();
            }
            if let Err(e) = conn.stream.write_all(burst.as_bytes()) {
                eprintln!("perfbench: send: {e}");
                run.attempted += in_flight.len() as u64;
                run.failed += in_flight.len() as u64;
                return run;
            }
            continue;
        }
        let Some((index, sent, traced)) = in_flight.pop_front() else {
            break;
        };
        run.attempted += 1;
        let reply = conn.read_line();
        let replied = Instant::now();
        run.last_reply = replied;
        let second = replied.duration_since(start).as_secs() as usize;
        if run.per_second.len() <= second {
            run.per_second.resize(second + 1, 0);
        }
        run.per_second[second] += 1;
        let ok = match &reply {
            Ok(line) => reply_matches(line, &requests[index].expected),
            Err(_) => false,
        };
        let done = Instant::now();
        if !ok {
            run.failed += 1;
            eprintln!(
                "perfbench: DIAG reply mismatch for pool entry {index}: {:?}",
                reply
                    .as_ref()
                    .map(|r| r.chars().take(160).collect::<String>())
            );
            if reply.is_err() {
                run.attempted += in_flight.len() as u64;
                run.failed += in_flight.len() as u64;
                return run;
            }
        }
        run.served[index] |= ok;
        let latency = replied.duration_since(sent).as_secs_f64();
        if traced {
            run.traced.push(latency);
            op += 1;
            run.trace.set_on(true);
            let root = run.trace.record(OP, op, None, sent, done);
            run.trace.record("serve.roundtrip", op, root, sent, replied);
            run.trace.set_on(false);
        } else {
            run.untraced.push(latency);
        }
    }
    run
}

/// User plus system CPU seconds `pid` has used, from `/proc/<pid>/stat`
/// (in `USER_HZ` ticks, which Linux fixes at 100 per second).
fn cpu_secs(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split(' ').collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Counters from one `STATS` reply.
fn stats(addr: SocketAddr) -> Result<Vec<(&'static str, f64)>, String> {
    let reply = Conn::connect(addr)
        .and_then(|mut c| c.request("STATS"))
        .map_err(|e| format!("STATS: {e}"))?;
    [
        "diags",
        "pipelined",
        "wakeups",
        "backpressure_stalls",
        "busy",
    ]
    .iter()
    .map(|&key| {
        field(&reply, key)
            .and_then(|v| v.parse().ok())
            .map(|v| (key, v))
            .ok_or_else(|| format!("STATS reply lacks {key}: {reply}"))
    })
    .collect()
}

/// Everything one full set-up leaves running.
struct Setup {
    exp: Experiment,
    tests: Vec<sdd_logic::BitVec>,
    built: fixtures::Built,
    server: Server,
    secs: f64,
}

/// ATPG → dictionary build → commit → `sdd serve` → `LOAD` → first `DIAG`.
fn set_up(spec: ServeSpec, args: &Args, trace: &mut Trace, rep: usize) -> Result<Setup, String> {
    let start = Instant::now();
    let exp = experiment(spec);
    let tests = trace
        .time("atpg.tests", 0, None, || {
            exp.diagnostic_tests(&sdd_atpg::AtpgOptions::default())
        })
        .tests;
    let built = fixtures::build_dictionary(&exp, &tests, trace, 0, None);
    let path: PathBuf = args.work.join(format!("{}-{rep}.sddb", spec.name));
    trace
        .time("store.commit", 0, None, || {
            sdd_store::atomic_write(&path, &built.bytes)
        })
        .map_err(|e| format!("commit {}: {e}", path.display()))?;
    let server = Server::spawn(&args.sdd)?;
    let open = Instant::now();
    let mut control = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let loaded = control
        .request(&format!("LOAD {} {}", spec.name, path.display()))
        .map_err(|e| format!("LOAD: {e}"))?;
    if !loaded.starts_with("OK LOADED") {
        return Err(format!("LOAD replied {loaded:?}"));
    }
    // Mapped loads decode on first use: the first DIAG is part of set-up.
    let clean = fixtures::observation(&built.matrix, 0, None);
    let first = control
        .request(&format!("DIAG {} {clean}", spec.name))
        .map_err(|e| format!("first DIAG: {e}"))?;
    if !first.starts_with("OK DIAG") {
        return Err(format!("first DIAG replied {first:?}"));
    }
    trace.record("store.open", 0, None, open, Instant::now());
    Ok(Setup {
        exp,
        tests,
        built,
        server,
        secs: start.elapsed().as_secs_f64(),
    })
}

pub fn run(spec: ServeSpec, args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut trace = Trace::new(args.trace, epoch, 99);
    let mut setup_secs = Vec::with_capacity(spec.setups);
    let mut kept = None;
    for rep in 0..spec.setups {
        let setup = set_up(spec, args, &mut trace, rep)?;
        setup_secs.push(setup.secs);
        if let Some(previous) = kept.replace(setup) {
            let Setup { server, .. } = previous;
            server.shutdown()?;
        }
    }
    let Setup {
        exp,
        tests,
        built,
        server,
        ..
    } = kept.expect("at least one set-up");

    let mut out = Outcome::default();
    let requests = pool(&built, spec, args.seed, POOL, true)?;
    let quality = pool(&built, spec, args.seed ^ QUALITY_SALT, QUALITY, false)?;
    let faults = built.matrix.fault_count();
    out.shape("faults", faults);
    out.shape("tests", tests.len());
    out.shape("outputs", exp.view().outputs().len());
    out.shape("dictionary_bytes", built.bytes.len());
    out.shape(
        "observation_bytes",
        requests.iter().map(|r| r.line.len()).sum::<usize>() / requests.len(),
    );
    out.shape("pool", requests.len());
    out.shape("tests_digest", fixtures::tests_digest(&tests));
    out.shape(
        "observations_digest",
        Digest::of(requests.iter().chain(&quality).map(|r| r.line.as_bytes())),
    );

    let before = stats(server.addr)?;
    let cpu_before = cpu_secs(server.pid());
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(args.seconds);
    let addr = server.addr;
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let requests = &requests;
                let first = c * requests.len() / CLIENTS;
                scope.spawn(move || {
                    client(
                        addr,
                        requests,
                        first,
                        spec.window,
                        start,
                        stop,
                        args.trace,
                        c as u32,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_window = cpu_secs(server.pid()) - cpu_before;
    let after = stats(server.addr)?;
    // Resolution: the clean quality set, one request at a time.
    let mut resolution = 0.0;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for request in &quality {
        let reply = conn.request(request.line.trim_end());
        let ok = reply
            .as_ref()
            .is_ok_and(|r| reply_matches(r, &request.expected));
        out.check(ok, || {
            format!("quality DIAG for fault {}: {reply:?}", request.fault)
        });
        if ok {
            resolution += request.expected.credit(request.fault);
        }
    }
    let resolution = resolution / quality.len() as f64;
    drop(conn);
    let peak_rss = report::peak_rss_mb(Some(server.pid()));
    server.shutdown()?;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut served = vec![false; requests.len()];
    let mut last = start;
    // Whole seconds inside the window; the drain after `stop` is left out.
    let mut per_second = vec![0.0; args.seconds as usize];
    let mut traces = vec![trace];
    for run in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        untraced.extend(run.untraced);
        traced.extend(run.traced);
        for (s, r) in served.iter_mut().zip(&run.served) {
            *s |= *r;
        }
        last = last.max(run.last_reply);
        for (total, &count) in per_second.iter_mut().zip(&run.per_second) {
            *total += count as f64;
        }
        traces.push(run.trace);
    }
    let replies = (untraced.len() + traced.len()) as f64;
    let window = last.duration_since(start).as_secs_f64();
    let p50 = median(&untraced);
    let p99 = quantile(&untraced, 0.99);

    // Hit rate over every pool entry the server answered (checked equal to
    // the reference, so the reference's best sets are the server's).
    let answered: Vec<&Request> = requests
        .iter()
        .zip(&served)
        .filter_map(|(r, &s)| s.then_some(r))
        .collect();
    let hits = answered
        .iter()
        .filter(|r| r.expected.best.contains(&r.fault))
        .count();

    let m = &mut out.metrics;
    m.put("setup_s", median(&setup_secs), "s");
    m.put("peak_rss_mb", peak_rss, "MB");
    // The median second, so a stall of a few seconds does not set the
    // figure; `diag_per_s` is the mean over the window.
    let ops_per_s = if per_second.is_empty() {
        replies / window
    } else {
        median(&per_second)
    };
    m.put("ops_per_s", ops_per_s, "1/s");
    m.put("op_p50_ms", p50 * 1e3, "ms");
    m.put("resolution", resolution, "share");
    m.put("diag_per_s", replies / window, "1/s");
    m.put("diag_p50_us", p50 * 1e6, "us");
    m.put("diag_p99_us", p99 * 1e6, "us");
    m.put("diag_samples", untraced.len() as f64, "count");
    m.put(
        "hit_rate",
        hits as f64 / answered.len().max(1) as f64,
        "share",
    );
    m.put("pool_answered", answered.len() as f64, "count");
    m.put("serve.cpu_us_per_diag", cpu_window * 1e6 / replies, "us");
    let delta = |key: &str| {
        let get = |s: &[(&str, f64)]| s.iter().find(|(k, _)| *k == key).map_or(0.0, |(_, v)| *v);
        get(&after) - get(&before)
    };
    let diags = delta("diags").max(1.0);
    for key in ["pipelined", "wakeups", "backpressure_stalls", "busy"] {
        m.put(
            format!("serve.{key}_per_1k"),
            delta(key) * 1e3 / diags,
            "count",
        );
    }

    if args.trace {
        let mut probe_trace = Trace::new(true, epoch, 98);
        probe_trace.time("sim.simulate_jobs1", 0, None, || {
            exp.simulate_jobs(&tests, 1)
        });
        for request in requests.iter().take(PROBES) {
            let text = request.line.trim_end().splitn(3, ' ').nth(2).unwrap_or("");
            let probed = fixtures::probe(&built.dictionary, text, &mut probe_trace);
            out.check(probed.as_ref() == Ok(&request.expected), || {
                format!(
                    "in-process probe disagrees with the reference for fault {}",
                    request.fault
                )
            });
        }
        traces.push(probe_trace);
        out.spans = trace::merge(traces);
        let stats = trace::summarize(&out.spans);
        let m = &mut out.metrics;
        report::common_layer_metrics(m, &stats, faults);
        m.put("core.p1_calls", built.p1_calls as f64, "count");
        m.put("trace_overhead", median(&traced) / p50, "ratio");
        m.put("op.p99_ms", p99 * 1e3, "ms");
        let inside: f64 = ["logic.parse_us", "core.encode_observed_us", "core.score_us"]
            .iter()
            .map(|n| m.get(n).map_or(0.0, |x| x.value))
            .sum();
        m.put("serve.other_us", p50 * 1e6 - inside, "us");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// The c17 dictionary, built as the workload builds it.
    fn c17() -> fixtures::Built {
        let exp = experiment(C17);
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        fixtures::build_dictionary(
            &exp,
            &tests,
            &mut Trace::new(false, Instant::now(), 0),
            0,
            None,
        )
    }

    fn digest(requests: &[Request]) -> String {
        Digest::of(requests.iter().map(|r| r.line.as_bytes()))
    }

    #[test]
    fn pool_digest_follows_the_seed() {
        let built = c17();
        let a = digest(&pool(&built, C17, 7, 64, true).unwrap());
        assert_eq!(a, digest(&pool(&built, C17, 7, 64, true).unwrap()));
        assert_ne!(a, digest(&pool(&built, C17, 8, 64, true).unwrap()));
        assert_ne!(a, digest(&pool(&built, C17, 7, 64, false).unwrap()));
    }

    /// Runs one client for `millis` against `addr`.
    fn drive(addr: SocketAddr, requests: &[Request], window: usize, millis: u64) -> ClientRun {
        let start = Instant::now();
        let stop = start + Duration::from_millis(millis);
        client(addr, requests, 0, window, start, stop, false, 0)
    }

    #[test]
    fn held_out_seed_passes_every_check_against_a_live_server() {
        let built = c17();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::atomic_write(&path, &built.bytes).unwrap();
        let server = same_different::serve::serve(&Default::default()).unwrap();
        let mut control = Conn::connect(server.addr()).unwrap();
        let loaded = control
            .request(&format!("LOAD c17 {}", path.display()))
            .unwrap();
        assert!(loaded.starts_with("OK LOADED"), "{loaded}");
        for (noisy, window) in [(true, 8), (false, 1)] {
            let requests = pool(&built, C17, 0x00C0_FFEE, 256, noisy).unwrap();
            let run = drive(server.addr(), &requests, window, 300);
            assert!(run.attempted > 0);
            assert_eq!(run.failed, 0);
        }
        assert_eq!(control.request("SHUTDOWN").unwrap(), "OK BYE");
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_replies_are_counted_as_failed() {
        let built = c17();
        let requests = pool(&built, C17, 3, 32, false).unwrap();
        // A server that answers every DIAG with an empty best set.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut pending = 0usize;
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                pending += buf[..n].iter().filter(|&&b| b == b'\n').count();
                let replies =
                    "OK DIAG quality=exact known=9 distance=0 best= top=\n".repeat(pending);
                pending = 0;
                if stream.write_all(replies.as_bytes()).is_err() {
                    break;
                }
            }
        });
        let run = drive(addr, &requests, 4, 100);
        assert!(run.attempted > 0);
        assert_eq!(run.failed, run.attempted);
        drop(run);
        fake.join().unwrap();
    }

    fn expected() -> Expected {
        Expected {
            quality: "ranked",
            distance: 2,
            best: vec![3, 17],
        }
    }

    #[test]
    fn matching_reply_passes() {
        let reply = "OK DIAG quality=ranked known=40 distance=2 best=3,17 top=3:2:0.9,17:2:0.9";
        assert!(reply_matches(reply, &expected()));
    }

    #[test]
    fn corrupted_replies_fail() {
        for reply in [
            "OK DIAG quality=ranked known=40 distance=2 best=3 top=3:2:0.9",
            "OK DIAG quality=ranked known=40 distance=1 best=3,17 top=3:1:0.9",
            "OK DIAG quality=exact known=40 distance=2 best=3,17 top=3:2:0.9",
            "PARTIAL DIAG quality=ranked known=40 distance=2 best=3,17 top=",
            "ERR no dictionary loaded as \"s953\"",
            "",
        ] {
            assert!(!reply_matches(reply, &expected()), "{reply}");
        }
    }
}
