//! Client/server smoke test over loopback: a real c17 same/different
//! dictionary served over TCP must return exactly the ranked candidates the
//! in-process masked diagnosis produces, and `BATCH`, `STATS`, and
//! `SHUTDOWN` must behave as the protocol promises.

use same_different::dict::Procedure1Options;
use same_different::logic::MaskedBitVec;
use same_different::serve::{serve, Client, ServeConfig};
use same_different::sim::reference;
use same_different::store::{save, StoredDictionary};
use same_different::Experiment;

/// Builds the c17 fixture: the experiment, its diagnostic tests, and the
/// same/different dictionary saved as a binary `.sddb` file.
fn fixture(
    dir: &std::path::Path,
) -> (
    Experiment,
    Vec<same_different::logic::BitVec>,
    std::path::PathBuf,
) {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let suite = exp.build_dictionaries(
        &tests,
        &Procedure1Options {
            calls1: 3,
            ..Default::default()
        },
    );
    let path = dir.join("c17.sddb");
    save(
        &path,
        &StoredDictionary::SameDifferent(suite.same_different),
    )
    .unwrap();
    (exp, tests, path)
}

/// The observation a tester would log for `fault`, with the output bit of
/// every third test lost to datalog corruption — ternary, slash-separated.
fn masked_observation(
    exp: &Experiment,
    tests: &[same_different::logic::BitVec],
    fault_position: usize,
) -> (String, Vec<MaskedBitVec>) {
    let fault = exp.universe().fault(exp.faults()[fault_position]);
    let mut tokens = Vec::new();
    let mut parsed = Vec::new();
    for (t, test) in tests.iter().enumerate() {
        let response = reference::faulty_response(exp.circuit(), exp.view(), fault, test);
        let mut token = response.to_string();
        if t % 3 == 0 {
            token.replace_range(0..1, "X");
        }
        parsed.push(token.parse().unwrap());
        tokens.push(token);
    }
    (tokens.join("/"), parsed)
}

#[test]
fn served_diagnosis_matches_in_process_diagnosis() {
    let dir = std::env::temp_dir().join(format!("sdd-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (exp, tests, dict_path) = fixture(&dir);
    let dictionary = same_different::store::load_same_different(&dict_path).unwrap();

    let handle = serve(&ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(&format!("LOAD c17 {}", dict_path.display()))
        .unwrap();
    assert!(
        reply.starts_with("OK LOADED c17 kind=same-different"),
        "{reply}"
    );

    // Every fault's masked observation diagnoses identically over the wire
    // and in process.
    for fault in 0..exp.faults().len() {
        let (obs, responses) = masked_observation(&exp, &tests, fault);
        let expected = dictionary.diagnose_masked(&responses).unwrap();
        let reply = client.request(&format!("DIAG c17 {obs}")).unwrap();
        let best: Vec<String> = expected.best.iter().map(usize::to_string).collect();
        assert!(reply.starts_with("OK DIAG "), "{reply}");
        assert!(
            reply.contains(&format!("best={}", best.join(","))),
            "fault {fault}: {reply} vs {:?}",
            expected.best
        );
        assert!(
            reply.contains(&format!("distance={}", expected.distance())),
            "fault {fault}: {reply}"
        );
        assert!(
            reply.contains(&format!("known={}", expected.known)),
            "fault {fault}: {reply}"
        );
        // The injected fault explains every surviving bit of its own
        // datalog, so it must appear among the best candidates.
        assert!(expected.best.contains(&fault), "fault {fault} not best");
    }

    // BATCH returns one counted result line per observation, in order.
    let (obs_a, resp_a) = masked_observation(&exp, &tests, 0);
    let (obs_b, resp_b) = masked_observation(&exp, &tests, 1);
    let results = client.batch("c17", &[&obs_a, &obs_b]).unwrap();
    assert_eq!(results.len(), 2);
    for (index, (line, responses)) in results.iter().zip([&resp_a, &resp_b]).enumerate() {
        let expected = dictionary.diagnose_masked(responses).unwrap();
        assert!(line.starts_with(&format!("{index} OK DIAG ")), "{line}");
        let best: Vec<String> = expected.best.iter().map(usize::to_string).collect();
        assert!(line.contains(&format!("best={}", best.join(","))), "{line}");
    }

    // Errors are replies, not dropped connections.
    let reply = client.request("DIAG nosuch 01/10").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    let reply = client.request("NONSENSE").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");

    // STATS reflects the provisioning and the traffic this test generated,
    // including the per-dictionary residency entry with its byte-ownership
    // mode: under the default auto mmap mode a binary dictionary serves
    // from a mapped image (decoded bytes counted separately), elsewhere it
    // is an owned in-heap copy.
    let stats = client.request("STATS").unwrap();
    assert!(stats.starts_with("OK STATS workers=2 dicts=1 "), "{stats}");
    assert!(stats.contains("evictions=0"), "{stats}");
    assert!(stats.contains(" mapped="), "{stats}");
    assert!(stats.contains(" dict=c17:"), "{stats}");
    if sdd_store::mmap_supported() {
        assert!(stats.contains(":mode=mapped:"), "{stats}");
        assert!(!stats.contains(":mapped=0"), "{stats}");
    } else {
        assert!(stats.contains(":mode=owned:"), "{stats}");
        assert!(stats.contains(":mapped=0"), "{stats}");
    }

    // SHUTDOWN acknowledges, then the server drains and releases the port.
    let reply = client.request("SHUTDOWN").unwrap();
    assert_eq!(reply, "OK BYE");
    handle.wait();
    assert!(
        std::net::TcpListener::bind(addr).is_ok(),
        "port released after drain"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_edge_cases_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("sdd-serve-edge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (exp, tests, dict_path) = fixture(&dir);

    let handle = serve(&ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // LOAD of a nonexistent path reports the I/O failure, keeps serving.
    let reply = client
        .request(&format!(
            "LOAD ghost {}",
            dir.join("missing.sddb").display()
        ))
        .unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");

    let reply = client
        .request(&format!("LOAD c17 {}", dict_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    // An empty BATCH body is a malformed request, not `OK BATCH 0`.
    let reply = client.request("BATCH c17").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("empty batch"), "{reply}");

    // Observation shape mismatches come back typed: wrong response count,
    // wrong response width, and a bare signature where responses belong.
    let (good_obs, _) = masked_observation(&exp, &tests, 0);
    let truncated = good_obs.rsplit_once('/').unwrap().0;
    for bad in [truncated, "011/10", "01"] {
        let reply = client.request(&format!("DIAG c17 {bad}")).unwrap();
        assert!(reply.starts_with("ERR "), "{bad:?}: {reply}");
    }

    // The connection survived every error above.
    let reply = client.request(&format!("DIAG c17 {good_obs}")).unwrap();
    assert!(reply.starts_with("OK DIAG "), "{reply}");

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_fault_full_dictionary_answers_err_not_exact() {
    let dir = std::env::temp_dir().join(format!("sdd-serve-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Two tests, two outputs, no faults at all.
    let good: Vec<same_different::logic::BitVec> =
        vec!["01".parse().unwrap(), "10".parse().unwrap()];
    let matrix = same_different::sim::ResponseMatrix::from_responses(good, &[vec![], vec![]]);
    let path = dir.join("empty.sddb");
    let stored = StoredDictionary::Full(same_different::dict::FullDictionary::new(matrix));
    save(&path, &stored).unwrap();
    assert_eq!(same_different::store::load(&path).unwrap(), stored);

    let handle = serve(&ServeConfig {
        workers: 1,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD empty {}", path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");
    // Four known bits and nothing to match them against: an error, never
    // an exact match with an empty best set.
    let reply = client.request("DIAG empty 01/10").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("empty"), "{reply}");

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicked_request_does_not_wedge_the_server() {
    // Opt into the deliberate-panic verb for this test binary.
    std::env::set_var("SDD_SERVE_TEST_PANIC", "1");
    let dir = std::env::temp_dir().join(format!("sdd-serve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (exp, tests, dict_path) = fixture(&dir);

    let handle = serve(&ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD c17 {}", dict_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    // The panicking request is answered with a typed error...
    let reply = client.request("PANIC").unwrap();
    assert_eq!(reply, "ERR internal error: request panicked");

    // ...and both this connection and fresh ones keep working afterwards.
    let (obs, _) = masked_observation(&exp, &tests, 1);
    let reply = client.request(&format!("DIAG c17 {obs}")).unwrap();
    assert!(reply.starts_with("OK DIAG "), "{reply}");
    let stats = client.request("STATS").unwrap();
    assert!(stats.starts_with("OK STATS "), "{stats}");

    let mut fresh = Client::connect(handle.addr()).unwrap();
    let reply = fresh.request("PANIC").unwrap();
    assert_eq!(reply, "ERR internal error: request panicked");
    let stats = fresh.request("STATS").unwrap();
    assert!(stats.contains(" dict=c17:"), "{stats}");

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let dir = std::env::temp_dir().join(format!("sdd-serve-conc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (exp, tests, dict_path) = fixture(&dir);

    let handle = serve(&ServeConfig {
        workers: 4,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();
    let reply = setup
        .request(&format!("LOAD c17 {}", dict_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    let (obs, _) = masked_observation(&exp, &tests, 2);
    let answers: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let obs = obs.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut last = String::new();
                    for _ in 0..16 {
                        last = client.request(&format!("DIAG c17 {obs}")).unwrap();
                    }
                    last
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(answers.iter().all(|a| a == &answers[0]), "{answers:?}");
    assert!(answers[0].starts_with("OK DIAG "), "{}", answers[0]);

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
