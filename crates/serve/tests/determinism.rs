//! The service's determinism contract, end to end: concurrent sessions
//! produce byte-identical reply transcripts to a serial run of the same
//! per-session request sequences, on every servable engine, including
//! coverage maps, engine metrics and the deterministic-mode server
//! metrics.

use scflow::prelude::ServeOptions;
use scflow_serve::Server;

const ENGINES: [&str; 5] = [
    "rtl.interpreted",
    "rtl.compiled",
    "rtl.bitpar",
    "gate.event",
    "gate.bitpar",
];

fn open(server: &Server, design: &str, engine: &str) -> String {
    let reply = server.handle_line(&format!(
        r#"{{"id":0,"op":"open_session","design":"{design}","engine":"{engine}","coverage":true}}"#
    ));
    assert!(reply.contains(r#""ok":true"#), "open failed: {reply}");
    assert!(
        reply.contains(&format!(r#""engine":"{engine}""#)),
        "open reply must echo the requested engine: {reply}"
    );
    let tag = r#""session":""#;
    let start = reply.find(tag).unwrap() + tag.len();
    let end = reply[start..].find('"').unwrap() + start;
    reply[start..end].to_owned()
}

/// One session's full workload: batched sweep, then coverage and
/// metrics. Returns every reply in order. The transcript contains no
/// session ids or request ids, so it is comparable across sessions.
fn workload(server: &Server, sid: &str) -> Vec<String> {
    let items: Vec<String> = (0u64..6)
        .map(|i| {
            format!(
                concat!(
                    r#"{{"pokes":[{{"port":"in_sample","value":"0x{:x}","width":16}},"#,
                    r#"{{"port":"in_sample_valid","value":{},"width":1}},"#,
                    r#"{{"port":"out_sample_ready","value":1,"width":1}}],"cycles":3}}"#
                ),
                (i * 0x1111) & 0xffff,
                i % 2
            )
        })
        .collect();
    let mut out = Vec::new();
    out.push(server.handle_line(&format!(
        r#"{{"id":1,"op":"step_batch","session":"{sid}","items":[{}],"read":["out_sample","out_sample_valid","dbg_state"]}}"#,
        items.join(",")
    )));
    out.push(server.handle_line(&format!(
        r#"{{"id":1,"op":"peek","session":"{sid}","port":"out_sample"}}"#
    )));
    out.push(server.handle_line(&format!(r#"{{"id":1,"op":"coverage","session":"{sid}"}}"#)));
    out.push(server.handle_line(&format!(r#"{{"id":1,"op":"metrics","session":"{sid}"}}"#)));
    for r in &out {
        assert!(r.contains(r#""ok":true"#), "{r}");
    }
    out
}

#[test]
fn four_concurrent_sessions_match_a_serial_run_per_engine() {
    for engine in ENGINES {
        // Serial reference: one session at a time on a fresh server.
        let serial_server = Server::new(&ServeOptions::default());
        let sid = open(&serial_server, "rtl_opt", engine);
        let reference = workload(&serial_server, &sid);

        // Four sessions driven concurrently on one shared server.
        let server = Server::new(&ServeOptions {
            addr: None,
            threads: 4,
            cache_cap: 8,
        });
        let logs: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let sid = open(&server, "rtl_opt", engine);
                        workload(&server, &sid)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(
                log, &reference,
                "{engine}: concurrent session {i} diverged from the serial run"
            );
        }
    }
}

#[test]
fn deterministic_server_metrics_are_identical_across_runs() {
    // Two independent servers, same concurrent workload: the
    // deterministic-mode server metrics (no wall clock, no latency
    // histograms) must come out byte-identical.
    let run = || {
        let server = Server::new(&ServeOptions {
            addr: None,
            threads: 4,
            cache_cap: 8,
        });
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sid = open(&server, "rtl_opt", "gate.bitpar");
                    workload(&server, &sid);
                    let r = server
                        .handle_line(&format!(r#"{{"id":1,"op":"close","session":"{sid}"}}"#));
                    assert!(r.contains(r#""ok":true"#), "{r}");
                });
            }
        });
        server.handle_line(r#"{"id":1,"op":"server_metrics","deterministic":true}"#)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "deterministic server metrics diverged");
    // Sanity: the reply actually carries the cache/session counters and
    // excludes the wall-clock ones.
    assert!(a.contains(r#""serve.cache.compiles":1"#), "{a}");
    assert!(a.contains(r#""serve.sessions.opened":4"#), "{a}");
    assert!(!a.contains("serve.latency."), "{a}");
    assert!(!a.contains("serve.requests."), "{a}");
}

#[test]
fn rtl_and_gate_sessions_agree_on_outputs() {
    // Cross-refinement check through the service: the compiled-RTL
    // session and the bit-parallel gate session of the same design
    // produce identical output values for the same stimulus.
    let server = Server::new(&ServeOptions::default());
    let rtl = open(&server, "rtl_opt", "rtl.compiled");
    let gate = open(&server, "rtl_opt", "gate.bitpar");
    let rtl_log = workload(&server, &rtl);
    let gate_log = workload(&server, &gate);
    // Batch outputs (reply 0) and the follow-up peek (reply 1) agree;
    // coverage/metrics legitimately differ across refinement levels.
    assert_eq!(rtl_log[0], gate_log[0]);
    assert_eq!(rtl_log[1], gate_log[1]);
}

#[test]
fn retired_gate_engine_names_alias_gate_bitpar() {
    // `gate.fast` and `gate.partitioned` name retired engines; protocol 1
    // keeps both as aliases of `gate.bitpar`. The open reply echoes the
    // requested name, and everything after it — outputs, coverage,
    // metrics and a working snapshot — is byte-identical to a
    // `gate.bitpar` session's transcript.
    let server = Server::new(&ServeOptions::default());
    let transcript = |engine: &str| {
        let sid = open(&server, "rtl_opt", engine);
        let mut log = workload(&server, &sid);
        log.push(server.handle_line(&format!(r#"{{"id":1,"op":"snapshot","session":"{sid}"}}"#)));
        log
    };
    let reference = transcript("gate.bitpar");
    let snapshot = reference.last().expect("snapshot reply");
    assert!(snapshot.contains(r#""snapshot":""#), "{snapshot}");
    for alias in ["gate.fast", "gate.partitioned"] {
        assert_eq!(
            transcript(alias),
            reference,
            "{alias}: transcript differs from gate.bitpar"
        );
    }
}
