//! Wire-protocol conformance: reply shapes are pinned byte-for-byte
//! (the verify script separately pins a golden transcript with `cmp`),
//! every documented error code is reachable, and a batched request is
//! observationally identical to the unbatched sequence it replaces.

use scflow::prelude::ServeOptions;
use scflow_serve::{Server, MAX_REQUEST_BYTES};
use scflow_sim_api::snapblob;

fn server() -> Server {
    Server::new(&ServeOptions::default())
}

fn open(server: &Server, design: &str, engine: &str, coverage: bool) -> String {
    let reply = server.handle_line(&format!(
        r#"{{"id":0,"op":"open_session","design":"{design}","engine":"{engine}","coverage":{coverage}}}"#
    ));
    assert!(reply.contains(r#""ok":true"#), "open failed: {reply}");
    let tag = r#""session":""#;
    let start = reply.find(tag).unwrap() + tag.len();
    let end = reply[start..].find('"').unwrap() + start;
    reply[start..end].to_owned()
}

fn error_code(reply: &str) -> Option<&str> {
    let tag = r#""error":{"code":""#;
    let start = reply.find(tag)? + tag.len();
    let end = reply[start..].find('"')? + start;
    Some(&reply[start..end])
}

#[test]
fn ping_reply_is_byte_stable() {
    let s = server();
    assert_eq!(
        s.handle_line(r#"{"id":7,"op":"ping"}"#),
        r#"{"id":7,"ok":true,"server":"scflow-serve","protocol":1}"#
    );
    // `id` is echoed verbatim, including string ids.
    assert_eq!(
        s.handle_line(r#"{"id":"x","op":"ping"}"#),
        r#"{"id":"x","ok":true,"server":"scflow-serve","protocol":1}"#
    );
}

#[test]
fn every_documented_error_code_is_reachable() {
    let s = server();
    let check = |req: &str, code: &str| {
        let reply = s.handle_line(req);
        assert_eq!(error_code(&reply), Some(code), "req {req} got {reply}");
    };
    check("{not json", "bad_json");
    check(r#"{"id":1,"value":3}"#, "bad_request");
    check(r#"{"id":1,"op":"warp"}"#, "unknown_op");
    check(
        r#"{"id":1,"op":"open_session","design":"nope","engine":"rtl.compiled"}"#,
        "unknown_design",
    );
    check(
        r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.jit"}"#,
        "unknown_engine",
    );
    check(
        r#"{"id":1,"op":"peek","session":"s99","port":"out_sample"}"#,
        "unknown_session",
    );

    let sid = open(&s, "rtl_opt", "rtl.compiled", false);
    check(
        &format!(r#"{{"id":1,"op":"poke","session":"{sid}","port":"zz","value":0,"width":1}}"#),
        "unknown_port",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"out_sample","value":0,"width":16}}"#
        ),
        "not_an_input",
    );
    check(
        &format!(r#"{{"id":1,"op":"peek","session":"{sid}","port":"in_sample"}}"#),
        "not_an_output",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":0,"width":4}}"#
        ),
        "width_mismatch",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":"0x10000","width":16}}"#
        ),
        "bad_value",
    );
    check(
        &format!(r#"{{"id":1,"op":"coverage","session":"{sid}"}}"#),
        "coverage_disabled",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"step_batch","session":"{sid}","mode":"lanes","items":[{{"cycles":1}}]}}"#
        ),
        "lanes_unsupported",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"step_batch","session":"{sid}","items":[{{"pokes":[{{"port":"zz","value":0,"width":1}}],"cycles":1}}]}}"#
        ),
        "bad_batch_item",
    );

    let gate = open(&s, "rtl_opt", "gate.bitpar", false);
    let many: Vec<String> = (0..65).map(|_| r#"{"cycles":1}"#.to_owned()).collect();
    check(
        &format!(
            r#"{{"id":1,"op":"step_batch","session":"{gate}","mode":"lanes","items":[{}]}}"#,
            many.join(",")
        ),
        "lanes_overflow",
    );
    check(
        &format!(
            r#"{{"id":1,"op":"step_batch","session":"{gate}","mode":"lanes","items":[{{"cycles":1}},{{"cycles":2}}]}}"#
        ),
        "lanes_mismatch",
    );

    // Snapshot error codes: the interpreter has no snapshot support,
    // restoring a blob onto a different design is stale, and a
    // non-hex blob is refused before it reaches the engine.
    let interp = open(&s, "rtl_opt", "rtl.interpreted", false);
    check(
        &format!(r#"{{"id":1,"op":"snapshot","session":"{interp}"}}"#),
        "snapshot_unsupported",
    );
    check(
        &format!(r#"{{"id":1,"op":"restore","session":"{interp}","snapshot":"00"}}"#),
        "snapshot_unsupported",
    );
    check(
        &format!(r#"{{"id":1,"op":"reset","session":"{interp}"}}"#),
        "unsupported_op",
    );
    let snap_reply = s.handle_line(&format!(r#"{{"id":1,"op":"snapshot","session":"{sid}"}}"#));
    assert!(snap_reply.contains(r#""ok":true"#), "{snap_reply}");
    let tag = r#""snapshot":""#;
    let ss = snap_reply.find(tag).unwrap() + tag.len();
    let se = snap_reply[ss..].find('"').unwrap() + ss;
    let blob = &snap_reply[ss..se];
    let other = open(&s, "rtl_unopt", "rtl.compiled", false);
    check(
        &format!(r#"{{"id":1,"op":"restore","session":"{other}","snapshot":"{blob}"}}"#),
        "stale_snapshot",
    );
    check(
        &format!(r#"{{"id":1,"op":"restore","session":"{sid}","snapshot":"zz"}}"#),
        "bad_value",
    );
    let r = s.handle_line(&format!(
        r#"{{"id":1,"op":"restore","session":"{sid}","snapshot":"{blob}"}}"#
    ));
    assert!(r.contains(r#""ok":true"#), "own blob restores: {r}");

    // A request line past the frame cap is refused by the transport.
    let mut long = vec![b'x'; MAX_REQUEST_BYTES + 1];
    long.push(b'\n');
    let replies = transcript(&s, &long);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(error_code(&replies[0]), Some("request_too_large"));

    // Closing twice: the second close sees no session.
    let r = s.handle_line(&format!(r#"{{"id":1,"op":"close","session":"{sid}"}}"#));
    assert!(r.contains(r#""ok":true"#));
    check(
        &format!(r#"{{"id":1,"op":"close","session":"{sid}"}}"#),
        "unknown_session",
    );
}

#[test]
fn hex_values_round_trip_and_floats_are_refused() {
    let s = server();
    let sid = open(&s, "rtl_opt", "rtl.compiled", false);
    let r = s.handle_line(&format!(
        r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":"0xBEEF","width":16}}"#
    ));
    assert_eq!(r, r#"{"id":1,"ok":true}"#);
    let r = s.handle_line(&format!(
        r#"{{"id":2,"op":"poke","session":"{sid}","port":"in_sample","value":1.5,"width":16}}"#
    ));
    assert_eq!(error_code(&r), Some("bad_json"));
}

// Rust's `from_str_radix` takes a leading `+`; the protocol's hex fields
// are digits only, so a signed value is refused, not read as unsigned.

#[test]
fn poke_value_refuses_a_sign() {
    let s = server();
    let sid = open(&s, "rtl_opt", "rtl.compiled", false);
    let r = s.handle_line(&format!(
        r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":"0x+2a","width":16}}"#
    ));
    assert_eq!(
        r,
        r#"{"id":1,"ok":false,"error":{"code":"bad_value","msg":"bad hex value `0x+2a`: a sign is not a hex digit"}}"#
    );
}

#[test]
fn restore_blob_refuses_a_sign() {
    let s = server();
    let sid = open(&s, "rtl_opt", "rtl.compiled", false);
    // The session's own blob with one leading `0` digit turned into `+`.
    let snap = s.handle_line(&format!(r#"{{"id":1,"op":"snapshot","session":"{sid}"}}"#));
    let tag = r#""snapshot":""#;
    let ss = snap.find(tag).expect("snapshot reply") + tag.len();
    let se = snap[ss..].find('"').unwrap() + ss;
    let blob = &snap[ss..se];
    let at = (0..blob.len())
        .step_by(2)
        .find(|&i| blob.as_bytes()[i] == b'0')
        .expect("a pair with a leading 0 digit");
    let signed = format!("{}+{}", &blob[..at], &blob[at + 1..]);
    let r = s.handle_line(&format!(
        r#"{{"id":2,"op":"restore","session":"{sid}","snapshot":"{signed}"}}"#
    ));
    assert_eq!(
        r,
        format!(
            r#"{{"id":2,"ok":false,"error":{{"code":"bad_value","msg":"bad hex `{}` in `snapshot`"}}}}"#,
            &signed[at..at + 2]
        )
    );
    let r = s.handle_line(&format!(
        r#"{{"id":3,"op":"restore","session":"{sid}","snapshot":"{blob}"}}"#
    ));
    assert_eq!(r, r#"{"id":3,"ok":true}"#);
}

#[test]
fn deep_nesting_is_a_reply_not_a_stack_overflow() {
    // Without a cap the parser recurses once per bracket, and a million
    // of them overflow the thread's stack: an abort, not a panic.
    let s = server();
    let depth = 1_000_000;
    let line = "[".repeat(depth) + &"]".repeat(depth);
    assert_eq!(
        s.handle_line(&line),
        format!(
            r#"{{"id":0,"ok":false,"error":{{"code":"bad_json","msg":"nesting deeper than {max} at offset {max}"}}}}"#,
            max = scflow_serve::json::MAX_DEPTH
        )
    );
    assert!(s
        .handle_line(r#"{"id":1,"op":"ping"}"#)
        .contains(r#""ok":true"#));
}

#[test]
fn step_batch_equals_the_unbatched_sequence() {
    let s = server();
    let stimulus: [(u64, u64); 5] = [(0x101, 3), (0x7fff, 1), (0, 2), (0x4242, 4), (0xffff, 1)];

    // Unbatched: poke / step / peek per tuple.
    let a = open(&s, "rtl_opt", "rtl.compiled", false);
    let mut unbatched = Vec::new();
    for (v, cycles) in stimulus {
        for (port, val, w) in [
            ("in_sample", v, 16),
            ("in_sample_valid", 1, 1),
            ("out_sample_ready", 1, 1),
        ] {
            let r = s.handle_line(&format!(
                r#"{{"id":1,"op":"poke","session":"{a}","port":"{port}","value":"0x{val:x}","width":{w}}}"#
            ));
            assert!(r.contains(r#""ok":true"#), "{r}");
        }
        let r = s.handle_line(&format!(
            r#"{{"id":1,"op":"step","session":"{a}","cycles":{cycles}}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
        for port in ["out_sample", "out_sample_valid"] {
            let r = s.handle_line(&format!(
                r#"{{"id":1,"op":"peek","session":"{a}","port":"{port}"}}"#
            ));
            unbatched.push(r);
        }
    }

    // Batched: the same tuples in one request.
    let b = open(&s, "rtl_opt", "rtl.compiled", false);
    let items: Vec<String> = stimulus
        .iter()
        .map(|(v, cycles)| {
            format!(
                concat!(
                    r#"{{"pokes":[{{"port":"in_sample","value":"0x{:x}","width":16}},"#,
                    r#"{{"port":"in_sample_valid","value":1,"width":1}},"#,
                    r#"{{"port":"out_sample_ready","value":1,"width":1}}],"cycles":{}}}"#
                ),
                v, cycles
            )
        })
        .collect();
    let r = s.handle_line(&format!(
        r#"{{"id":1,"op":"step_batch","session":"{b}","items":[{}],"read":["out_sample","out_sample_valid"]}}"#,
        items.join(",")
    ));
    assert!(r.contains(r#""ok":true"#), "{r}");

    // Every batched read equals the unbatched peek, in order.
    let mut batched = Vec::new();
    for part in r.split(r#"{"port":""#).skip(1) {
        let port = &part[..part.find('"').unwrap()];
        let tag = r#""value":""#;
        let vs = part.find(tag).unwrap() + tag.len();
        let ve = part[vs..].find('"').unwrap() + vs;
        batched.push((port.to_owned(), part[vs..ve].to_owned()));
    }
    assert_eq!(batched.len(), unbatched.len());
    for ((port, value), peek_reply) in batched.iter().zip(&unbatched) {
        assert!(
            peek_reply.contains(&format!(r#""value":"{value}""#)),
            "batched {port}={value} but unbatched peek said {peek_reply}"
        );
    }

    // Total cycle counts agree too.
    let total: u64 = stimulus.iter().map(|&(_, c)| c).sum();
    assert!(r.contains(&format!(r#""cycles":{total}"#)), "{r}");
}

#[test]
fn engine_panic_is_a_reply_not_a_crash() {
    let s = server();
    let sid = open(&s, "rtl_opt", "gate.bitpar", false);
    // 65 lanes passes the netlist port checks (they are lane-agnostic)
    // but would overflow the engine — the protocol guard refuses it
    // before the engine sees it, and the session survives.
    let r = s.handle_line(&format!(
        r#"{{"id":1,"op":"step_batch","session":"{sid}","mode":"lanes","items":[{{"cycles":1}},{{"cycles":1}}],"read":["out_sample"]}}"#
    ));
    assert!(r.contains(r#""ok":true"#), "{r}");
    let r = s.handle_line(&format!(r#"{{"id":2,"op":"step","session":"{sid}"}}"#));
    assert!(r.contains(r#""ok":true"#), "session still alive: {r}");
}

#[test]
fn server_busy_when_the_pool_is_full() {
    let s = Server::new(&ServeOptions {
        addr: None,
        threads: 1,
        cache_cap: 8,
    });
    let _keep = open(&s, "rtl_opt", "rtl.compiled", false);
    let r =
        s.handle_line(r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled"}"#);
    assert_eq!(error_code(&r), Some("server_busy"));
}

#[test]
fn snapshot_fork_replays_identically_on_every_capable_engine() {
    // Warm up, snapshot, run a tail, then restore the blob and rerun
    // the same tail: the peek replies must be byte-identical on every
    // snapshot-capable engine.
    let s = server();
    for engine in ["rtl.compiled", "rtl.bitpar", "gate.bitpar"] {
        let sid = open(&s, "rtl_opt", engine, false);
        let drive = |v: u64, cycles: u64| {
            for (port, val, w) in [
                ("in_sample", v, 16u32),
                ("in_sample_valid", 1, 1),
                ("out_sample_ready", 1, 1),
            ] {
                let r = s.handle_line(&format!(
                    r#"{{"id":1,"op":"poke","session":"{sid}","port":"{port}","value":"0x{val:x}","width":{w}}}"#
                ));
                assert!(r.contains(r#""ok":true"#), "{r}");
            }
            let r = s.handle_line(&format!(
                r#"{{"id":1,"op":"step","session":"{sid}","cycles":{cycles}}}"#
            ));
            assert!(r.contains(r#""ok":true"#), "{r}");
        };
        let tail_peeks = |label: &str| -> Vec<String> {
            ["out_sample", "out_sample_valid", "dbg_state"]
                .iter()
                .map(|port| {
                    let r = s.handle_line(&format!(
                        r#"{{"id":1,"op":"peek","session":"{sid}","port":"{port}"}}"#
                    ));
                    assert!(r.contains(r#""ok":true"#), "{label}: {r}");
                    r
                })
                .collect()
        };
        for i in 0..10u64 {
            drive(i * 0x213, 2);
        }
        let snap = s.handle_line(&format!(r#"{{"id":1,"op":"snapshot","session":"{sid}"}}"#));
        assert!(snap.contains(r#""ok":true"#), "{engine}: {snap}");
        let tag = r#""snapshot":""#;
        let ss = snap.find(tag).unwrap() + tag.len();
        let se = snap[ss..].find('"').unwrap() + ss;
        let blob = snap[ss..se].to_owned();

        for i in 0..7u64 {
            drive(0x8000 | (i * 0x777), 3);
        }
        let straight = tail_peeks("straight");

        let r = s.handle_line(&format!(
            r#"{{"id":1,"op":"restore","session":"{sid}","snapshot":"{blob}"}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{engine}: restore failed: {r}");
        for i in 0..7u64 {
            drive(0x8000 | (i * 0x777), 3);
        }
        let rerun = tail_peeks("rerun");
        assert_eq!(straight, rerun, "{engine}: forked rerun diverged");
    }
}

#[test]
fn reset_session_replies_like_a_freshly_opened_one() {
    // `reset` returns the engine to power-on, inputs included. The
    // session must then answer a fixed request list exactly as a fresh
    // session does: the scan tie-off and coverage collection that
    // `open_session` applies hold again after the reset.
    let s = server();
    for engine in ["rtl.compiled", "rtl.bitpar", "gate.event", "gate.bitpar"] {
        let poke = |sid: &str, port: &str, value: u64, width: u32| {
            s.handle_line(&format!(
                r#"{{"id":1,"op":"poke","session":"{sid}","port":"{port}","value":"0x{value:x}","width":{width}}}"#
            ))
        };
        let replay = |sid: &str| -> Vec<String> {
            let mut replies = vec![
                poke(sid, "in_sample", 0x1234, 16),
                poke(sid, "in_sample_valid", 1, 1),
                poke(sid, "out_sample_ready", 1, 1),
                s.handle_line(&format!(
                    r#"{{"id":1,"op":"step","session":"{sid}","cycles":20}}"#
                )),
            ];
            for port in ["out_sample", "out_sample_valid", "dbg_state"] {
                replies.push(s.handle_line(&format!(
                    r#"{{"id":1,"op":"peek","session":"{sid}","port":"{port}"}}"#
                )));
            }
            for op in ["metrics", "coverage"] {
                replies
                    .push(s.handle_line(&format!(r#"{{"id":1,"op":"{op}","session":"{sid}"}}"#)));
            }
            replies
        };
        let fresh = open(&s, "rtl_opt", engine, true);
        let expected = replay(&fresh);

        let sid = open(&s, "rtl_opt", engine, true);
        for (port, value, width) in [
            ("in_sample", 0x7ffe, 16),
            ("in_sample_valid", 1, 1),
            ("out_sample_ready", 1, 1),
        ] {
            let r = poke(&sid, port, value, width);
            assert!(r.contains(r#""ok":true"#), "{engine}: {r}");
        }
        let r = s.handle_line(&format!(
            r#"{{"id":1,"op":"step","session":"{sid}","cycles":37}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{engine}: {r}");
        let r = s.handle_line(&format!(r#"{{"id":1,"op":"reset","session":"{sid}"}}"#));
        assert!(r.contains(r#""ok":true"#), "{engine}: reset failed: {r}");
        assert_eq!(replay(&sid), expected, "{engine}: reset session diverged");
        for sid in [fresh, sid] {
            s.handle_line(&format!(r#"{{"id":1,"op":"close","session":"{sid}"}}"#));
        }
    }
}

/// A present optional field of the wrong JSON type is refused with
/// `bad_request` naming the field and the expected type; it is never
/// read as if it were absent.
fn assert_mistyped(s: &Server, req: &str, field: &str, expected: &str) {
    let reply = s.handle_line(req);
    assert_eq!(error_code(&reply), Some("bad_request"), "{req} got {reply}");
    assert!(
        reply.contains(&format!("`{field}`")) && reply.contains(expected),
        "{req}: message must name `{field}` and {expected}: {reply}"
    );
}

#[test]
fn mistyped_coverage_field_is_a_bad_request() {
    let s = server();
    assert_mistyped(
        &s,
        r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","coverage":"yes"}"#,
        "coverage",
        "boolean",
    );
}

#[test]
fn mistyped_opt_field_is_a_bad_request() {
    let s = server();
    assert_mistyped(
        &s,
        r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","opt":"2"}"#,
        "opt",
        "integer",
    );
}

#[test]
fn mistyped_mode_field_is_a_bad_request() {
    let s = server();
    let sid = open(&s, "rtl_opt", "rtl.bitpar", false);
    assert_mistyped(
        &s,
        &format!(
            r#"{{"id":1,"op":"step_batch","session":"{sid}","mode":5,"items":[{{"cycles":1}}]}}"#
        ),
        "mode",
        "string",
    );
}

#[test]
fn mistyped_deterministic_field_is_a_bad_request() {
    let s = server();
    assert_mistyped(
        &s,
        r#"{"id":1,"op":"server_metrics","deterministic":1}"#,
        "deterministic",
        "boolean",
    );
}

/// Runs `input` through the stdio transport and returns the reply lines.
fn transcript(s: &Server, input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    s.serve_io(input, &mut out)
        .expect("transport keeps serving");
    String::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn a_non_utf8_line_is_a_reply_not_the_end_of_the_transport() {
    let s = server();
    let replies = transcript(
        &s,
        b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"pi\xffng\"}\n{\"id\":3,\"op\":\"ping\"}\n",
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(
        replies[0].starts_with(r#"{"id":1,"ok":true"#),
        "{}",
        replies[0]
    );
    assert_eq!(error_code(&replies[1]), Some("bad_json"), "{}", replies[1]);
    assert!(
        replies[2].starts_with(r#"{"id":3,"ok":true"#),
        "{}",
        replies[2]
    );
}

#[test]
fn an_oversized_line_is_refused_and_the_next_request_served() {
    let s = server();
    let mut input = vec![b'{'; MAX_REQUEST_BYTES + 1];
    input.extend_from_slice(b"\n{\"id\":2,\"op\":\"ping\"}\n");
    let replies = transcript(&s, &input);
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(
        replies[0].starts_with(r#"{"id":null,"ok":false,"error":{"code":"request_too_large""#),
        "{}",
        replies[0]
    );
    assert_eq!(
        replies[1],
        r#"{"id":2,"ok":true,"server":"scflow-serve","protocol":1}"#
    );
    // A line of exactly the cap is read whole (and is then bad JSON).
    let mut input = vec![b' '; MAX_REQUEST_BYTES - 1];
    input.extend_from_slice(b"x\n");
    let replies = transcript(&s, &input);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(error_code(&replies[0]), Some("bad_json"), "{}", replies[0]);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn corrupt_blobs_answer_stale_snapshot_and_leave_the_session_untouched() {
    // Two sessions fed the same requests; only the first also gets every
    // corrupt restore. Its replies afterwards must equal its twin's.
    let s = server();
    let a = open(&s, "rtl_opt", "rtl.bitpar", true);
    let b = open(&s, "rtl_opt", "rtl.bitpar", true);
    let both = |req: &dyn Fn(&str) -> String| {
        let ra = s.handle_line(&req(&a));
        let rb = s.handle_line(&req(&b));
        assert_eq!(ra, rb, "twins diverged");
        ra
    };
    both(&|sid| {
        format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample_valid","value":1,"width":1}}"#
        )
    });
    let items: Vec<String> = (0..64)
        .map(|i| {
            format!(
                r#"{{"pokes":[{{"port":"in_sample","value":"0x{:x}","width":16}}],"cycles":8}}"#,
                i * 0x0421
            )
        })
        .collect();
    both(&|sid| {
        format!(
            r#"{{"id":2,"op":"step_batch","session":"{sid}","mode":"lanes","items":[{}]}}"#,
            items.join(",")
        )
    });
    let snap = both(&|sid| format!(r#"{{"id":3,"op":"snapshot","session":"{sid}"}}"#));
    let tag = r#""snapshot":""#;
    let at = snap.find(tag).expect("blob") + tag.len();
    let blob = unhex(&snap[at..at + snap[at..].find('"').expect("end")]);

    let mut corrupt: Vec<Vec<u8>> = Vec::new();
    for cut in [0, 1, 7, blob.len() / 2, blob.len() - 8, blob.len() - 1] {
        corrupt.push(blob[..cut].to_vec());
    }
    for at in [0, 4, 6, 20, blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[at] ^= 0x40;
        corrupt.push(bad.clone());
        // Re-sealed, a changed magic, version, tag or identity is still
        // refused (a re-sealed change to state may decode).
        if at <= 20 {
            corrupt.push(snapblob::reseal(&bad).blob().to_vec());
        }
    }
    // The same state stamped with format version 1, the layout before
    // ROMs left the blob.
    let mut v1 = blob.clone();
    v1[4] = 1;
    corrupt.push(v1.clone());
    corrupt.push(snapblob::reseal(&v1).blob().to_vec());
    for bad in &corrupt {
        let r = s.handle_line(&format!(
            r#"{{"id":4,"op":"restore","session":"{a}","snapshot":"{}"}}"#,
            hex(bad)
        ));
        assert_eq!(error_code(&r), Some("stale_snapshot"), "{r}");
    }

    both(&|sid| format!(r#"{{"id":5,"op":"step","session":"{sid}","cycles":5}}"#));
    both(&|sid| format!(r#"{{"id":6,"op":"peek","session":"{sid}","port":"out_sample"}}"#));
    both(&|sid| format!(r#"{{"id":7,"op":"coverage","session":"{sid}"}}"#));
    both(&|sid| format!(r#"{{"id":8,"op":"snapshot","session":"{sid}"}}"#));
}
