//! Server-level cache behaviour: a concurrent open storm compiles
//! exactly once, cache-hit sessions are observationally identical to
//! cold-compile sessions, and LRU eviction under a tiny capacity only
//! touches unpinned designs.

use scflow::prelude::ServeOptions;
use scflow_serve::Server;

fn open_reply(server: &Server, design: &str, engine: &str) -> String {
    server.handle_line(&format!(
        r#"{{"id":0,"op":"open_session","design":"{design}","engine":"{engine}","coverage":true}}"#
    ))
}

fn session_of(reply: &str) -> String {
    let tag = r#""session":""#;
    let start = reply
        .find(tag)
        .unwrap_or_else(|| panic!("no session in {reply}"))
        + tag.len();
    let end = reply[start..].find('"').unwrap() + start;
    reply[start..end].to_owned()
}

fn cache_field(reply: &str) -> String {
    let tag = r#""cache":""#;
    let start = reply.find(tag).unwrap() + tag.len();
    let end = reply[start..].find('"').unwrap() + start;
    reply[start..end].to_owned()
}

/// Drives a fixed stimulus and returns the session's reply transcript
/// (steps, peeks, coverage) — everything after the open reply, so it is
/// directly comparable across sessions.
fn transcript(server: &Server, sid: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, v) in [0x0101u64, 0x7fff, 0x0042, 0xffff].into_iter().enumerate() {
        let r = server.handle_line(&format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":"0x{v:x}","width":16}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
        let r = server.handle_line(&format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample_valid","value":{},"width":1}}"#,
            u64::from(i % 2 == 0)
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
        out.push(server.handle_line(&format!(
            r#"{{"id":1,"op":"step","session":"{sid}","cycles":3}}"#
        )));
        out.push(server.handle_line(&format!(
            r#"{{"id":1,"op":"peek","session":"{sid}","port":"out_sample"}}"#
        )));
        out.push(server.handle_line(&format!(
            r#"{{"id":1,"op":"peek","session":"{sid}","port":"dbg_state"}}"#
        )));
    }
    out.push(server.handle_line(&format!(r#"{{"id":1,"op":"coverage","session":"{sid}"}}"#)));
    out
}

#[test]
fn open_storm_compiles_exactly_once() {
    let server = Server::new(&ServeOptions {
        addr: None,
        threads: 16,
        cache_cap: 8,
    });
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| open_reply(&server, "rtl_opt", "gate.bitpar")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(r.contains(r#""ok":true"#), "{r}");
    }
    let st = server.cache().stats();
    assert_eq!(st.compiles, 1, "storm must share one compile: {st:?}");
    assert_eq!(st.misses, 1);
    assert_eq!(st.hits, 7);
    // Exactly one open was the miss; the rest report the shared hit.
    let misses = replies.iter().filter(|r| cache_field(r) == "miss").count();
    assert_eq!(misses, 1);
    assert_eq!(server.sessions().active(), 8);

    // All eight report the same content hash — same shared program.
    let hashes: std::collections::HashSet<_> = replies
        .iter()
        .map(|r| {
            let tag = r#""content_hash":""#;
            let s = r.find(tag).unwrap() + tag.len();
            r[s..s + 18].to_owned()
        })
        .collect();
    assert_eq!(hashes.len(), 1);
}

#[test]
fn hit_session_is_byte_identical_to_cold_session() {
    let server = Server::new(&ServeOptions::default());

    let cold = open_reply(&server, "rtl_opt", "gate.bitpar");
    assert_eq!(cache_field(&cold), "miss");
    let warm = open_reply(&server, "rtl_opt", "gate.bitpar");
    assert_eq!(cache_field(&warm), "hit");

    let cold_log = transcript(&server, &session_of(&cold));
    let warm_log = transcript(&server, &session_of(&warm));
    assert_eq!(cold_log, warm_log, "hit and cold sessions must not differ");

    // And a fresh server (fully cold) agrees byte-for-byte too.
    let fresh = Server::new(&ServeOptions::default());
    let reply = open_reply(&fresh, "rtl_opt", "gate.bitpar");
    let fresh_log = transcript(&fresh, &session_of(&reply));
    assert_eq!(cold_log, fresh_log);
}

#[test]
fn lru_eviction_respects_pinned_sessions() {
    let server = Server::new(&ServeOptions {
        addr: None,
        threads: 8,
        cache_cap: 1,
    });
    // Pin rtl_opt with a live session.
    let pinned = open_reply(&server, "rtl_opt", "gate.event");
    assert_eq!(cache_field(&pinned), "miss");

    // Cycle two more designs through the single-entry cache, closing
    // each session so its artefact becomes evictable.
    for design in ["rtl_unopt", "vhdl_ref"] {
        let r = open_reply(&server, design, "gate.event");
        assert_eq!(cache_field(&r), "miss", "{design}");
        let sid = session_of(&r);
        let r = server.handle_line(&format!(r#"{{"id":1,"op":"close","session":"{sid}"}}"#));
        assert!(r.contains(r#""ok":true"#));
    }
    assert!(server.cache().stats().evictions >= 1);

    // The pinned design is still served from cache (its session's Arc
    // protected it from eviction)…
    let again = open_reply(&server, "rtl_opt", "gate.event");
    assert_eq!(cache_field(&again), "hit");
    // …while an evicted design recompiles.
    let compiles_before = server.cache().stats().compiles;
    let r = open_reply(&server, "rtl_unopt", "gate.event");
    assert_eq!(cache_field(&r), "miss");
    assert_eq!(server.cache().stats().compiles, compiles_before + 1);
}

#[test]
fn rtl_and_gate_artifacts_do_not_collide() {
    // Same module, different refinement levels: the level-namespaced
    // keys must produce two cache entries, not one.
    let server = Server::new(&ServeOptions::default());
    let a = open_reply(&server, "rtl_opt", "rtl.compiled");
    let b = open_reply(&server, "rtl_opt", "gate.bitpar");
    assert_eq!(cache_field(&a), "miss");
    assert_eq!(cache_field(&b), "miss");
    assert_eq!(server.cache().stats().compiles, 2);
    assert_eq!(server.cache().len(), 2);
}

#[test]
fn pass_levels_do_not_share_artifacts_or_snapshots() {
    // The same design opened at different `opt` levels is two distinct
    // content addresses: two compiles in the cache, mutually stale
    // snapshots — but byte-identical observable outputs.
    let server = Server::new(&ServeOptions::default());
    let open_opt = |opt: u8| {
        server.handle_line(&format!(
            r#"{{"id":0,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","opt":{opt}}}"#
        ))
    };
    let plain = open_opt(0);
    let optimized = open_opt(2);
    assert_eq!(cache_field(&plain), "miss");
    assert_eq!(
        cache_field(&optimized),
        "miss",
        "levels must not share a compile: {optimized}"
    );
    assert_eq!(server.cache().stats().compiles, 2);
    let sid_plain = session_of(&plain);
    let sid_opt = session_of(&optimized);

    // Same stimulus, same replies — the passes may not change anything
    // a client can observe.
    for (a, b) in [(&sid_plain, &sid_opt)] {
        for sid in [a, b] {
            let r = server.handle_line(&format!(
                r#"{{"id":1,"op":"poke","session":"{sid}","port":"in_sample","value":"0x1234","width":16}}"#
            ));
            assert!(r.contains(r#""ok":true"#), "{r}");
        }
        for _ in 0..4 {
            let ra = server.handle_line(&format!(
                r#"{{"id":1,"op":"step","session":"{a}","cycles":3}}"#
            ));
            let rb = server.handle_line(&format!(
                r#"{{"id":1,"op":"step","session":"{b}","cycles":3}}"#
            ));
            assert_eq!(ra, rb);
            let pa = server.handle_line(&format!(
                r#"{{"id":1,"op":"peek","session":"{a}","port":"out_sample"}}"#
            ));
            let pb = server.handle_line(&format!(
                r#"{{"id":1,"op":"peek","session":"{b}","port":"out_sample"}}"#
            ));
            assert_eq!(pa, pb);
        }
    }

    // An optimized blob is refused by the unoptimized session…
    let snap = server.handle_line(&format!(
        r#"{{"id":1,"op":"snapshot","session":"{sid_opt}"}}"#
    ));
    assert!(snap.contains(r#""ok":true"#), "{snap}");
    let tag = r#""snapshot":""#;
    let ss = snap.find(tag).unwrap() + tag.len();
    let se = snap[ss..].find('"').unwrap() + ss;
    let blob = &snap[ss..se];
    let r = server.handle_line(&format!(
        r#"{{"id":1,"op":"restore","session":"{sid_plain}","snapshot":"{blob}"}}"#
    ));
    assert!(
        r.contains("stale_snapshot"),
        "optimized blob must be stale for the plain session: {r}"
    );
    // …while a same-level twin (a cache hit, shared program) accepts it.
    let twin = open_opt(2);
    assert_eq!(cache_field(&twin), "hit");
    let r = server.handle_line(&format!(
        r#"{{"id":1,"op":"restore","session":"{}","snapshot":"{blob}"}}"#,
        session_of(&twin)
    ));
    assert!(r.contains(r#""ok":true"#), "twin must accept the blob: {r}");

    // Out-of-range levels are refused at the protocol boundary.
    let r = server.handle_line(
        r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","opt":3}"#,
    );
    assert!(r.contains("bad_request"), "{r}");
}

#[test]
fn one_gate_artifact_serves_all_gate_engines() {
    // gate.event and gate.bitpar both run the same compiled gate
    // program: two opens, one compile.
    let server = Server::new(&ServeOptions::default());
    for (i, engine) in ["gate.event", "gate.bitpar"].iter().enumerate() {
        let r = open_reply(&server, "rtl_opt", engine);
        let expect = if i == 0 { "miss" } else { "hit" };
        assert_eq!(cache_field(&r), expect, "{engine}: {r}");
    }
    assert_eq!(server.cache().stats().compiles, 1);
}
