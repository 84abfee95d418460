//! Service throughput bench: protocol requests per second through
//! `Server::handle_line` at 1, 4 and 16 concurrent sessions, the
//! session-open latency split into cold-compile vs cache-hit, and the
//! latency of one `snapshot` and one `restore` on a warmed 64-lane
//! session of each bit-parallel engine. Emits `BENCH_serve.json`.
//!
//! Each concurrent session runs on its own driver thread against one
//! shared server, mixing pokes, steps, peeks and an 8-item `step_batch`
//! — the shape a stimulus sweep actually produces. The cache rows
//! isolate what the content-addressed compile cache buys on
//! `open_session`: the cold row pays synthesis + levelization, the hit
//! row only the lookup and worker spawn. The snapshot rows time the
//! whole request: the engine's capture or restore plus moving the blob
//! as hex through one JSON line each way.

use scflow::prelude::ServeOptions;
use scflow_serve::Server;
use scflow_testkit::Harness;

fn opts(threads: usize) -> ServeOptions {
    ServeOptions {
        addr: None,
        threads,
        cache_cap: 8,
    }
}

fn open(server: &Server, engine: &str) -> String {
    let reply = server.handle_line(&format!(
        r#"{{"id":0,"op":"open_session","design":"rtl_opt","engine":"{engine}","coverage":false}}"#
    ));
    assert!(reply.contains(r#""ok":true"#), "open failed: {reply}");
    let tag = r#""session":""#;
    let start = reply.find(tag).unwrap() + tag.len();
    let end = reply[start..].find('"').unwrap() + start;
    reply[start..end].to_owned()
}

fn close(server: &Server, sid: &str) {
    let r = server.handle_line(&format!(r#"{{"id":0,"op":"close","session":"{sid}"}}"#));
    assert!(r.contains(r#""ok":true"#), "{r}");
}

/// Holds the handshake inputs and runs `cycles` cycles, so a snapshot
/// carries a warmed state.
fn warm_up(server: &Server, sid: &str, cycles: u64) {
    for (port, v, w) in [
        ("out_sample_ready", 1, 1),
        ("in_sample_valid", 1, 1),
        ("in_sample", 0x1234, 16),
    ] {
        let r = server.handle_line(&format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"{port}","value":"0x{v:x}","width":{w}}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
    }
    let r = server.handle_line(&format!(
        r#"{{"id":1,"op":"step","session":"{sid}","cycles":{cycles}}}"#
    ));
    assert!(r.contains(r#""ok":true"#), "{r}");
}

/// One sweep iteration on a session: 3 pokes, a step, 2 peeks and an
/// 8-item batch = 14 protocol requests.
const REQUESTS_PER_SWEEP: u64 = 14;

fn sweep(server: &Server, sid: &str, round: u64) {
    for (port, v, w) in [
        ("in_sample", (round * 257) & 0xffff, 16),
        ("in_sample_valid", 1, 1),
        ("out_sample_ready", 1, 1),
    ] {
        let r = server.handle_line(&format!(
            r#"{{"id":1,"op":"poke","session":"{sid}","port":"{port}","value":"0x{v:x}","width":{w}}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
    }
    let r = server.handle_line(&format!(
        r#"{{"id":1,"op":"step","session":"{sid}","cycles":2}}"#
    ));
    assert!(r.contains(r#""ok":true"#), "{r}");
    for port in ["out_sample", "out_sample_valid"] {
        let r = server.handle_line(&format!(
            r#"{{"id":1,"op":"peek","session":"{sid}","port":"{port}"}}"#
        ));
        assert!(r.contains(r#""ok":true"#), "{r}");
    }
    let items: Vec<String> = (0u64..8)
        .map(|i| {
            format!(
                r#"{{"pokes":[{{"port":"in_sample","value":"0x{:x}","width":16}}],"cycles":2}}"#,
                (round * 8 + i) & 0xffff
            )
        })
        .collect();
    let r = server.handle_line(&format!(
        r#"{{"id":1,"op":"step_batch","session":"{sid}","items":[{}],"read":["out_sample"]}}"#,
        items.join(",")
    ));
    assert!(r.contains(r#""ok":true"#), "{r}");
}

fn main() {
    let mut h = Harness::new("serve_throughput")
        .with_iters(3)
        .with_warmup(1);

    // --- open_session latency: cold compile vs cache hit ------------
    h.bench("open_cold_compile", || {
        // Fresh server: nothing cached, the open pays synthesis and
        // levelization of the gate program.
        let server = Server::new(&opts(4));
        let sid = open(&server, "gate.bitpar");
        close(&server, sid.as_str());
    });
    let hit_server = Server::new(&opts(4));
    let warm = open(&hit_server, "gate.bitpar"); // populate the cache
    h.bench("open_cache_hit", || {
        let sid = open(&hit_server, "gate.bitpar");
        close(&hit_server, sid.as_str());
    });
    close(&hit_server, warm.as_str());
    let cold_ns = h.results[0].median_ns;
    let hit_ns = h.results[1].median_ns;
    h.metric("cold_over_hit", cold_ns / hit_ns.max(1e-12));

    // --- snapshot / restore on a warmed 64-lane session --------------
    let snap_server = Server::new(&opts(4));
    for engine in ["rtl.bitpar", "gate.bitpar"] {
        let sid = open(&snap_server, engine);
        warm_up(&snap_server, &sid, 256);
        let snapshot = format!(r#"{{"id":1,"op":"snapshot","session":"{sid}"}}"#);
        let reply = snap_server.handle_line(&snapshot);
        let tag = r#""snapshot":""#;
        let start = reply.find(tag).expect("snapshot reply") + tag.len();
        let hex = &reply[start..start + reply[start..].find('"').expect("closing quote")];
        let restore = format!(r#"{{"id":1,"op":"restore","session":"{sid}","snapshot":"{hex}"}}"#);
        let row = engine.replace('.', "_");
        for (name, line) in [("snapshot", &snapshot), ("restore", &restore)] {
            h.bench(&format!("{name}_{row}"), || {
                let r = snap_server.handle_line(line);
                assert!(r.starts_with(r#"{"id":1,"ok":true"#), "{name} failed");
                r
            });
            h.metric("blob_bytes", (hex.len() / 2) as f64);
        }
        close(&snap_server, &sid);
    }

    // --- request throughput at 1 / 4 / 16 concurrent sessions -------
    const SWEEPS: u64 = 40;
    for sessions in [1usize, 4, 16] {
        let server = Server::new(&opts(sessions));
        let sids: Vec<String> = (0..sessions)
            .map(|_| open(&server, "gate.bitpar"))
            .collect();
        let name = format!("requests_{sessions}_sessions");
        h.bench(&name, || {
            std::thread::scope(|scope| {
                for sid in &sids {
                    scope.spawn(|| {
                        for round in 0..SWEEPS {
                            sweep(&server, sid, round);
                        }
                    });
                }
            });
        });
        let total = SWEEPS * REQUESTS_PER_SWEEP * sessions as u64;
        let last = h.results.last().expect("bench ran");
        let per_sec = total as f64 / (last.median_ns / 1e9);
        h.set_threads(sessions as u32);
        h.metric("requests", total as f64);
        h.metric("requests_per_sec", per_sec);
        for sid in &sids {
            close(&server, sid);
        }
    }

    print!("{}", h.table());
    println!(
        "\nopen_session: cold compile {:.2} ms, cache hit {:.3} ms ({:.0}x)",
        cold_ns / 1e6,
        hit_ns / 1e6,
        cold_ns / hit_ns.max(1e-12)
    );

    let path = scflow_bench::bench_output_path("BENCH_serve.json");
    h.write_json(&path).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
