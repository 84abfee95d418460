//! A walkthrough client for the `scflow-serve` JSON-lines protocol.
//!
//! Embeds the server in-process (the protocol is transport-agnostic:
//! `Server::handle_line` is exactly what the stdio and TCP loops call
//! per line) and drives two concurrent sessions of the same design on
//! different engines — compiled RTL and the 64-lane bit-parallel gate
//! engine — through a batched stimulus sweep, then prints their
//! coverage and metrics replies side by side.
//!
//! Run with: `cargo run --example serve_client`

use scflow::prelude::ServeOptions;
use scflow_serve::Server;

fn main() {
    let opts = ServeOptions::default();
    let server = Server::new(&opts);
    let rpc = |req: String| -> String {
        println!("->  {req}");
        let reply = server.handle_line(&req);
        println!("<-  {reply}");
        reply
    };

    println!("# handshake");
    rpc(r#"{"id":1,"op":"ping"}"#.to_owned());

    println!("\n# two sessions, same design, different refinement levels");
    let rtl = rpc(
        r#"{"id":2,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","coverage":true}"#
            .to_owned(),
    );
    let gate = rpc(
        r#"{"id":3,"op":"open_session","design":"rtl_opt","engine":"gate.bitpar","coverage":true}"#
            .to_owned(),
    );
    let rtl = field(&rtl, "session");
    let gate = field(&gate, "session");

    println!("\n# sequential batched sweep on the RTL session");
    let items: Vec<String> = (0u64..8)
        .map(|i| {
            format!(
                concat!(
                    r#"{{"pokes":[{{"port":"in_sample","value":"0x{:x}","width":16}},"#,
                    r#"{{"port":"in_sample_valid","value":1,"width":1}},"#,
                    r#"{{"port":"out_sample_ready","value":1,"width":1}}],"cycles":4}}"#
                ),
                i * 257
            )
        })
        .collect();
    rpc(format!(
        r#"{{"id":4,"op":"step_batch","session":"{rtl}","items":[{}],"read":["out_sample","out_sample_valid"]}}"#,
        items.join(",")
    ));

    println!("\n# the same sweep as one 8-lane dispatch on the gate session");
    rpc(format!(
        r#"{{"id":5,"op":"step_batch","session":"{gate}","mode":"lanes","items":[{}],"read":["out_sample","out_sample_valid"]}}"#,
        items.join(",")
    ));

    println!("\n# single poke / step / peek still work per request");
    rpc(format!(
        r#"{{"id":6,"op":"poke","session":"{rtl}","port":"in_sample","value":"0x7fff","width":16}}"#
    ));
    rpc(format!(
        r#"{{"id":7,"op":"step","session":"{rtl}","cycles":2}}"#
    ));
    rpc(format!(
        r#"{{"id":8,"op":"peek","session":"{rtl}","port":"out_sample"}}"#
    ));

    println!("\n# coverage per session");
    rpc(format!(r#"{{"id":9,"op":"coverage","session":"{rtl}"}}"#));
    rpc(format!(r#"{{"id":10,"op":"coverage","session":"{gate}"}}"#));

    println!("\n# engine metrics, then server-wide metrics");
    rpc(format!(r#"{{"id":11,"op":"metrics","session":"{gate}"}}"#));
    rpc(r#"{"id":12,"op":"server_metrics","deterministic":true}"#.to_owned());

    println!("\n# teardown");
    rpc(format!(r#"{{"id":13,"op":"close","session":"{rtl}"}}"#));
    rpc(format!(r#"{{"id":14,"op":"close","session":"{gate}"}}"#));
    rpc(r#"{"id":15,"op":"shutdown"}"#.to_owned());
}

/// Pulls a string field out of a reply line (good enough for a demo —
/// real clients parse the JSON).
fn field(reply: &str, key: &str) -> String {
    let tag = format!("\"{key}\":\"");
    let start = reply.find(&tag).expect("field present") + tag.len();
    let end = reply[start..].find('"').expect("terminated") + start;
    reply[start..end].to_owned()
}
