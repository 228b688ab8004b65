//! Protocol fuzz: seeded garbage thrown at a live daemon over real TCP.
//!
//! The contract under test is narrow but absolute — whatever bytes
//! arrive, the daemon (1) never panics or wedges, (2) answers every
//! completed line with a well-formed `ok`/`err` frame or a clean close,
//! and (3) keeps serving well-formed clients afterwards. All input is
//! derived from pinned seeds via splitmix64, so a failure replays
//! exactly.

use fullview_model::{NetworkProfile, SensorSpec};
use fullview_service::{Client, Response, Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn small_daemon() -> Server {
    let profile =
        NetworkProfile::homogeneous(SensorSpec::new(0.15, 120f64.to_radians()).expect("spec"));
    let mut config = ServiceConfig::new(profile);
    config.n = 30;
    config.workers = 2;
    Server::start(config).expect("start")
}

fn assert_alive(server: &Server) {
    let mut client = Client::connect(server.local_addr()).expect("connect after fuzz");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert_eq!(
        client.request_ok("ping").expect("daemon must still serve"),
        "pong\n"
    );
}

#[test]
fn random_byte_blobs_get_clean_errs_never_ok_frames() {
    let server = small_daemon();
    let addr = server.local_addr();
    let mut rng = 0xF00D_F00Du64;
    for round in 0..64u64 {
        rng = splitmix64(rng ^ round);
        let len = 1 + (rng % 256) as usize;
        let mut bytes = Vec::with_capacity(len);
        let mut s = rng;
        for _ in 0..len {
            s = splitmix64(s);
            bytes.push((s & 0xff) as u8);
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let _ = stream.write_all(&bytes);
        // Half the rounds complete the line; half slam the connection
        // shut mid-line (a torn request must not wedge the handler).
        if round % 2 == 0 {
            let _ = stream.write_all(b"\n");
        }
        let _ = stream.shutdown(Shutdown::Write);
        let mut response = Vec::new();
        let _ = stream.take(1 << 20).read_to_end(&mut response);
        if !response.is_empty() {
            let text = String::from_utf8(response).expect("frames are UTF-8");
            assert!(
                text.starts_with("err "),
                "round {round}: garbage must never earn an ok frame, got {text:?}"
            );
            assert!(text.ends_with('\n'), "round {round}: unterminated frame");
        }
    }
    assert_alive(&server);
}

#[test]
fn oversized_and_invalid_lines_are_rejected_with_named_errors() {
    let server = small_daemon();
    let addr = server.local_addr();

    // A line that never ends: rejected at the 64 KiB bound, connection
    // closed (the framing is unrecoverable past this point). Written
    // just past the bound so the daemon drains every byte before
    // closing — an unread residue would turn its close into an RST
    // that could discard the err frame in flight.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(&vec![b'a'; 65 * 1024]).expect("write");
    stream.shutdown(Shutdown::Write).expect("shutdown");
    let mut response = Vec::new();
    let _ = (&stream).take(1 << 20).read_to_end(&mut response);
    let response = String::from_utf8(response).expect("frame is UTF-8");
    assert!(
        response.starts_with("err request line exceeds"),
        "{response:?}"
    );

    // A completed line that is not UTF-8: distinct named rejection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(&[0xff, 0xfe, 0x80, b'\n']).expect("write");
    stream.shutdown(Shutdown::Write).expect("shutdown");
    let mut response = Vec::new();
    let _ = (&stream).take(1 << 20).read_to_end(&mut response);
    let response = String::from_utf8(response).expect("frame is UTF-8");
    assert!(
        response.starts_with("err request line is not valid UTF-8"),
        "{response:?}"
    );

    assert_alive(&server);
}

#[test]
fn shuffled_verbs_and_hostile_parameters_always_get_a_frame() {
    // Valid-UTF-8 but adversarial requests: wrong types, out-of-range
    // values, missing/duplicate/empty parameters, unknown verbs. Every
    // one must come back as a frame on a *persistent* connection — no
    // close, no hang, no panic.
    const VERBS: &[&str] = &[
        "check",
        "map",
        "holes",
        "kfull",
        "prob",
        "cells",
        "mask",
        "kcount",
        "barrier",
        "fail",
        "move",
        "reseed",
        "stats",
        "fingerprint",
        "hello",
        "ping",
        "snapshot",
        "restore",
        "bogus",
        "CHECK",
        "",
    ];
    const PARAMS: &[&str] = &[
        "side=16",
        "side=0",
        "side=-3",
        "grid=1",
        "grid=999999999999999999999999",
        "side=4294967296",
        "grid=4294967296",
        "theta-deg=0.0000001",
        "k=0",
        "k=99",
        "id=0",
        "id=4294967295",
        "x=0.5",
        "y=nan",
        "x=1e308",
        "theta-deg=45",
        "theta-deg=abc",
        "deadline_ms=0",
        "deadline_ms=1",
        "deadline_ms=notanumber",
        "lo=9",
        "hi=3",
        "seed=1",
        "n=0",
        "density=-5",
        "path=/nonexistent/nowhere.snap",
        "client=fuzz",
        "side",
        "=",
        "a==b",
    ];
    let server = small_daemon();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut rng = 0xDEAD_BEEFu64;
    for round in 0..200u64 {
        rng = splitmix64(rng ^ round);
        let mut line = VERBS[(rng % VERBS.len() as u64) as usize].to_string();
        let mut s = rng;
        for _ in 0..(rng >> 8) % 5 {
            s = splitmix64(s);
            line.push(' ');
            line.push_str(PARAMS[(s % PARAMS.len() as u64) as usize]);
        }
        if line.trim().is_empty() {
            continue; // blank lines are protocol no-ops
        }
        let response = client
            .request(&line)
            .unwrap_or_else(|e| panic!("round {round}: {line:?} broke the connection: {e}"));
        // ok or err both fine — what matters is a well-formed frame.
        match response {
            Response::Ok(_) | Response::Err(_) => {}
        }
    }
    assert_alive(&server);
}
