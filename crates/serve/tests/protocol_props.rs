//! Satellite 1: protocol fuzz/property tests (DESIGN.md §15.1).
//!
//! Round-trips every message type through encode → frame → decode,
//! then attacks the decode path with truncations, tag mutations, and
//! deterministic garbage. The decode path must answer every malformed
//! input with a typed error — never a panic — which is also audited
//! statically by the `panic-reachability` lint rooted at
//! `decode_request` / `decode_response`.

use jetstream_graph::rng::DetRng;
use jetstream_graph::EdgeUpdate;
use jetstream_serve::framing::{read_frame_blocking, write_frame, FrameError};
use jetstream_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, ProtocolError, Request,
    Response, ServerStats, MAX_PAYLOAD_LEN, PROTOCOL_VERSION,
};

/// One exemplar per request variant, plus edge cases (empty name,
/// unicode, empty and mixed update lists, extreme ids).
fn request_corpus() -> Vec<Request> {
    vec![
        Request::Hello { version: PROTOCOL_VERSION, client_name: String::new() },
        Request::Hello { version: u32::MAX, client_name: "client-\u{2603}".into() },
        Request::Update { token: 0, updates: vec![] },
        Request::Update {
            token: u64::MAX,
            updates: vec![
                EdgeUpdate::Insert { source: 0, target: u32::MAX, weight: -0.0 },
                EdgeUpdate::Delete { source: 7, target: 7 },
                EdgeUpdate::Insert { source: 1, target: 2, weight: f64::MIN_POSITIVE },
            ],
        },
        Request::QueryValue { vertex: 0 },
        Request::QueryValue { vertex: u32::MAX },
        Request::QueryImpacted,
        Request::QueryPath { vertex: 42 },
        Request::Flush,
        Request::Stats,
        Request::Goodbye,
    ]
}

/// One exemplar per response variant, same spirit.
fn response_corpus() -> Vec<Response> {
    vec![
        Response::HelloAck {
            version: PROTOCOL_VERSION,
            num_vertices: u64::MAX,
            algorithm: "sssp".into(),
        },
        Response::Admitted { token: 3, batch_id: u64::MAX },
        Response::Busy { token: u64::MAX },
        Response::Rejected { token: 9, index: u32::MAX, reason: "edge 1->2 \u{274c}".into() },
        Response::Value { vertex: 5, value: f64::INFINITY },
        Response::Value { vertex: 5, value: -0.0 },
        Response::Impacted { vertices: vec![] },
        Response::Impacted { vertices: vec![0, 1, u32::MAX] },
        Response::Path { vertices: vec![0, 3, 9] },
        Response::Converged { batch_id: 17, tokens: vec![], safe_updates: 0, unsafe_updates: 0 },
        Response::Converged {
            batch_id: u64::MAX,
            tokens: vec![1, u64::MAX],
            safe_updates: u32::MAX,
            unsafe_updates: 1,
        },
        Response::StatsReply(ServerStats {
            batches_applied: 1,
            updates_applied: 2,
            safe_updates: 3,
            unsafe_updates: 4,
            fast_path_batches: 5,
            busy_rejections: 6,
            rejected_updates: 7,
            checkpoints: 8,
            connections: 9,
        }),
        Response::Error { message: String::new() },
        Response::Bye,
    ]
}

#[test]
fn every_request_variant_round_trips_through_a_frame() {
    for req in request_corpus() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&req)).unwrap();
        let mut r = std::io::Cursor::new(wire);
        let payload = read_frame_blocking(&mut r).unwrap().expect("one frame");
        assert_eq!(decode_request(&payload).unwrap(), req);
    }
}

#[test]
fn every_response_variant_round_trips_through_a_frame() {
    for resp in response_corpus() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_response(&resp)).unwrap();
        let mut r = std::io::Cursor::new(wire);
        let payload = read_frame_blocking(&mut r).unwrap().expect("one frame");
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }
}

#[test]
fn nan_weights_round_trip_bit_exactly() {
    // NaN breaks PartialEq, so compare the payload bits instead: encode
    // uses f64::to_bits, decode from_bits, so the exact NaN payload must
    // survive the wire.
    let nan = f64::from_bits(0x7ff8_dead_beef_0001);
    let req = Request::Update {
        token: 1,
        updates: vec![EdgeUpdate::Insert { source: 0, target: 1, weight: nan }],
    };
    match decode_request(&encode_request(&req)).unwrap() {
        Request::Update { updates, .. } => match updates.as_slice() {
            [EdgeUpdate::Insert { weight, .. }] => {
                assert_eq!(weight.to_bits(), nan.to_bits());
            }
            other => panic!("wrong updates: {other:?}"),
        },
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn every_strict_prefix_of_every_payload_is_truncated() {
    // Every field in every message is mandatory and every element count
    // precedes its elements, so cutting a payload anywhere before its end
    // must decode to `Truncated` — never Ok, never a panic.
    for req in request_corpus() {
        let payload = encode_request(&req);
        for cut in 0..payload.len() {
            let sliced = payload.get(..cut).unwrap();
            assert_eq!(
                decode_request(sliced),
                Err(ProtocolError::Truncated),
                "request {req:?} cut at {cut}"
            );
        }
    }
    for resp in response_corpus() {
        let payload = encode_response(&resp);
        for cut in 0..payload.len() {
            let sliced = payload.get(..cut).unwrap();
            assert_eq!(
                decode_response(sliced),
                Err(ProtocolError::Truncated),
                "response {resp:?} cut at {cut}"
            );
        }
    }
}

#[test]
fn unknown_tags_are_typed_and_known_tag_swaps_never_panic() {
    let request_tags: Vec<u8> = request_corpus().iter().map(|r| encode_request(r)[0]).collect();
    let response_tags: Vec<u8> = response_corpus().iter().map(|r| encode_response(r)[0]).collect();
    for req in request_corpus() {
        let payload = encode_request(&req);
        for tag in 0..=u8::MAX {
            let mut mutated = payload.clone();
            mutated[0] = tag;
            let decoded = decode_request(&mutated);
            if !request_tags.contains(&tag) {
                assert_eq!(decoded, Err(ProtocolError::UnknownTag { tag }));
            }
            // A known-but-different tag reinterprets the body: any typed
            // result is fine, reaching this line means no panic.
        }
    }
    for resp in response_corpus() {
        let payload = encode_response(&resp);
        for tag in 0..=u8::MAX {
            let mut mutated = payload.clone();
            mutated[0] = tag;
            let decoded = decode_response(&mutated);
            if !response_tags.contains(&tag) {
                assert_eq!(decoded, Err(ProtocolError::UnknownTag { tag }));
            }
        }
    }
}

#[test]
fn deterministic_garbage_never_panics_the_decoders() {
    let mut rng = DetRng::seed_from_u64(0xF00D_F00D);
    for _ in 0..20_000 {
        let len = rng.gen_index(96);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(rng.next_u64() as u8);
        }
        // Every outcome is acceptable except a panic.
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
    }
}

#[test]
fn random_single_byte_corruptions_never_panic() {
    let mut rng = DetRng::seed_from_u64(0xBADC_0FFE);
    let corpus: Vec<Vec<u8>> = request_corpus()
        .iter()
        .map(encode_request)
        .chain(response_corpus().iter().map(encode_response))
        .collect();
    for payload in &corpus {
        for _ in 0..256 {
            let mut mutated = payload.clone();
            let at = rng.gen_index(mutated.len());
            mutated[at] = rng.next_u64() as u8;
            let _ = decode_request(&mutated);
            let _ = decode_response(&mutated);
        }
    }
}

#[test]
fn trailing_bytes_are_a_typed_error() {
    for req in request_corpus() {
        let mut payload = encode_request(&req);
        payload.push(0x00);
        assert_eq!(decode_request(&payload), Err(ProtocolError::TrailingBytes { extra: 1 }));
    }
    for resp in response_corpus() {
        let mut payload = encode_response(&resp);
        payload.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decode_response(&payload), Err(ProtocolError::TrailingBytes { extra: 3 }));
    }
}

#[test]
fn frame_layer_rejects_oversized_and_truncated_wires() {
    // A length prefix over the cap is refused before any allocation.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    let mut r = std::io::Cursor::new(wire);
    assert!(matches!(read_frame_blocking(&mut r), Err(FrameError::Oversized { .. })));

    // Cutting a well-formed wire anywhere strictly inside a frame is a
    // frame truncation; cutting at the boundary is a clean EOF.
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_request(&Request::Flush)).unwrap();
    write_frame(&mut wire, &encode_request(&Request::Goodbye)).unwrap();
    let first_frame_end = 4 + encode_request(&Request::Flush).len();
    for cut in 0..wire.len() {
        let mut r = std::io::Cursor::new(wire.get(..cut).unwrap().to_vec());
        let first = read_frame_blocking(&mut r);
        if cut == 0 {
            assert!(matches!(first, Ok(None)), "empty wire is clean EOF");
        } else if cut < first_frame_end {
            assert!(matches!(first, Err(FrameError::Truncated)), "cut at {cut}");
        } else {
            // First frame complete; the second is truncated or absent.
            assert!(first.unwrap().is_some());
            let second = read_frame_blocking(&mut r);
            if cut == first_frame_end {
                assert!(matches!(second, Ok(None)));
            } else {
                assert!(matches!(second, Err(FrameError::Truncated)), "cut at {cut}");
            }
        }
    }
}
