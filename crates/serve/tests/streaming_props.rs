//! Streaming wire-mode (op 3) property suite.
//!
//! The contract under test: a sweep answered as arithmetic-run
//! descriptors and expanded client-side is **bit-identical** to asking
//! the non-streaming op-1 path for every tick of the window — for both
//! table builds — and a damaged response can only ever
//! surface as a *detected* transport error (CRC-caught, classified
//! transient), never as a believed wrong answer:
//!
//! * `value_runs` → op-3 codec → `expand_value_runs` reproduces
//!   `value_ticks` at every covered tick, for the event-driven build
//!   and the tick-walking reference alike — and the two builds emit
//!   *identical descriptors*, not merely equal expansions.
//! * The broker's sweep entry matches its own op-1 batch answers bit
//!   for bit at every tick of the window.
//! * Truncating the response frame at **every** byte cut is an error —
//!   never a hang, never a silently short answer.
//! * Flipping **any** single payload byte is caught by the frame CRC
//!   and classified as the corrupt-frame marker (the client's
//!   transient, retry-worthy class), so a damaged frame is re-requested
//!   rather than expanded.

use cyclesteal_core::time::secs;
use cyclesteal_dp::{expand_value_runs, CompressedTable, Grid};
use cyclesteal_serve::{wire, Broker, BrokerConfig, GuaranteeQuery, Request, SweepQuery};
use proptest::prelude::*;

fn solve(q: u32, max_u: f64, p: u32) -> CompressedTable {
    CompressedTable::solve_event_driven(secs(1.0), q, secs(max_u), p)
}

/// Maps two unit draws onto a valid `(first_tick, count)` window of a
/// `0..=max_ticks` domain.
fn window(max_ticks: i64, a: f64, b: f64) -> (i64, i64) {
    let first = ((a * max_ticks as f64) as i64).clamp(0, max_ticks);
    let remaining = max_ticks - first + 1;
    let count = (1.0 + b * (remaining - 1).min(300) as f64) as i64;
    (first, count.clamp(1, remaining))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Descriptors → wire → expansion reproduces the exact staircase
    /// for both builds, and the builds agree on the descriptors
    /// themselves.
    #[test]
    fn streamed_windows_expand_bit_identically(
        q in 2u32..12,
        max_u in 10.0f64..80.0,
        p in 0u32..4,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let walked = CompressedTable::solve(secs(1.0), q, secs(max_u), p);
        let runs = solve(q, max_u, p);
        let (first, count) = window(walked.max_ticks(), a, b);
        let descriptors = runs.value_runs(p, first, count);
        prop_assert_eq!(&descriptors, &walked.value_runs(p, first, count),
            "builds must emit identical descriptors");

        // Through the real op-3 response codec, frame and all.
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &wire::encode_runs(&descriptors)).unwrap();
        let payload = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
        let expanded = expand_value_runs(&wire::decode_runs(&payload).unwrap());
        prop_assert_eq!(expanded.len() as i64, count);
        for (j, &v) in expanded.iter().enumerate() {
            let l = first + j as i64;
            prop_assert_eq!(v, runs.value_ticks(p, l), "tick {}", l);
            prop_assert_eq!(v, walked.value_ticks(p, l), "tick {} (tick walk)", l);
        }
    }

    /// A response frame truncated at any cut is an error, and any
    /// single flipped payload byte is CRC-detected and classified
    /// transient — a damaged sweep is never believed.
    #[test]
    fn damaged_sweep_frames_are_detected_at_every_position(
        q in 2u32..10,
        max_u in 10.0f64..40.0,
        p in 0u32..3,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let table = solve(q, max_u, p);
        let (first, count) = window(table.max_ticks(), a, b);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &wire::encode_runs(&table.value_runs(p, first, count)))
            .unwrap();
        // Truncation at every cut: error, never a phantom short answer.
        for cut in 0..frame.len() {
            prop_assert!(
                wire::read_frame(&mut &frame[..cut]).map(|f| f.is_none()).unwrap_or(true),
                "cut at {} produced a frame", cut
            );
        }
        // Every single-byte payload flip trips the CRC, and the marker
        // is the transient (retry) class, not a decodable answer.
        for i in 8..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            let err = wire::read_frame(&mut &bad[..]).unwrap_err();
            prop_assert!(wire::is_corrupt_frame(&err), "flip at {} undetected", i);
        }
    }

    /// The broker's streaming entry answers exactly what its op-1 batch
    /// entry answers, tick for tick.
    #[test]
    fn broker_sweeps_match_batch_answers(
        q in 2u32..10,
        max_u in 10.0f64..60.0,
        p in 0u32..3,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let grid = Grid::new(secs(1.0), q);
        let max_ticks = grid.to_ticks(secs(max_u));
        let (first, count) = window(max_ticks, a, b);
        let sweep = SweepQuery {
            setup: secs(1.0),
            ticks_per_setup: q,
            interrupts: p,
            first_tick: first,
            count: u32::try_from(count).unwrap(),
        };
        let runs = broker.serve(&Request::sweep(sweep)).unwrap().into_runs().unwrap();
        let expanded = expand_value_runs(&runs);
        let queries: Vec<GuaranteeQuery> = (0..count)
            .map(|j| GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: q,
                interrupts: p,
                lifespan: grid.to_time(first + j),
            })
            .collect();
        let answers = broker.query_batch(&queries).unwrap();
        prop_assert_eq!(expanded.len(), answers.len());
        for (j, (v, answer)) in expanded.iter().zip(&answers).enumerate() {
            prop_assert_eq!(*v, answer.value_ticks, "tick {}", first + j as i64);
        }
    }
}
