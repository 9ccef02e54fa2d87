//! Per-layer metrics, derived from what the live service exports over
//! wire op 4 (the metrics registry and the span journal) joined with
//! the round trips the clients measured.
//!
//! Along a request's blocking path the layers are: client and wire plus
//! the readiness loop's waits (`loop_wire`: round trip minus the two
//! server spans), the handler dispatch queue (`server.recv`), and the
//! broker call (`server.dispatch`), which splits into admission
//! (`broker.admission`) and resolve (the rest of `broker.batch`: lane,
//! flight, solve and table lookup).

use cyclesteal_obs::{Sample, SpanRecord};
use std::collections::HashMap;

/// One named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn total(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn labelled(samples: &[Sample], name: &str, key: &str, value: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value))
        .map(|s| s.value)
        .sum()
}

/// Server-side stage durations of one trace, in nanoseconds.
#[derive(Default)]
struct Stages {
    recv: Option<u64>,
    dispatch: Option<u64>,
    admission: Option<u64>,
    batch: Option<u64>,
}

/// Counters read from the registry at the start and end of the window.
pub struct Pulls<'a> {
    pub before: &'a [Sample],
    pub after: &'a [Sample],
    pub spans: &'a [SpanRecord],
}

/// The per-layer metrics of one window. `traces` are the clients'
/// `(trace id, round trip ns)`; `extra` are the load generator's and the
/// codec's own figures, appended as given.
pub fn per_layer(pulls: &Pulls<'_>, traces: &[(u64, u64)], extra: &[Metric]) -> Vec<Metric> {
    let mut stages: HashMap<u64, Stages> = HashMap::new();
    for span in pulls.spans {
        let entry = stages.entry(span.trace_id).or_default();
        let d = Some(span.duration_ns());
        match span.stage.as_str() {
            "server.recv" => entry.recv = d,
            "server.dispatch" => entry.dispatch = d,
            "broker.admission" => entry.admission = d,
            "broker.batch" => entry.batch = d,
            _ => {}
        }
    }
    let (mut loop_wire, mut queue, mut broker, mut admission, mut resolve) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (id, rtt) in traces {
        let Some(s) = stages.get(id) else { continue };
        if let (Some(recv), Some(dispatch)) = (s.recv, s.dispatch) {
            loop_wire.push(rtt.saturating_sub(recv + dispatch));
            queue.push(recv);
            broker.push(dispatch);
        }
        if let (Some(adm), Some(batch)) = (s.admission, s.batch) {
            admission.push(adm);
            resolve.push(batch.saturating_sub(adm));
        }
    }
    let joined = loop_wire.len() as f64;
    let us = |v: &mut Vec<u64>| percentile(v, 0.5) as f64 / 1e3;

    // Counters cover the traffic, warm-up included; the solve profile
    // covers every solve of the instance, so workloads that solve only
    // at set-up (the corpus) still report the solver's cost per table.
    let delta = |name: &str| total(pulls.after, name).saturating_sub(total(pulls.before, name));
    let tcp =
        |samples: &[Sample]| labelled(samples, "cyclesteal_requests_total", "endpoint", "tcp");
    let solve_ns = total(pulls.after, "cyclesteal_solve_phase_ns_sum");
    let solves = labelled(
        pulls.after,
        "cyclesteal_solve_phase_ns_count",
        "phase",
        "event_loop",
    );

    let mut out = vec![
        ("loop_wire_p50_us", us(&mut loop_wire), "us"),
        ("dispatch_queue_p50_us", us(&mut queue), "us"),
        ("broker_p50_us", us(&mut broker), "us"),
        ("admission_p50_us", us(&mut admission), "us"),
        ("resolve_p50_us", us(&mut resolve), "us"),
        (
            "solve_us_per_table",
            solve_ns as f64 / 1e3 / solves.max(1) as f64,
            "us",
        ),
        (
            "requests",
            tcp(pulls.after).saturating_sub(tcp(pulls.before)) as f64,
            "count",
        ),
        (
            "cache_hits",
            delta("cyclesteal_cache_shard_hits") as f64,
            "count",
        ),
        (
            "cache_misses",
            delta("cyclesteal_cache_shard_misses") as f64,
            "count",
        ),
        (
            "cache_evictions",
            delta("cyclesteal_cache_shard_evictions") as f64,
            "count",
        ),
        (
            "resilience_events",
            delta("cyclesteal_resilience_events") as f64,
            "count",
        ),
        ("spans_joined", joined, "count"),
    ];
    out.extend_from_slice(extra);
    out
}
