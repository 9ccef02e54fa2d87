//! Multi-tenant fairness acceptance test.
//!
//! Two tenants share one broker. Tenant A fires the deep cold solve
//! (the 10⁹-tick acceptance point in release; two orders smaller in
//! debug so tier-1 `cargo test` stays quick). Tenant B fires warm point
//! queries on its own, already-solved grid the whole time. The fairness
//! contract:
//!
//! * B's p99 under A's load — read from the broker's own per-endpoint
//!   latency digests ([`cyclesteal_serve::BrokerStats`]) — stays within
//!   a fixed multiple of B's solo p99: a tenant's cold solve may warm
//!   the cache, never monopolize the serving path.
//! * Not a single B query sheds while A solves (B's warm hits bypass
//!   the cold-solve lane machinery entirely), and no tenant-quota shed
//!   fires anywhere.
//! * B's answers under load are bit-identical to B's answers solo.

use cyclesteal_core::time::secs;
use cyclesteal_serve::{
    Broker, BrokerConfig, EndpointStats, GuaranteeAnswer, GuaranteeQuery, Request, ServeError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// B's p99 under load may exceed its solo p99 by at most this factor
/// (with a floor absorbing scheduler noise on µs-scale solo numbers).
const P99_FACTOR: u64 = 50;
const P99_FLOOR_US: u64 = 100;

/// Tenant A's cold solve: `Q = 32` at `p = 16`. Release exercises the
/// 10⁹-tick acceptance point; debug scales the lifespan down two orders
/// so the default test profile finishes promptly.
fn deep_query() -> GuaranteeQuery {
    let lifespan = if cfg!(debug_assertions) {
        312_500.0
    } else {
        31_250_000.0
    };
    GuaranteeQuery {
        setup: secs(1.0),
        ticks_per_setup: 32,
        interrupts: 16,
        lifespan: secs(lifespan),
    }
}

/// Tenant B's warm point queries: a small grid, several `(p, L)`
/// points, all answered from one cached table.
fn warm_queries() -> Vec<GuaranteeQuery> {
    (0..8u32)
        .map(|i| GuaranteeQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: 1 + i % 3,
            lifespan: secs(10.0 + 12.0 * f64::from(i)),
        })
        .collect()
}

/// `queries` served as a batch counted under `endpoint`.
fn batch_at(
    broker: &Broker,
    endpoint: &'static str,
    queries: &[GuaranteeQuery],
) -> Result<Vec<GuaranteeAnswer>, ServeError> {
    broker
        .serve(&Request {
            endpoint,
            ..Request::batch(queries)
        })?
        .into_answers()
}

fn endpoint<'a>(stats: &'a [EndpointStats], name: &str) -> &'a EndpointStats {
    stats
        .iter()
        .find(|e| e.endpoint == name)
        .unwrap_or_else(|| panic!("endpoint {name} missing from stats"))
}

#[test]
fn a_cold_tenant_cannot_blow_up_a_warm_tenants_p99() {
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let queries = warm_queries();

    // Warm B's grid, then measure B's solo p99 on its own endpoint.
    let reference: Vec<GuaranteeAnswer> = broker.query_batch(&queries).unwrap();
    let solo_batches = 300;
    for _ in 0..solo_batches {
        let answers = batch_at(&broker, "b_solo", &queries).unwrap();
        assert_eq!(answers, reference, "warm answers drifted solo");
    }
    let solo_p99 = endpoint(&broker.stats().endpoints, "b_solo").p99_us;

    // Tenant A's cold solve runs concurrently with B's warm stream.
    let a_done = Arc::new(AtomicBool::new(false));
    let a_thread = {
        let broker = broker.clone();
        let a_done = a_done.clone();
        std::thread::spawn(move || {
            let result = batch_at(&broker, "a_cold", &[deep_query()]);
            a_done.store(true, Ordering::SeqCst);
            result
        })
    };
    let mut load_batches = 0u64;
    // Keep firing until A lands, with a floor so the p99 digest always
    // has data and a ceiling so a stuck solve fails fast instead of
    // spinning forever.
    while load_batches < 200 || (!a_done.load(Ordering::SeqCst) && load_batches < 500_000) {
        let answers = batch_at(&broker, "b_load", &queries).unwrap();
        assert_eq!(answers, reference, "warm answers drifted under load");
        load_batches += 1;
    }
    let a_answers = a_thread.join().expect("tenant A panicked").unwrap();
    assert!(
        a_answers[0].value_ticks > 0,
        "the deep solve answered nothing"
    );

    let stats = broker.stats();
    let load_p99 = endpoint(&stats.endpoints, "b_load").p99_us;
    let budget = P99_FACTOR * solo_p99.max(P99_FLOOR_US);
    assert!(
        load_p99 <= budget,
        "B's p99 under A's cold solve: {load_p99}µs vs solo {solo_p99}µs \
         (budget {budget}µs over {load_batches} load batches)"
    );

    // Fairness also means *no shedding*: B's warm hits never touch the
    // cold-solve quota, and nothing about this workload may overload
    // the broker.
    assert_eq!(stats.resilience.shed, 0, "a query was shed");
    assert_eq!(
        stats.resilience.tenant_sheds, 0,
        "a tenant-quota shed fired"
    );
    assert_eq!(stats.resilience.deadline_rejects, 0);
}
