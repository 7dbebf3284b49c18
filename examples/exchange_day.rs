//! A day at the telephone exchange, replayed through the ft-sim
//! discrete-event engine.
//!
//! `examples/telephone_exchange.rs` strikes each fabric with a *static*
//! failure snapshot and then runs churn. This example tells the same
//! story on the time axis, the way the paper's (ε, δ)-nonblocking claim
//! is actually operational: switches fail *while* the exchange serves
//! calls (per-switch exponential lifetimes), live circuits crossing a
//! dying switch are cut mid-call and re-routed if the fabric still has
//! an idle path, and repair crews restore switches with MTTR 2 h.
//! Traffic is a bursty day profile: quiet hours at the base rate with
//! busy-hour bursts at 3× the load.
//!
//! The same per-switch failure rate hits both fabrics. The
//! fault-tolerant network 𝒩 pays ~60× the switches of the strict Clos
//! — so it absorbs ~60× the *absolute* fault count — and still
//! re-establishes essentially every cut call, which is exactly the
//! repair-and-keep-serving guarantee of Theorem 2.
//!
//! Run with: `cargo run --release --example exchange_day`

use fault_tolerant_switching::sim::{
    run_seed, Fabric, FabricSpec, HoldingTime, SimConfig, TrafficPattern,
};

fn day_config(fault_rate_per_hour: f64) -> SimConfig {
    SimConfig {
        arrival_rate: 30.0, // base calls per hour, network-wide
        holding: HoldingTime::Exponential { mean: 0.1 }, // 6-minute calls
        pattern: TrafficPattern::Bursty {
            mean_on: 4.0,  // busy phases average 4 h
            mean_off: 8.0, // quiet phases average 8 h
            boost: 3.0,
        },
        fault_rate: fault_rate_per_hour,
        fault_open_share: 0.5,
        mttr: 2.0, // repair crew: 2 h mean
        duration: 24.0,
        warmup: 0.0,
        buckets: 24, // one per hour
        ..SimConfig::default()
    }
}

fn main() {
    let ftn = FabricSpec::Ftn(2, 8, 8, 1.0).build(); // n = 16 subscribers
    let clos = FabricSpec::ClosStrict(4, 4).build(); // 16 terminals
    println!(
        "exchange fabrics for {} subscribers: N = {} switches, Clos = {} switches\n",
        ftn.terminals(),
        ftn.net().size(),
        clos.net().size()
    );
    println!(
        "{:>10}  {:>26}  {:>26}",
        "eps/hour", "N cut/lost/blocked/calls", "Clos cut/lost/blocked/calls"
    );

    for eps in [0.0, 1e-5, 1e-4, 1e-3] {
        let cfg = day_config(eps);
        let row = |fabric: &Fabric| {
            let out = run_seed(fabric, &cfg, 1992);
            let m = out.metrics;
            (
                format!("{}/{}/{}/{}", m.dropped, m.abandoned, m.blocked, m.offered),
                m.faults,
            )
        };
        let (n_row, n_faults) = row(&ftn);
        let (c_row, c_faults) = row(&clos);
        println!(
            "{:>10}  {:>26}  {:>26}   ({} vs {} switch faults)",
            format!("{eps:.0e}"),
            n_row,
            c_row,
            n_faults,
            c_faults,
        );
    }

    // One closer look at the stressed day on N: the engine's full
    // metrics pipeline for the highest failure rate.
    let out = run_seed(&ftn, &day_config(1e-3), 1992);
    let m = &out.metrics;
    println!(
        "\nstressed day on N (eps = 1e-3/h): {} faults, {} repairs, \
         {} circuits cut mid-call,\n  {} re-routed (mean wait {:.2} \
         fault/repair events), {} lost for good, {} calls blocked",
        m.faults,
        m.repairs,
        m.dropped,
        m.rerouted,
        m.mean_reroute_latency_events(),
        m.abandoned,
        m.blocked,
    );
    let busiest = m
        .buckets
        .iter()
        .enumerate()
        .max_by_key(|(_, b)| b.offered)
        .map(|(h, b)| (h, b.offered))
        .unwrap_or((0, 0));
    println!(
        "  busiest hour: {:02}:00 with {} arrivals; carried load {:.2} erlangs",
        busiest.0,
        busiest.1,
        m.carried_erlangs()
    );
    println!(
        "\nthe same per-switch failure rate hits both fabrics; N absorbs\n\
         two orders of magnitude more absolute faults than the Clos and\n\
         keeps re-establishing cut calls -- the operational face of the\n\
         (eps, delta)-nonblocking guarantee the static snapshot\n\
         experiments certify."
    );
}
