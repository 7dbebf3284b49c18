//! Determinism regression: the seeded-RNG contract the Monte Carlo layer
//! depends on. `ft_graph::gen::rng(seed)` must produce a byte-identical
//! stream across runs (and across machines), and `FailureInstance::sample`
//! driven by it must reproduce the exact same failure pattern.
//!
//! The golden constants below pin the current generator: the vendored
//! xoshiro256++ shim (upstream `rand 0.9`'s `SmallRng` algorithm, but
//! with its own seed expansion — streams are NOT bit-identical to
//! registry `rand`). If any of these assertions fail, the RNG stream has
//! changed and every recorded experiment/baseline seed is invalidated —
//! treat that as a breaking change, not a test to update casually.

use fault_tolerant_switching::failure::{FailureInstance, FailureModel};
use fault_tolerant_switching::graph::gen::rng;
use fault_tolerant_switching::graph::{EdgeId, VertexId};
use rand::Rng;

#[test]
fn raw_u64_stream_is_pinned() {
    let mut r = rng(0xDEAD_BEEF);
    let words: Vec<u64> = (0..8).map(|_| r.random::<u64>()).collect();
    assert_eq!(
        words,
        [
            9246088561534189997,
            18157228972781845203,
            9638398704527162881,
            8137535868154169423,
            4942760288235217420,
            18397014035429101862,
            1856516097349913093,
            1928640595564019879,
        ]
    );
}

#[test]
fn range_stream_is_pinned() {
    let mut r = rng(7);
    let vals: Vec<usize> = (0..6).map(|_| r.random_range(0..1000usize)).collect();
    assert_eq!(vals, [505, 901, 861, 581, 214, 476]);
}

/// FNV-1a over the sampled switch states.
fn fingerprint(inst: &FailureInstance) -> u64 {
    let mut fp: u64 = 0xCBF2_9CE4_8422_2325;
    for e in 0..inst.len() {
        fp ^= inst.state(EdgeId::from(e)) as u8 as u64;
        fp = fp.wrapping_mul(0x100_0000_01B3);
    }
    fp
}

#[test]
fn failure_sampling_is_pinned() {
    let model = FailureModel::new(1e-2, 1e-2);
    let mut r = rng(42);
    let inst = FailureInstance::sample(&model, &mut r, 10_000);
    let (open, closed, normal) = inst.counts();
    assert_eq!((open, closed, normal), (98, 92, 9810));
    assert_eq!(fingerprint(&inst), 0x8d90346320db69e1);
}

#[test]
fn same_seed_same_stream_independent_instances() {
    let model = FailureModel::new(3e-3, 1e-3);
    for seed in [0u64, 1, 0x5EED_CAFE, u64::MAX] {
        let mut a = rng(seed);
        let mut b = rng(seed);
        for _ in 0..256 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let ia = FailureInstance::sample(&model, &mut a, 4096);
        let ib = FailureInstance::sample(&model, &mut b, 4096);
        assert_eq!(fingerprint(&ia), fingerprint(&ib));
        assert_eq!(ia.counts(), ib.counts());
    }
}

#[test]
fn resample_matches_fresh_sample() {
    let model = FailureModel::new(1e-2, 2e-2);
    let mut a = rng(11);
    let mut b = rng(11);
    let fresh = FailureInstance::sample(&model, &mut a, 2048);
    let mut reused = FailureInstance::perfect(2048);
    reused.resample(&model, &mut b, 2048);
    assert_eq!(fingerprint(&fresh), fingerprint(&reused));
}

/// The packed [`FailureInstance`] sampler must reproduce the exact golden
/// stream the unpacked `Vec<SwitchState>` reference sampler is pinned to
/// (above, `failure_sampling_is_pinned`): in the sparse regime both
/// consume the RNG identically, so the byte-for-byte states — and hence
/// the recorded fingerprints — carry over to the bitset representation.
#[test]
fn mask_sampling_matches_reference_golden_fingerprint() {
    let model = FailureModel::new(1e-2, 1e-2);
    // the packed FailureInstance reproduces the pinned fingerprint
    let inst = FailureInstance::sample(&model, &mut rng(42), 10_000);
    assert_eq!(fingerprint(&inst), 0x8d90346320db69e1);
    // and matches the unpacked reference sampler state by state
    let states = model.sample_states(&mut rng(42), 10_000);
    assert_eq!(inst.to_states(), states);
    assert_eq!(FailureInstance::from_states(states), inst);
}

/// Sparse equivalence across asymmetric models: every total failure
/// probability below `DENSE_CUTOFF` must give bit-identical states
/// between the packed and reference samplers.
#[test]
fn mask_matches_reference_across_sparse_models() {
    for (e1, e2) in [(3e-3, 1e-3), (1e-2, 2e-2), (0.0, 0.05), (0.06, 0.0)] {
        let model = FailureModel::new(e1, e2);
        assert!(model.total() < FailureModel::DENSE_CUTOFF);
        for seed in [0u64, 7, 0x5EED_CAFE] {
            let states = model.sample_states(&mut rng(seed), 4096);
            let inst = FailureInstance::sample(&model, &mut rng(seed), 4096);
            assert_eq!(inst.to_states(), states, "({e1}, {e2}) seed {seed}");
        }
    }
}

/// The dense word-fill path is deterministic per seed and keeps the
/// model's marginals (its RNG stream legitimately differs from the
/// per-switch reference — two switches per `u64` draw).
#[test]
fn mask_dense_word_fill_is_deterministic_and_calibrated() {
    let model = FailureModel::symmetric(0.1); // total 0.2 ≥ DENSE_CUTOFF
    assert!(model.total() >= FailureModel::DENSE_CUTOFF);
    let a = FailureInstance::sample(&model, &mut rng(5), 100_000);
    let b = FailureInstance::sample(&model, &mut rng(5), 100_000);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let (open, closed, _) = a.counts();
    assert!((open as f64 / 100_000.0 - 0.1).abs() < 0.01, "open {open}");
    assert!(
        (closed as f64 / 100_000.0 - 0.1).abs() < 0.01,
        "closed {closed}"
    );
}

/// FNV-1a over a sliced block's open/closed word planes, switch-major,
/// little-endian bytes — the bit-sliced analogue of [`fingerprint`].
fn plane_fingerprint(s: &fault_tolerant_switching::failure::SlicedFailureMask) -> u64 {
    let mut fp: u64 = 0xCBF2_9CE4_8422_2325;
    for i in 0..s.len() {
        for w in [s.open_word(i), s.closed_word(i)] {
            for b in w.to_le_bytes() {
                fp ^= b as u64;
                fp = fp.wrapping_mul(0x100_0000_01B3);
            }
        }
    }
    fp
}

/// The bit-sliced sampler's streams are pinned like the scalar ones
/// above. Sparse regime: the switch-major alias-table walk owns its
/// stream; its plane fingerprint and block-wide counts are pinned. (Its
/// lanes are *not* consecutive scalar samples, so no lane reproduces the
/// scalar golden fingerprint; the scalar references read their trials
/// from the lanes instead.) Dense regime: the MSB-first comparator owns
/// its stream; its plane fingerprint is pinned directly. A change to
/// either constant invalidates every recorded sliced baseline —
/// breaking change, not a casual update.
#[test]
fn sliced_sampler_streams_are_pinned() {
    use fault_tolerant_switching::failure::SlicedFailureMask;

    let mut sliced = SlicedFailureMask::new();
    let counts = |sliced: &SlicedFailureMask| {
        let (mut open, mut closed) = (0u64, 0u64);
        for i in 0..sliced.len() {
            assert_eq!(sliced.open_word(i) & sliced.closed_word(i), 0);
            open += sliced.open_word(i).count_ones() as u64;
            closed += sliced.closed_word(i).count_ones() as u64;
        }
        (open, closed)
    };

    // sparse: same model/seed as `failure_sampling_is_pinned`
    let sparse = FailureModel::new(1e-2, 1e-2);
    sparse.sample_sliced_into(&mut rng(42), 10_000, &mut sliced);
    assert_eq!(plane_fingerprint(&sliced), 0x180b6a2bbf772b71);
    // marginals over 640_000 lane-trials stay calibrated
    assert_eq!(counts(&sliced), (6_329, 6_430));

    // dense: comparator stream, same model/seed as the dense scalar pin
    let dense = FailureModel::symmetric(0.1);
    dense.sample_sliced_into(&mut rng(5), 10_000, &mut sliced);
    assert_eq!(plane_fingerprint(&sliced), 0xe2d9cc9e206bd667);
    assert_eq!(counts(&sliced), (64_240, 64_099));
}

/// The simulation engine's event stream is part of the same contract:
/// a fixed `(scenario, seed)` pair must reproduce the identical stream
/// (pinned by its FNV fingerprint) and a byte-identical JSON report,
/// across runs, thread counts and build profiles. As with the RNG
/// constants above, a change here invalidates every recorded scenario —
/// treat it as a breaking change.
#[test]
fn sim_event_stream_and_report_are_pinned() {
    use fault_tolerant_switching::sim;

    const SCENARIO: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
fault_rate = 0.003
mttr = 10
duration = 60
seeds = 2
seed_base = 5
buckets = 4
threads = 2
";
    let report = sim::run_scenario_text(SCENARIO).expect("scenario parses");
    assert_eq!(report.outcomes.len(), 2);
    // golden event-stream fingerprints (recorded 2026-07, re-pinned 2026-10
    // when switch ids moved to tail order and faults moved with them;
    // see header)
    assert_eq!(report.outcomes[0].seed, 5);
    assert_eq!(report.outcomes[0].events, 404);
    assert_eq!(report.outcomes[0].fingerprint, 0x7df1e0033ca7a392);
    assert_eq!(report.outcomes[1].seed, 6);
    assert_eq!(report.outcomes[1].events, 425);
    assert_eq!(report.outcomes[1].fingerprint, 0xc82e05a19d8f2d10);

    // byte-identical report across repeated runs and thread counts
    let json = report.to_json();
    let again = sim::run_scenario_text(SCENARIO).unwrap().to_json();
    assert_eq!(json, again);
    let serial = {
        let mut s = sim::Scenario::parse(SCENARIO).unwrap();
        s.threads = 1;
        let fabric = s.fabric.build();
        let outcomes = sim::run_sweep(&fabric, &s.config, &s.seed_list(), 1);
        sim::Report::new(s, &fabric, outcomes).to_json()
    };
    // the only difference between the two texts is the echoed thread
    // count — which the report deliberately does NOT echo, because it
    // must not affect results
    assert_eq!(json, serial);

    // pin a few rendered bytes so the JSON writer itself cannot drift
    assert!(json.contains("\"fingerprint\": \"0x7df1e0033ca7a392\""));
    assert!(json.contains("\"network\": \"clos-strict 2 3\""));
}

/// The PR-7 correlated injectors extend the event-stream contract: one
/// storm seed and one targeted-adversary seed are pinned alongside the
/// i.i.d. goldens above. As ever, a change here means every recorded
/// storm scenario is invalidated — breaking change, not a casual update.
#[test]
fn correlated_injector_streams_are_pinned() {
    use fault_tolerant_switching::sim;

    const STORM: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
faults = storm 0.08 2.0
retry = budget 3 backoff 0.5 shed 8
mttr = 10
duration = 60
seeds = 1
seed_base = 5
buckets = 4
";
    let report = sim::run_scenario_text(STORM).expect("storm scenario parses");
    let out = &report.outcomes[0];
    assert_eq!(out.seed, 5);
    assert_eq!(out.events, 532, "storm events");
    assert_eq!(out.fingerprint, 0xf4e9974f0271a196, "storm fingerprint");
    assert!(out.metrics.storms > 0);
    assert!(out.metrics.faults > out.metrics.storms);
    // byte-identical report on a rerun
    assert_eq!(
        report.to_json(),
        sim::run_scenario_text(STORM).unwrap().to_json()
    );

    const TARGETED: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
faults = targeted 0.05
mttr = 10
duration = 60
seeds = 1
seed_base = 9
buckets = 4
";
    let report = sim::run_scenario_text(TARGETED).expect("targeted scenario parses");
    let out = &report.outcomes[0];
    assert_eq!(out.seed, 9);
    assert_eq!(out.events, 345, "targeted events");
    assert_eq!(out.fingerprint, 0x4ef793e9fcb2f216, "targeted fingerprint");
    assert!(out.metrics.faults > 0);
    assert_eq!(
        report.to_json(),
        sim::run_scenario_text(TARGETED).unwrap().to_json()
    );
}

/// The PR-9 reroute planners extend the event-stream contract in two
/// directions. First, `reroute = greedy` (and omitting the directive)
/// must reproduce the storm golden pinned above **verbatim** — the
/// min-cost machinery must be invisible until asked for. Second, the
/// `reroute = mincost` stream gets its own pinned fingerprint; it
/// legitimately differs from greedy (different placements change the
/// downstream dynamics), but must never drift across runs.
#[test]
fn reroute_planner_streams_are_pinned() {
    use fault_tolerant_switching::sim;

    const STORM_GREEDY: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
faults = storm 0.08 2.0
retry = budget 3 backoff 0.5 shed 8
reroute = greedy
mttr = 10
duration = 60
seeds = 1
seed_base = 5
buckets = 4
";
    let report = sim::run_scenario_text(STORM_GREEDY).expect("greedy scenario parses");
    let out = &report.outcomes[0];
    // the PR-7 storm golden, unchanged: spelling out the greedy default
    // is a no-op, and the greedy stream is byte-identical to pre-PR-9
    assert_eq!(out.events, 532, "greedy events");
    assert_eq!(out.fingerprint, 0xf4e9974f0271a196, "greedy fingerprint");
    assert!(report.to_json().contains("\"reroute\": \"greedy\""));

    // A denser Beneš storm where the two planners genuinely diverge:
    // on light scenarios (e.g. the clos-strict golden above) both
    // planners admit the same circuits and the queue-pop fingerprints
    // coincide, which would pin nothing about the mincost path.
    const STORM_BENES: &str = "\
network = benes 3
arrival_rate = 10
holding = exp 1.2
faults = storm 0.12 2.0
retry = budget 3 backoff 0.5 shed 8
reroute = mincost
mttr = 8
duration = 80
seeds = 1
seed_base = 5
buckets = 4
";
    let report = sim::run_scenario_text(STORM_BENES).expect("mincost scenario parses");
    let out = &report.outcomes[0];
    assert_eq!(out.events, 1232, "mincost events");
    assert_eq!(out.fingerprint, 0x6598698df7f4c840, "mincost fingerprint");
    assert!(out.metrics.storms > 0);
    assert_eq!(
        (out.metrics.rerouted, out.metrics.moved),
        (3, 17),
        "mincost kill waves book success-only moves"
    );
    // split nodes the planner settled over the run's placements
    assert_eq!(out.kernel.mincost_pops, 301, "mincost planner pops");
    let json = report.to_json();
    assert!(json.contains("\"reroute\": \"mincost\""));
    assert!(json.contains("\"moved\""));
    // byte-identical report on a rerun
    assert_eq!(json, sim::run_scenario_text(STORM_BENES).unwrap().to_json());

    // Same scenario under the greedy planner: a different event stream
    // (the planners place different circuits) and more executed moves,
    // because greedy books its failed attempts too. It reroutes more
    // victims (4 against 3): mincost places a wave's victims one by one
    // in kill order, each on a cheapest path, and never repacks them.
    let greedy = sim::run_scenario_text(&STORM_BENES.replace("mincost", "greedy"))
        .expect("greedy scenario parses");
    let gout = &greedy.outcomes[0];
    assert_eq!(gout.events, 1247, "greedy events");
    assert_eq!(gout.fingerprint, 0xbe21450a60d7392e, "greedy fingerprint");
    assert_ne!(gout.fingerprint, out.fingerprint, "planners must diverge");
    assert_eq!(gout.kernel.mincost_pops, 0, "greedy never runs the planner");
    assert_eq!(
        (gout.metrics.rerouted, gout.metrics.moved),
        (4, 27),
        "greedy counts every attempted move"
    );
    assert!(
        out.metrics.moved < gout.metrics.moved,
        "mincost must disrupt fewer circuits than greedy"
    );
}

/// The route search's work counter is deterministic too, and unlike the
/// fingerprints it is *meant* to move when the search gets cheaper: a
/// kernel change must leave every fingerprint above untouched and show
/// up here, as a reviewed diff of `SeedOutcome.kernel.bibfs_pops`
/// (CHANGES.md records old → new). A pop is one vertex whose edge list
/// the router's depth-first descent scanned, so an unobstructed connect
/// costs one pop per switch of its path. Three legs: the benchmark's 𝒩
/// under hotspot traffic with i.i.d. faults, a strict Clos under stage
/// storms, and the paper's own ν = 1 network (`scenarios/
/// paper_nu1_smoke.ftsim`, where a flood cost 4,100 pops per search);
/// events and fingerprints ride along so a counter diff can be told
/// apart from a changed run.
#[test]
fn route_search_work_counters_are_pinned() {
    use fault_tolerant_switching::sim;

    const FTN_HOTSPOT: &str = "\
network = ftn 2 8 8 1.0
pattern = hotspot 0.25 0.5
arrival_rate = 100
holding = exp 0.08
fault_rate = 0.0001
mttr = 1
duration = 30
seeds = 1
seed_base = 3
buckets = 4
";
    let out = &sim::run_scenario_text(FTN_HOTSPOT)
        .expect("hotspot scenario parses")
        .outcomes[0];
    assert_eq!((out.seed, out.events), (3, 4483), "hotspot events");
    assert_eq!(out.fingerprint, 0xb7a4d1032a17d4c6, "hotspot fingerprint");
    assert_eq!(out.kernel.bibfs_pops, 11_639, "hotspot bibfs_pops");

    const CLOS_STORM: &str = "\
network = clos-strict 4 4
arrival_rate = 6
holding = exp 1.0
faults = storm 0.05 2 2
retry = budget 3 backoff 0.5 shed 16
mttr = 3
duration = 120
seeds = 1
seed_base = 1
buckets = 4
";
    let out = &sim::run_scenario_text(CLOS_STORM)
        .expect("storm scenario parses")
        .outcomes[0];
    assert_eq!((out.seed, out.events), (1, 2079), "storm events");
    assert_eq!(out.fingerprint, 0x20ecc9a4c927716b, "storm fingerprint");
    assert_eq!(out.kernel.bibfs_pops, 2_077, "storm bibfs_pops");

    let out = &sim::run_scenario_text(include_str!("../scenarios/paper_nu1_smoke.ftsim"))
        .expect("paper ν = 1 scenario parses")
        .outcomes[0];
    assert_eq!((out.seed, out.events), (1, 838), "paper ν = 1 events");
    assert_eq!(
        out.fingerprint, 0xcf84967aabeccece,
        "paper ν = 1 fingerprint"
    );
    let searches = out.metrics.connected + out.metrics.blocked;
    assert_eq!((searches, out.kernel.bibfs_pops), (247, 988), "paper ν = 1");
    assert!(out.kernel.bibfs_pops <= 8 * searches, "pops per search");
}

/// The `ftexp` grid runner extends the same contract to whole studies:
/// the aggregate JSON and CSV tables must be byte-identical across
/// worker counts AND across a cache-cold vs cache-warm run, and the
/// warm run must compute zero cells (100% cell-cache hits). A change
/// that breaks any of these invalidates every recorded study table.
#[test]
fn ftexp_tables_are_byte_identical_across_threads_and_cache_state() {
    use fault_tolerant_switching::exp::{run_grid, to_csv, to_json, GridSpec, RunOptions};

    const GRID: &str = "\
arrival_rate  = 5.0
mttr          = 10
duration      = 40
seeds         = 2
buckets       = 2
static_trials = 500
sweep network    = clos-strict 2 2 | benes 2
sweep fault_rate = 0.002, 0.01
";
    let spec = GridSpec::parse(GRID).unwrap();
    let no_cache = |threads| RunOptions {
        threads,
        cache_dir: None,
        recompute: false,
    };

    // thread-count independence (cache disabled: all cells computed)
    let serial = run_grid(&spec, &no_cache(1)).unwrap();
    assert_eq!((serial.computed, serial.cached, serial.skipped), (4, 0, 0));
    let reference_json = to_json(&spec, &serial);
    let reference_csv = to_csv(&spec, &serial);
    for threads in [3, 0] {
        let other = run_grid(&spec, &no_cache(threads)).unwrap();
        assert_eq!(to_json(&spec, &other), reference_json, "threads {threads}");
        assert_eq!(to_csv(&spec, &other), reference_csv, "threads {threads}");
    }

    // cache-cold vs cache-warm byte identity, plus full warm hits
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ftexp-determinism");
    let _ = std::fs::remove_dir_all(&dir);
    let with_cache = |threads| RunOptions {
        threads,
        cache_dir: Some(dir.clone()),
        recompute: false,
    };
    let cold = run_grid(&spec, &with_cache(2)).unwrap();
    assert_eq!((cold.computed, cold.cached), (4, 0));
    let warm = run_grid(&spec, &with_cache(1)).unwrap();
    assert_eq!(
        (warm.computed, warm.cached),
        (0, 4),
        "warm run must hit the cell cache for every cell"
    );
    assert_eq!(to_json(&spec, &cold), reference_json);
    assert_eq!(to_json(&spec, &warm), reference_json);
    assert_eq!(to_csv(&spec, &warm), reference_csv);

    // structural pins: per-seed fingerprints present, accounting absent
    assert!(reference_json.contains("\"fingerprint\": \"0x"));
    assert!(
        !reference_json.contains("cached"),
        "run accounting must never leak into the study bytes"
    );
}

/// The bytes of every JSON, CSV and cache artifact are pinned, not only
/// their self-consistency above: `fnv1a` and byte length of the `ftsim`
/// report of the `clos-strict 2 3` scenario and of the CI storm smoke,
/// both tables and the four concatenated cache cells of the `ftexp`
/// study above, and the storm smoke's exported replay stream. A change
/// to how any of them is written must leave all of these untouched.
#[test]
fn report_table_cell_and_stream_bytes_are_pinned() {
    use fault_tolerant_switching::exp::{cache, run_grid, to_csv, to_json, GridSpec, RunOptions};
    use fault_tolerant_switching::obs::fnv1a;
    use fault_tolerant_switching::sim;

    const CLOS_2_3: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
fault_rate = 0.003
mttr = 10
duration = 60
seeds = 2
seed_base = 5
buckets = 4
threads = 2
";
    const SMOKE: &str = include_str!("../scenarios/storm_smoke.ftsim");
    const GRID: &str = "\
arrival_rate  = 5.0
mttr          = 10
duration      = 40
seeds         = 2
buckets       = 2
static_trials = 500
sweep network    = clos-strict 2 2 | benes 2
sweep fault_rate = 0.002, 0.01
";
    let spec = GridSpec::parse(GRID).unwrap();
    let study = run_grid(&spec, &RunOptions::default()).unwrap();
    let cells: String = study
        .cells
        .iter()
        .map(|c| {
            let (data, _) = c.data.as_ref().expect("every cell runs");
            cache::render(c.cell.hash.unwrap(), data)
        })
        .collect();
    let smoke = sim::Scenario::parse(SMOKE).unwrap();
    let stream = sim::stream::export_stream(&smoke, smoke.seed_list()[0]);
    let artifacts = [
        (
            "clos-strict 2 3 report",
            sim::run_scenario_text(CLOS_2_3).unwrap().to_json(),
            (0x4ac375a0b8296068, 4_194),
        ),
        (
            "storm_smoke report",
            sim::run_scenario_text(SMOKE).unwrap().to_json(),
            (0x256012c18a190ebb, 4_845),
        ),
        (
            "study json",
            to_json(&spec, &study),
            (0xaef07ba3bbf5194d, 10_758),
        ),
        (
            "study csv",
            to_csv(&spec, &study),
            (0x24806e72982c745c, 1_538),
        ),
        ("cache cells", cells, (0xc97ef68610b0ee0b, 4_997)),
        (
            "storm_smoke stream",
            sim::stream::render_ndjson(&stream),
            (0x62e3de477831c945, 189_127),
        ),
    ];
    for (name, bytes, want) in artifacts {
        assert_eq!((fnv1a(bytes.as_bytes()), bytes.len()), want, "{name}");
    }
}

/// The PR-8 observability layer extends the contract to the NDJSON
/// event trace: tracing a sweep must not perturb the event stream or
/// the report (the golden fingerprints above stay pinned with the
/// no-op observer because tracing is write-only), and the trace itself
/// is byte-identical across reruns and thread counts. Different seeds
/// diverge at the very first event — the seed header — which is what
/// makes `trace_diff` useful as a bisection tool.
#[test]
fn ndjson_trace_is_byte_identical_across_runs_and_threads() {
    use fault_tolerant_switching::obs::{first_divergence, TraceDiff};
    use fault_tolerant_switching::sim;

    const SCENARIO: &str = "\
network = clos-strict 2 3
arrival_rate = 4
holding = exp 0.8
fault_rate = 0.003
mttr = 10
duration = 60
seeds = 2
seed_base = 5
buckets = 4
";
    let s = sim::Scenario::parse(SCENARIO).unwrap();
    let fabric = s.fabric.build();
    let seeds = s.seed_list();

    // tracing is write-only: outcomes match the untraced sweep exactly,
    // so the golden fingerprints pinned above cover the traced path too
    let untraced = sim::run_sweep(&fabric, &s.config, &seeds, 1);
    let (traced, trace) = sim::run_sweep_traced(&fabric, &s.config, &seeds, 1);
    assert_eq!(untraced, traced);
    assert_eq!(traced[0].fingerprint, 0x7df1e0033ca7a392);
    assert_eq!(traced[1].fingerprint, 0xc82e05a19d8f2d10);

    // byte-identical across a rerun and across worker counts
    let (_, rerun) = sim::run_sweep_traced(&fabric, &s.config, &seeds, 1);
    let (_, parallel) = sim::run_sweep_traced(&fabric, &s.config, &seeds, 4);
    assert!(matches!(
        first_divergence(&trace, &rerun),
        TraceDiff::Identical { .. }
    ));
    assert_eq!(trace, parallel, "trace must not depend on thread count");

    // structure: one seed header per seed, every line is one JSON object
    assert_eq!(trace.matches("{\"ev\":\"seed\",\"seed\":").count(), 2);
    for line in trace.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }

    // a perturbed seed diverges at the first event (the seed header)
    let (_, other) = sim::run_sweep_traced(&fabric, &s.config, &[7, 8], 1);
    match first_divergence(&trace, &other) {
        TraceDiff::Divergence { index, .. } => assert_eq!(index, 0),
        TraceDiff::Identical { .. } => panic!("different seeds must diverge"),
    }
}

/// The NDJSON bytes themselves are pinned, not only their
/// self-consistency above: `fnv1a`, byte length and line count of three
/// full traced sweeps. A serializer change (a faster number renderer, a
/// streaming writer) must leave all of them untouched. The legs are the
/// CI storm smoke (two seeds), the same smoke with `shed 2` (the only
/// leg that sheds: 16 terminals never queue 16 pending calls), and the
/// benchmark's `sim_clos_storm` workload cut to `duration = 500`.
/// Together they emit every event tag, `recovery_close` spans and failed
/// reroutes included.
#[test]
fn ndjson_trace_bytes_are_pinned() {
    use fault_tolerant_switching::obs::fnv1a;
    use fault_tolerant_switching::sim;

    const SMOKE: &str = include_str!("../scenarios/storm_smoke.ftsim");
    const CLOS_STORM: &str = "\
network          = clos-strict 4 4
pattern          = uniform
arrival_rate     = 10
holding          = exp 1.0
fault_rate       = 0
fault_open_share = 0.5
faults           = storm 0.05 2 2
retry            = budget 4 backoff 0.25 shed 64
reroute          = mincost
mttr             = 5
duration         = 500
warmup           = 0
buckets          = 10
seeds            = 1
seed_base        = 1
";
    let legs = [
        (
            "storm_smoke",
            SMOKE.to_string(),
            (0xa43a7f794a942999, 482_307, 6_475),
        ),
        (
            "storm_smoke shed 2",
            SMOKE.replace("shed 16", "shed 2"),
            (0x0516b1a14afecf37, 479_498, 6_440),
        ),
        (
            "sim_clos_storm",
            CLOS_STORM.to_string(),
            (0x8ed007c1fd464665, 1_294_489, 17_441),
        ),
    ];
    let mut all = String::new();
    for (name, text, want) in legs {
        let s = sim::Scenario::parse(&text).unwrap();
        let fabric = s.fabric.build();
        let (_, trace) = sim::run_sweep_traced(&fabric, &s.config, &s.seed_list(), 2);
        let got = (fnv1a(trace.as_bytes()), trace.len(), trace.lines().count());
        assert_eq!(got, want, "{name} trace");
        all.push_str(&trace);
    }
    for tag in [
        "seed",
        "arrival",
        "connect",
        "busy_reject",
        "block",
        "hangup",
        "fault",
        "kill",
        "reroute",
        "retry",
        "shed",
        "repair",
        "recovery_close",
    ] {
        assert!(all.contains(&format!("\"ev\":\"{tag}\"")), "no {tag}");
    }
    assert!(all.contains("\"ok\":false"), "no failed reroute");
}

/// The built graph of one fabric per family, pinned: `fnv1a` over the
/// edge list, each vertex's four CSR lists (`out_edges`, `out_heads`,
/// `in_edges`, `in_tails`, each led by its length) and the stage table,
/// all as little-endian `u32`s. The router's paths are lexicographically
/// smallest by out-edge position, so a CSR build that reorders a single
/// list changes every route on that vertex; this pins the bytes, not
/// just the edge multiset. The ftn legs also pin the seeded expander
/// wiring.
#[test]
fn built_graphs_of_every_fabric_family_are_pinned() {
    use fault_tolerant_switching::obs::fnv1a;
    use fault_tolerant_switching::sim::FabricSpec;

    fn graph_bytes(spec: &str) -> (usize, usize, u64) {
        let fabric = FabricSpec::parse(spec).expect("spec parses").build();
        let net = fabric.net();
        let csr = net.csr();
        let mut bytes = Vec::new();
        let mut push = |x: u32| bytes.extend_from_slice(&x.to_le_bytes());
        for (_, t, h) in csr.edges() {
            push(t.0);
            push(h.0);
        }
        for u in csr.vertices() {
            push(csr.out_edges(u).len() as u32);
            csr.out_edges(u).for_each(|e| push(e.0));
            csr.out_heads(u).iter().for_each(|h| push(h.0));
            push(csr.in_edges(u).len() as u32);
            csr.in_edges(u).iter().for_each(|e| push(e.0));
            csr.in_tails(u).iter().for_each(|t| push(t.0));
        }
        net.stage_table().iter().for_each(|&s| push(s));
        (csr.num_vertices(), csr.num_edges(), fnv1a(&bytes))
    }

    let golden: [(&str, (usize, usize, u64)); 8] = [
        ("crossbar 3", (6, 9, 0x6eae020ae57da8b4)),
        ("clos-strict 4 4", (88, 336, 0x99aaaf9294a230a5)),
        ("clos-rearr 2 2", (16, 24, 0x26a1120e523255c5)),
        ("benes 4", (128, 224, 0x3f443cf5c281a125)),
        ("benes 10", (20480, 38912, 0x40bde67099b97225)),
        ("multibutterfly 4 2 7", (80, 224, 0x8019e1a9f00095c3)),
        ("ftn 2 8 8 1.0", (3616, 19424, 0x44ddb318983c279d)),
        ("ftn 1 64 10 34", (49160, 360448, 0x3b56dc678c0a8b55)),
    ];
    for (spec, want) in golden {
        assert_eq!(graph_bytes(spec), want, "{spec}");
    }
}

/// The same eight fabrics, pinned by what survives a renumbering of the
/// switches: `fnv1a` over each vertex's out-heads in list order and its
/// in-tails as a sorted multiset (each led by its length), as
/// little-endian `u32`s. Switch ids enter nowhere, so this golden holds
/// across any change of edge numbering that keeps the physical graph and
/// each tail's head order, which is all the router's path choice reads.
#[test]
fn built_graphs_are_pinned_up_to_switch_numbering() {
    use fault_tolerant_switching::obs::fnv1a;
    use fault_tolerant_switching::sim::FabricSpec;

    fn wiring_hash(spec: &str) -> (usize, usize, u64) {
        let fabric = FabricSpec::parse(spec).expect("spec parses").build();
        let csr = fabric.net().csr();
        let mut bytes = Vec::new();
        let mut push = |x: u32| bytes.extend_from_slice(&x.to_le_bytes());
        for u in csr.vertices() {
            let heads = csr.out_heads(u);
            push(heads.len() as u32);
            heads.iter().for_each(|h| push(h.0));
            let mut tails = csr.in_tails(u).to_vec();
            tails.sort_unstable();
            push(tails.len() as u32);
            tails.iter().for_each(|t| push(t.0));
        }
        (csr.num_vertices(), csr.num_edges(), fnv1a(&bytes))
    }

    let golden: [(&str, (usize, usize, u64)); 8] = [
        ("crossbar 3", (6, 9, 0xb02c88b19ca2f6b4)),
        ("clos-strict 4 4", (88, 336, 0xc6347dc6c08bdca5)),
        ("clos-rearr 2 2", (16, 24, 0xcd5a713744145145)),
        ("benes 4", (128, 224, 0xefd1b37e138050a5)),
        ("benes 10", (20480, 38912, 0x7652c691c1d3f125)),
        ("multibutterfly 4 2 7", (80, 224, 0x0ffc85bdcfd7a624)),
        ("ftn 2 8 8 1.0", (3616, 19424, 0x3fa644f6f3345edd)),
        ("ftn 1 64 10 34", (49160, 360448, 0xddc6a2416cfd207d)),
    ];
    for (spec, want) in golden {
        assert_eq!(wiring_hash(spec), want, "{spec}");
    }
}

/// FNV-1a over a graph's vertex count, edge list and every vertex's
/// out-list and in-list, in list order: a graph grown edge by edge and
/// the same edges sorted into a `Csr` hash alike only if each list keeps
/// its edges in insertion order.
fn adjacency_hash<'a, O: ExactSizeIterator<Item = EdgeId>>(
    edges: impl Iterator<Item = (EdgeId, VertexId, VertexId)>,
    lists: impl Iterator<Item = (O, &'a [EdgeId])>,
) -> (usize, usize, u64) {
    use fault_tolerant_switching::obs::fnv1a;
    let mut bytes = Vec::new();
    let mut push = |x: u32| bytes.extend_from_slice(&x.to_le_bytes());
    let mut m = 0;
    for (e, t, h) in edges {
        assert_eq!(e.index(), m, "edge ids count up from 0");
        push(t.0);
        push(h.0);
        m += 1;
    }
    let mut n = 0;
    for (out, into) in lists {
        push(out.len() as u32);
        out.for_each(|e| push(e.0));
        push(into.len() as u32);
        into.iter().for_each(|e| push(e.0));
        n += 1;
    }
    (n, m, fnv1a(&bytes))
}

/// Pins the graphs built outside a `StagedBuilder`: the five `gen`
/// generators, a contraction quotient, a proximity forest and the two
/// `tree` transformations. Every search over them visits vertices in
/// list order, so a change of representation must keep these bytes.
#[test]
fn free_standing_graphs_are_pinned() {
    use fault_tolerant_switching::core::lowerbound::proximity_forest;
    use fault_tolerant_switching::failure::contraction::contract;
    use fault_tolerant_switching::graph::gen;
    use fault_tolerant_switching::graph::tree::{contract_stretches, reduce_to_degree_3};
    use fault_tolerant_switching::sim::FabricSpec;

    macro_rules! hash {
        ($g:expr) => {{
            let g = &$g;
            adjacency_hash(
                g.edges(),
                g.vertices().map(|u| (g.out_edges(u), g.in_edges(u))),
            )
        }};
    }

    let golden = [
        (
            hash!(gen::random_dag(&mut rng(7), 30, 90)),
            (30, 90, 0x65ad15d2b948ad0f),
        ),
        (
            hash!(gen::random_dag(&mut rng(8), 12, 40)),
            (12, 40, 0x1e41cf20695faed6),
        ),
        (
            hash!(gen::random_tree(&mut rng(7), 40)),
            (40, 39, 0x1bbe15630399f5c6),
        ),
        (
            hash!(gen::random_tree(&mut rng(8), 9)),
            (9, 8, 0x76f481f02cb6f4fe),
        ),
        (
            hash!(gen::random_lemma1_tree(&mut rng(7), 30)),
            (48, 47, 0x7cb2be69cf1b1644),
        ),
        (
            hash!(gen::random_lemma1_tree(&mut rng(8), 7)),
            (8, 7, 0xc958c5efc1fb2833),
        ),
        (
            hash!(gen::caterpillar_tree(5, 2)),
            (15, 14, 0xcafefe3bffc6b208),
        ),
        (
            hash!(gen::caterpillar_tree(1, 4)),
            (5, 4, 0x4d894cc9e2d60705),
        ),
        (
            hash!(gen::complete_dary_tree(3, 3)),
            (40, 39, 0xbd7e431b79ed1e7b),
        ),
        (
            hash!(gen::complete_dary_tree(5, 2)),
            (31, 30, 0xe13b990446d5b5fb),
        ),
    ];
    for (i, (have, want)) in golden.into_iter().enumerate() {
        assert_eq!(have, want, "generator case {i}");
    }

    let tree = gen::random_lemma1_tree(&mut rng(11), 25);
    let reduced = reduce_to_degree_3(&tree).0;
    assert_eq!(hash!(reduced), (48, 47, 0xd6d0ac8bfe5c8d57));
    let forest = contract_stretches(&gen::random_tree(&mut rng(12), 40)).graph;
    assert_eq!(hash!(forest), (32, 31, 0x5df3cebd2e9a4b46));

    let fabric = FabricSpec::parse("benes 4").expect("spec parses").build();
    let net = fabric.net();
    let inst = FailureInstance::sample(&FailureModel::new(0.1, 0.1), &mut rng(13), net.size());
    let quotient = contract(net.graph(), &inst).graph;
    assert_eq!(hash!(quotient), (107, 174, 0x7480b40552f3cff5));
    let mut terminals = net.inputs().to_vec();
    terminals.extend_from_slice(net.outputs());
    let forest = proximity_forest(net.graph(), &terminals, 6).forest;
    assert_eq!(hash!(forest), (128, 40, 0x3fe026c4316fd725));
}
