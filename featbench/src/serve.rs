//! The serving phases: set-up, transform throughput, open-loop tier lookups
//! and live ingest beside a reader.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use feataug::serving::tier::PendingLookup;
use feataug::{
    AugModel, AugPlan, OwnedAugModel, ServingHandle, ServingTier, TierConfig, TierError,
};
use feataug_tabular::{Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fit::tables_bit_identical;
use crate::stats::{iq_mean, median, percentile};
use crate::trace::Tracer;
use crate::workload::{Scale, Scenario, Workload};

/// Open-loop request rate of phase 2, per second. One closed-loop client
/// reaches about 85k/s through the default two-worker tier, so the tier is
/// lightly loaded and latency reflects queueing and wake-up, not a backlog.
/// Gaps of 100 µs also keep idle CPUs from sleeping deeply between requests;
/// at 4k/s the tail measured wake-ups of idle virtual CPUs and swung 10×
/// between runs on a 2-CPU VM.
const TIER_RATE: f64 = 10_000.0;
/// Interleaved rounds of the three serving phases; each metric is the
/// interquartile mean of its per-round values, so a slow stretch of a shared
/// host lands in a few rounds of every metric rather than in all of one.
const ROUNDS: usize = 25;
/// Shares of `--seconds` for the transform and tier phases. Ingest appends a
/// fixed number of batches per round instead, so its work does not depend on
/// the host's speed.
const TRANSFORM_SHARE: f64 = 0.25;
const TIER_SHARE: f64 = 0.5;
/// Relevant rows per appended batch.
const INGEST_BATCH_ROWS: usize = 512;
/// The ingest reader records one lookup latency in this many.
const READER_SAMPLE_EVERY: usize = 8;
/// Keys checked against the full-refit oracle after ingest.
const ORACLE_KEYS: usize = 200;

/// Everything set-up builds: inputs, the compiled serving model, its
/// prepared handle and a running tier. The model stays at epoch 0: ingest
/// rounds append to models of their own.
pub struct Served {
    pub scenario: Scenario,
    view: Arc<Table>,
    model: OwnedAugModel,
    handle: Arc<ServingHandle<'static>>,
    tier: ServingTier,
    /// The transform input: 10× the training table's rows.
    big: Table,
    /// Output of the cold (first) transform, the reference for later ones.
    cold: Table,
    /// One request key per training row.
    keys: Vec<Vec<Value>>,
    /// The direct handle's answer per key.
    expected: Vec<Vec<Option<f64>>>,
}

/// Set up serving for dataset 0 of `seed`. Returns the state, the set-up
/// wall time, and the cold-transform time within it.
pub fn setup(workload: &Workload, seed: u64, scale: Scale) -> (Served, f64, f64) {
    let start = Instant::now();
    let scenario = workload.scenario(seed, 0, scale);
    let view = scenario.serve_view();
    let plan = scenario.serving_plan(&view, seed);
    let model = scenario
        .graph
        .compile(&scenario.task.train, plan.clone())
        .expect("serving plan compiles");
    let train = scenario.train.clone();
    let rows = train.num_rows();
    let big = train.take(&(0..rows * 10).map(|i| i % rows).collect::<Vec<_>>());
    let cold_start = Instant::now();
    let cold = model.transform(&big).expect("cold transform");
    let cold_s = cold_start.elapsed().as_secs_f64();
    let handle = Arc::new(model.prepare().expect("prepare serving handle"));
    let tier = ServingTier::new(Arc::clone(&handle), TierConfig::default());
    let setup_s = start.elapsed().as_secs_f64();

    let keys: Vec<Vec<Value>> = (0..rows)
        .map(|row| {
            plan.key_columns
                .iter()
                .map(|k| train.value(row, k).expect("key value"))
                .collect()
        })
        .collect();
    let expected = keys
        .iter()
        .map(|k| handle.lookup_vec(k).expect("direct lookup"))
        .collect();
    let served = Served {
        scenario,
        view,
        model,
        handle,
        tier,
        big,
        cold,
        keys,
        expected,
    };
    (served, setup_s, cold_s)
}

fn same_bits(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

struct TransformRound {
    median_s: f64,
    transforms: usize,
    failed: usize,
}

/// Phase 1: transform the 10× table repeatedly for `budget`; the round's
/// first output must equal the cold transform bit for bit.
fn transform_round(s: &Served, budget: Duration, tr: Option<&mut Tracer>) -> TransformRound {
    let mut times = Vec::new();
    let mut failed = 0;
    let mut spans = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        let out = s.model.transform(&s.big);
        let t1 = Instant::now();
        times.push((t1 - t0).as_secs_f64());
        spans.push((t0, t1));
        let checked =
            times.len() > 1 || out.as_ref().is_ok_and(|t| tables_bit_identical(t, &s.cold));
        if out.is_err() || !checked {
            failed += 1;
        }
    }
    if let Some(tr) = tr {
        tr.begin_trace();
        for (t0, t1) in spans {
            tr.record("pipeline", "transform", t0, t1);
        }
    }
    TransformRound {
        median_s: median(&times),
        transforms: times.len(),
        failed,
    }
}

pub struct DirectLookups {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub lookups: usize,
}

/// Direct `ServingHandle::lookup` latency on one thread, for `budget`.
pub fn direct_lookups(s: &Served, budget: Duration, tr: &mut Tracer) -> DirectLookups {
    let mut out = Vec::with_capacity(s.handle.num_features());
    let mut samples = Vec::new();
    tr.begin_trace();
    let span = tr.enter("serving", "direct_lookups");
    let start = Instant::now();
    while samples.len() < 1000 || start.elapsed() < budget {
        let key = &s.keys[samples.len() % s.keys.len()];
        let t0 = Instant::now();
        let result = s.handle.lookup(key, &mut out);
        samples.push(t0.elapsed().as_nanos() as f64);
        std::hint::black_box(&out);
        result.expect("direct lookup");
    }
    tr.exit(span);
    samples.sort_by(f64::total_cmp);
    DirectLookups {
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        lookups: samples.len(),
    }
}

struct TierRound {
    sent: usize,
    /// Answers bit-identical to the direct handle's.
    ok: usize,
    shed: usize,
    degraded: usize,
    /// Due → answer percentiles over correct answers, µs.
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Median submit → answer time, without the generator's lateness, µs.
    submit_p50_us: f64,
    late_max_us: f64,
}

/// Phase 2: open-loop lookups through the tier at `TIER_RATE` for `budget`.
///
/// One thread sleeps until each request's due time and submits it; a second
/// collects and checks the answers. Latency runs from the due time, so a
/// stall is charged to every request it delays.
fn tier_round(s: &Served, budget: Duration, seed: u64, tr: Option<&mut Tracer>) -> TierRound {
    let n = ((budget.as_secs_f64() * TIER_RATE) as usize).max(200);
    let interval = Duration::from_secs_f64(1.0 / TIER_RATE);
    let mut rng = StdRng::seed_from_u64(seed);
    let order: Vec<usize> = (0..n).map(|_| rng.gen_range(0..s.keys.len())).collect();
    let before = s.tier.stats();

    // (key index, due, submitted at, admission result)
    type Sent = (usize, Instant, Instant, Result<PendingLookup, TierError>);
    // (correct answer, due, submitted at, answered at)
    type Answered = (bool, Instant, Instant, Instant);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (late_max, answered) = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut got: Vec<Answered> = Vec::with_capacity(n);
            for (key, due, submitted, admitted) in rx {
                let answer = admitted.and_then(PendingLookup::wait);
                let done = Instant::now();
                let correct = answer.is_ok_and(|row| same_bits(&row, &s.expected[key]));
                got.push((correct, due, submitted, done));
            }
            got
        });
        tighten_timer_slack();
        let start = Instant::now() + Duration::from_millis(1);
        let mut late_max = Duration::ZERO;
        for (i, &key) in order.iter().enumerate() {
            let request = s.keys[key].clone();
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            late_max = late_max.max(submitted - due);
            let admitted = s.tier.submit(request);
            tx.send((key, due, submitted, admitted))
                .expect("collector alive");
        }
        drop(tx);
        (late_max, collector.join().expect("collector thread"))
    });
    let stats = s.tier.stats();

    let mut latencies = Vec::with_capacity(n);
    let mut submit_to_answer = Vec::with_capacity(n);
    let mut spans = Vec::new();
    for (i, &(correct, due, submitted, done)) in answered.iter().enumerate() {
        if !correct {
            continue;
        }
        latencies.push(micros(done - due));
        submit_to_answer.push(micros(done - submitted));
        if i % 16 == 0 {
            spans.push((submitted, done));
        }
    }
    if let Some(tr) = tr {
        tr.begin_trace();
        for (t0, t1) in spans {
            tr.record("serving.tier", "submit_to_answer", t0, t1);
        }
    }
    latencies.sort_by(f64::total_cmp);
    submit_to_answer.sort_by(f64::total_cmp);
    TierRound {
        sent: n,
        ok: latencies.len(),
        shed: stats.shed - before.shed,
        degraded: stats.degraded - before.degraded,
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        submit_p50_us: percentile(&submit_to_answer, 0.50),
        late_max_us: micros(late_max),
    }
}

/// Let this thread's sleeps end on time. Linux otherwise defers a sleeping
/// thread's wake-up by up to its timer slack (50 µs by default), which the
/// open-loop generator would charge to every request as lateness.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes only
    // the calling thread's timer slack; no memory is shared with the call.
    // A failure leaves the default slack, which only makes requests later.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

struct IngestRound {
    /// Seconds per append, publish included.
    append_s: Vec<f64>,
    /// Seconds from each append call until the prepared handle serves the
    /// new epoch.
    staleness_s: Vec<f64>,
    /// p99 of the reader's lookups while the appends ran, µs.
    reader_p99_us: f64,
    reader_lookups: usize,
    failed: usize,
}

/// Phase 3: compile a fresh model from a plan drawn like the serving plan
/// (from the round's seed), then append `batches` relevant batches to it
/// while one reader thread does prepared lookups. Each round starts from the
/// same table, and the mean over rounds spans several plans, so the append
/// cost of one draw of predicates does not set the metric. With `check`, the
/// result is compared with the full-refit oracle.
fn ingest_round(
    s: &Served,
    batches: usize,
    seed: u64,
    check: bool,
    tr: Option<&mut Tracer>,
) -> IngestRound {
    let plan = s.scenario.serving_plan(&s.view, seed);
    let model = s
        .scenario
        .graph
        .compile(&s.scenario.task.train, plan.clone())
        .expect("ingest plan compiles");
    let handle = model.prepare().expect("prepare ingest handle");
    let mut rng = StdRng::seed_from_u64(seed);
    let stop = AtomicBool::new(false);
    let mut appended = Vec::with_capacity(batches);
    let mut append_s = Vec::with_capacity(batches);
    let mut staleness_s = Vec::with_capacity(batches);
    let mut spans = Vec::with_capacity(batches);
    let (mut reader_us, reader_lookups) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut out = Vec::with_capacity(handle.num_features());
            let mut samples = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let key = &s.keys[(i * 7919) % s.keys.len()];
                let t0 = Instant::now();
                let result = handle.lookup(key, &mut out);
                if i.is_multiple_of(READER_SAMPLE_EVERY) {
                    samples.push(micros(t0.elapsed()));
                }
                std::hint::black_box(&out);
                result.expect("reader lookup");
                i += 1;
            }
            (samples, i)
        });
        for _ in 0..batches {
            let indices: Vec<usize> = (0..INGEST_BATCH_ROWS)
                .map(|_| rng.gen_range(0..s.view.num_rows()))
                .collect();
            let batch = s.view.take(&indices);
            let t0 = Instant::now();
            let epoch = model.append_relevant(&batch).expect("append batch");
            let published = Instant::now();
            // The reader's next lookup moves the handle to the new epoch.
            while handle.epoch() < epoch.epoch {
                std::thread::yield_now();
            }
            staleness_s.push(t0.elapsed().as_secs_f64());
            append_s.push((published - t0).as_secs_f64());
            spans.push((t0, published));
            appended.push(batch);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    reader_us.sort_by(f64::total_cmp);
    if let Some(tr) = tr {
        tr.begin_trace();
        for (t0, t1) in spans {
            tr.record("exec", "append_relevant", t0, t1);
        }
    }
    let failed = if check {
        check_ingest(s, &plan, &model, &handle, &appended, seed)
    } else {
        0
    };
    IngestRound {
        append_s,
        staleness_s,
        reader_p99_us: percentile(&reader_us, 0.99),
        reader_lookups,
        failed,
    }
}

/// Failed checks of an ingested model against the full-refit oracle, a fresh
/// compile over the concatenated relevant table: the transform, and lookups
/// of sampled keys.
fn check_ingest(
    s: &Served,
    plan: &AugPlan,
    model: &OwnedAugModel,
    handle: &ServingHandle<'static>,
    appended: &[Table],
    seed: u64,
) -> usize {
    let mut full = (*s.view).clone();
    for batch in appended {
        full = full.concat(batch).expect("concat batch");
    }
    let oracle = AugModel::compile_shared(plan.clone(), s.scenario.train.clone(), Arc::new(full))
        .expect("oracle compiles");
    let transform_ok = match (model.transform(&s.big), oracle.transform(&s.big)) {
        (Ok(got), Ok(want)) => tables_bit_identical(&got, &want),
        _ => false,
    };
    let oracle_handle = oracle.prepare().expect("prepare oracle");
    let mut rng = StdRng::seed_from_u64(seed);
    let lookups_failed = (0..ORACLE_KEYS)
        .filter(|_| {
            let key = &s.keys[rng.gen_range(0..s.keys.len())];
            match (handle.lookup_vec(key), oracle_handle.lookup_vec(key)) {
                (Ok(got), Ok(want)) => !same_bits(&got, &want),
                _ => true,
            }
        })
        .count();
    usize::from(!transform_ok) + lookups_failed
}

/// Interquartile means over rounds of what the serving phases measured.
pub struct Serving {
    pub transform_rows_per_s: f64,
    pub transform_s: f64,
    pub tier_p50_us: f64,
    pub tier_p90_us: f64,
    pub tier_p99_us: f64,
    pub tier_submit_p50_us: f64,
    pub tier_ok_ratio: f64,
    pub tier_shed: usize,
    pub tier_degraded: usize,
    pub tier_late_max_us: f64,
    pub ingest_rows_per_s: f64,
    pub append_ms: f64,
    pub staleness_ms: f64,
    pub reader_p99_us: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Run the three serving phases in `ROUNDS` interleaved rounds and report
/// interquartile means over rounds. `ingest_batches` is the total over all
/// rounds.
/// `before_round` runs ahead of each round, untimed by the serving phases;
/// the caller spreads its fits over the run with it.
pub fn serve_rounds(
    s: &Served,
    seconds: f64,
    ingest_batches: usize,
    seed: u64,
    mut tr: Option<&mut Tracer>,
    mut before_round: impl FnMut(usize, usize),
) -> Serving {
    let transform_budget = Duration::from_secs_f64(seconds * TRANSFORM_SHARE / ROUNDS as f64);
    let tier_budget = Duration::from_secs_f64(seconds * TIER_SHARE / ROUNDS as f64);
    let batches = ingest_batches.div_ceil(ROUNDS);
    let mut transform_s = Vec::with_capacity(ROUNDS);
    let (mut tier_p50, mut tier_p90, mut tier_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut tier_submit = Vec::new();
    let (mut append_s, mut staleness_s, mut reader_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut ok, mut shed, mut degraded, mut late_max) = (0, 0, 0, 0, 0.0f64);
    let (mut attempted, mut failed) = (0, 0);
    for round in 0..ROUNDS {
        before_round(round, ROUNDS);
        let round_seed = seed.wrapping_mul(31).wrapping_add(round as u64);

        let transform = transform_round(s, transform_budget, tr.as_deref_mut());
        transform_s.push(transform.median_s);
        attempted += transform.transforms;
        failed += transform.failed;

        let tier = tier_round(s, tier_budget, round_seed, tr.as_deref_mut());
        tier_p50.push(tier.p50_us);
        tier_p90.push(tier.p90_us);
        tier_p99.push(tier.p99_us);
        tier_submit.push(tier.submit_p50_us);
        sent += tier.sent;
        ok += tier.ok;
        shed += tier.shed;
        degraded += tier.degraded;
        late_max = late_max.max(tier.late_max_us);
        attempted += tier.sent;
        failed += tier.sent - tier.ok;

        let check = round + 1 == ROUNDS;
        let ingest = ingest_round(s, batches, round_seed, check, tr.as_deref_mut());
        append_s.push(median(&ingest.append_s));
        staleness_s.push(median(&ingest.staleness_s));
        reader_p99.push(ingest.reader_p99_us);
        attempted += batches + ingest.reader_lookups + if check { ORACLE_KEYS + 1 } else { 0 };
        failed += ingest.failed;
    }
    let append_s = iq_mean(&append_s);
    let transform_s = iq_mean(&transform_s);
    Serving {
        transform_rows_per_s: s.big.num_rows() as f64 / transform_s,
        transform_s,
        tier_p50_us: iq_mean(&tier_p50),
        tier_p90_us: iq_mean(&tier_p90),
        tier_p99_us: iq_mean(&tier_p99),
        tier_submit_p50_us: iq_mean(&tier_submit),
        tier_ok_ratio: ok as f64 / sent as f64,
        tier_shed: shed,
        tier_degraded: degraded,
        tier_late_max_us: late_max,
        ingest_rows_per_s: INGEST_BATCH_ROWS as f64 / append_s,
        append_ms: append_s * 1e3,
        staleness_ms: iq_mean(&staleness_s) * 1e3,
        reader_p99_us: iq_mean(&reader_p99),
        attempted,
        failed,
    }
}
