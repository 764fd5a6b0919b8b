//! `perfbench`: the repository's benchmark of the serving path, from
//! churn admission through `fi-serve` into a sharded `fi-fleet`, to
//! sealed epochs, committee selection and recovery.
//!
//! ```text
//! perfbench --workload <serve-2m|ingest-wal-100k|select-2m> --seed <n>
//!           --seconds <s> --trace <0|1> --dir <work dir>
//! ```
//!
//! Every workload is a closed loop in lockstep, as `fi_serve::run_scenario`
//! is: each tick the load loop submits the tick's requests and pumps them;
//! every 10th tick it drains the front-end and seals, and the seal finishes
//! before the next tick's requests are offered. Traffic is generated from
//! `--seed` before the clock that times it starts: the set-up traffic
//! before set-up, and each timed epoch's traffic between the previous seal
//! and the epoch's first tick. Set-up ends when the first epoch (the
//! registration wave plus 10 churn ticks) is sealed; only the epochs after
//! it are timed. The timed epoch count is a fixed function of `--seconds`,
//! so that a run's report hash depends only on its inputs.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it runs the workload twice, untraced and then with every
//! call into a layer timed, checks that both give the same report hash,
//! and reports the per-layer metrics and one record per seal.
//!
//! The program prints one JSON object on stdout and exits non-zero if a
//! correctness check failed. `run.py` builds it, runs it and turns that
//! object into the benchmark's result line.

mod adapter;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use adapter::{Hash, Serving};

/// Shards per fleet: one shard worker per core of the 2-core reference
/// host.
const SHARDS: usize = 2;
/// Committee size for every selection.
const COMMITTEE_K: usize = 64;

/// One named workload. See `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    devices: u64,
    mean_ops_per_tick: u64,
    durable: bool,
    /// Timed epochs per second of `--seconds` (the reference host's rate,
    /// so that a run lasts about `--seconds`), and their floor. The floor
    /// of 40 puts the default re-anchor (every 32 seals) inside the timed
    /// window, so that every run times a full seal.
    epochs_per_second: f64,
    min_epochs: u64,
    /// The read side run after each seal.
    select: SelectLoad,
    /// Set-ups per untraced run; `setup_s` is their median.
    setups: usize,
}

/// The read side a workload runs after each seal: the committee from
/// `select_greedy_cached(64)`, cold `select_greedy(64)` queries (the
/// first checks the committee) and monitor reads.
#[derive(Debug, Clone, Copy)]
struct SelectLoad {
    /// Cold `select_greedy(64)` queries per epoch. On `select-2m`, enough
    /// that selection time exceeds seal time on the reference host, so
    /// that a change to either shows in `epochs_per_s`.
    cold_queries: usize,
    /// Monitor reads of the served entropy per epoch.
    monitor_reads: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "serve-2m",
        devices: 2_000_000,
        mean_ops_per_tick: 20_000,
        durable: false,
        epochs_per_second: 4.0,
        min_epochs: 40,
        select: SelectLoad {
            cold_queries: 1,
            monitor_reads: 1_000,
        },
        setups: 3,
    },
    Spec {
        name: "ingest-wal-100k",
        devices: 100_000,
        mean_ops_per_tick: 20_000,
        durable: true,
        // 230 timed epochs at 20 s: the last seal is then 7 past the newest
        // checkpoint (default cadence 8), the longest tail recovery replays.
        epochs_per_second: 11.5,
        min_epochs: 40,
        select: SelectLoad {
            cold_queries: 10,
            monitor_reads: 1_000,
        },
        setups: 15,
    },
    Spec {
        name: "select-2m",
        devices: 2_000_000,
        mean_ops_per_tick: 100,
        durable: false,
        epochs_per_second: 4.0,
        min_epochs: 40,
        select: SelectLoad {
            cold_queries: 40,
            monitor_reads: 10_000,
        },
        setups: 3,
    },
];

impl Spec {
    /// Timed epochs for a run of `seconds`: at least `min_epochs`, and a
    /// whole number of cycles of the population's diurnal load curve, so
    /// that every run sees the same mix of peak and trough ticks.
    fn timed_epochs(&self, seconds: u64) -> u64 {
        let cycle = (adapter::diurnal_period() / adapter::epoch_ticks()).max(1);
        let wanted = (seconds as f64 * self.epochs_per_second).round() as u64;
        wanted.max(self.min_epochs).div_ceil(cycle) * cycle
    }
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, 1, 20, false, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                "--dir" => dir = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let spec = *SPECS
            .iter()
            .find(|s| s.name == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?;
        let dir = dir.ok_or("--dir is required")?;
        Ok(Args {
            spec,
            seed,
            seconds,
            trace,
            dir,
        })
    }
}

/// Sums the time of calls into one layer, when tracing.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    seconds: f64,
    calls: u64,
}

/// Runs `f`, adding its duration to `span` when `traced`.
fn timed<T>(traced: bool, span: &mut Span, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let start = Instant::now();
    let out = f();
    span.seconds += start.elapsed().as_secs_f64();
    span.calls += 1;
    out
}

/// One seal tick of the timed window.
#[derive(Debug, Clone)]
struct SealRecord {
    epoch: u64,
    full: bool,
    churn_rows: usize,
    /// Seal-tick wall: drain barrier + cut + publish.
    seal_s: f64,
    drain_s: f64,
    /// `FleetServer::tick` alone, after the drain.
    tick_s: f64,
    checkpoint: bool,
    /// Seal-tick start to the cached committee in hand.
    committee_s: f64,
    /// `select_greedy_cached(64)` alone.
    warm_s: f64,
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
struct Pass {
    report_hash: String,
    setup_s: f64,
    /// Generator time: set-up and every epoch's traffic.
    gen_s: f64,
    /// Sum of the timed epochs' walls.
    timed_wall_s: f64,
    seals: Vec<SealRecord>,
    /// Flush latencies of the timed window, in microseconds.
    flush_us: Vec<u64>,
    stats: adapter::ServeStats,
    timed_stats: StatsDelta,
    /// Selection-cache counters at the start and the end of the timed window.
    cache: (adapter::CacheStats, adapter::CacheStats),
    cold_select_s: Vec<f64>,
    submit: Span,
    pump: Span,
    plain_tick: Span,
    reads: Span,
    monitor_reads: u64,
    errors: Vec<String>,
    checks: Vec<Check>,
    /// The last sealed epoch: (epoch, hash, device count).
    last: Option<(u64, Hash, usize)>,
}

/// Counter changes over the timed window.
#[derive(Debug, Default, Clone, Copy)]
struct StatsDelta {
    submitted: u64,
    admitted_ops: u64,
    shed: u64,
    coalesced_away: u64,
    flushes: u64,
    flushed_ops: u64,
    failed_flushes_or_seals: u64,
}

impl StatsDelta {
    fn between(a: &adapter::ServeStats, b: &adapter::ServeStats) -> StatsDelta {
        StatsDelta {
            submitted: b.submitted_requests - a.submitted_requests,
            admitted_ops: b.admitted_ops - a.admitted_ops,
            shed: (b.shed_queue_full + b.shed_seal_lag) - (a.shed_queue_full + a.shed_seal_lag),
            coalesced_away: b.coalesced_away - a.coalesced_away,
            flushes: b.flushes - a.flushes,
            flushed_ops: b.flushed_ops - a.flushed_ops,
            failed_flushes_or_seals: (b.wal_rejected_flushes + b.seal_failures)
                - (a.wal_rejected_flushes + a.seal_failures),
        }
    }
}

#[derive(Debug, Clone)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// A fleet run to its first sealed epoch.
struct SetUp {
    serving: Serving,
    population: adapter::Population,
    seconds: f64,
    gen_s: f64,
    epoch_hashes: Vec<(u64, Hash)>,
}

/// Generates the set-up traffic, then (on the clock) stands a fleet up
/// and runs it to its first sealed epoch: the registration wave, with
/// clients that pump and retry on a shed as in `run_scenario`, then one
/// epoch of churn ticks, and the first committee, so that the selection
/// cache is warm.
fn set_up(spec: &Spec, seed: u64, dir: Option<&Path>) -> Result<SetUp, String> {
    let gen_start = Instant::now();
    let mut population = adapter::Population::new(spec.devices, spec.mean_ops_per_tick, seed);
    let wave = population.registration_wave();
    let ticks = population.ticks(adapter::epoch_ticks());
    let gen_s = gen_start.elapsed().as_secs_f64();

    let start = Instant::now();
    let serving = match dir {
        Some(dir) => Serving::durable(SHARDS, dir)?,
        None => Serving::in_memory(SHARDS),
    };
    for request in wave {
        while !serving.submit(request.clone()) {
            serving.pump()?;
        }
    }
    let mut epoch_hashes = Vec::new();
    for (i, requests) in ticks.into_iter().enumerate() {
        for request in requests {
            serving.submit(request);
        }
        serving.pump()?;
        if is_seal_tick(i) {
            serving.drain()?;
        }
        if let Some(sealed) = serving.tick()? {
            epoch_hashes.push((sealed.epoch(), sealed.hash()));
        }
    }
    if epoch_hashes.len() != 1 {
        return Err(format!(
            "set-up sealed {} epochs, not 1",
            epoch_hashes.len()
        ));
    }
    serving.select_cached(COMMITTEE_K);
    Ok(SetUp {
        serving,
        population,
        seconds: start.elapsed().as_secs_f64(),
        gen_s,
        epoch_hashes,
    })
}

/// Whether the tick at `index` (0-based) within an epoch's ticks seals.
fn is_seal_tick(index: usize) -> bool {
    (index as u64 + 1).is_multiple_of(adapter::epoch_ticks())
}

/// One pass over a workload: set-up, then `timed_epochs` timed epochs.
/// Each epoch's traffic is generated before its clock starts; the seal
/// that ends the previous epoch has drained every admitted request, so no
/// work is in flight while the generator runs.
fn run_pass(
    spec: &Spec,
    seed: u64,
    timed_epochs: u64,
    dir: Option<&Path>,
    traced: bool,
) -> Result<(Pass, Serving), String> {
    let SetUp {
        serving,
        mut population,
        seconds: setup_s,
        gen_s,
        mut epoch_hashes,
    } = set_up(spec, seed, dir)?;
    let mut pass = Pass {
        setup_s,
        gen_s,
        ..Pass::default()
    };
    let base_stats = serving.stats();
    let base_flushes = serving.flush_latencies_us().len();
    let base_cache = serving.cache_stats();
    let checkpoint_every = adapter::checkpoint_interval();
    let mut cached_matches_cold = true;
    let mut read_sum = 0.0;

    for _ in 0..timed_epochs {
        let gen_start = Instant::now();
        let ticks = population.ticks(adapter::epoch_ticks());
        pass.gen_s += gen_start.elapsed().as_secs_f64();

        let epoch_start = Instant::now();
        let mut sealed = None;
        let mut seal_start = epoch_start;
        let mut drain_s = 0.0;
        for (i, requests) in ticks.into_iter().enumerate() {
            for request in requests {
                timed(traced, &mut pass.submit, || serving.submit(request));
            }
            if let Err(e) = timed(traced, &mut pass.pump, || serving.pump()) {
                pass.errors.push(e);
            }
            if !is_seal_tick(i) {
                match timed(traced, &mut pass.plain_tick, || serving.tick()) {
                    Ok(None) => {}
                    Ok(Some(_)) => pass.errors.push("sealed off the cadence".into()),
                    Err(e) => pass.errors.push(e),
                }
                continue;
            }
            seal_start = Instant::now();
            if let Err(e) = serving.drain() {
                pass.errors.push(e);
            }
            drain_s = seal_start.elapsed().as_secs_f64();
            match serving.tick() {
                Ok(Some(s)) => sealed = Some(s),
                Ok(None) => pass.errors.push("missed a seal tick".into()),
                Err(e) => pass.errors.push(e),
            }
        }
        let Some(sealed) = sealed else {
            pass.timed_wall_s += epoch_start.elapsed().as_secs_f64();
            continue;
        };
        let seal_s = seal_start.elapsed().as_secs_f64();
        let mut record = SealRecord {
            epoch: sealed.epoch(),
            full: sealed.is_full(),
            churn_rows: sealed.churned_rows(),
            seal_s,
            drain_s,
            tick_s: seal_s - drain_s,
            checkpoint: dir.is_some() && sealed.epoch().is_multiple_of(checkpoint_every),
            committee_s: 0.0,
            warm_s: 0.0,
        };
        epoch_hashes.push((sealed.epoch(), sealed.hash()));
        let load = spec.select;
        let warm_start = Instant::now();
        let cached = serving.select_cached(COMMITTEE_K);
        record.warm_s = warm_start.elapsed().as_secs_f64();
        record.committee_s = seal_start.elapsed().as_secs_f64();
        for q in 0..load.cold_queries {
            let query_start = Instant::now();
            let cold = std::hint::black_box(sealed.select_cold(COMMITTEE_K));
            pass.cold_select_s.push(query_start.elapsed().as_secs_f64());
            if q == 0 && cold != cached {
                cached_matches_cold = false;
            }
        }
        read_sum += timed(traced, &mut pass.reads, || {
            serving.monitor_reads(load.monitor_reads)
        });
        pass.monitor_reads += load.monitor_reads as u64;
        pass.timed_wall_s += epoch_start.elapsed().as_secs_f64();
        pass.last = Some((sealed.epoch(), sealed.hash(), sealed.device_count()));
        pass.seals.push(record);
    }
    std::hint::black_box(read_sum);

    pass.stats = serving.stats();
    pass.timed_stats = StatsDelta::between(&base_stats, &pass.stats);
    pass.flush_us = serving.flush_latencies_us().split_off(base_flushes);
    pass.cache = (base_cache, serving.cache_stats());
    pass.checks.push(check(
        "cached_committee_matches_cold",
        cached_matches_cold,
        "select_greedy_cached(64) vs a cold select_greedy(64) on each sealed snapshot".into(),
    ));
    let s = &pass.stats;
    pass.checks.push(check(
        "accounting",
        s.admitted_ops == s.flushed_ops + s.coalesced_away && s.applied_ops == s.flushed_ops,
        format!(
            "admitted {} = flushed {} + coalesced away {}; applied {} = flushed",
            s.admitted_ops, s.flushed_ops, s.coalesced_away, s.applied_ops
        ),
    ));
    let epochs: Vec<u64> = epoch_hashes.iter().map(|(e, _)| *e).collect();
    let expected: Vec<u64> = (1..=timed_epochs + 1).collect();
    pass.checks.push(check(
        "epochs_sealed_in_order",
        epochs == expected && pass.errors.is_empty(),
        format!("{} epochs sealed, errors: {:?}", epochs.len(), pass.errors),
    ));
    pass.report_hash = serving.report_hash(&epoch_hashes);
    Ok((pass, serving))
}

/// Recovery of a durable workload after a clean shutdown.
struct Recovery {
    seconds: f64,
    report: adapter::RecoveryReport,
    check: Check,
}

fn recover(dir: &Path, last: (u64, Hash, usize)) -> Result<Recovery, String> {
    let start = Instant::now();
    let recovered = adapter::recover(SHARDS, dir)?;
    let seconds = start.elapsed().as_secs_f64();
    let r = &recovered.report;
    let check = check(
        "recovery_matches_last_seal",
        (recovered.epoch, recovered.hash, recovered.device_count) == last
            && r.verified_seals == r.replayed_epochs,
        format!(
            "recovered epoch {} ({} devices) vs sealed epoch {} ({} devices); \
             {} of {} replayed epochs verified",
            recovered.epoch,
            recovered.device_count,
            last.0,
            last.2,
            r.verified_seals,
            r.replayed_epochs
        ),
    );
    Ok(Recovery {
        seconds,
        report: recovered.report,
        check,
    })
}

/// A reported metric: value, unit and the number of samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The nearest-rank `p`-quantile of `values`; `NaN` when empty.
fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The timed window's flush latencies in milliseconds.
fn flush_ms(pass: &Pass) -> Vec<f64> {
    pass.flush_us.iter().map(|&us| us as f64 / 1e3).collect()
}

fn ms(seconds: impl IntoIterator<Item = f64>) -> Vec<f64> {
    seconds.into_iter().map(|s| s * 1e3).collect()
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn end_to_end(pass: &Pass, setups: &[f64]) -> Vec<Metric> {
    let epochs = pass.seals.len();
    let seal_ms = ms(pass.seals.iter().map(|s| s.seal_s));
    let committee_ms = ms(pass.seals.iter().map(|s| s.committee_s));
    vec![
        metric(
            "serve_ops_per_s",
            pass.timed_stats.admitted_ops as f64 / pass.timed_wall_s,
            "ops/s",
            epochs,
        ),
        metric("seal_p50_ms", median(&seal_ms), "ms", seal_ms.len()),
        metric(
            "committee_p50_ms",
            median(&committee_ms),
            "ms",
            committee_ms.len(),
        ),
        metric(
            "epochs_per_s",
            epochs as f64 / pass.timed_wall_s,
            "1/s",
            epochs,
        ),
        metric(
            "select_per_s",
            pass.cold_select_s.len() as f64 / pass.cold_select_s.iter().sum::<f64>(),
            "1/s",
            pass.cold_select_s.len(),
        ),
        metric("setup_s", median(setups), "s", setups.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// Durability-directory facts read from outside: WAL bytes and segments,
/// checkpoint files and the newest checkpoint's size.
#[derive(Debug, Default)]
struct DirFacts {
    wal_bytes: u64,
    wal_segments: u64,
    checkpoints: u64,
    newest_checkpoint_bytes: u64,
}

fn dir_facts(dir: &Path) -> Result<DirFacts, String> {
    let mut facts = DirFacts::default();
    let newest = adapter::newest_checkpoint(dir)?;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = entry.metadata().map_err(|e| e.to_string())?.len();
        if name.starts_with("wal-") {
            facts.wal_bytes += bytes;
            facts.wal_segments += 1;
        } else if name.starts_with("ckpt-") {
            facts.checkpoints += 1;
            if newest.as_deref() == Some(entry.path().as_path()) {
                facts.newest_checkpoint_bytes = bytes;
            }
        }
    }
    Ok(facts)
}

struct Durable {
    facts: DirFacts,
    ckpt_load_s: Option<f64>,
    recovery: Recovery,
}

/// The per-layer metrics. Every workload reports all of them; a
/// workload without a WAL reports zero WAL, checkpoint and recovery counts.
fn per_layer(untraced: &Pass, traced: &Pass, durable: Option<&Durable>) -> Vec<Metric> {
    let p = traced;
    let d = &p.timed_stats;
    let epochs = p.seals.len();
    let flush_ms = flush_ms(p);
    let drain_ms = ms(p.seals.iter().map(|s| s.drain_s));
    let diff_ms = ms(p.seals.iter().filter(|s| !s.full).map(|s| s.tick_s));
    let full_ms = ms(p.seals.iter().filter(|s| s.full).map(|s| s.tick_s));
    let churn: Vec<f64> = p
        .seals
        .iter()
        .filter(|s| !s.full)
        .map(|s| s.churn_rows as f64)
        .collect();
    let warm_ms = ms(p.seals.iter().map(|s| s.warm_s));
    let cold_ms = ms(p.cold_select_s.iter().copied());
    let (before, after) = p.cache;
    let facts = durable.map(|d| &d.facts);
    let count = |n: Option<u64>| n.unwrap_or(0) as f64;
    let report = durable.map(|d| &d.recovery.report);
    let covered = p.submit.seconds
        + p.pump.seconds
        + p.plain_tick.seconds
        + p.reads.seconds
        + p.seals.iter().map(|s| s.seal_s + s.warm_s).sum::<f64>()
        + p.cold_select_s.iter().sum::<f64>();
    vec![
        metric("gen.s", p.gen_s, "s", 1),
        metric(
            "serve.submit_s",
            p.submit.seconds,
            "s",
            p.submit.calls as usize,
        ),
        metric("serve.shed_requests", d.shed as f64, "count", 1),
        metric(
            "serve.failed_frac",
            failed(p) as f64 / d.submitted.max(1) as f64,
            "ratio",
            1,
        ),
        metric("serve.pump_s", p.pump.seconds, "s", p.pump.calls as usize),
        metric("serve.flushes", d.flushes as f64, "count", 1),
        metric(
            "serve.ops_per_flush",
            d.flushed_ops as f64 / d.flushes.max(1) as f64,
            "ops",
            d.flushes as usize,
        ),
        metric(
            "serve.coalesced_frac",
            d.coalesced_away as f64 / d.admitted_ops.max(1) as f64,
            "ratio",
            1,
        ),
        metric(
            "serve.flush_p50_ms",
            quantile(&flush_ms, 0.5),
            "ms",
            flush_ms.len(),
        ),
        metric(
            "serve.flush_p99_ms",
            quantile(&flush_ms, 0.99),
            "ms",
            flush_ms.len(),
        ),
        metric("serve.drain_ms_p50", median(&drain_ms), "ms", epochs),
        metric(
            "serve.drain_s",
            drain_ms.iter().sum::<f64>() / 1e3,
            "s",
            epochs,
        ),
        metric(
            "fleet.seal_diff_ms_p50",
            median(&diff_ms),
            "ms",
            diff_ms.len(),
        ),
        metric(
            "fleet.seal_full_ms_max",
            full_ms.iter().copied().fold(f64::NAN, f64::max),
            "ms",
            full_ms.len(),
        ),
        metric("fleet.seal_full_count", full_ms.len() as f64, "count", 1),
        metric("fleet.churn_rows_p50", median(&churn), "rows", churn.len()),
        metric(
            "committee.warm_ms_p50",
            median(&warm_ms),
            "ms",
            warm_ms.len(),
        ),
        metric("cache.hits", (after.hits - before.hits) as f64, "count", 1),
        metric(
            "cache.warm_starts",
            (after.warm_starts - before.warm_starts) as f64,
            "count",
            1,
        ),
        metric(
            "cache.cold_selections",
            (after.cold_selections - before.cold_selections) as f64,
            "count",
            1,
        ),
        metric(
            "committee.cold_ms_p50",
            median(&cold_ms),
            "ms",
            cold_ms.len(),
        ),
        metric(
            "read.monitor_ns",
            p.reads.seconds * 1e9 / p.monitor_reads.max(1) as f64,
            "ns",
            p.monitor_reads as usize,
        ),
        metric(
            "wal.bytes_per_op",
            count(facts.map(|f| f.wal_bytes)) / p.stats.flushed_ops.max(1) as f64,
            "B",
            p.stats.flushed_ops as usize,
        ),
        metric(
            "wal.segments",
            count(facts.map(|f| f.wal_segments)),
            "count",
            1,
        ),
        metric(
            "ckpt.count",
            count(facts.map(|f| f.checkpoints)),
            "count",
            1,
        ),
        metric(
            "ckpt.bytes",
            count(facts.map(|f| f.newest_checkpoint_bytes)),
            "B",
            1,
        ),
        metric(
            "recover.replayed_epochs",
            count(report.map(|r| r.replayed_epochs)),
            "count",
            1,
        ),
        metric(
            "recover.replayed_ops",
            count(report.map(|r| r.replayed_ops)),
            "count",
            1,
        ),
        metric("trace.coverage", covered / p.timed_wall_s, "ratio", 1),
        metric(
            "trace.overhead_frac",
            p.timed_wall_s / untraced.timed_wall_s - 1.0,
            "ratio",
            2,
        ),
        metric(
            "host.parallelism",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
            "count",
            1,
        ),
    ]
}

/// Durability timings that only a durable workload has. They are printed
/// with the metrics but are not in the result: every workload must
/// report every declared metric, and these would read 0 without a WAL.
fn durable_notes(traced: &Pass, durable: &Durable) -> Vec<Metric> {
    let ckpt_ms = ms(traced
        .seals
        .iter()
        .filter(|s| s.checkpoint)
        .map(|s| s.tick_s));
    let mut out = vec![metric(
        "fleet.seal_ckpt_ms_p50",
        median(&ckpt_ms),
        "ms",
        ckpt_ms.len(),
    )];
    let load_s = durable.ckpt_load_s.unwrap_or(0.0);
    if durable.ckpt_load_s.is_some() {
        out.push(metric("ckpt.load_ms", load_s * 1e3, "ms", 1));
    }
    out.push(metric(
        "recover.replay_s",
        durable.recovery.seconds - load_s,
        "s",
        1,
    ));
    out
}

/// Requests shed plus flushes and seals that failed in the timed window.
fn failed(pass: &Pass) -> u64 {
    pass.timed_stats.shed + pass.timed_stats.failed_flushes_or_seals + pass.errors.len() as u64
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(dir)
}

fn remove_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Everything one invocation reports.
struct Outcome {
    timed_epochs: u64,
    report_hash: String,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    metrics: Vec<Metric>,
    /// Measurements printed beside the metrics but not in the result.
    notes: Vec<Metric>,
    seals: Vec<SealRecord>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = &args.spec;
    let timed_epochs = spec.timed_epochs(args.seconds);
    let durable_dir = |tag: &str| -> Result<Option<PathBuf>, String> {
        spec.durable
            .then(|| fresh_dir(&args.dir, &format!("{}-{tag}", spec.name)))
            .transpose()
    };

    if !args.trace {
        let mut setups = Vec::new();
        for rep in 1..spec.setups {
            let dir = durable_dir(&format!("setup{rep}"))?;
            let setup = set_up(spec, args.seed, dir.as_deref())?;
            setups.push(setup.seconds);
            setup.serving.shutdown()?;
            remove_dir(dir.as_deref());
        }
        let dir = durable_dir("run")?;
        let (pass, serving) = run_pass(spec, args.seed, timed_epochs, dir.as_deref(), false)?;
        serving.shutdown()?;
        setups.push(pass.setup_s);
        let mut checks = pass.checks.clone();
        let mut notes = Vec::new();
        if let (Some(dir), Some(last)) = (dir.as_deref(), pass.last) {
            let recovery = recover(dir, last)?;
            checks.push(recovery.check);
            notes.push(metric("recovery_s", recovery.seconds, "s", 1));
        }
        remove_dir(dir.as_deref());
        return Ok(Outcome {
            timed_epochs,
            report_hash: pass.report_hash.clone(),
            attempted: pass.timed_stats.submitted,
            failed: failed(&pass),
            checks,
            metrics: end_to_end(&pass, &setups),
            notes,
            seals: Vec::new(),
        });
    }

    let dir = durable_dir("untraced")?;
    let (untraced, serving) = run_pass(spec, args.seed, timed_epochs, dir.as_deref(), false)?;
    serving.shutdown()?;
    remove_dir(dir.as_deref());

    let dir = durable_dir("traced")?;
    let (traced, serving) = run_pass(spec, args.seed, timed_epochs, dir.as_deref(), true)?;
    serving.shutdown()?;
    // Equal report hashes mean equal epoch histories and counters, so the
    // untraced pass's own checks would repeat the traced pass's.
    let mut checks = traced.checks.clone();
    checks.push(check(
        "traced_hash_matches_untraced",
        traced.report_hash == untraced.report_hash,
        format!("{} vs {}", traced.report_hash, untraced.report_hash),
    ));
    let mut durable = None;
    if let (Some(dir), Some(last)) = (dir.as_deref(), traced.last) {
        let facts = dir_facts(dir)?;
        let ckpt_load_s = match adapter::newest_checkpoint(dir)? {
            Some(path) => {
                let start = Instant::now();
                adapter::load_checkpoint(&path)?;
                Some(start.elapsed().as_secs_f64())
            }
            None => None,
        };
        let recovery = recover(dir, last)?;
        checks.push(recovery.check.clone());
        durable = Some(Durable {
            facts,
            ckpt_load_s,
            recovery,
        });
    }
    remove_dir(dir.as_deref());
    let metrics = per_layer(&untraced, &traced, durable.as_ref());
    let notes = durable
        .as_ref()
        .map_or_else(Vec::new, |d| durable_notes(&traced, d));
    Ok(Outcome {
        timed_epochs,
        report_hash: traced.report_hash.clone(),
        attempted: traced.timed_stats.submitted,
        failed: failed(&traced),
        checks,
        metrics,
        notes,
        seals: traced.seals,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

impl Outcome {
    fn to_json(&self, args: &Args) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_str(c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect();
        let metrics = |list: &[Metric]| -> String {
            let items: Vec<String> = list
                .iter()
                .map(|m| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                        json_str(m.name),
                        json_num(m.value),
                        json_str(m.unit),
                        m.samples
                    )
                })
                .collect();
            items.join(",")
        };
        let seals: Vec<String> = self
            .seals
            .iter()
            .map(|s| {
                format!(
                    "{{\"epoch\":{},\"kind\":\"{}\",\"churn_rows\":{},\"seal_ms\":{},\
                     \"drain_ms\":{},\"tick_ms\":{},\"checkpoint\":{}}}",
                    s.epoch,
                    if s.full { "full" } else { "diff" },
                    s.churn_rows,
                    json_num(s.seal_s * 1e3),
                    json_num(s.drain_s * 1e3),
                    json_num(s.tick_s * 1e3),
                    s.checkpoint
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"shards\":{},\
             \"timed_epochs\":{},\"report_hash\":{},\"attempted\":{},\"failed\":{},\
             \"checks\":[{}],\"metrics\":{{{}}},\"notes\":{{{}}},\"seals\":[{}]}}",
            json_str(args.spec.name),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            SHARDS,
            self.timed_epochs,
            json_str(&self.report_hash),
            self.attempted,
            self.failed,
            checks.join(","),
            metrics(&self.metrics),
            metrics(&self.notes),
            seals.join(",")
        )
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json(&args));
            let bad_metric = outcome.metrics.iter().any(|m| !m.value.is_finite());
            if outcome.checks.iter().all(|c| c.ok) && !bad_metric {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(spec: &Spec) -> Spec {
        Spec {
            devices: 3_000,
            mean_ops_per_tick: spec.mean_ops_per_tick.min(400),
            min_epochs: 4,
            setups: 2,
            select: SelectLoad {
                cold_queries: 2,
                monitor_reads: 10,
            },
            ..*spec
        }
    }

    fn work_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()))
    }

    /// The benchmark's load loop must drive the same scenario as the
    /// library's own: equal report hashes for the same population.
    #[test]
    fn load_loop_reproduces_run_scenario() {
        let spec = smoke(&SPECS[0]);
        let timed_epochs = 4;
        let (pass, serving) =
            run_pass(&spec, 7, timed_epochs, None, false).expect("in-memory pass");
        serving.shutdown().expect("clean shutdown");
        let library = adapter::run_scenario_hash(
            spec.devices,
            spec.mean_ops_per_tick,
            7,
            adapter::epoch_ticks() * (1 + timed_epochs),
            SHARDS,
        )
        .expect("in-memory scenario");
        assert_eq!(pass.report_hash, library);
    }

    /// The metric names `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<String> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\""))
            .expect("section in BENCHMARK.json");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section ends")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
            .collect()
    }

    /// Every workload, at smoke size, passes its own checks in both modes
    /// and reports exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_workloads_pass_their_checks() {
        for spec in &SPECS {
            for trace in [false, true] {
                let dir = work_dir(spec.name);
                let args = Args {
                    spec: smoke(spec),
                    seed: 3,
                    seconds: 1,
                    trace,
                    dir: dir.clone(),
                };
                let outcome = run(&args).expect("smoke run");
                let _ = std::fs::remove_dir_all(&dir);
                for c in &outcome.checks {
                    assert!(
                        c.ok,
                        "{} trace={trace}: {} ({})",
                        spec.name, c.name, c.detail
                    );
                }
                assert!(outcome.checks.len() >= 2);
                assert_eq!(outcome.failed, 0);
                let names: Vec<String> =
                    outcome.metrics.iter().map(|m| m.name.to_string()).collect();
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(names, declared(section), "{} trace={trace}", spec.name);
            }
        }
    }
}
