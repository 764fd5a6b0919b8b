//! Every call the benchmark makes into the program, and nothing else.
//!
//! The workloads in `main.rs` see only the types and functions below, so
//! a change to the program's public API has one place to be followed in.
//! Fleets use the program's defaults: `ServeConfig::default()`,
//! `DurabilityConfig::new(dir)` and the default re-anchor cadence. No
//! tuning knob is set and no lower-level ingest entry point is called.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fi_fleet::{checkpoint, Checkpoint, DurabilityConfig, EpochSnapshot, ShardedFleet};
use fi_serve::{scenario_weights, FleetServer, ScenarioReport, ServeConfig};
use fi_simnet::{ClientPopulation, PopulationConfig};
use fi_types::Digest;

pub use fi_fleet::{CacheStats, RecoveryReport};
pub use fi_serve::ServeStats;

/// One client request: a batch of churn ops.
pub type Request = Vec<fi_fleet::ChurnOp>;

/// An epoch's content hash.
pub type Hash = Digest;

/// The seal cadence of a default server, in ticks.
pub fn epoch_ticks() -> u64 {
    ServeConfig::default().epoch_ticks
}

/// The checkpoint cadence of a default durable fleet, in seals.
pub fn checkpoint_interval() -> u64 {
    DurabilityConfig::new(PathBuf::new()).checkpoint_interval
}

/// Ticks per cycle of the default population's diurnal load curve.
pub fn diurnal_period() -> u64 {
    PopulationConfig::new(1, 0).diurnal_period
}

/// The synthetic client population: a seeded, deterministic stream of
/// requests.
pub struct Population(ClientPopulation);

impl Population {
    pub fn new(devices: u64, mean_ops_per_tick: u64, seed: u64) -> Population {
        Population(ClientPopulation::new(
            PopulationConfig::new(devices, mean_ops_per_tick).with_seed(seed),
        ))
    }

    /// Every device registers once; call before the first tick.
    pub fn registration_wave(&mut self) -> Vec<Request> {
        self.0.registration_wave()
    }

    /// The requests of the next `n` churn ticks, tick by tick.
    pub fn ticks(&mut self, n: u64) -> Vec<Vec<Request>> {
        (0..n).map(|_| self.0.next_tick().requests).collect()
    }
}

/// A sealed epoch, reduced to what the benchmark checks and records.
pub struct Sealed(Arc<EpochSnapshot>);

impl Sealed {
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    pub fn hash(&self) -> Hash {
        self.0.content_hash()
    }

    pub fn device_count(&self) -> usize {
        self.0.device_count()
    }

    /// Full builds have no parent; differential seals patch their parent.
    pub fn is_full(&self) -> bool {
        self.0.parent_hash().is_none()
    }

    pub fn churned_rows(&self) -> usize {
        self.0.churned_replicas().len()
    }

    /// The member sequence of a cold `EpochSnapshot::select_greedy(k)`.
    pub fn select_cold(&self, k: usize) -> Vec<u64> {
        let committee = self.0.select_greedy(k);
        committee
            .members()
            .iter()
            .map(|c| c.replica().as_u64())
            .collect()
    }
}

/// A fleet behind its serving front-end.
pub struct Serving {
    fleet: Arc<ShardedFleet>,
    server: FleetServer,
}

impl Serving {
    /// An in-memory fleet with `shards` shards.
    pub fn in_memory(shards: usize) -> Serving {
        Self::over(ShardedFleet::new(shards, scenario_weights()))
    }

    /// A durable fleet in `dir`, which should not exist yet.
    pub fn durable(shards: usize, dir: &Path) -> Result<Serving, String> {
        let (fleet, _) = open_durable(shards, dir)?;
        Ok(Self::over(fleet))
    }

    fn over(fleet: ShardedFleet) -> Serving {
        let fleet = Arc::new(fleet);
        let server = FleetServer::new(Arc::clone(&fleet), ServeConfig::default());
        Serving { fleet, server }
    }

    /// Offers one request; `false` when it was shed.
    pub fn submit(&self, request: Request) -> bool {
        self.server.submit(request).is_ok()
    }

    pub fn pump(&self) -> Result<(), String> {
        self.server.pump().map_err(|e| e.to_string())
    }

    pub fn drain(&self) -> Result<(), String> {
        self.server.drain().map_err(|e| e.to_string())
    }

    /// Advances one tick; returns the epoch it sealed, if any.
    pub fn tick(&self) -> Result<Option<Sealed>, String> {
        self.server
            .tick()
            .map(|sealed| sealed.map(Sealed))
            .map_err(|e| e.to_string())
    }

    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }

    pub fn flush_latencies_us(&self) -> Vec<u64> {
        self.server.flush_latencies_us()
    }

    /// The member sequence of `ShardedFleet::select_greedy_cached(k)`.
    pub fn select_cached(&self, k: usize) -> Vec<u64> {
        let committee = self.fleet.select_greedy_cached(k);
        committee
            .members()
            .iter()
            .map(|c| c.replica().as_u64())
            .collect()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.fleet.selection_cache().stats()
    }

    /// `n` monitor reads of the served entropy through one reader handle;
    /// returns their sum so that the reads cannot be optimised away.
    pub fn monitor_reads(&self, n: usize) -> f64 {
        let mut reader = self.fleet.reader();
        (0..n)
            .map(|_| reader.get().entropy_bits(false).unwrap_or(f64::NAN))
            .sum()
    }

    /// The hash of the report `fi_serve::run_scenario` builds for a run
    /// that sealed `epoch_hashes`.
    pub fn report_hash(&self, epoch_hashes: &[(u64, Hash)]) -> String {
        let snapshot = self.fleet.snapshot();
        ScenarioReport {
            final_epoch: snapshot.epoch(),
            final_hash: snapshot.content_hash(),
            epoch_hashes: epoch_hashes.to_vec(),
            device_count: self.fleet.device_count(),
            stats: self.server.stats(),
        }
        .report_hash()
        .to_string()
    }

    /// Drains and stops the front-end's workers: a clean shutdown.
    pub fn shutdown(self) -> Result<(), String> {
        self.server.shutdown().map_err(|e| e.to_string())
    }
}

/// Opens (or recovers) a durable fleet in `dir`. `open_durable` takes the
/// re-anchor cadence as an argument; the fleet's default is passed.
fn open_durable(shards: usize, dir: &Path) -> Result<(ShardedFleet, RecoveryReport), String> {
    ShardedFleet::open_durable(
        shards,
        scenario_weights(),
        fi_fleet::DEFAULT_REANCHOR_INTERVAL,
        DurabilityConfig::new(dir),
    )
    .map_err(|e| e.to_string())
}

/// What recovery served: epoch, content hash and device count.
pub struct Recovered {
    pub epoch: u64,
    pub hash: Hash,
    pub device_count: usize,
    pub report: RecoveryReport,
}

/// Recovers the durable fleet in `dir` and drops it again.
pub fn recover(shards: usize, dir: &Path) -> Result<Recovered, String> {
    let (fleet, report) = open_durable(shards, dir)?;
    let snapshot = fleet.snapshot();
    Ok(Recovered {
        epoch: snapshot.epoch(),
        hash: snapshot.content_hash(),
        device_count: snapshot.device_count(),
        report,
    })
}

/// The newest checkpoint file in `dir`, if any.
pub fn newest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, String> {
    let list = checkpoint::list_checkpoints(dir).map_err(|e| e.to_string())?;
    Ok(list.last().map(|(_, path)| path.clone()))
}

/// Loads and verifies the checkpoint at `path`.
pub fn load_checkpoint(path: &Path) -> Result<(), String> {
    Checkpoint::load(path)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The library's own scenario loop over the same population; returns its
/// report hash.
#[cfg(test)]
pub fn run_scenario_hash(
    devices: u64,
    mean_ops_per_tick: u64,
    seed: u64,
    ticks: u64,
    shards: usize,
) -> Result<String, String> {
    let mut config =
        fi_serve::ScenarioConfig::new(devices, mean_ops_per_tick, ticks).with_shards(shards);
    config.population = config.population.with_seed(seed);
    fi_serve::run_scenario(&config, false)
        .map(|outcome| outcome.report.report_hash().to_string())
        .map_err(|e| e.to_string())
}
