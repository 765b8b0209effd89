//! The two-site experiment rig: storage + application, no container layer.
//!
//! Experiments E1–E4 measure the storage/application behaviour directly;
//! the container platform and operator add nothing to those measurements
//! (they only automate the configuration). [`TwoSiteRig`] builds the
//! paper's main/backup deployment — two arrays, a replication link, four
//! volumes (sales WAL/data, stock WAL/data), two databases, the order
//! workload — under any [`BackupMode`].

use tsuru_analytics::AnalyticsReport;
use tsuru_ecom::driver::start_clients;
use tsuru_ecom::{
    check_cross_db, install_db, order_rpo, seed_stock, EcomMetrics, EcomState, InvariantReport,
    OrderRpo, WorkloadConfig, WorkloadGen,
};
use tsuru_minidb::{DbConfig, MiniDb, RecoveryError, RecoveryReport};
use tsuru_sim::{DetRng, Sim, SimDuration, SimTime, Summary};
use tsuru_simnet::LinkConfig;
use tsuru_storage::{
    ArrayId, ArrayPerf, ConsistencyReport, EngineConfig, GroupId, RpoReport, SnapshotId,
    SnapshotView, StorageWorld, VolRef, VolumeView,
};

use crate::event::{ControlOp, DemoEvent, DemoSim};
use crate::world::DemoWorld;

/// How the business process is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupMode {
    /// No replication at all (the latency floor).
    None,
    /// Asynchronous data copy with one consistency group spanning all four
    /// volumes (the paper's demonstrated design).
    AdcConsistencyGroup,
    /// Asynchronous data copy with one independent group per volume (the
    /// naive configuration the paper warns collapses).
    AdcPerVolume,
    /// Synchronous data copy (the no-data-loss, high-latency baseline).
    Sdc,
    /// Three-data-centre: metro SDC (zero loss, metro latency) plus WAN
    /// ADC consistency group (bounded loss at distance) from the same
    /// primary volumes — the combined topology of the paper's related work
    /// (§V, refs. 12–15).
    ThreeDc,
}

impl BackupMode {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackupMode::None => "none",
            BackupMode::AdcConsistencyGroup => "adc-cg",
            BackupMode::AdcPerVolume => "adc-naive",
            BackupMode::Sdc => "sdc",
            BackupMode::ThreeDc => "3dc",
        }
    }
}

/// Full configuration of a rig.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Master seed (workload, jitter, pump streams all derive from it).
    pub seed: u64,
    /// Storage engine tunables.
    pub engine: EngineConfig,
    /// Array service-time profile (both sites).
    pub perf: ArrayPerf,
    /// Inter-site link (both directions use the same shape).
    pub link: LinkConfig,
    /// Metro link used by the synchronous leg of [`BackupMode::ThreeDc`].
    pub metro_link: LinkConfig,
    /// Protection mode.
    pub mode: BackupMode,
    /// ADC journal capacity in bytes.
    pub journal_capacity: u64,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Database geometry.
    pub db: DbConfig,
    /// Install an enabled [`tsuru_storage::Tracer`] on the world, turning
    /// on span recording and the per-edge replication series (RPO lag,
    /// journal occupancy). Off by default: the disabled tracer keeps the
    /// hot path allocation-free and all experiment outputs byte-identical
    /// to untraced runs.
    pub trace: bool,
    /// Install an enabled [`tsuru_history::Recorder`] on the world, so
    /// the workload drivers record a client-visible op history. Off by
    /// default for the same reason as `trace`.
    pub history: bool,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            seed: 42,
            engine: EngineConfig::default(),
            perf: ArrayPerf::default(),
            link: LinkConfig::metro(),
            metro_link: LinkConfig::with(
                SimDuration::from_millis(1),
                10_000_000_000 / 8,
            ),
            mode: BackupMode::AdcConsistencyGroup,
            journal_capacity: 256 << 20,
            workload: WorkloadConfig::default(),
            db: DbConfig {
                data_blocks: 8192,
                wal_blocks: 1024,
                checkpoint_threshold: 0.8,
            },
            trace: false,
            history: false,
        }
    }
}

/// Volume roles within the rig, in fixed order.
pub const VOLUME_NAMES: [&str; 4] = ["sales-wal", "sales-data", "stock-wal", "stock-data"];

/// Everything a recovery attempt can report.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Sales database recovery.
    pub sales: Result<(MiniDb, RecoveryReport), RecoveryError>,
    /// Stock database recovery.
    pub stock: Result<(MiniDb, RecoveryReport), RecoveryError>,
    /// Cross-database invariant, if both recovered.
    pub invariant: Option<InvariantReport>,
    /// Business-level RPO, if sales recovered.
    pub orders: Option<OrderRpo>,
}

impl RecoveryOutcome {
    /// Did both databases recover *and* pass the cross-DB check?
    pub fn fully_consistent(&self) -> bool {
        self.invariant.as_ref().is_some_and(|i| i.consistent())
    }

    /// Did either database hard-fail recovery?
    pub fn hard_failure(&self) -> bool {
        self.sales.is_err() || self.stock.is_err()
    }
}

/// The assembled two-site deployment.
pub struct TwoSiteRig {
    /// Discrete-event state.
    pub world: DemoWorld,
    /// Event kernel (typed [`DemoEvent`] dispatch).
    pub sim: DemoSim,
    /// Main-site array.
    pub main: ArrayId,
    /// Backup-site array.
    pub backup: ArrayId,
    /// Primary volumes, in [`VOLUME_NAMES`] order.
    pub vols: [VolRef; 4],
    /// Secondary volumes (empty refs when mode is `None`).
    pub replicas: Option<[VolRef; 4]>,
    /// Metro site array and its secondaries (only for `ThreeDc`).
    pub metro: Option<(ArrayId, [VolRef; 4])>,
    /// Replication groups configured.
    pub groups: Vec<GroupId>,
    /// Rig configuration (kept for recovery geometry).
    pub config: RigConfig,
}

impl TwoSiteRig {
    /// Build the deployment: arrays, link, volumes, formatted + seeded
    /// databases, replication per `config.mode`, workload clients ready.
    pub fn new(config: RigConfig) -> Self {
        let mut st = StorageWorld::new(config.seed, config.engine.clone());
        let main = st.add_array("vsp-main", config.perf.clone());
        let backup = st.add_array("vsp-backup", config.perf.clone());
        let link = st.add_link(config.link.clone());
        let reverse = st.add_link(config.link.clone());

        let sizes = [
            config.db.wal_blocks,
            config.db.data_blocks,
            config.db.wal_blocks,
            config.db.data_blocks,
        ];
        let vols: Vec<VolRef> = VOLUME_NAMES
            .iter()
            .zip(sizes)
            .map(|(n, s)| st.create_volume(main, *n, s))
            .collect();

        let sales = install_db(&mut st, "sales", vols[0], vols[1], config.db.clone());
        let mut stock = install_db(&mut st, "stock", vols[2], vols[3], config.db.clone());
        seed_stock(
            &mut st,
            &mut stock,
            config.workload.items,
            config.workload.initial_stock,
        );

        let mut metro_site = None;
        let (replicas, groups) = match config.mode {
            BackupMode::None => (None, Vec::new()),
            mode => {
                let reps: Vec<VolRef> = VOLUME_NAMES
                    .iter()
                    .zip(sizes)
                    .map(|(n, s)| st.create_volume(backup, format!("{n}-r"), s))
                    .collect();
                let mut groups = Vec::new();
                match mode {
                    BackupMode::AdcConsistencyGroup => {
                        let g = st.create_adc_group(
                            "cg-shop",
                            link,
                            reverse,
                            config.journal_capacity,
                        );
                        for i in 0..4 {
                            st.add_pair(g, vols[i], reps[i]);
                        }
                        groups.push(g);
                    }
                    BackupMode::AdcPerVolume => {
                        for i in 0..4 {
                            let g = st.create_adc_group(
                                format!("solo-{}", VOLUME_NAMES[i]),
                                link,
                                reverse,
                                config.journal_capacity,
                            );
                            st.add_pair(g, vols[i], reps[i]);
                            groups.push(g);
                        }
                    }
                    BackupMode::Sdc => {
                        let g = st.create_sdc_group("sdc-shop", link, reverse);
                        for i in 0..4 {
                            st.add_pair(g, vols[i], reps[i]);
                        }
                        groups.push(g);
                    }
                    BackupMode::ThreeDc => {
                        // Far leg: WAN ADC consistency group (the `backup`
                        // array plays the far site).
                        let g = st.create_adc_group(
                            "cg-shop-far",
                            link,
                            reverse,
                            config.journal_capacity,
                        );
                        for i in 0..4 {
                            st.add_pair(g, vols[i], reps[i]);
                        }
                        groups.push(g);
                        // Metro leg: a third array, synchronously in step.
                        let metro = st.add_array("vsp-metro", config.perf.clone());
                        let mlink = st.add_link(config.metro_link.clone());
                        let mrev = st.add_link(config.metro_link.clone());
                        let sg = st.create_sdc_group("sdc-shop-metro", mlink, mrev);
                        let mreps: Vec<VolRef> = VOLUME_NAMES
                            .iter()
                            .zip(sizes)
                            .map(|(n, s)| st.create_volume(metro, format!("{n}-m"), s))
                            .collect();
                        for i in 0..4 {
                            st.add_pair(sg, vols[i], mreps[i]);
                        }
                        metro_site = Some((metro, [mreps[0], mreps[1], mreps[2], mreps[3]]));
                        groups.push(sg);
                    }
                    BackupMode::None => unreachable!(),
                }
                (Some([reps[0], reps[1], reps[2], reps[3]]), groups)
            }
        };

        let app = EcomState {
            sales,
            stock,
            gen: WorkloadGen::new(
                config.workload.clone(),
                DetRng::new(config.seed).derive(0xEC0),
            ),
            metrics: EcomMetrics::default(),
            stopped: false,
            stop_after_orders: None,
            bank: None,
            append: None,
        };
        let mut world = DemoWorld::new(st);
        world.install_app(app);
        // Installed after construction: formatting and seeding above go
        // through write_direct and must not appear in the trace — and the
        // history likewise starts at the workload's first operation.
        if config.trace {
            world.st.set_tracer(tsuru_storage::Tracer::enabled());
        }
        if config.history {
            world.st.set_history(tsuru_history::Recorder::enabled());
        }

        TwoSiteRig {
            world,
            sim: Sim::new(),
            main,
            backup,
            vols: [vols[0], vols[1], vols[2], vols[3]],
            replicas,
            metro: metro_site,
            groups,
            config,
        }
    }

    /// Recover the business from the metro site's volumes (`ThreeDc`).
    pub fn recover_from_metro(&self) -> RecoveryOutcome {
        let (metro, vols) = self.metro.expect("rig has no metro site");
        self.recover_from(metro, &vols)
    }

    /// Start the closed-loop clients and run for `duration` of simulated
    /// time (events beyond the horizon stay queued).
    pub fn run_workload_for(&mut self, duration: SimDuration) {
        start_clients(&mut self.world, &mut self.sim);
        self.sim.run_for(&mut self.world, duration);
    }

    /// Arm the self-healing supervisor on the world and schedule its
    /// periodic probe from now until (at least) `until`. The tick budget
    /// is computed up front so the probe chain terminates deterministically
    /// shortly after the horizon instead of keeping the sim alive forever.
    pub fn enable_supervisor(
        &mut self,
        policy: tsuru_storage::SupervisorPolicy,
        until: SimTime,
    ) {
        let interval = policy.probe_interval;
        assert!(!interval.is_zero(), "probe interval must be positive");
        self.world.st.enable_supervisor(policy);
        let span = until.saturating_since(self.sim.now());
        let ticks = (span.as_nanos() / interval.as_nanos()).max(1) as u32;
        self.sim.schedule_event_in(
            interval,
            DemoEvent::Control(ControlOp::SupervisorTick {
                remaining: ticks - 1,
            }),
        );
    }

    /// Arm the SLO/alerting engine on the world and schedule its periodic
    /// evaluation from now until (at least) `until`. The tick budget is
    /// computed up front, like [`TwoSiteRig::enable_supervisor`], so the
    /// evaluation chain terminates deterministically shortly after the
    /// horizon.
    pub fn enable_alerts(&mut self, profile: tsuru_storage::AlertProfile, until: SimTime) {
        let interval = profile.eval_interval;
        assert!(!interval.is_zero(), "eval interval must be positive");
        self.world.st.enable_alerts(profile, self.sim.now());
        let span = until.saturating_since(self.sim.now());
        let ticks = (span.as_nanos() / interval.as_nanos()).max(1) as u32;
        self.sim.schedule_event_in(
            interval,
            DemoEvent::Control(ControlOp::SloTick {
                remaining: ticks - 1,
            }),
        );
    }

    /// Schedule a main-site disaster at `at`.
    pub fn schedule_main_failure(&mut self, at: SimTime) {
        let array = self.main;
        self.sim
            .schedule_event_at(at, DemoEvent::Control(ControlOp::FailArray { array }));
    }

    /// Let in-flight replication settle after a failure (bounded horizon).
    pub fn settle(&mut self, horizon: SimTime) {
        self.sim.run_until(&mut self.world, horizon);
    }

    /// Failover: promote every group and report storage-level consistency
    /// and RPO (`failure_time` is when the disaster struck).
    pub fn failover(&mut self, failure_time: SimTime) -> (ConsistencyReport, RpoReport) {
        for &g in &self.groups {
            self.world.st.promote_group(g);
        }
        let consistency = self.world.st.verify_consistency(&self.groups);
        let rpo = self.world.st.rpo_report(&self.groups, failure_time);
        (consistency, rpo)
    }

    /// Recover both databases from the given array's volumes and run the
    /// business-level checks.
    pub fn recover_from(&self, array: ArrayId, vols: &[VolRef; 4]) -> RecoveryOutcome {
        let arr = self.world.st.array(array);
        let sales = MiniDb::recover(
            "sales-recovered",
            &VolumeView::new(arr, vols[0].volume),
            &VolumeView::new(arr, vols[1].volume),
            self.config.db.clone(),
        );
        let stock = MiniDb::recover(
            "stock-recovered",
            &VolumeView::new(arr, vols[2].volume),
            &VolumeView::new(arr, vols[3].volume),
            self.config.db.clone(),
        );
        let invariant = match (&sales, &stock) {
            (Ok((s, _)), Ok((t, _))) => Some(check_cross_db(
                s,
                t,
                self.config.workload.initial_stock,
            )),
            _ => None,
        };
        let orders = match &sales {
            Ok((s, _)) => Some(order_rpo(&self.world.app().metrics.committed_log, s)),
            Err(_) => None,
        };
        RecoveryOutcome {
            sales,
            stock,
            invariant,
            orders,
        }
    }

    /// Recover from the backup site's replica volumes.
    pub fn recover_from_backup(&self) -> RecoveryOutcome {
        let replicas = self.replicas.expect("rig has no replicas (mode=None)");
        self.recover_from(self.backup, &replicas)
    }

    /// Take an atomic snapshot group of the backup-site replicas at the
    /// current instant (the demo's step D2, via the direct array path).
    pub fn snapshot_backup_group(&mut self, name: &str) -> Vec<SnapshotId> {
        let replicas = self.replicas.expect("rig has no replicas (mode=None)");
        let now = self.sim.now();
        self.world.st.snapshot_group(
            self.backup,
            &[
                replicas[0].volume,
                replicas[1].volume,
                replicas[2].volume,
                replicas[3].volume,
            ],
            name,
            now,
        )
    }

    /// Recover both databases from a snapshot group (in
    /// [`Self::snapshot_backup_group`] order) and run analytics on them —
    /// the demo's step D3.
    pub fn analytics_on_snapshots(
        &self,
        snaps: &[SnapshotId],
        top_k: usize,
    ) -> Result<AnalyticsReport, RecoveryError> {
        assert_eq!(snaps.len(), 4, "expected a 4-volume snapshot group");
        let arr = self.world.st.array(self.backup);
        let (sales, _) = MiniDb::recover(
            "sales-snap",
            &SnapshotView::new(arr, snaps[0]),
            &SnapshotView::new(arr, snaps[1]),
            self.config.db.clone(),
        )?;
        let (stock, _) = MiniDb::recover(
            "stock-snap",
            &SnapshotView::new(arr, snaps[2]),
            &SnapshotView::new(arr, snaps[3]),
            self.config.db.clone(),
        )?;
        Ok(tsuru_analytics::run_analytics(&sales, &stock, top_k))
    }

    /// Transaction latency summary.
    pub fn latency_summary(&self) -> Summary {
        self.world.app().metrics.txn_latency.summary()
    }

    /// Committed orders so far.
    pub fn committed_orders(&self) -> u64 {
        self.world.app().metrics.committed_orders
    }

    /// Throughput in transactions per simulated second over `[0, now]`.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.sim.now().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.committed_orders() as f64 / secs
        }
    }
}
