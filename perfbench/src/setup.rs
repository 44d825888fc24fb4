//! Machine set-up for each workload, timed call by call.
//!
//! Serving set-up mirrors `babelfish::experiment::capture_setup` call for
//! call (the replay workload checks this: a trace captured through the
//! library replays onto a machine built here), so the benchmark can time
//! each public call on its own.

use crate::spans::Spans;
use babelfish::containers::{
    BringupProfile, Container, ContainerImage, ContainerRuntime, ImageFile, ImageFileKind,
    ImageSpec,
};
use babelfish::experiment::ExperimentConfig;
use babelfish::workloads::{AccessDensity, DataServing, FunctionKind, ServingVariant};
use babelfish::{Machine, Mode, SimConfig};
use bf_telemetry::Snapshot;
use std::time::Instant;

/// Epoch length of the traced run's timeline, in accesses. Every
/// registered invariant is checked at each epoch boundary.
pub const TIMELINE_EVERY: u64 = 1 << 16;

/// Host seconds spent in each set-up call, summed over the calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub machine_new: f64,
    pub build_image: f64,
    pub create: f64,
    pub bringup: f64,
    pub prefault: f64,
    /// FaaS: running the cold round's functions to completion.
    pub drive: f64,
    /// FaaS: exiting the cold round's processes.
    pub exit: f64,
}

impl SetupTimes {
    pub fn scaled(self, factor: f64) -> SetupTimes {
        SetupTimes {
            machine_new: self.machine_new * factor,
            build_image: self.build_image * factor,
            create: self.create * factor,
            bringup: self.bringup * factor,
            prefault: self.prefault * factor,
            drive: self.drive * factor,
            exit: self.exit * factor,
        }
    }
}

/// Runs `f` in a span and adds its host time to `acc`.
pub fn timed<T>(acc: &mut f64, spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = spans.span(name, f);
    *acc += start.elapsed().as_secs_f64();
    out
}

/// The simulator configuration `experiment::capture_setup` builds, with
/// the timeline and fail-fast invariants switched on for a traced run.
pub fn sim_config(mode: Mode, cfg: &ExperimentConfig, thp: bool, traced: bool) -> SimConfig {
    let mut sim = SimConfig::new(cfg.cores, mode).with_frames(cfg.frames);
    if traced {
        sim = sim.with_timeline(TIMELINE_EVERY, true);
    }
    sim.quantum_cycles = cfg.quantum_cycles;
    if !thp {
        sim = sim.without_thp();
    }
    sim
}

/// FNV-1a digest of a telemetry snapshot's JSON rendering.
pub fn digest(snapshot: &Snapshot) -> u64 {
    let text = serde_json::to_string(snapshot).expect("snapshots always serialize");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A deployed serving machine: mongodb containers, brought up and
/// prefaulted, with no workloads attached yet.
pub struct Serving {
    pub machine: Machine,
    pub deployed: Vec<(babelfish::types::CoreId, Container)>,
}

pub fn serving(
    cfg: &ExperimentConfig,
    traced: bool,
    t: &mut SetupTimes,
    spans: &mut Spans,
) -> Serving {
    let sim = sim_config(Mode::babelfish(), cfg, false, traced);
    let mut machine = timed(&mut t.machine_new, spans, "sim.new", || Machine::new(sim));
    let (mut runtime, image, group) =
        timed(&mut t.build_image, spans, "containers.build_image", || {
            let runtime = ContainerRuntime::new(machine.kernel_mut());
            let spec = ImageSpec::data_serving(ServingVariant::MongoDb.name(), cfg.dataset_bytes);
            let image = runtime.build_image(machine.kernel_mut(), &spec);
            let group = runtime.create_group(machine.kernel_mut());
            (runtime, image, group)
        });
    let profile = BringupProfile::default();
    let mut deployed = Vec::new();
    for core in 0..cfg.cores {
        let core = babelfish::types::CoreId::new(core);
        for _slot in 0..cfg.containers_per_core {
            let container = timed(&mut t.create, spans, "containers.create", || {
                runtime
                    .create_container(machine.kernel_mut(), &image, group)
                    .expect("container creation failed")
            });
            timed(&mut t.bringup, spans, "sim.bringup", || {
                machine.measure_bringup(core, &container, &profile, cfg.seed)
            });
            timed(&mut t.prefault, spans, "sim.prefault", || {
                machine.prefault(container.pid())
            });
            deployed.push((core, container));
        }
    }
    Serving { machine, deployed }
}

/// Attaches one mongodb generator per container, seeded as
/// `experiment::run_serving` seeds them.
pub fn attach_serving(serving: &mut Serving, seed: u64) {
    for (i, (core, container)) in serving.deployed.iter().enumerate() {
        let workload = DataServing::new(
            ServingVariant::MongoDb,
            container.layout().clone(),
            seed + i as u64,
        );
        serving
            .machine
            .attach(*core, container.pid(), Box::new(workload));
    }
}

/// The FaaS machine: one core, the trio's images over one shared input.
pub struct Faas {
    pub machine: Machine,
    pub runtime: ContainerRuntime,
    pub images: Vec<(FunctionKind, ContainerImage)>,
    pub group: babelfish::types::Ccid,
}

/// The FaaS trio runs sparse: the density the paper's FaaS gains are
/// largest for, and the one with the most faults per access.
pub const DENSITY: AccessDensity = AccessDensity::Sparse;

pub fn faas(cfg: &ExperimentConfig, traced: bool, t: &mut SetupTimes, spans: &mut Spans) -> Faas {
    let sim = sim_config(Mode::babelfish(), cfg, true, traced);
    let mut machine = timed(&mut t.machine_new, spans, "sim.new", || Machine::new(sim));
    let (runtime, images, group) =
        timed(&mut t.build_image, spans, "containers.build_image", || {
            let runtime = ContainerRuntime::new(machine.kernel_mut());
            let group = runtime.create_group(machine.kernel_mut());
            let input = ImageFile {
                file: machine.kernel_mut().register_file(cfg.function_input_bytes),
                bytes: cfg.function_input_bytes,
                kind: ImageFileKind::Dataset,
            };
            let images = FunctionKind::ALL
                .iter()
                .map(|&kind| {
                    let mut spec = ImageSpec::function(kind.name());
                    spec.dataset_bytes = cfg.function_input_bytes;
                    (
                        kind,
                        runtime.build_image_with_dataset(machine.kernel_mut(), &spec, input),
                    )
                })
                .collect();
            (runtime, images, group)
        });
    Faas {
        machine,
        runtime,
        images,
        group,
    }
}
