//! Criterion micro-benchmarks of the substrates: code construction, schedule
//! generation, baseline and Cyclone compilation, and BP+OSD decoding. These measure
//! the library's own performance (not the simulated hardware times of the figure
//! benches).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cyclone::{CycloneCodesign, CycloneConfig};
use decoder::bp::priors_digest;
use decoder::bposd::BpOsdDecoder;
use decoder::scratch::DecoderScratch;
use qccd::compiler::baseline::compile_baseline;
use qccd::compiler::dynamic::compile_dynamic;
use qccd::timing::OperationTimes;
use qccd::topology::{baseline_grid, mesh_junction_network};
use qec::codes::{bb_72_12_6, hgp_225_9_6};
use qec::schedule::{max_parallel_schedule, serial_schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_code_construction(c: &mut Criterion) {
    c.bench_function("construct bb_72_12_6", |b| {
        b.iter(|| bb_72_12_6().expect("valid"))
    });
}

fn bench_schedules(c: &mut Criterion) {
    let code = bb_72_12_6().expect("valid");
    c.bench_function("max_parallel_schedule bb72", |b| {
        b.iter(|| max_parallel_schedule(&code))
    });
}

fn bench_cyclone_compile(c: &mut Criterion) {
    let code = hgp_225_9_6().expect("valid");
    let times = OperationTimes::default();
    c.bench_function("cyclone compile hgp225", |b| {
        b.iter(|| CycloneCodesign::new(&code, CycloneConfig::base()).compile(&times))
    });
}

fn bench_baseline_compile(c: &mut Criterion) {
    let times = OperationTimes::default();
    // HGP-225's grid is where nearly every shuttle meets a full trap, so the
    // rebalancer's nearest-free-trap search dominates there.
    for (name, code) in [
        ("bb72", bb_72_12_6().expect("valid")),
        ("hgp225", hgp_225_9_6().expect("valid")),
    ] {
        let topo = baseline_grid(code.num_qubits(), 5);
        let sched = serial_schedule(&code);
        c.bench_function(&format!("baseline compile {name}"), |b| {
            b.iter(|| compile_baseline(&code, &topo, &times, &sched))
        });
    }
}

fn bench_dynamic_mesh_compile(c: &mut Criterion) {
    let code = hgp_225_9_6().expect("valid");
    let times = OperationTimes::default();
    let topo = mesh_junction_network(code.num_qubits(), 5);
    let sched = max_parallel_schedule(&code);
    c.bench_function("dynamic-mesh compile hgp225", |b| {
        b.iter(|| compile_dynamic(&code, &topo, &times, &sched))
    });
}

fn bench_decoder(c: &mut Criterion) {
    let code = bb_72_12_6().expect("valid");
    let decoder = BpOsdDecoder::new(code.hz(), 30);
    let n = code.num_qubits();
    let priors = vec![0.01; n];
    let key = priors_digest(&priors);
    let mut scratch = DecoderScratch::new();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("bp+osd decode bb72 p=1e-2", |b| {
        b.iter_batched(
            || {
                let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.01)).collect();
                code.z_syndrome(&e)
            },
            |syndrome| decoder.decode_with_priors_keyed_into(&syndrome, &priors, key, &mut scratch),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(10);
    targets = bench_code_construction,
        bench_schedules,
        bench_cyclone_compile,
        bench_baseline_compile,
        bench_dynamic_mesh_compile,
        bench_decoder
);
criterion_main!(substrates);
