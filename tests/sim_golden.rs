//! Golden bit-identity table for the cycle-level simulator.
//!
//! Every observable the simulator produces — the full [`RunReport`]
//! (host words as bits, cycles, fp-op count, queue occupancy marks,
//! boundary streams as bits), the `run_traced` event sequence, and the
//! full [`FaultReport`] of every fault class — is digested into
//! `tests/golden/sim_reports.txt`. The table was recorded from the
//! simulator *before* its hot loop was rebuilt; any rewrite of the loop
//! must reproduce it untouched.
//!
//! When the machine model changes on purpose, refresh the table with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test sim_golden
//! ```
//!
//! and review the diff of `tests/golden/sim_reports.txt` like code.

use std::fmt::Write as _;
use std::sync::Arc;
use warp::cell::{BlockCode, CellCode, CellMachine, CodeRegion, IoField, MicroInst, Operand, Reg};
use warp::common::hash::StableHasher;
use warp::common::{CancelToken, ManualClock};
use warp::compiler::audit::seeded_inputs;
use warp::compiler::{CompileOptions, CompiledModule, Session, SessionCtrl};
use warp::host::{HostMemory, HostNode, HostProgram, HostScript, HostWord};
use warp::iu::IuProgram;
use warp::sim::{
    run_traced, Fault, FaultPlan, FaultReport, MachineConfig, RunReport, SimError, SimOptions,
    TraceEvent,
};
use warp::w2::ast::{Chan, Dir};
use warp::w2::VarKind;

const CORPUS: [&str; 7] = [
    "polynomial.w2",
    "conv1d.w2",
    "binop.w2",
    "colorseg.w2",
    "mandelbrot.w2",
    "fft16.w2",
    "matmul_2x4x4.w2",
];

const SEEDS: [u64; 2] = [1, 0xDEAD_BEEF];

fn compile(file: &str, pipeline: bool) -> CompiledModule {
    let path = format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        })
        .compile(&src)
        .unwrap_or_else(|d| panic!("{file} compiles: {d}"))
}

fn hash_words(h: &mut StableHasher, words: &[f32]) {
    h.write_u64(words.len() as u64);
    for w in words {
        h.write(&w.to_bits().to_le_bytes());
    }
}

/// Every host variable's words as bits, in variable-id order.
fn host_digest(module: &CompiledModule, host: &HostMemory) -> u64 {
    let mut h = StableHasher::new();
    for (_, info) in module.ir.vars.iter() {
        if info.kind == VarKind::Host {
            h.write_str(&info.name);
            hash_words(&mut h, host.get(&info.name).expect("host variable exists"));
        }
    }
    h.finish()
}

fn events_digest(events: &[TraceEvent]) -> u64 {
    let mut h = StableHasher::new();
    for e in events {
        h.write_u64(e.cycle);
        h.write_u64(e.cell as u64);
        h.write_u64(e.chan as u64);
        h.write_u64(u64::from(e.is_recv));
        h.write_u64(u64::from(e.value.to_bits()));
    }
    h.finish()
}

fn report_line(module: &CompiledModule, r: &RunReport) -> String {
    let mut streams = String::new();
    for (chan, words) in &r.out_streams {
        let mut h = StableHasher::new();
        hash_words(&mut h, words);
        write!(streams, " {chan:?}:{}:{:016x}", words.len(), h.finish()).unwrap();
    }
    format!(
        "ok cycles={} fp_ops={} max_occ={} high_water={:?} words_out={} host={:016x} streams=[{}]",
        r.cycles,
        r.fp_ops,
        r.max_queue_occupancy,
        r.queue_high_water,
        r.words_out,
        host_digest(module, &r.host),
        streams.trim_start(),
    )
}

fn fault_line(f: &FaultReport) -> String {
    format!(
        "fault error={:?} cycles_run={} high_water={:?} recent={}:{:016x} injected={:?}",
        f.error,
        f.cycles_run,
        f.queue_high_water,
        f.recent_events.len(),
        events_digest(&f.recent_events),
        f.injected,
    )
}

fn outcome_line(module: &CompiledModule, r: &Result<RunReport, Box<FaultReport>>) -> String {
    match r {
        Ok(report) => report_line(module, report),
        Err(fault) => fault_line(fault),
    }
}

fn bound_host(module: &CompiledModule, seed: u64) -> HostMemory {
    let mut host = HostMemory::new(&module.ir.vars);
    for (name, data) in seeded_inputs(module, seed) {
        host.set(&name, &data).expect("seeded input binds");
    }
    host
}

fn machine_config(module: &CompiledModule) -> MachineConfig<'_> {
    MachineConfig {
        cell_code: &module.cell_code,
        iu: &module.iu,
        host_program: &module.host,
        machine: &module.machine,
        n_cells: module.n_cells,
        skew: module.skew.min_skew,
        flow: module.skew.flow,
    }
}

fn slices(owned: &[(String, Vec<f32>)]) -> Vec<(&str, &[f32])> {
    owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect()
}

fn run_with(module: &CompiledModule, seed: u64, opts: &SimOptions) -> String {
    let owned = seeded_inputs(module, seed);
    let inputs = slices(&owned);
    outcome_line(
        module,
        &module.run_audited(module.n_cells, module.skew.min_skew, &inputs, opts),
    )
}

fn with_plan(plan: FaultPlan) -> SimOptions {
    SimOptions {
        plan,
        ..SimOptions::default()
    }
}

/// One instance of every fault class (and the option knobs around
/// them), each as `(label, options)`.
fn fault_cases(module: &CompiledModule) -> Vec<(String, SimOptions)> {
    let plan = |f: Fault| FaultPlan::new(7).with(f);
    let mut cases: Vec<(String, SimOptions)> = Vec::new();
    let mut add = |label: &str, opts: SimOptions| cases.push((label.to_owned(), opts));

    add("clean", SimOptions::default());
    add(
        "claims",
        SimOptions {
            claims: Some(module.claims()),
            ..with_plan(plan(Fault::SkewDelta(-1)))
        },
    );
    add("skew-1", with_plan(plan(Fault::SkewDelta(-1))));
    add("skew+3", with_plan(plan(Fault::SkewDelta(3))));
    add("skew-1000", with_plan(plan(Fault::SkewDelta(-1000))));
    add(
        "queue=1,skew+100",
        with_plan(plan(Fault::QueueCapacity(1)).with(Fault::SkewDelta(100))),
    );
    add("queue=0", with_plan(plan(Fault::QueueCapacity(0))));
    add("queue=1", with_plan(plan(Fault::QueueCapacity(1))));
    add("queue=2", with_plan(plan(Fault::QueueCapacity(2))));
    add(
        "queue=3,skew+128",
        with_plan(plan(Fault::QueueCapacity(3)).with(Fault::SkewDelta(128))),
    );
    add(
        "adr-delay-all",
        with_plan(plan(Fault::DelayAddresses {
            cell: None,
            cycles: 1 << 30,
        })),
    );
    add(
        "adr-delay@1",
        with_plan(plan(Fault::DelayAddresses {
            cell: Some(1),
            cycles: 2,
        })),
    );
    add(
        "adr-drop-all",
        with_plan(plan(Fault::DropAddress {
            cell: None,
            index: 0,
        })),
    );
    add(
        "adr-drop@1",
        with_plan(plan(Fault::DropAddress {
            cell: Some(1),
            index: 3,
        })),
    );
    add(
        "adr-drop-two@0",
        with_plan(
            plan(Fault::DropAddress {
                cell: Some(0),
                index: 5,
            })
            .with(Fault::DropAddress {
                cell: Some(0),
                index: 1,
            }),
        ),
    );
    add(
        "adr-drop-last",
        with_plan(plan(Fault::DropAddress {
            cell: None,
            index: module.iu.emissions().len().saturating_sub(1),
        })),
    );
    add(
        "adr-corrupt-all",
        with_plan(plan(Fault::CorruptAddress {
            cell: None,
            index: 0,
            addr: 999_999,
        })),
    );
    add(
        "adr-corrupt@1",
        with_plan(plan(Fault::CorruptAddress {
            cell: Some(1),
            index: 2,
            addr: 7,
        })),
    );
    add(
        "adr-corrupt@last-valid",
        with_plan(plan(Fault::CorruptAddress {
            cell: Some(module.n_cells as usize - 1),
            index: 1,
            addr: 4095,
        })),
    );
    for (label, chan, index) in [
        ("drop-x0", Chan::X, 0u64),
        ("drop-x5", Chan::X, 5),
        ("drop-y0", Chan::Y, 0),
        ("drop-x-last-cell", Chan::X, 10_000),
    ] {
        add(label, with_plan(plan(Fault::DropWord { chan, index })));
    }
    for (label, chan, index) in [
        ("corrupt-x0", Chan::X, 0u64),
        ("corrupt-x7", Chan::X, 7),
        ("corrupt-y1", Chan::Y, 1),
    ] {
        add(label, with_plan(plan(Fault::CorruptWord { chan, index })));
    }
    add(
        "corrupt+drop",
        with_plan(
            FaultPlan::new(99)
                .with(Fault::CorruptWord {
                    chan: Chan::X,
                    index: 2,
                })
                .with(Fault::CorruptWord {
                    chan: Chan::X,
                    index: 2,
                })
                .with(Fault::DropWord {
                    chan: Chan::X,
                    index: 9,
                }),
        ),
    );
    add(
        "truncate-x3",
        with_plan(plan(Fault::TruncateInput {
            chan: Chan::X,
            keep: 3,
        })),
    );
    add(
        "truncate-y0",
        with_plan(plan(Fault::TruncateInput {
            chan: Chan::Y,
            keep: 0,
        })),
    );
    add("flip-flow", with_plan(plan(Fault::FlipFlow)));
    add("budget=50", with_plan(plan(Fault::CycleBudget(50))));
    add("budget=0", with_plan(plan(Fault::CycleBudget(0))));
    for ring in [0usize, 1, 3, 1000] {
        add(
            &format!("ring={ring}"),
            SimOptions {
                ring_capacity: ring,
                ..with_plan(plan(Fault::SkewDelta(-1)))
            },
        );
        add(
            &format!("ring={ring},budget=40"),
            SimOptions {
                ring_capacity: ring,
                ..with_plan(plan(Fault::CycleBudget(40)))
            },
        );
    }
    // A deadline token on a clock that advances one tick per poll: the
    // stop is observed at a cycle fixed by `poll_interval` alone.
    for (poll_interval, deadline) in [(7u64, 5u64), (1, 12), (0, 3), (1024, 0)] {
        let clock = Arc::new(ManualClock::with_auto_advance(0, 1));
        add(
            &format!("cancel poll={poll_interval} deadline={deadline}"),
            SimOptions {
                cancel: CancelToken::with_deadline(clock, deadline),
                poll_interval,
                ..SimOptions::default()
            },
        );
    }
    let cancelled = CancelToken::new(Arc::new(ManualClock::new(0)));
    cancelled.cancel();
    add(
        "cancelled-up-front",
        SimOptions {
            cancel: cancelled,
            ..SimOptions::default()
        },
    );
    cases
}

fn build_table() -> String {
    let mut table = String::new();

    // Clean runs: the whole corpus, both cell-codegen modes, two seeds.
    for pipeline in [true, false] {
        for file in CORPUS {
            let module = compile(file, pipeline);
            for seed in SEEDS {
                let owned = seeded_inputs(&module, seed);
                let report = module
                    .run(&slices(&owned))
                    .unwrap_or_else(|e| panic!("{file}: {e}"));
                let line = report_line(&module, &report);
                writeln!(
                    table,
                    "run {file} pipeline={pipeline} seed={seed:#x} | {line}"
                )
                .unwrap();
                if pipeline && seed == SEEDS[0] {
                    // The option-taking entry point must report the
                    // same run as the plain one.
                    assert_eq!(
                        run_with(&module, seed, &SimOptions::default()),
                        line,
                        "{file}: run and run_with_options disagree"
                    );
                }
            }
        }
    }

    // Full event sequences for two multi-cell programs.
    for file in ["polynomial.w2", "matmul_2x4x4.w2"] {
        for pipeline in [true, false] {
            let module = compile(file, pipeline);
            let mut events = Vec::new();
            let report = run_traced(
                &machine_config(&module),
                bound_host(&module, SEEDS[0]),
                &mut events,
            )
            .unwrap_or_else(|e| panic!("{file}: {e}"));
            writeln!(
                table,
                "trace {file} pipeline={pipeline} | events={}:{:016x} {}",
                events.len(),
                events_digest(&events),
                report_line(&module, &report),
            )
            .unwrap();
        }
    }

    // A failing traced run keeps the events up to the violation.
    {
        let module = compile("polynomial.w2", true);
        let mut events = Vec::new();
        let err = run_traced(
            &MachineConfig {
                skew: module.skew.min_skew - 1,
                ..machine_config(&module)
            },
            bound_host(&module, SEEDS[0]),
            &mut events,
        )
        .expect_err("one cycle under the minimum skew fails");
        writeln!(
            table,
            "trace polynomial.w2 skew-1 | events={}:{:016x} error={err:?}",
            events.len(),
            events_digest(&events),
        )
        .unwrap();
    }

    // Every fault class, on four multi-cell programs (the last two use
    // the IU address path).
    for file in ["polynomial.w2", "conv1d.w2", "matmul_2x4x4.w2", "fft16.w2"] {
        let module = compile(file, true);
        for (label, opts) in fault_cases(&module) {
            writeln!(
                table,
                "fault {file} {label} | {}",
                run_with(&module, SEEDS[1], &opts)
            )
            .unwrap();
        }
    }
    table
}

#[test]
fn simulator_reports_match_the_recorded_table() {
    let got = build_table();
    let path = format!(
        "{}/tests/golden/sim_reports.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "sim_reports.txt line {}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "sim_reports.txt line count"
    );
}

/// Two cells, a 2-word queue, six cycles that each receive from the
/// left and send to the right: cell 0 runs `skew` cycles ahead, so
/// the interior queue holds `skew` words when cell 1 starts.
fn send_and_receive_every_cycle(skew: i64) -> Result<RunReport, SimError> {
    let mut inst = MicroInst::default();
    inst.io[0] = Some(IoField::Recv {
        dst: Some(Reg(0)),
        ext: None,
    });
    inst.io[2] = Some(IoField::Send {
        src: Operand::Imm(1.0),
        ext: None,
    });
    let code = CellCode {
        name: "synthetic".into(),
        pipelined: vec![],
        regions: vec![CodeRegion::Block(BlockCode {
            insts: vec![inst; 6],
            io_events: vec![],
            adr_deadlines: vec![],
            source: None,
        })],
        regs_used: 1,
        scratch_words: 0,
    };
    let six = |word| {
        let body = vec![HostNode::Word(word)];
        HostScript::new(vec![HostNode::Loop { count: 6, body }]).expect("a valid nest")
    };
    let host_program = HostProgram {
        inputs: [(Chan::X, six(HostWord::Lit(2.0)))].into(),
        outputs: [(Chan::X, six(HostWord::Lit(0.0)))].into(),
    };
    let machine = CellMachine {
        queue_capacity: 2,
        ..CellMachine::default()
    };
    warp::sim::run(
        &MachineConfig {
            cell_code: &code,
            iu: &IuProgram::default(),
            host_program: &host_program,
            machine: &machine,
            n_cells: 2,
            skew,
            flow: Dir::Right,
        },
        HostMemory::default(),
    )
}

#[test]
fn full_queue_with_same_cycle_send_and_receive_is_not_overflow() {
    // From cycle 2 on the queue holds exactly `capacity` words at
    // the start of a cycle, gains one and loses one (Figure 6-3):
    // overflow is judged at the end of the cycle, where it is full
    // but not over.
    let report = send_and_receive_every_cycle(2).expect("capacity is not exceeded");
    assert_eq!(report.max_queue_occupancy, 2);
    assert_eq!(report.queue_high_water[&Chan::X], 2);
    assert_eq!(report.words_out, 6);
}

#[test]
fn one_word_over_capacity_at_end_of_cycle_is_overflow() {
    let err = send_and_receive_every_cycle(3).expect_err("three words in a 2-word queue");
    assert_eq!(
        err,
        SimError::QueueOverflow {
            cell: 1,
            chan: Chan::X,
            cycle: 2,
            capacity: 2,
        }
    );
}
