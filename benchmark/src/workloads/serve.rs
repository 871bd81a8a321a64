//! `serve_cold` and `serve_warm`: one op is `submit NAME FILE [backend]`
//! then `run` over the Unix socket of the real `w2cd --listen`, until
//! the batch summary has been read.
//!
//! The load is a closed loop — a compile client waits for its reply —
//! with `C = min(nproc, 4)` client connections, one thread each, and
//! `w2cd --workers C`, where `nproc` is what this process may use:
//! `run.sh` pins the benchmark, and with it the daemon, to one CPU, so
//! there C = 1 (see README.md, "One CPU"). `serve_cold` requests
//! programs the daemon has never seen (the miss path up to the store:
//! socket, protocol, pool hand-off, compile, cache insert, native smoke
//! run; `cache clear` between rounds).
//! `serve_warm` draws Zipf-distributed requests over 40 programs that
//! set-up compiled into the store before *restarting* the daemon, so
//! set-up pays store puts, recovery and disk-tier hits and the timed
//! phase is pure memory-tier hits: nothing below the cache runs.
//!
//! The timed rounds of `serve_cold` run `w2cd` **without**
//! `--store-dir`. The benchmark may only write inside its checkout — a
//! real disk — and there one `fsync` per artifact is three quarters of
//! a cold request (0.7 ms without the store, 2.7 ms with it) and drifts
//! with the state of the file system: ten consecutive runs fell from
//! 930 to 670 requests a second. No change to this repository moves
//! that number, so it is kept out of the bounded metrics. The store
//! side of the miss path is still run end to end against the real
//! binary, once per run in the gate: a second `w2cd --store-dir` takes
//! the same round of requests, every reply and the daemon's own store
//! counters are checked, its byte count is `artifact_kib`, and the
//! share of a cold request the store takes on this disk is reported as
//! `store.cold_op_share`. `serve_warm`'s set-up (`setup_s`) and the
//! `store.*` and `wire.*` probes of the traced pass time the same code.
//!
//! The shipped binary has no tracing, so the traced pass (a) records
//! client-side spans around the same socket calls, (b) reads the live
//! daemon's counters with the `stats`/`cache`/`store` verbs around one
//! round, and (c) replays the identical request sequence in-process
//! against a `CompileDaemon` with `w2cd`'s configuration (checked
//! against the live daemon's `health` line), with spans around
//! `ClientSession::handle_line`, then times each layer below it through
//! its public functions.

use super::span;
use crate::calib;
use crate::harness::{thread_count, Finish, RoundOut, SetupCtx, Workload};
use crate::items::{self, Family, Item};
use crate::trace::{SelfTimes, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warp_common::{RealVfs, SystemClock};
use warp_compiler::cache::{cache_key, CacheConfig, CompileCache};
use warp_compiler::daemon::{CompileDaemon, DaemonConfig};
use warp_compiler::protocol::ClientSession;
use warp_compiler::service::ServiceConfig;
use warp_compiler::store::{artifact_bytes, DiskStore, StoreConfig, TieredCache};
use warp_compiler::{CompileOptions, CompiledModule, ExecBackend, SessionCtrl};
use warp_service::{ExecutorConfig, JobSuccess, PoolConfig, ShutdownMode, WorkerPool};

/// Distinct programs per `serve_cold` round.
const COLD_PROGRAMS: usize = 192;
/// Of those, seed-derived generated programs.
const COLD_GENERATED: usize = 48;
/// Resident programs of `serve_warm`.
const WARM_PROGRAMS: usize = 40;
/// Requests per `serve_warm` round, shared out among the clients: a
/// quarter of a second at the 35 µs a warm request takes on one CPU.
const WARM_REQUESTS: usize = 8000;
/// A reply that takes longer than this means the daemon is stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Client connections and daemon workers: the load is sized to the
/// CPUs this process may run on (one under `run.sh`), capped so a large
/// box does not turn this into a contention benchmark.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// The `w2cd` binary `run.sh` built: `$CARGO_TARGET_DIR/release/w2cd`,
/// else `target/release/w2cd` under the current directory.
fn w2cd_path() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("release").join("w2cd")
}

// --- the daemon process -------------------------------------------------

struct DaemonProc {
    child: Child,
    socket: PathBuf,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    spawn_secs: f64,
}

impl DaemonProc {
    /// Starts `w2cd --listen` exactly as shipped and waits for its
    /// "listening" line.
    fn spawn(work_dir: &Path, store_dir: Option<&Path>) -> Result<DaemonProc, String> {
        let exe = w2cd_path();
        let socket = work_dir.join("w2cd.sock");
        let t = Instant::now();
        let mut command = Command::new(&exe);
        command.arg("--listen").arg(&socket);
        if let Some(dir) = store_dir {
            command.arg("--store-dir").arg(dir);
        }
        let mut child = command
            .arg("--workers")
            .arg(clients().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).is_ok() && line.starts_with("w2cd listening on");
        if !ready {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("w2cd did not come up (said {line:?})"));
        }
        Ok(DaemonProc {
            child,
            socket,
            _stdout: stdout,
            spawn_secs: t.elapsed().as_secs_f64(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to stop and waits until the process has ended;
    /// kills it if it does not go by itself.
    fn stop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.send("shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.stop();
    }
}

// --- one client connection ----------------------------------------------

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The line read last, without its terminator. The load generator
    /// shares its cores with the daemon, so it allocates nothing per
    /// request.
    line: String,
    connect_secs: f64,
}

impl Client {
    /// Connects and reads the banner (its last line starts `health:`).
    fn connect(socket: &Path) -> Result<Client, String> {
        let t = Instant::now();
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            connect_secs: 0.0,
        };
        while !client.read_line()?.starts_with("health:") {}
        client.connect_secs = t.elapsed().as_secs_f64();
        Ok(client)
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `line`, which ends in a newline.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Sends a verb whose reply is `lines` lines.
    fn ask(&mut self, verb: &str, lines: usize) -> Result<Vec<String>, String> {
        self.send(&format!("{verb}\n"))?;
        (0..lines)
            .map(|_| self.read_line().map(str::to_owned))
            .collect()
    }

    /// One op: submit, read the acceptance, run, read the batch summary
    /// (`batch: 1 ok ...` and the job's `ok` line).
    fn submit_and_run(
        &mut self,
        req: &Request,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("client.submit");
        }
        let reply = self.exchange(req, &mut tracer);
        if let Some(t) = tracer {
            t.exit();
        }
        if reply.is_err() {
            // Resynchronise: an unhealthy batch may print extra lines.
            let _ = self
                .reader
                .get_mut()
                .set_read_timeout(Some(Duration::from_millis(50)));
            let mut sink = [0u8; 4096];
            while matches!(self.reader.read(&mut sink), Ok(n) if n > 0) {}
            let _ = self.reader.get_mut().set_read_timeout(Some(REPLY_TIMEOUT));
        }
        reply
    }

    /// The lines of one op; the `client.submit` span is open on entry
    /// and `client.run` (or, on an early error, `client.submit`) on exit.
    fn exchange(&mut self, req: &Request, tracer: &mut Option<&mut Tracer>) -> Result<(), String> {
        self.send(&req.submit_line)?;
        let accepted = self.read_line()?;
        if !accepted.starts_with("accepted ") {
            return Err(format!("not accepted: {accepted}"));
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.enter("client.run");
        }
        self.send("run\n")?;
        let batch = self.read_line()?;
        if !batch.starts_with("batch: 1 ok (0 degraded), 0 failed") {
            return Err(format!("bad batch line: {batch:?}"));
        }
        let job = self.read_line()?;
        let mut words = job.split_whitespace();
        if words.next() == Some(req.name.as_str()) && words.next() == Some("ok") {
            Ok(())
        } else {
            Err(format!("bad job line: {job:?}"))
        }
    }
}

/// Parses `section: key=value ...` replies into `section.key → value`.
fn parse_counters(lines: &[String]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in lines {
        let mut section = String::new();
        for token in line.split_whitespace() {
            if let Some(name) = token.strip_suffix(':') {
                section = name.to_owned();
            } else if let Some((k, v)) = token.split_once('=') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(format!("{section}.{k}"), v);
                }
            }
        }
    }
    out
}

// --- requests -----------------------------------------------------------

struct Program {
    item: Item,
    path: PathBuf,
    backend: ExecBackend,
}

#[derive(Clone)]
struct Request {
    program: u32,
    name: String,
    /// `submit NAME FILE [backend]`, newline included.
    submit_line: String,
}

fn request(idx: usize, p: &Program, explicit_backend: bool) -> Request {
    let name = format!("p{idx}");
    let backend = if explicit_backend {
        format!(" {}", p.backend)
    } else {
        String::new()
    };
    Request {
        program: idx as u32,
        submit_line: format!("submit {name} {}{backend}\n", p.path.display()),
        name,
    }
}

/// The fixed grid the serving programs are drawn from: small programs
/// of every corpus family, so a request costs about what an
/// interactive compile costs.
fn serving_grid() -> Vec<Family> {
    let mut grid = Vec::new();
    for cells in 2..=10 {
        for points in [16, 32, 48, 64] {
            grid.push(Family::Polynomial { cells, points });
        }
    }
    for taps in 2..=9 {
        for n in [24, 48, 72, 96] {
            grid.push(Family::Conv1d { taps, n });
        }
    }
    for size in [4, 6, 8, 10, 12, 14, 16, 20] {
        for iters in [2, 3, 4, 6] {
            grid.push(Family::Mandelbrot { size, iters });
        }
    }
    for rows in [4, 8, 12, 16] {
        for cols in [8, 16, 24, 32] {
            grid.push(Family::Binop { rows, cols });
            grid.push(Family::Colorseg { rows, cols });
            grid.push(Family::Grayseg { rows, cols });
        }
    }
    for (cells, m, p, w) in [
        (2, 2, 2, 1),
        (2, 3, 4, 2),
        (3, 2, 3, 1),
        (2, 4, 4, 2),
        (4, 2, 3, 1),
        (3, 4, 4, 2),
    ] {
        grid.push(Family::Matmul { cells, m, p, w });
    }
    for n in [4, 8, 16, 32] {
        grid.push(Family::Fft { n });
    }
    grid
}

/// Writes the programs a run requests: an evenly spaced pick of the
/// grid plus generated programs, each source led by a comment carrying
/// the seed so its text — and therefore its content-addressed cache
/// key — is unique to this seed.
fn write_programs(
    ctx: &SetupCtx<'_>,
    total: usize,
    generated: usize,
) -> Result<Vec<Program>, String> {
    let grid = serving_grid();
    let fixed = total - generated;
    let mut items: Vec<Item> = (0..fixed)
        .map(|k| Item::corpus(grid[k * grid.len() / fixed].clone()))
        .collect();
    items.extend(items::generated_items(
        ctx.seed,
        0x5E87,
        generated,
        &items::wide_gen_config(),
    ));
    let dir = ctx.input_dir.join("programs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    items
        .into_iter()
        .enumerate()
        .map(|(k, mut item)| {
            item.source = format!(
                "/* w2bench seed {} request {k} */\n{}",
                ctx.seed, item.source
            );
            let path = dir.join(format!("p{k}.w2"));
            // An earlier set-up of this run has usually written it.
            if std::fs::read(&path).ok().as_deref() != Some(item.source.as_bytes()) {
                std::fs::write(&path, &item.source)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(Program {
                item,
                path,
                backend: if k % 2 == 0 {
                    ExecBackend::Sim
                } else {
                    ExecBackend::Native
                },
            })
        })
        .collect()
}

/// `n` draws from a Zipf(1) distribution over `0..population`.
pub fn zipf_draws(seed: u64, purpose: u64, population: usize, n: usize) -> Vec<u32> {
    let weights: Vec<f64> = (1..=population).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = items::stream(seed, purpose);
    (0..n)
        .map(|_| {
            let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            weights
                .iter()
                .position(|w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(population - 1) as u32
        })
        .collect()
}

// --- the workload -------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Cold,
    Warm,
}

pub struct ServeWorkload {
    mode: Mode,
    work_dir: PathBuf,
    programs: Vec<Program>,
    /// Each client's fixed request list.
    plans: Vec<Vec<Request>>,
    clients: Vec<Client>,
    tracers: Vec<Tracer>,
    /// Counter deltas of the live daemon over the first traced round.
    live: Option<BTreeMap<String, f64>>,
    /// Disk-tier counters right after the restart (`serve_warm`).
    recovery: BTreeMap<String, f64>,
    daemon: DaemonProc,
}

fn connect_all(daemon: &DaemonProc) -> Result<Vec<Client>, String> {
    (0..clients())
        .map(|_| Client::connect(&daemon.socket))
        .collect()
}

/// Set-up of `serve_cold`.
pub fn setup_cold(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    let programs = write_programs(ctx, COLD_PROGRAMS, COLD_GENERATED)?;
    let daemon = DaemonProc::spawn(ctx.work_dir, None)?;
    let clients = connect_all(&daemon)?;
    let mut order: Vec<usize> = (0..programs.len()).collect();
    items::shuffle(&mut order, &mut items::stream(ctx.seed, 0xC01D));
    let mut plans = vec![Vec::new(); clients.len()];
    for (k, idx) in order.into_iter().enumerate() {
        plans[k % clients.len()].push(request(idx, &programs[idx], true));
    }
    Ok(Box::new(ServeWorkload {
        mode: Mode::Cold,
        work_dir: ctx.work_dir.to_owned(),
        programs,
        plans,
        tracers: clients.iter().map(|_| Tracer::new()).collect(),
        clients,
        live: None,
        recovery: BTreeMap::new(),
        daemon,
    }))
}

/// Set-up of `serve_warm`: compile into the store, restart, recover,
/// touch every program once (disk-tier hit, promoted to memory).
pub fn setup_warm(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    let programs = write_programs(ctx, WARM_PROGRAMS, WARM_PROGRAMS / 4)?;
    let store = ctx.work_dir.join("store");
    let all: Vec<Request> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| request(k, p, false))
        .collect();
    {
        let first = DaemonProc::spawn(ctx.work_dir, Some(&store))?;
        let mut client = Client::connect(&first.socket)?;
        for req in &all {
            client.submit_and_run(req, None)?;
        }
        // Leaving the block drops the client, then stops the daemon.
    }
    let daemon = DaemonProc::spawn(ctx.work_dir, Some(&store))?;
    let mut clients = connect_all(&daemon)?;
    let recovery = parse_counters(&clients[0].ask("store", 1)?);
    if recovery.get("store.recovered").copied() != Some(programs.len() as f64) {
        return Err(format!(
            "restart recovered {recovery:?}, expected {} artifacts",
            programs.len()
        ));
    }
    for req in &all {
        clients[0].submit_and_run(req, None)?;
    }
    let plans = (0..clients.len())
        .map(|c| {
            zipf_draws(
                ctx.seed,
                0x21BF + c as u64,
                programs.len(),
                WARM_REQUESTS / clients.len(),
            )
            .into_iter()
            .map(|idx| all[idx as usize].clone())
            .collect()
        })
        .collect();
    Ok(Box::new(ServeWorkload {
        mode: Mode::Warm,
        work_dir: ctx.work_dir.to_owned(),
        programs,
        plans,
        tracers: clients.iter().map(|_| Tracer::new()).collect(),
        clients,
        live: None,
        recovery,
        daemon,
    }))
}

impl ServeWorkload {
    /// The store side of the miss path, end to end: a second `w2cd`,
    /// this one with `--store-dir`, takes one round of the same
    /// requests from the same closed loop. Every reply is checked, and
    /// the daemon's own store counters must show one artifact put per
    /// program and no failure.
    fn store_pass(&self, fin: &mut Finish<'_>) -> Result<(), String> {
        let dir = self.work_dir.join("with-store");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let daemon = DaemonProc::spawn(&dir, Some(&dir.join("store")))?;
        let mut clients = connect_all(&daemon)?;
        // Only the traced pass reports a time from this round.
        let gauge_runs = if fin.traced { REPLAY_GAUGE_RUNS } else { 0 };
        let mut gauges: Vec<f64> = (0..gauge_runs).map(|_| calib::run_once()).collect();
        let (_, results) = drive(&mut clients, &self.plans, None);
        gauges.extend((0..gauge_runs).map(|_| calib::run_once()));
        let mut op_ns = vec![0u64; self.programs.len()];
        for (samples, errors) in results {
            for (program, ns) in samples {
                op_ns[program as usize] = ns;
                fin.check(None);
            }
            for e in errors {
                fin.check(Some(format!("with the store on, {e}")));
            }
        }
        let store = parse_counters(&clients[0].ask("store", 1)?);
        let get = |k: &str| store.get(k).copied().unwrap_or(-1.0);
        let n = self.programs.len() as f64;
        let all_put = get("store.puts") == n
            && get("store.artifacts") == n
            && get("store.put-failures") == 0.0
            && get("store.quarantined") == 0.0;
        fin.check((!all_put).then(|| format!("expected {n} clean puts, the store says {store:?}")));
        fin.set("artifact_kib", get("store.bytes") / 1024.0);
        if fin.traced {
            fin.set("store.puts", get("store.puts"));
            fin.set("store.put_failures", get("store.put-failures"));
            fin.set("store.quarantined", get("store.quarantined"));
            // Each program is one op of a round, so the mean over
            // programs is the mean over ops, with the store and without,
            // both at reference speed.
            let with_store = op_ns.iter().sum::<u64>() as f64 * 1e-6 / n / calib::slowdown(&gauges);
            let without = fin.items.iter().map(|r| r.op_ms_p50).sum::<f64>() / n;
            if with_store > 0.0 {
                fin.set("store.cold_op_share", 1.0 - without / with_store);
            }
        }
        Ok(())
    }

    /// `stats`, `cache` (two lines with a store) and `store`, parsed.
    fn live_counters(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let c = &mut self.clients[0];
        let mut lines = c.ask("stats", 1)?;
        // With a store, `cache` adds a line for the disk tier.
        let with_store = self.mode == Mode::Warm;
        lines.extend(c.ask("cache", if with_store { 2 } else { 1 })?);
        if with_store {
            lines.extend(c.ask("store", 1)?);
        }
        Ok(parse_counters(&lines))
    }
}

/// One client's round: `(program, op ns)` samples and error messages.
type ClientRound = (Vec<(u32, u64)>, Vec<String>);

/// The closed loop: every client works through its own plan on its own
/// thread, sending a request only after the previous reply. Returns
/// the wall time of the whole round and each client's samples.
fn drive(
    clients: &mut [Client],
    plans: &[Vec<Request>],
    tracers: Option<&mut [Tracer]>,
) -> (Duration, Vec<ClientRound>) {
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .zip(tracers.iter_mut())
            .map(|((client, plan), tracer)| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(plan.len());
                    let mut errors = Vec::new();
                    for req in plan {
                        let t = Instant::now();
                        let reply = match tracer.as_deref_mut() {
                            Some(tracer) => {
                                tracer.begin_op(req.program);
                                let r = client.submit_and_run(req, Some(&mut *tracer));
                                tracer.end_op();
                                r
                            }
                            None => client.submit_and_run(req, None),
                        };
                        match reply {
                            Ok(()) => samples.push((req.program, t.elapsed().as_nanos() as u64)),
                            Err(e) => errors.push(format!("{}: {e}", req.name)),
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    (start.elapsed(), results)
}

impl Workload for ServeWorkload {
    fn item_names(&self) -> Vec<String> {
        self.programs.iter().map(|p| p.item.name.clone()).collect()
    }

    fn worker_pid(&self) -> Option<u32> {
        Some(self.daemon.pid())
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let snapshot = traced && self.live.is_none();
        let before = if snapshot {
            self.live_counters().ok()
        } else {
            None
        };

        let (wall, results) = drive(
            &mut self.clients,
            &self.plans,
            traced.then_some(&mut self.tracers[..]),
        );
        out.wall = wall;
        for (samples, errors) in results {
            out.samples.extend(samples);
            for e in errors {
                out.fail(e);
            }
        }
        if traced {
            out.spans = self.tracers.iter_mut().map(Tracer::take_spans).collect();
        }
        if let (true, Some(before)) = (snapshot, before) {
            if let Ok(after) = self.live_counters() {
                self.live = Some(
                    after
                        .iter()
                        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                        .collect(),
                );
            }
        }
        // Every round of serve_cold must miss: drop the cache.
        if self.mode == Mode::Cold {
            match self.clients[0].ask("cache clear", 1) {
                Ok(reply) if reply[0].starts_with("cache cleared") => {}
                other => out.fail(format!("cache clear: {other:?}")),
            }
        }
        out
    }

    fn finish(&mut self, fin: &mut Finish<'_>) {
        // The daemon must have stayed healthy throughout.
        let health = self.clients[0].ask("health", 1);
        fin.check(match &health {
            Ok(l) if l[0].starts_with("healthy ") => None,
            other => Some(format!("daemon not healthy at the end: {other:?}")),
        });

        match self.mode {
            // What the restarted daemon's store holds: its own count of
            // the recovered artifacts' bytes.
            Mode::Warm => {
                let bytes = self.recovery.get("store.bytes").copied().unwrap_or(0.0);
                fin.set("artifact_kib", bytes / 1024.0);
            }
            Mode::Cold => {
                if let Err(e) = self.store_pass(fin) {
                    fin.check(Some(format!("store-on pass: {e}")));
                }
            }
        }
        if !fin.traced {
            return;
        }

        fin.set("w2cd.spawn_ms", self.daemon.spawn_secs * 1e3);
        let connect: f64 = self.clients.iter().map(|c| c.connect_secs).sum();
        fin.set("w2cd.connect_us", connect / self.clients.len() as f64 * 1e6);
        if let Some(n) = thread_count(Some(self.daemon.pid())) {
            fin.set("w2cd.threads", n as f64);
        }
        if let Some(live) = &self.live {
            let get = |k: &str| live.get(k).copied().unwrap_or(0.0);
            let mut counts = vec![
                ("cache.hits", "cache.hits"),
                ("cache.misses", "cache.misses"),
                ("cache.coalesced", "cache.coalesced"),
                ("cache.evictions", "cache.evictions"),
                ("pool.submitted", "pool.submitted"),
                ("pool.completed", "pool.completed"),
                ("pool.shed", "pool.shed"),
                ("daemon.native_attempts", "native.attempts"),
                ("daemon.native_fallbacks", "native.fallbacks"),
            ];
            if self.mode == Mode::Warm {
                counts.extend([
                    ("store.puts", "store.puts"),
                    ("store.put_failures", "store.put-failures"),
                    ("store.quarantined", "store.quarantined"),
                ]);
            }
            for (metric, counter) in counts {
                fin.set(metric, get(counter));
            }
            if get("cache.lookups") > 0.0 {
                fin.set("cache.hit_rate", get("cache.hits") / get("cache.lookups"));
            }
        }
        if let Ok(now) = self.live_counters() {
            let get = |k: &str| now.get(k).copied().unwrap_or(0.0);
            // A high-water mark, not a delta.
            fin.set("pool.max_queue_depth", get("pool.max-queue-depth"));
            if self.mode == Mode::Warm {
                // Set-up's one touch per program: each a disk-tier hit.
                fin.set("store.disk_hits", get("store.hits"));
            }
        }
        if self.mode == Mode::Warm {
            let recovered = self.recovery.get("store.recovered").copied();
            fin.set("store.recovered", recovered.unwrap_or(0.0));
        }

        if let Err(e) = replay(self, health.as_deref().unwrap_or(&[]), fin) {
            fin.check(Some(format!("in-process replay failed: {e}")));
        }
    }
}

// --- in-process replay and layer probes -----------------------------------

/// `w2cd`'s own defaults (see `parse_args` in the binary), with the
/// worker count the benchmark passes on the command line.
fn w2cd_config(store_dir: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        service: ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity: 64,
                deadline_ticks: 30_000_000,
                max_attempts: 1,
                breaker_threshold: 3,
                ..ExecutorConfig::default()
            },
            skew_max_events: 50_000_000,
            max_cell_cycles: 100_000_000,
            max_source_bytes: 4 * 1024 * 1024,
            workers: clients(),
            supervise_grace_ticks: 10_000_000,
            supervise_interval_ms: 0,
        },
        cache: CacheConfig::default(),
        store: store_dir.map(StoreConfig::new),
    }
}

/// Mean seconds per call of `f(0..n)`.
fn mean_secs(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for k in 0..n {
        f(k);
    }
    t.elapsed().as_secs_f64() / n.max(1) as f64
}

/// Gauge runs taken on each side of the replay and its probes, which
/// together last about a second: one slowdown factor covers them all.
const REPLAY_GAUGE_RUNS: usize = 4;

/// The service limits a daemon prints in its `health` line: everything
/// in `w2cd`'s configuration that a client can observe.
const HEALTH_LIMITS: [&str; 8] = [
    ".workers",
    ".queue-capacity",
    ".deadline-ms",
    ".max-attempts",
    ".breaker-threshold",
    ".skew-max-events",
    ".max-cell-cycles",
    ".max-source-bytes",
];

/// `Some(message)` when the in-process daemon of the replay is not
/// configured as the live `w2cd` is, judged by their `health` lines.
fn config_mismatch(live_health: &[String], replay: &CompileDaemon) -> Option<String> {
    let mut line = Vec::new();
    if let Err(e) = ClientSession::new(replay).handle_line(&mut line, "health") {
        return Some(format!("replay daemon: {e}"));
    }
    let ours = parse_counters(&[String::from_utf8_lossy(&line).into_owned()]);
    let theirs = parse_counters(live_health);
    HEALTH_LIMITS
        .iter()
        .find(|k| !ours.contains_key(**k) || ours.get(**k) != theirs.get(**k))
        .map(|k| {
            format!(
                "w2cd_config() is out of date: `{}` is {:?} in the replay, {:?} in the live daemon",
                &k[1..],
                ours.get(*k),
                theirs.get(*k)
            )
        })
}

/// Replays one round's requests against an in-process daemon with
/// spans around the protocol layer, then times the layers below it.
fn replay(w: &ServeWorkload, live_health: &[String], fin: &mut Finish<'_>) -> Result<(), String> {
    let opts = CompileOptions::default();
    let store_dir = (w.mode == Mode::Warm).then(|| w.work_dir.join("replay-store"));
    let config = w2cd_config(store_dir);
    let service = config.service.clone();
    let mut daemon = CompileDaemon::with_system_clock(opts.clone(), config.clone());
    let mut sink = Vec::new();
    if w.mode == Mode::Warm {
        // Same history as the live daemon: populate, restart, touch.
        let touch = |d: &CompileDaemon, sink: &mut Vec<u8>| -> Result<(), String> {
            let mut s = ClientSession::new(d);
            for (k, p) in w.programs.iter().enumerate() {
                s.handle_line(sink, &request(k, p, false).submit_line)
                    .and_then(|_| s.handle_line(sink, "run"))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        touch(&daemon, &mut sink)?;
        daemon.shutdown(ShutdownMode::Drain);
        daemon = CompileDaemon::with_system_clock(opts.clone(), config);
        touch(&daemon, &mut sink)?;
    }

    fin.check(config_mismatch(live_health, &daemon));

    let mut gauges: Vec<f64> = (0..REPLAY_GAUGE_RUNS).map(|_| calib::run_once()).collect();
    let mut tracer = Tracer::new();
    {
        let mut session = ClientSession::new(&daemon);
        for req in w.plans.iter().flatten() {
            sink.clear();
            tracer.begin_op(req.program);
            tracer.enter(span::SUBMIT_LINE);
            let a = session.handle_line(&mut sink, &req.submit_line);
            tracer.exit();
            tracer.enter(span::RUN_REPLY);
            let b = session.handle_line(&mut sink, "run");
            tracer.exit();
            tracer.end_op();
            a.and(b).map_err(|e| e.to_string())?;
            let reply = String::from_utf8_lossy(&sink);
            if !reply.contains("batch: 1 ok") {
                return Err(format!("replay of {} answered {reply:?}", req.name));
            }
        }
    }
    let mut st = SelfTimes::default();
    st.add(tracer.spans());
    fin.set("harness.self_time_cover", st.cover());
    // Seconds per call as measured, by metric; scaled to reference
    // speed at the end.
    let mut call_secs = vec![
        (
            "protocol.submit_line_us",
            st.per_call_secs(span::SUBMIT_LINE),
        ),
        ("protocol.run_reply_us", st.per_call_secs(span::RUN_REPLY)),
    ];

    // --- daemon: submit + wait, and the pool's own job wall time ----
    // Cold: the miss path (cache cleared first). Warm: the hit path.
    if w.mode == Mode::Cold {
        daemon.clear_cache();
    }
    let mut walls = Vec::new();
    let n = w.programs.len();
    let submit_wait = mean_secs(n, |k| {
        let p = &w.programs[k];
        let backend = if w.mode == Mode::Cold {
            p.backend
        } else {
            ExecBackend::default()
        };
        if let Some(id) = daemon
            .submit_with_backend(format!("p{k}"), p.item.source.clone(), backend)
            .id()
        {
            walls.extend(daemon.wait(&[id]).iter().map(|r| r.wall_ticks as f64));
        }
    });
    call_secs.push(("daemon.submit_wait_us", submit_wait));
    if !walls.is_empty() {
        // Ticks of the system clock are microseconds.
        let mean_ticks = walls.iter().sum::<f64>() / walls.len() as f64;
        call_secs.push(("pool.job_wall_us", mean_ticks * 1e-6));
    }

    // --- cache: key, hit, insert -------------------------------------
    let ctrl = SessionCtrl {
        skew_max_events: service.skew_max_events,
        max_cell_cycles: service.max_cell_cycles,
        max_source_bytes: service.max_source_bytes,
        ..SessionCtrl::default()
    };
    let keys: Vec<_> = w
        .programs
        .iter()
        .map(|p| cache_key(&p.item.source, &opts, &ctrl))
        .collect();
    call_secs.push((
        "cache.key_us",
        mean_secs(n, |k| {
            std::hint::black_box(cache_key(&w.programs[k].item.source, &opts, &ctrl));
        }),
    ));
    let modules: Vec<CompiledModule> = w
        .programs
        .iter()
        .map(|p| warp_compiler::compile(&p.item.source, &opts).map_err(|d| d.to_string()))
        .collect::<Result<_, _>>()?;
    let clock = Arc::new(SystemClock::new());
    let memory = TieredCache::new(
        CompileCache::new(CacheConfig::default(), clock.clone()),
        None,
    );
    let mut spare: Vec<Option<CompiledModule>> = modules.iter().cloned().map(Some).collect();
    call_secs.push((
        "cache.insert_us",
        mean_secs(n, |k| {
            let m = spare[k].take().expect("each module is inserted once");
            drop(std::hint::black_box(
                memory.get_or_compile(keys[k], || Ok(m)),
            ));
        }),
    ));
    call_secs.push((
        "cache.hit_us",
        mean_secs(n * 8, |k| {
            let hit = memory.get_or_compile(keys[k % n], || unreachable!("resident key"));
            drop(std::hint::black_box(hit));
        }),
    ));

    // --- wire codec and disk store -----------------------------------
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = modules.iter().map(artifact_bytes).collect();
    let encode_secs = t.elapsed().as_secs_f64();
    let mib = encoded.iter().map(Vec::len).sum::<usize>() as f64 / (1024.0 * 1024.0);
    let t = Instant::now();
    for bytes in &encoded {
        let m: CompiledModule =
            warp_common::wire::from_bytes(bytes).map_err(|e| format!("decode: {e:?}"))?;
        std::hint::black_box(m);
    }
    let decode_secs = t.elapsed().as_secs_f64();

    let probe_dir = w.work_dir.join("probe-store");
    let store = DiskStore::open(Arc::new(RealVfs), StoreConfig::new(probe_dir))
        .map_err(|e| format!("{e:?}"))?;
    let mut put_failed = 0usize;
    call_secs.push((
        "store.put_us",
        mean_secs(n, |k| {
            put_failed += usize::from(store.put(keys[k], &modules[k]).is_err())
        }),
    ));
    let mut got = 0usize;
    call_secs.push((
        "store.get_us",
        mean_secs(n, |k| got += usize::from(store.get(keys[k]).is_some())),
    ));
    fin.check(
        (put_failed > 0 || got != n)
            .then(|| format!("store probe: {put_failed} put failure(s), {got}/{n} read back")),
    );

    // --- worker pool: an empty job, submit → wait ---------------------
    let pool: WorkerPool<(), ()> = WorkerPool::new(
        PoolConfig {
            exec: service.exec.clone(),
            workers: service.workers,
            supervise_grace_ticks: service.supervise_grace_ticks,
            supervise_interval_ms: service.supervise_interval_ms,
        },
        clock,
    );
    let mut dispatch = 0.0;
    let rounds = 2000;
    let roundtrip = mean_secs(rounds, |k| {
        let t = Instant::now();
        let admitted = pool.submit(format!("noop{k}"), |_| Ok(JobSuccess::full(())));
        dispatch += t.elapsed().as_secs_f64();
        if let Some(id) = admitted.id() {
            std::hint::black_box(pool.wait(&[id]));
        }
    });
    pool.shutdown(ShutdownMode::Drain);
    call_secs.push(("pool.noop_roundtrip_us", roundtrip));
    call_secs.push(("pool.dispatch_us", dispatch / rounds as f64));

    daemon.shutdown(ShutdownMode::Drain);

    gauges.extend((0..REPLAY_GAUGE_RUNS).map(|_| calib::run_once()));
    let slowdown = calib::slowdown(&gauges);
    for (metric, secs) in call_secs {
        fin.set(metric, secs / slowdown * 1e6);
    }
    fin.set(
        "wire.encode_mib_per_s",
        mib * slowdown / encode_secs.max(1e-12),
    );
    fin.set(
        "wire.decode_mib_per_s",
        mib * slowdown / decode_secs.max(1e-12),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_for_a_seed_and_favour_low_ranks() {
        let a = zipf_draws(9, 1, 40, 4000);
        assert_eq!(a, zipf_draws(9, 1, 40, 4000));
        assert_ne!(a, zipf_draws(10, 1, 40, 4000));
        assert!(a.iter().all(|&i| i < 40));
        let count = |r: u32| a.iter().filter(|&&i| i == r).count();
        // Rank 1 carries 1/H(40) ≈ 23 % of the mass, rank 40 under 1 %.
        assert!(count(0) > 4 * count(9) && count(0) > 700, "{}", count(0));
        assert!(count(39) < 60);
    }

    #[test]
    fn counters_parse_by_section() {
        let lines = vec![
            "pool: workers=2 submitted=10 max-queue-depth=1 native: attempts=3 fallbacks=0"
                .to_owned(),
            "  disk: artifacts=4 hits=7".to_owned(),
        ];
        let c = parse_counters(&lines);
        assert_eq!(c["pool.submitted"], 10.0);
        assert_eq!(c["native.attempts"], 3.0);
        assert_eq!(c["disk.hits"], 7.0);
        assert_eq!(c["pool.max-queue-depth"], 1.0);
    }

    #[test]
    fn a_changed_daemon_limit_is_noticed() {
        let daemon = CompileDaemon::with_system_clock(CompileOptions::default(), w2cd_config(None));
        let mut line = Vec::new();
        ClientSession::new(&daemon)
            .handle_line(&mut line, "health")
            .expect("writing to a Vec cannot fail");
        let live = String::from_utf8(line).expect("the health line is UTF-8");
        assert_eq!(config_mismatch(std::slice::from_ref(&live), &daemon), None);
        let changed = live.replace("queue-capacity=64", "queue-capacity=65");
        assert_ne!(changed, live);
        let message = config_mismatch(&[changed], &daemon).expect("65 is not 64");
        assert!(message.contains("queue-capacity"), "{message}");
        assert!(config_mismatch(&[], &daemon).is_some());
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn grid_is_large_enough_and_distinct() {
        let grid = serving_grid();
        assert!(grid.len() >= COLD_PROGRAMS - COLD_GENERATED);
        for (i, a) in grid.iter().enumerate() {
            assert!(grid[i + 1..].iter().all(|b| a != b));
        }
    }
}
