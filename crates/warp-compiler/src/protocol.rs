//! The w2cd line protocol: one client session over any byte stream.
//!
//! This module is the daemon's *front door*, shared by `w2cd`'s stdin
//! mode and every socket client. It was hoisted out of the binary so
//! the parser can be unit- and fuzz-tested like any other library
//! surface — a service that panics or wedges on a malformed line is a
//! denial-of-service bug, not a CLI nit.
//!
//! Hardening rules, in order of application per line:
//!
//! 1. **Length cap.** Lines are read through [`read_line_capped`],
//!    which never buffers more than [`MAX_LINE_BYTES`] per line. An
//!    oversized line is *drained* (to stay line-synchronised) and
//!    answered with a one-line `error: line too long ...`; the session
//!    continues.
//! 2. **UTF-8.** A line that is not valid UTF-8 is answered with
//!    `error: command line is not valid UTF-8 ...` and dropped; the
//!    session continues. (The old implementation used
//!    `BufRead::lines`, which turns one bad byte into a session-fatal
//!    I/O error — any queued jobs then drained as if the client hung
//!    up.)
//! 3. **Echo discipline.** Unknown commands are echoed back
//!    escaped (`char::escape_debug`) and truncated, so control bytes
//!    and NULs in a hostile line can never corrupt the reply stream or
//!    the terminal reading it.
//!
//! Partial and interleaved writes are the transport's problem, not the
//! parser's: the reader works on whatever chunks `fill_buf` yields, so
//! a command split across ten TCP-ish fragments parses identically to
//! one arriving whole. The fuzz test drives exactly that with a
//! tiny-capacity `BufReader`.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use crate::daemon::CompileDaemon;
use crate::{corpus, health, BatchReport, ExecBackend};
use warp_service::Admission;

/// Hard cap on one protocol line. Far beyond any legitimate command
/// (names and paths, not program text) but small enough that a
/// client streaming garbage cannot balloon the daemon's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Longest unknown-command echo, in characters, before truncation.
const MAX_ECHO_CHARS: usize = 48;

/// Outcome of one capped line read.
enum LineRead {
    /// Stream ended with no pending bytes.
    Eof,
    /// A complete line (without the terminator) is in the buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was drained through its
    /// newline (or EOF) and `dropped` counts the bytes discarded.
    TooLong { dropped: usize },
}

/// Reads one `\n`-terminated line into `buf`, never holding more than
/// [`MAX_LINE_BYTES`] in memory. A final unterminated line is returned
/// as a normal line (so `printf 'quit'` without a newline still
/// works).
fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > MAX_LINE_BYTES {
                let dropped = buf.len() + pos;
                buf.clear();
                input.consume(pos + 1);
                return Ok(LineRead::TooLong { dropped });
            }
            buf.extend_from_slice(&chunk[..pos]);
            input.consume(pos + 1);
            return Ok(LineRead::Line);
        }
        let n = chunk.len();
        if buf.len() + n > MAX_LINE_BYTES {
            let seen = buf.len() + n;
            buf.clear();
            input.consume(n);
            let rest = drain_to_newline(input)?;
            return Ok(LineRead::TooLong {
                dropped: seen + rest,
            });
        }
        buf.extend_from_slice(chunk);
        input.consume(n);
    }
}

/// Discards bytes through the next newline (or EOF), returning how
/// many were dropped before it.
fn drain_to_newline(input: &mut impl BufRead) -> std::io::Result<usize> {
    let mut dropped = 0usize;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(dropped);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(dropped + pos);
            }
            None => {
                let n = chunk.len();
                dropped += n;
                input.consume(n);
            }
        }
    }
}

/// Escapes and truncates an untrusted token for echoing back to the
/// client: control bytes render as `\u{..}` escapes, and anything past
/// [`MAX_ECHO_CHARS`] characters is elided.
fn echo_token(token: &str) -> String {
    let mut shown: String = token
        .chars()
        .take(MAX_ECHO_CHARS)
        .flat_map(char::escape_debug)
        .collect();
    if token.chars().nth(MAX_ECHO_CHARS).is_some() {
        shown.push_str("...");
    }
    shown
}

/// One client's session state: its outstanding jobs and exit
/// accounting. Stdin and each socket client get one each; the daemon
/// behind them is shared.
pub struct ClientSession<'d> {
    daemon: &'d CompileDaemon,
    /// Outstanding (submitted, not yet collected) jobs: id → name, in
    /// submission order.
    outstanding: BTreeMap<usize, String>,
    all_clean: bool,
    saw_quit: bool,
    /// Set when this client asked the whole daemon to stop.
    want_shutdown: bool,
}

impl<'d> ClientSession<'d> {
    pub fn new(daemon: &'d CompileDaemon) -> ClientSession<'d> {
        ClientSession {
            daemon,
            outstanding: BTreeMap::new(),
            all_clean: true,
            saw_quit: false,
            want_shutdown: false,
        }
    }

    /// True while every batch this client collected was clean (no
    /// failures, timeouts, panics, or quarantines).
    pub fn all_clean(&self) -> bool {
        self.all_clean
    }

    /// True once this client issued `shutdown`.
    pub fn want_shutdown(&self) -> bool {
        self.want_shutdown
    }

    fn has_name(&self, name: &str) -> bool {
        self.outstanding.values().any(|n| n == name)
    }

    fn submit(
        &mut self,
        out: &mut impl Write,
        name: &str,
        source: String,
        backend: ExecBackend,
    ) -> std::io::Result<()> {
        if self.has_name(name) {
            return writeln!(
                out,
                "error: duplicate name `{name}` already outstanding; \
                 collect it with `run` or pick a distinct name"
            );
        }
        match self.daemon.submit_with_backend(name, source, backend) {
            Admission::Accepted { id, .. } => {
                self.outstanding.insert(id, name.to_owned());
                writeln!(out, "accepted {name} id={id}")
            }
            Admission::Rejected { retry_after_ticks } => {
                writeln!(out, "rejected {name} retry-after-ticks={retry_after_ticks}")
            }
        }
    }

    pub fn queue_corpus(&mut self, out: &mut impl Write, which: &str) -> std::io::Result<()> {
        let programs: Vec<(&str, &str)> = if which == "all" {
            corpus::TABLE_7_1.to_vec()
        } else {
            match corpus::TABLE_7_1.iter().find(|(n, _)| *n == which) {
                Some(p) => vec![*p],
                None => {
                    return writeln!(out, "error: unknown corpus program `{}`", echo_token(which))
                }
            }
        };
        for (name, src) in programs {
            self.submit(out, name, src.to_owned(), ExecBackend::default())?;
        }
        Ok(())
    }

    /// `run`: wait for this client's jobs and print the batch summary.
    pub fn run(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        let ids: Vec<usize> = self.outstanding.keys().copied().collect();
        self.outstanding.clear();
        let batch = BatchReport {
            jobs: self.daemon.wait(&ids),
            quarantined: self.daemon.quarantined_names(),
        };
        write!(out, "{}", batch.summary())?;
        let healthy = batch.is_healthy();
        if !healthy {
            writeln!(
                out,
                "batch unhealthy: timeouts, panics, wedges, or quarantined programs present"
            )?;
        }
        self.all_clean &= healthy && batch.failed() == 0;
        Ok(())
    }

    fn status(&self, out: &mut impl Write) -> std::io::Result<()> {
        let in_flight = self.daemon.jobs_in_flight();
        let queued = in_flight
            .iter()
            .filter(|(_, _, s)| *s == warp_service::JobState::Queued)
            .count();
        let running = in_flight
            .iter()
            .filter(|(_, _, s)| *s == warp_service::JobState::Running)
            .count();
        let done = in_flight.len() - queued - running;
        let health = health::assess(self.daemon);
        writeln!(
            out,
            "in-flight={} queued={queued} running={running} done={done} health={} \
             quarantined=[{}]",
            in_flight.len(),
            health.level,
            self.daemon.quarantined_names().join(", "),
        )?;
        for (id, name, state) in &in_flight {
            writeln!(out, "  id={id} {name} {state}")?;
        }
        let history = self.daemon.breaker_history();
        if !history.is_empty() {
            let threshold = self.daemon.config().service.exec.breaker_threshold;
            let rendered: Vec<String> = history
                .iter()
                .map(|(n, k)| format!("{n}={k}/{threshold}"))
                .collect();
            writeln!(out, "  breakers: {}", rendered.join(", "))?;
        }
        Ok(())
    }

    /// `health`: the honest taxonomy verdict, leading the line, plus
    /// the live limits and every contributing reason.
    fn health(&self, out: &mut impl Write) -> std::io::Result<()> {
        let report = health::assess(self.daemon);
        let c = self.daemon.config().service.clone();
        let stats = self.daemon.pool_stats();
        let native = self.daemon.native_stats();
        write!(
            out,
            "{} workers={} queued={} running={} queue-capacity={} deadline-ms={} \
             max-attempts={} breaker-threshold={} skew-max-events={} max-cell-cycles={} \
             max-source-bytes={} quarantined={} wedged={} respawned={} native-fallbacks={}",
            report.level,
            self.daemon.workers(),
            self.daemon.queue_len(),
            self.daemon.running_len(),
            c.exec.queue_capacity,
            c.exec.deadline_ticks / 1_000,
            c.exec.max_attempts,
            c.exec.breaker_threshold,
            c.skew_max_events,
            c.max_cell_cycles,
            c.max_source_bytes,
            self.daemon.quarantined_names().len(),
            stats.wedged,
            stats.respawned,
            native.fallbacks,
        )?;
        if report.reasons.is_empty() {
            writeln!(out)
        } else {
            writeln!(out, " reasons=[{}]", report.reasons_joined())
        }
    }

    fn cache(&self, out: &mut impl Write, clear: bool) -> std::io::Result<()> {
        if clear {
            let r = self.daemon.clear_cache();
            return writeln!(
                out,
                "cache cleared: memory {} entries / {} bytes, disk {} artifacts / {} bytes",
                r.memory_entries, r.memory_bytes, r.disk_entries, r.disk_bytes,
            );
        }
        let s = self.daemon.cache_stats();
        writeln!(
            out,
            "cache: entries={} bytes={} lookups={} hits={} negative-hits={} misses={} \
             coalesced={} inserts={} evictions={} expired={} hit-rate={:.2}",
            s.entries,
            s.resident_bytes,
            s.lookups,
            s.hits,
            s.negative_hits,
            s.misses,
            s.coalesced,
            s.inserts + s.negative_inserts,
            s.evictions,
            s.expired,
            s.hit_rate(),
        )?;
        if let Some(d) = self.daemon.store_stats() {
            writeln!(
                out,
                "  disk: artifacts={} bytes={} hits={} misses={} puts={} put-failures={} \
                 evictions={} recovered={} quarantined={}",
                d.entries,
                d.resident_bytes,
                d.hits,
                d.misses,
                d.puts,
                d.put_failures,
                d.evictions,
                d.recovered,
                d.quarantined,
            )?;
        }
        Ok(())
    }

    fn store(&self, out: &mut impl Write) -> std::io::Result<()> {
        let Some(d) = self.daemon.store_stats() else {
            return match self.daemon.store_error() {
                Some(e) => writeln!(out, "store: unavailable ({e}); running memory-only"),
                None => writeln!(out, "store: not configured (start with --store-dir)"),
            };
        };
        let dir = self
            .daemon
            .config()
            .store
            .as_ref()
            .map(|s| s.dir.display().to_string())
            .unwrap_or_default();
        writeln!(
            out,
            "store: dir={dir} artifacts={} bytes={} recovered={} quarantined={} \
             tmp-cleaned={} hits={} misses={} puts={} put-failures={} evictions={}",
            d.entries,
            d.resident_bytes,
            d.recovered,
            d.quarantined,
            d.tmp_cleaned,
            d.hits,
            d.misses,
            d.puts,
            d.put_failures,
            d.evictions,
        )
    }

    fn stats(&self, out: &mut impl Write) -> std::io::Result<()> {
        let s = self.daemon.pool_stats();
        let native = self.daemon.native_stats();
        writeln!(
            out,
            "pool: workers={} submitted={} accepted={} shed={} completed={} panicked={} \
             quarantined={} wedged={} respawned={} max-queue-depth={} \
             native: attempts={} failures={} fallbacks={} breaker-skips={}",
            self.daemon.workers(),
            s.submitted,
            s.accepted,
            s.shed,
            s.completed,
            s.panicked,
            s.quarantined,
            s.wedged,
            s.respawned,
            s.max_queue_depth,
            native.attempts,
            native.failures,
            native.fallbacks,
            native.breaker_skips,
        )
    }

    /// Dispatches one protocol line. Returns `false` when the session
    /// should end.
    pub fn handle_line(&mut self, out: &mut impl Write, line: &str) -> std::io::Result<bool> {
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            Some("quit") => {
                self.saw_quit = true;
                return Ok(false);
            }
            Some("shutdown") if words.next().is_none() => {
                self.saw_quit = true;
                self.want_shutdown = true;
                writeln!(out, "shutting down")?;
                return Ok(false);
            }
            Some("corpus") => {
                let which = words.next().unwrap_or("all");
                if words.next().is_some() {
                    writeln!(out, "error: usage: corpus [NAME|all]")?;
                } else {
                    self.queue_corpus(out, which)?;
                }
            }
            Some("submit") => match (words.next(), words.next(), words.next(), words.next()) {
                (Some(name), Some(path), backend, None) => {
                    match backend.map_or(Ok(ExecBackend::default()), str::parse) {
                        Ok(backend) => match std::fs::read_to_string(path) {
                            Ok(source) => self.submit(out, name, source, backend)?,
                            Err(e) => {
                                writeln!(out, "error: cannot read `{}`: {e}", echo_token(path))?
                            }
                        },
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
                _ => writeln!(out, "error: usage: submit NAME FILE.w2 [sim|native]")?,
            },
            Some("run") if words.next().is_none() => self.run(out)?,
            Some("status") if words.next().is_none() => self.status(out)?,
            Some("health") if words.next().is_none() => self.health(out)?,
            Some("stats") if words.next().is_none() => self.stats(out)?,
            Some("cache") => match words.next() {
                None => self.cache(out, false)?,
                Some("clear") if words.next().is_none() => self.cache(out, true)?,
                _ => writeln!(out, "error: usage: cache [clear]")?,
            },
            Some("store") if words.next().is_none() => self.store(out)?,
            Some("reset") => match (words.next(), words.next()) {
                (Some(name), None) => {
                    let breaker = self.daemon.reset_breaker(name);
                    let native = self.daemon.reset_native_breaker();
                    if breaker {
                        writeln!(out, "breaker reset for {name}")?;
                    } else if !native {
                        writeln!(out, "no breaker history for {}", echo_token(name))?;
                    }
                    if native {
                        writeln!(out, "native breaker reset")?;
                    }
                }
                _ => writeln!(out, "error: usage: reset NAME")?,
            },
            Some(cmd @ ("run" | "status" | "health" | "stats" | "store" | "shutdown")) => {
                writeln!(out, "error: `{cmd}` takes no operands")?;
            }
            Some(other) => writeln!(out, "error: unknown command `{}`", echo_token(other))?,
        }
        Ok(true)
    }

    /// Runs the line protocol until quit/EOF, then settles: an EOF
    /// with jobs still outstanding waits for them (one final batch
    /// summary) so piped sessions never silently drop work.
    ///
    /// Oversized and non-UTF-8 lines are answered with one-line errors
    /// and the session continues — only transport-level I/O errors end
    /// it early (and even those fall through to the EOF drain).
    pub fn serve(&mut self, mut input: impl BufRead, out: &mut impl Write) {
        let mut buf = Vec::new();
        loop {
            match read_line_capped(&mut input, &mut buf) {
                Ok(LineRead::Eof) => break,
                Ok(LineRead::TooLong { dropped }) => {
                    let _ = writeln!(
                        out,
                        "error: line too long ({dropped} bytes > {MAX_LINE_BYTES} byte cap); \
                         line dropped"
                    );
                }
                Ok(LineRead::Line) => {
                    let text = match std::str::from_utf8(&buf) {
                        Ok(t) => t.trim_end_matches('\r'),
                        Err(e) => {
                            let _ = writeln!(
                                out,
                                "error: command line is not valid UTF-8 ({e}); line dropped"
                            );
                            let _ = out.flush();
                            continue;
                        }
                    };
                    match self.handle_line(out, text) {
                        Ok(true) => {}
                        Ok(false) => break,
                        // The client went away; stop reading, the drain
                        // below still collects its jobs.
                        Err(_) => break,
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "error: input: {e}");
                    break;
                }
            }
            let _ = out.flush();
        }
        if !self.saw_quit && !self.outstanding.is_empty() {
            let _ = writeln!(
                out,
                "draining {} outstanding job(s) at EOF",
                self.outstanding.len()
            );
            let _ = self.run(out);
        }
        let _ = out.flush();
    }
}

/// The startup banner: limits, warm-start recovery, and the current
/// health verdict, so a fresh daemon announces degradation (e.g. a
/// store that failed to open) instead of burying it.
pub fn banner(daemon: &CompileDaemon) -> String {
    let c = &daemon.config().service.exec;
    let mut line = format!(
        "w2cd ready (queue {}, deadline {} ms, breaker threshold {}, workers {})",
        c.queue_capacity,
        c.deadline_ticks / 1_000,
        c.breaker_threshold,
        daemon.workers(),
    );
    if let Some(w) = daemon.warm_start() {
        line.push_str(&format!(
            "\nstore: {} artifact(s) recovered, {} corrupt quarantined, \
             {} tmp cleaned, {} bytes resident",
            w.recovered, w.quarantined, w.tmp_cleaned, w.resident_bytes,
        ));
    } else if let Some(e) = daemon.store_error() {
        line.push_str(&format!("\nstore: unavailable ({e}); running memory-only"));
    }
    let health = health::assess(daemon);
    if health.reasons.is_empty() {
        line.push_str(&format!("\nhealth: {}", health.level));
    } else {
        line.push_str(&format!(
            "\nhealth: {} ({})",
            health.level,
            health.reasons_joined()
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::daemon::DaemonConfig;
    use crate::service::ServiceConfig;
    use crate::CompileOptions;
    use std::io::{BufReader, Cursor};
    use std::sync::Arc;
    use warp_common::ctrl::SplitMix64;
    use warp_common::ManualClock;
    use warp_oracle::fuzz::Mutator;
    use warp_service::{ExecutorConfig, ShutdownMode};

    fn test_daemon() -> CompileDaemon {
        CompileDaemon::new(
            CompileOptions::default(),
            DaemonConfig {
                service: ServiceConfig {
                    exec: ExecutorConfig {
                        queue_capacity: 256,
                        ..ExecutorConfig::default()
                    },
                    workers: 2,
                    ..ServiceConfig::default()
                },
                cache: CacheConfig::default(),
                store: None,
            },
            Arc::new(ManualClock::new(0)),
        )
    }

    /// Serves `input` through a deliberately tiny `BufReader` so every
    /// line arrives in partial fragments, and returns the reply text.
    fn serve_bytes(daemon: &CompileDaemon, input: &[u8]) -> String {
        let mut session = ClientSession::new(daemon);
        let mut out = Vec::new();
        session.serve(
            BufReader::with_capacity(7, Cursor::new(input.to_vec())),
            &mut out,
        );
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn oversized_line_is_rejected_and_session_continues() {
        let daemon = test_daemon();
        let mut input = vec![b'a'; MAX_LINE_BYTES + 10];
        input.push(b'\n');
        input.extend_from_slice(b"health\nquit\n");
        let reply = serve_bytes(&daemon, &input);
        assert!(reply.contains("error: line too long"), "{reply}");
        assert!(reply.contains("healthy workers="), "{reply}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn oversized_unterminated_line_is_rejected() {
        let daemon = test_daemon();
        let input = vec![b'z'; MAX_LINE_BYTES * 2];
        let reply = serve_bytes(&daemon, &input);
        assert!(reply.contains("error: line too long"), "{reply}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn invalid_utf8_line_is_dropped_and_session_continues() {
        let daemon = test_daemon();
        let mut input = b"corpus polynomial\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\xfa\n");
        input.extend_from_slice(b"run\nquit\n");
        let reply = serve_bytes(&daemon, &input);
        assert!(reply.contains("accepted polynomial"), "{reply}");
        assert!(reply.contains("not valid UTF-8"), "{reply}");
        assert!(reply.contains("batch: 1 ok"), "{reply}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn nul_bytes_in_commands_are_echoed_escaped() {
        let daemon = test_daemon();
        let reply = serve_bytes(&daemon, b"he\x00alth\nquit\n");
        assert!(reply.contains("error: unknown command"), "{reply}");
        // The raw NUL must not appear in the reply stream.
        assert!(!reply.as_bytes().contains(&0u8), "{reply:?}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn long_unknown_command_is_truncated_in_echo() {
        let daemon = test_daemon();
        let mut input = vec![b'x'; 4000];
        input.extend_from_slice(b"\nquit\n");
        let reply = serve_bytes(&daemon, &input);
        assert!(reply.contains("error: unknown command"), "{reply}");
        let echo_line = reply
            .lines()
            .find(|l| l.contains("unknown command"))
            .expect("echo line");
        assert!(echo_line.len() < 120, "echo not truncated: {echo_line}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    /// The satellite fuzz pass: mutate a corpus of valid protocol
    /// lines (byte flips, splices, NUL/invalid-UTF-8 injection,
    /// truncation — the `warp_oracle::fuzz` mutator menu) and feed
    /// each case through a fragmenting reader into a shared daemon.
    /// The invariant is total: no panic, no wedge, and the daemon
    /// still serves a clean corpus batch afterwards.
    #[test]
    fn fuzzed_command_streams_never_break_the_daemon() {
        let daemon = test_daemon();
        let mutator = Mutator::new(&[
            "corpus polynomial",
            "corpus all",
            "submit p1 /no/such/file.w2 sim",
            "submit p2 /no/such/file.w2 native",
            "status",
            "health",
            "stats",
            "cache",
            "cache clear",
            "store",
            "reset polynomial",
            "run",
            "quit",
            "shutdown",
        ]);
        let mut rng = SplitMix64::new(0x5e1f_0ea1 ^ 0xbeef);
        for _ in 0..256 {
            let case = mutator.case(&mut rng);
            let mut session = ClientSession::new(&daemon);
            let mut out = Vec::new();
            session.serve(BufReader::with_capacity(5, Cursor::new(case)), &mut out);
        }
        // The daemon survived; prove it still serves real work.
        let reply = serve_bytes(&daemon, b"corpus polynomial\nrun\nquit\n");
        assert!(reply.contains("batch: 1 ok"), "{reply}");
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn banner_reports_health_line() {
        let daemon = test_daemon();
        let b = banner(&daemon);
        assert!(b.starts_with("w2cd ready ("), "{b}");
        assert!(b.contains("\nhealth: healthy"), "{b}");
        daemon.shutdown(ShutdownMode::Drain);
    }
}
