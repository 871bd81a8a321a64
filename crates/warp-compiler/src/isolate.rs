//! Hard-isolation execution tier: run one untrusted compile (and its
//! serving-path validation) in a re-exec'd child process.
//!
//! Cooperative cancellation and the supervisor's heartbeat watch
//! contain *most* misbehaviour, but a job that wedges a worker has
//! already proven it ignores every in-process control. The escalation
//! ladder's second rung re-runs such a job in a sacrificial child
//! process — the same binary, re-executed with [`CHILD_ENV`] set —
//! which the parent can kill with a real `SIGKILL` no matter what the
//! job does. The parent and child speak the crate's wire codec
//! ([`warp_common::wire`]) over stdin/stdout:
//!
//! ```text
//! parent                               child (same exe, CHILD_ENV=1)
//!   spawn ───────────────────────────►  maybe_run_child()
//!   write to_bytes(IsolateRequest)  ─►  read stdin to EOF, decode
//!   close stdin                         compile + validate backend
//!   poll try_wait() under timeout   ◄─  write to_bytes(IsolateVerdict)
//!   (timeout → SIGKILL)                 exit 0
//! ```
//!
//! The child never gets a second request: one process, one job, one
//! verdict. A child that dies, hangs (killed at the parent's real-time
//! timeout), or writes garbage is reported as an [`IsolateError`] —
//! the caller treats all three as a failed probe and moves to the
//! ladder's last rung (the circuit breaker quarantines the name).
//!
//! Both service binaries (`w2cd`, `wserve`) call [`maybe_run_child`]
//! first thing in `main`, so [`run_isolated`]'s default of
//! `current_exe()` re-execs whichever daemon is running. Tests point
//! it at an explicitly built binary instead.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use warp_common::{panic_message, wire, CancelToken, ManualClock};
use warp_common::{wire_enum, wire_struct};

use crate::{audit, CompileFailure, CompileOptions, ExecBackend, Session, SessionCtrl};

/// Environment variable that switches a re-exec'd binary into
/// single-request child mode (see [`maybe_run_child`]).
pub const CHILD_ENV: &str = "W2_ISOLATE_CHILD";

/// Fixed seed for the serving-path smoke inputs, shared by the
/// in-process and isolated validators so both tiers exercise the same
/// data.
pub const VALIDATE_SEED: u64 = 0x5eed_cafe;

/// One job shipped to an isolated child: the source and budgets plus
/// the chaos toggles the soak harness uses to make the child
/// misbehave on purpose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IsolateRequest {
    /// Job name (diagnostics only; the child does not consult the
    /// breaker).
    pub name: String,
    /// W2 source text.
    pub source: String,
    /// Validate the native serving path (with sim fallback) after
    /// compiling; `false` = compile only.
    pub native: bool,
    /// [`SessionCtrl::skew_max_events`].
    pub skew_max_events: u64,
    /// [`SessionCtrl::max_cell_cycles`].
    pub max_cell_cycles: u64,
    /// [`SessionCtrl::max_source_bytes`].
    pub max_source_bytes: u64,
    /// Chaos: spin forever instead of working — the parent's kill
    /// timeout is the only way out. Exercises the `SIGKILL` rung.
    pub chaos_spin: bool,
    /// Chaos: report the native serving path as failed, forcing the
    /// sim fallback.
    pub chaos_native: bool,
}

wire_struct!(IsolateRequest {
    name,
    source,
    native,
    skew_max_events,
    max_cell_cycles,
    max_source_bytes,
    chaos_spin,
    chaos_native,
});

/// The child's answer to one [`IsolateRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsolateVerdict {
    /// Compile (and validation, if requested) succeeded.
    Served {
        /// The skew analysis degraded to conservative bounds.
        degraded: bool,
        /// The native serving path failed and the sim fallback served
        /// the validation instead.
        fell_back: bool,
    },
    /// The compile (or both serving paths) failed deterministically.
    Failed {
        /// `true` for budget/cancellation interruptions (retryable),
        /// `false` for program rejections.
        transient: bool,
        /// Rendered failure, for the parent's diagnostic.
        rendered: String,
    },
    /// The job panicked inside the child (contained there).
    Panicked {
        /// Rendered panic payload.
        what: String,
    },
}

wire_enum!(IsolateVerdict {
    0 => Served { degraded, fell_back },
    1 => Failed { transient, rendered },
    2 => Panicked { what },
});

/// Why an isolated execution produced no verdict. All variants mean
/// the probe failed; they differ only in the story the diagnostic
/// tells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsolateError {
    /// The child could not be spawned or spoken to.
    Io(String),
    /// The child exited without a success status (crash, abort,
    /// signal).
    Died(String),
    /// The child outlived the real-time budget and was `SIGKILL`ed.
    TimedOut {
        /// How long the parent waited before killing it.
        waited_ms: u64,
    },
    /// The child exited cleanly but its response did not decode.
    Garbled(String),
}

impl std::fmt::Display for IsolateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolateError::Io(e) => write!(f, "cannot run isolated child: {e}"),
            IsolateError::Died(status) => write!(f, "isolated child died ({status})"),
            IsolateError::TimedOut { waited_ms } => {
                write!(f, "isolated child unresponsive for {waited_ms} ms; killed")
            }
            IsolateError::Garbled(e) => write!(f, "isolated child wrote a garbled verdict: {e}"),
        }
    }
}

/// Child-mode entry point. Call this first in `main` of any binary
/// that may be used as an isolation host: when [`CHILD_ENV`] is set it
/// serves exactly one request from stdin, writes the verdict to
/// stdout, and exits — it never returns. When the variable is absent
/// it is a no-op.
pub fn maybe_run_child() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    let mut bytes = Vec::new();
    if std::io::stdin().read_to_end(&mut bytes).is_err() {
        std::process::exit(3);
    }
    let req: IsolateRequest = match wire::from_bytes(&bytes) {
        Ok(r) => r,
        Err(_) => std::process::exit(3),
    };
    if req.chaos_spin {
        // Model a hard wedge: ignore everything until the parent's
        // SIGKILL arrives.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let verdict = execute_request(&req);
    let out = wire::to_bytes(&verdict);
    let mut stdout = std::io::stdout();
    let _ = stdout.write_all(&out);
    let _ = stdout.flush();
    std::process::exit(0);
}

/// Runs one request to a verdict in-process, with panics contained.
/// This is the child's work loop, exposed so tests can check the
/// compile/validate/fallback logic without spawning processes.
pub fn execute_request(req: &IsolateRequest) -> IsolateVerdict {
    let result = std::panic::catch_unwind(|| run_request(req));
    match result {
        Ok(v) => v,
        Err(payload) => IsolateVerdict::Panicked {
            what: panic_message(&payload),
        },
    }
}

fn run_request(req: &IsolateRequest) -> IsolateVerdict {
    // The parent's kill timeout is the real budget; the child itself
    // compiles un-deadlined on an inert token.
    let ctrl = SessionCtrl {
        cancel: CancelToken::new(Arc::new(ManualClock::new(0))),
        skew_max_events: req.skew_max_events,
        max_cell_cycles: req.max_cell_cycles,
        max_source_bytes: req.max_source_bytes,
        backend: if req.native {
            ExecBackend::Native
        } else {
            ExecBackend::Sim
        },
        ..SessionCtrl::default()
    };
    let module = match Session::new(CompileOptions::default())
        .with_ctrl(ctrl)
        .try_compile(&req.source)
    {
        Ok(m) => m,
        Err(failure) => {
            return IsolateVerdict::Failed {
                transient: matches!(failure, CompileFailure::Interrupted { .. }),
                rendered: failure.to_string(),
            }
        }
    };
    let degraded = module.skew.degraded;
    if !req.native {
        return IsolateVerdict::Served {
            degraded,
            fell_back: false,
        };
    }
    let owned = audit::seeded_inputs(&module, VALIDATE_SEED);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    let native_err = if req.chaos_native {
        Some("chaos: injected native fault".to_owned())
    } else {
        match module.run_native(&inputs, &warp_native::NativeOptions::default()) {
            Ok(_) => None,
            Err(e) => Some(e.to_string()),
        }
    };
    match native_err {
        None => IsolateVerdict::Served {
            degraded,
            fell_back: false,
        },
        Some(native) => match module.run(&inputs) {
            Ok(_) => IsolateVerdict::Served {
                degraded,
                fell_back: true,
            },
            Err(sim) => IsolateVerdict::Failed {
                transient: false,
                rendered: format!(
                    "native serving path failed ({native}); sim fallback too ({sim})"
                ),
            },
        },
    }
}

/// Ships `req` to a freshly spawned child of `exe` (`None` =
/// `current_exe()`) and returns its verdict. The child is `SIGKILL`ed
/// — not asked — if it produces no verdict within `timeout` of real
/// time, which is the entire point of this tier: no job behaviour can
/// prevent reclamation.
pub fn run_isolated(
    exe: Option<&Path>,
    req: &IsolateRequest,
    timeout: Duration,
) -> Result<IsolateVerdict, IsolateError> {
    let exe: PathBuf = match exe {
        Some(p) => p.to_owned(),
        None => std::env::current_exe().map_err(|e| IsolateError::Io(e.to_string()))?,
    };
    let mut child = Command::new(&exe)
        .env(CHILD_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| IsolateError::Io(e.to_string()))?;
    {
        let mut stdin = child.stdin.take().expect("stdin was piped");
        // A child that dies before reading gives a broken pipe here;
        // fall through and report its exit status instead.
        let _ = stdin.write_all(&wire::to_bytes(req));
        // Dropping stdin closes it: the child's read-to-EOF completes.
    }
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() >= timeout {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(IsolateError::TimedOut {
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(IsolateError::Io(e.to_string()));
            }
        }
    };
    let mut bytes = Vec::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_end(&mut bytes);
    }
    if !status.success() {
        return Err(IsolateError::Died(status.to_string()));
    }
    wire::from_bytes(&bytes).map_err(|e| IsolateError::Garbled(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn request_and_verdict_round_trip_the_wire() {
        let req = IsolateRequest {
            name: "poly".to_owned(),
            source: corpus::POLYNOMIAL.to_owned(),
            native: true,
            skew_max_events: 1,
            max_cell_cycles: 2,
            max_source_bytes: 3,
            chaos_spin: false,
            chaos_native: true,
        };
        let back: IsolateRequest = wire::from_bytes(&wire::to_bytes(&req)).unwrap();
        assert_eq!(back, req);
        for v in [
            IsolateVerdict::Served {
                degraded: false,
                fell_back: true,
            },
            IsolateVerdict::Failed {
                transient: true,
                rendered: "why".to_owned(),
            },
            IsolateVerdict::Panicked {
                what: "boom".to_owned(),
            },
        ] {
            let back: IsolateVerdict = wire::from_bytes(&wire::to_bytes(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    fn request(name: &str, source: &str, native: bool) -> IsolateRequest {
        IsolateRequest {
            name: name.to_owned(),
            source: source.to_owned(),
            native,
            skew_max_events: 0,
            max_cell_cycles: 0,
            max_source_bytes: 0,
            chaos_spin: false,
            chaos_native: false,
        }
    }

    #[test]
    fn execute_request_compiles_and_validates() {
        let v = execute_request(&request("poly", corpus::POLYNOMIAL, true));
        assert_eq!(
            v,
            IsolateVerdict::Served {
                degraded: false,
                fell_back: false
            }
        );
    }

    #[test]
    fn execute_request_reports_rejections_as_permanent() {
        let v = execute_request(&request("bad", "module broken", false));
        let IsolateVerdict::Failed { transient, .. } = v else {
            panic!("expected Failed, got {v:?}");
        };
        assert!(!transient);
    }

    #[test]
    fn chaos_native_forces_the_sim_fallback() {
        let mut req = request("poly", corpus::POLYNOMIAL, true);
        req.chaos_native = true;
        let v = execute_request(&req);
        assert_eq!(
            v,
            IsolateVerdict::Served {
                degraded: false,
                fell_back: true
            }
        );
    }
}
