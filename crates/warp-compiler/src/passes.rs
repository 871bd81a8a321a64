//! The driver's pass pipeline: one named pass per Figure 6-1 stage.
//!
//! The paper's compiler is explicitly staged (Figure 6-1):
//!
//! ```text
//! W2 source ──► front end ──► flow analysis ──► decomposition
//!      ──► cell code generation ──► skew & queue analysis
//!      ──► IU code generation ──► host code generation
//! ```
//!
//! [`Session`](crate::Session) runs exactly the passes listed in
//! [`PIPELINE`], in order. Each pass is observable (timed, and its
//! output artifact can be dumped with `w2c --dump-after <pass>`); the
//! names here are the single source of truth for the CLI, the events a
//! [`PassObserver`](warp_common::PassObserver) receives, and the tests.

/// Descriptor of one driver pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassInfo {
    /// Pass name as accepted by `w2c --dump-after`.
    pub name: &'static str,
    /// The Figure 6-1 stage the pass implements.
    pub stage: &'static str,
    /// Kind tag of the artifact the pass produces
    /// ([`Artifact::kind`](warp_common::Artifact::kind)).
    pub artifact: &'static str,
}

/// The nine passes of the driver, in execution order. The paper's
/// "flow analysis" box covers three passes here: the
/// communication-cycle analysis of §5.1.1 (`comm`), HIR→IR lowering
/// (`lower`), and the pattern-rewrite mid-end (`rewrite`) that
/// canonicalizes and optimizes the DAGs to fixpoint.
pub const PIPELINE: [PassInfo; 9] = [
    PassInfo {
        name: "frontend",
        stage: "front end",
        artifact: "hir",
    },
    PassInfo {
        name: "comm",
        stage: "flow analysis: communication (§5.1.1)",
        artifact: "comm-report",
    },
    PassInfo {
        name: "lower",
        stage: "flow analysis: lowering & local optimization",
        artifact: "cell-ir",
    },
    PassInfo {
        name: "rewrite",
        stage: "flow analysis: pattern rewriting (§6.1)",
        artifact: "rewrite-stats",
    },
    PassInfo {
        name: "decompose",
        stage: "computation decomposition",
        artifact: "decomposition",
    },
    PassInfo {
        name: "cell-codegen",
        stage: "cell code generation",
        artifact: "cell-ucode",
    },
    PassInfo {
        name: "skew",
        stage: "skew & queue analysis (§6.2)",
        artifact: "skew-report",
    },
    PassInfo {
        name: "iu-codegen",
        stage: "IU code generation (§6.3)",
        artifact: "iu-ucode",
    },
    PassInfo {
        name: "host-codegen",
        stage: "host code generation",
        artifact: "host-program",
    },
];

/// Looks up a pass descriptor by name.
pub fn find_pass(name: &str) -> Option<&'static PassInfo> {
    PIPELINE.iter().find(|p| p.name == name)
}

/// The pass names in execution order.
pub fn pass_names() -> impl Iterator<Item = &'static str> {
    PIPELINE.iter().map(|p| p.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_names_are_unique_and_ordered() {
        let names: Vec<_> = pass_names().collect();
        assert_eq!(names.len(), 9);
        for (i, n) in names.iter().enumerate() {
            assert_eq!(names.iter().position(|m| m == n), Some(i), "duplicate {n}");
        }
        assert_eq!(names.first(), Some(&"frontend"));
        assert_eq!(names.last(), Some(&"host-codegen"));
    }

    #[test]
    fn find_pass_resolves_known_and_rejects_unknown() {
        assert_eq!(find_pass("lower").map(|p| p.artifact), Some("cell-ir"));
        assert!(find_pass("linker").is_none());
    }
}
