//! Diagnostics: stable codes, severities, and rustc-style rendering.

use p4update_net::{FlowId, NodeId};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The plan is legal but likely not what was intended, or relies on
    /// runtime machinery (congestion scheduling, recovery) to stay safe.
    Warning,
    /// The plan violates a proof-labeling invariant: deploying it can
    /// produce loops, blackholes, or stuck updates that the data-plane
    /// verifiers will reject or — worse — accept.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning across
/// versions; retired codes are not reused. `P4U005`-`P4U007` are retired:
/// they checked the segmentation a plan once carried, which no switch
/// receives. `P4U009` is retired: it round-tripped each UIM through the
/// wire codec, which no switch of the simulator parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `P4U001`: a distance label breaks the strictly-decreasing chain
    /// toward the egress (the proof the switches verify, §3).
    LabelChainBroken,
    /// `P4U002`: a UIM's next hop or upstream pointer disagrees with the
    /// new path (the UNM clone session would notify the wrong neighbor).
    UimChainMismatch,
    /// `P4U003`: a path edge is not a link of the topology — the plan is
    /// unroutable as written.
    UnroutableEdge,
    /// `P4U004`: the plan's version does not strictly exceed the installed
    /// version (switches would reject it as out of date, §3).
    VersionNotNewer,
    /// `P4U008`: mechanism-choice advisory — single-layer deployment on a
    /// plan the §7.5 rule says needs dual-layer (backward segments or too
    /// many nodes).
    MechanismAdvisory,
    /// `P4U010`: the UIM set does not match the new path's nodes (missing,
    /// duplicated, or mis-addressed indications; wrong flow/kind metadata).
    UimSetMismatch,
    /// `P4U011`: batch inconsistency — duplicate flow entries whose
    /// versions do not strictly increase in batch order.
    BatchVersionConflict,
    /// `P4U012`: the cross-update waits-for graph has a cycle: each update
    /// needs capacity another frees, so none can proceed without the
    /// runtime congestion scheduler breaking the tie.
    WaitsForCycle,
    /// `P4U013`: a flow-size bound is unusable (non-finite, non-positive,
    /// or inconsistent across the plan's UIMs).
    BadFlowSize,
}

impl Code {
    /// The stable `P4Unnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::LabelChainBroken => "P4U001",
            Code::UimChainMismatch => "P4U002",
            Code::UnroutableEdge => "P4U003",
            Code::VersionNotNewer => "P4U004",
            Code::MechanismAdvisory => "P4U008",
            Code::UimSetMismatch => "P4U010",
            Code::BatchVersionConflict => "P4U011",
            Code::WaitsForCycle => "P4U012",
            Code::BadFlowSize => "P4U013",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::MechanismAdvisory | Code::WaitsForCycle => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code identifying the invariant violated.
    pub code: Code,
    /// Severity (always `code.severity()`; stored for direct filtering).
    pub severity: Severity,
    /// The flow whose plan the finding is about.
    pub flow: FlowId,
    /// The switch the finding localizes to, when one exists.
    pub node: Option<NodeId>,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(code: Code, flow: FlowId, node: Option<NodeId>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            flow,
            node,
            message: message.into(),
        }
    }

    /// True for error-severity findings (a plan with one must not ship).
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}: ", self.severity, self.code, self.flow)?;
        if let Some(node) = self.node {
            write!(f, "at {node}: ")?;
        }
        f.write_str(&self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::LabelChainBroken.as_str(), "P4U001");
        assert_eq!(Code::BadFlowSize.as_str(), "P4U013");
        assert_eq!(Code::WaitsForCycle.to_string(), "P4U012");
    }

    #[test]
    fn advisories_are_warnings_the_rest_errors() {
        assert_eq!(Code::MechanismAdvisory.severity(), Severity::Warning);
        assert_eq!(Code::WaitsForCycle.severity(), Severity::Warning);
        assert_eq!(Code::LabelChainBroken.severity(), Severity::Error);
    }

    #[test]
    fn display_is_rustc_like() {
        let d = Diagnostic::new(
            Code::LabelChainBroken,
            FlowId(3),
            Some(NodeId(7)),
            "distance 5 does not continue the chain",
        );
        assert_eq!(
            d.to_string(),
            "error[P4U001]: f3: at v7: distance 5 does not continue the chain"
        );
        assert!(d.is_error());
        let w = Diagnostic::new(Code::MechanismAdvisory, FlowId(0), None, "msg");
        assert_eq!(w.to_string(), "warning[P4U008]: f0: msg");
        assert!(!w.is_error());
    }
}
