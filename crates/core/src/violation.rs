//! Consistency violations: the paper's three safety properties (§5) as a
//! reportable data type, with a stable one-line text encoding.
//!
//! A violation is a loop, a blackhole or an overloaded link, found by the
//! runtime checker (`p4update-sim`). The schedule explorer
//! (`p4update-explore`) stores the violations it expects in its trace
//! files, so the text encoding is a compatibility contract: committed trace
//! files must parse and compare identically across refactors, and a change
//! here regenerates the trace corpus. A lie a switch catches is not a
//! violation; the simulator records it as a byzantine outcome.

use p4update_net::{FlowId, NodeId};
use std::fmt;

/// A consistency violation at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The flow's forwarding walk revisits a node: a forwarding loop.
    Loop {
        /// Affected flow.
        flow: FlowId,
        /// The nodes of the detected cycle, in walk order.
        cycle: Vec<NodeId>,
    },
    /// The flow's forwarding walk reaches a switch without a rule.
    Blackhole {
        /// Affected flow.
        flow: FlowId,
        /// The ruleless switch.
        at: NodeId,
    },
    /// A directed link carries more flow than its capacity.
    Congestion {
        /// Transmitting endpoint.
        from: NodeId,
        /// Receiving endpoint.
        to: NodeId,
        /// Total size routed over the link.
        load: f64,
        /// The link's capacity.
        capacity: f64,
    },
}

/// The stable text encoding, also used by `Display`:
///
/// ```text
/// loop flow=0 cycle=1>2>3
/// blackhole flow=0 at=4
/// congestion link=0>1 load=3 cap=2
/// ```
///
/// Node and flow identifiers are raw numeric ids (not display names) so the
/// encoding is independent of topology naming.
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Loop { flow, cycle } => {
                write!(f, "loop flow={} cycle=", flow.0)?;
                for (i, n) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, ">")?;
                    }
                    write!(f, "{}", n.0)?;
                }
                Ok(())
            }
            Violation::Blackhole { flow, at } => {
                write!(f, "blackhole flow={} at={}", flow.0, at.0)
            }
            Violation::Congestion {
                from,
                to,
                load,
                capacity,
            } => {
                write!(
                    f,
                    "congestion link={}>{} load={load} cap={capacity}",
                    from.0, to.0
                )
            }
        }
    }
}

fn field<'a>(token: Option<&'a str>, key: &str) -> Option<&'a str> {
    token?.strip_prefix(key)?.strip_prefix('=')
}

impl Violation {
    /// Parse the [`Display`](fmt::Display) encoding back. Returns `None`
    /// on any malformed input.
    pub fn parse(s: &str) -> Option<Violation> {
        let mut tokens = s.split_whitespace();
        match tokens.next()? {
            "loop" => {
                let flow = FlowId(field(tokens.next(), "flow")?.parse().ok()?);
                let cycle = field(tokens.next(), "cycle")?
                    .split('>')
                    .map(|n| n.parse().ok().map(NodeId))
                    .collect::<Option<Vec<_>>>()?;
                if cycle.is_empty() || tokens.next().is_some() {
                    return None;
                }
                Some(Violation::Loop { flow, cycle })
            }
            "blackhole" => {
                let flow = FlowId(field(tokens.next(), "flow")?.parse().ok()?);
                let at = NodeId(field(tokens.next(), "at")?.parse().ok()?);
                if tokens.next().is_some() {
                    return None;
                }
                Some(Violation::Blackhole { flow, at })
            }
            "congestion" => {
                let (from, to) = field(tokens.next(), "link")?.split_once('>')?;
                let load = field(tokens.next(), "load")?.parse().ok()?;
                let capacity = field(tokens.next(), "cap")?.parse().ok()?;
                if tokens.next().is_some() {
                    return None;
                }
                Some(Violation::Congestion {
                    from: NodeId(from.parse().ok()?),
                    to: NodeId(to.parse().ok()?),
                    load,
                    capacity,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_parse() {
        let cases = vec![
            Violation::Loop {
                flow: FlowId(3),
                cycle: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            Violation::Blackhole {
                flow: FlowId(0),
                at: NodeId(7),
            },
            Violation::Congestion {
                from: NodeId(0),
                to: NodeId(1),
                load: 3.5,
                capacity: 2.0,
            },
        ];
        for v in cases {
            let line = v.to_string();
            assert_eq!(Violation::parse(&line), Some(v), "line: {line}");
        }
    }

    #[test]
    fn encoding_is_pinned() {
        // Committed trace files depend on these exact strings.
        assert_eq!(
            Violation::Loop {
                flow: FlowId(0),
                cycle: vec![NodeId(3), NodeId(1), NodeId(2)],
            }
            .to_string(),
            "loop flow=0 cycle=3>1>2"
        );
        assert_eq!(
            Violation::Blackhole {
                flow: FlowId(1),
                at: NodeId(4),
            }
            .to_string(),
            "blackhole flow=1 at=4"
        );
        assert_eq!(
            Violation::Congestion {
                from: NodeId(0),
                to: NodeId(1),
                load: 3.0,
                capacity: 2.0,
            }
            .to_string(),
            "congestion link=0>1 load=3 cap=2"
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for s in [
            "",
            "loop",
            "loop flow=x cycle=1>2",
            "loop flow=0 cycle=",
            "blackhole flow=0",
            "blackhole flow=0 at=1 extra",
            "congestion link=01 load=3 cap=2",
            "meltdown flow=0",
        ] {
            assert_eq!(Violation::parse(s), None, "accepted: {s:?}");
        }
    }
}
