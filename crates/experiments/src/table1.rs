//! Table 1: the UIB register inventory, printed from the live register
//! file so the listing can never drift from the implementation.

use p4update_dataplane::Uib;
use p4update_messages::UpdateKind;
use p4update_net::{FlowId, NodeId, Version};

/// One row of the register inventory.
struct Row {
    register: &'static str,
    paper_name: &'static str,
    explanation: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        register: "new_distance",
        paper_name: "new_distance",
        explanation: "D_n specified in P_n (from the highest UIM)",
    },
    Row {
        register: "new_version",
        paper_name: "new_version",
        explanation: "V_n specified in P_n (from the highest UIM)",
    },
    Row {
        register: "egress_port_updated",
        paper_name: "egress_port_updated",
        explanation: "egress port in P_n (staged next hop, a 4-byte port register)",
    },
    Row {
        register: "old_distance",
        paper_name: "old_distance",
        explanation: "D_o specified in P_o (inheritance layer)",
    },
    Row {
        register: "old_version",
        paper_name: "old_version",
        explanation: "V_o specified in P_o (inheritance layer)",
    },
    Row {
        register: "egress_port",
        paper_name: "egress_port",
        explanation: "egress port in P_o (active next hop, a 4-byte port register)",
    },
    Row {
        register: "flow_size",
        paper_name: "flow_size",
        explanation: "per-flow size bound (local capacity checks)",
    },
    Row {
        register: "flow_priority",
        paper_name: "flow_priority",
        explanation: "per-flow congestion priority (dynamic, §7.4)",
    },
    Row {
        register: "t",
        paper_name: "t",
        explanation: "last update type (dual-after-dual guard, §7.3)",
    },
    Row {
        register: "counter",
        paper_name: "counter",
        explanation: "hop counter for dual-layer symmetry breaking",
    },
    Row {
        register: "applied_version / applied_distance",
        paper_name: "(helper variables, §10)",
        explanation: "V_n(v), D_n(v) of the accepted configuration (Alg. 2 state)",
    },
    Row {
        register: "staged_upstream / active_upstream",
        paper_name: "(clone-session port table, §8)",
        explanation: "UNM clone-session ports per configuration (4-byte port registers)",
    },
    Row {
        register: "prev_version / prev_next_hop",
        paper_name: "(§11 two-phase commit)",
        explanation: "previous rule generation for tagged packets (port: 4-byte register)",
    },
];

/// Print Table 1 and demonstrate a live register round-trip through the
/// actual `Uib` implementation.
pub fn print() {
    println!("# Table 1 — registers defined in P4Update (live inventory)");
    println!("# {:<36} {:<34} explanation", "register", "paper name");
    for r in ROWS {
        println!("{:<38} {:<34} {}", r.register, r.paper_name, r.explanation);
    }

    // Live round-trip through the register file.
    let mut uib = Uib::new();
    uib.update(FlowId(7), |e| {
        e.uim_version = Version(3);
        e.uim_distance = 4;
        e.staged_next_hop = Some(NodeId(2)).into();
        e.applied_version = Version(2);
        e.applied_distance = 5;
        e.active_next_hop = Some(NodeId(9)).into();
        e.old_version = Version(2);
        e.old_distance = 5;
        e.flow_size = 2.5;
        e.last_update_type = Some(UpdateKind::Single);
        e.counter = 1;
    });
    let e = uib.read(FlowId(7));
    println!();
    println!(
        "# live check: flow f7 -> new=({}, D{}) applied=({}, D{}) old=({}, D{}) size={} t={:?}",
        e.uim_version,
        e.uim_distance,
        e.applied_version,
        e.applied_distance,
        e.old_version,
        e.old_distance,
        e.flow_size,
        e.last_update_type,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_every_paper_register() {
        let paper_registers = [
            "new_distance",
            "new_version",
            "egress_port_updated",
            "old_distance",
            "old_version",
            "egress_port",
            "flow_size",
            "flow_priority",
            "t",
            "counter",
        ];
        for name in paper_registers {
            assert!(
                ROWS.iter().any(|r| r.register == name),
                "missing Table 1 register {name}"
            );
        }
    }
}
