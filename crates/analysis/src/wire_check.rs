//! Wire well-formedness (P4U009): every UIM the plan ships must survive
//! the codec unchanged, or the switch pipeline parses a different update
//! than the controller verified. (A plan ships no UNM: switches build
//! those, and the codec's own tests cover them.)

use crate::diagnostic::{Code, Diagnostic};
use p4update_core::PreparedUpdate;
use p4update_messages::{wire, Message};

/// Round-trip every UIM of the plan through the wire codec.
pub(crate) fn check_wire(plan: &PreparedUpdate, out: &mut Vec<Diagnostic>) {
    for (node, uim) in &plan.uims {
        let msg = Message::Uim(*uim);
        let problem = match wire::encode(&msg) {
            Ok(buf) => match wire::decode(&buf) {
                Ok(back) if back == msg => continue,
                Ok(_) => "UIM decodes to a different message than was encoded".to_string(),
                Err(e) => format!("encoded UIM fails to decode: {e}"),
            },
            Err(e) => format!("UIM fails to encode: {e}"),
        };
        out.push(Diagnostic::new(
            Code::WireRoundTripFailed,
            plan.flow,
            Some(*node),
            problem,
        ));
    }
}
