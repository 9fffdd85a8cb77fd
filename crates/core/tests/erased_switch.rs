//! The shape the benchmark's dataplane micro-benchmark drives a switch in:
//! `Switch::new(.., Box::new(P4UpdateLogic::new()))` handed around as a
//! bare `&mut Switch`, which unsized coercion turns into the chassis's
//! default, type-erased logic parameter. It must behave exactly as a
//! typed `Switch<P4UpdateLogic>`, whose calls dispatch statically.

use p4update_core::P4UpdateLogic;
use p4update_dataplane::{Effect, Endpoint, Switch, SwitchLogic};
use p4update_des::SimTime;
use p4update_messages::{Message, Uim, Unm, UnmLayer, UpdateKind};
use p4update_net::{topologies, FlowId, NodeId, Version};

/// One UIM from the controller, the child's UNM and the rule-write
/// completion at `v1` of Fig. 1, for `version`.
fn cycle<L: SwitchLogic + ?Sized>(
    switch: &mut Switch<L>,
    version: u32,
) -> (Vec<Effect>, Vec<Effect>, Vec<Effect>) {
    let (upstream, child, flow) = (NodeId(0), NodeId(2), FlowId(0));
    let uim = Uim {
        flow,
        version: Version(version),
        new_distance: 1,
        flow_size: 1.0,
        next_hop: Some(child),
        upstream: Some(upstream),
        kind: UpdateKind::Single,
    };
    let note = Unm {
        flow,
        v_new: Version(version),
        v_old: Version(version - 1),
        d_new: 0,
        d_old: 0,
        counter: 0,
        kind: UpdateKind::Single,
        layer: UnmLayer::Intra,
    };
    let now = SimTime::ZERO;
    let on_uim = switch.handle_message(now, Endpoint::Controller, Message::Uim(uim));
    let on_unm = switch.handle_message(now, Endpoint::Switch(child), Message::Unm(note));
    let on_installed = match on_unm.first() {
        Some(Effect::BeginInstall { token, .. }) => switch.handle_installed(now, flow, *token),
        _ => Vec::new(),
    };
    (on_uim, on_unm, on_installed)
}

#[test]
fn a_boxed_logic_behind_an_erased_switch_matches_the_typed_switch() {
    let topo = topologies::fig1();
    let mut boxed = Switch::new(NodeId(1), &topo, Box::new(P4UpdateLogic::new()));
    let mut typed: Switch<P4UpdateLogic> =
        Switch::new(NodeId(1), &topo, Box::new(P4UpdateLogic::new()));
    for version in 1..=4 {
        let erased: &mut Switch = &mut boxed;
        let from_erased = cycle(erased, version);
        assert_eq!(from_erased, cycle(&mut typed, version), "version {version}");
        assert!(
            matches!(
                from_erased.2.as_slice(),
                [Effect::SendSwitch { to: NodeId(0), msg: Message::Unm(n) }] if n.v_new == Version(version)
            ),
            "version {version}: the installed rule continues the chain upstream"
        );
    }
    assert_eq!(boxed.logic.parked_messages(), typed.logic.parked_messages());
    assert_eq!(
        boxed.state.uib.read(FlowId(0)),
        typed.state.uib.read(FlowId(0))
    );
}
