//! Local verification: Algorithm 1 (single-layer) and Algorithm 2
//! (dual-layer) as pure functions over the node's UIB snapshot and the
//! incoming UNM.
//!
//! These functions are the heart of the paper: every switch decides
//! *entirely on its own state and the notification's contents* whether
//! applying an update preserves blackhole and loop freedom. The functions
//! are side-effect free; the switch logic interprets the verdict (install,
//! park, drop-and-alarm).

use p4update_dataplane::UibEntry;
use p4update_messages::{RejectReason, Unm, UpdateKind};
use p4update_net::Version;

/// Verdict of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `VS = 1` in Algorithm 1: apply the staged configuration (after the
    /// congestion check) and continue the chain upstream.
    Accept,
    /// Dual-layer interior acceptance (Alg. 2 lines 9–16): apply, inherit
    /// the UNM's old distance/version, increment the counter.
    AcceptInterior,
    /// Dual-layer gateway acceptance (Alg. 2 lines 17–23): apply, inherit
    /// the UNM's old distance/version.
    AcceptGateway,
    /// Already updated (Alg. 2 lines 24–28): inherit the smaller old
    /// distance and pass the notification upstream without reinstalling.
    PassAlong,
    /// The notification announces a version no UIM has arrived for yet:
    /// park it and resubmit when the UIM arrives (Alg. 1 line 10,
    /// Alg. 2 line 5).
    WaitForUim,
    /// Consistent but not actionable *yet*: dual-layer old-distance gating
    /// unsatisfied (a backward-segment gateway seeing its own segment's
    /// second-layer chain), or a pass-along with nothing new to inherit.
    /// The message is held/dropped without alarming the controller.
    Hold,
    /// Inconsistent: drop the notification and inform the controller
    /// (Alg. 1 lines 8/12, §7.1's design choice).
    Reject(RejectReason),
}

impl Verdict {
    /// True for any of the accepting verdicts.
    pub fn accepts(self) -> bool {
        matches!(
            self,
            Verdict::Accept | Verdict::AcceptInterior | Verdict::AcceptGateway
        )
    }
}

/// Algorithm 1: single-layer verification at a node with UIB snapshot
/// `entry`, for notification `unm`.
pub fn verify_sl(entry: &UibEntry, unm: &Unm) -> Verdict {
    // Lines 9–10: the notification is ahead of our UIM knowledge.
    if unm.v_new > entry.uim_version {
        return Verdict::WaitForUim;
    }
    // Lines 11–12: outdated update.
    if unm.v_new < entry.uim_version {
        return Verdict::Reject(RejectReason::OutdatedVersion);
    }
    // Version matches the highest UIM but the node already applied it: a
    // regenerated chain (§11 loss recovery) — relay it upstream so it can
    // reach the break point; otherwise hold the harmless duplicate.
    if entry.applied_version >= unm.v_new {
        return if entry.applied_version == unm.v_new
            && entry.applied_distance == unm.d_new.wrapping_add(1)
        {
            Verdict::PassAlong
        } else {
            Verdict::Hold
        };
    }
    // Line 5: the sender must be our parent on the new path — its distance
    // exactly one smaller (Fig. 6b: equal distances could loop).
    if entry.uim_distance == unm.d_new.wrapping_add(1) {
        Verdict::Accept
    } else {
        Verdict::Reject(RejectReason::DistanceMismatch)
    }
}

/// Algorithm 2: dual-layer verification.
///
/// Falls back to [`verify_sl`] when either the staged UIM or the UNM is not
/// dual-layer (Alg. 2 lines 2–3).
pub fn verify_dl(entry: &UibEntry, unm: &Unm) -> Verdict {
    if entry.uim_kind != Some(UpdateKind::Dual) || unm.kind != UpdateKind::Dual {
        return verify_sl(entry, unm);
    }
    // Lines 4–7: version alignment against the highest UIM.
    if unm.v_new > entry.uim_version {
        return Verdict::WaitForUim;
    }
    if unm.v_new < entry.uim_version {
        return Verdict::Reject(RejectReason::OutdatedVersion);
    }

    let applied = entry.applied_version;

    // Lines 9–16: nodes inside a segment — holding no rule (fresh nodes,
    // a fresh deployment's too) or lagging more than one version
    // (fast-forwarding over skipped versions).
    if !entry.has_active_rule() || Version(applied.0 + 1) < unm.v_new {
        return if entry.uim_distance == unm.d_new.wrapping_add(1) {
            Verdict::AcceptInterior
        } else {
            Verdict::Reject(RejectReason::DistanceMismatch)
        };
    }

    // Lines 17–23: gateway nodes — at exactly the previous version, and the
    // sender reports the same previous version as its old one.
    if Version(applied.0 + 1) == unm.v_new && unm.v_new == Version(unm.v_old.0 + 1) {
        if entry.uim_distance != unm.d_new.wrapping_add(1) {
            return Verdict::Reject(RejectReason::DistanceMismatch);
        }
        if entry.last_update_type == Some(UpdateKind::Dual) {
            // A dual-layer update may not follow a dual-layer update
            // without an intervening single-layer (§7.3, §11).
            return Verdict::Reject(RejectReason::DualAfterDual);
        }
        // The old-distance gate: join only a segment with a smaller
        // segment ID (§3.2's invariant — packets can only get routed
        // closer to the destination).
        return if entry.old_distance > unm.d_old {
            Verdict::AcceptGateway
        } else {
            Verdict::Hold
        };
    }

    // Lines 24–28: already updated to this version — pass inherited old
    // distances upstream.
    if applied == unm.v_new && entry.old_version == unm.v_old {
        if entry.applied_distance != entry.uim_distance
            || entry.uim_distance != unm.d_new.wrapping_add(1)
        {
            return Verdict::Reject(RejectReason::DistanceMismatch);
        }
        return if entry.old_distance > unm.d_old
            || (entry.old_distance == unm.d_old && entry.counter > unm.counter)
        {
            Verdict::PassAlong
        } else {
            Verdict::Hold
        };
    }

    // Any other version relationship (e.g., we already applied something
    // newer) makes the notification outdated.
    Verdict::Reject(RejectReason::OutdatedVersion)
}

/// Dispatch between the two algorithms by message kind, as the data plane
/// does on UNM arrival.
pub fn verify(entry: &UibEntry, unm: &Unm) -> Verdict {
    match unm.kind {
        UpdateKind::Single => verify_sl(entry, unm),
        UpdateKind::Dual => verify_dl(entry, unm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_messages::UnmLayer;
    use p4update_net::FlowId;

    /// A node with UIM staged for version 1, distance `d`, nothing applied.
    fn fresh_with_uim(d: u32, kind: UpdateKind) -> UibEntry {
        UibEntry {
            uim_version: Version(1),
            uim_distance: d,
            uim_kind: Some(kind),
            ..UibEntry::default()
        }
    }

    fn unm(v_new: u32, v_old: u32, d_new: u32, d_old: u32, kind: UpdateKind) -> Unm {
        Unm {
            flow: FlowId(0),
            v_new: Version(v_new),
            v_old: Version(v_old),
            d_new,
            d_old,
            counter: 0,
            kind,
            layer: UnmLayer::Intra,
        }
    }

    // ---------- Algorithm 1 (Fig. 6 scenarios) ----------

    #[test]
    fn fig6a_consistent_chain_accepts() {
        // v1 with D_n = 2 receiving from v3 (D_n = 1), both at version 1.
        let entry = fresh_with_uim(2, UpdateKind::Single);
        let m = unm(1, 0, 1, 0, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &m), Verdict::Accept);
    }

    #[test]
    fn fig6b_distance_error_rejects() {
        // Parent claims the same distance as ours: identical distances can
        // cause a forwarding loop.
        let entry = fresh_with_uim(2, UpdateKind::Single);
        let m = unm(1, 0, 2, 0, UpdateKind::Single);
        assert_eq!(
            verify_sl(&entry, &m),
            Verdict::Reject(RejectReason::DistanceMismatch)
        );
    }

    #[test]
    fn fig6c_version_error_rejects() {
        // Node already has UIM for version 2; a version-1 notification is
        // outdated (falling back could induce loops).
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 2,
            uim_kind: Some(UpdateKind::Single),
            ..UibEntry::default()
        };
        let m = unm(1, 0, 1, 0, UpdateKind::Single);
        assert_eq!(
            verify_sl(&entry, &m),
            Verdict::Reject(RejectReason::OutdatedVersion)
        );
    }

    #[test]
    fn future_version_waits_for_uim() {
        let entry = fresh_with_uim(2, UpdateKind::Single);
        let m = unm(5, 4, 1, 0, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &m), Verdict::WaitForUim);
    }

    #[test]
    fn no_uim_at_all_waits() {
        let entry = UibEntry::default();
        let m = unm(1, 0, 1, 0, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &m), Verdict::WaitForUim);
    }

    #[test]
    fn duplicate_for_applied_version_relays_for_recovery() {
        // A regenerated chain (§11) relays through applied nodes...
        let mut entry = fresh_with_uim(2, UpdateKind::Single);
        entry.apply_single();
        let m = unm(1, 0, 1, 0, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &m), Verdict::PassAlong);
        // ...but a duplicate whose distance does not fit is held, and an
        // older-version duplicate is rejected upstream of this check.
        let misfit = unm(1, 0, 2, 0, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &misfit), Verdict::Hold);
    }

    #[test]
    fn fast_forward_skips_intermediate_version() {
        // §4.2: node at applied version 1 receives UIM v3 and then the v3
        // notification while v2 is still in flight — accept v3 directly.
        let entry = UibEntry {
            uim_version: Version(3),
            uim_distance: 4,
            uim_kind: Some(UpdateKind::Single),
            applied_version: Version(1),
            applied_distance: 2,
            old_version: Version(1),
            old_distance: 2,
            ..UibEntry::default()
        };
        let m3 = unm(3, 2, 3, 1, UpdateKind::Single);
        assert_eq!(verify_sl(&entry, &m3), Verdict::Accept);
        // The late v2 notification is rejected as outdated.
        let m2 = unm(2, 1, 3, 2, UpdateKind::Single);
        assert_eq!(
            verify_sl(&entry, &m2),
            Verdict::Reject(RejectReason::OutdatedVersion)
        );
    }

    // ---------- Algorithm 2 (Fig. 1 walkthrough) ----------

    /// Fig. 1, version 2 dual-layer update. Gateways hold version-1 state
    /// with their old-path distances as old distances.
    fn gateway(uim_distance: u32, old_distance: u32) -> UibEntry {
        UibEntry {
            uim_version: Version(2),
            uim_distance,
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(1),
            applied_distance: old_distance,
            old_version: Version(1),
            old_distance,
            last_update_type: Some(UpdateKind::Single),
            ..UibEntry::default()
        }
    }

    fn dl_unm(v_old: u32, d_new: u32, d_old: u32) -> Unm {
        unm(2, v_old, d_new, d_old, UpdateKind::Dual)
    }

    #[test]
    fn interior_node_accepts_and_will_inherit() {
        // v6 (fresh, D_n = 1) receiving the second-layer UNM from v7
        // (D_n = 0, D_o = 0).
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 1,
            uim_kind: Some(UpdateKind::Dual),
            ..UibEntry::default()
        };
        assert_eq!(verify_dl(&entry, &dl_unm(1, 0, 0)), Verdict::AcceptInterior);
    }

    #[test]
    fn interior_distance_mismatch_rejects() {
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 3,
            uim_kind: Some(UpdateKind::Dual),
            ..UibEntry::default()
        };
        assert_eq!(
            verify_dl(&entry, &dl_unm(1, 0, 0)),
            Verdict::Reject(RejectReason::DistanceMismatch)
        );
    }

    #[test]
    fn forward_gateway_accepts_smaller_segment_id() {
        // v4: D_n = 3 on the new path, old distance 2. Second-layer UNM
        // from its segment (via v5) carries d_old = 0 (v7's). 2 > 0 → flip.
        let entry = gateway(3, 2);
        assert_eq!(verify_dl(&entry, &dl_unm(1, 2, 0)), Verdict::AcceptGateway);
    }

    #[test]
    fn backward_gateway_holds_on_larger_segment_id() {
        // v2: D_n = 5 on the new path, old distance 1. Its segment's
        // second-layer chain (started by v4 before inheriting) carries
        // d_old = 2. 1 > 2 is false → hold, wait for the first layer.
        let entry = gateway(5, 1);
        assert_eq!(verify_dl(&entry, &dl_unm(1, 4, 2)), Verdict::Hold);
    }

    #[test]
    fn backward_gateway_accepts_after_inheritance() {
        // Later the first-layer UNM arrives via v3 carrying the inherited
        // d_old = 0: 1 > 0 → flip.
        let entry = gateway(5, 1);
        assert_eq!(verify_dl(&entry, &dl_unm(1, 4, 0)), Verdict::AcceptGateway);
    }

    #[test]
    fn dual_after_dual_rejects() {
        let mut entry = gateway(3, 2);
        entry.last_update_type = Some(UpdateKind::Dual);
        assert_eq!(
            verify_dl(&entry, &dl_unm(1, 2, 0)),
            Verdict::Reject(RejectReason::DualAfterDual)
        );
    }

    #[test]
    fn updated_node_passes_smaller_old_distance_along() {
        // A node already flipped to version 2 with inherited old distance 2
        // sees the first-layer UNM carrying d_old = 0: inherit and forward.
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 4,
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(2),
            applied_distance: 4,
            old_version: Version(1),
            old_distance: 2,
            last_update_type: Some(UpdateKind::Dual),
            counter: 1,
            ..UibEntry::default()
        };
        assert_eq!(verify_dl(&entry, &dl_unm(1, 3, 0)), Verdict::PassAlong);
        // Nothing new to inherit (same old distance, counter not smaller)
        // → hold.
        let mut dup = dl_unm(1, 3, 2);
        dup.counter = 1;
        assert_eq!(verify_dl(&entry, &dup), Verdict::Hold);
    }

    #[test]
    fn counter_breaks_equal_old_distance_ties() {
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 4,
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(2),
            applied_distance: 4,
            old_version: Version(1),
            old_distance: 2,
            last_update_type: Some(UpdateKind::Dual),
            counter: 5,
            ..UibEntry::default()
        };
        let mut m = dl_unm(1, 3, 2);
        m.counter = 3; // same d_old, smaller counter → pass along
        assert_eq!(verify_dl(&entry, &m), Verdict::PassAlong);
        m.counter = 5; // not smaller → hold
        assert_eq!(verify_dl(&entry, &m), Verdict::Hold);
    }

    #[test]
    fn dl_falls_back_to_sl_for_single_layer_messages() {
        let entry = fresh_with_uim(2, UpdateKind::Single);
        let m = unm(1, 0, 1, 0, UpdateKind::Dual);
        // UIM is single-layer → Alg. 1 path (accepts: distance fits).
        assert_eq!(verify_dl(&entry, &m), Verdict::Accept);
    }

    #[test]
    fn dl_version_waiting_and_outdated() {
        let entry = gateway(3, 2);
        let future = unm(7, 6, 2, 0, UpdateKind::Dual);
        assert_eq!(verify_dl(&entry, &future), Verdict::WaitForUim);
        let mut stale_entry = gateway(3, 2);
        stale_entry.uim_version = Version(5);
        let stale = unm(2, 1, 2, 0, UpdateKind::Dual);
        assert_eq!(
            verify_dl(&stale_entry, &stale),
            Verdict::Reject(RejectReason::OutdatedVersion)
        );
    }

    #[test]
    fn dl_fast_forward_treats_lagging_gateway_as_interior() {
        // A node two versions behind receiving a consistent dual-layer
        // notification for the staged version updates interior-style.
        let entry = UibEntry {
            uim_version: Version(4),
            uim_distance: 2,
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(1),
            applied_distance: 1,
            old_version: Version(1),
            old_distance: 1,
            last_update_type: Some(UpdateKind::Single),
            ..UibEntry::default()
        };
        let m = unm(4, 3, 1, 0, UpdateKind::Dual);
        assert_eq!(verify_dl(&entry, &m), Verdict::AcceptInterior);
    }

    #[test]
    fn verdict_accepts_helper() {
        assert!(Verdict::Accept.accepts());
        assert!(Verdict::AcceptInterior.accepts());
        assert!(Verdict::AcceptGateway.accepts());
        assert!(!Verdict::PassAlong.accepts());
        assert!(!Verdict::Hold.accepts());
        assert!(!Verdict::WaitForUim.accepts());
        assert!(!Verdict::Reject(RejectReason::DistanceMismatch).accepts());
    }

    #[test]
    fn dispatch_routes_by_kind() {
        let entry = fresh_with_uim(2, UpdateKind::Single);
        let m = unm(1, 0, 1, 0, UpdateKind::Single);
        assert_eq!(verify(&entry, &m), verify_sl(&entry, &m));
        let entry = gateway(3, 2);
        let m = dl_unm(1, 2, 0);
        assert_eq!(verify(&entry, &m), verify_dl(&entry, &m));
    }
}
