//! [`PlanDelta`]: the edit an evolving batch applies between two analysis
//! passes, feeding [`crate::engine::BatchAnalyzer::reanalyze`] so a caller
//! whose batch changes a few plans at a time revalidates only those.

use p4update_core::PreparedUpdate;

/// An edit script from one analyzed batch to the next. Index fields refer
/// to positions in the *previous* batch; the edit applies as: drop the
/// removed positions, substitute the revised positions, keep everything
/// else in order, then append the additions.
#[derive(Debug, Clone, Default)]
pub struct PlanDelta {
    /// Previous-batch positions dropped from the batch (ascending).
    pub removed: Vec<usize>,
    /// Previous-batch positions replaced by a new plan (none of them
    /// removed).
    pub revised: Vec<(usize, PreparedUpdate)>,
    /// Plans appended after the retained ones.
    pub added: Vec<PreparedUpdate>,
}

impl PlanDelta {
    /// Apply the edit to `prev`, returning the new batch plus, per new
    /// position, the previous position it was carried over from unchanged
    /// (`None` for revised and added plans): the positions whose cached
    /// lint the engine may reuse.
    pub(crate) fn apply(
        &self,
        prev: &[PreparedUpdate],
    ) -> (Vec<PreparedUpdate>, Vec<Option<usize>>) {
        let mut plans = Vec::with_capacity(prev.len() + self.added.len());
        let mut origin = Vec::with_capacity(prev.len() + self.added.len());
        let mut removed = self.removed.iter().copied().peekable();
        for (i, plan) in prev.iter().enumerate() {
            if removed.peek() == Some(&i) {
                removed.next();
                continue;
            }
            if let Some((_, replacement)) = self.revised.iter().find(|&&(r, _)| r == i) {
                plans.push(replacement.clone());
                origin.push(None);
            } else {
                plans.push(plan.clone());
                origin.push(Some(i));
            }
        }
        for plan in &self.added {
            plans.push(plan.clone());
            origin.push(None);
        }
        (plans, origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::{prepare_update, Strategy};
    use p4update_net::{FlowId, FlowUpdate, NodeId, Path, Version};

    fn plan(flow: u32, version: u32) -> PreparedUpdate {
        let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
        let u = FlowUpdate::new(FlowId(flow), Some(p(&[0, 1, 2])), p(&[0, 3, 2]), 1.0);
        prepare_update(&u, Version(version), Strategy::Auto)
    }

    #[test]
    fn apply_drops_substitutes_keeps_and_appends() {
        let old = vec![plan(0, 2), plan(1, 2), plan(2, 2)];
        let delta = PlanDelta {
            removed: vec![0],
            revised: vec![(2, plan(2, 3))],
            added: vec![plan(3, 2)],
        };
        let (applied, origin) = delta.apply(&old);
        assert_eq!(applied, vec![plan(1, 2), plan(2, 3), plan(3, 2)]);
        assert_eq!(origin, vec![Some(1), None, None]);
    }

    #[test]
    fn empty_delta_keeps_every_position() {
        let batch = vec![plan(0, 2), plan(1, 2)];
        let (applied, origin) = PlanDelta::default().apply(&batch);
        assert_eq!(applied, batch);
        assert_eq!(origin, vec![Some(0), Some(1)]);
    }
}
