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
    /// Previous-batch positions replaced by a new plan.
    pub revised: Vec<(usize, PreparedUpdate)>,
    /// Plans appended after the retained ones.
    pub added: Vec<PreparedUpdate>,
}

impl PlanDelta {
    /// Number of plans this delta touches (each counts once; a position
    /// both removed and revised would be ill-formed and counts never
    /// arise because [`Self::diff`] keeps the sets disjoint).
    pub fn touched(&self) -> usize {
        self.removed.len() + self.revised.len() + self.added.len()
    }

    /// The positional edit from `old` to `new`: positions present in both
    /// are revised where the plans differ, surplus old positions are
    /// removed, surplus new positions are added. Positional (not a
    /// minimal-edit diff) because batch producers keep stable plan order;
    /// an ill-matched ordering only costs reuse, never correctness.
    pub fn diff(old: &[PreparedUpdate], new: &[PreparedUpdate]) -> PlanDelta {
        let common = old.len().min(new.len());
        PlanDelta {
            removed: (common..old.len()).collect(),
            revised: (0..common)
                .filter(|&i| old[i] != new[i])
                .map(|i| (i, new[i].clone()))
                .collect(),
            added: new[common..].to_vec(),
        }
    }

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
    fn diff_classifies_positions() {
        let old = vec![plan(0, 2), plan(1, 2), plan(2, 2)];
        let new = vec![plan(0, 2), plan(1, 3)];
        let delta = PlanDelta::diff(&old, &new);
        assert_eq!(delta.removed, vec![2]);
        assert_eq!(delta.revised.len(), 1);
        assert_eq!(delta.revised[0].0, 1);
        assert!(delta.added.is_empty());
        assert_eq!(delta.touched(), 2);

        let (applied, origin) = delta.apply(&old);
        assert_eq!(applied.len(), 2);
        assert_eq!(origin, vec![Some(0), None]);
        assert_eq!(applied[1].version, Version(3));
    }

    #[test]
    fn identical_batches_diff_empty() {
        let batch = vec![plan(0, 2), plan(1, 2)];
        let delta = PlanDelta::diff(&batch, &batch.clone());
        assert_eq!(delta.touched(), 0);
        let (applied, origin) = delta.apply(&batch);
        assert_eq!(applied.len(), 2);
        assert_eq!(origin, vec![Some(0), Some(1)]);
    }
}
