//! Gravity-model traffic matrix synthesis (Roughan, CCR '05, as cited in
//! §9.1): the demand between nodes `i` and `j` is proportional to the
//! product of per-node masses, here drawn from an exponential distribution
//! — the standard way to synthesize realistic WAN traffic matrices from
//! nothing but a node count.

use p4update_des::SimRng;
use p4update_net::NodeId;

/// A synthesized traffic matrix: the rate from node `i` to node `j` (zero
/// on the diagonal), in link-capacity units. A gravity matrix is an outer
/// product, so only its two mass vectors and the normalizing scale are
/// stored — O(n), not the n x n table (128 MiB at 4096 nodes) — and an
/// entry is computed when asked for.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    /// Per-node share of all outgoing mass.
    out_share: Vec<f64>,
    /// Per-node share of all incoming mass.
    in_share: Vec<f64>,
    /// Brings the off-diagonal sum to the requested total.
    scale: f64,
}

impl TrafficMatrix {
    /// Synthesize a gravity-model matrix for `n` nodes, scaled so the total
    /// demand equals `total`.
    pub fn gravity(rng: &mut SimRng, n: usize, total: f64) -> Self {
        Self::draw(rng, n).scaled_to(total)
    }

    /// Draw the per-node masses for `n` nodes, all the randomness of
    /// [`Self::gravity`]: the matrix at scale 1, whose entries are the raw
    /// share products.
    pub(crate) fn draw(rng: &mut SimRng, n: usize) -> Self {
        assert!(n >= 2, "a traffic matrix needs at least two nodes");
        // Per-node in/out masses: exponential, as in Roughan's synthesis.
        let out_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let in_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let out_sum: f64 = out_mass.iter().sum();
        let in_sum: f64 = in_mass.iter().sum();
        TrafficMatrix {
            out_share: out_mass.iter().map(|m| m / out_sum).collect(),
            in_share: in_mass.iter().map(|m| m / in_sum).collect(),
            scale: 1.0,
        }
    }

    /// A drawn matrix normalized so the total demand equals `total`: at
    /// scale 1 the entries are the raw share products, so `total()`, an
    /// O(n²) sum, is what to divide by.
    pub(crate) fn scaled_to(mut self, total: f64) -> Self {
        assert!(total > 0.0, "total demand must be positive");
        #[cfg(test)]
        crate::scenario::count(|w| w.scaled += 1);
        self.scale = total / self.total();
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.out_share.len()
    }

    /// True for a zero-node matrix (never produced by [`Self::gravity`]).
    pub fn is_empty(&self) -> bool {
        self.out_share.is_empty()
    }

    /// Demand from `src` to `dst`.
    pub fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        self.entry(src.index(), dst.index())
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.out_share[i] * self.in_share[j] * self.scale
        }
    }

    /// Total demand across all pairs, summed row by row.
    pub fn total(&self) -> f64 {
        let n = self.len();
        let mut sum = 0.0;
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                sum += self.entry(i, j);
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The n x n table `gravity` used to materialize, entry for entry.
    fn dense_reference(rng: &mut SimRng, n: usize, total: f64) -> Vec<Vec<f64>> {
        let out_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let in_mass: Vec<f64> = (0..n).map(|_| rng.exponential(1.0)).collect();
        let out_sum: f64 = out_mass.iter().sum();
        let in_sum: f64 = in_mass.iter().sum();
        let mut demand = vec![vec![0.0; n]; n];
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = (out_mass[i] / out_sum) * (in_mass[j] / in_sum);
                    demand[i][j] = d;
                    sum += d;
                }
            }
        }
        let scale = total / sum;
        for d in demand.iter_mut().flatten() {
            *d *= scale;
        }
        demand
    }

    #[test]
    fn entries_and_total_match_the_dense_table_bit_for_bit() {
        for n in 2..=12 {
            for seed in 0..8 {
                let total = 0.55 * (n * n) as f64;
                let tm = TrafficMatrix::gravity(&mut SimRng::new(seed), n, total);
                let dense = dense_reference(&mut SimRng::new(seed), n, total);
                for (i, row) in dense.iter().enumerate() {
                    for (j, d) in row.iter().enumerate() {
                        let got = tm.demand(NodeId(i as u32), NodeId(j as u32));
                        assert_eq!(got.to_bits(), d.to_bits(), "n {n} seed {seed} ({i},{j})");
                    }
                }
                let dense_total: f64 = dense.iter().flatten().sum();
                assert_eq!(
                    tm.total().to_bits(),
                    dense_total.to_bits(),
                    "n {n} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn total_is_normalized() {
        let mut rng = SimRng::new(1);
        let tm = TrafficMatrix::gravity(&mut rng, 10, 500.0);
        assert!((tm.total() - 500.0).abs() < 1e-6);
        assert_eq!(tm.len(), 10);
    }

    #[test]
    fn diagonal_is_zero_and_entries_nonnegative() {
        let mut rng = SimRng::new(2);
        let tm = TrafficMatrix::gravity(&mut rng, 8, 100.0);
        for i in 0..8 {
            assert_eq!(tm.demand(NodeId(i), NodeId(i)), 0.0);
            for j in 0..8 {
                assert!(tm.demand(NodeId(i), NodeId(j)) >= 0.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TrafficMatrix::gravity(&mut SimRng::new(7), 6, 10.0);
        let b = TrafficMatrix::gravity(&mut SimRng::new(7), 6, 10.0);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    a.demand(NodeId(i), NodeId(j)),
                    b.demand(NodeId(i), NodeId(j))
                );
            }
        }
    }

    #[test]
    fn demands_are_heterogeneous() {
        let mut rng = SimRng::new(3);
        let tm = TrafficMatrix::gravity(&mut rng, 12, 100.0);
        let mut values: Vec<f64> = (0..12)
            .flat_map(|i| (0..12).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| tm.demand(NodeId(i), NodeId(j)))
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Gravity with exponential masses is skewed: the top pair should
        // carry much more than the median pair.
        let median = values[values.len() / 2];
        let max = *values.last().unwrap();
        assert!(max > 3.0 * median, "max {max} vs median {median}");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_node_panics() {
        TrafficMatrix::gravity(&mut SimRng::new(0), 1, 1.0);
    }
}
