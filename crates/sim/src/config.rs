//! Simulation configuration: the timing model of §9.1 and the fault
//! injection knobs used by the verification experiments (§4.1) and the
//! property tests.
//!
//! The calibration is a property of the model, not of a run: every system
//! is compared on one substrate (§9.1), so the values no scenario varies
//! are the constants below. [`TimingConfig`] holds what the paper's setups
//! set differently, and the four costs a sensitivity sweep varies
//! (`p4update-experiments sweep`), which default to their constants.
//! DESIGN.md §5 gives each constant's source.

use p4update_des::SimDuration;
use p4update_messages::ByzVector;
use p4update_net::NodeId;

/// Mean of the exponential per-message controller service time, in
/// milliseconds (queueing + processing of §9.1's "Centralized Updates"
/// note).
pub const CTRL_SERVICE_MEAN_MS: f64 = 10.0;

/// Serialization cost per outbound controller message, in milliseconds
/// (staggers UIM pushes from the single-threaded control plane).
pub const CTRL_TX_MS: f64 = 5.0;

/// Extra per-hop forwarding cost, in milliseconds, for multi-hop in-band
/// control messages relayed through intermediate switches.
pub const RELAY_HOP_MS: f64 = 0.5;

/// Resubmission poll interval in milliseconds: every parked (waiting)
/// message spins through the pipeline once per interval, consuming
/// `switch_proc_ms` of forwarding capacity (Appendix B's data-plane
/// waiting mechanism).
pub const RESUBMIT_POLL_MS: f64 = 2.0;

/// Mean of [`InstallDelay::Exponential`] in milliseconds, by default
/// ("each node is slowed by a random delay when updating rules, generated
/// by exp(100) ms", §9.1).
pub const INSTALL_MEAN_MS: f64 = 100.0;

/// Mean of [`ControlLatency::Normal`] in milliseconds (Huang et al. \[38\]).
pub const CTRL_LATENCY_MEAN_MS: f64 = 35.0;

/// Standard deviation of [`ControlLatency::Normal`] in milliseconds.
pub const CTRL_LATENCY_STD_DEV_MS: f64 = 15.0;

/// Floor of [`ControlLatency::Normal`] in milliseconds: no draw is
/// shorter.
pub const CTRL_LATENCY_FLOOR_MS: f64 = 1.0;

/// Extra latency, in milliseconds, an adversary adds: the delay
/// alternative of a fault choice point, the gap between a duplicate's two
/// copies, and the gap between an honest message and its stale byzantine
/// replay. Long enough to outlast an entire small-scenario update (the
/// Fig. 2 window is a few hundred ms), so one delayed message can expose
/// any mixed state the protocol would ever enter.
pub const ADVERSARY_DELAY_MS: f64 = 400.0;

/// Replication lag in milliseconds: what the primary controller executed
/// within this window before its failover never reaches the standby (see
/// [`SimConfig::failover_at_ms`]).
pub(crate) const REPLICATION_LAG_MS: f64 = 25.0;

/// Rule-installation delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstallDelay {
    /// Rules apply after the switch's processing time only (multi-flow
    /// scenario: "no extra control load delay on the switches").
    None,
    /// Exponential extra delay with mean [`INSTALL_MEAN_MS`] (single-flow
    /// scenario).
    Exponential,
}

/// Control-plane latency model between the controller and each switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlLatency {
    /// WAN model: the propagation latency of the latency-shortest path
    /// from the controller's placement node (§9.1: controller at the
    /// centroid).
    ShortestPathFrom(NodeId),
    /// DC model: per-message latency drawn from
    /// N([`CTRL_LATENCY_MEAN_MS`], [`CTRL_LATENCY_STD_DEV_MS`]), clamped
    /// below at [`CTRL_LATENCY_FLOOR_MS`] (fat-tree).
    Normal,
}

/// What the paper's setups set differently, and the costs a sweep varies;
/// the rest of the timing model is this module's constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Per-message processing time at a switch (BMv2-scale software
    /// forwarding; applied serially per switch).
    pub switch_proc_ms: f64,
    /// Rule-installation delay model.
    pub install: InstallDelay,
    /// Control-plane latency model.
    pub control: ControlLatency,
    /// Serialization cost per outbound controller message
    /// ([`CTRL_TX_MS`] in every setup).
    pub ctrl_tx_ms: f64,
    /// Mean controller service time per message
    /// ([`CTRL_SERVICE_MEAN_MS`] in every setup).
    pub ctrl_service_mean_ms: f64,
    /// Resubmission poll interval ([`RESUBMIT_POLL_MS`] in every setup).
    pub resubmit_poll_ms: f64,
    /// Mean of [`InstallDelay::Exponential`] ([`INSTALL_MEAN_MS`] in
    /// every setup).
    pub install_mean_ms: f64,
}

impl TimingConfig {
    /// The WAN single-flow setup (§9.1): controller at `controller`,
    /// exp(100 ms) installs.
    pub fn wan_single_flow(controller: NodeId) -> Self {
        TimingConfig {
            switch_proc_ms: 2.0,
            install: InstallDelay::Exponential,
            control: ControlLatency::ShortestPathFrom(controller),
            ctrl_tx_ms: CTRL_TX_MS,
            ctrl_service_mean_ms: CTRL_SERVICE_MEAN_MS,
            resubmit_poll_ms: RESUBMIT_POLL_MS,
            install_mean_ms: INSTALL_MEAN_MS,
        }
    }

    /// The WAN multi-flow setup (§9.1): no extra install delay.
    pub fn wan_multi_flow(controller: NodeId) -> Self {
        TimingConfig {
            install: InstallDelay::None,
            ..Self::wan_single_flow(controller)
        }
    }

    /// The fat-tree setup: normal control latency (Huang et al.), no extra
    /// install delay.
    pub fn fat_tree() -> Self {
        TimingConfig {
            control: ControlLatency::Normal,
            ..Self::wan_multi_flow(NodeId(0))
        }
    }
}

/// Fault injection on control traffic (UIM/UNM and the baselines'
/// messages). Data packets are never dropped by the injector — losses in
/// the experiments must come from the protocols themselves (TTL death,
/// blackholes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of dropping a controller→switch message.
    pub drop_ctrl_to_switch: f64,
    /// Probability of dropping a switch→switch control message.
    pub drop_switch_to_switch: f64,
    /// Uniform extra delay in `[0, jitter_ms]` per control message —
    /// induces reordering.
    pub jitter_ms: f64,
    /// Targeted delay (the §4.1 scenario): controller messages to this
    /// node are held and delivered no earlier than the given time, while
    /// the controller stays oblivious.
    pub hold_ctrl_to: Option<(NodeId, SimDuration)>,
}

impl FaultConfig {
    /// No faults.
    pub const NONE: FaultConfig = FaultConfig {
        drop_ctrl_to_switch: 0.0,
        drop_switch_to_switch: 0.0,
        jitter_ms: 0.0,
        hold_ctrl_to: None,
    };
}

/// Byzantine adversary injection through the choice-point seam: with this
/// enabled, every *switch-originated* control message whose type some
/// catalog vector applies to becomes a `ChoiceKind::Byzantine` choice
/// point — alternative 0 sends honestly, alternative `i + 1` applies the
/// `i`-th applicable vector (`p4update_messages::ByzVector`). The liar
/// budget is enforced at the seam: once `max_liars` distinct switches
/// have lied, honest switches stop being offered the choice (existing
/// liars keep lying freely).
///
/// Alternative 0 draws no randomness and schedules nothing extra, so a
/// byzantine-enabled run under a default chooser is byte-identical to
/// one without the catalog installed — the no-drift contract
/// `tests/byzantine.rs` enforces differentially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineConfig {
    /// Maximum number of distinct lying switches (the `k` of the
    /// invariant-survival matrix).
    pub max_liars: u8,
    /// Restrict the catalog to a single vector class (`None` offers every
    /// applicable vector at each choice point). Restricting makes the
    /// per-cell matrix runs target exactly one lie class and keeps choice
    /// arities at 2, one lie per choice point for the search to try.
    pub vector: Option<ByzVector>,
}

impl Default for ByzantineConfig {
    fn default() -> Self {
        ByzantineConfig {
            max_liars: 1,
            vector: None,
        }
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Timing model.
    pub timing: TimingConfig,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Run seed (all stochastic components derive from it).
    pub seed: u64,
    /// Loss-recovery timer period in milliseconds (§11): while an update's
    /// feedback is outstanding, the controller re-pushes its indications
    /// every period. `0.0` disables recovery (the evaluation scenarios run
    /// without it, matching the paper's setup).
    pub retry_ms: f64,
    /// Byzantine message-corruption seam (see [`ByzantineConfig`]). `None`
    /// (the default) emits no byzantine choice points at all: every switch
    /// sends exactly what its logic produced.
    pub byzantine: Option<ByzantineConfig>,
    /// Controller failover: when set, one standby controller shadows the
    /// primary (fed the same triggers and executed messages, its outputs
    /// discarded), and at this absolute simulation time, in milliseconds,
    /// the primary dies and the standby takes over. Timer ticks are not
    /// mirrored, so the promoted standby starts every in-flight update's
    /// §11 retry budget ([`p4update_core::controller::MAX_RETRIES`])
    /// afresh. Messages the primary executed within the replication lag
    /// (`REPLICATION_LAG_MS`) before the failover are lost to the standby
    /// (they sat in the dead primary's replication pipeline), so the new
    /// primary's view can be stale and §11 retries are what reconcile it.
    /// `None` (the default) runs one controller and builds no standby.
    pub failover_at_ms: Option<f64>,
}

impl SimConfig {
    /// Convenience constructor.
    pub fn new(timing: TimingConfig, seed: u64) -> Self {
        SimConfig {
            timing,
            faults: FaultConfig::NONE,
            seed,
            retry_ms: 0.0,
            byzantine: None,
            failover_at_ms: None,
        }
    }

    /// Enable the §11 loss-recovery timer with the given period.
    pub fn with_retry_ms(mut self, period: f64) -> Self {
        self.retry_ms = period;
        self
    }

    /// Replace the fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Install the byzantine vector catalog (see [`ByzantineConfig`]).
    pub fn with_byzantine(mut self, byz: ByzantineConfig) -> Self {
        self.byzantine = Some(byz);
        self
    }

    /// Fail the primary controller over to its standby at `at_ms` (see
    /// [`Self::failover_at_ms`]).
    pub fn with_failover_at_ms(mut self, at_ms: f64) -> Self {
        self.failover_at_ms = Some(at_ms);
        self
    }
}

/// Convert a (possibly zero/negative) milliseconds value to a duration.
pub(crate) fn ms(v: f64) -> SimDuration {
    SimDuration::from_millis_f64(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_install_model() {
        let single = TimingConfig::wan_single_flow(NodeId(0));
        let multi = TimingConfig::wan_multi_flow(NodeId(0));
        assert_eq!(single.install, InstallDelay::Exponential);
        assert_eq!(multi.install, InstallDelay::None);
        assert_eq!(single.control, multi.control);
    }

    #[test]
    fn every_setup_takes_the_swept_costs_from_their_constants() {
        for t in [
            TimingConfig::wan_single_flow(NodeId(0)),
            TimingConfig::wan_multi_flow(NodeId(0)),
            TimingConfig::fat_tree(),
        ] {
            let costs = [
                t.ctrl_tx_ms,
                t.ctrl_service_mean_ms,
                t.resubmit_poll_ms,
                t.install_mean_ms,
            ];
            assert_eq!(
                costs,
                [
                    CTRL_TX_MS,
                    CTRL_SERVICE_MEAN_MS,
                    RESUBMIT_POLL_MS,
                    INSTALL_MEAN_MS
                ]
            );
        }
    }

    #[test]
    fn fat_tree_uses_normal_control_latency() {
        let t = TimingConfig::fat_tree();
        assert_eq!(t.control, ControlLatency::Normal);
    }

    #[test]
    fn sim_config_builders() {
        let c = SimConfig::new(TimingConfig::fat_tree(), 7).with_faults(FaultConfig {
            drop_ctrl_to_switch: 0.1,
            ..FaultConfig::NONE
        });
        assert_eq!(c.seed, 7);
        assert_eq!(c.faults.drop_ctrl_to_switch, 0.1);
    }

    #[test]
    fn ms_conversion_clamps() {
        assert_eq!(ms(-1.0).as_nanos(), 0);
        assert_eq!(ms(1.5).as_nanos(), 1_500_000);
    }
}
