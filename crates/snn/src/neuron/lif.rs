//! Leaky integrate-and-fire neurons, plain and with adaptive threshold.

use super::NeuronModel;

/// Leaky integrate-and-fire (LIF) neuron:
///
/// ```text
/// τm · dv/dt = −(v − v_rest) + I
/// if v ≥ v_th:  spike, v ← v_reset, refractory for `refractory` ms
/// ```
///
/// Used as the liquid neuron of the heartbeat-estimation LSM and the
/// inhibitory population of the digit-recognition network.
#[derive(Debug, Clone, PartialEq)]
pub struct Lif {
    tau_m: f32,
    v_rest: f32,
    v_th: f32,
    v_reset: f32,
    refractory: f32,
    v: f32,
    refr_left: f32,
}

impl Lif {
    /// Creates a LIF neuron at rest.
    ///
    /// # Panics
    ///
    /// Panics if `tau_m <= 0` or `v_th <= v_reset` (a neuron that could fire
    /// forever within one step).
    pub fn new(tau_m: f32, v_rest: f32, v_th: f32, v_reset: f32, refractory: f32) -> Self {
        assert!(tau_m > 0.0, "membrane time constant must be positive");
        assert!(v_th > v_reset, "threshold must exceed reset potential");
        Self {
            tau_m,
            v_rest,
            v_th,
            v_reset,
            refractory,
            v: v_rest,
            refr_left: 0.0,
        }
    }

    /// The (static) firing threshold in mV.
    pub fn threshold(&self) -> f32 {
        self.v_th
    }

    /// Whether the neuron is inside its refractory window.
    pub fn is_refractory(&self) -> bool {
        self.refr_left > 0.0
    }

    /// Steps the membrane given an *effective* threshold (used by
    /// [`AdaptiveLif`] to inject threshold adaptation).
    fn step_with_threshold(&mut self, i_syn: f32, dt: f32, v_th: f32) -> bool {
        if self.refr_left > 0.0 {
            self.refr_left -= dt;
            self.v = self.v_reset;
            return false;
        }
        self.v += dt / self.tau_m * (-(self.v - self.v_rest) + i_syn);
        if self.v >= v_th {
            self.v = self.v_reset;
            self.refr_left = self.refractory;
            true
        } else {
            false
        }
    }
}

impl NeuronModel for Lif {
    fn step(&mut self, i_syn: f32, dt: f32) -> bool {
        let th = self.v_th;
        self.step_with_threshold(i_syn, dt, th)
    }

    fn reset(&mut self) {
        self.v = self.v_rest;
        self.refr_left = 0.0;
    }

    fn potential(&self) -> f32 {
        self.v
    }
}

/// LIF neuron with an adaptive threshold `θ`:
///
/// ```text
/// effective threshold = v_th + θ
/// on spike:  θ ← θ + θ₊
/// always:    τθ · dθ/dt = −θ
/// ```
///
/// This is the homeostatic mechanism of Diehl & Cook's unsupervised
/// digit-recognition network: neurons that fire often raise their own
/// threshold, forcing selectivity across the population.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveLif {
    base: Lif,
    theta: f32,
    theta_plus: f32,
    tau_theta: f32,
}

impl AdaptiveLif {
    /// Wraps a [`Lif`] with threshold adaptation.
    ///
    /// # Panics
    ///
    /// Panics if `tau_theta <= 0`.
    pub fn new(base: Lif, theta_plus: f32, tau_theta: f32) -> Self {
        assert!(tau_theta > 0.0, "theta time constant must be positive");
        Self {
            base,
            theta: 0.0,
            theta_plus,
            tau_theta,
        }
    }

    /// Current effective threshold in mV.
    pub fn effective_threshold(&self) -> f32 {
        self.base.threshold() + self.theta
    }
}

impl NeuronModel for AdaptiveLif {
    fn step(&mut self, i_syn: f32, dt: f32) -> bool {
        self.theta -= dt / self.tau_theta * self.theta;
        let th = self.base.threshold() + self.theta;
        let fired = self.base.step_with_threshold(i_syn, dt, th);
        if fired {
            self.theta += self.theta_plus;
        }
        fired
    }

    fn reset(&mut self) {
        self.base.reset();
        self.theta = 0.0;
    }

    fn potential(&self) -> f32 {
        self.base.potential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_lif() -> Lif {
        Lif::new(20.0, -65.0, -52.0, -65.0, 2.0)
    }

    #[test]
    fn integrates_toward_drive() {
        let mut n = default_lif();
        n.step(5.0, 1.0);
        assert!(n.potential() > -65.0);
    }

    #[test]
    fn subthreshold_drive_never_fires() {
        let mut n = default_lif();
        // steady state v = v_rest + I = -65 + 12 = -53 < -52
        for _ in 0..5000 {
            assert!(!n.step(12.0, 1.0));
        }
    }

    #[test]
    fn suprathreshold_drive_fires_and_resets() {
        let mut n = default_lif();
        let mut fired = false;
        for _ in 0..200 {
            if n.step(20.0, 1.0) {
                fired = true;
                assert_eq!(n.potential(), -65.0);
                assert!(n.is_refractory());
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn refractory_blocks_firing() {
        let mut n = Lif::new(5.0, -65.0, -60.0, -65.0, 10.0);
        // drive hard until first spike
        while !n.step(100.0, 1.0) {}
        // within the 10 ms refractory window no spike may occur
        for _ in 0..9 {
            assert!(!n.step(100.0, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "threshold must exceed reset")]
    fn invalid_threshold_panics() {
        let _ = Lif::new(20.0, -65.0, -70.0, -65.0, 2.0);
    }

    #[test]
    fn adaptive_threshold_rises_with_activity() {
        let mut n = AdaptiveLif::new(default_lif(), 1.0, 1e4);
        let mut spikes = 0;
        for _ in 0..500 {
            if n.step(40.0, 1.0) {
                spikes += 1;
            }
        }
        assert!(spikes > 0);
        assert!(n.effective_threshold() > -52.0);
    }

    #[test]
    fn adaptation_slows_firing() {
        let mut plain = default_lif();
        let mut adaptive = AdaptiveLif::new(default_lif(), 2.0, 1e5);
        let fires = |m: &mut dyn NeuronModel| (0..2000).filter(|_| m.step(40.0, 1.0)).count();
        let n_plain = fires(&mut plain);
        let n_adapt = fires(&mut adaptive);
        assert!(
            n_adapt < n_plain,
            "adaptation should reduce rate: {n_adapt} !< {n_plain}"
        );
    }

    #[test]
    fn theta_decays_back() {
        let mut n = AdaptiveLif::new(default_lif(), 5.0, 50.0);
        let theta = |n: &AdaptiveLif| n.effective_threshold() - default_lif().threshold();
        while !n.step(60.0, 1.0) {}
        let peak = theta(&n);
        for _ in 0..500 {
            n.step(0.0, 1.0);
        }
        assert!(theta(&n) < peak * 0.01);
    }
}
