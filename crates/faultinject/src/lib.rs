//! # afta-faultinject — deterministic fault injection
//!
//! The paper's experiments are driven by injected faults: the Fig. 4
//! watchdog scenario injects "a permanent design fault ... repeatedly",
//! and the §3.3 runs apply "heavy and diversified fault injection" while
//! the autonomic scheme adapts the redundancy.  This crate provides the
//! fault models and injection schedules those experiments share, all
//! deterministic under [`afta_sim::SeedFactory`] seeds.
//!
//! * [`FaultClass`] — transient / intermittent / permanent, the taxonomy
//!   the alpha-count filter discriminates between.
//! * [`Injector`] implementations — Bernoulli, periodic, burst.
//! * [`ComponentFaultModel`] — per-component failure processes with the
//!   right semantics per class (a permanent fault persists; an
//!   intermittent one recurs in windows; a transient one is memoryless).
//! * [`EnvironmentProfile`] — a piecewise-constant disturbance level over
//!   virtual time (the "simulated environmental changes" of Fig. 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observed;
pub mod trace;

pub use observed::ObservedInjector;
pub use trace::{FaultTrace, TraceEvent, TraceInjector, TraceRecorder};

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

use afta_sim::Tick;

/// The classical fault taxonomy used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Appears once and vanishes; tolerated by *redoing* (retry).
    Transient,
    /// Recurs in bursts/windows; treated like permanent by the
    /// alpha-count oracle.
    Intermittent,
    /// Persists forever once manifested; tolerated by *reconfiguration*
    /// (replacement).
    Permanent,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultClass::Transient => "transient",
            FaultClass::Intermittent => "intermittent",
            FaultClass::Permanent => "permanent",
        };
        write!(f, "{s}")
    }
}

/// A source of fault events over virtual time.
pub trait Injector: Send {
    /// Returns the class of the fault injected at `tick`, or `None` when
    /// the tick is fault-free.
    fn inject(&mut self, tick: Tick) -> Option<FaultClass>;
}

/// Memoryless injection: at every tick a fault of the configured class
/// occurs with probability `p`.
#[derive(Debug)]
pub struct BernoulliInjector {
    p: f64,
    class: FaultClass,
    rng: StdRng,
}

impl BernoulliInjector {
    /// Creates an injector firing with probability `p` per tick.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[must_use]
    pub fn new(p: f64, class: FaultClass, rng: StdRng) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        Self { p, class, rng }
    }
}

impl Injector for BernoulliInjector {
    fn inject(&mut self, _tick: Tick) -> Option<FaultClass> {
        if self.rng.gen_bool(self.p) {
            Some(self.class)
        } else {
            None
        }
    }
}

/// Deterministic periodic injection: a fault every `period` ticks,
/// starting at tick `offset` (the Fig. 4 "repeatedly injected" pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicInjector {
    period: u64,
    offset: u64,
    class: FaultClass,
}

impl PeriodicInjector {
    /// Creates a periodic injector.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn new(period: u64, offset: u64, class: FaultClass) -> Self {
        assert!(period > 0, "period must be positive");
        Self {
            period,
            offset,
            class,
        }
    }
}

impl Injector for PeriodicInjector {
    fn inject(&mut self, tick: Tick) -> Option<FaultClass> {
        if tick.0 >= self.offset && (tick.0 - self.offset).is_multiple_of(self.period) {
            Some(self.class)
        } else {
            None
        }
    }
}

/// Bursty injection: quiet periods interleaved with bursts during which
/// faults fire densely — a simple on/off (Gilbert) process.
#[derive(Debug)]
pub struct BurstInjector {
    /// Probability of entering a burst per quiet tick.
    start_p: f64,
    /// Probability of leaving the burst per bursty tick.
    stop_p: f64,
    /// Fault probability inside a burst.
    in_burst_p: f64,
    class: FaultClass,
    bursting: bool,
    rng: StdRng,
}

impl BurstInjector {
    /// Creates a burst injector.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    #[must_use]
    pub fn new(start_p: f64, stop_p: f64, in_burst_p: f64, class: FaultClass, rng: StdRng) -> Self {
        for (name, p) in [
            ("start_p", start_p),
            ("stop_p", stop_p),
            ("in_burst_p", in_burst_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1]");
        }
        Self {
            start_p,
            stop_p,
            in_burst_p,
            class,
            bursting: false,
            rng,
        }
    }

    /// Whether the injector is currently inside a burst.
    #[must_use]
    pub fn is_bursting(&self) -> bool {
        self.bursting
    }
}

impl Injector for BurstInjector {
    fn inject(&mut self, _tick: Tick) -> Option<FaultClass> {
        if self.bursting {
            if self.rng.gen_bool(self.stop_p) {
                self.bursting = false;
            }
        } else if self.rng.gen_bool(self.start_p) {
            self.bursting = true;
        }
        if self.bursting && self.rng.gen_bool(self.in_burst_p) {
            Some(self.class)
        } else {
            None
        }
    }
}

/// A per-component failure process honouring each class's semantics:
///
/// * **permanent** — once the underlying injector fires, the component
///   fails at every subsequent activation;
/// * **intermittent** — after the injector fires, the component fails for
///   `window` ticks, then recovers until the injector fires again;
/// * **transient** — the component fails exactly at the tick the injector
///   fires.
#[derive(Debug)]
pub struct ComponentFaultModel<I> {
    injector: I,
    window: u64,
    faulty_until: Option<Tick>,
    permanent_since: Option<Tick>,
}

impl<I: Injector> ComponentFaultModel<I> {
    /// Wraps `injector`; `window` is the intermittent failure window in
    /// ticks.
    #[must_use]
    pub fn new(injector: I, window: u64) -> Self {
        Self {
            injector,
            window,
            faulty_until: None,
            permanent_since: None,
        }
    }

    /// Whether the component misbehaves at `tick`.  Call once per tick, in
    /// tick order.
    pub fn is_faulty_at(&mut self, tick: Tick) -> bool {
        if let Some(since) = self.permanent_since {
            debug_assert!(tick >= since);
            return true;
        }
        if let Some(class) = self.injector.inject(tick) {
            match class {
                FaultClass::Permanent => {
                    self.permanent_since = Some(tick);
                    return true;
                }
                FaultClass::Intermittent => {
                    self.faulty_until = Some(tick.after(self.window));
                    return true;
                }
                FaultClass::Transient => return true,
            }
        }
        self.faulty_until.is_some_and(|until| tick < until)
    }

    /// The tick the component turned permanently faulty, if it has.
    #[must_use]
    pub fn permanent_since(&self) -> Option<Tick> {
        self.permanent_since
    }

    /// Repairs the component (models replacement by reconfiguration).
    pub fn repair(&mut self) {
        self.permanent_since = None;
        self.faulty_until = None;
    }
}

/// One phase of an environment profile: `duration` ticks during which each
/// exposure (e.g. each replica each round) fails with `fault_probability`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase length in ticks.
    pub duration: u64,
    /// Per-exposure fault probability during the phase.
    pub fault_probability: f64,
}

impl Phase {
    /// Creates a phase.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0` or the probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(duration: u64, fault_probability: f64) -> Self {
        assert!(duration > 0, "phase duration must be positive");
        assert!(
            (0.0..=1.0).contains(&fault_probability),
            "fault probability must be in [0,1]"
        );
        Self {
            duration,
            fault_probability,
        }
    }
}

/// A piecewise-constant disturbance level over virtual time — the
/// "simulated environmental changes" that drive Fig. 6.
///
/// When `cyclic` the phase sequence repeats forever; otherwise the last
/// phase's probability holds after the sequence ends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvironmentProfile {
    phases: Vec<Phase>,
    cyclic: bool,
}

impl EnvironmentProfile {
    /// Creates a profile from phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    #[must_use]
    pub fn new(phases: Vec<Phase>, cyclic: bool) -> Self {
        assert!(!phases.is_empty(), "profile needs at least one phase");
        Self { phases, cyclic }
    }

    /// A permanently calm environment with background probability `p`.
    #[must_use]
    pub fn calm(p: f64) -> Self {
        Self::new(vec![Phase::new(1, p)], true)
    }

    /// The Fig. 6 shape: calm, then a disturbance storm, then calm again.
    #[must_use]
    pub fn calm_storm_calm(calm_len: u64, storm_len: u64, calm_p: f64, storm_p: f64) -> Self {
        Self::new(
            vec![
                Phase::new(calm_len, calm_p),
                Phase::new(storm_len, storm_p),
                Phase::new(calm_len, calm_p),
            ],
            false,
        )
    }

    /// A repeating calm/storm cycle (the long-run Fig. 7 environment).
    #[must_use]
    pub fn cyclic_storms(calm_len: u64, storm_len: u64, calm_p: f64, storm_p: f64) -> Self {
        Self::new(
            vec![Phase::new(calm_len, calm_p), Phase::new(storm_len, storm_p)],
            true,
        )
    }

    /// Total length of one pass through the phases.
    #[must_use]
    pub fn cycle_length(&self) -> u64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The per-exposure fault probability at `tick`.
    #[must_use]
    pub fn probability_at(&self, tick: Tick) -> f64 {
        self.phase_at(tick).0
    }

    /// The per-exposure fault probability at `tick`, and the first tick
    /// after it at which the probability may change: the end of
    /// `tick`'s phase, or `Tick(u64::MAX)` past a non-cyclic profile's
    /// end and where the end would overflow.  Every tick from `tick`
    /// up to (not including) that end has the probability
    /// [`probability_at`](Self::probability_at) gives `tick`, so a
    /// loop over consecutive ticks walks the phases once per phase.
    #[must_use]
    pub fn phase_at(&self, tick: Tick) -> (f64, Tick) {
        let cycle = self.cycle_length();
        let last = self.phases[self.phases.len() - 1].fault_probability;
        let offset = if self.cyclic {
            tick.0 % cycle
        } else if tick.0 >= cycle {
            // Past the end of a non-cyclic profile: last phase holds.
            return (last, Tick(u64::MAX));
        } else {
            tick.0
        };
        let mut phase_end = 0u64;
        for phase in &self.phases {
            phase_end += phase.duration;
            if offset < phase_end {
                let end = tick.0.saturating_add(phase_end - offset);
                return (phase.fault_probability, Tick(end));
            }
        }
        // Unreachable: offset < cycle and the loop covers the whole cycle.
        (last, Tick(tick.0.saturating_add(1)))
    }

    /// Draws whether one exposure at `tick` fails, using `rng`.
    pub fn draw(&self, tick: Tick, rng: &mut StdRng) -> bool {
        let p = self.probability_at(tick);
        p > 0.0 && rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afta_sim::SeedFactory;

    fn rng(name: &str) -> StdRng {
        SeedFactory::new(42).stream(name)
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let mut inj = BernoulliInjector::new(0.1, FaultClass::Transient, rng("b"));
        let fired = (0..10_000)
            .filter(|&t| inj.inject(Tick(t)).is_some())
            .count();
        assert!((800..1200).contains(&fired), "fired={fired}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = BernoulliInjector::new(0.0, FaultClass::Transient, rng("n"));
        let mut always = BernoulliInjector::new(1.0, FaultClass::Permanent, rng("a"));
        assert_eq!(never.inject(Tick(1)), None);
        assert_eq!(always.inject(Tick(1)), Some(FaultClass::Permanent));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bernoulli_validates_p() {
        let _ = BernoulliInjector::new(1.5, FaultClass::Transient, rng("x"));
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let mut inj = PeriodicInjector::new(5, 2, FaultClass::Permanent);
        let fired: Vec<u64> = (0..20).filter(|&t| inj.inject(Tick(t)).is_some()).collect();
        assert_eq!(fired, vec![2, 7, 12, 17]);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn periodic_validates_period() {
        let _ = PeriodicInjector::new(0, 0, FaultClass::Transient);
    }

    #[test]
    fn burst_injector_produces_clusters() {
        let mut inj = BurstInjector::new(0.01, 0.1, 0.8, FaultClass::Transient, rng("burst"));
        let fired: Vec<bool> = (0..50_000).map(|t| inj.inject(Tick(t)).is_some()).collect();
        let total: usize = fired.iter().filter(|&&b| b).count();
        assert!(
            total > 100,
            "bursts should produce many faults, got {total}"
        );
        // Clustering: probability of a fault right after a fault should be
        // much higher than the marginal rate.
        let after_fault =
            fired.windows(2).filter(|w| w[0] && w[1]).count() as f64 / total.max(1) as f64;
        let marginal = total as f64 / fired.len() as f64;
        assert!(
            after_fault > 3.0 * marginal,
            "after_fault={after_fault} marginal={marginal}"
        );
    }

    #[test]
    fn component_model_transient_is_memoryless() {
        let inj = PeriodicInjector::new(10, 0, FaultClass::Transient);
        let mut m = ComponentFaultModel::new(inj, 5);
        assert!(m.is_faulty_at(Tick(0)));
        assert!(!m.is_faulty_at(Tick(1)));
        assert!(m.is_faulty_at(Tick(10)));
    }

    #[test]
    fn component_model_permanent_persists() {
        let inj = PeriodicInjector::new(1000, 3, FaultClass::Permanent);
        let mut m = ComponentFaultModel::new(inj, 5);
        assert!(!m.is_faulty_at(Tick(2)));
        assert!(m.is_faulty_at(Tick(3)));
        for t in 4..50 {
            assert!(m.is_faulty_at(Tick(t)));
        }
        assert_eq!(m.permanent_since(), Some(Tick(3)));
        m.repair();
        assert!(!m.is_faulty_at(Tick(60)));
    }

    #[test]
    fn component_model_intermittent_window() {
        let inj = PeriodicInjector::new(100, 10, FaultClass::Intermittent);
        let mut m = ComponentFaultModel::new(inj, 5);
        assert!(!m.is_faulty_at(Tick(9)));
        assert!(m.is_faulty_at(Tick(10)));
        assert!(m.is_faulty_at(Tick(12)));
        assert!(m.is_faulty_at(Tick(14)));
        assert!(!m.is_faulty_at(Tick(15))); // window closed
        assert!(m.is_faulty_at(Tick(110))); // next occurrence
    }

    #[test]
    fn profile_phase_lookup() {
        let p = EnvironmentProfile::calm_storm_calm(100, 50, 0.001, 0.5);
        assert_eq!(p.cycle_length(), 250);
        assert_eq!(p.probability_at(Tick(0)), 0.001);
        assert_eq!(p.probability_at(Tick(99)), 0.001);
        assert_eq!(p.probability_at(Tick(100)), 0.5);
        assert_eq!(p.probability_at(Tick(149)), 0.5);
        assert_eq!(p.probability_at(Tick(150)), 0.001);
        // Non-cyclic: past the end the last phase holds.
        assert_eq!(p.probability_at(Tick(10_000)), 0.001);
    }

    #[test]
    fn cyclic_profile_wraps() {
        let p = EnvironmentProfile::cyclic_storms(10, 5, 0.0, 1.0);
        assert_eq!(p.probability_at(Tick(0)), 0.0);
        assert_eq!(p.probability_at(Tick(10)), 1.0);
        assert_eq!(p.probability_at(Tick(14)), 1.0);
        assert_eq!(p.probability_at(Tick(15)), 0.0);
        assert_eq!(p.probability_at(Tick(25)), 1.0); // wrapped
    }

    /// Checks [`EnvironmentProfile::phase_at`] from every tick of
    /// `ticks`: its probability is `probability_at`'s on each tick up to
    /// the change point (the first 64 of them), the change point lies
    /// past the tick unless it saturated, and `probability_at` differs
    /// there when the profile has phases to change between and the walk
    /// neither saturates nor runs off a non-cyclic end (every profile
    /// below gives neighbouring phases distinct probabilities).
    fn assert_walk_agrees(profile: &EnvironmentProfile, ticks: impl IntoIterator<Item = u64>) {
        for tick in ticks {
            let (p, end) = profile.phase_at(Tick(tick));
            assert_eq!(p.to_bits(), profile.probability_at(Tick(tick)).to_bits());
            assert!(end.0 > tick || end.0 == u64::MAX, "{tick} -> {end}");
            let mut t = tick;
            while t < end.0 && t - tick < 64 {
                let here = profile.probability_at(Tick(t));
                assert_eq!(here.to_bits(), p.to_bits(), "tick {t} from {tick}");
                t += 1;
            }
            let ran_off = !profile.cyclic && end.0 >= profile.cycle_length();
            if profile.phases.len() > 1 && end.0 != u64::MAX && !ran_off {
                assert_ne!(
                    profile.probability_at(end),
                    p,
                    "change at {end} from {tick}"
                );
            }
        }
    }

    #[test]
    fn phase_walk_agrees_with_probability_at_up_to_its_change_point() {
        let near_max = u64::MAX - 40..=u64::MAX;
        // Cyclic, with one-tick phases and a wrap at the cycle's end.
        let cyclic = EnvironmentProfile::new(
            vec![
                Phase::new(1, 0.0),
                Phase::new(3, 0.5),
                Phase::new(1, 1.0),
                Phase::new(2, 0.25),
            ],
            true,
        );
        assert_walk_agrees(&cyclic, (0..40).chain(near_max.clone()));
        // One one-tick phase: every tick is a change point.
        assert_walk_agrees(&EnvironmentProfile::calm(0.01), [0, 1, 7, u64::MAX]);
        assert_eq!(
            EnvironmentProfile::calm(0.01).phase_at(Tick(7)),
            (0.01, Tick(8))
        );
        // u64::MAX is a multiple of 15: the last tick starts a calm phase
        // whose end saturates.
        let storms = EnvironmentProfile::cyclic_storms(10, 5, 0.0, 1.0);
        assert_walk_agrees(&storms, near_max.clone());
        assert_eq!(storms.phase_at(Tick(u64::MAX)), (0.0, Tick(u64::MAX)));
        assert_eq!(storms.phase_at(Tick(u64::MAX - 1)), (1.0, Tick(u64::MAX)));
        // Non-cyclic: the last phase holds past the end, for ever.
        let once = EnvironmentProfile::calm_storm_calm(3, 2, 0.001, 0.5);
        assert_walk_agrees(&once, (0..20).chain(near_max.clone()));
        assert_eq!(once.phase_at(Tick(4)), (0.5, Tick(5)));
        assert_eq!(once.phase_at(Tick(6)), (0.001, Tick(8)));
        assert_eq!(once.phase_at(Tick(8)), (0.001, Tick(u64::MAX)));
        // Phases as long as the tick range: a non-cyclic profile ending
        // just short of u64::MAX, and a cyclic one of cycle u64::MAX - 1.
        let long = EnvironmentProfile::new(
            vec![Phase::new(u64::MAX - 10, 0.1), Phase::new(5, 0.2)],
            false,
        );
        assert_walk_agrees(&long, (0..5).chain(near_max.clone()));
        assert_eq!(long.phase_at(Tick(0)), (0.1, Tick(u64::MAX - 10)));
        assert_eq!(
            long.phase_at(Tick(u64::MAX - 10)),
            (0.2, Tick(u64::MAX - 5))
        );
        let halves = EnvironmentProfile::new(
            vec![Phase::new(u64::MAX / 2, 0.1), Phase::new(u64::MAX / 2, 0.2)],
            true,
        );
        assert_walk_agrees(&halves, (0..5).chain(near_max));
        assert_eq!(halves.phase_at(Tick(u64::MAX)), (0.1, Tick(u64::MAX)));
    }

    #[test]
    fn calm_profile_is_constant() {
        let p = EnvironmentProfile::calm(0.01);
        for t in [0u64, 1, 100, 1_000_000] {
            assert_eq!(p.probability_at(Tick(t)), 0.01);
        }
    }

    #[test]
    fn draw_respects_probability() {
        let p = EnvironmentProfile::calm(0.0);
        let mut r = rng("draw");
        assert!(!p.draw(Tick(0), &mut r));
        let p = EnvironmentProfile::calm(1.0);
        assert!(p.draw(Tick(0), &mut r));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_profile_rejected() {
        let _ = EnvironmentProfile::new(Vec::new(), false);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_phase_rejected() {
        let _ = Phase::new(0, 0.5);
    }

    #[test]
    fn fault_class_display() {
        assert_eq!(FaultClass::Transient.to_string(), "transient");
        assert_eq!(FaultClass::Intermittent.to_string(), "intermittent");
        assert_eq!(FaultClass::Permanent.to_string(), "permanent");
    }

    #[test]
    fn profile_serde_roundtrip() {
        let p = EnvironmentProfile::cyclic_storms(10, 5, 0.1, 0.9);
        let json = serde_json::to_string(&p).unwrap();
        let back: EnvironmentProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut inj = BernoulliInjector::new(
                0.3,
                FaultClass::Transient,
                SeedFactory::new(seed).stream("det"),
            );
            (0..100).map(|t| inj.inject(Tick(t)).is_some()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
