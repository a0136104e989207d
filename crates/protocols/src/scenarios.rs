//! Ready-made [`Scenario`]s wiring every protocol to the fairness
//! estimator — the experiment layer of the reproduction.
//!
//! Each protocol gets one scenario type with a strategy enum; the sweep
//! constructors (`*_sweep`) return the strategy library over which
//! `fair_core::best_of` computes the empirical `sup_A u_A(Π, A)`.
//!
//! [`Scenario`]: fair_core::Scenario

use fair_core::strategy::{
    any_output, differs_from_any, CorruptionPlan, HonestUntilRound, LockAndAbort, RunHonestly,
};
use fair_core::{HonestCriterion, Scenario, Trial};
use fair_runtime::{Adversary, Instance, Passive, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::coin_toss::{coin_toss_instance, CoinMsg};
use crate::contract::{contract_keys, contract_truth, pi1_instance, pi2_instance, ContractMsg};
use crate::gmw_half::{gmw_half_instance, HalfCoalition, HalfMsg};
use crate::gordon_katz::{gk_instance, AbortRule, GkAttack, GkConfig, GkMsg};
use crate::one_round::{one_round_instance, OneRoundMsg, OneRoundRusher};
use crate::opt2::{opt2_instance, swap_fn, Opt2Msg};
use crate::optn::{concat_fn, optn_instance, OptnMsg};

/// Attack strategies available against every protocol scenario here.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// No corruption (the honest baseline, E₀₁).
    NoCorruption,
    /// Corrupt per plan and lock-and-abort (A₁/A₂/A_gen/A_ī family).
    LockAbort(CorruptionPlan),
    /// Corrupt per plan, run honestly until the given engine round, then
    /// go silent.
    AbortAtRound(CorruptionPlan, usize),
    /// Corrupt per plan and follow the protocol to the end.
    Honest(CorruptionPlan),
}

impl Strategy {
    fn label(&self) -> String {
        match self {
            Strategy::NoCorruption => "no-corruption".into(),
            Strategy::LockAbort(p) => format!("lock-abort({p:?})"),
            Strategy::AbortAtRound(p, r) => format!("abort@{r}({p:?})"),
            Strategy::Honest(p) => format!("honest({p:?})"),
        }
    }

    fn build<M: Clone + core::fmt::Debug + 'static>(
        &self,
        is_real: fair_core::strategy::IsReal,
    ) -> Box<dyn Adversary<M>> {
        match self {
            Strategy::NoCorruption => Box::new(Passive),
            Strategy::LockAbort(plan) => Box::new(LockAndAbort::new(plan.clone(), is_real)),
            Strategy::AbortAtRound(plan, r) => {
                Box::new(HonestUntilRound::new(plan.clone(), *r, is_real))
            }
            Strategy::Honest(plan) => Box::new(RunHonestly::new(plan.clone(), is_real)),
        }
    }
}

/// The standard two-party strategy sweep.
pub fn two_party_sweep() -> Vec<Strategy> {
    let mut out = vec![
        Strategy::NoCorruption,
        Strategy::LockAbort(CorruptionPlan::Fixed(vec![0])),
        Strategy::LockAbort(CorruptionPlan::Fixed(vec![1])),
        Strategy::LockAbort(CorruptionPlan::RandomSingleton),
        Strategy::Honest(CorruptionPlan::Fixed(vec![0])),
        Strategy::Honest(CorruptionPlan::Fixed(vec![1])),
    ];
    for r in 0..8 {
        out.push(Strategy::AbortAtRound(CorruptionPlan::Fixed(vec![0]), r));
        out.push(Strategy::AbortAtRound(CorruptionPlan::Fixed(vec![1]), r));
    }
    out
}

/// The multi-party strategy sweep for a t-adversary.
pub fn t_adversary_sweep(n: usize, t: usize) -> Vec<Strategy> {
    assert!(t >= 1 && t < n);
    let mut out = vec![
        Strategy::LockAbort(CorruptionPlan::RandomSubset(t)),
        Strategy::LockAbort(CorruptionPlan::Fixed((0..t).collect())),
        Strategy::Honest(CorruptionPlan::RandomSubset(t)),
    ];
    for r in 0..6 {
        out.push(Strategy::AbortAtRound(
            CorruptionPlan::Fixed((0..t).collect()),
            r,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Π1 / Π2 (contract signing)
// ---------------------------------------------------------------------------

/// A contract-signing scenario.
pub struct ContractScenario {
    /// Use Π2 (coin-tossed order) instead of Π1 (fixed order).
    pub pi2: bool,
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for ContractScenario {
    type Msg = ContractMsg;

    fn name(&self) -> String {
        format!(
            "{}/{}",
            if self.pi2 { "Pi2" } else { "Pi1" },
            self.strategy.label()
        )
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<ContractMsg> {
        let keys = contract_keys(rng);
        let truth = contract_truth(b"the contract", &keys);
        let instance = if self.pi2 {
            pi2_instance(b"the contract", &keys, rng)
        } else {
            pi1_instance(b"the contract", &keys, rng)
        };
        Trial {
            instance,
            adversary: self.strategy.build(any_output()),
            truth: Some(truth),
            max_rounds: 20,
        }
    }
}

/// The full strategy sweep against Π1 or Π2.
pub fn contract_sweep(pi2: bool) -> Vec<ContractScenario> {
    two_party_sweep()
        .into_iter()
        .map(|strategy| ContractScenario { pi2, strategy })
        .collect()
}

// ---------------------------------------------------------------------------
// Blum coin toss
// ---------------------------------------------------------------------------

/// A Blum commit-then-open coin-toss scenario.
///
/// The coin toss has no secret the adversary could "learn" ahead of the
/// honest party (the XOR is undetermined until both openings are on the
/// wire), so `truth` is pinned to ⊥ — classification reduces to tracking
/// whether the honest party completed (E₀₁) or aborted (E₀₀). That makes
/// this the cheapest named protocol in the workspace, which is exactly what
/// the `fair-trace` CLI and CI selfcheck want in a record/replay target.
pub struct CoinTossScenario {
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for CoinTossScenario {
    type Msg = CoinMsg;

    fn name(&self) -> String {
        format!("CoinToss/{}", self.strategy.label())
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<CoinMsg> {
        Trial {
            instance: coin_toss_instance(rng),
            adversary: self.strategy.build(any_output()),
            truth: Some(Value::Bot),
            max_rounds: 10,
        }
    }
}

/// The strategy sweep against the coin toss (small on purpose: the
/// completion/abort split is visible under any of these).
pub fn coin_toss_sweep() -> Vec<CoinTossScenario> {
    let mut out = vec![
        CoinTossScenario {
            strategy: Strategy::NoCorruption,
        },
        CoinTossScenario {
            strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![0])),
        },
        CoinTossScenario {
            strategy: Strategy::Honest(CorruptionPlan::Fixed(vec![0])),
        },
    ];
    for r in 0..3 {
        out.push(CoinTossScenario {
            strategy: Strategy::AbortAtRound(CorruptionPlan::Fixed(vec![0]), r),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Π^Opt_2SFE
// ---------------------------------------------------------------------------

/// A Π^Opt_2SFE scenario on the swap function with random inputs.
pub struct Opt2Scenario {
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for Opt2Scenario {
    type Msg = Opt2Msg;

    fn name(&self) -> String {
        format!("Opt2SFE/{}", self.strategy.label())
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<Opt2Msg> {
        // Worst-case environment: random nonzero inputs so that the real
        // output differs from both default evaluations.
        let x1 = rng.random_range(1u64..1 << 30);
        let x2 = rng.random_range(1u64..1 << 30);
        let instance = opt2_instance(
            "swap",
            swap_fn(),
            [Value::Scalar(x1), Value::Scalar(x2)],
            [Value::Scalar(0), Value::Scalar(0)],
        );
        let defaults = vec![
            Value::pair(Value::Scalar(0), Value::Scalar(x1)), // f(x1, d2)
            Value::pair(Value::Scalar(x2), Value::Scalar(0)), // f(d1, x2)
        ];
        Trial {
            instance,
            adversary: self.strategy.build(differs_from_any(defaults)),
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The full strategy sweep against Π^Opt_2SFE.
pub fn opt2_sweep() -> Vec<Opt2Scenario> {
    two_party_sweep()
        .into_iter()
        .map(|strategy| Opt2Scenario { strategy })
        .collect()
}

/// Π^Opt_2SFE with a *biased* designated-party choice (Pr[i* = 1] = q):
/// the designer's deviation in the RPD attack game, used by experiment
/// E15 to show q = 1/2 is the minimax optimum.
pub struct BiasedOpt2Scenario {
    /// Pr[i* = 1].
    pub q: f64,
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for BiasedOpt2Scenario {
    type Msg = Opt2Msg;

    fn name(&self) -> String {
        format!("Opt2SFE(q={})/{}", self.q, self.strategy.label())
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<Opt2Msg> {
        let x1 = rng.random_range(1u64..1 << 30);
        let x2 = rng.random_range(1u64..1 << 30);
        let instance = crate::opt2::opt2_instance_biased(
            "swap",
            swap_fn(),
            [Value::Scalar(x1), Value::Scalar(x2)],
            [Value::Scalar(0), Value::Scalar(0)],
            self.q,
        );
        let defaults = vec![
            Value::pair(Value::Scalar(0), Value::Scalar(x1)),
            Value::pair(Value::Scalar(x2), Value::Scalar(0)),
        ];
        Trial {
            instance,
            adversary: self.strategy.build(differs_from_any(defaults)),
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The strategy sweep against the biased protocol (only the lock-abort
/// strategies matter for the minimax question).
pub fn biased_opt2_sweep(q: f64) -> Vec<BiasedOpt2Scenario> {
    vec![
        BiasedOpt2Scenario {
            q,
            strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![0])),
        },
        BiasedOpt2Scenario {
            q,
            strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![1])),
        },
        BiasedOpt2Scenario {
            q,
            strategy: Strategy::Honest(CorruptionPlan::Fixed(vec![0])),
        },
    ]
}

// ---------------------------------------------------------------------------
// Π^Opt_nSFE
// ---------------------------------------------------------------------------

/// A Π^Opt_nSFE scenario on the concatenation function.
pub struct OptnScenario {
    /// Number of parties.
    pub n: usize,
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for OptnScenario {
    type Msg = OptnMsg;

    fn name(&self) -> String {
        format!("OptnSFE(n={})/{}", self.n, self.strategy.label())
    }

    fn n(&self) -> usize {
        self.n
    }

    fn build(&self, rng: &mut StdRng) -> Trial<OptnMsg> {
        let inputs: Vec<Value> = (0..self.n)
            .map(|_| Value::Scalar(rng.random_range(0..1 << 30)))
            .collect();
        let instance = optn_instance("concat", concat_fn(), inputs);
        Trial {
            instance,
            adversary: self.strategy.build(any_output()),
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The t-adversary sweep against Π^Opt_nSFE.
pub fn optn_sweep(n: usize, t: usize) -> Vec<OptnScenario> {
    t_adversary_sweep(n, t)
        .into_iter()
        .map(|strategy| OptnScenario { n, strategy })
        .collect()
}

// ---------------------------------------------------------------------------
// The one-reconstruction-round strawman
// ---------------------------------------------------------------------------

/// Strategy selector for the strawman protocol.
#[derive(Clone, Debug)]
pub enum OneRoundStrategy {
    /// The Lemma 10 rushing attack on the given party.
    Rusher(usize),
    /// A generic library strategy.
    Generic(Strategy),
}

/// A strawman-protocol scenario.
pub struct OneRoundScenario {
    /// The attack.
    pub strategy: OneRoundStrategy,
}

impl Scenario for OneRoundScenario {
    type Msg = OneRoundMsg;

    fn name(&self) -> String {
        match &self.strategy {
            OneRoundStrategy::Rusher(t) => format!("OneRound/rusher(p{})", t + 1),
            OneRoundStrategy::Generic(s) => format!("OneRound/{}", s.label()),
        }
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<OneRoundMsg> {
        let x1 = rng.random_range(1u64..1 << 30);
        let x2 = rng.random_range(1u64..1 << 30);
        let instance =
            one_round_instance("swap", swap_fn(), [Value::Scalar(x1), Value::Scalar(x2)]);
        let adversary: Box<dyn Adversary<OneRoundMsg>> = match &self.strategy {
            OneRoundStrategy::Rusher(t) => Box::new(OneRoundRusher::new(*t)),
            OneRoundStrategy::Generic(s) => s.build(any_output()),
        };
        Trial {
            instance,
            adversary,
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The sweep against the strawman (rushers plus the generic library).
pub fn one_round_sweep() -> Vec<OneRoundScenario> {
    let mut out = vec![
        OneRoundScenario {
            strategy: OneRoundStrategy::Rusher(0),
        },
        OneRoundScenario {
            strategy: OneRoundStrategy::Rusher(1),
        },
    ];
    out.extend(two_party_sweep().into_iter().map(|s| OneRoundScenario {
        strategy: OneRoundStrategy::Generic(s),
    }));
    out
}

// ---------------------------------------------------------------------------
// Π^{1/2}_GMW
// ---------------------------------------------------------------------------

/// Strategy selector for Π^{1/2}_GMW.
#[derive(Clone, Debug)]
pub enum HalfStrategy {
    /// The rushing learn-and-withhold coalition of the given size.
    Coalition(usize),
    /// A generic library strategy.
    Generic(Strategy),
}

/// A Π^{1/2}_GMW scenario on the concatenation function.
pub struct HalfScenario {
    /// Number of parties.
    pub n: usize,
    /// The attack.
    pub strategy: HalfStrategy,
}

impl Scenario for HalfScenario {
    type Msg = HalfMsg;

    fn name(&self) -> String {
        match &self.strategy {
            HalfStrategy::Coalition(t) => format!("GMW-1/2(n={})/coalition({t})", self.n),
            HalfStrategy::Generic(s) => format!("GMW-1/2(n={})/{}", self.n, s.label()),
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn build(&self, rng: &mut StdRng) -> Trial<HalfMsg> {
        let inputs: Vec<Value> = (0..self.n)
            .map(|_| Value::Scalar(rng.random_range(0..1 << 30)))
            .collect();
        let instance = gmw_half_instance("concat", concat_fn(), inputs);
        let adversary: Box<dyn Adversary<HalfMsg>> = match &self.strategy {
            HalfStrategy::Coalition(t) => Box::new(HalfCoalition::new((0..*t).collect())),
            HalfStrategy::Generic(s) => s.build(any_output()),
        };
        Trial {
            instance,
            adversary,
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The t-adversary sweep against Π^{1/2}_GMW.
pub fn gmw_half_sweep(n: usize, t: usize) -> Vec<HalfScenario> {
    let mut out = vec![HalfScenario {
        n,
        strategy: HalfStrategy::Coalition(t),
    }];
    out.extend(t_adversary_sweep(n, t).into_iter().map(|s| HalfScenario {
        n,
        strategy: HalfStrategy::Generic(s),
    }));
    out
}

// ---------------------------------------------------------------------------
// The artificial (Lemma 18) protocol
// ---------------------------------------------------------------------------

/// Strategy selector for the Lemma 18 protocol.
#[derive(Clone, Debug)]
pub enum ArtStrategy {
    /// The "vote 1" single-party attack on the given party.
    VoteOne(usize),
    /// A generic library strategy.
    Generic(Strategy),
}

/// An artificial-protocol scenario.
pub struct ArtScenario {
    /// Number of parties.
    pub n: usize,
    /// The attack.
    pub strategy: ArtStrategy,
}

impl Scenario for ArtScenario {
    type Msg = crate::artificial::ArtMsg;

    fn name(&self) -> String {
        match &self.strategy {
            ArtStrategy::VoteOne(t) => format!("Artificial(n={})/vote-one(p{})", self.n, t + 1),
            ArtStrategy::Generic(s) => format!("Artificial(n={})/{}", self.n, s.label()),
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn build(&self, rng: &mut StdRng) -> Trial<crate::artificial::ArtMsg> {
        let inputs: Vec<Value> = (0..self.n)
            .map(|_| Value::Scalar(rng.random_range(0..1 << 30)))
            .collect();
        let mut inst_rng = StdRng::seed_from_u64(rng.random());
        let instance =
            crate::artificial::artificial_instance("concat", concat_fn(), inputs, &mut inst_rng);
        let adversary: Box<dyn Adversary<crate::artificial::ArtMsg>> = match &self.strategy {
            ArtStrategy::VoteOne(t) => Box::new(crate::artificial::VoteOneAttack::new(*t)),
            ArtStrategy::Generic(s) => s.build(any_output()),
        };
        Trial {
            instance,
            adversary,
            truth: None,
            max_rounds: 40,
        }
    }
}

/// The t-adversary sweep against the artificial protocol.
pub fn artificial_sweep(n: usize, t: usize) -> Vec<ArtScenario> {
    let mut out: Vec<ArtScenario> = Vec::new();
    if t == 1 {
        out.push(ArtScenario {
            n,
            strategy: ArtStrategy::VoteOne(0),
        });
    }
    out.extend(t_adversary_sweep(n, t).into_iter().map(|s| ArtScenario {
        n,
        strategy: ArtStrategy::Generic(s),
    }));
    out
}

// ---------------------------------------------------------------------------
// Gordon–Katz
// ---------------------------------------------------------------------------

/// A Gordon–Katz scenario computing AND on random bits, classified under
/// the strict (F^$-style) criterion.
pub struct GkScenario {
    /// The configuration (function, p, α, m).
    pub cfg: GkConfig,
    /// The abort rule of the attacking p₁.
    pub rule: AbortRule,
    /// Label for reports.
    pub label: String,
}

impl Scenario for GkScenario {
    type Msg = GkMsg;

    fn name(&self) -> String {
        format!("GK/{}", self.label)
    }

    fn n(&self) -> usize {
        2
    }

    fn criterion(&self) -> HonestCriterion {
        HonestCriterion::EqualsTruth
    }

    fn build(&self, rng: &mut StdRng) -> Trial<GkMsg> {
        let x1 = Value::Scalar(rng.random_range(0..2));
        let x2 = Value::Scalar(rng.random_range(0..2));
        let m = self.cfg.m;
        let instance = gk_instance("gk", self.cfg.clone(), [x1, x2]);
        Trial {
            instance,
            adversary: Box::new(GkAttack::new(self.rule.clone())),
            truth: None,
            max_rounds: 3 * m + 20,
        }
    }
}

/// The abort-rule sweep against a Gordon–Katz instance: fixed rounds,
/// value-guessing and the repetition heuristic.
pub fn gk_sweep(cfg: &GkConfig, rounds: &[usize]) -> Vec<GkScenario> {
    let mut out: Vec<GkScenario> = rounds
        .iter()
        .map(|&r| GkScenario {
            cfg: cfg.clone(),
            rule: AbortRule::AtRound(r),
            label: format!("abort@{r}"),
        })
        .collect();
    for v in [0u64, 1] {
        out.push(GkScenario {
            cfg: cfg.clone(),
            rule: AbortRule::OnValue(Value::Scalar(v)),
            label: format!("on-value({v})"),
        });
    }
    out.push(GkScenario {
        cfg: cfg.clone(),
        rule: AbortRule::OnRepeat,
        label: "on-repeat".into(),
    });
    out.push(GkScenario {
        cfg: cfg.clone(),
        rule: AbortRule::Never,
        label: "honest".into(),
    });
    out
}

// ---------------------------------------------------------------------------
// The ideal benchmark Φ^F_sfe (dummy protocol around fair SFE)
// ---------------------------------------------------------------------------

/// A dummy-protocol scenario around the *fair* SFE functionality
/// (Definition 19's benchmark).
pub struct IdealFairScenario {
    /// Number of parties.
    pub n: usize,
    /// The attack strategy.
    pub strategy: Strategy,
}

impl Scenario for IdealFairScenario {
    type Msg = fair_sfe::ideal::SfeMsg;

    fn name(&self) -> String {
        format!("Ideal(n={})/{}", self.n, self.strategy.label())
    }

    fn n(&self) -> usize {
        self.n
    }

    fn build(&self, rng: &mut StdRng) -> Trial<fair_sfe::ideal::SfeMsg> {
        let inputs: Vec<Value> = (0..self.n)
            .map(|_| Value::Scalar(rng.random_range(0..1 << 30)))
            .collect();
        let instance = Instance {
            parties: inputs
                .iter()
                .map(|x| {
                    Box::new(fair_sfe::dummy::SfeDummyParty::new(x.clone()))
                        as Box<dyn fair_runtime::Party<fair_sfe::ideal::SfeMsg>>
                })
                .collect(),
            funcs: vec![Box::new(fair_sfe::ideal::FairSfe::new(
                fair_sfe::spec::concat_spec(self.n),
            ))],
        };
        Trial {
            instance,
            adversary: self.strategy.build(any_output()),
            truth: None,
            max_rounds: 30,
        }
    }
}

/// The t-adversary sweep against the ideal benchmark.
pub fn ideal_fair_sweep(n: usize, t: usize) -> Vec<IdealFairScenario> {
    t_adversary_sweep(n, t)
        .into_iter()
        .map(|strategy| IdealFairScenario { n, strategy })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::{analytic, best_of, Payoff, RunCtx};

    const TRIALS: usize = 300;

    #[test]
    fn pi1_best_attack_reaches_gamma10() {
        let payoff = Payoff::standard();
        let (ests, best) = best_of(
            &RunCtx::default(),
            &contract_sweep(false),
            &payoff,
            TRIALS,
            11,
        );
        assert!(
            ests[best].consistent_with(analytic::pi1(&payoff), 0.02),
            "Π1 sup-utility = {} (expected {})",
            ests[best].mean,
            analytic::pi1(&payoff)
        );
    }

    #[test]
    fn pi2_best_attack_is_half_way() {
        let payoff = Payoff::standard();
        let (ests, best) = best_of(
            &RunCtx::default(),
            &contract_sweep(true),
            &payoff,
            TRIALS,
            12,
        );
        assert!(
            ests[best].consistent_with(analytic::pi2(&payoff), 0.08),
            "Π2 sup-utility = {} ± {} (expected {})",
            ests[best].mean,
            ests[best].ci,
            analytic::pi2(&payoff)
        );
    }

    #[test]
    fn opt2_best_attack_matches_theorem_3() {
        let payoff = Payoff::standard();
        let (ests, best) = best_of(&RunCtx::default(), &opt2_sweep(), &payoff, TRIALS, 13);
        assert!(
            ests[best].consistent_with(analytic::opt2(&payoff), 0.08),
            "Opt2 sup-utility = {} (expected {})",
            ests[best].mean,
            analytic::opt2(&payoff)
        );
    }

    #[test]
    fn one_round_strawman_loses_completely() {
        let payoff = Payoff::standard();
        let (ests, best) = best_of(&RunCtx::default(), &one_round_sweep(), &payoff, TRIALS, 14);
        assert!(
            ests[best].consistent_with(payoff.g10, 0.02),
            "strawman sup-utility = {}",
            ests[best].mean
        );
    }

    #[test]
    fn optn_t_adversaries_match_lemma_11() {
        let payoff = Payoff::standard();
        let n = 3;
        for t in 1..n {
            let (ests, best) = best_of(
                &RunCtx::default(),
                &optn_sweep(n, t),
                &payoff,
                TRIALS,
                15 + t as u64,
            );
            let expect = analytic::optn_t(&payoff, n, t);
            assert!(
                ests[best].consistent_with(expect, 0.09),
                "n={n} t={t}: {} (expected {expect})",
                ests[best].mean
            );
        }
    }

    #[test]
    fn ideal_benchmark_is_gamma11() {
        let payoff = Payoff::standard();
        let (ests, best) = best_of(
            &RunCtx::default(),
            &ideal_fair_sweep(3, 2),
            &payoff,
            TRIALS,
            19,
        );
        assert!(
            ests[best].consistent_with(analytic::ideal_fair_t(&payoff, 3, 2), 0.03),
            "ideal benchmark = {}",
            ests[best].mean
        );
    }
}
