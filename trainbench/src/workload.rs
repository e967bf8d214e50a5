//! The three workloads: which driver, which environment, what shape, and
//! the counts an iteration must produce, derived from the shape alone.

use msrl_algos::ppo::{PpoConfig, PpoPolicy};
use msrl_env::cartpole::CartPole;
use msrl_env::halfcheetah::HalfCheetah;
use msrl_env::Environment;
use msrl_runtime::exec::DistPpoConfig;

/// The distribution policy a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dp {
    /// Replicated actors, one learner, per-iteration trajectory gather.
    A,
    /// Central inference on the learner, per-step exchange.
    B,
    /// Fused actor+learner replicas, gradient all-reduce.
    C,
}

/// The environment every actor steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// Discrete, 4-dim observations, 2 actions.
    CartPole,
    /// Continuous, 17-dim observations, 6-dim actions.
    HalfCheetah,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dp: Dp,
    pub env: EnvKind,
    /// Actor (DP-A/DP-B) or replica (DP-C) fragments.
    pub actors: usize,
    pub envs_per_actor: usize,
    pub steps_per_iter: usize,
    pub hidden: &'static [usize],
    pub epochs: usize,
    /// Training iterations of one driver call.
    pub iterations: usize,
    /// Leading iterations of each call left out of steady-state metrics.
    pub warmup: usize,
    /// Driver calls every run makes, however short `--seconds` is;
    /// `return_final` averages over exactly these calls.
    pub min_calls: usize,
}

/// HalfCheetah's episode horizon: equal to the steps per iteration, so
/// every environment finishes exactly one episode per iteration.
pub const CHEETAH_HORIZON: usize = 128;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dpa_cartpole",
        dp: Dp::A,
        env: EnvKind::CartPole,
        actors: 2,
        envs_per_actor: 8,
        steps_per_iter: 128,
        hidden: &[64, 64],
        epochs: 4,
        iterations: 60,
        warmup: 5,
        min_calls: 5,
    },
    Workload {
        name: "dpc_halfcheetah",
        dp: Dp::C,
        env: EnvKind::HalfCheetah,
        actors: 2,
        envs_per_actor: 8,
        steps_per_iter: 128,
        hidden: &[64, 64, 64, 64, 64],
        epochs: 4,
        iterations: 40,
        warmup: 5,
        min_calls: 3,
    },
    Workload {
        name: "dpb_cartpole",
        dp: Dp::B,
        env: EnvKind::CartPole,
        actors: 2,
        envs_per_actor: 2,
        steps_per_iter: 512,
        hidden: &[64, 64],
        epochs: 1,
        iterations: 60,
        warmup: 5,
        min_calls: 6,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of environment instance `i` of actor `actor` in driver call
/// `call` of a run with workload seed `seed` (splitmix64 finaliser, so
/// neighbouring seeds give unrelated instances).
pub fn env_seed(seed: u64, call: usize, actor: usize, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((call as u64) << 32) | ((actor as u64) << 16) | i as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The driver configuration: the program's defaults (seed, overlap,
    /// staleness, fusion, act server, PPO hyper-parameters) with this
    /// workload's shape. The workload seed reaches the program only
    /// through the environments it generates.
    pub fn config(&self) -> DistPpoConfig {
        DistPpoConfig {
            actors: self.actors,
            envs_per_actor: self.envs_per_actor,
            steps_per_iter: self.steps_per_iter,
            iterations: self.iterations,
            hidden: self.hidden.to_vec(),
            ppo: PpoConfig { epochs: self.epochs, ..PpoConfig::default() },
            ..DistPpoConfig::default()
        }
    }

    /// Environment instance `i` of actor `actor` for driver call `call`.
    pub fn make_env(&self, seed: u64, call: usize, actor: usize, i: usize) -> Box<dyn Environment> {
        let s = env_seed(seed, call, actor, i);
        match self.env {
            EnvKind::CartPole => Box::new(CartPole::new(s)),
            EnvKind::HalfCheetah => Box::new(HalfCheetah::new(s).with_horizon(CHEETAH_HORIZON)),
        }
    }

    /// The starting policy every driver builds from the config.
    pub fn policy(&self) -> PpoPolicy {
        let probe = self.make_env(0, 0, 0, 0);
        let (obs, spec) = (probe.obs_dim(), probe.action_spec());
        let seed = self.config().seed;
        if spec.is_discrete() {
            PpoPolicy::discrete(obs, spec.policy_width(), self.hidden, seed)
        } else {
            PpoPolicy::continuous(obs, spec.policy_width(), self.hidden, seed)
        }
    }

    /// Environment transitions one iteration trains on.
    pub fn samples_per_iter(&self) -> usize {
        self.actors * self.envs_per_actor * self.steps_per_iter
    }

    /// Observation and per-sample action widths.
    pub fn widths(&self) -> (usize, usize) {
        match self.env {
            EnvKind::CartPole => (4, 1),
            EnvKind::HalfCheetah => (17, 6),
        }
    }

    /// Messages one iteration sends, from the driver's protocol:
    /// DP-A: each actor ships its batch and its returns, the learner one
    /// weight message per actor. DP-B: per env step each actor sends its
    /// observations and its step feedback and receives actions, plus one
    /// returns message per iteration. DP-C: every all-reduce sends to
    /// each peer, once per epoch.
    pub fn msgs_per_iter(&self) -> u64 {
        let p = self.actors as u64;
        match self.dp {
            Dp::A => 3 * p,
            Dp::B => p * (3 * self.steps_per_iter as u64 + 1),
            Dp::C => self.epochs as u64 * p * (p - 1),
        }
    }

    /// Bytes one iteration sends, excluding the episode returns that
    /// ride along ([`Workload::return_bytes_per_episode`]): the wire-format batch
    /// (4 header floats, then obs, actions, rewards, next obs, dones,
    /// log-probs and values per sample), the version-stamped weight
    /// vector, per-step observation/action/feedback vectors, or one
    /// `num_params` gradient per epoch plus the fused collective's
    /// length header.
    pub fn fixed_bytes_per_iter(&self, num_params: usize) -> u64 {
        let (obs_w, act_w) = self.widths();
        let p = self.actors as u64;
        let e = self.envs_per_actor as u64;
        let n = e * self.steps_per_iter as u64;
        let floats = match self.dp {
            Dp::A => {
                let batch = 4 + n * (2 * obs_w as u64 + act_w as u64 + 4);
                p * (batch + 1 + num_params as u64)
            }
            Dp::B => {
                let per_step = e * obs_w as u64 + e * act_w as u64 + e * (2 + obs_w as u64);
                p * self.steps_per_iter as u64 * per_step
            }
            Dp::C => p * (p - 1) * (self.epochs as u64 * num_params as u64 + 1),
        };
        4 * floats
    }

    /// Bytes each finished episode's return adds: DP-A and DP-B ship it
    /// to the learner once; DP-C's fused all-reduce carries it to every
    /// peer.
    pub fn return_bytes_per_episode(&self) -> u64 {
        match self.dp {
            Dp::A | Dp::B => 4,
            Dp::C => 4 * (self.actors as u64 - 1),
        }
    }

    /// Episodes that must finish per iteration, when the shape fixes it:
    /// HalfCheetah's horizon equals the steps per iteration, so each
    /// environment finishes one episode per iteration.
    pub fn fixed_episodes_per_iter(&self) -> Option<u64> {
        (self.env == EnvKind::HalfCheetah && CHEETAH_HORIZON == self.steps_per_iter)
            .then(|| (self.actors * self.envs_per_actor) as u64)
    }
}
