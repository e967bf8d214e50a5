//! The traced run: the DP-A, DP-B and DP-C fragment loops re-enacted in
//! the benchmark's own code — same threads, seeds, `Fabric` calls and
//! library calls as `msrl_runtime::exec`, in the same order — with every
//! call into a layer's public functions timed. The re-enactment must
//! reproduce the driver's final parameters and per-iteration returns bit
//! for bit, which is what shows the timed loops are the driver's loops.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use msrl_algos::buffer::{step_batch, TrajectoryBuffer};
use msrl_algos::ppo::{PpoActor, PpoLearner};
use msrl_algos::rollout::decode_actions;
use msrl_comm::{Endpoint, Fabric, PendingRecv};
use msrl_core::api::{Actor, Learner, SampleBatch};
use msrl_env::VecEnv;
use msrl_runtime::wire::{decode_batch, encode_batch};
use msrl_tensor::{ops, Tensor};

use crate::e2e::{self, Counts};
use crate::stats;
use crate::workload::{Dp, EnvKind, Workload};
use crate::{Checks, Metric, RunOutcome};

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Debug>(e: E) -> String {
    format!("{e:?}")
}

/// Per-thread layer timings. Spans nest; time under an outermost span
/// counts as attributed, so a fragment whose loop is made only of timed
/// calls shows how much of its iteration the spans cover.
#[derive(Default)]
struct Rec {
    /// Per layer name: (total ns, calls).
    acc: BTreeMap<&'static str, (u64, u64)>,
    depth: usize,
    covered_ns: u64,
    /// Per iteration of this fragment: (wall ns, attributed ns).
    iters: Vec<(u64, u64)>,
    /// Returns of the episodes this fragment saw finish.
    returns: Vec<f32>,
}

impl Rec {
    fn enter(&mut self) -> Instant {
        self.depth += 1;
        Instant::now()
    }

    fn exit(&mut self, name: &'static str, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.depth -= 1;
        let e = self.acc.entry(name).or_default();
        e.0 += ns;
        e.1 += 1;
        if self.depth == 0 {
            self.covered_ns += ns;
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = self.enter();
        let out = f();
        self.exit(name, t0);
        out
    }

    /// Counts one event under `name` without timing it.
    fn count(&mut self, name: &'static str) {
        self.acc.entry(name).or_default().1 += 1;
    }

    /// Marks the start of an iteration: (start, attributed so far).
    fn iter_start(&self) -> (Instant, u64) {
        (Instant::now(), self.covered_ns)
    }

    fn iter_end(&mut self, (t0, covered0): (Instant, u64)) {
        self.iters.push((t0.elapsed().as_nanos() as u64, self.covered_ns - covered0));
    }
}

/// What one re-enactment hands back.
struct Traced {
    final_params: Vec<f32>,
    rewards: Vec<f32>,
    /// Recorders of the fragments on the critical path (the learner, or
    /// every DP-C replica), then the others.
    critical: Vec<Rec>,
    others: Vec<Rec>,
    /// Samples each learner update trained on, per iteration.
    batch_lens: Vec<usize>,
    /// DP-C: iterations after which the replicas' parameters differed.
    replica_mismatches: Vec<usize>,
}

/// The driver's per-iteration return summary: the mean of finished
/// episodes, carrying the previous value when none finished.
fn mean_or_prev(finished: &[f32], prev: f32) -> f32 {
    if finished.is_empty() {
        prev
    } else {
        finished.iter().sum::<f32>() / finished.len() as f32
    }
}

fn make_envs(w: &Workload, seed: u64, call: usize, rank: usize) -> VecEnv {
    VecEnv::new((0..w.envs_per_actor).map(|i| w.make_env(seed, call, rank, i)).collect())
}

/// `msrl_algos::rollout::collect`, with its calls timed.
fn collect(
    rec: &mut Rec,
    actor: &mut dyn Actor,
    envs: &mut VecEnv,
    steps: usize,
) -> Res<SampleBatch> {
    let t0 = rec.enter();
    let mut buf = TrajectoryBuffer::new();
    let mut obs = envs.reset();
    for _ in 0..steps {
        let out = rec.timed("policy.act", || actor.act(&obs)).map_err(err)?;
        let actions = decode_actions(&out.actions, envs.action_spec());
        let step = rec.timed("env.vec_step", || envs.step(&actions));
        let values = out.values.clone().ok_or("actor without value head")?;
        rec.timed("rollout.buffer", || {
            buf.insert(step_batch(
                obs.clone(),
                out.actions,
                step.rewards.clone(),
                step.obs.clone(),
                step.dones.clone(),
                out.log_probs,
                values,
            ))
        });
        obs = step.obs;
    }
    let batch = rec.timed("rollout.buffer", || buf.drain_env_major()).map_err(err);
    rec.exit("rollout.collect", t0);
    batch
}

fn trace_dp_a(w: &Workload, seed: u64, call: usize) -> Res<Traced> {
    let cfg = w.config();
    let p = w.actors;
    let stale_bound = if cfg.overlap { cfg.staleness } else { 0 };
    let mut endpoints = Fabric::with_latency(p + 1, cfg.link_latency);
    let learner_ep = endpoints.pop().ok_or("fabric without learner endpoint")?;
    let policy = w.policy();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let policy = policy.clone();
            let cfg = &cfg;
            handles.push(scope.spawn(move || -> Res<Rec> {
                let mut rec = Rec::default();
                let mut actor = PpoActor::new(policy, cfg.seed + 1 + rank as u64);
                let mut envs = make_envs(w, seed, call, rank);
                let mut pending: VecDeque<PendingRecv> = VecDeque::new();
                let mut version = 0usize;
                let swap =
                    |rec: &mut Rec, wts: Vec<f32>, version: &mut usize, actor: &mut PpoActor| {
                        *version = wts[0] as usize;
                        rec.timed("sync.unpack", || actor.set_policy_params(&wts[1..])).map_err(err)
                    };
                for iter in 0..w.iterations {
                    while let Some(front) = pending.front_mut() {
                        if rec.timed("comm.wait.actor", || front.poll()).map_err(err)? {
                            let pr = pending.pop_front().ok_or("no pending broadcast")?;
                            let wts = rec.timed("comm.wait.actor", || pr.wait()).map_err(err)?;
                            swap(&mut rec, wts, &mut version, &mut actor)?;
                        } else {
                            break;
                        }
                    }
                    while iter - version > stale_bound {
                        let pr = pending.pop_front().ok_or("version lags with nothing pending")?;
                        let wts = rec.timed("comm.wait.actor", || pr.wait()).map_err(err)?;
                        swap(&mut rec, wts, &mut version, &mut actor)?;
                    }
                    let batch = collect(&mut rec, &mut actor, &mut envs, w.steps_per_iter)?;
                    let wire = rec.timed("wire.encode", || encode_batch(&batch));
                    rec.timed("comm.send", || ep.isend(p, wire)).map_err(err)?.wait();
                    let finished = envs.take_finished_returns();
                    rec.returns.extend_from_slice(&finished);
                    rec.timed("comm.send", || ep.isend(p, finished)).map_err(err)?.wait();
                    pending.push_back(rec.timed("comm.send", || ep.irecv(p)).map_err(err)?);
                }
                for pr in pending {
                    let _ = rec.timed("comm.wait.actor", || pr.wait());
                }
                Ok(rec)
            }));
        }

        let mut rec = Rec::default();
        let mut learner = PpoLearner::new(policy, cfg.ppo.clone());
        let (mut rewards, mut batch_lens) = (Vec::new(), Vec::new());
        let mut prev = 0.0;
        for iter in 0..w.iterations {
            let it = rec.iter_start();
            let mut batches = Vec::with_capacity(p);
            let mut finished = Vec::new();
            for rank in 0..p {
                let wire = rec.timed("comm.wait.learner", || learner_ep.recv(rank)).map_err(err)?;
                batches.push(rec.timed("wire.decode", || decode_batch(&wire)).map_err(err)?);
                let ret = rec.timed("comm.wait.learner", || learner_ep.recv(rank)).map_err(err)?;
                finished.extend(ret);
            }
            let batch =
                rec.timed("rollout.buffer", || SampleBatch::concat(&batches)).map_err(err)?;
            batch_lens.push(batch.len());
            rec.timed("learner.learn", || learner.learn(&batch)).map_err(err)?;
            let weights = rec.timed("sync.pack", || {
                let mut wts = vec![(iter + 1) as f32];
                wts.extend(learner.policy_params());
                wts
            });
            for rank in 0..p {
                rec.timed("comm.send", || learner_ep.isend(rank, weights.clone()))
                    .map_err(err)?
                    .wait();
            }
            prev = mean_or_prev(&finished, prev);
            rewards.push(prev);
            rec.iter_end(it);
        }
        let others = join_all(handles)?;
        Ok(Traced {
            final_params: learner.policy_params(),
            rewards,
            critical: vec![rec],
            others,
            batch_lens,
            replica_mismatches: Vec::new(),
        })
    })
}

fn trace_dp_b(w: &Workload, seed: u64, call: usize) -> Res<Traced> {
    let cfg = w.config();
    let p = w.actors;
    let envs_i = w.envs_per_actor;
    let mut endpoints = Fabric::with_latency(p + 1, cfg.link_latency);
    let learner_ep = endpoints.pop().ok_or("fabric without learner endpoint")?;
    let policy = w.policy();
    let (obs_dim, _) = w.widths();
    let spec = w.make_env(0, 0, 0, 0).action_spec();
    let act_w = if spec.is_discrete() { 1 } else { spec.policy_width() };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, ep) in endpoints.into_iter().enumerate() {
            handles.push(scope.spawn(move || -> Res<Rec> {
                let mut rec = Rec::default();
                let mut envs = make_envs(w, seed, call, rank);
                for _ in 0..w.iterations {
                    let mut obs = envs.reset();
                    for _ in 0..w.steps_per_iter {
                        let wire = rec.timed("wire.encode", || obs.data().to_vec());
                        rec.timed("comm.send", || ep.isend(p, wire)).map_err(err)?.wait();
                        let pending = rec.timed("comm.send", || ep.irecv(p)).map_err(err)?;
                        let wire_actions =
                            rec.timed("comm.wait.actor", || pending.wait()).map_err(err)?;
                        let actions = rec.timed("wire.decode", || {
                            let shape = if spec.is_discrete() {
                                vec![envs_i]
                            } else {
                                vec![envs_i, spec.policy_width()]
                            };
                            Tensor::from_vec(wire_actions, &shape).map(|t| decode_actions(&t, spec))
                        });
                        let actions = actions.map_err(err)?;
                        let step = rec.timed("env.vec_step", || envs.step(&actions));
                        let fb = rec.timed("wire.encode", || {
                            let mut fb = step.rewards.data().to_vec();
                            fb.extend(step.dones.iter().map(|&d| if d { 1.0 } else { 0.0 }));
                            fb.extend_from_slice(step.obs.data());
                            fb
                        });
                        rec.timed("comm.send", || ep.send(p, fb)).map_err(err)?;
                        obs = step.obs;
                    }
                    let finished = envs.take_finished_returns();
                    rec.returns.extend_from_slice(&finished);
                    rec.timed("comm.send", || ep.send(p, finished)).map_err(err)?;
                }
                Ok(rec)
            }));
        }

        let mut rec = Rec::default();
        let mut learner = PpoLearner::new(policy, cfg.ppo.clone());
        let mut rng = msrl_tensor::init::rng(cfg.seed + 17);
        let (mut rewards, mut batch_lens) = (Vec::new(), Vec::new());
        let mut prev = 0.0;
        for _ in 0..w.iterations {
            let it = rec.iter_start();
            let mut buffers: Vec<TrajectoryBuffer> =
                (0..p).map(|_| TrajectoryBuffer::new()).collect();
            let rollout = rec.enter();
            for _ in 0..w.steps_per_iter {
                let mut per_actor_obs = Vec::with_capacity(p);
                for rank in 0..p {
                    let wire =
                        rec.timed("comm.wait.learner", || learner_ep.recv(rank)).map_err(err)?;
                    let t = rec.timed("wire.decode", || Tensor::from_vec(wire, &[envs_i, obs_dim]));
                    per_actor_obs.push(t.map_err(err)?);
                }
                let stacked = rec
                    .timed("wire.decode", || {
                        ops::concat(&per_actor_obs.iter().collect::<Vec<_>>(), 0)
                    })
                    .map_err(err)?;
                let out = rec
                    .timed("policy.act", || learner.policy.act(&stacked, &mut rng))
                    .map_err(err)?;
                let values = out.values.clone().ok_or("PPO policy without critic")?;
                for rank in 0..p {
                    let lo = rank * envs_i * act_w;
                    let slice = rec.timed("wire.encode", || {
                        out.actions.data()[lo..lo + envs_i * act_w].to_vec()
                    });
                    rec.timed("comm.send", || learner_ep.send(rank, slice)).map_err(err)?;
                }
                for (rank, buffer) in buffers.iter_mut().enumerate() {
                    let fb =
                        rec.timed("comm.wait.learner", || learner_ep.recv(rank)).map_err(err)?;
                    let decoded = rec.timed("wire.decode", || -> Res<_> {
                        let rewards =
                            Tensor::from_vec(fb[..envs_i].to_vec(), &[envs_i]).map_err(err)?;
                        let dones: Vec<bool> =
                            fb[envs_i..2 * envs_i].iter().map(|&d| d > 0.5).collect();
                        let next_obs =
                            Tensor::from_vec(fb[2 * envs_i..].to_vec(), &[envs_i, obs_dim])
                                .map_err(err)?;
                        Ok((rewards, dones, next_obs))
                    });
                    let (rewards, dones, next_obs) = decoded?;
                    rec.timed("rollout.buffer", || {
                        let row = |t: &Tensor| {
                            let lo = rank * envs_i;
                            let w = t.len() / (p * envs_i);
                            Tensor::from_vec(
                                t.data()[lo * w..(lo + envs_i) * w].to_vec(),
                                &if w == 1 { vec![envs_i] } else { vec![envs_i, w] },
                            )
                            .expect("slice preserves width")
                        };
                        buffer.insert(step_batch(
                            row(&stacked),
                            row(&out.actions),
                            rewards,
                            next_obs,
                            dones,
                            row(&out.log_probs),
                            row(&values),
                        ));
                    });
                }
            }
            rec.exit("rollout.collect", rollout);
            let batch = rec
                .timed("rollout.buffer", || -> msrl_core::Result<SampleBatch> {
                    let mut batches = Vec::with_capacity(p);
                    for buffer in &mut buffers {
                        batches.push(buffer.drain_env_major()?);
                    }
                    SampleBatch::concat(&batches)
                })
                .map_err(err)?;
            batch_lens.push(batch.len());
            rec.timed("learner.learn", || learner.learn(&batch)).map_err(err)?;
            let mut finished = Vec::new();
            for rank in 0..p {
                finished
                    .extend(rec.timed("comm.wait.learner", || learner_ep.recv(rank)).map_err(err)?);
            }
            prev = mean_or_prev(&finished, prev);
            rewards.push(prev);
            rec.iter_end(it);
        }
        let others = join_all(handles)?;
        Ok(Traced {
            final_params: learner.policy_params(),
            rewards,
            critical: vec![rec],
            others,
            batch_lens,
            replica_mismatches: Vec::new(),
        })
    })
}

/// What one DP-C replica's loop hands back.
struct Replica {
    rec: Rec,
    rewards: Vec<f32>,
    /// Samples of each iteration's local batch.
    lens: Vec<usize>,
    /// Parameters after each iteration.
    params: Vec<Vec<f32>>,
}

/// One DP-C replica's loop.
fn dp_c_replica(
    w: &Workload,
    seed: u64,
    call: usize,
    rank: usize,
    mut ep: Endpoint,
) -> Res<Replica> {
    let cfg = w.config();
    let policy = w.policy();
    let mut rec = Rec::default();
    let mut actor = PpoActor::new(policy.clone(), cfg.seed + 1 + rank as u64);
    let mut learner = PpoLearner::new(policy, cfg.ppo.clone());
    let mut envs = make_envs(w, seed, call, rank);
    let fused = cfg.overlap && cfg.ppo.epochs > 0;
    let (mut rewards, mut lens, mut params) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev = 0.0;
    for _ in 0..w.iterations {
        let it = rec.iter_start();
        let batch = collect(&mut rec, &mut actor, &mut envs, w.steps_per_iter)?;
        lens.push(batch.len());
        let mut fused_returns: Option<Vec<f32>> = None;
        for epoch in 0..cfg.ppo.epochs {
            let local = rec.timed("learner.grads", || learner.grads(&batch)).map_err(err)?;
            let averaged = if fused && epoch + 1 == cfg.ppo.epochs {
                let mine = envs.take_finished_returns();
                rec.returns.extend_from_slice(&mine);
                let (averaged, extras) = rec
                    .timed("comm.all_reduce", || ep.all_reduce_mean_concat(local, mine))
                    .map_err(err)?;
                fused_returns = Some(extras.into_iter().flatten().collect());
                averaged
            } else {
                rec.timed("comm.all_reduce", || ep.all_reduce_mean(local)).map_err(err)?
            };
            rec.timed("learner.apply", || learner.apply_grads(&averaged)).map_err(err)?;
        }
        rec.count("learner.step");
        let wts = rec.timed("sync.pack", || learner.policy_params());
        rec.timed("sync.unpack", || actor.set_policy_params(&wts)).map_err(err)?;
        let finished: Vec<f32> = match fused_returns {
            Some(f) => f,
            None => {
                let mine = envs.take_finished_returns();
                rec.returns.extend_from_slice(&mine);
                let all = rec.timed("comm.all_reduce", || ep.all_gather(mine)).map_err(err)?;
                all.into_iter().flatten().collect()
            }
        };
        prev = mean_or_prev(&finished, prev);
        rewards.push(prev);
        params.push(wts);
        rec.iter_end(it);
    }
    Ok(Replica { rec, rewards, lens, params })
}

fn trace_dp_c(w: &Workload, seed: u64, call: usize) -> Res<Traced> {
    let endpoints = Fabric::with_latency(w.actors, w.config().link_latency);
    let replicas = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| scope.spawn(move || dp_c_replica(w, seed, call, rank, ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replica thread panicked".to_string())?)
            .collect::<Res<Vec<_>>>()
    })?;
    let mut critical = Vec::new();
    let mut all_params = Vec::new();
    let mut batch_lens = vec![0; w.iterations];
    let mut rewards = Vec::new();
    for (rank, Replica { rec, rewards: r, lens, params }) in replicas.into_iter().enumerate() {
        critical.push(rec);
        for (total, l) in batch_lens.iter_mut().zip(lens) {
            *total += l;
        }
        if rank == 0 {
            rewards = r;
        }
        all_params.push(params);
    }
    let replica_mismatches = (0..w.iterations)
        .filter(|&i| all_params.iter().any(|p| p.get(i) != all_params[0].get(i)))
        .collect();
    let final_params = all_params[0].last().cloned().unwrap_or_default();
    Ok(Traced {
        final_params,
        rewards,
        critical,
        others: Vec::new(),
        batch_lens,
        replica_mismatches,
    })
}

fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, Res<Rec>>>) -> Res<Vec<Rec>> {
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| "fragment thread panicked".to_string())?)
        .collect()
}

/// Counters of the layers that count their own work.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounts {
    pool_hit: u64,
    pool_miss: u64,
    pack_b: u64,
    plan_evals: u64,
}

impl LayerCounts {
    fn now() -> LayerCounts {
        let c = msrl_telemetry::counter_total;
        LayerCounts {
            pool_hit: c("pool.hit"),
            pool_miss: c("pool.miss"),
            pack_b: c("tensor.pack_b"),
            plan_evals: c("interp.plan_cache.hit") + c("interp.plan_cache.miss"),
        }
    }

    fn add_since(&mut self, now: LayerCounts, before: LayerCounts) {
        self.pool_hit += now.pool_hit - before.pool_hit;
        self.pool_miss += now.pool_miss - before.pool_miss;
        self.pack_b += now.pack_b - before.pack_b;
        self.plan_evals += now.plan_evals - before.plan_evals;
    }
}

/// Totals over every traced call of a run.
#[derive(Default)]
struct Totals {
    iterations: u64,
    /// Per layer name: (total ns, calls), over all fragments.
    acc: BTreeMap<&'static str, (u64, u64)>,
    /// Steady iteration walls of the first critical fragment, ns.
    iter_ns: Vec<f64>,
    /// Per critical fragment: (steady wall ns, attributed ns).
    coverage: Vec<(u64, u64)>,
    /// Blocked-in-comm ns of the critical fragments, summed.
    critical_wait_ns: u64,
    critical_fragments: u64,
    /// Steady driver iteration periods, ns.
    driver_ns: Vec<f64>,
    layers: LayerCounts,
    msgs: u64,
    bytes: u64,
}

fn check_traced(w: &Workload, t: &Traced, driver: &e2e::Call, counts: Counts, checks: &mut Checks) {
    let r = &driver.report;
    let same_bits = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    checks.expect(same_bits(&t.final_params, &r.final_params), || {
        format!("{}: traced final parameters differ from the driver's", w.name)
    });
    checks.expect(same_bits(&t.rewards, &r.iteration_rewards), || {
        format!("{}: traced per-iteration returns differ from the driver's", w.name)
    });
    let want = w.samples_per_iter();
    checks.expect(
        t.batch_lens.len() == w.iterations && t.batch_lens.iter().all(|&l| l == want),
        || format!("{}: learner batches {:?}, expected {want} samples each", w.name, t.batch_lens),
    );
    let episodes = t.critical.iter().chain(&t.others).map(|r| r.returns.len() as u64).sum::<u64>();
    let n = w.iterations as u64;
    let bytes =
        n * w.fixed_bytes_per_iter(t.final_params.len()) + episodes * w.return_bytes_per_episode();
    checks.expect(counts.bytes == bytes, || {
        format!(
            "{}: traced run sent {} bytes, shape and {episodes} episodes give {bytes}",
            w.name, counts.bytes
        )
    });
    checks.expect(counts.bytes == driver.counts.bytes, || {
        format!(
            "{}: traced run sent {} bytes, the driver {}",
            w.name, counts.bytes, driver.counts.bytes
        )
    });
    checks.expect(counts.msgs == n * w.msgs_per_iter(), || {
        format!(
            "{}: traced run sent {} messages, expected {}",
            w.name,
            counts.msgs,
            n * w.msgs_per_iter()
        )
    });
    let steps = w.steps_per_iter as f32;
    for rec in t.critical.iter().chain(&t.others) {
        for &ret in &rec.returns {
            let ok = match w.env {
                EnvKind::CartPole => ret.fract() == 0.0 && ret >= 1.0 && ret <= steps,
                EnvKind::HalfCheetah => ret.is_finite(),
            };
            checks.expect(ok, || format!("{}: impossible episode return {ret}", w.name));
        }
    }
    if let Some(per_iter) = w.fixed_episodes_per_iter() {
        checks.expect(episodes == n * per_iter, || {
            format!("{}: {episodes} episodes finished, expected {}", w.name, n * per_iter)
        });
    }
    checks.expect(t.replica_mismatches.is_empty(), || {
        format!("{}: replicas disagree after iterations {:?}", w.name, t.replica_mismatches)
    });
}

fn reenact(w: &Workload, seed: u64, call: usize) -> Res<Traced> {
    match w.dp {
        Dp::A => trace_dp_a(w, seed, call),
        Dp::B => trace_dp_b(w, seed, call),
        Dp::C => trace_dp_c(w, seed, call),
    }
}

/// The traced run: pairs of (driver call, traced re-enactment of the
/// same call) until `seconds` have passed, at least one pair.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunOutcome {
    let start = Instant::now();
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut tot = Totals::default();
    for call in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if call >= 1 && elapsed + elapsed / call as f64 > seconds {
            break;
        }
        attempted += 2 * w.iterations as u64;
        let driver = match e2e::drive(w, seed, call) {
            Ok(d) => d,
            Err(e) => {
                println!("driver call {call} failed: {e}");
                failed += 2 * w.iterations as u64;
                continue;
            }
        };
        e2e::check_call(w, &driver, &mut checks);
        let (before, layers_before) = (Counts::now(), LayerCounts::now());
        let traced = reenact(w, seed, call);
        let (counts, layers_now) = (Counts::now().since(before), LayerCounts::now());
        let t = match traced {
            Ok(t) => t,
            Err(e) => {
                println!("traced call {call} failed: {e}");
                failed += w.iterations as u64;
                continue;
            }
        };
        let failures_before = checks.failures.len();
        check_traced(w, &t, &driver, counts, &mut checks);
        tot.iterations += w.iterations as u64;
        tot.layers.add_since(layers_now, layers_before);
        tot.msgs += counts.msgs;
        tot.bytes += counts.bytes;
        tot.driver_ns.extend(driver.periods.iter().skip(w.warmup).map(|s| s * 1e9));
        for rec in t.critical.iter().chain(&t.others) {
            for (name, (ns, calls)) in &rec.acc {
                let e = tot.acc.entry(name).or_default();
                e.0 += ns;
                e.1 += calls;
            }
        }
        for rec in &t.critical {
            for name in ["comm.wait.learner", "comm.all_reduce"] {
                tot.critical_wait_ns += rec.acc.get(name).map_or(0, |&(ns, _)| ns);
            }
        }
        tot.critical_fragments = t.critical.len() as u64;
        tot.coverage.resize(t.critical.len(), (0, 0));
        for (cov, rec) in tot.coverage.iter_mut().zip(&t.critical) {
            for &(wall, covered) in rec.iters.iter().skip(w.warmup) {
                cov.0 += wall;
                cov.1 += covered;
            }
        }
        tot.iter_ns.extend(t.critical[0].iters.iter().skip(w.warmup).map(|&(wall, _)| wall as f64));
        println!(
            "call {call}: driver {:.2} ms/iter, traced {:.2} ms/iter, final parameters {}",
            stats::median(&driver.periods) * 1e3,
            stats::median(
                &t.critical[0].iters.iter().map(|&(w, _)| w as f64 / 1e6).collect::<Vec<_>>()
            ),
            if checks.failures.len() == failures_before {
                "bit-identical, checks pass"
            } else {
                "see failed checks"
            }
        );
    }
    print_detail(&tot);
    RunOutcome { metrics: layer_metrics(&tot), checks, attempted, failed }
}

/// Prints every timed call the per-layer metrics fold together: the
/// split between gradients and optimiser steps, wire encode/decode and
/// weight pack/unpack, and comm time per role.
fn print_detail(t: &Totals) {
    for (name, &(ns, calls)) in &t.acc {
        println!(
            "# detail {name:<20} {:>10.3} ms/iter {:>9} calls {:>12.2} us/call",
            ns as f64 / t.iterations.max(1) as f64 / 1e6,
            calls,
            ns as f64 / calls.max(1) as f64 / 1e3
        );
    }
}

/// The per-layer metrics. Each one reads a layer every workload uses, so
/// none is structurally zero; `print_detail` shows the finer split.
fn layer_metrics(t: &Totals) -> Vec<Metric> {
    let iters = t.iterations.max(1) as f64;
    let total_ns = |names: &[&str]| -> f64 {
        names.iter().map(|n| t.acc.get(n).map_or(0, |&(ns, _)| ns)).sum::<u64>() as f64
    };
    let calls = |names: &[&str]| -> f64 {
        names.iter().map(|n| t.acc.get(n).map_or(0, |&(_, c)| c)).sum::<u64>().max(1) as f64
    };
    let unattributed = t
        .coverage
        .iter()
        .map(|&(wall, covered)| 100.0 * (wall as f64 - covered as f64) / wall.max(1) as f64)
        .fold(0.0, f64::max);
    let traced_p50 = stats::median(&t.iter_ns);
    let driver_p50 = stats::median(&t.driver_ns);
    let learn = ["learner.learn", "learner.grads", "learner.apply"];
    let wire_sync = ["wire.encode", "wire.decode", "sync.pack", "sync.unpack"];
    vec![
        Metric::new(
            "env.vec_step_us",
            "us",
            total_ns(&["env.vec_step"]) / calls(&["env.vec_step"]) / 1e3,
        ),
        Metric::new("rollout.collect_ms", "ms", total_ns(&["rollout.collect"]) / iters / 1e6),
        Metric::new("rollout.buffer_ms", "ms", total_ns(&["rollout.buffer"]) / iters / 1e6),
        Metric::new(
            "policy.act_us",
            "us",
            total_ns(&["policy.act"]) / calls(&["policy.act"]) / 1e3,
        ),
        Metric::new(
            "learner.learn_ms",
            "ms",
            total_ns(&learn) / calls(&["learner.learn", "learner.step"]) / 1e6,
        ),
        Metric::new("runtime.wire_sync_ms", "ms", total_ns(&wire_sync) / iters / 1e6),
        Metric::new(
            "comm.wait_ms",
            "ms",
            t.critical_wait_ns as f64 / (iters * t.critical_fragments.max(1) as f64) / 1e6,
        ),
        Metric::new("comm.bytes", "B/iter", t.bytes as f64 / iters),
        Metric::new("comm.msgs", "1/iter", t.msgs as f64 / iters),
        Metric::new("tensor.pool_hit", "1/iter", t.layers.pool_hit as f64 / iters),
        Metric::new("tensor.pool_miss", "1/iter", t.layers.pool_miss as f64 / iters),
        Metric::new("tensor.pack_b", "1/iter", t.layers.pack_b as f64 / iters),
        Metric::new("interp.plan_evals", "1/iter", t.layers.plan_evals as f64 / iters),
        Metric::new("trace.iter_ms", "ms", traced_p50 / 1e6),
        Metric::new("trace.unattributed_pct", "%", unattributed),
        Metric::new("trace.overhead_pct", "%", 100.0 * (traced_p50 / driver_p50 - 1.0)),
    ]
}
