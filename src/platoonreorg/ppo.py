"""The network configuration policy, the package's only numpy module: noisy
observations, the networks and clipped-surrogate policy optimization.

Actor and critic are small MLPs (one hidden layer plus two fully connected
layers, width 256, tanh) trained with Adam.  Everything is plain numpy so
gradients can be checked against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .world import compute_ttc


# --- observations -------------------------------------------------------------

N_FEATURES = 9  # x, y, vx, vy, ax, ay, jx, jy, ttc

SENTINEL_ROW = (500.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, config.TTC_SENTINEL)

# rough feature scales for flattening into a network input
_SCALES = np.array([100.0, 10.0, 40.0, 40.0, 5.0, 5.0, 10.0, 10.0, config.TTC_SENTINEL])


@dataclass
class Observation:
    rows: list  # K tuples of N_FEATURES floats, ego-relative

    def flatten(self) -> np.ndarray:
        arr = np.array(self.rows, dtype=np.float64)
        arr[:, 8] = np.minimum(arr[:, 8], config.TTC_SENTINEL)
        return (arr / _SCALES).ravel()


def pair_ttc(a, b) -> float:
    """Physical TTC of a pair: the rear one is the follower."""
    follower, leader = (a, b) if a.x <= b.x else (b, a)
    return compute_ttc(follower, leader)


@dataclass
class Observer:
    """Builds fixed-size noisy observations around the platoon leader.

    Acceleration and jerk rows are finite differences of the *noised*
    speeds across successive observations, so they inherit sensor noise.
    """

    k: int = 8
    sigma_pos: float = 0.1
    sigma_vel: float = 0.1
    _prev_v: dict = field(default_factory=dict, init=False)
    _prev_a: dict = field(default_factory=dict, init=False)

    def observe(self, platoon, background, rng, dt: float) -> Observation:
        ego = platoon[0]
        objects = list(platoon[1:])
        others = sorted(background, key=lambda v: (v.x - ego.x) ** 2 + (v.y - ego.y) ** 2)
        objects.extend(others[: max(self.k - len(objects), 0)])
        objects = objects[: self.k]

        ego_vx = ego.speed * math.cos(ego.heading)
        ego_vy = ego.speed * math.sin(ego.heading)
        rows = []
        seen = set()
        for obj in objects:
            seen.add(obj.id)
            nx = obj.x - ego.x + (rng.normal(0.0, self.sigma_pos) if self.sigma_pos else 0.0)
            ny = obj.y - ego.y + (rng.normal(0.0, self.sigma_pos) if self.sigma_pos else 0.0)
            nvx = (obj.speed * math.cos(obj.heading) - ego_vx
                   + (rng.normal(0.0, self.sigma_vel) if self.sigma_vel else 0.0))
            nvy = (obj.speed * math.sin(obj.heading) - ego_vy
                   + (rng.normal(0.0, self.sigma_vel) if self.sigma_vel else 0.0))
            pvx, pvy = self._prev_v.get(obj.id, (nvx, nvy))
            ax = (nvx - pvx) / dt
            ay = (nvy - pvy) / dt
            pax, pay = self._prev_a.get(obj.id, (ax, ay))
            jx = (ax - pax) / dt
            jy = (ay - pay) / dt
            self._prev_v[obj.id] = (nvx, nvy)
            self._prev_a[obj.id] = (ax, ay)
            rows.append((nx, ny, nvx, nvy, ax, ay, jx, jy, pair_ttc(ego, obj)))
        for stale in [k for k in self._prev_v if k not in seen]:
            self._prev_v.pop(stale, None)
            self._prev_a.pop(stale, None)
        while len(rows) < self.k:
            rows.append(SENTINEL_ROW)
        return Observation(rows=rows)


class Mlp:
    """Tanh MLP; forward keeps the cache needed for a manual backward pass.
    Without an ``rng`` its weights start at zero, for a checkpoint to fill."""

    def __init__(self, sizes, rng):
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out))
                                if rng is not None else np.zeros((fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def forward(self, x):
        acts = [x]
        h = x
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ W + b
            h = np.tanh(z) if k < len(self.weights) - 1 else z
            acts.append(h)
        return h, acts

    def backward(self, acts, d_out):
        """Gradients of a scalar loss given d loss / d output."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = d_out
        for k in range(len(self.weights) - 1, -1, -1):
            h_in = acts[k]
            grads_w[k] = h_in.T @ delta
            grads_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (1.0 - acts[k] ** 2)
        return grads_w, grads_b

    def params(self):
        return self.weights + self.biases


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


CHECKPOINT_VERSION = 1


@dataclass
class PolicyNetwork:
    """Actor-critic pair over flattened observations.  A ``seed`` of None
    draws no weights: ``load`` fills them from its file."""

    obs_dim: int
    n_actions: int
    hidden: int = config.DEFAULTS.ppo.hidden_size
    seed: int | None = 0
    actor: Mlp = field(init=False)
    critic: Mlp = field(init=False)

    def __post_init__(self):
        rng = None if self.seed is None else np.random.default_rng(self.seed)
        sizes = [self.obs_dim, self.hidden, self.hidden, self.n_actions]
        self.actor = Mlp(sizes, rng)
        self.critic = Mlp([self.obs_dim, self.hidden, self.hidden, 1], rng)

    def action_probs(self, obs):
        logits, _ = self.actor.forward(np.atleast_2d(obs))
        return softmax(logits)[0]

    def value(self, obs):
        out, _ = self.critic.forward(np.atleast_2d(obs))
        return float(out[0, 0])

    def for_episode(self, actions, seed: int):
        """This network's platoon decision for one episode of ``seed``: a
        function from a ``GameScene`` to the greedy one of ``actions`` on a
        noisy ``Observer``'s features of the scene, not the scene's values."""
        observer = Observer()
        have = (self.obs_dim, self.n_actions)
        want = (observer.k * N_FEATURES, len(actions))
        if have != want:
            n = sum(map(len, actions[0].partition))
            raise ValueError(f"network maps {have[0]} inputs to {have[1]} actions; "
                             f"a {n}-member platoon needs {want[0]} to {want[1]}")
        rng = np.random.default_rng((seed, 17))

        def decide(scene):
            obs = observer.observe(scene.platoon, scene.background, rng, config.DECISION_PERIOD)
            return select_configuration(obs.flatten(), self, actions)[0]
        return decide

    def save(self, path, extra: dict | None = None):
        arrays = {}
        for tag, net in (("actor", self.actor), ("critic", self.critic)):
            for i, W in enumerate(net.weights):
                arrays[f"{tag}_w{i}"] = W
            for i, b in enumerate(net.biases):
                arrays[f"{tag}_b{i}"] = b
        header = {"version": CHECKPOINT_VERSION, "obs_dim": self.obs_dim,
                  "n_actions": self.n_actions, "hidden": self.hidden}
        clash = sorted(header.keys() & (extra or {}).keys())
        if clash:
            raise ValueError(f"extra keys {clash} would overwrite the checkpoint header")
        header.update(extra or {})
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            net = cls(obs_dim=header["obs_dim"], n_actions=header["n_actions"],
                      hidden=header["hidden"], seed=None)
            for tag, mlp in (("actor", net.actor), ("critic", net.critic)):
                for kind, params in (("w", mlp.weights), ("b", mlp.biases)):
                    for i, want in enumerate(params):
                        key = f"{tag}_{kind}{i}"
                        arr = data[key]
                        if arr.shape != want.shape:
                            raise ValueError(f"{key} has shape {arr.shape}; the header "
                                             f"needs {want.shape}")
                        params[i] = arr
        return net, header


def select_configuration(obs_vec, net: PolicyNetwork, actions, mode="greedy", rng=None):
    """Greedy argmax (lowest index wins ties) or seeded sampling."""
    probs = net.action_probs(obs_vec)
    if mode == "greedy":
        idx = int(np.argmax(probs))  # argmax takes the first maximal index
    elif mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        idx = int(rng.choice(len(probs), p=probs / probs.sum()))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return actions[idx], idx, probs


def clipped_surrogate(ratios, advantages, eps):
    """Mean PPO objective: min(r*A, clip(r)*A)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    clipped = np.clip(ratios, 1.0 - eps, 1.0 + eps)
    return float(np.mean(np.minimum(ratios * advantages, clipped * advantages)))


def surrogate_active_mask(ratios, advantages, eps):
    """True where the unclipped branch carries the gradient."""
    ratios = np.asarray(ratios)
    advantages = np.asarray(advantages)
    return ~(((ratios > 1.0 + eps) & (advantages > 0))
             | ((ratios < 1.0 - eps) & (advantages < 0)))


def gae_advantages(rewards, values, dones, last_value, gamma, lam):
    """Generalized advantage estimates and discounted value targets."""
    n = len(rewards)
    adv = np.zeros(n)
    running = 0.0
    next_value = last_value
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        running = delta + gamma * lam * nonterminal * running
        adv[t] = running
        next_value = values[t]
    returns = adv + np.asarray(values)
    return adv, returns


@dataclass
class RolloutBuffer:
    obs: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    dones: list = field(default_factory=list)
    log_probs: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def add(self, obs, action, reward, done, log_prob, value):
        self.obs.append(obs)
        self.actions.append(action)
        self.rewards.append(reward)
        self.dones.append(done)
        self.log_probs.append(log_prob)
        self.values.append(value)

    def __len__(self):
        return len(self.obs)

    def clear(self):
        for lst in (self.obs, self.actions, self.rewards, self.dones,
                    self.log_probs, self.values):
            lst.clear()


@dataclass
class PpoTrainer:
    net: PolicyNetwork
    cfg: config.PpoConfig = field(default_factory=lambda: config.DEFAULTS.ppo)
    seed: int = 0

    def __post_init__(self):
        self.actor_opt = Adam(self.net.actor.params(), self.cfg.learning_rate)
        self.critic_opt = Adam(self.net.critic.params(), self.cfg.learning_rate)
        self.rng = np.random.default_rng(self.seed)
        self.skipped_updates = 0

    def update(self, buffer: RolloutBuffer, last_value: float):
        """One PPO update over the collected rollout; returns loss diagnostics."""
        cfg = self.cfg
        obs = np.array(buffer.obs)
        acts = np.array(buffer.actions)
        old_logp = np.array(buffer.log_probs)
        adv, returns = gae_advantages(buffer.rewards, buffer.values, buffer.dones,
                                      last_value, cfg.gamma, cfg.gae_lambda)
        adv_std = adv.std()
        norm_adv = (adv - adv.mean()) / (adv_std + 1e-8)

        n = len(buffer)
        idx_all = np.arange(n)
        policy_losses, value_losses, entropies = [], [], []
        for _epoch in range(cfg.epochs):
            self.rng.shuffle(idx_all)
            for lo in range(0, n, cfg.batch_size):
                batch = idx_all[lo: lo + cfg.batch_size]
                p_loss, v_loss, ent = self._minibatch_step(
                    obs[batch], acts[batch], old_logp[batch],
                    norm_adv[batch], returns[batch])
                policy_losses.append(p_loss)
                value_losses.append(v_loss)
                entropies.append(ent)
        return {
            "policy_loss": float(np.mean(policy_losses)),
            "value_loss": float(np.mean(value_losses)),
            "entropy": float(np.mean(entropies)),
            "adv_std": float(adv_std),
        }

    def _minibatch_step(self, obs, acts, old_logp, adv, returns):
        cfg = self.cfg
        m = len(obs)
        logits, acts_cache = self.net.actor.forward(obs)
        probs = softmax(logits)
        logp = np.log(probs[np.arange(m), acts] + 1e-12)
        ratios = np.exp(logp - old_logp)
        active = surrogate_active_mask(ratios, adv, cfg.clip_epsilon)

        # maximize the surrogate: d(-L)/dlogits via the masked score function
        coeff = np.where(active, ratios * adv, 0.0) / m
        d_logits = -(coeff[:, None] * (np.eye(probs.shape[1])[acts] - probs))
        if cfg.entropy_coef:
            ent_grad = probs * (np.log(probs + 1e-12)
                                - (probs * np.log(probs + 1e-12)).sum(axis=1, keepdims=True))
            d_logits += cfg.entropy_coef * ent_grad / m
        gw, gb = self.net.actor.backward(acts_cache, d_logits)
        grads = gw + gb
        if not all(np.isfinite(g).all() for g in grads):
            self.skipped_updates += 1
            return 0.0, 0.0, 0.0
        self.actor_opt.step(self.net.actor.params(), grads)

        values, v_cache = self.net.critic.forward(obs)
        v_err = values[:, 0] - returns
        d_v = (cfg.value_coef * v_err / m)[:, None]
        gw, gb = self.net.critic.backward(v_cache, d_v)
        grads = gw + gb
        if not all(np.isfinite(g).all() for g in grads):
            self.skipped_updates += 1
            return 0.0, 0.0, 0.0
        self.critic_opt.step(self.net.critic.params(), grads)

        policy_loss = -clipped_surrogate(ratios, adv, cfg.clip_epsilon)
        value_loss = float(0.5 * cfg.value_coef * np.mean(v_err ** 2))
        entropy = float(-np.mean((probs * np.log(probs + 1e-12)).sum(axis=1)))
        return policy_loss, value_loss, entropy
