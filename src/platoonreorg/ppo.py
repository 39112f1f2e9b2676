"""Clipped-surrogate policy optimization for the configuration policy.

Actor and critic are small MLPs (one hidden layer plus two fully connected
layers, width 256, tanh) trained with Adam.  Everything is plain numpy so
gradients can be checked against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import config


class Mlp:
    """Tanh MLP; forward keeps the cache needed for a manual backward pass."""

    def __init__(self, sizes, rng):
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
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
    """Actor-critic pair over flattened observations."""

    obs_dim: int
    n_actions: int
    hidden: int = config.DEFAULTS.ppo.hidden_size
    seed: int = 0
    actor: Mlp = field(init=False)
    critic: Mlp = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        sizes = [self.obs_dim, self.hidden, self.hidden, self.n_actions]
        self.actor = Mlp(sizes, rng)
        self.critic = Mlp([self.obs_dim, self.hidden, self.hidden, 1], rng)

    def action_probs(self, obs):
        logits, _ = self.actor.forward(np.atleast_2d(obs))
        return softmax(logits)[0]

    def value(self, obs):
        out, _ = self.critic.forward(np.atleast_2d(obs))
        return float(out[0, 0])

    def save(self, path, extra: dict | None = None):
        arrays = {}
        for tag, net in (("actor", self.actor), ("critic", self.critic)):
            for i, W in enumerate(net.weights):
                arrays[f"{tag}_w{i}"] = W
            for i, b in enumerate(net.biases):
                arrays[f"{tag}_b{i}"] = b
        header = {"version": CHECKPOINT_VERSION, "obs_dim": self.obs_dim,
                  "n_actions": self.n_actions, "hidden": self.hidden}
        header.update(extra or {})
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path):
        data = np.load(path)
        header = json.loads(bytes(data["header"]).decode())
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        net = cls(obs_dim=header["obs_dim"], n_actions=header["n_actions"],
                  hidden=header["hidden"])
        for tag, mlp in (("actor", net.actor), ("critic", net.critic)):
            n = len(mlp.weights)
            mlp.weights = [data[f"{tag}_w{i}"] for i in range(n)]
            mlp.biases = [data[f"{tag}_b{i}"] for i in range(n)]
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
