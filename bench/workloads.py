"""The four qnav benchmark workloads.

Each workload is a closed loop in one process: one episode at a time, and
for training one optimizer step per episode. Its inputs come from the seed
alone. The loop drives only the public API (`agent.train_run`,
`agent.evaluate_policy`); the benchmark observes it by wrapping
`agent.run_episode`, whose start is the episode boundary and the only place
the untraced run reads the clock. All output checks run outside the timed
region.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from qnav import agent, encoding, env, nn, planner, qsim
from qnav.qsim import NoiseSpec

import tracer as tracing
from hostspeed import NOMINAL_S, HostProbe, probe_seconds

LAYER_MODULES = (qsim, encoding, nn, planner, env, agent)
OUTCOMES = ("goal", "collision", "timeout")

# Training episodes are capped with EnvConfig.max_steps and AgentConfig.max_steps
# set to the same value, so a capped episode ends as a "timeout" with a
# bootstrap. The caps keep enough whole episodes in one run for a steady
# per-episode median; the per-step work is the same as in an uncapped episode.
TRAIN_CAP = 50
PARAMSHIFT_CAP = 2  # a parameter-shift step costs about 1 s
# The test grid (8 scenarios x 1215 scenes, scenario-major) is visited from a
# seeded offset with this stride; 1223 = 1215 + 8 is coprime to 9720 and moves
# to the next scenario on almost every scene.
TEST_STRIDE = 1223
EVAL_CHUNK = 8  # scenes per evaluate_policy call; the deadline is checked between calls
# eval-grid evaluates one fixed classical checkpoint: the init stream of this
# seed. Its greedy policy ends scenes as goal, collision and timeout, as a
# partly trained policy does. Most untrained inits never leave speed 0 and
# time out on every scene, which would make eval a bare env.step loop.
EVAL_MODEL_SEED = 3
GRADCHECK_STATES = 2
GRADCHECK_TOL = 1e-10

CRITIC_VALUE = ("agent.QuantumCritic.value", "agent.ClassicalCritic.value")
CRITIC_GRAD = ("agent.QuantumCritic.value_and_grads", "agent.ClassicalCritic.value_and_grads")
NAMED_SPANS = CRITIC_VALUE + CRITIC_GRAD + (
    "agent.run_episode", "agent.ActorCriticModel.trunk_forward",
    "agent.ActorCriticModel.trunk_backward", "nn.Adam.update", "env.step", "env.reset",
    "env.build_observation", "planner.plan_path", "planner.tracking_steering",
    "planner.cross_track_error",
)


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    critic: str
    gradient_mode: str = "backprop"
    noise: Optional[NoiseSpec] = None
    cap: Optional[int] = None  # None: evaluation with the default EnvConfig
    check_size: int = 2  # episodes repeated for the determinism check (eval: scenes)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("train-quantum",
             "headline config: 4-qubit 2-layer adjoint critic, noise off; qsim dominates",
             "quantum", cap=TRAIN_CAP),
        Spec("train-paramshift-noisy",
             "same circuit, parameter-shift gradients under gate error and depolarizing noise",
             "quantum", "param-shift", NoiseSpec(gate_error=0.01, depolarizing=0.05),
             cap=PARAMSHIFT_CAP, check_size=1),
        Spec("train-classical",
             "dense critic on the same trunk and grid; qsim idle, nn and agent glue dominate",
             "classical", cap=TRAIN_CAP),
        Spec("eval-grid",
             "greedy evaluation over a stride of the test grid; reset/A* and env.step dominate",
             "classical", check_size=EVAL_CHUNK),
    )
}


@dataclass
class Inputs:
    spec: Spec
    seed: int
    config: agent.AgentConfig
    env_config: env.EnvConfig
    scenes: list
    model: agent.ActorCriticModel


def setup(name: str, seed: int) -> Inputs:
    """Scene generation and model (plus circuit) construction: what setup_s covers."""
    spec = SPECS[name]
    if spec.cap is None:
        env_config = env.EnvConfig()
        config = agent.AgentConfig(critic=spec.critic, seed=EVAL_MODEL_SEED)
        grid = env.generate_scenes("test", config=env_config)
        offset = int(np.random.default_rng(seed).integers(len(grid)))
        scenes = [grid[(offset + k * TEST_STRIDE) % len(grid)] for k in range(len(grid))]
    else:
        env_config = env.EnvConfig(max_steps=spec.cap)
        config = agent.AgentConfig(
            critic=spec.critic, n_qubits=4, n_layers=2, lstm_hidden=32,
            gradient_mode=spec.gradient_mode, noise=spec.noise, max_steps=spec.cap, seed=seed)
        scenes = env.generate_scenes("train", config=env_config)
    return Inputs(spec, seed, config, env_config, scenes, new_model(config, env_config))


def new_model(config: agent.AgentConfig, env_config: env.EnvConfig) -> agent.ActorCriticModel:
    """The model train_run would build for this config (same init stream)."""
    return agent.ActorCriticModel(config, env.observation_dim(env_config),
                                  agent.rng_streams(config.seed)["init"])


# ---------------------------------------------------------------------------
# the closed loop


class _Deadline(Exception):
    """Raised at an episode boundary once the run's seconds are used up."""


@dataclass
class EpisodeLog:
    """What the boundary hooks saw: one duration per finished episode, in order."""

    durations: list = field(default_factory=list)  # s
    episodes: list = field(default_factory=list)  # (return, steps, outcome)
    losses: list = field(default_factory=list)  # (j_v, j_pi) per optimizer step
    rows: list = field(default_factory=list)  # evaluate_policy per-scene rows
    aggregates: list = field(default_factory=list)  # (PolicyMetrics, rows) per call
    reads: dict = field(default_factory=dict)  # episode -> {"values": n, "bootstrap": 1}
    crash: Optional[str] = None
    first: Optional[float] = None
    last: Optional[float] = None
    _open: Optional[float] = None

    def boundary(self, now: float) -> None:
        if self._open is not None:
            self.durations.append(now - self._open)
        if self.first is None:
            self.first = now
        self.last = now
        self._open = None

    @property
    def finished(self) -> int:
        return len(self.durations)

    @property
    def elapsed(self) -> float:
        """Seconds inside finished episodes (host probes between them excluded)."""
        return sum(self.durations)

    @property
    def steps(self) -> int:
        return sum(ep[1] for ep in self.episodes[: self.finished])

    def failed(self) -> int:
        bad = 0
        for i, (ret, _, _) in enumerate(self.episodes[: self.finished]):
            loss_bad = i < len(self.losses) and not all(map(math.isfinite, self.losses[i]))
            bad += (not math.isfinite(ret)) or loss_bad
        return bad + (self.crash is not None)

    def attempted(self) -> int:
        return self.finished + (self.crash is not None)


class Hooks:
    """Wraps agent.run_episode (episode boundary, outcome capture) and
    agent.episode_gradients (loss capture) for the duration of a pass."""

    def __init__(self, log: EpisodeLog, seconds: Optional[float] = None,
                 tracer: Optional[tracing.Tracer] = None, probe: Optional[HostProbe] = None):
        self.log, self.seconds, self.tracer, self.probe = log, seconds, tracer, probe
        self._saved = []

    def __enter__(self):
        log, seconds, tracer, probe = self.log, self.seconds, self.tracer, self.probe
        run_episode, episode_gradients = agent.run_episode, agent.episode_gradients
        counting = _read_counting_class(log) if tracer is not None else None

        def run_episode_hook(*args, **kwargs):
            now = time.perf_counter()
            log.boundary(now)
            index = len(log.episodes)
            if probe is not None:
                now = probe.maybe_sample(now, index)
            if seconds is not None and now - log.first >= seconds:
                raise _Deadline
            if tracer is not None:
                tracer.episode = index
            log._open = now
            trace = run_episode(*args, **kwargs)
            log.episodes.append((trace.episode_return, trace.steps, trace.outcome))
            if counting is not None:
                trace.__class__ = counting
                object.__setattr__(trace, "_bench_episode", index)
            return trace

        def episode_gradients_hook(*args, **kwargs):
            grads, j_v, j_pi = episode_gradients(*args, **kwargs)
            log.losses.append((j_v, j_pi))
            return grads, j_v, j_pi

        self._patch(agent, "run_episode", run_episode_hook)
        self._patch(agent, "episode_gradients", episode_gradients_hook)
        return self

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


def _read_counting_class(log: EpisodeLog):
    """EpisodeTrace subclass that records which critic outputs the loop reads."""

    class ReadCountingTrace(agent.EpisodeTrace):
        def __getattribute__(self, attr):
            if attr in ("values", "bootstrap"):
                ep = object.__getattribute__(self, "_bench_episode")
                seen = log.reads.setdefault(ep, {})
                if attr == "values":
                    seen["values"] = len(object.__getattribute__(self, "values"))
                else:
                    seen["bootstrap"] = 1
            return object.__getattribute__(self, attr)

    return ReadCountingTrace


def train_pass(inp: Inputs, log: EpisodeLog, model=None, seconds=None, episodes=None,
               tracer=None, probe=None) -> Optional[agent.RunRecord]:
    """Train until `seconds` run out or for `episodes` episodes; returns the
    RunRecord when train_run returns on its own."""
    config = replace(inp.config, episodes=episodes if episodes is not None else 10**9)
    with Hooks(log, seconds, tracer, probe):
        try:
            record, _ = agent.train_run(config, inp.scenes, inp.env_config, model=model)
        except _Deadline:
            return None
        except Exception as exc:  # the run reports the failure instead of dying
            log.crash = f"{type(exc).__name__}: {exc}"
            return None
        log.boundary(time.perf_counter())
    return record


def eval_pass(inp: Inputs, log: EpisodeLog, model, seconds=None, scenes=None,
              tracer=None, probe=None) -> None:
    with Hooks(log, None, tracer, probe):
        start = 0
        while True:
            if scenes is not None and start >= scenes:
                break
            if seconds is not None and log.first is not None and log.last - log.first >= seconds:
                break
            chunk = [inp.scenes[(start + k) % len(inp.scenes)] for k in range(EVAL_CHUNK)]
            try:
                metrics, rows = agent.evaluate_policy(model, chunk, inp.env_config)
            except Exception as exc:  # the run reports the failure instead of dying
                log.crash = f"{type(exc).__name__}: {exc}"
                break
            log.boundary(time.perf_counter())
            log.rows.extend(rows)
            log.aggregates.append((metrics, rows))
            start += EVAL_CHUNK


def run_pass(inp: Inputs, log: EpisodeLog, model, seconds=None, size=None, tracer=None,
             probe=None):
    if inp.spec.cap is None:
        eval_pass(inp, log, model, seconds, size, tracer, probe)
        return None
    return train_pass(inp, log, model, seconds, size, tracer, probe)


# ---------------------------------------------------------------------------
# fingerprints and output checks (never inside a timed region)


def fingerprint(inp: Inputs, log: EpisodeLog, count: Optional[int] = None) -> str:
    n = log.finished if count is None else count
    if inp.spec.cap is None:
        rows = log.rows[:n]
        mix = {o: sum(r["outcome"] == o for r in rows) for o in OUTCOMES}
        payload = {"rows": rows, "outcomes": mix}
    else:
        payload = {"episodes": log.episodes[:n]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_repeat(inp: Inputs, reference: EpisodeLog, timed: EpisodeLog) -> tuple[bool, str]:
    """The timed run's first episodes equal an earlier run of the same seed."""
    k = inp.spec.check_size
    if timed.finished < k:
        return False, f"timed run finished {timed.finished} < {k} episodes"
    same = fingerprint(inp, reference, k) == fingerprint(inp, timed, k)
    if inp.spec.cap is not None:
        same &= reference.losses[:k] == timed.losses[:k]
    return same, f"first {k} {'scenes' if inp.spec.cap is None else 'episodes'}"


def check_train(inp: Inputs, reference: EpisodeLog, record: Optional[agent.RunRecord],
                timed: EpisodeLog) -> list[str]:
    """Hook captures match the public RunRecord; every episode ends properly."""
    problems = []
    if record is None:
        return ["the warm-up train_run did not return a RunRecord"]
    got = reference.episodes
    if got != list(zip(record.returns, record.steps, record.outcomes)):
        problems.append("hook-captured episodes differ from RunRecord")
    if [jv for jv, _ in reference.losses] != record.value_losses:
        problems.append("hook-captured value losses differ from RunRecord")
    for log in (reference, timed):
        for ret, steps, outcome in log.episodes[: log.finished]:
            if outcome not in OUTCOMES:
                problems.append(f"episode outcome {outcome!r}")
            elif not 1 <= steps <= inp.spec.cap or (outcome == "timeout" and steps != inp.spec.cap):
                problems.append(f"{outcome} after {steps} steps with cap {inp.spec.cap}")
    return problems


def check_eval(inp: Inputs, log: EpisodeLog) -> list[str]:
    """Per-scene rows are well formed and each call's aggregates follow from its rows."""
    problems = []
    cfg = inp.env_config
    for metrics, rows in log.aggregates:
        for row in rows:
            ttg = row["time_to_goal"]
            if row["outcome"] not in OUTCOMES or not 1 <= row["steps"] <= cfg.max_steps:
                problems.append(f"scene row {row}")
            elif (row["outcome"] == "goal") != (ttg is not None) or (
                    ttg is not None and ttg != row["steps"] * cfg.dt):
                problems.append(f"time_to_goal in {row}")
            elif row["outcome"] == "timeout" and row["steps"] != cfg.max_steps:
                problems.append(f"timeout before max_steps in {row}")
        n = len(rows)
        crash = 100.0 * sum(r["outcome"] == "collision" for r in rows) / n
        near = 100.0 * sum(r["near_miss"] for r in rows) / n
        ttgs = [r["time_to_goal"] for r in rows if r["time_to_goal"] is not None]
        expect = (crash, near, len({r["scenario"] for r in rows}),
                  float(np.mean([r["return"] for r in rows])),
                  float(np.mean(ttgs)) if ttgs else None)
        got = (metrics.crash_rate, metrics.near_miss_rate, metrics.n_scenarios,
               metrics.mean_return, metrics.time_to_goal)
        if got != expect:
            problems.append(f"aggregates {got} != {expect}")
    covered = {r["scenario"] for r in log.rows}
    if log.finished >= 2 * EVAL_CHUNK and covered != set(env.TEST_SCENARIOS):
        problems.append(f"stride covered scenarios {sorted(covered)}")
    return problems


def check_gradients(model: agent.ActorCriticModel) -> float:
    """Largest |adjoint - parameter-shift| over value, parameter and input
    gradients of the (noise-free) quantum critic on fixed hidden states."""
    rng = np.random.default_rng(20092823)
    worst = 0.0
    for _ in range(GRADCHECK_STATES):
        h = np.tanh(rng.normal(size=model.config.lstm_hidden))
        v_a, g_a, dh_a = model.critic.value_and_grads(h, mode="backprop")
        v_p, g_p, dh_p = model.critic.value_and_grads(h, mode="param-shift")
        diffs = [abs(v_a - v_p), np.max(np.abs(dh_a - dh_p))]
        diffs += [np.max(np.abs(np.asarray(g_a[k]) - np.asarray(g_p[k]))) for k in g_a]
        worst = max(worst, *map(float, diffs))
    return worst


# ---------------------------------------------------------------------------
# per-layer numbers from a traced pass


class PlanCounter:
    """Counts planner.plan_path calls and distinct (cost map, start, goal) layouts."""

    def __init__(self):
        self.calls = 0
        self.layouts = set()
        self._saved = None

    def __enter__(self):
        plan_path = planner.plan_path
        signature = inspect.signature(plan_path)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            cmap = a.pop("cost_map")
            self.calls += 1
            self.layouts.add((cmap.x0, cmap.y0, cmap.resolution, cmap.costs.shape,
                              cmap.costs.tobytes(), *map(repr, a.values())))
            return plan_path(*args, **kwargs)

        self._saved = plan_path
        planner.plan_path = counted
        return self

    def __exit__(self, *exc):
        planner.plan_path = self._saved
        return False


def layer_metrics(table: tracing.SpanTable, log: EpisodeLog, plans: PlanCounter,
                  traced_s: float, untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and the base counts behind each ratio; traced_s and
    untraced_s are the wall times of the traced pass and of its untraced repeat."""
    steps = max(log.steps, 1)

    def per_step_us(ns):
        return ns / 1e3 / steps

    m = {}
    for layer in table.layers:
        m[f"{layer}.self_us_per_step"] = per_step_us(table.layer_self_ns(layer))
        m[f"{layer}.calls_per_step"] = table.layer_calls(layer) / steps
    rollout_values = table.child_of(CRITIC_VALUE, ("agent.run_episode",))
    computed = np.bincount(table.episode[rollout_values], minlength=log.finished)
    values_read = 0
    for ep, seen in log.reads.items():
        values_read += seen.get("values", 0)
        # a bootstrap is a critic value only when the rollout computed one more
        # value than it took steps
        if seen.get("bootstrap") and ep < log.finished and computed[ep] > log.episodes[ep][1]:
            values_read += 1
    values_computed = int(rollout_values.sum())
    m.update({
        "critic.forward_us_per_step": per_step_us(table.inclusive_ns(*CRITIC_VALUE)),
        "critic.grad_us_per_step": per_step_us(table.inclusive_ns(*CRITIC_GRAD)),
        "critic.value_calls_per_step": table.calls(*CRITIC_VALUE) / steps,
        "critic.value_read_ratio": values_read / values_computed if values_computed else 0.0,
        "critic.values_computed": values_computed,
        "trunk.forward_us_per_step": per_step_us(
            table.inclusive_ns("agent.ActorCriticModel.trunk_forward")),
        "trunk.backward_us_per_step": per_step_us(
            table.inclusive_ns("agent.ActorCriticModel.trunk_backward")),
        "optimizer.step_ms_p50": table.median_ns("nn.Adam.update") / 1e6,
        "env.step_us_p50": table.median_ns("env.step") / 1e3,
        "env.reset_ms_p50": table.median_ns("env.reset") / 1e6,
        "env.observation_us_p50": table.median_ns("env.build_observation") / 1e3,
        "planner.plan_ms_p50": table.median_ns("planner.plan_path") / 1e6,
        "planner.tracking_us_per_step": per_step_us(
            table.inclusive_ns("planner.tracking_steering", "planner.cross_track_error")),
        "planner.plans_per_layout": plans.calls / len(plans.layouts) if plans.layouts else 0.0,
        "planner.plan_calls": plans.calls,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.unaccounted_us_per_step": per_step_us(traced_s * 1e9 - table.root_ns()),
    })
    bases = {
        "env_steps": log.steps,
        "episodes": log.finished,
        "critic.values_read": values_read,
        "critic.values_computed": values_computed,
        "planner.plan_calls": plans.calls,
        "planner.distinct_layouts": len(plans.layouts),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.spans": len(table.rows),
        "missing_span_names": [n for n in NAMED_SPANS if n not in table.names],
    }
    return m, bases
