"""Command-line entry point: configure, run, and analyze seeded experiments.

Commands:
  train    -- train one run per seed, writing curve CSVs, checkpoints, manifest
  eval     -- greedy policy evaluation of a checkpoint over a scene set
  analyze  -- aggregate run curves (AUC table) and/or capacity reports
  scenes   -- dump a generated scene grid as JSON lines

Exit codes: 0 success; 2 configuration error, any ``qnav.UsageError`` (a bad
config, flag, scene spec or checkpoint, or misuse caught deeper in the
package); 3 runtime failure, any other exception (a diverged run raises a
plain ``ValueError``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import UsageError, __version__, agent, analysis, env, is_int
from .agent import AgentConfig, ActorCriticModel
from .qsim import NoiseSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# configuration


_TOP_KEYS = {"name", "seeds", "agent", "env", "scenes", "output", "smooth_window"}
_SCENE_KEYS = {"split", "scenarios", "speed", "distance"}
_NOISE_KEYS = {f.name for f in dataclasses.fields(NoiseSpec)}


@dataclasses.dataclass
class RunConfig:
    name: str
    seeds: list
    agent: AgentConfig
    env: env.EnvConfig
    scene_spec: dict
    output: str
    smooth_window: int = 100

    def resolved(self) -> dict:
        """The config as the run manifest records it. The agent section has
        no ``seed``: ``seeds`` holds the runs' seeds, and each checkpoint
        records its own."""
        fields = agent.config_to_dict(self.agent)
        del fields["seed"]
        return {
            "name": self.name,
            "seeds": list(self.seeds),
            "agent": fields,
            "env": dataclasses.asdict(self.env),
            "scenes": self.scene_spec,
            "output": self.output,
            "smooth_window": self.smooth_window,
        }


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(raw: dict, key: str, default: dict) -> dict:
    """A copy of the config section ``key``: a mapping, or ``default`` if it
    is missing, empty or null."""
    section = raw.get(key)
    if section is not None and not isinstance(section, dict):
        raise UsageError(f"config section {key!r} must be a mapping, got {section!r}")
    return dict(section or default)


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "config")

    agent_section = _section(raw, "agent", {})
    env_section = _section(raw, "env", {})
    scene_section = _section(raw, "scenes", {"split": "train"})
    name = raw.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise UsageError(f"name must be a string, got {name!r}")
    config = {
        "name": name,
        "seeds": raw.get("seeds", [0]),
        "output": raw.get("output", "runs/" + name),
        "smooth_window": raw.get("smooth_window", 100),
    }
    if not isinstance(config["output"], str):
        raise UsageError(f"output must be a string, got {config['output']!r}")
    if not (isinstance(config["seeds"], list) and config["seeds"]
            and all(map(is_int, config["seeds"]))):
        raise UsageError(f"seeds must be a non-empty list of integers, got {config['seeds']!r}")
    repeated = [s for i, s in enumerate(config["seeds"]) if s in config["seeds"][:i]]
    if repeated:
        raise UsageError(f"seeds lists {repeated[0]} more than once; each seed trains one run")
    if not (is_int(config["smooth_window"]) and config["smooth_window"] >= 1):
        raise UsageError(f"smooth_window must be an integer >= 1, got {config['smooth_window']!r}")
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key in ("seed",):
            config["seeds"] = [val]
        elif key in ("out",):
            config["output"] = val
        elif key in ("critic", "gradient_mode", "episodes", "lr", "noise"):
            agent_section[key] = val
        else:
            raise UsageError(f"unknown override {key!r}")

    if "seed" in agent_section:
        raise UsageError(f"agent.seed is not read: set seeds: [{agent_section['seed']!r}]")
    agent_fields = {f.name for f in dataclasses.fields(AgentConfig)}
    _check_keys(agent_section, agent_fields, "agent")
    env_fields = {f.name for f in dataclasses.fields(env.EnvConfig)}
    _check_keys(env_section, env_fields, "env")
    _check_keys(scene_section, _SCENE_KEYS, "scenes")
    try:
        # noise is a YAML mapping or a --noise flag string
        noise = agent_section.get("noise")
        if isinstance(noise, str):
            noise = _parse_noise_flag(noise)
            agent_section["noise"] = dataclasses.asdict(noise) if noise else None
        elif noise:
            _check_keys(noise, _NOISE_KEYS, "agent.noise")
        agent_config = agent.config_from_dict(agent_section)
        for seed in config["seeds"]:
            dataclasses.replace(agent_config, seed=seed)  # each run's config must build
        env_config = env.EnvConfig(**env_section)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        name=config["name"],
        seeds=config["seeds"],
        agent=agent_config,
        env=env_config,
        scene_spec=scene_section,
        output=config["output"],
        smooth_window=config["smooth_window"],
    )


def _parse_noise_flag(spec: str) -> Optional[NoiseSpec]:
    """--noise "gate_error=0.01,depolarizing=0.05" (or "off")."""
    if spec in ("off", "none", ""):
        return None
    kwargs = {}
    for part in spec.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in _NOISE_KEYS:
            raise UsageError(f"unknown noise field {key!r}")
        if key in kwargs:
            raise UsageError(f"noise field {key!r} given more than once in {spec!r}")
        kwargs[key] = val
    try:
        return NoiseSpec(**{k: float(v) for k, v in kwargs.items()})
    except ValueError as exc:
        raise UsageError(f"bad noise flag {spec!r}: {exc}") from exc


def build_scenes(scene_spec: dict) -> list[env.Scene]:
    split = scene_spec.get("split", "train")
    if split not in ("train", "test"):
        raise UsageError(f"unknown scene split {split!r}")
    try:
        if "scenarios" in scene_spec or "speed" in scene_spec or "distance" in scene_spec:
            base = (env.SceneGrid.train_default() if split == "train"
                    else env.SceneGrid.test_default())
            scenarios = tuple(scene_spec.get("scenarios", base.scenarios))
            speed = scene_spec.get("speed", [base.speed_start, base.speed_stop, base.speed_step])
            dist = scene_spec.get("distance", [base.dist_start, base.dist_stop, base.dist_step])
            grid = env.SceneGrid(scenarios, *map(float, speed), *map(float, dist))
            return env.generate_scenes(split, grid)
        return env.generate_scenes(split)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"bad scene selection: {exc}") from exc


def _flag_scene_spec(args) -> dict:
    """The scene spec of the ``--split`` and ``--scenarios`` flags."""
    scene_spec = {"split": args.split}
    if args.scenarios:
        try:
            scene_spec["scenarios"] = [int(s) for s in args.scenarios.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --scenarios {args.scenarios!r}: {exc}") from exc
    return scene_spec


# ---------------------------------------------------------------------------
# artifacts


def _write_csv(path: Path, rows: list[dict], columns: list[str]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})


def _manifest(run_config: RunConfig, extra: dict) -> dict:
    return {
        "tool": "qnav",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": run_config.resolved(),
        **extra,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    run_config = load_config(args.config, {
        "seed": args.seed,
        "out": args.out,
        "critic": args.critic,
        "gradient_mode": args.gradient_mode,
        "episodes": args.episodes,
        "noise": args.noise,
    })
    scenes = build_scenes(run_config.scene_spec)
    out = Path(run_config.output)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    artifacts = []
    param_counts = {}
    status = "partial"
    try:
        for seed in run_config.seeds:
            seed_config = dataclasses.replace(run_config.agent, seed=seed)
            record, model = agent.train_run(seed_config, scenes, run_config.env)
            curve = out / f"curve_seed{seed}.csv"
            _write_csv(curve, record.to_rows(run_config.smooth_window),
                       ["episode", "return", "smoothed_return", "entropy", "steps", "outcome"])
            ckpt = out / f"checkpoint_seed{seed}.json"
            agent.save_checkpoint(model, str(ckpt), extra={"seed": seed},
                                  env_config=run_config.env)
            artifacts += [curve.name, ckpt.name]
            param_counts = {
                "critic": record.critic_params,
                "total": record.total_params,
            }
            if run_config.agent.critic == "quantum":
                param_counts["layout"] = model.critic.layout.manifest()
        status = "complete"
    finally:
        manifest = _manifest(run_config, {
            "status": status,
            "artifacts": artifacts,
            "param_counts": param_counts,
            "n_scenes": len(scenes),
            "wall_clock_s": time.time() - started,
        })
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
    print(f"trained {len(run_config.seeds)} seed(s) -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, env_config = agent.load_checkpoint(args.checkpoint)
    scenes = build_scenes(_flag_scene_spec(args))
    metrics, per_scene = agent.evaluate_policy(model, scenes, env_config)
    out = Path(args.out or Path(args.checkpoint).parent)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics.to_dict(), fh, indent=2)
    _write_csv(out / "outcomes.csv", per_scene,
               ["scene", "scenario", "ped_speed", "ped_distance", "outcome",
                "steps", "return", "near_miss", "time_to_goal"])
    print(json.dumps(metrics.to_dict(), indent=2))
    return EXIT_OK


def _read_curve(path: Path) -> list[float]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [float(row["return"]) for row in csv.DictReader(fh)]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read curve CSV {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"curve CSV {path} needs a numeric 'return' column: "
                         f"{exc!r}") from exc


def cmd_analyze(args) -> int:
    for flag, value, least in (("--theta-samples", args.theta_samples, 2),
                               ("--inputs", args.inputs, 1),
                               ("--smooth-window", args.smooth_window, 1),
                               ("--seed", args.seed or 0, 0)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    if not (args.runs or args.fim):
        raise UsageError("nothing to analyze: give --runs, --fim or both")
    curves, names = [], []
    for run_dir in args.runs:
        for curve in sorted(Path(run_dir).glob("curve_seed*.csv")):
            curves.append(_read_curve(curve))
            names.append(str(curve))
    if args.runs and not curves:
        raise UsageError("no curve CSVs found in the given run directories")
    model = agent.load_checkpoint(args.fim)[0] if args.fim else None
    out = Path(args.out or (args.runs[0] if args.runs else "."))
    out.mkdir(parents=True, exist_ok=True)
    if curves:
        if len({len(c) for c in curves}) > 1:
            print("warning: mixed-length runs, truncating to the shortest", file=sys.stderr)
        stats = analysis.aggregate_runs(curves, smooth_window=args.smooth_window)
        _write_csv(out / "curve_stats.csv",
                   [{"episode": i, "mean": stats.mean[i], "std": stats.std[i],
                     "min": stats.low[i], "max": stats.high[i]}
                    for i in range(stats.length)],
                   ["episode", "mean", "std", "min", "max"])
        _write_csv(out / "auc.csv",
                   [{"run": name, "auc": a} for name, a in zip(names, stats.aucs)]
                   + [{"run": "mean", "auc": stats.auc_mean},
                      {"run": "std", "auc": stats.auc_std}],
                   ["run", "auc"])
        print(f"AUC mean {stats.auc_mean:.2f} std {stats.auc_std:.2f} over {stats.n_runs} runs")
    if model is not None:
        report = capacity_report(model, theta_samples=args.theta_samples,
                                 n_inputs=args.inputs, seed=args.seed or 0)
        with open(out / "fim.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        top = report.eigenvalues[:50]
        _write_csv(out / "eigenspectrum.csv",
                   [{"rank": i + 1, "eigenvalue": v} for i, v in enumerate(top)],
                   ["rank", "eigenvalue"])
        print(f"effective dimension {report.effective_dim:.2f} "
              f"(normalized {report.normalized_effective_dim:.3f}) of d={report.d}")
    return EXIT_OK


def capacity_report(model: ActorCriticModel, theta_samples: int = 20,
                    n_inputs: int = 200, seed: int = 0,
                    gamma: float = 1.0, n_data: int = 3690) -> analysis.FIMReport:
    """FIM / effective-dimension report for a model's critic.

    Inputs are sampled uniformly from the critic input cube (-1, 1)^p,
    matching the tanh-bounded hidden state it sees in training.
    """
    rng = np.random.default_rng(seed)
    critic = model.critic
    p = model.config.lstm_hidden
    inputs = np.stack([rng.uniform(-1.0, 1.0, size=p) for _ in range(n_inputs)])
    thetas = [agent.sample_critic_param_vector(critic, rng) for _ in range(theta_samples)]
    saved = model.critic_flat.copy()

    def grads_at(theta_vec):
        model.critic_flat[...] = theta_vec
        return agent.critic_grad_vector(critic, inputs)

    try:
        report = analysis.fim_report(grads_at, thetas, gamma=gamma, n_data=n_data)
    finally:
        model.critic_flat[...] = saved
    return report


def cmd_scenes(args) -> int:
    scenes = build_scenes(_flag_scene_spec(args))
    rows = [
        {
            "scenario": s.scenario_id,
            "car_start": list(s.car_start),
            "car_goal": list(s.car_goal),
            "ped_distance": s.ped_distance,
            "ped_speed": s.ped_speed,
            "ped_spawn": list(s.ped_spawn),
            "n_obstacles": len(s.obstacles),
            "n_other_cars": len(s.other_cars),
        }
        for s in scenes
    ]
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    print(f"{len(scenes)} scenes ({args.split})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnav")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one run per seed")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override: single seed")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--critic", choices=["quantum", "classical"], default=None)
    p_train.add_argument("--gradient-mode", dest="gradient_mode",
                         choices=["backprop", "param-shift"], default=None)
    p_train.add_argument("--episodes", type=int, default=None)
    p_train.add_argument("--noise", default=None,
                         help='e.g. "gate_error=0.01,depolarizing=0.05" or "off"')
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "test"], default="test")
    p_eval.add_argument("--scenarios", default=None, help="comma-separated scenario ids")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="curve stats / AUC table / capacity report")
    p_an.add_argument("--runs", nargs="*", default=[], help="run directories with curve CSVs")
    p_an.add_argument("--fim", default=None, help="checkpoint for a capacity report")
    p_an.add_argument("--theta-samples", type=int, default=20)
    p_an.add_argument("--inputs", type=int, default=200)
    p_an.add_argument("--seed", type=int, default=None)
    p_an.add_argument("--smooth-window", type=int, default=100)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sc = sub.add_parser("scenes", help="dump a generated scene grid")
    p_sc.add_argument("--split", choices=["train", "test"], default="train")
    p_sc.add_argument("--scenarios", default=None)
    p_sc.add_argument("--out", default=None)
    p_sc.set_defaults(func=cmd_scenes)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
