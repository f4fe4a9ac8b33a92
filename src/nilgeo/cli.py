"""Configuration-driven verification harness.

Reads a flat key = value configuration (optional [section] headers are
allowed and ignored), runs the selected property suites against one model
configuration, and emits a line-oriented report:

    1..N
    ok 1 - prop-1.1 model=heisenberg seed=7 trial=0
    ...
    # pass=N fail=0 total=N

The report is a pure function of the configuration: the seed determines
every sampled input, so identical configurations give identical bytes.
Exit status: 0 all pass, 1 any failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .models import all_models, build_model
from .sampling import DENOMINATORS, preset_names
from .suites import SUITES, SUITE_NAMES, SuiteParams, check_bianchi_mutation, nonzero_curvature_witnesses


class ConfigError(ValueError):
    """Bad configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    model: str
    structure_group: str | None = None
    base_dim: int | None = None
    connection: str = "random"
    coeff_bound: Fraction = Fraction(2)
    poly_degree: int = 2
    seed: int = 0
    trials: int = 100
    suite: str = "all"
    mutation: bool = False


_KEYS = {f.name for f in fields(RunConfig)}


def _parse_rational(text: str, lineno: int) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"line {lineno}: not a rational: {text!r}")


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: not an integer: {text!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate the key = value configuration grammar."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})"
            )
        seen[key] = lineno
        if key in ("base_dim", "poly_degree", "seed", "trials"):
            values[key] = _parse_int(value, lineno)
        elif key == "coeff_bound":
            bound = _parse_rational(value, lineno)
            if bound <= 0:
                raise ConfigError(f"line {lineno}: coefficient bound must be positive")
            values[key] = bound
        elif key == "mutation":
            if value not in ("true", "false"):
                raise ConfigError(f"line {lineno}: mutation must be true or false")
            values[key] = value == "true"
        else:
            values[key] = value
    if "model" not in values:
        raise ConfigError("missing required key: model")
    if "seed" not in values:
        raise ConfigError("missing required key: seed")
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    try:
        model = build_model(cfg.model, cfg.structure_group)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if cfg.base_dim is not None and cfg.base_dim != model.base_dim:
        raise ConfigError(f"{model.name} has base dimension {model.base_dim}")
    if not 0 <= cfg.seed < 1 << 64:
        raise ConfigError("seed must fit in 64 bits")
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {cfg.suite!r}; choices: {', '.join(SUITE_NAMES)}"
        )
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.coeff_bound * max(DENOMINATORS) < 1:
        # below this floor every sampled coefficient is 0
        raise ConfigError(f"coeff_bound must be at least 1/{max(DENOMINATORS)}")
    if not 0 <= cfg.poly_degree <= 3:
        raise ConfigError("poly_degree must be between 0 and 3")
    if cfg.connection != "random" and not cfg.connection.startswith("preset:"):
        raise ConfigError("connection must be 'random' or 'preset:<name>'")
    if cfg.connection.startswith("preset:"):
        name = cfg.connection.split(":", 1)[1]
        if name not in preset_names(model):
            raise ConfigError(
                f"unknown preset {name!r} for {model.name}; choices: "
                + ", ".join(preset_names(model))
            )


def run_suite(cfg: RunConfig) -> tuple[int, list[str]]:
    """Run the configured checks; returns (exit status, report lines)."""
    model = build_model(cfg.model, cfg.structure_group)
    params = SuiteParams(
        connection=cfg.connection,
        bound=cfg.coeff_bound,
        degree=cfg.poly_degree,
    )
    suite_names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    results = []
    for suite_name in suite_names:
        for check in SUITES[suite_name]:
            rng = random.Random(f"{cfg.seed}:{model.name}:{check.__name__}")
            results.extend(check(model, rng, cfg.trials, params))
        if suite_name == "curvature":
            results.extend(nonzero_curvature_witnesses(model.name))
        if suite_name == "bianchi" and cfg.mutation:
            rng = random.Random(f"{cfg.seed}:{model.name}:mutation")
            results.extend(check_bianchi_mutation(model, rng, 1, params))
    lines = [f"1..{len(results)}"]
    passed = 0
    trial_index: dict[str, int] = {}
    for k, res in enumerate(results, 1):
        mark = "ok" if res.ok else "not ok"
        passed += res.ok
        idx = trial_index.get(res.prop_id, 0)
        trial_index[res.prop_id] = idx + 1
        line = f"{mark} {k} - {res.prop_id} model={model.name} seed={cfg.seed} trial={idx}"
        if res.note:
            line += f" # {res.note}"
        lines.append(line)
    failed = len(results) - passed
    lines.append(f"# pass={passed} fail={failed} total={len(results)}")
    return (0 if failed == 0 else 1), lines


def _list_models() -> list[str]:
    lines = []
    for model in all_models():
        group = "" if model.structure is None else f" structure_group={model.structure}"
        lines.append(f"{model.family}{group} presets: " + ", ".join(preset_names(model)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilgeo", description="run the groupoid-calculus property suites"
    )
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--suite", help="override the configured suite")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--mutation", action="store_true", help="run the mutation check")
    parser.add_argument(
        "--list-models", action="store_true", help="list registered models and presets"
    )
    args = parser.parse_args(argv)

    if args.list_models:
        for line in _list_models():
            print(line)
        return 0
    if not args.config:
        print("error: --config is required (or use --list-models)", file=sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        overrides = {
            key: value
            for key in ("seed", "suite", "trials")
            if (value := getattr(args, key)) is not None
        }
        if args.mutation:
            overrides["mutation"] = True
        if overrides:
            cfg = replace(cfg, **overrides)
            _validate_config(cfg)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, lines = run_suite(cfg)
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
