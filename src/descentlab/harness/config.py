"""Experiment configuration: one flat key-value file format, validated.

A config file is plain text: ``key = value`` per line, ``#`` comments,
blank lines ignored.  Keys are flat (no sections).  Three keys are
common to every experiment:

    experiment = sparse-risk        # which experiment to run
    seed = 42                       # master seed, default 0
    output = out/sparse.csv         # output path, optional

All other keys are the experiment's fields, given by its entry in
``runner.EXPERIMENTS``; unknown keys are rejected rather than ignored,
so a typo cannot silently fall back to a default.  Values are typed:
integers, finite floats, bare strings, and comma-separated integer lists
with at least one entry and no empty one.  Each ``Field`` declares its bounds, so whatever the
runner cannot use is a config error at load time.  So is an output path
that is empty, is a directory or lies under a file, and a run whose
largest arrays, as the entry's ``price`` gives them, would not fit in
physical memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class Field:
    """One config field of an experiment: name, value kind and default.

    The bounds apply to a number, or to every entry of a number list:
    ``min`` from below, ``above`` strictly from below, ``below`` strictly
    from above, and ``at_most`` from above by the value of the named key
    of the same experiment.  A list with ``increasing`` set must have
    strictly increasing entries.
    """

    name: str
    kind: str  # int | float | str | int_list
    default: object
    choices: tuple | None = None
    min: float | None = None
    above: float | None = None
    below: float | None = None
    at_most: str | None = None
    increasing: bool = False


# Seeds are hashed as 64-bit unsigned integers; anything outside that
# range would alias a seed inside it.
SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: experiment, seed, typed parameters, output."""

    experiment: str
    seed: int
    parameters: dict
    output_path: str


def _entries(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _parse_value(field: Field, text: str):
    value = _parse_kind(field, text)
    for v in _entries(value):
        if field.min is not None and v < field.min:
            raise ConfigError(f"key {field.name!r}: {v} is below the minimum {field.min}")
        if field.above is not None and v <= field.above:
            raise ConfigError(f"key {field.name!r}: {v} must be above {field.above}")
        if field.below is not None and v >= field.below:
            raise ConfigError(f"key {field.name!r}: {v} must be below {field.below}")
    if field.increasing and any(a >= b for a, b in zip(value, value[1:])):
        raise ConfigError(f"key {field.name!r}: entries must be strictly increasing, got {text}")
    return value


def _parse_kind(field: Field, text: str):
    try:
        if field.kind == "int":
            return int(text)
        if field.kind == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ConfigError(f"key {field.name!r}: {text!r} is not a finite number")
            return value
        if field.kind == "int_list":
            tokens = [tok.strip() for tok in text.split(",")]
            if tokens == [""]:
                raise ConfigError(f"key {field.name!r}: needs at least one entry")
            # A dropped entry may be a typo for a missing value.
            if "" in tokens:
                raise ConfigError(f"key {field.name!r}: {text!r} has an empty entry")
            return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ConfigError(
            f"key {field.name!r}: cannot parse {text!r} as {field.kind}"
        ) from None
    if field.choices is not None and text not in field.choices:
        raise ConfigError(f"key {field.name!r}: {text!r} not in {sorted(field.choices)}")
    return text


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the raw key-value lines; values stay strings here."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config(path, experiment=None, seed=None, output=None) -> ExperimentConfig:
    """Read a config file and resolve it against its experiment's fields.

    ``experiment`` (from the CLI subcommand) must agree with the file's
    ``experiment`` key when both are present.  ``seed`` and ``output``
    override the file's values.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None

    file_experiment = raw.pop("experiment", None)
    if file_experiment is None and experiment is None:
        raise ConfigError("config file does not name an experiment")
    if (
        file_experiment is not None
        and experiment is not None
        and file_experiment != experiment
    ):
        raise ConfigError(
            f"config file is for {file_experiment!r}, but {experiment!r} was requested"
        )
    name = experiment or file_experiment
    # Imported here: the runners import this module for ``Field``.
    from .runner import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {list(EXPERIMENTS)}")

    if seed is None:
        seed_text = raw.pop("seed", "0")
        seed = _parse_value(Field("seed", "int", 0), seed_text)
    else:
        raw.pop("seed", None)
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    if output is None:
        output = raw.pop("output", f"{name}.csv")
    else:
        raw.pop("output", None)
    if not output:
        raise ConfigError("key 'output': the path is empty")
    if os.path.isdir(output):
        raise ConfigError(f"key 'output': {output} is a directory, not a file to write")
    # The run creates the missing directories of the output, so the nearest
    # one that exists must be a directory for its CSV to be written.
    ancestor = os.path.dirname(os.path.abspath(output))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"key 'output': cannot write {output}: {ancestor} is not a directory")

    schema = EXPERIMENTS[name].fields
    known = {f.name for f in schema}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown keys for experiment {name!r}: {sorted(unknown)}"
        )
    parameters = {
        f.name: _parse_value(f, raw[f.name]) if f.name in raw else f.default for f in schema
    }
    for f in schema:
        if f.at_most is not None:
            limit = parameters[f.at_most]
            for v in _entries(parameters[f.name]):
                if v > limit:
                    raise ConfigError(f"key {f.name!r}: {v} is above {f.at_most} = {limit}")
    _check_fits(EXPERIMENTS[name].price(parameters))
    return ExperimentConfig(
        experiment=name, seed=int(seed), parameters=parameters, output_path=str(output)
    )


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_fits(arrays: tuple[tuple[str, int, tuple], ...]) -> None:
    """Refuse a run whose ``arrays``, all held at once, exceed physical memory."""
    size = 8 * sum(copies * r * c for _, copies, shapes in arrays for r, c in shapes)
    memory = _physical_memory()
    if memory is not None and size > memory:
        parts = []
        for what, copies, shapes in arrays:
            each = f" in each of {copies} processes" if copies > 1 else ""
            dims = " + ".join(f"{rows} x {columns}" for rows, columns in shapes)
            parts.append(f"the {what}, {dims} float64{each}")
        raise ConfigError(
            f"{', beside '.join(parts)} ({size / 2**30:.3g} GiB), "
            f"exceeds physical memory ({memory / 2**30:.3g} GiB)"
        )


def effective_config_lines(config: ExperimentConfig) -> list[str]:
    """Comment lines echoing everything needed to rerun this config.

    The output path is deliberately not echoed: the same experiment
    written to two different destinations should produce byte-identical
    bodies.
    """
    lines = [f"experiment = {config.experiment}", f"seed = {config.seed}"]
    for name, value in config.parameters.items():
        if isinstance(value, tuple):
            text = ", ".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return lines
