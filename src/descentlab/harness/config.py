"""Experiment configuration: one flat key-value file format, validated.

A config file is plain text: ``key = value`` per line, ``#`` comments,
blank lines ignored.  Keys are flat (no sections).  Three keys are
common to every experiment:

    experiment = sparse-risk        # which experiment to run
    seed = 42                       # master seed, default 0
    output = out/sparse.csv         # output path, optional

All other keys belong to the experiment's schema below; unknown keys
are rejected rather than ignored, so a typo cannot silently fall back
to a default.  Values are typed: integers, finite floats, bare strings,
and nonempty comma-separated integer lists.  Each ``Field`` declares
its bounds (a minimum, strict lower and upper bounds, another key that
caps it, as ``p_grid`` entries are capped by ``d``, or, for a list,
strictly increasing entries), so whatever the runner cannot use is a
config error at load time.  So is an output path that is a directory, and
a random-feature run whose largest arrays (for rff-sweep, a feature
buffer, Gram matrix and map per process that may hold them; for
kernel-approx, its widest features, two pairwise matrices, map and
points) would not fit in physical memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .. import parallel
from ..errors import ConfigError


@dataclass(frozen=True)
class Field:
    """One schema entry: name, value kind and default.

    The bounds apply to a number, or to every entry of a number list:
    ``min`` from below, ``above`` strictly from below, ``below`` strictly
    from above, and ``at_most`` from above by the value of the named key
    of the same schema.  A list with ``increasing`` set must have strictly
    increasing entries.
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


SCHEMAS: dict[str, tuple[Field, ...]] = {
    "sparse-risk": (
        Field("d", "int", 100, min=1),
        Field("n", "int", 40, min=1),
        Field("signal_norm_sq", "float", 1.0, min=0),
        Field("noise_var", "float", 0.04, min=0),
        Field(
            "p_grid",
            "int_list",
            (0, 10, 20, 30, 36, 38, 40, 42, 44, 50, 60, 70, 80, 90, 100),
            min=0,
            at_most="d",
        ),
        Field("trials", "int", 500, min=1),
        Field("test_points", "int", 100, min=1),
    ),
    "rff-sweep": (
        Field("dataset", "str", "rkhs-target", choices=("mnist", "rkhs-target")),
        Field("n_train", "int", 1000, min=1),
        Field("n_test", "int", 1000, min=1),
        Field(
            "n_grid",
            "int_list",
            (20, 50, 100, 250, 500, 1000, 2000, 4000, 8000),
            min=1,
            increasing=True,
        ),
        Field("bandwidth", "float", 5.0, above=0),
        Field("repeats", "int", 5, min=1),
        Field("input_dim", "int", 10, min=1),
        Field("n_centers", "int", 50, min=1),
        Field("target_bandwidth", "float", 1.0, above=0),
    ),
    "kernel-approx": (
        Field("n_points", "int", 50, min=2),
        Field("input_dim", "int", 5, min=1),
        Field("bandwidth", "float", 1.0, above=0),
        Field("n_grid", "int_list", (100, 300, 1000, 3000, 10000), min=1, increasing=True),
        Field("n_maps", "int", 20, min=1),
    ),
    "implicit-bias": (
        Field("n", "int", 50, min=2),
        Field("d", "int", 2, min=1),
        # The max-margin solve certifies 20 of 20 seeds at n = 50 down to
        # a margin of 5e-11 (d = 8), 2e-11 (d = 5), 1e-11 (d = 2) and below
        # 1e-13 (d = 1, 20, 50); at d = 50 it needs 2e-10 for n = 200 and
        # 1000.  Below that a run ends in NumericalFailure.
        Field("margin", "float", 0.5, above=1e-9),
        Field("loss", "str", "logistic", choices=("logistic", "exponential")),
        # A fraction of the stable step: at 1 or more the run's own
        # stability gate refuses the step.
        Field("step_fraction", "float", 0.5, above=0, below=1),
        Field("max_iters", "int", 100_000, min=1),
        Field("record_every", "int", 100, min=1),
    ),
    "polyfit": (
        Field("degree", "int", 20, min=0),
        Field("n", "int", 20, min=1),
        Field("noise_scale", "float", 0.5, min=0),
        Field("truth_degree", "int", 3, min=0),
        Field("grid_points", "int", 256, min=1),
        Field("via", "str", "pseudo_inverse", choices=("pseudo_inverse", "gradient_descent")),
    ),
    "bias-variance": (
        Field("degrees", "int_list", (3, 20), min=0, increasing=True),
        Field("n", "int", 20, min=1),
        Field("noise_scale", "float", 0.1, min=0),
        Field("trials", "int", 2000, min=2),
        Field("truth_degree", "int", 3, min=0),
    ),
    "emc": (
        Field("d", "int", 30, min=1),
        Field("eps", "float", 1e-6, min=0),
        Field(
            "n_grid",
            "int_list",
            (10, 20, 25, 28, 29, 30, 31, 32, 35, 40),
            min=1,
            increasing=True,
        ),
        Field("trials", "int", 5, min=1),
        Field("noise_scale", "float", 0.1, min=0),
    ),
}

EXPERIMENTS = tuple(SCHEMAS)

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
            values = tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())
            if not values:
                raise ConfigError(f"key {field.name!r}: needs at least one entry")
            return values
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
    """Read a config file and resolve it against its schema.

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
    if name not in SCHEMAS:
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
    if os.path.isdir(output):
        raise ConfigError(f"key 'output': {output} is a directory, not a file to write")

    schema = SCHEMAS[name]
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
    _check_fits(_largest_arrays(name, parameters))
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


# The input dimension of the MNIST sweep: 28 x 28 pixels.
_MNIST_PIXELS = 28 * 28


def _largest_arrays(name: str, parameters: dict) -> tuple[tuple[str, int, tuple], ...]:
    """The largest float64 arrays a run of this config holds at once, as
    ``(what, copies, shapes)``: ``copies`` processes may each hold one
    array of every ``(rows, columns)`` in ``shapes``.

    The random-feature experiments featurize their inputs at every width
    of ``n_grid``.  rff-sweep draws or loads its ``n_train + n_test``
    input rows (by ``input_dim``, or the 784 pixels of an MNIST image)
    once, before its forked processes share them.  It fits its (width,
    repeat) pairs in up to one process per usable CPU
    (``parallel.map_trials``), any of which may be at the widest map, and
    each of which holds at once its feature buffer (the most rows, of
    ``n_train`` and ``n_test``, by the widest map), the Gram matrix of
    the widest fit's Cholesky solve (its smaller side squared) and the
    widest map's frequencies ω.  kernel-approx compares all pairs of its
    points: at its widest map it holds at once the feature matrix, the
    exact kernel and the ``n_points x n_points`` error matrix it builds in
    place (``rff.kernel_approx_error``), beside the map's frequencies and
    the points themselves."""
    if name == "rff-sweep":
        n_train, widest = parameters["n_train"], parameters["n_grid"][-1]
        rows = max(n_train, parameters["n_test"])
        gram = min(n_train, widest)
        mnist = parameters["dataset"] == "mnist"
        input_dim = _MNIST_PIXELS if mnist else parameters["input_dim"]
        copies = parallel.processes(len(parameters["n_grid"]) * parameters["repeats"])
        shapes = ((rows, widest), (gram, gram), (widest, input_dim))
        return (
            ("input rows", 1, ((n_train + parameters["n_test"], input_dim),)),
            ("feature buffer, Gram matrix and map", copies, shapes),
        )
    if name == "kernel-approx":
        rows, widest = parameters["n_points"], parameters["n_grid"][-1]
        dim = parameters["input_dim"]
        shapes = ((rows, widest), (rows, rows), (rows, rows), (widest, dim), (rows, dim))
        return (("features, two pairwise matrices, map and points", 1, shapes),)
    return ()


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
    for f in SCHEMAS[config.experiment]:
        value = config.parameters[f.name]
        if isinstance(value, tuple):
            text = ", ".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return lines
