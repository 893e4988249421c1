"""Flat key=value run configuration.

Config files (and CLI overrides) are lines of ``dotted.key=value`` mirroring
the RunConfig field paths, e.g. ``optimizer.eta=1e-3`` or ``stream.tasks=6``.
The keys, their types and their defaults all come from the dataclass fields
of RunConfig and the configs nested in it; the few keys not spelled as a
field path are listed in ``_SPECIAL``.  Unknown keys are configuration
errors.  A relative MNIST path is resolved against the TRAINLAB_DATA_DIR
environment variable when set.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import typing
from typing import Callable, Iterable, NamedTuple

from .errors import ConfigError
from .nn import Activation
from .runner import RunConfig
from .scheduler import ControllerConfig
from .tasks import MnistSource, SyntheticSource

DATA_DIR_ENV = "TRAINLAB_DATA_DIR"
LEAKY_SLOPE = 0.3  # model.leaky_slope when model.activation=leaky_relu leaves it out

_MISSING = dataclasses.MISSING


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines (blank lines and # comments ignored)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _seeds(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty item is a ValueError, as ``int`` makes it."""
    return tuple(int(v) for v in text.split(","))


# field type -> (parser, what a malformed value was expected to be)
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    tuple[int, ...]: (_seeds, "comma-separated integers"),
}


def _format(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


# ---------------------------------------------------------------------------
# the walk over the dataclass fields


@functools.cache
def _fields(cls) -> list[tuple[str, type]]:
    """(name, type) of a config dataclass's fields, annotations resolved."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _keys(cls, prefix: str = "") -> Iterable[tuple[str, type]]:
    """(key, type) of every setting under a config dataclass."""
    for name, hint in _fields(cls):
        path = prefix + name
        if path in _SPECIAL:
            yield from _SPECIAL[path].keys.items()
        elif dataclasses.is_dataclass(hint):
            yield from _keys(hint, path + ".")
        else:
            yield path, hint


def _build(cls, typed: dict, prefix: str = ""):
    """An instance of ``cls`` from typed settings; absent keys keep its defaults."""
    kwargs = {}
    for name, hint in _fields(cls):
        path = prefix + name
        if path in _SPECIAL:
            value = _SPECIAL[path].build(typed)
        elif dataclasses.is_dataclass(hint):
            value = _build(hint, typed, path + ".")
        else:
            value = typed.get(path, _MISSING)
        if value is not _MISSING:
            kwargs[name] = value
    return cls(**kwargs)


def _dump(obj, prefix: str = "") -> Iterable[str]:
    for f in dataclasses.fields(obj):
        path = prefix + f.name
        value = getattr(obj, f.name)
        if path in _SPECIAL:
            yield from _SPECIAL[path].dump(value)
        elif dataclasses.is_dataclass(value):
            yield from _dump(value, path + ".")
        else:
            yield f"{path}={_format(value)}"


# ---------------------------------------------------------------------------
# fields whose keys are not their field paths


class _Special(NamedTuple):
    keys: dict[str, type]
    build: Callable[[dict], object]  # the field's value, or _MISSING for its default
    dump: Callable[[object], Iterable[str]]


# field path -> its keys, filled in below once the walk can list nested keys
_SPECIAL: dict[str, _Special] = {}


# stream.source -> the source's class and the prefix of its keys
_SOURCES = {
    "synthetic": (SyntheticSource, "stream.synthetic."),
    "mnist_idx": (MnistSource, "stream.mnist."),
}


def _build_source(typed: dict):
    kind = typed.get("stream.source", "synthetic")
    if kind not in _SOURCES:
        raise ConfigError(f"unknown stream source {kind!r}")
    cls, prefix = _SOURCES[kind]
    if cls is MnistSource:  # every field is a data path with no default
        data_dir = os.environ.get(DATA_DIR_ENV)
        for key, _ in _keys(cls, prefix):
            if key not in typed:
                raise ConfigError(f"{kind} source requires {key}")
            if data_dir and not os.path.isabs(typed[key]):
                # absolute, so that the config_lines dump rebuilds to the same path
                typed = {**typed, key: os.path.abspath(os.path.join(data_dir, typed[key]))}
    return _build(cls, typed, prefix)


def _dump_source(src) -> list[str]:
    kind, prefix = next((k, p) for k, (cls, p) in _SOURCES.items() if isinstance(src, cls))
    return [f"stream.source={kind}", *_dump(src, prefix)]


def _build_activation(typed: dict):
    if "model.activation" not in typed:
        return _MISSING
    kind = typed["model.activation"]
    slope = typed.get("model.leaky_slope", LEAKY_SLOPE) if kind == "leaky_relu" else 0.0
    return Activation(kind, slope)


_SPECIAL.update(
    {
        # the source's kind picks its class and the keys that fill it
        "stream.source": _Special(
            {"stream.source": str, **{k: t for c, p in _SOURCES.values() for k, t in _keys(c, p)}},
            _build_source,
            _dump_source,
        ),
        "model.activation": _Special(
            {"model.activation": str, "model.leaky_slope": float},
            _build_activation,
            lambda act: [f"model.activation={act.kind}", f"model.leaky_slope={act.slope!r}"],
        ),
        # the controller exists in scheduled mode only
        "controller": _Special(
            dict(_keys(ControllerConfig, "controller.")),
            lambda typed: (
                _build(ControllerConfig, typed, "controller.")
                if typed.get("mode") == "scheduled"
                else None
            ),
            lambda ctl: () if ctl is None else _dump(ctl, "controller."),
        ),
        # the stats window behind the controller's bound, read in every mode
        "window": _Special(
            {"controller.window": int},
            lambda typed: typed.get("controller.window", _MISSING),
            lambda window: [f"controller.window={window}"],
        ),
    }
)

KEYS: dict[str, type] = dict(_keys(RunConfig))


# ---------------------------------------------------------------------------
# entry points


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Assemble a RunConfig from flat key=value settings over the defaults."""
    typed: dict[str, object] = {}
    for key, value in values.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parse, expected = _PARSERS[KEYS[key]]
        try:
            typed[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    return _build(RunConfig, typed)


def config_lines(cfg: RunConfig) -> list[str]:
    """Resolved settings as key=value lines (for run metadata dumps)."""
    return list(_dump(cfg))
