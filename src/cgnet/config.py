"""One reader for config fields: it finds a field, checks its JSON type and
names the field in every error. Numpy-free, so the command line can read a
config before BLAS thread limits apply."""

from __future__ import annotations

import math

# The BLAS thread variables: the command line pins them before numpy
# loads, and ``nn`` takes the first one set to a positive integer as
# BLAS's threads per call
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_MISSING = object()
_KIND_NAMES = {int: "int", float: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


class ConfigurationError(ValueError):
    """Shapes or hyperparameters are inconsistent."""


def _typed(name, value, kind):
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ConfigurationError(f"{name}: expected {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        if not math.isfinite(value):
            raise ConfigurationError(f"{name}: expected a finite number, got {value!r}")
        return float(value)
    return value


def read_field(name, sources, kind, default=_MISSING, each=None, low=None):
    """The field ``name`` from the first of ``sources`` (a mapping or a
    tuple of mappings) that holds its key, the last dotted part of
    ``name``; ``default`` when none does, and a ``ConfigurationError``
    naming the field when there is no default.

    The value must be of ``kind``: an int is never a bool, a float is any
    finite int or float and is returned as a float, and bool, str, list and
    dict take only their own type. JSON null passes where the default is
    None. With ``each``, a list's entries are checked as ``each`` and named
    ``name[i]``. With ``low``, a number below it is an error."""
    if isinstance(sources, dict):
        sources = (sources,)
    key = name.rpartition(".")[2]
    value = next((src[key] for src in sources if key in src), default)
    if value is _MISSING:
        raise ConfigurationError(f"{name}: required field missing")
    if value is None and default is None:
        return None
    value = _typed(name, value, kind)
    if low is not None and value < low:
        raise ConfigurationError(f"{name}: must be >= {low}, got {value}")
    if each is None:
        return value
    return [_typed(f"{name}[{i}]", v, each) for i, v in enumerate(value)]


def reject_unknown(where, section, known):
    """Reject the first key of ``section`` not in ``known``, a misspelt one;
    ``where`` is None for the config's top level."""
    for key in section:
        if key not in known:
            name = key if where is None else f"{where}.{key}"
            raise ConfigurationError(f"{name}: expected no such key")
