"""The radial-mult/1 format: the JSON objects and CSV tables the CLI prints.

``to_obj`` writes a symbol, measure, space spec or report as the JSON
object of its dataclass fields: complex numbers become ``[re, im]``,
tuples become lists, nested dataclasses recurse, and array fields are left
to the CSV tables.  A symbol also carries ``"family"``, the snake case of
its class name.  Three types are written their own way: a
``DiscreteMeasure`` as a list of ``{"s", "w"}`` atoms, a ``FockSpec`` with
the key ``factors``, and an ``EigenReport`` as its ``worst_residual``,
``rounding_bound`` and ``pairs``, each word by its ``word_label``.
``to_csv`` writes every table.  The readers accept complex numbers as
``[re, im]``, ``{"re", "im"}`` or bare reals, and reject booleans and
strings where numbers are due.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from typing import get_args

import numpy as np

from .fock import FockSpec, word_label
from .multiplier import EigenReport
from .symbols import (
    DiscreteMeasure,
    Doubled,
    Finite,
    FromMeasure,
    Geometric,
    Indicator,
    ParityTail,
    RadialSymbol,
    TruncatedGeometric,
)

SCHEMA = "radial-mult/1"

# family name -> symbol class, e.g. "truncated_geometric" -> TruncatedGeometric
_FAMILIES = {
    re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).lower(): cls
    for cls in get_args(RadialSymbol)
}
_FAMILY_OF = {cls: name for name, cls in _FAMILIES.items()}


def to_obj(x):
    """The JSON value of x, written from its dataclass fields (see the module doc)."""
    if isinstance(x, DiscreteMeasure):
        return [{"s": to_obj(s), "w": to_obj(w)} for s, w in x.atoms]
    if isinstance(x, FockSpec):
        return {"factors": list(x.factor_dims), "max_len": x.max_len}
    if isinstance(x, EigenReport):
        return {
            "worst_residual": x.worst_residual,
            "rounding_bound": x.rounding_bound,
            "pairs": [
                {
                    "xi": word_label(r.xi),
                    "eta": word_label(r.eta),
                    "case": r.case,
                    "k": r.k,
                    "l": r.l,
                    "expected": [r.expected.real, r.expected.imag],
                    "residual": r.residual,
                }
                for r in x.records
            ],
        }
    if is_dataclass(x):
        values = ((f.name, getattr(x, f.name)) for f in fields(x))
        obj = {k: to_obj(v) for k, v in values if not isinstance(v, np.ndarray)}
        if type(x) in _FAMILY_OF:
            obj["family"] = _FAMILY_OF[type(x)]
        return obj
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (tuple, list)):
        return [to_obj(v) for v in x]
    return x


def to_csv(header: list[str], rows) -> str:
    """A CSV table: the header, then one line per row of cells.

    A float cell is the repr of float(cell), since numpy 2 prints its
    scalars as ``np.float64(...)``; a boolean reads True or False; a None
    cell is left empty.
    """
    lines = [",".join(header)]
    lines += (",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _int_in(obj) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not truncated."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"expected an integer, got {obj!r}")


def _real_in(obj) -> float:
    """A JSON real: an integer or a float; booleans and strings are rejected."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            return float(obj)
        except OverflowError as exc:
            raise ValueError(f"real number out of range: {obj!r}") from exc
    raise ValueError(f"expected a real number, got {obj!r}")


def _cplx_in(obj) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_real_in(obj[0]), _real_in(obj[1]))
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return complex(_real_in(obj.get("re", 0.0)), _real_in(obj.get("im", 0.0)))
    return complex(_real_in(obj))


def measure_from_obj(obj) -> DiscreteMeasure:
    atoms = tuple((_cplx_in(entry["s"]), _cplx_in(entry["w"])) for entry in obj)
    return DiscreteMeasure(atoms)


def symbol_from_obj(obj: dict) -> RadialSymbol:
    family = _FAMILIES.get(str(obj["family"]).replace("-", "_").lower())
    if family is Geometric:
        return Geometric(_cplx_in(obj["s"]))
    if family is Indicator:
        return Indicator(_int_in(obj["n0"]))
    if family is TruncatedGeometric:
        return TruncatedGeometric(_real_in(obj["r"]), _int_in(obj["n0"]))
    if family is Finite:
        return Finite(tuple(_cplx_in(v) for v in obj["values"]), _cplx_in(obj["tail"]))
    if family is FromMeasure:
        return FromMeasure(_cplx_in(obj.get("c", 0.0)), measure_from_obj(obj["measure"]))
    if family is ParityTail:
        return ParityTail(
            tuple(_cplx_in(v) for v in obj["values"]),
            _cplx_in(obj["tail_even"]),
            _cplx_in(obj["tail_odd"]),
        )
    if family is Doubled:
        return Doubled(symbol_from_obj(obj["base"]))
    raise ValueError(f"unknown symbol family {obj.get('family')!r}")


def fock_spec_from_obj(obj: dict) -> FockSpec:
    return FockSpec(tuple(_int_in(d) for d in obj["factors"]), _int_in(obj["max_len"]))
