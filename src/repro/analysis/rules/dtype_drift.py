"""RL003: hot-path array construction must pin its dtype.

The ``set_compute_dtype`` contract promises that the float64 serving mode
runs the training arithmetic (the gate loop in ``nn/gru.py`` picks only its
sigmoid by dtype) and that the float32 mode never silently widens.  Both
promises die quietly the moment a hot-path buffer is created with NumPy's
*default* dtype, or a float64 **scalar** sneaks into
float32 arithmetic: under NEP 50 a Python float literal is harmless
(``f32_array * 2.0`` stays float32) but a NumPy scalar is not
(``f32_array * np.sqrt(2.0)`` promotes to float64, because ``np.sqrt`` of a
Python float mints a ``np.float64``).

Two checks, scoped to the modules where the compute dtype is load-bearing
(``src/repro/nn/``, ``src/repro/netstack/columns.py``,
``src/repro/core/engine.py``):

* array constructors (``np.array``, ``np.zeros``, ``np.empty``, ``np.ones``,
  ``np.full``) without an explicit ``dtype=`` keyword.  The ``*_like``
  constructors are exempt (they inherit their prototype's dtype), as is
  ``np.asarray`` (pass-through conversion is usually deliberate);
* NumPy scalar-math calls on literal arguments (``np.sqrt(2.0)``,
  ``np.log(10)``) — each one is a float64 scalar constant that will promote
  any float32 buffer it later meets; use :mod:`math` or a typed constant.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePosixPath

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.rules.common import (
    NUMPY_ALIASES,
    AnchorFactory,
    call_keyword,
    dotted_name,
    is_constant_number,
)

#: Constructors that take the default dtype when none is passed.
DEFAULT_DTYPE_CONSTRUCTORS = frozenset({"array", "zeros", "empty", "ones", "full"})

#: Unary math functions that return ``np.float64`` for Python-number input.
SCALAR_MATH_FUNCTIONS = frozenset(
    {
        "sqrt", "exp", "expm1", "log", "log2", "log10", "log1p",
        "sin", "cos", "tan", "tanh", "arctan", "power", "float_power",
    }
)

#: The hot-path modules whose buffers carry the compute-dtype contract.
SCOPED_SUFFIXES = (
    "src/repro/nn",
    "src/repro/netstack/columns.py",
    "src/repro/core/engine.py",
)


def _numpy_callee(node: ast.expr) -> str | None:
    """``zeros`` for ``np.zeros`` / ``numpy.zeros``, else ``None``."""
    name = dotted_name(node)
    if name is None:
        return None
    for alias in NUMPY_ALIASES:
        prefix = alias + "."
        if name.startswith(prefix) and "." not in name[len(prefix):]:
            return name[len(prefix):]
    return None


@register
class DtypeDriftRule(Rule):
    """Keep the float32/float64 compute-dtype contract machine-checked."""

    id = "RL003"
    title = "dtype-drift"
    description = (
        "Hot-path modules must pass dtype= to array constructors and avoid "
        "np scalar math on literals (a float64 scalar promotes f32 buffers)."
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        text = path.as_posix()
        return any(part in text for part in SCOPED_SUFFIXES)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        anchors = AnchorFactory(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _numpy_callee(node.func)
            if callee is None:
                continue
            if callee in DEFAULT_DTYPE_CONSTRUCTORS:
                if call_keyword(node, "dtype") is None:
                    yield module.finding(
                        self.id,
                        node.lineno,
                        f"np.{callee}(...) without an explicit dtype= takes the "
                        "platform default and breaks the compute-dtype "
                        "contract; pin the dtype",
                        anchor=anchors.make(node, f"missing-dtype:{callee}"),
                    )
            elif callee in SCALAR_MATH_FUNCTIONS:
                args = list(node.args) + [kw.value for kw in node.keywords]
                if args and all(is_constant_number(arg) for arg in args):
                    yield module.finding(
                        self.id,
                        node.lineno,
                        f"np.{callee}() on literal arguments mints a float64 "
                        "scalar that silently promotes float32 buffers; use "
                        "math." + callee + " or a dtype-pinned constant",
                        anchor=anchors.make(node, f"scalar-math:{callee}"),
                    )
