"""Registration of the XADT's SQL surface into a Database.

Installs, following the paper's DB2 implementation:

* the three XADT methods as NOT FENCED scalar UDFs
  (``getElm``, ``findKeyInElm``, ``getElmIndex``),
* ``elmText`` (convenience method, see :mod:`repro.xadt.methods`),
* ``xadt(text)`` — a built-in constructor used by tests and examples,
* the ``unnest`` table UDF,
* the Figure-14 micro-benchmark UDF twins of the built-ins
  (``udf_length``/``udf_substr`` in NOT FENCED mode and
  ``fenced_length``/``fenced_substr`` in FENCED mode).

Pass ``fenced=True`` to register the XADT methods in FENCED mode
instead, which is the ablation for the paper's remark that the FENCED
option "causes a significant performance penalty".
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.types import INTEGER, VARCHAR, XADT
from repro.engine.udf import FunctionKind
from repro.xadt.fragment import XadtValue
from repro.xadt.methods import (
    elm_equals,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
)
from repro.xadt.unnest import unnest


def register_xadt_functions(db: Database, fenced: bool = False) -> None:
    """Install the XADT methods and helpers into ``db``."""
    mode = FunctionKind.FENCED if fenced else FunctionKind.NOT_FENCED
    registry = db.registry

    registry.register_scalar(
        "getElm", get_elm, mode, min_args=2, max_args=5, result_type=XADT
    )
    registry.register_scalar(
        "findKeyInElm", find_key_in_elm, mode,
        min_args=3, max_args=3, result_type=INTEGER,
    )
    registry.register_scalar(
        "getElmIndex", get_elm_index, mode,
        min_args=5, max_args=5, result_type=XADT,
    )
    registry.register_scalar(
        "elmText", elm_text, mode, min_args=1, max_args=1, result_type=VARCHAR
    )
    registry.register_scalar(
        "elmEquals", elm_equals, mode,
        min_args=3, max_args=3, result_type=INTEGER,
    )
    registry.register_scalar(
        "xadt",
        lambda text: XadtValue.from_xml("" if text is None else str(text)),
        FunctionKind.BUILTIN,
        min_args=1,
        max_args=1,
        result_type=XADT,
    )
    registry.register_table(
        "unnest", unnest, [("out", XADT)], mode, min_args=1, max_args=2
    )

    _register_figure14_udfs(db)


def _register_figure14_udfs(db: Database) -> None:
    """The QT1/QT2 micro-benchmark functions (paper Figure 14)."""

    def udf_length(value: object) -> int | None:
        if value is None:
            return None
        return len(str(value))

    def udf_substr(value: object, start: int, length: int | None = None) -> str | None:
        if value is None:
            return None
        text = str(value)
        begin = max(int(start) - 1, 0)
        if length is None:
            return text[begin:]
        return text[begin:begin + int(length)]

    registry = db.registry
    registry.register_scalar(
        "udf_length", udf_length, FunctionKind.NOT_FENCED, 1, 1, INTEGER
    )
    registry.register_scalar(
        "udf_substr", udf_substr, FunctionKind.NOT_FENCED, 2, 3, VARCHAR
    )
    registry.register_scalar(
        "fenced_length", udf_length, FunctionKind.FENCED, 1, 1, INTEGER
    )
    registry.register_scalar(
        "fenced_substr", udf_substr, FunctionKind.FENCED, 2, 3, VARCHAR
    )
