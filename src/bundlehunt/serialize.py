"""JSON schemas for every file format the command line reads and writes.

Rationals travel as "p/q" strings (or "p" when the denominator is 1);
Laurent polynomials as [exponent, "p/q"] pairs sorted by exponent; matrices
and cocycles as nested row-major lists of those.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import BundleHuntError
from .exactalg import LaurentMatrix, LaurentPoly, rat_from_str
from .ext1 import ExtCocycle
from .hunter import (
    Certificate,
    GenericityReport,
    TableDigest,
    TwistRankRecord,
)
from .p1 import SplittingType
from .qbundle import BigradedEta, CohomologyTable, ConstantBundleDesc, HilbertParams


class ParseError(BundleHuntError):
    """Malformed input file; the message carries the offending location."""


def poly_to_json(p: LaurentPoly) -> list:
    return p.to_pairs()


def poly_from_json(variable: str, data: Any, where: str = "") -> LaurentPoly:
    try:
        return LaurentPoly.from_pairs(variable, data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad Laurent polynomial{where}: {exc}") from exc


def matrix_to_json(m: LaurentMatrix) -> dict:
    return {
        "variable": m.variable,
        "entries": [
            [poly_to_json(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)
        ],
    }


def matrix_from_json(data: Any) -> LaurentMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise ParseError("matrix file must be an object with an 'entries' grid")
    variable = data.get("variable", "z")
    grid = data["entries"]
    if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
        raise ParseError("matrix 'entries' must be a list of rows")
    rows = len(grid)
    cols = rows
    flat = []
    for i, row in enumerate(grid):
        if len(row) != cols:
            raise ParseError(
                f"transition matrix must be square: row {i} has {len(row)} entries, "
                f"expected {cols}"
            )
        for j, cell in enumerate(row):
            flat.append(poly_from_json(variable, cell, where=f" at entry ({i},{j})"))
    return LaurentMatrix(variable, rows, cols, flat)


def _json_int(value: Any, name: str) -> int:
    """A JSON integer; floats, booleans and strings are refused, never truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _int_list(data: Any, name: str) -> list:
    """A JSON list of integers."""
    if not isinstance(data, list):
        raise ParseError(f"{name} must be a list of integers, got {json.dumps(data)}")
    return [_json_int(n, f"{name} entry") for n in data]


def _splitting_from_json(data: Any, name: str) -> SplittingType:
    """A splitting type written as a JSON list of integers."""
    return SplittingType(_int_list(data, name))


def cocycle_to_json(e: ExtCocycle) -> dict:
    return {
        "f1": e.f1.to_list(),
        "f2": e.f2.to_list(),
        "variable": e.variable,
        "entries": [
            [poly_to_json(e.entry(i, j)) for j in range(e.f2.rank)]
            for i in range(e.f1.rank)
        ],
    }


def cocycle_from_json(data: Any, default_variable: str = "z") -> ExtCocycle:
    if not isinstance(data, dict) or "f1" not in data or "f2" not in data:
        raise ParseError("cocycle file must carry 'f1', 'f2' and 'entries'")
    variable = data.get("variable", default_variable)
    f1 = _splitting_from_json(data["f1"], "f1")
    f2 = _splitting_from_json(data["f2"], "f2")
    grid = data.get("entries", [])
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ParseError("cocycle 'entries' must be a list of rows")
    if len(grid) != f1.rank:
        raise ParseError(f"cocycle has {len(grid)} entry rows, expected {f1.rank}")
    flat = []
    for i, row in enumerate(grid):
        if len(row) != f2.rank:
            raise ParseError(f"cocycle row {i} has {len(row)} entries, expected {f2.rank}")
        for j, cell in enumerate(row):
            flat.append(poly_from_json(variable, cell, where=f" at entry ({i},{j})"))
    try:
        return ExtCocycle(f1, f2, flat, variable)
    except BundleHuntError as exc:
        raise ParseError(str(exc)) from exc


def params_to_json(p: HilbertParams) -> dict:
    return p.as_dict()


def params_from_json(data: Any) -> HilbertParams:
    try:
        return HilbertParams(
            rat_from_str(str(data["alpha"])),
            rat_from_str(str(data["beta"])),
            rat_from_str(str(data["gamma"])),
            _json_int(data["rank"], "rank"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad params block: {exc}") from exc


def certificate_to_json(cert: Certificate) -> dict:
    desc = cert.desc
    return {
        "params": params_to_json(cert.params),
        "swapped": desc.axis_swapped,
        "shift": list(desc.shift),
        "F": desc.fiber_type.to_list(),
        "F1": desc.f1.to_list(),
        "F2": desc.f2.to_list(),
        "eta0": [
            [poly_to_json(desc.eta.eta0.entry(i, j)) for j in range(desc.r2)]
            for i in range(desc.r1)
        ],
        "eta1": [
            [poly_to_json(desc.eta.eta1.entry(i, j)) for j in range(desc.r2)]
            for i in range(desc.r1)
        ],
        "seed": cert.seed,
        "resamples": cert.resamples,
        "verified_window": cert.verified_window,
        "genericity": {
            "n=1": [[r.m, r.rank, r.rows, r.cols] for r in cert.genericity.plus],
            "n=-2": [[r.m, r.rank, r.rows, r.cols] for r in cert.genericity.minus],
        },
        "table_digest": {
            "window": cert.table_digest.window,
            "cells": cert.table_digest.cells,
            "natural": cert.table_digest.natural,
            "region_counts": cert.table_digest.region_counts,
        },
    }


def certificate_from_json(data: Any) -> Certificate:
    if not isinstance(data, dict):
        raise ParseError("certificate must be a JSON object")
    params = params_from_json(data.get("params", {}))
    try:
        f1 = _splitting_from_json(data["F1"], "F1")
        f2 = _splitting_from_json(data["F2"], "F2")
        r1, r2 = f1.rank, f2.rank
        eta0 = _eta_from_json(data.get("eta0"), f1, f2, "eta0")
        eta1 = _eta_from_json(data.get("eta1"), f1, f2, "eta1")
        shift = _int_list(data.get("shift", [0, 0]), "shift")
        swapped = data.get("swapped", False)
        if len(shift) != 2 or not isinstance(swapped, bool):
            raise ParseError("'shift' must be two integers and 'swapped' a boolean")
        desc = ConstantBundleDesc(
            r1,
            r2,
            f1,
            f2,
            BigradedEta(eta0, eta1),
            shift=tuple(shift),
            axis_swapped=swapped,
        )
        stated_fiber = data.get("F")
        if stated_fiber is not None:
            if _splitting_from_json(stated_fiber, "F") != desc.fiber_type:
                raise ParseError(
                    f"stated fiber type {stated_fiber} does not match ranks ({r1},{r2})"
                )
        gen = data.get("genericity", {})

        def records(key: str) -> tuple:
            return tuple(
                TwistRankRecord(*_int_list(row, f"genericity {key} row"))
                for row in gen.get(key, [])
            )

        digest = data.get("table_digest", {})
        return Certificate(
            params=params,
            desc=desc,
            genericity=GenericityReport(plus=records("n=1"), minus=records("n=-2")),
            table_digest=TableDigest(
                window=_json_int(
                    digest.get("window", data.get("verified_window", 0)), "table_digest window"
                ),
                cells=_json_int(digest.get("cells", 0), "table_digest cells"),
                natural=bool(digest.get("natural", False)),
                region_counts=dict(digest.get("region_counts", {})),
            ),
            seed=_json_int(data.get("seed", 0), "seed"),
            resamples=_json_int(data.get("resamples", 0), "resamples"),
            verified_window=_json_int(data.get("verified_window", 0), "verified_window"),
        )
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, BundleHuntError) as exc:
        raise ParseError(f"bad certificate body: {exc}") from exc


def _eta_from_json(grid: Any, f1: SplittingType, f2: SplittingType, name: str) -> ExtCocycle:
    if grid is None:
        raise ParseError(f"certificate is missing {name}")
    return cocycle_from_json(
        {"f1": f1.to_list(), "f2": f2.to_list(), "variable": "w", "entries": grid}
    )


def table_to_json(table: CohomologyTable) -> dict:
    return {
        "window": list(table.window),
        "cells": [
            {
                "n": n,
                "m": m,
                "h0": cell.h0,
                "h1": cell.h1,
                "h2": cell.h2,
                "chi": cell.chi,
                "region": cell.region,
            }
            for n, m, cell in table.iter_cells()
        ],
    }


def table_from_json(data: Any) -> CohomologyTable:
    from .qbundle import Cell

    try:
        window = tuple(_int_list(data["window"], "window"))
        cells = {}
        for c in data["cells"]:
            n, m, h0, h1, h2, chi = (
                _json_int(c[k], k) for k in ("n", "m", "h0", "h1", "h2", "chi")
            )
            cells[(n, m)] = Cell(h0, h1, h2, chi, str(c["region"]))
        return CohomologyTable(window, cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad table JSON: {exc}") from exc


def table_to_csv(table: CohomologyTable, oracle_rows: dict | None = None) -> str:
    header = "n,m,h0,h1,h2,chi,region"
    if oracle_rows is not None:
        header += ",oracle_h0,oracle_h1,oracle_h2,agree"
    lines = [header]
    for n, m, cell in table.iter_cells():
        line = f"{n},{m},{cell.h0},{cell.h1},{cell.h2},{cell.chi},{cell.region}"
        if oracle_rows is not None:
            o = oracle_rows[(n, m)]
            agree = "yes" if o == cell.triple else "no"
            line += f",{o[0]},{o[1]},{o[2]},{agree}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def table_to_text(table: CohomologyTable) -> str:
    """Readable grid, rows m descending; each cell shows its nonzero group."""
    n_lo, n_hi, m_lo, m_hi = table.window

    def show(cell) -> str:
        nz = [(i, h) for i, h in enumerate(cell.triple) if h]
        if not nz:
            return "0"
        if len(nz) == 1:
            i, h = nz[0]
            return f"{h}h{i}"
        return "(" + ",".join(str(h) for h in cell.triple) + ")!"

    grid = {}
    width = 1
    for n, m, cell in table.iter_cells():
        s = show(cell)
        grid[(n, m)] = s
        width = max(width, len(s))
    head = "m\\n".rjust(5) + " |" + "".join(str(n).rjust(width + 1) for n in range(n_lo, n_hi + 1))
    rule = "-" * len(head)
    lines = [head, rule]
    for m in range(m_hi, m_lo - 1, -1):
        row = str(m).rjust(5) + " |"
        for n in range(n_lo, n_hi + 1):
            row += grid[(n, m)].rjust(width + 1)
        lines.append(row)
    lines.append(rule)
    lines.append("cells marked (h0,h1,h2)! hold cohomology in more than one degree")
    return "\n".join(lines) + "\n"


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
