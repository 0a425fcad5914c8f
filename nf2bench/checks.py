"""Result checks: compare what the engine returned with the model's answer.

Each read kind has one extractor that turns a result into the rows the
tape's ``expect`` holds; in-process results are ``TableValue`` objects,
wire results the rendered text the server sends back.
"""

from __future__ import annotations

import re
from typing import Any

from workloads import SCAN_KINDS, Model, Op

_PROJECT_NAME = re.compile(r"PRJ\d+")


def _rows(kind: str, table) -> list[tuple]:
    rows = table.rows
    if kind == "point":
        return [(r["BUDGET"], len(r["PROJECTS"])) for r in rows]
    if kind == "nav":
        return [(r["DNO"],) for r in rows]
    if kind == "flat_read":
        return [(r["LNAME"],) for r in rows]
    if kind == "search":
        return sorted((r["REPNO"],) for r in rows)
    if kind in SCAN_KINDS:
        return sorted((r["DNO"], r["BUDGET"]) for r in rows)
    raise ValueError(f"no check for {kind!r}")


def check_result(op: Op, result: Any) -> bool:
    """True when an in-process result matches the tape's answer."""
    if op.is_read:
        return _rows(op.kind, result) == op.expect
    return result == op.expect


def _text_cells(text: str) -> list[list[str]]:
    """Cells of each top-level row line of a rendered result table."""
    lines = text.splitlines()
    separators = [i for i, line in enumerate(lines) if line.startswith("+")]
    if len(separators) < 2:
        return []
    body = lines[separators[1] + 1 :]
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in body
        if line.startswith("| ") and not line.startswith("|  ")
    ]


def check_text(op: Op, text: str) -> bool:
    """True when a rendered wire reply matches the tape's answer."""
    if not op.is_read:
        plural = "" if op.expect == 1 else "s"
        return text.strip() == f"{op.expect} tuple{plural} affected"
    cells = _text_cells(text)
    if op.kind == "point":
        if not cells:
            return False
        budget = int(cells[0][0])
        return [(budget, len(_PROJECT_NAME.findall(text)))] == op.expect
    rows = [tuple(row) for row in cells]
    if op.kind == "search" or op.kind in SCAN_KINDS:
        rows.sort()
    return rows == [tuple(str(v) for v in row) for row in op.expect]


def check_state(db, model: Model) -> list[str]:
    """Differences between the whole database and *model* (empty: equal).

    Reads every user table back, so after a reopen it shows whether each
    acknowledged write survived.
    """
    problems = []
    emps = {
        r["EMPNO"]: (r["LNAME"], r["FNAME"], r["SEX"])
        for r in db.query(
            "SELECT e.EMPNO, e.LNAME, e.FNAME, e.SEX FROM e IN EMPLOYEES"
        ).rows
    }
    if emps != model.emps:
        missing = len(set(model.emps) - set(emps))
        extra = len(set(emps) - set(model.emps))
        problems.append(f"EMPLOYEES differs ({missing} missing, {extra} extra)")
    depts = {
        r["DNO"]: {
            "MGRNO": r["MGRNO"],
            "BUDGET": r["BUDGET"],
            "PROJECTS": {
                p["PNO"]: {
                    "PNAME": p["PNAME"],
                    "MEMBERS": {m["EMPNO"]: m["FUNCTION"] for m in p["MEMBERS"].rows},
                }
                for p in r["PROJECTS"].rows
            },
            "EQUIP": sorted((q["QU"], q["TYPE"]) for q in r["EQUIP"].rows),
        }
        for r in db.query(
            "SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS"
        ).rows
    }
    expected = {
        dno: {**d, "EQUIP": sorted(tuple(e) for e in d["EQUIP"])}
        for dno, d in model.depts.items()
    }
    if depts != expected:
        problems.append(
            f"DEPARTMENTS differs in {sum(depts.get(k) != v for k, v in expected.items())}"
            f" of {len(expected)} objects"
        )
    titles = {r["REPNO"]: r["TITLE"] for r in db.query(
        "SELECT x.REPNO, x.TITLE FROM x IN REPORTS").rows}
    if titles != {k: v[1] for k, v in model.reports.items()}:
        problems.append("REPORTS differs")
    return problems
