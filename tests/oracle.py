"""The test oracle: NF² statements evaluated by plain nested loops over
materialized tables (``db.table_value(name, asof)``, read once).  Paths,
EXISTS/ALL and subscripts follow the tree-structured records of Afrati &
Damigos ("Querying collections of tree-structured records"): a path
denotes the nodes it reaches, fanning out over subtables; a quantifier
ranges over one node's child records (ALL over none holds, EXISTS does
not); a subscript picks the k-th child of a list, 1-based, NULL past its
end.  NULL compares false; a one-atom tuple acts as its atom.  No planner,
indexes, lazy decode, columnar chunks, join lookups, sort elision, caches
or profiling; the binder supplies result schemas only.
"""

from __future__ import annotations

import datetime
import functools
import operator
import re
from collections import Counter

from repro.model.values import TableValue, TupleValue
from repro.query import ast
from repro.query.binder import Binder, Scope
from repro.query.parser import parse_statement

def query(db, sql: str) -> tuple[list, bool]:
    """The canonical rows of a SELECT in result order, and whether its
    ORDER BY fixes that order (rows with equal sort keys are equal)."""
    statement = parse_statement(sql)
    pairs, total = _Oracle(db).select(statement, Binder(db).bind_query(statement), {})
    return [row.canonical() for row, _key in pairs], total


def dml(db, sql: str) -> tuple[int, dict[str, Counter]]:
    """A whole-tuple or partial UPDATE/DELETE, evaluated before it runs:
    the affected count, and each table's expected contents afterwards (a
    multiset of canonical rows)."""
    statement, oracle = parse_statement(sql), _Oracle(db)
    ranges = getattr(statement, "ranges", None) or (
        ast.Range(statement.var, ast.Source(table=statement.table)),)
    found = oracle.bindings(list(ranges), statement.where, {})
    targets = {id(env[statement.var]): env for env in found}  # by id() of the tuple
    assignments = getattr(statement, "assignments", None)
    if assignments is None:
        doomed, changes = set(targets), {}
    else:
        doomed = set()
        changes = {target: {name: oracle.value(expr, env) for name, expr in assignments}
                   for target, env in targets.items()}
    after = {source.table: Counter(_rebuild(row, changes, doomed).canonical()
                                   for row in oracle.rows(source) if id(row) not in doomed)
             for source in {r.source for r in ranges if r.source.table is not None}}
    return len(found), after


def _rebuild(row: TupleValue, changes: dict, doomed: set) -> TupleValue:
    values = {a.name: TableValue(a.table, [_rebuild(c, changes, doomed)
                                           for c in row[a.name].rows if id(c) not in doomed])
              if a.is_table else row[a.name] for a in row.schema.attributes}
    return TupleValue(row.schema, {**values, **changes.get(id(row), {})})


def _atom(value):
    if isinstance(value, TupleValue):
        attrs = value.schema.attributes
        if len(attrs) == 1 and attrs[0].is_atomic:
            return value[attrs[0].name]
    return value


def _compare(op: str, left, right) -> bool:
    left, right = _atom(left), _atom(right)
    if left is None or right is None:
        return False
    if isinstance(left, TableValue) or isinstance(right, TableValue):
        equal = type(left) is type(right) and left.canonical() == right.canonical()
        return {"=": equal, "<>": not equal}[op]
    if isinstance(left, bool) != isinstance(right, bool):
        return op == "<>"  # a truth value is never a number
    name = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[op]
    return getattr(operator, name)(left, right)


def _aggregate(function: str, nodes: list):
    """A table node counts its rows and adds their atoms; NULLs drop out."""
    count = sum(len(n) if isinstance(n, TableValue) else _atom(n) is not None
                for n in nodes)
    atoms = [a for n in nodes for a in map(_atom, n.rows if isinstance(n, TableValue)
                                           else [n]) if a is not None]
    if function == "COUNT":
        return count
    if function == "AVG" and atoms:
        return sum(atoms) / len(atoms)
    return {"SUM": sum, "MIN": min, "MAX": max}[function](atoms) if atoms else None


def _order_key(value) -> tuple:
    """NULL first, then truth values, numbers, strings, dates/timestamps."""
    value = _atom(value)
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        value = datetime.datetime.combine(value, datetime.time())
    rank = {type(None): 0, bool: 1, int: 2, float: 2, str: 3}.get(type(value), 4)
    return (rank,) if value is None else (rank, value)


class _Oracle:
    def __init__(self, db):
        self.db = db
        self.rows = functools.lru_cache(None)(lambda s: db.table_value(s.table, s.asof).rows)

    def bindings(self, ranges: list, where, env: dict) -> list:
        """Every binding of the ranges, as nested loops, that satisfies *where*."""
        if not ranges:
            return [env] if where is None or self.holds(where, env) else []
        source = ranges[0].source
        rows = self.rows(source) if source.table else self.value(source.path, env).rows
        return [found for row in rows for found in
                self.bindings(ranges[1:], where, {**env, ranges[0].var: row})]

    def select(self, q: ast.Query, schema, env: dict) -> tuple[list, bool]:
        pairs = [(self.project(q, schema, e),
                  tuple(_order_key(self.value(item.expr, e)) for item in q.order_by))
                 for e in self.bindings(list(q.ranges), q.where, env)]
        for index in reversed(range(len(q.order_by))):  # stable, last key first
            pairs.sort(key=lambda p: p[1][index], reverse=q.order_by[index].descending)
        total = bool(q.order_by) and all(
            a[1] != b[1] or a[0].canonical() == b[0].canonical()
            for a, b in zip(pairs, pairs[1:]))
        if q.distinct:  # the first occurrence of each row stays
            seen: set = set()
            pairs = [p for p in pairs
                     if (key := p[0].canonical()) not in seen and not seen.add(key)]
        return pairs, total

    def project(self, q: ast.Query, schema, env: dict) -> TupleValue:
        if q.select_star:
            return TupleValue(schema, {n: env[q.ranges[0].var][n] for n in schema.attribute_names})
        values = {}
        for attr, item in zip(schema.attributes, q.select):
            if isinstance(item.expr, ast.Query):
                pairs, _total = self.select(item.expr, attr.table, env)
                value = TableValue(attr.table, [row for row, _key in pairs])
            else:
                value = _atom(self.value(item.expr, env))
                if attr.is_table and isinstance(value, TableValue):
                    value = TableValue.from_plain(attr.table, value)
            values[attr.name] = value
        return TupleValue(schema, values)

    def holds(self, p, env: dict) -> bool:
        if isinstance(p, ast.BoolOp):
            results = (self.holds(operand, env) for operand in p.operands)
            return all(results) if p.op == "AND" else any(results)
        if isinstance(p, ast.Not):
            return not self.holds(p.operand, env)
        if isinstance(p, ast.Quantifier):
            children = self.bindings([ast.Range(p.var, p.source)], None, env)
            results = (self.holds(p.body, child) for child in children)
            return any(results) if p.kind == "EXISTS" else all(results)
        if isinstance(p, ast.Contains):  # * matches any run, ? one character
            mask = "".join({"*": ".*", "?": "."}.get(c, re.escape(c)) for c in p.pattern)
            text = _atom(self.value(p.subject, env))
            found = isinstance(text, str) and re.search(mask, text, re.I | re.S)
            return bool(found) != p.negated
        if isinstance(p, ast.IsNull):
            return (_atom(self.value(p.subject, env)) is None) != p.negated
        return _compare(p.op, self.value(p.left, env), self.value(p.right, env))

    def value(self, e, env: dict):
        if isinstance(e, ast.Literal):
            return e.value
        if isinstance(e, ast.Query):
            scope = Scope()
            for var, row in env.items():
                scope.define(var, row.schema)
            schema = Binder(self.db).bind_query(e, scope)
            return TableValue(schema, [row for row, _key in self.select(e, schema, env)[0]])
        if isinstance(e, ast.Aggregate):
            arg = e.argument
            nodes = self.walk(arg, env) if isinstance(arg, ast.Path) else [self.value(arg, env)]
            return _aggregate(e.function, nodes)
        nodes = self.walk(e, env)
        return nodes[0] if nodes else None

    @staticmethod
    def walk(path: ast.Path, env: dict) -> list:
        """The nodes a path reaches: a name step maps each tuple to its
        attribute and fans a table out over its rows; NULLs drop out."""
        nodes = [env[path.var]]
        for step in path.steps:
            if step.name is not None:
                nodes = [child for node in nodes if node is not None
                         for child in (node.column(step.name)
                                       if isinstance(node, TableValue)
                                       else [node[step.name]])]
            k = step.subscript
            if k is not None:
                nodes = [n.rows[k - 1] if isinstance(n, TableValue) and 1 <= k <= len(n)
                         else None for n in nodes]
        return nodes
