"""Typed mixed-integer linear programming front-end over HiGHS.

The paper solves formulation (4) with GUROBI; offline we target
:func:`scipy.optimize.milp` (the bundled HiGHS branch-and-bound).  This
module provides the small amount of modelling sugar the CPLA ILP needs:
named variables, linear expressions as coefficient dicts, and <=/==
constraints — nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

LinExpr = Dict[str, float]


@dataclass
class MilpResult:
    """Outcome of a solve: variable values keyed by name."""

    status: str
    objective: float
    values: Dict[str, float]

    @property
    def ok(self) -> bool:
        return self.status == "optimal"

    def value(self, name: str) -> float:
        return self.values[name]


@dataclass
class _Constraint:
    expr: LinExpr
    lower: float
    upper: float


class MilpModel:
    """A minimal MILP builder.

    >>> m = MilpModel()
    >>> x = m.add_binary("x")
    >>> y = m.add_binary("y")
    >>> m.add_le({"x": 1, "y": 1}, 1)
    >>> m.set_objective({"x": -2.0, "y": -1.0})
    >>> m.solve().values["x"]
    1.0
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._integrality: List[int] = []
        self._lower: List[float] = []
        self._upper: List[float] = []
        self._objective: LinExpr = {}
        self._constraints: List[_Constraint] = []

    # -- variables -----------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = np.inf,
        integer: bool = False,
    ) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._integrality.append(1 if integer else 0)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        return name

    def add_binary(self, name: str) -> str:
        return self.add_variable(name, 0.0, 1.0, integer=True)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = np.inf) -> str:
        return self.add_variable(name, lower, upper, integer=False)

    @property
    def num_variables(self) -> int:
        return len(self._names)

    # -- constraints & objective -----------------------------------------------

    def set_objective(self, expr: LinExpr) -> None:
        """Minimize ``expr`` (a name -> coefficient mapping)."""
        unknown = set(expr) - set(self._index)
        if unknown:
            raise KeyError(f"objective references unknown variables {sorted(unknown)}")
        self._objective = dict(expr)

    def add_le(self, expr: LinExpr, bound: float) -> None:
        self._add(expr, -np.inf, float(bound))

    def add_ge(self, expr: LinExpr, bound: float) -> None:
        self._add(expr, float(bound), np.inf)

    def add_eq(self, expr: LinExpr, value: float) -> None:
        self._add(expr, float(value), float(value))

    def _add(self, expr: LinExpr, lower: float, upper: float) -> None:
        unknown = set(expr) - set(self._index)
        if unknown:
            raise KeyError(f"constraint references unknown variables {sorted(unknown)}")
        self._constraints.append(_Constraint(dict(expr), lower, upper))

    # -- solve --------------------------------------------------------------------

    def solve(self, time_limit: Optional[float] = None) -> MilpResult:
        """Run HiGHS; returns variable values (empty on infeasibility)."""
        # scipy.optimize costs about half a second to import; only ILP
        # solves pay it, not every process that imports the pipeline.
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_matrix

        n = self.num_variables
        if n == 0:
            return MilpResult(status="optimal", objective=0.0, values={})
        c = np.zeros(n)
        for name, coeff in self._objective.items():
            c[self._index[name]] = coeff

        constraints = []
        if self._constraints:
            rows, cols, data = [], [], []
            lo, hi = [], []
            for k, con in enumerate(self._constraints):
                for name, coeff in con.expr.items():
                    rows.append(k)
                    cols.append(self._index[name])
                    data.append(coeff)
                lo.append(con.lower)
                hi.append(con.upper)
            a = csr_matrix((data, (rows, cols)), shape=(len(self._constraints), n))
            constraints.append(LinearConstraint(a, lo, hi))

        options: Dict[str, float] = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        res = milp(
            c,
            integrality=np.asarray(self._integrality),
            bounds=Bounds(np.asarray(self._lower), np.asarray(self._upper)),
            constraints=constraints,
            options=options or None,
        )
        if res.x is None:
            return MilpResult(status=_status_name(res.status), objective=np.nan, values={})
        values = {name: float(res.x[i]) for i, name in enumerate(self._names)}
        return MilpResult(
            status=_status_name(res.status),
            objective=float(res.fun),
            values=values,
        )


def _status_name(code: int) -> str:
    return {
        0: "optimal",
        1: "iteration_limit",
        2: "infeasible",
        3: "unbounded",
        4: "numerical",
    }.get(code, f"status_{code}")
