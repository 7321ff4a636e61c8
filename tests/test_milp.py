"""Tests for the HiGHS MILP wrapper."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.solver.milp import MilpModel


class TestModelBuilding:
    def test_duplicate_variable_rejected(self):
        m = MilpModel()
        m.add_binary("x")
        with pytest.raises(ValueError):
            m.add_binary("x")

    def test_unknown_variable_in_constraint(self):
        m = MilpModel()
        m.add_binary("x")
        with pytest.raises(KeyError):
            m.add_le({"y": 1.0}, 1.0)

    def test_unknown_variable_in_objective(self):
        m = MilpModel()
        with pytest.raises(KeyError):
            m.set_objective({"z": 1.0})

    def test_empty_model_solves(self):
        res = MilpModel().solve()
        assert res.ok
        assert res.objective == 0.0


class TestSolving:
    def test_knapsack(self):
        """max 3a+4b+5c s.t. 2a+3b+4c <= 6 -> {a, c} = 8."""
        m = MilpModel()
        for name in "abc":
            m.add_binary(name)
        m.add_le({"a": 2, "b": 3, "c": 4}, 6)
        m.set_objective({"a": -3.0, "b": -4.0, "c": -5.0})
        res = m.solve()
        assert res.ok
        assert res.objective == pytest.approx(-8.0)
        assert res.value("a") == pytest.approx(1.0)
        assert res.value("c") == pytest.approx(1.0)

    def test_equality_constraint(self):
        m = MilpModel()
        m.add_binary("x")
        m.add_binary("y")
        m.add_eq({"x": 1, "y": 1}, 1)
        m.set_objective({"x": 2.0, "y": 1.0})
        res = m.solve()
        assert res.value("y") == pytest.approx(1.0)
        assert res.value("x") == pytest.approx(0.0)

    def test_infeasible_detected(self):
        m = MilpModel()
        m.add_binary("x")
        m.add_ge({"x": 1.0}, 2.0)
        res = m.solve()
        assert not res.ok
        assert res.status == "infeasible"
        assert res.values == {}

    def test_continuous_bounds(self):
        m = MilpModel()
        m.add_continuous("x", 0.5, 2.0)
        m.set_objective({"x": 1.0})
        res = m.solve()
        assert res.value("x") == pytest.approx(0.5)

    def test_integer_general_variable(self):
        m = MilpModel()
        m.add_variable("x", 0, 10, integer=True)
        m.add_ge({"x": 1.0}, 2.5)
        m.set_objective({"x": 1.0})
        res = m.solve()
        assert res.value("x") == pytest.approx(3.0)

    def test_product_linearization_pattern(self):
        """y >= xa + xb - 1 with positive cost equals the product at
        binary optima — the encoding the CPLA ILP relies on."""
        for want_a, want_b in [(1, 1), (1, 0), (0, 1)]:
            m = MilpModel()
            m.add_binary("a")
            m.add_binary("b")
            m.add_continuous("y", 0.0, 1.0)
            m.add_ge({"y": 1, "a": -1, "b": -1}, -1)
            m.add_eq({"a": 1}, want_a)
            m.add_eq({"b": 1}, want_b)
            m.set_objective({"y": 5.0})
            res = m.solve()
            assert res.value("y") == pytest.approx(float(want_a and want_b))


class TestLazyImport:
    def test_pipeline_import_leaves_scipy_optimize_unloaded(self):
        """scipy.optimize is loaded by the first ILP solve, not at import."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        script = (
            "import sys\n"
            "import repro.pipeline\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from repro.solver.milp import MilpModel\n"
            "m = MilpModel()\n"
            "m.add_binary('x')\n"
            "m.set_objective({'x': -1.0})\n"
            "m.solve()\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
