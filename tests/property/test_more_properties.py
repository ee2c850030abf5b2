"""Additional property-based tests: synthesis, persistence, sizing."""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cells import standard_library
from repro.sim.functional import evaluate_module
from repro.synth.expr import (
    And,
    Const,
    Expr,
    Not,
    Or,
    Var,
    Xor,
    evaluate,
    simplify,
    variables,
)
from repro.synth.mapper import MappingError, synthesize_module

_LIB = standard_library()
_VARS = ("a", "b", "c", "d")


@st.composite
def expressions(draw, depth=3) -> Expr:
    if depth == 0:
        return Var(draw(st.sampled_from(_VARS)))
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Var(draw(st.sampled_from(_VARS)))
    if kind == 1:
        return Not(draw(expressions(depth=depth - 1)))
    operands = tuple(
        draw(expressions(depth=depth - 1))
        for __ in range(draw(st.integers(min_value=2, max_value=3)))
    )
    return (And, Or, Xor)[kind - 2](operands)


@st.composite
def assignments(draw):
    return {name: draw(st.booleans()) for name in _VARS}


class TestSimplifyProperties:
    @given(expressions(), assignments())
    @settings(max_examples=300)
    def test_simplify_preserves_semantics(self, expr, env):
        assert evaluate(expr, env) == evaluate(simplify(expr), env)

    @given(expressions())
    @settings(max_examples=200)
    def test_simplify_idempotent(self, expr):
        once = simplify(expr)
        assert simplify(once) == once

    @given(expressions())
    @settings(max_examples=200)
    def test_simplify_never_adds_variables(self, expr):
        assert variables(simplify(expr)) <= variables(expr)


class TestMappingProperties:
    @given(
        expressions(),
        st.sampled_from(["direct", "nand"]),
        st.lists(assignments(), min_size=4, max_size=4),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mapped_module_matches_expression(self, expr, style, envs):
        simplified = simplify(expr)
        if isinstance(simplified, Const):
            with pytest.raises(MappingError):
                synthesize_module("P", {"y": expr}, _LIB, style=style)
            return
        module = synthesize_module("P", {"y": expr}, _LIB, style=style)
        free = variables(simplified)
        for env in envs:
            got = evaluate_module(
                module, {k: v for k, v in env.items() if k in free}
            )["y"]
            assert got == evaluate(expr, env)

    @given(expressions())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_nand_style_cell_discipline(self, expr):
        simplified = simplify(expr)
        if isinstance(simplified, Const):
            return
        module = synthesize_module("P", {"y": expr}, _LIB, style="nand")
        kinds = {c.spec.name for c in module.definition.inner.cells}
        assert kinds <= {"NAND2", "INV"}


class TestPersistenceProperties:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_json_roundtrip_preserves_analysis(self, tmp_path_factory, seed):
        from repro.core import Hummingbird
        from repro.generators import random_design
        from repro.netlist import load_network, save_network

        network, schedule = random_design(
            seed=seed, n_banks=2, gates_per_bank=15, bits=3, style="latch"
        )
        path = tmp_path_factory.mktemp("rt") / "n.json"
        save_network(network, path)
        loaded = load_network(path, _LIB)
        a = Hummingbird(network, schedule).analyze().worst_slack
        b = Hummingbird(loaded, schedule).analyze().worst_slack
        assert a == pytest.approx(b)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_blif_roundtrip_preserves_analysis(self, tmp_path_factory, seed):
        from repro.core import Hummingbird
        from repro.generators import random_design
        from repro.netlist import load_blif, save_blif

        network, schedule = random_design(
            seed=seed, n_banks=2, gates_per_bank=15, bits=3, style="ff"
        )
        path = tmp_path_factory.mktemp("rt") / "n.blif"
        save_blif(network, path)
        loaded = load_blif(path, _LIB)
        a = Hummingbird(network, schedule).analyze().worst_slack
        b = Hummingbird(loaded, schedule).analyze().worst_slack
        assert a == pytest.approx(b)


class TestTableDelayProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        st.floats(min_value=0.0, max_value=120.0),
    )
    @example(loads=[0.0, 5e-324], query=1.0)
    @settings(max_examples=200)
    def test_interpolation_bounded_by_extremes_inside_range(
        self, loads, query
    ):
        from repro.cells import TableDelay

        loads = sorted(loads)
        delays = [0.1 + 0.05 * load for load in loads]  # monotone table
        table = TableDelay(loads, delays)
        value = table.at_load(query)
        assert math.isfinite(value)
        if loads[0] <= query <= loads[-1]:
            assert delays[0] - 1e-9 <= value <= delays[-1] + 1e-9
