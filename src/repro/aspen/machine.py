"""Evaluation of an Aspen ``machine`` block into a machine model.

A machine declaration supplies three sections::

    machine node {
      cache  { associativity: 8, sets: 8192, line_size: 64 }
      memory { fit: 5000, bandwidth: 12.8e9 }
      core   { flops: 2.0e9 }
    }

``cache`` feeds the CGPMAC estimators, ``memory.fit`` the DVF N_error
term, and ``memory.bandwidth`` + ``core.flops`` the roofline
execution-time model (Aspen is, first of all, a performance-modeling
language — the paper's extension rides on that).  A property left out
takes the :class:`~repro.core.machine.MachineModel` default.
"""

from __future__ import annotations

from repro.aspen.ast import MachineDecl
from repro.aspen.errors import AspenSemanticError
from repro.aspen.expr import evaluate_int
from repro.cachesim.configs import CacheGeometry
from repro.core.machine import MachineModel

_SECTIONS = ("cache", "memory", "core")


def from_decl(decl: MachineDecl) -> MachineModel:
    """Evaluate a parsed machine declaration.

    A FIT or rate the machine refuses raises :class:`AspenSemanticError`.
    """
    env: dict[str, float] = {}
    for param in decl.params:
        env[param.name] = param.value.evaluate(env)
    cache_props = decl.sections.get("cache")
    if cache_props is None:
        raise AspenSemanticError(
            f"machine {decl.name!r} must declare a cache section"
        )
    for key in ("associativity", "sets", "line_size"):
        if key not in cache_props:
            raise AspenSemanticError(
                f"machine {decl.name!r} cache section missing {key!r}"
            )
    cache = CacheGeometry(
        associativity=evaluate_int(
            cache_props["associativity"], env, "cache associativity"
        ),
        num_sets=evaluate_int(cache_props["sets"], env, "cache sets"),
        line_size=evaluate_int(cache_props["line_size"], env, "cache line size"),
        name=decl.name,
    )
    unknown_sections = set(decl.sections) - set(_SECTIONS)
    if unknown_sections:
        raise AspenSemanticError(
            f"machine {decl.name!r} has unknown sections "
            f"{sorted(unknown_sections)} (known: {sorted(_SECTIONS)})"
        )
    rates = {
        field: decl.sections[section][key].evaluate(env)
        for field, section, key in (
            ("fit", "memory", "fit"),
            ("bandwidth", "memory", "bandwidth"),
            ("flops_rate", "core", "flops"),
        )
        if key in decl.sections.get(section, {})
    }
    try:
        return MachineModel(name=decl.name, cache=cache, **rates)
    except ValueError as exc:
        raise AspenSemanticError(str(exc)) from None
