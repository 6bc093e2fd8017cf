"""The one machine model: refused where built, shared by both DVF paths.

Kernels (``DVFAnalyzer``) and Aspen models (``compile_source``) are both
priced against a :class:`MachineModel`.  A FIT or roofline rate that
would make ``T`` or ``N_error`` meaningless is refused by its
constructor, so neither path can return a report built on one, in
either mode; an explicit execution time is checked before any ``N_ha``
is estimated.
"""

import pytest

from repro.aspen.builtin import MACHINE_LIBRARY, builtin_source
from repro.aspen.compiler import compile_source
from repro.aspen.errors import AspenSemanticError
from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.machine import (
    DEFAULT_BANDWIDTH,
    DEFAULT_FIT,
    DEFAULT_FLOPS,
    MachineModel,
)
from repro.diagnostics import DiagnosticSink
from repro.experiments.aspen_batch import evaluate_source
from repro.kernels.base import Kernel
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS

GEOMETRY = PAPER_CACHES["8MB"]
NAN, INF = float("nan"), float("inf")

#: (field, value) pairs the constructor refuses.
INVALID = [
    ("fit", -1.0),
    ("fit", NAN),
    ("fit", INF),
    ("bandwidth", 0.0),
    ("bandwidth", -1.0),
    ("bandwidth", NAN),
    ("bandwidth", INF),
    ("flops_rate", 0.0),
    ("flops_rate", NAN),
    ("flops_rate", INF),
]
MODES = ("strict", "lenient")


def _sink(mode):
    """The switch the layers below ``evaluate_source`` take for ``mode``."""
    return DiagnosticSink() if mode == "lenient" else None


def kernel_report(machine, mode="strict", **options):
    return DVFAnalyzer(machine).analyze(
        KERNELS["VM"], TEST_WORKLOADS["VM"], sink=_sink(mode), **options
    )


def aspen_report(machine, mode="strict", source=None):
    source = source if source is not None else builtin_source("VM", "test")
    return compile_source(source, machine=machine, sink=_sink(mode)).report()


def vm_with_time(seconds: str) -> str:
    """VM's test-tier source declaring ``time: seconds``, plus machines."""
    source = builtin_source("VM", "test").replace(
        "flops: 2*n", f"time: {seconds}\n    flops: 2*n"
    )
    assert f"time: {seconds}" in source
    return source + MACHINE_LIBRARY


class TestDefaults:
    def test_from_geometry_takes_the_defaults(self):
        machine = MachineModel.from_geometry(GEOMETRY)
        assert (machine.fit, machine.bandwidth, machine.flops_rate) == (
            DEFAULT_FIT, DEFAULT_BANDWIDTH, DEFAULT_FLOPS
        )
        assert machine.name == GEOMETRY.name

    def test_both_paths_price_vm_alike(self):
        # VM, test tier: 16,000 bytes over 12.8 GB/s beats 1,000 flops
        # at 2 Gflop/s, so T = 1.25 us on either path.
        machine = MachineModel.from_geometry(GEOMETRY)
        kernel, aspen = kernel_report(machine), aspen_report(machine)
        assert kernel.time_seconds == aspen.time_seconds == 1.25e-06
        assert kernel.machine == aspen.machine == "8MB"
        assert kernel.fit == aspen.fit == DEFAULT_FIT


class TestInvalidMachines:
    @pytest.mark.parametrize("field,value", INVALID)
    def test_refused_where_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            MachineModel(name="m", cache=GEOMETRY, **{field: value})
        with pytest.raises(ValueError, match=field):
            MachineModel.from_geometry(GEOMETRY, **{field: value})

    @pytest.mark.parametrize("value", [-1.0, NAN, INF])
    def test_with_fit_refuses(self, value):
        with pytest.raises(ValueError, match="fit"):
            MachineModel.from_geometry(GEOMETRY).with_fit(value)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "field,value", [("bandwidth", NAN), ("fit", -1.0), ("fit", NAN)]
    )
    def test_neither_path_reports(self, field, value, mode):
        # Before the check, NaN bandwidth gave VM T = 5e-07 s (the NaN
        # term dropped out of the roofline max), and a negative or NaN
        # FIT in lenient mode gave every structure degraded, DVF_a = 0.
        for report in (kernel_report, aspen_report):
            with pytest.raises(ValueError, match=field):
                report(
                    MachineModel.from_geometry(GEOMETRY, **{field: value}),
                    mode,
                )

    @pytest.mark.parametrize(
        "section",
        [
            "memory { fit: -1 }",
            "memory { bandwidth: 0 }",
            "core { flops: -2e9 }",
        ],
    )
    def test_machine_block_refused(self, section):
        source = builtin_source("VM", "test") + (
            "machine m { cache { associativity: 4, sets: 64, line_size: 32 } "
            f"{section} }}"
        )
        with pytest.raises(AspenSemanticError, match="machine 'm'"):
            compile_source(source, machine="m")
        entry = evaluate_source("vm", source, machine="m", mode="lenient")
        assert not entry.ok
        assert [d.code for d in entry.diagnostics] == ["ASP306"]


class TestExplicitTime:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seconds", [-1.0, NAN, INF])
    def test_kernel_time_refused_up_front(self, monkeypatch, mode, seconds):
        def no_estimate(*args, **kwargs):
            raise AssertionError("N_ha estimated for a refused time")

        monkeypatch.setattr(Kernel, "estimate_nha", no_estimate)
        machine = MachineModel.from_geometry(GEOMETRY)
        with pytest.raises(ValueError, match="time must be finite"):
            kernel_report(machine, mode, time_seconds=seconds)

    @pytest.mark.parametrize("mode", MODES)
    def test_aspen_time_refused(self, mode):
        # The report refuses it in both modes, as check_time does for an
        # explicit time_seconds.
        machine = MachineModel.from_geometry(GEOMETRY)
        with pytest.raises(ValueError, match="time must be finite"):
            aspen_report(machine, mode, source=vm_with_time("-1"))

    def test_lenient_negative_time_is_one_failure(self):
        entry = evaluate_source(
            "vm", vm_with_time("-1"), machine="cache_8mb", mode="lenient"
        )
        assert not entry.ok
        assert [d.code for d in entry.diagnostics] == ["ASP306"]

    def test_explicit_zero_time_accepted(self):
        report = kernel_report(
            MachineModel.from_geometry(GEOMETRY), time_seconds=0.0
        )
        assert report.dvf_application == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_aspen_zero_time_accepted(self, mode):
        # One rule on both paths: T = 0 is a usable time and DVF_a = 0.
        entry = evaluate_source(
            "vm", vm_with_time("0"), machine="cache_8mb", mode=mode
        )
        assert entry.ok
        assert entry.report.time_seconds == 0.0
        assert entry.report.dvf_application == 0.0
        assert not [d for d in entry.diagnostics if d.is_error]
