"""Tests for app/machine model evaluation, validation and compilation."""

import pytest

from repro.aspen.compiler import compile_source
from repro.aspen.errors import AspenEvalError, AspenSemanticError
from repro.aspen.machine import from_decl
from repro.aspen.parser import parse
from repro.cachesim.configs import CacheGeometry
from repro.core.machine import MachineModel
from repro.diagnostics import DiagnosticSink
from repro.experiments.aspen_batch import evaluate_source

MACHINE = """
machine box {
  cache { associativity: 4, sets: 64, line_size: 32 }
  memory { fit: 5000, bandwidth: 1e10 }
  core { flops: 2e9 }
}
"""

VM = """
model vm {
  param n = 200
  data A { elements: n, element_size: 8, pattern streaming { stride: 4 } }
  data B { elements: n, element_size: 8, pattern streaming { } }
  data C { elements: n, element_size: 8, pattern streaming { } }
  kernel main { flops: 2*n, loads: 16*n, stores: 8*n }
}
"""


class TestAppModelEvaluation:
    """Params, data sizes and kernels as the one pass evaluates them."""

    def test_params_resolved_in_order(self):
        source = (
            "model m { param a = 2, param b = a * 3, "
            "data A { elements: a, element_size: b }, kernel k { flops: b } }"
        )
        compiled = compile_source(source + MACHINE)
        assert compiled.sizes == {"A": 2 * 6}
        assert compiled.kernel.flops == 6.0

    def test_param_overrides(self):
        compiled = compile_source(VM + MACHINE, params={"n": 500})
        assert compiled.sizes["A"] == 500 * 8

    def test_override_propagates_to_derived_params(self):
        source = (
            "model m { param n = 10, param n2 = n*n, "
            "kernel k { flops: n2 } }"
        )
        compiled = compile_source(source + MACHINE, params={"n": 20})
        assert compiled.kernel.flops == 400.0

    def test_unknown_override_rejected(self):
        with pytest.raises(AspenSemanticError, match="no parameters"):
            compile_source(VM + MACHINE, params={"zz": 1})

    def test_override_replaces_a_failing_default(self):
        # The default 8/0 never runs: the override replaces it.
        source = VM.replace("param n = 200", "param n = 8/0") + MACHINE
        compiled = compile_source(source, params={"n": 100})
        assert compiled.kernel.flops == 2 * 100
        assert compiled.sizes["A"] == 100 * 8

    def test_lenient_override_reports_each_failing_param_once(self):
        source = (
            "model m { param n = 8/0, param k = 1/0, param j = 2/0, "
            "data A { elements: n, element_size: 8 }, kernel main { flops: n } }"
        )
        sink = DiagnosticSink()
        compiled = compile_source(source + MACHINE, params={"n": 16}, sink=sink)
        assert compiled.kernel.flops == 16
        assert compiled.sizes == {"A": 16 * 8}
        assert [(d.code, d.message.split(": ")[1]) for d in sink.errors] == [
            ("ASP211", "param 'k'"),
            ("ASP211", "param 'j'"),
        ]

    def test_data_sizes(self):
        compiled = compile_source(VM + MACHINE)
        assert compiled.sizes == {"A": 1600, "B": 1600, "C": 1600}
        assert sum(compiled.sizes.values()) == 4800

    def test_missing_elements_rejected(self):
        source = "model m { data D { element_size: 8 }, kernel k { flops: 1 } }"
        with pytest.raises(AspenSemanticError, match="missing 'elements'"):
            compile_source(source + MACHINE)

    def test_fractional_elements_rejected(self):
        source = (
            "model m { data D { elements: 7/2, element_size: 8 }, "
            "kernel k { flops: 1 } }"
        )
        with pytest.raises(AspenEvalError, match="integer"):
            compile_source(source + MACHINE)

    def test_dims_must_multiply_to_elements(self):
        source = (
            "model m { data D { elements: 10, element_size: 8, dims: (3, 3) } "
            "kernel k { flops: 1 } }"
        )
        with pytest.raises(AspenSemanticError, match="do not multiply"):
            compile_source(source + MACHINE)

    def test_template_indices_flattened_row_major(self):
        source = """
        model m {
          data D {
            elements: 12, element_size: 8, dims: (3, 4)
            pattern template { refs: (D[1, 2], D[2, 3]) }
          }
          kernel k { flops: 1 }
        }
        """
        compiled = compile_source(source + MACHINE)
        assert compiled.patterns["D"].element_indices.tolist() == [6, 11]

    def test_template_index_out_of_range(self):
        source = """
        model m {
          data D {
            elements: 12, element_size: 8, dims: (3, 4)
            pattern template { refs: (D[3, 0]) }
          }
          kernel k { flops: 1 }
        }
        """
        with pytest.raises(AspenSemanticError, match="out of range"):
            compile_source(source + MACHINE)

    def test_unknown_kernel_property_rejected(self):
        source = "model m { kernel k { jiggles: 3 } }"
        with pytest.raises(AspenSemanticError, match="unknown properties"):
            compile_source(source + MACHINE)

    def test_kernel_defaults(self):
        source = "model m { kernel k { flops: 5 } }"
        kernel = compile_source(source + MACHINE).kernel
        assert kernel.iterations == 1
        assert kernel.loads == 0.0 and kernel.stores == 0.0
        assert kernel.time is None


#: Override values that are not finite numbers as written.
BAD_OVERRIDES = [
    pytest.param("7", id="string"),
    pytest.param("1e3", id="numeric-string"),
    pytest.param(True, id="bool"),
    pytest.param([3], id="list"),
    pytest.param(None, id="none"),
    pytest.param({}, id="dict"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(10**400, id="int-beyond-float"),
]


class TestParamOverrides:
    """Overrides are taken as written: a finite int or float, or refused."""

    @pytest.mark.parametrize("value", BAD_OVERRIDES)
    def test_strict_raises_naming_the_param(self, value):
        with pytest.raises(AspenSemanticError, match="param 'n' must be"):
            compile_source(VM + MACHINE, params={"n": value})
        with pytest.raises(AspenSemanticError, match="param 'n' must be"):
            evaluate_source("vm", VM + MACHINE, params={"n": value})

    @pytest.mark.parametrize("value", BAD_OVERRIDES)
    def test_lenient_records_one_asp208_and_keeps_the_default(self, value):
        entry = evaluate_source(
            "vm", VM + MACHINE, mode="lenient", params={"n": value}
        )
        assert entry.ok
        (error,) = [d for d in entry.diagnostics if d.is_error]
        assert error.code == "ASP208"
        assert "param 'n'" in error.message
        default = evaluate_source("vm", VM + MACHINE, mode="lenient")
        assert entry.report.structures == default.report.structures

    @pytest.mark.parametrize("value", [7, 7.0, 1e3])
    def test_numbers_are_taken(self, value):
        compiled = compile_source(VM + MACHINE, params={"n": value})
        assert compiled.sizes["A"] == int(value) * 8

    @pytest.mark.parametrize("params", ["n=3", [("n", 3)], 3])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_non_mapping_is_a_value_error(self, params, mode):
        with pytest.raises(ValueError, match="params must map"):
            evaluate_source("vm", VM + MACHINE, mode=mode, params=params)
        sink = DiagnosticSink() if mode == "lenient" else None
        with pytest.raises(ValueError, match="params must map"):
            compile_source(VM + MACHINE, params=params, sink=sink)


class TestMachineModel:
    def test_from_decl(self):
        machine = from_decl(parse(MACHINE).machine())
        assert machine.cache.capacity == 8192
        assert machine.fit == 5000
        assert machine.bandwidth == 1e10

    def test_defaults_when_sections_missing(self):
        machine = from_decl(
            parse("machine m { cache { associativity: 2, sets: 4, line_size: 32 } }").machine()
        )
        assert machine.fit > 0 and machine.bandwidth > 0

    def test_missing_cache_section(self):
        with pytest.raises(AspenSemanticError, match="cache section"):
            from_decl(parse("machine m { core { flops: 1 } }").machine())

    def test_unknown_section_rejected(self):
        source = (
            "machine m { cache { associativity: 2, sets: 4, line_size: 32 } "
            "turbo { x: 1 } }"
        )
        with pytest.raises(AspenSemanticError, match="unknown sections"):
            from_decl(parse(source).machine())

    def test_roofline_compute_bound(self):
        machine = from_decl(parse(MACHINE).machine())
        assert machine.roofline_seconds(2e9, 1e9) == pytest.approx(1.0)

    def test_roofline_memory_bound(self):
        machine = from_decl(parse(MACHINE).machine())
        assert machine.roofline_seconds(1e9, 1e11) == pytest.approx(10.0)

    def test_with_fit(self):
        machine = from_decl(parse(MACHINE).machine())
        assert machine.with_fit(1300).fit == 1300
        with pytest.raises(ValueError):
            machine.with_fit(-1)

    def test_from_geometry(self):
        machine = MachineModel.from_geometry(CacheGeometry(2, 4, 32, "g"))
        assert machine.cache.num_sets == 4


def _lower(source: str) -> tuple[DiagnosticSink, AspenSemanticError]:
    """Lower ``source`` both ways: the lenient sink and the strict error."""
    sink = DiagnosticSink()
    compile_source(source + MACHINE, sink=sink)
    with pytest.raises(AspenSemanticError) as excinfo:
        compile_source(source + MACHINE)
    return sink, excinfo.value


class TestValidation:
    """Lowering is the one checker: strict raises, lenient records once."""

    def test_clean_model_no_errors(self):
        sink = DiagnosticSink()
        compile_source(VM + MACHINE, sink=sink)
        assert not sink.has_errors

    def test_order_with_undeclared_data(self):
        source = """
        model m {
          data A { elements: 10, element_size: 8, pattern streaming }
          kernel k { order: "AZ", flops: 1 }
        }
        """
        sink, error = _lower(source)
        assert [d.code for d in sink.errors] == ["ASP212"]
        assert "undeclared" in sink.errors[0].message
        assert "undeclared" in str(error)

    def test_order_data_without_pattern(self):
        source = """
        model m {
          data A { elements: 10, element_size: 8 }
          kernel k { order: "A", flops: 1 }
        }
        """
        sink, error = _lower(source)
        assert [d.code for d in sink.errors] == ["ASP304"]
        assert "declares no pattern" in sink.errors[0].message
        assert "declares no pattern" in str(error)

    def test_random_missing_required_props(self):
        source = """
        model m {
          data A { elements: 10, element_size: 8, pattern random { } }
          kernel k { flops: 1 }
        }
        """
        sink, error = _lower(source)
        (diagnostic,) = sink.errors
        for message in (diagnostic.message, str(error)):
            assert "distinct" in message
            assert "iterations" in message

    def test_no_time_no_resources_warns(self):
        sink = DiagnosticSink()
        compile_source("model m { kernel k { } }" + MACHINE, sink=sink)
        warnings = sink.warnings
        assert any("execution time will be zero" in d.message for d in warnings)

    def test_no_kernel_is_error(self):
        source = "model m { param x = 1 }" + MACHINE
        for sink in (None, DiagnosticSink()):
            with pytest.raises(AspenSemanticError, match="kernel"):
                compile_source(source, sink=sink)


class TestCompilation:
    def test_vm_compiles_and_estimates(self):
        compiled = compile_source(VM + MACHINE)
        nha = compiled.nha_by_structure()
        assert set(nha) == {"A", "B", "C"}
        assert nha["A"] > nha["B"]  # larger stride touches more lines

    def test_runtime_roofline(self):
        compiled = compile_source(VM + MACHINE)
        # loads+stores = 24*200 = 4800 B over 1e10 B/s vs 400 flops / 2e9.
        assert compiled.report().time_seconds == pytest.approx(4800 / 1e10)

    def test_runtime_time_override(self):
        source = VM.replace("flops: 2*n, loads: 16*n, stores: 8*n", "time: 2.5")
        compiled = compile_source(source + MACHINE)
        assert compiled.report().time_seconds == 2.5

    def test_dvf_positive_and_summed(self):
        report = compile_source(VM + MACHINE).report()
        dvf = report.dvf_by_structure()
        assert all(v > 0 for v in dvf.values())
        assert report.dvf_application == pytest.approx(sum(dvf.values()))
        assert (report.machine, report.fit) == ("box", 5000)

    def test_invalid_model_fails_compilation(self):
        source = """
        model m {
          data A { elements: 10, element_size: 8 }
          kernel k { order: "A", flops: 1 }
        }
        """ + MACHINE
        with pytest.raises(AspenSemanticError):
            compile_source(source)

    def test_machine_object_can_replace_source_machine(self):
        machine = MachineModel.from_geometry(CacheGeometry(4, 64, 32))
        compiled = compile_source(VM, machine=machine)
        assert compiled.machine is machine

    def test_params_override_at_compile(self):
        small = compile_source(VM + MACHINE)
        large = compile_source(VM + MACHINE, params={"n": 2000})
        assert large.nha_total() > small.nha_total()

    def test_order_composite_used(self):
        source = """
        model cg {
          param n = 100
          data A { elements: n*n, element_size: 8, pattern streaming }
          data p { elements: n, element_size: 8, pattern reuse }
          kernel k { iterations: 5, order: "(Ap)p", flops: n*n }
        }
        """ + MACHINE
        compiled = compile_source(source)
        assert compiled.composite is not None
        nha = compiled.nha_by_structure()
        assert nha["A"] > 0 and nha["p"] > 0
