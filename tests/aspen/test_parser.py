"""Tests for the Aspen DSL parser."""

import pytest

from repro.aspen.errors import AspenSyntaxError
from repro.aspen.parser import parse


VALID = """
// a complete model exercising every construct
model demo {
  param n = 100
  param iters = ceil(n / 10)

  data A {
    elements: n*n
    element_size: 8
    pattern streaming { stride: 4, sweeps: 2 }
  }

  data R {
    elements: n*n, element_size: 16, dims: (n, n)
    pattern template {
      repeats: 2
      refs: (R[0, 0], R[0, 1])
      sweep {
        start: (R[1, 0], R[1, 2])
        step: 1
        end: (R[n-2, n-3], R[n-2, n-1])
      }
    }
  }

  kernel main {
    iterations: iters
    order: "A(RA)"
    flops: 2*n*n
    loads: 8*n*n, stores: 8*n
  }
}

machine box {
  param ghz = 2
  cache { associativity: 4, sets: 64, line_size: 32 }
  memory { fit: 5000, bandwidth: 12.8e9 }
  core { flops: ghz * 1e9 }
}
"""


class TestProgramStructure:
    def test_parses_models_and_machines(self):
        program = parse(VALID)
        assert [m.name for m in program.models] == ["demo"]
        assert [m.name for m in program.machines] == ["box"]

    def test_model_lookup_by_name(self):
        program = parse(VALID)
        assert program.model("demo").name == "demo"

    def test_single_model_default_lookup(self):
        assert parse(VALID).model().name == "demo"

    def test_missing_model_lookup(self):
        with pytest.raises(KeyError):
            parse(VALID).model("nope")

    def test_multiple_models_need_explicit_name(self):
        source = VALID + "\nmodel other { kernel k { flops: 1 } }"
        with pytest.raises(KeyError, match="exactly one"):
            parse(source).model()

    def test_empty_source(self):
        program = parse("")
        assert program.models == () and program.machines == ()


class TestModelContents:
    def test_params(self):
        model = parse(VALID).model()
        assert [p.name for p in model.params] == ["n", "iters"]

    def test_data_declarations(self):
        model = parse(VALID).model()
        assert [d.name for d in model.data] == ["A", "R"]

    def test_streaming_pattern_properties(self):
        a = parse(VALID).model().data[0]
        assert a.pattern.kind == "streaming"
        assert set(a.pattern.properties) == {"stride", "sweeps"}

    def test_dims_parsed(self):
        r = parse(VALID).model().data[1]
        assert len(r.dims) == 2

    def test_template_refs_and_sweep(self):
        r = parse(VALID).model().data[1]
        assert len(r.pattern.refs) == 2
        assert len(r.pattern.sweeps) == 1
        sweep = r.pattern.sweeps[0]
        assert len(sweep.start) == 2 and len(sweep.end) == 2

    def test_kernel_order_string(self):
        kernel = parse(VALID).model().kernels[0]
        assert kernel.order == "A(RA)"

    def test_kernel_properties(self):
        kernel = parse(VALID).model().kernels[0]
        assert set(kernel.properties) >= {"iterations", "flops", "loads", "stores"}


class TestMachineContents:
    def test_sections(self):
        machine = parse(VALID).machine()
        assert set(machine.sections) == {"cache", "memory", "core"}

    def test_machine_params(self):
        machine = parse(VALID).machine()
        assert [p.name for p in machine.params] == ["ghz"]

    def test_duplicate_section_rejected(self):
        source = "machine m { cache { sets: 1 } cache { sets: 2 } }"
        with pytest.raises(AspenSyntaxError, match="repeats section"):
            parse(source)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "source,match",
        [
            ("bogus", "expected 'model' or 'machine'"),
            ("model { }", "model name"),
            ("model m {", "expected"),
            ("model m { param x }", "'='"),
            ("model m { data D { pattern streaming pattern streaming } }",
             "multiple patterns"),
            ("model m { kernel k { order: 5 } }", "order string"),
            ("model m { data D { elements: } }", "expression"),
        ],
    )
    def test_malformed_sources(self, source, match):
        with pytest.raises(AspenSyntaxError, match=match):
            parse(source)

    def test_multiple_patterns_rejected(self):
        source = """
        model m { data D {
            elements: 1, element_size: 8
            pattern streaming { }
            pattern random { }
        } }
        """
        with pytest.raises(AspenSyntaxError, match="multiple patterns"):
            parse(source)

    def test_sweep_requires_start_and_end(self):
        source = """
        model m { data D {
            elements: 10, element_size: 8
            pattern template { sweep { step: 1 } }
        } }
        """
        with pytest.raises(AspenSyntaxError, match="requires 'start' and 'end'"):
            parse(source)

    def test_error_reports_line(self):
        source = "model m {\n  param x =\n}"
        with pytest.raises(AspenSyntaxError, match="line"):
            parse(source)


class TestSeparators:
    def test_commas_and_newlines_interchangeable(self):
        one_line = (
            'model m { param n = 4, data D { elements: n, element_size: 8 }, '
            'kernel k { flops: 1 } }'
        )
        program = parse(one_line)
        assert program.model().data[0].name == "D"

    def test_pattern_without_body(self):
        source = """
        model m {
          data D { elements: 10, element_size: 8, pattern reuse }
          kernel k { flops: 1 }
        }
        """
        assert parse(source).model().data[0].pattern.kind == "reuse"
