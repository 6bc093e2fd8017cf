"""Model *your own* application with the extended Aspen DSL.

The paper's §III-D workflow: describe the application's data structures
and access patterns (no source code needed, just the pseudocode-level
access behaviour) plus the target machine, and the compiler produces
per-structure main-memory access counts and DVF — in microseconds, so
you can sweep hardware options interactively.

The example models a 2-D Jacobi heat solver: a read grid swept with a
5-point stencil template, a write grid streamed, and a boundary table
randomly sampled.

Run:  python examples/custom_model_dsl.py
"""

from repro.aspen.compiler import compile_source
from repro.core.report import format_table

HEAT_SOLVER = """
// 2-D Jacobi heat diffusion, one time step modeled.
model heat {
  param n     = 96           // grid edge
  param steps = 4            // time steps

  data U {                   // current temperature field (read)
    elements: n*n
    element_size: 8
    dims: (n, n)
    pattern template {
      repeats: steps
      sweep {
        start: (U[1, 0], U[1, 2], U[0, 1], U[2, 1], U[1, 1])
        step: 1
        end: (U[n-2, n-3], U[n-2, n-1], U[n-3, n-2], U[n-1, n-2], U[n-2, n-2])
      }
    }
  }

  data V {                   // next temperature field (write)
    elements: n*n
    element_size: 8
    pattern streaming { sweeps: steps }
  }

  data B {                   // boundary-condition table, random sampling
    elements: 4*n
    element_size: 8
    pattern random { distinct: 16, iterations: steps, cache_ratio: 0.1 }
  }

  kernel timestep {
    flops: steps * 5 * (n-2)*(n-2)
    loads: steps * 8 * 5 * (n-2)*(n-2)
    stores: steps * 8 * (n-2)*(n-2)
  }
}
"""

MACHINES = """
machine laptop {
  cache  { associativity: 8, sets: 8192, line_size: 64 }   // 4 MB LLC
  memory { fit: 5000, bandwidth: 25.6e9 }
  core   { flops: 4.0e9 }
}
machine hpc_node {
  cache  { associativity: 16, sets: 32768, line_size: 64 } // 32 MB LLC
  memory { fit: 1300, bandwidth: 200e9 }                   // SECDED DRAM
  core   { flops: 1.0e12 }
}
"""


def main() -> None:
    rows = []
    for machine in ("laptop", "hpc_node"):
        compiled = compile_source(
            HEAT_SOLVER + MACHINES, model="heat", machine=machine
        )
        nha = compiled.nha_by_structure()
        report = compiled.report()
        dvf = report.dvf_by_structure()
        for structure in sorted(dvf, key=dvf.get, reverse=True):
            rows.append(
                (
                    machine,
                    structure,
                    f"{nha[structure]:.3e}",
                    f"{dvf[structure]:.3e}",
                )
            )
        rows.append(
            (machine, "(application)", "", f"{report.dvf_application:.3e}")
        )
    print("Heat-solver resilience across machines (Aspen DSL workflow)")
    print(format_table(["machine", "structure", "N_ha", "DVF"], rows))
    print()

    # Parameter sweeps need no source edits: override model params.
    print("Problem-size sweep on the laptop machine:")
    sweep_rows = []
    for n in (48, 96, 192):
        compiled = compile_source(
            HEAT_SOLVER + MACHINES,
            model="heat",
            machine="laptop",
            params={"n": n},
        )
        sweep_rows.append((n, f"{compiled.report().dvf_application:.3e}"))
    print(format_table(["n", "DVF_a"], sweep_rows))


if __name__ == "__main__":
    main()
