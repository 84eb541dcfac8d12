"""Legacy ASCII VTK export of meshes and nodal/element fields.

The writer emits DATASET UNSTRUCTURED_GRID with POINTS, CELLS of type 5
(triangles), POINT_DATA scalars for the split real/imaginary solution
components (zero where a field has no unknown) and CELL_DATA scalars for
the indicator and region code.  The bytes are fixed by the values: each
double is Python's "%.16g" formatting of its value and each integer its
decimal form, one value per line (a point line holds x1, x2 and 0).  Each
section is formatted by one call over all its values.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["write_vtk", "write_fields", "state_point_data"]

HEADER = "# vtk DataFile Version 3.0"
TITLE = "fsgrating fields"


def state_point_data(state) -> dict:
    """Standard point arrays of a solution state."""
    return {
        "p_re": state.p.real, "p_im": state.p.imag,
        "u1_re": state.u[:, 0].real, "u1_im": state.u[:, 0].imag,
        "u2_re": state.u[:, 1].real, "u2_im": state.u[:, 1].imag,
    }


def _lines(fmt: str, values: np.ndarray) -> str:
    """All rows of a C-ordered array in one formatting call; fmt formats
    one row and ends its line."""
    return fmt * values.shape[0] % tuple(values.ravel().tolist())


def _scalars(fh, name: str, arr: np.ndarray):
    """One SCALARS section: int for an integer array, double otherwise."""
    if np.issubdtype(arr.dtype, np.integer):
        kind, fmt = "int", "%d\n"
    else:
        kind, fmt, arr = "double", "%.16g\n", arr.astype(float, copy=False)
    fh.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
    fh.write(_lines(fmt, arr))


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None):
    """Write the mesh and optional fields as a legacy ASCII VTK file."""
    with open(path, "w") as fh:
        fh.write(f"{HEADER}\n{TITLE}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_nodes} double\n")
        fh.write(_lines("%.16g %.16g 0\n", mesh.nodes))
        fh.write(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}\n")
        fh.write(_lines("3 %d %d %d\n", mesh.elems))
        fh.write(f"CELL_TYPES {mesh.n_elems}\n" + "5\n" * mesh.n_elems)
        if point_data:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, values in point_data.items():
                _scalars(fh, name, np.asarray(values, dtype=float))
        if cell_data:
            fh.write(f"CELL_DATA {mesh.n_elems}\n")
            for name, values in cell_data.items():
                _scalars(fh, name, np.asarray(values))


def write_fields(path, mesh: Mesh, state, eta):
    """Write a solution snapshot: the state's point arrays, the indicator
    ``eta`` and the region code of each element."""
    write_vtk(path, mesh, point_data=state_point_data(state),
              cell_data={"eta": eta, "region": mesh.regions.astype(int)})
