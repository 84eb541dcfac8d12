"""Legacy ASCII VTK export of meshes and nodal/element fields.

The writer emits DATASET UNSTRUCTURED_GRID with POINTS, CELLS of type 5
(triangles), POINT_DATA scalars for the split real/imaginary solution
components (zero where a field has no unknown) and CELL_DATA scalars for
the indicator and region code.  The bytes are fixed by the values: each
double is Python's "{:.16g}" formatting of its value and each integer its
decimal form, one value per line (a point line holds x1, x2 and 0).
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["write_vtk", "state_point_data"]

HEADER = "# vtk DataFile Version 3.0"
_DOUBLE = "{:.16g}".format


def state_point_data(state) -> dict:
    """Standard point arrays of a solution state."""
    return {
        "p_re": state.p.real, "p_im": state.p.imag,
        "u1_re": state.u[:, 0].real, "u1_im": state.u[:, 0].imag,
        "u2_re": state.u[:, 1].real, "u2_im": state.u[:, 1].imag,
    }


def write_vtk(path, mesh: Mesh, point_data: dict | None = None,
              cell_data: dict | None = None, title: str = "fsgrating fields"):
    """Write the mesh and optional fields as a legacy ASCII VTK file."""
    lines = [HEADER, title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {mesh.n_nodes} double")
    lines.extend(map("{:.16g} {:.16g} 0".format, *mesh.nodes.T.tolist()))
    lines.append(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}")
    lines.extend(map("3 {} {} {}".format, *mesh.elems.T.tolist()))
    lines.append(f"CELL_TYPES {mesh.n_elems}")
    lines.extend(["5"] * mesh.n_elems)

    if point_data:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(map(_DOUBLE, np.asarray(values, dtype=float).tolist()))
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_elems}")
        for name, values in cell_data.items():
            arr = np.asarray(values)
            if np.issubdtype(arr.dtype, np.integer):
                lines.append(f"SCALARS {name} int 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(str, arr.tolist()))
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(_DOUBLE, arr.astype(float).tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
