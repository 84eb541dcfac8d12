import numpy as np

from fsgrating import PmlConfig
from fsgrating import mesh as msh
from fsgrating import vtkio


def reference_write_vtk(path, mesh, point_data=None, cell_data=None,
                        title="fsgrating fields"):
    """Per-value f-string writer, the reference for the bytes of write_vtk."""
    lines = [vtkio.HEADER, title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {mesh.n_nodes} double")
    for x, y in mesh.nodes:
        lines.append(f"{x:.16g} {y:.16g} 0")
    lines.append(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}")
    for a, b, c in mesh.elems:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_elems}")
    lines.extend(["5"] * mesh.n_elems)
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in np.asarray(values, dtype=float))
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_elems}")
        for name, values in cell_data.items():
            arr = np.asarray(values)
            if np.issubdtype(arr.dtype, np.integer):
                lines.append(f"SCALARS {name} int 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(str(int(v)) for v in arr)
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.16g}" for v in arr.astype(float))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_vtk_bytes_match_reference(corner_cfg, tmp_path):
    m = msh.generate_initial_mesh(corner_cfg, PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 2.0),
                                  0.5)
    rng = np.random.default_rng(3)
    special = [-0.0, 1e-300, 1 / 3, 2.0 ** 53, -2.5e17, 5e-324, 0.1 + 0.2]
    values = rng.normal(size=m.n_nodes) * 10.0 ** rng.integers(-20, 20, m.n_nodes)
    values[:len(special)] = special
    point_data = {"special": values, "ints_as_double": np.arange(m.n_nodes),
                  "complex_part": (values + 1j).imag}
    cell_data = {"code8": (m.regions - 2).astype(np.int8),
                 "id64": np.arange(m.n_elems, dtype=np.int64) * 2 ** 40,
                 "eta": rng.random(m.n_elems) / 3}
    for pd, cd in ((point_data, cell_data), (None, None)):
        vtkio.write_vtk(tmp_path / "new.vtk", m, pd, cd)
        reference_write_vtk(tmp_path / "ref.vtk", m, pd, cd)
        assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()
