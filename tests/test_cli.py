import warnings

import numpy as np
import pytest

from fsgrating import adapt, cli, solver

EX1_INI = """\
[problem]
omega = 3.141592653589793
rho = 1
rho_f = 1
lambda = 1
mu = 1
theta = 0.5235987755982988
kappa = 1
period = 1
h1 = 1
h2 = -1
profile = 0:0, 1:0

[pml]
delta = 3
sigma_re = 64
sigma_im = 64
t = 2

[run]
tol = 0
tau = 0.5
max_iter = 8
h0 = 0.3
dof_cap = 4000
"""

CORNER_INI = EX1_INI.replace("profile = 0:0, 1:0",
                             "profile = 0:0, 0.5:0.5, 1:0")


@pytest.fixture
def ex1_ini(tmp_path):
    path = tmp_path / "ex1.ini"
    path.write_text(EX1_INI)
    return str(path)


# doubles whose shortest round-trip text has 17 significant digits
SEVENTEEN_DIGITS = ["problem.theta=0.30000000000000004",
                    "problem.profile=0:0, 0.30000000000000004:0.10000000000000002, 1:0",
                    "run.tol=0.0010000000000000002"]


def test_config_roundtrip(ex1_ini, tmp_path):
    for overrides in ([], SEVENTEEN_DIGITS):
        problem, pml, run = cli.parse_config(ex1_ini, overrides)
        dumped = cli.dump_config(problem, pml, run)
        echo = tmp_path / "echo.ini"
        echo.write_text(dumped)
        problem2, pml2, run2 = cli.parse_config(str(echo))
        assert problem2 == problem
        assert pml2 == pml
        assert run2 == run


def test_overrides(ex1_ini):
    problem, pml, run = cli.parse_config(
        ex1_ini, ["problem.kappa=2.5", "pml.delta=1.5", "run.max_iter=3"])
    assert problem.kappa == 2.5
    assert pml.delta1 == 1.5 and pml.delta2 == 1.5
    assert run["max_iter"] == 3
    with pytest.raises(cli.ConfigError):
        cli.parse_config(ex1_ini, ["nonsense"])


def test_dump_config_flag(ex1_ini, capsys):
    code = cli.main(["adapt", "--config", ex1_ini, "--dump-config"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[problem]" in out and "profile" in out


def test_dump_config_runs_the_wood_screen(ex1_ini, capsys):
    grazing = repr(np.pi / 2 - 1e-13)
    code = cli.main(["adapt", "--config", ex1_ini, "--dump-config",
                     "--set", f"problem.theta={grazing}"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_params_meets_target(ex1_ini, capsys):
    code = cli.main(["params", "--config", ex1_ini, "--target", "1e-8",
                     "--set", "pml.sigma_re=1", "--set", "pml.sigma_im=1"])
    assert code == 0
    out = capsys.readouterr().out
    vals = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition("=")
        vals[key.strip()] = value.strip()
    assert float(vals["F1*sqrt(period)"]) <= 1e-8
    assert float(vals["F2*sqrt(period)"]) <= 1e-8


def test_params_unreachable_exits_budget(ex1_ini):
    code = cli.main(["params", "--config", ex1_ini, "--target", "1e-8",
                     "--set", "pml.delta=1e-18"])
    assert code == 5


def test_adapt_writes_csv_and_exits_budget(ex1_ini, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["adapt", "--config", ex1_ini, "--out", str(out),
                     "--vtk-every", "2"])
    assert code == 5  # tol 0 is never reached inside the budget
    csv = (out / "convergence.csv").read_text().strip().split("\n")
    assert csv[0] == "iter,dof,eps_f,eps_p,e_h,seconds"
    dofs = [int(line.split(",")[1]) for line in csv[1:]]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert (out / "fields_0000.vtk").exists()


@pytest.mark.parametrize("every", ["0", "-1"])
def test_adapt_rejects_nonpositive_vtk_every(ex1_ini, tmp_path, every):
    out = tmp_path / "out"
    assert cli.main(["adapt", "--config", ex1_ini, "--out", str(out),
                     "--vtk-every", every]) == 2
    assert not list(out.glob("*"))


@pytest.mark.parametrize("target", ["0", "-1e-8", "nan"])
def test_params_rejects_nonpositive_target(ex1_ini, tmp_path, target):
    assert cli.main(["params", "--config", ex1_ini, "--out", str(tmp_path),
                     f"--target={target}"]) == 2


def test_adapt_converged_exits_zero(ex1_ini, tmp_path):
    code = cli.main(["adapt", "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", "run.tol=5"])
    assert code == 0


def test_solve_writes_vtk(ex1_ini, tmp_path, capsys):
    out = tmp_path / "solveout"
    code = cli.main(["solve", "--config", ex1_ini, "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert [kv.split("=")[0] for kv in line.split()] == \
        ["dof", "residual", "eps_f", "eps_p", "lu_fill"]
    assert int(line.split("lu_fill=")[1]) > int(line.split()[0][4:])
    text = (out / "solution.vtk").read_text().split("\n")
    assert text[0] == "# vtk DataFile Version 3.0"
    assert text[2] == "ASCII"
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    n_pts = int(text[4].split()[1])
    cells_line = 5 + n_pts
    assert text[cells_line].startswith("CELLS ")
    n_cells = int(text[cells_line].split()[1])
    assert f"POINT_DATA {n_pts}" in text
    assert f"CELL_DATA {n_cells}" in text
    for name in ("p_re", "p_im", "u1_re", "u1_im", "u2_re", "u2_im"):
        assert f"SCALARS {name} double 1" in text
    assert "SCALARS eta double 1" in text
    assert "SCALARS region int 1" in text


def test_verify_flat_reports_slopes(ex1_ini, tmp_path, capsys):
    code = cli.main(["verify-flat", "--config", ex1_ini,
                     "--out", str(tmp_path), "--set", "run.dof_cap=3000",
                     "--set", "run.max_iter=9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope of log e_h" in out
    csv = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    assert csv[1].split(",")[4] != ""   # e_h column populated


def test_verify_flat_single_record_has_no_slope(ex1_ini, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify-flat", "--config", ex1_ini,
                         "--out", str(tmp_path), "--set", "run.max_iter=1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("vs log dof: n/a")
    assert lines[1].endswith("vs log dof: n/a")


def test_solve_is_first_adaptive_iteration(ex1_ini, tmp_path, capsys):
    solve_out, adapt_out = tmp_path / "solve", tmp_path / "adapt"
    assert cli.main(["solve", "--config", ex1_ini, "--out", str(solve_out)]) == 0
    printed = dict(kv.split("=") for kv in
                   capsys.readouterr().out.splitlines()[0].split())
    cli.main(["adapt", "--config", ex1_ini, "--out", str(adapt_out),
              "--set", "run.max_iter=1", "--vtk-every", "1"])
    assert ((solve_out / "solution.vtk").read_bytes()
            == (adapt_out / "fields_0000.vtk").read_bytes())
    rows = (adapt_out / "convergence.csv").read_text().strip().split("\n")
    assert len(rows) == 2
    _, dof, eps_f, eps_p, _, _ = rows[1].split(",")
    assert int(printed["dof"]) == int(dof)
    assert float(printed["eps_f"]) == pytest.approx(float(eps_f), rel=1e-6)
    assert float(printed["eps_p"]) == pytest.approx(float(eps_p), rel=1e-3)

    problem, pml, run = cli.parse_config(ex1_ini)
    result = adapt.run(problem, pml, **{**run, "max_iter": 1})
    assert result.report.residual <= solver.RESIDUAL_RTOL
    assert result.report.lu_fill > 0
    assert int(printed["lu_fill"]) == result.report.lu_fill


def test_verify_flat_rejects_corner_profile(tmp_path):
    path = tmp_path / "corner.ini"
    path.write_text(CORNER_INI)
    code = cli.main(["verify-flat", "--config", str(path),
                     "--out", str(tmp_path)])
    assert code == 2


def test_spectral_check(ex1_ini, tmp_path, capsys):
    code = cli.main(["spectral-check", "--config", ex1_ini,
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
    table = (tmp_path / "modes.csv").read_text().strip().split("\n")
    assert table[0].startswith("n,")
    assert len(table) > 10


def test_exit_codes_for_error_families(ex1_ini, tmp_path):
    assert cli.main(["adapt", "--config", str(tmp_path / "missing.ini"),
                     "--out", str(tmp_path)]) == 2
    # geometry family: impossible mesh size
    assert cli.main(["solve", "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", "run.h0=-0.5"]) == 3
    # config family: Wood anomaly at grazing incidence
    grazing = repr(np.pi / 2 - 1e-13)
    assert cli.main(["solve", "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", f"problem.theta={grazing}"]) == 2
    # config family: a missing [problem] key
    no_omega = tmp_path / "no_omega.ini"
    no_omega.write_text(EX1_INI.replace("omega = 3.141592653589793\n", ""))
    assert cli.main(["solve", "--config", str(no_omega),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("override", ["pml.delta=0", "pml.sigma_im=0", "pml.t=0.5",
                                      "run.tau=0", "run.tau=1.5", "run.max_iter=0",
                                      "problem.omega=inf", "problem.period=1e400",
                                      "problem.h1=inf", "run.dof_cap=inf",
                                      "pml.delta=inf", "pml.sigma_im=inf"])
@pytest.mark.parametrize("subcommand", ["solve", "adapt", "verify-flat",
                                        "spectral-check", "params"])
def test_inadmissible_pml_exits_config(ex1_ini, tmp_path, subcommand, override):
    assert cli.main([subcommand, "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", override]) == 2
