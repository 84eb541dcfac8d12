import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fsgrating
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


@pytest.mark.parametrize("item", ["pml.t", "run.tol", "problem.profile"])
def test_override_without_value_blames_the_override(ex1_ini, item):
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(ex1_ini, [item])
    assert str(exc.value) == f"override must look like section.key=value: {item}"


def test_override_adds_a_missing_section(tmp_path, capsys):
    path = tmp_path / "no_run.ini"
    path.write_text(EX1_INI[:EX1_INI.index("[run]")])
    code = cli.main(["adapt", "--config", str(path), "--dump-config",
                     "--set", "run.max_iter=1"])
    assert code == 0
    assert "max_iter = 1\n" in capsys.readouterr().out


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
    assert result.records[-1].report.residual <= solver.RESIDUAL_RTOL
    assert result.records[-1].report.lu_fill > 0
    assert int(printed["lu_fill"]) == result.records[-1].report.lu_fill


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
    # geometry family: a profile vertex within the mesh tolerance of the
    # seam x1 = 0 leaves the two periodic sides with unequal node counts
    assert cli.main(["solve", "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", "problem.profile=0:0,1e-13:0.5,1:0"]) == 3
    # config family: an impossible mesh size, screened before any mesh
    assert cli.main(["solve", "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", "run.h0=-0.5"]) == 2
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
                                      "problem.h1=inf", "problem.kappa=1e-300",
                                      "run.dof_cap=inf",
                                      "pml.delta=inf", "pml.sigma_im=inf",
                                      "run.tol=nan", "run.tol=-1",
                                      "run.h0=0", "run.h0=-1", "run.h0=nan",
                                      "run.h0=inf", "run.dof_cap=0",
                                      "run.dof_cap=-5",
                                      "problem.profile=0:0, nan:0.5, 1:0",
                                      "problem.profile=0:0, 0.5:nan, 1:0"])
@pytest.mark.parametrize("subcommand", ["solve", "adapt", "verify-flat",
                                        "spectral-check", "params"])
def test_inadmissible_pml_exits_config(ex1_ini, tmp_path, subcommand, override):
    assert cli.main([subcommand, "--config", ex1_ini, "--out", str(tmp_path),
                     "--set", override]) == 2


# sizes that underflow, overflow or pass the int32 range, each raised where
# it is derived: the layer bound F2 in config.derive, the order window, the
# initial mesh
@pytest.mark.parametrize("subcommand, overrides, named", [
    ("params", ("problem.omega=1e-300",), "omega"),
    ("params", ("problem.rho=1e-300",), "rho"),
    ("params", ("problem.lambda=1e300",), "lam"),
    ("params", ("problem.kappa=1e300",), "kappa"),
    ("params", ("problem.mu=1e-300",), "mu"),
    ("params", ("problem.omega=1e300",), "omega"),
    ("solve", ("problem.h1=1e300",), "h1"),
    ("solve", ("problem.h2=-1e300",), "h2"),
    ("solve", ("run.h0=1e-300",), "h0"),
    ("solve", ("run.h0=1e-6",), "h0"),
    # kappa2^4 overflows; omega^2*rho/kappa1^4 overflows with kappa1^4 > 0
    ("params", ("problem.period=1e-100", "problem.profile=0:0, 1e-100:0",
                "problem.omega=1e90"), "kappa2"),
    ("params", ("problem.period=1e-40", "problem.profile=0:0, 1e-40:0",
                "problem.omega=1e37", "problem.lambda=1e234"), "kappa1"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_extreme_sizes_exit_config_naming_the_parameter(ex1_ini, tmp_path, capsys,
                                                        subcommand, overrides, named):
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert cli.main([subcommand, "--config", ex1_ini, "--out", str(tmp_path)] + sets) == 2
    assert named in capsys.readouterr().err


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_command_line_defaults_blas_to_one_thread(preset, want):
    # a fresh interpreter, where the package loads numpy; a count the
    # caller set stays
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(Path(fsgrating.__file__).parents[1])
    env.update(dict.fromkeys(BLAS_THREADS, preset) if preset else {})
    probe = ("import os, sys; from fsgrating import cli; assert 'numpy' in sys.modules; "
             f"print(*(os.environ[k] for k in {BLAS_THREADS!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [want, want]


def readme_config(tmp_path):
    """The configuration block of README.md, written to tmp_path/readme.ini."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    return path


def test_readme_example_config_runs(tmp_path):
    # the configuration README.md offers to start from converges within
    # twelve iterations
    path = readme_config(tmp_path)
    code = cli.main(["adapt", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--set", "run.max_iter=12"])
    assert code == 0


def test_readme_spectral_check_at_omega_13(tmp_path, capsys):
    # order 2 has one layer exponent past the float range and one not: every
    # coefficient stays finite and all three checks pass
    out = tmp_path / "out"
    code = cli.main(["spectral-check", "--config", str(readme_config(tmp_path)),
                     "--out", str(out), "--set", "problem.omega=13"])
    assert code == 0
    _, *rows = (out / "modes.csv").read_text().splitlines()
    assert rows and all(np.isfinite(complex(cell))
                        for row in rows for cell in row.split(","))
    printed = capsys.readouterr().out
    assert printed.count("[PASS]") == 3 and "[FAIL]" not in printed
