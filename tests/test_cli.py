import csv
import json
import time

import numpy as np
import pytest

from alcove.cli import build_system, main
from alcove.laplacian import apply_free, apply_macdonald_ruijsenaars, operator_matrix


def _cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


A2_MACDONALD = {
    "root_system": {"label": "A", "rank": 2},
    "cfunctions": {"family": "macdonald", "g": 1.3, "q": 0.5},
    "weights": {"tops": [[1, 1]]},
    "seed": 1,
    "n_spectral_points": 3,
    "max_lambdas": 1,
}


def test_verify_appendix_a(tmp_path):
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "appendixA", "--config", cfg,
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and rep["version"]
    assert all(c["pass"] for c in rep["checks"])
    assert rep["config"] == A2_MACDONALD  # provenance embedded


def test_verify_orthonormality_and_smatrix(tmp_path):
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    assert main(["verify", "--suite", "orthonormality", "--config", cfg,
                 "--out", str(tmp_path / "o.json")]) == 0
    assert main(["verify", "--suite", "smatrix", "--config", cfg,
                 "--out", str(tmp_path / "s.json")]) == 0


def test_verify_free_laplacian_bc1(tmp_path):
    cfg = _cfg(tmp_path, "bc1.json", {
        "root_system": {"label": "BC", "rank": 1},
        "cfunctions": {"family": "unit"},
        "weights": {"max_height": 6}})
    out = tmp_path / "f.json"
    assert main(["verify", "--suite", "free-laplacian", "--config", cfg,
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    names = [c["check"] for c in rep["checks"]]
    assert any("hard wall" in n for n in names)


def test_parameter_rejection_exit_code(tmp_path):
    cfg = _cfg(tmp_path, "bad.json", {
        "root_system": {"label": "A", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": -1, "q": 0.5}})
    assert main(["verify", "--suite", "orthonormality", "--config", cfg]) == 2


def test_budget_exit_code(tmp_path):
    cfg = _cfg(tmp_path, "e7.json", {
        "root_system": {"label": "E", "rank": 7},
        "cfunctions": {"family": "unit"},
        "weights": {"tops": [[1, 0, 0, 0, 0, 0, 0]]}})
    assert main(["verify", "--suite", "orthonormality", "--config", cfg]) == 3


def test_grid_budget_exit_code(tmp_path, capsys):
    # E6 at the default M=48 would need 48^6 grid points
    cfg = _cfg(tmp_path, "e6.json", {
        "root_system": {"label": "E", "rank": 6},
        "cfunctions": {"family": "unit"}})
    assert main(["verify", "--suite", "smatrix", "--config", cfg,
                 "--out", str(tmp_path / "s.json")]) == 3
    assert f"{48 ** 6} points" in capsys.readouterr().err


# the example configuration of README.md
README_EXAMPLE = {
    "root_system": {"label": "A", "rank": 2},
    "cfunctions": {"family": "macdonald", "g": 1.3, "q": 0.5},
    "weights": {"tops": [[1, 1]]},
    "task": {
        "ray": {"direction": [1, 1], "steps": 4},
        "evolve": {"times": [4, 8, 16, 32], "radius": 1.0, "sign": 1},
    },
}


def test_readme_evolve_exits_on_gram_budget(tmp_path, capsys, monkeypatch):
    # depth 200 on A2: 20,201 weights and a first rung at M=1610, whose
    # values alone would take 780 GiB; refused before the grid or any orbit
    # is built
    import alcove.harmonic as harmonic
    import alcove.orthopoly as orthopoly
    built, orbits = [], []
    monkeypatch.setattr(harmonic, "QuadratureGrid",
                        lambda rs, M: built.append(M))
    monkeypatch.setattr(orthopoly, "monomial_symmetric",
                        lambda rs, lam: orbits.append(lam))
    cfg = _cfg(tmp_path, "readme.json", README_EXAMPLE)
    start = time.perf_counter()
    assert main(["scatter", "--evolve", "--config", cfg,
                 "--out", str(tmp_path / "e.json")]) == 3
    assert time.perf_counter() - start < 5.0
    assert not built and not orbits and not (tmp_path / "e.json").exists()
    required = harmonic.gram_bytes(20201, 1610 ** 2)
    assert required > 780 * 2 ** 30
    assert (f"Gram ladder of 20201 weights on A2 at M=1610 has {required} bytes"
            in capsys.readouterr().err)


def test_b2_evolve_center_grid_resolves_the_table(tmp_path, capsys):
    # the center search grid used to sit below 2 * bandwidth + 2 on B2, C2
    # and G2, so every such run exited 1 ("grid M=32 cannot resolve kernel
    # frequencies up to 21" here)
    cfg = _cfg(tmp_path, "b2.json", {
        "root_system": {"label": "B", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": {"1": 0.9, "2": 1.4}, "q": 0.5},
        "task": {"evolve": {"times": [1], "radius": 0.5, "lattice_depth": 6}}})
    code = main(["scatter", "--evolve", "--config", cfg,
                 "--out", str(tmp_path / "ev.json")])
    assert code != 1
    assert "cannot resolve" not in capsys.readouterr().err


def test_scatter_ray_csv(tmp_path):
    cfg = _cfg(tmp_path, "ray.json", {
        "root_system": {"label": "A", "rank": 1},
        "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5},
        "task": {"ray": {"direction": [1], "steps": 6}}})
    out = tmp_path / "ray.csv"
    assert main(["scatter", "--ray", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "lambda,m,norm"
    norms = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_export_polynomials_deterministic(tmp_path):
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    for d in ("x1", "x2"):
        assert main(["export", "polynomials", "--config", cfg,
                     "--out", str(tmp_path / d)]) == 0
    a = (tmp_path / "x1" / "polynomials.json").read_bytes()
    b = (tmp_path / "x2" / "polynomials.json").read_bytes()
    assert a == b


def test_export_operator_and_smatrix(tmp_path):
    cfg = _cfg(tmp_path, "bc2.json", {
        "root_system": {"label": "BC", "rank": 2},
        "cfunctions": {"family": "koornwinder", "ghat": 1.1,
                       "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
        "weights": {"tops": [[2, 1]]},
        "grid": {"M": 32}})
    assert main(["export", "operator", "--config", cfg,
                 "--out", str(tmp_path / "op")]) == 0
    text = (tmp_path / "op" / "operator.csv").read_text().splitlines()
    assert text[0] == "row_weight,col_weight,value_re,value_im"
    # symmetric CSV matrix: collect entries and check hermiticity
    entries = {}
    for line in text[1:]:
        r, c, re, im = line.split(",")
        entries[(r, c)] = complex(float(re), float(im))
    sites = {r for r, _ in entries}
    import numpy as np
    for (r, c), v in entries.items():
        assert abs(entries.get((c, r), 0) - np.conj(v)) < 1e-10
    assert main(["export", "smatrix", "--config", cfg,
                 "--out", str(tmp_path / "sm")]) == 0
    lines = (tmp_path / "sm" / "smatrix.csv").read_text().splitlines()
    for line in lines[1:10]:
        vals = [float(x) for x in line.split(",")]
        assert abs(vals[-2] ** 2 + vals[-1] ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("family", [{"family": "macdonald", "g": 1.3, "q": 0.5},
                                    {"family": "unit"}], ids=["macdonald", "unit"])
def test_export_operator_matches_library(tmp_path, family):
    # the reduced-system branches of export operator: the CSV holds exactly
    # the nonzero entries of the library's operator_matrix, and is Hermitian
    config = {"root_system": {"label": "A", "rank": 2}, "cfunctions": family,
              "weights": {"tops": [[2, 2]]}}
    cfg = _cfg(tmp_path, "a2.json", config)
    assert main(["export", "operator", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "operator.csv", newline="") as fh:
        entries = {(row["row_weight"], row["col_weight"]):
                   complex(float(row["value_re"]), float(row["value_im"]))
                   for row in csv.DictReader(fh)}
    rs, params, _ = build_system(config)
    pi = rs.quasi_minuscule_weight()
    if params is None:
        apply_fn = lambda f: apply_free(rs, pi, f)
    else:
        apply_fn = lambda f: apply_macdonald_ruijsenaars(params, pi, f)
    sites = rs.saturated_weights([(2, 2)])
    mat = operator_matrix(apply_fn, rs, sites)
    names = [" ".join(map(str, s)) for s in sites]
    assert entries == {(names[i], names[j]): mat[i, j]
                       for i, j in zip(*np.nonzero(mat))}
    for (r, c), v in entries.items():
        assert abs(entries.get((c, r), 0) - np.conj(v)) < 1e-10


def test_export_empty_weight_set(tmp_path):
    cfg = _cfg(tmp_path, "empty.json", {
        "root_system": {"label": "A", "rank": 2},
        "cfunctions": {"family": "unit"},
        "weights": {"tops": [[0, 0]]}})
    assert main(["export", "polynomials", "--config", cfg,
                 "--out", str(tmp_path / "e")]) == 0
    rep = json.loads((tmp_path / "e" / "polynomials.json").read_text())
    assert list(rep["coefficients"]) == ["0,0"]


def test_unknown_suite(tmp_path):
    # argparse rejects an unknown suite with the config-error exit code
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope", "--config", cfg])
    assert err.value.code == 2


@pytest.mark.parametrize("argv,patch", [
    (["scatter", "--ray"], {"task": {"ray": {"steps": 0}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": []}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"radius": 0}}}),
    (["scatter", "--ray"], {"grid": {"M": 1}}),
    (["export", "smatrix"], {"grid": {"M": 1}}),
    # at least 2, but below 2 * kernel bandwidth + 2 (bandwidth 7 and 3)
    (["scatter", "--ray"], {"grid": {"M": 4}}),
    (["export", "smatrix"], {"grid": {"M": 4}}),
    (["scatter", "--ray"], {"root_system": {"label": "A", "rank": 2},
                            "task": {"ray": {"direction": [-1, 1]}}}),
    (["scatter", "--ray"], {"task": {"ray": {"direction": [0]}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [0, 8]}}}),
    # weights and c-functions; a list patch is the whole config file
    (["verify"], {"root_system": {"label": "A", "rank": 2},
                  "weights": {"tops": [[1]]}}),
    (["verify"], {"root_system": {"label": "A", "rank": 2},
                  "weights": {"tops": [[-1, 1]]}}),
    (["export", "polynomials"], {"root_system": {"label": "B", "rank": 2},
                                 "cfunctions": {"family": "macdonald",
                                                "g": {"1": 0.9}, "q": 0.5}}),
    (["export", "polynomials"], {"root_system": {"label": "BC", "rank": 1},
                                 "cfunctions": {"family": "koornwinder",
                                                "g0123": [0.9, 0.7, 0.6]}}),
    (["export", "polynomials"], [1, 2]),
    # values that are not numbers
    (["verify"], {"cfunctions": {"family": "macdonald", "g": 2.0, "q": "x"}}),
    (["verify"], {"root_system": {"label": "A", "rank": 2},
                  "weights": {"tops": [["a", 1]]}}),
    (["verify"], {"weights": {"max_height": "h"}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"radius": "r"}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": "c"}}}),
    (["scatter", "--ray"], {"grid": {"M": "m"}}),
    (["verify", "--suite", "smatrix"], {"tolerances": {"smatrix": "t"}}),
    (["verify", "--tol", "x"], {}),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": [1.0]}}}),
    # evolve values that crashed, and verify sizes that checked nothing
    (["scatter", "--evolve"], {"task": {"evolve": {"sign": 3}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"sign": 0}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"lattice_depth": -5}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"orbit": [1, 1]}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"orbit": [0]}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [-4, 8]}}}),
    (["verify", "--suite", "free-laplacian"], {"weights": {"max_height": -1}}),
    (["verify", "--suite", "appendixA"], {"n_spectral_points": -3}),
    (["verify", "--suite", "appendixA"], {"max_lambdas": -1}),
    # an empty weights.tops, on every verb that reads it
    (["verify"], {"weights": {"tops": []}}),
    (["export", "polynomials"], {"weights": {"tops": []}}),
    (["export", "operator"], {"weights": {"tops": []}}),
    (["export", "smatrix"], {"weights": {"tops": []}}),
    # both scatter tasks at once: only the ray used to run
    (["scatter", "--ray", "--evolve"], {}),
    # tolerances that were ignored (unknown keys) or failed every check (NaN)
    (["verify", "--suite", "appendixA"], {"tolerances": {"peiri": 1e-30}}),
    (["verify", "--suite", "appendixA", "--tol", '{"peiri": 1e-30}'], {}),
    (["verify"], {"tolerances": {"norm": 1e-30}}),
    (["verify"], {"tolerances": {"norms": float("nan")}}),
    (["verify", "--tol", '{"orthonormality": NaN}'], {}),
    (["verify"], {"tolerances": {"orthonormality": -1e-8}}),
    # --tol merged into tolerances that are not an object
    (["verify", "--tol", '{"free": 0}'], {"tolerances": [1]}),
    # numbers that are not finite (json.dumps writes NaN and Infinity)
    (["verify"], {"cfunctions": {"family": "macdonald", "g": float("nan"), "q": 0.5}}),
    (["export", "polynomials"], {"cfunctions": {"family": "macdonald",
                                                "g": float("inf"), "q": 0.5}}),
    (["export", "polynomials"], {"root_system": {"label": "BC", "rank": 1},
                                 "cfunctions": {"family": "koornwinder", "ghat": float("inf"),
                                                "g0123": [0.9, 0.7, 0.6, 0.8]}}),
    (["scatter", "--ray"], {"grid": {"M": float("inf")}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"radius": float("nan")}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [4, float("nan")]}}}),
])
def test_bad_task_values_are_config_errors(tmp_path, argv, patch):
    base = {"root_system": {"label": "A", "rank": 1},
            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5}}
    cfg = _cfg(tmp_path, "bad.json",
               {**base, **patch} if isinstance(patch, dict) else patch)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2


BC2_KOORNWINDER = {
    "root_system": {"label": "BC", "rank": 2},
    "cfunctions": {"family": "koornwinder", "ghat": 1.1,
                   "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
}


@pytest.mark.parametrize("config", [A2_MACDONALD, BC2_KOORNWINDER])
def test_smatrix_factor_row_checks_direct_factor(tmp_path, monkeypatch, config):
    # the factorized S_w against C(w xi)/C(-w xi), at the smatrix tolerance
    cfg = _cfg(tmp_path, "s.json", config)
    out = tmp_path / "s_out.json"
    argv = ["verify", "--suite", "smatrix", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    row = json.loads(out.read_text())["checks"][1]
    assert "root factors" in row["check"]
    assert row["pass"] and row["residual"] <= row["tolerance"] == 1e-13

    import alcove.cli
    direct = alcove.cli.smatrix_factor_direct
    monkeypatch.setattr(alcove.cli, "smatrix_factor_direct",
                        lambda spec, w, grid: direct(spec, w, grid) + 1e-12)
    assert main(argv) == 4
    row = json.loads(out.read_text())["checks"][1]
    assert not row["pass"] and row["residual"] > 9e-13


@pytest.mark.parametrize("verb", [["verify"], ["export", "polynomials"],
                                  ["scatter", "--evolve"]])
def test_workers_only_on_scatter(tmp_path, verb):
    # no verb takes --workers
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    with pytest.raises(SystemExit) as err:
        main(verb + ["--config", cfg, "--workers", "2"])
    assert err.value.code == 2


BC1_EVOLVE = {
    "root_system": {"label": "BC", "rank": 1},
    "cfunctions": {"family": "koornwinder", "ghat": 1.0,
                   "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
    "task": {"evolve": {"times": [4, 8, 16, 32], "lattice_depth": 150}},
}


def test_scatter_evolve(tmp_path, capsys):
    cfg = _cfg(tmp_path, "bc1.json", BC1_EVOLVE)
    reports = []
    for run in ("1", "2"):
        out = tmp_path / f"evolve{run}.json"
        assert main(["scatter", "--evolve", "--config", cfg, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert json.loads(reports[0])["evolution"]["success"] is True
    assert reports[0] == reports[1]
    shallow = json.loads(json.dumps(BC1_EVOLVE))
    shallow["task"]["evolve"]["lattice_depth"] = 40
    cfg = _cfg(tmp_path, "shallow.json", shallow)
    assert main(["scatter", "--evolve", "--config", cfg,
                 "--out", str(tmp_path / "shallow_out.json")]) == 2
    assert "task.evolve.lattice_depth" in capsys.readouterr().err
