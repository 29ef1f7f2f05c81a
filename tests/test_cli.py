import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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


def _appendix_a_names(lams, n_xi, n_lam):
    """The check names of appendixA on A2, in report order."""
    pis = ["(1, 0)", "(0, 1)", "(1, 1)"]
    names = [f"specialization {lam}" for lam in lams]
    names += [f"symmetry {a}|{b}" for a in pis[:2] for b in pis[:2]]
    names += [f"macdonald identity {a}" for a in pis[:2]]
    for lam in lams[:n_lam]:
        for k in range(n_xi):
            names += [f"difference eq {lam} pi={pi} #{k}" for pi in pis]
            names += [f"pieri {lam} pi={pi} #{k}" for pi in pis]
    return names


@pytest.mark.parametrize("top,n_xi,n_lam,lams,count", [
    ([1, 1], 3, 1, [(1, 1)], 25),
    ([2, 2], 20, 3, [(1, 1), (0, 3), (3, 0), (2, 2)], 370),
])
def test_appendix_a_batches_keep_names_and_order(tmp_path, top, n_xi, n_lam, lams, count):
    # each identity is evaluated once per weight over all its points; the
    # checks are still reported point by point, and a run repeats to the byte
    cfg = _cfg(tmp_path, "a2.json", {
        "root_system": {"label": "A", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": 1.3059, "q": 0.5},
        "weights": {"tops": [top]}, "seed": 3,
        "n_spectral_points": n_xi, "max_lambdas": n_lam})
    reports = []
    for run in ("1", "2"):
        out = tmp_path / f"rep{run}.json"
        assert main(["verify", "--suite", "appendixA", "--config", cfg,
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    checks = json.loads(reports[0])["checks"]
    assert [c["check"] for c in checks] == _appendix_a_names(lams, n_xi, n_lam)
    assert len(checks) == count and all(c["pass"] for c in checks)


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


@pytest.mark.parametrize("label,rank,weights", [
    ("A", 30, {}),                       # weight_tops would scan a 3^30 box
    ("A", 10 ** 29, {}),                 # too large for an index
    ("E", 8, {"max_height": 1}),         # orbits for over a minute
])
def test_weyl_budget_exits_before_anything_is_built(tmp_path, capsys, monkeypatch,
                                                    label, rank, weights):
    import alcove.cli as cli

    def refuse(*args):
        raise AssertionError("root system built")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    cfg = _cfg(tmp_path, "big.json", {"root_system": {"label": label, "rank": rank},
                                      "weights": weights})
    start = time.perf_counter()
    assert main(["verify", "--suite", "orthonormality", "--config", cfg]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"Weyl group of {label}{rank} has at least" in capsys.readouterr().err


def test_grid_budget_exit_code(tmp_path, capsys):
    # E6 at the default M=48 would need 48^6 grid points
    cfg = _cfg(tmp_path, "e6.json", {
        "root_system": {"label": "E", "rank": 6},
        "cfunctions": {"family": "unit"}})
    assert main(["verify", "--suite", "smatrix", "--config", cfg,
                 "--out", str(tmp_path / "s.json")]) == 3
    assert f"{48 ** 6} points" in capsys.readouterr().err


def test_unit_orthonormality_refuses_its_rung_before_any_character(tmp_path, capsys,
                                                                    monkeypatch):
    # A7 unit with max_height 1: 7 weights whose rung M=34 needs 34^7 grid
    # points; refused before a weight multiplicity (|W| = 40,320) is folded
    import alcove.orthopoly as orthopoly

    def refuse(*args):
        raise AssertionError("multiplicities built")

    monkeypatch.setattr(orthopoly, "weight_multiplicities", refuse)
    cfg = _cfg(tmp_path, "a7.json", {"root_system": {"label": "A", "rank": 7},
                                     "weights": {"max_height": 1}})
    start = time.perf_counter()
    assert main(["verify", "--suite", "orthonormality", "--config", cfg]) == 3
    assert time.perf_counter() - start < 2.0
    assert "Gram ladder of 7 weights on A7 at M=34" in capsys.readouterr().err


@pytest.mark.parametrize("verb,payload,code,message", [
    (["scatter", "--evolve"], {"root_system": {"label": "BC", "rank": 1},
                               "task": {"evolve": {"times": [1e308, 1]}}},
     2, "give no finite lattice depth"),
    (["scatter", "--evolve"], {"root_system": {"label": "BC", "rank": 1},
                               "task": {"evolve": {"radius": 1e-300}}},
     3, "weight box below"),
    (["scatter", "--evolve"], {"root_system": {"label": "A", "rank": 2},
                               "task": {"evolve": {"radius": 1e-3}}},
     3, "weight box below (90110, 90110) on A2 has 389755484416 bytes"),
    (["scatter", "--ray"], {"root_system": {"label": "A", "rank": 2},
                            "task": {"ray": {"steps": 100000}}},
     3, "weight box below (100000, 100000) on A2"),
    (["export", "polynomials"], {"root_system": {"label": "A", "rank": 2},
                                 "weights": {"tops": [[1e22, 1]]}},
     3, "weight box below (10000000000000000000000, 1) on A2"),
    (["export", "operator"], {"root_system": {"label": "A", "rank": 2},
                              "weights": {"tops": [[10000, 10000]]}},
     3, "weight box below (10000, 10000) on A2 has 4800272656 bytes"),
])
def test_oversized_configs_are_refused_before_they_are_enumerated(tmp_path, capsys, verb,
                                                                   payload, code, message):
    cfg = _cfg(tmp_path, "big.json", payload)
    start = time.perf_counter()
    assert main(verb + ["--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert time.perf_counter() - start < 2.0
    assert message in capsys.readouterr().err


def test_unit_polynomials_of_e6(tmp_path):
    # |W| = 51,840: the unit table is folded from the orbits, with no division
    cfg = _cfg(tmp_path, "e6.json", {"root_system": {"label": "E", "rank": 6},
                                     "weights": {"max_height": 1}})
    start = time.perf_counter()
    assert main(["export", "polynomials", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 5.0
    table = json.loads((tmp_path / "polynomials.json").read_text())["coefficients"]
    # the 650-dimensional character: 20 + 5 * 72 + 270 over the orbits of
    # 0, of the highest root and of the top
    assert table["1,0,0,0,0,1"] == {"0,0,0,0,0,0": [20.0, 0.0], "0,1,0,0,0,0": [5.0, 0.0],
                                    "1,0,0,0,0,1": [1.0, 0.0]}


def test_unit_ray_of_g2_at_seventeen_steps(tmp_path, capsys):
    # the table's top (17, 17) is past the weight where a step-limited
    # Laurent division once gave up
    cfg = _cfg(tmp_path, "g2.json", {"root_system": {"label": "G", "rank": 2},
                                     "task": {"ray": {"direction": [1, 1], "steps": 17}}})
    assert main(["scatter", "--ray", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["ray"]["lambdas"][-1] == [17, 17]


@pytest.mark.parametrize("config,steps", [
    # (1, 2) has order 3 in P/Q: steps 3 and 6 are in one coset, 1 and 4 and
    # 2 and 5 in two others, so the last two steps left 1 and 4 untopped
    ({"root_system": {"label": "A", "rank": 2},
      "cfunctions": {"family": "macdonald", "g": 1.3, "q": 0.5},
      "task": {"ray": {"direction": [1, 2], "steps": 6}}}, 6),
    # (1, 1, 2) has order 4 in P/Q = Z/4: every step is in its own coset
    ({"root_system": {"label": "A", "rank": 3},
      "task": {"ray": {"direction": [1, 1, 2], "steps": 3}}}, 3),
])
def test_ray_table_tops_every_coset_of_the_direction(tmp_path, capsys, config, steps):
    cfg = _cfg(tmp_path, "ray.json", config)
    assert main(["scatter", "--ray", "--config", cfg]) == 0
    direction = config["task"]["ray"]["direction"]
    rep = json.loads(capsys.readouterr().out)["ray"]
    assert rep["lambdas"] == [[k * d for d in direction] for k in range(1, steps + 1)]


def _pairwise_tops(rs, h):
    """The tops of weights.max_height h by the pairwise scan: the points of
    the height box that lie below no other."""
    import itertools
    box = [c for c in itertools.product(range(h + 1), repeat=rs.rank)
           if 0 < sum(c) <= h]
    maximal = [c for c in box
               if not any(c != d and rs.dominance_leq(c, d) for d in box)]
    return maximal or [(0,) * rs.rank]


@pytest.mark.parametrize("label,rank,heights", [
    ("A", 2, (0, 2, 7, 20)), ("B", 2, (3, 9, 20)), ("G", 2, (5, 15)),
    ("BC", 2, (4, 12)), ("A", 3, (3, 8)), ("C", 3, (4,))])
def test_max_height_tops_match_the_pairwise_scan(label, rank, heights):
    from alcove.cli import weight_tops
    from alcove.rootsys import build_root_system
    rs = build_root_system(label, rank)
    for h in heights:
        tops = weight_tops({"weights": {"max_height": h}}, rs)
        assert tops == _pairwise_tops(rs, h)
        assert all(type(c) is int for top in tops for c in top)


def test_max_height_tops_enumerate_only_the_top_shell():
    # A3 at h = 200 has 401 tops: the whole height box, C(203, 3) = 1,394,204
    # points, took 1.3 s, and 6.6 s with a 177 MB peak under tracemalloc; the
    # shell of heights 199 and 200 takes 0.9 s, and 1.1 s with 4.8 MB (one
    # process on a 2-vCPU Xeon)
    import tracemalloc
    from alcove.cli import weight_tops
    from alcove.rootsys import build_root_system
    rs = build_root_system("A", 3)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        tops = weight_tops({"weights": {"max_height": 200}}, rs)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tops) == 401 and all(sum(top) == 200 for top in tops)
    assert elapsed < 4.0 and peak < 40e6


def test_max_height_tops_on_a_tall_box():
    # the pairwise scan took 11 s on A2 at h = 80, and the scan of the whole
    # box 42 s at h = 1000
    from alcove.cli import weight_tops
    from alcove.rootsys import build_root_system
    rs = build_root_system("A", 2)
    for h in (80, 1000):
        start = time.perf_counter()
        tops = weight_tops({"weights": {"max_height": h}}, rs)
        assert time.perf_counter() - start < 3.0
        assert tops == [(k, h - k) for k in range(h + 1)]


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
        "task": {"evolve": {"times": [1, 2], "radius": 0.5, "lattice_depth": 6}}})
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


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_export_bc2_operator_csv_is_the_row_major_scan(tmp_path, monkeypatch, seed):
    # the CSV is written from the matrix's nonzero pattern; on the
    # benchmark's export-bc2 configuration its bytes are those of a
    # row-major scan of every entry
    from test_perfbench_spans import WORKLOADS, _load_perfbench
    from alcove.laplacian import apply_koornwinder
    config = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS["export-bc2"].config(seed)
    cfg = _cfg(tmp_path, "bc2.json", config)
    assert main(["export", "operator", "--config", cfg, "--out", str(tmp_path)]) == 0
    rs, params, _ = build_system(config)
    sites = rs.saturated_weights([tuple(t) for t in config["weights"]["tops"]])
    mat = operator_matrix(lambda f: apply_koornwinder(params, f), rs, sites)
    expected = io.StringIO(newline="")
    wr = csv.writer(expected)
    wr.writerow(["row_weight", "col_weight", "value_re", "value_im"])
    for i, a in enumerate(sites):
        for j, b in enumerate(sites):
            if mat[i, j] != 0:
                wr.writerow([" ".join(map(str, a)), " ".join(map(str, b)),
                             repr(float(mat[i, j].real)), repr(float(mat[i, j].imag))])
    assert (tmp_path / "operator.csv").read_bytes() == expected.getvalue().encode()


def test_export_operator_exits_on_its_byte_budget_before_allocating(tmp_path, capsys):
    # 20,201 sites: the dense complex matrix would take 16 * 20,201^2 bytes,
    # above GRAM_BYTES_BUDGET; the run is refused once the sites are known
    cfg = _cfg(tmp_path, "a2.json", {**A2_MACDONALD, "weights": {"tops": [[200, 200]]}})
    start = time.perf_counter()
    assert main(["export", "operator", "--config", cfg,
                 "--out", str(tmp_path / "op")]) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "operator matrix on 20201 sites" in err and "6529286416 bytes" in err
    assert not (tmp_path / "op").exists()


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
    # argparse rejects an unknown suite, and scatter with neither or both of
    # --ray and --evolve (only the ray used to run), with the config-error
    # exit code
    cfg = _cfg(tmp_path, "a2.json", A2_MACDONALD)
    for argv in (["verify", "--suite", "nope"], ["scatter"], ["scatter", "--ray", "--evolve"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", cfg])
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
    # rays that fitted a line through fewer than two distinct m(lambda)
    (["scatter", "--ray"], {"root_system": {"label": "B", "rank": 2},
                            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.3},
                            "task": {"ray": {"direction": [1, 0], "steps": 4}}}),
    (["scatter", "--ray"], {"task": {"ray": {"steps": 1}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [0, 8]}}}),
    # evolve runs that fitted a decay through fewer than two distinct times
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [4]}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [8, 8]}}}),
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
    # a ray direction of the wrong rank
    (["scatter", "--ray"], {"task": {"ray": {"direction": [1, 1]}}}),
    # tolerances that were ignored (unknown keys) or failed every check (NaN)
    (["verify", "--suite", "appendixA"], {"tolerances": {"peiri": 1e-30}}),
    (["verify"], {"tolerances": {"norm": 1e-30}}),
    (["verify"], {"tolerances": {"norms": float("nan")}}),
    (["verify"], {"tolerances": {"orthonormality": -1e-8}}),
    # infinite tolerances, which no residual can fail
    (["verify", "--suite", "appendixA"], {"tolerances": {"pieri": float("inf")}}),
    # tolerances that are not an object
    (["verify"], {"tolerances": [1]}),
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
    # sections that are not objects (each exited 1)
    (["scatter", "--ray"], {"task": [1]}),
    (["scatter", "--ray"], {"task": {"ray": 3}}),
    (["verify"], {"root_system": "A"}),
    (["verify"], {"cfunctions": []}),
    (["scatter", "--ray"], {"grid": 5}),
    (["verify"], {"weights": 3}),
    (["export", "operator"], {"weights": 3}),
    # booleans and strings where a number belongs (each ran)
    (["verify"], {"root_system": {"label": "A", "rank": True}}),
    (["verify"], {"cfunctions": {"family": "macdonald", "g": 2.0, "q": "0.5"}}),
    (["scatter", "--ray"], {"grid": {"M": "40"}}),
    (["scatter", "--ray"], {"task": {"ray": {"steps": True}}}),
    (["verify"], {"tolerances": {"norms": "1e-8"}}),
    # keys that no verb reads, or that the family does not read (each ignored)
    (["scatter", "--ray"], {"task": {"ray": {"step": 2}}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"time": [4]}}}),
    (["verify"], {"tolerance": {"norms": 1e-8}}),
    (["verify"], {"cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5,
                                 "ghat": 1.1}}),
    (["export", "polynomials"], {"root_system": {"label": "BC", "rank": 1},
                                 "cfunctions": {"family": "koornwinder", "g": 1.0}}),
    (["verify", "--suite", "free-laplacian"], {"cfunctions": {"family": "unit", "q": 0.5}}),
])
def test_bad_task_values_are_config_errors(tmp_path, argv, patch):
    base = {"root_system": {"label": "A", "rank": 1},
            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5}}
    cfg = _cfg(tmp_path, "bad.json",
               {**base, **patch} if isinstance(patch, dict) else patch)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2


A2_NEGATIVE_TOP = {**A2_MACDONALD, "weights": {"tops": [[-1, 2]]}}
BC2_SMALL_GRID = {"root_system": {"label": "BC", "rank": 2},
                  "cfunctions": {"family": "koornwinder", "ghat": 1.1,
                                 "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
                  "weights": {"tops": [[2, 1]]}, "grid": {"M": 4}}


@pytest.mark.parametrize("what,config", [
    ("polynomials", A2_NEGATIVE_TOP), ("operator", A2_NEGATIVE_TOP),
    ("smatrix", BC2_SMALL_GRID)])
def test_export_config_error_makes_no_out_directory(tmp_path, what, config):
    out = tmp_path / "new" / "out"
    assert main(["export", what, "--config", _cfg(tmp_path, "bad.json", config),
                 "--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv,out", [
    (["verify"], "missing/r.json"),
    (["verify"], "."),
    (["scatter", "--ray"], "missing/r.csv"),
    (["scatter", "--evolve"], "missing/r.json"),
    (["export", "polynomials"], "file"),
    (["export", "smatrix"], "file/sub"),
])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, out):
    # these ran the whole job and then exited 1 from the writer
    import alcove.cli as cli

    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "gram_schmidt", refuse)
    (tmp_path / "file").write_text("kept")
    cfg = _cfg(tmp_path, "a2.json", {**A2_MACDONALD, "task": {"ray": {"steps": 2}}})
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert f"--out {tmp_path / out}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept"


def test_export_smatrix_default_grid_reaches_the_table_floor(tmp_path):
    # the default M=48 is below this table's floor (80); without a grid
    # section it is raised to the floor instead of being blamed for it
    cfg = _cfg(tmp_path, "b2.json", {
        "root_system": {"label": "B", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": {"1": 0.9, "2": 1.4}, "q": 0.5},
        "weights": {"tops": [[12, 12]]}})
    out = tmp_path / "out"
    assert main(["export", "smatrix", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "smatrix.csv").read_text().splitlines()
    assert rows[0] == "xi_0,xi_1,re,im" and len(rows) > 1


@pytest.mark.parametrize("argv,patch,message", [
    (["scatter", "--ray"], {"task": {"ray": {"step": 2}}},
     "unknown config key 'task.ray.step'"),
    (["verify"], {"tolerance": {"norms": 1e-8}}, "unknown config key 'tolerance'"),
    (["verify"], {"cfunctions": {"family": "macdonald", "g": 2.0, "ghat": 1.1}},
     "unknown config key 'cfunctions.ghat'; have ['family', 'g', 'q']"),
    (["scatter", "--ray"], {"task": {"ray": [2]}}, "task.ray must be an object"),
    (["verify"], {"weights": 3}, "weights must be an object"),
    (["scatter", "--ray"], {"grid": {"M": "40"}}, "grid.M must be a number"),
    (["scatter", "--ray"], {"root_system": {"label": "B", "rank": 2},
                            "task": {"ray": {"direction": [1, 0]}}},
     "task.ray.direction must be a dominant weight of rank 2 with no zero coordinate"),
    (["scatter", "--ray"], {"task": {"ray": {"steps": 1}}},
     "task.ray.steps must be at least 2"),
    (["scatter", "--evolve"], {"task": {"evolve": {"times": [8, 8]}}},
     "task.evolve.times must hold at least two distinct times"),
    (["verify"], {"tolerances": [1]}, "tolerances must be an object, got [1]"),
    # labels that are not strings (each exited 1 from the root-system cache)
    (["verify"], {"root_system": {"label": ["A"], "rank": 1}},
     "root_system.label must be a string"),
    (["verify"], {"root_system": {"label": {"A": 1}, "rank": 1}},
     "root_system.label must be a string"),
    # evolve keys that are present but empty (each ran with its default)
    (["scatter", "--evolve"], {"task": {"evolve": {"orbit": []}}},
     "task.evolve.orbit must be a nonzero weight of rank 1, got []"),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": []}}},
     "task.evolve.center must have 2 entries, got []"),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": 0}}},
     "task.evolve.center must be a list of numbers, got 0"),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": False}}},
     "task.evolve.center must be a list of numbers, got False"),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": ""}}},
     "task.evolve.center must be a list of numbers, got ''"),
    (["scatter", "--evolve"], {"task": {"evolve": {"center": {}}}},
     "task.evolve.center must be a list of numbers, got {}"),
])
def test_config_errors_name_the_key_path(tmp_path, capsys, argv, patch, message):
    base = {"root_system": {"label": "A", "rank": 1},
            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5}}
    cfg = _cfg(tmp_path, "bad.json", {**base, **patch})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,patch,key", [
    (["verify"], {"root_system": {"label": "A", "rank": 1.5}}, "root_system.rank"),
    (["verify"], {"weights": {"max_height": 2.5}}, "weights.max_height"),
    (["verify"], {"weights": {"tops": [[2.5]]}}, "weights.tops"),
    (["scatter", "--ray"], {"grid": {"M": 40.5}}, "grid.M"),
    (["scatter", "--ray"], {"task": {"ray": {"steps": 2.9}}}, "task.ray.steps"),
    (["scatter", "--ray"], {"task": {"ray": {"direction": [1.5]}}}, "task.ray.direction"),
    (["scatter", "--evolve"], {"task": {"evolve": {"sign": 1.5}}}, "task.evolve.sign"),
    (["scatter", "--evolve"], {"task": {"evolve": {"lattice_depth": 40.5}}},
     "task.evolve.lattice_depth"),
    (["scatter", "--evolve"], {"task": {"evolve": {"orbit": [1.5]}}}, "task.evolve.orbit"),
    (["verify", "--suite", "appendixA"], {"seed": 1.5}, "seed"),
    (["verify", "--suite", "appendixA"], {"n_spectral_points": 2.5}, "n_spectral_points"),
    (["verify", "--suite", "appendixA"], {"max_lambdas": 1.5}, "max_lambdas"),
])
def test_integer_keys_refuse_fractions(tmp_path, capsys, argv, patch, key):
    # a fraction used to be truncated (steps 2.9 ran two steps)
    base = {"root_system": {"label": "A", "rank": 1},
            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5}}
    cfg = _cfg(tmp_path, "bad.json", {**base, **patch})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_integral_floats_read_as_integers(tmp_path):
    base = {"root_system": {"label": "A", "rank": 1},
            "cfunctions": {"family": "macdonald", "g": 2.0, "q": 0.5}}
    rays = []
    for steps, m in [(2, 40), (2.0, 40.0)]:
        out = tmp_path / f"ray{len(rays)}.csv"
        cfg = _cfg(tmp_path, "ray.json", {**base, "grid": {"M": m},
                                          "task": {"ray": {"steps": steps}}})
        assert main(["scatter", "--ray", "--config", cfg, "--out", str(out)]) == 0
        rays.append(out.read_bytes())
    assert rays[0] == rays[1] and len(rays[0].splitlines()) == 3


def test_b3_ray_exits_on_gram_budget_before_a_rung(tmp_path, capsys, monkeypatch):
    # 117 weights: the first rung (M=82) fits the byte budget, the second
    # (M=164) does not; a non-unit ladder always builds both, so the run
    # is refused before any orbit or grid is built
    import alcove.harmonic as harmonic
    import alcove.orthopoly as orthopoly
    built, orbits = [], []
    monkeypatch.setattr(harmonic, "QuadratureGrid", lambda rs, M: built.append(M))
    monkeypatch.setattr(orthopoly, "monomial_symmetric",
                        lambda rs, lam: orbits.append(lam))
    cfg = _cfg(tmp_path, "b3.json", {
        "root_system": {"label": "B", "rank": 3},
        "cfunctions": {"family": "macdonald", "g": 1.3, "q": 0.5},
        "task": {"ray": {"direction": [1, 1, 1], "steps": 3}}})
    assert main(["scatter", "--ray", "--config", cfg,
                 "--out", str(tmp_path / "ray.csv")]) == 3
    assert not built and not orbits and not (tmp_path / "ray.csv").exists()
    assert "117 weights on B3 at M=164" in capsys.readouterr().err


def test_ray_exits_on_the_monomial_table_budget_before_allocating(tmp_path, capsys,
                                                                   monkeypatch):
    # 1406 weights at M=110: 16 n M^3 bytes, 27.9 GiB, used to be asked of
    # np.empty (MemoryError, exit 1); the table is refused before the plane
    # waves are summed, which took 1.7 s of 4.0 s and 730 MB of its 867 MB
    # peak (one child on a 2-vCPU Xeon)
    import alcove.scattering as scattering

    def refuse(*args):
        raise AssertionError("plane waves summed")

    monkeypatch.setattr(scattering, "asymptotic_wave_values", refuse)
    cfg = _cfg(tmp_path, "a3.json", {
        "root_system": {"label": "A", "rank": 3},
        "task": {"ray": {"direction": [2, 2, 2], "steps": 6}}})
    assert main(["scatter", "--ray", "--config", cfg,
                 "--out", str(tmp_path / "ray.csv")]) == 3
    assert not (tmp_path / "ray.csv").exists()
    assert ("monomial table of 1406 weights on A3 at M=110 has 29942176000 bytes"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,config,module", [
    (["verify", "--suite", "appendixA"], A2_MACDONALD, "numpy.random"),
    (["scatter", "--evolve"], {
        "root_system": {"label": "BC", "rank": 1},
        "cfunctions": {"family": "koornwinder", "ghat": 1.0,
                       "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
        "task": {"evolve": {"times": [8, 16], "lattice_depth": 60}}}, "numpy.ma"),
])
def test_runs_leave_numpy_submodules_unloaded(tmp_path, argv, config, module):
    # appendixA draws its points with the standard library, and the packet
    # code takes sector labels as sets: neither loads a numpy submodule
    # (numpy.random and numpy.ma each take 15-25 ms to import)
    import alcove
    cfg = _cfg(tmp_path, "run.json", config)
    argv = argv + ["--config", cfg, "--out", str(tmp_path / "out.json")]
    code = ("import sys; from alcove.cli import main; "
            f"print(main({argv!r}), {module!r} in sys.modules)")
    src = str(Path(alcove.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


IMPORT_GRAPH_CONFIG = {**A2_MACDONALD, "task": {"ray": {"direction": [1, 1], "steps": 2}}}
NO_LAPLACIAN = {"laplacian", "scattering", "evolution"}
# each path, and the modules it must leave unloaded
IMPORT_PATHS = {
    "build_system": (None, NO_LAPLACIAN),  # as the benchmark's set-up probe
    "version": (["--version"], NO_LAPLACIAN),
    "verify-appendixA": (["verify", "--suite", "appendixA"], NO_LAPLACIAN),
    "verify-orthonormality": (["verify", "--suite", "orthonormality"], NO_LAPLACIAN),
    "export-polynomials": (["export", "polynomials"], NO_LAPLACIAN),
    "verify-free-laplacian": (["verify", "--suite", "free-laplacian"],
                              {"scattering", "evolution"}),
    "export-operator": (["export", "operator"], {"scattering", "evolution"}),
    "verify-smatrix": (["verify", "--suite", "smatrix"], {"evolution"}),
    "scatter-ray": (["scatter", "--ray"], {"evolution"}),
    "export-smatrix": (["export", "smatrix"], {"evolution"}),
}


@pytest.mark.parametrize("path", IMPORT_PATHS)
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, path):
    # a fresh process imports the CLI and runs one path; the modules that
    # path never runs stay out of sys.modules
    import alcove
    argv, unloaded = IMPORT_PATHS[path]
    cfg = _cfg(tmp_path, "run.json", IMPORT_GRAPH_CONFIG)
    if argv is None:
        run = f"from alcove.cli import build_system, load_config\nbuild_system(load_config({cfg!r}))"
    else:
        if argv[0] != "--version":
            argv = argv + ["--config", cfg, "--out", str(tmp_path / "out")]
        run = (f"from alcove.cli import main\ntry:\n    assert main({argv!r}) == 0\n"
               "except SystemExit as exc:\n    assert exc.code == 0")
    code = (f"import sys\n{run}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('alcove'))))")
    src = str(Path(alcove.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.strip().splitlines()[-1].split())
    assert {"alcove.cli", "alcove.orthopoly", "alcove.harmonic"} <= loaded
    assert not {f"alcove.{m}" for m in unloaded} & loaded


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

    import alcove.scattering
    direct = alcove.scattering.smatrix_factor_direct
    monkeypatch.setattr(alcove.scattering, "smatrix_factor_direct",
                        lambda spec, w, grid: direct(spec, w, grid) + 1e-12)
    assert main(argv) == 4
    row = json.loads(out.read_text())["checks"][1]
    assert not row["pass"] and row["residual"] > 9e-13


@pytest.mark.parametrize("config", [
    {**A2_MACDONALD, "weights": {"tops": [[2, 2]]}},
    {**BC2_KOORNWINDER, "weights": {"tops": [[2, 1]]}}])
def test_closed_norms_off_the_gram_match_the_quadrature(tmp_path, monkeypatch, config):
    # with the closed form N0 / Delta replaced by the quadrature of
    # (p~_lam, p~_lam) on its own ladder, each closed-norm residual is the
    # distance of the suite's norm from that quadrature
    import alcove.cli as cli
    from alcove.harmonic import inner_product
    from alcove.orthopoly import NormData, gram_schmidt, norm_constants
    rs, params, spec = build_system(config)
    system = gram_schmidt(rs, spec, config["weights"]["tops"])
    quadrature = {lam: inner_product(system.pbold(params, lam), system.pbold(params, lam),
                                     spec).real for lam in system.weights}
    monkeypatch.setattr(cli, "norm_constants", lambda params, lam: NormData(
        1.0, quadrature[tuple(lam)], norm_constants(params, lam).c_lam))
    out = tmp_path / "o.json"
    assert main(["verify", "--config", _cfg(tmp_path, "o.json", config),
                 "--out", str(out)]) == 0
    norms = [c for c in json.loads(out.read_text())["checks"]
             if c["check"].startswith("closed norm")]
    assert len(norms) == len(system.weights)
    assert all(c["residual"] <= 1e-12 for c in norms)


def test_orthonormality_suite_runs_one_gram_ladder(tmp_path, monkeypatch):
    # the closed norms are read off the suite's Gram matrix: gram_schmidt's
    # ladder is the only one
    import alcove.harmonic as harmonic
    import alcove.orthopoly as orthopoly
    ladder = harmonic.gram_ladder
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return ladder(*args, **kwargs)

    monkeypatch.setattr(harmonic, "gram_ladder", counted)
    monkeypatch.setattr(orthopoly, "gram_ladder", counted)
    cfg = _cfg(tmp_path, "b2.json", {
        "root_system": {"label": "B", "rank": 2},
        "cfunctions": {"family": "macdonald", "g": {"1": 0.9, "2": 1.4}, "q": 0.5},
        "weights": {"tops": [[3, 3]]}})
    out = tmp_path / "o.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert calls == [len(checks) - 1]


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


# the benchmark's tiny evolve-bc1 configuration, at couplings (0.9, 0.7)
BC1_EVOLVE_TINY = {
    "root_system": {"label": "BC", "rank": 1},
    "cfunctions": {"family": "koornwinder", "ghat": 1.0,
                   "g0123": [0.9, 0.7, 0.6, 0.8], "q": 0.45},
    "task": {"evolve": {"times": [8, 16], "radius": 1.0, "lattice_depth": 60}},
}


def test_evolve_center_builds_no_wave_table(tmp_path, monkeypatch):
    # the benchmark's evolve-bc1 configuration: one wave table per snapshot
    # grid (two), and none for the center search, which reads the symbol's
    # geometry alone
    from test_perfbench_spans import WORKLOADS, _load_perfbench
    import alcove.scattering as scattering
    config = _load_perfbench(monkeypatch, WORKLOADS).WORKLOADS["evolve-bc1"].config(3)
    grids = []
    init = scattering.WaveTable.__init__

    def recording_init(self, system, grid):
        grids.append(grid.M)
        init(self, system, grid)

    monkeypatch.setattr(scattering.WaveTable, "__init__", recording_init)
    assert main(["scatter", "--evolve", "--config", _cfg(tmp_path, "bc1.json", config),
                 "--out", str(tmp_path / "e.json")]) == 0
    assert len(grids) == 2


def test_evolve_sign_minus_one_matches_plus_one(tmp_path):
    # Omega_- is the t -> -infinity limit: sign -1 takes its snapshots at -t
    # and reports the same positive times; it used to always exit 4
    series = {}
    for sign in (1, -1):
        config = json.loads(json.dumps(BC1_EVOLVE_TINY))
        config["task"]["evolve"]["sign"] = sign
        cfg = _cfg(tmp_path, f"config{sign}.json", config)
        out = tmp_path / f"sign{sign}.json"
        assert main(["scatter", "--evolve", "--config", cfg, "--out", str(out)]) == 0
        ev = json.loads(out.read_text())["evolution"]
        assert ev["times"] == [8.0, 16.0] and ev["meta"]["sign"] == sign
        series[sign] = ev["norms"]
    assert sorted(series[1]) == sorted(series[-1])
    for name, plus in series[1].items():
        for a, b in zip(plus, series[-1][name], strict=True):
            assert abs(a - b) <= 1e-12
    for a, b in zip(series[1]["interacting_vs_free"], series[-1]["interacting_vs_free"]):
        assert abs(a - b) <= 1e-12 * abs(a)


def test_root_half_phases_once_per_snapshot_context(tmp_path, monkeypatch):
    # each snapshot's context computes its per-root halves once and shares
    # them between S_L^{-+1/2} and the asymptotic kernels; the center search
    # builds no context
    import alcove.scattering as scattering
    contexts, halves = [], []
    root_half_phases = scattering.root_half_phases
    init = scattering.ScatteringContext.__init__

    def recording_init(self, table, symbol):
        contexts.append(table.grid)
        init(self, table, symbol)

    def recording(spec, grid):
        halves.append(grid)
        return root_half_phases(spec, grid)

    monkeypatch.setattr(scattering.ScatteringContext, "__init__", recording_init)
    monkeypatch.setattr(scattering, "root_half_phases", recording)
    cfg = _cfg(tmp_path, "bc1.json", BC1_EVOLVE_TINY)
    assert main(["scatter", "--evolve", "--config", cfg,
                 "--out", str(tmp_path / "e.json")]) == 0
    times = BC1_EVOLVE_TINY["task"]["evolve"]["times"]
    assert len(contexts) == len(times)
    assert [id(g) for g in halves] == [id(g) for g in contexts]


def test_packet_scattered_once_per_snapshot_context(tmp_path, monkeypatch):
    # S_L^{-+1/2} of a packet does not depend on t: the interacting and the
    # asymptotic packets of every time on one grid share one smatrix_apply
    import alcove.scattering as scattering
    contexts, applied = [], []
    init = scattering.ScatteringContext.__init__
    smatrix_apply = scattering.ScatteringContext.smatrix_apply

    def recording_init(self, table, symbol):
        contexts.append(table.grid)
        init(self, table, symbol)

    def recording(self, fhat, power):
        applied.append(self.grid)
        return smatrix_apply(self, fhat, power)

    monkeypatch.setattr(scattering.ScatteringContext, "__init__", recording_init)
    monkeypatch.setattr(scattering.ScatteringContext, "smatrix_apply", recording)
    config = json.loads(json.dumps(BC1_EVOLVE_TINY))
    config["task"]["evolve"]["times"] = [4, 6, 16]
    assert main(["scatter", "--evolve", "--config", _cfg(tmp_path, "bc1.json", config),
                 "--out", str(tmp_path / "e.json")]) == 0
    # two snapshot grids, t = 4 and 6 share one; the center search builds no
    # context
    assert len(contexts) == 2
    assert [id(g) for g in applied] == [id(g) for g in contexts]


def test_evolve_packet_near_the_singular_set_exits_5(tmp_path, capsys):
    # a center 0.3 from the wall at 0: the packet support meets the singular set
    config = json.loads(json.dumps(BC1_EVOLVE_TINY))
    config["task"]["evolve"]["center"] = [0.3]
    out = tmp_path / "e.json"
    start = time.perf_counter()
    assert main(["scatter", "--evolve", "--config", _cfg(tmp_path, "c.json", config),
                 "--out", str(out)]) == 5
    assert time.perf_counter() - start < 1.0
    assert "within 2 cells of the singular set" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_leakage_exits_5_and_writes_its_report(tmp_path, monkeypatch):
    # leakage above LEAK_TOL marks the report invalid; it is still written
    import alcove.evolution
    monkeypatch.setattr(alcove.evolution, "LEAK_TOL", 0.0)
    out = tmp_path / "e.json"
    assert main(["scatter", "--evolve", "--config", _cfg(tmp_path, "e.json", BC1_EVOLVE_TINY),
                 "--out", str(out)]) == 5
    invalid = json.loads(out.read_text())["evolution"]["meta"]["invalid"]
    assert invalid.startswith("window leakage above 0.0 at t=")


@pytest.mark.parametrize("argv,patch", [
    (["export", "polynomials"], {"weights": {"tops": [[1100]]}}),
    (["scatter", "--evolve"], {"task": {"evolve": {"lattice_depth": 1100}}}),
])
def test_gram_ladder_above_max_m_is_a_budget_exit(tmp_path, capsys, argv, patch):
    # 1101 weights on BC1 need a first rung at M=4406, above max_m=4096;
    # refused before any grid is built, with the budget exit, not exit 1
    config = {**{k: v for k, v in BC1_EVOLVE_TINY.items() if k != "task"}, **patch}
    start = time.perf_counter()
    assert main(argv + ["--config", _cfg(tmp_path, "deep.json", config),
                        "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "M=4406 for its first rung" in err and "max_m=4096" in err
    assert "unexpected" not in err
