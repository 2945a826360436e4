"""SVG/CSV emission and the command-line surface."""

import json
import math
import re
import subprocess

import numpy as np
import pytest

from robinson_lab import (
    StepGraphon,
    closed_form_robinson_ae,
    compute_regions,
    cumulative_envelope,
    cut_norm_exact,
    estimate_deviation,
    is_robinson,
    load_graphon,
    plant_violation,
    robinson_approx,
    save_graphon,
    smooth_exp,
    toeplitz_decay,
)
from robinson_lab import cli
from robinson_lab.approx import RobinsonApprox
from robinson_lab.render import (
    heatmap_svg,
    region_csv,
    region_svg,
    render_heatmap,
    render_regions,
)

RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="1" height="1" fill="([^"]+)"/>')

N3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def mirrored_labels(rm):
    lab = rm.label_array()
    return np.where(lab == -1, lab.T, lab)


def expected_fill(label, total):
    if label <= -2:
        return "#7f7f7f"
    return "#000000" if (total - 1 - label) % 2 == 0 else "#ffffff"


# ---------------------------------------------------------------------------
# heatmaps

def test_heatmap_structure_and_shading():
    svg = heatmap_svg(StepGraphon(np.array([[0.0, 0.5], [0.5, 1.0]])))
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert "<desc>heatmap n=2 min=0 max=1 uniform=false</desc>" in svg
    rects = {(int(x), int(y)): fill for x, y, fill in RECT.findall(svg)}
    assert len(rects) == 4
    assert rects[(0, 0)] == "#ffffff"        # minimum renders white
    assert rects[(1, 1)] == "#000000"        # maximum renders black
    assert rects[(1, 0)] == rects[(0, 1)] == "#7f7f7f"
    assert svg.count("<text") == 1


def test_heatmap_uniform_input_flagged():
    svg = heatmap_svg(StepGraphon(np.full((3, 3), 0.7)))
    assert "uniform=true" in svg
    assert "(uniform)" in svg
    fills = {fill for _, _, fill in RECT.findall(svg)}
    assert fills == {"#7f7f7f"}


def test_heatmap_input_handling():
    ra = robinson_approx(toeplitz_decay(6, seed=1), 0.25)
    assert heatmap_svg(ra).startswith("<svg ")
    with pytest.raises(ValueError):
        heatmap_svg(np.arange(6.0).reshape(2, 3))


def test_render_heatmap_is_byte_deterministic(tmp_path):
    w = toeplitz_decay(7, seed=4)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_heatmap(w, a)
    render_heatmap(w, b)
    assert a.read_bytes() == b.read_bytes() == heatmap_svg(w).encode()


# ---------------------------------------------------------------------------
# region maps

def test_region_svg_colors_match_labels():
    rm = compute_regions(cumulative_envelope(6, seed=2), 2, 0.25, raster=16)
    svg = region_svg(rm)
    assert "<desc>regions raster=16 m=2 levels=%d alpha=0.25</desc>" % rm.level_max in svg
    lab = mirrored_labels(rm)
    rects = RECT.findall(svg)
    assert len(rects) == 16 * 16
    for x, y, fill in rects:
        assert fill == expected_fill(int(lab[int(y), int(x)]), rm.total_levels)
    # the diagonal band is black by convention
    for a in range(16):
        assert expected_fill(int(lab[a, a]), rm.total_levels) == "#000000"


def test_region_csv_round_trip():
    rm = compute_regions(cumulative_envelope(6, seed=2), 2, 0.25, raster=16)
    text = region_csv(rm)
    lines = text.strip().split("\n")
    assert lines[0] == "# regions raster=16 m=2 levels=%d alpha=0.25" % rm.level_max
    grid = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
    assert grid.shape == (16, 16)
    assert np.array_equal(grid, mirrored_labels(rm))
    assert np.array_equal(grid, grid.T)


def test_render_regions_paths(tmp_path):
    rm = compute_regions(toeplitz_decay(5, seed=1), 2, 0.2, raster=8)
    svg, csv = tmp_path / "r.svg", tmp_path / "r.csv"
    render_regions(rm, svg_path=svg, csv_path=csv)
    assert svg.read_text().startswith("<svg ")
    assert csv.read_text().startswith("# regions")
    with pytest.raises(ValueError):
        render_regions(rm)


# ---------------------------------------------------------------------------
# CLI

def run_json(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_cli_synth_writes_matrix(tmp_path, capsys):
    mat = tmp_path / "w.txt"
    code, rep = run_json(["synth", "--kind", "toeplitz", "--n", "6",
                          "--seed", "3", "--out-matrix", str(mat)], capsys)
    assert code == 0
    assert rep["schema"] == "robinson-lab/1" and rep["command"] == "synth"
    assert rep["kind"] == "toeplitz" and rep["n"] == 6 and rep["seed"] == 3
    assert rep["noise"] is None
    assert np.array_equal(load_graphon(mat).values,
                          toeplitz_decay(6, seed=3).values)


def test_cli_synth_with_noise(tmp_path, capsys):
    mat = tmp_path / "w.txt"
    code, rep = run_json(["synth", "--kind", "toeplitz", "--n", "8", "--seed", "2",
                          "--noise", "uniform_bounded", "--magnitude", "0.1",
                          "--out-matrix", str(mat)], capsys)
    assert code == 0
    noise = rep["noise"]
    assert noise["kind"] == "uniform_bounded" and noise["magnitude"] == 0.1
    assert noise["cutNormExact"] is True
    assert 0.0 < noise["linf"] <= 0.1
    diff = load_graphon(mat).values - toeplitz_decay(8, seed=2).values
    assert float(np.abs(diff).max()) == noise["linf"]


def test_cli_synth_rejects_a_flip_probability_above_one(tmp_path, capsys):
    mat = tmp_path / "w.txt"
    assert cli.main(["synth", "--kind", "toeplitz", "--n", "6", "--noise", "sign_flip",
                     "--magnitude", "1.5", "--out-matrix", str(mat)]) == 1
    captured = capsys.readouterr()
    assert "flip probability; must be <= 1" in captured.err and captured.out == ""
    assert not mat.exists()


def test_cli_synth_rejects_bad_sizes_and_seeds(tmp_path, capsys):
    mat = tmp_path / "w.txt"
    for kind in ("toeplitz", "cumulative", "smooth", "quadratic"):
        for n in ("0", "-3"):
            assert cli.main(["synth", "--kind", kind, "--n", n, "--out-matrix", str(mat)]) == 1
            assert "n must be >= 1" in capsys.readouterr().err
    assert cli.main(["synth", "--kind", "toeplitz", "--n", "4", "--seed", "-1",
                     "--out-matrix", str(mat)]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert cli.main(["synth", "--kind", "toeplitz", "--n", "4"]) == 1
    assert "--out-matrix" in capsys.readouterr().err
    assert cli.main(["synth", "--kind", "bogus", "--n", "4", "--out-matrix", str(mat)]) == 1
    assert "unknown generator 'bogus'" in capsys.readouterr().err
    assert not mat.exists()


def test_cli_lambda_exact_pinned_value(tmp_path, capsys):
    path = tmp_path / "n3.txt"
    save_graphon(StepGraphon(N3), path)
    code, rep = run_json(["lambda", "--in", str(path), "--mode", "exact",
                          "--refinement", "1"], capsys)
    assert code == 0
    assert rep["command"] == "lambda"
    assert rep["value"] == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert rep["mode"] == "exact" and rep["refinement"] == 1
    assert rep["witnessLeft"] == [[0], [1], [2]]
    assert rep["witnessRight"] == [[0], [1], [2]]


@pytest.mark.parametrize("n", [7, 10, 16])
def test_cli_lambda_auto_follows_recover_dispatch(tmp_path, capsys, n):
    # 10 x 10 at refinement 2 exceeds the exact cap; recover drops to an
    # exact r = 1 run there, and the CLI must pick the same solver
    w = plant_violation(toeplitz_decay(n, seed=2), 0.2, seed=2)[0]
    path = tmp_path / "w.txt"
    save_graphon(w, path)
    code, rep = run_json(["lambda", "--in", str(path), "--refinement", "2"], capsys)
    cert = estimate_deviation(w, refinement=2)
    assert code == 0
    assert (rep["mode"], rep["refinement"], rep["value"]) == (cert.mode, cert.refinement, cert.value)


def test_cli_cutnorm_sign_example(tmp_path, capsys):
    path = tmp_path / "sign.txt"
    save_graphon(StepGraphon(np.array([[1.0, -1.0], [-1.0, 1.0]])), path)
    code, rep = run_json(["cutnorm", "--in", str(path)], capsys)
    assert code == 0
    assert rep["value"] == 0.25
    assert rep["exact"] is True and rep["mode"] == "exact"
    assert rep["witnessS"] == [0] and rep["witnessT"] == [0]


def signed_input(tmp_path, n, seed):
    m = np.random.Generator(np.random.Philox(seed)).uniform(-1.0, 1.0, (n, n))
    w = StepGraphon(0.5 * (m + m.T))
    path = tmp_path / "signed.txt"
    save_graphon(w, path)
    return w, path


def test_cli_cutnorm_exact_mode(tmp_path, capsys):
    w, path = signed_input(tmp_path, 6, 61)
    code, rep = run_json(["cutnorm", "--in", str(path), "--mode", "exact"], capsys)
    want = cut_norm_exact(w)
    assert code == 0
    assert rep["value"] == want.value
    assert rep["exact"] is True and rep["mode"] == "exact"
    assert rep["witnessS"] == list(want.witness_s.indices)
    assert rep["witnessT"] == list(want.witness_t.indices)


def test_cli_cutnorm_localsearch_mode(tmp_path, capsys):
    w, path = signed_input(tmp_path, 12, 62)
    code, rep = run_json(["cutnorm", "--in", str(path), "--mode", "localsearch",
                          "--config", '{"restarts": 3, "seed": 5}'], capsys)
    assert code == 0
    assert rep["exact"] is False and rep["mode"] == "localsearch"
    assert 0.0 < rep["value"] <= cut_norm_exact(w).value


def test_cli_approx_closed_form_mode(tmp_path, capsys):
    path, out = tmp_path / "smooth.txt", tmp_path / "approx.txt"
    w = smooth_exp(6)
    save_graphon(w, path)
    code, rep = run_json(["approx", "--in", str(path), "--alpha", "0.25",
                          "--mode", "closed-form", "--out-matrix", str(out)], capsys)
    want = closed_form_robinson_ae(w, 0.25)
    assert code == 0
    assert rep["mode"] == "closed-form" and rep["gridN"] == want.grid_n
    assert rep["robinsonValidated"] is want.robinson_validated
    assert np.array_equal(load_graphon(out).values, want.values)
    save_graphon(StepGraphon(N3), path)                   # not Robinson
    assert cli.main(["approx", "--in", str(path), "--alpha", "0.25",
                     "--mode", "closed-form"]) == 1
    assert "closed form needs a Robinson input" in capsys.readouterr().err


def test_cli_closed_form_is_robinson_at_a_narrow_width(tmp_path, capsys):
    # box integrals from four prefix integrals each reported false here
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(8, seed=1), path)
    code, rep = run_json(["approx", "--in", str(path), "--mode", "closed-form",
                          "--alpha", "0.001", "--grid", "16"], capsys)
    assert code == 0 and rep["robinsonValidated"] is True


def test_cli_approx_rejects_a_width_at_or_below_guard(tmp_path, capsys):
    # auto mode picked exact here and wrote an all-zero matrix with exit 0
    path, out = tmp_path / "w.txt", tmp_path / "approx.txt"
    save_graphon(toeplitz_decay(8, seed=1), path)
    assert cli.main(["approx", "--in", str(path), "--alpha", "1e-16",
                     "--out-matrix", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "GUARD = 1e-15" in captured.err
    assert not out.exists()


def test_cli_approx_block_example(tmp_path, capsys):
    path, out = tmp_path / "ones.txt", tmp_path / "approx.txt"
    save_graphon(StepGraphon(np.ones((8, 8))), path)
    code, rep = run_json(["approx", "--in", str(path), "--alpha", "0.25",
                          "--mode", "exact", "--out-matrix", str(out)], capsys)
    assert code == 0
    assert rep["robinsonValidated"] is True and rep["gridN"] == 8
    expected = np.zeros((8, 8))
    expected[2:6, 2:6] = 1.0
    assert np.array_equal(load_graphon(out).values, expected)


@pytest.mark.parametrize("bad", [2.5, 0, -3])
def test_cli_grid_n_must_be_a_positive_integer(tmp_path, capsys, bad):
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(8, seed=1), path)
    config = ["--config", json.dumps({"gridN": bad})]
    for cmd in (["approx", "--alpha", "0.25"], ["recover"], ["recover", "--bounded"]):
        assert cli.main(cmd + ["--in", str(path)] + config) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid_n must be a positive integer" in captured.err
    if bad != 2.5:
        assert cli.main(["approx", "--alpha", "0.25", "--in", str(path),
                         "--grid", str(bad)]) == 1
        assert "grid_n must be a positive integer" in capsys.readouterr().err
    code, rep = run_json(["approx", "--alpha", "0.25", "--in", str(path),
                          "--config", '{"gridN": 4.0}'], capsys)
    assert code == 0 and rep["gridN"] == 4
    assert cli.main(["approx", "--alpha", "0", "--in", str(path), "--grid", "4"]) == 1
    assert "grid_n must be 8, not 4" in capsys.readouterr().err


def test_cli_recover_rejects_an_oversize_common_grid(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(plant_violation(toeplitz_decay(16, seed=1), 0.3, seed=1)[0], path)
    for route in (["recover"], ["recover", "--bounded"]):
        assert cli.main(route + ["--in", str(path), "--grid", "1023"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid_n=1023 and n=16 measure the error on a common grid" in captured.err


def test_cli_recover_json_and_csv(tmp_path, capsys):
    path = tmp_path / "w.txt"
    w, _ = plant_violation(toeplitz_decay(6, seed=4), 0.3, seed=4)
    save_graphon(w, path)
    rep_path, csv_path, mat_path = (tmp_path / "rep.json", tmp_path / "row.csv",
                                    tmp_path / "approx.txt")
    code = cli.main(["recover", "--in", str(path), "--p", "6",
                     "--out", str(rep_path), "--out-csv", str(csv_path),
                     "--out-matrix", str(mat_path)])
    assert code == 0
    rep = json.loads(rep_path.read_text())
    assert rep["schema"] == "robinson-lab/1" and rep["command"] == "recover"
    assert rep["caseTaken"] == "case1" and rep["p"] == 6.0
    assert rep["measuredErrorExact"] is True
    assert is_robinson(load_graphon(mat_path), 1e-12).robinson

    header, row = csv_path.read_text().strip().split("\n")
    assert header == ("caseTaken,p,alpha,normalizationScale,M,lambdaW,lambdaWM,"
                      "theoreticalBound,measuredError,measuredErrorExact")
    fields = row.split(",")
    assert fields[0] == "case1"
    assert float(fields[2]) == rep["alpha"]          # %.17g round-trips exactly
    assert float(fields[4]) == rep["M"]
    assert fields[9] == "True"

    rep2_path = tmp_path / "rep2.json"
    assert cli.main(["recover", "--in", str(path), "--p", "6",
                     "--out", str(rep2_path)]) == 0
    capsys.readouterr()
    a, b = rep, json.loads(rep2_path.read_text())
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_cli_recover_bounded_route(tmp_path, capsys):
    path, csv_path = tmp_path / "w.txt", tmp_path / "row.csv"
    save_graphon(plant_violation(toeplitz_decay(6, seed=4), 0.3, seed=4)[0], path)
    code, rep = run_json(["recover", "--in", str(path), "--bounded",
                          "--out-csv", str(csv_path)], capsys)
    assert code == 0
    assert rep["p"] == "inf" and rep["caseTaken"] == "bounded-corollary"
    # no cutoff on this route: its CSV fields are empty
    assert rep["M"] is None and rep["lambdaWM"] is None
    header, row = csv_path.read_text().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["p"] == "inf" and fields["M"] == "" and fields["lambdaWM"] == ""
    # the same route through the config hook
    code, rep = run_json(["recover", "--in", str(path),
                          "--config", '{"p": "inf"}'], capsys)
    assert code == 0 and rep["p"] == "inf"


def test_cli_recover_takes_p_or_bounded_not_both(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(6, seed=4), path)
    for both in (["--bounded", "--p", "6"], ["--p", "6", "--bounded"]):
        assert cli.main(["recover", "--in", str(path)] + both) == 1
        assert "not allowed with argument" in capsys.readouterr().err


def test_cli_recover_p_minus_inf_is_not_the_bounded_route(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(6, seed=4), path)
    for args in (["--p=-inf"], ["--config", json.dumps({"p": -math.inf})]):
        assert cli.main(["recover", "--in", str(path)] + args) == 1
        assert "norm index p must exceed 5" in capsys.readouterr().err


def test_cli_regions_report(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(cumulative_envelope(8, seed=5), path)
    svg, csv = tmp_path / "m.svg", tmp_path / "m.csv"
    code, rep = run_json(["regions", "--in", str(path), "--m", "2",
                          "--alpha", "0.12", "--raster", "32",
                          "--out-svg", str(svg), "--out-csv", str(csv)], capsys)
    assert code == 0
    assert rep["partitionValid"] is True
    assert rep["m"] == 2 and rep["raster"] == 32 and rep["alpha"] == 0.12
    for side in rep["largestGreySquare"].values():
        assert 0.0 < side <= 0.12 + 2.0 / 32 + 1e-12
    assert svg.read_text().startswith("<svg ")
    assert csv.read_text().startswith("# regions raster=32")


def test_cli_render_heatmap(tmp_path, capsys):
    path, out = tmp_path / "w.txt", tmp_path / "w.svg"
    save_graphon(toeplitz_decay(5, seed=2), path)
    assert cli.main(["render", "--in", str(path), "--out", str(out)]) == 0
    assert out.read_text() == heatmap_svg(toeplitz_decay(5, seed=2))
    assert cli.main(["render", "--in", str(path)]) == 1       # --out required
    capsys.readouterr()


def test_cli_config_handling(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"refinement": 1, "restarts": 10}')
    code, rep = run_json(["lambda", "--in", str(path), "--mode", "exact",
                          "--config", "@" + str(cfg)], capsys)
    assert code == 0 and rep["refinement"] == 1

    assert cli.main(["lambda", "--in", str(path), "--config", '{"bogus": 1}']) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert cli.main(["lambda", "--in", str(path), "--config", "{oops"]) == 1
    assert cli.main(["lambda", "--in", str(path),
                     "--config", "@" + str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    assert cli.main(["lambda", "--in", str(path), "--config", "[1, 2]"]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_cli_refinement_must_be_at_least_one(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), path)
    runs = [["lambda", "--in", str(path), "--refinement", bad] for bad in ("0", "-2")]
    runs += [["lambda", "--in", str(path), "--mode", mode, "--refinement", "0"]
             for mode in ("exact", "heuristic")]
    runs += [["recover", "--in", str(path), "--config", '{"refinement": 0}'],
             ["recover", "--bounded", "--in", str(path), "--config", '{"refinement": -2}']]
    for argv in runs:
        assert cli.main(argv) == 1
        assert "refinement must be >= 1" in capsys.readouterr().err


def test_cli_seed_must_not_be_negative(tmp_path, capsys):
    # the 8 x 8 input takes the exact solvers, which draw no stream
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(8, seed=3), path)
    for command in ("lambda", "cutnorm"):
        assert cli.main([command, "--in", str(path), "--config", '{"seed": -1}']) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_cli_restarts_must_not_be_negative(tmp_path, capsys):
    path = tmp_path / "w.txt"
    m = np.random.Generator(np.random.Philox(20)).uniform(0.0, 1.0, (20, 20))
    save_graphon(StepGraphon(0.5 * (m + m.T)), path)
    assert cli.main(["lambda", "--in", str(path), "--config", '{"restarts": -3}']) == 1
    assert "restarts must be >= 0" in capsys.readouterr().err
    code, rep = run_json(["lambda", "--in", str(path), "--config", '{"restarts": 0}'],
                         capsys)
    assert code == 0 and rep["mode"] == "heuristic"      # the swept starts remain
    # also where the exact deviation runs, which never looks at restarts
    small = tmp_path / "small.txt"
    save_graphon(toeplitz_decay(8, seed=3), small)
    for command in ("lambda", "recover"):
        assert cli.main([command, "--in", str(small), "--config", '{"restarts": -3}']) == 1
        assert "restarts must be >= 0" in capsys.readouterr().err
    # and where no solver looks at restarts: exact cut-norm enumeration
    assert cli.main(["cutnorm", "--mode", "exact", "--in", str(path),
                     "--config", '{"restarts": -3}']) == 1
    assert "restarts must be >= 0" in capsys.readouterr().err
    # the cut-norm dispatcher wants a restart on both sides of its cap
    ten = tmp_path / "ten.txt"
    save_graphon(StepGraphon(0.5 * (m[:10, :10] + m[:10, :10].T)), ten)
    for graph in (ten, path):
        assert cli.main(["cutnorm", "--in", str(graph), "--config", '{"restarts": 0}']) == 1
        assert "restarts must be >= 1" in capsys.readouterr().err


def test_cli_config_ranges_hold_for_every_command(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(toeplitz_decay(6, seed=3), path)
    commands = [["lambda"], ["cutnorm"], ["approx", "--alpha", "0.2"], ["recover"],
                ["recover", "--bounded"]]
    cases = [({"cutnormCap": -1}, "cap must be a whole number >= 0"),
             ({"refinement": 0}, "refinement must be >= 1"),
             ({"restarts": -1}, "restarts must be >= 0"),
             ({"seed": -1}, "seed must be a non-negative integer")]
    for blob, message in cases:
        for command in commands:
            argv = [command[0], "--in", str(path)] + command[1:]
            assert cli.main(argv + ["--config", json.dumps(blob)]) == 1
            assert message in capsys.readouterr().err
        assert cli.main(["synth", "--kind", "smooth", "--n", "6", "--noise", "uniform_bounded",
                         "--out-matrix", str(tmp_path / "s.txt"),
                         "--config", json.dumps(blob)]) == 1
        assert message in capsys.readouterr().err
    code, _ = run_json(["lambda", "--in", str(path), "--config", '{"cutnormCap": 0}'], capsys)
    assert code == 0


def test_cli_validation_exit_codes(tmp_path, capsys):
    good = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), good)
    bad = tmp_path / "bad.txt"
    bad.write_text("hello\nworld\n")

    assert cli.main(["lambda"]) == 1                           # --in required
    assert cli.main(["lambda", "--in", str(tmp_path / "nope.txt")]) == 1
    assert cli.main(["lambda", "--in", str(bad)]) == 1
    assert cli.main(["approx", "--in", str(good), "--alpha", "1.5"]) == 1
    assert cli.main(["frobnicate"]) == 1                       # unknown command
    assert cli.main(["cutnorm", "--in", str(good),
                     "--out", str(tmp_path / "nodir" / "r.json")]) == 1
    capsys.readouterr()


def test_cli_internal_error_is_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), path)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.deviation, "deviation_exact", boom)
    assert cli.main(["lambda", "--in", str(path), "--mode", "exact"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_cli_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[-1] == "10/10 passed"
    assert len(lines) == 11
    assert all(line.endswith("PASS") for line in lines[:-1])


def test_cli_selftest_robinson_check_is_relative_to_the_sup_norm(monkeypatch, capsys):
    # a 1e-13-scale approximation with a dipped diagonal cell, below its
    # neighbours by 2e-14: not Robinson, though an absolute 1e-12 passes it
    vals = 1e-13 * np.array(toeplitz_decay(6, seed=1).values)
    vals[2, 2] -= 0.7e-13
    fake = RobinsonApprox(values=vals, alpha=0.2, grid_n=6, mode="exact",
                          robinson_validated=True)
    monkeypatch.setattr(cli, "robinson_approx", lambda *args, **kwargs: fake)
    assert cli.main(["selftest"]) == 1
    rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.strip().split("\n")[:-1])
    assert rows["approximation is Robinson"] == "FAIL"


def test_cli_help_exits_zero(capsys):
    # argparse's exit passes through main, with its code
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "recover" in out and "selftest" in out


def test_console_script_smoke(tmp_path):
    help_run = subprocess.run(["robinson-lab", "--help"],
                              capture_output=True, text=True)
    assert help_run.returncode == 0
    assert "recover" in help_run.stdout and "selftest" in help_run.stdout
    mat = tmp_path / "w.txt"
    synth_run = subprocess.run(
        ["robinson-lab", "synth", "--kind", "smooth", "--n", "5",
         "--out-matrix", str(mat)], capture_output=True, text=True)
    assert synth_run.returncode == 0
    assert json.loads(synth_run.stdout)["command"] == "synth"
    assert load_graphon(mat).n == 5


def test_cli_cutnorm_cap_above_the_hard_cap_falls_back(tmp_path, capsys):
    path = tmp_path / "w.txt"
    m = np.random.Generator(np.random.Philox(26)).uniform(-1.0, 1.0, (26, 26))
    save_graphon(StepGraphon(0.5 * (m + m.T)), path)
    code, rep = run_json(["cutnorm", "--in", str(path),
                          "--config", '{"cutnormCap": 30}'], capsys)
    assert code == 0 and rep["mode"] == "localsearch" and rep["exact"] is False


@pytest.mark.parametrize("key", ["refinement", "restarts", "seed", "cutnormCap"])
def test_cli_config_integers_are_not_truncated(tmp_path, capsys, key):
    path = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), path)
    for bad in (2.5, "16", True, None, [3]):
        blob = json.dumps({key: bad})
        assert cli.main(["cutnorm", "--in", str(path), "--config", blob]) == 1
        assert "config %s must be an integer" % key in capsys.readouterr().err
    code, _ = run_json(["cutnorm", "--in", str(path), "--config",
                        json.dumps({key: 3.0})], capsys)
    assert code == 0


def test_cli_config_p_must_be_a_number_or_inf(tmp_path, capsys):
    path = tmp_path / "w.txt"
    save_graphon(StepGraphon(N3), path)
    for bad in ("6", "abc", None, True, [6]):
        blob = json.dumps({"p": bad})
        assert cli.main(["recover", "--in", str(path), "--config", blob]) == 1
        assert 'config p must be a number or "inf"' in capsys.readouterr().err
    for good, want in ((6, 6), (6.0, 6.0), ("inf", "inf")):
        code, rep = run_json(["recover", "--in", str(path), "--config",
                              json.dumps({"p": good})], capsys)
        assert code == 0 and rep["p"] == want
