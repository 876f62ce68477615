import json
import os
import subprocess
import sys

import pytest

from acaa import reps
from acaa.algebra import Algebra, check_acaa
from acaa.catalog import all_entries, entry
from acaa.cli import main
from acaa.fields import PrimeField, Q
from acaa.linalg import span
from acaa.serialize import save_algebra

from conftest import simple_lie_3, upper_triangular_2x2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_acaa_on_catalog_name(capsys):
    code, data = run_json(capsys, "check", "--identity", "acaa", "h3")
    assert code == 0
    assert data["status"] == "holds"


def test_check_jacobi_fails_on_free3_with_witness(capsys, tmp_path):
    code, out = run(capsys, "free", "--generators", "3",
                    "--out", str(tmp_path / "f3.json"))
    assert code == 0
    code, data = run_json(capsys, "check", "--identity", "jacobi",
                          str(tmp_path / "f3.json"))
    assert code == 1
    assert data["status"] == "fails"
    assert data["witness"] == ["X1", "X2", "X3"]


def test_free_then_check_round_trip(capsys, tmp_path):
    path = str(tmp_path / "free3.json")
    code, _ = run(capsys, "free", "--generators", "3", "--out", path)
    assert code == 0
    code, _ = run(capsys, "check", "--identity", "acaa", path)
    assert code == 0


def test_check_custom_acaa_coefficients(capsys):
    for name in ("h3", "h5", "L5", "free3"):
        code, _ = run(capsys, "check", "--identity", "custom",
                      "--coeffs", "0,0,0,0,0,0,1,0,0,0,-1,0", name)
        assert code == 0


def test_check_custom_requires_twelve_coeffs(capsys):
    code = main(["check", "--identity", "custom", "--coeffs", "1,2", "h3"])
    assert code == 2


def test_series_inverse_coefficients(capsys):
    code, data = run_json(capsys, "series", "inverse", "--order", "6")
    assert code == 0
    assert data["payload"]["coeffs"] == ["-1", "1/2", "-1/3", "5/24", "-1/12", "-7/144"]


def test_series_koszul_residual(capsys):
    code, data = run_json(capsys, "series", "koszul", "--order", "6")
    assert code == 0
    assert data["payload"]["koszul_consistent"] is False
    assert data["payload"]["residual"][1] == "1"
    code, data = run_json(capsys, "series", "koszul", "--order", "6", "--swap-roles")
    assert code == 0
    assert data["payload"]["koszul_consistent"] is False


def test_operad_commands(capsys):
    code, data = run_json(capsys, "operad", "dims")
    assert code == 0
    assert data["payload"]["acaa"][:4] == [1, 1, 1, 0]
    assert data["payload"]["dual"][:3] == [1, 1, 0]
    code, data = run_json(capsys, "operad", "dual-check")
    assert code == 0
    assert data["status"] == "holds"
    assert data["payload"]["cyclic_relation_rank"] == 3


def test_fingerprint_command(capsys):
    code, data = run_json(capsys, "fingerprint", "free3")
    assert code == 0
    assert data["payload"]["fingerprint"] == [7, 4, 1, 1]


def test_recognize_command(capsys):
    code, data = run_json(capsys, "recognize", "h5")
    assert code == 0
    assert data["payload"]["name"] == "h5"


def test_enumerate_command(capsys):
    code, data = run_json(capsys, "enumerate", "--dim", "2", "--p", "3")
    assert code == 0
    assert data["payload"] == {"dim": 2, "p": 3, "acaa_count": 1, "iso_classes": 1}


def test_ad_command(capsys):
    code, data = run_json(capsys, "ad", "h3", "--element", "1,0,0")
    assert code == 0
    assert data["payload"]["matrix"] == [["0", "0", "0"], ["0", "0", "0"],
                                         ["0", "1", "0"]]
    assert data["payload"]["rank"] == 1


@pytest.mark.parametrize("name", [e.name for e in all_entries()])
def test_ad_rank_nullity_on_every_catalog_entry(capsys, tmp_path, name):
    # ad reports rank + kernel_dim == dim by rank-nullity; the rank is checked
    # against the span of the printed matrix's columns, over Q by catalog
    # name and over F_5 from a file
    A = entry(name).algebra
    F5 = PrimeField(5)
    path = tmp_path / "f5.json"
    save_algebra(Algebra(F5, A.dim, [[[F5.from_int(int(c)) for c in row] for row in plane]
                                     for plane in A.tensor], symmetry=A.symmetry), path)
    d = A.dim
    elements = [",".join("1" if k == j else "0" for k in range(d)) for j in range(d)]
    elements.append(",".join(str((1, -1, 2)[k % 3]) for k in range(d)))
    for field, ref in ((Q, name), (F5, str(path))):
        for element in elements:
            code, data = run_json(capsys, "ad", ref, "--element", element)
            assert code == 0
            payload = data["payload"]
            assert payload["rank"] + payload["kernel_dim"] == d, (ref, element)
            columns = list(zip(*[[field.parse(v) for v in row] for row in payload["matrix"]]))
            assert payload["rank"] == span(field, columns, d).dim, (ref, element)


def test_rep_check_adjoint(capsys):
    code, data = run_json(capsys, "rep-check", "--adjoint", "h3")
    assert code == 0
    assert data["status"] == "holds"
    assert data["payload"]["faithful"] is False


def test_rep_check_scans_the_laws_once(capsys, tmp_path, monkeypatch):
    # the exterior algebra on a, b (basis 1, a, b, ab) acting on itself by
    # left multiplication: e1 -> L_a, e2 -> L_b, e3 -> -L_ab is a faithful
    # representation of h3; the precondition runs once per scan
    def unit(r, c, v=1):
        m = [[0] * 4 for _ in range(4)]
        m[r][c] = v
        return m
    L_a = unit(1, 0)
    L_a[3][2] = 1
    L_b = unit(2, 0)
    L_b[3][1] = -1
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"source": "h3", "target_dim": 4,
                                "images": [L_a, L_b, unit(3, 0, -1)]}))
    calls = []
    monkeypatch.setattr(reps, "check_acaa", lambda A: calls.append(A) or check_acaa(A))
    code, data = run_json(capsys, "rep-check", str(path))
    assert code == 0 and data["status"] == "holds"
    assert data["payload"] == {"faithful": True, "target_dim": 4}
    assert len(calls) == 1


def test_rep_check_h3_search(capsys):
    code, data = run_json(capsys, "rep-check", "--h3-search", "--p", "3")
    assert code == 0
    assert data["payload"]["search"] == "exhausted"


ORACLE_PINS = {
    ("enumerate", "--dim", "3", "--p", "5"): (
        "command: enumerate\nstatus: value\nacaa_count: 125\ndim: 3\niso_classes: 2\n"
        "p: 5\n",
        '{\n  "command": "enumerate",\n  "payload": {\n    "acaa_count": 125,\n'
        '    "dim": 3,\n    "iso_classes": 2,\n    "p": 5\n  },\n  "status": "value",\n'
        '  "witness": null\n}\n'),
    ("rep-check", "--h3-search", "--p", "5"): (
        'command: rep-check\nstatus: value\nd: 3\np: 5\nsearch: "exhausted"\n',
        '{\n  "command": "rep-check",\n  "payload": {\n    "d": 3,\n    "p": 5,\n'
        '    "search": "exhausted"\n  },\n  "status": "value",\n  "witness": null\n}\n'),
}


@pytest.mark.parametrize("argv", sorted(ORACLE_PINS))
def test_oracle_output_is_pinned(capsys, argv):
    text, js = ORACLE_PINS[argv]
    assert run(capsys, *argv) == (0, text)
    assert run(capsys, *argv, "--format", "json") == (0, js)
    assert run(capsys, *argv, "--jobs", "4") == run(capsys, *argv, "--jobs", "1") == (0, text)


def test_cohomology_checks(capsys, tmp_path):
    for check in ("d2d1", "cyclic"):
        code, data = run_json(capsys, "cohomology", "--check", check,
                              "--algebra", "free3", "--samples", "5", "--seed", "3")
        assert code == 0, check
        assert data["status"] == "holds"
    code, data = run_json(capsys, "cohomology", "--check", "d3d2",
                          "--algebra", "h3", "--samples", "5", "--seed", "3")
    assert code == 0
    assert data["payload"]["zero_residuals"] + data["payload"]["nonzero_residuals"] == 5
    code, data = run_json(capsys, "cohomology", "--check", "gmap",
                          "--algebra", "free3")
    assert code == 0
    assert data["status"] == "holds"


def so3_file(tmp_path, field):
    """so(3), the cross-product Lie algebra, saved over Q or F_5."""
    path = tmp_path / "so3.json"
    if field == "Q":
        save_algebra(simple_lie_3(), path)
    else:
        save_algebra(Algebra.from_products(PrimeField(5), 3, {(0, 1): {2: 1}, (1, 2): {0: 1},
                                                              (0, 2): {1: 4}}, skew=True), path)
    return str(path)


@pytest.mark.parametrize("field", ("Q", "F5"))
def test_cohomology_d2d1_witness_on_the_cross_product_algebra(capsys, tmp_path, field):
    # so(3) is a Lie algebra, not an ACAA, so d2 o d1 fails on the first sample
    path = so3_file(tmp_path, field)
    argv = ["cohomology", "--check", "d2d1", "--algebra", path, "--samples", "5",
            "--seed", "3"]
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == ('command: cohomology\nstatus: fails\nwitness: sample 0, e1, e1, e2\n'
                   'check: "d2d1"\nsamples: 5\nseed: 3\n')
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["witness"] == ["sample 0", "e1", "e1", "e2"]


@pytest.mark.parametrize("algebra", ("h5", "so3-Q", "so3-F5"))
def test_cohomology_cyclic_output_is_pinned(capsys, tmp_path, algebra):
    # exact output on an ACAA and on a Lie algebra that is not one, over Q
    # and F_5; the cyclic sum of d2(phi) vanishes for every bilinear product
    path = so3_file(tmp_path, algebra[5:]) if algebra.startswith("so3") else algebra
    argv = ["cohomology", "--check", "cyclic", "--algebra", path, "--seed", "3"]
    assert run(capsys, *argv) == (
        0, 'command: cohomology\nstatus: holds\ncheck: "cyclic"\nsamples: 20\nseed: 3\n')
    assert run(capsys, *argv, "--format", "json") == (0, (
        '{\n  "command": "cohomology",\n  "payload": {\n    "check": "cyclic",\n'
        '    "samples": 20,\n    "seed": 3\n  },\n  "status": "holds",\n'
        '  "witness": null\n}\n'))


@pytest.mark.parametrize("check", ("d2d1", "cyclic", "d3d2", "gmap"))
def test_cohomology_names_the_anticommutativity_precondition(capsys, tmp_path, check):
    # every check presumes an anticommutative product; on a plain algebra the
    # error names that precondition, not a cochain the user never supplied
    path = tmp_path / "ut2.json"
    save_algebra(upper_triangular_2x2(), path)
    assert main(["cohomology", "--check", check, "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: precondition failed: not anticommutative at basis pair (0, 0)\n"


def test_catalog_command(capsys):
    code, data = run_json(capsys, "catalog", "--dim", "5")
    assert code == 0
    assert [e["name"] for e in data["payload"]["entries"]] \
        == ["abelian5", "h3+K2", "L5", "h5"]
    code, data = run_json(capsys, "catalog")
    assert code == 0
    assert [(e["name"], e["fingerprint"]) for e in data["payload"]["entries"]] == [
        ("abelian2", [2, 0, 2, 0]), ("abelian3", [3, 0, 3, 0]), ("h3", [3, 1, 1, 0]),
        ("abelian4", [4, 0, 4, 0]), ("h3+K", [4, 1, 2, 0]), ("abelian5", [5, 0, 5, 0]),
        ("h3+K2", [5, 1, 3, 0]), ("L5", [5, 2, 2, 0]), ("h5", [5, 1, 1, 0]),
        ("n6", [6, 3, 3, 0]), ("free3", [7, 4, 1, 1])]


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "cohomology", "--check", "d2d1", "--algebra", "h5",
                   "--samples", "5", "--seed", "11", "--format", "json")
    _, second = run(capsys, "cohomology", "--check", "d2d1", "--algebra", "h5",
                    "--samples", "5", "--seed", "11", "--format", "json")
    assert first == second


def test_missing_file_exits_2(capsys):
    assert main(["check", "--identity", "acaa", "/nonexistent.json"]) == 2
    assert main(["fingerprint", "no-such-entry"]) == 2


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--identity", "acaa", str(path)]) == 2


def one_error_line(capsys):
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("doc", [
    {"dim": 3, "symmetry": "skew", "products": []},
    {"field": {"type": "Q"}, "dim": 3, "products": 5},
    {"field": {"type": "Q"}, "dim": 3,
     "products": [{"left": 0, "right": 1, "value": 5}]},
    {"field": {"type": "Fp", "p": 2 ** 89 - 1}, "dim": 3, "products": []},
    {"field": {"type": "Q"}, "dim": 3, "symmetry": "skew",
     "products": [{"left": 0, "right": 1, "value": {"2": True}}]},
    {"field": {"type": "Fp", "p": 5}, "dim": 3, "symmetry": "skew",
     "products": [{"left": 0, "right": 1, "value": {"2": True}}]},
])
def test_malformed_algebra_exits_2_with_one_error_line(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--identity", "acaa", str(path)]) == 2
    assert one_error_line(capsys)


def test_boolean_representation_entry_exits_2_with_one_error_line(capsys, tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"source": "h3", "target_dim": 1,
                                "images": [[[True]], [[0]], [[0]]]}))
    assert main(["rep-check", str(path)]) == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--check", "d2d1", "--algebra", "h5", "--samples", "-3"],
    ["enumerate", "--dim", "2", "--p", "3", "--jobs", "0"],
    ["rep-check", "--h3-search", "--jobs", "-1"],
    ["rep-check", "--h3-search", "--p", "5", "--jobs", "0"],
    ["series", "inverse", "--order", "0"],
    ["operad", "dims", "--count", "0"],
])
def test_non_positive_counts_exit_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    assert one_error_line(capsys)


def test_free_past_the_size_guard_exits_2_with_one_error_line(capsys):
    # free11 has dimension 231, just past the 215 of the dense-tensor guard
    assert main(["free", "--generators", "11"]) == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["check", "--identity", "custom", "--coeffs", "1/0,0,0,0,0,0,1,0,0,0,-1,0", "h5"],
    ["ad", "h3", "--element", "1/0,0,0"],
], ids=("coeffs", "element"))
def test_division_by_zero_literal_exits_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    assert one_error_line(capsys)


IDENTITIES = ("anticommutative", "acaa", "jacobi", "antiassociative", "rho-associative",
              "acaa-admissible", "custom")


@pytest.mark.parametrize("identity", IDENTITIES)
def test_every_identity_runs_on_prime_field_files(capsys, tmp_path, identity):
    F5 = PrimeField(5)
    tables = {"h3": ({(0, 1): {2: 1}}, True),
              "cross": ({(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 4}}, True),
              "plain": ({(0, 0): {1: 2}, (0, 1): {2: 3}, (2, 1): {0: 1}}, False)}
    for name, (products, skew) in tables.items():
        path = tmp_path / f"{name}.json"
        save_algebra(Algebra.from_products(F5, 3, products, skew=skew), path)
        extra = ["--coeffs", "1,0,2,0,0,4,1,0,0,3,4,0"] if identity == "custom" else []
        code = main(["check", "--identity", identity, *extra, str(path)])
        capsys.readouterr()
        if identity == "acaa" and not skew:
            assert code == 2  # the anticommutativity precondition
        else:
            assert code in (0, 1), (name, identity)
        if name == "h3" and identity == "jacobi":
            assert code == 0


def src_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_cli_import_does_not_load_numpy():
    # nor dataclasses, whose import (mostly inspect) every process would pay,
    # nor build the catalog table, free3 included
    subprocess.run([sys.executable, "-c",
                    "import acaa.cli, sys; assert 'numpy' not in sys.modules; "
                    "assert 'dataclasses' not in sys.modules; "
                    "assert acaa.catalog._entries.cache_info().currsize == 0"],
                   env=src_env(), check=True)


@pytest.mark.parametrize("argv", (
    ["fingerprint", "free3"], ["check", "--identity", "acaa", "h5"], ["recognize", "L5"],
    ["cohomology", "--check", "d2d1", "--algebra", "h5", "--samples", "2"],
    ["cohomology", "--check", "gmap", "--algebra", "free3"],
    ["enumerate", "--dim", "3", "--p", "5"], ["rep-check", "--h3-search", "--p", "5"],
), ids=("fingerprint", "check", "recognize", "cohomology-d2d1", "cohomology-gmap",
        "enumerate", "h3-search"))
def test_algebra_commands_run_without_numpy(argv):
    # the integer kernel behind check_acaa, fingerprint, change_basis and the
    # cochain differentials is pure Python, and so are the exhaustive mod-p
    # searches, whose points are byte rows.  numpy is blocked (an import of it
    # raises ImportError), so a command that needed it would not exit 0
    code = ("import sys; sys.modules['numpy'] = None; from acaa.cli import main; "
            "code = main(sys.argv[1:]); assert sys.modules['numpy'] is None; sys.exit(code)")
    subprocess.run([sys.executable, "-c", code] + argv, env=src_env(), check=True,
                   capture_output=True)


def test_large_prime_field_file_finishes(tmp_path):
    # primality of p is decided by Miller-Rabin, not trial division to sqrt(p)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"type": "Fp", "p": 10 ** 18 + 3}, "dim": 3,
        "products": [{"left": 0, "right": 1, "value": {"2": 1}}]}))
    done = subprocess.run([sys.executable, "-m", "acaa.cli", "fingerprint", str(path)],
                          env=src_env(), capture_output=True, text=True, timeout=10)
    assert done.returncode == 0
    assert "fingerprint: [3, 1, 1, 0]" in done.stdout


def test_acaa_failure_exits_1_jacobi_holds(capsys, tmp_path):
    path = tmp_path / "cross.json"
    save_algebra(simple_lie_3(), path)
    code, data = run_json(capsys, "check", "--identity", "acaa", str(path))
    assert code == 1
    assert data["witness"] == ["e1", "e1", "e2"]
    code, data = run_json(capsys, "check", "--identity", "jacobi", str(path))
    assert code == 0


def test_acaa_precondition_violation_exits_2(capsys, tmp_path):
    from conftest import upper_triangular_2x2

    path = tmp_path / "ut2.json"
    save_algebra(upper_triangular_2x2(), path)
    assert main(["check", "--identity", "acaa", str(path)]) == 2


def test_unknown_identity_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--identity", "frobnicate", "h3"])
    assert exc.value.code == 2
