from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from principal_minors import SymmetricMatrix, cli, documents, minor_vector
from principal_minors.cli import main
from principal_minors.documents import dumps, loads, matrix_document, minors_document

from conftest import NOT_P_OVER_Q, laplace_minors


def write_matrix(path, rows):
    path.write_text(dumps(matrix_document(SymmetricMatrix.from_rows(rows))))


def write_minors(path, z):
    path.write_text(dumps(minors_document(z)))


def test_minors_subcommand(tmp_path, capsys):
    mfile, zfile = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert main(["minors", "--in", str(mfile), "--out", str(zfile)]) == 0
    assert capsys.readouterr().out.strip() == "n=3 coords=8"
    doc = loads(zfile.read_text())
    assert doc["coords"] == [f"{v}/1" for v in (1, 1, 2, 2, 3, 3, 6, 6)]


def test_minors_with_t_flag(tmp_path):
    mfile, zfile = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, [[1, 2], [2, 3]])
    assert main(["minors", "--in", str(mfile), "--out", str(zfile), "--t", "0"]) == 0
    assert loads(zfile.read_text())["coords"] == ["0/1", "0/1", "0/1", "-1/1"]


def test_minors_with_negative_fraction_t(tmp_path):
    # argparse reads "-7/3" after a space as an option; attached it is a value
    rows = [[1, 2, 0], [2, 3, 1], [0, 1, -4]]
    mfile, zfile = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, rows)
    assert main(["minors", "--in", str(mfile), "--out", str(zfile), "--t=-7/3"]) == 0
    t = Fraction(-7, 3)
    want = [t ** (3 - bin(enc).count("1")) * m for enc, m in enumerate(laplace_minors(rows))]
    assert [Fraction(c) for c in loads(zfile.read_text())["coords"]] == want


def test_minors_rejects_scalars_it_cannot_write(tmp_path, capsys):
    mfile, zfile, out = tmp_path / "m.json", tmp_path / "z.json", tmp_path / "out.json"
    write_matrix(mfile, [[1, 2], [2, 3]])
    assert main(["minors", "--in", str(mfile), "--out", str(out), "--t", "1/0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()
    # numeric reconstruction writes a complex matrix document; its minors
    # are not exact rationals
    write_minors(zfile, minor_vector(SymmetricMatrix.from_rows([[1, 1, 0], [1, 2, 1],
                                                                 [0, 1, 3]]), 1))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(mfile),
                 "--mode", "numeric"]) == 0
    assert loads(mfile.read_text())["scalar_type"] == "complex"
    capsys.readouterr()
    assert main(["minors", "--in", str(mfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("t", NOT_P_OVER_Q)
def test_minors_reads_t_only_as_p_over_q(tmp_path, capsys, t):
    mfile, out = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, [[1, 2], [2, 3]])
    assert main(["minors", "--in", str(mfile), "--out", str(out), "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not of the form p/q in ASCII digits: {t!r}\n"
    assert not out.exists()


def test_minors_beyond_its_bound_exits_2(tmp_path, capsys):
    from principal_minors.minor_map import MAX_MINOR_FACTORS

    mfile, out = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, [[1 if i == j else 0 for j in range(30)] for i in range(30)])
    assert main(["minors", "--in", str(mfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: all principal minors are computed for"
                            f" n <= {MAX_MINOR_FACTORS} only, got n=30\n")
    assert not out.exists()


def test_minors_identity_2x2(tmp_path):
    mfile, zfile = tmp_path / "m.json", tmp_path / "z.json"
    write_matrix(mfile, [[1, 0], [0, 1]])
    main(["minors", "--in", str(mfile), "--out", str(zfile)])
    assert loads(zfile.read_text())["coords"] == ["1/1"] * 4


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["minors", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2
    assert main(["check", "--in", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", [["minors", "--out", "o.json"], ["check"],
                                     ["reconstruct", "--out", "o.json"],
                                     ["rep", "lower-to-lowest", "--out", "o.json"]])
def test_deeply_nested_document_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("in.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main(command + ["--in", "in.json"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: not valid JSON: nested too deeply\n")
    assert not Path("o.json").exists()


def test_successive_calls_share_one_parser_and_no_arguments(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_minors(Path("z.json"), minor_vector(SymmetricMatrix.from_rows([[1, 1], [1, 2]]), 1))
    assert main(["check", "--in", "z.json", "--out", "r.json"]) == 0
    Path("r.json").unlink()
    assert main(["check", "--in", "z.json"]) == 0
    assert not Path("r.json").exists()
    assert cli.build_parser() is cli.build_parser()


def test_check_member_and_nonmember(tmp_path, capsys):
    a = SymmetricMatrix.from_rows([[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 1], [0, 0, 1, 4]])
    z = minor_vector(a, 1)
    zfile = tmp_path / "z.json"
    write_minors(zfile, z)
    report = tmp_path / "report.json"
    assert main(["check", "--in", str(zfile), "--out", str(report)]) == 0
    assert loads(report.read_text())["verdict"] == "member"

    coords = list(z.coords)
    coords[15] += 1
    write_minors(zfile, z.__class__.from_values(4, coords))
    assert main(["check", "--in", str(zfile), "--out", str(report)]) == 1
    doc = loads(report.read_text())
    assert doc["verdict"] == "non-member"
    assert doc["certificate"]["type"] == "basis-violation"


def test_check_n3_hyperdet_value_5(tmp_path):
    from principal_minors import MinorVector

    zfile = tmp_path / "z.json"
    report = tmp_path / "report.json"
    write_minors(zfile, MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 1]))
    assert main(["check", "--in", str(zfile), "--out", str(report)]) == 1
    doc = loads(report.read_text())
    assert doc["certificate"] == {"type": "basis-violation", "entry_index": 0, "value": "5/1"}


def test_check_prefilter_indeterminate_on_member(tmp_path):
    z = minor_vector(SymmetricMatrix.diagonal([1, 2, 3, 4]), 1)
    zfile = tmp_path / "z.json"
    write_minors(zfile, z)
    assert main(["check", "--in", str(zfile), "--method", "prefilter"]) == 3


def test_check_reconstruct_method(tmp_path):
    z = minor_vector(SymmetricMatrix.from_rows([[1, 1, 0], [1, 2, 1], [0, 1, 3]]), 1)
    zfile, report = tmp_path / "z.json", tmp_path / "r.json"
    write_minors(zfile, z)
    assert main(["check", "--in", str(zfile), "--method", "reconstruct",
                 "--out", str(report)]) == 0
    doc = loads(report.read_text())
    assert doc["certificate"]["type"] == "matrix"
    back = documents.parse_matrix_document(doc["certificate"]["matrix"])
    assert minor_vector(back, 1) == z


def test_check_reconstruct_zero_leading_is_deterministic_and_checkable(tmp_path, capsys):
    from principal_minors import MinorVector

    z = MinorVector.from_values(3, [0, 1, 1, 0, 1, 0, 0, 0])
    zfile, r1, r2 = tmp_path / "z.json", tmp_path / "r1.json", tmp_path / "r2.json"
    write_minors(zfile, z)
    for report in (r1, r2):
        assert main(["check", "--in", str(zfile), "--method", "reconstruct",
                     "--out", str(report)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = loads(r1.read_text())
    assert doc["chart_moves"] == 1
    # the first nonzero coordinate is z_[1,0,0], so J acts on factor 1
    # alone: (x0, x1) -> (x1, -x0)
    moved = [z[enc ^ 1] * (-1 if enc & 1 else 1) for enc in range(8)]
    back = documents.parse_matrix_document(doc["certificate"]["matrix"])
    scale = Fraction(doc["certificate"]["scale"])
    assert list(minor_vector(back, 1).scale(scale).coords) == moved
    # there is no seed to choose a chart move with
    with pytest.raises(SystemExit) as err:
        main(["check", "--in", str(zfile), "--method", "reconstruct", "--seed", "1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_reconstruct_subcommand(tmp_path):
    a = SymmetricMatrix.from_rows([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
    zfile, out = tmp_path / "z.json", tmp_path / "a.json"
    write_minors(zfile, minor_vector(a, 1))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 0
    back = documents.parse_matrix_document(loads(out.read_text()))
    assert minor_vector(back, 1) == minor_vector(a, 1)


def test_reconstruct_exit_codes(tmp_path, capsys):
    from principal_minors import MinorVector

    zfile, out = tmp_path / "z.json", tmp_path / "a.json"
    z = minor_vector(SymmetricMatrix.from_rows([[1, 1, 0, 0], [1, 2, 1, 0],
                                                [0, 1, 3, 1], [0, 0, 1, 4]]), 1)
    coords = list(z.coords)
    coords[15] += 1
    write_minors(zfile, MinorVector.from_values(4, coords))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 1

    write_minors(zfile, MinorVector.from_values(2, [1, 1, 1, -1]))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 3
    assert "a real one does" in capsys.readouterr().err
    assert not out.exists()
    # the member is decided all the same, with the rational B as certificate
    report = tmp_path / "r.json"
    assert main(["check", "--in", str(zfile), "--method", "reconstruct",
                 "--out", str(report)]) == 0
    certificate = loads(report.read_text())["certificate"]
    assert certificate == {"type": "symmetrizable-matrix", "rows": [["1/1", "1/1"],
                                                                    ["2/1", "1/1"]],
                           "scale": "1/1"}

    write_minors(zfile, MinorVector.unit(3, 7))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 2


def test_reconstruct_rejects_tol(tmp_path, capsys):
    from principal_minors import MinorVector

    zfile, out = tmp_path / "z.json", tmp_path / "a.json"
    # numeric mode decides exactly, so there is no tolerance to set
    write_minors(zfile, MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 1]))
    for tol in ("nan", "-1", "1e-9"):
        with pytest.raises(SystemExit) as err:
            main(["reconstruct", "--in", str(zfile), "--out", str(out),
                  "--mode", "numeric", "--tol", tol])
        assert err.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out),
                 "--mode", "numeric"]) == 1
    assert not out.exists()
    write_minors(zfile, minor_vector(SymmetricMatrix.from_rows([[1, 1, 0], [1, 2, 1],
                                                                [0, 1, 3]]), 1))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out),
                 "--mode", "numeric"]) == 0


def test_reconstruct_numeric_beyond_float_range_exits_2(tmp_path, capsys):
    from principal_minors import MinorVector

    zfile, out = tmp_path / "z.json", tmp_path / "a.json"
    write_minors(zfile, MinorVector.from_values(3, [1, 10**400, 1, 0, 1, 0, 0, 0]))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out),
                 "--mode", "numeric"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 0


def test_reconstruct_numeric_non_square_beyond_float_range_exits_2(tmp_path, capsys):
    from principal_minors import MinorVector

    # a member: s_12 = 2 * 10^400 is no rational square, and its root no float
    zfile, out = tmp_path / "z.json", tmp_path / "a.json"
    write_minors(zfile, MinorVector.from_values(2, [1, 1, 1, 1 - 2 * 10**400]))
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out),
                 "--mode", "numeric"]) == 2
    assert capsys.readouterr().err == ("error: numeric mode: an entry does not fit"
                                       " a complex float\n")
    assert not out.exists()
    assert main(["reconstruct", "--in", str(zfile), "--out", str(out)]) == 3


def test_check_prefilter_dense_n9(tmp_path):
    import random

    from principal_minors.sampling import random_symmetric_matrix

    z = minor_vector(random_symmetric_matrix(9, random.Random(9)), 1)
    zfile, report = tmp_path / "z.json", tmp_path / "r.json"
    write_minors(zfile, z)
    assert main(["check", "--in", str(zfile), "--method", "prefilter"]) == 3
    coords = list(z.coords)
    coords[-1] += 1
    write_minors(zfile, z.__class__.from_values(9, coords))
    assert main(["check", "--in", str(zfile), "--method", "prefilter",
                 "--out", str(report)]) == 1
    certificate = loads(report.read_text())["certificate"]
    assert certificate["type"] == "prefilter-violation"
    assert certificate["value"] != "0/1"


def test_hd_basis_subcommand(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["hd-basis", "--n", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "dimension=20" in printed
    doc = loads(out.read_text())
    assert doc["dimension"] == 20
    basis = documents.parse_basis_document(doc)
    assert len(basis) == 20
    from test_hyperdet import GOLDEN_N4_DIGEST

    assert doc["digest"] == GOLDEN_N4_DIGEST


# every integer option, with "{}" where its value goes
INTEGER_OPTIONS = (["hd-basis", "--n", "{}", "--out", "b.json"],
                   ["rep", "decompose", "--d", "{}", "--n", "2"],
                   ["rep", "decompose", "--d", "2", "--n", "{}"],
                   ["experiment", "sign-flip", "--n", "{}"],
                   ["experiment", "sign-flip", "--n", "4", "--seed", "{}"],
                   ["experiment", "sign-flip", "--n", "4", "--trials", "{}"])


@pytest.mark.parametrize("text", ["x", "+5", "1_0", " 5", "5/1", "\u0665", "1" + "0" * 20000],
                         ids=["x", "+5", "1_0", "space-5", "5/1", "arabic-indic-5", "digits-20001"])
def test_integer_options_read_only_the_documents_grammar(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    shown = f"'{text}'" if len(text) < 60 else f"'{text[:63]}... ({len(text)} characters)"
    for template in INTEGER_OPTIONS:
        with pytest.raises(SystemExit) as err:
            main([text if arg == "{}" else arg for arg in template])
        assert err.value.code == 2
        option = template[template.index("{}") - 1]
        # argparse's own wording, with the value cut as the package cuts it
        assert capsys.readouterr().err.endswith(
            f" error: argument {option}: invalid int value: {shown}\n")
    assert not list(tmp_path.iterdir())


def test_integer_option_past_the_int_to_str_limit_is_read(capsys):
    long = "9" * 5000
    assert main(["hd-basis", "--n", long, "--out", "b.json"]) == 2
    assert capsys.readouterr().err == ("error: the degree-4 module basis is built for n <= 6"
                                       f" only, got n={long[:64]}... (5000 characters)\n")


def test_basis_beyond_its_bound_exits_2(tmp_path, capsys):
    # hd-basis is bounded at n = 6, the basis check, which builds no basis, at n = 8
    out = tmp_path / "out.json"
    infile = tmp_path / "z.json"
    write_minors(infile, minor_vector(SymmetricMatrix.from_rows(
        [[1 if i == j else 0 for j in range(9)] for i in range(9)]), 1))
    for command, err in (
            (["hd-basis", "--n", "7"], "the degree-4 module basis is built for n <= 6 only, got n=7"),
            (["check", "--in", str(infile), "--method", "basis"],
             "the basis check is bounded at n <= 8, got n=9")):
        assert main(command + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
        assert not out.exists()


def test_rep_multiplicity(capsys):
    assert main(["rep", "multiplicity", "2,2;2,2;2,2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_rep_multiplicity_bad_input(capsys):
    # parts are ASCII digits only, as every number read from text
    for text in ("2,2;banana", "1_0", "+2,2;2,2", "\u0662,\u0662;2,2", " 2 , 2 ;2,2"):
        assert main(["rep", "multiplicity", text]) == 2
        assert capsys.readouterr().err == (f"error: bad partition tuple {text!r}:"
                                           " parts must be nonempty ASCII digits\n")
    # a blank partition is skipped
    assert main(["rep", "multiplicity", " ; "]) == 2
    assert capsys.readouterr().err == "error: need at least one partition\n"
    assert main(["rep", "multiplicity", ";2,2;;2,2;"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_rejected_values_are_cut_in_error_lines(tmp_path, capsys):
    from principal_minors.scalars import EXCERPT_CHARS

    long = "9" * 4000
    out = tmp_path / "out.json"
    for argv in (["experiment", "sign-flip", "--n", "4", "--trials", "-" + long],
                 ["hd-basis", "--n", long, "--out", str(out)],
                 ["rep", "decompose", "--d", long, "--n", "2"],
                 ["rep", "decompose", "--d", "2", "--n", long],
                 ["rep", "multiplicity", long],
                 ["rep", "multiplicity", "1" * 5000 + ",x"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        err = captured.err
        assert err.startswith("error:") and err.count("\n") == 1
        # one value cut to EXCERPT_CHARS characters and its length
        assert " characters)" in err and len(err) < EXCERPT_CHARS + 160
    # a short value is echoed whole, as before
    assert main(["experiment", "sign-flip", "--n", "4", "--trials", "-1"]) == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1, got -1\n"


def test_reconstruct_cuts_certificate_values_past_the_digit_bound(tmp_path, capsys):
    # coordinates of 19,999 digits; the cycle certificate's pi_C^2 has
    # about 120,000, which no document can hold: a non-member all the same
    from principal_minors import MinorVector
    from principal_minors.membership import NoConsistentSigns, NonMemberError
    from principal_minors.scalars import MAX_DIGITS

    d = 10 ** 19998
    infile, out = tmp_path / "z.json", tmp_path / "m.json"
    write_minors(infile, MinorVector.from_values(3, [1, d, d, 0, d, 0, 0, 5]))
    for mode in ("exact", "numeric"):
        assert main(["reconstruct", "--in", str(infile), "--out", str(out), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("non-member: no off-diagonal signs fit the cycle at encoding 7:"
                                f" expected (more than {MAX_DIGITS} digits),"
                                f" got (more than {MAX_DIGITS} digits)\n")
    # a value within the bound is written whole, as before
    err = NonMemberError(NoConsistentSigns("cycle", 7, -(10 ** 19999 - 1), Fraction(1, 3)))
    assert str(err) == (f"no off-diagonal signs fit the cycle at encoding 7:"
                        f" expected -{'9' * 19999}, got 1/3")


def test_rep_decompose(capsys):
    assert main(["rep", "decompose", "--d", "4", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "total dimension=35" in out


def test_rep_multiplicity_beyond_its_bound_exits_2(capsys):
    assert main(["rep", "multiplicity", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partitions of size at most 24 only, got 100\n"


def test_rep_multiplicity_tuple_beyond_its_bound_exits_2(capsys):
    from principal_minors.rep_theory import partitions_of
    assert main(["rep", "multiplicity", ";".join(["2,2"] * 14)]) == 0
    assert capsys.readouterr().out == "2731\n"
    every_24 = ";".join(",".join(map(str, parts)) for parts in partitions_of(24))
    for arg in (";".join(["2,2"] * 15), every_24):
        assert main(["rep", "multiplicity", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_rep_decompose_beyond_its_bounds_exits_2(capsys):
    for d, n in ((4, 20), (100, 1), (1, 15)):
        assert main(["rep", "decompose", "--d", str(d), "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert main(["rep", "decompose", "--d", "4", "--n", "3"]) == 0


def test_rep_lower_to_lowest(tmp_path, capsys):
    from principal_minors import cayley_hyperdet
    from principal_minors.documents import polynomial_document

    pfile = tmp_path / "p.json"
    pfile.write_text(dumps(polynomial_document(cayley_hyperdet(4, (1, 2, 3)))))
    out = tmp_path / "lowest.json"
    assert main(["rep", "lower-to-lowest", "--in", str(pfile), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "weight=[0, 0, 0, 4]" in printed
    lowest = documents.parse_polynomial_document(loads(out.read_text()))
    assert lowest.degree() == 4


def test_rep_lower_to_lowest_merges_repeated_encodings(tmp_path, capsys):
    # X[0]*X[0] listed as two factors is X[0]^2: it lowers to 2*X[1]^2
    pfile, out = tmp_path / "p.json", tmp_path / "lowest.json"
    pfile.write_text(dumps({"kind": "polynomial", "schema_version": 1, "n": 1,
                            "terms": [{"monomial": [[0, 1], [0, 1]], "coeff": "1/1"}]}))
    assert main(["rep", "lower-to-lowest", "--in", str(pfile), "--out", str(out)]) == 0
    assert "weight=[2]" in capsys.readouterr().out
    assert loads(out.read_text())["terms"] == [{"monomial": [[1, 2]], "coeff": "2/1"}]


def test_experiment_sign_flip_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["experiment", "sign-flip", "--n", "4", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_bytes() == out2.read_bytes()
    doc = loads(out1.read_text())
    assert doc["seed"] == 7
    assert doc["has_full_agreement"] is True
    counts = {c for c, _ in doc["counts"]}
    assert 15 not in counts


def test_experiment_sign_flip_generic_counts(tmp_path):
    out = tmp_path / "r.json"
    assert main(["experiment", "sign-flip", "--n", "4", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = loads(out.read_text())
    counts = {c for c, _ in doc["counts"]}
    assert counts == {11, 13, 16}
    assert doc["has_almost_agreement"] is False


def test_experiment_sign_flip_n6(tmp_path):
    out = tmp_path / "r.json"
    assert main(["experiment", "sign-flip", "--n", "6", "--seed", "7",
                 "--out", str(out)]) == 0
    doc = loads(out.read_text())
    counts = dict(doc["counts"])
    assert sum(counts.values()) == 1 << 15
    assert 64 in counts
    assert 63 not in counts


def test_experiment_sign_flip_rejects_nonpositive_trials(tmp_path, capsys):
    out = tmp_path / "r.json"
    for trials in ("0", "-1"):
        assert main(["experiment", "sign-flip", "--n", "4", "--trials", trials,
                     "--out", str(out)]) == 2
        assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_sign_flip_checks_its_bound_before_sampling(monkeypatch, capsys):
    from principal_minors import cli
    from principal_minors.scalars import EXCERPT_CHARS

    def sample(*args, **kwargs):
        raise AssertionError("sampled a matrix beyond the bound")

    monkeypatch.setattr(cli, "random_symmetric_matrix", sample)
    # 2^C(n-1,2) <= 8192 exactly when n <= 6
    assert main(["experiment", "sign-flip", "--n", "7"]) == 2
    assert capsys.readouterr().err == ("error: size too large: 2^((n-1)(n-2)/2) patterns beyond"
                                       " 8192, got 7\n")
    # C(n-1,2) is compared before 2 is raised to it
    assert main(["experiment", "sign-flip", "--n", "9" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: size too large:") and len(err) < EXCERPT_CHARS + 160
    for n in (0, -3):
        assert main(["experiment", "sign-flip", "--n", str(n)]) == 2
        assert capsys.readouterr().err == f"error: size must be at least 1, got {n}\n"
    # 9 trials of 2^10 gauge-class patterns at n = 6
    assert main(["experiment", "sign-flip", "--n", "6", "--trials", "9"]) == 2
    assert capsys.readouterr().err == ("error: --trials too large: trials * 2^((n-1)(n-2)/2)"
                                       " patterns beyond 8192, got 9\n")


def test_cli_entry_point_runs(tmp_path):
    import subprocess
    import sys

    mfile = tmp_path / "m.json"
    write_matrix(mfile, [[2]])
    proc = subprocess.run(
        [sys.executable, "-m", "principal_minors.cli", "minors",
         "--in", str(mfile), "--out", str(tmp_path / "z.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=1 coords=2"


def test_check_imports_no_hashlib(tmp_path):
    # loading OpenSSL adds about 3.6 MB resident; only basis documents need
    # a digest.  The baseline follows `random` and `tempfile`, which some
    # builds load hashlib for.
    import subprocess
    import sys

    import principal_minors

    zfile = tmp_path / "z.json"
    write_minors(zfile, minor_vector(SymmetricMatrix.from_rows(
        [[1, 2, 0], [2, 3, 1], [0, 1, 4]]), 1))
    script = "\n".join([
        "import random, sys, tempfile",
        f"sys.path.insert(0, {str(Path(principal_minors.__file__).parent.parent)!r})",
        "base = set(sys.modules)",
        "from principal_minors import cli",
        f"code = cli.main(['check', '--in', {str(zfile)!r}, '--method', 'basis'])",
        "print(code, sorted({'hashlib', '_hashlib'} & (set(sys.modules) - base)))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command,kind", [
    (["minors"], "matrix"),
    (["check"], "minors"),
    (["reconstruct"], "minors"),
    (["rep", "lower-to-lowest"], "polynomial"),
    (["hd-basis", "--n", "3"], None),
    (["experiment", "sign-flip", "--n", "3"], None),
])
def test_unwritable_out_exits_2(tmp_path, capsys, command, kind):
    a = SymmetricMatrix.from_rows([[1, 1], [1, 2]])
    infile = tmp_path / "in.json"
    if kind == "matrix":
        write_matrix(infile, [[1, 1], [1, 2]])
    elif kind == "minors":
        write_minors(infile, minor_vector(a, 1))
    elif kind == "polynomial":
        from principal_minors import cayley_hyperdet
        infile.write_text(dumps(documents.polynomial_document(cayley_hyperdet(3, (1, 2, 3)))))
    out = tmp_path / "missing" / "out.json"
    args = command + (["--in", str(infile)] if kind else []) + ["--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert not out.parent.exists()
