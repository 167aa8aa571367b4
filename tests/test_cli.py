"""Command-line interface: payload schemas, exit codes, determinism."""

import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import pytest

import loopgas
from loopgas import CharacterSpec, GenSeries, annulus, cli, decompose, observables
from loopgas.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPartition:
    def test_series_decomposes_into_ising_characters(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--n", "1", "--phase", "dilute",
            "--order", "40", "--backend", "exact", "--format", "json",
        )
        assert code == 0
        Z = GenSeries.from_json_dict(json.loads(out))
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        assert decompose(Z, basis) == {basis[0]: 1, basis[1]: 1}

    def test_csv_matches_json_values(self, capsys):
        args = ("partition", "--n", "0", "--phase", "dense", "--order", "20")
        _, out_json, _ = run(capsys, *args, "--format", "json")
        _, out_csv, _ = run(capsys, *args, "--format", "csv")
        Z = GenSeries.from_json_dict(json.loads(out_json))
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert rows[0] == ["exponent", "coefficient"]
        assert len(rows) - 1 == len(Z.terms)

    def test_naive_flag(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--n", "1", "--phase", "dilute", "--naive",
            "--order", "12",
        )
        assert code == 0
        assert json.loads(out)["backend"] == "floating"

    def test_parity_flag(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--n", "1.7320508075688772", "--phase", "dense",
            "--parity", "even", "--order", "20", "--backend", "exact",
        )
        assert code == 0
        assert json.loads(out)["terms"][0]["exponent"] == "-1/30"


    @pytest.mark.parametrize("n", ["1.7320508075688772", "-1.7320508075688772",
                                   "1.4142135623730951", "-1.4142135623730951"])
    @pytest.mark.parametrize("parity", [None, "odd"])
    def test_auto_falls_back_to_floating_at_irrational_n(self, capsys, n, parity):
        argv = ["partition", "--n", n, "--phase", "dense", "--order", "20"]
        code, out, _ = run(capsys, *argv, *(["--parity", parity] if parity else []))
        assert code == 0
        assert json.loads(out)["backend"] == "floating"

    def test_auto_stays_exact_where_the_sector_is_rational(self, capsys):
        args = ("partition", "--n", "1.7320508075688772", "--phase", "dense",
                "--order", "20")
        code, out, _ = run(capsys, *args, "--parity", "even")
        assert code == 0 and json.loads(out)["backend"] == "exact-rational"
        code, out, _ = run(capsys, "partition", "--n", "1", "--phase", "dense",
                           "--n-prime", "0.3", "--order", "20")
        assert code == 0 and json.loads(out)["backend"] == "floating"

    def test_backend_rule_lives_in_annulus(self):
        assert "g_exact" not in inspect.getsource(cli._resolve_backend)
        assert "except DomainError" not in inspect.getsource(annulus)


class TestDuality:
    def test_residual_reported_and_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "duality", "--n", "1", "--phase", "dense", "--ratio", "1",
            "--order", "64",
        )
        assert code == 0
        row = json.loads(out)
        assert row["residual"] < 1e-8
        assert abs(math.log(row["q"]) * math.log(row["q_tilde"]) - 2 * math.pi**2) < 1e-12

    def test_identity_failure_exit_code(self, capsys):
        code, _, err = run(
            capsys, "duality", "--n", "1", "--phase", "dense", "--ratio", "1",
            "--order", "64", "--tol", "1e-18",
        )
        assert code == 4 and "identity" in err

    def test_tail_bound_exit_code(self, capsys):
        code, _, err = run(
            capsys, "duality", "--n", "1", "--phase", "dilute", "--ratio", "0.2",
            "--order", "8",
        )
        assert code == 5 and "tail" in err

    @pytest.mark.parametrize("tol", ["nan", "0"])
    @pytest.mark.parametrize("command", [
        ["duality", "--ratio", "0.2"],
        ["sweep", "--target", "duality", "--values", "0.2,1"],
    ], ids=["duality", "sweep"])
    def test_tolerance_must_be_positive(self, capsys, command, tol):
        code, out, err = run(
            capsys, *command, "--n", "1", "--phase", "dilute", "--order", "8",
            "--tol", tol,
        )
        assert code == 3 and out == "" and "tol" in err


class TestCharactersCommand:
    def test_potts3_even(self, capsys):
        code, out, _ = run(
            capsys, "characters", "--n", "1.7320508075688772", "--phase", "dense",
            "--parity", "even", "--order", "40",
        )
        assert code == 0
        assert json.loads(out) == {
            "model": {"p": 5, "q": 6},
            "terms": [
                {"r": 1, "s": 1, "coefficient": 1},
                {"r": 1, "s": 3, "coefficient": 2},
                {"r": 1, "s": 5, "coefficient": 1},
            ],
        }

    def test_modified_wrap_weight_fails_decomposition(self, capsys):
        code, _, err = run(
            capsys, "characters", "--n", "1", "--phase", "dilute",
            "--n-prime", "0.5", "--order", "30",
        )
        assert code == 4 and "identity" in err

    def test_generic_point_rejected(self, capsys):
        code, _, err = run(
            capsys, "characters", "--n", "1.5", "--phase", "dilute", "--order", "20",
        )
        assert code == 3 and "domain" in err


class TestEvaluationCommands:
    def test_crossing_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "crossing", "--q", "0.5", "--order", "64", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["q", "P", "tail_bound"]
        p = float(rows[1][1])
        assert 0.0 < p < 1.0

    def test_crossing_requires_exactly_one_modulus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "crossing", "--q", "0.5", "--ratio", "1.0")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(capsys, "crossing", "--order", "16")
        assert exc.value.code == 2

    def test_saw_row(self, capsys):
        code, out, _ = run(
            capsys, "saw", "--phase", "dilute", "--q", "0.3", "--order", "64",
        )
        assert code == 0
        row = json.loads(out)
        assert row["Z1"] > 0 and row["tail_bound"] < 1e-10

    def test_logcft_series(self, capsys):
        code, out, _ = run(capsys, "logcft", "--phase", "dense", "--order", "20")
        assert code == 0
        d = json.loads(out)
        assert d["backend"] == "floating"
        assert abs(d["terms"][0]["exponent"] - 1 / 12) < 1e-12
        assert abs(d["terms"][0]["coefficient"] + 1 / math.pi) < 1e-12

    def test_boundary_malformed_epsilons_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--g", "1.5", "--alpha1", "0.3", "--alpha2", "0.1",
                  "--epsilons", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--g", "nan"), ("--alpha1", "inf"), ("--alpha2", "-inf"), ("--L", "inf"),
    ])
    def test_boundary_non_finite_input_domain_exit(self, capsys, flag, value):
        args = {"--g": "1.5", "--alpha1": "0.3", "--alpha2": "0.1", flag: value}
        # "--flag=-inf": a separate "-inf" would parse as an option
        code, out, _ = run(capsys, "boundary", *[f"{k}={v}" for k, v in args.items()])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("epsilons", [",", ""])
    def test_boundary_empty_epsilons_usage_exit(self, capsys, epsilons):
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--g", "1.5", "--alpha1", "0.3", "--alpha2", "0.1",
                  "--epsilons", epsilons])
        assert exc.value.code == 2

    def test_boundary_row(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--g", "1.5", "--alpha1", "0.3", "--alpha2", "0.1",
        )
        assert code == 0
        row = json.loads(out)
        assert abs(row["e1_cutoff_finite"] - row["e1_zeta"]) < 1e-6
        assert abs(row["c_effective"] - (1 - 24 / 1.5 * 0.16)) < 1e-12


class TestSweep:
    def test_crossing_sweep_monotone(self, capsys):
        values = ",".join(str(q / 10.0) for q in range(1, 10))
        code, out, _ = run(
            capsys, "sweep", "--target", "crossing", "--values", values,
            "--order", "64", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 9
        ps = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(ps, ps[1:]))  # falls with q

    def test_duality_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--target", "duality", "--n", "1", "--phase",
            "dilute", "--values", "0.5,1,2", "--order", "64",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(r["residual"] < 1e-8 for r in rows)

    # stdout sha256 recorded while every row still rebuilt both channels
    @pytest.mark.parametrize("n,digest", [
        ("1", "9ddfd39703e5577658f49e2f794d62eb70a72ade2e1d564a15fb6acede34a5ab"),
        ("1.7320508075688772",
         "a96c606d5966ab4e2b8cd236dc76ba2f9593a47962c6f6460b5dc4d48dd6a09e"),
    ], ids=["exact-direct", "floating-direct"])
    def test_duality_sweep_builds_each_channel_once(self, capsys, monkeypatch,
                                                    n, digest):
        """Each channel's theta is built once for the whole sweep: the direct
        one by _direct_terms (through partition_direct where it is exact), the
        crossed one by _crossed_terms."""
        calls = {"_direct_terms": 0, "_crossed_terms": 0}
        for name in calls:
            def counted(*args, _real=getattr(annulus, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(annulus, name, counted)
        code, out, _ = run(
            capsys, "sweep", "--target", "duality", "--n", n, "--phase",
            "dilute" if n == "1" else "dense", "--values", "0.5,1,2",
            "--order", "64",
        )
        assert code == 0
        assert calls == {"_direct_terms": 1, "_crossed_terms": 1}
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_duality_sweep_checks_ratio_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a channel for an out-of-range ratio")

        for name in ("_direct_terms", "_crossed_terms"):
            monkeypatch.setattr(annulus, name, refuse)
        code, _, err = run(
            capsys, "sweep", "--target", "duality", "--n", "1", "--phase",
            "dilute", "--values", "7,1", "--order", "64",
        )
        assert code == 3 and "ratio" in err

    def test_saw_crossed_ratio_tends_to_one(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--target", "saw", "--phase", "dilute", "--crossed",
            "--values", "1e-4,1e-8,1e-12", "--order", "64",
        )
        assert code == 0
        rows = json.loads(out)
        ratios = [r["ratio_to_log_asymptote"] for r in rows]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_saw_crossed_modulus_outside_unit_interval(self, capsys, value):
        code, _, err = run(
            capsys, "sweep", "--target", "saw", "--phase", "dilute", "--crossed",
            "--values", value,
        )
        assert code == 3 and "qtilde" in err

    def test_malformed_values_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--target", "crossing", "--values", "abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", [",", ""])
    def test_empty_values_usage_exit(self, capsys, values):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--target", "crossing", "--values", values])
        assert exc.value.code == 2

    def test_saw_sweep_needs_phase(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--target", "saw", "--values", "0.1",
        )
        assert code == 3 and "phase" in err

    @pytest.mark.parametrize("argv", [
        ("saw", "--phase", "dense", "--q", "0.5"),
        ("sweep", "--target", "saw", "--phase", "dense", "--values", "0.1,0.5"),
    ], ids=["saw", "sweep"])
    def test_dense_saw_builds_only_the_derivative_series(self, capsys, monkeypatch, argv):
        """Both phases' saw rows come from saw_loop_derivative_series alone:
        the dense phase's Jacobi product side is not built."""
        want = run(capsys, *argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the saw rows built saw_loop_dense")

        monkeypatch.setattr(observables, "saw_loop_dense", refuse)
        assert run(capsys, *argv) == want and want[0] == 0


    def test_duality_reads_the_channels_without_completing_them(self, capsys, monkeypatch):
        """At generic coupling both duality channels are summed from the class
        path's windows: with the full floating completion refused, the check
        and the CLI still give the bytes recorded when both channels were
        completed in full."""
        from loopgas import params_from_n, qseries

        def completion(kernel):
            def refuse(theta, step=1):
                if theta.backend is qseries.Backend.FLOAT:
                    raise AssertionError("a duality channel was completed in full")
                return kernel(theta, step)
            return refuse

        # every builder completes through `qseries._complete`, which looks the kernel up here
        monkeypatch.setattr(qseries, "_euler_kernel", completion(qseries._euler_kernel))
        ev = annulus.duality_check(params_from_n(1.3, "dense"), None, 1.0, 1024)
        assert repr(tuple(ev)) == (
            "(1.0, 0.04321391826377226, 0.0018674427317079893, 2.4696082743787744, "
            "2.469608274378774, 4.440892098500626e-16, (0.0, 0.0))")
        code, out, _ = run(capsys, "duality", "--n", "1.3", "--phase", "dense",
                           "--ratio", "1", "--order", "1024")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "0d3fc401782dd6dfa7d8c42fee35d8faccc8e316765b33e62246d0c1bf3d4f23")


    def test_generic_floats_never_normalise_theta(self, capsys, monkeypatch):
        """At generic coupling every builder hands its theta to the kernel as
        raw pairs that the class path takes: with `GenSeries.from_terms`
        refused, the series, the duality check and the CLI give the reprs and
        bytes recorded when every theta went through it."""
        from loopgas import Backend, params_from_n

        def refuse(*args):
            raise AssertionError("a generic theta was normalised by from_terms")

        monkeypatch.setattr(GenSeries, "from_terms", staticmethod(refuse))
        params = params_from_n(1.3, "dense")
        digests = [hashlib.sha256(repr((Z._n, Z._a, Z.cutoff)).encode()).hexdigest() for Z in (
            annulus.partition_direct(params, None, 1024, Backend.FLOAT),
            annulus.partition_naive(params, None, 1024),
            annulus.partition_crossed(params, None, 1024))]
        assert digests == [
            "75b2e9203beac3d57ebf55d3cc7a2e67f6a2c44ac6203968ef378b8bebb50e75",
            "dd424607d4fe06ca110f214a419cc1e0c819decd418883e025d73631ee1e1544",
            "ce5f5408f6a67fd48c6624045279ed32dbf1f0a121d307119796458aca2fd7de"]
        assert repr(tuple(annulus.duality_check(params, None, 1.0, 1024))) == (
            "(1.0, 0.04321391826377226, 0.0018674427317079893, 2.4696082743787744, "
            "2.469608274378774, 4.440892098500626e-16, (0.0, 0.0))")
        code, out, _ = run(capsys, "partition", "--n", "1.3", "--phase", "dense",
                           "--order", "256")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "fdce60e3f127e7967068efdbbe3650de04bf932cfce0ccd13a980dc9c1659c1e")


class TestOutputHandling:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = main(
                ["crossing", "--q", "0.37", "--order", "48", "--output", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LOOPGAS_OUTDIR", str(tmp_path))
        code = main(["crossing", "--q", "0.4", "--order", "32", "--output", "row.json"])
        assert code == 0
        assert (tmp_path / "row.json").exists()

    @pytest.mark.parametrize("where", ["missing directory", "directory", "missing outdir"])
    def test_unwritable_output_usage_exit(self, tmp_path, capsys, monkeypatch, where):
        # one stderr line and exit 2, no traceback, and nothing on stdout
        path = {"missing directory": str(tmp_path / "nonexistent" / "x.json"),
                "directory": str(tmp_path), "missing outdir": "x.json"}[where]
        if where == "missing outdir":
            monkeypatch.setenv("LOOPGAS_OUTDIR", str(tmp_path / "nonexistent"))
        code, out, err = run(capsys, "crossing", "--q", "0.5", "--output", path)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("output error: cannot write ")
        assert str(tmp_path) in err and "Traceback" not in err

    def test_unknown_command_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "partition", "--n", "3", "--phase", "dilute")
        assert code == 3 and "domain" in err

    def test_order_floor(self, capsys):
        code, _, err = run(
            capsys, "partition", "--n", "1", "--phase", "dilute", "--order", "4"
        )
        assert code == 3


# sha256 of stdout, recorded before the observables became weighted flux sums;
# one command per subcommand plus the two floating-backend series whose
# exponent arithmetic (float for partition, exact-then-rounded for logcft)
# must not change.
PINNED_STDOUT = [
    ("partition --n 1 --phase dilute --order 40 --backend exact",
     "f3f200e82845c37bc94f0867781d91a710befc5fd58df2a0ef61f656115bc2ba"),
    ("partition --n 1 --phase dense --backend floating --order 64",
     "faf7083afccfb20622c95b93fb628995c6b9d74d78b60f1f748a09f68096cadd"),
    ("crossed --n 1 --phase dense --order 64",
     "a02c9707cabd081bf9bc179446a0d92198266d9e4f006f15854590819b8f5f56"),
    ("duality --n 1 --phase dense --ratio 1 --order 64",
     "98c3942197865d0ec41e9fd9b8b4a8a33f836b7dd79894a4cc3ede0f38f33d4a"),
    ("characters --n 1.7320508075688772 --phase dense --parity even --order 40 "
     "--format csv",
     "723290fb6ab11c19f2fe06600876ba4349ad3dec8736c75074d134fde3e56c6a"),
    ("crossing --q 0.5 --order 64 --format csv",
     "66e0d6681cde6731e4236c9d13909f3faea5a299f3f70988ee4de82a407aaef8"),
    ("saw --phase dense --q 0.3 --order 24",
     "b032ef2099b892a633f12e3ada1f946236ece0da84ae50a04cf29be96861a0c2"),
    ("logcft --phase dense --order 64 --format csv",
     "fbe234373f65524c8bf6e0ba6002723751fa8d6324f16186e292cf7dcfd9f225"),
    ("boundary --g 1.5 --alpha1 0.3 --alpha2 0.1",
     "645e38b8da636f6477cbc54dca5ab87cd86bb6429cde656d1be3a097855cf5bf"),
    ("sweep --target saw --phase dense --crossed --values 1e-4,1e-8,0.01 "
     "--order 12 --format csv",
     "76c84cee1bafd4cbfc3b7d58c5d4e15b7ca8899c8a64b840c120e5a7af0f098f"),
    ("sweep --target crossing --values 0.1,0.5,0.9 --order 64 --format csv",
     "5b7ae4a0f1ea48a10a65c58c1968b9d679eae23f72a1ec4626ccb9332de89c39"),
    ("sweep --target duality --n 1.3 --phase dense --values 0.5,1,2 --order 64 "
     "--format csv",
     "c4892d8ac0912d219ea4849fc1e9d6da24a2eef6bb5b0968f2c083e402bf1499"),
]


@pytest.mark.parametrize("command,digest", PINNED_STDOUT,
                         ids=[c.split()[0] + "-" + str(i) for i, (c, _) in
                              enumerate(PINNED_STDOUT)])
def test_pinned_stdout_bytes(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_does_not_load_numpy():
    # numpy is only needed by boundary.e1_cutoff, which imports it itself
    code = "import sys, loopgas, loopgas.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(loopgas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
