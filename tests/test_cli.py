import json

import numpy as np
import pytest

from bosonic_bounds import bounds as bnd
from bosonic_bounds import channels as chn
from bosonic_bounds import cli
from bosonic_bounds import gaussian_core as gc
from bosonic_bounds import verify as vfy
from bosonic_bounds.errors import BosonicBoundsError, ChannelKindError, DomainError

QU1_TH_099_0_1 = 1.909026343423734981271


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One point of each registry row and the `bound` JSON text it prints, byte
# for byte: the key order of that text is the CLI contract.  The penalized
# rows QU2 and PU2 minimize over eps'; QU3 and PU3 take a fixed one.
BOUND_JSON = {
    "QL": (("amplifier", "--g", "1.5", "--nb", "0.2", "--ns", "2"),
        '{"kind": "QL", "value_bits": 0.5325229432737538, "raw_bits": 0.5325229432737538, '
        '"arg_opt": null, "params": {"channel": "amplifier", "g": 1.5, "nb": 0.2, "ns": 2.0}}'),
    "QU1": (("amplifier", "--g", "1.5", "--nb", "0.2", "--ns", "2"),
        '{"kind": "QU1", "value_bits": 0.8547529722733433, "raw_bits": 0.8547529722733433, '
        '"arg_opt": null, "params": {"g": 1.5, "nb": 0.2, "channel": "amplifier", "ns": 2.0}}'),
    "QU2": (("thermal", "--eta", "0.9", "--nb", "0.1", "--ns", "2"),
        '{"kind": "QU2", "value_bits": 3.049063443908179, "raw_bits": 3.049063443908179, '
        '"arg_opt": 0.05441446737302508, "params": {"eta": 0.9, "nb": 0.1, '
        '"channel": "thermal", "ns": 2.0, "eps": 0.05208538292439958, '
        '"w_prime": 0.38999999999999996, "eps_prime": 0.05441446737302508, '
        '"delta": 0.0022088889338062628}}'),
    "QU3": (("amplifier", "--g", "1.5", "--nb", "0.2", "--ns", "2", "--eps-prime", "0.5"),
        '{"kind": "QU3", "value_bits": 26.828111273365955, "raw_bits": 26.828111273365955, '
        '"arg_opt": 0.5, "params": {"g": 1.5, "nb": 0.2, "channel": "amplifier", "ns": 2.0, '
        '"eps": 0.16666666666666669, "w_prime": 3.1, "eps_prime": 0.5, '
        '"delta": 0.2222222222222222}}'),
    "QU4": (("additive", "--nbar", "0.3", "--ns", "2"),
        '{"kind": "QU4", "value_bits": 0.934739851425459, "raw_bits": 0.934739851425459, '
        '"arg_opt": null, "params": {"nbar": 0.3, "channel": "additive", "ns": 2.0}}'),
    "PU1": (("additive", "--nbar", "0.3", "--ns", "2"),
        '{"kind": "PU1", "value_bits": 1.1404304838446566, "raw_bits": 1.1404304838446566, '
        '"arg_opt": null, "params": {"nbar": 0.3, "channel": "additive", "ns": 2.0}}'),
    "PU2": (("amplifier", "--g", "1.5", "--nb", "0.2", "--ns", "2"),
        '{"kind": "PU2", "value_bits": 17.06383050008998, "raw_bits": 17.06383050008998, '
        '"arg_opt": 0.23941617638683105, "params": {"g": 1.5, "nb": 0.2, '
        '"channel": "amplifier", "ns": 2.0, "eps": 0.22658309153239242, "w_prime": 1.5, '
        '"eps_prime": 0.23941617638683105, "delta": 0.010354136971045409}}'),
    "PU3": (("thermal", "--eta", "0.9", "--nb", "0.1", "--ns", "2", "--eps-prime", "0.5"),
        '{"kind": "PU3", "value_bits": 49.89465052539126, "raw_bits": 49.89465052539126, '
        '"arg_opt": 0.5, "params": {"eta": 0.9, "nb": 0.1, "channel": "thermal", "ns": 2.0, '
        '"eps": 0.09090909090909091, "w_prime": 1.81, "eps_prime": 0.5, '
        '"delta": 0.2727272727272727}}'),
    "PL": (("thermal", "--eta", "0.9", "--nb", "0.1", "--ns", "2"),
        '{"kind": "PL", "value_bits": 1.6538331803889714, "raw_bits": 1.6538331803889714, '
        '"arg_opt": 0.0, "params": {"channel": "thermal", "eta": 0.9, "nb": 0.1, "ns": 2.0}}'),
    "PLOB": (("amplifier", "--g", "1.5", "--nb", "0.2", "--ns", "2"),
        '{"kind": "PLOB", "value_bits": 0.9219280948873624, "raw_bits": 0.9219280948873624, '
        '"arg_opt": null, "params": {"g": 1.5, "nb": 0.2, "channel": "amplifier", "ns": 2.0}}'),
    "RMG": (("thermal", "--eta", "0.9", "--nb", "0.1", "--ns", "2"),
        '{"kind": "RMG", "value_bits": 3.0163018123291008, "raw_bits": 3.0163018123291008, '
        '"arg_opt": null, "params": {"eta": 0.9, "nb": 0.1, "channel": "thermal", "ns": 2.0}}'),
}


@pytest.mark.parametrize("kind", list(BOUND_JSON))
def test_bound_json_text_is_pinned(capsys, kind):
    argv, text = BOUND_JSON[kind]
    code, out, err = run_cli(capsys, "bound", "--channel", *argv, "--bound", kind)
    assert (code, out, err) == (0, text + "\n", "")


def test_bound_json_pins_every_registry_row():
    assert list(BOUND_JSON) == list(bnd.REGISTRY)


class TestBoundCommand:
    def test_pure_loss_point(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.99", "--nb", "0", "--ns", "1",
                               "--bound", "QU1")
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"kind", "value_bits", "raw_bits", "arg_opt", "params"}
        assert rec["kind"] == "QU1"
        assert rec["value_bits"] == pytest.approx(QU1_TH_099_0_1, abs=1e-12)

    def test_clamped_point(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.5", "--nb", "2", "--ns", "5",
                               "--bound", "QU1")
        assert code == 0
        rec = json.loads(out)
        assert rec["value_bits"] == 0.0
        assert rec["raw_bits"] < 0.0

    def test_entanglement_breaking_amplifier_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--channel", "amplifier",
                                 "--g", "3", "--nb", "1", "--ns", "1",
                                 "--bound", "QU1")
        assert code == 2
        assert out == ""
        assert "entanglement-breaking" in err

    def test_infeasible_qu4_names_condition(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.5", "--nb", "2", "--ns", "1",
                               "--bound", "QU4")
        assert code == 2
        assert "eta <= (1-eta)*NB" in err

    def test_missing_parameter_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--channel", "thermal",
                               "--ns", "1", "--bound", "QU1")
        assert code == 1
        assert "eta" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--channel", "thermal", "--eta", "0.9", "--g", "3", "--nbar", "7"], "g"),
        (["--channel", "amplifier", "--g", "1.5", "--eta", "0.9"], "eta"),
        (["--channel", "additive", "--nbar", "0.3", "--g", "1.5"], "g"),
    ])
    def test_flag_the_channel_does_not_take_exits_1(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "bound", *argv, "--ns", "1", "--bound", "QL")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and f"--{flag}" in err

    def test_additive_accepts_nb(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "additive", "--nbar", "0.3",
                               "--nb", "0", "--ns", "1", "--bound", "QU1")
        assert code == 0
        assert json.loads(out)["params"]["nbar"] == 0.3

    def test_bad_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--channel", "thermal", "--eta", "0.9",
                      "--bound", "NOPE"])
        assert exc.value.code == 1

    def test_eps_prime_passthrough(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.75", "--nb", "0.2", "--ns", "5",
                               "--bound", "QU2", "--eps-prime", "0.6")
        assert code == 0
        rec = json.loads(out)
        assert rec["arg_opt"] == 0.6

    def test_pl_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.7", "--nb", "0.1", "--ns", "0.1",
                               "--bound", "PL")
        assert code == 0
        rec = json.loads(out)
        want = bnd.p_lower_displaced(0.7, 0.1, 0.1)
        assert rec["value_bits"] == pytest.approx(want.value, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--channel", "thermal", "--eta", "1", "--nb", "0.5", "--ns", "1", "--bound", "PLOB"),
        ("--channel", "thermal", "--eta", "1", "--nb", "0.5", "--ns", "1", "--bound", "RMG"),
        ("--channel", "amplifier", "--g", "1", "--nb", "0.5", "--bound", "PLOB"),
    ])
    def test_infinite_result_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and argv[-1] in err and "inf" in err


SPEC_TWO_POINT = """\
channel = thermal
eta = 0.9
nb = 0.2
sweep = ns
start = 1
stop = 2
points = 2
scale = linear
bounds = QL
"""


class TestSweepCommand:
    def test_two_point_sweep_is_three_lines(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT)
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "sweep_var,QL"
        assert float(lines[1].split(",")[1]) == pytest.approx(
            bnd.q_lower_thermal(0.9, 0.2, 1.0).value, rel=1e-10)

    def test_byte_stable(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT.replace("points = 2", "points = 5"))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out1))
        run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_infeasible_cells_empty(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(
            "channel = thermal\nnb = 2\nns = 5\nsweep = eta\n"
            "start = 0.55\nstop = 0.95\npoints = 5\nscale = linear\n"
            "bounds = QL,QU4\n")
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        # QU4 infeasible for eta <= (1-eta)*2, i.e. eta <= 2/3
        assert rows[0][2] == ""
        assert rows[-1][2] != ""
        assert all(r[1] != "" for r in rows)  # QL defined everywhere

    def test_figure_configs_parse(self):
        for fig in cli.FIGURES:
            spec = cli.load_figure_spec(fig)
            assert spec.points >= 2

    def test_unknown_figure_id_is_named(self):
        with pytest.raises(ValueError, match="unknown figure id '9z'"):
            cli.load_figure_spec("9z")

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT)
        out = tmp_path / "missing" / "o.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and "missing" in err

    def test_figure_sweep_runs(self, tmp_path, capsys):
        out = tmp_path / "fig5a.csv"
        code, _, _ = run_cli(capsys, "sweep", "--fig", "5a", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_var,QL,PL"
        assert len(lines) == 38

    def test_fig3c_high_energy_closeness(self, tmp_path, capsys):
        # QL, QU1 and QU2 pinch together at the high-energy end of the 3c
        # sweep; QU3 keeps a penalty offset at this noise and is excluded
        out = tmp_path / "fig3c.csv"
        code, _, _ = run_cli(capsys, "sweep", "--fig", "3c", "--out", str(out))
        assert code == 0
        last = out.read_text().splitlines()[-1].split(",")
        ql, qu1, qu2 = float(last[1]), float(last[2]), float(last[3])
        assert max(qu1, qu2) - ql < 0.2

    def test_fig4_regime_orderings(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        run_cli(capsys, "sweep", "--fig", "4a", "--out", str(out))
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        high = [r for r in rows if float(r[0]) >= 100.0]
        assert all(float(r[3]) < float(r[2]) for r in high)  # QU2 < QU1
        run_cli(capsys, "sweep", "--fig", "4b", "--out", str(out))
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        low = [r for r in rows if float(r[0]) <= 1.0]
        assert all(float(r[2]) < float(r[3]) for r in low)  # QU1 < QU2

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("channel = thermal\nsweep = ns\nstart = 2\nstop = 1\n"
                        "points = 5\nbounds = QL\neta = 0.9\n")
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "start" in err


class TestVerifyCommand:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "core")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_suites_come_from_one_table(self, capsys):
        assert vfy.SUITES["all"] == vfy.SUITES["core"] + vfy.SUITES["bounds"]
        with pytest.raises(DomainError, match="the suites are core, bounds, all"):
            vfy.run_suite("fast")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "fast"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert all(name in err for name in vfy.SUITES)

    def test_suite_checks_are_called_by_module_name(self, monkeypatch):
        # a wrapper that replaces a check in the module is the one that runs
        stub = vfy.CheckResult("stub", True, 0.0, 1.0)
        for check in vfy.CORE_CHECKS:
            monkeypatch.setattr(vfy, check.__name__, lambda: stub)
        assert vfy.run_suite("core") == [stub] * len(vfy.CORE_CHECKS)

    def test_report_names_residuals(self):
        res = vfy.check_deg_vs_sim_cov(n=50)
        line = res.format()
        assert "deg_vs_sim_cov" in line
        assert "max residual" in line
        assert "< 1e-10" in line

    def test_mutation_in_qu1_breaks_gap_law(self, monkeypatch):
        orig = bnd._qu1_thermal_raw
        monkeypatch.setattr(bnd, "_qu1_thermal_raw",
                            lambda eta, nb, ns: orig(eta, nb, ns) + 0.5)
        assert not vfy.check_gap_law(n=500).passed

    def test_mutation_in_kappa_breaks_eps_consistency(self, monkeypatch):
        orig = chn._kappa  # the formula behind kappa and epsilon_degradable
        monkeypatch.setattr(chn, "_kappa", lambda x, nb: orig(x, nb) * 1.01)
        assert not vfy.check_eps_consistency(n=50).passed

    def test_mutation_in_fidelity_core_breaks_fidelity_checks(self, monkeypatch):
        orig = gc._fidelity  # the core behind two_mode_fidelity and the stacked checks
        monkeypatch.setattr(gc, "_fidelity", lambda *args: orig(*args) * (1.0 - 1e-8))
        assert not vfy.check_fidelity_identity().passed
        assert not vfy.check_eps_consistency().passed
        assert not vfy.check_fidelity_basics().passed

    def test_mutation_in_spectrum_breaks_tms_purity(self, monkeypatch):
        orig = gc._symplectic_eigs
        monkeypatch.setattr(gc, "_symplectic_eigs", lambda cov: orig(cov) * (1.0 + 1e-9))
        assert not vfy.check_tms_purity().passed

    def test_mutation_in_channel_core_breaks_channel_checks(self, monkeypatch):
        orig = gc._apply  # the core behind apply_gaussian_channel and the stacked checks

        def scaled(*args, **kwargs):
            cov, mean = orig(*args, **kwargs)
            return cov * (1.0 + 1e-9), mean

        monkeypatch.setattr(gc, "_apply", scaled)
        assert not vfy.check_channel_composition().passed
        assert not vfy.check_photon_bookkeeping().passed

    def test_mutation_in_degrading_step_breaks_dilation_checks(self, monkeypatch):
        orig = gc.beamsplitter_symplectic  # the thermal degrading step's B' is the only "Bprime"

        def scaled(kind, t):
            return orig(kind, np.asarray(t) * (1.0 - 1e-6) if kind == "Bprime" else t)

        monkeypatch.setattr(gc, "beamsplitter_symplectic", scaled)
        assert not vfy.check_ud_oracle().passed
        assert not vfy.check_deg_vs_sim_cov().passed

    def test_mutation_in_optimizer_breaks_optimizer_vs_grid(self, monkeypatch):
        orig = bnd._min_penalty

        def raised(*args):
            value, arg = orig(*args)
            return value + 2e-6, arg

        monkeypatch.setattr(bnd, "_min_penalty", raised)
        assert not vfy.check_optimizer_vs_grid().passed


class TestSpecParsing:
    def test_roundtrip(self):
        spec = cli.parse_spec(SPEC_TWO_POINT)
        assert spec.channel == "thermal"
        assert spec.fixed == {"eta": 0.9, "nb": 0.2}
        assert spec.bounds == ("QL",)
        assert list(spec.grid()) == [1.0, 2.0]

    def test_log_grid(self):
        spec = cli.parse_spec(SPEC_TWO_POINT.replace("scale = linear", "scale = log")
                              .replace("points = 2", "points = 3"))
        assert np.allclose(spec.grid(), [1.0, np.sqrt(2.0), 2.0])

    @pytest.mark.parametrize("old,new", [
        ("points = 2", "points = 1"),
        ("start = 1", "start = 3"),
        ("bounds = QL", "bounds = QQ"),
        ("sweep = ns", "sweep = foo"),
    ])
    def test_validation(self, old, new):
        with pytest.raises(ValueError):
            cli.parse_spec(SPEC_TWO_POINT.replace(old, new))

    @pytest.mark.parametrize("line", ["foo = 3", "nb_ = 0.5"])
    def test_unknown_key_is_named(self, line):
        with pytest.raises(ValueError, match=line.split(" ")[0]):
            cli.parse_spec(SPEC_TWO_POINT + line + "\n")

    @pytest.mark.parametrize("key,value", [
        ("eta", "nan"), ("nb", "inf"), ("g", "-inf"), ("nbar", "nan"), ("ns", "inf"),
        ("start", "nan"), ("stop", "inf"),
    ])
    def test_non_finite_value_is_named(self, key, value):
        lines = [ln for ln in SPEC_TWO_POINT.splitlines() if not ln.startswith(key + " ")]
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            cli.parse_spec("\n".join(lines + [f"{key} = {value}"]))

    @pytest.mark.parametrize("old,new", [("eta = 0.9", "eta = nan"), ("start = 1", "start = nan"),
                                         ("nb = 0.2", "nb_ = 0.2")])
    def test_bad_spec_exits_1_without_file(self, tmp_path, capsys, old, new):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT.replace(old, new))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 1
        assert new.split(" ")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,message", [
        ("bounds = QL\n", "", "missing spec key 'bounds'"),
        ("channel = thermal\n", "", "missing spec key 'channel'"),
        ("start = 1", "start = abc", "start = 'abc' is not a valid float"),
        ("points = 2", "points = 2.5", "points = '2.5' is not a valid int"),
        # a parameter the channel kind does not take, swept or fixed
        ("sweep = ns", "sweep = g", "thermal sweeps take ns, eta, nb, not g"),
        ("nb = 0.2", "nbar = 0.2", "thermal sweeps take ns, eta, nb, not nbar"),
        ("channel = thermal\neta = 0.9\nnb = 0.2", "channel = additive\nnbar = 0.5\nnb = 0.2",
         "additive sweeps take ns, nbar, not nb"),
        ("eta = 0.9", "eta = 0.9\neta = 0.5", "repeated spec key 'eta'"),
        ("scale = linear", "scale = cubic", "scale must be linear or log"),
        ("channel = thermal", "channel thermal", "bad config line: 'channel thermal'"),
    ])
    def test_spec_error_names_its_key(self, tmp_path, capsys, old, new, message):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT.replace(old, new))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_log_scale_needs_positive_start(self):
        text = SPEC_TWO_POINT.replace("scale = linear", "scale = log") \
                             .replace("start = 1", "start = 0")
        with pytest.raises(ValueError):
            cli.parse_spec(text)

    def test_threads_env_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT)
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3


# one feasible point per channel kind for the dispatch matrix
MATRIX_NS = 2.0
MATRIX_ARGS = {
    "thermal": ["--eta", "0.9", "--nb", "0.1"],
    "amplifier": ["--g", "1.5", "--nb", "0.1"],
    "additive": ["--nbar", "0.3"],
}
MATRIX_CHANNELS = {
    "thermal": chn.thermal(0.9, 0.1),
    "amplifier": chn.amplifier(1.5, 0.1),
    "additive": chn.additive_noise(0.3),
}
SUPPORTED = {
    "QL": ("thermal", "amplifier"),
    "QU1": ("thermal", "amplifier", "additive"),
    "QU2": ("thermal", "amplifier"),
    "QU3": ("thermal", "amplifier"),
    "QU4": ("thermal", "additive"),
    "PU1": ("thermal", "amplifier", "additive"),
    "PU2": ("thermal", "amplifier"),
    "PU3": ("thermal", "amplifier"),
    "PL": ("thermal",),
    "PLOB": ("thermal", "amplifier", "additive"),
    "RMG": ("thermal",),
}
PLOB_NAMES = {"thermal": "PLOB_thermal", "amplifier": "PLOB_amp",
              "additive": "PLOB_addnoise"}


def library_bits(kind, ch, ns):
    """(value, raw) of `kind` from the public library functions."""
    if kind == "QL":
        if ch.kind == "thermal":
            r = bnd.q_lower_thermal(ch.params["eta"], ch.params["nb"], ns)
        else:
            r = bnd.q_lower_amp(ch.params["g"], ch.params["nb"], ns)
    elif kind in ("QU1", "QU4"):
        r = {"QU1": bnd.q_u1, "QU4": bnd.q_u4}[kind](ch, ns)
    elif kind in ("QU2", "QU3"):
        r = {"QU2": bnd.q_u2, "QU3": bnd.q_u3}[kind](ch, ns)
    elif kind.startswith("PU"):
        r = bnd.p_bounds(ch, ns, kind)
    elif kind == "PL":
        r = bnd.p_lower_displaced(ch.params["eta"], ch.params["nb"], ns)
    else:
        which = PLOB_NAMES[ch.kind] if kind == "PLOB" else kind
        v = bnd.comparison_bounds(ch, which)
        return v, v
    return r.value, r.raw


class TestDispatchMatrix:
    @pytest.mark.parametrize("channel", sorted(MATRIX_ARGS))
    @pytest.mark.parametrize("kind", sorted(SUPPORTED))
    def test_kind_on_channel(self, capsys, kind, channel):
        code, out, err = run_cli(capsys, "bound", "--channel", channel,
                                 *MATRIX_ARGS[channel], "--ns", str(MATRIX_NS),
                                 "--bound", kind)
        ch = MATRIX_CHANNELS[channel]
        if channel in SUPPORTED[kind]:
            assert code == 0
            rec = json.loads(out)
            assert rec["kind"] == kind
            assert (rec["value_bits"], rec["raw_bits"]) == library_bits(kind, ch, MATRIX_NS)
        else:
            assert code == 1
            assert out == ""
            with pytest.raises(ChannelKindError) as exc:
                bnd.evaluate(kind, ch, MATRIX_NS)
            assert err == f"error: {exc.value}\n"

    def test_bound_kinds_cover_the_matrix(self):
        assert set(cli.BOUND_KINDS) == set(SUPPORTED)

    @pytest.mark.parametrize("kind", list(chn._KINDS))
    def test_channel_lists_are_the_named_kinds(self, kind):
        """`bound --channel` and a sweep spec take every kind of the channel
        table but raw, whose (tau, nu) no bound form reads."""
        def parse():
            return cli.build_parser().parse_args(["bound", "--channel", kind, "--bound", "QL"])

        def spec():
            first = chn._KINDS[kind][1][0]
            return cli.SweepSpec(kind, {first: 0.5}, "ns", 0.1, 1.0, 2, "linear", ("QL",))

        if kind == "raw":
            with pytest.raises(SystemExit):
                parse()
            with pytest.raises(ValueError, match="unknown channel 'raw'"):
                spec()
        else:
            assert parse().channel == spec().channel == kind

    def test_forms_are_the_support_table(self):
        assert {k: set(row.forms) for k, row in bnd.REGISTRY.items()} == \
            {k: set(v) for k, v in SUPPORTED.items()}


class TestBoundArguments:
    def test_rmg_keeps_raw_bits(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--channel", "thermal",
                               "--eta", "0.6", "--nb", "0.5", "--bound", "RMG")
        assert code == 0
        rec = json.loads(out)
        assert rec["value_bits"] == 0.0
        assert rec["raw_bits"] == pytest.approx(np.log2(0.4 / 0.6), abs=1e-12)
        assert bnd.comparison_bounds(chn.thermal(0.6, 0.5), "RMG") == 0.0

    @pytest.mark.parametrize("kind", ["QL", "QU1", "QU4", "PU1", "PL", "PLOB", "RMG"])
    def test_eps_prime_rejected_where_unused(self, capsys, kind):
        code, out, err = run_cli(capsys, "bound", "--channel", "thermal",
                                 "--eta", "0.9", "--nb", "0.1", "--ns", "1",
                                 "--bound", kind, "--eps-prime", "0.5")
        assert code == 1
        assert out == ""
        for taker in ("QU2", "QU3", "PU2", "PU3"):
            assert taker in err

    def test_missing_sweep_parameter_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text(SPEC_TWO_POINT.replace("eta = 0.9\n", ""))
        code, _, err = run_cli(capsys, "sweep", "--spec", str(spec),
                               "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "eta" in err

    def test_infinite_sweep_cell_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "s.cfg"
        spec.write_text("channel = thermal\neta = 0.9\nnb = 0.5\nns = 1\nsweep = eta\n"
                        "start = 0.9\nstop = 1\npoints = 3\nbounds = PLOB,RMG\n")
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert not out.exists()
        assert err.startswith("error: PLOB ") and "eta = 1 " in err and "inf" in err

    def test_unbuildable_row_is_empty(self, tmp_path, capsys):
        # eta = 0 cannot build a thermal channel: every cell of that row is empty
        spec = tmp_path / "s.cfg"
        spec.write_text("channel = thermal\nnb = 0.1\nns = 1\nsweep = eta\n"
                        "start = 0\nstop = 0.9\npoints = 2\nbounds = QL,QU1\n")
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert rows[0][1:] == ["", ""]
        assert all(c != "" for c in rows[1][1:])


class TestSweepChannels:
    @pytest.mark.parametrize("fig", cli.FIGURES)
    def test_one_channel_per_ns_sweep(self, fig, monkeypatch):
        # ns is not a channel parameter: an ns sweep builds one channel, an
        # eta sweep one per grid point
        built = []
        make = chn.make_channel
        monkeypatch.setattr(chn, "make_channel", lambda *a, **kw: built.append(a) or make(*a, **kw))
        spec = cli.load_figure_spec(fig)
        with np.errstate(over="ignore", invalid="ignore"):
            cli.run_sweep(spec)
        assert len(built) == (1 if spec.sweep == "ns" else spec.points)
        assert len(built) == {"5a": 37, "5b": 37}.get(fig, 1)

    def test_unbuildable_ns_sweep_is_empty(self):
        # eta = 0 builds no thermal channel, so no row of the ns sweep has a cell
        spec = cli.parse_spec("channel = thermal\neta = 0\nnb = 0.1\nsweep = ns\nstart = 0.1\n"
                              "stop = 2\npoints = 4\nbounds = QL,QU2\n")
        rows = cli.run_sweep(spec)
        assert [v for v, _ in rows] == [float(v) for v in spec.grid()]
        assert all(cells == [None, None] for _, cells in rows)

class TestSweepColumns:
    SPEC = ("channel = thermal\nnb = 1\nns = 2\nsweep = eta\nstart = 0.3\nstop = 0.95\n"
            "points = 14\nbounds = QL,QU1,QU2,QU3,QU4,RMG,PL\n")

    def test_columns_equal_the_per_cell_loop(self):
        # each column mixes infeasible cells (eta < 1/2, eta <= (1-eta) nb),
        # closed forms and optimized cells
        spec = cli.parse_spec(self.SPEC)
        rows = []
        for eta in map(float, spec.grid()):
            ch = chn.thermal(eta, 1.0)
            cells = []
            for kind in spec.bounds:
                try:
                    cells.append(bnd.evaluate(kind, ch, 2.0).value)
                except BosonicBoundsError:
                    cells.append(None)
            rows.append((eta, cells))
        assert any(c is None for _, r in rows for c in r)
        assert all(r[2] is not None for eta, r in rows if eta >= 0.5)
        assert cli.format_csv(spec, cli.run_sweep(spec)) == cli.format_csv(spec, rows)

    def test_column_returns_errors_in_place(self):
        chans = [chn.thermal(0.4, 1.0), chn.thermal(0.9, 1.0), chn.amplifier(1.5, 0.1)]
        column = bnd.evaluate_column("QU2", chans, [2.0, 2.0, -1.0])
        assert [type(c).__name__ for c in column] == \
            ["InfeasibleBoundError", "BoundResult", "DomainError"]
        assert column[1] == bnd.q_u2(chans[1], 2.0)
        assert bnd.evaluate_column("PL", [], []) == []
