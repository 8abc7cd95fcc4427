import json
import math
import xml.etree.ElementTree as ET

import pytest

from ladylake import cli
from ladylake.model import DomainError, GameParams, PolarState
from ladylake.sim import simulate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_focal_tributary_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mu", "0.3", "--r", "0.05", "--theta", "2.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["region"] == "FocalTributary"
        assert doc["value_kind"] == "TimeToE"
        assert doc["entry"]["s"] == pytest.approx(0.12159414598912888, abs=1e-9)
        assert doc["entry"]["case"] == "Two"
        assert doc["value"] == pytest.approx(1.4958944900512612, abs=1e-9)

    def test_antipodal_snap(self, capsys):
        # E is one point: pi to eight decimals is a focal tributary next to it.
        code, out, _ = run(
            capsys, "solve", "--mu", "0.3", "--r", "0.3", "--theta", "3.14159265"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["region"] == "FocalTributary"
        assert 0.0 < doc["value"] <= 4.0 * (math.pi - 3.14159265) ** (1 / 3)

    def test_universal_tributary(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mu", "0.3", "--r", "0.15", "--theta", "0.3"
        )
        doc = json.loads(out)
        assert doc["region"] == "UniversalTributary"
        assert doc["omega_arbitrary"] is True
        assert doc["value"] == pytest.approx(math.pi / 2 + 0.5)

    def test_negative_theta_canonicalized(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mu", "0.3", "--r", "0.15", "--theta", "-0.3"
        )
        assert code == 0
        assert json.loads(out)["region"] == "UniversalTributary"

    @pytest.mark.parametrize("theta", ["3.14159", "3.141592653589793"])
    def test_negative_exponent_is_a_number(self, capsys, theta):
        # argparse's own negative-number pattern has no exponent, so it read
        # -1e-3 as an option and exited 2.  On the focal line the rate sets
        # the heading, so the value read shows in the JSON.
        argv = ("solve", "--mu", "0.3", "--r", "0.15", "--theta", theta)
        code, out, _ = run(capsys, *argv, "--omega-now", "-1e-3")
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--omega-now=-1e-3")[:2]
        assert out == run(capsys, *argv, "--omega-now", "-0.001")[1]
        if theta == "3.141592653589793":
            assert json.loads(out)["sin_psi"] == pytest.approx(-1e-3 * 0.15 / 0.3)

    def test_origin_exit_0(self, capsys):
        code, out, _ = run(capsys, "solve", "--mu", "0.3", "--r", "0", "--theta", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["region"] == "FocalLine"
        assert doc["value"] == pytest.approx(math.pi / 2)

    def test_bad_mu_exit_2(self, capsys):
        code, _, err = run(
            capsys, "solve", "--mu", "1.3", "--r", "0.5", "--theta", "1.0"
        )
        assert code == 2
        assert "error" in err


class TestCriticalMu:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "critical-mu")
        assert code == 0
        assert json.loads(out)["critical_mu"] == pytest.approx(0.21723, abs=1e-5)


class TestSimulate:
    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--mu", "0.3", "--r0", "0.15", "--theta0", "0.3",
            "--dt", "1e-3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,r,theta,x_L,y_L,x_M,y_M,cos_psi,sin_psi,omega"
        events = [ln for ln in lines if ln.startswith("# event,")]
        assert any("reached_e" in ln for ln in events)
        # Data rows parse back at full precision (12 significant digits).
        row = lines[1].split(",")
        assert len(row) == 10
        assert float(row[0]) == 0.0
        assert float(row[1]) == pytest.approx(0.15, abs=1e-11)

    def test_csv_file_and_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "run.csv"
        svg_path = tmp_path / "run.svg"
        code, _, _ = run(
            capsys,
            "simulate", "--mu", "0.3", "--r0", "0.2", "--theta0", "1.0",
            "--dt", "1e-3", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        tags = [el.tag.split("}")[-1] for el in root.iter()]
        assert tags.count("polyline") == 2  # lady and man paths
        assert tags.count("circle") == 3  # lake rim plus two start markers

    def test_strategy_parsing(self):
        spec = cli.parse_strategy("man", "constant:0.5")
        assert spec.kind == "constant_omega" and spec.value == 0.5
        spec = cli.parse_strategy("lady", "fixed:1,0")
        assert spec.heading == (1.0, 0.0)
        spec = cli.parse_strategy("lady", "perturbed:0.05")
        assert spec.delta_psi == 0.05
        with pytest.raises(DomainError):
            cli.parse_strategy("man", "quantum:1")
        with pytest.raises(DomainError):
            cli.parse_strategy("man", "constant:fast")

    def test_unwritable_path_exit_3(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--mu", "0.3", "--r0", "0.2", "--theta0", "1.0",
            "--dt", "1e-2", "--out", "/nonexistent-dir/run.csv",
        )
        assert code == 3
        assert "cannot write" in err


def mirrored_run():
    # A deviating lady against a switching man: RK4 records, mirrored ones included.
    traj = simulate(PolarState(0.1, 0.05), cli.parse_strategy("lady", "fixed:0.6,-0.8"),
                    cli.parse_strategy("man", "switching:0.3"), dt=1e-3, t_max=1.0,
                    params=GameParams(0.4))
    assert 0 < sum(traj.mirror) < len(traj.mirror)
    return traj


class TestWriters:
    EDGE_ROWS = [
        (-0.0, 0.0, math.inf, -math.inf, math.nan, 7, -1, 2**53, 5e-324, 1.0),
        (1e300, -1e-300, 0.1, 1 / 3, -2.5, 123456789012345, 1e16, 1e-5, 1e21, -1e22),
    ]

    def test_rows_and_points_match_per_number_format(self):
        traj = mirrored_run()
        rows = [
            (t, r, th, *cart, c, s, w) for t, r, th, cart, c, s, w in zip(
                traj.t, traj.r, traj.theta, traj.cartesian(), traj.cos_psi, traj.sin_psi, traj.omega)
        ] + self.EDGE_ROWS
        for row in rows:
            assert cli._TRAJECTORY_ROW % row == ",".join(cli._fmt(v) for v in row) + "\n"
            for point in zip(row[::2], row[1::2]):
                assert cli._POINT % point == ",".join(cli._fmt(v) for v in point)

    def test_trajectory_csv_matches_per_number_format(self):
        traj = mirrored_run()
        lines = ["t,r,theta,x_L,y_L,x_M,y_M,cos_psi,sin_psi,omega"]
        for k, cart in enumerate(traj.cartesian()):
            row = (traj.t[k], traj.r[k], traj.theta[k], *cart,
                   traj.cos_psi[k], traj.sin_psi[k], traj.omega[k])
            lines.append(",".join(cli._fmt(v) for v in row))
        lines += [f"# event,{cli._fmt(t)},{kind}" for t, kind in traj.events]
        assert cli._trajectory_csv(traj, traj.cartesian()) == "\n".join(lines) + "\n"


class TestFlowfield:
    def test_svg_structure(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        code, _, _ = run(
            capsys, "flowfield", "--mu", "0.3", "--game", "time",
            "--out", str(path),
        )
        assert code == 0
        root = ET.fromstring(path.read_text())
        classes = [
            el.get("class")
            for el in root.iter()
            if el.tag.endswith("polyline")
        ]
        assert classes.count("FocalTributary") == 20
        assert classes.count("UniversalTributary") == 10
        for cls in ("barrier", "focal-line", "universal-line", "partition"):
            assert classes.count(cls) == 1

    def test_barrier_endpoint_in_svg(self, capsys, tmp_path):
        path = tmp_path / "field.svg"
        run(capsys, "flowfield", "--mu", "0.3", "--out", str(path))
        root = ET.fromstring(path.read_text())
        barrier = next(
            el for el in root.iter()
            if el.tag.endswith("polyline") and el.get("class") == "barrier"
        )
        last = barrier.get("points").split()[-1]
        x, y = (float(v) for v in last.split(","))
        r, theta = cli.px_to_polar(x, y)
        assert r == pytest.approx(1.0, abs=1e-9)
        assert theta == pytest.approx(1.2279, abs=1e-3)

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _, _ = run(
            capsys, "flowfield", "--mu", "0.3", "--game", "classical",
            "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "trajectory,kind,r,theta"
        assert all(len(ln.split(",")) == 4 for ln in lines[1:])

    @pytest.mark.parametrize(
        "extra",
        [
            ("--samples", "1"),
            ("--game", "classical", "--samples", "1"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--s-grid", "1"),
            ("--game", "classical", "--s-grid", "1"),
            ("--ul-grid", "-1"),
        ],
    )
    def test_degenerate_sizes_exit_2(self, capsys, tmp_path, extra):
        path = tmp_path / "field.csv"
        code, _, err = run(
            capsys, "flowfield", "--mu", "0.3", "--out", str(path), *extra
        )
        assert code == 2
        assert err.startswith("error:")
        assert not path.exists()

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "flowfield", "--mu", "0.3", "--out", str(a))
        run(capsys, "flowfield", "--mu", "0.3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestPixelTransforms:
    def test_polar_round_trip(self):
        for r, theta in ((0.0, 0.0), (0.5, 1.5), (1.0, math.pi)):
            x, y = cli.polar_to_px(r, theta)
            rr, tt = cli.px_to_polar(x, y)
            assert rr == pytest.approx(r, abs=1e-12)
            assert tt == pytest.approx(theta, abs=1e-12)

    def test_cart_round_trip(self):
        x, y = cli.cart_to_px(-0.3, 0.7)
        xx, yy = cli.px_to_cart(x, y)
        assert xx == pytest.approx(-0.3, abs=1e-12)
        assert yy == pytest.approx(0.7, abs=1e-12)


class TestVerify:
    def test_passes_at_reference_mu(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--mu", "0.3", "--grid", "20", "--dt", "2e-3"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["pass"] is True
        assert doc["hji"]["pass"] and doc["barrier"]["pass"] and doc["saddle"]["pass"]
        assert len(doc["saddle"]["starts"]) == 3
        assert all(len(s["rows"]) == 5 for s in doc["saddle"]["starts"])

    @pytest.mark.parametrize("dt", ["0", "-0.001", "nan", "inf"])
    def test_bad_dt_exits_2(self, capsys, dt):
        code, out, err = run(capsys, "verify", "--mu", "0.3", "--grid", "5", "--dt", dt)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--man", "constant:nan"),
        ("simulate", "--man", "switching:nan"),
        ("simulate", "--man", "switching:inf"),
        ("simulate", "--lady", "perturbed:nan"),
        ("simulate", "--lady", "perturbed:inf"),
        ("simulate", "--lady", "fixed:nan,nan"),
        ("solve", "--r", "0.1", "--theta", "3.141592653589793", "--omega-now", "nan"),
        pytest.param(("solve", "--r", "0.9", "--theta", "3.0", "--omega-now", "nan"), id="nan_above_barrier"),
        pytest.param(("solve", "--r", "0.05", "--theta", "2.5", "--omega-now", "7"), id="7_focal_tributary"),
        pytest.param(("solve", "--r", "0.1", "--theta", "0.2", "--omega-now", "inf"), id="inf_universal_tributary"),
    ], ids=lambda argv: argv[-1])
    def test_non_finite_input_exits_2(self, capsys, argv):
        # constant:nan used to play as constant:-1, and --omega-now nan to print
        # "omega": NaN, which is not JSON; both exited 0.  Off the focal line
        # --omega-now was not read, and any value passed.
        cmd, *rest = argv
        start = ("--r0", "0.2", "--theta0", "1.0") if cmd == "simulate" else ()
        code, out, err = run(capsys, cmd, "--mu", "0.3", *start, *rest)
        assert code == 2
        assert out == "" and err.startswith("error:")
