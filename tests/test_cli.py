"""End-to-end tests of the command-line front end: exit codes, CSV shape
and determinism, manifests, and the documented error mapping."""

import json
import re
import shlex
from pathlib import Path

import pytest

from subspectral import __version__
from subspectral.cli import main

RUNNING = '{"alphabet": 2, "images": ["1222", "1"]}'
SYMMETRIC = '{"alphabet": 2, "images": ["1112", "1222"]}'
FIBONACCI = '{"alphabet": 2, "images": ["12", "1"]}'


@pytest.fixture()
def cfg(tmp_path):
    def write(text, name="config.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def read_csv(path):
    text = Path(path).read_bytes().decode("utf-8")
    assert text.endswith("\r\n")
    lines = text.split("\r\n")[:-1]
    return [line.split(",") for line in lines]


class TestFlagScope:
    """Each flag is registered only on the command that reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect", "--config", "{cfg}"],
            ["spectral", "--config", "{cfg}", "--omega-grid", "0"],
            ["flow", "log-holder", "--config", "{cfg}"],
            ["dioph", "sequence", "--poly", "1,-1,-3"],
            ["bernoulli", "nondecay", "--poly", "1,-1,-1"],
        ],
        ids=["inspect", "spectral", "flow", "dioph", "bernoulli"],
    )
    def test_unread_flags_are_refused(self, cfg, capsys, argv):
        path = cfg(RUNNING)
        argv = [path if a == "{cfg}" else a for a in argv]
        read = {"spectral": {"--threads"}, "dioph": {"--seed", "--diagnostic"}}
        for flag, value in (("--threads", "2"), ("--seed", "1"), ("--diagnostic", None)):
            if flag in read.get(argv[0], ()):
                continue
            extra = [flag] if value is None else [flag, value]
            assert main(argv + extra) == 4
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_manifests_hold_only_read_flags(self, cfg, tmp_path):
        runs = {
            "inspect": ["inspect", "--config", cfg(RUNNING)],
            "spectral": ["spectral", "--config", cfg(RUNNING), "--omega-grid", "0",
                         "--n", "3"],
            "dioph": ["dioph", "sequence", "--poly", "1,-1,-3", "--N", "5"],
        }
        keys = {}
        for name, argv in runs.items():
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            keys[name] = {"threads", "seed", "diagnostic"} & set(manifest["parameters"])
        assert keys == {
            "inspect": set(),
            "spectral": {"threads"},
            "dioph": {"seed", "diagnostic"},
        }


class TestInspect:
    def test_running_example(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["inspect", "--config", cfg(RUNNING), "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[[1, 1], [3, 0]]" in text
        assert "2.302776" in text
        assert "HasConjugateOutside" in text
        report = json.loads((out / "inspect.json").read_text())
        assert report["matrix"] == [[1, 1], [3, 0]]
        assert report["classification"] == "HasConjugateOutside"
        assert report["theta_min_poly_descending"] == [1, -1, -3]
        assert report["return_word"]["power"] == 3
        assert report["aperiodicity"]["kind"] == "Aperiodic"

    def test_fibonacci_is_pv(self, cfg, capsys):
        assert main(["inspect", "--config", cfg(FIBONACCI)]) == 0
        assert "PV" in capsys.readouterr().out

    def test_malformed_json(self, cfg, capsys):
        path = cfg('{"alphabet": 2, "images": ["12" "1"]}')
        assert main(["inspect", "--config", path]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_float_letter_is_a_config_error(self, cfg, capsys):
        path = cfg('{"alphabet": 2, "images": [[1.9, 2, 2, 2], [1]]}')
        assert main(["inspect", "--config", path]) == 4
        assert "invalid image word" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["inspect", "--config", str(tmp_path / "nope.json")]) == 4

    def test_usage_error_maps_to_config_exit(self, capsys):
        assert main(["no-such-command"]) == 4
        assert main(["inspect"]) == 4  # missing --config

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0


class TestSpectral:
    def test_small_grid(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "spectral", "--config", cfg(RUNNING),
            "--omega-grid", "linspace:0:1:20", "--n", "6",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "spectral.csv")
        assert rows[0][:5] == ["omega", "n", "status", "product", "product_exact"]
        assert len(rows) == 21
        # omega = 0: every distance vanishes, the product is exactly one
        assert rows[1][0] == "0" and rows[1][3] == "1.0" and rows[1][4] == "1"
        assert all(row[2] == "ok" for row in rows[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["c1"] == "1/76"
        assert manifest["library_version"] == __version__
        assert len(manifest["config_hash"]) == 64
        assert "wall_time_s" in manifest

    def test_empty_grid_header_only(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "spectral", "--config", cfg(RUNNING),
            "--omega-grid", "", "--n", "5", "--out", str(out),
        ])
        assert code == 0
        assert len(read_csv(out / "spectral.csv")) == 1

    def test_deterministic_across_threads(self, cfg, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / name
            assert main([
                "spectral", "--config", cfg(RUNNING),
                "--omega-grid", "linspace:0:1:16", "--n", "5",
                "--threads", threads, "--out", str(out),
            ]) == 0
            outs.append((out / "spectral.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_no_worker_sets_the_global_precision(self, cfg, tmp_path, monkeypatch):
        # mpmath's working precision is process-global; with cold memos the
        # only row step that sets it (theta's perron_data) runs before the pool
        import threading

        import mpmath

        from subspectral import riesz, spectral, substitution

        ctx = type(mpmath.mp)
        setters = []

        def spy(prop):
            def setter(self, value):
                setters.append(threading.current_thread())
                prop.fset(self, value)

            return property(prop.fget, setter)

        monkeypatch.setattr(ctx, "prec", spy(ctx.prec))
        monkeypatch.setattr(ctx, "dps", spy(ctx.dps))
        outs = []
        for threads in ("1", "2", "4"):
            spectral._perron_theta.cache_clear()
            substitution._count_power.cache_clear()
            substitution._fixed_point.cache_clear()
            for memo in ("_error_units", "_level_structure", "_transfer_matrix",
                         "_prefix_product"):
                getattr(riesz, memo).cache_clear()
            setters.clear()
            out = tmp_path / threads
            assert main([
                "spectral", "--config", cfg(RUNNING),
                "--omega-grid", "linspace:0:1:24", "--n", "5",
                "--threads", threads, "--out", str(out),
            ]) == 0
            outs.append((out / "spectral.csv").read_bytes())
            assert setters  # the spy sees the main thread's settings
            assert set(setters) == {threading.main_thread()}
        assert outs[0] == outs[1] == outs[2]

    def test_precision_bits_reach_the_product_norms(self, cfg, tmp_path, monkeypatch):
        import subspectral.cli as cli_module

        real = cli_module.local_dimension_bound
        reports = {}

        def spy(*args, **kwargs):
            rep = real(*args, **kwargs)
            reports[kwargs["precision_bits"], rep.omega] = rep
            return rep

        monkeypatch.setattr(cli_module, "local_dimension_bound", spy)
        alphas = {}
        for bits in (None, 400):
            out = tmp_path / str(bits)
            flag = [] if bits is None else ["--precision-bits", str(bits)]
            assert main([
                "spectral", "--config", cfg(RUNNING),
                "--omega-grid", "linspace:0:1:12", "--n", "6", "--out", str(out),
            ] + flag) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["precision_bits"] == (bits or 106)
            header, *rows = read_csv(out / "spectral.csv")
            col = header.index("localdim_rate")
            alphas[bits or 106] = [float(row[col]) for row in rows]
        assert sorted({b for b, _ in reports}) == [106, 400]
        assert len(reports) == 2 * 12
        # the rate at 400 bits lies inside the interval the 106-bit norms
        # and their error bounds allow, up to the rounding of the powers
        oms = sorted({om for _, om in reports})
        for om, a106, a400 in zip(oms, alphas[106], alphas[400]):
            rep = reports[106, om]
            assert a106 == rep.alpha and a400 == reports[400, om].alpha
            if rep.exact_peak:  # integer omega: the exact count rate
                assert a400 == a106
                continue
            tail = range(rep.tail_start, rep.n_max + 1)
            norms, errs = rep.norms, rep.norm_errors
            lo = max(max(norms[n - 1] - errs[n - 1], 0.0) ** (1 / n) for n in tail)
            hi = max((norms[n - 1] + errs[n - 1]) ** (1 / n) for n in tail)
            assert lo * (1 - 2**-50) <= a400 <= hi * (1 + 2**-50)

    def test_precision_bits_below_two_rejected(self, cfg):
        assert main([
            "spectral", "--config", cfg(RUNNING), "--omega-grid", "1/3",
            "--n", "5", "--precision-bits", "1",
        ]) == 4

    def test_bad_grid_spec(self, cfg):
        assert main([
            "spectral", "--config", cfg(RUNNING),
            "--omega-grid", "linspace:0:1", "--n", "5",
        ]) == 4


class TestFlow:
    def test_log_holder_table(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "flow", "log-holder", "--config", cfg(RUNNING),
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "flow_log_holder.csv")
        assert rows[0] == ["omega", "r", "bound", "fejer_direct", "in_regime"]
        assert len(rows) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        consts = manifest["derived_constants"]
        assert consts["gamma"] == pytest.approx(0.0002582697889167496)
        assert consts["c1"] == "1/76"
        assert consts["zeta_power"] == 3

    def test_log_holder_wrong_class(self, cfg, capsys):
        assert main(["flow", "log-holder", "--config", cfg(FIBONACCI)]) == 2
        assert "hypothesis violated" in capsys.readouterr().err

    def test_cocycle_zero_row(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "flow", "cocycle", "--config", cfg(SYMMETRIC),
            "--t", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "flow_cocycle.csv")
        assert rows[1] == ["0", "0.0", "0.0", "0.0", "true", "0"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["theta2"] == "2"

    def test_cocycle_multiple_times(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main([
            "flow", "cocycle", "--config", cfg(SYMMETRIC),
            "--t", "0,1/2,7", "--out", str(out),
        ]) == 0
        assert len(read_csv(out / "flow_cocycle.csv")) == 4

    def test_zero_scaling_table(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "flow", "zero-scaling", "--config", cfg(SYMMETRIC),
            "--n-range", "3:5", "--anchors", "16", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "flow_zero_scaling.csv")
        assert rows[0] == ["N", "T", "value", "ratio"]
        assert len(rows) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "spread" in manifest["derived_constants"]

    def test_zero_scaling_not_mean_zero(self, cfg):
        assert main([
            "flow", "zero-scaling", "--config", cfg(SYMMETRIC),
            "--d", "1,1", "--n-range", "3:4",
        ]) == 2

    def test_decomposition_exponent_below_half(self, cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "flow", "decomposition", "--config", cfg(SYMMETRIC),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["max_exponent"] < 0.5
        assert manifest["derived_constants"]["alpha"] == 0.5


class TestDioph:
    def test_sequence_single_row(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "dioph", "sequence", "--poly", "1,-1,-3", "--t", "1",
            "--N", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "dioph_sequence.csv")
        assert len(rows) == 2
        assert rows[1][0] == "0" and rows[1][1] == "1" and rows[1][2] == "0.0"

    def test_windows_all_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "dioph", "windows", "--poly", "1,-1,-3", "--t", "1",
            "--N", "30", "--out", str(out),
        ])
        assert code == 0
        assert "all-pass" in capsys.readouterr().out
        rows = read_csv(out / "dioph_windows.csv")
        assert all(row[3] == "true" for row in rows[1:])
        # window is [k, 8k-1] and the probe stays inside it
        for row in rows[1:]:
            k, lo, hi, probe = int(row[0]), int(row[1]), int(row[2]), int(row[6])
            assert lo == k and hi == 8 * k - 1 and lo <= probe <= hi

    def test_windows_pv_gated(self, capsys, tmp_path):
        assert main([
            "dioph", "windows", "--poly", "1,-1,-1", "--t", "1", "--N", "10",
        ]) == 2
        out = tmp_path / "diag"
        assert main([
            "dioph", "windows", "--poly", "1,-1,-1", "--t", "1", "--N", "10",
            "--diagnostic", "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["hypothesis_violated"] is True

    def test_windows_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "dioph", "windows", "--poly", "1,-1,-3", "--t", "1",
                "--N", "15", "--seed", "7", "--out", str(out),
            ]) == 0
            outs.append((out / "dioph_windows.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_product_report(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "dioph", "product", "--poly", "1,-1,-3", "--t", "1",
            "--N", "80", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["bound_ok"] is True
        rows = read_csv(out / "dioph_product.csv")
        assert len(rows) == 81
        values = [float(row[1]) for row in rows[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_ek_golden_predictions(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "dioph", "ek", "--poly", "1,-1,-1", "--t", "1", "--N", "28",
            "--out", str(out),
        ])
        assert code == 0
        assert "23/23" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        L = manifest["derived_constants"]["L"]
        rows = read_csv(out / "dioph_ek.csv")
        assert len(rows) == 24
        for row in rows[1:]:
            assert row[3] == "true" and row[4] == "true"
            assert int(row[5]) <= L


class TestBernoulli:
    def test_scan_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "bernoulli", "scan", "--poly", "1,-1,-3", "--p", "3/10",
            "--N", "20", "--u-grid", "1,13/10,17/10", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "bernoulli_scan.csv")
        assert rows[0] == ["xi", "re", "im", "modulus", "bound_chain",
                           "scan_value"]
        assert len(rows) == 1 + 3 * 21
        for row in rows[1:]:
            assert float(row[3]) <= float(row[4]) + 1e-10

    def test_nondecay_floor(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "bernoulli", "nondecay", "--poly", "1,-1,-1", "--N", "25",
            "--out", str(out),
        ])
        assert code == 0
        assert "positive=True" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived_constants"]["floor"] == pytest.approx(
            0.00048687414289395637, rel=1e-9
        )
        assert len(read_csv(out / "bernoulli_nondecay.csv")) == 27

    def test_integer_reciprocal_ratio(self, capsys):
        assert main(["bernoulli", "nondecay", "--lambda", "1/2", "--N", "3"]) == 0

    def test_validation_errors(self, capsys):
        assert main([
            "bernoulli", "scan", "--poly", "1,-1,-3", "--p", "2", "--N", "5",
        ]) == 4
        assert main(["bernoulli", "scan", "--p", "1/2", "--N", "5"]) == 4
        assert main([
            "bernoulli", "nondecay", "--lambda", "2/3", "--N", "5",
        ]) == 4

    def test_scan_requires_conjugate_outside(self, capsys):
        assert main([
            "bernoulli", "scan", "--poly", "1,-1,-1", "--p", "1/2", "--N", "5",
        ]) == 2


class TestManifest:
    def test_identical_runs_byte_identical(self, cfg, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "flow", "log-holder", "--config", cfg(RUNNING),
                "--out", str(out),
            ]) == 0
            blobs.append((out / "flow_log_holder.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_carries_no_timing(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert main([
            "flow", "cocycle", "--config", cfg(SYMMETRIC), "--t", "3",
            "--out", str(out),
        ]) == 0
        header = read_csv(out / "flow_cocycle.csv")[0]
        assert not any("time" in cell for cell in header)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0


# ---------------------------------------------------------------------------
# the README's flow examples, run as written

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_flow_examples():
    """Each `subspectral flow` line of the README with the text of the
    config file it names: `sub.json` is the README's JSON block, other files
    are given by a `# name.json: {...}` comment in the command listing."""
    text = README.read_text(encoding="utf-8")
    configs = dict(re.findall(r"here `(\S+\.json)`:\n\n```json\n(.*?)\n```", text))
    configs.update(re.findall(r"^# (\S+\.json): (\{.*\})$", text, re.M))
    examples = []
    for line in text.splitlines():
        if line.startswith("subspectral flow "):
            args = shlex.split(line)[1:]
            examples.append((args, configs.get(args[args.index("--config") + 1])))
    return examples


FLOW_EXAMPLES = readme_flow_examples()


def test_readme_lists_every_flow_command():
    assert sorted(args[1] for args, _ in FLOW_EXAMPLES) == [
        "cocycle", "decomposition", "log-holder", "zero-scaling",
    ]


@pytest.mark.parametrize(
    "args, config", FLOW_EXAMPLES, ids=[args[1] for args, _ in FLOW_EXAMPLES]
)
def test_readme_flow_example_runs(args, config, cfg, tmp_path):
    args = list(args)
    assert config is not None, "the README does not define this config"
    args[args.index("--config") + 1] = cfg(config)
    args[args.index("--out") + 1] = str(tmp_path / "out")
    assert main(args) == 0
