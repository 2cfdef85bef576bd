import json

import numpy as np
import pytest

from sqglab import cli, verify
from sqglab.cli import main, validate_config
from sqglab.errors import ConfigurationError
from sqglab.verify import VerificationReport


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="mystery"):
            validate_config({"command": "verify", "mystery": 1})

    def test_unknown_param_named(self):
        with pytest.raises(ConfigurationError, match="warp"):
            validate_config({"command": "simulate", "params": {"warp": 9}})

    def test_unknown_command(self):
        with pytest.raises(ConfigurationError, match="fly"):
            validate_config({"command": "fly"})

    def test_unknown_command_in_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "fly"}))
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_cli_reports_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "simulate", "params": {"nope": 1}}))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


class TestGlobalState:
    def test_main_leaves_global_rng_alone(self, tmp_path):
        # the library draws from seeded Generators; the global numpy RNG is the caller's
        before = np.random.get_state()
        assert main(["verify", "--out", str(tmp_path), "--seed", "9731"]) == 0
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])


class TestVerifyCommand:
    def test_empty_checks_immediate_success(self, tmp_path):
        rc = main(["verify", "--out", str(tmp_path), "--seed", "1"])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"]["checks"] == []
        assert (tmp_path / "reports.csv").read_text().startswith("check_id")

    def test_block_norm_p_other_than_2_or_inf_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "verify",
                                    "params": {"checks": ["bernstein"], "ps": ["3"]}}))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: block norms are L2 or Linf, not p = 3.0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, check", [("ps", "two", "bernstein"),
                                                   ("betas", "x", "lemma_A_2"),
                                                   ("s_values", "x", "lemma_3_1")])
    def test_non_numeric_list_entry_is_a_config_error(self, tmp_path, capsys, key, value, check):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "verify", "params": {
            "checks": [check], "n_sides": [128], "count": 2, key: [value]}}))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} entries must be numbers, got {value!r}" in err
        # converted before any check runs: no report was written
        assert {p.name for p in (tmp_path / "out").iterdir()} == {"manifest.json"}

    @pytest.mark.parametrize("check", ["fundamental_solution", "bernstein"])
    def test_empty_grid_list_is_a_config_error(self, tmp_path, capsys, check):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": "verify", "params": {
            "checks": [check], "n_sides": [], "count": 2}}))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: n_sides is empty" in capsys.readouterr().err
        assert {p.name for p in (tmp_path / "out").iterdir()} == {"manifest.json"}

    def test_bernstein_single_grid(self, tmp_path):
        rc = main(["verify", "--check", "bernstein", "--n", "128",
                   "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        rows = (tmp_path / "reports.csv").read_text().splitlines()
        assert len(rows) > 10


def _record_verify_boxes(monkeypatch) -> dict:
    """Replace the verify checks with stubs recording the box each receives."""
    boxes = {}

    def stub(name, params, ensemble, n_sides):
        boxes[name] = params.get("box_length")
        return VerificationReport(check_id=name)

    for check in ("check_multiplier_bounds", "check_commutators", "check_velocity_regularity"):
        monkeypatch.setattr(verify, check, stub)

    def fundamental(beta, grid):
        boxes["fundamental_solution"] = grid.box_length
        return VerificationReport(check_id="fundamental_solution")

    monkeypatch.setattr(verify, "verify_fundamental_solution", fundamental)
    return boxes


class TestVerifyBoxLength:
    CHECKS = ["bernstein", "kato_ponce", "lemma_A_3", "lemma_3_3", "embedding",
              "fundamental_solution"]

    def _run(self, monkeypatch, tmp_path, params):
        boxes = _record_verify_boxes(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "verify",
                                   "params": {"checks": self.CHECKS, **params}}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        return boxes, json.loads((tmp_path / "manifest.json").read_text())["params"]

    def test_given_box_reaches_every_check(self, monkeypatch, tmp_path):
        boxes, manifest = self._run(monkeypatch, tmp_path, {"box_length": 16.0})
        assert boxes == dict.fromkeys(self.CHECKS, 16.0)
        assert boxes["lemma_A_3"] == 16.0  # check_velocity_regularity got it
        assert manifest["box_length"] == 16.0

    def test_box_length_flag_reaches_every_check(self, monkeypatch, tmp_path):
        boxes = _record_verify_boxes(monkeypatch)
        checks = [arg for name in self.CHECKS for arg in ("--check", name)]
        assert main(["verify", *checks, "--box-length", "16", "--out", str(tmp_path)]) == 0
        assert boxes == dict.fromkeys(self.CHECKS, 16.0)
        assert json.loads((tmp_path / "manifest.json").read_text())["params"]["box_length"] == 16.0

    def test_default_leaves_each_check_its_own_box(self, monkeypatch, tmp_path):
        boxes, manifest = self._run(monkeypatch, tmp_path, {})
        assert boxes == {**dict.fromkeys(self.CHECKS[:-1]),
                         "fundamental_solution": 16.0 * np.pi}
        assert manifest["box_length"] is None


class TestVerifyOrder:
    """Each check runs at its own s unless the config names one."""

    # the library's defaults: check_commutators 2.5, check_velocity_regularity 1.2
    CHECKS = {"kato_ponce": 2.5, "embedding": 1.2, "lemma_3_2": 1.2, "lemma_3_3": 1.2}

    def _orders(self, monkeypatch, tmp_path, *flags) -> tuple[dict, dict]:
        reports = []

        def recording(*args):
            reports.append(verify.run_check(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "run_check", recording)
        checks = [arg for name in self.CHECKS for arg in ("--check", name)]
        assert main(["verify", *checks, "--n", "128", "--count", "2", *flags,
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())["params"]
        return {rep.check_id.split(":")[1]: rep.parameters["s"] for rep in reports}, manifest

    def test_default_leaves_each_check_its_own_order(self, monkeypatch, tmp_path):
        # every check ran at s = 2.5, the Kato-Ponce order: embedding compared
        # C^1 with H^3.5_ul and failed on stability
        orders, manifest = self._orders(monkeypatch, tmp_path)
        assert orders == self.CHECKS
        assert manifest["s"] is None

    def test_given_order_reaches_every_check(self, monkeypatch, tmp_path):
        orders, manifest = self._orders(monkeypatch, tmp_path, "--s", "1.7")
        assert orders == dict.fromkeys(self.CHECKS, 1.7)
        assert manifest["s"] == 1.7


class TestSimulateCommand:
    def test_radial_run_small(self, tmp_path):
        rc = main(["simulate", "--ic", "radial", "--n-side", "128", "--dt", "0.005",
                   "--t-end", "0.05", "--c-existence", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "theta_final.fld").exists()
        norms = (tmp_path / "norms.csv").read_text().splitlines()
        assert norms[0] == "t,kind,value"
        assert len(norms) > 2

    def test_checkpoints_at_cadence(self, tmp_path):
        rc = main(["simulate", "--ic", "single_mode", "--n-side", "64", "--dt", "0.01",
                   "--t-end", "0.04", "--c-existence", "0", "--sample-every", "2",
                   "--checkpoints", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "theta_0000.fld").exists()
        assert (tmp_path / "theta_0002.fld").exists()

    @pytest.mark.parametrize("flag, config", [(["--sample-every", "-1"], None),
                                              ([], {"sample_every": 2.5})])
    def test_bad_sample_every_is_a_config_error(self, tmp_path, capsys, flag, config):
        args = ["simulate", "--ic", "single_mode", "--n-side", "64", "--dt", "0.01",
                "--t-end", "0.04", "--c-existence", "0", *flag, "--out", str(tmp_path)]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"command": "simulate", "params": config}))
            args += ["--config", str(path)]
        assert main(args) == 2
        bad = flag[-1] if flag else config["sample_every"]
        assert f"sample_every must be an integer >= 0, got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "norms.csv").exists()

    @pytest.mark.parametrize("flag, config, named", [
        (["--record", "linf:thetaa"], None, "linf:thetaa"),  # recorded u's sup norm
        (["--record", "cr:theta"], None, "cr:theta"),  # ended in an IndexError
        ([], {"record_norms": "linf:theta"}, "linf:theta"),  # a string, not a list
    ])
    def test_malformed_norm_descriptor_is_a_config_error(self, tmp_path, capsys, flag,
                                                         config, named):
        args = ["simulate", "--n-side", "32", "--dt", "0.01", "--t-end", "0.02", *flag,
                "--out", str(tmp_path)]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"command": "simulate", "params": config}))
            args += ["--config", str(path)]
        assert main(args) == 2
        assert repr(named) in capsys.readouterr().err
        assert not (tmp_path / "norms.csv").exists()

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        rc = main(["simulate", "--ic", "single_mode", "--n-side", "64", "--dt", "0.01",
                   "--t-end", "0.05", "--c-existence", "0", "--out", str(out1),
                   "--seed", "11"])
        assert rc == 0
        rc = main(["simulate", "--config", str(out1 / "manifest.json"),
                   "--out", str(out2)])
        assert rc == 0
        for name in ("norms.csv", "theta_final.fld", "u_final.fld", "diagnostics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestIntegerParameters:
    """A config's sizes and counts are integers: a float is a config error, not
    truncated into a run at another size."""

    @pytest.mark.parametrize("command, params, name", [
        ("simulate", {"n_side": 64.9}, "n_side"),
        ("simulate", {"n_side": 64.0}, "n_side"),
        ("norms", {"n_side": 64.9}, "n_side"),
        ("kernels", {"n_side": 128.5, "fundamental": False}, "n_side"),
        ("iterate", {"n_side": 64.9}, "n_side"),
        ("iterate", {"t_end": 0.04, "dt": 0.01, "n_max": 3.5}, "n_max"),
        ("verify", {"checks": ["bernstein"], "n_sides": [64.9]}, "n_side"),
        ("verify", {"checks": ["bernstein"], "count": 16.5}, "count"),
    ])
    def test_non_integer_is_a_config_error(self, tmp_path, capsys, command, params, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"command": command, "params": params}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"{name} must be an integer >= " in err
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert written == {"manifest.json"}


class TestSeed:
    """A seed is an integer >= 0: 7.9 is a config error, not a run with seed 7."""

    @pytest.mark.parametrize("flag, config", [(["--seed", "-1"], None),
                                              ([], {"seed": 7.9}),
                                              ([], {"seed": -1})])
    def test_bad_seed_is_a_config_error(self, tmp_path, capsys, flag, config):
        args = ["norms", "--n-side", "64", *flag, "--out", str(tmp_path / "out")]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"command": "norms", **config}))
            args += ["--config", str(path)]
        assert main(args) == 2
        bad = flag[-1] if flag else config["seed"]
        err = capsys.readouterr().err
        assert f"config error: seed must be an integer >= 0, got {bad}" in err
        assert not (tmp_path / "out").exists()


class TestOtherCommands:
    def test_norms_battery(self, tmp_path):
        rc = main(["norms", "--ic", "random", "--n-side", "64", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "norms.csv").read_text()
        assert "zygmund" in text and "sobolev" in text and "Hs_ul" in text

    def test_kernels_command(self, tmp_path):
        rc = main(["kernels", "--beta", "0.5", "--n-side", "128", "--box-length", "16",
                   "--no-fundamental", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "near.fld").exists()
        report = (tmp_path / "kernel_report.csv").read_text()
        assert "c_beta" in report and "far_decay_exponent" in report

    def test_iterate_command(self, tmp_path):
        rc = main(["iterate", "--n-side", "128", "--box-length", "16", "--t-end", "0.04",
                   "--dt", "0.01", "--n-max", "3", "--out", str(tmp_path)])
        assert rc == 0
        dec = (tmp_path / "decrements.csv").read_text().splitlines()
        assert dec[0] == "n,t,D_n"
        assert len(dec) > 3

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "envout"))
        rc = main(["verify", "--seed", "2"])
        assert rc == 0
        assert (tmp_path / "envout" / "manifest.json").exists()
