"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

import repro.cli as cli
from repro.cli import main
from tests.helpers import deep_parens_source, deep_sum_source

GOOD = """
field f: Int

method inc(x: Ref) returns (y: Int)
  requires acc(x.f, write)
  ensures acc(x.f, write) && y == x.f
{
  x.f := x.f + 1
  y := x.f
}
"""

BAD = """
field f: Int

method broken(x: Ref)
  requires acc(x.f, write)
  ensures acc(x.f, write) && x.f == 0
{
  x.f := 1
}
"""


@pytest.fixture
def viper_file(tmp_path):
    path = tmp_path / "demo.vpr"
    path.write_text(GOOD)
    return path


class TestTranslate:
    def test_writes_boogie(self, viper_file, tmp_path, capsys):
        out = tmp_path / "demo.bpl"
        assert main(["translate", str(viper_file), "-o", str(out)]) == 0
        assert "procedure m_inc()" in out.read_text()

    def test_prints_without_output(self, viper_file, capsys):
        assert main(["translate", str(viper_file)]) == 0
        assert "readHeap" in capsys.readouterr().out


class TestCertify:
    def test_writes_certificate_and_states_theorem(self, viper_file, tmp_path, capsys):
        cert = tmp_path / "demo.cert"
        assert main(["certify", str(viper_file), "-o", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "THEOREM" in out
        assert cert.read_text().startswith("CERTIFICATE-V1")

    def test_oracle_flag(self, viper_file, capsys):
        assert main(["certify", str(viper_file), "--oracle"]) == 0
        assert "semantic oracle" in capsys.readouterr().out

    def test_option_flags(self, viper_file, capsys):
        assert main(["certify", str(viper_file), "--wd-at-calls", "--no-fastpath"]) == 0


class TestIndependentCheck:
    def test_roundtrip(self, viper_file, tmp_path, capsys):
        bpl = tmp_path / "demo.bpl"
        cert = tmp_path / "demo.cert"
        assert main([
            "certify", str(viper_file), "-o", str(cert), "--boogie-output", str(bpl)
        ]) == 0
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_tampered_boogie_rejected(self, viper_file, tmp_path, capsys):
        bpl = tmp_path / "demo.bpl"
        cert = tmp_path / "demo.cert"
        main(["certify", str(viper_file), "-o", str(cert), "--boogie-output", str(bpl)])
        text = bpl.read_text().replace(
            "readHeap<int>(H, v_x, field_f) + 1", "readHeap<int>(H, v_x, field_f) + 2"
        )
        assert text != bpl.read_text(), "tampering must hit a real command"
        bpl.write_text(text)
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 1
        assert "REJECTED" in capsys.readouterr().err

    @staticmethod
    def _certified(viper_file, tmp_path, capsys):
        bpl = tmp_path / "demo.bpl"
        cert = tmp_path / "demo.cert"
        main(["certify", str(viper_file), "-o", str(cert), "--boogie-output", str(bpl)])
        capsys.readouterr()
        return bpl, cert

    @staticmethod
    def _one_line_diagnostic(capsys):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
        return lines[0]

    def test_malformed_boogie_is_a_located_diagnostic(self, viper_file, tmp_path, capsys):
        bpl, cert = self._certified(viper_file, tmp_path, capsys)
        text = bpl.read_text()
        broken = text.replace("readHeap<int>(H, v_x, field_f) + 1", "readHeap<int>(H, v_x, field_f; + 1")
        assert broken != text
        bpl.write_text(broken)
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 2
        line = self._one_line_diagnostic(capsys)
        row = broken[: broken.index("field_f;")].count("\n") + 1
        assert line.startswith(f"error[reparse]: {bpl}:{row}:")
        assert line.endswith("expected ')', found ';'")

    def test_deeply_nested_axiom_is_a_located_diagnostic(self, viper_file, tmp_path, capsys):
        bpl, cert = self._certified(viper_file, tmp_path, capsys)
        text = bpl.read_text()
        bpl.write_text(text + "axiom " + "(" * 2000 + "true" + ")" * 2000 + ";\n")
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 2
        line = self._one_line_diagnostic(capsys)
        row = text.count("\n") + 1
        assert line.startswith(f"error[reparse]: {bpl}:{row}:")
        assert line.endswith("expression nested too deeply")
        # 150 levels no longer exhaust the parser: the kernel judges the axiom.
        bpl.write_text(text + "axiom " + "(" * 150 + "true" + ")" * 150 + ";\n")
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_axiom_too_deep_for_the_kernel_is_a_depth_diagnostic(
        self, viper_file, tmp_path, capsys
    ):
        """600 chained implications parse at one frame a level, but the
        recursive kernel cannot walk them: LIM001, not a traceback."""
        bpl, cert = self._certified(viper_file, tmp_path, capsys)
        bpl.write_text(bpl.read_text() + "axiom " + "true ==> " * 600 + "true;\n")
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[check] LIM001: ")
        assert "Traceback" not in captured.err

    def test_malformed_certificate_is_a_diagnostic_naming_the_file(
        self, viper_file, tmp_path, capsys
    ):
        bpl, cert = self._certified(viper_file, tmp_path, capsys)
        cert.write_text(cert.read_text().replace("\nmethod ", "\nmethd ", 1))
        assert main(["check", str(viper_file), str(bpl), str(cert)]) == 2
        line = self._one_line_diagnostic(capsys)
        assert line == f"error[reparse]: {cert}: expected 'method' at line 2"


class TestVerify:
    def test_valid_program(self, viper_file, capsys):
        assert main(["verify", str(viper_file)]) == 0
        assert "bounded-valid" in capsys.readouterr().out

    def test_refuted_program(self, tmp_path, capsys):
        path = tmp_path / "bad.vpr"
        path.write_text(BAD)
        assert main(["verify", str(path)]) == 1
        assert "refuted" in capsys.readouterr().out


class TestBench:
    def test_single_suite(self, capsys):
        assert main(["bench", "MPP"]) == 0
        out = capsys.readouterr().out
        assert "banerjee" in out


class TestBenchJsonAndJobs:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "MPP", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "meta", "suites", "overall", "blowup_factor", "analysis_overhead",
            "unit_cache",
        }
        assert payload["unit_cache"]["rebuilt"] == payload["unit_cache"]["units"]
        mpp = payload["suites"]["MPP"]
        assert len(mpp["files"]) == 3
        row = mpp["files"][0]
        assert row["name"] == "banerjee"
        assert row["certified"] is True
        assert row["boogie_loc"] > row["viper_loc"] > 0
        assert mpp["aggregate"]["methods"] == 13
        assert payload["overall"]["all_certified"] is True
        assert payload["blowup_factor"] > 1.0

    def test_jobs_flag_runs_and_matches_serial_structure(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["bench", "MPP", "--json", str(serial_path)]) == 0
        assert main(["bench", "MPP", "--jobs", "2", "--json", str(parallel_path)]) == 0

        def strip_timings(payload):
            for suite in payload["suites"].values():
                for row in suite["files"]:
                    for key in ("translate_seconds", "generate_seconds",
                                "check_seconds", "analyze_seconds",
                                "cache_lookup_seconds", "total_seconds"):
                        row[key] = 0.0
                    # Per-method unit timings are wall-clock too.
                    row["unit_cache"] = {}
                for key in ("mean_check_seconds", "median_check_seconds"):
                    suite["aggregate"][key] = 0.0
            for key in ("mean_check_seconds", "median_check_seconds"):
                payload["overall"][key] = 0.0
            payload["meta"] = {}
            payload["analysis_overhead"] = {}
            return payload

        serial = strip_timings(json.loads(serial_path.read_text()))
        parallel = strip_timings(json.loads(parallel_path.read_text()))
        assert serial == parallel


class TestInterruptAndDiagnostics:
    def test_keyboard_interrupt_returns_130(self, monkeypatch, capsys):
        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_rules", boom)
        assert main(["rules"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_broken_pipe_still_returns_0(self, monkeypatch, capsys):
        def boom(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_rules", boom)
        assert main(["rules"]) == 0

    def test_parse_error_is_a_diagnostic_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.vpr"
        path.write_text("method m( {")
        assert main(["translate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[parse]" in err
        assert "hint:" in err

    def test_type_error_is_a_diagnostic_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "illtyped.vpr"
        path.write_text(
            "field f: Int\n"
            "method m(x: Ref) requires acc(x.f, write) ensures acc(x.f, write)\n"
            "{ y := 1 }\n"
        )
        assert main(["translate", str(path)]) == 2
        assert "error[typecheck]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, source", [
        ("certify", deep_sum_source(400)),
        ("certify", deep_parens_source(100)),
        ("lint", deep_parens_source(100)),
        ("lint", deep_sum_source(1500)),
    ], ids=["certify-sum", "certify-parens", "lint-parens", "lint-sum"])
    def test_deep_input_is_a_coded_diagnostic_with_exit_2(
        self, tmp_path, capsys, command, source
    ):
        path = tmp_path / "deep.vpr"
        path.write_text(source)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "LIM001" in err and "hint:" in err
        assert "Traceback" not in err

    def test_timings_flag_prints_instrumentation(self, viper_file, capsys):
        assert main(["certify", str(viper_file), "--timings"]) == 0
        out = capsys.readouterr().out
        assert "per-stage instrumentation" in out
        assert "translate" in out and "check" in out


class TestFreshProcessRoundTrip:
    """Satellite: certify writes .vpr/.bpl/.cert, then an entirely fresh
    process re-checks them on the independent trusted path."""

    @staticmethod
    def _env():
        import os
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = str(src) + (os.pathsep + existing if existing else "")
        return env

    def test_certify_then_check_in_subprocesses(self, tmp_path):
        source = tmp_path / "demo.vpr"
        source.write_text(GOOD)
        bpl = tmp_path / "demo.bpl"
        cert = tmp_path / "demo.cert"
        certify = subprocess.run(
            [sys.executable, "-m", "repro.cli", "certify", str(source),
             "-o", str(cert), "--boogie-output", str(bpl)],
            capture_output=True, text=True, env=self._env(),
        )
        assert certify.returncode == 0, certify.stderr
        assert cert.read_text().startswith("CERTIFICATE-V1")
        check = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check",
             str(source), str(bpl), str(cert)],
            capture_output=True, text=True, env=self._env(),
        )
        assert check.returncode == 0, check.stderr
        assert "ACCEPTED" in check.stdout
        assert "THEOREM" in check.stdout


class TestLoopsThroughCli:
    def test_loop_source_certifies(self, tmp_path, capsys):
        path = tmp_path / "loop.vpr"
        path.write_text(
            """
            field f: Int
            method m(x: Ref, n: Int)
              requires acc(x.f, write) && n >= 0 ensures acc(x.f, write)
            {
              var i: Int
              i := 0
              while (i < n) invariant acc(x.f, write) && i >= 0 { i := i + 1 }
            }
            """
        )
        assert main(["certify", str(path)]) == 0


class TestVersionFlag:
    def test_version_prints_package_version_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert out.startswith("repro")


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeSignals:
    """`repro serve` drains and exits 130 on SIGINT, 143 on SIGTERM."""

    @staticmethod
    def _spawn_server(tmp_path):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", str(port), "--threads", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache")],
            env=TestFreshProcessRoundTrip._env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        from repro.service.client import ServiceClient

        with ServiceClient(port=port) as client:
            if not client.wait_ready(timeout=30.0):
                proc.kill()
                raise AssertionError(
                    f"server never became ready: {proc.communicate()[1]}"
                )
        return proc, port

    def _signal_and_reap(self, proc, signum) -> int:
        import signal as signal_module

        proc.send_signal(signum)
        try:
            return proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise AssertionError(f"server ignored signal {signum}")

    def test_sigint_exits_130(self, tmp_path):
        import signal as signal_module

        proc, _ = self._spawn_server(tmp_path)
        assert self._signal_and_reap(proc, signal_module.SIGINT) == 130

    def test_sigterm_exits_143_after_serving(self, tmp_path):
        import signal as signal_module

        proc, port = self._spawn_server(tmp_path)
        from repro.service.client import ServiceClient

        with ServiceClient(port=port) as client:
            response = client.certify(GOOD)
            assert response["ok"] is True
        assert self._signal_and_reap(proc, signal_module.SIGTERM) == 143


class TestBenchSignals:
    def test_bench_sigterm_exits_143(self):
        import signal as signal_module
        import time

        # A 50 ms parse delay per file keeps the 72-file run going well past
        # the signal; undelayed, it can finish before 1.5 s.
        env = dict(TestFreshProcessRoundTrip._env(), REPRO_STAGE_DELAY="parse=0.05")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "bench"],
            env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(1.5)  # let imports finish and the corpus run start
        proc.send_signal(signal_module.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise AssertionError("bench ignored SIGTERM")
        _, err = proc.communicate()
        assert code == 143, err
        assert "terminated" in err
