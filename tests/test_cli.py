"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main

BLINK = """
u8 led_state = 0;
void main() {
    u16 i;
    for (i = 0; i < 1000; i++) {
        if (timer_fired()) { led_state = led_state ^ 1; led_set(led_state); }
    }
    halt();
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "blink.c"
    path.write_text(BLINK)
    return str(path)


@pytest.fixture()
def edited_file(tmp_path):
    path = tmp_path / "blink2.c"
    path.write_text(BLINK.replace("led_state ^ 1", "led_state ^ 3"))
    return str(path)


class TestCompileCommand:
    def test_basic(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out

    def test_disasm(self, source_file, capsys):
        assert main(["compile", source_file, "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "halt" in out

    def test_output_file(self, source_file, tmp_path, capsys):
        target = str(tmp_path / "blink.bin")
        assert main(["compile", source_file, "-o", target]) == 0
        with open(target, "rb") as handle:
            blob = handle.read()
        assert len(blob) > 0 and len(blob) % 2 == 0

    def test_linear_allocator(self, source_file, capsys):
        assert main(["compile", source_file, "--ra", "linear"]) == 0


class TestRunCommand:
    def test_run_reports_devices(self, source_file, capsys):
        assert main(["run", source_file, "--timer", "700"]) == 0
        out = capsys.readouterr().out
        assert "halted" in out
        assert "LED writes" in out

    def test_run_with_profile(self, source_file, capsys):
        assert main(["run", source_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "hottest sites" in out


class TestUpdateCommand:
    def test_update_metrics(self, source_file, edited_file, capsys):
        assert main(["update", source_file, edited_file]) == 0
        out = capsys.readouterr().out
        assert "Diff_inst" in out
        assert "script" in out

    def test_update_with_script_and_cycles(self, source_file, edited_file, capsys):
        assert main(
            ["update", source_file, edited_file, "--script", "--cycles"]
        ) == 0
        out = capsys.readouterr().out
        assert "Diff_cycle" in out
        assert "copy" in out or "replace" in out

    def test_update_baseline_strategy(self, source_file, edited_file, capsys):
        assert main(
            ["update", source_file, edited_file, "--ra", "gcc", "--da", "gcc"]
        ) == 0


class TestCaseCommand:
    def test_known_case(self, capsys):
        assert main(["case", "2"]) == 0
        out = capsys.readouterr().out
        assert "gcc/gcc" in out and "ucc/ucc" in out

    def test_unknown_case(self, capsys):
        assert main(["case", "nope"]) == 2


class TestBatchCommand:
    @pytest.fixture()
    def jobs_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            '{"jobs": ['
            '{"case": "1", "grid": [3, 3]},'
            '{"case": "6", "ra": "gcc", "da": "gcc"}'
            "]}"
        )
        return str(path)

    def test_batch_runs_case_jobs(self, jobs_file, capsys):
        assert main(["batch", jobs_file]) == 0
        out = capsys.readouterr().out
        assert "fleet batch: 2 jobs" in out
        assert "case1" in out and "case6" in out
        assert "gcc/gcc" in out

    def test_batch_file_jobs(self, source_file, edited_file, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(
            f'[{{"old": "{source_file}", "new": "{edited_file}", "id": "blink"}}]'
        )
        assert main(["batch", str(path)]) == 0
        out = capsys.readouterr().out
        assert "blink" in out and "ok" in out

    def test_batch_repeat_hits_the_cache(self, jobs_file, capsys):
        assert main(["batch", jobs_file, "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "mode=cached" in out
        assert "hit rate 100%" in out

    def test_batch_unknown_case_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text('[{"case": "nope"}]')
        assert main(["batch", str(path)]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_batch_empty_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text("[]")
        assert main(["batch", str(path)]) == 2

    def test_batch_failing_job_sets_exit_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not a program")
        path = tmp_path / "jobs.json"
        path.write_text(f'[{{"old": "{bad}", "new": "{bad}"}}]')
        assert main(["batch", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_files(self, source_file, edited_file, capsys):
        assert main(["verify", source_file, edited_file]) == 0
        out = capsys.readouterr().out
        assert "pass allocation" in out
        assert "pass patch" in out
        assert ": ok" in out

    def test_verify_case(self, capsys):
        assert main(["verify", "--case", "2"]) == 0
        out = capsys.readouterr().out
        assert "verify case 2" in out
        assert "pass energy" in out

    def test_verify_case_with_ilp(self, capsys):
        assert main(["verify", "--case", "1", "--ra", "ucc-ilp"]) == 0
        out = capsys.readouterr().out
        assert "ra=ucc-ilp" in out

    def test_verify_unknown_case(self, capsys):
        assert main(["verify", "--case", "nope"]) == 2

    def test_verify_without_inputs(self, capsys):
        assert main(["verify"]) == 2


class TestCampaignCommand:
    @pytest.mark.parametrize(
        "coding,refusal",
        [
            (["--coding", "xor"], "the 'xor' burst-parity scheme rides"),
            (["--coding", "lt", "--protocol", "trickle"], "the 'lt' fountain replaces"),
        ],
        ids=["xor-on-flood", "lt-on-trickle"],
    )
    def test_coding_that_does_not_fit_the_protocol_is_refused(
        self, capsys, coding, refusal
    ):
        assert main(["campaign", "--case", "6", "--grid", "3", *coding]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"campaign: {refusal}")


BAD_SYNTAX = "void main( {\n"
NO_MAIN = "u8 g;\nvoid tick() { g = g + 1; }\n"


class TestInputErrors:
    """A file that cannot be read or compiled is reported on one
    ``repro <command>: <file>...`` line on stderr, with exit status 2
    and no traceback."""

    @pytest.fixture()
    def files(self, tmp_path, source_file):
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_SYNTAX)
        no_main = tmp_path / "nomain.c"
        no_main.write_text(NO_MAIN)
        return {
            "ok": source_file,
            "bad": str(bad),
            "nomain": str(no_main),
            "missing": str(tmp_path / "missing.c"),
        }

    @staticmethod
    def refused(capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro {argv[0]}: {message}\n"

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_syntax_error_names_the_file_and_position(self, files, capsys, command):
        self.refused(
            capsys,
            [command, files["bad"]],
            f"{files['bad']}:1:12: expected a type, found '{{'",
        )

    def test_back_end_error_names_the_file(self, files, capsys):
        self.refused(
            capsys,
            ["compile", files["nomain"]],
            f"{files['nomain']}: entry point 'main' not defined",
        )

    def test_missing_file_gives_the_os_error(self, files, capsys):
        self.refused(
            capsys,
            ["compile", files["missing"]],
            f"[Errno 2] No such file or directory: '{files['missing']}'",
        )

    def test_undecodable_file_names_the_file(self, files, tmp_path, capsys):
        binary = tmp_path / "binary.c"
        binary.write_bytes(b"\xff\xfe")
        assert main(["compile", str(binary)]) == 2
        assert capsys.readouterr().err.startswith(f"repro compile: {binary}: 'utf-8' codec")

    @pytest.mark.parametrize("command", ["update", "verify", "campaign", "profile"])
    def test_new_file_error_names_the_new_file(self, files, capsys, command):
        self.refused(
            capsys,
            [command, files["ok"], files["bad"]],
            f"{files['bad']}:1:12: expected a type, found '{{'",
        )

    @pytest.mark.parametrize("command", ["update", "verify", "campaign", "profile"])
    def test_old_file_error_names_the_old_file(self, files, capsys, command):
        self.refused(
            capsys,
            [command, files["nomain"], files["ok"]],
            f"{files['nomain']}: entry point 'main' not defined",
        )

    def test_profile_back_end_error_in_the_new_file(self, files, capsys):
        self.refused(
            capsys,
            ["profile", files["ok"], files["nomain"]],
            f"{files['nomain']}: entry point 'main' not defined",
        )

    def test_missing_new_file(self, files, capsys):
        self.refused(
            capsys,
            ["update", files["ok"], files["missing"]],
            f"[Errno 2] No such file or directory: '{files['missing']}'",
        )

    def test_batch_missing_jobs_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        self.refused(
            capsys,
            ["batch", str(missing)],
            f"[Errno 2] No such file or directory: '{missing}'",
        )

    def test_batch_truncated_jobs_file(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text('[{"old": ')
        self.refused(
            capsys, ["batch", str(path)], f"{path}: Expecting value: line 1 column 10 (char 9)"
        )

    def test_batch_jobs_file_neither_list_nor_object(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text("42")
        self.refused(
            capsys,
            ["batch", str(path)],
            f'{path}: expected a list of jobs or an object with "jobs", found int',
        )

    @pytest.mark.parametrize("broken", ["bad", "nomain"])
    def test_plan_versions_names_the_failing_release(self, files, capsys, broken):
        message = {
            "bad": f"{files['bad']}:1:12: expected a type, found '{{'",
            "nomain": f"{files['nomain']}: entry point 'main' not defined",
        }[broken]
        self.refused(
            capsys, ["plan-versions", files["ok"], files[broken], files["ok"]], message
        )
