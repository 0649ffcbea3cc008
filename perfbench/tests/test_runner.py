"""The runner counts exits and failed checks into ``failed``."""

import shutil

import run
import workloads


class _FakeCli:
    """Copies the reference output, optionally corrupted, or fails."""

    def __init__(self, mode):
        self.mode = mode

    def main(self, argv):
        out = argv[argv.index("--out") + 1]
        if self.mode == "exit":
            return 4
        if self.mode == "raise":
            raise RuntimeError("boom")
        if self.mode == "missing":
            return 0
        shutil.copy(workloads.REFERENCE / "group_size.csv", out)
        if self.mode == "flip":
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text.replace(",false,", ",true,", 1))
        return 0


def _run(tmp_path, mode):
    workload = workloads.make("contract", seed=1)
    workload.invocations = workload.invocations[:1]   # sweep-group-size only
    workload.prepare(tmp_path, None)
    runner = run.Runner(_FakeCli(mode), workload, tmp_path)
    runner.measured_pass()
    runner.measured_pass()
    return runner


def test_clean_output_counts_as_attempted_only(tmp_path):
    runner = _run(tmp_path, "ok")
    assert (runner.attempted, runner.failed, runner.problems) == (2, 0, [])
    assert list(tmp_path.iterdir()) == []


def test_failures_are_counted(tmp_path):
    for mode in ("exit", "raise", "missing", "flip"):
        runner = _run(tmp_path, mode)
        assert (runner.attempted, runner.failed) == (2, 2), mode
        assert runner.problems, mode
