import importlib.util
import os
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

PARENT = "K,eval_mean,eval_stderr,capped,row_seed\n16,0.5,1e-3,false,[1]\n64,0.25,2e-3,false,[1]\n"


def test_drift_summary_names_each_column_that_differs_with_its_largest_drift():
    change = "K,eval_mean,eval_stderr,capped,row_seed\n16,0.5000000001,1e-3,false,[1]\n64,0.25,2.000002e-3,true,[1]\n"
    assert compare_outputs.drift_summary(PARENT, change) == "eval_mean 2e-10, eval_stderr 1e-06, capped inf"


def test_drift_summary_of_equal_values():
    # Different bytes for one number: no column drifts.
    assert compare_outputs.drift_summary(PARENT, PARENT.replace("0.5,", "5e-1,")) == "none"


def test_drift_summary_refuses_to_align_different_tables():
    assert compare_outputs.drift_summary(PARENT, PARENT + "256,0.1,1e-3,false,[1]\n") == \
        "header or row shape differs"
    assert compare_outputs.drift_summary(PARENT, PARENT.replace("capped", "clamped")) == \
        "header or row shape differs"


def test_differing_rows_names_each_row_that_differs_by_its_first_column():
    change = PARENT.replace("64,0.25,", "64,0.2500001,") + "256,0.1,1e-3,false,[1]\n"
    parent = PARENT + "256,0.1,1e-3,false,[1]\n"
    assert compare_outputs.differing_rows(parent, change) == "K=64"
    both = change.replace("16,0.5,", "16,0.5000001,")
    assert compare_outputs.differing_rows(parent, both) == "K=16, K=64"
    assert compare_outputs.differing_rows(PARENT, PARENT) == ""
    # Tables that do not align name no rows; the drift line says why.
    assert compare_outputs.differing_rows(PARENT, parent) == ""


def test_differing_paths_names_the_keys_that_differ():
    parent = {"command": "awgn", "rows": [{"K": 16, "error_count": 3}, {"K": 64, "error_count": 9}],
              "config": {"trials": 60}}
    change = {"command": "awgn", "rows": [{"K": 16, "error_count": 3}, {"K": 64, "error_count": 8}],
              "config": {"trials": 60.0}, "extra": True}
    assert compare_outputs.differing_paths(parent, change) == \
        ["rows[1].error_count", "config.trials", "extra"]
    assert compare_outputs.differing_paths(parent, parent) == []
    # A list whose length differs is one path; at most ``limit`` paths are given.
    assert compare_outputs.differing_paths({"rows": [1]}, {"rows": [1, 2]}) == ["rows"]
    many = {f"k{i}": i for i in range(9)}
    assert compare_outputs.differing_paths(many, {}, limit=5) == [f"k{i}" for i in range(5)]


def test_load_report_drops_the_wall_time(tmp_path):
    path = tmp_path / "awgn.json"
    path.write_text('{"wall_time_s": 1.5, "rows": [{"K": 2}]}', encoding="utf-8")
    assert compare_outputs.load_report(str(path)) == {"rows": [{"K": 2}]}


def test_run_measured_reads_the_childs_exit_code_output_and_peak_rss(tmp_path):
    # The child writes 64 MiB, so its peak resident set is at least that.
    code, output, peak = compare_outputs.run_measured(
        [sys.executable, "-c", "b = b'x' * (64 << 20); print('ok'); raise SystemExit(3)"],
        str(tmp_path), dict(os.environ))
    assert (code, output) == (3, b"ok\n")
    assert 64 <= peak < 1024


def test_source_lines_sums_the_python_files_under_src_grassquant(tmp_path):
    def checkout(name, files):
        for rel, text in files.items():
            path = tmp_path / name / "src" / "grassquant" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return str(tmp_path / name)

    parent = checkout("parent", {"__init__.py": "a\nb\nc\n", "sub/kernel.py": "x\ny\n",
                                 "notes.txt": "not\ncounted\n"})
    change = checkout("change", {"__init__.py": "a\nb\n", "sub/kernel.py": "x\ny\n"})
    (tmp_path / "change" / "setup.py").write_text("outside\n", encoding="utf-8")
    assert compare_outputs.source_lines(parent) == 5
    assert compare_outputs.source_lines(change) == 4


def test_run_timed_adds_the_calls_wall_time_to_run_measured(tmp_path):
    code, output, peak, wall = compare_outputs.run_timed(
        [sys.executable, "-c", "import time; time.sleep(0.3); print('ok'); raise SystemExit(2)"],
        str(tmp_path), dict(os.environ))
    assert (code, output) == (2, b"ok\n")
    assert 0 < peak < 1024
    assert 0.3 <= wall < 60
