import importlib.util
import pathlib

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
