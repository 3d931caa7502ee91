"""The runnable examples still run: an API change cannot rot one silently."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_link_prediction_example_runs(capsys):
    runpy.run_path(str(EXAMPLES / "link_prediction.py"), run_name="example")["main"]()
    out = capsys.readouterr().out
    assert "ROC-AUC after training:" in out
    assert "ROC-AUC (unsupervised embeddings):" in out
