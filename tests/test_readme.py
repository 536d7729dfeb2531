import logging
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def first_python_block() -> str:
    with open(README) as fh:
        return re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)


def test_quick_start_recovers_ground_truth(caplog):
    namespace = {}
    with caplog.at_level(logging.WARNING):
        exec(compile(first_python_block(), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.landmark_mae_mean < 1e-6
    assert report.p2m_vb_mean < 1e-6
    assert not [r for r in caplog.records if "non-positive disc height" in r.getMessage()]
