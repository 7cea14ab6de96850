import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# the suite's matrices are small, so a BLAS thread pool only adds overhead
# (the README's BLAS section and perfbench/run.py pin it the same way).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from shapreg import cv  # noqa: E402


@pytest.fixture
def cv_fit_configs(monkeypatch):
    """Route every ``fit`` that ``cv`` makes through a recorder; the list
    holds each call's config, in call order."""
    configs = []
    library_fit = cv.fit

    def recorded(data, k, config, start=None):
        configs.append(config)
        return library_fit(data, k, config, start=start)

    monkeypatch.setattr(cv, "fit", recorded)
    return configs
