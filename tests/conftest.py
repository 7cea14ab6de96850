import pytest

from shapreg import cv


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
