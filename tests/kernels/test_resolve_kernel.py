"""Kernel selection: ``Cluster(kernel=...)``, ``REPRO_KERNEL`` and their validation."""

from __future__ import annotations

import pytest

from repro.errors import JobError
from repro.kernels import KERNELS, resolve_kernel
from repro.mapreduce.engine import Cluster


@pytest.fixture
def no_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)


def test_kernels_are_numpy_and_python():
    assert KERNELS == ("numpy", "python")


def test_default_is_numpy(no_env):
    assert resolve_kernel() == "numpy"
    assert Cluster().resolved_kernel == "numpy"


@pytest.mark.parametrize("kernel", KERNELS)
def test_valid_request_resolves_to_itself(no_env, kernel):
    assert resolve_kernel(kernel) == kernel
    assert Cluster(kernel=kernel).resolved_kernel == kernel


def test_environment_overrides_a_valid_request(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "python")
    assert resolve_kernel("numpy") == "python"
    assert Cluster(kernel="numpy").resolved_kernel == "python"


def test_empty_environment_value_is_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "")
    assert resolve_kernel("python") == "python"


@pytest.mark.parametrize("env", [None, "python", "numpy"])
@pytest.mark.parametrize("kernel", ["nmupy", "auto", ""])
def test_invalid_request_fails_at_construction(monkeypatch, env, kernel):
    """A typo is never hidden by the environment override."""
    if env is None:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL", env)
    with pytest.raises(JobError) as info:
        Cluster(kernel=kernel)
    message = str(info.value)
    assert "\n" not in message
    assert repr(kernel) in message
    assert "numpy, python" in message
    with pytest.raises(JobError):
        resolve_kernel(kernel)


def test_invalid_environment_value_fails(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "nmupy")
    with pytest.raises(JobError, match="REPRO_KERNEL") as info:
        Cluster(kernel="numpy")
    assert "\n" not in str(info.value)
    with pytest.raises(JobError, match="'nmupy'"):
        resolve_kernel("python")
