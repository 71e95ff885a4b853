"""The numpy kernel module."""

import inspect

from abrikosov import backend


def _kernels():
    """Public functions of the backend other than ``warmup``."""
    return sorted(name for name, obj in vars(backend).items()
                  if inspect.isfunction(obj) and obj.__module__ == backend.__name__
                  and not name.startswith("_") and name != "warmup")


def test_kernel_set():
    assert _kernels() == ["green_grads", "green_values", "psor_sweep"]


def test_warmup_is_idempotent():
    backend.warmup()
    backend.warmup()


def test_warmup_calls_every_kernel(monkeypatch):
    kernels = _kernels()
    called = set()
    for name in kernels:
        kernel = getattr(backend, name)

        def wrapper(*args, _name=name, _kernel=kernel):
            called.add(_name)
            return _kernel(*args)
        monkeypatch.setattr(backend, name, wrapper)
    backend.warmup()
    assert called == set(kernels)
