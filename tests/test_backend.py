"""The numpy kernel module."""

from abrikosov import backend


def test_warmup_is_idempotent():
    backend.warmup()
    backend.warmup()
