"""Reference renderings the production code must keep matching."""

import enum
from dataclasses import asdict


def asdict_params(config):
    """A SystemConfig through ``dataclasses.asdict``, enums to values.

    The deep-copying rendering every design-point key, journal record and
    query digest was first recorded with; ``config_to_params`` must stay
    equal to it key for key, in order and in type.
    """
    return {
        name: value.value if isinstance(value, enum.Enum) else value
        for name, value in asdict(config).items()
    }
