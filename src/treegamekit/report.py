"""Small pass/fail records shared by the verification entry points, and
the settings of the verify suite, which the CLI's parser reads its
defaults from without loading the suite."""

from __future__ import annotations

from typing import NamedTuple

from .game import CENSUS_LIMIT


class VerifyConfig(NamedTuple):
    n: int = 7
    seed: int = 0
    samples: int = 200
    trials: int = 20000
    census_limit: int = CENSUS_LIMIT


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {status}" + (f" ({self.details})" if self.details else "")
